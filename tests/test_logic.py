import copy
import gc
import pickle
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import pytest

from twofst.cli import parse
from twofst.machines import AB, block_doubler, block_doubler_fot, parity_twoway
from twofst.logic import (
    And,
    EvalSession,
    Exists,
    FactorClass,
    Forall,
    Formula,
    FormulaSyntaxError,
    Le,
    Letter,
    MalformedClassAtom,
    MonoidRegistry,
    Not,
    Or,
    PositionOutOfRange,
    PrefixClass,
    RegistryError,
    RunAtom,
    SuffixClass,
    TrueF,
    UnboundVariable,
    certify_star_free,
    check_atoms,
    compile_to_dfa,
    conj,
    eval_formula,
    free_vars,
    linear_graph_sentence,
    mark_word,
    neg,
    parse_formula,
    show_formula,
    subst_var,
)
from twofst.logic import _NODES, _Compiler, _all_vars, _explore_run_atom, _fields, _fresh_var, _nodes
from twofst.monoid import class_of, transition_monoid
from twofst.words import dfa_accepts, dfa_is_counter_free, dfa_same_language, marked_alphabet

from conftest import budget, data_path, random_formula, words_upto


def order_12():
    return block_doubler_fot().order[(1, 2)]


def order_21():
    return block_doubler_fot().order[(2, 1)]


def test_worked_order_formula_values():
    # phi_le^{2,1}(x,y) = exists z x<=z<=y and b(z)
    assert eval_formula(order_21(), "aababb", {"x": 1, "y": 3})
    # phi_le^{1,2}(x,y) at x=2, y=1: x<=y fails but [1,2] is all a
    assert eval_formula(order_12(), "aababb", {"x": 2, "y": 1})
    assert not eval_formula(Letter("a", "x"), "aab", {"x": 3})


def test_eval_errors():
    with pytest.raises(UnboundVariable):
        eval_formula(Letter("a", "x"), "ab", {})
    with pytest.raises(UnboundVariable):
        eval_formula(Exists("y", Le("x", "y")), "ab", {"y": 1})
    reg = MonoidRegistry()
    reg.register("M", transition_monoid(block_doubler()))
    with pytest.raises(MalformedClassAtom):
        eval_formula(FactorClass("M", "a", "x", "y"), "ab", {"x": 2, "y": 1}, reg)


@pytest.mark.parametrize("marked", [False, True], ids=["plain", "marked"])
def test_eval_checks_the_assignment(marked):
    # positions are 1..n, or 0..n+1 when marked; anything else is an error,
    # not a read of some other cell
    w = "ab"
    first, last = (0, 3) if marked else (1, 2)
    for phi in [Letter("b", "x"), Le("y", "x"), Exists("y", Le("x", "y"))]:
        session = EvalSession(w, marked=marked)
        for bad in (first - 1, last + 1, 9, "1"):
            with pytest.raises(PositionOutOfRange):
                session.eval(phi, {"x": bad, "y": first})
            with pytest.raises(PositionOutOfRange):
                eval_formula(phi, w, {"x": bad, "y": first}, marked=marked)
        with pytest.raises(UnboundVariable):
            session.eval(phi, {"z": first})
        for i in session.positions:
            session.eval(phi, {"x": i, "y": first})
    assert not eval_formula(Letter("b", "x"), w, {"x": first}, marked=marked)
    assert eval_formula(Letter("b", "x"), w, {"x": 2, "y": 99}, marked=marked)  # y is not free
    with pytest.raises(PositionOutOfRange):
        eval_formula(Letter("a", "x"), "", {"x": 1})
    assert eval_formula(TrueF(), "", {"x": 99})


def test_empty_word_quantifiers():
    assert not eval_formula(Exists("x", TrueF()), "", {})
    assert eval_formula(Forall("x", Letter("a", "x")), "", {})


def test_marked_context():
    assert eval_formula(Letter("^", "x"), "ab", {"x": 0}, marked=True)
    assert eval_formula(Letter("$", "x"), "ab", {"x": 3}, marked=True)
    assert not eval_formula(Exists("x", Letter("^", "x")), "ab", {})
    assert eval_formula(Exists("x", Letter("^", "x")), "ab", {}, marked=True)


def test_linear_graph_sentence_on_words():
    phi = linear_graph_sentence()
    assert not eval_formula(phi, "", {})
    for w in words_upto(4, min_len=1):
        assert eval_formula(phi, w, {})


def test_registry_certificate(doubler_monoid):
    reg = MonoidRegistry()
    reg.register("M", doubler_monoid)
    with pytest.raises(RegistryError):
        reg.register("P", transition_monoid(parity_twoway()))
    with pytest.raises(RegistryError):
        reg.element("M", "nonsense")


def test_class_atom_soundness(doubler_monoid, registry):
    m = doubler_monoid
    for w in words_upto(4, min_len=1):
        n = len(w)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                e = class_of(m, w[i - 1 : j])
                atom = FactorClass("M", m.element_id(e), "x", "y")
                assert eval_formula(atom, w, {"x": i, "y": j}, registry), (w, i, j)
        for i in range(1, n + 1):
            pre = class_of(m, w[: i - 1])
            suf = class_of(m, w[i:])
            assert eval_formula(
                PrefixClass("M", m.element_id(pre), "x"), w, {"x": i}, registry
            )
            assert eval_formula(
                SuffixClass("M", m.element_id(suf), "x"), w, {"x": i}, registry
            )


def test_compile_simple_sentence():
    d = compile_to_dfa(Exists("x", Letter("a", "x")), [], AB)
    for w in words_upto(5):
        assert dfa_accepts(d, tuple((c, ()) for c in w)) == ("a" in w)


def test_compile_le_atom():
    d = compile_to_dfa(Le("x", "y"), ["x", "y"], AB)
    for w in words_upto(4, min_len=1):
        for i in range(1, len(w) + 1):
            for j in range(1, len(w) + 1):
                marked = mark_word(w, {"x": i, "y": j}, ["x", "y"])
                assert dfa_accepts(d, marked) == (i <= j), (w, i, j)


def test_compile_eval_agreement_random():
    rng = random.Random(42)
    for trial in range(60):
        phi = random_formula(rng, ["x"], 3)
        d = compile_to_dfa(phi, ["x"], AB)
        for w in words_upto(3, min_len=1):
            for i in range(1, len(w) + 1):
                want = eval_formula(phi, w, {"x": i})
                got = dfa_accepts(d, mark_word(w, {"x": i}, ["x"]))
                assert got == want, (show_formula(phi), w, i)


def test_compile_sentence_language(registry):
    phi = Exists("x", conj([Letter("a", "x"), Forall("y", Le("x", "y"))]))
    d = compile_to_dfa(phi, [], AB)
    for w in words_upto(6):
        want = eval_formula(phi, w, {})
        assert dfa_accepts(d, tuple((c, ()) for c in w)) == want


@pytest.mark.parametrize("marked", [False, True], ids=["plain", "marked"])
def test_compile_class_atoms_agree(doubler_monoid, registry, marked):
    # every element of the running example's monoid in every shape of class
    # atom, on every word up to length 4 and every assignment, endmarkers
    # included when marked; a factor that closes before it opens is false
    atoms = []
    for e in doubler_monoid.by_id:
        atoms += [FactorClass("M", e, x, y) for x, y in ("xy", "yx", "xx")]
        atoms += [PrefixClass("M", e, "x"), SuffixClass("M", e, "y")]
    scope = ["x", "y"]
    dfas = [compile_to_dfa(phi, scope, AB, registry, marked) for phi in atoms]
    for w in words_upto(4):
        session = EvalSession(w, registry, marked)
        for phi, d in zip(atoms, dfas):
            for cells in product(session.positions, repeat=2):
                sigma = dict(zip(scope, cells))
                try:
                    want = session.eval(phi, sigma)
                except MalformedClassAtom:
                    want = False
                got = dfa_accepts(d, mark_word(w, sigma, scope, marked))
                assert got == want, (show_formula(phi), w, cells)


@pytest.mark.parametrize("marked", [False, True], ids=["plain", "marked"])
def test_compile_renames_a_quantifier_of_a_variable_in_scope(marked):
    # the inner x is bound afresh, apart from the free x it shadows
    formulas = [
        parse_formula("(and (letter a x) (exists x (letter b x)))"),
        parse_formula("(or (letter a x) (forall x (le x y)))"),
    ]
    scope = ["x", "y"]
    for phi in formulas:
        d = compile_to_dfa(phi, scope, AB, None, marked)
        for w in words_upto(4):
            session = EvalSession(w, None, marked)
            for cells in product(session.positions, repeat=2):
                sigma = dict(zip(scope, cells))
                got = dfa_accepts(d, mark_word(w, sigma, scope, marked))
                assert got == session.eval(phi, sigma), (show_formula(phi), w, cells)


def test_compile_marked_mode(registry):
    phi = Exists("x", Letter("^", "x"))
    d = compile_to_dfa(phi, [], AB, registry, marked=True)
    tape = tuple((s, ()) for s in ("^", "a", "b", "$"))
    assert dfa_accepts(d, tape)
    # shape violations rejected
    assert not dfa_accepts(d, tuple((s, ()) for s in ("a", "$")))


def test_quantifier_duality():
    rng = random.Random(5)
    for _ in range(40):
        body = random_formula(rng, ["x"], 2)
        left = neg(Exists("x", body))
        right = Forall("x", neg(body))
        for w in words_upto(3):
            assert eval_formula(left, w, {}) == eval_formula(right, w, {}), (
                show_formula(body),
                w,
            )


def test_certify_star_free(registry):
    cert = certify_star_free(Exists("x", Letter("a", "x")), [], AB)
    assert cert.star_free and cert.index >= 0
    assert certify_star_free(order_12(), ["x", "y"], AB).star_free
    atom = FactorClass("M", "ab", "x", "y")
    guarded = conj([Le("x", "y"), atom])
    assert certify_star_free(guarded, ["x", "y"], AB, registry).star_free


def test_fo_is_star_free_random():
    rng = random.Random(99)
    for _ in range(40):
        phi = random_formula(rng, [], 3)
        d = compile_to_dfa(phi, [], AB)
        assert dfa_is_counter_free(d).aperiodic, show_formula(phi)


def test_parse_show_roundtrip(registry):
    texts = [
        "(true)",
        "(letter a x)",
        "(le x y)",
        "(class M ab x y)",
        "(pclass M a x)",
        "(sclass M bb x)",
        "(and (letter a x) (le x y))",
        "(or (letter b x) (not (true)))",
        "(exists x (forall y (le x y)))",
        "(accept M)",
        "(visit M 2 x)",
        "(reach M 0 1 y x)",
    ]
    for text in texts:
        phi = parse_formula(text)
        assert parse_formula(show_formula(phi)) == phi
    assert parse_formula("(reach M 0 1 y x)") == RunAtom("M", "reach", (0, 1), ("y", "x"))
    assert show_formula(RunAtom("M", "visit", (2,), ("x",))) == "(visit M 2 x)"


@pytest.mark.parametrize(
    "text",
    ["(accept)", "(accept M x)", "(visit M 0)", "(reach M 0 x y)", "(visit M q x)",
     "(visit M -1 x)", "(visit (true) 0 x)"],
)
def test_run_atom_syntax_errors(text):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(text)


@pytest.mark.parametrize("text", ["", "   ", "(le x (true))", "((true))", "(exists (x) (true))"])
def test_formula_syntax_errors(text):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(text)


def test_run_atom_registry_errors(registry):
    with pytest.raises(RegistryError):
        eval_formula(parse_formula("(accept N)"), "ab", {}, registry)
    with pytest.raises(RegistryError):  # the doubler has states 0..2
        eval_formula(parse_formula("(visit M 3 x)"), "ab", {"x": 1}, registry)
    with pytest.raises(RegistryError):
        eval_formula(parse_formula("(accept M)"), "ab", {})


def test_subst_var_capture():
    phi = Exists("y", Le("x", "y"))
    sub = subst_var(phi, {"x": "y"})  # must not capture
    assert eval_formula(sub, "ab", {"y": 1}) == eval_formula(
        Exists("z", Le("y", "z")), "ab", {"y": 1}
    )
    assert free_vars(sub) == frozenset({"y"})


def test_subst_var_swaps_under_a_binder_of_a_new_name():
    # x and y trade places at once; the binder y would capture the new y
    phi = And((Le("x", "y"), Exists("y", And((Le("x", "y"), Letter("a", "y"))))))
    swapped = subst_var(phi, {"x": "y", "y": "x"})
    assert swapped == And((Le("y", "x"), Exists("y_1", And((Le("y", "y_1"), Letter("a", "y_1"))))))
    for w in words_upto(3, min_len=1):
        for i, j in product(range(1, len(w) + 1), repeat=2):
            assert eval_formula(swapped, w, {"x": i, "y": j}) == eval_formula(phi, w, {"x": j, "y": i})


NODE_SAMPLES = {  # one node of each kind, over the monoid M of the block doubler
    TrueF: TrueF(),
    Letter: Letter(("a", (1,)), "x"),
    Le: Le("x", "y"),
    FactorClass: FactorClass("M", "ab", "x", "y"),
    PrefixClass: PrefixClass("M", "a", "x"),
    SuffixClass: SuffixClass("M", "ab", "y"),
    RunAtom: RunAtom("M", "reach", (0, 2), ("y", "x")),
    And: And((Le("x", "y"), Letter("b", "z"))),
    Or: Or((Le("x", "y"), Letter("b", "z"))),
    Not: Not(Le("x", "y")),
    Exists: Exists("z", And((Le("x", "z"), Le("z", "y")))),
    Forall: Forall("z", Or((Le("x", "z"), Letter("a", "y")))),
}


def test_every_node_kind_prints_parses_renames_and_is_checked(registry):
    # a new node kind fails here until it has a sample, and its sample fails
    # until the syntax table has a row for the kind
    assert set(NODE_SAMPLES) == set(Formula.__subclasses__())
    renaming = {"x": "u", "y": "v", "z": "w"}
    back = {new: old for old, new in renaming.items()}
    bad_atoms = [
        FactorClass("M", "nope", "x", "y"),
        PrefixClass("N", "a", "x"),
        SuffixClass("M", "nope", "y"),
        RunAtom("M", "visit", (3,), ("x",)),
        RunAtom("N", "accept", (), ()),
    ]
    connectives = 0
    for kind, phi in NODE_SAMPLES.items():
        assert parse_formula(show_formula(phi)) == phi, kind
        renamed = subst_var(phi, renaming)
        assert free_vars(renamed) == {renaming[v] for v in free_vars(phi)}, kind
        assert subst_var(renamed, back) == phi, kind
        check_atoms(phi, registry)
        # put each bad atom where the node keeps its subformulas
        holds_subformulas = False
        values = [getattr(phi, name) for name, _ in phi.shape]
        for k, value in enumerate(values):
            if isinstance(value, Formula):
                placed = bad_atoms
            elif isinstance(value, tuple) and value and isinstance(value[0], Formula):
                placed = [value[:-1] + (bad,) for bad in bad_atoms]
            else:
                continue
            holds_subformulas = True
            for new in placed:
                with pytest.raises(RegistryError):
                    check_atoms(type(phi)(*values[:k], new, *values[k + 1 :]), registry)
        connectives += holds_subformulas
    assert connectives == 5
    for bad in bad_atoms:
        with pytest.raises(RegistryError):
            check_atoms(bad, registry)


def test_session_matches_eval(registry):
    # the reference is the compiled automaton, independent of the evaluator;
    # one session serves every formula of a word, so its memo is shared
    rng = random.Random(3)
    formulas = [random_formula(rng, ["x"], 3) for _ in range(25)]
    dfas = [compile_to_dfa(phi, ["x"], AB, registry) for phi in formulas]
    for w in ["", "a", "ab", "bba"]:
        session = EvalSession(w, registry)
        for phi, d in zip(formulas, dfas):
            for i in range(1, len(w) + 1):
                want = dfa_accepts(d, mark_word(w, {"x": i}, ["x"]))
                assert session.eval(phi, {"x": i}) == want, (show_formula(phi), w, i)


@pytest.mark.parametrize("marked", [False, True], ids=["plain", "marked"])
def test_run_atoms_compile_as_they_evaluate(registry, marked):
    # every run atom of the running example's 9-element monoid, on every
    # word up to length 4 and every assignment, endmarkers included when
    # marked; reach atoms also with their variables in the other bit order
    n = 3
    atoms = [(RunAtom("M", "accept", (), ()), [])]
    atoms += [(RunAtom("M", "visit", (i,), ("x",)), ["x"]) for i in range(n)]
    for i, j in product(range(n), repeat=2):
        phi = RunAtom("M", "reach", (i, j), ("x", "y"))
        atoms += [(phi, ["x", "y"]), (phi, ["y", "x"])]
    dfas = [compile_to_dfa(phi, scope, AB, registry, marked) for phi, scope in atoms]
    for w in words_upto(4):
        session = EvalSession(w, registry, marked)
        for (phi, scope), d in zip(atoms, dfas):
            for cells in product(session.positions, repeat=len(scope)):
                sigma = dict(zip(scope, cells))
                want = dfa_accepts(d, mark_word(w, sigma, scope, marked))
                assert session.eval(phi, sigma) == want, (show_formula(phi), scope, w, cells)


@pytest.mark.parametrize("marked", [False, True], ids=["plain", "marked"])
def test_cached_run_atoms_lift_as_fresh_explorations(doubler, marked):
    # each atom is explored once, at its own width, and kept on its monoid;
    # lifted into a scope it equals the atom explored afresh over that scope,
    # with its variables on every bit of a three-variable scope
    m = transition_monoid(doubler)
    reg = MonoidRegistry()
    reg.register("M", m)
    atoms = [
        RunAtom("M", "accept", (), ()),
        RunAtom("M", "visit", (1,), ("x",)),
        RunAtom("M", "reach", (0, 2), ("x", "y")),
        RunAtom("M", "reach", (0, 2), ("y", "x")),
        RunAtom("M", "reach", (1, 1), ("x", "x")),
    ]
    scopes = [("x", "y", "z"), ("z", "x", "y"), ("y", "z", "x")]
    alpha = marked_alphabet(AB, 3, with_marks=marked)
    comp = _Compiler(AB, reg, marked)
    for phi in atoms:
        for scope in scopes:
            fresh = _explore_run_atom(m, phi, alpha, [scope.index(v) for v in phi.vars])
            assert dfa_same_language(comp.compile(phi, scope), fresh), (show_formula(phi), scope)
    # x y and y x share one entry; x x has its own
    assert [key[:4] for key in m._atoms] == [
        ("accept", (), (), marked),
        ("visit", (1,), (0,), marked),
        ("reach", (0, 2), (0, 1), marked),
        ("reach", (1, 1), (0, 0), marked),
    ]


def test_registries_of_one_machine_share_no_run_atom_dfas(doubler):
    monoids = [transition_monoid(doubler), transition_monoid(doubler)]
    registries = [MonoidRegistry(), MonoidRegistry()]
    for reg, m in zip(registries, monoids):
        reg.register("M", m)
    phi = RunAtom("M", "reach", (0, 1), ("x", "y"))
    first = compile_to_dfa(phi, ["x", "y"], AB, registries[0])
    assert monoids[0]._atoms and not monoids[1]._atoms
    second = compile_to_dfa(phi, ["x", "y"], AB, registries[1])
    assert dfa_same_language(first, second)
    assert monoids[0]._atoms.keys() == monoids[1]._atoms.keys()
    for key, d in monoids[0]._atoms.items():
        assert monoids[1]._atoms[key] is not d


def _run_cells(t, w, state, pos):
    """Configurations of the run of ``t`` on ``^ w $`` from ``(state, pos)``,
    stepped one transition at a time until it stops or repeats."""
    tape = ("^",) + tuple(w) + ("$",)
    seen = set()
    while (state, pos) not in seen:
        seen.add((state, pos))
        if tape[pos] == "$" and state in t.finals or (state, tape[pos]) not in t.rules:
            break
        state, _, move = t.rules[(state, tape[pos])]
        pos += move
    return seen


def naive_eval(phi, w, sigma, marked, machine=None):
    """Plain recursive FO semantics, with no memo and no shared state; run
    atoms step ``machine``, the machine of their monoid."""
    positions = range(0, len(w) + 2) if marked else range(1, len(w) + 1)
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, Letter):
        return (("^",) + tuple(w) + ("$",))[sigma[phi.var]] == phi.symbol
    if isinstance(phi, Le):
        return sigma[phi.left] <= sigma[phi.right]
    if isinstance(phi, Not):
        return not naive_eval(phi.arg, w, sigma, marked, machine)
    if isinstance(phi, And):
        return all(naive_eval(a, w, sigma, marked, machine) for a in phi.args)
    if isinstance(phi, Or):
        return any(naive_eval(a, w, sigma, marked, machine) for a in phi.args)
    if isinstance(phi, (Exists, Forall)):
        hits = (naive_eval(phi.body, w, {**sigma, phi.var: i}, marked, machine) for i in positions)
        return any(hits) if isinstance(phi, Exists) else all(hits)
    if isinstance(phi, RunAtom):
        cells = [sigma[v] for v in phi.vars]
        if any(c in (0, len(w) + 1) for c in cells):
            return False
        t = machine
        if phi.kind == "visit":
            return (t.states[phi.states[0]], cells[0]) in _run_cells(t, w, t.initial, 0)
        start, goal = (t.states[i] for i in phi.states)
        return (goal, cells[1]) in _run_cells(t, w, start, cells[0])
    raise TypeError(phi)


def naive_free(phi) -> set:
    if isinstance(phi, (And, Or)):
        return set().union(*map(naive_free, phi.args))
    if isinstance(phi, Not):
        return naive_free(phi.arg)
    if isinstance(phi, (Exists, Forall)):
        return naive_free(phi.body) - {phi.var}
    if isinstance(phi, Letter):
        return {phi.var}
    if isinstance(phi, Le):
        return {phi.left, phi.right}
    if isinstance(phi, RunAtom):
        return set(phi.vars)
    assert isinstance(phi, TrueF), phi
    return set()


def shared_formulas(rng, leaves, count, cap=60):
    """``count`` random formulas over ``leaves``, each built from two earlier
    members of the pool, so later formulas share subterms; quantifiers bind
    x, y or z, shadowing free occurrences.  A formula is kept only when its
    tree unfolding, with quantifiers over six positions, is at most ``cap``
    atoms, so that the naive evaluator stays fast."""
    pool = [(phi, 1) for phi in leaves]
    while len(pool) < len(leaves) + count:
        kind = rng.choice(["and", "or", "not", "exists", "forall"])
        (a, ca), (b, cb) = rng.choice(pool), rng.choice(pool)
        if kind in ("and", "or"):
            new = ((And if kind == "and" else Or)((a, b)), ca + cb)
        elif kind == "not":
            new = (Not(a), ca)
        else:
            new = ((Exists if kind == "exists" else Forall)(rng.choice("xyz"), a), 6 * ca)
        if new[1] <= cap:
            pool.append(new)
    return [phi for phi, _ in pool]


@pytest.mark.parametrize("marked", [False, True], ids=["plain", "marked"])
def test_session_matches_naive_semantics(marked):
    # one session per word evaluates every formula of a shared pool under
    # every assignment of its free variables, against the naive evaluator;
    # the largest formulas go first, so their subformulas are not yet memoized
    fig1 = parse(data_path("fig1.2wt")).value
    registry = MonoidRegistry()
    registry.register("N", transition_monoid(fig1))
    leaves = [TrueF()]
    leaves += [Letter(a, v) for a in ("a", "b", "^", "$") for v in "xyz"]
    leaves += [Le(u, v) for u in "xyz" for v in "xyz"]
    leaves += [RunAtom("N", "visit", (i,), (v,)) for i in range(3) for v in "xy"]
    leaves += [RunAtom("N", "reach", (i, j), vs) for i, j, vs in
               [(0, 1, ("x", "y")), (1, 2, ("y", "x")), (2, 0, ("x", "y")), (0, 0, ("x", "x"))]]
    formulas = shared_formulas(random.Random(17), leaves, 120)[::-1]
    for phi in formulas:
        assert free_vars(phi) == naive_free(phi), show_formula(phi)
    checked = 0
    for w in words_upto(4):
        session = EvalSession(w, registry, marked)
        for phi in formulas:
            scope = sorted(free_vars(phi))
            for cells in product(session.positions, repeat=len(scope)):
                sigma = dict(zip(scope, cells))
                want = naive_eval(phi, w, sigma, marked, fig1)
                assert session.eval(phi, sigma) == want, (show_formula(phi), w, sigma)
                assert sigma == dict(zip(scope, cells))
                checked += 1
    assert checked > 20000


def test_shared_dag_stays_polynomial():
    # f_{k+1} = (f_k and x <= y) or (f_k and a(x)) = f_k and (x <= y or a(x));
    # the tree unfolding of f_30 has 2^30 leaves, the DAG 3 * 30 + 3 nodes
    le, letter = Le("x", "y"), Letter("a", "x")
    f = Letter("b", "y")
    for _ in range(30):
        f = Or((And((f, le)), And((f, letter))))
    assert free_vars(f) == {"x", "y"}
    nodes = 3 * 30 + 3
    w = "abaab"
    session = EvalSession(w)
    n = len(session.positions)
    for x, y in product(session.positions, repeat=2):
        want = w[y - 1] == "b" and (x <= y or w[x - 1] == "a")
        assert session.eval(f, {"x": x, "y": y}) == want, (x, y)
    assert len(session._memo) <= nodes * n * n


def _shared_dag(depth, side=Letter("a", "x")):
    """The DAG of ``test_shared_dag_stays_polynomial``, with ``side`` for its
    atom ``a(x)``: ``3 * depth + 3`` nodes, and more if ``side`` has more."""
    le, f = Le("x", "y"), Letter("b", "y")
    for _ in range(depth):
        f = Or((And((f, le)), And((f, side))))
    return f


# a binder shared by every level of the DAG
BOUND_SIDE = Exists("u0", And((Le("x", "u0"), Letter("a", "u0"))))


def naive_subst(phi, renaming):
    """Renaming without a memo: every path to a shared node renames it."""
    free = free_vars(phi)
    renaming = {old: new for old, new in renaming.items() if old in free and old != new}
    if not renaming:
        return phi
    values = []
    for value, role in _fields(phi):
        if role == "bound" and value in renaming.values():
            fresh = _fresh_var(value, _all_vars(phi).union(renaming, renaming.values()))
            renaming = {**renaming, value: fresh}
        if role in ("var", "bound"):
            value = renaming.get(value, value)
        elif role == "vars":
            value = tuple(renaming.get(v, v) for v in value)
        elif role == "sub":
            value = naive_subst(value, renaming)
        elif role == "subs":
            value = tuple(naive_subst(a, renaming) for a in value)
        values.append(value)
    return type(phi)(*values)


RENAMINGS = [{"y": "z"}, {"x": "y", "y": "x"}, {"x": "u0"}, {"y": "u0", "x": "u0_1"}]


@pytest.mark.parametrize("depth", [0, 1, 2, 5, 8])
def test_subst_var_agrees_with_renaming_every_path(depth):
    # a node shared inside and outside a binder that captures a new name is
    # renamed differently on the two paths
    shared = Le("x", "y")
    capturing = And((shared, Exists("y", And((shared, Letter("a", "y"))))))
    for phi in (_shared_dag(depth), _shared_dag(depth, BOUND_SIDE), _shared_dag(depth, capturing)):
        for renaming in RENAMINGS:
            assert subst_var(phi, renaming) == naive_subst(phi, renaming), renaming
    rng = random.Random(depth)
    for _ in range(20):
        phi = random_formula(rng, ["x", "y"], 4)
        for renaming in RENAMINGS:
            assert subst_var(phi, renaming) == naive_subst(phi, renaming), (show_formula(phi), renaming)


@pytest.mark.parametrize(
    "side, nodes",
    [(Letter("a", "x"), [57, 57, 57, 57, 57]), (BOUND_SIDE, [60, 60, 60, 60, 59])],
    ids=["atom", "binder"],
)
def test_subst_var_renames_a_deep_dag_once_per_node(side, nodes):
    # renaming every path of this 18-level DAG takes seconds; each of its
    # nodes is renamed once.  The DAG, then each renaming of it, counted
    # apart, so that a failure does not print the unfolding: under the last
    # renaming the binder's (le x u0) and the level's (le x y) both become
    # (le u0_1 u0), and equal nodes are one
    phi = _shared_dag(18, side)
    sizes = [len(_nodes(phi))]
    for renaming in RENAMINGS:
        with budget(f"renaming {renaming}", 0.5):
            renamed = subst_var(phi, renaming)
        sizes.append(len(_nodes(renamed)))
        free = free_vars(renamed)
        assert free == {renaming.get(v, v) for v in ("x", "y")}
    assert sizes == nodes


def test_subst_var_leaves_no_cyclic_garbage():
    # the memo lives only as long as the call: nothing is left for the
    # cyclic collector, so the cost of a renaming is paid inside it
    phi = _shared_dag(5, BOUND_SIDE)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for renaming in RENAMINGS:
            subst_var(phi, renaming)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_session_memo_keys_are_untracked():
    # memo keys hold only numbers, so the cyclic collector stops scanning
    # them: a big memo costs no collection time
    session = EvalSession("abaab")
    for x, y in product(session.positions, repeat=2):
        session.eval(_shared_dag(5, BOUND_SIDE), {"x": x, "y": y})
    gc.collect()  # untracks the tuples of values
    gc.collect()  # and then the keys that hold them
    assert session._memo and not any(gc.is_tracked(key) for key in session._memo)


def test_compile_hashes_a_deep_dag_once_per_node():
    # the compile cache keys on formulas, which hash by identity: a hash
    # that walked the subtree would follow all 2^24 paths of this DAG
    phi = _shared_dag(24, BOUND_SIDE)
    with budget("compiling a 24-level DAG", 1.0):
        got = compile_to_dfa(phi, ["x", "y"], AB)
    # every level above the first repeats its condition
    assert dfa_same_language(got, compile_to_dfa(_shared_dag(1, BOUND_SIDE), ["x", "y"], AB))


def test_equal_dags_built_apart_are_one_node():
    # comparing two equal DAGs field by field would follow all 2^24 paths of
    # this one; interned, the second build returns the first
    first = _shared_dag(24, BOUND_SIDE)
    with budget("building an equal 24-level DAG and comparing", 1.0):
        second = _shared_dag(24, BOUND_SIDE)
        equal = first == second
    assert equal and first is second


def test_threads_that_build_one_dag_get_one_node():
    # names no other test uses, so that the threads race on new nodes; a
    # short switch interval makes them swap often while they build
    start = threading.Barrier(8)

    def build(_):
        start.wait(timeout=10)
        return _shared_dag(12, Exists("t0", And((Le("x", "t0"), Letter("b", "t0")))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with budget("8 threads building one DAG", 10.0), ThreadPoolExecutor(8) as pool:
            got = list(pool.map(build, range(8), timeout=10))
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 8 and all(phi is got[0] for phi in got)


def test_node_table_keeps_no_node_alive():
    phi = _shared_dag(6, Exists("g0", Letter("a", "g0")))
    EvalSession("ab").eval(phi, {"x": 1, "y": 2})  # plans are kept on the nodes
    alive = weakref.ref(phi)
    del phi
    gc.collect()
    assert alive() is None
    assert not [key for key in _NODES.keys() if "g0" in key]


def test_evaluated_nodes_die_without_the_cyclic_collector(registry):
    # a plan lives on its node, so a plan that held the node would make a
    # cycle that only the collector frees; names no other test uses make
    # each node new.  The one TrueF node is a module constant of logic.
    renaming = {"x": "wx", "y": "wy", "z": "wz"}
    position = {"wx": 1, "wy": 2, "wz": 2}
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for kind, sample in NODE_SAMPLES.items():
            if kind is TrueF:
                continue
            phi = subst_var(sample, renaming)
            EvalSession("ab", registry).eval(phi, {v: position[v] for v in free_vars(phi)})
            alive = weakref.ref(phi)
            del phi
            assert alive() is None, kind.__name__
    finally:
        if enabled:
            gc.enable()


def test_copies_and_pickles_are_the_interned_node():
    phi = _shared_dag(3, BOUND_SIDE)
    for other in (copy.copy(phi), copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
        assert other is phi


def test_nodes_are_immutable_and_built_from_hashable_values():
    phi = Le("x", "y")
    with pytest.raises(AttributeError):
        phi.left = "z"
    with pytest.raises(AttributeError):
        del phi.left
    with pytest.raises(TypeError):
        And([phi, phi])
    assert Le("x", "y") is phi and phi.left == "x"
