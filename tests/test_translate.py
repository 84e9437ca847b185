import hashlib
import os
import random
import subprocess
import sys
from collections import Counter, deque

import pytest

from twofst import translate
from twofst.machines import (
    AB,
    block_double,
    block_doubler,
    block_doubler_fot,
    copier,
    double_writer,
    erase_b_seq,
    identity_seq,
    parity_twoway,
    reverser,
)
from twofst.cli import parse, serialize_machine, serialize_sfla
from twofst.logic import (
    EvalSession,
    Forall,
    Letter,
    MonoidRegistry,
    compile_to_dfa,
    conj,
    implies,
    neg,
    var_eq,
    var_lt,
)
from twofst.monoid import is_aperiodic, transition_monoid
from twofst.translate import (
    DirectionAmbiguity,
    NotAperiodic,
    NotNormalized,
    TooManyTests,
    UnsupportedProduction,
    compose_right_seq_2w,
    compose_seq_2w,
    fo_la_to_sf_la,
    fot_to_fo_lookaround,
    fot_to_twoway,
    sf_la_to_plain,
    twoway_to_fot,
)
from twofst.lookaround import (
    FoLookAroundTransducer,
    FoTransition,
    SfLookAroundTransducer,
    SfTest,
    SfTransition,
    check_fo_determinism,
    check_sf_determinism,
    sf_test_holds,
    simulate_fo_la,
    simulate_sf_la,
)
from twofst.fot import fot_eval
from twofst.twoway import context_path, is_normalized, make_twoway, simulate, trim
from twofst.words import (
    LEFT_MARK,
    RIGHT_MARK,
    dfa_is_counter_free,
    dfa_same_language,
    dfa_universal,
    make_dfa,
    make_seq,
    seq_run,
    show_word,
)

from conftest import budget, contract_zero_moves, data_path, words_upto
from fot_expansion import expanded_twoway_to_fot

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
PERFBENCH_INPUTS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "inputs")


# ---------------------------------------------------------------------------
# Composition


def test_compose_identity(doubler):
    c = compose_seq_2w(identity_seq(), doubler)
    assert trim(c) is c  # the construction makes only states it reaches
    for w in words_upto(6):
        assert simulate(c, w).output == simulate(doubler, w).output, w


def test_compose_erase_b(doubler):
    c = compose_seq_2w(erase_b_seq(), doubler)
    assert trim(c) is c
    for w in words_upto(5):
        k = w.count("a")
        assert simulate(c, w).output == tuple("a" * k) + tuple("b" * k), w


def test_compose_undefined_propagates(doubler):
    partial = make_seq((0,), AB, AB, 0, {0}, {(0, "a"): (0, "a")})
    c = compose_seq_2w(partial, doubler)
    assert trim(c) is c
    for w in words_upto(5):
        mid = seq_run(partial, w)
        want = simulate(doubler, mid).output if mid is not None else None
        assert simulate(c, w).output == want, w


def test_compose_multi_letter_productions(doubler):
    rules = {
        (0, "a"): (1, "ab"),
        (0, "b"): (0, "ba"),
        (1, "a"): (0, ""),
        (1, "b"): (1, "b"),
    }
    seqm = make_seq((0, 1), AB, AB, 0, {0, 1}, rules)
    c = compose_seq_2w(seqm, doubler)
    assert trim(c) is c
    for w in words_upto(6):
        mid = seq_run(seqm, w)
        want = simulate(doubler, mid).output if mid is not None else None
        assert simulate(c, w).output == want, w


def test_compose_rebuilds_a_multi_letter_block_where_reruns_merge(doubler):
    # a steps into 1 from both states, so a left exit of the doubler onto an
    # a tracks two candidates back (mode rel); their forward reruns (mode r3)
    # merge on an a, and the window is rebuilt from that a's two letters
    rules = {(0, "a"): (1, "ab"), (1, "a"): (1, "ba"), (0, "b"): (0, "b"), (1, "b"): (0, "")}
    seqm = make_seq((0, 1), AB, AB, 0, {0, 1}, rules)
    c = compose_seq_2w(seqm, doubler)
    reruns = 0
    for w in words_upto(6):
        got = simulate(c, w)
        assert got.output == simulate(doubler, seq_run(seqm, w)).output, w
        reruns += any(state[0] == "r3" for state, _ in got.run.configs)
    assert reruns


def test_compose_rejecting_final_states(doubler):
    # run exists but ends in a non-final state for odd numbers of a
    rules = {(0, "a"): (1, "a"), (1, "a"): (0, "a"), (0, "b"): (0, "b"), (1, "b"): (1, "b")}
    seqm = make_seq((0, 1), AB, AB, 0, {0}, rules)
    c = compose_seq_2w(seqm, doubler)
    assert trim(c) is c
    for w in words_upto(5):
        mid = seq_run(seqm, w)
        want = simulate(doubler, mid).output if mid is not None else None
        assert simulate(c, w).output == want, w


def test_compose_requires_normalized(doubler):
    from twofst.machines import double_writer

    with pytest.raises(NotNormalized):
        compose_seq_2w(identity_seq(), double_writer())


def test_compose_keeps_a_zero_move_loop():
    # on a, b steps t -> u -> t without moving; the fused rules keep the loop
    rules = {
        ("s", "^"): ("s", "", 1),
        ("s", "b"): ("s", "b", 1),
        ("s", "a"): ("t", "", 0),
        ("t", "a"): ("u", "", 0),
        ("u", "a"): ("t", "", 0),
    }
    b = make_twoway(("s", "t", "u"), AB, AB, "s", {"s"}, rules)
    c = compose_seq_2w(identity_seq(), b)
    for w in words_upto(4):
        got, want = simulate(c, w), simulate(b, w)
        assert (got.output, got.reason) == (want.output, want.reason), w
    assert simulate(c, "ba").reason == "loop"


def seq_index(t):
    """Aperiodicity index of the one-way machine's input automaton."""
    from twofst.words import Dfa, dfa_is_counter_free

    sink = object()
    states = tuple(t.states) + (sink,)
    delta = {}
    for q in states:
        for a in t.in_alphabet:
            delta[(q, a)] = t.rules.get((q, a), (sink,))[0] if q is not sink else sink
    d = Dfa(states, t.in_alphabet, t.initial, frozenset(t.finals), delta)
    return dfa_is_counter_free(d).index


def test_compose_aperiodicity_and_index_log(doubler, doubler_monoid):
    c = compose_seq_2w(erase_b_seq(), doubler)
    assert trim(c) is c
    m = transition_monoid(c)
    rep = is_aperiodic(m)
    assert rep.aperiodic
    n_a = seq_index(erase_b_seq())
    n_b = is_aperiodic(doubler_monoid).index
    # the appendix states two inconsistent bounds; log the measured index
    # against both rather than asserting either
    print(
        f"composite index {rep.index}; textual bounds"
        f" 2n_A+n_B+1={2 * n_a + n_b + 1} and n_A+n_B+2={n_a + n_b + 2}"
    )


def test_compose_right_identity(doubler):
    c = compose_right_seq_2w(identity_seq(), doubler)
    for w in words_upto(5):
        assert simulate(c, w).output == simulate(doubler, w).output, w


def test_compose_right_suffix_annotator():
    from twofst.words import Alphabet
    from twofst.twoway import make_twoway

    out_syms = tuple((s, (bit,)) for s in "ab" for bit in (0, 1))
    ann_rules = {
        (0, "a"): (0, (("a", (0,)),)),
        (0, "b"): (1, (("b", (0,)),)),
        (1, "a"): (1, (("a", (1,)),)),
        (1, "b"): (1, (("b", (1,)),)),
    }
    ann = make_seq((0, 1), AB, Alphabet(out_syms), 0, {0, 1}, ann_rules)
    enr = Alphabet(out_syms)
    rules = {("c", "^"): ("c", "", 1)}
    for s in out_syms:
        rules[("c", s)] = ("c", ("a" if s[1][0] else "b",), 1)
    reader = make_twoway(("c",), enr, AB, "c", {"c"}, rules)
    c = compose_right_seq_2w(ann, reader)
    for w in words_upto(5):
        want = tuple("a" if "b" in w[i + 1 :] else "b" for i in range(len(w)))
        assert simulate(c, w).output == want, w


def test_compose_right_aperiodic(doubler):
    c = compose_right_seq_2w(identity_seq(), doubler)
    assert is_aperiodic(transition_monoid(c)).aperiodic


# ---------------------------------------------------------------------------
# two-way -> FOT


def test_twoway_to_fot_copies(doubler):
    reg = MonoidRegistry()
    T = twoway_to_fot(doubler, reg, "M")
    # the states that produce a letter, in state order: state 3 only skips
    assert T.copies == (1, 2)
    assert set(T.order) == {(c, c2) for c in T.copies for c2 in T.copies}
    # a machine that writes nothing has no copies and maps each word to ε
    silent = make_twoway(("s",), AB, AB, "s", {"s"}, {("s", a): ("s", "", 1) for a in "^ab"})
    S = twoway_to_fot(silent, reg, "N")
    assert S.copies == () and not S.pos and not S.order
    assert all(fot_eval(S, w, reg).output == () for w in words_upto(3))


def test_twoway_to_fot_running_example(doubler):
    reg = MonoidRegistry()
    T = twoway_to_fot(doubler, reg, "M")
    assert show_word(fot_eval(T, "aababb", reg).output) == "aabbab"


def test_twoway_to_fot_equivalence(doubler):
    reg = MonoidRegistry()
    T = twoway_to_fot(doubler, reg, "M")
    for w in words_upto(5):  # the empty word too: the machine maps it to itself
        got = fot_eval(T, w, reg)
        want = simulate(doubler, w)
        assert got.output == want.output, (w, got.reason)


def test_twoway_to_fot_rejects_periodic():
    reg = MonoidRegistry()
    with pytest.raises(NotAperiodic):
        twoway_to_fot(parity_twoway(), reg)


def partial_machine():
    """Accepts only the words that end in b, and copies them."""
    rules = {
        ("s", "^"): ("s", "", 1),
        ("s", "a"): ("s", "a", 1),
        ("s", "b"): ("t", "b", 1),
        ("t", "a"): ("s", "a", 1),
        ("t", "b"): ("t", "b", 1),
    }
    return make_twoway(("s", "t"), AB, AB, "s", {"t"}, rules)


def a_doubler():
    """One state; writes every a twice, so normalize adds an emission state
    with endmarker rows that produce output but that no run fires."""
    rules = {("s", "^"): ("s", "", 1), ("s", "a"): ("s", "aa", 1), ("s", "b"): ("s", "b", 1)}
    return make_twoway(("s",), AB, AB, "s", {"s"}, rules)


def test_twoway_to_fot_partial_machine():
    t = partial_machine()
    reg = MonoidRegistry()
    T = twoway_to_fot(t, reg, "M")
    for w in words_upto(5):  # the empty word too, which the machine rejects
        got = fot_eval(T, w, reg)
        want = simulate(t, w)
        assert got.output == want.output, w
    assert fot_eval(T, "", reg).reason == "domain"


def test_twoway_to_fot_multi_letter_production():
    t = a_doubler()
    reg = MonoidRegistry()
    T = twoway_to_fot(t, reg, "M")
    assert len(T.copies) == 2  # the state and the emission state of the second a
    for w in words_upto(5):
        assert fot_eval(T, w, reg).output == simulate(t, w).output, w


def test_twoway_to_fot_rejects_endmarker_output():
    # the production on ^ fires on every word
    rules = {("s", "^"): ("s", "b", 1), ("s", "a"): ("s", "a", 1), ("s", "b"): ("s", "b", 1)}
    with pytest.raises(UnsupportedProduction):
        twoway_to_fot(make_twoway(("s",), AB, AB, "s", {"s"}, rules), MonoidRegistry())


def fig1():
    return parse(data_path("fig1.2wt")).value


@pytest.mark.parametrize(
    "machine, max_len",
    [
        (fig1, 3),
        (fig1, 5),  # about 6 s: the expansion is 1 MB
        (copier, 5),
        (reverser, 5),
        (partial_machine, 5),
        (a_doubler, 5),
    ],
    ids=["fig1", "fig1-to-5", "copier", "reverser", "partial", "a-doubler"],
)
def test_run_atoms_match_class_expansion(machine, max_len):
    # the domain, every position formula at every position and every order
    # formula at every pair of positions agree with the class-atom expansion
    t = machine()
    reg, ref_reg = MonoidRegistry(), MonoidRegistry()
    with budget(f"{machine.__name__} up to length {max_len}", 10.0):
        T = twoway_to_fot(t, reg, "M")
        ref = expanded_twoway_to_fot(t, ref_reg, "M")
        assert T.copies == ref.copies
        for w in words_upto(max_len):
            got, want = EvalSession(w, reg), EvalSession(w, ref_reg)
            assert got.eval(T.dom) == want.eval(ref.dom), w
            positions = range(1, len(w) + 1)
            for c in T.copies:
                for b in T.out_alphabet:
                    f, g = T.pos_formula(c, b), ref.pos_formula(c, b)
                    for i in positions:
                        assert got.eval(f, {"x": i}) == want.eval(g, {"x": i}), (w, c, b, i)
                for c2 in T.copies:
                    f, g = T.order_formula(c, c2), ref.order_formula(c, c2)
                    for i in positions:
                        for j in positions:
                            xy = {"x": i, "y": j}
                            assert got.eval(f, xy) == want.eval(g, xy), (w, c, c2, i, j)


@pytest.mark.parametrize("machine", [copier, reverser, double_writer], ids=lambda m: m.__name__)
def test_run_atoms_compile_to_the_class_expansion(machine):
    # the exact oracle: the domain, every position formula and every order
    # formula define the same language as the class-atom expansion, on
    # words of every length.  The running example takes 7-10 s, so it is
    # left to the short-word comparison above.
    t = machine()
    reg, ref_reg = MonoidRegistry(), MonoidRegistry()
    T = twoway_to_fot(t, reg, "M")
    ref = expanded_twoway_to_fot(t, ref_reg, "M")
    assert T.copies == ref.copies
    pairs = [(T.dom, ref.dom, [])]
    for c in T.copies:
        pairs += [(T.pos_formula(c, b), ref.pos_formula(c, b), ["x"]) for b in T.out_alphabet]
        pairs += [(T.order_formula(c, c2), ref.order_formula(c, c2), ["x", "y"]) for c2 in T.copies]
    with budget(f"compiling {machine.__name__} and its expansion", 5.0):
        for f, g, scope in pairs:
            got = compile_to_dfa(f, scope, T.in_alphabet, reg)
            want = compile_to_dfa(g, scope, T.in_alphabet, ref_reg)
            assert dfa_same_language(got, want), (f, g)


# ---------------------------------------------------------------------------
# FOT -> look-around -> star-free -> plain


def test_fot_to_fo_lookaround_example(doubler_fot):
    la = fot_to_fo_lookaround(doubler_fot)
    assert show_word(simulate_fo_la(la, "aababb").output) == "aabbab"
    assert check_fo_determinism(la, 5)
    for w in words_upto(5, min_len=1):
        assert simulate_fo_la(la, w).output == fot_eval(doubler_fot, w).output, w


def test_fo_lookaround_contextual_aperiodicity(doubler_fot):
    la = fot_to_fo_lookaround(doubler_fot)
    samples = [("a", "b", "b"), ("ab", "b", "a"), ("b", "a", "a")]
    for u, v, w in samples:
        for n in (2, 3):
            if len(v + u * (n + 1) + w) > 9:
                continue
            r1 = simulate_fo_la(la, v + u * n + w)
            r2 = simulate_fo_la(la, v + u * (n + 1) + w)
            if r1.output is None or r2.output is None:
                continue
            left = list(range(1, len(v) + 1))
            right1 = [len(v) + n * len(u) + k + 1 for k in range(len(w))]
            right2 = [len(v) + (n + 1) * len(u) + k + 1 for k in range(len(w))]
            p1 = context_path(r1.path, left + right1)
            p2 = context_path(r2.path, left + right2)
            assert p1 == p2, (u, v, w, n)


def test_fo_la_to_sf_la_example(doubler_fot):
    la = fot_to_fo_lookaround(doubler_fot)
    sf = fo_la_to_sf_la(la, None, bound=3)
    assert show_word(simulate_sf_la(sf, "aababb").output) == "aabbab"
    for w in words_upto(5, min_len=1):
        assert simulate_sf_la(sf, w).output == fot_eval(doubler_fot, w).output, w


def test_fo_la_to_sf_la_refuses_a_negative_bound(doubler_fot):
    # the determinism check would enumerate no word and pass vacuously
    la = fot_to_fo_lookaround(doubler_fot)
    for bound in (-1, -4):
        with pytest.raises(ValueError, match="determinism bound"):
            fo_la_to_sf_la(la, None, bound)
    with pytest.raises(ValueError, match="determinism bound"):
        fot_to_twoway(doubler_fot, None, bound=-1)


def test_sf_la_tests_are_star_free(doubler_fot):
    la = fot_to_fo_lookaround(doubler_fot)
    sf = fo_la_to_sf_la(la, None, bound=3)
    for tr in sf.transitions:
        assert dfa_is_counter_free(tr.test.prefix).aperiodic
        assert dfa_is_counter_free(tr.test.suffix).aperiodic


def test_sf_la_paths_refine_jumps(doubler_fot):
    # after erasing walk steps (inserted states), the visit sequence of
    # source states at context positions matches the jump machine's
    la = fot_to_fo_lookaround(doubler_fot)
    sf = fo_la_to_sf_la(la, None, bound=3)
    for w in ["ab", "aab", "ba", "aba"]:
        r_la = simulate_fo_la(la, w)
        r_sf = simulate_sf_la(sf, w)
        if r_la.output is None:
            assert r_sf.output is None
            continue
        keep = set(la.states)
        walked = [(q, p) for (q, p) in r_sf.path if q in keep]
        assert walked == list(r_la.path), w


def test_walk_machine_moves_from_the_right_endmarker():
    # the translated transductions never move from $, so their walk
    # machines leave out its entries; this machine stays on $, walks left
    # from it to the last a and to ^, and walks right to $
    last_a = conj([
        Letter("a", "y"),
        var_lt("y", "x"),
        Forall("z", implies(conj([var_lt("y", "z"), var_lt("z", "x")]), neg(Letter("a", "z")))),
    ])
    rows = [
        ("i", "^", "r", (), Letter("$", "y")),
        ("r", "$", "l", ("b",), last_a),
        ("l", "a", "s", ("a",), Letter("$", "y")),
        ("s", "$", "t", ("b",), var_eq("x", "y")),
        ("t", "$", "u", (), Letter("^", "y")),
        ("u", "^", "f", ("a",), Letter("$", "y")),
    ]
    la = FoLookAroundTransducer(
        ("i", "r", "l", "s", "t", "u", "f"),
        AB,
        AB,
        tuple(FoTransition(q, Letter(sym, "x"), q2, out, jump) for q, sym, q2, out, jump in rows),
        "i",
        frozenset({"f"}),
    )
    sf = fo_la_to_sf_la(la, None, bound=3)
    plain = sf_la_to_plain(sf)
    assert show_word(simulate_sf_la(sf, "abab").output) == "baba"
    for w in words_upto(4):
        want = simulate_fo_la(la, w).output
        assert want == (tuple("baba") if "a" in w else None), w
        assert simulate_sf_la(sf, w).output == simulate(plain, w).output == want, w


def test_full_pipeline_example(doubler_fot, doubler_plain):
    plain = doubler_plain
    assert show_word(simulate(plain, "aababb").output) == "aabbab"
    for w in words_upto(4, min_len=1):
        got = simulate(plain, w)
        want = fot_eval(doubler_fot, w)
        assert got.output == want.output, w
        if want.output is not None:
            assert got.reason != "loop"
    assert is_aperiodic(transition_monoid(plain)).aperiodic


# ---------------------------------------------------------------------------
# Star-free look-around -> plain, on small random machines


def _lang(n, finals, step):
    return make_dfa(tuple(range(n)), AB, 0, finals, {(s, a): step(s, a) for s in range(n) for a in AB})


def _test_languages():
    """The universal language and complementary pairs of star-free ones."""
    ends_b = lambda s, a: int(a == "b")  # noqa: E731
    starts_a = lambda s, a: s if s else (1 if a == "a" else 2)  # noqa: E731
    empty = lambda s, a: 1  # noqa: E731
    pairs = [
        (_lang(2, {1}, ends_b), _lang(2, {0}, ends_b)),
        (_lang(3, {1}, starts_a), _lang(3, {0, 2}, starts_a)),
        (_lang(2, {0}, empty), _lang(2, {1}, empty)),
    ]
    return dfa_universal(AB), pairs


def random_sf_machine(rng, univ, pairs):
    """A 2-3 state star-free look-around machine, tests drawn per state and
    symbol: none, one universal test, a complementary pair, or (sometimes
    overlapping) two languages of different pairs.  Endmarker tests watch
    the side they can see; letter moves lean rightward."""
    states = tuple(range(rng.choice((2, 3))))
    moves = {"^": (0, 1), "a": (-1, 0, 1, 1, 1), "b": (-1, 0, 1, 1, 1), "$": (0, -1)}
    outs = ((), ("a",), ("b",))
    transitions = []
    for q in states:
        for sym in ("^", "a", "b", "$"):
            r = rng.random()
            if r < 0.15:
                continue
            if r < 0.45:
                langs = [univ]
            elif r < 0.85:
                langs = list(rng.choice(pairs))
            else:
                langs = [rng.choice(pair) for pair in rng.sample(pairs, 2)]
            on_prefix = sym == "$" or (sym != "^" and rng.random() < 0.5)
            for lang in langs:
                test = SfTest(lang, sym, univ) if on_prefix else SfTest(univ, sym, lang)
                transitions.append(
                    SfTransition(q, test, rng.choice(states), rng.choice(outs), rng.choice(moves[sym]))
                )
    finals = frozenset(rng.sample(states, rng.choice((1, 2))))
    return SfLookAroundTransducer(states, AB, AB, tuple(transitions), 0, finals)


def _fired(t, w, path):
    """The transitions a look-around run fired, one per step of its path."""
    tape = AB.word(w)
    return [
        next(tr for tr in t.transitions if tr.src == q and sf_test_holds(tr.test, tape, pos))
        for (q, pos) in path[:-1]
    ]


def test_sf_la_to_plain_matches_random_machines():
    rng = random.Random(5)
    univ, pairs = _test_languages()
    reached = Counter()
    kept = 0
    with budget("random look-around eliminations", 60.0):
        while kept < 60:
            t = random_sf_machine(rng, univ, pairs)
            if not check_sf_determinism(t, 5):
                reached["nondeterministic"] += 1
                continue
            kept += 1
            plain = sf_la_to_plain(t)
            for w in words_upto(5):
                want = simulate_sf_la(t, w)
                assert simulate(plain, w).output == want.output, (serialize_sfla(t), w)
                reached["words"] += 1
                reached["defined"] += want.defined
                for tr in _fired(t, w, want.path):
                    sym = tr.test.letter
                    if sym in ("^", "$"):
                        reached[f"{sym}{tr.move:+d}"] += 1
                        reached["empty word"] += w == ""
                        reached["inclusive prefix"] += sym == "$" and tr.test.prefix is not univ
    assert reached["nondeterministic"] > 0, reached
    for key in ("^+0", "^+1", "$-1", "$+0", "empty word", "inclusive prefix"):
        assert reached[key] > 0, (key, reached)
    assert reached["defined"] >= reached["words"] // 20, reached


def _one_state(*tests):
    """Machine with one state ``q`` and a transition per (prefix, letter, suffix, move)."""
    trans = tuple(
        SfTransition("q", SfTest(p, sym, s), "q", (), move) for (p, sym, s, move) in tests
    )
    return SfLookAroundTransducer(("q",), AB, AB, trans, "q", frozenset({"q"}))


def test_sf_la_to_plain_rejects_overlapping_tests():
    univ, [(ends_b, not_b), (starts_a, not_a), (empty, _)] = _test_languages()
    cases = [
        (_one_state((univ, "a", univ, 1), (ends_b, "a", univ, 1)), "enriched letter"),
        (_one_state((univ, "^", univ, 1), (univ, "^", starts_a, 0)), r"overlap on \("),
        (_one_state((univ, "$", univ, -1), (ends_b, "$", univ, 0)), r"overlap on \("),
        (_one_state((univ, "^", empty, 1), (univ, "^", not_a, 1)), "the empty word"),
        (_one_state((empty, "$", univ, -1), (not_b, "$", univ, 0)), "the empty word"),
    ]
    for t, message in cases:
        with pytest.raises(DirectionAmbiguity, match=message):
            sf_la_to_plain(t)


def test_sf_la_to_plain_caps_the_test_languages():
    # 65 finite, hence star-free, languages: the words of length k
    def length(k):
        return _lang(k + 2, {k}, lambda s, a: min(s + 1, k + 1))

    tests = [(length(k), "a", length(k), 1) for k in range(32)] + [(length(32), "b", dfa_universal(AB), 1)]
    with pytest.raises(TooManyTests):
        sf_la_to_plain(_one_state(*tests))


# ---------------------------------------------------------------------------
# Round trips


def fingerprint(t, serialize=serialize_machine) -> tuple:
    """Length and sha256 prefix of the machine's file text: a construction
    that changes state names, their order or any row changes it."""
    text = serialize(t).encode()
    return len(text), hashlib.sha256(text).hexdigest()[:16]


def canonical_fingerprint(t) -> tuple:
    """``fingerprint`` of ``t`` with its states renumbered 0..n-1 in
    breadth-first order from the initial state, reading symbols in
    input-alphabet order, then ``^``, then ``$``: it changes with any row of
    the machine but not with the names or the order of its states."""
    symbols = (*t.in_alphabet, LEFT_MARK, RIGHT_MARK)
    number = {t.initial: 0}
    queue = deque([t.initial])
    while queue:
        q = queue.popleft()
        for a in symbols:
            row = t.rules.get((q, a))
            if row and row[0] not in number:
                number[row[0]] = len(number)
                queue.append(row[0])
    assert len(number) == len(t.states), "every state is reachable"
    rules = {(number[q], a): (number[r], out, move) for (q, a), (r, out, move) in t.rules.items()}
    finals = {number[q] for q in t.finals}
    return fingerprint(make_twoway(range(len(number)), t.in_alphabet, t.out_alphabet, 0, finals, rules))


def from_file(name):
    art = parse(os.path.join(PERFBENCH_INPUTS, name))
    return art.value, art.registry


def from_machine(machine):
    reg = MonoidRegistry()
    return twoway_to_fot(machine(), reg, "M"), reg


@pytest.mark.parametrize(
    "source, bytes_",
    [
        (lambda: from_file("doubler.fot"), (2288, "5a4a6720b0b2e68d")),
        (lambda: from_machine(copier), (1220, "ab5de89d7d4ac38f")),
        (lambda: from_machine(reverser), (1138, "79763deaf0482db5")),
        (lambda: from_machine(double_writer), (1300, "160dedc4ee0c5d8e")),
    ],
    ids=["doubler", "copier", "reverser", "double_writer"],
)
def test_walk_machines_keep_their_bytes(source, bytes_):
    # the star-free look-around machines the plain machines are built from
    T, reg = source()
    sf = fo_la_to_sf_la(fot_to_fo_lookaround(T), reg, 3)
    assert fingerprint(sf, serialize_sfla) == bytes_


@pytest.mark.parametrize(
    "machine, bytes_, shape",
    [
        (copier, (830, "2b3730b571f59860"), (735, "b252c1dc65b822cb")),
        (reverser, (2214, "da38251152d3f65c"), (1963, "88921bc4f9d54ecb")),
    ],
    ids=["copier", "reverser"],
)
def test_round_trip_small_machines(machine, bytes_, shape):
    t = machine()
    reg = MonoidRegistry()
    with budget(f"round trip ({machine.__name__})", 8.0):
        T = twoway_to_fot(t, reg, "M")
        rt = fot_to_twoway(T, reg, bound=3)
    for w in words_upto(4):  # the empty word too, which both machines map to itself
        assert simulate(rt, w).output == simulate(t, w).output, w
    assert fingerprint(rt) == bytes_
    assert canonical_fingerprint(rt) == shape


def test_plain_doubler_keeps_its_bytes(doubler_plain):
    assert fingerprint(doubler_plain) == (5917, "5bb2b25ba1e066ad")
    assert canonical_fingerprint(doubler_plain) == (5254, "ea6aaee039856296")


def test_doubler_compositions_make_only_the_states_they_keep(monkeypatch):
    # every state that compose_seq_2w makes is reached by a fused rule: the
    # right and the left pass of sf_la_to_plain make 77 and 231 states
    T, reg = from_file("doubler.fot")
    sf = fo_la_to_sf_la(fot_to_fo_lookaround(T), reg, 3)
    made, build = [], translate.make_twoway

    def recording_build(*args):
        t = build(*args)
        made.append(len(t.states))
        return t

    monkeypatch.setattr(translate, "make_twoway", recording_build)
    plain = sf_la_to_plain(sf)
    assert made[1:] == [77, 231]  # the core machine comes first
    assert len(plain.states) == 121


def eraser():
    """Single-state eraser of b: aperiodic, partial productions."""
    rules = {("e", "^"): ("e", "", 1), ("e", "a"): ("e", "a", 1), ("e", "b"): ("e", "", 1)}
    return make_twoway(("e",), AB, AB, "e", {"e"}, rules)


def test_round_trip_third_crafted_machine():
    t = eraser()
    reg = MonoidRegistry()
    rt = fot_to_twoway(twoway_to_fot(t, reg, "M"), reg, bound=3)
    for w in words_upto(4):
        assert simulate(rt, w).output == simulate(t, w).output, w


@pytest.mark.parametrize(
    "source, unfused_bytes",
    [
        (lambda: from_machine(copier), (4015, "94a30b3d3eac555a")),
        (lambda: from_machine(reverser), (9057, "6c17e63c12536971")),
        (lambda: (block_doubler_fot(), None), (21339, "1215cc7742f597af")),
    ],
    ids=["copier", "reverser", "doubler"],
)
def test_fused_machines_run_like_unfused_ones(source, unfused_bytes, monkeypatch):
    # with no 0-move chain followed, compose_seq_2w lands each change of
    # window with a 0-move and makes every landing state
    T, reg = source()
    sf = fo_la_to_sf_la(fot_to_fo_lookaround(T), reg, 3)
    fused = sf_la_to_plain(sf)
    monkeypatch.setattr(translate, "follow_zero_moves", lambda rule, final, q, a: rule(q, a))
    unfused = sf_la_to_plain(sf)
    assert fingerprint(unfused) == unfused_bytes
    steps = Counter()
    for w in words_upto(6):
        got, want = simulate(fused, w), simulate(unfused, w)
        assert (got.output, got.reason) == (want.output, want.reason), w
        steps["fused"] += len(got.run.outputs)
        steps["unfused"] += len(want.run.outputs)
    assert steps["fused"] < steps["unfused"], steps


@pytest.mark.parametrize(
    "build",
    [
        lambda: fot_to_twoway(*from_machine(copier), bound=3),
        lambda: fot_to_twoway(*from_machine(reverser), bound=3),
        lambda: fot_to_twoway(*from_machine(eraser), bound=3),
        lambda: fot_to_twoway(*from_machine(block_doubler), bound=2),
        lambda: fot_to_twoway(block_doubler_fot(), None, bound=3),
    ],
    ids=["copier", "reverser", "eraser", "running-example", "doubler"],
)
def test_generated_machines_have_no_fusable_zero_move(build):
    t = build()
    assert dict(contract_zero_moves(t).rules) == dict(t.rules)
    assert is_normalized(t)


def test_fot_to_twoway_output_independent_of_hash_seed():
    # state names and their numbering must not follow set iteration order,
    # which changes with the string hash seed; the file text renames the
    # states, so the names are compared as well
    script = (
        "from twofst import cli\n"
        "from twofst.machines import block_doubler_fot\n"
        "from twofst.translate import fot_to_twoway\n"
        "plain = fot_to_twoway(block_doubler_fot(), None, bound=3)\n"
        "print(cli.serialize_machine(plain), repr(plain.states), end='')\n"
    )
    path = os.pathsep.join(p for p in [SRC, os.environ.get("PYTHONPATH")] if p)
    runs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        for seed in ("1", "2")
    ]
    assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout


def test_round_trip_running_example(doubler):
    reg = MonoidRegistry()
    with budget("running-example round trip", 10.0):
        T = twoway_to_fot(doubler, reg, "M")
        rt = fot_to_twoway(T, reg, bound=2)
    for w in words_upto(4, min_len=1):
        assert simulate(rt, w).output == simulate(doubler, w).output, w
    assert is_aperiodic(transition_monoid(rt)).aperiodic
    assert fingerprint(rt) == (10166, "9a63547bed211163")
    assert canonical_fingerprint(rt) == (9067, "0ab54643f9bba009")


def test_reverse_round_trip_example(doubler_fot, doubler_plain):
    # the 121-state plain doubler, whose monoid has 73 elements, back to a
    # transduction; its run atoms are evaluated, not compiled
    reg = MonoidRegistry()
    with budget("reverse round trip", 5.0):
        T2 = twoway_to_fot(doubler_plain, reg, "M")
        # 18 of the 121 states produce a letter
        assert len(T2.copies) == 18 and len(T2.order) == 324
        for w in words_upto(4, min_len=1):
            assert fot_eval(T2, w, reg).output == fot_eval(doubler_fot, w).output, w
