import random
from itertools import product
from collections import deque

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from twofst.machines import AB, identity_seq
from twofst.words import (
    AlphabetError,
    SymbolNotInAlphabet,
    alphabet,
    as_word,
    dense_dfa,
    dfa_accepts,
    dfa_complement,
    dfa_intersect,
    dfa_inverse_image,
    dfa_is_counter_free,
    dfa_language_upto,
    dfa_minimize,
    dfa_project_bit,
    dfa_same_language,
    dfa_table,
    dfa_union,
    dfa_universal,
    make_dfa,
    make_seq,
    marked_alphabet,
    seq_run,
    show_word,
)

from conftest import words_upto


def dfa_contains_b():
    # A* b A*
    delta = {(0, "a"): 0, (0, "b"): 1, (1, "a"): 1, (1, "b"): 1}
    return make_dfa((0, 1), AB, 0, {1}, delta)


def dfa_even_a():
    # (aa)* interleaved with no b allowed
    delta = {(0, "a"): 1, (1, "a"): 0, (0, "b"): 2, (1, "b"): 2, (2, "a"): 2, (2, "b"): 2}
    return make_dfa((0, 1, 2), AB, 0, {0}, delta)


def test_alphabet_invariants():
    with pytest.raises(AlphabetError):
        alphabet([])
    with pytest.raises(AlphabetError):
        alphabet(["a", "a"])
    with pytest.raises(AlphabetError):
        alphabet(["a", "^"])
    assert list(alphabet("ab")) == ["a", "b"]


def test_dfa_accepts_examples():
    d = dfa_contains_b()
    assert dfa_accepts(d, "aab")
    assert not dfa_accepts(d, "aaa")
    with pytest.raises(SymbolNotInAlphabet):
        dfa_accepts(d, "ac")
    # brute-force membership by counting: (aa)* has even length, a-only
    d2 = dfa_even_a()
    assert dfa_accepts(d2, "aaaa")
    for w in words_upto(6):
        want = len(w) % 2 == 0 and "b" not in w
        assert dfa_accepts(d2, w) == want


def test_combine_boolean_algebra():
    d = dfa_contains_b()
    empty = dfa_intersect(d, dfa_complement(d))
    assert not dfa_language_upto(empty, 5)
    full = dfa_union(d, dfa_complement(d))
    assert dfa_same_language(full, dfa_universal(AB))
    # double complement accepts exactly the original words (enumeration <= 6)
    dd = dfa_complement(dfa_complement(d))
    for w in words_upto(6):
        assert dfa_accepts(dd, w) == dfa_accepts(d, w)


def test_inverse_image_reads_each_symbol_through_the_map():
    # words over a x {0,1}^2 whose letters, read with the marks dropped,
    # contain "ab"; the image DFA has fewer classes than the marked alphabet
    contains_ab = dense_dfa(AB, 3, 0, {2}, lambda s: s, lambda q, a: 2 if q == 2 else (1 if a == "a" else 2 * (q == 1)))
    marked = marked_alphabet(AB, 2)
    lifted = dfa_inverse_image(contains_ab, marked, lambda s: s[0])
    assert lifted.alphabet is marked
    for w in words_upto(3):
        for marks in product(product((0, 1), repeat=2), repeat=len(w)):
            tape = tuple(zip(w, marks))
            assert dfa_accepts(lifted, tape) == ("ab" in "".join(w)), tape
    # the result is canonical: equal to the minimal DFA built directly
    direct = dense_dfa(marked, 3, 0, {2}, lambda s: s[0], lambda q, a: 2 if q == 2 else (1 if a == "a" else 2 * (q == 1)))
    assert dfa_table(lifted) == dfa_table(direct) == (marked, lifted._cls, lifted._rows, lifted._fin)
    # states the image never reaches are dropped, and the rest merged
    never_b = dfa_inverse_image(contains_ab, marked, lambda s: "a")
    assert len(never_b.states) == 1 and not never_b.finals


def test_project_bit():
    # DFA over a x {0,1}: the marked position carries 'a'
    marked = marked_alphabet(AB, 1)
    # accept words with exactly one mark whose base is a
    delta = {}
    for q in (0, 1, 2):
        for s in marked:
            base, bits = s
            if q == 0 and bits[0] == 1:
                delta[(q, s)] = 1 if base == "a" else 2
            else:
                delta[(q, s)] = q
    d = make_dfa((0, 1, 2), marked, 0, {1}, delta)
    projected = dfa_project_bit(d, 0)
    want = dfa_contains_b()  # pattern: A* a A*, rebuild directly
    delta2 = {(0, "a"): 1, (0, "b"): 0, (1, "a"): 1, (1, "b"): 1}
    want = make_dfa((0, 1), AB, 0, {1}, delta2)
    unmark = lambda w: tuple(s for (s, _) in w)
    for w in words_upto(5):
        got = dfa_accepts(projected, tuple((c, ()) for c in w))
        assert got == dfa_accepts(want, w), w


def test_counter_free_verdicts():
    assert dfa_is_counter_free(dfa_contains_b()).aperiodic
    rep = dfa_is_counter_free(dfa_even_a())
    assert not rep.aperiodic
    assert rep.witness == ("a",)
    trivial = dfa_universal(AB)
    rep2 = dfa_is_counter_free(trivial)
    assert rep2.aperiodic and rep2.index == 0


def test_counter_free_stable_under_renaming():
    d = dfa_contains_b()
    renamed = make_dfa(
        ("x", "y"),
        AB,
        "x",
        {"y"},
        {("x", "a"): "x", ("x", "b"): "y", ("y", "a"): "y", ("y", "b"): "y"},
    )
    a, b = dfa_is_counter_free(d), dfa_is_counter_free(renamed)
    assert (a.aperiodic, a.index) == (b.aperiodic, b.index)


def test_minimize_canonical():
    d = dfa_contains_b()
    bloated = make_dfa(
        (0, 1, 2),
        AB,
        0,
        {1, 2},
        {(0, "a"): 0, (0, "b"): 1, (1, "a"): 2, (1, "b"): 1, (2, "a"): 1, (2, "b"): 2},
    )
    assert dfa_same_language(d, bloated)
    assert len(dfa_minimize(bloated).states) == 2


def test_dfa_validation_and_immutability():
    good = dict(dfa_contains_b().delta)
    with pytest.raises(ValueError, match="initial"):
        make_dfa((0, 1), AB, 2, {1}, good)
    with pytest.raises(ValueError, match="final"):
        make_dfa((0, 1), AB, 0, {2}, good)
    with pytest.raises(ValueError, match="missing transition"):
        make_dfa((0, 1), AB, 0, {1}, {k: v for k, v in good.items() if k != (1, "b")})
    with pytest.raises(ValueError, match="leaves the state set"):
        make_dfa((0, 1), AB, 0, {1}, {**good, (1, "b"): 7})
    d = make_dfa((0, 1), AB, 0, {1}, good)
    assert dict(d.delta) == good and d.step(0, "b") == 1
    with pytest.raises(AttributeError):
        d.finals = frozenset()
    with pytest.raises(TypeError):
        d.delta[(0, "a")] = 1
    # equal tables over different alphabets are different languages
    other = alphabet("ac")
    assert dfa_table(dfa_universal(AB)) != dfa_table(dfa_universal(other))
    assert not dfa_same_language(dfa_universal(AB), dfa_universal(other))


def test_dense_dfa_builds_from_symbol_keys():
    marked = marked_alphabet(AB, 1)
    # words with exactly one marked position: count marks, saturating at 2
    d = dense_dfa(marked, 3, 0, {1}, lambda s: s[1][0], lambda q, m: min(q + m, 2))
    delta = {(q, s): min(q + s[1][0], 2) for q in range(3) for s in marked}
    assert dict(d.delta) == delta
    assert dfa_table(d) == dfa_table(make_dfa(range(3), marked, 0, {1}, delta))
    with pytest.raises(ValueError, match="outside"):
        dense_dfa(marked, 3, 0, {1}, lambda s: s[1][0], lambda q, m: q + m)


def test_seq_run_examples():
    ident = identity_seq()
    assert seq_run(ident, "aab") == as_word("aab")
    erase = make_seq((0,), AB, AB, 0, {0}, {(0, "a"): (0, "a"), (0, "b"): (0, "")})
    assert show_word(seq_run(erase, "aabab")) == "aaa"
    partial = make_seq((0,), AB, AB, 0, {0}, {(0, "a"): (0, "a")})
    assert seq_run(partial, "ab") is None


def test_seq_productions_stay_in_the_output_alphabet():
    with pytest.raises(ValueError, match="outside the output alphabet"):
        make_seq((0,), AB, alphabet("a"), 0, {0}, {(0, "a"): (0, "a"), (0, "b"): (0, "b")})


@pytest.mark.parametrize(
    "finals, rules, message",
    [
        ({0}, {(1, "a"): (0, "a")}, "leaves the state set"),
        ({0}, {(0, "a"): (7, "b")}, "leaves the state set"),
        ({0}, {(0, "^"): (0, "a")}, "outside the alphabet"),
        ({0, 7}, {(0, "a"): (0, "a")}, "subset of states"),
    ],
    ids=["source", "target", "symbol", "final"],
)
def test_seq_rules_stay_in_the_machine(finals, rules, message):
    with pytest.raises(ValueError, match=message):
        make_seq((0,), AB, AB, 0, finals, rules)


@given(st.text(alphabet="ab", max_size=6), st.text(alphabet="ab", max_size=6))
@settings(max_examples=200, deadline=None)
def test_seq_run_concat_on_total_single_state(u, v):
    erase = make_seq((0,), AB, AB, 0, {0}, {(0, "a"): (0, "a"), (0, "b"): (0, "")})
    ru, rv, ruv = seq_run(erase, u), seq_run(erase, v), seq_run(erase, u + v)
    assert ruv == ru + rv


# ---------------------------------------------------------------------------
# Differential check of the dense kernel against the dict-based one it
# replaced.  The reference works on (states, symbols, initial, finals, delta)
# tuples with ``delta`` keyed by (state, symbol).


def ref_reachable(d):
    states, syms, initial, _, delta = d
    seen = {initial}
    queue = deque([initial])
    order = [initial]
    while queue:
        q = queue.popleft()
        for a in syms:
            r = delta[(q, a)]
            if r not in seen:
                seen.add(r)
                order.append(r)
                queue.append(r)
    return order


def ref_minimize(d):
    """Moore partition refinement over the reachable part, then BFS renumber."""
    _, syms, initial, finals, delta = d
    states = ref_reachable(d)
    idx = {q: i for i, q in enumerate(states)}
    block = [1 if q in finals else 0 for q in states]
    nblocks = len(set(block))
    while True:
        sigs = {}
        newblock = [0] * len(states)
        for i, q in enumerate(states):
            sig = (block[i],) + tuple(block[idx[delta[(q, a)]]] for a in syms)
            newblock[i] = sigs.setdefault(sig, len(sigs))
        block = newblock
        if len(sigs) == nblocks:
            break
        nblocks = len(sigs)
    accepting_blocks = {block[i] for i, q in enumerate(states) if q in finals}
    b_delta = {}
    for i, q in enumerate(states):
        for a in syms:
            b_delta[(block[i], a)] = block[idx[delta[(q, a)]]]
    start = block[idx[initial]]
    rename = {start: 0}
    order = deque([start])
    while order:
        b = order.popleft()
        for a in syms:
            c = b_delta[(b, a)]
            if c not in rename:
                rename[c] = len(rename)
                order.append(c)
    delta2 = {(rename[b], a): rename[b_delta[(b, a)]] for b in rename for a in syms}
    finals2 = frozenset(rename[b] for b in accepting_blocks if b in rename)
    return (tuple(range(len(rename))), syms, 0, finals2, delta2)


def ref_product(d1, d2, keep):
    _, syms, i1, f1, delta1 = d1
    _, _, i2, f2, delta2 = d2
    init = (i1, i2)
    seen = {init}
    queue = deque([init])
    states = [init]
    delta = {}
    while queue:
        (p, q) = queue.popleft()
        for a in syms:
            r = (delta1[(p, a)], delta2[(q, a)])
            delta[((p, q), a)] = r
            if r not in seen:
                seen.add(r)
                states.append(r)
                queue.append(r)
    finals = frozenset(s for s in states if keep(s[0] in f1, s[1] in f2))
    return ref_minimize((tuple(states), syms, init, finals, delta))


def ref_complement(d):
    states, syms, initial, finals, delta = d
    return ref_minimize((states, syms, initial, frozenset(states) - finals, delta))


def ref_project_bit(d, bit):
    """Subset construction over the symbols with bit ``bit`` erased."""
    _, syms, initial, finals, delta = d
    lift = {}
    for s in syms:
        b, bits = s
        lift.setdefault((b, bits[:bit] + bits[bit + 1 :]), []).append(s)
    target = tuple(lift)
    init = frozenset({initial})
    seen = {init}
    queue = deque([init])
    states = [init]
    sub = {}
    while queue:
        s = queue.popleft()
        for a in target:
            t = frozenset(delta[(q, x)] for q in s for x in lift[a])
            sub[(s, a)] = t
            if t not in seen:
                seen.add(t)
                states.append(t)
                queue.append(t)
    sub_finals = frozenset(s for s in states if s & finals)
    return ref_minimize((tuple(states), target, init, sub_finals, sub))


def ref_language(d, max_len):
    """Acceptance of every word of length <= max_len, in length-lex order."""
    _, syms, initial, finals, delta = d
    level = [initial]
    out = [initial in finals]
    for _ in range(max_len):
        level = [delta[(q, a)] for q in level for a in syms]
        out.extend(q in finals for q in level)
    return out


def as_ref(d):
    return (d.states, d.alphabet.symbols, d.initial, d.finals, dict(d.delta))


def random_dfa(rng, alpha):
    """A random complete DFA whose moves mostly depend on a coarse symbol
    key, so that symbols share columns; state names are not 0..n-1."""
    n = rng.randint(1, 6)
    names = [f"q{i}" for i in rng.sample(range(20), n)]
    nkeys = rng.randint(1, 4)
    key = {a: rng.randrange(nkeys) for a in alpha}
    by_key = {(q, k): rng.choice(names) for q in names for k in range(nkeys)}
    delta = {}
    for q in names:
        for a in alpha:
            if rng.random() < 0.1:
                delta[(q, a)] = rng.choice(names)
            else:
                delta[(q, a)] = by_key[(q, key[a])]
    finals = {q for q in names if rng.random() < 0.4}
    return make_dfa(names, alpha, rng.choice(names), finals, delta)


@pytest.mark.parametrize("with_marks", [False, True], ids=["plain", "endmarked"])
def test_dense_kernel_matches_dict_reference(with_marks):
    alpha = marked_alphabet(AB, 2, with_marks=with_marks)
    rng = random.Random(2021 + with_marks)
    for _ in range(12):
        d1, d2 = random_dfa(rng, alpha), random_dfa(rng, alpha)
        r1, r2 = as_ref(d1), as_ref(d2)
        for d, r in ((d1, r1), (d2, r2)):
            assert as_ref(dfa_minimize(d)) == ref_minimize(r)
        pairs = [
            (dfa_intersect(d1, d2), ref_product(r1, r2, lambda x, y: x and y)),
            (dfa_union(d1, d2), ref_product(r1, r2, lambda x, y: x or y)),
            (dfa_complement(d1), ref_complement(r1)),
            (dfa_project_bit(d1, 0), ref_project_bit(r1, 0)),
            (dfa_project_bit(d2, 1), ref_project_bit(r2, 1)),
        ]
        for got, want in pairs:
            assert ref_language(as_ref(got), 4) == ref_language(want, 4)
            assert as_ref(got) == want
        # dfa_accepts reads the dense table itself, not ``delta``
        words = list(alpha.words_upto(3))
        assert [dfa_accepts(d1, w) for w in words] == ref_language(r1, 3)
