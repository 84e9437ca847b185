import random

import pytest

from twofst.machines import AB, copier, parity_twoway, reverser
from twofst.monoid import (
    BehaviorProfile,
    accepted_classes,
    accepts_from_class,
    cell_run,
    class_language_dfa,
    class_of,
    glue,
    identity_profile,
    is_aperiodic,
    run_visits,
    transition_monoid,
)
from twofst.twoway import behaviors, make_twoway, pumped_context_path, simulate, tape_symbol
from twofst.words import aperiodicity_index, dfa_accepts

from conftest import _random_machine, budget, words_upto

PATTERNS = {
    "a": r"a+",
    "b": r"b",
    "ab": r"a+b",
    "ba": r"ba+",
    "aba": r"a[ab]*b[ab]*a",
    "abb": r"a[ab]*b[ab]*b",
    "bba": r"b[ab]*b[ab]*a",
    "bb": r"b[ab]*b",
}


def test_monoid_has_nine_elements(doubler_monoid):
    assert len(doubler_monoid.elements) == 9


def test_class_memberships(doubler_monoid):
    m = doubler_monoid
    assert class_of(m, "aa") == class_of(m, "a")
    assert class_of(m, "bab") == class_of(m, "bb")
    assert class_of(m, "bba") == m.element_by_id("bba")


def test_monoid_aperiodic(doubler_monoid):
    rep = is_aperiodic(doubler_monoid)
    assert rep.aperiodic
    assert rep.index == 2


def test_trivial_monoid_index_zero():
    m = transition_monoid(copier())
    rep = is_aperiodic(m)
    assert rep.aperiodic
    assert rep.index <= 1  # single nonidentity element, stabilizes immediately
    one_state = make_twoway(
        ("s",), AB, AB, "s", {"s"},
        {("s", "^"): ("s", "", 1), ("s", "a"): ("s", "", 1), ("s", "b"): ("s", "", 1)},
    )
    rep2 = is_aperiodic(transition_monoid(one_state))
    assert rep2.aperiodic


def test_parity_not_aperiodic():
    m = transition_monoid(parity_twoway())
    rep = is_aperiodic(m)
    assert not rep.aperiodic
    assert rep.witness is not None
    assert m.representatives[rep.witness] == ("a",)


def test_glue_identity_law(doubler_monoid):
    m = doubler_monoid
    for e in m.elements:
        assert glue(m.identity, e) == e == glue(e, m.identity)


def test_glue_agrees_with_direct_behaviors(doubler):
    m = transition_monoid(doubler)
    p_a, p_ab = behaviors(doubler, "a"), behaviors(doubler, "ab")
    assert glue(p_a, p_ab) == behaviors(doubler, "aab")
    for w in words_upto(6):
        assert class_of(m, w) == behaviors(doubler, w), w


def test_glue_loop_gives_undefined_entry():
    # two states bouncing forever between two cells: entering u from the left
    # in state s never leaves uu
    rules = {
        ("s", "^"): ("s", "", 1),
        ("s", "a"): ("t", "", 1),
        ("t", "a"): ("s", "", -1),
        ("s", "b"): ("s", "", 1),
        ("t", "b"): ("t", "", 1),
    }
    t = make_twoway(("s", "t"), AB, AB, "s", {"s"}, rules)
    p = behaviors(t, "a")
    glued = glue(p, p)
    assert "s" not in dict(glued.ll) and "s" not in dict(glued.lr)
    assert simulate(t, "aa").reason == "loop"


class _RefSeg:
    """A factor known only through its behavior functions (the segment of
    the reference glue)."""

    def __init__(self, profile):
        self.ll = dict(profile.ll)
        self.lr = dict(profile.lr)
        self.rl = dict(profile.rl)
        self.rr = dict(profile.rr)

    def run(self, side, q):
        if side == "L":
            if q in self.ll:
                return ("exit_left", self.ll[q])
            if q in self.lr:
                return ("exit_right", self.lr[q])
        else:
            if q in self.rl:
                return ("exit_left", self.rl[q])
            if q in self.rr:
                return ("exit_right", self.rr[q])
        return ("dead",)


def _ref_walk(segments, i, side, q):
    """Walk a token over the segments; a repeated entry event is a loop."""
    seen = set()
    while True:
        if (i, side, q) in seen:
            return ("loop",)
        seen.add((i, side, q))
        outcome = segments[i].run(side, q)
        if outcome[0] == "dead":
            return outcome
        q = outcome[1]
        if outcome[0] == "exit_left":
            if i == 0:
                return outcome
            i, side = i - 1, "R"
        else:
            if i == len(segments) - 1:
                return outcome
            i, side = i + 1, "L"


def _ref_glue(p, q):
    """Gluing by walking event tuples over two behavior-function segments."""
    segs = [_RefSeg(p), _RefSeg(q)]
    parts = {"ll": [], "lr": [], "rl": [], "rr": []}
    loops = 0
    for s in p.order:
        for entry, start in (("l", 0), ("r", 1)):
            outcome = _ref_walk(segs, start, entry.upper(), s)
            if outcome[0] == "exit_left":
                parts[entry + "l"].append((s, outcome[1]))
            elif outcome[0] == "exit_right":
                parts[entry + "r"].append((s, outcome[1]))
            loops += outcome[0] == "loop"
    return BehaviorProfile.from_pairs(p.order, **parts), loops


def test_cell_run_chains_through_every_state():
    # on a, 0-moves go 0 -> 1 -> 2 and 2 leaves: the longest chain a cell allows;
    # on b, 0 leads into the 0-move loop 1 -> 2 -> 1, each state listed once;
    # on $, the chain stops in the first final state it reaches
    rules = {(q, "^"): (q, "", 1) for q in range(3)}
    for q in range(2):
        for a in "ab$":
            rules[(q, a)] = (q + 1, "", 0)
    rules[(2, "a")] = (0, "", 1)
    rules[(2, "b")] = (1, "", 0)
    rules[(2, "$")] = (0, "", -1)
    t = make_twoway((0, 1, 2), AB, AB, 0, {2}, rules)
    assert cell_run(t, "a", 0) == ([0, 1, 2], 0, 1)
    assert cell_run(t, "b", 0) == ([0, 1, 2], None, 0)
    assert cell_run(t, "$", 0) == ([0, 1, 2], 2, 1)
    assert cell_run(t, "^", 1) == ([1], 1, 1)


def test_letter_profiles_are_simulated_behaviors(doubler):
    # the monoid builds every one-cell profile from cell_run; on a letter it
    # is the profile that simulating the one-letter factor gives
    rng = random.Random(25)
    machines = [doubler, copier(), reverser()]
    machines += [_random_machine(rng, marked=k % 2 == 1) for k in range(40)]
    for t in machines:
        m = transition_monoid(t)
        for a in t.in_alphabet:
            assert m.morphism[a] == behaviors(t, (a,)), (t.rules, a)


def test_glue_matches_walk_reference():
    rng = random.Random(2024)
    words = list(words_upto(3))
    loops = 0
    for _ in range(40):
        t = _random_machine(rng)
        profiles = {w: behaviors(t, w) for w in words}
        seen = {}
        for u in words:
            for v in words:
                got = glue(profiles[u], profiles[v])
                want, looped = _ref_glue(profiles[u], profiles[v])
                loops += looped
                assert got == want, (t.rules, u, v)
                direct = behaviors(t, u + v)
                assert got == direct and hash(got) == hash(direct), (t.rules, u, v)
                seen.setdefault((got.ll, got.lr, got.rl, got.rr), []).append(got)
        # equal behavior functions give equal, equally hashed profiles, and
        # distinct ones distinct profiles
        groups = [group[0] for group in seen.values()]
        for group in seen.values():
            assert all(x == group[0] and hash(x) == hash(group[0]) for x in group)
        assert all(x != y for i, x in enumerate(groups) for y in groups[i + 1 :])
    assert loops > 0  # the machines do produce bouncing loops
    with pytest.raises(ValueError):
        glue(identity_profile((0, 1)), identity_profile((0, 1, 2)))


def visits_from(t, w, q, pos):
    """Configurations of the run of ``t`` on ``w`` from state ``q`` at
    ``pos``, in order, up to acceptance, a block or a repetition."""
    seen = {}  # insertion-ordered set
    while (q, pos) not in seen:
        seen[(q, pos)] = None
        if pos == len(w) + 1 and q in t.finals:
            break
        key = (q, tape_symbol(w, pos))
        if key not in t.rules:
            break
        q, _, move = t.rules[key]
        pos += move
    return list(seen)


def test_run_decisions_match_simulation():
    # acceptance and visit states, both walked over profile codes, against
    # direct runs of generated machines
    rng = random.Random(5)
    words = list(words_upto(4))
    seen = {"accept after a 0-move on $": 0, "bounce off $": 0, "loop": 0}
    for _ in range(40):
        t = _random_machine(rng, marked=True)
        m = transition_monoid(t)
        for w in words:
            res = simulate(t, w)
            assert accepts_from_class(m, class_of(m, w)) == res.defined, (t.rules, w)
            configs, end = res.run.configs, len(w) + 1
            seen["accept after a 0-move on $"] += res.defined and configs[-2][1] == end
            seen["bounce off $"] += any(
                p == end and p2 == end - 1 for (_, p), (_, p2) in zip(configs, configs[1:])
            )
            seen["loop"] += res.reason == "loop"
            for i in range(1, len(w) + 1):
                index = {q: k for k, q in enumerate(t.states)}
                u, a, v = w[: i - 1], w[i - 1], w[i:]
                cut = (class_of(m, u), a, class_of(m, v))
                got = run_visits(m, cut, (0, index[t.initial]), 2)
                assert got == {index[q] for q, p in configs if p == i}, (t.rules, w, i)
                # the run continued from each state at i, seen at i and at every other cell
                for j in range(1, len(w) + 1):
                    lo, hi = min(i, j), max(i, j)
                    if i == j:
                        cuts, si, sj = cut, 2, 2
                    else:
                        gap = class_of(m, w[lo : hi - 1])
                        cuts = (class_of(m, w[: lo - 1]), w[lo - 1], gap, w[hi - 1], class_of(m, w[hi:]))
                        si, sj = (2, 4) if i < j else (4, 2)
                    for q in t.states:
                        want = {index[r] for r, p in visits_from(t, w, q, i) if p == j}
                        assert run_visits(m, cuts, (si, index[q]), sj) == want, (t.rules, w, i, j, q)
    assert all(seen.values()), seen


def test_lr_star_formula_property(doubler):
    # bh_lr(uv) = bh_lr(u) (bh_ll(v) bh_rr(u))* bh_lr(v), composing left to right
    rng = random.Random(7)
    words = [w for w in words_upto(4)]
    for _ in range(200):
        u, v = rng.choice(words), rng.choice(words)
        pu, pv = behaviors(doubler, u), behaviors(doubler, v)
        lr_u, lr_v = dict(pu.lr), dict(pv.lr)
        ll_v, rr_u = dict(pv.ll), dict(pu.rr)
        expected = {}
        for s in doubler.states:
            cur = lr_u.get(s)
            seen = set()
            while cur is not None and cur in ll_v and cur not in seen:
                seen.add(cur)
                cur = rr_u.get(ll_v[cur])
            if cur is not None and cur in lr_v:
                expected[s] = lr_v[cur]
        assert expected == dict(behaviors(doubler, u + v).lr), (u, v)


def test_morphism_property(doubler_monoid):
    m = doubler_monoid
    rng = random.Random(11)
    words = [w for w in words_upto(3)]
    for _ in range(200):
        u, v = rng.choice(words), rng.choice(words)
        assert class_of(m, u + v) == m.product(class_of(m, u), class_of(m, v))


def test_congruence_property(doubler_monoid):
    m = doubler_monoid
    pairs = [("a", "aa"), ("bab", "bb"), ("aba", "aabaa")]
    contexts = [(x, y) for x in words_upto(2) for y in words_upto(2)]
    for u, v in pairs:
        assert class_of(m, u) == class_of(m, v)
        for x, y in contexts:
            assert class_of(m, x + u + y) == class_of(m, x + v + y), (u, v, x, y)


def test_class_languages_match_patterns(doubler_monoid):
    import re

    m = doubler_monoid
    for rep, pat in PATTERNS.items():
        d = class_language_dfa(m, class_of(m, rep))
        for w in words_upto(6):
            assert dfa_accepts(d, w) == bool(re.fullmatch(pat, w)), (rep, w)


def test_identity_class_language(doubler_monoid):
    d = class_language_dfa(doubler_monoid, doubler_monoid.identity)
    accepted = [w for w in words_upto(4) if dfa_accepts(d, w)]
    assert accepted == [""]


def test_class_language_requires_member(doubler_monoid):
    other = identity_profile(("x", "y"))
    with pytest.raises(ValueError):
        class_language_dfa(doubler_monoid, other)


def test_class_language_counter_free(doubler_monoid):
    from twofst.words import dfa_is_counter_free

    for e in doubler_monoid.elements:
        assert dfa_is_counter_free(class_language_dfa(doubler_monoid, e)).aperiodic


def test_cayley_dfa_has_the_same_aperiodicity(doubler):
    # the class DFA runs the monoid on itself, so its transition monoid is the
    # monoid again: both users of the shared engine must agree
    from twofst.words import dfa_is_counter_free

    expected = {"doubler": 2, "copier": 1, "reverser": 1, "parity": None}
    machines = {
        "doubler": doubler, "copier": copier(), "reverser": reverser(), "parity": parity_twoway(),
    }
    for name, t in machines.items():
        m = transition_monoid(t)
        rep = is_aperiodic(m)
        cf = dfa_is_counter_free(class_language_dfa(m, m.identity))
        assert (cf.aperiodic, cf.index) == (rep.aperiodic, rep.index), name
        assert rep.index == expected[name], name
        if not rep.aperiodic:
            assert cf.witness == m.representatives[rep.witness], name


def test_acceptance_from_class(doubler, doubler_monoid):
    m = doubler_monoid
    # the running example is total: every class accepts
    assert len(accepted_classes(m)) == len(m.elements)
    for w in words_upto(5):
        assert accepts_from_class(m, class_of(m, w)) == simulate(doubler, w).defined
    # partial machine: only words ending in b accepted
    rules = {
        ("s", "^"): ("s", "", 1),
        ("s", "a"): ("s", "", 1),
        ("s", "b"): ("t", "", 1),
        ("t", "a"): ("s", "", 0),
        ("t", "b"): ("t", "", 1),
        ("t", "$"): ("t", "", 0),
    }
    t = make_twoway(("s", "t"), AB, AB, "s", {"t"}, rules)
    m2 = transition_monoid(t)
    for w in words_upto(5):
        assert accepts_from_class(m2, class_of(m2, w)) == simulate(t, w).defined, w


def test_contextual_aperiodicity_paths(doubler, doubler_monoid):
    n = is_aperiodic(doubler_monoid).index
    rng = random.Random(13)
    words = [w for w in words_upto(3)]
    checked = 0
    for _ in range(200):
        u = rng.choice([w for w in words if w])
        v, w = rng.choice(words), rng.choice(words)
        p1 = pumped_context_path(doubler, v, u, w, n)
        p2 = pumped_context_path(doubler, v, u, w, n + 1)
        if p1 is None or p2 is None:
            continue
        checked += 1
        assert p1 == p2, (u, v, w)
    assert checked >= 150


def test_product_associative_all_triples(doubler_monoid):
    m = doubler_monoid
    for x in m.elements:
        for y in m.elements:
            xy = m.product(x, y)
            for z in m.elements:
                assert m.product(xy, z) == m.product(x, m.product(y, z))


def test_products_walk_as_they_glue(doubler, doubler_plain):
    # a product of two elements walks the stored element x letter products;
    # it equals gluing, and so does a product with an endmarker profile,
    # which is glued; the aperiodicity reports agree, periodic monoid included
    for t in (doubler, parity_twoway(), copier()):
        m = transition_monoid(t)
        profiles = [*m.elements, m.morphism["^"], m.morphism["$"]]
        for x in profiles:
            for y in profiles:
                assert m.product(x, y) == glue(x, y)
    for t in (doubler, parity_twoway(), doubler_plain):
        m = transition_monoid(t)
        assert is_aperiodic(m) == aperiodicity_index(m.elements, m.identity, glue)


def test_class_of_aab_matches_direct_profile(doubler, doubler_monoid):
    e = class_of(doubler_monoid, "aab")
    assert e == behaviors(doubler, "aab")
    assert set(e.ll) == {(1, 2), (2, 2)} and set(e.lr) == {(3, 1)}
    assert set(e.rl) == {(1, 2)} and set(e.rr) == {(2, 3), (3, 1)}


def test_morphism_property_length_six(doubler_monoid):
    m = doubler_monoid
    for u in words_upto(3):
        for v in words_upto(3):
            assert class_of(m, u + v) == m.product(class_of(m, u), class_of(m, v))


def test_plain_doubler_monoid_budget(doubler_plain):
    with budget("monoid of the plain doubler", 0.5):
        m = transition_monoid(doubler_plain)
        rep = is_aperiodic(m)
    assert len(doubler_plain.states) == 119
    assert (len(m.elements), rep.aperiodic, rep.index) == (73, True, 3)
