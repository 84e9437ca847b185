"""Constructions between the machine and logic models.

* composition of a sequential transducer with a two-way transducer (and the
  right-sequential variant), preserving aperiodicity;
* aperiodic two-way transducer -> FO transduction, whose formulas are run
  atoms decided by walking the monoid classes around their positions;
* FO transduction -> FO-look-around machine (successor of the output order);
* FO look-around -> star-free look-around (jumps become stepwise walks);
* star-free look-around -> plain two-way transducer (tests become alphabet
  enrichment bits computed by composed annotator passes).
"""
from __future__ import annotations

from functools import cache
from typing import Optional

from .words import (
    Alphabet,
    AlphabetError,
    Dfa,
    LEFT_MARK,
    RIGHT_MARK,
    SequentialTransducer,
    determinize_nfa,
    dfa_accepts,
    dfa_complement,
    dfa_minimize,
    dfa_table,
    dfa_universal,
    explore_dfa,
    explore_rules,
    make_seq,
    monoid_closure,
)
from .twoway import (
    TwoWayTransducer,
    follow_zero_moves,
    make_twoway,
    merge_equivalent,
    mirror,
    normalize,
)
from .monoid import is_aperiodic, run_visits, transition_monoid
from .logic import (
    FALSE,
    Forall,
    Letter,
    MonoidRegistry,
    RunAtom,
    TrueF,
    compile_to_dfas,
    conj,
    disj,
    implies,
    neg,
    subst_var,
    var_eq,
)
from .fot import FoTransduction
from .lookaround import (
    FoLookAroundTransducer,
    FoTransition,
    SfLookAroundTransducer,
    SfTest,
    SfTransition,
    check_fo_determinism,
)


class NotAperiodic(RuntimeError):
    pass


class UnsupportedProduction(ValueError):
    """Runs of the translated machine must produce nothing on the endmarkers."""


class TooManyTests(RuntimeError):
    pass


class DirectionAmbiguity(RuntimeError):
    pass


# most distinct test languages whose answers sf_la_to_plain adds as letter bits
MAX_TESTS = 64


# ---------------------------------------------------------------------------
# Composition: sequential before two-way


def compose_seq_2w(a: SequentialTransducer, b: TwoWayTransducer) -> TwoWayTransducer:
    """Two-way transducer realizing ``w -> b(a(w))``.

    ``b`` may be any two-way machine; each of its rows, with a production
    of any length, is simulated in one step.  The buffer window always
    holds the production block of one input letter (or an endmarker of the
    inner tape); hop transients recompute blocks when the simulated head
    leaves the window to the right, and the rewind modes rerun the one-way
    machine backwards on exits to the left, tracking candidate states until
    they merge.  A change of window is a 0-move of ``rule``; each stored
    rule is already fused with the rules that follow it on the same cell
    (``follow_zero_moves``, which joins their outputs), so the breadth-first
    loop only makes the states that fused rules reach.
    """
    if a.out_alphabet != b.in_alphabet:
        raise AlphabetError("output alphabet of the sequential machine must feed b")

    key = _pair_key(a)

    def step(q, x):  # the one-way machine's next state, None where it blocks
        row = a.rules.get((q, x))
        return row and row[0]

    def enter_left(p, s, x):
        # the inner head moves left onto the block that s writes on x
        g = a.rules[(s, x)][1]
        if g:
            return ("r1", p, s, g[:-1], g[-1], ()), (), 0
        return ("rw", p, s), (), -1

    def rule(r, x):
        """The row ``(target, output, move)`` of state ``r`` on ``x``, or None."""
        mode = r[0]
        if mode == "r1":
            # (p, q, left, head, right) -- window = one production block; q
            # is the one-way state before the current input letter
            _, p, q, left, head, right = r
            if head == RIGHT_MARK and p in b.finals:
                return ("r5", p, q), (), 0
            if (p, head) not in b.rules:
                return None
            p2, out, d = b.rules[(p, head)]
            if d == 0:
                return ("r1", p2, q, left, head, right), out, 0
            if d == 1 and right:
                return ("r1", p2, q, left + (head,), right[0], right[1:]), out, 0
            if d == -1 and left:
                return ("r1", p2, q, left[:-1], left[-1], (head,) + right), out, 0
            if d == 1:
                if x == RIGHT_MARK:
                    return None  # the inner head cannot pass the inner end
                q2 = q if x == LEFT_MARK else step(q, x)
                return None if q2 is None else (("hr", p2, q2), out, 1)
            if x == LEFT_MARK:
                return None  # the inner head cannot pass the inner start
            return ("rw", p2, q), out, -1
        if mode == "hr":
            # the inner head moved right out of the window: find the next
            # nonempty block
            _, p, q = r
            if x == RIGHT_MARK:
                return (("r1", p, q, (), RIGHT_MARK, ()), (), 0) if q in a.finals else None
            if x == LEFT_MARK or (q, x) not in a.rules:
                return None
            q2, g = a.rules[(q, x)]
            if g:
                return ("r1", p, q, (), g[0], g[1:]), (), 0
            return ("hr", p, q2), (), 1
        if mode == "rw":
            # the inner head moved left out of the window: rebuild the
            # previous nonempty block; q = one-way state after this letter
            _, p, q = r
            if x == LEFT_MARK:
                return (("r1", p, q, (), LEFT_MARK, ()), (), 0) if q == a.initial else None
            if x == RIGHT_MARK:
                return None
            cands = tuple(s for s in a.states if step(s, x) == q)
            if len(cands) > 1:
                return ("rel", p, q, frozenset((c, c) for c in cands)), (), -1
            return enter_left(p, cands[0], x) if cands else None
        if mode == "rel":
            # backward candidate tracking; q_target is the state the
            # resolved candidate must step into (for the rerun at the end)
            _, p, q_target, rel = r
            if x == RIGHT_MARK:
                return None
            pairs = sorted(rel, key=key)
            if x == LEFT_MARK:
                true_c = next((c for (c, s) in pairs if s == a.initial), None)
                if true_c is None:
                    return None
            else:
                nrel = frozenset(
                    (c, s) for (c, s2) in rel for s in a.states if step(s, x) == s2
                )
                remaining = {c for (c, _) in nrel}
                if not remaining:
                    return None
                if len(remaining) > 1:
                    return ("rel", p, q_target, nrel), (), -1
                (true_c,) = remaining
            q1 = next(s for (c, s) in pairs if c == true_c)
            q2 = next((s for (c, s) in pairs if c != true_c), None)
            return None if q2 is None else (("r3", p, q_target, q1, q2), (), 1)
        if mode == "r3":
            # two concurrent forward runs; they merge exactly at the
            # position whose block must be rebuilt
            _, p, q_target, q1, q2 = r
            if x in (LEFT_MARK, RIGHT_MARK) or (q1, x) not in a.rules or (q2, x) not in a.rules:
                return None
            s1, s2 = step(q1, x), step(q2, x)
            if s1 != s2:
                return ("r3", p, q_target, s1, s2), (), 1
            return enter_left(p, q1, x)
        return None  # r5: acceptance is decided on arrival

    def final(r):
        return r[0] == "r5" and r[2] in a.finals

    r0 = ("r1", b.initial, a.initial, (), LEFT_MARK, ())
    symbols = (*a.in_alphabet, LEFT_MARK, RIGHT_MARK)
    states, rules = explore_rules(r0, symbols, lambda r, x: follow_zero_moves(rule, final, r, x))
    finals = [r for r in states if final(r)]
    return make_twoway(states, a.in_alphabet, b.out_alphabet, r0, finals, rules)


def _pair_key(a: SequentialTransducer):
    idx = {q: i for i, q in enumerate(a.states)}
    return lambda pair: (idx[pair[0]], idx[pair[1]])


def compose_right_seq_2w(
    a_right: SequentialTransducer, b: TwoWayTransducer
) -> TwoWayTransducer:
    """Compose a right-sequential preprocessor (a sequential transducer run
    on the reversed input, producing the reversed output) with ``b``."""
    return merge_equivalent(mirror(compose_seq_2w(a_right, mirror(b))))


# ---------------------------------------------------------------------------
# Aperiodic two-way transducer -> FO transduction


def twoway_to_fot(
    t: TwoWayTransducer,
    registry: MonoidRegistry,
    monoid_name: str = "M",
) -> FoTransduction:
    """FO transduction equivalent to an aperiodic two-way transducer.

    Copies are the (normalized) states that produce a letter, in state
    order, as no other state has nodes; a node ``(q, i)`` exists when the
    accepting run visits ``(q, i)`` and produces a letter there; the order
    formula decides whether the run continued from one visited configuration
    reaches another.  Each decision is one run atom over the registered
    monoid, so every formula is a single atom or an atom and a letter test.
    """
    t = normalize(t)
    m = transition_monoid(t)
    if not is_aperiodic(m).aperiodic:
        raise NotAperiodic("transition monoid is not aperiodic")
    # nodes sit on letters, so no run may produce output on an endmarker;
    # rows that no run fires may, such as the endmarker rows of the emission
    # states that normalize adds
    index = {q: i for i, q in enumerate(t.states)}
    start = (0, index[t.initial])
    for e in m.elements:
        for cell, mark in ((0, LEFT_MARK), (2, RIGHT_MARK)):
            for i in run_visits(m, (e,), start, cell):
                q = t.states[i]
                row = t.rules.get((q, mark))
                if row and row[1] and not (mark == RIGHT_MARK and q in t.finals):
                    raise UnsupportedProduction(
                        f"the run of class {m.element_id(e)!r} produces output on {mark}"
                    )
    registry.register(monoid_name, m)

    pos = {}
    for q in t.states:
        for b in t.out_alphabet:
            sources = [
                Letter(a, "x")
                for a in t.in_alphabet
                if (q, a) in t.rules and t.rules[(q, a)][1] == (b,)
            ]
            if sources:
                visit = RunAtom(monoid_name, "visit", (index[q],), ("x",))
                pos[(q, b)] = conj([visit, disj(sources)])
    copies = tuple(dict.fromkeys(q for q, _ in pos))  # the producing states, in state order
    order = {
        (q, q2): RunAtom(monoid_name, "reach", (index[q], index[q2]), ("x", "y"))
        for q in copies
        for q2 in copies
    }
    return FoTransduction(
        in_alphabet=t.in_alphabet,
        out_alphabet=t.out_alphabet,
        dom=RunAtom(monoid_name, "accept", (), ()),
        copies=copies,
        pos=pos,
        order=order,
    )


# ---------------------------------------------------------------------------
# FO transduction -> FO look-around machine


def fot_to_fo_lookaround(T: FoTransduction) -> FoLookAroundTransducer:
    """Machine whose head follows the output structure of the transduction.

    States are the copies plus ``init``, a first node on ``^``, and ``fin``,
    a last node on ``$``.  Every transition follows one successor rule: its
    jump asserts that the target node comes next in the output order,
    conjoined with the domain formula.  A copy writes its node's letter;
    ``init`` writes nothing.  A copy named ``("init",)`` or ``("fin",)``
    raises ``ValueError``.
    """
    init, fin = ("init",), ("fin",)
    copies = T.copies
    for c in (init, fin):
        if c in copies:
            raise ValueError(f"copy {c!r} has the name of a virtual node")

    def star(c, var):
        if c in (init, fin):
            return Letter(LEFT_MARK if c == init else RIGHT_MARK, var)
        return subst_var(disj([T.pos_formula(c, bsym) for bsym in T.out_alphabet]), {"x": var})

    def order(c, c2, u, v):
        # init comes before every node and fin after every node
        if c == init or c2 == fin:
            return TrueF()
        if c2 == init or c == fin:
            return FALSE
        return subst_var(T.order_formula(c, c2), {"x": u, "y": v})

    def jump(c, c2):
        # no node lies between x and y; init and fin never lie between two nodes
        between = conj(
            [
                implies(star(d, "z"), disj([order(d, c, "z", "x"), order(c2, d, "y", "z")]))
                for d in copies
            ]
        )
        # a node trivially satisfies the sandwich condition against
        # itself, so same-copy successors must exclude the diagonal
        strict = [neg(var_eq("x", "y"))] if c == c2 else []
        return conj(
            [order(c, c2, "x", "y"), Forall("z", between), star(c, "x"), star(c2, "y"), T.dom]
            + strict
        )

    # the walk machine names its states by transition index, so this order
    # fixes its bytes
    pairs = [(c, c2) for c in (*copies, init) for c2 in copies]
    pairs += [(c, fin) for c in (init, *copies)]
    transitions = []
    for c, c2 in pairs:
        if c == init:
            writes = [(Letter(LEFT_MARK, "x"), ())]
        else:
            writes = [(T.pos_formula(c, bsym), (bsym,)) for bsym in T.out_alphabet]
        succ = jump(c, c2)
        for guard, out in writes:
            if guard != FALSE:
                transitions.append(FoTransition(c, guard, c2, out, succ))

    return FoLookAroundTransducer(
        states=tuple(copies) + (init, fin),
        in_alphabet=T.in_alphabet,
        out_alphabet=T.out_alphabet,
        transitions=tuple(transitions),
        initial=init,
        finals=frozenset({fin}),
    )


# ---------------------------------------------------------------------------
# FO look-around -> star-free look-around


def _dfa_is_universal(d: Dfa) -> bool:
    return len(d.states) == 1 and d.initial in d.finals


def _dfa_is_empty(d: Dfa) -> bool:
    return not d.finals


class _JumpTables:
    """Decompositions of one compiled guard-and-jump DFA.

    The DFA reads marked tapes ``^ u $`` over ``A x {0,1}^2`` (x bit, y bit);
    everything the walking machine needs is expressed through its states:
    prefix-state languages, per-state suffix acceptance, direction languages,
    the y-in-prefix subset tracking, and suffix acceptance vectors.
    """

    ZERO = (0, 0)
    XB = (1, 0)
    YB = (0, 1)
    XY = (1, 1)

    def __init__(self, d: Dfa, base: Alphabet):
        self.d = d
        self.base = base
        self.letters = {a: a for a in base}  # the generators of each exploration
        self.after_mark = d.delta[(d.initial, (LEFT_MARK, self.ZERO))]
        # the states that accept on reading the bare right endmarker
        self.end = self.pre_vector(d.finals, RIGHT_MARK)

    def step(self, s, sym, bits):
        return self.d.delta[(s, (sym, bits))]

    def zero(self, s, a):
        return self.step(s, a, self.ZERO)

    def reachable_prefix_states(self):
        seen = monoid_closure(self.after_mark, self.letters, self.zero)
        return tuple(sorted(seen, key=self.d.states.index))

    def prefix_language(self, s1) -> Dfa:
        return explore_dfa(self.base, lambda a: a, self.after_mark, self.zero, lambda t: t == s1)

    def suffix_accepts_from(self, s) -> Dfa:
        return explore_dfa(self.base, lambda a: a, s, self.zero, self.end.__contains__)

    def pre_vector(self, vec: frozenset, sym, bits=ZERO) -> frozenset:
        """The states that reach ``vec`` on reading ``sym`` with ``bits``."""
        return frozenset(t for t in self.d.states if self.step(t, sym, bits) in vec)

    def vector_space(self):
        """Suffix-acceptance vectors reachable from the end of the tape."""
        return tuple(monoid_closure(self.end, self.letters, self.pre_vector))

    def vector_language(self, vec: frozenset) -> Dfa:
        """Words whose suffix-acceptance vector equals ``vec``: the reversal
        of the vectors' own DFA, which reads a suffix from its end."""
        backward = explore_dfa(
            self.base, lambda a: a, self.end, self.pre_vector, lambda v: v == vec
        )
        return dfa_reverse(backward)

    def direction_right_language(self, s2) -> Dfa:
        """Suffixes admitting a later y placement accepted by the jump DFA."""
        y_end = self.pre_vector(self.d.finals, RIGHT_MARK, self.YB)
        nfa_finals = frozenset([(t, 1) for t in self.end] + [(t, 0) for t in y_end])

        def moves(state, a):
            s, flag = state
            out = [(self.zero(s, a), flag)]
            if flag == 0:
                out.append((self.step(s, a, self.YB), 1))
            return out

        return determinize_nfa(self.base, [(s2, 0)], nfa_finals, moves)

    # Deterministic tracking of (no-y state, y-somewhere state set).  The y
    # mark may sit on the left endmarker or on any prefix letter.

    def sigma_start(self):
        return (self.after_mark, frozenset({self.step(self.d.initial, LEFT_MARK, self.YB)}))

    def sigma_step(self, state, a):
        s, sig = state
        return self.zero(s, a), frozenset(self.zero(u, a) for u in sig) | {self.step(s, a, self.YB)}

    def sigma_space(self):
        return tuple(monoid_closure(self.sigma_start(), self.letters, self.sigma_step))

    def sigma_language(self, target) -> Dfa:
        start = self.sigma_start()
        return explore_dfa(self.base, lambda a: a, start, self.sigma_step, lambda s: s == target)


def fo_la_to_sf_la(
    t: FoLookAroundTransducer,
    registry: Optional[MonoidRegistry] = None,
    bound: int = 4,
) -> SfLookAroundTransducer:
    """Replace formula jumps by stepwise walks guarded by star-free tests.

    Every transition's guard and jump are compiled into one DFA over the
    doubly-marked tape; the machine learns the DFA state at the current
    position through a prefix test, decides the jump direction through
    suffix or subset tests, and walks one step at a time, firing a candidate
    test at each position.

    Each move is one rule over any cell.  An endmarker is a cell whose prefix
    (at ``^``) or suffix (at ``$``) is empty; it differs from a letter only
    where the model forbids a move: none right from ``$``, none left from ``^``.

    ``bound`` is the longest word the determinism check enumerates; a
    negative one would check no word, so it is refused.
    """
    if bound < 0:
        raise ValueError(f"the determinism bound must be at least 0, got {bound}")
    if not check_fo_determinism(t, bound, registry):
        raise DirectionAmbiguity(
            "look-around machine failed the bounded determinism check"
        )
    base = t.in_alphabet
    univ = dfa_universal(base, True)
    empty = dfa_universal(base, False)
    XB, YB, XY = _JumpTables.XB, _JumpTables.YB, _JumpTables.XY
    transitions = []
    states = list(t.states)

    def add(src, prefix, sym, suffix, dst, out, move) -> bool:
        if _dfa_is_empty(suffix):
            return False
        transitions.append(SfTransition(src, SfTest(prefix, sym, suffix), dst, out, move))
        return True

    def closure(seeds, expand) -> set:
        """The walk states reached from ``seeds``; ``expand`` adds one
        state's transitions and returns the states it walks on to."""
        done = set()
        frontier = list(seeds)
        while frontier:
            s = frontier.pop()
            if s not in done:
                done.add(s)
                frontier.extend(n for n in expand(s) if n not in done)
        return done

    psi_hats = [conj([tr.guard, tr.jump]) for tr in t.transitions]
    jumps = compile_to_dfas(psi_hats, ["x", "y"], base, registry, marked=True)
    for ti, (tr, d) in enumerate(zip(t.transitions, jumps)):
        tab = _JumpTables(d, base)
        prefix_states = tab.reachable_prefix_states()
        prefix_lang = cache(tab.prefix_language)
        suffix_acc = cache(tab.suffix_accepts_from)
        sigma_lang = cache(tab.sigma_language)
        vec_lang = cache(tab.vector_language)
        walk_r = {}  # the seeds of each walk, insertion-ordered
        walk_l = {}

        def before(s, sym) -> Dfa:
            """The prefix test that puts the DFA in ``s`` before the cell."""
            return univ if sym == LEFT_MARK else prefix_lang(s)

        def after(s, sym) -> Dfa:
            """The suffix test accepted from ``s``, reached on the cell."""
            if sym == RIGHT_MARK:
                return univ if s in d.finals else empty
            return suffix_acc(s)

        def enter(s, sym):
            """Stay on the cell, or walk right from it."""
            add(tr.src, before(s, sym), sym, after(tab.step(s, sym, XY), sym), tr.dst, tr.out, 0)
            if sym != RIGHT_MARK:
                s_at = tab.step(s, sym, XB)
                dir_r = tab.direction_right_language(s_at)
                if add(tr.src, before(s, sym), sym, dir_r, ("walkR", ti, s_at), tr.out, 1):
                    walk_r[s_at] = None

        def enter_left(state, sym, vec):
            """Walk left from the cell when its x state falls in ``vec``, the
            acceptance vector of the suffix after it."""
            if not any(tab.step(u, sym, XB) in vec for u in state[1]):
                return
            prefix = sigma_lang(state)
            if _dfa_is_empty(prefix):
                return
            # the suffix of $ is empty, so its vector is d.finals; a letter's
            # vector may be d.finals too, so the test follows the cell
            suffix = univ if sym == RIGHT_MARK else vec_lang(vec)
            seed = tab.pre_vector(vec, sym, XB)
            if add(tr.src, prefix, sym, suffix, ("walkL", ti, seed), tr.out, -1):
                walk_l[seed] = None

        def walk_right(s):
            key, nexts = ("walkR", ti, s), []
            for sym in (*base, RIGHT_MARK):
                su = after(tab.step(s, sym, YB), sym)
                add(key, univ, sym, su, tr.dst, (), 0)
                if sym != RIGHT_MARK and not _dfa_is_universal(su):
                    nxt = tab.zero(s, sym)
                    add(key, univ, sym, dfa_complement(su), ("walkR", ti, nxt), (), 1)
                    nexts.append(nxt)
            return nexts

        def land_left(key, s, sym, vec):
            if tab.step(s, sym, YB) in vec:
                add(key, before(s, sym), sym, univ, tr.dst, (), 0)

        def walk_left(vec):
            key, nexts = ("walkL", ti, vec), []
            for s1 in prefix_states:
                for a in base:
                    land_left(key, s1, a, vec)
            # moving past a cell refines the vector by that letter only, so
            # group the continuation per letter
            for a in base:
                nvec = tab.pre_vector(vec, a)
                others = [s1 for s1 in prefix_states if tab.step(s1, a, YB) not in vec]
                for s1 in others:
                    add(key, before(s1, a), a, univ, ("walkL", ti, nvec), (), -1)
                if others:
                    nexts.append(nvec)
            land_left(key, d.initial, LEFT_MARK, vec)
            return nexts

        sigma_reach = tab.sigma_space()
        vecs = tab.vector_space()
        for s1 in prefix_states:
            for a in base:
                enter(s1, a)
        for state in sigma_reach:
            for a in base:
                for vec in vecs:
                    enter_left(state, a, vec)
        enter(d.initial, LEFT_MARK)
        for s1 in prefix_states:
            enter(s1, RIGHT_MARK)
        for state in sigma_reach:
            enter_left(state, RIGHT_MARK, d.finals)

        states.extend(("walkR", ti, s) for s in closure(walk_r, walk_right))
        states.extend(("walkL", ti, v) for v in closure(walk_l, walk_left))

    return SfLookAroundTransducer(
        states=tuple(states),
        in_alphabet=base,
        out_alphabet=t.out_alphabet,
        transitions=tuple(transitions),
        initial=t.initial,
        finals=t.finals,
    )


# ---------------------------------------------------------------------------
# Star-free look-around -> plain two-way transducer


def dfa_reverse(d: Dfa) -> Dfa:
    back = {}
    for (q, a), r in d.delta.items():
        back.setdefault((r, a), []).append(q)

    def moves(q, a):
        return back.get((q, a), [])

    return determinize_nfa(d.alphabet, tuple(d.finals), frozenset({d.initial}), moves)


class _BitTable:
    """Distinct test languages in declaration order; constants folded away."""

    def __init__(self):
        self.entries = []  # (dfa, flavor)
        self.index = {}

    def register(self, d: Dfa, flavor: str):
        dm = dfa_minimize(d)
        if _dfa_is_universal(dm):
            return ("const", True)
        if _dfa_is_empty(dm):
            return ("const", False)
        key = (dfa_table(dm), flavor)
        if key not in self.index:
            self.index[key] = len(self.entries)
            self.entries.append((dm, flavor))
        return ("bit", self.index[key])


def _annotator(tests: list, in_alphabet: Alphabet, enriched: bool) -> SequentialTransducer:
    """Sequential pass that runs every ``(dfa, flavor)`` test and appends one
    bit per test to each letter.  A strict bit says the DFA accepted before
    the letter, an inclusive bit that it accepts with the letter.  Input
    letters are base letters, or the ``(letter, bits)`` pairs of an earlier
    pass when ``enriched``."""

    def rule(sigma, x):
        a, bits = x if enriched else (x, ())
        nxt = tuple(d.delta[(s, a)] for (d, _), s in zip(tests, sigma))
        bits += tuple(
            1 if (s if flavor == "strict" else n) in d.finals else 0
            for (d, flavor), s, n in zip(tests, sigma, nxt)
        )
        return nxt, ((a, bits),)

    start = tuple(d.initial for d, _ in tests)
    states, rules = explore_rules(start, in_alphabet, rule)
    letters = {prod[0] for _, prod in rules.values()}
    out = Alphabet(tuple(sorted(letters, key=lambda s: (str(s[0]), s[1]))))
    return make_seq(states, in_alphabet, out, start, states, rules)


def sf_la_to_plain(t: SfLookAroundTransducer) -> TwoWayTransducer:
    """Eliminate look-around: annotator passes enrich each letter with the
    answers of every distinct test language, then a core machine resolves
    tests locally; the passes are folded in by composition.  The left pass
    runs the prefix DFAs; the right pass runs the reversed suffix DFAs on the
    mirrored tape.

    Endmarker tests need whole-word answers, which no strict bit carries;
    the core machine probes the adjacent cell, whose inclusive bits hold
    them, and steps back.
    """
    base = t.in_alphabet
    pre_bits = _BitTable()
    suf_bits = _BitTable()

    # (transition, prefix requirement, suffix requirement, holds on ε); a
    # test on ^ sees an empty prefix, a test on $ an empty suffix
    plan = []
    for tr in t.transitions:
        prefix, sym, suffix = tr.test.prefix, tr.test.letter, tr.test.suffix
        if sym == LEFT_MARK:
            pre_req = ("const", dfa_accepts(prefix, ()))
        else:
            pre_req = pre_bits.register(prefix, "incl" if sym == RIGHT_MARK else "strict")
        if sym == RIGHT_MARK:
            suf_req = ("const", dfa_accepts(suffix, ()))
        else:
            suf_req = suf_bits.register(suffix, "incl" if sym == LEFT_MARK else "strict")
        eps = dfa_accepts(prefix, ()) and dfa_accepts(suffix, ())
        plan.append((tr, pre_req, suf_req, eps))

    n_pre, n_suf = len(pre_bits.entries), len(suf_bits.entries)
    if n_pre + n_suf > MAX_TESTS:
        raise TooManyTests(
            f"{n_pre + n_suf} distinct test languages exceed the cap of {MAX_TESTS}"
        )
    left_ann = _annotator(pre_bits.entries, base, False)
    right_ann = _annotator(
        [(dfa_reverse(d), flavor) for (d, flavor) in suf_bits.entries],
        left_ann.out_alphabet,
        True,
    )
    letters = right_ann.out_alphabet

    # --- core machine over fully enriched letters (prefix bits, then suffix bits)
    def holds(item, bits):
        _, pre_req, suf_req, _ = item
        return all(
            payload if kind == "const" else bits[offset + payload] == 1
            for (kind, payload), offset in ((pre_req, 0), (suf_req, n_pre))
        )

    core_rules = {}
    core_finals = set(t.finals)

    def core_emit(state, sym, target, out, move):
        if (state, sym) in core_rules:
            raise DirectionAmbiguity(
                f"tests of state {state!r} overlap on enriched letter {sym!r}"
            )
        core_rules[(state, sym)] = (target, out, move)

    by_src: dict = {}
    for item in plan:
        by_src.setdefault(item[0].src, []).append(item)

    # per endmarker: the probe state of each source, the return state of each target
    probes = {LEFT_MARK: {}, RIGHT_MARK: {}}
    rets = {LEFT_MARK: {}, RIGHT_MARK: {}}
    sides = ((LEFT_MARK, RIGHT_MARK, 1, "0"), (RIGHT_MARK, LEFT_MARK, -1, "N"))
    for src, items in by_src.items():
        for e in letters:
            for item in items:
                tr = item[0]
                if tr.test.letter == e[0] and holds(item, e[1]):
                    core_emit(src, e, tr.dst, tr.out, tr.move)
        for mark, other, inward, tag in sides:
            marked = [it for it in items if it[0].test.letter == mark]
            if not marked:
                continue
            probe = ("probe" + tag, src)
            probes[mark][src] = probe
            core_emit(src, mark, probe, (), inward)
            # on the empty word the probe lands on the other endmarker
            for sym in (*letters, other):
                hits = [it for it in marked if (it[3] if sym == other else holds(it, sym[1]))]
                if len(hits) > 1:
                    where = "the empty word" if sym == other else repr(sym)
                    raise DirectionAmbiguity(f"endmarker tests of {src!r} overlap on {where}")
                if hits:
                    tr = hits[0][0]
                    if tr.move == inward:
                        core_emit(probe, sym, tr.dst, tr.out, 0)
                    else:  # move 0: return to the endmarker
                        ret = ("ret" + tag, tr.dst)
                        rets[mark][tr.dst] = ret
                        core_emit(probe, sym, ret, tr.out, -inward)

    for mark, _, inward, _ in sides:
        for dst, ret in rets[mark].items():
            if mark == RIGHT_MARK and dst in t.finals:  # back on $, accept as dst would
                core_finals.add(ret)
            if dst in probes[mark]:
                core_emit(ret, mark, probes[mark][dst], (), inward)

    added = [s for table in (*probes.values(), *rets.values()) for s in table.values()]
    core = make_twoway(
        tuple(dict.fromkeys([*t.states, *added])),
        letters,
        t.out_alphabet,
        t.initial,
        core_finals,
        core_rules,
    )

    core = merge_equivalent(core)
    m1 = compose_right_seq_2w(right_ann, core)
    return merge_equivalent(compose_seq_2w(left_ann, m1))


def fot_to_twoway(
    T: FoTransduction,
    registry: Optional[MonoidRegistry] = None,
    bound: int = 4,
) -> TwoWayTransducer:
    """Full chain: transduction -> FO look-around -> star-free look-around
    -> plain two-way transducer."""
    la = fot_to_fo_lookaround(T)
    sf = fo_la_to_sf_la(la, registry, bound)
    return sf_la_to_plain(sf)
