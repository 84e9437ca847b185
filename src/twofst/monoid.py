"""Behavior profiles as monoid elements and the transition monoid.

A profile packs the four partial behavior functions of a factor into one
integer code per state and entry side.  Profiles multiply by gluing: a run
bounces between the two codes at the middle boundary, and a run that comes
back to a boundary state it has crossed in loops.  A walk engine over
segment chains with explicit endmarker cells powers class-based acceptance
and the run-reachability decisions used by the logical translations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .words import (
    LEFT_MARK,
    RIGHT_MARK,
    AperiodicityReport,
    Dfa,
    aperiodicity_index,
    as_word,
    dense_dfa,
    monoid_closure,
    show_word,
)
from .twoway import TwoWayTransducer, behaviors


@dataclass(frozen=True)
class BehaviorProfile:
    """The four behaviors of a factor, as one integer code per entry.

    With ``n = len(order)``, ``code[i]`` tells what a run entering the
    factor from the left in state ``order[i]`` does, and ``code[n + i]`` the
    same for an entry from the right: ``2r`` leaves on the left in
    ``order[r]``, ``2r + 1`` leaves on the right in ``order[r]``, and ``-1``
    loops or blocks.  ``ll``, ``lr``, ``rl`` and ``rr`` read the four partial
    functions back as state pairs, sorted by state index.
    """

    order: tuple  # the machine's state tuple, fixing the numbering
    code: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.code))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def from_pairs(order, ll, lr, rl, rr) -> "BehaviorProfile":
        """Profile from its four behaviors given as ``(state, state)`` pairs."""
        order = tuple(order)
        index = {q: i for i, q in enumerate(order)}
        n = len(order)
        code = [-1] * (2 * n)
        for offset, exit_right, pairs in ((0, 0, ll), (0, 1, lr), (n, 0, rl), (n, 1, rr)):
            for p, q in pairs:
                code[offset + index[p]] = 2 * index[q] + exit_right
        return BehaviorProfile(order, tuple(code))

    def _pairs(self, entry_right: int, exit_right: int) -> tuple:
        order = self.order
        n = len(order)
        half = self.code[n * entry_right : n * (entry_right + 1)]
        return tuple(
            (order[i], order[c >> 1]) for i, c in enumerate(half) if c >= 0 and c & 1 == exit_right
        )

    @property
    def ll(self) -> tuple:
        return self._pairs(0, 0)

    @property
    def lr(self) -> tuple:
        return self._pairs(0, 1)

    @property
    def rl(self) -> tuple:
        return self._pairs(1, 0)

    @property
    def rr(self) -> tuple:
        return self._pairs(1, 1)

    def check_disjoint(self) -> bool:
        left = {p for p, _ in self.ll} & {p for p, _ in self.lr}
        right = {p for p, _ in self.rl} & {p for p, _ in self.rr}
        return not left and not right

    def show(self) -> str:
        def fmt(pairs):
            return "{" + ",".join(f"({p},{q})" for p, q in pairs) + "}"

        return (
            f"ll={fmt(self.ll)} lr={fmt(self.lr)} "
            f"rl={fmt(self.rl)} rr={fmt(self.rr)}"
        )


def identity_profile(order) -> BehaviorProfile:
    n = len(order)
    crossing = tuple(range(1, 2 * n, 2)) + tuple(range(0, 2 * n, 2))
    return BehaviorProfile(tuple(order), crossing)


# ---------------------------------------------------------------------------
# Segment chains and the boundary walk


class ProfileSeg:
    """A factor known only through its behavior profile."""

    def __init__(self, profile: BehaviorProfile):
        self.profile = profile

    def run(self, side: str, q):
        order, code = self.profile.order, self.profile.code
        c = code[order.index(q) + (len(order) if side == "R" else 0)]
        if c < 0:
            return ("dead",)
        return ("exit_right" if c & 1 else "exit_left", order[c >> 1])


class MarkSeg:
    """An explicit endmarker cell, stepped by the machine.

    The right endmarker optionally terminates the walk when entered in a
    final state, matching the stop-on-acceptance convention of runs.
    """

    def __init__(self, t: TwoWayTransducer, mark: str, stop_final: bool = False):
        self.t = t
        self.mark = mark
        self.stop_final = stop_final

    def run(self, side: str, q):
        t, mark = self.t, self.mark
        seen = set()
        while True:
            if self.stop_final and mark == RIGHT_MARK and q in t.finals:
                return ("accept", q)
            if q in seen:
                return ("dead",)
            seen.add(q)
            if (q, mark) not in t.step:
                return ("dead",)
            q, move = t.step[(q, mark)]
            if move == -1:
                return ("exit_left", q)
            if move == 1:
                return ("exit_right", q)


class CellSeg:
    """A single letter cell, stepped by the machine to expose 0-move chains."""

    def __init__(self, t: TwoWayTransducer, symbol):
        self.t = t
        self.symbol = symbol

    def run_states(self, q):
        """States visited while the head stays on this cell, plus the exit."""
        t = self.t
        seen = set()
        visited = []
        while True:
            if q in seen:
                return visited, ("dead",)
            seen.add(q)
            visited.append(q)
            if (q, self.symbol) not in t.step:
                return visited, ("dead",)
            q, move = t.step[(q, self.symbol)]
            if move == -1:
                return visited, ("exit_left", q)
            if move == 1:
                return visited, ("exit_right", q)

    def run(self, side: str, q):
        _, outcome = self.run_states(q)
        return outcome


def chain_walk(segments, start_index: int, start_side: str, start_state):
    """Walk a token over a chain of segments.

    Yields the sequence of entry events ``(segment_index, side, state)`` in
    order (the start counts as the first event) and returns the outcome:
    ``("exit_left", q)`` left of the chain, ``("exit_right", q)`` right of
    it, ``("accept", q)``, ``("dead",)`` or ``("loop",)``.
    """
    events = []
    seen = set()
    i, side, q = start_index, start_side, start_state
    while True:
        key = (i, side, q)
        if key in seen:
            return events, ("loop",)
        seen.add(key)
        events.append(key)
        outcome = segments[i].run(side, q)
        kind = outcome[0]
        if kind == "dead":
            return events, ("dead",)
        if kind == "accept":
            return events, outcome
        q = outcome[1]
        if kind == "exit_left":
            if i == 0:
                return events, ("exit_left", q)
            i, side = i - 1, "R"
        else:
            if i == len(segments) - 1:
                return events, ("exit_right", q)
            i, side = i + 1, "L"


def glue(p: BehaviorProfile, q: BehaviorProfile) -> BehaviorProfile:
    """Profile of any concatenation ``uv`` from the profiles of its parts.

    A run that crosses the middle boundary bounces between the codes of
    ``u`` and ``v``.  Its outcome depends only on the state in which it
    enters ``v``, so each such state is resolved once; a run that enters
    ``v`` again in a state still being resolved loops.
    """
    if p.order != q.order:
        raise ValueError("profiles over different state sets")
    a, b = p.code, q.code
    n = len(p.order)
    resolved = {}  # state entering v from the left -> code of the run in uv

    def from_middle(r):
        path = []
        while r not in resolved:
            resolved[r] = -1  # reached again before this walk ends: a loop
            path.append(r)
            d = b[r]
            if d < 0 or d & 1:
                break
            d = a[n + (d >> 1)]
            if d < 0 or not d & 1:
                break
            r = d >> 1
        else:
            d = resolved[r]
        for x in path:
            resolved[x] = d
        return d

    code = [c if c < 0 or not c & 1 else from_middle(c >> 1) for c in a[:n]]
    for d in b[n:]:  # entries from the right: a bounce re-enters u from the right
        if d >= 0 and not d & 1:
            d = a[n + (d >> 1)]
            if d >= 0 and d & 1:
                d = from_middle(d >> 1)
        code.append(d)
    return BehaviorProfile(p.order, tuple(code))


# ---------------------------------------------------------------------------
# Transition monoid


@dataclass(frozen=True, eq=False)
class TransitionMonoid:
    machine: TwoWayTransducer
    elements: tuple  # BehaviorProfile, identity first, then BFS discovery order
    identity: BehaviorProfile
    morphism: dict  # symbol (letters and endmarkers) -> profile
    representatives: dict  # profile -> shortest witness word
    by_id: dict  # element id -> profile
    _products: dict = field(default_factory=dict, repr=False)

    def product(self, x: BehaviorProfile, y: BehaviorProfile) -> BehaviorProfile:
        key = (x, y)
        got = self._products.get(key)
        if got is None:
            got = glue(x, y)
            self._products[key] = got
        return got

    def element_id(self, e: BehaviorProfile) -> str:
        return _id_of(self.representatives[e])

    def element_by_id(self, name: str) -> BehaviorProfile:
        if name not in self.by_id:
            raise KeyError(f"no monoid element named {name!r}")
        return self.by_id[name]

    def class_of_word(self, w) -> BehaviorProfile:
        e = self.identity
        for a in as_word(w):
            e = self.product(e, self.morphism[a])
        return e


def _id_of(rep) -> str:
    return show_word(rep) if rep else "-"


def transition_monoid(t: TwoWayTransducer) -> TransitionMonoid:
    """Closure of the letter profiles under gluing, shortest representatives.

    Endmarker profiles are kept on the morphism but excluded from the
    generated element set; words containing endmarkers cannot occur as
    factors of real inputs.
    """
    ident = identity_profile(t.states)
    letter_profiles = {a: behaviors(t, (a,)) for a in t.in_alphabet}
    morphism = dict(letter_profiles)
    morphism[LEFT_MARK] = _mark_profile(t, LEFT_MARK)
    morphism[RIGHT_MARK] = _mark_profile(t, RIGHT_MARK)
    products = {}  # the element x letter products, which class_language_dfa reads

    def mul(x, y):
        got = products[(x, y)] = glue(x, y)
        return got

    reps = monoid_closure(ident, letter_profiles, mul)
    by_id = {_id_of(rep): e for e, rep in reps.items()}
    return TransitionMonoid(t, tuple(reps), ident, morphism, reps, by_id, products)


def _mark_profile(t: TwoWayTransducer, mark: str) -> BehaviorProfile:
    """Profile of an endmarker cell; a run on it does not depend on the side
    it entered from, so both halves of the code are equal."""
    seg = MarkSeg(t, mark)
    index = {q: i for i, q in enumerate(t.states)}
    half = []
    for q in t.states:
        outcome = seg.run("L", q)
        if outcome[0] == "exit_left":
            half.append(2 * index[outcome[1]])
        elif outcome[0] == "exit_right":
            half.append(2 * index[outcome[1]] + 1)
        else:
            half.append(-1)
    return BehaviorProfile(t.states, tuple(half) * 2)


def is_aperiodic(m: TransitionMonoid) -> AperiodicityReport:
    """Least global n with x^n = x^(n+1); x^0 is the identity, so the
    trivial monoid has index 0.  The witness is an element with a period."""
    return aperiodicity_index(m.elements, m.identity, m.product)


def class_of(m: TransitionMonoid, w) -> BehaviorProfile:
    w = as_word(w)
    for s in w:
        if s in (LEFT_MARK, RIGHT_MARK):
            raise ValueError("class_of is defined for endmarker-free words")
    return m.class_of_word(w)


def class_language_dfa(m: TransitionMonoid, e: BehaviorProfile) -> Dfa:
    """DFA over the input alphabet accepting exactly the class of ``e``.

    Its states are the elements, numbered in order; letters with the same
    profile share a symbol class.
    """
    if e not in m.representatives:
        raise ValueError("element not in monoid")
    elements = m.elements
    names = {elem: i for i, elem in enumerate(elements)}
    return dense_dfa(
        m.machine.in_alphabet,
        len(elements),
        names[m.identity],
        {names[e]},
        m.morphism.__getitem__,
        lambda i, g: names[m.product(elements[i], g)],
    )


# ---------------------------------------------------------------------------
# Class-based run decisions


def accepts_from_class(m: TransitionMonoid, e: BehaviorProfile) -> bool:
    """Whether words of class ``e`` are accepted, decided from profiles only."""
    t = m.machine
    segs = [
        MarkSeg(t, LEFT_MARK),
        ProfileSeg(e),
        MarkSeg(t, RIGHT_MARK, stop_final=True),
    ]
    _, outcome = chain_walk(segs, 0, "L", t.initial)
    return outcome[0] == "accept"


def accepted_classes(m: TransitionMonoid) -> list:
    return [e for e in m.elements if accepts_from_class(m, e)]


def reach_decision(
    m: TransitionMonoid,
    triple,
    q,
    q2,
    leftward: bool = False,
) -> bool:
    """Boundary-reachability from the classes of a three-way split.

    ``triple = (pre, mid, suf)`` are profiles of a factorization
    ``u = pre mid suf`` of a whole input word.  Forward: does the run over
    ``^ u $`` started at the first position of ``mid`` in state ``q`` at some
    time cross the right boundary of ``mid`` in state ``q2``?  With
    ``leftward`` the walk starts at the last position of ``mid`` and the
    crossings of its left boundary are observed.  Arrivals at any time count,
    not only the first; the walk honors the stop-on-acceptance convention.
    """
    pre, mid, suf = triple
    t = m.machine
    segs = [
        MarkSeg(t, LEFT_MARK),
        ProfileSeg(pre),
        ProfileSeg(mid),
        ProfileSeg(suf),
        MarkSeg(t, RIGHT_MARK, stop_final=True),
    ]
    events, _ = chain_walk(segs, 2, "L" if not leftward else "R", q)
    if leftward:
        return any(i == 1 and side == "R" and s == q2 for (i, side, s) in events)
    return any(i == 3 and side == "L" and s == q2 for (i, side, s) in events)


class _RecordingCell(CellSeg):
    """Cell segment that records every state of its internal 0-move chains."""

    def __init__(self, t, symbol, log):
        super().__init__(t, symbol)
        self.log = log

    def run(self, side, q):
        visited, outcome = self.run_states(q)
        self.log.extend(visited)
        return outcome
