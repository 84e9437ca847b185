"""Behavior profiles as monoid elements and the transition monoid.

A profile packs the four partial behavior functions of a factor into one
integer code per state and entry side.  Profiles multiply by gluing: a run
bounces between the two codes at the middle boundary, and a run that comes
back to a boundary state it has crossed in loops.  The class-based run
decisions (acceptance, boundary reachability and the visit states of the
run atoms of the logic) walk the same codes along a chain framed by the
profiles of the endmarker cells, which ``cell_run`` steps like any cell.
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
from .twoway import TwoWayTransducer


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


def identity_profile(order) -> BehaviorProfile:
    n = len(order)
    crossing = tuple(range(1, 2 * n, 2)) + tuple(range(0, 2 * n, 2))
    return BehaviorProfile(tuple(order), crossing)


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
    morphism: dict  # symbol -> profile; the endmarker entries frame the run walks
    representatives: dict  # profile -> shortest witness word
    by_id: dict  # element id -> profile
    _products: dict = field(default_factory=dict, repr=False)
    _visits: dict = field(default_factory=dict, repr=False)  # run_visits answers
    _atoms: dict = field(default_factory=dict, repr=False)  # run-atom DFAs of logic's compiler

    def product(self, x: BehaviorProfile, y: BehaviorProfile) -> BehaviorProfile:
        """``x y``.  For two elements it walks ``x`` along the representative
        word of ``y`` through the stored element x letter products, which
        the closure filled in; other profiles, such as those of the
        endmarkers, are glued."""
        key = (x, y)
        got = self._products.get(key)
        if got is None:
            word = self.representatives.get(y)
            if word is None or x not in self.representatives:
                got = glue(x, y)
            else:
                got = x
                for a in word:
                    got = self._products[(got, self.morphism[a])]
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
    factors of real inputs.  Only the walks of the class-based run decisions
    read them, as the first and last segments of their chains.
    """
    ident = identity_profile(t.states)
    morphism = {a: _cell_profile(t, a) for a in (*t.in_alphabet, LEFT_MARK, RIGHT_MARK)}
    letter_profiles = {a: morphism[a] for a in t.in_alphabet}
    products = {}  # the element x letter products, which class_language_dfa reads

    def mul(x, y):
        got = products[(x, y)] = glue(x, y)
        return got

    reps = monoid_closure(ident, letter_profiles, mul)
    by_id = {_id_of(rep): e for e, rep in reps.items()}
    return TransitionMonoid(t, tuple(reps), ident, morphism, reps, by_id, products)


def _cell_profile(t: TwoWayTransducer, symbol) -> BehaviorProfile:
    """Profile of one cell holding a letter or an endmarker; a run on it
    does not depend on the side it entered from, so both halves of the code
    are equal.  On ``$`` a stop in a final state reads as an exit to the
    right."""
    index = t.table.index
    half = []
    for q in t.states:
        _, r, move = cell_run(t, symbol, q)
        half.append(2 * index[r] + (move > 0) if move else -1)
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


def cell_run(t: TwoWayTransducer, symbol, q):
    """The run of ``t`` on one cell holding ``symbol``, entered in state ``q``.

    Returns the states visited on the cell, in order, then the state in
    which the run leaves and its move, -1 or +1, or ``None, 0`` when it
    blocks or loops.  On ``$`` the run stops in the first final state it
    reaches; the stop is reported as move +1, which no transition on ``$``
    can make.
    """
    table = t.table
    width, rows = table.width, table.rows
    s = table.symbols[symbol]
    slot = table.index[q] * width + s
    visited = [q]
    # the cell has |Q| configurations: one more 0-move repeats a state
    for _ in range(len(t.states)):
        row = rows[slot]
        if row is None:  # blocked, or stopped on $ in a final state
            if symbol == RIGHT_MARK and table.final[slot // width]:
                return visited, visited[-1], 1
            return visited, None, 0
        nxt, move, _, r = row
        if move:
            return visited, r, move
        visited.append(r)
        slot = nxt + s
    return list(dict.fromkeys(visited)), None, 0


def marked_chain(m: TransitionMonoid, profiles) -> list:
    """Codes of ``^``, of each profile in order, and of ``$``."""
    return [m.morphism[LEFT_MARK].code, *(p.code for p in profiles), m.morphism[RIGHT_MARK].code]


def walk_chain(chain, n: int, seg: int, side: int, i: int):
    """A run bouncing along a chain of profile codes over ``n`` states.

    The run enters segment ``seg`` from the left (``side`` 0) or the right
    (1) in the state of index ``i``, and moves between neighbouring codes as
    ``glue`` does between two.  Returns the entries ``(segment, side, state
    index)`` in order, the start first, and whether the run left the chain
    on the right; with ``$`` last, that is acceptance.  A repeated entry
    ends the walk as a loop.
    """
    entries = {}  # insertion-ordered set
    last = len(chain) - 1
    while (seg, side, i) not in entries:
        entries[(seg, side, i)] = None
        c = chain[seg][n * side + i]
        if c < 0:
            break
        i = c >> 1
        if c & 1:
            if seg == last:
                return list(entries), True
            seg, side = seg + 1, 0
        else:
            if seg == 0:
                break
            seg, side = seg - 1, 1
    return list(entries), False


def accepts_from_class(m: TransitionMonoid, e: BehaviorProfile) -> bool:
    """Whether words of class ``e`` are accepted, decided from profiles only."""
    order = m.machine.states
    return walk_chain(marked_chain(m, [e]), len(order), 0, 0, order.index(m.machine.initial))[1]


def accepted_classes(m: TransitionMonoid) -> list:
    return [e for e in m.elements if accepts_from_class(m, e)]


def run_visits(m: TransitionMonoid, factors: tuple, start: tuple, cell: int) -> frozenset:
    """Indices of the states in which a run over ``^ u $`` visits one cell.

    ``factors`` cuts ``u`` into classes (profiles) and cut letters, left to
    right; with the endmarkers around them they are the segments of a chain,
    ``^`` being segment 0.  ``start = (segment, state index)`` starts the
    run there, entering from the left; segment 0 and the initial state give
    the full run.
    ``cell`` is a cut letter or an endmarker.  The walk obeys the
    stop-on-acceptance convention, and visits during 0-move chains count.
    Answers are memoized on the monoid, as products are.
    """
    key = (factors, start, cell)
    got = m._visits.get(key)
    if got is None:
        t = m.machine
        order = t.states
        segments = (LEFT_MARK, *factors, RIGHT_MARK)
        chain = [s.code if isinstance(s, BehaviorProfile) else m.morphism[s].code for s in segments]
        entries, _ = walk_chain(chain, len(order), start[0], 0, start[1])
        index = t.table.index
        got = m._visits[key] = frozenset(
            index[q] for k, _, i in entries if k == cell for q in cell_run(t, segments[cell], order[i])[0]
        )
    return got
