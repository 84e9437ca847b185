"""The machine -> transduction construction written out over class atoms.

Every run decision of :func:`twofst.translate.twoway_to_fot` is one run
atom.  Here each decision is expanded into a disjunction with one conjunction
of class atoms per tuple of monoid elements around the positions, decided by
walking the chain of those elements; order formulas bound their gap factors
with the extra variables ``z``, ``z1`` and ``z2``.  The expansion serves as
the reference the run atoms are compared against.  It checks neither
aperiodicity nor productions on the endmarkers.
"""
from dataclasses import dataclass

from twofst.fot import FoTransduction
from twofst.logic import (
    Exists,
    FactorClass,
    Forall,
    Formula,
    Le,
    Letter,
    MonoidRegistry,
    PrefixClass,
    SuffixClass,
    conj,
    disj,
    implies,
    linear_graph_sentence,
    neg,
    var_eq,
    var_lt,
)
from twofst.monoid import (
    TransitionMonoid,
    accepted_classes,
    cell_run,
    marked_chain,
    transition_monoid,
    walk_chain,
)
from twofst.twoway import TwoWayTransducer, normalize


def _visit_states(m, before_profiles, cell_symbol, after_profiles, start):
    """States in which the designated cell is visited by the chosen run.

    The word is ``before... cell after...``; framed by endmarkers, it is a
    chain whose segment 0 is ``^`` and whose segment ``1 + len(before)`` is
    the cell.  ``start = (segment, q)`` starts the run in state ``q`` at the
    first position of that (nonempty) segment; ``(0, initial)`` is the full
    run.  The walk obeys the stop-on-acceptance convention; visits during
    0-move chains count.
    """
    t = m.machine
    order = t.states
    cell = 1 + len(before_profiles)
    chain = marked_chain(m, [*before_profiles, m.morphism[cell_symbol], *after_profiles])
    seg, q = start
    entries, _ = walk_chain(chain, len(order), seg, 0, order.index(q))
    return frozenset(
        s for k, _, i in entries if k == cell for s in cell_run(t, cell_symbol, order[i])[0]
    )


def _succ(u: str, v: str) -> Formula:
    """v is the successor position of u."""
    w = f"{u}{v}w"
    return conj(
        [var_lt(u, v), neg(Exists(w, conj([var_lt(u, w), var_lt(w, v)])))]
    )


@dataclass
class _FotBuilder:
    t: TwoWayTransducer
    m: TransitionMonoid
    name: str

    def __post_init__(self):
        self._visits: dict = {}

    def pre(self, e, var):
        return PrefixClass(self.name, self.m.element_id(e), var)

    def suf(self, e, var):
        return SuffixClass(self.name, self.m.element_id(e), var)

    def fact(self, e, v1, v2):
        return FactorClass(self.name, self.m.element_id(e), v1, v2)

    def elements(self):
        return self.m.elements

    def letters(self):
        return tuple(self.t.in_alphabet)

    def vis(self, before, cell, after, start) -> frozenset:
        key = (tuple(before), cell, tuple(after), start)
        got = self._visits.get(key)
        if got is None:
            got = _visit_states(self.m, before, cell, after, start)
            self._visits[key] = got
        return got


def expanded_twoway_to_fot(
    t: TwoWayTransducer,
    registry: MonoidRegistry,
    monoid_name: str = "M",
) -> FoTransduction:
    """FO transduction equivalent to an aperiodic two-way transducer.

    Copies are the (normalized) states with a position formula, in state
    order, as no other state has nodes; a node ``(q, i)`` exists when the
    accepting run visits ``(q, i)`` and produces a letter there; the order
    formula decides whether the run continued from one visited configuration
    reaches another.  All decisions are disjunctions over class atoms of the
    three (plus the split-off target cell) factors around the positions.
    """
    t = normalize(t)
    m = transition_monoid(t)
    registry.register(monoid_name, m)
    b = _FotBuilder(t, m, monoid_name)

    letters = b.letters()
    elements = b.elements()

    # --- node formulas: the full run visits (q, x) and produces b there
    pos = {}
    for q in t.states:
        for out_sym in t.out_alphabet:
            sources = [a for a in letters if (q, a) in t.rules and t.rules[(q, a)][1] == (out_sym,)]
            disjuncts = []
            for a in sources:
                for e1 in elements:
                    for e3 in elements:
                        if q in b.vis([e1], a, [e3], (0, t.initial)):
                            disjuncts.append(
                                conj(
                                    [Letter(a, "x"), b.pre(e1, "x"), b.suf(e3, "x")]
                                )
                            )
            if disjuncts:
                pos[(q, out_sym)] = disj(disjuncts)

    # --- order formulas
    copies = tuple(dict.fromkeys(q for q, _ in pos))
    order = {}
    for q in copies:
        for q2 in copies:
            order[(q, q2)] = _order_formula(b, q, q2)

    # --- domain: linear word whose class is accepting
    accepted = accepted_classes(m)
    dom_disjuncts = []
    for e in accepted:
        per_last = []
        for a in letters:
            for e1 in elements:
                if m.product(e1, m.morphism[a]) == e:
                    per_last.append(conj([Letter(a, "x"), b.pre(e1, "x")]))
        if per_last:
            dom_disjuncts.append(
                Exists(
                    "x",
                    conj(
                        [
                            _is_real("x", letters),
                            Forall("z", implies(_is_real("z", letters), Le("z", "x"))),
                            disj(per_last),
                        ]
                    ),
                )
            )
    dom = conj([linear_graph_sentence(), disj(dom_disjuncts)])
    if m.identity in accepted:  # the empty word, which has no first node
        dom = disj([dom, Forall("x", neg(_is_real("x", letters)))])

    return FoTransduction(
        in_alphabet=t.in_alphabet,
        out_alphabet=t.out_alphabet,
        dom=dom,
        copies=copies,
        pos=pos,
        order=order,
    )


def _is_real(var: str, letters) -> Formula:
    return disj([Letter(a, var) for a in letters])


def _order_formula(b: _FotBuilder, q, q2) -> Formula:
    """Does the run continued from (q, x) visit (q2, y)?"""
    m = b.m
    letters = b.letters()
    elements = b.elements()

    # x == y: run started on the cell revisits it
    eq_disjuncts = []
    for e1 in elements:
        for a in letters:
            for e3 in elements:
                if q2 in b.vis([e1], a, [e3], (2, q)):
                    eq_disjuncts.append(
                        conj([Letter(a, "x"), b.pre(e1, "x"), b.suf(e3, "x")])
                    )
    part_eq = conj([var_eq("x", "y"), disj(eq_disjuncts)])

    # x < y: factors are pre | gap=u[x..y-1] | target cell | suf
    fwd = []
    for e1 in elements:
        for e2 in elements:
            for a in letters:
                for e3 in elements:
                    if q2 in b.vis([e1, e2], a, [e3], (2, q)):
                        fwd.append(
                            conj(
                                [
                                    b.pre(e1, "x"),
                                    b.fact(e2, "x", "z"),
                                    Letter(a, "y"),
                                    b.suf(e3, "y"),
                                ]
                            )
                        )
    part_fwd = conj(
        [var_lt("x", "y"), Exists("z", conj([_succ("z", "y"), disj(fwd)]))]
    )

    # y < x: factors are pre | target cell | gap=u[y+1..x-1] | right=u[x..]
    # the right segment's class is recovered from the letter at x and the
    # suffix class strictly after x
    bwd_empty = []  # x == y + 1, empty gap
    bwd_gap = []
    for e1 in elements:
        for a in letters:
            for bx in letters:
                for e5 in elements:
                    e_right = m.product(m.morphism[bx], e5)
                    if q2 in b.vis([e1], a, [m.identity, e_right], (4, q)):
                        bwd_empty.append(
                            conj(
                                [
                                    b.pre(e1, "y"),
                                    Letter(a, "y"),
                                    Letter(bx, "x"),
                                    b.suf(e5, "x"),
                                ]
                            )
                        )
                    for e2 in elements:
                        if q2 in b.vis([e1], a, [e2, e_right], (4, q)):
                            bwd_gap.append(
                                conj(
                                    [
                                        b.pre(e1, "y"),
                                        Letter(a, "y"),
                                        b.fact(e2, "z1", "z2"),
                                        Letter(bx, "x"),
                                        b.suf(e5, "x"),
                                    ]
                                )
                            )
    part_bwd = disj(
        [
            conj([_succ("y", "x"), disj(bwd_empty)]),
            conj(
                [
                    var_lt("y", "x"),
                    Exists(
                        "z1",
                        conj(
                            [
                                _succ("y", "z1"),
                                Exists(
                                    "z2",
                                    conj([_succ("z2", "x"), Le("z1", "z2"), disj(bwd_gap)]),
                                ),
                            ]
                        ),
                    ),
                ]
            ),
        ]
    )
    return disj([part_eq, part_fwd, part_bwd])
