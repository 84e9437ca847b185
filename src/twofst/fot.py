"""First-order word transductions: a fixed number of copies of the input,
with node labels and the output order defined by formulas on the input word.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .words import Alphabet, Word, as_word
from .logic import (
    FALSE,
    EvalSession,
    Formula,
    MonoidRegistry,
    free_vars,
)


class LabelConflict(RuntimeError):
    """Two position formulas of the same copy hold at one node."""


@dataclass(frozen=True, eq=False)
class FoTransduction:
    in_alphabet: Alphabet
    out_alphabet: Alphabet
    dom: Formula
    copies: tuple
    pos: dict  # (copy, output symbol) -> Formula with free var x
    order: dict  # (copy, copy) -> Formula with free vars x, y

    def __post_init__(self):
        if free_vars(self.dom):
            raise ValueError("domain formula must be a sentence")
        for f in self.pos.values():
            if not free_vars(f) <= {"x"}:
                raise ValueError("position formulas use the free variable x")
        for f in self.order.values():
            if not free_vars(f) <= {"x", "y"}:
                raise ValueError("order formulas use the free variables x, y")
        copies = frozenset(self.copies)
        for c, b in self.pos:
            if c not in copies or b not in self.out_alphabet:
                raise ValueError(f"position formula of ({c!r}, {b!r}): no such copy or output letter")
        for c, c2 in self.order:
            if c not in copies or c2 not in copies:
                raise ValueError(f"order formula of ({c!r}, {c2!r}): no such copy")

    def pos_formula(self, copy, b) -> Formula:
        return self.pos.get((copy, b), FALSE)

    def order_formula(self, c, c2) -> Formula:
        return self.order.get((c, c2), FALSE)


@dataclass(frozen=True)
class OutputStructure:
    nodes: tuple  # (copy, position), sorted by (position, copy index)
    labels: dict  # node -> output symbol
    edges: frozenset  # pairs (node, node) with node <= node, as evaluated


@dataclass(frozen=True)
class FotResult:
    output: Optional[Word]
    reason: Optional[str] = None  # None | "domain" | "order-not-linear"
    structure: Optional[OutputStructure] = None

    @property
    def defined(self) -> bool:
        return self.output is not None


def fot_domain_check(
    T: FoTransduction,
    w,
    registry: Optional[MonoidRegistry] = None,
    session: Optional[EvalSession] = None,
) -> bool:
    w = T.in_alphabet.word(as_word(w))
    session = session or EvalSession(w, registry)
    return session.eval(T.dom, {})


def fot_output_structure(
    T: FoTransduction,
    w,
    registry: Optional[MonoidRegistry] = None,
    session: Optional[EvalSession] = None,
) -> OutputStructure:
    """Nodes, labels and the evaluated order relation, before linearity checks."""
    w = as_word(w)
    session = session or EvalSession(w, registry)
    nodes = []
    labels = {}
    for i in range(1, len(w) + 1):
        for c in T.copies:
            hits = [
                b
                for b in T.out_alphabet
                if (c, b) in T.pos and session.eval(T.pos[(c, b)], {"x": i})
            ]
            if len(hits) > 1:
                raise LabelConflict(
                    f"copy {c!r} position {i}: labels {hits!r} all apply"
                )
            if hits:
                nodes.append((c, i))
                labels[(c, i)] = hits[0]
    edges = set()
    for (c, i) in nodes:
        for (c2, j) in nodes:
            f = T.order_formula(c, c2)
            if session.eval(f, {"x": i, "y": j}):
                edges.add(((c, i), (c2, j)))
    return OutputStructure(tuple(nodes), labels, frozenset(edges))


def _linear_order(nodes, edges) -> Optional[list]:
    """The nodes in increasing order when ``edges`` is a linear order on them
    (reflexive, antisymmetric, transitive, total), else None.

    In a linear order the i-th node has exactly i predecessors (itself
    included), so sorting by predecessor count gives the only candidate; the
    relation is then exactly the pairs ``(u_i, u_j)`` with ``i <= j``.
    """
    preds = dict.fromkeys(nodes, 0)
    for _, v in edges:
        preds[v] += 1
    ranked = sorted(nodes, key=preds.__getitem__)
    for i, u in enumerate(ranked):
        for j, v in enumerate(ranked):
            if ((u, v) in edges) != (i <= j):
                return None
    return ranked


def fot_eval(T: FoTransduction, w, registry: Optional[MonoidRegistry] = None) -> FotResult:
    """Output word of ``T`` on ``w``; undefined when the domain formula fails
    or the evaluated order is not a linear order on the nodes."""
    w = T.in_alphabet.word(as_word(w))
    session = EvalSession(w, registry)
    if not fot_domain_check(T, w, registry, session):
        return FotResult(None, "domain")
    structure = fot_output_structure(T, w, registry, session)
    ranked = _linear_order(structure.nodes, structure.edges)
    if ranked is None:
        return FotResult(None, "order-not-linear", structure)
    output = tuple(structure.labels[u] for u in ranked)
    return FotResult(output, None, structure)
