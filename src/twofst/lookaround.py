"""Two-way transducers with look-around.

One variant guards transitions with star-free prefix/suffix language tests;
the other guards them with a unary formula and moves the head through a
binary jump formula, both evaluated on the endmarked tape.  Prefix and
suffix in a test are strict and endmarker-free, so a test's three parts
carry disjoint information.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .words import (
    LEFT_MARK,
    RIGHT_MARK,
    Alphabet,
    Dfa,
    Word,
    as_word,
    dfa_accepts,
    dfa_is_counter_free,
)
from .logic import EvalSession, Formula, MonoidRegistry, free_vars
from .twoway import tape_symbol


class DeterminismViolation(RuntimeError):
    pass


@dataclass(frozen=True)
class SfTest:
    prefix: Dfa
    letter: object
    suffix: Dfa


@dataclass(frozen=True)
class SfTransition:
    src: object
    test: SfTest
    dst: object
    out: Word
    move: int


@dataclass(frozen=True, eq=False)
class SfLookAroundTransducer:
    states: tuple
    in_alphabet: Alphabet
    out_alphabet: Alphabet
    transitions: tuple  # of SfTransition
    initial: object
    finals: frozenset

    def __post_init__(self):
        for tr in self.transitions:
            if not all(b in self.out_alphabet for b in tr.out):
                raise ValueError("a transition writes a symbol outside the output alphabet")
            if tr.test.letter not in (*self.in_alphabet, LEFT_MARK, RIGHT_MARK):
                raise ValueError(f"test letter {tr.test.letter!r} is not on the tape")
            if tr.move not in (-1, 0, 1):
                raise ValueError(f"illegal move {tr.move!r}")
            if tr.test.letter == LEFT_MARK and tr.move == -1:
                raise ValueError("move of a test on the left endmarker must be 0 or +1")
            if tr.test.letter == RIGHT_MARK and tr.move == 1:
                raise ValueError("move of a test on the right endmarker must be -1 or 0")
        for tr in self.transitions:
            for d in (tr.test.prefix, tr.test.suffix):
                report = dfa_is_counter_free(d)
                if not report.aperiodic:
                    raise ValueError("look-around test language is not star-free")


@dataclass(frozen=True)
class FoTransition:
    src: object
    guard: Formula  # free variable x
    dst: object
    out: Word
    jump: Formula  # free variables x, y (x may be unused)


@dataclass(frozen=True, eq=False)
class FoLookAroundTransducer:
    states: tuple
    in_alphabet: Alphabet
    out_alphabet: Alphabet
    transitions: tuple  # of FoTransition
    initial: object
    finals: frozenset

    def __post_init__(self):
        for tr in self.transitions:
            if not all(b in self.out_alphabet for b in tr.out):
                raise ValueError("a transition writes a symbol outside the output alphabet")
            if not free_vars(tr.guard) <= {"x"}:
                raise ValueError("guards use the free variable x")
            if not free_vars(tr.jump) <= {"x", "y"}:
                raise ValueError("jumps use the free variables x, y")


@dataclass(frozen=True)
class LaResult:
    output: Optional[Word]
    path: tuple  # of (state, position)
    reason: Optional[str] = None  # None | blocked | loop | rejected

    @property
    def defined(self) -> bool:
        return self.output is not None


def sf_test_holds(test: SfTest, w: Word, pos: int) -> bool:
    """Letter under the head matches; strict prefix and suffix pass the DFAs."""
    if tape_symbol(w, pos) != test.letter:
        return False
    prefix = w[: max(pos - 1, 0)]
    suffix = w[pos:]
    return dfa_accepts(test.prefix, prefix) and dfa_accepts(test.suffix, suffix)


def _run(t, w, enabled_on) -> LaResult:
    """Run a look-around machine; ``enabled_on(w)`` gives the function that
    lists the ``(transition, targets)`` enabled in a state at a position."""
    w = t.in_alphabet.word(as_word(w))
    enabled = enabled_on(w)
    last = len(w) + 1
    q, pos = t.initial, 0
    path = [(q, pos)]
    seen = {(q, pos)}
    outputs = []
    while True:
        if pos == last and q in t.finals:
            return LaResult(tuple(s for o in outputs for s in o), tuple(path))
        hits = enabled(q, pos)
        if not hits:
            reason = "rejected" if pos == last else "blocked"
            return LaResult(None, tuple(path), reason)
        if len(hits) > 1:
            raise DeterminismViolation(
                f"{len(hits)} transitions enabled in state {q!r} at position {pos}"
            )
        tr, targets = hits[0]
        if len(targets) > 1:
            raise DeterminismViolation(
                f"transition of {q!r} admits several targets {targets!r} at position {pos}"
            )
        outputs.append(tr.out)
        q, pos = tr.dst, targets[0]
        if not 0 <= pos <= last:
            return LaResult(None, tuple(path), "blocked")
        path.append((q, pos))
        if (q, pos) in seen:
            return LaResult(None, tuple(path), "loop")
        seen.add((q, pos))


def _deterministic_upto(t, max_len: int, enabled_on) -> bool:
    """At most one enabled transition, with one target, in every state at
    every position of every word up to ``max_len``."""
    for w in t.in_alphabet.words_upto(max_len):
        enabled = enabled_on(w)
        for pos in range(0, len(w) + 2):
            for q in t.states:
                hits = enabled(q, pos)
                if len(hits) > 1 or (hits and len(hits[0][1]) > 1):
                    return False
    return True


def _sf_enabled(t: SfLookAroundTransducer, w: Word):
    def enabled(q, pos):
        return [
            (tr, [pos + tr.move])
            for tr in t.transitions
            if tr.src == q and sf_test_holds(tr.test, w, pos)
        ]

    return enabled


def simulate_sf_la(t: SfLookAroundTransducer, w) -> LaResult:
    return _run(t, w, lambda w: _sf_enabled(t, w))


def check_sf_determinism(t: SfLookAroundTransducer, max_len: int = 6) -> bool:
    """Tests per state must be exclusive on every position of every word."""
    return _deterministic_upto(t, max_len, lambda w: _sf_enabled(t, w))


def _fo_enabled(t: FoLookAroundTransducer, w: Word, registry: Optional[MonoidRegistry]):
    """Transitions whose guard holds and whose jump has a target.

    Requiring a target makes the constructed machines deterministic without
    strengthened guards: a successor-following transition is disabled at the
    last node because its jump formula has no model there.
    """
    session = EvalSession(w, registry, marked=True)
    cells = range(0, len(w) + 2)

    def enabled(q, pos):
        out = []
        for tr in t.transitions:
            if tr.src != q or not session.eval(tr.guard, {"x": pos}):
                continue
            targets = [j for j in cells if session.eval(tr.jump, {"x": pos, "y": j})]
            if targets:
                out.append((tr, targets))
        return out

    return enabled


def simulate_fo_la(
    t: FoLookAroundTransducer, w, registry: Optional[MonoidRegistry] = None
) -> LaResult:
    return _run(t, w, lambda w: _fo_enabled(t, w, registry))


def check_fo_determinism(
    t: FoLookAroundTransducer,
    max_len: int = 6,
    registry: Optional[MonoidRegistry] = None,
) -> bool:
    """At most one enabled transition and one jump target everywhere."""
    return _deterministic_upto(t, max_len, lambda w: _fo_enabled(t, w, registry))
