"""Deterministic two-way transducers: simulation, behaviors, normalization.

The tape for input ``w`` is ``^ w $`` with positions ``0 .. len(w)+1``.  A
run starts at position 0 in the initial state and accepts as soon as it
reaches the right endmarker in a final state; the machine stops there even
if a transition on ``$`` is defined, which keeps acceptance decidable
without look-ahead.

Runs step a dense integer table (``TwoWayTransducer.table``), built on first
use; the ``rules`` mapping is read-only, so it cannot go stale.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .words import (
    Alphabet,
    LEFT_MARK,
    RIGHT_MARK,
    SymbolNotInAlphabet,
    Word,
    as_word,
    refine,
)


class TwoWayError(ValueError):
    pass


class StepTable(NamedTuple):
    """A machine's transitions as one flat list of rows.

    States are numbered in the order of ``states`` and tape symbols in the
    order of the input alphabet, then ``^`` and ``$``.  The slot
    ``state index * width + symbol index`` holds the row ``(next state index
    * width, move, output word, next state)``, or None where a run cannot
    step: there is no transition, or the state is final and the symbol is
    ``$``, where a run stops.
    """

    width: int  # symbol count
    symbols: dict  # tape symbol -> symbol index
    index: dict  # state -> state index
    rows: list
    final: list  # state index -> finality


@dataclass(frozen=True, eq=False)
class TwoWayTransducer:
    states: tuple
    in_alphabet: Alphabet
    out_alphabet: Alphabet
    initial: object
    finals: frozenset
    rules: Mapping  # (state, symbol) -> (next state, output word, move), read-only
    _table: Optional[StepTable] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        rules = {k: (r, as_word(out), move) for k, (r, out, move) in self.rules.items()}
        object.__setattr__(self, "rules", MappingProxyType(rules))
        if self.initial not in self.states:
            raise TwoWayError("initial state missing from state set")
        states = set(self.states)
        if not self.finals <= states:
            raise TwoWayError("final states must be a subset of states")
        for (q, a), (r, _, move) in rules.items():
            if move not in (-1, 0, 1):
                raise TwoWayError(f"illegal move {move!r}")
            if a == LEFT_MARK and move == -1:
                raise TwoWayError("move on left endmarker must be 0 or +1")
            if a == RIGHT_MARK and move == 1:
                raise TwoWayError("move on right endmarker must be -1 or 0")
            if q not in states or r not in states:
                raise TwoWayError(f"transition ({q!r}, {a!r}) leaves the state set")
            if a not in self.in_alphabet and a not in (LEFT_MARK, RIGHT_MARK):
                raise TwoWayError(f"transition ({q!r}, {a!r}) reads a symbol outside the alphabet")
        if not all(b in self.out_alphabet for _, w, _ in rules.values() for b in w):
            raise TwoWayError("a transition writes a symbol outside the output alphabet")

    @property
    def table(self) -> StepTable:
        got = self._table
        if got is None:
            got = _step_table(self)
            object.__setattr__(self, "_table", got)
        return got


def _step_table(t: TwoWayTransducer) -> StepTable:
    symbols = dict(t.in_alphabet.index)
    symbols[LEFT_MARK] = len(symbols)
    symbols[RIGHT_MARK] = len(symbols)
    width = len(symbols)
    index = {q: i for i, q in enumerate(t.states)}
    rows = [None] * (len(t.states) * width)
    for (q, a), (r, out, move) in t.rules.items():
        if a != RIGHT_MARK or q not in t.finals:
            rows[index[q] * width + symbols[a]] = (index[r] * width, move, out, r)
    return StepTable(width, symbols, index, rows, [q in t.finals for q in t.states])


def make_twoway(states, in_alphabet, out_alphabet, initial, finals, rules) -> TwoWayTransducer:
    """The machine of ``rules``, (state, symbol) -> (next state, output,
    move); states and finals may be any iterables, an output a string."""
    return TwoWayTransducer(
        tuple(states), in_alphabet, out_alphabet, initial, frozenset(finals), rules
    )


@dataclass(frozen=True)
class Run:
    """Configurations of a run and the production of each step.

    ``configs[i+1]`` follows ``configs[i]`` by one transition whose output is
    ``outputs[i]``; positions index the marked tape ``^ w $``.
    """

    word: Word
    configs: tuple  # of (state, position)
    outputs: tuple  # of output words, len == len(configs) - 1
    accepted: bool


@dataclass(frozen=True)
class SimResult:
    output: Optional[Word]
    run: Run
    reason: Optional[str] = None  # None | "blocked" | "loop" | "rejected"

    @property
    def defined(self) -> bool:
        return self.output is not None


def tape_symbol(w: Word, pos: int):
    if pos == 0:
        return LEFT_MARK
    if pos == len(w) + 1:
        return RIGHT_MARK
    return w[pos - 1]


def simulate(t: TwoWayTransducer, w) -> SimResult:
    """Run ``t`` on ``w`` by stepping its table.

    A run over ``n`` letters has |Q|·(n+2) configurations, so a
    deterministic run that takes that many steps has repeated one.  The
    walk then stops and cuts the run back to the first repetition: a looping
    run ends at its first repeated configuration."""
    w = as_word(w)
    table = t.table
    width, rows = table.width, table.rows
    try:
        tape = [width - 2, *map(t.in_alphabet.index.__getitem__, w), width - 1]
    except (KeyError, TypeError):
        t.in_alphabet.word(w)  # raises SymbolNotInAlphabet for the first stray symbol
        raise
    q, pos = table.index[t.initial] * width, 0
    configs, outputs = [(t.initial, 0)], []
    add_config, add_output = configs.append, outputs.append
    for _ in range(len(t.states) * (len(w) + 2)):
        row = rows[q + tape[pos]]
        if row is None:
            break
        q, move, out, state = row
        pos += move
        add_output(out)
        add_config((state, pos))
    else:
        return _cut_loop(w, configs, outputs)
    last = len(w) + 1
    if pos == last and table.final[q // width]:
        run = Run(w, tuple(configs), tuple(outputs), True)
        return SimResult(tuple(chain.from_iterable(outputs)), run)
    run = Run(w, tuple(configs), tuple(outputs), False)
    return SimResult(None, run, "rejected" if pos == last else "blocked")


def _cut_loop(w: Word, configs: list, outputs: list) -> SimResult:
    """The looping run that ends at the first repeated configuration."""
    seen = set()
    for j, c in enumerate(configs):
        if c in seen:
            break
        seen.add(c)
    return SimResult(None, Run(w, tuple(configs[: j + 1]), tuple(outputs[:j]), False), "loop")


def trace_table(result: SimResult) -> str:
    """Visit-layer table of a run: row k holds the k-th visit to each cell."""
    w = result.run.word
    cells = [LEFT_MARK] + [str(s) for s in w] + [RIGHT_MARK]
    visits = [[] for _ in cells]
    for (q, pos) in result.run.configs:
        visits[pos].append(str(q))
    depth = max(len(v) for v in visits)
    widths = [max(len(c), max((len(s) for s in visits[i]), default=1)) for i, c in enumerate(cells)]
    lines = ["  ".join(c.rjust(widths[i]) for i, c in enumerate(cells))]
    for r in range(depth):
        row = [(visits[i][r] if r < len(visits[i]) else "").rjust(widths[i]) for i in range(len(cells))]
        lines.append("  ".join(row))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Behaviors of a factor


def behaviors(t: TwoWayTransducer, w):
    """The four behavior functions of ``w`` computed by direct simulation.

    Runs are confined to the factor: they start at its first (last) position
    and end when the head leaves on either side.  Looping or blocking starts
    are undefined.  For the empty factor the crossing behaviors are the
    identity and the returning ones are empty.
    """
    from .monoid import BehaviorProfile, identity_profile  # local import to avoid a cycle

    w = as_word(w)
    for s in w:
        if s in (LEFT_MARK, RIGHT_MARK):
            raise TwoWayError("behaviors are defined for endmarker-free factors")
        if s not in t.in_alphabet:
            raise SymbolNotInAlphabet(f"symbol {s!r} not in alphabet")
    order = t.states
    if not w:
        return identity_profile(order)
    table = t.table
    width, rows = table.width, table.rows
    cells = [table.symbols[s] for s in w]
    n, m = len(order), len(w)
    code = [-1] * (2 * n)
    for entry_right in (0, 1):
        for i in range(n):
            q, pos = i * width, m - 1 if entry_right else 0
            # more steps than the factor has configurations repeat one: a loop
            for _ in range(n * m):
                row = rows[q + cells[pos]]
                if row is None:
                    break  # blocked
                q, move, _, _ = row
                pos += move
                if not 0 <= pos < m:
                    code[n * entry_right + i] = 2 * (q // width) + (pos >= 0)
                    break
    return BehaviorProfile(order, tuple(code))


# ---------------------------------------------------------------------------
# Context paths


@dataclass(frozen=True)
class ContextPath:
    pairs: tuple  # of (state, renamed index), ranks starting at 1


def context_path(run_or_configs, positions) -> ContextPath:
    """Project a run onto ``positions`` (strictly increasing), renaming by rank."""
    configs = run_or_configs.configs if isinstance(run_or_configs, Run) else tuple(run_or_configs)
    index = list(positions)
    if any(index[i] >= index[i + 1] for i in range(len(index) - 1)):
        raise ValueError("positions must be strictly increasing")
    rank = {p: i + 1 for i, p in enumerate(index)}
    pairs = tuple((q, rank[p]) for (q, p) in configs if p in rank)
    return ContextPath(pairs)


def pumped_context_path(t: TwoWayTransducer, v, u, w, n: int) -> Optional[ContextPath]:
    """Context path of ``v u^n w`` on the positions of ``v`` and ``w``.

    Returns None when the run does not halt (loop or block keeps the trace
    incomparable).
    """
    v, u, w = as_word(v), as_word(u), as_word(w)
    word = v + u * n + w
    res = simulate(t, word)
    if res.reason == "loop":
        return None
    left = [i + 1 for i in range(len(v))]
    right = [len(v) + n * len(u) + i + 1 for i in range(len(w))]
    return context_path(res.run, left + right)


# ---------------------------------------------------------------------------
# Normalization and mirroring


def is_normalized(t: TwoWayTransducer) -> bool:
    return all(len(v) <= 1 for _, v, _ in t.rules.values())


def normalize(t: TwoWayTransducer) -> TwoWayTransducer:
    """Split multi-letter productions into chains of single-letter emissions.

    Emission states stay on the current cell (move 0) until the last letter,
    then perform the original move.  Idempotent on already-normalized input.
    """
    if is_normalized(t):
        return t
    rules = {}
    emit_states = {}

    def emit_state(rest, target, move):
        key = ("emit", rest, target, move)
        emit_states[key] = True
        return key

    for (q, a), (r, v, move) in t.rules.items():
        if len(v) <= 1:
            rules[(q, a)] = (r, v, move)
        else:
            rules[(q, a)] = (emit_state(v[1:], r, move), (v[0],), 0)
    # emission chains read whatever symbol is under the head; endmarker rows
    # are defined only when the final move is legal there (a chain can sit on
    # an endmarker only if its source transition fired on that endmarker)
    symbols = tuple(t.in_alphabet) + (LEFT_MARK, RIGHT_MARK)
    frontier = list(emit_states)
    while frontier:
        key = frontier.pop()
        _, rest, target, move = key
        for a in symbols:
            if a == LEFT_MARK and move == -1:
                continue
            if a == RIGHT_MARK and move == 1:
                continue
            if len(rest) == 1:
                rules[(key, a)] = (target, rest, move)
            else:
                nxt = ("emit", rest[1:], target, move)
                if nxt not in emit_states:
                    emit_states[nxt] = True
                    frontier.append(nxt)
                rules[(key, a)] = (nxt, rest[:1], 0)
    states = tuple(t.states) + tuple(emit_states)
    return make_twoway(states, t.in_alphabet, t.out_alphabet, t.initial, t.finals, rules)


def mirror(t: TwoWayTransducer) -> TwoWayTransducer:
    """Machine computing ``w -> t(reverse(w))`` with the mirrored run.

    A seek phase walks to the right endmarker (the image of the original left
    endmarker), the simulation runs with moves negated, and a drain phase
    walks back to the right endmarker to accept.
    """
    seek, drain = ("seek",), ("drain",)
    sim = {q: ("sim", q) for q in t.states}
    rules = {}
    rules[(seek, LEFT_MARK)] = (seek, (), 1)
    for a in t.in_alphabet:
        rules[(seek, a)] = (seek, (), 1)
        rules[(drain, a)] = (drain, (), 1)
    rules[(drain, LEFT_MARK)] = (drain, (), 1)
    # arriving at $ in seek mode: fire the original transition on ^
    if (t.initial, LEFT_MARK) in t.rules:
        r, out, move = t.rules[(t.initial, LEFT_MARK)]
        rules[(seek, RIGHT_MARK)] = (sim[r], out, -move)
    for q in t.states:
        for a in t.in_alphabet:
            if (q, a) in t.rules:
                r, out, move = t.rules[(q, a)]
                rules[(sim[q], a)] = (sim[r], out, -move)
        # mirrored right endmarker = original left endmarker
        if (q, LEFT_MARK) in t.rules:
            r, out, move = t.rules[(q, LEFT_MARK)]
            rules[(sim[q], RIGHT_MARK)] = (sim[r], out, -move)
        # mirrored left endmarker = original right endmarker
        if q in t.finals:
            rules[(sim[q], LEFT_MARK)] = (drain, (), 1)
        elif (q, RIGHT_MARK) in t.rules:
            r, out, move = t.rules[(q, RIGHT_MARK)]
            rules[(sim[q], LEFT_MARK)] = (sim[r], out, -move)
    states = (seek, drain) + tuple(sim.values())
    return make_twoway(
        states, t.in_alphabet, t.out_alphabet, seek, {drain}, rules
    )


def trim(t: TwoWayTransducer) -> TwoWayTransducer:
    """Restrict to states syntactically reachable from the initial state."""
    targets = {}
    for (p, _), (r, _, _) in t.rules.items():
        targets.setdefault(p, []).append(r)
    reach = {t.initial}
    frontier = [t.initial]
    while frontier:
        for r in targets.get(frontier.pop(), ()):
            if r not in reach:
                reach.add(r)
                frontier.append(r)
    if len(reach) == len(t.states):
        return t
    states = tuple(q for q in t.states if q in reach)
    rules = {(q, a): row for (q, a), row in t.rules.items() if q in reach}
    return make_twoway(
        states, t.in_alphabet, t.out_alphabet, t.initial, t.finals & reach, rules
    )


def follow_zero_moves(rule, final, q, a):
    """The row of ``q`` on ``a`` with its chain of 0-moves fused in.

    ``rule(state, symbol)`` gives a row ``(next state, output, move)`` or
    None, and ``final(state)`` tells a final state.  A 0-move reads the same
    cell again, so the row follows ``rule`` on ``a`` until one moves the
    head.  The chain stops where a run would: at a missing rule, on ``$`` in
    a final state, and before a second nonempty output, so outputs are never
    joined and a normalized machine stays normalized.  A chain that returns
    to one of its states is a 0-move loop; the first row is kept, and the run
    still loops.  Outputs keep their cells, and runs keep their outputs and
    reasons with no more steps than before.  None where ``rule(q, a)`` is
    None."""
    first = rule(q, a)
    if first is None:
        return None
    r, out, move = first
    seen = {q}
    while move == 0:
        row = rule(r, a)
        if row is None or (a == RIGHT_MARK and final(r)):
            break
        if r in seen:
            return first
        if out and row[1]:
            break
        seen.add(r)
        r, out, move = row[0], out + row[1], row[2]
    return r, out, move


def merge_equivalent(t: TwoWayTransducer) -> TwoWayTransducer:
    """Quotient by the coarsest congruence on states (same finality and,
    blockwise, the same outgoing rows).  Preserves runs exactly."""
    symbols = tuple(t.in_alphabet) + (LEFT_MARK, RIGHT_MARK)
    index = {q: i for i, q in enumerate(t.states)}
    kinds, block, rows = {}, [], []
    for q in t.states:
        got = [t.rules.get((q, a)) for a in symbols]
        kind = (q in t.finals, *[g and g[1:] for g in got])
        block.append(kinds.setdefault(kind, len(kinds)))
        rows.append([index[g[0]] for g in got if g])  # kind already tells where q blocks
    block = refine(block, rows)
    if len(set(block)) == len(block):
        return t
    rep = {}
    for q, b in zip(t.states, block):
        rep.setdefault(b, q)
    rename = {q: rep[b] for q, b in zip(t.states, block)}
    rules = {}
    for (q, a), (r, out, move) in t.rules.items():
        if rename[q] == q:
            rules[(q, a)] = (rename[r], out, move)
    states = tuple(rep.values())
    finals = {rename[f] for f in t.finals}
    return make_twoway(
        states, t.in_alphabet, t.out_alphabet, rename[t.initial], finals, rules
    )
