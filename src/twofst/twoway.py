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
from itertools import accumulate, chain
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .words import (
    Alphabet,
    LEFT_MARK,
    RIGHT_MARK,
    SymbolNotInAlphabet,
    Word,
    as_word,
    explore_rules,
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


@dataclass(frozen=True, eq=False)
class SimResult:
    """The outcome of a run: its output (None where undefined), why it is
    undefined, and ``steps``, the number of steps it took.

    ``run`` is built on first access from the ``StepTable`` rows the run
    took, and cached on the instance as ``TwoWayTransducer.table`` is."""

    output: Optional[Word]
    reason: Optional[str]  # None | "blocked" | "loop" | "rejected"
    _word: Word = field(repr=False)
    _start: object = field(repr=False)  # the initial state
    _taken: list = field(repr=False)  # the rows taken, one per step
    _run: Optional[Run] = field(default=None, init=False, repr=False)

    @property
    def defined(self) -> bool:
        return self.output is not None

    @property
    def steps(self) -> int:
        return len(self._taken)

    @property
    def run(self) -> Run:
        got = self._run
        if got is None:
            configs = tuple(_configs(self._start, self._taken))
            outputs = tuple(map(itemgetter(2), self._taken))
            got = Run(self._word, configs, outputs, self.reason is None)
            object.__setattr__(self, "_run", got)
        return got


def _configs(start, taken):
    """The configurations, one by one, of a run that starts in ``start`` at
    position 0 and takes the table rows ``taken``: the states are the rows'
    next states and the positions the running sums of their moves."""
    states = chain((start,), map(itemgetter(3), taken))
    return zip(states, accumulate(map(itemgetter(1), taken), initial=0))


def tape_symbol(w: Word, pos: int):
    if pos == 0:
        return LEFT_MARK
    if pos == len(w) + 1:
        return RIGHT_MARK
    return w[pos - 1]


def simulate(t: TwoWayTransducer, w) -> SimResult:
    """Run ``t`` on ``w`` by stepping its table.

    Each step keeps a reference to the table row it took and allocates
    nothing; the result's ``run`` is built from those rows on first access.
    A run over ``n`` letters has |Q|·(n+2) configurations, so a
    deterministic run that takes that many steps has repeated one.  The
    walk then stops and ``_cut_loop`` cuts the run back to the first
    repetition: a looping run ends at its first repeated configuration."""
    w = as_word(w)
    table = t.table
    width, rows = table.width, table.rows
    try:
        tape = [width - 2, *map(t.in_alphabet.index.__getitem__, w), width - 1]
    except (KeyError, TypeError):
        t.in_alphabet.word(w)  # raises SymbolNotInAlphabet for the first stray symbol
        raise
    q, pos = table.index[t.initial] * width, 0
    taken = []
    take = taken.append
    for _ in range(len(t.states) * (len(w) + 2)):
        row = rows[q + tape[pos]]
        if row is None:
            break
        q, move, _, _ = row
        pos += move
        take(row)
    else:
        return _cut_loop(w, t.initial, taken)
    last = len(w) + 1
    if pos == last and table.final[q // width]:
        output = tuple(chain.from_iterable(map(itemgetter(2), taken)))
        return SimResult(output, None, w, t.initial, taken)
    return SimResult(None, "rejected" if pos == last else "blocked", w, t.initial, taken)


def _cut_loop(w: Word, start, taken: list) -> SimResult:
    """The looping run cut back to its first repeated configuration.

    ``taken`` holds every step of the walk up to the step bound.  The
    configurations are built one by one up to the first repetition, so a
    looping run costs the whole bound in steps but only its cut length in
    configurations."""
    seen = set()
    for j, c in enumerate(_configs(start, taken)):
        if c in seen:
            break
        seen.add(c)
    return SimResult(None, "loop", w, start, taken[:j])


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
    walks back to the right endmarker to accept.  Only the states the
    mirrored run reaches are made.
    """
    seek, drain = ("seek",), ("drain",)
    flip = {LEFT_MARK: RIGHT_MARK, RIGHT_MARK: LEFT_MARK}

    def rule(s, a):
        if s in (seek, drain) and a != RIGHT_MARK:
            return s, (), 1
        if s == drain:
            return None  # drain is final, so a run stops on $
        if s == seek:  # arriving at $: fire the original transition on ^
            row = t.rules.get((t.initial, LEFT_MARK))
        elif a == LEFT_MARK and s[1] in t.finals:  # mirrored ^ = original $
            return drain, (), 1
        else:
            row = t.rules.get((s[1], flip.get(a, a)))
        return row and (("sim", row[0]), row[1], -row[2])

    states, rules = explore_rules(seek, (*t.in_alphabet, LEFT_MARK, RIGHT_MARK), rule)
    finals = {drain}.intersection(states)  # no drain where no run of t accepts
    return make_twoway(states, t.in_alphabet, t.out_alphabet, seek, finals, rules)


def follow_zero_moves(rule, final, q, a):
    """The row of ``q`` on ``a`` with its chain of 0-moves fused in.

    ``rule(state, symbol)`` gives a row ``(next state, output, move)`` or
    None, and ``final(state)`` tells a final state.  A 0-move reads the same
    cell again, so the row follows ``rule`` on ``a`` until one moves the
    head.  The chain stops where a run would: at a missing rule and on ``$``
    in a final state.  A chain that returns to one of its states is a 0-move
    loop; the first row is kept, and the run still loops.  The outputs along
    the chain are joined into one production, so a fused row may write
    several letters; outputs keep their cells, and runs keep their outputs
    and reasons with no more steps than before.  None where ``rule(q, a)`` is
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
