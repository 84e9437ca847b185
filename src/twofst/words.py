"""Alphabets, words, deterministic automata and sequential transducers.

Words are tuples of symbols.  A symbol is either a short printable string
(base alphabets) or a pair ``(base, bits)`` with ``bits`` a tuple of 0/1
(product alphabets used for marked words and enriched tapes).  The helper
:func:`as_word` converts a plain string into a word over one-character
symbols, which keeps fixtures readable.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from itertools import product
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

LEFT_MARK = "^"
RIGHT_MARK = "$"
MARKS = (LEFT_MARK, RIGHT_MARK)

Symbol = object
Word = tuple


class AlphabetError(ValueError):
    pass


class SymbolNotInAlphabet(ValueError):
    pass


def as_word(w) -> Word:
    """Coerce ``w`` into a word (tuple of symbols)."""
    if isinstance(w, tuple):
        return w
    if isinstance(w, str):
        return tuple(w)
    if isinstance(w, (list, Iterable)):
        return tuple(w)
    raise TypeError(f"cannot interpret {w!r} as a word")


def show_symbol(s: Symbol) -> str:
    if isinstance(s, tuple) and len(s) == 2 and isinstance(s[1], tuple):
        base, bits = s
        return f"{base}:{''.join(str(b) for b in bits)}"
    return str(s)


def show_word(w: Optional[Word]) -> str:
    if w is None:
        return "undefined"
    parts = [show_symbol(s) for s in w]
    if all(len(p) == 1 for p in parts):
        return "".join(parts)
    return " ".join(parts) if parts else ""


def parse_symbol(text: str) -> Symbol:
    """Inverse of :func:`show_symbol` for serialized artifacts."""
    if ":" in text:
        base, bits = text.rsplit(":", 1)
        if bits and all(c in "01" for c in bits):
            return (base, tuple(int(c) for c in bits))
    return text


@dataclass(frozen=True)
class Alphabet:
    """A finite ordered set of symbols; endmarkers are reserved.

    ``index`` maps each symbol to its position in ``symbols``; it is built
    once, at construction, and must not be modified.
    """

    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise AlphabetError("alphabet must be non-empty")
        index = {s: i for i, s in enumerate(self.symbols)}
        if len(index) != len(self.symbols):
            raise AlphabetError("duplicate symbols in alphabet")
        for m in MARKS:
            if m in index:
                raise AlphabetError(f"endmarker {m!r} cannot be an alphabet symbol")
        object.__setattr__(self, "index", index)

    def __contains__(self, s) -> bool:
        try:
            return s in self.index
        except TypeError:  # unhashable, so not a symbol
            return False

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def word(self, text) -> Word:
        w = as_word(text)
        for s in w:
            if s not in self:
                raise SymbolNotInAlphabet(f"symbol {s!r} not in alphabet")
        return w

    def words_upto(self, max_len: int, min_len: int = 0):
        """All words of length ``min_len..max_len`` in length-lexicographic order."""
        for n in range(min_len, max_len + 1):
            for tup in product(self.symbols, repeat=n):
                yield tup


def alphabet(symbols) -> Alphabet:
    return Alphabet(tuple(symbols))


# marked_alphabet's results, so that the symbol index of each is built once
# and alphabet comparisons between compiled DFAs hit the identity check.
# Entries depend only on their key and are stored with setdefault, so
# concurrent callers at worst build one twice and keep the first.
_MARKED: dict = {}


def marked_alphabet(base: Alphabet, width: int, with_marks: bool = False) -> Alphabet:
    """Product alphabet ``base x {0,1}^width``; bit order is declaration order.

    With ``with_marks`` the endmarker tokens are included as carriers so that
    formulas over marked tapes can place variables on the endmarkers.  The
    marks then appear inside pairs, never as bare symbols, so the reserved
    token invariant still holds.  Equal arguments give the same object.
    """
    key = (base.symbols, width, bool(with_marks))
    got = _MARKED.get(key)
    if got is None:
        bases = tuple(base.symbols) + (MARKS if with_marks else ())
        if width == 0:
            syms = tuple((b, ()) for b in bases)
        else:
            syms = tuple((b, bits) for b in bases for bits in product((0, 1), repeat=width))
        got = _MARKED.setdefault(key, Alphabet(syms))
    return got


# ---------------------------------------------------------------------------
# Deterministic finite automata


class Dfa:
    """Complete DFA, stored as a dense table over symbol classes.

    State ``states[i]`` is numbered ``i``.  Symbols are grouped in classes
    whose members have identical transition columns: ``_cls[j]`` is the
    class of symbol ``alphabet.symbols[j]``, classes are numbered in the
    order of their first symbol, and ``_rows[i][c]`` is the number of the
    target of state ``i`` on class ``c``.  ``_init`` is the number of the
    initial state and ``_fin[i]`` tells whether state ``i`` is final.  The
    constructor and ``dfa_minimize`` give no two classes the same column;
    products may, until they are minimized.

    The constructor takes a ``(state, symbol) -> state`` mapping that must be
    total over ``states x alphabet`` and is not kept.  ``delta`` gives the
    same mapping back, read-only, built on first access.  Instances are
    immutable; the automata built by this module have ``states == (0..n-1)``.
    """

    __slots__ = (
        "states", "alphabet", "initial", "finals",
        "_cls", "_rows", "_init", "_fin", "_minimal", "_delta",
    )

    def __init__(self, states, alphabet, initial, finals, delta):
        if initial not in states:
            raise ValueError("initial state missing from state set")
        if not finals <= set(states):
            raise ValueError("final states must be a subset of states")
        number = {q: i for i, q in enumerate(states)}
        table = []
        for q in states:
            row = []
            for a in alphabet:
                try:
                    t = delta[(q, a)]
                except KeyError:
                    raise ValueError(f"missing transition ({q!r}, {a!r})") from None
                if t not in number:
                    raise ValueError(f"transition ({q!r}, {a!r}) leaves the state set")
                row.append(number[t])
            table.append(row)
        cls, rows = _classify(table)
        _fill(self, states, alphabet, initial, finals, cls, rows, number[initial],
              tuple(q in finals for q in states), False)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (
            f"Dfa(states={len(self.states)}, symbols={len(self.alphabet)}, "
            f"classes={len(self._rows[0])}, finals={len(self.finals)})"
        )

    @property
    def delta(self) -> Mapping:
        got = self._delta
        if got is None:
            states, syms, cls = self.states, self.alphabet.symbols, self._cls
            got = MappingProxyType(
                {
                    (q, a): states[row[c]]
                    for q, row in zip(states, self._rows)
                    for a, c in zip(syms, cls)
                }
            )
            object.__setattr__(self, "_delta", got)
        return got

    def step(self, q, a):
        return self.delta[(q, a)]


def _fill(d, states, alphabet_, initial, finals, cls, rows, init, fin, minimal):
    for name, value in (
        ("states", states), ("alphabet", alphabet_), ("initial", initial),
        ("finals", finals), ("_cls", cls), ("_rows", rows), ("_init", init),
        ("_fin", fin), ("_minimal", minimal), ("_delta", None),
    ):
        object.__setattr__(d, name, value)


def _dense(alphabet_: Alphabet, cls: tuple, rows: tuple, init: int, fin: tuple,
           minimal: bool = False) -> Dfa:
    """A DFA on states ``0..n-1`` straight from its table; no validation."""
    d = object.__new__(Dfa)
    finals = frozenset(i for i, f in enumerate(fin) if f)
    _fill(d, tuple(range(len(rows))), alphabet_, init, finals, cls, rows, init, fin, minimal)
    return d


def _classify(table) -> tuple:
    """Symbol classes and class rows of a state x symbol table of targets."""
    columns = {}
    cls = tuple([columns.setdefault(col, len(columns)) for col in zip(*table)])
    return cls, tuple(zip(*columns))


def dense_dfa(alphabet_: Alphabet, n: int, initial: int, finals, key, step) -> Dfa:
    """DFA on states ``0..n-1`` whose moves depend on a symbol only through
    ``key(symbol)``: state ``q`` goes to ``step(q, k)`` on every symbol with
    key ``k``.  ``step`` is called once per state and distinct key."""
    keys = {}
    cls = tuple([keys.setdefault(key(a), len(keys)) for a in alphabet_.symbols])
    rows = tuple(tuple([step(q, k) for k in keys]) for q in range(n))
    if not 0 <= initial < n or any(not 0 <= t < n for row in rows for t in row):
        raise ValueError(f"a state number is outside 0..{n - 1}")
    return _dense(alphabet_, cls, rows, initial, tuple(q in finals for q in range(n)))


def make_dfa(states, alphabet_, initial, finals, delta) -> Dfa:
    return Dfa(tuple(states), alphabet_, initial, frozenset(finals), delta)


def dfa_accepts(d: Dfa, w) -> bool:
    index, cls, rows = d.alphabet.index, d._cls, d._rows
    q = d._init
    for a in as_word(w):
        try:
            j = index[a]
        except (KeyError, TypeError):
            raise SymbolNotInAlphabet(f"symbol {a!r} not in alphabet") from None
        q = rows[q][cls[j]]
    return d._fin[q]


def dfa_language_upto(d: Dfa, max_len: int):
    return [w for w in d.alphabet.words_upto(max_len) if dfa_accepts(d, w)]


def refine(block: list, rows: list) -> list:
    """Moore rounds: the coarsest refinement of ``block`` (a number per state)
    in which each block's states have, column by column, targets ``rows[q]`` in one block."""
    nblocks = len(set(block))
    while True:
        sigs = {}
        block = [
            sigs.setdefault((b,) + tuple([block[t] for t in row]), len(sigs))
            for b, row in zip(block, rows)
        ]
        if len(sigs) == nblocks:
            return block
        nblocks = len(sigs)


def dfa_minimize(d: Dfa) -> Dfa:
    """Moore partition refinement over the reachable part, then BFS renumber.

    The BFS visits classes in order, which visits states in the same order
    as a BFS over the symbols, so the result is the canonical minimal DFA:
    equal languages over one alphabet give equal tables.  Its classes are
    merged until no two share a column.
    """
    if d._minimal:
        return d
    rows = d._rows
    # reachable states, numbered in BFS order
    number = {d._init: 0}
    order = [d._init]
    for q in order:
        for t in rows[q]:
            if t not in number:
                number[t] = len(order)
                order.append(t)
    local = [tuple([number[t] for t in rows[q]]) for q in order]
    fin = [d._fin[q] for q in order]
    block = refine(fin, local)
    member = {}
    for i, b in enumerate(block):
        member.setdefault(b, i)
    # canonical BFS order over blocks
    rename = {block[0]: 0}
    border = [block[0]]
    for b in border:
        for t in local[member[b]]:
            c = block[t]
            if c not in rename:
                rename[c] = len(border)
                border.append(c)
    new_rows = [tuple([rename[block[t]] for t in local[member[b]]]) for b in border]
    new_fin = tuple(fin[member[b]] for b in border)
    cls = d._cls
    columns = {}
    merge = [columns.setdefault(col, len(columns)) for col in zip(*new_rows)]
    if len(columns) < len(merge):
        cls = tuple([merge[c] for c in cls])
        new_rows = list(zip(*columns))
    return _dense(d.alphabet, cls, tuple(new_rows), 0, new_fin, minimal=True)


def dfa_table(d: Dfa) -> tuple:
    """Table of the canonical minimal DFA of ``d``: alphabet, classes, rows
    and finals.

    Two DFAs accept the same language over the same alphabet exactly when
    their tables are equal.
    """
    m = dfa_minimize(d)
    return (m.alphabet, m._cls, m._rows, m._fin)


def dfa_same_language(d1: Dfa, d2: Dfa) -> bool:
    if d1.alphabet != d2.alphabet:
        return False
    return dfa_table(d1) == dfa_table(d2)


def _product(d1: Dfa, d2: Dfa, keep) -> Dfa:
    """Reachable product over joint classes, minimized."""
    if d1.alphabet is not d2.alphabet and d1.alphabet != d2.alphabet:
        raise AlphabetError("alphabet mismatch")
    joint = {}
    cls = tuple([joint.setdefault(pair, len(joint)) for pair in zip(d1._cls, d2._cls)])
    rows1, rows2 = d1._rows, d2._rows
    init = (d1._init, d2._init)
    number = {init: 0}
    order = [init]
    rows = []
    for p, q in order:
        r1, r2 = rows1[p], rows2[q]
        row = []
        for x, y in joint:
            t = (r1[x], r2[y])
            i = number.get(t)
            if i is None:
                i = number[t] = len(order)
                order.append(t)
            row.append(i)
        rows.append(tuple(row))
    f1, f2 = d1._fin, d2._fin
    fin = tuple(bool(keep(f1[p], f2[q])) for p, q in order)
    return dfa_minimize(_dense(d1.alphabet, cls, tuple(rows), 0, fin))


def dfa_intersect(d1: Dfa, d2: Dfa) -> Dfa:
    return _product(d1, d2, lambda x, y: x and y)


def dfa_union(d1: Dfa, d2: Dfa) -> Dfa:
    return _product(d1, d2, lambda x, y: x or y)


def dfa_complement(d: Dfa) -> Dfa:
    fin = tuple(not f for f in d._fin)
    # complementing keeps a minimal DFA minimal and its numbering canonical
    flipped = _dense(d.alphabet, d._cls, d._rows, d._init, fin, minimal=d._minimal)
    return dfa_minimize(flipped)


def explore_dfa(alphabet_: Alphabet, key, init, step, is_final) -> Dfa:
    """Minimal DFA of the states reachable from ``init``, explored breadth
    first.  States are any hashable values; as in :func:`dense_dfa`, moves
    depend on a symbol only through ``key(symbol)``, and ``step(s, k)`` is
    called once per reached state and distinct key."""
    keys = {}
    cls = tuple([keys.setdefault(key(a), len(keys)) for a in alphabet_.symbols])
    number = {init: 0}
    order = [init]
    rows = []
    for s in order:
        row = []
        for k in keys:
            t = step(s, k)
            i = number.get(t)
            if i is None:
                i = number[t] = len(order)
                order.append(t)
            row.append(i)
        rows.append(tuple(row))
    fin = tuple(bool(is_final(s)) for s in order)
    return dfa_minimize(_dense(alphabet_, cls, tuple(rows), 0, fin))


def explore_rules(initial, symbols, rule) -> tuple:
    """``(states, rules)`` of a machine grown from ``initial``: the states
    reached in breadth-first order, reading ``symbols`` in order, and the
    rows ``(state, symbol) -> rule(state, symbol)`` that are not None.  A
    row's first entry is the next state, and every state is reachable."""
    order = [initial]
    seen = {initial}
    rules = {}
    for q in order:
        for a in symbols:
            row = rule(q, a)
            if row is not None:
                rules[(q, a)] = row
                if row[0] not in seen:
                    seen.add(row[0])
                    order.append(row[0])
    return tuple(order), rules


def determinize_nfa(alphabet_: Alphabet, initials, finals, moves) -> Dfa:
    """Subset construction.  ``moves(state, symbol)`` yields successor states."""
    return explore_dfa(
        alphabet_, lambda a: a, frozenset(initials),
        lambda s, a: frozenset(r for q in s for r in moves(q, a)), lambda s: s & finals,
    )


def dfa_project_bit(d: Dfa, bit: int) -> Dfa:
    """Erase bit ``bit`` from a product-alphabet DFA (existential projection).

    The subset construction runs over groups of target symbols whose lifted
    symbols fall in the same classes of ``d``.
    """
    lifts = {}  # target symbol -> numbers of the symbols that erase to it
    for j, s in enumerate(d.alphabet.symbols):
        if not (isinstance(s, tuple) and len(s) == 2 and isinstance(s[1], tuple)):
            raise AlphabetError("project-bit requires a product alphabet")
        b, bits = s
        if bit >= len(bits):
            raise AlphabetError("bit index out of range")
        lifts.setdefault((b, bits[:bit] + bits[bit + 1 :]), []).append(j)
    src = d._cls
    rows, fin = d._rows, d._fin
    return explore_dfa(
        Alphabet(tuple(lifts)),
        lambda s: tuple(sorted({src[j] for j in lifts[s]})),
        frozenset({d._init}),
        lambda s, cs: frozenset([rows[q][c] for q in s for c in cs]),
        lambda s: any(fin[q] for q in s),
    )


def dfa_inverse_image(d: Dfa, alphabet_: Alphabet, image) -> Dfa:
    """Minimal DFA over ``alphabet_`` that moves on each symbol ``a`` as
    ``d`` moves on the symbol ``image(a)``: it accepts the words whose
    letter-by-letter image ``d`` accepts."""
    index, cls, rows = d.alphabet.index, d._cls, d._rows
    finals = {q for q, f in enumerate(d._fin) if f}
    return dfa_minimize(
        dense_dfa(alphabet_, len(rows), d._init, finals, lambda a: cls[index[image(a)]], lambda q, c: rows[q][c])
    )


def dfa_universal(alphabet_: Alphabet, accept: bool = True) -> Dfa:
    return _dense(alphabet_, (0,) * len(alphabet_), ((0,),), 0, (bool(accept),), minimal=True)


# ---------------------------------------------------------------------------
# Finite monoids and aperiodicity


def monoid_closure(identity, generators: Mapping, mul) -> dict:
    """Closure of ``generators`` (name -> element) under ``mul``.

    Maps each element to a shortest word of generator names; the identity
    comes first, then the elements in BFS order, generators in their order.
    """
    elements = {identity: ()}
    queue = [identity]
    for e in queue:
        word = elements[e]
        for a, g in generators.items():
            f = mul(e, g)
            if f not in elements:
                elements[f] = word + (a,)
                queue.append(f)
    return elements


def power_cycle(f, identity, mul) -> tuple:
    """``(start, period)`` of the powers of ``f``: the least ``start`` with
    ``f^start = f^(start + period)``, where ``f^0`` is the identity."""
    seen = {identity: 0}
    cur = identity
    k = 0
    while True:
        cur = mul(cur, f)
        k += 1
        if cur in seen:
            return seen[cur], k - seen[cur]
        seen[cur] = k


@dataclass(frozen=True)
class AperiodicityReport:
    aperiodic: bool
    index: Optional[int]
    witness: object = None  # an element with a period, or for DFAs its shortest word


def aperiodicity_index(elements, identity, mul) -> AperiodicityReport:
    """Least global n with x^n = x^(n+1), or the first element with a period.

    Convention: x^0 is the identity, so the trivial monoid has index 0.
    """
    best = 0
    for e in elements:
        start, period = power_cycle(e, identity, mul)
        if period != 1:
            return AperiodicityReport(False, None, e)
        best = max(best, start)
    return AperiodicityReport(True, best, None)


def _then(f: tuple, g: tuple) -> tuple:
    """Action of ``f`` followed by ``g``, on state numbers."""
    return tuple(map(g.__getitem__, f))


def dfa_is_counter_free(d: Dfa) -> AperiodicityReport:
    """Decide aperiodicity of the transition monoid of ``d``.

    One generator per symbol class, named by its first symbol: the other
    symbols of a class act identically.  The witness is a shortest word.
    """
    first = {}
    for j, c in enumerate(d._cls):
        first.setdefault(c, d.alphabet.symbols[j])
    actions = {a: tuple(row[c] for row in d._rows) for c, a in first.items()}
    identity = tuple(range(len(d.states)))
    elements = monoid_closure(identity, actions, _then)
    report = aperiodicity_index(elements, identity, _then)
    if not report.aperiodic:
        return AperiodicityReport(False, None, elements[report.witness])
    return report


# ---------------------------------------------------------------------------
# Sequential (one-way deterministic) transducers


@dataclass(frozen=True, eq=False)
class SequentialTransducer:
    """Deterministic one-way transducer with a partial transition map."""

    states: tuple
    in_alphabet: Alphabet
    out_alphabet: Alphabet
    initial: object
    finals: frozenset
    rules: Mapping  # (state, symbol) -> (next state, output word), read-only

    def __post_init__(self):
        rules = {k: (r, as_word(out)) for k, (r, out) in self.rules.items()}
        object.__setattr__(self, "rules", MappingProxyType(rules))
        if self.initial not in self.states:
            raise ValueError("initial state missing from state set")
        states = set(self.states)
        if not self.finals <= states:
            raise ValueError("final states must be a subset of states")
        for (q, a), (r, _) in rules.items():
            if q not in states or r not in states:
                raise ValueError(f"transition ({q!r}, {a!r}) leaves the state set")
            if a not in self.in_alphabet:
                raise ValueError(f"transition ({q!r}, {a!r}) reads a symbol outside the alphabet")
        if not all(b in self.out_alphabet for _, w in rules.values() for b in w):
            raise ValueError("a transition writes a symbol outside the output alphabet")


def make_seq(states, in_alphabet, out_alphabet, initial, finals, rules) -> SequentialTransducer:
    """The machine of ``rules``, (state, symbol) -> (next state, output);
    states and finals may be any iterables, an output a string."""
    return SequentialTransducer(
        tuple(states), in_alphabet, out_alphabet, initial, frozenset(finals), rules
    )


def seq_run(t: SequentialTransducer, w) -> Optional[Word]:
    """Output of the unique run, or None when the run blocks or ends non-final."""
    q = t.initial
    pieces = []
    for a in as_word(w):
        if a not in t.in_alphabet:
            raise SymbolNotInAlphabet(f"symbol {a!r} not in alphabet")
        if (q, a) not in t.rules:
            return None
        q, out = t.rules[(q, a)]
        pieces.append(out)
    if q not in t.finals:
        return None
    return tuple(s for piece in pieces for s in piece)
