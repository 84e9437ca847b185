"""File formats, the bounded equivalence harness, and the command surface.

Artifact files are line oriented with ``#`` comments.  Every file opens with
``type:`` and the alphabet headers; machines list states, the initial state
and finals, then one transition per line.  Transductions and look-around
machines may embed named monoid or DFA blocks so files stay self-contained.
``KINDS`` says, for each artifact kind, how it is read, written and run.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .words import (
    Alphabet,
    AlphabetError,
    Dfa,
    LEFT_MARK,
    RIGHT_MARK,
    SequentialTransducer,
    as_word,
    dfa_table,
    make_dfa,
    make_seq,
    parse_symbol,
    power_cycle,
    seq_run,
    show_symbol,
    show_word,
)
from .twoway import (
    TwoWayTransducer,
    behaviors,
    make_twoway,
    mirror,
    normalize,
    simulate,
    trace_table,
)
from .monoid import (
    TransitionMonoid,
    is_aperiodic,
    transition_monoid,
)
from .logic import (
    EvalSession,
    Formula,
    MonoidRegistry,
    check_atoms,
    parse_formula,
    show_formula,
)
from .fot import FoTransduction, fot_eval
from .lookaround import (
    FoLookAroundTransducer,
    FoTransition,
    SfLookAroundTransducer,
    SfTest,
    SfTransition,
    simulate_fo_la,
    simulate_sf_la,
)
from . import translate


class ArtifactSyntaxError(ValueError):
    def __init__(self, message, line: Optional[int] = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class ArtifactSemanticError(ValueError):
    pass


@dataclass
class Artifact:
    kind: str  # a key of KINDS
    value: object
    registry: MonoidRegistry
    name: str = ""


# ---------------------------------------------------------------------------
# Parsing


class _Lines:
    def __init__(self, text: str):
        self.rows = []
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if line.strip():
                self.rows.append((i, line))
        self.pos = 0

    def peek(self):
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def next(self):
        row = self.peek()
        if row is None:
            raise ArtifactSyntaxError("unexpected end of file")
        self.pos += 1
        return row


def _header(lines: _Lines, key: str, read=str.strip):
    """The text of the ``key:`` line that must come next, as ``read`` takes it."""
    n, line = lines.next()
    if not line.startswith(key + ":"):
        raise ArtifactSyntaxError(f"expected '{key}:'", n)
    try:
        return read(line[len(key) + 1 :])
    except AlphabetError as e:
        raise ArtifactSyntaxError(str(e), n) from None


def _alphabet(text: str) -> Alphabet:
    return Alphabet(tuple(parse_symbol(tok) for tok in text.split()))


def _read_header(lines: _Lines, with_output: bool):
    in_alpha = _header(lines, "input", _alphabet)
    out_alpha = _header(lines, "output", _alphabet) if with_output else None
    states = tuple(_header(lines, "states", str.split))
    initial = _header(lines, "initial")
    finals = set(_header(lines, "final", str.split))
    if initial not in states:
        raise ArtifactSemanticError(f"unknown initial state {initial!r}")
    if not finals <= set(states):
        raise ArtifactSemanticError("unknown final state")
    return in_alpha, out_alpha, states, initial, finals


def _parse_move(tok: str, n: int) -> int:
    if tok in ("+1", "1"):
        return 1
    if tok == "0":
        return 0
    if tok == "-1":
        return -1
    raise ArtifactSyntaxError(f"bad move {tok!r}", n)


def _parse_prod(tok: str):
    if tok == "-":
        return ()
    if "," in tok:
        return tuple(parse_symbol(p) for p in tok.split(","))
    if ":" in tok:
        return (parse_symbol(tok),)
    return tuple(tok)


def _check_symbol(sym, alphabet: Alphabet, n: int, marks: bool):
    if sym in alphabet:
        return
    if marks and sym in (LEFT_MARK, RIGHT_MARK):
        return
    raise ArtifactSemanticError(f"symbol {show_symbol(sym)!r} not in alphabet (line {n})")


def _check_states(line: str, n: int, states: set, *used):
    if not all(q in states for q in used):
        raise ArtifactSemanticError(f"unknown state in {line!r} (line {n})")


def _read_rules(lines: _Lines, states, alphabet: Alphabet, width: int) -> dict:
    """The transition lines ``q a -> r`` that come next, each with ``width``
    more tokens: none in a DFA, ``/ production`` in a sequential transducer
    and ``/ production move`` in a two-way one."""
    rules = {}
    states = set(states)
    while lines.peek() is not None and "->" in lines.peek()[1].split():
        n, line = lines.next()
        parts = line.split()
        if len(parts) != 4 + width or parts[2] != "->" or parts[4:5] not in ([], ["/"]):
            raise ArtifactSyntaxError(f"bad transition {line!r}", n)
        q, sym, _, r = parts[:4]
        _check_states(line, n, states, q, r)
        sym = parse_symbol(sym)
        _check_symbol(sym, alphabet, n, marks=width == 3)
        if (q, sym) in rules:
            raise ArtifactSemanticError(f"repeated transition {line!r} (line {n})")
        if width == 0:
            rules[(q, sym)] = r
        elif width == 2:
            rules[(q, sym)] = (r, _parse_prod(parts[5]))
        else:
            rules[(q, sym)] = (r, _parse_prod(parts[5]), _parse_move(parts[6], n))
    return rules


def _built(build, *args):
    """``build(*args)``, with the value's own checks reported as file errors."""
    try:
        return build(*args)
    except ValueError as e:
        raise ArtifactSemanticError(str(e)) from None


def _read_2wt(lines: _Lines, registry: MonoidRegistry) -> TwoWayTransducer:
    in_a, out_a, states, initial, finals = _read_header(lines, True)
    rules = _read_rules(lines, states, in_a, 3)
    return _built(make_twoway, states, in_a, out_a, initial, finals, rules)


def _read_seq(lines: _Lines, registry: MonoidRegistry) -> SequentialTransducer:
    in_a, out_a, states, initial, finals = _read_header(lines, True)
    rules = _read_rules(lines, states, in_a, 2)
    return _built(make_seq, states, in_a, out_a, initial, finals, rules)


def _read_dfa(lines: _Lines, registry: MonoidRegistry) -> Dfa:
    in_a, _, states, initial, finals = _read_header(lines, False)
    rules = _read_rules(lines, states, in_a, 0)
    return _built(make_dfa, states, in_a, initial, finals, rules)


# what a block of another file holds; ``end`` closes it
_BLOCKS = {"monoid": _read_2wt, "dfa": _read_dfa}


def _read_body(lines: _Lines, registry: MonoidRegistry, forms: dict) -> dict:
    """The lines after a file's headers, by their first word.

    A line's first word, up to a colon, must be a key of ``forms``.  When
    ``forms[word]`` is None, the line is kept whole under its number.
    Otherwise the line is ``word name...: text`` with ``forms[word]`` names,
    kept under the tuple of names, once only.  ``text`` is a list of names
    after ``copies`` and ``input``, a formula after any other word, and
    empty after ``monoid`` and ``dfa``, which open a block; a monoid block is
    registered in ``registry``.  Every formula is checked against the
    file's monoids once the whole file is read."""
    body = {word: {} for word in forms}
    while lines.peek() is not None:
        n, line = lines.next()
        word = line.split()[0].partition(":")[0]
        if word not in forms:
            raise ArtifactSyntaxError(f"unexpected line {line!r}", n)
        if forms[word] is None:
            body[word][n] = line
            continue
        # the names end at the colon after the last one; a marked letter a:01 keeps its own
        head = re.fullmatch(rf"\s*{word}((?:\s+[^\s:]+(?::[01]+)?){{{forms[word]}}})\s*:(.*)", line)
        if head is None or (word in _BLOCKS and head[2].strip()):
            raise ArtifactSyntaxError(f"bad line {line!r}", n)
        names, text = tuple(head[1].split()), head[2]
        if names in body[word]:
            raise ArtifactSemanticError(f"repeated entry {line!r} (line {n})")
        if word in _BLOCKS:
            value = _BLOCKS[word](lines, registry)
            n, end = lines.next()
            if end.strip() != "end":
                raise ArtifactSyntaxError(f"expected 'end' after {word} block", n)
            if word == "monoid":
                registry.register(names[0], transition_monoid(value))
        elif word in ("copies", "input"):
            value = tuple(text.split())
        else:
            value = parse_formula(text)
        body[word][names] = value
    for entries in body.values():
        for value in entries.values():
            if isinstance(value, Formula):
                check_atoms(value, registry)
    return body


def _read_fot(lines: _Lines, registry: MonoidRegistry) -> FoTransduction:
    in_a = _header(lines, "input", _alphabet)
    out_a = _header(lines, "output", _alphabet)
    body = _read_body(lines, registry, {"monoid": 1, "copies": 0, "dom": 0, "pos": 2, "le": 2})
    if () not in body["copies"] or () not in body["dom"]:
        raise ArtifactSyntaxError("fot file needs 'copies:' and 'dom:'")
    pos = {(c, parse_symbol(b)): f for (c, b), f in body["pos"].items()}
    return _built(
        FoTransduction, in_a, out_a, body["dom"][()], body["copies"][()], pos, body["le"]
    )


def _read_formula(lines: _Lines, registry: MonoidRegistry) -> Formula:
    body = _read_body(lines, registry, {"monoid": 1, "input": 0, "formula": 0})
    if () not in body["formula"]:
        raise ArtifactSyntaxError("formula file needs 'formula:'")
    return body["formula"][()]


def _read_sfla(lines: _Lines, registry: MonoidRegistry) -> SfLookAroundTransducer:
    in_a, out_a, states, initial, finals = _read_header(lines, True)
    body = _read_body(lines, registry, {"dfa": 1, "trans": None})
    dfas = {name: d for (name,), d in body["dfa"].items()}
    known = set(states)
    transitions = []
    for n, line in body["trans"].items():
        try:
            _, q, lp, letter, ls, arrow, q2, slash, prod, move = line.split()
            if arrow != "->" or slash != "/" or lp[:1] != "(" or ls[-1:] != ")":
                raise ValueError
        except ValueError:
            raise ArtifactSyntaxError(f"bad sfla transition {line!r}", n) from None
        _check_states(line, n, known, q, q2)
        if lp[1:] not in dfas or ls[:-1] not in dfas:
            raise ArtifactSemanticError(f"unknown dfa in {line!r} (line {n})")
        test = SfTest(dfas[lp[1:]], parse_symbol(letter), dfas[ls[:-1]])
        transitions.append(SfTransition(q, test, q2, _parse_prod(prod), _parse_move(move, n)))
    return _built(
        SfLookAroundTransducer, states, in_a, out_a, tuple(transitions), initial, frozenset(finals)
    )


def _read_fola(lines: _Lines, registry: MonoidRegistry) -> FoLookAroundTransducer:
    in_a, out_a, states, initial, finals = _read_header(lines, True)
    body = _read_body(lines, registry, {"monoid": 1, "formula": 1, "trans": None})
    formulas = {name: f for (name,), f in body["formula"].items()}
    known = set(states)
    transitions = []
    for n, line in body["trans"].items():
        try:
            _, q, guard, arrow, q2, slash, prod, jump = line.split()
            if arrow != "->" or slash != "/":
                raise ValueError
        except ValueError:
            raise ArtifactSyntaxError(f"bad fola transition {line!r}", n) from None
        _check_states(line, n, known, q, q2)
        if guard not in formulas or jump not in formulas:
            raise ArtifactSemanticError(f"unknown formula in {line!r} (line {n})")
        transitions.append(
            FoTransition(q, formulas[guard], q2, _parse_prod(prod), formulas[jump])
        )
    return _built(
        FoLookAroundTransducer, states, in_a, out_a, tuple(transitions), initial, frozenset(finals)
    )


def parse_text(text: str, name: str = "") -> Artifact:
    lines = _Lines(text)
    kind = _header(lines, "type")
    registry = MonoidRegistry()
    value = _kind(kind).read(lines, registry)
    if lines.peek() is not None:
        n, line = lines.peek()
        raise ArtifactSyntaxError(f"unexpected trailing line {line!r}", n)
    return Artifact(kind, value, registry, name)


def parse(path: str) -> Artifact:
    with open(path) as fh:
        return parse_text(fh.read(), name=path)


# ---------------------------------------------------------------------------
# Serialization


def _state_names(states) -> dict:
    def printable(q):
        return (isinstance(q, str) and q and " " not in q) or isinstance(q, int)

    if all(printable(q) for q in states) and len({str(q) for q in states}) == len(states):
        return {q: str(q) for q in states}
    return {q: f"q{i}" for i, q in enumerate(states)}


def _show_prod(prod) -> str:
    if not prod:
        return "-"
    if all(isinstance(s, str) and len(s) == 1 for s in prod):
        return "".join(prod)
    return ",".join(show_symbol(s) for s in prod)


def _alpha_line(alpha: Alphabet) -> str:
    return " ".join(show_symbol(s) for s in alpha)


def _head(kind: str, t, names: Optional[dict] = None) -> list:
    """The ``type:`` line and the alphabets of ``t`` and, given the names of
    its states, its ``states``, ``initial`` and ``final`` lines."""
    alphabets = (t.alphabet,) if kind == "dfa" else (t.in_alphabet, t.out_alphabet)
    out = [f"type: {kind}"]
    out += [f"{key}: {_alpha_line(a)}" for key, a in zip(("input", "output"), alphabets)]
    if names is not None:
        out += [
            f"states: {' '.join(names[q] for q in t.states)}",
            f"initial: {names[t.initial]}",
            f"final: {' '.join(names[q] for q in t.states if q in t.finals)}",
        ]
    return out


def _block(word: str, name: str, text: str) -> list:
    """The file ``text`` as a block of another file: ``word name:`` in place
    of its ``type:`` line, then ``end``."""
    return [f"{word} {name}:", *text.splitlines()[1:], "end"]


def serialize_machine(t: TwoWayTransducer) -> str:
    names = _state_names(t.states)
    out = _head("2wt", t, names)
    symbols = tuple(t.in_alphabet) + (LEFT_MARK, RIGHT_MARK)
    for q in t.states:
        for a in symbols:
            if (q, a) in t.rules:
                r, prod, move = t.rules[(q, a)]
                mv = "+1" if move == 1 else str(move)
                out.append(f"{names[q]} {show_symbol(a)} -> {names[r]} / {_show_prod(prod)} {mv}")
    return "\n".join(out) + "\n"


def serialize_seq(t: SequentialTransducer) -> str:
    names = _state_names(t.states)
    out = _head("seq", t, names)
    for q in t.states:
        for a in t.in_alphabet:
            if (q, a) in t.rules:
                r, prod = t.rules[(q, a)]
                out.append(f"{names[q]} {show_symbol(a)} -> {names[r]} / {_show_prod(prod)}")
    return "\n".join(out) + "\n"


def serialize_dfa(d: Dfa) -> str:
    names = _state_names(d.states)
    out = _head("dfa", d, names)
    for q in d.states:
        for a in d.alphabet:
            out.append(f"{names[q]} {show_symbol(a)} -> {names[d.delta[(q, a)]]}")
    return "\n".join(out) + "\n"


def _monoid_blocks(registry: MonoidRegistry) -> list:
    out = []
    for name in registry.names():
        out += _block("monoid", name, serialize_machine(registry.monoid(name).machine))
    return out


def serialize_fot(T: FoTransduction, registry: Optional[MonoidRegistry] = None) -> str:
    out = _head("fot", T)
    if registry is not None:
        out.extend(_monoid_blocks(registry))
    names = _state_names(T.copies)
    out.append(f"copies: {' '.join(names[c] for c in T.copies)}")
    out.append(f"dom: {show_formula(T.dom)}")
    for (c, b), f in T.pos.items():
        out.append(f"pos {names[c]} {show_symbol(b)}: {show_formula(f)}")
    for (c, c2), f in T.order.items():
        out.append(f"le {names[c]} {names[c2]}: {show_formula(f)}")
    return "\n".join(out) + "\n"


def serialize_formula(phi: Formula, registry: Optional[MonoidRegistry] = None) -> str:
    out = ["type: formula"]
    if registry is not None:
        out.extend(_monoid_blocks(registry))
    out.append(f"formula: {show_formula(phi)}")
    return "\n".join(out) + "\n"


def serialize_sfla(t: SfLookAroundTransducer) -> str:
    names = _state_names(t.states)
    out = _head("sfla", t, names)
    dfa_names = {}

    def dfa_name(d: Dfa) -> str:
        key = dfa_table(d)
        if key not in dfa_names:
            dfa_names[key] = (f"L{len(dfa_names)}", d)
        return dfa_names[key][0]

    body = []
    for tr in t.transitions:
        lp, ls = dfa_name(tr.test.prefix), dfa_name(tr.test.suffix)
        mv = "+1" if tr.move == 1 else str(tr.move)
        body.append(
            f"trans {names[tr.src]} ({lp} {show_symbol(tr.test.letter)} {ls})"
            f" -> {names[tr.dst]} / {_show_prod(tr.out)} {mv}"
        )
    for name, d in dfa_names.values():
        out += _block("dfa", name, serialize_dfa(d))
    out.extend(body)
    return "\n".join(out) + "\n"


def serialize_fola(t: FoLookAroundTransducer, registry: Optional[MonoidRegistry] = None) -> str:
    names = _state_names(t.states)
    out = _head("fola", t, names)
    if registry is not None:
        out.extend(_monoid_blocks(registry))
    formula_names = {}

    def formula_name(f: Formula) -> str:
        if f not in formula_names:
            formula_names[f] = f"F{len(formula_names)}"
        return formula_names[f]

    body = []
    for tr in t.transitions:
        g, j = formula_name(tr.guard), formula_name(tr.jump)
        body.append(
            f"trans {names[tr.src]} {g} -> {names[tr.dst]} / {_show_prod(tr.out)} {j}"
        )
    for f, name in formula_names.items():
        out.append(f"formula {name}: {show_formula(f)}")
    out.extend(body)
    return "\n".join(out) + "\n"


def serialize_monoid(m: TransitionMonoid) -> str:
    """A listing of the elements; ``twofst monoid`` writes it, no command reads it."""
    names = _state_names(m.machine.states)
    out = ["type: monoid-dump", f"elements: {len(m.elements)}"]

    def fmt(pairs):
        return "{" + ",".join(f"({names[p]},{names[q]})" for p, q in pairs) + "}"

    for e in m.elements:
        rep = m.element_id(e)
        stab, _ = power_cycle(e, m.identity, m.product)
        out.append(
            f"element {rep} : ll={fmt(e.ll)} lr={fmt(e.lr)} rl={fmt(e.rl)}"
            f" rr={fmt(e.rr)} stab={stab}"
        )
    return "\n".join(out) + "\n"


def serialize(a: Artifact) -> str:
    return _kind(a.kind).write(a)


# ---------------------------------------------------------------------------
# Artifact kinds


class Kind(NamedTuple):
    """How the files of one artifact kind are read and written, and how the
    word function the kind denotes is run, if it denotes one."""

    read: Callable  # (lines, registry) -> value
    write: Callable  # artifact -> text
    run: Optional[Callable]  # (artifact, word) -> output word, or None where undefined


KINDS = {
    "2wt": Kind(
        _read_2wt,
        lambda a: serialize_machine(a.value),
        lambda a, w: simulate(a.value, w).output,
    ),
    "seq": Kind(_read_seq, lambda a: serialize_seq(a.value), lambda a, w: seq_run(a.value, w)),
    "dfa": Kind(_read_dfa, lambda a: serialize_dfa(a.value), None),
    "fot": Kind(
        _read_fot,
        lambda a: serialize_fot(a.value, a.registry),
        lambda a, w: fot_eval(a.value, w, a.registry).output,
    ),
    "formula": Kind(_read_formula, lambda a: serialize_formula(a.value, a.registry), None),
    "sfla": Kind(
        _read_sfla,
        lambda a: serialize_sfla(a.value),
        lambda a, w: simulate_sf_la(a.value, w).output,
    ),
    "fola": Kind(
        _read_fola,
        lambda a: serialize_fola(a.value, a.registry),
        lambda a, w: simulate_fo_la(a.value, w, a.registry).output,
    ),
}


def _kind(name: str) -> Kind:
    if name not in KINDS:
        raise ArtifactSyntaxError(f"unknown artifact type {name!r}")
    return KINDS[name]


# ---------------------------------------------------------------------------
# Equivalence harness


@dataclass
class EquivalenceReport:
    verdict: str  # "equivalent-up-to-N" | "counterexample"
    max_len: int
    words_tested: int
    counterexample: Optional[tuple] = None
    left: Optional[tuple] = None
    right: Optional[tuple] = None

    def show(self) -> str:
        if self.verdict == "counterexample":
            return (
                f"counterexample {show_word(self.counterexample)!r}:"
                f" {show_word(self.left)} vs {show_word(self.right)}"
            )
        return f"equivalent-up-to-{self.max_len} ({self.words_tested} words)"

    def json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "max_len": self.max_len,
            "words_tested": self.words_tested,
        }
        if self.counterexample is not None:
            out["counterexample"] = show_word(self.counterexample)
            out["left"] = show_word(self.left) if self.left is not None else None
            out["right"] = show_word(self.right) if self.right is not None else None
        return out


def artifact_function(a: Artifact):
    """The input alphabet and word function of an artifact, or None if it
    does not denote one."""
    run = _kind(a.kind).run
    if run is None:
        return None
    return a.value.in_alphabet, lambda w: run(a, w)


def check_equiv(x: Artifact, y: Artifact, max_len: int, min_len: int = 1) -> EquivalenceReport:
    """Compare two word functions on every word of length min_len..max_len,
    in length-lexicographic order, so a reported counterexample is minimal.
    An empty length range would give a verdict on no word, so it is refused."""
    if min_len < 0 or max_len < min_len:
        raise ValueError(
            f"lengths need 0 <= min_len <= max_len, got min_len={min_len}, max_len={max_len}"
        )
    fx = artifact_function(x)
    fy = artifact_function(y)
    if fx is None or fy is None:
        raise ArtifactSemanticError("artifact does not denote a word function")
    ax, runx = fx
    ay, runy = fy
    if tuple(ax.symbols) != tuple(ay.symbols):
        raise ArtifactSemanticError("incompatible input alphabets")
    tested = 0
    for w in ax.words_upto(max_len, min_len):
        tested += 1
        ox, oy = runx(w), runy(w)
        if ox != oy:
            # re-verify before reporting
            if runx(w) != runy(w):
                return EquivalenceReport("counterexample", max_len, tested, w, ox, oy)
    return EquivalenceReport(f"equivalent-up-to-{max_len}", max_len, tested)


# ---------------------------------------------------------------------------
# Commands


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        print(human)


def _write_out(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str, kind: str, command: str) -> Artifact:
    """The artifact in ``path``, which must be of ``kind`` for ``command``."""
    art = parse(path)
    if art.kind != kind:
        raise ArtifactSemanticError(f"{command} needs a {kind} file, not {art.kind}")
    return art


def cmd_simulate(args) -> int:
    art = parse(args.file)
    fn = artifact_function(art)
    if fn is None:
        raise ArtifactSemanticError("artifact does not denote a word function")
    alpha, run = fn
    w = alpha.word(as_word(args.input))
    if art.kind == "2wt":
        res = simulate(art.value, w)
        out, reason = res.output, res.reason
        if args.trace:
            print(trace_table(res))
    else:
        out, reason = run(w), None
    if out is None:
        _emit(args, {"defined": False, "reason": reason}, f"undefined ({reason})")
        return 1
    _emit(args, {"defined": True, "output": show_word(out)}, show_word(out))
    return 0


def cmd_behaviors(args) -> int:
    t = _load(args.file, "2wt", "behaviors").value
    p = behaviors(t, t.in_alphabet.word(as_word(args.input)))

    def fmt(pairs):
        return "{" + ",".join(f"({a},{b})" for a, b in pairs) + "}"

    human = (
        f"bh_ll={fmt(p.ll)} bh_lr={fmt(p.lr)} bh_rl={fmt(p.rl)} bh_rr={fmt(p.rr)}"
    )
    payload = {
        "ll": [list(x) for x in p.ll],
        "lr": [list(x) for x in p.lr],
        "rl": [list(x) for x in p.rl],
        "rr": [list(x) for x in p.rr],
    }
    _emit(args, payload, human)
    return 0


def cmd_monoid(args) -> int:
    m = transition_monoid(_load(args.file, "2wt", "monoid").value)
    text = serialize_monoid(m)
    if args.json:
        rows = text.splitlines()
        print(json.dumps({"elements": len(m.elements), "rows": rows[2:]}))
    else:
        sys.stdout.write(text)
    return 0


def cmd_aperiodic(args) -> int:
    m = transition_monoid(_load(args.file, "2wt", "aperiodic").value)
    rep = is_aperiodic(m)
    if rep.aperiodic:
        _emit(
            args,
            {"aperiodic": True, "elements": len(m.elements), "index": rep.index},
            f"aperiodic ({len(m.elements)} elements, index {rep.index})",
        )
        return 0
    witness = m.element_id(rep.witness)
    _emit(
        args,
        {"aperiodic": False, "elements": len(m.elements), "witness": witness},
        f"not aperiodic ({len(m.elements)} elements, witness [{witness}])",
    )
    return 1


def cmd_compose(args) -> int:
    seq = _load(args.seq, "seq", "compose").value
    b = normalize(_load(args.twoway, "2wt", "compose").value)
    if args.right:
        c = translate.compose_right_seq_2w(seq, b)
    else:
        c = translate.compose_seq_2w(seq, b)
    _write_out(args, serialize_machine(c))
    return 0


def cmd_to_fot(args) -> int:
    art = _load(args.file, "2wt", "to-fot")
    registry = MonoidRegistry()
    T = translate.twoway_to_fot(art.value, registry, args.monoid_name)
    _write_out(args, serialize_fot(T, registry))
    return 0


def cmd_from_fot(args) -> int:
    art = _load(args.file, "fot", "from-fot")
    la = translate.fot_to_fo_lookaround(art.value)
    if args.stage == "fola":
        _write_out(args, serialize_fola(la, art.registry))
        return 0
    sf = translate.fo_la_to_sf_la(la, art.registry, bound=args.bound)
    if args.stage == "sfla":
        _write_out(args, serialize_sfla(sf))
        return 0
    _write_out(args, serialize_machine(translate.sf_la_to_plain(sf)))
    return 0


def cmd_normalize(args) -> int:
    _write_out(args, serialize_machine(normalize(_load(args.file, "2wt", "normalize").value)))
    return 0


def cmd_mirror(args) -> int:
    _write_out(args, serialize_machine(mirror(_load(args.file, "2wt", "mirror").value)))
    return 0


def cmd_check_equiv(args) -> int:
    x = parse(args.file1)
    y = parse(args.file2)
    report = check_equiv(x, y, args.max_len, args.min_len)
    _emit(args, report.json(), report.show())
    return 0 if report.counterexample is None else 1


def cmd_eval_formula(args) -> int:
    art = _load(args.file, "formula", "eval-formula")
    assignment = {}
    if args.assign:
        for part in args.assign.split(","):
            k, v = part.split("=")
            assignment[k.strip()] = int(v)
    session = EvalSession(as_word(args.input), art.registry, marked=args.marked)
    value = session.eval(art.value, assignment)
    _emit(args, {"value": value}, "true" if value else "false")
    return 0 if value else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twofst",
        description="two-way transducers, transition monoids and FO transductions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, *specs, output=False):
        sp = sub.add_parser(name)
        for spec in specs:
            sp.add_argument(*spec[0], **spec[1])
        if output:
            sp.add_argument("-o", "--output", default=None)
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(fn=fn)
        return sp

    add(
        "simulate",
        cmd_simulate,
        (["file"], {}),
        (["--input"], {"required": True}),
        (["--trace"], {"action": "store_true"}),
    )
    add("behaviors", cmd_behaviors, (["file"], {}), (["--input"], {"required": True}))
    add("monoid", cmd_monoid, (["file"], {}))
    add("aperiodic", cmd_aperiodic, (["file"], {}))
    add(
        "compose",
        cmd_compose,
        (["seq"], {}),
        (["twoway"], {}),
        (["--right"], {"action": "store_true"}),
        output=True,
    )
    add(
        "to-fot",
        cmd_to_fot,
        (["file"], {}),
        (["--monoid-name"], {"default": "M"}),
        output=True,
    )
    add(
        "from-fot",
        cmd_from_fot,
        (["file"], {}),
        (["--bound"], {"type": int, "default": 4}),
        (["--stage"], {"choices": ["fola", "sfla", "plain"], "default": "plain"}),
        output=True,
    )
    add("normalize", cmd_normalize, (["file"], {}), output=True)
    add("mirror", cmd_mirror, (["file"], {}), output=True)
    add(
        "check-equiv",
        cmd_check_equiv,
        (["file1"], {}),
        (["file2"], {}),
        (["--max-len"], {"type": int, "required": True}),
        (["--min-len"], {"type": int, "default": 1}),
    )
    add(
        "eval-formula",
        cmd_eval_formula,
        (["file"], {}),
        (["--input"], {"required": True}),
        (["--assign"], {"default": ""}),
        (["--marked"], {"action": "store_true"}),
    )
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
