"""File formats, the bounded equivalence harness, and the command surface.

Artifact files are line oriented with ``#`` comments.  Every file opens with
``type:`` and the alphabet headers; machines list states, the initial state
and finals, then one transition per line.  Transductions and look-around
machines may embed named monoid or DFA blocks so files stay self-contained.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .words import (
    Alphabet,
    Dfa,
    LEFT_MARK,
    RIGHT_MARK,
    SequentialTransducer,
    as_word,
    dfa_table,
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
    FormulaSyntaxError,
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
    kind: str  # 2wt | seq | dfa | fot | formula | sfla | fola | monoid-dump
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


def _header(lines: _Lines, key: str) -> str:
    n, line = lines.next()
    if not line.startswith(key + ":"):
        raise ArtifactSyntaxError(f"expected '{key}:'", n)
    return line[len(key) + 1 :].strip()


def _alphabet(text: str, n: int) -> Alphabet:
    syms = tuple(parse_symbol(tok) for tok in text.split())
    if not syms:
        raise ArtifactSyntaxError("empty alphabet", n)
    return Alphabet(syms)


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


def _parse_transition_lines(lines: _Lines, states, alphabet, marks: bool, with_move: bool):
    rules = {}
    state_set = set(states)
    while lines.peek() is not None:
        n, line = lines.peek()
        parts = line.split()
        if "->" not in parts:
            break
        lines.next()
        try:
            arrow = parts.index("->")
            src = parts[:arrow]
            rest = parts[arrow + 1 :]
            q = src[0]
            sym = parse_symbol(src[1])
            q2 = rest[0]
            if "/" in rest:
                slash = rest.index("/")
                prod_tok = rest[slash + 1]
                tail = rest[slash + 2 :]
            else:
                prod_tok = "-"
                tail = rest[1:]
        except (IndexError, ValueError):
            raise ArtifactSyntaxError(f"bad transition {line!r}", n)
        if q not in state_set or q2 not in state_set:
            raise ArtifactSemanticError(f"unknown state in {line!r} (line {n})")
        _check_symbol(sym, alphabet, n, marks)
        prod = _parse_prod(prod_tok)
        if with_move:
            if len(tail) != 1:
                raise ArtifactSyntaxError(f"missing move in {line!r}", n)
            move = _parse_move(tail[0], n)
            rules[(q, sym)] = (q2, prod, move)
        else:
            if tail:
                raise ArtifactSyntaxError(f"trailing tokens in {line!r}", n)
            rules[(q, sym)] = (q2, prod)
    return rules


def _parse_machine_header(lines: _Lines, with_output: bool):
    n, _ = lines.peek()
    in_alpha = _alphabet(_header(lines, "input"), n)
    out_alpha = _alphabet(_header(lines, "output"), n) if with_output else None
    states = tuple(_header(lines, "states").split())
    initial = _header(lines, "initial")
    finals = set(_header(lines, "final").split())
    if initial not in states:
        raise ArtifactSemanticError(f"unknown initial state {initial!r}")
    if not finals <= set(states):
        raise ArtifactSemanticError("unknown final state")
    return in_alpha, out_alpha, states, initial, finals


def _parse_2wt(lines: _Lines) -> TwoWayTransducer:
    in_a, out_a, states, initial, finals = _parse_machine_header(lines, True)
    rules = _parse_transition_lines(lines, states, in_a, marks=True, with_move=True)
    try:
        return make_twoway(states, in_a, out_a, initial, finals, rules)
    except Exception as e:
        raise ArtifactSemanticError(str(e))


def _parse_seq(lines: _Lines) -> SequentialTransducer:
    in_a, out_a, states, initial, finals = _parse_machine_header(lines, True)
    rules = _parse_transition_lines(lines, states, in_a, marks=False, with_move=False)
    return make_seq(states, in_a, out_a, initial, finals, rules)


def _parse_dfa(lines: _Lines) -> Dfa:
    in_a, _, states, initial, finals = _parse_machine_header(lines, False)
    rules = {}
    while lines.peek() is not None:
        n, line = lines.peek()
        parts = line.split()
        if "->" not in parts or line.startswith("end"):
            break
        lines.next()
        if len(parts) != 4 or parts[2] != "->":
            raise ArtifactSyntaxError(f"bad dfa transition {line!r}", n)
        q, sym, _, q2 = parts
        sym = parse_symbol(sym)
        if q not in states or q2 not in states:
            raise ArtifactSemanticError(f"unknown state in {line!r} (line {n})")
        _check_symbol(sym, in_a, n, marks=False)
        rules[(q, sym)] = q2
    try:
        return Dfa(states, in_a, initial, frozenset(finals), rules)
    except ValueError as e:
        raise ArtifactSemanticError(str(e))


def _parse_monoid_block(lines: _Lines, registry: MonoidRegistry, name: str):
    machine = _parse_2wt(lines)
    n, line = lines.next()
    if line.strip() != "end":
        raise ArtifactSyntaxError("expected 'end' after monoid block", n)
    registry.register(name, transition_monoid(machine))


def _parse_fot(lines: _Lines, registry: MonoidRegistry) -> FoTransduction:
    n0, _ = lines.peek()
    in_a = _alphabet(_header(lines, "input"), n0)
    out_a = _alphabet(_header(lines, "output"), n0)
    copies = None
    dom = None
    pos = {}
    order = {}
    while lines.peek() is not None:
        n, line = lines.next()
        if line.startswith("monoid "):
            name = line.split()[1].rstrip(":")
            _parse_monoid_block(lines, registry, name)
        elif line.startswith("copies:"):
            copies = tuple(line.split(":", 1)[1].split())
        elif line.startswith("dom:"):
            dom = parse_formula(line.split(":", 1)[1])
        elif line.startswith("pos "):
            head, f = line.split(":", 1)
            _, copy, letter = head.split()
            pos[(copy, parse_symbol(letter))] = parse_formula(f)
        elif line.startswith("le "):
            head, f = line.split(":", 1)
            _, c1, c2 = head.split()
            order[(c1, c2)] = parse_formula(f)
        else:
            raise ArtifactSyntaxError(f"unexpected line {line!r}", n)
    if copies is None or dom is None:
        raise ArtifactSyntaxError("fot file needs 'copies:' and 'dom:'")
    for phi in (dom, *pos.values(), *order.values()):
        check_atoms(phi, registry)
    return FoTransduction(in_a, out_a, dom, copies, pos, order)


def _parse_formula_file(lines: _Lines, registry: MonoidRegistry) -> Formula:
    phi = None
    while lines.peek() is not None:
        n, line = lines.next()
        if line.startswith("monoid "):
            name = line.split()[1].rstrip(":")
            _parse_monoid_block(lines, registry, name)
        elif line.startswith("input:"):
            continue
        elif line.startswith("formula:"):
            phi = parse_formula(line.split(":", 1)[1])
        else:
            raise ArtifactSyntaxError(f"unexpected line {line!r}", n)
    if phi is None:
        raise ArtifactSyntaxError("formula file needs 'formula:'")
    check_atoms(phi, registry)
    return phi


def _parse_sfla(lines: _Lines) -> SfLookAroundTransducer:
    in_a, out_a, states, initial, finals = _parse_machine_header(lines, True)
    dfas = {}
    transitions = []
    while lines.peek() is not None:
        n, line = lines.next()
        if line.startswith("dfa "):
            name = line.split()[1].rstrip(":")
            dfas[name] = _parse_dfa(lines)
            n2, end = lines.next()
            if end.strip() != "end":
                raise ArtifactSyntaxError("expected 'end' after dfa block", n2)
        elif line.startswith("trans "):
            parts = line.split()
            try:
                q = parts[1]
                if not (parts[2].startswith("(") and parts[4].endswith(")")):
                    raise ValueError
                lp = parts[2][1:]
                letter = parse_symbol(parts[3])
                ls = parts[4][:-1]
                arrow, q2, slash, prod, move = parts[5:10]
                if arrow != "->" or slash != "/":
                    raise ValueError
            except (IndexError, ValueError):
                raise ArtifactSyntaxError(f"bad sfla transition {line!r}", n)
            if lp not in dfas or ls not in dfas:
                raise ArtifactSemanticError(f"unknown dfa in {line!r} (line {n})")
            transitions.append(
                SfTransition(
                    q,
                    SfTest(dfas[lp], letter, dfas[ls]),
                    q2,
                    _parse_prod(prod),
                    _parse_move(move, n),
                )
            )
        else:
            raise ArtifactSyntaxError(f"unexpected line {line!r}", n)
    return SfLookAroundTransducer(
        states, in_a, out_a, tuple(transitions), initial, frozenset(finals)
    )


def _parse_fola(lines: _Lines, registry: MonoidRegistry) -> FoLookAroundTransducer:
    in_a, out_a, states, initial, finals = _parse_machine_header(lines, True)
    formulas = {}
    transitions = []
    while lines.peek() is not None:
        n, line = lines.next()
        if line.startswith("monoid "):
            name = line.split()[1].rstrip(":")
            _parse_monoid_block(lines, registry, name)
        elif line.startswith("formula "):
            head, f = line.split(":", 1)
            name = head.split()[1]
            formulas[name] = parse_formula(f)
        elif line.startswith("trans "):
            parts = line.split()
            try:
                _, q, guard, arrow, q2, slash, prod, jump = parts
                if arrow != "->" or slash != "/":
                    raise ValueError
            except ValueError:
                raise ArtifactSyntaxError(f"bad fola transition {line!r}", n)
            if guard not in formulas or jump not in formulas:
                raise ArtifactSemanticError(f"unknown formula in {line!r} (line {n})")
            transitions.append(
                FoTransition(q, formulas[guard], q2, _parse_prod(prod), formulas[jump])
            )
        else:
            raise ArtifactSyntaxError(f"unexpected line {line!r}", n)
    for phi in formulas.values():
        check_atoms(phi, registry)
    return FoLookAroundTransducer(
        states, in_a, out_a, tuple(transitions), initial, frozenset(finals)
    )


@dataclass
class MonoidDump:
    header: tuple  # informational lines
    rows: tuple  # element lines, verbatim


def _parse_monoid_dump(lines: _Lines) -> MonoidDump:
    header = []
    rows = []
    while lines.peek() is not None:
        _, line = lines.next()
        if line.startswith("element "):
            rows.append(line)
        else:
            header.append(line)
    return MonoidDump(tuple(header), tuple(rows))


def parse_text(text: str, name: str = "") -> Artifact:
    lines = _Lines(text)
    kind = _header(lines, "type")
    registry = MonoidRegistry()
    if kind == "2wt":
        value = _parse_2wt(lines)
    elif kind == "seq":
        value = _parse_seq(lines)
    elif kind == "dfa":
        value = _parse_dfa(lines)
    elif kind == "fot":
        value = _parse_fot(lines, registry)
    elif kind == "formula":
        value = _parse_formula_file(lines, registry)
    elif kind == "sfla":
        value = _parse_sfla(lines)
    elif kind == "fola":
        value = _parse_fola(lines, registry)
    elif kind == "monoid-dump":
        value = _parse_monoid_dump(lines)
    else:
        raise ArtifactSyntaxError(f"unknown artifact type {kind!r}")
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


def serialize_machine(t: TwoWayTransducer) -> str:
    names = _state_names(t.states)
    out = [
        "type: 2wt",
        f"input: {_alpha_line(t.in_alphabet)}",
        f"output: {_alpha_line(t.out_alphabet)}",
        f"states: {' '.join(names[q] for q in t.states)}",
        f"initial: {names[t.initial]}",
        f"final: {' '.join(names[q] for q in t.states if q in t.finals)}",
    ]
    symbols = tuple(t.in_alphabet) + (LEFT_MARK, RIGHT_MARK)
    for q in t.states:
        for a in symbols:
            if (q, a) in t.step:
                r, move = t.step[(q, a)]
                prod = _show_prod(t.out[(q, a)])
                mv = "+1" if move == 1 else str(move)
                out.append(f"{names[q]} {show_symbol(a)} -> {names[r]} / {prod} {mv}")
    return "\n".join(out) + "\n"


def serialize_seq(t: SequentialTransducer) -> str:
    names = _state_names(t.states)
    out = [
        "type: seq",
        f"input: {_alpha_line(t.in_alphabet)}",
        f"output: {_alpha_line(t.out_alphabet)}",
        f"states: {' '.join(names[q] for q in t.states)}",
        f"initial: {names[t.initial]}",
        f"final: {' '.join(names[q] for q in t.states if q in t.finals)}",
    ]
    for q in t.states:
        for a in t.in_alphabet:
            if (q, a) in t.step:
                out.append(
                    f"{names[q]} {show_symbol(a)} -> {names[t.step[(q, a)]]}"
                    f" / {_show_prod(t.out[(q, a)])}"
                )
    return "\n".join(out) + "\n"


def serialize_dfa(d: Dfa, as_block: bool = False) -> str:
    names = _state_names(d.states)
    out = [] if as_block else ["type: dfa"]
    out += [
        f"input: {_alpha_line(d.alphabet)}",
        f"states: {' '.join(names[q] for q in d.states)}",
        f"initial: {names[d.initial]}",
        f"final: {' '.join(names[q] for q in d.states if q in d.finals)}",
    ]
    for q in d.states:
        for a in d.alphabet:
            out.append(f"{names[q]} {show_symbol(a)} -> {names[d.delta[(q, a)]]}")
    return "\n".join(out) + "\n"


def _monoid_blocks(registry: MonoidRegistry) -> list:
    out = []
    for name in registry.names():
        m = registry.monoid(name)
        block = serialize_machine(m.machine).splitlines()[1:]  # drop 'type:'
        out.append(f"monoid {name}:")
        out.extend(block)
        out.append("end")
    return out


def serialize_fot(T: FoTransduction, registry: Optional[MonoidRegistry] = None) -> str:
    out = [
        "type: fot",
        f"input: {_alpha_line(T.in_alphabet)}",
        f"output: {_alpha_line(T.out_alphabet)}",
    ]
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


def serialize_formula(
    phi: Formula, alphabet: Optional[Alphabet] = None, registry: Optional[MonoidRegistry] = None
) -> str:
    out = ["type: formula"]
    if alphabet is not None:
        out.append(f"input: {_alpha_line(alphabet)}")
    if registry is not None:
        out.extend(_monoid_blocks(registry))
    out.append(f"formula: {show_formula(phi)}")
    return "\n".join(out) + "\n"


def serialize_sfla(t: SfLookAroundTransducer) -> str:
    names = _state_names(t.states)
    out = [
        "type: sfla",
        f"input: {_alpha_line(t.in_alphabet)}",
        f"output: {_alpha_line(t.out_alphabet)}",
        f"states: {' '.join(names[q] for q in t.states)}",
        f"initial: {names[t.initial]}",
        f"final: {' '.join(names[q] for q in t.states if q in t.finals)}",
    ]
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
        out.append(f"dfa {name}:")
        out.extend(serialize_dfa(d, as_block=True).splitlines())
        out.append("end")
    out.extend(body)
    return "\n".join(out) + "\n"


def serialize_fola(t: FoLookAroundTransducer, registry: Optional[MonoidRegistry] = None) -> str:
    names = _state_names(t.states)
    out = [
        "type: fola",
        f"input: {_alpha_line(t.in_alphabet)}",
        f"output: {_alpha_line(t.out_alphabet)}",
        f"states: {' '.join(names[q] for q in t.states)}",
        f"initial: {names[t.initial]}",
        f"final: {' '.join(names[q] for q in t.states if q in t.finals)}",
    ]
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
    if a.kind == "2wt":
        return serialize_machine(a.value)
    if a.kind == "seq":
        return serialize_seq(a.value)
    if a.kind == "dfa":
        return serialize_dfa(a.value)
    if a.kind == "fot":
        return serialize_fot(a.value, a.registry)
    if a.kind == "formula":
        return serialize_formula(a.value, None, a.registry)
    if a.kind == "sfla":
        return serialize_sfla(a.value)
    if a.kind == "fola":
        return serialize_fola(a.value, a.registry)
    if a.kind == "monoid-dump":
        dump: MonoidDump = a.value
        return "\n".join(("type: monoid-dump",) + dump.header + dump.rows) + "\n"
    raise ValueError(f"cannot serialize artifact kind {a.kind!r}")


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
    """The word function an artifact denotes, or None if it is not one."""
    if a.kind == "2wt":
        return a.value.in_alphabet, lambda w: simulate(a.value, w).output
    if a.kind == "seq":
        return a.value.in_alphabet, lambda w: seq_run(a.value, w)
    if a.kind == "fot":
        return a.value.in_alphabet, lambda w: fot_eval(a.value, w, a.registry).output
    if a.kind == "sfla":
        return a.value.in_alphabet, lambda w: simulate_sf_la(a.value, w).output
    if a.kind == "fola":
        return (
            a.value.in_alphabet,
            lambda w: simulate_fo_la(a.value, w, a.registry).output,
        )
    return None


def check_equiv(x: Artifact, y: Artifact, max_len: int, min_len: int = 1) -> EquivalenceReport:
    """Compare two word functions on every word of length min_len..max_len,
    in length-lexicographic order, so a reported counterexample is minimal."""
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
    art = parse(args.file)
    if art.kind != "2wt":
        raise ArtifactSemanticError("behaviors needs a two-way transducer")
    t = art.value
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
    art = parse(args.file)
    if art.kind != "2wt":
        raise ArtifactSemanticError("monoid needs a two-way transducer")
    m = transition_monoid(art.value)
    text = serialize_monoid(m)
    if args.json:
        rows = text.splitlines()
        print(json.dumps({"elements": len(m.elements), "rows": rows[2:]}))
    else:
        sys.stdout.write(text)
    return 0


def cmd_aperiodic(args) -> int:
    art = parse(args.file)
    if art.kind != "2wt":
        raise ArtifactSemanticError("aperiodic needs a two-way transducer")
    m = transition_monoid(art.value)
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
    seq_art = parse(args.seq)
    two_art = parse(args.twoway)
    if seq_art.kind != "seq" or two_art.kind != "2wt":
        raise ArtifactSemanticError("compose needs a seq file and a 2wt file")
    b = normalize(two_art.value)
    if args.right:
        c = translate.compose_right_seq_2w(seq_art.value, b)
    else:
        c = translate.compose_seq_2w(seq_art.value, b)
    _write_out(args, serialize_machine(c))
    return 0


def cmd_to_fot(args) -> int:
    art = parse(args.file)
    if art.kind != "2wt":
        raise ArtifactSemanticError("to-fot needs a two-way transducer")
    registry = MonoidRegistry()
    T = translate.twoway_to_fot(art.value, registry, args.monoid_name)
    _write_out(args, serialize_fot(T, registry))
    return 0


def cmd_from_fot(args) -> int:
    art = parse(args.file)
    if art.kind != "fot":
        raise ArtifactSemanticError("from-fot needs a transduction file")
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
    art = parse(args.file)
    if art.kind != "2wt":
        raise ArtifactSemanticError("normalize needs a two-way transducer")
    _write_out(args, serialize_machine(normalize(art.value)))
    return 0


def cmd_mirror(args) -> int:
    art = parse(args.file)
    if art.kind != "2wt":
        raise ArtifactSemanticError("mirror needs a two-way transducer")
    _write_out(args, serialize_machine(mirror(art.value)))
    return 0


def cmd_check_equiv(args) -> int:
    x = parse(args.file1)
    y = parse(args.file2)
    report = check_equiv(x, y, args.max_len, args.min_len)
    _emit(args, report.json(), report.show())
    return 0 if report.counterexample is None else 1


def cmd_eval_formula(args) -> int:
    art = parse(args.file)
    if art.kind != "formula":
        raise ArtifactSemanticError("eval-formula needs a formula file")
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
    except (ArtifactSyntaxError, ArtifactSemanticError, FormulaSyntaxError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
