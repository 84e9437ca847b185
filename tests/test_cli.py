import json
import os
import random
import subprocess
import sys

import pytest

from twofst import cli
from twofst.cli import (
    Artifact,
    ArtifactSemanticError,
    ArtifactSyntaxError,
    MonoidRegistry,
    check_equiv,
    parse,
    parse_text,
    serialize,
    serialize_fot,
    serialize_machine,
    serialize_seq,
    serialize_sfla,
    serialize_fola,
    serialize_dfa,
)
from twofst.fot import FoTransduction
from twofst.logic import RegistryError, TrueF, parse_formula
from twofst.machines import AB, block_doubler, block_doubler_fot, copier, erase_b_seq
from twofst.monoid import transition_monoid
from twofst.translate import fot_to_fo_lookaround, fo_la_to_sf_la, twoway_to_fot
from twofst.words import alphabet, show_word

from conftest import data_path


def test_parse_running_example_file():
    art = parse(data_path("fig1.2wt"))
    assert art.kind == "2wt"
    t = art.value
    assert len(t.states) == 3
    # eight letter/endmarker rows are live; the ninth ($ in the final-bound
    # state 1) drives the backward turn at the right end
    assert len(t.rules) == 9
    from twofst.twoway import simulate

    assert show_word(simulate(t, "aababb").output) == "aabbab"


def test_parse_fot_file(registry):
    art = parse(data_path("example4.fot"))
    assert art.kind == "fot"
    T = art.value
    assert T.copies == ("1", "2")
    nontrivial = [f for f in T.order.values() if f not in (T.order[("1", "1")],)]
    assert len(T.order) == 4
    from twofst.fot import fot_eval

    assert show_word(fot_eval(T, "aababb", art.registry).output) == "aabbab"


def test_semantic_error_endmarker_move():
    text = """type: 2wt
input: a b
output: a b
states: 1
initial: 1
final: 1
1 ^ -> 1 / - -1
"""
    with pytest.raises(ArtifactSemanticError):
        parse_text(text)


def test_syntax_error_reports_line():
    text = """type: 2wt
input: a b
output: a b
states: 1
initial: 1
final: 1
1 a 1 / - +1
"""
    with pytest.raises(ArtifactSyntaxError) as err:
        parse_text(text)
    assert err.value.line == 7


def test_unknown_state_rejected():
    text = """type: seq
input: a b
output: a b
states: 0
initial: 0
final: 0
0 a -> 9 / a
"""
    with pytest.raises(ArtifactSemanticError):
        parse_text(text)


def artifact_fixtures():
    reg = MonoidRegistry()
    doubler = block_doubler()
    fot = block_doubler_fot()
    la = fot_to_fo_lookaround(fot)
    sf = fo_la_to_sf_la(la, None, bound=2)
    monoid = transition_monoid(doubler)
    yield serialize_machine(doubler)
    yield serialize_seq(erase_b_seq())
    yield serialize_fot(fot, reg)
    yield serialize_sfla(sf)
    yield serialize_fola(la)
    order = MonoidRegistry()  # a formula over an embedded monoid
    T = twoway_to_fot(doubler, order, "M")
    yield serialize(Artifact("formula", T.order[T.copies[0], T.copies[-1]], order))
    from twofst.monoid import class_language_dfa, class_of

    yield serialize_dfa(class_language_dfa(monoid, class_of(monoid, "ab")))
    atoms = MonoidRegistry()  # a transduction of run atoms over an embedded monoid
    yield serialize_fot(twoway_to_fot(doubler, atoms, "M"), atoms)
    marked = alphabet([("a", (0,)), ("a", (1,))])  # written a:0 and a:1, as in "pos 1 a:1:"
    pos = {("1", b): parse_formula(f"(letter {c} x)") for b, c in zip(marked, "ab")}
    le = {("1", "1"): parse_formula("(le x y)")}
    yield serialize_fot(FoTransduction(AB, marked, TrueF(), ("1",), pos, le))
    # a letter atom over a marked input letter, written as the alphabet writes it
    pos = {("1", "a"): parse_formula("(letter a:1 x)")}
    yield serialize_fot(FoTransduction(marked, AB, TrueF(), ("1",), pos, le))


@pytest.fixture(scope="module")
def fixture_texts():
    return list(artifact_fixtures())


@pytest.mark.parametrize("idx", range(10))
def test_serialization_round_trip(fixture_texts, idx):
    text = fixture_texts[idx]
    art = parse_text(text)
    again = serialize(art)
    assert again == text
    assert serialize(parse_text(again)) == again


def test_check_equiv_reports(doubler):
    fig = parse(data_path("fig1.2wt"))
    fot = parse(data_path("example4.fot"))
    report = check_equiv(fig, fot, 4)
    assert report.verdict == "equivalent-up-to-4"
    assert report.words_tested == 30

    cop = Artifact("2wt", copier(), MonoidRegistry())
    report2 = check_equiv(fig, cop, 2)
    assert report2.verdict == "counterexample"
    # length-lexicographic enumeration makes the report minimal: already on
    # "a" the doubler appends the b-block
    assert show_word(report2.counterexample) == "a"
    assert report2.left == ("a", "b") and report2.right == ("a",)
    report2b = check_equiv(fig, cop, 2, min_len=2)
    assert show_word(report2b.counterexample) == "aa"

    report3 = check_equiv(fig, fig, 4)
    assert report3.verdict == "equivalent-up-to-4"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_simulate(capsys):
    code, out, _ = run_cli(capsys, "simulate", data_path("fig1.2wt"), "--input", "aababb")
    assert code == 0 and out.strip() == "aabbab"
    code, out, _ = run_cli(
        capsys, "simulate", data_path("fig1.2wt"), "--input", "aababb", "--trace"
    )
    assert out.splitlines()[0].split() == ["^", "a", "a", "b", "a", "b", "b", "$"]


def test_cli_simulate_undefined_exit(capsys):
    code, out, _ = run_cli(capsys, "simulate", data_path("parity.2wt"), "--input", "a")
    assert code == 1 and "undefined" in out


def test_cli_behaviors(capsys):
    code, out, _ = run_cli(capsys, "behaviors", data_path("fig1.2wt"), "--input", "aab")
    assert code == 0
    assert out.strip() == (
        "bh_ll={(1,2),(2,2)} bh_lr={(3,1)} bh_rl={(1,2)} bh_rr={(2,3),(3,1)}"
    )


def test_cli_aperiodic(capsys):
    code, out, _ = run_cli(capsys, "aperiodic", data_path("fig1.2wt"))
    assert code == 0 and out.strip() == "aperiodic (9 elements, index 2)"
    code, out, _ = run_cli(capsys, "aperiodic", data_path("parity.2wt"))
    assert code == 1 and "not aperiodic" in out and "witness [a]" in out


def test_cli_monoid_dump(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "monoid", data_path("fig1.2wt"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "type: monoid-dump"
    assert lines[1] == "elements: 9"
    assert sum(1 for l in lines if l.startswith("element ")) == 9
    dump = tmp_path / "fig1.monoid"  # a dump is written, not read back
    dump.write_text(out)
    code, _, err = run_cli(capsys, "simulate", str(dump), "--input", "a")
    assert code == 2 and err == "error: unknown artifact type 'monoid-dump'\n"


def test_cli_monoid_json(capsys):
    code, out, _ = run_cli(capsys, "monoid", data_path("fig1.2wt"), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["elements"] == 9
    assert len(payload["rows"]) == 9 and all(r.startswith("element ") for r in payload["rows"])


def test_cli_check_equiv(capsys):
    code, out, _ = run_cli(
        capsys,
        "check-equiv",
        data_path("fig1.2wt"),
        data_path("example4.fot"),
        "--max-len",
        "4",
    )
    assert code == 0 and out.strip().startswith("equivalent-up-to-4")


def test_cli_check_equiv_from_the_empty_word(capsys):
    # the transduction's domain has an ε disjunct, so it maps ε to ε as
    # the machine does
    code, out, _ = run_cli(
        capsys,
        "check-equiv",
        data_path("fig1.2wt"),
        data_path("example4.fot"),
        "--min-len",
        "0",
        "--max-len",
        "5",
    )
    assert code == 0 and out.strip() == "equivalent-up-to-5 (63 words)"


def test_cli_check_equiv_reports_a_counterexample(tmp_path, capsys):
    copier_file = tmp_path / "copier.2wt"
    copier_file.write_text(serialize_machine(copier()))
    args = ["check-equiv", data_path("fig1.2wt"), str(copier_file), "--max-len", "3"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 1 and out == "counterexample 'a': ab vs a\n"
    code, out, _ = run_cli(capsys, *args, "--json")
    assert code == 1 and json.loads(out) == {
        "verdict": "counterexample",
        "max_len": 3,
        "words_tested": 1,
        "counterexample": "a",
        "left": "ab",
        "right": "a",
    }


def test_cli_check_equiv_refuses_different_input_alphabets(tmp_path, capsys):
    ac = tmp_path / "ac.2wt"
    ac.write_text(
        "type: 2wt\ninput: a c\noutput: a c\nstates: q\ninitial: q\nfinal: q\n"
        "q ^ -> q / - +1\nq a -> q / a +1\nq c -> q / c +1\n"
    )
    code, out, err = run_cli(capsys, "check-equiv", data_path("fig1.2wt"), str(ac), "--max-len", "2")
    assert code == 2 and out == "" and err == "error: incompatible input alphabets\n", err


def test_cli_refuses_a_file_of_the_wrong_kind(capsys):
    code, out, err = run_cli(capsys, "to-fot", data_path("example4.fot"))
    assert code == 2 and out == "" and err == "error: to-fot needs a 2wt file, not fot\n", err


@pytest.mark.parametrize(
    "lengths",
    [["--max-len", "2", "--min-len", "5"], ["--max-len", "-3"], ["--max-len", "2", "--min-len", "-1"]],
    ids=["min-above-max", "negative-max", "negative-min"],
)
def test_cli_check_equiv_refuses_an_empty_length_range(capsys, lengths):
    # a verdict on no word says nothing about the two files
    code, out, err = run_cli(
        capsys, "check-equiv", data_path("fig1.2wt"), data_path("example4.fot"), *lengths
    )
    assert code == 2 and out == "", out
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_cli_from_fot_refuses_a_negative_bound(capsys):
    # a negative bound would let the determinism check enumerate no word
    code, out, err = run_cli(capsys, "from-fot", data_path("example4.fot"), "--bound", "-1")
    assert code == 2 and out == "", out
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_cli_json_deterministic(capsys):
    args = [
        "check-equiv",
        data_path("fig1.2wt"),
        data_path("example4.fot"),
        "--max-len",
        "3",
        "--json",
    ]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert list(payload) == ["verdict", "max_len", "words_tested"]


def test_cli_compose_and_normalize(tmp_path, capsys):
    out_file = str(tmp_path / "composite.2wt")
    code, _, _ = run_cli(
        capsys,
        "compose",
        data_path("erase_b.seq"),
        data_path("fig1.2wt"),
        "-o",
        out_file,
    )
    assert code == 0
    art = parse(out_file)
    from twofst.twoway import simulate

    assert show_word(simulate(art.value, "abab").output) == "aabb"
    code, _, _ = run_cli(
        capsys,
        "compose",
        "--right",
        data_path("erase_b.seq"),
        data_path("fig1.2wt"),
        "-o",
        out_file,
    )
    assert code == 0
    right = parse(out_file).value
    assert [show_word(simulate(right, w).output) for w in ("aab", "abab")] == ["aabb", "aabb"]
    code, out, _ = run_cli(capsys, "normalize", data_path("fig1.2wt"))
    assert code == 0 and parse_text(out).kind == "2wt"
    code, out, _ = run_cli(capsys, "mirror", data_path("fig1.2wt"))
    assert code == 0
    mirrored = parse_text(out).value
    assert show_word(simulate(mirrored, "bbabaa").output) == "aabbab"


def test_cli_to_fot_and_back(tmp_path, capsys):
    fot_file = str(tmp_path / "fig1.fot")
    code, _, _ = run_cli(capsys, "to-fot", data_path("fig1.2wt"), "-o", fot_file)
    assert code == 0
    art = parse(fot_file)
    from twofst.fot import fot_eval

    assert show_word(fot_eval(art.value, "aab", art.registry).output) == "aabb"
    assert os.path.getsize(fot_file) < 10_000  # one run atom per decision
    code, out, _ = run_cli(
        capsys,
        "check-equiv",
        data_path("fig1.2wt"),
        fot_file,
        "--max-len",
        "5",
    )
    assert code == 0 and out.startswith("equivalent-up-to-5")
    # the empty word too: the machine maps it to itself, and so does the
    # domain of the generated transduction
    code, out, _ = run_cli(
        capsys, "check-equiv", data_path("fig1.2wt"), fot_file,
        "--max-len", "2", "--min-len", "0", "--json",
    )
    assert code == 0 and json.loads(out)["words_tested"] == 7


A_DOUBLER = """type: 2wt
input: a b
output: a b
states: s
initial: s
final: s
s ^ -> s / - +1
s a -> s / aa +1
s b -> s / b +1
"""


def test_cli_to_fot_multi_letter_production(tmp_path, capsys):
    # normalize names its emission states with tuples; the transduction file
    # names its copies as the machine files name states
    machine = tmp_path / "a_doubler.2wt"
    machine.write_text(A_DOUBLER)
    fot_file = str(tmp_path / "a_doubler.fot")
    code, _, _ = run_cli(capsys, "to-fot", str(machine), "-o", fot_file)
    assert code == 0
    assert parse(fot_file).value.copies == ("q0", "q1")
    code, out, _ = run_cli(
        capsys, "check-equiv", str(machine), fot_file, "--max-len", "4", "--min-len", "0"
    )
    assert code == 0 and out.startswith("equivalent-up-to-4")


@pytest.mark.parametrize(
    "old, new",
    [
        ("dom: (accept M)", "dom: (accept N)"),  # no such monoid
        ("(visit M 0 x)", "(visit M 3 x)"),  # fig1 has the states 0..2
        ("(reach M 0 0 x y)", "(reach M 0 x y)"),  # a state index is missing
        # atoms that evaluation never reaches, behind a disjunct that always
        # holds, are checked when parsed
        ("(reach M 1 1 x y)", "(or (le x x) (pclass M nonsense x))"),
        ("(reach M 1 1 x y)", "(or (le x x) (reach M 7 0 x y))"),
        ("(reach M 1 1 x y)", "(or (le x x) (reach Q 0 0 x y))"),
    ],
    ids=[
        "unknown-monoid",
        "state-out-of-range",
        "wrong-arity",
        "unevaluated-unknown-element",
        "unevaluated-state-out-of-range",
        "unevaluated-unknown-monoid",
    ],
)
def test_cli_malformed_run_atoms(tmp_path, capsys, old, new):
    fot_file = str(tmp_path / "fig1.fot")
    assert run_cli(capsys, "to-fot", data_path("fig1.2wt"), "-o", fot_file)[0] == 0
    with open(fot_file) as f:
        text = f.read()
    assert old in text
    with open(fot_file, "w") as f:
        f.write(text.replace(old, new))
    code, _, err = run_cli(capsys, "check-equiv", data_path("fig1.2wt"), fot_file, "--max-len", "2")
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


SFLA_LEAVING_THE_TAPE = """type: sfla
input: a b
output: a b
states: q r
initial: q
final: r
dfa L0:
input: a b
states: 0
initial: 0
final: 0
0 a -> 0
0 b -> 0
end
trans q (L0 ^ L0) -> r / b -1
trans r (L0 a L0) -> r / a +1
"""


def test_cli_sfla_endmarker_test_leaving_the_tape(tmp_path, capsys):
    f = tmp_path / "leave.sfla"
    f.write_text(SFLA_LEAVING_THE_TAPE)
    code, _, err = run_cli(capsys, "check-equiv", str(f), str(f), "--max-len", "2")
    assert code == 2 and err.startswith("error:") and "Traceback" not in err
    f.write_text(SFLA_LEAVING_THE_TAPE.replace("/ b -1", "/ b 0"))
    assert run_cli(capsys, "check-equiv", str(f), str(f), "--max-len", "2")[0] == 0


@pytest.mark.parametrize(
    "text",
    [
        "type: formula\nformula: (and (letter a x) (pclass M e x))\n",
        "type: fola\ninput: a b\noutput: a b\nstates: q\ninitial: q\nfinal: q\n"
        "formula g: (visit Q 0 x)\nformula j: (true)\ntrans q g -> q / - j\n",
    ],
    ids=["formula", "fola"],
)
def test_parse_checks_atoms_against_monoids(text):
    with pytest.raises(RegistryError):
        parse_text(text)


def test_cli_eval_formula(tmp_path, capsys):
    f = tmp_path / "formula.fml"
    f.write_text("type: formula\nformula: (exists x (letter a x))\n")
    code, out, _ = run_cli(capsys, "eval-formula", str(f), "--input", "bab")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "eval-formula", str(f), "--input", "bbb")
    assert code == 1 and out.strip() == "false"


@pytest.mark.parametrize("marked", [False, True], ids=["plain", "marked"])
def test_cli_eval_formula_checks_the_assignment(tmp_path, capsys, marked):
    # positions of "ab" are 1..2, or 0..3 when marked
    f = tmp_path / "formula.fml"
    f.write_text("type: formula\nformula: (letter b x)\n")
    base = ["eval-formula", str(f), "--input", "ab"] + (["--marked"] if marked else [])
    first, last = (0, 3) if marked else (1, 2)
    for assign in ([], ["--assign", f"x={first - 1}"], ["--assign", f"x={last + 1}"],
                   ["--assign", "x=9"], ["--assign", "y=1"]):
        code, out, err = run_cli(capsys, *base, *assign)
        assert code == 2 and out == "", assign
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err, err
    code, out, _ = run_cli(capsys, *base, "--assign", "x=2")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, *base, "--assign", f"x={first}")
    assert code == 1 and out.strip() == "false"


SFLA = SFLA_LEAVING_THE_TAPE.replace("/ b -1", "/ b 0")
SEQ = "type: seq\ninput: a b\noutput: a b\nstates: 0\ninitial: 0\nfinal: 0\n0 a -> 0 / a\n"
DFA = "type: dfa\ninput: a b\nstates: 0\ninitial: 0\nfinal: 0\n0 a -> 0\n0 b -> 0\n"
with open(data_path("example4.fot")) as _f:
    FOT = _f.read()


@pytest.mark.parametrize(
    "text, line",
    [
        (A_DOUBLER + "s a -> s / a +1\n", 10),
        (SEQ + "0 a -> 0 / -\n", 8),
        (DFA.replace("0 b -> 0\n", "0 a -> 0\n"), 7),
        (FOT + "pos 1 a: (true)\n", 12),
        (FOT.replace("le 1 1:", "le 2 1:"), 11),
    ],
    ids=["2wt", "seq", "dfa", "fot-pos", "fot-le"],
)
def test_repeated_entries_are_rejected(text, line):
    with pytest.raises(ArtifactSemanticError, match=rf"repeated .*\(line {line}\)"):
        parse_text(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("type: seq\n", "unexpected end of file"),
        (A_DOUBLER.replace("output: a b", "output: a"), "outside the output alphabet"),
        (SEQ.replace("output: a b", "output: b"), "outside the output alphabet"),
        (FOT.replace("pos 2 b:", "pos 3 b:"), "no such copy or output letter"),
        (FOT.replace("pos 2 b:", "pos 2 c:"), "no such copy or output letter"),
        (FOT.replace("le 2 1:", "le 2 3:"), "no such copy"),
        (FOT.replace("dom: (and", "dom:  # (and"), "expected '('"),
        (FOT.replace("copies: 1 2", "copies: 1 2\ncopies: 1 2"), "repeated entry"),
        (SFLA.replace("output: a b", "output: a"), "outside the output alphabet"),
        (SFLA.replace("(L0 a L0)", "(L0 c L0)"), "not on the tape"),
        ("type: fola\ninput: a b\noutput: a\nstates: q\ninitial: q\nfinal: q\n"
         "formula g: (true)\nformula j: (true)\ntrans q g -> q / zz j\n", "outside the output alphabet"),
    ],
    ids=["truncated", "2wt-output", "seq-output", "fot-pos-copy", "fot-pos-letter",
         "fot-le-copy", "fot-empty-dom", "fot-copies-twice", "sfla-output", "sfla-test-letter",
         "fola-output"],
)
def test_cli_rejects_malformed_files(tmp_path, capsys, text, message):
    f = tmp_path / "malformed"
    f.write_text(text)
    code, _, err = run_cli(capsys, "check-equiv", str(f), str(f), "--max-len", "2")
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1, err
    assert message in err


def test_cli_monoid_reads_the_input_alphabet(tmp_path, capsys):
    fot_file = tmp_path / "fig1.fot"
    assert run_cli(capsys, "to-fot", data_path("fig1.2wt"), "-o", str(fot_file))[0] == 0
    fot_file.write_text(fot_file.read_text().replace("input: a b", "input: a c", 1))
    code, _, err = run_cli(capsys, "simulate", str(fot_file), "--input", "ac")
    assert code == 2 and "outside the alphabet of monoid 'M'" in err and err.count("\n") == 1


def test_cli_eval_formula_empty(tmp_path, capsys):
    f = tmp_path / "empty.fml"
    f.write_text("type: formula\nformula:\n")
    code, _, err = run_cli(capsys, "eval-formula", str(f), "--input", "a")
    assert code == 2 and err.startswith("error: expected '('") and err.count("\n") == 1


def test_python_m_twofst():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-m", "twofst", "aperiodic", data_path("fig1.2wt")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == "aperiodic (9 elements, index 2)\n"


def test_cli_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.2wt"
    bad.write_text("type: 2wt\ninput: a b\n")
    code, _, err = run_cli(capsys, "simulate", str(bad), "--input", "a")
    assert code == 2 and "error" in err
    missing = str(tmp_path / "missing.2wt")
    code, _, err = run_cli(capsys, "simulate", missing, "--input", "a")
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1 and missing in err, err


def test_cli_from_fot(tmp_path, capsys):
    out_file = str(tmp_path / "from_fot.2wt")
    code, _, _ = run_cli(
        capsys,
        "from-fot",
        data_path("example4.fot"),
        "-o",
        out_file,
        "--bound",
        "2",
    )
    assert code == 0
    art = parse(out_file)
    from twofst.twoway import simulate

    assert show_word(simulate(art.value, "aababb").output) == "aabbab"
    # the look-around stages before it parse back and agree with the file
    for stage, lengths, words in [("fola", [], 30), ("sfla", ["--min-len", "0"], 31)]:
        stage_file = str(tmp_path / f"from_fot.{stage}")
        code, _, _ = run_cli(
            capsys, "from-fot", data_path("example4.fot"), "--stage", stage, "-o", stage_file
        )
        assert code == 0 and parse(stage_file).kind == stage
        code, out, _ = run_cli(
            capsys, "check-equiv", data_path("example4.fot"), stage_file, "--max-len", "4", *lengths
        )
        assert code == 0 and out.strip() == f"equivalent-up-to-4 ({words} words)", out


def mutants(text: str, seed: int, count: int):
    """``count`` seeded mutants of ``text``: a line dropped, duplicated or
    swapped with another, a token deleted or replaced by another token of
    the file, or the file cut short."""
    rng = random.Random(seed)
    lines = text.splitlines()
    tokens = text.split()
    for _ in range(count):
        op = rng.randrange(6)
        if op == 5:
            yield text[: rng.randrange(len(text))]
            continue
        new = list(lines)
        i = rng.randrange(len(new))
        if op == 0:
            del new[i]
        elif op == 1:
            new.insert(i, new[i])
        elif op == 2:
            j = rng.randrange(len(new))
            new[i], new[j] = new[j], new[i]
        else:
            words = new[i].split()
            k = rng.randrange(len(words))
            if op == 3:
                del words[k]
            else:
                words[k] = rng.choice(tokens)
            new[i] = " ".join(words)
        yield "\n".join(new) + "\n"


FUZZ_FILES = ["erase_b.seq", "example4.fot", "fig1.2wt", "identity.seq", "parity.2wt"]


@pytest.mark.parametrize("source", [f"fixture{i}" for i in range(10)] + FUZZ_FILES)
def test_malformed_files_exit_2_without_a_traceback(tmp_path, capsys, fixture_texts, source):
    if source.startswith("fixture"):
        seed, text = int(source[7:]), fixture_texts[int(source[7:])]
    else:
        seed = 8 + FUZZ_FILES.index(source)
        with open(data_path(source)) as f:
            text = f.read()
    f = str(tmp_path / "mutant")
    for mutant in mutants(text, seed, 40):
        with open(f, "w") as fh:
            fh.write(mutant)
        code, _, err = run_cli(capsys, "check-equiv", f, f, "--max-len", "2")
        assert code in (0, 1, 2), mutant
        if code == 2:
            assert err.startswith("error:") and err.count("\n") == 1, (mutant, err)
