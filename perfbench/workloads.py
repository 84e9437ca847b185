"""The workloads: each pass translates, verifies and runs.

The correctness references (identity, block doubling) are written
here, independently of the package under test.  The program only receives
the inputs below and the words generated from the seed.
"""
from __future__ import annotations

import contextlib
import importlib
import random
import sys
import types
from pathlib import Path
from time import perf_counter

INPUTS = Path(__file__).resolve().parent / "inputs"

# verdict word lengths: check_equiv compares every word of length 1..N
ROUNDTRIP_MAX_LEN = 6
FROM_FOT_MAX_LEN = 7
# fo_la_to_sf_la checks determinism of the jump machine on words up to this length
DETERMINISM_BOUND = 3


def identity(w) -> tuple:
    return tuple(w)


def block_double(w) -> tuple:
    """a^k0 b a^k1 b ... b a^kn  ->  a^k0 b^k0 a^k1 b^k1 ... a^kn b^kn."""
    out = []
    for block in "".join(w).split("b"):
        out += ["a"] * len(block) + ["b"] * len(block)
    return tuple(out)


def uniform_words(rng: random.Random, count: int, length: int) -> list:
    return [tuple(rng.choice("ab") for _ in range(length)) for _ in range(count)]


def block_words(rng: random.Random, count: int, length: int) -> list:
    """Words of a-blocks of 0..9 letters, each followed by one b, cut to length."""
    words = []
    for _ in range(count):
        letters = []
        while len(letters) < length:
            letters += ["a"] * rng.randint(0, 9) + ["b"]
        words.append(tuple(letters[:length]))
    return words


def load_library() -> types.SimpleNamespace:
    """Import ``twofst`` afresh and return the functions the benchmark calls.

    Every call goes through this namespace, so the tracer can wrap the
    benchmark's own calls into the program like those of any other caller."""
    for name in [n for n in sys.modules if n == "twofst" or n.startswith("twofst.")]:
        del sys.modules[name]
    cli = importlib.import_module("twofst.cli")
    logic = importlib.import_module("twofst.logic")
    monoid = importlib.import_module("twofst.monoid")
    translate = importlib.import_module("twofst.translate")
    twoway = importlib.import_module("twofst.twoway")
    return types.SimpleNamespace(
        Artifact=cli.Artifact,
        MonoidRegistry=logic.MonoidRegistry,
        parse_text=cli.parse_text,
        serialize=cli.serialize,
        check_equiv=cli.check_equiv,
        twoway_to_fot=translate.twoway_to_fot,
        fot_to_fo_lookaround=translate.fot_to_fo_lookaround,
        fo_la_to_sf_la=translate.fo_la_to_sf_la,
        sf_la_to_plain=translate.sf_la_to_plain,
        transition_monoid=monoid.transition_monoid,
        is_aperiodic=monoid.is_aperiodic,
        simulate=twoway.simulate,
    )


def read_input(lib, name: str):
    return lib.parse_text((INPUTS / name).read_text(), name=name)


class Pass:
    """Phase times, operation counts and run-phase totals of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.phase_s: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.artifact_bytes = 0
        self.letters = 0
        self.steps = 0
        self.simulate_s = 0.0

    @contextlib.contextmanager
    def phase(self, name: str):
        if self.tracer is not None:
            self.tracer.phase = name
        start = perf_counter()
        yield
        self.phase_s[name] = perf_counter() - start

    def expect(self, ok: bool, what: str):
        """One operation whose outcome must be right."""
        self.attempted += 1
        if not ok:
            self.problems.append(what)

    def known_fault(self, ok: bool):
        """One operation that a known fault of the program makes fail."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def expect_verdict(self, report, max_len: int, what: str):
        self.expect(
            report.verdict == f"equivalent-up-to-{max_len}"
            and report.words_tested == 2 ** (max_len + 1) - 2,
            f"{what}: {report.show()}",
        )

    def verify_machine(self, lib, machine, what: str):
        """Aperiodicity of a produced machine, and a text round trip of it;
        returns the machine parsed back, which the run phase also simulates."""
        self.expect(lib.is_aperiodic(lib.transition_monoid(machine)).aperiodic, f"{what}: not aperiodic")
        text = lib.serialize(lib.Artifact("2wt", machine, lib.MonoidRegistry()))
        return text, lib.parse_text(text).value

    def run_words(self, lib, machine, copy, words, reference, what: str):
        """Simulate a machine and its parsed-back copy on each word."""
        for w in words:
            start = perf_counter()
            result = lib.simulate(machine, w)
            again = lib.simulate(copy, w)
            self.simulate_s += perf_counter() - start
            self.letters += 2 * len(w)
            self.steps += 2 * (len(result.run.configs) - 1)
            self.expect(
                result.output == reference(w) and again.output == result.output,
                f"{what}: wrong output on a word of length {len(w)}",
            )


class RoundtripSmall:
    """The copier: machine -> transduction -> machine.

    The reverser round trip is left out: its translation alone takes about
    20 s, so a run would hold a single pass and no median to steady it."""

    name = "roundtrip-small"
    WORDS, LENGTH = 8, 3000

    def setup(self, lib, seed: int, workdir: str):
        return {
            "machine": read_input(lib, "copier.2wt").value,
            "words": uniform_words(random.Random(seed), self.WORDS, self.LENGTH),
        }

    def run_pass(self, lib, inputs, p: Pass):
        machine = inputs["machine"]
        with p.phase("translate"):
            registry = lib.MonoidRegistry()
            fot = lib.twoway_to_fot(machine, registry, "M")
            jumps = lib.fot_to_fo_lookaround(fot)
            walks = lib.fo_la_to_sf_la(jumps, registry, DETERMINISM_BOUND)
            plain = lib.sf_la_to_plain(walks)
        with p.phase("verify"):
            n = ROUNDTRIP_MAX_LEN
            source = lib.Artifact("2wt", machine, lib.MonoidRegistry())
            fot_art = lib.Artifact("fot", fot, registry)
            p.expect_verdict(lib.check_equiv(source, fot_art, n), n, "copier vs its transduction")
            plain_art = lib.Artifact("2wt", plain, lib.MonoidRegistry())
            p.expect_verdict(lib.check_equiv(source, plain_art, n), n, "copier vs its round trip")
            text, copy = p.verify_machine(lib, plain, "copier round trip")
            p.artifact_bytes = len(text) + len(lib.serialize(fot_art))
            # the empty word: the round-trip machine rejects it
            p.known_fault(lib.simulate(plain, ()).output == identity(()))
        with p.phase("run"):
            p.run_words(lib, plain, copy, inputs["words"], identity, "copier round trip")


class DoublerFromFot:
    """The two-copy block-doubling transduction -> plain two-way machine."""

    name = "doubler-from-fot"
    WORDS, LENGTH = 8, 1000

    def setup(self, lib, seed: int, workdir: str):
        return {
            "fot": read_input(lib, "doubler.fot"),
            "words": block_words(random.Random(seed), self.WORDS, self.LENGTH),
        }

    def run_pass(self, lib, inputs, p: Pass):
        fot = inputs["fot"]
        with p.phase("translate"):
            jumps = lib.fot_to_fo_lookaround(fot.value)
            walks = lib.fo_la_to_sf_la(jumps, fot.registry, DETERMINISM_BOUND)
            plain = lib.sf_la_to_plain(walks)
        with p.phase("verify"):
            n = FROM_FOT_MAX_LEN
            plain_art = lib.Artifact("2wt", plain, lib.MonoidRegistry())
            p.expect_verdict(lib.check_equiv(fot, plain_art, n), n, "transduction vs its machine")
            text, copy = p.verify_machine(lib, plain, "block doubler machine")
            p.artifact_bytes = len(text)
        with p.phase("run"):
            p.run_words(lib, plain, copy, inputs["words"], block_double, "block doubler machine")


WORKLOADS = {w.name: w for w in (RoundtripSmall(), DoublerFromFot())}
