import os
import sys
import time
from contextlib import contextmanager

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from twofst.machines import block_doubler, block_doubler_fot
from twofst.monoid import transition_monoid
from twofst.logic import MonoidRegistry

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


@contextmanager
def budget(name: str, seconds: float):
    start = time.time()
    yield
    elapsed = time.time() - start
    print(f"{name}: PASS ({elapsed:.2f}s, budget {seconds:g}s)")
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget: {elapsed:.1f}s"


def words_upto(n, min_len=0):
    from itertools import product

    for k in range(min_len, n + 1):
        for tup in product("ab", repeat=k):
            yield "".join(tup)


@pytest.fixture(scope="session")
def doubler():
    return block_doubler()


@pytest.fixture(scope="session")
def doubler_monoid(doubler):
    return transition_monoid(doubler)


@pytest.fixture(scope="session")
def doubler_fot():
    return block_doubler_fot()


@pytest.fixture(scope="session")
def doubler_plain(doubler_fot):
    """The plain machine that the transduction chain builds for the doubler."""
    from twofst.translate import fot_to_twoway

    return fot_to_twoway(doubler_fot, None, bound=3)


@pytest.fixture(scope="session")
def registry(doubler_monoid):
    reg = MonoidRegistry()
    reg.register("M", doubler_monoid)
    return reg


def random_formula(rng, variables, depth):
    """Random class-atom-free formula over {a,b} with the given free vars."""
    from twofst.logic import (
        And, Exists, Forall, Le, Letter, Not, Or, TrueF,
    )

    if depth == 0 or (rng.random() < 0.25 and variables):
        kind = rng.choice(["letter", "le", "true"] if variables else ["true"])
        if kind == "letter":
            return Letter(rng.choice("ab"), rng.choice(variables))
        if kind == "le":
            return Le(rng.choice(variables), rng.choice(variables))
        return TrueF()
    kind = rng.choice(["and", "or", "not", "exists", "forall"])
    if kind in ("and", "or"):
        args = tuple(random_formula(rng, variables, depth - 1) for _ in range(2))
        return And(args) if kind == "and" else Or(args)
    if kind == "not":
        return Not(random_formula(rng, variables, depth - 1))
    fresh = f"v{depth}_{rng.randrange(1000)}"
    body = random_formula(rng, variables + [fresh], depth - 1)
    return Exists(fresh, body) if kind == "exists" else Forall(fresh, body)
