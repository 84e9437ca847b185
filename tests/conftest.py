import hashlib
import os
import sys
import time
from collections import deque
from contextlib import contextmanager

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from twofst.cli import serialize_machine
from twofst.machines import AB, block_doubler, block_doubler_fot
from twofst.twoway import follow_zero_moves, make_twoway
from twofst.monoid import transition_monoid
from twofst.logic import MonoidRegistry
from twofst.words import LEFT_MARK, RIGHT_MARK

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


@contextmanager
def budget(name: str, seconds: float):
    start = time.time()
    yield
    elapsed = time.time() - start
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget: {elapsed:.1f}s"
    print(f"{name}: PASS ({elapsed:.2f}s, budget {seconds:g}s)")


def _random_machine(rng, marked=False):
    """2 to 5 states over {a, b}; each letter row is blocked, stays (0-move)
    or moves either way, so runs block, bounce and loop, and writes ε, ``a``
    or ``b``.  ``marked`` adds ``$`` rows that stay or move left and a second
    final state, so runs also accept after a 0-move on ``$``, bounce off it
    and loop on it."""
    states, writes = tuple(range(rng.randint(2, 5))), ("", "a", "b")
    rules = {(q, "^"): (q, "", 1) for q in states}
    for q in states:
        for a in "ab":
            if rng.random() < 0.8:
                rules[(q, a)] = (rng.choice(states), rng.choice(writes), rng.choice((-1, 0, 1, 1, -1)))
    finals = {states[-1]}
    if marked:
        finals.add(rng.choice(states[:-1]))
        for q in states:
            if rng.random() < 0.8:
                rules[(q, "$")] = (rng.choice(states), rng.choice(writes), rng.choice((0, -1)))
    return make_twoway(states, AB, AB, 0, finals, rules)


def breadth_first(t) -> dict:
    """The states reachable from the initial state of ``t``, numbered in
    breadth-first order, reading symbols in input-alphabet order, then
    ``^``, then ``$``.  The library's constructions grow their machines with
    ``words.explore_rules``; this search is kept apart to check them."""
    number = {t.initial: 0}
    queue = deque([t.initial])
    while queue:
        q = queue.popleft()
        for a in (*t.in_alphabet, LEFT_MARK, RIGHT_MARK):
            row = t.rules.get((q, a))
            if row and row[0] not in number:
                number[row[0]] = len(number)
                queue.append(row[0])
    return number


def every_state_reachable(t) -> bool:
    return len(breadth_first(t)) == len(t.states)


def contract_zero_moves(t):
    """``t`` with every rule fused with its chain of 0-moves by
    ``twoway.follow_zero_moves``, keeping, in ``t``'s order, the states the
    fused rules reach."""
    def rule(q, a):
        return t.rules.get((q, a))

    rules = {(q, a): follow_zero_moves(rule, t.finals.__contains__, q, a) for q, a in t.rules}
    reach = breadth_first(make_twoway(t.states, t.in_alphabet, t.out_alphabet, t.initial, t.finals, rules))
    return make_twoway(
        [q for q in t.states if q in reach],
        t.in_alphabet,
        t.out_alphabet,
        t.initial,
        [q for q in t.finals if q in reach],
        {(q, a): row for (q, a), row in rules.items() if q in reach},
    )


def fingerprint(t, serialize=serialize_machine) -> tuple:
    """Length and sha256 prefix of the machine's file text: a construction
    that changes state names, their order or any row changes it."""
    text = serialize(t).encode()
    return len(text), hashlib.sha256(text).hexdigest()[:16]


def canonical_fingerprint(t) -> tuple:
    """``fingerprint`` of ``t`` with its states renumbered 0..n-1 in
    ``breadth_first`` order: it changes with any row of the machine but not
    with the names or the order of its states."""
    number = breadth_first(t)
    assert len(number) == len(t.states), "every state is reachable"
    rules = {(number[q], a): (number[r], out, move) for (q, a), (r, out, move) in t.rules.items()}
    finals = {number[q] for q in t.finals}
    return fingerprint(make_twoway(range(len(number)), t.in_alphabet, t.out_alphabet, 0, finals, rules))


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
