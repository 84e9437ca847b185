"""Small machines and transductions used by the test-suite and the docs."""
from __future__ import annotations

from .words import alphabet, as_word, make_seq
from .twoway import make_twoway
from .logic import (
    Exists,
    Forall,
    Le,
    Letter,
    conj,
    disj,
    implies,
    linear_graph_sentence,
)
from .fot import FoTransduction

AB = alphabet("ab")


def block_double(w) -> tuple:
    """Reference function: insert after each maximal a-block a b-block of the
    same length (w = a^k0 b a^k1 b ... b a^kn maps to a^k0 b^k0 ... a^kn b^kn).
    """
    w = as_word(w)
    blocks = "".join(str(s) for s in w).split("b")
    out = []
    for k, block in enumerate(blocks):
        out.extend(["a"] * len(block))
        out.extend(["b"] * len(block))
    return tuple(out)


def block_doubler() -> "TwoWayTransducer":
    """Two-way transducer for :func:`block_double`.

    State 1 copies an a-block rightwards, state 2 walks back over the block
    writing the matching b's, state 3 skips forward to the next block.
    """
    rules = {
        (1, "^"): (1, "", 1),
        (1, "a"): (1, "a", 1),
        (1, "b"): (2, "", -1),
        (1, "$"): (2, "", -1),
        (2, "a"): (2, "b", -1),
        (2, "^"): (3, "", 1),
        (2, "b"): (3, "", 1),
        (3, "a"): (3, "", 1),
        (3, "b"): (1, "", 1),
    }
    return make_twoway((1, 2, 3), AB, AB, 1, {3}, rules)


def block_doubler_fot() -> FoTransduction:
    """FO transduction computing :func:`block_double` with two copies.

    Copy 1 keeps the a's, copy 2 relabels them b; the order interleaves the
    two copies blockwise.
    """
    x_le_y = Le("x", "y")
    order_12 = disj(
        [
            x_le_y,
            Forall("z", implies(conj([Le("y", "z"), Le("z", "x")]), Letter("a", "z"))),
        ]
    )
    order_21 = Exists(
        "z", conj([Le("x", "z"), Le("z", "y"), Letter("b", "z")])
    )
    return FoTransduction(
        in_alphabet=AB,
        out_alphabet=AB,
        dom=linear_graph_sentence(),
        copies=(1, 2),
        pos={(1, "a"): Letter("a", "x"), (2, "b"): Letter("a", "x")},
        order={
            (1, 1): x_le_y,
            (2, 2): x_le_y,
            (1, 2): order_12,
            (2, 1): order_21,
        },
    )


def identity_seq():
    return make_seq((0,), AB, AB, 0, {0}, {(0, a): (0, (a,)) for a in AB})


def erase_b_seq():
    """Sequential transducer keeping a's and erasing b's."""
    rules = {(0, "a"): (0, ("a",)), (0, "b"): (0, ())}
    return make_seq((0,), AB, AB, 0, {0}, rules)


def parity_twoway():
    """One-way-moving two-way automaton accepting words with an even number
    of a's; its transition monoid contains a group, so it is not aperiodic."""
    rules = {
        (0, "^"): (0, "", 1),
        (0, "a"): (1, "", 1),
        (0, "b"): (0, "", 1),
        (1, "a"): (0, "", 1),
        (1, "b"): (1, "", 1),
    }
    return make_twoway((0, 1), AB, AB, 0, {0}, rules)


def copier():
    """One-pass left-to-right identity transducer."""
    rules = {("c", "^"): ("c", "", 1)}
    for a in AB:
        rules[("c", a)] = ("c", (a,), 1)
    return make_twoway(("c",), AB, AB, "c", {"c"}, rules)


def reverser():
    """Two-way transducer writing the reversal of its input."""
    rules = {("r", "^"): ("r", "", 1), ("r", "$"): ("w", "", -1)}
    for a in AB:
        rules[("r", a)] = ("r", "", 1)
        rules[("w", a)] = ("w", (a,), -1)
    rules[("w", "^")] = ("f", "", 1)
    for a in AB:
        rules[("f", a)] = ("f", "", 1)
    return make_twoway(("r", "w", "f"), AB, AB, "r", {"f"}, rules)


def double_writer():
    """Single state, writes the letter twice on every step; not normalized."""
    rules = {("d", "^"): ("d", "", 1)}
    for a in AB:
        rules[("d", a)] = ("d", (a, a), 1)
    return make_twoway(("d",), AB, AB, "d", {"d"}, rules)

