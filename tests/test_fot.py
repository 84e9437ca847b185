import pytest

from twofst.machines import AB, block_double
from twofst.fot import FoTransduction, LabelConflict, fot_domain_check, fot_eval
from twofst.logic import (
    FALSE,
    Exists,
    Forall,
    Le,
    Letter,
    TrueF,
    conj,
    disj,
    linear_graph_sentence,
    neg,
    var_eq,
    var_lt,
)
from twofst.words import show_word

from conftest import words_upto


def test_worked_example_output(doubler_fot):
    res = fot_eval(doubler_fot, "aababb")
    assert show_word(res.output) == "aabbab"
    # node layout: copies of the a-positions only
    st = res.structure
    positions = {i for (_, i) in st.nodes}
    assert positions == {1, 2, 4}
    assert len(st.nodes) == 6


def test_domain_check(doubler_fot):
    assert fot_domain_check(doubler_fot, "aababb")
    assert fot_domain_check(doubler_fot, "aab")
    closed = FoTransduction(AB, AB, FALSE, (1,), {}, {})
    assert not fot_domain_check(closed, "ab")
    assert fot_eval(closed, "ab").reason == "domain"


def test_empty_word_outside_domain(doubler_fot):
    res = fot_eval(doubler_fot, "")
    assert res.output is None and res.reason == "domain"


def test_no_nodes_means_empty_output(doubler_fot):
    res = fot_eval(doubler_fot, "b")
    assert res.output == ()


def test_matches_reference_function(doubler_fot):
    for w in words_upto(6, min_len=1):
        res = fot_eval(doubler_fot, w)
        assert res.output == block_double(w), w


def test_label_conflict_detected():
    T = FoTransduction(
        AB,
        AB,
        linear_graph_sentence(),
        (1,),
        {(1, "a"): Letter("a", "x"), (1, "b"): TrueF()},
        {(1, 1): Le("x", "y")},
    )
    with pytest.raises(LabelConflict):
        fot_eval(T, "ab")


@pytest.mark.parametrize(
    "pos, order",
    [
        ({(2, "a"): TrueF()}, {(1, 1): Le("x", "y")}),  # no copy 2
        ({(1, "c"): TrueF()}, {(1, 1): Le("x", "y")}),  # no output letter c
        ({(1, "a"): TrueF()}, {(1, 2): Le("x", "y")}),  # no copy 2
    ],
    ids=["pos-copy", "pos-letter", "le-copy"],
)
def test_formulas_name_declared_copies_and_letters(pos, order):
    with pytest.raises(ValueError, match="no such copy"):
        FoTransduction(AB, AB, linear_graph_sentence(), (1,), pos, order)


def test_non_total_order_is_undefined_not_a_crash():
    # both order formulas false: two nodes are incomparable
    T = FoTransduction(
        AB,
        AB,
        linear_graph_sentence(),
        (1,),
        {(1, "a"): Letter("a", "x")},
        {},
    )
    res = fot_eval(T, "aa")
    assert res.output is None and res.reason == "order-not-linear"
    # a single node is fine: reflexivity comes from the (absent) formula...
    res1 = fot_eval(T, "a")
    assert res1.output is None  # even one node needs reflexivity
    T2 = FoTransduction(
        AB,
        AB,
        linear_graph_sentence(),
        (1,),
        {(1, "a"): Letter("a", "x")},
        {(1, 1): conj([Le("x", "y"), Le("y", "x")])},  # only reflexive, not total
    )
    assert fot_eval(T2, "a").output == ("a",)
    assert fot_eval(T2, "aa").reason == "order-not-linear"

    def one_copy(order):
        return FoTransduction(
            AB, AB, linear_graph_sentence(), (1,), {(1, "a"): Letter("a", "x")}, {(1, 1): order}
        )

    # total but not antisymmetric: every pair in both directions
    T3 = one_copy(TrueF())
    assert fot_eval(T3, "a").output == ("a",)
    assert fot_eval(T3, "aa").reason == "order-not-linear"
    # reflexive, total and antisymmetric, but not transitive: on three nodes
    # the cycle 1 -> 2 -> 3 -> 1 of successors plus last-to-first
    succ = conj([var_lt("x", "y"), neg(Exists("z", conj([var_lt("x", "z"), var_lt("z", "y")])))])
    wrap = conj([Forall("z", Le("z", "x")), Forall("z", Le("y", "z"))])
    T4 = one_copy(disj([var_eq("x", "y"), succ, wrap]))
    res = fot_eval(T4, "aaa")
    assert res.reason == "order-not-linear"
    edges = res.structure.edges
    nodes = res.structure.nodes
    assert all((u, u) in edges for u in nodes)
    for u in nodes:
        for v in nodes:
            if u != v:
                assert ((u, v) in edges) != ((v, u) in edges), (u, v)


def test_contextual_stability(doubler_fot):
    # scan for an index n such that pumping u preserves domain membership and
    # the formula answers on context positions
    from twofst.logic import EvalSession

    T = doubler_fot
    samples = [("a", "b", "ab"), ("ab", "a", "b"), ("ba", "ab", "a"), ("b", "a", "")]
    for u, v, w in samples:
        for n in range(1, 4):
            wn = v + u * n + w
            wn1 = v + u * (n + 1) + w
            if len(wn1) > 10:
                break
            if not fot_domain_check(T, wn):
                continue
            assert fot_domain_check(T, wn1)
            # node existence must agree on the context positions
            s_n = EvalSession(wn)
            s_n1 = EvalSession(wn1)
            shift = len(u)
            ctx_n = list(range(1, len(v) + 1)) + list(
                range(len(v) + n * len(u) + 1, len(wn) + 1)
            )
            stable = True
            for c in T.copies:
                for b in T.out_alphabet:
                    f = T.pos_formula(c, b)
                    if f == FALSE:
                        continue
                    for i in ctx_n:
                        j = i if i <= len(v) else i + shift
                        if s_n.eval(f, {"x": i}) != s_n1.eval(f, {"x": j}):
                            stable = False
            if n >= 2:
                assert stable, (u, v, w, n)
