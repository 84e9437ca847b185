import pytest

from twofst.machines import AB
from twofst.lookaround import (
    DeterminismViolation,
    FoLookAroundTransducer,
    FoTransition,
    SfLookAroundTransducer,
    SfTest,
    SfTransition,
    check_fo_determinism,
    check_sf_determinism,
    simulate_fo_la,
    simulate_sf_la,
)
from twofst.logic import Letter, TrueF
from twofst.translate import DirectionAmbiguity, fo_la_to_sf_la, fot_to_fo_lookaround
from twofst.twoway import simulate
from twofst.words import alphabet, dfa_universal, make_dfa, show_word
from twofst.fot import fot_eval

from conftest import words_upto


def any_lang():
    return dfa_universal(AB)


def prefix_ends_b():
    # A* b
    delta = {(0, "a"): 0, (0, "b"): 1, (1, "a"): 0, (1, "b"): 1}
    return make_dfa((0, 1), AB, 0, {1}, delta)


def test_sf_copier():
    trans = [
        SfTransition("c", SfTest(any_lang(), "^", any_lang()), "c", (), 1),
        SfTransition("c", SfTest(any_lang(), "a", any_lang()), "c", ("a",), 1),
        SfTransition("c", SfTest(any_lang(), "b", any_lang()), "c", ("b",), 1),
    ]
    t = SfLookAroundTransducer(("c",), AB, AB, tuple(trans), "c", frozenset({"c"}))
    assert show_word(simulate_sf_la(t, "aab").output) == "aab"
    assert check_sf_determinism(t, 4)


def test_sf_prefix_test_machine():
    # emit a marker b at positions whose strict prefix ends with b, else copy a
    trans = [
        SfTransition("c", SfTest(any_lang(), "^", any_lang()), "c", (), 1),
        SfTransition("c", SfTest(prefix_ends_b(), "a", any_lang()), "c", ("b",), 1),
        SfTransition(
            "c",
            SfTest(make_dfa((0, 1), AB, 0, {0}, prefix_ends_b().delta), "a", any_lang()),
            "c",
            ("a",),
            1,
        ),
        SfTransition("c", SfTest(any_lang(), "b", any_lang()), "c", (), 1),
    ]
    t = SfLookAroundTransducer(("c",), AB, AB, tuple(trans), "c", frozenset({"c"}))
    # on "aba": marker fires exactly at position 3
    assert show_word(simulate_sf_la(t, "aba").output) == "ab"
    for w in words_upto(5):
        want = tuple(
            ("b" if (i > 0 and w[i - 1] == "b") else "a") for i, c in enumerate(w) if c == "a"
        )
        assert simulate_sf_la(t, w).output == want, w


def test_sf_determinism_violation():
    trans = [
        SfTransition("c", SfTest(any_lang(), "a", any_lang()), "c", ("a",), 1),
        SfTransition("c", SfTest(any_lang(), "a", any_lang()), "c", ("b",), 1),
        SfTransition("c", SfTest(any_lang(), "^", any_lang()), "c", (), 1),
    ]
    t = SfLookAroundTransducer(("c",), AB, AB, tuple(trans), "c", frozenset({"c"}))
    assert not check_sf_determinism(t, 3)
    with pytest.raises(DeterminismViolation):
        simulate_sf_la(t, "a")


def test_sf_requires_counter_free_tests():
    # (aa)* is not star-free
    delta = {(0, "a"): 1, (1, "a"): 0, (0, "b"): 2, (1, "b"): 2, (2, "a"): 2, (2, "b"): 2}
    periodic = make_dfa((0, 1, 2), AB, 0, {0}, delta)
    with pytest.raises(ValueError):
        SfLookAroundTransducer(
            ("c",),
            AB,
            AB,
            (SfTransition("c", SfTest(periodic, "a", any_lang()), "c", (), 1),),
            "c",
            frozenset({"c"}),
        )


def test_look_around_letters_stay_in_their_alphabets():
    a_only = alphabet("a")
    for letter, out, message in [("a", ("b",), "outside the output alphabet"),
                                 ("c", ("a",), "not on the tape")]:
        sf = (SfTransition("c", SfTest(any_lang(), letter, any_lang()), "c", out, 1),)
        with pytest.raises(ValueError, match=message):
            SfLookAroundTransducer(("c",), AB, a_only, sf, "c", frozenset({"c"}))
    fo = (FoTransition("i", TrueF(), "f", ("a", "b"), Letter("$", "y")),)
    with pytest.raises(ValueError, match="outside the output alphabet"):
        FoLookAroundTransducer(("i", "f"), AB, a_only, fo, "i", frozenset({"f"}))
    # endmarker tests and productions inside the alphabet stay legal
    sf = (SfTransition("c", SfTest(any_lang(), "^", any_lang()), "c", ("a",), 1),)
    SfLookAroundTransducer(("c",), AB, a_only, sf, "c", frozenset({"c"}))


def test_fo_la_machine_from_transduction(doubler_fot):
    la = fot_to_fo_lookaround(doubler_fot)
    assert show_word(simulate_fo_la(la, "aababb").output) == "aabbab"
    got = simulate_fo_la(la, "b")
    want = fot_eval(doubler_fot, "b")
    assert got.output == want.output == ()
    for w in words_upto(5, min_len=1):
        assert simulate_fo_la(la, w).output == fot_eval(doubler_fot, w).output, w


def test_fo_la_determinism_violation():
    # two always-enabled transitions from the initial state
    jump = Letter("$", "y")
    trans = (
        FoTransition("i", TrueF(), "f", (), jump),
        FoTransition("i", TrueF(), "f", ("a",), jump),
    )
    t = FoLookAroundTransducer(("i", "f"), AB, AB, trans, "i", frozenset({"f"}))
    with pytest.raises(DeterminismViolation):
        simulate_fo_la(t, "a")
    assert not check_fo_determinism(t, 2)


def test_fo_la_jump_multiplicity_violation():
    # jump admits every position
    trans = (FoTransition("i", TrueF(), "f", (), TrueF()),)
    t = FoLookAroundTransducer(("i", "f"), AB, AB, trans, "i", frozenset({"f"}))
    with pytest.raises(DeterminismViolation):
        simulate_fo_la(t, "a")


@pytest.mark.parametrize(
    "trans",
    [
        # the machines of the two tests above
        (
            FoTransition("i", TrueF(), "f", (), Letter("$", "y")),
            FoTransition("i", TrueF(), "f", ("a",), Letter("$", "y")),
        ),
        (FoTransition("i", TrueF(), "f", (), TrueF()),),
    ],
    ids=["two-transitions", "many-targets"],
)
def test_fo_la_to_sf_la_refuses_a_nondeterministic_machine(trans):
    t = FoLookAroundTransducer(("i", "f"), AB, AB, trans, "i", frozenset({"f"}))
    with pytest.raises(DirectionAmbiguity, match="bounded determinism check"):
        fo_la_to_sf_la(t, None, 2)


def test_fo_la_blocked_is_undefined():
    trans = (FoTransition("i", Letter("a", "x"), "f", (), Letter("$", "y")),)
    t = FoLookAroundTransducer(("i", "f"), AB, AB, trans, "i", frozenset({"f"}))
    res = simulate_fo_la(t, "ab")
    assert res.output is None and res.reason == "blocked"


def test_fo_la_path_recorded(doubler_fot):
    la = fot_to_fo_lookaround(doubler_fot)
    res = simulate_fo_la(la, "aab")
    assert res.path[0] == (("init",), 0)
    assert res.path[-1][1] == len("aab") + 1


def test_endmarker_tests_stay_on_the_tape():
    # a ^ test that moves left (or a $ test that moves right) would leave the
    # tape; sf_la_to_plain used to turn such a move into a 0-move
    u = any_lang()
    copy = SfTransition("r", SfTest(u, "a", u), "r", ("a",), 1)
    for mark, move in (("^", -1), ("$", 1)):
        bad = SfTransition("q", SfTest(u, mark, u), "r", ("b",), move)
        with pytest.raises(ValueError, match="endmarker must be"):
            SfLookAroundTransducer(("q", "r"), AB, AB, (bad, copy), "q", frozenset({"r"}))
