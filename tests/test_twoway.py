import random
from types import MappingProxyType
from typing import NamedTuple

import pytest

from twofst.cli import parse
from twofst.machines import (
    AB,
    block_double,
    block_doubler,
    copier,
    double_writer,
    reverser,
)
from twofst.twoway import (
    Run,
    TwoWayError,
    TwoWayTransducer,
    behaviors,
    context_path,
    is_normalized,
    make_twoway,
    merge_equivalent,
    mirror,
    normalize,
    simulate,
    tape_symbol,
    trace_table,
)
from twofst.words import SymbolNotInAlphabet, alphabet, as_word, show_word

from conftest import (
    _random_machine,
    canonical_fingerprint,
    contract_zero_moves,
    data_path,
    every_state_reachable,
    words_upto,
)


def test_running_example_output():
    r = simulate(block_doubler(), "aababb")
    assert show_word(r.output) == "aabbab"
    assert r.run.accepted
    # accepting runs end on the right endmarker in a final state
    q, pos = r.run.configs[-1]
    assert pos == len("aababb") + 1 and q in block_doubler().finals


@pytest.mark.parametrize("w", ["", "b", "aab", "a", "ba", "abab"])
def test_reference_function_agreement(w):
    assert simulate(block_doubler(), w).output == block_double(w)


def test_reference_agreement_exhaustive():
    t = block_doubler()
    for w in words_upto(7):
        assert simulate(t, w).output == block_double(w), w


def test_simulate_blocked_and_rejected():
    rules = {("s", "^"): ("s", "", 1), ("s", "a"): ("s", "a", 1)}
    t = make_twoway(("s",), AB, AB, "s", set(), rules)
    assert simulate(t, "b").reason == "blocked"
    assert simulate(t, "a").reason == "rejected"  # lands on $ in a non-final state


def test_simulate_loop_detection():
    rules = {
        ("s", "^"): ("s", "", 1),
        ("s", "a"): ("t", "", 1),
        ("t", "a"): ("s", "", -1),
        ("s", "b"): ("s", "", 1),
        ("t", "b"): ("t", "", 1),
        ("t", "$"): ("t", "", 0),
    }
    t = make_twoway(("s", "t"), AB, AB, "s", {"s"}, rules)
    assert simulate(t, "aa").reason == "loop"
    assert simulate(t, "a").reason == "loop"  # 0-move cycle on the endmarker


def test_endmarker_move_validation():
    with pytest.raises(TwoWayError):
        make_twoway(("s",), AB, AB, "s", {"s"}, {("s", "^"): ("s", "", -1)})
    with pytest.raises(TwoWayError):
        make_twoway(("s",), AB, AB, "s", {"s"}, {("s", "$"): ("s", "", 1)})


@pytest.mark.parametrize(
    "states, finals, rules, message",
    [
        (("t",), {"t"}, {}, "initial state missing"),
        (("s",), {"s", "t"}, {}, "subset of states"),
        (("s",), {"s"}, {("s", "a"): ("s", "", 2)}, "illegal move"),
    ],
    ids=["initial", "final", "move"],
)
def test_machine_parts_stay_in_the_machine(states, finals, rules, message):
    with pytest.raises(TwoWayError, match=message):
        make_twoway(states, AB, AB, "s", finals, rules)


def test_rows_stay_in_the_machine():
    with pytest.raises(TwoWayError, match="leaves the state set"):
        make_twoway(("s",), AB, AB, "s", {"s"}, {("s", "a"): ("t", "", 1)})
    with pytest.raises(TwoWayError, match="outside the alphabet"):
        make_twoway(("s",), AB, AB, "s", {"s"}, {("s", "c"): ("s", "", 1)})
    with pytest.raises(TwoWayError, match="outside the output alphabet"):
        make_twoway(("s",), AB, alphabet("a"), "s", {"s"}, {("s", "a"): ("s", "ab", 1)})


def test_rules_are_read_only(doubler):
    assert isinstance(doubler.rules, MappingProxyType)
    with pytest.raises(TypeError):
        doubler.rules[(1, "a")] = (2, ("b",), 1)
    # the machine keeps its own copy, with outputs as words: editing the
    # caller's dict changes nothing
    rules = {("s", "^"): ("s", "", 1), ("s", "a"): ("s", "a", 1)}
    t = TwoWayTransducer(("s",), AB, AB, "s", frozenset({"s"}), rules)
    assert simulate(t, "aa").output == ("a", "a")
    rules[("s", "a")] = ("s", "b", 0)
    assert simulate(t, "aa").output == ("a", "a") and t.rules[("s", "a")] == ("s", ("a",), 1)


class Reference(NamedTuple):
    output: object
    run: Run
    reason: object = None


def dict_simulate(t, w) -> Reference:
    """Reference ``simulate``: dict lookups per step and a set of the
    configurations seen."""
    w = t.in_alphabet.word(as_word(w))
    last = len(w) + 1
    q, pos = t.initial, 0
    configs = [(q, pos)]
    outputs = []
    seen = {(q, pos)}
    while True:
        if pos == last and q in t.finals:
            run = Run(w, tuple(configs), tuple(outputs), True)
            return Reference(tuple(s for o in outputs for s in o), run)
        a = tape_symbol(w, pos)
        if (q, a) not in t.rules:
            run = Run(w, tuple(configs), tuple(outputs), False)
            reason = "rejected" if pos == last else "blocked"
            return Reference(None, run, reason)
        q, out, move = t.rules[(q, a)]
        outputs.append(out)
        pos += move
        configs.append((q, pos))
        if (q, pos) in seen:
            run = Run(w, tuple(configs), tuple(outputs), False)
            return Reference(None, run, "loop")
        seen.add((q, pos))


def _with_outputs(rng, t):
    """``t`` with every row producing a random word of 0 to 3 letters."""
    rules = {
        (q, a): (r, tuple(rng.choice("ab") for _ in range(rng.randint(0, 3))), move)
        for (q, a), (r, _, move) in t.rules.items()
    }
    return make_twoway(t.states, t.in_alphabet, t.out_alphabet, t.initial, t.finals, rules)


def sweeper(k):
    """``k`` states (``k`` odd) that each sweep the whole tape once: even
    states rightward, odd ones leftward, with a 0-move onto the next state
    at each endmarker.  The accepting run visits every configuration."""
    rules = {}
    for q in range(k):
        move = 1 if q % 2 == 0 else -1
        start, turn = ("^", "$") if move == 1 else ("$", "^")
        for a in ("a", "b", start):
            rules[(q, a)] = (q, "", move)
        if q < k - 1:
            rules[(q, turn)] = (q + 1, "", 0)
    return make_twoway(tuple(range(k)), AB, AB, 0, {k - 1}, rules)


def _matches_reference(t, w):
    """``simulate`` gives ``t`` on ``w`` the step count, output, stop reason
    and run of ``dict_simulate``; the step count is exact before the run is
    first read, and the run is built once."""
    got, want = simulate(t, w), dict_simulate(t, w)
    assert got.steps == len(want.run.outputs), (t.rules, w)
    assert got.run is got.run
    assert type(got.run.configs) is tuple and type(got.run.outputs) is tuple
    assert (got.output, got.reason) == (want.output, want.reason), (t.rules, w)
    assert got.run == want.run, (t.rules, w)
    return got


def test_simulate_matches_dict_reference():
    rng = random.Random(7)
    machines = [_random_machine(rng, marked=True) for _ in range(60)]
    machines += [_with_outputs(rng, _random_machine(rng, marked=True)) for _ in range(8)]
    machines += [sweeper(k) for k in (1, 3, 5)]
    seen = dict.fromkeys(("accept", "blocked", "rejected", "0-move loop on $", "loop across cells"), 0)
    for t in machines:
        for w in words_upto(5):
            got = _matches_reference(t, w)
            configs = got.run.configs
            if got.reason == "loop":
                cycle = configs[configs.index(configs[-1]) :]
                cells = {pos for _, pos in cycle}
                if cells == {len(w) + 1}:
                    seen["0-move loop on $"] += 1
                elif len(cells) > 1:
                    seen["loop across cells"] += 1
            else:
                seen[got.reason or "accept"] += 1
    assert all(seen.values()), seen
    assert any(len(o) > 1 for t in machines for _, o, _ in t.rules.values())


def test_simulate_long_words_match_the_reference():
    # 1,000 letters: loops are cut where the reference sees the first
    # repetition, and an accepting run may take the whole step bound
    rng = random.Random(3)
    w = "".join(rng.choice("ab") for _ in range(1000))
    # the initial state 0-moves between two states on ^
    rules = {(0, "^"): (1, "", 0), (1, "^"): (0, "", 0)}
    rules.update({(q, a): (q, "" if a == "^" else a, 1) for q in (2, 3, 4) for a in "ab^"})
    got = _matches_reference(make_twoway(range(5), AB, AB, 0, {2}, rules), w)
    assert got.reason == "loop" and got.steps == 2
    # a loop across cells: a left move on the first b after 500 letters,
    # and a right move back onto it
    u = "a" * 500 + w[500:]
    k = u.index("b", 500)
    rules = {("s", "^"): ("s", "", 1), ("s", "a"): ("s", "a", 1), ("s", "b"): ("t", "", -1),
             ("t", "a"): ("s", "", 1)}
    got = _matches_reference(make_twoway(("s", "t"), AB, AB, "s", {"s"}, rules), u)
    assert got.reason == "loop" and {p for _, p in got.run.configs[-3:]} == {k, k + 1}
    # every configuration of the sweeper's accepting run is visited once
    got = _matches_reference(sweeper(5), w)
    assert got.reason is None and got.steps == 5 * (len(w) + 2) - 1


def test_simulate_runs_up_to_the_step_bound():
    # the sweeper's accepting run has exactly |Q|·(n+2) configurations, the
    # most a run can have without repeating one
    for k in (1, 3, 5):
        t = sweeper(k)
        for w in words_upto(4):
            res = simulate(t, w)
            assert res.run.accepted and len(res.run.configs) == k * (len(w) + 2), (k, w)
            assert len(set(res.run.configs)) == len(res.run.configs)


def test_simulate_rejects_stray_symbols(doubler):
    for w in ("ac", "a^b", ["a", ["b"]]):
        with pytest.raises(SymbolNotInAlphabet):
            simulate(doubler, w)


def test_behaviors_worked_example(doubler):
    p = behaviors(doubler, "aab")
    assert set(p.ll) == {(1, 2), (2, 2)}
    assert set(p.lr) == {(3, 1)}
    assert set(p.rl) == {(1, 2)}
    assert set(p.rr) == {(2, 3), (3, 1)}


def test_behaviors_single_letter(doubler):
    p = behaviors(doubler, "a")
    assert set(p.lr) == {(1, 1), (3, 3)} and set(p.rr) == {(1, 1), (3, 3)}
    assert set(p.ll) == {(2, 2)} and set(p.rl) == {(2, 2)}


def test_behaviors_empty_word(doubler):
    p = behaviors(doubler, "")
    ident = {(q, q) for q in doubler.states}
    assert set(p.lr) == ident and set(p.rl) == ident
    assert not p.ll and not p.rr


def test_behaviors_domain_disjointness(doubler):
    for w in words_upto(5):
        p = behaviors(doubler, w)
        assert p.check_disjoint(), w


def test_context_path_projection(doubler):
    run = simulate(doubler, "aab").run
    path = context_path(run, [2])
    assert path.pairs == ((1, 1), (2, 1), (3, 1))
    full = context_path(run, range(0, 5))
    assert len(full.pairs) == len(run.configs)
    assert context_path(run, []).pairs == ()
    with pytest.raises(ValueError):
        context_path(run, [3, 2])


def test_normalize_splits_productions():
    dw = double_writer()
    nz = normalize(dw)
    assert is_normalized(nz)
    for w in words_upto(6):
        assert simulate(nz, w).output == simulate(dw, w).output, w
    # three-letter productions chain two emission states; the chains of
    # "abb" into q and "bb" into p end alike but are kept apart by target
    rules = {
        ("p", "^"): ("p", "", 1),
        ("p", "a"): ("q", "aba", 1),
        ("p", "b"): ("p", "bb", 1),
        ("q", "a"): ("q", "abb", 1),
        ("q", "b"): ("p", "", 1),
    }
    t = make_twoway(("p", "q"), AB, AB, "p", {"p", "q"}, rules)
    nz = normalize(t)
    assert is_normalized(nz) and len(nz.states) == 7
    for w in words_upto(5):
        assert simulate(nz, w).output == simulate(t, w).output, w


def test_normalize_idempotent(doubler):
    assert normalize(doubler) is doubler
    assert len(normalize(doubler).rules) == len(doubler.rules)
    # producing nothing anywhere is already normal
    cp = copier()
    assert normalize(cp) is cp


def test_mirror_property(doubler):
    m = mirror(doubler)
    for w in words_upto(6):
        got = simulate(m, w[::-1]).output
        assert got == simulate(doubler, w).output, w


def test_mirror_involution(doubler):
    mm = mirror(mirror(doubler))
    for w in words_upto(6):
        assert simulate(mm, w).output == simulate(doubler, w).output, w


def test_mirror_of_copier_is_right_to_left_writer():
    m = mirror(copier())
    for w in words_upto(5):
        assert simulate(m, w[::-1]).output == as_word(w), w


def test_trace_table_layout():
    r = simulate(block_doubler(), "aab")
    table = trace_table(r)
    lines = table.splitlines()
    assert lines[0].split() == ["^", "a", "a", "b", "$"]
    assert lines[1].split() == ["1", "1", "1", "1", "1"]


@pytest.mark.parametrize(
    "machine, shape",
    [
        (lambda: parse(data_path("fig1.2wt")).value, (343, "f329f97785f176b2")),
        (copier, (243, "5fc71bc267c9eb05")),
        (reverser, (343, "5e09afff273d6c94")),
        (block_doubler, (343, "f329f97785f176b2")),
    ],
    ids=["fig1", "copier", "reverser", "block_doubler"],
)
def test_mirror_keeps_its_rows(machine, shape):
    # the shapes are those of the mirrors that wrote a row for every state
    # and were then cut to the states their runs reach
    m = mirror(machine())
    assert every_state_reachable(m)
    assert canonical_fingerprint(m) == shape


def test_mirror_makes_only_the_states_its_run_reaches():
    # "x" is unreachable in t, and no run of t reaches its final state "f"
    rules = {
        ("s", "^"): ("s", "", 1),
        ("s", "a"): ("t", "a", 1),
        ("t", "b"): ("s", "b", -1),
        ("x", "a"): ("f", "", 1),
    }
    t = make_twoway(("x", "s", "t", "f"), AB, AB, "s", {"f"}, rules)
    m = mirror(t)
    assert m.states == (("seek",), ("sim", "s"), ("sim", "t"))
    assert m.finals == frozenset()
    assert every_state_reachable(m)
    for w in words_upto(4):
        assert simulate(t, w).output is None and simulate(m, w).output is None, w


def _runs_agree(t, fused, n):
    """``fused`` gives every word up to length ``n`` the output and stop
    reason that ``t`` gives it, in no more steps."""
    for w in words_upto(n):
        got, want = simulate(fused, w), simulate(t, w)
        assert (got.output, got.reason) == (want.output, want.reason), w
        assert got.steps <= want.steps, w


def _fused(rules, finals=("s",)):
    t = make_twoway(dict.fromkeys(q for q, _ in rules), AB, AB, "s", finals, rules)
    fused = contract_zero_moves(t)
    _runs_agree(t, fused, 4)
    return t, fused


COPY = {("s", "^"): ("s", "", 1), ("s", "b"): ("s", "b", 1)}


def test_contract_joins_an_output_from_either_side():
    # the letter comes first on a and last on b; the chains then move right
    _, fused = _fused(
        {**COPY, ("s", "a"): ("t", "a", 0), ("t", "a"): ("u", "", 0), ("u", "a"): ("s", "", 1),
         ("s", "b"): ("v", "", 0), ("v", "b"): ("s", "b", 1)}
    )
    assert fused.states == ("s",)
    assert dict(fused.rules) == {
        ("s", "^"): ("s", (), 1), ("s", "a"): ("s", ("a",), 1), ("s", "b"): ("s", ("b",), 1)
    }
    assert simulate(fused, "ab").run.configs == (("s", 0), ("s", 1), ("s", 2), ("s", 3))


def test_contract_stops_on_the_right_endmarker_in_a_final_state():
    # "f" accepts on $, so its row there never fires and the chain ends in f
    _, fused = _fused(
        {**COPY, ("s", "$"): ("g", "", 0), ("g", "$"): ("f", "b", 0), ("f", "$"): ("s", "", -1)},
        finals={"f"},
    )
    assert fused.rules[("s", "$")] == ("f", ("b",), 0)
    assert simulate(fused, "b").output == ("b", "b")


def test_contract_keeps_a_zero_move_loop():
    rules = {**COPY, ("s", "a"): ("t", "", 0), ("t", "a"): ("u", "", 0), ("u", "a"): ("t", "", 0)}
    t, fused = _fused(rules)
    assert fused.rules == t.rules
    assert simulate(fused, "ba").reason == "loop"


def test_contract_stops_where_a_run_blocks():
    _, fused = _fused({**COPY, ("s", "a"): ("t", "", 0), ("t", "a"): ("u", "a", 0), ("u", "b"): ("s", "", 1)})
    assert fused.rules[("s", "a")] == ("u", ("a",), 0)
    assert fused.states == ("s", "u")
    assert simulate(fused, "a").reason == "blocked"


def test_contract_joins_two_outputs():
    _, fused = _fused({**COPY, ("s", "a"): ("u", "", 0), ("u", "a"): ("t", "a", 0), ("t", "a"): ("s", "b", 1)})
    assert fused.states == ("s",)
    assert fused.rules[("s", "a")] == ("s", ("a", "b"), 1)
    assert not is_normalized(fused)
    assert simulate(fused, "a").output == ("a", "b")


def test_contract_preserves_runs_of_emission_chains_and_random_machines():
    # every emission chain fuses back into the multi-letter row it came from
    t = normalize(double_writer())
    fused = contract_zero_moves(t)
    _runs_agree(t, fused, 6)
    assert dict(fused.rules) == dict(double_writer().rules)
    rng = random.Random(24)
    fused_rows = 0
    for k in range(20):
        t = _random_machine(rng, marked=k % 2 == 1)
        fused = contract_zero_moves(t)
        _runs_agree(t, fused, 6)
        fused_rows += sum(row != t.rules[key] for key, row in fused.rules.items())
    assert fused_rows >= 5


def dict_merge_equivalent(t):
    """Reference ``merge_equivalent``: each refinement round rebuilds every
    state's signature from dict lookups."""
    symbols = tuple(t.in_alphabet) + ("^", "$")
    block = {q: (q in t.finals) for q in t.states}
    nblocks = len(set(block.values()))
    while True:
        sigs = {}
        new = {}
        for q in t.states:
            row = []
            for a in symbols:
                if (q, a) in t.rules:
                    r, out, move = t.rules[(q, a)]
                    row.append((block[r], out, move))
                else:
                    row.append(None)
            sig = (block[q], tuple(row))
            new[q] = sigs.setdefault(sig, len(sigs))
        block = new
        if len(sigs) == nblocks:
            break
        nblocks = len(sigs)
    if nblocks == len(t.states):
        return t
    rep = {}
    for q in t.states:
        rep.setdefault(block[q], q)
    rename = {q: rep[block[q]] for q in t.states}
    rules = {}
    for (q, a), (r, out, move) in t.rules.items():
        if rename[q] == q:
            rules[(q, a)] = (rename[r], out, move)
    states = tuple(rep.values())
    finals = {rename[f] for f in t.finals}
    return make_twoway(states, t.in_alphabet, t.out_alphabet, rename[t.initial], finals, rules)


def _with_twins(rng, t):
    """``t`` with a twin of every state, listed in a shuffled order.  A twin
    copies its state's rows, each into the state or its twin at random, so
    the two are equivalent; one row in ten writes a new random letter, which
    can split the pair and, over later rounds, the pairs that lead to it."""
    twin = {q: ("twin", q) for q in t.states}
    rules = {}
    for (q, a), (r, out, move) in t.rules.items():
        rules[(q, a)] = (rng.choice((r, twin[r])), out, move)
        if rng.random() < 0.1:
            out = rng.choice(((), ("a",), ("b",)))
        rules[(twin[q], a)] = (rng.choice((r, twin[r])), out, move)
    states = list(t.states) + list(twin.values())
    rng.shuffle(states)
    finals = set(t.finals) | {twin[q] for q in t.finals}
    return make_twoway(states, t.in_alphabet, t.out_alphabet, t.initial, finals, rules)


def test_merge_equivalent_matches_dict_reference():
    rng = random.Random(11)
    machines = [_random_machine(rng, marked=True) for _ in range(60)]
    machines += [_with_twins(rng, t) for t in machines]
    seen = dict.fromkeys(("kept", "halved", "merged less", "$ row on a final state", "blocked row"), 0)
    for t in machines:
        got, want = merge_equivalent(t), dict_merge_equivalent(t)
        assert (got is t) == (want is t)
        assert (got.initial, got.states, got.finals) == (want.initial, want.states, want.finals), t.rules
        assert list(got.rules.items()) == list(want.rules.items()), t.rules
        n, m = len(t.states), len(got.states)
        seen["kept" if m == n else "halved" if 2 * m == n else "merged less"] += 1
        seen["$ row on a final state"] += any((q, "$") in t.rules for q in t.finals)
        seen["blocked row"] += len(t.rules) < 4 * n
    assert all(seen.values()), seen


def test_merge_equivalent_preserves_runs(doubler):
    bloated_rules = dict(doubler.rules)
    # duplicate state 3 as state 4
    for (q, a), (r, out, mv) in list(bloated_rules.items()):
        if q == 3:
            bloated_rules[(4, a)] = (r, out, mv)
    t = make_twoway((1, 2, 3, 4), AB, AB, 1, {3, 4}, bloated_rules)
    merged = merge_equivalent(t)
    assert len(merged.states) == 3
    for w in words_upto(5):
        assert simulate(merged, w).output == simulate(t, w).output
