import dataclasses
import functools

import pytest

from tf1crack import (
    AttackConfig,
    Keystream,
    State,
    Tf1Params,
    WordSpec,
    default_params,
    find_zero_outputs,
    generate,
    recover,
    state_from_seed,
    tf1_instance,
    verify_state,
)
from tf1crack import oracle
from tf1crack.cli import format_state
from tf1crack.oracle import (
    OracleResult,
    brute_force_consistent_states,
    compare_with_report,
)
from tf1crack.rng import SplitMix64

from helpers import _scan_states_scalar, roll_forward

W4 = WordSpec(4)
P4 = default_params(W4)


def make_run(seed, n=512):
    start = state_from_seed(seed, W4)
    ks = generate(start, P4, n)
    zero = find_zero_outputs(ks, 1)[0]
    return ks, zero, roll_forward(start, P4, zero + 1)


def test_oracle_scans_whole_space_and_finds_truth():
    ks, zero, true_state = make_run(1)
    window = len(ks) - zero - 1
    result = brute_force_consistent_states(ks, zero, P4, window)
    assert result.states_scanned == 65536
    assert result.zero_index == zero and result.window == window
    assert true_state in result.consistent_states
    assert result.consistent_states == sorted(result.consistent_states)
    for st in result.consistent_states:
        assert verify_state(st, P4, ks, zero, window)


def test_oracle_short_window_grows_candidate_set():
    ks, zero, true_state = make_run(2)
    tight = brute_force_consistent_states(ks, zero, P4, len(ks) - zero - 1)
    loose = brute_force_consistent_states(ks, zero, P4, 0)
    assert set(tight.consistent_states) <= set(loose.consistent_states)
    assert len(loose.consistent_states) >= len(tight.consistent_states)
    assert true_state in loose.consistent_states


def test_oracle_full_tail_window_pins_a_single_state():
    # measured over independent seeds: a long window always isolates the
    # generating state at w=4 with the default constants
    stream = SplitMix64(505)
    sizes = []
    while len(sizes) < 8:
        seed = stream.next64()
        ks = generate(state_from_seed(seed, W4), P4, 512)
        zeros = find_zero_outputs(ks, 1)
        if not zeros:
            continue
        z = zeros[0]
        result = brute_force_consistent_states(ks, z, P4, len(ks) - z - 1)
        sizes.append(len(result.consistent_states))
    assert sizes == [1] * 8


def test_oracle_validation():
    ks, zero, true_state = make_run(1)
    tail = len(ks) - zero - 1
    for window in (tail + 1, -1):
        with pytest.raises(ValueError, match=rf"window {window} is outside 0\.\.{tail}, the words"):
            brute_force_consistent_states(ks, zero, P4, window)
    for z in (-1, len(ks)):
        with pytest.raises(ValueError, match=rf"zero_index {z} is outside the keystream's 0\.\."):
            brute_force_consistent_states(ks, z, P4, 1)
    # any word is certified like a zero one: the word 2^(w-1) at index 17
    # pins a + c = 2^(h-1), and its one state rolls forward to the zero's
    assert (ks.words[17], zero) == (8, 20)
    at17 = brute_force_consistent_states(ks, 17, P4, len(ks) - 18).consistent_states
    assert at17 == [State(13, 2, 5, 9)]
    assert roll_forward(at17[0], P4, 3) == true_state == State(12, 8, 4, 4)
    with pytest.raises(ValueError, match="limited to w <= 8"):
        brute_force_consistent_states(ks, zero, default_params(WordSpec(16)), 1)


def _reference_cases():
    # (params, keystream, index): three random constant sets on streams
    # with a zero before their last word, the first again with its last word
    # flipped, which no state reproduces, an even C on a planted zero word
    # at index 0, the post-update state there having a + c = 0, and two
    # nonzero words: the word 2^(w-1) at index 17 of the documented stream
    # (default constants, seed 1) and the first odd word of the second stream
    rng = SplitMix64(2323)
    cases = []
    while len(cases) < 3:
        params = Tf1Params(rng.below(16), rng.below(16), rng.below(16) | 1, W4)
        ks = generate(state_from_seed(rng.next64(), W4), params, 128)
        zeros = find_zero_outputs(Keystream(W4, ks.words[:-1]), 1)
        if zeros:
            cases.append((params, ks, zeros[0]))
    params, ks, z = cases[0]
    cases.append((params, Keystream(W4, (*ks.words[:-1], ks.words[-1] ^ 1)), z))
    params = Tf1Params(rng.below(16), rng.below(16), rng.below(8) * 2, W4)
    a, b, d = (rng.below(16) for _ in range(3))
    planted = State(a, b, -a & 15, d)
    cases.append((params, Keystream(W4, (0, *generate(planted, params, 48).words)), 0))
    cases.append((P4, generate(state_from_seed(1, W4), P4, 256), 17))
    params, ks, _ = cases[1]
    cases.append((params, ks, next(i for i, word in enumerate(ks.words) if word & 1)))
    return cases


REFERENCE_CASES = _reference_cases()


@functools.cache
def _states_with_output(word):
    states = list(_scan_states_scalar(W4, word))
    # for each (b, d), the odd factor S(b+d)|1 makes x = a+c -> word one-to-one,
    # so one c per (a, b, d): for word 0, the states with a+c = 0 mod 16
    assert len(states) == 4096
    return states


@pytest.mark.parametrize(
    "params, ks, z",
    REFERENCE_CASES,
    ids=["random0", "random1", "random2", "flipped_last", "even_c", "half_word_at_17", "odd_word"],
)
def test_oracle_filter_matches_per_state_stream_walks(params, ks, z):
    # the reference walks each state with the word at z as its output
    # through the generator's stream (verify_state), which the oracle's array
    # filter does not use; window 0 keeps that whole output set, in the
    # scalar walk's order
    states = _states_with_output(ks.words[z])
    for window in (0, 1, 2, len(ks) - z - 1):
        expected = [st for st in states if verify_state(st, params, ks, z, window)]
        assert brute_force_consistent_states(ks, z, params, window).consistent_states == expected, window
    assert brute_force_consistent_states(ks, z, params, 0).consistent_states == states


def test_output_valuation_pins_the_inner_word():
    # ROADMAP item 13's rule at w=4, h=2, on x = (a + c) mod 16: nu2(O) >= h
    # exactly when x < 2^h, and then the valuation fixes x's low bits, so
    # O = 0 pins x = 0, O = 8 = 2^(w-1) pins x = 2, and O = 4, 12 leave
    # x in {1, 3}; the rule reads only the output word, so one constant
    # set is enough
    pinned = {0: {0}, 4: {1, 3}, 8: {2}, 12: {1, 3}}
    for word in range(16):
        states = brute_force_consistent_states(Keystream(W4, (word,)), 0, P4, 0).consistent_states
        inner = {(st.a + st.c) % 16 for st in states}
        if word in pinned:
            assert inner == pinned[word], word
        else:
            assert min(inner) >= 4, word


def _check_random_constants_against_oracle(spec, seed, n_sets, n_words):
    # trivial mode, dfs mode, and dfs mode on the scalar twin of the
    # standard instance (walk through t1 and the instance output)
    rng = SplitMix64(seed)
    size = 1 << spec.width
    for _ in range(n_sets):
        params = Tf1Params(rng.below(size), rng.below(size), rng.below(size) | 1, spec)
        inst = tf1_instance(params)
        twin = dataclasses.replace(inst)
        ks = generate(state_from_seed(rng.next64(), spec), params, n_words)
        while not find_zero_outputs(Keystream(spec, ks.words[:-1]), 1):
            ks = generate(state_from_seed(rng.next64(), spec), params, n_words)
        reports = [
            recover(ks, instance, cfg=AttackConfig(enumeration_mode=mode))
            for instance, mode in ((inst, "trivial"), (inst, "dfs"), (twin, "dfs"))
        ]
        oracle = brute_force_consistent_states(ks, reports[0].zero_index, params, reports[0].verified_words)
        assert all(compare_with_report(report, oracle) for report in reports)


def test_attack_matches_oracle_over_random_constants():
    _check_random_constants_against_oracle(W4, 2026, 24, 512)


@pytest.mark.slow
def test_attack_matches_oracle_over_random_constants_w6():
    # opt-in (pytest -m slow): a 2^24-state oracle scan per set
    _check_random_constants_against_oracle(WordSpec(6), 2027, 26, 1024)


@pytest.mark.parametrize(
    "w, seed, count, zero_index, states",
    [
        (4, 2, 1024, 0, ["5:4:b:0", "5:c:b:8", "d:4:3:0", "d:c:3:8"]),
        pytest.param(
            6, 1, 4096, 41, ["19:0c:27:3a", "19:2c:27:1a", "39:0c:07:3a", "39:2c:07:1a"],
            marks=pytest.mark.slow,  # a 2^24-state scan, about 1 s
        ),
    ],
)
def test_c_equal_to_one_leaves_four_states(w, seed, count, zero_index, states):
    # named cases with several states: with C = 1 and the default C1 and
    # C3, both modes and the oracle list the same four
    spec = WordSpec(w)
    params = dataclasses.replace(default_params(spec), c=1)
    ks = generate(state_from_seed(seed, spec), params, count)
    for mode in ("trivial", "dfs"):
        report = recover(ks, tf1_instance(params), cfg=AttackConfig(enumeration_mode=mode))
        assert report.zero_index == zero_index
        assert [format_state(st, spec) for st in report.recovered] == states
    oracle = brute_force_consistent_states(ks, zero_index, params, report.verified_words)
    assert [format_state(st, spec) for st in oracle.consistent_states] == states


def test_oracle_finishing_on_ints_keeps_its_states(monkeypatch):
    # A chunk steps its states as arrays until at most _FEW are left, then
    # finishes each on plain ints.  _FEW = 0 keeps them on arrays to the end
    # of the window, and at w=4 a huge _FEW steps all 65536 states on ints
    # from the first word; the states, in their order, must not differ.  On
    # the seed-1 stream over windows 0, 1 and 2 and the whole tail (window 0
    # leaves 4096 states), and over the whole tail at C = 1, with its four
    # states.  At w=6 all 2^24 states on ints would take about 25 s, so
    # there _FEW = 2^11 finishes every chunk on ints after its first word,
    # on a stream cut 200 words after its zero.
    ks, zero, _ = make_run(1)
    c1 = dataclasses.replace(P4, c=1)
    w4 = [(ks, zero, P4, window) for window in (0, 1, 2, len(ks) - zero - 1)]
    w4.append((generate(state_from_seed(2, W4), c1, 1024), 0, c1, 1023))
    w6 = WordSpec(6)
    p6 = default_params(w6)
    ks6 = generate(state_from_seed(2, w6), p6, 4096)
    zero6 = find_zero_outputs(ks6, 1)[0]
    w6_case = (Keystream(w6, ks6.words[: zero6 + 201]), zero6, p6, 200)
    for case, few in [(case, 1 << 30) for case in w4] + [(w6_case, 1 << 11)]:
        got = []
        for value in (0, few):
            monkeypatch.setattr(oracle, "_FEW", value)
            got.append(brute_force_consistent_states(*case).consistent_states)
        assert got[0] == got[1], case[1:]
    assert len(got[0]) == 1 and len(brute_force_consistent_states(*w4[-1]).consistent_states) == 4


def test_compare_with_report():
    ks, _, _ = make_run(3)
    report = recover(ks, tf1_instance(P4))
    oracle = brute_force_consistent_states(ks, report.zero_index, P4, report.verified_words)
    assert compare_with_report(report, oracle)

    extra = dataclasses.replace(
        report, recovered=report.recovered + (State(0, 0, 0, 0),)
    )
    assert not compare_with_report(extra, oracle)

    with pytest.raises(ValueError):
        compare_with_report(dataclasses.replace(report, verified_words=1), oracle)
    with pytest.raises(ValueError):
        compare_with_report(dataclasses.replace(report, zero_index=0), oracle)


def test_compare_empty_sets_match():
    # corrupt the word right after the zero but keep the long true tail: no
    # state can match both, so the consistent set is empty
    ks, zero, _ = make_run(1)
    words = list(ks.words)
    words[zero + 1] = (words[zero + 1] ^ 0x9) or 0x5
    broken = Keystream(W4, tuple(words))
    window = len(broken) - zero - 1
    oracle = brute_force_consistent_states(broken, zero, P4, window)
    assert oracle.consistent_states == []
    ref = recover(ks, tf1_instance(P4))
    empty_report = dataclasses.replace(
        ref, recovered=(), zero_index=zero, verified_words=window
    )
    assert compare_with_report(empty_report, oracle)


@pytest.mark.slow
def test_oracle_certifies_the_w8_stream():
    # opt-in (pytest -m slow): all 2^32 states of w=8, about 25 s.  The
    # seed-1 stream's first zero word and the 16 words after it leave one
    # state, the one recover finds.
    w8 = WordSpec(8)
    p8 = default_params(w8)
    ks = generate(state_from_seed(1, w8), p8, 4096)
    zero = find_zero_outputs(ks, 1)[0]
    oracle = brute_force_consistent_states(ks, zero, p8, 16)
    assert [format_state(st, w8) for st in oracle.consistent_states] == ["88:55:78:05"]
    assert recover(ks, tf1_instance(p8)).recovered == tuple(oracle.consistent_states)
