import dataclasses

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
from tf1crack.oracle import (
    BudgetExceeded,
    OracleResult,
    brute_force_consistent_states,
    compare_with_report,
    _scan_zero_states_chunked,
    _scan_zero_states_scalar,
)
from tf1crack.rng import SplitMix64

from helpers import roll_forward

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
    ks, zero, _ = make_run(1)
    with pytest.raises(ValueError):
        brute_force_consistent_states(ks, zero, P4, len(ks) - zero)  # window too long
    with pytest.raises(ValueError):
        brute_force_consistent_states(ks, zero + 1, P4, 1)  # not a zero word there
    with pytest.raises(ValueError):
        brute_force_consistent_states(ks, zero, default_params(WordSpec(16)), 1)
    with pytest.raises(BudgetExceeded):
        w8 = WordSpec(8)
        ks8 = Keystream(w8, (0, 1, 2))
        brute_force_consistent_states(ks8, 0, default_params(w8), 1)


def test_zero_scan_strategies_agree():
    scalar = list(_scan_zero_states_scalar(W4))
    chunked = list(_scan_zero_states_chunked(W4))
    assert scalar == chunked
    assert len(scalar) == 4096  # one c per (a, b, d): states with a+c = 0 mod 16


def _check_random_constants_against_oracle(spec, seed, n_sets, n_words, budget=None):
    # trivial mode, dfs mode and the scalar twin of the standard instance
    rng = SplitMix64(seed)
    size = 1 << spec.width
    for _ in range(n_sets):
        params = Tf1Params(rng.below(size), rng.below(size), rng.below(size) | 1, spec)
        inst = tf1_instance(params)
        twin = dataclasses.replace(inst, tf1_native=False)
        ks = generate(state_from_seed(rng.next64(), spec), params, n_words)
        while not find_zero_outputs(Keystream(spec, ks.words[:-1]), 1):
            ks = generate(state_from_seed(rng.next64(), spec), params, n_words)
        reports = [
            recover(ks, instance, cfg=AttackConfig(enumeration_mode=mode))
            for instance, mode in ((inst, "trivial"), (inst, "dfs"), (twin, "trivial"))
        ]
        oracle = brute_force_consistent_states(
            ks, reports[0].zero_index, params, reports[0].verified_words, budget
        )
        assert all(compare_with_report(report, oracle) for report in reports)


def test_attack_matches_oracle_over_random_constants():
    _check_random_constants_against_oracle(W4, 2026, 24, 512)


@pytest.mark.slow
def test_attack_matches_oracle_over_random_constants_w6():
    # opt-in (pytest -m slow): a 2^24-state oracle scan per set
    _check_random_constants_against_oracle(WordSpec(6), 2027, 13, 1024, budget=1 << 24)


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
