import dataclasses

import numpy as np
import pytest

from tf1crack import (
    Keystream,
    State,
    WordSpec,
    default_params,
    demo_generalized_instance,
    generate,
    state_from_seed,
    tf1_instance,
)
from tf1crack.rng import SplitMix64, mix64, trial_draws, trial_rng
from tf1crack.tfcheck import (
    PropertyReport,
    check_tfunction_property,
    check_truncation_consistency,
    zero_frequency,
)

W4 = WordSpec(4)
W8 = WordSpec(8)


def test_property_report_invariants():
    with pytest.raises(ValueError):
        PropertyReport(trials=1, failures=2)
    with pytest.raises(ValueError):
        PropertyReport(trials=5, failures=1)  # failure without witness
    with pytest.raises(ValueError):
        PropertyReport(trials=5, failures=0, first_witness=(1, 2))
    assert PropertyReport(trials=5, failures=0).ok


@pytest.mark.parametrize("target", ["t1", "t2", "t2_demo"])
def test_tfunction_property_holds(target):
    params = default_params(W8)
    report = check_tfunction_property(target, W8, params, 3_000, rng_seed=1)
    assert report.ok and report.trials == 3_000


def test_tfunction_property_catches_breakage():
    params = default_params(W8)
    broken = lambda st: State(st.a >> 1, st.b >> 1, st.c >> 1, st.d >> 1)
    report = check_tfunction_property(broken, W8, params, 2_000, rng_seed=1)
    # pinned: moving any trial's draws changes these
    assert report.failures == 1662
    assert report.first_witness == (State(114, 71, 167, 44), State(98, 247, 103, 188), 4)


def test_tfunction_property_deterministic():
    params = default_params(W8)
    a = check_tfunction_property("t1", W8, params, 500, rng_seed=9)
    b = check_tfunction_property("t1", W8, params, 500, rng_seed=9)
    assert a == b


def test_tfunction_property_rejects_bad_args():
    params = default_params(W8)
    with pytest.raises(ValueError):
        check_tfunction_property("t3", W8, params, 10, 1)
    with pytest.raises(ValueError):
        check_tfunction_property("t1", W8, params, 0, 1)
    # a bool is no count, and a float no int, for either check
    inst = tf1_instance(params)
    for bad in (True, False, 2.5):
        with pytest.raises(ValueError, match=f"trials must be an int, got {bad!r}"):
            check_tfunction_property("t1", W8, params, bad, 1)
        with pytest.raises(ValueError, match=f"trials must be an int, got {bad!r}"):
            check_truncation_consistency(inst, W8, bad, 1)
    for target in ("t1", "t2", "t2_demo"):
        with pytest.raises(ValueError, match="params were built for a different word spec"):
            check_tfunction_property(target, WordSpec(16), params, 10, 1)


def test_trial_streams_are_partition_stable():
    # stream i depends only on (seed, i), so any worker split replays identically
    seqs = [[trial_rng(7, i).next64() for _ in range(4)] for i in range(10)]
    assert [[trial_rng(7, i).next64() for _ in range(4)] for i in range(5, 10)] == seqs[5:]
    assert mix64(1) != mix64(2)
    assert SplitMix64(3).next64() == SplitMix64(3).next64()
    # the bulk draws are the per-trial streams, transposed
    seed = (1 << 64) - 1
    streams = [trial_rng(seed, i) for i in range(3, 40)]
    assert trial_draws(seed, 3, 40, 9) == [[rng.next64() for rng in streams] for _ in range(9)]
    words = [0, 1, 1 << 63, (1 << 63) + 12345, (1 << 64) - 1]
    array = np.array(words, dtype=np.uint64)
    array.flags.writeable = False  # mix64 must not write to its input
    assert mix64(array).tolist() == [mix64(v) for v in words]
    with pytest.raises(ValueError, match="bound must be positive"):
        SplitMix64(1).below(0)


def test_truncation_consistency_holds():
    for spec in (W8, WordSpec(16)):
        params = default_params(spec)
        for inst in (tf1_instance(params), demo_generalized_instance(spec, params)):
            report = check_truncation_consistency(inst, spec, 3_000, rng_seed=2)
            assert report.ok


def test_truncation_consistency_catches_a_map_that_is_not_a_tfunction():
    # column k of this t2 reads column k+1 of b, which a truncation drops
    inst = dataclasses.replace(
        tf1_instance(default_params(W8)), t2_words=lambda a, b, c, d, m: ((a + c) & m) ^ (b >> 1)
    )
    report = check_truncation_consistency(inst, W8, 2_000, rng_seed=1)
    assert report.failures == 877
    x, l = report.first_witness
    assert (x, l) == (State(190, 133, 227, 253), 7)
    m = (1 << l) - 1
    low = [v & m for v in x.words()]
    assert inst.t2_words(*low, m) != inst.t2(x) & m


def test_truncation_consistency_spec_mismatch():
    params = default_params(W8)
    with pytest.raises(ValueError):
        check_truncation_consistency(tf1_instance(params), WordSpec(16), 10, 1)


def test_zero_frequency_examples():
    assert zero_frequency(Keystream(W8, (3, 0, 7, 0))) == (2, 0.5)
    assert zero_frequency(Keystream(W8, (3, 7, 9)))[0] == 0
    with pytest.raises(ValueError):
        zero_frequency(Keystream(W8, ()))


def test_zero_frequency_of_generated_stream():
    params = default_params(W8)
    ks = generate(state_from_seed(2, W8), params, 200_000)
    zeros, rate = zero_frequency(ks)
    # expectation 200000/256 = 781, generous band
    assert 580 <= zeros <= 1000
    assert rate == zeros / 200_000
