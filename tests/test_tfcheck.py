import dataclasses
import re

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
    tfcheck,
)
from tf1crack.rng import SplitMix64, mix64, trial_draws, trial_rng
from tf1crack.tfcheck import (
    PropertyReport,
    check_tfunction_property,
    check_truncation_consistency,
    zero_frequency,
)

from helpers import reference_tfunction_reports, reference_truncation_reports

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
    assert trial_draws(seed, 3, 40, 9).tolist() == [[rng.next64() for rng in streams] for _ in range(9)]
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
    assert inst.t2_words(*low, m) != inst.t2_words(*x.words(), W8.mask) & m


def _shift_state(st):
    return State(st.a >> 1, st.b >> 1, st.c >> 1, st.d >> 1)


def _shifted_t2_instance():
    # column k of this t2 reads column k+1 of b, which a truncation drops
    return dataclasses.replace(
        tf1_instance(default_params(W8)), t2_words=lambda a, b, c, d, m: ((a + c) & m) ^ (b >> 1)
    )


def _witness_ints(witness):
    """Every word of a witness and its column count, flattened."""
    return [v for part in witness for v in (part.words() if isinstance(part, State) else (part,))]


# uint8 words narrower than their dtype, and uint64 words, where low_mask(64)
# is the whole word; every other even width runs with -m slow
@pytest.mark.parametrize(
    "w", [pytest.param(w, marks=() if w in (4, 64) else pytest.mark.slow) for w in range(4, 65, 2)]
)
def test_batched_checks_match_the_per_trial_reference(w):
    spec = WordSpec(w)
    params = default_params(spec)
    counts = (1, 2_000, 4_097)  # one trial, one batch and part of one, two batches and one trial
    for seed in (0, 1, w, (1 << 64) - 1):
        for target in ("t1", "t2", "t2_demo"):
            want = reference_tfunction_reports(target, spec, params, counts, seed)
            assert [check_tfunction_property(target, spec, params, n, seed) for n in counts] == want
        for inst in (tf1_instance(params), demo_generalized_instance(spec, params)):
            want = reference_truncation_reports(inst, spec, counts, seed)
            assert [check_truncation_consistency(inst, spec, n, seed) for n in counts] == want


def test_broken_targets_match_the_reference_across_batches(monkeypatch):
    params = default_params(W8)
    inst = _shifted_t2_instance()
    counts = (1, 10, 2_000)
    want_tf = reference_tfunction_reports(_shift_state, W8, params, counts, 1)
    want_tr = reference_truncation_reports(inst, W8, counts, 1)
    assert (want_tf[-1].failures, want_tr[-1].failures) == (1662, 877)
    for batch in (1, 3, 7, tfcheck._BATCH):
        monkeypatch.setattr(tfcheck, "_BATCH", batch)
        got_tf = [check_tfunction_property(_shift_state, W8, params, n, 1) for n in counts]
        got_tr = [check_truncation_consistency(inst, W8, n, 1) for n in counts]
        assert (got_tf, got_tr) == (want_tf, want_tr)
        # State(np.uint8(114), ...) == State(114, ...), so equality alone
        # would pass numpy scalars
        for report in (*got_tf, *got_tr):
            if report.first_witness is not None:
                assert all(type(v) is int for v in _witness_ints(report.first_witness))


def test_rng_seed_must_be_an_int_reduced_mod_2_64():
    params = default_params(W8)
    inst = _shifted_t2_instance()
    for bad in (2.5, "1", True, np.uint64(5)):
        message = re.escape(f"rng_seed must be an int, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            check_tfunction_property("t1", W8, params, 10, bad)
        with pytest.raises(ValueError, match=message):
            check_truncation_consistency(inst, W8, 10, bad)
    # the seed is taken mod 2**64, as it always was
    checks = (
        lambda seed: check_tfunction_property(_shift_state, W8, params, 300, seed),
        lambda seed: check_truncation_consistency(inst, W8, 300, seed),
    )
    for seed, same in ((-1, (1 << 64) - 1), (1 << 70, 0)):
        for check in checks:
            report = check(seed)
            assert report == check(same) and report.failures > 0


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
