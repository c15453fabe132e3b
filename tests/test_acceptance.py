"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with its measured values.  Tolerances are pinned here, not
tuned at runtime.
"""

import statistics
import time

from tf1crack import (
    AttackConfig,
    AttackError,
    InsufficientTail,
    NeedMoreKeystream,
    State,
    WordSpec,
    default_params,
    demo_generalized_instance,
    find_zero_outputs,
    generate,
    predicted_work,
    recover,
    state_from_seed,
    tf1_instance,
    verify_state,
)
from tf1crack import attack
from tf1crack.attack import enumerate_preimages_dfs
from tf1crack.generator import instance_output, state_prefix
from tf1crack.oracle import brute_force_consistent_states, compare_with_report
from tf1crack.rng import SplitMix64
from tf1crack.tfcheck import (
    check_tfunction_property,
    check_truncation_consistency,
    zero_frequency,
)

from helpers import lanes, random_states, report_core, roll_forward

W4 = WordSpec(4)
W8 = WordSpec(8)
W16 = WordSpec(16)


def _verdict(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_zero_output_characterization():
    inst = tf1_instance(default_params(W4))
    start = time.perf_counter()
    exceptions = 0
    for a in range(16):
        for b in range(16):
            for c in range(16):
                zero_sum = (a + c) & 0xF == 0
                for d in range(16):
                    if (instance_output(State(a, b, c, d), inst) == 0) != zero_sum:
                        exceptions += 1
    elapsed = time.perf_counter() - start
    ok = exceptions == 0 and elapsed < 1.0
    _verdict(1, ok, f"65536 states, {exceptions} exceptions, {elapsed:.2f}s (< 1s)")


def test_criterion_02_tfunction_and_truncation():
    start = time.perf_counter()
    failures = 0
    for width in (8, 16, 32, 64):
        spec = WordSpec(width)
        params = default_params(spec)
        for target in ("t1", "t2", "t2_demo"):
            failures += check_tfunction_property(target, spec, params, 10_000, rng_seed=width).failures
        for inst in (tf1_instance(params), demo_generalized_instance(spec, params)):
            failures += check_truncation_consistency(inst, spec, 10_000, rng_seed=width + 1).failures
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    _verdict(2, ok, f"10^4 trials x 3 targets + 2 instances x widths {{8,16,32,64}}, "
                    f"{failures} failures, {elapsed:.2f}s (< 5s)")


def test_criterion_03_lsb_bridge():
    start = time.perf_counter()
    mismatches = 0
    for spec, seed in ((W8, 101), (W16, 102)):
        params = default_params(spec)
        inst = tf1_instance(params)
        k = spec.half + 1
        states = list(random_states(spec, seed, 10_000))
        batch = attack._to_arrays(spec, [state_prefix(st, k).words() for st in states])
        lsbs = [instance_output(inst.t1(st), inst) & 1 for st in states]
        # the attack's filter on one tail bit keeps exactly the prefixes
        # whose next output has that LSB
        for bit in (0, 1):
            kept = set(attack._filter(inst, batch, k, [bit])[0].tolist())
            mismatches += len(kept ^ {i for i, lsb in enumerate(lsbs) if lsb == bit})
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 2.0
    _verdict(3, ok, f"10^4 prefixes at w in {{8,16}}, {mismatches} mismatches, "
                    f"{elapsed:.2f}s (< 2s)")


def test_criterion_04_oracle_certification_w4():
    params = default_params(W4)
    inst = tf1_instance(params)
    start = time.perf_counter()
    seed_stream = SplitMix64(2024)
    agreed = 0
    runs = 0
    while runs < 20:
        seed = seed_stream.next64()
        ks = generate(state_from_seed(seed, W4), params, 512)
        if not find_zero_outputs(ks, 1):
            continue  # regenerate: this seed produced no zero word
        runs += 1
        report = recover(ks, inst)
        oracle = brute_force_consistent_states(ks, report.zero_index, params, report.verified_words)
        agreed += compare_with_report(report, oracle)
    elapsed = time.perf_counter() - start
    ok = agreed == 20 and elapsed < 30.0
    _verdict(4, ok, f"{agreed}/20 runs match the exhaustive oracle, {elapsed:.2f}s (< 30s)")


def test_criterion_05_end_to_end_w8():
    params = default_params(W8)
    inst = tf1_instance(params)
    seed_stream = SplitMix64(77)
    successes = 0
    timings = []
    allowed_failures = 0
    for _ in range(100):
        seed = seed_stream.next64()
        origin = state_from_seed(seed, W8)
        ks = generate(origin, params, 8192)
        t0 = time.perf_counter()
        try:
            report = recover(ks, inst)
        except (NeedMoreKeystream, InsufficientTail):
            allowed_failures += 1
            continue
        timings.append(time.perf_counter() - t0)
        truth = roll_forward(origin, params, report.zero_index + 1)
        tail = len(ks) - report.zero_index - 1
        if truth in report.recovered and all(
            verify_state(st, params, ks, report.zero_index, tail) for st in report.recovered
        ):
            successes += 1
    median = statistics.median(timings) if timings else float("inf")
    ok = successes >= 95 and median < 1.0
    _verdict(5, ok, f"{successes}/100 recoveries (allowed misses: {allowed_failures}), "
                    f"median {median * 1000:.0f}ms (< 1s)")


def test_criterion_06_work_factor_w16():
    params = default_params(W16)
    inst = tf1_instance(params)
    # documented stream seed: 1 (first zero well inside 2^18 words)
    origin = state_from_seed(1, W16)
    ks = generate(origin, params, 1 << 18)
    assert find_zero_outputs(ks, 1), "documented seed must contain a zero word"
    t0 = time.perf_counter()
    report = recover(ks, inst)
    wall = time.perf_counter() - t0
    c = report.counters
    mean_steps = c.stage1_filter_steps / c.stage1_candidates
    total = c.total_operations()
    predicted = predicted_work(W16)
    checks = {
        "stage1_candidates == 2^27": c.stage1_candidates == 1 << 27,
        "mean steps in [1.5, 3.0]": 1.5 <= mean_steps <= 3.0,
        "stage2 = survivors * 2^21": c.stage2_candidates == c.stage1_survivors * (1 << 21),
        "total within 4x of 2^28": predicted / 4 <= total <= predicted * 4,
        "wall <= 300s": wall <= 300.0,
        "truth recovered": roll_forward(origin, params, report.zero_index + 1)
        in report.recovered,
    }
    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    _verdict(6, ok, f"candidates={c.stage1_candidates}, mean_steps={mean_steps:.3f}, "
                    f"survivors={c.stage1_survivors}, total_ops={total} "
                    f"({total / predicted:.2f}x predicted), wall={wall:.1f}s"
                    + (f"; FAILED: {failed}" if failed else ""))


def test_criterion_07_zero_frequency_w8():
    params = default_params(W8)
    # documented stream seed: 1
    ks = generate(state_from_seed(1, W8), params, 1_000_000)
    zeros, _ = zero_frequency(ks)
    ok = 3400 <= zeros <= 4450
    _verdict(7, ok, f"{zeros} zeros in 10^6 words (band [3400, 4450], mean 3906)")


def test_criterion_08_enumerator_equivalence():
    params4 = default_params(W4)
    inst = tf1_instance(params4)
    k = W4.half + 1
    ok_tf1 = True
    for target in (0, 3, 5, 6):
        # trivial mode's candidates: the lane kernel on an empty tail keeps
        # all, with no filter step; as sorted lists, so a repeated row fails
        dfs = sorted(p.words() for p in enumerate_preimages_dfs(inst, 1, k, None, target))
        ok_tf1 = ok_tf1 and len(dfs) == 1 << (3 * k)
        ok_tf1 = ok_tf1 and lanes(0, 8, k, params4, target, []) == (dfs, 0, 1 << (3 * k))
    demo = demo_generalized_instance(W4, params4)
    rng = SplitMix64(88)
    ok_demo = True
    for _ in range(5):
        target = rng.below(16)
        brute = set()
        for a in range(16):
            for b in range(16):
                for c in range(16):
                    for d in range(16):
                        if demo.t2(State(a, b, c, d)) == target:
                            brute.add((a, b, c, d))
        dfs = {p.words() for p in enumerate_preimages_dfs(demo, 1, 4, None, target)}
        ok_demo = ok_demo and dfs == brute
    ok = ok_tf1 and ok_demo
    _verdict(8, ok, f"trivial==dfs for targets {{0,3,5,6}} at w=4: {ok_tf1}; "
                    f"demo dfs==brute force for 5 random targets: {ok_demo}")


def test_criterion_09_extrapolated_work():
    ok = (
        predicted_work(WordSpec(32)) == 1 << 52
        and predicted_work(WordSpec(64)) == 1 << 100
        and predicted_work(W16) == 1 << 28
    )
    # the w=32 run would need a 2^32-word (16 GiB) keystream and the w=64 run
    # is out of reach entirely; both are covered by the formula alone, with
    # measured-counter agreement established at w in {8,16} by criteria 5/6
    _verdict(9, ok, f"predicted_work: w=32 -> 2^52, w=64 -> 2^100, w=16 -> 2^28")


def test_criterion_10_parallel_determinism_w8():
    params = default_params(W8)
    inst = tf1_instance(params)
    ks = generate(state_from_seed(42, W8), params, 8192)
    reports = [recover(ks, inst, cfg=AttackConfig(workers=n)) for n in (1, 2, 8)]
    cores = [report_core(r) for r in reports]
    ok = cores[0] == cores[1] == cores[2]
    _verdict(10, ok, f"reports for workers 1/2/8 identical (excluding elapsed): {ok}")
