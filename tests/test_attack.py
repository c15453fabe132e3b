import dataclasses
import multiprocessing
import os
import platform
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from tf1crack import _native, attack
from tf1crack import (
    AttackConfig,
    InsufficientTail,
    KernelBuildError,
    Keystream,
    NeedMoreKeystream,
    ParamsMismatch,
    State,
    SurvivorOverflow,
    Tf1Params,
    WordSpec,
    default_params,
    demo_generalized_instance,
    find_zero_outputs,
    generate,
    generate_from_instance,
    predicted_work,
    recover,
    state_from_seed,
    tf1_instance,
    verify_state,
)
from tf1crack.attack import enumerate_preimages_dfs, stage2_complete
from tf1crack.generator import ColumnPrefix, instance_output, state_prefix
from tf1crack.rng import SplitMix64
from tf1crack.word import low_mask, word_dtype

from helpers import (
    lane_filter,
    lanes,
    prefix_rows,
    random_states,
    report_core,
    roll_forward,
    states_with_inner_word,
)

W4 = WordSpec(4)
W8 = WordSpec(8)

P4 = default_params(W4)
P8 = default_params(W8)


def make_run(spec, params, seed, n):
    """Keystream plus the true post-update state at its first zero."""
    start = state_from_seed(seed, spec)
    ks = generate(start, params, n)
    zeros = find_zero_outputs(ks, 1)
    assert zeros, "keystream seed must be chosen so a zero occurs"
    true_state = roll_forward(start, params, zeros[0] + 1)
    return ks, zeros[0], true_state


def test_find_zero_outputs(monkeypatch):
    ks = Keystream(W8, (3, 0x10, 0, 7))
    assert find_zero_outputs(ks) == [2]
    assert find_zero_outputs(Keystream(W8, (3, 1, 9))) == []
    assert find_zero_outputs(Keystream(W8, (0, 0)), limit=1) == [0]
    assert find_zero_outputs(Keystream(W8, (0, 1, 0, 0)), limit=2) == [0, 2]
    assert find_zero_outputs(Keystream(W8, (1, 0)), limit=5) == [1]
    with pytest.raises(ValueError, match="limit must be >= 1"):
        find_zero_outputs(ks, limit=0)
    # against a plain scan, zeros at both ends included
    rng = SplitMix64(3)
    words = (0, *(rng.next64() & 3 for _ in range(500)), 0)
    every = [i for i, word in enumerate(words) if word == 0]
    ks = Keystream(W4, words)
    assert find_zero_outputs(ks) == every
    for limit in (1, 2, 7, len(every), len(every) + 1):
        assert find_zero_outputs(ks, limit) == every[:limit]
    # the scan reads _WORKING words at a time: zeros on the slices' edges
    # and at both ends, with every limit up to one past their count
    for working in (1, 3, 64):
        monkeypatch.setattr(attack, "_WORKING", working)
        assert find_zero_outputs(ks) == every
        for limit in (1, 2, 7, len(every), len(every) + 1):
            assert find_zero_outputs(ks, limit) == every[:limit]
        edges = sorted({0, working - 1, working, 2 * working - 1, 2 * working, 199})
        on_edges = Keystream(W4, [0 if i in edges else 5 for i in range(200)])
        for limit in (None, *range(1, len(edges) + 2)):
            assert find_zero_outputs(on_edges, limit) == edges[:limit], (working, limit)


def test_find_zero_outputs_stops_at_the_limit():
    # a zero near the front of a 2^20-word stream: the scan holds one slice
    # of _WORKING words, not a mask of the whole stream (1 MB at w=16)
    words = np.ones(1 << 20, np.uint16)
    words[5] = 0
    ks = Keystream(WordSpec(16), words)
    tracemalloc.start()
    try:
        assert find_zero_outputs(ks, 1) == [5]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 17, peak


def _unfiltered(spec, params, x):
    """Trivial mode's stage-1 candidates at inner word x, as the lane kernel
    keeps them on an empty tail: (four prefix arrays, steps, candidates)."""
    k = spec.half + 1
    part = _native.stage1(spec.width, k, params.c1, params.c3, params.c, x, [], attack._WORKING)
    batches = list(part(0, 1 << (3 * (k - 2))))
    prefixes = attack._concat(spec, [sv for sv, _, _ in batches])
    return prefixes, sum(b[1] for b in batches), sum(b[2] for b in batches)


def _check_unfiltered(spec, x):
    # 2^(3k) distinct k-column prefixes with (a + c) mod 2^k = x, at no cost
    k = spec.half + 1
    prefixes, steps, cands = _unfiltered(spec, default_params(spec), x)
    a, b, c, d = (v.astype(np.uint64) for v in prefixes)
    assert steps == 0 and cands == a.size == 1 << (3 * k)
    assert all(int(v.max()) >> k == 0 for v in (a, b, c, d))
    assert np.unique(a << (3 * k) | b << (2 * k) | c << k | d).size == a.size
    assert np.all((a + c) & low_mask(k) == x & low_mask(k))


def test_trivial_preimages_count_and_constraint():
    _check_unfiltered(W8, 0)


def test_trivial_preimages_nonzero_target():
    # a random x at w=10, whose columns above k also enter c = x - a
    x = SplitMix64(1010).below(1 << 10)
    assert x & low_mask(6) and x >> 6
    _check_unfiltered(WordSpec(10), x)


@pytest.mark.parametrize("target", [0, 3, 5])
def test_dfs_equals_trivial_for_additive_t2(target):
    # the lane kernel on an empty tail keeps every candidate; at w=6 and w=8
    # the lower prefix has 2 and 3 columns, so the borrow of c = target - a
    # into column U runs over more than one column (criterion 08 is w=4)
    for spec in (WordSpec(6), W8):
        params = default_params(spec)
        k = spec.half + 1
        dfs = sorted(p.words() for p in enumerate_preimages_dfs(tf1_instance(params), 1, k, None, target))
        assert lanes(0, 1 << (3 * (k - 2)), k, params, target, []) == (dfs, 0, 1 << (3 * k))


def test_dfs_equals_brute_force_for_demo_instance(monkeypatch):
    # in depth-first order: ascending in the (a, b, c, d) bits of column 0,
    # then of column 1, and so on; also with the frontier split into pieces
    # of 64 prefixes
    inst = demo_generalized_instance(W4, P4)

    def dfs_key(words):
        return [(v >> j) & 1 for j in range(4) for v in words]

    for target in (0, 6, 11):
        brute = []
        for a in range(16):
            for b in range(16):
                for c in range(16):
                    for d in range(16):
                        if inst.t2_words(a, b, c, d, W4.mask) == target:
                            brute.append((a, b, c, d))
        brute.sort(key=dfs_key)
        assert len(brute) == 1 << 12
        dfs = [p.words() for p in enumerate_preimages_dfs(inst, 1, 4, None, target)]
        assert dfs == brute
        with monkeypatch.context() as patch:
            patch.setattr(attack, "_WORKING", 512)
            assert [p.words() for p in enumerate_preimages_dfs(inst, 1, 4, None, target)] == brute


def test_dfs_branching_factor_is_half_the_extensions():
    # leaves = 8^k means exactly 2^3 of the 2^4 extensions survive per column
    inst = tf1_instance(P4)
    for k in (1, 2, 3):
        assert sum(1 for _ in enumerate_preimages_dfs(inst, 1, k, None, 0)) == 8**k


def test_dfs_with_known_prefix():
    inst = tf1_instance(P4)
    whole = {p.words() for p in enumerate_preimages_dfs(inst, 1, 3, None, 0)}
    rebuilt = set()
    for root in enumerate_preimages_dfs(inst, 1, 1, None, 0):
        for p in enumerate_preimages_dfs(inst, 2, 3, known=root, target=0):
            rebuilt.add(p.words())
    assert rebuilt == whole


def test_dfs_validation():
    inst = tf1_instance(P4)
    with pytest.raises(ValueError):
        list(enumerate_preimages_dfs(inst, 0, 3))
    with pytest.raises(ValueError):
        list(enumerate_preimages_dfs(inst, 2, 1, known=ColumnPrefix(1, 0, 0, 0, 0)))
    with pytest.raises(ValueError):
        list(enumerate_preimages_dfs(inst, 2, 3))  # missing known prefix
    with pytest.raises(ValueError):
        list(enumerate_preimages_dfs(inst, 1, 3, known=ColumnPrefix(1, 0, 0, 0, 0)))
    with pytest.raises(ValueError):
        # (a+c) bit 1 is 1, target bit 1 is 0
        list(enumerate_preimages_dfs(inst, 2, 3, known=ColumnPrefix(1, 1, 0, 0, 0)))
    for target, shown in ((16, "0x10"), (-1, "-0x1")):
        with pytest.raises(ValueError, match=f"target {shown} does not fit in 4 columns"):
            list(enumerate_preimages_dfs(inst, 1, 4, target=target))


def test_filter_candidate_true_state_survives():
    # the truth's k columns pass the filter at one step a tail bit, for the
    # standard generator and the demo instance
    k = W8.half + 1
    for inst in (tf1_instance(P8), demo_generalized_instance(W8, P8)):
        for truth in random_states(W8, 71, 4):
            tail = [word & 1 for word in generate_from_instance(truth, inst, 40).words]
            batch = attack._to_arrays(W8, [state_prefix(truth, k).words()])
            for horizon in (1, 5, 15, 40):
                keep, steps = attack._filter(inst, batch, k, tail[:horizon])
                assert (keep.tolist(), steps) == ([0], horizon)


def test_filter_candidate_horizon_one_kills_about_half():
    # every trivial-mode candidate at w=8, and every demo-instance preimage
    # of zero on k columns: one tail bit keeps 40-60 % of them at one step
    # each, and the empty tail keeps them all at no cost
    ks, zero_index, _ = make_run(W8, P8, seed=7, n=8192)
    tail = [ks.words[zero_index + 1] & 1]
    k = W8.half + 1
    demo = demo_generalized_instance(W8, P8)
    demo_preimages = [p.words() for p in enumerate_preimages_dfs(demo, 1, k, None, 0)]
    for label, inst, batch in (
        ("tf1", tf1_instance(P8), _unfiltered(W8, P8, 0)[0]),
        ("demo", demo, attack._to_arrays(W8, demo_preimages)),
    ):
        n = batch[0].size
        keep, steps = attack._filter(inst, batch, k, [])
        assert (keep.tolist(), steps) == (list(range(n)), 0)
        keep, steps = attack._filter(inst, batch, k, tail)
        assert steps == n
        assert 0.40 <= keep.size / n <= 0.60, label


def test_verify_state():
    ks, zero_index, true_state = make_run(W4, P4, seed=1, n=512)
    tail = len(ks) - zero_index - 1
    assert verify_state(true_state, P4, ks, zero_index, min(tail, 30))
    bad = State(1, 0, 3, 0)  # a+c != 0, so it does not emit the zero word there
    assert not verify_state(bad, P4, ks, zero_index, 2)
    after = rf"the words after zero_index {zero_index}"
    for n_words in (tail + 1, -1):
        with pytest.raises(ValueError, match=rf"n_words {n_words} is outside 0\.\.{tail}, {after}"):
            verify_state(true_state, P4, ks, zero_index, n_words)
    for z in (-1, len(ks)):
        with pytest.raises(ValueError, match=rf"zero_index {z} is outside the keystream's 0\.\.511"):
            verify_state(true_state, P4, ks, z, 1)


def test_verify_state_rejects_words_outside_the_width():
    # the update rows read only the low w bits, so each of these states
    # would walk the tail exactly like the true one
    ks = generate(state_from_seed(5, W8), P8, 4096)
    report = recover(ks, tf1_instance(P8))
    (st,) = report.recovered
    z = report.zero_index
    tail = len(ks) - z - 1
    assert verify_state(st, P8, ks, z, tail)
    for bad, shown in (
        (State(st.a + 256, st.b, st.c - 256, st.d), f"a {st.a + 256:#x}"),
        (State(st.a - 256, st.b + 512, st.c, st.d), f"a {st.a - 256:#x}"),
        (State(st.a, st.b, st.c, st.d + 256), f"d {st.d + 256:#x}"),
    ):
        with pytest.raises(ValueError, match=f"{shown} out of range for width 8"):
            verify_state(bad, P8, ks, z, tail)


def test_verify_state_false_positive_rate():
    ks, zero_index, true_state = make_run(W8, P8, seed=3, n=4096)
    hits = 0
    for st in random_states(W8, 31, 10_000):
        if st == true_state:
            continue
        hits += verify_state(st, P8, ks, zero_index, 2)
    assert hits == 0


def test_verify_state_instance_path():
    inst = demo_generalized_instance(W4, P4)
    start = state_from_seed(11, W4)
    ks = generate_from_instance(start, inst, 512)
    zero_index = find_zero_outputs(ks, 1)[0]
    true_state = start
    for _ in range(zero_index + 1):
        true_state = inst.t1(true_state)
    assert verify_state(true_state, P4, ks, zero_index, 10, instance=inst)
    assert not verify_state(State(1, 0, 3, 0), P4, ks, zero_index, 2, instance=inst)


def test_verify_state_routes_agree(monkeypatch):
    # instance=None and the standard instance (its compiled stage 2 on the
    # one full-width prefix), its twin without the native flag and the
    # standard instance with no library (the column enumerator and the walk
    # through the word functions), at every window, the empty one included;
    # trivial-mode stage 2 against the twin's dfs-mode completion
    ks, zero_index, true_state = make_run(W8, P8, seed=3, n=4096)
    native = tf1_instance(P8)
    twin = dataclasses.replace(native)
    routes = (None, native, twin)
    tail = len(ks) - zero_index - 1

    def without_library(st, n_words):
        with monkeypatch.context() as patch:
            patch.setattr(_native, "_LIB", KernelBuildError("no library in this test"))
            return verify_state(st, P8, ks, zero_index, n_words, native)

    # random states with a+c = 0 emit the zero word, so every route walks the tail
    zero_emitters = list(states_with_inner_word(W8, 17, 1000, 0))
    for st in [true_state] + zero_emitters:
        for n_words in (tail, 2, 0):
            verdicts = {verify_state(st, P8, ks, zero_index, n_words, i) for i in routes}
            assert verdicts == {without_library(st, n_words)}, (st, n_words)
    assert verify_state(true_state, P8, ks, zero_index, tail, native)
    survivor = state_prefix(true_state, 5)
    assert stage2_complete(survivor, P8, native, ks, zero_index) == stage2_complete(
        survivor, P8, twin, ks, zero_index, AttackConfig(enumeration_mode="dfs")
    )


def _walk(state, inst, words, lo):
    """Stage 2 on ``state``, the emitter of words[lo], as one full-width
    prefix: (whether it reproduces words[lo+1 ..], verification steps)."""
    prefix = attack._to_arrays(inst.spec, [state.words()])
    x = inst.t2_words(*state.words(), inst.spec.mask)
    found, cands, verifs = attack._run_stage2(prefix, inst.spec.width, inst, words, lo, x)
    assert cands == 1 and found in ([], [state])
    return bool(found), verifs


def test_walk_tail_counts_the_words_it_computes():
    # Stage 2 on one full-width state, as verify_state runs it: (True, words
    # after lo) on a match, (False, j) at a mismatch at lo + j, for j = 1,
    # 2, the middle, tail - 1 and tail, so its verification steps are the
    # words the walk computes.  The standard generator walks compiled, on
    # its keystream's own words of 1, 2, 4 and 8 bytes; the demo instance
    # steps its word functions.  The empty tail, which the compiled entry
    # refuses, is verify_state's at n_words = 0.
    cases = [tf1_instance(default_params(WordSpec(w))) for w in (8, 16, 24, 64)]
    cases.append(demo_generalized_instance(W8, P8))
    for inst in cases:
        spec = inst.spec
        start = state_from_seed(21, spec)
        words = generate_from_instance(start, inst, 700).words
        emitters = [start]
        for _ in words:
            emitters.append(inst.t1(emitters[-1]))
        for tail in (690, 2, 1):
            lo = len(words) - 1 - tail  # emitters[i + 1] emits words[i]
            assert _walk(emitters[lo + 1], inst, words, lo) == (True, tail)
            for j in sorted({j for j in (1, 2, tail // 2, tail - 1, tail) if 1 <= j <= tail}):
                flipped = np.array(words)
                flipped[lo + j] ^= 1
                flipped = Keystream(spec, flipped).words
                assert _walk(emitters[lo + 1], inst, flipped, lo) == (False, j), (spec, tail, j)
        ks = Keystream(spec, words)
        assert verify_state(emitters[-1], inst.params, ks, len(words) - 1, 0, inst)


def test_a_wrong_walker_computes_few_words(monkeypatch):
    # A walker that first mismatches at word j of a 2^15-word tail computes
    # exactly j words.  The compiled walk's charge is j - 1, the words after
    # the first, stage 2 on the state as one full-width prefix counts j
    # verification steps, and no stream is computed for it: the spy refuses
    # any call of the stream entry.  The demo instance steps its update j
    # times.
    w16 = WordSpec(16)
    params = default_params(w16)
    start = state_from_seed(5, w16)
    words = np.array(generate(start, params, 1 + (1 << 15)).words)
    entries = _native._library()

    def spy(*args):
        raise AssertionError("the walk computed a stream")

    monkeypatch.setattr(_native, "_LIB", (entries[0], spy, entries[2]))
    inst = tf1_instance(params)
    state = inst.t1(start)
    prefix = tuple(np.array([v], np.uint64) for v in state.words())
    x = (state.a + state.c) & w16.mask
    demo = demo_generalized_instance(w16, params)
    demo_words = np.array(generate_from_instance(start, demo, 1 + (1 << 15)).words)
    steps = []

    def t1_words(*args):
        steps.append(1)
        return demo.t1_words(*args)

    counted = dataclasses.replace(demo, t1_words=t1_words)
    for j in (1, 2, 17, 1 << 14, (1 << 15) - 1, 1 << 15):
        flipped = words.copy()
        flipped[j] ^= 1
        assert _native.complete(16, params.c1, params.c3, params.c, x, prefix, 16, flipped, 0) == ([], j - 1)
        assert _walk(state, inst, flipped, 0) == (False, j)
        flipped = demo_words.copy()
        flipped[j] ^= 1
        steps.clear()
        assert _walk(demo.t1(start), counted, flipped, 0) == (False, j)
        assert len(steps) == j
    assert _native.complete(16, params.c1, params.c3, params.c, x, prefix, 16, words, 0) == (
        [list(state.words())], (1 << 15) - 1)


def test_stage2_complete_contains_truth():
    ks, zero_index, true_state = make_run(W8, P8, seed=7, n=8192)
    inst = tf1_instance(P8)
    survivor = state_prefix(true_state, 5)
    states = stage2_complete(survivor, P8, inst, ks, zero_index, AttackConfig())
    assert true_state in states
    for st in states:
        assert verify_state(st, P8, ks, zero_index, len(ks) - zero_index - 1)


def test_stage2_complete_inconsistent_survivor_is_empty():
    ks, zero_index, true_state = make_run(W8, P8, seed=7, n=8192)
    inst = tf1_instance(P8)
    wrong = dataclasses.replace(state_prefix(true_state, 5), b_low=true_state.b & 0x1F ^ 1)
    assert stage2_complete(wrong, P8, inst, ks, zero_index, AttackConfig()) == []


def test_stage2_columns_match_dfs_over_random_constants(monkeypatch):
    # the standard generator's pruned stage 2 against the unpruned one of its
    # generic twin (states, candidates, verifications) at a random inner word
    # x, for tails of 1..3 words (2 at w=12 and 16), on the true prefix, a
    # wrong survivor and random prefixes with a + c = x in one array, the
    # wrong one alone, and all again with _WORKING so small that the
    # frontier is split into single prefixes; at w=6 also from 2 columns, below the first pinned output
    # column.  At w=16, where products wrap around the full uint16 words, the
    # prefixes hold 12 columns, so that the twin walks a few thousand
    # completions rather than 8^7 per prefix.  Each batch also runs shuffled,
    # as stage 2 takes its survivors in any order, and must give the same
    rng = SplitMix64(5151)
    for w in (6, 8, 10, 12, 16):
        spec = WordSpec(w)
        params = Tf1Params(rng.below(1 << w), rng.below(1 << w), rng.below(1 << w) | 1, spec)
        inst = tf1_instance(params)
        twin = dataclasses.replace(inst)
        x = rng.below(1 << w)
        truth = next(states_with_inner_word(spec, rng.next64(), 1, x))
        words = (instance_output(truth, inst), *generate(truth, params, 3).words)
        k = spec.half + 1 if w < 16 else 12
        wrong = dataclasses.replace(state_prefix(truth, k), b_low=truth.b & low_mask(k) ^ 1)
        survivors = [state_prefix(truth, k), wrong]
        survivor_sets = [survivors]
        if w <= 10:
            for r in states_with_inner_word(spec, rng.next64(), 3, x):
                survivors.append(state_prefix(r, k))
            survivor_sets.append([wrong])
        if w == 6:
            survivor_sets.append([state_prefix(truth, 2)])
        for svs in survivor_sets:
            prefixes, l = attack._to_arrays(spec, [p.words() for p in svs]), svs[0].l
            order = sorted(range(len(svs)), key=lambda _: rng.next64())
            shuffled = tuple(v[order] for v in prefixes)
            for tail in (1, 2, 3) if w < 12 else (2,):
                window = words[: 1 + tail]
                want = attack._run_stage2(prefixes, l, twin, window, 0, x)
                assert attack._run_stage2(prefixes, l, inst, window, 0, x) == want
                for runner in (inst, twin):
                    assert attack._run_stage2(shuffled, l, runner, window, 0, x) == want
                with monkeypatch.context() as patch:
                    patch.setattr(attack, "_WORKING", 8)
                    assert attack._run_stage2(prefixes, l, inst, window, 0, x) == want
                assert (truth in want[0]) == (svs is survivors or svs[0].l == 2)
    # every even w from 4 to 64, across the widths where word_dtype(w)
    # widens (10, 18 and 34): random constants and C = 1, at X = 0 and a
    # random X, from the planted state's max(k, w - 3)-column prefix on a
    # 2-word tail, so that the twin walks at most 8^3 completions
    for w in range(4, 66, 2):
        spec = WordSpec(w)
        l = max(spec.half + 1, w - 3)
        random = Tf1Params(rng.below(1 << w), rng.below(1 << w), rng.below(1 << w) | 1, spec)
        for params in (random, dataclasses.replace(default_params(spec), c=1)):
            inst = tf1_instance(params)
            twin = dataclasses.replace(inst)
            for x in (0, rng.below(1 << w)):
                truth = next(states_with_inner_word(spec, rng.next64(), 1, x))
                words = (instance_output(truth, inst), *generate(truth, params, 2).words)
                prefixes = attack._to_arrays(spec, [state_prefix(truth, l).words()])
                want = attack._run_stage2(prefixes, l, twin, words, 0, x)
                assert attack._run_stage2(prefixes, l, inst, words, 0, x) == want
                assert truth in want[0], (params, x)


def test_stage2_prunes_by_instance_not_mode(monkeypatch):
    # stage 2 follows the instance, not the enumeration mode: dfs-mode
    # recover on the standard generator runs the compiled, pruned stage 2,
    # once for its one event, its generic twin never does, and both report
    # the same
    ks, zero_index, true_state = make_run(W8, P8, seed=7, n=8192)
    native = tf1_instance(P8)
    complete = _native.complete
    calls = []

    def spy(*args):
        calls.append(complete(*args))
        return calls[-1]

    monkeypatch.setattr(_native, "complete", spy)
    runs = []
    for inst in (native, dataclasses.replace(native)):
        calls.clear()
        report = recover(ks, inst, cfg=AttackConfig(enumeration_mode="dfs"))
        # one event, the first zero word
        assert report.zero_index == zero_index and true_state in report.recovered
        runs.append((report, list(calls)))
    (pruned, pruned_calls), (generic, generic_calls) = runs
    assert report_core(pruned) == report_core(generic)
    assert len(pruned_calls) == 1 and pruned_calls[0] is not None
    assert sorted(State(*row) for row in pruned_calls[0][0]) == list(pruned.recovered)
    assert generic_calls == []


def test_stage2_array_walk_charges_what_the_walk_charges(monkeypatch):
    # Stage 2 steps its emitting completions as arrays until at most _FEW are
    # left.  _FEW = 0 keeps them on arrays until they die or the tail ends,
    # and a huge _FEW walks each alone from the event word; the
    # reports must not differ.  Random constants and C = 1 (four states) at
    # w = 6..12, on streams cut 300 words after their first zero: trivial
    # mode, and up to w=10 also dfs mode and the generic twin (stage 2 does
    # not depend on the mode, and dfs mode's stage 1 costs 0.25 s at w=12).
    # Then, up to w=10 (the twin up to w=8), stage 2 alone on the stage-1
    # survivors with the stream cut 1, 2 and 3 words after the event, where
    # the tail ends inside the array walk: at the first zero (X = 0), and at
    # a random X, where the event word is a planted state's output.  At
    # X = 0 every completion the twin builds emits the event word, so a huge
    # _FEW walks each one alone: the twin's w=10 recover and its w=8 stage 2
    # alone at X = 0 set _FEW = 0 against the default instead.
    rng = SplitMix64(3232)
    default_few = attack._FEW

    def same_at_both_ends(run, few=1 << 30):
        got = []
        for value in (0, few):
            monkeypatch.setattr(attack, "_FEW", value)
            got.append(run())
        assert got[0] == got[1]
        return got[0]

    for w in (6, 8, 10, 12):
        spec = WordSpec(w)
        k = spec.half + 1
        random = Tf1Params(rng.below(1 << w), rng.below(1 << w), rng.below(1 << w) | 1, spec)
        for params in (random, dataclasses.replace(default_params(spec), c=1)):
            inst, twin = tf1_instance(params), dataclasses.replace(tf1_instance(params))
            ks = generate(state_from_seed(rng.next64(), spec), params, 6 << w)
            zero = find_zero_outputs(ks, 1)[0]
            ks = Keystream(spec, ks.words[: zero + 301])
            runs = [(inst, "trivial")]
            if w <= 10:
                runs += [(inst, "dfs"), (twin, "dfs")]
            for runner, mode in runs:
                cfg = AttackConfig(enumeration_mode=mode)
                few = default_few if runner is twin and w == 10 else 1 << 30
                same_at_both_ends(lambda: report_core(recover(ks, runner, cfg=cfg)), few)
            if w == 12:
                continue
            x = rng.below(1 << w)
            truth = next(states_with_inner_word(spec, rng.next64(), 1, x))
            planted = (instance_output(truth, inst), *generate(truth, params, 3 * k).words)
            for x, words, at in ((0, ks.words, zero), (x, planted, 0)):
                bits = [word & 1 for word in words[at + 1 : at + 1 + 3 * k]]
                survivors = attack._run_stage1(inst, k, x, bits, AttackConfig())[0]
                for cut in (1, 2, 3):
                    cut_words = words[: at + 1 + cut]
                    for runner in (inst, twin) if w <= 8 else (inst,):
                        few = default_few if runner is twin and w == 8 and not x else 1 << 30
                        found = same_at_both_ends(
                            lambda: attack._run_stage2(survivors, k, runner, cut_words, at, x), few
                        )
                        assert found[0], "the true state reproduces any cut of its tail"
            assert truth in found[0]


def test_word_arrays_take_the_narrowest_dtype():
    # word_dtype is the narrowest unsigned dtype for each width, and stage 1
    # survivors (both modes) and the column enumerator's batches are held in it
    for bits in range(1, 65):
        size = next(n for n in (1, 2, 4, 8) if 8 * n >= bits)
        assert word_dtype(bits) == np.dtype(f"u{size}")
    trivial, dfs = AttackConfig(), AttackConfig(enumeration_mode="dfs")
    for w in (4, 8, 16):
        spec = WordSpec(w)
        dtype, k = word_dtype(w), spec.half + 1
        inst = tf1_instance(default_params(spec))
        truth = next(states_with_inner_word(spec, 7, 1, 0))
        bits = [word & 1 for word in generate(truth, inst.params, 3 * k).words]
        # dfs mode's real stage 1 at w=16 costs 2^27 candidates; with
        # t2 = a | b | c | d only the zero prefix has t2 = 0
        cheap = dataclasses.replace(inst, t2_words=lambda a, b, c, d, m: a | b | c | d)
        runs = [(inst, bits, trivial), (inst, bits, dfs) if w < 16 else (cheap, [], dfs)]
        for run_inst, run_bits, cfg in runs:
            survivors = attack._run_stage1(run_inst, k, 0, run_bits, cfg)[0]
            assert survivors[0].size and all(v.dtype == dtype for v in survivors)
        prefix = attack._to_arrays(spec, [state_prefix(truth, w - 3).words()])
        batches = list(attack._columns(inst, prefix, w - 3, w, 0))
        assert batches and all(v.dtype == dtype for batch in batches for v in batch)


def test_stage2_complete_rejects_malformed_survivor():
    ks, zero_index, true_state = make_run(W8, P8, seed=7, n=8192)
    inst = tf1_instance(P8)
    for mode in ("trivial", "dfs"):
        cfg = AttackConfig(enumeration_mode=mode)
        for l in (0, 8, 9):
            with pytest.raises(ValueError, match=f"survivor has {l} columns; stage 2 needs 1 to 7"):
                stage2_complete(ColumnPrefix(l, 0, 0, 0, 0), P8, inst, ks, zero_index, cfg)
        survivor = state_prefix(true_state, 5)
        for z in (len(ks) - 1, len(ks), -1):
            with pytest.raises(ValueError, match="at least one keystream word after it"):
                stage2_complete(survivor, P8, inst, ks, z, cfg)
        # a c that breaks the zero, and a word wider than the survivor's 5 columns
        bad_c = dataclasses.replace(survivor, c_low=survivor.c_low ^ 1)
        with pytest.raises(ValueError, match="violates the zero inner word"):
            stage2_complete(bad_c, P8, inst, ks, zero_index, cfg)
        wide_a = dataclasses.replace(survivor, a_low=survivor.a_low | 32)
        with pytest.raises(ValueError, match="does not fit in 5 columns"):
            stage2_complete(wide_a, P8, inst, ks, zero_index, cfg)
    # a state that emits zero, behind a keystream word that is not zero
    truth = next(states_with_inner_word(W8, 99, 1, 0))
    ks = Keystream(W8, (0x5A, *generate(truth, P8, 64).words))
    assert not verify_state(truth, P8, ks, 0, 64)
    for mode in ("trivial", "dfs"):
        cfg = AttackConfig(enumeration_mode=mode)
        with pytest.raises(ValueError, match="keystream word at 0 is not zero"):
            stage2_complete(state_prefix(truth, 5), None, inst, ks, 0, cfg)


def test_recover_w4_certified_by_oracle():
    from tf1crack import brute_force_consistent_states, compare_with_report

    inst = tf1_instance(P4)
    for seed in (1, 2, 3):
        ks, _, true_state = make_run(W4, P4, seed=seed, n=512)
        report = recover(ks, inst)
        assert true_state in report.recovered
        oracle = brute_force_consistent_states(
            ks, report.zero_index, P4, report.verified_words
        )
        assert compare_with_report(report, oracle)


def test_recover_soundness_full_tail():
    ks, _, true_state = make_run(W8, P8, seed=12, n=8192)
    report = recover(ks, tf1_instance(P8))
    assert true_state in report.recovered
    tail = len(ks) - report.zero_index - 1
    assert report.verified_words == tail
    for st in report.recovered:
        assert verify_state(st, P8, ks, report.zero_index, tail)


def test_recover_counter_laws_trivial_mode():
    ks, _, _ = make_run(W8, P8, seed=12, n=8192)
    report = recover(ks, tf1_instance(P8))
    c = report.counters
    assert c.stage1_candidates == 1 << 15
    assert c.stage2_candidates == c.stage1_survivors * (1 << 9)
    assert c.stage1_survivors <= c.stage1_candidates
    assert c.stage1_filter_steps >= c.stage1_candidates
    assert 1.5 <= c.stage1_filter_steps / c.stage1_candidates <= 3.0


def test_recover_dfs_mode_matches_trivial_mode():
    # dfs mode is the reference for both batch kernels; the two
    # random-constant w=8 streams keep one above the oracle's width, and the
    # w=12 stream of `tf1crack bench --w 12` is pinned to its zero index,
    # counters and recovered count
    rng = SplitMix64(808)
    random8 = [
        Tf1Params(rng.below(256), rng.below(256), rng.below(256) | 1, W8) for _ in range(2)
    ]
    cases = [(W4, P4, 1, 512, None), (W4, P4, 4, 512, None), (W8, P8, 5, 4096, None)]
    cases += [(W8, params, 1 + i, 8192, None) for i, params in enumerate(random8)]
    w12 = WordSpec(12)
    pinned12 = (1233, (2097152, 4056488, 48, 1572864, 1592230), 1)
    cases += [(w12, default_params(w12), 1, 16384, pinned12)]
    for spec, params, seed, n, pinned in cases:
        ks, _, _ = make_run(spec, params, seed=seed, n=n)
        inst = tf1_instance(params)
        triv = recover(ks, inst, cfg=AttackConfig(enumeration_mode="trivial"))
        dfs = recover(ks, inst, cfg=AttackConfig(enumeration_mode="dfs"))
        assert report_core(triv) == report_core(dfs)
        if pinned is not None:
            got = (dfs.zero_index, tuple(vars(dfs.counters).values()), len(dfs.recovered))
            assert got == pinned


def test_recover_demo_instance_dfs():
    # no oracle covers the demo instance at w=8 or w=10, so its zero index,
    # counters and recovered count are pinned
    w10 = WordSpec(10)
    cases = [
        (W4, P4, 512, None),
        (W8, P8, 4096, (399, (32768, 65304, 6, 3072, 6816), 1)),
        (w10, default_params(w10), 4096, (399, (262144, 521462, 3, 12288, 16090), 1)),
    ]
    for spec, params, n, pinned in cases:
        inst = demo_generalized_instance(spec, params)
        start = state_from_seed(11, spec)
        ks = generate_from_instance(start, inst, n)
        report = recover(ks, inst, cfg=AttackConfig(enumeration_mode="dfs"))
        true_state = start
        for _ in range(report.zero_index + 1):
            true_state = inst.t1(true_state)
        assert true_state in report.recovered
        if pinned is not None:
            got = (report.zero_index, tuple(vars(report.counters).values()), len(report.recovered))
            assert got == pinned


def test_recover_demo_instance_rejects_trivial_mode():
    inst = demo_generalized_instance(W4, P4)
    ks = generate_from_instance(state_from_seed(11, W4), inst, 64)
    with pytest.raises(ValueError):
        recover(ks, inst, cfg=AttackConfig(enumeration_mode="trivial"))


def test_recover_replaced_standard_instance_is_generic():
    # the standard instance with the demo's t2 and f swapped in is generic:
    # trivial mode refuses it, and dfs mode walks its own maps to the state
    # it recovers from the demo instance
    demo = demo_generalized_instance(W8, P8)
    x = dataclasses.replace(tf1_instance(P8), t2_words=demo.t2_words, f_words=demo.f_words)
    ks = generate_from_instance(state_from_seed(4, W8), x, 4096)
    with pytest.raises(ValueError, match="trivial enumeration needs the standard generator"):
        recover(ks, x, cfg=AttackConfig(enumeration_mode="trivial"))
    dfs = AttackConfig(enumeration_mode="dfs")
    report = recover(ks, x, cfg=dfs)
    assert report.recovered == (State(8, 8, 248, 116),)
    assert report_core(report) == report_core(recover(ks, demo, cfg=dfs))
    # stage 2 has no mode: under the default config it completes the state
    # from its stage-1 prefix for the demo instance too
    st = report.recovered[0]
    assert [st] == stage2_complete(state_prefix(st, 5), None, demo, ks, report.zero_index)


def test_recover_worker_counts_do_not_change_reports():
    ks, _, _ = make_run(W8, P8, seed=42, n=8192)
    inst = tf1_instance(P8)
    reports = [recover(ks, inst, cfg=AttackConfig(workers=n)) for n in (1, 2, 8)]
    assert report_core(reports[0]) == report_core(reports[1]) == report_core(reports[2])
    dfs = [
        recover(ks, inst, cfg=AttackConfig(enumeration_mode="dfs", workers=n)) for n in (1, 3)
    ]
    assert report_core(dfs[0]) == report_core(dfs[1])


def test_recover_forked_workers_run_lambda_instances():
    # the demo instance's word functions are lambdas, which do not pickle;
    # the forked workers inherit them instead
    w10 = WordSpec(10)
    inst = demo_generalized_instance(w10, default_params(w10))
    ks = generate_from_instance(state_from_seed(11, w10), inst, 4096)
    reports = [
        report_core(recover(ks, inst, cfg=AttackConfig(enumeration_mode="dfs", workers=n)))
        for n in (1, 2, 3)
    ]
    assert reports[0] == reports[1] == reports[2]


def test_map_workers_forks():
    # part 0 runs in this process and each other part in a forked process of
    # its own, all at once: no part passes the barrier before all three have
    # reached it, so no process can run two of them; a single part runs in
    # this process
    barrier = multiprocessing.get_context("fork").Barrier(3)

    def part_pid(part):
        barrier.wait(timeout=60)
        return part, os.getpid()

    pids = attack._map_workers([(0, 1), (1, 2), (2, 3)], part_pid)
    assert [part for part, _ in pids] == [(0, 1), (1, 2), (2, 3)]
    assert pids[0][1] == os.getpid()
    assert len({pid for _, pid in pids}) == 3
    assert attack._map_workers([(0, 2)], lambda part: os.getpid()) == [os.getpid()]


def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch):
    # 64 workers asked for, yet one part per cpu and one fork fewer, as this
    # process runs a part, and the 1-worker reports; w=8 has 512 lower
    # prefixes in trivial mode and 8 one-column roots in dfs mode
    ks, _, _ = make_run(W8, P8, seed=42, n=8192)
    inst = tf1_instance(P8)
    cpus = os.cpu_count() or 1
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    for mode in ("trivial", "dfs"):
        want = report_core(recover(ks, inst, cfg=AttackConfig(enumeration_mode=mode)))
        assert not forks
        got = report_core(recover(ks, inst, cfg=AttackConfig(enumeration_mode=mode, workers=64)))
        assert got == want, mode
        assert len(forks) == min(64, cpus, 512 if mode == "trivial" else 8) - 1, mode
        forks.clear()


def test_huge_worker_count_gives_the_one_worker_report(monkeypatch):
    # stage 1 splits into one part per process it runs, at most
    # os.cpu_count() of them and at most one per index, not into one part
    # per worker asked for; the report does not change
    split = attack._split_range
    parts = []

    def spy(total, n):
        parts.append(split(total, n))
        return parts[-1]

    monkeypatch.setattr(attack, "_split_range", spy)
    w10 = WordSpec(10)
    p10 = default_params(w10)
    cases = [
        (make_run(W4, P4, seed=42, n=256)[0], tf1_instance(P4), 10**18),
        (generate(state_from_seed(1, w10), p10, 4096), tf1_instance(p10), 10**6),
    ]
    for ks, inst, workers in cases:
        for mode in ("trivial", "dfs"):
            want = report_core(recover(ks, inst, cfg=AttackConfig(enumeration_mode=mode)))
            parts.clear()
            cfg = AttackConfig(enumeration_mode=mode, workers=workers)
            assert report_core(recover(ks, inst, cfg=cfg)) == want, mode
            assert parts and all(0 < len(p) <= (os.cpu_count() or 1) for p in parts), (mode, parts)
    assert split(8, 10**18) == [(i, i + 1) for i in range(8)]
    assert split(0, 10**18) == []


@pytest.mark.slow
def test_w16_two_workers_give_the_pinned_counters():
    # opt-in (pytest -m slow): the documented w=16 stream, on forked workers
    spec = WordSpec(16)
    params = default_params(spec)
    ks = generate(state_from_seed(1, spec), params, 1 << 18)
    inst = tf1_instance(params)
    two = recover(ks, inst, cfg=AttackConfig(workers=2))
    assert two.zero_index == 103179
    assert tuple(vars(two.counters).values()) == (134217728, 270245956, 32, 67108864, 67268658)
    assert report_core(two) == report_core(recover(ks, inst))


@pytest.mark.slow
def test_w18_recover_gives_the_pinned_counters():
    # opt-in (pytest -m slow): a w=18 stream of 2^20 words, 2^30 stage-1
    # candidates, on 1 and 2 workers
    spec = WordSpec(18)
    params = default_params(spec)
    ks = generate(state_from_seed(1, spec), params, 1 << 20)
    inst = tf1_instance(params)
    one = recover(ks, inst)
    assert one.zero_index == 870763
    assert one.recovered == (State(15001, 41953, 247143, 187440),)
    assert tuple(vars(one.counters).values()) == (1073741824, 2145599900, 32, 536870912, 537057324)
    assert report_core(recover(ks, inst, cfg=AttackConfig(workers=2))) == report_core(one)


STAGE1_TWICE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from tf1crack import AttackConfig, WordSpec, attack, default_params, generate, state_from_seed
from tf1crack import tf1_instance
spec = WordSpec(int(sys.argv[2]))
params = default_params(spec)
generate(state_from_seed(1, spec), params, 1 << 16)
k = spec.half + 1
bits = [(0x5A3C96 >> j) & 1 for j in range(3 * k)]
attack._run_stage1(tf1_instance(params), k, 0, bits, AttackConfig())
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
attack._run_stage1(tf1_instance(params), k, 0, bits, AttackConfig())
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="measures glibc's heap trimming")
def test_stage1_chunks_do_not_page_fault():
    # A fresh process, so that no earlier test has moved glibc's heap
    # thresholds, generates a w=12 or w=14 stream as a caller does before
    # the attack, then runs stage 1 twice.  The compiled lane kernel steps
    # its prefixes in registers and writes its survivors into two arrays
    # that each call allocates once, so the second call took 0 to 3 minor
    # faults at w = 12, 14 and 16 (BENCH_lanes.json).  A stage 1 whose
    # temporaries make glibc trim the heap after every call faults them
    # back in on the next one: about 470 to 800 faults a call.  Which
    # modules a process imports first moves glibc's heap layout, so the
    # script also runs with tracemalloc imported first.
    src = os.path.dirname(os.path.dirname(attack.__file__))
    procs = [
        subprocess.Popen([sys.executable, "-c", script, src, str(w)], stdout=subprocess.PIPE, text=True)
        for script in (STAGE1_TWICE, "import tracemalloc\n" + STAGE1_TWICE)
        for w in (12, 14)
    ]
    faults = [int(proc.communicate(timeout=120)[0]) for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    assert max(faults) < 100, faults


def test_recover_needs_a_zero():
    ks = Keystream(W8, (1, 2, 3, 4))
    with pytest.raises(NeedMoreKeystream):
        recover(ks, tf1_instance(P8))


EVEN_C4 = Tf1Params(c1=P4.c1, c3=P4.c3, c=8, spec=W4)


def test_recover_names_even_c_when_no_zero():
    ks = generate(state_from_seed(1, W4), EVEN_C4, 1024)
    assert not find_zero_outputs(ks)
    with pytest.raises(NeedMoreKeystream, match="even C can trap the state in short zero-free cycles"):
        recover(ks, tf1_instance(EVEN_C4))
    with pytest.raises(NeedMoreKeystream) as odd:
        recover(Keystream(W4, (1, 2, 3)), tf1_instance(P4))
    assert "even" not in str(odd.value)


def test_recover_insufficient_tail():
    ks = Keystream(W8, (1, 2, 3, 0))
    with pytest.raises(InsufficientTail):
        recover(ks, tf1_instance(P8))


def test_recover_params_mismatch():
    ks, _, _ = make_run(W8, P8, seed=7, n=4096)
    other = Tf1Params(c1=P8.c1, c3=P8.c3, c=P8.c ^ 0x24, spec=W8)
    with pytest.raises(ParamsMismatch):
        recover(ks, tf1_instance(other))


def test_recover_names_a_keystream_word_outside_the_width():
    # no state emits 0x3e7 at w=8; a keystream holding it is refused as it
    # is built, naming the word rather than the constants, so no recover,
    # in either mode, ever sees it
    ks = generate(state_from_seed(1, W8), P8, 4096)
    with pytest.raises(ValueError, match="^word 4095 is 0x3e7, outside the width-8 range$"):
        Keystream(W8, (*ks.words[:-1], 0x3E7))


def test_recover_survivor_overflow(monkeypatch):
    ks, _, _ = make_run(W4, P4, seed=1, n=512)
    with monkeypatch.context() as patch:
        # the cap is a class constant, which forked workers inherit
        patch.setattr(AttackConfig, "max_survivors", 4)
        with pytest.raises(SurvivorOverflow):
            recover(ks, tf1_instance(P4), cfg=AttackConfig(filter_horizon=1))
    # w=12 at horizon 1: about half of the candidates survive, and both
    # modes must refuse before they build anything per survivor.  Each part
    # stops once its own survivors pass the cap, and the message gives
    # cap + 1, the count at which a one-at-a-time filter stops, in both
    # modes and for every worker count.
    w12 = WordSpec(12)
    p12 = default_params(w12)
    ks = generate(state_from_seed(1, w12), p12, 16384)
    for mode in ("trivial", "dfs"):
        for workers in (1, 2, 3, 8):
            cfg = AttackConfig(filter_horizon=1, enumeration_mode=mode, workers=workers)
            t0 = time.perf_counter()
            with pytest.raises(SurvivorOverflow) as err:
                recover(ks, tf1_instance(p12), cfg=cfg)
            assert time.perf_counter() - t0 < 1.0, (mode, workers)
            assert str(err.value) == (
                "4097 stage-1 survivors exceed the cap of 4096; "
                "increase the filter horizon or supply a longer tail"
            )


def test_survivor_cap_inside_one_lower_prefix(monkeypatch):
    # caps of 1..7 fall inside the 64 candidates of one lower prefix; the
    # batch kernel must raise exactly when the dfs path does
    cases = [(W4, P4, 1, 512), (W8, P8, 5, 4096)]
    for spec, params, seed, n in cases:
        ks, _, _ = make_run(spec, params, seed, n)
        inst = tf1_instance(params)
        full = recover(ks, inst).counters.stage1_survivors
        checks = [(1, range(1, 8))] + ([(None, (full - 1, full))] if spec is W4 else [])
        for horizon, caps in checks:
            for cap in caps:
                outcomes = []
                for mode, workers in (("dfs", 1), ("trivial", 1), ("trivial", 3)):
                    cfg = AttackConfig(filter_horizon=horizon, enumeration_mode=mode, workers=workers)
                    with monkeypatch.context() as patch:
                        patch.setattr(AttackConfig, "max_survivors", cap)
                        try:
                            outcomes.append(report_core(recover(ks, inst, cfg=cfg)))
                        except SurvivorOverflow:
                            outcomes.append("overflow")
                assert outcomes[0] == outcomes[1] == outcomes[2], (spec, horizon, cap)
                assert (outcomes[0] == "overflow") == (horizon == 1 or cap < full)


def _check_lanes(params, x, bits, truth, working=attack._WORKING):
    """Hold the lane kernel to dfs mode at inner word x on tail bits that
    ``truth``, a state with a + c = x, emits.

    At w <= 8, stage 1 over the full range with 1 and 3 workers, with
    ``working`` lower prefixes per kernel call, against dfs mode at the
    default _WORKING; at w >= 10, the 64 lower prefixes around the
    truth's (4096 candidates) against dfs mode's array filter on the same
    candidates.  The truth's k columns must survive either way.
    """
    spec = params.spec
    k = spec.half + 1
    inst = tf1_instance(params)
    if spec.width <= 8:
        dfs = AttackConfig(enumeration_mode="dfs")
        sv, steps, cands = attack._run_stage1(inst, k, x, bits, dfs)
        want = (prefix_rows(sv), steps, cands)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(attack, "_WORKING", working)
            for workers in (1, 3):
                cfg = AttackConfig(workers=workers)
                sv, steps, cands = attack._run_stage1(inst, k, x, bits, cfg)
                assert (prefix_rows(sv), steps, cands) == want
    else:
        low = k - 2
        lm = (1 << low) - 1
        at = ((truth.a & lm) << (2 * low)) | ((truth.b & lm) << low) | (truth.d & lm)
        lo = min(max(0, at - 32), (1 << (3 * low)) - 64)
        want = lanes(lo, lo + 64, k, params, x, bits)
        assert want == lane_filter(inst, lo, lo + 64, k, x, bits)
    assert state_prefix(truth, k).words() in want[0]


def test_stage1_lanes_matches_dfs_filter_over_random_constants():
    # Every case plants a state with a + c = x at a random inner word x.
    # 12 constant sets (odd C, top bits of C1 and C3 set) at w = 6..12; the
    # last set of each width filters on 3 output LSBs, as a tail that
    # clamps the horizon to 3 does, the others on 3k.
    rng = SplitMix64(4242)
    for w in (6, 8, 10, 12):
        spec = WordSpec(w)
        k = spec.half + 1
        top = 1 << (w - 1)
        for n_set in range(3):
            params = Tf1Params(
                rng.below(1 << w) | top, rng.below(1 << w) | top, rng.below(1 << w) | 1, spec
            )
            x = rng.below(1 << w)
            truth = next(states_with_inner_word(spec, rng.next64(), 1, x))
            bits = [word & 1 for word in generate(truth, params, 3 if n_set == 2 else 3 * k).words]
            _check_lanes(params, x, bits, truth)
    # The kernel reads C1 and C3 only through their bits 0 and U = k-2,
    # which pick its terms through masks: all 16 settings of (C1_0, C3_0,
    # C1_U, C3_U) at w=4, where a lower prefix is one column, and at w=10.
    # C is even in half of them.  Each case filters on the next 1 to 3k
    # output LSBs of its planted state.
    for w in (4, 10):
        spec = WordSpec(w)
        k = spec.half + 1
        u = k - 2
        for setting in range(16):
            fixed = ~((1 << u) | 1)
            c1 = rng.below(1 << w) & fixed | (setting & 1) | ((setting >> 2) & 1) << u
            c3 = rng.below(1 << w) & fixed | ((setting >> 1) & 1) | ((setting >> 3) & 1) << u
            c = rng.below(1 << w) & ~1 | (setting ^ setting >> 1) & 1
            params = Tf1Params(c1, c3, c, spec)
            x = rng.below(1 << w)
            truth = next(states_with_inner_word(spec, rng.next64(), 1, x))
            horizon = 1 + rng.below(3 * k)
            bits = [word & 1 for word in generate(truth, params, horizon).words]
            _check_lanes(params, x, bits, truth)


def test_stage1_lanes_match_the_filter_across_the_dtype_seams():
    # Every even w from 14 to 44, across the seams where the lane rows
    # (word_dtype(k)) widen, at w = 16 and 32, and the lane index
    # (word_dtype(3(k-2))), at w = 14 and 24.  At each width, the 64 lower
    # prefixes around a planted state, at X = 0 and at a random X, under
    # the default and random constants, on the 3k tail bits that the state
    # emits; and the last 4 lower prefixes, whose index fills its dtype.
    rng = SplitMix64(4343)
    for w in range(14, 46, 2):
        spec = WordSpec(w)
        k = spec.half + 1
        hi = 1 << (3 * (k - 2))
        c1, c3, c = rng.below(1 << w), rng.below(1 << w), rng.below(1 << w) | 1
        for params in (default_params(spec), Tf1Params(c1, c3, c, spec)):
            for x in (0, rng.below(1 << w)):
                truth = next(states_with_inner_word(spec, rng.next64(), 1, x))
                bits = [word & 1 for word in generate(truth, params, 3 * k).words]
                _check_lanes(params, x, bits, truth)
                top = lanes(hi - 4, hi, k, params, x, bits)
                assert top == lane_filter(tf1_instance(params), hi - 4, hi, k, x, bits), (w, x)


def test_dfs_stage1_does_not_depend_on_the_working_set(monkeypatch):
    # The column enumerator finishes a frontier in pieces of _WORKING >> 3
    # prefixes, which sizes dfs mode's _filter calls and stage 2's batches.
    # At w=10, on the demo instance, pieces of 700 prefixes split the
    # frontier first at column 4 and the default at column 5; at w=8, on the
    # standard generator, pieces of 64 or 100 split it first at column 3,
    # pieces of 700 at column 4, and the default never does.  Pieces of 100
    # and 700 leave the last piece of a split partial.  Each gives the same
    # dfs report on 1 and 2 workers, and the same overflow at horizon 2.
    default = attack._WORKING
    for w, demo, workings in ((10, True, (5600,)), (8, False, (512, 800, 5600))):
        spec = WordSpec(w)
        params = default_params(spec)
        inst = demo_generalized_instance(spec, params) if demo else tf1_instance(params)
        ks = generate_from_instance(state_from_seed(1, spec), inst, 4096)
        outcomes = []
        for working in (default, *workings):
            monkeypatch.setattr(attack, "_WORKING", working)
            for workers in (1, 2):
                cfg = AttackConfig(enumeration_mode="dfs", workers=workers)
                with pytest.raises(SurvivorOverflow) as err:
                    recover(ks, inst, cfg=dataclasses.replace(cfg, filter_horizon=2))
                outcomes.append((report_core(recover(ks, inst, cfg=cfg)), str(err.value)))
                assert outcomes[-1] == outcomes[0], (inst.spec, working, workers)
        assert outcomes[0][0][1]


def test_dfs_stage1_filters_whole_working_sets(monkeypatch):
    # Where t2 keeps exactly 8 of a column's 16 extensions, as on the
    # standard generator and the demo instance, the column enumerator's
    # pieces of _WORKING >> 3 prefixes make every batch that dfs mode
    # filters exactly _WORKING candidates at w >= 10, on any worker count.
    # The spy checks each batch in the process that filters it and counts
    # the batches in shared memory, which forked workers inherit.
    batches = multiprocessing.get_context("fork").Value("q", 0)
    real = attack._filter

    def spy(instance, batch, l, tail_bits):
        assert batch[0].size == attack._WORKING
        with batches.get_lock():
            batches.value += 1
        return real(instance, batch, l, tail_bits)

    monkeypatch.setattr(attack, "_filter", spy)
    for w in (10, 12):
        spec = WordSpec(w)
        k = spec.half + 1
        params = default_params(spec)
        for inst in (tf1_instance(params), demo_generalized_instance(spec, params)):
            ks = generate_from_instance(state_from_seed(1, spec), inst, 4096)
            zero = find_zero_outputs(ks, 1)[0]
            bits = [word & 1 for word in ks.words[zero + 1 : zero + 1 + 3 * k]]
            for workers in (1, 2):
                batches.value = 0
                cfg = AttackConfig(enumeration_mode="dfs", workers=workers)
                _, _, cands = attack._run_stage1(inst, k, 0, bits, cfg)
                assert cands == 8**k == batches.value * attack._WORKING, (w, workers)


def test_stage1_lanes_on_a_tiny_working_set(monkeypatch):
    # Kernel calls of 4 or 7 lower prefixes (by width), so that every run
    # crosses many call seams, and every block of the kernel's vector lanes
    # is cut short by the end of its call.  At w = 4..8, stage 1 over the
    # full range with 1 and 3 workers against dfs mode; at w = 10..16, 500
    # lower prefixes around a planted state against the array filter, at a
    # random inner word x != 0, at C = 1 and at random constants, on
    # horizons 0, 1, a clamped 5 and 3k.
    rng = SplitMix64(3131)
    for w in (4, 6, 8, 10, 12, 14, 16):
        working = (4, 7)[w // 2 % 2]
        spec = WordSpec(w)
        k = spec.half + 1
        top = 1 << (w - 1)
        c1, c3, c = rng.below(1 << w) | top, rng.below(1 << w) | top, rng.below(1 << w) | 1
        for params in (dataclasses.replace(default_params(spec), c=1), Tf1Params(c1, c3, c, spec)):
            x = 1 + rng.below(spec.mask)
            truth = next(states_with_inner_word(spec, rng.next64(), 1, x))
            words = generate(truth, params, 3 * k).words
            if w <= 8:
                _check_lanes(params, x, [word & 1 for word in words], truth, working)
                continue
            monkeypatch.setattr(attack, "_WORKING", working)
            low = k - 2
            lm = (1 << low) - 1
            at = ((truth.a & lm) << (2 * low)) | ((truth.b & lm) << low) | (truth.d & lm)
            lo = min(max(0, at - 250), (1 << (3 * low)) - 500)
            inst = tf1_instance(params)
            for horizon in (0, 1, 5, 3 * k):
                bits = [word & 1 for word in words[:horizon]]
                want = lanes(lo, lo + 500, k, params, x, bits)
                assert want == lane_filter(inst, lo, lo + 500, k, x, bits), (w, params, horizon)
                assert state_prefix(truth, k).words() in want[0]
                # plain ints: a numpy count would leak into the report's counters
                assert type(want[1]) is int and type(want[2]) is int


def test_survivor_cap_on_a_tiny_working_set(monkeypatch):
    # the survivor cap falls inside one lower prefix and across many
    # kernel calls of 5 lower prefixes each
    monkeypatch.setattr(attack, "_WORKING", 5)
    test_survivor_cap_inside_one_lower_prefix(monkeypatch)


def test_event_at_a_nonzero_inner_word_end_to_end():
    # One event (0, x) at a random x != 0 and random constants (odd C), run
    # through stage 1 and stage 2 as recover runs an event: both modes, and
    # dfs mode on the generic twin, whose stage 2 does not prune, give the
    # same survivors, states and counters, and the planted state is
    # among the states.  At w=4 they are exactly the states with a + c = x
    # that emit the event word and the tail, for the whole stream and for
    # tails of 1, 2 and 3 words, where the first tail word alone leaves
    # states that emit another event word.
    rng = SplitMix64(2121)
    for w in (4, 6, 8, 10, 12):
        spec = WordSpec(w)
        k = spec.half + 1
        params = Tf1Params(rng.below(1 << w), rng.below(1 << w), rng.below(1 << w) | 1, spec)
        inst = tf1_instance(params)
        twin = dataclasses.replace(inst)
        x = 1 + rng.below(spec.mask)
        truth = next(states_with_inner_word(spec, rng.next64(), 1, x))
        stream = (instance_output(truth, inst), *generate(truth, params, 4 * w).words)
        tails = (len(stream) - 1,)
        if w == 4:
            tails = (1, 2, 3, len(stream) - 1)
            # every state with a + c = x that emits the event word
            m = spec.mask
            emitters = [
                st
                for a in range(m + 1)
                for b in range(m + 1)
                for d in range(m + 1)
                if instance_output(st := State(a, b, (x - a) & m, d), inst) == stream[0]
            ]
        for tail in tails:
            ks = Keystream(spec, stream[: tail + 1])
            tail_bits = [word & 1 for word in ks.words[1 : 1 + 3 * k]]
            runs = []
            for run_inst, mode in ((inst, "trivial"), (inst, "dfs"), (twin, "dfs")):
                cfg = AttackConfig(enumeration_mode=mode)
                survivors, steps, cands = attack._run_stage1(run_inst, k, x, tail_bits, cfg)
                found, cand2, verif2 = attack._run_stage2(survivors, k, run_inst, ks.words, 0, x)
                runs.append((prefix_rows(survivors), found, steps, cands, cand2, verif2))
            assert runs[0] == runs[1] == runs[2]
            assert truth in runs[0][1]
            if w == 4:
                brute = [st for st in emitters if verify_state(st, params, ks, 0, tail)]
                assert runs[0][1] == brute, (params, x, tail)


def test_recover_moves_past_a_corrupted_zero_position():
    # breaking the word after a zero, keeping it nonzero, leaves that zero
    # no state; recover tries the events at the first max_zero_positions = 8
    # zeros, so it succeeds at the 8th and never tries the 9th
    start = state_from_seed(9, W8)
    ks = generate(start, P8, 8192)
    zeros = find_zero_outputs(ks, 9)
    assert AttackConfig.max_zero_positions == 8
    assert len(zeros) == 9 and all(z + 1 < nxt for z, nxt in zip(zeros, zeros[1:]))
    assert zeros[7] == 1012
    words = list(ks.words)
    for n_broken in range(1, 9):
        z = zeros[n_broken - 1]
        words[z + 1] = (words[z + 1] ^ 0x81) or 0x42
        broken = Keystream(W8, tuple(words))
        if n_broken == 8:
            with pytest.raises(ParamsMismatch):
                recover(broken, tf1_instance(P8))
        else:
            report = recover(broken, tf1_instance(P8))
            assert report.zero_index == zeros[n_broken]
            assert roll_forward(start, P8, zeros[n_broken] + 1) in report.recovered


def test_recover_horizon_clamped_on_short_tail():
    start = state_from_seed(7, W8)
    ks = generate(start, P8, 8192)
    zero = find_zero_outputs(ks, 1)[0]
    short = Keystream(W8, ks.words[: zero + 8])  # leaves a 7-word tail < 3k
    report = recover(short, tf1_instance(P8))
    assert report.horizon == 7 and report.horizon_clamped
    assert roll_forward(start, P8, zero + 1) in report.recovered


def test_trivial_mode_width_limit():
    # past w=44 the 2^(3(k-2)) lower prefixes overflow the uint64 index;
    # recover refuses before any work
    for w in (46, 64):
        spec = WordSpec(w)
        with pytest.raises(ValueError, match=f"w={w} is too wide"):
            recover(Keystream(spec, (0, 1)), tf1_instance(default_params(spec)))
    # stage 2 has no mode and no width limit: under the default config it
    # completes a planted w=64 state from its 63-column prefix
    w64 = WordSpec(64)
    p64 = default_params(w64)
    truth = next(states_with_inner_word(w64, 64, 1, 0))  # emits the zero word
    ks = Keystream(w64, (0, *generate(truth, p64, 4).words))
    assert truth in stage2_complete(state_prefix(truth, 63), p64, tf1_instance(p64), ks, 0)
    # w=44 is accepted, and the kernels still decode the top of their ranges
    w44 = WordSpec(44)
    p44 = default_params(w44)
    inst = tf1_instance(p44)
    truth = next(states_with_inner_word(w44, 44, 1, 0))  # emits the zero word
    ks = Keystream(w44, (0, *generate(truth, p44, 4).words))
    last = state_prefix(truth, 43)
    got = stage2_complete(last, p44, inst, ks, 0)
    assert truth in got
    dfs = AttackConfig(enumeration_mode="dfs")
    assert got == stage2_complete(last, p44, inst, ks, 0, dfs)
    # the generic twin's stage 2, which does not prune
    assert got == stage2_complete(last, p44, dataclasses.replace(inst), ks, 0, dfs)
    k = 23
    hi = 1 << (3 * (k - 2))
    bits = [1, 1, 1, 1, 1]
    survivors = []
    # x = 0, and an x whose columns U, T and those above k are set
    for x in (0, 0xFFF_FFE0_0000):
        got = lanes(hi - 4, hi, k, p44, x, bits)
        assert got == lane_filter(inst, hi - 4, hi, k, x, bits)
        survivors.append(len(got[0]))
    assert survivors == [8, 8]  # of the 256 candidates each


def test_keystream_width_mismatch_is_rejected():
    # w=4 constants on a w=8 stream: every public call that reads the stream refuses it
    from tf1crack import brute_force_consistent_states

    ks8, zero_index, _ = make_run(W8, P8, seed=7, n=8192)
    msg = "keystream width differs from the instance width"
    with pytest.raises(ValueError, match=msg):
        verify_state(State(1, 0, 15, 0), P4, ks8, zero_index, 0)
    with pytest.raises(ValueError, match=msg):
        stage2_complete(ColumnPrefix(3, 1, 0, 7, 0), P4, tf1_instance(P4), ks8, zero_index)
    with pytest.raises(ValueError, match=msg):
        brute_force_consistent_states(ks8, zero_index, P4, 1)
    with pytest.raises(ValueError, match=msg):
        recover(ks8, tf1_instance(P4))


def test_recover_rejects_mismatched_inputs():
    ks, _, _ = make_run(W4, P4, seed=1, n=64)
    with pytest.raises(ValueError):
        recover(ks, tf1_instance(P8))
    with pytest.raises(ValueError):
        recover(ks, tf1_instance(P4), params=P8)
    with pytest.raises(ValueError):
        recover(Keystream(W4, ()), tf1_instance(P4))


def test_recover_recovered_states_sorted():
    ks, _, _ = make_run(W4, P4, seed=2, n=512)
    report = recover(ks, tf1_instance(P4))
    assert list(report.recovered) == sorted(report.recovered)


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(filter_horizon=0)
    # three constants, not options
    names = [f.name for f in dataclasses.fields(AttackConfig)]
    assert names == ["filter_horizon", "enumeration_mode", "workers"]
    constants = (AttackConfig.max_zero_positions, AttackConfig.max_survivors, AttackConfig.verify_words)
    assert constants == (8, 4096, 4)
    for name in ("max_zero_positions", "max_survivors", "verify_words"):
        with pytest.raises(TypeError):
            AttackConfig(**{name: 8})
    for limit in (0, -1):  # the same bound on the scan itself
        with pytest.raises(ValueError, match="limit must be >= 1"):
            find_zero_outputs(Keystream(W8, (1, 0, 2, 0, 0)), limit)
    with pytest.raises(ValueError):
        AttackConfig(enumeration_mode="both")
    with pytest.raises(ValueError):
        AttackConfig(workers=0)
    # a non-int fails here, naming its field, not deep inside recover
    for name in ("filter_horizon", "workers"):
        for value in (2.5, "2", True):
            with pytest.raises(ValueError, match=f"{name} must be an int, got {value!r}"):
                AttackConfig(**{name: value})
    with pytest.raises(ValueError, match="workers must be an int, got None"):
        AttackConfig(workers=None)
    assert AttackConfig(filter_horizon=None).filter_horizon is None


def test_counts_must_be_ints():
    # find_zero_outputs's limit and generate's n take no float, bool or
    # string: a limit of 2.5 once gave three positions, and True counted as 1
    seed = state_from_seed(1, W8)
    ks = generate(seed, P8, 4096)
    assert find_zero_outputs(ks, 3) == [94, 238, 540]
    for bad in (2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match=f"limit must be an int, got {bad!r}"):
            find_zero_outputs(ks, bad)
        with pytest.raises(ValueError, match=f"n must be an int, got {bad!r}"):
            generate(seed, P8, bad)
        with pytest.raises(ValueError, match=f"n must be an int, got {bad!r}"):
            generate_from_instance(seed, demo_generalized_instance(W8, P8), bad)


def test_predicted_work_values():
    assert predicted_work(WordSpec(16)) == 1 << 28
    assert predicted_work(WordSpec(32)) == 1 << 52
    assert predicted_work(WordSpec(64)) == 1 << 100
    assert predicted_work(W8) == 16 * 2 ** 12
