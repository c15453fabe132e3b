"""Small shared utilities for the test suite."""

from typing import Iterator

import numpy as np

from tf1crack import State, Tf1Params, WordSpec, _native, attack, tf1_instance, tfcheck
from tf1crack.generator import _out
from tf1crack.rng import SplitMix64, trial_draws
from tf1crack.tfcheck import PropertyReport
from tf1crack.word import low_mask, word_dtype


def roll_forward(seed: State, params: Tf1Params, steps: int) -> State:
    """The post-update state after ``steps`` updates from ``seed``."""
    step = tf1_instance(params).t1
    st = seed
    for _ in range(steps):
        st = step(st)
    return st


def random_states(spec, seed: int, n: int):
    rng = SplitMix64(seed)
    mask = spec.mask
    for _ in range(n):
        yield State(
            rng.next64() & mask, rng.next64() & mask, rng.next64() & mask, rng.next64() & mask
        )


def states_with_inner_word(spec, seed: int, n: int, x: int):
    """``random_states`` with each c replaced so that a + c = x mod 2**w."""
    for s in random_states(spec, seed, n):
        yield State(s.a, s.b, (x - s.a) & spec.mask, s.d)


def report_core(report):
    """Every report field that must not depend on worker count or timing."""
    return (
        report.zero_index,
        report.recovered,
        report.counters,
        report.predicted_ops,
        report.horizon,
        report.horizon_clamped,
        report.verified_words,
    )


def prefix_rows(prefixes):
    """The (a, b, c, d) rows of four prefix arrays, as stage 1 returns them,
    as int tuples in ascending order: stage 1 returns its survivors in no
    fixed order."""
    return sorted(zip(*(v.tolist() for v in prefixes)))


def lanes(lo, hi, k, params, x, bits):
    """Trivial mode's stage 1 over [lo, hi), in calls of attack._WORKING lower
    prefixes, batches summed: (survivor words sorted, steps, candidates)."""
    part = _native.stage1(params.spec.width, k, params.c1, params.c3, params.c, x, bits, attack._WORKING)
    batches = list(part(lo, hi))
    rows = prefix_rows(attack._concat(params.spec, [b[0] for b in batches]))
    return rows, sum(b[1] for b in batches), sum(b[2] for b in batches)


def lane_filter(inst, lo, hi, k, x, bits):
    """dfs mode's array filter on the lane kernel's candidates over lower
    prefixes [lo, hi): every setting of the top two columns of a, b and d,
    with c = x - a.  Returns (survivor words sorted, steps, candidates), as
    ``lanes`` does."""
    low = k - 2
    lm = (1 << low) - 1
    i = np.repeat(np.arange(lo, hi, dtype=np.uint64), 64)
    top = np.tile(np.arange(64, dtype=np.uint64), hi - lo)
    a = (i >> (2 * low)) | (top >> 4) << low
    b = ((i >> low) & lm) | ((top >> 2) & 3) << low
    d = (i & lm) | (top & 3) << low
    c = (x - a) & ((1 << k) - 1)
    batch = tuple(v.astype(word_dtype(inst.spec.width)) for v in (a, b, c, d))
    keep, steps = attack._filter(inst, batch, k, bits)
    return prefix_rows(tuple(v.take(keep) for v in batch)), steps, a.size


def _scan_states_scalar(spec: WordSpec, word: int) -> Iterator[State]:
    """Every state whose output is ``word``, by walking the whole space: the
    tests' reference for the oracle's window-0 result."""
    m, h = spec.mask, spec.half
    rng = range(1 << spec.width)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if _out(a, b, c, d, m, h) == word:
                        yield State(a, b, c, d)


def _trial_by_trial(counts, rng_seed: int, n_draws: int, trial) -> list[PropertyReport]:
    """The report of the first n trials for each n in ``counts``, from one
    run of ``trial(*draws)`` on each trial's draws as ints up to the
    largest; ``trial`` returns None on success and a witness on failure."""
    draws = trial_draws(rng_seed, 0, max(counts), n_draws).tolist()
    found = [trial(*row) for row in zip(*draws)]
    reports = []
    for n in counts:
        witnesses = [f for f in found[:n] if f is not None]
        reports.append(PropertyReport(n, len(witnesses), witnesses[0] if witnesses else None))
    return reports


def reference_tfunction_reports(target, spec: WordSpec, params: Tf1Params, counts, rng_seed: int):
    """``check_tfunction_property`` one trial at a time on ints, for each
    trial count in ``counts``: the tests' reference for its batches of word
    arrays."""
    fn = tfcheck._resolve_target(target, spec, params)
    w, mask = spec.width, spec.mask

    def trial(a, b, c, d, k_draw, ya, yb, yc, yd):
        k = 1 + k_draw % w
        keep = low_mask(k)
        flip = mask & ~keep
        x = State(a & mask, b & mask, c & mask, d & mask)
        y = State((a & keep) | (ya & flip), (b & keep) | (yb & flip),
                  (c & keep) | (yc & flip), (d & keep) | (yd & flip))
        fx, fy = fn(x), fn(y)
        if isinstance(fx, State):
            diff = (fx.a ^ fy.a) | (fx.b ^ fy.b) | (fx.c ^ fy.c) | (fx.d ^ fy.d)
        else:
            diff = fx ^ fy
        return None if diff & keep == 0 else (x, y, k)

    return _trial_by_trial(counts, rng_seed, 9, trial)


def reference_truncation_reports(instance, spec: WordSpec, counts, rng_seed: int):
    """``check_truncation_consistency`` one trial at a time on ints, for
    each trial count in ``counts``: the tests' reference for its batches of
    word arrays."""
    w, mask = spec.width, spec.mask
    t1_words, t2_words = instance.t1_words, instance.t2_words

    def trial(a, b, c, d, l_draw):
        x = (a & mask, b & mask, c & mask, d & mask)
        l = 1 + l_draw % w
        m = low_mask(l)
        low = [v & m for v in x]
        t1_ok = list(t1_words(*low, m)) == [v & m for v in t1_words(*x, mask)]
        t2_ok = t2_words(*low, m) == t2_words(*x, mask) & m
        return None if t1_ok and t2_ok else (State(*x), l)

    return _trial_by_trial(counts, rng_seed, 5, trial)
