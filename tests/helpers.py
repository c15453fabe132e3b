"""Small shared utilities for the test suite."""

from typing import Iterator

import numpy as np

from tf1crack import State, Tf1Params, WordSpec, attack, tf1_instance
from tf1crack.generator import _out
from tf1crack.rng import SplitMix64
from tf1crack.word import word_dtype


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
    """_stage1_lanes over [lo, hi), batches summed: (survivor words sorted, steps, candidates)."""
    batches = list(attack._stage1_lanes(lo, hi, k, params, x, bits))
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
