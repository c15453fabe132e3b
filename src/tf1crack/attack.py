"""Two-stage internal-state recovery from a keystream containing a zero word.

A zero output pins the inner T-function word to zero at that position,
because the other output factor is odd.  Stage 1 enumerates every candidate
for the first w/2+1 columns of the state at the zero position and prunes
each against the least significant bits of the following outputs, one
truncated step per bit.  Stage 2 extends each survivor to the remaining
columns, still constrained by the zero, and keeps exactly the full states
that reproduce the observed tail.

Work is counted in attack operations: one stage-1 filter step (truncated
update + truncated t2 + one bit compare) or one stage-2 verification step
(full update + output compare).  The expected total is about 16 * 2**(1.5w).

The standard generator gets batch (numpy) kernels for both stages; every
other instance, and the depth-first enumeration mode, runs on the scalar
path.  The scalar trivial path, one closed-form candidate at a time, is the
reference the tests hold the batch kernels to: the same survivors, states
and counters.  Every full-state check walks the tail through one loop,
on plain ints for the standard generator and through the instance's t1 and
output for any other.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .generator import (
    ColumnPrefix,
    GeneratorInstance,
    Keystream,
    State,
    Tf1Params,
    _out,
    _rows,
    instance_output,
    tf1_instance,
)
from .word import WordSpec, low_mask

__all__ = [
    "AttackError",
    "NeedMoreKeystream",
    "InsufficientTail",
    "SurvivorOverflow",
    "ParamsMismatch",
    "AttackConfig",
    "OpCounters",
    "AttackReport",
    "find_zero_outputs",
    "enumerate_trivial_preimages",
    "enumerate_preimages_dfs",
    "filter_candidate",
    "stage2_complete",
    "verify_state",
    "recover",
    "predicted_work",
]

_CHUNK = 1 << 20  # batch kernel granularity; never affects results


class AttackError(Exception):
    """Base for attack-level failures (exit code 1 at the CLI)."""


class NeedMoreKeystream(AttackError):
    """No zero output word was observed."""


class InsufficientTail(AttackError):
    """Every zero output is the final word, leaving nothing to verify against."""


class SurvivorOverflow(AttackError):
    """Stage-1 survivors exceeded the cap; the tail or horizon is too short,
    or the instance is degenerate."""


class ParamsMismatch(AttackError):
    """No candidate reproduces the keystream at any zero position."""


@dataclass(frozen=True)
class AttackConfig:
    """Tuning knobs for ``recover``.

    ``filter_horizon=None`` means 3*(w/2+1), resolved once the width is
    known; it is silently clamped to the available tail (the report flags
    the clamp).  ``workers`` partitions stage 1 into that many candidate
    sub-ranges; reports are identical for any worker count.
    """

    filter_horizon: int | None = None
    verify_words: int = 4
    max_survivors: int = 4096
    max_zero_positions: int = 8
    enumeration_mode: str = "trivial"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.filter_horizon is not None and self.filter_horizon < 1:
            raise ValueError("filter_horizon must be >= 1")
        if self.verify_words < 1:
            raise ValueError("verify_words must be >= 1")
        if self.max_survivors < 1:
            raise ValueError("max_survivors must be >= 1")
        if self.max_zero_positions < 1:
            raise ValueError("max_zero_positions must be >= 1")
        if self.enumeration_mode not in ("trivial", "dfs"):
            raise ValueError("enumeration_mode must be 'trivial' or 'dfs'")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class OpCounters:
    stage1_candidates: int = 0
    stage1_filter_steps: int = 0
    stage1_survivors: int = 0
    stage2_candidates: int = 0
    stage2_verifications: int = 0

    def total_operations(self) -> int:
        return self.stage1_filter_steps + self.stage2_verifications


@dataclass
class AttackReport:
    """Outcome of ``recover``: states at the zero position plus accounting.

    ``recovered`` holds the post-update states that emit the zero word and
    reproduce every following keystream word (``verified_words`` of them),
    sorted ascending by (a, b, c, d).  ``elapsed`` is wall seconds.
    """

    zero_index: int
    recovered: tuple[State, ...]
    counters: OpCounters
    elapsed: float
    predicted_ops: int
    horizon: int
    horizon_clamped: bool
    verified_words: int
    mode: str


def predicted_work(spec: WordSpec) -> int:
    """Expected attack operations, 16 * 2**(1.5 w), exact for even widths."""
    return 16 << (3 * spec.width // 2)


def find_zero_outputs(ks: Keystream, limit: int | None = None) -> list[int]:
    """Ascending positions of exact-zero output words, at most ``limit``."""
    out = []
    for i, word in enumerate(ks.words):
        if word == 0:
            out.append(i)
            if limit is not None and len(out) >= limit:
                break
    return out


def enumerate_trivial_preimages(k: int, target: int = 0) -> Iterator[ColumnPrefix]:
    """All 2**(3k) k-column prefixes with (a + c) mod 2**k == target.

    Closed form for the additive inner word: a, b, d range freely and
    c = (target - a) mod 2**k.  Yields in ascending (a, b, d) order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = low_mask(k)
    if not 0 <= target <= m:
        raise ValueError(f"target {target:#x} does not fit in {k} columns")
    rng = range(m + 1)
    for a in rng:
        c = (target - a) & m
        for b in rng:
            for d in rng:
                yield ColumnPrefix(k, a, b, c, d)


def enumerate_preimages_dfs(
    instance: GeneratorInstance,
    l: int,
    k: int,
    known: ColumnPrefix | None = None,
    target: int = 0,
) -> Iterator[ColumnPrefix]:
    """Depth-first extension of a known (l-1)-column prefix to k columns.

    Column by column, all 16 one-bit extensions of (a, b, c, d) are tried
    and an extension is kept when the new column of the truncated t2 equals
    the corresponding target bit.  Memory stays bounded by the tree depth;
    nothing is materialized.  Works for any T-function t2, at about
    2**(3(k-l)) operations when roughly half the extensions survive per
    column.
    """
    w = instance.spec.width
    if not 1 <= l <= k <= w:
        raise ValueError(f"need 1 <= l <= k <= {w}, got l={l}, k={k}")
    if l == 1:
        if known is not None:
            raise ValueError("known prefix must be omitted when l == 1")
        base = (0, 0, 0, 0)
    else:
        if known is None or known.l != l - 1:
            raise ValueError(f"known prefix must cover exactly {l - 1} columns")
        known.validate(instance.spec)
        got = instance.t2_trunc(known)
        m = low_mask(l - 1)
        if (got & m) != (target & m):
            raise ValueError("known prefix violates the constraint on its own columns")
        base = known.words()

    t2_trunc = instance.t2_trunc

    def walk(a: int, b: int, c: int, d: int, col: int) -> Iterator[ColumnPrefix]:
        shift = col - 1
        want = (target >> shift) & 1
        for ext in range(16):
            na = a | (((ext >> 3) & 1) << shift)
            nb = b | (((ext >> 2) & 1) << shift)
            nc = c | (((ext >> 1) & 1) << shift)
            nd = d | ((ext & 1) << shift)
            cand = ColumnPrefix(col, na, nb, nc, nd)
            if ((t2_trunc(cand) >> shift) & 1) != want:
                continue
            if col == k:
                yield cand
            else:
                yield from walk(na, nb, nc, nd, col + 1)

    yield from walk(*base, l)


def filter_candidate(
    prefix: ColumnPrefix,
    params: Tf1Params | None,
    instance: GeneratorInstance,
    tail_lsbs: Sequence[int],
    horizon: int,
) -> tuple[bool, int]:
    """Prune a stage-1 candidate against the next ``horizon`` output LSBs.

    Each step applies the truncated update and compares the predicted output
    LSB (column w/2+1 of the truncated t2) with the observed bit.  Returns
    (survives, steps_used); a mismatch at step j reports j steps used.  A
    zero horizon is vacuous: everything survives at zero cost.
    """
    _check_params(instance, params)
    h = instance.spec.half
    if prefix.l <= h:
        raise ValueError(f"prefix has {prefix.l} columns; the LSB bridge needs at least {h + 1}")
    if horizon > len(tail_lsbs):
        raise ValueError("horizon exceeds the available tail bits")
    survivors, steps, _ = _stage1_scalar(instance, [prefix], tail_lsbs, horizon, 1)
    return bool(survivors), steps


def verify_state(
    state: State,
    params: Tf1Params,
    ks: Keystream,
    zero_index: int,
    n_words: int,
    instance: GeneratorInstance | None = None,
) -> bool:
    """True iff ``state`` emits the zero word and the next n_words exactly.

    The state is the post-update state at ``zero_index``; its own output
    must be zero (so must the keystream word there) and rolling it forward
    must reproduce ks[zero_index+1 .. zero_index+n_words].
    """
    if zero_index < 0 or n_words < 0 or zero_index + n_words >= len(ks):
        raise ValueError("verification window exceeds the keystream")
    if instance is None:
        instance = tf1_instance(params)
    _check_params(instance, params)
    if ks.words[zero_index] != 0 or instance_output(state, instance) != 0:
        return False
    return _walk_tail(state, instance, ks.words, zero_index, zero_index + n_words)[0]


def stage2_complete(
    survivor: ColumnPrefix,
    params: Tf1Params | None,
    instance: GeneratorInstance,
    ks: Keystream,
    zero_index: int,
    cfg: AttackConfig | None = None,
) -> list[State]:
    """Extend a stage-1 survivor to full states and keep the ones that check out.

    Enumerates columns k+1..w consistent with a zero inner word over the full
    width (closed form in trivial mode, depth-first otherwise), verifies each
    candidate against ``cfg.verify_words`` outputs, and confirms the rest of
    the tail.  Only exact matches are returned.
    """
    _check_params(instance, params)
    cfg = cfg or AttackConfig()
    tail_len = len(ks) - zero_index - 1
    if tail_len < 0:
        raise ValueError("zero_index out of range")
    states, _, _ = _stage2_for_survivor(survivor, instance, ks.words, zero_index, cfg, tail_len)
    return states


def recover(
    ks: Keystream,
    instance: GeneratorInstance,
    params: Tf1Params | None = None,
    cfg: AttackConfig | None = None,
) -> AttackReport:
    """Recover internal states from a keystream with at least one zero word.

    Zero positions are tried in order (a zero too close to the end leaves
    too little tail and is skipped); the first position yielding at least
    one verified state wins.  Counters accumulate over every position tried.
    """
    t0 = time.perf_counter()
    _check_params(instance, params)
    params = instance.params
    if ks.spec != instance.spec:
        raise ValueError("keystream width differs from the instance width")
    if len(ks) == 0:
        raise ValueError("keystream is empty")
    cfg = cfg or AttackConfig()
    if cfg.enumeration_mode == "trivial" and not instance.trivial_t2_preimages:
        raise ValueError("trivial enumeration needs the additive t2; use enumeration_mode='dfs'")
    spec = params.spec
    k = spec.half + 1
    base_horizon = cfg.filter_horizon if cfg.filter_horizon is not None else 3 * k

    zeros = find_zero_outputs(ks, cfg.max_zero_positions)
    if not zeros:
        raise NeedMoreKeystream(
            f"no zero output in {len(ks)} words; expect about one per 2^{spec.width} "
            f"= {1 << spec.width} words"
        )

    counters = OpCounters()
    words = ks.words
    saw_usable_tail = False
    for z in zeros:
        tail_len = len(words) - z - 1
        if tail_len < 1:
            continue
        saw_usable_tail = True
        horizon = min(base_horizon, tail_len)
        tail_bits = [words[z + 1 + j] & 1 for j in range(horizon)]
        survivors, steps, cands = _run_stage1(instance, k, tail_bits, horizon, cfg)
        counters.stage1_candidates += cands
        counters.stage1_filter_steps += steps
        counters.stage1_survivors += len(survivors)
        found: list[State] = []
        for sv in survivors:
            states, cand2, verif2 = _stage2_for_survivor(sv, instance, words, z, cfg, tail_len)
            counters.stage2_candidates += cand2
            counters.stage2_verifications += verif2
            found.extend(states)
        if found:
            found.sort()
            return AttackReport(
                zero_index=z,
                recovered=tuple(found),
                counters=counters,
                elapsed=time.perf_counter() - t0,
                predicted_ops=predicted_work(spec),
                horizon=horizon,
                horizon_clamped=horizon < base_horizon,
                verified_words=tail_len,
                mode=cfg.enumeration_mode,
            )
    if not saw_usable_tail:
        raise InsufficientTail(
            "every zero output is the last keystream word; at least one word must follow"
        )
    raise ParamsMismatch(
        "no candidate state reproduces the keystream at any zero position; "
        "the constants or the instance do not match the stream"
    )


# ----------------------------------------------------------------------
# internals


def _check_params(instance: GeneratorInstance, params: Tf1Params | None) -> None:
    if params is not None and params != instance.params:
        raise ValueError("explicit params disagree with the instance's params")


def _state_dtype(bits: int):
    # Unsigned wraparound preserves values mod 2**m whenever m <= container
    # bits, so uint32 is exact for m <= 32 and uint64 for m <= 64.  The
    # batch kernels also pass their constants as scalars of this dtype:
    # with plain-int operands numpy stops reusing temporaries' buffers in
    # place, which made stage 1 at w=16 about 10% slower and added a chunk
    # array to the peak memory.
    return np.uint32 if bits <= 32 else np.uint64


def _run_stage1(
    instance: GeneratorInstance,
    k: int,
    tail_bits: list[int],
    horizon: int,
    cfg: AttackConfig,
) -> tuple[list[ColumnPrefix], int, int]:
    """Dispatch stage 1; returns (survivors sorted by (a,b,c,d), steps, candidates)."""
    if cfg.enumeration_mode == "trivial":
        total = 1 << (3 * k)
        if instance.tf1_native and 3 * k <= 62:
            parts = _split_range(total, cfg.workers)
            results = _map_workers(
                parts,
                lambda lo_hi: _stage1_trivial_batch(
                    lo_hi[0], lo_hi[1], k, instance.params, tail_bits, horizon, cfg.max_survivors
                ),
                cfg.workers,
            )
            survivors: list[ColumnPrefix] = []
            steps = 0
            for part_survivors, part_steps in results:
                survivors.extend(part_survivors)
                steps += part_steps
            cands = total
        else:
            survivors, steps, cands = _stage1_scalar(
                instance, enumerate_trivial_preimages(k, 0), tail_bits, horizon, cfg.max_survivors
            )
    else:
        roots = _dfs_roots(instance, k)
        parts = _split_items(roots, cfg.workers)
        results = _map_workers(
            parts,
            lambda part: _stage1_scalar(
                instance, _dfs_from_roots(instance, part, k), tail_bits, horizon, cfg.max_survivors
            ),
            cfg.workers,
        )
        survivors = []
        steps = 0
        cands = 0
        for part_survivors, part_steps, part_cands in results:
            survivors.extend(part_survivors)
            steps += part_steps
            cands += part_cands
    if len(survivors) > cfg.max_survivors:
        raise SurvivorOverflow(
            f"{len(survivors)} stage-1 survivors exceed the cap of {cfg.max_survivors}; "
            "increase the filter horizon or supply a longer tail"
        )
    survivors.sort(key=ColumnPrefix.words)
    return survivors, steps, cands


def _map_workers(parts, fn, workers: int):
    parts = [p for p in parts if p is not None]
    if workers == 1 or len(parts) <= 1:
        return [fn(p) for p in parts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, p) for p in parts]
        return [f.result() for f in futures]  # range order, not completion order


def _split_range(total: int, workers: int):
    bounds = [total * i // workers for i in range(workers + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _split_items(items, workers: int):
    if not items:
        return []
    n = min(workers, len(items))
    bounds = [len(items) * i // n for i in range(n + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _dfs_roots(instance: GeneratorInstance, k: int) -> list[ColumnPrefix]:
    """Valid one-column prefixes of the zero-target constraint, in extension order."""
    roots = []
    for ext in range(16):
        cand = ColumnPrefix(1, (ext >> 3) & 1, (ext >> 2) & 1, (ext >> 1) & 1, ext & 1)
        if (instance.t2_trunc(cand) & 1) == 0:
            roots.append(cand)
    return roots


def _dfs_from_roots(
    instance: GeneratorInstance, roots: Sequence[ColumnPrefix], k: int
) -> Iterator[ColumnPrefix]:
    for root in roots:
        if k == 1:
            yield root
        else:
            yield from enumerate_preimages_dfs(instance, 2, k, known=root, target=0)


def _stage1_scalar(
    instance: GeneratorInstance,
    candidates: Iterator[ColumnPrefix],
    tail_bits: list[int],
    horizon: int,
    max_survivors: int,
) -> tuple[list[ColumnPrefix], int, int]:
    """The truncated filter: (survivors, filter steps, candidates).

    Each candidate takes one truncated step per tail bit and drops out at
    the first predicted output LSB that differs from the observed one.
    """
    h = instance.spec.half
    t1_trunc = instance.t1_trunc
    t2_trunc = instance.t2_trunc
    survivors: list[ColumnPrefix] = []
    steps = 0
    cands = 0
    for prefix in candidates:
        cands += 1
        cur = prefix
        alive = True
        for j in range(horizon):
            cur = t1_trunc(cur)
            steps += 1
            if ((t2_trunc(cur) >> h) & 1) != tail_bits[j]:
                alive = False
                break
        if alive:
            survivors.append(prefix)
            if len(survivors) > max_survivors:
                raise SurvivorOverflow(
                    f"stage-1 survivors exceed the cap of {max_survivors}; "
                    "increase the filter horizon or supply a longer tail"
                )
    return survivors, steps, cands


def _stage1_trivial_batch(
    lo: int,
    hi: int,
    k: int,
    params: Tf1Params,
    tail_bits: list[int],
    horizon: int,
    max_survivors: int,
) -> tuple[list[ColumnPrefix], int]:
    """Batch stage 1 over candidate indices [lo, hi) of the 2**(3k) space.

    Index i encodes (a, b, d) as (i >> 2k, (i >> k) & km, i & km) with
    c = -a mod 2**k.  Same candidate order and identical per-candidate step
    accounting as the scalar path.
    """
    dtype = _state_dtype(k)
    km = low_mask(k)
    mm, c1, c3, cc = (dtype(v & km) for v in (km, params.c1, params.c3, params.c))
    top = dtype(k - 1)
    survivors: list[ColumnPrefix] = []
    steps = 0
    for cs in range(lo, hi, _CHUNK):
        ce = min(cs + _CHUNK, hi)
        idx = np.arange(cs, ce, dtype=np.uint64)
        a = (idx >> (2 * k)).astype(dtype)
        b = ((idx >> k) & km).astype(dtype)
        d = (idx & km).astype(dtype)
        c = (0 - a) & mm
        for j in range(horizon):
            steps += int(a.size)
            a, b, c, d = _rows(a, b, c, d, mm, c1, c3, cc)
            keep = (((a + c) & mm) >> top) == tail_bits[j]
            if not keep.all():
                idx = idx[keep]
                a, b, c, d = a[keep], b[keep], c[keep], d[keep]
            if idx.size == 0:
                break
        for i in idx.tolist():
            ia = i >> (2 * k)
            survivors.append(ColumnPrefix(k, ia, (i >> k) & km, (0 - ia) & km, i & km))
        if len(survivors) > max_survivors:
            raise SurvivorOverflow(
                f"stage-1 survivors exceed the cap of {max_survivors}; "
                "increase the filter horizon or supply a longer tail"
            )
    return survivors, steps


def _stage2_for_survivor(
    survivor: ColumnPrefix,
    instance: GeneratorInstance,
    words: tuple[int, ...],
    zero_index: int,
    cfg: AttackConfig,
    tail_len: int,
) -> tuple[list[State], int, int]:
    """Returns (verified states sorted, candidates enumerated, verification steps)."""
    spec = instance.spec
    w = spec.width
    k = survivor.l
    n_window = min(cfg.verify_words, tail_len)
    if cfg.enumeration_mode == "trivial":
        if not instance.trivial_t2_preimages:
            raise ValueError("trivial completion needs the additive t2; use enumeration_mode='dfs'")
        if instance.tf1_native and 3 * (w - k) <= 62:
            return _stage2_trivial_batch(
                survivor, instance, words, zero_index, n_window, tail_len
            )
        candidates = _trivial_completions(survivor, spec)
    else:
        candidates = (
            State(*p.words())
            for p in enumerate_preimages_dfs(instance, k + 1, w, known=survivor, target=0)
        )
    states: list[State] = []
    cands = 0
    verifs = 0
    for st in candidates:
        cands += 1
        ok, n = _walk_tail(st, instance, words, zero_index, zero_index + tail_len)
        verifs += n
        if ok:
            states.append(st)
    states.sort()
    return states, cands, verifs


def _trivial_completions(survivor: ColumnPrefix, spec: WordSpec) -> Iterator[State]:
    k = survivor.l
    w = spec.width
    mask = spec.mask
    hb = w - k
    a0, b0, _, d0 = survivor.words()
    for ah in range(1 << hb):
        a = (ah << k) | a0
        c = (0 - a) & mask  # low k columns match the survivor's c by construction
        for bh in range(1 << hb):
            b = (bh << k) | b0
            for dh in range(1 << hb):
                yield State(a, b, c, (dh << k) | d0)


def _walk_tail(
    state: State,
    instance: GeneratorInstance,
    words: Sequence[int],
    lo: int,
    hi: int,
) -> tuple[bool, int]:
    """Roll ``state``, the emitter of words[lo], forward and match words[lo+1 .. hi].

    Returns (matched, output words computed); a mismatch ends the walk.
    The standard generator walks on plain ints, any other instance through
    its t1 and output.
    """
    if instance.tf1_native:
        p = instance.params
        m, h, c1, c3, cc = p.spec.mask, p.spec.half, p.c1, p.c3, p.c
        a, b, c, d = state.a, state.b, state.c, state.d
        for j in range(lo + 1, hi + 1):
            a, b, c, d = _rows(a, b, c, d, m, c1, c3, cc)
            if _out(a, b, c, d, m, h) != words[j]:
                return False, j - lo
        return True, hi - lo
    t1 = instance.t1
    for j in range(lo + 1, hi + 1):
        state = t1(state)
        if instance_output(state, instance) != words[j]:
            return False, j - lo
    return True, hi - lo


def _stage2_trivial_batch(
    survivor: ColumnPrefix,
    instance: GeneratorInstance,
    words: tuple[int, ...],
    zero_index: int,
    n_window: int,
    tail_len: int,
) -> tuple[list[State], int, int]:
    """Batch completion and verification for the standard generator.

    The first ``n_window`` verification steps run on arrays; window
    survivors walk the rest of the tail on the scalar path.  Step counts
    match the scalar implementation exactly.
    """
    params = instance.params
    spec = instance.spec
    w = spec.width
    k = survivor.l
    hb = w - k
    total = 1 << (3 * hb)
    dtype = _state_dtype(w)
    mask, h = dtype(spec.mask), dtype(spec.half)
    c1, c3, cc = dtype(params.c1), dtype(params.c3), dtype(params.c)
    a0, b0, _, d0 = survivor.words()
    hm = low_mask(hb)

    states: list[State] = []
    verifs = 0
    for cs in range(0, total, _CHUNK):
        ce = min(cs + _CHUNK, total)
        idx = np.arange(cs, ce, dtype=np.uint64)
        a = (((idx >> (2 * hb)) << k) | a0).astype(dtype)
        b = ((((idx >> hb) & hm) << k) | b0).astype(dtype)
        d = (((idx & hm) << k) | d0).astype(dtype)
        c = (0 - a) & mask
        oa, ob, oc, od = a, b, c, d
        alive = True
        for j in range(1, n_window + 1):
            verifs += int(a.size)
            a, b, c, d = _rows(a, b, c, d, mask, c1, c3, cc)
            keep = _out(a, b, c, d, mask, h) == words[zero_index + j]
            if not keep.all():
                a, b, c, d = a[keep], b[keep], c[keep], d[keep]
                oa, ob, oc, od = oa[keep], ob[keep], oc[keep], od[keep]
            if a.size == 0:
                alive = False
                break
        if not alive:
            continue
        # window survivors finish the tail one state at a time
        rolled = np.stack([a, b, c, d]).T.tolist()
        origin = np.stack([oa, ob, oc, od]).T.tolist()
        end = zero_index + tail_len
        for row, orig in zip(rolled, origin):
            ok, n = _walk_tail(State(*row), instance, words, zero_index + n_window, end)
            verifs += n
            if ok:
                states.append(State(*orig))
    states.sort()
    return states, total, verifs
