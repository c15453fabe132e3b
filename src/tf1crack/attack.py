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

Each enumeration mode has one path.  ``trivial`` mode, for the standard
generator only, runs the batch (numpy) kernels on the closed form c = -a.
``dfs`` mode, for any instance, runs the scalar path: depth-first
preimages, one truncated filter and one tail walk.  The tests hold the
batch kernels to ``dfs`` mode on the same instance (the same survivors,
states and counters) and both modes to the exhaustive oracle.  Every
full-state check walks the tail through one loop, on plain ints for the
standard generator and through the instance's t1 and output for any other.

The stage-1 kernel is lane-sliced.  Since the update is a T-function, the
top column L = k-1 of a k-column step is the prefix's own top bits, put
through fixed xors and ands, xored with terms that the lower columns alone
decide:

    a'_L = a_L ^ s_L ^ x_a,           b'_L = b_L ^ (s_L & a_L) ^ x_b,
    c'_L = c_L ^ (s_L & a_L & b_L) ^ x_c,
    d'_L = d_L ^ (s_L & a_L & b_L & c_L) ^ x_d,

where s_L (the top bit of the step word s) and the x terms (top bits of
the doubled products) depend only on columns below L.  So the 8 candidates
that share their lower k-1 columns, and differ in the top bits of a, b and
d (the zero fixes c_L = c_rep,L ^ a_L), share one trajectory of them.  The
kernel steps each lower prefix once and carries the 8 candidates' top bits
as the bits of unsigned masks; d_L needs none, as it reaches no other
word's column L.  A candidate's predicted output LSB is
a'_L ^ c'_L ^ carry_L(a'_low + c'_low); it drops out at its first
mismatch.  Each step adds the popcount of the alive mask taken before it,
so ``stage1_filter_steps`` counts exactly what the scalar filter counts.

The stage-2 kernel is column-wise.  The next output is S(x) * (S(y) | 1)
with x = a'+c' and y = b'+d', and a product's low columns read only its
factors' low columns, so output column t < h = w/2 reads only columns
h..h+t of x and y.  The kernel extends all survivors of a zero position one
column j at a time, 8 ways (the bits of a, b and d; c = -a), and keeps an
extension while output columns 0..j-h of the first tail word match; at
full width the whole word must.  Those completions walk the rest of the
tail.  Each candidate is charged min(first mismatching word, tail length),
so every dropped one counts one step, as in a walk from every completion.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
    "even_c_note",
    "find_zero_outputs",
    "enumerate_trivial_preimages",
    "enumerate_preimages_dfs",
    "filter_candidate",
    "stage2_complete",
    "verify_state",
    "recover",
    "predicted_work",
]

# candidates per batch-kernel chunk (stage 1 takes _CHUNK >> 3 lower prefixes
# of 8 candidates each, stage 2 extends at most _CHUNK >> 7 prefixes by one
# column); never affects results
_CHUNK = 1 << 20


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

    ``verify_words`` changes nothing: stage 2 checks every completion
    against the whole tail.  The field and its check stay only because the
    benchmark's traced probe (``perfbench/workloads.py``) reads it to cut
    its stage-2 window; both go with the next change to the benchmark.
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


def even_c_note(params: Tf1Params) -> str:
    """Empty for an odd C; for an even C, why the stream may hold no zero word."""
    if params.c % 2:
        return ""
    return f"C = {params.c:#x} is even, and an even C can trap the state in short zero-free cycles"


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

    The survivor holds l columns (1 <= l < w) of a state that emits the zero
    word at ``zero_index``, and a word must follow it.  Trivial mode adds one
    column at a time and drops an extension at the first column where it
    disagrees with the next word; dfs mode walks the tail from every
    completion.  Both return the completions that reproduce the tail, sorted.
    """
    _check_params(instance, params)
    cfg = cfg or AttackConfig()
    _check_mode(instance, cfg)
    w = instance.spec.width
    if not 1 <= survivor.l < w:
        raise ValueError(f"survivor has {survivor.l} columns; stage 2 needs 1 to {w - 1} at w={w}")
    if instance.t2_trunc(survivor.validate(instance.spec)):
        raise ValueError("survivor violates the zero inner word on its own columns")
    if not 0 <= zero_index < len(ks) - 1:
        raise ValueError("zero_index must leave at least one keystream word after it")
    return _run_stage2([survivor], instance, ks.words, zero_index, cfg, len(ks) - zero_index - 1)[0]


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
    _check_mode(instance, cfg)
    spec = params.spec
    k = spec.half + 1
    base_horizon = cfg.filter_horizon if cfg.filter_horizon is not None else 3 * k

    zeros = find_zero_outputs(ks, cfg.max_zero_positions)
    if not zeros:
        note = even_c_note(params)
        raise NeedMoreKeystream(
            f"no zero output in {len(ks)} words; expect about one per 2^{spec.width} "
            f"= {1 << spec.width} words" + (f"; {note}" if note else "")
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
        found, cand2, verif2 = _run_stage2(survivors, instance, words, z, cfg, tail_len)
        counters.stage2_candidates += cand2
        counters.stage2_verifications += verif2
        if found:
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


def _check_mode(instance: GeneratorInstance, cfg: AttackConfig) -> None:
    """Reject trivial mode where its batch kernels do not apply: an instance
    other than the standard generator, or a width whose 2**(3(k-1)) stage-1
    lower prefixes overflow the kernels' uint64 index."""
    if cfg.enumeration_mode != "trivial":
        return
    if not instance.tf1_native:
        raise ValueError(
            "trivial enumeration needs the standard generator; use enumeration_mode='dfs'"
        )
    w = instance.spec.width
    k = instance.spec.half + 1
    if 3 * (k - 1) > 64:
        raise ValueError(
            f"w={w} is too wide for trivial mode: its 2^{3 * k} stage-1 candidates "
            "overflow the kernels' 64-bit candidate index (w <= 42)"
        )


def _state_dtype(bits: int):
    # Unsigned wraparound preserves values mod 2**m whenever m <= container
    # bits, so uint32 is exact for m <= 32 and uint64 for m <= 64.  The
    # batch kernels also pass their constants as scalars of their word dtype:
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
    """Dispatch stage 1; returns (survivors sorted by (a,b,c,d), steps, candidates).

    Trivial mode splits the lower-prefix range of the lane kernel among the
    workers, dfs mode the one-column roots of the depth-first enumeration.
    """
    if cfg.enumeration_mode == "trivial":
        parts = _split_range(1 << (3 * (k - 1)), cfg.workers)

        def run_part(part):
            lo, hi = part
            return _stage1_lanes(lo, hi, k, instance.params, tail_bits, horizon, cfg.max_survivors)

    else:
        roots = list(enumerate_preimages_dfs(instance, 1, 1))
        parts = _split_range(len(roots), cfg.workers)

        def run_part(part):
            lo, hi = part
            candidates = (
                prefix
                for root in roots[lo:hi]
                for prefix in enumerate_preimages_dfs(instance, 2, k, known=root)
            )
            return _stage1_scalar(instance, candidates, tail_bits, horizon, cfg.max_survivors)

    survivors: list[ColumnPrefix] = []
    steps = 0
    cands = 0
    for part_survivors, part_steps, part_cands in _map_workers(parts, run_part, cfg.workers):
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
    if workers == 1 or len(parts) <= 1:
        return [fn(p) for p in parts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, p) for p in parts]
        return [f.result() for f in futures]  # range order, not completion order


def _split_range(total: int, workers: int):
    bounds = [total * i // workers for i in range(workers + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


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


def _stage1_lanes(
    lo: int,
    hi: int,
    k: int,
    params: Tf1Params,
    tail_bits: list[int],
    horizon: int,
    max_survivors: int,
) -> tuple[list[ColumnPrefix], int, int]:
    """Lane-sliced stage 1 over lower-prefix indices [lo, hi) of 2**(3(k-1)).

    Index i encodes the low L = k-1 columns of (a, b, d) as (i >> 2L,
    (i >> L) & lm, i & lm), with c = -a.  Each array element is one lower
    prefix, stepped once per tail bit with a zero top column in a, b and c;
    the top bits of a', b' and c' then read x_a ^ s_L, x_b and x_c, and the
    top bit of s is s_L (see the module docstring).  The 8 candidates over the prefix
    are lanes: bit (a_L << 2) | (b_L << 1) | d_L of the masks la, lb and
    lc holds that candidate's top bits, with c_L = c_rep,L ^ a_L where
    c_rep = -a on k columns.  d_L reaches no other word's column L (it
    enters only through p, whose top bit s_L ignores, and through products,
    whose top bit reads lower columns of d), so d keeps its top bit
    uncleared and has no mask: lanes 2j and 2j+1 live and die together.
    A lane predicts the output LSB
    a'_L ^ c'_L ^ carry_L(a'_low + c'_low) and leaves ``alive`` at its
    first mismatch; a prefix leaves the arrays once its mask is 0.  Each
    step adds popcount(alive) taken before it, which is the scalar filter's
    per-candidate count.  Returns (survivors, filter steps, candidates).
    """
    low = k - 1
    lm = low_mask(low)
    km = low_mask(k)
    # the narrowest dtype for k columns and 8 lanes (uint16 at w=16 runs ~1.4x
    # faster than uint32); wraparound keeps every row exact mod 2**k
    dtype = np.min_scalar_type(km | 0xFF).type
    mm, c1, c3, cc, top = (dtype(v & km) for v in (km, params.c1, params.c3, params.c, low))
    survivors: list[ColumnPrefix] = []
    steps = 0
    for cs in range(lo, hi, _CHUNK >> 3):
        idx = np.arange(cs, min(cs + (_CHUNK >> 3), hi), dtype=_state_dtype(3 * low))
        a = (idx >> (2 * low)).astype(dtype)
        b = ((idx >> low) & lm).astype(dtype)
        d = (idx & lm).astype(dtype)
        c = (0 - a) & mm
        la = np.full(idx.size, 0xF0, dtype)
        lb = np.full(idx.size, 0xCC, dtype)
        lc = la ^ (0 - (c >> top))
        c &= lm
        alive = np.full(idx.size, 0xFF, dtype)
        for j in range(horizon):
            steps += int(np.bitwise_count(alive).sum())
            a, b, c, d, s = _rows(a, b, c, d, mm, c1, c3, cc)
            sa = (0 - (s >> top)) & la
            lc ^= (sa & lb) ^ (0 - (c >> top))
            lb ^= sa ^ (0 - (b >> top))
            la ^= 0 - (a >> top)
            a &= lm
            b &= lm
            c &= lm
            pred = la ^ lc ^ (0 - ((a + c) >> top))
            alive &= pred if tail_bits[j] else ~pred
            live = np.count_nonzero(alive)
            if live == 0:
                break
            if 2 * live < alive.size:
                # drop dead prefixes once half are gone; take() on the live
                # positions runs about 4x faster than a boolean mask here
                keep = np.flatnonzero(alive)
                idx, alive = idx.take(keep), alive.take(keep)
                a, b, c, d = a.take(keep), b.take(keep), c.take(keep), d.take(keep)
                la, lb, lc = la.take(keep), lb.take(keep), lc.take(keep)
        keep = np.flatnonzero(alive)
        for i, lanes in zip(idx.take(keep).tolist(), alive.take(keep).tolist()):
            ia, ib, id_ = i >> (2 * low), (i >> low) & lm, i & lm
            for lane in range(8):
                if lanes >> lane & 1:
                    a = ia | (lane >> 2) << low
                    b = ib | (lane >> 1 & 1) << low
                    survivors.append(ColumnPrefix(k, a, b, (0 - a) & km, id_ | (lane & 1) << low))
        if len(survivors) > max_survivors:
            raise SurvivorOverflow(
                f"stage-1 survivors exceed the cap of {max_survivors}; "
                "increase the filter horizon or supply a longer tail"
            )
    return survivors, steps, 8 * (hi - lo)


def _run_stage2(
    survivors: list[ColumnPrefix],
    instance: GeneratorInstance,
    words: tuple[int, ...],
    zero_index: int,
    cfg: AttackConfig,
    tail_len: int,
) -> tuple[list[State], int, int]:
    """Dispatch stage 2; returns (verified states sorted, candidates, verification steps).

    dfs mode walks the tail from every completion, trivial mode only from
    the column kernel's; the others mismatch at the first word: one step.
    """
    if cfg.enumeration_mode == "trivial":
        cands, walked = _stage2_columns(survivors, instance.params, words[zero_index + 1])
    else:
        cands, walked = None, (
            State(*p.words())
            for sv in survivors
            for p in enumerate_preimages_dfs(instance, sv.l + 1, instance.spec.width, known=sv)
        )
    states: list[State] = []
    n_walked = verifs = 0
    for n_walked, st in enumerate(walked, 1):
        ok, n = _walk_tail(st, instance, words, zero_index, zero_index + tail_len)
        verifs += n
        if ok:
            states.append(st)
    cands = n_walked if cands is None else cands
    states.sort()
    return states, cands, verifs + cands - n_walked


def _stage2_columns(
    survivors: list[ColumnPrefix], params: Tf1Params, first: int
) -> tuple[int, list[State]]:
    """Column-wise completion of l-column survivors for the standard
    generator: (candidates, the completions whose next output is ``first``).

    Column j = l .. w-1 steps each extension with ``_rows`` mod 2**(j+1) and
    compares the output columns it pins (see the module docstring).  A
    frontier of more than _CHUNK >> 7 prefixes is split and finished piece
    by piece, whatever the survivor count (_CHUNK >> 3 took 60 MB at w=16).
    """
    if not survivors:
        return 0, []
    spec = params.spec
    w, l = spec.width, survivors[0].l
    dtype = _state_dtype(w)
    mask, h = dtype(spec.mask), dtype(spec.half)
    lanes = np.arange(8, dtype=dtype)
    ea, eb, ed = lanes >> 2, (lanes >> 1) & 1, lanes & 1
    step = _CHUNK >> 7
    a, b, _, d = (np.array(v, dtype) for v in zip(*(sv.words() for sv in survivors)))
    frontier = [(l, a, b, d)]
    out: list[State] = []
    while frontier:
        j, a, b, d = frontier.pop()
        if a.size > step:
            for i in range(0, a.size, step):
                frontier.append((j, a[i : i + step], b[i : i + step], d[i : i + step]))
            continue
        a = (a[:, None] | (ea << j)).ravel()
        b = (b[:, None] | (eb << j)).ravel()
        d = (d[:, None] | (ed << j)).ravel()
        m = low_mask(j + 1)
        mm, c1, c3, cc = (dtype(v & m) for v in (m, params.c1, params.c3, params.c))
        nxt = _rows(a, b, (0 - a) & mm, d, mm, c1, c3, cc)[:4]
        # j+1 columns pin output columns 0..j-h, and all of them at full width
        cols = dtype(spec.mask if j == w - 1 else low_mask(max(j + 1 - spec.half, 0)))
        keep = np.flatnonzero((_out(*nxt, mask, h) & cols) == first & cols)
        a, b, d = a.take(keep), b.take(keep), d.take(keep)
        del nxt, keep  # held into the next column or piece, they add to its peak
        if j + 1 < w:
            frontier.append((j + 1, a, b, d))
        else:
            out += (State(*row) for row in np.stack([a, b, (0 - a) & mask, d]).T.tolist())
    return len(survivors) << (3 * (w - l)), out


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
            a, b, c, d, _ = _rows(a, b, c, d, m, c1, c3, cc)
            if _out(a, b, c, d, m, h) != words[j]:
                return False, j - lo
        return True, hi - lo
    t1 = instance.t1
    for j in range(lo + 1, hi + 1):
        state = t1(state)
        if instance_output(state, instance) != words[j]:
            return False, j - lo
    return True, hi - lo
