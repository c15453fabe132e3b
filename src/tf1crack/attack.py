"""Two-stage internal-state recovery from a keystream containing a zero word.

A zero output pins the inner T-function word to zero at that position,
because the other output factor is odd.  Stage 1 enumerates every candidate
for the first w/2+1 columns of the state at the zero position and prunes
each against the least significant bits of the following outputs, one
truncated step per bit.  Stage 2 extends each survivor to the remaining
columns, still constrained by the zero, and keeps exactly the full states
that reproduce the observed tail.  Survivors travel from stage 1 to stage 2
as four arrays of the state dtype, their (a, b, c, d) words sorted by
(a, b, c, d), with no Python object per survivor.  ``ColumnPrefix`` is the
type of the public edge only: the two enumerators, ``filter_candidate``
and ``stage2_complete`` take or yield one prefix at a time.

Work is counted in attack operations: one stage-1 filter step (truncated
update + truncated t2 + one bit compare) or one stage-2 verification step
(full update + output compare).  The expected total is about 16 * 2**(1.5w).

Each enumeration mode has one path, and both share one column enumerator
on arrays: it extends column prefixes one column at a time, keeping the
extensions whose new column of the truncated t2 matches the target (about
8 of the 16), and serves the t2 preimages, dfs-mode stage 1 and stage 2 in
both modes.  ``trivial`` mode, for the standard generator only, takes its
stage-1 candidates in the closed form c = -a through the lane-sliced
kernel below.  ``dfs`` mode, for any instance, takes them from the column
enumerator and prunes them with a plain array filter on the instance's word
functions.  The exhaustive oracle is the reference up to w = 8.  Above it
the tests hold the lane kernel to the plain filter on the same candidates
and trivial mode's pruned stage 2 to dfs mode's, which does not prune.
Every full-state check walks the tail through one loop, on plain ints for
the standard generator and through the instance's word functions for any
other.  A truncated evaluation passes low_mask(l) to the same word
functions.

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
so ``stage1_filter_steps`` counts exactly what the plain filter counts.

Stage 2 completes the survivors of a zero position with the column
enumerator.  In trivial mode it also prunes on the first tail word.  The
next output is S(x) * (S(y) | 1) with x = a'+c' and y = b'+d',
and a product's low columns read only its factors' low columns, so output
column t < h = w/2 reads only columns h..h+t of x and y.  So at column j an
extension is kept while output columns 0..j-h of the first tail word
match; at full width the whole word must.  In either mode only the
completions that emit the first tail word walk the rest of the tail.  Each
candidate is charged min(first mismatching word, tail length), so every
other one counts one step, as in a walk from every completion.
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
    _instance_out,
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

# candidates per batch-kernel chunk (the lane kernel takes _CHUNK >> 3 lower
# prefixes of 8 candidates each, the column enumerator extends at most
# _CHUNK >> 10 prefixes by one column, 16 ways); never affects results
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
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
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
    """Extension of a known (l-1)-column prefix to k columns, in depth-first order.

    Column by column, all 16 one-bit extensions of (a, b, c, d) are tried
    and an extension is kept when the new column of the truncated t2 equals
    the corresponding target bit.  The column enumerator runs on arrays and
    splits a large frontier into pieces, so memory stays bounded.  Works for
    any T-function t2, at about 2**(3(k-l)) operations when roughly half the
    extensions survive per column.
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
        base = known.validate(instance.spec).words()
        m = low_mask(l - 1)
        if instance.t2_words(*base, m) != (target & m):
            raise ValueError("known prefix violates the constraint on its own columns")
    for batch in _columns(instance, _to_arrays(instance.spec, [base]), l - 1, k, target):
        for row in zip(*(v.tolist() for v in batch)):
            yield ColumnPrefix(k, *row)


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
    if not 0 <= horizon <= len(tail_lsbs):
        raise ValueError(f"horizon {horizon} is outside 0..{len(tail_lsbs)}, the tail bits given")
    if any(bit not in (0, 1) for bit in tail_lsbs):
        raise ValueError("tail bits must be 0 or 1")
    batch = _to_arrays(instance.spec, [prefix.validate(instance.spec).words()])
    keep, steps = _filter(instance, batch, prefix.l, tail_lsbs, horizon)
    return bool(keep.size), steps


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
    if instance is None:
        instance = tf1_instance(params)
    _check_params(instance, params)
    _check_width(ks, instance.spec)
    if zero_index < 0 or n_words < 0 or zero_index + n_words >= len(ks):
        raise ValueError("verification window exceeds the keystream")
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
    word at ``zero_index``, and a word must follow it.  Both modes add one
    column at a time; trivial mode also drops an extension at the first
    column where it disagrees with the next word.  Both return the
    completions that reproduce the tail, sorted.
    """
    _check_params(instance, params)
    _check_width(ks, instance.spec)
    cfg = cfg or AttackConfig()
    _check_mode(instance, cfg)
    w = instance.spec.width
    if not 1 <= survivor.l < w:
        raise ValueError(f"survivor has {survivor.l} columns; stage 2 needs 1 to {w - 1} at w={w}")
    if instance.t2_words(*survivor.validate(instance.spec).words(), low_mask(survivor.l)):
        raise ValueError("survivor violates the zero inner word on its own columns")
    if not 0 <= zero_index < len(ks) - 1:
        raise ValueError("zero_index must leave at least one keystream word after it")
    prefix = _to_arrays(instance.spec, [survivor.words()])
    tail_len = len(ks) - zero_index - 1
    return _run_stage2(prefix, survivor.l, instance, ks.words, zero_index, cfg, tail_len)[0]


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
    _check_width(ks, instance.spec)
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
        counters.stage1_survivors += survivors[0].size
        found, cand2, verif2 = _run_stage2(survivors, k, instance, words, z, cfg, tail_len)
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


def _check_width(ks: Keystream, spec: WordSpec) -> None:
    if ks.spec != spec:
        raise ValueError("keystream width differs from the instance width")


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
    # bits, so uint32 is exact for m <= 32 and uint64 for m <= 64.  The lane
    # kernel also passes its constants as scalars of its word dtype: with
    # plain-int operands numpy stops reusing temporaries' buffers in place,
    # which made stage 1 at w=16 about 10% slower and added a chunk array to
    # the peak memory.  The column enumerator and the plain filter call the
    # instance's word functions, whose constants are plain ints.
    return np.uint32 if bits <= 32 else np.uint64


def _run_stage1(
    instance: GeneratorInstance,
    k: int,
    tail_bits: list[int],
    horizon: int,
    cfg: AttackConfig,
) -> tuple[tuple, int, int]:
    """Dispatch stage 1; returns (survivors, steps, candidates).

    The survivors are four arrays of the state dtype, the (a, b, c, d)
    words of the k-column prefixes, sorted by (a, b, c, d).  Trivial mode
    splits the lower-prefix range of the lane kernel among the workers, dfs
    mode the one-column roots of the column enumerator.
    """
    spec, cap = instance.spec, cfg.max_survivors
    if cfg.enumeration_mode == "trivial":
        parts = _split_range(1 << (3 * (k - 1)), cfg.workers)

        def run_part(part):
            lo, hi = part
            return _stage1_lanes(lo, hi, k, instance.params, tail_bits, horizon, cap)

    else:
        roots = _concat(spec, list(_columns(instance, _to_arrays(spec, [(0, 0, 0, 0)]), 0, 1)))
        parts = _split_range(roots[0].size, cfg.workers)

        def run_part(part):
            lo, hi = part
            kept = []
            n = steps = cands = 0
            for batch in _columns(instance, tuple(v[lo:hi] for v in roots), 1, k):
                keep, n_steps = _filter(instance, batch, k, tail_bits, horizon)
                cands += batch[0].size
                steps += n_steps
                kept.append(tuple(v.take(keep) for v in batch))
                n += keep.size
                # the count at which a one-at-a-time filter stops
                _check_cap(min(n, cap + 1), cap)
            return _concat(spec, kept), steps, cands

    results = _map_workers(parts, run_part, cfg.workers)
    survivors = _concat(spec, [r[0] for r in results])
    _check_cap(survivors[0].size, cap)
    order = np.lexsort(survivors[::-1])
    steps, cands = (sum(r[i] for r in results) for i in (1, 2))
    return tuple(v.take(order) for v in survivors), steps, cands


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise SurvivorOverflow(
            f"{n} stage-1 survivors exceed the cap of {cap}; "
            "increase the filter horizon or supply a longer tail"
        )


def _map_workers(parts, fn, workers: int):
    if workers == 1 or len(parts) <= 1:
        return [fn(p) for p in parts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, p) for p in parts]
        return [f.result() for f in futures]  # range order, not completion order


def _split_range(total: int, workers: int):
    bounds = [total * i // workers for i in range(workers + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _stage1_lanes(
    lo: int,
    hi: int,
    k: int,
    params: Tf1Params,
    tail_bits: list[int],
    horizon: int,
    max_survivors: int,
) -> tuple[tuple, int, int]:
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
    step adds popcount(alive) taken before it, which is the plain filter's
    per-candidate count.  Each chunk checks the cap on its running
    popcount of the final masks before it decodes their lanes, with numpy,
    into the words of k-column prefixes.  Returns (survivors as four
    arrays of the state dtype, filter steps, candidates).
    """
    low = k - 1
    lm = low_mask(low)
    km = low_mask(k)
    # the narrowest dtype for k columns and 8 lanes (uint16 at w=16 runs ~1.4x
    # faster than uint32); wraparound keeps every row exact mod 2**k
    dtype = np.min_scalar_type(km | 0xFF).type
    mm, c1, c3, cc, top = (dtype(v & km) for v in (km, params.c1, params.c3, params.c, low))
    word = _state_dtype(params.spec.width)
    kept = []
    n = steps = 0
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
        n += int(np.bitwise_count(alive).sum())
        _check_cap(n, max_survivors)
        rows, lanes = np.nonzero((alive[:, None] >> np.arange(8, dtype=dtype)) & 1)
        i, lane = idx.take(rows), lanes.astype(idx.dtype)
        # lane bit 2, 1, 0 is the top bit of a, b, d; idx holds their low columns
        a, b, d = ((i >> (t * low)) & lm | ((lane >> t) & 1) << low for t in (2, 1, 0))
        kept.append(tuple(v.astype(word) for v in (a, b, (0 - a) & km, d)))
    return _concat(params.spec, kept), steps, 8 * (hi - lo)


def _run_stage2(
    prefixes: tuple,
    l: int,
    instance: GeneratorInstance,
    words: tuple[int, ...],
    zero_index: int,
    cfg: AttackConfig,
    tail_len: int,
) -> tuple[list[State], int, int]:
    """Complete the survivors; returns (verified states sorted, candidates, verification steps).

    ``prefixes`` holds the survivors' four words as arrays of the state
    dtype, all of them l-column prefixes, as ``_run_stage1`` returns them.
    The column enumerator builds the completions in both modes.  Trivial
    mode also prunes them on the first tail word and counts its candidates
    in closed form.  Only the completions that emit the first tail word
    walk the tail; every other one mismatches at that word: one step.
    """
    spec = instance.spec
    first = words[zero_index + 1]
    trivial = cfg.enumeration_mode == "trivial"
    batches = _columns(instance, prefixes, l, spec.width, first=first if trivial else None)
    states: list[State] = []
    n_leaves = n_walked = verifs = 0
    for batch in batches:
        n_leaves += batch[0].size
        emits = _instance_out(instance, *instance.t1_words(*batch, spec.mask)) == first
        for row in zip(*(v[emits].tolist() for v in batch)):
            st = State(*row)
            ok, n = _walk_tail(st, instance, words, zero_index, zero_index + tail_len)
            n_walked += 1
            verifs += n
            if ok:
                states.append(st)
    cands = prefixes[0].size << (3 * (spec.width - l)) if trivial else n_leaves
    states.sort()
    return states, cands, verifs + cands - n_walked


def _columns(
    instance: GeneratorInstance,
    words: tuple,
    l: int,
    k: int,
    target: int = 0,
    first: int | None = None,
) -> Iterator[tuple]:
    """Extend l-column prefixes to k columns; yields batches of (a, b, c, d) arrays.

    ``words`` holds the prefixes' four words as arrays of the state dtype.
    Column j = l .. k-1 tries the 16 one-bit extensions of each prefix and
    keeps one when column j of its t2_words mod 2**(j+1) equals bit j of
    ``target``.  With ``first`` (the standard generator only), an extension
    is also dropped at the first output column where its next output
    disagrees with ``first``: j+1 columns pin output columns 0..j-h, and
    the whole word at full width (see the module docstring).  The t2 test
    comes before the update step, which then runs on half as many words.
    A frontier of more than _CHUNK >> 10 prefixes is split and finished
    piece by piece; batches come in depth-first order.
    """
    spec = instance.spec
    h = spec.half
    ext = np.arange(16, dtype=_state_dtype(spec.width))
    bits = (ext >> 3, (ext >> 2) & 1, (ext >> 1) & 1, ext & 1)
    step = _CHUNK >> 10
    frontier = [(l, words)]
    while frontier:
        j, pre = frontier.pop()
        n = pre[0].size
        if j == k:
            yield pre
        elif n > step:
            # the last piece goes on the stack first, so the first is finished first
            for i in reversed(range(0, n, step)):
                frontier.append((j, tuple(v[i : i + step] for v in pre)))
        else:
            m = low_mask(j + 1)
            x = tuple((v[:, None] | (e << j)).ravel() for v, e in zip(pre, bits))
            keep = np.flatnonzero(((instance.t2_words(*x, m) >> j) & 1) == (target >> j) & 1)
            x = tuple(v.take(keep) for v in x)
            if first is not None and j >= h:
                cols = spec.mask if j == spec.width - 1 else low_mask(j + 1 - h)
                out = _out(*instance.t1_words(*x, m), spec.mask, h)
                keep = np.flatnonzero((out & cols) == first & cols)
                x = tuple(v.take(keep) for v in x)
            if x[0].size:
                frontier.append((j + 1, x))


def _filter(
    instance: GeneratorInstance, batch: tuple, l: int, tail_bits: Sequence[int], horizon: int
) -> tuple[np.ndarray, int]:
    """The truncated filter on a batch of l-column candidates (a, b, c, d
    arrays): (positions of the survivors in the batch, filter steps).

    Each candidate takes one truncated step per tail bit and drops out at
    the first predicted output LSB that differs from the observed one.
    """
    h, m = instance.spec.half, low_mask(l)
    pos = np.arange(batch[0].size)
    steps = 0
    for bit in tail_bits[:horizon]:
        if not pos.size:
            break
        batch = instance.t1_words(*batch, m)
        steps += pos.size
        keep = np.flatnonzero(((instance.t2_words(*batch, m) >> h) & 1) == bit)
        pos, batch = pos.take(keep), tuple(v.take(keep) for v in batch)
    return pos, steps


def _to_arrays(spec: WordSpec, rows) -> tuple:
    """Four arrays of the state dtype from a non-empty list of (a, b, c, d) rows."""
    return tuple(np.array(col, _state_dtype(spec.width)) for col in zip(*rows))


def _concat(spec: WordSpec, batches: list) -> tuple:
    """One batch of four state-dtype arrays from a list of batches, which may be empty."""
    empty = np.empty(0, _state_dtype(spec.width))
    return tuple(np.concatenate([empty, *(b[i] for b in batches)]) for i in range(4))


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
    its word functions.
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
    t1_words, m = instance.t1_words, instance.spec.mask
    a, b, c, d = state.words()
    for j in range(lo + 1, hi + 1):
        a, b, c, d = t1_words(a, b, c, d, m)
        if _instance_out(instance, a, b, c, d) != words[j]:
            return False, j - lo
    return True, hi - lo
