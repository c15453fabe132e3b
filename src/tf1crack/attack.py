"""Two-stage internal-state recovery from a keystream containing a zero word.

An output word S(x) * (S(y) | 1) has an odd second factor, so the zero word
pins the inner T-function word x = t2 to zero at its position.  An event is
such a position and the inner word X that its word pins; ``recover`` makes
one event, X = 0, per zero word and walks them in order.  Stage 1
enumerates every candidate for the first w/2+1 columns of the state at the
event, with t2 = X there, and prunes each against the least significant
bits of the following outputs, one truncated step per bit.  Stage 2
extends each survivor to the remaining columns, still constrained by X,
and keeps exactly the full states that reproduce the observed tail.
Survivors travel from stage 1 to stage 2 as four ``word_dtype(w)``
arrays, their (a, b, c, d) words in the order that stage 1's parts find
them, with no Python object per survivor; stage 2 sorts only the states
it keeps.  ``ColumnPrefix`` is the type of the one-prefix edge only,
which the package does not export and ``recover`` does not use:
``enumerate_preimages_dfs`` yields one prefix at a time and
``stage2_complete`` takes one.

Work is counted in attack operations: one stage-1 filter step (truncated
update + truncated t2 + one bit compare) or one stage-2 verification step
(full update + output compare).  The expected total is about 16 * 2**(1.5w).

The enumeration mode chooses stage 1 and nothing else; the instance
chooses stage 2.  One column enumerator on arrays serves them: it extends
column prefixes one column at a time, keeping the extensions whose new
column of the truncated t2 matches the target (about 8 of the 16), and
gives the t2 preimages, dfs-mode stage 1 and stage 2.  ``trivial`` mode,
for the standard generator only, takes its stage-1 candidates in the
closed form c = X - a through the lane-sliced kernel below.  ``dfs`` mode,
for any instance, takes them from the column enumerator and prunes them
with a plain array filter on the instance's word functions.  The exhaustive
oracle is the reference up to w = 8.  Above it the tests hold the lane
kernel to the plain filter on the same candidates and the standard
generator's pruned stage 2 to that of its generic twin, which does not
prune.  Every full-state check of a single state reads the generator's
one output stream, ``_stream``, which steps every instance through its
word functions and runs the standard generator compiled.  A truncated
evaluation passes low_mask(l) to the same word functions.

The stage-1 kernel is lane-sliced over the top two columns, U = k-2 and
T = k-1: the candidates that share the low k-2 columns of (a, b, d), with
c = X - a, share the trajectory of those columns, so the kernel steps each
such lower prefix once and carries the 32 settings of (a_U, b_U, d_U, a_T,
b_T) as the lanes of 32-bit masks, each lane for 2 candidates.  It is
written in C, in ``_lanes.c``, whose header comment gives its rules, and is
built, with the standard generator's stream, at the first use of either
in a process (``_native``).  Each step adds 2·popcount of the alive mask
taken before it, so ``stage1_filter_steps`` counts exactly what the plain
filter counts.

Stage 1 runs in parts, one range of lower prefixes (trivial mode) or of
one-column roots (dfs mode) each.  A part is a generator of batches
(survivors, filter steps, candidates): one per call of the lane kernel,
on _WORKING lower prefixes, or one per filtered column-enumerator batch,
which the enumerator sizes to _WORKING.  One part loop, in
``_run_stage1``, sums the batches and stops a part once its survivors pass
the cap, so the counters and the cap are applied in one place for both
modes.

Stage 2 completes the survivors of an event with the column enumerator,
in either mode.  For the standard generator it also prunes on the first
tail word, however stage 1 found the survivors.  The next output is
S(x) * (S(y) | 1) with x = a'+c' and y = b'+d', and a product's low
columns read only its factors' low columns, so output
column t < h = w/2 reads only columns h..h+t of x and y.  So at column j an
extension is kept while output columns 0..j-h of the first tail word
match; at full width the whole word must.  For every instance the
completions that emit the event word walk the tail from it, one step per
word, the first tail word included: t2 = X pins only the factor S(X) of
the event word, and unless X = 0 its other factor reads b and d.  The
walkers step together as arrays, through the instance's t1_words and
output word, until at most a few are left; each of those then walks on
alone through ``_stream``.  Each candidate is charged min(first
mismatching word, tail length), so every other one counts one step, as in
a walk from every completion, and where the arrays stop changes no
counter.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import ClassVar, Iterator, Sequence

import numpy as np

from . import _native
from ._native import KernelBuildError
from .generator import (
    ColumnPrefix,
    GeneratorInstance,
    Keystream,
    State,
    Tf1Params,
    _instance_out,
    _out,
    _stream,
    instance_output,
    tf1_instance,
)
from .word import WordSpec, check_int, low_mask, word_dtype

__all__ = [
    "AttackError",
    "NeedMoreKeystream",
    "InsufficientTail",
    "SurvivorOverflow",
    "ParamsMismatch",
    "KernelBuildError",
    "AttackConfig",
    "OpCounters",
    "AttackReport",
    "even_c_note",
    "no_zero_error",
    "find_zero_outputs",
    "verify_state",
    "recover",
    "predicted_work",
]

# the attack's one array size.  The column enumerator finishes a frontier in
# pieces of _WORKING >> 3 prefixes, so where t2 keeps 8 of a column's 16
# extensions, as a + c does, a batch holds at most _WORKING words: in dfs
# mode the candidates of one _filter call, exactly _WORKING at w >= 10, and
# in stage 2 the completions built at once.  Smaller dfs sets spent most of
# their time in numpy's per-call overhead: w = 10..14 ran 1.2-1.7x faster
# than on batches of up to 8192, and 2^14 and 2^17 slower than 2^15
# (BENCH_dfs.json).  In trivial mode, the lower prefixes of one call to the
# compiled lane kernel, 64 candidates each.  Never affects results.
_WORKING = 1 << 15
# stage 2 steps the completions that emit the event word down the tail as
# arrays until at most this many are left, then walks each one left on its
# own; never affects results
_FEW = 8


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

    ``filter_horizon=None`` means 3*(w/2+1), resolved by ``horizon_for``
    once the width is known; it is silently clamped to the available tail
    (the report flags the clamp).  Stage 1 runs on min(``workers``,
    ``os.cpu_count()``) processes and splits into one candidate sub-range
    per process: the calling process runs the first, and a forked process
    each other one.  Reports, and the ``SurvivorOverflow`` message, are
    identical for any worker count.

    Three constants are not fields.  ``recover`` tries the events at the
    first ``max_zero_positions`` zero words.  Stage 1 raises
    ``SurvivorOverflow`` past ``max_survivors`` survivors, a bound on
    stage 2's work: each survivor costs 2**(1.5w - 3) completions, so 4096
    of them cost 32 times the predicted 16 * 2**(1.5w) at every width.
    ``verify_words`` changes nothing, as stage 2 checks every completion
    against the whole tail; it stays only because the benchmark's traced
    probe (``perfbench/workloads.py``) reads it to cut its stage-2 window,
    and goes with the next change to the benchmark.
    """

    filter_horizon: int | None = None
    enumeration_mode: str = "trivial"
    workers: int = 1
    max_zero_positions: ClassVar[int] = 8
    max_survivors: ClassVar[int] = 4096
    verify_words: ClassVar[int] = 4

    def __post_init__(self) -> None:
        if self.filter_horizon is not None and check_int(self.filter_horizon, "filter_horizon") < 1:
            raise ValueError("filter_horizon must be >= 1")
        check_int(self.workers, "workers")
        if self.enumeration_mode not in ("trivial", "dfs"):
            raise ValueError("enumeration_mode must be 'trivial' or 'dfs'")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def horizon_for(self, spec: WordSpec) -> int:
        """``filter_horizon``, or the default 3*(w/2+1) when it is None."""
        return self.filter_horizon if self.filter_horizon is not None else 3 * (spec.half + 1)


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
    """Outcome of ``recover``: states at one event plus accounting.

    ``zero_index`` is the position of the event that gave the states: a
    zero word, which pins the inner word t2 to X = 0 there.
    ``recovered`` holds the post-update states that emit that word and
    reproduce every following keystream word (``verified_words`` of them),
    sorted ascending by (a, b, c, d).  The counters sum over every event
    tried.  ``elapsed`` is wall seconds.
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


def no_zero_error(params: Tf1Params, message: str) -> NeedMoreKeystream:
    """``NeedMoreKeystream(message)``, with ``even_c_note`` appended when it applies."""
    note = even_c_note(params)
    return NeedMoreKeystream(message + (f"; {note}" if note else ""))


def find_zero_outputs(ks: Keystream, limit: int | None = None) -> list[int]:
    """Ascending positions of exact-zero output words, at most ``limit``."""
    if limit is not None and check_int(limit, "limit") < 1:
        raise ValueError("limit must be >= 1")
    out = []
    i = -1
    # tuple.index scans in C; it raises ValueError past the last zero
    with contextlib.suppress(ValueError):
        while limit is None or len(out) < limit:
            i = ks.words.index(0, i + 1)
            out.append(i)
    return out


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
    finishes a large frontier in pieces of _WORKING >> 3 prefixes, so memory
    stays bounded.  Works for any T-function t2, at about 2**(3(k-l))
    operations when roughly half the extensions survive per column.
    """
    w = instance.spec.width
    if not 1 <= l <= k <= w:
        raise ValueError(f"need 1 <= l <= k <= {w}, got l={l}, k={k}")
    if not 0 <= target <= low_mask(k):
        raise ValueError(f"target {target:#x} does not fit in {k} columns")
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


def verify_state(
    state: State,
    params: Tf1Params,
    ks: Keystream,
    zero_index: int,
    n_words: int,
    instance: GeneratorInstance | None = None,
) -> bool:
    """True iff ``state`` emits ks[zero_index] and the next n_words exactly.

    The state is the post-update state at ``zero_index``: its own output
    must equal the keystream word there, which need not be zero, and
    rolling it forward must reproduce ks[zero_index+1 .. zero_index+n_words].
    A state word outside the width raises ValueError.
    """
    if instance is None:
        instance = tf1_instance(params)
    _check_params(instance, params)
    _check_width(ks, instance.spec)
    for name, word in zip("abcd", state.words()):
        instance.spec.check_word(word, name)
    _check_window(ks, zero_index, n_words, "n_words")
    if instance_output(state, instance) != ks.words[zero_index]:
        return False
    return _walk_tail(state, instance, ks.words[: zero_index + n_words + 1], zero_index)[0]


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
    word at ``zero_index``, and a word must follow it.  Completions grow one
    column at a time; for the standard generator an extension is also
    dropped at the first column where it disagrees with the next word.  The
    completions that reproduce the tail are returned sorted.  ``cfg`` is
    ignored: stage 2 is the same in both enumeration modes, for every
    instance and width.
    """
    _check_params(instance, params)
    _check_width(ks, instance.spec)
    w = instance.spec.width
    if not 1 <= survivor.l < w:
        raise ValueError(f"survivor has {survivor.l} columns; stage 2 needs 1 to {w - 1} at w={w}")
    if instance.t2_words(*survivor.validate(instance.spec).words(), low_mask(survivor.l)):
        raise ValueError("survivor violates the zero inner word on its own columns")
    if not 0 <= zero_index < len(ks) - 1:
        raise ValueError("zero_index must leave at least one keystream word after it")
    if ks.words[zero_index] != 0:
        raise ValueError(f"keystream word at {zero_index} is not zero")
    prefix = _to_arrays(instance.spec, [survivor.words()])
    return _run_stage2(prefix, survivor.l, instance, ks.words, zero_index, 0)[0]


def recover(
    ks: Keystream,
    instance: GeneratorInstance,
    params: Tf1Params | None = None,
    cfg: AttackConfig | None = None,
) -> AttackReport:
    """Recover internal states from a keystream with at least one zero word.

    Each of the first ``AttackConfig.max_zero_positions`` zero words makes
    an event, X = 0 at its position.  Events are tried in order (a zero
    that ends the keystream leaves no tail and makes none);
    the first event yielding at least one verified state wins.  Counters
    accumulate over every event tried.
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
    base_horizon = cfg.horizon_for(spec)

    zeros = find_zero_outputs(ks, cfg.max_zero_positions)
    if not zeros:
        raise no_zero_error(params, f"no zero output in {len(ks)} words; expect about one per "
                            f"2^{spec.width} = {1 << spec.width} words")

    words = ks.words
    # an event (index, x): the word at index pins the inner word t2 (a + c
    # for the standard generator) to x; the only place where a zero word
    # becomes x = 0
    events = [(z, 0) for z in zeros if z < len(words) - 1]
    if not events:
        raise InsufficientTail(
            "every zero output is the last keystream word; at least one word must follow"
        )
    counters = OpCounters()
    for index, x in events:
        tail_len = len(words) - index - 1
        horizon = min(base_horizon, tail_len)
        tail_bits = [words[index + 1 + j] & 1 for j in range(horizon)]
        survivors, steps, cands = _run_stage1(instance, k, x, tail_bits, cfg)
        counters.stage1_candidates += cands
        counters.stage1_filter_steps += steps
        counters.stage1_survivors += survivors[0].size
        found, cand2, verif2 = _run_stage2(survivors, k, instance, words, index, x)
        counters.stage2_candidates += cand2
        counters.stage2_verifications += verif2
        if found:
            return AttackReport(
                zero_index=index,
                recovered=tuple(found),
                counters=counters,
                elapsed=time.perf_counter() - t0,
                predicted_ops=predicted_work(spec),
                horizon=horizon,
                horizon_clamped=horizon < base_horizon,
                verified_words=tail_len,
                mode=cfg.enumeration_mode,
            )
    # no state emits a word outside the width; looked for only on failure,
    # so a successful recover pays nothing for it
    spec.check_words(words)
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


def _check_window(ks: Keystream, zero_index: int, window: int, name: str) -> None:
    """Reject a window of ``window`` words after ks[zero_index] that leaves the
    keystream; ``name`` is the caller's name for the window length."""
    if not 0 <= zero_index < len(ks):
        raise ValueError(f"zero_index {zero_index} is outside the keystream's 0..{len(ks) - 1}")
    if not 0 <= window < len(ks) - zero_index:
        raise ValueError(f"{name} {window} is outside 0..{len(ks) - 1 - zero_index}, "
                         f"the words after zero_index {zero_index}")


def _check_mode(instance: GeneratorInstance, cfg: AttackConfig) -> None:
    """Reject trivial mode where its batch kernels do not apply: an instance
    other than the standard generator, or a width whose 2**(3(k-2)) stage-1
    lower prefixes overflow the lane kernel's uint64 index."""
    if cfg.enumeration_mode != "trivial":
        return
    if not instance.tf1_native:
        raise ValueError(
            "trivial enumeration needs the standard generator; use enumeration_mode='dfs'"
        )
    w = instance.spec.width
    k = instance.spec.half + 1
    if 3 * (k - 2) > 64:
        raise ValueError(
            f"w={w} is too wide for trivial mode: its 2^{3 * k} stage-1 candidates "
            "overflow the kernels' 64-bit candidate index (w <= 44)"
        )


def _run_stage1(
    instance: GeneratorInstance,
    k: int,
    x: int,
    tail_bits: list[int],
    cfg: AttackConfig,
) -> tuple[tuple, int, int]:
    """Dispatch stage 1 at an event with inner word x; returns (survivors,
    steps, candidates).

    The survivors are four arrays of ``word_dtype(w)``, the (a, b, c, d)
    words of the k-column prefixes with t2 = x on k columns, part after
    part in range order and, within a part, in the order its batches come;
    nothing downstream reads the order.  Trivial mode splits the
    lower-prefix range of the lane kernel into min(``cfg.workers``,
    ``os.cpu_count()``) parts, dfs mode the one-column roots of the column
    enumerator; this process runs the first part, and a forked process
    each other one.  Each mode gives a part as a generator of
    (survivors, steps, candidates) batches: the lane kernel's calls, or
    ``_filter`` on each of the column enumerator's batches, which
    _WORKING sizes.  ``run_part`` is the one loop for both:
    it keeps each batch's survivors, sums its steps and candidates, and
    stops once the part's survivors pass the cap.  The merge, in range
    order, raises ``SurvivorOverflow`` with cap + 1, the count at which a
    one-at-a-time filter stops, so the message depends on neither the
    split, nor the mode, nor the working set.
    """
    spec, cap = instance.spec, cfg.max_survivors
    procs = min(cfg.workers, os.cpu_count() or 1)
    if cfg.enumeration_mode == "trivial":
        parts = _split_range(1 << (3 * (k - 2)), procs)
        # build or load the kernel here, once, before any worker forks
        _native.lanes()

        def batches(lo, hi):
            return _stage1_lanes(lo, hi, k, instance.params, x, tail_bits)

    else:
        roots = _concat(spec, list(_columns(instance, _to_arrays(spec, [(0, 0, 0, 0)]), 0, 1, x)))
        parts = _split_range(roots[0].size, procs)

        def batches(lo, hi):
            for batch in _columns(instance, tuple(v[lo:hi] for v in roots), 1, k, x):
                keep, steps = _filter(instance, batch, k, tail_bits)
                yield tuple(v.take(keep) for v in batch), steps, batch[0].size

    def run_part(part):
        kept = []
        n = steps = cands = 0
        for survivors, n_steps, n_cands in batches(*part):
            kept.append(survivors)
            steps += n_steps
            cands += n_cands
            n += survivors[0].size
            if n > cap:
                break
        return _concat(spec, kept), steps, cands

    results = _map_workers(parts, run_part)
    survivors = _concat(spec, [r[0] for r in results])
    if survivors[0].size > cap:
        raise SurvivorOverflow(
            f"{cap + 1} stage-1 survivors exceed the cap of {cap}; "
            "increase the filter horizon or supply a longer tail"
        )
    steps, cands = (sum(r[i] for r in results) for i in (1, 2))
    return survivors, steps, cands


# a forked worker's task, set as the worker starts
_TASK = None


def _set_task(fn) -> None:
    global _TASK
    _TASK = fn


def _run_task(part):
    return _TASK(part)


def _map_workers(parts, fn) -> list:
    """[fn(part) for part in parts], in range order: the first part in this
    process, and each other one in a forked process of its own."""
    if len(parts) <= 1:
        return [fn(p) for p in parts]
    # fork, not spawn: an instance's word functions are closures and lambdas,
    # which do not pickle, so each worker inherits fn instead; the
    # initializer, not a global set before the fork, so that concurrent
    # calls from two threads cannot hand each other's task to their workers
    with multiprocessing.get_context("fork").Pool(len(parts) - 1, _set_task, (fn,)) as pool:
        rest = pool.map_async(_run_task, parts[1:], chunksize=1)
        return [fn(parts[0]), *rest.get()]


def _split_range(total: int, workers: int):
    # more parts than indices would all be empty or singletons: cap the count
    n = max(1, min(workers, total))
    bounds = [total * i // n for i in range(n + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _stage1_lanes(
    lo: int,
    hi: int,
    k: int,
    params: Tf1Params,
    x: int,
    tail_bits: list[int],
) -> Iterator[tuple]:
    """Lane-sliced stage 1 at inner word x over lower-prefix indices [lo, hi)
    of 2**(3(k-2)), by the compiled kernel of ``_lanes.c``, whose header
    gives the rules.

    Index i encodes the low L = k-2 columns of (a, b, d) as (i >> 2L,
    (i >> L) & lm, i & lm), with c = (x - a) mod 2**k.  The kernel runs
    _WORKING lower prefixes a call and returns each survivor's index and
    alive mask, whose lane bits 4, 3, 2, 1, 0 are a candidate's a_T, b_T,
    a_U, b_U, d_U; each lane stands for the 2 candidates d_T = 0 and 1.
    Yields, once per call, (survivors as four ``word_dtype(w)`` arrays,
    filter steps, candidates: 64 per lower prefix); the caller sums the
    batches and applies the survivor cap.
    """
    low = k - 2
    lm, km = low_mask(low), low_mask(k)
    word = word_dtype(params.spec.width)
    kernel = _native.lanes()
    consts = [v & km for v in (params.c1, params.c3, params.c, x)]
    bits = np.array(tail_bits, np.uint8)
    cap = min(_WORKING, hi - lo)
    ids, alive = np.empty(cap, np.uint64), np.empty(cap, np.uint32)
    steps = ctypes.c_uint64()
    shifts = np.arange(32, dtype=np.uint32)
    for start in range(lo, hi, cap):
        stop = min(start + cap, hi)
        n = kernel(start, stop, k, *consts, bits.ctypes.data, bits.size,
                   ids.ctypes.data, alive.ctypes.data, ctypes.byref(steps))
        rows, lanes = np.nonzero((alive[:n, None] >> shifts) & 1)
        i, lane = ids.take(rows), lanes.astype(np.uint64)
        a = (i >> (2 * low)) | ((lane >> 2) & 1) << low | (lane >> 4) << (k - 1)
        b = ((i >> low) & lm) | ((lane >> 1) & 1) << low | ((lane >> 3) & 1) << (k - 1)
        d = (i & lm) | (lane & 1) << low
        a, b, d = np.tile(a, 2), np.tile(b, 2), np.concatenate([d, d | 1 << (k - 1)])
        yield tuple(v.astype(word) for v in (a, b, (x - a) & km, d)), steps.value, 64 * (stop - start)


def _run_stage2(
    prefixes: tuple,
    l: int,
    instance: GeneratorInstance,
    words: tuple[int, ...],
    index: int,
    x: int,
) -> tuple[list[State], int, int]:
    """Complete the survivors of the event (index, x); returns (verified
    states sorted, candidates, verification steps).

    ``prefixes`` holds the survivors' four words as ``word_dtype(w)``
    arrays, all of them l-column prefixes with t2 = x on l columns, in any
    order.  The completions keep t2 = x, and the tail is ``words`` after
    ``index``, to its end.  The column enumerator builds the completions
    for every instance.  For the standard generator it also prunes them on
    the first tail word, and the candidates are counted in closed form:
    t2 = a + c keeps exactly 8 of each column's 16 extensions, so that
    count is the unpruned enumerator's.  Every candidate costs one step for
    the first tail word.  The completions that emit the event word walk
    from it, and each step reads one tail word, the first one included.

    A batch's walkers step down the tail together as arrays, each dropping
    out at its first mismatching word, until at most _FEW are left or the
    tail ends; each one left then goes on alone with ``_walk_tail`` from
    the word where the arrays stopped, the event word itself included.  A
    walker that first mismatches at words[index + j] is charged j - 1
    steps either way, the words after the first that it computed.
    """
    spec = instance.spec
    m = spec.mask
    last = len(words) - 1
    native = instance.tf1_native
    batches = _columns(instance, prefixes, l, spec.width, x, words[index + 1] if native else None)

    def out(*state):
        return _instance_out(instance.t2_words, instance.f_words, m, spec.half, *state)

    states: list[State] = []
    n_leaves = verifs = 0
    for batch in batches:
        n_leaves += batch[0].size
        # t2 = x pins only S(x) of the event word; its other factor reads b and d
        keep = out(*batch) == words[index]
        # each walker's completion, and its state now, which emits words[j]
        j = index
        origin = now = tuple(v[keep] for v in batch)
        while origin[0].size > _FEW and j < last:
            now = instance.t1_words(*now, m)
            j += 1
            keep = np.flatnonzero(out(*now) == words[j])
            verifs += (origin[0].size - keep.size) * (j - index - 1)
            origin, now = (tuple(v.take(keep) for v in vs) for vs in (origin, now))
        for row, at in zip(zip(*(v.tolist() for v in origin)), zip(*(v.tolist() for v in now))):
            ok, n = _walk_tail(State(*at), instance, words, j)
            verifs += j - index - 1 + n
            if ok:
                states.append(State(*row))
    cands = prefixes[0].size << (3 * (spec.width - l)) if native else n_leaves
    return sorted(states), cands, verifs + cands


def _columns(
    instance: GeneratorInstance,
    words: tuple,
    l: int,
    k: int,
    target: int,
    first: int | None = None,
) -> Iterator[tuple]:
    """Extend l-column prefixes to k columns; yields batches of (a, b, c, d) arrays.

    ``words`` holds the prefixes' four words as arrays of ``word_dtype(w)``.
    Column j = l .. k-1 tries the 16 one-bit extensions of each prefix and
    keeps one when column j of its t2_words mod 2**(j+1) equals bit j of
    ``target``.  With ``first`` (the standard generator only), an extension
    is also dropped at the first output column where its next output
    disagrees with ``first``: j+1 columns pin output columns 0..j-h, and
    the whole word at full width (see the module docstring).  The t2 test
    comes before the update step, which then runs on half as many words.
    A frontier of more than _WORKING >> 3 prefixes (at least 1) is split
    and finished piece by piece, so a batch holds at most 2 * _WORKING
    words, and at most _WORKING where t2 keeps 8 of a column's 16
    extensions; batches come in depth-first order.
    """
    spec = instance.spec
    h = spec.half
    piece = max(1, _WORKING >> 3)
    ext = np.arange(16, dtype=word_dtype(spec.width))
    bits = (ext >> 3, (ext >> 2) & 1, (ext >> 1) & 1, ext & 1)
    frontier = [(l, words)]
    while frontier:
        j, pre = frontier.pop()
        n = pre[0].size
        if j == k:
            yield pre
        elif n > piece:
            # the last piece goes on the stack first, so the first is finished first
            for i in reversed(range(0, n, piece)):
                frontier.append((j, tuple(v[i : i + piece] for v in pre)))
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
    instance: GeneratorInstance, batch: tuple, l: int, tail_bits: Sequence[int]
) -> tuple[np.ndarray, int]:
    """The truncated filter on a batch of l-column candidates (a, b, c, d
    arrays): (positions of the survivors in the batch, filter steps).

    Each candidate takes one truncated step per tail bit and drops out at
    the first predicted output LSB that differs from the observed one.
    """
    h, m = instance.spec.half, low_mask(l)
    pos = np.arange(batch[0].size)
    steps = 0
    for bit in tail_bits:
        if not pos.size:
            break
        batch = instance.t1_words(*batch, m)
        steps += pos.size
        keep = np.flatnonzero(((instance.t2_words(*batch, m) >> h) & 1) == bit)
        pos, batch = pos.take(keep), tuple(v.take(keep) for v in batch)
    return pos, steps


def _to_arrays(spec: WordSpec, rows) -> tuple:
    """Four arrays of ``word_dtype(w)`` from a non-empty list of (a, b, c, d) rows."""
    return tuple(np.array(col, word_dtype(spec.width)) for col in zip(*rows))


def _concat(spec: WordSpec, batches: list) -> tuple:
    """One batch of four ``word_dtype(w)`` arrays from a list of batches, which may be empty."""
    empty = np.empty(0, word_dtype(spec.width))
    return tuple(np.concatenate([empty, *(b[i] for b in batches)]) for i in range(4))


def _walk_tail(
    state: State,
    instance: GeneratorInstance,
    words: Sequence[int],
    lo: int,
) -> tuple[bool, int]:
    """Roll ``state``, the emitter of words[lo], forward and match words[lo+1 ..].

    Returns (matched, output words computed): (False, j) at the first
    mismatch, at words[lo+j], else (True, len(words) - 1 - lo).  The words
    come from the generator's one output stream, one per tail word read.
    """
    stream = _stream(state, instance, len(words) - 1 - lo)
    for j in range(lo + 1, len(words)):
        if next(stream) != words[j]:
            return False, j - lo
    return True, len(words) - 1 - lo
