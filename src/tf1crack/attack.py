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
word functions and runs the standard generator's long stretches in column
blocks.  A truncated evaluation passes low_mask(l) to the same word
functions.

The stage-1 kernel is lane-sliced over the top two columns, U = k-2 and
T = k-1.  The update is a T-function, so the candidates that share the low
k-2 columns of (a, b, d), with c = X - a, share the trajectory of those
columns, and their top bits follow from it through a few xors and ands.
Step the lower columns alone, with columns U and T of every word cleared,
let a'_U, s_T and so on be the bits that this step leaves at columns U and
T, and write a candidate's true bits in capitals.  The per-step word
s = (C + p) ^ p loses p_U at column U and p_T at column T, so S_U = s_U
for every candidate, and p_U reaches column T only through the carry of
C + p: with P = A_U & B_U & C_U & D_U, S_T = s_T ^ (s_U & P).  A doubled
product reads an input's column U only at its output column T, through
terms such as C_U·(b | C1)_0 and c_0·(B_U | C1_U) in 2c·(b | C1).  With
b1_0 = (b | C1)_0 and d3_0 = (d | C3)_0, and a_0, c_0, b1_0 and d3_0 read
before the step:

    A_U' = A_U ^ a'_U
    B_U' = B_U ^ (s_U & A_U) ^ b'_U
    C_U' = C_U ^ (s_U & A_U & B_U) ^ c'_U
    D_U' = D_U ^ (s_U & A_U & B_U & C_U) ^ d'_U
    A_T' = A_T ^ (s_U & P) ^ a'_T ^ (C_U & b1_0) ^ (c_0 & B_U & ~C1_U)
    B_T' = B_T ^ (S_T & A_T) ^ b'_T ^ (C_U & d3_0) ^ (c_0 & D_U & ~C3_U)
    C_T' = C_T ^ (S_T & A_T & B_T) ^ c'_T ^ (A_U & d3_0) ^ (a_0 & D_U & ~C3_U)

D_T reaches nothing: it enters p_T, which cancels, and the products at
column T only through the zero column 0 of 2a and 2c.  The kernel steps
each lower prefix once and carries the 32 settings of (a_U, b_U, d_U, a_T,
b_T) as the lanes of 32-bit masks; each lane stands for 2 candidates,
d_T = 0 and 1.  The event gives the start masks: c = X - a subtracts a
column at a time with borrows, so with L = k-2 and β = [a_low > X_low], the
borrow out of the low L columns, C_U = X_U ^ A_U ^ β, and C_T = X_T ^ A_T
^ (A_U & β if X_U else A_U | β), the borrow out of column U.  At X = 0, β
is set when the low columns of a are not all 0.  A candidate's predicted
output LSB is A_T' ^ C_T' ^ maj(A_U', C_U', carry into U of a'_low +
c'_low); it drops out at its first mismatch.  Each step adds 2·popcount
of the alive mask taken before it, so ``stage1_filter_steps`` counts
exactly what the plain filter counts.  Three columns would need 256 lanes.

Stage 1 runs in parts, one range of lower prefixes (trivial mode) or of
one-column roots (dfs mode) each.  A part is a generator of batches
(survivors, filter steps, candidates): one per retirement from the lane
kernel's working set, or one per filtered column-enumerator batch, which
the enumerator sizes to the working set.  One part loop, in
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
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import ClassVar, Iterator, Sequence

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
# (BENCH_dfs.json).  In the lane kernel, lower prefixes of 64 candidates
# each; its two buffer sets take 88 bytes a prefix at w=16, 2.9 MB.  At
# w=16 a stage 1 ran about 10% faster than at 2^14 once the process had run
# one, but a step's temporaries (64 and 128 KB) return to the top of glibc's
# heap, which trims under them until the process has freed a block above
# its trim threshold: a process's first stage 1 takes about 31,000 minor
# faults at w=16 and 1.6 million at w=20, later ones about 1,000.  Never
# affects results.
_WORKING = 1 << 15
# the lane kernel's start masks for a_U, b_U, d_U, a_T and b_T: the lanes
# whose bit 2, 1, 0, 4 or 3 is set, as int32 (see _stage1_lanes)
_LANE_MASKS = np.array(
    [sum(1 << lane for lane in range(32) if lane >> j & 1) for j in (2, 1, 0, 4, 3)], np.uint32
).view(np.int32)
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
    per process; the processes are forked, and one runs in the calling
    process.  Reports, and the ``SurvivorOverflow`` message, are identical
    for any worker count.

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
    enumerator; the parts run one per forked process, or in this process
    when there is one.  Each mode gives a part as a generator of
    (survivors, steps, candidates) batches: the lane kernel's retirements,
    or ``_filter`` on each of the column enumerator's batches, which
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
    """[fn(part) for part in parts], in range order: one forked process per
    part, or this process for a single part."""
    if len(parts) <= 1:
        return [fn(p) for p in parts]
    # fork, not spawn: an instance's word functions are closures and lambdas,
    # which do not pickle, so each worker inherits fn instead
    with multiprocessing.get_context("fork").Pool(len(parts), _set_task, (fn,)) as pool:
        return pool.map(_run_task, parts, chunksize=1)


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
    of 2**(3(k-2)).

    Index i encodes the low L = k-2 columns of (a, b, d) as (i >> 2L,
    (i >> L) & lm, i & lm), with c = (x - a) mod 2**k.  The borrow out of
    the low columns of x - a, one per prefix, and bits U and T of x give
    the start masks of C_U and C_T.  Each array element is one lower
    prefix, stepped once per tail bit with columns U = k-2 and T = k-1 of
    a, b, c and d cleared before the step; the bits that the step leaves
    in those columns, and the column-0 bits before it, update the lane
    masks by the rules of the module docstring.  Lane bit 4, 3, 2, 1, 0
    of the masks AU .. CT is a candidate's a_T, b_T, a_U, b_U, d_U, and
    each lane stands for the 2 candidates d_T = 0 and 1, which live and
    die together.  The rows keep ``word_dtype(k)``, the dtype for k
    columns; the masks are int32, so that a row bit sign-extended in the
    signed view of the row dtype promotes to 32 set bits.  C1 and C3 enter
    the masks only through their bits 0 and U, which pick the terms below
    in Python.  A lane leaves ``alive`` at its first mismatch, and each
    step adds 2·popcount(alive) taken before it, which is the plain
    filter's per-candidate count.

    The prefixes are stepped as one working set of at most _WORKING, in
    two buffer sets.  Once fewer than half of the set are alive, the live
    prefixes are taken into the spare set, and the set is refilled from the
    range, so every step runs on at least half the set until the range
    runs out.  Compaction keeps the order and a refill appends, so the
    prefixes of one load stay together, oldest load first, and share a
    depth: the steps since their load, which picks the tail bit that each
    step compares them with.  A load whose depth reaches the horizon
    retires: its lanes are decoded into the words of k-column prefixes and
    cleared, so they count no further steps.  The kernel yields (survivors
    as four ``word_dtype(w)`` arrays, filter steps, candidates: 64 per
    lower prefix) at each retirement that leaves survivors and once at the
    end; the caller sums the batches and applies the survivor cap.
    """
    low = k - 2
    lm, km = low_mask(low), low_mask(k)
    dtype = word_dtype(k)
    signed = np.dtype(f"i{dtype.itemsize}")
    top = 8 * signed.itemsize - 1
    # the constants are scalars of the rows' dtype: with plain-int operands
    # numpy stops reusing temporaries' buffers in place, which made stage 1
    # at w=16 about 10% slower and added an array to the peak memory
    consts = (km, params.c1, params.c3, params.c, lm, x & lm)
    mm, c1, c3, cc, lmd, x_low = (dtype.type(v & km) for v in consts)
    to_u, to_t, to_0 = (dtype.type(top - col) for col in (low, k - 1, 0))
    c1_0, c3_0 = params.c1 & 1, params.c3 & 1
    c1_u, c3_u = (params.c1 >> low) & 1, (params.c3 >> low) & 1
    word = word_dtype(params.spec.width)
    # C_U = X_U ^ A_U ^ β and C_T = X_T ^ A_T ^ (borrow out of column U),
    # with the lanes' start A_U and A_T and a per-prefix β of 0 or -1
    x_u, x_t = (x >> low) & 1, (x >> (k - 1)) & 1
    cu0, ct0 = _LANE_MASKS[0] ^ np.int32(-x_u), _LANE_MASKS[3] ^ np.int32(-x_t)
    borrow_u = np.bitwise_and if x_u else np.bitwise_or
    horizon = len(tail_bits)
    index = word_dtype(3 * low)
    cap = min(_WORKING, hi - lo)
    ramp = np.arange(cap, dtype=index)
    shifts = np.arange(32, dtype=np.int32)

    def bit(v, to_sign):
        # the column of v that to_sign shifts into the sign bit, as 0 or -1
        return (v << to_sign).view(signed) >> top


    def decode(i, alive):
        # lane bit 4, 3, 2, 1, 0 is a_T, b_T, a_U, b_U, d_U; d_T is 0 or 1
        live = np.flatnonzero(alive != 0)
        rows, lanes = np.nonzero((alive.take(live)[:, None] >> shifts) & 1)
        i, lane = i.take(live.take(rows)), lanes.astype(i.dtype)
        a = (i >> (2 * low)) | ((lane >> 2) & 1) << low | (lane >> 4) << (k - 1)
        b = ((i >> low) & lm) | ((lane >> 1) & 1) << low | ((lane >> 3) & 1) << (k - 1)
        d = (i & lm) | (lane & 1) << low
        a, b, d = np.tile(a, 2), np.tile(b, 2), np.concatenate([d, d | 1 << (k - 1)])
        return tuple(v.astype(word) for v in (a, b, (x - a) & km, d)), live.size

    # two buffer sets of the index, the rows, the seven lane masks and
    # alive, the eighth mask; a mask row has an even length above cap, so
    # that alive views as uint64 words at an odd count too
    ids, rows = np.empty((2, cap), index), np.empty((2, 4, cap), dtype)
    masks = np.empty((2, 8, cap + 2 & -2), np.int32)
    full, spare = ((ids[j], rows[j], masks[j, :7], masks[j, 7]) for j in (0, 1))
    n = live = steps = cands = t = retired = 0
    nxt = lo
    # (step, end) of each load's prefixes, oldest first: a load spans from
    # the end of the one before it, or from `retired`, to its own end
    loads: list[tuple[int, int]] = []
    while True:
        while loads and t - loads[0][0] == horizon:
            end = loads.pop(0)[1]
            survivors, n_live = decode(idx[retired:end], alive[retired:end])
            if n_live:
                alive[retired:end] = 0
                live -= n_live
                yield survivors, steps, cands
                steps = cands = 0
            retired = end
        if 2 * live < n or not n:
            if not live and nxt == hi:
                break
            if live:
                # nonzero on a bool mask runs about 5x faster than on int32
                keep = np.flatnonzero(alive != 0)
                for src, dst in zip((idx, a, b, c, d, *masks, alive),
                                    (spare[0], *spare[1], *spare[2], spare[3])):
                    src.take(keep, out=dst[:live])
                full, spare = spare, full
                ends = np.searchsorted(keep, [end for _, end in loads]).tolist()
                # drop the loads whose prefixes have all died
                loads = [(step, end) for (step, _), end, start in zip(loads, ends, [0, *ends])
                         if end > start]
            else:
                loads = []
            idx, rows, masks, alive = full
            retired = 0
            r = min(cap - live, hi - nxt)
            if r:
                new = slice(live, live + r)
                i = idx[new]
                np.add(ramp[:r], index.type(nxt), out=i)
                na, nb, nc, nd = rows[:, new]
                np.right_shift(i, 2 * low, out=na, casting="unsafe")
                np.right_shift(i, low, out=nb, casting="unsafe")
                nb &= lmd
                np.bitwise_and(i, lm, out=nd, casting="unsafe")
                np.subtract(x_low, na, out=nc)
                nc &= lmd
                masks[:5, new] = _LANE_MASKS[:, None]
                alive[new] = -1
                beta = np.negative(np.greater(na, x_low).view(np.int8))
                np.bitwise_xor(beta, cu0, out=masks[5, new])
                borrow_u(beta, _LANE_MASKS[0], out=masks[6, new])
                masks[6, new] ^= ct0
                nxt += r
                cands += 64 * r
                loads.append((t, live + r))
            n = live = live + r
            alive[n] = 0
            popcount = alive[: n + (n & 1)].view(np.uint64)
            idx, rows, masks, alive = (v[..., :n] for v in full)
            a, b, c, d = rows
            au, bu, du, at, bt, cu, ct = masks
            continue
        steps += 2 * int(np.bitwise_count(popcount).sum(dtype=np.uint64))
        c_0 = None if c1_u and c3_u else bit(c, to_0)
        a_0 = None if c3_u else bit(a, to_0)
        cu_b1 = cu if c1_0 else cu & bit(b, to_0)
        d3_0 = None if c3_0 else bit(d, to_0)
        a, b, c, d, s = _rows(a, b, c, d, mm, c1, c3, cc)
        s_u = bit(s, to_u)
        sa = s_u & au
        sab = sa & bu
        sp = sab & cu
        sp &= du
        # the T masks first, as they read the U masks from before the
        # step; sat = S_T & A_T takes A_T before it changes
        sat = bit(s, to_t) ^ sp
        sat &= at
        at ^= sp
        ct ^= sat & bt
        ct ^= bit(c, to_t)
        ct ^= au if d3_0 is None else au & d3_0
        bt ^= sat
        bt ^= bit(b, to_t)
        bt ^= cu if d3_0 is None else cu & d3_0
        at ^= bit(a, to_t)
        at ^= cu_b1
        if not c1_u:
            at ^= c_0 & bu
        if not c3_u:
            bt ^= c_0 & du
            ct ^= a_0 & du
        du ^= sab & cu
        du ^= bit(d, to_u)
        cu ^= sab
        cu ^= bit(c, to_u)
        bu ^= sa
        bu ^= bit(b, to_u)
        au ^= bit(a, to_u)
        a &= lmd
        b &= lmd
        c &= lmd
        d &= lmd
        # output LSB: A_T' ^ C_T' ^ maj(A_U', C_U', carry into U), flipped
        # for each load whose next observed bit is 0
        pred = au ^ cu
        pred &= bit(a + c, to_u)
        pred ^= au & cu
        pred ^= at
        pred ^= ct
        start = retired
        for step, end in loads:
            if not tail_bits[t - step]:
                np.invert(pred[start:end], out=pred[start:end])
            start = end
        alive &= pred
        t += 1
        # free the step's temporaries before the next step allocates its own
        del sa, sab, sp, sat, pred
        live = int(np.count_nonzero(alive))
    yield tuple(np.empty((4, 0), word)), steps, cands


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
