"""Checks for the structural and statistical assumptions the attack rests on.

The attack needs the update and inner word to be T-functions (verified
structurally, trial by trial), evaluation at a smaller mask to agree with
the low columns of full evaluation, and outputs to look mildly random; the
latter has no formal definition, so we measure zero frequency instead.

All checks are deterministic: trial i of a run seeded with s draws from a
stream that depends only on (s, i), so trials can be partitioned across
workers in any way without changing the report.  Both property checks run
through one trial loop, which takes its draws in batches of trials from
``rng.trial_draws`` and evaluates each trial on plain ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .generator import (
    GeneratorInstance,
    Keystream,
    State,
    Tf1Params,
    demo_generalized_instance,
    tf1_instance,
)
from .rng import trial_draws
from .word import WordSpec, check_int, low_mask

__all__ = [
    "PropertyReport",
    "check_tfunction_property",
    "check_truncation_consistency",
    "zero_frequency",
]


@dataclass(frozen=True)
class PropertyReport:
    trials: int
    failures: int
    first_witness: tuple | None = None

    def __post_init__(self) -> None:
        if self.failures > self.trials:
            raise ValueError("failures cannot exceed trials")
        if (self.failures > 0) != (self.first_witness is not None):
            raise ValueError("witness must be present exactly when failures > 0")

    @property
    def ok(self) -> bool:
        return self.failures == 0


_BATCH = 1 << 12  # trials per trial_draws call; bounds the plain ints held at once


def _run_trials(trials: int, rng_seed: int, n_draws: int, trial: Callable) -> PropertyReport:
    """Call ``trial(*draws)`` with the first ``n_draws`` draws of each trial's
    stream; ``trial`` returns None on success and a witness on failure."""
    if check_int(trials, "trials") < 1:
        raise ValueError("trials must be >= 1")
    failures = 0
    witness = None
    for start in range(0, trials, _BATCH):
        for draws in zip(*trial_draws(rng_seed, start, min(start + _BATCH, trials), n_draws)):
            found = trial(*draws)
            if found is not None:
                failures += 1
                if witness is None:
                    witness = found
    return PropertyReport(trials=trials, failures=failures, first_witness=witness)


def _agree_low_columns(x, y, k: int) -> bool:
    if isinstance(x, State):
        diff = (x.a ^ y.a) | (x.b ^ y.b) | (x.c ^ y.c) | (x.d ^ y.d)
    else:
        diff = x ^ y
    return diff & low_mask(k) == 0


def check_tfunction_property(
    target: str | Callable,
    spec: WordSpec,
    params: Tf1Params,
    trials: int,
    rng_seed: int,
) -> PropertyReport:
    """Trial-by-trial check that the target's first k columns ignore the rest.

    Each trial draws a state X, a column count k, and a Y that agrees with X
    on columns 0..k-1 but is redrawn above; the outputs must agree on
    columns 0..k-1.  ``target`` is one of "t1", "t2", "t2_demo" or any
    callable from State to State or to a word.
    """
    if params.spec != spec:
        raise ValueError("params were built for a different word spec")
    fn = _resolve_target(target, spec, params)
    w = spec.width
    mask = spec.mask

    def trial(a, b, c, d, k_draw, ya, yb, yc, yd):
        k = 1 + k_draw % w
        keep = low_mask(k)
        flip = mask & ~keep
        x = State(a & mask, b & mask, c & mask, d & mask)
        y = State((a & keep) | (ya & flip), (b & keep) | (yb & flip),
                  (c & keep) | (yc & flip), (d & keep) | (yd & flip))
        return None if _agree_low_columns(fn(x), fn(y), k) else (x, y, k)

    return _run_trials(trials, rng_seed, 9, trial)


def _resolve_target(target, spec: WordSpec, params: Tf1Params) -> Callable:
    if callable(target):
        return target
    if target == "t1":
        return tf1_instance(params).t1
    if target in ("t2", "t2_demo"):
        inst = tf1_instance(params) if target == "t2" else demo_generalized_instance(spec, params)
        return lambda state: inst.t2_words(*state.words(), spec.mask)
    raise ValueError(f"unknown target {target!r}; expected t1, t2, t2_demo or a callable")


def check_truncation_consistency(
    instance: GeneratorInstance,
    spec: WordSpec,
    trials: int,
    rng_seed: int,
) -> PropertyReport:
    """At mask low_mask(l), each word function must give the low l columns
    of its full-width value, as the attack's truncations assume."""
    if instance.spec != spec:
        raise ValueError("instance was built for a different word spec")
    w = spec.width
    mask = spec.mask
    t1_words, t2_words = instance.t1_words, instance.t2_words

    def trial(a, b, c, d, l_draw):
        x = (a & mask, b & mask, c & mask, d & mask)
        l = 1 + l_draw % w
        m = low_mask(l)
        low = [v & m for v in x]
        t1_ok = list(t1_words(*low, m)) == [v & m for v in t1_words(*x, mask)]
        t2_ok = t2_words(*low, m) == t2_words(*x, mask) & m
        return None if t1_ok and t2_ok else (State(*x), l)

    return _run_trials(trials, rng_seed, 5, trial)


def zero_frequency(ks: Keystream) -> tuple[int, float]:
    """Count of exact-zero words and their rate; expectation is 2**-w per word."""
    if len(ks) == 0:
        raise ValueError("keystream is empty")
    zeros = ks.words.count(0)
    return zeros, zeros / len(ks)

