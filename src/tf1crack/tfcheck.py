"""Checks for the structural and statistical assumptions the attack rests on.

The attack needs the update and inner word to be T-functions (verified
structurally, on random trials), evaluation at a smaller mask to agree with
the low columns of full evaluation, and outputs to look mildly random; the
latter has no formal definition, so we measure zero frequency instead.

All checks are deterministic: trial i of a run seeded with s draws from a
stream that depends only on (s, i), so trials can be partitioned across
workers in any way without changing the report.  Both property checks run
through one trial loop, which takes its draws in batches of trials from
``rng.trial_draws`` and evaluates a whole batch at once, calling the word
functions on arrays of ``word_dtype(w)`` with one entry a trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .generator import (
    GeneratorInstance,
    Keystream,
    State,
    Tf1Params,
    demo_generalized_instance,
    tf1_instance,
)
from .rng import trial_draws
from .word import WordSpec, check_int, low_mask, word_dtype

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


_BATCH = 1 << 12  # trials per trial_draws call; bounds the arrays held at once


def _run_trials(trials: int, rng_seed: int, n_draws: int, batch: Callable) -> PropertyReport:
    """Call ``batch(draws)`` on the first ``n_draws`` draws of each run of up
    to ``_BATCH`` trials, one uint64 row per draw as ``rng.trial_draws``
    gives them.  ``batch`` returns a bool array marking the failing trials
    and a function from a position in the run to that trial's witness."""
    if check_int(trials, "trials") < 1:
        raise ValueError("trials must be >= 1")
    check_int(rng_seed, "rng_seed")
    failures = 0
    witness = None
    for start in range(0, trials, _BATCH):
        failed, witness_at = batch(trial_draws(rng_seed, start, min(start + _BATCH, trials), n_draws))
        failures += int(np.count_nonzero(failed))
        if witness is None and failures:
            witness = witness_at(int(np.argmax(failed)))
    return PropertyReport(trials=trials, failures=failures, first_witness=witness)


def _differ_in_low_columns(x, y, keep):
    """Where x and y, words or States of words, differ in the columns set in ``keep``."""
    if isinstance(x, State):
        diff = (x.a ^ y.a) | (x.b ^ y.b) | (x.c ^ y.c) | (x.d ^ y.d)
    else:
        diff = x ^ y
    return diff & keep != 0


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
    callable from State to State or to a word.  A callable is called once
    per batch of trials, on a State whose words are arrays of
    ``word_dtype(w)``, one entry a trial, as an instance's word functions
    are; it must return arrays of the same shape.
    """
    if params.spec != spec:
        raise ValueError("params were built for a different word spec")
    fn = _resolve_target(target, spec, params)
    w = spec.width
    mask = spec.mask
    dtype = word_dtype(w)

    def batch(draws):
        k = 1 + draws[4] % w
        keep = mask >> (w - k)  # low_mask(k), with no shift by 64 at w = 64
        x = (draws[:4] & mask).astype(dtype)
        y = ((draws[:4] & keep) | (draws[5:] & (mask ^ keep))).astype(dtype)
        failed = _differ_in_low_columns(fn(State(*x)), fn(State(*y)), keep)
        return failed, lambda i: (State(*x[:, i].tolist()), State(*y[:, i].tolist()), int(k[i]))

    return _run_trials(trials, rng_seed, 9, batch)


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

    def batch(draws):
        x = (draws[:4] & mask).astype(word_dtype(w))
        l = 1 + draws[4] % w
        full = (*t1_words(*x, mask), t2_words(*x, mask))
        failed = np.zeros(l.size, bool)
        # the word functions take one int mask, so each column count is one call
        for bits in np.unique(l).tolist():
            at = np.flatnonzero(l == bits)
            m = low_mask(bits)
            low = x[:, at] & m
            got = (*t1_words(*low, m), t2_words(*low, m))
            failed[at] = np.any([g != f[at] & m for g, f in zip(got, full)], axis=0)
        return failed, lambda i: (State(*x[:, i].tolist()), int(l[i]))

    return _run_trials(trials, rng_seed, 5, batch)


def zero_frequency(ks: Keystream) -> tuple[int, float]:
    """Count of exact-zero words and their rate; expectation is 2**-w per word."""
    if len(ks) == 0:
        raise ValueError("keystream is empty")
    zeros = len(ks) - int(np.count_nonzero(ks.words))
    return zeros, zeros / len(ks)

