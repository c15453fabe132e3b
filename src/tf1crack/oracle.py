"""Exhaustive ground truth at tiny widths, for certifying the attack.

The oracle shares nothing with the attack's search machinery: it considers
the complete 2**(4w) state space and keeps every state that emits the zero
word at the given position and reproduces the requested window after it.
At w=4 that is 65536 states and runs in a fraction of a second; w=8 costs
minutes and must be requested explicitly via the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .attack import AttackReport, _check_width, _check_window
from .generator import Keystream, State, Tf1Params, _out, _stream, output_word, tf1_instance
from .word import WordSpec

__all__ = ["BudgetExceeded", "OracleResult", "brute_force_consistent_states", "compare_with_report"]

_DEFAULT_BUDGET = 1 << 16  # covers w=4 exhaustively


class BudgetExceeded(Exception):
    """The state space is larger than the allowed enumeration budget."""


@dataclass
class OracleResult:
    consistent_states: list[State]
    window: int
    states_scanned: int
    zero_index: int


def brute_force_consistent_states(
    ks: Keystream,
    zero_index: int,
    params: Tf1Params,
    window: int,
    budget: int | None = None,
) -> OracleResult:
    """Scan every possible state and keep the ones consistent with the keystream.

    A state is consistent when its own output is the (zero) word at
    ``zero_index`` and rolling it forward reproduces the next ``window``
    words.  Indexing matches the attack: the state checked is the
    post-update state at the zero position.
    """
    spec = params.spec
    w = spec.width
    if w > 8:
        raise ValueError(f"the exhaustive oracle is limited to w <= 8 by design, got w={w}")
    _check_width(ks, spec)
    _check_window(ks, zero_index, window, "window")
    if ks.words[zero_index] != 0:
        raise ValueError(f"keystream word at {zero_index} is not zero")
    space = 1 << (4 * w)
    allowed = _DEFAULT_BUDGET if budget is None else budget
    if space > allowed:
        raise BudgetExceeded(
            f"state space 2^{4 * w} = {space} exceeds the budget of {allowed}; "
            "pass an explicit budget to allow it"
        )

    inst = tf1_instance(params)
    window_words = ks.words[zero_index + 1 : zero_index + window + 1]
    consistent = [
        st
        for st in _scan_zero_states_chunked(spec)
        if all(word == out for word, out in zip(window_words, _stream(st, inst, window)))
    ]
    consistent.sort()
    return OracleResult(
        consistent_states=consistent,
        window=window,
        states_scanned=space,
        zero_index=zero_index,
    )


def compare_with_report(report: AttackReport, oracle: OracleResult) -> bool:
    """True iff the attack recovered exactly the oracle's consistent states.

    Both sides must describe the same zero position and verification window;
    anything else is an apples-to-oranges comparison and raises.
    """
    if report.zero_index != oracle.zero_index:
        raise ValueError(
            f"zero positions differ: report {report.zero_index}, oracle {oracle.zero_index}"
        )
    if report.verified_words != oracle.window:
        raise ValueError(
            f"verification windows differ: report {report.verified_words}, oracle {oracle.window}"
        )
    return list(report.recovered) == oracle.consistent_states


def _scan_zero_states_scalar(spec: WordSpec) -> Iterator[State]:
    """Every state with output word zero, by walking the whole space."""
    n = 1 << spec.width
    rng = range(n)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    st = State(a, b, c, d)
                    if output_word(st, spec) == 0:
                        yield st


def _scan_zero_states_chunked(spec: WordSpec) -> Iterator[State]:
    """Same zero-output scan on numpy chunks; the oracle's scan at every width.

    States are indexed (a << 3w) | (b << 2w) | (c << w) | d and visited in
    the same ascending order as the scalar walk.
    """
    w = spec.width
    m = spec.mask
    space = 1 << (4 * w)
    chunk = 1 << 22
    for start in range(0, space, chunk):
        idx = np.arange(start, min(start + chunk, space), dtype=np.uint64)
        out = _out(idx >> (3 * w), (idx >> (2 * w)) & m, (idx >> w) & m, idx & m, m, spec.half)
        for i in idx[out == 0].tolist():
            yield State(i >> (3 * w), (i >> (2 * w)) & m, (i >> w) & m, i & m)
