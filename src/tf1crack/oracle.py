"""Exhaustive ground truth at tiny widths, for certifying the attack.

The oracle considers the complete 2**(4w) state space as one array filter.
It decodes the state indices a chunk at a time, into one index buffer and
four word buffers of ``word_dtype(w)`` that every chunk reuses, keeps the
states whose output is the word at the given position, whatever that word
is, then steps the survivors and keeps those that emit each next word of
the requested window.  Once at most _FEW of a chunk's states are left, each
of them finishes the window alone, stepped on plain ints: a few states on
arrays would pay numpy's per-call cost at every word.  It shares only the
generator's two formulas with the code it certifies: ``_rows`` (the
update) and ``_out`` (the output word), on arrays and on ints.  The
attack's search, its stage-2 tail walk, and ``_stream``, the output
stream that ``generate`` and ``verify_state`` read, are not used, so a
fault in any of them shows up as a disagreement.  The standard
generator's stream reads neither formula where a compiler is found: it
runs the compiled rows of ``_lanes.c``, which the oracle never calls.
Every width the oracle
accepts, the even widths up to 8, is scanned when asked: at w=4 the scan
covers 65536 states and takes a few milliseconds, w=6 (2^24 states)
about 0.1 s and w=8 (2^32 states) 25-30 s on a 2-vCPU VM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attack import AttackReport, _check_width, _check_window
from .generator import Keystream, State, Tf1Params, _out, _rows
from .word import WordSpec, word_dtype

__all__ = ["OracleResult", "brute_force_consistent_states", "compare_with_report"]

# states decoded per numpy chunk: all of w=4, and a divisor of every wider
# space; never affects results
_CHUNK = 1 << 16
# a chunk steps its survivors as arrays until at most this many are left,
# then steps each one left on plain ints; never affects results
_FEW = 8


def _check_oracle_width(spec: WordSpec) -> None:
    """Reject w > 8: the oracle scans all 2**(4w) states, 2**40 at w=10."""
    if spec.width > 8:
        raise ValueError(f"the exhaustive oracle is limited to w <= 8 by design, got w={spec.width}")


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
) -> OracleResult:
    """Scan every possible state and keep the ones consistent with the keystream.

    A state is consistent when its own output is the word at ``zero_index``,
    zero or not, and rolling it forward reproduces the next ``window`` words.
    Indexing matches the attack: the state checked is the post-update state
    at that position.  The name ``zero_index`` follows the attack's report,
    whose events are zero words.
    """
    spec = params.spec
    w = spec.width
    _check_oracle_width(spec)
    _check_width(ks, spec)
    _check_window(ks, zero_index, window, "window")
    space = 1 << (4 * w)

    m, h = spec.mask, spec.half
    words = ks.words[zero_index : zero_index + window + 1]
    found = []
    # every chunk decodes into the same index and word buffers: a chunk's
    # index is 256 KB at w=8, and allocated and freed per chunk, it and its
    # words cost a page fault per page
    ramp = np.arange(_CHUNK, dtype=word_dtype(4 * w))
    index = np.empty_like(ramp)
    decoded = np.empty((4, _CHUNK), word_dtype(w))
    for start in range(0, space, _CHUNK):
        idx = np.add(ramp, start, out=index)
        state = list(decoded)
        for j, v in zip((3, 2, 1, 0), state):
            np.right_shift(idx, j * w, out=v, casting="unsafe")
            v &= m
        for pos, word in enumerate(words):
            if idx.size <= _FEW:
                rest = words[pos:]
                rows = zip(idx.tolist(), *(v.tolist() for v in state))
                found += [i for i, *st in rows if _emits(st, rest, params)]
                break
            keep = _out(*state, m, h) == word
            idx, state = idx[keep], [v[keep] for v in state]
            state = _rows(*state, m, params.c1, params.c3, params.c)
        else:
            found += idx.tolist()
    return OracleResult(
        consistent_states=[State(i >> (3 * w), (i >> (2 * w)) & m, (i >> w) & m, i & m) for i in found],
        window=window,
        states_scanned=space,
        zero_index=zero_index,
    )


def _emits(state: list[int], words: Sequence[int], params: Tf1Params) -> bool:
    """True iff ``state`` emits ``words[0]`` and, stepped once a word, the rest."""
    a, b, c, d = state
    m, h = params.spec.mask, params.spec.half
    for word in words:
        if _out(a, b, c, d, m, h) != word:
            return False
        a, b, c, d = _rows(a, b, c, d, m, params.c1, params.c3, params.c)
    return True


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

