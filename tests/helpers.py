"""Small shared utilities for the test suite."""

from tf1crack import State, Tf1Params, update
from tf1crack.rng import SplitMix64


def roll_forward(seed: State, params: Tf1Params, steps: int) -> State:
    """The post-update state after ``steps`` updates from ``seed``."""
    st = seed
    for _ in range(steps):
        st = update(st, params)
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
