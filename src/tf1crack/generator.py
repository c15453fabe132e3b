"""The TF-1 generator, the generalized-instance contract, and truncated evaluation.

The generator keeps four w-bit words (a, b, c, d).  Each step replaces the
state by a fixed combination of xors, masked ands, and doubled products, then
emits ``S(a+c) * (S(b+d) | 1)`` where S swaps the upper and lower halves of a
word.  The update and the inner sum a+c are T-functions: their first k
columns depend only on the first k columns of the input, for every k.  That
property is what makes truncated (column-prefix) evaluation exact, and the
attack lives entirely on that fact.

A generalized instance replaces the update with any T-function t1, the inner
word with any T-function t2, and the odd-making factor with any function f
at all; the output is ``S(t2(A)) * (f(A) | 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .rng import SplitMix64
from .word import WordSpec, low_mask, swap_halves

__all__ = [
    "State",
    "Tf1Params",
    "ColumnPrefix",
    "Keystream",
    "GeneratorInstance",
    "default_params",
    "compute_s",
    "update",
    "t2_tf1",
    "output_word",
    "generate",
    "state_prefix",
    "truncated_update",
    "truncated_t2",
    "predicted_output_lsb",
    "tf1_instance",
    "demo_generalized_instance",
    "instance_output",
    "generate_from_instance",
    "state_from_seed",
]

# Arbitrary implementation defaults, truncated to the working width; the
# low bit of C is forced to 1.  Nothing in the attack depends on them.
_DEFAULT_C = 0xB5AD4ECEDA1CE2A9
_DEFAULT_C1 = 0x84D4C8D2E5B6D6D5
_DEFAULT_C3 = 0x9E3779B97F4A7C15


@dataclass(frozen=True, order=True)
class State:
    """The four-word internal state."""

    a: int
    b: int
    c: int
    d: int

    def words(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class Tf1Params:
    """The update constants C1, C3, C under one word spec.

    C2 appears in no update row and has no slot here.
    """

    c1: int
    c3: int
    c: int
    spec: WordSpec

    def __post_init__(self) -> None:
        self.spec.check_word(self.c1, "c1")
        self.spec.check_word(self.c3, "c3")
        self.spec.check_word(self.c, "c")


def default_params(spec: WordSpec) -> Tf1Params:
    mask = spec.mask
    return Tf1Params(
        c1=_DEFAULT_C1 & mask,
        c3=_DEFAULT_C3 & mask,
        c=(_DEFAULT_C & mask) | 1,
        spec=spec,
    )


@dataclass(frozen=True)
class ColumnPrefix:
    """The first l columns (low l bits) of each state word."""

    l: int
    a_low: int
    b_low: int
    c_low: int
    d_low: int

    def words(self) -> tuple[int, int, int, int]:
        return (self.a_low, self.b_low, self.c_low, self.d_low)

    def validate(self, spec: WordSpec | None = None) -> "ColumnPrefix":
        if self.l < 1 or (spec is not None and self.l > spec.width):
            raise ValueError(f"prefix length {self.l} out of range")
        lim = 1 << self.l
        for name, v in zip("abcd", self.words()):
            if not 0 <= v < lim:
                raise ValueError(f"{name}_low={v:#x} does not fit in {self.l} columns")
        return self


@dataclass(frozen=True)
class Keystream:
    """An ordered run of output words plus the width they were produced at."""

    spec: WordSpec
    words: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", tuple(self.words))

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, i):
        return self.words[i]

    def __iter__(self):
        return iter(self.words)


@dataclass(frozen=True)
class GeneratorInstance:
    """A generalized-family member: t1 and t2 are T-functions, f is arbitrary.

    The truncated forms must agree with the low-l columns of the full maps on
    every input; ``tfcheck.check_truncation_consistency`` verifies exactly
    that.  ``tf1_native`` marks the standard generator, whose t2 is the plain
    column sum a+c with the closed-form preimages c = (target - a) mod 2^l;
    the attack's ``trivial`` mode, its batch kernels and the plain-int tail
    walk serve it alone.  Any instance, this one included, runs the scalar
    ``dfs`` mode, which the tests use as the reference for the kernels.
    """

    name: str
    spec: WordSpec
    params: Tf1Params
    t1: Callable[[State], State]
    t2: Callable[[State], int]
    f: Callable[[State], int]
    t1_trunc: Callable[[ColumnPrefix], ColumnPrefix]
    t2_trunc: Callable[[ColumnPrefix], int]
    tf1_native: bool = field(default=False, repr=False)


def compute_s(state: State, params: Tf1Params) -> int:
    """Per-step word s = (C + p) xor p with p = a & b & c & d."""
    return _rows(*state.words(), params.spec.mask, params.c1, params.c3, params.c)[4]


def update(state: State, params: Tf1Params) -> State:
    """One step of the state map; all rows read the old state."""
    a, b, c, d = state.a, state.b, state.c, state.d
    return State(*_rows(a, b, c, d, params.spec.mask, params.c1, params.c3, params.c)[:4])


def _rows(a, b, c, d, m, c1, c3, cc):
    """The four update rows mod 2**l, where m = 2**l - 1, and the step word s.

    The only copy of the TF-1 update.  Inputs and constants must already be
    reduced mod 2**l; they may be Python ints or numpy unsigned arrays whose
    dtype holds l bits, since numpy 2 gives plain-int operands the array's
    dtype (NEP 50).  Because every row is a T-function, rows taken mod 2**l
    are exactly the truncated update.

    Returns (a', b', c', d', s), where s = ((C + p) mod 2**l) xor p with
    p = a & b & c & d is the per-step word the rows share.  Most callers
    drop s; the lane-sliced stage-1 kernel reads its top column.  Handing it
    back costs nothing, where a separate helper call would add about 7% to
    every generated word.
    """
    p = a & b & c & d
    s = ((cc + p) & m) ^ p
    ta = a << 1  # doubled words only enter products, which are reduced
    tc = c << 1
    b1 = b | c1
    d3 = d | c3
    sa = s & a
    sab = sa & b
    return (
        a ^ s ^ ((tc * b1) & m),
        b ^ sa ^ ((tc * d3) & m),
        c ^ sab ^ ((ta * d3) & m),
        d ^ (sab & c) ^ ((ta * b1) & m),
        s,
    )


def _out(a, b, c, d, m, h):
    """The output word S(a+c) * (S(b+d) | 1) mod 2**w, with m = 2**w - 1 and h = w/2.

    The only copy of the output formula; ints or numpy arrays, as for ``_rows``.
    """
    x = (a + c) & m
    y = (b + d) & m
    # bits that x << h and y << h carry above column w vanish in the reduced product
    return (((x >> h) | (x << h)) * ((y >> h) | (y << h) | 1)) & m


def t2_tf1(state: State, spec: WordSpec) -> int:
    """The standard inner word: (a + c) mod 2**w."""
    return (state.a + state.c) & spec.mask


def output_word(state: State, spec: WordSpec) -> int:
    """Emitted word S(a+c) * (S(b+d) | 1) mod 2**w.

    The second factor is odd, so the output is zero exactly when a+c wraps
    to zero.
    """
    return _out(state.a, state.b, state.c, state.d, spec.mask, spec.half)


def generate(seed: State, params: Tf1Params, n: int) -> Keystream:
    """Run n update+emit steps from ``seed``; the seed itself emits nothing."""
    if n < 0:
        raise ValueError("n must be >= 0")
    spec = params.spec
    mask = spec.mask
    h = spec.half
    c1, c3, cc = params.c1, params.c3, params.c
    a, b, c, d = seed.words()
    rows, emit = _rows, _out
    out = []
    append = out.append
    for _ in range(n):
        a, b, c, d, _ = rows(a, b, c, d, mask, c1, c3, cc)
        append(emit(a, b, c, d, mask, h))
    return Keystream(spec, tuple(out))


def state_prefix(state: State, l: int) -> ColumnPrefix:
    """The first l columns of a state."""
    m = low_mask(l)
    return ColumnPrefix(l, state.a & m, state.b & m, state.c & m, state.d & m)


def truncated_update(prefix: ColumnPrefix, params: Tf1Params) -> ColumnPrefix:
    """First l columns of the updated state, from the first l columns alone.

    Implemented as the full rows evaluated mod 2**l, which is exact because
    every row is built from operations whose column k depends only on
    columns <= k.
    """
    m = low_mask(prefix.l)
    a, b, c, d = prefix.a_low, prefix.b_low, prefix.c_low, prefix.d_low
    a, b, c, d, _ = _rows(a, b, c, d, m, params.c1 & m, params.c3 & m, params.c & m)
    return ColumnPrefix(prefix.l, a, b, c, d)


def truncated_t2(prefix: ColumnPrefix, instance: GeneratorInstance | None = None) -> int:
    """Low l columns of the inner word; defaults to the standard sum a+c."""
    if instance is not None:
        return instance.t2_trunc(prefix)
    return (prefix.a_low + prefix.c_low) & low_mask(prefix.l)


def predicted_output_lsb(
    prefix: ColumnPrefix,
    params: Tf1Params | None = None,
    instance: GeneratorInstance | None = None,
) -> int:
    """LSB of the next output word, computed from a column prefix alone.

    The output is S(t2) times an odd factor, so its least significant bit is
    column h+1 of t2 of the *next* state, where h is the half width.  Any
    prefix of at least h+1 columns pins that bit for every extension.
    """
    if instance is None:
        if params is None:
            raise ValueError("need params or an instance")
        instance = tf1_instance(params)
    h = instance.spec.half
    if prefix.l <= h:
        raise ValueError(f"prefix has {prefix.l} columns; need at least {h + 1}")
    nxt = instance.t1_trunc(prefix)
    return (instance.t2_trunc(nxt) >> h) & 1


def tf1_instance(params: Tf1Params) -> GeneratorInstance:
    """The standard generator wrapped in the generalized-instance contract.

    Here t2 is a+c and f is S(b+d), reproducing the usual output word.
    """
    spec = params.spec
    mask = spec.mask

    def f(state: State) -> int:
        return swap_halves((state.b + state.d) & mask, spec)

    return GeneratorInstance(
        name="tf1",
        spec=spec,
        params=params,
        t1=lambda state: update(state, params),
        t2=lambda state: t2_tf1(state, spec),
        f=f,
        t1_trunc=lambda prefix: truncated_update(prefix, params),
        t2_trunc=truncated_t2,
        tf1_native=True,
    )


def demo_generalized_instance(spec: WordSpec, params: Tf1Params) -> GeneratorInstance:
    """A second family member used to exercise the generic attack path.

    Keeps the standard update but swaps in t2'(A) = ((a+c) mod 2^w) xor
    (b & d), still a T-function, and f'(A) = b xor d.  Its t2 preimages have
    no closed form, so only the depth-first enumerator applies.
    """
    if params.spec != spec:
        raise ValueError("params were built for a different word spec")
    mask = spec.mask

    def t2(state: State) -> int:
        return ((state.a + state.c) & mask) ^ (state.b & state.d)

    def t2_trunc(prefix: ColumnPrefix) -> int:
        m = low_mask(prefix.l)
        return ((prefix.a_low + prefix.c_low) & m) ^ (prefix.b_low & prefix.d_low)

    return GeneratorInstance(
        name="demo",
        spec=spec,
        params=params,
        t1=lambda state: update(state, params),
        t2=t2,
        f=lambda state: state.b ^ state.d,
        t1_trunc=lambda prefix: truncated_update(prefix, params),
        t2_trunc=t2_trunc,
    )


def instance_output(state: State, instance: GeneratorInstance) -> int:
    """Output word of a generalized instance: S(t2(A)) * (f(A) | 1)."""
    spec = instance.spec
    return (swap_halves(instance.t2(state), spec) * (instance.f(state) | 1)) & spec.mask


def generate_from_instance(seed: State, instance: GeneratorInstance, n: int) -> Keystream:
    """Like ``generate`` but through an instance's t1/t2/f."""
    if n < 0:
        raise ValueError("n must be >= 0")
    state = seed
    out = []
    for _ in range(n):
        state = instance.t1(state)
        out.append(instance_output(state, instance))
    return Keystream(instance.spec, tuple(out))


def state_from_seed(seed: int, spec: WordSpec) -> State:
    """Expand a 64-bit integer into a state via four splitmix64 draws."""
    rng = SplitMix64(seed)
    mask = spec.mask
    return State(rng.next64() & mask, rng.next64() & mask, rng.next64() & mask, rng.next64() & mask)
