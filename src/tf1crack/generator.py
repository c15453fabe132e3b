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

The standard generator's output stream runs compiled, in ``_lanes.c``
(``tf1_stream``), where a C compiler can build it; every other instance,
and the standard generator without a compiler, steps its word functions.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import _native
from .rng import SplitMix64
from .word import WordSpec, check_int, low_mask

__all__ = [
    "State",
    "Tf1Params",
    "Keystream",
    "GeneratorInstance",
    "default_params",
    "generate",
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

# words per call of the compiled stream; bounds its buffer, never affects results
_BLOCK = 1 << 14


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

    def validate(self, spec: WordSpec) -> "ColumnPrefix":
        if not 1 <= self.l <= spec.width:
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


@dataclass(frozen=True)
class GeneratorInstance:
    """A generalized-family member: its params and three word functions.

    t1 and t2 are T-functions, f is arbitrary.  Each map has one definition,
    on words.  ``t1_words(a, b, c, d, m)`` returns the four updated words
    and ``t2_words(a, b, c, d, m)`` the inner word, both mod 2**l where
    m = 2**l - 1, from inputs already reduced mod 2**l.  As the maps are
    T-functions, m = ``spec.mask`` gives the full map and m = low_mask(l)
    its truncation to l columns; ``tfcheck.check_truncation_consistency``
    tests exactly that.  ``f_words(a, b, c, d)`` is the odd-making factor,
    at full width only.  All three must take numpy arrays of
    ``word_dtype(w)`` as well as ints, as ``_rows`` does: the attack's
    column enumerator and its stage-1 filter call them on arrays.

    ``spec`` is ``params.spec``, stored once.  ``tf1_native`` is set by
    ``tf1_instance`` alone and by neither the constructor nor
    ``dataclasses.replace``, so every other instance, and every replaced
    copy of the standard one, is generic: ``dataclasses.replace(inst)`` is
    the generic twin that steps the instance's own word functions.  It
    marks the standard generator, whose t2 is the plain column sum a+c
    with the closed-form preimages c = (target - a) mod 2^l; the attack's
    ``trivial`` mode and its lane-sliced stage-1 kernel, stage 2's pruning
    on the first tail word, and the compiled path of ``_stream``, the one
    output stream, serve it alone.  Any instance, this one included, runs
    ``dfs`` mode, whose stage 1 the tests use as the reference for the
    lane kernel; the generic twin's stage 2, which does not prune, is the
    reference for the pruned one, and its stream the reference for the
    compiled one.
    """

    params: Tf1Params
    t1_words: Callable[..., tuple]
    t2_words: Callable[..., int]
    f_words: Callable[..., int]
    spec: WordSpec = field(init=False, repr=False)
    tf1_native: bool = field(init=False, default=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "spec", self.params.spec)

    def t1(self, state: State) -> State:
        return State(*self.t1_words(*state.words(), self.spec.mask))


def _rows(a, b, c, d, m, c1, c3, cc):
    """The four update rows mod 2**l, where m = 2**l - 1.

    The Python copy of the TF-1 update; ``_lanes.c`` states it once more,
    for its compiled paths.  Inputs must already be reduced mod 2**l;
    constants need not be, as they enter only reduced sums and products.
    Inputs may be Python ints or numpy unsigned arrays whose dtype also
    holds the constants, since numpy 2 gives plain-int operands the
    array's dtype (NEP 50).  Because every row is a T-function, rows taken
    mod 2**l are exactly the truncated update.  The rows share the step
    word s = ((C + p) mod 2**l) xor p, with p = a & b & c & d.
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
    )


def _out(a, b, c, d, m, h):
    """The output word S(a+c) * (S(b+d) | 1) mod 2**w, with m = 2**w - 1 and h = w/2.

    The standard generator's output, as the oracle and the attack's array
    paths compute it; ``_instance_out`` writes the same formula over any
    instance's word functions.  Ints or numpy arrays, as for ``_rows``.
    The second factor is odd, so the output is zero exactly when a+c wraps
    to zero.
    """
    x = (a + c) & m
    y = (b + d) & m
    # bits that x << h and y << h carry to column w and above vanish in the reduced product
    return (((x >> h) | (x << h)) * ((y >> h) | (y << h) | 1)) & m


def generate(seed: State, params: Tf1Params, n: int) -> Keystream:
    """Run n update+emit steps from ``seed``; the seed itself emits nothing."""
    return generate_from_instance(seed, tf1_instance(params), n)


def state_prefix(state: State, l: int) -> ColumnPrefix:
    """The first l columns of a state."""
    m = low_mask(l)
    return ColumnPrefix(l, state.a & m, state.b & m, state.c & m, state.d & m)


def _t2_sum(a, b, c, d, m):
    return (a + c) & m


def _t1_rows(params: Tf1Params):
    c1, c3, cc = params.c1, params.c3, params.c
    return lambda a, b, c, d, m: _rows(a, b, c, d, m, c1, c3, cc)


def tf1_instance(params: Tf1Params) -> GeneratorInstance:
    """The standard generator wrapped in the generalized-instance contract.

    Here t2 is a+c and f is S(b+d), reproducing the usual output word.
    The only instance marked ``tf1_native``.
    """
    mask, h = params.spec.mask, params.spec.half

    def f_words(a, b, c, d):
        y = (b + d) & mask
        return ((y >> h) | (y << h)) & mask

    instance = GeneratorInstance(params, _t1_rows(params), _t2_sum, f_words)
    object.__setattr__(instance, "tf1_native", True)
    return instance


def demo_generalized_instance(spec: WordSpec, params: Tf1Params) -> GeneratorInstance:
    """A second family member used to exercise the generic attack path.

    Keeps the standard update but swaps in t2'(A) = ((a+c) mod 2^w) xor
    (b & d), still a T-function, and f'(A) = b xor d.  Its t2 preimages have
    no closed form, so only the depth-first enumerator applies.
    """
    if params.spec != spec:
        raise ValueError("params were built for a different word spec")
    return GeneratorInstance(
        params,
        _t1_rows(params),
        lambda a, b, c, d, m: ((a + c) & m) ^ (b & d),
        lambda a, b, c, d: b ^ d,
    )


def _instance_out(t2_words, f_words, m: int, h: int, a, b, c, d):
    """S(t2) * (f | 1) mod 2**w on full-width words, as ``_out`` for any
    instance's ``t2_words`` and ``f_words``, with m = 2**w - 1 and h = w/2."""
    x = t2_words(a, b, c, d, m)
    # bits that x << h carries to column w and above vanish in the reduced product
    return (((x >> h) | (x << h)) * (f_words(a, b, c, d) | 1)) & m


def instance_output(state: State, instance: GeneratorInstance) -> int:
    """Output word of a generalized instance: S(t2(A)) * (f(A) | 1)."""
    spec = instance.spec
    return _instance_out(instance.t2_words, instance.f_words, spec.mask, spec.half, *state.words())


def generate_from_instance(seed: State, instance: GeneratorInstance, n: int) -> Keystream:
    """Like ``generate`` but through an instance's word functions.

    A seed word outside the width raises ValueError.
    """
    if check_int(n, "n") < 0:
        raise ValueError("n must be >= 0")
    for name, word in zip("abcd", seed.words()):
        instance.spec.check_word(word, name)
    return Keystream(instance.spec, tuple(_stream(seed, instance, n)))


def _stream(state: State, instance: GeneratorInstance, n: int) -> Iterator[int]:
    """The first n output words after ``state``: one update and one emit each.

    The one stream of a single state: generation and the attack's tail
    walk read it, each passing the number of words it reads at most.  The
    standard generator, marked ``tf1_native`` by ``tf1_instance`` alone,
    runs the compiled ``tf1_stream`` in calls of up to _BLOCK words.
    Every other instance, a replaced copy of the standard one included,
    steps plain ints through its own ``t1_words`` and ``_instance_out``,
    and so emits the stream of the maps it holds; so does the standard
    generator where the compiled library cannot be built.  A wrong state
    in the attack's tail walk pays one call before its first mismatch,
    but the walk drops almost all of them on arrays before they reach the
    stream at all.
    """
    spec = instance.spec
    kernel = _native.stream() if instance.tf1_native else None
    if kernel is not None:
        params = instance.params
        words = (ctypes.c_uint64 * 4)(*state.words())
        out = (ctypes.c_uint64 * min(n, _BLOCK))()
        # a view in the native format, whose tolist() is one C loop
        view = memoryview(out).cast("B").cast("Q")
        for done in range(0, n, _BLOCK):
            size = min(n - done, _BLOCK)
            kernel(size, spec.width, params.c1, params.c3, params.c, words, out)
            yield from view[:size].tolist()
        return
    m, h = spec.mask, spec.half
    a, b, c, d = state.words()
    t1_words, t2_words, f_words = instance.t1_words, instance.t2_words, instance.f_words
    for _ in range(n):
        a, b, c, d = t1_words(a, b, c, d, m)
        yield _instance_out(t2_words, f_words, m, h, a, b, c, d)


def state_from_seed(seed: int, spec: WordSpec) -> State:
    """Expand a 64-bit integer into a state via four splitmix64 draws."""
    rng = SplitMix64(seed)
    mask = spec.mask
    return State(rng.next64() & mask, rng.next64() & mask, rng.next64() & mask, rng.next64() & mask)
