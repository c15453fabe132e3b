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

The standard generator's output stream runs compiled where a C compiler
can build ``_lanes.c``: ``generate`` hands ``_native.stream`` the
keystream's own array of ``word_dtype(w)``, which one call fills, and this
module imports no ctypes.  Every other instance, and the standard generator
without a compiler, steps its word functions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import _native
from .rng import SplitMix64
from .word import WordSpec, check_int, low_mask, word_dtype

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

    C2 appears in no update row and has no slot here.  Each constant is
    stored as an int, as ``operator.index`` gives it, so a numpy integer
    steps as an int; a float, a bool or a str raises ValueError, as does a
    constant outside the width.
    """

    c1: int
    c3: int
    c: int
    spec: WordSpec

    def __post_init__(self) -> None:
        for name in ("c1", "c3", "c"):
            value = getattr(self, name)
            # bool is an int subclass, but True is no constant
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, self.spec.check_word(operator.index(value), name))


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
    """An ordered run of output words plus the width they were produced at.

    The words are stored once, as a C-contiguous read-only array of
    ``word_dtype(w)``, and ``words`` is a read-only memoryview of it:
    indexing and iterating it give ints, a slice copies nothing, ``==``
    compares the words and gives a bool, and ``np.asarray(ks.words)`` is
    the array itself.  ``words`` may be given as a tuple, a list, an
    integer ndarray or a memoryview; a word outside the width raises
    ValueError naming it, and one that is no integer, a float or a bool,
    TypeError.  A read-only array of ``word_dtype(w)`` is kept
    as it is, and anything else copied once.  A keystream is not hashable,
    at any width.
    """

    spec: WordSpec
    words: memoryview

    __hash__ = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", memoryview(_word_array(self.spec, self.words)))

    def __len__(self) -> int:
        return len(self.words)

    def __repr__(self) -> str:
        return f"Keystream(width={self.spec.width}, {len(self)} words)"

    def __reduce__(self):
        return Keystream, (self.spec, np.asarray(self.words))


def _word_array(spec: WordSpec, words) -> np.ndarray:
    """``words`` as a C-contiguous read-only array of ``word_dtype(w)``,
    the array itself where it already is one."""
    dtype = word_dtype(spec.width)
    given = np.asarray(words) if isinstance(words, (np.ndarray, memoryview)) else None
    if given is not None and given.dtype.kind not in "iuO":
        raise TypeError(f"keystream words must be integers, got an array of {given.dtype}")
    if given is not None and given.dtype.kind != "O":
        if given.ndim != 1:
            raise ValueError(f"keystream words must be one-dimensional, got shape {given.shape}")
        # only the word dtype itself, at full width, holds no word outside it
        if given.dtype != dtype or spec.width < 8 * dtype.itemsize:
            spec.check_words(given)
        array = given.astype(dtype, order="C", copy=False)
        if array is given and array.flags.writeable:
            array = array.copy()
    else:
        # np.fromiter would truncate a float and take a bool as 0 or 1
        for word in words:
            if isinstance(word, bool) or not hasattr(word, "__index__"):
                raise TypeError(f"keystream words must be integers, got {type(word).__name__} {word!r}")
        # a negative or container-overflowing word fails the conversion
        try:
            array = np.fromiter(words, dtype, len(words))
        except OverflowError:
            spec.check_words(words)
            raise
        if spec.width < 8 * dtype.itemsize:
            spec.check_words(array)
    array.flags.writeable = False
    # the native byte-order dtype, whose memoryview format is one letter (H, not <H)
    return array.view(dtype)


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
    ``trivial`` mode and its lane-sliced stage-1 kernel, the compiled
    stage 2 that prunes on the first tail word and walks the tail, and the
    compiled output stream of ``generate`` serve it alone.  Any instance, this
    one included, runs ``dfs`` mode, whose stage 1 the tests use as the
    reference for the lane kernel; the generic twin's stage 2, which does
    not prune, is the reference for the compiled one, and its stream the
    reference for the compiled stream.
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

    The words go straight into one array of ``word_dtype(w)``.  The
    standard generator, marked ``tf1_native`` by ``tf1_instance`` alone,
    fills it in one compiled call, ``_native.stream``.  Every other
    instance, a replaced copy of the standard one included, and the
    standard generator where the compiled library cannot be built, step
    their word functions, ``_steps``.  A seed word outside the width
    raises ValueError.
    """
    if check_int(n, "n") < 0:
        raise ValueError("n must be >= 0")
    spec, p = instance.spec, instance.params
    state = _int_state(seed, spec)
    words = np.empty(n, word_dtype(spec.width))
    if not (instance.tf1_native and _native.stream(spec.width, p.c1, p.c3, p.c, state.words(), words)):
        words = np.fromiter(_steps(state, instance, n), word_dtype(spec.width), n)
    words.flags.writeable = False
    return Keystream(spec, words)


def _int_state(state: State, spec: WordSpec) -> State:
    """``state`` with its words as ints: a numpy integer would step as a
    numpy scalar and overflow.  A word outside the width raises ValueError,
    and one that is no integer TypeError."""
    return State(*(spec.check_word(operator.index(v), name) for name, v in zip("abcd", state.words())))


def _steps(state: State, instance: GeneratorInstance, n: int) -> Iterator[int]:
    """The first n output words after ``state`` as ints, from the
    instance's word functions: the stream of the maps it holds, which
    every instance but the compiled standard generator runs."""
    m, h = instance.spec.mask, instance.spec.half
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
