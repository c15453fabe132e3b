"""Width-parametric machine words and the bit conventions shared by all modules.

Arithmetic is unsigned and reduced modulo 2**w after every step.  Bit
positions are counted as *columns*: column 1 is the least significant bit
and column w the most significant.  Words of any supported width live in
plain Python ints; correctness relies on masking, never on container size.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "WordSpec",
    "mod_arith",
    "swap_halves",
    "column_bit",
    "low_mask",
]


@dataclass(frozen=True)
class WordSpec:
    """An even word width in [4, 64] with its derived half width and mask.

    Odd widths are rejected because the half-swap needs an exact split.
    """

    width: int

    def __post_init__(self) -> None:
        w = self.width
        if not isinstance(w, int) or not 4 <= w <= 64 or w % 2:
            raise ValueError(f"word width must be an even integer in [4, 64], got {w!r}")

    @property
    def half(self) -> int:
        return self.width // 2

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def hex_digits(self) -> int:
        return (self.width + 3) // 4

    def check_word(self, x: int, name: str = "word") -> int:
        if not 0 <= x <= self.mask:
            raise ValueError(f"{name} {x:#x} out of range for width {self.width}")
        return x


def low_mask(bits: int) -> int:
    """Mask covering columns 1..bits."""
    return (1 << bits) - 1


def _shl1(x: int, y: int, mask: int) -> int:
    return (x << 1) & mask


_OPS = {
    "add": lambda x, y, mask: (x + y) & mask,
    "mul": lambda x, y, mask: (x * y) & mask,
    "xor": lambda x, y, mask: x ^ y,
    "and": lambda x, y, mask: x & y,
    "or": lambda x, y, mask: x | y,
    "shl1": _shl1,
}


def mod_arith(op: str, x: int, y: int = 0, spec: WordSpec = None) -> int:
    """Apply a named word operation, reduced mod 2**w.

    ``shl1`` doubles x and ignores y.  Inputs must already be reduced;
    out-of-range operands raise ValueError rather than being silently masked.
    """
    if spec is None:
        raise ValueError("mod_arith requires a WordSpec")
    try:
        fn = _OPS[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}; expected one of {sorted(_OPS)}") from None
    spec.check_word(x, "x")
    spec.check_word(y, "y")
    return fn(x, y, spec.mask)


def swap_halves(x: int, spec: WordSpec) -> int:
    """Exchange the upper and lower halves of a word.

    Equals x // 2**(w/2) + x * 2**(w/2) mod 2**w, and is an involution.
    """
    spec.check_word(x)
    h = spec.half
    return (x >> h) | ((x << h) & spec.mask)


def column_bit(x: int, k: int, spec: WordSpec | None = None) -> int:
    """Bit of column k (column 1 is the least significant bit)."""
    if k < 1 or (spec is not None and k > spec.width):
        raise ValueError(f"column index {k} out of range")
    return (x >> (k - 1)) & 1
