"""Width-parametric machine words and the bit conventions shared by all modules.

Arithmetic is unsigned and reduced modulo 2**w after every step.  Bit
positions are counted as *columns* from 0: column j is bit j, so column 0 is
the least significant bit, column w-1 the most significant, and "the first l
columns" are columns 0..l-1.  Plain Python ints rely on masking alone.  The
numpy arrays of words also rely on their unsigned dtype wrapping around
modulo 2**bits (see ``word_dtype``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WordSpec", "check_int", "low_mask", "word_dtype"]


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

    def check_words(self, words) -> None:
        """Raise ValueError naming the first of ``words`` outside the width, if any."""
        for i, x in enumerate(words):
            if not 0 <= x <= self.mask:
                raise ValueError(f"word {i} is {x:#x}, outside the width-{self.width} range")


def check_int(value, name: str) -> int:
    """``value``, or ValueError naming ``name`` when it is not an int."""
    # bool is an int subclass, but True is no count
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


def low_mask(bits: int) -> int:
    """Mask covering columns 0..bits-1."""
    return (1 << bits) - 1


def word_dtype(bits: int) -> np.dtype:
    """The narrowest unsigned numpy dtype that holds ``bits`` bits, 1..64.

    The one dtype rule for arrays of words.  Unsigned arithmetic wraps
    around modulo 2**(container bits), which preserves every value mod 2**l
    for l <= bits, so each T-function row, sum and product taken mod 2**l
    on such an array is exact.
    """
    return np.min_scalar_type(low_mask(bits))
