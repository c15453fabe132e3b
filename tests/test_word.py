import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tf1crack import default_params, tf1_instance
from tf1crack.generator import _out
from tf1crack.rng import SplitMix64
from tf1crack.word import WordSpec

W8 = WordSpec(8)


def _swaps(spec):
    """The program's half swap S, through the two places that compute it.

    The output word ``_out(x, 0, 0, 0)`` is S(x + 0) * (S(0 + 0) | 1) = S(x),
    and tf1's odd-factor word f_words(0, x, 0, 0) is S(x + 0).
    """
    f_words = tf1_instance(default_params(spec)).f_words
    return (lambda x: _out(x, 0, 0, 0, spec.mask, spec.half), lambda x: f_words(0, x, 0, 0))


@pytest.mark.parametrize("width", [4, 8, 16, 32, 64])
def test_spec_derived_fields(width):
    spec = WordSpec(width)
    assert spec.half == width // 2
    assert spec.mask == (1 << width) - 1


@pytest.mark.parametrize("width", [3, 5, 7, 2, 0, 65, 66, -4])
def test_spec_rejects_bad_widths(width):
    with pytest.raises(ValueError):
        WordSpec(width)


def test_swap_halves_examples():
    for swap in _swaps(W8):
        assert swap(0xAB) == 0xBA
        assert swap(0x00) == 0x00
    for swap in _swaps(WordSpec(16)):
        assert swap(0x1234) == 0x3412


def test_swap_halves_matches_definition():
    # S(x) = x // 2^(w/2) + x * 2^(w/2) mod 2^w
    for spec in (WordSpec(4), W8, WordSpec(16)):
        h = spec.half
        for swap in _swaps(spec):
            for x in range(0, spec.mask + 1, max(1, spec.mask // 999)):
                assert swap(x) == ((x >> h) + ((x << h) & spec.mask)) & spec.mask


def test_swap_involution_exhaustive_w8():
    for swap in _swaps(W8):
        for x in range(256):
            assert swap(swap(x)) == x


@pytest.mark.parametrize("width", [16, 32, 64])
def test_swap_involution_random(width):
    spec = WordSpec(width)
    swaps = _swaps(spec)
    rng = SplitMix64(width + 1)
    for _ in range(10_000):
        x = rng.next64() & spec.mask
        for swap in swaps:
            assert swap(swap(x)) == x


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=300)
def test_swap_involution_hypothesis(x):
    for swap in _swaps(WordSpec(64)):
        assert swap(swap(x)) == x
