import math
from fractions import Fraction

import pytest

from radmix import ExponentPair, ExtendedExponent


def test_parsing_and_float():
    assert float(ExtendedExponent.of("inf")) == math.inf
    assert float(ExtendedExponent.of("4/3")) == pytest.approx(4 / 3)
    assert ExtendedExponent.of(2).value == Fraction(2)
    assert ExtendedExponent.of(1.5).value == Fraction(3, 2)


def test_range_enforced():
    for x in (0.5, "1/0", "1e400", 10 ** 400, Fraction(10 ** 400)):
        with pytest.raises(ValueError):
            ExtendedExponent.of(x)


def test_conjugates():
    assert ExtendedExponent.of(1).conjugate() == ExtendedExponent.of("inf")
    assert ExtendedExponent.of("inf").conjugate() == ExtendedExponent.of(1)
    e = ExtendedExponent.of(Fraction(4, 3))
    assert e.conjugate().value == Fraction(4)
    # 1/e + 1/e' = 1 exactly
    assert e.reciprocal() + e.conjugate().reciprocal() == 1


def test_reciprocal_sum_bounds():
    for p in (1, 2, "inf"):
        for q in (1, "4/3", "inf"):
            s = ExponentPair.of(p, q).reciprocal_sum()
            assert 0 <= s <= 2


def test_ordering():
    grid = [ExtendedExponent.of(x) for x in (1, "4/3", 2, 4, "inf")]
    for a, b in zip(grid, grid[1:]):
        assert a < b and a <= b and not b <= a
