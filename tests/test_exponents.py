import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from radmix import ExponentPair, ExtendedExponent, exponents
from radmix.exponents import as_pair


def test_parsing_and_float():
    assert float(ExtendedExponent.of("inf")) == math.inf
    assert float(ExtendedExponent.of("4/3")) == pytest.approx(4 / 3)
    assert ExtendedExponent.of(2).reciprocal == Fraction(1, 2)
    assert ExtendedExponent.of(1.5).reciprocal == Fraction(2, 3)


def test_range_enforced():
    for x in (0.5, "1/0", "1e400", 10 ** 400, Fraction(10 ** 400), -math.inf):
        with pytest.raises(ValueError):
            ExtendedExponent.of(x)
    with pytest.raises(TypeError):
        ExtendedExponent.of(True)


def test_conjugates():
    assert ExtendedExponent.of(1).conjugate() == ExtendedExponent.of("inf")
    assert ExtendedExponent.of("inf").conjugate() == ExtendedExponent.of(1)
    e = ExtendedExponent.of(Fraction(4, 3))
    assert e.conjugate().reciprocal == Fraction(1, 4)
    # 1/e + 1/e' = 1 exactly
    assert e.reciprocal + e.conjugate().reciprocal == 1


def test_reciprocal_sum_bounds():
    for p in (1, 2, "inf"):
        for q in (1, "4/3", "inf"):
            s = ExponentPair.of(p, q).reciprocal_sum()
            assert 0 <= s <= 2


def test_equal_pairs_hash_equal_whatever_their_spelling():
    spellings = [(2, "inf"), (Fraction(2), math.inf), ("4/2", "oo"),
                 (2.0, "Infinity"),
                 (ExtendedExponent.of(2), ExtendedExponent.of("inf"))]
    pairs = [ExponentPair.of(*s) for s in spellings]
    store = {pairs[0]: "estimate"}
    for pair in pairs:
        assert pair == pairs[0] and hash(pair) == hash(pairs[0])
        assert store[pair] == "estimate" and {pair: 1}[pairs[0]] == 1
    # the stored hash is the new pair's, not its source's
    moved = dataclasses.replace(pairs[0], q=ExtendedExponent.of(2))
    assert moved == ExponentPair.of(2, 2)
    assert hash(moved) == hash(ExponentPair.of(2, 2)) != hash(pairs[0])


def test_equal_exponents_and_pairs_are_one_object():
    assert (ExponentPair.of(2, "inf") is as_pair((2.0, "oo"))
            is ExponentPair.of(Fraction(2), math.inf))
    assert (ExtendedExponent.of(2) is ExtendedExponent.of(" 4/2 ")
            is ExtendedExponent.of(Fraction(2)))
    # a conjugate is the kept object of its value too
    assert ExtendedExponent.of(2).conjugate() is ExtendedExponent.of(2)
    assert ExtendedExponent.of(1).conjugate() is ExtendedExponent.of("inf")
    assert ExtendedExponent.of("inf").conjugate() is ExtendedExponent.of(1)
    assert ExponentPair.of(2, 4).conjugate() is ExponentPair.of(2, "4/3")
    with pytest.raises(TypeError):
        ExtendedExponent.of(True)
    for bad in (float("nan"), 0.5):
        with pytest.raises(ValueError):
            ExtendedExponent.of(bad)
    # one built by the dataclass constructor is another object, equal and
    # hashing equal, with the same stored reciprocal sum
    pair = ExponentPair.of(4, 2)
    built = ExponentPair(ExtendedExponent(Fraction(1, 4)),
                         ExtendedExponent(Fraction(1, 2)))
    assert built is not pair and built == pair and hash(built) == hash(pair)
    assert {pair: "estimate"}[built] == "estimate"
    assert built.p == pair.p and hash(built.p) == hash(pair.p)
    assert built.reciprocal_sum() == pair.reciprocal_sum() == Fraction(3, 4)


def test_intern_table_stays_bounded():
    for k in range(10_000):
        ExtendedExponent.of(1.0 + k / 7.0)
        if k % 100 == 0:
            ExponentPair.of(1.0 + k / 7.0, "inf")
    for table in (exponents._canonical, exponents._spelled):
        assert table.cache_info().currsize <= exponents._INTERNED_MAX
    # the least recently used entries went first, and a value still has
    # one object
    assert ExtendedExponent.of(2) is ExtendedExponent.of(2.0)
    assert ExponentPair.of(1, 2) is ExponentPair.of("1", "2")


def test_a_pair_in_use_keeps_its_object():
    pair = ExponentPair.of(2, "inf")
    for k in range(10_000):
        ExtendedExponent.of(1.0 + k / 7.0)
        assert ExponentPair.of(2, "inf") is pair


def test_a_value_in_use_keeps_its_object_under_every_spelling():
    # every spelling is read through the table of values, so evicting the
    # spellings of a value in use does not split it into two objects
    a = ExtendedExponent.of(2)
    for k in range(2_000):
        assert ExtendedExponent.of(2) is a
        ExponentPair.of(1 + k / 7, "inf")
    assert ExtendedExponent.of("2") is ExtendedExponent.of(2) is a
    assert a.conjugate() is a


def test_ordering():
    grid = [ExtendedExponent.of(x) for x in (1, "4/3", 2, 4, "inf")]
    for a, b in zip(grid, grid[1:]):
        assert a < b and a <= b and not b <= a


EXPONENTS = st.fractions(min_value=1, max_value=10 ** 6) | st.just("inf")


@settings(max_examples=60, deadline=None)
@given(EXPONENTS, EXPONENTS)
def test_reciprocal_form_matches_the_exponent(x, y):
    e, f = ExtendedExponent.of(x), ExtendedExponent.of(y)
    assert ExtendedExponent.of(str(e)) == e
    assert float(e) == float(x)
    assert str(e) == str(x)
    xv, yv = (math.inf if v == "inf" else v for v in (x, y))
    assert (e <= f, e < f, e == f) == (xv <= yv, xv < yv, xv == yv)
    assert e.reciprocal + e.conjugate().reciprocal == 1
