"""Extended exponents in [1, +inf] and the pairs indexing the mixed norms.

Each exponent is held as its reciprocal, an exact fraction in [0, 1] with 0
for infinity, because every region predicate is a condition on reciprocals:
equalities of reciprocal sums never suffer float drift, and infinity needs
no branch of its own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = ["ExponentPair", "ExtendedExponent"]

ExponentLike = Union[int, float, str, Fraction, "ExtendedExponent"]


def parse_fraction(text: str) -> Fraction:
    """A decimal or p/q string as an exact Fraction that a float can hold.

    Malformed text, a zero denominator and a magnitude beyond the float
    range all raise ``ValueError``.
    """
    try:
        x = Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if abs(x) > sys.float_info.max:
        raise ValueError(f"{text!r} is beyond the float range")
    return x


# Canonical exponents and pairs: ``of`` returns the object kept here for
# its value, so equal exponents and pairs are one object and a cache key
# compares them by identity.  An exponent is kept under the (type, value)
# of each spelling it was asked by and under its reciprocal, a pair under
# its two canonical exponents; at most _INTERNED_MAX entries, the oldest
# dropped first.
_INTERNED_MAX = 512
_interned: dict = {}


def _intern(spelling: tuple, build):
    """The object kept for the value that ``spelling`` names.  On a miss
    ``build()`` gives the value's own key and a new object; an object kept
    under that key wins over the new one, and the key is entered again
    after the spelling, so it outlives every spelling of its value."""
    obj = _interned.get(spelling)
    if obj is None:
        value_key, new = build()
        obj = _interned.pop(value_key, new)
        _interned[spelling] = obj
        _interned[value_key] = obj
        while len(_interned) > _INTERNED_MAX:
            del _interned[next(iter(_interned))]
    return obj


def _reciprocal(x) -> Fraction:
    """1/x for an exponent x in [1, inf], a number or its text."""
    if isinstance(x, str):
        s = x.strip().lower()
        x = math.inf if s in ("inf", "infinity", "oo") else parse_fraction(s)
    if x == math.inf:
        return Fraction(0)
    if not 1 <= x <= sys.float_info.max:
        raise ValueError(f"exponent must lie in [1, inf], got {x}")
    # binary floats are exact rationals, so this is lossless
    return 1 / Fraction(x)


@dataclass(frozen=True)
class ExtendedExponent:
    """An exponent e in [1, +inf], held as its reciprocal 1/e in [0, 1]:
    ``reciprocal == 0`` is +inf.  Build one with ``ExtendedExponent.of``,
    which returns one object per value (see ``_intern``)."""

    reciprocal: Fraction

    def __post_init__(self):  # the dataclass hash, computed once
        object.__setattr__(self, "_hash", hash((self.reciprocal,)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(x: ExponentLike) -> "ExtendedExponent":
        if isinstance(x, ExtendedExponent):
            return x
        if isinstance(x, bool) or not isinstance(x, (int, float, str,
                                                     Fraction)):
            raise TypeError(f"cannot interpret {x!r} as an exponent")

        def build():
            r = _reciprocal(x)
            return (ExtendedExponent, r), ExtendedExponent(r)
        return _intern((type(x), x), build)

    @property
    def is_finite(self) -> bool:
        return self.reciprocal.numerator != 0

    def conjugate(self) -> "ExtendedExponent":
        """The e' with 1/e + 1/e' = 1; conjugate(1) = inf, conjugate(inf) = 1."""
        key = (ExtendedExponent, 1 - self.reciprocal)
        return _intern(key, lambda: (key, ExtendedExponent(key[1])))

    def __float__(self) -> float:
        r = self.reciprocal
        return r.denominator / r.numerator if self.is_finite else math.inf

    def __str__(self) -> str:
        return str(1 / self.reciprocal) if self.is_finite else "inf"

    def __le__(self, other: "ExtendedExponent") -> bool:
        return self.reciprocal >= other.reciprocal

    def __lt__(self, other: "ExtendedExponent") -> bool:
        return self.reciprocal > other.reciprocal


@dataclass(frozen=True)
class ExponentPair:
    """A pair (p, q): radial exponent p, angular exponent q."""

    p: ExtendedExponent
    q: ExtendedExponent

    def __post_init__(self):  # a Fraction sum takes about 1.5 us
        object.__setattr__(self, "_hash", hash((self.p, self.q)))
        object.__setattr__(self, "_sum", self.p.reciprocal + self.q.reciprocal)

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(p: ExponentLike, q: ExponentLike) -> "ExponentPair":
        """The one pair of these exponents (see ``_intern``)."""
        key = (ExponentPair, ExtendedExponent.of(p), ExtendedExponent.of(q))
        return _intern(key, lambda: (key, ExponentPair(*key[1:])))

    def reciprocal_sum(self) -> Fraction:
        """1/p + 1/q, always in [0, 2], added once at construction."""
        return self._sum

    def conjugate(self) -> "ExponentPair":
        return ExponentPair.of(self.p.conjugate(), self.q.conjugate())

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def as_pair(pq) -> ExponentPair:
    """``pq`` itself if it is an ExponentPair, else ExponentPair.of(*pq)."""
    return pq if isinstance(pq, ExponentPair) else ExponentPair.of(*pq)
