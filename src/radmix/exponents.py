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


@dataclass(frozen=True)
class ExtendedExponent:
    """An exponent e in [1, +inf], held as its reciprocal 1/e in [0, 1]:
    ``reciprocal == 0`` is +inf.  Build one with ``ExtendedExponent.of``."""

    reciprocal: Fraction

    @staticmethod
    def of(x: ExponentLike) -> "ExtendedExponent":
        if isinstance(x, ExtendedExponent):
            return x
        if isinstance(x, str):
            s = x.strip().lower()
            x = math.inf if s in ("inf", "infinity", "oo") else parse_fraction(s)
        if isinstance(x, bool) or not isinstance(x, (int, float, Fraction)):
            raise TypeError(f"cannot interpret {x!r} as an exponent")
        if x == math.inf:
            return ExtendedExponent(Fraction(0))
        if not 1 <= x <= sys.float_info.max:
            raise ValueError(f"exponent must lie in [1, inf], got {x}")
        # binary floats are exact rationals, so this is lossless
        return ExtendedExponent(1 / Fraction(x))

    @property
    def is_finite(self) -> bool:
        return self.reciprocal.numerator != 0

    def conjugate(self) -> "ExtendedExponent":
        """The e' with 1/e + 1/e' = 1; conjugate(1) = inf, conjugate(inf) = 1."""
        return ExtendedExponent(1 - self.reciprocal)

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

    def __post_init__(self):  # hashing two Fractions takes about 1.9 us
        object.__setattr__(self, "_hash", hash((self.p, self.q)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(p: ExponentLike, q: ExponentLike) -> "ExponentPair":
        return ExponentPair(ExtendedExponent.of(p), ExtendedExponent.of(q))

    def reciprocal_sum(self) -> Fraction:
        """1/p + 1/q, always in [0, 2]."""
        return self.p.reciprocal + self.q.reciprocal

    def conjugate(self) -> "ExponentPair":
        return ExponentPair(self.p.conjugate(), self.q.conjugate())

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def as_pair(pq) -> ExponentPair:
    """``pq`` itself if it is an ExponentPair, else ExponentPair.of(*pq)."""
    return pq if isinstance(pq, ExponentPair) else ExponentPair.of(*pq)
