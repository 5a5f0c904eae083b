"""Extended exponents in [1, +inf] and the pairs indexing the mixed norms.

Exponents are kept as exact fractions (infinity is a distinguished tag) so
that region predicates that hinge on equalities of reciprocal sums never
suffer float drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

ExponentLike = Union[int, float, str, Fraction, "ExtendedExponent"]


@dataclass(frozen=True)
class ExtendedExponent:
    """An exponent in [1, +inf]; ``value is None`` encodes +inf."""

    value: Fraction | None = None

    def __post_init__(self):
        if self.value is not None:
            if not isinstance(self.value, Fraction):
                raise TypeError("finite exponent must be a Fraction")
            if self.value < 1:
                raise ValueError(f"exponent must be >= 1, got {self.value}")

    # -- construction ------------------------------------------------------

    @staticmethod
    def of(x: ExponentLike) -> "ExtendedExponent":
        if isinstance(x, ExtendedExponent):
            return x
        if isinstance(x, str):
            s = x.strip().lower()
            if s in ("inf", "infinity", "oo"):
                return ExtendedExponent(None)
            return ExtendedExponent(Fraction(s))
        if isinstance(x, Fraction):
            return ExtendedExponent(x)
        if isinstance(x, int):
            return ExtendedExponent(Fraction(x))
        if isinstance(x, float):
            if math.isinf(x):
                return ExtendedExponent(None)
            # binary floats are exact rationals, so this is lossless
            return ExtendedExponent(Fraction(x))
        raise TypeError(f"cannot interpret {x!r} as an exponent")

    @staticmethod
    def infinity() -> "ExtendedExponent":
        return ExtendedExponent(None)

    # -- queries -----------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def reciprocal(self) -> Fraction:
        """1/e with the convention 1/inf = 0."""
        return Fraction(0) if self.value is None else 1 / self.value

    def conjugate(self) -> "ExtendedExponent":
        """The e' with 1/e + 1/e' = 1; conjugate(1) = inf, conjugate(inf) = 1."""
        if self.value is None:
            return ExtendedExponent(Fraction(1))
        if self.value == 1:
            return ExtendedExponent(None)
        return ExtendedExponent(self.value / (self.value - 1))

    def __float__(self) -> float:
        return math.inf if self.value is None else float(self.value)

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def __le__(self, other: "ExtendedExponent") -> bool:
        if self.value is None:
            return other.value is None
        if other.value is None:
            return True
        return self.value <= other.value

    def __lt__(self, other: "ExtendedExponent") -> bool:
        return self <= other and self != other


@dataclass(frozen=True)
class ExponentPair:
    """A pair (p, q): radial exponent p, angular exponent q."""

    p: ExtendedExponent
    q: ExtendedExponent

    @staticmethod
    def of(p: ExponentLike, q: ExponentLike) -> "ExponentPair":
        return ExponentPair(ExtendedExponent.of(p), ExtendedExponent.of(q))

    def reciprocal_sum(self) -> Fraction:
        """1/p + 1/q, always in [0, 2]."""
        return self.p.reciprocal() + self.q.reciprocal()

    def conjugate(self) -> "ExponentPair":
        return ExponentPair(self.p.conjugate(), self.q.conjugate())

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def as_pair(pq) -> ExponentPair:
    """``pq`` itself if it is an ExponentPair, else ExponentPair.of(*pq)."""
    return pq if isinstance(pq, ExponentPair) else ExponentPair.of(*pq)
