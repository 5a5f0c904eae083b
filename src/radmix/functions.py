"""Analytic-function representations on the unit disc.

Monomials, Taylor polynomials, boundary power singularities (1-z)^(-alpha),
Cesaro-sum powers, lacunary series, rational bump functions with a pole just
outside the disc, dilations and finite linear combinations.  Each
representation is one frozen dataclass deriving from
:class:`AnalyticFunction`, and that class is the only place that knows it:
``__post_init__`` coerces and validates the fields, and the methods give the
evaluation, the closed-form derivative and the one ``Features`` record
(``features()``) of what a norm quadrature may assume of f.  The JSON spec
is derived from the dataclass fields, so adding a representation means
adding one class.  Everything is immutable
and every operation is pure, so values can be shared freely between
workers.  A finite power series is defined once, by the mixin ``_Series``:
``Monomial``, ``TaylorPolynomial`` and ``Lacunary`` give only their terms,
and ``CesaroPower`` sums its inner series sum_{k<=n} z^k as a
``TaylorPolynomial``, so it has no removable point at z = 1.

Evaluation is vectorised over numpy arrays of points.  The norm quadratures
need only the modulus on a polar grid of angles x radii.
``AnalyticFunction.polar_kernel(r)`` checks the radii once and returns a
kernel theta -> |f| on theta x r, the one way to sample |f| on rays: each
quadrature level binds one and applies it to every block of angles it
samples.  A representation may bind its own kernel (``_polar``): it computes
its radial factors (powers r^n, the chord terms of (1 - r)^2 +
4 r sin^2(theta / 2)) once per binding, and each call is real arithmetic in
theta that never forms the complex point.  Without one, the
modulus of ``_eval`` at the points r e^(i theta) is used, so a new class
needs no kernel to be correct.  Differentiation uses the closed form of each
representation.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "AnalyticFunction",
    "BranchCutError",
    "CesaroPower",
    "DomainError",
    "Features",
    "Lacunary",
    "Monomial",
    "PowerSingularity",
    "RationalBump",
    "Scaled",
    "Sum",
    "TaylorPolynomial",
    "derivative_at",
    "dilate",
    "evaluate",
    "from_spec",
    "to_spec",
]


class DomainError(ValueError):
    """Evaluation requested outside the open unit disc."""


class BranchCutError(ArithmeticError):
    """A principal-branch power hit the negative real axis."""


def _check_inside(z: np.ndarray) -> None:
    if not np.all(np.abs(z) < 1.0):
        worst = np.max(np.abs(z))
        raise DomainError(f"point outside the open unit disc (|z| = {worst})")


def _principal_power(w: np.ndarray, exponent: float) -> np.ndarray:
    # sum_{k<=n} z^k = (1 - z^(n+1)) / (1 - z) is a ratio of two points of
    # the right half-plane, so this guard is a regression check only.
    on_cut = (w.real <= 0.0) & (w.imag == 0.0)
    if np.any(on_cut):
        raise BranchCutError("principal-branch power evaluated on the cut")
    return np.exp(exponent * np.log(w))


def _chord2(diff: np.ndarray, prod: np.ndarray):
    """phi -> |a - b e^(i phi)|^2 on phi x (a, b) for a, b >= 0, from
    diff = a - b and prod = a b; the terms in (a, b) are computed here once.

    The form (a - b)^2 + 4 a b sin^2(phi / 2) keeps full relative accuracy
    where b e^(i phi) approaches a; a^2 - 2 a b cos(phi) + b^2 cancels there.
    """
    diff2 = diff ** 2
    prod4 = 4.0 * prod
    return lambda phi: diff2 + prod4 * np.sin(0.5 * phi)[:, None] ** 2


def _weighted_sum(z: np.ndarray, terms) -> np.ndarray:
    """sum_k c_k v_k over (weight c_k, values v_k at the points z) pairs;
    inf where a term is, not the NaN of inf times a complex weight."""
    acc, overflow = np.zeros_like(z), False
    for c, v in terms:
        big = np.isinf(v)
        acc = acc + c * np.where(big, 0.0, v)
        overflow = overflow | big
    return np.where(overflow, np.inf, acc)


# -- field coercion ------------------------------------------------------------

def _integer(x, what: str) -> int:
    """x as an int; floats (even integral ones), bools and strings are refused."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _real(x, what: str) -> float:
    """x as a finite float; bools, strings, non-finite values and numbers
    beyond the float range are refused."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) \
            or not abs(x) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite real number, got {x!r}")
    return float(x)


def _complex(c, what: str) -> complex:
    """A finite complex number, given as a number or as an [re, im] pair."""
    if isinstance(c, (list, tuple)) and len(c) == 2:
        return complex(_real(c[0], what), _real(c[1], what))
    if isinstance(c, bool) or not isinstance(c, numbers.Complex):
        raise ValueError(f"{what} must be a complex number or an [re, im] "
                         f"pair, got {c!r}")
    return complex(_real(c.real, what), _real(c.imag, what))


def _function(g, what: str) -> "AnalyticFunction":
    if not isinstance(g, AnalyticFunction):
        raise ValueError(f"{what} must be a function representation, got {g!r}")
    return g


# -- representations -------------------------------------------------------------

@dataclass(frozen=True)
class Features:
    """What a norm quadrature may assume of f beyond the samples of |f|.

    ``singular_angles``: the boundary directions along which the radial
    profile can peak: 0 for power singularities and Cesaro powers, the pole
    direction for a rational bump.  Supremum-type norms seed their angular
    sample set with these directions.

    ``top_exponent``: the highest power of z in a finite series (for a
    Cesaro power, in its inner sum), else 0.  Along a circle, |f| of such a
    series varies on angular scales down to about 2 pi / N for the top
    exponent N, so its peaks need not lie at a singular direction;
    supremum-type norms scan a ring of angles fine enough to see them.

    ``conjugate_symmetric``: whether f(conj z) = conj f(z) (real Taylor
    coefficients), so that |f| takes equal values at the angles theta and
    -theta.  False unless a representation proves it, so a new class is
    never taken to be symmetric; a norm quadrature folds its angular rule
    onto half the circle only when this holds.

    ``rotation_invariant``: whether |f| depends on |z| alone, that is (for
    an analytic f) f = c z^n: a series with at most one nonzero
    coefficient, or a dilation of one.  False unless a representation
    proves it; a norm quadrature then samples a single ray for every
    exponent pair.
    """

    singular_angles: tuple = ()
    top_exponent: int = 0
    conjugate_symmetric: bool = False
    rotation_invariant: bool = False


class AnalyticFunction:
    """Base of the representations.

    Every subclass is a frozen dataclass defining ``_eval`` and ``_deriv``
    (a power series inherits them from ``_Series``): the values and the
    closed-form derivative at an array of points already checked to lie
    inside the disc.  A subclass may override ``_polar`` with its own
    modulus kernel, and ``features`` with what it can declare.
    """

    def polar_kernel(self, r) -> Callable[[np.ndarray], np.ndarray]:
        """The kernel theta -> |f(r e^(i theta))| on the grid theta x r, one
        row per angle, for the radii ``r`` bound once.

        ``r`` is a 1-d array, checked here: every radius must lie in [0, 1).
        The kernel takes a 1-d float array of angles.
        """
        r = np.asarray(r, dtype=float)
        outside = ~((r >= 0.0) & (r < 1.0))
        if np.any(outside):
            raise DomainError(f"polar radius outside [0, 1) (r = {r[outside][0]})")
        return self._polar(r)

    def _polar(self, r):
        """The modulus kernel for radii already checked; |_eval| by default."""
        return lambda theta: np.abs(
            self._eval(r[None, :] * np.exp(1j * theta[:, None])))

    def features(self) -> Features:
        """What the norm quadratures may assume of f; nothing by default."""
        return Features()


def _horner(z: np.ndarray, exponents, coeffs) -> np.ndarray:
    """sum_k coeffs[k] z^exponents[k] for nondecreasing exponents, at least
    one, by Horner's rule over their gaps: a sum of the powers took 15x as
    long at degree 256 on 16,384 points (numpy 2.4)."""
    acc, n = coeffs[-1], exponents[-1]
    for m, a in zip(exponents[-2::-1], coeffs[-2::-1]):
        acc = acc * z ** (n - m) + a
        n = m
    return acc * z ** n


class _Series:
    """sum_k a_k z^(n_k), at least one term, from ``_terms()``: increasing
    exponents n_k >= 0 and coefficients a_k.  Listed before the base, so its
    methods win; a mixin, so ``_REPRESENTATIONS`` lists no class of its own.
    """

    def _eval(self, z):
        return _horner(z, *self._terms())

    def _deriv(self, z):
        exponents, coeffs = self._terms()
        return _horner(z, [max(n - 1, 0) for n in exponents],
                       [a * n for n, a in zip(exponents, coeffs)])

    def _polar(self, r):
        # one product of the (T x K) phases e^(i n_k theta) with the (K x R)
        # radial terms a_k r^(n_k), which are computed here once
        exponents, coeffs = self._terms()
        n = np.asarray(exponents, dtype=float)
        radial = np.asarray(coeffs, dtype=complex)[:, None] * r ** n[:, None]
        return lambda theta: np.abs(np.exp(1j * np.outer(theta, n)) @ radial)

    def features(self):
        exponents, coeffs = self._terms()
        return Features(top_exponent=exponents[-1], conjugate_symmetric=all(
            a.imag == 0.0 for a in coeffs), rotation_invariant=len(
                coeffs) - coeffs.count(0.0) <= 1)


@dataclass(frozen=True)
class Monomial(_Series, AnalyticFunction):
    """z^n."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "monomial degree"))
        if self.n < 0:
            raise ValueError("monomial degree must be nonnegative")

    def _terms(self):
        return (self.n,), (1.0,)

    def _polar(self, r):  # |z^n| is constant in the angle
        rn = r ** self.n
        return lambda theta: np.tile(rn, (len(theta), 1))


@dataclass(frozen=True)
class TaylorPolynomial(_Series, AnalyticFunction):
    """sum_k coeffs[k] z^k."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(
            _complex(c, "Taylor coefficient") for c in self.coeffs))

    def _terms(self):
        if not self.coeffs:  # the zero polynomial
            return (0,), (0j,)
        return range(len(self.coeffs)), self.coeffs


@dataclass(frozen=True)
class PowerSingularity(AnalyticFunction):
    """(1-z)^(-alpha), principal branch; z = 1 is outside the domain."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha"))

    def _eval(self, z):
        return np.exp(-self.alpha * np.log(1.0 - z))

    def _deriv(self, z):
        return _weighted_sum(
            z, ((self.alpha, np.exp(-(self.alpha + 1.0) * np.log(1.0 - z))),))

    def _polar(self, r):
        chord = _chord2(1.0 - r, r)
        return lambda theta: chord(theta) ** (-0.5 * self.alpha)

    def features(self):
        return Features(singular_angles=(0.0,), conjugate_symmetric=True)


@dataclass(frozen=True)
class CesaroPower(AnalyticFunction):
    """((1 - z^(n+1)) / (1 - z))^(1/alpha), principal branch, alpha > 0."""

    n: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "Cesaro degree"))
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha"))
        if self.n < 0:
            raise ValueError("Cesaro degree must be nonnegative")
        if not self.alpha > 0:
            raise ValueError("Cesaro power needs alpha > 0")

    @cached_property
    def _inner(self) -> TaylorPolynomial:
        return TaylorPolynomial((1.0,) * (self.n + 1))  # sum_{k<=n} z^k

    def _eval(self, z):
        return _principal_power(self._inner._eval(z), 1.0 / self.alpha)

    def _deriv(self, z):
        inner, e = self._inner, 1.0 / self.alpha
        return e * _principal_power(inner._eval(z), e - 1.0) * inner._deriv(z)

    def _polar(self, r):
        # |1 - z^m|^2 / |1 - z|^2 with m = n + 1, both in the stable chord
        # form and 1 - r^m from expm1, so the removable point z = 1 keeps
        # full accuracy
        m = self.n + 1
        with np.errstate(divide="ignore"):
            one_minus = -np.expm1(m * np.log(r))
        num = _chord2(one_minus, r ** m)
        den = _chord2(1.0 - r, r)
        return lambda theta: (num(m * theta) / den(theta)) ** (0.5 / self.alpha)

    def features(self):
        return Features(singular_angles=(0.0,), top_exponent=self.n,
                        conjugate_symmetric=True)


@dataclass(frozen=True)
class Lacunary(_Series, AnalyticFunction):
    """sum_k a_k z^(n_k) over strictly increasing exponents n_k >= 1."""

    nodes: tuple  # of (exponent, coefficient)

    def __post_init__(self):
        nodes = tuple((_integer(n, "lacunary exponent"),
                       _complex(a, "lacunary coefficient"))
                      for n, a in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if not nodes:
            raise ValueError("lacunary series needs at least one node")
        if nodes[0][0] < 1:
            raise ValueError("lacunary exponents must be positive integers")
        for (prev, _), (n, _) in zip(nodes, nodes[1:]):
            if n <= prev:
                raise ValueError(
                    f"lacunary exponents must increase strictly ({prev} -> {n})")

    def _terms(self):
        return tuple(zip(*self.nodes))


@dataclass(frozen=True)
class RationalBump(AnalyticFunction):
    """eps / (z e^(-i theta0) - a)^2 with the pole a e^(i theta0) outside the disc."""

    eps: float
    a: float
    theta0: float

    def __post_init__(self):
        for name in ("eps", "a", "theta0"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not self.eps > 0:
            raise ValueError("bump height eps must be positive")
        if not self.a > 1:
            raise ValueError("bump pole must lie strictly outside the closed disc")

    def _eval(self, z):
        return self.eps / (z * np.exp(-1j * self.theta0) - self.a) ** 2

    def _deriv(self, z):
        phase = np.exp(-1j * self.theta0)
        return -2.0 * self.eps * phase / (z * phase - self.a) ** 3

    def _polar(self, r):
        chord = _chord2(self.a - r, self.a * r)
        return lambda theta: self.eps / chord(theta - self.theta0)

    def features(self):
        return Features(singular_angles=(self.theta0,), conjugate_symmetric=(
            self.theta0 % (2.0 * np.pi) == 0.0))


@dataclass(frozen=True)
class Scaled(AnalyticFunction):
    """f(r z) for a dilation factor r in (0, 1]."""

    inner: AnalyticFunction
    r: float

    def __post_init__(self):
        _function(self.inner, "inner")
        object.__setattr__(self, "r", _real(self.r, "dilation factor"))
        if not 0 < self.r <= 1:
            raise DomainError("dilation factor must lie in (0, 1]")

    def _eval(self, z):
        return self.inner._eval(self.r * z)

    def _deriv(self, z):
        return self.r * self.inner._deriv(self.r * z)

    def _polar(self, r):
        return self.inner.polar_kernel(self.r * r)

    def features(self):
        return self.inner.features()


@dataclass(frozen=True)
class Sum(AnalyticFunction):
    """sum_k weights[k] * f_k."""

    terms: tuple  # of (weight, AnalyticFunction)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(
            (_complex(c, "Sum weight"), _function(f, "Sum term"))
            for c, f in self.terms))

    def _eval(self, z):
        return _weighted_sum(z, ((c, g._eval(z)) for c, g in self.terms))

    def _deriv(self, z):
        return _weighted_sum(z, ((c, g._deriv(z)) for c, g in self.terms))

    def features(self):
        parts = [(c, g.features()) for c, g in self.terms]
        return Features(
            # first-seen order, without repeats
            tuple(dict.fromkeys(t for _, x in parts
                                for t in x.singular_angles)),
            max((x.top_exponent for _, x in parts), default=0),
            all(c.imag == 0.0 and x.conjugate_symmetric for c, x in parts))


# -- operations ------------------------------------------------------------------

def evaluate(f: AnalyticFunction, z) -> complex | np.ndarray:
    """Evaluate f at z (scalar or array), all points strictly inside the disc."""
    arr = np.asarray(z, dtype=complex)
    _check_inside(arr)
    out = f._eval(arr)
    return complex(out) if np.isscalar(z) or arr.ndim == 0 else out


def derivative_at(f: AnalyticFunction, z) -> complex | np.ndarray:
    """f'(z) by closed-form differentiation of the representation."""
    arr = np.asarray(z, dtype=complex)
    _check_inside(arr)
    out = f._deriv(arr)
    return complex(out) if np.isscalar(z) or arr.ndim == 0 else out


def dilate(f: AnalyticFunction, r: float) -> AnalyticFunction:
    """The dilation z -> f(r z); dilate(f, 1) is f itself."""
    if not 0 < r <= 1:
        raise DomainError("dilation factor must lie in (0, 1]")
    if r == 1:
        return f
    if isinstance(f, Scaled):
        return Scaled(f.inner, f.r * r)
    return Scaled(f, r)


# -- JSON round trip ---------------------------------------------------------

_REPRESENTATIONS = {cls.__name__: cls
                    for cls in AnalyticFunction.__subclasses__()}
# A spec nests at most this many JSON objects and arrays, its own object
# included: Scaled(Scaled(z)) takes three, and each Sum level three (the
# terms array, a [weight, term] pair and the term).  The decoder walks the
# spec on a stack of its own, so this is the only limit on the depth,
# however deep the caller's stack already is.
_SPEC_DEPTH = 100
# what the decoder reads from a spec whose values are all decoded
_DONE = object()


def _encode(v):
    if isinstance(v, AnalyticFunction):
        return to_spec(v)
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, tuple):
        return [_encode(x) for x in v]
    return v


def to_spec(f: AnalyticFunction) -> dict:
    """A JSON-ready dict with a ``repr`` discriminator; round trip is lossless.

    The discriminator is the class name and fields keep their names; complex numbers become [re, im] pairs, tuples
    become lists and nested representations become nested specs.
    """
    return {"repr": type(f).__name__,
            **{fld.name: _encode(getattr(f, fld.name)) for fld in fields(f)}}


def from_spec(d: dict) -> AnalyticFunction:
    """Inverse of :func:`to_spec`; a malformed spec raises ValueError, and
    so does one that nests more than ``_SPEC_DEPTH`` objects and arrays.

    Each open object or array is one entry of an explicit stack, so
    decoding takes no Python frame per level.  A field value is a nested
    spec, an array (decoded as a tuple) or a scalar; an object is built once
    all its fields are decoded."""
    stack = [_spec_entry(d)]
    while True:
        cls, keys, todo, done = stack[-1]
        child = next(todo, _DONE)
        if child is _DONE:
            stack.pop()
            value = tuple(done) if cls is None else _build(cls, keys, done)
            if not stack:
                return value
            stack[-1][3].append(value)
        elif not isinstance(child, (dict, list)):
            done.append(child)
        elif len(stack) >= _SPEC_DEPTH:
            raise ValueError("function spec nested too deeply to decode (more "
                             f"than {_SPEC_DEPTH} objects and arrays)")
        elif isinstance(child, list):
            stack.append((None, None, iter(child), []))
        else:
            stack.append(_spec_entry(child))


def _spec_entry(d) -> tuple:
    """The decoder's stack entry for the spec ``d``: (its class, its field
    names, an iterator over their values, the values decoded so far); an
    array's entry has no class and no names."""
    try:
        cls = _REPRESENTATIONS[d["repr"]]
    except (TypeError, KeyError):
        raise ValueError("function spec needs a 'repr' field naming one of "
                         f"{sorted(_REPRESENTATIONS)}") from None
    keys = [k for k in d if k != "repr"]
    return cls, keys, iter([d[k] for k in keys]), []


def _build(cls, keys: list, values: list) -> AnalyticFunction:
    try:
        return cls(**dict(zip(keys, values)))
    except (TypeError, KeyError, OverflowError) as exc:
        raise ValueError(f"malformed {cls.__name__} spec: {exc}") from None
