"""Analytic-function representations on the unit disc.

Monomials, Taylor polynomials, boundary power singularities (1-z)^(-alpha),
Cesaro-sum powers, lacunary series, rational bump functions with a pole just
outside the disc, dilations and finite linear combinations.  Each
representation is one frozen dataclass deriving from
:class:`AnalyticFunction`, and that class is the only place that knows it:
``__post_init__`` coerces and validates the fields, and the methods give the
evaluation, the closed-form derivative, the rotation and the singular
boundary directions.  The JSON spec is derived from the dataclass fields, so
adding a representation means adding one class.  Everything is immutable and
every operation is pure, so values can be shared freely between workers.

Evaluation is vectorised over numpy arrays of points.  The norm quadratures
need only the modulus on a polar grid of angles x radii, which
``AnalyticFunction.abs_on_polar`` returns.  A representation may add a
modulus kernel for it (``_abs_polar``): real arithmetic in r and theta that
never forms the complex point.  Without one, the modulus of ``_eval`` at
the points r e^(i theta) is used, so a new class needs no kernel to be
correct.  Differentiation uses the closed form of each representation; an
independent contour-quadrature fallback (``cauchy_derivative``) is provided
for cross-checking.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "AnalyticFunction",
    "BranchCutError",
    "CesaroPower",
    "DomainError",
    "Lacunary",
    "Monomial",
    "PowerSingularity",
    "RationalBump",
    "Scaled",
    "Sum",
    "TaylorPolynomial",
    "cauchy_derivative",
    "derivative_at",
    "dilate",
    "evaluate",
    "from_spec",
    "rotate",
    "taylor_coefficients",
    "to_spec",
]


class DomainError(ValueError):
    """Evaluation requested outside the open unit disc."""


class BranchCutError(ArithmeticError):
    """A principal-branch power hit the negative real axis."""


# Switch from the ratio form of the Cesaro sum to an explicit Horner sum;
# below this distance from z = 1 the ratio form loses ~1e-10 relative.
_CESARO_RATIO_CUTOFF = 1e-6


def _check_inside(z: np.ndarray) -> None:
    if np.any(np.abs(z) >= 1.0):
        worst = np.max(np.abs(z))
        raise DomainError(f"point outside the open unit disc (|z| = {worst})")


def _cesaro_sum(n: int, z: np.ndarray) -> np.ndarray:
    """sum_{k<=n} z^k, stable across the removable point z = 1."""
    out = np.empty_like(z)
    near = np.abs(1.0 - z) < _CESARO_RATIO_CUTOFF
    far = ~near
    if np.any(far):
        zf = z[far]
        out[far] = (1.0 - zf ** (n + 1)) / (1.0 - zf)
    if np.any(near):
        zn = z[near]
        acc = np.ones_like(zn)
        for _ in range(n):
            acc = acc * zn + 1.0
        out[near] = acc
    return out


def _principal_power(w: np.ndarray, exponent: float) -> np.ndarray:
    # The Cesaro sum of points in the open disc never touches the cut
    # (numerator and denominator both live in the right half-plane), so
    # this guard is a regression check, not a reachable branch.
    on_cut = (w.real <= 0.0) & (w.imag == 0.0)
    if np.any(on_cut):
        raise BranchCutError("principal-branch power evaluated on the cut")
    return np.exp(exponent * np.log(w))


def _series_abs(exponents, coeffs, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """|sum_k coeffs[k] (r e^(i theta))^exponents[k]| on theta x r.

    One matrix product of the (T x K) phases e^(i n_k theta) with the
    (K x R) radial terms a_k r^(n_k).
    """
    n = np.asarray(exponents, dtype=float)
    radial = np.asarray(coeffs, dtype=complex)[:, None] * r[None, :] ** n[:, None]
    return np.abs(np.exp(1j * np.outer(theta, n)) @ radial)


def _chord2(diff: np.ndarray, prod: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """|a - b e^(i phi)|^2 on phi x (a, b) for a, b >= 0, from diff = a - b
    and prod = a b.

    The form (a - b)^2 + 4 a b sin^2(phi / 2) keeps full relative accuracy
    where b e^(i phi) approaches a; a^2 - 2 a b cos(phi) + b^2 cancels there.
    """
    return diff[None, :] ** 2 + 4.0 * prod[None, :] * np.sin(0.5 * phi)[:, None] ** 2


# -- field coercion ------------------------------------------------------------

def _integer(x, what: str) -> int:
    """x as an int; floats (even integral ones), bools and strings are refused."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _real(x, what: str) -> float:
    """x as a finite float; bools, strings and non-finite values are refused.

    An int beyond the float range raises OverflowError.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Real) \
            or not math.isfinite(x):
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

class AnalyticFunction:
    """Base of the representations.

    Every subclass is a frozen dataclass defining ``_eval`` and ``_deriv``:
    the values and the closed-form derivative at an array of points already
    checked to lie inside the disc.  A subclass may override ``_abs_polar``
    with a modulus kernel.
    """

    def abs_on_polar(self, r, theta) -> np.ndarray:
        """|f(r e^(i theta))| on the grid theta x r, one row per angle.

        ``r`` and ``theta`` are 1-d arrays; every radius must lie in [0, 1).
        """
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        outside = ~((r >= 0.0) & (r < 1.0))
        if np.any(outside):
            raise DomainError(f"polar radius outside [0, 1) (r = {r[outside][0]})")
        return self._abs_polar(r, theta)

    def _abs_polar(self, r, theta):
        """The modulus kernel, for radii already checked; |_eval| by default."""
        return np.abs(self._eval(r[None, :] * np.exp(1j * theta[:, None])))

    def rotate(self, phi: float) -> "AnalyticFunction":
        """The rotation z -> f(e^(i phi) z), for representations that support it."""
        raise ValueError(f"{type(self).__name__} has no rotated representation")

    def singular_angles(self) -> tuple:
        """Boundary directions along which the radial profile can peak.

        Power singularities and Cesaro powers concentrate at angle 0; a
        rational bump concentrates at its pole direction.  Supremum-type
        norms seed their angular sample set with these directions.
        """
        return ()


@dataclass(frozen=True)
class Monomial(AnalyticFunction):
    """z^n."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "monomial degree"))
        if self.n < 0:
            raise ValueError("monomial degree must be nonnegative")

    def _eval(self, z):
        return z ** self.n

    def _deriv(self, z):
        if self.n == 0:
            return np.zeros_like(z)
        return self.n * z ** (self.n - 1)

    def _abs_polar(self, r, theta):
        return np.tile(r ** self.n, (len(theta), 1))

    def rotate(self, phi):
        return Sum(((complex(np.exp(1j * phi)) ** self.n, self),))


@dataclass(frozen=True)
class TaylorPolynomial(AnalyticFunction):
    """sum_k coeffs[k] z^k."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(
            _complex(c, "Taylor coefficient") for c in self.coeffs))

    def _eval(self, z):
        acc = np.zeros_like(z)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def _deriv(self, z):
        acc = np.zeros_like(z)
        for k in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * z + k * self.coeffs[k]
        return acc

    def _abs_polar(self, r, theta):
        return _series_abs(range(len(self.coeffs)), self.coeffs, r, theta)

    def rotate(self, phi):
        w = complex(np.exp(1j * phi))
        return TaylorPolynomial(tuple(c * w ** k
                                      for k, c in enumerate(self.coeffs)))


@dataclass(frozen=True)
class PowerSingularity(AnalyticFunction):
    """(1-z)^(-alpha), principal branch; z = 1 is outside the domain."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha"))

    def _eval(self, z):
        return np.exp(-self.alpha * np.log(1.0 - z))

    def _deriv(self, z):
        return self.alpha * np.exp(-(self.alpha + 1.0) * np.log(1.0 - z))

    def _abs_polar(self, r, theta):
        return _chord2(1.0 - r, r, theta) ** (-0.5 * self.alpha)

    def singular_angles(self):
        return (0.0,)


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

    def _eval(self, z):
        return _principal_power(_cesaro_sum(self.n, z), 1.0 / self.alpha)

    def _deriv(self, z):
        w = _cesaro_sum(self.n, z)
        dw = np.zeros_like(z)
        for k in range(self.n, 0, -1):
            dw = dw * z + k  # Horner for sum k z^(k-1)
        return (1.0 / self.alpha) * _principal_power(w, 1.0 / self.alpha - 1.0) * dw

    def _abs_polar(self, r, theta):
        # |1 - z^m|^2 / |1 - z|^2 with m = n + 1, both in the stable chord
        # form and 1 - r^m from expm1, so the removable point z = 1 keeps
        # full accuracy
        m = self.n + 1
        with np.errstate(divide="ignore"):
            one_minus = -np.expm1(m * np.log(r))
        num = _chord2(one_minus, r ** m, m * theta)
        return (num / _chord2(1.0 - r, r, theta)) ** (0.5 / self.alpha)

    def singular_angles(self):
        return (0.0,)


@dataclass(frozen=True)
class Lacunary(AnalyticFunction):
    """sum_k a_k z^(n_k) for a strictly lacunary exponent sequence."""

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
                    f"exponents must grow by a ratio > 1 ({prev} -> {n})")

    def _eval(self, z):
        acc = np.zeros_like(z)
        for n, a in self.nodes:
            acc = acc + a * z ** n
        return acc

    def _deriv(self, z):
        acc = np.zeros_like(z)
        for n, a in self.nodes:
            acc = acc + a * n * z ** (n - 1)
        return acc

    def _abs_polar(self, r, theta):
        exponents, coeffs = zip(*self.nodes)
        return _series_abs(exponents, coeffs, r, theta)

    def rotate(self, phi):
        w = complex(np.exp(1j * phi))
        return Lacunary(tuple((n, a * w ** n) for n, a in self.nodes))


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

    def _abs_polar(self, r, theta):
        return self.eps / _chord2(self.a - r, self.a * r, theta - self.theta0)

    def rotate(self, phi):
        return RationalBump(self.eps, self.a, self.theta0 - phi)

    def singular_angles(self):
        return (self.theta0,)


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

    def _abs_polar(self, r, theta):
        return self.inner.abs_on_polar(self.r * r, theta)

    def rotate(self, phi):
        return Scaled(self.inner.rotate(phi), self.r)

    def singular_angles(self):
        return self.inner.singular_angles()


@dataclass(frozen=True)
class Sum(AnalyticFunction):
    """sum_k weights[k] * f_k."""

    terms: tuple  # of (weight, AnalyticFunction)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(
            (_complex(c, "Sum weight"), _function(f, "Sum term"))
            for c, f in self.terms))

    def _eval(self, z):
        acc = np.zeros_like(z)
        for c, g in self.terms:
            acc = acc + c * g._eval(z)
        return acc

    def _deriv(self, z):
        acc = np.zeros_like(z)
        for c, g in self.terms:
            acc = acc + c * g._deriv(z)
        return acc

    def rotate(self, phi):
        return Sum(tuple((c, g.rotate(phi)) for c, g in self.terms))

    def singular_angles(self):
        # first-seen order, without repeats
        return tuple(dict.fromkeys(
            t for _, g in self.terms for t in g.singular_angles()))


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


def cauchy_derivative(f: AnalyticFunction, z: complex, tol: float = 1e-10) -> complex:
    """f'(z) by trapezoid quadrature of the Cauchy integral.

    The contour is the circle of radius (1 - |z|)/2 about z; the node count
    starts at 64 and doubles until two successive estimates agree to ``tol``.
    Used as the fallback and as an independent check on ``derivative_at``.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("contour centre must lie inside the disc")
    s = 0.5 * (1.0 - abs(z))
    m = 64
    prev = None
    for _ in range(10):
        t = 2.0 * np.pi * np.arange(m) / m
        ring = z + s * np.exp(1j * t)
        est = complex(np.mean(f._eval(ring) * np.exp(-1j * t)) / s)
        if prev is not None and abs(est - prev) <= tol * max(1.0, abs(est)):
            return est
        prev = est
        m *= 2
    return est


def taylor_coefficients(f: AnalyticFunction, count: int, r: float) -> list:
    """Taylor coefficients a_0..a_count from circle samples at radius r.

    a_n = r^(-n) (2 pi)^(-1) int f(r e^(i t)) e^(-i n t) dt, computed by the
    uniform trapezoid rule via the FFT with at least 4 (count + 1) nodes.
    The count is raised until the aliasing bias r^m drops below 1e-13, so
    reported coefficients do not depend on the sampling radius.
    """
    if not 0 < r < 1:
        raise DomainError("sampling radius must lie in (0, 1)")
    anti_alias = int(math.ceil(-30.0 / math.log10(r))) if r > 0.05 else 8
    m = min(max(4 * (count + 1), anti_alias, 64), 1 << 20)
    t = 2.0 * np.pi * np.arange(m) / m
    vals = f._eval(r * np.exp(1j * t))
    coeff = np.fft.fft(vals) / m
    return [complex(coeff[n] / r ** n) for n in range(count + 1)]


def dilate(f: AnalyticFunction, r: float) -> AnalyticFunction:
    """The dilation z -> f(r z); dilate(f, 1) is f itself."""
    if not 0 < r <= 1:
        raise DomainError("dilation factor must lie in (0, 1]")
    if r == 1:
        return f
    if isinstance(f, Scaled):
        return Scaled(f.inner, f.r * r)
    return Scaled(f, r)


def rotate(f: AnalyticFunction, phi: float) -> AnalyticFunction:
    """The rotation z -> f(e^(i phi) z), for representations that support it."""
    return f.rotate(phi)


# -- JSON round trip ---------------------------------------------------------

_REPRESENTATIONS = {cls.__name__: cls
                    for cls in AnalyticFunction.__subclasses__()}


def _encode(v):
    if isinstance(v, AnalyticFunction):
        return to_spec(v)
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, tuple):
        return [_encode(x) for x in v]
    return v


def _decode(v):
    if isinstance(v, dict):
        return from_spec(v)
    if isinstance(v, list):
        return tuple(_decode(x) for x in v)
    return v


def to_spec(f: AnalyticFunction) -> dict:
    """A JSON-ready dict with a ``repr`` discriminator; round trip is lossless.

    The discriminator is the class name and fields keep their names; complex numbers become [re, im] pairs, tuples
    become lists and nested representations become nested specs.
    """
    return {"repr": type(f).__name__,
            **{fld.name: _encode(getattr(f, fld.name)) for fld in fields(f)}}


def from_spec(d: dict) -> AnalyticFunction:
    """Inverse of :func:`to_spec`; a malformed spec raises ValueError."""
    try:
        kind = d["repr"]
        cls = _REPRESENTATIONS[kind]
    except (TypeError, KeyError):
        raise ValueError("function spec needs a 'repr' field naming one of "
                         f"{sorted(_REPRESENTATIONS)}") from None
    try:
        return cls(**{k: _decode(v) for k, v in d.items() if k != "repr"})
    except (TypeError, KeyError, OverflowError) as exc:
        raise ValueError(f"malformed {kind} spec: {exc}") from None
