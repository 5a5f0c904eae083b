"""Witness function families with exact parameter formulas.

Covers the boundary power singularities, Cesaro-sum powers, the bump-sum
construction embedding bounded sequences into the sup-mixed-norm space
(parameter sequences r_k = 2^-(k+1), a_k = 1 + 14^-(k+1), explicit heights
eps_k, and pole angles theta_k spreading the bumps along disjoint discs),
and the wedge-supported density whose projection blows up at the boundary.

The embedding parameters satisfy exact side conditions (pairwise disjoint
discs, a summable height-to-radius ratio, a normalisation integral equal to
one).  Construction verifies all of them; the disjointness margins shrink
like r_k^3, far below double precision for larger k, so that check runs in
high-precision arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .functions import (
    AnalyticFunction,
    CesaroPower,
    PowerSingularity,
    RationalBump,
    Sum,
)

__all__ = [
    "EmbeddingParams",
    "ProjectionBlowupDensity",
    "cesaro_power",
    "embedding_function",
    "embedding_params",
    "embedding_tail_bound",
    "in_stolz_wedge",
    "normalization_integral",
    "power_singularity",
    "projection_blowup_density",
]


def power_singularity(alpha: float) -> PowerSingularity:
    """(1-z)^(-alpha); lies in the (p, q) space iff alpha < 1/p + 1/q."""
    return PowerSingularity(alpha)


def cesaro_power(n: int, alpha: float) -> CesaroPower:
    """(sum_{k<=n} z^k)^(1/alpha); grows like log^(1/q)(n) in norm when
    1/p + 1/q = 1/alpha."""
    return CesaroPower(n, alpha)


def _eps_log(k: int, p: float) -> float:
    """log eps_k, overflow-safe for any k."""
    t = (k + 1) * (2.0 * p - 1.0)
    log_pow_minus_one = t * math.log(7.0) + math.log1p(-(7.0 ** -t))
    return (math.log(2.0 * p - 1.0) / p
            - (k + 1) * (2.0 - 1.0 / p) * math.log(2.0)
            - log_pow_minus_one / p)


def embedding_tail_bound(p: float, start: int) -> float:
    """Geometric bound on sum_{k >= start} eps_k / r_k^2 (ratio 2/7)."""
    return (7.0 / 15.0) * (2.0 * p - 1.0) ** (1.0 / p) * (2.0 / 7.0) ** start


@dataclass(frozen=True)
class EmbeddingParams:
    """The finite sections of the bump-sum embedding construction.

    r, a are also carried as exact rationals; eps uses floats (it involves
    p-th roots) with relative error at the double-precision level.
    """

    p: float
    count: int
    r: tuple
    a: tuple
    eps: tuple
    theta: tuple
    r_exact: tuple
    a_exact: tuple

    def height_ratio_sum(self) -> float:
        """sum_{k < count} eps_k / r_k^2 (the sequence-norm loss factor)."""
        return float(sum(e / rr ** 2 for e, rr in zip(self.eps, self.r)))

    def height_ratio_total_bound(self) -> float:
        """Partial sum plus the geometric tail bound for the full series."""
        return self.height_ratio_sum() + embedding_tail_bound(self.p, self.count)

    def disc_margins(self, digits: int = 50) -> list:
        """min over pairs j < k of |c_j - c_k| - (r_j + r_k), per k.

        Computed in ``digits``-digit arithmetic: consecutive margins decay
        like r_k^3 and drown in double precision near k = 15.
        """
        with mpmath.workdps(digits):
            rs = [mpmath.mpf(2) ** -(k + 1) for k in range(self.count)]
            aa = [1 + mpmath.mpf(14) ** -(k + 1) for k in range(self.count)]
            th = []
            acc = mpmath.mpf(0)
            for k in range(self.count):
                th.append(mpmath.asin(rs[k]) + 2 * acc)
                acc += mpmath.asin(rs[k])
            centers = [aa[k] * mpmath.exp(1j * th[k]) for k in range(self.count)]
            margins = []
            for k in range(1, self.count):
                m = min(
                    abs(centers[j] - centers[k]) - (rs[j] + rs[k])
                    for j in range(k)
                )
                margins.append(float(m))
        return margins


def normalization_integral(params: EmbeddingParams, k: int) -> float:
    """int_{a_k - r_k}^1 eps_k^p / (a_k - r)^(2p) dr via the antiderivative.

    Equals 1 exactly; evaluated in floats as an end-to-end check of the
    parameter formulas.
    """
    p = params.p
    eps_p = math.exp(p * _eps_log(k, p))
    a1 = float(params.a_exact[k] - 1)          # 14^-(k+1)
    rk = float(params.r_exact[k])
    return eps_p / (2.0 * p - 1.0) * (a1 ** (1.0 - 2.0 * p) - rk ** (1.0 - 2.0 * p))


def embedding_params(p: float, count: int, verify: bool = True) -> EmbeddingParams:
    """The exact parameter sequences for the first ``count`` bumps.

    With ``verify`` (the default) the construction-time invariants are
    checked and a failure raises; they are regression guards and should
    never fire.
    """
    if p < 1:
        raise ValueError("the construction needs p >= 1")
    if count < 1:
        raise ValueError("need at least one bump")
    r_exact = tuple(Fraction(1, 2 ** (k + 1)) for k in range(count))
    a_exact = tuple(1 + Fraction(1, 14 ** (k + 1)) for k in range(count))
    eps = tuple(math.exp(_eps_log(k, p)) for k in range(count))
    theta = []
    acc = 0.0
    for k in range(count):
        theta.append(math.asin(float(r_exact[k])) + 2.0 * acc)
        acc += math.asin(float(r_exact[k]))
    params = EmbeddingParams(
        p=float(p), count=count,
        r=tuple(float(x) for x in r_exact),
        a=tuple(float(x) for x in a_exact),
        eps=eps, theta=tuple(theta),
        r_exact=r_exact, a_exact=a_exact,
    )
    if verify:
        if not params.height_ratio_total_bound() < 1.0:
            raise AssertionError("height/radius^2 series reached 1")
        if not all(abs(t) < math.pi for t in theta):
            raise AssertionError("a pole angle left (-pi, pi)")
        if min(params.disc_margins()) <= 0.0:
            raise AssertionError("bump discs overlap")
        for k in range(count):
            if abs(normalization_integral(params, k) - 1.0) > 1e-10:
                raise AssertionError(f"bump {k} normalisation off")
    return params


def embedding_function(params: EmbeddingParams, alphas) -> AnalyticFunction:
    """sum_k alphas[k] * bump_k, a finite section of the sequence embedding."""
    alphas = [complex(a) for a in alphas]
    if len(alphas) > params.count:
        raise ValueError(
            f"{len(alphas)} coefficients but only {params.count} bumps")
    terms = tuple(
        (alphas[k], RationalBump(params.eps[k], params.a[k], params.theta[k]))
        for k in range(len(alphas))
    )
    return Sum(terms)


# -- the boundary wedge and the projection blow-up density -------------------

def in_stolz_wedge(z: complex) -> bool:
    """Membership in the wedge {r e^(i t) : 0 < t < 1/2, 0 < r < 1 - 2t}."""
    z = complex(z)
    r = abs(z)
    t = math.atan2(z.imag, z.real)
    return 0.0 < t < 0.5 and 0.0 < r < 1.0 - 2.0 * t


class ProjectionBlowupDensity:
    """The wedge-supported density whose projection blows up radially.

    On the wedge the value at r e^(i t) is t^(2 - 1/p) K(1 - t, r e^(-i t))
    with K the Bergman kernel; zero elsewhere.  This is a bounded-angular,
    p-integrable-radial density, not an analytic function, so it is exposed
    as a plain sampler.  Along every ray the p-integral is at most
    2 / (2p - 1).
    """

    def __init__(self, p: float):
        if not 1.0 < p < math.inf:
            raise ValueError("the witness needs 1 < p < inf")
        self.p = float(p)
        self.alpha = 2.0 - 1.0 / self.p

    def ray_integral_bound(self) -> float:
        return 2.0 / (2.0 * self.p - 1.0)

    def __call__(self, r, theta) -> np.ndarray:
        """Vectorised sampler over polar coordinates."""
        r = np.asarray(r, dtype=float)
        t = np.mod(np.asarray(theta, dtype=float), 2.0 * np.pi)
        r, t = np.broadcast_arrays(r, t)
        inside = (t > 0.0) & (t < 0.5) & (r > 0.0) & (r < 1.0 - 2.0 * t)
        out = np.zeros(r.shape, dtype=complex)
        if np.any(inside):
            ti = t[inside]
            ri = r[inside]
            # K(1 - t, r e^(-i t)) = (1 - (1-t) r e^(i t))^(-2)
            out[inside] = ti ** self.alpha / (1.0 - (1.0 - ti) * ri * np.exp(1j * ti)) ** 2
        return out


def projection_blowup_density(p: float) -> ProjectionBlowupDensity:
    return ProjectionBlowupDensity(p)
