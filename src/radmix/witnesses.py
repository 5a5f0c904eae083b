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
from functools import cached_property
from itertools import accumulate

import numpy as np

from .functions import (
    AnalyticFunction,
    CesaroPower,
    PowerSingularity,
    RationalBump,
    Sum,
    _integer,
    _real,
)

__all__ = [
    "EmbeddingParams",
    "ProjectionBlowupDensity",
    "cesaro_power",
    "embedding_function",
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


# up to this count the disc margins, about 3 r_k^3 / 8, stay normal floats
_MAX_BUMPS = 340


@dataclass(frozen=True)
class EmbeddingParams:
    """The first ``count`` bumps of the embedding construction at exponent p.

    ``r``, ``a``, ``eps`` and ``theta`` are derived: r and a rounded from
    their exact rationals, eps in floats (it involves p-th roots) with
    relative error at the double-precision level.  Bad inputs or a failed
    side condition (summable height ratios, pole angles in (-pi, pi), unit
    normalisation, disjoint discs) raise ``ValueError``.
    """

    p: float
    count: int

    def __post_init__(self):
        p, count = _real(self.p, "exponent p"), _integer(self.count, "bump count")
        if not (p >= 1.0 and 1 <= count <= _MAX_BUMPS):
            raise ValueError(f"the construction needs p >= 1 and 1 <= count <= "
                             f"{_MAX_BUMPS}, got p = {p}, count = {count}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "count", count)
        if not self.height_ratio_total_bound() < 1.0:
            raise ValueError("height/radius^2 series reached 1")
        if not all(abs(t) < math.pi for t in self.theta):
            raise ValueError("a pole angle left (-pi, pi)")
        for k in range(count):
            # the log-sum in normalization_integral has terms up to
            # |p log eps_k| + (k+1)(2p-1) log 14, and its rounding (0.5 to
            # 1.25 ulp of that size) outgrows 1e-10 for large p and k
            size = (p * abs(_eps_log(k, p))
                    + (k + 1) * (2.0 * p - 1.0) * math.log(14.0))
            tol = max(1e-10, 4.0 * 2.0 ** -53 * size)
            if not abs(normalization_integral(self, k) - 1.0) <= tol:
                raise ValueError(f"bump {k} normalisation off")
        if not all(m > 0.0 for m in self.disc_margins()):
            raise ValueError("bump discs overlap")

    @cached_property
    def r(self) -> tuple:
        return tuple(math.ldexp(1.0, -(k + 1)) for k in range(self.count))

    @cached_property
    def a(self) -> tuple:
        return tuple((14 ** (k + 1) + 1) / 14 ** (k + 1) for k in range(self.count))

    @cached_property
    def eps(self) -> tuple:
        return tuple(math.exp(_eps_log(k, self.p)) for k in range(self.count))

    @cached_property
    def theta(self) -> tuple:
        s = [math.asin(rk) for rk in self.r]
        return tuple(sk + 2.0 * acc for sk, acc in zip(s, accumulate(s, initial=0.0)))

    def height_ratio_sum(self) -> float:
        """sum_{k < count} eps_k / r_k^2 (the sequence-norm loss factor)."""
        return float(sum(e / rr ** 2 for e, rr in zip(self.eps, self.r)))

    def height_ratio_total_bound(self) -> float:
        """Partial sum plus the geometric tail bound for the full series."""
        return self.height_ratio_sum() + embedding_tail_bound(self.p, self.count)

    def disc_margins(self) -> list:
        """min over pairs j < k of |c_j - c_k| - (r_j + r_k), per k.

        Consecutive margins decay like r_k^3 (0.9 digits per bump) and drown
        in double precision near k = 15, so they are computed with 30 digits
        to spare beyond ``count``.
        """
        # imported here: mpmath adds about 3.7 MB of resident memory to every
        # process that imports radmix, and only this check uses it
        import mpmath

        with mpmath.workdps(self.count + 30):
            rs = [mpmath.mpf(2) ** -(k + 1) for k in range(self.count)]
            aa = [1 + mpmath.mpf(14) ** -(k + 1) for k in range(self.count)]
            sn = [mpmath.asin(x) for x in rs]
            th = [x + 2 * acc for x, acc in zip(sn, accumulate(sn, initial=0))]
            centers = [aa[k] * mpmath.exp(1j * th[k]) for k in range(self.count)]
            return [float(min(abs(centers[j] - centers[k]) - (rs[j] + rs[k])
                              for j in range(k)))
                    for k in range(1, self.count)]


def normalization_integral(params: EmbeddingParams, k: int) -> float:
    """int_{a_k - r_k}^1 eps_k^p / (a_k - r)^(2p) dr via the antiderivative.

    Equals 1 exactly; evaluated in logarithms (the antiderivative's powers
    overflow a float) as an end-to-end check of the parameter formulas.
    """
    p = params.p
    t = (k + 1) * (2.0 * p - 1.0)
    # with a_k - 1 = 14^-(k+1) and r_k = 2^-(k+1) the antiderivative's
    # bracket (a_k - 1)^(1-2p) - r_k^(1-2p) is 14^t (1 - 7^-t)
    log_value = (p * _eps_log(k, p) - math.log(2.0 * p - 1.0)
                 + t * math.log(14.0) + math.log1p(-(7.0 ** -t)))
    return math.exp(min(log_value, 700.0))  # a huge p can round past exp's range


def embedding_function(params: EmbeddingParams, alphas) -> AnalyticFunction:
    """sum_k alphas[k] * bump_k, a finite section of the sequence embedding.
    At most 13 bumps: a_k = 1 + 14^-(k+1) rounds to 1.0 from k = 13 on."""
    alphas = [complex(a) for a in alphas]
    if len(alphas) > min(params.count, 13):
        raise ValueError(
            f"{len(alphas)} coefficients for {params.count} bumps; at most 13 "
            "fit in floats: a_k = 1 + 14^-(k+1) rounds to 1.0 from k = 13 on")
    terms = tuple(
        (alphas[k], RationalBump(params.eps[k], params.a[k], params.theta[k]))
        for k in range(len(alphas))
    )
    return Sum(terms)


# -- the boundary wedge and the projection blow-up density -------------------

def _in_wedge_polar(r, t):
    """Elementwise membership of r e^(i t) in the wedge below."""
    return (t > 0.0) & (t < 0.5) & (r > 0.0) & (r < 1.0 - 2.0 * t)


def in_stolz_wedge(z):
    """Membership in {r e^(i t) : 0 < t < 1/2, 0 < r < 1 - 2t}, elementwise."""
    z = np.asarray(z, dtype=complex)
    return _in_wedge_polar(np.abs(z), np.angle(z))[()]


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
        inside = _in_wedge_polar(r, t)
        out = np.zeros(r.shape, dtype=complex)
        if np.any(inside):
            ti = t[inside]
            ri = r[inside]
            # K(1 - t, r e^(-i t)) = (1 - (1-t) r e^(i t))^(-2)
            out[inside] = ti ** self.alpha / (1.0 - (1.0 - ti) * ri * np.exp(1j * ti)) ** 2
        return out


def projection_blowup_density(p: float) -> ProjectionBlowupDensity:
    return ProjectionBlowupDensity(p)
