"""Classification predicates and their numerical witness scans.

The inclusion region between two mixed-norm spaces, the single excluded
pair on its boundary, and the compactness criterion are decided exactly in
rational arithmetic.  Each predicate is then confronted with computed-norm
evidence: monomial norm ratios, a boundary power singularity separating the
two spaces, and the Cesaro-power family whose norms grow logarithmically.

A growth scan never returns a silent verdict: a ratio trace is declared
unbounded only when the last three budgeted ratios each exceed the first by
a factor of at least two and are monotone; anything short of a clean signal
is reported as inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exponents import ExponentPair, ExtendedExponent, as_pair
from .functions import (
    AnalyticFunction,
    Monomial,
    PowerSingularity,
    dilate,
    derivative_at,
    evaluate,
)
from .norms import NormEstimate, QuadratureConfig, mixed_norm, radial_integral
from .witnesses import cesaro_power, power_singularity

__all__ = [
    "ExponentFit",
    "InclusionVerdict",
    "WitnessReport",
    "classify_ratio_trace",
    "default_point_family",
    "evaluation_functional_fit",
    "fejer_riesz_ratio",
    "inclusion_is_compact",
    "inclusion_region_contains",
    "inclusion_witness_scan",
    "compactness_witness_scan",
    "noncompactness_witness",
    "nontangential_decay_check",
]

# Monomial ratios grow like a power of n whose exponent can be as small as
# the tightest reciprocal gap on the scan grid (1/4); the growth rule then
# needs n of order 2^10 to trigger, so the budget runs well past that.
MONOMIAL_BUDGET = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
CESARO_BUDGET = (4, 16, 64, 256)


@dataclass
class WitnessReport:
    name: str
    trace: list            # (parameter, ratio-or-value)
    conclusion: str        # bounded | unbounded | separating | inconclusive

    def to_dict(self) -> dict:
        return {"name": self.name, "trace": self.trace,
                "conclusion": self.conclusion}


@dataclass
class InclusionVerdict:
    included: bool
    excluded_point: bool
    witness_report: list = field(default_factory=list)

    def witness_conclusion(self) -> str:
        """'included', 'excluded' or 'inconclusive' from the reports alone."""
        concl = {r.conclusion for r in self.witness_report}
        if "unbounded" in concl or "separating" in concl:
            return "excluded"
        if concl and concl <= {"bounded"}:
            return "included"
        return "inconclusive"

    def agreement(self) -> bool | None:
        """True/False when the scan decided, None when inconclusive."""
        w = self.witness_conclusion()
        if w == "inconclusive":
            return None
        return (w == "included") == self.included


@dataclass
class ExponentFit:
    """Least-squares line through (log-abscissa, log-ordinate) points."""

    slope: float
    intercept: float
    residual: float
    points: list

    @staticmethod
    def fit(points: Sequence[tuple]) -> "ExponentFit":
        pts = [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]
        if len(pts) < 4:
            raise ValueError("an exponent fit needs at least 4 usable points")
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        slope, intercept = np.polyfit(x, y, 1)
        residual = float(np.max(np.abs(y - (slope * x + intercept))))
        return ExponentFit(float(slope), float(intercept), residual, pts)


# -- exact predicates ----------------------------------------------------------

def inclusion_region_contains(p0, q0, p, q) -> tuple:
    """Membership of (p, q) in the inclusion region of (p0, q0).

    Returns (contained, excluded_point): ``excluded_point`` flags the single
    boundary pair (p0 q0 / (p0 + q0), inf) where containment of the region
    does not give inclusion of the spaces.  All comparisons are exact.
    """
    src = ExponentPair.of(p0, q0)
    dst = ExponentPair.of(p, q)
    contained = (dst.reciprocal_sum() >= src.reciprocal_sum()
                 and dst.p <= src.p)
    excluded = False
    if (contained and src.p.is_finite and src.q.is_finite
            and not dst.q.is_finite
            and dst.p.reciprocal() == src.reciprocal_sum()):
        excluded = True
    return contained, excluded


def inclusion_holds(p0, q0, p, q) -> bool:
    contained, excluded = inclusion_region_contains(p0, q0, p, q)
    return contained and not excluded


def inclusion_is_compact(p0, q0, p, q) -> bool:
    """Compactness of the inclusion: strict sum inequality and p < p0."""
    src = ExponentPair.of(p0, q0)
    dst = ExponentPair.of(p, q)
    return (dst.reciprocal_sum() > src.reciprocal_sum()
            and dst.p < src.p and dst.p.is_finite)


# -- ratio-trace classification -------------------------------------------------

def classify_ratio_trace(ratios: Sequence[float]) -> str:
    """'unbounded' needs the last three ratios monotone and >= 2x the first;
    a trace capped below 2x the first is 'bounded'; otherwise 'inconclusive'."""
    vals = [v for v in ratios if math.isfinite(v)]
    if len(vals) < 4:
        return "inconclusive"
    first = vals[0]
    tail = vals[-3:]
    if all(v >= 2.0 * first for v in tail) and tail[0] <= tail[1] <= tail[2]:
        return "unbounded"
    if all(v < 2.0 * first for v in vals[1:]):
        return "bounded"
    return "inconclusive"


class NormCache:
    """Memoised mixed norms keyed by (function key, exponent pair, offset),
    and the point bounds built from them."""

    def __init__(self, cfg: QuadratureConfig):
        self.cfg = cfg
        self._store: dict = {}
        self._point_bounds: dict = {}

    def norm(self, key, f: AnalyticFunction, pq: ExponentPair,
             angle_offset: float = 0.0) -> NormEstimate:
        k = (key, str(pq), angle_offset)
        if k not in self._store:
            self._store[k] = mixed_norm(f, pq, self.cfg,
                                        angle_offset=angle_offset)
        return self._store[k]


def _ratio_trace(cache: NormCache, family, src: ExponentPair,
                 dst: ExponentPair) -> list:
    out = []
    for label, f in family:
        a = cache.norm(label, f, dst).value
        b = cache.norm(label, f, src).value
        out.append((label, a / b if b > 0 and math.isfinite(a + b) else math.inf))
    return out


def inclusion_witness_scan(p0, q0, p, q, cfg: QuadratureConfig,
                           cache: NormCache | None = None) -> InclusionVerdict:
    """Confront the region predicate with computed-norm witnesses.

    Failure through p > p0 is witnessed by monomials, failure of the
    reciprocal-sum inequality by a power singularity strictly between the
    two sums, and the excluded boundary pair by the Cesaro-power family.
    Predicted inclusions are back-checked by ratio boundedness over the
    witness budget.
    """
    src = ExponentPair.of(p0, q0)
    dst = ExponentPair.of(p, q)
    contained, excluded = inclusion_region_contains(p0, q0, p, q)
    cache = cache or NormCache(cfg)
    reports: list = []

    def cesaro_family(alpha: Fraction, budget=CESARO_BUDGET):
        a = float(alpha)
        return [((("ces", n, a)), cesaro_power(n, a)) for n in budget]

    if (contained and not excluded) or (not contained and dst.p > src.p):
        trace = _ratio_trace(
            cache, [(("mon", n), Monomial(n)) for n in MONOMIAL_BUDGET], src, dst)
        reports.append(WitnessReport(
            "monomial", trace, classify_ratio_trace([v for _, v in trace])))
    if not contained and dst.reciprocal_sum() < src.reciprocal_sum():
        alpha = (dst.reciprocal_sum() + src.reciprocal_sum()) / 2
        f = power_singularity(float(alpha))
        key = ("pow", float(alpha))
        in_src = cache.norm(key, f, src)
        in_dst = cache.norm(key, f, dst)
        ok = in_src.converged and not in_dst.converged \
            and in_dst.divergence_exponent is not None \
            and in_dst.divergence_exponent > 0
        reports.append(WitnessReport(
            f"power_singularity[{float(alpha):.4g}]",
            [("source", in_src.value), ("target", in_dst.value)],
            "separating" if ok else "inconclusive"))
    if excluded:
        beta = dst.p
        trace = _ratio_trace(
            cache, cesaro_family(1 / beta.reciprocal(), (16, 32, 64, 128, 256)),
            src, dst)
        concl = classify_ratio_trace([v for _, v in trace])
        # This witness exists to exhibit divergence; a short trace that has
        # not yet cleared the growth bar proves nothing about boundedness.
        if concl == "bounded":
            concl = "inconclusive"
        reports.append(WitnessReport("cesaro_power", trace, concl))
    if contained and not excluded:
        s0 = src.reciprocal_sum()
        if s0 > 0:
            f = power_singularity(float(s0) / 2.0)
            key = ("pow", float(s0) / 2.0)
            a = cache.norm(key, f, dst)
            b = cache.norm(key, f, src)
            both = a.converged and b.converged
            reports.append(WitnessReport(
                f"power_singularity[{float(s0) / 2.0:.4g}]",
                [("source", b.value), ("target", a.value)],
                "bounded" if both else "inconclusive"))
            if src.q.is_finite and src.p.is_finite:
                trace = _ratio_trace(cache, cesaro_family(1 / s0), src, dst)
                reports.append(WitnessReport(
                    "cesaro_power", trace,
                    classify_ratio_trace([v for _, v in trace])))
    return InclusionVerdict(included=contained and not excluded,
                            excluded_point=excluded,
                            witness_report=reports)


def noncompactness_witness(p0, q0, q, n_list: Sequence[int],
                           cfg: QuadratureConfig) -> list:
    """Normalised monomials (n p0 + 1)^(1/p0) z^n: unit norm in the source
    and in the target with the same radial exponent, while decaying to zero
    uniformly on compact subsets.  Returns (n, source norm, target norm,
    sup of |f_n| on |z| <= 1/2)."""
    p0e = ExtendedExponent.of(p0)
    if not p0e.is_finite:
        raise ValueError("the witness family needs a finite source p")
    rows = []
    pf = float(p0e)
    for n in n_list:
        scale = (n * pf + 1.0) ** (1.0 / pf)
        f = Monomial(n)
        src = scale * mixed_norm(f, ExponentPair.of(p0, q0), cfg).value
        dst = scale * mixed_norm(f, ExponentPair.of(p0, q), cfg).value
        small = scale * 0.5 ** n
        rows.append((n, src, dst, small))
    return rows


def compactness_witness_scan(p0, q0, p, q, cfg: QuadratureConfig,
                             cache: NormCache | None = None) -> dict:
    """Numerical evidence for or against compactness of the inclusion.

    Two measurements: the target norms of the normalised monomial family
    (they must decay for a compact inclusion and stay near one when the
    radial exponents coincide), and the ratio of point-evaluation bounds
    between source and target at points approaching the boundary (it must
    vanish for a compact inclusion and stays flat on the equal-sum line).
    """
    src = ExponentPair.of(p0, q0)
    dst = ExponentPair.of(p, q)
    cache = cache or NormCache(cfg)
    # Unit-source-norm monomials; the normalising factor degenerates to 1
    # for a sup-type source.
    mono_vals = []
    for n in (16, 64, 256, 1024):
        if src.p.is_finite:
            pf = float(src.p)
            scale = (n * pf + 1.0) ** (1.0 / pf)
        else:
            scale = 1.0
        mono_vals.append(scale * cache.norm(("mon", n), Monomial(n), dst).value)
    zs = [1.0 - 2.0 ** -k for k in range(3, 9)]
    eta = []
    for z in zs:
        num = _point_bound(cache, src, z)
        den = _point_bound(cache, dst, z)
        eta.append(num / den if den > 0 else math.inf)
    mono_decay = mono_vals[-1] / mono_vals[0] if mono_vals[0] > 0 else math.inf
    eta_decay = eta[-1] / eta[0] if eta[0] > 0 else math.inf
    if mono_decay <= 0.5 and eta_decay <= 0.5:
        verdict = "compact-consistent"
    elif mono_decay >= 0.9 or eta_decay >= 0.75:
        verdict = "noncompact"
    else:
        verdict = "inconclusive"
    return {
        "monomial_target_norms": mono_vals,
        "point_bound_ratios": eta,
        "verdict": verdict,
        "predicted": inclusion_is_compact(p0, q0, p, q),
    }


# -- evaluation functionals ------------------------------------------------------

def default_point_family(pq: ExponentPair, z: float) -> list:
    """Catalogued lower-bound family for the point functionals at z.

    Power singularities below the critical exponent, a ladder of monomials,
    and the dilated kernel-type power with twice the critical exponent.
    """
    s = float(pq.reciprocal_sum())
    fam: list = [("mon0", Monomial(0))]
    for c in (0.5, 0.8, 0.95):
        if c * s > 0:
            fam.append((f"pow{c}", power_singularity(c * s)))
    n = 1
    while n <= 4096:
        fam.append((f"mon{n}", Monomial(n)))
        n *= 4
    if s > 0:
        fam.append(("kernel", dilate(power_singularity(2.0 * s), z)))
    return fam


def _point_bound(cache: NormCache, pq: ExponentPair, z: float,
                 derivative: bool = False, rotation: float = 0.0) -> float:
    """sup over the catalogued family of |f(z)| / norm (or |f'(z)| / norm).

    With a rotation the evaluation point moves to z e^(i rotation) and each
    family member is rotated along; the numerators keep their modulus while
    the norms are recomputed with the quadrature mesh offset accordingly.
    Each value is computed once per cache.
    """
    memo = (str(pq), z, derivative, rotation)
    if memo in cache._point_bounds:
        return cache._point_bounds[memo]
    best = 0.0
    zz = complex(z)
    for label, f in default_point_family(pq, z):
        key = (label, round(z, 12) if label == "kernel" else None)
        denom = cache.norm(key, f, pq, angle_offset=-rotation)
        if not denom.converged or denom.value <= 0:
            continue
        num = abs(derivative_at(f, zz) if derivative else evaluate(f, zz))
        best = max(best, num / denom.value)
    cache._point_bounds[memo] = best
    return best


def evaluation_functional_fit(pq, which: str, z_list: Sequence[float],
                              cfg: QuadratureConfig,
                              rotation: float = 0.0,
                              cache: NormCache | None = None) -> ExponentFit:
    """Fitted growth exponent of the point (or derivative) functionals.

    For each z the family sup of |f(z)| / norm(f) lower-bounds the dual
    norm of the evaluation functional; the fit is log(sup) against
    log(1/(1 - z^2)).  ``rotation`` evaluates at z e^(i rotation) against
    correspondingly rotated functions, which must not move the slope.
    """
    if which not in ("point", "derivative"):
        raise ValueError("which must be 'point' or 'derivative'")
    pq = as_pair(pq)
    cache = cache or NormCache(cfg)
    pts = []
    for z in z_list:
        est = _point_bound(cache, pq, float(z), which == "derivative", rotation)
        if est > 0:
            pts.append((math.log(1.0 / (1.0 - z * z)), math.log(est)))
    return ExponentFit.fit(pts)


# -- boundary decay and the radial-integral/Hardy comparison ---------------------

def nontangential_decay_check(f: AnalyticFunction, p, r_list: Sequence[float]) -> list:
    """|f(r)| (1 - r)^(1/p) along real r -> 1; members of the sup-norm space
    must send it to zero."""
    pf = float(ExtendedExponent.of(p))
    return [(r, float(abs(evaluate(f, r)) * (1.0 - r) ** (1.0 / pf)))
            for r in r_list]


def fejer_riesz_ratio(f: AnalyticFunction, s, theta_list: Sequence[float],
                      cfg: QuadratureConfig) -> float:
    """max over rays of the radial L^s norm against the sup-radial norm.

    The denominator plays the role of the Hardy norm; for holomorphic f the
    ratio is bounded by an absolute constant depending only on s.
    """
    se = ExtendedExponent.of(s)
    if not se.is_finite:
        raise ValueError("the ray-integral comparison needs finite s")
    denom = mixed_norm(f, ExponentPair.of("inf", s), cfg).value
    sf = float(se)
    num = max(radial_integral(f, t, se, cfg) ** (1.0 / sf) for t in theta_list)
    return num / denom
