"""Classification predicates and their numerical witness scans.

The inclusion region between two mixed-norm spaces, the single excluded
pair on its boundary, and the compactness criterion are decided exactly in
rational arithmetic.  Each predicate is then confronted with computed-norm
evidence: monomial norm ratios, a boundary power singularity separating the
two spaces, and the Cesaro-power family whose norms grow logarithmically.
``sequences`` judges their ratio traces and fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exponents import ExponentPair, as_pair
from .functions import (
    AnalyticFunction,
    Monomial,
    dilate,
    derivative_at,
    evaluate,
)
from .norms import LevelStore, NormEstimate, QuadratureConfig, mixed_norm
from .sequences import ExponentFit, classify_ratio_trace
from .witnesses import cesaro_power, power_singularity

__all__ = [
    "BOUNDARY_LADDER",
    "InclusionVerdict",
    "NormCache",
    "WitnessReport",
    "default_point_family",
    "evaluation_functional_fit",
    "inclusion_is_compact",
    "inclusion_region_contains",
    "inclusion_witness_scan",
    "compactness_witness_scan",
    "monomial_norm",
]

# Monomial ratios grow like a power of n whose exponent can be as small as
# the tightest reciprocal gap on the scan grid (1/4); the growth rule then
# needs n of order 2^10 to trigger, so the budget runs well past that.
MONOMIAL_BUDGET = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
CESARO_BUDGET = (4, 16, 64, 256)
# The points z_k = 1 - 2^-k, k = 3..8, at which the point functionals and the
# point-bound ratios approach the boundary.
BOUNDARY_LADDER = tuple(1.0 - 2.0 ** -k for k in range(3, 9))


def monomial_norm(n: int, p) -> float:
    """(1 + n p)^(-1/p), the (p, q) norm of z^n for every q; 1 when p = inf."""
    return (1.0 + n * float(p)) ** (-1.0 / float(p))


@dataclass
class WitnessReport:
    name: str
    trace: list            # (parameter, ratio-or-value)
    conclusion: str        # bounded | unbounded | separating | inconclusive


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
    excluded = (contained and src.p.is_finite and src.q.is_finite
                and not dst.q.is_finite
                and dst.p.reciprocal == src.reciprocal_sum())
    return contained, excluded


def inclusion_is_compact(p0, q0, p, q) -> bool:
    """Compactness of the inclusion: strict sum inequality and p < p0."""
    src = ExponentPair.of(p0, q0)
    dst = ExponentPair.of(p, q)
    return (dst.reciprocal_sum() > src.reciprocal_sum()
            and dst.p < src.p and dst.p.is_finite)


class NormCache:
    """Memoised mixed norms keyed by (key, exponent pair), and the point
    bounds built from them.  This module's key is the function itself:
    equal (frozen) representations hash equal and share one estimate.
    Every estimate is computed under the cache's one ``norms.LevelStore``,
    so a q-finite level of f, the one ray of a rotation-invariant f at any
    q and the peak ray of a q = inf level at any p, is sampled once for all
    the pairs asked of f.

    ``hits`` and ``misses`` count the ``norm`` lookups answered from the
    store and those that computed a new estimate; ``shared_levels`` counts
    the levels of those estimates read from the level store without a
    sample.
    """

    def __init__(self, cfg: QuadratureConfig):
        self.cfg = cfg
        self._store: dict = {}
        self._levels = LevelStore()
        self._point_bounds: dict = {}
        self.hits = 0
        self.misses = 0

    @property
    def shared_levels(self) -> int:
        return self._levels.served

    def norm(self, key, f: AnalyticFunction, pq: ExponentPair,
             angle_offset: float = 0.0) -> NormEstimate:
        # the offset stays only for perfbench's timed cache, which overrides
        # this method; the quadrature takes none, so refuse, not ignore, one
        if angle_offset != 0.0:
            raise ValueError("mixed norms take no angle offset")
        k = (key, as_pair(pq))
        est = self._store.get(k)
        if est is None:
            self.misses += 1
            est = self._store[k] = mixed_norm(f, pq, self.cfg,
                                              store=self._levels)
        else:
            self.hits += 1
        return est


def _cache_for(cfg: QuadratureConfig, cache: NormCache | None) -> NormCache:
    """``cache`` if built for ``cfg`` (else ValueError), or a new one."""
    if cache is not None and cache.cfg != cfg:
        raise ValueError(f"the cache was built for {cache.cfg}, not {cfg}")
    return cache or NormCache(cfg)


def _ratio_trace(cache: NormCache, family, src: ExponentPair,
                 dst: ExponentPair) -> list:
    """(n, target norm / source norm) over the (n, f) pairs of a family."""
    out = []
    for n, f in family:
        a = cache.norm(f, f, dst).value
        b = cache.norm(f, f, src).value
        out.append((n, a / b if b > 0 and math.isfinite(a + b) else math.inf))
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
    cache = _cache_for(cfg, cache)
    reports: list = []

    def cesaro_family(alpha: Fraction, budget=CESARO_BUDGET):
        return [(n, cesaro_power(n, float(alpha))) for n in budget]

    if (contained and not excluded) or (not contained and dst.p > src.p):
        trace = _ratio_trace(
            cache, [(n, Monomial(n)) for n in MONOMIAL_BUDGET], src, dst)
        reports.append(WitnessReport(
            "monomial", trace, classify_ratio_trace([v for _, v in trace])))
    if not contained and dst.reciprocal_sum() < src.reciprocal_sum():
        alpha = (dst.reciprocal_sum() + src.reciprocal_sum()) / 2
        f = power_singularity(float(alpha))
        in_src = cache.norm(f, f, src)
        in_dst = cache.norm(f, f, dst)
        ok = in_src.converged and not in_dst.converged \
            and in_dst.divergence_exponent is not None \
            and in_dst.divergence_exponent > 0
        reports.append(WitnessReport(
            f"power_singularity[{float(alpha):.4g}]",
            [("source", in_src.value), ("target", in_dst.value)],
            "separating" if ok else "inconclusive"))
    if excluded:
        trace = _ratio_trace(
            cache, cesaro_family(1 / dst.p.reciprocal, (16, 32, 64, 128, 256)),
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
            a = cache.norm(f, f, dst)
            b = cache.norm(f, f, src)
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
    cache = _cache_for(cfg, cache)
    mono_vals = []  # target norms of unit-source-norm monomials
    for n in (16, 64, 256, 1024):
        f = Monomial(n)
        mono_vals.append(cache.norm(f, f, dst).value / monomial_norm(n, src.p))
    eta = []
    for z in BOUNDARY_LADDER:
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
    fam: list = [Monomial(0)]
    fam += [power_singularity(c * s) for c in (0.5, 0.8, 0.95) if c * s > 0]
    fam += [Monomial(4 ** k) for k in range(7)]
    if s > 0:
        fam.append(dilate(power_singularity(2.0 * s), z))
    return fam


def _point_bound(cache: NormCache, pq: ExponentPair, z: float,
                 derivative: bool = False) -> float:
    """sup over the catalogued family of |f(z)| / norm (or |f'(z)| / norm).

    Each value is computed once per cache.
    """
    memo = (pq, z, derivative)
    best = cache._point_bounds.get(memo)
    if best is not None:
        return best
    best = 0.0
    zz = complex(z)
    for f in default_point_family(pq, z):
        denom = cache.norm(f, f, pq)
        if not denom.converged or denom.value <= 0:
            continue
        num = abs(derivative_at(f, zz) if derivative else evaluate(f, zz))
        best = max(best, num / denom.value)
    cache._point_bounds[memo] = best
    return best


def evaluation_functional_fit(pq, which: str, z_list: Sequence[float],
                              cfg: QuadratureConfig,
                              cache: NormCache | None = None) -> ExponentFit:
    """Fitted growth exponent of the point (or derivative) functionals.

    For each z the family sup of |f(z)| / norm(f) lower-bounds the dual
    norm of the evaluation functional; the fit is log(sup) against
    log(1/(1 - z^2)).
    """
    if which not in ("point", "derivative"):
        raise ValueError("which must be 'point' or 'derivative'")
    if not (all(0.0 < z < 1.0 for z in z_list)
            and len(set(z_list)) == len(z_list)):
        raise ValueError(f"the z values must be distinct and lie in (0, 1), "
                         f"got {list(z_list)}")
    pq = as_pair(pq)
    cache = _cache_for(cfg, cache)
    pts = []
    for z in z_list:
        est = _point_bound(cache, pq, float(z), which == "derivative")
        if est > 0:
            pts.append((math.log(1.0 / (1.0 - z * z)), math.log(est)))
    if len(pts) < 4:
        raise ValueError("an exponent fit needs at least 4 usable points")
    return ExponentFit.fit(pts)
