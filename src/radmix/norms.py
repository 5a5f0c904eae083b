"""Mixed radial/angular norms of analytic functions on the disc.

The inner radial integral int_0^1 |f(r e^(i t))|^p dr is computed on a
dyadically graded composite Gauss mesh (nodes accumulating at r = 1).  The
outer angular average uses the normalised measure dt / 2 pi on a uniform
half-step-offset rule, except near the declared singular directions of the
representation, where the uniform cells are replaced by panels graded
toward the singularity: the angular profile of a boundary power
singularity is itself an integrable power of the angle, and a uniform rule
would converge too slowly there to tell membership from divergence.
Estimates are refined by doubling the angular resolution and deepening
both gradings one dyadic level at a time until two successive values agree
to the requested relative tolerance.

Divergent norms (functions outside the space) are recognised by sustained
growth across refinements; the growth rate against the effective boundary
cutoff is reported as a fitted exponent.

Supremum branches (p or q infinite) replace the corresponding integral by a
maximum over samples.  The angular sample set is seeded with the singular
directions of the representation (a needle-thin radial profile, e.g. of a
bump function aimed at one boundary point, would otherwise be invisible to
any uniform scan), and a golden-section pass refines around the discrete
maximiser.

Each quadrature level is streamed: |f| is evaluated on one block of angles
at a time, a block holding about ``_CHUNK_BUDGET`` samples, and each block
is reduced at once to its per-ray radial values.  Only the vector of
per-angle values reaches the angular reduction, so the angle x radius grid
of a level is never held in memory.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .exponents import ExponentPair, ExtendedExponent, as_pair
from .functions import AnalyticFunction, Sum, _integer, _real, dilate
# ``evaluate`` is not called here; perfbench's traced run wraps
# ``norms.evaluate``, so the name stays importable from this module.
from .functions import evaluate  # noqa: F401
from .meshes import MAX_GRADING_LEVELS, graded_radial_mesh, midpoint_angles

__all__ = [
    "NormEstimate",
    "QuadratureConfig",
    "dilation_convergence",
    "discrete_mixed_norm",
    "mixed_norm",
    "mixed_norm_truncated",
    "radial_integral",
    "tail_sup_norm",
    "weak_lp_norm",
]

# About this many |f| samples are evaluated and reduced per block of angles,
# so the deepest q = inf levels (16,385 angles x 144 radii) never hold their
# 18.9 MB sample grid.  Measured with perfbench: at 16,384 samples the
# temporaries of a block grow large enough that the allocator faults in fresh
# pages for them (about 100 page faults per cheap scan estimate), and at 4,096
# the fixed cost of each kernel call dominates the small levels.
_CHUNK_BUDGET = 12288


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution and convergence parameters for the norm quadratures."""

    theta_count: int = 64
    radial_levels: int = 12
    refine_max: int = 6
    rel_tol: float = 1e-3
    sup_sample_count: int = 512

    def __post_init__(self):
        for f in fields(self):
            check = _real if f.name == "rel_tol" else _integer
            object.__setattr__(self, f.name, check(getattr(self, f.name), f.name))
        if self.theta_count < 8:
            raise ValueError("theta_count must be at least 8")
        if not 4 <= self.radial_levels <= MAX_GRADING_LEVELS:
            raise ValueError("radial_levels must lie in "
                             f"[4, {MAX_GRADING_LEVELS}]")
        if self.refine_max < 1:
            raise ValueError("refine_max must be at least 1")
        if not 0 < self.rel_tol <= 0.1:
            raise ValueError("rel_tol must lie in (0, 0.1]")
        if self.sup_sample_count < 1:
            raise ValueError("sup_sample_count must be positive")

    @staticmethod
    def from_dict(d: dict) -> "QuadratureConfig":
        if not isinstance(d, Mapping):
            raise ValueError("config must be a JSON object")
        unknown = set(d) - {f.name for f in fields(QuadratureConfig)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return QuadratureConfig(**d)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class NormEstimate:
    """A refined quadrature result with its convergence verdict.

    ``trace`` lists (refinement level, value); ``converged`` is true exactly
    when the last two trace values are not both zero and differ relatively
    by at most rel_tol.
    ``divergence_exponent`` (the growth rate of the estimates against the
    reciprocal boundary cutoff) is only set when the refinement diverged.
    ``stop`` says why the refinement stopped: ``tol`` (two levels agreed),
    ``growth`` (sustained growth, divergent), ``nonfinite`` (a level
    overflowed, divergent), ``refine_max`` (the configured number of
    refinements ran out) or ``depth_cap`` (the radial grading cannot deepen
    further).
    """

    value: float
    trace: list = field(default_factory=list)
    converged: bool = False
    divergence_exponent: float | None = None
    stop: str = ""

    def to_dict(self) -> dict:
        return {
            "value": None if math.isinf(self.value) else self.value,
            "converged": self.converged,
            "trace": [[lvl, v] for lvl, v in self.trace],
            "divergence_exponent": self.divergence_exponent,
            "stop": self.stop,
        }


def _ray_profile(f: AnalyticFunction, theta: float, radii: np.ndarray,
                 offset: float) -> np.ndarray:
    return f.abs_on_polar(radii, np.array([theta + offset]))[0]


def _graded_to_zero(length: float, levels: int):
    """Mesh of [0, length] with nodes accumulating at 0."""
    u, w = graded_radial_mesh(levels)
    return length * (1.0 - u[::-1]), length * w[::-1]


# Panels span this many uniform cells on each side of a singular direction.
_PANEL_CELLS = 4


def _angular_rule(f: AnalyticFunction, count: int, levels: int,
                  offset: float):
    """Angular nodes and weights for the measure dt / 2 pi (mass one).

    Base rule: uniform midpoints.  Around each singular direction of the
    representation a block of 2 * _PANEL_CELLS uniform cells is replaced by
    two meshes graded toward the singular angle.  Directions too close
    together (merged bump clusters) fall back to the plain uniform rule;
    their profiles are bounded, so nothing is lost.
    """
    two_pi = 2.0 * math.pi
    taus = sorted({math.fmod(t - offset, two_pi) % two_pi
                   for t in f.singular_angles()})
    h = two_pi / count
    base = midpoint_angles(count)
    if not taus:
        return base, np.full(count, 1.0 / count)
    gaps = [taus[i + 1] - taus[i] for i in range(len(taus) - 1)]
    gaps.append(taus[0] + two_pi - taus[-1])
    if min(gaps) < (2 * _PANEL_CELLS + 1) * h:
        return base, np.full(count, 1.0 / count)
    keep = np.ones(count, dtype=bool)
    nodes = [None]
    weights = [None]
    for tau in taus:
        j0 = int(math.floor(tau / h))
        cells = [(j0 + d) % count for d in range(-_PANEL_CELLS, _PANEL_CELLS)]
        keep[cells] = False
        lo = (j0 - _PANEL_CELLS) * h
        hi = (j0 + _PANEL_CELLS) * h
        un, uw = _graded_to_zero(tau - lo, levels)
        nodes.append(tau - un)
        weights.append(uw / two_pi)
        un, uw = _graded_to_zero(hi - tau, levels)
        nodes.append(tau + un)
        weights.append(uw / two_pi)
    nodes[0] = base[keep]
    weights[0] = np.full(int(keep.sum()), 1.0 / count)
    return np.concatenate(nodes), np.concatenate(weights)


def _golden_max(fun: Callable[[float], float], lo: float, hi: float,
                iters: int = 28) -> float:
    """Golden-section maximisation; returns the best value seen."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = fun(c), fun(d)
    best = max(fc, fd)
    for _ in range(iters):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fun(d)
        else:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fun(c)
        best = max(best, fc, fd)
    return best


def radial_integral(f: AnalyticFunction, theta: float, p, cfg: QuadratureConfig,
                    lo: float = 0.0, hi: float = 1.0,
                    angle_offset: float = 0.0) -> float:
    """int_lo^hi |f(r e^(i theta))|^p dr for finite p, on a mesh graded
    dyadically toward ``hi``; p = inf raises ``ValueError``."""
    p = ExtendedExponent.of(p)
    if not p.is_finite:
        raise ValueError("the ray integral is defined for finite p")
    r, w = graded_radial_mesh(cfg.radial_levels, lo=lo, hi=hi)
    vals = _ray_profile(f, theta, r, angle_offset)
    return float(np.sum(w * vals ** float(p)))


def _radial_values(vals: np.ndarray, radial_w: np.ndarray, p) -> np.ndarray:
    """Per-ray sum of vals^p dr over the last axis (the max for p = inf)."""
    return (vals ** float(p)) @ radial_w if p.is_finite else vals.max(axis=-1)


def _ray_values(f: AnalyticFunction, thetas: np.ndarray, radii: np.ndarray,
                radial_w: np.ndarray, p, offset: float) -> np.ndarray:
    """``_radial_values`` of |f| along each ray in ``thetas``.

    |f| is evaluated on one block of angles at a time and reduced at once,
    so no angle x radius grid is built.  The angles are cut into
    ceil(samples / ``_CHUNK_BUDGET``) blocks of nearly equal size, so no
    block is a small remainder that pays a kernel call for a few angles.
    """
    out = np.empty(len(thetas))
    blocks = math.ceil(len(thetas) * len(radii) / _CHUNK_BUDGET)
    step = math.ceil(len(thetas) / blocks)
    for k in range(0, len(thetas), step):
        block = f.abs_on_polar(radii, thetas[k:k + step] + offset)
        out[k:k + step] = _radial_values(block, radial_w, p)
    return out


def _angular_norm(inner: np.ndarray, angular_w: np.ndarray | None,
                  pq: ExponentPair) -> float:
    """The mixed norm from per-ray values ``inner`` (``_radial_values``):
    their L^q mean against ``angular_w``, or their max for q = inf."""
    pf = float(pq.p) if pq.p.is_finite else 1.0
    if not pq.q.is_finite:
        return float(inner.max()) ** (1.0 / pf)
    qf = float(pq.q)
    return float(angular_w @ inner ** (qf / pf)) ** (1.0 / qf)


def discrete_mixed_norm(vals: np.ndarray, radial_w: np.ndarray,
                        angular_w: np.ndarray, pq) -> float:
    """Mixed norm of samples vals[angle, radius] >= 0.

    The L^p sum (or max) along each row against ``radial_w``, then the L^q
    mean (or max) of those values against ``angular_w``.
    """
    pq = as_pair(pq)
    return _angular_norm(_radial_values(vals, radial_w, pq.p), angular_w, pq)


def _level_value(f: AnalyticFunction, pq: ExponentPair, count: int, levels: int,
                 offset: float, lo: float = 0.0, hi: float = 1.0) -> float:
    """One quadrature level of the mixed norm with radii in [lo, hi].

    q finite: the q-mean over the panel-graded angular rule of ``count``
    cells.  q = inf: the max over ``count`` midpoint angles and the singular
    directions, and over a golden-section pass around the discrete
    maximiser.  Either way the per-ray values are streamed (``_ray_values``).
    """
    r, w = graded_radial_mesh(levels, lo=lo, hi=hi)
    if pq.q.is_finite:
        thetas, ang_w = _angular_rule(f, count, levels, offset)
        return _angular_norm(_ray_values(f, thetas, r, w, pq.p, offset), ang_w,
                             pq)
    specials = np.array([t - offset for t in f.singular_angles()])
    thetas = np.concatenate([midpoint_angles(count), specials])
    per_angle = _ray_values(f, thetas, r, w, pq.p, offset)
    k = int(np.argmax(per_angle))
    h = 2.0 * math.pi / count

    def ray(t: float) -> float:
        return float(_radial_values(_ray_profile(f, t, r, offset), w, pq.p))

    golden = _golden_max(ray, thetas[k] - h, thetas[k] + h)
    return _angular_norm(np.append(per_angle, golden), None, pq)


def _fit_growth(trace: list, base_levels: int) -> float | None:
    """Slope of log(value) against log(1/(1-R)) over the trailing ascent."""
    pts = [(lvl, v) for lvl, v in trace if math.isfinite(v) and v > 0.0]
    if len(pts) < 2:
        return None
    pts = pts[-6:]
    x = np.array([(base_levels + lvl) * math.log(2.0) for lvl, _ in pts])
    y = np.log([v for _, v in pts])
    return float(np.polyfit(x, y, 1)[0])


def mixed_norm(f: AnalyticFunction, pq, cfg: QuadratureConfig,
               angle_offset: float = 0.0) -> NormEstimate:
    """The mixed norm of f at the exponent pair pq, with refinement trace.

    ``angle_offset`` evaluates the rotated function z -> f(e^(i offset) z)
    without rebuilding a representation; the norm is rotation invariant, so
    this only moves the quadrature mesh relative to the function's features.
    """
    return _refine(f, as_pair(pq), cfg, angle_offset, 1.0)


def _agree(a: float, b: float, rel_tol: float) -> bool:
    """Two successive level values agree to rel_tol.

    Two zeros do not agree: every sample may have underflowed (z^n for a
    huge n), which says nothing about the norm.
    """
    scale = max(abs(a), abs(b))
    return scale > 0.0 and abs(b - a) <= rel_tol * scale


def _refine(f: AnalyticFunction, pq: ExponentPair, cfg: QuadratureConfig,
            angle_offset: float, hi: float) -> NormEstimate:
    """The refinement driver: the mixed norm with radii cut off at ``hi``.

    Levels deeper than the meshes can grade (MAX_GRADING_LEVELS) are not
    evaluated: they would repeat the last mesh and agree spuriously.  An
    estimate stopped there is not converged.
    """
    base_count = cfg.theta_count if pq.q.is_finite else cfg.sup_sample_count
    grow = 1.0 + cfg.rel_tol
    trace: list = []
    values: list = []
    top = min(cfg.refine_max, MAX_GRADING_LEVELS - cfg.radial_levels)
    stop = "refine_max" if top == cfg.refine_max else "depth_cap"
    for level in range(top + 1):
        v = _level_value(f, pq, base_count << level, cfg.radial_levels + level,
                         angle_offset, hi=hi)
        trace.append((level, v))
        values.append(v)
        if not math.isfinite(v):
            stop = "nonfinite"
            break
        if level >= 1 and _agree(values[-2], values[-1], cfg.rel_tol):
            stop = "tol"
            break
        # growth factors need positive values (zeros are underflow)
        if len(values) >= 6 and min(values[-6:]) > 0.0:
            recent = values[-6:]
            g = [recent[i + 1] / recent[i] for i in range(5)]
            # Five sustained growths mark divergence, but only when the
            # growth factors are not dying out: a slowly converging
            # boundary-singular integral also gains a little at every
            # refinement, yet its gains decay geometrically.
            if all(gi > grow for gi in g) and g[-1] - 1.0 > 0.6 * (g[0] - 1.0):
                stop = "growth"
                break
    if stop in ("nonfinite", "growth"):
        return NormEstimate(
            value=math.inf, trace=trace, converged=False,
            divergence_exponent=_fit_growth(trace, cfg.radial_levels),
            stop=stop)
    return NormEstimate(value=values[-1], trace=trace, converged=stop == "tol",
                        stop=stop)


def mixed_norm_truncated(f: AnalyticFunction, pq, R: float,
                         cfg: QuadratureConfig) -> float:
    """Mixed norm with the inner integral truncated to [0, R], R < 1."""
    if not 0.0 < R < 1.0:
        raise ValueError("truncation radius must lie in (0, 1)")
    return _refine(f, as_pair(pq), cfg, 0.0, R).value


def tail_sup_norm(f: AnalyticFunction, p, rho: float,
                  cfg: QuadratureConfig) -> float:
    """sup over theta of (int_rho^1 |f(r e^(i theta))|^p dr)^(1/p)."""
    p = ExtendedExponent.of(p)
    if not p.is_finite:
        raise ValueError("tail norm is defined for finite p")
    if not 0.0 < rho < 1.0:
        raise ValueError("tail cutoff must lie in (0, 1)")
    return _level_value(f, ExponentPair.of(p, "inf"),
                        cfg.sup_sample_count, cfg.radial_levels, 0.0, lo=rho)


def weak_lp_norm(samples: Sequence[float], p: float) -> float:
    """Discrete weak-L^p quasi-norm of |g| sampled uniformly on [0, 1].

    Computes sup_t t (fraction of samples above t)^(1/p); the supremum over
    thresholds is attained just below a sample value, so a descending sort
    gives it exactly.
    """
    if not p >= 1:
        raise ValueError("weak norm needs p >= 1")
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample list")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    if np.any(arr < 0):
        raise ValueError("samples must be nonnegative")
    s = np.sort(arr)[::-1]
    frac = (np.arange(arr.size) + 1.0) / arr.size
    return float(np.max(s * frac ** (1.0 / p)))


def dilation_convergence(f: AnalyticFunction, pq, r_list: Sequence[float],
                         cfg: QuadratureConfig) -> list:
    """Norms of f - f_r along r_list; tends to 0 as r -> 1 for q finite
    (and for members of the vanishing-tail subspace when q = inf)."""
    rs = list(r_list)
    if any(not 0.0 < r < 1.0 for r in rs) or any(
            b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("r_list must be strictly increasing inside (0, 1)")
    pq = as_pair(pq)
    out = []
    for r in rs:
        diff = Sum(((1.0, f), (-1.0, dilate(f, r))))
        out.append((r, mixed_norm(diff, pq, cfg).value))
    return out
