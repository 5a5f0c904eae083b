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
maximum over samples.  A q = inf level does not scan all of its angles: it
takes the per-ray values on a coarse ring of midpoint angles and on the
singular directions of the representation (a needle-thin radial profile,
e.g. of a bump function aimed at one boundary point, would otherwise be
invisible to any uniform scan).  The ring has 512 rays (``_SUP_RING``,
also the ray count of level 0), doubled until it holds four rays per unit
of the representation's top exponent (``AnalyticFunction.top_exponent``:
a series of top exponent N oscillates on angular scales down to 2 pi / N),
and at most as many as the level's fine rule.  The level then samples its
fine midpoint rule only within one coarse step of the largest local maxima
of the ring (each a strict rise from its left neighbour, so a flat ring has
none) and of the singular directions, and a golden-section pass refines
around the discrete maximiser.  The fine samples are a subset of the full
fine rule, so none falls on a singular direction.  A peak narrower than one
coarse step that neither a singular direction nor the top exponent accounts
for can fall between the coarse rays and be missed.  The ring's angles stay
the same from level to level until it grows, and each level's radial mesh
keeps every cell of the one before but the last, so a level of the
refinement reuses the ring's radial sums over those closed cells and
samples the ring only on its own last two cells.

Each quadrature level binds one modulus kernel,
``AnalyticFunction.polar_kernel`` at the level's radii, so the radii are
checked and the representation's radial factors computed once per level.
That kernel takes every sample of the level: the streamed blocks, the coarse
ring and fine windows of a q = inf level and each ray of its golden-section
pass; a q = inf level that reuses the ring's closed cells binds a second
one at its last two cells for the ring.  The level is streamed: |f| is
evaluated on one block of angles at a time, a block holding about
``_CHUNK_BUDGET`` samples, and each block is reduced at once to its per-ray
radial values.  Only the vector of per-angle values reaches the angular
reduction, so the angle x radius grid of a level is never held in memory.
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
from .meshes import (MAX_GRADING_LEVELS, NODES_PER_CELL, graded_radial_mesh,
                     midpoint_angles)

__all__ = [
    "NormEstimate",
    "QuadratureConfig",
    "dilation_convergence",
    "discrete_mixed_norm",
    "mixed_norm",
    "tail_sup_norm",
]

# About this many |f| samples are evaluated and reduced per block of angles,
# so the deepest q = inf levels (16,385 angles x 144 radii) never hold their
# 18.9 MB sample grid.  Measured with perfbench: at 16,384 samples the
# temporaries of a block grow large enough that the allocator faults in fresh
# pages for them (about 100 page faults per cheap scan estimate).  A block
# repeats no radial work (the level's kernel is bound once), but it pays the
# per-call overhead of the kernel's and the reduction's array operations: at
# 4,096 samples a lacunary_norms pass took 14% longer and an inclusion_scan
# pass 19% (medians of 6 alternated passes in one process, 2 vCPUs, numpy
# 2.4.6).
_CHUNK_BUDGET = 12288


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution and convergence parameters for the norm quadratures."""

    theta_count: int = 64
    radial_levels: int = 12
    refine_max: int = 6
    rel_tol: float = 1e-3

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

    ``trace`` lists (refinement level, value); ``converged`` is
    ``stop == "tol"``, true exactly when the last two trace values are not
    both zero and differ relatively by at most rel_tol.
    ``divergence_exponent`` (the growth rate of the estimates against the
    reciprocal boundary cutoff) is only set when the refinement diverged.
    ``to_dict`` writes a non-finite value, in ``value`` or in ``trace``, as
    null, so its output is strict JSON.
    ``stop`` says why the refinement stopped: ``tol`` (two levels agreed),
    ``growth`` (sustained growth, divergent), ``nonfinite`` (a level
    overflowed, divergent), ``refine_max`` (the configured number of
    refinements ran out) or ``depth_cap`` (the radial grading cannot deepen
    further).
    ``evaluations`` counts, per level, the |f| samples the level took (the
    golden-section pass of a q = inf level included, and of its coarse ring
    only the samples on the cells it did not reuse from the level before);
    it is a diagnostic and stays out of ``to_dict``.
    """

    value: float
    trace: list = field(default_factory=list)
    divergence_exponent: float | None = None
    stop: str = ""
    evaluations: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stop == "tol"

    def to_dict(self) -> dict:
        return {
            "value": None if math.isinf(self.value) else self.value,
            "converged": self.converged,
            "trace": [[lvl, v if math.isfinite(v) else None]
                      for lvl, v in self.trace],
            "divergence_exponent": self.divergence_exponent,
            "stop": self.stop,
        }


def _graded_to_zero(length: float, levels: int):
    """Mesh of [0, length] with nodes accumulating at 0."""
    u, w = graded_radial_mesh(levels)
    return length * (1.0 - u[::-1]), length * w[::-1]


# Panels span this many uniform cells on each side of a singular direction.
_PANEL_CELLS = 4
# Rays of level 0 of a q = inf estimate, and the fewest rays of the coarse
# ring of any q = inf level.
_SUP_RING = 512
# A q = inf level refines around this many of the largest local maxima of its
# coarse ring, besides the singular directions.
_SUP_PEAKS = 8
# The coarse ring of a q = inf level holds at least this many rays per unit
# of the representation's top exponent, about four per period of its fastest
# oscillation along a circle.
_SUP_RAYS_PER_EXPONENT = 4
# Golden-section steps of the q = inf pass, which evaluates _GOLDEN_ITERS + 2
# rays.
_GOLDEN_ITERS = 28


def _angular_rule(f: AnalyticFunction, count: int, levels: int):
    """Angular nodes and weights for the measure dt / 2 pi (mass one).

    Base rule: uniform midpoints.  Around each singular direction of the
    representation a block of 2 * _PANEL_CELLS uniform cells is replaced by
    two meshes graded toward the singular angle.  Directions too close
    together (merged bump clusters) fall back to the plain uniform rule;
    their profiles are bounded, so nothing is lost.
    """
    two_pi = 2.0 * math.pi
    taus = sorted({t % two_pi for t in f.singular_angles()})
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


def _golden_max(fun: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section search, _GOLDEN_ITERS steps; the best value seen."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = fun(c), fun(d)
    best = max(fc, fd)
    for _ in range(_GOLDEN_ITERS):
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


def _reduction(p, radial_w: np.ndarray) -> Callable:
    """vals -> the per-ray sum of vals^p dr over the last axis (the max for
    p = inf), with p converted once."""
    if not p.is_finite:
        return lambda vals: vals.max(axis=-1)
    pf = float(p)
    return lambda vals: vals ** pf @ radial_w


def _ray_values(kernel: Callable, thetas: np.ndarray, radial_w: np.ndarray,
                p, starts: Sequence = (0,)) -> np.ndarray:
    """Per-ray values of |f| along each ray in ``thetas``, from a bound
    kernel (``AnalyticFunction.polar_kernel``) at the radii of
    ``radial_w``: one row for each radial part that begins at an index in
    ``starts``, the sum of |f|^p dr over the part (the max for p = inf).

    |f| is evaluated on one block of angles at a time and reduced at once,
    so no angle x radius grid is built.  The angles are cut into
    ceil(samples / ``_CHUNK_BUDGET``) blocks of nearly equal size, so no
    block is a small remainder that pays a kernel call for a few angles.
    """
    pf = float(p) if p.is_finite else math.inf
    parts = list(zip(starts, [*starts[1:], len(radial_w)]))
    out = np.empty((len(parts), len(thetas)))
    blocks = math.ceil(len(thetas) * len(radial_w) / _CHUNK_BUDGET)
    step = math.ceil(len(thetas) / blocks)
    for k in range(0, len(thetas), step):
        block = kernel(thetas[k:k + step])
        if pf == math.inf:
            # one call takes every part: numpy's max along the 8 radii of a
            # cell pays per row (513 x 16 samples: 34 us for both cells, 68
            # us for two calls of .max; numpy 2.4.6, one thread)
            out[:, k:k + step] = np.maximum.reduceat(block, starts, axis=1).T
            continue
        block = block ** pf
        for j, (a, b) in enumerate(parts):
            out[j, k:k + step] = block[:, a:b] @ radial_w[a:b]
    return out


def _angular_norm(inner: np.ndarray, angular_w: np.ndarray | None,
                  pq: ExponentPair) -> float:
    """The mixed norm from per-ray values ``inner`` (``_reduction``):
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
    return _angular_norm(_reduction(pq.p, radial_w)(vals), angular_w, pq)


def _sup_windows(ring: np.ndarray, specials: np.ndarray, count: int
                 ) -> np.ndarray:
    """Indices into ``midpoint_angles(count)`` within one coarse step of a
    candidate: the ``_SUP_PEAKS`` largest cyclic local maxima of the coarse
    per-ray values ``ring`` (taken at ``midpoint_angles(len(ring))``) and
    every singular direction in ``specials``.  A local maximum rises
    strictly from its left neighbour, so a ring of one value has none."""
    coarse = len(ring)
    # argmax passes, not a sort: the first call of a numpy sort routine
    # faults in about 180 kB of its code
    is_peak = (ring > np.roll(ring, 1)) & (ring >= np.roll(ring, -1))
    heights = np.where(is_peak, ring, -np.inf)
    peaks = []
    for _ in range(_SUP_PEAKS):
        k = int(np.argmax(heights))
        if heights[k] == -np.inf:
            break
        peaks.append(k)
        heights[k] = -np.inf
    step = 2.0 * math.pi / coarse
    centres = np.concatenate([(np.array(peaks) + 0.5) * step, specials])
    h = 2.0 * math.pi / count
    first = np.ceil((centres - step) / h - 0.5)
    last = np.floor((centres + step) / h - 0.5)
    # initial=0: without a candidate there is no window
    idx = first[:, None] + np.arange(int((last - first).max(initial=0)) + 1)
    # a mask, not np.unique: its first call loads about 1.8 MB
    hit = np.zeros(count, dtype=bool)
    hit[idx[idx <= last[:, None]].astype(int) % count] = True
    return np.flatnonzero(hit)


# a decorator builds its error state once; a with-block per level costs more
@np.errstate(over="ignore")
def _level_value(f: AnalyticFunction, pq: ExponentPair, count: int, levels: int,
                 lo: float = 0.0, carry: list | None = None) -> tuple:
    """One quadrature level of the mixed norm with radii in [lo, 1]: the
    value and the number of |f| samples it took.

    q finite: the q-mean over the panel-graded angular rule of ``count``
    cells.  q = inf: ``_sup_level``, which reads and refills ``carry`` (the
    ring's closed-cell values, see there); without one the level stands
    alone.  Either way the level binds one kernel (``f.polar_kernel`` at its
    radii) and streams the per-ray values through it (``_ray_values``).  A
    modulus or a power beyond the float range is inf, without a warning, so
    the refinement stops there as ``nonfinite``.
    """
    r, w = graded_radial_mesh(levels, lo=lo)
    kernel = f.polar_kernel(r)
    if not pq.q.is_finite:
        return _sup_level(f, kernel, pq, count, r, w, carry)
    thetas, ang_w = _angular_rule(f, count, levels)
    return (_angular_norm(_ray_values(kernel, thetas, w, pq.p)[0],
                          ang_w, pq), len(thetas) * len(r))


def _sup_ring(f: AnalyticFunction, count: int) -> int:
    """Rays of the coarse ring of a q = inf level of ``count`` rays:
    ``_SUP_RING << j`` for the least j giving ``_SUP_RAYS_PER_EXPONENT``
    rays per unit of ``f.top_exponent()``, capped at ``count``."""
    need = min(_SUP_RAYS_PER_EXPONENT * f.top_exponent(), count)
    coarse = _SUP_RING
    while coarse < need:
        coarse <<= 1
    return min(coarse, count)


def _sup_level(f: AnalyticFunction, kernel: Callable, pq: ExponentPair,
               count: int, r: np.ndarray, w: np.ndarray,
               carry: list | None) -> tuple:
    """The q = inf level and its sample count, its samples taken by the
    level's bound ``kernel`` at the radii ``r`` with radial weights ``w``.

    The per-ray values on the coarse ring ``midpoint_angles(ring)``, ring =
    ``_sup_ring(f, count)``, and on the singular directions pick the
    candidates of ``_sup_windows``; the level is the max over the singular
    directions, over the midpoints of ``midpoint_angles(count)`` within one
    coarse step of a candidate, and over a golden-section pass around their
    maximiser.  The ring of a series holds about four rays per period of
    its top exponent; once it reaches ``count`` the level scans every
    midpoint.  Without a candidate (a flat ring, no singular direction) the
    ring's own rays stand in for the fine pass.  A narrower peak that no
    singular direction declares can fall between the coarse rays and be
    missed.

    Each ring ray is reduced over its closed cells and over its last cell,
    the two joined by a sum for finite p and a max for p = inf.  The ring is
    the next level's ring too unless it grows, and the next level's radial
    mesh keeps every cell of this one but the last (see ``meshes``).  So a
    level given a ``carry`` whose ring stays leaves in it the closed part,
    and a level that finds one there samples the ring only on its last two
    cells and joins the first of them to the carried part.
    """
    coarse = _sup_ring(f, count)
    specials = np.array(f.singular_angles())
    thetas = np.concatenate([midpoint_angles(coarse), specials])
    join = np.add if pq.p.is_finite else np.maximum
    first = len(r) - 2 * NODES_PER_CELL if carry else 0
    ring_kernel = f.polar_kernel(r[first:]) if first else kernel
    closed, last = _ray_values(ring_kernel, thetas, w[first:], pq.p,
                               (0, len(w) - first - NODES_PER_CELL))
    if carry:
        closed = join(carry.pop(), closed)
    if carry is not None and _sup_ring(f, 2 * count) == coarse:
        carry.append(closed)
    per_angle = join(closed, last)
    samples = len(thetas) * (len(r) - first)
    if not np.isfinite(per_angle).all():
        # an overflowing ray ends the refinement; no window can undo it
        return _angular_norm(per_angle, None, pq), samples
    windows = (_sup_windows(per_angle[:coarse], specials, count)
               if count != coarse else ())
    if len(windows):
        fine = midpoint_angles(count)[windows]
        thetas = np.concatenate([fine, specials])
        per_angle = np.concatenate(
            [_ray_values(kernel, fine, w, pq.p)[0], per_angle[coarse:]])
        samples += len(fine) * len(r)
    k = int(np.argmax(per_angle))
    h = 2.0 * math.pi / count
    reduce = _reduction(pq.p, w)

    def ray(t: float) -> float:
        return float(reduce(kernel(np.array([t]))[0]))

    golden = _golden_max(ray, thetas[k] - h, thetas[k] + h)
    return (_angular_norm(np.append(per_angle, golden), None, pq),
            samples + (_GOLDEN_ITERS + 2) * len(r))


def _fit_growth(trace: list, base_levels: int) -> float | None:
    """Slope of log(value) against log(1/(1-R)) over the trailing ascent."""
    pts = [(lvl, v) for lvl, v in trace if math.isfinite(v) and v > 0.0]
    if len(pts) < 2:
        return None
    pts = pts[-6:]
    x = np.array([(base_levels + lvl) * math.log(2.0) for lvl, _ in pts])
    y = np.log([v for _, v in pts])
    return float(np.polyfit(x, y, 1)[0])


def _agree(a: float, b: float, rel_tol: float) -> bool:
    """Two successive level values agree to rel_tol.

    Two zeros do not agree: every sample may have underflowed (z^n for a
    huge n), which says nothing about the norm.
    """
    scale = max(abs(a), abs(b))
    return scale > 0.0 and abs(b - a) <= rel_tol * scale


def mixed_norm(f: AnalyticFunction, pq, cfg: QuadratureConfig) -> NormEstimate:
    """The mixed norm of f at the exponent pair pq, with refinement trace.

    The quadrature mesh is fixed; to move it against a function's features,
    rotate the representation (the norm is rotation invariant).

    Levels deeper than the meshes can grade (MAX_GRADING_LEVELS) are not
    evaluated: they would repeat the last mesh and agree spuriously.  An
    estimate stopped there is not converged.
    """
    pq = as_pair(pq)
    base_count = cfg.theta_count if pq.q.is_finite else _SUP_RING
    grow = 1.0 + cfg.rel_tol
    trace: list = []
    values: list = []
    evaluations: list = []
    top = min(cfg.refine_max, MAX_GRADING_LEVELS - cfg.radial_levels)
    stop = "refine_max" if top == cfg.refine_max else "depth_cap"
    carry: list = []
    for level in range(top + 1):
        v, n = _level_value(f, pq, base_count << level,
                            cfg.radial_levels + level, carry=carry)
        trace.append((level, v))
        values.append(v)
        evaluations.append(n)
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
            value=math.inf, trace=trace,
            divergence_exponent=_fit_growth(trace, cfg.radial_levels),
            stop=stop, evaluations=evaluations)
    return NormEstimate(value=values[-1], trace=trace, stop=stop,
                        evaluations=evaluations)


def tail_sup_norm(f: AnalyticFunction, p, rho: float,
                  cfg: QuadratureConfig) -> float:
    """sup over theta of (int_rho^1 |f(r e^(i theta))|^p dr)^(1/p)."""
    p = ExtendedExponent.of(p)
    if not p.is_finite:
        raise ValueError("tail norm is defined for finite p")
    if not 0.0 < rho < 1.0:
        raise ValueError("tail cutoff must lie in (0, 1)")
    return _level_value(f, ExponentPair.of(p, "inf"), _SUP_RING,
                        cfg.radial_levels, lo=rho)[0]


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
