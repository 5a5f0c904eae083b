"""Mixed radial/angular norms of analytic functions on the disc.

The inner radial integral int_0^1 |f(r e^(i t))|^p dr is computed on a
dyadically graded composite Gauss mesh (nodes accumulating at r = 1).  The
outer angular average uses the normalised measure dt / 2 pi on a uniform
half-step-offset rule, except near the singular directions declared in the
representation's ``features()`` record, where the uniform cells are replaced
by panels graded toward the singularity: the angular profile of a boundary
power singularity is itself an integrable power of the angle, and a uniform
rule would converge too slowly there to tell membership from divergence.
When the record declares f conjugate-symmetric (real Taylor coefficients,
so |f| is even in the angle) and its singular directions are all 0, that
rule is symmetric, and a q-finite level folds it onto [0, pi]: it samples
only the mirror half of the rays, each with twice the weight, and reads the
same value up to rounding.  When the record declares f rotation-invariant
(f = c z^n, so |f| depends on |z| alone), every ray of any rule reads the
same, and a level of any exponent pair samples one ray of its radial mesh.
Estimates are refined by doubling the angular resolution and deepening
both gradings one dyadic level at a time until two successive values agree
to the requested relative tolerance (``sequences.refinement_stop``).

Supremum branches (p or q infinite) replace the corresponding integral by a
maximum over samples.  A q = inf level does not scan all of its angles: it
takes the per-ray values on a coarse ring of midpoint angles and on the
singular directions of the representation (a needle-thin radial profile,
e.g. of a bump function aimed at one boundary point, would otherwise be
invisible to any uniform scan).  The ring has 512 rays (``_SUP_RING``,
also the ray count of level 0), doubled until it holds four rays per unit
of the top exponent in the record (a series of top exponent N oscillates
on angular scales down to 2 pi / N),
and at most as many as the level's fine rule.  The level then samples its
fine midpoint rule only within one coarse step of the largest local maxima
of the ring (each a strict rise from its left neighbour, so a ring of one
value has none) and of the singular directions, and a zoom pass of a few
vectorised rounds refines around the discrete maximiser.  The fine samples
are a subset of the full fine rule, so none falls on a singular direction.
A peak narrower than one coarse step that neither a singular direction nor
the top exponent accounts for can fall between the coarse rays and be
missed.  For a record that folds the q-finite rule, the q = inf level folds
too: it samples only the mirror half of its ring, finds the peaks on that
half followed by its reverse (so a peak next to 0 or pi has its mirrored
neighbour) and takes each fine window to its mirror in [0, pi].  The ring's
angles stay the same from level to level until it
grows, and each level's radial mesh keeps every cell of the one before but
the last, so a level of the refinement reuses the ring's radial sums over
those closed cells and samples the ring only on its own last two cells.

Each quadrature level binds one modulus kernel,
``AnalyticFunction.polar_kernel`` at the level's radii, so the radii are
checked and the representation's radial factors computed once per level.
That kernel takes every sample of the level: the streamed blocks, the coarse
ring and fine windows of a q = inf level and each round of its zoom pass;
a q = inf level that reuses the ring's closed cells binds a second
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
from .functions import (AnalyticFunction, Features, Sum, _integer, _real,
                        dilate)
# ``evaluate`` is not called here; perfbench's traced run wraps
# ``norms.evaluate``, so the name stays importable from this module.
from .functions import evaluate  # noqa: F401
from .meshes import (MAX_GRADING_LEVELS, NODES_PER_CELL, graded_radial_mesh,
                     midpoint_angles)
from .sequences import ExponentFit, refinement_stop

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
    """Resolution and convergence parameters for the norm quadratures.

    ``theta_count`` sets the angular cells of level 0 of q-finite estimates
    only: q = inf estimates start from ``_SUP_RING`` = 512 rays.
    """

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
    ``stop == "tol"``.
    ``divergence_exponent`` (the growth rate of the estimates against the
    reciprocal boundary cutoff) is only set when the refinement diverged.
    ``to_dict`` writes a non-finite value, in ``value`` or in ``trace``, as
    null, so its output is strict JSON.
    ``stop`` says why the refinement stopped: ``tol``, ``growth`` or
    ``nonfinite`` (``sequences.refinement_stop``; the last two mean
    divergent), ``refine_max`` (the configured number of refinements ran
    out) or ``depth_cap`` (the radial grading cannot deepen further).
    ``evaluations`` counts, per level, the |f| samples the level took (the
    zoom pass of a q = inf level included, and of its coarse ring
    only the samples on the cells it did not reuse from the level before;
    a folded level, see ``_angular_rule`` and ``_sup_level``, counts only
    its half of the circle, and a rotation-invariant f one ray, the length
    of the radial mesh); it is a diagnostic and stays out of ``to_dict``.
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
# The q = inf pass around the discrete maximiser: _ZOOM_ROUNDS rounds of
# _ZOOM_RAYS rays, one kernel call each.
_ZOOM_RAYS = 10
_ZOOM_ROUNDS = 3


def _folds(features: Features) -> bool:
    """Whether a level may sample only the rays in [0, pi]: |f| is even in
    the angle (``conjugate_symmetric``) and every singular direction is 0,
    so the level's angular rule is symmetric under t -> -t."""
    return features.conjugate_symmetric and all(
        t % (2.0 * math.pi) == 0.0 for t in features.singular_angles)


def _angular_rule(features: Features, count: int, levels: int):
    """Angular nodes and weights for the measure dt / 2 pi (mass one).

    Base rule: uniform midpoints.  Around each singular direction that the
    ``features`` record declares, a block of 2 * _PANEL_CELLS uniform cells
    is replaced by two meshes graded toward the singular angle.  Directions
    too close together (merged bump clusters) fall back to the plain uniform
    rule; their profiles are bounded, so nothing is lost.

    Folded rule: when ``_folds(features)``, only the rule's half in [0, pi]
    is kept, with twice the weight: the midpoint cells j < count / 2 (cell j
    mirrors cell count - 1 - j; an odd count's cell at pi mirrors itself and
    keeps its weight) and the panel on the positive side of 0.  Nodes are
    paired by index, so the folded level is the full one up to rounding, at
    half the samples.
    """
    two_pi = 2.0 * math.pi
    taus = sorted({t % two_pi for t in features.singular_angles})
    fold = _folds(features)
    h = two_pi / count
    base = midpoint_angles(count)
    base_w = np.full(count, 1.0 / count)
    if taus and min(np.diff([*taus, taus[0] + two_pi])) < (
            2 * _PANEL_CELLS + 1) * h:
        taus = []  # the uniform fallback
    if not (taus or fold):
        return base, base_w
    if fold:
        base_w[:count // 2] *= 2.0
        base_w[count - count // 2:] = 0.0
    nodes = [None]
    weights = [None]
    for tau in taus:
        j0 = int(math.floor(tau / h))
        cells = [(j0 + d) % count for d in range(-_PANEL_CELLS, _PANEL_CELLS)]
        base_w[cells] = 0.0
        lo = (j0 - _PANEL_CELLS) * h
        hi = (j0 + _PANEL_CELLS) * h
        if not fold:
            un, uw = _graded_to_zero(tau - lo, levels)
            nodes.append(tau - un)
            weights.append(uw / two_pi)
        un, uw = _graded_to_zero(hi - tau, levels)
        nodes.append(tau + un)
        weights.append((2.0 if fold else 1.0) * uw / two_pi)
    keep = base_w > 0.0
    nodes[0] = base[keep]
    weights[0] = base_w[keep]
    return np.concatenate(nodes), np.concatenate(weights)


def _zoom_max(fun: Callable, lo: float, hi: float) -> float:
    """The best value of ``fun`` (angles -> per-ray values) over
    _ZOOM_ROUNDS rounds of _ZOOM_RAYS cell midpoints of a bracket: [lo, hi],
    then one ray step either side of the last round's best ray.  Each round
    sees every peak of its bracket, where a bisection would keep one."""
    best = -math.inf
    for _ in range(_ZOOM_ROUNDS):
        step = (hi - lo) / _ZOOM_RAYS
        thetas = lo + (np.arange(_ZOOM_RAYS) + 0.5) * step
        vals = fun(thetas)
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        lo, hi = thetas[k] - step, thetas[k] + step
    return best


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
    """The mixed norm from per-ray values ``inner`` (as ``_ray_values`` gives
    them): their L^q mean against ``angular_w``, or their max for q = inf."""
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
    inner = (vals ** float(pq.p) @ radial_w if pq.p.is_finite
             else vals.max(axis=-1))
    return _angular_norm(inner, angular_w, pq)


def _sup_windows(ring: np.ndarray, specials: np.ndarray, count: int,
                 fold: bool = False) -> np.ndarray:
    """Indices into ``midpoint_angles(count)`` within one coarse step of a
    candidate: the ``_SUP_PEAKS`` largest cyclic local maxima of the coarse
    per-ray values ``ring`` (taken at ``midpoint_angles(len(ring))``) and
    every singular direction in ``specials``.  A local maximum rises
    strictly from its left neighbour, so a ring of one value has none.
    With ``fold``, each index j is taken to its mirror count - 1 - j when
    that is smaller, so every index lies in [0, pi]."""
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
    if fold:
        half = (count + 1) // 2
        hit = hit[:half] | hit[::-1][:half]
    return np.flatnonzero(hit)


# a decorator builds its error state once; a with-block per level costs more
@np.errstate(over="ignore")
def _level_value(f: AnalyticFunction, pq: ExponentPair, count: int, levels: int,
                 lo: float = 0.0, carry: list | None = None) -> tuple:
    """One quadrature level of the mixed norm with radii in [lo, 1]: the
    value and the number of |f| samples it took.

    A rotation-invariant f (|f| depends on |z| alone, see ``Features``):
    one ray, the value of every ray of any angular rule, for every (p, q).
    Else, q finite: the q-mean over the panel-graded angular rule of
    ``count`` cells.  q = inf: ``_sup_level``, which reads and refills
    ``carry`` (the ring's closed-cell values, see there); without one the
    level stands alone.  Either way the level binds one kernel
    (``f.polar_kernel`` at its radii) and streams the per-ray values through
    it (``_ray_values``), and reads ``f.features()`` once.  A modulus or a
    power beyond the float range is inf, without a warning, so the
    refinement stops there as ``nonfinite``.
    """
    r, w = graded_radial_mesh(levels, lo=lo)
    kernel = f.polar_kernel(r)
    features = f.features()
    if features.rotation_invariant:
        return (_angular_norm(_ray_values(kernel, np.zeros(1), w, pq.p)[0],
                              np.ones(1), pq), len(r))
    if not pq.q.is_finite:
        return _sup_level(f, features, kernel, pq, count, r, w, carry)
    thetas, ang_w = _angular_rule(features, count, levels)
    return (_angular_norm(_ray_values(kernel, thetas, w, pq.p)[0],
                          ang_w, pq), len(thetas) * len(r))


def _sup_ring(features: Features, count: int) -> int:
    """Rays of the coarse ring of a q = inf level of ``count`` rays:
    ``_SUP_RING << j`` for the least j giving ``_SUP_RAYS_PER_EXPONENT``
    rays per unit of ``features.top_exponent``, capped at ``count``."""
    need = min(_SUP_RAYS_PER_EXPONENT * features.top_exponent, count)
    coarse = _SUP_RING
    while coarse < need:
        coarse <<= 1
    return min(coarse, count)


def _sup_level(f: AnalyticFunction, features: Features, kernel: Callable,
               pq: ExponentPair, count: int, r: np.ndarray, w: np.ndarray,
               carry: list | None) -> tuple:
    """The q = inf level of f and its sample count, given f's ``features``
    record, its samples taken by the level's bound ``kernel`` at the radii
    ``r`` with radial weights ``w``.

    The per-ray values on the coarse ring ``midpoint_angles(ring)``, ring =
    ``_sup_ring(features, count)``, and on the singular directions pick the
    candidates of ``_sup_windows``; the level is the max over the singular
    directions, over the midpoints of ``midpoint_angles(count)`` within one
    coarse step of a candidate, and over a zoom pass (``_zoom_max``) within
    one fine step of their maximiser.  The ring of a series holds about four
    rays per period of its top exponent; once it reaches ``count`` the level
    scans every midpoint.  Without a candidate (a ring of one value, no
    singular direction) the ring's own rays stand in for the fine pass.  A
    narrower peak that no singular direction declares can fall between the
    coarse rays and be missed.

    Folded level: when ``_folds(features)``, ring ray j and its mirror
    ring - 1 - j see equal values, so only the mirror half
    ``midpoint_angles(ring)[:(ring + 1) // 2]`` is sampled.  Peaks are found
    on that half followed by its reverse, the full ring up to rounding, so a
    peak next to 0 or pi is found just as on the full ring, and each fine
    window is taken to its mirror in [0, pi] (``_sup_windows``).  The level
    reads the unfolded value up to rounding, at about half the samples.

    Each ring ray is reduced over its closed cells and over its last cell,
    the two joined by a sum for finite p and a max for p = inf.  The ring is
    the next level's ring too unless it grows, and the next level's radial
    mesh keeps every cell of this one but the last (see ``meshes``).  So a
    level given a ``carry`` whose ring stays leaves in it the closed part of
    the rays it samples (the mirror half, when folded), and a level that
    finds one there samples the ring only on its last two cells and joins
    the first of them to the carried part.
    """
    coarse = _sup_ring(features, count)
    fold = _folds(features)
    kept = (coarse + 1) // 2 if fold else coarse
    specials = np.array(features.singular_angles)
    thetas = np.concatenate([midpoint_angles(coarse)[:kept], specials])
    join = np.add if pq.p.is_finite else np.maximum
    first = len(r) - 2 * NODES_PER_CELL if carry else 0
    ring_kernel = f.polar_kernel(r[first:]) if first else kernel
    closed, last = _ray_values(ring_kernel, thetas, w[first:], pq.p,
                               (0, len(w) - first - NODES_PER_CELL))
    if carry:
        closed = join(carry.pop(), closed)
    if carry is not None and _sup_ring(features, 2 * count) == coarse:
        carry.append(closed)
    per_angle = join(closed, last)
    samples = len(thetas) * (len(r) - first)
    if not np.isfinite(per_angle).all():
        # an overflowing ray ends the refinement; no window can undo it
        return _angular_norm(per_angle, None, pq), samples
    ring = per_angle[:kept]
    if fold:
        ring = np.concatenate([ring, ring[:coarse // 2][::-1]])
    windows = (_sup_windows(ring, specials, count, fold)
               if count != coarse else ())
    if len(windows):
        fine = midpoint_angles(count)[windows]
        thetas = np.concatenate([fine, specials])
        per_angle = np.concatenate(
            [_ray_values(kernel, fine, w, pq.p)[0], per_angle[kept:]])
        samples += len(fine) * len(r)
    k = int(np.argmax(per_angle))
    h = 2.0 * math.pi / count
    zoom = _zoom_max(lambda ts: _ray_values(kernel, ts, w, pq.p)[0],
                     thetas[k] - h, thetas[k] + h)
    return (_angular_norm(np.append(per_angle, zoom), None, pq),
            samples + _ZOOM_RAYS * _ZOOM_ROUNDS * len(r))


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
    trace: list = []
    evaluations: list = []
    top = min(cfg.refine_max, MAX_GRADING_LEVELS - cfg.radial_levels)
    carry: list = []
    for level in range(top + 1):
        v, n = _level_value(f, pq, base_count << level,
                            cfg.radial_levels + level, carry=carry)
        trace.append((level, v))
        evaluations.append(n)
        if stop := refinement_stop([x for _, x in trace], cfg.rel_tol):
            break
    else:
        stop = "refine_max" if top == cfg.refine_max else "depth_cap"
    divergent = stop in ("nonfinite", "growth")
    # log value against log 1/(1-R), over the last six finite positive levels
    pts = [(lvl, x) for lvl, x in trace if math.isfinite(x) and x > 0.0][-6:]
    slope = None if not divergent or len(pts) < 2 else ExponentFit.fit(zip(
        [(cfg.radial_levels + lvl) * math.log(2.0) for lvl, _ in pts],
        np.log([x for _, x in pts]))).slope
    return NormEstimate(value=math.inf if divergent else trace[-1][1],
                        trace=trace, divergence_exponent=slope, stop=stop,
                        evaluations=evaluations)


def tail_sup_norm(f: AnalyticFunction, p, rho: float,
                  cfg: QuadratureConfig) -> float:
    """sup over theta of (int_rho^1 |f(r e^(i theta))|^p dr)^(1/p).

    One unrefined q = inf level of 512 rays (``_SUP_RING``) and
    ``cfg.radial_levels``, with no stop reason: ``cfg.refine_max`` and
    ``cfg.rel_tol`` never reach it.
    """
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
