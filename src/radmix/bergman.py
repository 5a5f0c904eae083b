"""Discretised Bergman projection and its comparison-kernel chain.

The disc carries the normalised area measure rho d rho d phi / pi (total
mass one); grid quadrature uses graded radii and uniform angles.  Alongside
the projection itself this module provides the chain of positive comparison
kernels that majorise it (a diagonally capped angular kernel on the disc,
its boundary-depth form, the off-diagonal part and dyadic dilates of that),
maximal operators, a randomised lower bound for operator norms on the
discrete mixed-norm spaces, and the sesquilinear pairing implementing
duality.

All catalogued kernels depend on the angles through theta - phi only, so
applying an integral operator on the grid is a circular convolution in the
angle index and is carried out by FFT.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .exponents import as_pair
from .functions import AnalyticFunction, evaluate
from .meshes import angular_distance, graded_radial_mesh, uniform_angles
from .witnesses import in_stolz_wedge

__all__ = [
    "GridFunction",
    "PolarGrid",
    "apply_kernel_operator",
    "bergman_kernel",
    "circle_maximal",
    "duality_pairing",
    "grid_mixed_norm",
    "kernel_capped",
    "kernel_capped_depth",
    "kernel_offdiag",
    "kernel_offdiag_dilated",
    "operator_norm_estimate",
    "load_grid_function",
    "project",
    "running_average_maximal",
    "save_grid_function",
    "stolz_wedge_inequalities",
]


@dataclass(frozen=True)
class PolarGrid:
    """Quadrature nodes on the disc for the unit-mass area measure.

    ``weights[i, j]`` belongs to the node radii[i] * e^(i angles[j]) and the
    weights sum to one.  ``radial_weights`` are the plain dr weights on
    [0, 1] used by the discrete mixed norms.
    """

    radii: np.ndarray
    angles: np.ndarray
    radial_weights: np.ndarray
    weights: np.ndarray

    @staticmethod
    def build(n_angles: int = 64, n_radii: int = 64,
              nodes_per_cell: int = 8) -> "PolarGrid":
        if n_radii % nodes_per_cell:
            raise ValueError("radial count must be a multiple of the cell size")
        levels = n_radii // nodes_per_cell - 1
        if levels < 1:
            raise ValueError("need at least two radial cells")
        r, w = graded_radial_mesh(levels, nodes_per_cell)
        return PolarGrid.of(r, uniform_angles(n_angles), w)

    @staticmethod
    def of(radii: np.ndarray, angles: np.ndarray,
           radial_weights: np.ndarray) -> "PolarGrid":
        """The grid on these nodes, with the area weights 2 r w / m."""
        m = len(angles)
        area = np.repeat((2.0 * radii * radial_weights / m)[:, None], m, axis=1)
        total = float(area.sum())
        if abs(total - 1.0) > 1e-10 or np.any(area < 0):
            raise AssertionError("area weights failed the unit-mass check")
        return PolarGrid(radii=radii, angles=angles,
                         radial_weights=radial_weights, weights=area)

    @property
    def shape(self):
        return (len(self.radii), len(self.angles))

    def nodes(self) -> np.ndarray:
        """Complex node matrix indexed (radius, angle)."""
        return self.radii[:, None] * np.exp(1j * self.angles[None, :])


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on a polar grid, indexed (radius, angle)."""

    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"value shape {self.values.shape} does not match grid "
                f"{self.grid.shape}")


def sample_on_grid(f, grid: PolarGrid) -> GridFunction:
    """Sample an analytic function or a polar sampler (r, theta) -> value."""
    if isinstance(f, AnalyticFunction):
        vals = evaluate(f, grid.nodes())
    elif callable(f):
        vals = f(grid.radii[:, None], grid.angles[None, :])
    else:
        raise TypeError("expected an analytic function or a polar sampler")
    return GridFunction(grid, np.asarray(vals, dtype=complex))


def _values_of(f, grid: PolarGrid) -> np.ndarray:
    if isinstance(f, GridFunction):
        if f.grid is not grid and f.grid.shape != grid.shape:
            raise ValueError("grid function lives on a different grid")
        return f.values
    return sample_on_grid(f, grid).values


# -- kernels ------------------------------------------------------------------

def bergman_kernel(z, w):
    """K(z, w) = (1 - z conj(w))^(-2), the reproducing kernel."""
    return (1.0 - np.asarray(z, dtype=complex) * np.conjugate(w)) ** -2


def kernel_capped(r, theta, rho, phi):
    """Angular-distance kernel capped at the diagonal by 1 - r rho.

    0 for angular gap >= 1, gap^(-2) in the midrange, (1 - r rho)^(-2) once
    the gap drops below 1 - r rho.  Majorises |K| up to the factor 4 on the
    gap <= 1 region.
    """
    d = angular_distance(np.asarray(theta, dtype=float) - phi)
    cap = 1.0 - np.asarray(r, dtype=float) * np.asarray(rho, dtype=float)
    d, cap = np.broadcast_arrays(d, cap)
    out = np.zeros(d.shape)
    mid = (d < 1.0) & (d >= cap)
    near = d < np.minimum(cap, 1.0)
    out[mid] = d[mid] ** -2.0
    out[near] = cap[near] ** -2.0
    return out


def kernel_capped_depth(theta, phi, x, y):
    """Boundary-depth form of the capped kernel: the cap is max(x, y)."""
    d = angular_distance(np.asarray(theta, dtype=float) - phi)
    m = np.maximum(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    d, m = np.broadcast_arrays(d, m)
    out = np.zeros(d.shape)
    mid = (d < 1.0) & (d >= m)
    near = d < np.minimum(m, 1.0)
    with np.errstate(divide="ignore"):
        out[mid] = d[mid] ** -2.0
        out[near] = m[near] ** -2.0
    return out


def kernel_offdiag(theta, phi, x, y):
    """Off-diagonal part: gap^(-2) on 1 >= gap >= max(x, y), else 0."""
    d = angular_distance(np.asarray(theta, dtype=float) - phi)
    m = np.maximum(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    d, m = np.broadcast_arrays(d, m)
    out = np.zeros(d.shape)
    live = (d <= 1.0) & (d >= m)
    with np.errstate(divide="ignore"):
        out[live] = d[live] ** -2.0
    return out


def kernel_offdiag_dilated(n: int, theta, phi, x, y):
    """Dyadic dilate: 2^(-2n) times the off-diagonal kernel at depth 2^-n."""
    s = 2.0 ** -n
    return s * s * kernel_offdiag(theta, phi, s * np.asarray(x, dtype=float),
                                  s * np.asarray(y, dtype=float))


# -- projection and generic kernel application --------------------------------

def project(f, z, grid: PolarGrid):
    """Quadrature of K(z, .) f over the grid's area measure at point(s) z."""
    vals = _values_of(f, grid) * grid.weights
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(zs.shape, dtype=complex)
    nodes = grid.nodes()
    for i, zi in enumerate(zs.ravel()):
        out.ravel()[i] = np.sum(bergman_kernel(zi, nodes) * vals)
    return complex(out.ravel()[0]) if np.isscalar(z) or np.ndim(z) == 0 else out


def _stationary_tensor(kernel_rrd, grid: PolarGrid, diag_correct: bool) -> np.ndarray:
    """Kernel evaluated on (r_out, r_in, delta) with delta the angle gap."""
    r = grid.radii
    m = len(grid.angles)
    delta = 2.0 * np.pi * np.arange(m) / m
    tensor = kernel_rrd(r[:, None, None], r[None, :, None], delta[None, None, :])
    tensor = np.asarray(tensor, dtype=complex)
    if diag_correct:
        # Replace the whole same-angle slab by the kernel's transverse
        # average over the angular cell.  Near the boundary the kernel
        # concentrates on an angular scale 1 - r rho that can sit far below
        # the cell width, and the point value would then overweight the
        # diagonal by the ratio of the two scales; the average is computed
        # on a sub-mesh graded toward gap zero so both regimes are exact.
        dphi = 2.0 * np.pi / m
        levels = max(8, int(-math.log2(max(1.0 - r[-1] ** 2, 1e-300))) + 4)
        u, w = graded_radial_mesh(levels, 4)
        gaps = (1.0 - u[::-1]) * (dphi / 2.0)
        gw = w[::-1]
        ro = r[:, None, None]
        ri = r[None, :, None]
        both = 0.5 * (kernel_rrd(ro, ri, gaps[None, None, :])
                      + kernel_rrd(ro, ri, -gaps[None, None, :]))
        tensor[:, :, 0] = np.sum(gw[None, None, :] * both, axis=2)
    return tensor


def apply_kernel_operator(kernel, gf: GridFunction, form: str = "disc",
                          diag_correct: bool | None = None) -> GridFunction:
    """Integrate a comparison kernel against a grid function.

    ``form="disc"`` treats ``kernel(z_out..., w_in...)`` arguments as polar
    points on the disc and integrates against the unit-mass area measure;
    ``form="depth"`` treats the kernel as a function of the two angles and
    the boundary depths x = 1 - r (applied internally) and integrates
    against the unit-mass product measure dy dphi / 2 pi.

    Kernels must be stationary in the angle difference (all catalogued ones
    are); the angular sum is then a circular convolution done by FFT.
    """
    grid = gf.grid
    m = len(grid.angles)
    if form == "disc":
        if diag_correct is None:
            diag_correct = True
        radial_factor = 2.0 * grid.radii * grid.radial_weights / m

        def kernel_rrd(r_out, r_in, delta):
            return kernel(r_out, delta, r_in, 0.0)
    elif form == "depth":
        if diag_correct is None:
            diag_correct = False
        radial_factor = grid.radial_weights / m

        def kernel_rrd(r_out, r_in, delta):
            return kernel(delta, 0.0, 1.0 - r_out, 1.0 - r_in)
    else:
        raise ValueError("form must be 'disc' or 'depth'")
    tensor = _stationary_tensor(kernel_rrd, grid, diag_correct)
    t_hat = np.fft.fft(tensor, axis=2)
    f_hat = np.fft.fft(gf.values * radial_factor[:, None], axis=1)
    out_hat = np.einsum("ijw,jw->iw", t_hat, f_hat)
    return GridFunction(grid, np.fft.ifft(out_hat, axis=1))


def bergman_projection_operator(grid: PolarGrid) -> Callable[[GridFunction], GridFunction]:
    """The discretised projection as a grid-to-grid operator."""
    def op(gf: GridFunction) -> GridFunction:
        return apply_kernel_operator(
            lambda r, t, rho, phi: bergman_kernel(
                r * np.exp(1j * np.asarray(t, dtype=float)),
                rho * np.exp(1j * np.asarray(phi, dtype=float))),
            gf, form="disc")
    return op


# -- discrete mixed norms ------------------------------------------------------

def grid_mixed_norm(gf: GridFunction, pq) -> float:
    """Discrete mixed norm: plain-dr radial weights, uniform angular mean."""
    pq = as_pair(pq)
    vals = np.abs(gf.values)
    w = gf.grid.radial_weights
    if pq.p.is_finite:
        pf = float(pq.p)
        inner = (w @ vals ** pf) ** (1.0 / pf)
    else:
        inner = vals.max(axis=0)
    if pq.q.is_finite:
        qf = float(pq.q)
        return float(np.mean(inner ** qf) ** (1.0 / qf))
    return float(inner.max())


# -- maximal operators ---------------------------------------------------------

def running_average_maximal(values: Sequence[float], nodes: Sequence[float],
                            x: float) -> float:
    """sup over t in [x, 1] of (1/t) int_0^t f, for f >= 0 on a mesh of [0, 1].

    ``nodes`` must start at 0 and end at 1; the integrand is the piecewise
    linear interpolant of ``values``, so constants are reproduced exactly
    and the result is nonincreasing in x.  Returns 0 for x >= 1.
    """
    if x >= 1.0:
        return 0.0
    x = max(x, 0.0)
    t = np.asarray(nodes, dtype=float)
    v = np.asarray(values, dtype=float)
    if t[0] != 0.0 or t[-1] != 1.0:
        raise ValueError("mesh must span [0, 1]")
    prefix = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t))])
    # prefix/t is monotone between nodes, so candidate maximisers are the
    # nodes in (x, 1] plus the point x itself.
    best = 0.0
    mask = t > x
    if np.any(mask):
        with np.errstate(divide="ignore", invalid="ignore"):
            best = float(np.max(prefix[mask] / t[mask]))
    if x > 0.0:
        sx = float(np.interp(x, t, prefix))
        best = max(best, sx / x)
    return best


def circle_maximal(samples: Sequence[float]) -> np.ndarray:
    """Centred discrete Hardy-Littlewood maximal function on the circle.

    Windows are symmetric runs of whole mesh steps, wrapping periodically;
    the zero-width window is the point itself, so the output dominates the
    input.
    """
    v = np.asarray(samples, dtype=float)
    n = v.size
    out = v.copy()
    ext = np.concatenate([v, v, v])
    cs = np.concatenate([[0.0], np.cumsum(ext)])
    idx = np.arange(n) + n
    for k in range(1, n // 2 + 1):
        win = (cs[idx + k + 1] - cs[idx - k]) / (2 * k + 1)
        np.maximum(out, win, out=out)
    return out


# -- randomised operator-norm lower bounds -------------------------------------

def _witness_draws(grid: PolarGrid):
    from .witnesses import power_singularity  # local to avoid cycles
    from .functions import Monomial, RationalBump
    fns = [
        Monomial(0), Monomial(1), Monomial(4), Monomial(16),
        power_singularity(0.3), power_singularity(0.6), power_singularity(0.9),
        RationalBump(0.05, 1.05, 0.7),
    ]
    return [sample_on_grid(f, grid).values for f in fns]


def operator_norm_estimate(op: Callable[[GridFunction], GridFunction], pq,
                           grid: PolarGrid, trials: int = 24,
                           seed: int = 0) -> tuple:
    """Monte Carlo lower bound for the mixed-norm operator norm.

    Trials cycle through Gaussian grid noise, random rank-one profiles
    g(theta) h(r), and sampled witness functions; the bound is the best
    ratio seen and the full (kind, ratio) trace is returned.  Deterministic
    for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    nr, na = grid.shape
    witnesses = _witness_draws(grid)
    best = 0.0
    trace = []
    for t in range(trials):
        kind = ("gaussian", "rank_one", "witness")[t % 3]
        for _ in range(8):  # redraw degenerate zero-norm inputs
            if kind == "gaussian":
                vals = rng.standard_normal((nr, na)) + 1j * rng.standard_normal((nr, na))
            elif kind == "rank_one":
                ang = rng.standard_normal(na) + 1j * rng.standard_normal(na)
                rad = rng.standard_normal(nr) + 1j * rng.standard_normal(nr)
                vals = np.outer(rad, ang)
            else:
                vals = witnesses[(t // 3) % len(witnesses)]
            gf = GridFunction(grid, np.ascontiguousarray(vals, dtype=complex))
            denom = grid_mixed_norm(gf, pq)
            if denom > 0.0 and math.isfinite(denom):
                break
        else:
            continue
        ratio = grid_mixed_norm(op(gf), pq) / denom
        trace.append((kind, float(ratio)))
        best = max(best, float(ratio))
    return best, trace


# -- duality pairing and the boundary-wedge inequalities ------------------------

def save_grid_function(gf: GridFunction, csv_path, sidecar_path=None) -> None:
    """Write grid samples as radius-major CSV plus a JSON grid sidecar.

    Rows run over radii, columns over angles, each cell `re+imj`; the
    sidecar (default: csv_path + '.json') carries the radii, angles and
    radial weights needed to rebuild the grid exactly.
    """
    csv_path = Path(csv_path)
    sidecar_path = Path(sidecar_path) if sidecar_path else \
        csv_path.with_suffix(csv_path.suffix + ".json")
    lines = [",".join(f"{float(c.real)!r} {float(c.imag)!r}" for c in row)
             for row in gf.values]
    csv_path.write_text("\n".join(lines) + "\n")
    sidecar_path.write_text(json.dumps({
        "radii": list(map(float, gf.grid.radii)),
        "angles": list(map(float, gf.grid.angles)),
        "radial_weights": list(map(float, gf.grid.radial_weights)),
        "layout": "radius-major",
    }))


def load_grid_function(csv_path, sidecar_path=None) -> GridFunction:
    """Inverse of :func:`save_grid_function`; the round trip is lossless."""
    csv_path = Path(csv_path)
    sidecar_path = Path(sidecar_path) if sidecar_path else \
        csv_path.with_suffix(csv_path.suffix + ".json")
    meta = json.loads(sidecar_path.read_text())
    grid = PolarGrid.of(np.asarray(meta["radii"]), np.asarray(meta["angles"]),
                        np.asarray(meta["radial_weights"]))
    rows = []
    for line in csv_path.read_text().splitlines():
        rows.append([complex(float(re), float(im))
                     for re, im in (cell.split() for cell in line.split(","))])
    return GridFunction(grid, np.asarray(rows, dtype=complex))


def duality_pairing(f, g, grid: PolarGrid) -> complex:
    """int f conj(g) over the unit-mass area measure, on the grid."""
    fv = _values_of(f, grid)
    gv = _values_of(g, grid)
    return complex(np.sum(grid.weights * fv * np.conjugate(gv)))


def stolz_wedge_inequalities(z: complex, w: complex) -> tuple:
    """The three wedge inequalities for a pair of points.

    Returns (|1-z| / (1-|z|), argument bound ok, squared-ratio real-part
    bound ok); the first component always lies in [1, sqrt(5)/2] on the
    wedge.  Points outside the wedge are rejected.
    """
    z, w = complex(z), complex(w)
    if not (in_stolz_wedge(z) and in_stolz_wedge(w)):
        raise ValueError("both points must lie in the boundary wedge")
    ratio1 = abs(1.0 - z) / (1.0 - abs(z))
    quot = (1.0 - z) / (1.0 - w)
    arg_ok = abs(np.angle(quot)) <= math.atan(0.5)
    q2 = quot * quot
    re_ok = q2.real >= 0.6 * abs(q2)
    return ratio1, bool(arg_ok), bool(re_ok)
