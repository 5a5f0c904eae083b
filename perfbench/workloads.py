"""The three seeded benchmark workloads over the radmix library API.

Each workload builds its inputs from the seed in ``__init__`` (this is the
set-up the benchmark times) and then runs any number of identical passes.
A pass returns the start and end of every item it timed and the outcome of
every output check.  Passes call ``tick`` between items, never inside one:
the harness probes the host's speed there (see speed.py).  Library
functions are looked up on their modules at call time, so that the traced
run can wrap them in place.

Why these workloads (see NOTES.md for the layer-to-metric table):

* ``inclusion_scan`` is the only workload that reaches ``theorems`` and the
  shared ``NormCache``; it also covers the q = inf sup branch, divergence
  detection and ``PowerSingularity`` / ``CesaroPower`` evaluation.
* ``lacunary_norms`` spends nearly all its time in ``Lacunary`` evaluation
  under the refinement driver and bypasses ``theorems`` and the cache.
* ``bergman_grid`` is the only workload that reaches ``bergman``, both as a
  grid-to-grid tensor apply and as point quadrature; it bypasses ``norms``
  and ``theorems``.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from radmix import bergman, functions, norms, theorems, witnesses

HERE = Path(__file__).resolve().parent


class PassResult:
    """Item latencies and check outcomes of one pass."""

    def __init__(self):
        self.items: list = []   # (start, end) of every timed item
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.counts: dict = {}
        self.table = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _no_tick() -> None:
    pass


def _timed(fn, sink: list, tick):
    """``fn`` with ``tick`` before every call and the call's (start, end)
    appended to ``sink``."""
    def timed(*args, **kwargs):
        tick()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        sink.append((t0, time.perf_counter()))
        return out
    return timed


# -- inclusion_scan -----------------------------------------------------------

# The acceptance scan configuration of the 625-cell criterion-6 scan.
SCAN_CFG = dict(theta_count=64, radial_levels=12, refine_max=8, rel_tol=0.02)
# Three of the five acceptance exponents: keeps q = inf, one excluded
# boundary pair, 18 divergent estimates and ~89% cache reuse at 81 cells.
SCAN_GRID = (1, 2, "inf")
# The acceptance scan asks for 600 of 625 cells decided.
DECIDED_SHARE = 600 / 625


class _TimedNormCache(theorems.NormCache):
    """A NormCache that records every lookup computing a new estimate and
    calls ``tick`` before every lookup.

    A miss is recognised by the cache returning an estimate object it has
    not returned before in this pass; hits return the stored object.
    """

    def __init__(self, cfg, tick):
        super().__init__(cfg)
        self.tick = tick
        self.computed: list = []
        self._returned: set = set()

    def norm(self, key, f, pq, angle_offset=0.0):
        self.tick()
        t0 = time.perf_counter()
        est = super().norm(key, f, pq, angle_offset)
        if id(est) not in self._returned:
            self._returned.add(id(est))
            self.computed.append((t0, time.perf_counter()))
        return est


def _cell_key(cell) -> str:
    return ",".join(str(x) for x in cell)


class InclusionScan:
    """Inclusion witness scan over every cell of an exponent grid.

    The seed permutes the order of the cells, which changes which cell pays
    for each shared norm but must change no verdict.  Items are the norm
    estimates the scan computes (cache misses): per-cell latency depends on
    that seeded order, the cost of each distinct estimate does not.
    """

    name = "inclusion_scan"
    # A median over three passes: the scan's tail items (about 150 ms) vary
    # by about 8% from pass to pass, and a mean of two keeps half of that.
    min_passes = 3

    def __init__(self, seed: int, grid=SCAN_GRID):
        self.cfg = norms.QuadratureConfig(**SCAN_CFG)
        cells = list(itertools.product(grid, repeat=4))
        order = np.random.default_rng(seed).permutation(len(cells))
        self.cells = [cells[i] for i in order]
        # the reference table covers SCAN_GRID only
        self.reference = None
        if tuple(grid) == SCAN_GRID:
            path = HERE / "scan_verdicts.json"
            self.reference = json.loads(path.read_text())["verdicts"]

    def run_pass(self, op_wrapper=None, tick=_no_tick) -> PassResult:
        res = PassResult()
        cache = _TimedNormCache(self.cfg, tick)
        table = {}
        decided = disagreements = 0
        for cell in self.cells:
            tick()
            v = theorems.inclusion_witness_scan(*cell, self.cfg, cache)
            key = _cell_key(cell)
            table[key] = [v.included, v.excluded_point, v.witness_conclusion()]
            agreement = v.agreement()
            decided += agreement is not None
            disagreements += agreement is False
            contained, excluded = theorems.inclusion_region_contains(*cell)
            ok = (agreement is not False
                  and v.included == (contained and not excluded)
                  and v.excluded_point == excluded)
            if self.reference is not None:
                ok &= self.reference.get(key) == table[key]
            res.check(ok, f"cell {key}: {table[key]}")
        if decided < DECIDED_SHARE * len(self.cells):
            res.problems.append(f"only {decided}/{len(self.cells)} decided")
            res.failed += len(self.cells) - decided
        res.items = cache.computed
        res.table = table
        res.counts = {
            "theorems.inconclusive_cells": len(self.cells) - decided,
            "theorems.disagreements": disagreements,
        }
        return res


# -- lacunary_norms -----------------------------------------------------------

LACUNARY_CFG = dict(radial_levels=14, refine_max=6, rel_tol=0.01)
LACUNARY_QS = (1, 2, 4, "inf")


class LacunaryNorms:
    """Mixed norms of seeded lacunary series against the l^p closed form.

    Half of the series are measured at p = 1 and half at p = 2, each at
    every q in LACUNARY_QS, as in acceptance criterion 3 (which uses twice
    as many series).  No cache: every estimate is computed.
    """

    name = "lacunary_norms"
    min_passes = 2

    def __init__(self, seed: int, series: int = 20, nodes: int = 13):
        self.cfg = norms.QuadratureConfig(**LACUNARY_CFG)
        rng = np.random.default_rng(seed)
        self.series = []
        for i in range(series):
            p = 1 if i < series // 2 else 2
            coeffs = rng.standard_normal(nodes) + 1j * rng.standard_normal(nodes)
            f = functions.Lacunary(tuple((2 ** k, coeffs[k])
                                         for k in range(nodes)))
            closed = sum(abs(coeffs[k]) ** p / 2 ** k
                         for k in range(nodes)) ** (1 / p)
            self.series.append((f, p, closed))

    def run_pass(self, op_wrapper=None, tick=_no_tick) -> PassResult:
        res = PassResult()
        mixed_norm = _timed(norms.mixed_norm, res.items, tick)
        for f, p, closed in self.series:
            ests = [mixed_norm(f, (p, q), self.cfg) for q in LACUNARY_QS]
            ratios = [e.value / closed for e in ests]
            width_ok = max(ratios) <= 4.0 * min(ratios)
            for q, e, r in zip(LACUNARY_QS, ests, ratios):
                res.check(e.converged and 0.25 <= r <= 4.0 and width_ok,
                          f"p={p} q={q}: ratio {r:.3g}, converged "
                          f"{e.converged}, bracket ok {width_ok}")
        return res


# -- bergman_grid -------------------------------------------------------------

OPERATOR_GRID = 128
OPERATOR_TRIALS = 12
# Criterion-8 thresholds for the projection identity and the pairing.
IDENTITY_TOL = 1e-3
PAIRING_TOL = 1e-4
# P is the orthogonal projection, so its discrete (2, 2) norm is 1 up to
# quadrature error; the 128 and 192 grids give lower bounds near 0.998.
OPERATOR_BOUND = 1.02
BLOWUP_GRID = (4096, 224, 16)
BLOWUP_RADII = 16


class BergmanGrid:
    """Grid apply and point quadrature of the discretised projection.

    ``operator_norm_estimate`` of the projection on an n x n grid (each
    trial applies the operator once, building an n*n*n complex tensor), the
    projection identity and pairing for z^0 .. z^4 at seeded interior
    points, and the projection of the p = 2 wedge density at seeded radii
    in [0.8, 0.99) on the blow-up grid of criterion 9.
    """

    name = "bergman_grid"
    min_passes = 2

    def __init__(self, seed: int, n: int = OPERATOR_GRID,
                 trials: int = OPERATOR_TRIALS, blowup_grid=BLOWUP_GRID,
                 radii: int = BLOWUP_RADII):
        rng = np.random.default_rng(seed)
        self.n, self.trials, self.blowup_grid = n, trials, blowup_grid
        self.op_seed = int(rng.integers(2 ** 31))
        self.points = (rng.uniform(0.0, 0.6, 5)
                       * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 5)))
        # one radius per stratum keeps neighbours apart for the growth check
        step = 0.19 / radii
        self.radii = 0.8 + step * (np.arange(radii)
                                   + rng.uniform(0.1, 0.9, radii))
        self.monomials = [functions.Monomial(k) for k in range(5)]
        self.density = witnesses.projection_blowup_density(2)

    def run_pass(self, op_wrapper=None, tick=_no_tick) -> PassResult:
        res = PassResult()
        grid = bergman.PolarGrid.build(self.n, self.n)
        op = _timed(bergman.bergman_projection_operator(grid), res.items, tick)
        if op_wrapper is not None:
            op = op_wrapper(op)
        _, trace = bergman.operator_norm_estimate(
            op, (2, 2), grid, trials=self.trials, seed=self.op_seed)
        for kind, ratio in trace:
            res.check(ratio <= OPERATOR_BOUND, f"{kind} trial ratio {ratio}")
        project = _timed(bergman.project, res.items, tick)
        for k, f in enumerate(self.monomials):
            err = np.max(np.abs(project(f, self.points, grid)
                                - self.points ** k))
            res.check(err <= IDENTITY_TOL, f"identity z^{k}: {err:.2e}")
        pairing = _timed(bergman.duality_pairing, res.items, tick)
        for k, f in enumerate(self.monomials):
            err = abs(pairing(f, f, grid) - 1.0 / (k + 1))
            res.check(err <= PAIRING_TOL, f"pairing z^{k}: {err:.2e}")
        na, nr, per_cell = self.blowup_grid
        big = bergman.PolarGrid.build(na, nr, nodes_per_cell=per_cell)
        gf = _timed(bergman.sample_on_grid, res.items, tick)(self.density,
                                                             big)
        res.check(bool(np.all(np.isfinite(gf.values))), "density not finite")
        prev = 0.0
        for a in self.radii:
            v = abs(project(gf, float(a), big))
            res.check(math.isfinite(v) and v > prev,
                      f"|P f({a:.4f})| = {v:.6g} after {prev:.6g}")
            prev = v
        return res


WORKLOADS = {w.name: w for w in (InclusionScan, LacunaryNorms, BergmanGrid)}
