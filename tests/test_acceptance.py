"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single `[criterion N] PASS|FAIL (time)` line.  Two
sub-assertions are expected to fail and are kept faithful to their stated
thresholds rather than loosened; the analysis lives in the project notes:

* criterion 6b: the excluded-point ratio growth from n=16 to n=256 is
  measured at 1.19x-1.43x across the six flagged cells (its idealised
  closed form caps it at 1.66x), below the stated 2x;
* criterion 9a: the log-log blow-up slope over a in {0.8..0.975} is
  -0.72 (p=2) / -0.58 (p=4) for the honest area-measure projection
  (verified against an independent adaptive-quadrature oracle), outside
  -1/p +- 0.15.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import radmix as rm
from radmix import ExponentPair, QuadratureConfig
from radmix.meshes import angular_distance, graded_radial_mesh
from radmix.theorems import NormCache, compactness_witness_scan, inclusion_witness_scan

SEED = 20260810


def _report(num: str, ok: bool, t0: float, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({time.time() - t0:.1f} s) {detail}")
    return ok


def test_criterion_01_monomial_closed_form():
    t0 = time.time()
    cfg = QuadratureConfig(theta_count=16, radial_levels=12, refine_max=4,
                           rel_tol=1e-4)
    worst = 0.0
    for p in (1, 2, 4):
        for q in (1, 2, 4, "inf"):
            for n in range(65):
                v = rm.mixed_norm(rm.Monomial(n), (p, q), cfg).value
                exact = (1 + n * p) ** (-1 / p)
                worst = max(worst, abs(v - exact) / exact)
    ok = worst <= 1e-4 and time.time() - t0 <= 30
    assert _report("1", ok, t0, f"worst rel err {worst:.2e}")


def test_criterion_02_membership_frontier():
    t0 = time.time()
    cfg = QuadratureConfig(theta_count=64, radial_levels=12, refine_max=12,
                           rel_tol=0.02)
    ok = True
    for p in (1, 2, 4):
        for q in (1, 2, 4):
            s = 1 / p + 1 / q
            for c, member in ((0.9, True), (1.1, False)):
                est = rm.mixed_norm(rm.power_singularity(c * s), (p, q), cfg)
                ok &= est.converged == member
                if not member:
                    ok &= (est.divergence_exponent is not None
                           and est.divergence_exponent > 0)
    ok &= time.time() - t0 <= 120
    assert _report("2", ok, t0, "18 verdicts at the iff-threshold")


def test_criterion_03_lacunary_q_independence():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    cfg = QuadratureConfig(radial_levels=14, refine_max=6, rel_tol=0.01)
    worst_width = 0.0
    ok = True
    for p in (1, 2):
        for _ in range(20):
            coeffs = rng.standard_normal(13) + 1j * rng.standard_normal(13)
            f = rm.Lacunary(tuple((2 ** k, coeffs[k]) for k in range(13)))
            rhs = sum(abs(coeffs[k]) ** p / 2 ** k for k in range(13)) ** (1 / p)
            ratios = [rm.mixed_norm(f, (p, q), cfg).value / rhs
                      for q in (1, 2, 4, "inf")]
            width = max(ratios) / min(ratios)
            worst_width = max(worst_width, width)
            ok &= width <= 4.0
            ok &= all(0.25 <= r <= 4.0 for r in ratios)
    ok &= time.time() - t0 <= 120
    assert _report("3", ok, t0, f"worst q-bracket width {worst_width:.2f}x")


def test_criterion_04_functional_exponents():
    t0 = time.time()
    cfg = QuadratureConfig(radial_levels=14, refine_max=8, rel_tol=5e-3)
    zs = [1 - 2.0 ** -k for k in range(3, 9)]
    ok = True
    details = []
    for (p, q) in ((2, 2), (2, 4), (4, 2)):
        cache = NormCache(cfg)
        fp = rm.evaluation_functional_fit((p, q), "point", zs, cfg, cache=cache)
        fd = rm.evaluation_functional_fit((p, q), "derivative", zs, cfg,
                                          cache=cache)
        target = 1 / p + 1 / q
        ok &= abs(fp.slope - target) <= 0.1
        ok &= abs(fd.slope - fp.slope - 1.0) <= 0.1
        details.append(f"({p},{q}): {fp.slope:.3f}/{fd.slope - fp.slope:.3f}")
    ok &= time.time() - t0 <= 120
    assert _report("4", ok, t0, "; ".join(details))


def test_criterion_05_embedding_construction():
    t0 = time.time()
    from radmix.witnesses import normalization_integral
    ok = True
    for p in (1, 2, 4):
        params = rm.embedding_params(p, 16)
        ok &= min(params.disc_margins()) > 0.0
        ok &= params.height_ratio_total_bound() < 1.0
        ok &= all(abs(normalization_integral(params, k) - 1.0) <= 1e-10
                  for k in range(16))
        ok &= all(abs(t) < math.pi for t in params.theta)
        low = 1.0 - params.height_ratio_total_bound()
        cfg = QuadratureConfig(theta_count=64, radial_levels=40, refine_max=2,
                               rel_tol=0.02, sup_sample_count=256)
        for n in range(9):
            f = rm.embedding_function(params, [0.0] * n + [1.0])
            v = rm.mixed_norm(f, (p, "inf"), cfg).value
            ok &= v >= low * 0.95
            ok &= v <= 3.0 * 1.05
    ok &= time.time() - t0 <= 60
    assert _report("5", ok, t0, "exact invariants + finite-section bounds")


GRID5 = [1, Fraction(4, 3), 2, 4, "inf"]
SCAN_CFG = QuadratureConfig(theta_count=64, radial_levels=12, refine_max=8,
                            rel_tol=0.02)


@pytest.fixture(scope="module")
def inclusion_scan_results():
    cache = NormCache(SCAN_CFG)
    out = {}
    for p0 in GRID5:
        for q0 in GRID5:
            for p in GRID5:
                for q in GRID5:
                    out[(p0, q0, p, q)] = inclusion_witness_scan(
                        p0, q0, p, q, SCAN_CFG, cache)
    return out, cache


def test_criterion_06a_inclusion_compactness_agreement(inclusion_scan_results):
    t0 = time.time()
    scans, cache = inclusion_scan_results
    decided = disagreements = 0
    for verdict in scans.values():
        a = verdict.agreement()
        if a is not None:
            decided += 1
            disagreements += 0 if a else 1
    ok = disagreements == 0 and decided >= 600
    comp_bad = 0
    for p0 in GRID5:
        for q0 in GRID5:
            for p in GRID5:
                for q in GRID5:
                    rep = compactness_witness_scan(p0, q0, p, q, SCAN_CFG, cache)
                    if rep["verdict"] == "inconclusive":
                        continue
                    if (rep["verdict"] == "compact-consistent") != rep["predicted"]:
                        comp_bad += 1
    ok &= comp_bad == 0
    ok &= time.time() - t0 <= 600
    assert _report(
        "6a", ok, t0,
        f"{decided}/625 inclusion cells decided, {disagreements} disagree; "
        f"{comp_bad} compactness disagreements")


def test_criterion_06b_excluded_point_growth(inclusion_scan_results):
    t0 = time.time()
    scans, _ = inclusion_scan_results
    flagged = [key for key, v in scans.items() if v.excluded_point]
    expected = {(p0, q0, p, q)
                for p0 in GRID5 for q0 in GRID5 for p in GRID5 for q in GRID5
                if rm.inclusion_region_contains(p0, q0, p, q)[1]}
    ok = set(flagged) == expected and len(flagged) == 6
    growths = {}
    cfg = QuadratureConfig(radial_levels=14, refine_max=8, rel_tol=5e-3)
    for (p0, q0, p, q) in flagged:
        src, dst = ExponentPair.of(p0, q0), ExponentPair.of(p, q)
        alpha = 1.0 / float(src.reciprocal_sum())
        ratio = {}
        for n in (16, 256):
            f = rm.cesaro_power(n, alpha)
            ratio[n] = (rm.mixed_norm(f, dst, cfg).value
                        / rm.mixed_norm(f, src, cfg).value)
        growths[(p0, q0, p, q)] = ratio[256] / ratio[16]
    grown = min(growths.values()) >= 2.0 if growths else False
    detail = ("flagged cells " + ("ok" if ok else "WRONG") + "; growths " +
              ", ".join(f"{v:.2f}x" for v in growths.values()) +
              " (threshold 2x; see notes: log-rate witness cannot reach "
              "2x by n=256)")
    _report("6b", ok and grown, t0, detail)
    assert ok, "excluded-point flags wrong"
    assert grown, ("excluded-point ratio growth below the stated 2x: "
                   + detail)


def test_criterion_07_kernel_chain():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    n = 10 ** 6
    r, rho = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    th, ph = rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 2 * np.pi, n)
    x, y = rng.uniform(1e-12, 1, n), rng.uniform(1e-12, 1, n)
    d = angular_distance(th - ph)
    K = np.abs(rm.bergman_kernel(r * np.exp(1j * th), rho * np.exp(1j * ph)))
    D = rm.kernel_capped(r, th, rho, ph)
    v1 = int(np.sum((d <= 1.0) & (K > 4 * D)))
    Ht = rm.kernel_capped_depth(th, ph, x, y)
    Dxy = rm.kernel_capped(1 - x, th, 1 - y, ph)
    v2 = int(np.sum(Ht / 4 > Dxy) + np.sum(Dxy > Ht))
    H = rm.kernel_offdiag(th, ph, x, y)
    v3 = int(np.sum(H > Ht))
    S = np.zeros(n)
    for m in range(41):
        S += rm.kernel_offdiag_dilated(m, th, ph, x, y)
    v4 = int(np.sum(Ht > 3 * S))
    ok = v1 == v2 == v3 == v4 == 0 and time.time() - t0 <= 30
    assert _report("7", ok, t0, f"violations {v1}/{v2}/{v3}/{v4} of 1e6")


def test_criterion_08_projection_identity_and_pairing():
    t0 = time.time()
    grid = rm.PolarGrid.build(128, 128)
    pts = [0.0, 0.3, 0.5j, -0.4 + 0.2j, 0.55 * np.exp(2.1j)]
    worst_p = max(abs(rm.project(rm.Monomial(n), z, grid) - z ** n)
                  for n in range(9) for z in pts)
    worst_d = max(abs(rm.duality_pairing(rm.Monomial(n), rm.Monomial(n), grid)
                      - 1 / (n + 1)) for n in range(9))
    ok = worst_p <= 1e-3 and worst_d <= 1e-4 and time.time() - t0 <= 60
    assert _report("8", ok, t0,
                   f"identity err {worst_p:.1e}, pairing err {worst_d:.1e}")


def test_criterion_09a_blowup_slope():
    t0 = time.time()
    avals = np.array([0.8, 0.9, 0.95, 0.975])
    slopes = {}
    for p in (2, 4):
        dens = rm.projection_blowup_density(p)
        grid = rm.PolarGrid.build(4096, 224, nodes_per_cell=16)
        gf = rm.sample_on_grid(dens, grid)
        pv = np.array([abs(rm.project(gf, a, grid)) for a in avals])
        slopes[p] = float(np.polyfit(np.log(1 - avals), np.log(pv), 1)[0])
    ok = all(abs(slopes[p] + 1 / p) <= 0.15 for p in (2, 4))
    detail = (f"slopes {slopes[2]:.3f} (target -0.5), {slopes[4]:.3f} "
              "(target -0.25); see notes: the honest projection's slope at "
              "these a is genuinely steeper (oracle-verified)")
    _report("9a", ok, t0, detail)
    assert ok, "blow-up slope outside -1/p +- 0.15: " + detail


def test_criterion_09b_blowup_growth_and_ray_bound():
    t0 = time.time()
    avals = np.array([0.8, 0.9, 0.95, 0.975])
    ok = True
    r, w = graded_radial_mesh(20)
    for p in (2, 4):
        dens = rm.projection_blowup_density(p)
        grid = rm.PolarGrid.build(4096, 224, nodes_per_cell=16)
        gf = rm.sample_on_grid(dens, grid)
        pv = np.array([abs(rm.project(gf, a, grid)) for a in avals])
        ok &= bool(np.all(np.diff(pv) > 0))          # |P(f)(a)| grows
        for th in (np.arange(64) + 0.5) / 64 * 0.5:  # 64 sampled rays
            val = float(w @ np.abs(dens(r, th)) ** p)
            ok &= val <= dens.ray_integral_bound()
    ok &= time.time() - t0 <= 120
    assert _report("9b", ok, t0, "growth + ray-wise p-integral bound")


def test_criterion_10_wedge_monte_carlo():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    n = 10 ** 6
    t1 = rng.uniform(0, 0.5, n)
    r1 = rng.uniform(0, 1, n) * (1 - 2 * t1)
    t2 = rng.uniform(0, 0.5, n)
    r2 = rng.uniform(0, 1, n) * (1 - 2 * t2)
    z = r1 * np.exp(1j * t1)
    wv = r2 * np.exp(1j * t2)
    ratio1 = np.abs(1 - z) / (1 - np.abs(z))
    c1 = int(np.sum((ratio1 < 1.0) | (ratio1 > math.sqrt(5) / 2)))
    quot = (1 - z) / (1 - wv)
    c2 = int(np.sum(np.abs(np.angle(quot)) > math.atan(0.5)))
    q2 = quot * quot
    c3 = int(np.sum(q2.real < 0.6 * np.abs(q2)))
    ok = c1 == c2 == c3 == 0 and time.time() - t0 <= 30
    assert _report("10", ok, t0, f"violations {c1}/{c2}/{c3} of 1e6 pairs")


def test_criterion_11_property_suites():
    t0 = time.time()
    cfg = QuadratureConfig()
    rng = np.random.default_rng(SEED)
    ok = True

    # Hoelder monotonicity / homogeneity / triangle / rotation invariance
    for _ in range(5):
        f = rm.TaylorPolynomial(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        g = rm.TaylorPolynomial(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        for (p, q), (p0, q0) in (((1, 2), (2, 4)), ((2, 2), (4, 4)),
                                 ((1, 1), (2, 2))):
            ok &= (rm.mixed_norm(f, (p, q), cfg).value
                   <= rm.mixed_norm(f, (p0, q0), cfg).value
                   * (1 + 2 * cfg.rel_tol))
        base = rm.mixed_norm(f, (2, 3), cfg).value
        scaled = rm.mixed_norm(rm.Sum(((1.5 - 2j, f),)), (2, 3), cfg).value
        ok &= abs(scaled - abs(1.5 - 2j) * base) <= 1e-11 * scaled
        tri = rm.mixed_norm(rm.Sum(((1.0, f), (1.0, g))), (2, 2), cfg).value
        ok &= tri <= (rm.mixed_norm(f, (2, 2), cfg).value
                      + rm.mixed_norm(g, (2, 2), cfg).value) * (1 + 1e-9)
        phi = rng.uniform(0, 2 * np.pi)
        ok &= abs(rm.mixed_norm(rm.rotate(f, phi), (2, 2), cfg).value -
                  rm.mixed_norm(f, (2, 2), cfg).value) <= cfg.rel_tol * base

    # running-average maximal dominated by the windowed maximal
    nodes = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 60)), [1.0]])
    vals = rng.uniform(0, 5, nodes.size)
    prefix = np.concatenate(
        [[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(nodes))])
    for x in (0.0, 0.2, 0.6, 0.9):
        rv = rm.running_average_maximal(vals, nodes, x)
        best = max((prefix[b] - prefix[a]) / (nodes[b] - nodes[a])
                   for a in range(nodes.size) if nodes[a] <= x
                   for b in range(a + 1, nodes.size) if nodes[b] >= x)
        ok &= rv <= best + 1e-12

    # Lemma-4.4-type bilinear bound, discretised
    m, k = 32, 96
    mids = (np.arange(k) + 0.5) / k
    th = 2 * np.pi * np.arange(m) / m
    fv = rng.uniform(0, 1, (m, k))
    gv = rng.uniform(0, 1, (m, k))
    nds = np.concatenate([[0.0], mids, [1.0]])
    ext = lambda v: np.concatenate([[v[0]], v, [v[-1]]])
    dth, wm = 2 * np.pi / m, 1.0 / k
    lhs = 0.0
    for i in range(m):
        hmat = rm.kernel_offdiag(th[i], th[:, None, None],
                                 mids[None, :, None], mids[None, None, :])
        tf = np.einsum("jkl,jl->k", hmat, fv) * wm * dth
        lhs += dth * wm * float(np.sum(gv[i] * tf))
    rhs = 0.0
    for i in range(m):
        for j in range(m):
            dd = float(angular_distance(th[i] - th[j]))
            rhs += dth * dth * rm.running_average_maximal(ext(fv[j]), nds, dd) \
                * rm.running_average_maximal(ext(gv[i]), nds, dd)
    ok &= lhs <= 1.05 * rhs

    # dilation convergence toward the boundary
    out = rm.dilation_convergence(rm.power_singularity(0.4), (2, 2),
                                  [0.9, 0.99, 0.999], cfg)
    seq = [v for _, v in out]
    ok &= seq[0] > seq[1] > seq[2]

    assert _report("11", ok, t0, "property suites at stated tolerances")
