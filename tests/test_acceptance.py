"""Acceptance criteria, one test per criterion, at the stated tolerances.

Criteria 1-4, 7, 9a, 9b and 10 assert their thresholds on the rows of the
table functions in `radmix.cli`, the rows `radmix report` writes.

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
from radmix.cli import (BLOWUP_GRID, SCAN_CFG, blowup_profile, frontier_rows,
                        functional_rows, kernel_chain_violations, lacunary_rows,
                        monomial_rows, wedge_violations)
from radmix.meshes import angular_distance
from radmix.theorems import NormCache, compactness_witness_scan, inclusion_witness_scan

SEED = 20260810


def _report(num: str, ok: bool, t0: float, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({time.time() - t0:.1f} s) {detail}")
    return ok


def test_criterion_01_monomial_closed_form():
    t0 = time.time()
    worst = max(abs(v - exact) / exact
                for *_, v, exact in monomial_rows(range(65)))
    ok = worst <= 1e-4 and time.time() - t0 <= 30
    assert _report("1", ok, t0, f"worst rel err {worst:.2e}")


def test_criterion_02_membership_frontier():
    t0 = time.time()
    ok = True
    for p, q, alpha, converged, exponent in frontier_rows():
        member = alpha < 1 / p + 1 / q
        ok &= converged == member
        if not member:
            ok &= exponent is not None and exponent > 0
    ok &= time.time() - t0 <= 120
    assert _report("2", ok, t0, "18 verdicts at the iff-threshold")


def test_criterion_03_lacunary_q_independence():
    t0 = time.time()
    rows = lacunary_rows(np.random.default_rng(SEED))
    worst_width = max(width for *_, width in rows)
    ok = all(width <= 4.0 and 0.25 <= lo and hi <= 4.0
             for _, _, lo, hi, width in rows)
    ok &= time.time() - t0 <= 120
    assert _report("3", ok, t0, f"worst q-bracket width {worst_width:.2f}x")


def test_criterion_04_functional_exponents():
    t0 = time.time()
    rows = functional_rows()
    ok = True
    details = []
    for (p, q, _, sp, _), (_, _, _, sd, _) in zip(rows[::2], rows[1::2]):
        ok &= abs(sp - (1 / p + 1 / q)) <= 0.1
        ok &= abs(sd - sp - 1.0) <= 0.1
        details.append(f"({p},{q}): {sp:.3f}/{sd - sp:.3f}")
    ok &= time.time() - t0 <= 120
    assert _report("4", ok, t0, "; ".join(details))


def test_criterion_05_embedding_construction():
    t0 = time.time()
    from radmix.witnesses import normalization_integral
    ok = True
    for p in (1, 2, 4):
        params = rm.EmbeddingParams(p, 16)
        ok &= min(params.disc_margins()) > 0.0
        ok &= params.height_ratio_total_bound() < 1.0
        ok &= all(abs(normalization_integral(params, k) - 1.0) <= 1e-10
                  for k in range(16))
        ok &= all(abs(t) < math.pi for t in params.theta)
        low = 1.0 - params.height_ratio_total_bound()
        cfg = QuadratureConfig(theta_count=64, radial_levels=40, refine_max=2,
                               rel_tol=0.02)
        for n in range(9):
            f = rm.embedding_function(params, [0.0] * n + [1.0])
            v = rm.mixed_norm(f, (p, "inf"), cfg).value
            ok &= v >= low * 0.95
            ok &= v <= 3.0 * 1.05
    ok &= time.time() - t0 <= 60
    assert _report("5", ok, t0, "exact invariants + finite-section bounds")


GRID5 = [1, Fraction(4, 3), 2, 4, "inf"]


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
    v1, v2, v3, v4 = kernel_chain_violations(np.random.default_rng(SEED),
                                             10 ** 6).values()
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


@pytest.fixture(scope="module")
def blowup_profiles():
    grid = rm.PolarGrid.build(**BLOWUP_GRID)
    return {p: blowup_profile(p, grid) for p in (2, 4)}


def test_criterion_09a_blowup_slope(blowup_profiles):
    t0 = time.time()
    slopes = {p: slope for p, (_, slope, _) in blowup_profiles.items()}
    ok = all(abs(slopes[p] + 1 / p) <= 0.15 for p in (2, 4))
    detail = (f"slopes {slopes[2]:.3f} (target -0.5), {slopes[4]:.3f} "
              "(target -0.25); see notes: the honest projection's slope at "
              "these a is genuinely steeper (oracle-verified)")
    _report("9a", ok, t0, detail)
    assert ok, "blow-up slope outside -1/p +- 0.15: " + detail


def test_criterion_09b_blowup_growth_and_ray_bound(blowup_profiles):
    t0 = time.time()
    ok = True
    for p, (values, _, worst_ray) in blowup_profiles.items():
        ok &= bool(np.all(np.diff(values) > 0))      # |P(f)(a)| grows
        ok &= worst_ray <= rm.projection_blowup_density(p).ray_integral_bound()
    ok &= time.time() - t0 <= 120
    assert _report("9b", ok, t0, "growth + ray-wise p-integral bound")


def test_criterion_10_wedge_monte_carlo():
    t0 = time.time()
    c1, c2, c3 = wedge_violations(np.random.default_rng(SEED),
                                  10 ** 6).values()
    ok = c1 == c2 == c3 == 0 and time.time() - t0 <= 30
    assert _report("10", ok, t0, f"violations {c1}/{c2}/{c3} of 1e6 pairs")


def test_criterion_11_property_suites():
    t0 = time.time()
    cfg = QuadratureConfig()
    rng = np.random.default_rng(SEED)
    ok = True

    # Hoelder monotonicity / homogeneity / triangle / rotation invariance
    for _ in range(5):
        coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        f = rm.TaylorPolynomial(coeffs)
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
        # z -> f(e^(i phi) z) has the coefficients c_k e^(i k phi)
        phi = rng.uniform(0, 2 * np.pi)
        rotated = rm.TaylorPolynomial(coeffs * np.exp(1j * phi) ** np.arange(7))
        ok &= abs(rm.mixed_norm(rotated, (2, 2), cfg).value -
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
        hmat = rm.kernel_offdiag(angular_distance(th[i] - th[:, None, None]),
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
