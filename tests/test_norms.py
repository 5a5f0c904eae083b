import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from radmix import (
    Lacunary,
    Monomial,
    PowerSingularity,
    QuadratureConfig,
    Sum,
    TaylorPolynomial,
    dilate,
    dilation_convergence,
    evaluate,
    mixed_norm,
    mixed_norm_truncated,
    power_singularity,
    radial_integral,
    rotate,
    tail_sup_norm,
    weak_lp_norm,
)
from radmix.meshes import MAX_GRADING_LEVELS, graded_radial_mesh

CFG = QuadratureConfig()
LN2 = 0.6931471805599453  # oracle: int_0^1 dr/(1+r), closed form


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(theta_count=4)
    with pytest.raises(ValueError):
        QuadratureConfig(radial_levels=2)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.5)
    with pytest.raises(ValueError):
        QuadratureConfig.from_dict({"bogus": 1})
    d = CFG.to_dict()
    assert QuadratureConfig.from_dict(d) == CFG


def test_radial_integral_closed_forms():
    assert radial_integral(TaylorPolynomial([1]), 0.7, 3, CFG) == pytest.approx(1.0)
    assert radial_integral(Monomial(1), 0.0, 2, CFG) == pytest.approx(1 / 3)
    # |1 - r e^{i pi}| = 1 + r, so the integrand is 1/(1+r)
    v = radial_integral(PowerSingularity(1.0), math.pi, 1, CFG)
    assert v == pytest.approx(LN2, rel=1e-10)


def test_radial_integral_against_scipy():
    f = Sum(((1.0, PowerSingularity(0.6)), (0.5, Monomial(3))))
    for theta in (0.3, 2.0):
        oracle, _ = integrate.quad(
            lambda r: abs(evaluate(f, r * np.exp(1j * theta))) ** 2, 0, 1,
            limit=200)
        assert radial_integral(f, theta, 2, CFG) == pytest.approx(oracle, rel=1e-8)


def test_radial_sup_branch():
    # p = inf returns the radial supremum; for z^n that approaches 1
    v = radial_integral(Monomial(6), 0.1, "inf", CFG)
    assert 1 - 1e-6 < v <= 1.0
    bump_like = TaylorPolynomial([0.2, 0, 1.0])  # max inside handled by golden pass
    v = radial_integral(bump_like, 0.0, "inf", CFG)
    assert v == pytest.approx(1.2, rel=1e-8)
    # the default 512 samples would need 64 graded levels; the branch takes
    # the deepest grading, 42, as a config asking for 336 samples does
    assert CFG.sup_sample_count // 8 > MAX_GRADING_LEVELS
    capped = replace(CFG, sup_sample_count=8 * MAX_GRADING_LEVELS)
    assert radial_integral(bump_like, 0.0, "inf", capped) == v


def test_graded_mesh_rejects_depth_beyond_cap():
    assert len(graded_radial_mesh(MAX_GRADING_LEVELS)[0]) == 344
    for levels in (0, MAX_GRADING_LEVELS + 1, 64, 100):
        with pytest.raises(ValueError):
            graded_radial_mesh(levels)


def test_monomial_norm_closed_form():
    for p in (1, 2, 4):
        for q in (1, 2, 4, "inf"):
            for n in (0, 1, 7):
                est = mixed_norm(Monomial(n), (p, q), CFG)
                assert est.converged
                assert est.value == pytest.approx((1 + n * p) ** (-1 / p), rel=1e-6)
    # p = inf: sup_r r^n = 1 up to the mesh cap
    est = mixed_norm(Monomial(5), ("inf", 2), CFG)
    assert est.value == pytest.approx(1.0, rel=1e-3)


def test_constant_norm_all_branches():
    one = TaylorPolynomial([1])
    for pq in ((1, 1), (2, 7), (3, "inf"), ("inf", 2), ("inf", "inf")):
        assert mixed_norm(one, pq, CFG).value == pytest.approx(1.0, rel=1e-9)


def test_mixed_norm_against_scipy_oracle():
    alpha = 0.5
    def inner(t):
        val, _ = integrate.quad(
            lambda r: abs(1 - r * np.exp(1j * t)) ** (-2 * alpha), 0, 1, limit=200)
        return val
    outer, _ = integrate.quad(inner, 0, np.pi, limit=200)
    oracle = (outer / np.pi) ** 0.5
    est = mixed_norm(power_singularity(alpha), (2, 2), CFG)
    assert est.converged
    assert est.value == pytest.approx(oracle, rel=2e-3)


def test_all_zero_levels_are_not_convergence():
    # z^(10^9) underflows to 0 on every node of the first levels; the true
    # norm is (2 * 10^9 + 1)^(-1/2), about 2.2e-5
    est = mixed_norm(Monomial(10 ** 9), (2, 2), CFG)
    assert est.trace[0] == (0, 0.0) and est.trace[1] == (1, 0.0)
    assert not est.converged


def test_refinement_stops_at_grading_depth_cap():
    # (1 - z)^(-1.5) lies outside the (2, 2) space; levels beyond the
    # deepest grading would repeat one mesh and agree
    est = mixed_norm(power_singularity(1.5), (2, 2),
                     QuadratureConfig(radial_levels=40))
    assert [lvl for lvl, _ in est.trace] == [0, 1, 2]
    assert not est.converged
    est = mixed_norm(power_singularity(1.5), (2, 2),
                     QuadratureConfig(radial_levels=42))
    assert len(est.trace) == 1 and not est.converged
    # a member still converges within the cap
    est = mixed_norm(Monomial(1), (2, 2), QuadratureConfig(radial_levels=40))
    assert est.converged
    assert est.value == pytest.approx(3 ** -0.5, rel=1e-9)
    with pytest.raises(ValueError):
        QuadratureConfig(radial_levels=43)


def test_divergence_detection_reports_exponent():
    est = mixed_norm(power_singularity(1.2), (2, 2),
                     QuadratureConfig(refine_max=10, rel_tol=0.02))
    assert not est.converged
    assert math.isinf(est.value)
    assert est.divergence_exponent is not None and est.divergence_exponent > 0
    assert len(est.trace) >= 6
    d = est.to_dict()
    assert d["value"] is None and d["divergence_exponent"] > 0


def test_truncated_norm():
    cfg = CFG
    assert mixed_norm_truncated(TaylorPolynomial([1]), (2, 5), 0.5, cfg) == \
        pytest.approx(0.5 ** 0.5, rel=1e-9)
    # continuity in R against the full norm
    full = mixed_norm(Monomial(1), (2, 2), cfg).value
    near = mixed_norm_truncated(Monomial(1), (2, 2), 1 - 1e-9, cfg)
    assert near == pytest.approx(full, rel=1e-5)
    assert near == pytest.approx(3 ** -0.5, rel=1e-5)
    # divergent member: truncated values grow monotonically in R
    vals = [mixed_norm_truncated(power_singularity(1.2), (2, 2), 1 - 2.0 ** -k, cfg)
            for k in range(4, 13)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        mixed_norm_truncated(Monomial(1), (2, 2), 1.0, cfg)


def test_truncated_sup_norm():
    f = Monomial(3)
    # q = inf: every angle carries int_0^R r^6 dr = R^7 / 7
    assert mixed_norm_truncated(f, (2, "inf"), 0.9, CFG) == \
        pytest.approx((0.9 ** 7 / 7) ** 0.5, rel=1e-9)
    # p = q = inf: the largest sampled radius sits just below R
    assert mixed_norm_truncated(f, ("inf", "inf"), 0.9, CFG) == \
        pytest.approx(0.9 ** 3, rel=1e-4)
    # continuity toward the full q = inf norm as R -> 1
    full = mixed_norm(f, (2, "inf"), CFG).value
    near = [mixed_norm_truncated(f, (2, "inf"), 1 - 10.0 ** -k, CFG)
            for k in (3, 6, 9)]
    assert near[0] < near[1] < near[2] <= full
    assert near[2] == pytest.approx(full, rel=1e-5)


def test_tail_sup_norm():
    one = TaylorPolynomial([1])
    for rho in (0.9, 0.99):
        assert tail_sup_norm(one, 2, rho, CFG) == pytest.approx((1 - rho) ** 0.5)
    # bounded function: tail below M (1 - rho)^(1/p)
    f = TaylorPolynomial([0.5, 0.25])
    m = 0.75
    for rho in (0.9, 0.99):
        assert tail_sup_norm(f, 3, rho, CFG) <= m * (1 - rho) ** (1 / 3) * (1 + 1e-9)
    with pytest.raises(ValueError):
        tail_sup_norm(one, "inf", 0.9, CFG)


def test_weak_lp_norm():
    assert weak_lp_norm([2.5] * 100, 3) == pytest.approx(2.5)
    # g(x) = x^(-1/a) on (0, 1]: the distribution-function supremum is 1
    for a in (2.0, 3.0):
        n = 20000
        x = (np.arange(n) + 1.0) / n
        assert weak_lp_norm(x ** (-1 / a), a) == pytest.approx(1.0, abs=5e-3)
    with pytest.raises(ValueError):
        weak_lp_norm([], 2)
    with pytest.raises(ValueError):
        weak_lp_norm([1.0], 0.5)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0, 100), min_size=1, max_size=50),
       st.floats(1.0, 8.0), st.floats(0.01, 10.0))
def test_weak_lp_homogeneous(samples, p, c):
    base = weak_lp_norm(samples, p)
    scaled = weak_lp_norm([c * s for s in samples], p)
    assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-12)


def test_weak_interpolation_bound_stable():
    # L^p between two weak norms; the implied constant is mesh-stable
    alpha, p0, p1, lam, pmid = 0.5, 1.0, 2.0, 0.5, 4 / 3
    cs = []
    for n in (4096, 8192):
        x = (np.arange(n) + 0.5) / n
        prof = np.abs(evaluate(power_singularity(alpha), x * (1 - 1e-9)))
        lp = np.mean(prof ** pmid) ** (1 / pmid)
        w0, w1 = weak_lp_norm(prof, p0), weak_lp_norm(prof, p1)
        cs.append(lp / (w0 ** (1 - lam) * w1 ** lam))
    assert max(cs) / min(cs) < 2.0


def test_hoelder_monotonicity_and_homogeneity_and_triangle():
    rng = np.random.default_rng(9)
    for _ in range(4):
        f = TaylorPolynomial(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        g = TaylorPolynomial(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        for (p, q), (p0, q0) in (((1, 2), (2, 4)), ((2, 2), (4, 4)), ((2, 1), (4, 2))):
            a = mixed_norm(f, (p, q), CFG).value
            b = mixed_norm(f, (p0, q0), CFG).value
            assert a <= b * (1 + 2 * CFG.rel_tol)
        base = mixed_norm(f, (2, 3), CFG).value
        scaled = mixed_norm(Sum(((2.7 - 1.3j, f),)), (2, 3), CFG).value
        assert scaled == pytest.approx(abs(2.7 - 1.3j) * base, rel=1e-12)
        s = Sum(((1.0, f), (1.0, g)))
        assert mixed_norm(s, (2, 2), CFG).value <= \
            mixed_norm(f, (2, 2), CFG).value + mixed_norm(g, (2, 2), CFG).value \
            + 1e-9


def test_rotation_invariance():
    rng = np.random.default_rng(11)
    f = TaylorPolynomial(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    base = mixed_norm(f, (2, 2), CFG).value
    for phi in rng.uniform(0, 2 * np.pi, 3):
        v = mixed_norm(rotate(f, phi), (2, 2), CFG).value
        assert v == pytest.approx(base, rel=CFG.rel_tol)
    # the angle-offset path computes the same rotation without a new repr
    v = mixed_norm(f, (2, 2), CFG, angle_offset=1.1).value
    assert v == pytest.approx(base, rel=CFG.rel_tol)


def test_lacunary_ratio_bracket():
    rng = np.random.default_rng(7)
    cfg = QuadratureConfig(radial_levels=14, refine_max=6, rel_tol=0.01)
    for p in (1, 2):
        coeffs = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        f = Lacunary(tuple((2 ** k, coeffs[k]) for k in range(13)))
        rhs = sum(abs(coeffs[k]) ** p / 2 ** k for k in range(13)) ** (1 / p)
        ratios = [mixed_norm(f, (p, q), cfg).value / rhs for q in (1, 2, 4, "inf")]
        assert max(ratios) / min(ratios) <= 4.0
        assert all(0.25 <= r <= 4.0 for r in ratios)


def test_dilation_convergence():
    out = dilation_convergence(power_singularity(0.4), (2, 2),
                               [0.9, 0.99, 0.999], CFG)
    vals = [v for _, v in out]
    assert vals[0] > vals[1] > vals[2]
    out = dilation_convergence(TaylorPolynomial([1, 2, 3]), (2, 2), [0.9, 0.99], CFG)
    assert out[-1][1] < 0.05
    with pytest.raises(ValueError):
        dilation_convergence(Monomial(1), (2, 2), [0.9, 0.5], CFG)


def test_dilation_sup_norm_bound():
    # the change-of-variable bound for the sup-branch norm under dilation
    f = power_singularity(0.4)
    base = mixed_norm(f, (2, "inf"), CFG).value
    dil = mixed_norm(dilate(f, 0.9), (2, "inf"), CFG).value
    assert dil <= 0.9 ** (-1 / 2) * base
