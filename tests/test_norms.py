import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

from radmix import (
    CesaroPower,
    ExponentPair,
    Lacunary,
    Monomial,
    PowerSingularity,
    QuadratureConfig,
    RationalBump,
    Scaled,
    Sum,
    TaylorPolynomial,
    dilate,
    dilation_convergence,
    discrete_mixed_norm,
    evaluate,
    mixed_norm,
    mixed_norm_truncated,
    power_singularity,
    radial_integral,
    rotate,
    tail_sup_norm,
    weak_lp_norm,
)
from radmix import norms
from radmix.meshes import MAX_GRADING_LEVELS, graded_radial_mesh, midpoint_angles

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
    for bad in ([], None, "abc", 3, [["theta_count", 64]]):
        with pytest.raises(ValueError, match="config must be a JSON object"):
            QuadratureConfig.from_dict(bad)
    for bad in ({"theta_count": "64"}, {"theta_count": 64.5},
                {"refine_max": True}, {"rel_tol": None}, {"rel_tol": "0.01"},
                {"rel_tol": 10 ** 400}):
        with pytest.raises(ValueError):
            QuadratureConfig.from_dict(bad)
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


def test_radial_integral_rejects_inf():
    # the radial sup is the p = inf branch of mixed_norm's level, not a ray
    # integral
    with pytest.raises(ValueError):
        radial_integral(Monomial(6), 0.1, "inf", CFG)


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
                assert est.converged and est.stop == "tol"
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
    assert est.stop == "refine_max" and len(est.trace) == CFG.refine_max + 1


def test_refinement_stops_at_grading_depth_cap():
    # (1 - z)^(-1.5) lies outside the (2, 2) space; levels beyond the
    # deepest grading would repeat one mesh and agree
    est = mixed_norm(power_singularity(1.5), (2, 2),
                     QuadratureConfig(radial_levels=40))
    assert [lvl for lvl, _ in est.trace] == [0, 1, 2]
    assert not est.converged and est.stop == "depth_cap"
    est = mixed_norm(power_singularity(1.5), (2, 2),
                     QuadratureConfig(radial_levels=42))
    assert len(est.trace) == 1 and not est.converged
    assert est.stop == "depth_cap"
    # a member still converges within the cap
    est = mixed_norm(Monomial(1), (2, 2), QuadratureConfig(radial_levels=40))
    assert est.converged and est.stop == "tol"
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
    assert est.stop == "growth"
    d = est.to_dict()
    assert d["value"] is None and d["divergence_exponent"] > 0
    assert d["stop"] == "growth"


def test_overflowing_level_stops_as_nonfinite():
    # (1 - z)^(-200) overflows on the singular ray at the first level
    with np.errstate(over="ignore"):
        est = mixed_norm(PowerSingularity(200.0), (2, "inf"), CFG)
    assert est.stop == "nonfinite" and est.trace == [(0, math.inf)]
    assert not est.converged and math.isinf(est.value)
    assert est.to_dict()["stop"] == "nonfinite"


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
    for bad_p in (0.5, math.nan):
        with pytest.raises(ValueError):
            weak_lp_norm([1.0], bad_p)
    for bad in ([math.nan, 1.0], [math.inf], [2.0, -math.inf]):
        with pytest.raises(ValueError, match="finite"):
            weak_lp_norm(bad, 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0, 100), min_size=1, max_size=50),
       st.floats(1.0, 8.0), st.floats(0.01, 10.0))
def test_weak_lp_homogeneous(samples, p, c):
    base = weak_lp_norm(samples, p)
    scaled = weak_lp_norm([c * s for s in samples], p)
    assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-12)


_EXPONENTS = (1.0, 1.5, 2.0, 3.0, 8.0, "inf")


def _unit_mass(raw):
    w = np.asarray(raw)
    return w / w.sum()


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                  elements=st.floats(1e-3, 100.0) | st.just(0.0)),
       st.data(), st.floats(0.01, 10.0))
def test_discrete_mixed_norm_holder_and_homogeneity(vals, data, c):
    na, nr = vals.shape
    rw = _unit_mass(data.draw(st.lists(st.floats(0.1, 1.0), min_size=nr,
                                       max_size=nr)))
    aw = _unit_mass(data.draw(st.lists(st.floats(0.1, 1.0), min_size=na,
                                       max_size=na)))
    p1, p2, q1, q2 = (data.draw(st.sampled_from(_EXPONENTS)) for _ in range(4))
    order = {e: k for k, e in enumerate(_EXPONENTS)}
    p1, p2 = sorted((p1, p2), key=order.get)
    q1, q2 = sorted((q1, q2), key=order.get)

    def norm(p, q, v=vals):
        return discrete_mixed_norm(v, rw, aw, (p, q))

    # unit-mass weights: the norm grows with either exponent
    assert norm(p1, q1) <= norm(p2, q1) * (1 + 1e-12)
    assert norm(p1, q1) <= norm(p1, q2) * (1 + 1e-12)
    assert norm(p1, q1, c * vals) == pytest.approx(c * norm(p1, q1), rel=1e-12)
    assert norm("inf", "inf") == vals.max()


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


_LEVEL_FUNCTIONS = (
    PowerSingularity(0.75),
    CesaroPower(8, 1.5),
    Monomial(5),
    Lacunary(((1, 1.0), (4, -0.5j), (16, 0.25 + 0.25j))),
    RationalBump(0.05, 1.02, 2.0),
    Scaled(PowerSingularity(0.5), 0.9),
    Sum(((1.0, PowerSingularity(0.4)), (0.5j, Monomial(3)))),
)


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("pq", [(2, 3), (1.5, "inf"), ("inf", 2),
                                ("inf", "inf")])
@pytest.mark.parametrize("f", _LEVEL_FUNCTIONS, ids=lambda f: type(f).__name__)
def test_streamed_level_matches_full_grid(monkeypatch, f, pq, budget):
    # the streamed level equals discrete_mixed_norm on the full |f| grid;
    # budget 1 evaluates one angle per block
    if budget is not None:
        monkeypatch.setattr(norms, "_CHUNK_BUDGET", budget)
    pq = ExponentPair.of(*pq)
    count, levels, offset = 256, 12, 0.3
    r, w = graded_radial_mesh(levels)
    if pq.q.is_finite:
        thetas, ang_w = norms._angular_rule(f, count, levels, offset)
    else:
        specials = [t - offset for t in f.singular_angles()]
        thetas = np.concatenate([midpoint_angles(count), specials])
        ang_w = np.full(len(thetas), 1.0 / len(thetas))
    full = discrete_mixed_norm(f.abs_on_polar(r, thetas + offset), w, ang_w, pq)
    level = norms._level_value(f, pq, count, levels, offset)
    if pq.q.is_finite:
        assert level == pytest.approx(full, rel=1e-14)
        return
    # q = inf adds the golden-section pass to the discrete maximum
    assert level >= full * (1 - 1e-14)
    monkeypatch.setattr(norms, "_golden_max", lambda *args: -math.inf)
    level = norms._level_value(f, pq, count, levels, offset)
    assert level == pytest.approx(full, rel=1e-14)


def test_streamed_level_memory():
    # the deepest q = inf levels of the inclusion scan: 512 << 5 angles plus
    # the singular direction, 17 grading levels; the |f| grid alone would
    # take 16,385 x 144 x 8 bytes = 18.9 MB
    f, count, levels = PowerSingularity(0.75), 512 << 5, 17
    assert (count + 1) * len(graded_radial_mesh(levels)[0]) * 8 > 18e6
    tracemalloc.start()
    try:
        norms._level_value(f, ExponentPair.of(2, "inf"), count, levels, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
