import dataclasses
import itertools
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
    Features,
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
    mixed_norm,
    power_singularity,
    tail_sup_norm,
)
from radmix import norms
from radmix.meshes import MAX_GRADING_LEVELS, graded_radial_mesh, midpoint_angles
from radmix.witnesses import EmbeddingParams, embedding_function

CFG = QuadratureConfig()


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


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=10)
_CONFIG_FIELDS = [f.name for f in dataclasses.fields(QuadratureConfig)]


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_CONFIG_FIELDS), _JSON) | _JSON)
def test_config_from_dict_returns_or_raises_value_error(d):
    try:
        cfg = QuadratureConfig.from_dict(d)
    except ValueError:
        return
    assert QuadratureConfig.from_dict(cfg.to_dict()) == cfg


def test_graded_mesh_rejects_depth_beyond_cap():
    assert len(graded_radial_mesh(MAX_GRADING_LEVELS)[0]) == 344
    for levels in (0, MAX_GRADING_LEVELS + 1, 64, 100):
        with pytest.raises(ValueError):
            graded_radial_mesh(levels)


def test_graded_mesh_nests_across_levels():
    # level L + 1 keeps the first L cells of level L bit for bit and splits
    # only its last, open cell; the q = inf ring's carry relies on it
    for levels in range(4, MAX_GRADING_LEVELS):
        u0, w0 = graded_radial_mesh(levels)
        u1, w1 = graded_radial_mesh(levels + 1)
        closed = 8 * levels
        assert np.array_equal(u1[:closed], u0[:closed])
        assert np.array_equal(w1[:closed], w0[:closed])
        assert u1[closed] > u0[closed - 1]


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


def _polynomial_norm(coeffs, p: int, q: int) -> float:
    """The exact (p, q) norm of sum_n a_n z^n for even p and q a multiple
    of p.  With b the coefficients of f^(p/2), the ray integral
    int_0^1 |f(r e^(it))|^p dr is sum_d c_d e^(idt), c_d = sum_{n - m = d}
    b_n conj(b_m) / (n + m + 1), so ||f||^q is the constant term of the
    (q/p)-fold convolution power of c."""
    b = np.array([1.0 + 0j])
    for _ in range(p // 2):
        b = np.convolve(b, coeffs)
    n = np.arange(len(b))
    terms = b[:, None] * np.conj(b)[None, :] / (n[:, None] + n[None, :] + 1)
    top = len(b) - 1
    c = np.array([np.trace(terms, offset=-d) for d in range(-top, top + 1)])
    power = c
    for _ in range(q // p - 1):
        power = np.convolve(power, c)
    return float(power[len(power) // 2].real) ** (1.0 / q)


@pytest.mark.parametrize("pq", [(2, 2), (2, 4), (4, 4), (2, 6), (6, 6)])
def test_polynomial_norm_exact_oracle(pq):
    # random Taylor polynomials of degree below 40 against the closed form
    rng = np.random.default_rng(sum(pq))
    for _ in range(6):
        degree = int(rng.integers(1, 40))
        coeffs = rng.standard_normal(degree + 1) \
            + 1j * rng.standard_normal(degree + 1)
        est = mixed_norm(TaylorPolynomial(coeffs), pq, CFG)
        assert est.converged
        assert est.value == pytest.approx(_polynomial_norm(coeffs, *pq),
                                          rel=1e-10)


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
    assert d["stop"] == "growth" and d["converged"] is False
    # the verdict is read from the stop reason, never stored beside it
    assert "converged" not in {fld.name for fld in dataclasses.fields(est)}


def test_overflowing_level_stops_as_nonfinite():
    # (1 - z)^(-alpha) overflows near the singular ray at the first level;
    # the level says so by its value, not by a warning (Tier-1 runs with
    # warnings as errors); in a Sum the overflowing term makes the sum
    # infinite, not NaN
    overflowing_sum = Sum(((1.0, PowerSingularity(400.0)), (1.0, Monomial(1))))
    for f, pq in ((PowerSingularity(200.0), (2, "inf")),
                  (PowerSingularity(400.0), (2, 2)),
                  (PowerSingularity(200.0), ("inf", 2)),
                  (overflowing_sum, (2, "inf"))):
        est = mixed_norm(f, pq, CFG)
        assert est.stop == "nonfinite" and est.trace == [(0, math.inf)]
        assert not est.converged and math.isinf(est.value)
        assert est.to_dict()["stop"] == "nonfinite"


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
    # the rotation z -> f(e^(i phi) z) of a series multiplies the coefficient
    # of z^n by e^(i n phi)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    nodes = ((1, 1.0), (4, -0.5j), (16, 0.25 + 0.25j))

    def rotations(phi):
        w = np.exp(1j * phi)
        return (TaylorPolynomial(coeffs * w ** np.arange(6)),
                Lacunary(tuple((n, a * w ** n) for n, a in nodes)))

    phis = rng.uniform(0, 2 * np.pi, 3)
    for pq in [(2, 2), (2, "inf")]:
        base = [mixed_norm(f, pq, CFG).value for f in rotations(0.0)]
        for phi in phis:
            for f, b in zip(rotations(phi), base):
                assert mixed_norm(f, pq, CFG).value == pytest.approx(
                    b, rel=CFG.rel_tol)


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


def test_p_inf_norm_dominates_the_hardy_norm():
    # sup_r |f(r e^(it))| >= |f(e^(it))|, so the (inf, 2) norm of a
    # polynomial is at least its H^2 norm sqrt(sum |a_n|^2); the radial
    # nodes stop short of r = 1, hence the rel_tol margin
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = rng.integers(1, 41)  # degree n - 1, below 40
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        est = mixed_norm(TaylorPolynomial(coeffs), ("inf", 2), CFG)
        assert est.converged
        hardy = math.sqrt(np.sum(np.abs(coeffs) ** 2))
        assert est.value >= (1 - CFG.rel_tol) * hardy


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
    # a negative pole angle, which the angular rule takes mod 2 pi
    pytest.param(RationalBump(0.05, 1.02, -0.3), id="RationalBump_wrapped"),
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
    count, levels = 256, 12
    r, w = graded_radial_mesh(levels)
    if pq.q.is_finite:
        thetas, ang_w = norms._angular_rule(f.features(), count, levels)
    else:
        thetas = np.concatenate([midpoint_angles(count),
                                 f.features().singular_angles])
        ang_w = np.full(len(thetas), 1.0 / len(thetas))
    full = discrete_mixed_norm(f.polar_kernel(r)(thetas), w, ang_w, pq)
    level, _ = norms._level_value(f, pq, count, levels)
    if pq.q.is_finite:
        assert level == pytest.approx(full, rel=1e-14)
        return
    # q = inf adds the zoom pass to the discrete maximum
    assert level >= full * (1 - 1e-14)
    monkeypatch.setattr(norms, "_zoom_max", lambda *args: -math.inf)
    level, _ = norms._level_value(f, pq, count, levels)
    assert level == pytest.approx(full, rel=1e-14)


@pytest.mark.parametrize("f", [
    PowerSingularity(0.5),
    CesaroPower(8, 1.5),
    Monomial(5),
    Lacunary(((1, 1.0), (4, -0.5), (16, 0.25))),
    RationalBump(0.05, 1.02, 0.0),
    Sum(((1.0, PowerSingularity(0.4)), (-0.5, Monomial(3)))),
    Scaled(PowerSingularity(0.5), 0.9),
], ids=lambda f: type(f).__name__)
def test_folded_level_matches_the_full_circle(monkeypatch, f):
    # a function with real Taylor coefficients samples only the rays in
    # [0, pi]; the unfolded rule, forced by denying the symmetry, takes the
    # whole circle and must read the same level up to rounding.  Count 8 is
    # the uniform fallback (no panels), 9 an odd count with a cell at pi.
    # z^5 is rotation invariant too, which is denied throughout, so that
    # its levels take the angular rule rather than one ray
    features = dataclasses.replace(f.features(), rotation_invariant=False)
    assert features.conjugate_symmetric
    monkeypatch.setattr(type(f), "features", lambda self: features)
    levels = []
    for count, level, p, q in itertools.product(
            (8, 9, 64), range(4), (1, 1.5, 2, "inf"), (1, 2, 4)):
        levels.append((ExponentPair.of(p, q), count << level, 12 + level))
    folded = [norms._level_value(f, *args) for args in levels]
    monkeypatch.setattr(type(f), "features", lambda self: dataclasses.replace(
        features, conjugate_symmetric=False))
    for args, (v, n) in zip(levels, folded):
        full, n_full = norms._level_value(f, *args)
        assert v == pytest.approx(full, rel=1e-14, abs=0.0), args
        # half the rays, and the ray at pi of an odd count
        radii = len(graded_radial_mesh(args[2])[0])
        assert 2 * n == n_full + args[1] % 2 * radii, args


@pytest.mark.parametrize("f", [
    Monomial(0),
    Monomial(5),
    TaylorPolynomial([0.0, 0.0, 0.0, 0.5 - 2.0j]),
    Scaled(Monomial(3), 0.9),
], ids=repr)
def test_rotation_invariant_level_takes_one_ray(monkeypatch, f):
    # |c z^n| depends on |z| alone: the level takes one ray of its radial
    # mesh for every (p, q), and reads the full rule, forced by denying the
    # field, up to rounding
    features = f.features()
    assert features.rotation_invariant
    levels = [(ExponentPair.of(p, q), 64 if q != "inf" else norms._SUP_RING,
               12 + level)
              for level, p, q in itertools.product(
                  range(2), (1, 1.5, 2, "inf"), (1, 2, 4, "inf"))]
    one_ray = [norms._level_value(f, *args) for args in levels]
    monkeypatch.setattr(type(f), "features", lambda self: dataclasses.replace(
        features, rotation_invariant=False))
    for args, (v, n) in zip(levels, one_ray):
        full, n_full = norms._level_value(f, *args)
        assert v == pytest.approx(full, rel=1e-14, abs=0.0), args
        assert n == len(graded_radial_mesh(args[2])[0]) < n_full, args


def test_fold_halves_the_scan_samples():
    from radmix.cli import SCAN_CFG
    est = mixed_norm(PowerSingularity(0.75), (2, 2), SCAN_CFG)
    assert est.evaluations[0] == 13728  # 27,456 on the full circle


def test_fold_needs_every_singular_direction_at_zero():
    # a symmetry claim with a singular direction off 0 keeps the full rule
    full = norms._angular_rule(RationalBump(0.05, 1.02, 0.7).features(), 64,
                               12)
    claimed = norms._angular_rule(Features(singular_angles=(0.7,),
                                           conjugate_symmetric=True), 64, 12)
    for a, b in zip(full, claimed):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("q", [2, "inf"])
def test_level_binds_one_polar_kernel(monkeypatch, q):
    # every sample of a level, the zoom rays of a q = inf level included,
    # comes from one kernel bound at the level's radii
    f = PowerSingularity(0.75)
    bound = []
    kernel_calls = []
    polar_kernel = PowerSingularity.polar_kernel

    def counting(self, r):
        kernel = polar_kernel(self, r)
        if self is f:
            bound.append(len(r))

        def counted(theta):
            kernel_calls.append(len(theta))
            return kernel(theta)
        return counted

    monkeypatch.setattr(PowerSingularity, "polar_kernel", counting)
    pq = ExponentPair.of(2, q)
    _, samples = norms._level_value(f, pq, norms._SUP_RING << 1, 12)
    assert bound == [len(graded_radial_mesh(12)[0])]
    assert sum(kernel_calls) * bound[0] == samples
    if q == "inf":
        # the zoom takes its rays a round at a time, never one by one
        assert 1 not in kernel_calls
        assert kernel_calls.count(norms._ZOOM_RAYS) >= norms._ZOOM_ROUNDS


def test_streamed_level_memory():
    # a q = inf level as deep as the inclusion scan's deepest: 512 << 5
    # angles plus the singular direction, 17 grading levels; the |f| grid
    # alone would take 16,385 x 144 x 8 bytes = 18.9 MB.  A top exponent of
    # 4,096 widens the coarse ring to every angle, so the level is dense.
    f, count, levels = CesaroPower(4096, 1.5), 512 << 5, 17
    assert norms._sup_ring(f.features(), count) == count
    assert (count + 1) * len(graded_radial_mesh(levels)[0]) * 8 > 18e6
    tracemalloc.start()
    try:
        norms._level_value(f, ExponentPair.of(2, "inf"), count, levels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _dense_sup_level(f, pq, count, levels):
    # the q = inf level over every midpoint of the fine rule and the
    # singular directions, then the zoom pass around their maximiser
    r, w = graded_radial_mesh(levels)
    p = float(pq.p) if pq.p.is_finite else 1.0

    def inner(vals):
        return vals.max(axis=-1) if not pq.p.is_finite else vals ** p @ w

    thetas = np.concatenate([midpoint_angles(count),
                             f.features().singular_angles])
    kernel = f.polar_kernel(r)
    per_angle = inner(kernel(thetas))
    k = int(np.argmax(per_angle))
    h = 2.0 * math.pi / count
    zoom = norms._zoom_max(lambda ts: inner(kernel(ts)),
                           thetas[k] - h, thetas[k] + h)
    return max(float(per_angle.max()), zoom) ** (1.0 / p)


_SUP_CASES = [
    pytest.param(PowerSingularity(0.75), id="PowerSingularity"),
    pytest.param(CesaroPower(8, 1.5), id="CesaroPower"),
    pytest.param(Monomial(5), id="Monomial"),
    # theta0 = 2 lies between two rays of the 512-ray coarse ring
    pytest.param(RationalBump(0.05, 1.02, 2.0), id="RationalBump"),
    pytest.param(embedding_function(EmbeddingParams(2, 16), [1.0] * 9),
                 id="embedding_section"),
    # a broad peak at theta = 1.234, which no singular direction declares
    pytest.param(TaylorPolynomial([1.0, 0.5 * np.exp(-1.234j)]),
                 id="undeclared_peak"),
    # the point family's dilated kernel
    pytest.param(dilate(power_singularity(1.5), 0.97), id="dilated_kernel"),
]


@pytest.mark.parametrize("pq", [(2, "inf"), ("inf", "inf")])
@pytest.mark.parametrize("f", _SUP_CASES)
def test_local_sup_level_matches_dense_scan(f, pq):
    # refining only near the coarse maxima and the singular directions
    # finds the maximum of the full doubled scan at every level
    pq = ExponentPair.of(*pq)
    for level in range(5):
        count, levels = norms._SUP_RING << level, CFG.radial_levels + level
        local, n = norms._level_value(f, pq, count, levels)
        dense = _dense_sup_level(f, pq, count, levels)
        assert local == pytest.approx(dense, rel=1e-14, abs=0.0)
        assert n < (count + 40) * len(graded_radial_mesh(levels)[0])


@pytest.mark.parametrize("p", [1, 2, "inf"])
@pytest.mark.parametrize("f", [
    PowerSingularity(0.75),
    CesaroPower(8, 1.5),
    RationalBump(0.05, 1.02, 0.0),
    pytest.param(dilate(power_singularity(1.5), 0.97), id="dilated_kernel"),
], ids=lambda f: type(f).__name__)
def test_folded_sup_level_matches_the_full_ring(monkeypatch, f, p):
    # a conjugate-symmetric f with every singular direction at 0 samples
    # the mirror half of its q = inf ring and the fine windows mirrored into
    # [0, pi]; denying the symmetry scans the whole ring, which must read
    # the same level up to rounding, level by level and carried through a
    # refinement, at about twice the samples
    pq = ExponentPair.of(p, "inf")
    features = f.features()
    assert norms._folds(features)
    args = [(pq, norms._SUP_RING << level, CFG.radial_levels + level)
            for level in range(5)]
    cfg = QuadratureConfig(refine_max=4, rel_tol=1e-9)
    folded = [norms._level_value(f, *a) for a in args]
    folded_est = mixed_norm(f, pq, cfg)
    monkeypatch.setattr(type(f), "features", lambda self: dataclasses.replace(
        features, conjugate_symmetric=False))
    for a, (v, n) in zip(args, folded):
        full, n_full = norms._level_value(f, *a)
        assert v == pytest.approx(full, rel=1e-14, abs=0.0), a
        assert 0.5 < n / n_full < 0.55, a
    full_est = mixed_norm(f, pq, cfg)
    assert folded_est.stop == full_est.stop
    assert len(folded_est.trace) == len(full_est.trace)
    for (_, v), (_, w) in zip(folded_est.trace, full_est.trace):
        assert v == pytest.approx(w, rel=1e-14, abs=0.0)
    assert sum(folded_est.evaluations) < 0.6 * sum(full_est.evaluations)


def test_folded_windows_are_mirrored_into_the_upper_half():
    # each fine window index j becomes min(j, count - 1 - j), once; an odd
    # count's middle index mirrors itself
    ring = np.random.default_rng(3).random(16)
    specials = np.array([0.0])
    for count in (64, 65):
        full = norms._sup_windows(ring, specials, count)
        folded = norms._sup_windows(ring, specials, count, fold=True)
        expected = sorted({min(j, count - 1 - j) for j in full.tolist()})
        assert folded.tolist() == expected
        assert folded.max() < (count + 1) // 2


def test_sup_windows_cover_largest_peaks_and_singular_directions():
    # every fine midpoint within one coarse step of the 8 largest cyclic
    # local maxima of the coarse values or of a singular direction, and no
    # other; the directions may lie outside [0, 2 pi)
    coarse, count = 64, 64 * 8
    ring = np.random.default_rng(5).random(coarse)
    specials = np.array([0.0, -0.3, 7.0])
    peaks = [j for j in range(coarse)
             if ring[j - 1] < ring[j] >= ring[(j + 1) % coarse]]
    assert len(peaks) > 8
    top = sorted(peaks, key=lambda j: ring[j])[-8:]
    step = 2.0 * math.pi / coarse
    centres = [(j + 0.5) * step for j in top] + list(specials)
    fine = midpoint_angles(count)
    expected = [i for i in range(count)
                if min(abs((fine[i] - c + math.pi) % (2 * math.pi) - math.pi)
                       for c in centres) <= step]
    got = norms._sup_windows(ring, specials, count)
    assert got.tolist() == expected


def test_flat_ring_stretches_are_one_peak():
    # a peak rises strictly from its left neighbour: a plateau is one peak,
    # at its left end, and a ring of one value has none
    coarse, count = 8, 64
    plateau = np.array([0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    fine = midpoint_angles(count)
    step = 2.0 * math.pi / coarse
    expected = [i for i in range(count) if abs(fine[i] - 1.5 * step) <= step]
    none = np.array([])
    assert norms._sup_windows(plateau, none, count).tolist() == expected
    assert norms._sup_windows(np.ones(coarse), none, count).size == 0
    assert norms._sup_windows(np.ones(coarse), np.array([1.0]), count).size


def test_flat_ring_skips_the_fine_pass(monkeypatch):
    # |z^5| does not depend on the angle: with no peak and no singular
    # direction, a level samples only its ring (the closed cells carried)
    # and the zoom pass, and reads the dense scan's value.  Its record says
    # so, and would take one ray; denying that keeps the ring path
    f, pq = Monomial(5), ExponentPair.of("inf", "inf")
    features = dataclasses.replace(f.features(), rotation_invariant=False)
    monkeypatch.setattr(Monomial, "features", lambda self: features)
    cfg = QuadratureConfig(refine_max=5, rel_tol=1e-9)
    est = mixed_norm(f, pq, cfg)
    assert len(est.trace) == 6
    for level, v in est.trace:
        count, levels = norms._SUP_RING << level, cfg.radial_levels + level
        radii = len(graded_radial_mesh(levels)[0])
        # the ring of z^5 is symmetric too, so only its mirror half is
        # sampled
        ring = norms._SUP_RING // 2 * (radii if level == 0 else 16)
        zoom = norms._ZOOM_RAYS * norms._ZOOM_ROUNDS * radii
        assert est.evaluations[level] == ring + zoom
        assert v == _dense_sup_level(f, pq, count, levels)


@pytest.mark.parametrize("p", [1, 2])
# seeds 3 and 4 of the 3^k series read 0.2-1.2% low on the 512-ray ring alone
@pytest.mark.parametrize("seed", [0, 3, 4])
@pytest.mark.parametrize("base, nodes", [
    (2, 13),  # criterion 3: top exponent 4,096, scanned densely
    (3, 9),   # top exponent 6,561: far narrower peaks than the 512-ray ring
    (3, 6),   # top exponent 243: a 1,024-ray ring from level 2 on
    (5, 5),   # top exponent 625: 4,096 rays at level 4; 1,024 miss peaks
])
def test_local_sup_level_on_lacunary_series(base, nodes, seed, p):
    # seeded lacunary series: many comparable local maxima and no singular
    # direction; the ring widens with the top exponent, so the local level
    # may miss the dense maximum only by less than the refinement tolerance
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(nodes) + 1j * rng.standard_normal(nodes)
    f = Lacunary(tuple((base ** k, coeffs[k]) for k in range(nodes)))
    pq = ExponentPair.of(p, "inf")
    for level in range(5):
        count, levels = norms._SUP_RING << level, CFG.radial_levels + level
        local, _ = norms._level_value(f, pq, count, levels)
        dense = _dense_sup_level(f, pq, count, levels)
        assert local == pytest.approx(dense, rel=CFG.rel_tol)


def test_zoom_finds_the_highest_lobe_of_its_bracket():
    # series 19 of the lacunary_norms workload at seed 0, at its (2, inf)
    # level 1: 1,024 rays, whose zoom bracket of two fine steps spans eight
    # periods of the top exponent 4,096.  A golden-section search settles on
    # a lower lobe there, 0.73% low; each zoom round sees every lobe.  Other
    # series of the workload still read up to about 1e-3 low, since their
    # ring is capped at the level's ray count and the highest lobe lies
    # outside the bracket (ROADMAP item 1).
    rng = np.random.default_rng(0)
    for _ in range(20):
        coeffs = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    f = Lacunary(tuple((2 ** k, coeffs[k]) for k in range(13)))
    count, levels = 1024, 15
    level, _ = norms._level_value(f, ExponentPair.of(2, "inf"), count, levels)
    r, w = graded_radial_mesh(levels)
    kernel = f.polar_kernel(r)
    dense = max(float((kernel(ts) ** 2 @ w).max())
                for ts in np.split(midpoint_angles(32 * count), 16)) ** 0.5
    assert level == pytest.approx(dense, rel=1e-3)


def test_sup_ring_resolves_the_top_exponent():
    # four rays per unit of the top exponent, doubling the base ring and
    # capped at the level's own rule
    def ring(f, count=8192):
        return norms._sup_ring(f.features(), count)

    assert ring(PowerSingularity(0.75)) == 512
    assert ring(Monomial(128)) == 512
    assert ring(Monomial(129)) == 1024
    assert ring(CesaroPower(256, 1.5)) == 1024
    assert ring(TaylorPolynomial([1.0] * 300)) == 2048
    assert ring(RationalBump(0.05, 1.02, 2.0)) == 512
    series = Lacunary(((1, 1.0), (3, 1.0), (243, 1.0)))
    assert ring(series) == 1024
    assert ring(Sum(((1.0, PowerSingularity(0.5)),
                     (1.0, dilate(series, 0.9))))) == 1024
    assert ring(Lacunary(((6561, 1.0),))) == 8192
    assert ring(Monomial(10 ** 9), 512) == 512
    # a level of fewer rays than the base ring scans all of them
    assert ring(Monomial(5), 256) == 256


def test_local_sup_level_evaluation_budget():
    # the divergent (2, inf) power singularity of the inclusion scan runs
    # every level; its deepest level stays within 3x the samples of level 0
    from radmix.cli import SCAN_CFG
    est = mixed_norm(PowerSingularity(0.75), (2, "inf"), SCAN_CFG)
    assert est.stop == "growth" and len(est.evaluations) == len(est.trace)
    assert est.evaluations[-1] < 3 * est.evaluations[0]
    # the later levels carry the ring's closed cells and sample it only on
    # their last two cells
    assert sum(est.evaluations[1:]) < 2 * est.evaluations[0]
    assert "evaluations" not in est.to_dict()


@pytest.mark.parametrize("p", [1, 1.5, 2, "inf"])
@pytest.mark.parametrize("f", _SUP_CASES + [
    # top exponent 243: the ring grows from 512 to 1,024 rays at level 1;
    # the singularity keeps every p refining to the last level
    pytest.param(Sum(((1.0, PowerSingularity(0.75)), (1.0, Lacunary(tuple(
        (3 ** k, 1.0 / (k + 1)) for k in range(6)))))),
        id="lacunary_ring_grows"),
])
def test_nested_sup_levels_match_fresh_levels(monkeypatch, f, p):
    # the refinement that carries the ring's closed cells from level to
    # level reads, at every level, the value of that level evaluated alone
    pq = ExponentPair.of(p, "inf")
    cfg = QuadratureConfig(refine_max=5, rel_tol=1e-9)
    nested = mixed_norm(f, pq, cfg)
    fresh_level = norms._level_value
    monkeypatch.setattr(norms, "_level_value",
                        lambda *args, carry: fresh_level(*args))
    fresh = mixed_norm(f, pq, cfg)
    assert nested.stop == fresh.stop
    assert len(nested.trace) == len(fresh.trace)
    for (_, v), (_, w) in zip(nested.trace, fresh.trace):
        assert v == pytest.approx(w, rel=1e-15, abs=0.0)
    # a level whose ring is the previous level's samples the ring (its
    # mirror half, when folded) only on its last two cells, 16 radii, and
    # every other ray at all its radii; a rotation-invariant f takes one ray
    features = f.features()
    rays = len(features.singular_angles)
    for level in range(1, len(nested.trace)):
        count = norms._SUP_RING << level
        radii = len(graded_radial_mesh(cfg.radial_levels + level)[0])
        if features.rotation_invariant:
            assert nested.evaluations[level] == fresh.evaluations[level] \
                == radii
            continue
        ring = norms._sup_ring(features, count)
        if ring != norms._sup_ring(features, count // 2):
            continue
        kept = (ring + 1) // 2 if norms._folds(features) else ring
        assert (nested.evaluations[level] - 16 * (kept + rays)) % radii == 0
        assert nested.evaluations[level] < fresh.evaluations[level]
