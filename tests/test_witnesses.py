import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radmix import (
    CesaroPower,
    EmbeddingParams,
    PowerSingularity,
    QuadratureConfig,
    RationalBump,
    Sum,
    cesaro_power,
    embedding_function,
    embedding_tail_bound,
    evaluate,
    in_stolz_wedge,
    mixed_norm,
    power_singularity,
    projection_blowup_density,
)
from radmix.witnesses import normalization_integral

CFG = QuadratureConfig()


def test_power_singularity_family():
    assert isinstance(power_singularity(0.5), PowerSingularity)
    assert evaluate(power_singularity(0.0), 0.37 + 0.2j) == pytest.approx(1.0)
    assert evaluate(power_singularity(1.0), 0.5) == pytest.approx(2.0)


def test_power_singularity_membership_frontier():
    good = mixed_norm(power_singularity(0.99), (2, 2),
                      QuadratureConfig(refine_max=10, rel_tol=0.02))
    bad = mixed_norm(power_singularity(1.01), (2, 2),
                     QuadratureConfig(refine_max=10, rel_tol=0.02))
    assert good.converged
    assert not bad.converged and bad.divergence_exponent > 0


def test_cesaro_family():
    assert isinstance(cesaro_power(3, 2.0), CesaroPower)
    f0 = cesaro_power(0, 1.7)
    assert evaluate(f0, 0.3 - 0.1j) == pytest.approx(1.0)
    # positivity on the real axis
    f = cesaro_power(5, 2.0)
    for r in (0.0, 0.3, 0.9):
        v = evaluate(f, r)
        assert abs(v.imag) < 1e-14 and v.real > 0


def test_witness_constructors_are_strict():
    with pytest.raises(ValueError, match="integer"):
        cesaro_power(2.7, 1.0)
    with pytest.raises(ValueError, match="integer"):
        cesaro_power(2.0, 1.0)
    with pytest.raises(ValueError, match="finite real"):
        cesaro_power(2, "1.0")
    with pytest.raises(ValueError, match="finite real"):
        power_singularity("1.5")
    with pytest.raises(ValueError, match="finite real"):
        power_singularity(float("nan"))


def test_cesaro_sup_norm_lower_bound():
    # the radial integral along angle 0 is the harmonic partial sum
    cfg = QuadratureConfig(radial_levels=14, refine_max=6, rel_tol=5e-3)
    for beta, n in ((1.0, 16), (2.0, 64)):
        v = mixed_norm(cesaro_power(n, beta), (beta, "inf"), cfg).value
        assert v >= math.log(n + 1) ** (1 / beta)


def test_cesaro_upper_bound_ratio_stays_bounded():
    cfg = QuadratureConfig(radial_levels=14, refine_max=6, rel_tol=5e-3)
    for p, q in ((2, 2), (4, 4)):
        alpha = 1.0 / (1.0 / p + 1.0 / q)
        ratios = []
        for n in (4, 16, 64, 256):
            v = mixed_norm(cesaro_power(n, alpha), (p, q), cfg).value
            bound = (p / (p - alpha)) ** (1 / p) * math.log(n + 1) ** (1 / q)
            ratios.append(v / bound)
        # bounded uniformly over n: no growth past the early terms
        assert max(ratios) <= 2.0 * max(ratios[:2])
        assert max(ratios) <= 5.0


def test_embedding_parameter_formulas():
    params = EmbeddingParams(2, 4)
    assert params.r[0] == pytest.approx(0.5)
    assert params.a[0] == pytest.approx(15 / 14)
    # frozen from the closed formula sqrt(3 / (8 * 342)); computed
    # independently in mpmath below
    assert params.eps[0] == pytest.approx(0.03311330892662610, rel=1e-12)
    with mpmath.workdps(40):
        eps0 = mpmath.sqrt(mpmath.mpf(3) / (8 * 342))
        assert params.eps[0] == pytest.approx(float(eps0), rel=1e-13)
    assert params.theta[0] == pytest.approx(math.asin(0.5))
    with pytest.raises(ValueError):
        EmbeddingParams(0.5, 4)
    with pytest.raises(ValueError):
        EmbeddingParams(2, 0)


def test_embedding_params_beyond_float_powers():
    # 14^((k+1)(2p-1)) overflows a float here, and the disc margins of 56 or
    # more bumps are below 50 digits; both build and keep their invariants
    for p, count in ((10, 16), (4, 40), (2, 60)):
        params = EmbeddingParams(p, count)
        assert (params.p, params.count) == (float(p), count)
        margins = params.disc_margins()
        assert len(margins) == count - 1 and min(margins) > 0.0
        assert params.height_ratio_total_bound() < 1.0
    # the inputs are the whole state: equal inputs give equal parameters
    assert EmbeddingParams(2, 4) == EmbeddingParams(2.0, 4)
    assert hash(EmbeddingParams(2, 4)) == hash(EmbeddingParams(2.0, 4))
    for p, count in ((math.inf, 4), (math.nan, 4), (10 ** 400, 4), (2, 2000),
                     (2, 4.0), ("2", 4), (True, 4)):
        with pytest.raises(ValueError):
            EmbeddingParams(p, count)


def test_embedding_params_large_p(monkeypatch):
    # the normalisation log-sum rounds in proportion to its terms, which grow
    # with p and k; the check's tolerance grows with them
    for p, count in ((300, 250), (1000, 100), (10000, 16)):
        assert EmbeddingParams(p, count).count == count
    # a genuine error in eps_k is still refused
    import radmix.witnesses as wit
    eps_log = wit._eps_log
    monkeypatch.setattr(wit, "_eps_log", lambda k, p: eps_log(k, p) + 1e-9)
    with pytest.raises(ValueError, match="normalisation off"):
        EmbeddingParams(2, 16)


@settings(max_examples=40, deadline=None)
@given(p=st.one_of(st.floats(1.0, 12.0), st.sampled_from([0.5, math.nan,
                                                          math.inf])),
       count=st.integers(1, 40))
def test_embedding_params_build_or_raise_value_error(p, count):
    try:
        params = EmbeddingParams(p, count)
    except ValueError:
        assert not 1.0 <= p < math.inf
        return
    assert len(params.r) == len(params.eps) == len(params.theta) == count


def test_embedding_invariants_all_p():
    for p in (1, 2, 4):
        params = EmbeddingParams(p, 16)
        # normalisation integral equals one through the antiderivative
        for k in range(16):
            assert normalization_integral(params, k) == pytest.approx(1.0, abs=1e-10)
        # height/radius^2 series stays below one, including the tail bound
        total = params.height_ratio_total_bound()
        cap = (7 / 15) * (2 * p - 1) ** (1 / p)
        assert total < 1.0
        assert params.height_ratio_sum() <= cap
        # pairwise disjoint discs, certified in high precision
        margins = params.disc_margins()
        assert min(margins) > 0.0
        # pole angles stay inside (-pi, pi)
        assert all(abs(t) < math.pi for t in params.theta)


def test_embedding_tail_bound_formula():
    for p in (1, 2, 4):
        # partial sums of eps_k / r_k^2 beyond K are below the certificate
        params = EmbeddingParams(p, 40)
        for K in (8, 16, 24):
            tail = sum(params.eps[k] / params.r[k] ** 2 for k in range(K, 40))
            assert tail <= embedding_tail_bound(p, K)
        # forty explicit terms plus the geometric tail stay below the cap
        total = sum(params.eps[k] / params.r[k] ** 2 for k in range(40)) \
            + embedding_tail_bound(p, 40)
        assert total <= (7 / 15) * (2 * p - 1) ** (1 / p) < 1.0


def test_each_ray_meets_at_most_one_disc():
    params = EmbeddingParams(2, 16)
    th = np.linspace(0, 2 * np.pi, 200001)
    count = np.zeros(th.size, dtype=int)
    for k in range(16):
        dist = params.a[k] * np.abs(np.sin(params.theta[k] - th))
        forward = np.cos(params.theta[k] - th) > 0
        count += ((dist < params.r[k]) & forward).astype(int)
    assert count.max() <= 1


def test_embedding_function_shape():
    params = EmbeddingParams(2, 4)
    f = embedding_function(params, [0, 0, 0, 0])
    z = 0.3 + 0.1j
    assert evaluate(f, z) == 0
    f1 = embedding_function(params, [1.0])
    assert isinstance(f1, Sum)
    assert isinstance(f1.terms[0][1], RationalBump)
    with pytest.raises(ValueError):
        embedding_function(params, [1.0] * 5)


def test_embedding_function_section_limit():
    # a_13 = 1 + 14^-14 rounds to 1.0, which would put bump 13's pole on the
    # circle; the section is refused before any bump is built
    params = EmbeddingParams(2, 16)
    assert params.a[12] > 1.0 and params.a[13] == 1.0
    f = embedding_function(params, [1.0] * 13)
    assert len(f.terms) == 13
    with pytest.raises(ValueError, match=r"a_k = 1 \+ 14\^-\(k\+1\) rounds to 1\.0"):
        embedding_function(params, [1.0] * 14)


def test_embedding_partial_sum_has_vanishing_tail():
    # a finite section of the bump sum is bounded, hence its uniform radial
    # tail vanishes
    from radmix import tail_sup_norm
    params = EmbeddingParams(2, 4)
    f = embedding_function(params, [1.0, -0.5, 1.0, 0.25])
    cfg = QuadratureConfig(radial_levels=40)
    tails = [tail_sup_norm(f, 2, rho, cfg) for rho in (0.9, 0.99, 0.999)]
    assert tails[0] > tails[1] > tails[2]


def test_blowup_density_values_and_support():
    d = projection_blowup_density(2)
    assert d(0.5, 1.0) == 0            # angle outside the wedge
    assert d(0.9, 0.1) == 0            # radius beyond 1 - 2 theta
    # direct evaluation of the composed kernel (paper orientation)
    want = 0.25 ** 1.5 * (1 - 0.75 * 0.25 * np.exp(0.25j)) ** -2
    assert d(0.25, 0.25) == pytest.approx(want)
    with pytest.raises(ValueError):
        projection_blowup_density(1.0)
    with pytest.raises(ValueError):
        projection_blowup_density(math.inf)


def test_blowup_density_ray_bound():
    from radmix.meshes import graded_radial_mesh
    r, w = graded_radial_mesh(20)
    for p in (2, 4):
        d = projection_blowup_density(p)
        for t in (np.arange(64) + 0.5) / 64 * 0.5:
            val = float(w @ np.abs(d(r, t)) ** p)
            assert val <= d.ray_integral_bound()


def test_stolz_wedge_membership():
    assert in_stolz_wedge(0.5 * np.exp(0.1j))
    assert not in_stolz_wedge(0.9 * np.exp(0.1j))   # r >= 1 - 2 theta
    assert not in_stolz_wedge(0.5)                  # theta = 0 excluded
    assert not in_stolz_wedge(0.3 * np.exp(0.6j))   # theta >= 1/2
    assert not in_stolz_wedge(0.0)
    # elementwise on arrays, equal to the scalar answers
    pts = np.array([0.5 * np.exp(0.1j), 0.9 * np.exp(0.1j), 0.5,
                    0.3 * np.exp(0.6j), 0.0])
    assert list(in_stolz_wedge(pts)) == [in_stolz_wedge(z) for z in pts]
    assert list(in_stolz_wedge(pts)) == [True, False, False, False, False]
