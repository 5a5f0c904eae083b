import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radmix import (
    CesaroPower,
    DomainError,
    Features,
    Lacunary,
    Monomial,
    PowerSingularity,
    RationalBump,
    Scaled,
    Sum,
    TaylorPolynomial,
    derivative_at,
    dilate,
    evaluate,
    from_spec,
    to_spec,
)
from radmix.meshes import graded_radial_mesh, midpoint_angles

ALL_REPS = [
    Monomial(3),
    TaylorPolynomial([1.0, -2.0 + 1j, 0.5]),
    PowerSingularity(0.7),
    CesaroPower(4, 1.5),
    Lacunary(((2, 1.0 + 1j), (5, -0.5), (11, 2j))),
    RationalBump(0.1, 1.2, 0.4),
    Scaled(PowerSingularity(1.0), 0.8),
    Sum(((2.0, Monomial(1)), (1j, CesaroPower(2, 2.0)))),
]


def test_pointwise_values():
    assert evaluate(Monomial(3), 0.5) == pytest.approx(0.125)
    assert evaluate(PowerSingularity(1.0), 0.0) == pytest.approx(1.0)
    # finite geometric sum identity: 1 + 0.5 + 0.25
    assert evaluate(CesaroPower(2, 1.0), 0.5) == pytest.approx(1.75)
    assert evaluate(Sum(((2.0, Monomial(1)),)), 0.9) == pytest.approx(1.8)
    # no coefficients: the zero polynomial
    z = np.array([0.0, 0.5j])
    assert np.array_equal(evaluate(TaylorPolynomial(()), z), np.zeros(2))
    assert np.array_equal(derivative_at(TaylorPolynomial(()), z), np.zeros(2))


def test_cesaro_matches_partial_sum_everywhere():
    # oracle: explicit Horner partial sum, then the principal power
    rng = np.random.default_rng(0)
    z = 0.95 * np.exp(1j * rng.uniform(0, 2 * np.pi, 64)) * rng.uniform(0, 1, 64)
    for n, alpha in ((3, 1.0), (7, 2.5)):
        direct = sum(z ** k for k in range(n + 1)) ** (1.0 / alpha)
        got = evaluate(CesaroPower(n, alpha), z)
        assert np.max(np.abs(got - direct)) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 7, 64, 256])
def test_cesaro_near_one_against_mpmath(n):
    # z = 1 is a removable point of (1 - z^(n+1)) / (1 - z); the ratio form
    # loses about 1e-16 / |1 - z| relative there, a Horner sum does not
    dist = np.array([1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4])
    z = (1.0 - dist[:, None] * np.exp(1j * np.array([0.0, 0.9, -1.2]))).ravel()
    alphas = (0.7, 1.5, 3.0)
    fs = [CesaroPower(n, a) for a in alphas]
    got = [(evaluate(f, z), derivative_at(f, z)) for f in fs]
    with mpmath.workdps(40):
        for i, zi in enumerate(z):
            zm = mpmath.mpc(zi.real, zi.imag)
            w = mpmath.fsum(zm ** k for k in range(n + 1))
            dw = mpmath.fsum(k * zm ** (k - 1) for k in range(1, n + 1))
            for a, (vals, derivs) in zip(alphas, got):
                e = 1 / mpmath.mpf(a)
                want, dwant = w ** e, e * w ** (e - 1) * dw
                assert abs(vals[i] - want) <= 1e-13 * abs(want), (a, zi)
                assert abs(derivs[i] - dwant) <= 1e-13 * abs(dwant), (a, zi)


@pytest.mark.parametrize("n", [1, 5, 40])
def test_series_classes_agree_on_one_term(n):
    # Monomial, TaylorPolynomial and Lacunary share one series core; a
    # single term z^n reads the same through each of them
    rng = np.random.default_rng(n)
    z = 0.95 * np.sqrt(rng.uniform(0, 1, 32)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, 32))
    r = np.array([0.0, 0.3, 0.9, 0.999])
    t = rng.uniform(-np.pi, np.pi, 16)
    mono = Monomial(n)
    for f in (TaylorPolynomial([0.0] * n + [1.0]), Lacunary(((n, 1.0),))):
        np.testing.assert_allclose(evaluate(f, z), evaluate(mono, z),
                                   rtol=1e-14, err_msg=repr(f))
        np.testing.assert_allclose(derivative_at(f, z),
                                   derivative_at(mono, z),
                                   rtol=1e-14, err_msg=repr(f))
        np.testing.assert_allclose(f.polar_kernel(r)(t),
                                   mono.polar_kernel(r)(t),
                                   rtol=1e-14, err_msg=repr(f))
        assert f.features() == mono.features() == Features(
            top_exponent=n, conjugate_symmetric=True, rotation_invariant=True,
            peak_angle=0.0)


def test_representation_registry_names_the_eight_classes():
    # the series core is a mixin, so it adds no name that a spec could use
    from radmix.functions import _REPRESENTATIONS
    assert sorted(_REPRESENTATIONS) == [
        "CesaroPower", "Lacunary", "Monomial", "PowerSingularity",
        "RationalBump", "Scaled", "Sum", "TaylorPolynomial"]


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(Monomial(1), 1.0)
    with pytest.raises(DomainError):
        evaluate(PowerSingularity(1.0), 1.2 + 0.1j)
    with pytest.raises(DomainError):
        derivative_at(Monomial(1), -1.0)


def test_non_finite_points_raise_domain_errors():
    # |z| is NaN or infinite here, and NaN never compares >= 1
    for z in (complex("nan"), complex(0.5, math.nan), complex(math.inf, 0.0),
              [0.2, complex(math.nan, 0.1)]):
        for f in ALL_REPS:
            with pytest.raises(DomainError):
                evaluate(f, z)
            with pytest.raises(DomainError):
                derivative_at(f, z)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 0.999999, exclude_max=True),
                min_size=1, max_size=8),
       st.lists(st.floats(-4 * math.pi, 4 * math.pi), min_size=1, max_size=8))
def test_polar_kernel_matches_evaluate(radii, angles):
    r, t = np.array(radii), np.array(angles)
    z = r[None, :] * np.exp(1j * t[:, None])
    other = np.append(t[::-1], 0.25) + 1.0
    for f in ALL_REPS:
        got = f.polar_kernel(r)(t)
        assert got.shape == (len(t), len(r))
        # the absolute floor only matters where a sum cancels near a zero
        np.testing.assert_allclose(got, np.abs(evaluate(f, z)),
                                   rtol=1e-9, atol=1e-14, err_msg=repr(f))
        # one bound kernel serves any number of angle arrays, bit for bit
        kernel = f.polar_kernel(r)
        assert np.array_equal(kernel(t), got), repr(f)
        assert np.array_equal(kernel(other), f.polar_kernel(r)(other)), repr(f)


def _mp_abs(f, z):
    """|f(z)| in mpmath, from the defining formula of the representation."""
    if isinstance(f, PowerSingularity):
        return abs(1 - z) ** -mpmath.mpf(f.alpha)
    return abs(mpmath.fsum(z ** k for k in range(f.n + 1))) \
        ** (1 / mpmath.mpf(f.alpha))


@pytest.mark.parametrize("f", [PowerSingularity(1.5), PowerSingularity(0.7),
                               CesaroPower(3, 0.7), CesaroPower(16, 2.0)])
def test_polar_kernel_near_one_against_mpmath(f):
    # 1 - 2 r cos(theta) + r^2 cancels to nothing at these points
    r = 1.0 - np.array([1e-13, 1e-10, 1e-7, 1e-3, 0.5])
    t = np.array([0.0, 1e-14, -1e-14, 1e-11, -1e-8, 1e-4, 2.0])
    got = f.polar_kernel(r)(t)
    with mpmath.workdps(40):
        for i, ti in enumerate(t):
            for j, rj in enumerate(r):
                want = _mp_abs(f, mpmath.mpf(rj) * mpmath.expj(mpmath.mpf(ti)))
                assert abs(got[i, j] - want) <= 1e-12 * want, (ti, rj)


def test_polar_kernel_domain_errors():
    for f in ALL_REPS:
        for r in ([0.5, 1.0], [1.5], [-0.1, 0.2]):
            # the radii are checked when the kernel is bound
            with pytest.raises(DomainError):
                f.polar_kernel(np.array(r))


def _seeded_instances(rng):
    """Seeded instances of every representation, by class name, with and
    without real Taylor coefficients."""
    def real(k):
        return rng.standard_normal(k)

    def cplx(k):
        return real(k) + 1j * real(k)

    return {
        "Monomial": [Monomial(int(rng.integers(0, 40)))],
        "TaylorPolynomial": [TaylorPolynomial(real(6)),
                             TaylorPolynomial(cplx(6))],
        "PowerSingularity": [PowerSingularity(rng.uniform(-1.0, 2.0))],
        "CesaroPower": [CesaroPower(int(rng.integers(0, 20)),
                                    rng.uniform(0.5, 3.0))],
        "Lacunary": [Lacunary(tuple(zip((1, 3, 9, 27), real(4)))),
                     Lacunary(tuple(zip((1, 3, 9, 27), cplx(4))))],
        "RationalBump": [RationalBump(0.05, 1.02, 0.0),
                         RationalBump(0.05, 1.02, 2 * math.pi),
                         RationalBump(0.05, 1.02, 0.7)],
        "Scaled": [Scaled(PowerSingularity(rng.uniform(0.0, 1.5)), 0.9),
                   Scaled(RationalBump(0.05, 1.02, 0.7), 0.9)],
        "Sum": [Sum(((real(1)[0], PowerSingularity(0.4)),
                     (real(1)[0], Monomial(3)))),
                Sum(((1.0, PowerSingularity(0.4)), (1j, Monomial(3))))],
    }


@pytest.mark.parametrize("seed", range(4))
def test_conjugate_symmetry_claims_are_honest(seed):
    # every representation has seeded instances here, so a new class must
    # add some; each one that claims f(conj z) = conj f(z) has |f| even in
    # the angle, which is what the folded angular rule relies on
    from radmix.functions import _REPRESENTATIONS
    rng = np.random.default_rng(seed)
    instances = _seeded_instances(rng)
    assert set(instances) == set(_REPRESENTATIONS)
    r = np.array([0.0, 0.3, 0.9, 0.999])
    t = np.concatenate([rng.uniform(0.0, math.pi, 16), [1e-6, math.pi]])
    claims = 0
    for f in (g for fs in instances.values() for g in fs):
        if not f.features().conjugate_symmetric:
            continue
        claims += 1
        kernel = f.polar_kernel(r)
        np.testing.assert_allclose(kernel(-t), kernel(t), rtol=1e-14,
                                   atol=0.0, err_msg=repr(f))
    assert claims >= len(_REPRESENTATIONS)


def test_each_class_declares_its_documented_features():
    # every seeded instance of every representation against what its class
    # documents: singular directions, top exponent, conjugate symmetry,
    # rotation invariance (the seeded series have several nonzero terms)
    # and peak angle
    from radmix.functions import _REPRESENTATIONS

    def series_peak(coeffs):
        return 0.0 if all(c.imag == 0.0 and c.real >= 0.0
                          for c in coeffs) else None

    instances = _seeded_instances(np.random.default_rng(0))
    instances["PowerSingularity"] += [PowerSingularity(0.0),
                                      PowerSingularity(-0.5)]
    instances["TaylorPolynomial"].append(TaylorPolynomial([1.0, 0.0, 2.5]))
    expected = {
        "Monomial": lambda f: Features((), f.n, True, True, 0.0),
        "TaylorPolynomial": lambda f: Features(
            (), len(f.coeffs) - 1, all(c.imag == 0.0 for c in f.coeffs),
            False, series_peak(f.coeffs)),
        "PowerSingularity": lambda f: Features(
            (0.0,), 0, True, False, 0.0 if f.alpha >= 0 else math.pi),
        "CesaroPower": lambda f: Features((0.0,), f.n, True, False, 0.0),
        "Lacunary": lambda f: Features((), f.nodes[-1][0], all(
            a.imag == 0.0 for _, a in f.nodes), False,
            series_peak([a for _, a in f.nodes])),
        "RationalBump": lambda f: Features(
            (f.theta0,), 0, f.theta0 % (2 * math.pi) == 0.0, False,
            f.theta0),
        "Scaled": lambda f: f.inner.features(),
        "Sum": lambda f: Features((0.0,), 3, f.terms[1][0].imag == 0.0),
    }
    assert set(expected) == set(instances) == set(_REPRESENTATIONS)
    for name, fs in instances.items():
        for f in fs:
            assert f.features() == expected[name](f), repr(f)
    peaks = [f.features().peak_angle for fs in instances.values() for f in fs]
    assert {0.0, math.pi, 0.7, None} <= set(peaks)
    assert instances["Scaled"][0].features() == Features((0.0,), 0, True,
                                                         False, 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_peak_claims_are_honest(seed):
    # every instance that declares a peak angle has, at every radius of
    # three radial meshes, no ray of an 8,192-ray ring above the peak ray
    # by more than one ulp: the q = inf level reads that ray alone
    rng = np.random.default_rng(seed)
    instances = [g for fs in _seeded_instances(rng).values() for g in fs]
    instances += [PowerSingularity(-rng.uniform(0.1, 1.0)),
                  TaylorPolynomial(np.abs(rng.standard_normal(6))),
                  Lacunary(tuple(zip((1, 3, 9, 27),
                                     np.abs(rng.standard_normal(4))))),
                  RationalBump(0.05, 1.02, -0.3),
                  Scaled(CesaroPower(7, 0.8), 0.95)]
    ring = midpoint_angles(8192)
    claims = 0
    for f in instances:
        peak = f.features().peak_angle
        if peak is None:
            continue
        claims += 1
        for levels in (4, 12, 24):
            kernel = f.polar_kernel(graded_radial_mesh(levels)[0])
            top = kernel(np.array([peak]))[0]
            assert np.all(kernel(ring) <= np.nextafter(top, np.inf)), \
                (repr(f), levels)
    assert claims >= 12
    # a series with one negative coefficient, and any sum, declares none;
    # for this series the peak lies at pi, not at 0
    series = TaylorPolynomial([1.0, -0.5, 0.25 * rng.uniform()])
    assert series.features().peak_angle is None
    kernel = series.polar_kernel(np.array([0.5]))
    assert kernel(np.array([math.pi]))[0, 0] > kernel(np.array([0.0]))[0, 0]
    for f in (Sum(((1.0, PowerSingularity(0.4)), (1.0, Monomial(3)))),
              Sum(((1.0, CesaroPower(3, 1.0)),)), Sum(())):
        assert f.features().peak_angle is None


@pytest.mark.parametrize("seed", range(4))
def test_rotation_invariance_claims_are_honest(seed):
    # a series is rotation invariant when at most one coefficient is
    # nonzero, and a dilation when its inner function is; every claim has
    # |f| constant along each circle, which the one-ray level relies on
    rng = np.random.default_rng(seed)
    c = complex(*rng.standard_normal(2))
    claimed = [Monomial(int(rng.integers(0, 40))),
               TaylorPolynomial([0.0, 0.0, c]), TaylorPolynomial(()),
               Lacunary(((int(rng.integers(1, 99)), c),)),
               Scaled(Monomial(4), 0.5), Scaled(Lacunary(((3, c),)), 0.9)]
    unclaimed = [g for fs in _seeded_instances(rng).values() for g in fs
                 if not isinstance(g, Monomial)]
    unclaimed += [TaylorPolynomial([1.0, 0.0, c]), Sum(((1.0, Monomial(3)),))]
    assert [f.features().rotation_invariant for f in claimed + unclaimed] \
        == [True] * len(claimed) + [False] * len(unclaimed)
    r = np.array([0.0, 0.3, 0.9, 0.999])
    t = rng.uniform(-math.pi, math.pi, 16)
    for f in claimed:
        vals = f.polar_kernel(r)(t)
        np.testing.assert_allclose(vals, np.broadcast_to(vals[0], vals.shape),
                                   rtol=1e-14, atol=0.0, err_msg=repr(f))


def test_sum_and_scaled_combine_features():
    series = Lacunary(((2, 1.0), (9, -0.5), (40, 0.25)))
    bump = RationalBump(0.05, 1.02, 0.7)
    # angles in first-seen order without repeats, the largest top exponent,
    # and asymmetric as soon as one term is
    f = Sum(((1.0, series), (2.0, PowerSingularity(0.5)), (1.0, bump),
             (0.5, CesaroPower(3, 2.0))))
    assert f.features() == Features((0.0, 0.7), 40, False)
    assert Sum(((1.0, bump), (1.0, f))).features().singular_angles == (0.7, 0.0)
    # symmetric terms with real weights stay symmetric; one complex weight
    # breaks it
    terms = ((1.0, PowerSingularity(0.4)), (-2.0, series))
    assert Sum(terms).features() == Features((0.0,), 40, True)
    assert not Sum(terms[:1] + ((2j, series),)).features().conjugate_symmetric
    # a dilation declares what its inner function does
    for g in (f, series, bump, Sum(terms)):
        assert Scaled(g, 0.9).features() == g.features()
    # the empty sum is the zero function, which is symmetric; a sum
    # declares no peak
    assert Sum(()).features() == Features(conjugate_symmetric=True)


@pytest.mark.parametrize("f", [
    Lacunary(((1, 1.0), (4, 0.5j))),
    TaylorPolynomial([1.0, 0.5 + 0.25j]),
    RationalBump(0.05, 1.02, 0.7),
    Sum(((1.0, PowerSingularity(0.4)), (1j, Monomial(3)))),
    Scaled(RationalBump(0.05, 1.02, 0.7), 0.9),
    Scaled(Lacunary(((1, 1.0), (4, 0.5j))), 0.9),
], ids=repr)
def test_asymmetric_functions_claim_no_symmetry(f):
    assert not f.features().conjugate_symmetric
    # and they are not symmetric: the claim would fold a wrong rule
    kernel = f.polar_kernel(np.array([0.5, 0.9]))
    t = np.array([0.3, 1.1, 2.5])
    assert not np.allclose(kernel(t), kernel(-t), rtol=1e-6)


def test_construction_validation():
    with pytest.raises(ValueError):
        Lacunary(((4, 1.0), (4, 2.0)))          # repeated exponent
    with pytest.raises(ValueError):
        Lacunary(((5, 1.0), (3, 2.0)))          # decreasing
    with pytest.raises(ValueError):
        RationalBump(0.1, 0.9, 0.0)             # pole inside
    with pytest.raises(ValueError):
        RationalBump(-0.1, 1.5, 0.0)
    with pytest.raises(DomainError):
        Scaled(Monomial(1), 1.5)
    with pytest.raises(ValueError):
        CesaroPower(2, 0.0)


def test_derivative_closed_forms():
    assert derivative_at(Monomial(2), 0.5) == pytest.approx(1.0)
    assert derivative_at(PowerSingularity(1.0), 0.0) == pytest.approx(1.0)
    assert derivative_at(Monomial(0), 0.3) == 0.0


def test_overflowing_derivative_is_infinite_not_nan():
    # alpha times an overflowed power, alone or as a weighted Sum term, is
    # an infinite modulus with no NaN part and no invalid-value warning
    # (Tier-1 runs with warnings as errors)
    big = PowerSingularity(400.0)
    with np.errstate(over="ignore"):
        for f in (big, Sum(((1.0, big), (2j, Monomial(1))))):
            d = derivative_at(f, 0.9999)
            assert math.isinf(abs(d)) and not math.isnan(d.imag)
            d = derivative_at(f, np.array([0.9999, 0.5]))
            assert not np.isnan(d).any() and np.isinf(d[0])
            assert np.isfinite(d[1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(ALL_REPS) - 1),
       st.floats(0.0, 0.85), st.floats(0.0, 2 * math.pi))
def test_derivative_matches_finite_difference(idx, radius, angle):
    f = ALL_REPS[idx]
    z = radius * complex(math.cos(angle), math.sin(angle))
    h = 1e-6
    fd = (evaluate(f, z + h) - evaluate(f, z - h)) / (2 * h)
    d = derivative_at(f, z)
    assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))


def test_derivative_finite_difference_100_points_per_representation():
    rng = np.random.default_rng(2024)
    for f in ALL_REPS:
        z = rng.uniform(0, 0.9, 100) * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
        h = 1e-6
        fd = (evaluate(f, z + h) - evaluate(f, z - h)) / (2 * h)
        d = derivative_at(f, z)
        rel = np.abs(d - fd) / np.maximum(1.0, np.abs(d))
        assert np.max(rel) <= 1e-6


def _cauchy_derivative(f, z: complex) -> complex:
    """f'(z) by trapezoid quadrature of the Cauchy integral, the independent
    reference that ``derivative_at`` is checked against.

    The contour is the circle of radius (1 - |z|)/2 about z, for z inside
    the disc; the node count starts at 64 and doubles until two successive
    estimates agree to 1e-10.
    """
    s = 0.5 * (1.0 - abs(z))
    m = 64
    prev = None
    for _ in range(10):
        t = 2.0 * np.pi * np.arange(m) / m
        est = complex(np.mean(evaluate(f, z + s * np.exp(1j * t))
                              * np.exp(-1j * t)) / s)
        if prev is not None and abs(est - prev) <= 1e-10 * max(1.0, abs(est)):
            return est
        prev = est
        m *= 2
    return est


def test_cauchy_quadrature_against_closed_form():
    # derivative of z^2 at an interior point via the contour reference
    d = _cauchy_derivative(TaylorPolynomial([0, 0, 1]), 0.3 + 0.4j)
    assert abs(d - (0.6 + 0.8j)) < 1e-10
    for f in ALL_REPS:
        z = 0.25 - 0.3j
        assert abs(_cauchy_derivative(f, z) - derivative_at(f, z)) < 1e-9


def test_dilate():
    f = dilate(Monomial(3), 0.5)
    assert evaluate(f, 0.8) == pytest.approx((0.5 * 0.8) ** 3)
    assert dilate(Monomial(3), 1.0) is Monomial(3) or dilate(Monomial(3), 1.0) == Monomial(3)
    # nested dilations collapse
    g = dilate(dilate(Monomial(1), 0.5), 0.5)
    assert isinstance(g, Scaled) and g.r == pytest.approx(0.25)
    with pytest.raises(DomainError):
        dilate(Monomial(1), 0.0)
    with pytest.raises(DomainError):
        dilate(Monomial(1), 1.1)


def test_branch_guard_not_triggered_inside_disc():
    # dense sampling; the Cesaro sum provably avoids the cut on the open disc
    rng = np.random.default_rng(1)
    z = rng.uniform(0, 0.999, 4000) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4000))
    for n, alpha in ((1, 1.0), (6, 0.5), (31, 3.0)):
        evaluate(CesaroPower(n, alpha), z)  # must not raise BranchCutError


def test_json_round_trip_lossless():
    for f in ALL_REPS:
        blob = json.dumps(to_spec(f))
        assert from_spec(json.loads(blob)) == f
    with pytest.raises(ValueError):
        from_spec({"repr": "NoSuch"})
    with pytest.raises(ValueError):
        from_spec({})


def test_spec_rejects_fractional_degree():
    with pytest.raises(ValueError, match="integer"):
        from_spec({"repr": "Monomial", "n": 2.7})
    with pytest.raises(ValueError, match="integer"):
        from_spec({"repr": "CesaroPower", "n": 2.0, "alpha": 1.0})


def test_spec_rejects_fractional_lacunary_exponent():
    spec = {"repr": "Lacunary", "nodes": [[1, [1.0, 0.0]], [1.5, [1.0, 0.0]]]}
    with pytest.raises(ValueError, match="integer, got 1.5"):
        from_spec(spec)


@pytest.mark.parametrize("spec", [
    {"repr": "PowerSingularity", "alpha": "nan"},
    {"repr": "PowerSingularity", "alpha": float("nan")},
    {"repr": "CesaroPower", "n": 2, "alpha": float("inf")},
    {"repr": "RationalBump", "eps": 0.1, "a": 1.2, "theta0": float("nan")},
    {"repr": "TaylorPolynomial", "coeffs": [[1.0, float("inf")]]},
    {"repr": "Sum", "terms": [[[float("nan"), 0.0], {"repr": "Monomial", "n": 1}]]},
])
def test_spec_rejects_nonfinite_parameters(spec):
    with pytest.raises(ValueError, match="finite"):
        from_spec(spec)


def test_spec_missing_or_malformed_fields():
    with pytest.raises(ValueError, match="Monomial"):
        from_spec({"repr": "Monomial"})
    with pytest.raises(ValueError):
        from_spec({"repr": "Monomial", "n": 1, "extra": 0})
    with pytest.raises(ValueError):
        from_spec({"repr": "Lacunary", "nodes": [[2, [1.0, 0.0], 3]]})
    with pytest.raises(ValueError):
        from_spec({"repr": "Scaled", "inner": 3, "r": 0.5})
    with pytest.raises(ValueError):
        from_spec(["repr", "Monomial"])
    # z inside 600 levels of Scaled(r = 1), beyond the nesting limit; not
    # an @example of the round-trip property: Hypothesis prints every
    # explicit example, and its printer recurses as deep
    deep = json.loads('{"repr": "Scaled", "r": 1.0, "inner": ' * 600
                      + '{"repr": "Monomial", "n": 1}' + "}" * 600)
    with pytest.raises(ValueError, match="nested too deeply"):
        from_spec(deep)


def _scaled_spec(depth: int) -> dict:
    """The spec of z inside depth - 1 levels of Scaled(r = 1): ``depth``
    nested objects."""
    spec = {"repr": "Monomial", "n": 1}
    for _ in range(depth - 1):
        spec = {"repr": "Scaled", "r": 1.0, "inner": spec}
    return spec


def _called_below(frames: int, fn):
    """fn(), called ``frames`` Python frames below the caller."""
    return fn() if frames == 0 else _called_below(frames - 1, fn)


@pytest.mark.parametrize("frames", [0, 500, 700])
def test_spec_nesting_limit_holds_at_any_stack_depth(frames):
    # the decoder counts nested objects and arrays against one limit, so a
    # spec is refused at the same depth at the top of the stack and from
    # inside a deep recursion (with Python's recursion limit alone, 600
    # frames deep refused even 300 levels); it keeps its own stack, so
    # 100 levels decode even 700 frames deep, where a decoder taking three
    # frames a level would pass Python's limit of 1,000
    from radmix.functions import _SPEC_DEPTH
    limit = _scaled_spec(_SPEC_DEPTH)
    assert to_spec(_called_below(frames, lambda: from_spec(limit))) == limit
    beyond = _scaled_spec(_SPEC_DEPTH + 1)
    with pytest.raises(ValueError, match="nested too deeply"):
        _called_below(frames, lambda: from_spec(beyond))
    # arrays count too: the polynomial's object, its coefficient array and
    # the 99 arrays within it are one level too many
    coeffs = [[1.0, 0.0]]
    for _ in range(_SPEC_DEPTH - 3):
        coeffs = [coeffs]
    with pytest.raises(ValueError, match="nested too deeply"):
        _called_below(frames, lambda: from_spec(
            {"repr": "TaylorPolynomial", "coeffs": [coeffs]}))


_REPR_NAMES = sorted({type(f).__name__ for f in ALL_REPS}) + ["NoSuch"]
_FIELD_NAMES = sorted({k for f in ALL_REPS for k in to_spec(f)} - {"repr"})


def _specs(values):
    return st.builds(lambda kind, fields: {"repr": kind, **fields},
                     st.sampled_from(_REPR_NAMES),
                     st.dictionaries(st.sampled_from(_FIELD_NAMES), values,
                                     max_size=3))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | _specs(kids),
    max_leaves=10)
_SPECS = st.sampled_from([to_spec(f) for f in ALL_REPS])
# a valid spec with any of its own fields replaced by arbitrary JSON or by
# a valid spec, so each field's check is reached with the others valid
_CLASS_SPECS = _SPECS.flatmap(
    lambda spec: st.dictionaries(st.sampled_from(sorted(set(spec) - {"repr"})),
                                 _JSON | _SPECS).map(lambda new: {**spec, **new}))


@settings(max_examples=400, deadline=None)
@given(_specs(_JSON) | _JSON | _SPECS | _CLASS_SPECS)
def test_from_spec_round_trips_or_raises_value_error(spec):
    try:
        f = from_spec(spec)
    except ValueError:
        return
    blob = json.dumps(to_spec(f), allow_nan=False)
    assert from_spec(json.loads(blob)) == f
