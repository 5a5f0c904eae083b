import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radmix import (
    BranchCutError,
    CesaroPower,
    DomainError,
    Lacunary,
    Monomial,
    PowerSingularity,
    RationalBump,
    Scaled,
    Sum,
    TaylorPolynomial,
    cauchy_derivative,
    derivative_at,
    dilate,
    evaluate,
    from_spec,
    rotate,
    taylor_coefficients,
    to_spec,
)

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


def test_cesaro_matches_partial_sum_everywhere():
    # oracle: explicit Horner partial sum, then the principal power
    rng = np.random.default_rng(0)
    z = 0.95 * np.exp(1j * rng.uniform(0, 2 * np.pi, 64)) * rng.uniform(0, 1, 64)
    for n, alpha in ((3, 1.0), (7, 2.5)):
        direct = sum(z ** k for k in range(n + 1)) ** (1.0 / alpha)
        got = evaluate(CesaroPower(n, alpha), z)
        assert np.max(np.abs(got - direct)) < 1e-12


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(Monomial(1), 1.0)
    with pytest.raises(DomainError):
        evaluate(PowerSingularity(1.0), 1.2 + 0.1j)
    with pytest.raises(DomainError):
        derivative_at(Monomial(1), -1.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 0.999999, exclude_max=True),
                min_size=1, max_size=8),
       st.lists(st.floats(-4 * math.pi, 4 * math.pi), min_size=1, max_size=8))
def test_abs_on_polar_matches_evaluate(radii, angles):
    r, t = np.array(radii), np.array(angles)
    z = r[None, :] * np.exp(1j * t[:, None])
    for f in ALL_REPS:
        got = f.abs_on_polar(r, t)
        assert got.shape == (len(t), len(r))
        # the absolute floor only matters where a sum cancels near a zero
        np.testing.assert_allclose(got, np.abs(evaluate(f, z)),
                                   rtol=1e-9, atol=1e-14, err_msg=repr(f))


def _mp_abs(f, z):
    """|f(z)| in mpmath, from the defining formula of the representation."""
    if isinstance(f, PowerSingularity):
        return abs(1 - z) ** -mpmath.mpf(f.alpha)
    return abs(mpmath.fsum(z ** k for k in range(f.n + 1))) \
        ** (1 / mpmath.mpf(f.alpha))


@pytest.mark.parametrize("f", [PowerSingularity(1.5), PowerSingularity(0.7),
                               CesaroPower(3, 0.7), CesaroPower(16, 2.0)])
def test_abs_on_polar_near_one_against_mpmath(f):
    # 1 - 2 r cos(theta) + r^2 cancels to nothing at these points
    r = 1.0 - np.array([1e-13, 1e-10, 1e-7, 1e-3, 0.5])
    t = np.array([0.0, 1e-14, -1e-14, 1e-11, -1e-8, 1e-4, 2.0])
    got = f.abs_on_polar(r, t)
    with mpmath.workdps(40):
        for i, ti in enumerate(t):
            for j, rj in enumerate(r):
                want = _mp_abs(f, mpmath.mpf(rj) * mpmath.expj(mpmath.mpf(ti)))
                assert abs(got[i, j] - want) <= 1e-12 * want, (ti, rj)


def test_abs_on_polar_domain_errors():
    t = np.array([0.0, 1.0])
    for f in ALL_REPS:
        for r in ([0.5, 1.0], [1.5], [-0.1, 0.2]):
            with pytest.raises(DomainError):
                f.abs_on_polar(np.array(r), t)


def test_construction_validation():
    with pytest.raises(ValueError):
        Lacunary(((4, 1.0), (4, 2.0)))          # ratio 1
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


def test_cauchy_quadrature_against_closed_form():
    # derivative of z^2 at an interior point via the contour fallback
    d = cauchy_derivative(TaylorPolynomial([0, 0, 1]), 0.3 + 0.4j)
    assert abs(d - (0.6 + 0.8j)) < 1e-10
    for f in ALL_REPS:
        z = 0.25 - 0.3j
        assert abs(cauchy_derivative(f, z) - derivative_at(f, z)) < 1e-9


def test_taylor_coefficients_basics():
    c = taylor_coefficients(Monomial(2), 3, 0.5)
    assert np.allclose(c, [0, 0, 1, 0], atol=1e-12)
    c = taylor_coefficients(PowerSingularity(1.0), 2, 0.5)
    assert np.allclose(c, [1, 1, 1], atol=1e-10)
    c = taylor_coefficients(Sum(((2.0, Monomial(1)),)), 1, 0.9)
    assert np.allclose(c, [0, 2], atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([0.3, 0.45, 0.6, 0.75]), st.sampled_from([0.35, 0.5, 0.65, 0.8]))
def test_taylor_coefficients_radius_independent(r1, r2):
    f = Sum(((1.0, PowerSingularity(0.7)), (0.5j, CesaroPower(3, 2.0))))
    a = taylor_coefficients(f, 8, r1)
    b = taylor_coefficients(f, 8, r2)
    for x, y in zip(a, b):
        if abs(x) >= 1e-4:
            assert abs(x - y) <= 1e-8


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


def test_rotate_is_pointwise_rotation():
    rng = np.random.default_rng(5)
    z = 0.7 * np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
    for f in (TaylorPolynomial([1, 2j, -0.5]), Lacunary(((2, 1.0), (5, 1j))),
              RationalBump(0.1, 1.3, 0.2), Monomial(4)):
        phi = 1.234
        got = evaluate(rotate(f, phi), z)
        want = evaluate(f, np.exp(1j * phi) * z)
        assert np.max(np.abs(got - want)) < 1e-12
    with pytest.raises(ValueError):
        rotate(PowerSingularity(0.5), 0.3)


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


@settings(max_examples=300, deadline=None)
@given(_specs(_JSON) | _JSON | st.sampled_from([to_spec(f) for f in ALL_REPS]))
def test_from_spec_round_trips_or_raises_value_error(spec):
    try:
        f = from_spec(spec)
    except ValueError:
        return
    blob = json.dumps(to_spec(f), allow_nan=False)
    assert from_spec(json.loads(blob)) == f
