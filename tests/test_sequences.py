"""Properties of the refinement stop rule on synthetic sequences.

No quadrature: each sequence is written down in closed form, and the rule
is asked about every prefix, as ``mixed_norm`` asks it after every level.
"""

import math

from hypothesis import given, strategies as st

from radmix.sequences import refinement_stop

_REL_TOL = st.floats(1e-6, 0.05)


def _stops(values, rel_tol):
    """The rule's answer after each value of ``values``."""
    return [refinement_stop(values[:n], rel_tol)
            for n in range(1, len(values) + 1)]


@given(limit=st.floats(0.5, 5.0), scale=st.floats(-0.9, 0.9),
       ratio=st.floats(0.05, 0.8), rel_tol=_REL_TOL)
def test_geometric_sequence_stops_tol_at_first_agreement(limit, scale, ratio,
                                                         rel_tol):
    values = [limit * (1.0 + scale * ratio ** n) for n in range(200)]
    first = next(n for n in range(1, len(values))
                 if math.isclose(values[n - 1], values[n], rel_tol=rel_tol))
    stops = _stops(values[:first + 1], rel_tol)
    assert stops == [None] * first + ["tol"]


@given(s=st.floats(0.1, 3.0), rel_tol=_REL_TOL)
def test_power_growth_stops_growth_at_the_sixth_value(s, rel_tol):
    # n^s at the dyadic cutoffs n = 2^level: a constant growth factor 2^s
    values = [(2.0 ** level) ** s for level in range(8)]
    assert _stops(values, rel_tol)[:6] == [None] * 5 + ["growth"]


@given(gain=st.floats(0.1, 2.0), rel_tol=st.floats(1e-6, 1e-3))
def test_halving_gains_never_stop_growth(gain, rel_tol):
    # a convergent integral gains less at each refinement
    values = [1.0]
    for level in range(30):
        values.append(values[-1] * (1.0 + gain * 0.5 ** level))
    assert "growth" not in _stops(values, rel_tol)


@given(st.lists(st.floats(0.1, 0.9), min_size=5, max_size=5))
def test_a_falling_sequence_never_stops_growth(factors):
    # a decline that slows down has a last gain above 0.6 of the first
    values = [1.0]
    for g in sorted(factors):
        values.append(values[-1] * g)
    assert "growth" not in _stops(values, 0.05)


def test_agreement_is_judged_before_growth():
    # five sustained growths whose last factor, 1.0101 <= 1 / (1 - 0.01),
    # also makes the last two values agree
    values = [1.0]
    for g in (1.0102, 1.0102, 1.0102, 1.0102, 1.0101):
        values.append(values[-1] * g)
    assert _stops(values, 0.01) == [None] * 5 + ["tol"]


def test_zeros_never_agree():
    # every sample may have underflowed: two zeros say nothing
    assert _stops([0.0] * 8, 1e-3) == [None] * 8


@given(st.lists(st.floats(0.0, 1e300), max_size=6),
       st.sampled_from([math.inf, -math.inf, math.nan]))
def test_a_nonfinite_value_stops_nonfinite(head, bad):
    assert refinement_stop([*head, bad], 1e-3) == "nonfinite"


@given(st.floats(allow_nan=False, allow_infinity=False), _REL_TOL)
def test_a_single_value_never_stops(v, rel_tol):
    assert refinement_stop([v], rel_tol) is None
