import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from radmix import (
    CesaroPower,
    ExponentFit,
    ExponentPair,
    Lacunary,
    Monomial,
    NormCache,
    PowerSingularity,
    QuadratureConfig,
    Sum,
    compactness_witness_scan,
    evaluation_functional_fit,
    inclusion_is_compact,
    inclusion_region_contains,
    inclusion_witness_scan,
    mixed_norm,
    norms,
)
from radmix.cli import SCAN_CFG
from radmix.sequences import classify_ratio_trace
from radmix.theorems import _point_bound

GRID5 = [1, Fraction(4, 3), 2, 4, "inf"]
CFG = QuadratureConfig(refine_max=8, rel_tol=0.02)


def test_region_membership_examples():
    contained, excluded = inclusion_region_contains(2, 2, 2, 2)
    assert contained and not excluded
    # the excluded boundary pair of a finite source
    contained, excluded = inclusion_region_contains(2, 2, 1, "inf")
    assert contained and excluded
    assert inclusion_region_contains(2, 2, 1, "inf") != (True, False)
    # sup-type source keeps its boundary pair
    contained, excluded = inclusion_region_contains("inf", 2, 2, "inf")
    assert contained and not excluded
    # leaving the region
    contained, _ = inclusion_region_contains(2, 2, 4, 4)
    assert not contained
    contained, _ = inclusion_region_contains(2, 2, 2, 4)
    assert not contained


def test_excluded_point_needs_exact_equality():
    # beta = p0 q0 / (p0 + q0) only
    _, excluded = inclusion_region_contains(4, 4, 2, "inf")
    assert excluded
    _, excluded = inclusion_region_contains(4, 4, Fraction(4, 3), "inf")
    assert not excluded


def test_region_transitivity_on_grid():
    pairs = [(p, q) for p in GRID5 for q in GRID5]
    hold = {}
    for a in pairs:
        for b in pairs:
            hold[a, b] = inclusion_region_contains(*a, *b) == (True, False)
    for a in pairs:
        for b in pairs:
            if not hold[a, b]:
                continue
            for c in pairs:
                if hold[b, c]:
                    assert hold[a, c], (a, b, c)


def test_compactness_predicate_examples():
    assert inclusion_is_compact(4, 4, 2, 2)
    assert not inclusion_is_compact(2, 2, 2, 1)      # equal radial exponents
    assert not inclusion_is_compact(2, 2, 4, 1)      # equal reciprocal sums
    assert not inclusion_is_compact("inf", 2, "inf", 1)


def test_compact_implies_included():
    for p0 in GRID5:
        for q0 in GRID5:
            for p in GRID5:
                for q in GRID5:
                    if inclusion_is_compact(p0, q0, p, q):
                        assert inclusion_region_contains(
                            p0, q0, p, q) == (True, False)


def test_classify_ratio_trace():
    assert classify_ratio_trace([1, 1.1, 2.5, 2.6, 2.7]) == "unbounded"
    assert classify_ratio_trace([1, 1.1, 1.2, 1.1, 1.0]) == "bounded"
    assert classify_ratio_trace([1, 3.0, 2.5, 2.2, 2.1]) == "inconclusive"
    assert classify_ratio_trace([1, 2]) == "inconclusive"


def test_witness_scan_monomial_route():
    v = inclusion_witness_scan(2, 2, 4, 4, CFG)
    assert not v.included
    assert v.witness_conclusion() == "excluded"
    assert any(r.name == "monomial" and r.conclusion == "unbounded"
               for r in v.witness_report)


def test_witness_scan_separating_route():
    v = inclusion_witness_scan(2, 2, 2, 4, CFG)
    assert not v.included
    assert any(r.conclusion == "separating" for r in v.witness_report)
    assert v.agreement() is True


def test_witness_scan_excluded_point_is_flagged_not_silently_decided():
    v = inclusion_witness_scan(2, 2, 1, "inf", CFG)
    assert v.excluded_point and not v.included
    # the log-rate witness cannot clear the growth bar at this budget
    assert v.witness_conclusion() in ("excluded", "inconclusive")
    assert all(r.conclusion != "bounded" for r in v.witness_report
               if r.name == "cesaro_power")


def test_witness_scan_included_cell():
    v = inclusion_witness_scan(2, 2, 2, 2, CFG)
    assert v.included and v.agreement() is True
    v = inclusion_witness_scan(4, 4, 2, 2, CFG)
    assert v.included and v.agreement() is True


def test_monomial_ratio_bounded_by_closed_form_supremum():
    cache = NormCache(CFG)
    for (p0, q0), (p, q) in (((4, 4), (2, 2)), ((4, 2), (2, 4)), ((2, 2), (1, 1))):
        assert inclusion_region_contains(p0, q0, p, q) == (True, False)
        ns = np.arange(0, 65)
        closed = (1 + ns * p) ** (-1 / p) / (1 + ns * p0) ** (-1 / p0)
        # the discrete maximum is close to the analytic supremum over real n
        ngrid = np.logspace(0, 6, 4000)
        analytic = np.max((1 + ngrid * p) ** (-1 / p) / (1 + ngrid * p0) ** (-1 / p0))
        analytic = max(analytic, 1.0)
        assert closed.max() <= 1.05 * analytic
        for n in (1, 4, 16, 64):
            f = Monomial(n)
            a = cache.norm(f, f, ExponentPair.of(p, q)).value
            b = cache.norm(f, f, ExponentPair.of(p0, q0)).value
            assert a / b <= closed.max() * 1.01


def test_compactness_scan_spot_checks():
    cache = NormCache(CFG)
    rep = compactness_witness_scan(4, 4, 2, 2, CFG, cache)
    assert rep["predicted"] and rep["verdict"] == "compact-consistent"
    rep = compactness_witness_scan(2, 2, 2, 1, CFG, cache)
    assert not rep["predicted"] and rep["verdict"] == "noncompact"
    # equal-sum line: excluded by the strict inequality
    rep = compactness_witness_scan(2, 2, 4, 1, CFG, cache)
    assert not rep["predicted"] and rep["verdict"] == "noncompact"


def test_scans_refuse_a_cache_built_for_another_config():
    # the scans use cfg only to build a missing cache, so a cache for another
    # config would silently decide the norms
    other = NormCache(QuadratureConfig(theta_count=32))
    with pytest.raises(ValueError, match="cache was built for"):
        inclusion_witness_scan(2, 2, 4, 4, CFG, other)
    with pytest.raises(ValueError, match="cache was built for"):
        compactness_witness_scan(4, 4, 2, 2, CFG, other)
    with pytest.raises(ValueError, match="cache was built for"):
        evaluation_functional_fit((2, 2), "point", [0.5, 0.75], CFG, cache=other)
    assert other.hits == other.misses == 0
    # an equal config built separately is the same config
    same = NormCache(QuadratureConfig(refine_max=8, rel_tol=0.02))
    assert inclusion_witness_scan(2, 2, 2, 2, CFG, same).included


def test_exponent_fit_garbage_rejected():
    fit = ExponentFit.fit([(x, 2 * x + 1) for x in (0.0, 1.0, 2.0, 3.0)])
    assert fit.slope == pytest.approx(2.0)
    assert fit.residual < 1e-12
    # one repeated abscissa determines no slope
    with pytest.raises(ValueError):
        ExponentFit.fit([(0.5, y) for y in (1.0, 2.0, 3.0, 4.0)])
    # the functional fit wants at least 4 usable points; the line fit does not
    with pytest.raises(ValueError, match="at least 4 usable points"):
        evaluation_functional_fit(("inf", "inf"), "point", [0.5, 0.75, 0.9],
                                  CFG)


def test_point_functional_slopes():
    zs = [1 - 2.0 ** -k for k in range(3, 9)]
    cfg = QuadratureConfig(radial_levels=14, refine_max=8, rel_tol=5e-3)
    cache = NormCache(cfg)
    fit = evaluation_functional_fit((2, 2), "point", zs, cfg, cache=cache)
    assert fit.slope == pytest.approx(1.0, abs=0.1)
    fitd = evaluation_functional_fit((2, 2), "derivative", zs, cfg, cache=cache)
    assert fitd.slope - fit.slope == pytest.approx(1.0, abs=0.1)
    with pytest.raises(ValueError):
        evaluation_functional_fit((2, 2), "nope", zs, cfg)


def test_point_bound_computed_once_per_cache():
    cache = NormCache(CFG)
    pq = ExponentPair.of(2, 2)
    first = _point_bound(cache, pq, 0.75)
    assert first > 0
    lookups = []
    norm = cache.norm
    cache.norm = lambda *a, **kw: lookups.append(a) or norm(*a, **kw)
    assert _point_bound(cache, pq, 0.75) == first
    assert lookups == []
    # another derivative flag is another value
    _point_bound(cache, pq, 0.75, derivative=True)
    assert lookups


def test_norm_cache_counts_hits_and_misses():
    cache = NormCache(CFG)
    lookups = []
    norm = cache.norm
    cache.norm = lambda *a, **kw: lookups.append(a) or norm(*a, **kw)
    for cell in [(2, 2, 2, 4), (2, 2, 4, 4), (2, 4, 2, 2), (2, 2, 2, 4)]:
        inclusion_witness_scan(*cell, CFG, cache)
    assert cache.hits > 0 and cache.misses > 0
    assert cache.hits + cache.misses == len(lookups)
    assert cache.misses == len(cache._store)


def test_norm_cache_samples_each_shared_level_once(monkeypatch):
    # (1 - z)^-1.25 lies in RM(2, 1) and not in RM(2, 2), so the second
    # pair refines past the levels of the first; the levels both take are
    # sampled for the first and read from the cache's level store by the
    # second, which samples only its deeper levels
    sampled = []
    ray_values = norms._ray_values

    def counting(kernel, thetas, radial_w, *rest):
        sampled.append(len(thetas) * len(radial_w))
        return ray_values(kernel, thetas, radial_w, *rest)

    monkeypatch.setattr(norms, "_ray_values", counting)
    f = PowerSingularity(1.25)
    cache = NormCache(CFG)
    first = cache.norm(f, f, (2, 1))
    assert first.converged and cache.shared_levels == 0
    assert sampled == first.evaluations
    sampled.clear()
    second = cache.norm(f, f, (2, 2))
    shared = len(first.trace)
    assert second.stop == "growth" and len(second.trace) > shared
    assert cache.shared_levels == shared
    assert sampled == second.evaluations[shared:]
    # a served level reads as a computed one, evaluations included
    monkeypatch.setattr(norms, "_ray_values", ray_values)
    assert second == mixed_norm(f, (2, 2), CFG)
    assert (cache.misses, cache.hits) == (2, 0)


def test_norm_cache_shares_one_ray_levels_across_counts(monkeypatch):
    # z^3 is rotation invariant: its one-ray level is the same at the
    # q-finite angular count and at the q = inf ring's, so the q = inf
    # pair reads every level the q-finite pair sampled
    sampled = []
    ray_values = norms._ray_values

    def counting(kernel, thetas, radial_w, *rest):
        sampled.append(len(thetas) * len(radial_w))
        return ray_values(kernel, thetas, radial_w, *rest)

    monkeypatch.setattr(norms, "_ray_values", counting)
    f = Monomial(3)
    cache = NormCache(CFG)
    first = cache.norm(f, f, (2, 2))
    assert sampled == first.evaluations
    sampled.clear()
    second = cache.norm(f, f, (2, "inf"))
    assert len(second.trace) <= len(first.trace)
    assert sampled == [] and cache.shared_levels == len(second.trace)
    monkeypatch.setattr(norms, "_ray_values", ray_values)
    assert second == mixed_norm(f, (2, "inf"), CFG)


# One seeded function of each kind, and every (p, q) over {1, 4/3, 2, 4,
# inf} x {1, 2, 4, inf}: the power singularity and the sum diverge at some
# pairs, where the refinement runs deeper than at the others.
_RNG = np.random.default_rng(29)
_SHARED_CFG = QuadratureConfig(theta_count=16, radial_levels=6, refine_max=6,
                               rel_tol=0.02)
_KINDS = [
    PowerSingularity(round(1.0 + _RNG.uniform(0.1, 0.3), 3)),
    CesaroPower(int(_RNG.integers(4, 12)), round(_RNG.uniform(0.6, 0.9), 3)),
    Lacunary(tuple((4 ** k, complex(*_RNG.normal(size=2))) for k in range(3))),
    Monomial(int(_RNG.integers(1, 8))),
    Sum(((1.0, PowerSingularity(0.3)),
         (complex(*_RNG.normal(size=2)), Monomial(2)))),
]
_PAIRS = [ExponentPair.of(p, q) for p in (1, Fraction(4, 3), 2, 4, "inf")
          for q in (1, 2, 4, "inf")]
_DIRECT: dict = {}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(range(len(_KINDS))),
                          st.sampled_from(_PAIRS)), min_size=1, max_size=10))
# the power singularity stops "tol" at (2, 1) and "growth" at (2, 2): the
# second pair needs deeper levels than the store holds
@example([(0, _PAIRS[8]), (0, _PAIRS[9]), (2, _PAIRS[9]), (2, _PAIRS[5])])
def test_cached_estimates_equal_direct_ones(requests):
    cache = NormCache(_SHARED_CFG)
    for kind, pq in requests:
        f = _KINDS[kind]
        est = cache.norm(f, f, pq)
        if (f, pq) not in _DIRECT:
            _DIRECT[f, pq] = mixed_norm(f, pq, _SHARED_CFG)
        # NormEstimate's == compares value, trace, divergence_exponent, stop
        # and evaluations
        assert est == _DIRECT[f, pq]


def test_norm_cache_keys_a_tuple_as_its_pair():
    cache = NormCache(CFG)
    f = Monomial(3)
    est = cache.norm(f, f, (2, 2))
    assert cache.norm(f, f, ExponentPair.of(2, 2)) is est
    assert (cache.misses, cache.hits) == (1, 1)


def test_norm_cache_refuses_an_angle_offset():
    # the quadrature takes no angle offset; the cache keeps the parameter
    # only for the benchmark's override, and refuses a nonzero one
    cache = NormCache(CFG)
    f = Monomial(3)
    with pytest.raises(ValueError):
        cache.norm(f, f, (2, 2), 0.3)
    est = cache.norm(f, f, (2, 2), 0.0)
    assert cache.norm(f, f, ExponentPair.of(2, 2)) is est
    assert (cache.misses, cache.hits) == (1, 1)


def test_equal_functions_share_one_estimate():
    # the inclusion scan's monomials and the point family's are the same
    # functions; on one cache each (function, pair) is computed once
    cache = NormCache(SCAN_CFG)
    looked_up = set()
    norm = cache.norm

    def recording(key, f, pq):
        looked_up.add((f, str(pq)))
        return norm(key, f, pq)

    cache.norm = recording
    inclusion_witness_scan(4, 4, 2, 2, SCAN_CFG, cache)
    compactness_witness_scan(4, 4, 2, 2, SCAN_CFG, cache)
    assert cache.misses == len(looked_up) == len(cache._store)
    assert cache.hits > 0


def test_point_functional_sup_space_is_flat():
    zs = [1 - 2.0 ** -k for k in range(3, 9)]
    fit = evaluation_functional_fit(("inf", "inf"), "point", zs, CFG)
    assert abs(fit.slope) < 0.02


def test_acceptance_scan_samples_and_verdicts():
    # the 81-cell inclusion scan over {1, 2, inf} at the acceptance config,
    # as the benchmark runs it: its 184 estimates take exactly this many |f|
    # samples (monomials one ray per level, the q = inf ring of a mirror-
    # symmetric function its half), and each verdict is the reference
    # table's, which this test only reads
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    reference = json.loads((bench / "scan_verdicts.json").read_text())
    cache = NormCache(SCAN_CFG)
    verdicts = {}
    for cell in itertools.product((1, 2, "inf"), repeat=4):
        v = inclusion_witness_scan(*cell, SCAN_CFG, cache)
        verdicts[",".join(map(str, cell))] = [
            v.included, v.excluded_point, v.witness_conclusion()]
    assert verdicts == reference["verdicts"]
    estimates = list(cache._store.values())
    assert len(estimates) == 184
    assert sum(sum(est.evaluations) for est in estimates) == 6_370_392
    # levels read from the cache's level store without a sample, the one
    # ray of a rotation-invariant f at any q and angular count included
    assert cache.shared_levels == 222
