import math

import numpy as np
import pytest
from scipy import integrate

from radmix import (
    DomainError,
    GridFunction,
    Monomial,
    PolarGrid,
    TaylorPolynomial,
    apply_kernel_operator,
    bergman_kernel,
    bergman_projection_operator,
    circle_maximal,
    duality_pairing,
    grid_mixed_norm,
    kernel_capped,
    kernel_capped_depth,
    kernel_offdiag,
    kernel_offdiag_dilated,
    mixed_norm,
    operator_norm_estimate,
    project,
    projection_blowup_density,
    running_average_maximal,
    sample_on_grid,
    stolz_wedge_inequalities,
    QuadratureConfig,
)
from radmix.meshes import angular_distance

GRID = PolarGrid.build(64, 64)


def test_grid_mass_and_shape():
    assert GRID.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(GRID.weights >= 0)
    assert GRID.shape == (64, 64)
    with pytest.raises(ValueError):
        PolarGrid.build(64, 63)


def test_grid_arrays_are_read_only_copies():
    # writing a grid in place would leave cached mode tables stale
    radii = GRID.radii.copy()
    g = PolarGrid.of(radii, GRID.angles.copy(), GRID.radial_weights.copy())
    radii[0] = 0.5
    assert g.radii[0] == GRID.radii[0]
    for grid in (g, GRID):
        for name in ("radii", "angles", "radial_weights", "weights"):
            with pytest.raises(ValueError):
                getattr(grid, name)[:] *= 2
    gf = sample_on_grid(Monomial(3), g)
    assert abs(project(gf, 0.5, g) - project(Monomial(3), 0.5, g)) < 1e-12


def test_grid_rejects_radii_beyond_grading_depth():
    # 43 cells of 8 nodes is the deepest grading the meshes honour
    assert PolarGrid.build(64, 344).shape == (344, 64)
    for n_radii in (352, 512):
        with pytest.raises(ValueError):
            PolarGrid.build(64, n_radii)


def test_bergman_kernel_values():
    assert bergman_kernel(0.0, 0.3 + 0.2j) == pytest.approx(1.0)
    assert bergman_kernel(0.4j, 0.0) == pytest.approx(1.0)
    assert bergman_kernel(0.5, 0.5) == pytest.approx(16 / 9)


def test_projection_reproduces_polynomials():
    pts = [0.0, 0.3, 0.5j, -0.4 + 0.2j, 0.55 * np.exp(2.1j)]
    for n in (0, 3, 6):
        for z in pts:
            v = project(Monomial(n), z, GRID)
            assert abs(v - z ** n) < 1e-9
    # also for a grid-sampled input
    gf = sample_on_grid(Monomial(3), GRID)
    assert abs(project(gf, 0.5, GRID) - 0.125) < 1e-9


def test_kernel_branch_values():
    # capped kernel branch arithmetic
    assert kernel_capped(0.3, 0.0, 0.4, 1.7) == 0.0          # gap >= 1
    assert kernel_capped(0.9, 0.5, 0.9, 0.0) == pytest.approx(4.0)
    assert kernel_capped(0.5, 0.1, 0.5, 0.0) == pytest.approx(1 / 0.75 ** 2)
    # depth-capped kernel
    assert kernel_capped_depth(0.0, 0.1, 0.3, 0.2) == pytest.approx(1 / 0.09)
    # off-diagonal kernel vanishes when the depth exceeds the gap
    assert kernel_offdiag(0.0, 0.1, 0.3, 0.2) == 0.0
    d, x, y = 0.4, 0.3, 0.2
    assert kernel_offdiag(0.0, d, x, y) == kernel_capped_depth(0.0, d, x, y)
    # dilation identity
    assert kernel_offdiag_dilated(2, 0.0, 0.4, 0.3, 0.2) == pytest.approx(
        2.0 ** -4 * kernel_offdiag(0.0, 0.4, 2.0 ** -2 * 0.3, 2.0 ** -2 * 0.2))


def test_kernel_chain_random_tuples():
    rng = np.random.default_rng(123)
    n = 20000
    r, rho = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    th, ph = rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 2 * np.pi, n)
    x, y = rng.uniform(1e-9, 1, n), rng.uniform(1e-9, 1, n)
    d = angular_distance(th - ph)
    K = np.abs(bergman_kernel(r * np.exp(1j * th), rho * np.exp(1j * ph)))
    D = kernel_capped(r, th, rho, ph)
    assert not np.any((d <= 1.0) & (K > 4 * D))
    Ht = kernel_capped_depth(th, ph, x, y)
    Dxy = kernel_capped(1 - x, th, 1 - y, ph)
    assert not np.any(Ht / 4 > Dxy)
    assert not np.any(Dxy > Ht)
    H = kernel_offdiag(th, ph, x, y)
    assert not np.any(H > Ht)
    S = np.zeros(n)
    for m in range(41):
        S += kernel_offdiag_dilated(m, th, ph, x, y)
    assert not np.any(Ht > 3 * S)


def test_apply_kernel_operator_unit_mass():
    one = GridFunction(GRID, np.ones(GRID.shape, dtype=complex))
    ones_like = lambda *a: np.ones(np.broadcast(*a).shape)
    out = apply_kernel_operator(ones_like, one)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12
    zero = GridFunction(GRID, np.zeros(GRID.shape, dtype=complex))
    out = apply_kernel_operator(kernel_capped_depth, zero)
    assert np.max(np.abs(out.values)) == 0.0


def test_apply_kernel_operator_matches_double_sum():
    # the O(nr^2 m^2) sum over every (radius, angle) input node
    grid = PolarGrid.build(32, 16)
    nr, m = grid.shape
    rng = np.random.default_rng(15)
    f = GridFunction(grid, rng.standard_normal(grid.shape)
                     + 1j * rng.standard_normal(grid.shape))
    x = 1.0 - grid.radii
    th = grid.angles
    dilate = lambda t, p, x, y: kernel_offdiag_dilated(3, t, p, x, y)
    for kernel in (kernel_offdiag, kernel_capped_depth, dilate):
        k = kernel(th[:, None, None, None], th[None, None, :, None],
                   x[None, :, None, None], x[None, None, None, :])  # (a, i, b, j)
        direct = np.einsum("aibj,jb,j->ia", k, f.values, grid.radial_weights / m)
        got = apply_kernel_operator(kernel, f).values
        assert np.max(np.abs(got - direct)) < 1e-12 * np.max(np.abs(direct))


def test_grid_mixed_norm_branches():
    vals = np.ones(GRID.shape, dtype=complex)
    gf = GridFunction(GRID, vals)
    for pq in ((1, 1), (2, 4), (2, "inf"), ("inf", 3), ("inf", "inf")):
        assert grid_mixed_norm(gf, pq) == pytest.approx(1.0)
    gf2 = GridFunction(GRID, 2.0 * vals)
    assert grid_mixed_norm(gf2, (2, 2)) == pytest.approx(2.0)


def test_running_average_maximal():
    nodes = np.linspace(0, 1, 65)
    const = np.full(65, 3.0)
    assert running_average_maximal(const, nodes, 0.0) == pytest.approx(3.0)
    assert running_average_maximal(const, nodes, 0.7) == pytest.approx(3.0)
    assert running_average_maximal(const, nodes, 1.0) == 0.0
    assert running_average_maximal(const, nodes, 1.7) == 0.0
    vals = np.abs(np.sin(7 * nodes)) + 0.1
    xs = np.linspace(0, 0.99, 31)
    rs = [running_average_maximal(vals, nodes, x) for x in xs]
    assert all(a >= b - 1e-15 for a, b in zip(rs, rs[1:]))


def test_running_average_below_windowed_maximal():
    rng = np.random.default_rng(8)
    nodes = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 50)), [1.0]])
    vals = rng.uniform(0, 5, nodes.size)
    prefix = np.concatenate(
        [[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(nodes))])
    for x in (0.0, 0.15, 0.4, 0.83):
        rv = running_average_maximal(vals, nodes, x)
        best = 0.0
        for a in range(nodes.size):
            if nodes[a] > x:
                break
            for b in range(a + 1, nodes.size):
                if nodes[b] >= x:
                    best = max(best, (prefix[b] - prefix[a]) / (nodes[b] - nodes[a]))
        assert rv <= best + 1e-12


def test_circle_maximal():
    assert np.allclose(circle_maximal(np.full(32, 2.5)), 2.5)
    spike = np.zeros(64)
    spike[10] = 5.0
    cm = circle_maximal(spike)
    for k in (1, 2, 3):
        assert cm[10 + k] >= 5.0 / (2 * k + 1) - 1e-12
    assert np.all(cm >= spike)


def test_bilinear_bound_discretised():
    rng = np.random.default_rng(42)
    m, k = 32, 96
    mids = (np.arange(k) + 0.5) / k
    th = 2 * np.pi * np.arange(m) / m
    fv = rng.uniform(0, 1, (m, k))
    gv = rng.uniform(0, 1, (m, k))
    nodes = np.concatenate([[0.0], mids, [1.0]])
    ext = lambda v: np.concatenate([[v[0]], v, [v[-1]]])
    dth = 2 * np.pi / m
    wm = 1.0 / k
    lhs = 0.0
    for i in range(m):
        hmat = kernel_offdiag(th[i], th[:, None, None],
                              mids[None, :, None], mids[None, None, :])
        tf = np.einsum("jkl,jl->k", hmat, fv) * wm * dth
        lhs += dth * wm * float(np.sum(gv[i] * tf))
    rhs = 0.0
    for i in range(m):
        for j in range(m):
            d = float(angular_distance(th[i] - th[j]))
            rhs += dth * dth * running_average_maximal(ext(fv[j]), nodes, d) \
                * running_average_maximal(ext(gv[i]), nodes, d)
    assert lhs <= 1.05 * rhs


def test_fefferman_stein_ratio_stable():
    rng = np.random.default_rng(77)
    ratios = []
    for n in (256, 512):
        gs = rng.uniform(0, 1, (8, n))
        num = np.mean(np.sum([circle_maximal(g) ** 2 for g in gs], axis=0)) ** 0.5
        den = np.mean(np.sum(gs ** 2, axis=0)) ** 0.5
        ratios.append(num / den)
    assert max(ratios) / min(ratios) < 2.0


def test_operator_norm_estimate_basics():
    ident = lambda gf: gf
    v, trace = operator_norm_estimate(ident, (2, 2), GRID, trials=6, seed=3)
    assert v == 1.0
    assert len(trace) == 6
    doubler = lambda gf: GridFunction(gf.grid, 2.0 * gf.values)
    v2, _ = operator_norm_estimate(doubler, (2, 2), GRID, trials=6, seed=3)
    assert v2 == pytest.approx(2.0, rel=1e-12)
    # deterministic under a fixed seed
    v3, _ = operator_norm_estimate(ident, (2, 2), GRID, trials=6, seed=3)
    assert v3 == v


def test_projection_operator_stability_under_doubling():
    vals = []
    for g in (PolarGrid.build(64, 64), PolarGrid.build(128, 128)):
        op = bergman_projection_operator(g)
        v, _ = operator_norm_estimate(op, (2, 2), g, trials=12, seed=5)
        vals.append(v)
    assert abs(vals[1] - vals[0]) <= 0.10 * vals[0]


def test_dilated_operator_norm_bound():
    def op_h(gf):
        return apply_kernel_operator(kernel_offdiag, gf)

    def op_hn(n):
        return lambda gf: apply_kernel_operator(
            lambda t, p, x, y: kernel_offdiag_dilated(n, t, p, x, y), gf)

    base, _ = operator_norm_estimate(op_h, (2, 2), GRID, trials=12, seed=11)
    for n in (1, 2, 3):
        vn, _ = operator_norm_estimate(op_hn(n), (2, 2), GRID, trials=12, seed=11)
        assert vn <= 2.0 ** -n * base * 1.25


def test_duality_pairing():
    for n in (0, 2, 5):
        v = duality_pairing(Monomial(n), Monomial(n), GRID)
        assert v == pytest.approx(1 / (n + 1), abs=1e-12)
    assert abs(duality_pairing(Monomial(1), Monomial(2), GRID)) < 1e-14
    # pairing bounded by the product of dual mixed norms (random polynomials)
    rng = np.random.default_rng(10)
    cfg = QuadratureConfig()
    for _ in range(6):
        f = TaylorPolynomial(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        g = TaylorPolynomial(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        lhs = abs(duality_pairing(f, g, GRID))
        rhs = mixed_norm(f, (2, 2), cfg).value * mixed_norm(g, (2, 2), cfg).value
        assert lhs <= rhs * (1 + 1e-6)


def test_projection_self_adjoint_on_grid():
    op = bergman_projection_operator(GRID)
    rng = np.random.default_rng(4)
    for _ in range(4):
        f = sample_on_grid(TaylorPolynomial(rng.standard_normal(6) * (1 + 1j)), GRID)
        g = sample_on_grid(TaylorPolynomial(rng.standard_normal(6) * (1 - 0.5j)), GRID)
        a = duality_pairing(op(f), g, GRID)
        b = duality_pairing(f, op(g), GRID)
        assert a == pytest.approx(b, rel=1e-10)


def test_projection_operator_reproduces_polynomials():
    op = bergman_projection_operator(GRID)
    rng = np.random.default_rng(12)
    for degree in (0, 4, 15, 31):  # every degree below m / 2 = 32
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        gf = sample_on_grid(TaylorPolynomial(coeffs), GRID)
        assert np.max(np.abs(op(gf).values - gf.values)) < 1e-10


def test_projection_operator_idempotent():
    op = bergman_projection_operator(GRID)
    rng = np.random.default_rng(13)
    f = GridFunction(GRID, rng.standard_normal(GRID.shape)
                     + 1j * rng.standard_normal(GRID.shape))
    pf = op(f)
    assert np.max(np.abs(pf.values)) > 0.1
    assert np.max(np.abs(op(pf).values - pf.values)) < 1e-10


def test_projection_operator_matches_point_quadrature():
    grid = PolarGrid.build(128, 128)
    rng = np.random.default_rng(14)
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    poly = sample_on_grid(TaylorPolynomial(rng.standard_normal(8)), grid).values
    f = GridFunction(grid, noise + poly)
    inner = grid.radii <= 0.6
    expected = project(f, grid.nodes()[inner], grid)
    assert np.max(np.abs(expected)) > 0.5
    got = bergman_projection_operator(grid)(f).values[inner]
    assert np.max(np.abs(got - expected)) < 1e-12


def _node_sum(gf, zs):
    """The grid quadrature of K(z, .) f written out node by node."""
    nodes, weighted = gf.grid.nodes(), gf.values * gf.grid.weights
    return np.array([np.sum(bergman_kernel(z, nodes) * weighted) for z in zs])


def test_project_matches_explicit_node_sum(monkeypatch):
    big = PolarGrid.build(4096, 224, nodes_per_cell=16)
    pts = np.array([0.8, 0.9, 0.95, 0.975, 0.99, 0.99999, 0.3 + 0.9j, -0.95j])
    for p in (2, 4):
        gf = sample_on_grid(projection_blowup_density(p), big)
        expected = _node_sum(gf, pts)
        got = np.array([project(gf, z, big) for z in pts])
        assert np.max(np.abs(got / expected - 1.0)) < 1e-12
    # a rough input at a seeded subset of nodes inside r <= 0.99
    grid = PolarGrid.build(128, 128)
    rng = np.random.default_rng(16)
    f = GridFunction(grid, rng.standard_normal(grid.shape)
                     + 1j * rng.standard_normal(grid.shape))
    inside = grid.nodes()[grid.radii <= 0.99].ravel()
    zs = rng.choice(inside, 64, replace=False)
    expected = _node_sum(f, zs)
    got = project(f, zs, grid)
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))
    # the values are frozen, so the mode table built above stays valid
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0
    assert isinstance(project(f, 0.5, grid), complex)

    def no_fft(*args, **kwargs):
        raise AssertionError("mode table rebuilt")
    monkeypatch.setattr(np.fft, "fft", no_fft)
    assert project(f, zs[:3], grid) == pytest.approx(got[:3], rel=1e-15)


def test_project_rejects_points_outside_disc():
    gf = sample_on_grid(Monomial(1), GRID)
    for z in (1.0, 1.5, -1j, 0.6 + 0.8j, np.nan, complex(0.1, np.inf),
              [0.2, 1.0 + 1e-12]):
        with pytest.raises(DomainError):
            project(gf, z, GRID)


def test_grid_function_on_other_nodes_rejected():
    # same shape as GRID, different radii and weights
    other = PolarGrid.build(64, 64, nodes_per_cell=16)
    gf = sample_on_grid(Monomial(3), GRID)
    with pytest.raises(ValueError):
        project(gf, 0.5, other)
    with pytest.raises(ValueError):
        duality_pairing(gf, gf, other)
    with pytest.raises(ValueError):
        bergman_projection_operator(other)(gf)
    # an equal grid built separately (as from a sidecar file) is accepted
    same = PolarGrid.of(GRID.radii.copy(), GRID.angles.copy(),
                        GRID.radial_weights.copy())
    assert abs(project(gf, 0.5, same) - 0.125) < 1e-9
    assert duality_pairing(gf, gf, same) == pytest.approx(0.25, abs=1e-12)


def test_projection_operator_rejects_other_grid():
    op = bergman_projection_operator(GRID)
    other = PolarGrid.build(32, 64)
    with pytest.raises(ValueError):
        op(GridFunction(other, np.ones(other.shape, dtype=complex)))


def test_wedge_projection_against_adaptive_quadrature():
    """Criterion 9a's grid values and slopes against scipy's dblquad.

    The oracle integrates K(a, w) f(w) dA(w) over the wedge
    {0 < t < 1/2, 0 < r < 1 - 2t} directly.  Its slopes lie outside the
    stated -1/p +- 0.15 as well, so criterion 9a fails on the integral
    itself, not on the grid.
    """
    avals = np.array([0.8, 0.9, 0.95, 0.975])
    grid = PolarGrid.build(4096, 224, nodes_per_cell=16)
    for p in (2, 4):
        alpha = 2.0 - 1.0 / p
        oracle = []
        for a in avals:
            def part(r, t, take):
                w = r * np.exp(1j * t)
                v = (t ** alpha / (1.0 - (1.0 - t) * w) ** 2
                     / (1.0 - a * np.conj(w)) ** 2 * r / np.pi)
                return take(v)
            upper = lambda t: 1.0 - 2.0 * t
            re, im = (integrate.dblquad(part, 0.0, 0.5, 0.0, upper, args=(take,),
                                        epsabs=1e-9, epsrel=1e-6)[0]
                      for take in (np.real, np.imag))
            oracle.append(abs(complex(re, im)))
        oracle = np.array(oracle)
        gf = sample_on_grid(projection_blowup_density(p), grid)
        values = np.array([abs(project(gf, a, grid)) for a in avals])
        assert np.all(np.abs(values / oracle - 1.0) < 0.05)
        slope = lambda v: float(np.polyfit(np.log(1 - avals), np.log(v), 1)[0])
        assert abs(slope(values) - slope(oracle)) < 0.03
        assert abs(slope(oracle) + 1.0 / p) > 0.15


def test_grid_function_file_round_trip(tmp_path):
    from radmix import load_grid_function, save_grid_function
    rng = np.random.default_rng(0)
    small = PolarGrid.build(16, 16)
    gf = GridFunction(small, rng.standard_normal(small.shape)
                      + 1j * rng.standard_normal(small.shape))
    path = tmp_path / "grid.csv"
    save_grid_function(gf, path)
    assert (tmp_path / "grid.csv.json").exists()
    back = load_grid_function(path)
    assert np.array_equal(back.values, gf.values)
    assert np.array_equal(back.grid.radii, small.radii)
    assert np.array_equal(back.grid.weights, small.weights)
    assert grid_mixed_norm(back, (2, 4)) == grid_mixed_norm(gf, (2, 4))


def test_grid_sidecar_tampering_raises_value_error(tmp_path):
    import json
    from radmix import load_grid_function, save_grid_function
    small = PolarGrid.build(16, 16)
    path = tmp_path / "grid.csv"
    save_grid_function(GridFunction(small, np.ones(small.shape, dtype=complex)),
                       path)
    sidecar = tmp_path / "grid.csv.json"
    meta = json.loads(sidecar.read_text())
    tampered = {
        "reversed radii": dict(meta, radii=meta["radii"][::-1],
                               radial_weights=meta["radial_weights"][::-1]),
        "repeated radius": dict(meta, radii=[meta["radii"][0]] + meta["radii"][:-1]),
        "radius 1": dict(meta, radii=meta["radii"][:-1] + [1.0]),
        "doubled weight": dict(meta, radial_weights=[2 * meta["radial_weights"][0]]
                               + meta["radial_weights"][1:]),
    }
    for bad in tampered.values():
        sidecar.write_text(json.dumps(bad))
        with pytest.raises(ValueError):
            load_grid_function(path)
    sidecar.write_text(json.dumps(meta))
    assert load_grid_function(path).grid.shape == small.shape


def test_grid_sidecar_angle_tampering_raises_value_error(tmp_path):
    import json
    from radmix import load_grid_function, save_grid_function
    small = PolarGrid.build(16, 16)
    path = tmp_path / "grid.csv"
    save_grid_function(GridFunction(small, np.ones(small.shape, dtype=complex)),
                       path)
    sidecar = tmp_path / "grid.csv.json"
    meta = json.loads(sidecar.read_text())
    angles = meta["angles"]
    tampered = {
        "shuffled": angles[1::2] + angles[::2],
        "shifted": [a + 1e-9 for a in angles],
        "midpoints": [a + np.pi / 16 for a in angles],
    }
    for bad in tampered.values():
        sidecar.write_text(json.dumps(dict(meta, angles=bad)))
        with pytest.raises(ValueError):
            load_grid_function(path)
    with pytest.raises(ValueError):
        PolarGrid.of(small.radii, small.angles[::-1], small.radial_weights)


def test_stolz_wedge_inequalities():
    z = 0.5 * np.exp(0.1j)
    ratio1, arg_ok, re_ok = stolz_wedge_inequalities(z, z)
    assert 1.0 <= ratio1 <= math.sqrt(5) / 2
    assert arg_ok and re_ok
    w = 0.2 * np.exp(0.3j)
    ratio1, arg_ok, re_ok = stolz_wedge_inequalities(z, w)
    assert arg_ok and re_ok
    with pytest.raises(ValueError):
        stolz_wedge_inequalities(0.9, z)
