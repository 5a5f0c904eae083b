import math

import numpy as np
import pytest
from scipy import integrate

from radmix import (
    DomainError,
    GridFunction,
    Monomial,
    PolarGrid,
    RationalBump,
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
    kernel_offdiag_dyadic_sum,
    mixed_norm,
    operator_norm_estimate,
    project,
    projection_blowup_density,
    running_average_maximal,
    sample_on_grid,
    stolz_wedge_inequalities,
    QuadratureConfig,
)
from radmix import bergman
from radmix.cli import BLOWUP_GRID, kernel_chain_violations
from radmix.meshes import angular_distance

GRID = PolarGrid.build(64, 64)


def test_grid_mass_and_shape():
    assert GRID.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(GRID.weights >= 0)
    assert GRID.shape == (64, 64)
    with pytest.raises(ValueError):
        PolarGrid.build(64, 63)


def test_grid_arrays_are_read_only_copies():
    # writing a grid in place would leave cached weights and moments stale
    radii = GRID.radii.copy()
    g = PolarGrid(radii, GRID.radial_weights.copy(), 64)
    radii[0] = 0.5
    assert g.radii[0] == GRID.radii[0]
    for grid in (g, GRID):
        for name in ("radii", "angles", "radial_weights", "weights"):
            with pytest.raises(ValueError):
                getattr(grid, name)[:] *= 2
    gf = sample_on_grid(Monomial(3), g)
    assert abs(project(gf, 0.5, g) - project(Monomial(3), 0.5, g)) < 1e-12


def test_grid_constructor_checks_its_inputs():
    w = GRID.radial_weights
    for radii, weights, n_angles in [
            ([0.9, 0.1], [1.0, 1.0], 2),            # decreasing radii
            (GRID.radii, 2 * w, 64),                # twice the unit mass
            (GRID.radii, w[:-1], 64),               # one weight short
            (GRID.radii[::-1], w[::-1], 64),        # unit mass, radii reversed
            (np.append(GRID.radii[0], GRID.radii[:-1]), w, 64),  # a radius twice
            (np.append(GRID.radii[:-1], 1.0), w, 64),            # radius 1
            (GRID.radii, w, 0),                     # no angle
            (GRID.radii, w, 64.0)]:                 # a float angle count
        with pytest.raises(ValueError):
            PolarGrid(radii, weights, n_angles)


def test_grids_compare_and_hash_by_identity():
    other = PolarGrid.build(64, 64)
    assert GRID == GRID and GRID != other
    assert len({GRID, other, GRID}) == 2
    gf = sample_on_grid(Monomial(1), GRID)
    assert gf == gf and gf != sample_on_grid(Monomial(1), GRID)
    assert hash(gf) == hash(gf)


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
    assert kernel_capped(0.3, 0.4, 1.7) == 0.0               # gap >= 1
    assert kernel_capped(0.9, 0.9, 0.5) == pytest.approx(4.0)
    assert kernel_capped(0.5, 0.5, 0.1) == pytest.approx(1 / 0.75 ** 2)
    # depth-capped kernel
    assert kernel_capped_depth(0.1, 0.3, 0.2) == pytest.approx(1 / 0.09)
    # off-diagonal kernel vanishes when the depth exceeds the gap
    assert kernel_offdiag(0.1, 0.3, 0.2) == 0.0
    d, x, y = 0.4, 0.3, 0.2
    assert kernel_offdiag(d, x, y) == kernel_capped_depth(d, x, y)


def _dilate(n: int):
    """The dyadic dilate H_n(d, x, y) = 4^-n H(d, 2^-n x, 2^-n y)."""
    s = 2.0 ** -n
    return lambda d, x, y: s * s * kernel_offdiag(d, s * np.asarray(x),
                                                  s * np.asarray(y))


def test_dyadic_sum_matches_the_41_dilates():
    # the closed form against the sum of the dilates n = 0..40, on the
    # random tuples of the kernel chain and on the power-of-two edges
    # 2^-n max(x, y) = d, where a term switches on
    rng = np.random.default_rng(21)
    n = 200000
    d = angular_distance(rng.uniform(0, 2 * np.pi, n))
    x, y = rng.uniform(1e-12, 1, n), rng.uniform(1e-12, 1, n)
    k = np.arange(45)
    edge = np.ldexp(0.75, -k)
    d = np.concatenate([d, edge, np.nextafter(edge, 0), np.nextafter(edge, 1),
                        [1.0, 1.5, 0.3]])
    x = np.concatenate([x, np.full(3 * 45, 0.75), [1.0, 0.1, 0.3 * 2.0 ** 41]])
    y = np.concatenate([y, np.zeros(3 * 45 + 3)])
    reference = sum(_dilate(m)(d, x, y) for m in range(41))
    got = kernel_offdiag_dyadic_sum(d, x, y)
    assert np.array_equal(got == 0.0, reference == 0.0)
    nz = reference != 0.0
    assert np.count_nonzero(nz) > n // 4
    assert np.max(np.abs(got[nz] / reference[nz] - 1.0)) <= 2e-15


def test_kernel_chain_random_tuples():
    counts = kernel_chain_violations(np.random.default_rng(123), 20000)
    assert counts == dict.fromkeys(counts, 0)


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
    gap = angular_distance(th[:, None, None, None] - th[None, None, :, None])
    for kernel in (kernel_offdiag, kernel_capped_depth, _dilate(3),
                   kernel_offdiag_dyadic_sum):
        k = kernel(gap, x[None, :, None, None], x[None, None, None, :])  # (a, i, b, j)
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
        hmat = kernel_offdiag(angular_distance(th[i] - th[:, None, None]),
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


def test_operator_norm_estimate_basics(monkeypatch):
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
    # a witness is sampled only when a trial reaches it: every third trial
    sampled = []
    sample = bergman.sample_on_grid
    monkeypatch.setattr(bergman, "sample_on_grid",
                        lambda f, grid: sampled.append(f) or sample(f, grid))
    for trials, count in ((12, 4), (24, 8)):
        sampled.clear()
        operator_norm_estimate(ident, (2, 2), GRID, trials=trials, seed=3)
        assert len(sampled) == count


def test_projection_operator_stability_under_doubling():
    vals = []
    for g in (PolarGrid.build(64, 64), PolarGrid.build(128, 128)):
        op = bergman_projection_operator(g)
        v, _ = operator_norm_estimate(op, (2, 2), g, trials=12, seed=5)
        vals.append(v)
    assert abs(vals[1] - vals[0]) <= 0.10 * vals[0]


@pytest.mark.parametrize("n", [64, 128])
def test_projection_is_no_contraction_in_the_grid_norm(n):
    # grid_mixed_norm weighs radii by dr, so P's (2, 2) grid norm is
    # 2 / sqrt(3): mode k maps 2 rho^(k+1) e^(ik theta) with ratio
    # (k + 1) 2 / sqrt((2k + 1) (2k + 3)), exactly while the 8-node Gauss
    # cells integrate degree 2k + 2
    grid = PolarGrid.build(n, n)
    op = bergman_projection_operator(grid)
    rho, w = grid.radii, grid.radial_weights
    for k in range(7):
        gf = GridFunction(grid, 2.0 * rho[:, None] ** (k + 1)
                          * np.exp(1j * k * grid.angles)[None, :])
        ratio = grid_mixed_norm(op(gf), (2, 2)) / grid_mixed_norm(gf, (2, 2))
        closed = (k + 1) * 2.0 / math.sqrt((2 * k + 1) * (2 * k + 3))
        assert abs(ratio - closed) <= 1e-12, k
    # P is diagonal in the modes k < n/2, and its norm on mode k is
    # (k + 1) |r^k| |2 rho^(k+1)| in the dr-weighted L^2 norms: k = 0 is the
    # largest, so the (2, 2) grid norm is 2 / sqrt(3)
    k = np.arange(n // 2)
    powers = rho[None, :] ** (2 * k[:, None])
    per_mode = (k + 1.0) * np.sqrt((w * powers).sum(axis=1)
                                   * (4.0 * w * powers * rho ** 2).sum(axis=1))
    assert int(np.argmax(per_mode)) == 0
    assert abs(per_mode[0] - 2.0 / math.sqrt(3.0)) <= 1e-12
    # the randomised lower bound stays below that norm
    bound, trace = operator_norm_estimate(op, (2, 2), grid, trials=12, seed=0)
    assert bound <= 2.0 / math.sqrt(3.0)
    assert all(r <= 2.0 / math.sqrt(3.0) for _, r in trace)


def test_dilated_operator_norm_bound():
    def op_h(gf):
        return apply_kernel_operator(kernel_offdiag, gf)

    def op_hn(n):
        return lambda gf: apply_kernel_operator(_dilate(n), gf)

    base, _ = operator_norm_estimate(op_h, (2, 2), GRID, trials=12, seed=11)
    for n in (1, 2, 3):
        vn, _ = operator_norm_estimate(op_hn(n), (2, 2), GRID, trials=12, seed=11)
        assert vn <= 2.0 ** -n * base * 1.25


def test_duality_pairing(monkeypatch):
    sampled = []
    sample = bergman.sample_on_grid
    monkeypatch.setattr(bergman, "sample_on_grid",
                        lambda f, grid: sampled.append(f) or sample(f, grid))
    for n in (0, 2, 5):
        f = Monomial(n)
        v = duality_pairing(f, f, GRID)
        assert v == pytest.approx(1 / (n + 1), abs=1e-12)
        # a function paired with itself is sampled once, to the same value
        assert sampled == [f]
        assert duality_pairing(f, Monomial(n), GRID) == v
        sampled.clear()
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
    # project and the operator are one discrete P: at every node, the outer
    # ones included, project evaluates the polynomial the operator samples
    for n in (64, 128):
        grid = PolarGrid.build(n, n)
        rng = np.random.default_rng(14)
        noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        poly = sample_on_grid(TaylorPolynomial(rng.standard_normal(8)), grid).values
        for values in (noise, noise + poly):
            f = GridFunction(grid, values)
            got = bergman_projection_operator(grid)(f).values
            expected = project(f, grid.nodes(), grid)
            assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(got))


def test_projection_operator_reads_the_cached_moments():
    # bit for bit, the operator is the inverse FFT of (k + 1) r^k m mu_k
    # over the modes k < m/2, with mu the input's cached moments
    m, half = GRID.n_angles, GRID.n_angles // 2
    k = np.arange(half)
    out_factors = (k + 1.0) * GRID.radii[:, None] ** k
    rng = np.random.default_rng(19)
    dense = rng.standard_normal(GRID.shape) + 1j * rng.standard_normal(GRID.shape)
    banded = np.zeros(GRID.shape, dtype=complex)
    banded[20:41] = dense[20:41]
    op = bergman_projection_operator(GRID)
    for values in (dense, banded, np.zeros(GRID.shape)):
        gf = GridFunction(GRID, values)
        got = op(gf).values
        out_hat = np.zeros(GRID.shape, dtype=complex)
        out_hat[:, :half] = out_factors * (m * gf.moments)
        assert np.array_equal(got, np.fft.ifft(out_hat, axis=1))


def test_moments_match_a_double_loop():
    # mu_k = sum_i c_i rho_i^k sum_l f_il e^(-2 pi i k l / m), node by node
    grid = PolarGrid.build(16, 16)
    nr, m = grid.shape
    rng = np.random.default_rng(23)
    dense = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    banded = np.where((np.arange(nr) % 11 > 2)[:, None], dense, 0.0)
    for values in (dense, banded):
        gf = GridFunction(grid, values)
        expected = np.zeros(m // 2, dtype=complex)
        for k in range(m // 2):
            for i in range(nr):
                for j in range(m):
                    expected[k] += (grid.weights[i, j] * grid.radii[i] ** k
                                    * values[i, j]
                                    * np.exp(-2j * np.pi * k * j / m))
        assert np.max(np.abs(gf.moments - expected)) < 1e-13
        with pytest.raises(ValueError):
            gf.moments[0] = 1.0


@pytest.mark.parametrize("n", [64, 128])
def test_project_reproduces_monomials_near_the_boundary(n):
    # (n + 1) mu_n = 1 exactly while the 8-node Gauss cells integrate
    # 2 rho^(2n+1), that is for n <= 7; every other mode is rounding
    grid = PolarGrid.build(n, n)
    zs = np.array([0.9, 0.99, 0.999, 0.9999])
    zs = np.concatenate([zs, zs * np.exp(2.1j)])
    for degree in range(8):
        got = project(Monomial(degree), zs, grid)
        assert np.max(np.abs(got - zs ** degree)) < 1e-13, degree


@pytest.mark.parametrize("n", [64, 128])
def test_project_annihilates_conjugate_powers(n):
    # conj(w)^j lives on the negative frequencies, which P removes
    grid = PolarGrid.build(n, n)
    zs = (np.array([0.0, 0.5, 0.9, 0.99, 0.999, 0.9999])[:, None]
          * np.exp(1j * np.array([0.0, 1.0, 2.5, -2.0])))
    for j in (1, 2, 3):
        f = sample_on_grid(lambda r, t: (r * np.exp(-1j * t)) ** j, grid)
        assert np.max(np.abs(project(f, zs, grid))) <= 1e-14, j


def test_odd_angle_counts_keep_every_nonnegative_mode():
    # on m odd angles the modes k <= (m - 1)/2 are all nonnegative
    # frequencies, the last one included
    zs = np.array([0.5, 0.9j, -0.99])
    for m in (3, 5, 9):
        grid = PolarGrid.build(m, 64)
        op = bergman_projection_operator(grid)
        for degree in range((m + 1) // 2):
            got = project(Monomial(degree), zs, grid)
            assert np.max(np.abs(got - zs ** degree)) < 1e-13, (m, degree)
            gf = sample_on_grid(Monomial(degree), grid)
            assert np.max(np.abs(op(gf).values - gf.values)) < 1e-13


def _node_sum(gf, zs):
    """The grid quadrature of K(z, .) f written out node by node."""
    nodes, weighted = gf.grid.nodes(), gf.values * gf.grid.weights
    return np.array([np.sum(bergman_kernel(z, nodes) * weighted) for z in zs])


def test_project_matches_explicit_node_sum(monkeypatch):
    # the node sum also carries the modes k >= m/2, weighted by up to
    # (k + 1) |z rho|^(m/2); where that is below rounding the two agree
    big = PolarGrid.build(4096, 224, nodes_per_cell=16)
    pts = np.array([0.8, 0.9, 0.95, 0.975])
    for p in (2, 4):
        gf = sample_on_grid(projection_blowup_density(p), big)
        expected = _node_sum(gf, pts)
        got = np.array([project(gf, z, big) for z in pts])
        assert np.max(np.abs(got / expected - 1.0)) < 1e-12
    # a rough input at a seeded subset of nodes inside r <= 0.6, and the
    # same noise kept on an inner band of radii only
    grid = PolarGrid.build(128, 128)
    rng = np.random.default_rng(16)
    f = GridFunction(grid, rng.standard_normal(grid.shape)
                     + 1j * rng.standard_normal(grid.shape))
    band_rows = ((grid.radii > 0.3) & (grid.radii < 0.9))[:, None]
    band = GridFunction(grid, np.where(band_rows, f.values, 0.0))
    assert 0 < band.row_span.start < band.row_span.stop < grid.shape[0]
    inside = grid.nodes()[grid.radii <= 0.6].ravel()
    zs = rng.choice(inside, 64, replace=False)
    for gf in (band, f):
        expected = _node_sum(gf, zs)
        got = project(gf, zs, grid)
        scale = 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) < scale
        assert abs(project(gf, zs[0], grid) - expected[0]) < scale
    # the values are frozen, so the moments computed above stay valid
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0
    assert isinstance(project(f, 0.5, grid), complex)

    def no_fft(*args, **kwargs):
        raise AssertionError("moments recomputed")
    monkeypatch.setattr(np.fft, "fft", no_fft)
    assert project(f, zs[:3], grid) == pytest.approx(got[:3], rel=1e-15)


def test_moments_transform_only_radii_with_samples(monkeypatch):
    big = PolarGrid.build(**BLOWUP_GRID)
    gf = sample_on_grid(projection_blowup_density(2), big)
    rows = np.flatnonzero(np.any(gf.values != 0.0, axis=1))
    assert (rows[0], rows[-1], big.shape[0]) == (0, 134, 224)
    shapes = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft",
                        lambda a, *args, **kw: shapes.append(a.shape)
                        or fft(a, *args, **kw))
    assert gf.moments.shape == (big.n_angles // 2,)
    assert shapes == [(rows[-1] + 1 - rows[0], big.n_angles)]
    # an all-zero function transforms no row and projects to exact zeros
    zero = GridFunction(GRID, np.zeros(GRID.shape))
    assert np.array_equal(zero.moments, np.zeros(GRID.n_angles // 2))
    assert shapes[-1] == (0, GRID.n_angles)
    assert project(zero, 0.5, GRID) == 0.0
    zs = np.array([0.0, 0.5, -0.3 + 0.9j, 0.99999])
    assert np.array_equal(project(zero, zs, GRID), np.zeros(zs.shape))
    pz = bergman_projection_operator(GRID)(zero).values
    assert np.array_equal(pz, np.zeros(GRID.shape))


def test_project_rejects_points_outside_disc():
    gf = sample_on_grid(Monomial(1), GRID)
    for z in (1.0, 1.5, -1j, 0.6 + 0.8j, np.nan, complex(0.1, np.inf),
              [0.2, 1.0 + 1e-12]):
        with pytest.raises(DomainError):
            project(gf, z, GRID)


def test_non_finite_samples_rejected():
    # a function that overflows on the grid is refused where its samples
    # become a grid function, so no projection, operator or pairing sees it
    for bad in (np.inf, np.nan, complex(0.0, -np.inf)):
        values = np.ones(GRID.shape, dtype=complex)
        values[3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            GridFunction(GRID, values)
    big = RationalBump(1e302, 1.00001, 0.0)
    with np.errstate(over="ignore"):
        for use in (lambda: sample_on_grid(big, GRID),
                    lambda: project(big, 0.5, GRID),
                    lambda: duality_pairing(big, big, GRID)):
            with pytest.raises(ValueError, match="finite"):
                use()


def test_overflowing_projection_is_refused():
    # finite samples whose moments overflow: project, the grid operator
    # and the pairing each raise one ValueError about their own result,
    # where numpy gives NaN or inf, and none blames the samples; no
    # overflow warning escapes (warnings are errors here)
    gf = sample_on_grid(RationalBump(1e307, 1.5, 0.0), GRID)
    assert np.isfinite(gf.values).all()
    for use in (lambda: project(gf, 0.5, GRID),
                lambda: project(gf, [0.1, 0.5j], GRID),
                lambda: bergman_projection_operator(GRID)(gf),
                lambda: duality_pairing(gf, gf, GRID)):
        with pytest.raises(ValueError, match="overflowed the float range"):
            use()
    # a large but representable input passes the same gates
    ok = sample_on_grid(RationalBump(1e300, 1.5, 0.0), GRID)
    assert np.isfinite(project(ok, 0.5, GRID))
    assert np.isfinite(bergman_projection_operator(GRID)(ok).values).all()
    assert np.isfinite(duality_pairing(ok, Monomial(1), GRID))


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
    # an equal grid built separately is accepted
    same = PolarGrid(GRID.radii.copy(), GRID.radial_weights.copy(), 64)
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
    # arrays: elementwise, equal to the scalar answers
    zs = np.array([z, w, 0.3 * np.exp(0.2j)])
    ws = np.array([w, z, z])
    ratios, arg_oks, re_oks = stolz_wedge_inequalities(zs, ws)
    for k in range(zs.size):
        assert (ratios[k], arg_oks[k], re_oks[k]) == \
            stolz_wedge_inequalities(zs[k], ws[k])
    with pytest.raises(ValueError):
        stolz_wedge_inequalities(np.array([z, 0.9]), np.array([z, w]))
