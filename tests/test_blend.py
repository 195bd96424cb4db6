import json
import math
import re

import numpy as np
import pytest
from scipy.optimize import minimize

from pharmap.blend import (
    BlendResult,
    PolarMetricGrid,
    blend_metric,
    find_k_blend,
    hyperbolic_coefficient,
    load_metric_csv,
    partition_profile,
    save_metric_csv,
)
from pharmap.errors import DomainError, SearchExhaustedError, UsageError


def grid_from(gen, t_grid, ntheta=16, gen_dt=None):
    return PolarMetricGrid.from_generator(gen, t_grid, ntheta, generator_dt=gen_dt)


T_GRID = np.linspace(0.5, 2.5, 201)  # spacing 0.01, contains 1.0 and 2.0

SQUARE = lambda t, h: t**2  # noqa: E731
SQUARE_DT = lambda t, h: 2.0 * t  # noqa: E731
SINH2 = lambda t, h: np.sinh(t) ** 2  # noqa: E731
SINH2_DT = lambda t, h: np.sinh(2.0 * t)  # noqa: E731


def test_hyperbolic_coefficient_values():
    t = np.linspace(0.0, 3.0, 50)
    assert np.allclose(hyperbolic_coefficient(1.0, t), np.sinh(t) ** 2, rtol=1e-15)
    assert hyperbolic_coefficient(4.0, 1.0) == pytest.approx(math.sinh(2.0) ** 2 / 4.0, rel=1e-14)
    assert hyperbolic_coefficient(7.3, 0.0) == 0.0


# the coefficient of Hess T off the rays is (1/2) d_t j (module docstring of blend)


def test_hess_T_coefficient_analytic():
    g = grid_from(SINH2, T_GRID, gen_dt=SINH2_DT)
    coeff = 0.5 * g.d_dt()
    want = 0.5 * np.sinh(2.0 * T_GRID)
    assert np.allclose(coeff, want[:, None], rtol=1e-14)
    g2 = grid_from(SQUARE, T_GRID, gen_dt=SQUARE_DT)
    assert np.allclose(0.5 * g2.d_dt(), T_GRID[:, None], rtol=1e-14)


def test_hess_T_coefficient_finite_difference_route():
    g = grid_from(SINH2, T_GRID)  # no analytic derivative
    coeff = 0.5 * g.d_dt()
    want = 0.5 * np.sinh(2.0 * T_GRID)
    assert np.max(np.abs(coeff - want[:, None]) / (1 + np.abs(want[:, None]))) < 1e-7


def test_hess_T_coefficient_constant_metric_is_degenerate():
    g = PolarMetricGrid(T_GRID, 2 * np.pi * np.arange(8) / 8, np.full((T_GRID.size, 8), 5.0))
    assert np.max(np.abs(0.5 * g.d_dt())) < 1e-10


def test_hyperbolic_coefficient_refuses_a_nan_scale():
    # NaN fails every comparison, so the check of k > 0 is written to fail on it
    for k in (math.nan, 0.0, -1.0):
        with pytest.raises(DomainError, match="k > 0"):
            hyperbolic_coefficient(k, np.linspace(0.0, 1.0, 5))


def test_grid_validation():
    theta = 2 * np.pi * np.arange(8) / 8
    with pytest.raises(UsageError):
        PolarMetricGrid(np.array([0.0, 1.0]), theta, np.ones((2, 8)))  # t must be positive
    with pytest.raises(UsageError):
        PolarMetricGrid(T_GRID, theta, -np.ones((T_GRID.size, 8)))  # j must be positive
    with pytest.raises(UsageError):
        PolarMetricGrid(T_GRID, np.linspace(0, np.pi, 8), np.ones((T_GRID.size, 8)))
    with pytest.raises(UsageError):
        grid_from(lambda t, h: 2.0 + np.sin(0.5 * h), T_GRID)  # not 2pi-periodic
    with pytest.raises(TypeError):  # a grid holds no generator of j; d_t j is passed by name
        PolarMetricGrid(T_GRID, theta, np.ones((T_GRID.size, 8)), SQUARE_DT)


def test_grid_refuses_angles_that_are_not_1d():
    theta = 2 * np.pi * np.arange(8) / 8
    for angles in (theta.reshape(2, 4), theta.reshape(4, 2)):
        with pytest.raises(UsageError, match="theta_grid must be a 1d array"):
            PolarMetricGrid(T_GRID, angles, np.ones((T_GRID.size, 8)))


def test_grid_rejects_a_nan_radius():
    # np.diff of [0.5, nan, 2] is [nan, nan], and no NaN is <= 0
    theta = 2 * np.pi * np.arange(4) / 4
    for t in ([0.5, np.nan, 2.0], [np.nan, 1.0, 2.0], [0.5, 1.0, np.nan]):
        with pytest.raises(UsageError, match="t_grid must be strictly increasing and positive"):
            PolarMetricGrid(t, theta, np.ones((3, 4)))


def test_find_k_blend_square_metric():
    g = grid_from(SQUARE, T_GRID, gen_dt=SQUARE_DT)
    k, c2 = find_k_blend(g, 1.0, 2.0)
    assert k == 1.0
    assert c2 == pytest.approx(math.sinh(1.0) ** 2, rel=1e-12)  # annulus min sits at t=1
    # independent grid-min oracle
    mask = (T_GRID >= 1.0) & (T_GRID <= 2.0)
    oracle = np.min(np.sinh(T_GRID[mask]) ** 2 / T_GRID[mask] ** 2)
    assert c2 == pytest.approx(oracle, rel=1e-14)


@pytest.mark.parametrize("t", [[0.1, 0.3, 0.4], [0.1, 0.3, 0.4, 0.8]])
def test_d_dt_exact_on_polynomials_of_degree_n_minus_1(t):
    # on n < 5 samples the stencil has n nodes; for t^3 on the 4 nodes a
    # second-order np.gradient gave [-0.03, 0.29, 0.52, 1.72], not 3 t^2
    t = np.asarray(t)
    theta = 2 * np.pi * np.arange(3) / 3
    coeffs = np.array([[2.0, 1.0, 3.0], [0.5, 1.5, 2.0], [1.0, 0.0, 4.0], [1.0, 2.0, 0.5]])[: t.size]
    powers = np.arange(t.size)
    j = (t[:, None] ** powers) @ coeffs
    dj = (powers[1:] * t[:, None] ** (powers[1:] - 1)) @ coeffs[1:]
    got = PolarMetricGrid(t, theta, j).d_dt()
    assert np.allclose(got, dj, rtol=1e-13, atol=1e-13)


def test_blend_result_json_keys_equal_fields():
    result = blend_metric(grid_from(SQUARE, T_GRID, gen_dt=SQUARE_DT), 1.0, 1.0, 2.0)
    doc = json.loads(json.dumps(result.to_json_dict()))
    assert doc == {"k": result.k, "c2": result.c2, "min_dt_jhat": result.min_radial_derivative,
                   "pass": result.passed}


def test_find_k_blend_self():
    g = grid_from(SINH2, T_GRID)
    k, c2 = find_k_blend(g, 1.0, 2.0)
    assert k == 1.0 and c2 == pytest.approx(1.0, rel=1e-15)


def test_find_k_blend_steep_metric_requires_large_k():
    g = grid_from(lambda t, h: np.exp(10.0 * t), T_GRID, gen_dt=lambda t, h: 10.0 * np.exp(10.0 * t))
    k, c2 = find_k_blend(g, 1.0, 2.0)
    assert k > 1.0
    # returned k satisfies both inequalities; k/2 fails at least one
    t_ann = T_GRID[(T_GRID >= 1.0) & (T_GRID <= 2.0)]
    j_ann = np.exp(10.0 * t_ann)

    def feasible(kk):
        a = math.sinh(math.sqrt(kk) * 1.0) ** 2 >= kk * math.sinh(1.0) ** 2 / c2
        b = np.all(hyperbolic_coefficient(kk, t_ann) >= j_ann)
        return a and b

    assert feasible(k)
    assert not feasible(k / 2.0)
    # near the pole, on the annulus sqrt(k) t <= 2^20 * 5e-7 < 0.53 for every k <= 2^40, so
    # h_k(t) = sinh(sqrt(k) t)^2 / k < 1.1 t^2, far below j = 1
    near_pole = PolarMetricGrid(np.linspace(1e-8, 1e-6, 50), 2 * np.pi * np.arange(4) / 4, np.ones((50, 4)))
    with pytest.raises(SearchExhaustedError, match=re.escape(f"no k <= {2.0**40:g} dominates j on the annulus")):
        find_k_blend(near_pole, 2e-8, 5e-7)


def test_partition_identity_and_monotonicity():
    t = np.linspace(0.2, 3.0, 400)
    phi_j, phi_h, dphi_j = partition_profile(t, 1.0, 2.0)
    assert np.max(np.abs(phi_j + phi_h - 1.0)) == 0.0
    assert np.all(dphi_j <= 0.0)
    assert np.all(phi_j[t <= 1.0] == 1.0)
    assert np.all(phi_h[t >= 2.0] == 1.0)
    # dphi matches finite differences of phi
    h = 1e-6
    pj_p, _, _ = partition_profile(t + h, 1.0, 2.0)
    pj_m, _, _ = partition_profile(t - h, 1.0, 2.0)
    assert np.max(np.abs((pj_p - pj_m) / (2 * h) - dphi_j)) < 1e-7


def test_blend_endpoints_bit_exact():
    g = grid_from(SQUARE, T_GRID, ntheta=16, gen_dt=SQUARE_DT)
    result = blend_metric(g, 1.0, 1.0, 2.0)
    inner = T_GRID <= 1.0
    outer = T_GRID >= 2.0
    assert np.array_equal(result.blended.j[inner], g.j[inner])
    h = hyperbolic_coefficient(1.0, T_GRID[outer])
    assert np.array_equal(result.blended.j[outer], np.broadcast_to(h[:, None], result.blended.j[outer].shape))


def test_blend_self_is_identity():
    g = grid_from(SINH2, T_GRID, gen_dt=SINH2_DT)
    result = blend_metric(g, 1.0, 1.0, 2.0)
    assert result.passed
    assert np.allclose(result.blended.j, g.j, rtol=1e-15)
    # min of d_t jhat = sinh(2t) sits at the smallest positive t
    assert result.min_radial_derivative == pytest.approx(math.sinh(2 * T_GRID[0]), rel=1e-12)


def test_blend_square_metric_positive_certificate():
    g = grid_from(SQUARE, T_GRID, ntheta=64, gen_dt=SQUARE_DT)
    result = blend_metric(g, 1.0, 1.0, 2.0)
    assert isinstance(result, BlendResult)
    assert result.passed
    assert result.min_radial_derivative > 0.0


def test_blend_adversarial_violation_flagged():
    # j >> h_1 on the annulus makes the partition term drive d_t jhat negative
    gen = lambda t, h: 50.0 * (1.0 + t**2)  # noqa: E731
    gen_dt = lambda t, h: 100.0 * t  # noqa: E731
    g = grid_from(gen, T_GRID, gen_dt=gen_dt)
    result = blend_metric(g, 1.0, 1.0, 2.0)  # k=1 without find_k_blend
    assert not result.passed
    assert result.min_radial_derivative < 0.0


def test_blend_refuses_a_hyperbolic_coefficient_that_overflows():
    # h_k' = sinh(2 sqrt(k) t)/sqrt(k) overflows from 8 t > 710.48 on at k = 16,
    # the k that find_k_blend returns for j = exp(3t); the grid steps by 0.5
    gen, gen_dt = (lambda t, h: np.exp(3.0 * t)), (lambda t, h: 3.0 * np.exp(3.0 * t))
    g = grid_from(gen, np.linspace(0.5, 120.0, 240), ntheta=8, gen_dt=gen_dt)
    k, _ = find_k_blend(g, 1.0, 2.0)
    assert k == 16.0
    with pytest.raises(DomainError, match=r"k = 16 overflows at t = 89$"):
        blend_metric(g, k, 1.0, 2.0)
    short = grid_from(gen, np.linspace(0.5, 88.5, 177), ntheta=8, gen_dt=gen_dt)
    assert blend_metric(short, k, 1.0, 2.0).passed


def test_hessian_decomposition_three_term_expansion():
    for gen, gen_dt in ((SQUARE, SQUARE_DT), (SINH2, SINH2_DT)):
        g = grid_from(gen, T_GRID, gen_dt=gen_dt)
        k, _ = find_k_blend(g, 1.0, 2.0)
        result = blend_metric(g, k, 1.0, 2.0)
        phi_j, phi_h, dphi_j = partition_profile(T_GRID, 1.0, 2.0)
        dh = np.sinh(2.0 * np.sqrt(k) * T_GRID) / np.sqrt(k)
        hcol = hyperbolic_coefficient(k, T_GRID)
        tt, hh = np.meshgrid(T_GRID, g.theta_grid, indexing="ij")
        three_term = (
            phi_j[:, None] * gen_dt(tt, hh)
            + phi_h[:, None] * dh[:, None]
            + dphi_j[:, None] * (gen(tt, hh) - hcol[:, None])
        )
        scale = max(1.0, np.max(np.abs(three_term)))
        assert abs(result.min_radial_derivative - np.min(three_term)) <= 1e-12 * scale
        # the blended grid holds samples only, so its d_dt is the five-point
        # finite difference; jhat is only C^2 at R1 and R2, where that is
        # O(dt^2) accurate rather than O(dt^4), with dt = 0.01 here
        dt = T_GRID[1] - T_GRID[0]
        assert np.max(np.abs(result.blended.d_dt() - three_term)) <= dt**2 * scale


def test_blend_without_generator_uses_fd_and_agrees():
    g_samples = grid_from(SQUARE, T_GRID, ntheta=8)  # samples only
    g_analytic = grid_from(SQUARE, T_GRID, ntheta=8, gen_dt=SQUARE_DT)
    r1 = blend_metric(g_samples, 1.0, 1.0, 2.0)
    r2 = blend_metric(g_analytic, 1.0, 1.0, 2.0)
    assert r1.passed and r2.passed
    assert r1.min_radial_derivative == pytest.approx(r2.min_radial_derivative, rel=1e-4)


def test_certified_positivity_implies_convex_radial_function_on_geodesics():
    # relax random polygons to discrete geodesics of dt^2 + jhat dtheta^2 and
    # check the discrete second variation of T^2 = t^2 along them
    g = grid_from(SQUARE, T_GRID, ntheta=32, gen_dt=SQUARE_DT)
    k, _ = find_k_blend(g, 1.0, 2.0)
    result = blend_metric(g, k, 1.0, 2.0)
    assert result.passed

    def jhat(t, h):
        phi_j, phi_h, _ = partition_profile(t, 1.0, 2.0)
        return phi_j * SQUARE(t, h) + phi_h * hyperbolic_coefficient(k, t)

    tt, hh = np.meshgrid(T_GRID, g.theta_grid, indexing="ij")
    assert np.array_equal(jhat(tt, hh), result.blended.j)
    rng = np.random.default_rng(42)
    nseg = 16
    for _ in range(4):
        t0, t1 = rng.uniform(0.6, 2.3, size=2)
        th0 = rng.uniform(0.0, 0.5)
        th1 = th0 + rng.uniform(0.8, 1.6)
        lam = np.linspace(0.0, 1.0, nseg + 1)
        init = np.stack([t0 + lam * (t1 - t0), th0 + lam * (th1 - th0)], axis=1)

        def energy(flat):
            pts = np.vstack([init[0], flat.reshape(-1, 2), init[-1]])
            dt = np.diff(pts[:, 0])
            dth = np.diff(pts[:, 1])
            mid_t = 0.5 * (pts[1:, 0] + pts[:-1, 0])
            mid_h = 0.5 * (pts[1:, 1] + pts[:-1, 1])
            return np.sum(dt**2 + jhat(mid_t, mid_h) * dth**2)

        res = minimize(energy, init[1:-1].ravel(), method="L-BFGS-B", tol=1e-12)
        pts = np.vstack([init[0], res.x.reshape(-1, 2), init[-1]])
        tsq = pts[:, 0] ** 2
        second = tsq[:-2] - 2.0 * tsq[1:-1] + tsq[2:]
        assert np.min(second) > -1e-3 * max(1.0, np.max(tsq))


def test_metric_csv_round_trip(tmp_path):
    g = grid_from(SQUARE, np.linspace(0.5, 2.0, 7), ntheta=5)
    path = tmp_path / "grid.csv"
    save_metric_csv(path, g)
    loaded = load_metric_csv(path)
    assert np.array_equal(loaded.t_grid, g.t_grid)
    assert np.array_equal(loaded.theta_grid, g.theta_grid)
    assert np.array_equal(loaded.j, g.j)
    save_metric_csv(tmp_path / "again.csv", g)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()


def reference_metric_csv(path, grid):
    """The row-by-row writer: one ``"%.17g,%.17g,%.17g\\n"`` per (t, theta) pair, t slowest."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,theta,j\n")
        for i, t in enumerate(grid.t_grid):
            for k, theta in enumerate(grid.theta_grid):
                fh.write("%.17g,%.17g,%.17g\n" % (t, theta, grid.j[i, k]))


def test_metric_csv_bytes_equal_the_row_by_row_writer(tmp_path):
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(0.1, 3.0, 9))
    for theta0 in (0.0, 0.3):
        theta = theta0 + 2.0 * np.pi * np.arange(7) / 7
        extreme = np.abs(rng.normal(size=(9, 7))) * 10.0 ** rng.integers(-300, 300, size=(9, 7))
        extreme.flat[:2] = 2.5e-310, 1e308
        for j in (np.exp(rng.normal(size=(9, 7))), extreme):
            g = PolarMetricGrid(t, theta, j)
            save_metric_csv(tmp_path / "got.csv", g)
            reference_metric_csv(tmp_path / "want.csv", g)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_load_metric_csv_requires_the_exact_header(tmp_path):
    g = grid_from(SQUARE, np.linspace(0.5, 2.0, 7), ntheta=5)
    path = tmp_path / "grid.csv"
    save_metric_csv(path, g)
    body = path.read_text().split("\n", 1)[1]
    for header in ("t,theta,dt_j", "t,theta,j_hat", "t,theta,"):
        path.write_text(header + "\n" + body)
        with pytest.raises(UsageError, match=f"line 1: bad metric grid header '{header}'"):
            load_metric_csv(path)


@pytest.mark.parametrize("field", ["nan", "inf"])
def test_load_metric_csv_names_the_line_of_a_non_finite_radius_or_angle(tmp_path, field):
    theta = 2.0 * np.pi * np.arange(4) / 4
    g = PolarMetricGrid([0.5, 1.0], theta, [[1.6, 1.7, 1.4, 1.5], [2.6, 2.7, 2.4, 2.5]])
    path = tmp_path / "grid.csv"
    save_metric_csv(path, g)
    lines = path.read_text().splitlines()
    for row, line in ((6, f"{field},0,2.6"), (3, f"0.5,{field},1.7")):
        path.write_text("\n".join(lines[:row] + [line] + lines[row + 1:]) + "\n")
        with pytest.raises(UsageError) as err:
            load_metric_csv(path)
        assert str(err.value) == f"{path}, line {row + 1}: metric grid row has a non-finite (t, theta) = " + (
            f"({field}, 0)" if row == 6 else f"(0.5, {field})")


def test_load_metric_csv_rejects_a_repeated_pair(tmp_path):
    theta = 2.0 * np.pi * np.arange(4) / 4
    g = PolarMetricGrid([0.5, 1.0], theta, [[1.6, 1.7, 1.4, 1.5], [2.6, 2.7, 2.4, 2.5]])
    path = tmp_path / "grid.csv"
    save_metric_csv(path, g)
    lines = path.read_text().splitlines()
    # rows in any order load to the same grid
    path.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
    back = load_metric_csv(path)
    assert np.array_equal(back.t_grid, g.t_grid) and np.array_equal(back.j, g.j)
    # (0.5, pi/2) replaced by a second (0.5, 0): the row count still equals n_t * n_theta
    lines[2] = "0.5,0,9.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UsageError) as err:
        load_metric_csv(path)
    assert str(err.value) == (f"{path}, line 3: metric grid row (t, theta) = (0.5, 0) stands where the "
                              "(t, theta) product needs (0.5, 1.5707963267948966): a pair is repeated or missing")
