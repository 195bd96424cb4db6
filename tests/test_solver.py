import math

import numpy as np
import pytest

from pharmap.chart import TargetChart
from pharmap.errors import DivergenceError, UsageError
from pharmap.mesh import build_annulus, build_rect
from pharmap.solver import (
    _CHUNK,
    MapState,
    SolveConfig,
    _total,
    check_max_principle,
    energy,
    energy_gradient,
    harmonic_init,
    load_boundary_csv,
    max_principle_tolerance,
    residual,
    save_boundary_csv,
    solve,
    uniqueness_probe,
)
from pharmap.warp import IdentityWarp, SinhWarp

EUCL2 = TargetChart.from_warp(IdentityWarp(), 2)
SINH2 = TargetChart.from_warp(SinhWarp(), 2)
SINH3 = TargetChart.from_warp(SinhWarp(), 3)
LINE = TargetChart.euclidean_line()


def identity_state(mesh):
    return MapState(mesh.vertices.copy())


def test_energy_identity_map_unit_square():
    mesh = build_rect(1.0, 1.0, 3, 3)
    assert energy(mesh, EUCL2, identity_state(mesh), 2.0) == pytest.approx(1.0, rel=1e-14)


def test_energy_constant_map_zero():
    mesh = build_rect(1.0, 1.0, 2, 2)
    state = MapState(np.tile([0.3, -0.4], (mesh.num_vertices, 1)))
    for p in (2.0, 2.5, 3.0, 4.0):
        assert energy(mesh, SINH2, state, p) == 0.0


def test_energy_linear_map_closed_form():
    # E = (area/p) * ||A||_HS^p exactly, any mesh of the unit square
    mesh = build_rect(1.0, 1.0, 4, 3)
    A = np.array([[0.7, -0.2], [0.5, 1.1]])
    state = MapState(mesh.vertices @ A.T)
    hs2 = np.sum(A * A)
    for p in (2.0, 2.5, 3.0, 4.0):
        want = (1.0 / p) * hs2 ** (p / 2.0)
        assert energy(mesh, EUCL2, state, p) == pytest.approx(want, rel=1e-12)


def test_energy_total_is_the_rounded_exact_sum():
    # reference: math.fsum, the correctly rounded sum of the terms
    rng = np.random.default_rng(3)
    for n in (0, 1, 7, 128, 4097):
        terms = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        assert _total(terms) == math.fsum(terms)


def test_energy_p_validation_and_shape_mismatch():
    mesh = build_rect(1.0, 1.0, 2, 2)
    with pytest.raises(UsageError):
        energy(mesh, EUCL2, identity_state(mesh), 1.5)
    with pytest.raises(UsageError):
        energy(mesh, LINE, identity_state(mesh), 2.0)
    for fn in (energy, energy_gradient, residual):
        for p, quadrature in ((math.nan, 1), (math.inf, 1), (3.0, 2), (3.0, 0)):
            with pytest.raises(UsageError):
                fn(mesh, EUCL2, identity_state(mesh), p, quadrature=quadrature)
    for bad in ({"p": math.nan}, {"p": math.inf}, {"grad_tol": math.nan}, {"quadrature": 2},
                {"max_iter": 0}, {"threads": 0}):
        with pytest.raises(UsageError):
            SolveConfig(**{"p": 3.0, **bad})
    annulus = build_annulus(1.0, 2.0, 4, 16)  # 80 vertices
    for rows in (75, 85):
        for fn in (check_max_principle, max_principle_tolerance):
            with pytest.raises(UsageError, match="does not match"):
                fn(annulus, SINH2, np.zeros((rows, 2)))


def test_gradient_matches_quadratic_assembly_p2_euclidean():
    # independent oracle: E = 1/2 sum_c q_c^T K q_c with the FEM stiffness K
    import scipy.sparse as sp

    mesh = build_annulus(1.0, 2.0, 2, 8)
    rng = np.random.default_rng(0)
    pts = mesh.vertices + 0.1 * rng.normal(size=mesh.vertices.shape)
    tris = mesh.triangles
    local = np.einsum("t,tva,twa->tvw", mesh.areas, mesh.grads, mesh.grads)
    rows = np.repeat(tris, 3, axis=1).reshape(-1)
    cols = np.tile(tris[:, None, :], (1, 3, 1)).reshape(-1)
    K = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.num_vertices,) * 2).tocsr()
    want_full = K @ pts
    got = energy_gradient(mesh, EUCL2, MapState(pts), 2.0)
    assert np.allclose(got, want_full[mesh.interior_indices()], atol=1e-12)
    e_want = 0.5 * sum(pts[:, c] @ (K @ pts[:, c]) for c in range(2))
    assert energy(mesh, EUCL2, MapState(pts), 2.0) == pytest.approx(e_want, rel=1e-12)


@pytest.mark.parametrize("quadrature", [1, 3])
def test_gradient_matches_finite_differences(quadrature):
    rng = np.random.default_rng(1)
    mesh_r = build_rect(1.0, 1.0, 2, 2)
    mesh_a = build_annulus(1.0, 2.0, 2, 6)
    step = 1e-5
    for mesh, chart in ((mesh_r, EUCL2), (mesh_a, SINH2), (mesh_a, SINH3), (mesh_a, LINE)):
        n = chart.dim
        for p in (2.0, 2.5, 3.0, 4.0):
            pts = 0.5 * rng.normal(size=(mesh.num_vertices, n))
            grad = energy_gradient(mesh, chart, MapState(pts), p, quadrature=quadrature)
            iidx = mesh.interior_indices()
            fd = np.zeros_like(grad)
            for row, v in enumerate(iidx):
                for c in range(n):
                    plus = pts.copy()
                    minus = pts.copy()
                    plus[v, c] += step
                    minus[v, c] -= step
                    fd[row, c] = (
                        energy(mesh, chart, MapState(plus), p, quadrature=quadrature)
                        - energy(mesh, chart, MapState(minus), p, quadrature=quadrature)
                    ) / (2 * step)
            scale = max(1.0, np.max(np.abs(grad)))
            assert np.max(np.abs(fd - grad)) / scale <= 1e-6


def test_gradient_zero_at_quadratic_minimizer():
    mesh = build_rect(1.0, 1.0, 3, 3)
    bvals = np.zeros((mesh.num_vertices, 2))
    bvals[mesh.boundary_indices()] = mesh.vertices[mesh.boundary_indices()] * 0.7
    state = harmonic_init(mesh, bvals)
    assert residual(mesh, EUCL2, state, 2.0) <= 1e-12


def test_harmonic_init_affine_and_constant():
    mesh = build_annulus(1.0, 2.0, 3, 10)
    A = np.array([[0.3, 0.5], [-0.2, 0.9]])
    b = np.array([0.1, -0.7])
    vals = mesh.vertices @ A.T + b
    state = harmonic_init(mesh, vals)
    assert np.max(np.abs(state.points - vals)) < 1e-10
    const = np.tile([1.0, 2.0], (mesh.num_vertices, 1))
    assert np.max(np.abs(harmonic_init(mesh, const).points - const)) < 1e-12


def test_harmonic_init_componentwise_max_principle():
    mesh = build_rect(1.0, 1.0, 4, 4)
    rng = np.random.default_rng(2)
    vals = np.zeros((mesh.num_vertices, 2))
    bidx = mesh.boundary_indices()
    vals[bidx] = rng.uniform(-1.0, 1.0, size=(bidx.size, 2))
    state = harmonic_init(mesh, vals)
    interior = state.points[mesh.interior_indices()]
    for c in range(2):
        assert interior[:, c].max() <= vals[bidx, c].max() + 1e-12
        assert interior[:, c].min() >= vals[bidx, c].min() - 1e-12


def test_solve_affine_recovery_p2():
    mesh = build_rect(1.0, 1.0, 4, 4)
    A = np.array([[1.2, 0.3], [-0.4, 0.8]])
    vals = mesh.vertices @ A.T
    config = SolveConfig(p=2.0, grad_tol=1e-12, max_iter=100)
    state, report = solve(mesh, EUCL2, vals, config)
    assert report.converged
    assert report.residual <= 1e-10
    assert np.max(np.abs(state.points - vals)) <= 1e-8


def test_solve_trace_monotone_and_boundary_immutable():
    mesh = build_annulus(1.0, 2.0, 3, 12)
    bvals = np.zeros((mesh.num_vertices, 2))
    bidx = mesh.boundary_indices()
    theta = np.arctan2(mesh.vertices[bidx, 1], mesh.vertices[bidx, 0])
    r = np.where(np.linalg.norm(mesh.vertices[bidx], axis=1) < 1.5, 0.4, 1.0)
    bvals[bidx, 0] = r * np.cos(theta)
    bvals[bidx, 1] = r * np.sin(theta)
    config = SolveConfig(p=3.0, grad_tol=1e-9, max_iter=2000)
    state, report = solve(mesh, SINH2, bvals, config)
    assert report.converged
    trace = np.asarray(report.energy_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert np.array_equal(state.points[bidx], bvals[bidx])  # bit-identical


def test_scalar_case_equals_harmonic_init():
    mesh = build_annulus(1.0, 2.0, 3, 12)
    bvals = np.zeros((mesh.num_vertices, 1))
    bidx = mesh.boundary_indices()
    bvals[bidx, 0] = np.linalg.norm(mesh.vertices[bidx], axis=1) - 1.0
    init = harmonic_init(mesh, bvals)
    state, report = solve(mesh, LINE, bvals, SolveConfig(p=2.0, grad_tol=1e-11, max_iter=50))
    assert report.converged
    assert np.max(np.abs(state.points - init.points)) <= 1e-10


def test_radial_p_harmonic_oracle_small():
    # n=1 target on the annulus, p=3: u(r) = (sqrt(r)-1)/(sqrt(2)-1)
    mesh = build_annulus(1.0, 2.0, 6, 32)
    bvals = np.zeros((mesh.num_vertices, 1))
    bidx = mesh.boundary_indices()
    radii = np.linalg.norm(mesh.vertices[bidx], axis=1)
    bvals[bidx, 0] = np.where(radii > 1.5, 1.0, 0.0)
    state, report = solve(mesh, LINE, bvals, SolveConfig(p=3.0, grad_tol=1e-10, max_iter=3000))
    assert report.converged
    r_all = np.linalg.norm(mesh.vertices, axis=1)
    exact = (np.sqrt(r_all) - 1.0) / (np.sqrt(2.0) - 1.0)
    assert np.max(np.abs(state.points[:, 0] - exact)) < 0.02


def test_residual_sensitivity_to_perturbation():
    mesh = build_rect(1.0, 1.0, 3, 3)
    vals = mesh.vertices @ np.array([[0.9, 0.1], [0.0, 1.1]]).T
    config = SolveConfig(p=2.5, grad_tol=1e-10, max_iter=500)
    state, report = solve(mesh, EUCL2, vals, config)
    assert report.converged
    pts = state.points.copy()
    pts[mesh.interior_indices()[0]] += 1e-2
    assert residual(mesh, EUCL2, MapState(pts), 2.5) > config.grad_tol


def test_check_max_principle_margins():
    mesh = build_annulus(1.0, 2.0, 2, 8)
    const = MapState(np.tile([0.5, 0.0], (mesh.num_vertices, 1)))
    assert check_max_principle(mesh, SINH2, const) <= 0.0
    pts = const.points.copy()
    pts[mesh.interior_indices()[0]] = [5.0, 0.0]
    assert check_max_principle(mesh, SINH2, MapState(pts)) > 0.0


def test_solve_max_principle_within_tolerance():
    mesh = build_annulus(1.0, 2.0, 4, 16)
    bvals = np.zeros((mesh.num_vertices, 2))
    bidx = mesh.boundary_indices()
    theta = np.arctan2(mesh.vertices[bidx, 1], mesh.vertices[bidx, 0])
    rad = 1.0 + 0.15 * np.sin(3 * theta)
    bvals[bidx, 0] = rad * np.cos(theta)
    bvals[bidx, 1] = rad * np.sin(theta)
    for p in (2.0, 3.0):
        state, report = solve(mesh, SINH2, bvals, SolveConfig(p=p, grad_tol=1e-9, max_iter=3000))
        assert report.converged
        assert report.mp_margin <= max_principle_tolerance(mesh, SINH2, state)


def test_rotational_equivariance_of_solutions():
    mesh = build_annulus(1.0, 2.0, 3, 12)
    bvals = np.zeros((mesh.num_vertices, 2))
    bidx = mesh.boundary_indices()
    theta = np.arctan2(mesh.vertices[bidx, 1], mesh.vertices[bidx, 0])
    rad = np.where(np.linalg.norm(mesh.vertices[bidx], axis=1) < 1.5, 0.3, 0.9)
    bvals[bidx, 0] = rad * np.cos(theta)
    bvals[bidx, 1] = rad * np.sin(theta)
    phi = 0.83
    Q = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    config = SolveConfig(p=3.0, grad_tol=1e-11, max_iter=3000)
    state1, rep1 = solve(mesh, SINH2, bvals, config)
    state2, rep2 = solve(mesh, SINH2, bvals @ Q.T, config)
    assert rep1.converged and rep2.converged
    assert np.max(np.abs(state2.points - state1.points @ Q.T)) <= 1e-8


def test_uniqueness_probe_quadratic_and_degenerate():
    mesh = build_rect(1.0, 1.0, 3, 3)
    vals = mesh.vertices @ np.array([[0.8, 0.0], [0.2, 1.0]]).T
    config = SolveConfig(p=2.0, grad_tol=1e-11, max_iter=500, seed=11)
    report = uniqueness_probe(mesh, EUCL2, vals, config, 4)
    assert report.all_converged
    assert report.spread <= 1e-8
    single = uniqueness_probe(mesh, EUCL2, vals, config, 1)
    assert single.spread == 0.0


def test_uniqueness_probe_rejects_misshapen_boundary_values():
    mesh = build_rect(1.0, 1.0, 3, 3)
    config = SolveConfig(p=2.0, grad_tol=1e-11, max_iter=500, seed=11)
    for shape in ((3, 2), (mesh.num_vertices, 3)):
        with pytest.raises(UsageError, match="boundary values need shape"):
            uniqueness_probe(mesh, EUCL2, np.zeros(shape), config, 2)


def test_solver_determinism_across_threads():
    mesh = build_annulus(1.0, 2.0, 3, 12)
    bvals = np.zeros((mesh.num_vertices, 2))
    bidx = mesh.boundary_indices()
    bvals[bidx] = mesh.vertices[bidx] * 0.5
    results = []
    for threads in (1, 4):
        config = SolveConfig(p=3.0, grad_tol=1e-9, max_iter=1500, threads=threads)
        state, report = solve(mesh, SINH2, bvals, config)
        results.append((state.points.tobytes(), tuple(report.energy_trace), report.residual))
    assert results[0] == results[1]


@pytest.mark.parametrize("quadrature", [1, 3])
def test_thread_pool_assembly_is_byte_identical(quadrature):
    # 4608 triangles: two assembly chunks, so threads > 1 runs the pool
    mesh = build_annulus(1.0, 2.0, 16, 144)
    assert mesh.num_triangles > _CHUNK
    rng = np.random.default_rng(4)
    state = MapState(0.5 * mesh.vertices + 0.05 * rng.normal(size=mesh.vertices.shape))
    results = []
    for threads in (1, 2, 4):
        e = energy(mesh, SINH2, state, 3.0, quadrature=quadrature, threads=threads)
        g = energy_gradient(mesh, SINH2, state, 3.0, quadrature=quadrature, threads=threads)
        results.append((np.float64(e).tobytes(), g.tobytes()))
    assert results[0] == results[1] == results[2]


class CountingChart(TargetChart):
    def __init__(self, manifold):
        super().__init__(manifold)
        self.calls = {"metric": 0, "metric_jacobian": 0}

    def metric(self, x):
        self.calls["metric"] += 1
        return super().metric(x)

    def metric_jacobian(self, x):
        self.calls["metric_jacobian"] += 1
        return super().metric_jacobian(x)


@pytest.mark.parametrize("quadrature", [1, 3])
def test_assembly_queries_the_chart_once_per_chunk(quadrature):
    # every quadrature point of a chunk goes into one metric call (and, for
    # the gradient, one metric_jacobian call), whatever the rule
    rng = np.random.default_rng(7)
    for cells, chunks in (((3, 12), 1), ((16, 144), 2)):
        mesh = build_annulus(1.0, 2.0, *cells)
        assert -(-mesh.num_triangles // _CHUNK) == chunks
        state = MapState(0.5 * mesh.vertices + 0.05 * rng.normal(size=mesh.vertices.shape))
        chart = CountingChart(SINH2.manifold)
        energy(mesh, chart, state, 3.0, quadrature=quadrature)
        assert chart.calls == {"metric": chunks, "metric_jacobian": 0}
        chart = CountingChart(SINH2.manifold)
        energy_gradient(mesh, chart, state, 3.0, quadrature=quadrature)
        assert chart.calls == {"metric": chunks, "metric_jacobian": chunks}


def test_boundary_csv_round_trip(tmp_path):
    mesh = build_annulus(1.0, 2.0, 2, 8)
    vals = np.zeros((mesh.num_vertices, 2))
    bidx = mesh.boundary_indices()
    vals[bidx] = mesh.vertices[bidx]
    path = tmp_path / "bc.csv"
    save_boundary_csv(path, mesh, vals)
    loaded = load_boundary_csv(path, mesh, 2)
    assert np.array_equal(loaded[bidx], vals[bidx])
    bad = tmp_path / "bad.csv"
    with open(path) as fh:
        lines = fh.readlines()
    bad.write_text("".join(lines[:-1]))  # drop one boundary vertex
    with pytest.raises(UsageError):
        load_boundary_csv(bad, mesh, 2)


def sin3_ring_problem():
    mesh = build_annulus(1.0, 2.0, 4, 16)
    bvals = np.zeros((mesh.num_vertices, 2))
    bidx = mesh.boundary_indices()
    theta = np.arctan2(mesh.vertices[bidx, 1], mesh.vertices[bidx, 0])
    rad = 1.0 + 0.15 * np.sin(3 * theta)
    bvals[bidx, 0] = rad * np.cos(theta)
    bvals[bidx, 1] = rad * np.sin(theta)
    return mesh, bvals


def test_solve_below_energy_floor_converges_for_any_thread_count():
    # the data of test_solve_max_principle_within_tolerance at p=3: its last
    # steps change the energy by less than one rounding unit, so only the
    # approximate Wolfe test at the energy floor can accept them
    mesh, bvals = sin3_ring_problem()
    bidx = mesh.boundary_indices()
    results = []
    for threads in (1, 4):
        config = SolveConfig(p=3.0, grad_tol=1e-9, max_iter=3000, threads=threads)
        state, report = solve(mesh, SINH2, bvals, config)
        assert report.stop_reason == "converged" and report.converged
        assert report.residual <= config.grad_tol
        steps = np.diff(np.asarray(report.energy_trace))
        assert np.all(steps <= 0.0)
        assert np.any(steps == 0.0)  # a step the energy could not tell from no step
        assert np.array_equal(state.points[bidx], bvals[bidx])  # bit-identical
        results.append((state.points.tobytes(), tuple(report.energy_trace), report.residual))
    assert results[0] == results[1]


def test_solve_stop_reasons():
    mesh, bvals = sin3_ring_problem()
    _, report = solve(mesh, SINH2, bvals, SolveConfig(p=3.0, grad_tol=1e-9, max_iter=3))
    assert report.stop_reason == "max_iter" and not report.converged
    assert report.iterations == 3
    # no state resolves a residual of 1e-30: the line search ends at the
    # energy floor, long before max_iter, and says so
    _, report = solve(mesh, SINH2, bvals, SolveConfig(p=3.0, grad_tol=1e-30, max_iter=3000))
    assert report.stop_reason == "stalled" and not report.converged
    assert report.iterations < 3000
    assert np.all(np.diff(np.asarray(report.energy_trace)) <= 0.0)
    assert report.to_json_dict()["stop_reason"] == "stalled"
    assert report.to_json_dict()["converged"] is False
    with pytest.raises(AttributeError):
        report.converged = True  # derived from stop_reason, not stored


def wavy_ring_problem(nr, nt):
    # each boundary circle of radius r goes to the ring 0.5 r (1 + 0.1 cos 3 theta)
    mesh = build_annulus(1.0, 2.0, nr, nt)
    bvals = np.zeros((mesh.num_vertices, 2))
    bidx = mesh.boundary_indices()
    v = mesh.vertices[bidx]
    theta = np.arctan2(v[:, 1], v[:, 0])
    bvals[bidx] = (0.5 * (1.0 + 0.1 * np.cos(3 * theta)))[:, None] * v
    return mesh, bvals


@pytest.mark.parametrize("cells", [(4, 16), (8, 32), (16, 64)])
def test_solve_iterations_do_not_grow_with_the_mesh(cells):
    # stiffness-preconditioned L-BFGS: 7 to 12 iterations on every mesh
    mesh, bvals = wavy_ring_problem(*cells)
    for p in (2.0, 3.0, 4.0):
        _, report = solve(mesh, SINH2, bvals, SolveConfig(p=p, grad_tol=1e-8))
        assert report.converged
        assert report.iterations <= 20


def test_solve_euclidean_p2_is_one_newton_step():
    # K_ii is the exact Hessian of the Euclidean p=2 energy
    mesh, bvals = wavy_ring_problem(8, 32)
    init = harmonic_init(mesh, bvals)
    iidx = mesh.interior_indices()
    pts = init.points.copy()
    pts[iidx] += 0.1 * np.random.default_rng(5).normal(size=(iidx.size, 2))
    state, report = solve(mesh, EUCL2, bvals, SolveConfig(p=2.0, grad_tol=1e-10),
                          initial=MapState(pts))
    assert report.converged
    assert report.iterations <= 2
    assert np.max(np.abs(state.points - init.points)) <= 1e-12


def test_solve_restart_after_failed_line_search(monkeypatch):
    # one whole line search mid-solve (the third iteration's, on this data)
    # is rejected: its energies read +inf.  With a nonempty memory the solver
    # must drop the memory and retry along -K_ii^{-1} g, not stop as "stalled"
    import pharmap.solver as solver_module

    assemble = solver_module._assemble
    fg_calls = [0]

    def rejecting(*args, need_grad=True, **kwargs):
        total, grad = assemble(*args, need_grad=need_grad, **kwargs)
        if need_grad:
            fg_calls[0] += 1
        # energy+gradient call 1 is the initial state; a line search starts
        # with one such call, and one that accepts nothing makes no other
        if fg_calls[0] == 4:
            total = np.inf
        return total, grad

    monkeypatch.setattr(solver_module, "_assemble", rejecting)
    mesh, bvals = sin3_ring_problem()
    _, report = solve(mesh, SINH2, bvals, SolveConfig(p=3.0, grad_tol=1e-9))
    assert report.stop_reason == "converged"
    assert report.n_restarts >= 1
    assert report.to_json_dict()["n_restarts"] == report.n_restarts


def test_solve_divergence_at_initial_state():
    # interior points 1600 times too far out: cosh overflows in the sinh
    # metric and the initial energy is NaN
    mesh = build_annulus(1.0, 2.0, 2, 8)
    pts = mesh.vertices.copy()
    iidx = mesh.interior_indices()
    pts[iidx] *= 1600.0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="at the initial state"):
            solve(mesh, SINH2, mesh.vertices, SolveConfig(p=2.0), initial=MapState(pts))


def test_solve_divergence_during_descent(monkeypatch):
    # the first trial step reads a lower finite energy, which the line search
    # accepts, and a NaN gradient, which the solver must refuse
    import pharmap.solver as solver_module

    assemble = solver_module._assemble
    fg_calls = [0]

    def poisoned(*args, need_grad=True, **kwargs):
        total, grad = assemble(*args, need_grad=need_grad, **kwargs)
        if need_grad:
            fg_calls[0] += 1
            if fg_calls[0] == 2:
                total, grad = 0.0, np.full_like(grad, np.nan)
        return total, grad

    monkeypatch.setattr(solver_module, "_assemble", poisoned)
    mesh, bvals = sin3_ring_problem()
    with pytest.raises(DivergenceError, match="during descent"):
        solve(mesh, SINH2, bvals, SolveConfig(p=3.0, grad_tol=1e-9))
    assert fg_calls[0] == 2


def test_solve_counters_match_assembly_calls(monkeypatch):
    import pharmap.solver as solver_module

    calls = {True: 0, False: 0}
    assemble = solver_module._assemble

    def counting(*args, need_grad=True, **kwargs):
        calls[need_grad] += 1
        return assemble(*args, need_grad=need_grad, **kwargs)

    monkeypatch.setattr(solver_module, "_assemble", counting)
    mesh, bvals = sin3_ring_problem()
    _, report = solve(mesh, SINH2, bvals, SolveConfig(p=3.0, grad_tol=1e-30))
    assert report.n_fg == calls[True] and report.n_f == calls[False]
    assert report.n_f > 0 and report.n_backtracks > 0 and report.n_restarts > 0
    doc = report.to_json_dict()
    assert [doc[k] for k in ("n_f", "n_fg", "n_backtracks", "n_restarts")] == [
        report.n_f, report.n_fg, report.n_backtracks, report.n_restarts]


def test_fused_line_search_energy_equals_energy_only_assembly(monkeypatch):
    # the accepted energies come from energy+gradient assemblies; an
    # energy-only call at each of those states gives the same bytes
    import pharmap.solver as solver_module

    states = []
    assemble = solver_module._assemble

    def recording(mesh, chart, pts, p, rule=1, need_grad=True, threads=1):
        total, grad = assemble(mesh, chart, pts, p, rule, need_grad=need_grad, threads=threads)
        if need_grad:
            states.append((pts.copy(), total))
        return total, grad

    monkeypatch.setattr(solver_module, "_assemble", recording)
    mesh, bvals = sin3_ring_problem()
    config = SolveConfig(p=3.0, grad_tol=1e-9, quadrature=3)
    state, report = solve(mesh, SINH2, bvals, config)
    monkeypatch.undo()
    assert report.converged and len(states) == report.n_fg
    for pts, total in states:
        assert np.float64(energy(mesh, SINH2, pts, 3.0, quadrature=3)).tobytes() == np.float64(total).tobytes()
    totals = iter(total for _, total in states)
    assert all(any(t == e for t in totals) for e in report.energy_trace)  # in order
    assert energy(mesh, SINH2, state, 3.0, quadrature=3) == report.final_energy


def test_harmonic_init_equals_direct_sparse_solve():
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    for cells in ((2, 8), (4, 16), (8, 32)):
        mesh = build_annulus(1.0, 2.0, *cells)
        bvals = np.random.default_rng(6).normal(size=(mesh.num_vertices, 2))
        iidx, bidx = mesh.interior_indices(), mesh.boundary_indices()
        tris = mesh.triangles
        local = np.einsum("t,tva,twa->tvw", mesh.areas, mesh.grads, mesh.grads)
        rows = np.repeat(tris, 3, axis=1).reshape(-1)
        cols = np.tile(tris[:, None, :], (1, 3, 1)).reshape(-1)
        K = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.num_vertices,) * 2).tocsr()
        want = spsolve(K[iidx][:, iidx].tocsc(), -K[iidx][:, bidx] @ bvals[bidx])
        got = harmonic_init(mesh, bvals).points
        assert got[iidx].tobytes() == want.tobytes()
        assert np.array_equal(got[bidx], bvals[bidx])
