"""The benchmark workloads: seeded set-up, operations and output checks.

Every workload turns ``--seed`` into its inputs once; the timed batch then
repeats the same list of operations (one *cycle*) in a closed loop, so the
same seed gives the same work and the same counts in every cycle.  Each
operation is one call chain into the package followed by checks made from
outside it.  A check never raises: it reports a problem, and the operation
counts as failed.  A solve that stops short of ``grad_tol`` with outputs that
pass every check is not failed: it gives no checked result, and its stop
reason is counted.

The functions of the package are looked up on their modules at call time
(``solver.solve``, not a name imported once), so that the traced run sees
the calls it wraps.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from pharmap import blend, glue, mesh, solver, warp
from pharmap.chart import TargetChart
from pharmap.errors import DivergenceError, UsageError
from pharmap.warp import ModelManifold, OddPolynomialWarp, SinhWarp

STOPS = ("converged", "stalled", "max_iter", "nonfinite")


@dataclass
class Outcome:
    """What the checks made of one operation."""

    result: bool  # a checked result: converged solve, passed mesh step or certificate
    problems: list = field(default_factory=list)  # failed checks; empty means correct
    stop: str | None = None  # solver stop reason, for solve operations
    iterations: int = 0  # solver iterations, for solve operations

    @property
    def failed(self) -> bool:
        """Raised, diverged or failed a check."""
        return bool(self.problems) or self.stop == "nonfinite"


@dataclass
class Op:
    name: str
    run: object  # () -> output
    check: object  # output -> Outcome
    solve: tuple | None = None  # (mesh, chart, boundary values, SolveConfig) of a solve


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def seeded_rings(m, rng):
    """Boundary data: each boundary circle of radius r goes to the perturbed
    ring 0.5 r (1 + a cos(k theta + phi)) in the target chart, with the
    amplitude a, mode k and phase phi drawn from ``rng``."""
    amp = rng.uniform(0.09, 0.11)
    mode = int(rng.integers(1, 4))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    bvals = np.zeros((m.num_vertices, 2))
    idx = m.boundary_indices()
    v = m.vertices[idx]
    theta = np.arctan2(v[:, 1], v[:, 0])
    bvals[idx] = (0.5 * (1.0 + amp * np.cos(mode * theta + phase)))[:, None] * v
    return bvals


def classify(report, config) -> str:
    if report.converged:
        return "converged"
    if report.iterations >= config.max_iter:
        return "max_iter"
    return "stalled"


def check_solve(m, chart, bvals, config, out, extra=None) -> Outcome:
    """Stop reason plus the checks every solve must pass.

    Boundary rows bit-identical to the data, a nonincreasing energy trace,
    and for a reported convergence a residual, recomputed through a plain
    chart, within ``grad_tol``.
    """
    if isinstance(out, DivergenceError):
        return Outcome(False, [], "nonfinite")
    state, report = out
    problems = []
    bidx = m.boundary_indices()
    if state.points[bidx].tobytes() != bvals[bidx].tobytes():
        problems.append("boundary rows differ from the data")
    if np.any(np.diff(np.asarray(report.energy_trace)) > 0.0):
        problems.append("energy trace increases")
    stop = classify(report, config)
    if report.converged:
        plain = TargetChart(chart.manifold)
        res = solver.residual(m, plain, state, config.p, quadrature=config.quadrature)
        if not res <= config.grad_tol:
            problems.append(f"residual {res:.3g} above grad_tol {config.grad_tol:g}")
        if extra is not None:
            problems.extend(extra(state))
    return Outcome(report.converged and not problems, problems, stop, report.iterations)


def solve_op(name, m, chart, bvals, config, extra=None) -> Op:
    def run():
        try:
            return solver.solve(m, chart, bvals, config)
        except DivergenceError as exc:
            return exc

    return Op(name, run, lambda out: check_solve(m, chart, bvals, config, out, extra),
              (m, chart, bvals, config))


def sinh_chart(kit):
    return kit.chart(ModelManifold(2, kit.warp(SinhWarp())))


class AnnulusSolve:
    """32x128-cell annulus (nv=4224, 8192 triangles), sinh target, p = 2, 3, 4.

    Runs by hand only: ``BENCHMARK.json`` leaves it out, because a run
    repeats each solve too few times to be steady on a shared machine.
    """

    name = "annulus_solve"
    main_op = "solve_p3"  # its single-call times are the solver.energy_* metrics

    def setup(self, seed, kit):
        m = mesh.build_annulus(1.0, 2.0, 32, 128)
        bvals = seeded_rings(m, np.random.default_rng(seed))
        chart = sinh_chart(kit)
        return [
            solve_op(f"solve_p{p}", m, chart, bvals, solver.SolveConfig(p=float(p), grad_tol=1e-8))
            for p in (2, 3, 4)
        ]


def oracle_op(kit) -> Op:
    """Scalar radial p=3 oracle u(r) = (sqrt(r)-1)/(sqrt(2)-1) on a 6x32 annulus,
    within the 0.02 bound the tier-1 oracle test uses."""
    m = mesh.build_annulus(1.0, 2.0, 6, 32)
    bvals = np.zeros((m.num_vertices, 1))
    bidx = m.boundary_indices()
    radii = np.linalg.norm(m.vertices[bidx], axis=1)
    bvals[bidx, 0] = np.where(radii > 1.5, 1.0, 0.0)
    exact = (np.sqrt(np.linalg.norm(m.vertices, axis=1)) - 1.0) / (np.sqrt(2.0) - 1.0)

    def near_exact(state):
        err = float(np.max(np.abs(state.points[:, 0] - exact)))
        return [] if err < 0.02 else [f"oracle error {err:.3g} >= 0.02"]

    config = solver.SolveConfig(p=3.0, grad_tol=1e-10, max_iter=3000)
    return solve_op("oracle_line_p3", m, kit.chart(None), bvals, config, near_exact)


class SmallSolves:
    """15 small sinh solves (3 meshes x p in {2,3,4} x quadrature {1,3}, with
    quadrature 1 only on the largest mesh) plus the oracle.

    The three 3-point solves on the 16x64 mesh are left out: they take 1.6 to
    2.4 s each, so a run holds too few repetitions of them to be steady.
    """

    name = "small_solves"
    main_op = "solve_16x64_p3_q1"

    def setup(self, seed, kit):
        rng = np.random.default_rng(seed)
        chart = sinh_chart(kit)
        ops = []
        for nr, nt, rules in ((4, 16, (1, 3)), (8, 32, (1, 3)), (16, 64, (1,))):
            m = mesh.build_annulus(1.0, 2.0, nr, nt)
            bvals = seeded_rings(m, rng)
            for p in (2, 3, 4):
                for q in rules:
                    config = solver.SolveConfig(p=float(p), grad_tol=1e-9, quadrature=q)
                    ops.append(solve_op(f"solve_{nr}x{nt}_p{p}_q{q}", m, chart, bvals, config))
        ops.append(oracle_op(kit))
        return ops


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


def longest_edge(m) -> float:
    """Longest edge from a unique-edge array, independent of ``TriMesh``."""
    t = m.triangles
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    edges = np.unique(edges, axis=0)
    d = m.vertices[edges[:, 0]] - m.vertices[edges[:, 1]]
    return float(np.sqrt(np.max(np.einsum("ij,ij->i", d, d))))


class MeshRefine:
    """8x32 annulus refined three times to 32768 triangles, topology at each level.

    The fourth refinement (131072 triangles) is left out: its refine and
    queries take 1 to 2 s each, too long for a run to hold enough
    repetitions of them to be steady.
    """

    name = "mesh_refine"
    main_op = None

    NTHETA = 32
    LEVELS = 3
    IO_LEVEL = 3

    def __init__(self, workdir):
        self.path = os.path.join(workdir, "mesh.txt")

    def setup(self, seed, kit):
        # the mesh is deterministic; the seed is unused
        levels = [mesh.build_annulus(1.0, 2.0, 8, self.NTHETA)]

        def topology(level):
            m = levels[level]
            return m, m.mesh_size(), m.euler_characteristic(), m.boundary_edge_count()

        def check_size(level, m):
            if m.num_triangles != 512 * 4**level:
                return [f"{m.num_triangles} triangles at level {level}"]
            return []

        def check_topology(level, out):
            m, h, chi, nbe = out
            problems = check_size(level, m)
            if chi != 0:
                problems.append(f"euler characteristic {chi}")
            if nbe != 2 * self.NTHETA * 2**level:
                problems.append(f"{nbe} boundary edges")
            ref = longest_edge(m)
            if abs(h - ref) > 4.0 * np.finfo(float).eps * ref:
                problems.append(f"mesh_size {h!r} != longest edge {ref!r}")
            return Outcome(not problems, problems)

        # refine and the queries are separate operations, so that no operation
        # runs long enough to be covered whole by a slow spell of the machine
        def refine_step(level):
            def run():
                levels[level:] = [mesh.refine(levels[level - 1])]
                return levels[level]

            def check(m):
                problems = check_size(level, m)
                return Outcome(not problems, problems)

            return [Op(f"refine_{level}", run, check),
                    Op(f"topology_{level}", lambda: topology(level),
                       lambda out: check_topology(level, out))]

        def round_trip():
            m = levels[self.IO_LEVEL]
            mesh.save_mesh(self.path, m)
            return m, mesh.load_mesh(self.path)

        def check_round_trip(out):
            m, back = out
            same = all(getattr(m, a).tobytes() == getattr(back, a).tobytes()
                       for a in ("vertices", "triangles", "boundary"))
            return Outcome(same, [] if same else ["save/load round trip is not exact"])

        ops = [Op("topology_0", lambda: topology(0), lambda out: check_topology(0, out))]
        for level in range(1, self.LEVELS + 1):
            ops += refine_step(level)
        ops.append(Op(f"io_{self.IO_LEVEL}", round_trip, check_round_trip))
        return ops


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def secant_margin(rho, sigma, k, R1, R2, delta):
    """Violation of the delta-shifted secant inequality (<= 0 when it holds)."""
    sk = warp.ScaledWarp(sigma, k)
    rho_lo = float(rho.evaluate(np.asarray(R1 - delta))[0])
    drho_hi = float(rho.evaluate(np.asarray(R1 + delta))[1])
    sig_hi = float(sk.evaluate(np.asarray(R2 + delta))[0])
    dsig_lo = float(sk.evaluate(np.asarray(R2 - delta))[1])
    chord = (sig_hi - rho_lo - 2.0 * delta * drho_hi) / ((R2 - delta) - (R1 + delta))
    return max(drho_hi - chord, chord - dsig_lo)


def smallest_k_problems(k, feasible):
    """``k`` must be feasible and, unless it is 1, ``k/2`` must not be."""
    problems = []
    if not feasible(k):
        problems.append(f"k={k:g} violates its inequality")
    if k > 1.0 and feasible(k / 2.0):
        problems.append(f"k/2={k / 2.0:g} already satisfies it")
    return problems


def blend_feasible(grid, R1, R2):
    mask = (grid.t_grid >= R1 - 1e-12) & (grid.t_grid <= R2 + 1e-12)
    t_ann, j_ann = grid.t_grid[mask], grid.j[mask]
    c2 = np.min(np.sinh(t_ann)[:, None] ** 2 / j_ann)

    def feasible(k):
        with np.errstate(over="ignore"):
            scale = math.sinh(math.sqrt(k) * R1) ** 2 >= k * math.sinh(R1) ** 2 / c2
            pointwise = np.all((np.sinh(math.sqrt(k) * t_ann) ** 2 / k)[:, None] >= j_ann)
        return bool(scale and pointwise)

    return feasible


class CertifyTargets:
    """Glue and blend certificates, CSV round trips and the adversarial rejections."""

    name = "certify_targets"
    main_op = None

    NTHETA = 32

    def __init__(self, workdir):
        self.warp_path = os.path.join(workdir, "warp.csv")
        self.metric_path = os.path.join(workdir, "metric.csv")

    def setup(self, seed, kit):
        rng = np.random.default_rng(seed)
        R_bar, R = 1.0, 4.0
        sigma_plain = SinhWarp()
        sigma = kit.warp(sigma_plain)
        rho_plain = OddPolynomialWarp([1.0, 1.0])
        spec = glue.GlueSpec(kit.warp(rho_plain), sigma, R_bar, R)

        theta = 2.0 * np.pi * np.arange(self.NTHETA) / self.NTHETA
        cubic = rng.uniform(1.5, 3.0) + rng.uniform(0.2, 1.0) * np.sin(
            int(rng.integers(1, 4)) * theta + rng.uniform(0.0, 2.0 * np.pi))
        plain_rays = [OddPolynomialWarp([1.0, c]) for c in cubic]
        rays = [kit.warp(r) for r in plain_rays]
        knots = np.linspace(0.0, 4.5, 600)
        nu = knots[:, None] + cubic[None, :] * knots[:, None] ** 3
        dnu = 1.0 + 3.0 * cubic[None, :] * knots[:, None] ** 2

        growth = rng.uniform(2.0, 4.0)
        amp = rng.uniform(0.1, 0.4)
        mode = int(rng.integers(1, 4))
        phase = rng.uniform(0.0, 2.0 * np.pi)

        def gen(t, h):
            return np.exp(growth * t) * (1.0 + amp * np.cos(mode * h + phase))

        def gen_dt(t, h):
            return growth * gen(t, h)

        t_grid = np.linspace(0.5, 2.5, 401)
        grid_gen = blend.PolarMetricGrid.from_generator(gen, t_grid, self.NTHETA, generator_dt=gen_dt)
        grid_fd = blend.PolarMetricGrid(grid_gen.t_grid, grid_gen.theta_grid, grid_gen.j)
        steep_scale = rng.uniform(40.0, 60.0)
        steep = blend.PolarMetricGrid.from_generator(
            lambda t, h: steep_scale * (1.0 + t**2), t_grid, self.NTHETA,
            generator_dt=lambda t, h: 2.0 * steep_scale * t)

        bad_ray = int(rng.integers(0, self.NTHETA))
        concave_knots = np.linspace(0.0, 4.5, 200)
        concave_nu = concave_knots - rng.uniform(0.05, 0.2) * concave_knots**3
        concave = kit.warp(glue.rays_from_polar_samples(concave_knots, concave_nu[:, None])[0])
        mixed_rays = rays[:bad_ray] + [concave] + rays[bad_ray + 1:]

        state = {}
        reference = {}

        def analytic_reference():
            if not reference:
                reference["res"] = glue.glue2d(plain_rays, theta, sigma_plain, R_bar, R)
            return reference["res"]

        def run_pipeline():
            state["glued"], cert = glue.glue_pipeline(spec)
            return state["glued"], cert

        def check_pipeline(out):
            gw, cert = out
            problems = [] if cert.passed else ["glue certificate failed"]
            problems += smallest_k_problems(
                gw.k, lambda k: secant_margin(rho_plain, sigma_plain, k, gw.R1, gw.R2, gw.delta) <= 0.0)
            return Outcome(not problems, problems)

        def check_glue2d(res, ref=None):
            problems = [] if res.passed and all(c.passed for c in res.certificates) else [
                "glue2d certificate failed"]
            if ref is None:
                problems += smallest_k_problems(res.k, lambda k: all(
                    secant_margin(r, sigma_plain, k, res.R1, res.R2, res.delta) <= 0.0
                    for r in plain_rays))
            else:
                if res.k != ref.k:
                    problems.append(f"sampled rays give k={res.k:g}, analytic rays k={ref.k:g}")
                if not np.allclose(res.slopes, ref.slopes, rtol=1e-8, atol=0.0):
                    problems.append("sampled and analytic plateau slopes differ")
            return Outcome(not problems, problems)

        def run_sampled():
            sampled = [kit.warp(r) for r in glue.rays_from_polar_samples(knots, nu, dnu)]
            return glue.glue2d(sampled, theta, sigma, R_bar, R)

        def run_blend(grid):
            k, _ = blend.find_k_blend(grid, 1.0, 2.0)
            return blend.blend_metric(grid, k, 1.0, 2.0)

        def check_blend(res):
            problems = [] if res.passed and res.min_radial_derivative > 0.0 else [
                "blend certificate failed"]
            problems += smallest_k_problems(res.k, blend_feasible(grid_fd, 1.0, 2.0))
            if state.get("blend_fd") is not None and res is not state["blend_fd"]:
                fd = state["blend_fd"]
                if res.k != fd.k:
                    problems.append("generator and finite-difference routes pick different k")
                if not math.isclose(res.min_radial_derivative, fd.min_radial_derivative, rel_tol=1e-6):
                    problems.append("generator and finite-difference d_t jhat disagree")
            return Outcome(not problems, problems)

        def run_blend_fd():
            state["blend_fd"] = run_blend(grid_fd)
            return state["blend_fd"]

        def run_warp_csv():
            gw = state["glued"]
            radii = np.linspace(0.0, gw.R2 + 4.0 * gw.delta, 2001)
            warp.save_warp_csv(self.warp_path, gw, radii)
            return gw, radii, warp.load_warp_csv(self.warp_path)

        def check_warp_csv(out):
            gw, radii, back = out
            s, d1, d2 = gw.evaluate(radii)
            same = all(a.tobytes() == b.tobytes() for a, b in (
                (radii, back.radii), (s, back.values), (d1, back.derivs), (d2, back.second_derivs)))
            return Outcome(same, [] if same else ["warp CSV round trip is not exact"])

        def run_metric_csv():
            blend.save_metric_csv(self.metric_path, grid_fd)
            return blend.load_metric_csv(self.metric_path)

        def check_metric_csv(back):
            same = all(getattr(grid_fd, a).tobytes() == getattr(back, a).tobytes()
                       for a in ("t_grid", "theta_grid", "j"))
            return Outcome(same, [] if same else ["metric CSV round trip is not exact"])

        def run_corrupted():
            bad = state["glued"].with_slope(state["glued"].s - 0.5)
            return glue.certify(bad, glue.default_certification_grid(bad))

        def rejected(passed, what):
            return Outcome(not passed, [] if not passed else [f"{what} was not rejected"])

        def run_concave():
            try:
                glue.glue2d(mixed_rays, theta, sigma, R_bar, R)
            except UsageError as exc:
                return exc
            return None

        def check_concave(exc):
            if exc is None:
                return Outcome(False, ["glue2d accepted a concave ray"])
            if f"ray {bad_ray} " not in str(exc):
                return Outcome(False, [f"rejection does not name ray {bad_ray}: {exc}"])
            return Outcome(True)

        return [
            Op("glue_pipeline", run_pipeline, check_pipeline),
            Op("glue2d_analytic", lambda: glue.glue2d(rays, theta, sigma, R_bar, R), check_glue2d),
            Op("glue2d_sampled", run_sampled, lambda res: check_glue2d(res, analytic_reference())),
            Op("blend_fd", run_blend_fd, check_blend),
            Op("blend_generator", lambda: run_blend(grid_gen), check_blend),
            Op("warp_csv", run_warp_csv, check_warp_csv),
            Op("metric_csv", run_metric_csv, check_metric_csv),
            Op("reject_corrupted_slope", run_corrupted,
               lambda cert: rejected(cert.passed, "corrupted plateau slope")),
            Op("reject_steep_k1_blend", lambda: blend.blend_metric(steep, 1.0, 1.0, 2.0),
               lambda res: rejected(res.passed, "k=1 blend of a steep metric")),
            Op("reject_concave_ray", run_concave, check_concave),
        ]


def make(name, workdir):
    """The workload called ``name``; file round trips write under ``workdir``."""
    if name == AnnulusSolve.name:
        return AnnulusSolve()
    if name == SmallSolves.name:
        return SmallSolves()
    if name == MeshRefine.name:
        return MeshRefine(workdir)
    if name == CertifyTargets.name:
        return CertifyTargets(workdir)
    raise KeyError(name)


NAMES = (AnnulusSolve.name, SmallSolves.name, MeshRefine.name, CertifyTargets.name)
