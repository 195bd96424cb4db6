"""Discrete p-energy minimization for maps into model-target charts.

The unknown is a per-vertex chart point q_v in R^n on a flat triangulated
domain; the affine interpolant has a constant differential D on each
triangle, and the discrete p-energy is

    E = sum_T (area_T / p) * sum_q w_q e_T(x_q)^{p/2},
    e_T(x) = sum_{alpha=1,2} h_ij(x) D_alpha^i D_alpha^j,

over the quadrature points x_q of the image triangle: rule 1 is the image
centroid (weight 1), which is exact for affine maps into Euclidean targets,
and rule 3 the three image edge midpoints (weight 1/3 each).  The analytic
gradient carries both the |du|^{p-2} du part and the metric-derivative part
through d h_ij / d x^k; for p >= 2 the integrand is C^1 also where du = 0.

Minimization is monotone descent: limited-memory quasi-Newton directions
(memory 10) with a backtracking line search, and Dirichlet rows pinned
bit-exactly.  The initial inverse Hessian of L-BFGS is gamma K_ii^{-1}, with
K_ii the interior block of the P1 stiffness matrix (factored once per solve)
and gamma = s^T y / y^T K_ii^{-1} y: the Sobolev-gradient, or
weighted-Laplacian, preconditioning of Huang, Li & Liu (J. Sci. Comput. 32
(2007)).  K_ii is the exact Hessian of the Euclidean p=2 energy and the
metric of the H^1 seminorm, so iteration counts do not grow with the mesh.
The first direction, and the direction after a restart, is -K_ii^{-1} g
with step 1.  With phi(a) = E(x + a d) along the direction d, a trial step
a is accepted by one of two tests, chosen by whether the energy can still
resolve it:

* while the Armijo margin c1 a |phi'(0)| (c1 = 1e-4) is at least one
  rounding unit eps |E|, the Armijo test phi(a) <= phi(0) + c1 a phi'(0),
  halving the step after a rejection;
* below that, at the energy's floating-point floor, energy differences are
  rounding, and the directional derivative decides instead: the approximate
  Wolfe conditions (2 c1 - 1) phi'(0) >= phi'(a) >= 0.9 phi'(0) of Hager &
  Zhang (SIAM J. Optim. 16 (2005); ACM TOMS 32 (2006)), together with
  phi(a) <= phi(0) so that the energy trace never rises.  There a rise of
  phi is rounding rather than overshoot, so the step shrinks by 0.8 instead
  of 0.5, trying more points of the Wolfe window.

The derivative stays accurate after energy differences have vanished, so
``grad_tol`` can lie far below the floor.  A line search fails when no trial
step passes: at the floor, the first step whose energy rounds to at most the
current one is too short for the curvature side, or 60 trials run out.  A
failed search with a nonempty memory drops the memory and retries the
iteration once along -K_ii^{-1} g (the usual L-BFGS restart).  A solve stops
as ``"converged"`` (sup-norm residual at most ``grad_tol``), ``"max_iter"``,
or ``"stalled"`` when a search fails with an empty memory.  A non-finite
energy or gradient at an accepted step raises ``DivergenceError``.

The first trial of each line search assembles energy and gradient together,
since it is accepted in most iterations; later trials assemble the energy
alone.  Both give the same energy bytes.

Assembly is evaluated in fixed-size triangle chunks.  A chunk stacks all of
its quadrature points and queries the chart once for them: one ``metric``
call and, for the gradient, one ``metric_jacobian`` call.  The contractions
with D are batched matrix products, and energy-only and energy+gradient
assemblies share the energy code.  Chunk results land in preallocated slots
and are reduced in index order; the gradient is scattered to the vertices
with one ``np.bincount`` per component, which adds in triangle order.  So
energies and gradients are byte-reproducible for any thread count.  The
energy total is a faithful rounding of the exact sum of the per-triangle
terms (``_total``): a plain pairwise sum would add a few ulps of noise,
which at the floor the comparison phi(a) <= phi(0) would read as rises.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu
from scipy.spatial.distance import pdist

from ._table import read_table, write_table
from .chart import TargetChart
from .errors import DivergenceError, DomainError, UsageError
from .mesh import TriMesh

__all__ = [
    "MapState",
    "SolveConfig",
    "SolveReport",
    "UniquenessReport",
    "energy",
    "energy_gradient",
    "residual",
    "harmonic_init",
    "solve",
    "check_max_principle",
    "max_principle_tolerance",
    "uniqueness_probe",
    "load_boundary_csv",
    "save_boundary_csv",
    "save_solution_csv",
    "load_solution_csv",
]

_CHUNK = 4096  # triangles per assembly chunk; fixed so results never depend on threading
_ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the Armijo test
_BACKTRACK = 0.5  # step factor after an Armijo rejection
_MEMORY = 10  # (s, y) pairs kept by L-BFGS
_WOLFE_SIGMA = 0.9  # curvature side of the approximate Wolfe test at the energy floor
_FLOOR_BACKTRACK = 0.8  # step factor at the floor, where a rise of f is rounding, not overshoot


@dataclass(frozen=True)
class MapState:
    """Per-vertex target-chart coordinates of the discrete map."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise UsageError("map state needs shape (nv, n)")
        object.__setattr__(self, "points", pts)

    def copy(self) -> "MapState":
        return MapState(self.points.copy())


@dataclass
class SolveConfig:
    """Solver knobs; 2 <= p < inf is a hard requirement of the energy."""

    p: float
    grad_tol: float = 1e-8
    max_iter: int = 1000
    quadrature: int = 1
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        _check_p_and_quadrature(self.p, self.quadrature)
        if not self.grad_tol > 0.0:  # written so that NaN fails
            raise UsageError("grad_tol must be positive")
        if self.max_iter < 1:
            raise UsageError("max_iter must be at least 1")
        if self.threads < 1:
            raise UsageError("threads must be at least 1")


@dataclass
class SolveReport:
    """Outcome of a minimization run.

    ``stop_reason`` says why the run ended: ``"converged"`` (the sup-norm
    residual reached ``grad_tol``; the property ``converged`` reads this),
    ``"max_iter"``, or ``"stalled"`` (no trial step passed the line search,
    also after a restart; see the module docstring).

    Counters: ``n_f`` energy-only and ``n_fg`` energy+gradient assemblies,
    ``n_backtracks`` rejected trial steps, ``n_restarts`` failed line
    searches that dropped the L-BFGS memory and retried.
    """

    final_energy: float
    energy_trace: list
    residual: float
    iterations: int
    mp_margin: float
    stop_reason: str
    n_f: int = 0
    n_fg: int = 0
    n_backtracks: int = 0
    n_restarts: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def to_json_dict(self):
        return {
            "final_energy": float(self.final_energy),
            "energy_trace": [float(v) for v in self.energy_trace],
            "residual": float(self.residual),
            "margin": float(self.mp_margin),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "stop_reason": self.stop_reason,
            "n_f": int(self.n_f),
            "n_fg": int(self.n_fg),
            "n_backtracks": int(self.n_backtracks),
            "n_restarts": int(self.n_restarts),
        }


@dataclass
class UniquenessReport:
    """Multi-start probe: spread of converged minimizers."""

    spread: float
    converged: list
    residuals: list
    n_starts: int
    states: list = field(default_factory=list, repr=False)

    @property
    def all_converged(self):
        return all(self.converged)


def _points_of(state) -> np.ndarray:
    if isinstance(state, MapState):
        return state.points
    return np.asarray(state, dtype=float)


def _check_shapes(mesh: TriMesh, chart: TargetChart, pts: np.ndarray):
    if pts.shape != (mesh.num_vertices, chart.dim):
        raise UsageError(
            f"state shape {pts.shape} does not match mesh/chart ({mesh.num_vertices}, {chart.dim})"
        )


_QUAD_RULES = {
    # quadrature id -> (barycentric coordinates of the points (nq, 3), rule weights (nq,))
    1: (np.full((1, 3), 1.0 / 3.0), np.array([1.0])),
    3: (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]), np.full(3, 1.0 / 3.0)),
}


def _boundary_values(mesh: TriMesh, chart: TargetChart, boundary_values) -> np.ndarray:
    bvals = np.asarray(boundary_values, dtype=float)
    if bvals.shape != (mesh.num_vertices, chart.dim):
        raise UsageError("boundary values need shape (nv, n) matching mesh and chart")
    return bvals


def _check_p_and_quadrature(p, quadrature):
    if not 2.0 <= p < math.inf:  # written so that NaN fails
        raise UsageError("p must be finite and >= 2")
    if quadrature not in (1, 3):
        raise UsageError("quadrature rule id must be 1 (centroid) or 3 (edge midpoints)")


def _assemble_chunk(mesh, chart, pts, p, rule, sl, e_out, g_out):
    tris = mesh.triangles[sl]
    G = mesh.grads[sl]  # (m, 3, 2)
    areas = mesh.areas[sl]
    Q = pts[tris]  # (m, 3, n)
    m, n = Q.shape[0], Q.shape[2]
    bary, weights = _QUAD_RULES[rule]
    nq = weights.size
    D = G.transpose(0, 2, 1) @ Q  # (m, 2, n)
    xq = (bary @ Q).reshape(m * nq, n)  # every quadrature point of the chunk
    H = chart.metric(xq).reshape(m, nq, n, n)
    DH = D[:, None] @ H  # (m, nq, 2, n)
    e = np.sum(DH * D[:, None], axis=(2, 3))  # (m, nq)
    np.maximum(e, 0.0, out=e)  # clip the roundoff of the quadratic form
    epow = e ** (0.5 * (p - 2.0)) if p != 2.0 else np.ones_like(e)
    e_out[sl] = (areas / p) * ((epow * e) @ weights)
    if g_out is None:
        return
    dH = chart.metric_jacobian(xq).reshape(m, nq, n * n, n)
    # a contiguous left operand takes numpy's fast matmul path; the bytes are the same
    DtD = (np.ascontiguousarray(D.transpose(0, 2, 1)) @ D).reshape(m, 1, 1, n * n)
    Jc = (DtD @ dH).reshape(m, nq, n)  # D_ai dh_ijc D_aj
    w = (0.5 * weights) * areas[:, None] * epow  # (m, nq)
    wDH = (w[:, None, :] @ DH.reshape(m, nq, 2 * n)).reshape(m, 2, n)
    g_out[sl] = 2.0 * (G @ wDH) + bary.T @ (w[:, :, None] * Jc)


def _total(terms):
    """Sum of ``terms`` rounded once: a faithful (almost always the correctly
    rounded) value of their exact sum.

    A plain pairwise sum carries a few ulps of noise that changes with the
    state; near a minimizer that noise is larger than the true energy change
    of a step.  Splitting every term at a power of two ``sigma`` of at least
    (n + 2) times the largest term (Rump, Ogita & Oishi, SIAM J. Sci. Comput.
    31 (2008), ExtractVector) makes the high parts sum exactly in any order;
    the low parts are below eps * sigma, so their own rounding stays far
    below one ulp of the total.
    """
    top = float(np.max(np.abs(terms), initial=0.0))
    if not top < 2.0**960:  # non-finite, or sigma would overflow
        return float(np.add.reduce(terms))
    sigma = math.ldexp(1.0, math.frexp(top)[1] + (terms.size + 1).bit_length())
    high = (terms + sigma) - sigma
    return float(np.add.reduce(high)) + float(np.add.reduce(terms - high))


def _assemble(mesh, chart, pts, p, rule=1, need_grad=True, threads=1):
    """Per-triangle energies and (optionally) the full gradient array.

    Chunk boundaries are fixed; threads only map chunk evaluations, results
    are written to disjoint slots and reduced in index order afterwards.
    """
    nt = mesh.num_triangles
    e_out = np.empty(nt)
    g_out = np.empty((nt, 3, chart.dim)) if need_grad else None
    slices = [slice(lo, min(lo + _CHUNK, nt)) for lo in range(0, nt, _CHUNK)]
    if threads > 1 and len(slices) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_assemble_chunk, mesh, chart, pts, p, rule, sl, e_out, g_out)
                for sl in slices
            ]
            for fut in futures:
                fut.result()
    else:
        for sl in slices:
            _assemble_chunk(mesh, chart, pts, p, rule, sl, e_out, g_out)
    total = _total(e_out)
    if not need_grad:
        return total, None
    idx = mesh.triangles.reshape(-1)
    flat = g_out.reshape(-1, chart.dim)
    grad_full = np.column_stack([np.bincount(idx, weights=flat[:, c], minlength=pts.shape[0])
                                 for c in range(chart.dim)])
    return total, grad_full


def energy(mesh: TriMesh, chart: TargetChart, state, p: float, *, quadrature: int = 1,
           threads: int = 1) -> float:
    """Discrete p-energy of the map; nonnegative, zero iff du vanishes."""
    _check_p_and_quadrature(p, quadrature)
    pts = _points_of(state)
    _check_shapes(mesh, chart, pts)
    total, _ = _assemble(mesh, chart, pts, p, quadrature, need_grad=False, threads=threads)
    return total


def energy_gradient(mesh: TriMesh, chart: TargetChart, state, p: float, *, quadrature: int = 1,
                    threads: int = 1) -> np.ndarray:
    """Exact gradient of ``energy`` w.r.t. interior vertex coordinates.

    Rows follow ``mesh.interior_indices()``.
    """
    _check_p_and_quadrature(p, quadrature)
    pts = _points_of(state)
    _check_shapes(mesh, chart, pts)
    _, grad = _assemble(mesh, chart, pts, p, quadrature, need_grad=True, threads=threads)
    return grad[mesh.interior_indices()]


def residual(mesh: TriMesh, chart: TargetChart, state, p: float, *, quadrature: int = 1,
             threads: int = 1) -> float:
    """Stationarity defect: sup over interior vertices of the gradient norm."""
    grad = energy_gradient(mesh, chart, state, p, quadrature=quadrature, threads=threads)
    if grad.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(grad, axis=1)))


def _stiffness(mesh: TriMesh):
    tris = mesh.triangles
    nt = tris.shape[0]
    local = np.einsum("t,tva,twa->tvw", mesh.areas, mesh.grads, mesh.grads)
    rows = np.repeat(tris, 3, axis=1).reshape(nt, 3, 3)
    cols = np.tile(tris[:, None, :], (1, 3, 1))
    K = sparse.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())),
        shape=(mesh.num_vertices, mesh.num_vertices),
    )
    return K.tocsr()


def _interior_stiffness(mesh: TriMesh):
    """``splu`` factor of the interior block K_ii of the stiffness matrix and
    the block K_ib, or None for a mesh without interior vertices."""
    iidx = mesh.interior_indices()
    if not iidx.size:
        return None
    K_i = _stiffness(mesh)[iidx]
    return splu(K_i[:, iidx].tocsc()), K_i[:, mesh.boundary_indices()]


def _harmonic_extension(mesh: TriMesh, bvals, factor) -> MapState:
    bidx = mesh.boundary_indices()
    if not np.all(np.isfinite(bvals[bidx])):
        raise UsageError("boundary values must be finite on boundary vertices")
    pts = np.zeros_like(bvals)
    pts[bidx] = bvals[bidx]
    if factor is not None:
        lu, K_ib = factor
        pts[mesh.interior_indices()] = lu.solve(-K_ib @ bvals[bidx])
    return MapState(pts)


def harmonic_init(mesh: TriMesh, boundary_values) -> MapState:
    """Componentwise discrete 2-harmonic extension of the boundary data.

    Solves the Euclidean-target p=2 problem per component; reproduces affine
    data exactly and obeys the componentwise discrete maximum principle.
    """
    bvals = np.asarray(boundary_values, dtype=float)
    if bvals.ndim != 2 or bvals.shape[0] != mesh.num_vertices:
        raise UsageError("boundary values need shape (nv, n)")
    bidx = mesh.boundary_indices()
    if bidx.size == 0:
        raise UsageError("mesh has no boundary; the Dirichlet problem is empty")
    return _harmonic_extension(mesh, bvals, _interior_stiffness(mesh))


def check_max_principle(mesh: TriMesh, chart: TargetChart, state) -> float:
    """Margin max_interior dist(q, pole) - max_boundary dist(q, pole).

    Nonpositive for an exact weak maximum principle; the discrete defect of a
    converged p-harmonic state is bounded by ``max_principle_tolerance``.
    """
    pts = _points_of(state)
    _check_shapes(mesh, chart, pts)
    radii = chart.dist_to_pole(pts)
    iidx = mesh.interior_indices()
    bidx = mesh.boundary_indices()
    if bidx.size == 0:
        raise UsageError("max principle needs a nonempty boundary")
    interior_max = float(np.max(radii[iidx])) if iidx.size else 0.0
    return interior_max - float(np.max(radii[bidx]))


def max_principle_tolerance(mesh: TriMesh, chart: TargetChart, state) -> float:
    """First-order slack 2 * (max boundary radius) * (mesh size) + 1e-8."""
    pts = _points_of(state)
    _check_shapes(mesh, chart, pts)
    radii = chart.dist_to_pole(pts)
    r0 = float(np.max(radii[mesh.boundary_indices()]))
    return 2.0 * r0 * mesh.mesh_size() + 1e-8


def _two_loop(mem, g, gamma, h0):
    """L-BFGS inverse-Hessian product with the initial inverse Hessian gamma * h0."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(mem):
        a = rho * np.dot(s, q)
        alphas.append(a)
        q -= a * y
    q = gamma * h0(q)
    for (s, y, rho), a in zip(mem, reversed(alphas)):
        b = rho * np.dot(y, q)
        q += (a - b) * s
    return q


def solve(mesh: TriMesh, chart: TargetChart, boundary_values, config: SolveConfig,
          initial: MapState | None = None):
    """Minimize the p-energy subject to Dirichlet data; returns (state, report).

    Starts from ``harmonic_init`` unless an initial state is given.  The
    energy trace is non-increasing and boundary rows are never modified.
    Directions are L-BFGS with the stiffness preconditioner K_ii^{-1}; steps
    are accepted by the Armijo test while the energy can resolve it and by
    the approximate Wolfe conditions at its floating-point floor (module
    docstring); ``report.stop_reason`` is ``"converged"``, ``"max_iter"`` or
    ``"stalled"``.
    """
    bvals = _boundary_values(mesh, chart, boundary_values)
    bidx = mesh.boundary_indices()
    iidx = mesh.interior_indices()
    if bidx.size == 0:
        raise UsageError("the Dirichlet problem needs a nonempty boundary")
    factor = _interior_stiffness(mesh)

    if initial is None:
        state0 = _harmonic_extension(mesh, bvals, factor)
    else:
        state0 = initial
    pts = _points_of(state0).copy()
    _check_shapes(mesh, chart, pts)
    pts[bidx] = bvals[bidx]  # boundary rows pinned bit-exactly
    n = chart.dim
    counts = {"n_f": 0, "n_fg": 0, "n_backtracks": 0, "n_restarts": 0}

    def split(x):
        full = pts.copy()
        full[iidx] = x.reshape(iidx.size, n)
        return full

    def f_only(x):
        counts["n_f"] += 1
        total, _ = _assemble(mesh, chart, split(x), config.p, config.quadrature,
                             need_grad=False, threads=config.threads)
        return total

    def f_and_g(x):
        counts["n_fg"] += 1
        total, grad = _assemble(mesh, chart, split(x), config.p, config.quadrature,
                                need_grad=True, threads=config.threads)
        return total, grad[iidx].ravel()

    def precondition(v):
        return factor[0].solve(v.reshape(iidx.size, n)).ravel()

    x = pts[iidx].ravel().copy()
    f, g = f_and_g(x)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite energy or gradient at the initial state")
    trace = [f]

    def sup_res(gvec):
        if gvec.size == 0:
            return 0.0
        return float(np.max(np.linalg.norm(gvec.reshape(-1, n), axis=1)))

    def line_search(x, f, d, gd):
        """Accepted (x, f, g) along d from step 1, or None; the first trial
        also assembles the gradient."""
        floor = np.finfo(float).eps * abs(f) / _ARMIJO_C1
        step = 1.0
        for trial in range(60):
            x_new = x + step * d
            # a NaN or inf energy fails both tests below
            f_new, g_new = f_and_g(x_new) if trial == 0 else (f_only(x_new), None)
            at_floor = -step * gd <= floor
            if not at_floor:
                if f_new <= f + _ARMIJO_C1 * step * gd:
                    if g_new is None:
                        f_new, g_new = f_and_g(x_new)
                    return x_new, f_new, g_new
            elif f_new <= f:
                if g_new is None:
                    f_new, g_new = f_and_g(x_new)
                slope = float(np.dot(g_new, d))
                if slope < _WOLFE_SIGMA * gd:
                    counts["n_backtracks"] += 1
                    return None  # too short for the curvature side, and so is every shorter step
                if slope <= (2.0 * _ARMIJO_C1 - 1.0) * gd:
                    return x_new, f_new, g_new
            counts["n_backtracks"] += 1
            step *= _FLOOR_BACKTRACK if at_floor else _BACKTRACK
        return None

    mem: list = []
    gamma = 1.0
    iterations = 0
    stop_reason = "converged" if sup_res(g) <= config.grad_tol else None
    while stop_reason is None:
        if iterations >= config.max_iter:
            stop_reason = "max_iter"
            break
        iterations += 1
        while True:
            d = -_two_loop(mem, g, gamma, precondition) if mem else -precondition(g)
            gd = float(np.dot(g, d))
            if gd >= 0.0:
                d = -precondition(g)
                gd = float(np.dot(g, d))
            accepted = line_search(x, f, d, gd)
            if accepted is not None or not mem:
                break
            mem.clear()  # the L-BFGS restart: retry once along -K_ii^{-1} g
            counts["n_restarts"] += 1
        if accepted is None:
            stop_reason = "stalled"
            break
        x_new, f_new, g_new = accepted
        if not np.isfinite(f_new) or not np.all(np.isfinite(g_new)):
            raise DivergenceError("non-finite energy or gradient during descent")
        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            mem.append((s, y, 1.0 / sy))
            if len(mem) > _MEMORY:
                mem.pop(0)
            gamma = sy / float(np.dot(y, precondition(y)))
        x, f, g = x_new, f_new, g_new
        trace.append(f)
        if sup_res(g) <= config.grad_tol:
            stop_reason = "converged"

    final = MapState(split(x))
    report = SolveReport(
        final_energy=f,
        energy_trace=trace,
        residual=sup_res(g),
        iterations=iterations,
        mp_margin=check_max_principle(mesh, chart, final),
        stop_reason=stop_reason,
        **counts,
    )
    return final, report


def uniqueness_probe(mesh: TriMesh, chart: TargetChart, boundary_values, config: SolveConfig,
                     n_starts: int) -> UniquenessReport:
    """Solve from seeded random interior perturbations and measure the spread.

    Start 0 is the plain harmonic extension; the rest add per-vertex uniform
    samples from the chart ball whose radius equals the boundary-data
    diameter.  The spread is the max pairwise sup-distance over converged
    states only; non-converged starts are reported per start.
    """
    if n_starts < 1:
        raise UsageError("need at least one start")
    bvals = _boundary_values(mesh, chart, boundary_values)
    bidx = mesh.boundary_indices()
    iidx = mesh.interior_indices()
    bdata = bvals[bidx]
    diam = float(pdist(bdata).max(initial=0.0))
    rng = np.random.default_rng(config.seed)
    base = harmonic_init(mesh, bvals)
    states = []
    converged = []
    residuals = []
    for start in range(n_starts):
        pts = base.points.copy()
        if start > 0 and iidx.size:
            direction = rng.normal(size=(iidx.size, chart.dim))
            norms = np.linalg.norm(direction, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            radius = diam * rng.uniform(0.0, 1.0, size=(iidx.size, 1)) ** (1.0 / chart.dim)
            pts[iidx] += direction / norms * radius
        state, report = solve(mesh, chart, bvals, config, initial=MapState(pts))
        states.append(state)
        converged.append(bool(report.converged))
        residuals.append(float(report.residual))
    spread = 0.0
    good = [s for s, ok in zip(states, converged) if ok]
    for i in range(len(good)):
        for j in range(i + 1, len(good)):
            diff = np.linalg.norm(good[i].points - good[j].points, axis=1)
            spread = max(spread, float(np.max(diff)))
    return UniquenessReport(
        spread=spread,
        converged=converged,
        residuals=residuals,
        n_starts=n_starts,
        states=states,
    )


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _vertex_header(n: int) -> str:
    return "vertex," + ",".join(f"x{i+1}" for i in range(n))


def save_boundary_csv(path, mesh: TriMesh, values) -> None:
    """Write boundary rows as CSV ``vertex,x1,...,xn``."""
    values = np.asarray(values, dtype=float)
    n = values.shape[1]
    bidx = mesh.boundary_indices()
    write_table(path, _vertex_header(n), (np.column_stack([bidx, values[bidx]]), ["%d"] + ["%.17g"] * n))


def load_boundary_csv(path, mesh: TriMesh, dim: int) -> np.ndarray:
    """Read boundary data; every boundary vertex must be covered (a repeated vertex keeps its last row)."""
    _, rows, error = read_table(path, "boundary", re.escape(_vertex_header(dim)), columns=dim + 1)
    vertex = rows[:, 0]
    bad = np.flatnonzero((np.mod(vertex, 1.0) != 0.0) | (vertex < 0) | (vertex >= mesh.num_vertices))
    if bad.size:
        raise error(bad[0], f"boundary row names vertex {vertex[bad[0]]:g}, not a vertex of the mesh")
    seen = np.zeros(mesh.num_vertices, dtype=bool)
    seen[vertex.astype(np.int64)] = True
    missing = np.flatnonzero(mesh.boundary & ~seen)
    if missing.size:
        raise UsageError(f"{path}: boundary data missing for vertex {int(missing[0])}")
    last = rows.shape[0] - 1 - np.unique(vertex[::-1], return_index=True)[1]
    values = np.zeros((mesh.num_vertices, dim))
    values[vertex[last].astype(np.int64)] = rows[last, 1:]
    return values


def save_solution_csv(path, state: MapState) -> None:
    pts = state.points
    n = pts.shape[1]
    rows = np.column_stack([np.arange(pts.shape[0]), pts])
    write_table(path, _vertex_header(n), (rows, ["%d"] + ["%.17g"] * n))


def load_solution_csv(path) -> MapState:
    _, rows, _ = read_table(path, "solution", "vertex,x1.*")
    if not rows.size:
        raise UsageError(f"{path}: solution file has no rows")
    return MapState(np.ascontiguousarray(rows[:, 1:]))
