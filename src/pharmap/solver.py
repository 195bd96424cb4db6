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
K_ii the interior block of the P1 stiffness matrix (factored once per mesh,
held in the per-mesh store below) and gamma = s^T y / y^T K_ii^{-1} y: the
Sobolev-gradient, or weighted-Laplacian, preconditioning of Huang, Li & Liu
(J. Sci. Comput. 32 (2007)).  K_ii is the exact Hessian of the Euclidean
p=2 energy and the metric of the H^1 seminorm, so iteration counts do not
grow with the mesh.  The first direction, and the direction after a restart,
is -K_ii^{-1} g with step 1.  With phi(a) = E(x + a d) along the direction
d, a trial step a is accepted by one of two tests, chosen by whether the
energy can still resolve it:

* while the Armijo margin c1 a |phi'(0)| (c1 = 1e-4) is at least one
  rounding unit eps |E|, the Armijo test phi(a) <= phi(0) + c1 a phi'(0);
* below that, at the energy's floating-point floor, energy differences are
  rounding, and the directional derivative alone decides: the approximate
  Wolfe conditions (2 c1 - 1) phi'(0) >= phi'(a) >= 0.9 phi'(0) of Hager &
  Zhang (SIAM J. Optim. 16 (2005); ACM TOMS 32 (2006)).  No energy is
  compared there.

Every rejected trial halves the step; a non-finite energy or slope is a
rejection.  Every trial assembles energy and gradient together, as Hager &
Zhang evaluate f and g at every trial: an accepted step needs its gradient,
and the energy's bytes do not depend on whether the gradient is assembled.

The energy trace holds the energy of the initial state and of each accepted
step, and ``final_energy`` is its last entry: above the floor the step's
assembled total, at the floor the previous entry plus the trapezoid
0.5 a (phi'(0) + phi'(a)) of the slopes, the estimate from which Hager &
Zhang derive their test.  The sufficient-decrease side bounds that increment
by c1 a phi'(0) < 0, so the trace never rises.  The derivative stays accurate
after energy differences have vanished, so ``grad_tol`` can lie far below
the floor.

A line search fails when no trial step passes: at the floor, the first
trial whose slope is below the curvature side 0.9 phi'(0) is too short, and
so is every shorter one; or 60 trials run out.  A failed search with a
nonempty memory drops the memory and retries the iteration once along
-K_ii^{-1} g (the usual L-BFGS restart).  A solve stops as ``"converged"``
(sup-norm residual at most ``grad_tol``), ``"max_iter"``, or ``"stalled"``:
when a search fails with an empty memory, or when the search after a
restart accepts a step that lowers neither the energy nor the sup-norm
residual.  Such a step makes no progress; without this rule a solve whose
``grad_tol`` no state at the floor reaches would trade restarts for
equal-energy steps until ``max_iter``.  The solve keeps the state before
that step.  A non-finite energy or gradient at the initial state or at an
accepted step raises ``DivergenceError``; its ``report`` is the
``SolveReport`` of the state the solve keeps, with ``stop_reason``
``"nonfinite"``.

Two kinds of table depend on the mesh alone: the chunk tables of the
assembly (below) and the factor of K_ii with the block K_ib.  One per-mesh
store (``_held``) builds each on first use and holds it, without keeping
the mesh alive; energies, gradients and residuals build chunk tables only.

Assembly is evaluated in fixed-size triangle chunks.  A chunk's tables
(its areas, the gradient rows of its vertices 1 and 2 component-major, and
its triangle index columns) are those of the per-mesh store.  A chunk stacks
all of its quadrature points and queries the chart once for them: one
``metric`` call and, for the gradient, one ``metric_jacobian`` call.
Everything else is held component-major, as (component, triangle) arrays
with the triangle axis last: the corner points, D, S = D^T D and the
gradient terms.  The chart builds h and dh entry-major and returns
point-major views of them, so taking the triangle axis last again copies
nothing.  Every contraction is then an elementwise product summed over the
n <= 3 components.  D is formed from
edge differences, D = G_1 (Q_1 - Q_0) + G_2 (Q_2 - Q_0), which are exact for
nearby corners (Sterbenz); the sum over all three corners would cancel about
log2(1/h) bits at mesh size h, noise that near a minimizer would swamp the
energy change of a step.  Consistently, the D-part of
vertex 0's gradient row is minus the sum of the other two, as dD/dQ_0 =
-(G_1 + G_2), so it sums to zero over each triangle exactly.  Energy-only
and energy+gradient assemblies share the energy code.  Chunk results land
in preallocated slots and are reduced in index order; the gradient is
scattered to the vertices with one ``np.bincount`` per component, which
adds in triangle order.  So energies and gradients are byte-reproducible,
also where ``energy_gradient`` maps the chunks over threads; the energy
total adds the per-triangle terms with ``np.add.reduce``, in a fixed order.

The factor of K_ii loads scipy.sparse on first use, with the first
``solve``, ``harmonic_init`` or ``uniqueness_probe`` on a mesh with
interior vertices; energies, gradients and residuals never load it.
"""

from __future__ import annotations

import math
import re
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._table import read_table, write_table
from .chart import TargetChart, _row_norms
from .errors import DivergenceError, UsageError, _count
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
_BACKTRACK = 0.5  # step factor after a rejected trial
_MEMORY = 10  # (s, y) pairs kept by L-BFGS
_WOLFE_SIGMA = 0.9  # curvature side of the approximate Wolfe test at the energy floor


@dataclass(frozen=True)
class MapState:
    """Per-vertex target-chart coordinates of the discrete map."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise UsageError("map state needs shape (nv, n)")
        object.__setattr__(self, "points", pts)


@dataclass
class SolveConfig:
    """Solver knobs; 2 <= p < inf is a hard requirement of the energy."""

    p: float
    grad_tol: float = 1e-8
    max_iter: int = 1000
    quadrature: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_p_and_quadrature(self.p, self.quadrature)
        if not self.grad_tol > 0.0:  # written so that NaN fails
            raise UsageError("grad_tol must be positive")
        _count(self.max_iter, "max_iter", 1)
        _count(self.seed, "seed", 0)


@dataclass
class SolveReport:
    """Outcome of a minimization run.

    ``stop_reason`` says why the run ended: ``"converged"`` (the sup-norm
    residual reached ``grad_tol``; the property ``converged`` reads this),
    ``"max_iter"``, or ``"stalled"`` (no trial step passed the line search,
    also after a restart, or the step after a restart lowered neither the
    energy nor the residual; see the module docstring).  The report that a
    ``DivergenceError`` of ``solve`` carries says ``"nonfinite"``.

    ``final_energy`` is the last entry of ``energy_trace`` (see the module
    docstring for what an entry is).

    Counters: ``n_fg`` energy+gradient assemblies (the initial state and
    every line-search trial), ``n_backtracks`` rejected trial steps,
    ``n_restarts`` failed line searches that dropped the L-BFGS memory and
    retried.
    """

    final_energy: float
    energy_trace: list
    residual: float
    iterations: int
    mp_margin: float
    stop_reason: str
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
    states: list = field(default_factory=list, repr=False)


def _map_points(mesh: TriMesh, chart: TargetChart, state) -> np.ndarray:
    """The points of a map state, a ``MapState`` or an array, of shape (nv, ``chart.dim``)."""
    pts = state.points if isinstance(state, MapState) else np.asarray(state, dtype=float)
    if pts.shape != (mesh.num_vertices, chart.dim):
        raise UsageError(f"state shape {pts.shape} does not match mesh/chart "
                         f"({mesh.num_vertices}, {chart.dim})")
    return pts


def _boundary_of(mesh: TriMesh) -> np.ndarray:
    """The boundary vertices, of which the Dirichlet problem needs at least one."""
    bidx = mesh.boundary_indices()
    if bidx.size == 0:
        raise UsageError("the Dirichlet problem needs a nonempty boundary")
    return bidx


def _dirichlet_data(mesh: TriMesh, boundary_values, dim: int | None = None) -> np.ndarray:
    """Boundary values as floats of shape (nv, n), with n = ``dim`` when given,
    finite on a nonempty boundary; rows off the boundary are not read."""
    bvals = np.asarray(boundary_values, dtype=float)
    if bvals.ndim != 2 or bvals.shape[0] != mesh.num_vertices or dim not in (None, bvals.shape[1]):
        raise UsageError(f"boundary values need shape (nv, n) matching mesh and chart, got {bvals.shape}")
    if not np.all(np.isfinite(bvals[_boundary_of(mesh)])):
        raise UsageError("boundary values must be finite on boundary vertices")
    return bvals


_QUAD_RULES = {
    # quadrature id -> (barycentric coordinates of the points (nq, 3), rule weights (nq,))
    1: (np.full((1, 3), 1.0 / 3.0), np.array([1.0])),
    3: (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]), np.full(3, 1.0 / 3.0)),
}


def _check_p_and_quadrature(p, quadrature):
    if not 2.0 <= p < math.inf:  # written so that NaN fails
        raise UsageError("p must be finite and >= 2")
    if quadrature not in (1, 3):
        raise UsageError("quadrature rule id must be 1 (centroid) or 3 (edge midpoints)")


_HELD = weakref.WeakKeyDictionary()  # TriMesh -> {build: build(mesh)}


def _held(mesh: TriMesh, build):
    """``build(mesh)`` of a table that depends on the mesh alone: the first call on a mesh
    builds it, later calls return the held result until the mesh is collected.

    ``TriMesh`` is immutable, so nothing held goes stale; the held results
    do not keep the mesh alive.  Threads that race on a fresh mesh may each
    build; every build gives the same result.
    """
    tables = _HELD.setdefault(mesh, {})
    try:
        return tables[build]
    except KeyError:
        tables[build] = result = build(mesh)
        return result


def _chunk_tables(mesh: TriMesh):
    """Per chunk of at most ``_CHUNK`` triangles: its slice, its areas, the gradient rows of
    its vertices 1 and 2 as (vertex 1..2, alpha, m) and its triangle index columns (3, m)."""
    nt = mesh.num_triangles
    tables = []
    for lo in range(0, nt, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, nt))
        tables.append((sl, mesh.areas[sl], np.ascontiguousarray(mesh.grads[sl, 1:].transpose(1, 2, 0)),
                       np.ascontiguousarray(mesh.triangles[sl].T)))
    return tables


def _assemble_chunk(chart, comps, p, rule, table, e_out, g_out):
    """Per-triangle energies of the chunk ``table`` (an entry of ``_chunk_tables``) into
    ``e_out[sl]`` and, unless ``g_out`` is None, their vertex gradients into ``g_out[:, sl]``;
    ``comps`` holds the map points component-major, shape (n, nv)."""
    bary, weights = _QUAD_RULES[rule]
    sl, areas, grads, corners = table
    Q = np.take(comps, corners, axis=1)  # (n, 3, m)
    n, _, m = Q.shape
    nq = weights.size
    edges = Q[:, 1:] - Q[:, :1]  # (n, 2, m): Q_1 - Q_0, Q_2 - Q_0
    D = grads[0][:, None] * edges[:, 0] + grads[1][:, None] * edges[:, 1]  # (alpha, n, m)
    S = D[0][:, None] * D[0] + D[1][:, None] * D[1]  # D^T D, (n, n, m)
    xq = (bary @ Q).reshape(n, nq * m)  # every quadrature point of the chunk, q-major
    # the chart takes and gives point-major views of entry-major buffers: no copy either way
    H = np.ascontiguousarray(chart.metric(xq.T).transpose(1, 2, 0)).reshape(n, n, nq, m)
    e = np.add.reduce((H * S[:, :, None]).reshape(n * n, nq, m))  # (nq, m)
    np.maximum(e, 0.0, out=e)  # clip the roundoff of the quadratic form
    epow = e ** (0.5 * (p - 2.0)) if p != 2.0 else np.ones_like(e)
    e_out[sl] = (areas / p) * (weights @ (epow * e))
    if g_out is None:
        return
    dH = np.ascontiguousarray(chart.metric_jacobian(xq.T).transpose(1, 2, 3, 0)).reshape(n * n, n, nq, m)
    w = epow * ((0.5 * weights)[:, None] * areas)  # (nq, m)
    J = np.add.reduce(dH * S.reshape(n * n, 1, 1, m)) * w  # w D_ai dh_ijc D_aj, (n, nq, m)
    wH = np.add.reduce(H * w, axis=2)  # (n, n, m)
    T = np.add.reduce(wH * D[:, None], axis=2)  # (alpha, n, m): sum_q w_q h_q D_alpha
    rows = 2.0 * (grads[:, 0, None] * T[0] + grads[:, 1, None] * T[1])  # vertices 1, 2: (2, n, m)
    g = bary.T @ J  # (n, 3, m)
    g[:, 0] -= rows[0] + rows[1]  # vertex 0's row makes the D part sum to zero exactly
    g[:, 1:] += rows.transpose(1, 0, 2)
    g_out[:, sl] = g.transpose(0, 2, 1)


def _assemble(mesh, chart, comps, p, rule=1, need_grad=True, threads=1):
    """Energy and (optionally) the full gradient of the map points ``comps``, both component-major:
    shape (n, nv).

    Chunk boundaries are fixed; threads only map chunk evaluations, results
    are written to disjoint slots and reduced in index order afterwards.
    """
    nt = mesh.num_triangles
    e_out = np.empty(nt)
    g_out = np.empty((chart.dim, nt, 3)) if need_grad else None
    tables = _held(mesh, _chunk_tables)
    if threads > 1 and len(tables) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_assemble_chunk, chart, comps, p, rule, table, e_out, g_out)
                for table in tables
            ]
            for fut in futures:
                fut.result()
    else:
        for table in tables:
            _assemble_chunk(chart, comps, p, rule, table, e_out, g_out)
    total = float(np.add.reduce(e_out))
    if not need_grad:
        return total, None
    idx = mesh.triangles.reshape(-1)
    nv = comps.shape[1]
    return total, np.array([np.bincount(idx, weights=g_c.reshape(-1), minlength=nv) for g_c in g_out])


def energy(mesh: TriMesh, chart: TargetChart, state, p: float, *, quadrature: int = 1) -> float:
    """Discrete p-energy of the map; nonnegative, zero iff du vanishes."""
    _check_p_and_quadrature(p, quadrature)
    comps = np.ascontiguousarray(_map_points(mesh, chart, state).T)
    total, _ = _assemble(mesh, chart, comps, p, quadrature, need_grad=False)
    return total


def energy_gradient(mesh: TriMesh, chart: TargetChart, state, p: float, *, quadrature: int = 1,
                    threads: int = 1) -> np.ndarray:
    """Exact gradient of ``energy`` w.r.t. interior vertex coordinates.

    Rows follow ``mesh.interior_indices()``.  ``threads`` is an integer
    >= 1; with ``threads`` > 1 a mesh of several chunks is assembled on a
    thread pool, with the same bytes.
    """
    _check_p_and_quadrature(p, quadrature)
    _count(threads, "threads", 1)
    comps = np.ascontiguousarray(_map_points(mesh, chart, state).T)
    _, grad = _assemble(mesh, chart, comps, p, quadrature, need_grad=True, threads=threads)
    return np.ascontiguousarray(grad[:, mesh.interior_indices()].T)


def residual(mesh: TriMesh, chart: TargetChart, state, p: float, *, quadrature: int = 1) -> float:
    """Stationarity defect: sup over interior vertices of the gradient norm."""
    return _sup_norm(energy_gradient(mesh, chart, state, p, quadrature=quadrature))


def _sup_norm(rows) -> float:
    """The largest norm of a row of ``rows``, 0 for no rows."""
    return float(_row_norms(rows).max(initial=0.0))


def _stiffness(mesh: TriMesh):
    import scipy.sparse as sparse

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
    from scipy.sparse.linalg import splu

    K_i = _stiffness(mesh)[iidx]
    return splu(K_i[:, iidx].tocsc()), K_i[:, mesh.boundary_indices()]


def _harmonic_extension(mesh: TriMesh, bvals) -> np.ndarray:
    """Points of the 2-harmonic extension of checked Dirichlet data."""
    bidx = mesh.boundary_indices()
    pts = np.zeros_like(bvals)
    pts[bidx] = bvals[bidx]
    factor = _held(mesh, _interior_stiffness)
    if factor is not None:
        lu, K_ib = factor
        pts[mesh.interior_indices()] = lu.solve(-(K_ib @ bvals[bidx]))  # -K_ib would copy the sparse matrix
    return pts


def harmonic_init(mesh: TriMesh, boundary_values) -> MapState:
    """Componentwise discrete 2-harmonic extension of the boundary data.

    Solves the Euclidean-target p=2 problem per component with the mesh's
    factor of K_ii, which is made on the first call on a mesh and held while
    the mesh lives; reproduces affine data exactly and obeys the
    componentwise discrete maximum principle.
    """
    return MapState(_harmonic_extension(mesh, _dirichlet_data(mesh, boundary_values)))


def check_max_principle(mesh: TriMesh, chart: TargetChart, state) -> float:
    """Margin max_interior dist(q, pole) - max_boundary dist(q, pole).

    Nonpositive for an exact weak maximum principle; the discrete defect of a
    converged p-harmonic state is bounded by ``max_principle_tolerance``.
    """
    interior, boundary = _pole_distances(mesh, chart, state)
    return float(np.max(interior, initial=0.0)) - float(np.max(boundary))


def max_principle_tolerance(mesh: TriMesh, chart: TargetChart, state) -> float:
    """First-order slack 2 * (max boundary radius) * (mesh size) + 1e-8."""
    r0 = float(np.max(_pole_distances(mesh, chart, state)[1]))
    return 2.0 * r0 * mesh.mesh_size() + 1e-8


def _pole_distances(mesh: TriMesh, chart: TargetChart, state):
    """dist(q, pole) of a map state over the interior and over the (nonempty) boundary vertices."""
    radii = chart.dist_to_pole(_map_points(mesh, chart, state))
    return radii[mesh.interior_indices()], radii[_boundary_of(mesh)]


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


def _direction(mem, g, gamma, h0):
    """Search direction d and slope g^T d: the L-BFGS direction, or -h0(g) where the
    memory is empty or its direction is no descent."""
    d = -_two_loop(mem, g, gamma, h0) if mem else -h0(g)
    gd = float(np.dot(g, d))
    if gd >= 0.0:
        d = -h0(g)
        gd = float(np.dot(g, d))
    return d, gd


def solve(mesh: TriMesh, chart: TargetChart, boundary_values, config: SolveConfig,
          initial: MapState | None = None):
    """Minimize the p-energy subject to Dirichlet data; returns (state, report).

    Starts from ``harmonic_init`` unless an initial state is given.  The
    energy trace is non-increasing and boundary rows are never modified.
    Directions are L-BFGS with the stiffness preconditioner K_ii^{-1}, whose
    factor is made once per mesh and shared by every solve on it; steps
    are accepted by the Armijo test while the energy can resolve it and by
    the approximate Wolfe conditions at its floating-point floor (module
    docstring); ``report.stop_reason`` is ``"converged"``, ``"max_iter"`` or
    ``"stalled"``.  A non-finite energy or gradient raises ``DivergenceError``
    with the report of the last finite state (or of the initial state) as
    its ``report``.
    """
    bvals = _dirichlet_data(mesh, boundary_values, chart.dim)
    bidx = mesh.boundary_indices()
    iidx = mesh.interior_indices()
    factor = _held(mesh, _interior_stiffness)
    pts = _harmonic_extension(mesh, bvals) if initial is None else _map_points(mesh, chart, initial).copy()
    pts[bidx] = bvals[bidx]  # boundary rows pinned bit-exactly
    n = chart.dim
    counts = {"n_fg": 0, "n_backtracks": 0, "n_restarts": 0}
    # the map component-major; its boundary columns never change, and each
    # assembly writes the interior columns from the vertex-major vector x
    comps = np.ascontiguousarray(pts.T)

    def put(x):
        comps[:, iidx] = x.reshape(iidx.size, n).T
        return comps

    def f_and_g(x):
        counts["n_fg"] += 1
        total, grad = _assemble(mesh, chart, put(x), config.p, config.quadrature, need_grad=True)
        return total, grad[:, iidx].T.ravel()

    def precondition(v):
        return factor[0].solve(v.reshape(iidx.size, n)).ravel()

    def finish(stop_reason):
        """The state x that the solve keeps and its report.

        ``comps`` may hold a rejected trial, so x is written into it first.
        """
        final = MapState(np.ascontiguousarray(put(x).T))
        report = SolveReport(
            final_energy=f,
            energy_trace=trace,
            residual=_sup_norm(g.reshape(-1, n)),
            iterations=iterations,
            mp_margin=check_max_principle(mesh, chart, final),
            stop_reason=stop_reason,
            **counts,
        )
        return final, report

    def diverged(where):
        """``DivergenceError`` carrying the report of the state x, which may be the initial one.

        The chart refused any point whose radius is not finite, so only the
        gradient of x can be non-finite or so large that its square overflows.
        """
        exc = DivergenceError(f"non-finite energy or gradient {where}")
        with np.errstate(over="ignore"):
            exc.report = finish("nonfinite")[1]
        return exc

    x = pts[iidx].ravel().copy()
    f, g = f_and_g(x)
    trace = [f]
    iterations = 0
    if not np.isfinite(f) or not np.isfinite(g).all():
        raise diverged("at the initial state")

    def line_search(x, f, d, gd):
        """Accepted (x, f, g) along d from step 1, or None."""
        floor = np.finfo(float).eps * abs(f) / _ARMIJO_C1
        step = 1.0
        for _ in range(60):
            x_new = x + step * d
            at_floor = -step * gd <= floor
            # a NaN or inf energy or slope fails every test below, so its overflow is no error
            with np.errstate(over="ignore", invalid="ignore"):
                f_new, g_new = f_and_g(x_new)
                slope = float(np.dot(g_new, d)) if at_floor else None
            if not at_floor:
                if f_new <= f + _ARMIJO_C1 * step * gd:
                    return x_new, f_new, g_new
            elif math.isfinite(f_new) and math.isfinite(slope):
                if slope < _WOLFE_SIGMA * gd:
                    counts["n_backtracks"] += 1
                    return None  # too short for the curvature side, and so is every shorter step
                if slope <= (2.0 * _ARMIJO_C1 - 1.0) * gd:
                    return x_new, f + 0.5 * step * (gd + slope), g_new  # the trapezoid of phi'
            counts["n_backtracks"] += 1
            step *= _BACKTRACK
        return None

    mem: list = []
    gamma = 1.0
    res = _sup_norm(g.reshape(-1, n))
    stop_reason = "converged" if res <= config.grad_tol else None
    while stop_reason is None:
        if iterations >= config.max_iter:
            stop_reason = "max_iter"
            break
        iterations += 1
        restarted = False
        while True:
            d, gd = _direction(mem, g, gamma, precondition)
            accepted = line_search(x, f, d, gd)
            if accepted is not None or not mem:
                break
            mem.clear()  # the L-BFGS restart: retry once along -K_ii^{-1} g
            counts["n_restarts"] += 1
            restarted = True
        if accepted is None:
            stop_reason = "stalled"
            break
        x_new, f_new, g_new = accepted
        if not np.isfinite(f_new) or not np.isfinite(g_new).all():
            raise diverged("during descent")
        res_new = _sup_norm(g_new.reshape(-1, n))
        if restarted and f_new >= f and res_new >= res:
            stop_reason = "stalled"  # the restart's step made no progress; keep x
            break
        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-12 * math.sqrt(np.dot(s, s)) * math.sqrt(np.dot(y, y)):  # the bytes of np.linalg.norm
            mem.append((s, y, 1.0 / sy))
            if len(mem) > _MEMORY:
                mem.pop(0)
            gamma = sy / float(np.dot(y, precondition(y)))
        x, f, g, res = x_new, f_new, g_new, res_new
        trace.append(f)
        if res <= config.grad_tol:
            stop_reason = "converged"

    return finish(stop_reason)


def _max_distance(rows) -> float:
    """The largest norm along the last axis of rows[j] - rows[i] over all i < j, 0 for fewer than two rows.

    One row against the rows after it at a time, so no n^2 differences are held at once.
    """
    return float(max((np.max(np.linalg.norm(rows[i + 1:] - rows[i], axis=-1)) for i in range(len(rows) - 1)),
                     default=0.0))


def uniqueness_probe(mesh: TriMesh, chart: TargetChart, boundary_values, config: SolveConfig,
                     n_starts: int) -> UniquenessReport:
    """Solve from seeded random interior perturbations and measure the spread.

    Start 0 is the plain harmonic extension; the rest add per-vertex uniform
    samples from the chart ball whose radius equals the boundary-data
    diameter.  The spread is the max pairwise sup-distance over converged
    states only; non-converged starts are reported per start.
    """
    _count(n_starts, "n_starts", 1)
    bvals = _dirichlet_data(mesh, boundary_values, chart.dim)
    iidx = mesh.interior_indices()
    diam = _max_distance(bvals[mesh.boundary_indices()])
    rng = np.random.default_rng(config.seed)
    base = _harmonic_extension(mesh, bvals)
    states, converged, residuals = [], [], []
    for start in range(n_starts):
        pts = base.copy()
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
    good = np.array([s.points for s, ok in zip(states, converged) if ok])
    return UniquenessReport(
        spread=_max_distance(good),
        converged=converged,
        residuals=residuals,
        states=states,
    )


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _vertex_header(n: int) -> str:
    return "vertex," + ",".join(f"x{i+1}" for i in range(n))


def _write_vertex_table(path, vertices, values) -> None:
    """Write the vertex table ``vertex,x1,...,xn``: row k is vertex ``vertices[k]`` and ``values[k]``."""
    n = values.shape[1]
    write_table(path, _vertex_header(n), (np.column_stack([vertices, values]), ["%d"] + ["%.17g"] * n))


def _read_vertex_table(path, what: str, dim: int | None = None):
    """(vertex column as floats, values, ``error`` of ``read_table``) of a vertex table with an
    exact header of n = ``dim`` (or of any n) value columns and nonnegative integer vertices."""
    pattern = r"vertex(,x\d+)+" if dim is None else re.escape(_vertex_header(dim))
    head, rows, error = read_table(path, what, pattern)
    if head != _vertex_header(rows.shape[1] - 1):
        raise UsageError(f"{path}, line 1: bad {what} header {head!r}")
    vertex = rows[:, 0]
    bad = np.flatnonzero(~(np.isfinite(vertex) & (np.floor(vertex) == vertex)) | (vertex < 0))
    if bad.size:
        raise error(bad[0], f"{what} row names vertex {vertex[bad[0]]:g}, not a nonnegative integer")
    return vertex, rows[:, 1:], error


def save_boundary_csv(path, mesh: TriMesh, values) -> None:
    """Write the boundary rows of the Dirichlet data ``values`` (shape (nv, n)) as a vertex table."""
    bidx = mesh.boundary_indices()
    _write_vertex_table(path, bidx, _dirichlet_data(mesh, values)[bidx])


def load_boundary_csv(path, mesh: TriMesh, dim: int) -> np.ndarray:
    """Read boundary data as an (nv, ``dim``) array, zero off the rows read; every boundary
    vertex must have a row, every value must be finite, and a repeated vertex keeps its last row."""
    vertex, values, error = _read_vertex_table(path, "boundary", dim)
    bad = np.flatnonzero(vertex >= mesh.num_vertices)
    if bad.size:
        raise error(bad[0], f"boundary row names vertex {vertex[bad[0]]:g}, not a vertex of the mesh")
    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=1))
    if bad.size:
        raise error(bad[0], f"boundary row of vertex {vertex[bad[0]]:g} has a non-finite value")
    missing = np.setdiff1d(mesh.boundary_indices(), vertex)
    if missing.size:
        raise UsageError(f"{path}: boundary data missing for vertex {int(missing[0])}")
    last = vertex.size - 1 - np.unique(vertex[::-1], return_index=True)[1]
    out = np.zeros((mesh.num_vertices, dim))
    out[vertex[last].astype(np.int64)] = values[last]
    return out


def save_solution_csv(path, state: MapState) -> None:
    """Write a map state as a vertex table, one row per vertex in vertex order; every
    coordinate in ``%.17g``, so that ``load_solution_csv`` returns the same bytes.  A state
    with no vertices is refused, since the reader needs at least one row."""
    if not state.points.shape[0]:
        raise UsageError("a solution file needs at least one vertex")
    _write_vertex_table(path, np.arange(state.points.shape[0]), state.points)


def load_solution_csv(path) -> MapState:
    """Read a map state written by ``save_solution_csv``: n is the number of value columns of
    the header, and the rows must name the vertices 0, 1, ..., nv-1 in this order (nv >= 1)."""
    vertex, values, error = _read_vertex_table(path, "solution")
    if not vertex.size:
        raise UsageError(f"{path}: solution file has no rows")
    wrong = np.flatnonzero(vertex != np.arange(vertex.size))
    if wrong.size:
        raise error(wrong[0], f"solution row names vertex {vertex[wrong[0]]:g}, expected {wrong[0]}")
    return MapState(np.ascontiguousarray(values))
