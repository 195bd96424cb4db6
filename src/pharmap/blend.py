"""Radial blending of a 2d metric with a rescaled hyperbolic one.

In polar coordinates ``dt^2 + j(t, theta) d theta^2`` the radial coordinate
``T(t, theta) = t`` has Hessian

    Hess T (X, X) = 1/2 X^i X^l d_t j_il      (angular components of X),

so strict convexity of T off the radial direction is exactly positivity of
``d_t j`` for t > 0.  Blending ``j`` with the angular coefficient of the
curvature ``-k`` hyperbolic plane,

    h_k(t) = sinh^2(sqrt(k) t) / k,
    jhat   = phi_j(t) j + phi_h(t) h_k,        phi_j + phi_h = 1,

keeps that positivity provided ``h_k >= j`` on the transition annulus
[R1, R2]: by the product rule

    d_t jhat = phi_j d_t j + phi_h h_k' + phi_j' (j - h_k),

where phi_j, phi_h >= 0, h_k' > 0, and the extra term has phi_j' <= 0.
``blend_metric`` evaluates d_t jhat by this rule, so it needs d_t j only
(analytic where the grid has ``generator_dt``, else a finite difference of
the samples of j) and never differentiates through the partition.
A doubling search produces such a ``k``: with

    c2 = min over the annulus of h_1(t) / j(t, theta)

it suffices that ``sinh^2(sqrt(k) R1) >= k sinh^2(R1) / c2``; the pointwise
inequality ``h_k >= j`` is checked as well because it is what the Hessian
estimate actually consumes.  The partition uses the quintic smoothstep, so
``jhat`` is C^2, equals ``j`` for t <= R1 and ``h_k`` for t >= R2 bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._table import GridRows, read_table, write_table
from .errors import DomainError, UsageError, _count, _doubling_search, _grid, _interval, _uniform_angles

__all__ = [
    "PolarMetricGrid",
    "BlendResult",
    "hyperbolic_coefficient",
    "find_k_blend",
    "blend_metric",
    "partition_profile",
    "save_metric_csv",
    "load_metric_csv",
]


def _derivative_weights(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sparse Lagrange differentiation weights on w = min(5, n) nodes for each grid point.

    Returns (n, w) weights and (n, w) column indices, exact on polynomials of
    degree w - 1; works on nonuniform grids and falls back to one-sided
    stencils at the ends.  With the nodes z_m = t[col_m] - t_i (one of them
    0), the weight of node j is L_j'(0) =
    sum_{q != j} prod_{m != j, q} (-z_m) / prod_{m != j} (z_j - z_m).
    """
    n = t.size
    width = min(5, n)
    lo = np.clip(np.arange(n) - width // 2, 0, n - width)
    cols = lo[:, None] + np.arange(width)
    z = t[cols] - t[:, None]
    eye = np.eye(width, dtype=bool)
    denom = np.prod(np.where(eye, 1.0, z[:, :, None] - z[:, None, :]), axis=2)
    skip = eye[:, None, :] | eye[None, :, :]  # [j, q, m]: m is j or q
    terms = np.prod(np.where(skip, 1.0, -z[:, None, None, :]), axis=3)
    return np.sum(np.where(eye, 0.0, terms), axis=2) / denom, cols


def _d_dt(t: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Derivative of F (shape (nt, ...)) along the first axis on grid t."""
    _count(t.size, "t_grid size of a radial derivative without generator_dt", 3)
    weights, cols = _derivative_weights(t)
    return np.einsum("iw,iw...->i...", weights, F[cols])


@dataclass
class PolarMetricGrid:
    """Sampled angular metric coefficient j(t, theta) > 0 on a polar grid.

    ``theta_grid`` must be the uniform grid on [0, 2pi) so the samples wrap
    consistently.  ``generator_dt`` optionally supplies d_t j analytically
    (vectorized over meshgrid arrays); without it ``d_dt`` is a finite
    difference of the samples.
    """

    t_grid: np.ndarray
    theta_grid: np.ndarray
    j: np.ndarray
    generator_dt: object = field(default=None, kw_only=True)

    def __post_init__(self):
        self.t_grid = _grid(self.t_grid, "t_grid")
        self.theta_grid = np.asarray(self.theta_grid, dtype=float)
        self.j = np.asarray(self.j, dtype=float)
        m = self.theta_grid.size
        _count(m, "theta_grid size", 3)
        _uniform_angles(self.theta_grid)
        if self.j.shape != (self.t_grid.size, m):
            raise UsageError("j must have shape (len(t_grid), len(theta_grid))")
        if not np.all(np.isfinite(self.j)) or np.any(self.j <= 0.0):
            raise UsageError("metric coefficient j must be positive and finite")

    @classmethod
    def from_generator(cls, generator, t_grid, ntheta: int, generator_dt=None) -> "PolarMetricGrid":
        """The samples j = generator(t, theta) on ``t_grid`` and ``ntheta`` uniform angles.

        A generator that is not 2pi-periodic in theta at the last t is refused.
        """
        _count(ntheta, "ntheta", 3)
        t_grid = np.asarray(t_grid, dtype=float)
        theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
        tt, hh = np.meshgrid(t_grid, theta, indexing="ij")
        grid = cls(t_grid, theta, np.asarray(generator(tt, hh), dtype=float), generator_dt=generator_dt)
        tt = np.full_like(theta, grid.t_grid[-1])
        wrap = np.asarray(generator(tt, theta + 2.0 * np.pi))
        if not np.allclose(wrap, np.asarray(generator(tt, theta)), rtol=1e-10, atol=1e-12):
            raise UsageError("generator is not 2*pi-periodic in theta")
        return grid

    def d_dt(self) -> np.ndarray:
        """d_t j on the grid: ``generator_dt`` where it is set, else a finite difference of j.

        A ``generator_dt`` result that is not finite or not of the shape of
        j raises ``UsageError``: a scalar or a single column would be
        broadcast over the samples and could pass a false certificate.
        """
        if self.generator_dt is None:
            return _d_dt(self.t_grid, self.j)
        tt, hh = np.meshgrid(self.t_grid, self.theta_grid, indexing="ij")
        dj = np.asarray(self.generator_dt(tt, hh), dtype=float)
        if dj.shape != self.j.shape:
            raise UsageError(f"generator_dt must return an array of the shape of j {self.j.shape}, got {dj.shape}")
        if not np.all(np.isfinite(dj)):
            raise UsageError("generator_dt must return finite values")
        return dj


@dataclass
class BlendResult:
    """Blended metric with its positivity certificate."""

    k: float
    c2: float
    blended: PolarMetricGrid
    phi_j: np.ndarray
    phi_h: np.ndarray
    min_radial_derivative: float
    passed: bool

    def to_json_dict(self):
        return {
            "k": float(self.k),
            "c2": float(self.c2),
            "min_dt_jhat": float(self.min_radial_derivative),
            "pass": bool(self.passed),
        }


def hyperbolic_coefficient(k: float, t) -> np.ndarray:
    """Angular coefficient sinh^2(sqrt(k) t)/k of the curvature -k hyperbolic plane; k must be finite and > 0."""
    if not 0.0 < k < np.inf:  # written so that NaN fails
        raise DomainError("hyperbolic coefficient needs a finite k > 0")
    t = np.asarray(t, dtype=float)
    return np.sinh(np.sqrt(k) * t) ** 2 / k


def _annulus_mask(t_grid, R1, R2):
    _interval(R1, R2, "blend annulus (R1, R2)")
    if t_grid[0] > R1 + 1e-12 or t_grid[-1] < R2 - 1e-12:
        raise UsageError("t_grid must cover the transition annulus [R1, R2]")
    mask = (t_grid >= R1 - 1e-12) & (t_grid <= R2 + 1e-12)
    if not np.any(mask):
        raise UsageError("no radial samples inside the annulus [R1, R2]")
    return mask


def _c2(grid, mask):
    """Annulus minimum of h_1/j = sinh(t)^2 / j."""
    return float(np.min((np.sinh(grid.t_grid[mask]) ** 2)[:, None] / grid.j[mask]))


def find_k_blend(grid: PolarMetricGrid, R1: float, R2: float):
    """Doubling search for the hyperbolic scale that dominates j on the annulus.

    Returns (k, c2) with c2 the annulus minimum of h_1/j; k is the smallest
    doubling value up to 2^40 satisfying both the c2-inequality at R1 and the
    pointwise domination h_k >= j on every annulus sample.  Past 2^40 it
    raises ``SearchExhaustedError``.
    """
    mask = _annulus_mask(grid.t_grid, R1, R2)
    t_ann = grid.t_grid[mask]
    j_ann = grid.j[mask]
    c2 = _c2(grid, mask)
    sinh_R1_sq = np.sinh(R1) ** 2

    def failure(k):
        with np.errstate(over="ignore"):
            scale_ok = np.sinh(np.sqrt(k) * R1) ** 2 >= k * sinh_R1_sq / c2
            pointwise_ok = np.all(hyperbolic_coefficient(k, t_ann)[:, None] >= j_ann)
        if scale_ok and pointwise_ok:
            return None
        return f"no k <= {k:g} dominates j on the annulus (c2 = {c2:.6g})"

    return _doubling_search(failure), c2


def partition_profile(t, R1: float, R2: float):
    """Quintic-smoothstep partition: phi_j, phi_h = 1 - phi_j, and phi_j'.

    phi_j is 1 up to R1, 0 from R2 on, C^2 and nonincreasing in between.
    """
    _interval(R1, R2, "partition radii (R1, R2)")
    t = np.asarray(t, dtype=float)
    x = np.clip((t - R1) / (R2 - R1), 0.0, 1.0)
    smooth = x * x * x * (10.0 + x * (-15.0 + 6.0 * x))
    phi_j = 1.0 - smooth
    dsmooth = 30.0 * x * x * (1.0 - x) ** 2 / (R2 - R1)
    inside = (t > R1) & (t < R2)
    dphi_j = np.where(inside, -dsmooth, 0.0)
    return phi_j, 1.0 - phi_j, dphi_j


def blend_metric(grid: PolarMetricGrid, k: float, R1: float, R2: float) -> BlendResult:
    """Blend j with h_k across [R1, R2] and certify min d_t jhat > 0.

    d_t jhat is taken by the product rule of the module docstring from
    ``grid.d_dt()``, h_k and h_k'.  The blended grid holds the samples of
    jhat only, so its own ``d_dt`` is a finite difference.  An h_k or h_k'
    that overflows somewhere on the t grid raises ``DomainError``.  A failing
    certificate is returned with ``passed=False`` rather than raised;
    callers inspect the result.
    """
    mask = _annulus_mask(grid.t_grid, R1, R2)
    t = grid.t_grid
    phi_j, phi_h, dphi_j = partition_profile(t, R1, R2)
    with np.errstate(over="ignore"):
        h = hyperbolic_coefficient(k, t)
        dh = np.sinh(2.0 * np.sqrt(k) * t) / np.sqrt(k)
    bad = np.flatnonzero(~(np.isfinite(h) & np.isfinite(dh)))
    if bad.size:
        raise DomainError(f"the hyperbolic coefficient of k = {k:g} overflows at t = {t[bad[0]]:g}")
    jhat = phi_j[:, None] * grid.j + phi_h[:, None] * h[:, None]
    # phi_j' j - phi_j' h_k term by term, not phi_j' (j - h_k): this order keeps the bytes of certified minima
    djhat = (phi_j[:, None] * grid.d_dt() + (phi_h * dh)[:, None]
             + dphi_j[:, None] * grid.j - (dphi_j * h)[:, None])
    min_dt = float(np.min(djhat))
    return BlendResult(
        k=float(k),
        c2=_c2(grid, mask),
        blended=PolarMetricGrid(t, grid.theta_grid, jhat),
        phi_j=phi_j,
        phi_h=phi_h,
        min_radial_derivative=min_dt,
        passed=bool(min_dt > 0.0),
    )


def save_metric_csv(path, grid: PolarMetricGrid) -> None:
    """Write a polar metric grid as CSV ``t,theta,j`` (row-major by t).

    Every t and theta is formatted once, and only the value of j per row.
    """
    write_table(path, "t,theta,j", GridRows(grid.t_grid, grid.theta_grid, grid.j))


def load_metric_csv(path) -> PolarMetricGrid:
    """Load a polar metric grid from CSV with the exact header ``t,theta,j``.

    Every t and theta must be finite, and the rows, in any order, must hold
    each (t, theta) pair of the product of their t and theta values exactly
    once.
    """
    _, data, error = read_table(path, "metric grid", "t,theta,j")
    bad = np.flatnonzero(~np.isfinite(data[:, :2]).all(axis=1))
    if bad.size:
        raise error(bad[0], f"metric grid row has a non-finite (t, theta) = ({data[bad[0], 0]:g}, "
                            f"{data[bad[0], 1]:g})")
    t_grid = np.unique(data[:, 0])
    theta_grid = np.unique(data[:, 1])
    if data.shape[0] != t_grid.size * theta_grid.size:
        raise UsageError(f"{path}: metric grid rows do not form a full (t, theta) product")
    order = np.lexsort((data[:, 1], data[:, 0]))
    rows = data[order]
    pairs = rows[:, :2]
    product = np.column_stack([np.repeat(t_grid, theta_grid.size), np.tile(theta_grid, t_grid.size)])
    wrong = np.any(pairs != product, axis=1)
    if np.any(wrong):
        first = int(np.argmax(wrong))
        (t, theta), (want_t, want_theta) = pairs[first], product[first]
        raise error(int(order[first]), f"metric grid row (t, theta) = ({t:.17g}, {theta:.17g}) stands where the "
                                       f"(t, theta) product needs ({want_t:.17g}, {want_theta:.17g}): "
                                       "a pair is repeated or missing")
    return PolarMetricGrid(t_grid, theta_grid, rows[:, 2].reshape(t_grid.size, theta_grid.size))
