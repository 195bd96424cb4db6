"""Surgery on warping functions: prescribe a hyperbolic-type infinity.

Given a convex inner warp ``rho`` and a hyperbolic-type outer warp ``sigma``,
the construction produces a convex glued warp ``tau`` that equals ``rho`` on
an inner ball and a rescaling ``sigma_k`` beyond a larger ball, so the model
generated by ``tau`` keeps nonpositive curvature while acquiring the outer
geometry at infinity.  The raw three-piece function (rho | segment | sigma_k)
is convex but has corners; instead of an exact smooth convex approximation we
ramp the *derivative* linearly across bands of half-width ``delta`` around R1
and R2, which yields a C^{1,1} convex function with piecewise-constant
nonnegative second derivative - enough regularity for every downstream
numerical check, and certifiable.

The free plateau slope ``s`` is fixed by matching ``tau = sigma_k`` at the
outer band edge.  That mismatch is affine in ``s``,

    tau(R2+delta; s) - sigma_k(R2+delta) = mismatch(0) + (R2 - R1) s,
    mismatch(0) = rho(R1-delta) + delta (rho'(R1-delta) + sigma_k'(R2+delta)) - sigma_k(R2+delta),

so ``s = -mismatch(0)/(R2 - R1)``.  One rule decides feasibility: k is
feasible when this root lies in the monotone bracket
[rho'(R1-delta), sigma_k'(R2+delta)], up to a slack of
1e-12 max(1, |sigma_k(R2+delta)|).  At delta = 0 this is the secant inequality

    rho'(R1)  <=  (sigma_k(R2) - rho(R1)) / (R2 - R1)  <=  sigma_k'(R2).

``find_k`` returns the smallest doubling k that passes it, and ``GluedWarp``
raises on a k that fails it.  ``certify`` evaluates ``tau`` once on its grid
and reads from those samples the convexity margin, the slope margin, head
and tail mismatches and the curvatures; rho on the head and sigma_k on the
tail are evaluated again as independent references.

The same surgery applies per ray to a 2-dimensional metric given by angular
samples ``nu(., theta)``: one (k, R1, R2) is chosen so that every ray passes
the rule, the plateau slopes of all rays are solved at once, and the joint
certificate additionally reports a Lipschitz bound on s(theta).  The rays
share their band edges, sigma_k and so the certification grid:
``glue2d`` evaluates sigma_k(R2+delta) once, reuses each ray's
rho(R1-delta) from the search for k, and certifies the rays in fixed blocks
as (rays, points) arrays, each block with one evaluation of sigma_k on the
tail for the samples and one for the reference.  ``certify`` is the one-ray
case of that block certifier, and ``GluedWarp`` evaluation the one-ray case
of its sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError, InfeasibleError, UsageError, _doubling_search
from .warp import (
    CurvatureReport,
    ScaledWarp,
    SplineWarp,
    WarpingFunction,
    _curvature_reports,
    _is_convex,
    is_hyperbolic_type,
)

__all__ = [
    "GlueSpec",
    "GluedWarp",
    "GlueCertificate",
    "Glue2DResult",
    "choose_radii",
    "find_k",
    "build_tau",
    "certify",
    "default_certification_grid",
    "glue_pipeline",
    "glue2d",
    "rays_from_polar_samples",
]

CONVEXITY_TOL = 1e-9
SLOPE_TOL = 1e-12
CURVATURE_TOL = 1e-9
VALUE_TOL = 1e-10  # admissible tail mismatch |tau - sigma_k| of a certified glued warp
_RAY_CERT_POINTS = 2001  # certification grid size of each glued ray in ``glue2d``
_CERT_BLOCK = 8  # rays that ``glue2d`` samples and certifies together: keeps the (rays, points) arrays small


@dataclass
class GlueSpec:
    """Inputs of the gluing pipeline.

    The corner bands are fixed by the radii: their half-width is
    min(0.05, (R2-R1)/10) for the intermediate radii R1, R2 of ``choose_radii``.
    The scale is the smallest doubling k <= ``k_max`` that passes the module's
    feasibility rule.  A certified glued warp matches sigma_k on its tail to
    within ``VALUE_TOL``.
    """

    rho: WarpingFunction
    sigma: WarpingFunction
    R_bar: float
    R: float
    k_max: float = 2.0**40

    def __post_init__(self):
        if not (0.0 < self.R_bar < self.R):
            raise UsageError("glue spec needs 0 < R_bar < R")

    def validate(self) -> None:
        """Check that the outer warp is of hyperbolic type on the glue grid."""
        grid = np.geomspace(1e-2, max(2.0 * self.R, 4.0), 512)
        if not is_hyperbolic_type(self.sigma, grid).is_hyperbolic:
            raise UsageError("outer warp fails the hyperbolic-type check on the glue grid")


def _slope_bracket(rho_a, drho_a, sig_d, dsig_d, span, delta):
    """Tail mismatch at s = 0 and at both bracket ends, and the slack of the feasibility rule.

    A k is feasible iff f_lo <= slack and f_hi >= -slack; ``rho_a``, ``drho_a`` may be arrays over rays.
    """
    mismatch0 = rho_a + delta * (drho_a + dsig_d) - sig_d
    return mismatch0, mismatch0 + span * drho_a, mismatch0 + span * dsig_d, 1e-12 * max(1.0, abs(sig_d))


class GluedWarp(WarpingFunction):
    """Convex surgered warp: inner warp, derivative ramps, plateau, rescaled tail.

    The derivative profile is rho' on [0, R1-delta], a linear ramp to the
    plateau slope s on [R1-delta, R1+delta], constant s up to R2-delta, a
    linear ramp to sigma_k'(R2+delta), and sigma_k' beyond.  Values integrate
    this profile exactly (the ramp and plateau pieces are polynomials, the
    tail integral telescopes to sigma_k), anchored so tau == rho on the head.

    It owns its anchors rho(R1-delta) and sigma_k(R2+delta), evaluated once,
    and its scale ``k`` (that of a ``ScaledWarp`` sigma_k, else 1).  Unless
    ``s`` is given (``with_slope``), it solves the tail-matching plateau slope.
    """

    kind = "Glued"

    def __init__(self, rho: WarpingFunction, sigma_k: WarpingFunction, R1: float, R2: float,
                 delta: float, s: float | None = None):
        if not (0.0 < R1 < R2):
            raise UsageError("glued warp needs 0 < R1 < R2")
        if not (0.0 < delta < (R2 - R1) / 2.0):
            raise DomainError("band half-width must satisfy 0 < delta < (R2-R1)/2")
        R1, R2, delta = float(R1), float(R2), float(delta)
        rho_a, drho_a, _ = rho.evaluate(R1 - delta)
        sig_d, dsig_d, _ = sigma_k.evaluate(R2 + delta)
        if s is None:
            s = _plateau_slopes(rho_a, drho_a, sig_d, dsig_d, R2 - R1, delta)[0]
        self._place(rho, sigma_k, R1, R2, delta, (rho_a, drho_a, sig_d, dsig_d), s)

    def _place(self, rho, sigma_k, R1, R2, delta, anchors, s) -> "GluedWarp":
        """Set every field from valid radii, the anchors and the plateau slope ``s``.

        ``anchors`` are rho(R1-delta), rho'(R1-delta), sigma_k(R2+delta) and
        sigma_k'(R2+delta).  The constructor path that evaluates nothing:
        ``glue2d`` and ``with_slope`` reach it on ``GluedWarp.__new__(GluedWarp)``.
        """
        self.rho = rho
        self.sigma_k = sigma_k
        self.R1, self.R2, self.delta = float(R1), float(R2), float(delta)
        self.k = sigma_k.k if isinstance(sigma_k, ScaledWarp) else 1.0
        self.third_at_zero = rho.third_at_zero
        self._anchors = rho_a, drho_a, sig_d, dsig_d = tuple(float(v) for v in anchors)
        self.s = s = float(s)
        _, b, c, _ = self.edges
        delta = self.delta
        # the ramps and the plateau as (value, slope, curvature) at their left
        # edges a, b, c; the tail is sigma_k shifted to meet tau at d
        tau_b = rho_a + delta * (drho_a + s)
        tau_c = tau_b + s * (c - b)
        tau_d = tau_c + delta * (s + dsig_d)
        self._pieces = (
            (rho_a, drho_a, (s - drho_a) / (2.0 * delta)),
            (tau_b, s, 0.0),
            (tau_c, s, (dsig_d - s) / (2.0 * delta)),
        )
        self._tail = (sig_d, tau_d)
        return self

    @property
    def edges(self):
        d = self.delta
        return (self.R1 - d, self.R1 + d, self.R2 - d, self.R2 + d)

    def _eval(self, r):
        return tuple(v[0] for v in _glued_samples([self], r))

    def with_slope(self, s: float) -> "GluedWarp":
        """Copy with a replaced plateau slope (for adversarial checks); the anchors are reused."""
        return GluedWarp.__new__(GluedWarp)._place(self.rho, self.sigma_k, self.R1, self.R2, self.delta,
                                                   self._anchors, s)


def _plateau_slopes(rho_a, lo, sig_d, hi, span, delta):
    """Roots of the affine tail mismatches in their monotone brackets [lo, hi] = [rho'(a), sigma_k'(d)].

    ``rho_a`` and ``lo`` may be arrays over rays that share sigma_k; the
    slopes come back as an array of their shape (at least 1d).
    """
    rho_a, lo = np.atleast_1d(rho_a, lo)
    mismatch0, f_lo, f_hi, slack = _slope_bracket(rho_a, lo, sig_d, hi, span, delta)
    outside = (f_lo > slack) | (f_hi < -slack)
    if np.any(outside):
        j = int(np.argmax(outside))
        raise InfeasibleError(f"plateau slope root lies outside the monotone bracket (tail mismatch "
                              f"{f_lo[j]:.3g} at rho'(R1-delta), {f_hi[j]:.3g} at sigma_k'(R2+delta))")
    s = np.maximum(np.minimum(-mismatch0 / span, hi), lo)
    # defence in depth: the derivative profile must be monotone (s >= lo by the clip)
    if np.any(hi < s - 1e-12 * max(1.0, abs(hi))):
        raise ConstructionError("glued derivative profile is not monotone")
    return s


def _glued_samples(glued, r):
    """(tau, tau', tau'') of glued warps sharing (R1, R2, delta, sigma_k), each of shape (len(glued), *r.shape).

    Each warp's head comes from its own rho.  On the bands and the plateau,
    [R1-delta, R2+delta), all warps are computed at once: each point reads
    (value, slope, curvature) at the left edge of its piece from the
    (warps, 3 pieces, 3) table of the warps.  The shared tail is one
    evaluation of sigma_k.  ``GluedWarp._eval`` is the one-warp case.
    """
    first = glued[0]
    edges = first.edges
    flat = r.reshape(-1)
    # writes go through row views and integer indices: o[:, mask] is several times slower
    out = tuple(np.empty((len(glued), flat.size)) for _ in range(3))
    head = flat < edges[0]
    if np.any(head):
        r_head = flat[head]
        for row, gw in enumerate(glued):
            for o, v in zip(out, gw.rho.evaluate(r_head)):
                o[row][head] = v
    band = np.flatnonzero((flat >= edges[0]) & (flat < edges[3]))
    r_band = flat[band]
    piece = (r_band >= edges[1]).astype(np.intp) + (r_band >= edges[2])  # left ramp, plateau, right ramp
    t = r_band - np.array(edges[:3])[piece]
    value, slope, curv = np.moveaxis(np.array([gw._pieces for gw in glued]), 2, 0)[:, :, piece]
    out[0][:, band] = value + slope * t + 0.5 * curv * t * t
    out[1][:, band] = slope + curv * t
    out[2][:, band] = curv
    tail = np.flatnonzero(flat >= edges[3])
    if tail.size:
        sig, dsig, ddsig = first.sigma_k.evaluate(flat[tail])
        tau_d = np.array([gw._tail[1] for gw in glued])[:, None]
        out[0][:, tail] = tau_d + (sig - first._tail[0])
        out[1][:, tail] = dsig
        out[2][:, tail] = ddsig
    return tuple(o.reshape((len(glued),) + r.shape) for o in out)


@dataclass
class GlueCertificate:
    """Machine-checked evidence that a glued warp satisfies its contract."""

    min_second_difference: float
    min_slope_minus_one: float
    head_mismatch: float
    tail_mismatch: float
    curvature: CurvatureReport
    passed: bool

    def to_json_dict(self, gw: GluedWarp | None = None):
        doc = {
            "pass": bool(self.passed),
            "min_second_difference": float(self.min_second_difference),
            "min_slope_minus_one": float(self.min_slope_minus_one),
            "head_mismatch": float(self.head_mismatch),
            "tail_mismatch": float(self.tail_mismatch),
            "max_sec_rad": float(np.max(self.curvature.sec_rad)),
            "max_sec_tg": float(np.max(self.curvature.sec_tg)),
            "curvature_nonpositive": bool(self.curvature.is_nonpositive),
            "value_tol": VALUE_TOL,
        }
        if gw is not None:
            doc.update({"R1": gw.R1, "R2": gw.R2, "delta": gw.delta, "k": gw.k, "s": gw.s})
        return doc


def choose_radii(spec: GlueSpec):
    """Intermediate radii at the interior thirds of (R_bar, R)."""
    step = (spec.R - spec.R_bar) / 3.0
    return spec.R_bar + step, spec.R_bar + 2.0 * step


def _secant_search(rays, sigma, R1, R2, delta, k_max):
    """Smallest doubling scale k at which every ray passes ``_slope_bracket`` with a nonempty bracket.

    Those are the checks of ``GluedWarp``, so ``build_tau`` accepts the k
    found.  The rays are evaluated once at R1-delta, sigma_k once per k at
    R2+delta.  Returns k and the arrays rho(R1-delta), rho'(R1-delta) over the rays.
    """
    a, d, span = R1 - delta, R2 + delta, R2 - R1
    rho_a, lo = np.array([ray.evaluate(a)[:2] for ray in rays]).T

    def failure(k):
        sig_d, hi, _ = ScaledWarp(sigma, k).evaluate(d)
        _, f_lo, f_hi, slack = _slope_bracket(rho_a, lo, sig_d, hi, span, delta)
        if np.all((f_lo <= slack) & (f_hi >= -slack) & (lo <= hi)):
            return None
        j = int(np.argmax(np.maximum(f_lo, -f_hi)))
        return (f"no k <= {k_max:g} puts the plateau slope of every ray in its monotone bracket; "
                f"worst ray {j} at k={k:g}: tail mismatch {f_lo[j]:.6g} at rho'(R1-delta) = {lo[j]:.6g}, "
                f"{f_hi[j]:.6g} at sigma_k'(R2+delta) = {hi:.6g}")

    return _doubling_search(k_max, failure), rho_a, lo


def find_k(rho: WarpingFunction, sigma: WarpingFunction, R1: float, R2: float,
           delta: float = 0.0, k_max: float = 2.0**40) -> float:
    """Smallest doubling scale k whose plateau slope lies in its monotone bracket.

    Scans k = 1, 2, 4, ... <= k_max with the module's feasibility rule (the
    secant inequality at (R1, R2) when delta = 0); past the cap it raises
    ``SearchExhaustedError`` with the two bracket-end mismatches at the last k.
    """
    if not (0.0 < R1 < R2):
        raise UsageError("find_k needs 0 < R1 < R2")
    if delta < 0.0 or 2.0 * delta >= R2 - R1:
        raise DomainError("find_k needs 0 <= delta < (R2-R1)/2")
    return _secant_search([rho], sigma, R1, R2, delta, k_max)[0]


def build_tau(rho: WarpingFunction, sigma_k: WarpingFunction, R1: float, R2: float,
              delta: float) -> GluedWarp:
    """The glued warp whose plateau slope ``GluedWarp`` solves to match the tail.

    A k that fails the module's feasibility rule raises ``InfeasibleError``;
    every k that ``find_k`` returns passes it.  ``certify`` then holds the
    tail mismatch to ``VALUE_TOL``.
    """
    return GluedWarp(rho, sigma_k, R1, R2, delta)


def default_certification_grid(gw: GluedWarp, n: int = 4001) -> np.ndarray:
    """Uniform grid on [0, R2+4*delta] with the band edges inserted."""
    top = gw.R2 + 4.0 * gw.delta
    grid = np.linspace(0.0, top, max(n, 2000))
    return np.unique(np.concatenate([grid, np.asarray(gw.edges)]))


def certify(gw: GluedWarp, grid) -> GlueCertificate:
    """Measure the contract margins of a glued warp from one evaluation on a grid.

    The one-warp case of the row-wise certifier that ``glue2d`` runs on its
    blocks of rays.  The curvature report is read from those samples at the
    positive radii; rho is evaluated again on the head and sigma_k on the
    tail, as independent references for the head and tail mismatches.
    ``min_second_difference`` is the undivided midpoint convexity defect
    min_i [ (h1 tau_{i-1} + h0 tau_{i+1})/(h0+h1) - tau_i ]  (>= 0 for convex
    tau); keeping it undivided leaves roundoff at the 1e-14 level, far below
    the 1e-9 acceptance threshold, while the curvature report certifies the
    sign of tau'' itself from the analytic profile.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2000:
        raise UsageError("certification grid needs at least 2000 points")
    if np.any(np.diff(grid) <= 0.0):
        raise UsageError("certification grid must be strictly increasing")
    if grid[0] > 1e-12 or grid[-1] < gw.R2 + 4.0 * gw.delta - 1e-9:
        raise UsageError("certification grid must span [0, R2 + 4*delta]")
    for edge in gw.edges:
        if np.min(np.abs(grid - edge)) > 1e-9:
            raise UsageError("certification grid must include the band edges")
    return _certify_rows([gw], grid, [v[None] for v in gw.evaluate(grid)])[0]


def _certify_rows(glued, grid, samples) -> list[GlueCertificate]:
    """``certify`` of glued warps that share (R1, R2, delta, sigma_k), from their samples on one grid.

    ``samples`` are (tau, tau', tau'') of shape (len(glued), grid.size) on a
    grid that ``certify`` accepts; every margin is read along axis 1.  Each
    warp's rho is evaluated again on the head, the shared sigma_k once on the
    tail.  The grid is increasing, so the head, the tail and the positive
    radii are slices of it.
    """
    tau, dtau, ddtau = samples
    first = glued[0]
    a, _, _, d = first.edges
    n_head = int(np.searchsorted(grid, a, side="right"))  # grid[:n_head] <= a
    tail = int(np.searchsorted(grid, d))  # grid[tail:] >= d
    pos = int(np.searchsorted(grid, 0.0, side="right"))  # grid[pos:] > 0

    h0 = np.diff(grid[:-1])
    h1 = np.diff(grid[1:])
    min_second = np.min((h1 * tau[:, :-2] + h0 * tau[:, 2:]) / (h0 + h1) - tau[:, 1:-1], axis=1)
    min_slope = np.min(dtau, axis=1) - 1.0

    head_mismatch = np.zeros(len(glued))
    if n_head:
        rho_vals = np.array([gw.rho.evaluate(grid[:n_head])[0] for gw in glued])
        head_mismatch = np.max(np.abs(tau[:, :n_head] - rho_vals), axis=1)
    tail_mismatch = np.zeros(len(glued))
    if tail < grid.size:
        sig_vals = first.sigma_k.evaluate(grid[tail:])[0]
        tail_mismatch = np.max(np.abs(tau[:, tail:] - sig_vals), axis=1)

    reports = _curvature_reports(first, grid[pos:], (tau[:, pos:], dtau[:, pos:], ddtau[:, pos:]))
    margins_ok = ((min_second >= -CONVEXITY_TOL) & (min_slope >= -SLOPE_TOL)
                  & (head_mismatch == 0.0) & (tail_mismatch <= VALUE_TOL))
    return [
        GlueCertificate(
            min_second_difference=float(second),
            min_slope_minus_one=float(slope),
            head_mismatch=float(head),
            tail_mismatch=float(tail_gap),
            curvature=report,
            passed=bool(ok) and report.is_nonpositive and report.worst_violation <= CURVATURE_TOL,
        )
        for second, slope, head, tail_gap, report, ok in zip(
            min_second, min_slope, head_mismatch, tail_mismatch, reports, margins_ok)
    ]


def _glue_plan(spec: GlueSpec):
    """Validate ``spec`` and return the intermediate radii and band (R1, R2, delta).

    The band half-width is min(0.05, (R2-R1)/10), well inside the (R2-R1)/2
    that ``build_tau`` needs.
    """
    spec.validate()
    R1, R2 = choose_radii(spec)
    return R1, R2, min(0.05, (R2 - R1) / 10.0)


def glue_pipeline(spec: GlueSpec):
    """Full pipeline: validate, choose radii, search k, build tau, certify on the default grid."""
    R1, R2, delta = _glue_plan(spec)
    k = find_k(spec.rho, spec.sigma, R1, R2, delta, spec.k_max)
    gw = build_tau(spec.rho, ScaledWarp(spec.sigma, k), R1, R2, delta)
    return gw, certify(gw, default_certification_grid(gw))


# ---------------------------------------------------------------------------
# per-ray surgery for 2d metrics dr^2 + nu(r, theta)^2 dtheta^2
# ---------------------------------------------------------------------------


@dataclass
class Glue2DResult:
    """Per-ray glued warps with a joint certificate."""

    k: float
    R1: float
    R2: float
    delta: float
    theta_grid: np.ndarray
    glued: list
    certificates: list
    slopes: np.ndarray
    lip: float
    passed: bool


def rays_from_polar_samples(t_grid, nu, dnu=None) -> list[SplineWarp]:
    """Per-ray spline warps from angular samples nu of shape (nt, ntheta).

    ``t_grid`` must start at 0 so the glued heads stay evaluable down to the
    pole.  Missing radial derivatives are taken from a C^2 value spline.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if t_grid.ndim != 1 or nu.ndim != 2 or nu.shape[0] != t_grid.size:
        raise UsageError("need t_grid (nt,) and nu (nt, ntheta)")
    if t_grid[0] != 0.0:
        raise UsageError("ray samples must start at t = 0 (the glued head reaches the pole)")
    if dnu is None:
        from scipy.interpolate import CubicSpline

        dnu = np.empty_like(nu)
        for j in range(nu.shape[1]):
            dnu[:, j] = CubicSpline(t_grid, nu[:, j])(t_grid, 1)
    else:
        dnu = np.asarray(dnu, dtype=float)
        if dnu.shape != nu.shape:
            raise UsageError("dnu must match nu")
    return [SplineWarp(t_grid, nu[:, j], dnu[:, j]) for j in range(nu.shape[1])]


def glue2d(rays, theta_grid, sigma: WarpingFunction, R_bar: float, R: float, *,
           k_max: float = 2.0**40) -> Glue2DResult:
    """Glue a hyperbolic-type infinity onto a 2d metric given per ray.

    Each ray (the angular sample nu(., theta_j), a warping function of the
    radius) must be convex on the checking window: the single curvature of
    the 2d metric is -nu_rr/nu, so convexity is the nonpositive-curvature
    precondition.  A single (k, R1, R2) is chosen so that every ray passes
    the feasibility rule; the plateau slopes of all rays are then solved at
    once from the rho(R1-delta), rho'(R1-delta) of that search and one
    evaluation of sigma_k(R2+delta).  The band half-width is that of
    ``glue_pipeline``, min(0.05, (R2-R1)/10), and each glued ray must match
    sigma_k on its tail to within ``VALUE_TOL``.  The rays share one
    certification grid, coarser than the default of ``glue_pipeline``, and
    are certified in blocks of a fixed number of rays; each certificate
    equals that of ``certify`` on the ray's default grid of that size.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    rays = list(rays)
    if theta_grid.ndim != 1 or len(rays) != theta_grid.size or not rays:
        raise UsageError("need one ray per theta sample")
    R1, R2, band = _glue_plan(GlueSpec(rays[0], sigma, R_bar, R, k_max=k_max))

    check = np.linspace(band * 1e-3, R1 + 2.0 * band, 256)
    for j, ray in enumerate(rays):
        if not _is_convex(ray.evaluate(check)[2]):
            raise UsageError(
                f"ray {j} (theta={theta_grid[j]:.6g}) is concave on the checking window; "
                "the 2d metric is not nonpositively curved there"
            )

    k, rho_a, drho_a = _secant_search(rays, sigma, R1, R2, band, k_max)
    sigma_k = ScaledWarp(sigma, k)
    sig_d, dsig_d, _ = sigma_k.evaluate(R2 + band)
    slopes = _plateau_slopes(rho_a, drho_a, sig_d, dsig_d, R2 - R1, band)
    glued = [GluedWarp.__new__(GluedWarp)._place(ray, sigma_k, R1, R2, band, (ra, dra, sig_d, dsig_d), s)
             for ray, ra, dra, s in zip(rays, rho_a, drho_a, slopes)]
    grid = default_certification_grid(glued[0], _RAY_CERT_POINTS)
    certs = []
    for lo in range(0, len(glued), _CERT_BLOCK):
        block = glued[lo:lo + _CERT_BLOCK]
        certs += _certify_rows(block, grid, _glued_samples(block, grid))
    dtheta = 2.0 * np.pi / theta_grid.size
    steps = np.abs(np.diff(np.concatenate([slopes, slopes[:1]])))
    lip = float(np.max(steps) / dtheta) if slopes.size > 1 else 0.0
    return Glue2DResult(
        k=k,
        R1=R1,
        R2=R2,
        delta=band,
        theta_grid=theta_grid,
        glued=glued,
        certificates=certs,
        slopes=slopes,
        lip=lip,
        passed=all(c.passed for c in certs),
    )
