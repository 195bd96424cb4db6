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
and tail mismatches and the curvatures.

The same surgery applies per ray to a 2-dimensional metric given by angular
samples ``nu(., theta)``: one (k, R1, R2) is chosen so that every ray passes
the rule, the plateau slope is solved per ray, and the joint certificate
additionally reports a Lipschitz bound on s(theta).
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
    _curvature_report,
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
        self.rho = rho
        self.sigma_k = sigma_k
        self.R1 = float(R1)
        self.R2 = float(R2)
        self.delta = float(delta)
        self.k = sigma_k.k if isinstance(sigma_k, ScaledWarp) else 1.0
        self.third_at_zero = rho.third_at_zero
        a, b, c, d = self.edges
        rho_a, drho_a, _ = (float(v) for v in rho.evaluate(a))
        sig_d, dsig_d, _ = (float(v) for v in sigma_k.evaluate(d))
        if s is None:
            s = self._plateau_slope(rho_a, drho_a, sig_d, dsig_d)
        self.s = float(s)
        # the ramps and the plateau as (value, slope, curvature) at their left
        # edges a, b, c; the tail is sigma_k shifted to meet tau at d
        tau_b = rho_a + self.delta * (drho_a + self.s)
        tau_c = tau_b + self.s * (c - b)
        tau_d = tau_c + self.delta * (self.s + dsig_d)
        self._pieces = (
            (rho_a, drho_a, (self.s - drho_a) / (2.0 * self.delta)),
            (tau_b, self.s, 0.0),
            (tau_c, self.s, (dsig_d - self.s) / (2.0 * self.delta)),
        )
        self._tail = (sig_d, tau_d)

    def _plateau_slope(self, rho_a, lo, sig_d, hi):
        """Root of the affine tail mismatch in the monotone bracket [lo, hi] = [rho'(a), sigma_k'(d)]."""
        span = self.R2 - self.R1
        mismatch0, f_lo, f_hi, slack = _slope_bracket(rho_a, lo, sig_d, hi, span, self.delta)
        if f_lo > slack or f_hi < -slack:
            raise InfeasibleError(f"plateau slope root lies outside the monotone bracket (tail mismatch "
                                  f"{f_lo:.3g} at rho'(R1-delta), {f_hi:.3g} at sigma_k'(R2+delta))")
        s = max(min(-mismatch0 / span, hi), lo)
        # defence in depth: the derivative profile must be monotone (s >= lo by the clip)
        if hi < s - 1e-12 * max(1.0, abs(hi)):
            raise ConstructionError("glued derivative profile is not monotone")
        return s

    @property
    def edges(self):
        d = self.delta
        return (self.R1 - d, self.R1 + d, self.R2 - d, self.R2 + d)

    def _eval(self, r):
        edges = self.edges
        s_out = np.empty_like(r)
        d1_out = np.empty_like(r)
        d2_out = np.empty_like(r)

        head = r < edges[0]
        if np.any(head):
            s_out[head], d1_out[head], d2_out[head] = self.rho.evaluate(r[head])
        for left, right, (value, slope, curv) in zip(edges, edges[1:], self._pieces):
            on = (r >= left) & (r < right)
            if np.any(on):
                t = r[on] - left
                s_out[on] = value + slope * t + 0.5 * curv * t * t
                d1_out[on] = slope + curv * t
                d2_out[on] = curv
        tail = r >= edges[3]
        if np.any(tail):
            sig_d, tau_d = self._tail
            sv, dv, ddv = self.sigma_k.evaluate(r[tail])
            s_out[tail] = tau_d + (sv - sig_d)
            d1_out[tail] = dv
            d2_out[tail] = ddv
        return s_out, d1_out, d2_out

    def with_slope(self, s: float) -> "GluedWarp":
        """Copy with a replaced plateau slope (for adversarial checks)."""
        return GluedWarp(self.rho, self.sigma_k, self.R1, self.R2, self.delta, s)


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
    found.  The rays are evaluated once at R1-delta, sigma_k once per k at R2+delta.
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

    return _doubling_search(k_max, failure)


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
    return _secant_search([rho], sigma, R1, R2, delta, k_max)


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

    The curvature report is read from those samples at the positive radii.
    ``min_second_difference`` is the undivided midpoint convexity defect
    min_i [ (h1 tau_{i-1} + h0 tau_{i+1})/(h0+h1) - tau_i ]  (>= 0 for convex
    tau); keeping it undivided leaves roundoff at the 1e-14 level, far below
    the 1e-9 acceptance threshold, while the curvature report certifies the
    sign of tau'' itself from the analytic profile.
    """
    grid = np.asarray(grid, dtype=float)
    a, b, c, d = gw.edges
    if grid.ndim != 1 or grid.size < 2000:
        raise UsageError("certification grid needs at least 2000 points")
    if np.any(np.diff(grid) <= 0.0):
        raise UsageError("certification grid must be strictly increasing")
    if grid[0] > 1e-12 or grid[-1] < gw.R2 + 4.0 * gw.delta - 1e-9:
        raise UsageError("certification grid must span [0, R2 + 4*delta]")
    for edge in (a, b, c, d):
        if np.min(np.abs(grid - edge)) > 1e-9:
            raise UsageError("certification grid must include the band edges")

    tau, dtau, ddtau = gw.evaluate(grid)

    h0 = np.diff(grid[:-1])
    h1 = np.diff(grid[1:])
    mid = (h1 * tau[:-2] + h0 * tau[2:]) / (h0 + h1) - tau[1:-1]
    min_second = float(np.min(mid))

    min_slope = float(np.min(dtau) - 1.0)

    head_pts = grid <= a
    rho_vals = gw.rho.evaluate(grid[head_pts])[0]
    head_mismatch = float(np.max(np.abs(tau[head_pts] - rho_vals))) if np.any(head_pts) else 0.0

    tail_pts = grid >= d
    sig_vals = gw.sigma_k.evaluate(grid[tail_pts])[0]
    tail_mismatch = float(np.max(np.abs(tau[tail_pts] - sig_vals))) if np.any(tail_pts) else 0.0

    pos = grid > 0.0
    report = _curvature_report(gw, grid[pos], (tau[pos], dtau[pos], ddtau[pos]))

    passed = (
        min_second >= -CONVEXITY_TOL
        and min_slope >= -SLOPE_TOL
        and head_mismatch == 0.0
        and tail_mismatch <= VALUE_TOL
        and report.is_nonpositive
        and report.worst_violation <= CURVATURE_TOL
    )
    return GlueCertificate(
        min_second_difference=min_second,
        min_slope_minus_one=min_slope,
        head_mismatch=head_mismatch,
        tail_mismatch=tail_mismatch,
        curvature=report,
        passed=passed,
    )


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
    the feasibility rule; the plateau slope is solved ray by ray.  The
    band half-width is that of ``glue_pipeline``, min(0.05, (R2-R1)/10), and
    each glued ray must match sigma_k on its tail to within ``VALUE_TOL``; it
    is certified on a coarser default grid than ``glue_pipeline`` uses.
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

    k = _secant_search(rays, sigma, R1, R2, band, k_max)
    sigma_k = ScaledWarp(sigma, k)
    glued = [build_tau(ray, sigma_k, R1, R2, band) for ray in rays]
    certs = [certify(gw, default_certification_grid(gw, _RAY_CERT_POINTS)) for gw in glued]
    slopes = np.array([gw.s for gw in glued])
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
