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
raises on a k that fails it.

Convexity is the whole contract: with tau(0) = 0 and tau'(0) = 1, tau'' >= 0
alone gives nonpositive curvature (Greene & Wu, LNM 699, 1979).  So
``glue_pipeline`` and ``glue2d`` prove the certificate of a glued warp from a
few scalars, without sampling, when rho and sigma_k are of the package's warp
types (``warp._convexity_bound``): tau'' is rho'' on the head, bounded below
by the Bernstein coefficients of a spline (the convex-hull property) and by 0
for the analytic types; the two ramp curvatures and 0 on the bands and the
plateau; and sigma_k'' on the tail, bounded the same way.  tau' is smallest
at the pole, where it is rho'(0), as long as tau'' >= 0 (a head bound that is
negative within the sign tolerance is charged to the slope margin); the head
mismatch is 0 by construction; and
the tail mismatch is the one offset |tau(R2+delta) - sigma_k(R2+delta)|,
held to ``VALUE_TOL`` plus the rounding bound 4 eps |sigma_k(R2+delta)| of
two rounded values of that size, which reaches 1e5 and more at large k.

Any other warp, a subclass of the package's types included, is certified
from samples, and ``certify`` is that sampled audit for any glued warp: it
evaluates ``tau`` once on its grid and reads from those samples the
convexity margin, the slope margin, head and tail mismatches and the
curvatures; the values of rho on the head and of sigma_k on the tail are
evaluated again as independent references.  Its tail mismatch passes up to
``VALUE_TOL`` plus 4 eps max|sigma_k| of the tail samples.

The same surgery applies per ray to a 2-dimensional metric given by angular
samples ``nu(., theta)``: one (k, R1, R2) is chosen so that every ray passes
the rule, the plateau slopes of all rays are solved at once, and the joint
certificate additionally reports a Lipschitz bound on s(theta).  The rays
share their band edges and sigma_k.  ``glue2d`` proves a ray of the
package's types convex on its checking window from its coefficients and
evaluates it only at the window's ends and at R1-delta, for the anchors
rho(R1-delta), rho'(R1-delta) of the search for k.  Any other ray is
sampled on the 256-point window with R1-delta appended, and its glued warp
is audited as by ``certify``, one ray at a time.  Where glue samples many
rays at once, it evaluates them as one table: spline rays on one knot
array as columns of their stacked Bernstein coefficients, odd polynomials
with equal coefficient counts by one Horner pass over their coefficient
table, and any other list ray by ray.  Each row equals the ray's own
evaluation byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConstructionError, DomainError, InfeasibleError, SearchExhaustedError, UsageError,
                     _count, _doubling_search, _grid, _interval, _uniform_angles)
from .warp import (
    CurvatureReport,
    ScaledWarp,
    SplineWarp,
    WarpingFunction,
    _build_splines,
    _convex_rows,
    _convexity_bound,
    _convexity_bounds,
    _curvature_report,
    _ray_rows,
    is_hyperbolic_type,
)

__all__ = [
    "GlueSpec",
    "GluedWarp",
    "GlueCertificate",
    "Glue2DResult",
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
VALUE_TOL = 1e-10  # admissible tail mismatch |tau - sigma_k| of a certified glued warp, plus the rounding bound
_TAIL_ROUNDING = 4.0 * np.finfo(float).eps  # rounding bound of the tail mismatch per unit of max|sigma_k| there
_RAY_CERT_POINTS = 2001  # certification grid size of each glued ray in ``glue2d``


@dataclass
class GlueSpec:
    """Inputs of the gluing pipeline.

    The corner bands are fixed by the radii: their half-width is
    min(0.05, (R2-R1)/10) for the intermediate radii R1, R2 at the interior
    thirds of (R_bar, R).
    The scale is the smallest doubling k that passes the module's feasibility
    rule; ``find_k`` searches k = 1, 2, 4, ... up to the fixed cap 2^40 and
    stops early where sigma_k(R2+delta) overflows.  A certified glued warp
    matches sigma_k on its tail to within ``VALUE_TOL`` plus the rounding
    bound of the module docstring.
    """

    rho: WarpingFunction
    sigma: WarpingFunction
    R_bar: float
    R: float

    def __post_init__(self):
        _interval(self.R_bar, self.R, "glue spec radii (R_bar, R)")

    def validate(self) -> None:
        """Check that the outer warp is of hyperbolic type on the glue grid."""
        grid = np.geomspace(1e-2, max(2.0 * self.R, 4.0), 512)
        if not is_hyperbolic_type(self.sigma, grid).is_hyperbolic:
            raise UsageError("outer warp fails the hyperbolic-type check on the glue grid")


def _slope_bracket(rho_a, drho_a, sig_d, dsig_d, span, delta):
    """Tail mismatch at s = 0 and at both bracket ends, and the slack of the feasibility rule.

    A k is feasible iff f_lo <= slack and f_hi >= -slack; ``rho_a``, ``drho_a`` may be arrays over rays.
    The ends are evaluated with overflow ignored: a finite sigma_k'(R2+delta)
    times R2 - R1 can exceed the float range, and an infinite f_hi is a
    legitimate, very positive mismatch.
    """
    with np.errstate(over="ignore"):
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
        _interval(R1, R2, "glued warp radii (R1, R2)")
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
        A slope that is not finite raises ``DomainError``, as a bad band
        half-width does.
        """
        s = float(s)
        if not math.isfinite(s):
            raise DomainError(f"plateau slope must be finite, got {s}")
        self.rho = rho
        self.sigma_k = sigma_k
        self.R1, self.R2, self.delta = float(R1), float(R2), float(delta)
        self.k = sigma_k.k if isinstance(sigma_k, ScaledWarp) else 1.0
        self.third_at_zero = rho.third_at_zero
        self._anchors = rho_a, drho_a, sig_d, dsig_d = tuple(float(v) for v in anchors)
        self.s = s
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
        edges = self.edges
        flat = r.reshape(-1)
        # writes go through integer indices: o[mask] is several times slower
        out = tuple(np.empty(flat.size) for _ in range(3))
        head = np.flatnonzero(flat < edges[0])
        if head.size:
            for o, v in zip(out, self.rho.evaluate(flat[head])):
                o[head] = v
        band = np.flatnonzero((flat >= edges[0]) & (flat < edges[3]))
        r_band = flat[band]
        piece = (r_band >= edges[1]).astype(np.intp) + (r_band >= edges[2])  # left ramp, plateau, right ramp
        t = r_band - np.array(edges[:3])[piece]  # from the left edge of the piece, where _pieces holds its data
        value, slope, curv = np.array(self._pieces).T[:, piece]
        out[0][band] = value + slope * t + 0.5 * curv * t * t
        out[1][band] = slope + curv * t
        out[2][band] = curv
        tail = np.flatnonzero(flat >= edges[3])
        if tail.size:
            sig, dsig, ddsig = self.sigma_k.evaluate(flat[tail])
            sig_d, tau_d = self._tail
            out[0][tail] = tau_d + (sig - sig_d)
            out[1][tail] = dsig
            out[2][tail] = ddsig
        return tuple(o.reshape(r.shape) for o in out)

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


@dataclass
class GlueCertificate:
    """Machine-checked evidence that a glued warp satisfies its contract.

    A certificate proved from structure (``glue_pipeline`` and ``glue2d`` on
    the package's warp types, see the module docstring) reads:

    - ``min_second_difference``: the proved lower bound of tau'' (at most 0,
      the curvature of the plateau);
    - ``min_slope_minus_one``: rho'(0) - 1, which is min tau' - 1 once
      tau'' >= 0, less (R1-delta) |m| where the bound m of rho'' on the head
      is negative but within the sign tolerance;
    - ``head_mismatch``: 0, by construction;
    - ``tail_mismatch``: |tau(R2+delta) - sigma_k(R2+delta)|, the one offset
      of tau from sigma_k on the tail;
    - ``curvature``: a report without samples (see ``CurvatureReport``)
      whose verdict is tau'' >= 0 and tau'(0) >= 1.

    A sampled certificate (``certify``) reads these margins from samples of
    tau on its grid, ``min_second_difference`` as the undivided second
    difference, and holds the sampled curvatures where tau > 0.
    """

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
            "max_sec_rad": None if self.curvature.sec_rad is None else float(np.max(self.curvature.sec_rad)),
            "max_sec_tg": None if self.curvature.sec_tg is None else float(np.max(self.curvature.sec_tg)),
            "curvature_nonpositive": bool(self.curvature.is_nonpositive),
            "value_tol": VALUE_TOL,
        }
        if gw is not None:
            doc.update({"R1": gw.R1, "R2": gw.R2, "delta": gw.delta, "k": gw.k, "s": gw.s})
        return doc


def _secant_search(rho_a, lo, sigma, R1, R2, delta):
    """Smallest doubling scale k at which every ray passes ``_slope_bracket`` with a nonempty bracket.

    Those are the checks of ``GluedWarp``, so ``build_tau`` accepts the k
    found.  ``rho_a`` and ``lo`` are the rays' rho(R1-delta) and
    rho'(R1-delta), scalars or arrays over the rays, which the caller has
    evaluated; sigma_k is evaluated once per k at R2+delta.  The search
    ends at the first k where sigma_k(R2+delta) or sigma_k'(R2+delta)
    overflows: both grow with k, and from there on every bracket test
    compares NaN.  It then raises ``SearchExhaustedError`` naming the worst
    ray at the last finite k.
    """
    d, span = R2 + delta, R2 - R1
    rho_a, lo = np.atleast_1d(rho_a, lo)
    worst = "no smaller k was tried"  # the report of the last k with finite sigma_k(R2+delta)

    def failure(k):
        nonlocal worst
        with np.errstate(over="ignore"):
            sig_d, hi, _ = ScaledWarp(sigma, k).evaluate(d)
        if not (np.isfinite(sig_d) and np.isfinite(hi)):
            raise SearchExhaustedError(f"sigma_k(R2+delta) overflows at k={k:g} before the plateau slope "
                                       f"of every ray lies in its monotone bracket; {worst}")
        _, f_lo, f_hi, slack = _slope_bracket(rho_a, lo, sig_d, hi, span, delta)
        if np.all((f_lo <= slack) & (f_hi >= -slack) & (lo <= hi)):
            return None
        bad = np.maximum(f_lo, -f_hi)
        # where sigma_k swamps the rays' terms their rounded mismatches tie: the rays' own terms order them;
        # like the bracket ends, they may exceed the float range, and an infinite term still orders them
        with np.errstate(over="ignore"):
            own = np.where(f_lo >= -f_hi, rho_a + (delta + span) * lo, -(rho_a + delta * lo))
        j = int(np.lexsort((-np.arange(bad.size), own, bad))[-1])
        worst = (f"worst ray {j} at k={k:g}: tail mismatch {f_lo[j]:.6g} at rho'(R1-delta) = {lo[j]:.6g}, "
                 f"{f_hi[j]:.6g} at sigma_k'(R2+delta) = {hi:.6g}")
        return f"no k <= {k:g} puts the plateau slope of every ray in its monotone bracket; {worst}"

    return _doubling_search(failure)


def find_k(rho: WarpingFunction, sigma: WarpingFunction, R1: float, R2: float,
           delta: float = 0.0) -> float:
    """Smallest doubling scale k whose plateau slope lies in its monotone bracket.

    Scans k = 1, 2, 4, ... <= 2^40 with the module's feasibility rule (the
    secant inequality at (R1, R2) when delta = 0).  It stops at the first k
    where sigma_k(R2+delta) or its slope overflows, or past the cap, and
    raises ``SearchExhaustedError`` with the two bracket-end mismatches at
    the last k with finite sigma_k(R2+delta).
    """
    _interval(R1, R2, "find_k radii (R1, R2)")
    if not (0.0 <= delta and 2.0 * delta < R2 - R1):  # written so that NaN fails
        raise DomainError("find_k needs 0 <= delta < (R2-R1)/2")
    rho_a, drho_a, _ = rho.evaluate(R1 - delta)
    return _secant_search(rho_a, drho_a, sigma, R1, R2, delta)


def build_tau(rho: WarpingFunction, sigma_k: WarpingFunction, R1: float, R2: float,
              delta: float) -> GluedWarp:
    """The glued warp whose plateau slope ``GluedWarp`` solves to match the tail.

    A k that fails the module's feasibility rule raises ``InfeasibleError``;
    every k that ``find_k`` returns passes it.  ``certify`` then holds the
    tail mismatch to ``VALUE_TOL`` plus the rounding bound of the module
    docstring.
    """
    return GluedWarp(rho, sigma_k, R1, R2, delta)


def default_certification_grid(gw: GluedWarp, n: int = 4001) -> np.ndarray:
    """Uniform grid of ``n`` >= 2 points (``certify`` needs 2000) on [0, R2+4*delta] with the band edges inserted."""
    _count(n, "n", 2)
    top = gw.R2 + 4.0 * gw.delta
    grid = np.linspace(0.0, top, n)
    return np.unique(np.concatenate([grid, np.asarray(gw.edges)]))


def certify(gw: GluedWarp, grid) -> GlueCertificate:
    """Measure the contract margins of a glued warp from one evaluation on a grid.

    The curvature report is read from those samples at the positive radii;
    the values of rho on the head and of sigma_k on the tail are evaluated
    again, as independent references for the head and tail mismatches.
    ``min_second_difference`` is the undivided midpoint convexity defect
    min_i [ (h1 tau_{i-1} + h0 tau_{i+1})/(h0+h1) - tau_i ]  (>= 0 for convex
    tau); keeping it undivided leaves roundoff at the 1e-14 level, far below
    the 1e-9 acceptance threshold, while the curvature report certifies the
    sign of tau'' itself from the analytic profile.  Where tau <= 0 at a
    positive grid radius the curvatures are undefined: the certificate
    fails, with a report that holds no arrays, is not nonpositive and has
    an infinite ``worst_violation``.
    """
    grid = _grid(grid, "certification grid", least=2000, zero=True)
    if grid[0] > 1e-12 or grid[-1] < gw.R2 + 4.0 * gw.delta - 1e-9:
        raise UsageError("certification grid must span [0, R2 + 4*delta]")
    for edge in gw.edges:
        if np.min(np.abs(grid - edge)) > 1e-9:
            raise UsageError("certification grid must include the band edges")
    return _audit(gw, grid)


def _audit(gw: GluedWarp, grid: np.ndarray) -> GlueCertificate:
    """``certify`` on a float grid that passes its checks, as the default grid does."""
    tau, dtau, ddtau = gw.evaluate(grid)
    a, _, _, d = gw.edges
    n_head = int(np.searchsorted(grid, a, side="right"))  # grid[:n_head] <= a
    tail = int(np.searchsorted(grid, d))  # grid[tail:] >= d
    pos = int(np.searchsorted(grid, 0.0, side="right"))  # grid[pos:] > 0

    h0 = np.diff(grid[:-1])
    h1 = np.diff(grid[1:])
    min_second = float(np.min((h1 * tau[:-2] + h0 * tau[2:]) / (h0 + h1) - tau[1:-1]))
    min_slope = float(np.min(dtau)) - 1.0
    head_mismatch = float(np.max(np.abs(tau[:n_head] - gw.rho(grid[:n_head])))) if n_head else 0.0
    tail_mismatch = 0.0
    tail_tol = VALUE_TOL
    if tail < grid.size:
        sig_vals = gw.sigma_k.evaluate(grid[tail:])[0]
        tail_mismatch = float(np.max(np.abs(tau[tail:] - sig_vals)))
        tail_tol += _TAIL_ROUNDING * float(np.max(np.abs(sig_vals)))

    if np.any(tau[pos:] <= 0.0):
        report = CurvatureReport(None, None, None, False, np.inf)
    else:
        report = _curvature_report(gw, grid[pos:], (tau[pos:], dtau[pos:], ddtau[pos:]))
    passed = (min_second >= -CONVEXITY_TOL and min_slope >= -SLOPE_TOL and head_mismatch == 0.0
              and tail_mismatch <= tail_tol and report.is_nonpositive and report.worst_violation <= CURVATURE_TOL)
    return GlueCertificate(
        min_second_difference=min_second,
        min_slope_minus_one=min_slope,
        head_mismatch=head_mismatch,
        tail_mismatch=tail_mismatch,
        curvature=report,
        passed=bool(passed),
    )


def _glue_plan(spec: GlueSpec):
    """Validate ``spec`` and return the intermediate radii and band (R1, R2, delta).

    R1 and R2 are the interior thirds of (R_bar, R).  The band half-width is
    min(0.05, (R2-R1)/10), well inside the (R2-R1)/2 that ``build_tau`` needs.
    """
    spec.validate()
    step = (spec.R - spec.R_bar) / 3.0
    R1, R2 = spec.R_bar + step, spec.R_bar + 2.0 * step
    return R1, R2, min(0.05, (R2 - R1) / 10.0)


def _proved_certificates(glued, head_bounds, tail_bound) -> list[GlueCertificate]:
    """Certificates of glued warps that share (R1, R2, delta, sigma_k), proved from a few scalars of each.

    ``head_bounds`` bound each rho'' from below on an interval that holds
    the head [0, R1-delta], ``tail_bound`` bounds sigma_k'' on the tail
    [R2+delta, inf).  With the ramp and plateau curvatures of ``_pieces``
    they bound tau'' everywhere.  A certificate passes when that bound
    passes the sign tolerance of ``warp._convex_rows``, the slope margin of
    ``GlueCertificate`` is at least -``SLOPE_TOL`` and the tail offset is
    within its tolerance.  rho is evaluated at 0 only, for all rays together
    (``warp._ray_rows``).
    """
    sig_d = glued[0]._tail[0]
    tail_tol = VALUE_TOL + _TAIL_ROUNDING * abs(sig_d)
    lows = [float(min(head, tail_bound, *(curv for _, _, curv in gw._pieces)))
            for gw, head in zip(glued, head_bounds)]
    convex = _convex_rows(np.array(lows)[:, None])
    certs = []
    slopes0 = _ray_rows([gw.rho for gw in glued], np.zeros(1))
    for gw, head, low, ok, (_, slope0, _) in zip(glued, head_bounds, lows, convex, slopes0):
        # tau' - 1 >= rho'(0) - 1 on the head, less what a negative head bound within the tolerance takes
        slope = float(slope0[0]) - 1.0 + gw.edges[0] * min(head, 0.0)
        nonpositive = bool(ok) and slope >= -SLOPE_TOL
        gap = abs(gw._tail[1] - sig_d)
        certs.append(GlueCertificate(
            min_second_difference=low,
            min_slope_minus_one=slope,
            head_mismatch=0.0,
            tail_mismatch=gap,
            curvature=CurvatureReport(None, None, None, nonpositive, max(0.0, -low)),
            passed=bool(nonpositive and gap <= tail_tol),
        ))
    return certs


def _certificates(glued, head_bounds, points) -> list[GlueCertificate]:
    """The certificate of each glued warp of ``glued``, which share (R1, R2, delta, sigma_k), in order.

    A warp is proved from structure (``_proved_certificates``) where its
    head bound is given and sigma_k has a convexity bound on the tail
    [R2+delta, inf); any other is ``_audit`` on the default grid of
    ``points`` points, which is the same for all of them.
    """
    first = glued[0]
    tail = _convexity_bound(first.sigma_k, first.edges[3], np.inf)
    proved = [j for j, head in enumerate(head_bounds) if head is not None and tail is not None]
    certs = [None] * len(glued)
    if proved:
        for j, cert in zip(proved, _proved_certificates([glued[j] for j in proved],
                                                         [head_bounds[j] for j in proved], tail)):
            certs[j] = cert
    if len(proved) < len(glued):
        grid = default_certification_grid(first, points)
        certs = [_audit(gw, grid) if cert is None else cert for gw, cert in zip(glued, certs)]
    return certs


def glue_pipeline(spec: GlueSpec):
    """Full pipeline: validate, choose radii, search k, build tau and certify it.

    The certificate is proved from structure when rho and sigma are of the
    package's warp types (the head bound is taken on [0, R1-delta]), else
    it is ``certify`` on the default grid; see ``GlueCertificate``.
    """
    R1, R2, delta = _glue_plan(spec)
    k = find_k(spec.rho, spec.sigma, R1, R2, delta)
    gw = build_tau(spec.rho, ScaledWarp(spec.sigma, k), R1, R2, delta)
    return gw, _certificates([gw], [_convexity_bound(spec.rho, 0.0, gw.edges[0])], 4001)[0]


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
    pole.  Missing radial derivatives are taken from one C^2 value spline
    through all columns.  Non-finite samples raise the ``UsageError`` of
    the build's finiteness check, whether ``dnu`` is given or not.  The
    rays are checked and built in one pass over all columns
    (``warp._build_splines``), each owning its coefficients, and ``glue2d``
    evaluates them together as stacked columns.  Each ray equals the
    ``SplineWarp`` built from its column alone.
    """
    t_grid = _grid(t_grid, "ray sample t_grid", least=2, zero=True)
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 2 or nu.shape[0] != t_grid.size:
        raise UsageError("need t_grid (nt,) and nu (nt, ntheta)")
    if t_grid[0] != 0.0:
        raise UsageError("ray samples must start at t = 0 (the glued head reaches the pole)")
    if dnu is None:
        if not np.isfinite(nu).all():  # refused as ``_build_splines`` refuses it, before CubicSpline's ValueError
            raise UsageError("knot data must be finite")
        from scipy.interpolate import CubicSpline

        dnu = CubicSpline(t_grid, nu)(t_grid, 1)
    else:
        dnu = np.asarray(dnu, dtype=float)
        if dnu.shape != nu.shape:
            raise UsageError("dnu must match nu")
    return _build_splines(t_grid, nu, dnu)


def _convex_anchors(rays, theta_grid, lo, hi, a):
    """Each ray's value and slope at ``a`` once it is convex on the checking window, and its convexity bound.

    A ray of the package's warp types is proved convex on [0, hi] from its
    coefficients (``warp._convexity_bounds``, which gives its bound) and is
    evaluated at lo, hi and a only: those points raise what the sampled
    window raises for these types, a spline below its first knot and an
    overflow of a warp that grows with r.  Any other ray is sampled on 256
    points of [lo, hi] and at a, and its bound is None.  The rows are read
    in ray order (``warp._ray_rows``, for each of the two groups), so the first
    ray in order that fails evaluation or convexity raises, with the error
    it raises alone.
    """
    bounds = _convexity_bounds(rays, 0.0, hi)
    groups = {
        proved: iter(_ray_rows([ray for ray, b in zip(rays, bounds) if (b is not None) is proved], points))
        for proved, points in ((True, np.array([lo, hi, a])), (False, np.append(np.linspace(lo, hi, 256), a)))
    }
    convex = _convex_rows(np.array([0.0 if b is None else b for b in bounds])[:, None])
    rho_a = np.empty(len(rays))
    drho_a = np.empty(len(rays))
    for j, bound in enumerate(bounds):
        value, slope, curv = next(groups[bound is not None])
        if not (bool(_convex_rows(curv[:-1])) if bound is None else convex[j]):
            raise UsageError(
                f"ray {j} (theta={theta_grid[j]:.6g}) is concave on the checking window; "
                "the 2d metric is not nonpositively curved there"
            )
        rho_a[j], drho_a[j] = value[-1], slope[-1]
    return rho_a, drho_a, bounds


def glue2d(rays, theta_grid, sigma: WarpingFunction, R_bar: float, R: float) -> Glue2DResult:
    """Glue a hyperbolic-type infinity onto a 2d metric given per ray.

    Each ray (the angular sample nu(., theta_j), a warping function of the
    radius) must be convex on the checking window, which reaches R1+2delta:
    the single curvature of the 2d metric is -nu_rr/nu, so convexity is the
    nonpositive-curvature precondition.  A ray of the package's warp types
    is proved convex on [0, R1+2delta] from its coefficients and evaluated
    only at the window's ends and at R1-delta; any other ray is sampled on
    the 256-point window from delta*1e-3 with R1-delta appended (see the
    module docstring).  That gives each ray's convexity check and its
    anchors rho(R1-delta), rho'(R1-delta); the first ray in order that fails
    evaluation or convexity raises, with the error it raises alone.  A
    single (k, R1, R2) is chosen from the anchors so that every ray passes
    the feasibility rule, by the search of ``find_k``: k <= 2^40, ending
    where sigma_k(R2+delta) overflows with a ``SearchExhaustedError`` that
    names the worst ray.  The plateau slopes of all rays are then solved at
    once from the same anchors and one evaluation of sigma_k(R2+delta).
    The band half-width is that of ``glue_pipeline``, min(0.05, (R2-R1)/10).

    When sigma_k is of the package's types, the certificate of each proved
    ray is proved from structure as in ``glue_pipeline`` (see
    ``GlueCertificate``), its head bound being the ray's bound on the
    window.  Each other ray is audited as by ``certify`` on one default grid
    that all share, coarser than that of ``glue_pipeline``.  ``lip`` takes
    the angles to be uniform on [theta_0, theta_0 + 2pi), which is checked.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    rays = list(rays)
    if len(rays) != theta_grid.size or not rays:
        raise UsageError("need one ray per theta sample")
    _uniform_angles(theta_grid)
    R1, R2, band = _glue_plan(GlueSpec(rays[0], sigma, R_bar, R))

    rho_a, drho_a, bounds = _convex_anchors(rays, theta_grid, band * 1e-3, R1 + 2.0 * band, R1 - band)
    k = _secant_search(rho_a, drho_a, sigma, R1, R2, band)
    sigma_k = ScaledWarp(sigma, k)
    sig_d, dsig_d, _ = sigma_k.evaluate(R2 + band)
    slopes = _plateau_slopes(rho_a, drho_a, sig_d, dsig_d, R2 - R1, band)
    glued = [GluedWarp.__new__(GluedWarp)._place(ray, sigma_k, R1, R2, band, (ra, dra, sig_d, dsig_d), s)
             for ray, ra, dra, s in zip(rays, rho_a, drho_a, slopes)]
    certs = _certificates(glued, bounds, _RAY_CERT_POINTS)
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
