"""Warping functions and rotationally symmetric model geometries.

A warping function ``sigma`` generates, in geodesic polar coordinates, the
metric ``dr^2 + sigma(r)^2 dtheta^2`` on R^n.  Admissibility requires
``sigma(0) = 0``, ``sigma'(0) = 1``, vanishing even-order derivatives at the
pole, and ``sigma(r) > 0`` for ``r > 0``.  The two sectional curvatures of
the resulting space are

    sec_rad = -sigma''/sigma          (planes containing the radial field)
    sec_tg  = (1 - sigma'^2)/sigma^2  (planes orthogonal to it)

so the space is nonpositively curved exactly when ``sigma'' >= 0`` (convexity
forces ``sigma' >= 1``, which makes ``sec_tg <= 0`` as well).

Rescaling ``sigma_k(r) = k^{-1/2} sigma(k^{1/2} r)`` multiplies curvatures by
``k``; a warp is of *hyperbolic type* when it is convex and its rescalings
satisfy ``sigma_k' >= sigma_k -> +inf`` as ``k`` grows.  Such warps serve as
the outer geometry in the gluing construction of :mod:`pharmap.glue`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BPoly

from ._table import read_table, write_table
from .errors import DomainError, UsageError

__all__ = [
    "WarpingFunction",
    "IdentityWarp",
    "SinhWarp",
    "OddPolynomialWarp",
    "ScaledWarp",
    "SplineWarp",
    "ModelManifold",
    "CurvatureReport",
    "HyperbolicTypeReport",
    "curvature_radial",
    "curvature_tangential",
    "is_cartan_hadamard",
    "is_hyperbolic_type",
    "certification_grid",
    "parse_warp_spec",
    "save_warp_csv",
    "load_warp_csv",
]

#: relative floor used by sign certifications: tol(v) = SIGN_TOL * (1 + |v|)
SIGN_TOL = 1e-9


def _as_radii(r):
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise DomainError("radii must be finite")
    if np.any(r < 0.0):
        raise DomainError("radii must be nonnegative")
    return r


class WarpingFunction:
    """Base class: a warp evaluates to a consistent (sigma, sigma', sigma'') triple.

    Subclasses implement ``_eval(r)``, which receives validated radii as a
    float array with ``ndim >= 1`` and returns three arrays of its shape.
    ``evaluate`` alone handles scalars: a scalar radius gives three numpy
    float64 scalars, those of the one-element evaluation.

    ``third_at_zero`` holds sigma'''(0) when it is analytically known; it is
    the ingredient for pole limits (curvature at r=0, chart metric series).
    Sampled warps leave it as None and refuse those limits.
    """

    kind = "Abstract"
    third_at_zero: float | None = None

    def evaluate(self, r):
        """Return ``(sigma, dsigma, ddsigma)`` at ``r`` (scalar or array)."""
        r = _as_radii(r)
        if r.ndim:
            return self._eval(r)
        return tuple(v[0] for v in self._eval(r[None]))

    def _eval(self, r):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, r):
        return self.evaluate(r)[0]

    def __repr__(self):
        return f"<{type(self).__name__}>"


class IdentityWarp(WarpingFunction):
    """sigma(r) = r, the flat (Euclidean) model."""

    kind = "Identity"
    third_at_zero = 0.0

    def _eval(self, r):
        return r, np.ones_like(r), np.zeros_like(r)


class SinhWarp(WarpingFunction):
    """sigma(r) = sinh r, the curvature -1 hyperbolic model."""

    kind = "Sinh"
    third_at_zero = 1.0

    def _eval(self, r):
        s = np.sinh(r)
        return s, np.cosh(r), s.copy()


class OddPolynomialWarp(WarpingFunction):
    """sigma(r) = r + c3 r^3 + c5 r^5 + ..., coefficients of the odd powers.

    The leading coefficient (of r) must equal 1 so that sigma'(0) = 1.
    """

    kind = "OddPolynomial"

    def __init__(self, coefficients):
        coeffs = np.asarray(coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise UsageError("odd-polynomial warp needs a 1d coefficient list")
        if not np.isfinite(coeffs).all():
            raise UsageError("odd-polynomial coefficients must be finite")
        if coeffs[0] != 1.0:
            raise UsageError("odd-polynomial warp must have leading term r (first coefficient 1)")
        self.coefficients = coeffs
        self.third_at_zero = 6.0 * coeffs[1] if coeffs.size > 1 else 0.0

    def _eval(self, r):
        s = np.zeros_like(r)
        d1 = np.zeros_like(r)
        d2 = np.zeros_like(r)
        r2 = r * r
        # Horner in r^2 for each of sigma/r, sigma', sigma''/r.
        for c in self.coefficients[::-1]:
            s = s * r2 + c
        s = s * r
        for m in range(self.coefficients.size - 1, -1, -1):
            n = 2 * m + 1
            d1 = d1 * r2 + n * self.coefficients[m]
        for m in range(self.coefficients.size - 1, 0, -1):
            n = 2 * m + 1
            d2 = d2 * r2 + n * (n - 1) * self.coefficients[m]
        d2 = d2 * r
        return s, d1, d2

    def __repr__(self):
        return f"<OddPolynomialWarp {list(self.coefficients)}>"


class ScaledWarp(WarpingFunction):
    """Curvature rescaling sigma_k(r) = k^{-1/2} sigma(k^{1/2} r) of a base warp."""

    kind = "ScaledCopy"

    def __init__(self, base: WarpingFunction, k: float):
        k = float(k)
        if not np.isfinite(k) or k <= 0.0:
            raise DomainError("scale k must be positive")
        self.base = base
        self.k = k
        self._sqrt_k = np.sqrt(k)
        if base.third_at_zero is not None:
            self.third_at_zero = k * base.third_at_zero

    def _eval(self, r):
        s, d1, d2 = self.base.evaluate(self._sqrt_k * r)
        return s / self._sqrt_k, d1, self._sqrt_k * d2

    def __repr__(self):
        return f"<ScaledWarp k={self.k} of {self.base!r}>"


def _hermite_bernstein(radii, values, derivs, second_derivs=None):
    """Bernstein coefficients, shape (degree + 1, intervals), of the Hermite pieces.

    On [x0, x1] with h = x1 - x0 the q-th derivative at x0 is d!/(d-q)! h^-q
    times the q-th forward difference of the first coefficients (backward
    differences of the last ones at x1): the recurrence of
    ``BPoly.from_derivatives``, for all intervals at once.
    """
    h = np.diff(radii)
    degree = 3 if second_derivs is None else 5
    c = np.empty((degree + 1, h.size))
    c[0] = values[:-1]
    c[-1] = values[1:]
    c[1] = derivs[:-1] / degree * h + c[0]
    c[-2] = c[-1] - derivs[1:] / degree * h
    if second_derivs is not None:
        scale = degree * (degree - 1.0)
        c[2] = (second_derivs[:-1] / scale * h**2 - c[0]) + 2.0 * c[1]
        c[-3] = (second_derivs[1:] / scale * h**2 + 2.0 * c[-2]) - c[-1]
    return c


class SplineWarp(WarpingFunction):
    """Piecewise-polynomial warp interpolating sampled derivative data.

    Knots carry (value, first derivative) pairs and optionally second
    derivatives.  With second derivatives the interpolant is the piecewise
    quintic Hermite matching all three fields at every knot (globally C^2);
    without them it is the piecewise cubic Hermite (C^1).  Beyond the last
    knot the warp continues with the second-order Taylor tail, which keeps
    convexity whenever the terminal second derivative is nonnegative.
    Evaluation below the first knot raises, except when the knots start at 0.
    """

    kind = "SampledSpline"

    def __init__(self, radii, values, derivs, second_derivs=None):
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        derivs = np.asarray(derivs, dtype=float)
        if radii.ndim != 1 or radii.size < 2:
            raise UsageError("spline warp needs at least two knots")
        if values.shape != radii.shape or derivs.shape != radii.shape:
            raise UsageError("knot arrays must share one shape")
        if not np.all(np.isfinite(radii)) or not np.all(np.isfinite(values)) or not np.all(np.isfinite(derivs)):
            raise UsageError("knot data must be finite")
        if np.any(np.diff(radii) <= 0.0):
            raise UsageError("knot radii must be strictly increasing")
        if radii[0] < 0.0:
            raise DomainError("knot radii must be nonnegative")
        if radii[0] == 0.0:
            if abs(values[0]) > 1e-9 or abs(derivs[0] - 1.0) > 1e-9:
                raise UsageError("a warp sampled from r=0 must have sigma(0)=0 and sigma'(0)=1")
        if second_derivs is not None:
            second_derivs = np.asarray(second_derivs, dtype=float)
            if second_derivs.shape != radii.shape or not np.all(np.isfinite(second_derivs)):
                raise UsageError("second-derivative knots must match the radii and be finite")
        self.radii = radii
        self.values = values
        self.derivs = derivs
        self.second_derivs = second_derivs
        self._poly = BPoly(_hermite_bernstein(radii, values, derivs, second_derivs), radii)
        self._dpoly = self._poly.derivative()
        self._ddpoly = self._dpoly.derivative()
        # Taylor tail data at the last knot (one-sided limits of the spline).
        rN = radii[-1]
        self._tail = (rN, float(self._poly(rN)), float(self._dpoly(rN)), float(self._ddpoly(rN - 1e-12)))

    def _eval(self, r):
        if np.any(r < self.radii[0] - 1e-12):
            raise DomainError(
                f"spline warp evaluated below first knot r={self.radii[0]:g} (no analytic head)"
            )
        s = np.empty_like(r)
        d1 = np.empty_like(r)
        d2 = np.empty_like(r)
        rN, v, dv, ddv = self._tail
        inside = r <= rN
        ri = np.clip(r[inside], self.radii[0], rN)
        s[inside] = self._poly(ri)
        d1[inside] = self._dpoly(ri)
        d2[inside] = self._ddpoly(ri)
        out = ~inside
        if np.any(out):
            dr = r[out] - rN
            s[out] = v + dv * dr + 0.5 * ddv * dr * dr
            d1[out] = dv + ddv * dr
            d2[out] = ddv
        return s, d1, d2

    @classmethod
    def sample(cls, warp: WarpingFunction, radii, with_second=True):
        """Resample another warp on the given knots."""
        radii = _as_radii(np.asarray(radii, dtype=float))
        s, d1, d2 = warp.evaluate(radii)
        return cls(radii, s, d1, d2 if with_second else None)


@dataclass(frozen=True)
class ModelManifold:
    """A rotationally symmetric space: dimension plus warping function."""

    dim: int
    warp: WarpingFunction

    def __post_init__(self):
        if self.dim < 2:
            raise UsageError("model manifolds need dim >= 2")


@dataclass
class CurvatureReport:
    """Sampled curvatures of a warp with a nonpositivity verdict."""

    grid: np.ndarray
    sec_rad: np.ndarray
    sec_tg: np.ndarray
    is_nonpositive: bool
    worst_violation: float

    def to_json_dict(self):
        return {
            "grid": [float(x) for x in self.grid],
            "sec_rad": [float(x) for x in self.sec_rad],
            "sec_tg": [float(x) for x in self.sec_tg],
            "is_nonpositive": bool(self.is_nonpositive),
            "worst_violation": float(self.worst_violation),
        }


@dataclass
class HyperbolicTypeReport:
    """Outcome of the finite hyperbolic-type check.

    The divergence requirement on the rescalings is a limit statement; on
    finitely many scales we certify the surrogate that sigma_k grows strictly
    along the scale list at every grid radius.
    """

    is_hyperbolic: bool
    convex_ok: bool
    slope_ok: bool
    growth_ok: bool
    min_ddsigma: float
    worst_slope_gap: float
    min_growth_step: float
    k_list: tuple = field(default_factory=tuple)

    def __bool__(self):
        return self.is_hyperbolic


def _convex_rows(d2):
    """``sigma'' >= -SIGN_TOL * (1 + |sigma''|)`` at every sample of each row (the last axis); NaN fails."""
    return np.all(d2 >= -SIGN_TOL * (1.0 + np.abs(d2)), axis=-1)


def _is_convex(d2) -> bool:
    """``_convex_rows`` of one row of samples."""
    return bool(_convex_rows(d2))


def _sectional_curvatures(w: WarpingFunction, r, samples=None):
    """``(sec_rad, sec_tg)`` of the model of ``w`` at ``r``, from its ``samples`` there if given.

    At r=0 both curvatures take the limit -sigma'''(0), which only analytic
    warps know; elsewhere sigma must be positive.  A scalar radius gives floats.
    The samples may have a leading axis of rows (warps that share ``w``'s pole
    limit) before the one of ``r``.
    """
    r = np.asarray(r, dtype=float)
    radii = np.atleast_1d(r)
    s, d1, d2 = w.evaluate(radii) if samples is None else samples  # evaluate validates the radii
    sec_rad = np.empty_like(s)
    sec_tg = np.empty_like(s)
    pole = radii == 0.0
    if np.any(pole):
        if w.third_at_zero is None:
            raise DomainError("curvature at r=0 is 0/0; only analytic warps know the limit -sigma'''(0)")
        sec_rad[..., pole] = sec_tg[..., pole] = -w.third_at_zero
    body = ~pole
    if np.any(body & (s <= 0.0)):
        raise DomainError(f"warp {w.kind} is nonpositive at some positive radius; curvature undefined")
    np.divide(-d2, s, out=sec_rad, where=body)
    np.divide(1.0 - d1 * d1, s * s, out=sec_tg, where=body)
    if r.ndim:
        return sec_rad, sec_tg
    return float(sec_rad[0]), float(sec_tg[0])


def curvature_radial(w: WarpingFunction, r):
    """Radial sectional curvature ``-sigma''/sigma`` (limit -sigma'''(0) at r=0)."""
    return _sectional_curvatures(w, r)[0]


def curvature_tangential(w: WarpingFunction, r):
    """Tangential sectional curvature ``(1 - sigma'^2)/sigma^2`` (limit -sigma'''(0) at r=0)."""
    return _sectional_curvatures(w, r)[1]


def _curvature_reports(w: WarpingFunction, grid, samples) -> list[CurvatureReport]:
    """The reports of ``is_cartan_hadamard``, one per row of samples (sigma, sigma', sigma'') on ``grid``.

    The samples have shape (rows, grid.size); the rows share ``grid`` and
    ``w``'s kind and pole limit, and each report holds its rows of the
    curvature arrays.
    """
    sec_rad, sec_tg = _sectional_curvatures(w, grid, samples)
    curv = np.maximum(sec_rad, sec_tg)
    nonpos = _convex_rows(samples[2]) & np.all(curv <= SIGN_TOL * (1.0 + np.abs(curv)), axis=-1)
    return [
        CurvatureReport(grid=grid, sec_rad=rad, sec_tg=tg, is_nonpositive=bool(ok), worst_violation=float(top))
        for rad, tg, ok, top in zip(sec_rad, sec_tg, nonpos, np.max(curv, axis=-1))
    ]


def is_cartan_hadamard(w: WarpingFunction, grid) -> CurvatureReport:
    """Certify nonpositive curvature of the model generated by ``w`` on a grid.

    The verdict is true iff ``sigma'' >= -tol`` at every grid point and both
    sampled curvatures stay below tol, with tol = SIGN_TOL * (1 + |value|)
    pointwise so that genuine violations are distinguished from rounding.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise UsageError("certification grid must be a nonempty 1d array")
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise UsageError("certification grid must be strictly increasing and positive")
    return _curvature_reports(w, grid, [v[None] for v in w.evaluate(grid)])[0]


def is_hyperbolic_type(w: WarpingFunction, grid=None, k_list=None) -> HyperbolicTypeReport:
    """Check the hyperbolic-type conditions on a finite grid and scale list.

    Certifies (i) convexity ``sigma'' >= -tol`` on the grid and (ii) for every
    scale k that ``sigma_k' >= sigma_k - tol`` with ``sigma_k`` strictly
    increasing along the scale list at each radius (finite surrogate for
    divergence as k -> infinity).
    """
    if grid is None:
        grid = certification_grid(1e-2, 10.0)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid <= 0.0):
        raise UsageError("hyperbolic-type grid must be nonempty and positive")
    if k_list is None:
        k_list = tuple(float(2**m) for m in range(13))
    k_list = tuple(float(k) for k in k_list)
    if any(k <= 0 for k in k_list) or any(b <= a for a, b in zip(k_list, k_list[1:])):
        raise UsageError("scale list must be positive and increasing")

    _, _, d2 = w.evaluate(grid)
    min_dd = float(np.min(d2))
    convex_ok = _is_convex(d2)

    worst_gap = np.inf
    min_growth = np.inf
    slope_ok = True
    growth_ok = True
    prev_vals = None
    # a scaled warp that overflows gives inf - inf = NaN, which fails both tests
    with np.errstate(over="ignore", invalid="ignore"):
        for k in k_list:
            vals, dvals, _ = ScaledWarp(w, k).evaluate(grid)
            gap = np.min(dvals - vals)
            worst_gap = float(np.minimum(worst_gap, gap))
            if not gap >= -SIGN_TOL * (1.0 + float(np.max(np.abs(vals)))):
                slope_ok = False
            if prev_vals is not None:
                step = np.min(vals - prev_vals)
                min_growth = float(np.minimum(min_growth, step))
                if not step > 0.0:
                    growth_ok = False
            prev_vals = vals
    ok = convex_ok and slope_ok and growth_ok
    return HyperbolicTypeReport(
        is_hyperbolic=ok,
        convex_ok=convex_ok,
        slope_ok=slope_ok,
        growth_ok=growth_ok,
        min_ddsigma=min_dd,
        worst_slope_gap=worst_gap,
        min_growth_step=min_growth,
        k_list=k_list,
    )


def certification_grid(r_min: float, r_max: float, points_per_decade: int = 512) -> np.ndarray:
    """Log-spaced grid with a fixed point density per decade."""
    if not (0.0 < r_min < r_max):
        raise UsageError("grid needs 0 < r_min < r_max")
    decades = np.log10(r_max / r_min)
    n = max(2, int(np.ceil(points_per_decade * decades)) + 1)
    return np.geomspace(r_min, r_max, n)


def parse_warp_spec(spec: str) -> WarpingFunction:
    """Build a warp from a spec string.

    Accepted forms: ``identity``, ``sinh``, ``poly:c1,c3,...`` (odd-power
    coefficients, c1 must be 1; ``poly:1,1`` is r + r^3) and ``file:PATH``
    (warp sample CSV).
    """
    spec = spec.strip()
    if spec == "identity":
        return IdentityWarp()
    if spec == "sinh":
        return SinhWarp()
    if spec.startswith("poly:"):
        try:
            coeffs = [float(tok) for tok in spec[5:].split(",") if tok.strip()]
        except ValueError as exc:
            raise UsageError(f"bad polynomial warp spec {spec!r}") from exc
        return OddPolynomialWarp(coeffs)
    if spec.startswith("file:"):
        return load_warp_csv(spec[5:])
    raise UsageError(f"unknown warp spec {spec!r} (expected identity|sinh|poly:...|file:...)")


def save_warp_csv(path, w: WarpingFunction, grid) -> None:
    """Write warp samples as CSV with header ``r,sigma,dsigma,ddsigma``."""
    grid = _as_radii(np.asarray(grid, dtype=float))
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0.0):
        raise UsageError("warp sample grid must be strictly increasing")
    write_table(path, "r,sigma,dsigma,ddsigma", (np.column_stack([grid, *w.evaluate(grid)]), "%.17g"))


def load_warp_csv(path) -> SplineWarp:
    """Load a warp sample CSV (header ``r,sigma,dsigma,ddsigma``)."""
    _, data, _ = read_table(path, "warp sample", "r,sigma,dsigma,ddsigma", columns=4)
    if data.shape[0] < 2:
        raise UsageError(f"{path}: warp sample file needs at least two knots")
    return SplineWarp(data[:, 0], data[:, 1], data[:, 2], data[:, 3])
