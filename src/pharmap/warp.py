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

Spline warps (``SplineWarp``, ``load_warp_csv``) load scipy.interpolate on
first use, when one is built or evaluated; the analytic warps and the
modules that only use them never load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import read_table, write_table
from .errors import DomainError, UsageError, _count, _grid

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
    "is_cartan_hadamard",
    "is_hyperbolic_type",
    "save_warp_csv",
    "load_warp_csv",
]

#: relative floor used by sign certifications: tol(v) = SIGN_TOL * (1 + |v|)
SIGN_TOL = 1e-9
_HYPERBOLIC_SCALES = tuple(float(2**m) for m in range(13))  # the scales of ``is_hyperbolic_type``
_SUBDIVISIONS = 6  # halvings of a spline piece whose sigma'' coefficients dip below the sign tolerance


def _as_radii(r):
    r = np.asarray(r, dtype=float)
    if not np.isfinite(r).all():
        raise DomainError("radii must be finite")
    if (r < 0.0).any():
        raise DomainError("radii must be nonnegative")
    return r


class WarpingFunction:
    """Base class: a warp evaluates to a consistent (sigma, sigma', sigma'') triple.

    Subclasses implement ``_eval(r)``, which receives validated radii as a
    float array with ``ndim >= 1`` and returns three arrays of its shape.
    ``evaluate`` alone handles scalars: a scalar radius gives three numpy
    float64 scalars, those of the one-element evaluation.

    ``third_at_zero`` holds sigma'''(0) when it is analytically known; it is
    the ingredient of the chart metric's series at the pole.  Sampled warps
    leave it as None, and the chart refuses the pole for them.
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
        return tuple(v[0] for v in _odd_polynomial(self.coefficients[:, None], r))

    def __repr__(self):
        return f"<OddPolynomialWarp {list(self.coefficients)}>"


class ScaledWarp(WarpingFunction):
    """Curvature rescaling sigma_k(r) = k^{-1/2} sigma(k^{1/2} r) of a base warp."""

    kind = "ScaledCopy"

    def __init__(self, base: WarpingFunction, k: float):
        k = float(k)
        if not 0.0 < k < np.inf:  # written so that NaN fails
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


def _odd_polynomial(coefficients, r):
    """(sigma, sigma', sigma'') at ``r`` of the odd polynomials whose r^(2m+1) coefficients are ``coefficients[m]``.

    ``coefficients`` is a table of shape (terms, rows), one column per
    polynomial; the samples have shape (rows, *r.shape).  One Horner pass
    in r^2 for each of sigma/r, sigma' and sigma''/r serves every row.
    """
    coefficients = coefficients.reshape(coefficients.shape + (1,) * r.ndim)
    r2 = r * r
    s = np.zeros(coefficients.shape[1:2] + r.shape)
    for c in coefficients[::-1]:
        s = s * r2 + c
    s = s * r
    d1 = np.zeros_like(s)
    d2 = np.zeros_like(s)
    for m in range(len(coefficients) - 1, -1, -1):
        n = 2 * m + 1
        d1 = d1 * r2 + n * coefficients[m]
    for m in range(len(coefficients) - 1, 0, -1):
        n = 2 * m + 1
        d2 = d2 * r2 + n * (n - 1) * coefficients[m]
    d2 = d2 * r
    return s, d1, d2


def _hermite_bernstein(radii, values, derivs, second_derivs=None, out=None):
    """Bernstein coefficients, shape (degree + 1, intervals, *columns), of the Hermite pieces.

    The knot data have shape (knots, *columns); the coefficients are written
    to ``out`` where it is given.  On [x0, x1] with
    h = x1 - x0 the q-th derivative at x0 is d!/(d-q)! h^-q times the q-th
    forward difference of the first coefficients (backward differences of
    the last ones at x1): the recurrence of ``BPoly.from_derivatives``, for
    all intervals and columns at once.
    """
    h = np.diff(radii).reshape((-1,) + (1,) * (values.ndim - 1))
    degree = 3 if second_derivs is None else 5
    c = np.empty((degree + 1,) + h.shape[:1] + values.shape[1:]) if out is None else out
    c[0] = values[:-1]
    c[-1] = values[1:]
    c[1] = derivs[:-1] / degree * h + c[0]
    c[-2] = c[-1] - derivs[1:] / degree * h
    if second_derivs is not None:
        scale = degree * (degree - 1.0)
        c[2] = (second_derivs[:-1] / scale * h**2 - c[0]) + 2.0 * c[1]
        c[-3] = (second_derivs[1:] / scale * h**2 + 2.0 * c[-2]) - c[-1]
    return c


# the checks of ``_build_splines`` in order: a column that fails several raises the first
_SPLINE_CHECKS = (
    (UsageError, "knot data must be finite"),
    (UsageError, "knot radii must be strictly increasing"),
    (DomainError, "knot radii must be nonnegative"),
    (UsageError, "a warp sampled from r=0 must have sigma(0)=0 and sigma'(0)=1"),
    (UsageError, "second-derivative knots must match the radii and be finite"),
)


def _build_splines(radii, values, derivs, second_derivs=None, warps=None) -> list["SplineWarp"]:
    """Spline warps on one knot array, one per column of the knot data of shape (knots, columns).

    The checks, the Bernstein coefficients, both derivative polynomials and
    the Taylor tails are computed for all columns in one pass; ``warps``, new
    ``SplineWarp``s by default, receive one column each.  A failing check
    raises what the columns would raise one by one: the first failing check
    of the first failing column.  One column or many, the coefficients are
    computed in a work buffer of all columns and each column is copied out:
    each warp owns contiguous one-column tables of shape (order, pieces, 1),
    allocated before the buffer, which is dropped on return.  No table of
    all columns outlives the build, and the freed buffer leaves no hole
    below the warps' arrays, so a build of many columns needs no more
    resident memory than building them one by one.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    derivs = np.asarray(derivs, dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise UsageError("spline warp needs at least two knots")
    if values.ndim != 2 or values.shape[0] != radii.size or derivs.shape != values.shape:
        raise UsageError("knot arrays must share one shape")
    columns = values.shape[1]
    ok = np.ones((len(_SPLINE_CHECKS), columns), dtype=bool)  # check by column
    finite_radii = np.isfinite(radii).all()
    ok[0] = finite_radii & np.isfinite(values).all(axis=0) & np.isfinite(derivs).all(axis=0)
    ok[1] = finite_radii and (np.diff(radii) > 0.0).all()
    ok[2] = radii[0] >= 0.0
    if radii[0] == 0.0:
        ok[3] = (np.abs(values[0]) <= 1e-9) & (np.abs(derivs[0] - 1.0) <= 1e-9)
    if second_derivs is not None:
        second_derivs = np.asarray(second_derivs, dtype=float)
        ok[4] = second_derivs.shape == values.shape and np.isfinite(second_derivs).all(axis=0)
    if not ok.all():
        column = np.argmin(ok.all(axis=0))
        error, message = _SPLINE_CHECKS[np.argmin(ok[:, column])]
        raise error(message)
    from scipy.interpolate import BPoly

    if warps is None:
        warps = [SplineWarp.__new__(SplineWarp) for _ in range(columns)]
    degree = 3 if second_derivs is None else 5
    orders = (degree + 1, degree, degree - 1)  # coefficients per interval of sigma, sigma', sigma''
    # each warp's own coefficients, one column each, allocated before the work buffer of all
    # columns in which they are computed and from which they are copied out
    owned = [[np.empty((n, radii.size - 1, 1)) for n in orders] for _ in warps]
    bounds = np.cumsum((0,) + orders) * (radii.size - 1) * columns
    buffer = np.empty(bounds[-1])
    work = [buffer[a:b].reshape(n, radii.size - 1, columns) for n, a, b in zip(orders, bounds, bounds[1:])]
    c, dc, ddc = work
    _hermite_bernstein(radii, values, derivs, second_derivs, out=c)
    dx = np.diff(radii)[:, None]
    for low, high in ((c, dc), (dc, ddc)):  # BPoly.derivative's k * diff(c) / dx, in place
        np.subtract(low[1:], low[:-1], out=high)
        high *= len(high)
        high /= dx
    # Taylor tail data at the last knot (one-sided limits of the splines)
    rN = radii[-1]
    tails = [BPoly.construct_fast(a, radii)(x) for a, x in zip(work, (rN, rN, rN - 1e-12))]
    for j, (w, arrays) in enumerate(zip(warps, owned)):
        for a, table in zip(arrays, work):
            a[...] = table[..., j:j + 1]
        w.radii = radii
        w.values = values[:, j]
        w.derivs = derivs[:, j]
        w.second_derivs = None if second_derivs is None else second_derivs[:, j]
        w._coeffs = arrays  # of sigma, sigma', sigma'', read without BPoly's checked accessor
        w._polys = [BPoly.construct_fast(a, radii) for a in arrays]
        w._tail = tuple(float(t[j]) for t in tails)
    return warps


class SplineWarp(WarpingFunction):
    """Piecewise-polynomial warp interpolating sampled derivative data.

    Knots carry (value, first derivative) pairs and optionally second
    derivatives.  With second derivatives the interpolant is the piecewise
    quintic Hermite matching all three fields at every knot (globally C^2);
    without them it is the piecewise cubic Hermite (C^1).  Beyond the last
    knot the warp continues with the second-order Taylor tail, which keeps
    convexity whenever the terminal second derivative is nonnegative.
    Evaluation below the first knot raises, except when the knots start at 0.
    A spline warp is the one-column case of ``_build_splines``, which
    ``glue.rays_from_polar_samples`` runs on all its rays at once, and it
    evaluates as the one-ray case of ``_spline_rows``: its polynomials hold
    one column, so they give values of shape (points, 1).
    """

    kind = "SampledSpline"

    def __init__(self, radii, values, derivs, second_derivs=None):
        column = (None if v is None else np.asarray(v, dtype=float)[..., None]
                  for v in (values, derivs, second_derivs))
        _build_splines(radii, *column, warps=[self])

    def _eval(self, r):
        return tuple(v[0] for v in _spline_rows([self], r))


def _spline_rows(rays, r):
    """(sigma, sigma', sigma'') of spline warps on one knot array and of one degree at the radii ``r``.

    One ``BPoly`` call per derivative order, on the rays' one-column
    coefficient tables concatenated (a single ray's own polynomials, which
    are not copied), gives values of shape (points, rays); past the last
    knot one Taylor tail formula replaces them, for one ray or many.  The
    arrays returned have shape (len(rays), *r.shape).  Radii below the
    first knot raise, those within 1e-12 of it are clipped onto it.
    """
    knots = rays[0].radii
    flat = r.reshape(-1)
    if (flat < knots[0] - 1e-12).any():
        raise DomainError(f"spline warp evaluated below first knot r={knots[0]:g} (no analytic head)")
    rN = knots[-1]
    ri = np.clip(flat, knots[0], rN)
    polys = rays[0]._polys
    if len(rays) > 1:
        from scipy.interpolate import BPoly

        # only the pieces that hold a radius are stacked: in that slice of the knots BPoly finds
        # each radius in the piece it finds it in among all knots (the right one at a knot)
        piece = np.clip(np.searchsorted(knots, ri, side="right") - 1, 0, knots.size - 2)
        lo, hi = (int(piece.min()), int(piece.max()) + 1) if piece.size else (0, 1)
        polys = [BPoly.construct_fast(np.concatenate([w._coeffs[o][:, lo:hi] for w in rays], axis=-1),
                                      knots[lo:hi + 1]) for o in range(len(polys))]
    # BPoly's values, (points, rays); the Taylor tails replace the values past the last knot
    out = [p(ri) for p in polys]
    past = np.flatnonzero(flat > rN)
    if past.size:
        v, dv, ddv = np.array([w._tail for w in rays]).T
        dr = (flat[past] - rN)[:, None]
        out[0][past] = v + dv * dr + 0.5 * ddv * dr * dr
        out[1][past] = dv + ddv * dr
        out[2][past] = ddv
    return tuple(o.T.reshape((len(rays),) + r.shape) for o in out)


def _ray_rows(rays, r):
    """(sigma, sigma', sigma'') of each warp of ``rays`` at the radii ``r``, in ray order.

    Row j equals ``rays[j].evaluate(r)`` byte for byte.  Spline warps on
    one knot array and of one degree are evaluated as columns of their
    stacked coefficients, odd polynomials with equal coefficient counts by
    one Horner pass (``_evaluated_jointly``), and the rows are views of
    those (rays, ...) tables.  Where that joint evaluation cannot be made
    or fails (a bad radius, or an overflow raised as an error), each ray
    is evaluated alone as its row is read, so the first ray in order that
    fails raises, with the error it raises alone.
    """
    joint = _evaluated_jointly(rays) if rays else None
    if joint is not None:
        try:
            radii = _as_radii(r)
            if joint is SplineWarp:
                return list(zip(*_spline_rows(rays, radii)))
            return list(zip(*_odd_polynomial(np.array([w.coefficients for w in rays]).T, radii)))
        except (ValueError, ArithmeticError, Warning):  # a bad radius, or an overflow raised as an error
            pass
    return (ray.evaluate(r) for ray in rays)


def _evaluated_jointly(rays):
    """The class whose joint evaluation ``_ray_rows`` uses for the nonempty list ``rays``, or None.

    Only instances of exactly ``SplineWarp`` or ``OddPolynomialWarp`` take
    it: a subclass may evaluate otherwise.
    """
    first = rays[0]
    if type(first) is SplineWarp and all(
            type(w) is SplineWarp and (w.second_derivs is None) is (first.second_derivs is None)
            and (w.radii is first.radii or np.array_equal(w.radii, first.radii)) for w in rays):
        return SplineWarp
    if type(first) is OddPolynomialWarp and all(
            type(w) is OddPolynomialWarp and w.coefficients.size == first.coefficients.size for w in rays):
        return OddPolynomialWarp
    return None


def _split(c, t):
    """Bernstein coefficients of each column of ``c`` on [0, t] and on [t, 1], by de Casteljau's algorithm."""
    left, right = [c[0]], [c[-1]]
    while len(c) > 1:
        c = (1.0 - t) * c[:-1] + t * c[1:]
        left.append(c[0])
        right.append(c[-1])
    return np.array(left), np.array(right[::-1])


def _spline_convexity_bounds(splines, lo, hi):
    """Lower bounds of sigma'' on [lo, hi] of spline warps on one knot array and of one degree.

    On each knot interval that meets [lo, hi], restricted to it, the
    Bernstein coefficients of sigma'' bound it from below (the convex-hull
    property).  A piece whose coefficients fail the sign tolerance of
    ``_convex_rows`` while its two end values, which are values of sigma'',
    pass it is halved by de Casteljau's algorithm, at most
    ``_SUBDIVISIONS`` times.  Past the last knot sigma'' is the constant
    of the Taylor tail.
    """
    knots = splines[0].radii
    first = max(int(np.searchsorted(knots, lo, side="right")) - 1, 0)
    stop = min(int(np.searchsorted(knots, hi)), knots.size - 1)  # the intervals first, ..., stop - 1
    left = knots[first:stop]
    h = knots[first + 1:stop + 1] - left
    end = np.clip((hi - left) / h, 0.0, 1.0)
    start = np.clip((lo - left) / h, 0.0, 1.0) / end
    # one column per (interval, spline), restricted to [lo, hi]
    order = len(splines[0]._coeffs[2])
    pieces = np.concatenate([w._coeffs[2][:, first:stop] for w in splines], axis=-1).reshape(order, -1)
    owner = np.tile(np.arange(len(splines)), left.size)
    pieces = _split(_split(pieces, np.repeat(end, len(splines)))[0], np.repeat(start, len(splines)))[1]
    for _ in range(_SUBDIVISIONS):
        halve = ~_convex_rows(pieces.T) & _convex_rows(pieces[[0, -1]].T)
        if not halve.any():
            break
        pieces = np.concatenate([pieces[:, ~halve], *_split(pieces[:, halve], 0.5)], axis=1)
        owner = np.concatenate([owner[~halve], owner[halve], owner[halve]])
    bounds = np.full(len(splines), np.inf)
    np.minimum.at(bounds, owner, pieces.min(axis=0, initial=np.inf))
    if hi > knots[-1]:
        bounds = np.minimum(bounds, [w._tail[2] for w in splines])
    return bounds


def _convexity_bound(w: WarpingFunction, lo, hi):
    """A lower bound of sigma'' on [lo, hi] read from the coefficients of ``w``, or None where it has none.

    Only the exact types of the package take it (a subclass may evaluate
    otherwise): sinh and the identity are convex, and so is an odd
    polynomial whose coefficients past the linear one are nonnegative (the
    bound is sigma''(0) = 0); a ``ScaledWarp`` scales the bound of its base
    on the scaled interval by sqrt(k); a ``SplineWarp`` bounds sigma'' by
    the Bernstein coefficients of its pieces (``_spline_convexity_bounds``).
    ``hi`` may be inf.
    """
    kind = type(w)
    if kind is ScaledWarp:
        base = _convexity_bound(w.base, w._sqrt_k * lo, w._sqrt_k * hi)
        return None if base is None else w._sqrt_k * base
    if kind is SplineWarp:
        return float(_spline_convexity_bounds([w], lo, hi)[0])
    if kind is OddPolynomialWarp:
        return 0.0 if (w.coefficients[1:] >= 0.0).all() else None
    return 0.0 if kind in (IdentityWarp, SinhWarp) else None


def _convexity_bounds(warps, lo, hi) -> list:
    """``_convexity_bound`` of each warp; splines that ``_ray_rows`` evaluates together are bounded together."""
    if _evaluated_jointly(warps) is SplineWarp:
        return [float(b) for b in _spline_convexity_bounds(warps, lo, hi)]
    return [_convexity_bound(w, lo, hi) for w in warps]


@dataclass(frozen=True)
class ModelManifold:
    """A rotationally symmetric space: dimension plus warping function."""

    dim: int
    warp: WarpingFunction

    def __post_init__(self):
        _count(self.dim, "model manifold dim", 2)


@dataclass
class CurvatureReport:
    """Curvatures of a warp with a nonpositivity verdict.

    A sampled report holds the grid and the two sectional curvatures there,
    and ``worst_violation`` is their largest value.  A report proved from
    structure (the glue certificates of the package's warp types) holds no
    samples: its three arrays are None, and ``worst_violation`` is
    max(0, -m) for the proved lower bound m of sigma''.  A glue certificate
    whose samples of sigma are not positive holds a report without arrays
    that is not nonpositive, with an infinite ``worst_violation``.
    """

    grid: np.ndarray | None
    sec_rad: np.ndarray | None
    sec_tg: np.ndarray | None
    is_nonpositive: bool
    worst_violation: float

    def to_json_dict(self):
        return {
            **{name: None if getattr(self, name) is None else [float(x) for x in getattr(self, name)]
               for name in ("grid", "sec_rad", "sec_tg")},
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


def _convex_rows(d2):
    """``sigma'' >= -SIGN_TOL * (1 + |sigma''|)`` at every sample of each row (the last axis); NaN fails."""
    return np.all(d2 >= -SIGN_TOL * (1.0 + np.abs(d2)), axis=-1)


def _curvature_report(w: WarpingFunction, grid, samples) -> CurvatureReport:
    """The report of ``is_cartan_hadamard`` from the samples (sigma, sigma', sigma'') of ``w`` on the positive ``grid``.

    sigma must be positive there.
    """
    s, d1, d2 = samples
    if np.any(s <= 0.0):
        raise DomainError(f"warp {w.kind} is nonpositive at some positive radius; curvature undefined")
    sec_rad, sec_tg = -d2 / s, (1.0 - d1 * d1) / (s * s)
    curv = np.maximum(sec_rad, sec_tg)
    nonpositive = bool(_convex_rows(d2)) and bool(np.all(curv <= SIGN_TOL * (1.0 + np.abs(curv))))
    return CurvatureReport(grid=grid, sec_rad=sec_rad, sec_tg=sec_tg, is_nonpositive=nonpositive,
                           worst_violation=float(np.max(curv)))


def is_cartan_hadamard(w: WarpingFunction, grid) -> CurvatureReport:
    """Certify nonpositive curvature of the model generated by ``w`` on a strictly increasing positive grid.

    The verdict is true iff ``sigma'' >= -tol`` at every grid point and both
    sampled curvatures stay below tol, with tol = SIGN_TOL * (1 + |value|)
    pointwise so that genuine violations are distinguished from rounding.
    """
    grid = _grid(grid, "certification grid")
    return _curvature_report(w, grid, w.evaluate(grid))


def is_hyperbolic_type(w: WarpingFunction, grid) -> HyperbolicTypeReport:
    """Check the hyperbolic-type conditions on a strictly increasing positive grid and the scales k = 2^0, ..., 2^12.

    Certifies (i) convexity ``sigma'' >= -tol`` on the grid and (ii) for every
    scale k that ``sigma_k' >= sigma_k - tol`` with ``sigma_k`` strictly
    increasing along the scales at each radius (finite surrogate for
    divergence as k -> infinity).  ``w`` is evaluated once, on the scaled
    radii sqrt(k) r of every scale stacked as rows; the row of k = 1 is the
    grid itself and gives the convexity samples.
    """
    grid = _grid(grid, "hyperbolic-type grid")
    sqrt_k = np.sqrt(np.array(_HYPERBOLIC_SCALES))[:, None]
    # a scaled warp that overflows gives inf - inf = NaN, which fails both tests
    with np.errstate(over="ignore", invalid="ignore"):
        s, dvals, d2 = w.evaluate(sqrt_k * grid)  # sigma_k = s / sqrt(k), sigma_k' = sigma'(sqrt(k) r)
        vals = s / sqrt_k
        gaps = np.min(dvals - vals, axis=1)
        slope_ok = bool(np.all(gaps >= -SIGN_TOL * (1.0 + np.max(np.abs(vals), axis=1))))
        steps = np.min(np.diff(vals, axis=0), axis=1)
    convex_ok = bool(_convex_rows(d2[0]))
    growth_ok = bool(np.all(steps > 0.0))
    return HyperbolicTypeReport(
        is_hyperbolic=convex_ok and slope_ok and growth_ok,
        convex_ok=convex_ok,
        slope_ok=slope_ok,
        growth_ok=growth_ok,
        min_ddsigma=float(np.min(d2[0])),
        worst_slope_gap=float(np.min(gaps)),
        min_growth_step=float(np.min(steps)),
    )


def save_warp_csv(path, w: WarpingFunction, grid) -> None:
    """Write warp samples as CSV with header ``r,sigma,dsigma,ddsigma`` at two or more radii, as the loader needs."""
    grid = _grid(grid, "warp sample grid", least=2, zero=True)
    write_table(path, "r,sigma,dsigma,ddsigma", (np.column_stack([grid, *w.evaluate(grid)]), "%.17g"))


def load_warp_csv(path) -> SplineWarp:
    """Load a warp sample CSV (header ``r,sigma,dsigma,ddsigma``)."""
    _, data, _ = read_table(path, "warp sample", "r,sigma,dsigma,ddsigma", columns=4)
    if data.shape[0] < 2:
        raise UsageError(f"{path}: warp sample file needs at least two knots")
    return SplineWarp(data[:, 0], data[:, 1], data[:, 2], data[:, 3])
