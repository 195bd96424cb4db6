import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BPoly

from pharmap.errors import DomainError, UsageError
from pharmap.glue import GlueSpec, glue_pipeline
from pharmap.warp import (
    CurvatureReport,
    IdentityWarp,
    OddPolynomialWarp,
    ScaledWarp,
    SinhWarp,
    SplineWarp,
    WarpingFunction,
    _build_splines,
    _convexity_bound,
    _convexity_bounds,
    _evaluated_jointly,
    _hermite_bernstein,
    _ray_rows,
    is_cartan_hadamard,
    is_hyperbolic_type,
    load_warp_csv,
    save_warp_csv,
)

R_PLUS_R3 = OddPolynomialWarp([1.0, 1.0])


def quintic_through(w, knots):
    """The quintic spline through the values and both derivatives of ``w`` at ``knots``."""
    return SplineWarp(knots, *w.evaluate(knots))


def test_eval_analytic_values():
    s, d1, d2 = SinhWarp().evaluate(1.0)
    assert s == pytest.approx(math.sinh(1.0), abs=1e-15)
    assert d1 == pytest.approx(math.cosh(1.0), abs=1e-15)
    assert d2 == pytest.approx(math.sinh(1.0), abs=1e-15)
    assert IdentityWarp().evaluate(5.0) == (5.0, 1.0, 0.0)
    assert R_PLUS_R3.evaluate(2.0) == (10.0, 13.0, 12.0)


def test_eval_at_pole_and_negative_radius():
    for w in (IdentityWarp(), SinhWarp(), R_PLUS_R3):
        s, d1, _ = w.evaluate(0.0)
        assert s == 0.0 and d1 == 1.0
        with pytest.raises(DomainError):
            w.evaluate(-0.1)


def test_finite_difference_consistency_order():
    # d(sigma)/dr via central differences reproduces dsigma at order ~2;
    # steps chosen so truncation dominates roundoff (see second block for d2).
    radii = np.array([0.3, 0.9, 1.7, 3.1])
    for w in (SinhWarp(), R_PLUS_R3):
        errs = []
        for h in (1e-3, 1e-4):
            sp, _, _ = w.evaluate(radii + h)
            sm, _, _ = w.evaluate(radii - h)
            _, d1, _ = w.evaluate(radii)
            errs.append(np.max(np.abs((sp - sm) / (2 * h) - d1)))
        order = math.log10(errs[0] / errs[1])
        assert order >= 1.9
        errs2 = []
        for h in (1e-2, 1e-3):
            sp, _, _ = w.evaluate(radii + h)
            sm, _, _ = w.evaluate(radii - h)
            s0, _, d2 = w.evaluate(radii)
            errs2.append(np.max(np.abs((sp - 2 * s0 + sm) / h**2 - d2)))
        if isinstance(w, SinhWarp):
            assert math.log10(errs2[0] / errs2[1]) >= 1.9
        else:
            # second differences are exact for cubics; only roundoff remains
            assert max(errs2) < 1e-8


def curvatures(w, r):
    """The radial and tangential curvatures of ``is_cartan_hadamard``'s report at the positive radii ``r``."""
    report = is_cartan_hadamard(w, np.atleast_1d(np.asarray(r, dtype=float)))
    return report.sec_rad, report.sec_tg


def test_curvature_formulas():
    r = np.linspace(0.05, 5.0, 37)
    rad, tg = curvatures(SinhWarp(), r)
    assert np.allclose(rad, -1.0, atol=1e-12)
    assert np.allclose(tg, -1.0, atol=5e-13, rtol=1e-12)
    rad, tg = curvatures(IdentityWarp(), r)
    assert np.all(rad == 0.0) and np.all(tg == 0.0)
    rad, tg = curvatures(R_PLUS_R3, 1.0)
    assert rad[0] == pytest.approx(-3.0, rel=1e-14)
    assert tg[0] == pytest.approx(-3.75, rel=1e-14)


def test_curvature_pole_limits():
    # both curvatures tend to -sigma'''(0) at the pole, which the report, on positive radii only, leaves out
    r = np.array([1e-4, 1e-3])
    for w in (SinhWarp(), IdentityWarp(), R_PLUS_R3, ScaledWarp(R_PLUS_R3, 2.0)):
        for sec in curvatures(w, r):
            assert np.allclose(sec, -w.third_at_zero, rtol=1e-5, atol=0.0)
    sampled = quintic_through(SinhWarp(), np.linspace(0.0, 2.0, 50))
    with pytest.raises(UsageError):
        is_cartan_hadamard(sampled, np.array([0.0, 0.5]))


def test_scalar_radius_and_curvature_array_contract():
    # a scalar radius gives three np.float64 with the bytes of the one-element
    # evaluation, for every warp class and every piece of a glued warp
    glued, _ = glue_pipeline(GlueSpec(R_PLUS_R3, SinhWarp(), 1.0, 4.0))  # R1 = 2, R2 = 3
    sampled = quintic_through(SinhWarp(), np.linspace(0.0, 6.0, 61))
    warps = [IdentityWarp(), SinhWarp(), R_PLUS_R3, ScaledWarp(SinhWarp(), 4.0), sampled, glued]
    for w in warps:
        for r in (0.0, 0.7, 2.0, 2.5, 3.0, 3.5, 7.0):
            got = w.evaluate(r)
            want = w.evaluate(np.array([r]))
            assert len(got) == 3 and all(type(v) is np.float64 for v in got)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    # the report's curvature arrays are the formulas at every radius, for every warp class
    r = np.array([0.5, 2.0, 3.5])
    for w in warps:
        s, d1, d2 = w.evaluate(r)
        rad, tg = curvatures(w, r)
        assert np.array_equal(rad, -d2 / s)
        assert np.array_equal(tg, (1.0 - d1**2) / s**2)


def test_is_cartan_hadamard():
    grid = np.linspace(0.025, 5.0, 200)
    assert is_cartan_hadamard(SinhWarp(), grid).is_nonpositive
    assert is_cartan_hadamard(R_PLUS_R3, grid).is_nonpositive
    with pytest.raises(UsageError):
        is_cartan_hadamard(SinhWarp(), np.array([]))


def test_grid_checks_refuse_a_nan_radius():
    # NaN fails every comparison, so the grid checks are written to fail on it
    for grid in ([0.5, np.nan, 1.0], [np.nan, 0.5, 1.0], [0.5, 1.0, np.nan]):
        with pytest.raises(UsageError, match="certification grid must be strictly increasing and positive"):
            is_cartan_hadamard(SinhWarp(), grid)
        with pytest.raises(UsageError, match="hyperbolic-type grid must be strictly increasing and positive"):
            is_hyperbolic_type(SinhWarp(), grid)


def test_is_cartan_hadamard_detects_spherical_cap():
    # sigma = r - r^3/3 has sigma'' = -2r < 0; worst curvature sits at the
    # largest radius (confirmed by direct evaluation of -sigma''/sigma).
    grid = np.linspace(0.05, 1.0, 200)
    r = grid
    sampled = SplineWarp(grid, r - r**3 / 3, 1 - r**2, -2 * r)
    report = is_cartan_hadamard(sampled, grid)
    assert not report.is_nonpositive
    r_end = grid[-1]
    expected_worst = 2 * r_end / (r_end - r_end**3 / 3)
    assert report.worst_violation == pytest.approx(expected_worst, rel=1e-9)
    assert np.argmax(np.maximum(report.sec_rad, report.sec_tg)) == len(grid) - 1


def test_sign_theorem_convexity_implies_tangential_nonpositive():
    grid = np.linspace(0.05, 5.0, 300)
    for w in (SinhWarp(), R_PLUS_R3, OddPolynomialWarp([1.0, 0.25, 0.01])):
        report = is_cartan_hadamard(w, grid)
        assert report.is_nonpositive
        assert np.all(report.sec_tg <= 1e-9 * (1 + np.abs(report.sec_tg)))


def test_scale_k_values():
    sk = ScaledWarp(SinhWarp(), 4.0)
    s, d1, d2 = sk.evaluate(1.0)
    assert s == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-15)
    assert d1 == pytest.approx(math.cosh(2.0), rel=1e-15)
    assert d2 == pytest.approx(2.0 * math.sinh(2.0), rel=1e-15)
    trivial = ScaledWarp(R_PLUS_R3, 1.0)
    r = np.linspace(0.0, 3.0, 17)
    for got, ref in zip(trivial.evaluate(r), R_PLUS_R3.evaluate(r)):
        assert np.allclose(got, ref, rtol=1e-15)
    with pytest.raises(DomainError):
        ScaledWarp(SinhWarp(), 0.0)


def test_curvature_scaling_law():
    # sec(ScaledWarp(w, k))(r) = k * sec(w)(sqrt(k) r), both flavours, rel 1e-10.
    r = np.linspace(0.2, 3.0, 29)
    for w in (SinhWarp(), R_PLUS_R3):
        for k in (2.0, 4.0, 9.0):
            sk = ScaledWarp(w, k)
            for lhs, rhs in zip(curvatures(sk, r), curvatures(w, np.sqrt(k) * r)):
                assert np.allclose(lhs, k * rhs, rtol=1e-10)
    assert curvatures(ScaledWarp(SinhWarp(), 4.0), 1.0)[0][0] == pytest.approx(-4.0, rel=1e-12)


def test_is_hyperbolic_type():
    grid = np.linspace(0.05, 5.0, 200)
    assert is_hyperbolic_type(SinhWarp(), grid).is_hyperbolic
    rep_id = is_hyperbolic_type(IdentityWarp(), grid)
    assert not rep_id.is_hyperbolic
    assert not rep_id.growth_ok  # sigma_k = r does not diverge in k
    rep_poly = is_hyperbolic_type(R_PLUS_R3, grid)
    assert not rep_poly.is_hyperbolic
    assert not rep_poly.slope_ok  # sigma_k' < sigma_k at large r (e.g. r=4, k=1)
    overflow = np.geomspace(1e-2, 11.2, 512)  # sinh(sqrt(4096) * 11.2) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep_inf = is_hyperbolic_type(SinhWarp(), overflow)
    assert not rep_inf.is_hyperbolic
    assert not rep_inf.slope_ok
    assert math.isnan(rep_inf.worst_slope_gap)  # the NaN of inf - inf is reported, not dropped


def test_spline_round_trip():
    knots = np.linspace(0.0, 4.0, 400)
    mid = 0.5 * (knots[:-1] + knots[1:])
    for w in (SinhWarp(), R_PLUS_R3):
        for spline in (quintic_through(w, knots), SplineWarp(knots, *w.evaluate(knots)[:2])):  # quintic, cubic
            s_ref, d_ref, _ = w.evaluate(mid)
            s_got, d_got, _ = spline.evaluate(mid)
            assert np.max(np.abs(s_got - s_ref)) <= 1e-8
            assert np.max(np.abs(d_got - d_ref)) <= 1e-6


def test_spline_triple_consistency_between_knots():
    spline = quintic_through(SinhWarp(), np.linspace(0.0, 3.0, 60))
    r = np.linspace(0.31, 2.7, 11)  # away from knots
    h = 1e-5
    sp, _, _ = spline.evaluate(r + h)
    sm, _, _ = spline.evaluate(r - h)
    s0, d1, d2 = spline.evaluate(r)
    assert np.max(np.abs((sp - sm) / (2 * h) - d1)) < 1e-8
    assert np.max(np.abs((sp - 2 * s0 + sm) / h**2 - d2)) < 1e-4


def test_spline_domain_and_tail():
    spline = quintic_through(SinhWarp(), np.linspace(1.0, 2.0, 20))
    with pytest.raises(DomainError):
        spline.evaluate(0.5)
    # quadratic Taylor tail beyond the last knot, anchored at the spline data
    h = 1e-6
    s2, d2_, dd2 = spline.evaluate(2.0)
    s_tail, d_tail, dd_tail = spline.evaluate(2.0 + h)
    assert s_tail == pytest.approx(s2 + d2_ * h + 0.5 * dd2 * h * h, rel=1e-12)
    assert d_tail == pytest.approx(d2_ + dd2 * h, rel=1e-9)
    assert dd_tail == pytest.approx(dd2, rel=1e-6)


@st.composite
def spline_queries(draw):
    """A cubic or quintic spline through sinh or r + r^3; radii of shape (), (7,) or (3, 4) on and past its knots."""
    base = draw(st.sampled_from([SinhWarp(), R_PLUS_R3]))
    first = draw(st.sampled_from([0.0, 0.5]))
    knots = np.linspace(first, first + draw(st.floats(0.5, 3.0)), draw(st.integers(2, 40)))
    quintic = draw(st.booleans())
    spline = quintic_through(base, knots) if quintic else SplineWarp(knots, *base.evaluate(knots)[:2])
    shape = draw(st.sampled_from([(), (7,), (3, 4)]))
    size = math.prod(shape)
    radius = st.one_of(st.floats(first, knots[-1] + 2.0), st.sampled_from(list(knots)),
                       st.just(max(first - 1e-13, 0.0)))  # just below the first knot is clipped onto it
    return spline, np.reshape(draw(st.lists(radius, min_size=size, max_size=size)), shape)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spline_queries())
def test_spline_call_is_the_value_of_evaluate(query):
    spline, r = query
    got, want = spline(r), spline.evaluate(r)[0]
    assert type(got) is type(want) and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    bad = [[-1.0], [np.nan]] + ([[spline.radii[0] - 1e-6]] if spline.radii[0] > 0.0 else [])
    for radii in bad:
        with pytest.raises(DomainError) as call_err:
            spline(np.append(r, radii))
        with pytest.raises(DomainError) as eval_err:
            spline.evaluate(np.append(r, radii))
        assert str(call_err.value) == str(eval_err.value)


def test_spline_validation():
    with pytest.raises(UsageError):
        SplineWarp([0.0, 0.0, 1.0], [0, 0, 1], [1, 1, 1])
    with pytest.raises(UsageError):
        SplineWarp([0.0, 1.0], [0.5, 1.0], [1.0, 1.0])  # sigma(0) != 0


def test_warp_csv_round_trip(tmp_path):
    path = tmp_path / "warp.csv"
    save_warp_csv(path, SinhWarp(), np.linspace(0.0, 3.0, 200))
    loaded = load_warp_csv(path)
    r = np.linspace(0.1, 2.9, 23)
    s_ref, d_ref, _ = SinhWarp().evaluate(r)
    s_got, d_got, _ = loaded.evaluate(r)
    assert np.max(np.abs(s_got - s_ref)) < 1e-10
    assert np.max(np.abs(d_got - d_ref)) < 1e-8


def test_odd_polynomial_rejects_non_finite_coefficients():
    for bad in ([1.0, math.nan], [1.0, math.inf], [1.0, 0.5, -math.inf]):
        with pytest.raises(UsageError, match="finite"):
            OddPolynomialWarp(bad)


def test_curvature_report_json_fields():
    report = is_cartan_hadamard(SinhWarp(), np.linspace(0.1, 1.0, 5))
    doc = report.to_json_dict()
    assert list(doc) == ["grid", "sec_rad", "sec_tg", "is_nonpositive", "worst_violation"]
    assert isinstance(report, CurvatureReport)


def test_scaled_warp_nesting():
    w = ScaledWarp(ScaledWarp(SinhWarp(), 2.0), 2.0)
    ref = ScaledWarp(SinhWarp(), 4.0)
    r = np.linspace(0.0, 2.0, 9)
    for got, want in zip(w.evaluate(r), ref.evaluate(r)):
        assert np.allclose(got, want, rtol=1e-14)


# two spline columns on the knots 0.5, 1e5; the first one's terminal second derivative underflows to -0.0
NEGATIVE_ZERO_TAIL = _build_splines([0.5, 1e5], [[0.0, 0.5], [0.0, 1e5]], [[1e-320, 1.0], [-1e-320, 1.0]])


@st.composite
def ray_lists(draw):
    """A list of rays that ``_ray_rows`` evaluates jointly, or ray by ray, and 1d radii to evaluate it at.

    Spline rays are columns r + c r^3 (c in [0, 3]) sampled on one knot array
    from 0 or 0.5, cubic or quintic: all columns built together, a run of
    them, or each column built on its own.  Odd-polynomial rays share
    their coefficient count.  A mixed list adds r + r^3 to spline rays.  The
    radii lie at knots, between them, past the last one and within 1e-13
    below the first.
    """
    kind = draw(st.sampled_from(["together", "run", "alone", "mixed", "odd"]))
    if kind == "odd":
        terms = draw(st.integers(1, 4))
        coefficients = st.lists(st.floats(-2.0, 3.0), min_size=terms - 1, max_size=terms - 1)
        rays = [OddPolynomialWarp([1.0] + draw(coefficients)) for _ in range(draw(st.integers(1, 5)))]
        return rays, np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12)))
    first = draw(st.sampled_from([0.0, 0.5]))
    knots = np.linspace(first, first + draw(st.floats(0.5, 3.0)), draw(st.integers(2, 30)))
    cubic = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5)))
    t = knots[:, None]
    data = [t + cubic * t**3, 1.0 + 3.0 * cubic * t**2] + ([6.0 * cubic * t] if draw(st.booleans()) else [])
    if kind == "alone":
        rays = [SplineWarp(knots, *(d[:, j] for d in data)) for j in range(cubic.size)]
    else:
        rays = _build_splines(knots, *data)
    if kind == "run":
        lo = draw(st.integers(0, cubic.size - 1))
        rays = rays[lo:draw(st.integers(lo + 1, cubic.size))]
    if kind == "mixed":
        rays.insert(draw(st.integers(0, len(rays))), R_PLUS_R3)
    radius = st.one_of(st.floats(first, knots[-1] + 2.0), st.sampled_from(list(knots)),
                       st.just(max(first - 1e-13, 0.0)))
    return rays, np.array(draw(st.lists(radius, min_size=1, max_size=12)))


def spline_reference(ray, r):
    """(sigma, sigma', sigma'') of a spline ray the way a spline on its own evaluates: one polynomial per
    order built from the ray's knot data alone, masked onto the radii up to the last knot, and the Taylor
    tail from float anchors past it."""
    poly = BPoly(_hermite_bernstein(ray.radii, ray.values, ray.derivs, ray.second_derivs), ray.radii)
    polys = (poly, poly.derivative(), poly.derivative().derivative())
    rN = ray.radii[-1]
    v, dv, ddv = float(polys[0](rN)), float(polys[1](rN)), float(polys[2](rN - 1e-12))
    inside = r <= rN
    out = [np.empty_like(r) for _ in polys]
    for o, p in zip(out, polys):
        o[inside] = p(np.clip(r[inside], ray.radii[0], rN))
    dr = r[~inside] - rN
    out[0][~inside] = v + dv * dr + 0.5 * ddv * dr * dr
    out[1][~inside] = dv + ddv * dr
    out[2][~inside] = ddv
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ray_lists())
@example((NEGATIVE_ZERO_TAIL, np.array([0.5, 7.0, 1e5, 1.5e5, 2e5])))
def test_joint_evaluation_equals_each_rays_own_evaluation(case):
    rays, r = case
    mixed = len({type(w) for w in rays}) > 1
    assert _evaluated_jointly(rays) is (None if mixed else type(rays[0]))
    got = list(_ray_rows(rays, r))
    assert len(got) == len(rays) and all(v.shape == r.shape for row in got for v in row)
    if not mixed:  # evaluated jointly: each order's rows are rows of one (rays, r.size) table
        assert all(row[o].base is got[0][o].base is not None for row in got for o in range(3))
        assert got[0][0].base.size == len(rays) * r.size
    for ray, row in zip(rays, got):
        for a, b in zip(row, ray.evaluate(r)):
            assert a.tobytes() == b.tobytes()
        if type(ray) is SplineWarp:  # and equals a spline on its own, also in the sign of a zero tail sigma''
            for a, b in zip(row, spline_reference(ray, r)):
                assert a.tobytes() == b.tobytes()
    first = rays[0]
    if type(first) is SplineWarp and first.radii[0] > 0.0:
        bad = np.append(r, first.radii[0] - 1e-6)
        with pytest.raises(DomainError) as joint:
            list(_ray_rows(rays, bad))
        with pytest.raises(DomainError) as own:
            first.evaluate(bad)
        assert str(joint.value) == str(own.value)


def test_a_terminal_second_derivative_of_negative_zero_is_kept_past_the_last_knot():
    rays, r = NEGATIVE_ZERO_TAIL, np.array([0.5, 1e5, 2e5, 3e5])
    got = np.array([row[2] for row in _ray_rows(rays, r)])
    assert np.signbit(got[0, 2:]).all() and (got[0, 2:] == 0.0).all()
    for j, ray in enumerate(rays):
        assert got[j].tobytes() == ray.evaluate(r)[2].tobytes()


def test_rays_are_evaluated_alone_in_order_where_the_joint_evaluation_fails():
    # r + 2.5e307 r^3 overflows at r = 2, so the joint Horner pass raises under warnings as errors; each ray
    # is then evaluated alone as its row is read: the rays before it give their rows, and it raises
    rays = [R_PLUS_R3, OddPolynomialWarp([1.0, -0.1]), OddPolynomialWarp([1.0, 2.5e307])]
    r = np.array([0.5, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = iter(_ray_rows(rays, r))
        for ray in rays[:2]:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(next(rows), ray.evaluate(r)))
        with pytest.raises(RuntimeWarning, match="overflow"):
            next(rows)
    # a bad radius: the first ray raises the error it raises alone
    with pytest.raises(DomainError, match="radii must be nonnegative"):
        next(iter(_ray_rows(rays, np.array([1.0, -1.0]))))
    assert list(_ray_rows([], r)) == []


def test_splines_built_together_own_contiguous_coefficients():
    knots = np.linspace(0.0, 2.0, 20)[:, None]
    cubic = np.array([1.0, 2.0, 3.0])
    values = knots + cubic * knots**3
    rays = _build_splines(knots[:, 0], values, 1.0 + 3.0 * cubic * knots**2)
    assert all(w.radii is rays[0].radii and np.shares_memory(w.values, values) for w in rays)
    # a ray evaluated on its own copies nothing, and no table of all rays is kept
    polys = [p for w in rays for p in w._polys]
    assert all(p.c.flags.c_contiguous and p.c.ndim == 2 for p in polys)
    assert not any(np.shares_memory(a.c, b.c) for a in polys for b in polys if a is not b)


def test_build_reports_the_first_failure_of_the_first_failing_column():
    knots = np.linspace(0.0, 1.0, 5)
    good = np.stack([knots, np.ones(5)], axis=1)
    values = np.stack([knots, knots, knots], axis=1)
    derivs = np.ones((5, 3))
    with pytest.raises(UsageError, match="sigma\\(0\\)=0"):
        bad_pole, bad_data = values.copy(), derivs.copy()
        bad_pole[0, 1] = 0.5  # column 1 fails the pole check
        bad_data[3, 2] = np.nan  # column 2 fails the earlier finiteness check, but it comes later
        _build_splines(knots, bad_pole, bad_data)
    with pytest.raises(UsageError, match="finite"):
        bad_data = derivs.copy()
        bad_data[3, 0] = np.inf
        _build_splines(knots, values, bad_data)
    with pytest.raises(UsageError, match="share one shape"):
        _build_splines(knots, good, derivs)
    assert _build_splines(knots, np.empty((5, 0)), np.empty((5, 0))) == []


class Forwarding(WarpingFunction):
    """A warp of another class that forwards ``evaluate`` to ``base``."""

    def __init__(self, base):
        self.base = base

    def evaluate(self, r):
        return self.base.evaluate(r)


def test_convexity_bound_of_the_analytic_types():
    convex = [IdentityWarp(), SinhWarp(), R_PLUS_R3, OddPolynomialWarp([1.0, 0.0, 2.0]), ScaledWarp(SinhWarp(), 9.0)]
    assert [_convexity_bound(w, 0.0, np.inf) for w in convex] == [0.0] * len(convex)

    class Sinh(SinhWarp):  # a subclass may evaluate otherwise
        pass

    # a negative coefficient past the linear one, a subclass or another warp class: no proof
    for w in (OddPolynomialWarp([1.0, 1.0, -1e-3]), Sinh(), ScaledWarp(Sinh(), 4.0), Forwarding(SinhWarp())):
        assert _convexity_bound(w, 0.0, 1.0) is None


def test_convexity_bound_of_a_cubic_spline_is_the_least_sigma2_on_the_interval():
    # a cubic spline's sigma'' is linear on each piece, and the pieces at both ends are restricted to the
    # interval: the bound is the least value of sigma''; past the last knot it is the tail's constant
    knots = np.linspace(0.0, 3.0, 7)
    convex = SplineWarp(knots, *R_PLUS_R3.evaluate(knots)[:2])  # r + r^3, sigma'' = 6r
    concave = SplineWarp(knots, knots - 0.1 * knots**3, 1.0 - 0.3 * knots**2)  # sigma'' = -0.6r
    assert _convexity_bound(convex, 0.7, 2.2) == pytest.approx(4.2, rel=1e-12)
    assert _convexity_bound(convex, 0.0, np.inf) == pytest.approx(0.0, abs=1e-12)
    assert _convexity_bound(concave, 0.7, 2.2) == pytest.approx(-1.32, rel=1e-12)
    assert _convexity_bound(concave, 3.5, np.inf) == pytest.approx(-1.8, rel=1e-12)
    # sigma_k'' = sqrt(k) sigma''(sqrt(k) r)
    assert _convexity_bound(ScaledWarp(convex, 4.0), 0.35, 1.1) == pytest.approx(8.4, rel=1e-12)
    # spline warps on one knot array are bounded together, each as alone
    rays = [convex, concave, SplineWarp(knots, knots + 0.5 * knots**2, 1.0 + knots)]
    assert _evaluated_jointly(rays) is SplineWarp
    for lo, hi in ((0.0, 2.1), (0.7, 2.2), (1.0, 1.0 + 1e-9), (2.5, np.inf), (3.5, np.inf)):
        assert _convexity_bounds(rays, lo, hi) == [_convexity_bound(w, lo, hi) for w in rays]


def quintic_piece(e, root=0.5):
    """The quintic spline on the knots 0, 1 of a quartic whose sigma'' is (r - root)^2 + e."""
    r = np.array([0.0, 1.0])
    a = root * root + e
    return SplineWarp(r, r + r**4 / 12.0 - root * r**3 / 3.0 + a * r**2 / 2.0,
                      1.0 + r**3 / 3.0 - root * r**2 + a * r, (r - root) ** 2 + e)


def test_convexity_bound_halves_quintic_pieces_whose_coefficients_dip():
    # sigma'' = (r - 1/2)^2 + e has the Bernstein coefficients e + 1/4, e - 1/12, e - 1/12, e + 1/4:
    # halved once, each half has coefficients >= e, the value at r = 1/2
    assert _convexity_bound(quintic_piece(0.01), 0.0, 1.0) == pytest.approx(0.01, rel=1e-12)
    assert _convexity_bound(quintic_piece(0.0), 0.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert _convexity_bound(quintic_piece(-0.01), 0.0, 1.0) == pytest.approx(-0.01, rel=1e-12)
    # a double root at r = 1/3, where no halving ends: after the fixed halvings the bound is still
    # negative, and the convex piece is not proved convex
    assert -1e-3 < _convexity_bound(quintic_piece(0.0, 1.0 / 3.0), 0.0, 1.0) < -1e-9
    # together, each as alone
    rays = [quintic_piece(e, root) for e, root in ((0.01, 0.5), (0.0, 1.0 / 3.0), (-0.01, 0.5), (0.2, 0.9))]
    assert _convexity_bounds(rays, 0.0, 1.0) == [_convexity_bound(w, 0.0, 1.0) for w in rays]
