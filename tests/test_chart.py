import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pharmap.chart import R_TINY, TargetChart
from pharmap.errors import DomainError, UsageError
from pharmap.warp import IdentityWarp, ModelManifold, OddPolynomialWarp, ScaledWarp, SinhWarp, SplineWarp

SINH2 = TargetChart(ModelManifold(2, SinhWarp()))
SINH3 = TargetChart(ModelManifold(3, SinhWarp()))
FLAT2 = TargetChart(ModelManifold(2, IdentityWarp()))
POLY3 = TargetChart(ModelManifold(3, OddPolynomialWarp([1.0, 0.5, 0.1])))


def at(method, x):
    """A chart method at the one point ``x``, as the one row of a (1, n) batch."""
    return method(np.asarray(x)[None])[0]


def test_metric_euclidean_identity():
    x = np.array([0.3, -1.2])
    assert np.array_equal(at(FLAT2.metric, x), np.eye(2))
    line = TargetChart(None)
    assert np.array_equal(at(line.metric, [2.0]), np.eye(1))


def test_metric_radial_tangential_split():
    h = at(SINH2.metric, [1.0, 0.0])
    want = np.diag([1.0, math.sinh(1.0) ** 2])
    assert np.allclose(h, want, atol=1e-14)
    # radial eigenvector has eigenvalue 1 at any point
    x = np.array([0.6, -0.8])
    h = at(SINH2.metric, x)
    assert np.allclose(h @ x, x, atol=1e-14)


def sampled_sinh():
    """A quintic spline through sinh and both its derivatives at 40 knots of [0, 2]: a warp with no known third
    derivative at the pole."""
    knots = np.linspace(0, 2, 40)
    return SplineWarp(knots, *SinhWarp().evaluate(knots))


def test_metric_pole_limit():
    for chart in (SINH2, SINH3):
        assert np.allclose(at(chart.metric, np.zeros(chart.dim)), np.eye(chart.dim), atol=1e-15)
        x = np.full(chart.dim, 1e-8)
        h = at(chart.metric, x)
        assert np.allclose(h, np.eye(chart.dim), atol=1e-14)
    sampled = TargetChart(ModelManifold(2, sampled_sinh()))
    with pytest.raises(DomainError):
        sampled.metric(np.array([[1e-8, 0.0]]))


def test_metric_spd_bound():
    rng = np.random.default_rng(7)
    for chart in (SINH2, SINH3):
        n = chart.dim
        x = rng.normal(size=(64, n)) * 1.5
        H = chart.metric(x)
        r = np.linalg.norm(x, axis=1)
        s = np.sinh(r)
        lower = np.minimum(1.0, (s / r) ** 2)
        for Hi, lo in zip(H, lower):
            ev = np.linalg.eigvalsh(Hi)
            assert ev.min() >= lo - 1e-12
            assert np.allclose(Hi, Hi.T)


def test_metric_rotational_equivariance():
    rng = np.random.default_rng(11)
    for chart in (SINH2, SINH3):
        n = chart.dim
        for _ in range(8):
            A = rng.normal(size=(n, n))
            Q, _ = np.linalg.qr(A)
            x = rng.normal(size=n) * 2.0
            left = at(chart.metric, Q @ x)
            right = Q @ at(chart.metric, x) @ Q.T
            assert np.allclose(left, right, atol=1e-12)


def test_metric_jacobian_symmetry_and_fd():
    rng = np.random.default_rng(3)
    step = 1e-5
    worst = 0.0
    for chart in (SINH2, SINH3):
        n = chart.dim
        for _ in range(50):
            x = rng.normal(size=n)
            r = np.linalg.norm(x)
            if not (0.1 <= r <= 5.0):
                x = x / r * rng.uniform(0.1, 5.0)
            dh = at(chart.metric_jacobian, x)
            assert np.allclose(dh, np.swapaxes(dh, 0, 1))  # dh_ijk == dh_jik exactly
            fd = np.empty_like(dh)
            for k in range(n):
                e = np.zeros(n)
                e[k] = step
                fd[:, :, k] = (at(chart.metric, x + e) - at(chart.metric, x - e)) / (2 * step)
            scale = max(1.0, np.max(np.abs(dh)))
            worst = max(worst, np.max(np.abs(fd - dh)) / scale)
    assert worst <= 1e-6


def test_metric_jacobian_flat_zero():
    assert np.array_equal(at(FLAT2.metric_jacobian, [0.4, 0.7]), np.zeros((2, 2, 2)))


def test_metric_jacobian_series_branch_continuity():
    # series branch (r < R_TINY) agrees with the direct formula just above it
    x_dir = np.array([1.2e-6, 0.9e-6])
    x_ser = x_dir * 0.8
    dh_dir = at(SINH2.metric_jacobian, x_dir)
    dh_ser = at(SINH2.metric_jacobian, x_ser)
    assert np.max(np.abs(dh_ser / 0.8 - dh_dir)) < 1e-8


def test_dist_to_pole():
    assert at(SINH2.dist_to_pole, [3.0, 4.0]) == 5.0
    assert at(SINH2.dist_to_pole, np.zeros(2)) == 0.0
    rng = np.random.default_rng(5)
    x = rng.normal(size=2)
    th = 1.234
    Q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    assert at(SINH2.dist_to_pole, Q @ x) == pytest.approx(at(SINH2.dist_to_pole, x), rel=1e-15)


def test_radial_polyline_length():
    # the chart length of a radial polyline equals the radius
    chart = SINH2
    direction = np.array([math.cos(0.7), math.sin(0.7)])
    for npts in (16, 64):
        ts = np.linspace(0.0, 2.5, npts + 1)
        pts = ts[:, None] * direction[None, :]
        mids = 0.5 * (pts[1:] + pts[:-1])
        H = chart.metric(mids)
        seg = pts[1:] - pts[:-1]
        length = np.sum(np.sqrt(np.einsum("mi,mij,mj->m", seg, H, seg)))
        assert length == pytest.approx(2.5, abs=1e-12)


def test_manifold_dim_validation():
    with pytest.raises(Exception):
        ModelManifold(1, SinhWarp())


EPS = np.finfo(float).eps


@st.composite
def admissible_warps(draw):
    """Sinh, an odd polynomial with nonnegative coefficients, or a rescaling of either."""
    base = draw(st.sampled_from(["sinh", "poly"]))
    if base == "sinh":
        warp = SinhWarp()
    else:
        coeffs = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3))
        warp = OddPolynomialWarp([1.0, *coeffs])
    if draw(st.booleans()):
        warp = ScaledWarp(warp, draw(st.floats(0.25, 4.0)))
    return warp


@st.composite
def chart_points(draw):
    """A chart of dimension 2 or 3 and a point on either side of R_TINY (r <= 3)."""
    warp = draw(admissible_warps())
    chart = TargetChart(ModelManifold(draw(st.sampled_from([2, 3])), warp))
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=chart.dim, max_size=chart.dim)))
    assume(np.linalg.norm(u) > 0.1)
    exponent = draw(st.one_of(st.floats(-8.0, -5.0), st.floats(-3.0, math.log10(3.0))))
    return chart, u / np.linalg.norm(u) * 10.0**exponent


def rounding_bound(chart, x, dh):
    # c = (1 - w)/r^2 cancels above R_TINY: its absolute rounding error is
    # about eps/r^2, which reaches dh through c x as about eps/r
    r = np.linalg.norm(x)
    return 1e-13 * max(1.0, np.max(np.abs(dh))) + (16.0 * EPS / r if r >= R_TINY else 0.0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(chart_points(), st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))
def test_metric_jacobian_properties(case, rotation_seed):
    chart, x = case
    n = chart.dim
    dh = at(chart.metric_jacobian, x)
    assert np.array_equal(dh, np.swapaxes(dh, 0, 1))
    A = np.array(rotation_seed[: n * n]).reshape(n, n) + 3.0 * np.eye(n)
    Q, _ = np.linalg.qr(A)
    rotated = np.einsum("ia,jb,kc,abc->ijk", Q, Q, Q, dh)
    assert np.max(np.abs(at(chart.metric_jacobian, Q @ x) - rotated)) <= rounding_bound(chart, x, dh)
    if np.linalg.norm(x) >= 1e-3:
        step = 1e-5
        fd = np.stack([(at(chart.metric, x + step * e) - at(chart.metric, x - step * e)) / (2 * step)
                       for e in np.eye(n)], axis=-1)
        assert np.max(np.abs(fd - dh)) <= 1e-6 * max(1.0, np.max(np.abs(dh)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(admissible_warps(), st.sampled_from([2, 3]), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, math.pi))
def test_metric_jacobian_continuous_across_r_tiny(warp, n, phi, theta):
    chart = TargetChart(ModelManifold(n, warp))
    u = np.array([math.cos(phi), math.sin(phi)]) if n == 2 else np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    below = at(chart.metric_jacobian, u * R_TINY * (1.0 - 2.0**-20))
    above = at(chart.metric_jacobian, u * R_TINY * (1.0 + 2.0**-20))
    kappa = warp.third_at_zero / 3.0
    # the jump is rounding (see rounding_bound) plus the change of dh ~ kappa x over the gap
    assert np.max(np.abs(above - below)) <= 16.0 * EPS / R_TINY + 8.0 * abs(kappa) * R_TINY * 2.0**-19


def test_metric_jacobian_at_pole_is_zero():
    for chart in (SINH2, SINH3, POLY3):
        assert np.array_equal(at(chart.metric_jacobian, np.zeros(chart.dim)), np.zeros((chart.dim,) * 3))


def test_sampled_warp_metric_jacobian_refuses_the_pole():
    sampled = TargetChart(ModelManifold(2, sampled_sinh()))
    with pytest.raises(DomainError):
        sampled.metric_jacobian(np.array([[1e-8, 0.0]]))
    with pytest.raises(DomainError):
        sampled.metric_jacobian(np.array([[0.5, 0.0], [0.0, 1e-8]]))


def reference_radial(warp, r):
    """w, c, w'/r and c'/r point by point, series below R_TINY (module docstring)."""
    w, c, dw, dc = np.ones_like(r), np.zeros_like(r), np.zeros_like(r), np.zeros_like(r)
    small = r < R_TINY
    kappa = warp.third_at_zero / 3.0
    w[small] = 1.0 + kappa * r[small] * r[small]
    c[small] = -kappa
    dw[small] = 2.0 * kappa
    rb = r[~small]
    s, d1, _ = warp.evaluate(rb)
    w[~small] = (s / rb) ** 2
    c[~small] = (1.0 - w[~small]) / rb**2
    dw[~small] = 2.0 * s * (d1 * rb - s) / rb**4
    dc[~small] = -(dw[~small] + 2.0 * c[~small]) / rb**2
    return w, c, dw, dc


def reference_metric(chart, x):
    w, c, _, _ = reference_radial(chart.warp, np.linalg.norm(x, axis=1))
    return w[:, None, None] * np.eye(x.shape[1]) + c[:, None, None] * (x[:, :, None] * x[:, None, :])


def reference_metric_jacobian(chart, x):
    _, c, dw, dc = reference_radial(chart.warp, np.linalg.norm(x, axis=1))
    eye = np.eye(x.shape[1])
    xk = x[:, None, None, :]
    cx = c[:, None, None, None] * eye[None, :, None, :] * x[:, None, :, None]  # c delta_ik x_j
    return (dw[:, None, None, None] * eye[None, :, :, None] * xk
            + (dc[:, None, None] * (x[:, :, None] * x[:, None, :]))[..., None] * xk
            + (cx + cx.swapaxes(1, 2)))


@pytest.mark.parametrize("chart", [SINH2, SINH3, POLY3, FLAT2, TargetChart(None)],
                         ids=["sinh2", "sinh3", "poly3", "flat2", "line"])
def test_mixed_pole_batch_matches_single_points_and_reference(chart):
    n = chart.dim
    radii = [0.0, 3e-7, R_TINY * (1.0 - 2.0**-20), R_TINY * (1.0 + 2.0**-20), 1.0, 3.0]
    directions = [np.eye(n)[0], -np.ones(n) / math.sqrt(n), np.linspace(1.0, -0.5, n)]
    x = np.array([r * u / np.linalg.norm(u) for r in radii for u in directions])
    r = np.linalg.norm(x, axis=1)
    assert np.any((0.0 < r) & (r < R_TINY)) and np.any((R_TINY <= r) & (r < 2.0 * R_TINY))
    for method, reference in ((chart.metric, reference_metric),
                              (chart.metric_jacobian, reference_metric_jacobian)):
        batch = method(x)
        assert np.array_equal(batch, reference(chart, x))
        for xi, got in zip(x, batch):
            assert np.array_equal(at(method, xi), got)


@pytest.mark.parametrize("chart", [SINH2, SINH3, POLY3, FLAT2, TargetChart(None)],
                         ids=["sinh2", "sinh3", "poly3", "flat2", "line"])
def test_metric_on_a_transposed_entry_major_view_gives_the_bytes_of_a_contiguous_copy(chart):
    # the solver passes its quadrature points as the transpose of an (n, m) array
    n = chart.dim
    entry_major = np.random.default_rng(11).uniform(-2.0, 2.0, (n, 40))
    entry_major[:, 0] = 0.0
    entry_major[:, 1] *= 1e-7  # a pole point: the series branch
    view = entry_major.T
    points = np.ascontiguousarray(view)
    assert n == 1 or not view.flags.c_contiguous
    for method, reference in ((chart.metric, reference_metric),
                              (chart.metric_jacobian, reference_metric_jacobian)):
        got = method(view)
        assert got.shape == (40,) + (n,) * (got.ndim - 1)
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(method(points)).tobytes()
        assert np.array_equal(got, reference(chart, points))  # equal up to the sign of zeros, as above


def test_metric_and_jacobian_return_views_of_an_entry_major_buffer():
    x = np.random.default_rng(12).uniform(-1.0, 1.0, (7, 3))
    for got in (SINH3.metric(x), SINH3.metric_jacobian(x)):
        assert np.moveaxis(got, 0, -1).flags.c_contiguous
        assert np.array_equal(np.ascontiguousarray(got), got)


@pytest.mark.parametrize("method", ["metric", "metric_jacobian"])
def test_a_finite_point_whose_radius_overflows_is_refused(method):
    # |x|^2 overflows to inf although x is finite: the radius check still refuses it
    with np.errstate(over="ignore"):
        for x in (np.array([[1e200, 0.0]]), np.array([[0.5, 0.0], [0.0, -1e200]])):
            with pytest.raises(DomainError, match="finite"):
                getattr(SINH2, method)(x)


@pytest.mark.parametrize("method", ["metric", "metric_jacobian", "dist_to_pole"])
def test_a_single_point_is_refused_in_favour_of_a_batch_of_one(method):
    # points are always an (m, n) array: a 1-d point is not read as one row
    for chart, x in ((SINH2, np.array([0.3, 0.4])), (TargetChart(None), np.array([0.5]))):
        with pytest.raises(UsageError, match=r"shape \(m, "):
            getattr(chart, method)(x)
        assert getattr(chart, method)(x[None]).shape[0] == 1
