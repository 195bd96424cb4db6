import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pharmap.errors import DomainError, InfeasibleError, SearchExhaustedError, UsageError
from pharmap.glue import (
    _CERT_BLOCK,
    VALUE_TOL,
    GlueSpec,
    GluedWarp,
    _certify_rows,
    _glued_samples,
    build_tau,
    certify,
    choose_radii,
    default_certification_grid,
    find_k,
    glue2d,
    glue_pipeline,
    rays_from_polar_samples,
)
from pharmap.warp import IdentityWarp, OddPolynomialWarp, ScaledWarp, SinhWarp, is_cartan_hadamard

RHO = OddPolynomialWarp([1.0, 1.0])  # r + r^3
SIGMA = SinhWarp()


def counting(cls):
    """Subclass of a warp class whose instances record the radii of each ``evaluate`` call."""

    class Counting(cls):
        def evaluate(self, r):
            self.calls = getattr(self, "calls", []) + [np.asarray(r, dtype=float)]
            return super().evaluate(r)

    return Counting


def bracket_ok(rho, sigma_k, R1, R2, delta):
    """The plateau slope root lies in the nonempty bracket [rho'(R1-delta), sigma_k'(R2+delta)].

    Independent of ``glue``: tau(R2+delta; s) is rho(R1-delta) plus the areas
    under the derivative profile, two trapezoids of width 2 delta and the
    plateau rectangle between them.
    """
    rho_a, lo = rho.evaluate(np.asarray(R1 - delta))[:2]
    sig_d, hi = sigma_k.evaluate(np.asarray(R2 + delta))[:2]

    def mismatch(s):  # tau(R2+delta; s) - sigma_k(R2+delta)
        return rho_a + delta * (lo + s) + s * (R2 - R1 - 2 * delta) + delta * (s + hi) - sig_d

    slack = 1e-12 * max(1.0, abs(sig_d))
    return mismatch(lo) <= slack and mismatch(hi) >= -slack and lo <= hi


def secant_ok(rho, sigma_k, R1, R2):
    """The plain secant inequality rho'(R1) <= (sigma_k(R2) - rho(R1))/(R2 - R1) <= sigma_k'(R2)."""
    rho1, drho1 = rho.evaluate(np.asarray(R1))[:2]
    sig2, dsig2 = sigma_k.evaluate(np.asarray(R2))[:2]
    return drho1 <= (sig2 - rho1) / (R2 - R1) <= dsig2


def test_choose_radii():
    assert choose_radii(GlueSpec(RHO, SIGMA, 1.0, 4.0)) == (2.0, 3.0)
    assert choose_radii(GlueSpec(RHO, SIGMA, 1.0, 2.5)) == (1.5, 2.0)
    with pytest.raises(UsageError):
        choose_radii(GlueSpec(RHO, SIGMA, 2.0, 2.0))


def test_find_k_matches_direct_secant_evaluation():
    # oracle: scan the doubling sequence with an independent bracket check
    for delta in (0.0, 0.05):
        ks = [1.0, 2.0, 4.0, 8.0]
        feasible = [k for k in ks if bracket_ok(RHO, ScaledWarp(SIGMA, k), 2.0, 3.0, delta)]
        assert feasible and feasible[0] == 2.0  # k=1 fails, k=2 works
        assert find_k(RHO, SIGMA, 2.0, 3.0, delta) == 2.0


def test_bracket_at_zero_delta_is_the_secant_inequality():
    for rho in (RHO, IdentityWarp(), OddPolynomialWarp([1.0, 2.0, 0.5])):
        for R1, R2 in ((2.0, 3.0), (1.0, 2.0), (0.5, 3.5)):
            verdicts = [secant_ok(rho, ScaledWarp(SIGMA, 2.0**i), R1, R2) for i in range(8)]
            assert verdicts == [bracket_ok(rho, ScaledWarp(SIGMA, 2.0**i), R1, R2, 0.0) for i in range(8)]
            if True in verdicts:
                assert find_k(rho, SIGMA, R1, R2, 0.0) == 2.0 ** verdicts.index(True)


def test_find_k_identity_interior():
    # rho = r: plain secant inequality 1 <= sinh(2)-1 <= cosh(2) at k=1
    assert math.sinh(2.0) - 1.0 >= 1.0 and math.cosh(2.0) >= math.sinh(2.0) - 1.0
    assert find_k(IdentityWarp(), SIGMA, 1.0, 2.0, 0.0) == 1.0


def test_find_k_exhausts_for_flat_outer():
    # sigma_k = r for every k, delta = 0: tau(3; s) = rho(2) + s = 10 + s against sigma_k(3) = 3,
    # so the mismatch is 10 + 13 - 3 = 20 at s = rho'(2) = 13 and 10 + 1 - 3 = 8 at s = sigma_k'(3) = 1
    with pytest.raises(SearchExhaustedError) as err:
        find_k(RHO, IdentityWarp(), 2.0, 3.0, 0.0, k_max=2.0**20)
    message = str(err.value)
    assert f"worst ray 0 at k={2.0**20:g}:" in message
    assert "tail mismatch 20 at rho'(R1-delta) = 13, 8 at sigma_k'(R2+delta) = 1" in message


def test_find_k_deterministic_under_larger_cap():
    k1 = find_k(RHO, SIGMA, 2.0, 3.0, 0.05, k_max=2.0**20)
    k2 = find_k(RHO, SIGMA, 2.0, 3.0, 0.05, k_max=2.0**40)
    assert k1 == k2 == 2.0


def test_build_tau_identity_self_glue():
    gw = build_tau(IdentityWarp(), IdentityWarp(), 1.0, 2.0, 0.05)
    assert gw.s == pytest.approx(1.0, abs=1e-13)
    r = np.linspace(0.0, 3.0, 100)
    tau, dtau, ddtau = gw.evaluate(r)
    assert np.max(np.abs(tau - r)) < 1e-13
    assert np.max(np.abs(dtau - 1.0)) < 1e-13
    assert np.max(np.abs(ddtau)) < 1e-13
    cert = certify(gw, default_certification_grid(gw))
    assert cert.passed
    assert cert.head_mismatch == 0.0
    assert cert.tail_mismatch < 1e-12
    assert abs(cert.min_second_difference) < 1e-13
    assert abs(cert.min_slope_minus_one) < 1e-13


def test_build_tau_matches_tail_to_tolerance():
    gw = build_tau(RHO, ScaledWarp(SIGMA, 2.0), 2.0, 3.0, 0.05)
    d = gw.R2 + gw.delta
    tau_d = gw.evaluate(np.asarray(d))[0]
    sig_d = gw.sigma_k.evaluate(np.asarray(d))[0]
    assert abs(tau_d - sig_d) < 1e-10


def test_build_tau_plateau_slope_by_simpson_quadrature():
    # oracle: integrate tau' with composite Simpson from the head anchor and
    # compare with the closed-form values used by the implementation
    gw = build_tau(RHO, ScaledWarp(SIGMA, 2.0), 2.0, 3.0, 0.05)
    a, b, c, d = gw.edges

    def simpson(lo, hi, n=2001):
        xs = np.linspace(lo, hi, n)
        dvals = gw.evaluate(xs)[1]
        return (xs[1] - xs[0]) / 3.0 * (
            dvals[0] + dvals[-1] + 4 * dvals[1:-1:2].sum() + 2 * dvals[2:-1:2].sum()
        )

    # panels aligned with the derivative kinks (grid refined inside bands)
    segments = [a, b, c, d, d + 3 * gw.delta]
    acc = 0.0
    for lo, hi in zip(segments[:-1], segments[1:]):
        acc += simpson(lo, hi)
        want = gw.evaluate(np.asarray(hi))[0] - gw.rho.evaluate(np.asarray(a))[0]
        # agreement down to the roundoff of the quadrature sum itself
        assert acc == pytest.approx(want, rel=1e-10)


def test_build_tau_infeasible_k():
    # k=1 fails the feasibility rule for rho = r + r^3 on (2,3)
    with pytest.raises(InfeasibleError):
        build_tau(RHO, ScaledWarp(SIGMA, 1.0), 2.0, 3.0, 0.05)


def test_certify_full_pipeline_passes():
    gw, cert = glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, 4.0))
    assert gw.k == 2.0
    assert cert.passed
    assert cert.min_second_difference >= -1e-9
    assert cert.min_slope_minus_one >= -1e-12
    assert cert.head_mismatch == 0.0
    assert cert.tail_mismatch <= 1e-10
    assert np.max(np.maximum(cert.curvature.sec_rad, cert.curvature.sec_tg)) <= 1e-9


def test_certify_head_exactness_dense():
    gw, _ = glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, 4.0))
    r = np.linspace(0.0, gw.R1 - gw.delta, 1000)
    tau = gw.evaluate(r)[0]
    rho = gw.rho.evaluate(r)[0]
    assert np.max(np.abs(tau - rho)) == 0.0


def test_certify_convexity_on_refined_grid():
    gw, _ = glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, 4.0))
    cert = certify(gw, default_certification_grid(gw, 9001))
    assert cert.min_second_difference >= -1e-9


def test_certify_catches_corrupted_slope():
    gw, cert = glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, 4.0))
    assert cert.passed
    bad = gw.with_slope(gw.s - 0.5)
    bad_cert = certify(bad, default_certification_grid(bad))
    assert not bad_cert.passed
    assert bad_cert.tail_mismatch > 0.4


def test_certify_grid_validation():
    gw, _ = glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, 4.0))
    with pytest.raises(UsageError):
        certify(gw, np.linspace(0.0, 1.0, 2500))  # does not span the bands
    with pytest.raises(UsageError):
        certify(gw, np.linspace(0.0, gw.R2 + 4 * gw.delta, 100))  # too coarse


def test_tail_identification_constant_offset():
    gw, _ = glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, 4.0))
    r = np.linspace(gw.R2 + gw.delta, gw.R2 + 4.0, 500)
    tau, dtau, _ = gw.evaluate(r)
    sig, dsig, _ = gw.sigma_k.evaluate(r)
    assert np.max(np.abs(dtau - dsig)) == 0.0  # derivatives identical by construction
    offsets = tau - sig
    assert np.max(np.abs(offsets)) <= 1e-10
    assert np.max(offsets) - np.min(offsets) < 1e-12  # a single integration constant


def test_glue_spec_validation():
    with pytest.raises(UsageError):
        GlueSpec(RHO, IdentityWarp(), 1.0, 4.0).validate()  # outer warp not hyperbolic
    for k_max in (0.5, math.nan):
        with pytest.raises(UsageError):
            glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, 4.0, k_max=k_max))


def test_glue_spec_rejects_an_outer_warp_that_overflows_on_the_glue_grid():
    # sinh(sqrt(4096) * 2R) overflows for R >= 5.55; inf - inf = NaN must fail the check
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for R in (5.6, 6.0):
            with pytest.raises(UsageError, match="hyperbolic-type"):
                glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, R))
        _, cert = glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, 5.0))
    assert cert.passed


def test_glued_warp_band_misuse():
    with pytest.raises(DomainError):
        GluedWarp(RHO, ScaledWarp(SIGMA, 2.0), 2.0, 3.0, 0.6, 14.0)


def test_glued_warp_derives_k_and_slope():
    assert GluedWarp(RHO, ScaledWarp(SIGMA, 2.0), 2.0, 3.0, 0.05).k == 2.0
    assert GluedWarp(IdentityWarp(), IdentityWarp(), 1.0, 2.0, 0.05).k == 1.0
    with pytest.raises(InfeasibleError):
        GluedWarp(RHO, ScaledWarp(SIGMA, 1.0), 2.0, 3.0, 0.05)
    # an explicit slope is taken as given, even at an infeasible k, so certify can reject it
    bad = GluedWarp(RHO, ScaledWarp(SIGMA, 1.0), 2.0, 3.0, 0.05, 20.0)
    assert bad.s == 20.0 and bad.k == 1.0
    assert not certify(bad, default_certification_grid(bad)).passed


def test_build_tau_evaluates_each_anchor_once():
    rho = counting(OddPolynomialWarp)([1.0, 1.0])
    sigma_k = counting(ScaledWarp)(SIGMA, 2.0)
    gw = build_tau(rho, sigma_k, 2.0, 3.0, 0.05)
    assert [(c.ndim, float(c)) for c in rho.calls] == [(0, gw.edges[0])]
    assert [(c.ndim, float(c)) for c in sigma_k.calls] == [(0, gw.edges[3])]
    assert gw.k == 2.0


def test_certify_evaluates_the_glued_warp_once():
    gw = counting(GluedWarp)(RHO, ScaledWarp(SIGMA, 2.0), 2.0, 3.0, 0.05)
    grid = default_certification_grid(gw)
    cert = certify(gw, grid)
    assert len(gw.calls) == 1 and np.array_equal(gw.calls[0], grid)
    assert cert.passed
    # the report read from certify's own samples is the one of a fresh evaluation
    report = is_cartan_hadamard(gw, grid[grid > 0.0])
    for name in ("grid", "sec_rad", "sec_tg"):
        assert np.array_equal(getattr(cert.curvature, name), getattr(report, name))
    assert cert.curvature.is_nonpositive == report.is_nonpositive
    assert cert.curvature.worst_violation == report.worst_violation


def test_glue_certificate_json_keys_equal_fields():
    gw, cert = glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, 4.0))
    fields = {
        "pass": cert.passed,
        "min_second_difference": cert.min_second_difference,
        "min_slope_minus_one": cert.min_slope_minus_one,
        "head_mismatch": cert.head_mismatch,
        "tail_mismatch": cert.tail_mismatch,
        "max_sec_rad": np.max(cert.curvature.sec_rad),
        "max_sec_tg": np.max(cert.curvature.sec_tg),
        "curvature_nonpositive": cert.curvature.is_nonpositive,
        "value_tol": VALUE_TOL,
    }
    assert json.loads(json.dumps(cert.to_json_dict())) == fields
    fields.update(R1=gw.R1, R2=gw.R2, delta=gw.delta, k=gw.k, s=gw.s)
    assert json.loads(json.dumps(cert.to_json_dict(gw))) == fields


@pytest.mark.parametrize("k_max", [0.5, 0.0, -1.0, math.nan, math.inf])
def test_k_max_below_one_is_a_usage_error(k_max):
    with pytest.raises(UsageError, match="k_max >= 1"):
        find_k(RHO, SIGMA, 2.0, 3.0, 0.0, k_max=k_max)
    theta = 2 * np.pi * np.arange(4) / 4
    with pytest.raises(UsageError, match="k_max >= 1"):
        glue2d([RHO] * 4, theta, SIGMA, 1.0, 4.0, k_max=k_max)


def test_glue2d_flat_disk_reduces_to_identity_case():
    ntheta = 8
    theta = 2 * np.pi * np.arange(ntheta) / ntheta
    rays = [IdentityWarp() for _ in range(ntheta)]
    result = glue2d(rays, theta, SIGMA, 1.0, 4.0)
    assert result.passed
    assert np.allclose(result.slopes, result.slopes[0], rtol=1e-15)
    assert result.lip == pytest.approx(0.0, abs=1e-12)
    ref = find_k(IdentityWarp(), SIGMA, result.R1, result.R2, result.delta)
    assert result.k == ref


def test_glue2d_worst_ray_controls_k():
    ntheta = 16
    theta = 2 * np.pi * np.arange(ntheta) / ntheta
    rays = [OddPolynomialWarp([1.0, 2.0 + math.sin(t)]) for t in theta]
    result = glue2d(rays, theta, SIGMA, 1.0, 4.0)
    assert result.passed
    worst = OddPolynomialWarp([1.0, 3.0])
    assert result.k == find_k(worst, SIGMA, result.R1, result.R2, result.delta)
    # plateau slopes vary continuously in theta
    assert result.lip < 60.0
    steps = np.abs(np.diff(np.concatenate([result.slopes, result.slopes[:1]])))
    dtheta = 2 * np.pi / ntheta
    assert np.all(steps <= result.lip * dtheta + 1e-12)


def test_glue2d_concave_ray_rejected():
    ntheta = 4
    theta = 2 * np.pi * np.arange(ntheta) / ntheta
    t = np.linspace(0.0, 4.5, 200)
    nu = np.stack([t - 0.1 * t**3 for _ in range(ntheta)], axis=1)  # concave
    rays = rays_from_polar_samples(t, nu)
    with pytest.raises(UsageError):
        glue2d(rays, theta, SIGMA, 1.0, 4.0)


def test_glue2d_infeasible_names_worst_ray():
    ntheta = 4
    theta = 2 * np.pi * np.arange(ntheta) / ntheta
    rays = [OddPolynomialWarp([1.0, 2.0 + math.sin(t)]) for t in theta]
    with pytest.raises(SearchExhaustedError) as err:
        glue2d(rays, theta, SIGMA, 1.0, 4.0, k_max=1.0)
    # ray 1 (r + 3 r^3) is the steepest; R1, R2 = 2, 3 and delta = 0.05 at k = 1
    lower = 1.0 + 9.0 * 1.95**2
    upper = math.cosh(3.05)

    def mismatch(c, s):  # tau(3.05; s) - sinh(3.05) for the ray r + c r^3
        head = 1.95 + c * 1.95**3 + 0.05 * (1.0 + 3.0 * c * 1.95**2 + s)
        return head + 0.9 * s + 0.05 * (s + upper) - math.sinh(3.05)

    f_lo, f_hi = mismatch(3.0, lower), mismatch(3.0, upper)
    assert f_lo > 0.0
    assert f_lo > max(max(mismatch(c, 1.0 + 3.0 * c * 1.95**2), -mismatch(c, upper)) for c in (1.0, 2.0))
    message = str(err.value)
    assert "worst ray 1 at k=1:" in message
    assert (f"tail mismatch {f_lo:.6g} at rho'(R1-delta) = {lower:.6g}, "
            f"{f_hi:.6g} at sigma_k'(R2+delta) = {upper:.6g}") in message


def test_glue2d_sampled_rays_match_analytic():
    ntheta = 6
    theta = 2 * np.pi * np.arange(ntheta) / ntheta
    t = np.linspace(0.0, 4.5, 600)
    nu = np.stack([t + (2.0 + math.sin(th)) * t**3 for th in theta], axis=1)
    dnu = np.stack([1 + 3 * (2.0 + math.sin(th)) * t**2 for th in theta], axis=1)
    sampled = glue2d(rays_from_polar_samples(t, nu, dnu), theta, SIGMA, 1.0, 4.0)
    analytic = glue2d([OddPolynomialWarp([1.0, 2.0 + math.sin(th)]) for th in theta], theta, SIGMA, 1.0, 4.0)
    assert sampled.k == analytic.k
    assert np.allclose(sampled.slopes, analytic.slopes, rtol=1e-8)


def cubic_rays(n, sampled):
    """n rays r + c(theta) r^3, analytic or as splines through their samples."""
    theta = 2 * np.pi * np.arange(n) / n
    cubic = 2.0 + np.sin(3 * theta + 0.4)
    if not sampled:
        return theta, [OddPolynomialWarp([1.0, c]) for c in cubic]
    t = np.linspace(0.0, 4.5, 600)[:, None]
    return theta, rays_from_polar_samples(t[:, 0], t + cubic * t**3, 1.0 + 3.0 * cubic * t**2)


def assert_same_certificate(got, want):
    for name in ("min_second_difference", "min_slope_minus_one", "head_mismatch", "tail_mismatch", "passed"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("grid", "sec_rad", "sec_tg"):
        assert getattr(got.curvature, name).tobytes() == getattr(want.curvature, name).tobytes(), name
    assert got.curvature.is_nonpositive == want.curvature.is_nonpositive
    assert got.curvature.worst_violation == want.curvature.worst_violation


@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("n", [1, _CERT_BLOCK - 1, _CERT_BLOCK, _CERT_BLOCK + 1, 33])
def test_glue2d_blocks_equal_per_ray_certify(n, sampled):
    # oracle: each ray glued by build_tau on its own and certified on its own default grid
    theta, rays = cubic_rays(n, sampled)
    result = glue2d(rays, theta, SIGMA, 1.0, 4.0)
    assert result.passed and len(result.certificates) == n
    sigma_k = ScaledWarp(SIGMA, result.k)
    for j, ray in enumerate(rays):
        want = build_tau(ray, sigma_k, result.R1, result.R2, result.delta)
        grid = default_certification_grid(want, 2001)
        got = result.glued[j]
        assert got.s == want.s == result.slopes[j]
        assert (got.k, got.R1, got.R2, got.delta) == (want.k, want.R1, want.R2, want.delta)
        for a, b in zip(got.evaluate(grid), want.evaluate(grid)):
            assert a.tobytes() == b.tobytes()
        assert_same_certificate(result.certificates[j], certify(want, grid))


def test_certify_rows_rejects_only_the_corrupted_rows_of_a_mixed_block():
    theta, rays = cubic_rays(_CERT_BLOCK // 2, False)
    good = glue2d(rays, theta, SIGMA, 1.0, 4.0).glued
    block = [gw if j % 2 else gw.with_slope(gw.s - 0.5) for gw in good for j in range(2)]
    grid = default_certification_grid(block[0], 2001)
    certs = _certify_rows(block, grid, _glued_samples(block, grid))
    assert [c.passed for c in certs] == [False, True] * len(good)
    for gw, cert in zip(block, certs):
        assert_same_certificate(cert, certify(gw, grid))


def test_glue2d_evaluates_each_anchor_once():
    theta = 2 * np.pi * np.arange(_CERT_BLOCK + 1) / (_CERT_BLOCK + 1)
    rays = [counting(OddPolynomialWarp)([1.0, 2.0 + math.sin(t)]) for t in theta]
    sigma = counting(SinhWarp)()
    result = glue2d(rays, theta, sigma, 1.0, 4.0)
    a, d = result.R1 - result.delta, result.R2 + result.delta
    # each ray: the convexity window, rho(R1-delta) for the search, its head samples, the certificate's head
    for ray in rays:
        assert [c.ndim for c in ray.calls] == [1, 0, 1, 1]
        assert float(ray.calls[1]) == a
    # sigma_k at R2+delta (sigma at sqrt(k) (R2+delta)): once per doubling tried, once for the glued warps
    scalar = [float(c[0]) for c in sigma.calls if c.shape == (1,)]
    doublings = int(math.log2(result.k))
    assert scalar == [math.sqrt(2.0**m) * d for m in range(doublings + 1)] + [math.sqrt(result.k) * d]


def test_with_slope_reuses_the_anchors():
    rho = counting(OddPolynomialWarp)([1.0, 1.0])
    sigma_k = counting(ScaledWarp)(SIGMA, 2.0)
    gw = build_tau(rho, sigma_k, 2.0, 3.0, 0.05)
    bad = gw.with_slope(gw.s - 0.5)
    assert len(rho.calls) == len(sigma_k.calls) == 1
    want = GluedWarp(OddPolynomialWarp([1.0, 1.0]), ScaledWarp(SIGMA, 2.0), 2.0, 3.0, 0.05, gw.s - 0.5)
    grid = default_certification_grid(want)
    for a, b in zip(bad.evaluate(grid), want.evaluate(grid)):
        assert a.tobytes() == b.tobytes()
    assert not certify(bad, grid).passed


@st.composite
def glue_specs(draw):
    """rho = r + sum_i a_i r^(2i+1) with 1 to 3 coefficients a_i in [0, 2), sigma = sinh, R < 5.5."""
    coeffs = draw(st.lists(st.floats(0.0, 2.0, exclude_max=True), min_size=1, max_size=3))
    R_bar = draw(st.floats(0.2, 2.0, exclude_max=True))
    R = R_bar + draw(st.floats(0.5, min(4.5, 5.5 - R_bar), exclude_max=True))
    return GlueSpec(OddPolynomialWarp([1.0] + coeffs), SIGMA, R_bar, R)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(glue_specs())
def test_find_k_returns_the_smallest_k_that_build_tau_accepts(spec):
    R1, R2 = choose_radii(spec)
    delta = min(0.05, (R2 - R1) / 10.0)
    k = find_k(spec.rho, spec.sigma, R1, R2, delta, spec.k_max)
    assert build_tau(spec.rho, ScaledWarp(spec.sigma, k), R1, R2, delta).k == k
    if k > 1.0:
        with pytest.raises(InfeasibleError):
            GluedWarp(spec.rho, ScaledWarp(spec.sigma, k / 2.0), R1, R2, delta)


@pytest.mark.parametrize("coeffs, R_bar, R, k", [([1.0, 2.0], 0.87, 2.54, 8.0), ([1.0], 1.94, 2.49, 32.0)])
def test_glue_pipeline_certifies_at_the_smallest_feasible_k(coeffs, R_bar, R, k):
    # a delta-shifted chord accepts k = 4 for the first spec, which build_tau
    # rejects, and first accepts k = 128 for the second, whose warp fails its certificate
    rho = OddPolynomialWarp(coeffs)
    gw, cert = glue_pipeline(GlueSpec(rho, SIGMA, R_bar, R))
    assert gw.k == k
    assert cert.passed
    assert bracket_ok(rho, ScaledWarp(SIGMA, k), gw.R1, gw.R2, gw.delta)
    assert not bracket_ok(rho, ScaledWarp(SIGMA, k / 2.0), gw.R1, gw.R2, gw.delta)
    with pytest.raises(InfeasibleError):
        GluedWarp(rho, ScaledWarp(SIGMA, k / 2.0), gw.R1, gw.R2, gw.delta)
