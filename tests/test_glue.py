import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pharmap.errors import DomainError, InfeasibleError, SearchExhaustedError, UsageError
from pharmap.glue import (
    VALUE_TOL,
    GlueSpec,
    GluedWarp,
    _glue_plan,
    _proved_certificates,
    build_tau,
    certify,
    default_certification_grid,
    find_k,
    glue2d,
    glue_pipeline,
    rays_from_polar_samples,
)
from pharmap.warp import (IdentityWarp, OddPolynomialWarp, ScaledWarp, SinhWarp, SplineWarp, WarpingFunction,
                          _convexity_bound, _evaluated_jointly, is_cartan_hadamard)

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
    # the interior thirds of (R_bar, R), and the band half-width min(0.05, (R2-R1)/10)
    assert _glue_plan(GlueSpec(RHO, SIGMA, 1.0, 4.0)) == (2.0, 3.0, 0.05)
    assert _glue_plan(GlueSpec(RHO, SIGMA, 1.0, 2.5)) == (1.5, 2.0, 0.05)
    assert _glue_plan(GlueSpec(RHO, SIGMA, 1.0, 1.6)) == pytest.approx((1.2, 1.4, 0.02), rel=1e-14)
    with pytest.raises(UsageError):
        _glue_plan(GlueSpec(RHO, SIGMA, 2.0, 2.0))


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
        find_k(RHO, IdentityWarp(), 2.0, 3.0, 0.0)
    message = str(err.value)
    assert f"worst ray 0 at k={2.0**40:g}:" in message
    assert "tail mismatch 20 at rho'(R1-delta) = 13, 8 at sigma_k'(R2+delta) = 1" in message


def test_find_k_stops_where_sigma_k_overflows():
    # sinh(sqrt(k) 2.8) overflows first at k = 2^16; from there on every bracket test compares NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SearchExhaustedError) as err:
            find_k(OddPolynomialWarp([1.0, 1e4]), SIGMA, 0.5, 2.6, 0.2)
    message = str(err.value)
    assert message.startswith(f"sigma_k(R2+delta) overflows at k={2.0**16:g} ")
    assert f"worst ray 0 at k={2.0**15:g}: tail mismatch " in message and "nan" not in message
    # sinh(720) overflows already at k = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SearchExhaustedError, match=r"overflows at k=1 .*; no smaller k was tried$"):
            find_k(RHO, SIGMA, 700.0, 720.0, 0.0)


def test_find_k_takes_an_overflowing_bracket_end_as_a_mismatch():
    # sigma_k'(R2+delta) is finite up to k = 4096, but times R2 - R1 it exceeds the float range there:
    # f_hi = +inf is a very positive mismatch, so the search goes on to the overflow of sigma_k at k = 8192
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SearchExhaustedError) as err:
            find_k(OddPolynomialWarp([1.0, 1e100]), SIGMA, 1.0, 709 / 64 - 1 / 16, 1 / 16)
    message = str(err.value)
    assert message.startswith(f"sigma_k(R2+delta) overflows at k={8192:g} ")
    assert f"worst ray 0 at k={4096:g}: tail mismatch " in message
    assert ", inf at sigma_k'(R2+delta) = " in message


def test_find_k_orders_rays_whose_own_terms_overflow():
    # rho'(R1-delta) (R2-R1) of r + 1e306 r^3 exceeds the float range; the search still ends on its own error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SearchExhaustedError, match="worst ray 0 at k="):
            find_k(OddPolynomialWarp([1.0, 1e306]), SIGMA, 1.2, 200.0, 0.1)


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
    # proved from structure: rho'' = 6r and sinh'' are >= 0, the ramps curve up, the plateau's 0 is the
    # smallest curvature, and tau'(0) = rho'(0) = 1
    assert cert.min_second_difference == 0.0 and min(c for _, _, c in gw._pieces) == 0.0
    assert cert.min_slope_minus_one == 0.0
    assert cert.head_mismatch == 0.0
    d = np.asarray(gw.edges[3])
    assert cert.tail_mismatch == abs(gw.evaluate(d)[0] - gw.sigma_k.evaluate(d)[0]) <= 1e-10
    assert cert.curvature.grid is cert.curvature.sec_rad is cert.curvature.sec_tg is None
    assert cert.curvature.is_nonpositive and cert.curvature.worst_violation == 0.0
    # the sampled audit passes too, and its tail samples include R2+delta
    audit = certify(gw, default_certification_grid(gw))
    assert audit.passed
    assert audit.min_second_difference >= -1e-9
    assert audit.min_slope_minus_one == cert.min_slope_minus_one
    assert cert.tail_mismatch <= audit.tail_mismatch <= 1e-10
    assert np.max(np.maximum(audit.curvature.sec_rad, audit.curvature.sec_tg)) <= 1e-9


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


def test_glue_pipeline_proves_spline_heads_from_their_coefficients():
    t = np.linspace(0.0, 4.5, 200)
    spline = SplineWarp(t, *RHO.evaluate(t)[:2])  # r + r^3, whose sigma'' = 6r the cubic pieces hold exactly
    gw, cert = glue_pipeline(GlueSpec(spline, SIGMA, 1.0, 4.0))
    assert gw.k == 2.0 and cert.passed and cert.curvature.sec_rad is None
    assert -1e-12 < cert.min_second_difference <= 0.0
    # r - 0.3 r^3 has sigma'' = -1.8r: the bound on the head [0, R1-delta] is -1.8 * 1.95; the glued
    # warp dips below 0 there, and the certificate fails without sampling it
    concave = SplineWarp(t, t - 0.3 * t**3, 1.0 - 0.9 * t**2)
    gw, cert = glue_pipeline(GlueSpec(concave, SIGMA, 1.0, 4.0))
    assert not cert.passed and not cert.curvature.is_nonpositive
    assert cert.min_second_difference == pytest.approx(-1.8 * gw.edges[0], rel=1e-12)
    # the sampled audit fails it too: its curvatures are undefined where tau <= 0
    grid = default_certification_grid(gw)
    assert np.min(gw.evaluate(grid)[0][1:]) <= 0.0
    audit = certify(gw, grid)
    assert not audit.passed and not audit.curvature.is_nonpositive
    assert audit.curvature.sec_rad is None and audit.curvature.worst_violation == math.inf
    with pytest.raises(DomainError, match="nonpositive at some positive radius"):
        is_cartan_hadamard(gw, grid[1:])


def test_glue_pipeline_on_a_generic_concave_head_fails_like_the_proved_path():
    # the concave head above behind a generic wrapper: the pipeline certifies it from samples and
    # returns a failed certificate with the same k and slope, as the proved path does
    t = np.linspace(0.0, 4.5, 200)
    concave = SplineWarp(t, t - 0.3 * t**3, 1.0 - 0.9 * t**2)
    proved_gw, proved = glue_pipeline(GlueSpec(concave, SIGMA, 1.0, 4.0))
    gw, cert = glue_pipeline(GlueSpec(Forwarding(concave), SIGMA, 1.0, 4.0))
    assert (gw.k, gw.s) == (proved_gw.k, proved_gw.s)
    assert not proved.passed and not cert.passed
    assert not cert.curvature.is_nonpositive and cert.curvature.sec_rad is None
    assert cert.min_second_difference < -1e-9
    doc = cert.to_json_dict(gw)
    assert doc["pass"] is False and doc["curvature_nonpositive"] is False and doc["max_sec_rad"] is None


def test_certify_grid_validation():
    gw, _ = glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, 4.0))
    with pytest.raises(UsageError):
        certify(gw, np.linspace(0.0, 1.0, 2500))  # does not span the bands
    with pytest.raises(UsageError):
        certify(gw, np.linspace(0.0, gw.R2 + 4 * gw.delta, 100))  # too coarse
    # the default grid has the points asked for, with no silent raise to 2000, so certify refuses it too
    coarse = default_certification_grid(gw, 101)
    assert np.array_equal(coarse, np.union1d(np.linspace(0.0, gw.R2 + 4.0 * gw.delta, 101), gw.edges))
    with pytest.raises(UsageError, match="at least 2000 points"):
        certify(gw, coarse)
    assert default_certification_grid(gw, 2001).size == 2001 + 4  # no edge falls on a point here


def test_certify_refuses_a_nan_grid_radius():
    gw, _ = glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, 4.0))
    for at in (0, 1000, -1):
        grid = default_certification_grid(gw)
        grid[at] = math.nan
        with pytest.raises(UsageError, match="certification grid must be strictly increasing"):
            certify(gw, grid)


def test_find_k_refuses_a_nan_band_half_width():
    # NaN fails every comparison, so the range check is written to fail on it
    for delta in (math.nan, -0.1, 0.5):
        with pytest.raises(DomainError, match="0 <= delta < \\(R2-R1\\)/2"):
            find_k(RHO, SIGMA, 1.0, 2.0, delta)


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
    gw, proved = glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, 4.0))
    audit = certify(gw, default_certification_grid(gw))
    for cert in (proved, audit):
        sampled = cert is audit  # a certificate proved from structure holds no sampled curvatures
        fields = {
            "pass": cert.passed,
            "min_second_difference": cert.min_second_difference,
            "min_slope_minus_one": cert.min_slope_minus_one,
            "head_mismatch": cert.head_mismatch,
            "tail_mismatch": cert.tail_mismatch,
            "max_sec_rad": np.max(cert.curvature.sec_rad) if sampled else None,
            "max_sec_tg": np.max(cert.curvature.sec_tg) if sampled else None,
            "curvature_nonpositive": cert.curvature.is_nonpositive,
            "value_tol": VALUE_TOL,
        }
        assert json.loads(json.dumps(cert.to_json_dict())) == fields
        fields.update(R1=gw.R1, R2=gw.R2, delta=gw.delta, k=gw.k, s=gw.s)
        assert json.loads(json.dumps(cert.to_json_dict(gw))) == fields


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
    # rays r + 1e21 (2 + sin theta) r^3, of which ray 1 (c = 3e21) is the steepest; R1, R2 = 2, 3 and
    # delta = 0.05.  No k passes, and sinh(sqrt(k) 3.05) overflows first at k = 2^16: the search ends
    # there and reports k = 2^15, where sigma_k swamps the rays' terms and their rounded mismatches tie
    ntheta = 4
    theta = 2 * np.pi * np.arange(ntheta) / ntheta
    rays = [OddPolynomialWarp([1.0, 1e21 * (2.0 + math.sin(t))]) for t in theta]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SearchExhaustedError) as err:
            glue2d(rays, theta, SIGMA, 1.0, 4.0)
    k, c = 2.0**15, 3e21
    lower = 1.0 + 3.0 * c * 1.95**2
    upper = math.cosh(math.sqrt(k) * 3.05)

    def mismatch(s):  # tau(3.05; s) - sigma_k(3.05) for the ray r + c r^3
        head = 1.95 + c * 1.95**3 + 0.05 * (lower + s)
        return head + 0.9 * s + 0.05 * (s + upper) - math.sinh(math.sqrt(k) * 3.05) / math.sqrt(k)

    f_lo, f_hi = mismatch(lower), mismatch(upper)
    message = str(err.value)
    assert message.startswith(f"sigma_k(R2+delta) overflows at k={2.0**16:g} ")
    assert f"worst ray 1 at k={k:g}:" in message
    assert (f"tail mismatch {f_lo:.6g} at rho'(R1-delta) = {lower:.6g}, "
            f"{f_hi:.6g} at sigma_k'(R2+delta) = {upper:.6g}") in message
    assert "nan" not in message and "inf" not in message


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
@pytest.mark.parametrize("n", [1, 7, 8, 9, 33])
def test_glue2d_blocks_equal_per_ray_certify(n, sampled):
    # oracle: each ray glued by build_tau on its own and certified on its own default grid; generic
    # rays take the sampled window and certificate
    theta, rays = cubic_rays(n, sampled)
    rays = [Forwarding(ray) for ray in rays]
    result = glue2d(rays, theta, SIGMA, 1.0, 4.0)
    assert result.passed and len(result.certificates) == n
    sigma_k = ScaledWarp(SIGMA, result.k)
    for j, ray in enumerate(rays):
        want = build_tau(ray, sigma_k, result.R1, result.R2, result.delta)
        grid = default_certification_grid(want, 2001)
        got = result.glued[j]
        assert got._anchors == want._anchors  # rho(R1-delta) from the window call equals the scalar evaluation
        assert got.s == want.s == result.slopes[j]
        assert (got.k, got.R1, got.R2, got.delta) == (want.k, want.R1, want.R2, want.delta)
        for a, b in zip(got.evaluate(grid), want.evaluate(grid)):
            assert a.tobytes() == b.tobytes()
        assert_same_certificate(result.certificates[j], certify(want, grid))


class Forwarding(WarpingFunction):
    """A warp that forwards ``evaluate`` to ``base``: glue evaluates a list of them ray by ray."""

    def __init__(self, base):
        self.base = base
        self.kind = base.kind
        self.third_at_zero = base.third_at_zero

    def evaluate(self, r):
        return self.base.evaluate(r)


@pytest.mark.parametrize("sampled", [False, True])
def test_glue2d_gives_the_same_result_on_rays_evaluated_jointly_and_one_by_one(sampled):
    # the package's rays are proved convex and certified from their coefficients; the same rays behind a
    # generic wrapper are sampled one by one: the same k, anchors, slopes and verdicts
    theta, rays = cubic_rays(19, sampled)
    assert _evaluated_jointly(rays) is (SplineWarp if sampled else OddPolynomialWarp)
    wrapped = [Forwarding(ray) for ray in rays]
    assert _evaluated_jointly(wrapped) is None
    joint = glue2d(rays, theta, SIGMA, 1.0, 4.0)
    alone = glue2d(wrapped, theta, SIGMA, 1.0, 4.0)
    assert joint.passed and alone.passed
    for name in ("k", "R1", "R2", "delta", "lip"):
        assert getattr(joint, name) == getattr(alone, name), name
    assert joint.slopes.tobytes() == alone.slopes.tobytes()
    for got, want in zip(joint.glued, alone.glued):
        assert got._anchors == want._anchors and got.s == want.s
    grid = default_certification_grid(joint.glued[0], 2001)
    for gw, got, want in zip(joint.glued, joint.certificates, alone.certificates):
        assert got.curvature.sec_rad is None and want.curvature.sec_rad is not None
        assert got.curvature.is_nonpositive
        assert got.curvature.worst_violation == max(0.0, -got.min_second_difference) <= 1e-9
        assert -1e-12 <= got.min_slope_minus_one <= want.min_slope_minus_one  # a proved lower bound
        assert got.head_mismatch == want.head_mismatch == 0.0
        assert got.tail_mismatch <= want.tail_mismatch  # the sampled tail starts at R2+delta
        # a proved lower bound of tau'' lies below every sample of it
        assert got.min_second_difference <= np.min(gw.evaluate(grid)[2])


def test_glue2d_samples_rays_without_a_structural_proof_together():
    # r + c r^3 - 1e-3 r^5 is convex on the checking window, but a negative coefficient leaves it
    # without a structural proof: the rays are sampled, as one table, with the results of one by one
    theta, cubic = cubic_rays(19, False)
    rays = [OddPolynomialWarp([1.0, ray.coefficients[1], -1e-3]) for ray in cubic]
    assert all(_convexity_bound(ray, 0.0, 1.0) is None for ray in rays)
    assert _evaluated_jointly(rays) is OddPolynomialWarp
    joint = glue2d(rays, theta, SIGMA, 1.0, 4.0)
    alone = glue2d([Forwarding(ray) for ray in rays], theta, SIGMA, 1.0, 4.0)
    assert joint.passed and alone.passed
    assert joint.k == alone.k and joint.slopes.tobytes() == alone.slopes.tobytes()
    for got, want in zip(joint.certificates, alone.certificates):
        assert got.curvature.sec_rad is not None
        assert_same_certificate(got, want)


def test_glue2d_reports_the_first_ray_in_order_that_fails():
    theta = 2 * np.pi * np.arange(4) / 4
    t = np.linspace(0.0, 4.5, 200)
    concave = rays_from_polar_samples(t, (t - 0.1 * t**3)[:, None])[0]
    # knots from 0.5: the checking window starts at delta * 1e-3, where this ray cannot be evaluated
    knots = np.linspace(0.5, 4.5, 50)
    late = SplineWarp(knots, *RHO.evaluate(knots))
    concave_first = "^ray 1 \\(theta=1.5708\\) is concave on the checking window"
    # the package's rays are proved convex from their coefficients, generic ones sampled: the same errors
    for wrap in (lambda ray: ray, Forwarding):
        with pytest.raises(DomainError, match="below first knot"):
            glue2d([wrap(ray) for ray in (RHO, late, RHO, RHO)], theta, SIGMA, 1.0, 4.0)
        with pytest.raises(UsageError, match=concave_first):
            glue2d([wrap(ray) for ray in (RHO, concave, late, RHO)], theta, SIGMA, 1.0, 4.0)
        # r + 2.5e307 r^3 overflows on the window, which raises under warnings as errors, and the
        # concave ray before it raises first, also where the odd polynomials are evaluated together
        big = OddPolynomialWarp([1.0, 2.5e307])
        rays = [wrap(ray) for ray in (RHO, OddPolynomialWarp([1.0, -0.1]), big, RHO)]
        assert _evaluated_jointly(rays) is (None if wrap is Forwarding else OddPolynomialWarp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                glue2d([wrap(RHO), wrap(big)], theta[::2], SIGMA, 1.0, 4.0)  # two rays, uniform [0, pi]
            with pytest.raises(UsageError, match=concave_first):
                glue2d(rays, theta, SIGMA, 1.0, 4.0)


def test_glue2d_refuses_angles_that_are_not_uniform_on_the_circle():
    # lip divides by the spacing 2 pi / len(theta_grid) and wraps the last ray onto the first, so a
    # sector, an unsorted or a NaN grid would give a wrong bound
    rays = [OddPolynomialWarp([1.0, 2.0 + 0.1 * j]) for j in range(4)]
    uniform = 2 * np.pi * np.arange(4) / 4
    for theta in (np.linspace(0.0, np.pi / 2, 4), uniform[[0, 2, 1, 3]], np.append(uniform[:3], np.nan)):
        with pytest.raises(UsageError, match=r"theta_grid must be uniform on \[0, 2\*pi\)"):
            glue2d(rays, theta, SIGMA, 1.0, 4.0)
    # the rule of PolarMetricGrid: uniform from any first angle; one ray is accepted
    result = glue2d(rays, uniform + 0.3, SIGMA, 1.0, 4.0)
    assert result.passed and result.lip == glue2d(rays, uniform, SIGMA, 1.0, 4.0).lip > 0.0
    assert glue2d(rays[:1], np.array([1.0]), SIGMA, 1.0, 4.0).lip == 0.0


def test_generic_glued_warps_are_audited_without_calling_certify(monkeypatch):
    # glue2d and glue_pipeline audit a warp they cannot prove on the default grid that they build,
    # which passes certify's checks by construction; the certificates are certify's on that grid
    import pharmap.glue as glue_module

    theta, rays = cubic_rays(5, True)
    rays = [Forwarding(ray) for ray in rays]
    spec = GlueSpec(Forwarding(RHO), SIGMA, 1.0, 4.0)
    want_rays = glue2d(rays, theta, SIGMA, 1.0, 4.0)
    want_gw, want = glue_pipeline(spec)

    def refuse(*args, **kwargs):
        raise AssertionError("certify was called")

    monkeypatch.setattr(glue_module, "certify", refuse)
    got_rays = glue2d(rays, theta, SIGMA, 1.0, 4.0)
    _, got = glue_pipeline(spec)
    monkeypatch.undo()
    assert_same_certificate(got, want)
    assert_same_certificate(want, certify(want_gw, default_certification_grid(want_gw, 4001)))
    grid = default_certification_grid(want_rays.glued[0], 2001)
    for gw, got, want in zip(want_rays.glued, got_rays.certificates, want_rays.certificates):
        assert got.curvature.sec_rad is not None
        assert_same_certificate(got, want)
        assert_same_certificate(want, certify(gw, grid))


def test_glue2d_rejects_a_ray_whose_curvature_dips_between_the_sampled_points():
    # one ray's slope is lowered by 1e-3 at a knot t_m with neighbours 1e-4 away: sigma'' dips to about
    # -25 just left of t_m, and no point of the checking window or of the certification grid sees it
    theta, cubic = cubic_rays(8, False)
    c = np.array([ray.coefficients[1] for ray in cubic])
    t_m, eps, bad = 1.0004, 1e-4, 5
    t = np.union1d(np.linspace(0.0, 4.5, 600), [t_m - eps, t_m, t_m + eps])[:, None]
    dnu = 1.0 + 3.0 * c * t**2
    dnu[t[:, 0] == t_m, bad] -= 1e-3
    rays = rays_from_polar_samples(t[:, 0], t + c * t**3, dnu)
    assert np.min(rays[bad].evaluate(np.linspace(t_m - eps, t_m, 101))[2]) < -20.0
    sampled = glue2d([Forwarding(ray) for ray in rays], theta, SIGMA, 1.0, 4.0)
    grid = default_certification_grid(sampled.glued[0], 2001)
    window = np.linspace(sampled.delta * 1e-3, sampled.R1 + 2.0 * sampled.delta, 256)
    for points in (grid, window):
        assert not np.any((points > t_m - eps) & (points < t_m + eps))
    assert sampled.passed  # the sampled window and certificate accept the ray
    concave = f"^ray {bad} \\(theta={theta[bad]:.6g}\\) is concave on the checking window"
    with pytest.raises(UsageError, match=concave):
        glue2d(rays, theta, SIGMA, 1.0, 4.0)


def test_glue2d_charges_a_head_concave_within_the_tolerance_to_the_slope_margin():
    # sigma = r - 5e-12 r^2 has sigma'' = -1e-11, which the sign tolerance lets pass, but on the head
    # [0, R1-delta] it takes tau' to 1 - 1.95e-11, below 1 - SLOPE_TOL: both certificates fail on it
    t = np.linspace(0.0, 4.5, 10)
    ray = SplineWarp(t, t - 5e-12 * t**2, 1.0 - 1e-11 * t)
    proved = glue2d([ray], [0.0], SIGMA, 1.0, 4.0)
    sampled = glue2d([Forwarding(ray)], [0.0], SIGMA, 1.0, 4.0)
    assert proved.k == sampled.k and not proved.passed and not sampled.passed
    cert = proved.certificates[0]
    assert cert.min_second_difference == pytest.approx(-1e-11, rel=1e-3)
    assert cert.min_slope_minus_one == pytest.approx(-1.95e-11, rel=1e-3)
    assert sampled.certificates[0].min_slope_minus_one == pytest.approx(-1.95e-11, rel=1e-3)


def test_glue2d_evaluates_each_anchor_once():
    theta = 2 * np.pi * np.arange(9) / 9
    rays = [counting(OddPolynomialWarp)([1.0, 2.0 + math.sin(t)]) for t in theta]
    sigma = counting(SinhWarp)()
    result = glue2d(rays, theta, sigma, 1.0, 4.0)
    a, d = result.R1 - result.delta, result.R2 + result.delta
    # each ray: the convexity window with rho(R1-delta) appended, its head samples, the certificate's head
    for ray in rays:
        assert [c.ndim for c in ray.calls] == [1, 1, 1]
        assert ray.calls[0].shape == (257,) and ray.calls[0][-1] == a
        assert np.all(ray.calls[1] < a) and np.all(ray.calls[2] <= a)
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


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_a_plateau_slope_that_is_not_finite_is_refused(s):
    # every route to the fields refuses it, as the band half-width check refuses a bad delta; an infinite
    # slope used to reach certify, where inf - inf raised "invalid value encountered in multiply"
    gw = build_tau(RHO, ScaledWarp(SIGMA, 2.0), 2.0, 3.0, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="plateau slope must be finite"):
            gw.with_slope(s)
        with pytest.raises(DomainError, match="plateau slope must be finite"):
            GluedWarp(RHO, ScaledWarp(SIGMA, 2.0), 2.0, 3.0, 0.05, s)


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
    R1, R2, delta = _glue_plan(spec)
    k = find_k(spec.rho, spec.sigma, R1, R2, delta)
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


def test_glue_pipeline_accepts_a_tail_mismatch_within_the_rounding_of_large_tail_values():
    # a fuzzed spec whose glued warp reaches |tau| ~ 6.5e5 at k = 16
    rho = OddPolynomialWarp([1.0, 1.6093316805363056, 1.490368086917542, 1.7647431286099426])
    gw, cert = glue_pipeline(GlueSpec(rho, SIGMA, 1.7048358714740426, 4.644395500732631))
    assert gw.k == 16.0
    # proved: the one tail offset, at R2+delta, is one ulp of sigma_k(R2+delta) ~ 3.5e5
    sig_d = gw.sigma_k.evaluate(np.asarray(gw.edges[3]))[0]
    assert 3e5 < sig_d < 4e5 and cert.tail_mismatch == np.spacing(sig_d) == 2.0**-34
    assert cert.passed
    # plateau slopes a few ulps up move the offset past VALUE_TOL but within 4 eps |sigma_k(R2+delta)|,
    # until the fifth; a tail offset of 9.3e-10 fails
    tol = VALUE_TOL + 4.0 * np.finfo(float).eps * sig_d
    slopes = [gw.s]
    for _ in range(6):
        slopes.append(np.nextafter(slopes[-1], np.inf))
    certs = [_proved_certificates([gw.with_slope(s)], [0.0], 0.0)[0] for s in slopes[1:]]
    assert VALUE_TOL < certs[0].tail_mismatch
    assert [c.passed for c in certs] == [c.tail_mismatch <= tol for c in certs] == [True] * 5 + [False]
    assert not _proved_certificates([gw.with_slope(gw.s - 1e-9)], [0.0], 0.0)[0].passed
    # the sampled audit: its tail mismatch is 2^-33, one ulp at the top of the tail and just above the
    # absolute VALUE_TOL
    grid = default_certification_grid(gw)
    audit = certify(gw, grid)
    assert audit.tail_mismatch == 2.0**-33 > VALUE_TOL
    top = np.max(np.abs(gw.sigma_k.evaluate(grid[grid >= gw.edges[3]])[0]))
    assert 6e5 < top < 7e5 and audit.tail_mismatch <= 4.0 * np.finfo(float).eps * top
    assert audit.passed
    assert not certify(gw.with_slope(gw.s - 1e-9), grid).passed  # a tail offset of 9.3e-10 still fails


@st.composite
def convexity_rays(draw):
    """Rays for the structural and the sampled convexity check.

    A cubic or quintic spline on 4 to 20 knots of [0, 4.5] through
    r + a r^2 + b r^3 + c r^5, the quintic's second-derivative knots moved by
    up to 0.5, or an odd polynomial with coefficients of mixed signs.
    """
    kind = draw(st.sampled_from(["cubic", "quintic", "odd"]))
    if kind == "odd":
        return OddPolynomialWarp([1.0] + draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3)))
    a, b, c = draw(st.floats(-0.5, 1.0)), draw(st.floats(-0.5, 1.0)), draw(st.floats(-0.02, 0.05))
    t = np.linspace(0.0, 4.5, draw(st.integers(4, 20)))
    knots = (t, t + a * t**2 + b * t**3 + c * t**5, 1.0 + 2.0 * a * t + 3.0 * b * t**2 + 5.0 * c * t**4)
    if kind == "cubic":
        return SplineWarp(*knots)
    moves = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=t.size, max_size=t.size)))
    return SplineWarp(*knots, 2.0 * a + 6.0 * b * t + 20.0 * c * t**3 + moves)


def glue2d_outcome(rays):
    """What ``glue2d`` on sinh with R_bar = 1, R = 4 gives: the verdict, k and slopes, or the error."""
    theta = 2 * np.pi * np.arange(len(rays)) / len(rays)
    try:
        result = glue2d(rays, theta, SIGMA, 1.0, 4.0)
    except (UsageError, InfeasibleError, SearchExhaustedError) as exc:
        return type(exc), str(exc)
    return result.passed, result.k, result.slopes.tobytes(), result.glued


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(convexity_rays(), min_size=1, max_size=3))
def test_structural_and_sampled_convexity_verdicts_agree(rays):
    proved = glue2d_outcome(rays)
    sampled = glue2d_outcome([Forwarding(ray) for ray in rays])
    # a structural pass is a sampled pass, also of each glued ray's audit on its default grid
    if proved[0] is True:
        assert sampled[:3] == proved[:3]
        assert all(certify(gw, default_certification_grid(gw)).passed for gw in proved[3])
    # where every ray's min sigma'' on the checking window [0, R1 + 2 delta] = [0, 2.1] is clear of 0
    # by 0.1, and so the sampled window resolves its sign, both give the same result
    r = np.linspace(0.0, 2.1, 20001)
    if all(abs(np.min(ray.evaluate(r)[2])) >= 0.1 for ray in rays):
        assert sampled[:3] == proved[:3]
