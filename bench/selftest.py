"""Self-test: the counting chart and warps must not change any result.

A solve through ``CountingChart`` must give the same state bytes, energy
trace and residual as a solve through the plain ``TargetChart``; gluing
through ``CountingWarp`` must give the same ``k`` and plateau slopes.  The
traced run calls ``run`` before it records anything.  Standalone use, from
the root of a checkout::

    python3 bench/selftest.py
"""

from __future__ import annotations

import env  # noqa: F401  (before numpy: one BLAS thread, checkout sources)

import numpy as np

from pharmap import glue, mesh, solver
from pharmap.warp import OddPolynomialWarp, SinhWarp

from tracing import Kit, Tracer
from workloads import seeded_rings, sinh_chart


def run() -> list:
    """Problems found; an empty list means the counting objects are transparent."""
    problems = []
    tracer = Tracer()
    plain, counting = Kit(), Kit(tracer)

    m = mesh.build_annulus(1.0, 2.0, 8, 32)
    bvals = seeded_rings(m, np.random.default_rng(0))
    config = solver.SolveConfig(p=3.0, grad_tol=1e-9, quadrature=3)
    with tracer.recording():
        got, got_report = solver.solve(m, sinh_chart(counting), bvals, config)
    want, want_report = solver.solve(m, sinh_chart(plain), bvals, config)
    if got.points.tobytes() != want.points.tobytes():
        problems.append("counting chart changes the solved state")
    if got_report.energy_trace != want_report.energy_trace:
        problems.append("counting chart changes the energy trace")
    if got_report.residual != want_report.residual:
        problems.append("counting chart changes the residual")

    theta = 2.0 * np.pi * np.arange(8) / 8
    cubic = 2.0 + np.sin(theta)
    results = []
    for kit in (counting, plain):
        with tracer.recording(kit is counting):
            spec = glue.GlueSpec(kit.warp(OddPolynomialWarp([1.0, 1.0])), kit.warp(SinhWarp()), 1.0, 4.0)
            gw, _ = glue.glue_pipeline(spec)
            rays = [kit.warp(OddPolynomialWarp([1.0, c])) for c in cubic]
            res = glue.glue2d(rays, theta, kit.warp(SinhWarp()), 1.0, 4.0)
        results.append((gw.k, gw.s, res.k, res.slopes.tobytes()))
    if results[0] != results[1]:
        problems.append("counting warps change the glue k or plateau slopes")

    for name in ("chart.metric_calls", "chart.metric_jacobian_calls", "warp.evaluate_calls"):
        if tracer.counts[name] == 0:
            problems.append(f"{name} recorded nothing")
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print("FAIL", line)
    print("selftest", "failed" if found else "passed")
    raise SystemExit(1 if found else 0)
