"""Spans and counts recorded around calls into pharmap, for the traced run.

Nothing inside the package is instrumented.  Two kinds of hooks live here:

* ``CountingChart`` and ``CountingWarp`` are subclasses of the package's
  ``TargetChart`` and ``WarpingFunction`` that count and time ``metric``,
  ``metric_jacobian`` and ``evaluate``.  The traced run passes them into
  ``solve``, ``glue_*`` and ``blend_*`` in place of the plain objects.
* ``instrument`` wraps the public functions of the ``mesh``, ``solver``,
  ``warp``, ``glue`` and ``blend`` modules (as module attributes, so calls
  between package functions are seen too) for the duration of a ``with``
  block and restores the originals afterwards.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  Spans and counts stay in memory; ``dump`` writes them
out once the run is over.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from pharmap import blend, glue, mesh, solver, warp
from pharmap.chart import TargetChart
from pharmap.warp import WarpingFunction


class Tracer:
    """In-memory span and count recorder; records nothing while inactive."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list = []

    @contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def count(self, name, amount=1):
        if self.active:
            self.counts[name] += amount

    @contextmanager
    def recording(self, on=True):
        """Switch recording on (or off, e.g. around output checks) for a block."""
        saved = self.active
        self.active = on
        try:
            yield
        finally:
            self.active = saved

    def dump(self, path, meta):
        doc = {
            "meta": meta,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _points_in(x):
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


class CountingChart(TargetChart):
    """``TargetChart`` that counts and times ``metric`` and ``metric_jacobian``.

    ``chart.bytes_out`` adds up the sizes of the returned arrays: it is a
    computed figure, not a measured memory traffic.
    """

    def __init__(self, manifold, tracer: Tracer):
        super().__init__(manifold)
        self.tracer = tracer

    def _counted(self, name, method, x):
        with self.tracer.span(name):
            out = method(x)
        self.tracer.count(name + "_calls")
        self.tracer.count("chart.points", _points_in(x))
        self.tracer.count("chart.bytes_out", out.nbytes)
        return out

    def metric(self, x):
        return self._counted("chart.metric", super().metric, x)

    def metric_jacobian(self, x):
        return self._counted("chart.metric_jacobian", super().metric_jacobian, x)


class CountingWarp(WarpingFunction):
    """Warp that forwards to ``base`` and counts and times ``evaluate``."""

    def __init__(self, base: WarpingFunction, tracer: Tracer):
        self.base = base
        self.tracer = tracer
        self.kind = base.kind
        self.third_at_zero = base.third_at_zero

    def evaluate(self, r):
        with self.tracer.span("warp.evaluate"):
            out = self.base.evaluate(r)
        self.tracer.count("warp.evaluate_calls")
        return out


class Kit:
    """Builds the charts and warps a workload passes into the package.

    The plain kit hands out the package's own objects; a kit with a tracer
    hands out the counting subclasses bound to it.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer

    def chart(self, manifold) -> TargetChart:
        if self.tracer is None:
            return TargetChart(manifold)
        return CountingChart(manifold, self.tracer)

    def warp(self, base: WarpingFunction) -> WarpingFunction:
        if self.tracer is None:
            return base
        return CountingWarp(base, self.tracer)


def _doublings(k):
    return int(round(math.log2(k)))


# (owner, attribute, span name, count hook on the result)
_HOOKS = [
    (mesh, "build_rect", "mesh.build_rect", None),
    (mesh, "build_polar", "mesh.build_polar", None),
    (mesh, "build_annulus", "mesh.build_annulus", None),
    (mesh, "refine", "mesh.refine", None),
    (mesh, "save_mesh", "mesh.save_mesh", None),
    (mesh, "load_mesh", "mesh.load_mesh", None),
    (mesh.TriMesh, "mesh_size", "mesh.mesh_size", None),
    (mesh.TriMesh, "euler_characteristic", "mesh.euler_characteristic", None),
    (mesh.TriMesh, "boundary_edge_count", "mesh.boundary_edge_count", None),
    (mesh.TriMesh, "edge_set", "mesh.edge_set", None),
    (solver, "solve", "solver.solve", None),
    (solver, "harmonic_init", "solver.harmonic_init", None),
    (warp, "save_warp_csv", "warp.save_warp_csv", None),
    (warp, "load_warp_csv", "warp.load_warp_csv", None),
    (warp.SplineWarp, "__init__", "warp.spline_build", None),
    (glue, "glue_pipeline", "glue.glue_pipeline", None),
    (glue, "find_k", "glue.find_k", lambda k: ("glue.k_doublings", _doublings(k))),
    (glue, "build_tau", "glue.build_tau", None),
    (glue, "certify", "glue.certify", None),
    (glue, "glue2d", "glue.glue2d", lambda res: ("glue.k_doublings", _doublings(res.k))),
    (glue, "rays_from_polar_samples", "glue.rays_from_polar_samples", None),
    (blend, "find_k_blend", "blend.find_k_blend",
     lambda res: ("blend.k_doublings", _doublings(res[0]))),
    (blend, "blend_metric", "blend.blend_metric", None),
    (blend.PolarMetricGrid, "d_dt", "blend.d_dt", None),
    (blend, "save_metric_csv", "blend.save_metric_csv", None),
    (blend, "load_metric_csv", "blend.load_metric_csv", None),
]


def _wrap(tracer, name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        with tracer.span(name):
            out = fn(*args, **kwargs)
        tracer.count(name + ".calls")
        if hook is not None:
            tracer.count(*hook(out))
        return out

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's public functions in spans for the block's duration."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _HOOKS]
    try:
        for (owner, attr, name, hook), (_, _, fn) in zip(_HOOKS, saved):
            setattr(owner, attr, _wrap(tracer, name, fn, hook))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


#: layer time metric -> the span names it adds up
TIME_GROUPS = {
    "mesh.build_s": ("mesh.build_rect", "mesh.build_polar", "mesh.build_annulus"),
    "mesh.refine_s": ("mesh.refine",),
    "mesh.topology_s": ("mesh.mesh_size", "mesh.euler_characteristic",
                        "mesh.boundary_edge_count", "mesh.edge_set"),
    "mesh.io_s": ("mesh.save_mesh", "mesh.load_mesh"),
    "chart.metric_s": ("chart.metric",),
    "chart.metric_jacobian_s": ("chart.metric_jacobian",),
    "solver.harmonic_init_s": ("solver.harmonic_init",),
    "solver.solve_s": ("solver.solve",),
    "warp.evaluate_s": ("warp.evaluate",),
    "warp.spline_build_s": ("warp.spline_build",),
    "warp.csv_s": ("warp.save_warp_csv", "warp.load_warp_csv"),
    "glue.pipeline_s": ("glue.glue_pipeline",),
    "glue.find_k_s": ("glue.find_k",),
    "glue.build_tau_s": ("glue.build_tau",),
    "glue.certify_s": ("glue.certify",),
    "glue.glue2d_s": ("glue.glue2d",),
    "blend.find_k_s": ("blend.find_k_blend",),
    "blend.blend_s": ("blend.blend_metric",),
    "blend.d_dt_s": ("blend.d_dt",),
    "blend.csv_s": ("blend.save_metric_csv", "blend.load_metric_csv"),
}

#: counts that do not depend on the machine
COUNT_NAMES = (
    "chart.metric_calls",
    "chart.metric_jacobian_calls",
    "chart.points",
    "chart.bytes_out",
    "warp.evaluate_calls",
    "glue.k_doublings",
    "blend.k_doublings",
)


def layer_times(spans, lo, hi):
    """Per-group busy time over ``spans[lo:hi]``.

    A span nested inside another span of the same group is not added again,
    so a group's time is the wall time its outermost calls cover.
    """
    group_of = {name: group for group, names in TIME_GROUPS.items() for name in names}
    totals = dict.fromkeys(TIME_GROUPS, 0.0)
    for idx in range(lo, hi):
        name, start, end, parent = spans[idx]
        group = group_of.get(name)
        if group is None:
            continue
        nested = False
        while parent >= 0:
            if group_of.get(spans[parent][0]) == group:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            totals[group] += end - start
    return totals
