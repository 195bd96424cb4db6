import importlib
import inspect
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from pharmap.blend import PolarMetricGrid, blend_metric, find_k_blend, hyperbolic_coefficient, partition_profile
from pharmap.chart import TargetChart
from pharmap.errors import DomainError, UsageError
from pharmap.glue import (GluedWarp, GlueSpec, certify, default_certification_grid, find_k, glue2d, glue_pipeline,
                          rays_from_polar_samples)
from pharmap.mesh import build_annulus, build_polar, build_rect
from pharmap.solver import SolveConfig, uniqueness_probe
from pharmap.warp import (ModelManifold, OddPolynomialWarp, ScaledWarp, SinhWarp, is_cartan_hadamard,
                          is_hyperbolic_type, save_warp_csv)

MODULES = ["pharmap", "pharmap.chart", "pharmap.mesh", "pharmap.warp", "pharmap.glue", "pharmap.blend",
           "pharmap.solver"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_functions_and_classes_of_the_module(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name]
    assert [n for n in defined if n not in module.__all__] == []


def test_scipy_interpolate_loads_only_with_a_spline_warp():
    # a fresh interpreter: the test modules themselves import scipy.interpolate
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent("""
        import importlib, pkgutil, sys
        import pharmap
        for module in pkgutil.iter_modules(pharmap.__path__):
            importlib.import_module("pharmap." + module.name)
        print(pharmap.__file__)
        print("scipy.interpolate" in sys.modules)
        from pharmap.warp import SplineWarp
        SplineWarp([0.0, 1.0], [0.0, 1.0], [1.0, 1.0])
        print("scipy.interpolate" in sys.modules)
    """)
    path = os.pathsep.join([str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    where, before, after = run.stdout.splitlines()
    assert Path(where).resolve().is_relative_to(src)
    assert (before, after) == ("False", "True")


def test_only_a_factor_loads_scipy_sparse_and_nothing_loads_scipy_spatial(tmp_path):
    # a fresh interpreter, as above: meshes, analytic glues and generator blends load no scipy module at all;
    # a solve loads scipy.sparse, and neither it nor a uniqueness probe loads scipy.spatial or scipy.special
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent("""
        import importlib, pkgutil, sys
        import numpy as np
        import pharmap
        for module in pkgutil.iter_modules(pharmap.__path__):
            importlib.import_module("pharmap." + module.name)
        from pharmap.blend import PolarMetricGrid, blend_metric, find_k_blend
        from pharmap.chart import TargetChart
        from pharmap.glue import GlueSpec, glue_pipeline
        from pharmap.mesh import build_annulus, load_mesh, refine, save_mesh
        from pharmap.solver import SolveConfig, solve, uniqueness_probe
        from pharmap.warp import ModelManifold, OddPolynomialWarp, SinhWarp
        path = sys.argv[1]
        save_mesh(path, refine(build_annulus(1.0, 2.0, 2, 8)))
        mesh = load_mesh(path)
        glue_pipeline(GlueSpec(OddPolynomialWarp([1.0, 1.0]), SinhWarp(), 1.0, 4.0))
        t = np.linspace(0.5, 2.5, 21)
        grid = PolarMetricGrid.from_generator(lambda t, h: np.exp(2.0 * t) * (1.0 + 0.1 * np.cos(h)), t, 8)
        blend_metric(grid, find_k_blend(grid, 1.0, 2.0)[0], 1.0, 2.0)
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        chart, bvals = TargetChart(ModelManifold(2, SinhWarp())), 0.5 * mesh.vertices
        config = SolveConfig(p=3.0, grad_tol=1e-9)
        assert solve(mesh, chart, bvals, config)[1].converged
        print("scipy.sparse.linalg" in sys.modules)
        assert all(uniqueness_probe(mesh, chart, bvals, config, 2).converged)
        print(sorted(name for name in ("scipy.spatial", "scipy.special") if name in sys.modules))
    """)
    path = os.pathsep.join([str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "mesh.txt")],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == ["[]", "True", "[]"]


RHO, SIGMA = OddPolynomialWarp([1.0, 1.0]), SinhWarp()
GLUED = glue_pipeline(GlueSpec(RHO, SIGMA, 1.0, 4.0))[0]
THETA = 2.0 * np.pi * np.arange(8) / 8
T = np.linspace(0.5, 2.5, 21)
WAVY = lambda t, h: np.exp(2.0 * t) * (1.0 + 0.1 * np.cos(h))  # noqa: E731
METRIC = PolarMetricGrid.from_generator(WAVY, T, 8)
SQUARE = build_rect(1.0, 1.0, 1, 1)


def grids(grid, least, zero, call):
    """An entry point's grid: corruptions of the valid ``grid`` with NaN or an infinity at an end or inside, a
    first value out of range, too few points, steps that do not increase, and a 2d array."""
    def put(at, value):
        g = grid.copy()
        g[at] = value
        return g

    bad = {"nan first": put(0, math.nan), "nan inside": put(grid.size // 2, math.nan),
           "nan last": put(-1, math.nan), "inf last": put(-1, math.inf), "-inf first": put(0, -math.inf),
           "first out of range": put(0, -1.0 if zero else 0.0), "empty": grid[:0], "too short": grid[:least - 1],
           "decreasing": grid[::-1], "repeated": put(1, grid[0]), "2d": grid[None, :]}
    return UsageError, "must be strictly increasing and", bad, call


def pairs(call):
    """An entry point's pair of radii lo, hi."""
    bad = {"nan lo": (math.nan, 2.0), "nan hi": (1.0, math.nan), "inf hi": (1.0, math.inf),
           "inf both": (math.inf, math.inf), "-inf lo": (-math.inf, 2.0), "zero lo": (0.0, 2.0),
           "equal": (1.0, 1.0), "lo > hi": (2.0, 1.0)}
    return UsageError, "must satisfy 0 < lo < hi < inf", bad, call


def counts(least, call):
    """An entry point's count of at least ``least``."""
    bad = {"non-integer": least + 0.5, "integral float": float(least), "nan": math.nan, "inf": math.inf,
           "too small": least - 1, "negative": -1, "string": str(least)}
    return UsageError, f"must be an integer >= {least}", bad, call


# entry point: (the error it documents, a pattern of its message, its bad inputs, a call of it on one input and
# a scratch directory)
ENTRY_POINTS = {
    "is_cartan_hadamard": grids(np.linspace(0.5, 2.0, 8), 1, False, lambda g, _: is_cartan_hadamard(SIGMA, g)),
    "is_hyperbolic_type": grids(np.linspace(0.5, 2.0, 8), 1, False, lambda g, _: is_hyperbolic_type(SIGMA, g)),
    "save_warp_csv": grids(np.linspace(0.0, 2.0, 8), 2, True,
                           lambda g, tmp: save_warp_csv(tmp / "warp.csv", SIGMA, g)),
    "certify": grids(default_certification_grid(GLUED), 2000, True, lambda g, _: certify(GLUED, g)),
    "PolarMetricGrid": grids(T, 1, False, lambda g, _: PolarMetricGrid(g, THETA, np.ones((np.size(g), THETA.size)))),
    "rays_from_polar_samples": grids(np.linspace(0.0, 4.5, 10), 2, True,
                                     lambda g, _: rays_from_polar_samples(g, np.ones((np.size(g), 4)))),
    "build_polar rings": grids(np.linspace(1.0, 2.0, 3), 2, False, lambda g, _: build_polar(g, 8)),
    "GlueSpec": pairs(lambda r, _: GlueSpec(RHO, SIGMA, *r)),
    "glue2d": pairs(lambda r, _: glue2d([RHO] * 8, THETA, SIGMA, *r)),
    "GluedWarp": pairs(lambda r, _: GluedWarp(RHO, ScaledWarp(SIGMA, 2.0), *r, 0.01)),
    "find_k": pairs(lambda r, _: find_k(RHO, SIGMA, *r)),
    "find_k_blend": pairs(lambda r, _: find_k_blend(METRIC, *r)),
    "blend_metric": pairs(lambda r, _: blend_metric(METRIC, 1.0, *r)),
    "partition_profile": pairs(lambda r, _: partition_profile(T, *r)),
    "default_certification_grid": counts(2, lambda n, _: default_certification_grid(GLUED, n)),
    "build_annulus radii": pairs(lambda r, _: build_annulus(*r, 2, 8)),
    "build_rect nx": counts(1, lambda n, _: build_rect(1.0, 1.0, n, 2)),
    "build_rect ny": counts(1, lambda n, _: build_rect(1.0, 1.0, 2, n)),
    "build_annulus nr": counts(1, lambda n, _: build_annulus(1.0, 2.0, n, 8)),
    "build_annulus ntheta": counts(3, lambda n, _: build_annulus(1.0, 2.0, 2, n)),
    "build_polar ntheta": counts(3, lambda n, _: build_polar([1.0, 2.0], n)),
    "from_generator": counts(3, lambda n, _: PolarMetricGrid.from_generator(WAVY, T, n)),
    "uniqueness_probe": counts(1, lambda n, _: uniqueness_probe(SQUARE, TargetChart(None), np.zeros((4, 1)),
                                                                SolveConfig(p=2.0), n)),
    "SolveConfig.max_iter": counts(1, lambda n, _: SolveConfig(p=2.0, max_iter=n)),
    "SolveConfig.seed": counts(0, lambda n, _: SolveConfig(p=2.0, seed=n)),
    "ModelManifold.dim": counts(2, lambda n, _: ModelManifold(n, SIGMA)),
    "build_rect sides": (UsageError, "rectangle sides must be positive and finite",
                         {f"{which} {v}": sides for v in (math.nan, math.inf, 0.0, -1.0)
                          for which, sides in (("width", (v, 1.0)), ("height", (1.0, v)))},
                         lambda sides, _: build_rect(*sides, 2, 2)),
    "hyperbolic_coefficient k": (DomainError, "needs a finite k > 0",
                                 {str(k): k for k in (math.nan, math.inf, -math.inf, 0.0, -1.0)},
                                 lambda k, _: hyperbolic_coefficient(k, T)),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_refuse_bad_grids_radius_pairs_and_counts_with_their_documented_error(name, tmp_path):
    # with every warning an error, the check of the input refuses each bad input with the documented error:
    # it is never accepted, and never reaches a TypeError, an IndexError, a RuntimeWarning or another check
    error, pattern, inputs, call = ENTRY_POINTS[name]
    wrong = {}
    for label, value in inputs.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(value, tmp_path)
                wrong[label] = "accepted"
            except Exception as exc:  # a RuntimeWarning included
                if not (isinstance(exc, error) and re.search(pattern, str(exc))):
                    wrong[label] = repr(exc)
    assert wrong == {}
