import importlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

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
