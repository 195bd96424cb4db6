import importlib
import inspect

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
