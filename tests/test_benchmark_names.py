"""The traced benchmark counts and times package functions by name.

perfbench/run.py drops a per-layer metric silently when the function it names
is gone, so a rename would shorten the traced report without failing the run.
These tests load run.py (read-only) and check every name it declares.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run_module():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


def resolve(name: str):
    """The function a traced name denotes: layer.function or layer.Class.method."""
    layer, *path = name.split(".")
    module = importlib.import_module(f"vortexdiff.{layer}")
    owner = module
    for part in path[:-1]:
        owner = vars(owner)[part]
        assert inspect.isclass(owner) and owner.__module__ == module.__name__, name
    return module, path[-1], vars(owner).get(path[-1])


def test_every_traced_name_is_a_function_of_its_module(run_module):
    names = [n for names in run_module.FUNCTION_TIME.values() for n in names]
    names += list(run_module.FUNCTION_CALLS.values())
    assert "analytic.StateSnapshot.__post_init__" in names
    for name in names:
        module, attr, obj = resolve(name)
        assert inspect.isfunction(obj), f"{name} is not a function of {module.__name__}"
        assert obj.__module__ == module.__name__, name
        assert attr == "__post_init__" or not attr.startswith("_"), name


def test_every_layer_defines_a_public_function(run_module):
    for layer in run_module.LAYERS:
        module = importlib.import_module(f"vortexdiff.{layer}")
        assert any(not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
                   for name, obj in vars(module).items()), f"layer {layer} has no public function to trace"
