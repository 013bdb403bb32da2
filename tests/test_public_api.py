"""Every exported name exists, and so does every attribute the benchmark tracer wraps.

`benchmarks/layers.py` installs its spans by replacing module attributes
such as `harness.evolve`; moving a function out of a module breaks the
tracer without breaking any call inside the package.
"""
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import annihilate

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(annihilate.__path__))


def _traced_attributes() -> list[str]:
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [attr for _, attrs in layers.TRACED for attr in attrs]


@pytest.mark.parametrize("attr", _traced_attributes())
def test_traced_attribute_resolves(attr):
    mod, name = attr.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"annihilate.{mod}"), name, None))


@pytest.mark.parametrize("mod", MODULES)
def test_exported_names_exist(mod):
    module = importlib.import_module(f"annihilate.{mod}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_module_is_checked():
    # a rename of the package's modules must not empty the parametrization
    assert {"harness", "integrator", "levelset", "measures", "hjsolver"} <= set(MODULES)
