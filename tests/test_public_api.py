"""Every exported name exists, and so does every attribute the benchmark tracer wraps.

`benchmarks/layers.py` installs its spans by replacing module attributes
such as `harness.evolve`; moving a function out of a module breaks the
tracer without breaking any call inside the package.  Its counters read
the call sites too: `evolve` must call `velocity_field` and
`detect_clusters` through the `integrator` module, and make one
`velocity_field` call per evaluation, with the charges it sums over as the
second argument, and one detection that finds nothing per accepted step.
"""
import importlib
import importlib.util
import pkgutil
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import annihilate
from annihilate.integrator import IntegratorConfig
from test_integrator import MPM

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(annihilate.__path__))


def _layers():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _traced_attributes() -> list[str]:
    return [attr for _, attrs in _layers().TRACED for attr in attrs]


@pytest.mark.parametrize("attr", _traced_attributes())
def test_traced_attribute_resolves(attr):
    mod, name = attr.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"annihilate.{mod}"), name, None))


@pytest.mark.parametrize("mod", MODULES)
def test_exported_names_exist(mod):
    module = importlib.import_module(f"annihilate.{mod}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_exported_exception_is_raised():
    # an exception class that no code in the package raises is dead API:
    # a change that removes its last raise removes the class too
    exported = []
    for mod in MODULES:
        module = importlib.import_module(f"annihilate.{mod}")
        exported += [n for n in getattr(module, "__all__", ())
                     if isinstance(obj := getattr(module, n), type) and issubclass(obj, BaseException)]
    source = "\n".join(p.read_text() for p in Path(annihilate.__file__).parent.glob("*.py"))
    assert {"InvalidState", "EvolveError", "DegenerateCrossing"} <= set(exported)
    assert [n for n in exported if not re.search(rf"\braise (\w+\.)*{n}\(", source)] == []


def test_every_module_is_checked():
    # a rename of the package's modules must not empty the parametrization
    assert {"harness", "integrator", "levelset", "measures", "hjsolver"} <= set(MODULES)


def test_trace_counters_equal_integrator_counters(monkeypatch):
    # the n = 16 rung of the double_bump ladder, then the -+- triple, which
    # commits a group, at two horizons, evolved under the tracer
    layers = _layers()
    for attr in _traced_attributes():
        mod, name = attr.rsplit(".", 1)
        module = importlib.import_module(f"annihilate.{mod}")
        monkeypatch.setattr(module, name, getattr(module, name))  # undone after the test
    # the pairs each kernel call sums over, from the rows it computes
    from annihilate import integrator

    pairs = []
    kernel = integrator.velocity_field

    def spy(x, b, coupling, *, work=None, out=None):
        m = x.size if work is not None else int(np.count_nonzero(b))
        pairs.append(m * (m - 1))
        return kernel(x, b, coupling, work=work, out=out)

    monkeypatch.setattr(integrator, "velocity_field", spy)
    tracer = layers.Tracer()
    tracer.install()
    from annihilate import harness

    spec = harness.ExperimentSpec(datum="double_bump", ns=(16,))
    L = spec.scheme_config().L
    state = harness.sample_particles(harness.CATALOG["double_bump"].u0, 16, spec.offset,
                                     window=(-L, L), scan_points=spec.scan_points)
    runs = [(state, spec.integrator_config()),
            (MPM, IntegratorConfig(t_end=1.0)), (MPM, IntegratorConfig(t_end=2.0))]
    accepted = force_evals = events = 0
    for initial, config in runs:
        traj = harness.evolve(initial, config)
        accepted += traj.stats.accepted
        force_evals += traj.stats.force_evals
        events += len(traj.events)
        metrics = tracer.layer_metrics()
        assert tracer.counts["step_evals"] == force_evals == len(pairs)
        assert metrics["particles.velocity_field.pairs"] == sum(pairs)
        assert metrics["integrator.accepted_steps"] == accepted
        assert metrics["integrator.events"] == events
    assert traj.events and accepted > 0


def test_version_has_one_source():
    # pyproject.toml reads the version from the package, never a second literal
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls its [tool.setuptools] table beta
        project = read_configuration(pyproject)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == annihilate.__version__
