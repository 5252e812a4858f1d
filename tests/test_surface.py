"""The package's declared surface, and the benchmark tracer's view of it.

A removed or renamed name must leave no stale ``__all__`` entry, and must
not silently drop a layer from the traced benchmark run.
"""

import importlib
import os
import pkgutil

import pytest

import polycam

MODULES = ["polycam"] + [f"polycam.{info.name}"
                         for info in pkgutil.iter_modules(polycam.__path__)]
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    stale = [attr for attr in getattr(module, "__all__", ())
             if not hasattr(module, attr)]
    assert stale == []


def test_tracer_finds_every_traced_entry_point(monkeypatch):
    # installed() looks the polycam modules up in sys.modules
    importlib.import_module("polycam.cli")
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    from spans import Tracer

    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == []


def test_traced_node_ranking_completes(monkeypatch, leo_event, leo_period):
    # ranking legs must stay traceable: the tracer reads each propagation's
    # span as scalars (t1 == t0 must be a bool)
    from polycam import solver
    from polycam.mapbuilder import IMPULSIVE, ControlSchedule

    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    from spans import Tracer

    template = ControlSchedule(mode=IMPULSIVE,
                               node_epochs=(-0.5 * leo_period,))
    grid = [-1.0 * leo_period, -0.5 * leo_period]
    tracer = Tracer()
    with tracer.installed():
        chosen = solver.filter_nodes(leo_event, grid, 1, template)
    assert len(chosen.node_epochs) == 1

    (ranking,) = [s for s in tracer.spans
                  if s.name == "mapbuilder.gradient_norm_per_node"]
    legs = [s for s in tracer.spans if s.parent == ranking.id
            and s.name == "dynamics.propagate_vector"]
    assert legs
