"""The package's declared surface, and the benchmark tracer's view of it.

A removed or renamed name must leave no stale ``__all__`` entry, and must
not silently drop a layer from the traced benchmark run.
"""

import importlib
import os
import pkgutil

import pytest

import polycam

# polycam.__main__ runs the command line when imported
MODULES = ["polycam"] + [f"polycam.{info.name}"
                         for info in pkgutil.iter_modules(polycam.__path__)
                         if info.name != "__main__"]
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
