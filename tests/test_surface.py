"""The package's declared surface, and the benchmark tracer's view of it.

A removed or renamed name must leave no stale ``__all__`` entry, and must
not silently drop a layer from the traced benchmark run. A name whose only
caller is a test, public or private, belongs in the tests, and so does an
error class that the package never raises.
"""

import ast
import glob
import importlib
import os
import pkgutil
import re

import pytest

import polycam
from polycam.errors import PolycamError

MODULES = ["polycam"] + [f"polycam.{info.name}"
                         for info in pkgutil.iter_modules(polycam.__path__)]
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    stale = [attr for attr in getattr(module, "__all__", ())
             if not hasattr(module, attr)]
    assert stale == []


def _defining_node(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name == name:
            return node
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node
        if isinstance(node, ast.ImportFrom) and any(
                (a.asname or a.name) == name for a in node.names):
            return node
    return None


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_caller_outside_the_tests(name):
    # a name counts as used when it appears as a whole word in another
    # polycam module, in the benchmark harness, or in its own module
    # beyond its definition line and its __all__ entry
    module = importlib.import_module(name)
    path = os.path.abspath(module.__file__)
    lines = open(path).read().splitlines()
    tree = ast.parse("\n".join(lines))
    skipped = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            skipped.update(range(node.lineno - 1, node.end_lineno))
    others = [p for p in glob.glob(os.path.join(os.path.dirname(path), "*.py"))
              + glob.glob(os.path.join(PERFBENCH, "*.py"))
              if os.path.abspath(p) != path]
    elsewhere = "\n".join(open(p).read() for p in others)

    unused = []
    for attr in getattr(module, "__all__", ()):
        word = re.compile(rf"\b{re.escape(attr)}\b")
        node = _defining_node(tree, attr)
        own_skip = skipped | ({node.lineno - 1} if node else set())
        own = "\n".join(line for i, line in enumerate(lines)
                        if i not in own_skip)
        if not (word.search(elsewhere) or word.search(own)):
            unused.append(attr)
    assert unused == []


@pytest.mark.parametrize("name", MODULES)
def test_every_function_and_class_has_a_caller_outside_the_tests(name):
    # private names too: a module-level function or class counts as used
    # when it appears as a whole word in another polycam module, in the
    # benchmark harness, or in its own module outside its definition and
    # its __all__ entry
    path = os.path.abspath(importlib.import_module(name).__file__)
    lines = open(path).read().splitlines()
    tree = ast.parse("\n".join(lines))
    exports = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exports.update(range(node.lineno - 1, node.end_lineno))
    others = glob.glob(os.path.join(os.path.dirname(path), "*.py")) \
        + glob.glob(os.path.join(PERFBENCH, "*.py"))
    elsewhere = "\n".join(open(p).read() for p in others
                          if os.path.abspath(p) != path)

    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        skipped = exports | set(range(start - 1, node.end_lineno))
        own = "\n".join(line for i, line in enumerate(lines)
                        if i not in skipped)
        word = re.compile(rf"\b{re.escape(node.name)}\b")
        if not (word.search(elsewhere) or word.search(own)):
            unused.append(node.name)
    assert unused == []


def _names_used(tree: ast.Module):
    """(line, name) of every attribute name and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def test_every_method_and_property_has_a_caller_outside_the_tests():
    # a method or property of a polycam class counts as used when another
    # polycam module, the benchmark harness or its own module outside its
    # definition names it as an attribute or a string; dunder methods are
    # called by the language
    package = glob.glob(os.path.join(os.path.dirname(polycam.__file__),
                                     "*.py"))
    trees = {p: ast.parse(open(p).read())
             for p in package + glob.glob(os.path.join(PERFBENCH, "*.py"))}
    used = [(p, line, name) for p, tree in trees.items()
            for line, name in _names_used(tree)]
    unused = []
    for path in package:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name.startswith("__") and fn.name.endswith("__")):
                    continue
                own = range(fn.lineno, fn.end_lineno + 1)
                if not any(name == fn.name and not (p == path and line in own)
                           for p, line, name in used):
                    unused.append(f"{cls.name}.{fn.name}")
    assert unused == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read_outside_the_tests():
    # a field of a polycam dataclass counts as read when a polycam module
    # or the benchmark harness loads it as an attribute or names it in a
    # string; a field that is only set is a second owner of nothing
    package = glob.glob(os.path.join(os.path.dirname(polycam.__file__),
                                     "*.py"))
    trees = {p: ast.parse(open(p).read())
             for p in package + glob.glob(os.path.join(PERFBENCH, "*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                read.add(node.value)
    unread = [f"{cls.name}.{field.target.id}"
              for path in package for cls in trees[path].body
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for field in cls.body
              if isinstance(field, ast.AnnAssign)
              and isinstance(field.target, ast.Name)
              and field.target.id not in read]
    assert unread == []


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_is_raised_by_the_package():
    # an error class only the tests raise belongs in the tests
    text = "\n".join(open(importlib.import_module(name).__file__).read()
                     for name in MODULES)
    never = [cls.__name__ for cls in _subclasses(PolycamError)
             if cls.__module__.startswith("polycam.")
             and not re.search(rf"\braise\s+{cls.__name__}\b", text)]
    assert never == []


def test_tracer_finds_every_traced_entry_point(monkeypatch):
    # installed() looks the polycam modules up in sys.modules
    importlib.import_module("polycam.cli")
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    from spans import Tracer

    tracer = Tracer()
    with tracer.installed():
        pass
    # the benchmark's tracer still names the per-degree contraction, which
    # the solver's per-map Contraction operator replaced, and the square
    # root and exponential, which no kernel called (powers are x ** p);
    # drop these entries with their targets at the next change to the
    # benchmark
    assert tracer.missing == ["polycam.dapoly.contract_no_first_mode",
                              "TaylorPoly.sqrt", "TaylorPoly.exp"]


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
        chosen, _ = solver.filter_nodes(leo_event, grid, 1, template)
    assert len(chosen.node_epochs) == 1

    (ranking,) = [s for s in tracer.spans
                  if s.name == "mapbuilder.gradient_norm_per_node"]
    legs = [s for s in tracer.spans if s.parent == ranking.id
            and s.name == "dynamics.propagate_vector"]
    assert legs
