"""In-memory tracing of polycam's public entry points, from outside ``src/``.

:meth:`Tracer.installed` rebinds every module attribute (and class
attribute) of the ``polycam`` package that refers to a traced function, so
each call site inside the package goes through a wrapper; leaving the
context restores the original bindings. Nothing in the package itself is
changed.

Calls into the layers record spans (name, start, end, parent span, design
id, plus a few attributes). The algebra's operations -- polynomial
products, intrinsics and tensor contractions -- run tens of thousands of
times per design, so they are aggregated instead of recorded one by one:
each keeps a call count and a total time, and each span keeps the time its
outermost algebra calls took while it was the innermost open span. A
span's self time is its duration minus its child spans and that algebra
time.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs recorded as spans, and the span name used.
SPAN_TARGETS = (
    ("polycam.mapbuilder", "build_poc_map", "mapbuilder.build_poc_map"),
    ("polycam.mapbuilder", "gradient_norm_per_node",
     "mapbuilder.gradient_norm_per_node"),
    ("polycam.mapbuilder", "propagate_with_controls",
     "mapbuilder.propagate_with_controls"),
    ("polycam.dynamics", "propagate_vector", "dynamics.propagate_vector"),
    ("polycam.conjunction", "poc_chan", "conjunction.poc_chan"),
    ("polycam.conjunction", "poc_quadrature", "conjunction.poc_quadrature"),
    ("polycam.solver", "solve_recursive", "solver.solve_recursive"),
    ("polycam.solver", "solve_thrust_limited", "solver.solve_thrust_limited"),
    ("polycam.solver", "filter_nodes", "solver.filter_nodes"),
    ("polycam.validate", "validate_solution", "validate.validate_solution"),
)
# Aggregated algebra operations: TaylorPoly methods and module functions.
LEAF_METHODS = (("__mul__", "mul"), ("sqrt", "intrinsic"),
                ("reciprocal", "intrinsic"), ("exp", "intrinsic"),
                ("power", "intrinsic"))
LEAF_FUNCTIONS = (("polycam.dapoly", "contract_no_first_mode", "contract"),)
LEAF_KINDS = ("mul", "intrinsic", "contract")

DESIGN_SPAN = "cli.run_scenario"


class Span:
    __slots__ = ("id", "parent", "design", "name", "start", "end", "leaf_s",
                 "attrs")

    def __init__(self, id, parent, design, name, start, end=0.0, leaf_s=0.0,
                 attrs=None):
        self.id = id
        self.parent = parent
        self.design = design
        self.name = name
        self.start = start
        self.end = end
        self.leaf_s = leaf_s
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "design": self.design,
                "name": self.name, "start": self.start, "end": self.end,
                "leaf_s": self.leaf_s, **self.attrs}


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus child-span durations and its algebra time."""
    child_total: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_total[span.parent] += span.duration
    return {s.id: s.duration - child_total[s.id] - s.leaf_s for s in spans}


def _scalar_kind(values) -> str:
    from polycam.dapoly import TaylorPoly
    import numpy as np
    if any(isinstance(v, TaylorPoly) for v in values):
        return "poly"
    if any(isinstance(v, np.ndarray) and v.ndim > 0 for v in values):
        return "batch"
    return "float"


def _propagate_attrs(bound, result) -> dict:
    from polycam.dynamics import PropagationConfig
    args = bound.arguments
    steps = (args.get("config") or PropagationConfig()).steps
    if args["t1"] == args["t0"]:
        steps = 0
    return {"kind": _scalar_kind(args["y0"]), "steps": steps}


def _chan_attrs(bound, result) -> dict:
    return {"kind": _scalar_kind(bound.arguments["r_b"])}


def _solve_attrs(bound, result) -> dict:
    return {"pg_evals": int(sum(result.per_order_iterations)),
            "orders": len(result.per_order_converged),
            "orders_converged": int(sum(result.per_order_converged))}


ATTRS = {"dynamics.propagate_vector": _propagate_attrs,
         "conjunction.poc_chan": _chan_attrs,
         "solver.solve_recursive": _solve_attrs}


class Tracer:
    """Span recorder for one process; spans stay in memory until written."""

    def __init__(self):
        self.spans: list[Span] = []
        self.leaf_calls = dict.fromkeys(LEAF_KINDS, 0)
        self.leaf_s = dict.fromkeys(LEAF_KINDS, 0.0)
        self.missing: list[str] = []  # targets the package no longer has
        self._stack: list[Span] = []
        self._leaf_depth = 0
        self._design = None

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._design, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def design(self, design_id: int):
        """Root span of one design; spans opened inside carry its id."""
        self._design = design_id
        span = self._open(DESIGN_SPAN)
        try:
            yield span
        finally:
            self._close(span)
            self._design = None

    def _span_wrapper(self, fn, name: str):
        tracer = self
        attrs_of = ATTRS.get(name)
        signature = inspect.signature(fn) if attrs_of else None

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs_of is not None:
                bound = signature.bind(*args, **kwargs)
                span.attrs = attrs_of(bound, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _leaf_wrapper(self, fn, kind: str):
        tracer = self
        calls = self.leaf_calls
        totals = self.leaf_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            tracer._leaf_depth += 1
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - began
                tracer._leaf_depth -= 1
                calls[kind] += 1
                totals[kind] += elapsed
                if tracer._leaf_depth == 0 and tracer._stack:
                    tracer._stack[-1].leaf_s += elapsed

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Route every call site in ``polycam`` through the wrappers. A target
        the package no longer defines is skipped and listed in ``missing``."""
        from polycam.dapoly import TaylorPoly
        replaced: list[tuple[object, str, object]] = []
        owners = [module for name, module in list(sys.modules.items())
                  if name == "polycam" or name.startswith("polycam.")]
        owners.append(TaylorPoly)

        def wrap_everywhere(owner, attr, make_wrapper, arg):
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                return
            wrapper = make_wrapper(original, arg)
            for site in owners:  # every import site and alias
                for name, value in list(vars(site).items()):
                    if value is original:
                        replaced.append((site, name, value))
                        setattr(site, name, wrapper)

        try:
            for mod_name, func, name in SPAN_TARGETS:
                wrap_everywhere(sys.modules[mod_name], func, self._span_wrapper,
                                name)
            for mod_name, func, kind in LEAF_FUNCTIONS:
                wrap_everywhere(sys.modules[mod_name], func, self._leaf_wrapper,
                                kind)
            for method, kind in LEAF_METHODS:
                wrap_everywhere(TaylorPoly, method, self._leaf_wrapper, kind)
            yield self
        finally:
            for owner, attr, value in reversed(replaced):
                setattr(owner, attr, value)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


# -- per-layer metrics ---------------------------------------------------------

def _outermost(spans, by_id, name: str):
    """Spans called ``name`` that have no ancestor of the same name."""
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(span)
    return out


def _union_length(intervals) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


# Spans that block a design's result, for the coverage figure.
BLOCKING = ("mapbuilder.build_poc_map", "mapbuilder.gradient_norm_per_node",
            "solver.solve_recursive", "validate.validate_solution")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-design layer figures from a finished traced phase."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    designs = [s for s in spans if s.name == DESIGN_SPAN]
    n = len(designs)
    if n == 0:
        raise ValueError("no design spans recorded")

    def named(name, **match):
        return [s for s in spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in match.items())]

    def total(items):
        return sum(s.duration for s in items)

    def self_total(items):
        return sum(own[s.id] for s in items)

    builds = _outermost(spans, by_id, "mapbuilder.build_poc_map")
    solves = _outermost(spans, by_id, "solver.solve_recursive")
    validates = _outermost(spans, by_id, "validate.validate_solution")
    solved = named("solver.solve_recursive")
    orders = sum(s.attrs.get("orders", 0) for s in solved)
    converged = sum(s.attrs.get("orders_converged", 0) for s in solved)

    covered = 0.0
    for root in designs:
        intervals = [(s.start, s.end) for s in spans
                     if s.design == root.design and s.name in BLOCKING]
        covered += _union_length(intervals)
    wall = total(designs)

    calls, leaf = tracer.leaf_calls, tracer.leaf_s
    figures = {
        "dapoly.mul_calls": calls["mul"],
        "dapoly.mul_s": leaf["mul"],
        "dapoly.intrinsic_calls": calls["intrinsic"],
        "dapoly.contract_s": leaf["contract"],
        "dynamics.rk_steps.poly": sum(s.attrs.get("steps", 0) for s in
                                      named("dynamics.propagate_vector",
                                            kind="poly")),
        "dynamics.rk_steps.float": sum(s.attrs.get("steps", 0) for s in
                                       named("dynamics.propagate_vector",
                                             kind="float")),
        "dynamics.self_s.poly": self_total(named("dynamics.propagate_vector",
                                                 kind="poly")),
        "dynamics.self_s.float": self_total(named("dynamics.propagate_vector",
                                                  kind="float")),
        "conjunction.chan_calls.poly": len(named("conjunction.poc_chan",
                                                 kind="poly")),
        "conjunction.chan_calls.float": len(named("conjunction.poc_chan",
                                                  kind="float")),
        "conjunction.chan_s": total(named("conjunction.poc_chan")),
        "conjunction.quadrature_calls": len(named("conjunction.poc_quadrature")),
        "conjunction.quadrature_s": total(named("conjunction.poc_quadrature")),
        "mapbuilder.maps_per_op": len(named("mapbuilder.build_poc_map")),
        "mapbuilder.build_s": total(builds),
        "mapbuilder.build_self_s": self_total(named("mapbuilder.build_poc_map")),
        "mapbuilder.rank_s": total(_outermost(
            spans, by_id, "mapbuilder.gradient_norm_per_node")),
        "mapbuilder.replay_s": total(_outermost(
            spans, by_id, "mapbuilder.propagate_with_controls")),
        "solver.solves_per_op": len(solved),
        "solver.solve_s": total(solves),
        "solver.solve_self_s": self_total(solved),
        "solver.pg_evals": sum(s.attrs.get("pg_evals", 0) for s in solved),
        "validate.validate_s": total(validates),
        "validate.self_s": self_total(named("validate.validate_solution")),
        "cli.self_s": self_total(designs),
    }
    out = {name: value / n for name, value in figures.items()}
    out["solver.orders_converged_ratio"] = converged / orders if orders else 1.0
    out["trace.coverage_ratio"] = covered / wall
    return out
