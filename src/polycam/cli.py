"""Command-line interface: scenario execution and synthetic generation.

``polycam run scenario.json [options]`` designs, solves and validates a
maneuver for one or more scenario files, writing machine-readable result
JSON (and optionally a B-plane CSV). ``polycam generate`` emits seeded
synthetic scenario files. Exit codes: 0 success, 2 parse error, 3
validation error, 4 solver non-convergence, 5 infeasible under the
thrust bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from .conjunction import ConjunctionEvent
from .dynamics import (CR3BP, DynamicsModel, J2, KEPLER, PropagationConfig,
                       SYNODIC, osculating_period)
from .errors import (ConfigurationError, CovarianceError,
                     DegenerateGradientError, GeometryError, GenerationError,
                     InfeasibleError, InfeasibleWithBoundError,
                     NonConvergenceError, NumericError, PolycamError,
                     PropagationError, ScenarioParseError, ValidationError)
from .mapbuilder import ControlSchedule, IMPULSIVE, LOW_THRUST, build_poc_map
from .scenarios import (DEFAULT_POC_BAND, generate_synthetic_suite,
                        parse_scenario, scenario_to_json)
from .solver import (SolverConfig, filter_nodes, solve_recursive,
                     solve_thrust_limited)
from .validate import validate_solution

__all__ = ["main", "run_scenario", "build_parser"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4
EXIT_INFEASIBLE = 5

_ERROR_CLASSES = [
    ((ScenarioParseError,), "parse", EXIT_PARSE),
    ((ValidationError, CovarianceError, GeometryError, ConfigurationError,
      GenerationError), "validation", EXIT_VALIDATION),
    ((NonConvergenceError, DegenerateGradientError, NumericError,
      PropagationError), "non-convergence", EXIT_NONCONVERGENCE),
    ((InfeasibleWithBoundError, InfeasibleError), "infeasible-with-bound",
     EXIT_INFEASIBLE),
]

_DYNAMICS = {"kepler": KEPLER, "j2": J2, "cr3bp": CR3BP}

_FIXED_DIR_ALIASES = {
    "tangential": (0.0, 1.0, 0.0),
    "radial": (1.0, 0.0, 0.0),
    "normal": (0.0, 0.0, 1.0),
}


def _classify(exc: Exception) -> tuple[str, int]:
    for types, name, code in _ERROR_CLASSES:
        if isinstance(exc, types):
            return name, code
    return "internal", EXIT_NONCONVERGENCE


def _parse_node_token(token, period_s: float | None, where: str) -> float:
    """One node epoch in seconds relative to closest approach (negative).

    Numbers are seconds before closest approach; the suffix ``orb`` marks
    orbit fractions before it (Earth regimes only).
    """
    if isinstance(token, (int, float)) and not isinstance(token, bool):
        seconds = float(token)
    elif isinstance(token, str):
        text = token.strip().lower()
        if text.endswith("orb"):
            if period_s is None:
                raise ValidationError(
                    f"orbit-fraction node {token!r} requires an Earth regime")
            try:
                fraction = float(text[:-3])
            except ValueError as exc:
                raise ScenarioParseError(
                    f"bad node token {token!r} in {where}") from exc
            seconds = fraction * period_s
        else:
            try:
                seconds = float(text)
            except ValueError as exc:
                raise ScenarioParseError(
                    f"bad node token {token!r} in {where}") from exc
    else:
        raise ScenarioParseError(f"bad node token {token!r} in {where}")
    if not math.isfinite(seconds):
        raise ScenarioParseError(f"non-finite node token {token!r} in {where}")
    if seconds <= 0.0:
        raise ValidationError(
            f"node {token!r} must lie strictly before closest approach")
    return -seconds


def _parse_fixed_direction(text: str) -> np.ndarray:
    name = text.strip().lower()
    if name in _FIXED_DIR_ALIASES:
        vec = np.array(_FIXED_DIR_ALIASES[name])
    else:
        try:
            vec = np.array([float(p) for p in name.split(",")])
        except ValueError as exc:
            raise ScenarioParseError(
                f"bad fixed direction {text!r}; use tangential|radial|normal "
                f"or three comma-separated components") from exc
        if vec.shape != (3,):
            raise ScenarioParseError("fixed direction needs three components")
        if not np.all(np.isfinite(vec)):
            raise ScenarioParseError(f"non-finite fixed direction {text!r}")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValidationError("fixed direction must be nonzero")
    return vec / norm


def _float_list(value, key: str) -> list:
    """Node tokens of option ``key``: a comma-separated string or a list."""
    if isinstance(value, str):
        return [tok for tok in value.split(",") if tok.strip()]
    if not isinstance(value, (list, tuple)):
        raise ScenarioParseError(f"bad {key} value {value!r}")
    return list(value)


def _resolve(cli_value, defaults: dict, key: str, fallback):
    if cli_value is not None:
        return cli_value
    if key in defaults:
        return defaults[key]
    return fallback


def _resolve_number(convert, args, defaults: dict, key: str, fallback):
    """Numeric option ``key`` resolved as by :func:`_resolve` and passed
    through ``convert``; one left unset stays None. A value that does not
    convert (a list or a word in the scenario defaults) is a parse error."""
    value = _resolve(getattr(args, key), defaults, key, fallback)
    if value is None:
        return None
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad {key} value {value!r}") from exc


def run_scenario(doc: dict, args: argparse.Namespace) -> tuple[int, dict]:
    """Execute one scenario document; returns (exit code, result payload).

    On failure the payload is an error object and no result file should be
    written.
    """
    started = time.perf_counter()
    try:
        event, defaults = parse_scenario(doc)

        dyn_name = _resolve(getattr(args, "dyn", None), defaults, "dynamics",
                            None)
        if dyn_name is not None:
            kind = _DYNAMICS.get(dyn_name) if isinstance(dyn_name, str) \
                else None
            if kind is None:
                raise ScenarioParseError(f"unknown dynamics {dyn_name!r}")
            if (kind == CR3BP) != (event.primary.frame == SYNODIC):
                raise ValidationError(
                    "dynamics override incompatible with the scenario frame")
            event = ConjunctionEvent(
                primary=event.primary, secondary=event.secondary,
                cov_primary=event.cov_primary,
                cov_secondary=event.cov_secondary,
                hbr_km=event.hbr_km, dynamics=DynamicsModel(kind=kind))

        period = None if event.dynamics.kind == CR3BP \
            else osculating_period(event.primary, event.dynamics)
        mode_name = str(_resolve(args.mode, defaults, "mode", "impulse"))
        if mode_name not in ("impulse", "lowthrust"):
            raise ScenarioParseError(f"unknown mode {mode_name!r}")
        mode = IMPULSIVE if mode_name == "impulse" else LOW_THRUST

        node_tokens = _float_list(_resolve(args.nodes, defaults, "nodes",
                                           ["0.5orb"] if period else [7200.0]),
                                  "nodes")
        epochs = tuple(sorted(
            _parse_node_token(tok, period, "nodes") for tok in node_tokens))

        fixed_dir_text = _resolve(args.fixed_dir, defaults, "fixed_dir", None)
        order = _resolve_number(int, args, defaults, "order", 5)
        target = _resolve_number(float, args, defaults, "target_poc", 1e-6)
        e_tol = _resolve_number(float, args, defaults, "etol", 1e-10)
        max_iter = _resolve_number(int, args, defaults, "max_iter", 200)
        steps = _resolve_number(int, args, defaults, "steps", 100)
        u_max = _resolve_number(float, args, defaults, "umax", None)

        solver_config = SolverConfig(max_order=order, e_tol=e_tol,
                                     max_iterations=max_iter,
                                     target_poc=target)
        prop_config = PropagationConfig(steps=steps)

        fixed_direction = None
        if fixed_dir_text is not None:
            fixed_direction = _parse_fixed_direction(str(fixed_dir_text))
        schedule = ControlSchedule(mode=mode, node_epochs=epochs,
                                   fixed_direction=fixed_direction)

        filter_tokens = _resolve(args.filter_grid, defaults, "filter_grid",
                                 None)
        if filter_tokens is not None:
            grid = [_parse_node_token(tok, period, "filter grid")
                    for tok in _float_list(filter_tokens, "filter_grid")]
            keep = _resolve_number(int, args, defaults, "filter_keep", 1)
        else:
            grid = None
            keep = None

        pmap = None
        if u_max is not None:
            dense = grid if grid is not None else list(epochs)
            solution = solve_thrust_limited(event, dense, u_max,
                                            solver_config, template=schedule,
                                            prop_config=prop_config)
        else:
            if grid is not None:
                schedule = filter_nodes(event, grid, keep, schedule,
                                        prop_config)
            pmap = build_poc_map(event, schedule, order, prop_config)
            solution = solve_recursive(pmap, solver_config)

        report = validate_solution(event, solution.schedule, solution.phi,
                                   target, pmap=pmap, config=prop_config)

        result = {
            "status": "ok",
            "scenario": doc.get("name"),
            "order": order,
            "mode": mode_name,
            "target_poc": target,
            "ballistic_poc": report.ballistic_poc,
            "node_epochs_s": [float(t) for t in solution.node_epochs],
            "solution": {
                "phi": [float(x) for x in solution.phi],
                "per_node_dv_ms": [[float(x) for x in v]
                                   for v in solution.per_node_dv_ms],
                "dv_total_ms": solution.dv_total_ms,
                "per_order_iterations": list(solution.per_order_iterations),
                "residual": solution.residual,
                "solve_wall_time_s": solution.wall_time_s,
            },
            "validation": {
                "validated_poc": report.validated_poc,
                "poc_log_error": report.poc_log_error,
                "dv_total_ms": report.dv_total_ms,
                "map_residual": report.map_residual,
                "bplane_before_km": [float(x) for x in report.bplane_before_km],
                "bplane_after_km": [float(x) for x in report.bplane_after_km],
                "chan_quadrature_agree": report.chan_quadrature_agree,
            },
            "wall_time_s": time.perf_counter() - started,
        }
        return EXIT_OK, result
    except json.JSONDecodeError as exc:
        return EXIT_PARSE, {"status": "error",
                            "error": {"class": "parse", "message": str(exc)}}
    except PolycamError as exc:
        name, code = _classify(exc)
        payload = {"status": "error",
                   "error": {"class": name, "message": str(exc)}}
        if isinstance(exc, InfeasibleWithBoundError) \
                and exc.residual_poc is not None:
            payload["error"]["residual_poc"] = exc.residual_poc
        return code, payload


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_bplane_csv(path: str, result: dict) -> None:
    before = result["validation"]["bplane_before_km"]
    after = result["validation"]["bplane_after_km"]
    lines = ["xi_km,zeta_km,label",
             f"{before[0]!r},{before[1]!r},ballistic",
             f"{after[0]!r},{after[1]!r},maneuver"]
    _write_atomic(path, "\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycam",
        description="Collision-avoidance maneuver design via polynomial "
                    "probability maps")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one or more scenario files")
    run.add_argument("scenarios", nargs="+", help="scenario JSON files")
    run.add_argument("--order", type=int, help="expansion order (default 5)")
    run.add_argument("--mode", choices=["impulse", "lowthrust"])
    run.add_argument("--nodes", help="comma list: seconds before closest "
                                     "approach, or orbit fractions like 0.5orb")
    run.add_argument("--target-poc", dest="target_poc", type=float)
    run.add_argument("--etol", type=float)
    run.add_argument("--max-iter", dest="max_iter", type=int)
    run.add_argument("--umax", type=float,
                     help="per-node impulse bound in m/s")
    run.add_argument("--fixed-dir", dest="fixed_dir",
                     help="tangential|radial|normal or r,t,n components")
    run.add_argument("--filter-grid", dest="filter_grid",
                     help="comma list of candidate epochs to rank")
    run.add_argument("--filter-keep", dest="filter_keep", type=int)
    run.add_argument("--dyn", choices=["kepler", "j2", "cr3bp"])
    run.add_argument("--steps", type=int,
                     help="integrator steps per segment (default 100)")
    run.add_argument("--out", help="result JSON path (single scenario)")
    run.add_argument("--out-dir", dest="out_dir",
                     help="directory for result files (batch)")
    run.add_argument("--bplane-csv", dest="bplane_csv",
                     help="write B-plane points CSV")

    gen = sub.add_parser("generate", help="emit synthetic scenario files")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--regime", choices=["LEO", "CISLUNAR"], default="LEO")
    gen.add_argument("--poc-min", dest="poc_min", type=float,
                     default=DEFAULT_POC_BAND[0])
    gen.add_argument("--poc-max", dest="poc_max", type=float,
                     default=DEFAULT_POC_BAND[1])
    gen.add_argument("--out-dir", dest="out_dir", required=True)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.out and len(args.scenarios) > 1:
        print(json.dumps({"status": "error", "error": {
            "class": "parse",
            "message": "--out only applies to a single scenario; "
                       "use --out-dir"}}))
        return EXIT_PARSE
    worst = EXIT_OK
    for path in args.scenarios:
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except FileNotFoundError:
            print(json.dumps({"status": "error", "error": {
                "class": "parse", "message": f"no such file: {path}"}}))
            worst = worst or EXIT_PARSE
            continue
        except json.JSONDecodeError as exc:
            print(json.dumps({"status": "error", "error": {
                "class": "parse", "message": f"{path}: {exc}"}}))
            worst = worst or EXIT_PARSE
            continue
        code, payload = run_scenario(doc, args)
        text = json.dumps(payload, indent=2, sort_keys=True)
        if code == EXIT_OK:
            out_path = args.out
            if args.out_dir:
                stem = os.path.splitext(os.path.basename(path))[0]
                out_path = os.path.join(args.out_dir, f"{stem}.result.json")
            if out_path:
                os.makedirs(os.path.dirname(os.path.abspath(out_path)),
                            exist_ok=True)
                _write_atomic(out_path, text + "\n")
            else:
                print(text)
            if args.bplane_csv:
                _write_bplane_csv(args.bplane_csv, payload)
        else:
            print(text)
        worst = worst or code
    return worst


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        docs = generate_synthetic_suite(args.seed, args.count, args.regime,
                                        poc_band=(args.poc_min, args.poc_max))
    except PolycamError as exc:
        name, code = _classify(exc)
        print(json.dumps({"status": "error",
                          "error": {"class": name, "message": str(exc)}}))
        return code
    os.makedirs(args.out_dir, exist_ok=True)
    for doc in docs:
        path = os.path.join(args.out_dir, f"{doc['name']}.json")
        _write_atomic(path, scenario_to_json(doc) + "\n")
    print(json.dumps({"status": "ok", "count": len(docs),
                      "out_dir": args.out_dir}))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_generate(args)


if __name__ == "__main__":
    sys.exit(main())
