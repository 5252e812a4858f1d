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
from dataclasses import replace

import numpy as np

from .conjunction import ConjunctionEvent
from .dynamics import CR3BP, DynamicsModel, PropagationConfig, osculating_period
from .errors import (ConfigurationError, CovarianceError,
                     DegenerateGradientError, DomainError, FrameError,
                     GeometryError, GenerationError, InfeasibleWithBoundError,
                     NonConvergenceError, NumericError, PolycamError,
                     PropagationError, ScenarioParseError, ValidationError)
from .mapbuilder import ControlSchedule, IMPULSIVE, LOW_THRUST, build_poc_map
from .scenarios import (_DYNAMICS_KINDS, DEFAULT_POC_BAND,
                        generate_synthetic_suite, parse_scenario,
                        scenario_to_json)
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
      GenerationError, FrameError), "validation", EXIT_VALIDATION),
    ((NonConvergenceError, DegenerateGradientError, NumericError,
      PropagationError, DomainError), "non-convergence", EXIT_NONCONVERGENCE),
    ((InfeasibleWithBoundError,), "infeasible-with-bound", EXIT_INFEASIBLE),
]

_FIXED_DIR_ALIASES = {
    "tangential": (0.0, 1.0, 0.0),
    "radial": (1.0, 0.0, 0.0),
    "normal": (0.0, 0.0, 1.0),
}
_MODES = {"impulse": IMPULSIVE, "lowthrust": LOW_THRUST}


def _classify(exc: Exception) -> tuple[str, int]:
    for types, name, code in _ERROR_CLASSES:
        if isinstance(exc, types):
            return name, code
    return "internal", EXIT_NONCONVERGENCE


def _error(name: str, message: str) -> dict:
    return {"status": "error", "error": {"class": name, "message": message}}


def _parse_node_token(token, event: ConjunctionEvent, where: str) -> float:
    """One node epoch in seconds relative to closest approach (negative).

    Numbers are seconds before closest approach; the suffix ``orb`` marks
    fractions of the primary's osculating period before it, which only an
    Earth regime on a closed orbit has.
    """
    if isinstance(token, bool) or not isinstance(token, (int, float, str)):
        raise ScenarioParseError(f"bad node token {token!r} in {where}")
    text, scale = str(token).strip().lower(), 1.0
    if text.endswith("orb"):
        if event.dynamics.kind == CR3BP:
            raise ValidationError(
                f"orbit-fraction node {token!r} requires an Earth regime")
        try:
            scale = osculating_period(event.primary, event.dynamics)
        except ConfigurationError as exc:
            raise ValidationError(
                f"orbit-fraction node {token!r} needs a period: {exc}"
            ) from exc
        text = text[:-3]
    try:
        seconds = float(text) * scale
    except ValueError as exc:
        raise ScenarioParseError(
            f"bad node token {token!r} in {where}") from exc
    if not math.isfinite(seconds):
        raise ScenarioParseError(f"non-finite node token {token!r} in {where}")
    if seconds <= 0.0:
        raise ValidationError(
            f"node {token!r} must lie strictly before closest approach")
    return -seconds


def _fixed_direction(text) -> np.ndarray:
    """Unit control direction from an alias or r,t,n components."""
    if not isinstance(text, str):
        raise TypeError(text)
    name = text.strip().lower()
    if name in _FIXED_DIR_ALIASES:
        vec = np.array(_FIXED_DIR_ALIASES[name])
    else:
        vec = np.array([float(p) for p in name.split(",")])
        if vec.shape != (3,):
            raise ValueError(text)
        if not np.all(np.isfinite(vec)):
            raise ScenarioParseError(f"non-finite fixed direction {text!r}")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValidationError("fixed direction must be nonzero")
    return vec / norm


def _tokens(value) -> list:
    """Node tokens: a comma-separated string or a list."""
    if isinstance(value, str):
        return [tok for tok in value.split(",") if tok.strip()]
    if not isinstance(value, list):
        raise TypeError(value)
    return value


def _integer(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _real(value) -> float:
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


# Run options: scenario ``defaults`` key -> (flag attribute, converter,
# fallback, help). The ``run`` flags are generated from this table, so a
# flag value and a default go through one converter. A fallback of None
# leaves the option unset; unset nodes take the regime's default.
_OPTIONS = {
    "dynamics": ("dyn", lambda name: DynamicsModel(kind=_DYNAMICS_KINDS[name]),
                 None, "kepler|j2|cr3bp: override the scenario dynamics"),
    "mode": ("mode", _MODES.__getitem__, IMPULSIVE,
             "impulse|lowthrust (default impulse)"),
    "nodes": ("nodes", _tokens, None,
              "comma list: seconds before closest approach, or orbit "
              "fractions like 0.5orb"),
    "fixed_dir": ("fixed_dir", _fixed_direction, None,
                  "tangential|radial|normal or r,t,n components"),
    "order": ("order", _integer, 5, "expansion order (default 5)"),
    "target_poc": ("target_poc", _real, 1e-6,
                   "target collision probability (default 1e-6)"),
    "etol": ("etol", _real, 1e-12, "iteration tolerance (default 1e-12)"),
    "max_iter": ("max_iter", _integer, 200,
                 "iteration budget per order (default 200)"),
    "steps": ("steps", _integer, None,
              "integrator steps per segment (default: picked by error "
              "control)"),
    "umax": ("umax", _real, None, "per-node impulse bound in m/s"),
    "filter_grid": ("filter_grid", _tokens, None,
                    "comma list of candidate epochs to rank (a repeated "
                    "epoch counts once)"),
    "filter_keep": ("filter_keep", _integer, 1,
                    "ranked epochs to keep (default 1)"),
}


def _flag(attr: str) -> str:
    return "--" + attr.replace("_", "-")


def _converted(convert, value, source: str):
    try:
        return convert(value)
    except (TypeError, ValueError, KeyError) as exc:
        raise ScenarioParseError(f"bad {source} value {value!r}") from exc


def _convert_flags(args: argparse.Namespace) -> dict:
    """Every run flag that is set, converted, by its defaults key. A value
    that does not convert is a parse error naming its flag."""
    flags = {}
    for key, (attr, convert, _, _) in _OPTIONS.items():
        value = getattr(args, attr, None)
        if value is not None:
            flags[key] = _converted(convert, value, _flag(attr))
    return flags


def _resolve_options(flags: dict, defaults: dict) -> dict:
    """Every run option: a converted flag wins, then the scenario's
    defaults, then the fallback. An unknown or null default, or one that
    does not convert, is a parse error naming its key."""
    for key in defaults:
        if key not in _OPTIONS:
            raise ScenarioParseError(f"unknown defaults key {key!r}")
    options = {}
    for key, (_, convert, fallback, _) in _OPTIONS.items():
        if key in flags:
            options[key] = flags[key]
        elif key not in defaults:
            options[key] = fallback
        elif defaults[key] is None:
            raise ScenarioParseError(f"defaults key {key!r} is null")
        else:
            options[key] = _converted(convert, defaults[key], key)
    return options


def _failure(exc: PolycamError) -> tuple[int, dict]:
    """Exit code and error object of a failed scenario."""
    name, code = _classify(exc)
    payload = _error(name, str(exc))
    if isinstance(exc, InfeasibleWithBoundError) \
            and exc.residual_poc is not None:
        payload["error"]["residual_poc"] = exc.residual_poc
    return code, payload


def run_scenario(doc: dict, args: argparse.Namespace) -> tuple[int, dict]:
    """Execute one scenario document; returns (exit code, result payload).

    On failure the payload is an error object and no result file should be
    written.
    """
    try:
        flags = _convert_flags(args)
    except PolycamError as exc:
        return _failure(exc)
    return _design(doc, flags)


def _design(doc: dict, flags: dict) -> tuple[int, dict]:
    """:func:`run_scenario` with the run flags already converted."""
    started = time.perf_counter()
    try:
        event, defaults = parse_scenario(doc)
        opts = _resolve_options(flags, defaults)
        if opts["dynamics"] is not None:
            # the event re-checks its frames against the new dynamics
            event = replace(event, dynamics=opts["dynamics"])

        nodes = opts["nodes"]
        if nodes is None:
            nodes = [7200.0] if event.dynamics.kind == CR3BP else ["0.5orb"]
        epochs = tuple(sorted(
            _parse_node_token(tok, event, "nodes") for tok in nodes))

        order, target = opts["order"], opts["target_poc"]
        solver_config = SolverConfig(max_order=order, e_tol=opts["etol"],
                                     max_iterations=opts["max_iter"],
                                     target_poc=target)
        prop_config = PropagationConfig(steps=opts["steps"])
        schedule = ControlSchedule(mode=opts["mode"], node_epochs=epochs,
                                   fixed_direction=opts["fixed_dir"])
        keep_set = "filter_keep" in flags or "filter_keep" in defaults
        if keep_set and (opts["filter_grid"] is None
                         or opts["umax"] is not None):
            source = "--filter-keep" if "filter_keep" in flags \
                else "defaults key 'filter_keep'"
            raise ScenarioParseError(
                f"{source} needs a filter grid and excludes umax")
        grid = None
        if opts["filter_grid"] is not None:
            grid = [_parse_node_token(tok, event, "filter grid")
                    for tok in opts["filter_grid"]]

        pmap = start = None
        if opts["umax"] is not None:
            dense = grid if grid is not None else list(epochs)
            solution, start = solve_thrust_limited(
                event, dense, opts["umax"], solver_config, template=schedule,
                prop_config=prop_config)
        else:
            if grid is None:
                pmap = build_poc_map(event, schedule, order, prop_config)
            else:
                schedule, start = filter_nodes(
                    event, grid, opts["filter_keep"], schedule, prop_config)
                pmap = build_poc_map(event, schedule, order, start=start)
            start = pmap.start
            solution = solve_recursive(pmap, solver_config)

        report = validate_solution(event, solution.schedule, solution.phi,
                                   target, start, pmap)

        result = {
            "status": "ok",
            "scenario": doc.get("name"),
            "order": order,
            "mode": "impulse" if opts["mode"] == IMPULSIVE else "lowthrust",
            "target_poc": target,
            "ballistic_poc": report.ballistic_poc,
            "node_epochs_s": [float(t) for t in solution.node_epochs],
            "segment_steps": list(report.segment_steps),
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
                # null, not Infinity, when the validated PoC is 0: strict
                # JSON has no token for a non-finite number
                "poc_log_error": (report.poc_log_error
                                  if math.isfinite(report.poc_log_error)
                                  else None),
                "dv_total_ms": solution.dv_total_ms,
                "map_residual": report.map_residual,
                "bplane_before_km": [float(x) for x in report.bplane_before_km],
                "bplane_after_km": [float(x) for x in report.bplane_after_km],
                "chan_quadrature_agree": report.chan_quadrature_agree,
            },
            "wall_time_s": time.perf_counter() - started,
        }
        return EXIT_OK, result
    except PolycamError as exc:
        return _failure(exc)


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it,
    creating the directory; a failed write is a parse error naming
    ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        # the mode open() would give, not mkstemp's 0600
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ScenarioParseError(f"cannot write {path}: {exc}") from exc
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
    for attr, _, _, text in _OPTIONS.values():
        run.add_argument(_flag(attr), help=text)
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


def _result_path(args: argparse.Namespace, path: str) -> str | None:
    """Where the result of the scenario file ``path`` goes: ``--out``, or
    its file stem under ``--out-dir``; None prints it."""
    if args.out_dir:
        stem = os.path.splitext(os.path.basename(path))[0]
        return os.path.join(args.out_dir, f"{stem}.result.json")
    return args.out


def _output_conflict(args: argparse.Namespace) -> str | None:
    """Why the output flags would lose output, or None: one result file
    or one CSV cannot hold several scenarios, ``--out`` and ``--out-dir``
    would name two places for one result, two scenario files with one
    stem would share one result file under ``--out-dir``, and a write
    would replace a path that is not a regular file (symlinks followed)."""
    several = len(args.scenarios) > 1
    if args.out and args.out_dir:
        return "--out and --out-dir exclude each other"
    if args.out and several:
        return "--out only applies to a single scenario; use --out-dir"
    if args.bplane_csv and several:
        return "--bplane-csv only applies to a single scenario"
    if args.out_dir:
        seen = set()
        for path in args.scenarios:
            out_path = _result_path(args, path)
            if out_path in seen:
                return (f"--out-dir would write two results to {out_path}; "
                        f"scenario file names must differ")
            seen.add(out_path)
    return _irregular_path([args.bplane_csv] + [_result_path(args, path)
                                                for path in args.scenarios])


def _irregular_path(paths) -> str | None:
    """Why a write to one of ``paths`` (None entries skipped) would replace
    something that is not a regular file, symlinks followed, or None."""
    for path in paths:
        if path and os.path.exists(path) and not os.path.isfile(path):
            return f"{path} exists and is not a regular file"
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    conflict = _output_conflict(args)
    if conflict:
        print(json.dumps(_error("parse", conflict)))
        return EXIT_PARSE
    # a bad flag fails every scenario alike: report it once, run none
    try:
        flags = _convert_flags(args)
    except PolycamError as exc:
        code, payload = _failure(exc)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return code
    worst = EXIT_OK
    for path in args.scenarios:
        try:
            with open(path, "rb") as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:
            code, payload = EXIT_PARSE, _error("parse", f"{path}: {exc}")
        else:
            code, payload = _design(doc, flags)
        if code == EXIT_OK:
            text = json.dumps(payload, indent=2, sort_keys=True)
            out_path = _result_path(args, path)
            try:
                # the CSV goes first, so a failed write prints only its error
                if args.bplane_csv:
                    _write_bplane_csv(args.bplane_csv, payload)
                if out_path:
                    _write_atomic(out_path, text + "\n")
                else:
                    print(text)
            except PolycamError as exc:
                code, payload = _failure(exc)
        if code != EXIT_OK:
            print(json.dumps(payload, indent=2, sort_keys=True))
        worst = worst or code
    return worst


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        docs = generate_synthetic_suite(args.seed, args.count, args.regime,
                                        poc_band=(args.poc_min, args.poc_max))
        paths = [os.path.join(args.out_dir, f"{doc['name']}.json")
                 for doc in docs]
        conflict = _irregular_path(paths)
        if conflict:
            raise ScenarioParseError(conflict)
        for doc, path in zip(docs, paths):
            _write_atomic(path, scenario_to_json(doc) + "\n")
    except PolycamError as exc:
        code, payload = _failure(exc)
        print(json.dumps(payload))
        return code
    print(json.dumps({"status": "ok", "count": len(docs),
                      "out_dir": args.out_dir}))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = (_cmd_run if args.command == "run" else _cmd_generate)(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early (`| head`): an unwritable output, with nowhere
        # to report it; the interpreter's last flush goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
