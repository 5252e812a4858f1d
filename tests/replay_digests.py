"""Result digests of the benchmark designs, for "same answers" checks.

Runs every design of the given benchmark workloads and seeds through
``polycam.cli.run_scenario`` in this process and prints one line per
design: workload, seed, index, label, exit code, the SHA-256 of the
result JSON without its timing fields (``wall_time_s`` and
``solve_wall_time_s``), then the ``repr`` of the validated PoC and of the
total delta-v (m/s), the sum of the per-order iteration counts and the
map's disagreement with validation as a share of the target
(``map_residual / target_poc``), so a moved digest shows whether the
numbers moved only at round-off (a failed design prints ``-`` for each,
and a design solved without one map, under ``--umax``, for the last).
The design lists are those of ``perfbench/workloads.py`` at its run
length, read as they are, then those of ``DESIGN_SETS`` below, which no
workload runs; ``--order N`` replaces their expansion order of 5.
``--oracle`` appends one field to each line: for a design that exits 0
with one impulse of nonzero delta-v on a Kepler or J2 conjunction, its
delta-v over the grid oracle's (:func:`_oracle_ratio`), else ``-``. Run
it on two trees and compare the outputs::

    python tests/replay_digests.py > after.txt
    python tests/replay_digests.py --short
    python tests/replay_digests.py --workload single_impulse --seed 7
    python tests/replay_digests.py --workload ranked_low_thrust
    python tests/replay_digests.py --order 3
    python tests/replay_digests.py --short --oracle
    python tests/replay_digests.py --compare before.txt after.txt

``--compare BEFORE AFTER`` runs nothing: it reads two such outputs and
prints, per set and over all, the design count, each moved digest, each
exit-code change, each design exiting 0 in both whose delta-v moved by
more than ``DV_MOVE`` relative, the largest relative move of the
validated PoC and of the delta-v over designs that exit 0 in both, each
side's worst |log10 PoC - log10 target| and each side's summed
iterations (:func:`compare`). It exits 1 when it lists a design found on
one side only, an exit-code change or a delta-v move (``FAILING``), and
0 otherwise, so a same-answers claim is one command that must pass.

The defaults cover the three workloads and the nine design sets at
seeds 1-40, the census of 4280 designs, so that every case the paper
reports runs: single impulses, several impulses and low-thrust arcs
under Kepler, J2 and three-body dynamics. ``--short`` runs the earlier
default seeds 2406 and 301-303 (428 designs), so that outputs made with
them still compare; ``tests/short_census.txt`` holds its output, against
which ``tests/test_replay_digests.py`` compares a fresh run. A new set's
lines are appended to it by ``--short --workload NAME``, which leaves
the other lines as they were. The polycam package is imported from
``src/`` next to this file, and the workloads from ``perfbench/``. The
file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEEDS = tuple(range(1, 41))
SHORT_SEEDS = (2406, 301, 302, 303)
# a delta-v move above this, relative, is listed by --compare
DV_MOVE = 1e-6
# --compare lines that fail it: a design on one side only, an exit-code
# change and a delta-v move above DV_MOVE
FAILING = ("only in ", "  exit ", "  delta-v ")
# the benchmark's run length: each workload's design count follows from it
RUN_SECONDS = 25.0
# designs per seed of each design set, and each set's regime and options:
# ranked low-thrust arcs; three J2 impulses, whose last coast integrates
# in the 9-variable algebra; a low-thrust arc and a J2 impulse on a step
# count, whose back-propagations take the count rather than a mesh; one
# low-thrust arc of four held accelerations, whose last one integrates in
# the 12-variable algebra; one impulse on a conjunction of the
# generator's default band, up to four decades above the target, so over
# a wider range of misses than the workloads' band; then the paper's
# cases that no workload runs: a J2 low-thrust arc, three cislunar
# impulses and a cislunar low-thrust arc
DESIGNS_PER_SEED = 4
DESIGN_SETS = {
    "ranked_low_thrust": ("LEO", (
        "--mode", "lowthrust", "--nodes", "2orb,1orb,0.5orb", "--filter-grid",
        "3orb,2.75orb,2.5orb,2.25orb,2orb,1.75orb,1.5orb",
        "--filter-keep", "1")),
    "j2_three_node": ("LEO", ("--nodes", "2.5orb,1.5orb,0.5orb",
                              "--dyn", "j2")),
    "low_thrust_steps": ("LEO", ("--mode", "lowthrust", "--nodes",
                                 "1orb,0.5orb", "--steps", "40")),
    "j2_steps": ("LEO", ("--nodes", "0.5orb", "--dyn", "j2",
                         "--steps", "40")),
    "low_thrust_12": ("LEO", ("--mode", "lowthrust", "--nodes",
                              "2orb,1.5orb,1orb,0.5orb,0.25orb")),
    "default_band": ("LEO", ("--nodes", "0.5orb")),
    "j2_low_thrust": ("LEO", ("--mode", "lowthrust", "--nodes",
                              "1orb,0.5orb", "--dyn", "j2")),
    "cislunar_three_node": ("CISLUNAR", ("--nodes", "21600,14400,7200")),
    "cislunar_low_thrust": ("CISLUNAR", ("--mode", "lowthrust", "--nodes",
                                         "14400,7200")),
}
# sets drawn from the generator's default ballistic probability band; the
# others take the workloads' band
DEFAULT_BAND_SETS = {"default_band"}


def set_designs(name: str, seed: int, workloads, count: int = DESIGNS_PER_SEED
                ) -> list:
    """The first ``count`` designs of ``DESIGN_SETS[name]`` at ``seed``, in
    the set's regime, as ``workloads.Design`` (``workloads`` being
    ``perfbench/workloads.py``)."""
    from polycam.scenarios import generate_synthetic_suite
    regime, options = DESIGN_SETS[name]
    band = {} if name in DEFAULT_BAND_SETS else {
        "poc_band": workloads.POC_BAND}
    docs = generate_synthetic_suite(seed, count, regime, **band)
    return [workloads.Design(f"{doc['name']}/{name}", doc, (
        "--order", str(workloads.ORDER), "--target-poc",
        repr(workloads.TARGET_POC), *options)) for doc in docs]


def _figures(payload: dict) -> str:
    """Validated PoC, total delta-v, summed iterations and map residual
    over the target of a result."""
    if "solution" not in payload:
        return "- - - -"
    solution, validation = payload["solution"], payload["validation"]
    residual = validation["map_residual"]
    return (f"{validation['validated_poc']!r} "
            f"{solution['dv_total_ms']!r} "
            f"{sum(solution['per_order_iterations'])} "
            + ("-" if residual is None
               else f"{residual / payload['target_poc']:.2e}"))


def _oracle_ratio(doc: dict, parsed: argparse.Namespace, payload: dict) -> str:
    """A design's delta-v over that of ``tests/grid_oracle.py``'s
    :func:`grid_oracle_single_impulse` (512 directions, a radius of 3
    times the design's delta-v), run with the design's dynamics, node
    epoch and step count; ``-`` unless the design exits 0 with one
    impulse of nonzero delta-v on a Kepler or J2 conjunction, and
    ``infeasible`` where the oracle meets the target nowhere."""
    from dataclasses import replace

    from grid_oracle import InfeasibleError, grid_oracle_single_impulse
    from polycam import cli
    from polycam.dynamics import CR3BP, PropagationConfig
    from polycam.scenarios import parse_scenario

    solution = payload.get("solution")
    if (solution is None or payload["mode"] != "impulse"
            or len(solution["per_node_dv_ms"]) != 1
            or solution["dv_total_ms"] == 0.0):
        return "-"
    event, defaults = parse_scenario(doc)
    opts = cli._resolve_options(cli._convert_flags(parsed), defaults)
    if opts["dynamics"] is not None:
        event = replace(event, dynamics=opts["dynamics"])
    if event.dynamics.kind == CR3BP:
        return "-"
    dv = solution["dv_total_ms"]
    try:
        oracle = grid_oracle_single_impulse(
            event, payload["node_epochs_s"][0], payload["target_poc"],
            radius_ms=3.0 * dv, resolution=512,
            config=PropagationConfig(steps=opts["steps"]))
    except InfeasibleError:
        return "infeasible"
    return f"{dv / math.hypot(*oracle):.4f}"


def _read(path: str) -> dict:
    """{(set, seed, index, label): (exit code, digest, PoC, delta-v,
    iterations)} of the lines of one output, figures None where ``-``;
    an ``--oracle`` ratio is read past."""
    out = {}
    with open(path) as handle:
        for line in handle:
            name, seed, index, label, code, digest, *figures = line.split()
            poc, dv, iterations = (None if f == "-" else f
                                   for f in figures[:3])
            out[name, seed, index, label] = (
                int(code), digest, poc and float(poc), dv and float(dv),
                iterations and int(iterations))
    return out


def _summary(title: str, keys: list, before: dict, after: dict,
             target: float) -> list:
    """The compare lines of the designs ``keys``, present on both sides."""
    lines, moved, poc_move, dv_move = [], 0, 0.0, 0.0
    for key in keys:
        a, b = before[key], after[key]
        label = " ".join(key[1:])
        if a[1] != b[1]:
            moved += 1
            lines.append(f"  moved {label}")
        if a[0] != b[0]:
            lines.append(f"  exit {a[0]} -> {b[0]} {label}")
        elif a[0] == 0:
            poc_move = max(poc_move, abs(b[2] - a[2]) / abs(a[2]))
            move = abs(b[3] - a[3]) / abs(a[3])
            dv_move = max(dv_move, move)
            if move > DV_MOVE:
                lines.append(f"  delta-v {a[3]!r} -> {b[3]!r} ({move:.2e}) "
                             f"{label}")

    def worst(side):
        return max((abs(math.log10(side[key][2] / target)) for key in keys
                    if side[key][0] == 0), default=math.nan)

    def evaluations(side):
        return sum(side[key][4] or 0 for key in keys)

    return [f"{title}: {len(keys)} designs, {moved} digests moved", *lines,
            f"  largest relative move over exit 0 on both: validated PoC "
            f"{poc_move:.2e}, delta-v {dv_move:.2e}",
            f"  worst |log10 PoC - log10 target|: {worst(before):.3g} -> "
            f"{worst(after):.3g} decades",
            f"  evaluations: {evaluations(before)} -> {evaluations(after)}"]


def compare(before_path: str, after_path: str, target: float) -> list:
    """The lines of ``--compare``: :func:`_summary` per set, in the order
    of first appearance, and over all designs, after one line for each
    design found on one side only."""
    before, after = _read(before_path), _read(after_path)
    lines = [f"only in {path}: {' '.join(key)}"
             for path, one, other in ((before_path, before, after),
                                      (after_path, after, before))
             for key in one if key not in other]
    keys = [key for key in before if key in after]
    for name in dict.fromkeys(key[0] for key in keys):
        lines += _summary(name, [k for k in keys if k[0] == name], before,
                          after, target)
    return lines + _summary("all", keys, before, after, target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload or design set name (repeatable; "
                             "default: all)")
    parser.add_argument("--seed", type=int, action="append",
                        help="seed (repeatable; default: 1 to 40)")
    parser.add_argument("--short", action="store_true",
                        help="seeds 2406 301 302 303 instead of 1 to 40")
    parser.add_argument("--order", type=int,
                        help="expansion order replacing the designs' 5")
    parser.add_argument("--oracle", action="store_true",
                        help="append each single-impulse Kepler or J2 "
                             "design's delta-v over the grid oracle's")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two outputs of this script instead "
                             "of running designs; exit 1 on a design found "
                             "on one side only, an exit-code change or a "
                             "delta-v move")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads
    if args.compare:
        lines = compare(*args.compare, workloads.TARGET_POC)
        print("\n".join(lines))
        return int(any(line.startswith(FAILING) for line in lines))
    from checks import result_digest
    from polycam.cli import build_parser, run_scenario

    sets = {name: (lambda seed, w=workload: w.build(
        seed, w.count(RUN_SECONDS)))
        for name, workload in workloads.WORKLOADS.items()}
    sets.update((name, lambda seed, n=name: set_designs(n, seed, workloads))
                for name in DESIGN_SETS)
    names = args.workload or list(sets)
    seeds = args.seed or list(SHORT_SEEDS if args.short else DEFAULT_SEEDS)
    cli = build_parser()
    for name in names:
        for seed in seeds:
            for index, design in enumerate(sets[name](seed)):
                argv = list(design.argv)
                if args.order is not None:
                    argv[argv.index("--order") + 1] = str(args.order)
                parsed = cli.parse_args(["run", f"{design.label}.json", *argv])
                code, payload = run_scenario(design.doc, parsed)
                oracle = (f" {_oracle_ratio(design.doc, parsed, payload)}"
                          if args.oracle else "")
                print(f"{name} {seed} {index} {design.label} {code} "
                      f"{result_digest(payload)} {_figures(payload)}{oracle}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
