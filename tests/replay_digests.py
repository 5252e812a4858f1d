"""Result digests of the benchmark designs, for "same answers" checks.

Runs every design of the given benchmark workloads and seeds through
``polycam.cli.run_scenario`` in this process and prints one line per
design: workload, seed, index, label, exit code, the SHA-256 of the
result JSON without its timing fields (``wall_time_s`` and
``solve_wall_time_s``), then the ``repr`` of the validated PoC and of the
total delta-v (m/s) and the sum of the per-order iteration counts, so a
moved digest shows whether the numbers moved only at round-off (a failed
design prints ``-`` for each). The design lists are those of
``perfbench/workloads.py`` at its run length, read as they are;
``--order N`` replaces their expansion order of 5. Run it on two trees
and compare the outputs::

    python tests/replay_digests.py > after.txt
    python tests/replay_digests.py --workload single_impulse --seed 7
    python tests/replay_digests.py --order 3

The defaults cover the three workloads at seeds 2406 and 301-303. The
polycam package is imported from ``src/`` next to this file, and the
workloads from ``perfbench/``. The file name keeps pytest from collecting
it.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEEDS = (2406, 301, 302, 303)
# the benchmark's run length: each workload's design count follows from it
RUN_SECONDS = 25.0


def _figures(payload: dict) -> str:
    """Validated PoC, total delta-v and summed iterations of a result."""
    if "solution" not in payload:
        return "- - -"
    solution = payload["solution"]
    return (f"{payload['validation']['validated_poc']!r} "
            f"{solution['dv_total_ms']!r} "
            f"{sum(solution['per_order_iterations'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, action="append",
                        help="seed (repeatable; default: 2406 301 302 303)")
    parser.add_argument("--order", type=int,
                        help="expansion order replacing the designs' 5")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from checks import result_digest
    from polycam.cli import build_parser, run_scenario
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    seeds = args.seed or list(DEFAULT_SEEDS)
    cli = build_parser()
    for name in names:
        workload = WORKLOADS[name]
        for seed in seeds:
            designs = workload.build(seed, workload.count(RUN_SECONDS))
            for index, design in enumerate(designs):
                argv = list(design.argv)
                if args.order is not None:
                    argv[argv.index("--order") + 1] = str(args.order)
                parsed = cli.parse_args(["run", f"{design.label}.json", *argv])
                code, payload = run_scenario(design.doc, parsed)
                print(f"{name} {seed} {index} {design.label} {code} "
                      f"{result_digest(payload)} {_figures(payload)}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
