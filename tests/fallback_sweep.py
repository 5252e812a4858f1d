"""Exit-4 sweep of the solver over single-impulse maps.

Solves order-5 single-impulse maps at max orders 2 to 5 with
``solve_recursive`` in this process and prints one line per map and max
order: set, label, max order, ``ok`` or ``exit4``, the ``repr`` of the
physical control (the last iterate on exit 4) and the pseudo-gradient
evaluations of the solve, summed from its ``per_order_iterations`` (on
exit 4, those of the final order, which the error carries). A summary per set and max order follows, with the
exit-4 count, the evaluations and the in-process solve time. The sets are

- ``scenarios``: ``generate_synthetic_suite(2406, 20, "LEO")`` in the
  default band, one impulse at half an orbit;
- ``replay``: the 208 ``single_impulse`` designs of
  ``tests/replay_digests.py`` (seeds 2406 and 301-303).

The solver has one path, Newton on each order's fixed-point equation, so
an exit 4 here is a final order whose Newton iteration found no fixed
point. Run it on two trees and
compare the outputs::

    python tests/fallback_sweep.py > after.txt
    python tests/fallback_sweep.py --set scenarios

The polycam package is imported from ``src/`` next to this file, and the
replay designs from ``perfbench/``. The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_ORDERS = (2, 3, 4, 5)
MAP_ORDER = 5
REPLAY_SEEDS = (2406, 301, 302, 303)


def _single_impulse_map(event, token: str):
    """Order-5 map of one impulse at ``token`` (seconds, or orbit fractions
    with the suffix ``orb``) before closest approach."""
    from polycam.dynamics import osculating_period
    from polycam.mapbuilder import IMPULSIVE, ControlSchedule, build_poc_map

    if token.endswith("orb"):
        epoch = -float(token[:-3]) * osculating_period(event.primary,
                                                       event.dynamics)
    else:
        epoch = -float(token)
    schedule = ControlSchedule(mode=IMPULSIVE, node_epochs=(epoch,))
    return build_poc_map(event, schedule, MAP_ORDER)


def scenario_maps():
    """(label, map) of the 20 default-band LEO scenarios of seed 2406."""
    from polycam.scenarios import generate_synthetic_suite, scenario_to_event

    for doc in generate_synthetic_suite(2406, 20, "LEO"):
        yield doc["name"], _single_impulse_map(scenario_to_event(doc), "0.5orb")


def replay_maps():
    """(label, map) of the ``single_impulse`` benchmark designs, with the
    dynamics and node their command lines name."""
    from polycam.dynamics import DynamicsModel
    from polycam.scenarios import _DYNAMICS_KINDS, scenario_to_event
    from replay_digests import RUN_SECONDS
    from workloads import WORKLOADS

    workload = WORKLOADS["single_impulse"]
    for seed in REPLAY_SEEDS:
        for design in workload.build(seed, workload.count(RUN_SECONDS)):
            argv = design.argv
            event = scenario_to_event(design.doc)
            if "--dyn" in argv:
                kind = _DYNAMICS_KINDS[argv[argv.index("--dyn") + 1]]
                event = replace(event, dynamics=DynamicsModel(kind=kind))
            token = argv[argv.index("--nodes") + 1]
            yield f"{seed}/{design.label}", _single_impulse_map(event, token)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--set", action="append",
                        choices=("scenarios", "replay"),
                        help="map set (repeatable; default: both)")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"),
                    os.path.join(ROOT, "tests")]
    from polycam import solver
    from polycam.errors import NonConvergenceError

    sources = {"scenarios": scenario_maps, "replay": replay_maps}
    summary = []
    for set_name in args.set or list(sources):
        totals = {n: [0, 0, 0.0] for n in MAX_ORDERS}  # exit 4, evals, s
        for label, pmap in sources[set_name]():
            for n in MAX_ORDERS:
                config = solver.SolverConfig(max_order=n)
                started = time.perf_counter()
                try:
                    sol = solver.solve_recursive(pmap, config)
                    phi, evals, verdict = (sol.phi,
                                           sum(sol.per_order_iterations), "ok")
                except NonConvergenceError as exc:
                    phi = exc.last_iterate * pmap.scaling
                    evals, verdict = exc.iterations, "exit4"
                    totals[n][0] += 1
                totals[n][1] += evals
                totals[n][2] += time.perf_counter() - started
                print(f"{set_name} {label} {n} {verdict} "
                      f"{[float(x) for x in phi]!r} {evals}", flush=True)
        summary += [f"# {set_name} max order {n}: exit4 {t[0]} evals {t[1]} "
                    f"solve {t[2]:.3f} s" for n, t in totals.items()]
    print("\n".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
