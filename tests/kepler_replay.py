"""Validated PoC of the Kepler benchmark designs against slower replays.

Runs the Kepler designs of the given benchmark workloads and seeds through
``polycam.cli.run_scenario`` and replays each validated solution from the
design's own start again: once with every coast integrated by DOP853 at
each equal step count given, and once with every coast in a 40-digit
copy of the closed-form step (mpmath). It prints one line per design:
workload, seed, label, then the validated PoC's relative difference from
each RK replay and from the 40-digit one, and at the end the worst of
each column and the widest spread of the RK replays about the 40-digit
one. Thrust arcs keep the design's own steps in every replay.

The 40-digit replay is the oracle of the closed-form coasts. A DOP853
replay over thousands of equal steps carries its own rounding, so its
difference from the validated PoC scatters with the step count::

    python tests/kepler_replay.py
    python tests/kepler_replay.py --workload node_search --seed 301
    python tests/kepler_replay.py --steps 1600 --steps 3200

The defaults cover the three workloads at seed 2406 and the counts 800,
1600, 3200, 6400 and 12 800. The polycam package is imported from
``src/`` next to this file, and the workloads from ``perfbench/``. The
file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import os
import sys

import mpmath as mp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the benchmark's run length: each workload's design count follows from it
RUN_SECONDS = 25.0
DEFAULT_STEPS = (800, 1600, 3200, 6400, 12800)


def mp_coast(y, u, t0, t1, model, plan=None):
    """The f and g step of :func:`polycam.dynamics._kepler_coast` in
    40-digit arithmetic, Newton run to 1e-35."""
    with mp.workdps(40):
        mu, dt = mp.mpf(model.mu), mp.mpf(t1) - mp.mpf(t0)
        r, v = [mp.mpf(c) for c in y[:3]], [mp.mpf(c) for c in y[3:]]
        rn = mp.sqrt(sum(c * c for c in r))
        sigma = sum(p * q for p, q in zip(r, v)) / mp.sqrt(mu)
        alpha = 2 / rn - sum(c * c for c in v) / mu
        a = 1 / alpha
        root_a = mp.sqrt(a)
        c1, c2 = sigma / root_a, 1 - rn * alpha
        mean = mp.sqrt(mu) * dt * alpha / root_a
        x = mean
        for _ in range(100):
            step = ((x + c1 * (1 - mp.cos(x)) - c2 * mp.sin(x) - mean)
                    / (1 + c1 * mp.sin(x) - c2 * mp.cos(x)))
            x -= step
            if abs(step) < mp.mpf(10) ** -35:
                break
        s, one_c = mp.sin(x), 1 - mp.cos(x)
        f = 1 - a / rn * one_c
        g = (a * sigma * one_c + rn * root_a * s) / mp.sqrt(mu)
        r_new = rn + (a - rn) * one_c + sigma * root_a * s
        f_dot = -mp.sqrt(mu) * root_a * s / (r_new * rn)
        g_dot = 1 - a / r_new * one_c
        return ([float(f * p + g * q) for p, q in zip(r, v)]
                + [float(f_dot * p + g_dot * q) for p, q in zip(r, v)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, action="append",
                        help="seed (repeatable; default: 2406)")
    parser.add_argument("--steps", type=int, action="append",
                        help="DOP853 equal steps per segment (repeatable; "
                             "default: 800 1600 3200 6400 12800)")
    args = parser.parse_args(argv)
    counts = args.steps or list(DEFAULT_STEPS)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from polycam import cli, mapbuilder
    from polycam import dynamics as dyn
    from polycam.conjunction import poc_chan
    from workloads import WORKLOADS

    validate, propagate = cli.validate_solution, mapbuilder.propagate_vector
    rows = []

    def replay(coast, event, schedule, phi, start):
        mapbuilder.propagate_vector = coast
        try:
            r_b = mapbuilder.propagate_with_controls(event, schedule, phi,
                                                     start)
        finally:
            mapbuilder.propagate_vector = propagate
        return poc_chan(r_b, event.bplane.p_b, event.hbr_km)

    def replayed(event, schedule, phi, target, start, pmap=None):
        # the start that validation replays from, fixed impulses included
        report = validate(event, schedule, phi, target, start, pmap)
        if event.dynamics.kind != dyn.KEPLER or report.validated_poc == 0.0:
            return report
        oracles = [
            replay(lambda y, u, t0, t1, model, plan=None, n=n:
                   dyn.integrate(y, u, t0, t1, model,
                                 dyn.PropagationConfig(steps=n)),
                   event, schedule, phi, start)
            for n in counts]
        oracles.append(replay(mp_coast, event, schedule, phi, start))
        rows.append([report.validated_poc / o - 1.0 for o in oracles]
                    + [max(abs(o / oracles[-1] - 1.0) for o in oracles[:-1])])
        print(*current, *(f"{d:+.2e}" for d in rows[-1][:-1]), flush=True)
        return report

    cli.validate_solution = replayed
    print("workload seed label", *(f"rk{n}" for n in counts), "mp40")
    try:
        for name in args.workload or list(WORKLOADS):
            workload = WORKLOADS[name]
            for seed in args.seed or [2406]:
                for design in workload.build(seed,
                                             workload.count(RUN_SECONDS)):
                    current = (name, seed, design.label)
                    parsed = cli.build_parser().parse_args(
                        ["run", f"{design.label}.json", *design.argv])
                    cli.run_scenario(design.doc, parsed)
    finally:
        cli.validate_solution = validate
    if rows:
        worst = [max(abs(row[k]) for row in rows) for k in range(len(rows[0]))]
        print("worst", *(f"{d:.2e}" for d in worst[:-1]))
        print(f"widest RK spread about mp40: {worst[-1]:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
