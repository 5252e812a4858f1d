"""Seeded scenario lists for the benchmark workloads.

Every operation is one maneuver design: a ``polycam.cli.run_scenario(doc,
args)`` call with ``args`` parsed from a ``polycam run`` command line. The
lists below are built from the seed and their length alone; they are
never filtered or re-drawn by outcome, so a scenario that fails stays in the
list and counts as a failure. Every design is on its own scenario: the more
distinct scenarios a run averages over, the less its figures depend on the
seed. A workload's ``rate`` sizes a run: designs per second on the
reference host (see ``hostspeed.py``) when the rate was set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Ballistic probability band of the generated conjunctions and the design
# target: every gap is within a decade, the method's stated domain.
POC_BAND = (1.5e-6, 4e-6)
TARGET_POC = 1e-6
ORDER = 5

MULTI_NODES = "2.5orb,1.5orb,0.5orb"
FILTER_GRID = "0.5orb,0.75orb,1orb,1.25orb,1.5orb,1.75orb,2orb"
# Per-node impulse bound as a share of the single-node requirement at the
# top-ranked node, as in acceptance criterion 10.
UMAX_SHARE = 0.7


@dataclass(frozen=True)
class Design:
    """One design of a workload: a scenario document and its CLI options."""

    label: str
    doc: dict
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    # Algebras (variables, order) whose first construction is set-up.
    algebras: tuple[tuple[int, int], ...]
    # (seed, count) -> the run's design list.
    build: Callable[[int, int], list[Design]]
    rate: float

    def count(self, seconds: float) -> int:
        """Designs that take about ``seconds`` at the reference speed."""
        return max(1, round(seconds * self.rate))


def _argv(*extra: str) -> tuple[str, ...]:
    return ("--order", str(ORDER), "--target-poc", repr(TARGET_POC)) + extra


def _suite(seed: int, count: int, regime: str) -> list[dict]:
    from polycam.scenarios import generate_synthetic_suite
    return generate_synthetic_suite(seed, count, regime, poc_band=POC_BAND)


def single_impulse(seed: int, count: int) -> list[Design]:
    """LEO (half Keplerian, half with J2) and cislunar single-impulse designs
    in groups of four LEO to one cislunar, so any prefix keeps the 4:1 mix."""
    groups = math.ceil(count / 5)
    leo = _suite(seed, 4 * groups, "LEO")
    cislunar = _suite(seed, groups, "CISLUNAR")
    designs = []
    for group in range(groups):
        for k in range(4):
            doc = leo[4 * group + k]
            if k % 2:
                designs.append(Design(f"{doc['name']}/j2", doc,
                                      _argv("--nodes", "0.5orb", "--dyn", "j2")))
            else:
                designs.append(Design(f"{doc['name']}/kepler", doc,
                                      _argv("--nodes", "0.5orb")))
        doc = cislunar[group]
        designs.append(Design(doc["name"], doc, _argv("--nodes", "7200")))
    return designs[:count]


def multi_node(seed: int, count: int) -> list[Design]:
    """Three free impulses (9 variables) on LEO conjunctions."""
    return [Design(f"{doc['name']}/3node", doc,
                   _argv("--nodes", MULTI_NODES, "--steps", "60"))
            for doc in _suite(seed, count, "LEO")]


def umax_bound(doc: dict, nodes: str = MULTI_NODES) -> float:
    """Per-node bound (m/s): ``UMAX_SHARE`` times the single-node Δv at the
    node of largest first-order authority among ``nodes``.

    When that single-node solve does not converge, its best iterate stands
    in: the bound only has to be defined, and the design itself meets the
    same non-convergence and counts as failed.
    """
    import numpy as np
    from polycam.dynamics import osculating_period
    from polycam.errors import NonConvergenceError
    from polycam.mapbuilder import (IMPULSIVE, ControlSchedule, build_poc_map,
                                    gradient_norm_per_node)
    from polycam.scenarios import scenario_to_event
    from polycam.solver import SolverConfig, solve_recursive

    event = scenario_to_event(doc)
    period = osculating_period(event.primary, event.dynamics)
    grid = [-float(tok[:-3]) * period for tok in nodes.split(",")]
    template = ControlSchedule(mode=IMPULSIVE, node_epochs=(grid[0],))
    norms = gradient_norm_per_node(event, grid, template)
    top = max(norms, key=lambda item: (item[1], item[0]))[0]
    pmap = build_poc_map(event, ControlSchedule(mode=IMPULSIVE,
                                                node_epochs=(top,)), ORDER)
    try:
        dv = solve_recursive(pmap, SolverConfig(
            max_order=ORDER, target_poc=TARGET_POC)).dv_total_ms
    except NonConvergenceError as exc:
        dv = float(np.linalg.norm(np.asarray(exc.last_iterate) * pmap.scaling))
    return UMAX_SHARE * dv


def node_search(seed: int, count: int) -> list[Design]:
    """LEO designs taking the schedule options in turn: two with node
    filtering over a 7-epoch grid, then one with bounded-impulse sequencing
    over three nodes. The 2:1 mix keeps the median design inside one kind,
    so it does not jump between the two kinds' latencies from seed to seed."""
    designs = []
    for index, doc in enumerate(_suite(seed, count, "LEO")):
        if index % 3 != 2:
            designs.append(Design(f"{doc['name']}/filter", doc, _argv(
                "--filter-grid", FILTER_GRID, "--filter-keep", "1")))
        else:
            designs.append(Design(f"{doc['name']}/umax", doc, _argv(
                "--nodes", MULTI_NODES, "--umax", repr(umax_bound(doc)))))
    return designs


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("single_impulse", ((3, ORDER),), single_impulse, rate=2.1),
    Workload("multi_node", ((9, ORDER),), multi_node, rate=0.2),
    Workload("node_search", ((3, 1), (3, ORDER)), node_search, rate=0.54),
)}
