"""Acceptance suite: one test per criterion, one printed verdict line each.

Scenarios are a deterministic seeded set (20 LEO + 5 cislunar) drawn in the
ballistic-probability band where single-map solves of the design method are
well-posed; run with ``pytest tests/test_acceptance.py -s`` to see the
verdict lines as they pass.
"""

import math
import statistics
import time

import numpy as np
import pytest

from polycam import dynamics as dyn
from polycam.conjunction import poc_chan
from polycam.mapbuilder import (ControlSchedule, IMPULSIVE, build_poc_map,
                                gradient_norm_per_node,
                                propagate_with_controls)
from polycam.scenarios import generate_synthetic_suite, scenario_to_event
from polycam.solver import (SolverConfig, pseudo_gradient, solve_recursive,
                            solve_thrust_limited)
from polycam.validate import validate_solution

from grid_oracle import grid_oracle_single_impulse
from invariants import jacobi_constant, specific_energy
from poly_reference import homogeneous
from quadrature_reference import criterion_1_draws

SUITE_SEED = 20260810
LEO_COUNT = 20
CISLUNAR_COUNT = 5
POC_BAND = (1.5e-6, 4e-6)
TARGET = 1e-6
E_TOL = 1e-12
ORDERS = (2, 3, 4, 5)

# Fixed-point solves are locally, not globally, optimal: comparisons between
# two independently solved problems carry this much relative slack.
SOLVER_NOISE = 0.005


def _report(number: int, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {state} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _schedule_for(event) -> ControlSchedule:
    if event.dynamics.kind == dyn.CR3BP:
        return ControlSchedule(mode=IMPULSIVE, node_epochs=(-7200.0,))
    period = dyn.osculating_period(event.primary, event.dynamics)
    return ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * period,))


@pytest.fixture(scope="session")
def suite():
    leo = [scenario_to_event(doc) for doc in generate_synthetic_suite(
        SUITE_SEED, LEO_COUNT, "LEO", poc_band=POC_BAND)]
    cislunar = [scenario_to_event(doc) for doc in generate_synthetic_suite(
        SUITE_SEED, CISLUNAR_COUNT, "CISLUNAR", poc_band=POC_BAND)]
    return leo, cislunar


@pytest.fixture(scope="session")
def solved_suite(suite):
    """Per scenario and per order: map, solution, validation (or None when
    that order's truncated constraint admits no fixed point)."""
    leo, cislunar = suite
    results = []
    for event in leo + cislunar:
        schedule = _schedule_for(event)
        per_order = {}
        for order in ORDERS:
            began = time.perf_counter()
            pmap = build_poc_map(event, schedule, order=order)
            try:
                solution = solve_recursive(pmap, SolverConfig(max_order=order))
            except Exception:
                per_order[order] = None
                continue
            elapsed = time.perf_counter() - began
            report = validate_solution(event, schedule, solution.phi, TARGET,
                                       pmap.start, pmap)
            per_order[order] = (pmap, solution, report, elapsed)
        results.append({"event": event, "schedule": schedule,
                        "orders": per_order})
    return results


def _leo_results(solved_suite):
    return [r for r in solved_suite
            if r["event"].dynamics.kind != dyn.CR3BP]


def test_criterion_1_poc_oracle_equivalence():
    began = time.perf_counter()
    worst = 0.0
    for r_b, p_b, hbr, reference in criterion_1_draws():
        series = poc_chan(r_b, p_b, hbr)
        worst = max(worst, abs(series - reference) / reference)
    elapsed = time.perf_counter() - began
    _report(1, worst <= 1e-6 and elapsed < 10.0,
            f"series vs quadrature over 200 draws: worst rel err "
            f"{worst:.2e} (tol 1e-6), runtime {elapsed:.1f}s (< 10s)")


def test_criterion_2_targeting_accuracy(solved_suite):
    errors = []
    for entry in _leo_results(solved_suite):
        result = entry["orders"][5]
        errors.append(result[2].poc_log_error if result else math.inf)
    worst = max(errors)
    _report(2, worst <= 0.1,
            f"single impulse 0.5 orbits, order 5: worst "
            f"|log10 PoC - log10 1e-6| = {worst:.4f} over "
            f"{len(errors)} LEO scenarios (tol 0.1)")


def test_criterion_3_order_monotonicity(solved_suite):
    medians = []
    for order in ORDERS:
        errs = []
        for entry in solved_suite:
            result = entry["orders"][order]
            errs.append(result[2].poc_log_error if result else math.inf)
        medians.append(statistics.median(errs))
    ok = all(b <= a for a, b in zip(medians, medians[1:]))
    _report(3, ok,
            "median log targeting error by order "
            + " -> ".join(f"{m:.3e}" for m in medians))


def test_criterion_4_iteration_decay(solved_suite):
    means = []
    for idx, order in enumerate(ORDERS):
        counts = []
        for entry in solved_suite:
            result = entry["orders"][5]
            if result:
                counts.append(result[1].per_order_iterations[idx + 1])
        means.append(statistics.mean(counts))
    # exact counts are machine-local; the requirement is the decaying trend
    trend = all(b <= a * 1.05 for a, b in zip(means, means[1:]))
    ok = trend and means[0] > means[-1]
    _report(4, ok,
            "mean iterations by order "
            + " -> ".join(f"{m:.1f}" for m in means))


def test_criterion_5_fixed_point_certificate(solved_suite):
    worst = 0.0
    checked = 0
    for entry in solved_suite:
        for order in ORDERS:
            result = entry["orders"][order]
            if result is None:
                continue
            pmap, solution, _, _ = result
            # the certificate is the final order's: an intermediate order
            # only seeds the next and may hand on an unconverged point
            if not solution.per_order_converged[-1]:
                continue
            phi_scaled = solution.phi / pmap.scaling
            # the map is log PoC, so the constraint's gap is in log, from
            # its constant part
            rho = math.log(TARGET) - pmap.poly.constant_part
            if rho >= 0.0:
                continue
            constraint = sum(homogeneous(pmap.poly, k).eval(phi_scaled)
                             for k in range(1, order + 1))
            bound = 10.0 * E_TOL * np.linalg.norm(
                pseudo_gradient(pmap, order, phi_scaled)[0])
            worst = max(worst, abs(constraint - rho) / bound)
            checked += 1
    _report(5, worst <= 1.0,
            f"|truncated constraint - gap| <= 10*e_tol*|g| on {checked} "
            f"converged solves; worst ratio {worst:.3f}")


def test_criterion_6_optimality_vs_oracle(solved_suite):
    worst = 0.0
    slowest = 0.0
    for entry in _leo_results(solved_suite)[:5]:
        pmap, solution, _, _ = entry["orders"][5]
        node_time = entry["schedule"].node_epochs[0]
        began = time.perf_counter()
        oracle_dv = grid_oracle_single_impulse(
            entry["event"], node_time, TARGET,
            radius_ms=5.0 * solution.dv_total_ms, resolution=512)
        slowest = max(slowest, time.perf_counter() - began)
        oracle_mag = float(np.linalg.norm(oracle_dv))
        worst = max(worst, abs(solution.dv_total_ms - oracle_mag) / oracle_mag)
    _report(6, worst <= 0.03 and slowest <= 120.0,
            f"solver dv vs exhaustive grid on 5 scenarios: worst rel diff "
            f"{worst:.4f} (tol 0.03), slowest oracle {slowest:.1f}s (< 120s)")


def test_criterion_7_runtime(solved_suite):
    times = [entry["orders"][5][3] for entry in solved_suite
             if entry["orders"][5]]
    worst = max(times)
    _report(7, worst < 1.0,
            f"order-5 single-impulse map+solve: worst {worst:.3f}s over "
            f"{len(times)} scenarios (< 1s)")


def _advance(state, t1, model, config=dyn.PropagationConfig(steps=100)):
    """Ballistic ``state`` propagated from t = 0 to ``t1``."""
    y = dyn.propagate_vector((*state.r, *state.v), (0, 0, 0), 0.0, t1, model,
                             config)
    return dyn.SpacecraftState(r=y[:3], v=y[3:], frame=state.frame)


def test_criterion_8_dynamics_conservation():
    model = dyn.DynamicsModel(kind=dyn.KEPLER)
    vc = math.sqrt(model.mu / 6900.0)
    state = dyn.SpacecraftState(r=[6900.0, 0, 0],
                                v=[0, vc * math.cos(0.3), vc * math.sin(0.3)])
    period = dyn.osculating_period(state, model)
    e0 = specific_energy(state, model)
    s = state
    for _ in range(5):
        s = _advance(s, period, model)
    energy_drift = abs(specific_energy(s, model) - e0) / abs(e0)

    model_j2 = dyn.DynamicsModel(kind=dyn.J2)
    state = dyn.SpacecraftState(r=[7100.0, 0, 0],
                                v=[0, vc * math.cos(0.9), vc * math.sin(0.9)])
    hz0 = np.cross(state.r, state.v)[2]
    s = state
    for _ in range(5):
        s = _advance(s, period, model_j2)
    hz_drift = abs(np.cross(s.r, s.v)[2] - hz0) / abs(hz0)

    model_3b = dyn.DynamicsModel(kind=dyn.CR3BP)
    r0 = 1.5
    state = dyn.SpacecraftState(r=[r0, 0, 0],
                                v=[0, math.sqrt(1.0 / r0) - r0, 0],
                                frame=dyn.SYNODIC)
    c0 = jacobi_constant(state, model_3b)
    end = _advance(state, 2 * math.pi, model_3b,
                   dyn.PropagationConfig(steps=400))
    jacobi_drift = abs(jacobi_constant(end, model_3b) - c0) / abs(c0)

    ok = energy_drift <= 1e-11 and hz_drift <= 1e-10 and jacobi_drift <= 1e-10
    _report(8, ok,
            f"two-body energy {energy_drift:.2e} (<=1e-11), J2 axial "
            f"momentum {hz_drift:.2e} (<=1e-10), Jacobi {jacobi_drift:.2e} "
            f"(<=1e-10)")


def test_criterion_9_map_fidelity(solved_suite):
    # (a) linear part against finite differences of the real pipeline's
    # log probability, the quantity the map expands
    entry = _leo_results(solved_suite)[0]
    event = entry["event"]
    schedule = entry["schedule"]
    pmap = entry["orders"][5][0]
    bplane = event.bplane
    fd = np.zeros(3)
    h = 1e-3  # m/s = 1e-6 km/s
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        plus = propagate_with_controls(event, schedule, step, pmap.start)
        minus = propagate_with_controls(event, schedule, -step, pmap.start)
        fd[k] = (math.log(poc_chan(plus, bplane.p_b, event.hbr_km))
                 - math.log(poc_chan(minus, bplane.p_b, event.hbr_km))) \
            / (2 * h)
    linear_err = float(np.linalg.norm(pmap.poly.gradient_at_zero() - fd)
                       / np.linalg.norm(fd))

    # (b) map value at the solution against the validated probability
    worst_residual = 0.0
    for entry in solved_suite:
        result = entry["orders"][5]
        if result:
            worst_residual = max(worst_residual,
                                 result[2].map_residual / TARGET)
    ok = linear_err <= 1e-4 and worst_residual <= 0.05
    _report(9, ok,
            f"linear part vs finite differences {linear_err:.2e} (<=1e-4); "
            f"worst |map - validated| = {worst_residual * 100:.2f}% of "
            f"target (<=5%)")


def _designate_balanced(solved_suite):
    """Scenario whose top two half-orbit nodes have the most comparable
    first-order authority (the multi-window splitting demonstration)."""
    best = None
    for entry in _leo_results(solved_suite):
        event = entry["event"]
        period = dyn.osculating_period(event.primary, event.dynamics)
        grid = [-2.5 * period, -1.5 * period, -0.5 * period]
        template = ControlSchedule(mode=IMPULSIVE, node_epochs=(grid[0],))
        norms = sorted((n for _, n, _ in
                        gradient_norm_per_node(event, grid, template)),
                       reverse=True)
        balance = norms[1] / norms[0] if norms[0] > 0 else 0.0
        if best is None or balance > best[0]:
            best = (balance, entry, grid)
    return best[1], best[2]


def test_criterion_10_thrust_limited(solved_suite):
    entry, grid = _designate_balanced(solved_suite)
    event = entry["event"]
    config = SolverConfig(max_order=5)
    template = ControlSchedule(mode=IMPULSIVE, node_epochs=(grid[0],))
    norms = gradient_norm_per_node(event, grid, template)
    top_time = max(norms, key=lambda item: (item[1], item[0]))[0]
    top = ControlSchedule(mode=IMPULSIVE, node_epochs=(top_time,))
    single = solve_recursive(build_poc_map(event, top, order=5), config)

    bounded, start = solve_thrust_limited(event, grid,
                                          u_max_ms=0.6 * single.dv_total_ms,
                                          config=config, template=template)
    engaged = len(bounded.per_node_dv_ms)
    schedule = ControlSchedule(mode=IMPULSIVE,
                               node_epochs=bounded.node_epochs)
    phi = np.concatenate([np.asarray(v) for v in bounded.per_node_dv_ms])
    report = validate_solution(event, schedule, phi, TARGET, start)
    ok = engaged == 2 and report.poc_log_error <= 0.1
    _report(10, ok,
            f"bound 0.6x single-node requirement: {engaged} nodes engaged "
            f"(want 2), log targeting error {report.poc_log_error:.4f} "
            f"(tol 0.1)")


def _designate_off_tangential(solved_suite):
    """Scenario whose probability gradient has the largest non-tangential
    fraction among those with a non-trivial probability gap (so the
    free/pinned comparison is not noise-dominated)."""
    best = None
    for entry in _leo_results(solved_suite):
        pmap, _, report, _ = entry["orders"][5]
        if report.ballistic_poc < 2.5e-6:
            continue
        grad = pmap.poly.gradient_at_zero()
        fraction = 1.0 - (grad[1] ** 2 / float(grad @ grad))
        if best is None or fraction > best[0]:
            best = (fraction, entry)
    return best[1]


def test_criterion_11_fixed_direction_economy(solved_suite):
    entry = _designate_off_tangential(solved_suite)
    event = entry["event"]
    period = dyn.osculating_period(event.primary, event.dynamics)
    nodes = tuple(-k * period for k in (3.5, 2.5, 1.5, 0.5))
    config = SolverConfig(max_order=5)
    prop = dyn.PropagationConfig(steps=60)

    tangential = np.array([0.0, 1.0, 0.0])
    pinned_sched = ControlSchedule(mode=IMPULSIVE, node_epochs=nodes,
                                   fixed_direction=tangential)
    began = time.perf_counter()
    pinned = solve_recursive(build_poc_map(event, pinned_sched, order=5,
                                           config=prop), config)
    pinned_time = time.perf_counter() - began

    free_sched = ControlSchedule(mode=IMPULSIVE, node_epochs=nodes)
    began = time.perf_counter()
    free = solve_recursive(build_poc_map(event, free_sched, order=5,
                                         config=prop), config)
    free_time = time.perf_counter() - began

    excess = pinned.dv_total_ms / free.dv_total_ms - 1.0
    ok = (excess >= -SOLVER_NOISE and excess < 0.20
          and pinned_time < free_time)
    _report(11, ok,
            f"tangential-only dv {pinned.dv_total_ms * 1000:.2f} mm/s vs "
            f"free {free.dv_total_ms * 1000:.2f} mm/s (excess "
            f"{excess * 100:.2f}%, want within [-{SOLVER_NOISE * 100:.1f}%, "
            f"20%)); wall {pinned_time:.1f}s vs {free_time:.1f}s")
