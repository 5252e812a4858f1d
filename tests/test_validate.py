from dataclasses import replace

import numpy as np
import pytest

from polycam import dynamics as dyn
from polycam import mapbuilder
from polycam.conjunction import poc_chan
from polycam.errors import ConfigurationError
from polycam.mapbuilder import (ControlSchedule, IMPULSIVE, build_poc_map,
                                propagate_with_controls)
from polycam.scenarios import generate_synthetic_suite, scenario_to_event
from polycam.solver import SolverConfig, solve_recursive
from polycam.validate import validate_solution

from grid_oracle import InfeasibleError, grid_oracle_single_impulse


@pytest.fixture(scope="module")
def solved(leo_event, leo_period):
    sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
    pmap = build_poc_map(leo_event, sched, order=5)
    sol = solve_recursive(pmap, SolverConfig(max_order=5))
    return sched, pmap, sol


class TestValidateSolution:
    def test_zero_maneuver_reproduces_ballistic(self, leo_event, solved):
        sched, pmap, _ = solved
        report = validate_solution(leo_event, sched, np.zeros(3), 1e-6,
                                   pmap.start, pmap)
        # same code path as a ballistic pass from the map's start:
        # bit-for-bit equality
        before = propagate_with_controls(leo_event, sched, None, pmap.start)
        assert report.validated_poc == report.ballistic_poc == poc_chan(
            before, leo_event.bplane.p_b, leo_event.hbr_km)
        np.testing.assert_array_equal(report.bplane_after_km,
                                      report.bplane_before_km)

    def test_solved_impulse_hits_target(self, leo_event, solved):
        sched, pmap, sol = solved
        report = validate_solution(leo_event, sched, sol.phi, 1e-6,
                                   pmap.start, pmap)
        assert report.poc_log_error <= 0.1
        assert report.map_residual <= 0.05 * 1e-6
        assert report.chan_quadrature_agree

    def test_doubling_overshoots(self, leo_event, solved):
        sched, pmap, sol = solved
        report = validate_solution(leo_event, sched, 2.0 * sol.phi, 1e-6,
                                   pmap.start)
        assert report.validated_poc < 1e-6

    def test_dv_accounting(self, leo_event, solved):
        # the solution owns the delta-v: the report carries none
        sched, pmap, sol = solved
        report = validate_solution(leo_event, sched, sol.phi, 1e-6,
                                   pmap.start)
        assert not hasattr(report, "dv_total_ms")
        assert sol.dv_total_ms == pytest.approx(
            sum(np.linalg.norm(v) for v in sol.per_node_dv_ms))
        assert sol.dv_total_ms == sched.delta_v(sol.phi)[1]

    def test_dimension_mismatch(self, leo_event, solved):
        sched, pmap, _ = solved
        with pytest.raises(ConfigurationError):
            validate_solution(leo_event, sched, np.zeros(5), 1e-6, pmap.start)


# Relative error allowed in a default-mesh design's validated PoC against
# a replay of its solution at 1600 equal steps.
MESH_POC_REL = 1e-8
# Not met on J2: at STEP_TOL = 1e-6 this half-orbit design takes 16 DOP853
# steps and reads 2.7e-8. Meeting 1e-8 takes STEP_TOL = 2e-7 (19-23 steps
# at seeds 2406, 11 and 77, reading 4.4-5.3e-9). A Kepler design's coasts,
# its back-propagation's too, take the closed form and meet it.
J2_NOT_MET = pytest.mark.xfail(strict=True, reason=(
    "default-mesh J2 designs are held to about 3e-8, not 1e-8"))
# What a default-mesh J2 design is held to: the half-orbit design reads
# 2.7e-8, and the worst of 88 J2 half-orbit designs 7.0e-8 (README).
J2_MESH_POC_REL = 1e-7


def fine_replay_error(regime, kind, monkeypatch):
    """|validated PoC / fine replay - 1| of a default-mesh design one
    node before the conjunction, the replay at 1600 equal steps."""
    doc = generate_synthetic_suite(2406, 1, regime, poc_band=(1.5e-6, 4e-6))[0]
    event = scenario_to_event(doc)
    event = replace(event, dynamics=dyn.DynamicsModel(kind=kind))
    node = -7200.0 if kind == dyn.CR3BP else -0.5 * dyn.osculating_period(
        event.primary, event.dynamics)
    sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(node,))
    pmap = build_poc_map(event, sched, order=5)
    solution = solve_recursive(pmap, SolverConfig(max_order=5))
    report = validate_solution(event, sched, solution.phi, 1e-6, pmap.start,
                               pmap)
    # the replay, and its back-propagation, integrate every coast: a Kepler
    # one would otherwise take the closed form on both sides
    monkeypatch.setattr(mapbuilder, "propagate_vector", dyn.integrate)
    start = mapbuilder.start_state(event, sched,
                                   dyn.PropagationConfig(steps=1600))
    fine = propagate_with_controls(event, sched, solution.phi, start)
    replayed = poc_chan(fine, event.bplane.p_b, event.hbr_km)
    return abs(report.validated_poc / replayed - 1.0)


@pytest.mark.parametrize("regime, kind", [
    pytest.param("LEO", dyn.KEPLER, id="kepler"),
    pytest.param("LEO", dyn.J2, id="j2", marks=J2_NOT_MET),
    pytest.param("CISLUNAR", dyn.CR3BP, id="cislunar")])
def test_default_mesh_matches_a_fine_replay(regime, kind, monkeypatch):
    assert fine_replay_error(regime, kind, monkeypatch) <= MESH_POC_REL


def test_default_mesh_j2_design_is_near_a_fine_replay(monkeypatch):
    assert fine_replay_error("LEO", dyn.J2, monkeypatch) <= J2_MESH_POC_REL


class TestGridOracle:
    def test_safe_target_returns_zero(self, leo_event, leo_period):
        dv = grid_oracle_single_impulse(leo_event, -0.5 * leo_period,
                                        target_poc=0.5, radius_ms=1.0,
                                        resolution=32)
        np.testing.assert_allclose(dv, np.zeros(3))

    def test_matches_recursive_solver(self, leo_event, leo_period, solved):
        _, _, sol = solved
        dv = grid_oracle_single_impulse(
            leo_event, -0.5 * leo_period, target_poc=1e-6,
            radius_ms=5.0 * sol.dv_total_ms, resolution=512)
        oracle_mag = np.linalg.norm(dv)
        assert abs(sol.dv_total_ms - oracle_mag) / oracle_mag <= 0.03

    def test_solution_feasible_at_oracle_point(self, leo_event, leo_period,
                                               solved):
        sched, pmap, sol = solved
        dv = grid_oracle_single_impulse(
            leo_event, -0.5 * leo_period, target_poc=1e-6,
            radius_ms=5.0 * sol.dv_total_ms, resolution=256)
        report = validate_solution(leo_event, sched, dv, 1e-6, pmap.start)
        assert report.validated_poc <= 1e-6 * (1 + 1e-6)

    def test_grid_convergence(self, leo_event, leo_period, solved):
        _, _, sol = solved
        coarse = grid_oracle_single_impulse(
            leo_event, -0.5 * leo_period, 1e-6,
            radius_ms=5.0 * sol.dv_total_ms, resolution=256)
        fine = grid_oracle_single_impulse(
            leo_event, -0.5 * leo_period, 1e-6,
            radius_ms=5.0 * sol.dv_total_ms, resolution=512)
        assert abs(np.linalg.norm(coarse) - np.linalg.norm(fine)) \
            / np.linalg.norm(fine) <= 0.01

    def test_oracle_lower_bounds_solver(self, leo_event, leo_period, solved):
        _, _, sol = solved
        dv = grid_oracle_single_impulse(
            leo_event, -0.5 * leo_period, 1e-6,
            radius_ms=5.0 * sol.dv_total_ms, resolution=512)
        # grid discretization can only make the oracle slightly pessimistic
        assert sol.dv_total_ms >= np.linalg.norm(dv) * (1 - 0.02)

    def test_infeasible_radius(self, leo_event, leo_period):
        with pytest.raises(InfeasibleError) as err:
            grid_oracle_single_impulse(leo_event, -0.5 * leo_period,
                                       target_poc=1e-12, radius_ms=1e-4,
                                       resolution=64)
        assert err.value.best_poc is not None

    def test_candidate_budget_enforced(self, leo_event, leo_period):
        with pytest.raises(ConfigurationError):
            grid_oracle_single_impulse(leo_event, -0.5 * leo_period, 1e-6,
                                       radius_ms=1.0, resolution=2_000_000,
                                       magnitude_steps=50)
