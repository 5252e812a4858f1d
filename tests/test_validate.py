import numpy as np
import pytest

from polycam.errors import ConfigurationError, InfeasibleError
from polycam.mapbuilder import ControlSchedule, IMPULSIVE, build_poc_map
from polycam.solver import SolverConfig, solve_recursive
from polycam.validate import validate_solution

from grid_oracle import grid_oracle_single_impulse


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
                                   pmap=pmap)
        # same code path as the map's reference: bit-for-bit equality
        assert report.validated_poc == pmap.ballistic_poc
        np.testing.assert_array_equal(report.bplane_after_km,
                                      report.bplane_before_km)
        assert report.dv_total_ms == 0.0

    def test_solved_impulse_hits_target(self, leo_event, solved):
        sched, pmap, sol = solved
        report = validate_solution(leo_event, sched, sol.phi, 1e-6, pmap=pmap)
        assert report.poc_log_error <= 0.1
        assert report.map_residual <= 0.05 * 1e-6
        assert report.chan_quadrature_agree

    def test_doubling_overshoots(self, leo_event, solved):
        sched, pmap, sol = solved
        report = validate_solution(leo_event, sched, 2.0 * sol.phi, 1e-6)
        assert report.validated_poc < 1e-6

    def test_dv_accounting(self, leo_event, solved):
        sched, _, sol = solved
        report = validate_solution(leo_event, sched, sol.phi, 1e-6)
        assert report.dv_total_ms == pytest.approx(
            sum(np.linalg.norm(v) for v in report.per_node_dv_ms))
        assert report.dv_total_ms == pytest.approx(sol.dv_total_ms)

    def test_dimension_mismatch(self, leo_event, solved):
        sched, _, _ = solved
        with pytest.raises(ConfigurationError):
            validate_solution(leo_event, sched, np.zeros(5), 1e-6)


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
        sched, _, sol = solved
        dv = grid_oracle_single_impulse(
            leo_event, -0.5 * leo_period, target_poc=1e-6,
            radius_ms=5.0 * sol.dv_total_ms, resolution=256)
        report = validate_solution(leo_event, sched, dv, 1e-6)
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
