import math

import numpy as np
import pytest

from polycam import dynamics as dyn
from polycam.dapoly import AlgebraConfig, TaylorPoly
from polycam.errors import (ConfigurationError, DegenerateGradientError,
                            InfeasibleWithBoundError)
from polycam.mapbuilder import (ControlSchedule, IMPULSIVE, LOW_THRUST, PocMap,
                                build_poc_map)
from polycam import solver
from polycam.errors import NonConvergenceError
from polycam.scenarios import generate_synthetic_suite, scenario_to_event
from polycam.solver import (SolverConfig, filter_nodes, pseudo_gradient,
                            solve_order1, solve_order_j, solve_recursive,
                            solve_thrust_limited)
from polycam.validate import validate_solution


def synthetic_map(coeffs, n_vars, order, ballistic=1e-4, schedule=None):
    """Hand-built probability map: constant part + given terms."""
    cfg = AlgebraConfig(n_vars, order)
    full = dict(coeffs)
    full[(0,) * n_vars] = ballistic
    poly = TaylorPoly.from_coeffs(cfg, full)
    if schedule is None:
        schedule = ControlSchedule(
            mode=IMPULSIVE,
            node_epochs=tuple(-600.0 * (k + 1)
                              for k in reversed(range(max(n_vars // 3, 1)))))
    return PocMap(poly=poly, ballistic_poc=ballistic, schedule=schedule,
                  scaling=np.ones(n_vars))


class TestSolveOrder1:
    def test_gradient_aligned_closed_form(self):
        pmap = synthetic_map({(1, 0, 0): 3.0, (0, 1, 0): 4.0}, 3, 1)
        phi = solve_order1(pmap, rho=-5.0)
        np.testing.assert_allclose(phi, [-0.6, -0.8, 0.0])
        assert pmap.gradient() @ phi == -5.0

    def test_zero_gap_zero_control(self):
        pmap = synthetic_map({(1, 0, 0): 3.0}, 3, 1)
        np.testing.assert_allclose(solve_order1(pmap, 0.0), np.zeros(3))

    def test_degenerate_gradient(self):
        pmap = synthetic_map({}, 3, 1)
        with pytest.raises(DegenerateGradientError):
            solve_order1(pmap, -1e-5)

    def test_alignment_property(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            grad = rng.normal(size=4)
            pmap = synthetic_map(
                {tuple(int(i == k) for i in range(4)): grad[k]
                 for k in range(4)},
                4, 1,
                schedule=ControlSchedule(mode=IMPULSIVE,
                                         node_epochs=(-1200.0,)))
            # 4 variables with a 1-node impulsive schedule is inconsistent
            # for packaging, but solve_order1 only touches the polynomial
            phi = solve_order1(pmap, rho=-2e-5)
            cosine = phi @ grad / (np.linalg.norm(phi) * np.linalg.norm(grad))
            assert abs(abs(cosine) - 1.0) <= 1e-12


class TestPseudoGradient:
    def test_zero_point_gives_gradient(self):
        pmap = synthetic_map({(1, 0, 0): 2.0, (2, 0, 0): 5.0}, 3, 3)
        np.testing.assert_allclose(pseudo_gradient(pmap, 3, np.zeros(3)),
                                   [2.0, 0.0, 0.0])

    def test_order_one_ignores_point(self):
        pmap = synthetic_map({(1, 0, 0): 2.0, (2, 0, 0): 5.0}, 3, 3)
        np.testing.assert_allclose(
            pseudo_gradient(pmap, 1, np.array([9.0, 9.0, 9.0])),
            [2.0, 0.0, 0.0])

    def test_hand_built_quadratic(self):
        # 1-variable constraint a*phi + b*phi^2 with a=1, b=0.1 linearized
        # at -0.5279 gives 1 + 0.1*(-0.5279) = 0.94721
        pmap = synthetic_map({(1,): 1.0, (2,): 0.1}, 1, 2,
                             schedule=ControlSchedule(mode=IMPULSIVE,
                                                      node_epochs=(-600.0,)))
        got = pseudo_gradient(pmap, 2, np.array([-0.5279]))
        assert got[0] == pytest.approx(0.94721, abs=1e-12)

    def test_euler_consistency(self):
        rng = np.random.default_rng(17)
        cfg_terms = {}
        import itertools
        for exps in itertools.product(range(5), repeat=2):
            if 0 < sum(exps) <= 4:
                cfg_terms[exps] = rng.normal() * 0.1
        pmap = synthetic_map(cfg_terms, 2, 4,
                             schedule=ControlSchedule(mode=IMPULSIVE,
                                                      node_epochs=(-600.0,)))
        for j in range(1, 5):
            phi = rng.uniform(-0.7, 0.7, size=2)
            lhs = pseudo_gradient(pmap, j, phi) @ phi
            rhs = sum(pmap.poly.homogeneous(k).eval(phi)
                      for k in range(1, j + 1))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-18)


class TestSolveOrderJ:
    CONFIG = SolverConfig(max_order=5, target_poc=1e-6)

    def test_linear_map_single_iteration(self):
        pmap = synthetic_map({(1, 0, 0): 1e-3}, 3, 2, ballistic=1e-4)
        config = SolverConfig(max_order=2)
        rho = config.target_poc - pmap.ballistic_poc
        seed = solve_order1(pmap, rho)
        phi, iterations, converged = solve_order_j(pmap, 2, seed, config)
        assert converged
        assert iterations == 1
        np.testing.assert_allclose(phi, seed, atol=1e-14)

    def test_quadratic_root(self):
        # 0.1 phi^2 + phi = -0.5: root nearest zero from the quadratic
        # formula is (-1 + sqrt(0.8)) / 0.2 = -0.527864045...
        expected = (-1.0 + math.sqrt(0.8)) / 0.2
        pmap = synthetic_map({(1,): 1.0, (2,): 0.1}, 1, 2, ballistic=1e-6 + 0.5,
                             schedule=ControlSchedule(mode=IMPULSIVE,
                                                      node_epochs=(-600.0,)))
        config = SolverConfig(max_order=2)
        rho = config.target_poc - pmap.ballistic_poc
        assert rho == pytest.approx(-0.5)
        phi, _, converged = solve_order_j(pmap, 2, solve_order1(pmap, rho),
                                          config)
        assert converged
        assert phi[0] == pytest.approx(expected, abs=1e-9)
        assert phi[0] == pytest.approx(-0.527864, abs=1e-6)

    def test_idempotent_at_fixed_point(self):
        pmap = synthetic_map({(1,): 1.0, (2,): 0.1}, 1, 2, ballistic=1e-6 + 0.5,
                             schedule=ControlSchedule(mode=IMPULSIVE,
                                                      node_epochs=(-600.0,)))
        config = SolverConfig(max_order=2)
        rho = config.target_poc - pmap.ballistic_poc
        phi_star, _, converged = solve_order_j(pmap, 2, solve_order1(pmap, rho),
                                               config)
        assert converged
        again, iterations, converged = solve_order_j(pmap, 2, phi_star, config)
        assert converged
        assert iterations == 1
        np.testing.assert_allclose(again, phi_star, atol=1e-9)

    def test_fixed_point_certificate(self):
        pmap = synthetic_map(
            {(1, 0): 2e-4, (0, 1): -1e-4, (2, 0): 3e-5, (1, 1): -2e-5,
             (0, 2): 1e-5, (3, 0): 4e-6, (2, 1): -8e-7},
            2, 3, ballistic=5e-5,
            schedule=ControlSchedule(mode=IMPULSIVE, node_epochs=(-600.0,)))
        config = SolverConfig(max_order=3)
        rho = config.target_poc - pmap.ballistic_poc
        phi = solve_order1(pmap, rho)
        for j in (2, 3):
            phi, _, converged = solve_order_j(pmap, j, phi, config)
            assert converged
            constraint = sum(pmap.poly.homogeneous(k).eval(phi)
                             for k in range(1, j + 1))
            bound = 10 * config.e_tol * np.linalg.norm(
                pseudo_gradient(pmap, j, phi))
            assert abs(constraint - rho) <= bound

    def test_order2_closed_by_secular_restart(self, monkeypatch):
        # the damped iteration and its root polish stall on this map; only
        # a restart from an exact order-2 fixed point closes the order
        event = scenario_to_event(generate_synthetic_suite(
            20260810, 1, "LEO", poc_band=(1.5e-6, 4e-6))[0])
        period = dyn.osculating_period(event.primary, event.dynamics)
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * period,))
        pmap = build_poc_map(event, sched, order=2)
        config = SolverConfig(max_order=2)
        rho = config.target_poc - pmap.ballistic_poc
        phi, _, converged = solve_order_j(pmap, 2, solve_order1(pmap, rho),
                                          config)
        assert converged
        constraint = sum(pmap.poly.homogeneous(k).eval(phi) for k in (1, 2))
        bound = 10 * config.e_tol * np.linalg.norm(pseudo_gradient(pmap, 2, phi))
        assert abs(constraint - rho) <= bound

        monkeypatch.setattr(solver, "_secular_order2_roots",
                            lambda pmap, rho: [])
        with pytest.raises(NonConvergenceError):
            solve_recursive(pmap, config)


class TestSolveRecursive:
    def test_order_one_matches_closed_form(self):
        pmap = synthetic_map({(1, 0, 0): 2e-3, (0, 1, 0): 1e-3}, 3, 1,
                             ballistic=1e-4)
        config = SolverConfig(max_order=1)
        sol = solve_recursive(pmap, config)
        rho = 1e-6 - 1e-4
        expected = solve_order1(pmap, rho)
        np.testing.assert_allclose(sol.phi, expected, rtol=1e-12)
        assert sol.per_order_iterations == (1,)

    def test_safe_ballistic_returns_zero(self):
        pmap = synthetic_map({(1, 0, 0): 1e-3}, 3, 5, ballistic=5e-7)
        sol = solve_recursive(pmap, SolverConfig(max_order=5))
        np.testing.assert_allclose(sol.phi, np.zeros(3))
        assert sol.per_order_iterations == (1, 0, 0, 0, 0)
        assert sol.dv_total_ms == 0.0

    def test_end_to_end_targets_probability(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, order=5)
        sol = solve_recursive(pmap, SolverConfig(max_order=5))
        report = validate_solution(leo_event, sched, sol.phi, 1e-6, pmap=pmap)
        assert report.validated_poc == pytest.approx(1e-6, rel=0.25)
        assert sol.residual <= 1e-12
        assert len(sol.per_order_iterations) == 5

    def test_solver_order_cannot_exceed_map(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, order=2)
        with pytest.raises(ConfigurationError):
            solve_recursive(pmap, SolverConfig(max_order=5))

    def test_rho_sign_and_reduction(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, order=4)
        config = SolverConfig(max_order=4)
        rho = config.target_poc - pmap.ballistic_poc
        assert rho < 0.0
        sol = solve_recursive(pmap, config)
        mapped = pmap.poly.eval(sol.phi / pmap.scaling)
        assert mapped < pmap.ballistic_poc


class TestFilterNodes:
    def test_keep_all_preserves_order(self, tangential_event):
        period = dyn.osculating_period(tangential_event.primary,
                                       tangential_event.dynamics)
        template = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * period,))
        times = [-1.5 * period, -1.0 * period, -0.5 * period]
        sched = filter_nodes(tangential_event, times, keep=3,
                             template=template)
        assert sched.node_epochs == tuple(sorted(times))

    def test_half_orbit_ranks_first(self, tangential_event):
        period = dyn.osculating_period(tangential_event.primary,
                                       tangential_event.dynamics)
        template = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * period,))
        sched = filter_nodes(tangential_event,
                             [-1.0 * period, -0.5 * period], keep=1,
                             template=template)
        assert sched.node_epochs == (-0.5 * period,)

    def test_duplicate_tie_break_deterministic(self, tangential_event):
        period = dyn.osculating_period(tangential_event.primary,
                                       tangential_event.dynamics)
        template = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * period,))
        t = -0.5 * period
        sched = filter_nodes(tangential_event, [t, t], keep=1,
                             template=template)
        assert sched.node_epochs == (t,)

    def test_empty_grid(self, tangential_event):
        template = ControlSchedule(mode=IMPULSIVE, node_epochs=(-600.0,))
        with pytest.raises(ConfigurationError):
            filter_nodes(tangential_event, [], keep=1, template=template)

    def test_low_thrust_template_gives_one_arc_per_kept_epoch(
            self, leo_event, leo_period):
        template = ControlSchedule(
            mode=LOW_THRUST,
            node_epochs=(-0.6 * leo_period, -0.5 * leo_period))
        times = [-1.5 * leo_period, -1.0 * leo_period, -0.5 * leo_period]
        sched = filter_nodes(leo_event, times, keep=2, template=template)
        assert sched.mode == LOW_THRUST
        assert sched.arc_lengths == (2, 2)
        starts = sched.node_epochs[::2]
        assert set(starts) <= set(times)
        for start, end in zip(starts, sched.node_epochs[1::2]):
            assert end - start == pytest.approx(0.1 * leo_period)

    def test_fixed_direction_carries_over(self, leo_event, leo_period):
        tangential = np.array([0.0, 1.0, 0.0])
        template = ControlSchedule(mode=IMPULSIVE,
                                   node_epochs=(-0.5 * leo_period,),
                                   fixed_direction=tangential)
        sched = filter_nodes(leo_event,
                             [-1.0 * leo_period, -0.5 * leo_period], keep=2,
                             template=template)
        np.testing.assert_array_equal(sched.fixed_direction, tangential)
        assert sched.n_vars == 2

    def test_low_thrust_arc_reaching_encounter_rejected(self, leo_event,
                                                        leo_period):
        template = ControlSchedule(
            mode=LOW_THRUST,
            node_epochs=(-0.6 * leo_period, -0.5 * leo_period))
        with pytest.raises(ConfigurationError, match="closest approach"):
            filter_nodes(leo_event, [-1.0 * leo_period, -0.05 * leo_period],
                         keep=1, template=template)


class TestThrustLimited:
    def test_generous_bound_matches_single_node(self, tangential_event):
        period = dyn.osculating_period(tangential_event.primary,
                                       tangential_event.dynamics)
        config = SolverConfig(max_order=5)
        times = [-1.0 * period, -0.5 * period, -0.1 * period]
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * period,))
        pmap = build_poc_map(tangential_event, sched, order=5)
        single = solve_recursive(pmap, config)
        bounded = solve_thrust_limited(tangential_event, times,
                                       u_max_ms=10.0 * single.dv_total_ms,
                                       config=config)
        assert len(bounded.per_node_dv_ms) == 1
        assert bounded.node_epochs == (-0.5 * period,)
        assert bounded.dv_total_ms == pytest.approx(single.dv_total_ms,
                                                    rel=1e-9)

    def test_tight_bound_engages_second_node(self, tangential_event):
        # grid of half-orbit epochs (the strong-authority times); ties in
        # gradient norm break toward the earlier node
        period = dyn.osculating_period(tangential_event.primary,
                                       tangential_event.dynamics)
        config = SolverConfig(max_order=5)
        grid = [-2.5 * period, -1.5 * period, -0.5 * period]
        top = ControlSchedule(mode=IMPULSIVE, node_epochs=(grid[0],))
        pmap = build_poc_map(tangential_event, top, order=5)
        single = solve_recursive(pmap, config)
        bounded = solve_thrust_limited(
            tangential_event, grid,
            u_max_ms=0.6 * single.dv_total_ms, config=config)
        assert len(bounded.per_node_dv_ms) == 2
        magnitudes = sorted(np.linalg.norm(v) for v in bounded.per_node_dv_ms)
        assert magnitudes[1] == pytest.approx(0.6 * single.dv_total_ms,
                                              rel=1e-9)
        # combined maneuver still hits the target
        sched_engaged = ControlSchedule(mode=IMPULSIVE,
                                        node_epochs=bounded.node_epochs)
        phi = np.concatenate([np.asarray(v) for v in bounded.per_node_dv_ms])
        report = validate_solution(tangential_event, sched_engaged, phi, 1e-6)
        assert report.poc_log_error <= 0.1

    def test_fixed_direction_pins_bounded_impulses(self):
        # both engaged impulses stay exactly tangential and within the bound
        event = scenario_to_event(generate_synthetic_suite(
            7, 1, "LEO", poc_band=(1.5e-6, 4e-6))[0])
        period = dyn.osculating_period(event.primary, event.dynamics)
        grid = [-2.5 * period, -1.5 * period, -0.5 * period]
        u_max = 0.0146566
        template = ControlSchedule(mode=IMPULSIVE, node_epochs=(grid[0],),
                                   fixed_direction=[0.0, 1.0, 0.0])
        bounded = solve_thrust_limited(event, grid, u_max,
                                       SolverConfig(max_order=5),
                                       template=template)
        assert len(bounded.per_node_dv_ms) == 2
        for dv in bounded.per_node_dv_ms:
            assert dv[0] == 0.0 and dv[2] == 0.0
            assert np.linalg.norm(dv) <= u_max * (1.0 + 1e-12)
        report = validate_solution(event, bounded.schedule, bounded.phi, 1e-6)
        assert report.poc_log_error <= 0.1

    def test_reports_convergence_of_every_order(self, tangential_event):
        period = dyn.osculating_period(tangential_event.primary,
                                       tangential_event.dynamics)
        bounded = solve_thrust_limited(
            tangential_event, [-1.0 * period, -0.5 * period], u_max_ms=1e3,
            config=SolverConfig(max_order=3))
        assert len(bounded.per_order_iterations) == 3
        assert len(bounded.per_order_converged) == \
            len(bounded.per_order_iterations)

    def test_empty_grid_rejected_without_template(self, tangential_event):
        with pytest.raises(ConfigurationError, match="candidate grid is empty"):
            solve_thrust_limited(tangential_event, [], u_max_ms=1.0,
                                 config=SolverConfig(max_order=1))

    def test_vanishing_bound_infeasible(self, tangential_event):
        period = dyn.osculating_period(tangential_event.primary,
                                       tangential_event.dynamics)
        with pytest.raises(InfeasibleWithBoundError) as err:
            solve_thrust_limited(
                tangential_event,
                [-1.0 * period, -0.5 * period],
                u_max_ms=1e-6, config=SolverConfig(max_order=3))
        assert err.value.residual_poc is not None
        assert err.value.residual_poc > 1e-6


class TestFixedDirection:
    def test_aligned_direction_matches_free_magnitude(self, leo_event,
                                                      leo_period):
        sched_free = ControlSchedule(mode=IMPULSIVE,
                                     node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched_free, order=5)
        config = SolverConfig(max_order=5)
        free = solve_recursive(pmap, config)
        direction = free.phi / np.linalg.norm(free.phi)
        sched_fixed = ControlSchedule(mode=IMPULSIVE,
                                      node_epochs=(-0.5 * leo_period,),
                                      fixed_direction=direction)
        pinned = solve_recursive(build_poc_map(leo_event, sched_fixed, order=5),
                                 config)
        assert abs(pinned.dv_total_ms - free.dv_total_ms) \
            / free.dv_total_ms <= 1e-6

    def test_orthogonal_direction_degenerate(self, leo_event, leo_period):
        sched_free = ControlSchedule(mode=IMPULSIVE,
                                     node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched_free, order=2)
        grad = pmap.gradient()
        # build a unit vector orthogonal to the gradient
        seed = np.array([0.0, 0.0, 1.0])
        ortho = seed - (seed @ grad) * grad / np.linalg.norm(grad) ** 2
        ortho /= np.linalg.norm(ortho)
        sched_fixed = ControlSchedule(mode=IMPULSIVE,
                                      node_epochs=(-0.5 * leo_period,),
                                      fixed_direction=ortho)
        pinned = build_poc_map(leo_event, sched_fixed, order=2)
        with pytest.raises(DegenerateGradientError):
            solve_recursive(pinned, SolverConfig(max_order=2))


class TestOtherRegimes:
    def test_cislunar_low_thrust_end_to_end(self):
        from polycam.scenarios import generate_synthetic_suite, scenario_to_event

        event = scenario_to_event(generate_synthetic_suite(
            seed=31, count=1, regime="CISLUNAR", poc_band=(2e-6, 4e-6))[0])
        sched = ControlSchedule(mode=LOW_THRUST,
                                node_epochs=(-9000.0, -7200.0, -5400.0))
        pmap = build_poc_map(event, sched, order=4)
        sol = solve_recursive(pmap, SolverConfig(max_order=4))
        report = validate_solution(event, sched, sol.phi, 1e-6, pmap=pmap)
        assert report.poc_log_error <= 0.1
        # held accelerations stay within realistic electric-thruster levels
        assert np.abs(sol.phi).max() < 1e-3  # m/s^2
