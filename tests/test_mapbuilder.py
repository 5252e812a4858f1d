import math

import numpy as np
import pytest

from polycam import dynamics as dyn
from polycam.conjunction import combine_relative, poc_chan, project_bplane
from polycam.errors import ConfigurationError
from polycam.mapbuilder import (ControlSchedule, IMPULSIVE, LOW_THRUST,
                                build_poc_map, gradient_norm_per_node,
                                propagate_with_controls)


class TestControlSchedule:
    def test_counts_free_direction(self):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-900.0, -300.0))
        assert sched.n_controls == 2
        assert sched.n_vars == 6

    def test_counts_low_thrust_idle_tail(self):
        sched = ControlSchedule(mode=LOW_THRUST,
                                node_epochs=(-900.0, -600.0, -300.0))
        assert sched.n_controls == 2
        assert sched.segment_control_slots() == [0, 1, None]

    def test_multi_arc_partition(self):
        sched = ControlSchedule(
            mode=LOW_THRUST,
            node_epochs=(-4000.0, -3600.0, -1200.0, -800.0),
            arc_lengths=(2, 2))
        assert sched.n_controls == 2
        assert sched.segment_control_slots() == [0, None, 1, None]

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            ControlSchedule(mode=IMPULSIVE,
                            node_epochs=(-300.0, -900.0)).validate()

    def test_rejects_post_encounter_nodes(self):
        with pytest.raises(ConfigurationError):
            ControlSchedule(mode=IMPULSIVE, node_epochs=(100.0,)).validate()

    def test_low_thrust_needs_two_nodes(self):
        with pytest.raises(ConfigurationError):
            ControlSchedule(mode=LOW_THRUST, node_epochs=(-900.0,)).validate()

    def test_fixed_direction_count(self):
        tang = np.array([0.0, 1.0, 0.0])
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-900.0, -300.0),
                                fixed_directions=(tang, tang))
        assert sched.n_vars == 2


class TestBallisticReference:
    def test_single_node_round_trip(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        nodes = propagate_with_controls(leo_event, sched, None)[2]
        node = nodes[0]
        back = dyn.propagate(node, (0, 0, 0), node.epoch, 0.0,
                             leo_event.dynamics)
        err = np.linalg.norm(back.r - leo_event.primary.r)
        assert err / np.linalg.norm(leo_event.primary.r) <= 1e-9

    def test_near_encounter_node_matches_state(self, leo_event):
        # node one microsecond before closest approach: the reference moves
        # by |v| * 1e-6 km at most
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-1e-6,))
        nodes = propagate_with_controls(leo_event, sched, None)[2]
        budget = np.linalg.norm(leo_event.primary.v) * 1e-6
        assert np.linalg.norm(nodes[0].r - leo_event.primary.r) <= 1.5 * budget
        np.testing.assert_allclose(nodes[0].v, leo_event.primary.v, atol=1e-7)

    def test_half_period_nodes_antipodal(self, leo_event, leo_period):
        # two-body geometry: points half a period apart on a circular
        # orbit are mirror images through the center
        sched = ControlSchedule(mode=IMPULSIVE,
                                node_epochs=(-leo_period, -0.5 * leo_period))
        nodes = propagate_with_controls(leo_event, sched, None)[2]
        radius = np.linalg.norm(leo_event.primary.r)
        np.testing.assert_allclose(nodes[0].r, -nodes[1].r,
                                   atol=1e-6 * radius)
        np.testing.assert_allclose(nodes[0].v, -nodes[1].v, atol=1e-9)


class TestBuildPocMap:
    def test_constant_part_is_ballistic(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, order=3)
        assert pmap.poly.constant_part == pytest.approx(
            pmap.ballistic_poc, rel=1e-12)
        assert pmap.poly.eval(np.zeros(pmap.n_vars)) == \
            pytest.approx(pmap.ballistic_poc, rel=1e-12)

    def test_variable_count_free_direction(self, leo_event, leo_period):
        sched = ControlSchedule(
            mode=IMPULSIVE,
            node_epochs=(-1.5 * leo_period, -0.5 * leo_period))
        pmap = build_poc_map(leo_event, sched, order=2)
        assert pmap.n_vars == 3 * len(sched.node_epochs)

    def test_linear_part_matches_finite_differences(self, leo_event,
                                                    leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, order=5)
        r_rel, v_rel, p = combine_relative(leo_event)
        bp = project_bplane(r_rel, v_rel, p)
        grad = pmap.gradient()
        fd = np.zeros(3)
        h = 1e-3  # m/s, i.e. 1e-6 km/s
        for k in range(3):
            step = np.zeros(3)
            step[k] = h
            plus, _, _ = propagate_with_controls(leo_event, sched, step)
            minus, _, _ = propagate_with_controls(leo_event, sched, -step)
            fd[k] = (poc_chan(plus, bp.p_b, leo_event.hbr_km)
                     - poc_chan(minus, bp.p_b, leo_event.hbr_km)) / (2 * h)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-4

    def test_gradient_direction_matches_steepest(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, order=5)
        r_rel, v_rel, p = combine_relative(leo_event)
        bp = project_bplane(r_rel, v_rel, p)
        fd = np.zeros(3)
        h = 1e-3
        for k in range(3):
            step = np.zeros(3)
            step[k] = h
            plus, _, _ = propagate_with_controls(leo_event, sched, step)
            minus, _, _ = propagate_with_controls(leo_event, sched, -step)
            fd[k] = (poc_chan(plus, bp.p_b, leo_event.hbr_km)
                     - poc_chan(minus, bp.p_b, leo_event.hbr_km)) / (2 * h)
        grad = pmap.gradient()
        cosine = grad @ fd / (np.linalg.norm(grad) * np.linalg.norm(fd))
        assert math.acos(min(cosine, 1.0)) <= 1e-3

    def test_map_tracks_real_pipeline(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, order=5)
        r_rel, v_rel, p = combine_relative(leo_event)
        bp = project_bplane(r_rel, v_rel, p)
        phi = np.array([0.01, -0.02, 0.005])  # m/s
        r_b, _, _ = propagate_with_controls(leo_event, sched, phi)
        truth = poc_chan(r_b, bp.p_b, leo_event.hbr_km)
        assert pmap.poly.eval(phi / pmap.scaling) == \
            pytest.approx(truth, rel=1e-4)

    def test_fixed_direction_single_variable(self, leo_event, leo_period):
        tang = np.array([0.0, 1.0, 0.0])
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,),
                                fixed_directions=(tang,))
        pmap = build_poc_map(leo_event, sched, order=3)
        assert pmap.n_vars == 1
        # magnitude along the pinned axis equals the matching free component
        free = build_poc_map(
            leo_event,
            ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,)),
            order=3)
        s = 0.02
        np.testing.assert_allclose(
            pmap.poly.eval([s]),
            free.poly.eval([0.0, s, 0.0]), rtol=1e-12)

    def test_low_thrust_map_constant_part(self, leo_event, leo_period):
        center = -2.5 * leo_period
        sched = ControlSchedule(mode=LOW_THRUST,
                                node_epochs=(center - 180, center + 180))
        pmap = build_poc_map(leo_event, sched, order=2)
        assert pmap.n_vars == 3
        assert pmap.poly.constant_part == pytest.approx(
            pmap.ballistic_poc, rel=1e-12)

    def test_two_arc_low_thrust_map(self, leo_event, leo_period):
        # two 6-minute windows centered at 2.5 and 0.5 orbits out
        arcs = []
        for center in (-2.5 * leo_period, -0.5 * leo_period):
            arcs.extend((center - 180.0, center + 180.0))
        sched = ControlSchedule(mode=LOW_THRUST, node_epochs=tuple(arcs),
                                arc_lengths=(2, 2))
        pmap = build_poc_map(leo_event, sched, order=2)
        assert pmap.n_vars == 6
        assert pmap.poly.constant_part == pytest.approx(
            pmap.ballistic_poc, rel=1e-12)
        # the coast between the arcs leaves both windows with authority
        grad = pmap.gradient()
        assert np.linalg.norm(grad[:3]) > 0
        assert np.linalg.norm(grad[3:]) > 0

    def test_order_must_be_positive(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        with pytest.raises(ConfigurationError):
            build_poc_map(leo_event, sched, order=0)


class TestScalingTransparency:
    def test_low_order_solution_invariant_under_scaling(self, leo_event,
                                                        leo_period):
        # solving the order-1 problem in scaled variables and unscaling
        # must give the physical gradient solution
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, order=1)
        rho = 1e-6 - pmap.ballistic_poc
        grad_scaled = pmap.gradient()
        phi_scaled = rho * grad_scaled / np.linalg.norm(grad_scaled) ** 2
        phi_physical = phi_scaled * pmap.scaling
        # same computation carried out directly in physical units
        grad_physical = grad_scaled / pmap.scaling
        expected = rho * grad_physical / np.linalg.norm(grad_physical) ** 2
        np.testing.assert_allclose(phi_physical, expected, rtol=1e-9)


class TestGradientNormPerNode:
    def test_duplicate_times_identical(self, leo_event, leo_period):
        template = ControlSchedule(mode=IMPULSIVE,
                                   node_epochs=(-0.5 * leo_period,))
        t = -0.5 * leo_period
        norms = gradient_norm_per_node(leo_event, [t, t], template)
        assert norms[0][1] == norms[1][1]

    def test_half_orbit_beats_late_and_full_orbit(self, tangential_event):
        period = dyn.osculating_period(tangential_event.primary,
                                       tangential_event.dynamics)
        template = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * period,))
        norms = dict(gradient_norm_per_node(
            tangential_event,
            [-1.0 * period, -0.5 * period, -0.02 * period],
            template))
        half = norms[-0.5 * period]
        assert half > norms[-0.02 * period]
        assert half > norms[-1.0 * period]

    def test_empty_grid_rejected(self, leo_event, leo_period):
        template = ControlSchedule(mode=IMPULSIVE,
                                   node_epochs=(-0.5 * leo_period,))
        with pytest.raises(ConfigurationError):
            gradient_norm_per_node(leo_event, [], template)
