import math

import numpy as np
import pytest

from polycam import dynamics as dyn
from polycam import mapbuilder, solver
from polycam.conjunction import combine_relative, poc_chan, project_bplane
from polycam.dapoly import AlgebraConfig, TaylorPoly
from polycam.errors import ConfigurationError
from polycam.mapbuilder import (ACCEL_REF_MS2, ControlSchedule,
                                IMPULSIVE, LOW_THRUST,
                                _relative_bplane_position,
                                _to_internal_units, build_poc_map,
                                gradient_norm_per_node,
                                propagate_with_controls)
from polycam.scenarios import generate_synthetic_suite, scenario_to_event


class TestControlSchedule:
    def test_counts_free_direction(self):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-900.0, -300.0))
        assert sched.n_controls == 2
        assert sched.n_vars == 6

    def test_counts_low_thrust_idle_tail(self):
        sched = ControlSchedule(mode=LOW_THRUST,
                                node_epochs=(-900.0, -600.0, -300.0))
        assert sched.n_controls == 2
        assert sched.control_node_indices() == [0, 1]

    def test_multi_arc_partition(self):
        sched = ControlSchedule(
            mode=LOW_THRUST,
            node_epochs=(-4000.0, -3600.0, -1200.0, -800.0),
            arc_lengths=(2, 2))
        assert sched.n_controls == 2
        assert sched.control_node_indices() == [0, 2]

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            ControlSchedule(mode=IMPULSIVE, node_epochs=(-300.0, -900.0))

    def test_rejects_post_encounter_nodes(self):
        with pytest.raises(ConfigurationError):
            ControlSchedule(mode=IMPULSIVE, node_epochs=(100.0,))

    def test_low_thrust_needs_two_nodes(self):
        with pytest.raises(ConfigurationError):
            ControlSchedule(mode=LOW_THRUST, node_epochs=(-900.0,))

    def test_retimed_keeps_layout(self):
        tang = np.array([0.0, 1.0, 0.0])
        impulses = ControlSchedule(mode=IMPULSIVE, node_epochs=(-900.0,),
                                   fixed_direction=tang)
        impulses = impulses.retimed([-700.0, -200.0])
        assert impulses.node_epochs == (-700.0, -200.0)
        np.testing.assert_array_equal(impulses.fixed_direction, tang)
        # each arc lasts as long as the template's first held control
        arcs = ControlSchedule(mode=LOW_THRUST,
                               node_epochs=(-900.0, -800.0, -300.0),
                               fixed_direction=tang)
        arcs = arcs.retimed([-700.0, -400.0])
        assert arcs.node_epochs == (-700.0, -600.0, -400.0, -300.0)
        assert arcs.arcs == (2, 2)
        np.testing.assert_array_equal(arcs.fixed_direction, tang)
        with pytest.raises(ConfigurationError, match="closest approach"):
            arcs.retimed([-50.0])

    def test_rejects_nan_epoch_and_direction(self):
        with pytest.raises(ConfigurationError):
            ControlSchedule(mode=IMPULSIVE, node_epochs=(math.nan,))
        with pytest.raises(ConfigurationError):
            ControlSchedule(mode=IMPULSIVE, node_epochs=(-900.0,),
                            fixed_direction=(math.nan, 1.0, 0.0))

    def test_fixed_direction_count(self):
        tang = np.array([0.0, 1.0, 0.0])
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-900.0, -300.0),
                                fixed_direction=tang)
        assert sched.n_vars == 2


class TestBallisticReference:
    def test_single_node_round_trip(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        nodes = propagate_with_controls(leo_event, sched, None)[2]
        node = nodes[0]
        back = dyn.propagate_vector((*node.r, *node.v), (0, 0, 0), node.epoch,
                                    0.0, leo_event.dynamics)
        err = np.linalg.norm(np.array(back[:3]) - leo_event.primary.r)
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
                                fixed_direction=tang)
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


def direct_poc_map(event, schedule, order, config):
    """Probability polynomial of a free-direction RTN schedule with every
    segment integrated in the full control algebra."""
    cfg = AlgebraConfig(schedule.n_vars, order)
    scale, model = _to_internal_units(event)
    if schedule.mode == IMPULSIVE:
        unit_nd = 1e-3 / scale.velocity_kms
    else:
        unit_nd = ACCEL_REF_MS2 * 1e-3 / scale.accel_kms2

    def const(c):
        return c.constant_part if isinstance(c, TaylorPoly) else float(c)

    epochs = [t / scale.time_s for t in schedule.node_epochs]
    y = [*(event.primary.r / scale.length_km),
         *(event.primary.v / scale.velocity_kms)]
    y = dyn.propagate_vector(y, (0.0, 0.0, 0.0), 0.0, epochs[0], model, config)
    slots = {node: slot for slot, node in
             enumerate(schedule.control_node_indices())}
    accel = (0.0, 0.0, 0.0)
    for i, t in enumerate(epochs):
        if i:
            y = dyn.propagate_vector(y, accel, epochs[i - 1], t, model, config)
        rot = dyn.rtn_rotation(dyn.SpacecraftState(
            r=[const(c) * scale.length_km for c in y[:3]],
            v=[const(c) * scale.velocity_kms for c in y[3:]]))
        accel = (0.0, 0.0, 0.0)
        if i in slots:
            x = [TaylorPoly.variable(cfg, 3 * slots[i] + k) for k in range(3)]
            kick = [sum(x[m] * (rot[m, k] * unit_nd) for m in range(3))
                    for k in range(3)]
            if schedule.mode == IMPULSIVE:
                y = y[:3] + [v + dv for v, dv in zip(y[3:], kick)]
            else:
                accel = tuple(kick)
    y = dyn.propagate_vector(y, accel, epochs[-1], 0.0, model, config)
    r_rel, v_rel, p = combine_relative(event)
    bplane = project_bplane(r_rel, v_rel, p)
    r_b = _relative_bplane_position(y, event, bplane, scale)
    return poc_chan(r_b, bplane.p_b, event.hbr_km)


class TestComposedMatchesDirect:
    @pytest.mark.parametrize("mode, orbits, arcs, order, steps", [
        (IMPULSIVE, (0.75, 0.5, 0.25), None, 3, 10),
        (LOW_THRUST, (1.05, 0.95, 0.8, 0.7, 0.55, 0.45, 0.3, 0.2),
         (2, 2, 2, 2), 2, 10),
    ], ids=["impulsive-9", "low-thrust-12"])
    def test_coefficients_by_degree(self, leo_event, leo_period, mode,
                                    orbits, arcs, order, steps):
        # the last nodes' segments run in algebras above 6 + k variables,
        # so they are composed from flow maps; the oracle integrates them
        sched = ControlSchedule(
            mode=mode, node_epochs=tuple(-k * leo_period for k in orbits),
            arc_lengths=arcs)
        config = dyn.PropagationConfig(steps=steps)
        composed = build_poc_map(leo_event, sched, order, config).poly
        direct = direct_poc_map(leo_event, sched, order, config)
        assert composed.n_vars == direct.n_vars == len(arcs or orbits) * 3
        tab = direct._tab
        for degree, block in enumerate(tab.degree_slices):
            size = np.max(np.abs(direct.coef[block]))
            gap = np.max(np.abs(composed.coef[block] - direct.coef[block]))
            assert size > 0
            assert gap <= 1e-11 * size, degree


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

    @pytest.mark.parametrize("case", ["free", "fixed_tangential",
                                      "low_thrust", "cr3bp_synodic"])
    def test_matches_order1_map_gradient(self, case, leo_event, leo_period):
        event = leo_event
        fixed = None
        grid = [-0.3 * leo_period, -0.5 * leo_period, -1.2 * leo_period]
        if case == "cr3bp_synodic":
            event = scenario_to_event(
                generate_synthetic_suite(11, 1, "CISLUNAR")[0])
            template = ControlSchedule(mode=IMPULSIVE, node_epochs=(-7200.0,))
            grid = [-3600.0, -7200.0, -20000.0]
        elif case == "low_thrust":
            template = ControlSchedule(
                mode=LOW_THRUST,
                node_epochs=(-0.6 * leo_period, -0.4 * leo_period))
        else:
            if case == "fixed_tangential":
                fixed = np.array([0.0, 1.0, 0.0])
            template = ControlSchedule(mode=IMPULSIVE,
                                       node_epochs=(-0.5 * leo_period,),
                                       fixed_direction=fixed)
        norms = gradient_norm_per_node(event, grid, template)
        assert [t for t, _ in norms] == grid
        duration = template.node_epochs[-1] - template.node_epochs[0]
        for t, norm in norms:
            epochs = (t,) if template.mode == IMPULSIVE else (t, t + duration)
            single = ControlSchedule(mode=template.mode, node_epochs=epochs,
                                     fixed_direction=fixed)
            oracle = np.linalg.norm(
                build_poc_map(event, single, order=1).gradient())
            assert oracle > 0.0
            assert abs(norm - oracle) <= 1e-11 * oracle

    def test_builds_no_polynomial_map(self, leo_event, leo_period,
                                      monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ranking built a polynomial map")

        monkeypatch.setattr(mapbuilder, "build_poc_map", refuse)
        monkeypatch.setattr(solver, "build_poc_map", refuse)
        template = ControlSchedule(mode=IMPULSIVE,
                                   node_epochs=(-0.5 * leo_period,))
        grid = [-1.0 * leo_period, -0.5 * leo_period, -0.02 * leo_period]
        chosen = solver.filter_nodes(leo_event, grid, 2, template)
        assert len(chosen.node_epochs) == 2
