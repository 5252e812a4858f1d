import math
from dataclasses import replace

import numpy as np
import pytest

from polycam import dynamics as dyn
from polycam import cli, dapoly, mapbuilder, solver
from polycam.cli import build_parser, run_scenario
from polycam.conjunction import log_poc_chan, poc_chan
from polycam.dapoly import AlgebraConfig, TaylorPoly
from polycam.errors import ConfigurationError, PropagationError
from polycam.mapbuilder import (ACCEL_REF_MS2, ControlSchedule,
                                IMPULSIVE, LOW_THRUST,
                                _relative_bplane_position,
                                _to_internal_units, build_poc_map,
                                gradient_norm_per_node,
                                propagate_with_controls, start_state)
from polycam.scenarios import generate_synthetic_suite, scenario_to_event
from polycam.solver import SolverConfig, solve_recursive
from polycam.validate import validate_solution


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

    def test_equality_and_hash_by_value(self):
        tang = ControlSchedule(mode=IMPULSIVE, node_epochs=(-900.0,),
                               fixed_direction=np.array([0.0, 1.0, 0.0]))
        same = ControlSchedule(mode=IMPULSIVE, node_epochs=(-900,),
                               fixed_direction=[0.0, 1.0, 0.0])
        assert tang == same
        assert hash(tang) == hash(same)
        assert tang != replace(tang, fixed_direction=(1.0, 0.0, 0.0))
        assert tang != replace(tang, fixed_direction=None)

    def test_arc_lengths_held_as_int_tuple(self):
        epochs = (-4000.0, -3600.0, -1200.0, -800.0)
        listed = ControlSchedule(mode=LOW_THRUST, node_epochs=epochs,
                                 arc_lengths=[2, np.int64(2)])
        same = ControlSchedule(mode=LOW_THRUST, node_epochs=epochs,
                               arc_lengths=(2, 2))
        assert listed.arc_lengths == (2, 2)
        assert all(type(n) is int for n in listed.arc_lengths)
        assert listed == same
        assert hash(listed) == hash(same)

    @pytest.mark.parametrize("lengths", [(2.0, 2.0), (2, "2"), 4])
    def test_rejects_non_integer_arc_lengths(self, lengths):
        with pytest.raises(ConfigurationError,
                           match="^arc lengths must be integers"):
            ControlSchedule(mode=LOW_THRUST,
                            node_epochs=(-4000.0, -3600.0, -1200.0, -800.0),
                            arc_lengths=lengths)

    def test_rejects_arc_lengths_on_impulses(self):
        with pytest.raises(ConfigurationError,
                           match="low-thrust schedules only"):
            ControlSchedule(mode=IMPULSIVE, node_epochs=(-900.0,),
                            arc_lengths=(7,))

    def test_fixed_direction_count(self):
        tang = np.array([0.0, 1.0, 0.0])
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-900.0, -300.0),
                                fixed_direction=tang)
        assert sched.n_vars == 2


def start_of(event, schedule, config=None, fixed_impulses=()):
    """The design's Start, holding ``fixed_impulses``: its
    back-propagation to the first control event, as a map built without a
    given start takes it."""
    return start_state(event, schedule, config, fixed_impulses)


def ballistic_poc(event, pmap):
    """Probability of a real ballistic pass from the map's start, fixed
    impulses included."""
    r_b = propagate_with_controls(event, pmap.schedule, None, pmap.start)
    return poc_chan(r_b, event.bplane.p_b, event.hbr_km)


def node_state(event, epoch):
    """(r, v) in km and km/s of the reference at ``epoch``: the start of
    the single-impulse design there."""
    sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(epoch,))
    start = start_of(event, sched)
    assert start.epoch == epoch
    y = start.state
    scale, _ = _to_internal_units(event)
    return (np.array(y[:3]) * scale.length_km,
            np.array(y[3:]) * scale.velocity_kms)


class TestBallisticReference:
    def test_single_node_round_trip(self, leo_event, leo_period):
        epoch = -0.5 * leo_period
        r, v = node_state(leo_event, epoch)
        back = dyn.propagate_vector((*r, *v), (0, 0, 0), epoch, 0.0,
                                    leo_event.dynamics,
                                    dyn.PropagationConfig(steps=100))
        err = np.linalg.norm(np.array(back[:3]) - leo_event.primary.r)
        assert err / np.linalg.norm(leo_event.primary.r) <= 1e-9

    def test_near_encounter_node_matches_state(self, leo_event):
        # node one microsecond before closest approach: the reference moves
        # by |v| * 1e-6 km at most
        r, v = node_state(leo_event, -1e-6)
        budget = np.linalg.norm(leo_event.primary.v) * 1e-6
        assert np.linalg.norm(r - leo_event.primary.r) <= 1.5 * budget
        np.testing.assert_allclose(v, leo_event.primary.v, atol=1e-7)

    def test_half_period_nodes_antipodal(self, leo_event, leo_period):
        # two-body geometry: points half a period apart on a circular
        # orbit are mirror images through the center
        r0, v0 = node_state(leo_event, -leo_period)
        r1, v1 = node_state(leo_event, -0.5 * leo_period)
        radius = np.linalg.norm(leo_event.primary.r)
        np.testing.assert_allclose(r0, -r1, atol=1e-6 * radius)
        np.testing.assert_allclose(v0, -v1, atol=1e-9)


def count_propagations(monkeypatch):
    """Counts of mapbuilder's ``propagate_vector`` calls by scalar kind, of
    those made inside node ranking, and of back-propagations from closest
    approach."""
    calls = {"poly": 0, "float": 0, "ranking": 0, "backward": 0}
    ranking = [False]
    propagate, rank = mapbuilder.propagate_vector, solver.gradient_norm_per_node

    def counted(y0, u, t0, t1, *args, **kwargs):
        poly = any(isinstance(c, TaylorPoly) for c in y0)
        calls["poly" if poly else "float"] += 1
        calls["ranking"] += ranking[0]
        calls["backward"] += t0 == 0.0 and t1 < t0
        return propagate(y0, u, t0, t1, *args, **kwargs)

    def ranked(*args, **kwargs):
        ranking[0] = True
        try:
            return rank(*args, **kwargs)
        finally:
            ranking[0] = False

    monkeypatch.setattr(mapbuilder, "propagate_vector", counted)
    monkeypatch.setattr(solver, "gradient_norm_per_node", ranked)
    return calls


@pytest.fixture(scope="module")
def leo_doc():
    return generate_synthetic_suite(2406, 1, "LEO", poc_band=(1.5e-6, 4e-6))[0]


def run_design(doc, *flags):
    args = build_parser().parse_args(["run", "case.json", "--order", "5",
                                      *flags])
    return run_scenario(doc, args)


class TestReferenceTrajectory:
    """The design's unmaneuvered trajectory: the start that its
    back-propagation gives the map, and the validation's replays from
    it."""

    def test_single_impulse_design_makes_four_propagations(self, monkeypatch,
                                                           leo_doc):
        # one back-propagation, the polynomial pass and the validation's
        # ballistic and maneuvered replays
        calls = count_propagations(monkeypatch)
        code, _ = run_design(leo_doc, "--nodes", "0.5orb")
        assert code == 0
        assert calls["poly"] == 1
        assert calls["poly"] + calls["float"] <= 4

    def test_filter_grid_design_makes_three_beyond_ranking(self, monkeypatch,
                                                           leo_doc):
        # the ranking's back-propagation starts the map: then the
        # polynomial pass and the validation's two replays
        calls = count_propagations(monkeypatch)
        code, _ = run_design(leo_doc, "--filter-grid",
                             "0.5orb,0.75orb,1orb,1.5orb", "--filter-keep", "1")
        assert code == 0
        assert calls["ranking"] >= 1
        assert calls["backward"] == 1
        assert calls["poly"] + calls["float"] - calls["ranking"] <= 3

    def test_umax_design_makes_one_back_propagation(self, monkeypatch,
                                                    leo_doc):
        # the ranking's pass starts every map and the validation replay
        nodes = ("--nodes", "2.5orb,1.5orb,0.5orb")
        code, alone = run_design(leo_doc, *nodes, "--umax", "100")
        assert code == 0 and len(alone["node_epochs_s"]) == 1
        bound = 0.6 * alone["solution"]["dv_total_ms"]
        calls = count_propagations(monkeypatch)
        code, payload = run_design(leo_doc, *nodes, "--umax", repr(bound))
        assert code == 0 and len(payload["node_epochs_s"]) >= 2
        assert calls["backward"] == 1

    def test_filtered_map_starts_from_the_ranking(self, monkeypatch, leo_doc):
        built = []
        build = cli.build_poc_map

        def recorded(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "build_poc_map", recorded)
        code, payload = run_design(leo_doc, "--filter-grid",
                                   "0.5orb,0.75orb,1orb,1.5orb",
                                   "--filter-keep", "2")
        assert code == 0
        (pmap,) = built
        event = scenario_to_event(leo_doc)
        period = dyn.osculating_period(event.primary, event.dynamics)
        grid = [-f * period for f in (0.5, 0.75, 1.0, 1.5)]
        template = ControlSchedule(mode=IMPULSIVE, node_epochs=(grid[0],))
        first = payload["node_epochs_s"][0]
        (ranked,) = [start for t, _, start in
                     gradient_norm_per_node(event, grid, template)
                     if t == first]
        start = pmap.start
        assert start.epoch == first
        assert start.state == ranked.state
        assert start.plan.times == ranked.plan.times == []
        # the ranking's pass stops at a later candidate on the way, so its
        # closed-form steps round otherwise than a pass of its own
        own = start_of(event, pmap.schedule)
        assert own.state != start.state

    def test_ranked_start_moves_the_validated_poc_below_1e_6(self, leo_doc):
        # a ranked design starts from the ranking's pass, which breaks at
        # the later candidates; a pass of its own stops once (under Kepler
        # dynamics both take closed-form segments, so only rounding differs)
        event = scenario_to_event(leo_doc)
        period = dyn.osculating_period(event.primary, event.dynamics)
        grid = [-f * period for f in (0.5, 1.0, 1.5, 2.0)]
        template = ControlSchedule(mode=IMPULSIVE, node_epochs=(grid[0],))
        *_, ranked = gradient_norm_per_node(event, grid, template)[-1]
        sched = template.retimed(grid[-1:])
        pocs, dvs = [], []
        for start in (ranked, None):
            pmap = build_poc_map(event, sched, order=5, start=start)
            solution = solve_recursive(pmap, SolverConfig(max_order=5))
            pocs.append(validate_solution(event, sched, solution.phi, 1e-6,
                                          pmap.start, pmap).validated_poc)
            dvs.append(solution.dv_total_ms)
        assert pmap.start.state != ranked.state
        assert abs(pocs[0] / pocs[1] - 1.0) <= 1e-6
        assert abs(dvs[0] / dvs[1] - 1.0) <= 1e-6

    @pytest.mark.parametrize("nodes", [("0.5orb",), ("1.5orb", "0.5orb")],
                             ids=["one", "two"])
    def test_validation_equals_fresh_replays(self, nodes, leo_doc):
        event = scenario_to_event(leo_doc)
        period = dyn.osculating_period(event.primary, event.dynamics)
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=tuple(
            -float(n[:-3]) * period for n in nodes))
        pmap = build_poc_map(event, sched, order=3)
        solution = solve_recursive(pmap, SolverConfig(max_order=3))
        report = validate_solution(event, sched, solution.phi, 1e-6,
                                   pmap.start, pmap)
        # replays from a fresh back-propagation, the map's start again
        start = start_of(event, sched)
        before = propagate_with_controls(event, sched, None, start)
        after = propagate_with_controls(event, sched, solution.phi, start)
        assert report.ballistic_poc == poc_chan(before, event.bplane.p_b,
                                                event.hbr_km)
        assert np.array_equal(report.bplane_before_km, before)
        assert np.array_equal(report.bplane_after_km, after)

    def test_passes_replay_the_back_propagations_mesh(self, monkeypatch,
                                                       leo_event, leo_period):
        # the back-propagation fills the mesh, stopping at each node; the
        # polynomial pass and the validation's two replays step on it,
        # split only at the nodes
        plans = []
        propagate = mapbuilder.propagate_vector

        def recorded(y0, u, t0, t1, model, config=None):
            out = propagate(y0, u, t0, t1, model, config)
            plans.append((t0, t1, config))
            return out

        monkeypatch.setattr(mapbuilder, "propagate_vector", recorded)
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(
            -1.5 * leo_period, -0.5 * leo_period))
        pmap = build_poc_map(leo_event, sched, order=2)
        report = validate_solution(leo_event, sched, np.full(6, 0.01), 1e-6,
                                   pmap.start, pmap)
        picked = pmap.start.plan
        assert plans[1][2] is picked
        scale, _ = _to_internal_units(leo_event)
        nodes = {t / scale.time_s for t in sched.node_epochs}
        # Kepler coasts take one closed-form step each, the
        # back-propagation's too, so its mesh and every leg's stay empty
        assert len(plans) == 2 + 3 * 2
        for t0, t1, plan in plans:
            assert plan.times == [] and {t0, t1} <= nodes | {0.0}
        assert report.segment_steps == (1, 1)
        assert picked.steps == 0
        # an integrated regime steps on the legs of its mesh and reports
        # their steps
        j2 = replace(leo_event, dynamics=dyn.DynamicsModel(kind=dyn.J2))
        start = start_of(j2, sched)
        plans.clear()
        taken = []
        propagate_with_controls(j2, sched, np.full(6, 0.01), start=start,
                                steps_taken=taken)
        assert len(plans) == 2
        for t0, t1, plan in plans:
            assert plan.times[0] == t0 and plan.times[-1] == t1
            assert set(plan.times[1:-1]) <= set(start.plan.times)
            assert {t0, t1} <= nodes | {0.0}
        assert taken == [plan.steps for *_, plan in plans]
        assert min(taken) > 1
        # a --steps design: the start and every leg of the passes keep the
        # count, and no pass fills times
        start = start_of(j2, sched, dyn.PropagationConfig(steps=40))
        plans.clear()
        taken = []
        pmap = build_poc_map(j2, sched, 2, start=start)
        propagate_with_controls(j2, sched, np.full(6, 0.01), start=start,
                                steps_taken=taken)
        assert pmap.start is start and len(plans) == 2 * 2
        for *_, plan in plans:
            assert plan.count == 40 and plan.times == []
        assert start.plan.count == 40 and start.plan.times == []
        assert taken == [40, 40]

    def test_coast_off_a_closed_form_start_picks_its_own_steps(self,
                                                               leo_doc):
        # 4 km/s at half an orbit makes the orbit hyperbolic: the forward
        # coast cannot take the closed form, and the start's mesh is empty;
        # error control picks the coast's steps instead
        event = scenario_to_event(leo_doc)
        period = dyn.osculating_period(event.primary, event.dynamics)
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * period,))
        start = start_of(event, sched)
        assert start.plan.times == []
        phi = np.array([0.0, 4000.0, 0.0])
        taken = []
        got = propagate_with_controls(event, sched, phi, start=start,
                                      steps_taken=taken)
        fine = propagate_with_controls(event, sched, phi, start_of(
            event, sched, dyn.PropagationConfig(steps=3200)))
        assert taken[0] > 1
        assert np.linalg.norm(got - fine) <= 1e-8 * np.linalg.norm(fine)
        # the polynomial pass has no steps to take there: exit 4
        with pytest.raises(PropagationError, match="step count") as err:
            build_poc_map(event, sched, 1, start=start._replace(
                fixed_impulses=((sched.node_epochs[0], phi),)))
        code, payload = cli._failure(err.value)
        assert code == 4
        assert payload["error"]["class"] == "non-convergence"

    def test_off_ellipse_coast_reports_its_integration_steps(self, leo_event,
                                                            leo_period):
        # a hyperbolic primary has no Kepler anomaly: its coasts integrate
        # on the mesh and report its steps
        fast = replace(leo_event, **{
            name: dyn.SpacecraftState(r=state.r, v=1.5 * state.v)
            for name, state in (("primary", leo_event.primary),
                                ("secondary", leo_event.secondary))})
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(
            -0.3 * leo_period, -0.1 * leo_period))
        start = start_of(fast, sched)
        report = validate_solution(fast, sched, np.full(6, 0.01), 1e-6, start)
        scale, _ = _to_internal_units(fast)
        epochs = [t / scale.time_s for t in (*sched.node_epochs, 0.0)]
        assert report.segment_steps == tuple(
            start.plan.between(t0, t1).steps
            for t0, t1 in zip(epochs, epochs[1:]))
        assert min(report.segment_steps) > 1

    def test_reference_holds_the_ballistic_pass(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE,
                                node_epochs=(-leo_period, -0.5 * leo_period))
        # the map holds the start of the ballistic pass, fixed impulses
        # included, which validation replays and the map's constant part
        # matches
        fixed = [(-0.75 * leo_period, np.array([0.0, 0.01, 0.0]))]
        start = start_of(leo_event, sched, fixed_impulses=fixed)
        pmap = build_poc_map(leo_event, sched, 1, start=start)
        assert start.epoch == -leo_period
        assert [t for t, _ in start.fixed_impulses] == [t for t, _ in fixed]
        # a fresh back-propagation replays the same ballistic pass
        r_b = propagate_with_controls(leo_event, sched, None, start_of(
            leo_event, sched, fixed_impulses=fixed))
        report = validate_solution(leo_event, sched, np.zeros(6), 1e-6,
                                   start, pmap)
        assert np.array_equal(report.bplane_before_km, r_b)
        assert math.exp(pmap.poly.constant_part) == pytest.approx(
            report.ballistic_poc, rel=1e-12)

    @pytest.mark.parametrize("impulse", [
        # unrefused, a pass would thread past closest approach and back
        (300.0, [0.0, 0.01, 0.0]),
        # its back-propagation would never return
        (math.nan, [0.0, 0.01, 0.0]),
        # numpy's ValueError would come from inside the pass
        (-900.0, [0.0, 0.01]),
        # a PropagationError would come from the map build
        (-900.0, [0.0, math.nan, 0.0])],
        ids=["after-closest-approach", "nan-epoch", "two-components",
             "nan-delta-v"])
    def test_fixed_impulse_that_a_schedule_refuses_is_refused(self, leo_event,
                                                              impulse):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-600.0,))
        with pytest.raises(ConfigurationError, match="fixed impulse") as err:
            start_state(leo_event, sched, fixed_impulses=[impulse])
        assert cli._failure(err.value)[0] == 3

    def test_start_from_another_epoch_is_refused(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-leo_period,))
        start = start_of(leo_event, sched.retimed([-0.5 * leo_period]))
        with pytest.raises(ConfigurationError):
            propagate_with_controls(leo_event, sched, None, start=start)

    @pytest.mark.parametrize("regime", ["LEO", "CISLUNAR"])
    def test_non_finite_node_state_is_refused(self, monkeypatch, regime):
        # Kepler and three-body dynamics alike: the node's control frame
        # refuses a reference state that is not finite, where the
        # back-propagation reaches the node
        event = scenario_to_event(generate_synthetic_suite(3, 1, regime)[0])
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-600.0,))
        monkeypatch.setattr(mapbuilder, "propagate_vector",
                            lambda y, *args: [math.nan, *y[1:]])
        with pytest.raises(ConfigurationError, match="non-finite"):
            start_of(event, sched)

    def test_map_of_another_schedule_is_refused(self, leo_event, leo_period):
        # same epoch, other fixed direction: the map's figures would grade
        # a control it was not built for
        epochs = (-0.5 * leo_period,)
        tangential = ControlSchedule(mode=IMPULSIVE, node_epochs=epochs,
                                     fixed_direction=(0.0, 1.0, 0.0))
        pmap = build_poc_map(leo_event, tangential, 1)
        radial = replace(tangential, fixed_direction=(1.0, 0.0, 0.0))
        with pytest.raises(ConfigurationError, match="another schedule"):
            validate_solution(leo_event, radial, [0.05], 1e-6, pmap.start,
                              pmap)
        same = ControlSchedule(mode=IMPULSIVE, node_epochs=epochs,
                               fixed_direction=np.array([0.0, 1.0, 0.0]))
        report = validate_solution(leo_event, same, [0.05], 1e-6, pmap.start,
                                   pmap)
        assert report.map_residual is not None

    def test_map_from_another_start_is_refused(self, leo_event, leo_period):
        # same schedule, a fresh back-propagation: validation replays from
        # the start it is given, which the map must have been built on
        sched = ControlSchedule(mode=IMPULSIVE,
                                node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, 1)
        with pytest.raises(ConfigurationError, match="another start"):
            validate_solution(leo_event, sched, np.zeros(3), 1e-6,
                              start_of(leo_event, sched), pmap)


class TestCompiledSlope:
    def test_two_j2_designs_compile_one_slope_program(self, monkeypatch):
        # their coasts' constants differ (each design scales lengths by
        # its own radius) and are bound to one compiled slope by name
        texts = []
        compile_source = dapoly._compile_source
        monkeypatch.setattr(dapoly, "_compile_source", lambda text, names: (
            texts.append(text) or compile_source(text, names)))
        dapoly._compiled_program.cache_clear()
        docs = generate_synthetic_suite(2406, 2, "LEO",
                                        poc_band=(1.5e-6, 4e-6))
        radii = {mapbuilder._to_internal_units(scenario_to_event(doc))[1].r_e
                 for doc in docs}
        assert len(radii) == 2
        for doc in docs:
            code, _ = run_design(doc, "--nodes", "0.5orb", "--dyn", "j2")
            assert code == 0
        assert len(texts) == 1


class TestBuildPocMap:
    def test_constant_part_is_ballistic(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, order=3)
        assert math.exp(pmap.poly.constant_part) == pytest.approx(
            ballistic_poc(leo_event, pmap), rel=1e-12)
        assert math.exp(pmap.poly.eval(np.zeros(pmap.poly.n_vars))) == \
            pytest.approx(ballistic_poc(leo_event, pmap), rel=1e-12)

    def test_variable_count_free_direction(self, leo_event, leo_period):
        sched = ControlSchedule(
            mode=IMPULSIVE,
            node_epochs=(-1.5 * leo_period, -0.5 * leo_period))
        pmap = build_poc_map(leo_event, sched, order=2)
        assert pmap.poly.n_vars == 3 * len(sched.node_epochs)

    def test_linear_part_matches_finite_differences(self, leo_event,
                                                    leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, order=5)
        bp = leo_event.bplane
        grad = pmap.poly.gradient_at_zero()
        fd = np.zeros(3)
        h = 1e-3  # m/s, i.e. 1e-6 km/s
        for k in range(3):
            step = np.zeros(3)
            step[k] = h
            plus = propagate_with_controls(leo_event, sched, step, pmap.start)
            minus = propagate_with_controls(leo_event, sched, -step,
                                            pmap.start)
            fd[k] = (math.log(poc_chan(plus, bp.p_b, leo_event.hbr_km))
                     - math.log(poc_chan(minus, bp.p_b, leo_event.hbr_km))) \
                / (2 * h)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-4

    def test_gradient_direction_matches_steepest(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, order=5)
        bp = leo_event.bplane
        fd = np.zeros(3)
        h = 1e-3
        for k in range(3):
            step = np.zeros(3)
            step[k] = h
            plus = propagate_with_controls(leo_event, sched, step, pmap.start)
            minus = propagate_with_controls(leo_event, sched, -step,
                                            pmap.start)
            fd[k] = (poc_chan(plus, bp.p_b, leo_event.hbr_km)
                     - poc_chan(minus, bp.p_b, leo_event.hbr_km)) / (2 * h)
        grad = pmap.poly.gradient_at_zero()
        cosine = grad @ fd / (np.linalg.norm(grad) * np.linalg.norm(fd))
        assert math.acos(min(cosine, 1.0)) <= 1e-3

    def test_map_tracks_real_pipeline(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, order=5)
        bp = leo_event.bplane
        phi = np.array([0.01, -0.02, 0.005])  # m/s
        r_b = propagate_with_controls(leo_event, sched, phi, pmap.start)
        truth = poc_chan(r_b, bp.p_b, leo_event.hbr_km)
        assert math.exp(pmap.poly.eval(phi / pmap.scaling)) == \
            pytest.approx(truth, rel=1e-4)

    def test_fixed_direction_single_variable(self, leo_event, leo_period):
        tang = np.array([0.0, 1.0, 0.0])
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,),
                                fixed_direction=tang)
        pmap = build_poc_map(leo_event, sched, order=3)
        assert pmap.poly.n_vars == 1
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
        assert pmap.poly.n_vars == 3
        assert math.exp(pmap.poly.constant_part) == pytest.approx(
            ballistic_poc(leo_event, pmap), rel=1e-12)

    def test_two_arc_low_thrust_map(self, leo_event, leo_period):
        # two 6-minute windows centered at 2.5 and 0.5 orbits out
        arcs = []
        for center in (-2.5 * leo_period, -0.5 * leo_period):
            arcs.extend((center - 180.0, center + 180.0))
        sched = ControlSchedule(mode=LOW_THRUST, node_epochs=tuple(arcs),
                                arc_lengths=(2, 2))
        pmap = build_poc_map(leo_event, sched, order=2)
        assert pmap.poly.n_vars == 6
        assert math.exp(pmap.poly.constant_part) == pytest.approx(
            ballistic_poc(leo_event, pmap), rel=1e-12)
        # the coast between the arcs leaves both windows with authority
        grad = pmap.poly.gradient_at_zero()
        assert np.linalg.norm(grad[:3]) > 0
        assert np.linalg.norm(grad[3:]) > 0

    def test_order_must_be_positive(self, leo_event, leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        with pytest.raises(ConfigurationError):
            build_poc_map(leo_event, sched, order=0)

    def test_config_with_a_start_is_refused(self, leo_event, leo_period):
        # the map steps on its start's plan, so a config passed with it
        # would go unread: 60 steps asked, 40 taken
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        start = start_of(leo_event, sched, dyn.PropagationConfig(steps=40))
        with pytest.raises(ConfigurationError, match="config or a start") \
                as err:
            build_poc_map(leo_event, sched, 1, dyn.PropagationConfig(steps=60),
                          start=start)
        assert cli._failure(err.value)[0] == 3


class TestControlFrames:
    """Every pass rotates each control by the frame that the design's
    back-propagation takes on the unmaneuvered reference at its epoch."""

    @pytest.mark.parametrize("flags", [("--steps", "60"), ("--dyn", "j2")],
                             ids=["kepler", "j2"])
    def test_three_node_map_agrees_with_validation(self, leo_doc, flags):
        # the map's later nodes and the validation replay's share their
        # frames, so the map at the solution is off only by its truncation
        # and rounding (by up to 2.9e-6 of the target when each pass took
        # the frame of its own state)
        code, payload = run_design(leo_doc, "--nodes", "2.5orb,1.5orb,0.5orb",
                                   "--target-poc", "1e-06", *flags)
        assert code == 0
        assert payload["validation"]["map_residual"] <= 1e-8 * 1e-6

    def test_fixed_impulse_leaves_a_later_frame_unchanged(self, leo_event,
                                                         leo_period):
        node, kick = -0.5 * leo_period, -leo_period
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(node,))
        fixed = [(kick, np.array([0.0, 20.0, 20.0]))]
        alone = start_of(leo_event, sched)
        start = start_of(leo_event, sched, fixed_impulses=fixed)
        assert start.epoch == kick
        assert np.array_equal(start.frames[node], alone.frames[node])
        # the impulse turns the orbit after it: the maneuvered state's
        # frame at the node is another one
        scale, model = _to_internal_units(leo_event)
        y = np.array(start.state)
        y[3:] += start.frames[kick].T @ fixed[0][1] * 1e-3 / scale.velocity_kms
        y = dyn.propagate_vector(list(y), (0.0,) * 3, kick / scale.time_s,
                                 node / scale.time_s, model,
                                 dyn.PropagationConfig(steps=100))
        turned = mapbuilder._control_rotation(leo_event, scale, y)
        assert np.max(np.abs(turned - start.frames[node])) > 1e-4

    def test_start_without_a_control_frame_exits_3(self, leo_event,
                                                   leo_period):
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(
            -leo_period, -0.5 * leo_period))
        start = start_of(leo_event, sched)
        frames = dict(start.frames)
        del frames[-0.5 * leo_period]
        lacking = start._replace(frames=frames)
        with pytest.raises(ConfigurationError, match="no control frame"):
            build_poc_map(leo_event, sched, 1, start=lacking)
        with pytest.raises(ConfigurationError, match="no control frame") \
                as err:
            propagate_with_controls(leo_event, sched, np.zeros(6),
                                    start=lacking)
        assert cli._failure(err.value)[0] == 3


def direct_poc_map(event, schedule, order, config):
    """Log-probability polynomial of a free-direction RTN schedule with
    every segment integrated in the full control algebra, from the
    design's Start and in its control frames."""
    cfg = AlgebraConfig(schedule.n_vars, order)
    scale, model = _to_internal_units(event)
    if schedule.mode == IMPULSIVE:
        unit_nd = 1e-3 / scale.velocity_kms
    else:
        unit_nd = ACCEL_REF_MS2 * 1e-3 / scale.accel_kms2

    start = start_of(event, schedule, config)
    epochs = [t / scale.time_s for t in schedule.node_epochs]

    y = list(start.state)
    slots = {node: slot for slot, node in
             enumerate(schedule.control_node_indices())}
    accel = (0.0, 0.0, 0.0)
    for i, t in enumerate(epochs):
        if i:
            # the steps of the design's passes: a count, or the start's
            # times
            y = dyn.propagate_vector(y, accel, epochs[i - 1], t, model,
                                     start.plan.between(epochs[i - 1], t))
        accel = (0.0, 0.0, 0.0)
        if i in slots:
            rot = start.frames[schedule.node_epochs[i]]
            x = [TaylorPoly.variable(cfg, 3 * slots[i] + k) for k in range(3)]
            kick = [sum(x[m] * (rot[m, k] * unit_nd) for m in range(3))
                    for k in range(3)]
            if schedule.mode == IMPULSIVE:
                y = y[:3] + [v + dv for v, dv in zip(y[3:], kick)]
            else:
                accel = tuple(kick)
    y = dyn.propagate_vector(y, accel, epochs[-1], 0.0, model,
                             start.plan.between(epochs[-1], 0.0))
    r_b = _relative_bplane_position(y, event, scale)
    return log_poc_chan(r_b, event.bplane.p_b, event.hbr_km)


class TestGrowingAlgebrasMatchFull:
    @pytest.mark.parametrize("mode, orbits, arcs, order, steps, kind", [
        (IMPULSIVE, (0.75, 0.5, 0.25), None, 3, 10, dyn.KEPLER),
        (IMPULSIVE, (0.75, 0.5, 0.25), None, 3, 10, dyn.J2),
        (LOW_THRUST, (1.05, 0.95, 0.8, 0.7, 0.55, 0.45, 0.3, 0.2),
         (2, 2, 2, 2), 2, 10, dyn.KEPLER),
    ], ids=["impulsive-9", "impulsive-9-j2", "low-thrust-12"])
    def test_coefficients_by_degree(self, leo_event, leo_period, mode,
                                    orbits, arcs, order, steps, kind):
        # the map's state gains each node's variables at that node, so its
        # early segments run in fewer variables than the full map's, and
        # the last ones (9-variable coasts, 12-variable thrust arcs)
        # integrate, or take the closed form, in the state's own algebra;
        # the oracle propagates every segment in the full algebra. Orders 3
        # and 2 thread the trajectory at the map's own order.
        leo_event = replace(leo_event, dynamics=dyn.DynamicsModel(kind=kind))
        sched = ControlSchedule(
            mode=mode, node_epochs=tuple(-k * leo_period for k in orbits),
            arc_lengths=arcs)
        config = dyn.PropagationConfig(steps=steps)
        growing = build_poc_map(leo_event, sched, order, config).poly
        direct = direct_poc_map(leo_event, sched, order, config)
        assert growing.n_vars == direct.n_vars == len(arcs or orbits) * 3
        tab = direct._tab
        for degree, block in enumerate(tab.degree_slices):
            size = np.max(np.abs(direct.coef[block]))
            gap = np.max(np.abs(growing.coef[block] - direct.coef[block]))
            assert size > 0
            assert gap <= 1e-11 * size, degree


class TestTrajectoryOrder:
    """An order-5 map threads its trajectory at ``TRAJECTORY_ORDER`` and
    lifts the encounter point to order 5 for the log probability."""

    @pytest.mark.parametrize("kind, steps", [(dyn.KEPLER, 60), (dyn.J2, None)],
                             ids=["kepler", "j2"])
    def test_low_degrees_match_a_full_order_map(self, leo_doc, kind, steps):
        # the three impulses of the multi-node designs, on a step count
        # under Kepler dynamics and on the back-propagation's mesh under
        # J2. A truncated product's degree-d coefficients read only its
        # factors' up to degree d, so the coefficients up to degree 3 are
        # the full-order map's; a trajectory at order 2 misses them.
        event = replace(scenario_to_event(leo_doc),
                        dynamics=dyn.DynamicsModel(kind=kind))
        period = dyn.osculating_period(event.primary, event.dynamics)
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=tuple(
            -f * period for f in (2.5, 1.5, 0.5)))
        config = dyn.PropagationConfig(steps=steps)
        pmap = build_poc_map(event, sched, 5, config)
        full = direct_poc_map(event, sched, 5, config)
        assert pmap.poly.config == full.config
        for degree, block in enumerate(full._tab.degree_slices[:4]):
            size = np.max(np.abs(full.coef[block]))
            gap = np.max(np.abs(pmap.poly.coef[block] - full.coef[block]))
            assert gap <= 1e-12 * size, degree
        # the lifted map still predicts the replay of its solution
        solution = solve_recursive(pmap, SolverConfig(max_order=5))
        report = validate_solution(event, sched, solution.phi, 1e-6,
                                   pmap.start, pmap)
        assert report.map_residual <= 1e-8 * 1e-6

    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_trajectory_runs_at_order_3_at_most(self, monkeypatch, leo_event,
                                                leo_period, order):
        threaded = []
        thread = mapbuilder._thread_trajectory

        def recording(*args, **kwargs):
            r_b = thread(*args, **kwargs)
            # the real passes return floats
            threaded.extend(c.config for c in r_b
                            if isinstance(c, TaylorPoly))
            return r_b

        monkeypatch.setattr(mapbuilder, "_thread_trajectory", recording)
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(
            -1.5 * leo_period, -0.5 * leo_period))
        pmap = build_poc_map(leo_event, sched, order)
        assert threaded == [AlgebraConfig(6, min(order, 3))] * 2
        assert pmap.poly.config == AlgebraConfig(6, order)


class TestScalingTransparency:
    def test_low_order_solution_invariant_under_scaling(self, leo_event,
                                                        leo_period):
        # solving the order-1 problem in scaled variables and unscaling
        # must give the physical gradient solution
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-0.5 * leo_period,))
        pmap = build_poc_map(leo_event, sched, order=1)
        rho = math.log(1e-6) - pmap.poly.constant_part
        grad_scaled = pmap.poly.gradient_at_zero()
        phi_scaled = rho * grad_scaled / np.linalg.norm(grad_scaled) ** 2
        phi_physical = phi_scaled * pmap.scaling
        # same computation carried out directly in physical units
        grad_physical = grad_scaled / pmap.scaling
        expected = rho * grad_physical / np.linalg.norm(grad_physical) ** 2
        np.testing.assert_allclose(phi_physical, expected, rtol=1e-9)


def count_pass_calls(monkeypatch):
    """Counts of mapbuilder's ``propagate_vector``, ``integrate`` and
    ``_thread_trajectory`` calls."""
    calls = {"propagate_vector": 0, "integrate": 0, "_thread_trajectory": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mapbuilder, name,
                            counted(name, getattr(mapbuilder, name)))
    return calls


def fine_map_norms(event, grid, template):
    """Gradient norms of 400-step order-1 maps of the template retimed to
    each grid epoch."""
    config = dyn.PropagationConfig(steps=400)
    return [np.linalg.norm(build_poc_map(
        event, template.retimed([t]), order=1,
        config=config).poly.gradient_at_zero()) for t in grid]


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
        norms = {t: n for t, n, _ in gradient_norm_per_node(
            tangential_event,
            [-1.0 * period, -0.5 * period, -0.02 * period],
            template)}
        half = norms[-0.5 * period]
        assert half > norms[-0.02 * period]
        assert half > norms[-1.0 * period]

    @pytest.mark.parametrize("mode", [IMPULSIVE, LOW_THRUST])
    def test_vanishing_probability_gives_zero_norms(self, leo_event,
                                                    leo_period, mode):
        # a 300-km miss puts the probability and its gradient below the
        # smallest double
        xi_hat = leo_event.bplane.basis[0]
        far = replace(leo_event, secondary=replace(
            leo_event.secondary, r=leo_event.secondary.r - 300.0 * xi_hat))
        assert poc_chan(far.bplane.r_b, far.bplane.p_b, far.hbr_km) == 0.0
        template = ControlSchedule(
            mode=mode, node_epochs=(-0.6 * leo_period, -0.4 * leo_period))
        grid = [-1.0 * leo_period, -0.5 * leo_period]
        assert [(t, n) for t, n, _ in gradient_norm_per_node(
            far, grid, template)] == [(t, 0.0) for t in grid]

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
        assert [t for t, _, _ in norms] == grid
        # the adjoint integrates the backward flow in steps of its own
        # segments (and an arc's quadrature samples it), so it is held to
        # a finer-step map
        for (t, norm, _), oracle in zip(norms, fine_map_norms(
                event, grid, template)):
            assert oracle > 0.0
            assert abs(norm - oracle) <= 1e-9 * oracle

    @pytest.mark.parametrize("case", ["one_orbit", "j2", "cislunar"])
    def test_arc_norms_match_fine_step_maps(self, case, leo_event,
                                            leo_period):
        # a held arc takes the adjoint integrated over it, and a full-orbit
        # arc's gradient cancels to about 1e-9 of its neighbours', so each
        # norm is judged against the largest on the grid
        event, orbits = leo_event, ((0.6, 0.4), (0.3, 0.5, 1.2))
        if case == "one_orbit":
            orbits = ((1.5, 0.5), (1.1, 1.5, 2.2))
        elif case == "j2":
            event = replace(leo_event, dynamics=dyn.DynamicsModel(kind=dyn.J2))
        epochs, grid = ([-k * leo_period for k in kk] for kk in orbits)
        if case == "cislunar":
            event = scenario_to_event(
                generate_synthetic_suite(11, 1, "CISLUNAR")[0])
            epochs, grid = (-7200.0, -3600.0), [-7200.0, -10800.0, -20000.0]
        template = ControlSchedule(mode=LOW_THRUST, node_epochs=epochs)
        oracles = fine_map_norms(event, grid, template)
        for (_, norm, _), oracle in zip(
                gradient_norm_per_node(event, grid, template), oracles):
            assert abs(norm - oracle) <= 1e-8 * max(oracles)

    @pytest.mark.parametrize("fixed", [None, (0.0, 1.0, 0.0)],
                             ids=["free", "fixed_tangential"])
    def test_impulsive_ranking_is_one_pass(self, leo_event, leo_period,
                                           monkeypatch, fixed):
        calls = count_pass_calls(monkeypatch)
        template = ControlSchedule(mode=IMPULSIVE,
                                   node_epochs=(-0.5 * leo_period,),
                                   fixed_direction=fixed)
        grid = [-k * leo_period for k in (0.5, 0.75, 1, 1.25, 1.5, 1.75, 2)]
        norms = gradient_norm_per_node(leo_event, grid, template)
        assert len(norms) == 7
        assert calls["propagate_vector"] <= 7
        assert calls["_thread_trajectory"] == 0

    @pytest.mark.parametrize("fixed", [None, (0.0, 1.0, 0.0)],
                             ids=["free", "fixed_tangential"])
    def test_low_thrust_ranking_is_one_pass(self, leo_event, leo_period,
                                            monkeypatch, fixed):
        # the one back-propagation stops at every candidate and at each
        # arc's quadrature nodes, integrating the mesh the arcs step on; no
        # pass runs forward
        calls = count_pass_calls(monkeypatch)
        template = ControlSchedule(mode=LOW_THRUST,
                                   node_epochs=(-2 * leo_period, -leo_period),
                                   fixed_direction=fixed)
        grid = [-k * leo_period for k in (3, 2.75, 2.5, 2.25, 2, 1.75, 1.5)]
        norms = gradient_norm_per_node(leo_event, grid, template)
        assert len(norms) == 7
        stops = 7 * (1 + len(mapbuilder._ARC_NODES))
        assert calls["integrate"] == stops
        assert calls["propagate_vector"] == calls["_thread_trajectory"] == 0

    def test_ranked_low_thrust_design_keeps_the_largest_norm(self, leo_doc):
        grid = ["3orb", "2.75orb", "2.5orb", "2.25orb", "2orb", "1.75orb",
                "1.5orb"]
        code, payload = run_design(
            leo_doc, "--mode", "lowthrust", "--nodes", "2orb,1orb,0.5orb",
            "--filter-grid", ",".join(grid), "--filter-keep", "1")
        assert code == 0
        assert payload["validation"]["poc_log_error"] <= 0.1
        event = scenario_to_event(leo_doc)
        period = dyn.osculating_period(event.primary, event.dynamics)
        epochs = [-float(k[:-3]) * period for k in grid]
        template = ControlSchedule(mode=LOW_THRUST,
                                   node_epochs=(-2 * period, -period))
        oracles = dict(zip(epochs, fine_map_norms(event, epochs, template)))
        kept = payload["node_epochs_s"][0]
        assert kept in oracles
        assert oracles[kept] >= (1.0 - 1e-6) * max(oracles.values())

    def test_kepler_impulsive_passes_call_no_kernel(self, leo_event,
                                                    leo_period, monkeypatch):
        # the ranking and a design's start take closed-form coasts: no
        # DOP853 stage runs
        calls = []
        kernel = dyn._kernel_kepler_j2
        monkeypatch.setattr(dyn, "_kernel_kepler_j2",
                            lambda *args: calls.append(1) or kernel(*args))
        template = ControlSchedule(mode=IMPULSIVE,
                                   node_epochs=(-0.5 * leo_period,))
        grid = [-k * leo_period for k in (0.5, 1.0, 1.5)]
        starts = [start for *_, start in
                  gradient_norm_per_node(leo_event, grid, template)]
        starts.append(start_of(leo_event, template))
        assert calls == []
        assert all(start.plan.times == [] for start in starts)

    @pytest.mark.parametrize("refused", ["near", "far"])
    def test_start_past_a_closed_form_segment_has_an_empty_mesh(
            self, leo_event, leo_period, monkeypatch, refused):
        # the closed form refuses one of the pass's two segments, which
        # fills its own mesh; a Start past the other holds an empty one, so
        # no pass takes one RK step across a coast
        accept = dyn.kepler_anomaly
        cut = -0.75 * leo_period / _to_internal_units(leo_event)[0].time_s

        def anomaly(y0, u, t0, t1, model):
            if (t1 > cut) == (refused == "near"):
                return None
            return accept(y0, u, t0, t1, model)

        monkeypatch.setattr(dyn, "kepler_anomaly", anomaly)
        template = ControlSchedule(mode=IMPULSIVE,
                                   node_epochs=(-0.5 * leo_period,))
        near, far = (start.plan for *_, start in gradient_norm_per_node(
            leo_event, [-0.5 * leo_period, -leo_period], template))
        assert (near.steps > 1) == (refused == "near")
        assert far.times == []

    @pytest.mark.parametrize("case", ["kepler-low-thrust", "j2-impulsive"])
    def test_arcs_and_j2_keep_error_controlled_meshes(self, case, leo_event,
                                                      leo_period):
        event, template = leo_event, ControlSchedule(
            mode=LOW_THRUST,
            node_epochs=(-0.6 * leo_period, -0.4 * leo_period))
        if case == "j2-impulsive":
            event = replace(leo_event,
                            dynamics=dyn.DynamicsModel(kind=dyn.J2))
            template = ControlSchedule(mode=IMPULSIVE,
                                       node_epochs=(-0.5 * leo_period,))
        grid = [-k * leo_period for k in (0.5, 1.0, 1.5)]
        time_s = _to_internal_units(event)[0].time_s
        stops = [0.0, *(t / time_s for t in grid)]
        for k, (_, _, start) in enumerate(
                gradient_norm_per_node(event, grid, template)):
            assert start.plan.times
            assert all(start.plan.between(t0, t1).steps > 1
                       for t0, t1 in zip(stops, stops[1:k + 2]))

    def test_closed_form_norms_match_complex_step_columns(self, leo_event,
                                                          leo_period):
        # each impulse direction's complex step through the closed-form
        # forward pass from the candidate's Start gives one column
        template = ControlSchedule(mode=IMPULSIVE,
                                   node_epochs=(-0.5 * leo_period,))
        grid = [-k * leo_period for k in (0.3, 0.5, 1.2)]
        for t, norm, start in gradient_norm_per_node(leo_event, grid,
                                                     template):
            single = template.retimed([t])
            columns = []
            for j in range(3):
                kick = [1e-20j if k == j else 0.0 for k in range(3)]
                xi, zeta = mapbuilder._thread_trajectory(
                    leo_event, single, start, [kick], single.unit)
                columns.append((xi.imag / 1e-20, zeta.imag / 1e-20))
            dpoc = mapbuilder._bplane_gradient(leo_event,
                                               (xi.real, zeta.real))
            oracle = np.linalg.norm(dpoc @ np.array(columns).T)
            assert abs(norm / oracle - 1.0) <= 1e-10

    def test_cislunar_ranking_matches_fine_step_maps(self):
        # one 100-step back-propagation per candidate ranked these epochs
        # in another order, with a norm 49% off the 1500-step figure
        event = scenario_to_event(generate_synthetic_suite(
            301, 4, "CISLUNAR", poc_band=(1.5e-6, 4e-6))[2])
        grid = [-7200.0 * k for k in (0.5, 1, 2, 3, 4, 6)]
        template = ControlSchedule(mode=IMPULSIVE, node_epochs=(grid[0],))
        # the oracle: order-1 maps at 200 steps, within 0.9% of the same
        # maps at 1500 steps on this grid (checked once, it takes 22 s)
        config = dyn.PropagationConfig(steps=200)
        oracle = {t: np.linalg.norm(build_poc_map(
            event, template.retimed([t]), order=1,
            config=config).poly.gradient_at_zero()) for t in grid}
        ranked = sorted(grid, key=lambda t: -oracle[t])
        # neighbours in the oracle's order differ by far more than 0.9%
        gaps = [oracle[a] / oracle[b] - 1.0 for a, b in zip(ranked, ranked[1:])]
        assert min(gaps) > 0.1
        for keep in range(1, len(grid)):
            chosen, _ = solver.filter_nodes(event, grid, keep, template)
            assert chosen.node_epochs == tuple(sorted(ranked[:keep]))

    def test_long_cislunar_segment_matches_fine_steps(self):
        # 100 equal steps over these 12 hours put the gradient 13% off its
        # converged value; the mesh follows the error estimate instead
        event = scenario_to_event(generate_synthetic_suite(
            301, 4, "CISLUNAR", poc_band=(1.5e-6, 4e-6))[2])
        sched = ControlSchedule(mode=IMPULSIVE, node_epochs=(-43200.0,))

        def norm(config):
            return np.linalg.norm(build_poc_map(
                event, sched, order=1, config=config).poly.gradient_at_zero())

        fine = norm(dyn.PropagationConfig(steps=1600))
        assert abs(norm(None) / fine - 1.0) <= 1e-6
        (_, ranked, _), = gradient_norm_per_node(event, [-43200.0], sched)
        assert abs(ranked / fine - 1.0) <= 1e-6

    def test_builds_no_polynomial_map(self, leo_event, leo_period,
                                      monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ranking built a polynomial map")

        monkeypatch.setattr(mapbuilder, "build_poc_map", refuse)
        monkeypatch.setattr(solver, "build_poc_map", refuse)
        template = ControlSchedule(mode=IMPULSIVE,
                                   node_epochs=(-0.5 * leo_period,))
        grid = [-1.0 * leo_period, -0.5 * leo_period, -0.02 * leo_period]
        chosen, _ = solver.filter_nodes(leo_event, grid, 2, template)
        assert len(chosen.node_epochs) == 2
