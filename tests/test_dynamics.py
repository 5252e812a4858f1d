import cProfile
import math
import pstats

import numpy as np
import pytest
from scipy.optimize import brentq

from polycam import cli, dapoly
from polycam import dynamics as dyn
from polycam.dapoly import AlgebraConfig, TaylorPoly
from polycam.errors import ConfigurationError, DomainError, FrameError
from polycam.mapbuilder import _to_internal_units
from polycam.scenarios import generate_synthetic_suite, scenario_to_event

from invariants import jacobi_constant, specific_energy
from poly_reference import coeffs

MODEL = dyn.DynamicsModel(kind=dyn.KEPLER)
MODEL_J2 = dyn.DynamicsModel(kind=dyn.J2)
MODEL_CR3BP = dyn.DynamicsModel(kind=dyn.CR3BP)
STEPS_100 = dyn.PropagationConfig(steps=100)


def circular_state(radius=7000.0, inclination=0.0):
    vc = math.sqrt(MODEL.mu / radius)
    v = np.array([0.0, vc * math.cos(inclination), vc * math.sin(inclination)])
    return dyn.SpacecraftState(r=[radius, 0.0, 0.0], v=v)


def advance(state, u, t0, t1, model, config=STEPS_100):
    """``state`` propagated from t0 to t1 under the held control ``u``."""
    y = dyn.propagate_vector((*state.r, *state.v), u, t0, t1, model, config)
    return dyn.SpacecraftState(r=y[:3], v=y[3:], frame=state.frame)


def kepler_j2_acceleration(r, v, u, model):
    """Acceleration part of the Earth-orbit kernel at one float state."""
    j2 = dyn.J2_EARTH if model.kind == dyn.J2 else 0.0
    out = dyn._kernel_kepler_j2((*r, *v), tuple(u), model.mu, model.r_e, j2)
    return np.array(out[3:])


def cr3bp_acceleration(r, v, u, model):
    """Acceleration part of the synodic-frame kernel at one float state."""
    out = dyn._kernel_cr3bp((*r, *v), tuple(u), dyn.CR3BP_MASS_RATIO)
    return np.array(out[3:])


class TestAccelKeplerJ2:
    def test_two_body_along_axis(self):
        radius = 8000.0
        accel = kepler_j2_acceleration([radius, 0, 0], [0, 7, 0], (0, 0, 0),
                                       MODEL)
        np.testing.assert_allclose(accel, [-MODEL.mu / radius ** 2, 0, 0],
                                   rtol=1e-15)

    def test_equatorial_plane_scaling(self):
        # substituting z = 0 into the oblateness terms: the in-plane
        # components scale by (1 + k) with k = 1.5 J2 (Re/r)^2, and the
        # axial acceleration vanishes
        r = np.array([5000.0, 4000.0, 0.0])
        accel = kepler_j2_acceleration(r, [0, 7, 0.5], (0, 0, 0), MODEL_J2)
        rn = np.linalg.norm(r)
        k = 1.5 * dyn.J2_EARTH * (MODEL_J2.r_e / rn) ** 2
        expected = -MODEL_J2.mu / rn ** 3 * r * (1 + k)
        np.testing.assert_allclose(accel[:2], expected[:2], rtol=1e-14)
        assert accel[2] == 0.0

    def test_control_passthrough_at_large_radius(self):
        accel = kepler_j2_acceleration([5e7, 0, 0], [0, 0.09, 0], (2.5, 0, 0),
                                       MODEL)
        assert accel[0] == pytest.approx(2.5, rel=1e-4)

    def test_j2_zero_reduces_to_two_body(self):
        # the KEPLER kind applies no J2 term
        y = (6800.0, 1200.0, 900.0, 1.0, 7.0, 0.4)
        no_j2 = dyn._derivative_fn(MODEL, (0, 0, 0))(y)
        r = np.array(y[:3])
        np.testing.assert_allclose(
            no_j2[3:], -MODEL.mu * r / np.linalg.norm(r) ** 3, rtol=1e-14)


class TestAccelCr3bp:
    def test_equilibrium_at_collinear_point(self):
        # the kernel's equilibrium between the primaries is the published
        # Earth-Moon L1 abscissa for mu = 0.0121505856
        mu = dyn.CR3BP_MASS_RATIO

        def fx(x):
            return cr3bp_acceleration([x, 0.0, 0.0], [0, 0, 0], (0, 0, 0),
                                      MODEL_CR3BP)[0]

        x_l1 = brentq(fx, 1 - mu - 0.3, 1 - mu - 0.01, xtol=1e-14)
        assert abs(x_l1 - 0.8369151) <= 1e-6
        accel = cr3bp_acceleration([x_l1, 0, 0], [0, 0, 0], (0, 0, 0),
                                   MODEL_CR3BP)
        np.testing.assert_allclose(accel, [0, 0, 0], atol=1e-12)

    def test_control_enters_linearly(self):
        r = [0.8, 0.1, 0.05]
        v = [0.1, -0.2, 0.0]
        u = np.array([0.3, -0.7, 0.2])
        with_u = cr3bp_acceleration(r, v, u, MODEL_CR3BP)
        without = cr3bp_acceleration(r, v, (0, 0, 0), MODEL_CR3BP)
        np.testing.assert_allclose(with_u - without, u, rtol=1e-13)


class TestPropagate:
    def test_circular_orbit_period(self):
        state = circular_state()
        period = dyn.osculating_period(state, MODEL)
        assert period == pytest.approx(
            2 * math.pi * math.sqrt(7000.0 ** 3 / MODEL.mu))
        end = advance(state, (0, 0, 0), 0.0, period, MODEL)
        assert np.linalg.norm(end.r - state.r) / 7000.0 <= 1e-9

    def test_reversibility_round_trip(self):
        state = circular_state(inclination=0.6)
        period = dyn.osculating_period(state, MODEL)
        fwd = advance(state, (0, 0, 0), 0.0, 0.37 * period, MODEL)
        back = advance(fwd, (0, 0, 0), 0.37 * period, 0.0, MODEL)
        assert np.linalg.norm(back.r - state.r) / 7000.0 <= 1e-9
        assert np.linalg.norm(back.v - state.v) / np.linalg.norm(state.v) <= 1e-9

    def test_two_body_energy_five_orbits(self):
        state = circular_state(radius=6900.0, inclination=0.3)
        period = dyn.osculating_period(state, MODEL)
        e0 = specific_energy(state, MODEL)
        s = state
        for _ in range(5):
            s = advance(s, (0, 0, 0), 0.0, period, MODEL)
        e1 = specific_energy(s, MODEL)
        assert abs(e1 - e0) / abs(e0) <= 1e-11

    def test_j2_axial_angular_momentum_five_orbits(self):
        state = circular_state(radius=7100.0, inclination=0.9)
        period = dyn.osculating_period(state, MODEL_J2)
        hz0 = np.cross(state.r, state.v)[2]
        s = state
        for _ in range(5):
            s = advance(s, (0, 0, 0), 0.0, period, MODEL_J2)
        hz1 = np.cross(s.r, s.v)[2]
        assert abs(hz1 - hz0) / abs(hz0) <= 1e-10

    def test_cr3bp_jacobi_one_period(self):
        # quasi-circular orbit outside both primaries, one synodic period
        r0 = 1.5
        v_inertial = math.sqrt(1.0 / r0)
        state = dyn.SpacecraftState(r=[r0, 0, 0], v=[0, v_inertial - r0, 0],
                                    frame=dyn.SYNODIC)
        c0 = jacobi_constant(state, MODEL_CR3BP)
        end = advance(state, (0, 0, 0), 0.0, 2 * math.pi, MODEL_CR3BP,
                            dyn.PropagationConfig(steps=400))
        c1 = jacobi_constant(end, MODEL_CR3BP)
        assert abs(c1 - c0) / abs(c0) <= 1e-10

    def test_control_changes_trajectory(self):
        state = circular_state()
        free = advance(state, (0, 0, 0), 0.0, 600.0, MODEL)
        pushed = advance(state, (1e-6, 0, 0), 0.0, 600.0, MODEL)
        assert np.linalg.norm(pushed.r - free.r) > 0

    def test_midflight_singularity_carries_time(self):
        # gravity overflows doubles this close to the center
        state = dyn.SpacecraftState(r=[1e-120, 0, 0], v=[0.0, 0, 0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(dyn.PropagationError) as err:
                advance(state, (0, 0, 0), 0.0, 3000.0, MODEL)
        assert err.value.time is not None
        assert 0.0 < err.value.time <= 3000.0
        # a complex-step leg stops at the same singularity
        y0 = [1e-120 + 1e-140j, 0.0, 0.0, 0.0, 0.0, 0.0]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(dyn.PropagationError) as err:
                dyn.propagate_vector(y0, (0.0, 0.0, 0.0), 0.0, 3000.0, MODEL,
                                     STEPS_100)
        assert 0.0 < err.value.time < 3000.0

    def test_deterministic(self):
        state = circular_state(inclination=0.2)
        a = advance(state, (0, 0, 0), 0.0, 1234.5, MODEL)
        b = advance(state, (0, 0, 0), 0.0, 1234.5, MODEL)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.v, b.v)


class TestPropagateDa:
    def test_constant_part_matches_real(self):
        state = circular_state(inclination=0.4)
        period = dyn.osculating_period(state, MODEL)
        y0 = [*state.r, *state.v]
        cfg = AlgebraConfig(3, 4)
        yda = [TaylorPoly.constant(cfg, c) for c in y0]
        for i in range(3):
            yda[3 + i] = yda[3 + i] + TaylorPoly.variable(cfg, i) * 1e-3
        out = dyn.propagate_vector(yda, (0, 0, 0), 0.0, period / 2, MODEL,
                                   STEPS_100)
        real = dyn.propagate_vector(y0, (0, 0, 0), 0.0, period / 2, MODEL,
                                    STEPS_100)
        for poly, ref in zip(out, real):
            assert abs(poly.constant_part - ref) <= 1e-12 * max(abs(ref), 1.0)

    def test_linear_part_matches_finite_differences(self):
        state = circular_state(inclination=0.4)
        period = dyn.osculating_period(state, MODEL)
        y0 = [*state.r, *state.v]
        cfg = AlgebraConfig(3, 3)
        yda = [TaylorPoly.constant(cfg, c) for c in y0]
        for i in range(3):
            yda[3 + i] = yda[3 + i] + TaylorPoly.variable(cfg, i) * 1e-3
        out = dyn.propagate_vector(yda, (0, 0, 0), 0.0, period / 2, MODEL,
                                   STEPS_100)

        h = 1e-6
        for var in range(3):
            plus = list(y0)
            plus[3 + var] += h
            minus = list(y0)
            minus[3 + var] -= h
            fp = dyn.propagate_vector(plus, (0, 0, 0), 0.0, period / 2,
                                      MODEL, STEPS_100)
            fm = dyn.propagate_vector(minus, (0, 0, 0), 0.0, period / 2,
                                      MODEL, STEPS_100)
            key = tuple(1 if j == var else 0 for j in range(3))
            fd = np.array([(p - m) / (2 * h) for p, m in zip(fp, fm)])
            lin = np.array([coeffs(p).get(key, 0.0) / 1e-3 for p in out])
            assert np.linalg.norm(lin - fd) / np.linalg.norm(fd) <= 1e-5

    def test_batched_matches_scalar(self):
        state = circular_state()
        y0 = [*state.r, *state.v]
        batch = [np.array([c, c]) for c in y0]
        out_b = dyn.propagate_vector(batch, (0, 0, 0), 0.0, 500.0, MODEL,
                                     STEPS_100)
        out_s = dyn.propagate_vector(y0, (0, 0, 0), 0.0, 500.0, MODEL,
                                     STEPS_100)
        for col, ref in zip(out_b, out_s):
            np.testing.assert_allclose(col, [ref, ref], rtol=1e-15)


def entrywise_propagate(y0, u, t0, t1, model, steps):
    """The DOP853 stage loop run entry by entry on any scalar type: the
    reference the block path must reproduce bit for bit."""
    deriv = dyn._derivative_fn(model, tuple(u))
    h = (t1 - t0) / steps
    y = list(y0)
    for _ in range(steps):
        f = {}
        for k, row in dyn._ROWS.items():
            yk = list(y)
            for l, b in row:
                for i in range(6):
                    yk[i] = yk[i] + (h * b) * f[l][i]
            f[k] = deriv(yk)
        for k, w in dyn._WSEL:
            for i in range(6):
                y[i] = y[i] + (h * w) * f[k][i]
    return y


def assert_same_entries(out, ref):
    assert len(out) == len(ref) == 6
    for a, b in zip(out, ref):
        if isinstance(b, TaylorPoly):
            assert isinstance(a, TaylorPoly) and a.config == b.config
            assert np.array_equal(a.coef, b.coef)
        else:
            assert np.array_equal(a, b)


CFG_3_5 = AlgebraConfig(3, 5)
CFG_6_5 = AlgebraConfig(6, 5)


def poly_state(ref, scale, cfg=CFG_3_5):
    """Constants ``ref`` plus ``scale`` times variable i % M on entry i."""
    return [TaylorPoly.variable(cfg, i % cfg.n_vars) * scale + c
            for i, c in enumerate(ref)]


def constant_rows(values, cfg=CFG_3_5):
    """``values`` with each float as the constant polynomial of its value."""
    return [c if isinstance(c, TaylorPoly) else TaylorPoly.constant(cfg, c)
            for c in values]


class TestBlockPath:
    # A float entry of a polynomial state meets the kernel as the constant
    # row its block holds, whose power starts from a0 ** p: the power a
    # float entry takes too, so the references may hold either. At this
    # position np.power(r2, p), an array entry's power, is one ULP off
    # r2 ** p for the Kepler kernel's p = -1.5 and the J2 kernel's p = -0.5.
    LEO = (6823.0, 1203.0, 900.0, -1.1, 7.2, 0.4)
    SYNODIC_STATE = (0.82, 0.11, 0.04, 0.02, -0.15, 0.01)

    @pytest.mark.parametrize("model, ref, span, scale, cfg", [
        (MODEL, LEO, 600.0, 1e-2, CFG_3_5),
        (MODEL_J2, LEO, 600.0, 1e-2, CFG_3_5),
        (MODEL_CR3BP, SYNODIC_STATE, 0.2, 1e-4, CFG_3_5),
        # the algebra of a multi-node flow map
        (MODEL, LEO, 600.0, 1e-2, CFG_6_5),
        (MODEL_J2, LEO, 600.0, 1e-2, CFG_6_5),
        (MODEL_CR3BP, SYNODIC_STATE, 0.2, 1e-4, CFG_6_5)],
        ids=["kepler", "j2", "cr3bp", "kepler-m6", "j2-m6", "cr3bp-m6"])
    def test_polynomial_state(self, model, ref, span, scale, cfg):
        y0 = poly_state(ref, scale, cfg)
        out = dyn.integrate(y0, (0.0, 0.0, 0.0), 0.0, span, model,
                            dyn.PropagationConfig(steps=6))
        assert_same_entries(
            out, entrywise_propagate(y0, (0.0, 0.0, 0.0), 0.0, span, model, 6))

    @pytest.mark.parametrize("kind", ["float", "poly"])
    def test_controls_on_polynomial_state(self, kind):
        # held controls are constants or registers of the stage program
        u = ((1e-6, -2e-6, 0.0) if kind == "float" else
             [TaylorPoly.variable(CFG_3_5, m) * 1e-6 for m in range(3)])
        y0 = poly_state(self.LEO, 1e-2)
        out = dyn.propagate_vector(y0, u, 0.0, 600.0, MODEL_J2,
                                   dyn.PropagationConfig(steps=2))
        assert_same_entries(
            out, entrywise_propagate(y0, u, 0.0, 600.0, MODEL_J2, 2))

    @pytest.mark.parametrize("model", [MODEL, MODEL_J2, MODEL_CR3BP],
                             ids=["kepler", "j2", "cr3bp"])
    @pytest.mark.parametrize("steps, state", [
        (1, "poly"), (5, "poly"),
        # float entries are constant rows from the first stage on
        (3, "float-positions"), (3, "float-state")],
        ids=["1", "5", "3-float-positions", "3-float-state"])
    def test_polynomial_state_calls_the_kernel_once(self, monkeypatch, model,
                                                    steps, state):
        # once, to record the stage program; every stage replays it
        calls = []

        def counted(kernel):
            def call(*args):
                calls.append(kernel)
                return kernel(*args)
            return call

        for name in ("_kernel_kepler_j2", "_kernel_cr3bp"):
            monkeypatch.setattr(dyn, name, counted(getattr(dyn, name)))
        ref = self.SYNODIC_STATE if model.kind == dyn.CR3BP else self.LEO
        thrust = [TaylorPoly.variable(CFG_3_5, m) * 1e-6 for m in range(3)]
        y0, u = {
            "poly": (poly_state(ref, 1e-4), thrust),
            "float-positions": ([*ref[:3], *poly_state(ref, 1e-4)[3:]],
                                (0.0, 0.0, 0.0)),
            "float-state": (list(ref), thrust)}[state]
        dyn.integrate(y0, u, 0.0, 0.1, model,
                      dyn.PropagationConfig(steps=steps))
        assert len(calls) == 1

    @pytest.mark.parametrize("model", [MODEL, MODEL_J2], ids=["kepler", "j2"])
    def test_polynomial_state_at_the_center_raises(self, model):
        # the radius has constant part 0, so its power has no expansion
        y0 = poly_state((0.0, 0.0, 0.0, 7.0, 0.0, 0.0), 1e-3)
        with pytest.raises(DomainError) as got:
            dyn.propagate_vector(y0, (0.0, 0.0, 0.0), 0.0, 60.0, model,
                                 STEPS_100)
        with pytest.raises(DomainError) as want:
            entrywise_propagate(y0, (0.0, 0.0, 0.0), 0.0, 60.0, model, 1)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    # The float-entry cases take one long step, so that a last-bit change
    # in the first stage's acceleration reaches the result. A polynomial
    # state's float entry is the constant polynomial of its value.

    @pytest.mark.parametrize("model", [MODEL, MODEL_J2], ids=["kepler", "j2"])
    def test_float_positions_polynomial_velocities(self, model):
        # the state just after an impulse: only the velocities depend on it
        y0 = ([np.float64(c) for c in self.LEO[:3]]
              + poly_state(self.LEO, 1e-3)[3:])
        out = dyn.integrate(y0, (0.0, 0.0, 0.0), 0.0, -900.0, model,
                            dyn.PropagationConfig(steps=1))
        assert_same_entries(
            out, entrywise_propagate(constant_rows(y0), (0.0, 0.0, 0.0), 0.0,
                                     -900.0, model, 1))

    @pytest.mark.parametrize("model", [MODEL, MODEL_J2], ids=["kepler", "j2"])
    def test_polynomial_control_on_float_state(self, model):
        # a low-thrust arc held on a real reference state
        u = [TaylorPoly.variable(CFG_3_5, m) * 1e-6 for m in range(3)]
        out = dyn.propagate_vector(list(self.LEO), u, 0.0, 600.0, model,
                                   dyn.PropagationConfig(steps=1))
        assert_same_entries(
            out, entrywise_propagate(constant_rows(self.LEO), u, 0.0, 600.0,
                                     model, 1))

    @pytest.mark.parametrize("model", [MODEL, MODEL_J2], ids=["kepler", "j2"])
    def test_float_positions_batched_velocities(self, model):
        # a batch's float entry stays a float, as in the reference, until
        # a stage adds an array slope to it
        offsets = np.linspace(-1e-3, 1e-3, 4)
        y0 = ([np.float64(c) for c in self.LEO[:3]]
              + [c + offsets * (i + 1) for i, c in enumerate(self.LEO[3:])])
        out = dyn.integrate(y0, (0.0, 0.0, 0.0), 0.0, -900.0, model,
                            dyn.PropagationConfig(steps=1))
        assert all(col.shape == (4,) for col in out)
        assert_same_entries(
            out, entrywise_propagate(y0, (0.0, 0.0, 0.0), 0.0, -900.0,
                                     model, 1))

    def test_thrust_arcs_share_one_program(self, monkeypatch):
        # the controls are bound to the compiled slope by name: arcs that
        # differ only in them run one code object
        texts = []
        compile_source = dapoly._compile_source
        monkeypatch.setattr(dapoly, "_compile_source", lambda text, names: (
            texts.append(text) or compile_source(text, names)))
        dapoly._compiled_program.cache_clear()
        y0 = poly_state(self.LEO, 1e-2)
        for scale in (1e-6, -3e-6):
            u = [TaylorPoly.variable(CFG_3_5, m) * scale + 1e-7 * m
                 for m in range(3)]
            out = dyn.propagate_vector(y0, u, 0.0, 600.0, MODEL_J2,
                                       dyn.PropagationConfig(steps=2))
            assert_same_entries(
                out, entrywise_propagate(y0, u, 0.0, 600.0, MODEL_J2, 2))
        assert len(texts) == 1

    @pytest.mark.parametrize("model, ref, h", [
        (MODEL, LEO, 100.0),
        (MODEL_J2, LEO, 100.0),
        (MODEL_CR3BP, SYNODIC_STATE, 0.0625)],
        ids=["kepler", "j2", "cr3bp"])
    @pytest.mark.parametrize("plan", ["count", "mesh"])
    def test_batched_state(self, model, ref, h, plan):
        # integrate, as propagate_vector takes a Kepler coast in closed
        # form; the plan's times are exact in binary, so that each
        # step b - a is the count's h
        offsets = np.linspace(-1e-3, 1e-3, 4)
        y0 = [c + offsets * (i + 1) for i, c in enumerate(ref)]
        config = (dyn.PropagationConfig(steps=6) if plan == "count"
                  else dyn.PropagationConfig(times=[k * h for k in range(7)]))
        out = dyn.integrate(y0, (0.0, 0.0, 0.0), 0.0, 6 * h, model, config)
        assert all(col.shape == (4,) for col in out)
        assert_same_entries(
            out, entrywise_propagate(y0, (0.0, 0.0, 0.0), 0.0, 6 * h, model,
                                     6))

    def test_numpy_float_state_gives_python_floats(self):
        y0 = [np.float64(c) for c in self.LEO]
        out = dyn.propagate_vector(y0, (1e-6, 0.0, 0.0), 0.0, 600.0, MODEL_J2,
                                   dyn.PropagationConfig(steps=1))
        assert all(type(c) is float for c in out)
        # the reference sees numpy floats, whose ** is a Python float's
        assert out == entrywise_propagate(y0, (1e-6, 0.0, 0.0), 0.0, 600.0,
                                          MODEL_J2, 1)

    @pytest.mark.parametrize("model, ref, span", [
        (MODEL, LEO, 600.0),
        (MODEL_J2, LEO, 600.0),
        (MODEL_CR3BP, SYNODIC_STATE, 0.2)],
        ids=["kepler", "j2", "cr3bp"])
    def test_complex_state_gives_python_complex(self, model, ref, span):
        # a complex-step leg: one velocity carries the imaginary step
        y0 = [*ref[:3], ref[3] + 1e-20j, *ref[4:]]
        out = dyn.propagate_vector(y0, (0.0, 0.0, 0.0), 0.0, span, model,
                                   dyn.PropagationConfig(steps=2))
        assert all(type(c) is complex for c in out)

    @pytest.mark.parametrize("model", [MODEL, MODEL_J2], ids=["kepler", "j2"])
    def test_real_state_at_the_center_raises(self, model):
        y0 = [np.float64(0.0)] * 3 + [np.float64(7.0), 0.0, 0.0]
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(dyn.PropagationError) as err:
                dyn.propagate_vector(y0, (0.0, 0.0, 0.0), 0.0, 60.0, model,
                                     STEPS_100)
        assert err.value.time is not None


def untrimmed_kepler_j2(y, u, mu, r_e, j2):
    """The Earth-orbit kernel with its identity terms: the J2 factors are
    1.0 under Kepler, and a coast adds the zero control."""
    x, yy, z, vx, vy, vz = y
    z2 = z * z
    r2 = x * x + yy * yy + z2
    if j2 != 0.0:
        inv_r = r2 ** -0.5
        inv_r2 = inv_r * inv_r
        common = -mu * (inv_r2 * inv_r)
        k_j2 = (1.5 * j2 * r_e * r_e) * inv_r2
        shared = k_j2 * (5.0 * (z2 * inv_r2))
        plane = common * (1.0 + k_j2 - shared)
        axial = common * (1.0 + 3.0 * k_j2 - shared)
    else:
        plane = axial = -mu * r2 ** -1.5 * 1.0
    return (vx, vy, vz, plane * x + u[0], plane * yy + u[1],
            axial * z + u[2])


def untrimmed_cr3bp(y, u, mass_ratio):
    """The synodic-frame kernel adding the zero control on a coast."""
    x, yy, z, vx, vy, vz = y
    mu = mass_ratio
    xe = x + mu
    xm = x - (1.0 - mu)
    yy2 = yy * yy
    z2 = z * z
    inv1 = (xe * xe + yy2 + z2) ** -1.5
    inv2 = (xm * xm + yy2 + z2) ** -1.5
    gx = -x + (1.0 - mu) * xe * inv1 + mu * xm * inv2
    gy = -yy + (1.0 - mu) * yy * inv1 + mu * yy * inv2
    gz = -z + (1.0 - mu) * z * inv1 + mu * z * inv2
    return (vx, vy, vz, 2.0 * vy - gx + u[0], -2.0 * vx - gy + u[1],
            -z - gz + u[2])


def same_entry(a, b) -> bool:
    if isinstance(b, TaylorPoly):
        return isinstance(a, TaylorPoly) and np.array_equal(a.coef, b.coef)
    return type(a) is type(b) and np.array_equal(a, b)


class TestTrimmedKernels:
    LEO_ND = (0.95, 0.2, 0.15, -0.1, 0.98, 0.12)
    SYNODIC_STATE = TestBlockPath.SYNODIC_STATE
    CFG = AlgebraConfig(6, 3)

    def states(self, ref):
        offsets = np.linspace(-1e-3, 1e-3, 4)
        return {
            "float": list(ref),
            "complex": [c + 1e-20j * (i + 1) for i, c in enumerate(ref)],
            "batch": [c + offsets * (i + 1) for i, c in enumerate(ref)],
            "poly": [TaylorPoly.variable(self.CFG, i) * 1e-3 + c
                     for i, c in enumerate(ref)],
        }

    @pytest.mark.parametrize("kind", ["float", "complex", "batch", "poly"])
    @pytest.mark.parametrize("model", [MODEL, MODEL_J2, MODEL_CR3BP],
                             ids=["kepler", "j2", "cr3bp"])
    def test_coast_kernels_equal_untrimmed(self, model, kind):
        zero = (0.0, 0.0, 0.0)
        if model.kind == dyn.CR3BP:
            y = self.states(self.SYNODIC_STATE)[kind]
            trimmed = dyn._kernel_cr3bp(y, None, dyn.CR3BP_MASS_RATIO)
            full = untrimmed_cr3bp(y, zero, dyn.CR3BP_MASS_RATIO)
        else:
            y = self.states(self.LEO_ND)[kind]
            j2 = dyn.J2_EARTH if model.kind == dyn.J2 else 0.0
            trimmed = dyn._kernel_kepler_j2(y, None, 1.0, 0.9, j2)
            full = untrimmed_kepler_j2(y, zero, 1.0, 0.9, j2)
        assert all(same_entry(a, b) for a, b in zip(trimmed, full))

    @pytest.mark.parametrize("kind", ["float", "complex", "batch", "poly"])
    @pytest.mark.parametrize("model", [MODEL, MODEL_J2, MODEL_CR3BP],
                             ids=["kepler", "j2", "cr3bp"])
    def test_coast_propagation_equals_untrimmed(self, monkeypatch, model,
                                                kind):
        ref, span = ((self.SYNODIC_STATE, 0.2) if model.kind == dyn.CR3BP
                     else (TestBlockPath.LEO, 600.0))
        scale = 1e-4 if model.kind == dyn.CR3BP else 1e-2
        y0 = self.states(ref)[kind]
        if kind == "poly":
            y0 = poly_state(ref, scale)
        config = dyn.PropagationConfig(steps=3)
        trimmed = dyn.integrate(y0, (0.0, 0.0, 0.0), 0.0, span, model,
                                config)
        zero = (0.0, 0.0, 0.0)
        monkeypatch.setattr(dyn, "_kernel_kepler_j2",
                            lambda y, u, *a: untrimmed_kepler_j2(y, u or zero, *a))
        monkeypatch.setattr(dyn, "_kernel_cr3bp",
                            lambda y, u, *a: untrimmed_cr3bp(y, u or zero, *a))
        full = dyn.integrate(y0, (0.0, 0.0, 0.0), 0.0, span, model, config)
        assert all(same_entry(a, b) for a, b in zip(trimmed, full))

    def test_only_a_real_zero_control_is_a_coast(self):
        y = list(self.LEO_ND)
        for u in [(1e-6, 0.0, 0.0), (0j, 0.0, 0.0)]:
            with_u = dyn._derivative_fn(MODEL, u)(y)
            full = untrimmed_kepler_j2(y, u, MODEL.mu, MODEL.r_e, 0.0)
            assert all(same_entry(a, b) for a, b in zip(with_u, full))


class TestStagePlan:
    """The stated DOP853 stage plan against its tableau."""

    @staticmethod
    def nonzero(row):
        return [(l, b) for l, b in enumerate(row) if b != 0.0]

    def test_kept_stages_include_every_weighted_stage(self):
        # the weights and both error estimators read the 12 stages alone
        assert sorted(dyn._ROWS) == list(range(12))
        for weights in (dyn._B, dyn._E5, dyn._E3):
            assert len(weights) == 12
            assert {k for k, _ in self.nonzero(weights)} <= set(dyn._ROWS)

    def test_kept_stages_are_closed_under_their_rows(self):
        # explicit: each stage reads the slopes of earlier stages only
        for k in dyn._ROWS:
            assert len(dyn._A[k]) == k
            assert {l for l, _ in self.nonzero(dyn._A[k])} <= set(range(k))

    def test_rows_and_weights_list_exactly_the_nonzero_entries(self):
        for k, row in enumerate(dyn._A):
            assert dyn._ROWS[k] == self.nonzero(row)
        assert dyn._WSEL == self.nonzero(dyn._B)
        assert dyn._E5SEL == self.nonzero(dyn._E5)
        assert dyn._E3SEL == self.nonzero(dyn._E3)


class TestTableau:
    """The transcribed DOP853 tableau (Hairer, Norsett & Wanner, II.5)."""

    def test_equals_scipys_coefficients(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        assert ref.N_STAGES == 12
        for k in range(12):
            assert dyn._A[k] == ref.A[k, :k].tolist()
        assert dyn._B == ref.B.tolist()
        assert dyn._E5 == ref.E5[:12].tolist()
        assert dyn._E3 == ref.E3[:12].tolist()
        # the 13th slope, at the new state, feeds neither estimator
        assert ref.E5[12] == ref.E3[12] == 0.0

    def test_weights_sum_to_one_and_rows_to_their_nodes(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        # exact sums of the rounded entries, each off by half an ulp at
        # most: the large rows of stages 8-11 sum to their node to 2e-15
        assert math.fsum(dyn._B) == pytest.approx(1.0, abs=1e-15)
        for k, row in enumerate(dyn._A):
            size = math.fsum(abs(a) for a in row)
            assert math.fsum(row) == pytest.approx(
                ref.C[k], abs=1e-15 * max(1.0, size))

    def test_one_steps_error_is_of_ninth_order(self):
        # one step along a Kepler arc against the closed form: the local
        # error of an 8th-order method is O(h**9), so halving h divides it
        # by about 2**9 = 512
        # (4.5e-9, 9.1e-12 and 1.8e-14 here, well above round-off)
        y0 = [1.0, 0.0, 0.0, 0.0, 1.0, 0.05]
        unit = dyn.DynamicsModel(kind=dyn.KEPLER, mu=1.0, r_e=0.5)
        errors = []
        for h in (0.5, 0.25, 0.125):
            exact = dyn.propagate_vector(y0, (0.0, 0.0, 0.0), 0.0, h, unit,
                                         dyn.PropagationConfig())
            step = dyn.integrate(y0, (0.0, 0.0, 0.0), 0.0, h, unit,
                                 dyn.PropagationConfig(steps=1))
            errors.append(max(abs(a - b) for a, b in zip(step, exact)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 2.0 ** 8.5 <= coarse / fine <= 2.0 ** 9.5


def axpy_chain_step(y, h, slope, rows=dyn._ROWS):
    """One DOP853 step as a chain of y + a f steps over whole states, and
    its stages' slopes: the sums, in their order, that the generated steps
    must keep."""
    f = {}
    for k, row in rows.items():
        yk = list(y)
        for l, b in row:
            yk = [c + (h * b) * d for c, d in zip(yk, f[l])]
        f[k] = slope(yk)
    for k, w in dyn._WSEL:
        y = [c + (h * w) * d for c, d in zip(y, f[k])]
    return y, f


class TestStepSums:
    UNIT_J2 = dyn.DynamicsModel(kind=dyn.J2, mu=1.0, r_e=0.9)
    CFG = TestTrimmedKernels.CFG
    states = TestTrimmedKernels.states

    def start(self, model, kind):
        ref = (TestTrimmedKernels.SYNODIC_STATE if model.kind == dyn.CR3BP
               else TestTrimmedKernels.LEO_ND)
        return self.states(ref)[kind]

    @pytest.mark.parametrize("kind", ["float", "complex", "batch", "poly"])
    @pytest.mark.parametrize("model", [UNIT_J2, MODEL_CR3BP],
                             ids=["j2", "cr3bp"])
    def test_step_equals_an_axpy_chain(self, model, kind):
        y0, u = self.start(model, kind), (1e-3, 0.0, -2e-3)
        out = dyn.integrate(y0, u, 0.0, 0.3, model,
                            dyn.PropagationConfig(steps=1))
        want, _ = axpy_chain_step(y0, 0.3, dyn._derivative_fn(model, u))
        assert all(same_entry(a, b) for a, b in zip(out, want))

    @pytest.mark.parametrize("kind", ["float", "complex"])
    def test_error_control_step_equals_an_axpy_chain(self, kind):
        # the controlled step takes the same state, and each estimator is
        # the largest |Re sum e_k f_k| over the entries, summed in order
        y0 = self.start(self.UNIT_J2, kind)
        slope = dyn._derivative_fn(self.UNIT_J2, (0.0, 0.0, 0.0))
        out, e5, e3 = dyn._rk_step_fn(True)(y0, -0.3, slope)
        want, f = axpy_chain_step(y0, -0.3, slope)
        assert all(same_entry(a, b) for a, b in zip(out, want))
        assert len(f) == 12
        for got, terms in ((e5, dyn._E5SEL), (e3, dyn._E3SEL)):
            sums = [0.0] * 6
            for k, e in terms:
                sums = [s + e * c for s, c in zip(sums, f[k])]
            assert got == max(abs(s.real) for s in sums) > 0.0


class TestGeneratedCode:
    def test_polynomial_propagation_compiles_its_slope_alone(self,
                                                             monkeypatch):
        # the block step is a plain function: the recorded slope is the
        # one text that a polynomial propagation generates
        texts = []
        compile_source = dapoly._compile_source

        def counted(text, names):
            texts.append(text)
            return compile_source(text, names)

        for module in (dapoly, dyn):
            monkeypatch.setattr(module, "_compile_source", counted)
        dyn._rk_step_fn.cache_clear()
        dapoly._compiled_program.cache_clear()
        y0 = poly_state(TestBlockPath.LEO, 1e-2)
        out = dyn.integrate(y0, (0.0, 0.0, 0.0), 0.0, 600.0, MODEL_J2,
                            dyn.PropagationConfig(steps=2))
        assert len(texts) == 1
        assert_same_entries(out, entrywise_propagate(
            y0, (0.0, 0.0, 0.0), 0.0, 600.0, MODEL_J2, 2))

    def test_a_profile_names_each_step(self):
        # a J2 design runs the block step, both generated entry steps and
        # a recorded slope, each under a name of its own
        doc = generate_synthetic_suite(2406, 1, "LEO",
                                       poc_band=(1.5e-6, 4e-6))[0]
        args = cli.build_parser().parse_args(["run", "case.json",
                                              "--dyn", "j2"])
        profile = cProfile.Profile()
        code, _ = profile.runcall(cli.run_scenario, doc, args)
        assert code == 0
        names = {name for _, _, name in pstats.Stats(profile).stats}
        assert {"_block_step", "dop853_step", "dop853_controlled_step",
                "recorded_program"} <= names


class TestRtnRotation:
    def test_identity_aligned_triad(self):
        rot = dyn.rtn_rotation(np.array([7000.0, 0, 0]), np.array([0, 7.5, 0]))
        np.testing.assert_allclose(rot, np.eye(3), atol=1e-15)

    def test_orthonormal(self):
        rot = dyn.rtn_rotation(np.array([6000.0, 2000, 1500]),
                               np.array([-1.0, 6.5, 2.0]))
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-14)

    def test_degenerate_geometry(self):
        with pytest.raises(FrameError):
            dyn.rtn_rotation(np.array([7000.0, 0, 0]), np.array([3.0, 0, 0]))

    @staticmethod
    def cross_product_form(r, v):
        """The rotation formed with np.cross, refusing what it refuses."""
        rn, vn = np.linalg.norm(r), np.linalg.norm(v)
        if rn == 0.0 or vn == 0.0:
            raise FrameError("zero position or velocity")
        h = np.cross(r, v)
        hn = np.linalg.norm(h)
        if hn <= 1e-12 * rn * vn:
            raise FrameError("position and velocity are parallel")
        radial, normal = r / rn, h / hn
        return np.vstack([radial, np.cross(normal, radial), normal])

    def test_equals_the_cross_product_form(self):
        rng = np.random.default_rng(559)
        for _ in range(4000):
            r = rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 5)
            v = rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 1)
            assert (dyn.rtn_rotation(r, v).tobytes()
                    == self.cross_product_form(r, v).tobytes())

    @pytest.mark.parametrize("across, refused", [
        (0.0, True), (1e-13, True), (1e-11, False)])
    @pytest.mark.parametrize("along", [3.0, -3.0])
    def test_parallel_refusal_as_the_cross_product_form(self, along, across,
                                                        refused):
        # v along r, off it by ``across`` relative: refused below 1e-12
        r = np.array([6000.0, 2000.0, 1500.0])
        side = np.cross(r, [0.0, 0.0, 1.0])
        v = along * r / np.linalg.norm(r) + across * side / np.linalg.norm(side)
        if refused:
            for rotation in (dyn.rtn_rotation, self.cross_product_form):
                with pytest.raises(FrameError, match="parallel"):
                    rotation(r, v)
        else:
            assert (dyn.rtn_rotation(r, v).tobytes()
                    == self.cross_product_form(r, v).tobytes())


class TestUnits:
    def test_earth_scale_round_trip(self, leo_event):
        # the primary of leo_event sits 7000 km from the Earth's center
        scale, nd = _to_internal_units(leo_event)
        assert scale.length_km == 7000.0
        assert nd.mu == 1.0
        # circular orbit of radius 1 in scaled units has period 2*pi
        state = dyn.SpacecraftState(r=[1.0, 0, 0], v=[0, 1.0, 0])
        assert dyn.osculating_period(state, nd) == pytest.approx(2 * math.pi)

    def test_cr3bp_characteristic_quantities(self):
        event = scenario_to_event(
            generate_synthetic_suite(seed=9, count=1, regime="CISLUNAR")[0])
        scale, nd = _to_internal_units(event)
        assert scale.length_km == 384405.0
        assert scale.time_s == 375677.0
        assert nd is event.dynamics


class TestErrorControl:
    """Steps picked by DOP853's embedded estimators, recorded in a plan's
    times."""

    LEO = [1.0, 0.0, 0.0, 0.0, 1.0, 0.05]  # internal units, mu = 1
    UNIT = dyn.DynamicsModel(kind=dyn.KEPLER, mu=1.0, r_e=0.9)  # r_e < 1: LEO
    UNIT_J2 = dyn.DynamicsModel(kind=dyn.J2, mu=1.0, r_e=0.9)

    @pytest.mark.parametrize("steps", [1, 7, 60])
    def test_fixed_count_makes_twelve_evaluations_per_step(self, monkeypatch,
                                                          steps):
        # an explicit count keeps the uniform loop: one slope per stage
        calls = []
        kernel = dyn._kernel_kepler_j2
        monkeypatch.setattr(dyn, "_kernel_kepler_j2",
                            lambda *args: calls.append(1) or kernel(*args))
        dyn.integrate(self.LEO, (0.0, 0.0, 0.0), 0.0, 3.0, self.UNIT,
                      dyn.PropagationConfig(steps=steps))
        assert len(calls) == 12 * steps

    @pytest.mark.parametrize("step", [dyn.integrate, dyn.propagate_vector],
                             ids=["integrate", "propagate_vector"])
    @pytest.mark.parametrize("steps", [None, 10], ids=["controlled", "counted"])
    @pytest.mark.parametrize("t0, t1", [
        (0.0, math.nan), (0.0, math.inf), (0.0, -math.inf), (math.nan, 1.0)],
        ids=["nan", "inf", "-inf", "nan-start"])
    def test_non_finite_time_is_refused(self, step, steps, t0, t1):
        # error control accepts no step on a non-finite span, and no bound
        # of its loop is ever reached: it is refused first, with exit 3
        with pytest.raises(ConfigurationError, match="finite") as err:
            step(self.LEO, (0.0, 0.0, 0.0), t0, t1, self.UNIT_J2,
                 dyn.PropagationConfig(steps=steps))
        assert cli._failure(err.value)[0] == 3

    @pytest.mark.parametrize("kick", [0.0, 1e-20], ids=["real", "complex"])
    def test_replayed_mesh_gives_the_same_state(self, kick):
        # the controlled step's state is the plain step's, so a replay of
        # the accepted steps repeats the controlled pass exactly
        y0 = self.LEO[:3] + [complex(c, kick) for c in self.LEO[3:]]
        plan = dyn.PropagationConfig()
        picked = dyn.integrate(y0, (0.0, 0.0, 0.0), 0.0, -math.pi,
                               self.UNIT, plan)
        assert plan.times[0] == 0.0 and plan.times[-1] == -math.pi
        assert all(b < a for a, b in zip(plan.times, plan.times[1:]))
        replay = dyn.integrate(y0, (0.0, 0.0, 0.0), 0.0, -math.pi,
                               self.UNIT, dyn.PropagationConfig(
                                   times=plan.times))
        assert replay == picked

    def test_mesh_meets_its_tolerance_in_fewer_steps(self):
        # integrate, as propagate_vector takes this coast in closed form
        plan = dyn.PropagationConfig()
        picked = dyn.integrate(self.LEO, (0.0, 0.0, 0.0), 0.0, math.pi,
                               self.UNIT, plan)
        fine = dyn.integrate(self.LEO, (0.0, 0.0, 0.0), 0.0, math.pi,
                             self.UNIT, dyn.PropagationConfig(1600))
        assert plan.steps < 100
        error = max(abs(a - b) for a, b in zip(picked, fine))
        assert error <= plan.steps * dyn.STEP_TOL

    def test_between_splits_the_steps_that_straddle_its_ends(self):
        plan = dyn.PropagationConfig(times=[0.0, -1.0, -2.0, -3.0])
        assert plan.steps == 3
        assert plan.between(-0.5, -2.5).times == [-0.5, -1.0, -2.0, -2.5]
        assert plan.between(-2.5, -0.5).times == [-2.5, -2.0, -1.0, -0.5]
        assert plan.between(-1.0, -2.0).times == [-1.0, -2.0]
        # a count is per span: every span keeps it
        count = dyn.PropagationConfig(steps=4)
        assert count.between(-0.5, -2.5) is count
        assert count.steps == 4 and count.times == []

    @pytest.mark.parametrize("times", [[0.0, 1.0, 2.0], [5.0, 6.0, 7.0]],
                             ids=["short", "later"])
    def test_times_of_another_span_are_refused(self, times):
        # times that end elsewhere would hand back the state at their end
        # as the state at t1
        with pytest.raises(ConfigurationError, match="not from t=0.0 to"):
            dyn.integrate(self.LEO, (0.0, 0.0, 0.0), 0.0, 3.0, self.UNIT_J2,
                          dyn.PropagationConfig(times=times))

    def test_filled_plan_refuses_a_second_span(self):
        # integrate fills a plan without steps in place: on the next span
        # its times are the first span's
        plan = dyn.PropagationConfig()
        dyn.integrate(self.LEO, (0.0, 0.0, 0.0), 0.0, 3.0, self.UNIT_J2, plan)
        assert plan.times[0] == 0.0 and plan.times[-1] == 3.0
        with pytest.raises(ConfigurationError, match="not from t=3.0"):
            dyn.integrate(self.LEO, (0.0, 0.0, 0.0), 3.0, 6.0, self.UNIT_J2,
                          plan)

    @pytest.mark.parametrize("kick", [0.0, 1e-20], ids=["real", "complex"])
    def test_radial_fall_into_the_centre_raises(self, kick):
        # the steps shrink toward the collision until they pass the floor
        y0 = [1.0, 0.0, 0.0, complex(-0.2, kick), 0.0, 0.0]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(dyn.PropagationError,
                               match="step control failed") as err:
                dyn.propagate_vector(y0, (0.0, 0.0, 0.0), 0.0, 3.0,
                                     self.UNIT, dyn.PropagationConfig())
        assert 0.5 < err.value.time < 3.0

    @pytest.mark.parametrize("plan", [
        lambda: dyn.PropagationConfig(times=[]), dyn.PropagationConfig],
        ids=["empty-mesh", "no-count"])
    @pytest.mark.parametrize("state", [
        lambda y: poly_state(y, 1e-4),
        lambda y: [np.full(3, c) for c in y]], ids=["polynomial", "batched"])
    def test_polynomial_or_batched_state_needs_a_step_rule(self, plan, state):
        # a J2 coast and a Kepler thrust arc, which the closed form refuses
        for model, u in ((self.UNIT_J2, (0.0,) * 3),
                         (self.UNIT, (1e-6, 0.0, 0.0))):
            with pytest.raises(dyn.PropagationError, match="step count"):
                dyn.propagate_vector(state(self.LEO), u, 0.0, 1.0, model,
                                     plan())

    def test_polynomial_state_without_steps_exits_4(self):
        with pytest.raises(dyn.PropagationError) as err:
            dyn.propagate_vector(poly_state(self.LEO, 1e-4), (0.0,) * 3, 0.0,
                                 1.0, self.UNIT_J2, dyn.PropagationConfig())
        code, payload = cli._failure(err.value)
        assert code == cli.EXIT_NONCONVERGENCE == 4
        assert payload["error"]["class"] == "non-convergence"

    def test_refused_coast_fills_an_empty_mesh(self):
        # a coast off an ellipse picks its own steps, as integrate does, and
        # a polynomial one has none to take
        y0, zero = [1.0, 0.0, 0.0, 0.0, 1.5, 0.0], (0.0, 0.0, 0.0)
        plan = dyn.PropagationConfig()
        got = dyn.propagate_vector(y0, zero, 0.0, 3.0, self.UNIT, plan)
        assert got == dyn.integrate(y0, zero, 0.0, 3.0, self.UNIT,
                                    dyn.PropagationConfig())
        assert plan.steps > 1
        with pytest.raises(dyn.PropagationError, match="step count"):
            dyn.propagate_vector(poly_state(y0, 1e-4), zero, 0.0, 3.0,
                                 self.UNIT, dyn.PropagationConfig())

    def test_unset_count_picks_real_steps_by_error_control(self):
        # the command line's spelling of no count; the filled plan then
        # replays its steps
        plan = dyn.PropagationConfig(steps=None)
        picked = dyn.integrate(self.LEO, (0.0, 0.0, 0.0), 0.0, 3.0, self.UNIT,
                               plan)
        assert plan.count is None and plan.steps > 1
        assert picked == dyn.integrate(self.LEO, (0.0, 0.0, 0.0), 0.0, 3.0,
                                       self.UNIT, plan)


class TestKeplerCoast:
    """A two-body coast on a given plan takes one closed-form step."""

    LEO = [1.0, 0.02, 0.01, -0.03, 1.05, 0.1]  # internal units, mu = 1
    UNIT = dyn.DynamicsModel(kind=dyn.KEPLER, mu=1.0, r_e=0.9)  # r_e < 1: LEO
    ONE = dyn.PropagationConfig(steps=1)

    def period(self):
        return dyn.osculating_period(
            dyn.SpacecraftState(r=self.LEO[:3], v=self.LEO[3:]), self.UNIT)

    def states(self):
        offsets = np.linspace(-1e-3, 1e-3, 3)
        return {
            "float": list(self.LEO),
            "complex": [*self.LEO[:3], self.LEO[3] + 1e-20j, *self.LEO[4:]],
            "batch": [c + offsets * (i + 1) for i, c in enumerate(self.LEO)],
        }

    @pytest.mark.parametrize("orbits", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("kind", ["float", "complex", "batch"])
    def test_matches_a_fine_replay(self, kind, orbits):
        y0 = self.states()[kind]
        span = orbits * self.period()
        exact = dyn.propagate_vector(y0, (0.0, 0.0, 0.0), 0.0, span,
                                     self.UNIT, self.ONE)
        fine = dyn.integrate(y0, (0.0, 0.0, 0.0), 0.0, span, self.UNIT,
                             dyn.PropagationConfig(steps=3200))
        for part in (np.real, np.imag):
            want = np.array([part(c) for c in fine])
            got = np.array([part(c) for c in exact])
            size = np.max(np.abs(want)) or 1.0
            assert np.max(np.abs(got - want)) <= 1e-11 * size
        if kind == "complex":
            assert all(type(c) is complex for c in exact)

    def test_polynomial_step_matches_a_fine_replay(self):
        y0 = poly_state(self.LEO, 1e-2)
        span = 1.5 * self.period()
        exact = dyn.propagate_vector(y0, (0.0, 0.0, 0.0), 0.0, span,
                                     self.UNIT, self.ONE)
        fine = dyn.integrate(y0, (0.0, 0.0, 0.0), 0.0, span, self.UNIT,
                             dyn.PropagationConfig(steps=1600))
        for got, want in zip(exact, fine):
            assert got.config == want.config
            assert np.max(np.abs(got.coef - want.coef)) \
                <= 1e-9 * np.max(np.abs(want.coef))

    @pytest.mark.parametrize("order", [1, 2, 5])
    def test_complex_step_matches_the_polynomial_gradient(self, order):
        span = -1.5 * self.period()
        cfg = AlgebraConfig(6, order)
        poly = dyn.propagate_vector(
            [TaylorPoly.variable(cfg, i) + c for i, c in enumerate(self.LEO)],
            (0.0, 0.0, 0.0), 0.0, span, self.UNIT, self.ONE)
        columns = []
        for var in range(6):
            y0 = [complex(c, 1e-20 * (i == var))
                  for i, c in enumerate(self.LEO)]
            out = dyn.propagate_vector(y0, (0.0, 0.0, 0.0), 0.0, span,
                                       self.UNIT, self.ONE)
            columns.append([c.imag / 1e-20 for c in out])
            assert [c.real for c in out] == pytest.approx(
                [p.constant_part for p in poly], rel=1e-14, abs=1e-14)
        stm = np.array(columns).T
        linear = np.array([p.gradient_at_zero() for p in poly])
        assert np.max(np.abs(stm - linear)) <= 1e-12 * np.max(np.abs(linear))
        # the exact flow is symplectic: stm^T J stm = J
        j = np.block([[np.zeros((3, 3)), np.eye(3)],
                      [-np.eye(3), np.zeros((3, 3))]])
        assert np.max(np.abs(stm.T @ j @ stm - j)) <= 1e-11

    def test_coast_calls_no_kernel(self, monkeypatch):
        calls = []
        kernel = dyn._kernel_kepler_j2
        monkeypatch.setattr(dyn, "_kernel_kepler_j2",
                            lambda *args: calls.append(1) or kernel(*args))
        for plan in (dyn.PropagationConfig(steps=60),
                     dyn.PropagationConfig(times=[0.0, 1.0, 3.0])):
            dyn.propagate_vector(self.LEO, (0.0, 0.0, 0.0), 0.0, 3.0,
                                 self.UNIT, plan)
        assert calls == []
        # integrate fills an empty plan by error control, and a thrust arc
        # integrates
        dyn.integrate(self.LEO, (0.0, 0.0, 0.0), 0.0, 3.0, self.UNIT,
                      dyn.PropagationConfig())
        filled = len(calls)
        assert filled > 0
        dyn.propagate_vector(self.LEO, (1e-6, 0.0, 0.0), 0.0, 3.0, self.UNIT,
                             self.ONE)
        assert len(calls) == filled + 12

    @pytest.mark.parametrize("plan", [
        lambda: dyn.PropagationConfig(times=[]), dyn.PropagationConfig],
        ids=["empty-mesh", "no-count"])
    def test_coast_on_an_empty_plan_takes_the_closed_form(self, monkeypatch,
                                                         plan):
        calls = []
        kernel = dyn._kernel_kepler_j2
        monkeypatch.setattr(dyn, "_kernel_kepler_j2",
                            lambda *args: calls.append(1) or kernel(*args))
        plan = plan()
        got = dyn.propagate_vector(self.LEO, (0.0, 0.0, 0.0), 0.0, 3.0,
                                   self.UNIT, plan)
        assert calls == [] and plan.times == [] and plan.steps == 0
        assert got == dyn.propagate_vector(self.LEO, (0.0, 0.0, 0.0), 0.0,
                                           3.0, self.UNIT, self.ONE)

    @pytest.mark.parametrize("state", [
        [1.0, 0.0, 0.0, 0.0, 1.5, 0.0],
        [1.0, 0.0, 0.0, 0.3, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.3, 0.5, 0.0]],
        ids=["hyperbolic", "radial", "periapsis-inside-the-body"])
    def test_state_off_an_ellipse_integrates(self, state):
        plan = dyn.PropagationConfig(steps=40)
        got = dyn.propagate_vector(state, (0.0, 0.0, 0.0), 0.0, 0.5,
                                   self.UNIT, plan)
        assert got == dyn.integrate(state, (0.0, 0.0, 0.0), 0.0, 0.5,
                                    self.UNIT, plan)
