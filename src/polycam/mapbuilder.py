"""Polynomial maps of collision probability versus control perturbations.

The maneuverable spacecraft is back-propagated from closest approach to the
first control opportunity, perturbation variables are attached at each node
(velocity increments for impulsive schedules, held accelerations for
low-thrust arcs), and the perturbed state is propagated forward through the
encounter. The state's algebra grows node by node with the variables
attached so far. A segment is integrated in that algebra while it has at
most 6 + k variables (k held-acceleration scalars on the segment); beyond
that, the segment's (6 + k)-variable flow map about the reference is
integrated instead and composed onto the state, which replaces most
large-algebra products with small-algebra ones. Projecting the relative
position onto the frozen encounter plane and composing the
collision-probability series yields one truncated polynomial in the stacked
control vector. Everything downstream of this map is polynomial evaluation.
Candidate maneuver epochs are ranked without a map: complex-step
derivatives through the same real pipeline give each candidate's
first-order probability gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .conjunction import (BPlaneProjection, ConjunctionEvent, combine_relative,
                          poc_chan, project_bplane)
from .dapoly import AlgebraConfig, TaylorPoly, compose
from .dynamics import (CR3BP, DynamicsModel, PropagationConfig, SpacecraftState,
                       propagate_vector, rtn_rotation, scaled_model,
                       unit_scale)
from .errors import ConfigurationError

__all__ = [
    "IMPULSIVE", "LOW_THRUST",
    "IMPULSE_REF_MS", "ACCEL_REF_MS2",
    "ControlSchedule", "PocMap",
    "build_poc_map", "gradient_norm_per_node",
    "propagate_with_controls",
]

IMPULSIVE = "IMPULSIVE"
LOW_THRUST = "LOW_THRUST"

# Reference control magnitudes: one scaled unit of an impulse variable is
# 1 m/s, one scaled unit of an acceleration variable is 1e-4 m/s^2. Unit-ball
# perturbations then correspond to physically sensible maneuvers, which keeps
# high-order coefficients conditioned.
IMPULSE_REF_MS = 1.0
ACCEL_REF_MS2 = 1.0e-4

# Imaginary control step of the complex-step ranking, in scaled units. Its
# square vanishes against the real parts, so any tiny value gives the same
# derivative.
_COMPLEX_STEP = 1e-20


@dataclass(frozen=True)
class ControlSchedule:
    """Ordered thrust opportunities ahead of the closest approach.

    ``node_epochs`` are seconds relative to closest approach, strictly
    increasing and all negative. Impulsive schedules place one velocity
    increment per node. Low-thrust schedules hold a constant acceleration
    across each inter-node segment; the last node of every arc is idle (it
    only marks where the arc stops), and ``arc_lengths`` partitions the
    nodes into consecutive thrust arcs (one arc by default).

    ``fixed_direction`` optionally pins every control to one unit vector
    in the local frame (the RTN frame of the node's reference state, or
    the synodic axes under three-body dynamics), reducing each control to
    a single magnitude variable. A schedule that breaks these rules cannot
    be constructed.
    """

    mode: str
    node_epochs: tuple[float, ...]
    fixed_direction: np.ndarray | None = None
    arc_lengths: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "node_epochs",
                           tuple(float(t) for t in self.node_epochs))
        if self.fixed_direction is not None:
            object.__setattr__(self, "fixed_direction",
                               np.asarray(self.fixed_direction,
                                          dtype=np.float64))
        self.validate()

    def validate(self) -> None:
        if self.mode not in (IMPULSIVE, LOW_THRUST):
            raise ConfigurationError(f"unknown schedule mode {self.mode!r}")
        if not self.node_epochs:
            raise ConfigurationError("schedule has no nodes")
        # negated comparisons, so that NaN fails them
        if not all(-math.inf < t < 0.0 for t in self.node_epochs):
            raise ConfigurationError(
                "all nodes must be finite and precede closest approach")
        if any(b >= a for a, b in zip(self.node_epochs[1:], self.node_epochs)):
            raise ConfigurationError("node epochs must be strictly increasing")
        if self.mode == LOW_THRUST:
            if len(self.node_epochs) < 2:
                raise ConfigurationError(
                    "low-thrust schedules need at least 2 nodes per arc")
            for n in self.arcs:
                if n < 2:
                    raise ConfigurationError("every thrust arc needs >= 2 nodes")
            if sum(self.arcs) != len(self.node_epochs):
                raise ConfigurationError("arc lengths do not partition the nodes")
        if self.fixed_direction is not None:
            if self.fixed_direction.shape != (3,) or not abs(
                    np.linalg.norm(self.fixed_direction) - 1.0) <= 1e-9:
                raise ConfigurationError(
                    "the fixed direction must be a 3-component unit vector")

    def retimed(self, starts) -> ControlSchedule:
        """This schedule's control moved to each of ``starts``: one impulse
        per start, or one 2-node arc per start as long as the first held
        control. Mode and fixed direction carry over."""
        starts = [float(t) for t in starts]
        if self.mode == IMPULSIVE:
            return replace(self, node_epochs=starts)
        duration = self.node_epochs[1] - self.node_epochs[0]
        for t in starts:
            if not t + duration < 0.0:
                raise ConfigurationError(
                    f"arc starting at {t} s reaches past closest approach")
        return replace(self, node_epochs=[e for t in starts
                                          for e in (t, t + duration)],
                       arc_lengths=(2,) * len(starts))

    @property
    def unit(self) -> float:
        """Physical size of one scaled control variable."""
        return ACCEL_REF_MS2 if self.mode == LOW_THRUST else IMPULSE_REF_MS

    @property
    def arcs(self) -> tuple[int, ...]:
        if self.mode != LOW_THRUST:
            return (len(self.node_epochs),)
        if self.arc_lengths is None:
            return (len(self.node_epochs),)
        return self.arc_lengths

    @property
    def n_controls(self) -> int:
        """Number of control slots carrying variables."""
        if self.mode == IMPULSIVE:
            return len(self.node_epochs)
        return sum(n - 1 for n in self.arcs)

    @property
    def is_fixed_direction(self) -> bool:
        return self.fixed_direction is not None

    @property
    def n_vars(self) -> int:
        return self.n_controls if self.is_fixed_direction else 3 * self.n_controls

    def control_node_indices(self) -> list[int]:
        """Node indices that carry control variables (skips idle arc ends)."""
        if self.mode == IMPULSIVE:
            return list(range(len(self.node_epochs)))
        out = []
        base = 0
        for n in self.arcs:
            out.extend(range(base, base + n - 1))
            base += n
        return out

    def delta_v(self, phi_physical) -> tuple[tuple[np.ndarray, ...], float]:
        """Per-control velocity increments (m/s, local frame) of the stacked
        physical controls, and the sum of their magnitudes.

        A held acceleration (m/s^2) counts as its value times the duration
        of the segment it acts on.
        """
        vectors = np.asarray(phi_physical, dtype=np.float64).reshape(
            self.n_controls, -1)
        if self.is_fixed_direction:
            vectors = vectors * self.fixed_direction
        vectors = list(vectors)
        if self.mode == LOW_THRUST:
            epochs = self.node_epochs
            vectors = [v * (epochs[i + 1] - epochs[i])
                       for v, i in zip(vectors, self.control_node_indices())]
        return tuple(vectors), float(sum(np.linalg.norm(v) for v in vectors))


@dataclass(frozen=True, eq=False)
class PocMap:
    """Truncated polynomial of collision probability in scaled controls.

    ``poly`` lives in M scaled variables (3 per free-direction control, 1
    per fixed-direction control); its constant part equals
    ``ballistic_poc``, the probability of the unmaneuvered reference.
    ``scaling`` converts scaled variables to physical units (m/s per unit
    for impulses, m/s^2 per unit for accelerations).
    """

    poly: TaylorPoly
    ballistic_poc: float
    schedule: ControlSchedule
    scaling: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.poly.n_vars

    @property
    def order(self) -> int:
        return self.poly.max_order

    def gradient(self) -> np.ndarray:
        return self.poly.gradient_at_zero()


# ---------------------------------------------------------------------------
# Shared trajectory threading.
# ---------------------------------------------------------------------------

def _to_internal_units(event: ConjunctionEvent):
    """Unit scale and nondimensional model for conditioning DA coefficients."""
    model = event.dynamics
    if model.kind == CR3BP:
        scale = unit_scale(model)
    else:
        scale = unit_scale(model, float(np.linalg.norm(event.primary.r)))
    return scale, scaled_model(model, scale)


def _control_rotation(event: ConjunctionEvent,
                      state: SpacecraftState) -> np.ndarray:
    """Rows of the local control frame at a node of the reference path:
    the synodic axes under three-body dynamics, RTN otherwise."""
    if event.dynamics.kind == CR3BP:
        return np.eye(3)
    return rtn_rotation(state)


def _composed_segment(y, scalars, accel_of, t0: float, t1: float,
                      model: DynamicsModel, config: PropagationConfig) -> list:
    """Advance a polynomial state over one segment by map composition.

    The segment's flow map is expanded once in 6 + k variables: deviations
    of the state about its constant part (variables 0-5) and the k held
    control scalars (variables 6 on, mapped to accelerations by
    ``accel_of``). It is then composed onto the nilpotent parts of the
    state and of ``scalars``, in their algebra.
    """
    flow_cfg = AlgebraConfig(6 + len(scalars), y[0].max_order)
    ref = [c.constant_part for c in y]
    start = [TaylorPoly.variable(flow_cfg, i) + ref[i] for i in range(6)]
    held = [TaylorPoly.variable(flow_cfg, 6 + m) for m in range(len(scalars))]
    accel = accel_of(held) if held else (0.0, 0.0, 0.0)
    flow = propagate_vector(start, accel, t0, t1, model, config)
    return compose(flow, [c - r for c, r in zip(y, ref)] + list(scalars))


def _thread_trajectory(event: ConjunctionEvent, schedule: ControlSchedule,
                       config: PropagationConfig, controls, control_unit: float,
                       fixed_impulses: Sequence[tuple[float, np.ndarray]] = ()):
    """Propagate the primary from the first node to closest approach.

    One arithmetic pipeline serves both DA map construction and the real
    replay. ``controls[slot]`` holds the control scalars of one slot
    (TaylorPoly variables, floats, or complex scalars for complex-step
    derivatives), one scalar for a fixed-direction control and three
    otherwise; one unit of a scalar is ``control_unit`` physical units
    (m/s for impulses, m/s^2 for held accelerations).
    ``fixed_impulses`` are (epoch, delta-v m/s in the local frame)
    constants folded into the reference.

    Polynomial controls may live in growing algebras: at each control node
    the state is embedded into the algebra of that slot's variables, so
    early segments run with only the variables of the nodes reached so
    far. A segment whose algebra has more than 6 + k variables (k held
    control scalars, 0 on coasts) is not integrated in that algebra: its
    (6 + k)-variable flow map is integrated and composed onto the state.
    Real states are integrated directly.

    Returns (final 6-scalar state in internal units, node states as
    SpacecraftState in event units, scale).
    """
    scale, model_nd = _to_internal_units(event)
    v_unit = scale.velocity_kms

    timeline: list[tuple[float, str, object]] = []
    for i, t in enumerate(schedule.node_epochs):
        timeline.append((t, "node", i))
    for t, dv in fixed_impulses:
        timeline.append((float(t), "fixed", np.asarray(dv, dtype=np.float64)))
    timeline.sort(key=lambda item: (item[0], 0 if item[1] == "fixed" else 1))

    t_first = timeline[0][0]
    # The trajectory is ballistic before the first control event, so the
    # reference there comes from back-propagating the closest-approach state.
    y = [event.primary.r[0] / scale.length_km,
         event.primary.r[1] / scale.length_km,
         event.primary.r[2] / scale.length_km,
         event.primary.v[0] / v_unit,
         event.primary.v[1] / v_unit,
         event.primary.v[2] / v_unit]
    y = propagate_vector(y, (0.0, 0.0, 0.0), 0.0, t_first / scale.time_s,
                         model_nd, config)

    slot_of_node = {}
    for slot, node_idx in enumerate(schedule.control_node_indices()):
        slot_of_node[node_idx] = slot

    def constant_part(value):
        if isinstance(value, TaylorPoly):
            return value.constant_part
        return float(value.real)

    # One control unit in internal units. Impulses: m/s -> km/s -> internal
    # velocity; accelerations: m/s^2 -> km/s^2 -> internal acceleration.
    if schedule.mode == IMPULSIVE:
        unit_nd = control_unit * 1e-3 / v_unit
    else:
        unit_nd = control_unit * 1e-3 / scale.accel_kms2

    def slot_vector(scalars, rot: np.ndarray):
        """Three control components of one slot's scalars, in internal
        velocity/accel units."""
        if schedule.is_fixed_direction:
            direction = schedule.fixed_direction
            comps = [scalars[0] * float(direction[k]) for k in range(3)]
        else:
            comps = scalars
        out = []
        for k in range(3):
            acc = 0.0
            for m in range(3):
                term = comps[m] * (float(rot[m, k]) * unit_nd)
                acc = term if m == 0 else acc + term
            out.append(acc)
        return out

    # (slot, node rotation) of the acceleration held on the current segment
    held_slot = None

    def propagate_segment(y, t0: float, t1: float) -> list:
        t0, t1 = t0 / scale.time_s, t1 / scale.time_s
        scalars = [] if held_slot is None else list(controls[held_slot[0]])
        poly = next((c for c in (*y, *scalars) if isinstance(c, TaylorPoly)),
                    None)
        if poly is not None and poly.n_vars > 6 + len(scalars):
            return _composed_segment(
                y, scalars, lambda s: slot_vector(s, held_slot[1]), t0, t1,
                model_nd, config)
        accel = (0.0, 0.0, 0.0) if held_slot is None \
            else tuple(slot_vector(scalars, held_slot[1]))
        return propagate_vector(y, accel, t0, t1, model_nd, config)

    node_states: list[SpacecraftState | None] = [None] * len(schedule.node_epochs)
    t_cur = t_first
    for t_ev, kind, payload in timeline:
        if t_ev != t_cur:
            y = propagate_segment(y, t_cur, t_ev)
            t_cur = t_ev
        r_ref = np.array([constant_part(y[k]) for k in range(3)]) * scale.length_km
        v_ref = np.array([constant_part(y[k + 3]) for k in range(3)]) * v_unit
        ref_state = SpacecraftState(r=r_ref, v=v_ref, epoch=t_ev,
                                    frame=event.primary.frame)
        rot = _control_rotation(event, ref_state)

        if kind == "fixed":
            dv_nd = (rot.T @ (payload * 1e-3)) / v_unit
            for k in range(3):
                y[3 + k] = y[3 + k] + dv_nd[k]
            continue
        node_idx = payload
        node_states[node_idx] = ref_state
        slot = slot_of_node.get(node_idx)
        scalars = [] if slot is None else list(controls[slot])
        if scalars and isinstance(scalars[0], TaylorPoly):
            y = [c.embed(scalars[0].config) if isinstance(c, TaylorPoly) else c
                 for c in y]
        if schedule.mode == IMPULSIVE:
            dv = slot_vector(scalars, rot)
            for k in range(3):
                y[3 + k] = y[3 + k] + dv[k]
        else:
            # an idle arc end carries no slot and stops the held acceleration
            held_slot = None if slot is None else (slot, rot)

    y = propagate_segment(y, t_cur, 0.0)
    return y, node_states, scale


def _relative_bplane_position(y_final, event: ConjunctionEvent,
                              bplane: BPlaneProjection, scale):
    """(xi, zeta) components of the relative position at closest approach."""
    r_rel = [y_final[k] * scale.length_km - float(event.secondary.r[k])
             for k in range(3)]
    xi_hat = bplane.basis[0]
    zeta_hat = bplane.basis[2]
    xi = r_rel[0] * float(xi_hat[0]) + r_rel[1] * float(xi_hat[1]) \
        + r_rel[2] * float(xi_hat[2])
    zeta = r_rel[0] * float(zeta_hat[0]) + r_rel[1] * float(zeta_hat[1]) \
        + r_rel[2] * float(zeta_hat[2])
    return xi, zeta


def propagate_with_controls(event: ConjunctionEvent, schedule: ControlSchedule,
                            phi_physical: np.ndarray | None,
                            config: PropagationConfig | None = None,
                            fixed_impulses: Sequence[tuple[float, np.ndarray]] = ()):
    """Real-valued pipeline: apply physical controls, return encounter data.

    ``phi_physical`` is the stacked control vector in m/s (impulsive) or
    m/s^2 (low thrust), one scalar per fixed-direction control or three per
    free control; None means ballistic. Returns (r_b at closest approach,
    the frozen projection, node states).
    """
    config = config or PropagationConfig()
    r_rel, v_rel, p = combine_relative(event)
    bplane = project_bplane(r_rel, v_rel, p)

    if phi_physical is None:
        phi_physical = np.zeros(schedule.n_vars)
    phi_physical = np.asarray(phi_physical, dtype=np.float64)
    if phi_physical.shape != (schedule.n_vars,):
        raise ConfigurationError(
            f"control vector has shape {phi_physical.shape}, expected "
            f"({schedule.n_vars},)")
    controls = phi_physical.reshape(schedule.n_controls, -1)

    y, node_states, scale = _thread_trajectory(
        event, schedule, config, controls, 1.0, fixed_impulses)
    xi, zeta = _relative_bplane_position(y, event, bplane, scale)
    return np.array([xi, zeta]), bplane, node_states


def build_poc_map(event: ConjunctionEvent, schedule: ControlSchedule,
                  order: int, config: PropagationConfig | None = None,
                  fixed_impulses: Sequence[tuple[float, np.ndarray]] = ()
                  ) -> PocMap:
    """Expand collision probability to ``order`` in the stacked controls.

    Perturbation variables ride through the propagation node to node (each
    node's variables join the state's algebra at that node), the relative
    position is projected onto the frozen encounter plane, and the
    probability series is composed on top. The constant part reproduces the
    ballistic probability of the same (real-arithmetic) pipeline.
    """
    if order < 1:
        raise ConfigurationError(f"expansion order must be >= 1, got {order}")
    config = config or PropagationConfig()
    r_rel, v_rel, p = combine_relative(event)
    bplane = project_bplane(r_rel, v_rel, p)

    # each slot's variables live in the algebra of the slots up to it
    width = schedule.n_vars // schedule.n_controls
    variables = [[TaylorPoly.variable(AlgebraConfig(width * (s + 1), order),
                                      width * s + k) for k in range(width)]
                 for s in range(schedule.n_controls)]

    y, _, scale = _thread_trajectory(event, schedule, config, variables,
                                     schedule.unit, fixed_impulses)
    xi, zeta = _relative_bplane_position(y, event, bplane, scale)
    poly = poc_chan((xi, zeta), bplane.p_b, event.hbr_km)

    r_b_ref, _, _ = propagate_with_controls(event, schedule, None, config,
                                            fixed_impulses)
    ballistic_poc = poc_chan(r_b_ref, bplane.p_b, event.hbr_km)

    return PocMap(poly=poly, ballistic_poc=ballistic_poc, schedule=schedule,
                  scaling=np.full(schedule.n_vars, schedule.unit))


def gradient_norm_per_node(event: ConjunctionEvent, candidate_times,
                           template: ControlSchedule,
                           config: PropagationConfig | None = None
                           ) -> list[tuple[float, float]]:
    """Rank candidate maneuver epochs by first-order control authority.

    For a control placed at each candidate time, returns the time and the
    Euclidean norm of the probability gradient in scaled variables (so the
    ranking is reference-magnitude-free): the gradient of an order-1 map,
    obtained without building one. The Jacobian J of the encounter-plane
    position (xi, zeta) in the candidate's control variables comes from the
    complex-step derivative (Squire & Trapp, "Using complex variables to
    estimate derivatives of real functions", SIAM Review 40, 1998): the
    real pipeline runs once per variable with that variable set to
    ``1j * h`` and the others to zero, and ``Im(xi, zeta) / h`` is one
    column, exact to rounding because nothing is subtracted. The norm is
    that of dPoC/d(xi, zeta) · J, the first factor from one order-1 series
    evaluation at the real part of (xi, zeta). Each candidate is the
    template retimed to start at its time.
    """
    candidate_times = [float(t) for t in candidate_times]
    if not candidate_times:
        raise ConfigurationError("candidate grid is empty")
    config = config or PropagationConfig()
    r_rel, v_rel, p = combine_relative(event)
    bplane = project_bplane(r_rel, v_rel, p)
    position = AlgebraConfig(2, 1)
    out = []
    for t in candidate_times:
        single = template.retimed([t])
        columns = []
        for j in range(single.n_vars):
            scalars = [1j * _COMPLEX_STEP if k == j else 0.0
                       for k in range(single.n_vars)]
            y, _, scale = _thread_trajectory(event, single, config, [scalars],
                                             single.unit)
            xi, zeta = _relative_bplane_position(y, event, bplane, scale)
            columns.append((xi.imag / _COMPLEX_STEP, zeta.imag / _COMPLEX_STEP))
        # every leg shares the real part: the ballistic encounter position
        r_b = (TaylorPoly.variable(position, 0) + float(xi.real),
               TaylorPoly.variable(position, 1) + float(zeta.real))
        dpoc = poc_chan(r_b, bplane.p_b, event.hbr_km).gradient_at_zero()
        out.append((t, float(np.linalg.norm(dpoc @ np.array(columns).T))))
    return out

