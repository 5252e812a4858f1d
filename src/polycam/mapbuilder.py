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
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "IMPULSIVE", "LOW_THRUST", "RTN", "SYNODIC_FRAME",
    "IMPULSE_REF_MS", "ACCEL_REF_MS2",
    "ControlSchedule", "PocMap",
    "build_poc_map", "gradient_norm_per_node",
    "propagate_with_controls",
]

IMPULSIVE = "IMPULSIVE"
LOW_THRUST = "LOW_THRUST"
RTN = "RTN"
SYNODIC_FRAME = "SYNODIC"

# Reference control magnitudes: one scaled unit of an impulse variable is
# 1 m/s, one scaled unit of an acceleration variable is 1e-4 m/s^2. Unit-ball
# perturbations then correspond to physically sensible maneuvers, which keeps
# high-order coefficients conditioned.
IMPULSE_REF_MS = 1.0
ACCEL_REF_MS2 = 1.0e-4

CHAN_TERMS = 20


@dataclass(frozen=True)
class ControlSchedule:
    """Ordered thrust opportunities ahead of the closest approach.

    ``node_epochs`` are seconds relative to closest approach, strictly
    increasing and all negative. Impulsive schedules place one velocity
    increment per node. Low-thrust schedules hold a constant acceleration
    across each inter-node segment; the last node of every arc is idle (it
    only marks where the arc stops), and ``arc_lengths`` partitions the
    nodes into consecutive thrust arcs (one arc by default).

    ``fixed_directions`` optionally pins each control to a unit vector in
    the local frame, reducing that node to a single magnitude variable.
    """

    mode: str
    node_epochs: tuple[float, ...]
    frame: str = RTN
    fixed_directions: tuple | None = None
    arc_lengths: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "node_epochs",
                           tuple(float(t) for t in self.node_epochs))
        if self.fixed_directions is not None:
            dirs = tuple(None if d is None else np.asarray(d, dtype=np.float64)
                         for d in self.fixed_directions)
            object.__setattr__(self, "fixed_directions", dirs)

    def validate(self) -> None:
        if self.mode not in (IMPULSIVE, LOW_THRUST):
            raise ConfigurationError(f"unknown schedule mode {self.mode!r}")
        if self.frame not in (RTN, SYNODIC_FRAME):
            raise ConfigurationError(f"unknown control frame {self.frame!r}")
        if not self.node_epochs:
            raise ConfigurationError("schedule has no nodes")
        if any(t >= 0.0 for t in self.node_epochs):
            raise ConfigurationError("all nodes must precede closest approach")
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
        if self.fixed_directions is not None:
            if len(self.fixed_directions) != self.n_controls:
                raise ConfigurationError(
                    "fixed_directions must carry one entry per control")
            for d in self.fixed_directions:
                if d is None:
                    raise ConfigurationError(
                        "mixed free/fixed directions are not supported")
                if abs(np.linalg.norm(d) - 1.0) > 1e-9:
                    raise ConfigurationError("fixed directions must be unit vectors")

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
        return self.fixed_directions is not None

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

    def segment_control_slots(self) -> list[int | None]:
        """For each inter-node segment (plus the final coast to closest
        approach), the control slot whose acceleration acts on it, or None."""
        n_nodes = len(self.node_epochs)
        slots: list[int | None] = [None] * n_nodes
        if self.mode == LOW_THRUST:
            slot = 0
            base = 0
            for n in self.arcs:
                for i in range(base, base + n - 1):
                    slots[i] = slot
                    slot += 1
                base += n
        return slots

    def delta_v(self, phi_physical) -> tuple[tuple[np.ndarray, ...], float]:
        """Per-control velocity increments (m/s, local frame) of the stacked
        physical controls, and the sum of their magnitudes.

        A held acceleration (m/s^2) counts as its value times the duration
        of the segment it acts on.
        """
        phi_physical = np.asarray(phi_physical, dtype=np.float64)
        if self.is_fixed_direction:
            vectors = [phi_physical[i] * self.fixed_directions[i]
                       for i in range(self.n_controls)]
        else:
            vectors = list(phi_physical.reshape(self.n_controls, 3))
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


def _control_rotation(schedule: ControlSchedule,
                      state: SpacecraftState) -> np.ndarray:
    """Rows of the local control frame at a node of the reference path."""
    if schedule.frame == SYNODIC_FRAME:
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
    (TaylorPoly variables or floats), one scalar for a fixed-direction
    control and three otherwise; one unit of a scalar is ``control_unit``
    physical units (m/s for impulses, m/s^2 for held accelerations).
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
    segment_slots = schedule.segment_control_slots()

    def constant_part(value):
        return value.constant_part if isinstance(value, TaylorPoly) else float(value)

    # One control unit in internal units. Impulses: m/s -> km/s -> internal
    # velocity; accelerations: m/s^2 -> km/s^2 -> internal acceleration.
    if schedule.mode == IMPULSIVE:
        unit_nd = control_unit * 1e-3 / v_unit
    else:
        unit_nd = control_unit * 1e-3 / scale.accel_kms2

    def slot_scalars(slot: int) -> list:
        if schedule.is_fixed_direction:
            return [controls[slot]]
        return list(controls[slot])

    def slot_vector(scalars, slot: int, rot: np.ndarray):
        """Three control components of one slot's scalars, in internal
        velocity/accel units."""
        if schedule.is_fixed_direction:
            direction = schedule.fixed_directions[slot]
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
        scalars = [] if held_slot is None else slot_scalars(held_slot[0])
        poly = next((c for c in (*y, *scalars) if isinstance(c, TaylorPoly)),
                    None)
        if poly is not None and poly.n_vars > 6 + len(scalars):
            return _composed_segment(
                y, scalars, lambda s: slot_vector(s, *held_slot), t0, t1,
                model_nd, config)
        accel = (0.0, 0.0, 0.0) if held_slot is None \
            else tuple(slot_vector(scalars, *held_slot))
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
        rot = _control_rotation(schedule, ref_state)

        if kind == "fixed":
            dv_nd = (rot.T @ (payload * 1e-3)) / v_unit
            for k in range(3):
                y[3 + k] = y[3 + k] + dv_nd[k]
            continue
        node_idx = payload
        node_states[node_idx] = ref_state
        slot = slot_of_node.get(node_idx)
        scalars = [] if slot is None else slot_scalars(slot)
        if scalars and isinstance(scalars[0], TaylorPoly):
            y = [c.embed(scalars[0].config) if isinstance(c, TaylorPoly) else c
                 for c in y]
        if schedule.mode == IMPULSIVE:
            dv = slot_vector(scalars, slot, rot)
            for k in range(3):
                y[3 + k] = y[3 + k] + dv[k]
        else:
            seg_slot = segment_slots[node_idx]
            held_slot = None if seg_slot is None else (seg_slot, rot)

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
    schedule.validate()
    r_rel, v_rel, p = combine_relative(event)
    bplane = project_bplane(r_rel, v_rel, p)

    if phi_physical is None:
        phi_physical = np.zeros(schedule.n_vars)
    phi_physical = np.asarray(phi_physical, dtype=np.float64)
    if phi_physical.shape != (schedule.n_vars,):
        raise ConfigurationError(
            f"control vector has shape {phi_physical.shape}, expected "
            f"({schedule.n_vars},)")
    controls = phi_physical if schedule.is_fixed_direction \
        else phi_physical.reshape(schedule.n_controls, 3)

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
    schedule.validate()
    event.check()

    n_vars = schedule.n_vars

    r_rel, v_rel, p = combine_relative(event)
    bplane = project_bplane(r_rel, v_rel, p)

    # each slot's variables live in the algebra of the slots up to it
    if schedule.is_fixed_direction:
        variables = [TaylorPoly.variable(AlgebraConfig(s + 1, order), s)
                     for s in range(schedule.n_controls)]
    else:
        variables = [[TaylorPoly.variable(AlgebraConfig(3 * s + 3, order),
                                          3 * s + k) for k in range(3)]
                     for s in range(schedule.n_controls)]

    ref = ACCEL_REF_MS2 if schedule.mode == LOW_THRUST else IMPULSE_REF_MS
    y, _, scale = _thread_trajectory(event, schedule, config, variables, ref,
                                     fixed_impulses)
    xi, zeta = _relative_bplane_position(y, event, bplane, scale)
    poly = poc_chan((xi, zeta), bplane.p_b, event.hbr_km, terms=CHAN_TERMS)

    r_b_ref, _, _ = propagate_with_controls(event, schedule, None, config,
                                            fixed_impulses)
    ballistic_poc = poc_chan(r_b_ref, bplane.p_b, event.hbr_km,
                             terms=CHAN_TERMS)

    return PocMap(poly=poly, ballistic_poc=ballistic_poc, schedule=schedule,
                  scaling=np.full(n_vars, ref))


def gradient_norm_per_node(event: ConjunctionEvent, candidate_times,
                           template: ControlSchedule,
                           config: PropagationConfig | None = None
                           ) -> list[tuple[float, float]]:
    """Rank candidate maneuver epochs by first-order control authority.

    A first-order map is built independently for a control placed at each
    candidate time; the Euclidean norm of its probability gradient (in
    scaled variables, so the ranking is reference-magnitude-free) is
    returned alongside the time. Low-thrust candidates are a single arc
    whose duration copies the template's first arc.
    """
    candidate_times = [float(t) for t in candidate_times]
    if not candidate_times:
        raise ConfigurationError("candidate grid is empty")
    out = []
    for t in candidate_times:
        if template.mode == IMPULSIVE:
            single = ControlSchedule(
                mode=IMPULSIVE, node_epochs=(t,), frame=template.frame,
                fixed_directions=(template.fixed_directions[:1]
                                  if template.fixed_directions else None))
        else:
            duration = template.node_epochs[1] - template.node_epochs[0]
            single = ControlSchedule(
                mode=LOW_THRUST, node_epochs=(t, t + duration),
                frame=template.frame,
                fixed_directions=(template.fixed_directions[:1]
                                  if template.fixed_directions else None))
            if t + duration >= 0.0:
                raise ConfigurationError(
                    f"candidate arc starting at {t} s reaches past closest approach")
        pmap = build_poc_map(event, single, order=1, config=config)
        out.append((t, float(np.linalg.norm(pmap.gradient()))))
    return out
