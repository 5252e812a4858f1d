"""Polynomial maps of log collision probability versus control perturbations.

Each design starts once: the maneuverable spacecraft is back-propagated
from closest approach to the first control opportunity. The polynomial
pass and every real replay start from the back-propagated state and,
unless a step count is set, step on the times that the back-propagation's
error control picked for the design's log probability; a Kepler coast
takes one closed-form step instead, whatever the plan, in an impulsive
design's back-propagation too. Perturbation variables are attached at
each node (velocity increments for impulsive schedules, held
accelerations for low-thrust arcs), and the perturbed state is
propagated forward through the encounter. The state's algebra grows node
by node with the variables attached so far, and each segment is
integrated, or takes its closed form, in the state's own algebra. The
trajectory runs at order ``TRAJECTORY_ORDER`` at most: a truncated
product's degree-d coefficients read only its factors' up to degree d,
so the map's coefficients up to that degree are those of a full-order
pass, and over an m/s maneuver the nonlinearity that the higher degrees
carry lies in the logarithm, not in the trajectory. The relative
position at closest approach, projected onto the frozen encounter plane,
is lifted into the map's order. The logarithm of the
collision-probability series, expanded in the two encounter-plane
coordinates about the ballistic encounter point, is composed on top
(:func:`~polycam.conjunction.log_poc_chan`), which yields one truncated
polynomial of log PoC in the stacked control vector. Its constant part
is the log of the ballistic probability, so everything downstream of
this map is polynomial evaluation, and no ballistic real pass runs.
Candidate maneuver epochs are ranked without a map, by one complex-step
back-propagation from closest approach that stops at every candidate and
gives each its start, so a ranked design too back-propagates once. An
impulse's first-order log-probability gradient is the velocity part of
the adjoint of the closest-approach gradient (the primer vector), which
that pass carries because the flows are Hamiltonian. A held arc's
gradient is that adjoint integrated over the arc, by Gauss-Legendre
quadrature on further stops of the same pass.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .conjunction import ConjunctionEvent, log_poc_chan, poc_chan
from .dapoly import AlgebraConfig, TaylorPoly
from .dynamics import (CR3BP, CR3BP_CHAR_LENGTH_KM, CR3BP_CHAR_TIME_S,
                       PropagationConfig, integrate, kepler_anomaly,
                       propagate_vector, rtn_rotation)
from .errors import ConfigurationError

__all__ = [
    "IMPULSIVE", "LOW_THRUST",
    "IMPULSE_REF_MS", "ACCEL_REF_MS2",
    "ControlSchedule", "PocMap", "Start",
    "build_poc_map", "gradient_norm_per_node", "propagate_with_controls",
]

IMPULSIVE = "IMPULSIVE"
LOW_THRUST = "LOW_THRUST"

# Reference control magnitudes: one scaled unit of an impulse variable is
# 1 m/s, one scaled unit of an acceleration variable is 1e-4 m/s^2. Unit-ball
# perturbations then correspond to physically sensible maneuvers, which keeps
# high-order coefficients conditioned.
IMPULSE_REF_MS = 1.0
ACCEL_REF_MS2 = 1.0e-4

# Highest order at which a map's trajectory is threaded; a map of a higher
# order lifts the encounter point to it (see build_poc_map).
TRAJECTORY_ORDER = 3

# Imaginary step of the ranking's adjoint pass, along a unit
# internal-velocity direction. Its square vanishes against the real parts,
# so any tiny value gives the same derivative.
_COMPLEX_STEP = 1e-20

# Gauss-Legendre nodes on [-1, 1] and their weights, at which a low-thrust
# ranking samples the adjoint over each candidate arc.
_ARC_NODES, _ARC_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class ControlSchedule:
    """Ordered thrust opportunities ahead of the closest approach.

    ``node_epochs`` are seconds relative to closest approach, strictly
    increasing and all negative. Impulsive schedules place one velocity
    increment per node. Low-thrust schedules hold a constant acceleration
    across each inter-node segment; the last node of every arc is idle (it
    only marks where the arc stops), and ``arc_lengths``, integers given
    only for low thrust, partitions the nodes into consecutive thrust arcs
    (one arc by default).

    ``fixed_direction`` optionally pins every control to one unit vector
    in its local frame (RTN on the unmaneuvered reference at its epoch, or
    the synodic axes under three-body dynamics), reducing each control to
    a single magnitude variable. It is held as a tuple of floats and
    ``arc_lengths`` as a tuple of ints, so schedules compare and hash by
    value. A schedule that breaks these rules cannot be constructed.
    """

    mode: str
    node_epochs: tuple[float, ...]
    fixed_direction: tuple[float, float, float] | None = None
    arc_lengths: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "node_epochs",
                           tuple(float(t) for t in self.node_epochs))
        if self.fixed_direction is not None:
            direction = np.asarray(self.fixed_direction, dtype=np.float64)
            if direction.shape != (3,) or not abs(
                    np.linalg.norm(direction) - 1.0) <= 1e-9:
                raise ConfigurationError(
                    "the fixed direction must be a 3-component unit vector")
            object.__setattr__(self, "fixed_direction",
                               tuple(direction.tolist()))
        if self.arc_lengths is not None:
            try:
                object.__setattr__(self, "arc_lengths", tuple(
                    operator.index(n) for n in self.arc_lengths))
            except TypeError:
                raise ConfigurationError(
                    "arc lengths must be integers") from None
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
        if self.mode == IMPULSIVE and self.arc_lengths is not None:
            raise ConfigurationError(
                "arc lengths apply to low-thrust schedules only")
        if self.mode == LOW_THRUST:
            if len(self.node_epochs) < 2:
                raise ConfigurationError(
                    "low-thrust schedules need at least 2 nodes per arc")
            for n in self.arcs:
                if n < 2:
                    raise ConfigurationError("every thrust arc needs >= 2 nodes")
            if sum(self.arcs) != len(self.node_epochs):
                raise ConfigurationError("arc lengths do not partition the nodes")

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


class Start(NamedTuple):
    """Where every pass of a design begins, from its back-propagation (a
    pass of its own, or the ranking's; see :func:`_back_propagation`).

    ``epoch`` is the first control event in seconds relative to closest
    approach (a node or a fixed impulse) and ``state`` the primary's
    internal-unit state there. ``plan`` is the
    :class:`~polycam.dynamics.PropagationConfig` that the passes step on,
    split at each pass's events: the count per segment when one is set,
    else the times (internal units) that the back-propagation's error
    control picked from closest approach to ``epoch``; none once a
    segment took the closed form, so that a pass's coast takes it too or,
    refused, picks its own steps. ``frames`` holds, at each control epoch
    (a node with a control, or a fixed impulse), the rows of the control
    frame on the unmaneuvered reference, which every pass reads.
    ``fixed_impulses`` are the (epoch, delta-v m/s in the local frame)
    constants that every pass folds into the reference. A design's map
    and its real replays all step from one Start.
    """

    epoch: float
    state: tuple
    plan: PropagationConfig
    frames: Mapping[float, np.ndarray]
    fixed_impulses: tuple[tuple[float, np.ndarray], ...] = ()


@dataclass(frozen=True, eq=False)
class PocMap:
    """Truncated polynomial of the natural log of collision probability in
    scaled controls.

    ``poly`` lives in M scaled variables (3 per free-direction control, 1
    per fixed-direction control) laid out by ``schedule``; its variable
    count, order and derivatives are its own, and its constant part is
    the log of the ballistic probability. It was expanded about the
    unmaneuvered trajectory from ``start``, fixed impulses included, from
    which every real replay of the design starts too. The log's exact
    quadratic part is why low orders already track the probability over
    decades.
    """

    poly: TaylorPoly
    schedule: ControlSchedule
    start: Start

    @property
    def scaling(self) -> np.ndarray:
        """Physical size of each scaled variable (m/s or m/s^2 per unit)."""
        return np.full(self.poly.n_vars, self.schedule.unit)

    # ``poly``'s contraction matrices, built on first use
    contraction = cached_property(lambda self: self.poly.contraction())


# ---------------------------------------------------------------------------
# Shared trajectory threading.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitScale:
    """Conversion factors between physical and internal nondimensional units."""

    length_km: float
    time_s: float

    @property
    def velocity_kms(self) -> float:
        return self.length_km / self.time_s

    @property
    def accel_kms2(self) -> float:
        return self.length_km / self.time_s ** 2


def _to_internal_units(event: ConjunctionEvent):
    """Unit scale and nondimensional model that condition state magnitudes
    (and so the DA coefficients) near unity: the three-body system's
    characteristic quantities, or else the primary's radius at closest
    approach and its circular-orbit time."""
    model = event.dynamics
    if model.kind == CR3BP:
        return UnitScale(CR3BP_CHAR_LENGTH_KM, CR3BP_CHAR_TIME_S), model
    radius = float(np.linalg.norm(event.primary.r))
    if radius <= 0:
        raise ConfigurationError("Earth scaling needs a positive reference radius")
    scale = UnitScale(radius, math.sqrt(radius ** 3 / model.mu))
    return scale, replace(model, mu=1.0, r_e=model.r_e / scale.length_km)


def _control_rotation(event: ConjunctionEvent, scale: UnitScale,
                      state) -> np.ndarray:
    """Rows of the local control frame at a real internal-unit reference
    ``state``: the synodic axes under three-body dynamics, RTN otherwise.
    A non-finite reference state is refused."""
    ref = np.asarray(state, dtype=np.float64)
    if not np.all(np.isfinite(ref)):
        raise ConfigurationError("reference state has non-finite components")
    if event.dynamics.kind == CR3BP:
        return np.eye(3)
    return rtn_rotation(ref[:3] * scale.length_km,
                        ref[3:] * scale.velocity_kms)


def _start_state(event: ConjunctionEvent, schedule: ControlSchedule,
                 config: PropagationConfig,
                 fixed_impulses: Sequence[tuple[float, np.ndarray]] = ()
                 ) -> Start:
    """The :class:`Start` at the first control event of ``schedule`` and
    ``fixed_impulses``, which it holds: a :func:`_back_propagation` that
    stops at every control epoch, real under a step count."""
    epochs = [*(schedule.node_epochs[i] for i in schedule.control_node_indices()),
              *(float(t) for t, _ in fixed_impulses)]
    start = _back_propagation(event, epochs, config, config.count is None,
                              schedule.mode == IMPULSIVE)[1][min(epochs)][0]
    return start._replace(fixed_impulses=tuple(fixed_impulses))


def _back_propagation(event: ConjunctionEvent, epochs: Sequence[float],
                      config: PropagationConfig, kicked: bool = True,
                      impulsive: bool = False, quadrature: Sequence[float] = ()
                      ) -> tuple[float, dict[float, tuple[Start, np.ndarray]]]:
    """One ballistic pass back from the closest-approach state, stopping at
    the control ``epochs`` and ``quadrature`` in decreasing time. Each
    segment between stops steps on a plan of its own: the count of
    ``config`` or, without one, the times that error control picks. A
    segment that :func:`~polycam.dynamics.kepler_anomaly` accepts takes
    one closed-form step instead and leaves its plan empty, unless a
    low-thrust design without a count needs the times for its arcs to
    step on. A later coast on an empty plan that the closed form refuses
    picks its own steps.

    A ``kicked`` pass carries the adjoint as a complex step. It starts as
    lambda_0 = (lambda_r, 0), the log-probability gradient in the
    internal-unit closest-approach position. Kepler and J2 flows are
    Hamiltonian, so Phi(0, t)^T = -J Phi(t, 0) J (Battin, *An Introduction
    to the Mathematics and Methods of Astrodynamics*, 1999):
    back-propagating the perturbation J lambda_0 = (0, -lambda_r) gives
    lambda_v(t) as the position part of the perturbation at t. Under CR3BP
    the same identity holds in the canonical (r, p = v + omega x r) and,
    as lambda_0 has no velocity part, gives the same lambda_v. The real
    part is the ballistic reference, whose state at each of ``epochs``
    sets the control frame there for every pass.

    Returns the size of lambda_r (zero where the probability underflows or
    the pass is real) and, for each stop, its :class:`Start` (the frames
    of all ``epochs`` in one shared dict, and a plan with the count or
    the times from closest approach through every segment to the stop,
    none if any segment has none, with ``weight`` = max(1, size)) and the
    internal inertial components of lambda_v(t) / size * ``_COMPLEX_STEP``.
    """
    scale, model_nd = _to_internal_units(event)
    r, v = event.primary.r / scale.length_km, event.primary.v / scale.velocity_kms
    y, size = [*r, *v], 0.0
    if kicked:
        # a primary without a control frame is refused first, as at a node,
        # not reported as a radial fall into the centre
        _control_rotation(event, scale, y)
        basis = event.bplane.basis
        dpoc = _bplane_gradient(event, event.bplane.r_b)
        lam_r = (dpoc[0] * basis[0] + dpoc[1] * basis[2]) * scale.length_km
        size = float(np.linalg.norm(lam_r))
        # the step runs along the unit direction and the size comes back
        # after, so no scale of the gradient underflows the imaginary part
        kick = -_COMPLEX_STEP * lam_r / size if size else np.zeros(3)
        y = [*(float(c) for c in r),
             *(complex(float(c), float(k)) for c, k in zip(v, kick))]
    # without a count, low-thrust arcs step on the times that coasts fill
    step = propagate_vector if impulsive or config.count else integrate
    frames, stops = {}, {}
    t_cur, passed = 0.0, [0.0]
    for t in sorted({*epochs, *quadrature}, reverse=True):
        t0, t1 = t_cur / scale.time_s, t / scale.time_s
        plan = PropagationConfig(config.count, adjoint=size / _COMPLEX_STEP)
        y = step(y, (0.0, 0.0, 0.0), t0, t1, model_nd, plan)
        t_cur = t
        # the segments before lead the times, none from the first closed
        # form on (or under a count); a real pass refilling them weighs its
        # error by the adjoint's size
        plan.times = [*passed[:-1], *plan.times] \
            if plan.times and passed else []
        plan.weight = max(1.0, size)
        passed = plan.times
        state = tuple(c.real for c in y)
        if t in epochs:
            frames[t] = _control_rotation(event, scale, state)
        stops[t] = (Start(t, state, plan, frames),
                    np.array([c.imag for c in y[:3]]))
    return size, stops


def _legs(start: Start, schedule: ControlSchedule, scale: UnitScale) -> list:
    """A pass's legs on ``start``'s plan, one per control epoch: the epoch,
    the events there, (epoch, kind, payload) for each node with its index
    and each of the start's fixed impulses with its delta-v in m/s (the
    impulse first), then the segment on to the next epoch or closest
    approach: t0, t1 in internal units and its steps."""
    events = sorted([(t, "node", i) for i, t in enumerate(schedule.node_epochs)]
                    + [(float(t), "fixed", np.asarray(dv, dtype=np.float64))
                       for t, dv in start.fixed_impulses],
                    key=lambda item: (item[0], item[1] != "fixed"))
    epochs = sorted({t for t, _, _ in events})
    legs = []
    for t0, t1 in zip(epochs, [*epochs[1:], 0.0]):
        a, b = t0 / scale.time_s, t1 / scale.time_s
        legs.append((t0, [e for e in events if e[0] == t0], a, b,
                     start.plan.between(a, b)))
    return legs


def _thread_trajectory(event: ConjunctionEvent, schedule: ControlSchedule,
                       start: Start, controls, control_unit: float,
                       steps_taken: list | None = None):
    """Propagate the primary from the first control event to closest
    approach, starting from ``start`` (see :func:`_start_state`), stepping
    on its plan and folding in its fixed impulses. One arithmetic pipeline
    serves both DA map construction and the real replay, and takes each
    control's frame from the start at its epoch (refused without one
    there). ``controls[slot]`` holds the control scalars of one slot
    (TaylorPoly variables or floats; complex scalars also pass, giving
    complex-step derivatives that check the ranking's adjoint), one scalar
    for a fixed-direction control and three otherwise; one unit of a
    scalar is ``control_unit`` physical units (m/s for impulses, m/s^2 for
    held accelerations).

    Polynomial controls may live in growing algebras: at each control node
    the state is embedded into the algebra of that slot's variables, so
    early segments run with only the variables of the nodes reached so
    far. Each segment is integrated in the state's algebra, or takes one
    closed-form step there if it is a coast with a
    :func:`~polycam.dynamics.kepler_anomaly`; the polynomials keep the
    controls' order (``TRAJECTORY_ORDER`` at most, from
    :func:`build_poc_map`). A thrust arc integrates even at a zero
    control, so every pass takes the same steps on it.
    ``steps_taken``, when given, receives each segment's steps in time
    order: 1 for a closed-form coast, else its plan's.

    Returns (xi, zeta): the relative position at closest approach on
    ``event.bplane`` in km, in the scalar type of the controls.
    """
    scale, model_nd = _to_internal_units(event)
    v_unit = scale.velocity_kms

    legs = _legs(start, schedule, scale)
    if start.epoch != legs[0][0]:
        raise ConfigurationError(
            f"start epoch {start.epoch} is not the first control event "
            f"{legs[0][0]}")
    y = list(start.state)

    slot_of_node = {}
    for slot, node_idx in enumerate(schedule.control_node_indices()):
        slot_of_node[node_idx] = slot

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
        return [comps[0] * (float(rot[0, k]) * unit_nd)
                + comps[1] * (float(rot[1, k]) * unit_nd)
                + comps[2] * (float(rot[2, k]) * unit_nd) for k in range(3)]

    # (slot, node rotation) of the acceleration held on the current segment
    held_slot = None

    def propagate_segment(y, t0: float, t1: float, plan) -> list:
        closed = held_slot is None and steps_taken is not None \
            and kepler_anomaly(y, (), t0, t1, model_nd) is not None
        if held_slot is None:
            y = propagate_vector(y, (0.0,) * 3, t0, t1, model_nd, plan)
        else:
            y = integrate(y, tuple(slot_vector(controls[held_slot[0]],
                                               held_slot[1])),
                          t0, t1, model_nd, plan)
        if steps_taken is not None:
            # read after the pass: an empty plan is filled where it integrates
            steps_taken.append(1 if closed else plan.steps)
        return y

    def frame(t: float) -> np.ndarray:
        if t not in start.frames:
            raise ConfigurationError(f"the start has no control frame at {t} s")
        return start.frames[t]

    for epoch, at_epoch, t0, t1, plan in legs:
        for _, kind, payload in at_epoch:
            if kind == "fixed":
                dv_nd = (frame(epoch).T @ (payload * 1e-3)) / v_unit
                for k in range(3):
                    y[3 + k] = y[3 + k] + dv_nd[k]
                continue
            slot = slot_of_node.get(payload)
            scalars = [] if slot is None else list(controls[slot])
            if scalars and isinstance(scalars[0], TaylorPoly):
                y = [c.embed(scalars[0].config) if isinstance(c, TaylorPoly)
                     else c for c in y]
            if schedule.mode == IMPULSIVE:
                dv = slot_vector(scalars, frame(epoch))
                for k in range(3):
                    y[3 + k] = y[3 + k] + dv[k]
            else:
                # an idle arc end carries no slot and stops the held
                # acceleration
                held_slot = None if slot is None else (slot, frame(epoch))
        y = propagate_segment(y, t0, t1, plan)
    return _relative_bplane_position(y, event, scale)


def _relative_bplane_position(y_final, event: ConjunctionEvent,
                              scale: UnitScale):
    """(xi, zeta) components in km of the relative position at closest
    approach, from the primary's final state in internal units."""
    r_rel = [y_final[k] * scale.length_km - float(event.secondary.r[k])
             for k in range(3)]
    xi_hat = event.bplane.basis[0]
    zeta_hat = event.bplane.basis[2]
    xi = r_rel[0] * float(xi_hat[0]) + r_rel[1] * float(xi_hat[1]) \
        + r_rel[2] * float(xi_hat[2])
    zeta = r_rel[0] * float(zeta_hat[0]) + r_rel[1] * float(zeta_hat[1]) \
        + r_rel[2] * float(zeta_hat[2])
    return xi, zeta


def propagate_with_controls(event: ConjunctionEvent, schedule: ControlSchedule,
                            phi_physical: np.ndarray | None, start: Start,
                            steps_taken: list | None = None):
    """Real-valued pipeline: apply physical controls, return the encounter
    point.

    ``phi_physical`` is the stacked control vector in m/s (impulsive) or
    m/s^2 (low thrust), one scalar per fixed-direction control or three per
    free control; None means ballistic. ``start`` is the design's
    :class:`Start`, as held by :attr:`PocMap.start`, whose plan the pass
    steps on and whose fixed impulses it folds in. ``steps_taken`` gets
    each segment's steps. Returns the (xi, zeta) position in km on
    ``event.bplane`` at closest approach.
    """
    if phi_physical is None:
        phi_physical = np.zeros(schedule.n_vars)
    phi_physical = np.asarray(phi_physical, dtype=np.float64)
    if phi_physical.shape != (schedule.n_vars,):
        raise ConfigurationError(
            f"control vector has shape {phi_physical.shape}, expected "
            f"({schedule.n_vars},)")
    controls = phi_physical.reshape(schedule.n_controls, -1)
    return np.array(_thread_trajectory(event, schedule, start, controls, 1.0,
                                       steps_taken))


def build_poc_map(event: ConjunctionEvent, schedule: ControlSchedule,
                  order: int, config: PropagationConfig | None = None,
                  start: Start | None = None) -> PocMap:
    """Expand log collision probability to ``order`` in the stacked controls.

    The pass begins at ``start`` (from the ranking, say, or with fixed
    impulses), which holds the plan it steps on, or else at the design's
    back-propagation on ``config`` (:func:`_start_state`), without fixed
    impulses; a ``config`` passed with a ``start`` would go unread, and is
    refused with :class:`ConfigurationError`. Perturbation
    variables of order min(``order``, ``TRAJECTORY_ORDER``) then ride
    through the propagation from the start state node to node (each
    node's variables join the state's algebra at that node). The relative
    position, projected onto the frozen encounter plane, is lifted into
    the ``order`` algebra (its coefficients above the trajectory's order
    zero), and the log of the probability series, expanded in the two
    encounter-plane coordinates about the ballistic encounter point, is
    composed on top: 2 ``order`` - 1 products in the map's algebra,
    however many terms the series takes. So the map's coefficients up to
    the trajectory's order are those of a full-order pass; the higher
    ones are the logarithm's of that truncated trajectory. The constant
    part is the log of the ballistic probability; the map carries the
    start.
    """
    if order < 1:
        raise ConfigurationError(f"expansion order must be >= 1, got {order}")
    if start is not None and config is not None:
        raise ConfigurationError(
            "a map steps on its start's plan; pass a config or a start")
    start = start or _start_state(event, schedule,
                                  config or PropagationConfig())

    # each slot's variables live in the algebra of the slots up to it
    width = schedule.n_vars // schedule.n_controls
    threaded = min(order, TRAJECTORY_ORDER)
    variables = [[TaylorPoly.variable(AlgebraConfig(width * (s + 1), threaded),
                                      width * s + k) for k in range(width)]
                 for s in range(schedule.n_controls)]

    r_b = _thread_trajectory(event, schedule, start, variables, schedule.unit)
    full = AlgebraConfig(schedule.n_vars, order)
    poly = log_poc_chan([c.embed(full) for c in r_b], event.bplane.p_b,
                        event.hbr_km)
    return PocMap(poly=poly, schedule=schedule, start=start)


def gradient_norm_per_node(event: ConjunctionEvent, candidate_times,
                           template: ControlSchedule,
                           config: PropagationConfig | None = None
                           ) -> list[tuple[float, float, Start]]:
    """Rank candidate maneuver epochs by first-order control authority.

    For a control placed at each candidate time, returns the time, the
    Euclidean norm of the log-probability gradient in scaled variables (so
    the ranking is reference-magnitude-free; the gradient of an order-1
    map, obtained without building one) and the :class:`Start` there, from
    which a map of a ranked schedule starts. Every candidate shares the
    ballistic probability, so these norms are the probability gradient's
    divided by it, and rank the epochs alike; a probability that underflows
    to zero gives zero norms. Each candidate is the template retimed to
    start at its time.

    One complex back-propagation stops at every candidate and gives its
    Start (see :func:`_back_propagation`); for impulsive candidates under
    Kepler dynamics each of its segments is one closed-form step, so their
    norms are exact to rounding. Candidates are scored by the primer
    vector of the probability that the pass carries (Lawden, *Optimal
    Trajectories for Space Navigation*, 1963): d(log PoC)/d(delta-v) at
    epoch t is the velocity part lambda_v(t) of the adjoint lambda(t) =
    Phi(0, t)^T lambda_0, lambda_0 being the log-probability gradient in
    the closest-approach state. An impulse takes lambda_v at its epoch; an
    acceleration held over an arc changes the velocity at every instant
    of it, so the pass also stops at the arc's 16 Gauss-Legendre nodes
    and the arc takes lambda_v integrated over it. Either is rotated into
    the control frame at the candidate's start.
    """
    candidate_times = [float(t) for t in candidate_times]
    if not candidate_times:
        raise ConfigurationError("candidate grid is empty")
    config = config or PropagationConfig()
    # every candidate passes the checks of the retimed template; each
    # takes lambda_v at the (epoch, weight in seconds) of its quadrature
    quadratures = []
    for t in candidate_times:
        epochs = template.retimed([t]).node_epochs
        half = 0.5 * (epochs[-1] - epochs[0])
        quadratures.append([(t, 1.0)] if template.mode == IMPULSIVE else list(
            zip((t + half * (1.0 + _ARC_NODES)).tolist(),
                (half * _ARC_WEIGHTS).tolist())))
    size, stops = _back_propagation(
        event, candidate_times, config, impulsive=template.mode == IMPULSIVE,
        quadrature=[s for q in quadratures for s, _ in q])
    scale = _to_internal_units(event)[0]
    gain = template.unit * 1e-3 / scale.velocity_kms * size / _COMPLEX_STEP
    out = []
    for t, quadrature in zip(candidate_times, quadratures):
        start = stops[t][0]
        primer = start.frames[t] @ sum(w * stops[s][1] for s, w in quadrature)
        if template.is_fixed_direction:
            primer = template.fixed_direction @ primer
        out.append((t, gain * float(np.linalg.norm(primer)), start))
    return out


def _bplane_gradient(event: ConjunctionEvent, r_b) -> np.ndarray:
    """d(log PoC)/d(xi, zeta) at the encounter-plane position ``r_b`` (km),
    from one order-1 series evaluation; zero where the probability
    underflows to zero."""
    if poc_chan(r_b, event.bplane.p_b, event.hbr_km) == 0.0:
        return np.zeros(2)
    position = AlgebraConfig(2, 1)
    r_b = (TaylorPoly.variable(position, 0) + float(r_b[0]),
           TaylorPoly.variable(position, 1) + float(r_b[1]))
    return log_poc_chan(r_b, event.bplane.p_b, event.hbr_km).gradient_at_zero()
