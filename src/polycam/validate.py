"""Independent nonlinear validation of solved maneuvers.

Solutions are replayed through the real-valued propagation pipeline (no
polynomials) and the collision probability is recomputed at closest
approach, with the series value cross-checked against the quadrature
oracle. A brute-force spherical grid search over single impulses provides
an optimality reference for acceptance testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjunction import ConjunctionEvent, poc_chan, poc_quadrature
from .dynamics import PropagationConfig, propagate_vector
from .errors import ConfigurationError, InfeasibleError
from .mapbuilder import (ControlSchedule, IMPULSIVE, PocMap,
                         _control_rotation, _relative_bplane_position,
                         _to_internal_units, propagate_with_controls)

__all__ = ["ValidationReport", "validate_solution", "grid_oracle_single_impulse"]

# Chan-vs-quadrature disagreement beyond this relative level flags the report.
_CROSS_CHECK_REL = 1e-6


@dataclass(frozen=True)
class ValidationReport:
    """Nonlinear replay of a maneuver and the numbers that grade it."""

    validated_poc: float
    ballistic_poc: float
    poc_log_error: float
    dv_total_ms: float
    per_node_dv_ms: tuple
    map_residual: float | None
    bplane_before_km: np.ndarray
    bplane_after_km: np.ndarray
    chan_quadrature_agree: bool

    def __post_init__(self):
        if not 0.0 <= self.validated_poc <= 1.0:
            raise ConfigurationError("validated probability outside [0, 1]")


def validate_solution(event: ConjunctionEvent, schedule: ControlSchedule,
                      phi_physical, target_poc: float,
                      pmap: PocMap | None = None,
                      config: PropagationConfig | None = None
                      ) -> ValidationReport:
    """Replay ``phi_physical`` through the real pipeline and grade it.

    ``phi_physical`` stacks the controls in m/s (impulsive) or m/s^2
    (low thrust); the zero vector reproduces the ballistic probability
    through the identical code path, and the report carries that
    ballistic probability too. When the map that produced the solution is
    supplied, the report carries the mismatch between its prediction and
    the validated probability.
    """
    phi_physical = np.asarray(phi_physical, dtype=np.float64)
    r_b_after, bplane, _ = propagate_with_controls(event, schedule,
                                                   phi_physical, config)
    r_b_before, _, _ = propagate_with_controls(event, schedule, None, config)

    validated = poc_chan(r_b_after, bplane.p_b, event.hbr_km)
    ballistic = poc_chan(r_b_before, bplane.p_b, event.hbr_km)
    oracle = poc_quadrature(r_b_after, bplane.p_b, event.hbr_km)
    if validated > 0.0 and oracle > 0.0:
        agree = abs(validated - oracle) / oracle <= _CROSS_CHECK_REL
    else:
        agree = validated == oracle
    log_error = (abs(math.log10(validated) - math.log10(target_poc))
                 if validated > 0.0 else math.inf)

    map_residual = None
    if pmap is not None:
        scaled = phi_physical / pmap.scaling
        map_residual = abs(pmap.poly.eval(scaled) - validated)

    per_node_dv, dv_total = schedule.delta_v(phi_physical)
    return ValidationReport(
        validated_poc=validated,
        ballistic_poc=ballistic,
        poc_log_error=log_error,
        dv_total_ms=dv_total,
        per_node_dv_ms=per_node_dv,
        map_residual=map_residual,
        bplane_before_km=r_b_before,
        bplane_after_km=r_b_after,
        chan_quadrature_agree=agree,
    )


def _fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic, nearly uniform unit vectors (rows)."""
    i = np.arange(count, dtype=np.float64)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * i + 1.0) / count
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = 2.0 * math.pi * i / golden
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])


def grid_oracle_single_impulse(event: ConjunctionEvent, node_time: float,
                               target_poc: float, radius_ms: float,
                               resolution: int = 512,
                               config: PropagationConfig | None = None,
                               magnitude_steps: int = 24) -> np.ndarray:
    """Exhaustive single-impulse search: the smallest delta-v meeting the
    target probability.

    Directions come from a ``resolution``-point spherical grid (local
    frame), magnitudes from a linear sweep up to ``radius_ms``; all
    candidates at one magnitude propagate as a single batch. The winning
    magnitude is then refined by bisection along the winning direction.
    Ties break toward the smaller magnitude, then the lexicographically
    smaller direction. Returns the delta-v vector in m/s (local frame).
    """
    config = config or PropagationConfig()
    if radius_ms <= 0.0:
        raise ConfigurationError("search radius must be positive")
    if resolution < 4:
        raise ConfigurationError("resolution must be >= 4 directions")
    if resolution * magnitude_steps > 10_000_000:
        raise ConfigurationError("candidate grid exceeds 1e7 points")

    schedule = ControlSchedule(mode=IMPULSIVE, node_epochs=(float(node_time),))
    event.check()

    r_b0, bplane, node_states = propagate_with_controls(event, schedule, None,
                                                        config)
    ballistic = poc_chan(r_b0, bplane.p_b, event.hbr_km)
    if ballistic <= target_poc:
        return np.zeros(3)

    scale, model_nd = _to_internal_units(event)
    node = node_states[0]
    rot = _control_rotation(schedule, node)

    directions = _fibonacci_sphere(resolution)
    dirs_inertial = directions @ rot  # rows: direction in propagation frame

    y_node = np.concatenate([node.r / scale.length_km,
                             node.v / scale.velocity_kms])
    t_node_nd = node.epoch / scale.time_s

    def poc_batch(magnitude_ms: float, dirs: np.ndarray) -> np.ndarray:
        dv_nd = (magnitude_ms * 1e-3 / scale.velocity_kms) * dirs
        batch = [np.full(len(dirs), y_node[k]) for k in range(6)]
        for k in range(3):
            batch[3 + k] = batch[3 + k] + dv_nd[:, k]
        out = propagate_vector(batch, (0.0, 0.0, 0.0), t_node_nd, 0.0,
                               model_nd, config)
        xi, zeta = _relative_bplane_position(out, event, bplane, scale)
        return np.array([
            poc_chan(np.array([xi[i], zeta[i]]), bplane.p_b, event.hbr_km)
            for i in range(len(dirs))])

    def first_feasible(pocs: np.ndarray) -> int | None:
        feasible = np.nonzero(pocs <= target_poc)[0]
        if not feasible.size:
            return None
        return min(feasible, key=lambda i: tuple(directions[i]))

    # coarse sweep to bracket the smallest feasible magnitude
    magnitudes = np.linspace(radius_ms / magnitude_steps, radius_ms,
                             magnitude_steps)
    lower = 0.0
    upper = None
    best_idx = None
    for m in magnitudes:
        pocs = poc_batch(float(m), dirs_inertial)
        idx = first_feasible(pocs)
        if idx is not None:
            upper = float(m)
            best_idx = idx
            break
        lower = float(m)
    if upper is None:
        raise InfeasibleError(
            f"no impulse up to {radius_ms} m/s reaches PoC {target_poc}",
            best_poc=float(pocs.min()))

    # bisect the magnitude against the whole direction set so the winner is
    # the grid direction crossing the target earliest
    for _ in range(36):
        if upper - lower <= 1e-9 * max(1.0, upper):
            break
        mid = (lower + upper) / 2.0
        pocs = poc_batch(mid, dirs_inertial)
        idx = first_feasible(pocs)
        if idx is not None:
            upper = mid
            best_idx = idx
        else:
            lower = mid

    dv_local = rot @ (upper * dirs_inertial[best_idx])
    return dv_local
