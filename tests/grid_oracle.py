"""Brute-force single-impulse optimality reference for the tests.

A spherical grid search over impulse directions, with a magnitude sweep
and bisection, finds the smallest delta-v meeting a target probability;
acceptance criterion 6 and ``test_validate.py`` compare the recursive
solver against it.
"""

import math

import numpy as np

from polycam.conjunction import ConjunctionEvent, poc_chan
from polycam.dynamics import PropagationConfig, propagate_vector
from polycam.errors import ConfigurationError
from polycam.mapbuilder import (ControlSchedule, IMPULSIVE,
                                _relative_bplane_position,
                                _to_internal_units, propagate_with_controls,
                                start_state)


class InfeasibleError(Exception):
    """The grid holds no impulse within its radius that meets the target."""

    def __init__(self, message: str, best_poc: float | None = None):
        super().__init__(message)
        self.best_poc = best_poc


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

    # the node's internal-unit reference state and control frame: the
    # design's start
    start = start_state(event, schedule, config)
    p_b = event.bplane.p_b
    ballistic = propagate_with_controls(event, schedule, None, start)
    if poc_chan(ballistic, p_b, event.hbr_km) <= target_poc:
        return np.zeros(3)

    scale, model_nd = _to_internal_units(event)
    t_node, y_node = start.epoch, start.state
    rot = start.frames[t_node]

    directions = _fibonacci_sphere(resolution)
    dirs_inertial = directions @ rot  # rows: direction in propagation frame

    t_node_nd = t_node / scale.time_s
    # the start's steps: its count, or its times run forward
    plan = start.plan.between(t_node_nd, 0.0)

    def poc_batch(magnitude_ms: float, dirs: np.ndarray) -> np.ndarray:
        dv_nd = (magnitude_ms * 1e-3 / scale.velocity_kms) * dirs
        batch = [np.full(len(dirs), y_node[k]) for k in range(6)]
        for k in range(3):
            batch[3 + k] = batch[3 + k] + dv_nd[:, k]
        out = propagate_vector(batch, (0.0, 0.0, 0.0), t_node_nd, 0.0,
                               model_nd, plan)
        xi, zeta = _relative_bplane_position(out, event, scale)
        return np.array([
            poc_chan(np.array([xi[i], zeta[i]]), p_b, event.hbr_km)
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
