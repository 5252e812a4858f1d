"""Independent nonlinear validation of solved maneuvers.

Solutions are replayed through the real-valued propagation pipeline (no
polynomials) from the design's reference trajectory, and the collision
probability is recomputed at closest approach, with the series value
cross-checked against the quadrature oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjunction import ConjunctionEvent, poc_chan, poc_quadrature
from .errors import ConfigurationError
from .mapbuilder import (ControlSchedule, PocMap, Start,
                         propagate_with_controls, reference_trajectory)

__all__ = ["ValidationReport", "validate_solution"]

# Chan-vs-quadrature disagreement beyond this relative level flags the report.
_CROSS_CHECK_REL = 1e-6


@dataclass(frozen=True)
class ValidationReport:
    """Nonlinear replay of a maneuver and the numbers that grade it."""

    validated_poc: float
    ballistic_poc: float
    poc_log_error: float
    map_residual: float | None
    bplane_before_km: np.ndarray
    bplane_after_km: np.ndarray
    chan_quadrature_agree: bool
    segment_steps: tuple[int, ...]

    def __post_init__(self):
        if not 0.0 <= self.validated_poc <= 1.0:
            raise ConfigurationError("validated probability outside [0, 1]")


def validate_solution(event: ConjunctionEvent, schedule: ControlSchedule,
                      phi_physical, target_poc: float,
                      pmap: PocMap | None = None,
                      start: Start | None = None) -> ValidationReport:
    """Replay ``phi_physical`` through the real pipeline and grade it.

    ``phi_physical`` stacks the controls in m/s (impulsive) or m/s^2
    (low thrust). The report carries the ballistic probability and
    encounter point of the design's :class:`ReferenceTrajectory`, and the
    maneuvered replay starts from that reference's back-propagated state
    and takes its steps (``segment_steps`` counts them per segment), so
    the zero vector reproduces the ballistic figures exactly. When the
    map that produced the solution is supplied, its reference serves (no
    second ballistic pass), and the report carries the mismatch between
    the map's prediction, the exponential of its log probability, and the
    validated probability. Such a map must have been built on
    ``schedule`` itself (mode, epochs, fixed direction and arcs); any
    other map is refused. Without a map, ``start`` serves the reference as
    in :func:`build_poc_map`, and without either the reference is
    back-propagated without a step count.
    """
    phi_physical = np.asarray(phi_physical, dtype=np.float64)
    if pmap is None:
        reference = reference_trajectory(event, schedule, start=start)
    elif pmap.schedule != schedule:
        raise ConfigurationError("the map was built for another schedule")
    else:
        reference = pmap.reference
    steps = []
    r_b_after = propagate_with_controls(event, schedule, phi_physical, None,
                                        reference.fixed_impulses,
                                        reference.start, steps)

    validated = poc_chan(r_b_after, event.bplane.p_b, event.hbr_km)
    oracle = poc_quadrature(r_b_after, event.bplane.p_b, event.hbr_km)
    if validated > 0.0 and oracle > 0.0:
        agree = abs(validated - oracle) / oracle <= _CROSS_CHECK_REL
    else:
        agree = validated == oracle
    log_error = (abs(math.log10(validated) - math.log10(target_poc))
                 if validated > 0.0 else math.inf)

    map_residual = None
    if pmap is not None:
        scaled = phi_physical / pmap.scaling
        map_residual = abs(math.exp(pmap.poly.eval(scaled)) - validated)

    return ValidationReport(
        validated_poc=validated,
        ballistic_poc=reference.ballistic_poc,
        poc_log_error=log_error,
        map_residual=map_residual,
        bplane_before_km=reference.bplane_km,
        bplane_after_km=r_b_after,
        chan_quadrature_agree=agree,
        segment_steps=tuple(steps),
    )
