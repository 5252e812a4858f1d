"""Independent nonlinear validation of solved maneuvers.

Solutions and the zero control are replayed through the real-valued
pipeline (no polynomials) from the design's start, and the collision
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
                         propagate_with_controls)

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
                      phi_physical, target_poc: float, start: Start,
                      pmap: PocMap | None = None) -> ValidationReport:
    """Replay ``phi_physical`` through the real pipeline and grade it.

    ``phi_physical`` stacks the controls in m/s (impulsive) or m/s^2
    (low thrust). Two real replays start from the design's
    :class:`~polycam.mapbuilder.Start`, fold in its fixed impulses and
    take its steps: the zero vector's gives the report's ballistic
    probability and encounter point, and the maneuver's the validated ones
    (``segment_steps`` counts its steps per segment), so the zero vector
    reproduces the ballistic figures exactly. When the map that produced
    the solution is supplied, the report carries the mismatch between the
    map's prediction, the exponential of its log probability, and the
    validated probability. Such a map must have been built on ``schedule``
    itself (mode, epochs, fixed direction and arcs) and from ``start``
    itself; any other map is refused.
    """
    phi_physical = np.asarray(phi_physical, dtype=np.float64)
    if pmap is not None and pmap.schedule != schedule:
        raise ConfigurationError("the map was built for another schedule")
    if pmap is not None and pmap.start is not start:
        raise ConfigurationError("the map was built from another start")
    r_b_before = propagate_with_controls(event, schedule, None, start)
    ballistic = poc_chan(r_b_before, event.bplane.p_b, event.hbr_km)
    steps = []
    r_b_after = propagate_with_controls(event, schedule, phi_physical, start,
                                        steps)

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
        ballistic_poc=ballistic,
        poc_log_error=log_error,
        map_residual=map_residual,
        bplane_before_km=r_b_before,
        bplane_after_km=r_b_after,
        chan_quadrature_agree=agree,
        segment_steps=tuple(steps),
    )
