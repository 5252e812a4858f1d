"""Independent nonlinear validation of solved maneuvers.

Solutions are replayed through the real-valued propagation pipeline (no
polynomials) and the collision probability is recomputed at closest
approach, with the series value cross-checked against the quadrature
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjunction import ConjunctionEvent, poc_chan, poc_quadrature
from .dynamics import PropagationConfig
from .errors import ConfigurationError
from .mapbuilder import ControlSchedule, PocMap, propagate_with_controls

__all__ = ["ValidationReport", "validate_solution"]

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
