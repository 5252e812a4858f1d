"""Correctness checks, result digests and order statistics of the benchmark."""

from __future__ import annotations

import hashlib
import json
import math
import statistics

# Acceptance tolerance on |log10 validated PoC - log10 target|.
LOG_ERROR_TOL = 0.1
# Fields of a result that measure time rather than the answer.
TIMING_FIELDS = ("wall_time_s", "solve_wall_time_s")
# The tail percentile keeps at least this many designs beyond it.
TAIL_BEYOND = 10


def check_design(code: int, payload: dict) -> list[str]:
    """Reasons the design fails; an empty list means it passes.

    A design fails on a non-zero exit code or a status other than "ok",
    on disagreement between the probability series and the quadrature, on
    a validated probability off target by more than the acceptance
    tolerance, and on a non-finite Δv.
    """
    if code != 0:
        return [f"exit code {code}"]
    if payload.get("status") != "ok":
        return [f"status {payload.get('status')!r}"]
    try:
        validation = payload["validation"]
        agree = validation["chan_quadrature_agree"]
        log_error = float(validation["poc_log_error"])
        dvs = [float(payload["solution"]["dv_total_ms"]),
               float(validation["dv_total_ms"])]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed result: {exc!r}"]
    reasons = []
    if agree is not True:
        reasons.append("series and quadrature disagree")
    if not log_error <= LOG_ERROR_TOL:
        reasons.append(f"poc_log_error {log_error} above {LOG_ERROR_TOL}")
    if not all(math.isfinite(dv) for dv in dvs):
        reasons.append(f"non-finite dv_total_ms {dvs}")
    return reasons


def strip_timing(value):
    """Copy of a result with every timing field removed, at any depth."""
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items()
                if k not in TIMING_FIELDS}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def result_digest(payload: dict) -> str:
    """SHA-256 of the canonical result JSON without its timing fields."""
    text = json.dumps(strip_timing(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def tail_percentile(samples) -> tuple[float, float]:
    """(percentile, value): the highest order statistic that still has at
    least ``TAIL_BEYOND`` samples above it, never below the median.

    With fewer than ``2 * TAIL_BEYOND`` samples no percentile above the
    median qualifies, and the median is returned as percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    rank = n - TAIL_BEYOND  # 1-based rank; exactly TAIL_BEYOND lie beyond
    return 100.0 * rank / n, ordered[rank - 1]
