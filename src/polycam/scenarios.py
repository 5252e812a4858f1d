"""Scenario file schema, parsing, and synthetic conjunction generation.

A scenario file is a JSON document with states at closest approach in km
and km/s (synodic coordinates for the three-body regime), 6x6 covariances
in km-based units, the combined hard-body radius in km, and optional run
defaults. The generator builds seeded, deterministic conjunctions: a
near-circular LEO primary (or a cislunar state near the Moon), a crossing
secondary placed to hit a requested ballistic collision probability
exactly, and rotated-diagonal covariances.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .conjunction import (ConjunctionEvent, combine_relative, poc_chan,
                          poc_quadrature, project_bplane)
from .dynamics import (CR3BP, DynamicsModel, ECI, J2, KEPLER, SYNODIC,
                       SpacecraftState)
from .errors import GenerationError, ScenarioParseError, ValidationError

__all__ = [
    "SCHEMA_VERSION",
    "scenario_to_event",
    "parse_scenario",
    "scenario_to_json",
    "generate_synthetic_suite",
]

SCHEMA_VERSION = 1

_DYNAMICS_KINDS = {"kepler": KEPLER, "j2": J2, "cr3bp": CR3BP}
_KIND_NAMES = {v: k for k, v in _DYNAMICS_KINDS.items()}

# Spec'd sampling ranges for the synthetic generator.
DEFAULT_POC_BAND = (1e-5, 1e-2)
SIGMA_RANGE_KM = (0.1, 2.0)
HBR_RANGE_KM = (0.005, 0.050)


def _require(mapping: dict, key: str, kind, where: str):
    if key not in mapping:
        raise ScenarioParseError(f"missing field {key!r} in {where}")
    value = mapping[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScenarioParseError(f"field {key!r} in {where} must be a number")
        return float(value)
    if not isinstance(value, kind):
        raise ScenarioParseError(
            f"field {key!r} in {where} must be {kind.__name__}")
    return value


def _vector3(data, where: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.shape != (3,) or not np.all(np.isfinite(arr)):
        raise ScenarioParseError(f"{where} must be a finite 3-vector")
    return arr


def _matrix6(data, where: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ScenarioParseError(f"{where} must be a 6x6 matrix") from exc
    if arr.shape != (6, 6) or not np.all(np.isfinite(arr)):
        raise ScenarioParseError(f"{where} must be a finite 6x6 matrix")
    return arr


def scenario_to_event(doc: dict) -> ConjunctionEvent:
    """Parse and validate a scenario document into a conjunction event.

    Structural problems raise ScenarioParseError; violated physical
    invariants (covariance definiteness, closest-approach geometry) raise
    when the event is constructed.
    """
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    version = _require(doc, "schema_version", int, "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioParseError(
            f"unsupported schema_version {version}, expected {SCHEMA_VERSION}")
    conj = _require(doc, "conjunction", dict, "scenario")
    kind_name = _require(conj, "dynamics", str, "conjunction")
    if kind_name not in _DYNAMICS_KINDS:
        raise ScenarioParseError(
            f"unknown dynamics {kind_name!r}; expected one of "
            f"{sorted(_DYNAMICS_KINDS)}")
    kind = _DYNAMICS_KINDS[kind_name]
    model = DynamicsModel(kind=kind)
    frame = SYNODIC if kind == CR3BP else ECI

    primary = _require(conj, "primary", dict, "conjunction")
    secondary = _require(conj, "secondary", dict, "conjunction")
    state_p = SpacecraftState(
        r=_vector3(_require(primary, "r_km", list, "primary"), "primary.r_km"),
        v=_vector3(_require(primary, "v_kms", list, "primary"), "primary.v_kms"),
        epoch=0.0, frame=frame)
    state_s = SpacecraftState(
        r=_vector3(_require(secondary, "r_km", list, "secondary"), "secondary.r_km"),
        v=_vector3(_require(secondary, "v_kms", list, "secondary"), "secondary.v_kms"),
        epoch=0.0, frame=frame)
    hbr = _require(conj, "hbr_km", float, "conjunction")
    if hbr <= 0:
        raise ValidationError(f"hbr_km must be positive, got {hbr}")
    return ConjunctionEvent(
        primary=state_p,
        secondary=state_s,
        cov_primary=_matrix6(_require(conj, "cov_primary_km2", list,
                                      "conjunction"), "cov_primary_km2"),
        cov_secondary=_matrix6(_require(conj, "cov_secondary_km2", list,
                                        "conjunction"), "cov_secondary_km2"),
        hbr_km=hbr,
        dynamics=model)


def parse_scenario(doc: dict) -> tuple[ConjunctionEvent, dict]:
    """Event plus the scenario's run defaults (may be empty)."""
    event = scenario_to_event(doc)
    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ScenarioParseError("defaults must be an object")
    return event, defaults


def scenario_to_json(doc: dict) -> str:
    """Canonical serialization used for deterministic generation."""
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Synthetic suite generation.
# ---------------------------------------------------------------------------

def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def _rotate_about(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    return (v * math.cos(angle) + np.cross(axis, v) * math.sin(angle)
            + axis * float(axis @ v) * (1.0 - math.cos(angle)))


def _sampled_covariance(rng: np.random.Generator) -> np.ndarray:
    rot = _random_rotation(rng)
    sigmas = rng.uniform(*SIGMA_RANGE_KM, size=3)
    cov = np.zeros((6, 6))
    cov[:3, :3] = rot @ np.diag(sigmas ** 2) @ rot.T
    cov[3:, 3:] = np.diag(rng.uniform(1e-5, 1e-4, size=3) ** 2)
    return cov


def _ballistic_poc(event: ConjunctionEvent) -> float:
    r_rel, v_rel, p = combine_relative(event)
    bplane = project_bplane(r_rel, v_rel, p)
    return poc_chan(bplane.r_b, bplane.p_b, event.hbr_km)


def _place_secondary(r_p, v_p, v_s, cov_p, cov_s, hbr, model, frame,
                     miss_dir, target_poc):
    """Secondary position on the closest-approach sphere hitting target_poc."""

    def event_at(miss: float) -> ConjunctionEvent:
        return ConjunctionEvent(
            primary=SpacecraftState(r=r_p, v=v_p, epoch=0.0, frame=frame),
            secondary=SpacecraftState(r=r_p - miss * miss_dir, v=v_s,
                                      epoch=0.0, frame=frame),
            cov_primary=cov_p, cov_secondary=cov_s, hbr_km=hbr,
            dynamics=model)

    peak = _ballistic_poc(event_at(0.0))
    if peak <= target_poc:
        raise GenerationError("geometry cannot reach the requested probability")
    miss = brentq(lambda m: _ballistic_poc(event_at(m)) - target_poc,
                  0.0, 60.0, xtol=1e-12, maxiter=200)
    return event_at(miss)


def _leo_scenario(rng: np.random.Generator, poc_band) -> ConjunctionEvent:
    model = DynamicsModel(kind=KEPLER)
    radius = rng.uniform(6778.0, 7578.0)
    basis = _random_rotation(rng)
    r_hat, t_hat = basis[:, 0], basis[:, 1]
    r_p = radius * r_hat
    v_p = math.sqrt(model.mu / radius) * t_hat

    crossing = rng.uniform(math.radians(25.0), math.radians(155.0))
    if rng.uniform() < 0.5:
        crossing = -crossing
    v_s = _rotate_about(v_p, r_hat, crossing)
    v_rel = v_p - v_s

    cov_p = _sampled_covariance(rng)
    cov_s = _sampled_covariance(rng)
    hbr = rng.uniform(*HBR_RANGE_KM)
    target = math.exp(rng.uniform(math.log(poc_band[0]), math.log(poc_band[1])))

    e1 = np.cross(v_rel, r_hat)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(v_rel / np.linalg.norm(v_rel), e1)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    miss_dir = math.cos(psi) * e1 + math.sin(psi) * e2

    return _place_secondary(r_p, v_p, v_s, cov_p, cov_s, hbr, model, ECI,
                            miss_dir, target)


def _cislunar_scenario(rng: np.random.Generator, poc_band) -> ConjunctionEvent:
    model = DynamicsModel(kind=CR3BP)
    d_km = model.char_length_km
    v_char = model.char_length_km / model.char_time_s

    offset_dir = _random_rotation(rng)[:, 0]
    r_nd = np.array([1.0 - model.mass_ratio, 0.0, 0.0]) \
        + rng.uniform(0.03, 0.10) * offset_dir
    speed_nd = rng.uniform(0.15, 0.45)
    v_dir = _random_rotation(rng)[:, 0]
    v_nd = speed_nd * v_dir

    r_p = r_nd * d_km
    v_p = v_nd * v_char

    dv_dir = _random_rotation(rng)[:, 0]
    v_s = v_p - rng.uniform(0.25, 0.70) * v_char * dv_dir
    v_rel = v_p - v_s

    cov_p = _sampled_covariance(rng)
    cov_s = _sampled_covariance(rng)
    hbr = rng.uniform(*HBR_RANGE_KM)
    target = math.exp(rng.uniform(math.log(poc_band[0]), math.log(poc_band[1])))

    seed = np.array([0.0, 0.0, 1.0])
    if abs(float(seed @ (v_rel / np.linalg.norm(v_rel)))) > 0.9:
        seed = np.array([1.0, 0.0, 0.0])
    e1 = np.cross(v_rel, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(v_rel / np.linalg.norm(v_rel), e1)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    miss_dir = math.cos(psi) * e1 + math.sin(psi) * e2

    return _place_secondary(r_p, v_p, v_s, cov_p, cov_s, hbr, model, SYNODIC,
                            miss_dir, target)


def _event_to_doc(event: ConjunctionEvent, name: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "conjunction": {
            "dynamics": _KIND_NAMES[event.dynamics.kind],
            "frame": event.primary.frame,
            "primary": {"r_km": [float(x) for x in event.primary.r],
                        "v_kms": [float(x) for x in event.primary.v]},
            "secondary": {"r_km": [float(x) for x in event.secondary.r],
                          "v_kms": [float(x) for x in event.secondary.v]},
            "cov_primary_km2": [[float(x) for x in row]
                                for row in event.cov_primary],
            "cov_secondary_km2": [[float(x) for x in row]
                                  for row in event.cov_secondary],
            "hbr_km": float(event.hbr_km),
        },
        "defaults": {
            "target_poc": 1e-6,
            "order": 5,
            "mode": "impulse",
            "nodes": ["0.5orb"] if event.dynamics.kind != CR3BP else [7200.0],
            "etol": 1e-10,
            "max_iter": 200,
        },
    }


def generate_synthetic_suite(seed: int, count: int, regime: str = "LEO",
                             poc_band: Sequence[float] = DEFAULT_POC_BAND,
                             max_attempts: int = 200) -> list[dict]:
    """Deterministic pseudo-random conjunction scenarios.

    Same seed, same output, byte for byte. Each scenario's ballistic
    collision probability is placed inside ``poc_band`` (checked against
    the quadrature oracle); draws whose geometry cannot reach the band are
    rejected and redrawn, and exhausting ``max_attempts`` raises.
    """
    if count < 1:
        raise GenerationError(f"count must be >= 1, got {count}")
    regime = regime.upper()
    if regime not in ("LEO", "CISLUNAR"):
        raise GenerationError(f"unknown regime {regime!r}")
    lo, hi = float(poc_band[0]), float(poc_band[1])
    if not 0.0 < lo < hi < 1.0:
        raise GenerationError(f"bad probability band ({lo}, {hi})")

    rng = np.random.default_rng(seed)
    maker = _leo_scenario if regime == "LEO" else _cislunar_scenario
    out: list[dict] = []
    for index in range(count):
        for _ in range(max_attempts):
            try:
                event = maker(rng, (lo, hi))
            except GenerationError:
                continue
            oracle = poc_quadrature(
                *_bplane_tuple(event), event.hbr_km)
            if lo * (1.0 - 1e-6) <= oracle <= hi * (1.0 + 1e-6):
                break
        else:
            raise GenerationError(
                f"rejection sampling exhausted after {max_attempts} attempts "
                f"for scenario {index}")
        out.append(_event_to_doc(
            event, f"{regime.lower()}-{seed:04d}-{index:03d}"))
    return out


def _bplane_tuple(event: ConjunctionEvent):
    r_rel, v_rel, p = combine_relative(event)
    bplane = project_bplane(r_rel, v_rel, p)
    return bplane.r_b, bplane.p_b
