import math

import numpy as np
import pytest

from polycam import dynamics as dyn
from polycam.conjunction import ConjunctionEvent, poc_chan
from scipy.optimize import brentq


def make_leo_event(ballistic_poc=3e-6, crossing_deg=60.0, radius_km=7000.0,
                   sigma_primary=(0.05, 0.08, 0.06),
                   sigma_secondary=(0.4, 0.9, 0.5), hbr_km=0.02,
                   kind=dyn.KEPLER):
    """Deterministic LEO conjunction with the requested ballistic PoC.

    Primary on a circular orbit, secondary crossing at the same radius,
    miss vector perpendicular to the relative velocity sized by root
    finding on the PoC series.
    """
    model = dyn.DynamicsModel(kind=kind)
    vc = math.sqrt(model.mu / radius_km)
    r_p = np.array([radius_km, 0.0, 0.0])
    v_p = np.array([0.0, vc, 0.0])
    chi = math.radians(crossing_deg)
    v_s = np.array([0.0, vc * math.cos(chi), vc * math.sin(chi)])
    v_rel = v_p - v_s
    miss_dir = np.cross(v_rel, r_p)
    miss_dir /= np.linalg.norm(miss_dir)

    cov_p = np.zeros((6, 6))
    cov_s = np.zeros((6, 6))
    cov_p[:3, :3] = np.diag(np.asarray(sigma_primary) ** 2)
    cov_s[:3, :3] = np.diag(np.asarray(sigma_secondary) ** 2)
    cov_p[3:, 3:] = np.eye(3) * 1e-8
    cov_s[3:, 3:] = np.eye(3) * 1e-8

    def event_at(miss):
        return ConjunctionEvent(
            primary=dyn.SpacecraftState(r=r_p, v=v_p),
            secondary=dyn.SpacecraftState(r=r_p - miss * miss_dir, v=v_s),
            cov_primary=cov_p, cov_secondary=cov_s, hbr_km=hbr_km,
            dynamics=model)

    def poc_at(miss):
        bp = event_at(miss).bplane
        return poc_chan(bp.r_b, bp.p_b, hbr_km)

    miss = brentq(lambda m: poc_at(m) - ballistic_poc, 0.0, 40.0, xtol=1e-12)
    return event_at(miss)


def make_tangential_event(ballistic_poc=3e-6, crossing_deg=40.0,
                          radius_km=7000.0, hbr_km=0.02):
    """Conjunction whose covariance is elongated along the secular
    (along-track) displacement direction, with the miss along the tight
    axis: the canonical geometry where firing at half orbits dominates."""
    model = dyn.DynamicsModel(kind=dyn.KEPLER)
    vc = math.sqrt(model.mu / radius_km)
    r_p = np.array([radius_km, 0.0, 0.0])
    v_p = np.array([0.0, vc, 0.0])
    chi = math.radians(crossing_deg)
    v_s = np.array([0.0, vc * math.cos(chi), vc * math.sin(chi)])
    v_rel = v_p - v_s
    eta = v_rel / np.linalg.norm(v_rel)
    along = v_p - float(v_p @ eta) * eta
    along /= np.linalg.norm(along)
    tight = np.cross(eta, along)

    rot = np.column_stack([tight, along, eta])
    cov_s = np.zeros((6, 6))
    cov_s[:3, :3] = rot @ np.diag([0.12 ** 2, 1.5 ** 2, 0.3 ** 2]) @ rot.T
    cov_s[3:, 3:] = np.eye(3) * 1e-8
    cov_p = np.zeros((6, 6))
    cov_p[:3, :3] = np.diag([0.03 ** 2, 0.04 ** 2, 0.03 ** 2])
    cov_p[3:, 3:] = np.eye(3) * 1e-8

    def event_at(miss):
        return ConjunctionEvent(
            primary=dyn.SpacecraftState(r=r_p, v=v_p),
            secondary=dyn.SpacecraftState(r=r_p - miss * tight, v=v_s),
            cov_primary=cov_p, cov_secondary=cov_s, hbr_km=hbr_km,
            dynamics=model)

    def poc_at(miss):
        bp = event_at(miss).bplane
        return poc_chan(bp.r_b, bp.p_b, hbr_km)

    miss = brentq(lambda m: poc_at(m) - ballistic_poc, 0.0, 40.0, xtol=1e-12)
    return event_at(miss)


@pytest.fixture(scope="session")
def leo_event():
    return make_leo_event()


@pytest.fixture(scope="session")
def leo_period(leo_event):
    return dyn.osculating_period(leo_event.primary, leo_event.dynamics)


@pytest.fixture(scope="session")
def tangential_event():
    return make_tangential_event()
