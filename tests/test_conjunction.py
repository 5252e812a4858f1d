import math

import numpy as np
import pytest

from polycam import dynamics as dyn
from polycam.conjunction import (ConjunctionEvent, combine_relative,
                                 poc_chan, poc_quadrature, project_bplane)
from polycam.dapoly import AlgebraConfig, TaylorPoly
from polycam.errors import CovarianceError, GeometryError, ValidationError


def random_pd_2x2(rng, sigma_range=(0.05, 2.0)):
    angle = rng.uniform(0, 2 * math.pi)
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    sigmas = rng.uniform(*sigma_range, size=2)
    return rot @ np.diag(sigmas ** 2) @ rot.T


class TestCombineRelative:
    def test_identical_covariances_double(self, leo_event):
        event = ConjunctionEvent(
            primary=leo_event.primary, secondary=leo_event.secondary,
            cov_primary=leo_event.cov_primary,
            cov_secondary=leo_event.cov_primary,
            hbr_km=leo_event.hbr_km, dynamics=leo_event.dynamics)
        _, _, p = combine_relative(event)
        np.testing.assert_allclose(p, 2 * leo_event.cov_primary[:3, :3])

    def test_coincident_positions(self, leo_event):
        event = ConjunctionEvent(
            primary=leo_event.primary,
            secondary=dyn.SpacecraftState(r=leo_event.primary.r,
                                          v=leo_event.secondary.v),
            cov_primary=leo_event.cov_primary,
            cov_secondary=leo_event.cov_secondary,
            hbr_km=leo_event.hbr_km, dynamics=leo_event.dynamics)
        r_rel, _, _ = combine_relative(event)
        np.testing.assert_allclose(r_rel, 0.0)

    def test_zero_secondary_covariance(self, leo_event):
        event = ConjunctionEvent(
            primary=leo_event.primary, secondary=leo_event.secondary,
            cov_primary=leo_event.cov_primary,
            cov_secondary=np.zeros((6, 6)),
            hbr_km=leo_event.hbr_km, dynamics=leo_event.dynamics)
        _, _, p = combine_relative(event)
        np.testing.assert_allclose(p, leo_event.cov_primary[:3, :3])

    def test_non_psd_rejected(self, leo_event):
        bad = np.zeros((6, 6))
        bad[0, 0] = -1.0
        with pytest.raises(CovarianceError):
            ConjunctionEvent(
                primary=leo_event.primary, secondary=leo_event.secondary,
                cov_primary=bad, cov_secondary=np.zeros((6, 6)),
                hbr_km=leo_event.hbr_km, dynamics=leo_event.dynamics)

    def test_event_check_catches_skewed_geometry(self, leo_event):
        with pytest.raises(ValidationError):
            ConjunctionEvent(
                primary=leo_event.primary,
                secondary=dyn.SpacecraftState(
                    r=leo_event.secondary.r + np.array([0.0, 50.0, 0.0]),
                    v=leo_event.secondary.v),
                cov_primary=leo_event.cov_primary,
                cov_secondary=leo_event.cov_secondary,
                hbr_km=leo_event.hbr_km, dynamics=leo_event.dynamics)


class TestProjectBplane:
    def test_norm_preserved_for_perpendicular_miss(self):
        r_rel = np.array([0.3, -0.2, 0.15])
        v_rel = np.cross(r_rel, [0.0, 0.0, 1.0]) * 9.0
        bp = project_bplane(r_rel, v_rel, np.eye(3) * 0.25)
        assert np.linalg.norm(bp.r_b) == pytest.approx(np.linalg.norm(r_rel))

    def test_isotropic_covariance_invariant(self):
        r_rel = np.array([1.0, 0.5, -0.2])
        v_rel = np.cross(r_rel, [0.3, 0.1, 1.0])
        bp = project_bplane(r_rel, v_rel, np.eye(3) * 0.49)
        np.testing.assert_allclose(bp.p_b, np.eye(2) * 0.49, atol=1e-14)

    def test_basis_completion_deterministic(self):
        v_rel = np.array([0.0, 0.0, 11.0])
        bp = project_bplane(np.array([2.5, 0.0, 0.0]), v_rel, np.eye(3))
        np.testing.assert_allclose(np.abs(bp.r_b), [2.5, 0.0], atol=1e-14)

    def test_basis_is_rotation_with_eta_along_vrel(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            r = rng.normal(size=3)
            v = np.cross(r, rng.normal(size=3))
            bp = project_bplane(r, v, np.eye(3))
            np.testing.assert_allclose(bp.basis @ bp.basis.T, np.eye(3),
                                       atol=1e-13)
            np.testing.assert_allclose(bp.basis[1], v / np.linalg.norm(v),
                                       atol=1e-13)

    def test_zero_relative_velocity(self):
        with pytest.raises(GeometryError):
            project_bplane(np.array([1.0, 0, 0]), np.zeros(3), np.eye(3))


class TestPocQuadrature:
    def test_centered_isotropic_closed_form(self):
        sigma = 0.3
        hbr = 0.05
        expected = 1.0 - math.exp(-hbr ** 2 / (2 * sigma ** 2))
        got = poc_quadrature(np.zeros(2), np.eye(2) * sigma ** 2, hbr)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_vanishing_hbr(self):
        assert poc_quadrature(np.array([1.0, 0.5]), np.eye(2), 1e-12) <= 1e-20

    def test_deep_tail_reports_zero(self):
        # past 40 sigma the probability underflows doubles
        assert poc_quadrature(np.array([45.0, 0.0]), np.eye(2), 0.01) == 0.0

    def test_non_pd_rejected(self):
        with pytest.raises(CovarianceError):
            poc_quadrature(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]),
                           0.01)


class TestPocChan:
    def test_centered_isotropic_closed_form(self):
        sigma = 0.4
        hbr = 0.03
        expected = 1.0 - math.exp(-hbr ** 2 / (2 * sigma ** 2))
        assert poc_chan(np.zeros(2), np.eye(2) * sigma ** 2, hbr) == \
            pytest.approx(expected, rel=1e-10)

    def test_matches_quadrature_oracle(self):
        # acceptance-grade agreement over random geometries
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 60:
            p_b = random_pd_2x2(rng)
            hbr = rng.uniform(0.005, 0.05)
            direction = rng.uniform(0, 2 * math.pi)
            radius = rng.uniform(0.0, 4.5) * math.sqrt(
                float(np.linalg.eigvalsh(p_b).max()))
            r_b = radius * np.array([math.cos(direction), math.sin(direction)])
            reference = poc_quadrature(r_b, p_b, hbr)
            if reference < 1e-12:
                continue
            checked += 1
            series = poc_chan(r_b, p_b, hbr)
            assert abs(series - reference) / reference <= 1e-6

    def test_polynomial_input_constant_part(self):
        p_b = np.array([[0.04, 0.01], [0.01, 0.09]])
        hbr = 0.02
        r_b = np.array([0.21, -0.35])
        cfg = AlgebraConfig(2, 4)
        rb_poly = (TaylorPoly.constant(cfg, r_b[0]) + TaylorPoly.variable(cfg, 0),
                   TaylorPoly.constant(cfg, r_b[1]) + TaylorPoly.variable(cfg, 1))
        poly = poc_chan(rb_poly, p_b, hbr)
        real = poc_chan(r_b, p_b, hbr)
        assert poly.constant_part == pytest.approx(real, rel=1e-14)

    def test_polynomial_tracks_small_shifts(self):
        p_b = np.array([[0.04, 0.01], [0.01, 0.09]])
        hbr = 0.02
        r_b = np.array([0.21, -0.35])
        cfg = AlgebraConfig(2, 5)
        rb_poly = (TaylorPoly.constant(cfg, r_b[0]) + TaylorPoly.variable(cfg, 0),
                   TaylorPoly.constant(cfg, r_b[1]) + TaylorPoly.variable(cfg, 1))
        poly = poc_chan(rb_poly, p_b, hbr)
        delta = np.array([0.02, -0.015])
        truth = poc_chan(r_b + delta, p_b, hbr)
        assert poly.eval(delta) == pytest.approx(truth, rel=1e-7)


class TestPocProperties:
    def test_monotone_in_hbr(self):
        rng = np.random.default_rng(8)
        p_b = random_pd_2x2(rng)
        r_b = np.array([0.4, 0.1])
        values = [poc_chan(r_b, p_b, h) for h in np.linspace(0.002, 0.05, 8)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(9)
        p_b = random_pd_2x2(rng)
        direction = np.array([0.6, 0.8])
        values = [poc_chan(d * direction, p_b, 0.02)
                  for d in np.linspace(0.0, 3.0, 10)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        p_b = random_pd_2x2(rng)
        r_b = np.array([0.7, -0.4])
        assert poc_chan(r_b, p_b, 0.03) == pytest.approx(
            poc_chan(-r_b, p_b, 0.03), rel=1e-14)

    def test_in_plane_basis_invariance(self):
        # co-rotating r_b and P_B about the eta axis leaves PoC unchanged
        rng = np.random.default_rng(12)
        p_b = random_pd_2x2(rng)
        r_b = np.array([0.9, 0.2])
        base_chan = poc_chan(r_b, p_b, 0.04)
        base_quad = poc_quadrature(r_b, p_b, 0.04)
        for angle in (0.3, 1.2, 2.9):
            rot = np.array([[math.cos(angle), -math.sin(angle)],
                            [math.sin(angle), math.cos(angle)]])
            r_rot = rot @ r_b
            p_rot = rot @ p_b @ rot.T
            assert poc_chan(r_rot, p_rot, 0.04) == \
                pytest.approx(base_chan, rel=1e-12)
            assert poc_quadrature(r_rot, p_rot, 0.04) == \
                pytest.approx(base_quad, rel=1e-10)

    def test_probability_bounds(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            p_b = random_pd_2x2(rng, sigma_range=(0.01, 1.0))
            r_b = rng.normal(size=2) * 0.3
            hbr = rng.uniform(0.001, 0.08)
            value = poc_chan(r_b, p_b, hbr)
            assert 0.0 <= value <= 1.0
