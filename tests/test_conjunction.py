import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from scipy.stats import ncx2

from polycam import cli, mapbuilder
from polycam import dynamics as dyn
from polycam.conjunction import (ConjunctionEvent, log_poc_chan, poc_chan,
                                 poc_quadrature, project_bplane)
from polycam.dapoly import AlgebraConfig, TaylorPoly
from polycam.errors import (CovarianceError, GeometryError, NumericError,
                            ValidationError)
from polycam.mapbuilder import IMPULSIVE, ControlSchedule, build_poc_map

from poly_reference import homogeneous, reference_log_poc_chan
from quadrature_reference import criterion_1_draws, poc_dblquad


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
        reference = project_bplane(event.primary.r - event.secondary.r,
                                   event.primary.v - event.secondary.v,
                                   2 * leo_event.cov_primary[:3, :3])
        np.testing.assert_allclose(event.bplane.p_b, reference.p_b)

    def test_coincident_positions(self, leo_event):
        event = ConjunctionEvent(
            primary=leo_event.primary,
            secondary=dyn.SpacecraftState(r=leo_event.primary.r,
                                          v=leo_event.secondary.v),
            cov_primary=leo_event.cov_primary,
            cov_secondary=leo_event.cov_secondary,
            hbr_km=leo_event.hbr_km, dynamics=leo_event.dynamics)
        np.testing.assert_allclose(event.bplane.r_b, 0.0)

    def test_zero_secondary_covariance(self, leo_event):
        event = ConjunctionEvent(
            primary=leo_event.primary, secondary=leo_event.secondary,
            cov_primary=leo_event.cov_primary,
            cov_secondary=np.zeros((6, 6)),
            hbr_km=leo_event.hbr_km, dynamics=leo_event.dynamics)
        reference = project_bplane(event.primary.r - event.secondary.r,
                                   event.primary.v - event.secondary.v,
                                   leo_event.cov_primary[:3, :3])
        np.testing.assert_allclose(event.bplane.p_b, reference.p_b)

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

    ASYMMETRIC = np.diag([1.0] * 6) + np.eye(6, k=1) * 1e-3
    INDEFINITE = np.diag([1.0] * 5 + [-1e-6])
    # within np.allclose's rtol of 1e-5 of its transpose
    NEAR_SYMMETRIC = np.eye(6) + np.eye(6, k=1) + np.eye(6, k=-1) * (1 + 5e-6)

    @pytest.mark.parametrize("cov_p,cov_s,error,message", [
        (ASYMMETRIC, np.eye(6), CovarianceError,
         "primary covariance is not symmetric"),
        (np.eye(6), INDEFINITE, CovarianceError,
         "secondary covariance is not positive semidefinite "
         "(min eigenvalue -1.000e-06)"),
        # the primary's checks come before the secondary's
        (INDEFINITE, ASYMMETRIC, CovarianceError,
         "primary covariance is not positive semidefinite"),
        (np.eye(6), np.eye(5), ValidationError,
         "secondary covariance must be 6x6"),
        (NEAR_SYMMETRIC + np.eye(6), np.eye(6), None, None),
    ], ids=["primary-asymmetric", "secondary-indefinite", "check-order",
            "secondary-shape", "within-rtol"])
    def test_covariance_checks_in_order(self, leo_event, cov_p, cov_s, error,
                                        message):
        def build():
            return ConjunctionEvent(
                primary=leo_event.primary, secondary=leo_event.secondary,
                cov_primary=cov_p, cov_secondary=cov_s,
                hbr_km=leo_event.hbr_km, dynamics=leo_event.dynamics)
        if error is None:
            build()
            return
        with pytest.raises(error) as caught:
            build()
        assert str(caught.value).startswith(message)

    def test_bplane_projects_relative_state_and_summed_covariance(
            self, leo_event):
        p = (leo_event.cov_primary + leo_event.cov_secondary)[:3, :3]
        reference = project_bplane(leo_event.primary.r - leo_event.secondary.r,
                                   leo_event.primary.v - leo_event.secondary.v,
                                   p)
        for name in ("basis", "r_b", "p_b"):
            np.testing.assert_array_equal(getattr(leo_event.bplane, name),
                                          getattr(reference, name))

    def test_mismatched_frames_rejected(self, leo_event):
        synodic = dyn.SpacecraftState(r=leo_event.secondary.r,
                                      v=leo_event.secondary.v,
                                      frame=dyn.SYNODIC)
        with pytest.raises(ValidationError, match="frame"):
            ConjunctionEvent(
                primary=leo_event.primary, secondary=synodic,
                cov_primary=leo_event.cov_primary,
                cov_secondary=leo_event.cov_secondary,
                hbr_km=leo_event.hbr_km, dynamics=leo_event.dynamics)
        with pytest.raises(ValidationError, match="frame"):
            ConjunctionEvent(
                primary=leo_event.primary, secondary=leo_event.secondary,
                cov_primary=leo_event.cov_primary,
                cov_secondary=leo_event.cov_secondary,
                hbr_km=leo_event.hbr_km,
                dynamics=dyn.DynamicsModel(kind=dyn.CR3BP))

    def test_replace_recomputes_bplane_and_rechecks_frames(self, leo_event):
        j2 = dataclasses.replace(leo_event,
                                 dynamics=dyn.DynamicsModel(kind=dyn.J2))
        assert j2.dynamics.kind == dyn.J2
        np.testing.assert_array_equal(j2.bplane.p_b, leo_event.bplane.p_b)
        wider = dataclasses.replace(leo_event,
                                    cov_secondary=2 * leo_event.cov_secondary)
        p = (leo_event.cov_primary + 2 * leo_event.cov_secondary)[:3, :3]
        reference = project_bplane(leo_event.primary.r - leo_event.secondary.r,
                                   leo_event.primary.v - leo_event.secondary.v,
                                   p)
        np.testing.assert_array_equal(wider.bplane.p_b, reference.p_b)
        with pytest.raises(ValidationError, match="frame"):
            dataclasses.replace(leo_event,
                                dynamics=dyn.DynamicsModel(kind=dyn.CR3BP))


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


def _radius_case(diag, ratio, offset):
    """A hard-body radius of ``ratio`` minor-axis sigmas, centred on the
    mean or with its edge one sigma beyond it along a principal axis."""
    p_b = np.diag(diag)
    s_minor, s_major = math.sqrt(min(diag)), math.sqrt(max(diag))
    hbr = ratio * s_minor
    # numpy orders the eigenvectors of a diagonal matrix along the axes,
    # so the major axis is the second one, even for equal variances
    r_b = np.array({"centred": (0.0, 0.0), "major": (0.0, hbr + s_major),
                    "minor": (hbr + s_minor, 0.0)}[offset])
    return [(r_b, p_b, hbr, poc_dblquad(r_b, p_b, hbr))]


def _tail_case(m):
    r_b = np.array([float(m), 0.0])
    return [(r_b, np.eye(2), 0.01, poc_dblquad(r_b, np.eye(2), 0.01))]


REFERENCE_CASES = (
    [pytest.param(criterion_1_draws, id="criterion-1-draws")]
    + [pytest.param(functools.partial(_radius_case, diag, ratio, offset),
                    id=f"diag{diag[0]:g},{diag[1]:g}-radius{ratio}-{offset}")
       for diag in ((1.0, 1.0), (1.0, 4.0))
       for ratio in (2, 4, 6, 10, 20, 50, 100)
       for offset in ("centred", "major", "minor")]
    + [pytest.param(functools.partial(_tail_case, m), id=f"tail{m}")
       for m in range(10, 38)])


class TestPocQuadrature:
    def test_centered_isotropic_closed_form(self):
        sigma = 0.3
        hbr = 0.05
        expected = 1.0 - math.exp(-hbr ** 2 / (2 * sigma ** 2))
        got = poc_quadrature(np.zeros(2), np.eye(2) * sigma ** 2, hbr)
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("hbr", [1e-6, 1e-3])
    def test_small_centred_disc_keeps_relative_accuracy(self, hbr):
        # the chords span the mean: an erfc - erfc band would cancel
        expected = -math.expm1(-hbr ** 2 / 2)
        got = poc_quadrature(np.zeros(2), np.eye(2), hbr)
        assert abs(got - expected) <= 1e-12 * expected

    def test_vanishing_hbr(self):
        assert poc_quadrature(np.array([1.0, 0.5]), np.eye(2), 1e-12) <= 1e-20

    def test_deep_tail_reports_zero(self):
        # past 40 sigma the probability underflows doubles
        assert poc_quadrature(np.array([45.0, 0.0]), np.eye(2), 0.01) == 0.0

    def test_non_pd_rejected(self):
        with pytest.raises(CovarianceError):
            poc_quadrature(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]),
                           0.01)

    @pytest.mark.parametrize("sigma2", [1.0, 4.0])
    @pytest.mark.parametrize("ratio", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_isotropic_closed_form(self, sigma2, ratio):
        # for p_b = sigma^2 I, |r|^2 / sigma^2 over the disc is noncentral
        # chi-square with 2 degrees of freedom
        sigma = math.sqrt(sigma2)
        hbr = ratio * sigma
        for distance in (0.5 * hbr, hbr + sigma, hbr + 3 * sigma,
                         hbr + 10 * sigma):
            for angle in (0.3, math.pi / 4, 2.0):
                r_b = distance * np.array([math.cos(angle), math.sin(angle)])
                expected = ncx2.cdf(hbr ** 2 / sigma2, 2, r_b @ r_b / sigma2)
                got = poc_quadrature(r_b, sigma2 * np.eye(2), hbr)
                assert abs(got - expected) <= 1e-12 * expected

    def test_wide_disc_off_axis_where_dblquad_fails(self):
        # poc_dblquad returns about 8.7e-22 here
        r_b = 0.7 * np.array([102.0, 102.0])
        expected = ncx2.cdf(100.0 ** 2, 2, r_b @ r_b)
        assert expected == pytest.approx(0.16359, abs=1e-5)
        got = poc_quadrature(r_b, np.eye(2), 100.0)
        assert abs(got - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("geometries", REFERENCE_CASES)
    def test_matches_dblquad_reference(self, geometries):
        for r_b, p_b, hbr, reference in geometries():
            got = poc_quadrature(r_b, p_b, hbr)
            assert reference > 0.0
            assert abs(got - reference) <= 1e-12 * reference


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
            reference = poc_dblquad(r_b, p_b, hbr)
            if reference < 1e-12:
                continue
            checked += 1
            series = poc_chan(r_b, p_b, hbr)
            assert abs(series - reference) / reference <= 1e-6

    def test_overflowing_series_raises_before_any_warning(self):
        # hbr**2 overflows, so every term is infinite; the recurrence
        # would subtract one from another
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match="^collision-probability series "
                                     "overflowed$"):
                poc_chan(np.array([0.5, 0.3]), np.diag([1.0, 4.0]), 1e308)

    def test_overflowing_power_raises_numeric_error(self):
        # s_x ** 4 overflows, and float ** raises where * returns inf
        with pytest.raises(NumericError,
                           match="^collision-probability series overflowed$"):
            with np.errstate(over="ignore"):
                poc_chan(np.array([0.5, 0.3]), np.eye(2) * 1e300, 0.01)

    @pytest.mark.parametrize("hbr", [4.0, 6.0, 10.0, 15.0])
    def test_wide_disc_sums_until_converged(self, hbr):
        # twenty terms were 1e-4 off at four minor-axis sigmas of radius,
        # 27% off at six, and six decades low at ten
        r_b, p_b = np.array([0.5, 0.3]), np.diag([1.0, 4.0])
        reference = poc_quadrature(r_b, p_b, hbr)
        assert abs(poc_chan(r_b, p_b, hbr) - reference) <= 1e-12 * reference

    def test_past_the_cap_real_input_takes_the_quadrature(self):
        # fifteen minor-axis sigmas of radius need more terms than the cap
        r_b, p_b, hbr = np.array([12.0, 0.0]), np.diag([1.0, 4.0]), 15.0
        assert poc_chan(r_b, p_b, hbr) == poc_quadrature(r_b, p_b, hbr)
        cfg = AlgebraConfig(2, 2)
        rb_poly = [TaylorPoly.variable(cfg, k) + r_b[k] for k in range(2)]
        with pytest.raises(NumericError, match="^collision-probability series "
                                               "did not converge in 128 terms$"
                           ) as err:
            log_poc_chan(rb_poly, p_b, hbr)
        code, payload = cli._failure(err.value)
        assert (code, payload["error"]["class"]) == (4, "non-convergence")

    @pytest.mark.parametrize("p_b, hbr", [(np.diag([1.0, 4.0]), 1e308),
                                          (np.eye(2) * 1e300, 0.01)],
                             ids=["hbr", "covariance"])
    def test_overflowing_polynomial_series_raises_numeric_error(self, p_b,
                                                                 hbr):
        # hbr**2 overflows to inf in every term, and s_x ** 4 raises:
        # polynomial positions fail as real ones do, without a warning
        cfg = AlgebraConfig(2, 2)
        rb_poly = [TaylorPoly.variable(cfg, k) + c
                   for k, c in enumerate((0.5, 0.3))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match="^collision-probability series "
                                     "overflowed$"):
                log_poc_chan(rb_poly, p_b, hbr)

    def test_polynomial_input_constant_part(self):
        p_b = np.array([[0.04, 0.01], [0.01, 0.09]])
        hbr = 0.02
        r_b = np.array([0.21, -0.35])
        cfg = AlgebraConfig(2, 4)
        rb_poly = (TaylorPoly.constant(cfg, r_b[0]) + TaylorPoly.variable(cfg, 0),
                   TaylorPoly.constant(cfg, r_b[1]) + TaylorPoly.variable(cfg, 1))
        poly = log_poc_chan(rb_poly, p_b, hbr)
        real = poc_chan(r_b, p_b, hbr)
        assert poly.constant_part == pytest.approx(math.log(real), rel=1e-14)

    def test_polynomial_tracks_small_shifts(self):
        p_b = np.array([[0.04, 0.01], [0.01, 0.09]])
        hbr = 0.02
        r_b = np.array([0.21, -0.35])
        cfg = AlgebraConfig(2, 5)
        rb_poly = (TaylorPoly.constant(cfg, r_b[0]) + TaylorPoly.variable(cfg, 0),
                   TaylorPoly.constant(cfg, r_b[1]) + TaylorPoly.variable(cfg, 1))
        poly = log_poc_chan(rb_poly, p_b, hbr)
        delta = np.array([0.02, -0.015])
        truth = poc_chan(r_b + delta, p_b, hbr)
        assert math.exp(poly.eval(delta)) == pytest.approx(truth, rel=1e-7)

    def test_log_polynomial_tracks_decades(self):
        # the Gaussian's exponent is exact in the log form, so an order-5
        # expansion follows a two-decade drop of the probability
        p_b = np.array([[0.04, 0.01], [0.01, 0.09]])
        hbr = 0.02
        r_b = np.array([0.21, -0.35])
        cfg = AlgebraConfig(2, 5)
        rb_poly = (TaylorPoly.constant(cfg, r_b[0]) + TaylorPoly.variable(cfg, 0),
                   TaylorPoly.constant(cfg, r_b[1]) + TaylorPoly.variable(cfg, 1))
        poly = log_poc_chan(rb_poly, p_b, hbr)
        delta = np.array([0.25, -0.35])
        truth = poc_chan(r_b + delta, p_b, hbr)
        assert truth < 1e-2 * poc_chan(r_b, p_b, hbr)
        assert math.exp(poly.eval(delta)) == pytest.approx(truth, rel=1e-6)


@pytest.fixture(scope="module")
def map_positions(leo_event, leo_period):
    """{variables: (r_b, p_b, hbr)} that order-5 maps of one and of three
    impulses pass to log_poc_chan."""
    captured = {}

    def recording(r_b, p_b, hbr):
        captured[r_b[0].n_vars] = (r_b, p_b, hbr)
        return log_poc_chan(r_b, p_b, hbr)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mapbuilder, "log_poc_chan", recording)
        for nodes in ((-0.5,), (-2.5, -1.5, -0.5)):
            build_poc_map(leo_event, ControlSchedule(
                mode=IMPULSIVE, node_epochs=tuple(t * leo_period
                                                  for t in nodes)), 5)
    return captured


class TestSeriesStopRule:
    @pytest.mark.parametrize("n_vars", [3, 9])
    def test_map_matches_a_sixty_term_sum_in_every_degree(self, map_positions,
                                                          n_vars):
        # the constant part settles terms before the higher degrees do
        r_b, p_b, hbr = map_positions[n_vars]
        got = log_poc_chan(r_b, p_b, hbr)
        want = reference_log_poc_chan(r_b, p_b, hbr)
        assert got.config == AlgebraConfig(n_vars, 5)
        for k in range(6):
            wanted = homogeneous(want, k).coef
            assert np.abs(homogeneous(got, k).coef - wanted).max() \
                <= 1e-15 * np.abs(wanted).max()

    def test_nine_variable_map_stops_early(self, map_positions, monkeypatch):
        # twenty terms took 125 calls; a number on the left of a scaling
        # goes through __rmul__ and is not counted
        calls = []
        mul = TaylorPoly.__mul__

        def counted(a, b):
            calls.append(None)
            return mul(a, b)

        monkeypatch.setattr(TaylorPoly, "__mul__", counted)
        log_poc_chan(*map_positions[9])
        assert len(calls) <= 60


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
