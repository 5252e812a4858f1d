"""Short-term conjunction geometry and collision probability.

The encounter is reduced to the plane perpendicular to the relative
velocity at closest approach (B-plane). Collision probability is the 2-D
Gaussian mass of the relative position over the combined hard-body disc.
Two independent routes compute it: an adaptive quadrature oracle
(:func:`poc_quadrature`, real-valued only) and a convergent series
(:func:`poc_chan`) that also composes over TaylorPoly positions, enabling
polynomial expansions of probability through the whole pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from scipy import integrate

from .dapoly import TaylorPoly, generic_exp
from .dynamics import DynamicsModel, SpacecraftState
from .errors import CovarianceError, GeometryError, NumericError, ValidationError

__all__ = [
    "ConjunctionEvent",
    "BPlaneProjection",
    "combine_relative",
    "project_bplane",
    "poc_quadrature",
    "poc_chan",
]

# Mahalanobis distance beyond which the probability underflows doubles and
# is reported as exactly zero.
_MAHALANOBIS_CUTOFF = 40.0

# r_rel/v_rel perpendicularity tolerance defining a closest approach state.
_TCA_ANGLE_TOL_RAD = 1e-6

# Terms of the collision-probability series.
_SERIES_TERMS = 20


@dataclass(frozen=True, eq=False)
class ConjunctionEvent:
    """Primary/secondary states at closest approach plus uncertainty.

    States are expressed in km and km/s (synodic coordinates for the
    three-body regime, still in km). Covariances are 6x6 in km^2, km^2/s,
    km^2/s^2 blocks; ``hbr_km`` is the combined hard-body radius. An
    event that breaks its invariants cannot be constructed.
    """

    primary: SpacecraftState
    secondary: SpacecraftState
    cov_primary: np.ndarray
    cov_secondary: np.ndarray
    hbr_km: float
    dynamics: DynamicsModel

    def __post_init__(self):
        object.__setattr__(self, "cov_primary",
                           np.asarray(self.cov_primary, dtype=np.float64))
        object.__setattr__(self, "cov_secondary",
                           np.asarray(self.cov_secondary, dtype=np.float64))
        self.check()

    def check(self) -> None:
        """Raise if the event violates its documented invariants."""
        if self.hbr_km <= 0:
            raise ValidationError(f"HBR must be positive, got {self.hbr_km}")
        for name, c in (("primary", self.cov_primary),
                        ("secondary", self.cov_secondary)):
            if c.shape != (6, 6):
                raise ValidationError(f"{name} covariance must be 6x6")
            if not np.allclose(c, c.T, atol=1e-12 * max(1.0, float(np.abs(c).max()))):
                raise CovarianceError(f"{name} covariance is not symmetric")
            eigmin = float(np.linalg.eigvalsh(c).min())
            if eigmin < -1e-12 * max(1.0, float(np.abs(c).max())):
                raise CovarianceError(
                    f"{name} covariance is not positive semidefinite "
                    f"(min eigenvalue {eigmin:.3e})")
        r_rel = self.primary.r - self.secondary.r
        v_rel = self.primary.v - self.secondary.v
        rn = np.linalg.norm(r_rel)
        vn = np.linalg.norm(v_rel)
        if vn == 0.0:
            raise GeometryError("zero relative velocity at closest approach")
        if rn > 0.0:
            cos_angle = abs(float(r_rel @ v_rel)) / (rn * vn)
            if cos_angle > math.sin(_TCA_ANGLE_TOL_RAD) + 1e-12:
                raise ValidationError(
                    "relative position not perpendicular to relative velocity "
                    f"(|cos| = {cos_angle:.3e})")


@dataclass(frozen=True, eq=False)
class BPlaneProjection:
    """Orthonormal encounter basis and the projected planar statistics.

    ``basis`` rows are (xi_hat, eta_hat, zeta_hat) with eta_hat along the
    relative velocity; ``r_b`` are the (xi, zeta) components of the relative
    position in km and ``p_b`` the matching 2x2 covariance block in km^2.
    """

    basis: np.ndarray
    r_b: np.ndarray
    p_b: np.ndarray


def combine_relative(event: ConjunctionEvent):
    """Relative state and combined positional covariance at closest approach.

    Returns (r_rel, v_rel, P) with P the 3x3 positional block of the summed
    covariance. All uncertainty is treated as attached to the secondary.
    """
    c_rel = event.cov_primary + event.cov_secondary
    eigmin = float(np.linalg.eigvalsh(c_rel).min())
    if eigmin < -1e-12 * max(1.0, float(np.abs(c_rel).max())):
        raise CovarianceError(
            f"combined covariance not positive semidefinite (min eig {eigmin:.3e})")
    r_rel = event.primary.r - event.secondary.r
    v_rel = event.primary.v - event.secondary.v
    return r_rel, v_rel, c_rel[:3, :3]


def project_bplane(r_rel: np.ndarray, v_rel: np.ndarray,
                   p: np.ndarray) -> BPlaneProjection:
    """Project the relative state and covariance onto the encounter plane.

    xi_hat is the direction of the component of r_rel orthogonal to the
    relative velocity (deterministic completion when that component
    vanishes); zeta_hat completes the right-handed triad.
    """
    v_rel = np.asarray(v_rel, dtype=np.float64)
    r_rel = np.asarray(r_rel, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    vn = float(np.linalg.norm(v_rel))
    if vn == 0.0:
        raise GeometryError("relative velocity is zero; not a short-term encounter")
    eta = v_rel / vn

    perp = r_rel - float(r_rel @ eta) * eta
    pn = float(np.linalg.norm(perp))
    if pn > 1e-12 * max(1.0, float(np.linalg.norm(r_rel))):
        xi = perp / pn
    else:
        seed = np.array([1.0, 0.0, 0.0])
        if abs(float(seed @ eta)) > 0.9:
            seed = np.array([0.0, 1.0, 0.0])
        xi = seed - float(seed @ eta) * eta
        xi /= np.linalg.norm(xi)
    zeta = np.cross(eta, xi)

    basis = np.vstack([xi, eta, zeta])
    plane = np.vstack([xi, zeta])
    r_b = plane @ r_rel
    p_b = plane @ p @ plane.T
    p_b = (p_b + p_b.T) / 2.0
    _check_pd_2x2(p_b)
    return BPlaneProjection(basis=basis, r_b=r_b, p_b=p_b)


def _check_pd_2x2(p_b: np.ndarray) -> None:
    if p_b[0, 0] <= 0.0 or p_b[1, 1] <= 0.0 or float(np.linalg.det(p_b)) <= 0.0:
        raise CovarianceError("projected covariance is not positive definite")


def _mahalanobis_sq(r_b: np.ndarray, p_b: np.ndarray) -> float:
    sol = np.linalg.solve(p_b, r_b)
    return float(r_b @ sol)


def poc_quadrature(r_b, p_b, hbr: float) -> float:
    """Reference collision probability by adaptive polar quadrature.

    Integrates the planar Gaussian density of the relative position over
    the hard-body disc. The integrand is rescaled by its maximum over the
    disc so the result keeps full relative accuracy even for probabilities
    near the underflow threshold; beyond 40-sigma the probability is
    reported as exactly zero.
    """
    r_b = np.asarray(r_b, dtype=np.float64)
    p_b = np.asarray(p_b, dtype=np.float64)
    _check_pd_2x2(p_b)
    if hbr <= 0.0:
        return 0.0

    a = np.linalg.inv(p_b)
    a = (a + a.T) / 2.0

    # Minimum Mahalanobis distance over the disc sets the density peak.
    if float(np.linalg.norm(r_b)) <= hbr:
        m2_min = 0.0
    else:
        def m2_on_circle(theta: float) -> float:
            d = np.array([math.cos(theta), math.sin(theta)]) * hbr - r_b
            return float(d @ a @ d)

        thetas = np.linspace(0.0, 2.0 * math.pi, 721)
        values = [m2_on_circle(t) for t in thetas]
        i = int(np.argmin(values))
        lo, hi = thetas[max(i - 1, 0)], thetas[min(i + 1, len(thetas) - 1)]
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        c = hi - golden * (hi - lo)
        d = lo + golden * (hi - lo)
        for _ in range(80):
            if m2_on_circle(c) < m2_on_circle(d):
                hi = d
            else:
                lo = c
            c = hi - golden * (hi - lo)
            d = lo + golden * (hi - lo)
        m2_min = m2_on_circle((lo + hi) / 2.0)

    if m2_min > _MAHALANOBIS_CUTOFF ** 2:
        return 0.0

    a00, a01, a11 = a[0, 0], a[0, 1], a[1, 1]
    bx, by = r_b

    def integrand(rho: float, theta: float) -> float:
        x = rho * math.cos(theta) - bx
        y = rho * math.sin(theta) - by
        m2 = a00 * x * x + 2.0 * a01 * x * y + a11 * y * y
        return rho * math.exp(-(m2 - m2_min) / 2.0)

    value, _ = integrate.dblquad(integrand, 0.0, 2.0 * math.pi, 0.0, hbr,
                                 epsabs=1e-14, epsrel=1e-13)
    det = float(np.linalg.det(p_b))
    poc = math.exp(-m2_min / 2.0) * value / (2.0 * math.pi * math.sqrt(det))
    return min(max(poc, 0.0), 1.0)


def poc_chan(r_b, p_b, hbr: float):
    """Collision probability as a convergent series; composes over polynomials.

    The covariance is rotated to principal axes and the probability is
    written as an exponential times a power series, summed to its first
    ``_SERIES_TERMS`` terms, whose coefficients follow a four-term
    recurrence (the equivalent-cross-section series form, pinned against
    the quadrature oracle). ``r_b`` entries may be floats or
    TaylorPoly scalars sharing one algebra; ``p_b`` and ``hbr`` stay real,
    matching a covariance frozen at its ballistic value.
    """
    p_b = np.asarray(p_b, dtype=np.float64)
    _check_pd_2x2(p_b)

    eigvals, eigvecs = np.linalg.eigh(p_b)
    if eigvals[0] <= 0.0:
        raise CovarianceError("projected covariance is not positive definite")
    # principal-axis stds ordered so s_x <= s_y; the series coefficients
    # stay positive in this ordering
    s_x = math.sqrt(eigvals[0])
    s_y = math.sqrt(eigvals[1])
    x_m = eigvecs[0, 0] * r_b[0] + eigvecs[1, 0] * r_b[1]
    y_m = eigvecs[0, 1] * r_b[0] + eigvecs[1, 1] * r_b[1]

    symbolic = isinstance(x_m, TaylorPoly) or isinstance(y_m, TaylorPoly)
    if not symbolic:
        m2 = (x_m / s_x) ** 2 + (y_m / s_y) ** 2
        if m2 > _MAHALANOBIS_CUTOFF ** 2:
            return 0.0

    r2 = hbr * hbr
    p = 1.0 / (2.0 * s_x * s_x)
    phi = 1.0 - (s_x / s_y) ** 2
    omega_x = (x_m * x_m) * (1.0 / (4.0 * s_x ** 4))
    omega_y = (y_m * y_m) * (1.0 / (4.0 * s_y ** 4))
    omega = omega_x + omega_y
    alpha0 = generic_exp(
        (x_m * x_m) * (-0.5 / s_x ** 2) + (y_m * y_m) * (-0.5 / s_y ** 2)
    ) * (1.0 / (2.0 * s_x * s_y))

    inter0 = 1.0 + phi / 2.0
    inter1 = omega + p * inter0
    inter2 = (p * p * (1.0 + phi * phi / 2.0)) + omega_y * (2.0 * p * phi)
    inter3 = inter1 * inter1

    c0 = alpha0 * r2
    c1 = c0 * (r2 / 2.0) * inter1
    c2 = c0 * (r2 * r2 / 12.0) * (inter3 + inter2)
    c3 = c0 * (r2 ** 3 / 144.0) * (
        inter1 * (inter3 + 3.0 * inter2)
        + 2.0 * (p ** 3 * (1.0 + phi ** 3 / 2.0) + omega_y * (3.0 * p * p * phi * phi))
    )

    total = c0 + c1 + c2 + c3

    aux0 = r2 ** 3 * p ** 3 * phi * phi * omega_x
    aux1 = r2 * r2 * p * p * phi
    aux2 = omega_x * (2.0 * inter0)
    aux3 = omega_x * (2.0 * phi) + (1.5 * p * phi) + omega
    aux4 = 2.0 * p * phi * inter0
    aux5 = p * (2.0 * phi + 1.0)
    p_phi = p * phi
    p_r2 = p * r2

    for k in range(_SERIES_TERMS - 4):
        k2, k3, k4, k5 = k + 2.0, k + 3.0, k + 4.0, k + 5.0
        half = k + 2.5
        new = c3 * (inter1 + aux5 * k3)
        new = new - c2 * ((aux4 * half + aux3) * (p_r2 / k4))
        new = new + c1 * ((aux2 + p_phi * half) * (aux1 / (k4 * k3)))
        new = new - c0 * (aux0 / (k4 * k3 * k2))
        new = new * (r2 / (k4 * k5))
        c0, c1, c2, c3 = c1, c2, c3, new
        total = total + new

    result = total * math.exp(-p * r2)
    if symbolic:
        return result
    if not math.isfinite(result):
        raise NumericError("collision-probability series overflowed")
    return min(max(float(result), 0.0), 1.0)
