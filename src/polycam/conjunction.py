"""Short-term conjunction geometry and collision probability.

The encounter is reduced to the plane perpendicular to the relative
velocity at closest approach (B-plane). Collision probability is the 2-D
Gaussian mass of the relative position over the combined hard-body disc.
Two independent routes compute it: a fixed Gauss-Legendre quadrature of
Alfano's one-dimensional form (:func:`poc_quadrature`, real-valued only,
numpy and the standard library's erf) and a convergent series
(:func:`poc_chan`). The series factors as a Gaussian in the miss times a
slowly varying sum, so its logarithm over TaylorPoly positions
(:func:`log_poc_chan`) is an exact quadratic plus a truncated log of that
sum: the pipeline's polynomial expansion of probability is one of log
PoC. The probability depends on the control only through the two
encounter-plane coordinates, so that logarithm is expanded once in two
variables, about the positions' constant parts, and composed onto the
positions' own algebra. The sum runs to convergence in every degree, or
to a cap (see below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dapoly import AlgebraConfig, TaylorPoly
from .dynamics import DynamicsModel, SpacecraftState
from .errors import CovarianceError, GeometryError, NumericError, ValidationError

__all__ = [
    "ConjunctionEvent",
    "BPlaneProjection",
    "project_bplane",
    "poc_quadrature",
    "poc_chan",
    "log_poc_chan",
]

# Mahalanobis distance beyond which the probability underflows doubles and
# is reported as exactly zero.
_MAHALANOBIS_CUTOFF = 40.0

# r_rel/v_rel perpendicularity tolerance defining a closest approach state.
_TCA_ANGLE_TOL_RAD = 1e-6

# Terms of an unconverged probability series (hbr/sigma_min = 10 takes 119).
_SERIES_CAP = 128


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


@dataclass(frozen=True, eq=False)
class ConjunctionEvent:
    """Primary/secondary states at closest approach plus uncertainty.

    States are expressed in km and km/s (synodic coordinates for the
    three-body regime, still in km), both in the frame of ``dynamics``.
    Covariances are 6x6 in km^2, km^2/s, km^2/s^2 blocks; ``hbr_km`` is the
    combined hard-body radius. ``bplane`` is the encounter plane, computed
    once at construction: the relative state projected with the summed
    covariance, all uncertainty treated as attached to the secondary. An
    event that breaks its invariants cannot be constructed.
    """

    primary: SpacecraftState
    secondary: SpacecraftState
    cov_primary: np.ndarray
    cov_secondary: np.ndarray
    hbr_km: float
    dynamics: DynamicsModel
    bplane: BPlaneProjection = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cov_primary",
                           np.asarray(self.cov_primary, dtype=np.float64))
        object.__setattr__(self, "cov_secondary",
                           np.asarray(self.cov_secondary, dtype=np.float64))
        self.check()
        object.__setattr__(self, "bplane", project_bplane(
            self.primary.r - self.secondary.r,
            self.primary.v - self.secondary.v,
            (self.cov_primary + self.cov_secondary)[:3, :3]))

    def check(self) -> None:
        """Raise if the event violates its documented invariants."""
        frames = (self.primary.frame, self.secondary.frame, self.dynamics.frame)
        if len(set(frames)) != 1:
            raise ValidationError(
                f"state frames {frames[0]}/{frames[1]} do not match the "
                f"{frames[2]} frame of {self.dynamics.kind} dynamics")
        if not 0 < self.hbr_km < math.inf:
            raise ValidationError(
                f"HBR must be positive and finite, got {self.hbr_km}")
        for name, c in (("primary", self.cov_primary),
                        ("secondary", self.cov_secondary)):
            if c.shape != (6, 6):
                raise ValidationError(f"{name} covariance must be 6x6")
        # one stacked pass, read in check order: np.allclose(c, c.T) at its
        # rtol of 1e-5, then the eigenvalues of the symmetric ones
        stack = np.stack((self.cov_primary, self.cov_secondary,
                          self.cov_primary + self.cov_secondary))
        scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
        mirror = stack.transpose(0, 2, 1)
        with np.errstate(invalid="ignore"):  # equal infinities are close
            symmetric = ((stack == mirror) | (
                np.abs(stack - mirror) <= 1e-12 * scale[:, None, None]
                + 1e-5 * np.abs(mirror))).all(axis=(1, 2))
        eigmin = np.linalg.eigvalsh(
            np.where(symmetric[:, None, None], stack, 0.0)).min(axis=1)
        for name, sym, low, big in zip(("primary", "secondary", "combined"),
                                       symmetric, eigmin, scale):
            if not sym:
                raise CovarianceError(f"{name} covariance is not symmetric")
            if low < -1e-12 * big:
                raise CovarianceError(
                    f"{name} covariance is not positive semidefinite "
                    f"(min eigenvalue {low:.3e})")
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
    # a determinant beyond the float range is +-inf, without a warning
    with np.errstate(over="ignore"):
        det = float(np.linalg.det(p_b))
    if p_b[0, 0] <= 0.0 or p_b[1, 1] <= 0.0 or det <= 0.0:
        raise CovarianceError("projected covariance is not positive definite")


@lru_cache(maxsize=None)
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(128)


def poc_quadrature(r_b, p_b, hbr: float) -> float:
    """Reference collision probability by Alfano's one-dimensional integral.

    In the covariance's principal axes the disc is swept along the major
    axis, x = hbr sin(theta): each chord adds the major-axis density at x
    times the minor-axis Gaussian mass over the chord, an erf band summed
    as erf + erf when the chord spans the mean and as erfc - erfc
    otherwise, so that no tail cancels. The sweep is cut into one panel
    per 16 minor-axis sigmas of hard-body radius, each summed by the same
    128-node Gauss-Legendre rule. Far in the tail the terms underflow: a
    disc whose nearest point lies beyond about 38 sigma gets exactly 0.
    """
    r_b = np.asarray(r_b, dtype=np.float64)
    p_b = np.asarray(p_b, dtype=np.float64)
    _check_pd_2x2(p_b)
    if hbr <= 0.0:
        return 0.0

    eigvals, eigvecs = np.linalg.eigh(p_b)
    s_minor, s_major = math.sqrt(eigvals[0]), math.sqrt(eigvals[1])
    x_c = float(eigvecs[:, 1] @ r_b)
    y_c = abs(float(eigvecs[:, 0] @ r_b))

    nodes, weights = _legendre_rule()
    panels = math.ceil(hbr / (16.0 * s_minor))
    half_width = math.pi / (2 * panels)
    theta = half_width * ((2 * np.arange(panels) + 1 - panels)[:, None]
                          + nodes)
    half_chords = hbr * np.cos(theta)
    scale = math.sqrt(2.0) * s_minor
    bands = np.reshape(
        [math.erf((h + y_c) / scale) + math.erf((h - y_c) / scale)
         if y_c < h else
         math.erfc((y_c - h) / scale) - math.erfc((y_c + h) / scale)
         for h in half_chords.ravel().tolist()], theta.shape)
    density = np.exp(-0.5 * ((hbr * np.sin(theta) - x_c) / s_major) ** 2)
    total = half_width * float(np.sum(weights * density * bands * half_chords))
    poc = total / (2.0 * math.sqrt(2.0 * math.pi) * s_major)
    return min(max(poc, 0.0), 1.0)


def poc_chan(r_b, p_b, hbr: float) -> float:
    """Collision probability at a real encounter-plane position, as a
    convergent series.

    The covariance is rotated to principal axes and the probability is
    written as e^arg r^2 / (2 s_x s_y) e^(-p r^2) S, arg being minus half
    the squared Mahalanobis distance of the miss and S a power series in
    the hard-body radius summed until it converges, with coefficients from
    a four-term recurrence (the equivalent-cross-section series form, pinned
    against the quadrature oracle). A miss beyond ``_MAHALANOBIS_CUTOFF``
    gives exactly 0, and past ``_SERIES_CAP`` terms :func:`poc_quadrature`.
    """
    try:
        x_m, y_m, s_x, s_y = _principal_axes(r_b, p_b)
        x_m, y_m, hbr = float(x_m), float(y_m), float(hbr)
        m_x, m_y = x_m / s_x, y_m / s_y
        if m_x * m_x + m_y * m_y > _MAHALANOBIS_CUTOFF ** 2:
            return 0.0
        arg, p_r2, series = _chan_series(x_m, y_m, s_x, s_y, hbr)
        if series is None:
            return poc_quadrature(r_b, p_b, hbr)
        result = math.exp(arg - p_r2) * (hbr * hbr / (2.0 * s_x * s_y)) \
            * series
    except OverflowError as exc:
        # float ** raises where * would return inf
        raise NumericError("collision-probability series overflowed") from exc
    return min(max(result, 0.0), 1.0)


def log_poc_chan(r_b, p_b, hbr: float) -> TaylorPoly:
    """Logarithm of :func:`poc_chan`'s series over polynomial positions.

    ``r_b`` holds TaylorPoly scalars of one algebra; ``p_b`` and ``hbr``
    stay real, matching a covariance frozen at its ballistic value. The
    result is arg + log(r^2 / (2 s_x s_y)) - p r^2 + log S: arg, minus half
    the squared Mahalanobis distance, is an exact quadratic of the
    positions, so only the slowly varying log S is a truncated series and
    the Gaussian is never Taylor-expanded (Armellin's squared-distance
    constraint, *Acta Astronautica* 186, 2021, with the series' correction).

    The probability depends on the positions alone, so the expansion runs
    in two variables: the series and its log are expanded to the
    positions' order n about their constant parts (xi_0, zeta_0), in the
    (2, n) algebra, and then composed onto (xi - xi_0, zeta - zeta_0)
    (:meth:`TaylorPoly.compose`). Truncated composition with nilpotent
    arguments is exact, so this is the same polynomial, up to round-off,
    as the series summed in the positions' own algebra, and it costs that
    algebra 2n - 1 products whatever the number of terms. At the identity,
    positions (xi_0 + x_0, zeta_0 + x_1) of a (2, n) algebra, it gives
    the series' coefficients bit for bit. An overflow raises
    :class:`NumericError` without a warning.
    """
    xi, zeta = r_b
    x0, z0 = xi.constant_part, zeta.constant_part
    local = AlgebraConfig(2, xi.max_order)
    at = (TaylorPoly.variable(local, 0) + x0,
          TaylorPoly.variable(local, 1) + z0)
    try:
        # an overflow leaves the sum non-finite, which the stop rule refuses
        with np.errstate(over="ignore", invalid="ignore"):
            x_m, y_m, s_x, s_y = _principal_axes(at, p_b)
            arg, p_r2, series = _chan_series(x_m, y_m, s_x, s_y, hbr)
    except OverflowError as exc:  # float ** raises where * returns inf
        raise NumericError("collision-probability series overflowed") from exc
    if series is None:
        raise NumericError("collision-probability series did not converge "
                           f"in {_SERIES_CAP} terms")
    expansion = arg + (2.0 * math.log(hbr) - math.log(2.0 * s_x * s_y)
                       - p_r2) + series.log()
    return expansion.compose((xi - x0, zeta - z0))


def _principal_axes(r_b, p_b):
    """(x, y, s_x, s_y): the position in the covariance's principal axes
    and the standard deviations along them, s_x <= s_y."""
    p_b = np.asarray(p_b, dtype=np.float64)
    eigvecs, s_x, s_y = _axes(p_b.tobytes(), p_b.shape)
    x_m = eigvecs[0, 0] * r_b[0] + eigvecs[1, 0] * r_b[1]
    y_m = eigvecs[0, 1] * r_b[0] + eigvecs[1, 1] * r_b[1]
    return x_m, y_m, s_x, s_y


@lru_cache(maxsize=256)
def _axes(data: bytes, shape: tuple) -> tuple:
    """(eigenvectors, s_x, s_y) of the covariance held in ``data``, once per
    covariance: a design asks for them at every series evaluation. A
    covariance that is not positive definite raises, and an exception is
    not cached, so it raises on every call."""
    p_b = np.frombuffer(data).reshape(shape)
    _check_pd_2x2(p_b)
    eigvals, eigvecs = np.linalg.eigh(p_b)
    if eigvals[0] <= 0.0:
        raise CovarianceError("projected covariance is not positive definite")
    eigvecs.setflags(write=False)
    return eigvecs, math.sqrt(eigvals[0]), math.sqrt(eigvals[1])


def _chan_series(x_m, y_m, s_x: float, s_y: float, hbr: float):
    """(arg, p r^2, S) of the series at the principal-axis position
    (x_m, y_m), floats or polynomials: S is the recurrence started from
    c_0 = 1 (None past ``_SERIES_CAP`` terms), and the probability is
    e^arg r^2 / (2 s_x s_y) e^(-p r^2) S. The terms stay positive as s_x <=
    s_y, each at least 1/k of the k-term sum while they rise, so no stop
    precedes their peak; Serra et al. (*JGCD* 39(5), 2016) bound the tail."""
    r2 = hbr * hbr
    p = 1.0 / (2.0 * s_x * s_x)
    phi = 1.0 - (s_x / s_y) ** 2
    x2, y2 = x_m * x_m, y_m * y_m
    omega_x = x2 * (1.0 / (4.0 * s_x ** 4))
    omega_y = y2 * (1.0 / (4.0 * s_y ** 4))
    omega = omega_x + omega_y
    arg = x2 * (-0.5 / s_x ** 2) + y2 * (-0.5 / s_y ** 2)

    inter0 = 1.0 + phi / 2.0
    inter1 = omega + p * inter0
    inter2 = (p * p * (1.0 + phi * phi / 2.0)) + omega_y * (2.0 * p * phi)
    inter3 = inter1 * inter1

    c0 = 1.0
    c1 = (r2 / 2.0) * inter1
    c2 = (r2 * r2 / 12.0) * (inter3 + inter2)
    c3 = (r2 ** 3 / 144.0) * (
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

    for k in range(_SERIES_CAP - 4):
        k2, k3, k4, k5, half = k + 2.0, k + 3.0, k + 4.0, k + 5.0, k + 2.5
        new = c3 * (inter1 + aux5 * k3)
        new = new - c2 * ((aux4 * half + aux3) * (p_r2 / k4))
        new = new + c1 * ((aux2 + p_phi * half) * (aux1 / (k4 * k3)))
        new = new - c0 * (aux0 / (k4 * k3 * k2))
        new = new * (r2 / (k4 * k5))
        c0, c1, c2, c3 = c1, c2, c3, new
        total = total + new
        if _converged(new, total):
            return arg, p_r2, total
    return arg, p_r2, None


def _converged(term, total) -> bool:
    """Whether the newest ``term`` is at most 2^-53 of the sum ``total``, in
    each degree's largest |coefficient| for polynomials; raises on overflow."""
    if isinstance(total, TaylorPoly):
        starts = [s.start for s in total._tab.degree_slices]
        term, total = (np.maximum.reduceat(np.abs(t.coef), starts)
                       for t in (term, total))
        converged = (term <= 2.0 ** -53 * total).all()
        finite = np.isfinite(total).all()
    else:
        converged, finite = term <= 2.0 ** -53 * total, math.isfinite(total)
    if not finite:
        raise NumericError("collision-probability series overflowed")
    return bool(converged)
