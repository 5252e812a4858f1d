"""The adaptive-quadrature collision probability, kept as a test reference.

``poc_dblquad`` integrates the planar Gaussian density over the hard-body
disc with ``scipy.integrate.dblquad``. It shares no code with the series
or with the package's Gauss-Legendre rule, so acceptance criterion 1 and
the quadrature tests compare both against it. It holds only for moderate
hbr/sigma, or for offsets along the covariance's principal axes: with
p_b = I, hbr = 100 and r_b = 0.7 (102, 102) it returns 8.7e-22 against
0.16359, so the wide-disc tests also check the closed form of an isotropic
covariance. The file name keeps pytest from collecting it.
"""

import math

import numpy as np
from scipy import integrate

from polycam.conjunction import _MAHALANOBIS_CUTOFF, _check_pd_2x2


def poc_dblquad(r_b, p_b, hbr: float) -> float:
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


def criterion_1_draws(count: int = 200, seed: int = 1):
    """The seeded geometries of acceptance criterion 1.

    Yields (r_b, p_b, hbr, reference) for each of the first ``count``
    random draws whose reference probability is at least 1e-12.
    """
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < count:
        angle = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        sigmas = rng.uniform(0.05, 2.0, size=2)
        p_b = rot @ np.diag(sigmas ** 2) @ rot.T
        hbr = rng.uniform(0.005, 0.05)
        direction = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(0.0, 4.5) * sigmas.max()
        r_b = radius * np.array([math.cos(direction), math.sin(direction)])
        reference = poc_dblquad(r_b, p_b, hbr)
        if reference < 1e-12:
            continue
        checked += 1
        yield r_b, p_b, hbr, reference
