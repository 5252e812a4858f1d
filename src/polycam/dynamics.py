"""Equations of motion, frames, a closed-form Kepler coast and DOP853.

Three dynamics regimes are supported: two-body, two-body plus the J2
oblateness term (inertial ECI frame, km / km/s / seconds), and the circular
restricted three-body problem (rotating synodic frame, nondimensional
units). The propagator is generic over the scalar algebra: states may hold
plain floats, complex scalars (complex-step derivatives), batched numpy
arrays, or :class:`~polycam.dapoly.TaylorPoly` scalars. The kernels write
every power as ``x ** p``, which each kind takes in its own arithmetic:
Python's for floats and complex scalars, ``np.power`` for arrays,
:meth:`~polycam.dapoly.TaylorPoly.power` for polynomials. A polynomial
state advances as one (6, N) block of coefficient rows, each float entry
a constant row from the start (:func:`_block_step`): each stage sum
y + sum (h b) f is one row pass, and each slope a run of the kernel
recorded once per propagation (:func:`~polycam.dapoly.record`). Every
other state, a batch of arrays included, advances entry by entry on the
only generated step, straight-line Python (:func:`_rk_step_fn`). Both
give every entry the values of the entry-by-entry combination.
Every pass steps on a :class:`PropagationConfig`: equal steps (a count
per span) or its span's step boundaries, which a real or complex pass
fills by error control (:func:`_controlled_steps`). A Kepler coast takes
one exact step whatever the plan (:func:`kepler_anomaly`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Number
from typing import Sequence

import numpy as np

from .dapoly import (TaylorPoly, _compile_source, _csr_matvec,
                     generic_sin_cos, record)
from .errors import ConfigurationError, FrameError, PropagationError

__all__ = [
    "ECI", "SYNODIC", "KEPLER", "J2", "CR3BP",
    "SpacecraftState", "DynamicsModel", "PropagationConfig",
    "propagate_vector", "integrate", "kepler_anomaly", "rtn_rotation",
    "osculating_period",
]

ECI = "ECI"
SYNODIC = "SYNODIC"

KEPLER = "KEPLER"
J2 = "J2"
CR3BP = "CR3BP"

MU_EARTH_KM3_S2 = 398600.4418
R_EARTH_KM = 6378.137
J2_EARTH = 1.08262668e-3

# Earth-Moon characteristic quantities for the rotating-frame model.
CR3BP_MASS_RATIO = 0.0121505856
CR3BP_CHAR_LENGTH_KM = 384405.0
CR3BP_CHAR_TIME_S = 375677.0


@dataclass(frozen=True, eq=False)
class SpacecraftState:
    """Cartesian state tagged with its frame.

    ECI states are km / km/s. Synodic states are rotating-frame coordinates:
    km at package interfaces, nondimensional characteristic units when
    propagated under the CR3BP model.
    """

    r: np.ndarray
    v: np.ndarray
    frame: str = ECI

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=np.float64))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.float64))
        if self.r.shape != (3,) or self.v.shape != (3,):
            raise ConfigurationError("state vectors must have shape (3,)")
        if not (np.all(np.isfinite(self.r)) and np.all(np.isfinite(self.v))):
            raise ConfigurationError("state has non-finite components")
        if self.frame not in (ECI, SYNODIC):
            raise ConfigurationError(f"unknown frame {self.frame!r}")


@dataclass(frozen=True)
class DynamicsModel:
    """Force-model selection; J2 and the Earth-Moon constants are fixed."""

    kind: str = KEPLER
    mu: float = MU_EARTH_KM3_S2          # km^3/s^2
    r_e: float = R_EARTH_KM              # km

    def __post_init__(self):
        if self.kind not in (KEPLER, J2, CR3BP):
            raise ConfigurationError(f"unknown dynamics kind {self.kind!r}")
        if self.mu <= 0:
            raise ConfigurationError("mu must be positive")

    @property
    def frame(self) -> str:
        return SYNODIC if self.kind == CR3BP else ECI


# Upper bound on the steps per segment: far above the counts any regime
# needs (at most a few hundred), and low enough that a run ends.
MAX_STEPS = 100_000
# Local error allowed per step that error control picks
# (_controlled_steps); the README gives its calibration.
STEP_TOL = 1e-6


class PropagationConfig:
    """The steps of a pass (its plan): ``steps`` equal ones per span, h =
    (t1 - t0) / steps, or the step boundaries ``times`` of one span, in
    its direction. :func:`integrate` fills a plan with neither in place by
    error control for a real or complex state (:func:`_controlled_steps`;
    ``adjoint`` scales the state's imaginary part, ``weight`` is the least
    factor on a step's error), and refuses it for a polynomial state or a
    batch of arrays; a Kepler coast leaves it empty. ``steps`` reads as
    the count set (``count``), else as the steps of ``times``."""

    def __init__(self, steps: int | None = None, times: Sequence[float] = (),
                 adjoint: float = 0.0, weight: float = 1.0):
        if steps is not None and not 1 <= steps <= MAX_STEPS:
            raise ConfigurationError(
                f"step count must lie in [1, {MAX_STEPS}]")
        self.count, self.times = steps, list(times)
        self.adjoint, self.weight = adjoint, weight

    @property
    def steps(self) -> int:
        return self.count or len(self.times[1:])

    def ends(self, t0: float, t1: float) -> list:
        """The (h, end) of each step from t0 to t1, if any; the times of
        another span raise :class:`ConfigurationError`."""
        if self.count:
            h = (t1 - t0) / self.count
            return [(h, t0 + (k + 1) * h) for k in range(self.count)]
        if self.times and [self.times[0], self.times[-1]] != [t0, t1]:
            raise ConfigurationError(
                f"the plan steps from t={self.times[0]!r} to "
                f"t={self.times[-1]!r}, not from t={t0!r} to t={t1!r}")
        return [(b - a, b) for a, b in zip(self.times, self.times[1:])]

    def between(self, t0: float, t1: float) -> PropagationConfig:
        """The plan from t0 to t1: a count as it is, else a new one on the
        steps of ``times`` there, those straddling either end split."""
        if self.count:
            return self
        lo, hi = sorted((t0, t1))
        return PropagationConfig(times=self.times and [
            t0, *sorted((t for t in self.times if lo < t < hi),
                        reverse=t1 < t0), t1], weight=self.weight)


# ---------------------------------------------------------------------------
# Dormand and Prince's DOP853 (Hairer, Norsett & Wanner, *Solving ODEs I*,
# II.5): 12 stages, weights of order 8 and two embedded estimators, of
# orders 5 and 3, that read the same 12 stages.
# ---------------------------------------------------------------------------

def _dop853():
    """The stage rows A[k, :k], the weights b and the estimators' weights
    e5 and e3 of DOP853, as the shortest floats that round to them."""
    a = [
        [],
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0.0, 0.08876275643042054],
        [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
        [0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
         0.12546768756682242],
        [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
         -0.017578125],
        [0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
         0.10726203044637328, -0.015319437748624402, 0.008273789163814023],
        [0.6241109587160757, 0.0, 0.0, -3.3608926294469414,
         -0.868219346841726, 27.59209969944671, 20.154067550477894,
         -43.48988418106996],
        [0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
         -0.590290826836843, 21.230051448181193, 15.279233632882423,
         -33.28821096898486, -0.020331201708508627],
        [-0.9371424300859873, 0.0, 0.0, 5.186372428844064,
         1.0914373489967295, -8.149787010746927, -18.52006565999696,
         22.739487099350505, 2.4936055526796523, -3.0467644718982196],
        [2.273310147516538, 0.0, 0.0, -10.53449546673725,
         -2.0008720582248625, -17.9589318631188, 27.94888452941996,
         -2.8589982771350235, -8.87285693353063, 12.360567175794303,
         0.6433927460157636],
    ]
    b = [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
         1.8915178993145003, -5.801203960010585, 0.3111643669578199,
         -0.1521609496625161, 0.20136540080403034, 0.04471061572777259]
    e5 = [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
          -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
          0.3341791187130175, 0.08192320648511571, -0.022355307863886294]
    e3 = [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
          1.8915178993145003, -5.801203960010585, -0.4226823213237919,
          -0.1521609496625161, 0.20136540080403034, 0.02265179219836082]
    return a, b, e5, e3


_A, _B, _E5, _E3 = _dop853()


def _nonzero(row: list) -> list:
    return [(k, c) for k, c in enumerate(row) if c != 0.0]


# the nonzero entries: (earlier stage, a) per stage, (stage, weight)
_ROWS = {k: _nonzero(row) for k, row in enumerate(_A)}
_WSEL, _E5SEL, _E3SEL = _nonzero(_B), _nonzero(_E5), _nonzero(_E3)


# ---------------------------------------------------------------------------
# Acceleration kernels, generic over the scalar type.
# ---------------------------------------------------------------------------

# The kernels take ``u`` None on a coast. Skipping the J2 factors under
# Kepler (x * 1.0) and the zero control (x + 0.0) leaves every value as it
# was, up to the sign of a zero.

def _kernel_kepler_j2(y: Sequence, u: Sequence | None, mu: float, r_e: float,
                      j2: float):
    x, yy, z, vx, vy, vz = y
    z2 = z * z
    r2 = x * x + yy * yy + z2
    if j2 == 0.0:
        common = -mu * r2 ** -1.5
        ax, ay, az = common * x, common * yy, common * z
    else:
        # one power, 1/r, gives 1/r^2 and 1/r^3; the plane and axial
        # factors share k_j2 * 5 z^2 / r^2 and the two-body factor
        inv_r = r2 ** -0.5
        inv_r2 = inv_r * inv_r
        common = -mu * (inv_r2 * inv_r)
        k_j2 = (1.5 * j2 * r_e * r_e) * inv_r2
        shared = k_j2 * (5.0 * (z2 * inv_r2))
        plane = common * (1.0 + k_j2 - shared)
        axial = common * (1.0 + 3.0 * k_j2 - shared)
        ax, ay, az = plane * x, plane * yy, axial * z
    if u is not None:
        ax, ay, az = ax + u[0], ay + u[1], az + u[2]
    return vx, vy, vz, ax, ay, az


def _kernel_cr3bp(y: Sequence, u: Sequence | None, mass_ratio: float):
    x, yy, z, vx, vy, vz = y
    mu = mass_ratio
    xe = x + mu          # offset from the larger primary
    xm = x - (1.0 - mu)  # offset from the smaller primary
    yy2 = yy * yy
    z2 = z * z
    d1sq = xe * xe + yy2 + z2
    d2sq = xm * xm + yy2 + z2
    inv1 = d1sq ** -1.5
    inv2 = d2sq ** -1.5
    # gradient of the effective potential, paper-sign convention:
    # includes the full -|r|^2/2 rotational term
    gx = -x + (1.0 - mu) * xe * inv1 + mu * xm * inv2
    gy = -yy + (1.0 - mu) * yy * inv1 + mu * yy * inv2
    gz = -z + (1.0 - mu) * z * inv1 + mu * z * inv2
    ax, ay, az = 2.0 * vy - gx, -2.0 * vx - gy, -z - gz
    if u is not None:
        ax, ay, az = ax + u[0], ay + u[1], az + u[2]
    return vx, vy, vz, ax, ay, az


def _is_coast(u: Sequence) -> bool:
    return all(isinstance(c, (int, float)) and c == 0.0 for c in u)


def _derivative_fn(model: DynamicsModel, u: Sequence):
    if _is_coast(u):
        u = None
    if model.kind == CR3BP:
        return lambda y: _kernel_cr3bp(y, u, CR3BP_MASS_RATIO)
    j2 = J2_EARTH if model.kind == J2 else 0.0
    mu, r_e = model.mu, model.r_e
    return lambda y: _kernel_kepler_j2(y, u, mu, r_e, j2)


@lru_cache(maxsize=None)
def _stage_passes(size: int) -> tuple:
    """Row passes of a block step on ``size`` entries: the ptr of each
    stage of ``_ROWS`` with terms and then of the weights, and the cols
    and factors that they share. A sum's row i adds (h * b) f_l[i] over
    its terms (l, b), in order; its pairs read f_l[i] at l * size + i of
    the flat slopes and take h times the factor b."""
    ptrs, cols, factors, start = [], [], [], 0
    for terms in [*filter(None, _ROWS.values()), _WSEL]:
        stages, coefs = zip(*terms)
        ptrs.append(start + len(terms) * np.arange(size + 1))
        cols.append((np.array(stages) * size
                     + np.arange(size)[:, None]).ravel())
        factors.append(np.tile(coefs, size))
        start += len(terms) * size
    return (*ptrs, np.concatenate(cols), np.concatenate(factors))


def _block_step(y: np.ndarray, h: float, run) -> np.ndarray:
    """One DOP853 step of a polynomial state's (6, N) coefficient block:
    stage 0's slope at y, then each of the 11 later stages' sum, one row
    pass from a copy of y (:func:`_stage_passes`), and its slope; last,
    the weights' pass. ``run``, the recorded slope, writes each stage's rows
    into one array of slopes, where the later passes read them."""
    n = y.size
    *ptrs, cols, factors = _stage_passes(n)
    data = h * factors
    f = np.empty((len(_ROWS), *y.shape))
    flat = f.reshape(-1)
    run(y, f[0])
    for k, ptr in enumerate(ptrs, 1):
        t = y.copy()
        _csr_matvec(n, flat.size, ptr, cols, data, flat, t)
        if k < len(f):
            run(t, f[k])
    return t


def _scalar_sums(terms: list) -> str:
    """Source of the six entries of y plus a_l f_l over ``terms``, in order,
    the a_l = h * b being set before."""
    return ", ".join(f"y{i}" + "".join(f" + a{l} * f{l}_{i}" for l, _ in terms)
                     for i in range(6))


def _error_sum(terms: list) -> str:
    """Source of the largest |Re sum e_k f_k| over the six entries, for
    the estimator weights ``terms``."""
    return "max(" + ", ".join(
        "abs((" + " + ".join(f"{e!r} * f{k}_{i}" for k, e in terms)
        + ").real)" for i in range(6)) + ")"


@lru_cache(maxsize=None)
def _rk_step_fn(control: bool = False):
    """The DOP853 step ``(y, h, slope)`` of a state entry by entry, each
    entry a Python scalar or a numpy array, generated on first use as
    straight-line Python: ``dop853_step``, or, if ``control``,
    ``dop853_controlled_step``, which also returns the estimators e5 and
    e3 of :func:`_controlled_steps` on a real or complex scalar state.
    Stage k adds (h * a) f_l to the state in its row's order, and the new
    state adds (h * b) f_k in ``_WSEL`` order: the sums, in their order,
    of a chain of y + a f steps."""
    name = "dop853_controlled_step" if control else "dop853_step"
    lines = [f"def {name}(y, h, slope):",
             ", ".join(f"y{i}" for i in range(6)) + " = y"]
    for k, row in _ROWS.items():
        lines += [*(f"a{l} = h * {b!r}" for l, b in row),
                  ", ".join(f"f{k}_{i}" for i in range(6))
                  + f" = slope([{_scalar_sums(row)}])"]
    lines += [*(f"a{k} = h * {w!r}" for k, w in _WSEL),
              f"return [{_scalar_sums(_WSEL)}]"
              + (f", {_error_sum(_E5SEL)}, {_error_sum(_E3SEL)}"
                 if control else "")]
    return _compile_source("\n    ".join(lines) + "\n", {})[name]


def _controlled_steps(y, t0: float, t1: float, slope,
                      plan: PropagationConfig) -> list:
    """Integrate a real or complex state from t0 to t1 on steps that keep
    DOP853's local error estimate within ``STEP_TOL`` (Hairer, Norsett &
    Wanner, *Solving ODEs I*, II.5), filling the ``times`` of ``plan``.
    The estimate combines the 5th- and 3rd-order estimators, e5 and e3,
    each the largest |Re sum e_k f_k| over the entries, as |h| e5^2 /
    sqrt(e5^2 + 0.01 e3^2); it is taken times max(``plan.weight``,
    |lambda|), where lambda is Im y times ``plan.adjoint``: a bound on the
    error's first-order effect, in any direction, on the quantity that
    lambda is the adjoint of (for a design, log PoC; see
    :func:`polycam.mapbuilder._back_propagation`). A step below 1e-10 of
    the span, or a count past ``MAX_STEPS``, raises
    :class:`PropagationError`."""
    t, h = t0, t1 - t0
    plan.times = [t0]
    while t != t1:
        if abs(h) < 1e-10 * abs(t1 - t0) or len(plan.times) > MAX_STEPS:
            raise PropagationError(
                f"step control failed near t={t!r}: the step shrank to "
                f"{h!r} after {len(plan.times) - 1} steps", time=t)
        # the step the plan records, so that a replay takes it bit for bit
        t_next = t1 if abs(h) >= abs(t1 - t) else t + h
        h = t_next - t
        try:
            trial, e5, e3 = _rk_step_fn(True)(y, h, slope)
            weight = max(plan.weight,
                         plan.adjoint * max(abs(c.imag) for c in trial))
            ratio = (abs(h) * e5 * e5 / math.sqrt(e5 * e5 + 0.01 * e3 * e3)
                     * weight / STEP_TOL if e5 else 0.0)
        except (ArithmeticError, ValueError):
            ratio = math.inf
        # the estimate's order is 7: the error scales as h**8
        if ratio <= 1.0:
            y, t = trial, t_next
            plan.times.append(t)
            h *= min(5.0, 0.9 * ratio ** -0.125) if ratio else 5.0
        else:  # a failed, non-finite or too large step is redone shorter
            h *= max(0.2, 0.9 * ratio ** -0.125) if ratio < math.inf else 0.2
    return y


def propagate_vector(y0: Sequence, u: Sequence, t0: float, t1: float,
                     model: DynamicsModel, config: PropagationConfig) -> list:
    """Advance a 6-component state from t0 to t1 as :func:`integrate` does
    on the plan ``config``, or in one closed-form step, whatever the plan,
    for a coast with a :func:`kepler_anomaly`, which leaves the plan as it
    is. A coast whose arithmetic fails, as at a far epoch, raises
    :class:`PropagationError`."""
    x = kepler_anomaly(y0, u, t0, t1, model)
    if x is None:
        return integrate(y0, u, t0, t1, model, config)
    try:
        return _kepler_coast([float(c) if isinstance(c, np.float64) else c
                              for c in y0], x, t1 - t0, model.mu)
    except (ArithmeticError, ValueError) as exc:
        raise PropagationError(
            f"closed-form coast failed from t={t0!r}: {exc}", time=t0) from exc


def integrate(y0: Sequence, u: Sequence, t0: float, t1: float,
              model: DynamicsModel, config: PropagationConfig) -> list:
    """DOP853 integration of a 6-component state from t0 to t1.

    ``y0`` entries may be floats, complex scalars (Python or numpy),
    same-shape numpy arrays (batched states) or TaylorPoly scalars sharing
    one algebra. The control ``u`` is held constant over the span
    (first-order hold); backward spans are allowed. The steps are those
    of the plan ``config`` (:meth:`PropagationConfig.ends`): its count of
    equal ones, or its times, which must run from t0 to t1 and raise
    :class:`ConfigurationError` otherwise. A plan with neither is filled
    in place by error control for a real or complex scalar state; a
    polynomial or batched state raises :class:`PropagationError` on it.
    A step whose arithmetic fails (a float power that overflows, say) or
    that leaves a real or complex scalar state non-finite raises
    :class:`PropagationError` at its end time. A t0 or t1 that is not
    finite raises :class:`ConfigurationError`, before any step.

    A state with a polynomial among its entries or controls advances as
    one (6, N) block of coefficient rows (:func:`_block_step`), each
    float entry lifted once to a constant row (its value at coefficient
    0); every stage calls the kernel recorded, with the controls bound as
    its fixed values (:func:`~polycam.dapoly.record`). Any other state, a
    batch of arrays included, advances entry by entry on the generated
    step (:func:`_rk_step_fn`), numpy floats as Python floats. Both sum
    the stages in the tableau's order, a block's float entries taken as
    constant polynomials.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ConfigurationError(
            f"span times must be finite, not t={t0!r} to t={t1!r}")
    if t1 == t0:
        return list(y0)
    u = tuple(float(c) if isinstance(c, np.float64) else c for c in u)
    head = next((c for c in (*y0, *u) if isinstance(c, TaylorPoly)), None)
    if head is None:
        y = [float(c) if isinstance(c, np.float64) else c for c in y0]
        step, slope = _rk_step_fn(), _derivative_fn(model, u)
        guard_finite = all(isinstance(c, Number) for c in (*y, *u))
    else:
        y = np.zeros((6, head._tab.size))
        for i, c in enumerate(y0):
            if isinstance(c, TaylorPoly):
                head._check_same(c)
                y[i] = c.coef
            else:
                y[i, 0] = c
        step, guard_finite = _block_step, False
        slope = record(lambda rows, held: _derivative_fn(model, held)(rows),
                       head._tab.config, 6, u)
    steps = config.ends(t0, t1)
    if not steps:
        if not guard_finite:
            raise PropagationError(
                f"no steps for a polynomial or batched state from t={t0!r}: "
                "it needs a step count or a filled plan", time=t0)
        return _controlled_steps(y, t0, t1, slope, config)
    for h, end in steps:
        try:
            y = step(y, h, slope)
        except (ArithmeticError, ValueError) as exc:
            # a float or complex power that overflows raises here rather
            # than giving inf to the check below: both report the step's end
            raise PropagationError(
                f"propagation failed in the step to t={end!r}: {exc}",
                time=end) from exc
        if guard_finite and not cmath.isfinite(y[0] + y[1] + y[2]):
            raise PropagationError(
                f"singularity encountered near t={end!r}", time=end)
    return y if head is None else [TaylorPoly._raw(head._tab, row)
                                   for row in y]


def _kepler_terms(y: Sequence, dt: float, mu: float) -> tuple:
    """r, sigma = r.v / sqrt(mu), a and sqrt(a) of a state, and the c1, c2
    and M of its Kepler's equation over dt (see :func:`kepler_anomaly`)."""
    pos, vel, root_mu = y[:3], y[3:], math.sqrt(mu)
    r = sum(p * p for p in pos) ** 0.5
    sigma = sum(p * q for p, q in zip(pos, vel)) / root_mu
    alpha = 2.0 / r - sum(q * q for q in vel) / mu
    a = 1.0 / alpha
    root_a = a ** 0.5
    return r, sigma, a, root_a, (sigma / root_a, 1.0 - r * alpha,
                                 (root_mu * dt) * alpha / root_a)


def _kepler_step(x, c1, c2, mean):
    """One Newton step on Kepler's equation x + c1 (1 - cos x) - c2 sin x
    = mean, whose slope 1 + c1 sin x - c2 cos x = r / a is positive."""
    s, c = generic_sin_cos(x)
    return x - (x + c1 * (1.0 - c) - c2 * s - mean) / (1.0 + c1 * s - c2 * c)


def kepler_anomaly(y0: Sequence, u: Sequence, t0: float, t1: float,
                   model: DynamicsModel):
    """The eccentric-anomaly change x of a coast that
    :func:`propagate_vector` takes in one closed-form step on any plan,
    from the real or constant part of ``y0``; None where it integrates: a
    control other than a real zero, another model, a zero span, a state
    off a non-degenerate ellipse (alpha = 2/r - v^2/mu <= 0, or |r x v| <=
    1e-12 |r| |v|), a conic whose periapsis p / (1 + e) lies inside the
    body (p <= r_e (1 + e), p = |r x v|^2 / mu, e^2 = 1 - p alpha) or a
    Newton unconverged in 50 steps from x = M on x + c1 (1 - cos x) - c2
    sin x = M, M = sqrt(mu alpha^3) (t1 - t0), c1 = r.v sqrt(alpha / mu),
    c2 = 1 - r alpha (Battin 1999, ch. 4)."""
    if not (_is_coast(u) and model.kind == KEPLER and t1 != t0):
        return None
    y = [c.constant_part if isinstance(c, TaylorPoly) else c.real for c in y0]
    rr, vv = sum(c * c for c in y[:3]), sum(c * c for c in y[3:])
    hh = sum(c ** 2 for c in _cross(y[:3], y[3:]))  # |r x v|^2
    holds = np.all if isinstance(rr, np.ndarray) else bool
    mu, r_e = model.mu, model.r_e
    with np.errstate(all="ignore"):
        r, p = rr ** 0.5, hh / mu
        # p - r_e > r_e e, squared, times r: (1 - p alpha) r = r - p (2 -
        # r v^2 / mu) divides by nothing
        if not holds((rr > 0.0) & (vv * r < 2.0 * mu)
                     & (hh > 1e-24 * rr * vv) & (p > r_e)
                     & ((p - r_e) ** 2 * r
                        > r_e * r_e * (r - p * (2.0 - r * vv / mu)))):
            return None
    equation = _kepler_terms(y, t1 - t0, model.mu)[4]
    x = equation[2]
    for _ in range(50):
        x, last = _kepler_step(x, *equation), x
        if holds(abs(x - last) <= 1e-12 * (1.0 + abs(x))):
            return x
    return None


def _kepler_coast(y: list, x, dt: float, mu: float) -> list:
    """The f and g solution over ``dt`` from :func:`kepler_anomaly`'s x,
    refined by Newton steps in the state's own arithmetic that each double
    the exact orders: one if complex, ceil(log2(n + 1)) at order n."""
    r, sigma, a, root_a, equation = _kepler_terms(y, dt, mu)
    poly = next((c for c in y if isinstance(c, TaylorPoly)), None)
    extra = (math.ceil(math.log2(poly.max_order + 1)) if poly
             else int(any(np.iscomplexobj(c) for c in y)))
    for _ in range(extra):
        x = _kepler_step(x, *equation)
    s, c = generic_sin_cos(x)
    one_c, pos, vel, root_mu = 1.0 - c, y[:3], y[3:], math.sqrt(mu)
    f = 1.0 - a / r * one_c
    g = (a * sigma * one_c + r * root_a * s) / root_mu
    r_new = r + (a - r) * one_c + sigma * root_a * s
    f_dot = -(root_mu * root_a) * s / (r_new * r)
    g_dot = 1.0 - a / r_new * one_c
    return ([f * p + g * q for p, q in zip(pos, vel)]
            + [f_dot * p + g_dot * q for p, q in zip(pos, vel)])


# ---------------------------------------------------------------------------
# Frames and orbit periods.
# ---------------------------------------------------------------------------

def _cross(a: Sequence, b: Sequence) -> list:
    """a x b, entry by entry as ``np.cross`` forms it."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def rtn_rotation(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotation with rows (radial, transverse, normal) expressed inertially,
    at position ``r`` and velocity ``v``.

    Multiplying an inertial vector by this matrix yields its RTN components;
    the transpose maps RTN components back to the inertial frame.
    """
    rn = np.linalg.norm(r)
    vn = np.linalg.norm(v)
    if rn == 0.0 or vn == 0.0:
        raise FrameError("zero position or velocity")
    h = np.array(_cross(r.tolist(), v.tolist()))
    hn = np.linalg.norm(h)
    if hn <= 1e-12 * rn * vn:
        raise FrameError("position and velocity are parallel")
    radial = (r / rn).tolist()
    normal = (h / hn).tolist()
    return np.array([radial, _cross(normal, radial), normal])


def osculating_period(state: SpacecraftState, model: DynamicsModel) -> float:
    """Two-body osculating orbital period in seconds."""
    r = float(np.linalg.norm(state.r))
    if r == 0.0:
        raise ConfigurationError("state sits at the center of attraction")
    v2 = float(state.v @ state.v)
    inv_a = 2.0 / r - v2 / model.mu
    if inv_a <= 0.0:
        raise ConfigurationError("state is not on a closed orbit")
    a = 1.0 / inv_a
    return 2.0 * math.pi * math.sqrt(a ** 3 / model.mu)
