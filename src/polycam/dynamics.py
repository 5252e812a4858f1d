"""Equations of motion, local frames and a fixed-step RK7(8) propagator.

Three dynamics regimes are supported: two-body, two-body plus the J2
oblateness term (inertial ECI frame, km / km/s / seconds), and the circular
restricted three-body problem (rotating synodic frame, nondimensional
units). The propagator is generic over the scalar algebra: states may hold
plain floats, complex scalars (complex-step derivatives), batched numpy
arrays, or :class:`~polycam.dapoly.TaylorPoly` scalars. Polynomial and
batched states advance as one (6, N) block, one array operation per term
of an RK stage; float and complex states advance entry by entry, as
Python scalars. Both give every entry the values of the entry-by-entry
combination. A polynomial propagation records the kernel once as a
program of row functions (:func:`~polycam.dapoly.record`) and runs it on
the block's rows at every stage whose six rows are polynomials.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Number
from typing import Sequence

import numpy as np

from .dapoly import TaylorPoly, generic_power, record
from .errors import ConfigurationError, FrameError, PropagationError

__all__ = [
    "ECI", "SYNODIC", "KEPLER", "J2", "CR3BP",
    "SpacecraftState", "DynamicsModel", "PropagationConfig",
    "propagate_vector", "rtn_rotation", "osculating_period",
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


@dataclass(frozen=True)
class PropagationConfig:
    """Fixed-step integrator settings: steps per segment."""

    steps: int = 100

    def __post_init__(self):
        if not 1 <= self.steps <= MAX_STEPS:
            raise ConfigurationError(
                f"step count must lie in [1, {MAX_STEPS}]")


# ---------------------------------------------------------------------------
# Fehlberg 13-stage 7(8) tableau, combined with the 7th-order weights.
# Stages 11 and 12 only feed the 8th-order weights of the embedded pair, so
# the 7th-order combination needs stages 0-10 alone.
# ---------------------------------------------------------------------------

def _fehlberg_78():
    F = Fraction
    beta = [
        [],
        [F(2, 27)],
        [F(1, 36), F(1, 12)],
        [F(1, 24), 0, F(1, 8)],
        [F(5, 12), 0, F(-25, 16), F(25, 16)],
        [F(1, 20), 0, 0, F(1, 4), F(1, 5)],
        [F(-25, 108), 0, 0, F(125, 108), F(-65, 27), F(125, 54)],
        [F(31, 300), 0, 0, 0, F(61, 225), F(-2, 9), F(13, 900)],
        [F(2), 0, 0, F(-53, 6), F(704, 45), F(-107, 9), F(67, 90), F(3)],
        [F(-91, 108), 0, 0, F(23, 108), F(-976, 135), F(311, 54), F(-19, 60),
         F(17, 6), F(-1, 12)],
        [F(2383, 4100), 0, 0, F(-341, 164), F(4496, 1025), F(-301, 82),
         F(2133, 4100), F(45, 82), F(45, 164), F(18, 41)],
        [F(3, 205), 0, 0, 0, 0, F(-6, 41), F(-3, 205), F(-3, 41), F(3, 41),
         F(6, 41), 0],
        [F(-1777, 4100), 0, 0, F(-341, 164), F(4496, 1025), F(-289, 82),
         F(2193, 4100), F(51, 82), F(33, 164), F(12, 41), 0, F(1)],
    ]
    w7 = [F(41, 840), 0, 0, 0, 0, F(34, 105), F(9, 35), F(9, 35), F(9, 280),
          F(9, 280), F(41, 840), 0, 0]
    beta_f = [[float(b) for b in row] for row in beta]
    return beta_f, [float(w) for w in w7]


_BETA, _W7 = _fehlberg_78()


_STAGES = tuple(range(11))
# the nonzero entries: (earlier stage, beta) per stage, (stage, weight)
_ROWS = {k: [(l, b) for l, b in enumerate(_BETA[k]) if b != 0.0]
         for k in _STAGES}
_WSEL = [(k, w) for k, w in enumerate(_W7) if w != 0.0]


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
    inv_r3 = generic_power(r2, -1.5)
    common = -mu * inv_r3
    ax, ay, az = common * x, common * yy, common * z
    if j2 != 0.0:
        inv_r2 = generic_power(r2, -1.0) if isinstance(r2, TaylorPoly) else 1.0 / r2
        k_j2 = (1.5 * j2 * r_e * r_e) * inv_r2
        five_z2_over_r2 = 5.0 * (z2 * inv_r2)
        plane = 1.0 + k_j2 * (1.0 - five_z2_over_r2)
        axial = 1.0 + k_j2 * (3.0 - five_z2_over_r2)
        ax, ay, az = ax * plane, ay * plane, az * axial
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
    inv1 = generic_power(d1sq, -1.5)
    inv2 = generic_power(d2sq, -1.5)
    # gradient of the effective potential, paper-sign convention:
    # includes the full -|r|^2/2 rotational term
    gx = -x + (1.0 - mu) * xe * inv1 + mu * xm * inv2
    gy = -yy + (1.0 - mu) * yy * inv1 + mu * yy * inv2
    gz = -z + (1.0 - mu) * z * inv1 + mu * z * inv2
    ax, ay, az = 2.0 * vy - gx, -2.0 * vx - gy, -z - gz
    if u is not None:
        ax, ay, az = ax + u[0], ay + u[1], az + u[2]
    return vx, vy, vz, ax, ay, az


def _derivative_fn(model: DynamicsModel, u: Sequence):
    if all(isinstance(c, (int, float)) and c == 0.0 for c in u):
        u = None  # a coast
    if model.kind == CR3BP:
        return lambda y: _kernel_cr3bp(y, u, CR3BP_MASS_RATIO)
    j2 = J2_EARTH if model.kind == J2 else 0.0
    mu, r_e = model.mu, model.r_e
    return lambda y: _kernel_kepler_j2(y, u, mu, r_e, j2)


def _is_row(c) -> bool:
    """Whether a state entry takes a whole row of a block."""
    return isinstance(c, TaylorPoly) or (isinstance(c, np.ndarray) and c.ndim > 0)


class _Block:
    """A polynomial or batched state held as one (6, ...) array.

    Row i holds entry i: the coefficient vector of a polynomial, or the
    array of a batch. A float entry becomes a constant row: its value at
    coefficient 0 (zeros elsewhere) or in every batch element. Bit i of
    the mask records that row i has met a polynomial or an array; until
    then the kernel sees the row as the float it stands for, so every row
    meets the arithmetic it would meet entry by entry. A polynomial
    block's stages use :meth:`view` and :meth:`lift` only while a row is
    a float; once all six rows are polynomials, the recorded kernel runs
    on the rows themselves.
    """

    def __init__(self, y0: Sequence, u: Sequence):
        rows = [c for c in (*y0, *u) if _is_row(c)]
        head = rows[0]
        if isinstance(head, TaylorPoly):
            for c in rows[1:]:
                head._check_same(c)
            self._tab = head._tab
            self._shape = (6, head._tab.size)
            self._dtype = np.float64
        else:
            self._tab = None
            self._shape = (6, *head.shape)
            self._dtype = np.result_type(*rows)

    def lift(self, values: Sequence) -> tuple[np.ndarray, int]:
        """(block, mask) of six entries."""
        block = np.empty(self._shape, self._dtype)
        mask = 0
        for i, c in enumerate(values):
            if isinstance(c, TaylorPoly):
                block[i] = c.coef
                mask |= 1 << i
            elif self._tab is None:
                block[i] = c
                mask |= _is_row(c) << i
            else:
                block[i] = 0.0
                block[i, 0] = c
        return block, mask

    def view(self, state: tuple[np.ndarray, int]) -> list:
        """The six entries of a (block, mask) state, rows as views."""
        block, mask = state
        tab = self._tab
        out = []
        for i in range(6):
            row = block[i]
            if not mask >> i & 1:
                out.append(row.flat[0].item())
            elif tab is None:
                out.append(row)
            else:
                out.append(TaylorPoly._raw(tab, row))
        return out


_ALL_ROWS = 0b111111


def _scalar_axpy(y: list, a: float, f: Sequence) -> list:
    """y + a * f entry by entry, unrolled for the six entries."""
    y0, y1, y2, y3, y4, y5 = y
    f0, f1, f2, f3, f4, f5 = f
    return [y0 + a * f0, y1 + a * f1, y2 + a * f2,
            y3 + a * f3, y4 + a * f4, y5 + a * f5]


def _block_axpy(y: tuple[np.ndarray, int], a: float,
                f: tuple[np.ndarray, int]) -> tuple[np.ndarray, int]:
    """y + a * f over whole blocks; a row has met a polynomial or an array
    when it had in either."""
    return y[0] + a * f[0], y[1] | f[1]


def propagate_vector(y0: Sequence, u: Sequence, t0: float, t1: float,
                     model: DynamicsModel,
                     config: PropagationConfig | None = None) -> list:
    """Integrate a 6-component state of generic scalars from t0 to t1.

    ``y0`` entries may be floats, complex scalars (Python or numpy),
    same-shape numpy arrays (batched states) or TaylorPoly scalars sharing
    one algebra. The control ``u`` is held constant over the span
    (first-order hold); backward spans are allowed. Fixed step count makes
    the result deterministic for a given config. A real or complex scalar
    state that stops being finite raises :class:`PropagationError`.

    A state with a polynomial or an array among its entries or controls
    advances as one :class:`_Block`, one array operation per stage term;
    a scalar state advances entry by entry, numpy floats as Python floats.
    Both give the values of the entry-by-entry combination.
    """
    config = config or PropagationConfig()
    if t1 == t0:
        return list(y0)
    u = tuple(float(c) if isinstance(c, np.float64) else c for c in u)
    deriv = _derivative_fn(model, u)
    h = (t1 - t0) / config.steps
    block = _Block(y0, u) if any(_is_row(c) for c in (*y0, *u)) else None
    if block is not None:
        y, axpy, guard_finite = block.lift(y0), _block_axpy, False
        run = None if block._tab is None else record(
            lambda rows, held: _derivative_fn(model, held)(rows),
            block._tab.config, 6, u)

        def slope(state):
            if run is not None and state[1] == _ALL_ROWS:
                return np.array(run(state[0])), _ALL_ROWS
            return block.lift(deriv(block.view(state)))
    else:
        y = [float(c) if isinstance(c, np.float64) else c for c in y0]
        axpy, slope = _scalar_axpy, deriv
        guard_finite = all(isinstance(c, Number) for c in (*y, *u))
    t = t0
    for step in range(config.steps):
        try:
            f = {}
            for k in _STAGES:
                yk = y
                for l, b in _ROWS[k]:
                    yk = axpy(yk, h * b, f[l])
                f[k] = slope(yk)
            for k, w in _WSEL:
                y = axpy(y, h * w, f[k])
        except (ArithmeticError, ValueError) as exc:
            raise PropagationError(
                f"propagation failed at t={t!r}: {exc}", time=t) from exc
        t = t0 + (step + 1) * h
        if guard_finite and not cmath.isfinite(y[0] + y[1] + y[2]):
            raise PropagationError(
                f"singularity encountered near t={t!r}", time=t)
    return y if block is None else block.view(y)


# ---------------------------------------------------------------------------
# Frames and orbit periods.
# ---------------------------------------------------------------------------

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
    h = np.cross(r, v)
    hn = np.linalg.norm(h)
    if hn <= 1e-12 * rn * vn:
        raise FrameError("position and velocity are parallel")
    radial = r / rn
    normal = h / hn
    transverse = np.cross(normal, radial)
    return np.vstack([radial, transverse, normal])


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
