"""Warm micro-benchmarks of single layers: one polynomial product per
algebra and one RK7(8) step per scalar type."""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from polycam.dapoly import AlgebraConfig, TaylorPoly
from polycam.dynamics import KEPLER, DynamicsModel, PropagationConfig, \
    propagate_vector

MUL_ALGEBRAS = ((3, 5), (6, 5), (9, 5), (12, 5))
BATCHES = 7
BATCH_S = 0.03


def algebra_key(n_vars: int, order: int) -> str:
    return f"m{n_vars}o{order}"


def algebra_size(n_vars: int, order: int) -> int:
    """Monomials of total degree <= order in n_vars variables."""
    return math.comb(n_vars + order, order)


def product_triples(n_vars: int, order: int) -> int:
    """Pairs of monomials whose product stays within the order: the length
    of the gather/scatter index arrays of one truncated product."""
    per_degree = [math.comb(d + n_vars - 1, n_vars - 1)
                  for d in range(order + 1)]
    return sum(per_degree[a] * per_degree[b]
               for a in range(order + 1) for b in range(order + 1 - a))


def product_bytes_computed(n_vars: int, order: int) -> int:
    """Bytes one product moves, computed from the table sizes (8-byte
    indices and floats), cache effects ignored: two index arrays and the two
    gathered operands read, the products written and read back with their
    destination indices by the scatter-add, and the result written."""
    t = product_triples(n_vars, order)
    return 8 * (2 * t + 2 * t + t + 2 * t + algebra_size(n_vars, order))


def _per_call_us(call) -> float:
    """Median over batches of the time per call, in microseconds."""
    call()
    began = time.perf_counter()
    call()
    once = max(time.perf_counter() - began, 1e-7)
    reps = max(1, int(BATCH_S / once))
    samples = []
    for _ in range(BATCHES):
        began = time.perf_counter()
        for _ in range(reps):
            call()
        samples.append((time.perf_counter() - began) / reps)
    return 1e6 * statistics.median(samples)


def _random_poly(rng, n_vars: int, order: int) -> TaylorPoly:
    cfg = AlgebraConfig(n_vars, order)
    return TaylorPoly(cfg, rng.standard_normal(algebra_size(n_vars, order)))


def mul_us(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out = {}
    for n_vars, order in MUL_ALGEBRAS:
        a = _random_poly(rng, n_vars, order)
        b = _random_poly(rng, n_vars, order)
        out[f"dapoly.mul_us.{algebra_key(n_vars, order)}"] = \
            _per_call_us(lambda: a * b)
    return out


def _leo_state(rng):
    radius = 7000.0 + 100.0 * rng.uniform()
    speed = math.sqrt(DynamicsModel(kind=KEPLER).mu / radius)
    return [radius, 0.0, 0.0, 0.0, speed * 0.8, speed * 0.6]


def step_us(seed: int) -> dict[str, float]:
    """One fixed RK7(8) step of a LEO state for each scalar type."""
    rng = np.random.default_rng(seed)
    model = DynamicsModel(kind=KEPLER)
    one_step = PropagationConfig(steps=1)
    zero = (0.0, 0.0, 0.0)
    y_float = _leo_state(rng)
    batch = [np.full(256, c) + 1e-3 * rng.standard_normal(256)
             for c in y_float]

    def poly_state(n_vars):
        cfg = AlgebraConfig(n_vars, 5)
        y = [TaylorPoly.constant(cfg, c) for c in y_float]
        for k in range(3):
            y[3 + k] = y[3 + k] + TaylorPoly.variable(cfg, k) * 1e-3
        return y

    states = {"float": y_float, "batch256": batch,
              "poly_m3o5": poly_state(3), "poly_m9o5": poly_state(9)}
    return {f"dynamics.step_us.{name}": _per_call_us(
                lambda y=y: propagate_vector(y, zero, 0.0, 10.0, model,
                                             one_step))
            for name, y in states.items()}
