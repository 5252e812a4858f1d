"""Integrals of motion that the propagation tests check for drift."""

import math

import numpy as np

from polycam.dynamics import CR3BP_MASS_RATIO, DynamicsModel, SpacecraftState


def specific_energy(state: SpacecraftState, model: DynamicsModel) -> float:
    """Two-body specific orbital energy v^2/2 - mu/r."""
    return float(state.v @ state.v) / 2.0 - model.mu / float(np.linalg.norm(state.r))


def jacobi_constant(state: SpacecraftState, model: DynamicsModel) -> float:
    """Synodic-frame integral of motion 2*U - v^2."""
    x, y, z = state.r
    mu = CR3BP_MASS_RATIO
    d1 = math.sqrt((x + mu) ** 2 + y * y + z * z)
    d2 = math.sqrt((x - 1.0 + mu) ** 2 + y * y + z * z)
    potential = (x * x + y * y) / 2.0 + (1.0 - mu) / d1 + mu / d2
    return 2.0 * potential - float(state.v @ state.v)
