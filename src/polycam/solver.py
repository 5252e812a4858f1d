"""Order-escalating solver for the log collision-probability polynomial
program.

The program minimizes the control energy subject to the truncated
polynomial constraint "log collision probability equals the log of its
target". Order one has a closed-form greedy solution along the gradient.
Each higher order linearizes its constraint at a point through a
pseudo-gradient (the gradient plus single-free-index contractions of the
higher-degree terms, one product of a per-map operator) and finds the
point that this greedy step maps to itself, by Newton from the previous
order's point. The log's exact quadratic part leaves every order a fixed
point near the lower orders' path, so Newton is the only solver path;
only the final order must converge.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .conjunction import ConjunctionEvent, poc_chan
from .dynamics import PropagationConfig
from .errors import (ConfigurationError, DegenerateGradientError,
                     InfeasibleWithBoundError, NonConvergenceError)
from .mapbuilder import (ControlSchedule, IMPULSIVE, PocMap, Start,
                         build_poc_map, gradient_norm_per_node,
                         propagate_with_controls)

__all__ = [
    "SolverConfig", "ManeuverSolution",
    "solve_order1", "pseudo_gradient", "solve_order_j", "solve_recursive",
    "filter_nodes", "solve_thrust_limited",
]

# Gradients are in log probability per scaled unit (1 m/s or 1e-4 m/s^2):
# below this floor one e-fold of the probability would take 1e20 units.
_GRADIENT_FLOOR = 1e-20
# Upper bounds on the solve: the largest order in use is 5 (a 12-variable
# order-5 map already holds 6188 coefficients), and both bounds keep a run
# finite.
MAX_ORDER = 10
MAX_ITERATIONS = 100_000
# Ranking norms closer than this share of the grid's largest norm tie: 50
# times the ranking's own error, and 100 times the gap between a Kepler
# arc's norm and the same arc's one orbit earlier.
_NORM_TIE = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Targets and iteration limits for the recursive solve.

    ``e_tol`` bounds |G(phi) - phi|, the greedy step left at a converged
    order's point, in scaled controls. The replay adds an impulse of about
    3e-5 km/s to a speed of about 7.5 km/s, which rounds it to about 3e-11
    of its size, so a tolerance of 1e-12 stops below what the replay can
    resolve.
    """

    max_order: int = 5
    e_tol: float = 1e-12
    max_iterations: int = 200
    target_poc: float = 1e-6

    def __post_init__(self):
        if not 1 <= self.max_order <= MAX_ORDER:
            raise ConfigurationError(f"max_order must lie in [1, {MAX_ORDER}]")
        if not 0.0 < self.e_tol < math.inf:
            raise ConfigurationError("e_tol must be positive and finite")
        if not 1 <= self.max_iterations <= MAX_ITERATIONS:
            raise ConfigurationError(
                f"max_iterations must lie in [1, {MAX_ITERATIONS}]")
        if not 0.0 < self.target_poc < 1.0:
            raise ConfigurationError("target PoC must lie in (0, 1)")


@dataclass(frozen=True)
class ManeuverSolution:
    """Solved control history in physical units plus solve diagnostics.

    ``phi`` stacks the per-control physical values (m/s for impulses,
    m/s^2 for held accelerations) of ``schedule``, the control layout it
    is stacked on; ``per_node_dv_ms`` reports the equivalent velocity
    increment vector of each control in the local frame. ``residual`` is
    |exp(map) - target| at the solution, in probability.
    ``per_order_converged`` marks the escalation orders whose Newton
    iteration reached a fixed point (an intermediate order that did not
    still hands the point it stopped at to the next order), and
    ``per_order_iterations`` counts each order's pseudo-gradient
    evaluations.
    """

    phi: np.ndarray
    per_order_iterations: tuple[int, ...]
    residual: float
    dv_total_ms: float
    per_node_dv_ms: tuple
    schedule: ControlSchedule
    wall_time_s: float
    per_order_converged: tuple[bool, ...]

    @property
    def node_epochs(self) -> tuple[float, ...]:
        """Epochs of the nodes that carry controls."""
        return tuple(self.schedule.node_epochs[i]
                     for i in self.schedule.control_node_indices())


def _log_gap(pmap: PocMap, config: SolverConfig) -> float:
    """The constraint's right-hand side: log target - log ballistic."""
    return math.log(config.target_poc) - pmap.poly.constant_part


def solve_order1(pmap: PocMap, rho: float) -> np.ndarray:
    """Greedy first-order control: the shortest vector meeting the
    linearized constraint, aligned with the gradient."""
    grad = pmap.poly.gradient_at_zero()
    norm = float(np.linalg.norm(grad))
    if norm < _GRADIENT_FLOOR:
        raise DegenerateGradientError(
            "probability gradient vanishes; control has no first-order authority")
    return (rho / norm) * (grad / norm)


def pseudo_gradient(pmap: PocMap, j: int, phi_tilde: np.ndarray) -> tuple:
    """Gradient g of the order-j constraint linearized at ``phi_tilde``,
    and a function that gives its (M, M) derivative, both from one pass
    of monomial values.

    g is a row vector: the degree-1 coefficients plus, for every degree k
    in [2, j], the degree-k homogeneous part contracted with k-1 copies of
    the linearization point; one product of the map's contraction matrix.
    The derivative is formed only when asked for, as one product of the
    derivative matrix with the leading values.
    """
    if not 1 <= j <= pmap.poly.max_order:
        raise ConfigurationError(
            f"order {j} outside [1, {pmap.poly.max_order}]")
    values = pmap.poly.monomials(phi_tilde, j)
    inner = math.comb(pmap.poly.n_vars + j - 2, pmap.poly.n_vars)
    return (pmap.contraction[0][:, :len(values)] @ values,
            lambda: pmap.contraction[1][:, :, :inner] @ values[:inner])


def solve_order_j(pmap: PocMap, j: int, phi_init: np.ndarray,
                  config: SolverConfig) -> tuple[np.ndarray, int, bool]:
    """Fixed point of the order-j greedy linearization map G, by Newton on
    F(phi) = G(phi) - phi from ``phi_init``. Returns (point,
    pseudo-gradient evaluations, converged).

    G(phi) = rho u, u = g / |g|^2, is the greedy solution of the constraint
    linearized at phi, g the pseudo-gradient there, and its Jacobian is
    rho ((u.u) Dg - 2 u u^T Dg), Dg from the map's contraction, formed
    only at the points a step starts from. A step solves (J_G - I) delta
    = -F and halves (down to 1/64) until |F| decreases; each trial is one
    evaluation. The order converges when |F| <= ``e_tol``, returning G
    there. After ``max_iterations`` steps, a step no halving improves or
    a singular system, it returns the point it stopped at, not converged.
    """
    rho = _log_gap(pmap, config)
    evals = 0

    def displacement(point: np.ndarray) -> tuple:
        nonlocal evals
        evals += 1
        g, derivative = pseudo_gradient(pmap, j, point)
        norm2 = float(g @ g)
        if math.sqrt(norm2) < _GRADIENT_FLOOR:
            raise DegenerateGradientError(f"pseudo-gradient vanished at order {j}")
        step = (rho / norm2) * g - point
        return float(np.linalg.norm(step)), step, g / norm2, derivative

    phi = np.asarray(phi_init, dtype=np.float64)
    size, step, u, derivative = displacement(phi)
    for _ in range(config.max_iterations):
        if size <= config.e_tol:
            return phi + step, evals, True
        dg = derivative()
        jac = rho * ((u @ u) * dg - 2.0 * np.outer(u, u @ dg))
        try:
            delta = np.linalg.solve(jac - np.eye(len(phi)), -step)
        except np.linalg.LinAlgError:
            break
        for halvings in range(7):
            trial = phi + 0.5 ** halvings * delta
            found = displacement(trial)
            if found[0] < size:
                break
        else:
            break
        phi, (size, step, u, derivative) = trial, found
    return phi, evals, False


def _package_solution(schedule: ControlSchedule, phi_physical: np.ndarray,
                      residual: float, iterations: tuple[int, ...],
                      converged: tuple[bool, ...],
                      started: float) -> ManeuverSolution:
    per_node_dv, dv_total = schedule.delta_v(phi_physical)
    return ManeuverSolution(
        phi=phi_physical,
        per_order_iterations=iterations,
        residual=residual,
        dv_total_ms=dv_total,
        per_node_dv_ms=per_node_dv,
        schedule=schedule,
        wall_time_s=time.perf_counter() - started,
        per_order_converged=converged,
    )


def solve_recursive(pmap: PocMap, config: SolverConfig) -> ManeuverSolution:
    """Escalate the constraint order from 1 to n, seeding each order with
    the previous order's point. Every order from 2 runs
    :func:`solve_order_j`; orders 2..n-1 hand on its end point, converged
    or not, and order n must converge. A ballistic probability at or
    below the target yields the zero maneuver.
    """
    started = time.perf_counter()
    n = config.max_order
    if n > pmap.poly.max_order:
        raise ConfigurationError(
            f"solver order {n} exceeds map order {pmap.poly.max_order}")
    rho = _log_gap(pmap, config)
    if rho >= 0.0:
        phi = np.zeros(pmap.poly.n_vars)
        iterations = (1,) + (0,) * (n - 1)
        converged = (True,) * n
    else:
        phi = solve_order1(pmap, rho)
        iterations = (1,)
        converged = (True,)
        for j in range(2, n + 1):
            phi, used, ok = solve_order_j(pmap, j, phi, config)
            iterations += (used,)
            converged += (ok,)
        if not converged[-1]:
            raise NonConvergenceError(
                f"final order {n} found no fixed point after {iterations[-1]} "
                f"pseudo-gradient evaluations",
                last_iterate=phi, iterations=iterations[-1])
    residual = abs(math.exp(pmap.poly.eval(phi)) - config.target_poc)
    return _package_solution(pmap.schedule, phi * pmap.scaling, residual,
                             iterations, converged, started)


def _ranked(event: ConjunctionEvent, times, template: ControlSchedule,
            config: PropagationConfig | None
            ) -> list[tuple[float, float, Start]]:
    """The ranking's (time, norm, Start) candidates by decreasing norm, one
    per distinct epoch of the grid. Norms within ``_NORM_TIE`` times the
    grid's largest norm of the largest one left tie with it, and the
    earliest of them comes next."""
    distinct = list(dict.fromkeys(float(t) for t in times))
    left = sorted(gradient_norm_per_node(event, distinct, template, config),
                  key=lambda item: item[0])
    band = _NORM_TIE * max(norm for _, norm, _ in left)
    out = []
    while left:
        top = max(norm for _, norm, _ in left) - band
        out.append(left.pop(next(k for k, c in enumerate(left) if c[1] >= top)))
    return out


def filter_nodes(event: ConjunctionEvent, dense_times, keep: int,
                 template: ControlSchedule,
                 config: PropagationConfig | None = None
                 ) -> tuple[ControlSchedule, Start]:
    """Keep the ``keep`` candidate epochs with the largest first-order
    probability-gradient norm (norms within 1e-8 of the grid's largest
    tie, and the earlier time wins), as the template retimed to them in
    chronological order, and the ranking's
    :class:`~polycam.mapbuilder.Start` at the first of them, from which a
    map of that schedule starts. A repeated epoch counts once."""
    ranked = _ranked(event, dense_times, template, config)
    if not 1 <= keep <= len(ranked):
        raise ConfigurationError(
            f"keep must lie in [1, {len(ranked)}], the grid's distinct "
            f"epochs, got {keep}")
    kept = sorted(ranked[:keep], key=lambda item: item[0])
    return template.retimed([t for t, _, _ in kept]), kept[0][2]


def solve_thrust_limited(event: ConjunctionEvent, dense_times, u_max_ms: float,
                         config: SolverConfig, template: ControlSchedule,
                         prop_config: PropagationConfig | None = None
                         ) -> tuple[ManeuverSolution, Start]:
    """Sequential bounded-impulse design over a ranked grid of epochs.

    The highest-authority node is solved alone; whenever the required
    impulse exceeds ``u_max_ms`` that node is saturated at the bound along
    the solved direction, held fixed in the later maps (shrinking the
    remaining probability gap), and the next-ranked node is brought in.
    Each node's control follows ``template`` (a fixed direction stays
    pinned); the returned schedule holds the engaged impulses as free
    vectors. Stops at the first unsaturated solve within the bound;
    exhausting the grid with gap remaining raises, reporting the residual
    probability of a real replay. Every map, and that replay, starts from
    the ranking's :class:`~polycam.mapbuilder.Start` at its first control
    event with the saturated impulses as its fixed ones, and steps on its
    plan, which ``prop_config`` sets for the ranking, so the orbit is
    back-propagated once. Returns the solution and the ranking's Start at
    its first engaged node, without fixed impulses, from which it
    validates.
    """
    if not u_max_ms > 0.0:
        raise ConfigurationError("u_max must be positive")
    started = time.perf_counter()
    if template.mode != IMPULSIVE:
        raise ConfigurationError("thrust-limited sequencing applies to impulses")

    ranked = _ranked(event, dense_times, template, prop_config)
    starts = {t: start for t, _, start in ranked}
    saturated: list[tuple[float, np.ndarray]] = []
    for t, _, _ in ranked:
        first = min([t, *(s for s, _ in saturated)])
        start = starts[first]._replace(fixed_impulses=tuple(saturated))
        pmap = build_poc_map(event, template.retimed([t]),
                             order=config.max_order, start=start)
        sol = solve_recursive(pmap, config)
        dv = np.asarray(sol.per_node_dv_ms[0])
        magnitude = float(np.linalg.norm(dv))
        if magnitude <= u_max_ms * (1.0 + 1e-12):
            engaged = sorted(saturated + [(t, dv)], key=lambda item: item[0])
            schedule = ControlSchedule(
                mode=IMPULSIVE, node_epochs=tuple(t for t, _ in engaged))
            return _package_solution(
                schedule, np.concatenate([v for _, v in engaged]),
                sol.residual, sol.per_order_iterations,
                sol.per_order_converged, started), starts[first]
        saturated.append((t, u_max_ms * dv / magnitude))

    # the grid is never empty here: ranking rejects an empty one; the last
    # map's start, with its node saturated too
    residual_poc = poc_chan(propagate_with_controls(
        event, template.retimed(ranked[-1][:1]), None,
        start._replace(fixed_impulses=tuple(saturated))),
        event.bplane.p_b, event.hbr_km)
    raise InfeasibleWithBoundError(
        f"all {len(ranked)} nodes saturated at {u_max_ms} m/s with "
        f"probability gap remaining (residual PoC {residual_poc})",
        residual_poc=residual_poc)
