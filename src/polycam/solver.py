"""Order-escalating solver for the collision-probability polynomial program.

The program minimizes the control energy subject to the truncated
polynomial constraint "collision probability equals its target". Order one
has a closed-form greedy solution along the probability gradient. Each
higher order linearizes its constraint about the previous order's solution
through a pseudo-gradient (the gradient plus single-free-index contractions
of the higher-degree terms) and iterates that greedy step to a fixed point.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .conjunction import ConjunctionEvent, poc_chan
from .dapoly import contract_no_first_mode
from .dynamics import PropagationConfig
from .errors import (ConfigurationError, DegenerateGradientError,
                     InfeasibleWithBoundError, NonConvergenceError)
from .mapbuilder import (ControlSchedule, IMPULSIVE, PocMap, build_poc_map,
                         gradient_norm_per_node, propagate_with_controls)

__all__ = [
    "SolverConfig", "ManeuverSolution",
    "solve_order1", "pseudo_gradient", "solve_order_j", "solve_recursive",
    "filter_nodes", "solve_thrust_limited",
]

_GRADIENT_FLOOR = 1e-30


@dataclass(frozen=True)
class SolverConfig:
    """Targets and iteration limits for the recursive solve."""

    max_order: int = 5
    e_tol: float = 1e-10
    max_iterations: int = 200
    target_poc: float = 1e-6

    def __post_init__(self):
        if self.max_order < 1:
            raise ConfigurationError("max_order must be >= 1")
        if not 0.0 < self.e_tol < math.inf:
            raise ConfigurationError("e_tol must be positive and finite")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if not 0.0 < self.target_poc < 1.0:
            raise ConfigurationError("target PoC must lie in (0, 1)")


@dataclass(frozen=True)
class ManeuverSolution:
    """Solved control history in physical units plus solve diagnostics.

    ``phi`` stacks the per-control physical values (m/s for impulses,
    m/s^2 for held accelerations) of ``schedule``, the control layout it
    is stacked on; ``per_node_dv_ms`` reports the equivalent velocity
    increment vector of each control in the local frame. ``residual`` is
    the map-constraint mismatch at the solution. ``per_order_converged``
    marks the escalation orders whose iteration reached a fixed point
    (intermediate orders whose truncated constraint has no solution hand
    their best iterate to the next order instead).
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


def solve_order1(pmap: PocMap, rho: float) -> np.ndarray:
    """Greedy first-order control: the shortest vector meeting the
    linearized constraint, aligned with the probability gradient."""
    grad = pmap.gradient()
    if rho == 0.0:
        return np.zeros(pmap.n_vars)
    norm = float(np.linalg.norm(grad))
    if norm < _GRADIENT_FLOOR:
        raise DegenerateGradientError(
            "probability gradient vanishes; control has no first-order authority")
    return (rho / norm) * (grad / norm)


def pseudo_gradient(pmap: PocMap, j: int, phi_tilde: np.ndarray) -> np.ndarray:
    """Gradient of the order-j constraint linearized at ``phi_tilde``.

    Row vector: the degree-1 coefficients plus, for every degree k in
    [2, j], the degree-k homogeneous part contracted with k-1 copies of
    the linearization point.
    """
    if not 1 <= j <= pmap.order:
        raise ConfigurationError(f"order {j} outside [1, {pmap.order}]")
    phi_tilde = np.asarray(phi_tilde, dtype=np.float64)
    g = pmap.gradient()
    for k in range(2, j + 1):
        g = g + contract_no_first_mode(pmap.poly, k, phi_tilde)
    return g


def _quadratic_matrix(pmap: PocMap) -> np.ndarray:
    """Symmetric matrix S with x^T S x equal to the degree-2 part."""
    m = pmap.n_vars
    s = np.zeros((m, m))
    for exps, c in pmap.poly.homogeneous(2).coeffs.items():
        idx = [k for k, e in enumerate(exps) for _ in range(e)]
        a, b = idx[0], idx[1]
        if a == b:
            s[a, a] = c
        else:
            s[a, b] = s[b, a] = c / 2.0
    return s


class _PseudoGradientModel:
    """Order-j pseudo-gradient and the greedy step it defines; counts its
    evaluations."""

    def __init__(self, pmap: PocMap, j: int, rho: float):
        self.pmap = pmap
        self.j = j
        self.rho = rho
        self.evals = 0

    def gradient(self, point: np.ndarray) -> np.ndarray:
        self.evals += 1
        return pseudo_gradient(self.pmap, self.j, point)

    def greedy(self, point: np.ndarray) -> np.ndarray:
        g = self.gradient(point)
        norm = float(np.linalg.norm(g))
        if norm < _GRADIENT_FLOOR:
            raise DegenerateGradientError(
                f"pseudo-gradient vanished at order {self.j}")
        return (self.rho / norm) * (g / norm)

    def fixed_point_residual(self, point: np.ndarray) -> np.ndarray:
        g = self.gradient(point)
        norm = float(np.linalg.norm(g))
        if norm < _GRADIENT_FLOOR:
            return np.full_like(point, 1e6)
        return (self.rho / norm) * (g / norm) - point


def _damped_picard(model: _PseudoGradientModel, start: np.ndarray,
                   budget: int, e_tol: float):
    """Substitution with step halving when the displacement grows.

    Returns (converged, point). A stall counter aborts runs orbiting a
    displacement plateau.
    """
    phi_tilde = np.asarray(start, dtype=np.float64)
    raw = model.greedy(phi_tilde)
    stalls = 0
    for _ in range(budget):
        step = raw - phi_tilde
        displacement = float(np.linalg.norm(step))
        if displacement <= e_tol:
            return True, raw
        factor = 1.0
        best = None
        while factor >= 1.0 / 64.0:
            candidate = phi_tilde + factor * step
            cand_raw = model.greedy(candidate)
            cand_disp = float(np.linalg.norm(cand_raw - candidate))
            if best is None or cand_disp < best[0]:
                best = (cand_disp, candidate, cand_raw)
            if cand_disp < displacement:
                break
            factor /= 2.0
        stalls = stalls + 1 if best[0] >= displacement else 0
        _, phi_tilde, raw = best
        if stalls >= 10:
            break
    return False, phi_tilde


def _polished_root(model: _PseudoGradientModel, start: np.ndarray,
                   e_tol: float) -> np.ndarray | None:
    """Dogleg root find on the fixed-point residual; verified result."""
    from scipy import optimize

    result = optimize.root(model.fixed_point_residual, start, method="hybr",
                           options={"xtol": e_tol * 1e-3})
    x = np.asarray(result.x, dtype=np.float64)
    if float(np.linalg.norm(model.fixed_point_residual(x))) <= e_tol:
        return model.greedy(x)
    return None


def _secular_order2_roots(pmap: PocMap, rho: float) -> list[np.ndarray]:
    """All order-2 fixed points via the linear-parallelism family.

    An order-2 fixed point satisfies phi parallel to grad + S*phi, giving
    phi(a) = a (I - a S)^-1 grad with the scalar equation T2(phi(a)) = rho;
    roots are swept per branch between the poles 1/eig(S). Returned sorted
    by control magnitude.
    """
    grad = pmap.gradient()
    if float(np.linalg.norm(grad)) < _GRADIENT_FLOOR:
        return []
    s = _quadratic_matrix(pmap)
    m = pmap.n_vars
    h1 = pmap.poly.homogeneous(1)
    h2 = pmap.poly.homogeneous(2)

    def phi_of(alpha: float) -> np.ndarray:
        return alpha * np.linalg.solve(np.eye(m) - alpha * s, grad)

    def value(alpha: float) -> float:
        x = phi_of(alpha)
        return h1.eval(x) + h2.eval(x) - rho

    eigvals = np.linalg.eigvalsh(s)
    poles = sorted(1.0 / v for v in eigvals if v != 0.0)
    span = 10.0 / max(abs(v) for v in np.append(eigvals, 1e-12))
    breakpoints = sorted(set(
        [-span * 1e4, span * 1e4] + [p for p in poles if abs(p) < span * 1e4]
        + [0.0]))
    roots: list[np.ndarray] = []
    from scipy.optimize import brentq
    for lo, hi in zip(breakpoints, breakpoints[1:]):
        pad = 1e-9 * max(abs(lo), abs(hi), 1.0)
        grid = np.linspace(lo + pad, hi - pad, 48)
        vals = []
        for a in grid:
            try:
                vals.append(value(a))
            except np.linalg.LinAlgError:
                vals.append(np.nan)
        for a0, a1, v0, v1 in zip(grid, grid[1:], vals, vals[1:]):
            if np.isfinite(v0) and np.isfinite(v1) and v0 * v1 < 0.0:
                try:
                    alpha = brentq(value, a0, a1, xtol=1e-14, maxiter=200)
                except (ValueError, np.linalg.LinAlgError):
                    continue
                roots.append(phi_of(alpha))
    roots.sort(key=lambda x: float(np.linalg.norm(x)))
    return roots


def _ray_seeds(pmap: PocMap, j: int, rho: float) -> list[np.ndarray]:
    """Iteration restarts: smallest-magnitude roots of the truncated
    constraint along the gradient and the quadratic eigendirections."""
    m = pmap.n_vars
    directions: list[np.ndarray] = []
    grad = pmap.gradient()
    gn = float(np.linalg.norm(grad))
    if gn > _GRADIENT_FLOOR:
        directions.append(grad / gn * (1.0 if rho > 0 else -1.0))
    if j >= 2:
        try:
            _, vecs = np.linalg.eigh(_quadratic_matrix(pmap))
        except np.linalg.LinAlgError:
            vecs = np.zeros((m, 0))
        for col in range(vecs.shape[1]):
            directions.append(vecs[:, col])
            directions.append(-vecs[:, col])
    homo = [pmap.poly.homogeneous(k) for k in range(1, j + 1)]
    seeds: list[tuple[float, np.ndarray]] = []
    for u in directions:
        coeffs = [h.eval(u) for h in homo][::-1] + [-rho]
        roots = np.roots(coeffs)
        real = [float(r.real) for r in roots
                if abs(r.imag) <= 1e-10 * max(1.0, abs(r.real)) and r.real > 0.0]
        if real:
            s = min(real)
            seeds.append((s, s * u))
    seeds.sort(key=lambda item: item[0])
    return [point for _, point in seeds]


def _restarts(pmap: PocMap, j: int, rho: float):
    """Restart points of an order-j hunt, produced lazily: most solves
    settle from their seed and never reach the order-2 root sweep."""
    if j == 2:
        yield from _secular_order2_roots(pmap, rho)
    yield from _ray_seeds(pmap, j, rho)


def solve_order_j(pmap: PocMap, j: int, phi_init: np.ndarray,
                  config: SolverConfig) -> tuple[np.ndarray, int, bool]:
    """Fixed point of the order-j greedy linearization map.

    Returns (point, pseudo-gradient evaluations, converged). From each
    start the iteration itself runs first: linearize the constraint at the
    current point through the pseudo-gradient, take the greedy minimum-norm
    step, declare convergence when successive points differ by at most
    ``e_tol``, damping the step whenever the displacement grows. When it
    orbits without converging, a dogleg root find on the fixed-point
    residual hunts the same fixed point from where it stopped. The first
    start is ``phi_init``; the restarts, on a quarter of the iteration
    budget, are the exact secular fixed points at order 2 and then
    constraint roots along principal rays. Whatever start succeeds, the
    returned point satisfies the iteration's own convergence test; when
    none does, the point is the candidate with the smallest fixed-point
    residual encountered.
    """
    rho = config.target_poc - pmap.ballistic_poc
    model = _PseudoGradientModel(pmap, j, rho)
    restart_budget = max(config.max_iterations // 4, 20)
    starts = itertools.chain(
        [(np.asarray(phi_init, dtype=np.float64), config.max_iterations)],
        ((start, restart_budget) for start in _restarts(pmap, j, rho)))

    best = None
    for start, budget in starts:
        converged, point = _damped_picard(model, start, budget, config.e_tol)
        if converged:
            return point, model.evals, True
        residual = float(np.linalg.norm(model.fixed_point_residual(point)))
        if best is None or residual < best[0]:
            best = (residual, point)
        solution = _polished_root(model, point, config.e_tol)
        if solution is not None:
            return solution, model.evals, True
    return best[1], model.evals, False


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
    """Escalate the constraint order from 1 to n, reseeding each order with
    the previous order's fixed point.

    A ballistic probability already at or below the target yields the zero
    maneuver (probability is never raised toward the target). An
    intermediate order whose truncated constraint admits no fixed point
    (possible when the truncation cannot reach the gap, notably even
    truncations of a decaying tail) passes its best iterate to the next
    order; only the final order is required to converge.
    """
    started = time.perf_counter()
    n = min(config.max_order, pmap.order)
    if config.max_order > pmap.order:
        raise ConfigurationError(
            f"solver order {config.max_order} exceeds map order {pmap.order}")
    rho = config.target_poc - pmap.ballistic_poc
    if rho >= 0.0:
        phi = np.zeros(pmap.n_vars)
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
                last_iterate=phi, order=n, iterations=iterations[-1])
    residual = abs(pmap.poly.eval(phi) - config.target_poc)
    return _package_solution(pmap.schedule, phi * pmap.scaling, residual,
                             iterations, converged, started)


def _ranked_epochs(event: ConjunctionEvent, times, template: ControlSchedule,
                   config: PropagationConfig | None) -> list[float]:
    """Candidate epochs by decreasing first-order probability-gradient norm;
    ties go to the earlier time, then the earlier grid position."""
    norms = gradient_norm_per_node(event, times, template, config)
    ranked = sorted(range(len(norms)),
                    key=lambda i: (-norms[i][1], norms[i][0], i))
    return [norms[i][0] for i in ranked]


def filter_nodes(event: ConjunctionEvent, dense_times, keep: int,
                 template: ControlSchedule,
                 config: PropagationConfig | None = None) -> ControlSchedule:
    """Keep the ``keep`` candidate epochs with the largest first-order
    probability-gradient norm (ties broken by earlier time, then grid
    position), as the template retimed to them in chronological order."""
    dense_times = [float(t) for t in dense_times]
    if not dense_times:
        raise ConfigurationError("candidate grid is empty")
    if not 1 <= keep <= len(dense_times):
        raise ConfigurationError(
            f"keep must lie in [1, {len(dense_times)}], got {keep}")
    return template.retimed(
        sorted(_ranked_epochs(event, dense_times, template, config)[:keep]))


def solve_thrust_limited(event: ConjunctionEvent, dense_times, u_max_ms: float,
                         config: SolverConfig,
                         template: ControlSchedule | None = None,
                         prop_config: PropagationConfig | None = None
                         ) -> ManeuverSolution:
    """Sequential bounded-impulse design over a ranked grid of epochs.

    The highest-authority node is solved alone; whenever the required
    impulse exceeds ``u_max_ms`` that node is saturated at the bound along
    the solved direction, folded into the reference trajectory (shrinking
    the remaining probability gap), and the next-ranked node is brought in.
    Each node's control follows ``template`` (a fixed direction stays
    pinned); the returned schedule holds the engaged impulses as free
    vectors. Stops at the first unsaturated solve within the bound;
    exhausting the grid with gap remaining raises, reporting the residual
    probability.
    """
    if not u_max_ms > 0.0:
        raise ConfigurationError("u_max must be positive")
    if len(dense_times) == 0:
        raise ConfigurationError("candidate grid is empty")
    started = time.perf_counter()
    template = template or ControlSchedule(
        mode=IMPULSIVE, node_epochs=(min(float(t) for t in dense_times),))
    if template.mode != IMPULSIVE:
        raise ConfigurationError("thrust-limited sequencing applies to impulses")

    ranked_times = _ranked_epochs(event, dense_times, template, prop_config)

    saturated: list[tuple[float, np.ndarray]] = []
    for t in ranked_times:
        pmap = build_poc_map(event, template.retimed([t]),
                             order=config.max_order,
                             config=prop_config, fixed_impulses=saturated)
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
                sol.per_order_converged, started)
        saturated.append((t, u_max_ms * dv / magnitude))

    # the grid is never empty here: ranking rejects an empty one
    r_b, bplane, _ = propagate_with_controls(
        event, template.retimed(ranked_times[-1:]), None, prop_config,
        fixed_impulses=saturated)
    residual_poc = poc_chan(r_b, bplane.p_b, event.hbr_km)
    raise InfeasibleWithBoundError(
        f"all {len(ranked_times)} nodes saturated at {u_max_ms} m/s with "
        f"probability gap remaining (residual PoC {residual_poc})",
        residual_poc=residual_poc)
