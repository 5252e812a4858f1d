"""Order-escalating solver for the collision-probability polynomial program.

The program minimizes the control energy subject to the truncated
polynomial constraint "collision probability equals its target". Order one
has a closed-form greedy solution along the probability gradient. Each
higher order linearizes its constraint about the previous order's point
through a pseudo-gradient (the gradient plus single-free-index contractions
of the higher-degree terms) and iterates that greedy step; only the final
order must reach a fixed point, and only it falls back, to a root polish
and restarts that read only the map, through numpy.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .conjunction import ConjunctionEvent
from .dapoly import contract_no_first_mode
from .dynamics import PropagationConfig
from .errors import (ConfigurationError, DegenerateGradientError,
                     InfeasibleWithBoundError, NonConvergenceError)
from .mapbuilder import (ControlSchedule, IMPULSIVE, PocMap, build_poc_map,
                         gradient_norm_per_node, reference_trajectory)

__all__ = [
    "SolverConfig", "ManeuverSolution",
    "solve_order1", "pseudo_gradient", "solve_order_j", "solve_recursive",
    "filter_nodes", "solve_thrust_limited",
]

_GRADIENT_FLOOR = 1e-30
# Upper bounds on the solve: the largest order in use is 5 (a 12-variable
# order-5 map already holds 6188 coefficients), and both bounds keep a run
# finite.
MAX_ORDER = 10
MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class SolverConfig:
    """Targets and iteration limits for the recursive solve."""

    max_order: int = 5
    e_tol: float = 1e-10
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
    the map-constraint mismatch at the solution. ``per_order_converged``
    marks the escalation orders whose iteration reached a fixed point (an
    intermediate order that did not still hands the iteration's end point
    to the next order).
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
    grad = pmap.poly.gradient_at_zero()
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
    if not 1 <= j <= pmap.poly.max_order:
        raise ConfigurationError(
            f"order {j} outside [1, {pmap.poly.max_order}]")
    phi_tilde = np.asarray(phi_tilde, dtype=np.float64)
    g = pmap.poly.gradient_at_zero()
    for k in range(2, j + 1):
        g = g + contract_no_first_mode(pmap.poly, k, phi_tilde)
    return g


def _quadratic_matrix(pmap: PocMap) -> np.ndarray:
    """Symmetric matrix S with x^T S x equal to the degree-2 part: column i
    is the degree-2 contraction with the unit vector e_i."""
    return np.column_stack([contract_no_first_mode(pmap.poly, 2, e)
                            for e in np.eye(pmap.poly.n_vars)])


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
    """Damped substitution: greedy steps on the linearized constraint until
    successive points differ by at most ``e_tol``, halving a step that
    grows the displacement. Returns (converged, point); a stall counter
    aborts runs orbiting a displacement plateau."""
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
    """Levenberg-Marquardt (Marquardt 1963) on the fixed-point residual F,
    its Jacobian by forward differences of step sqrt(eps) max(|x|, 1);
    verified result, or None. Each of at most 20 steps takes the smallest
    damping 1e-6 ... 1e6 x diag(J^T J) that shrinks |F|: a shrink below
    1% (or none) ends the loop, and a singular system gives None."""
    x = np.asarray(start, dtype=np.float64)
    f = model.fixed_point_residual(x)
    for _ in range(20):
        h = 1.5e-8 * max(float(np.linalg.norm(x)), 1.0)
        jac = np.column_stack([(model.fixed_point_residual(x + h * e) - f) / h
                               for e in np.eye(x.size)])
        jtj = jac.T @ jac
        for mu in 10.0 ** np.arange(-6, 7):
            try:
                step = np.linalg.solve(jtj + mu * np.diag(np.diag(jtj)),
                                       -jac.T @ f)
            except np.linalg.LinAlgError:
                return None
            trial = model.fixed_point_residual(x + step)
            if trial @ trial < f @ f:
                break
        if np.linalg.norm(trial) > 0.99 * np.linalg.norm(f):
            break
        x, f = x + step, trial
    if float(np.linalg.norm(f)) <= e_tol:
        return model.greedy(x)
    return None


def _degree_values(pmap: PocMap, j: int, x: np.ndarray) -> list[float]:
    """The map's degree-1..j parts at ``x``, by Euler's identity."""
    return [float(contract_no_first_mode(pmap.poly, k, x) @ x)
            for k in range(1, j + 1)]


def _secular_order2_roots(pmap: PocMap, rho: float) -> list[np.ndarray]:
    """All order-2 fixed points via the linear-parallelism family.

    An order-2 fixed point satisfies phi parallel to grad + S*phi, giving
    phi(a) = a (I - a S)^-1 grad with the scalar equation T2(phi(a)) = rho;
    roots are bracketed per branch between the poles 1/eig(S) and closed
    by bisection. Returned sorted by control magnitude.
    """
    grad = pmap.poly.gradient_at_zero()
    if float(np.linalg.norm(grad)) < _GRADIENT_FLOOR:
        return []
    s = _quadratic_matrix(pmap)

    def phi_of(alpha: float) -> np.ndarray:
        return alpha * np.linalg.solve(np.eye(grad.size) - alpha * s, grad)

    def value(alpha: float) -> float:
        try:
            return sum(_degree_values(pmap, 2, phi_of(alpha))) - rho
        except np.linalg.LinAlgError:
            return np.nan

    eigvals = np.linalg.eigvalsh(s)
    poles = sorted(1.0 / v for v in eigvals if v != 0.0)
    span = 10.0 / max(abs(v) for v in np.append(eigvals, 1e-12))
    breakpoints = sorted(set(
        [-span * 1e4, span * 1e4] + [p for p in poles if abs(p) < span * 1e4]
        + [0.0]))
    roots: list[np.ndarray] = []
    for lo, hi in zip(breakpoints, breakpoints[1:]):
        pad = 1e-9 * max(abs(lo), abs(hi), 1.0)
        grid = np.linspace(lo + pad, hi - pad, 48)
        vals = [value(a) for a in grid]
        for a0, a1, v0, v1 in zip(grid, grid[1:], vals, vals[1:]):
            if not (np.isfinite(v0) and np.isfinite(v1) and v0 * v1 < 0.0):
                continue
            while a1 - a0 > 1e-14 + 9e-16 * max(abs(a0), abs(a1)):
                mid = 0.5 * (a0 + a1)
                if v0 * value(mid) > 0.0:
                    a0 = mid
                else:
                    a1 = mid
            roots.append(phi_of(0.5 * (a0 + a1)))
    roots.sort(key=lambda x: float(np.linalg.norm(x)))
    return roots


def _ray_seeds(pmap: PocMap, j: int, rho: float) -> list[np.ndarray]:
    """Iteration restarts: smallest-magnitude roots of the truncated
    constraint along the gradient and the quadratic eigendirections."""
    m = pmap.poly.n_vars
    directions: list[np.ndarray] = []
    grad = pmap.poly.gradient_at_zero()
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
    seeds: list[tuple[float, np.ndarray]] = []
    for u in directions:
        coeffs = _degree_values(pmap, j, u)[::-1] + [-rho]
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
    """The final order's hunt for a fixed point of the order-j greedy
    linearization map. Returns (point, pseudo-gradient evaluations,
    converged). From each start the damped iteration runs first; when it
    does not converge, a Levenberg-Marquardt root find on the fixed-point
    residual hunts the same fixed point from where it stopped. The first start is
    ``phi_init``; the restarts, on a quarter of the budget, are the exact
    secular fixed points at order 2, then constraint roots along principal
    rays. A returned fixed point passes the iteration's convergence test;
    failing all starts, the point is the candidate with the smallest
    fixed-point residual encountered.
    """
    rho = config.target_poc - pmap.reference.ballistic_poc
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
    """Escalate the constraint order from 1 to n, seeding each order with
    the previous order's point. Orders 2..n-1 run the damped iteration
    once, on the full budget, and hand on its end point, converged or not
    (a truncation may admit no fixed point); only order n hunts, with
    :func:`solve_order_j`, and must converge. A ballistic probability at
    or below the target yields the zero maneuver.
    """
    started = time.perf_counter()
    n = config.max_order
    if n > pmap.poly.max_order:
        raise ConfigurationError(
            f"solver order {n} exceeds map order {pmap.poly.max_order}")
    rho = config.target_poc - pmap.reference.ballistic_poc
    if rho >= 0.0:
        phi = np.zeros(pmap.poly.n_vars)
        iterations = (1,) + (0,) * (n - 1)
        converged = (True,) * n
    else:
        phi = solve_order1(pmap, rho)
        iterations = (1,)
        converged = (True,)
        for j in range(2, n + 1):
            if j == n:
                phi, used, ok = solve_order_j(pmap, j, phi, config)
            else:
                model = _PseudoGradientModel(pmap, j, rho)
                ok, phi = _damped_picard(model, phi, config.max_iterations,
                                         config.e_tol)
                used = model.evals
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
                         config: SolverConfig, template: ControlSchedule,
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
    if template.mode != IMPULSIVE:
        raise ConfigurationError("thrust-limited sequencing applies to impulses")

    ranked_times = _ranked_epochs(event, dense_times, template, prop_config)

    saturated: list[tuple[float, np.ndarray]] = []
    # maps whose first control event is the same share its back-propagation
    starts: dict[float, tuple] = {}
    for t in ranked_times:
        first = min([t, *(s for s, _ in saturated)])
        pmap = build_poc_map(event, template.retimed([t]),
                             order=config.max_order, config=prop_config,
                             fixed_impulses=saturated, start=starts.get(first))
        starts[first] = pmap.reference.start
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
    residual_poc = reference_trajectory(
        event, template.retimed(ranked_times[-1:]), prop_config,
        fixed_impulses=saturated,
        start=starts.get(min(ranked_times))).ballistic_poc
    raise InfeasibleWithBoundError(
        f"all {len(ranked_times)} nodes saturated at {u_max_ms} m/s with "
        f"probability gap remaining (residual PoC {residual_poc})",
        residual_poc=residual_poc)
