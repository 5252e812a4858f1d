"""Reference constructions on TaylorPoly, built from the exponent table.

``from_coeffs`` builds a polynomial from a {exponent tuple: coefficient}
mapping, ``coeffs`` is the inverse view, ``partial`` takes a formal
partial derivative and ``homogeneous`` keeps the terms of one degree. They
read only the graded-lex exponent table, so they check the algebra without
sharing its lookups. ``loop_tables`` builds the exponent and product tables
by enumeration and a loop over every pair, with no closed-form rank.
``reference_mul`` takes a product as a bincount triple sum over every pair
of the table.
``reference_sin_cos`` sums the sine and cosine series on ``reference_mul``.
``reference_log_poc_chan`` sums the collision-probability series to a fixed
60 terms.
"""

import functools
import math

import numpy as np

from polycam.dapoly import AlgebraConfig, TaylorPoly, _tables


def _index_of(n_vars: int, max_order: int) -> dict:
    exponents = _tables(n_vars, max_order).exponents.tolist()
    return {tuple(e): i for i, e in enumerate(exponents)}


def from_coeffs(cfg: AlgebraConfig, coeffs) -> TaylorPoly:
    """The polynomial of ``cfg`` with the given coefficients, zero elsewhere."""
    index_of = _index_of(cfg.n_vars, cfg.max_order)
    coef = np.zeros(len(index_of))
    for exps, value in coeffs.items():
        coef[index_of[tuple(exps)]] = value
    return TaylorPoly(cfg, coef)


def coeffs(poly: TaylorPoly) -> dict[tuple[int, ...], float]:
    """{exponent tuple: coefficient} of ``poly``; zeros omitted."""
    exponents = _tables(poly.n_vars, poly.max_order).exponents
    return {tuple(int(x) for x in exponents[i]): float(poly.coef[i])
            for i in np.nonzero(poly.coef)[0]}


def partial(poly: TaylorPoly, var: int) -> TaylorPoly:
    """Formal partial derivative of ``poly`` with respect to x_var."""
    index_of = _index_of(poly.n_vars, poly.max_order)
    coef = np.zeros(len(index_of))
    for exps, i in index_of.items():
        if exps[var]:
            lowered = list(exps)
            lowered[var] -= 1
            coef[index_of[tuple(lowered)]] = poly.coef[i] * exps[var]
    return TaylorPoly(poly.config, coef)


def homogeneous(poly: TaylorPoly, k: int) -> TaylorPoly:
    """The degree-k terms of ``poly``, zero elsewhere."""
    degrees = _tables(poly.n_vars, poly.max_order).exponents.sum(axis=1)
    return TaylorPoly(poly.config, np.where(degrees == k, poly.coef, 0.0))


def _degree_block(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of one total degree, lexicographically ascending."""
    if n_vars == 1:
        return [(degree,)]
    return [(t,) + rest for t in range(degree + 1)
            for rest in _degree_block(n_vars - 1, degree - t)]


def loop_tables(n_vars: int, max_order: int):
    """(exponents, mul_ptr, mul_i, mul_j) of the (n_vars, max_order)
    algebra: the monomials listed degree by degree, and the product table
    built by the Python loop over every pair (i, j) with a dict lookup of
    each product monomial."""
    monos = [e for deg in range(max_order + 1)
             for e in _degree_block(n_vars, deg)]
    index_of = {m: i for i, m in enumerate(monos)}
    degrees = [sum(m) for m in monos]
    stops = np.cumsum(np.bincount(degrees))

    # Pairs (i, j) with monomial_i * monomial_j == monomial_k whenever
    # the product degree stays within max_order, generated by i and
    # then j; a stable sort by k keeps that order within each row.
    mi: list[int] = []
    mj: list[int] = []
    mk: list[int] = []
    for i, ei in enumerate(monos):
        di = degrees[i]
        top = stops[max_order - di]
        for j in range(top):
            ej = monos[j]
            k = index_of[tuple(a + b for a, b in zip(ei, ej))]
            mi.append(i)
            mj.append(j)
            mk.append(k)
    rows = np.array(mk, dtype=np.intp)
    order = np.argsort(rows, kind="stable")
    # row k starts at the first sorted pair whose row is k
    ptr = np.searchsorted(rows[order], np.arange(len(monos) + 1))
    return (np.array(monos, dtype=np.int64), ptr,
            np.array(mi, dtype=np.intp)[order],
            np.array(mj, dtype=np.intp)[order])


def embedding(n_from: int, order_from: int, n_to: int,
              order_to: int) -> np.ndarray:
    """Index in the (n_to, order_to) table of every (n_from, order_from)
    monomial, the extra trailing exponents zero, by dict lookup."""
    index_of = _index_of(n_to, order_to)
    pad = (0,) * (n_to - n_from)
    return np.array([index_of[tuple(e) + pad] for e in
                     _tables(n_from, order_from).exponents.tolist()],
                    dtype=np.intp)


@functools.lru_cache(maxsize=None)
def reference_triples(tab):
    """(i, j, k) for every pair of monomials whose product stays within the
    order, ordered by i and then j, built from the exponent table alone."""
    exps = tab.exponents
    deg = exps.sum(axis=1)
    i, j = np.nonzero(deg[:, None] + deg[None, :] <= tab.max_order)
    index_of = {tuple(e): k for k, e in enumerate(exps.tolist())}
    k = np.array([index_of[tuple(e)] for e in (exps[i] + exps[j]).tolist()])
    return i, j, k


def reference_mul(a, b):
    """The product as a gather, a gather, a multiply and a bincount."""
    i, j, k = reference_triples(a._tab)
    return np.bincount(k, weights=a.coef[i] * b.coef[j],
                       minlength=a._tab.size)


def reference_sin_cos(p: TaylorPoly) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows of sin p and cos p, from the angle-sum identities
    sin(a + d) = sin a cos d + cos a sin d and cos(a + d) = cos a cos d -
    sin a sin d, with a the constant part and the series of sin d and
    cos d summed over the powers of the nilpotent part d by
    :func:`reference_mul` (d^(n+1) vanishes at order n)."""
    a = p.constant_part
    d = TaylorPoly(p.config, np.where(np.arange(p.coef.size) == 0, 0.0,
                                      p.coef))
    power = TaylorPoly.constant(p.config, 1.0)
    series = [np.zeros(p.coef.size), np.zeros(p.coef.size)]  # sin d, cos d
    for k in range(p.max_order + 1):
        sign = -1.0 if k % 4 >= 2 else 1.0
        series[(k + 1) % 2] += sign / math.factorial(k) * power.coef
        power = TaylorPoly(p.config, reference_mul(power, d))
    sin_d, cos_d = series
    return (math.sin(a) * cos_d + math.cos(a) * sin_d,
            math.cos(a) * cos_d - math.sin(a) * sin_d)


def reference_log_poc_chan(r_b, p_b, hbr: float):
    """log PoC over the polynomial encounter-plane position ``r_b``, its
    series S summed to a fixed 60 terms: the four-term recurrence of
    ``polycam.conjunction`` written out, with no stop rule."""
    eigvals, eigvecs = np.linalg.eigh(np.asarray(p_b, dtype=np.float64))
    s_x, s_y = math.sqrt(eigvals[0]), math.sqrt(eigvals[1])
    x = eigvecs[0, 0] * r_b[0] + eigvecs[1, 0] * r_b[1]
    y = eigvecs[0, 1] * r_b[0] + eigvecs[1, 1] * r_b[1]
    r2 = hbr * hbr
    p = 1.0 / (2.0 * s_x * s_x)
    phi = 1.0 - (s_x / s_y) ** 2
    omega_x = (x * x) * (1.0 / (4.0 * s_x ** 4))
    omega_y = (y * y) * (1.0 / (4.0 * s_y ** 4))
    omega = omega_x + omega_y
    arg = (x * x) * (-0.5 / s_x ** 2) + (y * y) * (-0.5 / s_y ** 2)

    inter0 = 1.0 + phi / 2.0
    inter1 = omega + p * inter0
    inter2 = (p * p * (1.0 + phi * phi / 2.0)) + omega_y * (2.0 * p * phi)
    inter3 = inter1 * inter1
    c = [1.0, (r2 / 2.0) * inter1, (r2 * r2 / 12.0) * (inter3 + inter2),
         (r2 ** 3 / 144.0) * (inter1 * (inter3 + 3.0 * inter2) + 2.0 * (
             p ** 3 * (1.0 + phi ** 3 / 2.0)
             + omega_y * (3.0 * p * p * phi * phi)))]
    for k in range(60 - 4):
        new = c[-1] * (inter1 + p * (2.0 * phi + 1.0) * (k + 3.0))
        new = new - c[-2] * ((2.0 * p * phi * inter0 * (k + 2.5) + omega_x
                              * (2.0 * phi) + (1.5 * p * phi) + omega)
                             * (p * r2 / (k + 4.0)))
        new = new + c[-3] * ((omega_x * (2.0 * inter0) + p * phi * (k + 2.5))
                             * (r2 * r2 * p * p * phi
                                / ((k + 4.0) * (k + 3.0))))
        new = new - c[-4] * (r2 ** 3 * p ** 3 * phi * phi * omega_x
                             / ((k + 4.0) * (k + 3.0) * (k + 2.0)))
        c.append(new * (r2 / ((k + 4.0) * (k + 5.0))))
    total = c[0] + c[1] + c[2] + c[3]
    for term in c[4:]:
        total = total + term
    return arg + (2.0 * math.log(hbr) - math.log(2.0 * s_x * s_y) - p * r2) \
        + total.log()
