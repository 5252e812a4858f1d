"""Reference constructions on TaylorPoly, built from the exponent table.

``from_coeffs`` builds a polynomial from a {exponent tuple: coefficient}
mapping, ``coeffs`` is the inverse view, ``partial`` takes a formal
partial derivative and ``homogeneous`` keeps the terms of one degree. They
read only the graded-lex exponent table, so they check the algebra without
sharing its lookups.
"""

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
