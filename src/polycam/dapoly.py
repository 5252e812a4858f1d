"""Truncated multivariate Taylor-polynomial algebra.

A :class:`TaylorPoly` is a polynomial in M variables truncated at a fixed
total degree n. It is the scalar type threaded through the propagator and
the collision-probability composition to obtain arbitrary-order expansions
of whole numerical pipelines. A polynomial embeds into an algebra with more
variables (:meth:`TaylorPoly.embed`), and a map expanded in few variables
composes onto polynomials without constant parts (:func:`compose`), so a
pipeline can be expanded piecewise in small algebras and chained.

Coefficients are held in a dense vector indexed by a graded-lexicographic
monomial table shared per (n_vars, max_order); the associative multi-index
view required by callers is exposed through :attr:`TaylorPoly.coeffs`.
Degree-k homogeneous parts double as the symmetric derivative tensors of
the expanded function: the coefficient of the monomial with exponent alpha
equals f_alpha * alpha! / k! of the corresponding super-symmetric tensor
entry, which is what lets tensor contractions be computed from
coefficients without ever materializing M**k entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "AlgebraConfig",
    "TaylorPoly",
    "compose",
    "contract_no_first_mode",
    "generic_exp",
    "generic_power",
]

# Coefficients smaller than this are flushed to zero on construction from
# user data (denormal hygiene; see TaylorPoly.from_coeffs).
COEFF_FLUSH = 1e-300


@dataclass(frozen=True)
class AlgebraConfig:
    """Shape of a truncated polynomial algebra: M variables, max degree n."""

    n_vars: int
    max_order: int

    def __post_init__(self):
        if self.n_vars < 1:
            raise ConfigurationError(f"n_vars must be >= 1, got {self.n_vars}")
        if self.max_order < 1:
            raise ConfigurationError(f"max_order must be >= 1, got {self.max_order}")


def _monomials_graded_lex(n_vars: int, max_order: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= max_order in graded-lex order.

    Within a degree block, tuples are ordered lexicographically ascending.
    """
    out: list[tuple[int, ...]] = []
    for deg in range(max_order + 1):
        block = set()
        for combo in combinations_with_replacement(range(n_vars), deg):
            e = [0] * n_vars
            for idx in combo:
                e[idx] += 1
            block.add(tuple(e))
        out.extend(sorted(block))
    return out


class _AlgebraTables:
    """Per-(M, n) lookup tables: monomial ordering and multiplication triples."""

    __slots__ = (
        "config", "n_vars", "max_order", "size", "exponents", "index_of",
        "power_index", "degrees", "degree_slices", "mul_i", "mul_j", "mul_k",
        "_partial_maps", "_contraction_maps",
    )

    def __init__(self, config: AlgebraConfig):
        self.config = config
        self.n_vars = config.n_vars
        self.max_order = config.max_order

        monos = _monomials_graded_lex(self.n_vars, self.max_order)
        self.size = len(monos)
        self.exponents = np.array(monos, dtype=np.int64)
        self.index_of = {m: i for i, m in enumerate(monos)}
        # (M, size) flat positions of x_v**e_v in an (M, max_order + 1) table
        # of powers, one row per variable
        self.power_index = (np.arange(self.n_vars)[:, None] * (self.max_order + 1)
                            + self.exponents.T)
        self.degrees = self.exponents.sum(axis=1)

        self.degree_slices: list[slice] = []
        start = 0
        for deg in range(self.max_order + 1):
            count = int(np.count_nonzero(self.degrees == deg))
            self.degree_slices.append(slice(start, start + count))
            start += count

        # Triples (i, j, k): monomial_i * monomial_j == monomial_k whenever
        # the product degree stays within max_order.
        mi: list[int] = []
        mj: list[int] = []
        mk: list[int] = []
        for i, ei in enumerate(monos):
            di = self.degrees[i]
            top = self.degree_slices[self.max_order - di].stop
            for j in range(top):
                ej = monos[j]
                k = self.index_of[tuple(a + b for a, b in zip(ei, ej))]
                mi.append(i)
                mj.append(j)
                mk.append(k)
        self.mul_i = np.array(mi, dtype=np.intp)
        self.mul_j = np.array(mj, dtype=np.intp)
        self.mul_k = np.array(mk, dtype=np.intp)

        self._partial_maps: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._contraction_maps: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def partial_map(self, var: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Source indices, destination indices and exponent factors for d/dx_var."""
        cached = self._partial_maps.get(var)
        if cached is not None:
            return cached
        src, dst, fac = [], [], []
        for i, e in enumerate(self.exponents):
            if e[var] > 0:
                lowered = e.copy()
                lowered[var] -= 1
                src.append(i)
                dst.append(self.index_of[tuple(lowered)])
                fac.append(float(e[var]))
        entry = (np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
                 np.array(fac, dtype=np.float64))
        self._partial_maps[var] = entry
        return entry

    def contraction_map(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(M, N) source indices and exponent factors for the first
        derivatives of the degree-k part, N being the number of degree-(k-1)
        monomials: row j lists the degree-k monomials containing variable j,
        ascending, so that lowering x_j in each gives the degree-(k-1)
        monomials in table order (lexicographic order survives the shift).
        """
        cached = self._contraction_maps.get(k)
        if cached is not None:
            return cached
        sl = self.degree_slices[k]
        exps = self.exponents[sl]
        src = [sl.start + np.flatnonzero(exps[:, j]) for j in range(self.n_vars)]
        fac = [exps[exps[:, j] > 0, j].astype(np.float64)
               for j in range(self.n_vars)]
        entry = (np.array(src, dtype=np.intp), np.array(fac))
        self._contraction_maps[k] = entry
        return entry


@lru_cache(maxsize=None)
def _tables(n_vars: int, max_order: int) -> _AlgebraTables:
    return _AlgebraTables(AlgebraConfig(n_vars, max_order))


def _monomial_values(tab: _AlgebraTables, point: np.ndarray,
                     rows: slice = slice(None)) -> np.ndarray:
    """The table's monomials (those in ``rows``) evaluated at ``point``.

    Each power point_v**e is taken once into a per-variable table and
    gathered by exponent; a monomial's factors are multiplied in variable
    order, as ``np.prod`` over its row of powers would.
    """
    table = point[:, None] ** np.arange(tab.max_order + 1)
    return np.prod(np.take(table, tab.power_index[:, rows]), axis=0)


@lru_cache(maxsize=None)
def _embedding(n_from: int, n_to: int, max_order: int) -> np.ndarray:
    """Index in the (n_to, max_order) table of every (n_from, max_order)
    monomial, the extra trailing exponents being zero."""
    big = _tables(n_to, max_order)
    pad = (0,) * (n_to - n_from)
    return np.array([big.index_of[tuple(int(x) for x in e) + pad]
                     for e in _tables(n_from, max_order).exponents],
                    dtype=np.intp)


class TaylorPoly:
    """Immutable truncated multivariate Taylor polynomial.

    Values are never mutated after construction; every operation returns a
    new instance, so sharing across threads is safe. Two polynomials combine
    only when their (n_vars, max_order) match.
    """

    __slots__ = ("_tab", "coef")

    def __init__(self, config: AlgebraConfig, coef: np.ndarray | None = None):
        tab = _tables(config.n_vars, config.max_order)
        if coef is None:
            coef = np.zeros(tab.size)
        else:
            coef = np.asarray(coef, dtype=np.float64)
            if coef.shape != (tab.size,):
                raise ConfigurationError(
                    f"coefficient vector has shape {coef.shape}, "
                    f"expected ({tab.size},)")
        object.__setattr__(self, "_tab", tab)
        object.__setattr__(self, "coef", coef)

    def __setattr__(self, name, value):
        raise AttributeError("TaylorPoly is immutable")

    # -- construction -------------------------------------------------------

    @classmethod
    def _raw(cls, tab: _AlgebraTables, coef: np.ndarray) -> "TaylorPoly":
        p = object.__new__(cls)
        object.__setattr__(p, "_tab", tab)
        object.__setattr__(p, "coef", coef)
        return p

    @classmethod
    def zero(cls, config: AlgebraConfig) -> "TaylorPoly":
        tab = _tables(config.n_vars, config.max_order)
        return cls._raw(tab, np.zeros(tab.size))

    @classmethod
    def constant(cls, config: AlgebraConfig, value: float) -> "TaylorPoly":
        tab = _tables(config.n_vars, config.max_order)
        coef = np.zeros(tab.size)
        coef[0] = float(value)
        return cls._raw(tab, coef)

    @classmethod
    def variable(cls, config: AlgebraConfig, var: int) -> "TaylorPoly":
        """The identity polynomial x_var."""
        tab = _tables(config.n_vars, config.max_order)
        if not 0 <= var < tab.n_vars:
            raise ConfigurationError(f"variable index {var} out of range")
        coef = np.zeros(tab.size)
        e = [0] * tab.n_vars
        e[var] = 1
        coef[tab.index_of[tuple(e)]] = 1.0
        return cls._raw(tab, coef)

    @classmethod
    def from_coeffs(cls, config: AlgebraConfig,
                    coeffs: Mapping[tuple[int, ...], float]) -> "TaylorPoly":
        """Build from a multi-index -> coefficient mapping.

        Coefficients with magnitude below 1e-300 are dropped on write.
        """
        tab = _tables(config.n_vars, config.max_order)
        coef = np.zeros(tab.size)
        for exps, value in coeffs.items():
            key = tuple(int(e) for e in exps)
            if len(key) != tab.n_vars or any(e < 0 for e in key):
                raise ConfigurationError(f"bad multi-index {exps}")
            if sum(key) > tab.max_order:
                raise ConfigurationError(
                    f"multi-index {exps} exceeds max_order {tab.max_order}")
            if abs(value) >= COEFF_FLUSH:
                coef[tab.index_of[key]] = float(value)
        return cls._raw(tab, coef)

    # -- inspection ---------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return self._tab.n_vars

    @property
    def max_order(self) -> int:
        return self._tab.max_order

    @property
    def config(self) -> AlgebraConfig:
        return self._tab.config

    @property
    def constant_part(self) -> float:
        return float(self.coef[0])

    @property
    def coeffs(self) -> dict[tuple[int, ...], float]:
        """Associative view keyed by exponent tuple; zeros omitted."""
        tab = self._tab
        nz = np.nonzero(self.coef)[0]
        return {tuple(int(x) for x in tab.exponents[i]): float(self.coef[i])
                for i in nz}

    def __repr__(self) -> str:
        terms = len(np.nonzero(self.coef)[0])
        return (f"TaylorPoly(n_vars={self.n_vars}, max_order={self.max_order}, "
                f"terms={terms}, const={self.constant_part!r})")

    # -- arithmetic ---------------------------------------------------------

    def _check_same(self, other: "TaylorPoly") -> None:
        if self._tab is not other._tab and (
                self.n_vars != other.n_vars or self.max_order != other.max_order):
            raise ConfigurationError(
                f"algebra mismatch: ({self.n_vars},{self.max_order}) vs "
                f"({other.n_vars},{other.max_order})")

    def __add__(self, other):
        if isinstance(other, TaylorPoly):
            self._check_same(other)
            return TaylorPoly._raw(self._tab, self.coef + other.coef)
        coef = self.coef.copy()
        coef[0] += other
        return TaylorPoly._raw(self._tab, coef)

    __radd__ = __add__

    def __neg__(self):
        return TaylorPoly._raw(self._tab, -self.coef)

    def __sub__(self, other):
        if isinstance(other, TaylorPoly):
            self._check_same(other)
            return TaylorPoly._raw(self._tab, self.coef - other.coef)
        coef = self.coef.copy()
        coef[0] -= other
        return TaylorPoly._raw(self._tab, coef)

    def __rsub__(self, other):
        coef = -self.coef
        coef[0] += other
        return TaylorPoly._raw(self._tab, coef)

    def __mul__(self, other):
        if isinstance(other, TaylorPoly):
            self._check_same(other)
            tab = self._tab
            prod = self.coef[tab.mul_i] * other.coef[tab.mul_j]
            return TaylorPoly._raw(
                tab, np.bincount(tab.mul_k, weights=prod, minlength=tab.size))
        return TaylorPoly._raw(self._tab, self.coef * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TaylorPoly):
            return self * other.reciprocal()
        return TaylorPoly._raw(self._tab, self.coef / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        if isinstance(exponent, int) or (
                isinstance(exponent, float) and exponent.is_integer() and exponent >= 0):
            k = int(exponent)
            if k < 0:
                return self.reciprocal().__pow__(-k)
            out = TaylorPoly.constant(self.config, 1.0)
            base = self
            while k:
                if k & 1:
                    out = out * base
                base = base * base
                k >>= 1
            return out
        return self.power(exponent)

    # -- calculus / structure ------------------------------------------------

    def eval(self, point) -> float:
        """Sum of c_alpha * point**alpha over all stored monomials."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.n_vars,):
            raise ConfigurationError(
                f"point has shape {point.shape}, expected ({self.n_vars},)")
        return float(self.coef @ _monomial_values(self._tab, point))

    def partial(self, var: int) -> "TaylorPoly":
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.n_vars:
            raise ConfigurationError(f"variable index {var} out of range")
        src, dst, fac = self._tab.partial_map(var)
        coef = np.zeros(self._tab.size)
        coef[dst] = self.coef[src] * fac
        return TaylorPoly._raw(self._tab, coef)

    def homogeneous(self, k: int) -> "TaylorPoly":
        """Polynomial containing only the degree-k terms."""
        if not 0 <= k <= self.max_order:
            raise ConfigurationError(
                f"degree {k} outside [0, {self.max_order}]")
        coef = np.zeros(self._tab.size)
        sl = self._tab.degree_slices[k]
        coef[sl] = self.coef[sl]
        return TaylorPoly._raw(self._tab, coef)

    def embed(self, config: AlgebraConfig) -> "TaylorPoly":
        """The same polynomial in an algebra of the same order with more
        variables; this polynomial's variables are its leading ones."""
        if config.max_order != self.max_order or config.n_vars < self.n_vars:
            raise ConfigurationError(
                f"cannot embed ({self.n_vars},{self.max_order}) into "
                f"({config.n_vars},{config.max_order})")
        if config.n_vars == self.n_vars:
            return self
        tab = _tables(config.n_vars, config.max_order)
        coef = np.zeros(tab.size)
        coef[_embedding(self.n_vars, config.n_vars, self.max_order)] = self.coef
        return TaylorPoly._raw(tab, coef)

    def gradient_at_zero(self) -> np.ndarray:
        """Row vector of degree-1 coefficients, one entry per variable."""
        tab = self._tab
        sl = tab.degree_slices[1]
        grad = np.zeros(tab.n_vars)
        # degree-1 block rows are unit exponent vectors
        grad[np.nonzero(tab.exponents[sl])[1]] = self.coef[sl]
        return grad

    # -- intrinsics ----------------------------------------------------------

    def _compose_outer(self, outer: np.ndarray) -> "TaylorPoly":
        """Horner composition of a 1-D outer series with the nilpotent part."""
        tab = self._tab
        nil = self.coef.copy()
        nil[0] = 0.0
        w = TaylorPoly._raw(tab, nil)
        out = TaylorPoly.constant(self.config, float(outer[-1]))
        for c in outer[-2::-1]:
            out = out * w + float(c)
        return out

    def sqrt(self) -> "TaylorPoly":
        a0 = self.constant_part
        if a0 <= 0.0:
            raise DomainError(f"sqrt requires positive constant part, got {a0}", a0)
        n = self.max_order
        outer = np.empty(n + 1)
        outer[0] = math.sqrt(a0)
        for k in range(1, n + 1):
            outer[k] = outer[k - 1] * (0.5 - (k - 1)) / (k * a0)
        return self._compose_outer(outer)

    def reciprocal(self) -> "TaylorPoly":
        a0 = self.constant_part
        if a0 == 0.0:
            raise DomainError("reciprocal requires nonzero constant part", a0)
        n = self.max_order
        outer = np.empty(n + 1)
        outer[0] = 1.0 / a0
        for k in range(1, n + 1):
            outer[k] = -outer[k - 1] / a0
        return self._compose_outer(outer)

    def exp(self) -> "TaylorPoly":
        a0 = self.constant_part
        n = self.max_order
        outer = np.empty(n + 1)
        outer[0] = math.exp(a0)
        for k in range(1, n + 1):
            outer[k] = outer[k - 1] / k
        return self._compose_outer(outer)

    def power(self, p: float) -> "TaylorPoly":
        """Real power a**p about the constant part (requires it positive)."""
        a0 = self.constant_part
        if a0 <= 0.0:
            raise DomainError(
                f"power({p}) requires positive constant part, got {a0}", a0)
        n = self.max_order
        outer = np.empty(n + 1)
        outer[0] = a0 ** p
        for k in range(1, n + 1):
            outer[k] = outer[k - 1] * (p - (k - 1)) / (k * a0)
        return self._compose_outer(outer)


def compose(outer, inner):
    """Substitute the polynomials ``inner`` for the variables of ``outer``.

    ``outer`` is one TaylorPoly in k variables or a sequence of them sharing
    one algebra; ``inner`` holds k polynomials of one algebra of the same
    order with zero constant parts, so truncating every product at that
    order loses nothing. Returns the result in the algebra of ``inner``, one
    polynomial per outer polynomial (a bare one for a bare ``outer``).

    The outer monomials are walked depth-first, each one the product of its
    parent and one inner polynomial, so at most ``max_order`` partial
    products are alive at once.
    """
    outers = [outer] if isinstance(outer, TaylorPoly) else list(outer)
    inner = list(inner)
    head, base = outers[0], inner[0]
    for p in outers[1:]:
        head._check_same(p)
    for g in inner[1:]:
        base._check_same(g)
    if len(inner) != head.n_vars:
        raise ConfigurationError(
            f"{len(inner)} inner polynomials for {head.n_vars} variables")
    if base.max_order != head.max_order:
        raise ConfigurationError(
            f"order mismatch: outer {head.max_order}, inner {base.max_order}")
    if any(g.coef[0] != 0.0 for g in inner):
        raise ConfigurationError("inner polynomials must have zero constant parts")

    coef = np.stack([p.coef for p in outers])
    out = np.zeros((len(outers), base._tab.size))
    out[:, 0] = coef[:, 0]
    index_of = head._tab.index_of
    exps = [0] * head.n_vars

    def walk(parent, first, degree):
        # extending by variables j >= first reaches each monomial once
        for j in range(first, len(inner)):
            term = inner[j] if parent is None else parent * inner[j]
            exps[j] += 1
            c = coef[:, index_of[tuple(exps)]]
            if c.any():
                out[:] += c[:, None] * term.coef
            if degree < head.max_order:
                walk(term, j, degree + 1)
            exps[j] -= 1

    walk(None, 0, 1)
    result = [TaylorPoly._raw(base._tab, row) for row in out]
    return result[0] if isinstance(outer, TaylorPoly) else result


def contract_no_first_mode(a: TaylorPoly, k: int, phi) -> np.ndarray:
    """Contract the degree-k derivative tensor with k-1 copies of ``phi``.

    Returns the length-M row vector whose j-th component is
    (1/k) * d(h_k)/d(x_j) evaluated at phi, h_k being the degree-k
    homogeneous part of ``a``. By super-symmetry and Euler's theorem this
    equals the single-free-index multi-linear contraction, so
    ``contract_no_first_mode(a, k, phi) @ phi == h_k(phi)``.
    """
    if not 1 <= k <= a.max_order:
        raise ConfigurationError(f"order k={k} outside [1, {a.max_order}]")
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (a.n_vars,):
        raise ConfigurationError(
            f"phi has shape {phi.shape}, expected ({a.n_vars},)")
    tab = a._tab
    src, fac = tab.contraction_map(k)
    # every row shares the degree-(k-1) monomials evaluated at phi
    powers = _monomial_values(tab, phi, tab.degree_slices[k - 1])
    return np.sum(a.coef[src] * fac * powers, axis=1) / k


# -- generic scalar helpers ----------------------------------------------------
# These let numerical kernels run unchanged on floats, numpy arrays and
# TaylorPoly scalars.

def generic_exp(x):
    if isinstance(x, TaylorPoly):
        return x.exp()
    return np.exp(x)


def generic_power(x, p: float):
    if isinstance(x, TaylorPoly):
        return x.power(p)
    return np.power(x, p)
