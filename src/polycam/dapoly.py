"""Truncated multivariate Taylor-polynomial algebra.

A :class:`TaylorPoly` is a polynomial in M variables truncated at a fixed
total degree n. It is the scalar type threaded through the propagator and
the collision-probability composition to obtain arbitrary-order expansions
of whole numerical pipelines. A polynomial embeds into an algebra with more
variables, a higher order or both (:meth:`TaylorPoly.embed`), so a pipeline
can run its early stages in small algebras and widen as variables join, or
run a stage at a low order and carry on at a higher one. A polynomial in
two variables composes onto two polynomials of another algebra that have
no constant part (:meth:`TaylorPoly.compose`), so a function of two
quantities is expanded once in two variables and then carried onto the
quantities' own algebra. Each operation is
a row function on coefficient vectors, which :class:`TaylorPoly` runs;
:func:`record` compiles a function of polynomials to straight-line Python
on the rows of one workspace, once per process for each sequence of
operations: numpy statements for the affine operations and stacked row
passes for products and powers, bit for bit the row functions' values.

Coefficients are held in a dense vector indexed by a graded-lexicographic
monomial table shared per (n_vars, max_order).

Degree-k homogeneous parts double as the symmetric derivative tensors of
the expanded function: the coefficient of the monomial with exponent alpha
equals f_alpha * alpha! / k! of the corresponding super-symmetric tensor
entry, which is what lets tensor contractions be computed from
coefficients without ever materializing M**k entries.

A truncated product is a sparse matrix-vector product. The table lists,
row by row (one row per output monomial k, in compressed-row form), every
pair (i, j) of monomials with alpha_i + alpha_j = alpha_k, ordered by i
and then by j. A product and each Horner step of the intrinsics are one
compiled pass over these rows: each row's sum starts from 0.0 and adds its
pair products in row order. Adding the same products in the same order
from the same start is what keeps every coefficient bitwise reproducible;
reordering a row's pairs changes the last bits. A recorded program stacks
copies of the table, one per product, into one pass, so that every
product of a level, and every power's Horner step, keeps the rows and the
order of its own pass.

Passes skip pairs with an exact zero factor and rows no later step reads
(:func:`_horner`). For finite coefficients a skipped product is +-0.0,
and adding +-0.0 to a row's sum, which starts from +0.0 and so is never
-0.0, leaves it as it is: with the kept pairs in their order, every
coefficient keeps the bits of the full pass.
"""

from __future__ import annotations

import cmath
import linecache
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location

import numpy as np

from .errors import ConfigurationError, DomainError


def _sparsetools():
    """scipy's compiled CSR kernels, loaded from their extension file, as
    ``import scipy.sparse`` first runs a package init that loads numpy.f2py,
    numpy.testing, numpy.ma and numpy.random (0.3 s on a 2-core host). A
    later ``import scipy.sparse`` finds the module under its own name."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        home = os.path.dirname(find_spec("scipy").origin)
        paths = [os.path.join(home, "sparse", "_sparsetools" + suffix)
                 for suffix in EXTENSION_SUFFIXES]
        path = next(filter(os.path.exists, paths), None)
        if path is None:
            raise ImportError(f"scipy's row kernel not found at {paths}")
        spec = spec_from_file_location(name, path)
        sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_csr_matvec = _sparsetools().csr_matvec

__all__ = [
    "AlgebraConfig",
    "TaylorPoly",
    "generic_sin_cos",
    "record",
]

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


def _graded_lex_rank(exps: np.ndarray, max_order: int) -> np.ndarray:
    """Index in the graded-lex table of (n, max_order) of each row of the
    small-integer (rows, n) exponent array ``exps``, in closed form.

    A monomial of degree d follows the C(n + d - 1, n) monomials of lower
    degree. Within its degree it follows, for each variable v, those that
    share its exponents before v and are smaller at v: with r the degree
    left at v and k = n - 1 - v variables after it, C(r + k, k) -
    C(r - e_v + k, k) of them. Each variable costs one pass over the rows.
    """
    n = exps.shape[1]
    m = np.arange(max_order + 1)
    # fits[k, m]: monomials of degree m in k + 1 variables
    fits = np.array([[math.comb(d + k, k) for d in m] for k in range(n)])
    r, e = np.ix_(m, m)
    smaller = (fits[:, r] - fits[:, np.maximum(r - e, 0)])[::-1].reshape(n, -1)
    left = exps.sum(axis=1, dtype=np.intp)
    rank = np.concatenate(([0], np.cumsum(fits[-1])))[left]
    # the last variable takes the degree left, which no smaller monomial does
    for v in range(n - 1):
        rank += smaller[v, left * (max_order + 1) + exps[:, v]]
        left -= exps[:, v]
    return rank


class _AlgebraTables:
    """Per-(M, n) lookup tables: monomial ordering and the product table.

    Monomials are in graded-lex order, each at the index that
    :func:`_graded_lex_rank` counts for it. The product table is in
    compressed-row form with one row per output monomial: the pairs of
    row k are ``mul_i[p], mul_j[p]`` for ``p`` in
    ``range(mul_ptr[k], mul_ptr[k + 1])``, each pair (i, j) with
    deg i + deg j <= max_order appearing once, in the row of
    alpha_i + alpha_j, ordered by i and then by j: the pairs are listed in
    (i, j) order and stably sorted by the rank of alpha_i + alpha_j.
    Products sum each row in this order from 0.0 (see the module
    docstring), so the order is part of the results. The arrays are shared
    by every polynomial of the algebra and read-only.
    """

    __slots__ = (
        "config", "n_vars", "max_order", "size", "exponents", "power_index",
        "degrees", "degree_slices", "mul_ptr", "mul_i", "mul_j",
    )

    def __init__(self, config: AlgebraConfig):
        self.config = config
        self.n_vars = config.n_vars
        self.max_order = config.max_order

        n, order = self.n_vars, self.max_order
        # C(n + d - 1, n) monomials have degree below d
        starts = [math.comb(n + d - 1, n) for d in range(order + 2)]
        self.degree_slices = [slice(a, b) for a, b in zip(starts, starts[1:])]
        self.size = starts[-1]
        # each degree's monomials raise one exponent of the degree below,
        # and their ranks place them; exponents and the pairs' sums are at
        # most the order, so a narrow integer type holds them
        small = np.zeros((self.size, n), dtype=np.min_scalar_type(-order))
        unit = np.eye(n, dtype=np.int8)
        for below in self.degree_slices[:-1]:
            raised = (small[below, None] + unit).reshape(-1, n)
            small[_graded_lex_rank(raised, order)] = raised
        self.exponents = small.astype(np.int64)
        # (M, size) flat positions of x_v**e_v in an (M, max_order + 1) table
        # of powers, one row per variable
        self.power_index = np.arange(n)[:, None] * (order + 1) + self.exponents.T
        self.degrees = self.exponents.sum(axis=1)

        # Pairs (i, j) with deg i + deg j <= max_order, generated by i and
        # then j, each ranked by its exponent sum; a stable sort by that
        # rank keeps the (i, j) order within each row.
        partners = np.array(starts[1:])[order - self.degrees]
        mi = np.repeat(np.arange(self.size), partners)
        mj = (np.arange(len(mi))
              - np.repeat(np.cumsum(partners) - partners, partners))
        rows = _graded_lex_rank(small[mi] + small[mj], order)
        by_row = np.argsort(rows, kind="stable")
        # row k starts at the first sorted pair whose row is k
        ptr = np.searchsorted(rows[by_row], np.arange(self.size + 1))
        # the unsorted pairs go before the check copies the sorted ones
        mi, mj, rows = mi[by_row], mj[by_row], None
        self.mul_ptr, self.mul_i, self.mul_j = _checked_row_table(
            self.size, ptr, mi, mj)


def _checked_row_table(size: int, ptr: np.ndarray, mul_i: np.ndarray,
                       mul_j: np.ndarray) -> tuple[np.ndarray, ...]:
    """The product table's arrays, checked and made read-only.

    The compiled row pass reads them without bounds checks, so a table
    whose row pointer or monomial indices leave range would read and write
    outside the coefficient vectors; it is refused here instead.
    """
    cols = np.concatenate((mul_i, mul_j))
    if (ptr.shape != (size + 1,) or ptr[0] != 0 or ptr[-1] != len(mul_i)
            or np.any(np.diff(ptr) < 0) or len(mul_j) != len(mul_i)
            or np.any((cols < 0) | (cols >= size))):
        raise ConfigurationError(
            f"product table out of range for {size} monomials")
    for arr in (ptr, mul_i, mul_j):
        arr.setflags(write=False)
    return ptr, mul_i, mul_j


@lru_cache(maxsize=None)
def _tables(n_vars: int, max_order: int) -> _AlgebraTables:
    return _AlgebraTables(AlgebraConfig(n_vars, max_order))


@lru_cache(maxsize=None)
def _raised(n_vars: int, max_order: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, N) index of alpha + e_w and factor alpha_w + 1, for each variable
    w and each of the N monomials alpha of degree below the order: the
    derivative by x_w of x**(alpha + e_w) is (alpha_w + 1) x**alpha."""
    tab = _tables(n_vars, max_order)
    below = tab.exponents[:tab.degree_slices[max_order].start].astype(np.int8)
    raised = below[None] + np.eye(n_vars, dtype=np.int8)[:, None]
    index = _graded_lex_rank(raised.reshape(-1, n_vars), max_order)
    return index.reshape(n_vars, -1), below.T + 1.0


def _row_pass(ptr: np.ndarray, data: np.ndarray, cols: np.ndarray,
              x: np.ndarray, n_row: int) -> np.ndarray:
    """out[k] = sum of data[p] * x[cols[p]] over the pairs p of row k < n_row,
    in order from 0.0 (0.0 in later rows): scipy's compiled CSR kernel
    (:func:`_sparsetools`), called directly, as ``csr_array((data, cols,
    ptr)) @ x`` first builds and checks an array object that costs more
    than a whole (6, 5) product."""
    out = np.zeros(len(x))
    _csr_matvec(n_row, len(x), ptr, cols, data, x, out)
    return out


def _horner(tab, a, outer):
    """Horner composition of the 1-D series ``outer`` with the nilpotent
    part of the row ``a``. Step m of n is followed by n - m products with
    the nilpotent part, so it passes only the rows of degree <= m and
    leaves the others at 0.0; the next step reads a skipped row k only
    through the pair (k, 0), whose factor nil[0] is an exact zero."""
    nil = a.copy()
    nil[0] = 0.0
    # the nilpotent factor of every product, gathered once
    w = nil[tab.mul_j]
    out = np.zeros(tab.size)
    out[0] = outer[-1]
    for m, c in enumerate(outer[-2::-1], 1):
        out = _row_pass(tab.mul_ptr, w, tab.mul_i, out,
                        tab.degree_slices[m].stop)
        out[0] += c
    return out


# Row functions: one operation on the coefficient row ``a`` of the algebra
# ``tab`` and on ``b``, a row or, in the _const, _scale and _power forms, a
# number (_neg ignores it). TaylorPoly's operators and :func:`record`'s
# programs both run them.

def _mul(tab, a, b):
    # the left operand is gathered: swapping the operands reverses each
    # row's summation order
    return _row_pass(tab.mul_ptr, a[tab.mul_i], tab.mul_j, b, tab.size)


def _add(tab, a, b):
    return a + b


def _sub(tab, a, b):
    return a - b


def _add_const(tab, a, c):
    out = a.copy()
    out[0] += c
    return out


def _sub_const(tab, a, c):
    out = a.copy()
    out[0] -= c
    return out


def _rsub_const(tab, a, c):
    out = -a
    out[0] += c
    return out


def _scale(tab, a, c):
    return a * c


def _neg(tab, a, b):
    return -a


def _power_series(a0: float, p: float, n: int) -> list:
    """The series of x**p about ``a0``, which must be positive, to degree
    n, in Python floats."""
    a0 = float(a0)
    if a0 <= 0.0:
        raise DomainError(
            f"power({p}) requires positive constant part, got {a0}", a0)
    outer = [a0 ** p]
    for k in range(1, n + 1):
        outer.append(outer[-1] * (p - (k - 1)) / (k * a0))
    return outer


def _power(tab, a, p):
    """a**p about the constant part, which must be positive."""
    return _horner(tab, a, _power_series(a[0], p, tab.max_order))


def _sine_series(a0: float, n: int, shift: int) -> np.ndarray:
    """sin^(k + shift)(a0) / k!, k <= n: the series of sin (0) or cos (1)."""
    cycle = (math.sin(a0), math.cos(a0), -math.sin(a0), -math.cos(a0))
    return np.array([cycle[(k + shift) % 4] / math.factorial(k)
                     for k in range(n + 1)])


@lru_cache(maxsize=None)
def _embedding(n_from: int, order_from: int, n_to: int,
               order_to: int) -> np.ndarray:
    """Index in the (n_to, order_to) table of every (n_from, order_from)
    monomial, the extra trailing exponents being zero. A monomial's
    graded-lex rank does not depend on the table's order, so a lift to a
    higher order in as many variables keeps every index."""
    small = _tables(n_from, order_from).exponents
    return _graded_lex_rank(np.pad(small, ((0, 0), (0, n_to - n_from))),
                            order_to)


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
        # the slot descriptors' own setters bypass __setattr__ for less
        # than object.__setattr__ costs
        p = object.__new__(cls)
        _set_tab(p, tab)
        _set_coef(p, coef)
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
        # graded-lex order lists the degree-1 monomials from x_(M-1) to x_0
        coef[tab.n_vars - var] = 1.0
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

    def _apply(self, other, fn, const_fn=None):
        """The polynomial whose coefficients the row function ``fn`` gives
        for this polynomial and ``other``, one of the same algebra; when
        ``other`` is not a polynomial, ``const_fn`` (default ``fn``) gives
        them."""
        tab = self._tab
        if isinstance(other, TaylorPoly):
            self._check_same(other)
            return TaylorPoly._raw(tab, fn(tab, self.coef, other.coef))
        return TaylorPoly._raw(tab, (const_fn or fn)(tab, self.coef, other))

    def __add__(self, other):
        return self._apply(other, _add, _add_const)

    __radd__ = __add__

    def __neg__(self):
        return self._apply(None, _neg)

    def __sub__(self, other):
        return self._apply(other, _sub, _sub_const)

    def __rsub__(self, other):
        return self._apply(other, _rsub_const)

    def __mul__(self, other):
        return self._apply(other, _mul, _scale)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TaylorPoly):
            return self * other.reciprocal()
        return TaylorPoly._raw(self._tab, self.coef / other)

    def __rtruediv__(self, other: float):
        return self.reciprocal() * other

    # -- calculus / structure ------------------------------------------------

    def eval(self, point) -> float:
        """Sum of c_alpha * point**alpha over all stored monomials."""
        return float(self.coef @ self.monomials(point, self.max_order + 1))

    def monomials(self, point, below: int) -> np.ndarray:
        """Values at ``point`` of the monomials of degree below ``below``,
        the leading C(M + below - 1, M) of the table.

        Each power point_v**e is taken once into a per-variable table and
        gathered by exponent; a monomial's factors are multiplied in
        variable order, as ``np.prod`` over its row of powers would.
        """
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.n_vars,):
            raise ConfigurationError(
                f"point has shape {point.shape}, expected ({self.n_vars},)")
        table = point[:, None] ** np.arange(self.max_order + 1)
        rows = math.comb(self.n_vars + below - 1, self.n_vars)
        return np.prod(np.take(table, self._tab.power_index[:, :rows]), axis=0)

    def contraction(self) -> tuple[np.ndarray, np.ndarray]:
        """Matrices (G, H) of the order-j contraction g(x), the sum over k
        in [1, j] of (1/k) dh_k/dx with h_k the degree-k part (by
        super-symmetry its tensor contracted with k - 1 copies of x; by
        Euler's theorem g(x) @ x sums the h_k(x)). On the leading columns
        that :meth:`monomials` fills, g(x) = G @ monomials(x, j) and its
        (M, M) derivative is H @ monomials(x, j - 1), with
        G[v, alpha] = c_(alpha + e_v) (alpha_v + 1) / (|alpha| + 1) and
        H[v, w, beta] = G[v, beta + e_w] (beta_w + 1).
        """
        tab = self._tab
        index, factor = _raised(tab.n_vars, tab.max_order)
        g = self.coef[index] * (factor / (tab.degrees[:index.shape[1]] + 1))
        inner = tab.degree_slices[tab.max_order - 1].start
        return g, g[:, index[:, :inner]] * factor[:, :inner]

    def embed(self, config: AlgebraConfig) -> "TaylorPoly":
        """The same polynomial in an algebra with at least as many variables
        and at least the same order; this polynomial's variables are its
        leading ones, and its coefficients above its order are zero."""
        if config.max_order < self.max_order or config.n_vars < self.n_vars:
            raise ConfigurationError(
                f"cannot embed ({self.n_vars},{self.max_order}) into "
                f"({config.n_vars},{config.max_order})")
        if config == self.config:
            return self
        tab = _tables(config.n_vars, config.max_order)
        coef = np.zeros(tab.size)
        coef[_embedding(self.n_vars, self.max_order, config.n_vars,
                        config.max_order)] = self.coef
        return TaylorPoly._raw(tab, coef)

    def gradient_at_zero(self) -> np.ndarray:
        """Row vector of degree-1 coefficients, one entry per variable (the
        table lists them from x_(M-1) to x_0)."""
        return self.coef[self.n_vars:0:-1].copy()

    # -- intrinsics ----------------------------------------------------------

    def reciprocal(self) -> "TaylorPoly":
        a0 = self.constant_part
        if a0 == 0.0:
            raise DomainError("reciprocal requires nonzero constant part", a0)
        n = self.max_order
        outer = np.empty(n + 1)
        outer[0] = 1.0 / a0
        for k in range(1, n + 1):
            outer[k] = -outer[k - 1] / a0
        return self._apply(outer, _horner)

    def log(self) -> "TaylorPoly":
        a0 = self.constant_part
        if a0 <= 0.0:
            raise DomainError(f"log requires positive constant part, got {a0}", a0)
        n = self.max_order
        outer = np.empty(n + 1)
        outer[0] = math.log(a0)
        outer[1] = 1.0 / a0
        for k in range(2, n + 1):
            outer[k] = -outer[k - 1] * (k - 1) / (k * a0)
        return self._apply(outer, _horner)

    def sin(self) -> "TaylorPoly":
        return self._apply(_sine_series(self.constant_part, self.max_order, 0),
                           _horner)

    def cos(self) -> "TaylorPoly":
        return self._apply(_sine_series(self.constant_part, self.max_order, 1),
                           _horner)

    def power(self, p: float) -> "TaylorPoly":
        """Real power a**p about the constant part, which must be positive
        (:class:`DomainError` otherwise); also the ``**`` operator, so a
        kernel writes ``x ** p`` for every scalar kind."""
        return self._apply(p, _power)

    __pow__ = power

    def compose(self, inner) -> "TaylorPoly":
        """This 2-variable polynomial at ``inner``, two polynomials of one
        algebra whose constant parts are zero: the sum of c_ab x**a z**b
        over this polynomial's coefficients, (x, z) = ``inner``, in
        inner's algebra. As x and z have no constant part, their powers
        above inner's order vanish, so the truncated result is exact.

        The powers of z take n - 1 products, n being inner's order, and
        one matrix product gives q_a = sum_b c_ab z**b for each a. Horner's
        scheme in x, q_0 + x (q_1 + x (... + x q_n)), takes n more, each
        passing only the rows that later steps keep (as :func:`_horner`
        does). At inner = (x_0, x_1) of a 2-variable algebra every sum
        adds one coefficient to zeros, so the result holds this
        polynomial's coefficients bit for bit.
        """
        if (self.n_vars != 2 or len(inner) != 2
                or not all(isinstance(p, TaylorPoly) for p in inner)):
            raise ConfigurationError(
                f"compose evaluates a 2-variable polynomial at 2 polynomials, "
                f"got {self.n_vars} variables and {len(inner)} arguments")
        x, z = inner
        x._check_same(z)
        if x.coef[0] != 0.0 or z.coef[0] != 0.0:
            raise ConfigurationError(
                "compose needs inner polynomials with zero constant parts, "
                f"got {x.constant_part} and {z.constant_part}")
        tab, n = x._tab, x.max_order
        # c[a, b]: the coefficient of x_0**a x_1**b, of degree at most n
        c = np.zeros((n + 1, n + 1))
        e, low = self._tab.exponents, self._tab.degrees <= n
        c[e[low, 0], e[low, 1]] = self.coef[low]
        powers = np.zeros((n + 1, tab.size))
        powers[0, 0] = 1.0
        for b in range(1, n + 1):
            powers[b] = z.coef if b == 1 else _mul(tab, powers[b - 1], z.coef)
        q = c @ powers
        # step m is followed by n - m products with x: see _horner
        w = x.coef[tab.mul_j]
        out = q[n]
        for m in range(1, n + 1):
            stop = tab.degree_slices[m].stop
            out = _row_pass(tab.mul_ptr, w, tab.mul_i, out, stop)
            out[:stop] += q[n - m, :stop]
        return TaylorPoly._raw(tab, out)


_set_tab = TaylorPoly._tab.__set__
_set_coef = TaylorPoly.coef.__set__


class _Register(TaylorPoly):
    """A value of a program being recorded by :func:`record`: an index
    into the registers. Each operation appends (row function, result,
    left, right) indices to the program; a number takes a register."""

    __slots__ = ("_program", "_index")

    def __init__(self, program: tuple, value=None):
        object.__setattr__(self, "_tab", program[0])
        object.__setattr__(self, "_program", program)
        object.__setattr__(self, "_index", len(program[1]))
        program[1].append(value)

    def _apply(self, other, fn, const_fn=None):
        if not isinstance(other, _Register):
            fn, other = const_fn or fn, _Register(self._program, other)
        out = _Register(self._program)
        self._program[2].append((fn, out._index, self._index, other._index))
        return out


# The statement of each row function in a compiled program but for
# products and powers (:func:`_program_source`), written into its result
# row: o is that row, a the left operand and b the right one, a row or a
# number.
_STATEMENTS = {
    _add: "add({a}, {b}, out={o})",
    _sub: "subtract({a}, {b}, out={o})",
    _neg: "negative({a}, out={o})",
    _scale: "multiply({a}, {b}, out={o})",
    _add_const: "copyto({o}, {a}); {o}[0] += {b}",
    _sub_const: "copyto({o}, {a}); {o}[0] -= {b}",
    _rsub_const: "negative({a}, out={o}); {o}[0] += {b}",
}


def _schedule(order: int, n_rows: int, kinds: tuple, ops: tuple,
              outs: tuple) -> tuple:
    """The plan of a tape recorded in an algebra of order ``order``, its
    numbers and its fixed rows. ``kinds`` holds the kind of each register:
    None for a row that the program computes, True for a fixed polynomial
    and False for a number.

    Every row register gets a row of the workspace: the inputs the first
    ``n_rows``, then one row that stays zero, the fixed rows, the results
    of the operations other than products and powers, and last the rows
    that row passes write, which a run zeroes first. Number k is the
    argument ``c{k}``. An operation's level counts the products and
    powers on its longest chain from the inputs. Level by level, the plan
    runs the level's products as one step, into consecutive rows, its
    powers as another, and then its other operations one by one in tape
    order. The p powers of a level take order + 1 blocks of p rows, the
    start of Horner's recurrence and each step's result (a single
    power's last one its result row), and then p result rows. The plan,
    ``(n_rows, numbers, zeroed, rows, steps, outs)``, holds row indices
    and row functions alone. Returns it, the registers of the numbers in
    argument order, each with whether it goes in as a 0-d array, and
    (row, register) of each fixed polynomial.
    """
    level = dict.fromkeys(range(n_rows), 0)
    slot = {k: k for k in range(n_rows)}
    fixed = []
    for k, kind in enumerate(kinds):
        if kind:
            level[k], slot[k] = 0, n_rows + 1 + len(fixed)
            fixed.append((slot[k], k))
    numbers = [k for k, kind in enumerate(kinds) if kind is False]
    name = {k: f"c{i}" for i, k in enumerate(numbers)}
    levels = {}
    for op in ops:
        fn, o, a, b = op
        level[o] = max(level[a], level.get(b, 0)) + (fn is _mul or
                                                     fn is _power)
        kind = 0 if fn is _mul else 1 if fn is _power else 2
        levels.setdefault(level[o], ([], [], []))[kind].append(op)
    levels = [levels[lv] for lv in sorted(levels)]
    free = n_rows + 1 + len(fixed)
    for _, _, others in levels:
        for _, o, _, _ in others:
            slot[o], free = free, free + 1
    zeroed, steps = free, []
    for products, powers, others in levels:
        if products:
            steps.append((_mul, free, tuple((slot[a], slot[b])
                                            for _, _, a, b in products)))
            for _, o, _, _ in products:
                slot[o], free = free, free + 1
        if powers:
            blocks, p = free, len(powers)
            free += (order + 1) * p
            results = free - 1 if p == 1 else free
            steps.append((_power, blocks, tuple(
                (slot[a], name[b]) for _, _, a, b in powers), results))
            for k, (_, o, _, _) in enumerate(powers):
                slot[o] = results + k
            free = results + p
        for fn, o, a, b in others:
            steps.append((fn, slot[o], slot[a],
                          f"r{slot[b]}" if b in slot else name.get(b)))
    plan = (n_rows, len(numbers), zeroed, free, tuple(steps),
            tuple(slot[k] for k in outs))
    scales = {b for fn, _, _, b in ops if fn is _scale}
    return plan, tuple((k, k in scales) for k in numbers), tuple(fixed)


def _stacked_products(tab: _AlgebraTables, pairs: tuple) -> tuple:
    """(ptr, cols, gather) of one pass that forms the product of each pair
    (left row, right row) of workspace rows into consecutive rows: the
    product table stacked block-diagonally, its columns the right
    operand's flat positions, and the flat positions of the left operand
    from which one gather takes the pass's data."""
    n, pairs = tab.size, np.array(pairs)
    count = len(tab.mul_i)
    ptr = np.append((tab.mul_ptr[:-1] + count * np.arange(len(pairs))[:, None]
                     ).ravel(), count * len(pairs))
    cols = (pairs[:, 1, None] * n + tab.mul_j).ravel()
    gather = (pairs[:, 0, None] * n + tab.mul_i).ravel()
    return ptr, cols, gather


def _stacked_horner(tab: _AlgebraTables, bases: list, zero: int) -> tuple:
    """(ptr, cols, gather) of one Horner step shared by the powers of the
    workspace rows ``bases``. Its rows interleave the powers, row k of
    power b at k * len(bases) + b, so the rows of degree <= m are a prefix
    and a step passes them by its row count alone. The data is each
    base's nilpotent part, gathered by the pair's right index, the
    constant term read from the row ``zero``."""
    n, width = tab.size, len(bases)
    lengths = np.repeat(np.diff(tab.mul_ptr), width)
    ptr = np.concatenate(([0], np.cumsum(lengths)))
    pair = (np.repeat(np.repeat(tab.mul_ptr[:-1], width) - ptr[:-1], lengths)
            + np.arange(ptr[-1]))
    power = np.repeat(np.tile(np.arange(width), n), lengths)
    i, j = tab.mul_i[pair], tab.mul_j[pair]
    gather = np.where(j == 0, zero * n, np.array(bases)[power] * n + j)
    return ptr, i * width + power, gather


def _program_source(tab: _AlgebraTables, plan: tuple) -> tuple[str, dict]:
    """Python source of a recorded program and the index arrays it reads:
    ``_bind(work, matvec, c0, ...)`` returns ``recorded_program(values,
    out=None)`` on the workspace ``work`` (see :func:`_schedule`). Row k
    is the local ``r{k}``, a view of ``work``; a run zeroes the rows that
    passes write, in one call. A level's products are one pass of
    ``matvec``; its powers share each of :func:`_horner`'s steps,
    unrolled, each step writing a block of its own. The text holds row
    indices and the algebra's sizes, nothing else that varies."""
    n_rows, n_numbers, zeroed, n_slots, steps, outs = plan
    n, order = tab.size, tab.max_order
    arrays = {"outs": np.array(outs)}
    views = ["flat = work.reshape(-1)",
             f"{''.join(f'r{k}, ' for k in range(n_slots))}= work",
             f"inputs = work[:{n_rows}]", f"zeroed = work[{zeroed}:]"]
    body = ["values = asarray(values, dtype=float64)",
            f"if values.shape != ({n_rows}, {n}):",
            "    raise ConfigurationError(f'rows have shape {values.shape}, "
            f"expected ({n_rows}, {n})')",
            "copyto(inputs, values)", "zeroed.fill(0.0)"]
    for step, (fn, first, *rest) in enumerate(steps):
        names = (f"ptr{step}", f"cols{step}", f"gather{step}")
        if fn is _mul:
            pairs = rest[0]
            views.append(f"m{step} = work[{first}:{first + len(pairs)}]")
            arrays.update(zip(names, _stacked_products(tab, pairs)))
            body.append(f"matvec({len(pairs) * n}, {n_slots * n}, ptr{step}, "
                        f"cols{step}, flat[gather{step}], flat, m{step})")
        elif fn is _power:
            bases, results = rest
            p = len(bases)
            arrays.update(zip(names, _stacked_horner(
                tab, [a for a, _ in bases], n_rows)))
            # block m, the p interleaved results of step m, flat
            block = [f"h{step}_{m}" for m in range(order + 1)]
            views += [f"{h} = work[{first + m * p}:{first + m * p + p}]"
                      ".reshape(-1)" for m, h in enumerate(block)]
            body += [f"s{b} = power_series(r{a}[0], {c}, {order})"
                     for b, (a, c) in enumerate(bases)]
            body.append(f"w = flat[gather{step}]")
            body += [f"{block[0]}[{b}] = s{b}[{order}]" for b in range(p)]
            for m in range(1, order + 1):
                body.append(f"matvec({tab.degree_slices[m].stop * p}, "
                            f"{n * p}, ptr{step}, cols{step}, w, "
                            f"{block[m - 1]}, {block[m]})")
                body += [f"{block[m]}[{b}] += s{b}[{order - m}]"
                         for b in range(p)]
            if p > 1:
                views += [f"m{step} = work[{results}:{results + p}]",
                          f"t{step} = {block[-1]}.reshape({n}, {p}).T"]
                body.append(f"copyto(m{step}, t{step})")
        else:
            a, b = rest
            body.append(_STATEMENTS[fn].format(o=f"r{first}", a=f"r{a}", b=b))
    body.append("return work.take(outs, 0, out, 'clip')")
    text = "".join([
        f"def _bind(work, matvec, "
        f"{''.join(f'c{k}, ' for k in range(n_numbers))}):\n",
        *(f"    {line}\n" for line in views),
        "    def recorded_program(values, out=None):\n",
        *(f"        {line}\n" for line in body),
        "    return recorded_program\n"])
    return text, arrays


def _compile_source(text: str, names: dict) -> dict:
    """The namespace left by executing the generated module ``text`` over
    the global ``names``. The text goes into :mod:`linecache` under a name
    of its own, so tracebacks and :func:`inspect.getsource` show it."""
    filename = f"<polycam {hash(text) & 0xffffffffffff:012x}>"
    linecache.cache[filename] = (len(text), None, text.splitlines(True),
                                 filename)
    namespace = dict(names)
    exec(compile(text, filename, "exec"), namespace)
    return namespace


@lru_cache(maxsize=None)
def _compiled_program(n_vars: int, max_order: int, n_rows: int,
                      kinds: tuple, ops: tuple, outs: tuple) -> tuple:
    """One tape of the algebra (n_vars, max_order), its register
    ``kinds``, operations and outputs, scheduled (:func:`_schedule`) and
    compiled once per process with its index arrays: ``_bind``, the
    workspace's row count, the number registers and the fixed rows."""
    plan, numbers, fixed = _schedule(max_order, n_rows, kinds, ops, outs)
    text, arrays = _program_source(_tables(n_vars, max_order), plan)
    return _compile_source(text, {
        "asarray": np.asarray, "float64": np.float64,
        "copyto": np.copyto, "add": np.add, "subtract": np.subtract,
        "negative": np.negative, "multiply": np.multiply,
        "power_series": _power_series,
        "ConfigurationError": ConfigurationError,
        **arrays})["_bind"], plan[3], numbers, fixed


def record(fn, config: AlgebraConfig, n_rows: int, fixed=()):
    """``fn(rows, fixed)`` recorded once as a tape of row functions (as
    operator-overloading differentiation tools record one) and compiled
    to Python, returned as ``recorded_program(rows, out=None)``: the
    (outputs, size) coefficient rows of fn's results for the (n_rows,
    size) coefficient rows ``rows`` of the algebra ``config``, written
    into ``out`` if given. Each polynomial of ``fixed``, of that algebra,
    keeps its value in every run; numbers are constants. ``fn`` may use
    +, -, * and ``**`` (:meth:`TaylorPoly.power`) on its arguments and
    branch on their types, not on their values. A run gives fn's values
    on polynomials bit for bit: affine operations are numpy statements
    (``_STATEMENTS``), and products and powers stacked row passes that
    add the same products in the same order as the row functions.

    The compiled code (:func:`_program_source`) depends only on the
    operations and the algebra: constants are bound to it by name and
    fixed polynomials are rows of the workspace, so recordings that
    differ only in them share one code object. A tape is scheduled and
    compiled once per process (:func:`_compiled_program`, keyed on its
    operations and the kinds of its registers): a later recording of it
    runs ``fn`` on registers and binds its values alone. Every register
    is a row of one (rows, size) workspace, allocated here; each level of
    products (see :func:`_schedule`) is one row pass, its left operands
    gathered in one call, and each Horner step one pass shared by the
    level's powers. The workspace belongs to its ``record`` call, so a
    program serves one caller at a time.
    """
    tab = _tables(config.n_vars, config.max_order)
    # the compiled row pass reads its operands without bounds checks
    if any(isinstance(c, TaylorPoly) and c._tab is not tab for c in fixed):
        raise ConfigurationError(f"fixed polynomials must be of {config}")
    program = (tab, [], [])
    rows = [_Register(program) for _ in range(n_rows)]
    held = [_Register(program, c.coef) if isinstance(c, TaylorPoly) else c
            for c in fixed]
    outs = tuple(r._index for r in fn(rows, held))
    _, regs, ops = program
    kinds = tuple(None if value is None else isinstance(value, np.ndarray)
                  for value in regs)
    bind, n_slots, numbers, fixed_rows = _compiled_program(
        config.n_vars, config.max_order, n_rows, kinds, tuple(ops), outs)
    work = np.zeros((n_slots, tab.size))
    for row, k in fixed_rows:
        work[row] = regs[k]
    # a ufunc converts a Python float operand on every call, a 0-d array
    # not at all; both multiply in float64
    return bind(work, _csr_matvec, *(
        np.array(regs[k], dtype=np.float64) if scaled else regs[k]
        for k, scaled in numbers))


# -- generic scalar helper ---------------------------------------------------
# Powers are ``x ** p`` for every scalar kind (:meth:`TaylorPoly.power`);
# sine and cosine have no operator, so this one helper lets the Kepler coast
# run unchanged on floats, complex scalars, numpy arrays and TaylorPoly
# scalars.

def generic_sin_cos(x):
    """(sin x, cos x), Python scalars kept as Python scalars."""
    if isinstance(x, TaylorPoly):
        return x.sin(), x.cos()
    lib = cmath if isinstance(x, complex) else math \
        if isinstance(x, float) else np
    return lib.sin(x), lib.cos(x)
