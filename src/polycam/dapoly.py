"""Truncated multivariate Taylor-polynomial algebra.

A :class:`TaylorPoly` is a polynomial in M variables truncated at a fixed
total degree n. It is the scalar type threaded through the propagator and
the collision-probability composition to obtain arbitrary-order expansions
of whole numerical pipelines. A polynomial embeds into an algebra with more
variables, a higher order or both (:meth:`TaylorPoly.embed`), so a pipeline
can run its early stages in small algebras and widen as variables join, or
run a stage at a low order and carry on at a higher one. Each operation is
a row function on coefficient vectors; :func:`record` turns a function of
polynomials into a replayable program of them.

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
reordering a row's pairs changes the last bits.

Passes skip pairs with an exact zero factor and rows no later step reads
(:func:`_horner`). For finite coefficients a skipped product is +-0.0,
and adding +-0.0 to a row's sum, which starts from +0.0 and so is never
-0.0, leaves it as it is: with the kept pairs in their order, every
coefficient keeps the bits of the full pass.
"""

from __future__ import annotations

import cmath
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
    "contract_no_first_mode",
    "generic_power",
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
        "config", "n_vars", "max_order", "size", "exponents", "index_of",
        "power_index", "degrees", "degree_slices", "mul_ptr", "mul_i", "mul_j",
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
        self.index_of = {tuple(e): i for i, e in enumerate(small.tolist())}
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

    @lru_cache(maxsize=None)
    def contraction_map(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(M, N) source indices and exponent factors for the first
        derivatives of the degree-k part, N being the number of degree-(k-1)
        monomials: row j lists the degree-k monomials containing variable j,
        ascending, so that lowering x_j in each gives the degree-(k-1)
        monomials in table order (lexicographic order survives the shift).
        """
        sl = self.degree_slices[k]
        exps = self.exponents[sl]
        src = [sl.start + np.flatnonzero(exps[:, j]) for j in range(self.n_vars)]
        fac = [exps[exps[:, j] > 0, j].astype(np.float64)
               for j in range(self.n_vars)]
        return np.array(src, dtype=np.intp), np.array(fac)


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


def _monomial_values(tab: _AlgebraTables, point: np.ndarray,
                     rows: slice = slice(None)) -> np.ndarray:
    """The table's monomials (those in ``rows``) evaluated at ``point``.

    Each power point_v**e is taken once into a per-variable table and
    gathered by exponent; a monomial's factors are multiplied in variable
    order, as ``np.prod`` over its row of powers would.
    """
    table = point[:, None] ** np.arange(tab.max_order + 1)
    return np.prod(np.take(table, tab.power_index[:, rows]), axis=0)


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


def _gather(tab, a, b):
    return a[tab.mul_i]


def _gathered_mul(tab, w, b):
    return _row_pass(tab.mul_ptr, w, tab.mul_j, b, tab.size)


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


def _power(tab, a, p):
    """a**p about the constant part, which must be positive."""
    a0 = float(a[0])
    if a0 <= 0.0:
        raise DomainError(
            f"power({p}) requires positive constant part, got {a0}", a0)
    outer = np.empty(tab.max_order + 1)
    outer[0] = a0 ** p
    for k in range(1, tab.max_order + 1):
        outer[k] = outer[k - 1] * (p - (k - 1)) / (k * a0)
    return _horner(tab, a, outer)


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
        e = [0] * tab.n_vars
        e[var] = 1
        coef[tab.index_of[tuple(e)]] = 1.0
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
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.n_vars,):
            raise ConfigurationError(
                f"point has shape {point.shape}, expected ({self.n_vars},)")
        return float(self.coef @ _monomial_values(self._tab, point))

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
        """Row vector of degree-1 coefficients, one entry per variable."""
        tab = self._tab
        sl = tab.degree_slices[1]
        grad = np.zeros(tab.n_vars)
        # degree-1 block rows are unit exponent vectors
        grad[np.nonzero(tab.exponents[sl])[1]] = self.coef[sl]
        return grad

    # -- intrinsics ----------------------------------------------------------

    def sqrt(self) -> "TaylorPoly":
        a0 = self.constant_part
        if a0 <= 0.0:
            raise DomainError(f"sqrt requires positive constant part, got {a0}", a0)
        n = self.max_order
        outer = np.empty(n + 1)
        outer[0] = math.sqrt(a0)
        for k in range(1, n + 1):
            outer[k] = outer[k - 1] * (0.5 - (k - 1)) / (k * a0)
        return self._apply(outer, _horner)

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

    def exp(self) -> "TaylorPoly":
        a0 = self.constant_part
        n = self.max_order
        outer = np.empty(n + 1)
        outer[0] = math.exp(a0)
        for k in range(1, n + 1):
            outer[k] = outer[k - 1] / k
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
        """Real power a**p about the constant part (requires it positive)."""
        return self._apply(p, _power)


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


def record(fn, config: AlgebraConfig, n_rows: int, fixed=()):
    """``fn(rows, fixed)`` recorded once as a straight-line program of row
    functions (the tape of operator-overloading differentiation tools),
    returned as ``run(rows)``: the coefficient rows of fn's results for
    the (n_rows, size) coefficient rows ``rows`` of the algebra
    ``config``. Each polynomial of ``fixed``, of that algebra, keeps its
    value in every run; numbers are constants. ``fn`` may use +, -, *
    and :meth:`TaylorPoly.power` on its arguments and branch on their
    types, not on their values; a run adds the same products in the same
    order as ``fn`` on polynomials would. Runs share one register list,
    so a program serves one caller at a time.

    A product's left operand is gathered once per run, before its first
    product, for every product it feeds; each keeps :func:`_mul`'s bits.
    """
    tab = _tables(config.n_vars, config.max_order)
    # the compiled row pass reads its operands without bounds checks
    if any(isinstance(c, TaylorPoly) and c._tab is not tab for c in fixed):
        raise ConfigurationError(f"fixed polynomials must be of {config}")
    program = (tab, [], [])
    rows = [_Register(program) for _ in range(n_rows)]
    held = [_Register(program, c.coef) if isinstance(c, TaylorPoly) else c
            for c in fixed]
    outs = [r._index for r in fn(rows, held)]
    _, regs, recorded = program
    gathers, ops = {}, []
    for op, out, a, b in recorded:
        if op is _mul:
            if a not in gathers:
                gathers[a] = len(regs)
                regs.append(None)
                ops.append((_gather, gathers[a], a, a))
            op, a = _gathered_mul, gathers[a]
        ops.append((op, out, a, b))

    def run(values) -> list:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (n_rows, tab.size):
            raise ConfigurationError(f"rows have shape {values.shape}, "
                                     f"expected {(n_rows, tab.size)}")
        regs[:n_rows] = values
        for op, out, a, b in ops:
            regs[out] = op(tab, regs[a], regs[b])
        return [regs[k] for k in outs]

    return run


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
# These let the force kernels and the Kepler coast run unchanged on floats,
# complex scalars, numpy arrays and TaylorPoly scalars.

def generic_power(x, p: float):
    if isinstance(x, TaylorPoly):
        return x.power(p)
    # np.power's value, kept a Python scalar for cheap scalar arithmetic
    if isinstance(x, float):
        return float(np.power(x, p))
    if isinstance(x, complex):
        return complex(np.power(x, p))
    return np.power(x, p)


def generic_sin_cos(x):
    """(sin x, cos x), Python scalars kept, as in :func:`generic_power`."""
    if isinstance(x, TaylorPoly):
        return x.sin(), x.cos()
    lib = cmath if isinstance(x, complex) else math \
        if isinstance(x, float) else np
    return lib.sin(x), lib.cos(x)
