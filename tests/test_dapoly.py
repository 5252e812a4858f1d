import itertools
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import polycam
from polycam import dapoly
from polycam.dapoly import (AlgebraConfig, TaylorPoly, _checked_row_table,
                            _embedding, _graded_lex_rank, _tables, record)
from polycam.errors import ConfigurationError, DomainError

from poly_reference import (coeffs, embedding, from_coeffs, homogeneous,
                            loop_tables, partial, reference_mul,
                            reference_sin_cos,
                            reference_triples)


def random_poly(cfg, rng, scale=1.0, constant=None):
    coeffs = {}
    for exps in itertools.product(range(cfg.max_order + 1), repeat=cfg.n_vars):
        if sum(exps) <= cfg.max_order:
            coeffs[exps] = rng.normal() * scale
    poly = from_coeffs(cfg, coeffs)
    if constant is not None:
        poly = poly - poly.constant_part + constant
    return poly


def coeffs_close(a, b, tol=1e-13):
    ca, cb = coeffs(a), coeffs(b)
    scale = max([abs(v) for v in ca.values()]
                + [abs(v) for v in cb.values()] + [1.0])
    return all(abs(ca.get(k, 0.0) - cb.get(k, 0.0)) <= tol * scale
               for k in set(ca) | set(cb))


CFG2 = AlgebraConfig(2, 3)
X = TaylorPoly.variable(CFG2, 0)
Y = TaylorPoly.variable(CFG2, 1)


class TestAdd:
    def test_cancellation(self):
        assert coeffs((1 + X) + (2 - X)) == {(0, 0): 3.0}

    def test_additive_identity(self):
        p = 1 + 2 * X + 3 * Y * Y
        assert coeffs_close(p + TaylorPoly.zero(CFG2), p)

    def test_like_term_merge(self):
        left = X + Y * Y
        right = Y * Y
        assert coeffs(left + right) == {(1, 0): 1.0, (0, 2): 2.0}

    def test_mismatch_rejected(self):
        other = TaylorPoly.variable(AlgebraConfig(3, 3), 0)
        with pytest.raises(ConfigurationError):
            X + other


class TestMul:
    def test_square_binomial(self):
        cfg = AlgebraConfig(1, 2)
        x = TaylorPoly.variable(cfg, 0)
        assert coeffs((1 + x) * (1 + x)) == {(0,): 1.0, (1,): 2.0, (2,): 1.0}

    def test_truncation(self):
        cfg = AlgebraConfig(1, 1)
        x = TaylorPoly.variable(cfg, 0)
        assert coeffs(x * x) == {}

    def test_difference_of_squares(self):
        prod = (X + Y) * (X - Y)
        assert coeffs(prod) == {(2, 0): 1.0, (0, 2): -1.0}


class TestIntrinsics:
    def test_reciprocal_geometric_series(self):
        cfg = AlgebraConfig(1, 2)
        x = TaylorPoly.variable(cfg, 0)
        got = (1 + x).reciprocal()
        assert coeffs(got) == {(0,): 1.0, (1,): -1.0, (2,): 1.0}

    def test_log_series(self):
        cfg = AlgebraConfig(1, 3)
        x = TaylorPoly.variable(cfg, 0)
        got = (2 + 2 * x).log()
        assert coeffs(got) == {(0,): pytest.approx(math.log(2)), (1,): 1.0,
                              (2,): -0.5, (3,): pytest.approx(1 / 3)}

    def test_log_outside_domain(self):
        with pytest.raises(DomainError) as err:
            (X - 2).log()
        assert err.value.value == -2.0

    def test_power_matches_repeated_mul(self):
        rng = np.random.default_rng(3)
        cfg = AlgebraConfig(2, 4)
        a = random_poly(cfg, rng, constant=1.7)
        assert coeffs_close(a.power(3.0), a * a * a, tol=1e-12)

    @pytest.mark.parametrize("cfg", [AlgebraConfig(1, 7), AlgebraConfig(3, 5),
                                     AlgebraConfig(6, 4)],
                             ids=["m1o7", "m3o5", "m6o4"])
    def test_sin_cos_match_the_series(self, cfg):
        rng = np.random.default_rng(11)
        for constant in (0.3, -2.0, 14.0):
            a = random_poly(cfg, rng, scale=0.5, constant=constant)
            want_sin, want_cos = reference_sin_cos(a)
            for got, want in ((a.sin(), want_sin), (a.cos(), want_cos)):
                assert np.max(np.abs(got.coef - want)) \
                    <= 1e-13 * max(np.max(np.abs(want)), 1.0)

    def test_sin_cos_square_to_one(self):
        rng = np.random.default_rng(12)
        a = random_poly(AlgebraConfig(3, 5), rng, constant=0.8)
        s, c = a.sin(), a.cos()
        assert coeffs_close(s * s + c * c, TaylorPoly.constant(a.config, 1.0),
                            tol=1e-13)

    def test_division_by_a_polynomial(self):
        rng = np.random.default_rng(13)
        cfg = AlgebraConfig(2, 4)
        a = random_poly(cfg, rng)
        b = random_poly(cfg, rng, constant=1.9)
        assert coeffs_close((a / b) * b, a, tol=1e-12)
        assert coeffs_close((2.0 / b) * b, TaylorPoly.constant(cfg, 2.0),
                            tol=1e-12)


class TestEval:
    def test_quadratic(self):
        cfg = AlgebraConfig(1, 2)
        x = TaylorPoly.variable(cfg, 0)
        assert (1 + 2 * x + x * x).eval([1.0]) == pytest.approx(4.0)

    def test_at_zero_gives_constant(self):
        p = 3.5 + X + Y
        assert p.eval([0.0, 0.0]) == 3.5

    def test_mixed_monomial(self):
        assert (X * X * Y).eval([2.0, 3.0]) == pytest.approx(12.0)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            X.eval([1.0, 2.0, 3.0])

    def test_matches_monomial_sum(self):
        # oracle: sum of c * prod(point**e) over the stored monomials, with a
        # zero and a negative coordinate
        rng = np.random.default_rng(21)
        cfg = AlgebraConfig(4, 4)
        p = random_poly(cfg, rng)
        point = [0.0, -1.3, 0.7, 2.1]
        expected = sum(c * float(np.prod([x ** e for x, e in zip(point, exps)]))
                       for exps, c in coeffs(p).items())
        assert p.eval(point) == pytest.approx(expected, rel=1e-13)


class TestPartial:
    # the formal derivative of poly_reference, the contraction tests' oracle
    def test_product_rule_case(self):
        assert coeffs(partial(X * X * Y, 0)) == {(1, 1): 2.0}

    def test_constant_derivative_zero(self):
        assert coeffs(partial(TaylorPoly.constant(CFG2, 5.0), 0)) == {}

    def test_cubic_at_full_order(self):
        cfg = AlgebraConfig(1, 3)
        x = TaylorPoly.variable(cfg, 0)
        assert coeffs(partial(x * x * x, 0)) == {(2,): 3.0}

    def test_against_finite_differences(self):
        rng = np.random.default_rng(11)
        cfg = AlgebraConfig(3, 4)
        a = random_poly(cfg, rng)
        h = 1e-5
        for var in range(3):
            for _ in range(4):
                point = rng.uniform(-0.4, 0.4, size=3)
                plus = point.copy()
                plus[var] += h
                minus = point.copy()
                minus[var] -= h
                fd = (a.eval(plus) - a.eval(minus)) / (2 * h)
                exact = partial(a, var).eval(point)
                assert exact == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestHomogeneous:
    def test_picks_degree(self):
        p = 1 + X + X * X
        assert coeffs(homogeneous(p, 2)) == {(2, 0): 1.0}

    def test_degree_zero(self):
        p = 4.0 + X
        assert coeffs(homogeneous(p, 0)) == {(0, 0): 4.0}

    def test_partition(self):
        rng = np.random.default_rng(2)
        cfg = AlgebraConfig(2, 4)
        p = random_poly(cfg, rng)
        total = TaylorPoly.zero(cfg)
        for k in range(cfg.max_order + 1):
            total = total + homogeneous(p, k)
        assert coeffs_close(total, p)


def contraction_at(a, j, phi):
    """``a``'s order-j contraction at ``phi`` and its derivative there."""
    g, h = a.contraction()
    values, inner = a.monomials(phi, j), a.monomials(phi, j - 1)
    return g[:, :len(values)] @ values, h[:, :, :len(inner)] @ inner


def contract(a, k, phi):
    """(1/k) d(h_k)/dx at ``phi``: the order-k contraction of the degree-k
    part alone, as the pseudo-gradient reads it."""
    return contraction_at(homogeneous(a, k), k, phi)[0]


class TestContraction:
    def test_gradient_row_ignores_phi(self):
        p = 2 * X - 3 * Y + X * Y
        row_a = contraction_at(p, 1, [0.2, 0.4])[0]
        row_b = contraction_at(p, 1, [9.0, -2.0])[0]
        np.testing.assert_allclose(row_a, [2.0, -3.0])
        np.testing.assert_allclose(row_b, row_a)

    def test_symmetric_tensor_example(self):
        # degree-2 part x^2 + 2xy + 3y^2 corresponds to the symmetric
        # matrix [[1, 1], [1, 3]]; contracting with (1, 1) gives its row
        # sums (2, 4). Expected value from direct index summation below.
        p = X * X + 2 * X * Y + 3 * Y * Y
        tensor = np.array([[1.0, 1.0], [1.0, 3.0]])
        phi = np.array([1.0, 1.0])
        expected = tensor @ phi
        np.testing.assert_allclose(expected, [2.0, 4.0])
        np.testing.assert_allclose(contract(p, 2, phi), expected)
        # its derivative is the matrix itself
        np.testing.assert_allclose(contraction_at(p, 2, phi)[1], tensor)

    def test_zero_phi_high_order(self):
        p = X * X * Y
        np.testing.assert_allclose(contract(p, 3, [0.0, 0.0]), [0.0, 0.0])

    def test_against_finite_differences(self):
        # independent oracle: (1/k) d(h_k)/d(phi_j) by central differences
        rng = np.random.default_rng(7)
        cfg = AlgebraConfig(3, 5)
        a = random_poly(cfg, rng)
        h = 1e-5
        for k in range(1, 6):
            hk = homogeneous(a, k)
            phi = rng.uniform(-0.8, 0.8, size=3)
            expected = np.zeros(3)
            for j in range(3):
                plus = phi.copy()
                plus[j] += h
                minus = phi.copy()
                minus[j] -= h
                expected[j] = (hk.eval(plus) - hk.eval(minus)) / (2 * h * k)
            got = contract(a, k, phi)
            np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-9)

    def test_euler_identity(self):
        # the order-j contraction dotted with the point sums h_1..h_j there
        rng = np.random.default_rng(13)
        cfg = AlgebraConfig(4, 5)
        a = random_poly(cfg, rng)
        for j in range(1, 6):
            phi = rng.uniform(-1.0, 1.0, size=4)
            lhs = contraction_at(a, j, phi)[0] @ phi
            rhs = sum(homogeneous(a, k).eval(phi) for k in range(1, j + 1))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n_vars,order", [(1, 5), (6, 3)])
    def test_matches_formal_partials(self, n_vars, order):
        # oracle: component j is (1/k) d(h_k)/dx_j from the formal derivative
        rng = np.random.default_rng(17)
        cfg = AlgebraConfig(n_vars, order)
        a = random_poly(cfg, rng)
        for k in range(1, order + 1):
            phi = rng.uniform(-1.5, 1.5, size=n_vars)
            hk = homogeneous(a, k)
            expected = [partial(hk, j).eval(phi) / k for j in range(n_vars)]
            np.testing.assert_allclose(contract(a, k, phi),
                                       expected, rtol=1e-12, atol=1e-14)

    def test_monomials_of_a_point_of_the_wrong_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            (X * Y).monomials([1.0, 2.0, 3.0], 2)


class TestEmbed:
    def test_leading_variables_keep_their_values(self):
        rng = np.random.default_rng(54)
        small = random_poly(AlgebraConfig(2, 3), rng)
        big = small.embed(AlgebraConfig(4, 3))
        assert big.n_vars == 4
        assert big.eval([0.3, -0.2, 0.7, 0.1]) == pytest.approx(
            small.eval([0.3, -0.2]), rel=1e-14)
        assert coeffs(partial(big, 2)) == {}

    def test_fewer_variables_rejected(self):
        with pytest.raises(ConfigurationError):
            X.embed(AlgebraConfig(1, 3))

    def test_higher_order_is_a_prefix_copy(self):
        # graded-lex ranks of the low-degree monomials do not depend on the
        # table's order, so the coefficients keep their places
        rng = np.random.default_rng(55)
        low = random_poly(AlgebraConfig(3, 3), rng)
        high = low.embed(AlgebraConfig(3, 5))
        assert high.config == AlgebraConfig(3, 5)
        size = low.coef.size
        assert np.array_equal(high.coef[:size], low.coef)
        assert not np.any(high.coef[size:])
        assert coeffs(high) == coeffs(low)

    def test_more_variables_and_higher_order_keep_values(self):
        rng = np.random.default_rng(56)
        small = random_poly(AlgebraConfig(3, 3), rng)
        big = small.embed(AlgebraConfig(9, 5))
        assert big.config == AlgebraConfig(9, 5)
        for point in rng.uniform(-1.0, 1.0, size=(5, 9)):
            assert big.eval(point) == pytest.approx(small.eval(point[:3]),
                                                    rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("target", [(2, 2), (1, 3), (1, 5)],
                             ids=["lower-order", "fewer-variables", "both"])
    def test_lower_order_or_fewer_variables_rejected(self, target):
        with pytest.raises(ConfigurationError, match="cannot embed"):
            (X * Y).embed(AlgebraConfig(*target))


def eager_compose(outer, inner):
    """Sum of c * x**a * z**b over the coefficients c of ``outer`` at
    exponents (a, b), each power a chain of :func:`reference_mul`."""
    x, z = inner
    total = np.zeros(x.coef.size)
    for (a, b), c in coeffs(outer).items():
        term = TaylorPoly.constant(x.config, c)
        for factor in [x] * a + [z] * b:
            term = TaylorPoly(x.config, reference_mul(term, factor))
        total += term.coef
    return TaylorPoly(x.config, total)


class TestCompose:
    @pytest.mark.parametrize("order", [1, 5])
    def test_identity_returns_the_coefficients_bit_for_bit(self, order):
        cfg = AlgebraConfig(2, order)
        outer = random_poly(cfg, np.random.default_rng(60 + order))
        inner = (TaylorPoly.variable(cfg, 0), TaylorPoly.variable(cfg, 1))
        assert np.array_equal(outer.compose(inner).coef, outer.coef)

    @pytest.mark.parametrize("n_vars", [3, 9])
    def test_matches_the_eager_sum_in_every_degree(self, n_vars):
        rng = np.random.default_rng(62 + n_vars)
        outer = random_poly(AlgebraConfig(2, 5), rng)
        cfg = AlgebraConfig(n_vars, 5)
        size = _tables(n_vars, 5).size
        inner = [TaylorPoly(cfg, np.append(0.0, rng.normal(size=size - 1)))
                 for _ in range(2)]
        got, want = outer.compose(inner), eager_compose(outer, inner)
        assert got.config == cfg
        for k in range(6):
            wanted = homogeneous(want, k).coef
            assert np.abs(homogeneous(got, k).coef - wanted).max() \
                <= 1e-15 * np.abs(wanted).max()

    def test_nonzero_constant_part_rejected(self):
        inner = (TaylorPoly.variable(CFG2, 0) + 0.5, TaylorPoly.variable(CFG2, 1))
        with pytest.raises(ConfigurationError, match="zero constant parts"):
            (X * Y).compose(inner)
        with pytest.raises(ConfigurationError, match="zero constant parts"):
            (X * Y).compose(inner[::-1])

    @pytest.mark.parametrize("inner", [(X,), (X, Y, X), (X, 0.0)],
                             ids=["one", "three", "number"])
    def test_wrong_count_of_inner_polynomials_rejected(self, inner):
        with pytest.raises(ConfigurationError, match="2 polynomials"):
            (X * Y).compose(inner)

    def test_outer_of_other_than_two_variables_rejected(self):
        outer = TaylorPoly.variable(AlgebraConfig(3, 3), 2)
        with pytest.raises(ConfigurationError, match="2 polynomials"):
            outer.compose((X, Y))


class TestRingProperties:
    def test_associativity_and_distributivity(self):
        rng = np.random.default_rng(21)
        cfg = AlgebraConfig(3, 4)
        for _ in range(4):
            a = random_poly(cfg, rng)
            b = random_poly(cfg, rng)
            c = random_poly(cfg, rng)
            assert coeffs_close((a * b) * c, a * (b * c))
            assert coeffs_close(a * (b + c), a * b + a * c)

    def test_eval_homomorphism_decay(self):
        # |eval(a*b, x) - eval(a,x)*eval(b,x)| decays at order n+1 in |x|
        rng = np.random.default_rng(31)
        cfg = AlgebraConfig(2, 3)
        a = random_poly(cfg, rng)
        b = random_poly(cfg, rng)
        direction = rng.uniform(0.5, 1.0, size=2)
        errors = []
        for scale in (0.1, 0.05, 0.025):
            x = scale * direction
            errors.append(abs((a * b).eval(x) - a.eval(x) * b.eval(x)))
        # halving |x| must shrink the defect by at least ~2^(n+1)
        assert errors[1] <= errors[0] / 2 ** 3.5
        assert errors[2] <= errors[1] / 2 ** 3.5


class TestConcurrency:
    def test_shared_polynomial_evaluates_concurrently(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(41)
        cfg = AlgebraConfig(3, 5)
        shared = random_poly(cfg, rng)
        points = [rng.uniform(-0.5, 0.5, size=3) for _ in range(64)]
        expected = [shared.eval(p) for p in points]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(shared.eval, points))
        assert got == expected


class TestStorage:
    def test_immutable(self):
        with pytest.raises(AttributeError):
            X.coef = None


# -- the compiled row pass against the gather/bincount triple sum -------------

ROW_PASS_ALGEBRAS = [(1, 1), (2, 3), (3, 5), (6, 5), (9, 5)]
# (27, 2) is a 9-node run's variable count, where mixed-radix int64 keys
# of the exponents would overflow at order 5
TABLE_ALGEBRAS = ROW_PASS_ALGEBRAS + [(1, 10), (2, 10), (4, 7), (12, 3),
                                      (27, 2)]


def reference_horner(poly, outer):
    """Horner composition of ``outer`` with the nilpotent part of ``poly``,
    each step a bincount triple sum."""
    i, j, k = reference_triples(poly._tab)
    nil = poly.coef.copy()
    nil[0] = 0.0
    w = nil[j]
    out = np.zeros(poly._tab.size)
    out[0] = outer[-1]
    for c in outer[-2::-1]:
        out = np.bincount(k, weights=out[i] * w, minlength=poly._tab.size)
        out[0] += c
    return out


def row_pass_inputs(cfg, rng, constant=None):
    """A dense random polynomial, and one with about half its
    coefficients exact zeros (signed zeros among them)."""
    size = _tables(cfg.n_vars, cfg.max_order).size
    dense = rng.standard_normal(size)
    sparse = dense * (rng.uniform(size=size) < 0.5)
    polys = [TaylorPoly(cfg, dense), TaylorPoly(cfg, sparse)]
    if constant is not None:
        polys = [p - p.constant_part + constant for p in polys]
    return polys


@pytest.mark.parametrize("n_vars,order", ROW_PASS_ALGEBRAS)
class TestRowPassIsBitwiseReference:
    def test_products(self, n_vars, order):
        rng = np.random.default_rng(100 + 10 * n_vars + order)
        cfg = AlgebraConfig(n_vars, order)
        left = row_pass_inputs(cfg, rng)
        right = row_pass_inputs(cfg, rng)
        for a in left:
            for b in right:
                assert (a * b).coef.tobytes() == reference_mul(a, b).tobytes()

    # the ** operator is :meth:`TaylorPoly.power` under a second name
    @pytest.mark.parametrize("name,args", [
        ("power", (-1.5,)), ("power", (0.3,)), ("reciprocal", ()),
        ("**", (-1.5,)), ("**", (0.3,)), ("log", ())])
    def test_intrinsics(self, n_vars, order, name, args, monkeypatch):
        rng = np.random.default_rng(200 + 10 * n_vars + order)
        cfg = AlgebraConfig(n_vars, order)
        series = []
        horner = dapoly._horner

        def recording(tab, a, outer):
            series.append(outer.copy())
            return horner(tab, a, outer)

        monkeypatch.setattr(dapoly, "_horner", recording)
        for poly in row_pass_inputs(cfg, rng, constant=1.7):
            got = (poly ** args[0] if name == "**"
                   else getattr(poly, name)(*args))
            want = reference_horner(poly, series[-1])
            assert got.coef.tobytes() == want.tobytes()

    def test_recorded_program(self, n_vars, order):
        # every operation, in both operand orders, on the rows of two
        # polynomials and of a held one; each run must give the rows the
        # same function gives on TaylorPoly arguments. The register t is
        # the left operand of three products and the held p of two, so a
        # gather kept from the first run would spoil the second.
        rng = np.random.default_rng(400 + 10 * n_vars + order)
        cfg = AlgebraConfig(n_vars, order)
        a, b = row_pass_inputs(cfg, rng, constant=1.3)
        held = row_pass_inputs(cfg, rng)[1]

        def fn(rows, fixed):
            x, y = rows
            p, c = fixed
            s = x * y - y * x + p * x
            t = s + y
            return [s, 2.0 * x - y * c, 1.5 - s + c, -y + p,
                    (x + 0.5) ** -1.5 * y, x - c, y,
                    t * x, t * y, t * t, p * y]

        run = record(fn, cfg, 2, [held, 0.25])
        for x, y in ((a, b), (b, a)):
            got = run([x.coef, y.coef])
            for g, w in zip(got, fn([x, y], [held, 0.25])):
                assert g.tobytes() == w.coef.tobytes()


class TestRowPassWork:
    """Which rows and pairs the compiled row passes read."""

    @staticmethod
    def passes(monkeypatch):
        # (rows, pairs) read by each row pass
        calls = []
        matvec = dapoly._csr_matvec

        def counting(n_row, n_col, ptr, cols, data, x, out):
            calls.append((n_row, int(ptr[n_row])))
            return matvec(n_row, n_col, ptr, cols, data, x, out)

        monkeypatch.setattr(dapoly, "_csr_matvec", counting)
        return calls

    def test_horner_steps_pass_the_rows_that_reach_the_result(
            self, monkeypatch):
        cfg = AlgebraConfig(6, 5)
        poly = TaylorPoly.variable(cfg, 0) + 2.0
        calls = self.passes(monkeypatch)
        poly.power(-1.5)
        assert [n_row for n_row, _ in calls] == [7, 28, 84, 210, 462]
        assert sum(pairs for _, pairs in calls) == 8567

    def test_kepler_stage_gathers_each_left_operand_once(self, monkeypatch):
        from polycam.dynamics import _kernel_kepler_j2

        cfg = AlgebraConfig(3, 5)
        tab = _tables(3, 5)
        calls = self.passes(monkeypatch)
        run = record(lambda rows, held: _kernel_kepler_j2(
            rows, None, 1.0, 1.0, 0.0), cfg, 6)
        state = [TaylorPoly.variable(cfg, v % 3) + (1.0 if v == 0 else 0.5)
                 for v in range(6)]
        got = run([p.coef for p in state])
        # x * x, yy * yy and z * z in one pass, the five Horner steps of
        # r2 ** -1.5, and the three products of common in one pass; a
        # product pass gathers all its left operands in one call
        level = (3 * tab.size, 3 * len(tab.mul_i))
        assert calls[0] == calls[-1] == level
        assert [n_row for n_row, _ in calls[1:-1]] == [4, 10, 20, 35, 56]
        want = _kernel_kepler_j2(state, None, 1.0, 1.0, 0.0)
        for g, w in zip(got, want):
            assert g.tobytes() == w.coef.tobytes()

    @pytest.mark.parametrize("kind, order, passes", [
        ("J2", 3, 9), ("KEPLER", 5, 7),
        # the squares of both offsets join those of y and z: a level
        # counts products and powers alone
        ("CR3BP", 3, 5)])
    def test_slope_row_passes(self, monkeypatch, kind, order, passes):
        from polycam import dynamics as dyn

        cfg = AlgebraConfig(3, order)
        model = dyn.DynamicsModel(kind=kind, mu=1.0, r_e=0.9)
        calls = self.passes(monkeypatch)
        run = record(lambda rows, held: dyn._derivative_fn(model, held)(rows),
                     cfg, 6, (0.0, 0.0, 0.0))
        state = [TaylorPoly.variable(cfg, v % 3) * 1e-3 + c
                 for v, c in enumerate((0.8, 0.1, 0.05, 0.01, 0.3, 0.02))]
        got = run([p.coef for p in state])
        assert len(calls) == passes
        want = dyn._derivative_fn(model, (0.0, 0.0, 0.0))(state)
        for g, w in zip(got, want):
            assert g.tobytes() == w.coef.tobytes()


@pytest.mark.parametrize("n_vars,order", [(3, 3), (3, 5), (6, 5), (9, 3)])
def test_stacked_levels_match_polynomials(n_vars, order, monkeypatch):
    # four products at level 1, a fixed row among their operands; two
    # independent powers and a product at level 2; products of the powers
    # in both operand orders at level 3
    rng = np.random.default_rng(500 + 10 * n_vars + order)
    cfg = AlgebraConfig(n_vars, order)
    a, b = row_pass_inputs(cfg, rng, constant=1.3)
    held = row_pass_inputs(cfg, rng, constant=0.7)[0]

    def fn(rows, fixed):
        x, y = rows
        p, c = fixed
        xy, yx, px, yp = x * y, y * x, p * x, y * p
        u = (xy + c) ** -1.5
        v = (px * c + 2.0) ** 0.5
        w = yx * yp
        return [u * v, v * u, u * w, w - v, xy, p, y]

    calls = TestRowPassWork.passes(monkeypatch)
    run = record(fn, cfg, 2, [held, 0.25])
    for x, y in ((a, b), (b, a)):
        calls.clear()
        got = run([x.coef, y.coef])
        assert len(calls) == 3 + order
        for g, want in zip(got, fn([x, y], [held, 0.25])):
            assert g.tobytes() == want.coef.tobytes()


def test_programs_of_one_text_keep_their_own_rows():
    # two recordings that differ in their fixed polynomial and number
    # share one code object; each has its own workspace, so runs of one
    # leave the other's rows as they were
    rng = np.random.default_rng(600)
    cfg = AlgebraConfig(3, 3)
    inputs = [row_pass_inputs(cfg, rng, constant=1.1) for _ in range(2)]
    fixed = [[poly, scale] for poly, scale in zip(
        row_pass_inputs(cfg, rng, constant=0.9), (0.5, -2.0))]

    def fn(rows, held):
        x, y = rows
        p, c = held
        return [(x * p + c) * y, (y * y + 1.0) ** -0.5 * c]

    runs = [record(fn, cfg, 2, f) for f in fixed]
    assert runs[0].__code__ is runs[1].__code__
    out = np.empty((2, _tables(3, 3).size))
    for x, y in inputs:
        for run, held in zip(runs, fixed):
            got = run([x.coef, y.coef])
            assert run([y.coef, x.coef], out=out) is out
            for g, want in zip(got, fn([x, y], held)):
                assert g.tobytes() == want.coef.tobytes()
            for g, want in zip(out, fn([y, x], held)):
                assert g.tobytes() == want.coef.tobytes()


def test_a_recorded_tape_is_scheduled_once(monkeypatch):
    # the plan is cached with the compiled code, keyed on the tape: a
    # later recording of the same operations, with other constants and
    # fixed rows, schedules nothing and runs the same bits
    rng = np.random.default_rng(700)
    cfg = AlgebraConfig(3, 3)
    x, y = row_pass_inputs(cfg, rng, constant=1.2)
    held = row_pass_inputs(cfg, rng, constant=0.8)
    plans = []
    schedule = dapoly._schedule
    monkeypatch.setattr(dapoly, "_schedule", lambda *args: (
        plans.append(args) or schedule(*args)))
    dapoly._compiled_program.cache_clear()

    def fn(rows, fixed):
        a, b = rows
        p, c = fixed
        return [(a * p + c) * b, (b * b + 1.0) ** -0.5 * c]

    for poly, number in zip(held, (0.5, -2.0)):
        run = record(fn, cfg, 2, [poly, number])
        want = fn([x, y], [poly, number])
        for got, w in zip(run([x.coef, y.coef]), want):
            assert got.tobytes() == w.coef.tobytes()
    assert len(plans) == 1
    # a tape with other operations is a plan of its own
    record(lambda rows, fixed: [rows[0] * rows[1]], cfg, 2)
    assert len(plans) == 2


class TestRowTable:
    @pytest.mark.parametrize("n_vars,order", ROW_PASS_ALGEBRAS)
    def test_structure(self, n_vars, order):
        tab = _tables(n_vars, order)
        ptr, mi, mj = tab.mul_ptr, tab.mul_i, tab.mul_j
        assert ptr[0] == 0 and ptr[-1] == len(mi) == len(mj)
        assert np.all(np.diff(ptr) >= 0)
        # every pair within the order, exactly once
        ri, rj, _ = reference_triples(tab)
        assert len(mi) == len(ri)
        assert set(zip(mi.tolist(), mj.tolist())) == \
            set(zip(ri.tolist(), rj.tolist()))
        # each pair in the row of its product monomial
        row = np.repeat(np.arange(tab.size), np.diff(ptr))
        assert np.array_equal(tab.exponents[row],
                              tab.exponents[mi] + tab.exponents[mj])
        # within a row, by i and then by j
        same_row = row[1:] == row[:-1]
        ascending = (mi[1:] > mi[:-1]) | ((mi[1:] == mi[:-1])
                                          & (mj[1:] > mj[:-1]))
        assert np.all(ascending[same_row])

    @pytest.mark.parametrize("n_vars,order", TABLE_ALGEBRAS)
    def test_matches_loop_builder(self, n_vars, order):
        tab = _tables(n_vars, order)
        got = (tab.exponents, tab.mul_ptr, tab.mul_i, tab.mul_j)
        for arr, want in zip(got, loop_tables(n_vars, order)):
            assert np.array_equal(arr, want)

    @pytest.mark.parametrize("n_vars,order", TABLE_ALGEBRAS)
    def test_rank_of_own_exponents(self, n_vars, order):
        tab = _tables(n_vars, order)
        assert np.array_equal(_graded_lex_rank(tab.exponents, order),
                              np.arange(tab.size))

    @pytest.mark.parametrize("n_from,n_to", [(3, 6), (6, 9), (3, 9), (1, 12)])
    def test_embedding_matches_lookup(self, n_from, n_to):
        assert np.array_equal(_embedding(n_from, 5, n_to, 5),
                              embedding(n_from, 5, n_to, 5))

    @pytest.mark.parametrize("n_from,n_to", [(3, 3), (3, 9), (9, 9), (1, 12)])
    def test_order_lift_matches_lookup(self, n_from, n_to):
        assert np.array_equal(_embedding(n_from, 3, n_to, 5),
                              embedding(n_from, 3, n_to, 5))

    def test_table_arrays_are_read_only(self):
        tab = _tables(3, 5)
        for arr in (tab.mul_ptr, tab.mul_i, tab.mul_j):
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize("corrupt", [
        "index_past_end", "negative_index", "decreasing_ptr", "short_ptr_end",
        "ptr_not_from_zero"])
    def test_out_of_range_table_refused(self, corrupt):
        tab = _tables(2, 3)
        ptr, mi, mj = (tab.mul_ptr.copy(), tab.mul_i.copy(),
                       tab.mul_j.copy())
        if corrupt == "index_past_end":
            mj[-1] = tab.size
        elif corrupt == "negative_index":
            mi[0] = -1
        elif corrupt == "decreasing_ptr":
            ptr[2], ptr[3] = ptr[3], ptr[2]
        elif corrupt == "short_ptr_end":
            ptr[-1] -= 1
        else:
            ptr[0] = 1
        with pytest.raises(ConfigurationError):
            _checked_row_table(tab.size, ptr, mi, mj)

    @pytest.mark.parametrize("wrong", ["short_rows", "row_count",
                                       "fixed_algebra"])
    def test_record_refuses_operands_out_of_range(self, wrong):
        # the row pass would read past a short row
        cfg = AlgebraConfig(3, 5)
        size = _tables(3, 5).size
        fixed = [TaylorPoly.variable(AlgebraConfig(2, 5), 0)
                 if wrong == "fixed_algebra" else 1.0]
        rows = np.ones((2, size - 1 if wrong == "short_rows" else size))
        with pytest.raises(ConfigurationError):
            run = record(lambda r, f: [r[0] * r[1] * f[0]], cfg,
                         3 if wrong == "row_count" else 2, fixed)
            run(rows)


def run_fresh(script):
    """stdout of ``script`` run by a fresh interpreter that finds the
    package where this process imported it from."""
    src = os.path.dirname(os.path.dirname(polycam.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# a seeded (6, 5) product, its coefficients printed exactly
PRODUCT_6_5 = textwrap.dedent("""
    import json
    import numpy as np
    from polycam.dapoly import AlgebraConfig, TaylorPoly
    rng = np.random.default_rng(65)
    cfg = AlgebraConfig(6, 5)
    a, b = (TaylorPoly(cfg, rng.standard_normal(462)) for _ in range(2))
    print(json.dumps([c.hex() for c in (a * b).coef.tolist()]))
""")


class TestKernelLoad:
    def test_polycam_first_then_scipy_sparse(self):
        # conftest imports scipy before polycam, so only a fresh process
        # sees the kernel loaded first from its file
        polycam_first = run_fresh(textwrap.dedent("""
            import json
            import numpy as np
            import polycam
            import scipy.sparse
            from scipy.sparse._sparsetools import csr_matvec
            from polycam import dapoly
            dense = np.array([[1.5, 0.0, -2.0], [0.0, 3.0, 0.25]])
            x = np.array([0.5, -1.0, 4.0])
            got = scipy.sparse.csr_array(dense) @ x
            print(json.dumps([dapoly._csr_matvec is csr_matvec,
                              bool(np.array_equal(got, dense @ x))]))
        """) + PRODUCT_6_5).splitlines()
        scipy_first = run_fresh("import scipy.sparse\n" + PRODUCT_6_5)
        assert json.loads(polycam_first[0]) == [True, True]
        assert np.array_equal(
            [float.fromhex(c) for c in json.loads(polycam_first[1])],
            [float.fromhex(c) for c in json.loads(scipy_first)])

    def test_missing_kernel_names_the_path(self):
        out = run_fresh("""
            import importlib.machinery
            import numpy
            importlib.machinery.EXTENSION_SUFFIXES[:] = [".missing.so"]
            try:
                import polycam
            except ImportError as exc:
                print(exc)
        """)
        assert "row kernel not found" in out
        assert os.path.join("sparse", "_sparsetools.missing.so") in out
