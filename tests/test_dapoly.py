import itertools

import numpy as np
import pytest

from polycam.dapoly import (AlgebraConfig, TaylorPoly, compose,
                            contract_no_first_mode)
from polycam.errors import ConfigurationError, DomainError


def random_poly(cfg, rng, scale=1.0, constant=None):
    coeffs = {}
    for exps in itertools.product(range(cfg.max_order + 1), repeat=cfg.n_vars):
        if sum(exps) <= cfg.max_order:
            coeffs[exps] = rng.normal() * scale
    poly = TaylorPoly.from_coeffs(cfg, coeffs)
    if constant is not None:
        poly = poly - poly.constant_part + constant
    return poly


def coeffs_close(a, b, tol=1e-13):
    ca, cb = a.coeffs, b.coeffs
    scale = max([abs(v) for v in ca.values()]
                + [abs(v) for v in cb.values()] + [1.0])
    return all(abs(ca.get(k, 0.0) - cb.get(k, 0.0)) <= tol * scale
               for k in set(ca) | set(cb))


CFG2 = AlgebraConfig(2, 3)
X = TaylorPoly.variable(CFG2, 0)
Y = TaylorPoly.variable(CFG2, 1)


class TestAdd:
    def test_cancellation(self):
        assert ((1 + X) + (2 - X)).coeffs == {(0, 0): 3.0}

    def test_additive_identity(self):
        p = 1 + 2 * X + 3 * Y * Y
        assert coeffs_close(p + TaylorPoly.zero(CFG2), p)

    def test_like_term_merge(self):
        left = X + Y * Y
        right = Y * Y
        assert (left + right).coeffs == {(1, 0): 1.0, (0, 2): 2.0}

    def test_mismatch_rejected(self):
        other = TaylorPoly.variable(AlgebraConfig(3, 3), 0)
        with pytest.raises(ConfigurationError):
            X + other


class TestMul:
    def test_square_binomial(self):
        cfg = AlgebraConfig(1, 2)
        x = TaylorPoly.variable(cfg, 0)
        assert ((1 + x) * (1 + x)).coeffs == {(0,): 1.0, (1,): 2.0, (2,): 1.0}

    def test_truncation(self):
        cfg = AlgebraConfig(1, 1)
        x = TaylorPoly.variable(cfg, 0)
        assert (x * x).coeffs == {}

    def test_difference_of_squares(self):
        prod = (X + Y) * (X - Y)
        assert prod.coeffs == {(2, 0): 1.0, (0, 2): -1.0}


class TestIntrinsics:
    def test_sqrt_binomial_series(self):
        cfg = AlgebraConfig(1, 2)
        x = TaylorPoly.variable(cfg, 0)
        got = (1 + 2 * x).sqrt()
        assert got.coeffs == {(0,): 1.0, (1,): 1.0, (2,): -0.5}

    def test_reciprocal_geometric_series(self):
        cfg = AlgebraConfig(1, 2)
        x = TaylorPoly.variable(cfg, 0)
        got = (1 + x).reciprocal()
        assert got.coeffs == {(0,): 1.0, (1,): -1.0, (2,): 1.0}

    def test_exp_series(self):
        cfg = AlgebraConfig(1, 3)
        x = TaylorPoly.variable(cfg, 0)
        got = x.exp()
        assert got.coeffs == {(0,): 1.0, (1,): 1.0, (2,): 0.5,
                              (3,): pytest.approx(1 / 6)}

    def test_domain_error_reports_value(self):
        with pytest.raises(DomainError) as err:
            (X - 2).sqrt()
        assert err.value.value == -2.0

    def test_division_by_polynomial(self):
        cfg = AlgebraConfig(1, 3)
        x = TaylorPoly.variable(cfg, 0)
        quotient = (1 - x * x) / (1 - x)   # geometric factorization: 1 + x
        assert coeffs_close(quotient, 1 + x, tol=1e-14)
        scalar = 2.0 / (1 + x)
        assert coeffs_close(scalar, 2 * (1 + x).reciprocal())

    def test_negative_integer_power(self):
        cfg = AlgebraConfig(1, 3)
        x = TaylorPoly.variable(cfg, 0)
        assert coeffs_close((1 + x) ** -2,
                            (1 + x).power(-2.0), tol=1e-13)

    def test_power_matches_repeated_mul(self):
        rng = np.random.default_rng(3)
        cfg = AlgebraConfig(2, 4)
        a = random_poly(cfg, rng, constant=1.7)
        assert coeffs_close(a.power(3.0), a * a * a, tol=1e-12)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(5)
        cfg = AlgebraConfig(3, 5)
        for _ in range(5):
            a = random_poly(cfg, rng, constant=rng.uniform(0.5, 3.0))
            root = a.sqrt()
            assert coeffs_close(root * root, a, tol=1e-12)


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
                       for exps, c in p.coeffs.items())
        assert p.eval(point) == pytest.approx(expected, rel=1e-13)


class TestPartial:
    def test_product_rule_case(self):
        assert (X * X * Y).partial(0).coeffs == {(1, 1): 2.0}

    def test_constant_derivative_zero(self):
        assert TaylorPoly.constant(CFG2, 5.0).partial(0).coeffs == {}

    def test_cubic_at_full_order(self):
        cfg = AlgebraConfig(1, 3)
        x = TaylorPoly.variable(cfg, 0)
        assert (x * x * x).partial(0).coeffs == {(2,): 3.0}

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
                exact = a.partial(var).eval(point)
                assert exact == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestHomogeneous:
    def test_picks_degree(self):
        p = 1 + X + X * X
        assert p.homogeneous(2).coeffs == {(2, 0): 1.0}

    def test_degree_zero(self):
        p = 4.0 + X
        assert p.homogeneous(0).coeffs == {(0, 0): 4.0}

    def test_partition(self):
        rng = np.random.default_rng(2)
        cfg = AlgebraConfig(2, 4)
        p = random_poly(cfg, rng)
        total = TaylorPoly.zero(cfg)
        for k in range(cfg.max_order + 1):
            total = total + p.homogeneous(k)
        assert coeffs_close(total, p)


class TestContraction:
    def test_gradient_row_ignores_phi(self):
        p = 2 * X - 3 * Y + X * Y
        row_a = contract_no_first_mode(p, 1, [0.2, 0.4])
        row_b = contract_no_first_mode(p, 1, [9.0, -2.0])
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
        np.testing.assert_allclose(contract_no_first_mode(p, 2, phi), expected)

    def test_zero_phi_high_order(self):
        p = X * X * Y
        np.testing.assert_allclose(contract_no_first_mode(p, 3, [0.0, 0.0]),
                                   [0.0, 0.0])

    def test_against_finite_differences(self):
        # independent oracle: (1/k) d(h_k)/d(phi_j) by central differences
        rng = np.random.default_rng(7)
        cfg = AlgebraConfig(3, 5)
        a = random_poly(cfg, rng)
        h = 1e-5
        for k in range(1, 6):
            hk = a.homogeneous(k)
            phi = rng.uniform(-0.8, 0.8, size=3)
            expected = np.zeros(3)
            for j in range(3):
                plus = phi.copy()
                plus[j] += h
                minus = phi.copy()
                minus[j] -= h
                expected[j] = (hk.eval(plus) - hk.eval(minus)) / (2 * h * k)
            got = contract_no_first_mode(a, k, phi)
            np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-9)

    def test_euler_identity(self):
        rng = np.random.default_rng(13)
        cfg = AlgebraConfig(4, 5)
        a = random_poly(cfg, rng)
        for k in range(1, 6):
            phi = rng.uniform(-1.0, 1.0, size=4)
            lhs = contract_no_first_mode(a, k, phi) @ phi
            rhs = a.homogeneous(k).eval(phi)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n_vars,order", [(1, 5), (6, 3)])
    def test_matches_formal_partials(self, n_vars, order):
        # oracle: component j is (1/k) d(h_k)/dx_j from the formal derivative
        rng = np.random.default_rng(17)
        cfg = AlgebraConfig(n_vars, order)
        a = random_poly(cfg, rng)
        for k in range(1, order + 1):
            phi = rng.uniform(-1.5, 1.5, size=n_vars)
            hk = a.homogeneous(k)
            expected = [hk.partial(j).eval(phi) / k for j in range(n_vars)]
            np.testing.assert_allclose(contract_no_first_mode(a, k, phi),
                                       expected, rtol=1e-12, atol=1e-14)


def nilpotent_poly(cfg, rng):
    """Random polynomial with every coefficient but the constant drawn."""
    coef = rng.normal(size=TaylorPoly.zero(cfg).coef.size)
    coef[0] = 0.0
    return TaylorPoly(cfg, coef)


class TestCompose:
    def test_identity_inner_map_returns_outer(self):
        rng = np.random.default_rng(51)
        cfg = AlgebraConfig(3, 4)
        outer = random_poly(cfg, rng)
        identity = [TaylorPoly.variable(cfg, i) for i in range(3)]
        assert np.array_equal(compose(outer, identity).coef, outer.coef)

    def test_linear_inner_map_is_exact(self):
        rng = np.random.default_rng(52)
        cfg = AlgebraConfig(3, 4)
        outer = random_poly(cfg, rng)
        a = rng.normal(size=(3, 3))
        x = [TaylorPoly.variable(cfg, i) for i in range(3)]
        inner = [sum(x[j] * a[i, j] for j in range(3)) for i in range(3)]
        composed = compose(outer, inner)
        for point in rng.uniform(-0.7, 0.7, size=(5, 3)):
            assert composed.eval(point) == pytest.approx(
                outer.eval(a @ point), rel=1e-12, abs=1e-12)

    def test_matches_monomial_oracle(self):
        # six outer variables of order 5 substituted by nilpotent
        # polynomials in nine variables, against sum c_a prod g_j**a_j
        rng = np.random.default_rng(53)
        outer_cfg = AlgebraConfig(6, 5)
        inner_cfg = AlgebraConfig(9, 5)
        outers = [random_poly(outer_cfg, rng) for _ in range(2)]
        inner = [nilpotent_poly(inner_cfg, rng) for _ in range(6)]
        coeffs = [p.coeffs for p in outers]
        expected = [TaylorPoly.zero(inner_cfg) for _ in outers]
        for exps in coeffs[0]:
            term = TaylorPoly.constant(inner_cfg, 1.0)
            for g, a in zip(inner, exps):
                term = term * g ** a
            expected = [e + term * c.get(exps, 0.0)
                        for e, c in zip(expected, coeffs)]
        got = compose(outers, inner)
        assert len(got) == 2
        for g, e in zip(got, expected):
            assert coeffs_close(g, e, tol=1e-13)

    def test_non_nilpotent_inner_rejected(self):
        inner = [TaylorPoly.variable(CFG2, 0) + 0.5, Y]
        with pytest.raises(ConfigurationError):
            compose(X * Y, inner)

    def test_order_mismatch_rejected(self):
        cfg = AlgebraConfig(2, 4)
        inner = [TaylorPoly.variable(cfg, i) for i in range(2)]
        with pytest.raises(ConfigurationError):
            compose(X * Y, inner)


class TestEmbed:
    def test_leading_variables_keep_their_values(self):
        rng = np.random.default_rng(54)
        small = random_poly(AlgebraConfig(2, 3), rng)
        big = small.embed(AlgebraConfig(4, 3))
        assert big.n_vars == 4
        assert big.eval([0.3, -0.2, 0.7, 0.1]) == pytest.approx(
            small.eval([0.3, -0.2]), rel=1e-14)
        assert big.partial(2).coeffs == {}

    def test_fewer_variables_rejected(self):
        with pytest.raises(ConfigurationError):
            X.embed(AlgebraConfig(1, 3))


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
    def test_tiny_coefficients_dropped_on_write(self):
        p = TaylorPoly.from_coeffs(CFG2, {(1, 0): 1e-301, (0, 1): 1.0})
        assert p.coeffs == {(0, 1): 1.0}

    def test_out_of_order_multi_index_rejected(self):
        with pytest.raises(ConfigurationError):
            TaylorPoly.from_coeffs(CFG2, {(2, 2): 1.0})

    def test_immutable(self):
        with pytest.raises(AttributeError):
            X.coef = None
