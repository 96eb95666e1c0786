"""Legendre evaluation, exact coefficients, circle form, identities, products."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from ortholeg.legendre import (
    check_legendre_identities,
    legendre_eval,
    legendre_exact,
    legendre_normalized_eval,
    legendre_on_circle,
    legendre_product_expand,
)
from ortholeg.ratpoly import LaurentPoly

RNG = np.random.default_rng(20260811)


def test_eval_degree_two():
    value, deriv = legendre_eval(2, 0.5)
    assert value == pytest.approx(-0.125, abs=1e-15)
    assert deriv == pytest.approx(1.5, abs=1e-15)


def test_eval_at_one_is_one():
    for n in range(51):
        value, _ = legendre_eval(n, 1.0)
        assert value == pytest.approx(1.0, abs=1e-12)


def test_exact_low_degrees():
    assert legendre_exact(0).monomial_coefficients() == [F(1)]
    assert legendre_exact(1).monomial_coefficients() == [F(0), F(1)]
    assert legendre_exact(2).monomial_coefficients() == [F(-1, 2), F(0), F(3, 2)]
    # (5x^3 - 3x)/2
    assert legendre_exact(3).monomial_coefficients() == [F(0), F(-3, 2), F(0), F(5, 2)]


def _exact_horner(poly, x):
    # evaluate exact coefficients at the exact binary rational of x
    fx = F(x)
    acc = F(0)
    for c in reversed(poly.monomial_coefficients()):
        acc = acc * fx + c
    return float(acc)


def test_eval_matches_exact_coefficients():
    xs = RNG.uniform(-1, 1, size=100)
    for n in (1, 2, 5, 13, 27, 50):
        exact = legendre_exact(n)
        reference = np.array([_exact_horner(exact, float(x)) for x in xs])
        value, _ = legendre_eval(n, xs)
        # relative to the polynomial scale sup |P_n| = 1 on [-1, 1]
        scale = np.maximum(np.abs(reference), 1.0)
        assert np.max(np.abs(value - reference) / scale) < 1e-12


def test_derivative_matches_exact():
    xs = RNG.uniform(-1, 1, size=50)
    for n in (2, 7, 20):
        dexact = legendre_exact(n).diff()
        _, deriv = legendre_eval(n, xs)
        reference = np.array([_exact_horner(dexact, float(x)) for x in xs])
        assert np.max(np.abs(deriv - reference)) < 1e-12 * max(1.0, np.abs(reference).max())


def test_normalized_constant():
    for x in (-0.7, 0.0, 0.3):
        assert legendre_normalized_eval(0, x) == pytest.approx(1 / math.sqrt(2))


def test_normalized_degree_one_at_one():
    assert legendre_normalized_eval(1, 1.0) == pytest.approx(math.sqrt(1.5))


def test_normalized_unit_norm_by_gauss_quadrature():
    # 3-point Gauss-Legendre rule, exact for polynomial degree <= 5:
    # nodes 0, +-sqrt(3/5); weights 8/9, 5/9.
    nodes = [0.0, math.sqrt(3 / 5), -math.sqrt(3 / 5)]
    weights = [8 / 9, 5 / 9, 5 / 9]
    integral = sum(w * legendre_normalized_eval(1, x) ** 2 for x, w in zip(nodes, weights))
    assert integral == pytest.approx(1.0, abs=1e-14)


class TestOnCircle:
    def test_degree_one(self):
        assert legendre_on_circle(1) == LaurentPoly.from_pairs({1: F(1, 2), -1: F(1, 2)})

    def test_degree_two(self):
        expected = LaurentPoly.from_pairs({2: F(3, 8), 0: F(1, 4), -2: F(3, 8)})
        assert legendre_on_circle(2) == expected

    def test_symmetric_under_inversion(self):
        for n in range(31):
            p = legendre_on_circle(n)
            assert p.recip() == p

    def test_support_is_even_spaced(self):
        for n in (3, 8, 15):
            exps = [e for e, _ in legendre_on_circle(n).terms()]
            assert min(exps) == -n and max(exps) == n
            assert all((e - n) % 2 == 0 for e in exps)

    def test_matches_cosine_evaluation(self):
        thetas = RNG.uniform(0, 2 * np.pi, size=100)
        for n in (1, 4, 17, 30):
            p = legendre_on_circle(n)
            on_circle = np.array([p(complex(np.cos(t), np.sin(t))) for t in thetas])
            direct, _ = legendre_eval(n, np.cos(thetas))
            assert np.max(np.abs(on_circle - direct)) < 1e-12


class TestIdentities:
    def test_derivative_relation_hand_case(self):
        # n=1: (x^2-1)*1 - 1*(x*x - 1) = 0
        x = LaurentPoly.monomial(1)
        one = LaurentPoly.one()
        residual = (x * x - one) * legendre_exact(1).diff() - (x * legendre_exact(1) - legendre_exact(0))
        assert residual.is_zero

    def test_derivative_difference_hand_case(self):
        # n=1: 3*P_1 - (P_2' - P_0') = 3x - 3x
        residual = 3 * legendre_exact(1) - (legendre_exact(2).diff() - legendre_exact(0).diff())
        assert residual.is_zero

    def test_all_identities_to_forty(self):
        certs = check_legendre_identities(40)
        assert len(certs) == 5 * 40
        assert all(c.passed for c in certs)

    def test_failure_is_reported_not_raised(self):
        with pytest.raises(ValueError):
            check_legendre_identities(0)


class TestProductExpand:
    def test_equal_degree_one(self):
        exp = legendre_product_expand(1, 1)
        assert exp.radicand == 1
        assert exp.coefficients == (F(1, 2), F(0), F(1))

    def test_mixed_degrees(self):
        exp = legendre_product_expand(0, 1)
        assert exp.radicand == 3
        assert exp.coefficients == (F(0), F(1, 2))
        assert exp.coefficient_float(1) == pytest.approx(math.sqrt(3) / 2)

    def test_constant(self):
        exp = legendre_product_expand(0, 0)
        assert exp.radicand == 1
        assert exp.coefficients == (F(1, 2),)

    def test_constant_coefficient_is_half_delta(self):
        for i in range(9):
            for j in range(9):
                exp = legendre_product_expand(i, j)
                if i == j:
                    assert exp.radicand == 1
                    assert 2 * exp.coefficients[0] == 1
                else:
                    assert exp.coefficients[0] == 0

    def test_expansion_reproduces_exact_monomial_product(self):
        # P_i P_j = (2 / s) sum_k c_k P_k, where sqrt((2i+1)(2j+1)) = s sqrt(radicand)
        for i in range(13):
            for j in range(13):
                exp = legendre_product_expand(i, j)
                s = math.isqrt((2 * i + 1) * (2 * j + 1) // exp.radicand)
                rebuilt = LaurentPoly.zero()
                for k, c in enumerate(exp.coefficients):
                    rebuilt = rebuilt + F(2, s) * c * legendre_exact(k)
                assert rebuilt == legendre_exact(i) * legendre_exact(j)

    def test_expansion_reproduces_product_numerically(self):
        xs = RNG.uniform(-1, 1, size=20)
        for i, j in ((2, 3), (4, 4), (0, 5), (6, 1)):
            exp = legendre_product_expand(i, j)
            direct = np.array([
                legendre_normalized_eval(i, x) * legendre_normalized_eval(j, x) for x in xs
            ])
            rebuilt = np.zeros_like(direct)
            for k in range(exp.max_degree + 1):
                values, _ = legendre_eval(k, xs)
                rebuilt = rebuilt + exp.coefficient_float(k) * values
            assert np.max(np.abs(direct - rebuilt)) < 1e-12
