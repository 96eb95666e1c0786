"""Legendre evaluation by the one float recurrence, exact coefficients, circle
form, identities, products."""

import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from ortholeg.christoffel import _pstar_kn
from ortholeg.legendre import (
    check_legendre_identities,
    legendre_all,
    legendre_eval,
    legendre_exact,
    legendre_on_circle,
    legendre_product_expand,
)
from ortholeg.ratpoly import LaurentPoly

RNG = np.random.default_rng(20260811)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_cold_caches_do_not_recurse_per_degree():
    n = 300
    limit = sys.getrecursionlimit()
    legendre_exact.cache_clear()
    legendre_on_circle.cache_clear()
    try:
        sys.setrecursionlimit(_stack_depth() + n // 2)
        exact, circle = legendre_exact(n), legendre_on_circle(n)
    finally:
        sys.setrecursionlimit(limit)
        legendre_exact.cache_clear()
        legendre_on_circle.cache_clear()
    # P_n(1) = 1, and J(1) = 1
    assert sum(c for _, c in exact.terms()) == 1
    assert sum(c for _, c in circle.terms()) == 1
    assert (exact.degree, circle.min_exp, circle.degree) == (n, -n, n)


def test_eval_degree_two():
    assert legendre_eval(2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_eval_at_one_is_one():
    for n in range(51):
        assert legendre_eval(n, 1.0) == pytest.approx(1.0, abs=1e-12)


_REAL_GRID = np.linspace(-1, 1, 101)
_COMPLEX_POINTS = 1.1 * np.exp(1j * np.linspace(0, 2 * np.pi, 37))


@pytest.mark.parametrize("x", [_REAL_GRID, _COMPLEX_POINTS], ids=["real", "complex"])
def test_eval_is_last_row_of_block(x):
    # one recurrence: P_n alone and the block P_0..P_n agree bit for bit
    for n in range(61):
        assert np.array_equal(legendre_eval(n, x), legendre_all(n, x)[n])


def test_block_shape_and_dtype():
    assert legendre_all(4, 0.3).shape == (5,)
    assert legendre_all(4, _REAL_GRID).dtype == np.float64
    block = legendre_all(4, _COMPLEX_POINTS.reshape(1, -1))
    assert block.shape == (5, 1, 37) and block.dtype == np.complex128
    assert np.array_equal(legendre_all(0, _REAL_GRID), np.ones((1, 101)))


@pytest.mark.parametrize("x", [_REAL_GRID, 0.3, _COMPLEX_POINTS], ids=["real", "scalar", "complex"])
def test_pstar_rows_scale_the_block(x):
    for n in (0, 1, 5, 37):
        pstar, block = _pstar_kn(n, x)[0], legendre_all(n, x)
        for k in range(n + 1):
            assert np.array_equal(pstar[k], math.sqrt((2 * k + 1) / 2) * block[k])


def test_negative_degree_rejected():
    for evaluate in (legendre_eval, legendre_all):
        with pytest.raises(ValueError):
            evaluate(-1, 0.5)


def test_exact_low_degrees():
    assert legendre_exact(0) == LaurentPoly({0: 1})
    assert legendre_exact(1) == LaurentPoly({1: 1})
    assert legendre_exact(2) == LaurentPoly({0: F(-1, 2), 2: F(3, 2)})
    # (5x^3 - 3x)/2
    assert legendre_exact(3) == LaurentPoly({1: F(-3, 2), 3: F(5, 2)})


def _exact_value(poly, x):
    # exact value at the rational x (nonzero when poly has negative exponents)
    return sum((c * x**e for e, c in poly.terms()), F(0))


def test_eval_matches_exact_coefficients():
    xs = RNG.uniform(-1, 1, size=100)
    for n in (1, 2, 5, 13, 27, 50):
        exact = legendre_exact(n)
        # exact coefficients at the exact binary rational of each sample
        reference = np.array([float(_exact_value(exact, F(x))) for x in xs])
        value = legendre_eval(n, xs)
        # relative to the polynomial scale sup |P_n| = 1 on [-1, 1]
        scale = np.maximum(np.abs(reference), 1.0)
        assert np.max(np.abs(value - reference) / scale) < 1e-12


def test_normalized_constant():
    for x in (-0.7, 0.0, 0.3):
        assert math.sqrt(1 / 2) * legendre_eval(0, x) == pytest.approx(1 / math.sqrt(2))


def test_normalized_degree_one_at_one():
    assert math.sqrt(3 / 2) * legendre_eval(1, 1.0) == pytest.approx(math.sqrt(1.5))


def test_normalized_unit_norm_by_gauss_quadrature():
    # 3-point Gauss-Legendre rule, exact for polynomial degree <= 5:
    # nodes 0, +-sqrt(3/5); weights 8/9, 5/9.
    nodes = [0.0, math.sqrt(3 / 5), -math.sqrt(3 / 5)]
    weights = [8 / 9, 5 / 9, 5 / 9]
    integral = sum(w * (math.sqrt(3 / 2) * legendre_eval(1, x)) ** 2
                   for x, w in zip(nodes, weights))
    assert integral == pytest.approx(1.0, abs=1e-14)


def _exact_on_circle(poly, re, im):
    # exact (real, imaginary) value at z = re + i im on the unit circle, where 1/z = conj(z)
    total_re = total_im = F(0)
    for e, c in poly.terms():
        x, y = F(1), F(0)
        for _ in range(abs(e)):
            x, y = x * re - y * im, x * im + y * re
        total_re += c * x
        total_im += c * y if e >= 0 else -c * y
    return total_re, total_im


class TestOnCircle:
    def test_degree_one(self):
        assert legendre_on_circle(1) == LaurentPoly({1: F(1, 2), -1: F(1, 2)})

    def test_degree_two(self):
        expected = LaurentPoly({2: F(3, 8), 0: F(1, 4), -2: F(3, 8)})
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
        # z = (a + ib)/c with a^2 + b^2 = c^2 lies on the unit circle, where
        # J(z) = a/c is the rational cosine: P_n(J(z)) = P_n(a/c) exactly
        triples = ((3, 4, 5), (-5, 12, 13), (8, -15, 17), (-7, -24, 25), (20, 21, 29))
        for n in (1, 4, 17, 30):
            p = legendre_on_circle(n)
            for a, b, c in triples:
                cosine = F(a, c)
                on_circle = _exact_on_circle(p, cosine, F(b, c))
                assert on_circle == (_exact_value(legendre_exact(n), cosine), 0)
                direct = legendre_eval(n, float(cosine))
                assert abs(float(on_circle[0]) - direct) < 1e-12


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
        assert legendre_product_expand(1, 1) == (F(1, 3), F(0), F(2, 3))

    def test_mixed_degrees(self):
        assert legendre_product_expand(0, 1) == (F(0), F(1))

    def test_constant(self):
        assert legendre_product_expand(0, 0) == (F(1),)

    def test_cached_across_degrees(self):
        # the checks of every degree n read the same expansion object
        assert legendre_product_expand(3, 5) is legendre_product_expand(3, 5)

    def test_constant_coefficient_is_half_delta(self):
        # a_0 = delta_ij / (2i+1), so P_i* P_j* has constant coefficient delta_ij / 2
        for i in range(9):
            for j in range(9):
                a0 = legendre_product_expand(i, j)[0]
                assert a0 == (F(1, 2 * i + 1) if i == j else 0)
                assert a0 * F(2 * i + 1, 2) == (F(1, 2) if i == j else 0)

    def test_expansion_reproduces_exact_monomial_product(self):
        for i in range(13):
            for j in range(13):
                rebuilt = LaurentPoly.zero()
                for k, a in enumerate(legendre_product_expand(i, j)):
                    rebuilt = rebuilt + a * legendre_exact(k)
                assert rebuilt == legendre_exact(i) * legendre_exact(j)

    def test_expansion_reproduces_product_numerically(self):
        xs = RNG.uniform(-1, 1, size=20)
        for i, j in ((2, 3), (4, 4), (0, 5), (6, 1)):
            direct = legendre_eval(i, xs) * legendre_eval(j, xs)
            rebuilt = np.zeros_like(direct)
            for k, a in enumerate(legendre_product_expand(i, j)):
                rebuilt = rebuilt + float(a) * legendre_eval(k, xs)
            assert np.max(np.abs(direct - rebuilt)) < 1e-12
