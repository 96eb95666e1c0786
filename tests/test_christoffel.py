"""K_n: the exact forms and their certificate, the floating sum form, and
the weighted basis Q_j."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from ortholeg.christoffel import (
    _pstar_kn,
    _pstar_pair_kn,
    check_kn_forms,
    kn_eval,
    kn_exact,
    q_basis_all,
)
from ortholeg.ratpoly import LaurentPoly

RNG = np.random.default_rng(1357)


def test_value_at_zero_degree_one():
    # K_1(x) = (1 + 3x^2)/4
    assert kn_eval(1, 0.0) == pytest.approx(0.25, abs=1e-15)


def test_sum_form_hand_expansion_degree_one():
    # (1/2 + 3x^2/2)/2 = (3x^2+1)/4
    xs = RNG.uniform(-1, 1, 50)
    assert np.allclose(kn_eval(1, xs), (3 * xs**2 + 1) / 4, atol=1e-15)


def test_pair_matches_block_bit_for_bit():
    xs = RNG.uniform(-1, 1, 301)
    for n in (0, 1, 5, 40, 200):
        pstar, kn = _pstar_kn(n, xs)
        for i, j in ((0, 0), (0, n), (n // 2, n // 3), (n, n)):
            pi, pj, kn_pair = _pstar_pair_kn(n, i, j, xs)
            assert np.array_equal(pi, pstar[i])
            assert np.array_equal(pj, pstar[j])
            assert np.array_equal(kn_pair, kn)


def test_value_at_one():
    # P_k(1) = 1 forces K_n(1) = (n+1)/2
    for n in (1, 2, 7, 30):
        assert kn_eval(n, 1.0) == pytest.approx((n + 1) / 2, rel=1e-12)
    assert kn_eval(1, 1.0) == pytest.approx(1.0)
    assert kn_eval(2, 1.0) == pytest.approx(1.5)


def test_exact_low_degrees():
    assert kn_exact(0) == LaurentPoly({0: F(1, 2)})
    assert kn_exact(1) == LaurentPoly({0: F(1, 4), 2: F(3, 4)})


def test_exact_forms_agree_to_forty():
    for n in range(41):
        assert check_kn_forms(n).passed


def test_positive_on_interval():
    xs = RNG.uniform(-1, 1, 1000)
    for n in range(51):
        values = kn_eval(n, xs)
        assert np.all(values > 0)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        kn_eval(-1, 0.5)


class TestQBasis:
    def test_degree_zero_is_constant_one(self):
        for x in (-1.0, -0.2, 0.9):
            assert q_basis_all(0, x)[0] == pytest.approx(1.0, abs=1e-14)

    def test_hand_value(self):
        # K_1(0) = 1/4 so Q_0(0) = (1/sqrt 2)/(1/2) = sqrt 2
        assert q_basis_all(1, 0.0)[0] == pytest.approx(math.sqrt(2), abs=1e-14)
        assert q_basis_all(1, 0.0)[1] == pytest.approx(0.0, abs=1e-14)

    def test_squares_sum_to_dimension(self):
        q = q_basis_all(3, 0.3)
        assert float(np.sum(q * q)) == pytest.approx(4.0, abs=1e-10)

    def test_squares_sum_identity_random(self):
        xs = RNG.uniform(-1, 1, 1000)
        for n in range(51):
            q = q_basis_all(n, xs)
            total = np.sum(q * q, axis=0)
            assert np.max(np.abs(total - (n + 1))) <= 1e-9 * (n + 1)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            q_basis_all(2, 1.5)

    def test_nan_rejected(self):
        for x in (math.nan, np.array([0.1, math.nan, -0.3])):
            with pytest.raises(ValueError, match=r"\[-1, 1\]"):
                q_basis_all(3, x)
