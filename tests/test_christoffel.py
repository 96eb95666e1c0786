"""K_n in its three forms and the weighted basis Q_j."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from ortholeg.christoffel import (
    check_kn_forms,
    kn_eval,
    kn_exact,
    q_basis_all,
    q_basis_eval,
)

RNG = np.random.default_rng(1357)


def test_value_at_zero_degree_one():
    # K_1(x) = (1 + 3x^2)/4
    assert kn_eval(1, 0.0) == pytest.approx(0.25, abs=1e-15)


def test_value_at_one():
    # P_k(1) = 1 forces K_n(1) = (n+1)/2
    for n in (1, 2, 7, 30):
        for form in ("sum", "christoffel_darboux", "closed_form"):
            assert kn_eval(n, 1.0, form) == pytest.approx((n + 1) / 2, rel=1e-12)
    assert kn_eval(1, 1.0) == pytest.approx(1.0)
    assert kn_eval(2, 1.0) == pytest.approx(1.5)


def test_closed_form_hand_expansion_degree_one():
    # (1/4)(4x^2 - (x^2-1)) = (3x^2+1)/4 agrees with the sum form
    xs = RNG.uniform(-1, 1, 50)
    closed = kn_eval(1, xs, "closed_form")
    assert np.allclose(closed, (3 * xs**2 + 1) / 4, atol=1e-15)
    assert np.allclose(closed, kn_eval(1, xs, "sum"), atol=1e-15)


def test_exact_low_degrees():
    assert kn_exact(0).monomial_coefficients() == [F(1, 2)]
    assert kn_exact(1).monomial_coefficients() == [F(1, 4), F(0), F(3, 4)]


def test_exact_forms_agree_to_forty():
    for n in range(41):
        assert check_kn_forms(n).passed


def test_modes_agree_at_random_points():
    xs = RNG.uniform(-1, 1, 200)
    for n in range(51):
        sum_vals = kn_eval(n, xs, "sum")
        cd_vals = kn_eval(n, xs, "christoffel_darboux")
        closed_vals = kn_eval(n, xs, "closed_form")
        scale = np.abs(sum_vals)
        assert np.max(np.abs(cd_vals - sum_vals) / scale) < 1e-11
        assert np.max(np.abs(closed_vals - sum_vals) / scale) < 1e-11


def test_modes_agree_at_complex_points():
    zs = RNG.uniform(-1, 1, 20) + 1j * RNG.uniform(-1, 1, 20)
    for n in (1, 4, 9):
        cd_vals = kn_eval(n, zs, "christoffel_darboux")
        closed_vals = kn_eval(n, zs, "closed_form")
        assert np.max(np.abs(cd_vals - closed_vals)) < 1e-11 * np.max(np.abs(cd_vals))


def test_positive_on_interval():
    xs = RNG.uniform(-1, 1, 1000)
    for n in range(51):
        values = kn_eval(n, xs, "sum")
        assert np.all(values > 0)


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        kn_eval(3, 0.5, "chebyshev")
    with pytest.raises(ValueError):
        kn_eval(-1, 0.5)


class TestQBasis:
    def test_degree_zero_is_constant_one(self):
        for x in (-1.0, -0.2, 0.9):
            assert q_basis_eval(0, 0, x) == pytest.approx(1.0, abs=1e-14)

    def test_hand_value(self):
        # K_1(0) = 1/4 so Q_0(0) = (1/sqrt 2)/(1/2) = sqrt 2
        assert q_basis_eval(1, 0, 0.0) == pytest.approx(math.sqrt(2), abs=1e-14)
        assert q_basis_eval(1, 1, 0.0) == pytest.approx(0.0, abs=1e-14)

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
            q_basis_eval(2, 0, 1.5)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            q_basis_eval(2, 3, 0.0)
