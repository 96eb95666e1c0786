"""K_n: the exact forms and their certificate, the floating sum form, and
the weighted basis Q_j."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from ortholeg import cli, legendre
from ortholeg.christoffel import (
    _pstar_kn,
    check_kn_forms,
    kn_exact,
    q_basis_all,
)
from ortholeg.legendre import legendre_all, legendre_eval
from ortholeg.ratpoly import LaurentPoly
from test_legendre import legendre_value

RNG = np.random.default_rng(1357)


def test_value_at_zero_degree_one():
    # K_1(x) = (1 + 3x^2)/4
    assert _pstar_kn(1, 0.0)[1] == pytest.approx(0.25, abs=1e-15)


def test_sum_form_hand_expansion_degree_one():
    # (1/2 + 3x^2/2)/2 = (3x^2+1)/4
    xs = RNG.uniform(-1, 1, 50)
    assert np.allclose(_pstar_kn(1, xs)[1], (3 * xs**2 + 1) / 4, atol=1e-15)


# the block built out of place: one new array per operation, the squares
# summed in degree order, Q by a new quotient


def _reference_rows(n, x):
    p_prev = x * 0 + 1.0
    yield p_prev
    if n == 0:
        return
    p = x * p_prev
    yield p
    for m in range(1, n):
        p_prev, p = p, ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
        yield p


def _reference_legendre_all(n, x):
    values = np.empty((n + 1,) + np.shape(x), dtype=np.result_type(x, float))
    for k, p in enumerate(_reference_rows(n, x)):
        values[k] = p
    return values


def _reference_pstar_kn(n, x):
    pstar = _reference_legendre_all(n, x)
    pstar *= np.sqrt(np.arange(1, 2 * n + 2, 2) / 2).reshape((n + 1,) + (1,) * np.ndim(x))
    kn = pstar[0] * pstar[0]
    for row in pstar[1:]:
        kn = kn + row * row
    return pstar, kn / (n + 1)


def _reference_q_basis_all(n, x):
    pstar, kn = _reference_pstar_kn(n, np.asarray(x, dtype=float))
    return pstar / np.sqrt(kn)


def _identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# its own generator, so the inputs of the tests above and below do not move
_BLOCK_RNG = np.random.default_rng(2468)
_BLOCK_POINTS = {
    "()": np.array(0.37),
    "float": -0.81,
    "(1,)": _BLOCK_RNG.uniform(-1, 1, 1),
    "(2,)": _BLOCK_RNG.uniform(-1, 1, 2),
    "(5, 7)": _BLOCK_RNG.uniform(-1, 1, (5, 7)),
    "(3000,)": np.concatenate(([-1.0, -0.0, 0.0, 1.0], _BLOCK_RNG.uniform(-1, 1, 2996))),
}


@pytest.mark.parametrize("n", [0, 1, 2, 160, 800])
@pytest.mark.parametrize("x", _BLOCK_POINTS.values(), ids=_BLOCK_POINTS.keys())
def test_block_is_bit_for_bit_the_out_of_place_block(n, x):
    assert _identical(legendre_all(n, x), _reference_legendre_all(n, x))
    pstar, kn = _pstar_kn(n, x)
    reference = _reference_pstar_kn(n, x)
    assert _identical(pstar, reference[0]) and _identical(kn, reference[1])
    assert _identical(q_basis_all(n, x), _reference_q_basis_all(n, x))


def test_block_of_non_finite_points_is_bit_for_bit_the_out_of_place_block():
    x = np.array([np.nan, np.inf, -np.inf, 0.5])
    with np.errstate(invalid="ignore", over="ignore"):
        for n in (0, 1, 2, 7):
            assert _identical(legendre_all(n, x), _reference_legendre_all(n, x))


@pytest.mark.parametrize("n", [0, 1, 2, 160, 800])
def test_complex_block_is_bit_for_bit_the_out_of_place_block(n):
    # outside [-1, 1] the high rows overflow, as they did before
    x = (_BLOCK_RNG.standard_normal(60) + 1j * _BLOCK_RNG.standard_normal(60)).reshape(3, 20) / 2
    with np.errstate(over="ignore", invalid="ignore"):
        assert _identical(legendre_all(n, x), _reference_legendre_all(n, x))


def test_narrow_input_is_widened_to_the_block_dtype():
    x = _BLOCK_POINTS["(3000,)"]
    for narrow, wide in ((np.float32, np.float64), (np.complex64, np.complex128)):
        block = legendre_all(160, x.astype(narrow))
        assert _identical(block, legendre_all(160, x.astype(narrow).astype(wide)))
        assert _identical(legendre_eval(160, x.astype(narrow)), block[160])


@pytest.mark.parametrize("x", [0.37, -1.0, 3, 0.3 + 0.4j, 2 - 1j])
def test_block_rows_are_legendre_eval_on_scalars(x):
    for n in (0, 1, 2, 40):
        assert _identical(legendre_all(n, x)[n], legendre_eval(n, x))


@pytest.mark.parametrize("n", [1, 2, 160, 800])
@pytest.mark.parametrize("shape", ["(2,)", "(5, 7)", "(3000,)"])
def test_degree_order_is_numpys_order_on_a_grid(n, shape):
    # numpy sums a block of two or more points over axis 0 row by row, so on
    # a grid K_n keeps the bits of np.sum; at a single point numpy sums the
    # n + 1 squares pairwise, and the degree-order sum differs by a few ulps
    x = _BLOCK_POINTS[shape]
    pstar = _reference_pstar_kn(n, x)[0]
    assert _identical(_pstar_kn(n, x)[1], np.sum(pstar * pstar, axis=0) / (n + 1))


def test_value_at_one():
    # P_k(1) = 1 forces K_n(1) = (n+1)/2
    for n in (1, 2, 7, 30):
        assert _pstar_kn(n, 1.0)[1] == pytest.approx((n + 1) / 2, rel=1e-12)
    assert _pstar_kn(1, 1.0)[1] == pytest.approx(1.0)
    assert _pstar_kn(2, 1.0)[1] == pytest.approx(1.5)


def test_exact_low_degrees():
    assert kn_exact(0) == LaurentPoly({0: F(1, 2)})
    # (1 + 3x^2)/4 with x = (z + 1/z)/2
    assert kn_exact(1) == LaurentPoly({-2: F(3, 16), 0: F(5, 8), 2: F(3, 16)})


def test_exact_forms_agree_to_forty():
    for n in range(41):
        assert check_kn_forms(n).passed


def _reference_kn_sum(n):
    # the sum form rebuilt from nothing at every degree
    total = LaurentPoly.zero()
    for k in range(n + 1):
        p = legendre.legendre_on_circle(k)
        total = total + F(2 * k + 1, 2) * p * p
    return total * F(1, n + 1)


def test_sum_form_is_the_sum_rebuilt_from_nothing():
    legendre._square_sum.cache_clear()
    kn_exact.cache_clear()
    # out of order first, so the one-degree caches miss
    for n in (40, 3, 41, 0, *range(41)):
        got, want = kn_exact(n), _reference_kn_sum(n)
        assert got == want, n
        assert repr(got) == repr(want), n
        assert list(got.terms()) == list(want.terms()), n


def test_exact_form_is_k_n_at_the_joukowski_image():
    # K_n(J(z)) = sum_k (2k+1)/2 P_k(x)^2 / (n+1) at x = J(z), by the oracle, at rational z
    for n in (0, 1, 4, 17):
        kn = kn_exact(n)
        for z in (F(7, 10), F(-3, 2), F(5)):
            x = (z + 1 / z) / 2
            want = sum((F(2 * k + 1, 2) * legendre_value(k, x) ** 2 for k in range(n + 1)), F(0))
            assert sum((c * z**e for e, c in kn.terms()), F(0)) == want / (n + 1), (n, z)


def test_forms_agree_at_the_cap_from_cold_caches():
    # the deepest cold recursion of the sum that the CLI can ask for
    for cache in (legendre._square_sum, legendre.legendre_on_circle, kn_exact):
        cache.cache_clear()
    assert check_kn_forms(cli.MAX_N_EXACT).passed


def test_positive_on_interval():
    xs = RNG.uniform(-1, 1, 1000)
    for n in range(51):
        values = _pstar_kn(n, xs)[1]
        assert np.all(values > 0)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        _pstar_kn(-1, 0.5)
    with pytest.raises(ValueError):
        kn_exact(-1)
    with pytest.raises(ValueError):
        check_kn_forms(-1)


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
