"""Laurent-polynomial substrate: frozen examples plus algebraic laws."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortholeg.ratpoly import JOUKOWSKI, LaurentPoly, substitute


def lp(pairs):
    return LaurentPoly.from_pairs(pairs)


class TestAdd:
    def test_basic(self):
        assert lp({0: 1, 1: 1}) + lp({0: -1, 1: 1}) == lp({1: 2})

    def test_identity(self):
        assert lp({-1: 1}) + LaurentPoly.zero() == lp({-1: 1})

    def test_f1_plus_g1(self):
        # F_1 and G_1 built from the differentiation definition:
        # F_1 = d/dz(z^2 * (z + 1/z)/2), G_1 = z^2 F_1(1/z)
        f1 = (JOUKOWSKI.shift(2)).diff()
        assert f1 == lp({0: F(1, 2), 2: F(3, 2)})
        g1 = f1.recip().shift(2)
        assert f1 + g1 == lp({0: 2, 2: 2})


class TestMul:
    def test_difference_of_squares(self):
        assert lp({0: 1, 1: 1}) * lp({0: 1, 1: -1}) == lp({0: 1, 2: -1})

    def test_inverse_monomials(self):
        assert lp({-1: 1}) * lp({1: 1}) == LaurentPoly.one()

    def test_f1_times_own_reversal(self):
        f1 = lp({0: F(1, 2), 2: F(3, 2)})
        # hand expansion: ((1+3z^2)/2)((1+3z^-2)/2) = (3z^2 + 10 + 3z^-2)/4
        assert f1 * f1.recip() == lp({2: F(3, 4), 0: F(10, 4), -2: F(3, 4)})


class TestDiff:
    def test_mixed_exponents(self):
        assert lp({-1: 1, 3: 1}).diff() == lp({-2: -1, 2: 3})

    def test_constant(self):
        assert lp({0: 5}).diff() == LaurentPoly.zero()

    def test_f2_from_derivative(self):
        # d/dz((3z^5 + 2z^3 + 3z)/8) = (15z^4 + 6z^2 + 3)/8
        arg = lp({5: F(3, 8), 3: F(2, 8), 1: F(3, 8)})
        assert arg.diff() == lp({4: F(15, 8), 2: F(6, 8), 0: F(3, 8)})


class TestRecip:
    def test_basic(self):
        assert lp({0: 1, 1: 2}).recip() == lp({0: 1, -1: 2})

    def test_f1(self):
        f1 = lp({0: F(1, 2), 2: F(3, 2)})
        assert f1.recip() == lp({0: F(1, 2), -2: F(3, 2)})

    def test_involution(self):
        p = lp({-3: 2, 0: -1, 4: F(7, 3)})
        assert p.recip().recip() == p


class TestEval:
    def test_root_of_f1(self):
        f1 = lp({0: F(1, 2), 2: F(3, 2)})
        assert abs(f1(1j / 3**0.5)) < 1e-14

    def test_sum_of_coefficients_at_one(self):
        p = lp({-2: 3, 0: -1, 5: F(1, 4)})
        assert p(1.0) == pytest.approx(3 - 1 + 0.25, abs=1e-15)

    def test_inverse_monomial(self):
        assert lp({-1: 1})(2.0) == pytest.approx(0.5)

    def test_zero_domain_error(self):
        with pytest.raises(ZeroDivisionError):
            lp({-1: 1})(0.0)

    def test_polynomial_at_zero_is_fine(self):
        assert lp({0: 4, 3: 1})(0.0) == pytest.approx(4.0)

    def test_support_entirely_below_inverse(self):
        # z^-3 + 5 z^-2 at z = 2 -> 1/8 + 5/4
        assert lp({-3: 1, -2: 5})(2.0) == pytest.approx(1.375, abs=1e-15)

    def test_gapped_support(self):
        assert lp({-4: 1, 2: 1})(2.0) == pytest.approx(2.0**-4 + 4.0, abs=1e-14)
        assert lp({3: 1, 7: 2})(2.0) == pytest.approx(8.0 + 2 * 128.0, abs=1e-12)


class TestCanonicalForm:
    def test_trimming(self):
        p = LaurentPoly([0, 0, 1, 2, 0, 0], min_exp=-3)
        assert p.min_exp == -1
        assert p.coeffs == (F(1), F(2))
        assert p.degree == 0

    def test_zero(self):
        p = LaurentPoly([0, 0])
        assert p.is_zero
        assert p.min_exp == 0
        assert p.coeffs == ()
        assert p.degree is None

    def test_cancellation_renormalizes(self):
        p = lp({0: 1, 3: 1}) - lp({3: 1})
        assert p == LaurentPoly.one()
        assert p.degree == 0


def test_substitute_joukowski():
    # (x^2  composed with J) expands to (z^2 + 2 + z^-2)/4
    x2 = LaurentPoly.monomial(2)
    assert substitute(x2, JOUKOWSKI) == lp({2: F(1, 4), 0: F(1, 2), -2: F(1, 4)})


def test_monomial_coefficients_rejects_laurent():
    with pytest.raises(ValueError):
        lp({-1: 1, 2: 3}).monomial_coefficients()


coeff = st.fractions(
    min_value=F(-9), max_value=F(9), max_denominator=8
)
poly = st.builds(
    LaurentPoly,
    st.lists(coeff, min_size=0, max_size=6),
    min_exp=st.integers(min_value=-4, max_value=4),
)


@settings(max_examples=200, deadline=None)
@given(poly, poly)
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=200, deadline=None)
@given(poly, poly)
def test_product_rule(a, b):
    assert (a * b).diff() == a.diff() * b + a * b.diff()


@settings(max_examples=200, deadline=None)
@given(poly)
def test_recip_involution_and_degree(a):
    assert a.recip().recip() == a
    if not a.is_zero:
        assert a.recip().degree == -a.min_exp


@settings(max_examples=200, deadline=None)
@given(poly, poly)
def test_canonical_after_ops(a, b):
    for p in (a + b, a - b, a * b, a.diff(), a.recip()):
        if p.coeffs:
            assert p.coeffs[0] != 0 and p.coeffs[-1] != 0
        else:
            assert p.min_exp == 0


@settings(max_examples=200, deadline=None)
@given(poly, poly)
def test_evaluation_is_a_ring_homomorphism(a, b):
    z = 0.7 + 0.3j
    assert abs((a + b)(z) - (a(z) + b(z))) < 1e-9
    assert abs((a * b)(z) - a(z) * b(z)) < 1e-9
