"""Laurent-polynomial substrate: frozen examples plus algebraic laws."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortholeg.ratpoly import JOUKOWSKI, LaurentPoly, substitute


lp = LaurentPoly


def value(p, z):
    """Exact value of p at the rational z (nonzero when p has negative exponents)."""
    return sum((c * z**e for e, c in p.terms()), F(0))


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


class TestCanonicalForm:
    def test_trimming(self):
        p = lp({2: 0, 0: 2, -3: 0, -1: 1, 1: 0, -2: 0})
        assert list(p.terms()) == [(-1, F(1)), (0, F(2))]
        assert all(type(c) is F for _, c in p.terms())
        assert p.min_exp == -1
        assert p.coeffs == (F(1), F(2))
        assert p.degree == 0

    def test_zero(self):
        p = lp({0: 0, 1: F(0)})
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


def test_substitute_rejects_laurent_outer():
    with pytest.raises(ValueError):
        substitute(lp({-1: 1, 2: 3}), JOUKOWSKI)


def test_substitute_gapped_and_zero_outer():
    # (x^3 + 2) composed with (z + 1): the zero coefficients of x^2 and x^1 still count
    outer, inner = lp({3: 1, 0: 2}), lp({1: 1, 0: 1})
    assert substitute(outer, inner) == lp({3: 1, 2: 3, 1: 3, 0: 3})
    assert substitute(LaurentPoly.zero(), inner) == LaurentPoly.zero()


coeff = st.fractions(
    min_value=F(-9), max_value=F(9), max_denominator=8
)
poly = st.one_of(
    # contiguous runs of coefficients, zeros included
    st.builds(
        lambda coeffs, low: lp({low + i: c for i, c in enumerate(coeffs)}),
        st.lists(coeff, min_size=0, max_size=6),
        st.integers(min_value=-4, max_value=4),
    ),
    st.dictionaries(st.integers(min_value=-8, max_value=8), coeff, max_size=5).map(lp),
)


def dense_product(a, b):
    """Reference product: the naive convolution of the dense coefficient views."""
    if a.is_zero or b.is_zero:
        return LaurentPoly.zero()
    out = [F(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return lp({a.min_exp + b.min_exp + k: c for k, c in enumerate(out)})


@settings(max_examples=200, deadline=None)
@given(poly, poly)
def test_mul_commutes(a, b):
    assert a * b == b * a
    assert hash(a * b) == hash(b * a)


@settings(max_examples=200, deadline=None)
@given(poly, poly)
def test_mul_matches_dense_convolution(a, b):
    assert a * b == dense_product(a, b)


@settings(max_examples=200, deadline=None)
@given(poly, poly)
def test_equal_values_are_equal_whatever_the_route(a, b):
    padded = lp({e: a.coeff(e) for e in range(a.min_exp - 1, (a.degree or 0) + 3)})
    descending = lp(dict(reversed(list(a.terms()))))
    for same in ((a + b) - b, lp(dict(a.terms())), padded, descending):
        assert same == a
        assert hash(same) == hash(a)


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
    for p in (a + b, a - b, a * b, a.diff(), a.recip(), a.shift(3), -a, F(2, 3) * a):
        exps = [e for e, _ in p.terms()]
        assert exps == sorted(set(exps))
        assert all(c != 0 for _, c in p.terms())
        if p.is_zero:
            assert p.min_exp == 0 and p.coeffs == ()
        else:
            assert p.coeffs == tuple(p.coeff(e) for e in range(p.min_exp, p.degree + 1))
            assert p.coeffs[0] != 0 and p.coeffs[-1] != 0


@settings(max_examples=200, deadline=None)
@given(poly, poly)
def test_evaluation_is_a_ring_homomorphism(a, b):
    for z in (F(7, 10), F(-3, 2)):
        assert value(a + b, z) == value(a, z) + value(b, z)
        assert value(a * b, z) == value(a, z) * value(b, z)


@settings(max_examples=200, deadline=None)
@given(poly, poly)
def test_substitute_is_composition(a, b):
    outer = a.shift(-a.min_exp)  # a polynomial: no negative exponents
    for z in (F(7, 10), F(-3, 2)):
        assert value(substitute(outer, b), z) == value(outer, value(b, z))
