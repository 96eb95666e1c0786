"""Laurent-polynomial substrate: frozen examples plus algebraic laws."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortholeg.ratpoly import JOUKOWSKI, LaurentPoly, _kronecker


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


# -- Kronecker multiplication: wide coefficients, mixed strides, the slot bound --


def _wide(bits, sign, rest):
    return sign * ((1 << (bits - 1)) | rest % (1 << (bits - 1)))


# 100-300-bit integers of both signs, over small or wide denominators, sometimes zero
wide_coeff = st.one_of(
    st.builds(lambda top, den: F(top, den),
              st.builds(_wide, st.integers(100, 300), st.sampled_from((1, -1)),
                        st.integers(0, 2**300)),
              st.one_of(st.just(1), st.integers(1, 2**64))),
    st.just(F(0)),
)
strided = st.builds(
    lambda coeffs, step, low: lp({low + step * i: c for i, c in enumerate(coeffs)}),
    st.lists(wide_coeff, min_size=1, max_size=12),
    st.sampled_from((1, 2, 3)),
    st.integers(min_value=-15, max_value=5),
)


@settings(max_examples=200, deadline=None)
@given(strided, strided)
def test_wide_mixed_stride_products_match_dense_convolution(a, b):
    assert a * b == dense_product(a, b)
    assert (-a) * b == -(a * b)
    # a square packs its one operand once
    assert a * a == dense_product(a, a)


def test_single_term_and_negative_exponent_products():
    wide = _wide(300, -1, 12345)
    p = lp({-7: F(wide, 3), -1: 5, 5: F(-wide, 7)})
    for monomial in (lp({-4: wide}), lp({0: F(-1, 9)}), lp({3: 1})):
        assert p * monomial == dense_product(p, monomial) == monomial * p
    assert lp({-2: wide}) * lp({-3: -wide}) == lp({-5: -wide * wide})


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("k", (102, 103))
def test_product_coefficient_at_the_slot_bound(sign, k):
    # Four terms of -M, M = 2^k - 1: the z^0 coefficient of the product is
    # +-4 M^2, exactly the bound min(len a, len b) max|a| max|b|, of bit length
    # 2k + 2.  At k = 102 that bit length plus 2 fills whole bytes, so the slot
    # has no spare bit; at k = 103 a slot without the 2 margin bits would overflow.
    m = 2**k - 1
    a = lp({e: -m for e in range(-3, 5, 2)})
    b = sign * a
    product = a * b
    assert product == dense_product(a, b)
    assert product.coeff(0) == sign * 4 * m * m
    assert (4 * m * m).bit_length() == 2 * k + 2


@settings(max_examples=200, deadline=None)
@given(poly)
def test_unreduced_routes_reach_equal_values(a):
    half = F(1, 2) * a
    for same in ((a * 3) * F(1, 3), a * F(6, 2) * F(2, 6), half + half, (a * 7 - a * 5) * F(1, 2),
                 (a * lp({0: F(4, 3)})) * lp({0: F(3, 4)})):
        assert same == a
        assert hash(same) == hash(a)


# -- term-by-term multiplication of short operands --------------------------------


def schoolbook(a, b):
    """Reference product: every pair of Fraction terms, summed by exponent."""
    out = {}
    for e, x in a.terms():
        for f, y in b.terms():
            out[e + f] = out.get(e + f, F(0)) + x * y
    return {e: c for e, c in sorted(out.items()) if c}


def kronecker_product(a, b):
    """The product by the packed path, whatever the operands' lengths."""
    return LaurentPoly._reduced(_kronecker(a._num, b._num), a._den * b._den)


# small coefficients of both signs, which cancel often, and numerators over 2^200
short_coeff = st.one_of(
    st.sampled_from((F(1), F(-1), F(1, 2), F(-3, 4))),
    st.builds(lambda top, den: F(top, den),
              st.builds(_wide, st.integers(201, 260), st.sampled_from((1, -1)),
                        st.integers(0, 2**260)),
              st.one_of(st.just(1), st.integers(1, 2**64))),
)


def terms_of(size):
    return st.dictionaries(st.integers(min_value=-12, max_value=12), short_coeff,
                           min_size=size, max_size=size).map(lp)


short_operand = st.integers(0, 3).flatmap(terms_of)


@settings(max_examples=300, deadline=None)
@given(short_operand, st.one_of(short_operand, strided))
def test_short_operand_products_match_the_schoolbook_and_the_packed_path(a, b):
    for x, y in ((a, b), (b, a)):
        product = x * y
        assert dict(product.terms()) == schoolbook(x, y)
        packed = kronecker_product(x, y)
        assert product == packed
        assert hash(product) == hash(packed)


def test_short_operand_products_cancel_and_reach_negative_exponents():
    wide = _wide(240, 1, 777)
    cases = [
        (lp({1: 1, -1: -1}), lp({1: 1, -1: 1}), lp({2: 1, -2: -1})),  # the z^0 terms cancel
        (lp({0: 1, 1: -1}), lp({0: 1, 1: 1, 2: 1}), lp({0: 1, 3: -1})),  # two cancel
        (lp({-3: F(wide, 5), -1: F(wide, 5)}), lp({2: F(5, wide), 0: F(-5, wide)}),
         lp({1: 1, -3: -1})),  # the z^-1 terms cancel
        (lp({4: wide}), LaurentPoly.zero(), LaurentPoly.zero()),
        (lp({-2: F(1, wide)}), lp({-5: wide, 5: -wide}), lp({-7: 1, 3: -1})),
    ]
    for a, b, expected in cases:
        for x, y in ((a, b), (b, a)):
            assert x * y == expected == kronecker_product(x, y)
            assert hash(x * y) == hash(expected)
