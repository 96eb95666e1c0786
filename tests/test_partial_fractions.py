"""Splitting family, partial-fraction identities, exact moments and orthogonality."""

from fractions import Fraction as F

import numpy as np
import pytest

from ortholeg.partial_fractions import (
    build_abcd,
    check_moments,
    check_orthogonality,
    check_pfd_minus,
    check_pfd_plus,
    check_support,
    leading_coefficient_checks,
    moments_table,
    orthogonality_exact,
)
from ortholeg import christoffel, factorization, partial_fractions
from ortholeg.factorization import FactorPair, fn_from_definition
from ortholeg.ledger import identity_ledger
from ortholeg.legendre import legendre_on_circle
from ortholeg.ratpoly import LaurentPoly


lp = LaurentPoly


class TestBuild:
    def test_degree_one_members(self):
        # A_1, B_1, C_1, D_1 of the paper are U_2, V_2, U_0, V_0
        u, v = build_abcd(1)
        assert u[2] == lp({-1: 1})
        assert v[2] == lp({1: 1})
        assert u[0] == lp({1: F(3, 2), -1: F(-1, 2)})
        assert v[0] == lp({-1: F(3, 2), 1: F(-1, 2)})

    def test_degree_two_first_member(self):
        u, _ = build_abcd(2)
        assert u[1] == lp({2: F(5, 4), 0: F(-1, 4)})

    def test_common_base(self):
        for n in (1, 2, 5):
            u, v = build_abcd(n)
            assert u[n] == v[n] == lp({n - 1: 1})


class TestPfdPlus:
    def test_degree_one_first_step(self):
        # A_1 G_1 + B_1 F_1 = (3z^3 + 2z + 3/z)/2 = 4z P_2(J(z))
        u, v = build_abcd(1)
        combo = u[2] * FactorPair.build(1).g + v[2] * fn_from_definition(1)
        assert combo == lp({3: F(3, 2), 1: 1, -1: F(3, 2)})
        assert combo == 4 * legendre_on_circle(2).shift(1)

    def test_common_base_to_forty(self):
        # z^{n-1}(F_n + G_n) = 2(n+1) z^{2n-1} P_n(J(z))
        for n in range(1, 41):
            f, g = fn_from_definition(n), FactorPair.build(n).g
            lhs = (f + g).shift(n - 1)
            rhs = (2 * (n + 1)) * legendre_on_circle(n).shift(2 * n - 1)
            assert lhs == rhs

    def test_all_admissible(self):
        for n in range(1, 26):
            for k in range(n + 1):
                assert check_pfd_plus(n, k).passed

    def test_beyond_n(self):
        # the family stops at P_{2n}, so k > n is out of range
        with pytest.raises(ValueError):
            check_pfd_plus(3, 4)


class TestPfdMinus:
    def test_degree_one_reaches_constant(self):
        u, v = build_abcd(1)
        combo = u[0] * FactorPair.build(1).g + v[0] * fn_from_definition(1)
        assert combo == lp({1: 4})

    def test_degree_two_bottom(self):
        assert check_pfd_minus(2, 2).passed

    def test_all_admissible(self):
        for n in range(1, 26):
            for k in range(n + 1):
                assert check_pfd_minus(n, k).passed

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            check_pfd_minus(3, 4)


class TestSupport:
    def test_b2_support(self):
        # B_2 of degree 2 is V_4
        _, v = build_abcd(2)
        assert v[4].min_exp >= 1 and v[4].degree <= 3

    def test_a_n_has_inverse_term(self):
        for n in range(1, 16):
            u, _ = build_abcd(n)
            assert u[2 * n].coeff(-1) != 0

    def test_c_n_span(self):
        for n in range(1, 16):
            u, v = build_abcd(n)
            assert (u[0].min_exp, u[0].degree) == (-1, 2 * n - 1)
            assert v[0].min_exp == -1

    def test_certificates(self):
        for n in range(1, 21):
            assert check_support(n).passed


class TestLeadingCoefficients:
    def test_degree_one_values(self):
        u, v = build_abcd(1)
        assert fn_from_definition(1).coeff(2) == F(3, 2)
        assert u[0].coeff(1) == F(3, 2)
        assert v[0].coeff(-1) == F(3, 2) == FactorPair.build(1).g.coeff(0)

    def test_to_twenty(self):
        for n in range(1, 21):
            assert leading_coefficient_checks(n).passed


class TestMoments:
    def test_degree_one(self):
        assert moments_table(1) == (2, 0, 0)

    def test_kronecker_to_twenty(self):
        for n in range(1, 21):
            table = moments_table(n)
            assert len(table) == 2 * n + 1
            assert table[0] == 2
            assert all(m == 0 for m in table[1:])
            assert check_moments(n).passed

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            moments_table(0)


class TestOrthogonality:
    def test_hand_cases(self):
        assert orthogonality_exact(2, 1, 1) == 1
        assert orthogonality_exact(2, 0, 1) == 0

    def test_kronecker_to_eight(self):
        for n in range(1, 9):
            for i in range(n + 1):
                for j in range(n + 1):
                    assert orthogonality_exact(n, i, j) == (1 if i == j else 0)

    def test_certificate(self):
        assert check_orthogonality(6).passed

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            orthogonality_exact(3, 1, 4)


def _on_grid(poly, z):
    # floating value on the numpy array z, summed from the exact nonzero terms
    return sum(float(c) * z**e for e, c in poly.terms()) + 0 * z


def test_residue_rule_against_numeric_contour():
    """Cross-validate [z^{2n-1}]p / lc(F_n) against unit-circle quadrature."""
    from test_quadrature_verify import unit_circle_integral

    rng = np.random.default_rng(99)
    for n in (1, 2, 4, 8):
        f = fn_from_definition(n)
        lead = float(f.coeff(2 * n))
        for _ in range(20):
            coeffs = rng.integers(-5, 6, size=2 * n)
            p = LaurentPoly(dict(enumerate(coeffs.tolist())))
            exact = float(p.coeff(2 * n - 1)) / lead
            numeric = unit_circle_integral(lambda z: _on_grid(p, z) / _on_grid(f, z), 4096)
            assert abs(numeric - exact) < 1e-10


def test_per_degree_caches_hold_the_degree_in_hand():
    # the ledger runs one degree at a time, so each degree is built once and
    # only the last one stays cached
    caches = (christoffel.kn_exact, factorization.factor_pair,
              partial_fractions.build_abcd, partial_fractions.moments_table)
    for cache in caches:
        cache.cache_clear()
    identity_ledger(12)
    for cache in caches:
        info = cache.cache_info()
        assert (info.misses, info.currsize) == (12, 1), cache.__name__
