"""Splitting family, partial-fraction identities, exact moments and orthogonality."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from ortholeg.partial_fractions import (
    build_abcd,
    check_moments,
    check_orthogonality,
    check_pfd,
    check_support,
    leading_coefficient_checks,
    moments_table,
    orthogonality_exact,
)
from ortholeg import christoffel, factorization, legendre, partial_fractions, ratpoly
from ortholeg.certificates import certificate, certifies
from ortholeg.factorization import FactorPair, fn_from_definition
from ortholeg.ledger import identity_ledger
from ortholeg.legendre import legendre_on_circle, legendre_product_expand
from ortholeg.ratpoly import LaurentPoly, satisfies_legendre_recurrence
from test_failure_paths import clean_caches, tampered_fn  # noqa: F401  (fixtures)


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

    @staticmethod
    def v_by_recurrence(n):
        # V run from its own seeds through the Legendre recurrence, as U is
        v = {n: lp({n - 1: 1}), n - 1: lp({n - 2: F(2 * n + 1, 2 * n), n: F(-1, 2 * n)})}
        steps = [(m, m + 1) for m in range(n, 2 * n)] + [(m, m - 1) for m in range(n - 1, 0, -1)]
        for m, new in steps:
            old = 2 * m - new
            step = (2 * m + 1) * ratpoly.JOUKOWSKI * v[m] - max(m, old) * v[old]
            v[new] = step * F(1, max(m, new))
        return tuple(v[m] for m in range(2 * n + 1))

    def test_v_is_v_by_its_own_recurrence(self):
        for n in range(1, 41):
            v, expected = build_abcd(n)[1], self.v_by_recurrence(n)
            assert v == expected
            assert list(map(repr, v)) == list(map(repr, expected))
            assert [list(p.terms()) for p in v] == [list(p.terms()) for p in expected]


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
            lines = [cert.passed for cert in check_pfd(n) if cert.identity == "pfd-plus"]
            assert lines == [True] * (n + 1)

    def test_degree_zero(self):
        with pytest.raises(ValueError):
            check_pfd(0)


class TestPfdMinus:
    def test_degree_one_reaches_constant(self):
        u, v = build_abcd(1)
        combo = u[0] * FactorPair.build(1).g + v[0] * fn_from_definition(1)
        assert combo == lp({1: 4})

    def test_degree_two_bottom(self):
        cert = check_pfd(2)[-1]
        assert (cert.identity, cert.n, cert.k) == ("pfd-minus", 2, 2)
        assert cert.passed

    def test_all_admissible(self):
        for n in range(1, 26):
            lines = [cert.passed for cert in check_pfd(n) if cert.identity == "pfd-minus"]
            assert lines == [True] * (n + 1)


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
    legendre._square_sum.cache_clear()
    identity_ledger(12)
    for cache in caches:
        info = cache.cache_info()
        assert (info.misses, info.currsize) == (12, 1), cache.__name__
    # the sum of (2k+1)/2 P_k^2, degrees 0..12: the Legendre identities and
    # K_n of a degree read it in turn, so each degree is built exactly once
    info = legendre._square_sum.cache_info()
    assert (info.misses, info.currsize) == (13, 1)


@pytest.mark.parametrize("n", [1, 5, 20])
def test_orthogonality_expands_only_the_diagonal_pairs(n, monkeypatch):
    # against the moments 2 delta_{k0}, Adams' support of P_i P_j with i != j
    # holds no nonzero moment, so only the n + 1 diagonal products are expanded
    pairs = []
    original = partial_fractions.legendre_product_expand
    monkeypatch.setattr(partial_fractions, "legendre_product_expand",
                        lambda i, j: pairs.append((i, j)) or original(i, j))
    assert check_orthogonality(n).passed
    assert pairs == [(i, i) for i in range(n + 1)]


# -- recurrence transfer ---------------------------------------------------------


def _perturbed(members, m):
    members = list(members)
    members[m] = members[m] + LaurentPoly.monomial(m % 3 - 1, F(1, 7))
    return members


def test_the_recurrence_holds_on_the_legendre_sequence_and_every_family():
    circle = [legendre_on_circle(m) for m in range(25)]
    assert satisfies_legendre_recurrence(circle)
    for m in range(25):
        assert not satisfies_legendre_recurrence(_perturbed(circle, m)), m
    for n in range(1, 13):
        for family in build_abcd(n):
            assert satisfies_legendre_recurrence(family)
            # every m, among them 0, n - 1, n and 2n
            for m in range(2 * n + 1):
                assert not satisfies_legendre_recurrence(_perturbed(family, m)), (n, m)


def test_the_recurrence_is_vacuous_below_three_members():
    one = [LaurentPoly.monomial(5)]
    assert satisfies_legendre_recurrence([]) and satisfies_legendre_recurrence(one)
    assert satisfies_legendre_recurrence(one * 2)


def _direct_split_residual(n, m, k):
    # the residual of every pfd certificate, each computed on its own
    if not 0 <= k <= n:
        raise ValueError("k must satisfy 0 <= k <= n")
    u, v = partial_fractions.build_abcd(n)
    pair = partial_fractions.factor_pair(n)
    target = (2 * (n + 1)) * partial_fractions.legendre_on_circle(m).shift(2 * n - 1)
    return target - (u[m] * pair.g + v[m] * pair.f)


def _direct_certificate(identity, n, m, k):
    # an exact construction that fails its own certification fails the line, as in certifies
    try:
        outcome = _direct_split_residual(n, m, k)
    except ArithmeticError as exc:
        outcome = exc
    return certificate(identity, n, outcome, k)


def direct_plus(n, k):
    return _direct_certificate("pfd-plus", n, n + k, k)


def direct_minus(n, k):
    return _direct_certificate("pfd-minus", n, n - k, k)


def _failing_pfd_certificates(degrees):
    # asserts that every pfd certificate of these degrees is its direct copy
    failed = 0
    for n in degrees:
        certs = check_pfd(n)
        assert certs == ([direct_plus(n, k) for k in range(n + 1)]
                         + [direct_minus(n, k) for k in range(n + 1)]), n
        failed += sum(not cert.passed for cert in certs)
    return failed


def test_pfd_certificates_are_the_direct_ones_on_clean_degrees():
    assert _failing_pfd_certificates(range(1, 13)) == 0


@pytest.mark.parametrize("side, where", [
    (0, lambda n: n + (n + 1) // 2),  # a middle U_m
    (0, lambda n: 0),
    (1, lambda n: n // 2),  # a V_m
    (1, lambda n: 2 * n),
])
def test_pfd_certificates_are_the_direct_ones_with_a_tampered_member(side, where, monkeypatch):
    original = partial_fractions.build_abcd

    def tampered(n):
        families = list(original(n))
        families[side] = tuple(_perturbed(families[side], where(n)))
        return tuple(families)

    monkeypatch.setattr(partial_fractions, "build_abcd", tampered)
    assert _failing_pfd_certificates(range(1, 13)) > 0


def test_pfd_certificates_are_the_direct_ones_with_a_tampered_factor(tampered_fn):
    assert _failing_pfd_certificates(range(1, 7)) > 0


def test_pfd_certificates_are_the_direct_ones_with_opposite_tampers_of_the_factors(monkeypatch):
    # U_n = V_n, so R_n cannot see F_n + d and G_n - d together; R_{n-1} does
    d = LaurentPoly.monomial(2)
    original = partial_fractions.factor_pair
    monkeypatch.setattr(partial_fractions, "factor_pair",
                        lambda n: FactorPair(n, original(n).f + d, original(n).g - d))
    assert _failing_pfd_certificates(range(1, 13)) > 0


def test_pfd_certificates_are_the_direct_ones_with_a_family_that_keeps_the_recurrence(
        monkeypatch):
    # 2 U_m - V_m satisfies the recurrence and equals U_n at m = n, but not at m = n - 1
    original = partial_fractions.build_abcd

    def tampered(n):
        u, v = original(n)
        return tuple(2 * a - b for a, b in zip(u, v)), v

    monkeypatch.setattr(partial_fractions, "build_abcd", tampered)
    assert all(map(satisfies_legendre_recurrence, tampered(5)))
    assert _failing_pfd_certificates(range(1, 13)) > 0


@pytest.mark.parametrize("tampered_m", [0, 3, 9])
def test_pfd_certificates_are_the_direct_ones_with_a_tampered_legendre_polynomial(
        tampered_m, monkeypatch):
    original = partial_fractions.legendre_on_circle
    monkeypatch.setattr(
        partial_fractions, "legendre_on_circle",
        lambda m: original(m) + LaurentPoly.monomial(1) if m == tampered_m else original(m))
    assert _failing_pfd_certificates(range(1, 13)) > 0


def test_a_verdict_is_not_reused_for_rebuilt_members(monkeypatch):
    # the clean ledger leaves degree 3's members cached; the tamper hands back
    # the same objects but one
    assert all(c.passed for c in identity_ledger(3))
    original = partial_fractions.build_abcd

    def tampered(n):
        u, v = original(n)
        return (tuple(_perturbed(u, 4)) if n == 3 else u), v

    monkeypatch.setattr(partial_fractions, "build_abcd", tampered)
    cert = check_pfd(3)[1]
    assert (cert.identity, cert.k) == ("pfd-plus", 1)
    assert cert.status == "fail" and cert.residual_terms > 0
    assert all(cert.passed for cert in check_pfd(2))


def test_pfd_checks_of_a_warm_degree_pack_at_most_four_products(monkeypatch):
    # with the members, the factors and P_0(J)..P_2n(J) built, a degree's 2(n+1)
    # pfd certificates need the two base residuals only: four products at most,
    # where a residual for each would take 4(n+1)
    n = 12
    build_abcd(n)
    partial_fractions.factor_pair(n)
    for m in range(2 * n + 1):
        legendre_on_circle(m)
    packed = []
    original = ratpoly._kronecker
    monkeypatch.setattr(ratpoly, "_kronecker", lambda a, b: packed.append(1) or original(a, b))
    assert all(cert.passed for cert in check_pfd(n))
    assert len(packed) <= 4


# -- orthogonality over the nonzero moments ----------------------------------------


def _full_sum_orthogonality(n, i, j):
    # every Adams coefficient against every moment, the inner product as first written
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("indices must satisfy 0 <= i, j <= n")
    moments = partial_fractions.moments_table(n)
    s = sum((a * moments[k] for k, a in enumerate(legendre_product_expand(i, j))
             if a and moments[k]),
            start=F(0))
    if s == 0:
        return F(0)
    square = (2 * i + 1) * (2 * j + 1)
    root = math.isqrt(square)
    if root * root != square:
        raise ArithmeticError("irrational inner product; expansion radical did not cancel")
    return s * F(root, 2)


@certifies("weighted-orthogonality")
def _full_sum_check(n):
    bad = []
    for i in range(n + 1):
        for j in range(i, n + 1):
            if _full_sum_orthogonality(n, i, j) != (1 if i == j else 0):
                bad.append((i, j))
    return [f"unexpected inner products at {bad}"] if bad else []


def _outcome(inner_product, n, i, j):
    try:
        return inner_product(n, i, j)
    except ArithmeticError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [1, 3, 12, 30])
@pytest.mark.parametrize("changes", [
    {1: F(1)},
    {2: F(1, 3), 5: F(-2)},
    {0: F(3), 4: F(1, 9)},
    {2: F(-1, 2), 4: F(7), 6: F(1, 5), 60: F(2)},
    "all",
])
def test_orthogonality_over_the_nonzero_moments_is_the_full_sum(n, changes, monkeypatch):
    clean = partial_fractions.moments_table(n)
    if changes == "all":
        changes = dict.fromkeys(range(1, 2 * n + 1), F(1))
    table = tuple(m + changes.get(k, 0) for k, m in enumerate(clean))
    monkeypatch.setattr(partial_fractions, "moments_table", lambda n: table)
    pairs = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    outcomes = [_outcome(orthogonality_exact, n, i, j) for i, j in pairs]
    assert outcomes == [_outcome(_full_sum_orthogonality, n, i, j) for i, j in pairs]
    assert check_orthogonality(n) == _full_sum_check(n)
