"""Spectral factors: four constructions, certificates, and root localization."""

import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from ortholeg import factorization
from ortholeg.factorization import (
    FactorPair,
    check_fejer_riesz,
    check_fn_constructions,
    check_fn_gn_alt,
    check_ode,
    check_reversal,
    fn_closed_coeffs,
    fn_from_definition,
    fn_hypergeometric,
    fn_root_radius_bound,
    fn_roots,
    hypergeometric_check,
    _hypergeometric_series,
)
from ortholeg.ratpoly import LaurentPoly


lp = LaurentPoly


class TestConstructions:
    def test_definition_low_degrees(self):
        assert fn_from_definition(0) == LaurentPoly.one()
        assert fn_from_definition(1) == lp({0: F(1, 2), 2: F(3, 2)})
        assert fn_from_definition(2) == lp({0: F(3, 8), 2: F(6, 8), 4: F(15, 8)})

    def test_closed_coefficients(self):
        assert fn_closed_coeffs(1) == lp({0: F(2, 4), 2: F(6, 4)})
        assert fn_closed_coeffs(2) == lp({0: F(6, 16), 2: F(12, 16), 4: F(30, 16)})

    def test_triple_equality_to_forty(self):
        for n in range(41):
            f = fn_from_definition(n)
            assert f == fn_closed_coeffs(n)
            assert f == fn_hypergeometric(n)

    def test_closed_numerators_match_math_comb(self):
        # the central-binomial recurrence against the binomials themselves
        for n in [*range(61), 200, 800]:
            assert factorization._fn_closed_numerators(n) == [
                (2 * k + 1) * math.comb(2 * k, k) * math.comb(2 * n - 2 * k, n - k)
                for k in range(n + 1)]

    def test_coefficients_positive_dyadic(self):
        for n in range(1, 31):
            for e, c in fn_from_definition(n).terms():
                assert e % 2 == 0
                assert c > 0
                assert c.denominator & (c.denominator - 1) == 0  # power of two


class TestReversal:
    def test_g_low_degrees(self):
        assert FactorPair.build(1).g == lp({0: F(3, 2), 2: F(1, 2)})
        assert FactorPair.build(2).g == lp({0: F(15, 8), 2: F(6, 8), 4: F(3, 8)})

    def test_value_at_zero_ratio(self):
        assert FactorPair.build(2).g.coeff(0) == F(15, 8) == 5 * fn_from_definition(2).coeff(0)
        for n in range(1, 21):
            pair = FactorPair.build(n)
            assert pair.g.coeff(0) == (2 * n + 1) * pair.f.coeff(0)

    def test_certificate(self):
        for n in range(1, 21):
            assert check_reversal(n).passed


class TestFejerRiesz:
    def test_trivial_degree_zero(self):
        assert check_fejer_riesz(0).passed

    def test_hand_degree_one(self):
        # K_1(J(z)) = (10 + 3z^2 + 3z^-2)/16 = (1/4) F_1(z) F_1(1/z)
        f1 = fn_from_definition(1)
        product = f1 * f1.recip()
        assert product == lp({2: F(3, 4), 0: F(10, 4), -2: F(3, 4)})
        assert check_fejer_riesz(1).passed

    def test_to_forty(self):
        for n in range(41):
            assert check_fejer_riesz(n).passed


class TestRecurrenceForm:
    def test_low_degrees(self):
        assert check_fn_gn_alt(1).passed
        assert check_fn_gn_alt(2).passed

    def test_spot_value(self):
        # both sides of the F-form, exactly, at rational points off the circle
        from test_legendre import legendre_value

        def value(p, z):
            return sum((c * z**e for e, c in p.terms()), F(0))

        for n in (1, 3, 8):
            f = fn_from_definition(n)
            for z in (F(7, 10), F(-3, 2)):
                x = (z + 1 / z) / 2
                pn, pn1 = legendre_value(n, x), legendre_value(n - 1, x)
                rhs = z**n * (((2 * n + 1) * z * z - 1) * pn - 2 * n * z * pn1)
                assert (z * z - 1) * value(f, z) == rhs


class TestOde:
    def test_hand_degree_one(self):
        # 3z(1-z^2) + 2(-z^2-1)3z + 6z(1+3z^2)/2 = 0
        assert check_ode(1).passed

    def test_to_forty(self):
        for n in range(2, 41):
            assert check_ode(n).passed


class TestHypergeometric:
    def test_hand_degree_one(self):
        series = _hypergeometric_series(1)
        assert series == lp({0: 1, 1: 3})
        assert series.coeff(series.degree) == 3
        assert fn_hypergeometric(1) == fn_from_definition(1)

    def test_degree_two(self):
        assert fn_hypergeometric(2) == fn_from_definition(2)

    def test_unscaled_leading_coefficient(self):
        for n in range(1, 41):
            series = _hypergeometric_series(n)
            assert series.degree == n
            assert series.coeff(n) == 2 * n + 1

    def test_certificates(self):
        for n in range(1, 21):
            assert hypergeometric_check(n).passed
            assert check_fn_constructions(n).passed


# the circle start is checked at every degree to 60 and at the numeric degrees up to the CLI cap
START_DEGREES = [*range(1, 61), 200, 400, 800]


def _w_roots(report):
    return np.array([complex(r.re, r.im) ** 2 for r in report.roots])


def _set_distance(a, b):
    distances = np.abs(a[:, None] - b[None, :])
    return max(distances.min(axis=0).max(), distances.min(axis=1).max())


def _full_set_aberth(monic):
    # simultaneous Aberth refinement of all n roots, none found by conjugation
    n = len(monic) - 1
    roots = abs(monic[-1]) ** (1.0 / n) * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
    evaluate = factorization._paterson_stockmeyer(monic)
    scale = np.sum(np.abs(monic))
    for _ in range(60):
        values, slopes = evaluate(roots)
        if np.max(np.abs(values)) <= 1e-15 * scale:
            break
        newton = values / slopes
        diffs = roots[:, None] - roots[None, :]
        np.fill_diagonal(diffs, 1.0)
        correction = newton / (1.0 - newton * (np.sum(1.0 / diffs, axis=1) - 1.0))
        roots = roots - correction
        if np.max(np.abs(correction)) <= 4e-16:
            break
    return roots


class TestRoots:
    def test_degree_one_exact(self):
        report = fn_roots(1)
        assert len(report.roots) == 2
        expected = 1 / math.sqrt(3)
        zs = sorted((complex(r.re, r.im) for r in report.roots), key=lambda z: z.imag)
        assert abs(zs[0] - (-1j * expected)) < 1e-12
        assert abs(zs[1] - 1j * expected) < 1e-12

    def test_degree_two_moduli(self):
        # z^2 = (-1 +- 2i)/5 by the quadratic formula, so |z| = 5^(-1/4)
        report = fn_roots(2)
        assert len(report.roots) == 4
        for r in report.roots:
            assert abs(r.modulus - 5 ** (-0.25)) < 1e-12

    def test_certified_inside_disk(self):
        for n in START_DEGREES:
            report = fn_roots(n)
            assert len(report.roots) == 2 * n
            assert report.max_modulus < 1.0
            assert report.min_separation > 1e-8
            for r in report.roots:
                assert r.converged
                assert r.residual < 1e-10 * (n + 1)

    def test_circle_start_matches_eigenvalue_start(self):
        # oracle: the companion-matrix eigenvalues of np.roots, their Im >= 0
        # half, the real root last, polished the same way and completed by
        # conjugation
        for n in START_DEGREES:
            even = factorization.fn_float_coeffs(n)[::-1]
            monic = even / even[0]
            eigen = np.roots(monic)
            half = np.concatenate((eigen[eigen.imag > 0], eigen[eigen.imag == 0]))
            assert len(half) == n - n // 2
            polished = factorization._aberth_polish(monic, half)
            reference = np.concatenate((polished, polished[:n // 2].conj()))
            assert _set_distance(_w_roots(fn_roots(n)), reference) < 1e-13

    def test_half_set_matches_a_full_set_aberth(self):
        # oracle: Aberth on all n w-roots from all n circle starts, each root
        # repelled by the n - 1 others, with the same evaluator and stop rule
        for n in [*range(1, 401), 800]:
            even = factorization.fn_float_coeffs(n)[::-1]
            monic = even / even[0]
            assert _set_distance(_w_roots(fn_roots(n)), _full_set_aberth(monic)) < 1e-13

    @pytest.mark.parametrize("n", [*range(1, 61), 199, 200, 399, 400, 799, 800])
    def test_conjugate_roots_are_conjugate_to_the_bit(self, n):
        zs = [complex(r.re, r.im) for r in fn_roots(n).roots]
        assert all(upper == lower.conjugate() for lower, upper in zip(zs[::2], zs[1::2]))

    @pytest.mark.parametrize("n", [*range(1, 61), 199, 200, 399, 400, 799, 800])
    def test_odd_degree_real_w_root_is_exactly_real(self, n):
        # its square roots are then exactly imaginary, so their squares are exactly real
        zs = [complex(r.re, r.im) for r in fn_roots(n).roots]
        assert sum((z * z).imag == 0.0 for z in zs) == 2 * (n % 2)
        assert sum(z.real == 0.0 for z in zs) == 2 * (n % 2)

    def test_w_roots_closed_under_conjugation(self):
        for n in START_DEGREES:
            w = _w_roots(fn_roots(n))
            assert _set_distance(w, w.conj()) < 1e-13

    @pytest.mark.parametrize("n", [5, 199, 200, 800])
    def test_conjugates_are_listed_side_by_side(self, n):
        # their real parts may differ in the last bit; the -im root comes first
        zs = [complex(r.re, r.im) for r in fn_roots(n).roots]
        for lower, upper in zip(zs[::2], zs[1::2]):
            assert lower.imag < 0
            assert abs(upper - lower.conjugate()) < 1e-13

    def test_order_is_the_python_round_order(self):
        # the roots are sorted on arrays by np.round(re, 12), then im
        for n in [*range(1, 301), *range(400, 801, 100)]:
            roots = list(fn_roots(n).roots)
            assert roots == sorted(roots, key=lambda r: (round(r.re, 12), r.im))

    def test_against_high_precision_oracle(self):
        # independent oracle: mpmath polyroots on the exact even-part coefficients
        mpmath.mp.dps = 50
        for n in (3, 8, 14, 20):
            f = fn_from_definition(n)
            coeffs = [mpmath.mpf(f.coeff(2 * k).numerator) / f.coeff(2 * k).denominator
                      for k in range(n, -1, -1)]
            w_roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=100)
            oracle_moduli = sorted(float(mpmath.sqrt(abs(w))) for w in w_roots for _ in (0, 1))
            report = fn_roots(n)
            ours = sorted(r.modulus for r in report.roots)
            assert np.max(np.abs(np.array(ours) - np.array(oracle_moduli))) < 1e-10
            # as a set, the complex roots match the oracle's +- square roots, pairing included
            oracle = np.array([complex(s * mpmath.sqrt(w)) for w in w_roots for s in (1, -1)])
            zs = np.array([complex(r.re, r.im) for r in report.roots])
            assert len(zs) == len(oracle)
            distances = np.abs(zs[:, None] - oracle[None, :])
            assert distances.min(axis=0).max() < 1e-10
            assert distances.min(axis=1).max() < 1e-10

    def test_kernel_positive_on_circle(self):
        # K_n(J(z)) cannot vanish for |z| = 1: grid minimum stays well positive
        from ortholeg.christoffel import _pstar_kn

        thetas = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        for n in (1, 5, 12, 20):
            values = _pstar_kn(n, np.cos(thetas))[1]
            assert values.min() >= 0.25  # grid minimum is K_n(0), which is >= 1/4

    def test_roots_json_shape(self):
        payload = fn_roots(2).to_json()
        assert payload["n"] == 2
        assert len(payload["roots"]) == 4
        assert set(payload["roots"][0]) == {"re", "im", "modulus", "residual"}


class TestPatersonStockmeyer:
    # degree 15 has 16 = 4^2 coefficients, four full blocks of four; degrees
    # 16 and 17 take blocks of five, the last one part-filled; 0, 1, 2 and
    # 800 are the ends
    @pytest.mark.parametrize("degree", [0, 1, 2, 15, 16, 17, 800])
    def test_matches_horner(self, degree):
        rng = np.random.default_rng(degree)
        polynomials = [np.concatenate(([1.0], rng.standard_normal(degree)))]
        if degree:
            even = factorization.fn_float_coeffs(degree)[::-1]
            polynomials.append(even / even[0])
        angles = 2 * np.pi * rng.random(64)
        inside = np.sqrt(rng.random(64)) * np.exp(1j * angles)
        points = np.concatenate((inside, np.exp(1j * angles), [0.0, 1.0, -1.0, 1j]))
        for coeffs in polynomials:
            deriv = np.polyder(coeffs) if degree else np.zeros(1)
            values, slopes = factorization._paterson_stockmeyer(coeffs)(points)
            # relative to sum_k |c_k| |w|^k, the size of Horner's own roundoff
            for got, c in ((values, coeffs), (slopes, deriv)):
                scale = np.polyval(np.abs(c), np.abs(points))
                expected = np.polyval(c, points)
                assert np.max(np.abs(got - expected) / np.maximum(scale, 1e-300)) < 1e-14

    def test_a_faulty_evaluator_cannot_certify_its_roots(self, monkeypatch):
        # the faulty evaluator returns the values of p with its constant term
        # scaled by 1 + 1e-4, whatever the scale of p, so the sweeps converge
        # to roots it would pass itself; the Horner residual rejects them
        original = factorization._paterson_stockmeyer

        def perturbed(coeffs):
            faulty = np.array(coeffs, dtype=float)
            faulty[-1] *= 1 + 1e-4
            return original(faulty)

        monkeypatch.setattr(factorization, "_paterson_stockmeyer", perturbed)
        for n in (1, 5, 40, 200):
            assert not any(r.converged for r in fn_roots(n).roots)


class TestRootRecords:
    @pytest.mark.parametrize("n", [*range(1, 61), 200, 201, 800])
    def test_residuals_are_those_of_one_evaluation_per_root(self, n):
        # one Horner evaluation per distinct z^2 gives each root's own residual to the bit
        report = fn_roots(n)
        zs = np.array([complex(r.re, r.im) for r in report.roots])
        even = factorization.fn_float_coeffs(n)[::-1]
        assert [r.residual for r in report.roots] == np.abs(np.polyval(even, zs * zs)).tolist()

    @pytest.mark.parametrize("n", [*range(1, 61), 200, 800])
    def test_records_follow_the_per_root_rule(self, n):
        report = fn_roots(n)
        radius2 = float(fn_root_radius_bound(n)) * (1 + 1e-10)
        for r in report.roots:
            assert all(type(v) is float for v in (r.re, r.im, r.modulus, r.residual))
            assert type(r.converged) is bool
            assert r.modulus == abs(complex(r.re, r.im))
            assert r.converged == (r.residual <= 1e-10 * (n + 1) and r.modulus ** 2 <= radius2)
        assert type(report.max_modulus) is float
        assert report.max_modulus == max(r.modulus for r in report.roots)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200, 800])
    def test_separation_matches_the_full_distance_matrix(self, n):
        # the blocks over +-s give the 2n x 2n matrix's minimum to the bit
        report = fn_roots(n)
        zs = np.array([complex(r.re, r.im) for r in report.roots])
        diffs = np.abs(zs[:, None] - zs[None, :])
        np.fill_diagonal(diffs, np.inf)
        assert type(report.min_separation) is float
        assert report.min_separation == float(diffs.min())

    def test_separation_over_the_polished_half_is_that_of_every_square_root(self, monkeypatch):
        # oracle: the two n x n blocks over all n square roots s, the polished
        # half and its conjugates
        polished = []
        original = factorization._aberth_polish
        monkeypatch.setattr(factorization, "_aberth_polish",
                            lambda coeffs, roots: polished.append(original(coeffs, roots))
                            or polished[-1])
        for n in [*range(1, 201), 800]:
            report = fn_roots(n)
            half = np.sqrt(polished[-1])
            s = np.concatenate((half, half[:n // 2].conj()))
            apart = np.abs(s[:, None] - s[None, :])
            np.fill_diagonal(apart, np.inf)
            across = np.abs(s[:, None] + s[None, :])
            assert report.min_separation == float(min(apart.min(), across.min())), n


class TestRootRadiusBound:
    def test_bound_is_the_largest_coefficient_ratio(self):
        for n in range(1, 41):
            f = fn_closed_coeffs(n)
            c = [f.coeff(2 * k) for k in range(n + 1)]
            assert all(a < b for a, b in zip(c, c[1:]))
            assert fn_root_radius_bound(n) == max(a / b for a, b in zip(c, c[1:]))

    def test_bound_is_below_one(self):
        assert fn_root_radius_bound(1) == F(1, 3)
        for n in [*range(1, 61), 200, 800]:
            assert fn_root_radius_bound(n) < 1

    def test_roots_lie_within_the_bound(self):
        # at n = 1 the one w-root -c_0/c_1 meets the bound exactly; n = 800 is
        # covered by the converged flags of test_certified_inside_disk
        for n in [*range(1, 21), 200]:
            bound = float(fn_root_radius_bound(n))
            assert all(r.modulus ** 2 <= bound * (1 + 1e-10) for r in fn_roots(n).roots)

    def test_root_outside_the_bound_is_not_converged(self, monkeypatch):
        # |z|^2 = 5^(-1/2) at n = 2, so a bound of 1/4 leaves every root outside
        monkeypatch.setattr(factorization, "fn_root_radius_bound", lambda n: F(1, 4))
        assert not any(r.converged for r in fn_roots(2).roots)
        monkeypatch.setattr(factorization, "fn_root_radius_bound", lambda n: F(1, 2))
        assert all(r.converged for r in fn_roots(2).roots)

    def test_degree_zero_has_no_bound(self):
        with pytest.raises(ValueError):
            fn_root_radius_bound(0)


def test_radius_bound_at_the_vertex_is_the_largest_ratio():
    # the bound reads g(k) = (2k+3)(n-k) beside its vertex only; every ratio
    # c_k / c_{k+1} from the closed coefficients, as exact fractions
    for n in [*range(1, 501), 800]:
        ratios = (F((k + 1) * (2 * n - 2 * k - 1), (2 * k + 3) * (n - k)) for k in range(n))
        assert fn_root_radius_bound(n) == max(ratios)
