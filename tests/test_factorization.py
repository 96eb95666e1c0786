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
        from ortholeg.legendre import legendre_exact

        def value(p, z):
            return sum((c * z**e for e, c in p.terms()), F(0))

        for n in (1, 3, 8):
            f = fn_from_definition(n)
            for z in (F(7, 10), F(-3, 2)):
                x = (z + 1 / z) / 2
                pn, pn1 = value(legendre_exact(n), x), value(legendre_exact(n - 1), x)
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
        # 200 tops the benchmark's numeric degrees and 800 is the CLI cap
        for n in [*range(1, 21), 200, 800]:
            report = fn_roots(n)
            assert len(report.roots) == 2 * n
            assert report.max_modulus < 1.0
            assert report.min_separation > 1e-8
            for r in report.roots:
                assert r.converged
                assert r.residual < 1e-10 * (n + 1)

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
        from ortholeg.christoffel import kn_eval

        thetas = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        for n in (1, 5, 12, 20):
            values = kn_eval(n, np.cos(thetas))
            assert values.min() >= 0.25  # grid minimum is K_n(0), which is >= 1/4

    def test_roots_json_shape(self):
        payload = fn_roots(2).to_json()
        assert payload["n"] == 2
        assert len(payload["roots"]) == 4
        assert set(payload["roots"][0]) == {"re", "im", "modulus", "residual"}


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
