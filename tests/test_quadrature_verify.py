"""Numeric verification paths: periodic trapezoid, contour sampling, interval form."""

import numpy as np
import pytest

from ortholeg import quadrature_verify
from ortholeg.christoffel import _pstar_kn, q_basis_all
from ortholeg.factorization import fn_float_coeffs
from ortholeg.legendre import legendre_eval
from ortholeg.partial_fractions import moments_table
from ortholeg.quadrature_verify import (
    BASE_POINTS,
    contour_moment_numeric,
    interval_form_numeric,
    orthogonality_numeric,
    unit_circle_integral,
)


def _full_grid_gram(n, points):
    # the trapezoid rule on the whole period, every grid evaluated afresh
    theta = 2 * np.pi * np.arange(points) / points
    q = q_basis_all(n, np.cos(theta))
    return (q @ q.T) / points


class TestOrthogonalityNumeric:
    def test_degree_zero_entry_is_one(self):
        report = orthogonality_numeric(0)
        assert report.gram.shape == (1, 1)
        assert report.gram[0, 0] == pytest.approx(1.0, abs=1e-13)

    def test_degree_two_report(self):
        report = orthogonality_numeric(2, tol=1e-10)
        assert report.converged
        assert report.max_offdiag < 1e-10
        assert report.max_diag_dev < 1e-10

    def test_degree_twenty(self):
        report = orthogonality_numeric(20, tol=1e-10)
        assert report.converged
        assert max(report.max_offdiag, report.max_diag_dev) < 1e-10

    def test_gram_symmetric(self):
        for n in (3, 9, 20):
            gram = orthogonality_numeric(n).gram
            assert np.max(np.abs(gram - gram.T)) < 1e-13

    def test_points_power_of_two_times_base(self):
        assert BASE_POINTS == 64
        report = orthogonality_numeric(5)
        ratio = report.points_used // BASE_POINTS
        assert report.points_used % BASE_POINTS == 0
        assert ratio & (ratio - 1) == 0

    def test_geometric_refinement(self):
        # successive doubling errors shrink by better than half once resolved
        for n in range(1, 11):
            history = orthogonality_numeric(n).refinement_history
            usable = [h for h in history if h > 1e-13]
            for a, b in zip(usable, usable[1:]):
                if a < 1e-3:
                    assert b / a < 0.5

    def test_unmet_tolerance_stops_at_the_entry_budget(self, monkeypatch):
        monkeypatch.setattr(quadrature_verify, "MAX_ENTRIES", 11 * 512)
        report = orthogonality_numeric(10, tol=1e-300)
        assert report.points_used == 512
        assert not report.converged and report.unconverged_entries

    def test_refine_budget_counts_rows(self, monkeypatch):
        monkeypatch.setattr(quadrature_verify, "MAX_ENTRIES", 100 * 256)
        grids = []
        quadrature_verify._refine(lambda p: grids.append(p) or float(p), 0.0, 100)
        assert grids == [64, 128, 256]

    def test_budget_without_room_to_refine_is_rejected(self, monkeypatch):
        monkeypatch.setattr(quadrature_verify, "MAX_ENTRIES", 128 * 5)
        with pytest.raises(ValueError):
            orthogonality_numeric(5)
        assert orthogonality_numeric(4, tol=1e-300).points_used == 128

    def test_entry_budget_admits_the_degree_cap(self):
        # verify-theorem --n 800 converges at the default tolerance on 32768 points
        assert 32768 * 801 <= quadrature_verify.MAX_ENTRIES

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            orthogonality_numeric(-1)
        with pytest.raises(ValueError):
            orthogonality_numeric(2, tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_tolerance_must_be_finite(self, tol):
        with pytest.raises(ValueError):
            orthogonality_numeric(2, tol=tol)


class TestNestedGrids:
    @pytest.mark.parametrize("n", [*range(31), 200])
    def test_matches_the_full_grid_trapezoid_rule(self, n):
        report = orthogonality_numeric(n)
        gram, points, history, _ = quadrature_verify._refine(
            lambda p: _full_grid_gram(n, p), 1e-11, n + 1)
        assert report.points_used == points
        assert len(report.refinement_history) == len(history)
        assert np.max(np.abs(report.gram - gram)) <= 1e-14

    @pytest.mark.parametrize("n", [0, 7, 40])
    def test_each_point_is_evaluated_once(self, n, monkeypatch):
        # the half period 0..pi of the final grid: points_used / 2 + 1 angles
        counted = []

        def counting(degree, x):
            counted.append(np.size(x))
            return q_basis_all(degree, x)

        monkeypatch.setattr(quadrature_verify, "q_basis_all", counting)
        report = orthogonality_numeric(n)
        assert sum(counted) == report.points_used // 2 + 1
        assert len(counted) == len(report.refinement_history) + 1

    def test_gram_is_exactly_symmetric(self):
        for n in (3, 9, 20, 64):
            gram = orthogonality_numeric(n).gram
            assert np.array_equal(gram, gram.T)

    def test_grids_must_double(self):
        evaluate = quadrature_verify._nested(lambda points, odd: 1.0)
        evaluate(64)
        evaluate(128)
        with pytest.raises(ValueError):
            evaluate(512)


class TestContourMoment:
    def test_value_two_at_zero(self):
        m = contour_moment_numeric(1, 0)
        assert m.real == pytest.approx(2.0, abs=1e-10)
        assert abs(m.imag) < 1e-10

    def test_value_zero_elsewhere(self):
        assert abs(contour_moment_numeric(1, 2)) < 1e-10

    def test_matches_exact_far_up(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 8):
            for k in rng.choice(2 * n + 1, size=4, replace=False):
                numeric = contour_moment_numeric(n, int(k))
                exact = float(moments_table(n)[int(k)])
                assert abs(numeric.real - exact) < 1e-10
                assert abs(numeric.imag) < 1e-10

    @pytest.mark.parametrize("n, k", [(1, 0), (1, 2), (5, 3), (20, 0), (20, 17), (120, 0),
                                      (120, 239)])
    def test_matches_the_full_circle(self, n, k):
        # the upper half circle gives the real part of the whole-circle mean
        # on the same grid, and an imaginary part of exactly 0
        coeffs = fn_float_coeffs(n)

        def integrand(z):
            fg = np.polyval(coeffs[::-1], z * z) * np.polyval(coeffs, z * z)
            return 2 * (n + 1) * z ** (2 * n - 1) * legendre_eval(k, 0.5 * (z + 1 / z)) / fg

        full = quadrature_verify._refine(
            lambda p: unit_circle_integral(integrand, p), 1e-12, k + 1)[0]
        moment = contour_moment_numeric(n, k)
        assert moment.imag == 0.0
        assert abs(moment.real - full.real) <= 1e-14


class TestIntervalForm:
    def test_constant_entry(self):
        for n in (0, 1, 4):
            assert interval_form_numeric(n, 0, 0) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_and_offdiagonal(self):
        assert interval_form_numeric(2, 1, 1) == pytest.approx(1.0, abs=1e-10)
        assert interval_form_numeric(2, 0, 2) == pytest.approx(0.0, abs=1e-10)

    def test_matches_block_reference_bit_for_bit(self):
        # the whole (n+1)-row block at every grid, as before rows were streamed
        def block_value(n, i, j, points):
            m = np.arange(1, points + 1)
            pstar, kn = _pstar_kn(n, np.cos((2 * m - 1) * np.pi / (2 * points)))
            return float(np.mean(pstar[i] * pstar[j] / kn))

        for n, i, j in ((0, 0, 0), (7, 2, 5), (60, 17, 17), (198, 119, 119), (200, 3, 150)):
            reference = quadrature_verify._refine(
                lambda p: block_value(n, i, j, p), 1e-13, n + 1)[0]
            assert interval_form_numeric(n, i, j) == reference

    def test_matches_theta_form(self):
        for n, i, j in ((3, 1, 1), (5, 2, 4), (8, 0, 0), (8, 3, 3)):
            gram = orthogonality_numeric(n, tol=1e-12).gram
            assert interval_form_numeric(n, i, j) == pytest.approx(gram[i, j], abs=1e-12)
