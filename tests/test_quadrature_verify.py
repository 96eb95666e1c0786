"""Numeric verification paths: periodic trapezoid, contour sampling, interval form."""

import numpy as np
import pytest

from ortholeg.partial_fractions import moment_exact
from ortholeg.quadrature_verify import (
    BASE_POINTS,
    contour_moment_numeric,
    interval_form_numeric,
    orthogonality_numeric,
)


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

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            orthogonality_numeric(-1)
        with pytest.raises(ValueError):
            orthogonality_numeric(2, tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_tolerance_must_be_finite(self, tol):
        with pytest.raises(ValueError):
            orthogonality_numeric(2, tol=tol)


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
                exact = float(moment_exact(n, int(k)))
                assert abs(numeric.real - exact) < 1e-10
                assert abs(numeric.imag) < 1e-10


class TestIntervalForm:
    def test_constant_entry(self):
        for n in (0, 1, 4):
            assert interval_form_numeric(n, 0, 0) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_and_offdiagonal(self):
        assert interval_form_numeric(2, 1, 1) == pytest.approx(1.0, abs=1e-10)
        assert interval_form_numeric(2, 0, 2) == pytest.approx(0.0, abs=1e-10)

    def test_matches_theta_form(self):
        for n, i, j in ((3, 1, 1), (5, 2, 4), (8, 0, 0), (8, 3, 3)):
            gram = orthogonality_numeric(n, tol=1e-12).gram
            assert interval_form_numeric(n, i, j) == pytest.approx(gram[i, j], abs=1e-12)
