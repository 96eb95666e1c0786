"""Numeric verification paths: periodic trapezoid, contour sampling, interval form."""

import math

import numpy as np
import pytest

from ortholeg import christoffel, quadrature_verify
from ortholeg.christoffel import _pstar_kn, _pstar_pair_kn, q_basis_all
from ortholeg.factorization import fn_float_coeffs
from ortholeg.legendre import legendre_eval
from ortholeg.partial_fractions import moments_table
from ortholeg.quadrature_verify import (
    BASE_POINTS,
    contour_moment_numeric,
    interval_form_numeric,
    orthogonality_numeric,
)


def unit_circle_integral(func, points: int) -> complex:
    """(1/2 pi i) contour integral over the unit circle by uniform sampling.

    With z = e^{it} the measure dz/(2 pi i z) becomes the uniform average, so
    the value is mean(func(z) * z) with the extra z absorbing the z^{-1}.
    """
    theta = 2 * np.pi * np.arange(points) / points
    z = np.exp(1j * theta)
    return complex(np.mean(func(z) * z))


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
        quadrature_verify._refine(lambda *ps: [grids.append(p) or float(p) for p in ps], 0.0, 100)
        assert grids == [64, 128, 256]

    @pytest.mark.parametrize("start", [2**20, 2**21])
    def test_start_without_room_to_double_is_rejected(self, start):
        # the last grid for 2 rows is MAX_POINTS: a start there or past it leaves no doubling
        assert quadrature_verify._last_grid(2) == quadrature_verify.MAX_POINTS == 2**20
        with pytest.raises(ValueError):
            quadrature_verify._refine(lambda *grids: [1.0] * len(grids), 0.1, 2, start=start)
        value, points, history, _ = quadrature_verify._refine(
            lambda *grids: [1.0] * len(grids), 0.1, 2, start=start // 4)
        assert (value, points, history) == (1.0, start // 2, [0.0])

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
        start = quadrature_verify._predicted_points(n, 1e-11, n + 1) // 2
        gram, points, history, _ = quadrature_verify._refine(
            lambda *grids: [_full_grid_gram(n, p) for p in grids], 1e-11, n + 1, start)
        assert report.points_used == points
        assert len(report.refinement_history) == len(history)
        assert np.max(np.abs(report.gram - gram)) <= 1e-14

    @pytest.mark.parametrize("n", [0, 7, 40])
    def test_each_point_is_evaluated_once(self, n, monkeypatch):
        # the quarter period 0..pi/2 of the final grid: points_used / 4 + 1 angles;
        # one call for the start grid, half the predicted one, and its first
        # doubling, then one per later doubling
        counted = _count_sizes(monkeypatch, christoffel, "legendre_all", 1)
        report = orthogonality_numeric(n)
        start = max(quadrature_verify._predicted_points(n, 1e-11, n + 1) // 2, BASE_POINTS)
        assert sum(counted) == report.points_used // 4 + 1
        assert counted[0] == start // 2 + 1
        assert len(counted) == len(report.refinement_history)

    def test_gram_is_exactly_symmetric(self):
        for n in (3, 9, 20, 64):
            gram = orthogonality_numeric(n).gram
            assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize("n", [1, 7, 40, 200])
    def test_odd_parity_entries_are_exactly_zero(self, n):
        gram = orthogonality_numeric(n).gram
        i, j = np.indices(gram.shape)
        assert np.all(gram[(i + j) % 2 == 1] == 0.0)
        assert np.all(gram[(i + j) % 2 == 0] != 0.0)

    def test_only_even_parity_entries_stay_unconverged(self):
        report = orthogonality_numeric(5, tol=1e-300)
        assert report.unconverged_entries
        assert all((i + j) % 2 == 0 for i, j in report.unconverged_entries)

    def test_grids_must_double(self):
        evaluate = quadrature_verify._periodic(np.ones_like, lambda v, cols: np.sum(v[cols]))
        evaluate(64, 128)
        with pytest.raises(ValueError):
            evaluate(512)
        with pytest.raises(ValueError):
            evaluate(64, 256)


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
                                      (120, 239), (200, 0), (200, 398)])
    def test_matches_the_full_circle(self, n, k):
        # the real integrand, folded about pi/2 on the quarter period, gives the
        # real part of the complex whole-circle mean on the same grid, and an
        # imaginary part of exactly 0
        coeffs = fn_float_coeffs(n)

        def integrand(z):
            fg = np.polyval(coeffs[::-1], z * z) * np.polyval(coeffs, z * z)
            return 2 * (n + 1) * z ** (2 * n - 1) * legendre_eval(k, 0.5 * (z + 1 / z)) / fg

        full = quadrature_verify._refine(
            lambda *grids: [unit_circle_integral(integrand, p) for p in grids], 1e-12, k + 1)[0]
        moment = contour_moment_numeric(n, k)
        assert moment.imag == 0.0
        assert abs(moment.real - full.real) <= 1e-14

    @pytest.mark.parametrize("n, k", [(20, 0), (120, 238), (200, 398)])
    def test_each_grid_is_one_fft_pair_of_its_length(self, n, k, monkeypatch):
        # F_n by one real FFT and the Chebyshev moments of its weight by one
        # inverse real FFT, each of the grid's own length, for each grid of the
        # ladder from half the predicted grid P; even k only, as an odd-k
        # moment converges at once
        counted = _count_ffts(monkeypatch)
        levels, _ = _levels(monkeypatch, contour_moment_numeric, n, k)
        grids = [p for p, _ in levels]
        assert grids[0] == quadrature_verify._predicted_points(n, 1e-12, 2) // 2
        assert counted == [p for p in grids for _ in range(2)]

    @pytest.mark.parametrize("n", [1, 5, 40, 200])
    def test_a_scaled_coefficient_moves_the_zeroth_moment(self, n, monkeypatch):
        # every coefficient of F_n reaches the weight: any one scaled by 1.01
        # moves mu_0 off 2 by far more than the acceptance tolerance
        for index in sorted({0, n // 2, n}):
            def scaled(degree, index=index):
                coeffs = fn_float_coeffs(degree)
                coeffs[index] *= 1.01
                return coeffs

            monkeypatch.setattr(quadrature_verify, "fn_float_coeffs", scaled)
            assert abs(contour_moment_numeric(n, 0).real - 2.0) > 1e-10

    def test_degree_2n_converges_below_the_degree_cap(self, monkeypatch):
        # the integrand holds two recurrence rows per point, whatever k, so the
        # entry budget leaves P_1600 at n = 800 the grid it needs
        levels, _ = _levels(monkeypatch, contour_moment_numeric, 800, 1600)
        assert abs(levels[-1][1] - levels[-2][1]) < 1e-12


class TestIntervalForm:
    def test_constant_entry(self):
        for n in (0, 1, 4):
            assert interval_form_numeric(n, 0, 0) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_and_offdiagonal(self):
        assert interval_form_numeric(2, 1, 1) == pytest.approx(1.0, abs=1e-10)
        assert interval_form_numeric(2, 0, 2) == pytest.approx(0.0, abs=1e-10)

    def test_matches_block_reference_bit_for_bit(self):
        # the whole (n+1)-row block at every grid, as before rows were streamed,
        # on the positive half of the nodes for an even i + j
        def block_value(n, i, j, points):
            m = np.arange(1, (points // 2 if (i + j) % 2 == 0 else points) + 1)
            pstar, kn = _pstar_kn(n, np.cos((2 * m - 1) * np.pi / (2 * points)))
            return float(np.mean(pstar[i] * pstar[j] / kn))

        for n, i, j in ((0, 0, 0), (7, 2, 5), (60, 17, 17), (198, 119, 119), (200, 3, 150)):
            reference = quadrature_verify._refine(
                lambda *grids: [block_value(n, i, j, p) for p in grids], 1e-13, n + 1)[0]
            assert interval_form_numeric(n, i, j) == reference

    def test_matches_theta_form(self):
        for n, i, j in ((3, 1, 1), (5, 2, 4), (8, 0, 0), (8, 3, 3)):
            gram = orthogonality_numeric(n, tol=1e-12).gram
            assert interval_form_numeric(n, i, j) == pytest.approx(gram[i, j], abs=1e-12)


def _levels(monkeypatch, form, *args):
    # every value the form's evaluator returns, grid by grid, and the result
    levels = []
    refine = quadrature_verify._refine

    def recording(evaluate, tol, rows, start=BASE_POINTS):
        def record(*grids):
            values = evaluate(*grids)
            levels.extend(zip(grids, values))
            return values

        return refine(record, tol, rows, start)

    monkeypatch.setattr(quadrature_verify, "_refine", recording)
    result = form(*args)
    monkeypatch.setattr(quadrature_verify, "_refine", refine)
    return levels, result


def _count_sizes(monkeypatch, module, name, position):
    # the size of the points each call of module.name is given at ``position``
    counted = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: counted.append(np.size(a[position])) or original(*a))
    return counted


def _count_ffts(monkeypatch):
    # the length of every FFT the contour form takes: the input of each real
    # FFT, the output of each inverse one
    counted = []
    rfft, irfft = np.fft.rfft, np.fft.irfft
    monkeypatch.setattr(np.fft, "rfft", lambda a: counted.append(np.size(a)) or rfft(a))
    monkeypatch.setattr(np.fft, "irfft", lambda a, n: counted.append(n) or irfft(a, n))
    return counted


def _same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestPredictedGrid:
    @pytest.mark.parametrize("n", [0, 1, 7, 40, 120, 200])
    def test_forms_match_the_ladder_from_their_start_grid(self, n, monkeypatch):
        # against the same forms refined from BASE_POINTS: each starts later on
        # the same grids and stops on the same one.  The Gram and contour sum
        # their start grid in one pass, so they agree to roundoff; the interval
        # form sums each grid afresh, so it agrees bit for bit
        calls = [(orthogonality_numeric, n)]
        calls += [(contour_moment_numeric, n, k) for k in (0, 2 * n - 1, 2 * n) if n > 0]
        calls += [(interval_form_numeric, n, n // 2, n // 2)]
        calls += [(interval_form_numeric, n, n // 2, n // 2 + 1)] if n > 0 else []
        for form, *args in calls:
            levels, result = _levels(monkeypatch, form, *args)
            with monkeypatch.context() as m:
                m.setattr(quadrature_verify, "_predicted_points", lambda *a: BASE_POINTS)
                base_levels, base = _levels(m, form, *args)
            grids = [p for p, _ in base_levels]
            assert [p for p, _ in levels] == grids[grids.index(levels[0][0]):]
            for (_, v), (_, w) in zip(levels, base_levels[-len(levels):]):
                assert v == w if form is interval_form_numeric else np.max(np.abs(v - w)) <= 1e-15
            if form is orthogonality_numeric:
                assert np.max(np.abs(result.gram - base.gram)) <= 1e-15
                assert result.points_used == base.points_used
                assert len(result.refinement_history) == len(levels) - 1
                assert result.converged == base.converged
                assert result.unconverged_entries == base.unconverged_entries
            elif form is contour_moment_numeric:
                assert result.imag == 0.0 and abs(result - base) <= 1e-15
            else:
                assert result == base

    def test_gram_evaluates_no_finer_grid_than_it_uses(self, monkeypatch):
        counted = _count_sizes(monkeypatch, christoffel, "legendre_all", 1)
        for n in [*range(1, 201), 800]:
            counted.clear()
            report = orthogonality_numeric(n)
            assert 4 * (counted[0] - 1) <= report.points_used

    @pytest.mark.parametrize("n", [1, 20, 60, 120, 200])
    def test_contour_evaluates_no_finer_grid_than_it_uses(self, n, monkeypatch):
        counted = _count_ffts(monkeypatch)
        for k in (0, 2 * n):
            counted.clear()
            levels, _ = _levels(monkeypatch, contour_moment_numeric, n, k)
            assert max(counted) <= levels[-1][0]

    @pytest.mark.parametrize("n, i, j", [(20, 0, 0), (120, 60, 60), (200, 3, 151),
                                         (5, 2, 3), (60, 0, 17), (200, 3, 150)])
    def test_interval_evaluates_the_nodes_of_its_grids_once(self, n, i, j, monkeypatch):
        # the midpoint nodes of the start grid, twice it, ... up to the final
        # grid, and no more: the first two grids in one call, then one call
        # per grid; the positive half of them for an even i + j, which starts
        # at a quarter of the predicted periodic grid, and all of them for an
        # odd i + j
        counted = _count_sizes(monkeypatch, quadrature_verify, "_pstar_pair_kn", 3)
        levels, _ = _levels(monkeypatch, interval_form_numeric, n, i, j)
        nodes = [p // 2 if (i + j) % 2 == 0 else p for p, _ in levels]
        assert counted == [nodes[0] + nodes[1]] + nodes[2:]
        start = quadrature_verify._predicted_points(n, 1e-13, 2) // 4
        assert levels[0][0] == (max(start, BASE_POINTS) if (i + j) % 2 == 0 else BASE_POINTS)

    def test_no_call_passes_the_entry_budget(self, monkeypatch):
        # 11 rows per point leave 256 points as the Gram's last grid: the
        # prediction for tol 1e-300 is clamped there, so it starts at 128; the
        # contour and interval forms hold two rows, which leave 1024, and no
        # FFT of the contour form is longer
        monkeypatch.setattr(quadrature_verify, "MAX_ENTRIES", 11 * 256)
        assert quadrature_verify._predicted_points(10, 1e-300, 11) == 256
        assert quadrature_verify._last_grid(2) == 1024
        gram = _count_sizes(monkeypatch, christoffel, "legendre_all", 1)
        contour = _count_ffts(monkeypatch)
        interval = _count_sizes(monkeypatch, quadrature_verify, "_pstar_pair_kn", 3)
        report = orthogonality_numeric(10, tol=1e-300)
        contour_moment_numeric(10, 10)
        interval_form_numeric(10, 5, 5)
        assert report.points_used == 256 and not report.converged
        assert gram == [65]
        assert max(contour) <= 1024
        assert max(interval) <= 1024 // 2

    @pytest.mark.parametrize("n, tol, points", [(5, 1e6, 128), (0, 1e-300, 128), (0, 1e6, 128),
                                                (5, 1e-300, 2**20)])
    def test_extreme_tolerances_stop_where_the_ladder_does(self, n, tol, points, monkeypatch):
        assert quadrature_verify._predicted_points(n, tol, n + 1) >= BASE_POINTS
        report = orthogonality_numeric(n, tol=tol)
        monkeypatch.setattr(quadrature_verify, "_predicted_points", lambda *a: BASE_POINTS)
        base = orthogonality_numeric(n, tol=tol)
        assert report.points_used == base.points_used == points
        assert report.converged == base.converged
        assert np.max(np.abs(report.gram - base.gram)) <= 1e-15

    @pytest.mark.parametrize("n", [0, 1, 5, 200])
    @pytest.mark.parametrize("tol", [1.0, 1e6, 1e-300])
    def test_prediction_never_raises(self, n, tol):
        points = quadrature_verify._predicted_points(n, tol, n + 1)
        assert BASE_POINTS <= points <= quadrature_verify._last_grid(n + 1)
        assert points & (points - 1) == 0


class TestFold:
    @pytest.mark.parametrize("n, k", [(5, 3), (20, 17), (120, 239)])
    def test_odd_k_contour_evaluates_the_whole_symmetric_grid(self, n, k, monkeypatch):
        # one FFT pair over the whole grid of each level, from BASE_POINTS: the
        # moment, 0 up to rounding, agrees on its first doubling
        counted = _count_ffts(monkeypatch)
        levels, _ = _levels(monkeypatch, contour_moment_numeric, n, k)
        grids = [p for p, _ in levels]
        assert grids == [BASE_POINTS, 2 * BASE_POINTS]
        assert counted == [p for p in grids for _ in range(2)]

    @pytest.mark.parametrize("n", [20, 37, 55, 71, 93, 110, 128, 149, 166, 181, 200])
    def test_forms_match_unfolded_oracles(self, n, monkeypatch):
        # each form against its integrand unfolded, on the whole period or on
        # all nodes and evaluated afresh at every grid from the same start:
        # the same grids, the same stop, the same values to roundoff
        coeffs = fn_float_coeffs(n)[::-1]

        def contour(k, points):
            t = 2 * np.pi * np.arange(points) / points
            f = np.polyval(coeffs, np.exp(2j * t))
            return np.mean(2 * (n + 1) * legendre_eval(k, np.cos(t)) / (f.real**2 + f.imag**2))

        def interval(i, j, points):
            m = np.arange(1, points + 1)
            pstar, kn = _pstar_kn(n, np.cos((2 * m - 1) * np.pi / (2 * points)))
            return float(np.mean(pstar[i] * pstar[j] / kn))

        levels, report = _levels(monkeypatch, orthogonality_numeric, n)
        gram, points, history, _ = quadrature_verify._refine(
            lambda *grids: [_full_grid_gram(n, p) for p in grids], 1e-11, n + 1, levels[0][0])
        assert levels[-1][0] == report.points_used == points
        assert len(report.refinement_history) == len(history)
        assert report.converged == (history[-1] < 1e-11)
        i, j = np.indices(gram.shape)
        even = (i + j) % 2 == 0
        assert np.max(np.abs(report.gram - gram)[even]) <= 1e-14
        assert np.all(report.gram[~even] == 0.0)
        for k in (0, 1, n, 2 * n - 1, 2 * n):
            levels, moment = _levels(monkeypatch, contour_moment_numeric, n, k)
            value, points, _, _ = quadrature_verify._refine(
                lambda *grids: [contour(k, p) for p in grids], 1e-12, 2, levels[0][0])
            assert levels[-1][0] == points
            assert moment.imag == 0.0 and abs(moment.real - value) <= 1e-14
        for i, j in ((0, 0), (n // 2, n // 2), (1, n), (n // 3, n - n // 3), (n - 1, n)):
            levels, result = _levels(monkeypatch, interval_form_numeric, n, i, j)
            value, points, _, _ = quadrature_verify._refine(
                lambda *grids: [interval(i, j, p) for p in grids], 1e-13, 2, levels[0][0])
            assert levels[-1][0] == points
            assert abs(result - value) <= 1e-15


def _one_grid_ladder(evaluate, tol, rows, start=BASE_POINTS):
    # the refinement loop with one grid per call, each grid evaluated on its own
    points, last = max(start, BASE_POINTS), quadrature_verify._last_grid(rows)
    value = evaluate(points)
    history = []
    while points < last:
        points *= 2
        cur = evaluate(points)
        change = abs(cur - value)
        history.append(float(np.max(change)))
        value = cur
        if history[-1] < tol:
            break
    return value, points, history, change


def _one_grid_periodic(values, total):
    # the quarter period of the first grid in one call, then the odd angles of
    # each doubling in one call each: the ends once, the rest twice
    last = running = None

    def evaluate(points):
        nonlocal last, running
        if last is None:
            v = values(2 * np.pi * np.arange(points // 4 + 1) / points)
            running = 2 * total(v[..., 1:-1]) + total(v[..., :1]) + total(v[..., -1:])
        else:
            assert points == 2 * last
            running = running + 2 * total(values(2 * np.pi * np.arange(1, points // 4, 2) / points))
        last = points
        return running / points

    return evaluate


def _one_grid_gram(n, tol=1e-10):
    def total(q):
        gram = np.zeros((n + 1, n + 1))
        for rows in (slice(0, None, 2), slice(1, None, 2)):
            gram[rows, rows] = 2 * (q[rows] @ q[rows].T)
        return gram

    start = quadrature_verify._predicted_points(n, tol / 10, n + 1) // 2
    evaluate = _one_grid_periodic(lambda t: q_basis_all(n, np.cos(t)), total)
    return _one_grid_ladder(evaluate, tol / 10, n + 1, start)


def _one_grid_contour(n, k):
    # one FFT of F_n and one of its weight per grid, each grid on its own
    coeffs = fn_float_coeffs(n)
    alpha = np.array([math.comb(2 * j, j) / 4**j for j in range(k + 1)])
    orders = np.abs(k - 2 * np.arange(k + 1))

    def value(points):
        f = np.fft.rfft(np.bincount(2 * np.arange(n + 1) % points, coeffs, points))
        chebyshev = np.fft.irfft(2 * (n + 1) / (f.real**2 + f.imag**2), points)
        rho = np.minimum(orders % points, points - orders % points)
        return float((alpha * alpha[::-1]) @ chebyshev[rho])

    start = quadrature_verify._predicted_points(n, 1e-12, 2) // 2 if k % 2 == 0 else BASE_POINTS
    return _one_grid_ladder(value, 1e-12, 2, start)


def _one_grid_interval(n, i, j):
    def value(points):
        m = np.arange(1, (points // 2 if (i + j) % 2 == 0 else points) + 1)
        pi, pj, kn = _pstar_pair_kn(n, i, j, np.cos((2 * m - 1) * np.pi / (2 * points)))
        return float(np.mean(pi * pj / kn))

    start = quadrature_verify._predicted_points(n, 1e-13, 2) // 4 if (i + j) % 2 == 0 else BASE_POINTS
    return _one_grid_ladder(value, 1e-13, 2, start)


def _refined(monkeypatch, form, *args):
    # what the form's refinement returns, and the form's own result
    refine, returned = quadrature_verify._refine, []
    monkeypatch.setattr(quadrature_verify, "_refine",
                        lambda *a: returned.append(refine(*a)) or returned[-1])
    result = form(*args)
    monkeypatch.setattr(quadrature_verify, "_refine", refine)
    return returned[0], result


class TestOneGridLadder:
    """The first two grids share one sweep; every value is that of one sweep per grid."""

    @pytest.mark.parametrize("n, tol", [(n, 1e-10) for n in [*range(41), 64, 115, 155, 200, 800]]
                             + [(3, 1e-300), (40, 1e-14), (115, 1e-2)])
    def test_gram_matches_to_the_bit(self, n, tol):
        report = orthogonality_numeric(n, tol)
        gram, points, history, change = _one_grid_gram(n, tol)
        converged = history[-1] < tol / 10
        assert np.array_equal(report.gram, gram)
        assert report.points_used == points
        assert report.refinement_history == tuple(history)
        assert report.converged == converged
        assert report.unconverged_entries == (() if converged else tuple(
            (int(i), int(j)) for i, j in np.argwhere(change >= tol / 10)))

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 64, 115, 155, 200])
    def test_contour_and_interval_match_to_the_bit(self, n, monkeypatch):
        for k in sorted({0, 1, n, 2 * n - 1, 2 * n}):
            (value, points, history, change), moment = _refined(
                monkeypatch, contour_moment_numeric, n, k)
            reference = _one_grid_contour(n, k)
            assert (value, points, history, change) == reference
            assert moment == complex(reference[0])
        for i, j in sorted({(0, 0), (n // 2, n // 2), (1, n), (n - 1, n)}):
            refined, result = _refined(monkeypatch, interval_form_numeric, n, i, j)
            reference = _one_grid_interval(n, i, j)
            assert refined == reference
            assert result == reference[0]
