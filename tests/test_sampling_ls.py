"""Arcsine sampling, the weighted design matrix, and least-squares recovery."""

import math

import numpy as np
import pytest

from ortholeg.christoffel import _pstar_kn
from ortholeg.sampling_ls import (
    GENERATOR_NAME,
    MAX_GRAM_CONDITION,
    STABILITY_BOUND,
    SampleBatch,
    arcsine_from_uniform,
    design_matrix,
    empirical_gram,
    fit_least_squares,
    predict,
    predictions_to_csv,
    sample_arcsine,
    samples_to_csv,
)

SEED = 42


def pstar(n, batch):
    """Matrix with entry (m, j) = P_j*(x_m), the basis the fit returns."""
    return _pstar_kn(n, batch.points)[0].T


class TestArcsineTransform:
    def test_midpoint(self):
        assert arcsine_from_uniform(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_endpoints(self):
        assert arcsine_from_uniform(1e-12) == pytest.approx(1.0, abs=1e-8)
        assert arcsine_from_uniform(1 - 1e-12) == pytest.approx(-1.0, abs=1e-8)


class TestSampleBatch:
    def test_range_and_size(self):
        batch = sample_arcsine(5000, SEED)
        assert batch.count == 5000
        assert np.all(np.abs(batch.points) <= 1.0)

    def test_mean_matches_arcsine_law(self):
        # E[X] = 0 and Var[X] = 1/2 for X = cos(pi U)
        count = 100_000
        batch = sample_arcsine(count, SEED)
        sigma = math.sqrt(0.5)
        assert abs(batch.points.mean()) < 3 * sigma / math.sqrt(count)

    def test_deterministic(self):
        a = sample_arcsine(1000, 7)
        b = sample_arcsine(1000, 7)
        assert np.array_equal(a.points, b.points)
        assert a.generator_name == b.generator_name == GENERATOR_NAME

    def test_immutable(self):
        batch = sample_arcsine(10, 1)
        with pytest.raises(ValueError):
            batch.points[0] = 0.0

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_arcsine(0, 1)


class TestDesignMatrix:
    def test_degree_zero_all_ones(self):
        batch = sample_arcsine(100, SEED)
        d = design_matrix(0, batch)
        assert np.allclose(d, 1.0, atol=1e-14)

    def test_row_norms(self):
        batch = sample_arcsine(500, SEED)
        for n in (1, 5, 10):
            d = design_matrix(n, batch)
            norms = np.sum(d * d, axis=1)
            assert np.max(np.abs(norms - (n + 1))) <= 1e-9 * (n + 1)

    def test_row_at_origin(self):
        batch = SampleBatch(points=np.array([0.0]), seed=0)
        row = design_matrix(1, batch)[0]
        assert row[0] == pytest.approx(math.sqrt(2), abs=1e-14)
        assert row[1] == pytest.approx(0.0, abs=1e-14)


class TestEmpiricalGram:
    def test_degree_zero_exact_identity(self):
        batch = sample_arcsine(37, SEED)
        assert np.array_equal(empirical_gram(0, batch), np.array([[1.0]]))

    def test_trace(self):
        batch = sample_arcsine(2000, SEED)
        for n in (3, 10):
            gram = empirical_gram(n, batch)
            assert np.trace(gram) == pytest.approx(n + 1, rel=1e-9)

    def test_expectation_is_identity(self):
        # average over 200 seeds; every entry within 5 standard errors of delta
        n, count, seeds = 5, 500, 200
        grams = np.stack([empirical_gram(n, sample_arcsine(count, s)) for s in range(seeds)])
        mean = grams.mean(axis=0)
        stderr = grams.std(axis=0, ddof=1) / math.sqrt(seeds)
        target = np.eye(n + 1)
        assert np.all(np.abs(mean - target) <= 5 * stderr)

    def test_deviation_shrinks_with_count(self):
        n = 10
        devs = []
        for count in (500, 2000, 8000):
            dev = np.mean([
                np.linalg.norm(empirical_gram(n, sample_arcsine(count, s)) - np.eye(n + 1), 2)
                for s in range(20)
            ])
            devs.append(dev)
        assert devs[0] > devs[1] > devs[2]
        # factor-4 count steps: expect factor ~2 per step, within a factor of 2
        assert 1.0 <= devs[0] / devs[1] <= 4.0
        assert 1.0 <= devs[1] / devs[2] <= 4.0


class TestFit:
    def test_recovers_single_basis_function(self):
        batch = sample_arcsine(300, SEED)
        report = fit_least_squares(4, batch, pstar(4, batch)[:, 2])
        expected = np.zeros(5)
        expected[2] = 1.0
        assert np.max(np.abs(report.coefficients - expected)) < 1e-10
        assert report.residual_rms < 1e-12

    def test_recovers_known_combination(self):
        n = 6
        batch = sample_arcsine(400, SEED)
        target_coeffs = np.arange(1.0, n + 2)
        report = fit_least_squares(n, batch, pstar(n, batch) @ target_coeffs)
        assert np.max(np.abs(report.coefficients - target_coeffs)) < 1e-10

    def test_smooth_target_residual_decreases(self):
        batch = sample_arcsine(1000, 7)
        values = np.exp(batch.points)
        residuals = [fit_least_squares(n, batch, values).residual_rms for n in (2, 4, 6, 8, 10)]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))

    def test_smooth_target_converges(self):
        # a weighted polynomial fit of exp at degree 20 is accurate to roundoff
        n = 20
        batch = sample_arcsine(20 * (n + 1), 7)
        report = fit_least_squares(n, batch, np.exp(batch.points))
        grid = np.linspace(-1.0, 1.0, 401)
        assert np.max(np.abs(predict(report, grid) - np.exp(grid))) < 1e-12

    def test_report_fields(self):
        batch = sample_arcsine(200, 3)
        for n in (2, 20, 80):
            report = fit_least_squares(n, batch, np.exp(batch.points))
            assert report.sample_count == 200
            assert report.seed == 3
            assert report.gram_deviation >= 0
            assert report.condition_estimate >= 1
            # the diagnostics read the eigenvalues of the Gram matrix; check them
            # against its spectral norm and the design matrix's singular values
            gram_norm = np.linalg.norm(empirical_gram(n, batch) - np.eye(n + 1), 2)
            assert abs(report.gram_deviation - gram_norm) < 1e-12
            sv = np.linalg.svd(design_matrix(n, batch), compute_uv=False)
            assert abs(report.condition_estimate - sv.max() / sv.min()) < 1e-12 * report.condition_estimate

    @pytest.mark.parametrize("n", [10, 80, 160])
    @pytest.mark.parametrize("oversampling", [3.0, 12.0])
    def test_normal_equations_agree_with_lstsq(self, n, oversampling):
        # the count c (n+1) ln(n+1) of the benchmark's fits, where kappa(G) stays
        # in single digits and the normal equations are solved; |x| keeps the
        # residual far above roundoff, so it can be compared relatively
        count = math.ceil(oversampling * (n + 1) * math.log(n + 1))
        batch = sample_arcsine(count, n)
        values = np.abs(batch.points)
        report = fit_least_squares(n, batch, values)
        d = design_matrix(n, batch)
        sv = np.linalg.svd(d, compute_uv=False)
        assert (sv[0] / sv[-1]) ** 2 <= MAX_GRAM_CONDITION
        scaled = values * d[:, 0] * math.sqrt(2)
        coeffs = np.linalg.lstsq(d, scaled, rcond=None)[0]
        rms = np.linalg.norm(d @ coeffs - scaled) / math.sqrt(count)
        rel = 1e-12
        assert np.linalg.norm(report.coefficients - coeffs) <= rel * np.linalg.norm(coeffs)
        assert abs(report.residual_rms - rms) <= rel * rms

    def test_ill_conditioned_design_falls_back_to_lstsq(self):
        # count = n + 1 leaves a square design with kappa(G) far past the gate;
        # normal equations would be off by about kappa(G) * eps there
        n = 20
        batch = sample_arcsine(n + 1, SEED)
        d = design_matrix(n, batch)
        sv = np.linalg.svd(d, compute_uv=False)
        assert (sv[0] / sv[-1]) ** 2 > MAX_GRAM_CONDITION
        values = np.exp(batch.points)
        report = fit_least_squares(n, batch, values)
        coeffs = np.linalg.lstsq(d, values * d[:, 0] * math.sqrt(2), rcond=None)[0]
        assert np.linalg.norm(report.coefficients - coeffs) <= 1e-13 * np.linalg.norm(coeffs)
        assert abs(report.condition_estimate - sv[0] / sv[-1]) <= 1e-12 * report.condition_estimate

    def test_repeated_points_are_rank_deficient(self):
        # 12 samples but only 3 distinct points cannot determine 6 coefficients
        batch = SampleBatch(points=np.repeat([-0.5, 0.0, 0.5], 4), seed=0)
        with pytest.raises(ValueError, match="rank-deficient"):
            fit_least_squares(5, batch, np.ones(12))

    def test_stable_is_the_gram_deviation_event(self):
        batch = sample_arcsine(200, 3)
        seen = set()
        for n in (2, 20, 80):
            report = fit_least_squares(n, batch, np.exp(batch.points))
            assert report.stable == (report.gram_deviation <= STABILITY_BOUND)
            assert report.to_json()["stable"] is report.stable
            seen.add(report.stable)
        assert seen == {True, False}

    def test_undersampling_rejected(self):
        batch = sample_arcsine(3, SEED)
        with pytest.raises(ValueError):
            fit_least_squares(5, batch, np.zeros(3))

    def test_value_length_mismatch(self):
        batch = sample_arcsine(10, SEED)
        with pytest.raises(ValueError):
            fit_least_squares(2, batch, np.zeros(9))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        # one bad value would otherwise turn every coefficient into NaN
        batch = sample_arcsine(10, SEED)
        values = np.zeros(10)
        values[4] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_least_squares(2, batch, values)

    def test_deterministic_fit(self):
        def run():
            batch = sample_arcsine(500, 11)
            return fit_least_squares(5, batch, np.exp(batch.points))

        a, b = run(), run()
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.residual_rms == b.residual_rms


class TestPredict:
    def test_zero_coefficients(self):
        batch = sample_arcsine(50, SEED)
        report = fit_least_squares(3, batch, np.zeros(50))
        assert predict(report, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_first_basis_vector(self):
        batch = sample_arcsine(100, SEED)
        report = fit_least_squares(2, batch, pstar(2, batch)[:, 0])
        for x in (-0.8, 0.1, 0.99):
            assert predict(report, x) == pytest.approx(math.sqrt(0.5), abs=1e-10)

    def test_round_trip(self):
        n = 5
        batch = sample_arcsine(400, 13)
        values = pstar(n, batch) @ np.linspace(1.0, 2.0, n + 1)
        report = fit_least_squares(n, batch, values)
        rebuilt = predict(report, batch.points)
        assert np.max(np.abs(rebuilt - values)) < 1e-9

    def test_domain_error(self):
        batch = sample_arcsine(50, SEED)
        report = fit_least_squares(1, batch, np.zeros(50))
        with pytest.raises(ValueError):
            predict(report, 1.2)

    def test_nan_rejected(self):
        batch = sample_arcsine(50, SEED)
        report = fit_least_squares(1, batch, np.zeros(50))
        for x in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match=r"\[-1, 1\]"):
                predict(report, x)


class TestSerialization:
    def test_batch_json_round_trip(self):
        batch = sample_arcsine(4, 9)
        payload = batch.to_json()
        assert payload["seed"] == 9
        assert payload["count"] == 4
        assert payload["generator_name"] == "philox4x64"
        assert payload["points"] == [float(x) for x in batch.points]

    def test_csv_headers(self):
        batch = sample_arcsine(3, 1)
        assert samples_to_csv(batch).startswith("x\n")
        assert predictions_to_csv([0.0], [1.0]).startswith("x,prediction\n")
