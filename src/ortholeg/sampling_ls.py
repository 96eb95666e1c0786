"""Arcsine-distributed sampling and Christoffel-weighted least squares.

Samples are drawn from the arcsine density 1/(pi sqrt(1-x^2)) by the inverse
CDF map x = cos(pi u), and an unknown function f is fit by the polynomial
p = sum_j c_j P_j* of degree n that minimizes the weighted residual
sum_m (p(x_m) - f(x_m))^2 / K_n(x_m).  Divided by sqrt(K_n), that is
unweighted least squares in the basis Q_j = P_j* / sqrt(K_n) against the
scaled values f / sqrt(K_n).  Because the Q_j are orthonormal under the
arcsine law, the expected empirical Gram matrix is the identity, and every
design-matrix row has squared norm exactly n + 1 -- the optimal stability
factor for this sampling strategy.

Sampling uses a seeded counter-based generator (Philox) so batches are
bit-reproducible from (seed, count) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .christoffel import _pstar, q_basis_all

GENERATOR_NAME = "philox4x64"
# The normal equations G c = D^T y / count lose accuracy like kappa(G) * eps,
# with kappa(G) = kappa(D)^2 (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 20).  Up to this gate that forward error stays near 2e-10;
# a larger kappa(G), or a G that is not positive definite, goes to the
# SVD-backed solver instead.
MAX_GRAM_CONDITION = 1e6
# Cohen, Davenport & Leviatan (2013): the weighted least-squares fit is stable
# on the event ||G - I||_2 <= 1/2.
STABILITY_BOUND = 0.5


@dataclass(frozen=True)
class SampleBatch:
    """Points in [-1, 1] together with the seed that produced them."""

    points: np.ndarray
    seed: int

    def __post_init__(self):
        self.points.setflags(write=False)

    @property
    def generator_name(self) -> str:
        return GENERATOR_NAME

    @property
    def count(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "generator_name": self.generator_name,
            "count": self.count,
            "points": [float(x) for x in self.points],
        }


def arcsine_from_uniform(u):
    """Inverse-CDF map sending uniform(0,1) variates to the arcsine law."""
    return np.cos(np.pi * u)


def sample_arcsine(count: int, seed: int) -> SampleBatch:
    """Draw ``count`` arcsine-distributed points with a counter-based generator."""
    if count < 1:
        raise ValueError("count must be at least 1")
    gen = np.random.Generator(np.random.Philox(key=seed))
    return SampleBatch(points=arcsine_from_uniform(gen.random(count)), seed=seed)


def design_matrix(n: int, batch: SampleBatch) -> np.ndarray:
    """Matrix with entry (m, j) = Q_j(x_m); every row has squared norm n + 1."""
    return q_basis_all(n, batch.points).T


def empirical_gram(n: int, batch: SampleBatch) -> np.ndarray:
    """G = D^T D / count; its expectation under the arcsine law is the identity."""
    d = design_matrix(n, batch)
    return (d.T @ d) / batch.count


@dataclass(frozen=True)
class FitReport:
    """A fitted polynomial as coefficients in the P* basis, with Gram diagnostics."""

    n: int
    coefficients: np.ndarray
    residual_rms: float
    gram_deviation: float
    condition_estimate: float
    sample_count: int
    seed: int

    def __post_init__(self):
        self.coefficients.setflags(write=False)

    @property
    def stable(self) -> bool:
        """The Cohen-Davenport-Leviatan stability event ||G - I||_2 <= 1/2."""
        return self.gram_deviation <= STABILITY_BOUND

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "coefficients": [float(c) for c in self.coefficients],
            "residual_rms": self.residual_rms,
            "gram_deviation": self.gram_deviation,
            "condition_estimate": self.condition_estimate,
            "stable": self.stable,
            "sample_count": self.sample_count,
            "seed": self.seed,
        }


def fit_least_squares(n: int, batch: SampleBatch, values) -> FitReport:
    """Fit values ~ sum_j c_j P_j*(x) by Christoffel-weighted least squares.

    Solves D c ~ values / sqrt(K_n) with the design matrix D of the Q basis
    through its normal equations G c = D^T (values / sqrt(K_n)) / count, where
    G = D^T D / count is the empirical Gram matrix whose expectation is the
    identity.  One ``eigvalsh(G)`` gives both diagnostics: ``gram_deviation``
    = max |lambda - 1| = ||G - I||_2 and ``condition_estimate`` =
    sqrt(lambda_max / lambda_min) = kappa(D).  The normal equations are solved
    only while kappa(G) <= ``MAX_GRAM_CONDITION``, which bounds their forward
    error near kappa(G) * eps; a worse-conditioned or singular G (for example
    a count close to n + 1) falls back to the SVD-backed least-squares
    solver, whose singular values sigma give the diagnostics through
    lambda = sigma^2 / count.
    ``residual_rms`` is the RMS of the weighted residual D c - values /
    sqrt(K_n).  Oversampling is required: fewer samples than n + 1
    coefficients, non-finite values, or a rank-deficient design, is an error.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (batch.count,):
        raise ValueError("values must match the sample count")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if batch.count < n + 1:
        raise ValueError("need at least n + 1 samples to fit n + 1 coefficients")
    d = design_matrix(n, batch)
    # 1/sqrt(K_n) = Q_0 / P_0*, and P_0* = 1/sqrt(2)
    scaled = values * d[:, 0] * math.sqrt(2)
    gram = (d.T @ d) / batch.count
    lam = np.linalg.eigvalsh(gram)
    if lam[0] > 0 and lam[-1] <= MAX_GRAM_CONDITION * lam[0]:
        coeffs = np.linalg.solve(gram, (d.T @ scaled) / batch.count)
    else:
        coeffs, _, rank, sv = np.linalg.lstsq(d, scaled, rcond=None)
        if rank < n + 1:
            raise ValueError("design matrix is rank-deficient")
        # the eigenvalues of G, ascending, without the relative error that
        # eigvalsh leaves in the smallest ones
        lam = sv[::-1] ** 2 / batch.count
    residual_rms = float(np.linalg.norm(d @ coeffs - scaled) / np.sqrt(batch.count))
    return FitReport(
        n=n,
        coefficients=coeffs,
        residual_rms=residual_rms,
        gram_deviation=float(np.max(np.abs(lam - 1.0))),
        condition_estimate=math.sqrt(lam[-1] / lam[0]),
        sample_count=batch.count,
        seed=batch.seed,
    )


def predict(report: FitReport, x):
    """Evaluate the fitted polynomial sum_j c_j P_j*(x) on [-1, 1]."""
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= 1):  # also rejects NaN
        raise ValueError("the fit is defined on [-1, 1]")
    result = np.tensordot(report.coefficients, _pstar(report.n, xs), axes=(0, 0))
    if np.ndim(x) == 0:
        return float(result)
    return result

