"""Floating-point verification of the weighted orthogonality, independent of
the exact rational path.

Three equivalent integral forms are computed:

- the periodic form, (1/2 pi) integral over [0, 2 pi) of
  P_i*(cos t) P_j*(cos t) / K_n(cos t), by the composite trapezoid rule on a
  uniform grid (spectrally convergent for smooth periodic integrands),
- the contour form over the unit circle via z = e^{it}, and
- the original interval form with the arcsine weight, by Gauss-Chebyshev
  nodes (the same change of variables, sampled at midpoints).

The integrands are rational in (cos t, sin t) and analytic in a strip, so
grid doubling converges geometrically; no fixed Gauss rule on [-1, 1] would
be exact because the integrand is not a polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .christoffel import _pstar_kn
from .factorization import fn_float_coeffs
from .legendre import legendre_all

BASE_POINTS = 64
MAX_POINTS = 2**20


def gram_to_csv(gram: np.ndarray) -> str:
    """A Gram matrix as CSV: a g0,...,gn header, then one row per line."""
    lines = [",".join(f"g{j}" for j in range(len(gram)))]
    for row in gram:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OrthoReport:
    """Computed Gram matrix of the weighted inner products with deviation stats."""

    n: int
    gram: np.ndarray
    max_offdiag: float
    max_diag_dev: float
    points_used: int
    converged: bool
    unconverged_entries: tuple[tuple[int, int], ...]
    refinement_history: tuple[float, ...]

    def __post_init__(self):
        self.gram.setflags(write=False)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "gram": self.gram.tolist(),
            "max_offdiag": self.max_offdiag,
            "max_diag_dev": self.max_diag_dev,
            "points_used": self.points_used,
            "converged": self.converged,
            "unconverged_entries": [list(e) for e in self.unconverged_entries],
        }


def _refine(evaluate, tol: float):
    """Evaluate on uniform grids of BASE_POINTS, 2 BASE_POINTS, ... points.

    Stops at the first doubling whose value differs from the previous one by
    less than ``tol`` (entrywise for arrays), or at MAX_POINTS.  Returns the
    last value, its grid size, the largest change at each doubling, and the
    last change itself.
    """
    points = BASE_POINTS
    value = evaluate(points)
    history: list[float] = []
    while points * 2 <= MAX_POINTS:
        points *= 2
        cur = evaluate(points)
        change = abs(cur - value)
        history.append(float(np.max(change)))
        value = cur
        if history[-1] < tol:
            break
    return value, points, history, change


def _gram_on_grid(n: int, points: int) -> np.ndarray:
    theta = 2 * np.pi * np.arange(points) / points
    pstar, kn = _pstar_kn(n, np.cos(theta))
    q = pstar / np.sqrt(kn)
    return (q @ q.T) / points


def orthogonality_numeric(n: int, tol: float = 1e-10) -> OrthoReport:
    """Gram matrix of the periodic form by trapezoid refinement.

    The uniform grid is doubled until successive matrices agree entrywise to
    tol/10; entries still moving at the point cap are reported as
    unconverged rather than raising.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")
    gram, points, history, change = _refine(lambda p: _gram_on_grid(n, p), tol / 10)
    converged = history[-1] < tol / 10
    unconverged = () if converged else tuple(
        (int(i), int(j)) for i, j in np.argwhere(change >= tol / 10))
    diag = np.diag(gram)
    off = gram - np.diag(diag)
    return OrthoReport(
        n=n,
        gram=gram,
        max_offdiag=float(np.abs(off).max()) if n > 0 else 0.0,
        max_diag_dev=float(np.abs(diag - 1.0).max()),
        points_used=points,
        converged=converged,
        unconverged_entries=unconverged,
        refinement_history=tuple(history),
    )


def unit_circle_integral(func, points: int) -> complex:
    """(1/2 pi i) contour integral over the unit circle by uniform sampling.

    With z = e^{it} the measure dz/(2 pi i z) becomes the uniform average, so
    the value is mean(func(z) * z) with the extra z absorbing the z^{-1}.
    """
    theta = 2 * np.pi * np.arange(points) / points
    z = np.exp(1j * theta)
    return complex(np.mean(func(z) * z))


def contour_moment_numeric(n: int, k: int) -> complex:
    """Unit-circle moment of 2(n+1) z^{2n-1} P_k(J(z)) / (F_n G_n), numerically.

    The grid is doubled until successive values agree to 1e-12.  It is
    conjugate-symmetric so the imaginary part cancels to roundoff; the real
    part converges to the exact rational moment.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= k <= 2 * n:
        raise ValueError("k must satisfy 0 <= k <= 2n")
    coeffs = fn_float_coeffs(n)

    def integrand(z):
        x = 0.5 * (z + 1.0 / z)
        pk = legendre_all(k, x)[k]
        # F_n and its reversal G_n are polynomials in z^2
        fg = np.polyval(coeffs[::-1], z * z) * np.polyval(coeffs, z * z)
        return 2 * (n + 1) * z ** (2 * n - 1) * pk / fg

    return _refine(lambda p: unit_circle_integral(integrand, p), 1e-12)[0]


def interval_form_numeric(n: int, i: int, j: int) -> float:
    """The interval form with the arcsine weight, by Gauss-Chebyshev nodes.

    integral over (-1,1) of P_i* P_j* / (K_n pi sqrt(1-x^2)) dx is the mean of
    the weight-free integrand at x_m = cos((2m-1) pi / 2M): exactly the
    x = cos(theta) substitution, sampled at interior midpoints, so it checks
    the change of variables against the trapezoid path numerically.  The
    node count M is doubled until successive values agree to 1e-13.
    """
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("indices must satisfy 0 <= i, j <= n")

    def value(points: int) -> float:
        m = np.arange(1, points + 1)
        pstar, kn = _pstar_kn(n, np.cos((2 * m - 1) * np.pi / (2 * points)))
        return float(np.mean(pstar[i] * pstar[j] / kn))

    return _refine(value, 1e-13)[0]
