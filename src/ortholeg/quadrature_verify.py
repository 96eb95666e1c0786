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

The uniform grids of the periodic and contour forms nest: the even points of
the 2M grid are the M grid (Trefethen & Weideman, "The exponentially
convergent trapezoidal rule", SIAM Review 2014), so each doubling evaluates
only the M points it adds.  Both integrands take the same value, or its
conjugate, at t and 2 pi - t, so only the angles in [0, pi] are evaluated.
Every grid point is then evaluated once, on half the period.  The interval
form's midpoint nodes do not nest under doubling and are evaluated afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .christoffel import _pstar_pair_kn, q_basis_all
from .factorization import fn_float_coeffs
from .legendre import legendre_eval

BASE_POINTS = 64
MAX_POINTS = 2**20
#: Cap on grid points times rows evaluated per point.  A grid holds about 26
#: bytes per entry, so this bounds one grid near 0.9 GB at any degree.
MAX_ENTRIES = 2**25


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


def _refine(evaluate, tol: float, rows: int):
    """Evaluate on uniform grids of BASE_POINTS, 2 BASE_POINTS, ... points.

    ``evaluate(points)`` returns the value on the grid of ``points`` points;
    it is called with each grid size in turn, so a nested evaluator
    (``_nested``) can reuse the points of the grid before.  Stops at the
    first doubling whose value differs from the previous one by less than
    ``tol`` (entrywise for arrays), or before the grid would pass MAX_POINTS
    points or MAX_ENTRIES points times ``rows``, the number of rows
    ``evaluate`` holds per grid point.  Returns the last value, its grid
    size, the largest change at each doubling, and the last change itself.
    """
    if BASE_POINTS * 2 * rows > MAX_ENTRIES:
        raise ValueError(f"{rows} rows per point leave no grid to refine within MAX_ENTRIES")
    points = BASE_POINTS
    value = evaluate(points)
    history: list[float] = []
    while points * 2 <= MAX_POINTS and points * 2 * rows <= MAX_ENTRIES:
        points *= 2
        cur = evaluate(points)
        change = abs(cur - value)
        history.append(float(np.max(change)))
        value = cur
        if history[-1] < tol:
            break
    return value, points, history, change


def _nested(grid_sum):
    """The ``evaluate(points)`` of ``_refine`` for grids that nest.

    ``grid_sum(points, odd)`` sums the integrand over the uniform grid of
    ``points`` angles 2 pi m / points, or over its odd m alone when ``odd``.
    The even points of the 2M grid are the M grid, so the running sum S_M
    grows by the odd sum of the 2M grid alone: S_2M = S_M + odd sum.  Returns
    the trapezoid value S_M / M.  Each call must double the grid before.
    """
    last = total = None

    def evaluate(points: int):
        nonlocal last, total
        if last is None:
            total = grid_sum(points, False)
        elif points == 2 * last:
            total = total + grid_sum(points, True)
        else:
            raise ValueError(f"a grid of {points} points does not double the last, {last}")
        last = points
        return total / points

    return evaluate


def _half_period(values, total):
    """The ``grid_sum(points, odd)`` of an integrand even about t = 0.

    ``values(t)`` evaluates the integrand at the angles t, along its last
    axis, and ``total`` sums such values along that axis.  The integrand at
    2 pi - t equals that at t, so a full grid sums the angles 2 pi m / points
    with m = 0..points/2 only: the ends t = 0 and t = pi once, every angle in
    between twice.  The odd m of a grid pair up the same way, and none is an
    end, so each of the odd m < points/2 counts twice.
    """
    def grid_sum(points: int, odd: bool):
        m = np.arange(1, points // 2, 2) if odd else np.arange(points // 2 + 1)
        v = values(2 * np.pi * m / points)
        if odd:
            return 2 * total(v)
        return 2 * total(v[..., 1:-1]) + total(v[..., :1]) + total(v[..., -1:])

    return grid_sum


def orthogonality_numeric(n: int, tol: float = 1e-10) -> OrthoReport:
    """Gram matrix of the periodic form by trapezoid refinement.

    The uniform grid is doubled until successive matrices agree entrywise to
    tol/10; entries still moving at the grid cap are reported as
    unconverged rather than raising.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")
    # q @ q.T is one symmetric product, so every partial sum stays exactly symmetric
    grid_sum = _half_period(lambda t: q_basis_all(n, np.cos(t)), lambda q: q @ q.T)
    gram, points, history, change = _refine(_nested(grid_sum), tol / 10, n + 1)
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

    The grid is doubled until successive values agree to 1e-12.  The
    integrand has real coefficients, so its values at z and conj(z) are
    conjugate: the upper half circle gives the real part, and the imaginary
    part is exactly 0.  The real part converges to the exact rational moment.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= k <= 2 * n:
        raise ValueError("k must satisfy 0 <= k <= 2n")
    coeffs = fn_float_coeffs(n)

    def real_part(t):
        z = np.exp(1j * t)
        x = 0.5 * (z + 1.0 / z)
        pk = legendre_eval(k, x)
        # F_n and its reversal G_n are polynomials in z^2
        fg = np.polyval(coeffs[::-1], z * z) * np.polyval(coeffs, z * z)
        # dz / (2 pi i z) is dt / (2 pi), so the extra z absorbs the z^{-1}
        return (2 * (n + 1) * z ** (2 * n - 1) * pk / fg * z).real

    # k + 1 rows per point, as when the whole block P_0..P_k was held, so the
    # grid sizes do not move although legendre_eval holds two rows
    return complex(_refine(_nested(_half_period(real_part, np.sum)), 1e-12, k + 1)[0])


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
        pi, pj, kn = _pstar_pair_kn(n, i, j, np.cos((2 * m - 1) * np.pi / (2 * points)))
        return float(np.mean(pi * pj / kn))

    return _refine(value, 1e-13, n + 1)[0]
