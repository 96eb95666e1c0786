"""Floating-point verification of the weighted orthogonality, independent of
the exact rational path.

Three equivalent integral forms are computed:

- the periodic form, (1/2 pi) integral over [0, 2 pi) of
  P_i*(cos t) P_j*(cos t) / K_n(cos t), by the composite trapezoid rule on a
  uniform grid (spectrally convergent for smooth periodic integrands),
- the contour form over the unit circle via z = e^{it}, by the same rule,
  each grid's sum taken by FFTs, and
- the original interval form with the arcsine weight, by Gauss-Chebyshev
  nodes (the same change of variables, sampled at midpoints), each grid's
  values taken by one inverse real FFT.

The integrands are rational in (cos t, sin t) and analytic in a strip, so
grid doubling converges geometrically; no fixed Gauss rule on [-1, 1] would
be exact because the integrand is not a polynomial.

The uniform grids of the periodic form nest: the even points of the 2M grid
are the M grid, so each doubling evaluates only the M points it adds.  Its
integrand is real and even about t = 0, and even or odd about t = pi/2:
under t -> pi - t, cos t changes sign and Q_i(-x) = (-1)^i Q_i(x).  So
``_periodic`` evaluates the quarter period [0, pi/2] only, each angle once,
of an integrand folded about pi/2, h(t) = f(t) + f(pi - t): the Gram's h is
2 (E E^T + O O^T), E and O the even- and odd-degree rows of the Q basis, so
every entry with i + j odd is exactly 0.

A trapezoid sum on the uniform grid of M points is a discrete Fourier
coefficient (Trefethen & Weideman, "The exponentially convergent trapezoidal
rule", SIAM Review 2014).  The contour form's integrand is the weight
2(n+1) / |F_n(e^{it})|^2 times P_k(cos t), a sum of cosines of k + 1 known
coefficients, so each grid takes one FFT of F_n's coefficients, for the
weight, and one of the weight, for all its Chebyshev moments at once
(``contour_moment_numeric``); no Legendre recurrence runs.

The interval form's midpoint nodes do not nest, so each grid is evaluated
afresh, and no Legendre recurrence runs: P_i, P_j and P_n are cosine series
of the closed coefficients a_h a_{k-h}, and dP_n/dtheta the matching sine
series, so one inverse real FFT of length 2M takes all four at the M nodes
(``_on_midpoints``), with orders past M folded onto the grid.  It reads K_n
in closed form, ((n+1)^2 P_n^2 + (dP_n/dtheta)^2) / (2(n+1)), a sum of two
non-negative terms.  The three forms thus read K_n three ways: the periodic
Gram as the recurrence's sum of squares, the contour form as
|F_n|^2 / (2(n+1)), and the interval form in closed form, so a fault in one
reading shows as a disagreement between the forms.

Every root of F_n has |z|^2 <= ``fn_root_radius_bound(n)`` < 1, so the
integrands are analytic in a strip whose half-width the bound gives, and the
grid that meets a tolerance is predicted before any is evaluated
(``_predicted_points``).  Each form starts its refinement one doubling short
of its predicted grid, so the first doubling it evaluates can meet the
tolerance.

Every refinement thus evaluates its start grid and that first doubling, so
``_refine`` asks for both in one call.  The periodic form evaluates the new
points of both grids in one sweep of its integrand.  On grids of tens to a
few thousand points a sweep of the Legendre recurrence costs mostly its
numpy calls, a few per degree, not its length: at n = 20 to 200 one sweep
over both grids costs 0.5 to 0.8 times two sweeps.  Each grid is then summed
on its own slice of the sweep, in the order of one sweep per grid, so every
value keeps its bits.  The Gram holds its sweep as two blocks
of rows, the even and the odd degrees of the Q basis, which its two
symmetric products use as they are, so no array of the pass holds all
n + 1 rows of both grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .christoffel import _q_parity
from .factorization import fn_float_coeffs, fn_root_radius_bound
from .legendre import _central_binomials

BASE_POINTS = 64
MAX_POINTS = 2**20
#: Cap on grid points times rows evaluated per point.  A grid holds about 26
#: bytes per entry, so this bounds one grid near 0.9 GB at any degree.
MAX_ENTRIES = 2**25


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


def _last_grid(rows: int) -> int:
    """The finest grid ``_refine`` reaches with ``rows`` rows per point."""
    points = BASE_POINTS
    while points * 2 <= MAX_POINTS and points * 2 * rows <= MAX_ENTRIES:
        points *= 2
    return points


def _predicted_points(n: int, tol: float, rows: int) -> int:
    """The grid on which the degree-n forms should agree to ``tol``, a priori.

    On the unit circle K_n(cos t) = |F_n(e^{it})|^2 / (2(n+1)), and every root
    of F_n has |z|^2 <= ``fn_root_radius_bound(n)``, so the integrands are
    analytic in the strip |Im t| < a = -ln(bound) / 2 and the trapezoid error
    on M points falls like e^{-aM}.  Returns the smallest power of two at
    least 2n + ln(1/tol) / a, clamped to BASE_POINTS .. ``_last_grid(rows)``.
    """
    points, last = BASE_POINTS, _last_grid(rows)
    if n > 0:
        need = 2 * n + math.log(tol) / (0.5 * math.log(fn_root_radius_bound(n)))
        while points < need and points < last:
            points *= 2
    return points


def _refine(evaluate, tol: float, rows: int, start: int = BASE_POINTS):
    """Evaluate on uniform grids of ``start``, 2 ``start``, ... points.

    ``evaluate(*grids)`` returns one value per grid size it is given, the
    value on the grid of that many points.  The first call asks for the
    first two grids at once, ``start`` points, or BASE_POINTS if that is
    more, and twice that: every refinement evaluates both, and one sweep of
    an integrand over the points of both costs less than two sweeps, as a
    sweep at these sizes costs mostly its numpy calls.  Each later call asks
    for the next doubling alone, so a nested evaluator (``_periodic``) can
    reuse the points of the grids before.  Stops at the first doubling whose
    value differs from the previous one by less than ``tol`` (entrywise for
    arrays), or at ``_last_grid(rows)``, before the grid would pass
    MAX_POINTS points or MAX_ENTRIES points times ``rows``, the number of
    rows ``evaluate`` holds per grid point.  Returns the last value, its
    grid size, the largest change at each doubling, and the last change
    itself.
    """
    if BASE_POINTS * 2 * rows > MAX_ENTRIES:
        raise ValueError(f"{rows} rows per point leave no grid to refine within MAX_ENTRIES")
    points, last = max(start, BASE_POINTS), _last_grid(rows)
    if points >= last:
        raise ValueError(f"a start of {points} points leaves no doubling below the last grid, {last}")
    value, cur = evaluate(points, 2 * points)
    points *= 2
    history: list[float] = []
    while True:
        change = abs(cur - value)
        history.append(float(np.max(change)))
        value = cur
        if history[-1] < tol or points >= last:
            return value, points, history, change
        points *= 2
        (cur,) = evaluate(points)


def _periodic(values, total):
    """The ``evaluate(*grids)`` of ``_refine`` for an integrand folded about pi/2.

    ``values(t)`` evaluates h(t) = f(t) + f(pi - t) at the angles t along its
    last axis, for f even about t = 0, and ``total(v, cols)`` sums the values
    v of the angles at the slice ``cols`` of that axis.  The sum S_M of f over
    the M angles 2 pi m / M is then the sum of h over m = 0..M/4 only: the
    ends 0 and pi/2 once, every angle between twice.  Each grid must double
    the grid before, whose angles are the even m, so S_2M adds twice the odd
    m < M/2.  One call evaluates the new angles of all its grids, those of
    the first grid then the odd ones of each doubling, in one ``values``
    call, so the first two grids of ``_refine`` share one sweep of the
    integrand, and adds each grid's part to the running sum in that order:
    the sums are bit for bit those of one call per grid.  Returns S_M / M
    for each grid.
    """
    last = running = None

    def evaluate(*grids: int):
        nonlocal last, running
        angles = []
        for points in grids:
            if last is not None and points != 2 * last:
                raise ValueError(f"a grid of {points} points does not double the last, {last}")
            m = np.arange(points // 4 + 1) if last is None else np.arange(1, points // 4, 2)
            angles.append(2 * np.pi * m / points)
            last = points
        v = values(np.concatenate(angles))
        means, end = [], 0
        for points, t in zip(grids, angles):
            begin, end = end, end + t.size
            if running is None:
                running = (2 * total(v, slice(begin + 1, end - 1)) + total(v, slice(begin, begin + 1))
                           + total(v, slice(end - 1, end)))
            else:
                running = running + 2 * total(v, slice(begin, end))
            means.append(running / points)
        return means

    return evaluate


def orthogonality_numeric(n: int, tol: float = 1e-10) -> OrthoReport:
    """Gram matrix of the periodic form by trapezoid refinement.

    The uniform grid is doubled until successive matrices agree entrywise to
    tol/10; entries still moving at the grid cap are reported as
    unconverged rather than raising.  The Q basis is evaluated on the quarter
    period [0, pi/2] only (``_periodic``), and the entries with i + j odd,
    whose integrand is odd about pi/2, are exactly 0 and never unconverged.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")

    def total(blocks, cols):
        # h = 2 (E E^T + O O^T) by parity of degree; each block is one symmetric
        # product, so every partial sum stays exactly symmetric
        gram = np.zeros((n + 1, n + 1))
        for rows, block in zip((slice(0, None, 2), slice(1, None, 2)), blocks):
            q = block[:, cols]
            gram[rows, rows] = 2 * (q @ q.T)
        return gram

    evaluate = _periodic(lambda t: _q_parity(n, np.cos(t)), total)
    start = _predicted_points(n, tol / 10, n + 1) // 2
    gram, points, history, change = _refine(evaluate, tol / 10, n + 1, start)
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


def contour_moment_numeric(n: int, k: int) -> complex:
    """Unit-circle moment of 2(n+1) z^{2n-1} P_k(J(z)) / (F_n G_n), numerically.

    On z = e^{it}, G_n(z) = z^{2n} conj(F_n(z)) and dz / (2 pi i z) = dt / 2 pi,
    so the moment is the mean of the real 2(n+1) P_k(cos t) / |F_n(z)|^2.  The
    grid is doubled until successive values agree to 1e-12.  The imaginary
    part is exactly 0; the real part converges to the exact rational moment.

    Each grid of M points is one trapezoid sum, taken by two FFTs of length
    M (Trefethen & Weideman, SIAM Review 2014).  F_n(z) = sum_j c_j z^{2j} at
    the angles 2 pi m / M is one real FFT of the c_j placed at the exponents
    2j mod M, which gives conj(F_n) there, and so the weight
    w = 2(n+1) / |F_n|^2.  The Chebyshev moments c^_r = mean cos(r t_m) w_m
    are one inverse real FFT of w, which is even in m.  As
    P_k(cos t) = sum_j a_j a_{k-j} cos((k - 2j) t) exactly, with
    a_j = C(2j, j) / 4^j, and cos(r t_m) depends on the grid only through
    rho(r) = min(|r| mod M, M - |r| mod M), the moment on the grid is
    sum_j a_j a_{k-j} c^_{rho(k - 2j)}, each a_j correctly rounded.

    F_n is even in z, so w has period pi, and every odd Chebyshev moment is
    0 up to rounding, or exactly 0: an odd k gives a moment of the size of
    the rounding, which agrees on its first doubling, so it starts at
    BASE_POINTS; an even k starts one doubling short of its predicted grid.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= k <= 2 * n:
        raise ValueError("k must satisfy 0 <= k <= 2n")
    coeffs = fn_float_coeffs(n)
    weights = _legendre_cosines(k)
    orders = np.abs(k - 2 * np.arange(k + 1))

    def moments(*grids: int) -> list[float]:
        values = []
        for points in grids:
            spread = np.bincount(2 * np.arange(n + 1) % points, coeffs, points)
            f = np.fft.rfft(spread)
            chebyshev = np.fft.irfft(2 * (n + 1) / (f.real**2 + f.imag**2), points)
            rho = np.minimum(orders % points, points - orders % points)
            values.append(float(weights @ chebyshev[rho]))
        return values

    start = _predicted_points(n, 1e-12, 2) // 2 if k % 2 == 0 else BASE_POINTS
    return complex(_refine(moments, 1e-12, 2, start)[0])


def _legendre_cosines(k: int) -> np.ndarray:
    """The a_h a_{k-h}, h = 0..k, of P_k(cos t) = sum_h a_h a_{k-h} cos((k - 2h) t).

    a_h = C(2h, h) / 4^h, each correctly rounded: the closed coefficients of
    ``legendre.legendre_on_circle``, from the same cached central binomials.
    """
    central = _central_binomials(k)
    alpha = np.array([central[h] / (1 << 2 * h) for h in range(k + 1)])
    return alpha * alpha[::-1]


def _on_midpoints(orders: np.ndarray, coeffs: np.ndarray, rows: np.ndarray, points: int) -> np.ndarray:
    """Real series f_s(t) = sum_h c_h e^{i r_h t} at t_m = (2m - 1) pi / (2M), by one inverse real FFT.

    Term h has the integer order ``orders[h]``, the complex coefficient
    ``coeffs[h]`` and the series number ``rows[h]``, numbered from 0, the
    last term in the last series; each f_s must be real for real t.  With
    M = ``points`` and N = 2M, e^{i r t_m} = e^{i pi r / N} e^{2 pi i r (m - 1) / N}:
    each c_h is twiddled by e^{i pi r_h / N}, of period 2N in r_h, and lands
    in bin r_h mod N.  As f_s is real, a bin b > M adds its conjugate to bin
    N - b, and bins 0 and M, whose real part alone ``irfft`` reads, count
    twice.  The inverse transform then gives f_s / M, and M is a power of
    two, so the product by M is exact.  Returns f_s(t_1), ..., f_s(t_M) in
    row s: the values at the nodes x_m = cos(t_m) of the M-point
    Gauss-Chebyshev rule.
    """
    size = 2 * points
    bins = orders % size
    twiddled = coeffs * np.exp(1j * np.pi * (orders % (2 * size)) / size)
    twiddled = np.where(bins > points, twiddled.conj(), twiddled)
    spectrum = np.zeros((rows[-1] + 1, points + 1), dtype=complex)
    np.add.at(spectrum, (rows, np.minimum(bins, size - bins)), twiddled)
    spectrum[:, [0, points]] *= 2
    return np.fft.irfft(spectrum, size)[:, :points] * points


def interval_form_numeric(n: int, i: int, j: int) -> float:
    """The interval form with the arcsine weight, by Gauss-Chebyshev nodes.

    integral over (-1,1) of P_i* P_j* / (K_n pi sqrt(1-x^2)) dx is the mean of
    the weight-free integrand at x_m = cos((2m-1) pi / 2M): exactly the
    x = cos(theta) substitution, sampled at interior midpoints, so it checks
    the change of variables against the trapezoid path numerically.  The
    node count M is doubled until successive values agree to 1e-13.

    K_n is read in its closed form, K_n = ((n+1)^2 P_n^2 + (dP_n/dtheta)^2)
    / (2(n+1)) on x = cos(theta): the circle form that ``christoffel.kn_exact``
    certifies, where (theta P_n)^2 = -(dP_n/dtheta)^2 on |z| = 1.  Both
    terms are non-negative, so the denominator is positive with no
    cancellation.  The three forms so read K_n three ways: the periodic Gram
    as the sum of squares of the recurrence, the contour form as
    |F_n|^2 / (2(n+1)), and this form in closed form.

    No Legendre recurrence runs.  P_i, P_j, P_n and dP_n/dtheta are cosine
    and sine series of known coefficients, P_k(cos t) = sum_h a_h a_{k-h}
    cos((k - 2h) t) (``_legendre_cosines``), so each grid takes all four at
    its M nodes by one inverse real FFT of length 2M (``_on_midpoints``);
    orders past M fold onto the grid, as cos(r t_m) changes sign every 2M
    in r.  The mean is taken over all M nodes.

    The M midpoint nodes resolve the integrand as the 2M-point periodic grid
    does, so for an even i + j the refinement starts at a quarter of the
    predicted periodic grid.  An odd i + j gives an integrand odd in x, 0 up
    to rounding, whose first doubling agrees, so it starts at BASE_POINTS.
    """
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("indices must satisfy 0 <= i, j <= n")
    # P_i, P_j, P_n and dP_n/dt as sums of c_h e^{i r_h t}, r_h = k - 2h: the
    # cosines a_h a_{k-h} and, for dP_n/dt, i r_h times those of P_n
    degrees = (i, j, n, n)
    orders = np.concatenate([k - 2 * np.arange(k + 1) for k in degrees])
    pn = _legendre_cosines(n)
    coeffs = np.concatenate((_legendre_cosines(i), _legendre_cosines(j), pn, 1j * orders[-n - 1:] * pn))
    rows = np.repeat(np.arange(4), [k + 1 for k in degrees])
    scale = math.sqrt((2 * i + 1) * (2 * j + 1)) / 2

    def values(*grids: int) -> list[float]:
        means = []
        for points in grids:
            pi, pj, pn, dpn = _on_midpoints(orders, coeffs, rows, points)
            weight = 2 * (n + 1) / ((n + 1) ** 2 * (pn * pn) + dpn * dpn)  # 1 / K_n
            means.append(float(np.mean(pi * pj * weight)) * scale)
        return means

    start = _predicted_points(n, 1e-13, 2) // 4 if (i + j) % 2 == 0 else BASE_POINTS
    return _refine(values, 1e-13, 2, start)[0]
