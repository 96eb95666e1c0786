"""Classical Legendre polynomials.

Floating evaluation by one forward three-term recurrence (``legendre_eval``
for P_n alone, ``legendre_all`` for the block P_0..P_n), exact monomial
coefficients, the exact Laurent form of P_n((z + 1/z)/2) on the unit circle,
certified checks of the recurrence identities, and the exact Legendre-basis
coefficients of products P_i P_j.

Normalization is the classical one, P_n(1) = 1, with base cases P_0 = 1 and
P_1 = x; the orthonormalized family is P_n* = sqrt((2n+1)/2) P_n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .certificates import Certificate, residual_certificate
from .ratpoly import JOUKOWSKI, LaurentPoly

_X = LaurentPoly.monomial(1)
_HALF = Fraction(1, 2)


def _legendre_rows(n: int, x):
    """Yield P_0(x), ..., P_n(x) by the forward three-term recurrence.

    (m + 1) P_{m+1} = (2m + 1) x P_m - m P_{m-1}, elementwise on arrays and
    complex input.  Forward recurrence is stable on [-1, 1] for the degrees
    used here.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    p_prev = x * 0 + 1.0
    yield p_prev
    if n == 0:
        return
    p = x * p_prev
    yield p
    for m in range(1, n):
        p_prev, p = p, ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
        yield p


def legendre_eval(n: int, x):
    """P_n(x), holding two rows of the recurrence at a time."""
    for p in _legendre_rows(n, x):
        pass
    return p


def legendre_all(n_max: int, x) -> np.ndarray:
    """P_0(x), ..., P_{n_max}(x) as one array of shape (n_max+1,) + shape(x)."""
    if n_max < 0:
        raise ValueError("degree must be non-negative")
    values = np.empty((n_max + 1,) + np.shape(x), dtype=np.result_type(x, float))
    for k, p in enumerate(_legendre_rows(n_max, x)):
        values[k] = p
    return values


def _next_degree(cached, x: LaurentPoly, n: int) -> LaurentPoly:
    # n P_n = (2n-1) x P_{n-1} - (n-1) P_{n-2}; the lower degrees are filled
    # bottom-up first, so a cold call recurses one level instead of n
    for m in range(2, n - 1):
        cached(m)
    return ((2 * n - 1) * x * cached(n - 1) - (n - 1) * cached(n - 2)) * Fraction(1, n)


@lru_cache(maxsize=None)
def legendre_exact(n: int) -> LaurentPoly:
    """Exact monomial-basis coefficients of P_n, as a polynomial in x."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    if n <= 1:
        return (LaurentPoly.one(), _X)[n]
    return _next_degree(legendre_exact, _X, n)


@lru_cache(maxsize=None)
def legendre_on_circle(n: int) -> LaurentPoly:
    """Exact Laurent polynomial P_n(J(z)) with J(z) = (z + 1/z)/2.

    Symmetric under z -> 1/z, supported on exponents {-n, ..., n} in steps
    of two.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if n <= 1:
        return (LaurentPoly.one(), JOUKOWSKI)[n]
    return _next_degree(legendre_on_circle, JOUKOWSKI, n)


def check_legendre_identities(n_max: int) -> list[Certificate]:
    """Certify the five classical identities in exact polynomial arithmetic.

    For every 1 <= n <= n_max the residual of each identity is computed as an
    exact polynomial and certified to be identically zero:

    - ``christoffel-darboux``: sum_{k<=n} (2k+1)/2 P_k^2
      = (n+1)/2 (P_{n+1}' P_n - P_{n+1} P_n')  (orthonormalized squares on
      the left; the unnormalized form already fails at n = 0)
    - ``three-term``: (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}
    - ``three-term-derivative``: (n+1) P_{n+1}' = (2n+1)(P_n + x P_n') - n P_{n-1}'
    - ``derivative-relation``: (x^2 - 1) P_n' = n (x P_n - P_{n-1})
    - ``derivative-difference``: (2n+1) P_n = P_{n+1}' - P_{n-1}'
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    certs: list[Certificate] = []
    x2m1 = _X * _X - LaurentPoly.one()
    p = [legendre_exact(k) for k in range(n_max + 2)]
    dp = [q.diff() for q in p]
    weighted_square_sum = _HALF * p[0] * p[0]
    for n in range(1, n_max + 1):
        weighted_square_sum = weighted_square_sum + Fraction(2 * n + 1, 2) * p[n] * p[n]
        cd = weighted_square_sum - Fraction(n + 1, 2) * (dp[n + 1] * p[n] - p[n + 1] * dp[n])
        rec = (n + 1) * p[n + 1] - (2 * n + 1) * _X * p[n] + n * p[n - 1]
        drec = (n + 1) * dp[n + 1] - (2 * n + 1) * (p[n] + _X * dp[n]) + n * dp[n - 1]
        christ = x2m1 * dp[n] - n * (_X * p[n] - p[n - 1])
        ichrist = (2 * n + 1) * p[n] - (dp[n + 1] - dp[n - 1])
        certs.append(residual_certificate("legendre-christoffel-darboux", n, cd))
        certs.append(residual_certificate("legendre-three-term", n, rec))
        certs.append(residual_certificate("legendre-three-term-derivative", n, drec))
        certs.append(residual_certificate("legendre-derivative-relation", n, christ))
        certs.append(residual_certificate("legendre-derivative-difference", n, ichrist))
    return certs


@lru_cache(maxsize=None)
def legendre_product_expand(i: int, j: int) -> tuple[Fraction, ...]:
    """Exact Legendre-basis coefficients (a_0, ..., a_{i+j}) of P_i P_j.

    Adams' linearization formula (Adams 1878): with t = i + j - r, the
    coefficient of P_{t-r} is A_{i-r} A_r A_{j-r} / A_t * (2(t-r)+1)/(2t+1)
    for 0 <= r <= min(i, j), and every other coefficient is zero.  Here
    A_m = C(2m, m) / 4^m, and the powers of 4 cancel because
    (i-r) + r + (j-r) = t, so each coefficient is one quotient of integers.
    The constant coefficient a_0 equals delta_ij / (2i+1).  Cached: it does
    not depend on n.
    """
    if i < 0 or j < 0:
        raise ValueError("degrees must be non-negative")
    coeffs = [Fraction(0)] * (i + j + 1)
    for r in range(min(i, j) + 1):
        t = i + j - r
        k = t - r
        coeffs[k] = Fraction(
            math.comb(2 * (i - r), i - r) * math.comb(2 * r, r)
            * math.comb(2 * (j - r), j - r) * (2 * k + 1),
            math.comb(2 * t, t) * (2 * t + 1))
    return tuple(coeffs)
