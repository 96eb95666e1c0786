"""Classical Legendre polynomials.

Floating evaluation by the forward three-term recurrence, exact monomial
coefficients, the exact Laurent form of P_n((z + 1/z)/2) on the unit circle,
certified checks of the recurrence identities, and exact expansion of
products of orthonormalized polynomials back into the Legendre basis.

Normalization is the classical one, P_n(1) = 1, with base cases P_0 = 1 and
P_1 = x; the orthonormalized family is P_n* = sqrt((2n+1)/2) P_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .certificates import Certificate, residual_certificate
from .ratpoly import JOUKOWSKI, LaurentPoly

_X = LaurentPoly.monomial(1)
_HALF = Fraction(1, 2)


def legendre_eval(n: int, x):
    """Evaluate (P_n(x), P_n'(x)) simultaneously by forward recurrence.

    Works elementwise on numpy arrays and accepts complex input.  Forward
    recurrence is stable on [-1, 1] for the degrees used here.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    one = x * 0 + 1.0
    if n == 0:
        return one, x * 0.0
    p_prev, d_prev = one, x * 0.0
    p, d = x * one, one
    for m in range(1, n):
        p_next = ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
        d_next = ((2 * m + 1) * (p + x * d) - m * d_prev) / (m + 1)
        p_prev, d_prev = p, d
        p, d = p_next, d_next
    return p, d


def legendre_all(n_max: int, x) -> list:
    """Values [P_0(x), ..., P_{n_max}(x)], elementwise on arrays."""
    if n_max < 0:
        raise ValueError("degree must be non-negative")
    values = [x * 0 + 1.0]
    if n_max == 0:
        return values
    values.append(x * values[0])
    for m in range(1, n_max):
        values.append(((2 * m + 1) * x * values[m] - m * values[m - 1]) / (m + 1))
    return values


def legendre_normalized_eval(n: int, x):
    """P_n*(x) = sqrt((2n+1)/2) P_n(x)."""
    value, _ = legendre_eval(n, x)
    return math.sqrt((2 * n + 1) / 2) * value


@lru_cache(maxsize=None)
def legendre_exact(n: int) -> LaurentPoly:
    """Exact monomial-basis coefficients of P_n, as a polynomial in x."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return _X
    prev = legendre_exact(n - 1)
    prev2 = legendre_exact(n - 2)
    return ((2 * n - 1) * _X * prev - (n - 1) * prev2) * Fraction(1, n)


@lru_cache(maxsize=None)
def legendre_on_circle(n: int) -> LaurentPoly:
    """Exact Laurent polynomial P_n(J(z)) with J(z) = (z + 1/z)/2.

    Symmetric under z -> 1/z, supported on exponents {-n, ..., n} in steps
    of two.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return JOUKOWSKI
    prev = legendre_on_circle(n - 1)
    prev2 = legendre_on_circle(n - 2)
    return ((2 * n - 1) * JOUKOWSKI * prev - (n - 1) * prev2) * Fraction(1, n)


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


@dataclass(frozen=True)
class LegendreExpansion:
    """Expansion sum_k a_k P_k with a_k = coefficients[k] * sqrt(radicand).

    Products of orthonormalized polynomials carry the irrational factor
    sqrt((2i+1)(2j+1))/2; the square part is folded into the rational
    coefficients so ``radicand`` is square-free (1 whenever i == j).
    """

    coefficients: tuple[Fraction, ...]
    radicand: int

    @property
    def max_degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient_float(self, k: int) -> float:
        if not 0 <= k < len(self.coefficients):
            return 0.0
        return float(self.coefficients[k]) * math.sqrt(self.radicand)


def _split_square(m: int) -> tuple[int, int]:
    """Write m = s**2 * r with r square-free; returns (s, r)."""
    s, d = 1, 2
    while d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
            s *= d
        d += 1
    return s, m


def _adams(r: int) -> Fraction:
    # A_r = (1/2)_r / r! = C(2r, r) / 4^r
    return Fraction(math.comb(2 * r, r), 4**r)


def legendre_product_expand(i: int, j: int) -> LegendreExpansion:
    """Exact Legendre-basis expansion of P_i* P_j*.

    P_i P_j is expanded by Adams' linearization formula (Adams 1878): with
    t = i + j - r, the coefficient of P_{t-r} is
    A_{i-r} A_r A_{j-r} / A_t * (2(t-r)+1)/(2t+1) for 0 <= r <= min(i, j).
    The normalization sqrt((2i+1)(2j+1))/2 is carried as the radical part of
    the result.  The constant coefficient a_0 equals delta_ij / 2 exactly.
    """
    if i < 0 or j < 0:
        raise ValueError("degrees must be non-negative")
    s, radicand = _split_square((2 * i + 1) * (2 * j + 1))
    coeffs = [Fraction(0)] * (i + j + 1)
    for r in range(min(i, j) + 1):
        t = i + j - r
        k = t - r
        coeffs[k] = (_adams(i - r) * _adams(r) * _adams(j - r) / _adams(t)
                     * Fraction(2 * k + 1, 2 * t + 1) * s * _HALF)
    return LegendreExpansion(coefficients=tuple(coeffs), radicand=radicand)
