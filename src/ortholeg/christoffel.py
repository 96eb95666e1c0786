"""The normalized reciprocal Christoffel function K_n and the weighted basis Q_j.

K_n(x) = (1/(n+1)) sum_{k=0}^n (P_k*(x))^2 admits two further equivalent
forms, which ``check_kn_forms`` certifies equal in exact arithmetic:

- Christoffel-Darboux: K_n = (P_{n+1}' P_n - P_{n+1} P_n') / 2
- closed form:         K_n = ((n+1)^2 P_n^2 - (x^2 - 1) P_n'^2) / (2(n+1))

Floating point evaluates the sum form only (``kn_eval``), which is positive
on [-1, 1].

The weighted basis is Q_j = P_j* / sqrt(K_n); its squares sum to exactly
n + 1 at every point of [-1, 1], which is the optimal stability factor for
arcsine-sampled least squares.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .certificates import certifies
from .legendre import _legendre_rows, legendre_all, legendre_exact
from .ratpoly import LaurentPoly


def _pstar_kn(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """P_0*(x), ..., P_n*(x) stacked along axis 0, and K_n(x) in sum form."""
    pstar = legendre_all(n, x)
    pstar *= np.sqrt(np.arange(1, 2 * n + 2, 2) / 2).reshape((n + 1,) + (1,) * np.ndim(x))
    return pstar, np.sum(pstar * pstar, axis=0) / (n + 1)


def _pstar_pair_kn(n: int, i: int, j: int, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_i*(x), P_j*(x) and K_n(x) in sum form, holding two rows of the recurrence.

    The squares are added in order of degree, as ``_pstar_kn``'s sum over
    axis 0 adds them, so the three values are bit for bit those of
    ``_pstar_kn``; no (n+1)-row block is allocated.
    """
    scale = np.sqrt(np.arange(1, 2 * n + 2, 2) / 2)
    for k, p in enumerate(_legendre_rows(n, x)):
        row = p * scale[k]
        if k == i:
            pi = row
        if k == j:
            pj = row
        if k == 0:
            total = row * row
        else:
            total += row * row
    return pi, pj, total / (n + 1)


def kn_eval(n: int, x):
    """K_n(x) in sum form, elementwise on arrays (positive on [-1, 1])."""
    return _pstar_kn(n, x)[1]


@lru_cache(maxsize=None)
def kn_exact(n: int) -> LaurentPoly:
    """Exact degree-2n polynomial K_n, certified against the closed form."""
    sum_form = _kn_exact_sum(n)
    if sum_form != _kn_exact_closed(n):
        raise ArithmeticError(f"K_{n} sum and closed forms disagree")
    return sum_form


def _kn_exact_sum(n: int) -> LaurentPoly:
    total = LaurentPoly.zero()
    for k in range(n + 1):
        p = legendre_exact(k)
        total = total + Fraction(2 * k + 1, 2) * p * p
    return total * Fraction(1, n + 1)


def _kn_exact_closed(n: int) -> LaurentPoly:
    p = legendre_exact(n)
    dp = p.diff()
    x2m1 = LaurentPoly({2: 1, 0: -1})
    return ((n + 1) ** 2 * p * p - x2m1 * dp * dp) * Fraction(1, 2 * (n + 1))


def _kn_exact_cd(n: int) -> LaurentPoly:
    p = legendre_exact(n)
    p1 = legendre_exact(n + 1)
    return Fraction(1, 2) * (p1.diff() * p - p1 * p.diff())


@certifies("christoffel-forms-agree")
def check_kn_forms(n: int) -> LaurentPoly:
    """Certify that the sum, Christoffel-Darboux and closed forms of K_n agree exactly."""
    return kn_exact(n) - _kn_exact_cd(n)


def q_basis_all(n: int, x) -> np.ndarray:
    """All weighted basis values Q_j(x) = P_j*(x)/sqrt(K_n(x)), j = 0..n.

    Returns shape (n+1,) + shape(x).  K_n is evaluated in sum form, which is
    positive on [-1, 1] in floating point.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= 1):  # also rejects NaN
        raise ValueError("Q basis is defined on [-1, 1]")
    pstar, kn = _pstar_kn(n, xs)
    return pstar / np.sqrt(kn)

