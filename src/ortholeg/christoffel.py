"""The normalized reciprocal Christoffel function K_n and the weighted basis Q_j.

K_n(x) = (1/(n+1)) sum_{k=0}^n (P_k*(x))^2.  Exactly, K_n is built on the
unit circle, as K_n(J(z)) with J(z) = (z + 1/z)/2, like every exact Legendre
object (the ``legendre`` module docstring says why nothing is lost).  With
P_k for P_k(J), theta = z d/dz and S = (z - 1/z)/2, its three forms are

- sum:                 K_n(J) = (1/(n+1)) sum_{k<=n} (2k+1)/2 P_k^2
- Christoffel-Darboux: 2 S K_n(J) = theta P_{n+1} P_n - P_{n+1} theta P_n
- closed form:         K_n(J) = ((n+1)^2 P_n^2 - (theta P_n)^2) / (2(n+1))

the circle images of K_n = (P_{n+1}' P_n - P_{n+1} P_n') / 2 and
K_n = ((n+1)^2 P_n^2 - (x^2 - 1) P_n'^2) / (2(n+1)), by
(x^2 - 1) d/dx = S theta.  ``kn_exact`` certifies the closed form and
``check_kn_forms`` the Christoffel-Darboux form.

The exact sum form is (1/(n+1)) times ``legendre._square_sum(n)``, the one
exact sum of (2k+1)/2 P_k^2, which the Legendre Christoffel-Darboux identity
reads too; that sum carries each degree into the next by one square.  The
Christoffel-Darboux form is ``legendre._cd_product(n)``, the product that
the Legendre Christoffel-Darboux identity reads too.
In floating point the Q basis, the fit and the periodic Gram read the sum
form (``_kn_sum``), which is positive on [-1, 1].  The interval form of
``quadrature_verify`` reads the closed form instead, and its contour form
reads |F_n|^2 / (2(n+1)), so its three forms read K_n three ways.

The weighted basis is Q_j = P_j* / sqrt(K_n); its squares sum to exactly
n + 1 at every point of [-1, 1], which is the optimal stability factor for
arcsine-sampled least squares.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .certificates import certifies
from .legendre import _S, _cd_product, _square_sum, legendre_all, legendre_on_circle
from .ratpoly import LaurentPoly


def _pstar_scale(n: int) -> np.ndarray:
    """The factors sqrt((2k+1)/2), k = 0..n, that take P_k to P_k*."""
    return np.sqrt(np.arange(1, 2 * n + 2, 2) / 2)


def _kn_sum(n: int, rows) -> np.ndarray:
    """K_n(x) in sum form from the rows P_0*(x), ..., P_n*(x).

    The rows come scaled to P_k* = sqrt((2k+1)/2) P_k by the factors of
    ``_pstar_scale``, each row by one product, whatever holds them: one
    block or two parity blocks.  The squares are added in degree order into
    one vector, so K_n keeps its bits whichever holds the rows.
    """
    for k, row in enumerate(rows):
        if k == 0:
            total = row * row
            square = np.empty_like(total)
        else:
            total += np.multiply(row, row, out=square)
    total /= n + 1
    return total


def _pstar(n: int, x) -> np.ndarray:
    """P_0*(x), ..., P_n*(x) stacked along axis 0, scaled in place by one broadcast product."""
    pstar = legendre_all(n, x)
    pstar *= _pstar_scale(n).reshape((n + 1,) + (1,) * (pstar.ndim - 1))
    return pstar


def _pstar_kn(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """The block ``_pstar(n, x)`` and K_n(x) in sum form."""
    pstar = _pstar(n, x)
    return pstar, _kn_sum(n, pstar)


@lru_cache(maxsize=1)
def kn_exact(n: int) -> LaurentPoly:
    """Exact K_n(J(z)), a Laurent polynomial of degree 2n in z, certified against the closed form.

    The sum form is ``legendre._square_sum(n)`` / (n + 1); that sum is built
    from the sum of degree n - 1 by one square, so a ledger going up in n
    pays one square per degree.  Raises ValueError for n < 0.
    """
    sum_form = _square_sum(n) * Fraction(1, n + 1)
    if sum_form != _kn_exact_closed(n):
        raise ArithmeticError(f"K_{n} sum and closed forms disagree")
    return sum_form


def _kn_exact_closed(n: int) -> LaurentPoly:
    p = legendre_on_circle(n)
    dp = p.diff().shift(1)
    return ((n + 1) ** 2 * (p * p) - dp * dp) * Fraction(1, 2 * (n + 1))


@certifies("christoffel-forms-agree")
def check_kn_forms(n: int) -> LaurentPoly:
    """Certify that the sum, Christoffel-Darboux and closed forms of K_n(J) agree exactly."""
    return 2 * _S * kn_exact(n) - _cd_product(n)


def q_basis_all(n: int, x) -> np.ndarray:
    """All weighted basis values Q_j(x) = P_j*(x)/sqrt(K_n(x)), j = 0..n.

    Returns shape (n+1,) + shape(x).  K_n is evaluated in sum form, which is
    positive on [-1, 1] in floating point.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= 1):  # also rejects NaN
        raise ValueError("Q basis is defined on [-1, 1]")
    pstar, kn = _pstar_kn(n, xs)
    pstar /= np.sqrt(kn)
    return pstar


def _q_parity(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Q_0(x), Q_2(x), ... and Q_1(x), Q_3(x), ...: the Q basis in two blocks by parity of degree.

    For x on [-1, 1], not checked.  The values are bit for bit those of
    ``q_basis_all``: ``legendre_all`` writes each degree's row into its
    block, each block is scaled by its slice of ``_pstar_scale``, and
    ``_kn_sum`` adds the rows in degree order.  The Gram of
    ``quadrature_verify`` takes one symmetric product of each block, so it
    never copies rows out by parity, and its largest array is half an
    (n+1)-row block.
    """
    blocks = np.empty((n // 2 + 1,) + np.shape(x)), np.empty(((n + 1) // 2,) + np.shape(x))
    rows = [blocks[k % 2][k // 2] for k in range(n + 1)]
    legendre_all(n, x, rows)
    scale = _pstar_scale(n)
    for parity, block in enumerate(blocks):
        block *= scale[parity::2].reshape((-1,) + (1,) * np.ndim(x))
    root = np.sqrt(_kn_sum(n, rows))
    for block in blocks:
        block /= root
    return blocks
