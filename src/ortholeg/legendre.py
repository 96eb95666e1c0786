"""Classical Legendre polynomials.

Floating evaluation by one forward three-term recurrence (``legendre_eval``
for P_n alone, ``legendre_all`` for the block P_0..P_n), the exact Laurent
form of P_n(J(z)), J(z) = (z + 1/z)/2, on the unit circle, certified checks
of the recurrence identities, and the exact Legendre-basis coefficients of
products P_i P_j.

Every exact Legendre object lives on the circle, as a Laurent polynomial in
z.  That loses nothing: x -> J(z) is an injective ring map from Q[x] into
Q[z, 1/z], whose image is the Laurent polynomials symmetric under z -> 1/z.
With theta = z d/dz and S = (z - 1/z)/2 = theta J, the chain rule gives
theta P(J) = S P'(J), and J^2 - 1 = S^2, so (x^2 - 1) d/dx becomes S theta.
An identity with a derivative is multiplied through by S, which is nonzero
in the integral domain Q[z, 1/z]; each circle residual is then R(J) or
S R(J) for the residual R in x, and is zero exactly when R is.  theta is
written ``p.diff().shift(1)``.

The exact sum sum_{k<=n} (2k+1)/2 P_k(J)^2 = (n+1) K_n(J) is written once,
in ``_square_sum``: the Christoffel-Darboux identity below and ``kn_exact``
in ``christoffel`` both read it.  Its cache holds one degree, because the
ledger asks both callers for degree n before it goes on to n + 1, and each
degree adds one square to the degree before.  The Christoffel-Darboux
product theta P_{n+1} P_n - P_{n+1} theta P_n is written once too, in
``_cd_product``, which that identity and ``christoffel.check_kn_forms``
read, with a cache of one degree for the same reason.  The central
binomials C(2j, j) of the closed coefficients of P_n(J) come from one
cached integer table, ``_central_binomials``.

Normalization is the classical one, P_n(1) = 1, with base cases P_0 = 1 and
P_1 = x; the orthonormalized family is P_n* = sqrt((2n+1)/2) P_n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .certificates import Certificate, certificate
from .ratpoly import JOUKOWSKI, LaurentPoly

#: S = (z - 1/z)/2 = theta J, which carries (x^2 - 1) d/dx to the circle as S theta.
_S = JOUKOWSKI.diff().shift(1)


def _legendre_rows(n: int, x, rows=None):
    """Yield P_0(x), ..., P_n(x) by the forward three-term recurrence.

    (m + 1) P_{m+1} = (2m + 1) x P_m - m P_{m-1}, elementwise on arrays and
    complex input, each step as ((2m + 1) x) P_m - m P_{m-1}, then / (m + 1),
    with x first widened to ``np.result_type(x, float)``.  Forward
    recurrence is stable on [-1, 1] for the degrees used here.  Each row is
    a new array, or, given ``rows``, n + 1 arrays of shape(x), is written in
    place into ``rows[k]``.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    x = np.asarray(x, dtype=np.result_type(x, float))

    def out(k):
        return None if rows is None else rows[k]

    p_prev = np.multiply(x, 0, out=out(0))
    p_prev += 1.0
    yield p_prev
    if n == 0:
        return
    p = np.multiply(x, p_prev, out=out(1))
    yield p
    scratch = np.empty_like(p)
    for m in range(1, n):
        row = np.multiply(2 * m + 1, x, out=out(m + 1))
        row *= p
        row -= np.multiply(m, p_prev, out=scratch)
        row /= m + 1
        p_prev, p = p, row
        yield p


def legendre_eval(n: int, x):
    """P_n(x), holding two rows of the recurrence at a time."""
    for p in _legendre_rows(n, x):
        pass
    return p


def legendre_all(n_max: int, x, rows=None):
    """P_0(x), ..., P_{n_max}(x) as one array of shape (n_max+1,) + shape(x).

    ``_legendre_rows`` writes each row in place by the operations that make
    the rows of ``legendre_eval``, so every value equals its bit for bit.
    Given ``rows``, n_max + 1 arrays of shape(x) and of x's widened dtype,
    the rows are written into them instead, and ``rows`` is returned: a
    caller can so lay the block out as it needs, as the Gram of
    ``quadrature_verify`` holds its even and odd degrees in two blocks.
    """
    if n_max < 0:
        raise ValueError("degree must be non-negative")
    values = rows
    if rows is None:
        values = np.empty((n_max + 1,) + np.shape(x), dtype=np.result_type(x, float))
        rows = [values[k, ...] for k in range(n_max + 1)]  # views, even for a scalar x
    for _ in _legendre_rows(n_max, x, rows):
        pass
    return values


@lru_cache(maxsize=None)
def _central_table(size: int) -> tuple[int, ...]:
    """C(2j, j) for j < ``size``, a power of two: the table of half the size, continued.

    Each entry comes from the last by the exact recurrence
    C(2j + 2, j + 1) = C(2j, j) 2(2j + 1) / (j + 1), whose division leaves no
    remainder, so a table of N entries costs N small multiplications once.
    """
    if size == 1:
        return (1,)
    table = list(_central_table(size // 2))
    for j in range(size // 2 - 1, size - 1):
        table.append(table[-1] * 2 * (2 * j + 1) // (j + 1))
    return tuple(table)


def _central_binomials(n: int) -> tuple[int, ...]:
    """The central binomials C(2j, j) for j = 0..n, and possibly more.

    One cached integer table, grown by doubling, serves every degree: the
    exact P_n(J) here and the cosine coefficients of ``quadrature_verify``.
    """
    return _central_table(1 << n.bit_length())


@lru_cache(maxsize=None)
def legendre_on_circle(n: int) -> LaurentPoly:
    """Exact Laurent polynomial P_n(J(z)) with J(z) = (z + 1/z)/2, from its closed coefficients.

    P_n(cos t) = sum_j a_j a_{n-j} cos((n - 2j) t) with a_j = C(2j, j) / 4^j,
    so P_n(J) = sum_j C(2j, j) C(2n-2j, n-j) / 4^n z^{n-2j}: symmetric under
    z -> 1/z, supported on exponents {-n, ..., n} in steps of two.  No
    recurrence builds it, so the ``legendre-three-term`` certificate and the
    recurrence transfer of ``partial_fractions`` check a construction that
    does not use the recurrence they check.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    central = _central_binomials(n)
    # exponents n - 2j ascending, as the storage of LaurentPoly keeps them
    numerators = {n - 2 * j: central[j] * central[n - j] for j in range(n, -1, -1)}
    return LaurentPoly._reduced(numerators, 4**n)


@lru_cache(maxsize=1)
def _square_sum(n: int) -> LaurentPoly:
    """Exact sum_{k<=n} (2k+1)/2 P_k(J)^2, that is (n+1) K_n(J), on the circle.

    The sum of degree n - 1 plus one square.  The cache holds one degree:
    the ledger runs both callers on degree n before degree n + 1, so each
    degree is built once per ledger, from the last, and no earlier sum stays
    alive.  A cold call recurses n levels, two interpreter frames each with
    the cache, so it fits Python's default recursion limit of 1000 up to
    about n = 490: ``cli.MAX_N_EXACT`` = 250 does, and a higher cap must
    revisit this.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    total = _square_sum(n - 1) if n else LaurentPoly.zero()
    p = legendre_on_circle(n)
    return total + Fraction(2 * n + 1, 2) * (p * p)


@lru_cache(maxsize=1)
def _cd_product(n: int) -> LaurentPoly:
    """Exact theta P_{n+1}(J) P_n(J) - P_{n+1}(J) theta P_n(J), which is 2 S K_n(J).

    The Christoffel-Darboux product, read by the Legendre identity below and
    by ``christoffel.check_kn_forms``.  Its cache holds one degree, as that
    of ``_square_sum`` does: the ledger runs both callers on degree n before
    degree n + 1, so each degree's product is built once.
    """
    p, p1 = legendre_on_circle(n), legendre_on_circle(n + 1)
    return p1.diff().shift(1) * p - p1 * p.diff().shift(1)


def check_legendre_identities(n: int) -> list[Certificate]:
    """Certify the five classical identities at degree n >= 1 in exact arithmetic on the circle.

    Each residual is an exact Laurent polynomial in z, certified to be
    identically zero.  With P_k for P_k(J), theta = z d/dz and
    S = (z - 1/z)/2, an identity with a derivative is its x form multiplied
    through by S, by (x^2 - 1) d/dx = S theta (module docstring):

    - ``christoffel-darboux``: S sum_{k<=n} (2k+1)/2 P_k^2
      = (n+1)/2 (theta P_{n+1} P_n - P_{n+1} theta P_n), from
      sum = (n+1)/2 (P_{n+1}' P_n - P_{n+1} P_n')  (orthonormalized squares
      on the left; the unnormalized form already fails at n = 0)
    - ``three-term``: (n+1) P_{n+1} = (2n+1) J P_n - n P_{n-1}
    - ``three-term-derivative``: (n+1) theta P_{n+1}
      = (2n+1)(S P_n + J theta P_n) - n theta P_{n-1}, from
      (n+1) P_{n+1}' = (2n+1)(P_n + x P_n') - n P_{n-1}'
    - ``derivative-relation``: S theta P_n = n (J P_n - P_{n-1}), from
      (x^2 - 1) P_n' = n (x P_n - P_{n-1})
    - ``derivative-difference``: (2n+1) S P_n = theta P_{n+1} - theta P_{n-1},
      from (2n+1) P_n = P_{n+1}' - P_{n-1}'
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    p = {k: legendre_on_circle(k) for k in (n - 1, n, n + 1)}
    dp = {k: q.diff().shift(1) for k, q in p.items()}
    cd = _S * _square_sum(n) - Fraction(n + 1, 2) * _cd_product(n)
    rec = (n + 1) * p[n + 1] - (2 * n + 1) * JOUKOWSKI * p[n] + n * p[n - 1]
    drec = (n + 1) * dp[n + 1] - (2 * n + 1) * (_S * p[n] + JOUKOWSKI * dp[n]) + n * dp[n - 1]
    christ = _S * dp[n] - n * (JOUKOWSKI * p[n] - p[n - 1])
    ichrist = (2 * n + 1) * _S * p[n] - (dp[n + 1] - dp[n - 1])
    return [certificate("legendre-christoffel-darboux", n, cd),
            certificate("legendre-three-term", n, rec),
            certificate("legendre-three-term-derivative", n, drec),
            certificate("legendre-derivative-relation", n, christ),
            certificate("legendre-derivative-difference", n, ichrist)]


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
