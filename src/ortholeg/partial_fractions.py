"""Partial-fraction family and exact contour moments.

One family of Laurent polynomials, indexed by the Legendre degree m, splits
2(n+1) z^{2n-1} P_m(J(z)) over the factors F_n and G_n,

    2(n+1) z^{2n-1} P_m(J) = U_m G_n + V_m F_n,      m = 0..2n.

(The paper's four families are A_k = U_{n+k}, B_k = V_{n+k}, C_k = U_{n-k}
and D_k = V_{n-k}, for k = 0..n.)  The unit-circle moment of
P_m(J)/(F_n G_n) therefore reduces to coefficient extraction: residues of
polynomial/F_n sum to a leading-coefficient ratio, anything/G_n integrates
to zero (all G_n zeros outside the closed disk), and the z^{-1} pieces
contribute residues at the origin.  No numerical integration and no
evaluation at the (irrational) roots is ever needed, so the weighted
orthogonality of the full basis is certified in exact rational arithmetic:
the moment is 2 for P_0 and 0 for every 1 <= m <= 2n, hence the inner
product of P_i* and P_j* under the arcsine/Christoffel weight is exactly the
Kronecker delta.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .certificates import Certificate, certifies, condition_certificate, residual_certificate
from .factorization import FactorPair, factor_pair
from .legendre import legendre_on_circle, legendre_product_expand
from .ratpoly import JOUKOWSKI, LaurentPoly


@lru_cache(maxsize=None)
def build_abcd(n: int) -> tuple[tuple[LaurentPoly, ...], tuple[LaurentPoly, ...]]:
    """The splitting family (U_0..U_{2n}, V_0..V_{2n}) of degree n.

    U_n = V_n = z^{n-1}, and U_{n-1}, V_{n-1} are closed binomials; every
    other member follows from the Legendre recurrence
    (m+1) P_{m+1} + m P_{m-1} = (2m+1) x P_m with x -> J(z), run up to
    m = 2n and down to m = 0.  In that recurrence the neighbour P_j carries
    the factor max(m, j), whichever of the two neighbours is solved for.
    The recursion multiplies by J(z), so members are Laurent polynomials.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    base = LaurentPoly.monomial(n - 1)
    top, low = Fraction(2 * n + 1, 2 * n), Fraction(-1, 2 * n)
    u = {n: base, n - 1: LaurentPoly({n: top, n - 2: low})}
    v = {n: base, n - 1: LaurentPoly({n - 2: top, n: low})}
    steps = [(m, m + 1) for m in range(n, 2 * n)] + [(m, m - 1) for m in range(n - 1, 0, -1)]
    for m, new in steps:
        old = 2 * m - new
        factor = Fraction(1, max(m, new))
        for member in (u, v):
            member[new] = ((2 * m + 1) * JOUKOWSKI * member[m] - max(m, old) * member[old]) * factor
    return tuple(u[m] for m in range(2 * n + 1)), tuple(v[m] for m in range(2 * n + 1))


def _check_split(identity: str, n: int, m: int, k: int) -> Certificate:
    # 2(n+1) z^{2n-1} P_m(J(z)) = U_m G_n + V_m F_n
    if not 0 <= k <= n:
        raise ValueError("k must satisfy 0 <= k <= n")
    u, v = build_abcd(n)
    pair = factor_pair(n)
    target = (2 * (n + 1)) * legendre_on_circle(m).shift(2 * n - 1)
    residual = target - (u[m] * pair.g + v[m] * pair.f)
    return residual_certificate(identity, n, residual, k=k)


@certifies("pfd-plus")
def check_pfd_plus(n: int, k: int) -> Certificate:
    """Certify 2(n+1) z^{2n-1} P_{n+k}(J) = U_{n+k} G_n + V_{n+k} F_n (A_k, B_k), 0 <= k <= n."""
    return _check_split("pfd-plus", n, n + k, k)


@certifies("pfd-minus")
def check_pfd_minus(n: int, k: int) -> Certificate:
    """Certify 2(n+1) z^{2n-1} P_{n-k}(J) = U_{n-k} G_n + V_{n-k} F_n (C_k, D_k), 0 <= k <= n."""
    return _check_split("pfd-minus", n, n - k, k)


def check_support(n: int) -> Certificate:
    """Certify the support facts the moment computation relies on.

    Every U_m and V_m with 1 <= m <= 2n-1 and V_{2n} are genuine
    polynomials, U_{2n} carries a z^{-1} term, and U_0, V_0 have minimal
    exponent exactly -1.
    """
    u, v = build_abcd(n)
    members = [("U", m, u[m]) for m in range(1, 2 * n)] + [("V", m, v[m]) for m in range(1, 2 * n + 1)]
    problems = [f"{name}_{m} has negative exponents" for name, m, p in members if p.min_exp < 0]
    if u[2 * n].coeff(-1) == 0:
        problems.append(f"U_{2 * n} lacks its z^-1 term")
    for name, p in (("U", u[0]), ("V", v[0])):
        if p.min_exp != -1:
            problems.append(f"{name}_0 min exponent != -1")
    return condition_certificate("pfd-support", n, not problems, detail="; ".join(problems))


@certifies("pfd-leading-coefficient")
def leading_coefficient_checks(n: int) -> Certificate:
    """Certify the two coefficient identities behind the m = 0 moment.

    (i) the z^{2n-1} coefficient of U_0 equals the leading coefficient of
    F_n, and (ii) the z^{-1} coefficient of V_0 equals G_n(0).  V_{2n} has
    no z^{-1} term at all, which is checked as well.
    """
    u, v = build_abcd(n)
    pair = factor_pair(n)
    lc_f = pair.f.coeff(2 * n)
    problems = []
    if u[0].coeff(2 * n - 1) != lc_f:
        problems.append(f"top coefficient of U_0 is {u[0].coeff(2 * n - 1)}, expected {lc_f}")
    if v[0].coeff(-1) != pair.g.coeff(0):
        problems.append(f"z^-1 coefficient of V_0 is {v[0].coeff(-1)}, expected {pair.g.coeff(0)}")
    if v[2 * n].coeff(-1) != 0:
        problems.append(f"V_{2 * n} unexpectedly carries a z^-1 term")
    return condition_certificate("pfd-leading-coefficient", n, not problems, detail="; ".join(problems))


def _split_residues(u: LaurentPoly, v: LaurentPoly, pair: FactorPair) -> Fraction:
    """Exact value of (1/2 pi i) contour integral of u/F_n + v/G_n over the unit circle.

    u and v may carry a z^{-1} term; deeper negative exponents never occur
    for the family used here and are rejected.  The reduction uses only
    coefficient extraction:

      - polynomial p over F_n: sum of residues = [z^{2n-1}] p / lc(F_n),
      - c/(z F_n): (c/F_n(0)) (1 - [z^{2n-1}]((F_n - F_n(0))/z) / lc(F_n)),
      - polynomial over G_n: 0 (all zeros outside the closed disk),
      - d/(z G_n): d / G_n(0).
    """
    n = pair.n
    for w in (u, v):
        if not w.is_zero and w.min_exp < -1:
            raise ArithmeticError("family member has exponents below z^-1")
    lc_f = pair.f.coeff(2 * n)
    c = u.coeff(-1)
    p = u - LaurentPoly.monomial(-1, c)
    if not p.is_zero and p.degree > 2 * n - 1:
        raise ArithmeticError("numerator degree too large for the residue rule")
    total = p.coeff(2 * n - 1) / lc_f
    if c:
        shifted = (pair.f - LaurentPoly({0: pair.f.coeff(0)})).shift(-1)
        total += (c / pair.f.coeff(0)) * (1 - shifted.coeff(2 * n - 1) / lc_f)
    d = v.coeff(-1)
    if d:
        total += d / pair.g.coeff(0)
    return total


@lru_cache(maxsize=None)
def moments_table(n: int) -> tuple[Fraction, ...]:
    """Exact unit-circle moments (1/2 pi i) of 2(n+1) z^{2n-1} P_k(J) / (F_n G_n), k = 0..2n.

    They evaluate to 2 for k = 0 and 0 for 1 <= k <= 2n, entirely in rational
    arithmetic via the partial-fraction split and residue reduction rules.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    u, v = build_abcd(n)
    pair = factor_pair(n)
    return tuple(_split_residues(u[k], v[k], pair) for k in range(2 * n + 1))


@certifies("moment-values")
def check_moments(n: int) -> Certificate:
    """Certify moments_table(n)[k] == 2 delta_{k0} for every k = 0..2n."""
    bad = [k for k, m in enumerate(moments_table(n))
           if m != (2 if k == 0 else 0)]
    return condition_certificate(
        "moment-values", n, not bad,
        detail="" if not bad else f"unexpected moments at k={bad}",
    )


def orthogonality_exact(n: int, i: int, j: int) -> Fraction:
    """Exact arcsine/Christoffel inner product of P_i* and P_j*, which is delta_ij.

    Sums the Adams coefficients a_k of P_i P_j against the exact moments and
    scales by sqrt((2i+1)(2j+1))/2.  Every moment with k >= 1 vanishes, so
    only 2 a_0 = 2 delta_ij/(2i+1) survives: the sum is zero (i != j) or the
    square root is exact (i == j).  A nonzero sum times an irrational root
    raises ArithmeticError.
    """
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("indices must satisfy 0 <= i, j <= n")
    moments = moments_table(n)
    s = sum((a * moments[k] for k, a in enumerate(legendre_product_expand(i, j)) if a),
            start=Fraction(0))
    if s == 0:
        return Fraction(0)
    square = (2 * i + 1) * (2 * j + 1)
    root = math.isqrt(square)
    if root * root != square:
        raise ArithmeticError("irrational inner product; expansion radical did not cancel")
    return s * Fraction(root, 2)


@certifies("weighted-orthogonality")
def check_orthogonality(n: int) -> Certificate:
    """Certify the full (n+1) x (n+1) exact Gram matrix is the identity."""
    bad = []
    for i in range(n + 1):
        for j in range(i, n + 1):
            value = orthogonality_exact(n, i, j)
            if value != (1 if i == j else 0):
                bad.append((i, j))
    return condition_certificate(
        "weighted-orthogonality", n, not bad,
        detail="" if not bad else f"unexpected inner products at {bad}",
    )
