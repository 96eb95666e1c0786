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

B_k and D_k are the reversals z^{2n-2} A_k(1/z) and z^{2n-2} C_k(1/z) of
A_k and C_k.  Since G_n = z^{2n} F_n(1/z) and J(1/z) = J(z), the
substitution z -> 1/z, times z^{4n-2}, maps the split onto itself with the
roles of U_m and V_m exchanged.  So ``build_abcd`` runs the Legendre
recurrence on U only and reverses each U_m to get V_m.

The split is certified by recurrence transfer, the principle behind
Petkovšek, Wilf & Zeilberger, *A = B* (1996): two sequences that satisfy one
linear recurrence and agree at two starting values agree everywhere.  When
P_m(J), U_m and V_m each satisfy (m+1) X_{m+1} = (2m+1) J X_m - m X_{m-1} for
m = 1..2n-1, so does the residual R_m = 2(n+1) z^{2n-1} P_m(J) - U_m G_n -
V_m F_n, since multiplying by a fixed G_n, F_n or z^{2n-1} commutes with the
recurrence.  Then R_n = R_{n-1} = 0, computed directly, gives R_m = 0 for
every m = 0..2n, by induction up and down.  The recurrences are checked on
the very objects the certificates name, by an integer pass that shares no
code with ``build_abcd``.  If any of these checks fails, every residual of
that degree is computed directly, so a failing certificate reports the same
residual either way.  ``check_pfd(n)`` reaches the verdict once per call, for
all 2(n+1) certificates of the degree, on the objects that call has read; no
verdict is kept across calls, so a rebuilt or tampered construction is always
judged afresh.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .certificates import Certificate, certificate, certifies
from .factorization import FactorPair, factor_pair
from .legendre import legendre_on_circle, legendre_product_expand
from .ratpoly import JOUKOWSKI, LaurentPoly, satisfies_legendre_recurrence


@lru_cache(maxsize=1)
def build_abcd(n: int) -> tuple[tuple[LaurentPoly, ...], tuple[LaurentPoly, ...]]:
    """The splitting family (U_0..U_{2n}, V_0..V_{2n}) of degree n.

    U_n = z^{n-1} and U_{n-1} = ((2n+1) z^n - z^{n-2}) / 2n; every other U_m
    follows from the Legendre recurrence (m+1) P_{m+1} + m P_{m-1} =
    (2m+1) x P_m with x -> J(z), run up to m = 2n and down to m = 0.  In
    that recurrence the neighbour P_j carries the factor max(m, j),
    whichever of the two neighbours is solved for.  The recursion
    multiplies by J(z), so members are Laurent polynomials.

    V_m = z^{2n-2} U_m(1/z) for every m.  The reversal X -> z^{2n-2} X(1/z)
    is linear and commutes with multiplication by J, as J(1/z) = J(z), so it
    carries U's recurrence onto a sequence that satisfies the same
    recurrence.  It maps U_n onto V_n = z^{n-1} and U_{n-1} onto
    V_{n-1} = ((2n+1) z^{n-2} - z^n) / 2n, and the recurrence fixes every
    member from those two, so the reversed U is V: the paper's B_k and D_k
    are the reversals of its A_k and C_k.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    u = {n: LaurentPoly.monomial(n - 1),
         n - 1: LaurentPoly({n: Fraction(2 * n + 1, 2 * n), n - 2: Fraction(-1, 2 * n)})}
    steps = [(m, m + 1) for m in range(n, 2 * n)] + [(m, m - 1) for m in range(n - 1, 0, -1)]
    for m, new in steps:
        old = 2 * m - new
        u[new] = ((2 * m + 1) * JOUKOWSKI * u[m] - max(m, old) * u[old]) * Fraction(1, max(m, new))
    family = tuple(u[m] for m in range(2 * n + 1))
    return family, tuple(p.recip().shift(2 * n - 2) for p in family)


def _direct_residual(n: int, p: LaurentPoly, u: LaurentPoly, v: LaurentPoly,
                     pair: FactorPair) -> LaurentPoly:
    # 2(n+1) z^{2n-1} P_m(J(z)) = U_m G_n + V_m F_n
    return (2 * (n + 1)) * p.shift(2 * n - 1) - (u * pair.g + v * pair.f)


def _split_residuals(n: int) -> list[LaurentPoly]:
    u, v = build_abcd(n)
    pair = factor_pair(n)
    p = [legendre_on_circle(m) for m in range(2 * n + 1)]
    # R_m = 2(n+1) z^{2n-1} P_m(J) - U_m G_n - V_m F_n satisfies the recurrence
    # when P_m(J), U_m and V_m do, so R_n = R_{n-1} = 0 carries to every m = 0..2n
    if (all(map(satisfies_legendre_recurrence, (p, u, v)))
            and not any(_direct_residual(n, p[m], u[m], v[m], pair) for m in (n, n - 1))):
        return [LaurentPoly.zero()] * (2 * n + 1)
    return [_direct_residual(n, p[m], u[m], v[m], pair) for m in range(2 * n + 1)]


def check_pfd(n: int) -> list[Certificate]:
    """Certify 2(n+1) z^{2n-1} P_m(J) = U_m G_n + V_m F_n for every m = 0..2n.

    Returns the ``pfd-plus`` lines k = 0..n, for m = n + k (A_k, B_k), then
    the ``pfd-minus`` lines k = 0..n, for m = n - k (C_k, D_k).  An
    ArithmeticError from a construction the split reads fails every line,
    with its message as the detail.
    """
    try:
        residuals = _split_residuals(n)
    except ArithmeticError as exc:
        residuals = [exc] * (2 * n + 1)
    return ([certificate("pfd-plus", n, residuals[n + k], k) for k in range(n + 1)]
            + [certificate("pfd-minus", n, residuals[n - k], k) for k in range(n + 1)])


@certifies("pfd-support")
def check_support(n: int) -> list[str]:
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
    return problems


@certifies("pfd-leading-coefficient")
def leading_coefficient_checks(n: int) -> list[str]:
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
    return problems


def _split_residues(u: LaurentPoly, v: LaurentPoly, pair: FactorPair) -> Fraction:
    """Exact value of (1/2 pi i) contour integral of u/F_n + v/G_n over the unit circle.

    u and v may carry a z^{-1} term; deeper negative exponents never occur
    for the family used here and are rejected.  The reduction uses only
    coefficient extraction:

      - polynomial p over F_n: sum of residues = [z^{2n-1}] p / lc(F_n),
      - c/(z F_n): 0, its poles all lie inside and deg(z F_n) >= 2 leaves no residue at infinity,
      - polynomial over G_n: 0 (all zeros outside the closed disk),
      - d/(z G_n): d / G_n(0).
    """
    n = pair.n
    for w in (u, v):
        if not w.is_zero and w.min_exp < -1:
            raise ArithmeticError("family member has exponents below z^-1")
    if not u.is_zero and u.degree > 2 * n - 1:
        raise ArithmeticError("numerator degree too large for the residue rule")
    total = u.coeff(2 * n - 1) / pair.f.coeff(2 * n)
    d = v.coeff(-1)
    if d:
        total += d / pair.g.coeff(0)
    return total


@lru_cache(maxsize=1)
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
def check_moments(n: int) -> list[str]:
    """Certify moments_table(n)[k] == 2 delta_{k0} for every k = 0..2n."""
    bad = [k for k, m in enumerate(moments_table(n))
           if m != (2 if k == 0 else 0)]
    return [f"unexpected moments at k={bad}"] if bad else []


def orthogonality_exact(n: int, i: int, j: int) -> Fraction:
    """Exact arcsine/Christoffel inner product of P_i* and P_j*, which is delta_ij.

    Sums the Adams coefficients a_k of P_i P_j against the nonzero exact
    moments and scales by sqrt((2i+1)(2j+1))/2.  Only the k of the Adams
    support, |i - j| <= k <= i + j with i + j - k even, are read: every
    other a_k is zero.  Every moment with k >= 1 vanishes, so only
    2 a_0 = 2 delta_ij/(2i+1) survives: the sum is zero (i != j) or the
    square root is exact (i == j).  A nonzero sum times an irrational root
    raises ArithmeticError.
    """
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("indices must satisfy 0 <= i, j <= n")
    moments = moments_table(n)
    expansion = legendre_product_expand(i, j)
    s = sum(expansion[k] * moments[k] for k in range(abs(i - j), i + j + 1, 2) if moments[k])
    if not s:
        return Fraction(0)
    square = (2 * i + 1) * (2 * j + 1)
    root = math.isqrt(square)
    if root * root != square:
        raise ArithmeticError("irrational inner product; expansion radical did not cancel")
    return s * Fraction(root, 2)


@certifies("weighted-orthogonality")
def check_orthogonality(n: int) -> list[str]:
    """Certify the full (n+1) x (n+1) exact Gram matrix is the identity.

    By Adams' formula the coefficient a_k of P_i P_j is nonzero exactly when
    |i - j| <= k <= i + j and i + j - k is even.  A pair (i, j) whose
    support holds no nonzero moment therefore has the inner product 0, which
    is what the identity asks of every i != j, so only the diagonal pairs
    and the pairs whose support meets a nonzero moment are computed.  For
    the moments 2 delta_{k0} that leaves the n + 1 diagonal pairs.  As the
    support asks j - i <= k, j runs only up to i plus the largest nonzero
    k, so a table with few nonzero moments visits O(n) pairs.
    """
    nonzero = [k for k, m in enumerate(moments_table(n)) if m]
    reach = max(nonzero, default=0)
    bad = []
    for i in range(n + 1):
        for j in range(i, min(n, i + reach) + 1):
            if i == j or any(j - i <= k <= i + j and (i + j - k) % 2 == 0 for k in nonzero):
                if orthogonality_exact(n, i, j) != (1 if i == j else 0):
                    bad.append((i, j))
    return [f"unexpected inner products at {bad}"] if bad else []
