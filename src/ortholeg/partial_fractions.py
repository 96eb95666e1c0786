"""Partial-fraction families and exact contour moments.

Four families of Laurent polynomials split 2(n+1) z^{2n-1} P_m(J(z)) over
the factors F_n and G_n,

    2(n+1) z^{2n-1} P_{n+k}(J) = A_k G_n + B_k F_n,      k = 0..n,
    2(n+1) z^{2n-1} P_{n-k}(J) = C_k G_n + D_k F_n,      k = 0..n,

so the unit-circle moment of P_m(J)/(F_n G_n) reduces to coefficient
extraction: residues of polynomial/F_n sum to a leading-coefficient ratio,
anything/G_n integrates to zero (all G_n zeros outside the closed disk), and
the z^{-1} pieces contribute residues at the origin.  No numerical
integration and no evaluation at the (irrational) roots is ever needed, so
the weighted orthogonality of the full basis is certified in exact rational
arithmetic: the moment is 2 for P_0 and 0 for every 1 <= m <= 2n, hence the
inner product of P_i* and P_j* under the arcsine/Christoffel weight is
exactly the Kronecker delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .certificates import Certificate, certifies, condition_certificate, residual_certificate
from .factorization import FactorPair, factor_pair
from .legendre import legendre_on_circle, legendre_product_expand
from .ratpoly import JOUKOWSKI, LaurentPoly


@dataclass(frozen=True)
class AbcdFamily:
    """The splitting families, indexed A/B by k = 0..k_max and C/D by k = 0..n."""

    n: int
    a: tuple[LaurentPoly, ...]
    b: tuple[LaurentPoly, ...]
    c: tuple[LaurentPoly, ...]
    d: tuple[LaurentPoly, ...]


def build_abcd(n: int, k_max: int | None = None) -> AbcdFamily:
    """Build all four families by their three-term recursions.

    A_0 = B_0 = C_0 = D_0 = z^{n-1}; the recursions multiply by J(z), so the
    members are Laurent polynomials in general.  C/D use the descending
    recursion valid for 1 <= k <= n-1 and therefore stop at k = n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k_max is None:
        k_max = n
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    base = LaurentPoly.monomial(n - 1)
    a = [base, LaurentPoly.monomial(n - 2)]
    b = [base, LaurentPoly.monomial(n)]
    for k in range(1, k_max):
        factor = Fraction(1, n + k + 1)
        a.append(((2 * (n + k) + 1) * JOUKOWSKI * a[k] - (n + k) * a[k - 1]) * factor)
        b.append(((2 * (n + k) + 1) * JOUKOWSKI * b[k] - (n + k) * b[k - 1]) * factor)
    c = [base, LaurentPoly.from_pairs({n: Fraction(2 * n + 1, 2 * n), n - 2: Fraction(-1, 2 * n)})]
    d = [base, LaurentPoly.from_pairs({n - 2: Fraction(2 * n + 1, 2 * n), n: Fraction(-1, 2 * n)})]
    for k in range(1, n):
        factor = Fraction(1, n - k)
        c.append(((2 * (n - k) + 1) * JOUKOWSKI * c[k] - (n - k + 1) * c[k - 1]) * factor)
        d.append(((2 * (n - k) + 1) * JOUKOWSKI * d[k] - (n - k + 1) * d[k - 1]) * factor)
    return AbcdFamily(n=n, a=tuple(a), b=tuple(b), c=tuple(c), d=tuple(d))


@lru_cache(maxsize=None)
def _family(n: int) -> AbcdFamily:
    return build_abcd(n)


def _pfd_target(n: int, m: int) -> LaurentPoly:
    # 2(n+1) z^{2n-1} P_m(J(z))
    return (2 * (n + 1)) * legendre_on_circle(m).shift(2 * n - 1)


@certifies("pfd-plus")
def check_pfd_plus(n: int, k: int) -> Certificate:
    """Certify 2(n+1) z^{2n-1} P_{n+k}(J) = A_k G_n + B_k F_n exactly."""
    if k < 0:
        raise ValueError("k must be non-negative")
    fam = build_abcd(n, k_max=max(k, 1)) if k > n else _family(n)
    pair = factor_pair(n)
    residual = _pfd_target(n, n + k) - (fam.a[k] * pair.g + fam.b[k] * pair.f)
    return residual_certificate("pfd-plus", n, residual, k=k)


@certifies("pfd-minus")
def check_pfd_minus(n: int, k: int) -> Certificate:
    """Certify 2(n+1) z^{2n-1} P_{n-k}(J) = C_k G_n + D_k F_n exactly."""
    if not 0 <= k <= n:
        raise ValueError("k must satisfy 0 <= k <= n")
    fam = _family(n)
    pair = factor_pair(n)
    residual = _pfd_target(n, n - k) - (fam.c[k] * pair.g + fam.d[k] * pair.f)
    return residual_certificate("pfd-minus", n, residual, k=k)


@dataclass(frozen=True)
class SupportReport:
    """Computed exponent supports (min_exp, degree) per family member."""

    n: int
    a: tuple[tuple[int, int], ...]
    b: tuple[tuple[int, int], ...]
    c: tuple[tuple[int, int], ...]
    d: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "a": [list(s) for s in self.a],
            "b": [list(s) for s in self.b],
            "c": [list(s) for s in self.c],
            "d": [list(s) for s in self.d],
        }


def laurent_support_report(n: int) -> SupportReport:
    """Record the exact supports of every family member up to index n.

    Supports are computed from the recursion output, never assumed from
    closed-form bounds.
    """
    fam = _family(n)
    def spans(ps):
        return tuple((p.min_exp, p.degree) for p in ps)
    return SupportReport(n=n, a=spans(fam.a), b=spans(fam.b), c=spans(fam.c), d=spans(fam.d))


def check_support(n: int) -> Certificate:
    """Certify the support facts the moment computation relies on.

    B_k stays a genuine polynomial for every k <= n, A_n carries a z^{-1}
    term, and C_n, D_n have minimal exponent exactly -1.
    """
    fam = _family(n)
    problems = []
    for k, p in enumerate(fam.b):
        if p.min_exp < 0:
            problems.append(f"B_{k} has negative exponents")
    if fam.a[n].coeff(-1) == 0:
        problems.append("A_n lacks its z^-1 term")
    if fam.c[n].min_exp != -1:
        problems.append("C_n min exponent != -1")
    if fam.d[n].min_exp != -1:
        problems.append("D_n min exponent != -1")
    for k in range(n):
        for name, p in (("A", fam.a[k]), ("C", fam.c[k]), ("D", fam.d[k])):
            if k >= 1 and p.min_exp < 0:
                problems.append(f"{name}_{k} has negative exponents")
    return condition_certificate("pfd-support", n, not problems, detail="; ".join(problems))


@certifies("pfd-leading-coefficient")
def leading_coefficient_checks(n: int) -> Certificate:
    """Certify the two coefficient identities behind the k = 0 moment.

    (i) the z^{2n-1} coefficient of C_n equals the leading coefficient of
    F_n, and (ii) the z^{-1} coefficient of D_n equals G_n(0).  B_n has no
    z^{-1} term at all, so the family carrying (ii) is D, adjudicated here
    exactly; its value is recorded against B as well.
    """
    fam = _family(n)
    pair = factor_pair(n)
    lc_f = pair.f.coeff(2 * n)
    problems = []
    if fam.c[n].coeff(2 * n - 1) != lc_f:
        problems.append(f"top coefficient of C_n is {fam.c[n].coeff(2 * n - 1)}, expected {lc_f}")
    if fam.d[n].coeff(-1) != pair.g.coeff(0):
        problems.append(f"z^-1 coefficient of D_n is {fam.d[n].coeff(-1)}, expected {pair.g.coeff(0)}")
    if fam.b[n].coeff(-1) != 0:
        problems.append("B_n unexpectedly carries a z^-1 term")
    return condition_certificate("pfd-leading-coefficient", n, not problems, detail="; ".join(problems))


def _split_residues(u: LaurentPoly, v: LaurentPoly, pair: FactorPair) -> Fraction:
    """Exact value of (1/2 pi i) contour integral of u/F_n + v/G_n over the unit circle.

    u and v may carry a z^{-1} term; deeper negative exponents never occur
    for the families used here and are rejected.  The reduction uses only
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
        shifted = (pair.f - LaurentPoly((pair.f.coeff(0),))).shift(-1)
        total += (c / pair.f.coeff(0)) * (1 - shifted.coeff(2 * n - 1) / lc_f)
    d = v.coeff(-1)
    if d:
        total += d / pair.g.coeff(0)
    return total


def moment_exact(n: int, k: int) -> Fraction:
    """Exact unit-circle moment (1/2 pi i) of 2(n+1) z^{2n-1} P_k(J) / (F_n G_n).

    Evaluates to 2 for k = 0 and 0 for 1 <= k <= 2n, entirely in rational
    arithmetic via the partial-fraction split and residue reduction rules.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= k <= 2 * n:
        raise ValueError("k must satisfy 0 <= k <= 2n")
    fam = _family(n)
    pair = factor_pair(n)
    if k >= n:
        u, v = fam.a[k - n], fam.b[k - n]
    else:
        u, v = fam.c[n - k], fam.d[n - k]
    return _split_residues(u, v, pair)


@lru_cache(maxsize=None)
def moments_table(n: int) -> tuple[Fraction, ...]:
    """All moments k = 0..2n for a given n."""
    return tuple(moment_exact(n, k) for k in range(2 * n + 1))


@certifies("moment-values")
def check_moments(n: int) -> Certificate:
    """Certify moment_exact(n, k) == 2 delta_{k0} for every admissible k."""
    bad = [k for k, m in enumerate(moments_table(n))
           if m != (2 if k == 0 else 0)]
    return condition_certificate(
        "moment-values", n, not bad,
        detail="" if not bad else f"unexpected moments at k={bad}",
    )


def orthogonality_exact(n: int, i: int, j: int) -> Fraction:
    """Exact arcsine/Christoffel inner product of P_i* and P_j*, which is delta_ij.

    Expands P_i* P_j* in the Legendre basis and sums the exact moments; every
    moment with k >= 1 vanishes, so only 2 a_0 survives and the carried
    radical is always a perfect square (i == j) or multiplies zero (i != j).
    """
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("indices must satisfy 0 <= i, j <= n")
    expansion = legendre_product_expand(i, j)
    moments = moments_table(n)
    s = sum((r * moments[k] for k, r in enumerate(expansion.coefficients) if r),
            start=Fraction(0))
    if s == 0:
        return Fraction(0)
    if expansion.radicand != 1:
        raise ArithmeticError("irrational inner product; expansion radical did not cancel")
    return s


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
