"""Construction and certification of the spectral factors F_n and G_n.

F_n(z) = d/dz(z^{n+1} P_n(J(z))) is a degree-2n polynomial in even powers of
z with strictly positive dyadic coefficients, and together with its reversal
G_n(z) = z^{2n} F_n(1/z) it factors the Christoffel polynomial on the circle:

    K_n(J(z)) = F_n(z) F_n(1/z) / (2(n+1)).

Four independent constructions of F_n are certified to agree exactly (the
derivative definition, the closed binomial coefficients, the terminating
hypergeometric series, and the second-order ODE it satisfies), and its 2n
roots are computed and certified to be simple and strictly inside the unit
disk, which is what makes the contour-moment bookkeeping work.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .certificates import certifies
from .christoffel import kn_exact
from .legendre import legendre_on_circle
from .ratpoly import JOUKOWSKI, LaurentPoly, substitute


def fn_from_definition(n: int) -> LaurentPoly:
    """F_n as the derivative of z^{n+1} P_n(J(z))."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    return legendre_on_circle(n).shift(n + 1).diff()


def _fn_closed_numerators(n: int) -> list[int]:
    """4^n times F_n's coefficients of z^0, z^2, ..., z^{2n}: (2k+1) C(2k,k) C(2n-2k,n-k)."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    return [(2 * k + 1) * math.comb(2 * k, k) * math.comb(2 * n - 2 * k, n - k)
            for k in range(n + 1)]


def fn_closed_coeffs(n: int) -> LaurentPoly:
    """F_n from its closed coefficients 2^{-2n} (2k+1) C(2k,k) C(2n-2k,n-k) z^{2k}."""
    numerators, scale = _fn_closed_numerators(n), 4**n
    return LaurentPoly({2 * k: Fraction(c, scale) for k, c in enumerate(numerators)})


def fn_float_coeffs(n: int) -> np.ndarray:
    """F_n's coefficients of w^0, ..., w^n (w = z^2), each correctly rounded to float.

    The numeric paths evaluate F_n and its reversal G_n from this array.  Integer
    true division rounds correctly, and no exact polynomial is built.
    """
    numerators, scale = _fn_closed_numerators(n), 4**n
    return np.array([c / scale for c in numerators])


def _hypergeometric_series(n: int) -> LaurentPoly:
    """Terminating 2F1(-n, 3/2; 1/2-n; w) as an exact polynomial in w.

    The rising factorials are accumulated exactly; (1/2 - n)_k never
    vanishes, since each of its factors 1/2 - n + j is a half-integer.
    """
    a = Fraction(-n)
    b = Fraction(3, 2)
    c = Fraction(1, 2) - n
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for k in range(n):
        term = term * (a + k) * (b + k) / ((c + k) * (k + 1))
        coeffs.append(term)
    return LaurentPoly(dict(enumerate(coeffs)))


def fn_hypergeometric(n: int) -> LaurentPoly:
    """F_n via the scaled hypergeometric series with w -> z^2."""
    scale = Fraction(math.comb(2 * n, n), 4**n)
    pairs = {2 * e: scale * c for e, c in _hypergeometric_series(n).terms()}
    return LaurentPoly(pairs)


@dataclass(frozen=True)
class FactorPair:
    """The factor F_n together with its reversal G_n = z^{2n} F_n(1/z)."""

    n: int
    f: LaurentPoly
    g: LaurentPoly

    @classmethod
    def build(cls, n: int) -> "FactorPair":
        """Build F_n and G_n, certifying G_n against the coefficient-reversal
        rule, the positivity of F_n, the strict increase of its coefficients
        c_k of w^k = z^{2k} (so every root lies strictly inside the unit
        disk), and the values F_n(0) and G_n(0)."""
        f = fn_from_definition(n)
        g = f.recip().shift(2 * n)
        reversed_rule = LaurentPoly(
            {2 * k: f.coeff(2 * (n - k)) for k in range(n + 1)}
        )
        if g != reversed_rule:
            raise ArithmeticError(f"G_{n} reversal constructions disagree")
        if any(e % 2 or c <= 0 for e, c in f.terms()):
            raise ArithmeticError(f"F_{n} is not even with positive coefficients")
        # Enestrom-Kakeya: then every root has |z|^2 <= max c_k/c_{k+1} < 1
        coeffs = [f.coeff(2 * k) for k in range(n + 1)]
        if any(a >= b for a, b in zip(coeffs, coeffs[1:])):
            raise ArithmeticError(f"F_{n} coefficients do not strictly increase")
        if f.coeff(0) != Fraction(math.comb(2 * n, n), 4**n):
            raise ArithmeticError(f"F_{n}(0) has the wrong value")
        if g.coeff(0) != (2 * n + 1) * f.coeff(0):
            raise ArithmeticError(f"G_{n}(0) != (2n+1) F_{n}(0)")
        return cls(n=n, f=f, g=g)


@lru_cache(maxsize=None)
def factor_pair(n: int) -> FactorPair:
    """``FactorPair.build(n)``, built once per degree for the exact checks."""
    return FactorPair.build(n)


@certifies("factor-closed-coefficients")
def check_fn_constructions(n: int) -> LaurentPoly:
    """Certify derivative definition == closed coefficients.

    The hypergeometric form has its own certificate, ``hypergeometric_check``.
    """
    return fn_from_definition(n) - fn_closed_coeffs(n)


@certifies("factor-hypergeometric")
def hypergeometric_check(n: int) -> LaurentPoly | list[str]:
    """Certify the hypergeometric construction, including its leading coefficient 2n+1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    hyper = fn_hypergeometric(n)
    residual = hyper - fn_from_definition(n)
    if residual:
        return residual
    # the unscaled series starts at 1, so its leading coefficient is F_n's top over F_n(0)
    leading = hyper.coeff(2 * n) / hyper.coeff(0)
    return [] if leading == 2 * n + 1 else [f"unscaled leading coefficient {leading} != {2 * n + 1}"]


@certifies("factor-reversal")
def check_reversal(n: int) -> list[str]:
    """Certify both G_n constructions and G_n(0) = (2n+1) F_n(0)."""
    pair = factor_pair(n)
    if sorted(c for _, c in pair.f.terms()) != sorted(c for _, c in pair.g.terms()):
        return ["coefficient multisets differ"]
    return []


@certifies("fejer-riesz")
def check_fejer_riesz(n: int) -> LaurentPoly:
    """Certify K_n(J(z)) = F_n(z) F_n(1/z) / (2(n+1)) exactly."""
    f = fn_from_definition(n)
    kj = substitute(kn_exact(n), JOUKOWSKI)
    return kj - Fraction(1, 2 * (n + 1)) * f * f.recip()


@certifies("factor-recurrence-form")
def check_fn_gn_alt(n: int) -> LaurentPoly:
    """Certify the recurrence forms of F_n and G_n.

    Multiplied through by (z^2 - 1) to stay polynomial:

      (z^2-1) F_n = z^n {((2n+1)z^2 - 1) P_n(J) - 2nz P_{n-1}(J)}
      (z^2-1) G_n = z^n {(z^2 - (2n+1)) P_n(J) + 2nz P_{n-1}(J)}

    Each identity has its own residual; a failure reports the first nonzero one.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    pair = factor_pair(n)
    ln = legendre_on_circle(n)
    ln1 = legendre_on_circle(n - 1)
    x2m1 = LaurentPoly({2: 1, 0: -1})
    z = LaurentPoly.monomial(1)
    rhs_f = (LaurentPoly({2: 2 * n + 1, 0: -1}) * ln - 2 * n * z * ln1).shift(n)
    rhs_g = (LaurentPoly({2: 1, 0: -(2 * n + 1)}) * ln + 2 * n * z * ln1).shift(n)
    res_f = x2m1 * pair.f - rhs_f
    res_g = x2m1 * pair.g - rhs_g
    return res_f or res_g


@certifies("factor-ode")
def check_ode(n: int) -> LaurentPoly:
    """Certify z(1-z^2) F_n'' + 2((n-2)z^2 - n) F_n' + 6nz F_n = 0.

    This is the second-order ODE satisfied by F_n, cleared of its 1/z
    coefficient to remain in polynomial arithmetic.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    f = fn_from_definition(n)
    df = f.diff()
    ddf = df.diff()
    term1 = LaurentPoly({1: 1, 3: -1}) * ddf
    term2 = LaurentPoly({2: 2 * (n - 2), 0: -2 * n}) * df
    term3 = LaurentPoly.monomial(1, 6 * n) * f
    return term1 + term2 + term3


# -- root localization -------------------------------------------------------


def fn_root_radius_bound(n: int) -> Fraction:
    """The Enestrom-Kakeya bound max_k c_k / c_{k+1} on |z|^2 over the roots of F_n.

    The c_k are F_n's coefficients of w^k, w = z^2.  A polynomial in w with
    positive coefficients has every root within |w| <= max_k c_k / c_{k+1}
    (Enestrom 1893, Kakeya 1912).  From the closed coefficients,
    c_k / c_{k+1} = (k+1)(2n-2k-1) / ((2k+3)(n-k)), whose numerator falls
    short of its denominator by n + 1, so the bound is below 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return max(Fraction((k + 1) * (2 * n - 2 * k - 1), (2 * k + 3) * (n - k))
               for k in range(n))


@dataclass(frozen=True)
class RootRecord:
    re: float
    im: float
    modulus: float
    residual: float
    converged: bool

    def to_json(self) -> dict:
        return {"re": self.re, "im": self.im, "modulus": self.modulus,
                "residual": self.residual}


@dataclass(frozen=True)
class RootReport:
    n: int
    roots: tuple[RootRecord, ...]
    max_modulus: float
    min_separation: float

    def to_json(self) -> dict:
        return {"n": self.n, "roots": [r.to_json() for r in self.roots]}


def _aberth_polish(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Simultaneous Aberth refinement of all roots of a monic polynomial.

    ``coeffs`` are monic coefficients, highest power first.  Converges to
    residuals near machine precision from ``np.roots`` starting points,
    well within the 60 sweeps allowed.
    """
    deriv = np.polyder(coeffs)
    scale = np.sum(np.abs(coeffs))
    for _ in range(60):
        values = np.polyval(coeffs, roots)
        if np.max(np.abs(values)) <= 1e-15 * scale:
            break
        newton = values / np.polyval(deriv, roots)
        diffs = roots[:, None] - roots[None, :]
        np.fill_diagonal(diffs, 1.0)
        repulsion = np.sum(1.0 / diffs, axis=1) - 1.0
        roots = roots - newton / (1.0 - newton * repulsion)
    return roots


def fn_roots(n: int) -> RootReport:
    """Compute and certify the 2n roots of F_n.

    F_n is even, so ``np.roots`` first solves the degree-n polynomial in
    w = z^2 and the w-roots are polished by simultaneous Aberth iteration;
    the z-roots are then the +- square roots, preserving the pair structure
    exactly.  Each root carries its residual |F_n(z)| against
    ``1e-10 * (n+1)`` (F_n has positive coefficients, so n + 1 = F_n(1)
    bounds it on the closed disk), and converges only when that residual is
    met and its squared modulus is within ``fn_root_radius_bound(n)``, up to
    the same relative 1e-10.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    even = fn_float_coeffs(n)[::-1]
    monic = even / even[0]
    w_roots = _aberth_polish(monic, np.roots(monic))
    zs = []
    for w in w_roots:
        s = cmath.sqrt(w)
        zs += [s, -s]
    zs = np.array(zs)
    residuals = np.abs(np.polyval(even, zs * zs))
    scale = float(n + 1)
    radius2 = float(fn_root_radius_bound(n)) * (1 + 1e-10)
    records = [
        RootRecord(re=z.real, im=z.imag, modulus=abs(z), residual=float(res),
                   converged=bool(res <= 1e-10 * scale and abs(z) ** 2 <= radius2))
        for z, res in zip(zs, residuals)
    ]
    records.sort(key=lambda r: (r.re, r.im))
    diffs = np.abs(zs[:, None] - zs[None, :])
    np.fill_diagonal(diffs, np.inf)
    return RootReport(
        n=n,
        roots=tuple(records),
        max_modulus=max(r.modulus for r in records),
        min_separation=float(diffs.min()),
    )
