"""Construction and certification of the spectral factors F_n and G_n.

F_n(z) = d/dz(z^{n+1} P_n(J(z))) is a degree-2n polynomial in even powers of
z with strictly positive dyadic coefficients, and together with its reversal
G_n(z) = z^{2n} F_n(1/z) it factors the Christoffel polynomial on the circle:

    K_n(J(z)) = F_n(z) F_n(1/z) / (2(n+1)).

Four independent constructions of F_n are certified to agree exactly (the
derivative definition, the closed binomial coefficients, the terminating
hypergeometric series, and the second-order ODE it satisfies), and its 2n
roots are computed and certified to be simple and strictly inside the unit
disk, which is what makes the contour-moment bookkeeping work.  F_n has
real coefficients, so its roots are closed under conjugation: the Aberth
sweeps that find them move one root of each conjugate pair, repelled by the
others and their conjugates, and the set is completed by conjugation, so
conjugate roots are conjugate to the bit.  The sweeps evaluate F_n and its
derivative by baby-step giant-step (Paterson-Stockmeyer); the residual that
certifies each root is taken by Horner's rule, apart from the sweeps, once
per distinct z^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .certificates import certifies
from .christoffel import kn_exact
from .legendre import legendre_on_circle
from .ratpoly import LaurentPoly


def fn_from_definition(n: int) -> LaurentPoly:
    """F_n as the derivative of z^{n+1} P_n(J(z))."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    return legendre_on_circle(n).shift(n + 1).diff()


def _fn_closed_numerators(n: int) -> list[int]:
    """4^n times F_n's coefficients of z^0, z^2, ..., z^{2n}: (2k+1) C(2k,k) C(2n-2k,n-k).

    The central binomials come from the exact recurrence
    C(2k+2, k+1) = C(2k, k) 2(2k+1) / (k+1), whose division leaves no remainder.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    central = [1]
    for k in range(n):
        central.append(central[-1] * 2 * (2 * k + 1) // (k + 1))
    return [(2 * k + 1) * central[k] * central[n - k] for k in range(n + 1)]


def fn_closed_coeffs(n: int) -> LaurentPoly:
    """F_n from its closed coefficients 2^{-2n} (2k+1) C(2k,k) C(2n-2k,n-k) z^{2k}."""
    numerators, scale = _fn_closed_numerators(n), 4**n
    return LaurentPoly({2 * k: Fraction(c, scale) for k, c in enumerate(numerators)})


def fn_float_coeffs(n: int) -> np.ndarray:
    """F_n's coefficients of w^0, ..., w^n (w = z^2), each correctly rounded to float.

    The numeric paths evaluate F_n from this array.  Integer true division
    rounds correctly, and no exact polynomial is built.
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


@lru_cache(maxsize=1)
def factor_pair(n: int) -> FactorPair:
    """``FactorPair.build(n)``, kept for the degree the exact checks have in hand."""
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
    """Certify K_n(J(z)) = F_n(z) F_n(1/z) / (2(n+1)) exactly.

    ``kn_exact`` builds K_n on the circle, as K_n(J(z)), so the two sides
    are compared as they stand, with no change of variable.
    """
    f = fn_from_definition(n)
    return kn_exact(n) - Fraction(1, 2 * (n + 1)) * f * f.recip()


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
    short of its denominator by n + 1, so the bound is below 1.  Each ratio
    is 1 - (n+1)/g(k) with g(k) = (2k+3)(n-k), a concave parabola in k with
    its vertex at (2n-3)/4, so the largest ratio sits at one of the two
    integers beside the vertex, clipped to 0..n-1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    vertex = (2 * n - 3) // 4
    g = max((2 * k + 3) * (n - k) for k in (max(vertex, 0), min(vertex + 1, n - 1)))
    return 1 - Fraction(n + 1, g)


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


def _paterson_stockmeyer(coeffs: np.ndarray):
    """The evaluator ``w -> (p(w), p'(w))`` of a real polynomial, by baby-step giant-step.

    ``coeffs`` are the coefficients of p, highest power first.  Paterson and
    Stockmeyer (SIAM J. Comput., 1973): the coefficients of p and p' are cut
    once into blocks of b = ceil(sqrt(n + 1)).  At each call the powers
    w^0, ..., w^{b-1} come by repeated multiplication, every block of both
    polynomials at every point from one matrix product, and then Horner's
    rule runs in w^b over the blocks, carrying p and p' together: about
    3 sqrt(n) numpy calls, where ``np.polyval`` makes n + 1 for each of p
    and p'.
    """
    low = np.asarray(coeffs, dtype=float)[::-1]
    degree = len(low) - 1
    b = math.isqrt(degree) + 1  # ceil(sqrt(degree + 1))
    blocks = -(-(degree + 1) // b)
    table = np.zeros((2, blocks * b))
    table[0, : degree + 1] = low
    table[1, :degree] = low[1:] * np.arange(1, degree + 1)
    # row 2j + 0 holds block j of p, row 2j + 1 block j of p'
    table = table.reshape(2, blocks, b).transpose(1, 0, 2).reshape(2 * blocks, b)

    def evaluate(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        powers = np.empty((b, len(w)), dtype=complex)
        powers[0] = 1.0
        np.cumprod(np.broadcast_to(w, (b - 1, len(w))), axis=0, out=powers[1:])
        giant = powers[-1] * w
        # the table is real, so one real product takes the real and imaginary parts
        parts = (table @ powers.view(float)).view(complex).reshape(blocks, 2, len(w))
        both = parts[-1]
        for part in parts[-2::-1]:
            both *= giant
            both += part
        return both[0], both[1]

    return evaluate


def _aberth_polish(coeffs: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Simultaneous Aberth refinement of the roots of a real monic polynomial, by conjugate halves.

    ``coeffs`` are real monic coefficients, highest power first, of degree
    n.  The roots of a real polynomial are closed under conjugation, so
    ``half`` holds one start of each conjugate pair, n // 2 of them, and for
    an odd n the start of the one real root last, with an imaginary part of
    exactly 0: ceil(n / 2) distinct points.  The other half of the roots is
    their conjugates, so each root is repelled by the other half-roots and
    by the conjugates of all of them but the real root, whose conjugate is
    itself.  Each sweep evaluates the polynomial and its derivative at the
    half-roots by ``_paterson_stockmeyer`` and moves each by its Aberth
    correction, then sets the real root's imaginary part to exactly 0; the
    sweeps stop when the values are near machine precision or the largest
    correction is at most 4e-16, a few ulps of a root inside the unit disk,
    and after at most 60 sweeps.  Returns the polished half.  The residual
    that certifies the roots is not taken here: ``fn_roots`` takes it by
    Horner's rule, so a fault in the sweeps' evaluator cannot certify its
    own roots.
    """
    evaluate = _paterson_stockmeyer(coeffs)
    scale = np.sum(np.abs(coeffs))
    pairs = (len(coeffs) - 1) // 2
    roots = half
    for _ in range(60):
        values, slopes = evaluate(roots)
        if np.max(np.abs(values)) <= 1e-15 * scale:
            break
        newton = values / slopes
        diffs = roots[:, None] - roots[None, :]
        np.fill_diagonal(diffs, 1.0)
        repulsion = (np.sum(1.0 / diffs, axis=1) - 1.0
                     + np.sum(1.0 / (roots[:, None] - roots[None, :pairs].conj()), axis=1))
        correction = newton / (1.0 - newton * repulsion)
        roots = roots - correction
        roots[pairs:] = roots[pairs:].real
        if np.max(np.abs(correction)) <= 4e-16:
            break
    return roots


def fn_roots(n: int) -> RootReport:
    """Compute and certify the 2n roots of F_n.

    F_n is even, so simultaneous Aberth iteration solves the degree-n
    polynomial in w = z^2, with no eigensolve.  Its coefficients are real,
    so its w-roots come in conjugate pairs, and the iteration runs on one
    half (``_aberth_polish``): it starts from the ceil(n/2) points at angles
    2 pi (k + 1/2) / n, k < ceil(n/2), with Im >= 0, on the
    circle of radius |c_0 / c_n|^{1/n}, the geometric mean of the w-root
    moduli by Vieta; for an odd n the last angle is pi, and that start is
    exactly -radius, the start of the real root.  The other w-roots are the
    conjugates of the n // 2 non-real ones, and the z-roots are the +- square
    roots, preserving the pair structure exactly: conjugate z-roots are
    conjugate to the bit.  A conjugate pair that had to split onto the real
    axis would miss its residual and not converge.

    Each root carries its residual |F_n(z)|, taken by ``np.polyval`` and not
    by the sweeps' evaluator, against ``1e-10 * (n+1)`` (F_n has positive
    coefficients, so n + 1 = F_n(1) bounds it on the closed disk), and
    converges only when that residual is met and its squared modulus is
    within ``fn_root_radius_bound(n)``, up to the same relative 1e-10.  The
    residual is evaluated once per distinct z^2, at s * s for the square
    root s of each polished w-root: (-s)^2 = s^2 to the bit, and with real
    coefficients Horner's rule at conj(s)^2 = conj(s^2) gives the conjugate
    value, so each of the four z-roots of a pair takes the same residual as
    its own evaluation would.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    even = fn_float_coeffs(n)[::-1]
    monic = even / even[0]
    radius = abs(monic[-1]) ** (1.0 / n)
    pairs = n // 2
    start = radius * np.exp(2j * np.pi * (np.arange(n - pairs) + 0.5) / n)
    start[pairs:] = -radius
    half = np.sqrt(_aberth_polish(monic, start))
    s = np.concatenate((half, half[:pairs].conj()))
    zs = np.column_stack((s, -s)).ravel()
    residual = np.abs(np.polyval(even, half * half))
    residuals = np.repeat(np.concatenate((residual, residual[:pairs])), 2)  # in the order of zs
    order = np.lexsort((zs.imag, np.round(zs.real, 12)))  # ties conjugates: -im first
    zs, residuals = zs[order], residuals[order]
    modulus = np.hypot(zs.real, zs.imag)  # Python's abs(complex), to the bit
    converged = (residuals <= 1e-10 * (n + 1)) & (
        modulus**2 <= float(fn_root_radius_bound(n)) * (1 + 1e-10))
    records = map(RootRecord, zs.real.tolist(), zs.imag.tolist(), modulus.tolist(),
                  residuals.tolist(), converged.tolist())
    # the z-roots are exactly +-s, so their distances are |s_k - s_l| and |s_k + s_l|;
    # the rows of the conjugated s repeat those of half to the bit, since negating
    # an imaginary part commutes with the difference and abs is symmetric
    apart = np.abs(half[:, None] - s[None, :])
    np.fill_diagonal(apart, np.inf)  # the first ceil(n/2) columns only
    across = np.abs(half[:, None] + s[None, :])
    return RootReport(
        n=n,
        roots=tuple(records),
        max_modulus=float(modulus.max()),
        min_separation=float(min(apart.min(), across.min())),
    )
