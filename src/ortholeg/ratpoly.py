"""Exact arithmetic substrate: rationals and Laurent polynomials.

Every identity certificate in this package reduces to "compute a residual
Laurent polynomial in exact rational arithmetic and assert it is identically
zero", so the substrate carries ``fractions.Fraction`` coefficients
throughout.  Values are immutable after construction and all operations are
pure, so they are safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

# Arbitrary-precision rational with gcd-reduced numerator/denominator and
# denominator > 0 guaranteed by the constructor.
Rational = Fraction

_ZERO = Fraction(0)


class LaurentPoly:
    """Finitely supported series ``sum_e c_e z**e`` with integer exponents of
    either sign and exact rational coefficients.

    Storage is dense: ``coeffs[i]`` holds the coefficient of
    ``z**(min_exp + i)``.  Instances are kept in canonical trimmed form (first
    and last stored coefficients nonzero); the zero polynomial is the empty
    coefficient tuple with ``min_exp == 0``.
    """

    __slots__ = ("_min_exp", "_coeffs")

    def __init__(self, coeffs: Iterable[Rational | int], min_exp: int = 0):
        cs = [Fraction(c) for c in coeffs]
        lo = 0
        while lo < len(cs) and cs[lo] == 0:
            lo += 1
        hi = len(cs)
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            self._min_exp = 0
            self._coeffs: tuple[Fraction, ...] = ()
        else:
            self._min_exp = min_exp + lo
            self._coeffs = tuple(cs[lo:hi])

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(())

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, exp: int, coeff: Rational | int = 1) -> "LaurentPoly":
        return cls((coeff,), exp)

    @classmethod
    def from_pairs(cls, pairs: Mapping[int, Rational | int]) -> "LaurentPoly":
        """Build from an ``{exponent: coefficient}`` mapping."""
        if not pairs:
            return cls.zero()
        lo = min(pairs)
        hi = max(pairs)
        cs = [Fraction(pairs.get(e, 0)) for e in range(lo, hi + 1)]
        return cls(cs, lo)

    # -- structure ----------------------------------------------------------

    @property
    def min_exp(self) -> int:
        return self._min_exp

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int | None:
        """Largest exponent with nonzero coefficient; None for the zero polynomial."""
        if not self._coeffs:
            return None
        return self._min_exp + len(self._coeffs) - 1

    def coeff(self, exp: int) -> Fraction:
        i = exp - self._min_exp
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return _ZERO

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        for i, c in enumerate(self._coeffs):
            if c:
                yield self._min_exp + i, c

    def monomial_coefficients(self) -> list[Fraction]:
        """Dense coefficient list from exponent 0 upward (polynomials only)."""
        if self.is_zero:
            return []
        if self._min_exp < 0:
            raise ValueError("negative exponents present; not a polynomial")
        return [_ZERO] * self._min_exp + list(self._coeffs)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self._min_exp, other._min_exp)
        hi = max(self._min_exp + len(self._coeffs), other._min_exp + len(other._coeffs))
        cs = [_ZERO] * (hi - lo)
        for i, c in enumerate(self._coeffs):
            cs[self._min_exp - lo + i] += c
        for i, c in enumerate(other._coeffs):
            cs[other._min_exp - lo + i] += c
        return LaurentPoly(cs, lo)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple(-c for c in self._coeffs), self._min_exp)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if self.is_zero or other.is_zero:
                return LaurentPoly.zero()
            cs = [_ZERO] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if not a:
                    continue
                for j, b in enumerate(other._coeffs):
                    if b:
                        cs[i + j] += a * b
            return LaurentPoly(cs, self._min_exp + other._min_exp)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LaurentPoly.zero()
            return LaurentPoly(tuple(c * other for c in self._coeffs), self._min_exp)
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z**k."""
        if self.is_zero:
            return self
        return LaurentPoly(self._coeffs, self._min_exp + k)

    def diff(self) -> "LaurentPoly":
        """Exact term-by-term derivative d/dz."""
        cs = []
        for i, c in enumerate(self._coeffs):
            e = self._min_exp + i
            cs.append(c * e)
        return LaurentPoly(cs, self._min_exp - 1)

    def recip(self) -> "LaurentPoly":
        """The substitution z -> 1/z: coefficient of z**e becomes that of z**-e."""
        if self.is_zero:
            return self
        return LaurentPoly(tuple(reversed(self._coeffs)), -(self._min_exp + len(self._coeffs) - 1))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z):
        """Floating evaluation by Horner on the non-negative and negative parts.

        Accepts float, complex or numpy arrays; z == 0 is a domain error when
        negative exponents are present.
        """
        if self.is_zero:
            return 0.0 * z
        if self._min_exp < 0:
            mask = z == 0
            if mask is True or (hasattr(mask, "any") and mask.any()):
                raise ZeroDivisionError("evaluation at z=0 with negative exponents")
        pos = 0.0 * z
        split = max(0, -self._min_exp)
        for c in reversed(self._coeffs[split:]):
            pos = pos * z + float(c)
        # stored slice starts exactly at exponent 0 when it is non-empty, so only
        # a strictly positive min_exp needs the monomial factor
        if self._min_exp > 0:
            pos = pos * z**self._min_exp
        if not split:
            return pos
        w = 1.0 / z
        neg = 0.0 * z
        for e in range(self._min_exp, 0):
            neg = neg * w + float(self.coeff(e))
        return pos + neg * w

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._min_exp == other._min_exp and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._min_exp, self._coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{e}")
        return "LaurentPoly(" + " + ".join(parts) + ")"


#: The conformal map (z + 1/z)/2 carrying the unit circle onto [-1, 1].
JOUKOWSKI = LaurentPoly.from_pairs({1: Fraction(1, 2), -1: Fraction(1, 2)})


def substitute(outer: LaurentPoly, inner: LaurentPoly) -> LaurentPoly:
    """Exact composition outer(inner(z)) for a polynomial ``outer`` (min_exp >= 0)."""
    if outer.is_zero:
        return LaurentPoly.zero()
    cs = outer.monomial_coefficients()
    result = LaurentPoly.zero()
    for c in reversed(cs):
        result = result * inner + LaurentPoly((c,))
    return result
