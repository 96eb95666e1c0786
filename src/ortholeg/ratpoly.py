"""Exact arithmetic substrate: rationals and Laurent polynomials.

Every identity certificate in this package reduces to "compute a residual
Laurent polynomial in exact rational arithmetic and assert it is identically
zero", so the substrate carries ``fractions.Fraction`` coefficients
throughout.  A ``LaurentPoly`` is one exponent-to-coefficient map and has no
floating-point evaluation.  Values are immutable after construction and all
operations are pure, so they are safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

_ZERO = Fraction(0)


class LaurentPoly:
    """Finitely supported series ``sum_e c_e z**e`` with integer exponents of
    either sign and exact rational coefficients.

    Storage is sparse: one ``{exponent: coefficient}`` map holding only the
    nonzero coefficients, in ascending exponent order, so the single-parity
    objects of this package (P_n(J), F_n, G_n, K_n, U_m, V_m) store no zeros.
    The zero polynomial is the empty map.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Fraction | int]):
        """``terms`` maps exponents to coefficients; zero coefficients are dropped."""
        terms = {e: Fraction(c) for e, c in terms.items()}
        self._terms = {e: terms[e] for e in sorted(terms) if terms[e]}

    @classmethod
    def _canonical(cls, terms: Mapping[int, Fraction]) -> "LaurentPoly":
        # the constructor for maps whose coefficients are already Fractions
        p = cls.__new__(cls)
        p._terms = {e: terms[e] for e in sorted(terms) if terms[e]}
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: Fraction | int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    # -- structure ----------------------------------------------------------

    @property
    def min_exp(self) -> int:
        """Smallest exponent with nonzero coefficient; 0 for the zero polynomial."""
        return next(iter(self._terms), 0)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Dense coefficients of z**min_exp .. z**degree (first and last nonzero), kept
        only for ``_count_mul`` in ``perfbench/tracer.py``; package code reads ``terms()``."""
        if not self._terms:
            return ()
        return tuple(self.coeff(e) for e in range(self.min_exp, self.degree + 1))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int | None:
        """Largest exponent with nonzero coefficient; None for the zero polynomial."""
        return next(reversed(self._terms), None)

    def coeff(self, exp: int) -> Fraction:
        return self._terms.get(exp, _ZERO)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """The nonzero terms ``(exponent, coefficient)`` in ascending exponent order."""
        return iter(self._terms.items())

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms.items():
            acc[e] = acc.get(e, _ZERO) + c
        return LaurentPoly._canonical(acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._canonical({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            acc: dict[int, Fraction] = {}
            for ea, a in self._terms.items():
                for eb, b in other._terms.items():
                    acc[ea + eb] = acc.get(ea + eb, _ZERO) + a * b
            return LaurentPoly._canonical(acc)
        if isinstance(other, (int, Fraction)):
            return LaurentPoly._canonical({e: c * other for e, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z**k."""
        return LaurentPoly._canonical({e + k: c for e, c in self._terms.items()})

    def diff(self) -> "LaurentPoly":
        """Exact term-by-term derivative d/dz."""
        return LaurentPoly._canonical({e - 1: c * e for e, c in self._terms.items()})

    def recip(self) -> "LaurentPoly":
        """The substitution z -> 1/z: coefficient of z**e becomes that of z**-e."""
        return LaurentPoly._canonical({-e: c for e, c in self._terms.items()})

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

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
JOUKOWSKI = LaurentPoly({1: Fraction(1, 2), -1: Fraction(1, 2)})


def substitute(outer: LaurentPoly, inner: LaurentPoly) -> LaurentPoly:
    """Exact composition outer(inner(z)) for a polynomial ``outer`` (min_exp >= 0)."""
    if outer.min_exp < 0:
        raise ValueError("negative exponents present; not a polynomial")
    result = LaurentPoly.zero()
    for e in range(outer.degree or 0, -1, -1):
        result = result * inner + LaurentPoly({0: outer.coeff(e)})
    return result
