"""Exact arithmetic substrate: Laurent polynomials with rational coefficients.

Every identity certificate in this package reduces to "compute a residual
Laurent polynomial in exact rational arithmetic and assert it is identically
zero".  A ``LaurentPoly`` stores integer numerators over one common
denominator, so every ring operation is integer arithmetic, and a product of
two polynomials is one big-integer multiply by Kronecker substitution
(Schönhage, EUROCAM 1982; Harvey, J. Symbolic Comput. 2009).  Short
operands take a shorter path: when one operand has at most two terms
(J(z) = (z + 1/z)/2, S(z) = (z - 1/z)/2, z, a monomial), packing both would
cost more than the product, so the other operand's numerators are multiplied
term by term instead.  The operand's length picks the path; no caller
chooses it.
``satisfies_legendre_recurrence`` checks the three-term recurrence of a
sequence with J(z) in one integer pass per member, with no product at all.
Coefficients are read back as ``fractions.Fraction``.  There is no
floating-point evaluation.  Values are immutable after construction and all
operations are pure, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Sequence


class LaurentPoly:
    """Finitely supported series ``sum_e c_e z**e`` with integer exponents of
    either sign and exact rational coefficients.

    Storage is sparse: one ``{exponent: numerator}`` map of nonzero integers
    in ascending exponent order, over one positive common denominator, so
    ``c_e = numerator_e / denominator``.  The single-parity objects of this
    package (P_n(J), F_n, G_n, K_n, U_m, V_m) store no zeros.  The pair is
    kept reduced (the denominator and all numerators have gcd 1), so ``==``
    and ``hash`` compare storage.  The zero polynomial is the empty map over 1.

    When one operand has at most two terms, ``a * b`` adds one scaled shift of
    the other operand per term.  Otherwise it packs each operand into one
    integer, one slot per exponent step g, where g is the gcd of every
    exponent gap of both operands.  A slot holds ``w`` bits, where ``w`` is
    the bit length of ``min(len a, len b) * max|a| * max|b|`` plus 2, rounded
    up to whole bytes.  No coefficient of the product reaches ``2**(w - 2)``,
    so the one integer product holds each coefficient in its own slot, and
    adding half a slot to every slot makes each one read back as an unsigned
    integer.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[int, Fraction | int]):
        """``terms`` maps exponents to coefficients; zero coefficients are dropped."""
        coeffs = {e: Fraction(c) for e, c in terms.items() if c}
        # the lcm of reduced denominators leaves the numerators without a common factor
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self._num = {e: coeffs[e].numerator * (den // coeffs[e].denominator)
                     for e in sorted(coeffs)}
        self._den = den

    @classmethod
    def _new(cls, num: dict[int, int], den: int) -> "LaurentPoly":
        # ``num`` holds nonzero integers in ascending exponent order; the pair is reduced
        p = cls.__new__(cls)
        p._num = num
        p._den = den
        return p

    @classmethod
    def _reduced(cls, num: dict[int, int], den: int) -> "LaurentPoly":
        # as ``_new``, dividing out the gcd of the denominator and the numerators
        g = math.gcd(den, *num.values())
        if g > 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        return cls._new(num, den)

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
        return next(iter(self._num), 0)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Dense coefficients of z**min_exp .. z**degree (first and last nonzero), kept
        only for ``_count_mul`` in ``perfbench/tracer.py``; package code reads ``terms()``."""
        if not self._num:
            return ()
        return tuple(self.coeff(e) for e in range(self.min_exp, self.degree + 1))

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def degree(self) -> int | None:
        """Largest exponent with nonzero coefficient; None for the zero polynomial."""
        return next(reversed(self._num), None)

    def coeff(self, exp: int) -> Fraction:
        return Fraction(self._num.get(exp, 0), self._den)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """The nonzero terms ``(exponent, coefficient)`` in ascending exponent order."""
        den = self._den
        return ((e, Fraction(c, den)) for e, c in self._num.items())

    # -- ring operations ----------------------------------------------------

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        den = math.lcm(self._den, other._den)
        scale, other_scale = den // self._den, sign * (den // other._den)
        acc = {e: c * scale for e, c in self._num.items()}
        for e, c in other._num.items():
            acc[e] = acc.get(e, 0) + c * other_scale
        return LaurentPoly._reduced({e: acc[e] for e in sorted(acc) if acc[e]}, den)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._new({e: -c for e, c in self._num.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            a, b = self._num, other._num
            if len(a) < len(b):
                a, b = b, a
            num = _term_by_term(a, b) if len(b) <= _SHORT else _kronecker(a, b)
            return LaurentPoly._reduced(num, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            top = other.numerator
            num = {e: c * top for e, c in self._num.items()} if top else {}
            return LaurentPoly._reduced(num, self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z**k."""
        return LaurentPoly._new({e + k: c for e, c in self._num.items()}, self._den)

    def diff(self) -> "LaurentPoly":
        """Exact term-by-term derivative d/dz."""
        return LaurentPoly._reduced({e - 1: c * e for e, c in self._num.items() if e}, self._den)

    def recip(self) -> "LaurentPoly":
        """The substitution z -> 1/z: coefficient of z**e becomes that of z**-e."""
        return LaurentPoly._new({-e: self._num[e] for e in reversed(self._num)}, self._den)

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, tuple(self._num.items())))

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


#: Operands of at most this many terms are multiplied term by term.
_SHORT = 2


def _term_by_term(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The numerators of the product of two numerator maps, one row of ``a`` per term of ``b``."""
    if not b:
        return {}
    (e, c), *rest = b.items()
    acc = {x + e: y * c for x, y in a.items()}
    if not rest:
        return acc
    for e, c in rest:
        for x, y in a.items():
            acc[x + e] = acc.get(x + e, 0) + y * c
    return {x: acc[x] for x in sorted(acc) if acc[x]}


def _half_slots(count: int, width: int) -> int:
    """Half a slot, 2**(8 width - 1), in each of ``count`` slots of ``width`` bytes."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * count, "little")


def _pack(num: dict[int, int], low: int, step: int, width: int) -> tuple[int, int]:
    """(sum_k c_k 2**(8 width k), slot count) for the coefficients c_k of z**(low + step k)."""
    half = 1 << (8 * width - 1)
    slots = [half] * ((next(reversed(num)) - low) // step + 1)
    for e, c in num.items():
        slots[(e - low) // step] = c + half
    raw = b"".join([c.to_bytes(width, "little") for c in slots])
    return int.from_bytes(raw, "little") - _half_slots(len(slots), width), len(slots)


def _kronecker(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The numerators of the product of two numerator maps, by one integer multiply.

    A square ``p * p`` packs its one operand once: CPython squares an integer
    about twice as fast as it multiplies two different ones.
    """
    if not a or not b:
        return {}
    low_a, low_b = next(iter(a)), next(iter(b))
    step = math.gcd(*[e - low_a for e in a], *[e - low_b for e in b]) or 1
    bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
    width = (bound.bit_length() + 2 + 7) // 8
    packed_a, count_a = _pack(a, low_a, step, width)
    packed_b, count_b = (packed_a, count_a) if b is a else _pack(b, low_b, step, width)
    count = count_a + count_b - 1
    size = count * width
    raw = (packed_a * packed_b + _half_slots(count, width)).to_bytes(size, "little")
    half, low = 1 << (8 * width - 1), low_a + low_b
    slots = [int.from_bytes(raw[i:i + width], "little") for i in range(0, size, width)]
    return {low + step * k: c - half for k, c in enumerate(slots) if c != half}


#: The conformal map (z + 1/z)/2 carrying the unit circle onto [-1, 1].
JOUKOWSKI = LaurentPoly({1: Fraction(1, 2), -1: Fraction(1, 2)})


def satisfies_legendre_recurrence(members: Sequence[LaurentPoly]) -> bool:
    """Whether (m+1) X_{m+1} = (2m+1) J X_m - m X_{m-1} for m = 1 .. len(members) - 2.

    J is ``JOUKOWSKI``.  Each m is one pass over integer numerators: J X_m is
    the shift-add (X_m z + X_m / z)/2, and the three denominators are cleared
    by their lcm, so no product of polynomials is formed.
    """
    for m in range(1, len(members) - 1):
        low, mid, high = members[m - 1], members[m], members[m + 1]
        den = math.lcm(low._den, mid._den, high._den)
        up, across, down = (2 * (m + 1) * (den // high._den), (2 * m + 1) * (den // mid._den),
                            2 * m * (den // low._den))
        acc = {e: up * c for e, c in high._num.items()}
        for e, c in low._num.items():
            acc[e] = acc.get(e, 0) + down * c
        for e, c in mid._num.items():
            c *= across
            acc[e + 1] = acc.get(e + 1, 0) - c
            acc[e - 1] = acc.get(e - 1, 0) - c
        if any(acc.values()):
            return False
    return True
