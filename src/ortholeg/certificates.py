"""Pass/fail certificates emitted by the exact identity checks.

A failed check is data, not an exception: callers collect certificates into a
ledger and decide the exit status at the end.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .ratpoly import LaurentPoly


@dataclass(frozen=True)
class Certificate:
    identity: str
    n: int
    k: int | None = None
    status: str = "pass"
    residual_terms: int = 0
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "n": self.n,
            "k": self.k,
            "status": self.status,
            "residual_terms": self.residual_terms,
            "detail": self.detail,
        }


def residual_certificate(
    identity: str,
    n: int,
    residual: LaurentPoly,
    k: int | None = None,
    detail: str = "",
) -> Certificate:
    """Certify that an exactly computed residual is the zero polynomial."""
    if residual.is_zero:
        return Certificate(identity=identity, n=n, k=k, detail=detail)
    return Certificate(
        identity=identity,
        n=n,
        k=k,
        status="fail",
        residual_terms=len(residual.coeffs),
        detail=detail or f"nonzero residual {residual!r}",
    )


def condition_certificate(
    identity: str,
    n: int,
    ok: bool,
    k: int | None = None,
    detail: str = "",
) -> Certificate:
    """Certify a boolean condition established by exact computation."""
    return Certificate(
        identity=identity,
        n=n,
        k=k,
        status="pass" if ok else "fail",
        detail=detail,
    )


def certifies(identity: str):
    """Decorate a check ``check(n)`` or ``check(n, k)`` returning a certificate.

    An exact construction the check relies on raises ArithmeticError when it
    fails its own certification; the decorated check reports that as a
    failing certificate for ``identity`` instead of raising.
    """
    def decorate(check):
        @functools.wraps(check)
        def run(n: int, *k: int) -> Certificate:
            try:
                return check(n, *k)
            except ArithmeticError as exc:
                return Certificate(identity, n, *k, status="fail", detail=str(exc))
        return run
    return decorate
