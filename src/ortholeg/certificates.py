"""Pass/fail certificates emitted by the exact identity checks.

A check is a function of the degree ``n`` that returns its outcome: an
exact ``LaurentPoly`` residual, which passes when it is the zero polynomial,
or a list of problems, which passes when it is empty.  ``certificate`` turns
an outcome into a ledger line, and ``certifies`` names the identity a check
certifies.  A check of a whole degree block calls ``certificate`` once per
line.  A failed check is data, not an exception: callers collect
certificates into a ledger and decide the exit status at the end.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .ratpoly import LaurentPoly

# an ArithmeticError stands for the failure of an exact construction the check reads
Outcome = LaurentPoly | list[str] | ArithmeticError


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


def certificate(
    identity: str,
    n: int,
    outcome: Outcome,
    k: int | None = None,
) -> Certificate:
    """Certify that a residual is the zero polynomial, or that no problem was found.

    An ArithmeticError fails the certificate with its message as the detail.
    """
    if isinstance(outcome, ArithmeticError):
        outcome = [str(outcome)]
    if not outcome:
        return Certificate(identity, n, k)
    if isinstance(outcome, LaurentPoly):
        return Certificate(identity, n, k, status="fail",
                           residual_terms=sum(1 for _ in outcome.terms()),
                           detail=f"nonzero residual {outcome!r}")
    return Certificate(identity, n, k, status="fail", detail="; ".join(outcome))


def certifies(identity: str) -> Callable[[Callable[..., Outcome]], Callable[..., Certificate]]:
    """Decorate a check ``check(n)`` so it returns the certificate of
    ``identity`` for the residual or the problem list the check returns.

    An exact construction the check relies on raises ArithmeticError when it
    fails its own certification; the decorated check reports that as a
    failing certificate whose detail is the error message, instead of raising.
    """
    def decorate(check):
        @functools.wraps(check)
        def run(n: int) -> Certificate:
            try:
                outcome = check(n)
            except ArithmeticError as exc:
                outcome = exc
            return certificate(identity, n, outcome)
        return run
    return decorate
