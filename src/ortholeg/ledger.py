"""Assembly of the full exact-certificate ledger.

``identity_ledger`` makes one pass over the degrees n = 1..n_max.  At each
degree it certifies the five Legendre identities, then the block that
``degree_certificates`` returns: agreement of the three K_n forms, the
spectral factorization, the recurrence forms of the factors, their ODE, the
hypergeometric and closed-coefficient constructions, coefficient reversal,
the 2(n+1) partial-fraction splits, the support and leading-coefficient
facts, the exact moments, and the exact weighted orthogonality.  Like the
Legendre identities, the splits are one check of the whole degree
(``partial_fractions.check_pfd``), whose one verdict serves all its lines;
every other check makes one line.  The Legendre lines are kept in their own
list and written first, for every degree, then the blocks in degree order.
Every exact construction of degree n is so built once, while its degree is
in hand.
"""

from __future__ import annotations

from typing import Iterator

from . import christoffel, factorization, legendre, partial_fractions
from .certificates import Certificate


def degree_certificates(n: int) -> list[Certificate]:
    """Every exact certificate of degree n but the Legendre identities, in ledger order."""
    return [
        christoffel.check_kn_forms(n),
        factorization.check_fejer_riesz(n),
        factorization.check_fn_gn_alt(n),
        factorization.check_ode(n),
        factorization.hypergeometric_check(n),
        factorization.check_fn_constructions(n),
        factorization.check_reversal(n),
        *partial_fractions.check_pfd(n),
        partial_fractions.check_support(n),
        partial_fractions.leading_coefficient_checks(n),
        partial_fractions.check_moments(n),
        partial_fractions.check_orthogonality(n),
    ]


def identity_ledger(n_max: int) -> list[Certificate]:
    """Run every exact identity check for 1 <= n <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    identities, blocks = [], []
    for n in range(1, n_max + 1):
        identities += legendre.check_legendre_identities(n)
        blocks += degree_certificates(n)
    return identities + blocks


def ledger_lines(certs: list[Certificate]) -> Iterator[str]:
    import json

    for cert in certs:
        yield json.dumps(cert.to_json())
