"""Assembly of the full exact-certificate ledger.

Certificate order: first the five Legendre identities for every degree
1..n_max, then one block per degree: agreement of the three K_n forms, the
spectral factorization, the recurrence forms of the factors, their ODE, the
hypergeometric and closed-coefficient constructions, coefficient reversal,
the partial-fraction identities for every admissible index, the support and
leading-coefficient facts, the exact moments, and the exact weighted
orthogonality.
"""

from __future__ import annotations

from typing import Iterator

from . import christoffel, factorization, legendre, partial_fractions
from .certificates import Certificate


def identity_ledger(n_max: int) -> list[Certificate]:
    """Run every exact identity check for 1 <= n <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    certs = list(legendre.check_legendre_identities(n_max))
    for n in range(1, n_max + 1):
        certs.append(christoffel.check_kn_forms(n))
        certs.append(factorization.check_fejer_riesz(n))
        certs.append(factorization.check_fn_gn_alt(n))
        certs.append(factorization.check_ode(n))
        certs.append(factorization.hypergeometric_check(n))
        certs.append(factorization.check_fn_constructions(n))
        certs.append(factorization.check_reversal(n))
        for k in range(n + 1):
            certs.append(partial_fractions.check_pfd_plus(n, k))
        for k in range(n + 1):
            certs.append(partial_fractions.check_pfd_minus(n, k))
        certs.append(partial_fractions.check_support(n))
        certs.append(partial_fractions.leading_coefficient_checks(n))
        certs.append(partial_fractions.check_moments(n))
        certs.append(partial_fractions.check_orthogonality(n))
    return certs


def ledger_lines(certs: list[Certificate]) -> Iterator[str]:
    import json

    for cert in certs:
        yield json.dumps(cert.to_json())
