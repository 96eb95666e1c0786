"""Weighted orthogonality of Legendre polynomials under the arcsine measure
divided by the normalized Christoffel function: exact rational certification,
floating-point verification, the explicit spectral factorization behind it,
and the optimal-stability sampling application it enables.
"""

from .factorization import fn_roots
from .ledger import identity_ledger
from .partial_fractions import moments_table, orthogonality_exact
from .quadrature_verify import orthogonality_numeric
from .sampling_ls import fit_least_squares, predict, sample_arcsine

__version__ = "1.0.0"

__all__ = [
    "fit_least_squares",
    "fn_roots",
    "identity_ledger",
    "moments_table",
    "orthogonality_exact",
    "orthogonality_numeric",
    "predict",
    "sample_arcsine",
]
