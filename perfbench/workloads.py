"""The three benchmark workloads: seeded inputs, one operation, and its oracle.

Every workload is a list of operation specs made from the seed alone, a
function that runs one spec through the public ortholeg API, and a check that
returns ``None`` for a correct result or a one-line description of what is
wrong.  Operations reach ortholeg through module attributes at call time
(``quadrature_verify.orthogonality_numeric``, never a name imported into this
file), so the tracer's wrappers see every call.

Inputs are stratified: each operation's degree comes from its own slice of
the degree range, so every seed asks for about the same amount of work and
run-to-run spread measures the machine rather than the draw.

Importing this module needs ``src`` of the checkout on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from pathlib import Path

import numpy as np

from ortholeg import christoffel, cli, factorization, quadrature_verify, sampling_ls

# ledger: one cold `verify-identities --n-max N`; its cost grows about as N^5.
LEDGER_N_MAX = 20
# SHA-256 of the `verify-identities --n-max N` artifact at the commit that
# defined this benchmark (N = 4 is the size the benchmark's tests use).  The
# artifact is deterministic, so any change of a byte is a failed operation.
LEDGER_SHA256 = {
    4: "0a720a8c00eb5c6f57c0a721c6b4580a23f97c9c6c305246e98d4c5d8453c0dc",
    20: "056b38af5ad4e4e99cb80127255878382491218e50c8be011e60342725398346",
}

# numeric: the acceptance tolerance of the floating-point verification.
NUMERIC_OPS = 100
NUMERIC_DEGREES = (20, 200)
NUMERIC_TOL = 1e-10

# fit: the oversampling factor c in count = ceil(c (n+1) ln(n+1)) cycles over
# these values, so every run mixes fits inside and outside the stability event.
FIT_OPS = 200
FIT_DEGREES = (10, 160)
FIT_OVERSAMPLING = (3.0, 6.0, 12.0)
FIT_GRID = np.linspace(-1.0, 1.0, 401)

# Irrational steps for _spread: the fractional parts of the golden ratio, sqrt(2), sqrt(3).
_GOLDEN = (math.sqrt(5) - 1) / 2
_SILVER = math.sqrt(2) - 1
_BRONZE = math.sqrt(3) - 1


def _spread(rng: random.Random, count: int, step: float) -> list[float]:
    """u_t = (t * step + jitter) mod 1 for t < count, with jitter in [0, 1/count).

    With step = 1/count this puts one value in each of count equal slices of
    [0, 1).  An irrational step pairs the slices of two coordinates the same
    way on every seed, so the mix of operation costs does not depend on the
    seed while the values themselves do.
    """
    return [(t * step + rng.random() / count) % 1.0 for t in range(count)]


def _scale(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) onto the integers lo..hi."""
    return lo + int(u * (hi - lo + 1))


# -- ledger --------------------------------------------------------------------


def ledger_inputs(seed: int, out_dir: Path, n_max: int = LEDGER_N_MAX) -> list[tuple]:
    """A single operation; the ledger has no random input, so the seed is unused."""
    return [(n_max, str(out_dir / f"ledger-{os.getpid()}.jsonl"))]


def ledger_op(spec: tuple) -> tuple[int, bytes]:
    n_max, path = spec
    code = cli.main(["verify-identities", "--n-max", str(n_max), "--output", path])
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        data = b""
    else:
        os.remove(path)
    return code, data


def ledger_check(spec: tuple, result: tuple[int, bytes]) -> str | None:
    n_max = spec[0]
    code, data = result
    if code != 0:
        return f"exit code {code}"
    lines = data.splitlines()
    if not lines:
        return "empty ledger"
    for number, line in enumerate(lines, 1):
        try:
            status = json.loads(line)["status"]
        except (ValueError, KeyError, TypeError):
            return f"line {number} is not a certificate record"
        if status != "pass":
            return f"line {number} has status {status!r}"
    digest = hashlib.sha256(data).hexdigest()
    if digest != LEDGER_SHA256.get(n_max):
        return f"artifact sha256 {digest} differs from the pinned digest for n_max={n_max}"
    return None


# -- numeric -------------------------------------------------------------------


def numeric_inputs(seed: int, out_dir: Path, count: int = NUMERIC_OPS,
                   degrees: tuple[int, int] = NUMERIC_DEGREES) -> list[tuple]:
    """Specs (n, k, i, j): a degree, a contour moment index and a Gram entry.

    The degree is stratified and k, i and j are spread over their ranges.
    Every fifth moment index is 0 and every second entry is diagonal, so the
    oracle sees both 2 delta_k0 and delta_ij on every seed.
    """
    rng = random.Random(seed)
    columns = (_spread(rng, count, step) for step in (1 / count, _GOLDEN, _SILVER, _BRONZE))
    specs = []
    for t, (un, uk, ui, uj) in enumerate(zip(*columns)):
        n = _scale(un, *degrees)
        k = 0 if t % 5 == 0 else _scale(uk, 1, 2 * n)
        i = _scale(ui, 0, n)
        j = i if t % 2 == 0 else _scale(uj, 0, n)
        specs.append((n, k, i, j))
    rng.shuffle(specs)
    return specs


def numeric_op(spec: tuple) -> tuple:
    n, k, i, j = spec
    return (
        quadrature_verify.orthogonality_numeric(n, tol=NUMERIC_TOL),
        factorization.fn_roots(n),
        quadrature_verify.contour_moment_numeric(n, k),
        quadrature_verify.interval_form_numeric(n, i, j),
    )


def numeric_check(spec: tuple, result: tuple) -> str | None:
    n, k, i, j = spec
    ortho, roots, moment, interval = result
    gram = np.asarray(ortho.gram, dtype=float)
    if gram.shape != (n + 1, n + 1):
        return f"gram shape {gram.shape}"
    deviation = float(np.max(np.abs(gram - np.eye(n + 1))))
    if not ortho.converged or not deviation < NUMERIC_TOL:
        return f"gram deviation {deviation:.3e}, converged={ortho.converged}"
    zs = np.array([complex(r.re, r.im) for r in roots.roots])
    if len(zs) != 2 * n or not all(r.converged for r in roots.roots):
        return "roots missing or unconverged"
    if not float(np.max(np.abs(zs))) < 1.0:
        return f"root modulus {float(np.max(np.abs(zs)))!r} is not below 1"
    gaps = np.abs(zs[:, None] - zs[None, :])
    np.fill_diagonal(gaps, np.inf)
    if not float(gaps.min()) > 1e-8:
        return f"root separation {float(gaps.min()):.3e}"
    expected = 2.0 if k == 0 else 0.0
    if not (abs(moment.real - expected) < NUMERIC_TOL and abs(moment.imag) < NUMERIC_TOL):
        return f"contour moment k={k} is {moment!r}"
    expected = 1.0 if i == j else 0.0
    if not abs(interval - expected) < NUMERIC_TOL:
        return f"interval form ({i}, {j}) is {interval!r}"
    return None


# -- fit -----------------------------------------------------------------------


def fit_inputs(seed: int, out_dir: Path) -> list[tuple]:
    """Specs (n, sample count, sample seed), with n stratified."""
    rng = random.Random(seed)
    specs = []
    for t, u in enumerate(_spread(rng, FIT_OPS, 1 / FIT_OPS)):
        n = _scale(u, *FIT_DEGREES)
        c = FIT_OVERSAMPLING[t % len(FIT_OVERSAMPLING)]
        specs.append((n, math.ceil(c * (n + 1) * math.log(n + 1)), rng.getrandbits(32)))
    rng.shuffle(specs)
    return specs


def fit_op(spec: tuple) -> tuple:
    n, count, sample_seed = spec
    batch = sampling_ls.sample_arcsine(count, sample_seed)
    report = sampling_ls.fit_least_squares(n, batch, np.exp(batch.points))
    return batch, report, sampling_ls.predict(report, FIT_GRID)


def fit_check(spec: tuple, result: tuple) -> str | None:
    """Checks that hold for any correct fit; the fit's accuracy is not gated.

    A rank-deficient design raises inside the operation, so reaching this
    check means the fit had full rank.
    """
    n, count, _ = spec
    batch, report, predictions = result
    coefficients = np.asarray(report.coefficients, dtype=float)
    if coefficients.shape != (n + 1,) or not np.all(np.isfinite(coefficients)):
        return "coefficients are not n + 1 finite numbers"
    predictions = np.asarray(predictions, dtype=float)
    if predictions.shape != FIT_GRID.shape or not np.all(np.isfinite(predictions)):
        return "predictions are not finite on the grid"
    points = np.asarray(batch.points, dtype=float)
    if points.shape != (count,):
        return f"{points.shape} samples, expected {count}"
    q = christoffel.q_basis_all(n, points)
    error = float(np.max(np.abs(np.sum(q * q, axis=0) - (n + 1))))
    if not error <= 1e-9 * (n + 1):
        return f"sum of Q_j^2 deviates from n + 1 by {error:.3e}"
    return None


WORKLOADS = {
    "ledger": (ledger_inputs, ledger_op, ledger_check),
    "numeric": (numeric_inputs, numeric_op, numeric_check),
    "fit": (fit_inputs, fit_op, fit_check),
}
