"""Command-line surface.

Subcommands tie the exact verification ledger and the sampling application
together with machine-readable outputs.  All flags are long-form; re-running
a command with identical flags produces byte-identical artifacts (seeded,
counter-based randomness and deterministic serialization throughout).

Exit codes: 0 when every emitted certificate passes, 1 when any check fails
(an exact construction that fails its own check included, and a fit whose
sample misses the stability event), 2 for invalid configuration or an
--output that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import factorization, partial_fractions, quadrature_verify, sampling_ls
from .ledger import identity_ledger, ledger_lines

DEFAULT_TOL = 1e-10
DEFAULT_SEED = 0
# Caps on the exact runs, whose cost grows about as n^5 for the ledger, and on
# the numeric and sampling runs, whose memory grows with the quadrature grid,
# the sample and the count x (n+1) design matrix of gram and fit.  Each capped
# run takes about a minute or less and under about 1 GB.
MAX_N_MAX = 100
MAX_N_EXACT = 250
MAX_N_NUMERIC = 800
MAX_COUNT = 10**6
MAX_DESIGN = 2 * 10**7


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ortholeg",
        description="Verify the arcsine/Christoffel weighted orthogonality of "
                    "Legendre polynomials and run the optimal-stability "
                    "sampling application.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("json", "text")):
        p.add_argument("--output", default=None, help="write the artifact to this path")
        p.add_argument("--format", default="json", choices=formats)

    with_csv = ("json", "csv", "text")

    p = sub.add_parser("verify-identities", help="run the exact certificate ledger")
    p.add_argument("--n-max", type=int, required=True)
    add_common(p)

    p = sub.add_parser("verify-theorem", help="numeric Gram matrix of the weighted inner products")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_common(p, with_csv)

    p = sub.add_parser("factor", help="spectral factor coefficients and certificates")
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("roots", help="certified roots of the spectral factor")
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("moments", help="exact unit-circle moments")
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("gram", help="empirical Gram matrix of an arcsine sample")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common(p, with_csv)

    p = sub.add_parser("sample", help="draw a reproducible arcsine sample")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common(p, with_csv)

    p = sub.add_parser("fit", help="Christoffel-weighted least-squares fit of exp(x)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common(p, with_csv)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"could not write --output: {exc.strerror or exc}") from exc


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _cmd_verify_identities(args) -> tuple[str, bool]:
    certs = identity_ledger(args.n_max)
    ok = all(c.passed for c in certs)
    if args.format == "text":
        failed = [c for c in certs if not c.passed]
        text = (f"{len(certs)} certificates, "
                f"{len(certs) - len(failed)} passed, {len(failed)} failed\n")
        for c in failed:
            text += f"FAIL {c.identity} n={c.n} k={c.k}: {c.detail}\n"
        return text, ok
    return "\n".join(ledger_lines(certs)) + "\n", ok


def _cmd_verify_theorem(args) -> tuple[str, bool]:
    report = quadrature_verify.orthogonality_numeric(args.n, tol=args.tol)
    deviation = max(report.max_offdiag, report.max_diag_dev)
    ok = report.converged and deviation < args.tol
    if args.format == "csv":
        return quadrature_verify.gram_to_csv(report.gram), ok
    if args.format == "text":
        return (f"n={report.n} points={report.points_used} "
                f"max deviation={deviation:.3e} status={'pass' if ok else 'fail'}\n"), ok
    payload = report.to_json()
    payload["status"] = "pass" if ok else "fail"
    return _json_text(payload), ok


def _cmd_factor(args) -> tuple[str, bool]:
    pair = factorization.factor_pair(args.n)
    certs = [
        factorization.check_fn_constructions(args.n),
        factorization.check_reversal(args.n),
        factorization.check_fejer_riesz(args.n),
    ]
    ok = all(c.passed for c in certs)
    payload = {
        "n": args.n,
        "f": {str(e): str(c) for e, c in pair.f.terms()},
        "g": {str(e): str(c) for e, c in pair.g.terms()},
        "certificates": [c.to_json() for c in certs],
    }
    if args.format == "text":
        return f"F_{args.n} has {len(payload['f'])} terms; checks {'pass' if ok else 'fail'}\n", ok
    return _json_text(payload), ok


def _cmd_roots(args) -> tuple[str, bool]:
    report = factorization.fn_roots(args.n)
    ok = (all(r.converged for r in report.roots)
          and report.max_modulus < 1.0
          and report.min_separation > 1e-8)
    if args.format == "text":
        return (f"n={report.n} roots={len(report.roots)} "
                f"max modulus={report.max_modulus:.6f} "
                f"min separation={report.min_separation:.3e} "
                f"status={'pass' if ok else 'fail'}\n"), ok
    payload = report.to_json()
    payload["status"] = "pass" if ok else "fail"
    return _json_text(payload), ok


def _cmd_moments(args) -> tuple[str, bool]:
    table = partial_fractions.moments_table(args.n)
    others = sorted({str(m) for m in table[1:]})
    ok = table[0] == 2 and others == ["0"]
    payload = {
        "n": args.n,
        "k0": str(table[0]),
        "others": others[0] if len(others) == 1 else others,
        "status": "pass" if ok else "fail",
    }
    if args.format == "text":
        return f"n={args.n} k0={payload['k0']} others={payload['others']} status={payload['status']}\n", ok
    return _json_text(payload), ok


def _cmd_gram(args) -> tuple[str, bool]:
    batch = sampling_ls.sample_arcsine(args.count, args.seed)
    gram = sampling_ls.empirical_gram(args.n, batch)
    deviation = float(np.max(np.abs(np.linalg.eigvalsh(gram) - 1.0)))
    if args.format == "csv":
        return quadrature_verify.gram_to_csv(gram), True
    if args.format == "text":
        return f"n={args.n} count={args.count} seed={args.seed} deviation={deviation:.6f}\n", True
    payload = {
        "n": args.n,
        "count": args.count,
        "seed": args.seed,
        "generator_name": batch.generator_name,
        "gram": gram.tolist(),
        "deviation": deviation,
        "trace": float(np.trace(gram)),
    }
    return _json_text(payload), True


def _cmd_sample(args) -> tuple[str, bool]:
    batch = sampling_ls.sample_arcsine(args.count, args.seed)
    if args.format == "csv":
        return sampling_ls.samples_to_csv(batch), True
    if args.format == "text":
        return f"count={batch.count} seed={batch.seed} generator={batch.generator_name}\n", True
    return _json_text(batch.to_json()), True


def _cmd_fit(args) -> tuple[str, bool]:
    batch = sampling_ls.sample_arcsine(args.count, args.seed)
    values = np.exp(batch.points)
    report = sampling_ls.fit_least_squares(args.n, batch, values)
    ok = report.stable
    if args.format == "csv":
        xs = np.linspace(-1.0, 1.0, 201)
        return sampling_ls.predictions_to_csv(xs, sampling_ls.predict(report, xs)), ok
    if args.format == "text":
        return (f"n={report.n} count={report.sample_count} seed={report.seed} "
                f"residual rms={report.residual_rms:.6e} "
                f"stable={'yes' if ok else 'no'}\n"), ok
    payload = report.to_json()
    payload["target"] = "exp(x)"
    return _json_text(payload), ok


_COMMANDS = {
    "verify-identities": _cmd_verify_identities,
    "verify-theorem": _cmd_verify_theorem,
    "factor": _cmd_factor,
    "roots": _cmd_roots,
    "moments": _cmd_moments,
    "gram": _cmd_gram,
    "sample": _cmd_sample,
    "fit": _cmd_fit,
}


def _validate(args) -> None:
    n = getattr(args, "n", None)
    if n is not None and n < 0:
        raise ValueError("--n must be non-negative")
    if args.command in ("roots", "moments") and n is not None and n < 1:
        raise ValueError("--n must be at least 1 for this command")
    n_cap = MAX_N_EXACT if args.command in ("factor", "moments") else MAX_N_NUMERIC
    if n is not None and n > n_cap:
        raise ValueError(f"--n must be at most {n_cap} for this command")
    n_max = getattr(args, "n_max", None)
    if n_max is not None and not 1 <= n_max <= MAX_N_MAX:
        raise ValueError(f"--n-max must be between 1 and {MAX_N_MAX}")
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed < 2**128:
        raise ValueError("--seed must be between 0 and 2**128 - 1")
    count = getattr(args, "count", None)
    if count is not None and not 1 <= count <= MAX_COUNT:
        raise ValueError(f"--count must be between 1 and {MAX_COUNT}")
    if n is not None and count is not None and count * (n + 1) > MAX_DESIGN:
        raise ValueError(f"--count times (--n + 1) must be at most {MAX_DESIGN}")
    if args.output is not None:
        if not args.output:
            raise ValueError("--output must not be empty")
        if os.path.isdir(args.output):
            raise ValueError(f"--output is a directory: {args.output}")
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.output))):
            raise ValueError(f"--output directory does not exist: {args.output}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        text, ok = _COMMANDS[args.command](args)
        _emit(text, args.output)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # an exact construction failed its own check outside any certificate
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
