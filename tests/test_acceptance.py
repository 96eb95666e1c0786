"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time

import numpy as np

from ortholeg.christoffel import _pstar_kn, q_basis_all
from ortholeg.cli import main as cli_main
from ortholeg.factorization import (
    fn_closed_coeffs,
    fn_from_definition,
    fn_hypergeometric,
    fn_roots,
)
from ortholeg.ledger import identity_ledger
from ortholeg.partial_fractions import moments_table, orthogonality_exact
from ortholeg.quadrature_verify import contour_moment_numeric, orthogonality_numeric
from ortholeg.sampling_ls import empirical_gram, fit_least_squares, sample_arcsine


def _report(criterion: str, ok: bool) -> None:
    print(f"acceptance [{criterion}]: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_exact_identity_ledger():
    start = time.monotonic()
    certs = identity_ledger(25)
    elapsed = time.monotonic() - start
    failed = [c for c in certs if not c.passed]
    expected = {
        "legendre-christoffel-darboux", "legendre-three-term",
        "legendre-three-term-derivative", "legendre-derivative-relation",
        "legendre-derivative-difference", "christoffel-forms-agree",
        "fejer-riesz", "factor-recurrence-form", "factor-ode",
        "factor-hypergeometric", "factor-closed-coefficients",
        "factor-reversal", "pfd-plus", "pfd-minus", "pfd-support",
        "pfd-leading-coefficient",
    }
    covered = expected.issubset({c.identity for c in certs})
    all_k = all(
        {c.k for c in certs if c.identity == f"pfd-{sign}" and c.n == n} == set(range(n + 1))
        for sign in ("plus", "minus") for n in (1, 13, 25)
    )
    _report(
        "1 exact identity ledger, n <= 25, under 5 minutes",
        not failed and covered and all_k and elapsed < 300.0,
    )


def test_criterion_2_exact_theorem():
    moments_ok = all(
        list(moments_table(n)) == [2] + [0] * (2 * n)
        for n in range(1, 21)
    )
    gram_ok = all(
        orthogonality_exact(n, i, j) == (1 if i == j else 0)
        for n in range(1, 16)
        for i in range(n + 1)
        for j in range(n + 1)
    )
    _report("2 exact orthogonality and moments", moments_ok and gram_ok)


def test_criterion_3_numeric_theorem():
    gram_ok = True
    for n in range(21):
        report = orthogonality_numeric(n, tol=1e-10)
        deviation = max(report.max_offdiag, report.max_diag_dev)
        usable = [h for h in report.refinement_history if h > 1e-13]
        geometric = all(
            b / a < 0.5 for a, b in zip(usable, usable[1:]) if a < 1e-3
        )
        gram_ok = gram_ok and report.converged and deviation < 1e-10 and geometric
    contour_ok = True
    for n in range(1, 9):
        for k in range(2 * n + 1):
            numeric = contour_moment_numeric(n, k)
            exact = float(moments_table(n)[k])
            contour_ok = contour_ok and abs(numeric.real - exact) < 1e-10
            contour_ok = contour_ok and abs(numeric.imag) < 1e-10
    _report("3 numeric orthogonality and contour moments", gram_ok and contour_ok)


def test_criterion_4_factor_structure():
    triple_ok = all(
        fn_from_definition(n) == fn_closed_coeffs(n) == fn_hypergeometric(n)
        for n in range(21)
    )
    roots_ok = True
    for n in range(1, 21):
        report = fn_roots(n)
        roots_ok = roots_ok and len(report.roots) == 2 * n
        roots_ok = roots_ok and report.max_modulus < 1.0
        roots_ok = roots_ok and report.min_separation > 1e-8
        roots_ok = roots_ok and all(r.residual < 1e-10 for r in report.roots)
    # frozen oracle values: 1 + 3z^2 has roots +-i/sqrt(3); for n = 2 the
    # quartic gives z^2 = (-1 +- 2i)/5, hence modulus 5^(-1/4)
    r1 = fn_roots(1)
    frozen_ok = (
        sorted((round(r.re, 12), round(r.im, 12)) for r in r1.roots)
        == sorted([(0.0, round(1 / math.sqrt(3), 12)), (0.0, round(-1 / math.sqrt(3), 12))])
    )
    for r in fn_roots(2).roots:
        frozen_ok = frozen_ok and abs(r.modulus - 5 ** (-0.25)) < 1e-12
    _report("4 factor constructions and certified roots", triple_ok and roots_ok and frozen_ok)


def test_criterion_5_stability_factor():
    xs = np.random.default_rng(20260811).uniform(-1, 1, size=1000)
    ok = True
    for n in range(51):
        q = q_basis_all(n, xs)
        total = np.sum(q * q, axis=0)
        ok = ok and np.max(np.abs(total - (n + 1))) <= 1e-9 * (n + 1)
    _report("5 pointwise stability factor n + 1", ok)


def test_criterion_6_sampling_application():
    n = 10
    seeds = range(20)
    devs = []
    for count in (500, 2000, 8000):
        devs.append(np.mean([
            np.linalg.norm(empirical_gram(n, sample_arcsine(count, s)) - np.eye(n + 1), 2)
            for s in seeds
        ]))
    scaling_ok = (
        devs[0] > devs[1] > devs[2]
        and 1.0 <= devs[0] / devs[1] <= 4.0
        and 1.0 <= devs[1] / devs[2] <= 4.0
    )
    batch = sample_arcsine(2000, 0)
    pstar = _pstar_kn(n, batch.points)[0]
    target = np.linspace(-1.0, 1.0, n + 1)
    report = fit_least_squares(n, batch, target @ pstar)
    recovery_ok = np.max(np.abs(report.coefficients - target)) < 1e-10
    _report("6 sampling application scaling and recovery", scaling_ok and recovery_ok)


def test_criterion_7_cli_determinism(tmp_path):
    commands = [
        ("verify-identities", "--n-max", "3"),
        ("verify-theorem", "--n", "5"),
        ("factor", "--n", "4"),
        ("roots", "--n", "4"),
        ("moments", "--n", "3"),
        ("gram", "--n", "3", "--count", "200", "--seed", "11"),
        ("sample", "--count", "50", "--seed", "7"),
        ("fit", "--n", "3", "--count", "100", "--seed", "5"),
        ("gram", "--n", "3", "--count", "200", "--seed", "11", "--format", "csv"),
        ("sample", "--count", "50", "--seed", "7", "--format", "csv"),
    ]
    ok = True
    for idx, argv in enumerate(commands):
        first = tmp_path / f"{idx}_first.out"
        second = tmp_path / f"{idx}_second.out"
        ok = ok and cli_main([*argv, "--output", str(first)]) == 0
        ok = ok and cli_main([*argv, "--output", str(second)]) == 0
        ok = ok and first.read_bytes() == second.read_bytes()
    _report("7 byte-identical CLI artifacts", ok)
