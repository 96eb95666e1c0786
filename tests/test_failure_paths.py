"""Failure paths: a tampered exact construction yields failing certificates, not exceptions."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import ortholeg
from ortholeg import christoffel, factorization, partial_fractions
from ortholeg.certificates import certificate
from ortholeg.cli import main
from ortholeg.ledger import identity_ledger
from ortholeg.ratpoly import LaurentPoly


def _clear_caches():
    factorization.factor_pair.cache_clear()
    christoffel.kn_exact.cache_clear()
    partial_fractions.moments_table.cache_clear()


@pytest.fixture
def clean_caches():
    _clear_caches()
    yield
    _clear_caches()


@pytest.fixture
def tampered_fn(monkeypatch, clean_caches):
    original = factorization.fn_from_definition
    monkeypatch.setattr(factorization, "fn_from_definition", lambda n: 2 * original(n))


def test_tampered_factor_fails_fejer_riesz_and_reversal(tampered_fn):
    for n in (1, 3):
        fejer = factorization.check_fejer_riesz(n)
        assert fejer.status == "fail" and fejer.residual_terms > 0
        reversal = factorization.check_reversal(n)
        assert reversal.status == "fail"
        assert reversal.detail == f"F_{n}(0) has the wrong value"


def test_tampered_factor_is_reported_by_every_dependent_check(tampered_fn):
    certs = identity_ledger(2)
    failed = {c.identity for c in certs if not c.passed}
    assert {"fejer-riesz", "factor-reversal", "factor-recurrence-form", "pfd-plus",
            "pfd-minus", "pfd-leading-coefficient", "moment-values",
            "weighted-orthogonality"} <= failed
    # the Legendre identities do not involve F_n
    assert all(c.passed for c in certs if c.identity.startswith("legendre-"))


def test_tampered_factor_keeps_the_ledger_shape(tampered_fn, monkeypatch):
    tampered = [(c.identity, c.n, c.k) for c in identity_ledger(3)]
    monkeypatch.undo()
    _clear_caches()
    assert tampered == [(c.identity, c.n, c.k) for c in identity_ledger(3)]


def test_tampered_factor_exits_one(tampered_fn, tmp_path):
    out = tmp_path / "ledger.jsonl"
    assert main(["verify-identities", "--n-max", "2", "--output", str(out)]) == 1
    statuses = [json.loads(line)["status"] for line in out.read_text().splitlines()]
    assert "fail" in statuses and "pass" in statuses


@pytest.mark.parametrize("command", ["factor", "moments"])
def test_tampered_factor_fails_factor_and_moments_cleanly(command, tampered_fn, capsys):
    assert main([command, "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: F_3(0) has the wrong value\n"


@pytest.fixture
def swapped_fn(monkeypatch, clean_caches):
    # from n = 3 on, swap F_n's coefficients of z^2 and z^4: F_n stays even and
    # positive, and its reversal, F_n(0) and G_n(0) are kept, so only the strict
    # increase that bounds the roots inside the unit disk fails
    original = factorization.fn_from_definition

    def swapped(n):
        f = original(n)
        if n < 3:
            return f
        a, b = f.coeff(2), f.coeff(4)
        return f + LaurentPoly({2: b - a, 4: a - b})

    monkeypatch.setattr(factorization, "fn_from_definition", swapped)


def test_swapped_factor_coefficients_fail_the_root_radius_check(swapped_fn, tmp_path):
    for n in (3, 4):
        reversal = factorization.check_reversal(n)
        assert reversal.status == "fail"
        assert reversal.detail == f"F_{n} coefficients do not strictly increase"
    out = tmp_path / "ledger.jsonl"
    assert main(["verify-identities", "--n-max", "4", "--output", str(out)]) == 1
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(c["n"], c["status"]) for c in lines if c["identity"] == "factor-reversal"] == [
        (1, "pass"), (2, "pass"), (3, "fail"), (4, "fail")]


def test_tampered_closed_form_fails_kn_forms(monkeypatch, clean_caches):
    original = christoffel._kn_exact_closed
    monkeypatch.setattr(christoffel, "_kn_exact_closed", lambda n: original(n) + LaurentPoly.one())
    cert = christoffel.check_kn_forms(2)
    assert cert.status == "fail"
    assert cert.detail == "K_2 sum and closed forms disagree"
    assert factorization.check_fejer_riesz(2).status == "fail"


def test_tampered_christoffel_darboux_form_fails_kn_forms(monkeypatch, clean_caches):
    original = christoffel._kn_exact_cd
    monkeypatch.setattr(christoffel, "_kn_exact_cd", lambda n: 3 * original(n))
    cert = christoffel.check_kn_forms(2)
    assert cert.status == "fail" and cert.residual_terms > 0
    assert factorization.check_fejer_riesz(2).passed


# -- cancelling tampers: each identity is certified on its own residual ------


def test_opposite_tampers_of_closed_and_hypergeometric_forms_fail(monkeypatch):
    d = LaurentPoly.monomial(2)
    closed, hyper = factorization.fn_closed_coeffs, factorization.fn_hypergeometric
    monkeypatch.setattr(factorization, "fn_closed_coeffs", lambda n: closed(n) + d)
    monkeypatch.setattr(factorization, "fn_hypergeometric", lambda n: hyper(n) - d)
    for n in (1, 3):
        cert = factorization.check_fn_constructions(n)
        assert cert.status == "fail" and cert.residual_terms == 1


def test_opposite_tampers_of_f_and_g_fail_recurrence_form(monkeypatch):
    d = LaurentPoly.monomial(2)
    original = factorization.factor_pair
    monkeypatch.setattr(
        factorization, "factor_pair",
        lambda n: factorization.FactorPair(n, original(n).f + d, original(n).g - d))
    for n in (1, 3):
        cert = factorization.check_fn_gn_alt(n)
        # the F_n residual (z^2 - 1) z^2 is reported, not its cancelled sum with G_n's
        assert cert.status == "fail" and cert.residual_terms == 2


def test_residual_terms_count_nonzero_coefficients():
    cert = certificate("example", 1, LaurentPoly({4: 1, 0: -1}))
    assert cert.status == "fail" and cert.residual_terms == 2
    assert cert.detail == "nonzero residual LaurentPoly(-1 + 1*z^4)"
    cert = certificate("example", 1, LaurentPoly({0: Fraction(-1, 4), 2: Fraction(-3, 4)}))
    assert cert.status == "fail" and cert.residual_terms == 2
    assert cert.detail == "nonzero residual LaurentPoly(-1/4 + -3/4*z^2)"
    for outcome in (LaurentPoly.zero(), []):
        cert = certificate("example", 1, outcome)
        assert cert.passed and cert.residual_terms == 0 and cert.detail == ""
    cert = certificate("example", 1, ["a", "b"])
    assert cert.status == "fail" and cert.residual_terms == 0
    assert cert.detail == "a; b"


# -- every per-degree check fails cleanly when a construction it reads raises --


def _raise_tampered(*args):
    raise ArithmeticError("tampered")


@pytest.mark.parametrize("module, construction, check, identity", [
    (factorization, "fn_closed_coeffs", "check_fn_constructions", "factor-closed-coefficients"),
    (factorization, "fn_hypergeometric", "hypergeometric_check", "factor-hypergeometric"),
    (factorization, "fn_from_definition", "check_ode", "factor-ode"),
    (partial_fractions, "build_abcd", "check_support", "pfd-support"),
])
def test_raising_construction_fails_its_check(module, construction, check, identity,
                                              monkeypatch, clean_caches, capsys, tmp_path):
    monkeypatch.setattr(module, construction, _raise_tampered)
    cert = getattr(module, check)(2)
    assert (cert.identity, cert.n, cert.k) == (identity, 2, None)
    assert cert.status == "fail" and cert.detail == "tampered"
    out = tmp_path / "ledger.jsonl"
    assert main(["verify-identities", "--n-max", "2", "--output", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(c["n"], c["status"], c["detail"]) for c in lines if c["identity"] == identity] == [
        (1, "fail", "tampered"), (2, "fail", "tampered")]


# -- one identity, one place ---------------------------------------------------


def test_each_identity_is_named_once_in_the_package():
    sources = "".join(path.read_text(encoding="utf-8")
                      for path in sorted(Path(ortholeg.__file__).parent.glob("*.py")))
    identities = {c.identity for c in identity_ledger(2)}
    assert len(identities) == 18
    counts = {name: sources.count(f'"{name}"') for name in identities}
    assert counts == dict.fromkeys(identities, 1)


# -- the irrational branch of the exact Gram entries ---------------------------


def test_tampered_moments_reach_the_irrational_branch(monkeypatch):
    n = 4
    monkeypatch.setattr(partial_fractions, "moments_table",
                        lambda n: (Fraction(2),) + (Fraction(1),) * (2 * n))
    # P_0 P_4 = P_4, so the sum is the moment 1, scaled by sqrt(1 * 9)/2
    assert partial_fractions.orthogonality_exact(n, 0, 4) == Fraction(3, 2)
    # P_0 P_1 = P_1 and sqrt(1 * 3) is irrational
    with pytest.raises(ArithmeticError):
        partial_fractions.orthogonality_exact(n, 0, 1)
    cert = partial_fractions.check_orthogonality(n)
    assert cert.status == "fail" and "irrational" in cert.detail
