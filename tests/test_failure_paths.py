"""Failure paths: a tampered exact construction yields failing certificates, not exceptions."""

import json

import pytest

from ortholeg import christoffel, factorization, partial_fractions
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
