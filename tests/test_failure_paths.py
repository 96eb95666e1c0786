"""Failure paths: a tampered exact construction yields failing certificates, not exceptions."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import ortholeg
from ortholeg import christoffel, factorization, legendre, partial_fractions
from ortholeg.certificates import certificate
from ortholeg.cli import main
from ortholeg.ledger import identity_ledger
from ortholeg.ratpoly import LaurentPoly


def _clear_caches():
    factorization.factor_pair.cache_clear()
    christoffel.kn_exact.cache_clear()
    legendre._square_sum.cache_clear()
    legendre._cd_product.cache_clear()
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


@pytest.mark.parametrize("construction", ["build_abcd", "factor_pair"])
def test_a_failing_construction_fails_every_line_of_the_degree_block(
        construction, monkeypatch, tmp_path, capsys):
    def raises(n):
        raise ArithmeticError("tampered")

    monkeypatch.setattr(partial_fractions, construction, raises)
    certs = partial_fractions.check_pfd(2)
    assert [(c.identity, c.n, c.k) for c in certs] == (
        [("pfd-plus", 2, k) for k in range(3)] + [("pfd-minus", 2, k) for k in range(3)])
    assert all((c.status, c.detail) == ("fail", "tampered") for c in certs)
    out = tmp_path / "ledger.jsonl"
    assert main(["verify-identities", "--n-max", "2", "--output", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    pfd = [(c["status"], c["detail"]) for c in lines if c["identity"] in ("pfd-plus", "pfd-minus")]
    assert pfd == [("fail", "tampered")] * 10


def test_unpolished_roots_are_not_converged(monkeypatch, tmp_path, capsys):
    # the certification recomputes each residual, so it does not trust the polisher
    monkeypatch.setattr(factorization, "_aberth_polish", lambda coeffs, roots: roots)
    assert not any(r.converged for r in factorization.fn_roots(5).roots)
    out = tmp_path / "roots.json"
    assert main(["roots", "--n", "5", "--output", str(out)]) == 1
    assert json.loads(out.read_text())["status"] == "fail"
    assert capsys.readouterr().err == ""


def test_tampered_closed_form_fails_kn_forms(monkeypatch, clean_caches):
    original = christoffel._kn_exact_closed
    monkeypatch.setattr(christoffel, "_kn_exact_closed", lambda n: original(n) + LaurentPoly.one())
    cert = christoffel.check_kn_forms(2)
    assert cert.status == "fail"
    assert cert.detail == "K_2 sum and closed forms disagree"
    assert factorization.check_fejer_riesz(2).status == "fail"


def test_tampered_christoffel_darboux_form_fails_kn_forms(monkeypatch, clean_caches):
    original = christoffel._cd_product
    monkeypatch.setattr(christoffel, "_cd_product", lambda n: 3 * original(n))
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


def test_each_support_fact_is_reported(monkeypatch, clean_caches):
    u, v = partial_fractions.build_abcd(2)
    u = list(u)
    u[1] = u[1].shift(-1)
    u[4] = u[4] - LaurentPoly({-1: u[4].coeff(-1)})
    v = [v[0].shift(1), *v[1:]]
    monkeypatch.setattr(partial_fractions, "build_abcd", lambda n: (tuple(u), tuple(v)))
    cert = partial_fractions.check_support(2)
    assert cert.status == "fail"
    assert cert.detail == ("U_1 has negative exponents; U_4 lacks its z^-1 term; "
                           "V_0 min exponent != -1")


# -- a tampered Legendre polynomial fails each identity that reads it ----------


def _tamper_p3(monkeypatch, term):
    # P_3(J) plus ``term``; P_4 and P_5 come from their closed coefficients and
    # do not inherit the tamper
    original = legendre.legendre_on_circle
    monkeypatch.setattr(legendre, "legendre_on_circle",
                        lambda n: original(n) + term if n == 3 else original(n))


@pytest.fixture
def tampered_p3(monkeypatch, clean_caches):
    # P_3 + 1, the image of a polynomial in x
    _tamper_p3(monkeypatch, LaurentPoly.one())


@pytest.fixture
def asymmetric_p3(monkeypatch, clean_caches):
    # z is not symmetric under z -> 1/z, so P_3(J) + z is the image of no polynomial in x
    _tamper_p3(monkeypatch, LaurentPoly.monomial(1))


def test_tampered_legendre_polynomial_fails_its_identities(tampered_p3):
    # theta 1 = 0, so the derivative terms do not see the constant tamper
    failed = {(c.identity, c.n) for n in range(1, 6)
              for c in legendre.check_legendre_identities(n) if not c.passed}
    assert failed == {
        *(("legendre-christoffel-darboux", n) for n in range(2, 6)),
        *(("legendre-three-term", n) for n in range(2, 5)),
        ("legendre-three-term-derivative", 3),
        *(("legendre-derivative-relation", n) for n in range(3, 5)),
        ("legendre-derivative-difference", 3),
    }


# the degrees k of the P_k each Legendre identity of degree n reads
_READS = {
    "legendre-christoffel-darboux": lambda n: range(n + 2),
    "legendre-three-term": lambda n: (n - 1, n, n + 1),
    "legendre-three-term-derivative": lambda n: (n - 1, n, n + 1),
    "legendre-derivative-relation": lambda n: (n - 1, n),
    "legendre-derivative-difference": lambda n: (n - 1, n, n + 1),
}


def test_asymmetric_legendre_polynomial_fails_every_identity_that_reads_it(asymmetric_p3, tmp_path,
                                                                          capsys):
    failed = {(c.identity, c.n) for n in range(1, 6)
              for c in legendre.check_legendre_identities(n) if not c.passed}
    assert failed == {(identity, n) for identity, reads in _READS.items()
                      for n in range(1, 6) if 3 in reads(n)}
    assert len(failed) == 15
    out = tmp_path / "ledger.jsonl"
    assert main(["verify-identities", "--n-max", "5", "--output", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_tampered_legendre_polynomial_reaches_every_kn_form(tampered_p3):
    # the Legendre identities and K_n read one sum of (2k+1)/2 P_k^2, so the
    # tampered P_3 reaches K_n from n = 3 on, whether its caches start cold or
    # warm; they read one Christoffel-Darboux product too, and that of K_2
    # reads P_3, so the K_n forms fail from n = 2 on
    for _ in range(2):
        failed = {(c.identity, c.n) for c in identity_ledger(5)
                  if not c.passed and not c.identity.startswith("legendre-")}
        assert failed == {("christoffel-forms-agree", 2)} | {
            (identity, n) for identity in ("christoffel-forms-agree", "fejer-riesz")
            for n in range(3, 6)}


def test_tampered_legendre_polynomial_exits_one(tampered_p3, tmp_path, capsys):
    out = tmp_path / "ledger.jsonl"
    assert main(["verify-identities", "--n-max", "5", "--output", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err


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
