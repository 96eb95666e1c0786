"""Command-line surface: dispatch, exit codes, artifacts, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ortholeg import cli
from ortholeg.cli import main

# SHA-256 of exact (pure Fraction) artifacts, pinned so that refactors of the
# exact layers are checked against fixed bytes rather than against a rerun.
GOLDEN_SHA256 = {
    ("verify-identities", "--n-max", "10"):
        "02aff678184cfd2aebed9083261fffe2ebb38831a0ffe6e35e335f64b69659db",
    ("verify-identities", "--n-max", "25"):
        "dca2fdac554f4a42e1ccc0e793262f8c3d5b691ee38be535a8d7ec0925eaa876",
    ("factor", "--n", "6"):
        "2b129188d6ac0b2ef8648455a19c1e4e8174892c841a8068a3b236d578c2ca27",
    ("moments", "--n", "8"):
        "979ef1fd2b60ac66b38dc42caddfcb9aa34be3738ac6663309151006ec6b4320",
}


def run(tmp_path, *argv):
    out = tmp_path / "artifact.out"
    code = main([*argv, "--output", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_verify_identities_ledger(tmp_path):
    code, text = run(tmp_path, "verify-identities", "--n-max", "3")
    assert code == 0
    lines = [json.loads(line) for line in text.strip().splitlines()]
    assert all(entry["status"] == "pass" for entry in lines)
    identities = {entry["identity"] for entry in lines}
    assert "legendre-christoffel-darboux" in identities
    assert "fejer-riesz" in identities
    assert "pfd-plus" in identities
    assert "weighted-orthogonality" in identities
    assert {e["k"] for e in lines if e["identity"] == "pfd-minus" and e["n"] == 3} == {0, 1, 2, 3}


def test_verify_theorem(tmp_path):
    code, text = run(tmp_path, "verify-theorem", "--n", "10", "--tol", "1e-10")
    assert code == 0
    payload = json.loads(text)
    assert payload["status"] == "pass"
    assert payload["max_offdiag"] < 1e-10
    assert payload["max_diag_dev"] < 1e-10
    assert len(payload["gram"]) == 11


def test_moments_payload(tmp_path):
    code, text = run(tmp_path, "moments", "--n", "1")
    assert code == 0
    payload = json.loads(text)
    assert payload["k0"] == "2"
    assert payload["others"] == "0"


def test_factor_payload(tmp_path):
    code, text = run(tmp_path, "factor", "--n", "2")
    assert code == 0
    payload = json.loads(text)
    assert payload["f"] == {"0": "3/8", "2": "3/4", "4": "15/8"}
    assert payload["g"] == {"0": "15/8", "2": "3/4", "4": "3/8"}
    assert all(c["status"] == "pass" for c in payload["certificates"])


def test_roots_payload(tmp_path):
    code, text = run(tmp_path, "roots", "--n", "4")
    assert code == 0
    payload = json.loads(text)
    assert payload["status"] == "pass"
    assert len(payload["roots"]) == 8
    assert all(r["modulus"] < 1 for r in payload["roots"])


def test_gram_csv(tmp_path):
    code, text = run(tmp_path, "gram", "--n", "2", "--count", "100", "--seed", "5", "--format", "csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "g0,g1,g2"
    assert len(lines) == 4


def test_sample_csv_and_json(tmp_path):
    code, text = run(tmp_path, "sample", "--count", "5", "--seed", "3", "--format", "csv")
    assert code == 0
    assert text.startswith("x\n")
    code, text = run(tmp_path, "sample", "--count", "5", "--seed", "3")
    payload = json.loads(text)
    assert payload["count"] == 5 and len(payload["points"]) == 5


def test_fit_json(tmp_path):
    code, text = run(tmp_path, "fit", "--n", "4", "--count", "200", "--seed", "1")
    assert code == 0
    payload = json.loads(text)
    assert payload["target"] == "exp(x)"
    assert len(payload["coefficients"]) == 5
    assert payload["residual_rms"] >= 0


def test_fit_reports_stability(tmp_path):
    code, text = run(tmp_path, "fit", "--n", "4", "--count", "200", "--seed", "1")
    assert code == 0
    payload = json.loads(text)
    assert payload["stable"] is (payload["gram_deviation"] <= 0.5)
    code, text = run(tmp_path, "fit", "--n", "4", "--count", "200", "--seed", "1", "--format", "text")
    assert code == 0
    assert text.rstrip("\n").endswith(" stable=" + ("yes" if payload["stable"] else "no"))


def test_stable_fit_exits_zero(tmp_path):
    for fmt in ("json", "csv", "text"):
        code, text = run(tmp_path, "fit", "--n", "10", "--count", "1000", "--seed", "7",
                         "--format", fmt)
        assert code == 0 and text
    code, text = run(tmp_path, "fit", "--n", "10", "--count", "1000", "--seed", "7")
    assert json.loads(text)["stable"] is True


def test_unstable_fit_exits_one(tmp_path):
    # 12 samples for 5 coefficients: ||G - I||_2 = 0.853 > 1/2, still full rank
    code, text = run(tmp_path, "fit", "--n", "4", "--count", "12", "--seed", "0")
    assert code == 1
    payload = json.loads(text)
    assert payload["stable"] is False and payload["gram_deviation"] > 0.5
    for fmt in ("csv", "text"):
        code, text = run(tmp_path, "fit", "--n", "4", "--count", "12", "--seed", "0",
                         "--format", fmt)
        assert code == 1 and text
    assert text.rstrip("\n").endswith(" stable=no")


def test_gram_deviation_is_spectral_norm(tmp_path):
    code, text = run(tmp_path, "gram", "--n", "10", "--count", "2000", "--seed", "42")
    assert code == 0
    payload = json.loads(text)
    gram = np.array(payload["gram"])
    assert abs(payload["deviation"] - np.linalg.norm(gram - np.eye(11), 2)) < 1e-12


def test_import_does_not_load_scipy():
    # scipy is installed but unused: importing it would cost every command
    # start-up time and resident memory
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ortholeg, ortholeg.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_invalid_configuration_exits_two(tmp_path):
    assert main(["moments", "--n", "0"]) == 2
    assert main(["verify-identities", "--n-max", "0"]) == 2
    assert main(["sample", "--count", "0"]) == 2
    assert main(["verify-theorem", "--n", "2", "--tol", "-1"]) == 2


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_exits_two(tol, capsys):
    assert main(["verify-theorem", "--n", "2", f"--tol={tol}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_output_into_missing_directory_exits_two(tmp_path, capsys, monkeypatch):
    def must_not_run(n_max):
        raise AssertionError("the ledger ran before the output path was checked")

    monkeypatch.setattr(cli, "identity_ledger", must_not_run)
    target = tmp_path / "missing" / "ledger.jsonl"
    assert main(["verify-identities", "--n-max", "2", "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.parent.exists()
    assert main(["verify-identities", "--n-max", "2", "--output", str(tmp_path)]) == 2


def test_empty_output_exits_two_before_running(capsys, monkeypatch):
    def must_not_run(n_max):
        raise AssertionError("the ledger ran before the output path was checked")

    monkeypatch.setattr(cli, "identity_ledger", must_not_run)
    assert main(["verify-identities", "--n-max", "2", "--output", ""]) == 2
    err = capsys.readouterr().err
    assert err == "error: --output must not be empty\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-identities", "--n-max", str(cli.MAX_N_MAX + 1)),
        ("factor", "--n", "251"),
        ("moments", "--n", "251"),
    ],
)
def test_exact_run_over_cap_exits_two(argv, capsys, monkeypatch):
    _assert_rejected_before_running(argv, str(int(argv[-1]) - 1), capsys, monkeypatch)


@pytest.mark.parametrize(
    "argv, cap",
    [
        (("roots", "--n", "801"), "800"),
        (("verify-theorem", "--n", "801"), "800"),
        (("gram", "--n", "801", "--count", "10"), "800"),
        (("fit", "--n", "801", "--count", "10"), "800"),
        (("gram", "--n", "1", "--count", "1000001"), "1000000"),
        (("sample", "--count", "1000001"), "1000000"),
        (("fit", "--n", "1", "--count", "1000001"), "1000000"),
        (("gram", "--n", "20", "--count", "952381"), "20000000"),
        (("fit", "--n", "20", "--count", "952381"), "20000000"),
    ],
)
def test_numeric_run_over_cap_exits_two(argv, cap, capsys, monkeypatch):
    _assert_rejected_before_running(argv, cap, capsys, monkeypatch)


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
@pytest.mark.parametrize(
    "argv",
    [
        ("gram", "--n", "2", "--count", "10"),
        ("sample", "--count", "3"),
        ("fit", "--n", "2", "--count", "10"),
    ],
)
def test_out_of_range_seed_exits_two(argv, seed, capsys, monkeypatch):
    _assert_rejected_before_running((*argv, "--seed", seed), "--seed", capsys, monkeypatch)


def test_seed_range_ends_are_accepted(capsys):
    for seed in ("0", str(2**128 - 1)):
        assert main(["sample", "--count", "1", "--seed", seed, "--format", "text"]) == 0
        assert capsys.readouterr().out.startswith(f"count=1 seed={seed} ")


def test_unwritable_output_exits_two_after_the_run(tmp_path, capsys):
    # a 300-character file name exceeds the file-system name limit, even for root
    target = tmp_path / ("a" * 300)
    assert main(["sample", "--count", "2", "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--output" in err and "Traceback" not in err


def _assert_rejected_before_running(argv, cap, capsys, monkeypatch):
    def must_not_run(args):
        raise AssertionError("the command ran past its cap")

    monkeypatch.setitem(cli._COMMANDS, argv[0], must_not_run)
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert cap in err


def test_factor_text_counts_nonzero_terms(capsys):
    assert main(["factor", "--n", "6", "--format", "text"]) == 0
    assert capsys.readouterr().out == "F_6 has 7 terms; checks pass\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-identities", "--n-max", "2"),
        ("factor", "--n", "2"),
        ("roots", "--n", "2"),
        ("moments", "--n", "2"),
    ],
)
def test_unrendered_csv_format_exits_two(argv):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--format", "csv"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256))
def test_exact_artifacts_match_pinned_digests(tmp_path, argv):
    code, text = run(tmp_path, *argv)
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SHA256[argv]


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["verify-theorem"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-identities", "--n-max", "2"),
        ("verify-theorem", "--n", "3"),
        ("factor", "--n", "3"),
        ("roots", "--n", "3"),
        ("moments", "--n", "2"),
        ("gram", "--n", "2", "--count", "150", "--seed", "6"),
        ("sample", "--count", "25", "--seed", "2"),
        ("fit", "--n", "3", "--count", "80", "--seed", "4"),
    ],
)
def test_byte_identical_reruns(tmp_path, argv):
    first = tmp_path / "first.out"
    second = tmp_path / "second.out"
    assert main([*argv, "--output", str(first)]) == 0
    assert main([*argv, "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_stdout_when_no_output(capsys):
    assert main(["moments", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k0"] == "2"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-identities", "--n-max", "2"),
        ("verify-theorem", "--n", "2"),
        ("factor", "--n", "2"),
        ("roots", "--n", "2"),
        ("moments", "--n", "2"),
        ("gram", "--n", "2", "--count", "50"),
        ("sample", "--count", "5"),
        ("fit", "--n", "2", "--count", "50"),
    ],
)
def test_text_format_renders(tmp_path, argv):
    code, text = run(tmp_path, *argv, "--format", "text")
    assert code == 0
    assert text.endswith("\n")


def test_verify_theorem_csv(tmp_path):
    code, text = run(tmp_path, "verify-theorem", "--n", "2", "--format", "csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "g0,g1,g2"
    assert len(lines) == 4


def test_fit_csv_predictions(tmp_path):
    code, text = run(tmp_path, "fit", "--n", "2", "--count", "60", "--format", "csv")
    assert code == 0
    assert text.startswith("x,prediction\n")
