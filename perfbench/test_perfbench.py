"""Tests of the benchmark itself: its oracles, its tracer and its contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import ortholeg  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ortholeg import christoffel  # noqa: E402

REPEATED_COUNTS = (
    "ratpoly.mul_calls",
    "ratpoly.mul_coeff_products",
    "quadrature_verify.points_evaluated",
    "legendre.product_expand_calls",
    "ledger.certificates",
)


def _ortholeg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ortholeg" or name.startswith("ortholeg."))]


def _snapshot() -> dict:
    """Every attribute of every ortholeg module and of every class defined there."""
    state = {}
    for module in _ortholeg_modules():
        for attr, obj in vars(module).items():
            state[(module.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__.startswith("ortholeg"):
                for name, member in vars(obj).items():
                    state[(module.__name__, attr, name)] = member
    return state


def _is_wrapper(obj) -> bool:
    return hasattr(getattr(obj, "__func__", obj), "perfbench_span")


def _clear_caches() -> None:
    for module in _ortholeg_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _traced_counts(tmp_path: Path) -> dict:
    _clear_caches()
    specs = [(workloads.ledger_op, s) for s in workloads.ledger_inputs(0, tmp_path, n_max=4)]
    specs += [(workloads.numeric_op, s)
              for s in workloads.numeric_inputs(3, tmp_path, count=3, degrees=(20, 40))]
    tr = tracer.Tracer()
    tr.install()
    try:
        for op, spec in specs:
            op(spec)
    finally:
        tr.uninstall()
    return tr.metrics()


# -- oracles -------------------------------------------------------------------


def test_ledger_oracle_accepts_the_artifact_and_rejects_a_tampered_line(tmp_path):
    spec = workloads.ledger_inputs(0, tmp_path, n_max=4)[0]
    code, data = workloads.ledger_op(spec)
    assert workloads.ledger_check(spec, (code, data)) is None
    lines = data.decode().splitlines(keepends=True)
    failing = lines[:]
    failing[3] = failing[3].replace('"pass"', '"fail"')
    assert workloads.ledger_check(spec, (code, "".join(failing).encode())) is not None
    edited = lines[:]
    edited[5] = edited[5].replace('"residual_terms": 0', '"residual_terms": 1')
    assert edited != lines
    assert "sha256" in workloads.ledger_check(spec, (code, "".join(edited).encode()))
    assert workloads.ledger_check(spec, (code, b"".join(l.encode() for l in lines[:-1]))) is not None
    assert workloads.ledger_check(spec, (1, data)) is not None


def test_numeric_oracle_rejects_perturbed_results(tmp_path):
    spec = (8, 0, 2, 2)
    ortho, roots, moment, interval = workloads.numeric_op(spec)
    assert workloads.numeric_check(spec, (ortho, roots, moment, interval)) is None
    gram = np.array(ortho.gram)
    gram[0, 1] += 1e-9
    bad_gram = dataclasses.replace(ortho, gram=gram)
    outside = dataclasses.replace(roots.roots[0], re=1.5, im=0.0)
    bad_roots = dataclasses.replace(roots, roots=(outside,) + roots.roots[1:])
    for perturbed in (
        (bad_gram, roots, moment, interval),
        (ortho, bad_roots, moment, interval),
        (ortho, roots, moment + 1e-9, interval),
        (ortho, roots, moment + 1e-9j, interval),
        (ortho, roots, moment, interval + 1e-9),
        (ortho, roots, moment, float("nan")),
    ):
        assert workloads.numeric_check(spec, perturbed) is not None


def test_fit_oracle_rejects_perturbed_results(monkeypatch):
    spec = (12, 120, 5)
    batch, report, predictions = workloads.fit_op(spec)
    assert workloads.fit_check(spec, (batch, report, predictions)) is None
    coefficients = np.array(report.coefficients)
    coefficients[3] = np.nan
    bad_report = dataclasses.replace(report, coefficients=coefficients)
    assert workloads.fit_check(spec, (batch, bad_report, predictions)) is not None
    bad_predictions = np.array(predictions)
    bad_predictions[7] = np.inf
    assert workloads.fit_check(spec, (batch, report, bad_predictions)) is not None
    original = christoffel.q_basis_all
    monkeypatch.setattr(christoffel, "q_basis_all", lambda n, x: original(n, x) * (1 + 1e-6))
    assert workloads.fit_check(spec, (batch, report, predictions)) is not None


def test_inputs_follow_the_seed(tmp_path):
    for make in (workloads.numeric_inputs, workloads.fit_inputs):
        assert make(11, tmp_path) == make(11, tmp_path)
        assert make(11, tmp_path) != make(12, tmp_path)
    specs = workloads.numeric_inputs(11, tmp_path)
    assert len(specs) >= 100
    assert len(workloads.fit_inputs(11, tmp_path)) >= 100


# -- tracer --------------------------------------------------------------------


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path)
    second = _traced_counts(tmp_path)
    for name in REPEATED_COUNTS:
        assert first[name] > 0, name
        assert first[name] == second[name], name


def test_tracing_leaves_no_wrapper_installed(tmp_path):
    before = _snapshot()
    assert not any(_is_wrapper(obj) for obj in before.values())
    tr = tracer.Tracer()
    tr.install()
    try:
        assert _is_wrapper(ortholeg.ratpoly.LaurentPoly.__dict__["__mul__"])
        assert _is_wrapper(ortholeg.identity_ledger)
        assert _is_wrapper(ortholeg.factorization.legendre_on_circle)
        assert _is_wrapper(ortholeg.factorization.FactorPair.__dict__["build"])
        workloads.ledger_op(workloads.ledger_inputs(0, tmp_path, n_max=2)[0])
    finally:
        tr.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_excludes_child_spans(tmp_path):
    _clear_caches()
    tr = tracer.Tracer()
    tr.install()
    try:
        workloads.ledger_op(workloads.ledger_inputs(0, tmp_path, n_max=3)[0])
    finally:
        tr.uninstall()
    metrics = tr.metrics()
    top = [s for s in tr.spans if s[3] == -1]
    assert [tr.names[s[0]] for s in top] == ["cli.main"]
    self_times = [metrics[f"{layer}.self_s"] for layer in tracer.LAYERS]
    # hook time is charged to the tracer, so the layers cover at most the top span
    assert min(self_times) >= 0
    assert 0 < sum(self_times) <= top[0][2] - top[0][1]


# -- contract ------------------------------------------------------------------


def test_metric_map_matches_benchmark_json_and_the_tracer(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_map = json.loads((HERE / "metric_map.json").read_text())
    per_layer = dict(metric_map["per_layer"])
    for layer, spec in metric_map["layers"].items():
        for metric, generic in metric_map["layer_metrics"].items():
            per_layer[f"{layer}.{metric}"] = {**generic, **spec}
    for kind, mapped in (("end_to_end", metric_map["end_to_end"]), ("per_layer", per_layer)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[kind]}
        assert declared == {name: (s["unit"], s["better"]) for name, s in mapped.items()}, kind
    workload_names = {w["name"] for w in bench["workloads"]}
    for name, spec in per_layer.items():
        for move in spec["moves"]:
            assert move["metric"] in metric_map["end_to_end"], name
            assert move["workload"] in workload_names, name
    emitted = set(_traced_counts(tmp_path)) | {
        "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s"}
    assert emitted == set(per_layer)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        bench["command"] + ["--workload", "fit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
