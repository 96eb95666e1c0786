"""Benchmark entry point for ortholeg.

    python3 perfbench/run.py --workload ledger|numeric|fit --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the checkout root is the parent of this
file's directory and ortholeg is imported from its ``src``.

Each pass is one fresh interpreter (perfbench/worker.py) with cold caches, as
every CLI user pays them.  The loop is closed with one client: a pass starts
when the previous one has ended.  With ``--trace 0`` the run makes cold passes
until ``--seconds`` have gone by (the last pass may end later), with a
set-up-only interpreter after each pass and more until there are
SETUP_SAMPLES set-up times, and reports the end-to-end metrics as medians.  With ``--trace 1`` it makes one untraced and one traced
pass and reports the per-layer metrics of the traced one, with the tracing
overhead between the two.

The environment goes to stdout as one JSON line; the last stdout line is the
result object.  Both are also written, with the spans of a traced pass, to
``.perfbench_out/`` in the checkout.  Exit status 0 means a result was
printed; without ``src/ortholeg``, when a worker dies, or when the run is
still going MARGIN_S seconds after ``--seconds``, the run exits non-zero and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"

# The run is cut, with no result, this long after --seconds: time for the
# last pass and the remaining set-up probes.
MARGIN_S = 120
SETUP_SAMPLES = 11
MAX_PASSES = 40
# One BLAS thread: on a shared two-core machine a second thread mostly adds
# jitter, and the closed loop has a single client.
BLAS_THREADS = 1


class BenchError(RuntimeError):
    pass


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, env: dict, deadline: float, *, trace: int = 0,
          setup_only: bool = False) -> tuple[float, dict | None]:
    """Run one worker; return its set-up seconds and, for a pass, its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - monotonic()))
            if not ready:
                raise subprocess.TimeoutExpired(cmd, deadline)
            line = proc.stdout.readline()
            setup_s = perf_counter() - start
            if line.strip() != "READY":
                raise BenchError(f"worker gave no READY line (got {line!r})")
            rest, _ = proc.communicate(timeout=max(0.0, deadline - monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            raise BenchError(f"the run went on past --seconds + {MARGIN_S} s") from None
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    return setup_s, json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; the benchmark's own checkouts are not."""
    # the ceiling keeps git from reporting a repository that merely contains the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of every file under src/, identifying the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="ortholeg benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ortholeg" / "__init__.py").is_file():
        print(f"perfbench: no src/ortholeg under {ROOT}; run from an ortholeg checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = worker_env()
    deadline = monotonic() + args.seconds + MARGIN_S
    try:
        spawn(args, env, deadline, setup_only=True)  # compiles bytecode; not timed
        setups: list[float] = []
        reports: list[dict] = []
        if args.trace:
            for trace in (0, 1):
                setup_s, report = spawn(args, env, deadline, trace=trace)
                setups.append(setup_s)
                reports.append(report)
        else:
            began = perf_counter()
            while True:
                setup_s, report = spawn(args, env, deadline)
                setups.append(setup_s)
                reports.append(report)
                # set-up probes spread over the run sample the same machine state as the passes
                setups.append(spawn(args, env, deadline, setup_only=True)[0])
                if len(reports) >= MAX_PASSES or perf_counter() - began >= args.seconds:
                    break
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(args, env, deadline, setup_only=True)[0])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    walls = [sum(r["op_seconds"]) for r in reports]
    if args.trace:
        kind = "per_layer"
        values = dict(reports[1]["layers"])
        values["trace.untraced_wall_s"] = walls[0]
        values["trace.traced_wall_s"] = walls[1]
        values["trace.overhead_s"] = walls[1] - walls[0]
    else:
        kind = "end_to_end"
        ops = [s for r in reports for s in r["op_seconds"]]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": quantile(ops, 0.5) * 1e3,
            "op_p90_ms": quantile(ops, 0.9) * 1e3,
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reports) / 1024,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[kind]}
    attempted = sum(len(r["op_seconds"]) for r in reports)
    failed = sum(r["failed"] for r in reports)
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": reports[0]["python"],
        "numpy": reports[0]["numpy"],
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "samples": {"setup": len(setups), "passes": len(reports), "operations": attempted},
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"environment": environment, "result": result}, indent=1) + "\n")
    print(json.dumps({"environment": environment}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
