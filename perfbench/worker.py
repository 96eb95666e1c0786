"""One cold pass of a workload, in a fresh interpreter with empty caches.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--setup-only]

The checkout root is the parent of this file's directory, and ortholeg is
imported from its ``src``.  On stdout the worker prints ``READY`` once
ortholeg is imported and the inputs are made (run.py times interpreter start
to that line as set-up), then, unless ``--setup-only``, one JSON line with the
pass: per-operation seconds, failures, peak RSS and, when traced, the
per-layer metrics.  Failed operations are described on stderr.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ortholeg

    if Path(ortholeg.__file__).resolve().parent != SRC / "ortholeg":
        print(f"perfbench: ortholeg imported from {ortholeg.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import numpy
    import workloads

    make_inputs, op, check = workloads.WORKLOADS[args.workload]
    specs = make_inputs(args.seed, OUT)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    op_seconds: list[float] = []
    failed = 0
    try:
        for spec in specs:
            start = perf_counter()
            try:
                result = op(spec)
                error = None
            except Exception as exc:  # an operation that raises is a failed operation
                error = f"raised {type(exc).__name__}: {exc}"
            op_seconds.append(perf_counter() - start)
            if error is None:
                if tracer is not None:
                    tracer.paused = True
                try:
                    error = check(spec, result)
                except Exception as exc:  # a malformed result is a wrong result
                    error = f"check raised {type(exc).__name__}: {exc}"
                finally:
                    if tracer is not None:
                        tracer.paused = False
            if error is not None:
                failed += 1
                print(f"perfbench: {args.workload} operation {spec!r} failed: {error}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()

    report = {
        "op_seconds": op_seconds,
        "failed": failed,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
