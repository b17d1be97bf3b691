"""End-to-end and per-layer benchmark of the agent -> server -> query path.

Run from the repository root::

    python3 perfbench/run.py --workload highcard_ingest --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the separate traced run that splits the time across the layers.  The
workloads, metrics and the layer each metric should move are described in
``perfbench/README.md``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print every metric with its unit and the run record.  A
failed correctness check makes ``correct`` false and the exit code 1.

Scratch data (segment logs, the compiled kernel cache) goes under
``$CARGO_TARGET_DIR`` (default ``.bench_build``) inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a repository checkout (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    scratch = scratch if scratch.is_absolute() else ROOT / scratch
    kernel_cache = scratch / "kernel-cache"
    # The kernel backend reads its cache location when it first resolves;
    # the compiler and the server children write temporaries under TMPDIR.
    os.environ["REPRO_KERNEL_CACHE"] = str(kernel_cache)
    os.environ["TMPDIR"] = str(scratch / "tmp")
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)

    import numpy

    from repro import kernel

    from harness import BenchmarkError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Build (or load) the compiled kernel before anything is timed.
    backend = kernel.active_backend()
    work = scratch / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            from traced import run_traced

            metrics, record, checks, errors = run_traced(
                workload, args.seed, work, ROOT, kernel_cache, backend
            )
        else:
            from e2e import run_untraced

            metrics, record, checks, errors = run_untraced(
                workload, args.seed, args.seconds, work, ROOT, kernel_cache
            )
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run_record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend,
        "server": {
            "fsync": False,
            "snapshot_every": workload.snapshot_every,
            "retention_intervals": 64,
            "interval_length_s": 1.0,
        },
        "generator": {
            "threads": workload.push_connections + (0 if workload.closed_loop else 1),
            "push_connections": workload.push_connections,
            "query_connections": 1,
            "loop": "closed" if workload.closed_loop else f"open, {workload.push_rate:g} frames/s",
        },
        "checks_passed": checks.passed,
        "checks_failed": checks.failures,
        "errors": errors.messages[:10],
        **record,
    }
    for name, entry in metrics.items():
        print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']}")
    print("run record: " + json.dumps(run_record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": checks.ok,
                "attempted": errors.attempted,
                "failed": errors.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
