"""One run of one workload in a fresh interpreter; prints a JSON line.

Started by ``run.py`` once per repetition, so every repetition pays the
interpreter start, the numpy and ``mimo_pilot`` imports and the plan and
config construction, the way a CLI call does.  ``ready`` is the
``time.monotonic()`` reading (a system-wide clock on Linux) taken just
before the first ``run_experiment`` call; the parent subtracts its own
launch reading from it to get the set-up time.

    python3 perfbench/rep.py --workload fig3-desk --seed 0 --jobs 1 --out DIR [--trace]
"""

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import mimo_pilot  # noqa: E402
from mimo_pilot import cli, harness, refsolver  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    if Path(mimo_pilot.__file__).resolve().parent != ROOT / "src" / "mimo_pilot":
        raise SystemExit(f"mimo_pilot imported from {mimo_pilot.__file__}, "
                         f"not from {ROOT / 'src'}")

    workload = workloads.WORKLOADS[args.workload]
    sweeps = workloads.build(workload, args.seed, args.jobs)
    args.out.mkdir(parents=True, exist_ok=True)
    paths = [args.out / f"{figure}.csv" for figure, _, _ in sweeps]
    solves = spans.ResultLog(refsolver, "solve")
    tracer = spans.Tracer() if args.trace else None

    ready = time.monotonic()
    with solves, tracer or contextlib.nullcontext():
        start = time.perf_counter()
        reports = []
        for (_, plan, cfg), path in zip(sweeps, paths):
            report = harness.run_experiment(plan, cfg)
            cli.emit_csv(report.columns, report.rows, str(path))
            reports.append(report)
        wall = time.perf_counter() - start

    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    attempted, failed = workloads.count_operations(
        workload, reports, solves.results, cli.RCEE_CHECK_RTOL)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {"ready": ready, "wall_s": wall, "peak_rss_mb": rss_kb / 1024.0,
           "digest": digest.hexdigest(), "attempted": attempted,
           "failed": failed, "python": sys.version.split()[0],
           "numpy": np.__version__, "blas": _blas()}
    if tracer is not None:
        summary = tracer.summary()
        out["trace"] = summary
        out["coverage"] = sum(summary["self_s"].values()) / wall
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
