"""Sweep benchmark: end-to-end times of the figure sweeps, or their layer split.

Run from the repository root:

    python3 perfbench/run.py --workload fig3-desk --seed 0 --seconds 25 --trace 0

Each repetition runs the workload in a fresh interpreter (``rep.py``)
through the public API, ``plan_for`` / ``default_config`` ->
``run_experiment`` -> ``cli.emit_csv``, with BLAS threads pinned to one.

The shared host changes speed by up to a factor of two within seconds,
and its cores differ from each other.  So every repetition runs bound to
the first ``jobs`` CPUs this process may use, is bracketed by the
calibration kernels of ``speed.py`` timed on those CPUs, and has its
seconds scaled to the kernels' reference speed.
A change to ``mimo_pilot`` moves scaled seconds as it moves raw ones;
the raw medians and the median scale are printed for people.

``--trace 0`` repeats the untraced workload until ``--seconds`` have
passed (at least three times) and reports the medians of

* ``wall_s``: ``run_experiment`` through the last CSV written, in
  reference-speed seconds;
* ``setup_s``: interpreter launch to the first ``run_experiment`` call,
  in reference-speed seconds;
* ``peak_rss_mb``: peak resident memory of the run and its pool workers.

``--trace 1`` runs the workload untraced at ``jobs=1`` and ``jobs=2``,
then traced at ``jobs=1`` (at least twice, until ``--seconds`` have
passed), and reports the per-layer self times (reference-speed seconds)
and counts of ``spans.py``.

Both modes check the outputs: identical CSV digests across repetitions,
across job counts and between traced and untraced runs, Monte-Carlo rows
inside the ``validate --check`` band, counts that repeat exactly across
traced runs and a trace that covers the traced wall time.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; every line before it is for people.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Traced-run metrics added here to the per-layer ones of spans.py.
TRACE_METRICS = {"harness.pool.overhead_s": "s", "trace.overhead_s": "s",
                 "trace.coverage": "ratio"}
MIN_REPS = 3
MIN_TRACED = 2
# A run starts no repetition after DEADLINE_S and kills one still going at
# LIMIT_S, so that it ends within three minutes even on a slow machine.
DEADLINE_S = 150.0
LIMIT_S = 170.0
# The spans must account for the traced wall time within this share.
COVERAGE_TOL = 0.03


class BenchError(RuntimeError):
    pass


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class Runner:
    """Launches repetitions of one workload and keeps their results."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ, **PINNED_THREADS)
        self.cpus = sorted(os.sched_getaffinity(0))
        # the last calibration on each CPU set, shared by neighbouring reps
        self.speed = {}

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def rep(self, jobs: int, trace: bool = False) -> dict:
        self.count += 1
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--jobs", str(jobs),
               "--out", str(OUT / f"rep-{self.count}")]
        if trace:
            cmd.append("--trace")
        # the repetition runs on the CPUs its kernels were timed on: the
        # shared cores differ in speed from each other, not only over time
        cpus = tuple(self.cpus[:jobs])
        before = self.speed.get(cpus) or speed.measure(cpus)
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env,
                                cwd=ROOT, start_new_session=True, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, LIMIT_S - self.elapsed()))
        except BaseException as exc:
            # the repetition and its pool workers share one process group
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{self.workload} repetition did not finish in time")
            raise
        if proc.returncode != 0:
            raise BenchError(f"{self.workload} repetition exited with {proc.returncode}")
        self.speed[cpus] = speed.measure(cpus)
        result = json.loads(stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - launched
        # raw seconds times scale = seconds at the reference speed
        result["scale"] = speed.factor(before, self.speed[cpus])
        return result


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _same(results, key) -> bool:
    return len({json.dumps(r[key], sort_keys=True) for r in results}) == 1


def timed(runner: Runner, jobs: int, seconds: float):
    reps = []
    while len(reps) < MIN_REPS or (runner.elapsed() < seconds
                                   and runner.elapsed() < DEADLINE_S):
        reps.append(runner.rep(jobs))
    checks = {"digest identical across repetitions": _same(reps, "digest")}
    if jobs != 1:
        checks[f"digest at jobs={jobs} equals jobs=1"] = (
            runner.rep(1)["digest"] == reps[0]["digest"])
    values = {name: [r[name] * r["scale"] for r in reps] if unit == "s"
              else [r[name] for r in reps] for name, unit in END_TO_END.items()}
    metrics = {name: _metric(statistics.median(values[name]), unit)
               for name, unit in END_TO_END.items()}
    raw_wall = [r["wall_s"] for r in reps]
    notes = [f"repetitions {len(reps)}, wall_s spread (IQR/median) "
             f"{quartile_spread(values['wall_s']):.1%} scaled, "
             f"{quartile_spread(raw_wall):.1%} raw",
             f"raw medians: wall_s {statistics.median(raw_wall):.4f} s, setup_s "
             f"{statistics.median(r['setup_s'] for r in reps):.4f} s; host speed "
             f"scale median {statistics.median(r['scale'] for r in reps):.3f}, "
             f"range {min(r['scale'] for r in reps):.3f}-"
             f"{max(r['scale'] for r in reps):.3f}"]
    return reps, checks, metrics, notes


def traced(runner: Runner, jobs: int, seconds: float):
    plain = {1: runner.rep(1), 2: runner.rep(2)}
    reps = []
    while len(reps) < MIN_TRACED or (runner.elapsed() < seconds
                                     and runner.elapsed() < DEADLINE_S):
        reps.append(runner.rep(1, trace=True))
    coverage = statistics.median(r["coverage"] for r in reps)
    checks = {
        "digest at jobs=2 equals jobs=1": plain[2]["digest"] == plain[1]["digest"],
        "traced digest equals untraced": all(r["digest"] == plain[1]["digest"] for r in reps),
        "calls repeat across traced runs": _same([r["trace"] for r in reps], "calls"),
        "computed counts repeat across traced runs":
            _same([r["trace"] for r in reps], "counts"),
        f"spans cover the traced wall time within {COVERAGE_TOL:.0%}":
            abs(coverage - 1.0) <= COVERAGE_TOL,
    }
    summary = dict(reps[0]["trace"])
    summary["self_s"] = {name: statistics.median(r["trace"]["self_s"][name] * r["scale"]
                                                 for r in reps)
                         for name in summary["self_s"]}
    metrics = {name: _metric(value, unit)
               for name, (value, unit) in spans.layer_metrics(summary).items()}
    traced_wall = statistics.median(r["wall_s"] * r["scale"] for r in reps)
    wall = {n: r["wall_s"] * r["scale"] for n, r in plain.items()}
    extra = {"harness.pool.overhead_s": wall[2] - wall[1] / 2.0,
             "trace.overhead_s": traced_wall - wall[1],
             "trace.coverage": coverage}
    metrics.update({name: _metric(extra[name], unit)
                    for name, unit in TRACE_METRICS.items()})
    notes = [f"traced repetitions {len(reps)}, traced wall {traced_wall:.4f} s, "
             f"untraced wall {wall[1]:.4f} s at jobs=1, {wall[2]:.4f} s at jobs=2 "
             f"(reference-speed seconds)"]
    return [plain[jobs]] + reps, checks, metrics, notes


def _commit() -> str:
    """HEAD of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mimo_pilot" / "__init__.py").is_file():
        print(f"error: no mimo_pilot package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(args.workload, args.seed)
    try:
        mode = traced if args.trace else timed
        reps, checks, metrics, notes = mode(runner, workload.jobs, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    first = reps[0]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"jobs {workload.jobs}")
    print(f"machine: nproc {len(os.sched_getaffinity(0))}, cpu {_cpu_model()}, "
          f"python {first['python']}, numpy {first['numpy']}, blas {first['blas']}, "
          f"threads pinned {','.join(PINNED_THREADS)}=1, "
          f"repetitions bound to the first jobs of CPUs {runner.cpus}, commit {_commit()}")
    for note in notes:
        print(note)
    print(f"csv sha256 {first['digest']}")
    for name, ok in checks.items():
        print(f"check {'PASS' if ok else 'FAIL'}: {name}")
    print(f"fail_frac {failed / attempted if attempted else 0.0:.6g} ratio "
          f"({failed} of {attempted} {workload.operation} operations failed)")
    for name, m in metrics.items():
        label = " (computed)" if name.rsplit(".", 1)[-1] in spans.COMPUTED else ""
        print(f"metric {name} {m['value']!r} {m['unit']}{label}")
    print(json.dumps({"correct": all(checks.values()), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
