"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mimo_pilot import airlink, harness  # noqa: E402
from mimo_pilot.refsolver import SolveResult  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_call_through_harness_binding_is_counted():
    original = harness.sample_channels
    beta = np.full((7, 3), 0.5)
    with spans.Tracer() as tracer:
        assert harness.sample_channels is not original
        harness.sample_channels(beta, 4, np.random.default_rng(0))
    assert harness.sample_channels is original
    assert airlink.sample_channels is original
    summary = tracer.summary()
    assert summary["calls"]["airlink.sample_channels"] == 1
    assert summary["calls"]["airlink.complex_normal"] == 1
    assert summary["counts"]["airlink.complex_normal.draws"] == 7 * 3 * 4


def test_call_time_import_of_solve_is_counted():
    plan = harness.plan_for("fig4a", gammas=(1,), n_large=1, schemes=workloads.WITH_REF)
    with spans.Tracer() as tracer:
        harness.run_experiment(plan, harness.default_config("fig4a", seed=0))
    summary = tracer.summary()
    assert summary["calls"]["refsolver.solve"] == 2  # one per method
    assert summary["calls"]["refsolver.project_bounded_simplex"] > 2
    assert summary["counts"]["refsolver.solve.iterations"] > 0


def test_self_times_of_nested_spans():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9];
    # B and D share name id 1.
    name_ids = [0, 1, 2, 1]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    calls, own = spans.self_times(name_ids, parents, starts, ends, 3)
    assert calls.tolist() == [1, 2, 1]
    assert own.tolist() == pytest.approx([3.0, 6.0, 1.0])
    assert own.sum() == pytest.approx(10.0)


def test_tracer_spans_nest_and_cover_the_call():
    beta = np.full((7, 3), 0.5)
    with spans.Tracer() as tracer:
        harness.sample_channels(beta, 4, np.random.default_rng(0))
    names = [tracer.names[i] for i in tracer.name_ids]
    assert names == ["airlink.sample_channels", "airlink.complex_normal"]
    assert list(tracer.parents) == [-1, 0]
    total = sum(tracer.summary()["self_s"].values())
    assert total == pytest.approx(tracer.ends[0] - tracer.starts[0])


def _grid_report(rows):
    full = [("fig3", "exp_rcee", 1, "ls", "ppa", 8, mc, se, closed, 1.0)
            for mc, se, closed in rows]
    return harness.MetricReport("fig3", harness.GRID_COLUMNS, tuple(full))


def test_failure_counting():
    band = _grid_report([
        (1.02, None, 1.0),   # inside the relative band
        (1.10, 0.05, 1.0),   # outside it, within three standard errors
        (1.10, 0.01, 1.0),   # outside both
        (None, None, 1.0),   # no Monte-Carlo value
    ])
    assert workloads.outside_band(band, 0.03) == 2
    finite = _grid_report([(1.0, 0.1, 1.0), (math.nan, 0.1, 1.0), (1.0, None, math.inf)])
    assert workloads.non_finite(finite) == 2
    solves = [SolveResult(x=np.ones(2), objective=1.0, iterations=3,
                          converged=c, pg_norm=0.0) for c in (True, False, True)]

    def count(name, reports, results):
        return workloads.count_operations(workloads.WORKLOADS[name], reports,
                                          results, 0.03)

    assert count("fig3-desk", [band, band], []) == (8, 4)
    assert count("closed-forms", [finite], []) == (3, 2)
    assert count("ref-fig4a", [finite], solves) == (3, 1)


def test_speed_factor():
    ref = speed.REFERENCE_S
    assert speed.factor(ref, ref) == pytest.approx(1.0)
    # twice as slow before and after the repetition: half the raw seconds
    slow = [2.0 * t for t in ref]
    assert speed.factor(slow, slow) == pytest.approx(0.5)
    # one kernel four times as slow on average: the cube root of 1/4
    before = [ref[0], ref[1], 3.0 * ref[2]]
    after = [ref[0], ref[1], 5.0 * ref[2]]
    assert speed.factor(before, after) == pytest.approx(0.25 ** (1.0 / 3.0))
    assert len(speed.measure([min(os.sched_getaffinity(0))])) == len(ref)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    empty = {"calls": {}, "self_s": {}, "counts": {}}
    layer = {name: unit for name, (_, unit) in spans.layer_metrics(empty).items()}
    layer.update(run.TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
