"""The benchmark's workloads and the rules that count their operations.

Every sweep is built the way ``mimo-pilot figure <name>`` builds it
(``plan_for`` + ``default_config``, ``--with-ref`` adding the reference
scheme).  Where the desk-scale sweep would not fit one benchmark run, the
sweep keeps a prefix of its drops: drop ``d`` draws from the same seeded
streams whatever the drop count, so the prefix does exactly the work of
the first drops of the full sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WITH_REF = ("eppa", "ppa", "ref")


@dataclass(frozen=True)
class Sweep:
    figure: str
    drops: int            # per reuse factor
    with_ref: bool = False


@dataclass(frozen=True)
class Workload:
    sweeps: tuple[Sweep, ...]
    jobs: int
    # what one operation is: "band" (a Monte-Carlo row), "finite" (a
    # closed-form row) or "solve" (one reference-solver call)
    operation: str


WORKLOADS = {
    # Monte-Carlo on the largest arrays: a (7, 10, 512) channel per trial
    # and error prefixes at 7 antenna counts.  Flat for closed-form and
    # allocator changes.
    "fig3-desk": Workload((Sweep("fig3", 3),), jobs=1, operation="band"),
    # Small arrays replayed heavily: 28 pilot_phase / seed_schedule calls
    # per trial and 14 allocator calls per drop.
    "fig4b-desk": Workload((Sweep("fig4b", 1),), jobs=1, operation="band"),
    # No Monte-Carlo: scalar closed forms, allocator, drops, CDFs and a
    # large CSV, in many few-ms pool tasks.  The bypass for Monte-Carlo
    # changes and the only workload timed through the process pool.
    "closed-forms": Workload(
        (Sweep("fig4a", 60), Sweep("fig5a", 60), Sweep("fig5b", 60)),
        jobs=2, operation="finite"),
    # The reference solver at the 40 dB budget, where every solve ends in
    # tens of iterations.  At 70-80 dB some solves run to max_iter and take
    # minutes each, which no run of this benchmark can hold.
    "ref-fig4a": Workload((Sweep("fig4a", 10, with_ref=True),), jobs=1,
                          operation="solve"),
}


def build(workload: Workload, seed: int, jobs: int):
    """(figure, plan, config) for each sweep, as the CLI would build them."""
    from mimo_pilot.harness import default_config, plan_for

    return [(s.figure,
             plan_for(s.figure, jobs=jobs, n_large=s.drops,
                      schemes=WITH_REF if s.with_ref else None),
             default_config(s.figure, seed=seed))
            for s in workload.sweeps]


def outside_band(report, rtol: float) -> int:
    """Rows whose Monte-Carlo mean misses the ``validate --check`` band.

    A row passes when it is within ``rtol`` of its closed form, or within
    three standard errors of it.
    """
    idx = {c: i for i, c in enumerate(report.columns)}
    failed = 0
    for row in report.rows:
        mc, se, closed = (row[idx["mc_mean"]], row[idx["mc_stderr"]],
                          row[idx["closed_form"]])
        ok = (mc is not None and closed is not None
              and (abs(mc - closed) <= rtol * abs(closed)
                   or (se is not None and abs(mc - closed) <= 3.0 * se)))
        failed += not ok
    return failed


def non_finite(report) -> int:
    """Rows holding a NaN or infinite number."""
    return sum(any(isinstance(v, float) and not math.isfinite(v) for v in row)
               for row in report.rows)


def count_operations(workload: Workload, reports, solves, rtol: float):
    """(attempted, failed) for one run of ``workload``.

    ``solves`` are the ``SolveResult`` objects the run returned; a solve
    fails when it did not converge.
    """
    if workload.operation == "solve":
        return len(solves), sum(not r.converged for r in solves)
    rows = sum(len(r.rows) for r in reports)
    if workload.operation == "band":
        return rows, sum(outside_band(r, rtol) for r in reports)
    return rows, sum(non_finite(r) for r in reports)
