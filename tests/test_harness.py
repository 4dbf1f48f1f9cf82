import dataclasses
import gc
import math
import os
import signal
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from mimo_pilot import (EXPERIMENTS, GRID_COLUMNS, ExperimentPlan, MetricReport,
                        bench_allocators, default_config, plan_for, run_experiment,
                        seed_schedule)
from mimo_pilot import forkmap, harness, metrics, ppa
from mimo_pilot.airlink import complex_normal, sample_channels
from mimo_pilot.estimators import LS, METHODS, MMSE
from mimo_pilot.forkmap import WorkerError, fork_map
from mimo_pilot.harness import (_DESK_M_GRID, _DESK_P_GRID_DB, _GRAM_BLOCK,
                                _collapse_cells, _error_weights, _gram_segments,
                                _gram_trials, _mc_means, _mc_trials, _mean, _mean_stderr,
                                _prefix_rcee, drop_gains)
from mimo_pilot.scenario import SystemConfig, build_layout, drop_users, large_scale
from oracle import (drop_budgets, drop_closed_forms, empirical_cdf, empirical_sinr_terms,
                    estimate_ls, estimate_mmse, ks_distance, pilot_phase,
                    rcee_prefix_samples)


class TestSeedSchedule:
    def test_identical_arguments_identical_stream(self):
        a = seed_schedule(7, 3, "channel").normal(size=5)
        b = seed_schedule(7, 3, "channel").normal(size=5)
        assert np.array_equal(a, b)

    def test_distinct_slots_differ(self):
        base = seed_schedule(7, 3, "channel").normal(size=5)
        for other in (seed_schedule(8, 3, "channel"),
                      seed_schedule(7, 4, "channel"),
                      seed_schedule(7, 3, "shadowing")):
            assert not np.array_equal(base, other.normal(size=5))

    def test_numpy_integers_accepted(self):
        a = seed_schedule(np.int64(7), np.int32(3), "x").normal(size=3)
        b = seed_schedule(7, 3, "x").normal(size=3)
        assert np.array_equal(a, b)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            seed_schedule(-1, 0, "x")
        with pytest.raises(ValueError):
            seed_schedule(0, -1, "x")
        with pytest.raises(ValueError):
            seed_schedule(0, 0, "")
        with pytest.raises(ValueError):
            seed_schedule(1.5, 0, "x")


class TestEmpiricalCdf:
    def test_step_values(self):
        cdf = empirical_cdf([3.0, 1.0, 2.0])
        assert cdf.evaluate(0.0) == 0.0
        assert cdf.evaluate(1.0) == pytest.approx(1.0 / 3.0)
        assert cdf.evaluate(1.5) == pytest.approx(1.0 / 3.0)
        assert cdf.evaluate(3.0) == 1.0
        assert cdf.evaluate(99.0) == 1.0

    def test_vectorized_evaluate_and_curve(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0])
        out = cdf.evaluate([0.5, 2.0, 2.5])
        assert out == pytest.approx([0.0, 2.0 / 3.0, 2.0 / 3.0])
        values, levels = cdf.curve()
        assert np.array_equal(values, [1.0, 2.0, 3.0])
        assert levels == pytest.approx([1.0 / 3.0, 2.0 / 3.0, 1.0])

    def test_ties_accumulate(self):
        cdf = empirical_cdf([2.0, 2.0, 5.0])
        assert cdf.evaluate(2.0) == pytest.approx(2.0 / 3.0)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            empirical_cdf([])
        with pytest.raises(ValueError):
            empirical_cdf([1.0, np.nan])

    def test_ks_hand_value(self):
        a = empirical_cdf([1.0, 2.0, 3.0])
        b = empirical_cdf([2.0, 3.0, 4.0])
        assert ks_distance(a, b) == pytest.approx(1.0 / 3.0)
        assert ks_distance(a, a) == 0.0
        assert ks_distance(a, b) == ks_distance(b, a)

    def test_ks_separates_shifted_samples(self):
        rng = np.random.default_rng(1)
        same1 = empirical_cdf(rng.normal(size=4000))
        same2 = empirical_cdf(rng.normal(size=4000))
        far = empirical_cdf(rng.normal(loc=2.0, size=4000))
        assert ks_distance(same1, same2) < 0.06
        assert ks_distance(same1, far) > 0.5


class TestExperimentPlan:
    def test_minimal_plan(self):
        plan = ExperimentPlan(experiment="fig4a", gammas=(1, 7))
        assert plan.schemes == ("ppa", "eppa")

    @pytest.mark.parametrize("kwargs", [
        dict(experiment="fig9", gammas=(1,)),
        dict(experiment="fig4a", gammas=()),
        dict(experiment="fig4a", gammas=(2,)),
        dict(experiment="fig4a", gammas=(1, 3, 1)),
        dict(experiment="fig3", gammas=(1,), m_grid=(8, 4)),
        dict(experiment="fig3", gammas=(1,), m_grid=(1, 8)),
        dict(experiment="fig3", gammas=(1,)),
        dict(experiment="fig4b", gammas=(1,)),
        dict(experiment="fig4a", gammas=(1,), n_large=0),
        dict(experiment="fig4a", gammas=(1,), n_small=-1),
        dict(experiment="fig4a", gammas=(1,), schemes=("mrc",)),
        dict(experiment="fig5a", gammas=(1,)),
        dict(experiment="fig4a", gammas=(1,), jobs=0),
        dict(experiment="validate", gammas=(1,), n_small=1),
        dict(experiment="validate", gammas=(1,), n_small=0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentPlan(**kwargs)


class TestPlanFor:
    def test_desk_defaults(self):
        plan = plan_for("fig3")
        assert plan.gammas == (1, 3, 7)
        assert plan.m_grid == (8, 16, 32, 64, 128, 256, 512)
        assert (plan.n_large, plan.n_small) == (20, 50)
        assert plan_for("validate").n_small == 4000
        assert plan_for("fig5a").gammas == (1,)
        assert plan_for("fig5a").n_small == 0

    def test_paper_scale(self):
        plan = plan_for("fig3", paper_scale=True)
        assert (plan.n_large, plan.n_small) == (100, 100)

    def test_overrides(self):
        plan = plan_for("fig3", gammas=(3,), n_large=2, n_small=5, jobs=2,
                        schemes=("ppa", "eppa", "ref"))
        assert plan.gammas == (3,)
        assert (plan.n_large, plan.n_small, plan.jobs) == (2, 5, 2)
        assert plan.schemes == ("ppa", "eppa", "ref")

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            plan_for("fig1")

    def test_repeated_reuse_factor(self):
        # a repeated factor would run and emit every one of its rows twice
        with pytest.raises(ValueError, match="repeat"):
            plan_for("fig4a", gammas=(1, 1))


def test_default_config_profiles():
    small = default_config("validate", seed=5)
    assert (small.K, small.M, small.P_total, small.mu) == (3, 8, 3.0e3, 1.5)
    assert small.seed == 5
    big = default_config("fig3")
    assert (big.K, big.M, big.P_total, big.mu) == (10, 200, 1.0e4, 3.0)
    assert big.rho_u == 100.0


class TestMetricReport:
    def report(self):
        return MetricReport(
            experiment="fig3",
            columns=("gamma", "scheme", "x", "y"),
            rows=((1, "ppa", 8, 0.5), (1, "eppa", 8, 0.7), (3, "ppa", 8, 0.6)))

    def test_select(self):
        report = self.report()
        assert len(report.select(gamma=1)) == 2
        assert report.select(gamma=3, scheme="ppa") == [(3, "ppa", 8, 0.6)]
        assert report.select(scheme="ref") == []


def test_mean_stderr():
    mean, se = _mean_stderr([5.0])
    assert (mean, se) == (5.0, None)
    mean, se = _mean_stderr([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert se == pytest.approx(1.0 / np.sqrt(3.0))


# the shapes the means reduce: K users (3 and 10), 1, 3, 20 and 100 drops,
# and rows of a (C, n) array of 50 and 4000 trials
@pytest.mark.parametrize("shape", [(1,), (3,), (10,), (20,), (100,), (4, 50),
                                   (2, 4000)])
def test_mean_is_numpy_mean_bit_for_bit(shape):
    values = 10 ** np.random.default_rng(len(shape) * sum(shape)).uniform(-6, 1, shape)
    rows = values.reshape(-1, shape[-1])
    assert np.array_equal([_mean(row) for row in rows], [row.mean() for row in rows])


@pytest.fixture(scope="module")
def tiny_cfg():
    return default_config("validate", seed=3)


@pytest.fixture(scope="module")
def tiny_fig3(tiny_cfg):
    plan = plan_for("fig3", gammas=(1,), n_large=2, n_small=4)
    return run_experiment(plan.__class__(**{**plan.__dict__, "m_grid": (8, 32)}),
                          tiny_cfg)


class TestRunExperimentFig3:
    def test_row_layout(self, tiny_fig3):
        assert tiny_fig3.columns == ("experiment", "metric", "gamma", "method",
                                     "scheme", "x", "mc_mean", "mc_stderr",
                                     "closed_form", "asymptote")
        # 1 gamma x 2 schemes x 2 methods x 2 antenna counts
        assert len(tiny_fig3.rows) == 8
        assert {row[5] for row in tiny_fig3.rows} == {8, 32}

    def test_allocator_never_loses_to_flat_split(self, tiny_fig3):
        for method in (LS, MMSE):
            for M in (8, 32):
                ppa_row = tiny_fig3.select(method=method, scheme="ppa", x=M)
                eppa_row = tiny_fig3.select(method=method, scheme="eppa", x=M)
                assert ppa_row[0][8] <= eppa_row[0][8]

    def test_error_decreases_with_antennas_toward_limit(self, tiny_fig3):
        for method in (LS, MMSE):
            rows = tiny_fig3.select(method=method, scheme="ppa")
            closed = {row[5]: row[8] for row in rows}
            limit = rows[0][9]
            assert closed[32] < closed[8]
            assert closed[32] > limit

    def test_monte_carlo_columns_populated(self, tiny_fig3):
        for row in tiny_fig3.rows:
            assert row[6] is not None and row[7] is not None
            assert row[7] >= 0.0

    def test_deterministic_rerun(self, tiny_cfg, tiny_fig3):
        plan = plan_for("fig3", gammas=(1,), n_large=2, n_small=4)
        plan = plan.__class__(**{**plan.__dict__, "m_grid": (8, 32)})
        again = run_experiment(plan, tiny_cfg)
        assert again.rows == tiny_fig3.rows


class TestRunExperimentFig4a:
    def test_cdf_structure(self, tiny_cfg):
        plan = plan_for("fig4a", gammas=(1,), n_large=6)
        report = run_experiment(plan, tiny_cfg)
        assert report.columns == ("experiment", "metric", "gamma", "method",
                                  "scheme", "value", "cdf")
        limit = harness._map_tasks(plan, tiny_cfg)[1]["limit"]
        for c, (scheme, method) in enumerate(harness._combos(plan)):
            rows = report.select(method=method, scheme=scheme)
            values = [row[5] for row in rows]
            levels = [row[6] for row in rows]
            assert len(rows) == 6
            assert values == sorted(values)
            assert levels == pytest.approx(np.arange(1, 7) / 6.0)
            # the rows are the drop values' empirical distribution, bit for bit
            want_values, want_levels = empirical_cdf(limit[:, c]).curve()
            assert (values, levels) == (want_values.tolist(), want_levels.tolist())


def test_fig5a_rows_hold_the_worst_rate_only(tiny_cfg):
    # fig5a is closed-form even when trials are asked for: no Monte-Carlo
    # columns and no asymptote
    plan = plan_for("fig5a", gammas=(1,), n_large=2, n_small=3)
    report = run_experiment(dataclasses.replace(plan, m_grid=(8, 32)), tiny_cfg)
    assert report.columns == GRID_COLUMNS
    assert len(report.rows) == 2 * 2 * 2
    for row in report.rows:
        assert row[1] == "rate_min"
        assert (row[6], row[7], row[9]) == (None, None, None)
        assert row[8] > 0.0


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_report_cells_are_plain_finite_values(experiment):
    # emit_csv formats str, int, float and None cells by exact type, and the
    # benchmark counts a closed-form row holding a NaN or infinite float as
    # failed: a blank cell is None, never NaN, and every float is finite
    cfg = default_config(experiment, seed=1)
    blanks = 0
    for n_large, n_small in ((1, 2), (2, 2), (2, 0)):
        if experiment == "validate" and not n_small:
            continue
        plan = dataclasses.replace(
            plan_for(experiment, gammas=(1, 7) if experiment != "validate" else None,
                     n_large=n_large, n_small=n_small, schemes=("eppa", "ppa", "ref")),
            m_grid=(8, 32) if experiment in ("fig3", "fig5a") else (),
            p_grid_db=(20.0, 30.0) if experiment == "fig4b" else ())
        report = run_experiment(plan, cfg)
        assert report.rows
        for row in report.rows:
            assert len(row) == len(report.columns)
            for value in row:
                assert type(value) in (str, int, float, type(None)), (row, type(value))
                assert type(value) is not float or math.isfinite(value), row
                blanks += value is None
    # the grid reports leave the cells they have no value for blank
    assert (blanks > 0) == (report.columns == GRID_COLUMNS)


class TestRunExperimentValidate:
    def test_single_drop_report(self, tiny_cfg):
        plan = plan_for("validate", n_small=300)
        report = run_experiment(plan, tiny_cfg)
        # 2 metrics x 2 schemes x 2 methods, one drop each
        assert len(report.rows) == 8
        for row in report.select(metric="exp_rcee"):
            mc, se, closed = row[6], row[7], row[8]
            assert se is not None
            assert abs(mc - closed) / closed < 0.25

    def test_empirical_sinr_ignores_estimator_scaling(self, tiny_cfg):
        plan = plan_for("validate", n_small=300)
        report = run_experiment(plan, tiny_cfg)
        ls = report.select(metric="sinr", method=LS, scheme="eppa")[0]
        mmse = report.select(metric="sinr", method=MMSE, scheme="eppa")[0]
        assert ls[6] == pytest.approx(mmse[6], rel=1e-12)

    def test_drop_streams_per_drop_and_fading_streams_per_gamma_and_drop(
            self, tiny_cfg, monkeypatch):
        # positions and shadowing once per drop, shared by every gamma;
        # channel and pilot-noise once per (gamma, drop), whatever the
        # trial count
        plan = plan_for("validate", gammas=(1, 3), n_large=2, n_small=300)
        assert sorted(_streams_opened(plan, tiny_cfg, monkeypatch)) == _streams(
            plan, ("channel", "pilot-noise"))


def _streams_opened(plan, cfg, monkeypatch) -> list:
    """The (slot, purpose) of every stream a sweep opens."""
    drawn = []
    schedule = harness.seed_schedule

    def counted(seed, slot, purpose):
        drawn.append((slot, purpose))
        return schedule(seed, slot, purpose)

    monkeypatch.setattr(harness, "seed_schedule", counted)
    run_experiment(plan, cfg)
    return drawn


def _streams(plan, fading) -> list:
    """Sorted: the drop's two streams per drop, each fading stream per
    (gamma, drop)."""
    return sorted([(drop, purpose) for drop in range(plan.n_large)
                   for purpose in ("positions", "shadowing")]
                  + [(drop, f"{purpose}/gamma={gamma}") for gamma in plan.gammas
                     for drop in range(plan.n_large) for purpose in fading])


@pytest.mark.parametrize("experiment, fading", [("fig4a", ()), ("fig4b", ("gram",))])
def test_sweep_streams_per_drop_and_per_gamma_and_drop(tiny_cfg, monkeypatch,
                                                        experiment, fading):
    plan = plan_for(experiment, gammas=(1, 3, 7), n_large=3, n_small=2)
    assert sorted(_streams_opened(plan, tiny_cfg, monkeypatch)) == _streams(plan, fading)


@pytest.mark.parametrize("L", [1, 7])
@pytest.mark.parametrize("K", [2, 10])
@pytest.mark.parametrize("sigma_sh", [0.0, SystemConfig.sigma_sh])
def test_one_draw_per_drop_gives_each_gammas_chain_gains(monkeypatch, L, K, sigma_sh):
    # the sweep draws all its drops' users and shadowing in one call each,
    # for every gamma; each (gamma, drop)'s gains must be those of
    # build_layout -> drop_users -> large_scale at that gamma on the drop's
    # own two streams, bit for bit
    cfg = SystemConfig(K=K, M=8, P_total=1.0e3, L=L, sigma_sh=sigma_sh, seed=5)
    gammas = (1, 3, 7)
    calls, seen = {}, []

    def counted(name):
        fn = getattr(harness, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    def flat_upsilon(beta, *budgets):  # the gains the sweep goes on with
        seen.append(beta[:, :, 0])
        return upsilon(beta, *budgets)

    upsilon = ppa._flat_upsilon
    for name in ("drop_users", "large_scale"):
        monkeypatch.setattr(harness, name, counted(name))
    monkeypatch.setattr(ppa, "_flat_upsilon", flat_upsilon)
    for n_large in (1, 3, 61):
        calls.clear()
        seen.clear()
        harness._map_tasks(plan_for("fig4a", gammas=gammas, n_large=n_large), cfg)
        assert calls == {"drop_users": 1, "large_scale": 1}
        assert seen[0].shape == (len(gammas), n_large, L, K)
        for gamma, per_drop in zip(gammas, seen[0]):
            cfg_g = cfg.replace(Gamma=gamma)
            centers = build_layout(cfg_g)
            for drop, beta in enumerate(per_drop):
                pos = drop_users(cfg_g, centers, seed_schedule(cfg.seed, drop, "positions"))
                chain = large_scale(cfg_g, centers, pos,
                                    seed_schedule(cfg.seed, drop, "shadowing"))
                assert beta.tobytes() == chain.tobytes()
                assert drop_gains(cfg_g, drop).tobytes() == chain.tobytes()


@pytest.mark.parametrize("experiment", ["fig4a", "fig4b", "validate"])
def test_jobs_do_not_change_rows_with_fewer_drops_than_gamma_drop_pairs(
        tiny_cfg, monkeypatch, reaped, experiment):
    # two drops at three reuse factors: two tasks, so never more than two
    # workers, whatever --jobs asks for
    _fake_affinity(monkeypatch, {0, 1, 2})
    plan = plan_for(experiment, gammas=(1, 3, 7), n_large=2, n_small=2)
    rows = [run_experiment(dataclasses.replace(plan, jobs=jobs), tiny_cfg).rows
            for jobs in (1, 2, 3)]
    assert rows[0] == rows[1] == rows[2]


def test_jobs_do_not_change_results(tiny_cfg):
    # a task is one drop at every gamma: fig4a's 5 tasks go to 2 workers;
    # validate runs one drop, so it runs in-process at any --jobs
    for experiment, kwargs in (("fig5b", dict(gammas=(1,), n_large=4)),
                               ("fig4a", dict(gammas=(1, 3, 7), n_large=5)),
                               ("fig5a", dict(gammas=(1, 3), n_large=3)),
                               ("validate", dict(gammas=(1, 3, 7), n_small=20))):
        serial = plan_for(experiment, **kwargs)
        parallel = plan_for(experiment, jobs=2, **kwargs)
        a = run_experiment(serial, tiny_cfg)
        b = run_experiment(parallel, tiny_cfg)
        assert a.rows == b.rows


@pytest.mark.parametrize("p_grid_db", [(40.0,), (30.0, 40.0, 50.0)])
def test_fig3_and_fig4b_share_the_drop_preamble(p_grid_db):
    # fig3 at the configured antenna count and fig4b's rows at the
    # configured 40 dB budget must draw, allocate and estimate alike, also
    # when that budget is stacked between others in the kernel
    cfg = default_config("fig3", seed=0)
    assert cfg.P_total == 10.0 ** (40.0 / 10.0)
    fig3 = plan_for("fig3", gammas=(1, 3), n_large=2, n_small=5)
    fig3 = dataclasses.replace(fig3, m_grid=(cfg.M,))
    fig4b = plan_for("fig4b", gammas=(1, 3), n_large=2, n_small=5)
    fig4b = dataclasses.replace(fig4b, p_grid_db=p_grid_db)
    a = run_experiment(fig3, cfg).rows
    b = run_experiment(fig4b, cfg).select(x=40.0)
    assert len(a) == len(b) == 2 * 2 * 2
    # every column but the experiment, the sweep variable and the asymptote
    assert [r[1:5] + r[6:9] for r in a] == [r[1:5] + r[6:9] for r in b]


@pytest.mark.parametrize("experiment, kwargs", [
    ("fig3", dict(gammas=(1,), n_large=2, n_small=3)),
    ("fig4b", dict(n_large=2, n_small=2)),
])
def test_jobs_do_not_change_monte_carlo(tiny_cfg, experiment, kwargs):
    serial = run_experiment(plan_for(experiment, **kwargs), tiny_cfg)
    parallel = run_experiment(plan_for(experiment, jobs=2, **kwargs), tiny_cfg)
    assert serial.rows == parallel.rows


def _stacking_plan(experiment):
    """Five drops at every reuse factor, with a few trials where the sweep
    has Monte-Carlo."""
    return plan_for(experiment, gammas=(1, 3, 7), n_large=5,
                    n_small={"fig3": 2, "fig4b": 2, "validate": 4}.get(experiment, 0))


def _closed_values(experiment, arrays, drop, combos):
    """The closed-form part of one drop's values in a sweep's per-gamma
    arrays, in the layout of ``oracle.drop_closed_forms``."""
    per_combo = {name: dict(zip(combos, arrays[name][drop]))
                 for name in ("closed", "limit") if name in arrays}
    if experiment in ("fig4a", "fig5b"):
        return per_combo["limit"]
    if experiment == "validate":
        return {label: {c: (per_combo["closed"][c][i], per_combo["limit"][c][i])
                        for c in combos} for i, label in enumerate(("exp_rcee", "sinr"))}
    return per_combo


def _leaves(tree, path=()):
    """(path, float array) of every leaf of nested dicts and tuples."""
    if isinstance(tree, (dict, tuple)):
        for key, value in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
            yield from _leaves(value, path + (key,))
    else:
        yield path, np.asarray(tree, dtype=float)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_stacked_closed_forms_equal_the_per_drop_path(tiny_cfg, experiment, seed):
    # every closed form of the pass stacked over drops, bit for bit that of
    # one public call per (gamma, drop, estimator) on the drop's gains
    cfg = tiny_cfg.replace(seed=seed)
    plan = _stacking_plan(experiment)
    checked = 0
    for gamma, arrays in harness._map_tasks(plan, cfg).items():
        cfg_g = cfg.replace(Gamma=gamma)
        for drop in range(plan.n_large):
            beta = drop_gains(cfg_g, drop)
            want = dict(_leaves(drop_closed_forms(plan, cfg_g, beta,
                                                  drop_budgets(plan, cfg_g, beta))))
            got = dict(_leaves(_closed_values(experiment, arrays, drop,
                                              harness._combos(plan))))
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert got[key].tobytes() == value.tobytes(), (gamma, drop, key)
                checked += 1
    assert checked >= 3 * 5 * 4


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_rows_do_not_depend_on_the_closed_form_block(tiny_cfg, monkeypatch, two_cpus,
                                                     reaped, experiment, seed):
    # blocks of one drop (a budget of 1 or 2 bytes), of two, and the
    # default, which holds all five drops of this small config
    cfg = tiny_cfg.replace(seed=seed)
    plan = _stacking_plan(experiment)
    mc, closed_forms, *rest = harness._PER_EXPERIMENT[experiment]
    blocks = []

    def spy(plan, cfgs, combos, beta, rho):  # one call per block, at every gamma
        blocks.append(beta.shape[1])
        return closed_forms(plan, cfgs, combos, beta, rho)

    monkeypatch.setitem(harness._PER_EXPERIMENT, experiment, (mc, spy, *rest))
    n_budgets = len(plan.p_grid_db) if experiment == "fig4b" else 1
    # a drop's share of the budget: its 4 allocations' powers at every
    # budget, and one value per user, allocation and antenna count
    two_drops = 2 * 8 * n_budgets * 4 * cfg.K * (cfg.L + max(1, len(plan.m_grid)))
    reference = run_experiment(plan, cfg).rows
    assert blocks == [5]
    for budget, sizes in ((1, [1] * 5), (2, [1] * 5), (two_drops, [2, 2, 1])):
        monkeypatch.setattr(harness, "_CF_BLOCK", budget)
        for jobs in (1, 2):
            blocks.clear()
            assert run_experiment(dataclasses.replace(plan, jobs=jobs), cfg).rows == reference
            assert blocks == sizes, (budget, jobs)


@pytest.mark.parametrize("schemes", [("eppa", "ppa"), ("eppa", "ppa", "ref")])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_no_sweep_allocates_row_by_row(tiny_cfg, monkeypatch, experiment, schemes):
    # every batch of allocations, the high-budget limit's too, goes through
    # the stacked pass; the list allocator serves single allocations only
    def row_by_row(*args):
        raise AssertionError("a sweep called ppa_allocate")

    monkeypatch.setattr(ppa, "ppa_allocate", row_by_row)
    plan = dataclasses.replace(_stacking_plan(experiment), schemes=schemes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # an unconverged reference solve
        assert run_experiment(plan, tiny_cfg).rows


# taken at import, as tests replace os.sched_getaffinity
_AFFINITY = getattr(os, "sched_getaffinity", None)
_CPUS = frozenset(_AFFINITY(0)) if _AFFINITY else frozenset()


def _cpu_mask():
    """The CPUs this thread may run on, None where the platform cannot say."""
    return _AFFINITY(0) if _AFFINITY else None


def _fake_affinity(monkeypatch, cpus):
    """Makes ``os`` report the affinity set ``cpus`` and take none: pinned to
    a CPU of a faked set, and restored to it, a process could keep fewer
    CPUs than it had on a larger machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)


@pytest.fixture
def reaped():
    """Fails the test if it leaves a child process, running or unreaped, or
    this process on other CPUs than it had; a test that hangs raises
    ``TimeoutError`` instead of stalling."""
    def expire(signum, frame):
        raise TimeoutError("the test did not finish in time")

    mask = _cpu_mask()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _cpu_mask() == mask


@pytest.fixture
def two_cpus(monkeypatch):
    _fake_affinity(monkeypatch, {0, 1})


def test_without_fork_a_parallel_sweep_runs_in_process(tiny_cfg, two_cpus, monkeypatch,
                                                       reaped):
    plan = plan_for("fig4a", gammas=(1, 3), n_large=3)
    serial = run_experiment(plan, tiny_cfg).rows
    monkeypatch.delattr(forkmap.os, "fork")
    assert run_experiment(dataclasses.replace(plan, jobs=2), tiny_cfg).rows == serial


@pytest.mark.parametrize("experiment", ["fig4a", "fig5a", "fig5b", "fig3", "fig4b"])
def test_a_sweep_with_no_drop_work_forks_nothing(tiny_cfg, two_cpus, monkeypatch, reaped,
                                                 experiment):
    # the caller draws the gains, allocates every ppa and eppa row and
    # evaluates every closed form, fig4b's limits too, so without reference
    # solves or Monte-Carlo trials no drop is left for a worker
    plan = plan_for(experiment, gammas=(1, 3), n_large=4, jobs=2, n_small=0)
    serial = run_experiment(dataclasses.replace(plan, jobs=1), tiny_cfg).rows

    def refuse():
        raise AssertionError("the sweep forked")

    monkeypatch.setattr(forkmap.os, "fork", refuse)
    assert run_experiment(plan, tiny_cfg).rows == serial


@pytest.mark.parametrize("experiment, kwargs", [
    ("fig4a", dict(schemes=("eppa", "ppa", "ref"))),
    ("fig3", dict(n_small=2)),
])
def test_reference_solves_and_monte_carlo_still_fork(tiny_cfg, two_cpus, monkeypatch,
                                                     reaped, experiment, kwargs):
    plan = plan_for(experiment, gammas=(1, 3), n_large=3, jobs=2, **kwargs)
    serial = run_experiment(dataclasses.replace(plan, jobs=1), tiny_cfg).rows
    forks, fork = [], os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(forkmap.os, "fork", counted)
    assert run_experiment(plan, tiny_cfg).rows == serial
    assert len(forks) == 1


@pytest.fixture
def one_each():
    """Wraps a child's and the caller's task into one, such that each waits
    until the other has started its own: a two-worker map over two tasks
    then gives each worker one, whichever takes which (a child that did not
    wait could take both before the caller reads the queue)."""
    child_read, child_write = os.pipe()
    caller_read, caller_write = os.pipe()
    caller = os.getpid()

    def wrap(in_child, in_caller):
        def task(t):
            if os.getpid() == caller:
                os.read(child_read, 1)
                os.write(caller_write, b"x")
                return in_caller(t)
            os.write(child_write, b"x")
            os.read(caller_read, 1)
            return in_child(t)
        return task

    yield wrap
    for fd in (child_read, child_write, caller_read, caller_write):
        os.close(fd)


class TwoArgumentError(Exception):
    """Pickles, but does not unpickle: its ``args`` hold one argument."""

    def __init__(self, what, why):
        super().__init__(f"{what} failed: {why}")


class TestForkMap:
    """The drop-parallel map: results in task order, failures raised in the
    caller, and no child left behind, whatever fails."""

    @pytest.mark.parametrize("workers, n_tasks",
                             [(2, 7), (3, 8), (4, 10), (4, 5), (2, 3000)])
    def test_results_are_the_serial_list(self, reaped, workers, n_tasks):
        # 3000 tasks are more chunk starts than one write to a pipe holds
        def task(t):
            return t * t, [t] * (t % 7)

        assert fork_map(task, list(range(n_tasks)), workers) == [
            task(t) for t in range(n_tasks)]

    def test_one_worker_runs_in_process(self, reaped, monkeypatch):
        # neither a child nor the task queue's pipe
        def refuse():
            raise AssertionError("a one-worker map left the in-process path")

        monkeypatch.setattr(forkmap.os, "fork", refuse)
        monkeypatch.setattr(forkmap.os, "pipe", refuse)
        assert fork_map(lambda t: (t, os.getpid()), list(range(5)), 1) == [
            (t, os.getpid()) for t in range(5)]

    def test_a_slow_task_leaves_the_rest_to_the_other_worker(self, reaped):
        # task 0 ends only after the five others have run, so one worker
        # must take them all while the other holds task 0
        ran_read, ran_write = os.pipe()

        def task(t):
            if t == 0:
                for _ in range(5):
                    os.read(ran_read, 1)
            else:
                os.write(ran_write, b"x")
            return t

        try:
            assert fork_map(task, list(range(6)), 2) == list(range(6))
        finally:
            os.close(ran_read)
            os.close(ran_write)

    def test_a_childs_exception_carries_its_traceback(self, reaped, one_each):
        def fail(t):
            raise ValueError(f"bad task {t}")

        with pytest.raises(ValueError, match="bad task") as caught:
            fork_map(one_each(fail, lambda t: t), [0, 1], 2)
        cause = caught.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert "sweep worker 1" in str(cause)
        assert "Traceback" in str(cause) and ", in fail" in str(cause)

    def test_an_exception_that_does_not_pickle_keeps_its_traceback(self, reaped,
                                                                   one_each):
        def fail(t):
            exc = ValueError(f"bad task {t}")
            exc.hook = lambda: None
            raise exc

        with pytest.raises(WorkerError, match=r"^builtins\.ValueError: bad task \d$") as caught:
            fork_map(one_each(fail, lambda t: t), [0, 1], 2)
        cause = caught.value.__cause__
        assert isinstance(cause, RuntimeError) and "sweep worker 1" in str(cause)
        assert "Traceback" in str(cause) and ", in fail" in str(cause)

    def test_an_exception_that_does_not_unpickle_keeps_its_traceback(self, reaped,
                                                                     one_each):
        def fail(t):
            raise TwoArgumentError(f"task {t}", "on purpose")

        with pytest.raises(WorkerError, match=r"\.TwoArgumentError: task \d failed: "
                                              r"on purpose$") as caught:
            fork_map(one_each(fail, lambda t: t), [0, 1], 2)
        cause = caught.value.__cause__
        assert isinstance(cause, RuntimeError) and "sweep worker 1" in str(cause)
        assert "Traceback" in str(cause) and ", in fail" in str(cause)

    @pytest.mark.parametrize("child", ["blocked on a full pipe", "still running"])
    def test_a_failing_caller_kills_its_children_first(self, reaped, one_each, child):
        hold_read, hold_write = os.pipe()

        def in_child(t):
            if child == "still running":
                os.close(hold_write)
                os.read(hold_read, 1)  # until the test closes the pipe
            return np.zeros(1 << 20)  # 8 MB, far more than a pipe holds

        def in_caller(t):
            time.sleep(1 / 5)  # the child is, at most, writing its result
            raise KeyError("the caller's share")

        try:
            with pytest.raises(KeyError, match="the caller's share"):
                fork_map(one_each(in_child, in_caller), [0, 1], 2)
        finally:
            os.close(hold_read)
            os.close(hold_write)

    @pytest.mark.parametrize("code", [0, 3])
    def test_a_child_that_exits_without_results_is_named(self, reaped, one_each, code):
        with pytest.raises(RuntimeError, match=rf"sweep worker 1 \(pid \d+\) exited "
                                               rf"with code {code} and sent no results"):
            fork_map(one_each(lambda t: os._exit(code), lambda t: t), [0, 1], 2)

    @pytest.mark.skipif(len(_CPUS) < 2, reason="needs two CPUs to pin to")
    def test_each_worker_runs_on_a_cpu_of_its_own(self, reaped, one_each):
        def task(t):
            return os.getpid(), _cpu_mask()

        seen = dict(fork_map(one_each(task, task), [0, 1], 2))
        first, second = sorted(_CPUS)[:2]
        assert seen.pop(os.getpid()) == {first}  # the caller's
        assert list(seen.values()) == [{second}]  # the child's

    @pytest.mark.skipif(len(_CPUS) < 2, reason="needs two CPUs to pin to")
    @pytest.mark.parametrize("failing", [None, "caller", "child"])
    def test_the_callers_cpus_are_restored(self, reaped, one_each, failing):
        # also when the caller's share or a child's raises
        during = []

        def in_caller(t):
            during.append(_cpu_mask())
            if failing == "caller":
                raise KeyError("the caller's share")
            return t

        def in_child(t):
            if failing == "child":
                raise KeyError("a child's share")
            return t

        try:
            assert fork_map(one_each(in_child, in_caller), [0, 1], 2) == [0, 1]
        except KeyError:
            assert failing is not None
        else:
            assert failing is None
        # against the set at import: after an earlier test left it narrowed,
        # this map would pin nothing
        assert during == [{min(_CPUS)}] and _cpu_mask() == _CPUS

    @pytest.mark.parametrize("real", [True, False])
    def test_cpus_the_machine_lacks_leave_their_workers_unpinned(self, reaped,
                                                                 monkeypatch, real):
        # a faked affinity set; no machine has CPUs 65536 and 65537
        lacking = {1 << 16, (1 << 16) + 1}
        cpus = (_CPUS if real else set()) | lacking
        if len(cpus) > 10:
            pytest.skip("a worker for each CPU would be too many processes")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)

        def task(t):
            return t * t, _cpu_mask()

        results = fork_map(task, list(range(3 * len(cpus))), len(cpus))
        assert [r for r, _ in results] == [t * t for t in range(3 * len(cpus))]
        for _, mask in results:
            assert mask == _CPUS or (len(mask) == 1 and mask < _CPUS)


class TestSweepOutput:
    """With output going to a file (block-buffered), a fork map writes what
    the caller had buffered once, and what a child writes before it exits."""

    @staticmethod
    def _buffered(name, run):
        saved = getattr(sys, name)
        stream = open(os.dup(saved.fileno()), "w")
        setattr(sys, name, stream)
        try:
            run()
        finally:
            setattr(sys, name, saved)
            stream.close()

    def test_buffered_text_is_written_once(self, capfd, reaped):
        def run():
            sys.stdout.write("written before the sweep")
            assert fork_map(lambda t: -t, list(range(4)), 2) == [0, -1, -2, -3]

        self._buffered("stdout", run)
        assert capfd.readouterr().out == "written before the sweep"

    def test_a_childs_warning_reaches_stderr_once(self, tiny_cfg, capfd, two_cpus,
                                                  reaped, unconverged_solver,
                                                  one_each, monkeypatch):
        def show(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(f"{os.getpid()} {category.__name__}: {message}\n")

        monkeypatch.setattr(warnings, "showwarning", show)
        run_drop = harness._run_drop
        monkeypatch.setattr(harness, "_run_drop", one_each(run_drop, run_drop))
        plan = plan_for("fig4a", gammas=(1,), n_large=2, schemes=("ref",), jobs=2)

        def run():
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                run_experiment(plan, tiny_cfg)

        self._buffered("stderr", run)
        by_pid = {}
        for line in capfd.readouterr().err.splitlines():
            pid, text = line.split(" ", 1)
            by_pid.setdefault(int(pid), []).append(text)
        # one drop runs in the caller and one in the child; each drop's
        # unconverged solves warn once per estimator
        assert len(by_pid) == 2 and os.getpid() in by_pid
        for texts in by_pid.values():
            assert len(texts) == len(METHODS)
            for method in METHODS:
                assert sum(f"method={method} " in t for t in texts) == 1
            assert all(t.startswith("RuntimeWarning: reference solve did not converge")
                       for t in texts)

    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    @pytest.mark.parametrize("state", ["None", "closed"])
    def test_a_missing_or_closed_stream_does_not_stop_the_sweep(
            self, reaped, monkeypatch, stream, state):
        # as when a command runs with fd 1 or 2 closed, or a host closed it
        closed = open(os.devnull, "w")
        closed.close()
        monkeypatch.setattr(sys, stream, None if state == "None" else closed)
        assert fork_map(lambda t: t * t, list(range(4)), 2) == [0, 1, 4, 9]


class TestForkMapSize:
    """--jobs is bounded by the drops and by the CPUs this process may run
    on, not the host's."""

    @pytest.fixture
    def fork_maps(self, monkeypatch, reaped):
        # records the worker count of every fork map the sweep runs, and
        # runs it
        sizes = []

        def recording(fn, tasks, workers):
            sizes.append(workers)
            return fork_map(fn, tasks, workers)

        monkeypatch.setattr(harness, "fork_map", recording)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        return sizes

    def _run(self, tiny_cfg, jobs=8):
        # reference solves, so that the drops have work for the map
        plan = plan_for("fig4a", gammas=(1,), n_large=4, jobs=jobs, schemes=("ref",))
        return run_experiment(plan, tiny_cfg).rows

    def test_affinity_bounds_the_fork_map(self, tiny_cfg, fork_maps, monkeypatch):
        _fake_affinity(monkeypatch, {0, 1})
        rows = self._run(tiny_cfg)
        assert fork_maps == [2]
        _fake_affinity(monkeypatch, {3})
        assert self._run(tiny_cfg) == rows
        assert fork_maps == [2, 1]  # one usable CPU: one worker, in-process

    def test_cpu_count_without_affinity(self, tiny_cfg, fork_maps, monkeypatch):
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        self._run(tiny_cfg)
        assert fork_maps == [4]  # 64 CPUs, four drops
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        self._run(tiny_cfg)
        assert fork_maps == [4, 1]  # no CPU count: one worker, in-process

    def test_jobs_bound_the_fork_map(self, tiny_cfg, fork_maps, monkeypatch):
        _fake_affinity(monkeypatch, range(64))
        rows = self._run(tiny_cfg, jobs=3)
        assert self._run(tiny_cfg, jobs=1) == rows
        assert fork_maps == [3, 1]  # 64 CPUs, four drops


class TestMonteCarloKernel:
    """The batched kernel against pilot_phase -> estimate -> prefix errors."""

    @pytest.fixture
    def drop(self):
        # K >= 8, where numpy sums the users pairwise rather than in sequence
        cfg = SystemConfig(K=10, M=16, P_total=1.0e4, mu=1.5, seed=11)
        rng = np.random.default_rng(5)
        beta = 10.0 ** rng.uniform(-3.0, 0.0, (cfg.L, cfg.K))
        rho_stack = rng.uniform(0.5, 300.0, (8, cfg.L, cfg.K))
        rho_stack[1, 2] = 0.0  # a silent interfering cell
        rho_stack[5] = rho_stack[4]  # one power matrix under LS and MMSE, as EPPA
        return cfg, beta, rho_stack, (LS, MMSE, LS, MMSE, LS, MMSE, MMSE, LS)

    @pytest.mark.parametrize("m_values", [(2, 3, 5, 8, 11, 13, 16), (16,), (3,),
                                          (4, 9, 12)])
    def test_matches_reference_path_bitwise(self, drop, m_values, monkeypatch):
        cfg, beta, rho_stack, methods = drop
        d, n, m_top = 3, 4, max(m_values)
        # blocks of 3 trials, so the 4 trials span a full and a short block
        monkeypatch.setattr(harness, "_MC_BLOCK",
                            3 * (cfg.L + len(methods)) * cfg.K * m_top)
        channel_rng, noise_rng = _kernel_streams(cfg, d)
        seen = 0
        for h, h_hat, lam in _mc_trials(cfg, d, n, beta, rho_stack, methods, m_values):
            # the block's draws, redrawn as the kernel draws them
            b = len(h)
            ref_h = sample_channels(beta, b * m_top, channel_rng).reshape(
                cfg.L, cfg.K, b, m_top)
            noise = complex_normal((b, cfg.K, m_top), noise_rng)
            assert lam.shape == (b, len(methods), len(m_values))
            for s in range(b):
                assert np.array_equal(h[s], ref_h[:, :, s])
                for c, method in enumerate(methods):
                    obs = pilot_phase(ref_h[:, :, s], rho_stack[c], cfg.K, None)
                    obs = dataclasses.replace(obs, y=obs.y + noise[s].T)
                    est = estimate_ls(obs) if method == LS else estimate_mmse(obs, beta)
                    ref = rcee_prefix_samples(ref_h[0, :, s], est.h_hat, m_values)
                    assert np.array_equal(h_hat[s, c], est.h_hat)
                    assert np.array_equal(lam[s, c], ref.mean(axis=1))
            seen += b
        assert seen == n

    @pytest.mark.parametrize("m_values", [(2, 3, 5, 8, 11, 13, 16), _DESK_M_GRID])
    def test_gram_form_reproduces_the_antenna_errors(self, drop, m_values):
        # The Gram kernel's quadratic form, fed the Gram matrices of the
        # very vectors this kernel draws: h_0, the other cells' pilot sum
        # sum_{l>=1} sqrt(rho_lk) h_lk (a silent cell adds nothing) with
        # rho_other = 1, and the noise.  No randomness of its own.
        cfg, beta, rho_stack, methods = drop
        d, n = 3, 4
        idx = np.asarray(m_values) - 1
        pairs = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
        _, noise_rng = _kernel_streams(cfg, d)
        for h, _, lam in _mc_trials(cfg, d, n, beta, rho_stack, methods, m_values):
            # the block's noise, redrawn as the kernel draws it
            noise = complex_normal((len(h), cfg.K, max(m_values)), noise_rng)
            for s in range(len(h)):
                for c, method in enumerate(methods):
                    x = (h[s, 0],
                         np.einsum("lk,lkm->km", np.sqrt(rho_stack[c, 1:]), h[s, 1:]),
                         noise[s])
                    gram = np.stack([np.cumsum((x[i] * np.conj(x[j])).real,
                                               axis=-1)[:, idx].T for i, j in pairs])
                    gains = np.stack([beta[0], (rho_stack[c, 1:] * beta[1:]).sum(axis=0)])
                    powers = np.stack([rho_stack[c, 0], np.ones(cfg.K)])[None]
                    got = _prefix_rcee(gram, _error_weights(gains, powers, [method]))
                    np.testing.assert_allclose(got[0], lam[s, c], rtol=1e-12, atol=0.0)


def _kernel_streams(cfg, drop):
    """The antenna kernel's channel and pilot-noise streams of one drop."""
    tag = f"gamma={cfg.Gamma}"
    return (seed_schedule(cfg.seed, drop, f"channel/{tag}"),
            seed_schedule(cfg.seed, drop, f"pilot-noise/{tag}"))


class TestCollapsedCells:
    """fig3/fig4b draw (h_0k, sum_{l>=1} h_lk) in place of every cell."""

    def test_two_rows_of_gains_and_powers(self, table_beta):
        target = np.array([[500.0, 1500.0, 1000.0], [1000.0, 1000.0, 1000.0]])
        gains, powers = _collapse_cells(table_beta, target, np.array([1000.0, 700.0]))
        assert np.array_equal(gains, [table_beta[0], table_beta[1:].sum(axis=0)])
        assert np.array_equal(powers, [[target[0], np.full(3, 1000.0)],
                                       [target[1], np.full(3, 700.0)]])

    # Fixed before any run: the Gram draw against the full antenna draw at
    # every antenna count of the desk grid, for the eppa and ppa powers
    # under both methods, 2,000 trials a side, the antenna draw under root
    # seed 1 and the Gram draw under root seed 2, and a family-wise level
    # of 1% over the 3 x 4 x 7 = 84 (gamma, allocation, M) comparisons.
    N_TRIALS = 2000
    SEEDS = {"full": 1, "collapsed": 2}
    GRAM_KS_ALPHA = 0.01 / 84

    @pytest.mark.parametrize("gamma", [1, 3, 7])
    def test_gram_draw_keeps_the_law_of_the_antenna_draw(self, gamma):
        cfg = default_config("validate", seed=0).replace(Gamma=gamma)
        beta = drop_gains(cfg, 0)
        profile = ppa.eppa_profile(beta, cfg.P_total, cfg.K)
        combos = [(scheme, method) for scheme in ("eppa", "ppa") for method in METHODS]
        flat = np.full(len(combos), cfg.P_total / cfg.K)
        rho_stack = np.full((len(combos), cfg.L, cfg.K), cfg.P_total / cfg.K)
        for c, (scheme, method) in enumerate(combos):
            if scheme == "ppa":
                rho_stack[c, 0] = ppa.ppa_allocate(method, profile, cfg).rho
        methods = [method for _, method in combos]
        n = self.N_TRIALS
        antenna = np.concatenate([lam for _, _, lam in _mc_trials(
            cfg.replace(seed=self.SEEDS["full"]), 0, n, beta, rho_stack, methods,
            _DESK_M_GRID)])
        gram = np.concatenate(list(_gram_trials(
            cfg.replace(seed=self.SEEDS["collapsed"]), 0, n,
            *_collapse_cells(beta, rho_stack[:, 0], flat), methods, _DESK_M_GRID)))
        assert gram.shape == antenna.shape
        for c, combo in enumerate(combos):
            for i, m in enumerate(_DESK_M_GRID):
                _assert_same_law(antenna[:, c, i], gram[:, c, i], self.GRAM_KS_ALPHA,
                                 (combo, m))

    @pytest.mark.parametrize("dm", [1, 2, 3, 64])
    def test_gram_segment_means(self, dm):
        # E G = dm diag(beta_0, beta_S, 1) entry by entry, within 4
        # standard errors; the last user has no other cell, so its S row
        # and column are exactly zero
        gains = np.array([[0.5, 1.0e-2, 2.0], [0.2, 3.0, 0.0]])
        n = 20000
        g = _gram_segments(np.random.default_rng(7), n, [dm], gains)[:, :, 0]
        expected = dm * np.concatenate([gains, np.ones((1, 3)), np.zeros((3, 3))])
        se = g.std(axis=1, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(g.mean(axis=1) - expected) <= 4.0 * se), (
            g.mean(axis=1), expected, se)

    def test_single_cell_gets_a_silent_zero_row(self, table_beta):
        rho = np.full((2, 1, table_beta.shape[1]), 1000.0)
        gains, powers = _collapse_cells(table_beta[:1], rho[:, 0], np.full(2, 1000.0))
        assert np.array_equal(gains, [table_beta[0], np.zeros(3)])
        assert np.array_equal(powers, np.concatenate([rho, np.zeros_like(rho)], axis=1))


def _assert_same_law(a, b, alpha, label):
    """Two-sample KS at level ``alpha`` and means within 3 standard errors."""
    n = len(a)
    # asymptotic two-sample critical value c(alpha) sqrt(2 / n)
    critical = np.sqrt(-np.log(alpha / 2.0) / 2.0) * np.sqrt(2.0 / n)
    ks = ks_distance(empirical_cdf(a), empirical_cdf(b))
    assert ks < critical, (label, ks, critical)
    se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(n)
    assert abs(a.mean() - b.mean()) <= 3.0 * se, label


@pytest.mark.parametrize("cells", [1, 2])
def test_fig3_with_one_or_two_cells(cells):
    # one cell collapses to a silent zero row, two to that cell exactly
    cfg = default_config("fig3", seed=0).replace(L=cells)
    plan = dataclasses.replace(plan_for("fig3", gammas=(1,), n_large=4, n_small=50),
                               m_grid=(8, 64))
    report = run_experiment(plan, cfg)
    assert len(report.rows) == 2 * 2 * 2
    for row in report.rows:
        mc, se, closed = row[6], row[7], row[8]
        assert abs(mc - closed) <= 3.0 * se, row


def test_gram_memory_is_flat_in_the_trial_count():
    # a fig4b drop: 4 allocations at each of 7 budgets in one kernel run
    cfg = default_config("fig3", seed=0)
    beta = drop_gains(cfg, 0)
    flat = np.array([10.0 ** (p_db / 10.0) / cfg.K for p_db in _DESK_P_GRID_DB])
    target = np.broadcast_to(flat[:, None, None], (len(flat), 4, cfg.K))

    def peak(n_trials):
        plan = plan_for("fig4b", gammas=(1,), n_large=1, n_small=n_trials)
        tracemalloc.start()
        try:
            _mc_means(plan, cfg, 0, beta, target, flat, (cfg.M,))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8 * _GRAM_BLOCK) < 2 * peak(_GRAM_BLOCK)


def test_antenna_memory_is_flat_in_the_trials_and_antennas():
    # validate's drop: 4 allocations; a block holds 248 trials at M = 8
    # and 31 at M = 64, so every run below fills whole blocks.  The loop
    # holds one block while the kernel draws the next, so two blocks set
    # the peak.
    cfg = default_config("validate", seed=0)
    beta = drop_gains(cfg, 0)
    rho_stack = np.full((4, cfg.L, cfg.K), cfg.P_total / cfg.K)

    def peak(n_trials, M):
        tracemalloc.start()
        try:
            for _ in _mc_trials(cfg, 0, n_trials, beta, rho_stack, [LS, MMSE] * 2, (M,)):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    two_blocks = peak(2 * 248, 8)
    assert peak(16 * 248, 8) < 1.25 * two_blocks
    assert peak(16 * 248, 64) < 1.25 * two_blocks


# (K, M, L, seed, trials): with 4 allocations a block holds 3,276 trials at
# K=2, M=2, L=1; 655 at K=10, M=2, L=1; 248 at K=3, M=8, L=7; 163 at K=10,
# M=8, L=1; 74 at K=10, M=8, L=7; 297 at K=10, M=2, L=7; 9 at K=3, M=200,
# L=7 and 2 at K=10, M=200, L=7.  The cases marked * have a signal gain
# whose array square (x * x) is not the scalar square (C pow) in the last bit.
@pytest.mark.parametrize("K, M, L, seed, n", [
    (2, 2, 1, 6, 300),      # * one partial block
    (10, 2, 1, 17, 300),    # * one partial block
    (3, 8, 7, 0, 248),      # one full block
    (2, 2, 1, 1, 7000),     # several blocks, a partial last one
    (3, 8, 7, 2, 4000),     # the default validate config and trials
    (10, 8, 1, 31, 300),    # *
    (10, 8, 7, 10, 300),    # *
    (10, 2, 7, 3, 900),
    (3, 200, 7, 1, 50),
    (10, 200, 7, 1, 41),
])
def test_validate_moments_are_the_whole_ensemble_moments(K, M, L, seed, n, monkeypatch):
    # validate's running sums over the kernel's blocks against the oracle's
    # whole-ensemble moments on the same draws, bit for bit
    cfg = default_config("validate", seed=seed).replace(K=K, M=M, L=L)
    blocks, moments = [], []
    mc_trials, sinr_of = harness._mc_trials, harness.matched_filter_sinr

    def recorded_trials(*args):
        for h, h_hat, lam in mc_trials(*args):
            blocks.append((h.copy(), h_hat.copy()))
            yield h, h_hat, lam

    def recorded_sinr(*args):
        moments.append((args, sinr_of(*args)))
        return moments[-1][1]

    monkeypatch.setattr(harness, "_mc_trials", recorded_trials)
    monkeypatch.setattr(harness, "matched_filter_sinr", recorded_sinr)
    plan = plan_for("validate", n_small=n)
    report = run_experiment(plan, cfg)
    h = np.concatenate([b[0] for b in blocks])
    h_hat = np.concatenate([b[1] for b in blocks])
    assert len(h) == n and len(moments) == 1
    [(args, sinr)] = moments
    gain, cross, energy, rho_u = args
    assert rho_u == cfg.rho_u
    for c, (scheme, method) in enumerate(harness._combos(plan)):
        per_user = []
        for k in range(K):
            ref = empirical_sinr_terms(h, h_hat[:, c], k)
            assert gain[c, k] == ref[0], (c, k)
            assert np.array_equal(cross[c, k], ref[1]), (c, k)
            assert energy[c, k] == ref[2], (c, k)
            ref_sinr = sinr_of(*ref, cfg.rho_u)
            assert sinr[c, k] == ref_sinr, (c, k)
            per_user.append(ref_sinr)
        (row,) = report.select(metric="sinr", scheme=scheme, method=method)
        assert row[6] == float(np.mean(per_user))


def _validate_peak(cfg, n_trials) -> int:
    """Traced peak bytes of one validate run, after a collection."""
    gc.collect()
    tracemalloc.start()
    try:
        run_experiment(plan_for("validate", n_small=n_trials), cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validate_memory_is_flat_in_the_trial_count():
    # one block of channels and estimates at a time: only the C x n errors
    # grow with the trials (8 B per allocation and trial).  An untraced
    # warm-up run keeps the process's first-run allocations out of both
    # readings.
    cfg = default_config("validate", seed=0)
    run_experiment(plan_for("validate", n_small=4_000), cfg)
    assert _validate_peak(cfg, 64_000) - _validate_peak(cfg, 4_000) < 2 * (4 * 60_000 * 8)


def test_validate_memory_at_few_antennas():
    # At K = 10, M = 2 a block holds 297 trials, whose (n, C, K, L, K)
    # inner products (13.3 MB complex) and their squared magnitudes set
    # the peak: a block must not hold a further full-size copy of them,
    # nor the products of the next block beside those of this one.
    cfg = default_config("validate", seed=0).replace(K=10, M=2)
    run_experiment(plan_for("validate", n_small=300), cfg)
    assert _validate_peak(cfg, 4_000) < 23.7 * 2**20


def test_gram_draw_reaches_the_large_antenna_limit():
    # The abstract's claim that RCEE and Exp_rcee converge to one constant
    # as M grows.  The Gram draw costs the same at any M, so 2,000 trials
    # reach M = 1e8.  Bounds fixed before the first run: the per-trial
    # spread falls as 1/sqrt(M) (sd * sqrt(M) within 15% of its value at
    # M = 512), every mean is within 4 standard errors of the closed form
    # at its M, and the mean at 1e8 within 4 of the limit.
    cfg = default_config("validate", seed=0)
    beta = drop_gains(cfg, 0)
    profile = ppa.eppa_profile(beta, cfg.P_total, cfg.K)
    combos = [(scheme, method) for scheme in ("eppa", "ppa") for method in METHODS]
    rhos = []
    for scheme, method in combos:
        rho = np.full((cfg.L, cfg.K), cfg.P_total / cfg.K)
        if scheme == "ppa":
            rho[0] = ppa.ppa_allocate(method, profile, cfg).rho
        rhos.append(rho)
    m_values = np.array([512, 10**4, 10**6, 10**8])
    n = 2000
    gains, powers = _collapse_cells(beta, [rho[0] for rho in rhos],
                                    np.full(len(rhos), cfg.P_total / cfg.K))
    lam = np.concatenate(list(_gram_trials(cfg, 0, n, gains, powers,
                                           [m for _, m in combos], m_values)))
    assert lam.shape == (n, len(combos), len(m_values))
    sd = lam.std(axis=0, ddof=1)
    scaled = sd * np.sqrt(m_values)
    assert np.all(np.abs(scaled / scaled[:, :1] - 1.0) <= 0.15), scaled
    se = sd / np.sqrt(n)
    for c, (_, method) in enumerate(combos):
        closed = metrics.exp_rcee_closed(method, m_values, rhos[c], beta).mean(axis=-1)
        assert np.all(np.abs(lam[:, c].mean(axis=0) - closed) <= 4.0 * se[c])
        limit = metrics.exp_rcee_limit(method, rhos[c], beta).mean()
        assert abs(lam[:, c, -1].mean() - limit) <= 4.0 * se[c, -1]


def test_unconverged_reference_warns_and_keeps_bytes(tiny_cfg, request):
    plan = plan_for("fig4a", gammas=(1,), n_large=2, schemes=("eppa", "ppa", "ref"))
    quiet = run_experiment(plan, tiny_cfg)
    request.getfixturevalue("unconverged_solver")
    with pytest.warns(RuntimeWarning) as caught:
        flagged = run_experiment(plan, tiny_cfg)
    assert flagged.rows == quiet.rows
    text = str(caught[0].message)
    for part in ("method=ls", f"P_total={tiny_cfg.P_total!r}", "iterations=100000",
                 "pg_norm=2.500e-03"):
        assert part in text


def test_bench_rows_report_speedup():
    rows = bench_allocators(k_values=(2, 3), seed=1)
    assert [row[0] for row in rows] == [2, 3]
    for _, t_ppa, t_ref, speedup in rows:
        assert t_ppa > 0 and t_ref > 0
        assert speedup == pytest.approx(t_ref / t_ppa)
