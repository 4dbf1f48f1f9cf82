"""End-to-end acceptance criteria.

Each test exercises one advertised behavior of the package at its stated
tolerance and prints one ACCEPTANCE line (visible under ``pytest -s``).
All runs are seeded; the Monte-Carlo margins were chosen from measured
spreads, not tuned to pass.
"""

import math
import time

import numpy as np
import pytest

from mimo_pilot import (InterferenceProfile, SystemConfig, bench_allocators,
                        complex_normal, default_config, eppa_profile,
                        objective_value, plan_for, ppa_allocate,
                        run_experiment, sample_channels, seed_schedule,
                        unconstrained_optimum)
from mimo_pilot import exp_rcee_asymptotic
from mimo_pilot.cli import main
from mimo_pilot.estimators import LS, MMSE
from mimo_pilot.harness import _map_tasks, reference_solve
from mimo_pilot.metrics import exp_rcee_closed, exp_rcee_eppa_limit, exp_rcee_limit
from oracle import (empirical_cdf, estimate_ls, estimate_mmse, ks_distance, pilot_phase,
                    rcee_prefix_samples)

TWO_CELL_BETA = np.array([[1.0], [0.3]])
TWO_CELL_RHO = np.array([[4.0], [1.0]])
DESK_M_GRID = (8, 16, 32, 64, 128, 256, 512)


def _report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({detail})")


def _two_cell_error_samples(m_values, trials, purpose_prefix, seed=0):
    """Per-trial relative estimation errors on the fixed 2-cell scenario."""
    m_top = max(m_values)
    out = {m: {LS: [], MMSE: []} for m in m_values}
    for trial in range(trials):
        h = sample_channels(TWO_CELL_BETA, m_top,
                            seed_schedule(seed, trial, purpose_prefix + "-channel"))
        obs = pilot_phase(h, TWO_CELL_RHO, 1,
                          seed_schedule(seed, trial, purpose_prefix + "-noise"))
        for method, est in ((LS, estimate_ls(obs)),
                            (MMSE, estimate_mmse(obs, TWO_CELL_BETA))):
            vals = rcee_prefix_samples(h[0], est.h_hat, m_values)
            for i, m in enumerate(m_values):
                out[m][method].append(vals[i, 0])
    return out


def test_acceptance_01_estimation_error_matches_closed_forms():
    start = time.perf_counter()
    m_values = (2, 8, 64)
    samples = _two_cell_error_samples(m_values, 10_000, "accept1")
    worst = 0.0
    for m in m_values:
        for method in (LS, MMSE):
            arr = np.asarray(samples[m][method])
            closed = exp_rcee_closed(method, m, TWO_CELL_RHO[:, 0],
                                     TWO_CELL_BETA[:, 0])
            gap = abs(arr.mean() - closed)
            se = arr.std(ddof=1) / np.sqrt(arr.size)
            assert gap <= 3.0 * se
            assert gap / closed <= 0.03
            worst = max(worst, gap / closed)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(1, f"worst rel err {worst:.2%} over M in {m_values}, "
               f"both methods, {elapsed:.1f}s")


def test_acceptance_02_sinr_matches_closed_form_and_estimator_free():
    start = time.perf_counter()
    cfg = default_config("validate", seed=0)
    report = run_experiment(plan_for("validate", n_small=10_000), cfg)
    worst = 0.0
    for row in report.select(metric="sinr"):
        rel = abs(row[6] - row[8]) / abs(row[8])
        assert rel <= 0.03
        worst = max(worst, rel)
    # same pilot powers: the matched filter cannot tell the estimators apart
    ls = report.select(metric="sinr", method=LS, scheme="eppa")[0][6]
    mmse = report.select(metric="sinr", method=MMSE, scheme="eppa")[0][6]
    assert abs(ls - mmse) / ls <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(2, f"worst rel err {worst:.2%}, estimator gap "
               f"{abs(ls - mmse) / ls:.1e}, {elapsed:.1f}s")


def test_acceptance_03_error_hardens_with_antenna_count():
    start = time.perf_counter()
    m_values = (64, 1024, 4096)
    samples = _two_cell_error_samples(m_values, 600, "accept3")
    ratios, gaps = [], []
    for method in (LS, MMSE):
        spread_small = np.std(samples[64][method], ddof=1)
        spread_large = np.std(samples[1024][method], ddof=1)
        assert spread_small / spread_large >= 2.5
        ratios.append(spread_small / spread_large)
        mean = np.mean(samples[4096][method])
        limit = exp_rcee_limit(method, TWO_CELL_RHO[:, 0], TWO_CELL_BETA[:, 0])
        assert abs(mean - limit) / limit <= 0.02
        gaps.append(abs(mean - limit) / limit)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(3, f"std ratios {min(ratios):.1f}x, limit gaps "
               f"<= {max(gaps):.2%}, {elapsed:.1f}s")


def test_acceptance_04_channel_norm_moments():
    M, trials, beta = 8, 100_000, 0.7
    h = np.sqrt(beta) * complex_normal((trials, M), seed_schedule(0, 0, "accept4"))
    sq = np.sum(np.abs(h) ** 2, axis=1)
    quartic = np.mean(sq**2)
    want_quartic = M * (M + 1) * beta**2
    assert abs(quartic - want_quartic) / want_quartic <= 0.05
    inverse = np.mean(1.0 / sq)
    want_inverse = 1.0 / (beta * (M - 1))
    assert abs(inverse - want_inverse) / want_inverse <= 0.05
    _report(4, f"quartic rel {abs(quartic - want_quartic) / want_quartic:.2%}, "
               f"inverse rel {abs(inverse - want_inverse) / want_inverse:.2%}")


def test_acceptance_05_allocator_agrees_with_reference_solver(table_beta):
    start = time.perf_counter()
    instances = [(eppa_profile(table_beta, 3.0e3, 3),
                  SystemConfig(K=3, M=200, P_total=3.0e3, mu=1.5))]
    for i in range(99):
        K = 3 if i < 50 else 10
        P = 1.0e3 * K
        rng = seed_schedule(20260823, i, f"accept5-K{K}")
        beta0 = 10.0 ** rng.uniform(-1.5, 0.2, size=K)
        interference = 10.0 ** rng.uniform(-1.7, -0.8, size=K)
        prof = InterferenceProfile(upsilon=1.0 + (P / K) * interference,
                                   beta_target=beta0)
        instances.append((prof, SystemConfig(K=K, M=200, P_total=P, mu=1.5)))
    worst = 0.0
    for prof, cfg in instances:
        flat = np.full(cfg.K, cfg.P_total / cfg.K)
        for method in (LS, MMSE):
            alloc = ppa_allocate(method, prof, cfg)
            value = objective_value(method, alloc.rho, prof, cfg.M)
            result = reference_solve(method, prof, cfg)
            reference = objective_value(method, result.x, prof, cfg.M)
            gap = (value - reference) / abs(reference)
            assert gap <= 1e-4
            worst = max(worst, gap)
            flat_value = objective_value(method, flat, prof, cfg.M)
            assert value <= flat_value * (1.0 + 1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(5, f"100 instances (K=3 and K=10), worst rel gap "
               f"{worst:.1e}, {elapsed:.1f}s")


def test_acceptance_06_water_filling_kkt_exactness():
    worst_budget, worst_kkt = 0.0, 0.0
    for trial in range(100):
        rng = seed_schedule(0, trial, "accept6")
        K = int(rng.integers(2, 12))
        P = 1.0e4
        prof = InterferenceProfile(upsilon=10.0 ** rng.uniform(0.0, 3.0, K),
                                   beta_target=10.0 ** rng.uniform(-2.0, 0.0, K))
        rho = unconstrained_optimum(LS, prof, P)
        worst_budget = max(worst_budget, abs(rho.sum() - P) / P)
        constant = prof.upsilon / (prof.beta_target * rho**2)
        worst_kkt = max(worst_kkt, np.ptp(constant) / constant.mean())
    assert worst_budget <= 1e-9
    assert worst_kkt <= 1e-9
    # symmetric profiles split the budget into exactly equal shares
    for K in (2, 3, 4, 5, 8):
        P = 1.0e3 * K
        cfg = SystemConfig(K=K, M=8, P_total=P, mu=1.5)
        prof = InterferenceProfile(upsilon=np.full(K, 7.0),
                                   beta_target=np.full(K, 0.2))
        for method in (LS, MMSE):
            alloc = ppa_allocate(method, prof, cfg)
            assert np.all(alloc.rho == P / K)
    _report(6, f"budget residual {worst_budget:.1e}, KKT spread "
               f"{worst_kkt:.1e}, symmetric splits bit-exact")


def test_acceptance_07_high_budget_limits(table_beta):
    cfg_ref = SystemConfig(K=3, M=200, P_total=3.0e3, mu=1.5)
    budgets = (1.0e4, 1.0e6, 1.0e8, 1.0e10)
    final = 0.0
    for method in (LS, MMSE):
        predicted = exp_rcee_asymptotic(method, table_beta, cfg_ref)
        previous = None
        for P in budgets:
            cfg = SystemConfig(K=3, M=200, P_total=P, mu=1.5)
            alloc = ppa_allocate(method, eppa_profile(table_beta, P, 3), cfg)
            limits = np.array([exp_rcee_limit(
                method,
                np.concatenate([[alloc.rho[k]], np.full(6, P / 3.0)]),
                table_beta[:, k]) for k in range(3)])
            gaps = np.abs(limits - predicted) / predicted
            if previous is not None:
                assert np.all(gaps <= previous + 1e-12)
            previous = gaps
        assert np.all(previous <= 0.01)
        final = max(final, float(previous.max()))
        # the flat split converges to its own interference floor
        for k in range(3):
            eppa_limit = exp_rcee_eppa_limit(method, table_beta[:, k], 3, 1.0e10)
            floor = exp_rcee_eppa_limit(method, table_beta[:, k], 3, math.inf)
            assert abs(eppa_limit - floor) / floor <= 1e-6
    _report(7, f"per-user gap at 100 dB <= {final:.1e}, "
               "monotone over 40..100 dB, flat-split floors matched")


def test_acceptance_08_figure_sweeps_desk_scale():
    start = time.perf_counter()
    cfg = default_config("fig3", seed=0)

    fig3 = run_experiment(plan_for("fig3"), cfg)
    for gamma in (1, 3, 7):
        for method in (LS, MMSE):
            for M in DESK_M_GRID:
                ppa_row = fig3.select(gamma=gamma, method=method,
                                      scheme="ppa", x=M)[0]
                eppa_row = fig3.select(gamma=gamma, method=method,
                                       scheme="eppa", x=M)[0]
                assert ppa_row[8] <= eppa_row[8]

    fig4a = run_experiment(plan_for("fig4a"), cfg)
    ks = {}
    for gamma in (1, 3, 7):
        curves = {}
        for method in (LS, MMSE):
            rows = fig4a.select(gamma=gamma, method=method, scheme="ppa")
            curves[method] = empirical_cdf([row[5] for row in rows])
        ks[gamma] = ks_distance(curves[LS], curves[MMSE])
        if gamma == 1:
            grid = np.union1d(curves[LS].values, curves[MMSE].values)
            assert np.all(curves[MMSE].evaluate(grid)
                          >= curves[LS].evaluate(grid) - 1e-12)
    assert ks[1] > ks[3] > ks[7]

    fig5a = run_experiment(plan_for("fig5a", gammas=(3,)), cfg)
    for method in (LS, MMSE):
        for M in DESK_M_GRID:
            ppa_row = fig5a.select(method=method, scheme="ppa", x=M)[0]
            eppa_row = fig5a.select(method=method, scheme="eppa", x=M)[0]
            assert ppa_row[8] >= eppa_row[8]

    fig5b = run_experiment(plan_for("fig5b"), cfg)
    rows = {s: fig5b.select(method=MMSE, scheme=s) for s in ("ppa", "eppa")}
    means = {s: np.mean([row[5] for row in r]) for s, r in rows.items()}
    rel = abs(means["ppa"] - means["eppa"]) / means["eppa"]
    assert rel < 0.02

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(8, f"fig3/fig5a dominance, fig4a KS {ks[1]:.2f}>{ks[3]:.2f}>"
               f"{ks[7]:.2f}, fig5b gap {rel:.2%}, {elapsed:.0f}s")


@pytest.fixture(scope="module")
def desk_mc_sweeps():
    """The desk fig3 and fig4b reports at seed 0, swept once for the module."""
    cfg = default_config("fig3", seed=0)
    return {fig: run_experiment(plan_for(fig), cfg) for fig in ("fig3", "fig4b")}


def test_abstract_claims_on_desk_fig4b(desk_mc_sweeps):
    # At 80 dB the LS/MMSE gap of the allocator shrinks as the reuse factor
    # grows (LS approaches MMSE at large FRF and budget), and the MMSE gain
    # of PPA over the flat split grows with it (it matters at large FRF).
    fig4b = desk_mc_sweeps["fig4b"]
    gammas = (1, 3, 7)
    for column in ("closed_form", "mc_mean"):
        i = fig4b.columns.index(column)

        def at_80db(gamma, method, scheme):
            return fig4b.select(gamma=gamma, method=method, scheme=scheme,
                                x=80.0)[0][i]

        ls_over_mmse = [at_80db(g, LS, "ppa") / at_80db(g, MMSE, "ppa")
                        for g in gammas]
        eppa_over_ppa = [at_80db(g, MMSE, "eppa") / at_80db(g, MMSE, "ppa")
                         for g in gammas]
        assert ls_over_mmse[0] > ls_over_mmse[1] > ls_over_mmse[2], column
        assert eppa_over_ppa[0] < eppa_over_ppa[1] < eppa_over_ppa[2], column


def test_closed_form_error_falls_with_the_reuse_factor_on_desk_fig4b():
    # Every Gamma sees the same users and shadowing of a drop, so on every
    # desk fig4b series (method x scheme x budget) the closed-form error
    # falls strictly from Gamma = 1 to 3 to 7.  Seeds 0-9, fixed up front.
    series = 0
    for seed in range(10):
        report = run_experiment(plan_for("fig4b", n_small=0),
                                default_config("fig4b", seed=seed))
        i = report.columns.index("closed_form")
        for method in (LS, MMSE):
            for scheme in ("eppa", "ppa"):
                rows = [report.select(gamma=g, method=method, scheme=scheme)
                        for g in (1, 3, 7)]
                for one, three, seven in zip(*rows):
                    assert one[5] == three[5] == seven[5]
                    assert one[i] > three[i] > seven[i], (seed, one, three, seven)
                    series += 1
    assert series == 280


# |mc_mean - closed_form| / mc_stderr reached at most 0.186 over every
# desk fig3 and fig4b row at seeds 0-9 (mc_stderr is the spread over
# drops, so it also holds the drops' spread of the closed form); the bound
# is twice that, rounded up.
MC_STDERR_BOUND = 0.4


def test_monte_carlo_means_sit_on_the_closed_forms(desk_mc_sweeps):
    for report in desk_mc_sweeps.values():
        idx = {c: i for i, c in enumerate(report.columns)}
        for row in report.rows:
            mc, se, closed = (row[idx["mc_mean"]], row[idx["mc_stderr"]],
                              row[idx["closed_form"]])
            assert abs(mc - closed) <= MC_STDERR_BOUND * se, row


# Fixed before any run: every desk fig3 and fig4b row at seeds 0-2, 504
# rows of 20 drops, at a two-sided family-wise level of 1%, that is
# scipy.stats.t.isf(0.01 / 1008, 19) = 5.6304 (scipy is not a dependency).
PAIRED_Z_BOUND = 5.63


def test_monte_carlo_rows_pass_the_paired_per_drop_check():
    # The abstract's claim that the closed forms hold for any antenna
    # count, row by row.  Per drop, d = mc - closed shares the drop's gains
    # on both sides, so its standard error is the fading's alone, not the
    # drops' spread that mc_stderr carries.
    z = []
    for seed in range(3):
        cfg = default_config("fig3", seed=seed)
        for fig in ("fig3", "fig4b"):
            for arrays in _map_tasks(plan_for(fig), cfg).values():
                d = arrays["mc"] - arrays["closed"]  # (drops, combos, x)
                z.extend((d.mean(axis=0) / (d.std(axis=0, ddof=1) / np.sqrt(len(d)))).ravel())
    assert len(z) == 504
    assert np.max(np.abs(z)) <= PAIRED_Z_BOUND, np.max(np.abs(z))


def test_acceptance_09_deterministic_reruns(tmp_path):
    args = ["figure", "fig4b", "--gamma", "3", "--drops", "3", "--trials", "5",
            "--seed", "11"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # worker count must not leak into results either: fig5b alone runs in
    # the caller, with reference solves its drops go to two workers
    cfg = default_config("fig5b", seed=4)
    for schemes in (None, ("eppa", "ppa", "ref")):
        serial = run_experiment(plan_for("fig5b", gammas=(1,), n_large=4,
                                         schemes=schemes), cfg)
        parallel = run_experiment(plan_for("fig5b", gammas=(1,), n_large=4, jobs=2,
                                           schemes=schemes), cfg)
        assert serial.rows == parallel.rows
    _report(9, f"byte-identical CSV ({first.stat().st_size} bytes), "
               "jobs=1 == jobs=2")


def test_acceptance_10_allocator_speedup():
    rows = bench_allocators(k_values=tuple(range(2, 11)), seed=0)
    K, ppa_s, ref_s, slowest = min(rows, key=lambda row: row[3])
    assert slowest >= 10.0
    _report(10, f"speedup >= {slowest:.1f}x across K=2..10, smallest at K={K}: "
                f"ppa {ppa_s * 1e6:.1f} us, ref {ref_s * 1e6:.1f} us")
