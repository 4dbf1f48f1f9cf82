"""Experiment orchestration: seeding, Monte-Carlo sweeps and reports.

Every random draw comes from :func:`seed_schedule`, a counter-style
stream factory keyed by (root seed, slot, purpose tag).  Workers
therefore never share generator state, results do not depend on the
worker count, and a rerun with the same seed reproduces every byte of
the output.

Every drop runs one preamble, :func:`_run_drop`: gains, then the
allocations and pilot powers of each budget.  A table gives each
experiment its per-drop value function (one stacked closed-form call per
estimator) and one of three reductions over drops (a grid, a
distribution, or the validate rows).  With ``jobs`` > 1 the drops are
shared out by :func:`_fork_map`: the caller forks up to ``jobs`` - 1
children after ``numpy.random`` is loaded, so none loads it on its first
drop, and runs a share itself; every worker takes the next drops from one
queue as it finishes its last.  Every child is reaped before the sweep
returns or raises.  Parallel sweeps need ``os.fork`` (Linux; macOS forks
too, though its system libraries do not promise to survive a fork), and
a platform without it, such as Windows, runs the sweep in-process.

Monte-Carlo runs through two kernels.  fig3 and fig4b give every other
cell the flat P/K, so a user's estimate sees those cells only through the
sum of their channels (:func:`_collapse_cells`); its error over the first
m antennas is a quadratic form in the 3x3 Gram matrix of (target channel,
that sum, pilot noise), which :func:`_gram_trials` draws segment by
segment of the antenna grid, O(1) variates per user and segment.
validate needs every channel for its SINR, so :func:`_mc_trials` draws
each channel and noise block at every antenna.  Both kernels draw from
per-drop streams in blocks of trials, so their memory is flat in the
trial count.  One draw per trial serves every allocation and antenna
prefix of the drop, so all curves see common randomness.  The antenna
kernel is the tests' reference for the Gram draw, held bit for bit to the
literal antenna model in ``tests/oracle.py``.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from . import metrics, ppa
from .airlink import complex_normal, empirical_sinr_terms, sample_channels
from .estimators import LS, MMSE, METHODS
from .refsolver import ConstrainedProblem, solve
from .scenario import (REUSE_FACTORS, SystemConfig, build_layout, db_to_linear,
                       drop_users, large_scale)

EXPERIMENTS = ("fig3", "fig4a", "fig4b", "fig5a", "fig5b", "validate")
SCHEMES = ("ppa", "eppa", "ref")

GRID_COLUMNS = ("experiment", "metric", "gamma", "method", "scheme", "x",
                "mc_mean", "mc_stderr", "closed_form", "asymptote")
CDF_COLUMNS = ("experiment", "metric", "gamma", "method", "scheme", "value", "cdf")


def seed_schedule(seed: int, trial: int, purpose: str) -> np.random.Generator:
    """Independent generator for one (slot, purpose) pair under a root seed.

    Identical arguments always give an identical stream; distinct slots
    (``trial``) or purposes give statistically independent streams.  The
    purpose tag is hashed with crc32, which is stable across runs and
    platforms.

    A sweep's slot is always the drop.  Tags in use:
    ``positions`` and ``shadowing``, with no reuse factor in the tag, so
    every Gamma sees the same users and shadowing and only the interferer
    ring moves.  The fading streams stay per reuse factor, suffixed
    ``/gamma=<reuse factor>``: ``gram``, the fig3/fig4b Monte-Carlo
    trials, and ``channel`` and ``pilot-noise``, the validate trials.
    """
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError("seed must be a non-negative integer")
    if not (isinstance(trial, (int, np.integer)) and trial >= 0):
        raise ValueError("trial must be a non-negative integer")
    if not purpose:
        raise ValueError("purpose tag must be a non-empty string")
    tag = zlib.crc32(purpose.encode("utf-8"))
    return np.random.default_rng((int(seed), int(trial), tag))


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical distribution function."""

    values: np.ndarray  # sorted ascending

    def evaluate(self, x) -> np.ndarray | float:
        out = np.searchsorted(self.values, np.asarray(x), side="right") / self.values.size
        return float(out) if out.ndim == 0 else out

    def curve(self):
        """Jump points and the distribution level reached at each."""
        n = self.values.size
        return self.values, np.arange(1, n + 1) / n


def empirical_cdf(samples) -> EmpiricalCdf:
    s = np.asarray(samples, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("empirical distribution of an empty sample is undefined")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    return EmpiricalCdf(values=np.sort(s))


def ks_distance(a: EmpiricalCdf, b: EmpiricalCdf) -> float:
    """Kolmogorov-Smirnov distance between two empirical distributions.

    Both functions are piecewise constant, so the supremum is attained at
    a jump point of either one.
    """
    grid = np.union1d(a.values, b.values)
    return float(np.max(np.abs(a.evaluate(grid) - b.evaluate(grid))))


@dataclass(frozen=True)
class ExperimentPlan:
    """What to sweep and how hard to sample.

    ``n_large`` counts user drops (large-scale realizations), ``n_small``
    fast-fading trials per drop.  Schemes: "ppa" is the closed-form
    allocator, "eppa" flat P/K, "ref" the iterative reference solver.
    """

    experiment: str
    gammas: tuple[int, ...]
    m_grid: tuple[int, ...] = ()
    p_grid_db: tuple[float, ...] = ()
    n_large: int = 20
    n_small: int = 50
    schemes: tuple[str, ...] = ("ppa", "eppa")
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}")
        if not self.gammas or any(g not in REUSE_FACTORS for g in self.gammas):
            raise ValueError(f"gammas must be drawn from {REUSE_FACTORS}")
        if len(set(self.gammas)) != len(self.gammas):
            raise ValueError("gammas must not repeat a reuse factor")
        if any(m < 2 for m in self.m_grid):
            raise ValueError("antenna counts must be at least 2")
        if list(self.m_grid) != sorted(set(self.m_grid)):
            raise ValueError("m_grid must be strictly increasing")
        if self.n_large < 1 or self.n_small < 0:
            raise ValueError("n_large must be >= 1 and n_small >= 0")
        if self.experiment == "validate" and self.n_small < 2:
            # its SINR moments need two trials
            raise ValueError("validate needs at least 2 trials")
        if not self.schemes or any(s not in SCHEMES for s in self.schemes):
            raise ValueError(f"schemes must be drawn from {SCHEMES}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.experiment in ("fig3", "fig5a") and not self.m_grid:
            raise ValueError(f"{self.experiment} needs an antenna grid")
        if self.experiment == "fig4b" and not self.p_grid_db:
            raise ValueError("fig4b needs a budget grid in dB")


_DESK_M_GRID = (8, 16, 32, 64, 128, 256, 512)
_DESK_P_GRID_DB = (20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0)


def plan_for(experiment: str, paper_scale: bool = False, gammas=None,
             jobs: int = 1, schemes=None, n_large: int | None = None,
             n_small: int | None = None) -> ExperimentPlan:
    """Desk-scale defaults for each experiment, or the full-size counts.

    Desk scale keeps every qualitative effect visible in seconds; the
    paper-scale flag restores 100 drops x 100 fading trials.
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(f"experiment must be one of {EXPERIMENTS}")
    mc_drops = 100 if paper_scale else 20
    mc_trials = 100 if paper_scale else 50
    defaults: dict[str, dict] = {
        "fig3": dict(gammas=(1, 3, 7), m_grid=_DESK_M_GRID,
                     n_large=mc_drops, n_small=mc_trials),
        "fig4a": dict(gammas=(1, 3, 7), n_large=100, n_small=0),
        "fig4b": dict(gammas=(1, 3, 7), p_grid_db=_DESK_P_GRID_DB,
                      n_large=mc_drops, n_small=mc_trials),
        "fig5a": dict(gammas=(1,), m_grid=_DESK_M_GRID, n_large=mc_drops, n_small=0),
        "fig5b": dict(gammas=(1,), n_large=100, n_small=0),
        "validate": dict(gammas=(1,), n_large=1, n_small=4000),
    }
    kw = defaults[experiment]
    if gammas is not None:
        kw["gammas"] = tuple(gammas)
    if schemes is not None:
        kw["schemes"] = tuple(schemes)
    if n_large is not None:
        kw["n_large"] = n_large
    if n_small is not None:
        kw["n_small"] = n_small
    return ExperimentPlan(experiment=experiment, jobs=jobs, **kw)


def default_config(experiment: str = "fig3", seed: int = 0) -> SystemConfig:
    """Simulation defaults: 7 cells, 10 users, 40 dB budget, 20 dB data power.

    The validate experiment uses a smaller cell load and antenna count so
    its Monte-Carlo bands are tight within seconds.
    """
    if experiment == "validate":
        return SystemConfig(K=3, M=8, P_total=3.0e3, mu=1.5, rho_u=100.0, seed=seed)
    return SystemConfig(K=10, M=200, P_total=1.0e4, mu=3.0, rho_u=100.0, seed=seed)


@dataclass(frozen=True)
class MetricReport:
    """Flat result table of one experiment run."""

    experiment: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def select(self, **filters) -> list[tuple]:
        idx = {c: i for i, c in enumerate(self.columns)}
        return [row for row in self.rows
                if all(row[idx[c]] == v for c, v in filters.items())]


# ---------------------------------------------------------------------------
# per-drop work: each worker handles one (gamma, drop) pair


def _realization(cfg: SystemConfig, drop: int) -> np.ndarray:
    centers = build_layout(cfg)
    pos = drop_users(cfg, centers, seed_schedule(cfg.seed, drop, "positions"))
    return large_scale(cfg, centers, pos, seed_schedule(cfg.seed, drop, "shadowing"))


def reference_solve(method: str, profile: ppa.InterferenceProfile,
                    cfg: SystemConfig):
    """The iterative reference solver on the allocator's objective.

    The one place the reference problem is built: the budget and power
    box of ``cfg``, the objective of :func:`ppa.make_objective`.  Returns
    the solver's result.  An unconverged solve emits a
    ``RuntimeWarning``, so its point is never used without saying so.
    """
    fun, grad = ppa.make_objective(method, profile, cfg.M)
    problem = ConstrainedProblem(objective=fun, gradient=grad, total=cfg.P_total,
                                 lower=cfg.rho_min, upper=cfg.rho_max,
                                 dimension=cfg.K)
    result = solve(problem)
    if not result.converged:
        warnings.warn(f"reference solve did not converge: method={method} "
                      f"P_total={cfg.P_total!r} iterations={result.iterations} "
                      f"pg_norm={result.pg_norm:.3e}", RuntimeWarning, stacklevel=2)
    return result


def _kernel_inputs(beta_slice, rho_stack, m_values):
    """Checked (C, L, K) powers and antenna counts of a Monte-Carlo kernel."""
    L, K = beta_slice.shape
    rho_stack = np.asarray(rho_stack, dtype=float)
    if rho_stack.ndim != 3 or rho_stack.shape[1:] != (L, K):
        raise ValueError(f"rho_stack must have shape (C, {L}, {K})")
    if np.any(rho_stack < 0):
        raise ValueError("pilot powers must be non-negative")
    if np.any(rho_stack[:, 0] <= 0):
        raise ValueError("target-cell pilot powers must be positive")
    m_values = [int(m) for m in m_values]
    if m_values[0] < 1 or m_values != sorted(set(m_values)):
        raise ValueError("m_values must be increasing antenna counts")
    return rho_stack, m_values


def _shrinkage(beta_slice, rho_stack, methods):
    """(C, K) factor of each estimate: 1 under LS, and under MMSE the
    shrinkage rho_0 beta_0 / (sum_l rho_l beta_l + 1)."""
    mmse = np.array([m == MMSE for m in methods])
    shrink = np.ones((len(rho_stack), beta_slice.shape[1]))
    shrink[mmse] = (rho_stack[mmse, 0] * beta_slice[0]
                    / metrics._total(rho_stack[mmse], beta_slice))
    return shrink


# complex entries (channels plus estimates) per block of the antenna draw,
# so its memory grows with neither the trial count nor M
_MC_BLOCK = 1 << 16


def _mc_trials(cfg: SystemConfig, drop: int, n_trials: int, beta_slice,
               rho_stack, methods, m_values):
    """Monte-Carlo kernel: one drop's trials for C allocations at once.

    ``rho_stack[c]`` (L, K) is estimated with ``methods[c]``.  The L rows
    of ``beta_slice`` are the cells whose channels the pilots superimpose;
    row 0 is the target cell.  Each trial draws one channel at the largest
    of the increasing ``m_values`` and one pilot-noise block; both serve
    every allocation and antenna prefix (length-m estimates are the first
    m rows of the full ones), so every curve sees common randomness.
    Channels and noise come from one stream each per drop, in blocks of
    as many trials as fit in ``_MC_BLOCK`` complex entries (at least
    one): a block's (L, K, n M) channel draw is n trials of M antennas,
    its noise one (n, K, M) draw.  Yields ``(h, h_hat, lam)`` per block:
    the (n, L, K, M) channels, the (n, C, K, M) estimates and the
    (n, C, len(m_values)) user-averaged relative errors.  The arithmetic
    is that of the literal antenna model in ``tests/oracle.py``
    (pilot_phase -> estimate_ls / estimate_mmse -> rcee_prefix_samples)
    fed the same draws, so every value matches it bit for bit.
    """
    L, K = beta_slice.shape
    rho_stack, m_values = _kernel_inputs(beta_slice, rho_stack, m_values)
    sqrt_rho = np.sqrt(rho_stack)
    # Dividing a complex by a real c multiplies both parts by 1/c, and
    # multiplying an LS row by 1.0 leaves it as it is.
    inv_target = (1.0 / sqrt_rho[:, 0])[:, :, None]
    shrink = _shrinkage(beta_slice, rho_stack, methods)[:, :, None]
    m_top = m_values[-1]
    idx = np.asarray(m_values) - 1
    tag = f"gamma={cfg.Gamma}"
    channel_rng = seed_schedule(cfg.seed, drop, f"channel/{tag}")
    noise_rng = seed_schedule(cfg.seed, drop, f"pilot-noise/{tag}")
    per_block = max(1, _MC_BLOCK // ((L + len(rho_stack)) * K * m_top))
    for start in range(0, n_trials, per_block):
        n = min(per_block, n_trials - start)
        h = sample_channels(beta_slice, n * m_top, channel_rng).reshape(
            L, K, n, m_top).transpose(2, 0, 1, 3)
        # The pilot book is the K x K identity, so correlating the received
        # block with sequence k selects its column k:
        #   h_hat_k = (sum_l sqrt(rho_lk) h_lk + n_k) / sqrt(rho_0k).
        h_hat = np.einsum("clk,nlkm->nckm", sqrt_rho, h)
        h_hat += complex_normal((n, K, m_top), noise_rng)[:, None]
        h_hat *= inv_target
        h_hat *= shrink
        h0 = h[:, 0]
        err = np.cumsum(np.abs(h_hat - h0[:, None]) ** 2, axis=-1)[..., idx]
        sig = np.cumsum(np.abs(h0) ** 2, axis=-1)[..., idx]
        # users last and contiguous, so the mean sums them as the
        # reference path does
        ratio = np.ascontiguousarray(np.swapaxes(err / sig[:, None], -1, -2))
        yield h, h_hat, ratio.mean(axis=-1)


def _collapse_cells(beta, rho_stack):
    """Two-row gains and powers with the estimates' law of all L cells.

    Under the identity pilot book user k's estimate sees the other cells
    only through sum_l sqrt(rho_lk) h_lk.  When every allocation gives
    each other cell the same power rho_other_k, that sum is
    sqrt(rho_other_k) S_k with S_k = sum_{l>=1} h_lk ~ CN(0, sum_{l>=1}
    beta_lk I).  Returns the (2, K) gains (beta_0, sum_{l>=1} beta_l) and
    the (C, 2, K) powers (rho_0, rho_other), with a zero row of both for a
    single cell; raises ``ValueError`` unless rows l >= 1 of every (L, K)
    allocation in ``rho_stack`` are equal.
    """
    rho_stack = np.asarray(rho_stack, dtype=float)
    other = rho_stack[:, 1:]
    if np.any(other != other[:, :1]):
        raise ValueError("collapsing the cells needs one power per user "
                         "in every other cell")
    rho_other = other[:, 0] if other.shape[1] else np.zeros_like(rho_stack[:, 0])
    return (np.stack([beta[0], beta[1:].sum(axis=0)]),
            np.stack([rho_stack[:, 0], rho_other], axis=1))


# trials per block of the Gram draw, so its memory does not grow with the
# trial count
_GRAM_BLOCK = 1024


def _gram_segments(rng: np.random.Generator, n: int, segments, gains):
    """Real parts of the Gram matrices of (h_0k, S_k, n_k) over antenna segments.

    ``segments`` are antenna counts dm and ``gains`` the (2, K) rows of
    :func:`_collapse_cells`.  Returns (6, n, len(segments), K): the
    entries 00, 11, 22, 01, 02, 12 of Re sum_m x_m x_m^H over dm antennas,
    x_m ~ CN(0, D), D = diag(beta_0k, beta_Sk, 1), for n independent
    trials.  That sum is a complex Wishart matrix D^1/2 W D^1/2 with dm
    degrees of freedom.  For dm >= 3, W = T T^H by the Bartlett
    decomposition: T lower triangular, T_ii^2 ~ Gamma(dm - i) and
    T_ij ~ CN(0, 1) below the diagonal; shorter segments draw their dm
    vectors.
    """
    segments = np.asarray(segments)
    K = gains.shape[1]
    g = np.empty((6, n, len(segments), K))
    wide = segments >= 3
    n_wide = int(wide.sum())
    if n_wide:
        shape = (segments[wide] - np.arange(3)[:, None])[:, None, :, None]
        t2 = rng.standard_gamma(shape, size=(3, n, n_wide, K))
        z10, z20, z21 = complex_normal((3, n, n_wide, K), rng)
        t0, t1 = np.sqrt(t2[0]), np.sqrt(t2[1])
        g[0][:, wide] = t2[0]
        g[1][:, wide] = z10.real * z10.real + z10.imag * z10.imag + t2[1]
        g[2][:, wide] = (z20.real * z20.real + z20.imag * z20.imag
                         + z21.real * z21.real + z21.imag * z21.imag + t2[2])
        g[3][:, wide] = t0 * z10.real
        g[4][:, wide] = t0 * z20.real
        g[5][:, wide] = z20.real * z10.real + z20.imag * z10.imag + t1 * z21.real
    for s in np.flatnonzero(~wide):
        x = complex_normal((3, n, segments[s], K), rng)
        for e, (i, j) in enumerate(((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))):
            g[e][:, s] = (x[i].real * x[j].real + x[i].imag * x[j].imag).sum(axis=1)
    root_0, root_s = np.sqrt(gains)
    scale = np.stack([gains[0], gains[1], np.ones(K),
                      root_0 * root_s, root_0, root_s])
    return g * scale[:, None, None, :]


def _error_weights(gains, rho_stack, methods):
    """(6, C, 1, K) weights of the Gram entries in each squared error.

    With the two rows of :func:`_collapse_cells`, user k's estimate is
    shrink (h_0 + sqrt(rho_o / rho_0) S + n / sqrt(rho_0)), so its error
    is a . (h_0, S, n) with a = (shrink - 1, shrink sqrt(rho_o / rho_0),
    shrink / sqrt(rho_0)) and its squared norm over any antennas is
    a^T Re(G) a.  The weights are a_i a_j for the entries 00, 11, 22 and
    2 a_i a_j for 01, 02, 12.
    """
    shrink = _shrinkage(gains, rho_stack, methods)
    rho_0, rho_o = rho_stack[:, 0], rho_stack[:, 1]
    a0, a1, a2 = shrink - 1.0, shrink * np.sqrt(rho_o / rho_0), shrink / np.sqrt(rho_0)
    return np.stack([a0 * a0, a1 * a1, a2 * a2,
                     2.0 * a0 * a1, 2.0 * a0 * a2, 2.0 * a1 * a2])[:, :, None]


def _prefix_rcee(gram, weights):
    """User-averaged relative errors a^T Re(G) a / G_00 of prefix Grams.

    ``gram`` (6, ..., S, K) holds the entries of :func:`_gram_segments`
    summed over each antenna prefix, ``weights`` those of
    :func:`_error_weights`; returns (..., C, S).  The six terms are added
    elementwise in a fixed order, never through a matmul or an optimized
    einsum over the allocations, so a value does not depend on how many
    allocations are stacked beside it.
    """
    g = np.expand_dims(gram, -3)
    w = weights
    err = (w[0] * g[0] + w[1] * g[1] + w[2] * g[2]
           + w[3] * g[3] + w[4] * g[4] + w[5] * g[5])
    # users are the contiguous last axis, summed as the antenna kernel does
    return (err / g[0]).mean(axis=-1)


def _gram_trials(cfg: SystemConfig, drop: int, n_trials: int, gains, rho_stack,
                 methods, m_values):
    """Monte-Carlo kernel of fig3/fig4b over the collapsed cells.

    ``gains`` (2, K) and ``rho_stack`` (C, 2, K) come from
    :func:`_collapse_cells`; ``rho_stack[c]`` is estimated with
    ``methods[c]``.  Each trial draws every user's Gram matrix over the
    segments between the increasing ``m_values`` from one per-drop
    stream, in blocks of ``_GRAM_BLOCK`` trials; their running sums are
    the Gram matrices of the antenna prefixes, and one draw serves every
    allocation.  Yields each block's (n_block, C, len(m_values))
    user-averaged relative errors, whose law is that of
    :func:`_mc_trials` on the same rows.
    """
    rho_stack, m_values = _kernel_inputs(gains, rho_stack, m_values)
    weights = _error_weights(gains, rho_stack, methods)
    segments = np.diff(m_values, prepend=0)
    rng = seed_schedule(cfg.seed, drop, f"gram/gamma={cfg.Gamma}")
    for start in range(0, n_trials, _GRAM_BLOCK):
        n = min(_GRAM_BLOCK, n_trials - start)
        gram = np.cumsum(_gram_segments(rng, n, segments, gains), axis=2)
        yield _prefix_rcee(gram, weights)


def _mc_means(plan: ExperimentPlan, cfg: SystemConfig, drop: int, beta, budgets,
              m_values) -> dict | None:
    """Monte-Carlo mean error of every allocation, or None without trials.

    All budgets' allocations share one run of :func:`_gram_trials`, on the
    collapsed cells of :func:`_collapse_cells` and stacked budget-major;
    each (scheme, method) gets its means over budgets x ``m_values``.
    Each block's trials are summed in trial order, then the blocks in
    block order, so every mean is the same whatever is stacked beside it.
    """
    if plan.n_small == 0:
        return None
    combos = list(budgets[0])
    gains, powers = _collapse_cells(beta, [rhos[c] for rhos in budgets for c in combos])
    total = 0.0
    for lam in _gram_trials(cfg, drop, plan.n_small, gains, powers,
                            [m for _, m in combos] * len(budgets), m_values):
        total = total + np.cumsum(lam, axis=0)[-1]
    mc = (total / plan.n_small).reshape(len(budgets), len(combos), len(m_values))
    return {combo: mc[:, j].ravel() for j, combo in enumerate(combos)}


def _mean(values: np.ndarray) -> float:
    """``float(values.mean())`` bit for bit: ``mean`` is this same sum,
    then one division, behind a Python-level wrapper this skips."""
    return float(values.sum()) / values.size


def _error_means(beta, rhos, M=None) -> dict:
    """User-averaged error of each key's powers at M antennas, or in the large-M
    limit without M: one closed-form call per estimator on its keys' stack."""
    out = {}
    for method in METHODS:
        keys = [key for key in rhos if key[1] == method]
        stack = np.stack([rhos[key] for key in keys])
        err = (metrics.exp_rcee_limit(method, stack, beta) if M is None
               else metrics.exp_rcee_closed(method, M, stack, beta))
        out.update(zip(keys, err.mean(axis=-1)))
    return out


def _fig3_values(plan, cfg, drop, beta, budgets) -> dict:
    return {"closed": _error_means(beta, budgets[0], plan.m_grid),
            "limit": _error_means(beta, budgets[0]),
            "mc": _mc_means(plan, cfg, drop, beta, budgets, plan.m_grid)}


def _fig4b_values(plan, cfg, drop, beta, budgets) -> dict:
    # the infinite-budget floor: the flat split's, or the allocator's
    # high-budget limit, which the ppa and ref rows share
    ppa_limit = {m: _mean(ppa.exp_rcee_asymptotic(m, beta, cfg)) for m in METHODS}
    limit = {(s, m): _mean(metrics.exp_rcee_eppa_floor(m, beta)) if s == "eppa"
             else ppa_limit[m] for s, m in budgets[0]}
    per_budget = {key: [rhos[key] for rhos in budgets] for key in budgets[0]}
    return {"closed": _error_means(beta, per_budget, cfg.M), "limit": limit,
            "mc": _mc_means(plan, cfg, drop, beta, budgets, (cfg.M,))}


def _fig4a_values(plan, cfg, drop, beta, budgets) -> dict:
    return _error_means(beta, budgets[0])


def _fig5a_values(plan, cfg, drop, beta, budgets) -> dict:
    """The worst user's rate at each antenna count of the grid."""
    sinr = metrics.sinr_closed(plan.m_grid, np.stack([*budgets[0].values()]), beta, cfg.rho_u)
    rate_min = metrics.rate_summary(metrics.achievable_rate(cfg, sinr)).minimum
    return {"closed": dict(zip(budgets[0], rate_min)), "limit": None, "mc": None}


def _fig5b_values(plan, cfg, drop, beta, budgets) -> dict:
    """The users' average rate in the large-antenna limit."""
    sinr = metrics.sinr_limit(np.stack([*budgets[0].values()]), beta)
    rates = metrics.achievable_rate(cfg, sinr)
    return dict(zip(budgets[0], metrics.rate_summary(rates).average))


def _validate_values(plan, cfg, drop, beta, budgets) -> dict:
    """(mc_mean, mc_stderr, closed form, limit) of the error and the SINR."""
    rho_mats = budgets[0]
    stack = np.stack([*rho_mats.values()])
    n, C = plan.n_small, len(rho_mats)
    lam = np.empty((C, n))
    channels = np.empty((n, *beta.shape, cfg.M), dtype=complex)
    estimates = np.empty((n, C, cfg.K, cfg.M), dtype=complex)
    start = 0
    for h, h_hat, lam_b in _mc_trials(cfg, drop, n, beta, stack,
                                      [m for _, m in rho_mats], (cfg.M,)):
        block = slice(start, start + len(h))
        channels[block], estimates[block], lam[:, block] = h, h_hat, lam_b[:, :, 0].T
        start = block.stop
    closed, limit = _error_means(beta, rho_mats, cfg.M), _error_means(beta, rho_mats)
    sinr = metrics.sinr_closed(cfg.M, stack, beta, cfg.rho_u).mean(axis=-1)
    sinr_limit = metrics.sinr_limit(stack, beta).mean(axis=-1)
    out = {"exp_rcee": {}, "sinr": {}}
    for c, combo in enumerate(rho_mats):
        out["exp_rcee"][combo] = (_mean(lam[c]),
                                  float(lam[c].std(ddof=1) / np.sqrt(n)),
                                  float(closed[combo]), float(limit[combo]))
        emp = [empirical_sinr_terms(channels, estimates[:, c], cfg.rho_u, k).sinr
               for k in range(cfg.K)]
        out["sinr"][combo] = (float(np.mean(emp)), None,
                              float(sinr[c]), float(sinr_limit[c]))
    return out


def _run_drop(args):
    """The preamble of every drop, then its experiment's value function.

    ``args`` is (plan, config at the drop's reuse factor, drop index).  It
    draws the gains, then for each budget (one per ``p_grid_db`` entry in
    fig4b, else ``cfg.P_total``) the interference profile, every
    allocation and its (L, K) pilot powers: the flat P/K in every other
    cell, the allocation in row 0, keyed by (scheme, method) in sorted
    order, which is the kernel's order.
    """
    plan, cfg, drop = args
    beta = _realization(cfg, drop)
    budgets = []
    for cfg_p in ([cfg.replace(P_total=db_to_linear(p_db)) for p_db in plan.p_grid_db]
                  if plan.experiment == "fig4b" else [cfg]):
        profile = ppa.eppa_profile(beta, cfg_p.P_total, cfg.K)
        rhos = {}
        for scheme, method in sorted((s, m) for s in plan.schemes for m in METHODS):
            rho = np.full((cfg.L, cfg.K), cfg_p.P_total / cfg.K)
            if scheme == "ppa":
                rho[0] = ppa.ppa_allocate(method, profile, cfg_p).rho
            elif scheme == "ref":
                rho[0] = reference_solve(method, profile, cfg_p).x
            rhos[(scheme, method)] = rho
        budgets.append(rhos)
    return _PER_EXPERIMENT[plan.experiment][0](plan, cfg, drop, beta, budgets)


def _worker_count(jobs: int, n_tasks: int, n_cpus: int) -> int:
    """Worker count: never more workers than tasks or usable CPUs."""
    return min(jobs, n_tasks, n_cpus)


def _fork_map(fn, tasks: list, workers: int) -> list:
    """``[fn(task) for task in tasks]``, shared out over ``workers`` processes.

    The caller is one worker and forks ``workers - 1`` children.  Every
    worker takes chunks of tasks from one queue (:func:`_task_queue`)
    until it is empty, so a worker that draws a slow drop (a reference
    solve at a high budget can run to ``max_iter``) leaves the rest to
    the others.  A child pickles its (chunk start, results) pairs, or its
    exception and traceback text, down a pipe of its own.  The caller
    runs its share, reads every pipe, reaps every child, then raises the
    first failure in worker order (a child's traceback text is its cause)
    or returns the results in task order.  If the caller's own share
    fails, it kills and reaps every child first, so no child outlives the
    call.  Without ``os.fork`` the tasks run in-process.
    """
    if not hasattr(os, "fork"):
        return [fn(task) for task in tasks]
    queue, size = _task_queue(len(tasks))
    children = []  # (pid, read end of its pipe), in worker order
    try:
        for _ in range(1, workers):
            children.append(_fork_share(fn, tasks, queue, size))
        done = _take_chunks(fn, tasks, queue, size)
        payloads = [pipe.read() for _, pipe in children]
    except BaseException:
        import signal  # only a failed sweep needs it
        # so that no reap waits for a child to finish its share
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        codes = [_reap(pid, pipe) for pid, pipe in children]
    for w, ((pid, _), payload, code) in enumerate(zip(children, payloads, codes), 1):
        if code != 0 or not payload:
            raise RuntimeError(f"sweep worker {w} (pid {pid}) exited with code "
                               f"{code} and sent no results")
        share, failure, trace = pickle.loads(payload)
        if trace is not None:
            raise failure from RuntimeError(f"sweep worker {w} (pid {pid}) raised:\n"
                                            f"{trace}")
        done += share
    results = [None] * len(tasks)
    for start, chunk in done:
        results[start:start + len(chunk)] = chunk
    return results


_RECORD = 4  # bytes per chunk start in the task queue


def _task_queue(n_tasks: int):
    """A pipe that holds the start of every chunk of ``size`` tasks, then
    ends: its read end, and ``size``.  A read of one record takes exactly
    one chunk, whichever worker reads it.  A chunk is one task up to
    ``PIPE_BUF`` / 4 tasks (1024 on Linux) and grows past that, so that
    every record goes in one write of at most ``PIPE_BUF`` bytes, which
    an empty pipe takes without blocking."""
    read, write = os.pipe()
    try:
        size = -(-n_tasks * _RECORD // os.fpathconf(write, "PC_PIPE_BUF"))
        os.write(write, b"".join(start.to_bytes(_RECORD, "little")
                                 for start in range(0, n_tasks, size)))
    except BaseException:
        os.close(read)
        raise
    finally:
        os.close(write)
    return read, size


def _take_chunks(fn, tasks: list, queue: int, size: int) -> list:
    """Run chunks of tasks taken from the queue until it is empty; returns
    their (start, results) pairs."""
    done = []
    while record := os.read(queue, _RECORD):
        start = int.from_bytes(record, "little")
        done.append((start, [fn(task) for task in tasks[start:start + size]]))
    return done


def _flush_std_streams():
    """Flush stdout and stderr, skipping one that is None or closed."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):
            pass


def _fork_share(fn, tasks: list, queue: int, size: int):
    """Fork a child that takes chunks from the queue and sends their outcome
    down a new pipe; returns the child's pid and the pipe's read end."""
    read, write = os.pipe()
    # flushed here, what the caller has buffered is not written again by
    # the child
    _flush_std_streams()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        os.close(read)
        _run_share(fn, tasks, queue, size, write)
    os.close(write)
    return pid, open(read, "rb")


def _run_share(fn, tasks: list, queue: int, size: int, write: int):
    """A child's whole life: run its share, send the pickled (results,
    exception, traceback text) and exit, flushing its output but running
    none of the caller's exit handlers."""
    code = 1
    try:
        try:
            payload = pickle.dumps((_take_chunks(fn, tasks, queue, size), None, None))
        except BaseException as exc:  # sent to the caller, which raises it
            import traceback  # only a failed sweep needs it
            payload = pickle.dumps((None, exc, "".join(traceback.format_exception(exc))))
        with open(write, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        try:
            _flush_std_streams()
        finally:
            os._exit(code)


def _reap(pid: int, pipe) -> int:
    """Close a child's pipe and wait for it; returns its exit code."""
    pipe.close()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _map_tasks(plan: ExperimentPlan, cfg: SystemConfig):
    cfgs = [cfg.replace(Gamma=gamma) for gamma in plan.gammas]
    tasks = [(plan, cfg_g, drop) for cfg_g in cfgs for drop in range(plan.n_large)]
    getaffinity = getattr(os, "sched_getaffinity", None)
    n_cpus = len(getaffinity(0)) if getaffinity else os.cpu_count() or 1
    workers = _worker_count(plan.jobs, len(tasks), n_cpus)
    if workers == 1:
        results = [_run_drop(t) for t in tasks]
    else:
        # numpy.random loads lazily (some 13 ms): here the children inherit
        # it; at import time every in-process run would pay it instead
        import numpy.random  # noqa: F401
        results = _fork_map(_run_drop, tasks, workers)
    n = plan.n_large  # tasks run gamma by gamma, drop by drop
    return {g: results[i * n:(i + 1) * n] for i, g in enumerate(plan.gammas)}


def _mean_stderr(values) -> tuple[float, float | None]:
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else None
    return _mean(arr), se


def run_experiment(plan: ExperimentPlan, cfg: SystemConfig) -> MetricReport:
    """Execute one experiment; with ``jobs`` > 1 its drops run in forked
    children and in the caller (:func:`_fork_map`).

    At most ``jobs`` processes run, and no more than there are drops or
    CPUs this process may use.  Which process runs a drop depends on how
    fast the others finish theirs, but the reduction over drops always
    happens in drop order, so the report is a pure function of (plan,
    cfg) regardless of ``jobs``.
    """
    if cfg.K < 2:
        raise ValueError("experiments need at least two users per cell")
    per_gamma = _map_tasks(plan, cfg)
    combos = sorted((s, m) for s in plan.schemes for m in METHODS)
    _, reduce, metric = _PER_EXPERIMENT[plan.experiment]
    return reduce(plan, cfg, per_gamma, combos, metric)


def _grid_report(plan, cfg, per_gamma, combos, metric) -> MetricReport:
    """One row per (gamma, combo, x), averaged over drops in drop order.
    A drop's "mc" or "limit" is None where its sweep has none."""
    xs = ([float(p) for p in plan.p_grid_db] if plan.experiment == "fig4b"
          else plan.m_grid)
    rows = []
    for gamma in plan.gammas:
        drops = per_gamma[gamma]
        for combo in combos:
            scheme, method = combo
            limit = (None if drops[0]["limit"] is None
                     else _mean(np.array([d["limit"][combo] for d in drops])))
            for i, x in enumerate(xs):
                closed = _mean(np.array([d["closed"][combo][i] for d in drops]))
                mc, se = ((None, None) if drops[0]["mc"] is None
                          else _mean_stderr([d["mc"][combo][i] for d in drops]))
                rows.append((plan.experiment, metric, gamma, method, scheme, x,
                             mc, se, closed, limit))
    return MetricReport(plan.experiment, GRID_COLUMNS, tuple(rows))


def _cdf_report(plan, cfg, per_gamma, combos, metric) -> MetricReport:
    """The empirical distribution over drops of each (gamma, combo) value."""
    rows = []
    for gamma in plan.gammas:
        for scheme, method in combos:
            cdf = empirical_cdf([d[(scheme, method)] for d in per_gamma[gamma]])
            for value, level in zip(*cdf.curve()):
                rows.append((plan.experiment, metric, gamma, method, scheme,
                             float(value), float(level)))
    return MetricReport(plan.experiment, CDF_COLUMNS, tuple(rows))


def _validate_report(plan, cfg, per_gamma, combos, metric) -> MetricReport:
    """Closed forms against Monte-Carlo at the configured M, one row per drop."""
    rows = []
    for gamma in plan.gammas:
        for label in ("exp_rcee", "sinr"):
            for scheme, method in combos:
                for d in per_gamma[gamma]:
                    rows.append(("validate", label, gamma, method, scheme, cfg.M,
                                 *d[label][(scheme, method)]))
    return MetricReport("validate", GRID_COLUMNS, tuple(rows))


# experiment -> (values of one drop, reduction over drops, metric label)
_PER_EXPERIMENT = {
    "fig3": (_fig3_values, _grid_report, "exp_rcee"),
    "fig4a": (_fig4a_values, _cdf_report, "exp_rcee"),
    "fig4b": (_fig4b_values, _grid_report, "exp_rcee"),
    "fig5a": (_fig5a_values, _grid_report, "rate_min"),
    "fig5b": (_fig5b_values, _cdf_report, "rate_av"),
    "validate": (_validate_values, _validate_report, None),
}


# ---------------------------------------------------------------------------
# allocator timing


def bench_allocators(k_values=(2, 3, 4, 5, 6, 7, 8, 9, 10), seed: int = 0,
                     budget: float = 1.0e4) -> list[tuple]:
    """Time the closed-form allocator against the reference solver.

    One synthetic interference profile per K; both solvers minimize the
    same average-error objective.  Returns rows (K, closed-form seconds,
    reference seconds, speedup), each the best of three measurements.
    """
    rows = []
    for K in k_values:
        rng = seed_schedule(seed, K, "bench-profile")
        ups = 1.0 + (budget / K) * 10.0 ** rng.normal(-1.5, 0.6, K)
        beta0 = 10.0 ** rng.normal(-1.0, 0.6, K)
        profile = ppa.InterferenceProfile(upsilon=ups, beta_target=beta0)
        cfg = SystemConfig(K=K, M=200, P_total=budget, mu=1.5, seed=seed)

        loops = 100
        best_ppa = min(
            _timed(lambda: ppa.ppa_allocate(LS, profile, cfg), loops)
            for _ in range(3))
        best_ref = min(_timed(lambda: reference_solve(LS, profile, cfg), 1)
                       for _ in range(3))
        rows.append((K, best_ppa, best_ref, best_ref / best_ppa))
    return rows


def _timed(fn, loops: int) -> float:
    start = time.perf_counter()
    for _ in range(loops):
        fn()
    return (time.perf_counter() - start) / loops
