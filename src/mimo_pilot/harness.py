"""Experiment orchestration: seeding, Monte-Carlo sweeps and reports.

Every random draw comes from :func:`seed_schedule`, a counter-style
stream factory keyed by (root seed, slot, purpose tag).  Workers
therefore never share generator state, results do not depend on the
worker count, and a rerun with the same seed reproduces every byte of
the output.

A sweep draws all its drops in one pass: one :func:`drop_users` and one
:func:`large_scale` call take every drop's ``positions`` and ``shadowing``
streams, each filling its own drop's draws, on the stack of every reuse
factor's layout.  It then fills the ppa powers of every (gamma, drop,
budget) by one stacked allocator pass per estimator and the eppa powers
with the flat P/K.  Left per drop are its reference solves and the
Monte-Carlo of its fading streams, :func:`_run_drop`, shared out over up
to ``jobs`` processes by :func:`forkmap.fork_map`; a sweep with neither
maps nothing.  The closed forms are then evaluated one gamma at a time
over blocks of drops, one call per estimator on a block's stacked gains
and powers, and reach the report as one dict of named (drop, combo, ...)
arrays per gamma (:func:`_map_tasks`).  A table gives each experiment
its Monte-Carlo, its closed forms and one of three reductions over drops
(a grid, a distribution, or the validate rows).

Monte-Carlo runs through two kernels.  fig3 and fig4b give every other
cell the flat P/K, so a user's estimate sees those cells only through the
sum of their channels (:func:`_collapse_cells`); its error over the first
m antennas is a quadratic form in the 3x3 Gram matrix of (target channel,
that sum, pilot noise), which :func:`_gram_trials` draws segment by
segment of the antenna grid, O(1) variates per user and segment.
validate needs every channel for its SINR, so :func:`_mc_trials` draws
each channel and noise block at every antenna.  Both kernels draw from
per-drop streams in blocks of trials, so their memory is flat in the
trial count; validate carries its SINR moments as running sums over the
blocks, in trial order, so it holds one block, not the ensemble.  One
draw per trial serves every allocation and antenna prefix of the drop,
so all curves see common randomness.  The antenna kernel is the tests'
reference for the Gram draw, held bit for bit to the literal antenna
model in ``tests/oracle.py``.  Neither kernel checks its inputs: the
powers are allocations in the power box, each at least rho_min > 0, or
the flat P/K, and the antenna counts come from a validated plan or
``cfg.M``.
"""

from __future__ import annotations

import math
import os
import time
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from . import metrics, ppa
from .airlink import complex_normal, matched_filter_sinr, sample_channels
from .estimators import LS, MMSE, METHODS
from .forkmap import fork_map
from .refsolver import solve
from .scenario import (REUSE_FACTORS, SystemConfig, build_layout, db_to_linear, drop_users,
                       large_scale)

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

    A sweep's slot is always the drop.  Tags in use, opened once per drop:
    ``positions`` and ``shadowing``, with no reuse factor in the tag, so
    every Gamma sees the same users and shadowing and only the interferer
    ring moves.  Once per (Gamma, drop): the fading streams, suffixed
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
# per-drop work: each task is one drop at every reuse factor of the plan


def drop_gains(cfg: SystemConfig, drop: int) -> np.ndarray:
    """The (L, K) gains of drop ``drop`` at ``cfg``'s reuse factor, as the
    sweeps draw it (``build_layout`` -> ``drop_users`` -> ``large_scale``)."""
    centers = build_layout(cfg)
    positions = drop_users(cfg, centers, seed_schedule(cfg.seed, drop, "positions"))
    return large_scale(cfg, centers, positions, seed_schedule(cfg.seed, drop, "shadowing"))


def reference_solve(method: str, profile: ppa.InterferenceProfile,
                    cfg: SystemConfig):
    """The iterative reference solver on the allocator's objective.

    The one place the reference problem is built: the budget and power
    box of ``cfg``, the objective of :func:`ppa.make_objective`.  Returns
    the solver's result.  An unconverged solve emits a
    ``RuntimeWarning``, so its point is never used without saying so.
    """
    fun, grad = ppa.make_objective(method, profile, cfg.M)
    result = solve(fun, grad, total=cfg.P_total, lower=cfg.rho_min,
                   upper=cfg.rho_max, dimension=cfg.K)
    if not result.converged:
        warnings.warn(f"reference solve did not converge: method={method} "
                      f"P_total={cfg.P_total!r} kkt={result.kkt:.3e} "
                      f"iterations={result.iterations} pg_norm={result.pg_norm:.3e}",
                      RuntimeWarning, stacklevel=2)
    return result


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


def _collapse_cells(beta, target, flat):
    """Two-row gains and powers with the estimates' law of all L cells.

    Under the identity pilot book user k's estimate sees the other cells
    only through sum_l sqrt(rho_lk) h_lk.  Every other cell gives each
    user the same flat power, so that sum is sqrt(flat) S_k with S_k =
    sum_{l>=1} h_lk ~ CN(0, sum_{l>=1} beta_lk I).  ``target`` holds C
    allocations' (K,) target-cell rows and ``flat`` their C flat powers.
    Returns the (2, K) gains (beta_0, sum_{l>=1} beta_l) and the (C, 2,
    K) powers (target, flat), with a zero row of both for a single cell.
    """
    target = np.asarray(target, dtype=float)
    other = np.zeros_like(target)
    if len(beta) > 1:
        other[...] = np.asarray(flat, dtype=float)[:, None]
    return np.stack([beta[0], beta[1:].sum(axis=0)]), np.stack([target, other], axis=1)


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
    weights = _error_weights(gains, rho_stack, methods)
    segments = np.diff(m_values, prepend=0)
    rng = seed_schedule(cfg.seed, drop, f"gram/gamma={cfg.Gamma}")
    for start in range(0, n_trials, _GRAM_BLOCK):
        n = min(_GRAM_BLOCK, n_trials - start)
        gram = np.cumsum(_gram_segments(rng, n, segments, gains), axis=2)
        yield _prefix_rcee(gram, weights)


def _mc_means(plan: ExperimentPlan, cfg: SystemConfig, drop: int, beta, target, flat,
              m_values) -> dict:
    """Monte-Carlo mean error of every allocation, ``mc``.

    ``target`` holds the (B, C, K) target-cell powers of the sorted
    (scheme, method) combos at each budget, ``flat`` the (B,) flat P/K of
    the other cells.  All of them share one run of :func:`_gram_trials`,
    on the collapsed cells of :func:`_collapse_cells` and stacked
    budget-major; ``mc`` is (C, budgets x ``m_values``), combos sorted.
    Each block's trials are summed in trial order, then the blocks in
    block order, so every mean is the same whatever is stacked beside it.
    """
    combos = _combos(plan)
    B, C, K = target.shape
    gains, powers = _collapse_cells(beta, target.reshape(B * C, K), np.repeat(flat, C))
    total = 0.0
    for lam in _gram_trials(cfg, drop, plan.n_small, gains, powers,
                            [m for _, m in combos] * B, m_values):
        total = total + np.cumsum(lam, axis=0)[-1]
    mc = (total / plan.n_small).reshape(B, C, len(m_values))
    return {"mc": np.moveaxis(mc, 1, 0).reshape(C, -1)}


def _mean(values: np.ndarray) -> float:
    """``float(values.mean())`` bit for bit: ``mean`` is this same sum,
    then one division, behind a Python-level wrapper this skips."""
    return float(values.sum()) / values.size


def _full_powers(target, flat, L: int) -> np.ndarray:
    """(..., B, C, L, K) powers: target rows, then budget b's flat P/K."""
    rho = np.empty((*target.shape[:-1], L, target.shape[-1]))
    rho[...] = flat[:, None, None, None]
    rho[..., 0, :] = target
    return rho


def _running(total, rows):
    """``total`` plus the sum of ``rows`` over axis 0, added row by row in
    order: the float sequence of one ``cumsum`` over every row so far."""
    for row in rows:
        total = row.copy() if total is None else np.add(total, row, out=total)
    return total


def _validate_mc(plan, cfg, drop, beta, target, flat, m_values) -> dict:
    """Each allocation's error mean and mean empirical SINR, ``mc`` (C, 2),
    and the error's standard error over the trials, ``mc_stderr`` (C,).

    The SINR moments of every allocation and user are running sums over
    the kernel's blocks, in trial order, so one block of channels and
    estimates is held at a time.
    """
    combos = _combos(plan)
    n, C = plan.n_small, len(combos)
    lam = np.empty((C, n))
    own = cross = energy = None
    start = 0
    for h, h_hat, lam_b in _mc_trials(cfg, drop, n, beta, _full_powers(target, flat, cfg.L)[0],
                                      [m for _, m in combos], m_values):
        lam[:, start:start + len(h)] = lam_b[:, :, 0].T
        start += len(h)
        conj = np.conj(h_hat)
        inner = np.einsum("nckm,nljm->ncklj", conj, h)  # hhat_ck^H h_lj
        own = _running(own, np.diagonal(inner[:, :, :, 0], axis1=2, axis2=3))
        # |inner|^2 squared in place (the arithmetic of ** 2) and rebound,
        # so that the complex products of two blocks are never held at once
        inner = np.abs(inner)
        inner *= inner
        cross = _running(cross, inner)
        energy = _running(energy, np.matmul(conj[..., None, :], h_hat[..., None]).real[..., 0, 0])
    # C pow, as a scalar's ** 2 is; an array's ** 2 is x * x, which can
    # differ in the last bit
    sinr = matched_filter_sinr(np.float_power(np.abs(own / n), 2), cross / n, energy / n,
                               cfg.rho_u)
    return {"mc": np.stack([lam.mean(axis=1), sinr.mean(axis=1)], axis=-1),
            "mc_stderr": lam.std(axis=1, ddof=1) / np.sqrt(n)}


def _run_drop(args):
    """One drop's reference solves and Monte-Carlo at each reuse factor.

    ``args`` is (plan, sweep, drop, gains, powers): the sweep's per-gamma
    configs, budget configs and (Gamma, budgets) flat P/K, and the drop's
    (Gamma, L, K) gains and (Gamma, budgets, C, K) target-cell powers of
    the sorted (scheme, method) combos, all but the ref rows filled.
    Returns the powers with those filled too and each gamma's Monte-Carlo
    arrays (none where the sweep has no Monte-Carlo)."""
    plan, (cfgs, budget_cfgs, flats), drop, gains, powers = args
    combos, drop_mc = _combos(plan), _drop_mc(plan)
    refs = [(c, method) for c, (scheme, method) in enumerate(combos) if scheme == "ref"]
    powers, mc = powers.copy(), []
    for cfg, cfg_ps, flat, beta, rows in zip(cfgs, budget_cfgs, flats, gains, powers):
        for cfg_p, row in zip(cfg_ps, rows) if refs else ():
            profile = ppa.eppa_profile(beta, cfg_p.P_total, cfg.K)
            for c, method in refs:
                row[c] = reference_solve(method, profile, cfg_p).x
        mc.append(drop_mc(plan, cfg, drop, beta, rows, flat, plan.m_grid or (cfg.M,))
                  if drop_mc else {})
    return powers, mc


def _combos(plan: ExperimentPlan) -> list:
    return sorted((s, m) for s in plan.schemes for m in METHODS)


def _drop_mc(plan: ExperimentPlan):
    """The experiment's Monte-Carlo of one drop, or None without trials."""
    return _PER_EXPERIMENT[plan.experiment][0] if plan.n_small else None


# bytes per block of drops in the closed-form pass (its powers and one value per
# user, allocation and antenna count), so that its memory is flat in the drops
_CF_BLOCK = 1 << 16


def _map_tasks(plan: ExperimentPlan, cfg: SystemConfig) -> dict:
    """Each gamma's named arrays, drops (in drop order) on axis 0 and the
    sorted (scheme, method) combos on axis 1: ``mc`` the Monte-Carlo means
    and ``closed`` the closed forms over the sweep's x values, ``limit``
    the large-antenna (fig4b: infinite-budget) value, and for validate,
    whose x are (error, SINR), ``mc_stderr`` the error's standard error
    over trials.  A sweep has only the arrays its figure reports, and no
    ``mc`` without trials.  The work runs in the order the module
    docstring gives."""
    cfgs = [cfg.replace(Gamma=gamma) for gamma in plan.gammas]
    budget_cfgs = [[c.replace(P_total=db_to_linear(p_db)) for p_db in plan.p_grid_db]
                   if plan.experiment == "fig4b" else [c] for c in cfgs]
    layouts = np.stack([build_layout(c) for c in cfgs])
    positions = drop_users(cfg, layouts, _drop_streams(plan, cfg, "positions"))
    gains = large_scale(cfg, layouts, positions, _drop_streams(plan, cfg, "shadowing"))
    gains = np.ascontiguousarray(gains.swapaxes(0, 1))  # (Gamma, drop, L, K)
    (G, n, L, K), B = gains.shape, len(budget_cfgs[0])
    # each (gamma, budget)'s budget and box, shaped (Gamma, 1, budgets)
    P, lo, hi = (np.array([[[getattr(c, name) for c in cfg_ps]] for cfg_ps in budget_cfgs])
                 for name in ("P_total", "rho_min", "rho_max"))
    flats = P[:, 0] / K
    combos, closed_forms = _combos(plan), _PER_EXPERIMENT[plan.experiment][1]
    # the flat P/K where no allocation goes, ref rows until they are solved
    powers = np.broadcast_to(flats[:, None, :, None, None], (G, n, B, len(combos), K)).copy()
    for c, method in [(c, m) for c, (scheme, m) in enumerate(combos) if scheme == "ppa"]:
        powers[..., c, :] = ppa._allocate_rows(method, gains[:, :, None], P, lo, hi)
    mc = [[{}] * G] * n
    if _drop_mc(plan) or "ref" in plan.schemes:
        tasks = [(plan, (cfgs, budget_cfgs, flats), d, gains[:, d], powers[:, d])
                 for d in range(n)]
        getaffinity = getattr(os, "sched_getaffinity", None)
        n_cpus = len(getaffinity(0)) if getaffinity else os.cpu_count() or 1
        filled, mc = zip(*fork_map(_run_drop, tasks, min(plan.jobs, n, n_cpus)))
        powers = np.stack(filled, axis=1)
    size = max(1, _CF_BLOCK // (8 * B * len(combos) * K * (L + max(1, len(plan.m_grid)))))
    per_gamma = {}
    for g, cfg_g in enumerate(cfgs):
        blocks = [closed_forms(plan, cfg_g, combos, gains[g, i:i + size, None, None],
                               _full_powers(powers[g, i:i + size], flats[g], L))
                  for i in range(0, n, size)]
        per_gamma[cfg_g.Gamma] = {**{k: np.stack([x[g][k] for x in mc]) for k in mc[0][g]},
                                  **{k: np.concatenate([b[k] for b in blocks]) for k in blocks[0]}}
    return per_gamma


def _drop_streams(plan: ExperimentPlan, cfg: SystemConfig, purpose: str) -> list:
    """Every drop's ``purpose`` stream, in drop order."""
    return [seed_schedule(cfg.seed, d, purpose) for d in range(plan.n_large)]


def _per_method(combos, rho, fn, beta, *m_values) -> np.ndarray:
    """(n, B, C, ...) user means of ``fn(method, *m_values, powers, beta)``:
    one call per estimator on its allocations' (n, B, C_m, L, K) powers."""
    out = {}
    for method in METHODS:
        cols = [j for j, c in enumerate(combos) if c[1] == method]
        values = fn(method, *m_values, rho[:, :, cols], beta).mean(axis=-1)
        out.update(zip(cols, np.moveaxis(values, 2, 0)))
    return np.stack([out[j] for j in range(len(combos))], axis=2)


def _fig3_closed(plan, cfg, combos, beta, rho) -> dict:
    # validate's errors too, at its configured M
    return {"closed": _per_method(combos, rho, metrics.exp_rcee_closed, beta,
                                  plan.m_grid or cfg.M)[:, 0],
            **_fig4a_closed(plan, cfg, combos, beta, rho)}


def _fig4b_closed(plan, cfg, combos, beta, rho) -> dict:
    """The error at every budget and its infinite-budget limit: the flat
    split's floor, or the allocator's high-budget limit, which the ppa and
    ref rows share."""
    gains = beta[:, 0, 0]
    floor = {m: metrics.exp_rcee_eppa_limit(m, gains, cfg.K, math.inf) for m in METHODS}
    asymptote = {m: ppa.exp_rcee_asymptotic(m, gains, cfg) for m in METHODS}
    limit = [(floor if s == "eppa" else asymptote)[m].mean(axis=-1) for s, m in combos]
    return {"closed": _per_method(combos, rho, metrics.exp_rcee_closed, beta, cfg.M)
            .swapaxes(1, 2), "limit": np.stack(limit, axis=1)}


def _fig4a_closed(plan, cfg, combos, beta, rho) -> dict:
    return {"limit": _per_method(combos, rho, metrics.exp_rcee_limit, beta)[:, 0]}


def _fig5a_closed(plan, cfg, combos, beta, rho) -> dict:
    """The worst user's rate at each antenna count of the grid."""
    sinr = metrics.sinr_closed(plan.m_grid, rho, beta, cfg.rho_u)
    return {"closed": metrics.achievable_rate(cfg, sinr).min(axis=-1)[:, 0]}


def _fig5b_closed(plan, cfg, combos, beta, rho) -> dict:
    """The users' average rate in the large-antenna limit."""
    rates = metrics.achievable_rate(cfg, metrics.sinr_limit(rho, beta))
    return {"limit": rates.mean(axis=-1)[:, 0]}


def _validate_closed(plan, cfg, combos, beta, rho) -> dict:
    """The closed form and the limit of the error and of the SINR, in that
    order on the last axis."""
    error = _fig3_closed(plan, cfg, combos, beta, rho)
    sinr = {"closed": metrics.sinr_closed(cfg.M, rho, beta, cfg.rho_u).mean(axis=-1)[:, 0],
            "limit": metrics.sinr_limit(rho, beta).mean(axis=-1)[:, 0]}
    return {k: np.stack([error[k], sinr[k]], axis=-1) for k in error}


def _mean_stderr(values) -> tuple[float, float | None]:
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else None
    return _mean(arr), se


def run_experiment(plan: ExperimentPlan, cfg: SystemConfig) -> MetricReport:
    """Execute one experiment; with ``jobs`` > 1 the drops' reference
    solves and Monte-Carlo run in forked children and in the caller
    (:func:`forkmap.fork_map`), and the rest in the caller.

    At most ``jobs`` processes run, no more than there are drops or CPUs
    this process may use, and on Linux each on a CPU of its own, so that no
    two share one while another idles.  A drop goes to whichever process is
    free first, but the reduction over drops happens in drop order, so the
    report is a pure function of (plan, cfg) regardless of ``jobs``.
    """
    _, _, reduce, metric = _PER_EXPERIMENT[plan.experiment]
    return reduce(plan, cfg, _map_tasks(plan, cfg), _combos(plan), metric)


def _grid_report(plan, cfg, per_gamma, combos, metric) -> MetricReport:
    """One row per (gamma, combo, x), averaged over drops in drop order.
    A sweep without ``mc`` or ``limit`` arrays leaves those columns empty.

    ``mc_stderr`` is the standard error over drops of the per-drop
    Monte-Carlo means.  It includes the drops' own spread of the closed
    form, so it is not an error bar of the Monte-Carlo estimate."""
    xs = ([float(p) for p in plan.p_grid_db] if plan.experiment == "fig4b"
          else plan.m_grid)
    rows = []
    for gamma in plan.gammas:
        v = per_gamma[gamma]
        for c, (scheme, method) in enumerate(combos):
            limit = _mean(v["limit"][:, c]) if "limit" in v else None
            for i, x in enumerate(xs):
                mc, se = _mean_stderr(v["mc"][:, c, i]) if "mc" in v else (None, None)
                rows.append((plan.experiment, metric, gamma, method, scheme, x,
                             mc, se, _mean(v["closed"][:, c, i]), limit))
    return MetricReport(plan.experiment, GRID_COLUMNS, tuple(rows))


def _cdf_report(plan, cfg, per_gamma, combos, metric) -> MetricReport:
    """The empirical distribution over drops of each (gamma, combo) value:
    its sorted drop values, the n-th of N at level n/N."""
    rows = []
    for gamma in plan.gammas:
        values = np.sort(per_gamma[gamma]["limit"], axis=0)
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        levels = np.arange(1, len(values) + 1) / len(values)
        for c, (scheme, method) in enumerate(combos):
            for value, level in zip(values[:, c], levels):
                rows.append((plan.experiment, metric, gamma, method, scheme,
                             float(value), float(level)))
    return MetricReport(plan.experiment, CDF_COLUMNS, tuple(rows))


def _validate_report(plan, cfg, per_gamma, combos, metric) -> MetricReport:
    """Closed forms against Monte-Carlo at the configured M, one row per drop."""
    rows = []
    for gamma in plan.gammas:
        v = per_gamma[gamma]
        for i, label in enumerate(("exp_rcee", "sinr")):
            for c, (scheme, method) in enumerate(combos):
                for d in range(plan.n_large):
                    se = float(v["mc_stderr"][d, c]) if label == "exp_rcee" else None
                    rows.append(("validate", label, gamma, method, scheme, cfg.M,
                                 float(v["mc"][d, c, i]), se, float(v["closed"][d, c, i]),
                                 float(v["limit"][d, c, i])))
    return MetricReport("validate", GRID_COLUMNS, tuple(rows))


# experiment -> (Monte-Carlo of one drop at one gamma, closed forms of a
# block of drops, reduction over drops, metric label)
_PER_EXPERIMENT = {
    "fig3": (_mc_means, _fig3_closed, _grid_report, "exp_rcee"),
    "fig4a": (None, _fig4a_closed, _cdf_report, "exp_rcee"),
    "fig4b": (_mc_means, _fig4b_closed, _grid_report, "exp_rcee"),
    "fig5a": (None, _fig5a_closed, _grid_report, "rate_min"),
    "fig5b": (None, _fig5b_closed, _cdf_report, "rate_av"),
    "validate": (_validate_mc, _validate_closed, _validate_report, None),
}


# ---------------------------------------------------------------------------
# allocator timing


_BENCH_BUDGET = 1.0e4  # the pilot budget of every timed profile
_BENCH_LOOPS = 20  # calls per measurement of either solver


def bench_allocators(k_values=(2, 3, 4, 5, 6, 7, 8, 9, 10), seed: int = 0) -> list[tuple]:
    """Time the closed-form allocator against the reference solver.

    One synthetic interference profile per K; both solvers minimize the
    same average-error objective.  Returns rows (K, closed-form seconds,
    reference seconds, speedup), each the best of three measurements of
    the mean over the same number of calls.
    """
    rows = []
    for K in k_values:
        rng = seed_schedule(seed, K, "bench-profile")
        ups = 1.0 + (_BENCH_BUDGET / K) * 10.0 ** rng.normal(-1.5, 0.6, K)
        beta0 = 10.0 ** rng.normal(-1.0, 0.6, K)
        profile = ppa.InterferenceProfile(upsilon=ups, beta_target=beta0)
        cfg = SystemConfig(K=K, M=200, P_total=_BENCH_BUDGET, mu=1.5, seed=seed)

        best_ppa = min(_timed(lambda: ppa.ppa_allocate(LS, profile, cfg)) for _ in range(3))
        best_ref = min(_timed(lambda: reference_solve(LS, profile, cfg)) for _ in range(3))
        rows.append((K, best_ppa, best_ref, best_ref / best_ppa))
    return rows


def _timed(fn) -> float:
    """Mean seconds of one call of ``fn`` over ``_BENCH_LOOPS`` calls."""
    start = time.perf_counter()
    for _ in range(_BENCH_LOOPS):
        fn()
    return (time.perf_counter() - start) / _BENCH_LOOPS
