"""Literal references the package's fast paths must match bit for bit.

The antenna model: pilot transmission, LS and MMSE estimation and the
relative errors, one trial and one array at a time, written as the paper
states them.  No sweep runs this path; fed the same draws,
``harness._mc_trials`` must match it bit for bit, and the acceptance
criteria check it against the closed forms.  validate's SINR moments
as one whole-ensemble pass per allocation and user, summed over trials
in trial order: the running sums ``harness._validate_mc`` carries over
the kernel's blocks must return the same bits.

The level search, the projection and the allocator as they were
written before the package moved their arithmetic onto Python float
lists: the search with a keyed ``bisect``, the projection and the
water-filling in numpy arrays, with every sum that sets their bits
correctly rounded by ``math.fsum``; the allocator's objective as the
``.mean()`` of its per-user terms.  The package must return the same bits.

The other cells' flat interference as the einsum of a full power array,
the form the profile used before one arithmetic served a drop and a
stack of drops alike.  The package must return the same bits.

The sweeps' closed forms as they were evaluated before the sweeps
stacked them over drops: one public call per (gamma, drop, estimator) on
the drop's (L, K) gains.  The stacked pass must return the same bits.

The tests' statistical and geometric tools: the empirical distribution
and the Kolmogorov-Smirnov distance between two of them, membership of
the hexagonal cell a drop fills, and upsilon on its own.  No command
uses them.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from mimo_pilot import metrics
from mimo_pilot import ppa as package_ppa
from mimo_pilot.airlink import complex_normal
from mimo_pilot.estimators import LS, METHODS, MMSE, check_method
from mimo_pilot.harness import reference_solve
from mimo_pilot.ppa import InterferenceProfile, PilotAllocation
from mimo_pilot.scenario import db_to_linear


def pilot_book(K: int, tau: int) -> np.ndarray:
    """Rows of the tau x tau identity as the shared orthonormal pilot book.

    Every cell transmits the same K sequences, which is what couples
    same-index users across cells during estimation.
    """
    if tau < K:
        raise ValueError("tau must be at least K")
    return np.eye(tau, dtype=complex)[:K]


@dataclass(frozen=True)
class PilotObservation:
    """Received pilot block at the target BS plus what produced it."""

    y: np.ndarray       # (M, tau) complex
    rho: np.ndarray     # (L, K) pilot powers, target cell is row 0
    book: np.ndarray    # (K, tau) orthonormal sequences


def pilot_phase(h, rho, tau: int,
                noise_rng: np.random.Generator | None) -> PilotObservation:
    """Superimpose every cell's pilot transmissions at the target array.

    Y = sum_{l,k} sqrt(rho[l,k]) h[l,k] s_k^H + N with N i.i.d. CN(0, 1);
    ``h`` is the (L, K, M) channel array; pass ``noise_rng=None`` for a
    noiseless block.  All cells share the same sequence book, so
    contributions of same-index users add up.
    """
    rho = np.asarray(rho, dtype=float)
    L, K, M = h.shape
    if rho.shape != (L, K):
        raise ValueError(f"rho must have shape ({L}, {K})")
    if np.any(rho < 0):
        raise ValueError("pilot powers must be non-negative")
    book = pilot_book(K, tau)
    # combined per-sequence signal: b_k = sum_l sqrt(rho[l,k]) h[l,k]
    b = np.einsum("lk,lkm->km", np.sqrt(rho), h)
    y = b.T @ np.conj(book)
    if noise_rng is not None:
        y = y + complex_normal((M, tau), noise_rng)
    return PilotObservation(y=y, rho=rho, book=book)


@dataclass(frozen=True)
class ChannelEstimate:
    """Per-user channel estimates at the target BS."""

    h_hat: np.ndarray  # (K, M) complex
    method: str


def estimate_ls(obs: PilotObservation) -> ChannelEstimate:
    """Least-squares estimates hhat_k = Y s_k / sqrt(rho_0k).

    Correlating with sequence k keeps the target user's channel at unit
    gain, the same-index users of other cells at sqrt(rho_lk/rho_0k), and
    a noise term of per-component variance 1/rho_0k.
    """
    rho_target = obs.rho[0]
    if np.any(rho_target <= 0):
        raise ValueError("target-cell pilot powers must be positive")
    h_hat = (obs.y @ obs.book.T.conj()).T / np.sqrt(rho_target)[:, None]
    return ChannelEstimate(h_hat=h_hat, method=LS)


def mmse_gain(rho_col, beta_col) -> float:
    """Shrinkage factor rho_0 beta_0 / (sum_l rho_l beta_l + 1) for one user.

    ``rho_col`` and ``beta_col`` are the per-cell pilot powers and gains of
    the user's index, target cell first.
    """
    rho = np.asarray(rho_col, dtype=float)
    beta = np.asarray(beta_col, dtype=float)
    if rho[0] <= 0 or beta[0] <= 0:
        raise ValueError("target power and gain must be positive")
    return float(rho[0] * beta[0] / (np.dot(rho, beta) + 1.0))


def estimate_mmse(obs: PilotObservation, beta_slice) -> ChannelEstimate:
    """MMSE estimates: the LS output scaled per user by :func:`mmse_gain`.

    ``beta_slice`` holds the (L, K) large-scale gains toward the target
    BS, assumed known.  The scaling is what makes the estimate collinear
    with the LS one.
    """
    beta_slice = np.asarray(beta_slice, dtype=float)
    if beta_slice.shape != obs.rho.shape:
        raise ValueError("beta_slice must match the pilot power shape")
    ls = estimate_ls(obs)
    K = obs.rho.shape[1]
    c = np.array([mmse_gain(obs.rho[:, k], beta_slice[:, k]) for k in range(K)])
    return ChannelEstimate(h_hat=c[:, None] * ls.h_hat, method=MMSE)


def mmse_gain_matrix(rho_col, beta_col, M: int) -> np.ndarray:
    """Covariance-quotient form of the MMSE filter, for small-M checks.

    Builds E{h hhat^H} and E{hhat hhat^H} under the correlated-pilot model
    and returns their quotient, which collapses to mmse_gain * I_M.
    """
    rho = np.asarray(rho_col, dtype=float)
    beta = np.asarray(beta_col, dtype=float)
    cross = beta[0] * np.eye(M)
    auto = ((np.dot(rho, beta) + 1.0) / rho[0]) * np.eye(M)
    return cross @ np.linalg.inv(auto)


def rcee_sample(h, h_hat) -> float:
    """Squared estimation error relative to the channel energy.

    ||h - hhat||^2 / ||h||^2 for one channel vector; raises on a zero
    channel, for which the ratio is undefined.
    """
    h = np.asarray(h)
    h_hat = np.asarray(h_hat)
    energy = float(np.vdot(h, h).real)
    if energy == 0.0:
        raise ValueError("relative error undefined for a zero channel")
    err = h_hat - h
    return float(np.vdot(err, err).real) / energy


def rcee_prefix_samples(h, h_hat, m_values) -> np.ndarray:
    """Relative errors restricted to the first m antennas, for each m.

    Valid because per-antenna correlation estimates only involve the same
    antenna's observations: the length-m estimate equals the first m rows
    of the full-length estimate.  ``h``/``h_hat`` are (..., M); returns an
    array of shape (len(m_values),) + batch shape.
    """
    h = np.asarray(h)
    h_hat = np.asarray(h_hat)
    m_values = np.asarray(m_values, dtype=int)
    if np.any(m_values < 1) or np.any(m_values > h.shape[-1]):
        raise ValueError("antenna counts must lie in [1, M]")
    err_c = np.cumsum(np.abs(h_hat - h) ** 2, axis=-1)
    sig_c = np.cumsum(np.abs(h) ** 2, axis=-1)
    idx = m_values - 1
    return np.moveaxis(err_c[..., idx] / sig_c[..., idx], -1, 0)


def empirical_sinr_terms(channels, estimates, k: int):
    """User k's receiver moments from paired channel/estimate ensembles.

    ``channels`` (n, L, K, M) and ``estimates`` (n, K, M) are stacked
    samples drawn under a single configuration, with the same estimator
    applied throughout.  At least two samples are required for the
    averages to be meaningful.  Returns the arguments of
    :func:`mimo_pilot.airlink.matched_filter_sinr` before ``rho_u``:
    (signal gain, (L, K) cross energies, filter energy).
    """
    h = np.asarray(channels)
    h_hat = np.asarray(estimates)
    n = h.shape[0]
    if n != h_hat.shape[0]:
        raise ValueError("channel and estimate ensembles must pair up")
    if n < 2:
        raise ValueError("need at least 2 realizations to form moments")
    hhat = h_hat[:, k]
    inner = np.einsum("nm,nlkm->nlk", np.conj(hhat), h)
    # every sum over trials runs in trial order (cumsum), as a running total
    # over the ensemble would
    inner_own = np.cumsum(inner[:, 0, k])[-1]
    cross = np.cumsum(np.abs(inner) ** 2, axis=0)[-1]
    energy = np.cumsum(np.matmul(np.conj(hhat)[:, None, :], hhat[:, :, None]).real)[-1]
    return float(np.abs(inner_own / n) ** 2), cross / n, float(energy) / n


def _clip_level(s, c, total: float, lo: float, hi: float) -> list[int]:
    """Box side of each entry at the level t where the budget is met.

    t solves sum_k clip(s_k * (t - c_k), lo, hi) = total (all s_k > 0); the
    result holds -1 for an entry at ``lo``, +1 at ``hi`` and 0 free.  The
    sum is piecewise linear in t, with knots c_k + lo/s_k and c_k + hi/s_k;
    a binary search over the sorted knots, summing the clipped terms at
    each probe, finds the segment holding t, and the knots passed before
    it give the sides.  A knot keeps lo/s_k only to the precision of c_k,
    so if an entry at the level has s_k * |c_k| far above ``total`` the
    search is redone with the c_k measured from that entry's c.  Lists,
    not arrays: at K <= 12 numpy's per-call overhead would dominate.
    """
    n = len(s)
    for recentred in (False, True):
        knots = [ck + bound / sk for bound in (lo, hi) for sk, ck in zip(s, c)]
        order = sorted(range(2 * n), key=knots.__getitem__)

        def budget(j):
            t, spent = knots[j], 0.0
            for sk, ck in zip(s, c):
                x = sk * (t - ck)
                spent += lo if x < lo else hi if x > hi else x
            return spent

        end = bisect.bisect_left(order, total, key=budget)
        side = [-1] * n
        for j in order[:end]:  # an entry's lo-knot sorts before its hi-knot
            side[j % n] += 1
        if recentred or not any(c):
            return side
        near = [k for k in range(n) if side[k] == 0]
        near += [order[i] % n for i in (end - 1, end) if 0 <= i < 2 * n]
        scale, k = max((s[k] * abs(c[k]), k) for k in near)
        # below 2**10 * total the knots lose at most ~1e-13 of the budget
        if scale <= 1024.0 * abs(total):
            return side
        ref = c[k]
        c = [ck - ref for ck in c]


def project_bounded_simplex(v, total: float, lo: float, hi: float) -> np.ndarray:
    """Euclidean projection onto {x : sum x = total, lo <= x_i <= hi}.

    The projection is x_i = clip(v_i - theta, lo, hi) for the theta making
    the budget tight.  :func:`_clip_level` finds which entries the exact
    theta clips, which makes the budget equation linear in theta, and
    theta is then recovered from the free entries.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("v must be a non-empty 1-D array")
    if not lo <= hi:
        raise ValueError("need lo <= hi")
    n = v.size
    slack = 1e-12 * max(1.0, abs(total))
    if not (n * lo - slack <= total <= n * hi + slack):
        raise ValueError("box and budget are incompatible")
    side = np.array(_clip_level([1.0] * n, (-v).tolist(), total, lo, hi))
    free = side == 0
    if not np.any(free):
        return np.where(side > 0, hi, lo)
    pinned = np.where(side > 0, hi, 0.0) + np.where(side < 0, lo, 0.0)
    theta = (math.fsum(v[free]) - (total - math.fsum(pinned))) / free.sum()
    return np.clip(v - theta, lo, hi)


def _water_fill(method: str, w: np.ndarray, P: float) -> np.ndarray:
    sqrt_w = np.sqrt(w)
    share = sqrt_w / math.fsum(sqrt_w)
    if method == LS:
        return P * share
    # (P + sum w) * share - w, split so the weight part cancels cleanly
    # when the weights are all equal
    rho = P * share + (math.fsum(w) * share - w)
    if abs(math.fsum(rho) - P) > 1e-12 * P:
        # Weights far above the budget leave a rounding error of order
        # eps * w in that cancellation, which can break the budget.  Taking
        # the sqrt-weight differences first avoids it:
        #   rho_k = sqrt(w_k) (P + sum_j sqrt(w_j) (sqrt(w_j) - sqrt(w_k))) / sum sqrt(w)
        gaps = np.array([math.fsum(row) for row in (sqrt_w[None, :] - sqrt_w[:, None]) * sqrt_w])
        rho = sqrt_w * (P + gaps) / math.fsum(sqrt_w)
    return rho


def ppa_allocate(method: str, profile: InterferenceProfile, cfg) -> PilotAllocation:
    """Allocate the cell's pilot budget under the per-user power box.

    At the optimum rho_k = clip(sqrt(w_k) * t, lo, hi) under LS and
    clip(sqrt(w_k) * (t - sqrt(w_k)), lo, hi) under the MMSE bound, for one
    water level t.  The level that exhausts the budget groups the users
    (at_min, at_max, free); the free users water-fill the residual budget.
    """
    check_method(method)
    K = profile.num_users
    if cfg.K != K:
        raise ValueError(f"configuration is for K={cfg.K} users, profile has {K}")
    lo, hi = cfg.rho_min, cfg.rho_max
    if not (lo > 0 and hi >= lo):
        raise ValueError("invalid power box")
    if K * lo > cfg.P_total or K * hi < cfg.P_total:
        raise ValueError("power box cannot meet the budget")

    w = profile.upsilon / profile.beta_target
    s = np.sqrt(w).tolist()
    side = _clip_level(s, [0.0] * K if method == LS else s, cfg.P_total, lo, hi)
    free = [k for k in range(K) if side[k] == 0]
    at_min = [k for k in range(K) if side[k] < 0]
    at_max = [k for k in range(K) if side[k] > 0]
    rho = [hi if g > 0 else lo for g in side]
    if free:
        budget = math.fsum([cfg.P_total, *(-rho[k] for k in at_min + at_max)])
        for k, x in zip(free, _water_fill(method, w[free], budget).tolist()):
            rho[k] = x
        # a free user the water-fill puts exactly on a bound is pinned there
        at_min += [k for k in free if rho[k] == lo]
        at_max += [k for k in free if rho[k] == hi]
        free = [k for k in free if rho[k] not in (lo, hi)]
    package_ppa._check_allocation(rho, free, at_min, at_max, cfg.P_total, lo, hi)
    return PilotAllocation(np.array(rho), frozenset(free), frozenset(at_min),
                           frozenset(at_max))


def flat_interference(beta, share) -> np.ndarray:
    """sum_{l != 0} share * beta[l, k] of one drop's (L, K) gains, as the
    einsum of a full power array."""
    others = beta[1:]
    return np.einsum("lk,lk->k", np.full_like(others, share), others)


def mean_error(method: str, rho, profile: InterferenceProfile, M: int,
               exact: bool) -> float:
    """Cell-average error of an allocation, as ``.mean()`` of its terms."""
    # the metrics kernels with the full level written as upsilon + rho*beta
    ups = profile.upsilon
    own = rho * profile.beta_target
    if method == MMSE and not exact:
        return float(metrics._bound_terms(M, ups, ups + own).mean())
    return float(metrics._error_terms(method, M, ups, own, ups + own).mean())


def drop_budgets(plan, cfg, beta) -> list:
    """One drop's {(scheme, method): (L, K) pilot powers} at each budget
    config (one per ``p_grid_db`` entry in fig4b, else ``cfg``): the flat
    P/K in every other cell and the allocation in row 0."""
    cfg_ps = ([cfg.replace(P_total=db_to_linear(p_db)) for p_db in plan.p_grid_db]
              if plan.experiment == "fig4b" else [cfg])
    budgets = []
    for cfg_p in cfg_ps:
        profile = package_ppa.eppa_profile(beta, cfg_p.P_total, cfg.K)
        rhos = {}
        for scheme, method in sorted((s, m) for s in plan.schemes for m in METHODS):
            rho = np.full((cfg.L, cfg.K), cfg_p.P_total / cfg.K)
            if scheme == "ppa":
                rho[0] = package_ppa.ppa_allocate(method, profile, cfg_p).rho
            elif scheme == "ref":
                rho[0] = reference_solve(method, profile, cfg_p).x
            rhos[(scheme, method)] = rho
        budgets.append(rhos)
    return budgets


def _error_means(beta, rhos, M=None) -> dict:
    """User-averaged error of each key's powers at M antennas, or in the
    large-M limit without M: one call per estimator on its keys' stack."""
    out = {}
    for method in METHODS:
        keys = [key for key in rhos if key[1] == method]
        stack = np.stack([rhos[key] for key in keys])
        err = (metrics.exp_rcee_limit(method, stack, beta) if M is None
               else metrics.exp_rcee_closed(method, M, stack, beta))
        out.update(zip(keys, err.mean(axis=-1)))
    return out


def _mean(values) -> float:
    return float(values.sum()) / values.size


def drop_closed_forms(plan, cfg, beta, budgets) -> dict:
    """Every closed-form value one (gamma, drop) of a sweep reports, from its
    (L, K) gains and the powers of :func:`drop_budgets`.

    fig3 and fig4b give {"closed": {combo: values over x}, "limit": {combo:
    value}}, fig5a only the first; fig4a and fig5b {combo: value}; validate
    {"exp_rcee" or "sinr": {combo: (closed form, limit)}}.
    """
    rhos = budgets[0]
    stack = np.stack([*rhos.values()])
    if plan.experiment == "fig3":
        return {"closed": _error_means(beta, rhos, plan.m_grid),
                "limit": _error_means(beta, rhos)}
    if plan.experiment == "fig4b":
        # the flat split's floor, or the allocator's high-budget limit
        limit = {(s, m): _mean(metrics.exp_rcee_eppa_limit(m, beta, cfg.K, math.inf))
                 if s == "eppa" else _mean(package_ppa.exp_rcee_asymptotic(m, beta, cfg))
                 for s, m in rhos}
        per_budget = {key: [b[key] for b in budgets] for key in rhos}
        return {"closed": _error_means(beta, per_budget, cfg.M), "limit": limit}
    if plan.experiment == "fig4a":
        return _error_means(beta, rhos)
    if plan.experiment == "fig5a":
        sinr = metrics.sinr_closed(plan.m_grid, stack, beta, cfg.rho_u)
        rates = metrics.achievable_rate(cfg, sinr)
        return {"closed": dict(zip(rhos, rates.min(-1)))}
    if plan.experiment == "fig5b":
        rates = metrics.achievable_rate(cfg, metrics.sinr_limit(stack, beta))
        return dict(zip(rhos, rates.mean(-1)))
    closed, limit = _error_means(beta, rhos, cfg.M), _error_means(beta, rhos)
    sinr = metrics.sinr_closed(cfg.M, stack, beta, cfg.rho_u).mean(axis=-1)
    sinr_limit = metrics.sinr_limit(stack, beta).mean(axis=-1)
    return {"exp_rcee": {key: (closed[key], limit[key]) for key in rhos},
            "sinr": {key: (sinr[c], sinr_limit[c]) for c, key in enumerate(rhos)}}


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


def in_hexagon(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Membership test for a flat-top hexagon of given circumradius.

    Accepts an (..., n, 2) array and returns an (..., n) boolean mask.
    Boundary points count as inside.  It defines the cell shape that
    ``scenario.drop_users`` fills, so tests of a drop check against it.
    """
    p = np.atleast_2d(points) - np.asarray(center)
    x, y = np.abs(p[..., 0]), np.abs(p[..., 1])
    s3 = math.sqrt(3.0)
    return (y <= s3 * radius / 2.0) & (s3 * x + y <= s3 * radius)


def upsilon(rho, beta):
    """Contamination-plus-noise level sum_{l != 0} rho_l beta_l + 1."""
    rho, beta, column = metrics._slices(rho, beta)
    return metrics._shaped(metrics._upsilon(rho, beta), column)
