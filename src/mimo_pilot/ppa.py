"""Pilot power allocation for the target cell.

The allocator minimizes the per-cell average of the expected relative
estimation error subject to a total budget P and per-user box bounds
[P/(2K), mu*P/K].  With other cells' powers fixed, each user contributes
through the pair (upsilon_k, beta_k): contamination-plus-noise level and
own-channel gain.  The KKT solution without the box is a square-root
water-filling over w_k = upsilon_k / beta_k; with the box, the one water
level that exhausts the budget after clipping puts each user at a bound
or free, and the free users water-fill the rest of the budget.

As the budget grows with every other cell at the flat P/K, the noise
drops out of the weights, and the problem and its box scale with P: the
optimum at budget P is P times the optimum at budget 1 (the KKT
conditions of Boyd and Vandenberghe, *Convex Optimization*, 5.5.3, are
homogeneous in P).  :func:`exp_rcee_asymptotic` prices each user's
limiting error from that unit-budget allocation.

The allocator runs on Python float lists, by the rule :mod:`.refsolver`
states: at K <= 12 numpy's per-call overhead outweighs the arithmetic.
Its sums are ``math.fsum``, correctly rounded, so an allocation's bits
depend on no library's summation order; only the level search adds its
terms in user order.  A profile builds its weight and square-root weight
lists once, for every allocation made from it, and :func:`ppa_allocate`
checks its result on its lists before making the one array it returns.
The objective takes the mean of its per-user terms as ``sum / size``,
the bits of ``ndarray.mean`` without its Python-level wrapper.

A sweep allocates all its rows at once instead.  Each row's water level
is independent of every other row's, so :func:`_allocate_rows` runs one
numpy pass per estimator over a sweep's stacked (gamma, drop, budget)
rows, in the list path's arithmetic, and returns :func:`ppa_allocate`'s
powers bit for bit.  :func:`ppa_allocate` stays the path of a single
allocation and the reference the tests hold the stacked pass to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import LS, MMSE, check_method
from .metrics import _bound_terms, _error_terms
from .refsolver import _clip_level

@dataclass(frozen=True)
class InterferenceProfile:
    """Per-user quantities the allocator needs, for one large-scale drop.

    ``upsilon[k]`` is the contamination-plus-noise level of user k and
    ``beta_target[k]`` the user's own gain at the serving BS.  The weights
    and their square roots are built once, as lists, for the allocator.
    """

    upsilon: np.ndarray       # (K,)
    beta_target: np.ndarray   # (K,)

    def __post_init__(self) -> None:
        ups = np.asarray(self.upsilon, dtype=float)
        beta = np.asarray(self.beta_target, dtype=float)
        if ups.shape != beta.shape or ups.ndim != 1:
            raise ValueError("upsilon and beta_target must be equal-length 1-D arrays")
        u, b = ups.tolist(), beta.tolist()
        if not (all(map(math.isfinite, u)) and all(map(math.isfinite, b))):
            raise ValueError("upsilon and beta_target must be finite")
        if any(x <= 0 for x in u) or any(x <= 0 for x in b):
            raise ValueError("upsilon and beta_target must be positive")
        object.__setattr__(self, "upsilon", ups)
        object.__setattr__(self, "beta_target", beta)
        # the bits of upsilon / beta_target and of np.sqrt over it: both
        # divide and take square roots correctly rounded
        w = [x / y for x, y in zip(u, b)]
        object.__setattr__(self, "_weights", w)
        object.__setattr__(self, "_sqrt_weights", [math.sqrt(x) for x in w])

    @property
    def num_users(self) -> int:
        return self.upsilon.shape[0]


def _flat_interference(beta, share):
    """sum_{l != 0} share * beta[..., l, k], the other cells' level at a flat
    power, summed in cell order; ``share`` broadcasts against the (..., L,
    K) gains."""
    if beta.ndim < 2:
        raise ValueError("gains must have a cell axis and a user axis")
    return (share * beta[..., 1:, :]).sum(axis=-2)


def eppa_profile(beta_slice, P: float, K: int) -> InterferenceProfile:
    """Profile with every other cell transmitting the flat power P/K.

    upsilon_k = sum_{l != 0} (P/K) * beta_slice[l, k] + 1.
    """
    beta_slice = np.asarray(beta_slice, dtype=float)
    return InterferenceProfile(upsilon=_flat_interference(beta_slice, P / K) + 1.0,
                               beta_target=beta_slice[0].copy())


def unconstrained_optimum(method: str, profile: InterferenceProfile, P: float) -> np.ndarray:
    """Budget-only KKT solution over the sqrt weights.

    LS:   rho_k = P * sqrt(w_k) / sum sqrt(w)
    MMSE: rho_k = sqrt(w_k) / lambda - w_k with
          lambda = sum sqrt(w) / (P + sum w)

    Both exhaust the budget exactly; MMSE entries can be negative for
    heavy weights, which the box stage later resolves.
    """
    check_method(method)
    if P <= 0:
        raise ValueError("budget must be positive")
    return np.array(_water_fill(method, profile._weights, profile._sqrt_weights, P))


def _water_fill(method: str, w: list[float] | None, sqrt_w: list[float],
                P: float) -> list[float]:
    """The budget-only optimum from the weights and their square roots;
    least squares reads only the square roots."""
    norm = math.fsum(sqrt_w)
    if method == LS:
        return [P * (x / norm) for x in sqrt_w]
    share = [x / norm for x in sqrt_w]
    # (P + sum w) * share - w, split so the weight part cancels cleanly
    # when the weights are all equal
    w_sum = math.fsum(w)
    rho = [P * x + (w_sum * x - wk) for x, wk in zip(share, w)]
    if abs(math.fsum(rho) - P) > 1e-12 * P:
        # Weights far above the budget leave a rounding error of order
        # eps * w in that cancellation, which can break the budget.  Taking
        # the sqrt-weight differences first avoids it:
        #   rho_k = sqrt(w_k) (P + sum_j sqrt(w_j) (sqrt(w_j) - sqrt(w_k))) / sum sqrt(w)
        rho = [sk * (P + math.fsum([sj * (sj - sk) for sj in sqrt_w])) / norm
               for sk in sqrt_w]
    return rho


@dataclass(frozen=True)
class PilotAllocation:
    """Result of the box-constrained allocation.

    ``free``, ``at_min`` and ``at_max`` partition the user indices: free
    users carry the water-filling powers of the residual budget, the
    others sit exactly on a box bound.  :func:`ppa_allocate` makes every
    instance and checks these invariants as it does; a user it
    water-fills exactly onto a bound is filed as pinned there.
    """

    rho: np.ndarray
    free: frozenset[int]
    at_min: frozenset[int]
    at_max: frozenset[int]


def _check_allocation(r: list[float], free, at_min, at_max, P: float,
                      lo: float, hi: float) -> None:
    """:class:`PilotAllocation`'s invariants under the budget ``P`` and the
    box [lo, hi], on its powers as a list and its groups as any
    collections of indices."""
    if sorted([*free, *at_min, *at_max]) != list(range(len(r))):
        raise ValueError("free/at_min/at_max must partition the user indices")
    if abs(math.fsum(r) - P) > 1e-9 * P:
        raise ValueError("allocation does not exhaust the budget")
    for k in at_min:
        if r[k] != lo:
            raise ValueError("a user marked at_min or at_max is off its bound")
    for k in at_max:
        if r[k] != hi:
            raise ValueError("a user marked at_min or at_max is off its bound")
    lo, hi = lo - 1e-12 * P, hi + 1e-12 * P
    for k in free:
        if not lo <= r[k] <= hi:
            raise ValueError("a free user lies outside the power box")


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
    P, lo, hi = cfg.P_total, cfg.rho_min, cfg.rho_max
    if not (lo > 0 and hi >= lo):
        raise ValueError("invalid power box")
    if K * lo > P or K * hi < P:
        raise ValueError("power box cannot meet the budget")

    w, s = profile._weights, profile._sqrt_weights
    side = _clip_level(s, None if method == LS else s, P, lo, hi)
    rho = [hi if g > 0 else lo if g else 0.0 for g in side]
    at_min, free, at_max = groups = ([], [], [])
    for k, g in enumerate(side):
        groups[g + 1].append(k)
    if free:
        budget = -math.fsum(rho + [-P])  # P less the pinned bounds: free entries are 0.0
        w_free = None if method == LS else [w[k] for k in free]
        filled = _water_fill(method, w_free, [s[k] for k in free], budget)
        for k, x in zip(free, filled):
            rho[k] = x
        if lo in filled or hi in filled:
            # the level search sides a user at its knot by the probe's last
            # bit, so a user it leaves free can sit exactly on a bound
            kept = []
            for k in free:
                x = rho[k]
                (at_min if x == lo else at_max if x == hi else kept).append(k)
            free = kept
    _check_allocation(rho, free, at_min, at_max, P, lo, hi)
    return PilotAllocation(np.array(rho), frozenset(free), frozenset(at_min),
                           frozenset(at_max))


# bytes of gains per block of rows in the stacked pass, so that its memory
# is flat in the rows
_ROW_BLOCK = 1 << 20


def _allocate_rows(method: str, beta, P, lo, hi) -> np.ndarray:
    """``ppa_allocate(method, eppa_profile(beta[i], P[i], K), cfg_i).rho`` of
    every row i at once, bit for bit, where cfg_i has the budget ``P[i]`` and
    the box [``lo[i]``, ``hi[i]``].

    The rows are the leading axes of the (..., L, K) gains ``beta``
    broadcast against those of ``P``, ``lo`` and ``hi``; returns their
    (..., K) powers.  Raises what the profile and :func:`ppa_allocate`
    raise.  Every row's water level is found and filled on its own, in
    blocks of rows (:func:`_fill_rows`).
    """
    check_method(method)
    *lead, L, K = beta.shape
    shape = np.broadcast_shapes(tuple(lead), np.shape(P), np.shape(lo), np.shape(hi))
    beta = np.broadcast_to(beta, (*shape, L, K))
    P, lo, hi = (np.broadcast_to(x, shape).ravel() for x in (P, lo, hi))
    if not np.all((lo > 0) & (hi >= lo)):
        raise ValueError("invalid power box")
    if np.any((K * lo > P) | (K * hi < P)):
        raise ValueError("power box cannot meet the budget")
    size = max(1, _ROW_BLOCK // (8 * L * K))
    blocks = [np.arange(i, min(i + size, P.size)) for i in range(0, P.size, size)]
    return np.concatenate([_fill_rows(method, beta[np.unravel_index(b, shape)], P[b], lo[b],
                                      hi[b]) for b in blocks]).reshape(*shape, K)


def _fill_rows(method: str, beta, P, lo, hi) -> np.ndarray:
    """:func:`_allocate_rows` on one block of (n,) rows, in the list path's
    arithmetic.

    The level search sums the clipped terms at every knot, not only at a
    bisection's probes, each in user order as the list search does.  The
    sum is monotone in the level, so the knots below the first one whose
    sum meets the budget are those the bisection passes, and equal knots
    fall on one side.  The other sums are correctly rounded, as the list
    path's, over each row with its pinned users' entries zeroed, which
    adds nothing.  Rows the list search would recentre, and MMSE fills
    whose cancellation breaks the budget, go through
    :func:`~.refsolver._clip_level` and :func:`_water_fill`.  Of
    :func:`_check_allocation`'s checks, the partition and the pinned
    users' bounds hold by construction; the budget and the box are
    checked on every row.
    """
    ups = _flat_interference(beta, (P / beta.shape[-1])[:, None, None]) + 1.0
    beta0 = beta[:, 0]
    if not (np.all(np.isfinite(ups)) and np.all(np.isfinite(beta0))):
        raise ValueError("upsilon and beta_target must be finite")
    if not (np.all(ups > 0) and np.all(beta0 > 0)):
        raise ValueError("upsilon and beta_target must be positive")
    w = ups / beta0
    s = np.sqrt(w)
    bounds = np.stack([lo, hi], axis=1)[:, :, None] / s[:, None]
    knots = bounds if method == LS else s[:, None] + bounds  # (n, bound, user)
    lo3, hi3 = lo[:, None, None], hi[:, None, None]
    spent = 0.0
    for k in range(s.shape[1]):  # each knot's clipped terms, added in user order
        sk = s[:, k, None, None]
        x = sk * (knots if method == LS else knots - sk)
        spent = spent + np.minimum(np.maximum(x, lo3), hi3)
    level = np.where(spent >= P[:, None, None], knots, np.inf).min(axis=(1, 2))
    side = (knots < level[:, None, None]).sum(axis=1) - 1
    if method == MMSE:
        for i in np.flatnonzero((s * s).max(axis=-1) > 1024.0 * P):
            side[i] = _clip_level(s[i].tolist(), s[i].tolist(), P[i], lo[i], hi[i])
    lo, hi = lo[:, None], hi[:, None]
    rho = np.where(side > 0, hi, lo)
    free = side == 0
    rows = np.flatnonzero(free.any(axis=-1))
    free, rho_r = free[rows], rho[rows]
    b = -_row_sums(np.concatenate([-P[rows, None], np.where(free, 0.0, rho_r)], axis=1))
    s_f = np.where(free, s[rows], 0.0)
    share = s_f / _row_sums(s_f)
    if method == LS:
        fill = b * share
    else:
        w_f = np.where(free, w[rows], 0.0)
        fill = b * share + (_row_sums(w_f) * share - w_f)
        for i in np.flatnonzero(abs(_row_sums(fill) - b) > 1e-12 * b):
            f = free[i]
            fill[i, f] = _water_fill(MMSE, w_f[i, f].tolist(), s_f[i, f].tolist(), b[i, 0])
    rho[rows] = np.where(free, fill, rho_r)
    Pc = P[:, None]
    if np.any(abs(_row_sums(rho) - Pc) > 1e-9 * Pc):
        raise ValueError("allocation does not exhaust the budget")
    if np.any((rho < lo - 1e-12 * Pc) | (rho > hi + 1e-12 * Pc)):
        raise ValueError("a free user lies outside the power box")
    return rho


def _row_sums(x) -> np.ndarray:
    """The correctly rounded sum of each row of the 2-D ``x``, as a column."""
    return np.array([math.fsum(row) for row in x.tolist()])[:, None]


def objective_value(method: str, rho, profile: InterferenceProfile, M: int,
                    exact: bool = True) -> float:
    """Cell-average expected relative estimation error of an allocation.

    With ``exact=False`` the MMSE term is replaced by its upper bound
    M*upsilon/((M-1)(upsilon + rho*beta)), the function the allocator
    actually minimizes; for LS bound and exact value coincide.
    """
    check_method(method)
    if M < 2:
        raise ValueError("the objective needs M >= 2")
    rho = np.asarray(rho, dtype=float)
    if rho.shape != profile.upsilon.shape:
        raise ValueError("rho must have one entry per user")
    if np.any(rho <= 0):
        raise ValueError("pilot powers must be positive")
    return _mean_error(method, rho, profile, M, exact)


def _mean_error(method: str, rho, profile: InterferenceProfile, M: int,
                exact: bool) -> float:
    # the metrics kernels with the full level written as upsilon + rho*beta
    ups = profile.upsilon
    own = rho * profile.beta_target
    if method == MMSE and not exact:
        terms = _bound_terms(M, ups, ups + own)
    else:
        terms = _error_terms(method, M, ups, own, ups + own)
    return float(terms.sum()) / terms.size


def make_objective(method: str, profile: InterferenceProfile, M: int):
    """The allocator's objective and its gradient, for a general-purpose solver.

    Returns ``(fun, grad)``: :func:`objective_value` with ``exact=False``,
    the exact error under LS and its upper bound under MMSE, and its
    analytic derivative with respect to the power vector.  Neither checks
    its argument: a solver calls them on every iteration.
    """
    check_method(method)
    if M < 2:
        raise ValueError("the objective needs M >= 2")
    ups = profile.upsilon
    beta = profile.beta_target
    K = profile.num_users
    m_ratio = M / (M - 1)

    def fun(rho: np.ndarray) -> float:
        return _mean_error(method, rho, profile, M, exact=False)

    if method == LS:
        def grad(rho: np.ndarray) -> np.ndarray:
            return -m_ratio * ups / (beta * rho ** 2) / K
    else:
        def grad(rho: np.ndarray) -> np.ndarray:
            return -m_ratio * ups * beta / (ups + beta * rho) ** 2 / K

    return fun, grad


def exp_rcee_asymptotic(method: str, beta, cfg) -> np.ndarray:
    """Per-user limit of the expected relative estimation error as P grows.

    Every other cell sends the flat P/K.  The noise term then drops out of
    the profile, which becomes P times the interference I_k = sum_{l != 0}
    beta_lk / K, so the allocation scales with the budget and its unit-budget
    powers x price the limit: I / (x * beta_0) under LS and I / (I + x *
    beta_0) under MMSE.  Takes (L, K) gains or a stack (..., L, K) and
    returns (..., K); a single cell has no interference and limit 0.
    """
    check_method(method)
    beta = np.asarray(beta, dtype=float)
    interference = _flat_interference(beta, 1.0 / cfg.K)
    if beta.shape[-2] == 1:
        return interference
    beta0, unit, K = beta[..., 0, :], cfg.replace(P_total=1.0), beta.shape[-1]
    rows = zip(interference.reshape(-1, K), beta0.reshape(-1, K))
    x = np.array([ppa_allocate(method, InterferenceProfile(i, b), unit).rho for i, b in rows])
    own = x.reshape(beta0.shape) * beta0
    return interference / own if method == LS else interference / (interference + own)
