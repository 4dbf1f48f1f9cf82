"""Pilot power allocation for the target cell.

The allocator minimizes the per-cell average of the expected relative
estimation error subject to a total budget P and per-user box bounds
[P/(2K), mu*P/K].  With other cells' powers fixed, each user contributes
through the pair (upsilon_k, beta_k): contamination-plus-noise level and
own-channel gain.  The KKT solution without the box is a square-root
water-filling over w_k = upsilon_k / beta_k; with the box, the one water
level that exhausts the budget after clipping puts each user at a bound
or free, and the free users water-fill the rest of the budget.

As the budget grows with every other cell at the flat P/K, that
partition settles, and :func:`exp_rcee_asymptotic` gives each user's
limiting error in closed form: a pinned user from its bound's share of
the budget, a free user from the water-filling ratios of the free group.

The allocator runs on Python float lists, by the rule :mod:`.refsolver`
states: at K <= 12 numpy's per-call overhead outweighs the arithmetic.
Its sums take numpy's order through ``_np_sum``: the allocations' last
bits, and so the CSVs, depend on it.  A profile builds its weight and
square-root weight lists once, for every allocation made from it, and
:func:`ppa_allocate` checks its result on its lists before making the
one array it returns.  The objective takes the mean of its per-user
terms as ``sum / size``, the bits of ``ndarray.mean`` without its
Python-level wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import LS, MMSE, check_method
from .metrics import _bound_terms, _error_terms
from .refsolver import _clip_level, _np_sum

# Fraction of the average per-user power reserved as the lower bound:
# rho_min = P/(2K) makes rho_min * K / P one half by construction.
ALPHA = 0.5

# Budget of the noise-free allocation that reads off the high-budget user
# groups; without noise the groups are the same at every budget.
_LIMIT_BUDGET = 1.0e6


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
        if not (np.isfinite(ups).all() and np.isfinite(beta).all()):
            raise ValueError("upsilon and beta_target must be finite")
        if np.any(ups <= 0) or np.any(beta <= 0):
            raise ValueError("upsilon and beta_target must be positive")
        object.__setattr__(self, "upsilon", ups)
        object.__setattr__(self, "beta_target", beta)
        # the bits of self.weight and of np.sqrt over it: both divide and
        # take square roots correctly rounded
        w = [u / b for u, b in zip(ups.tolist(), beta.tolist())]
        object.__setattr__(self, "_weights", w)
        object.__setattr__(self, "_sqrt_weights", [math.sqrt(x) for x in w])

    @property
    def num_users(self) -> int:
        return self.upsilon.shape[0]

    @property
    def weight(self) -> np.ndarray:
        """Water-filling weights w_k = upsilon_k / beta_k."""
        return self.upsilon / self.beta_target


def _flat_interference(beta, share):
    """sum_{l != 0} share * beta[l, k], the other cells' level at a flat power.

    Kept as the einsum of a full power array: the allocations' last bits
    depend on its summation order.
    """
    others = beta[1:]
    return np.einsum("lk,lk->k", np.full_like(others, share), others)


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
    norm = _np_sum(sqrt_w)
    if method == LS:
        return [P * (x / norm) for x in sqrt_w]
    share = [x / norm for x in sqrt_w]
    # (P + sum w) * share - w, split so the weight part cancels cleanly
    # when the weights are all equal
    w_sum = _np_sum(w)
    rho = [P * x + (w_sum * x - wk) for x, wk in zip(share, w)]
    if abs(_np_sum(rho) - P) > 1e-12 * P:
        # Weights far above the budget leave a rounding error of order
        # eps * w in that cancellation, which can break the budget.  Taking
        # the sqrt-weight differences first avoids it:
        #   rho_k = sqrt(w_k) (P + sum_j sqrt(w_j) (sqrt(w_j) - sqrt(w_k))) / sum sqrt(w)
        # (in numpy: a matrix product has no list form in its order)
        s = np.array(sqrt_w)
        rho = (s * (P + (s[None, :] - s[:, None]) @ s) / norm).tolist()
    return rho


@dataclass(frozen=True)
class PilotAllocation:
    """Result of the box-constrained allocation.

    ``free``, ``at_min`` and ``at_max`` partition the user indices: free
    users carry the water-filling powers of the residual budget, the
    others sit exactly on a box bound.  :func:`ppa_allocate` makes every
    instance and checks these invariants as it does.
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
    if abs(sum(r) - P) > 1e-9 * P:
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
    rho = [hi if g > 0 else lo for g in side]
    at_min, free, at_max = groups = ([], [], [])
    budget = P
    for k, g in enumerate(side):
        groups[g + 1].append(k)
        if g:  # bound by bound, not n * bound: the CSV bits hang on it
            budget -= hi if g > 0 else lo
    if free:
        w_free = None if method == LS else [w[k] for k in free]
        for k, x in zip(free, _water_fill(method, w_free, [s[k] for k in free], budget)):
            rho[k] = x
    _check_allocation(rho, free, at_min, at_max, P, lo, hi)
    return PilotAllocation(np.array(rho), frozenset(free), frozenset(at_min),
                           frozenset(at_max))


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


def exp_rcee_asymptotic(method: str, beta_slice, cfg) -> np.ndarray:
    """Per-user limit of the expected relative estimation error as P grows.

    Every other cell sends the flat P/K.  The noise term then drops out of
    the weights, so the partition into pinned and free users stops
    depending on P; it is read off one noise-free allocation at the budget
    ``_LIMIT_BUDGET``.  A user pinned at a bound keeps that bound's share
    of the budget, alpha/K or mu/K.  The free users water-fill what the
    pinned ones leave, which with I_k = sum_{l != 0} beta_lk / K gives

        LS:   I_k * sum_free sqrt(I / beta_0) / (varphi * sqrt(beta_0k I_k))
        MMSE: the same with varphi + sum_free I / beta_0 in place of varphi

    where varphi = 1 - (alpha * |at_min| + mu * |at_max|) / K.  Returns
    shape (K,).
    """
    check_method(method)
    beta = np.asarray(beta_slice, dtype=float)
    K, beta0 = cfg.K, beta[0]
    interference = _flat_interference(beta, 1.0 / K)
    profile = InterferenceProfile(upsilon=interference * _LIMIT_BUDGET,
                                  beta_target=beta0)
    alloc = ppa_allocate(method, profile, cfg.replace(P_total=_LIMIT_BUDGET))
    share = np.full(K, ALPHA / K)
    share[list(alloc.at_max)] = cfg.mu / K
    # the sums over free users run in list(alloc.free) order, the
    # frozenset's iteration order; sorting them moves last bits
    ratio = interference / beta0
    free = list(alloc.free)
    varphi = 1.0 - (ALPHA * len(alloc.at_min) + cfg.mu * len(alloc.at_max)) / K
    # evaluated over the free users only: with every user pinned, varphi is
    # 0 and the free-user expressions would divide 0 by 0
    i_free = interference[free]
    phi = i_free * float(np.sqrt(ratio[free]).sum())
    psi = np.sqrt(beta0[free] * i_free)
    if method == LS:
        out = interference / (share * beta0)
        out[free] = phi / (varphi * psi)
    else:
        out = interference / (interference + share * beta0)
        out[free] = phi / ((varphi + float(ratio[free].sum())) * psi)
    return out
