"""General-purpose solver for budgeted box-constrained minimization.

Used as an independent check of the closed-form allocator: it knows
nothing about the objective's structure beyond a gradient, and handles
the feasible set {sum x = total, lo <= x <= hi} by Euclidean projection.
The projection and the allocator share one search, :func:`_clip_level`,
for the level at which a sum of clipped linear terms meets a budget.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Stopping tolerance on the fixed-step projected-gradient norm.
_TOL = 1e-10


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
    theta = (v[free].sum() - (total - pinned.sum())) / free.sum()
    return np.clip(v - theta, lo, hi)


@dataclass(frozen=True)
class ConstrainedProblem:
    """Minimize ``objective`` over {sum x = total, lower <= x <= upper} in R^dimension.

    The solver starts from the uniform feasible point total/dimension.
    """

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    total: float
    lower: float
    upper: float
    dimension: int


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    pg_norm: float


def solve(problem: ConstrainedProblem, max_iter: int = 100_000) -> SolveResult:
    """Projected gradient descent with a backtracking line search.

    Steps x+ = proj(x - t * grad) are accepted under an Armijo decrease
    along the projection arc; the accepted step seeds the next trial step
    via the Barzilai-Borwein ratio.  Terminates when the fixed-step
    projected-gradient norm ||x - proj(x - grad)|| drops below ``_TOL``
    at a point that meets the budget to the projection's slack, or after
    ``max_iter`` iterations, in which case the best point found is
    returned with ``converged=False`` rather than raising.
    """
    total = problem.total
    slack = 1e-12 * max(1.0, abs(total))

    def proj(z: np.ndarray) -> np.ndarray:
        return project_bounded_simplex(z, total, problem.lower, problem.upper)

    def converged(x: np.ndarray, pg_norm: float) -> bool:
        return pg_norm < _TOL and abs(float(x.sum()) - total) <= slack

    x = proj(np.full(problem.dimension, total / problem.dimension))
    f = problem.objective(x)
    g = problem.gradient(x)
    t = 1.0
    pg = x - proj(x - g)
    pg_norm = float(np.linalg.norm(pg))
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if converged(x, pg_norm):
            return SolveResult(x=x, objective=f, iterations=iterations - 1,
                               converged=True, pg_norm=pg_norm)
        accepted = False
        while t > 1e-300:
            x_new = proj(x - t * g)
            step = x_new - x
            decrease = float(np.dot(g, step))
            f_new = problem.objective(x_new)
            if f_new <= f + 1e-4 * decrease:
                accepted = True
                break
            t *= 0.5
        if not accepted or not np.any(x_new != x):
            break  # stalled at numerical resolution
        g_new = problem.gradient(x_new)
        # Barzilai-Borwein step for the next iteration, kept positive
        y = g_new - g
        sy = float(np.dot(step, y))
        if sy > 0:
            t = float(np.dot(step, step)) / sy
        else:
            t *= 2.0
        x, f, g = x_new, f_new, g_new
        pg = x - proj(x - g)
        pg_norm = float(np.linalg.norm(pg))
    return SolveResult(x=x, objective=f, iterations=iterations,
                       converged=converged(x, pg_norm), pg_norm=pg_norm)
