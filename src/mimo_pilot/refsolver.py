"""General-purpose solver for budgeted box-constrained minimization.

Used as an independent check of the closed-form allocator: it knows
nothing about the objective's structure beyond a gradient, and handles
the feasible set {sum x = total, lo <= x <= hi} by Euclidean projection.
:func:`solve` takes the objective and its gradient by position and the
set's fields by keyword.  It stops on :func:`kkt_residual`, a KKT
residual relative to the budget's multiplier, so one bound serves every
budget from 1e2 to 1e8, although the gradient shrinks with the budget
(to about 1e-10 at 1e8).  That stop needs no projection, so each
line-search trial makes one, which first tries the current iterate's
box sides (:func:`_project_near`): near the end they stop changing.

The projection and the allocator share one search, :func:`_clip_level`,
for the level at which a sum of clipped linear terms meets a budget.
The projection's terms all have unit slope, and the least-squares
allocator's zero offset, which the search then leaves out of its
arithmetic.

Both work on vectors of one entry per user, K <= 12, where numpy's
per-call overhead outweighs the arithmetic, so their hot paths run on
Python float lists, entry by entry in the operations numpy would do.
Their sums are ``math.fsum``, correctly rounded, so the bits do not
depend on a library's summation order; only :func:`_clip_level`'s
probes add their terms in entry order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The solver stops once its scale-free KKT residual is at most this.
_KKT_TOL = 1e-6


def _clip_level(s, c, total: float, lo: float, hi: float) -> list[int]:
    """Box side of each entry at the level t where the budget is met.

    t solves sum_k clip(s_k * (t - c_k), lo, hi) = total (all s_k > 0); the
    result holds -1 for an entry at ``lo``, +1 at ``hi`` and 0 free.  The
    sum is piecewise linear in t, with knots c_k + lo/s_k and c_k + hi/s_k;
    a binary search over the sorted knots, summing the clipped terms at
    each probe, finds the segment holding t, and the knots passed before
    it give the sides.  A knot keeps lo/s_k only to the precision of c_k,
    so if an entry at the level has s_k * |c_k| far above ``total`` the
    search is redone with the c_k measured from that entry's c.

    Two cases skip an operation of each knot and term.  ``s=None``
    stands for unit slopes, the projection's case: knots c_k + lo and
    c_k + hi, terms t - c_k.  ``c=None`` stands for zero offsets, the
    least-squares allocator's: knots lo/s_k and hi/s_k, terms s_k * t.
    Both do the general forms' arithmetic at s_k = 1.0 or c_k = 0.0, and
    so give their sides.
    """
    n = len(s if c is None else c)
    for recentred in (False, True):
        if s is None:
            knots = [ck + bound for bound in (lo, hi) for ck in c]
        elif c is None:
            knots = [bound / sk for bound in (lo, hi) for sk in s]
        else:
            pairs = list(zip(s, c))
            knots = [ck + bound / sk for bound in (lo, hi) for sk, ck in pairs]
        order = sorted(range(2 * n), key=knots.__getitem__)
        end, top = 0, 2 * n
        while end < top:  # bisect_left over order, keyed by the budget at a knot
            mid = (end + top) // 2
            t, spent = knots[order[mid]], 0.0
            if s is None:
                for ck in c:
                    x = t - ck
                    spent += lo if x < lo else hi if x > hi else x
            elif c is None:
                for sk in s:
                    x = sk * t
                    spent += lo if x < lo else hi if x > hi else x
            else:
                for sk, ck in pairs:
                    x = sk * (t - ck)
                    spent += lo if x < lo else hi if x > hi else x
            if spent < total:
                end = mid + 1
            else:
                top = mid
        side = [-1] * n
        for j in order[:end]:  # an entry's lo-knot sorts before its hi-knot
            side[j % n] += 1
        if recentred or c is None or not any(c):
            return side
        # below 2**10 * total the knots lose at most ~1e-13 of the budget;
        # the entries at the level are among all entries
        limit = 1024.0 * abs(total)
        scales = (list(map(abs, c)) if s is None
                  else [sk * abs(ck) for sk, ck in pairs])
        if max(scales) <= limit:
            return side
        near = [k for k in range(n) if side[k] == 0]
        near += [order[i] % n for i in (end - 1, end) if 0 <= i < 2 * n]
        scale, k = max([(scales[k], k) for k in near])
        if scale <= limit:
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
    v = v.tolist()
    side = _clip_level(None, [-x for x in v], total, lo, hi)
    if 0 not in side:
        return np.array([hi if g > 0 else lo for g in side])
    theta = _theta(v, side, total, lo, hi)
    return np.array([lo if (y := x - theta) < lo else hi if y > hi else y for x in v])


def _theta(v: list, side: list, total: float, lo: float, hi: float) -> float:
    """The shift theta of the projection whose box sides are ``side``
    (at least one free), from the budget on the free entries."""
    pinned = math.fsum([hi if g > 0 else lo for g in side if g])
    free = math.fsum([x for x, g in zip(v, side) if g == 0])
    return (free - (total - pinned)) / side.count(0)


def _project_near(v: list, near: list, total: float, lo: float, hi: float) -> np.ndarray:
    """:func:`project_bounded_simplex` of ``v``, first tried on the sides of ``near``.

    ``near`` is a feasible point, the solver's previous iterate, whose
    entries at ``lo``, at ``hi`` or between them are a guess of the sides
    the projection gives ``v``.  Theta comes from the guess with the
    projection's own sums, and the guess is kept only if every entry
    agrees with it: free entries strictly inside the box, ``lo`` entries
    at or below it and ``hi`` entries at or above it.  The projection then
    finds the same sides, unless an entry lands exactly on a bound, and so
    the same bits.  A guess with no free entry, or one that any entry
    contradicts, falls back to the projection.
    """
    side = [-1 if y == lo else 1 if y == hi else 0 for y in near]
    if 0 in side:
        theta = _theta(v, side, total, lo, hi)
        y = [x - theta for x in v]
        if all(lo < yk < hi if g == 0 else yk <= lo if g < 0 else yk >= hi
               for yk, g in zip(y, side)):
            return np.array([lo if yk < lo else hi if yk > hi else yk for yk in y])
    return project_bounded_simplex(v, total, lo, hi)


def kkt_residual(gradient, x, lo: float, hi: float) -> float:
    """Scale-free KKT residual of x for min f over {sum x = total, lo <= x <= hi}.

    ``gradient`` and ``x`` are lists.  At a minimum the free entries
    share one gradient, the multiplier lambda of the budget, entries at
    ``lo`` have gradients of at least lambda and entries at ``hi`` at
    most lambda.  lambda is taken as the free entries' mean gradient and
    the residual is the largest violation of those conditions over
    |lambda|.  With no free entry (a vertex of the box), it is the excess
    of the largest gradient at ``hi`` over the smallest at ``lo``, over
    the largest |gradient|.  An exact KKT point reads 0 whatever its scale.
    """
    at_lo, at_hi, free = [], [], []
    for gk, xk in zip(gradient, x):
        (at_lo if xk == lo else at_hi if xk == hi else free).append(gk)
    if free:
        lam = math.fsum(free) / len(free)
        worst = max(max(free + at_hi) - lam, lam - min(free + at_lo))
        scale = abs(lam)
    else:
        worst = max(at_hi, default=-math.inf) - min(at_lo, default=math.inf)
        scale = max(map(abs, gradient))
    if worst <= 0.0:
        return 0.0
    return worst / scale if scale else math.inf


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    pg_norm: float
    kkt: float = math.nan  # unknown in a result built by hand


def solve(objective: Callable[[np.ndarray], float],
          gradient: Callable[[np.ndarray], np.ndarray], *, total: float,
          lower: float, upper: float, dimension: int,
          max_iter: int = 100_000) -> SolveResult:
    """Minimize ``objective`` over {sum x = total, lower <= x <= upper} in
    R^dimension by projected gradient descent with a backtracking line search.

    The descent starts from the uniform feasible point total/dimension.
    Steps x+ = proj(x - t * grad) are accepted under an Armijo decrease
    along the projection arc; the accepted step seeds the next trial step
    via the Barzilai-Borwein ratio (spectral projected gradient).  Each
    trial makes one projection, which first tries the current iterate's
    box sides (:func:`_project_near`): near the end they stop changing.
    Terminates when :func:`kkt_residual` is at most ``_KKT_TOL`` at a
    point that meets the budget to the projection's slack, or after
    ``max_iter`` iterations or a step that no longer moves, in which
    case the last point is returned with ``converged=False`` rather than
    raising.  The result carries the residual as ``kkt`` and, computed
    once at return, the fixed-step projected-gradient norm
    ||x - proj(x - grad)|| as ``pg_norm``.
    """
    slack = 1e-12 * max(1.0, abs(total))
    x = project_bounded_simplex(np.full(dimension, total / dimension), total, lower, upper)
    f = objective(x)
    g = gradient(x)
    t = 1.0
    near = x.tolist()
    kkt = kkt_residual(g.tolist(), near, lower, upper)

    def converged() -> bool:
        return kkt <= _KKT_TOL and abs(math.fsum(near) - total) <= slack

    iterations = 0
    while iterations < max_iter and not converged():
        iterations += 1
        while t > 1e-300:
            x_new = _project_near((x - t * g).tolist(), near, total, lower, upper)
            step = x_new - x
            decrease = float(g.dot(step))
            f_new = objective(x_new)
            if f_new <= f + 1e-4 * decrease:
                break
            t *= 0.5
        else:
            break  # no step decreases the objective: stalled
        if not step.any():
            break  # stalled at numerical resolution
        g_new = gradient(x_new)
        # Barzilai-Borwein step for the next iteration, kept positive
        y = g_new - g
        sy = float(step.dot(y))
        if sy > 0:
            t = float(step.dot(step)) / sy
        else:
            t *= 2.0
        x, f, g = x_new, f_new, g_new
        near = x.tolist()
        kkt = kkt_residual(g.tolist(), near, lower, upper)
    pg = x - project_bounded_simplex(x - g, total, lower, upper)
    pg_norm = math.sqrt(pg.dot(pg))  # np.linalg.norm's arithmetic
    return SolveResult(x=x, objective=f, iterations=iterations, converged=converged(),
                       pg_norm=pg_norm, kkt=kkt)
