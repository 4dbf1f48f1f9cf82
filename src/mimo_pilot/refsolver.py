"""General-purpose solver for budgeted box-constrained minimization.

Used as an independent check of the closed-form allocator: it knows
nothing about the objective's structure beyond a gradient, and handles
the feasible set {sum x = total, lo <= x <= hi} by Euclidean projection.
:func:`solve` takes the objective and its gradient by position and the
set's fields by keyword.  The projection and the allocator share one
search, :func:`_clip_level`, for the level at which a sum of clipped
linear terms meets a budget.  The projection's terms all have unit
slope, and the least-squares allocator's zero offset, which the search
then leaves out of its arithmetic.

Both work on vectors of one entry per user, K <= 12, where numpy's
per-call overhead outweighs the arithmetic, so their hot paths run on
Python float lists, entry by entry in the operations numpy would do.
The exception is a sum: numpy adds float64 in an order of its own,
which sets the last bits of every level and so the CSVs; sums go
through :func:`_np_sum`, which replicates that order exactly.
"""

from __future__ import annotations

import math
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


def _np_sum(xs) -> float:
    """``np.sum`` of a list of floats, bit for bit, without making an array.

    NumPy adds float64 pairwise: one running sum below 8 entries, 8
    interleaved lanes folded as a tree up to 128 entries, and longer runs
    split in two at a multiple of 8.  Like numpy's, the sum starts from
    0.0, so it is never -0.0.
    """
    n = len(xs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _np_sum(xs[:half]) + _np_sum(xs[half:])
    total, tail = 0.0, n - n % 8
    if tail:
        r = xs[:8]
        for i in range(8, tail, 8):
            r = [a + b for a, b in zip(r, xs[i:i + 8])]
        total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        xs = xs[tail:]
    for x in xs:
        total += x
    return total


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
    n_free = side.count(0)
    if not n_free:
        return np.array([hi if g > 0 else lo for g in side])
    # both sums in numpy's order, which sets theta's last bits
    pinned = _np_sum([hi if g > 0 else lo if g < 0 else 0.0 for g in side])
    free = _np_sum([x for x, g in zip(v, side) if g == 0])
    theta = (free - (total - pinned)) / n_free
    return np.array([lo if (y := x - theta) < lo else hi if y > hi else y for x in v])


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    pg_norm: float


def solve(objective: Callable[[np.ndarray], float],
          gradient: Callable[[np.ndarray], np.ndarray], *, total: float,
          lower: float, upper: float, dimension: int,
          max_iter: int = 100_000) -> SolveResult:
    """Minimize ``objective`` over {sum x = total, lower <= x <= upper} in
    R^dimension by projected gradient descent with a backtracking line search.

    The descent starts from the uniform feasible point total/dimension.
    Steps x+ = proj(x - t * grad) are accepted under an Armijo decrease
    along the projection arc; the accepted step seeds the next trial step
    via the Barzilai-Borwein ratio.  Terminates when the fixed-step
    projected-gradient norm ||x - proj(x - grad)|| drops below ``_TOL``
    at a point that meets the budget to the projection's slack, or after
    ``max_iter`` iterations, in which case the best point found is
    returned with ``converged=False`` rather than raising.
    """
    slack = 1e-12 * max(1.0, abs(total))

    def proj(z: np.ndarray) -> np.ndarray:
        return project_bounded_simplex(z, total, lower, upper)

    def converged(x: np.ndarray, pg_norm: float) -> bool:
        return pg_norm < _TOL and abs(_np_sum(x.tolist()) - total) <= slack

    x = proj(np.full(dimension, total / dimension))
    f = objective(x)
    g = gradient(x)
    t = 1.0
    pg = x - proj(x - g)
    pg_norm = math.sqrt(pg.dot(pg))  # np.linalg.norm's arithmetic
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if converged(x, pg_norm):
            return SolveResult(x=x, objective=f, iterations=iterations - 1,
                               converged=True, pg_norm=pg_norm)
        accepted = False
        while t > 1e-300:
            x_new = proj(x - t * g)
            step = x_new - x
            decrease = float(g.dot(step))
            f_new = objective(x_new)
            if f_new <= f + 1e-4 * decrease:
                accepted = True
                break
            t *= 0.5
        if not accepted or not step.any():
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
        pg = x - proj(x - g)
        pg_norm = math.sqrt(pg.dot(pg))
    return SolveResult(x=x, objective=f, iterations=iterations,
                       converged=converged(x, pg_norm), pg_norm=pg_norm)
