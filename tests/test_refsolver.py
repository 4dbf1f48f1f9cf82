import numpy as np
import pytest

from mimo_pilot import (InterferenceProfile, SystemConfig, default_config,
                        eppa_profile, make_objective, objective_value,
                        plan_for, ppa_allocate, refsolver, run_experiment)
from mimo_pilot.estimators import LS
from mimo_pilot.refsolver import (ConstrainedProblem, SolveResult,
                                  project_bounded_simplex, solve)


def breakpoint_projection(v, total, lo, hi):
    """Reference projection via exact breakpoint search on the dual.

    sum clip(v - theta, lo, hi) is piecewise linear in theta with breaks
    at v_i - lo and v_i - hi; between breaks the slope is minus the free
    count, so theta solves a linear equation on the right segment.
    """
    v = np.asarray(v, dtype=float)
    breaks = np.unique(np.concatenate([v - lo, v - hi]))

    def budget(theta):
        return np.clip(v - theta, lo, hi).sum() - total

    if budget(breaks[0]) <= 0:
        return np.clip(v - breaks[0], lo, hi)
    if budget(breaks[-1]) >= 0:
        return np.clip(v - breaks[-1], lo, hi)
    for a, b in zip(breaks[:-1], breaks[1:]):
        if budget(a) >= 0 >= budget(b):
            # the clip pattern is constant strictly inside the segment
            mid = 0.5 * (a + b)
            free = (v - mid > lo) & (v - mid < hi)
            if not np.any(free):
                return np.clip(v - mid, lo, hi)
            pinned = np.where(v - mid >= hi, hi, 0.0) + np.where(v - mid <= lo, lo, 0.0)
            theta = (v[free].sum() - (total - pinned.sum())) / free.sum()
            return np.clip(v - theta, lo, hi)
    raise AssertionError("no bracketing segment found")


def bisection_projection(v, total, lo, hi):
    """Projection by bisection on theta: the bit-level reference.

    sum clip(v - theta) is non-increasing in theta, so theta is bracketed
    and bisected, then recovered from the free set with the same line
    :func:`project_bounded_simplex` uses, so the two agree bit for bit
    wherever they find the same free set.
    """
    v = np.asarray(v, dtype=float)

    def budget(theta):
        return float(np.clip(v - theta, lo, hi).sum()) - total

    a, b = float(v.min() - hi), float(v.max() - lo)
    if budget(a) < 0 or budget(b) > 0:  # only possible at the degenerate edges
        theta = a if abs(budget(a)) <= abs(budget(b)) else b
    else:
        while b - a > 1e-13 * max(1.0, abs(a), abs(b)):
            mid = 0.5 * (a + b)
            if budget(mid) > 0:
                a = mid
            else:
                b = mid
        theta = 0.5 * (a + b)
        x = v - theta
        free = (x > lo) & (x < hi)
        if np.any(free):
            pinned = np.where(x >= hi, hi, 0.0) + np.where(x <= lo, lo, 0.0)
            theta = (v[free].sum() - (total - pinned.sum())) / free.sum()
    return np.clip(v - theta, lo, hi)


def projection_instances(rng, kind, count):
    """Random, tie-heavy or vertex-budget (v, total, lo, hi) instances."""
    for _ in range(count):
        n = int(rng.integers(1, 13))
        if kind == "random":
            lo = rng.uniform(0.1, 2.0)
            hi = lo + rng.uniform(0.1, 5.0)
            total = rng.uniform(n * lo, n * hi)
            v = rng.normal(scale=10.0, size=n)
        else:
            # small integers: entries share values and land on the bounds
            lo = float(rng.integers(0, 4))
            hi = lo + float(rng.integers(0, 5))
            v = rng.integers(-6, 10, size=n).astype(float)
            if kind == "ties":
                total = float(rng.integers(int(n * lo), int(n * hi) + 1))
            else:
                j = int(rng.integers(0, n + 1))
                total = j * lo + (n - j) * hi
        yield v, total, lo, hi


class TestProjection:
    def test_hand_case_two_users(self):
        out = project_bounded_simplex(np.array([10.0, 0.0]), 10.0, 2.0, 8.0)
        assert out == pytest.approx([8.0, 2.0], abs=1e-12)

    def test_hand_case_uniform_shrink(self):
        out = project_bounded_simplex(np.array([5.0, 5.0, 5.0]), 6.0, 1.0, 3.0)
        assert out == pytest.approx([2.0, 2.0, 2.0], abs=1e-12)

    def test_hand_case_mixed_pins(self):
        out = project_bounded_simplex(np.array([10.0, 1.0, 1.0]), 6.0, 1.5, 3.0)
        assert out == pytest.approx([3.0, 1.5, 1.5], abs=1e-12)

    def test_already_feasible_point_is_fixed(self):
        x = np.array([2.0, 3.0, 5.0])
        out = project_bounded_simplex(x, 10.0, 1.0, 6.0)
        assert out == pytest.approx(x, abs=1e-10)

    def test_degenerate_budget_edges(self):
        v = np.array([9.0, -3.0, 4.0])
        assert project_bounded_simplex(v, 3.0, 1.0, 5.0) == pytest.approx(
            [1.0, 1.0, 1.0], abs=1e-12)
        assert project_bounded_simplex(v, 15.0, 1.0, 5.0) == pytest.approx(
            [5.0, 5.0, 5.0], abs=1e-12)

    def test_matches_breakpoint_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = rng.integers(1, 9)
            lo, width = rng.uniform(0.1, 2.0), rng.uniform(0.1, 5.0)
            hi = lo + width
            total = rng.uniform(n * lo, n * hi)
            v = rng.normal(scale=10.0, size=n)
            got = project_bounded_simplex(v, total, lo, hi)
            want = breakpoint_projection(v, total, lo, hi)
            np.testing.assert_allclose(got, want, atol=1e-8 * max(1.0, total))
            assert got.sum() == pytest.approx(total, abs=1e-8 * max(1.0, total))
            assert np.all(got >= lo - 1e-12) and np.all(got <= hi + 1e-12)

    @pytest.mark.parametrize("kind", ["random", "ties", "vertex"])
    def test_matches_the_bisection(self, kind):
        rng = np.random.default_rng(11)
        for v, total, lo, hi in projection_instances(rng, kind, 2000):
            got = project_bounded_simplex(v, total, lo, hi)
            want = bisection_projection(v, total, lo, hi)
            assert np.all(np.abs(got - want) <= 1e-15 * total)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reference_sweep_keeps_the_bisection_bits(self, seed, monkeypatch):
        plan = plan_for("fig4a", schemes=("eppa", "ppa", "ref"), n_large=10)
        cfg = default_config("fig4a", seed=seed)
        exact = run_experiment(plan, cfg).select(scheme="ref")
        monkeypatch.setattr(refsolver, "project_bounded_simplex", bisection_projection)
        assert run_experiment(plan, cfg).select(scheme="ref") == exact

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        v = rng.normal(scale=4.0, size=6)
        once = project_bounded_simplex(v, 7.0, 0.5, 2.0)
        twice = project_bounded_simplex(once, 7.0, 0.5, 2.0)
        assert twice == pytest.approx(once, abs=1e-9)

    def test_variational_inequality_on_a_segment(self):
        # K=2 feasible set is a segment; the projection must beat every
        # point on it in distance to v
        v = np.array([4.0, -1.0])
        total, lo, hi = 5.0, 1.0, 4.0
        x = project_bounded_simplex(v, total, lo, hi)
        for s in np.linspace(max(lo, total - hi), min(hi, total - lo), 41):
            y = np.array([s, total - s])
            assert np.dot(v - x, y - x) <= 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            project_bounded_simplex(np.ones((2, 2)), 2.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            project_bounded_simplex(np.array([]), 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            project_bounded_simplex(np.ones(3), 2.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="incompatible"):
            project_bounded_simplex(np.ones(3), 10.0, 0.0, 1.0)


def quadratic_problem(center, total, lo, hi, **kwargs):
    center = np.asarray(center, dtype=float)
    return ConstrainedProblem(
        objective=lambda x: 0.5 * float(np.sum((x - center) ** 2)),
        gradient=lambda x: x - center,
        total=total, lower=lo, upper=hi, **kwargs)


class TestSolve:
    def test_quadratic_recovers_the_projection(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            center = rng.normal(scale=5.0, size=5)
            problem = quadratic_problem(center, 6.0, 0.2, 3.0, dimension=5)
            result = solve(problem)
            want = project_bounded_simplex(center, 6.0, 0.2, 3.0)
            assert result.converged
            np.testing.assert_allclose(result.x, want, atol=1e-7)

    def test_allocator_cross_check(self, table_beta):
        cfg = SystemConfig(K=3, M=200, P_total=3.0e3, mu=1.5)
        prof = eppa_profile(table_beta, cfg.P_total, cfg.K)
        fun, grad = make_objective(LS, prof, cfg.M)
        result = solve(ConstrainedProblem(
            objective=fun, gradient=grad, total=cfg.P_total,
            lower=cfg.rho_min, upper=cfg.rho_max, dimension=cfg.K))
        alloc = ppa_allocate(LS, prof, cfg)
        assert result.converged
        assert result.objective == pytest.approx(
            objective_value(LS, alloc.rho, prof, cfg.M), rel=1e-9)
        np.testing.assert_allclose(result.x, alloc.rho, rtol=1e-5)

    def test_output_feasible(self):
        problem = quadratic_problem([40.0, -3.0, 1.0, 1.0], 8.0, 0.5, 6.0,
                                    dimension=4)
        result = solve(problem)
        assert result.x.sum() == pytest.approx(8.0, abs=1e-8)
        assert np.all(result.x >= 0.5 - 1e-10)
        assert np.all(result.x <= 6.0 + 1e-10)

    def test_iteration_cap_reports_not_converged(self):
        # anisotropic quadratic with an interior optimum at (4/3, 2/3);
        # the first accepted step lands off it, so one iteration cannot
        # satisfy the tolerance
        scale = np.array([5.0, 1.0])
        center = np.array([1.4, 1.0])
        problem = ConstrainedProblem(
            objective=lambda x: 0.5 * float(np.sum(scale * (x - center) ** 2)),
            gradient=lambda x: scale * (x - center),
            total=2.0, lower=0.0, upper=2.0, dimension=2)
        capped = solve(problem, max_iter=1)
        assert isinstance(capped, SolveResult)
        assert not capped.converged
        full = solve(problem)
        assert full.converged
        assert full.x == pytest.approx([4.0 / 3.0, 2.0 / 3.0], abs=1e-8)
        assert full.objective <= capped.objective

    def test_converged_point_meets_the_budget(self):
        # weights of ~3e12 leave the projection of a gradient step off the
        # budget by ~1e-7, while the projected gradient reads 0; such a
        # point is not converged
        cfg = SystemConfig(K=3, M=200, P_total=100.0, mu=2.0)
        prof = InterferenceProfile(upsilon=np.full(3, 334.33),
                                   beta_target=np.full(3, 1e-10))
        fun, grad = make_objective(LS, prof, cfg.M)
        result = solve(ConstrainedProblem(
            objective=fun, gradient=grad, total=cfg.P_total,
            lower=cfg.rho_min, upper=cfg.rho_max, dimension=cfg.K))
        miss = abs(float(result.x.sum()) - cfg.P_total)
        assert not result.converged or miss <= 1e-12 * cfg.P_total

    def test_uniform_start_on_symmetric_problem_stays_put(self):
        problem = quadratic_problem([3.0, 3.0, 3.0], 9.0, 1.0, 5.0,
                                    dimension=3)
        result = solve(problem)
        assert result.x == pytest.approx([3.0, 3.0, 3.0], abs=1e-10)
        assert result.iterations == 0
