import math
import warnings

import numpy as np
import pytest

import oracle
from mimo_pilot import (InterferenceProfile, SystemConfig, default_config,
                        eppa_profile, harness, make_objective, objective_value,
                        plan_for, ppa_allocate, refsolver, run_experiment)
from mimo_pilot.estimators import LS, MMSE
from mimo_pilot.harness import reference_solve
from mimo_pilot.refsolver import (SolveResult, _clip_level, _project_near,
                                  kkt_residual, project_bounded_simplex, solve)


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
            theta = (math.fsum(v[free]) - (total - math.fsum(pinned))) / free.sum()
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


def budget_sweep(rng, count):
    """(v, total, lo, hi) at budgets 1e0-1e8, shaped like solver steps.

    v scatters around the flat share P/n, by up to ten shares; one
    instance in five puts the budget on a vertex of the box.
    """
    for _ in range(count):
        n = int(rng.integers(1, 13))
        P = 10.0 ** rng.uniform(0.0, 8.0)
        lo = P / n * rng.uniform(0.0, 1.0)
        hi = P / n * rng.uniform(1.0, 3.0)
        v = P / n * (1.0 + rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 1.0))
        if rng.random() < 0.2:
            j = int(rng.integers(0, n + 1))
            P = j * lo + (n - j) * hi
        yield v, P, lo, hi


def level_instances(rng, count):
    """(s, c, total, lo, hi) of the level search, as the allocator and
    the projection pose it, with offsets c up to 1e12 times the budget."""
    for i in range(count):
        n = int(rng.integers(1, 13))
        lo = 10.0 ** rng.uniform(-3.0, 3.0)
        hi = lo * rng.choice([1.0, rng.uniform(1.0, 5.0)])
        total = rng.uniform(n * lo, n * hi)
        s = (10.0 ** rng.uniform(-6.0, 6.0, n)).tolist()
        kind = i % 4
        if kind == 0:
            c = [0.0] * n
        elif kind == 1:
            c = s
        else:
            s = [1.0] * n if kind == 2 else s
            c = (rng.normal(size=n) * total * 10.0 ** rng.uniform(-3.0, 12.0)).tolist()
        yield s, c, total, lo, hi


def unit_slope_instances(rng, count):
    """(c, total, lo, hi) of the level search as the projection poses it,
    c = -v at unit slopes: random, tie-heavy and vertex instances, solver
    steps at budgets 1e0-1e8, and two kinds that take the recentring
    pass: ties offset by 10**3.5-10**12 times the budget, and offsets of
    1e6-1e12 times the budget around a box narrower than their precision,
    where the pass sets the sides."""
    for kind in ("random", "ties", "vertex"):
        for v, total, lo, hi in projection_instances(rng, kind, count):
            yield (-v).tolist(), total, lo, hi
    for v, total, lo, hi in budget_sweep(rng, count):
        yield (-v).tolist(), total, lo, hi
    for v, total, lo, hi in projection_instances(rng, "ties", count):
        shift = max(1.0, total) * 10.0 ** rng.uniform(3.5, 12.0) * rng.choice([-1.0, 1.0])
        yield (shift - v).tolist(), total, lo, hi
    for _ in range(count):
        n = int(rng.integers(1, 13))
        lo = 10.0 ** rng.uniform(-3.0, 3.0)
        hi = lo * (1.0 + 10.0 ** rng.uniform(-9.0, -4.0))
        total = rng.uniform(n * lo, n * hi)
        yield (rng.normal(size=n) * total * 10.0 ** rng.uniform(6.0, 12.0)).tolist(), total, lo, hi


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
        served = []

        def counted(projection):
            def project(*args):
                served.append(projection)
                return projection(*args)
            return project

        monkeypatch.setattr(refsolver, "project_bounded_simplex",
                            counted(project_bounded_simplex))
        exact = run_experiment(plan, cfg).select(scheme="ref")
        monkeypatch.setattr(refsolver, "project_bounded_simplex",
                            counted(bisection_projection))
        assert run_experiment(plan, cfg).select(scheme="ref") == exact
        # every projection of the second sweep came from the oracle
        assert served.count(bisection_projection) == served.count(
            project_bounded_simplex) > 0

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


class TestListArithmetic:
    """The list forms return the bits of the array forms in ``oracle``."""

    @pytest.mark.parametrize("kind", ["random", "ties", "vertex"])
    def test_projection_keeps_the_array_bits(self, kind):
        rng = np.random.default_rng(29)
        for v, total, lo, hi in projection_instances(rng, kind, 2000):
            np.testing.assert_array_equal(
                project_bounded_simplex(v, total, lo, hi),
                oracle.project_bounded_simplex(v, total, lo, hi))

    def test_projection_keeps_the_array_bits_at_every_budget(self):
        rng = np.random.default_rng(31)
        for v, total, lo, hi in budget_sweep(rng, 5000):
            np.testing.assert_array_equal(
                project_bounded_simplex(v, total, lo, hi),
                oracle.project_bounded_simplex(v, total, lo, hi))

    def test_level_search_keeps_its_sides(self):
        rng = np.random.default_rng(37)
        for args in level_instances(rng, 5000):
            assert _clip_level(*args) == oracle._clip_level(*args)
        # s=None, the unit slopes of the projection
        rng = np.random.default_rng(43)
        far = 0
        for c, total, lo, hi in unit_slope_instances(rng, 1000):
            assert _clip_level(None, c, total, lo, hi) == oracle._clip_level(
                [1.0] * len(c), c, total, lo, hi)
            far += min(map(abs, c)) > 1024.0 * abs(total)
        assert far >= 1000
        # c=None, the zero offsets of the least-squares allocator, with
        # slopes that tie one instance in two and the budget on a vertex of
        # the box in the other
        rng = np.random.default_rng(53)
        for i, (s, _, total, lo, hi) in enumerate(level_instances(rng, 2000)):
            if i % 2:
                s = [s[0] * float(rng.integers(1, 4)) for _ in s]
            else:
                j = int(rng.integers(0, len(s) + 1))
                total = j * lo + (len(s) - j) * hi
            assert _clip_level(s, None, total, lo, hi) == oracle._clip_level(
                s, [0.0] * len(s), total, lo, hi)


class TestKktResidual:
    def test_free_entries_read_their_spread_over_the_multiplier(self):
        assert kkt_residual([-2.0, -2.0, -2.0], [1.0, 2.0, 3.0], 0.5, 4.0) == 0.0
        # lambda = -2, the worst free entry 0.2 away
        assert kkt_residual([-2.0, -2.2, -1.8], [1.0, 2.0, 3.0], 0.5, 4.0) == pytest.approx(0.1)

    def test_does_not_depend_on_the_entries_order(self):
        # the multiplier is a correctly rounded mean, the rest max and min
        rng = np.random.default_rng(67)
        for _ in range(500):
            n = int(rng.integers(1, 13))
            lo, hi = 1.0, 3.0
            x = rng.choice([lo, hi, 2.0], size=n).tolist()
            g = (-rng.uniform(1.0, 2.0, n) * 10.0 ** rng.uniform(-10.0, 0.0, n)).tolist()
            want = kkt_residual(g, x, lo, hi)
            for _ in range(4):
                perm = rng.permutation(n)
                assert kkt_residual([g[k] for k in perm], [x[k] for k in perm],
                                    lo, hi) == want

    def test_scale_free(self):
        # gradients of 1e-10, as at an 80 dB budget, read as at 1
        g, x = [-2.0, -2.2, -1.8], [1e7, 2e7, 3e7]
        assert kkt_residual([1e-10 * gk for gk in g], x, 5e6, 4e7) == pytest.approx(
            kkt_residual(g, x, 5e6, 4e7), rel=1e-12)

    def test_vertex(self):
        # every entry pinned: the largest gradient at hi may not exceed the
        # smallest at lo
        assert kkt_residual([-1.0, -3.0, -2.0], [0.5, 4.0, 4.0], 0.5, 4.0) == 0.0
        assert kkt_residual([-3.0, -1.0, -2.0], [0.5, 4.0, 4.0], 0.5, 4.0) == pytest.approx(
            2.0 / 3.0)

    def test_violation_at_lo(self):
        x = [0.5, 2.0, 3.0]
        assert kkt_residual([-1.5, -2.0, -2.0], x, 0.5, 4.0) == 0.0
        # lambda = -2 exceeds the gradient at lo by 0.5
        assert kkt_residual([-2.5, -2.0, -2.0], x, 0.5, 4.0) == pytest.approx(0.25)

    def test_violation_at_hi(self):
        x = [1.0, 2.0, 4.0]
        assert kkt_residual([-2.0, -2.0, -3.0], x, 0.5, 4.0) == 0.0
        # the gradient at hi exceeds lambda = -2 by 1
        assert kkt_residual([-2.0, -2.0, -1.0], x, 0.5, 4.0) == pytest.approx(0.5)


class TestProjectNear:
    """The warm start returns the projection's bits, or falls back to it."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return project_bounded_simplex(*args)

        monkeypatch.setattr(refsolver, "project_bounded_simplex", counted)
        return calls

    @pytest.mark.parametrize("guess", ["exact", "perturbed"])
    def test_guesses_keep_the_projection_bits(self, guess, fallbacks):
        rng = np.random.default_rng(59)
        instances = [*projection_instances(rng, "random", 2000), *budget_sweep(rng, 2000)]
        for i, (v, total, lo, hi) in enumerate(instances):
            near = v if guess == "exact" else v * (1.0 + 1e-9 * rng.normal(size=v.size))
            near = project_bounded_simplex(near, total, lo, hi).tolist()
            fallbacks.clear()
            got = _project_near(v.tolist(), near, total, lo, hi)
            np.testing.assert_array_equal(got, project_bounded_simplex(v, total, lo, hi))
            if i < 2000:  # a random instance's guess always holds
                assert not fallbacks

    def test_inconsistent_guess_falls_back(self, fallbacks):
        # all free would put entry 0 at 4.67 > hi and entry 2 at -0.33 < lo
        got = _project_near([5.0, 2.0, 0.0], [2.0, 2.0, 2.0], 6.0, 0.5, 3.5)
        assert got.tolist() == [3.5, 2.0, 0.5]
        assert len(fallbacks) == 1

    def test_all_pinned_guess_falls_back(self, fallbacks):
        got = _project_near([5.0, 2.0, 0.0], [4.0, 1.0, 1.0], 6.0, 1.0, 4.0)
        assert got.tolist() == [4.0, 1.0, 1.0]
        assert len(fallbacks) == 1


# A reference solve that stalled short of the old absolute stopping rule
# (pg_norm < 1e-10) at 4.4e-10 after 6 iterations: MMSE, 50 dB, upsilon
# four decades apart.
STALL_CFG = SystemConfig(K=3, M=200, P_total=1e5, mu=2.0)
STALL_PROFILE = InterferenceProfile(
    upsilon=np.array([1.33333333, 33334.3333, 33334.3333]),
    beta_target=np.array([1.0, 0.01, 0.01]))


def _stall_solve():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return reference_solve(MMSE, STALL_PROFILE, STALL_CFG)


def test_known_stall_keeps_its_iterates():
    result = _stall_solve()
    assert result.iterations == 2
    alloc = ppa_allocate(MMSE, STALL_PROFILE, STALL_CFG)
    assert result.objective == objective_value(MMSE, alloc.rho, STALL_PROFILE,
                                               STALL_CFG.M, exact=False)


def test_known_stall_converges():
    assert _stall_solve().converged


@pytest.mark.parametrize("seed", [0, 1])
def test_no_converged_reference_lies_above_the_allocator(seed, monkeypatch):
    # fig4b --with-ref --drops 10 runs 20-80 dB.  At 80 dB the gradient is
    # ~1e-10 against powers of ~1e7: an absolute stop there certified points
    # up to 32% above the allocator's objective.
    solves = []

    def recorded(method, profile, cfg):
        result = reference_solve(method, profile, cfg)
        solves.append((method, profile, cfg, result))
        return result

    monkeypatch.setattr(harness, "reference_solve", recorded)
    plan = plan_for("fig4b", schemes=("eppa", "ppa", "ref"), n_large=10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(plan, default_config("fig4b", seed=seed))
    assert len(solves) == len(plan.gammas) * len(plan.p_grid_db) * 10 * 2
    unconverged = 0
    for method, profile, cfg, result in solves:
        if not result.converged:
            unconverged += 1
            continue
        fun, _ = make_objective(method, profile, cfg.M)
        best = fun(ppa_allocate(method, profile, cfg).rho)
        assert result.objective <= best * (1.0 + 1e-6), (method, cfg.P_total)
    warned = [w for w in caught if issubclass(w.category, RuntimeWarning)
              and "did not converge" in str(w.message)]
    assert len(warned) == unconverged


def solve_quadratic(center, total, lo, hi, dimension):
    center = np.asarray(center, dtype=float)
    return solve(lambda x: 0.5 * float(np.sum((x - center) ** 2)), lambda x: x - center,
                 total=total, lower=lo, upper=hi, dimension=dimension)


class TestSolve:
    def test_quadratic_recovers_the_projection(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            center = rng.normal(scale=5.0, size=5)
            result = solve_quadratic(center, 6.0, 0.2, 3.0, dimension=5)
            want = project_bounded_simplex(center, 6.0, 0.2, 3.0)
            assert result.converged
            np.testing.assert_allclose(result.x, want, atol=1e-7)

    def test_allocator_cross_check(self, table_beta):
        cfg = SystemConfig(K=3, M=200, P_total=3.0e3, mu=1.5)
        prof = eppa_profile(table_beta, cfg.P_total, cfg.K)
        result = reference_solve(LS, prof, cfg)
        alloc = ppa_allocate(LS, prof, cfg)
        assert result.converged
        assert result.objective == pytest.approx(
            objective_value(LS, alloc.rho, prof, cfg.M), rel=1e-9)
        np.testing.assert_allclose(result.x, alloc.rho, rtol=1e-5)

    def test_output_feasible(self):
        result = solve_quadratic([40.0, -3.0, 1.0, 1.0], 8.0, 0.5, 6.0, dimension=4)
        assert result.x.sum() == pytest.approx(8.0, abs=1e-8)
        assert np.all(result.x >= 0.5 - 1e-10)
        assert np.all(result.x <= 6.0 + 1e-10)

    def test_iteration_cap_reports_not_converged(self):
        # anisotropic quadratic with an interior optimum at (4/3, 2/3);
        # the first accepted step lands off it, so one iteration cannot
        # satisfy the tolerance
        scale = np.array([5.0, 1.0])
        center = np.array([1.4, 1.0])
        problem = (lambda x: 0.5 * float(np.sum(scale * (x - center) ** 2)),
                   lambda x: scale * (x - center))
        box = dict(total=2.0, lower=0.0, upper=2.0, dimension=2)
        capped = solve(*problem, **box, max_iter=1)
        assert isinstance(capped, SolveResult)
        assert not capped.converged
        full = solve(*problem, **box)
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
        with warnings.catch_warnings():
            # an unconverged solve warns; the assertion reads its flag
            warnings.simplefilter("ignore", RuntimeWarning)
            result = reference_solve(LS, prof, cfg)
        miss = abs(float(result.x.sum()) - cfg.P_total)
        assert not result.converged or miss <= 1e-12 * cfg.P_total

    def test_uniform_start_on_symmetric_problem_stays_put(self):
        result = solve_quadratic([3.0, 3.0, 3.0], 9.0, 1.0, 5.0, dimension=3)
        assert result.x == pytest.approx([3.0, 3.0, 3.0], abs=1e-10)
        assert result.iterations == 0
