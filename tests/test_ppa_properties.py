"""Property tests of the closed-form allocator over the whole parameter box.

Budgets span 20-80 dB (P = 1e2 to 1e8), water-filling weights span more
than twenty decades, users may share identical weights, and the box
multiplier mu may put the budget exactly on a vertex of the power box.
Every allocation must exhaust the budget, respect the box, put pinned
users exactly on their bound and give all free users one water level.
At that level a pinned user's unclipped power must lie beyond its bound
(the KKT sign condition); with the one-level check this proves the
allocation optimal, since both objectives are convex in the powers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from mimo_pilot import (InterferenceProfile, SystemConfig, objective_value,
                        ppa_allocate, unconstrained_optimum)
from mimo_pilot.estimators import LS, MMSE, METHODS
from mimo_pilot.harness import reference_solve

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


def _vertex_mus(K):
    """mu at which j users at P/(2K) and K-j at mu*P/K spend exactly P."""
    mus = [(K - j / 2) / (K - j) for j in range(K)]
    return [mu for mu in mus if 1.5 <= mu <= (K + 1) / 2]


@st.composite
def instances(draw, max_db=80.0, min_gain_exp=-12.0):
    K = draw(st.integers(2, 12))
    P = 10.0 ** (draw(st.floats(20.0, max_db)) / 10.0)
    mu = draw(st.floats(1.5, (K + 1) / 2) | st.sampled_from(_vertex_mus(K)))
    # a few distinct (interference, gain) pairs shared out over the users,
    # so ties between users are common
    n_distinct = draw(st.integers(1, K))
    exponents = st.lists(
        st.tuples(st.floats(-8.0, 2.0), st.floats(min_gain_exp, 0.0)),
        min_size=n_distinct, max_size=n_distinct)
    pairs = np.array(draw(exponents))
    owner = draw(st.lists(st.integers(0, n_distinct - 1), min_size=K, max_size=K))
    interference, gain = pairs[owner].T
    profile = InterferenceProfile(upsilon=1.0 + (P / K) * 10.0 ** interference,
                                  beta_target=10.0 ** gain)
    return SystemConfig(K=K, M=200, P_total=P, mu=mu), profile


def _water_levels(method, alloc, profile):
    free = sorted(alloc.free)
    w = (profile.upsilon / profile.beta_target)[free]
    rho = alloc.rho[free]
    if method == LS:
        return rho / np.sqrt(w)
    return (rho + w) / np.sqrt(w)


def _unclipped(method, profile, j, f, rho_f):
    """User j's unclipped power at the water level where user f takes rho_f.

    Written with sqrt-weight differences, so that weights far above the
    budget do not cancel the powers away.
    """
    s = np.sqrt(profile.upsilon / profile.beta_target)
    if method == LS:
        return s[j] / s[f] * rho_f
    return s[j] * (s[f] - s[j]) + s[j] / s[f] * rho_f


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(METHODS))
def test_pinned_users_lie_beyond_their_bound(instance, method):
    cfg, profile = instance
    alloc = ppa_allocate(method, profile, cfg)
    lo, hi, tol = cfg.rho_min, cfg.rho_max, 1e-9 * cfg.P_total
    if alloc.free:
        f = min(alloc.free)
        for j in alloc.at_min:
            assert _unclipped(method, profile, j, f, alloc.rho[f]) <= lo + tol
        for j in alloc.at_max:
            assert _unclipped(method, profile, j, f, alloc.rho[f]) >= hi - tol
    else:
        # no free user fixes the level: it must fit between the level at
        # which every at_max user reaches hi and the one at which an
        # at_min user would leave lo
        for i in alloc.at_max:
            for j in alloc.at_min:
                assert _unclipped(method, profile, j, i, hi) <= lo + tol


@PROPERTY_SETTINGS
@given(instances(max_db=50.0, min_gain_exp=-3.0), st.sampled_from(METHODS))
def test_objective_at_most_the_reference(instance, method):
    # The box stops at 50 dB and gains of 1e-3, where the reference solver's
    # old absolute stopping rule (pg_norm < 1e-10) could still be met.  Its
    # stop is now a scale-free KKT residual; widening the box to 20-80 dB
    # and gains of 1e-12 is ROADMAP item 3.
    cfg, profile = instance
    alloc = ppa_allocate(method, profile, cfg)
    ref = reference_solve(method, profile, cfg)
    assert ref.converged
    # both minimize the MMSE bound, and LS's bound is its exact value
    value = objective_value(method, alloc.rho, profile, cfg.M, exact=False)
    assert value <= ref.objective * (1.0 + 1e-9)


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(METHODS))
def test_allocation_invariants(instance, method):
    cfg, profile = instance
    alloc = ppa_allocate(method, profile, cfg)
    P, lo, hi = cfg.P_total, cfg.rho_min, cfg.rho_max
    rho = alloc.rho
    assert abs(rho.sum() - P) <= 1e-9 * P
    tol = 1e-12 * P
    assert np.all(rho >= lo - tol) and np.all(rho <= hi + tol)
    assert all(rho[k] == lo for k in alloc.at_min)
    assert all(rho[k] == hi for k in alloc.at_max)
    levels = _water_levels(method, alloc, profile)
    if levels.size:
        assert np.ptp(levels) <= 1e-9 * levels.max()


@PROPERTY_SETTINGS
@given(st.integers(2, 12), st.floats(20.0, 80.0), st.floats(-20.0, 0.0),
       st.sampled_from(METHODS))
def test_equal_weights_split_the_budget_evenly(K, p_db, gain_exp, method):
    # gains down to 1e-20 make weights so far above the budget that an
    # MMSE water level written as an absolute number cannot resolve the
    # box: sqrt(w) + lo/sqrt(w) rounds to sqrt(w)
    P = 10.0 ** (p_db / 10.0)
    cfg = SystemConfig(K=K, M=200, P_total=P, mu=1.5)
    profile = InterferenceProfile(upsilon=np.full(K, 1.0 + P / K),
                                  beta_target=np.full(K, 10.0 ** gain_exp))
    alloc = ppa_allocate(method, profile, cfg)
    assert alloc.free == frozenset(range(K))
    assert np.allclose(alloc.rho, P / K, rtol=1e-12, atol=0.0)


@PROPERTY_SETTINGS
@given(st.integers(2, 12), st.floats(20.0, 80.0), st.sampled_from(METHODS))
def test_one_dominant_user_takes_its_bound(K, p_db, method):
    # mu = (K+1)/2 makes "one user at max, the rest at min" a vertex of the
    # box.  An overwhelming weight draws the most power under LS, which
    # lands exactly on that vertex, and the least under MMSE.
    P = 10.0 ** (p_db / 10.0)
    cfg = SystemConfig(K=K, M=200, P_total=P, mu=(K + 1) / 2)
    ups = np.full(K, 1.0 + P / K)
    ups[0] *= 1.0e12
    profile = InterferenceProfile(upsilon=ups, beta_target=np.full(K, 0.1))
    alloc = ppa_allocate(method, profile, cfg)
    # the vertex may be reached by pinning or by the last free user
    if method == LS:
        expected = [cfg.rho_max] + [cfg.rho_min] * (K - 1)
    else:
        expected = [cfg.rho_min] + [(P - cfg.rho_min) / (K - 1)] * (K - 1)
    assert np.allclose(alloc.rho, expected, rtol=1e-9, atol=0.0)


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(METHODS))
def test_allocation_keeps_the_array_bits(instance, method):
    # the list arithmetic against the numpy-array allocator in ``oracle``
    cfg, profile = instance
    got = ppa_allocate(method, profile, cfg)
    want = oracle.ppa_allocate(method, profile, cfg)
    assert np.array_equal(got.rho, want.rho)
    assert (got.free, got.at_min, got.at_max) == (want.free, want.at_min, want.at_max)
    assert np.array_equal(
        unconstrained_optimum(method, profile, cfg.P_total),
        oracle._water_fill(method, profile.upsilon / profile.beta_target, cfg.P_total))


def _order_grid():
    """(P, profile) on a fixed grid: K = 2..12, budgets of 20-80 dB, and
    interference levels and gains from one fixed stream, the gains down
    to 1e-12, so that many MMSE fills take the sqrt-weight fallback."""
    rng = np.random.default_rng(59)
    for K in range(2, 13):
        for p_db in (20.0, 35.0, 50.0, 65.0, 80.0):
            P = 10.0 ** (p_db / 10.0)
            for _ in range(8):
                yield P, InterferenceProfile(
                    upsilon=1.0 + (P / K) * 10.0 ** rng.uniform(-8.0, 2.0, K),
                    beta_target=10.0 ** rng.uniform(-12.0, 0.0, K))


def test_water_fill_does_not_depend_on_user_order():
    # elementwise operations and correctly rounded sums only: permuting
    # the users permutes the powers, bit for bit
    rng = np.random.default_rng(61)
    for P, profile in _order_grid():
        perm = rng.permutation(profile.num_users)
        moved = InterferenceProfile(upsilon=profile.upsilon[perm],
                                    beta_target=profile.beta_target[perm])
        for method in METHODS:
            want = unconstrained_optimum(method, profile, P)[perm]
            assert unconstrained_optimum(method, moved, P).tobytes() == want.tobytes()
