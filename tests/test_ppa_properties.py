"""Property tests of the closed-form allocator over the whole parameter box.

Budgets span 20-80 dB (P = 1e2 to 1e8), water-filling weights span more
than twenty decades, users may share identical weights, and the box
multiplier mu may put the budget exactly on a vertex of the power box.
Every allocation must exhaust the budget, respect the box, put pinned
users exactly on their bound and give all free users one water level.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo_pilot import InterferenceProfile, SystemConfig, ppa_allocate
from mimo_pilot.estimators import LS, MMSE, METHODS

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


def _vertex_mus(K):
    """mu at which j users at P/(2K) and K-j at mu*P/K spend exactly P."""
    mus = [(K - j / 2) / (K - j) for j in range(K)]
    return [mu for mu in mus if 1.5 <= mu <= (K + 1) / 2]


@st.composite
def instances(draw):
    K = draw(st.integers(2, 12))
    P = 10.0 ** (draw(st.floats(20.0, 80.0)) / 10.0)
    mu = draw(st.floats(1.5, (K + 1) / 2) | st.sampled_from(_vertex_mus(K)))
    # a few distinct (interference, gain) pairs shared out over the users,
    # so ties between users are common
    n_distinct = draw(st.integers(1, K))
    exponents = st.lists(st.tuples(st.floats(-8.0, 2.0), st.floats(-12.0, 0.0)),
                         min_size=n_distinct, max_size=n_distinct)
    pairs = np.array(draw(exponents))
    owner = draw(st.lists(st.integers(0, n_distinct - 1), min_size=K, max_size=K))
    interference, gain = pairs[owner].T
    profile = InterferenceProfile(upsilon=1.0 + (P / K) * 10.0 ** interference,
                                  beta_target=10.0 ** gain)
    return SystemConfig(K=K, M=200, P_total=P, mu=mu), profile


def _water_levels(method, alloc, profile):
    free = sorted(alloc.free)
    w = profile.weight[free]
    rho = alloc.rho[free]
    if method == LS:
        return rho / np.sqrt(w)
    return (rho + w) / np.sqrt(w)


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
@given(st.integers(2, 12), st.floats(20.0, 80.0), st.sampled_from(METHODS))
def test_equal_weights_split_the_budget_evenly(K, p_db, method):
    P = 10.0 ** (p_db / 10.0)
    cfg = SystemConfig(K=K, M=200, P_total=P, mu=1.5)
    profile = InterferenceProfile(upsilon=np.full(K, 1.0 + P / K),
                                  beta_target=np.full(K, 0.1))
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
