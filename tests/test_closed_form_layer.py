"""The array closed-form layer against per-user scalar reference formulas.

The ``_ref_*`` functions below evaluate one user column at a time, in the
arithmetic order of the original scalar closed forms.  The array layer
must reproduce them bit for bit on random (L, K) instances, for every
antenna count at once, so the figure sweeps built on it keep their bytes.
"""

import math

import numpy as np
import pytest

from mimo_pilot import (SystemConfig, achievable_rate, exp_rcee_bound_mmse,
                        exp_rcee_closed, exp_rcee_eppa_limit, exp_rcee_limit, plan_for,
                        sinr_closed, sinr_limit)
from mimo_pilot.estimators import LS, MMSE
from mimo_pilot.harness import _fig5a_closed, _fig5b_closed
from mimo_pilot.metrics import _total
from oracle import mmse_gain, upsilon

M_GRID = np.array([1, 2, 3, 8, 17, 200, 512, 4096])


def _ref_upsilon(rho, beta):
    return float(np.dot(rho[1:], beta[1:]) + 1.0)


def _ref_closed(method, M, rho, beta):
    if M == 1:
        return math.inf
    ups = _ref_upsilon(rho, beta)
    own = rho[0] * beta[0]
    if method == LS:
        return M * ups / ((M - 1) * own)
    total = float(np.dot(rho, beta) + 1.0)
    return ups * (ups + M * own / (M - 1)) / total ** 2


def _ref_bound(M, rho, beta):
    ups = _ref_upsilon(rho, beta)
    total = float(np.dot(rho, beta) + 1.0)
    return M * ups / ((M - 1) * total)


def _ref_limit(method, rho, beta):
    ups = _ref_upsilon(rho, beta)
    own = rho[0] * beta[0]
    if method == LS:
        return ups / own
    return ups / (ups + own)


def _ref_eppa_limit(method, beta, K, P):
    interference = float(beta[1:].sum()) + K / P
    if method == LS:
        return interference / beta[0]
    return interference / (float(beta.sum()) + K / P)


def _ref_eppa_floor(method, beta):
    interference = float(beta[1:].sum())
    if method == LS:
        return interference / beta[0]
    return interference / float(beta.sum())


def _ref_sinr(M, rho, beta_slice, rho_u, k):
    beta_k = beta_slice[:, k]
    own = rho[0] * beta_k[0]
    numer = M * own * beta_k[0]
    coherent = M * float(np.dot(rho[1:], beta_k[1:] ** 2))
    level = float(np.dot(rho, beta_k) + 1.0)
    numer_total = level * (1.0 / rho_u + float(beta_slice.sum()))
    return numer / (coherent + numer_total)


def _ref_sinr_limit(rho, beta):
    denom = float(np.dot(rho[1:], beta[1:] ** 2))
    if denom == 0.0:
        return math.inf
    return rho[0] * beta[0] ** 2 / denom


def _ref_rate(cfg, sinr):
    return cfg.rate_prefactor * math.log2(1.0 + sinr)


def _instance(rng, L, K, fortran=False):
    """Powers spanning six decades and gains spanning twelve."""
    rho = rng.uniform(0.0, 1.0e4, (L, K)) * 10.0 ** rng.uniform(-3, 3, (L, K))
    rho[0] = rng.uniform(1.0, 1.0e4, K)
    beta = 10.0 ** rng.uniform(-12, 0, (L, K))
    if fortran:
        rho, beta = np.asfortranarray(rho), np.asfortranarray(beta)
    return rho, beta


def _per_user(fn, K):
    return np.array([fn(k) for k in range(K)])


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("L,K,fortran", [(7, 10, False), (7, 10, True),
                                          (7, 3, False), (2, 4, False),
                                          (1, 5, False)])
def test_array_layer_matches_scalar_reference(L, K, fortran):
    rng = np.random.default_rng(100 + 10 * L + K + fortran)
    cfg = SystemConfig(K=10, M=200, P_total=1.0e4, mu=3.0)
    for _ in range(200):
        rho, beta = _instance(rng, L, K, fortran)
        _same_bits(upsilon(rho, beta),
                   _per_user(lambda k: _ref_upsilon(rho[:, k], beta[:, k]), K))
        for method in (LS, MMSE):
            grid = exp_rcee_closed(method, M_GRID, rho, beta)
            _same_bits(grid, [_per_user(lambda k: _ref_closed(
                method, int(M), rho[:, k], beta[:, k]), K) for M in M_GRID])
            _same_bits(exp_rcee_closed(method, 200, rho, beta), grid[M_GRID == 200][0])
            _same_bits(exp_rcee_limit(method, rho, beta), _per_user(
                lambda k: _ref_limit(method, rho[:, k], beta[:, k]), K))
            _same_bits(exp_rcee_eppa_limit(method, beta, K, math.inf), _per_user(
                lambda k: _ref_eppa_floor(method, beta[:, k]), K))
            _same_bits(exp_rcee_eppa_limit(method, beta, K, 1.0e4), _per_user(
                lambda k: _ref_eppa_limit(method, beta[:, k], K, 1.0e4), K))
        _same_bits(exp_rcee_bound_mmse(M_GRID[1:], rho, beta),
                   [_per_user(lambda k: _ref_bound(int(M), rho[:, k], beta[:, k]), K)
                    for M in M_GRID[1:]])
        sinr = sinr_closed(M_GRID, rho, beta, 100.0)
        _same_bits(sinr, [_per_user(lambda k: _ref_sinr(int(M), rho[:, k], beta,
                                                         100.0, k), K)
                          for M in M_GRID])
        limit = sinr_limit(rho, beta)
        _same_bits(limit, _per_user(lambda k: _ref_sinr_limit(rho[:, k], beta[:, k]), K))
        rates = achievable_rate(cfg, sinr)
        _same_bits(rates, [[_ref_rate(cfg, float(s)) for s in row] for row in sinr])
        _same_bits(rates.min(axis=-1), [min(row) for row in rates])
        _same_bits(rates.mean(axis=-1), [float(np.mean(list(row))) for row in rates])
        _same_bits(achievable_rate(cfg, limit).mean(axis=-1),
                   float(np.mean([_ref_rate(cfg, float(s)) for s in limit])))


@pytest.mark.parametrize("L", [1, 2, 7])
def test_stacked_mmse_shrinkage_matches_mmse_gain(L):
    # the Monte-Carlo kernel's shrinkage over a stack of allocations, one
    # mmse_gain call per (allocation, user) as the reference
    rng = np.random.default_rng(40 + L)
    for K in (2, 3, 8, 10):
        pairs = [_instance(rng, L, K) for _ in range(29)]
        rho_stack = np.stack([rho for rho, _ in pairs])
        beta = pairs[0][1]
        stacked = rho_stack[:, 0] * beta[0] / _total(rho_stack, beta)
        _same_bits(stacked, [[mmse_gain(rho[:, k], beta[:, k]) for k in range(K)]
                             for rho in rho_stack])


@pytest.mark.parametrize("C", [1, 4, 28])
@pytest.mark.parametrize("L", [1, 2, 7])
@pytest.mark.parametrize("K", [2, 3, 10])
def test_stacked_powers_match_per_slice_calls(C, L, K):
    # a (C, L, K) stack of allocations against one (L, K) gain slice gives
    # each slice's values bit for bit, stack axis first, then antennas
    rng = np.random.default_rng(1000 + 100 * C + 10 * L + K)
    cfg = SystemConfig(K=10, M=200, P_total=1.0e4, mu=3.0)
    for _ in range(5):
        pairs = [_instance(rng, L, K) for _ in range(C)]
        rho, beta = np.stack([r for r, _ in pairs]), pairs[0][1]

        def check(fn, shape):
            stacked = fn(rho)
            assert stacked.shape == shape
            _same_bits(stacked, [fn(r) for r in rho])

        check(lambda r: upsilon(r, beta), (C, K))
        for method in (LS, MMSE):
            check(lambda r: exp_rcee_closed(method, M_GRID, r, beta), (C, len(M_GRID), K))
            check(lambda r: exp_rcee_closed(method, 200, r, beta), (C, K))
            check(lambda r: exp_rcee_limit(method, r, beta), (C, K))
        check(lambda r: exp_rcee_bound_mmse(M_GRID[1:], r, beta), (C, len(M_GRID) - 1, K))
        check(lambda r: sinr_closed(M_GRID, r, beta, 100.0), (C, len(M_GRID), K))
        check(lambda r: sinr_closed(200, r, beta, 100.0), (C, K))
        check(lambda r: sinr_limit(r, beta), (C, K))
        for sinr in (lambda r: sinr_closed(M_GRID, r, beta, 100.0),
                     lambda r: sinr_limit(r, beta)):
            rates = achievable_rate(cfg, sinr(rho))
            per_slice = [achievable_rate(cfg, sinr(r)) for r in rho]
            _same_bits(rates.min(axis=-1), [r.min(axis=-1) for r in per_slice])
            _same_bits(rates.mean(axis=-1), [r.mean(axis=-1) for r in per_slice])
        # a stack with a second leading axis, and a stack of user columns
        _same_bits(exp_rcee_closed(LS, M_GRID, rho[None], beta)[0],
                   exp_rcee_closed(LS, M_GRID, rho, beta))
        _same_bits(exp_rcee_closed(LS, M_GRID, rho[..., 0], beta[:, 0]),
                   exp_rcee_closed(LS, M_GRID, rho, beta)[..., 0])


@pytest.mark.parametrize("C", [1, 4, 28])
@pytest.mark.parametrize("L", [1, 2, 7])
@pytest.mark.parametrize("K", [2, 3, 10])
def test_stacked_gains_match_per_slice_calls(C, L, K):
    # D drops' gains against each drop's C allocations: (D, 1, L, K) gains
    # against (D, C, L, K) powers give slice (d, c) bit for bit, also as a
    # stride-0 broadcast of one drop's gains, and with an antenna grid
    # between the stack and the users
    rng = np.random.default_rng(2000 + 100 * C + 10 * L + K)
    cfg = SystemConfig(K=10, M=200, P_total=1.0e4, mu=3.0)
    D = 3
    for _ in range(3):
        pairs = [_instance(rng, L, K) for _ in range(D * C)]
        rho = np.stack([r for r, _ in pairs]).reshape(D, C, L, K)
        gains = np.stack([b for _, b in pairs[::C]])  # (D, L, K)
        shared = np.broadcast_to(gains[:1, None], (D, 1, L, K))  # stride 0 over drops
        for beta in (gains[:, None], shared):

            def check(fn, grid=()):
                stacked = fn(rho, beta)
                assert stacked.shape == (D, C, *grid, K)
                _same_bits(stacked, [[fn(rho[d, c], beta[d, 0]) for c in range(C)]
                                     for d in range(D)])

            check(upsilon)
            for method in (LS, MMSE):
                check(lambda r, b: exp_rcee_closed(method, M_GRID, r, b), (len(M_GRID),))
                check(lambda r, b: exp_rcee_closed(method, 200, r, b))
                check(lambda r, b: exp_rcee_limit(method, r, b))
                _same_bits(exp_rcee_eppa_limit(method, beta[:, 0], K, math.inf),
                           [exp_rcee_eppa_limit(method, b, K, math.inf) for b in beta[:, 0]])
                _same_bits(exp_rcee_eppa_limit(method, beta[:, 0], K, 1.0e4),
                           [exp_rcee_eppa_limit(method, b, K, 1.0e4) for b in beta[:, 0]])
            check(lambda r, b: exp_rcee_bound_mmse(M_GRID[1:], r, b), (len(M_GRID) - 1,))
            # each slice's interference sums its own drop's L*K gains
            check(lambda r, b: sinr_closed(M_GRID, r, b, 100.0), (len(M_GRID),))
            check(lambda r, b: sinr_closed(200, r, b, 100.0))
            check(sinr_limit)
            for sinr in (lambda r, b: sinr_closed(M_GRID, r, b, 100.0), sinr_limit):
                rates = achievable_rate(cfg, sinr(rho, beta))
                for d in range(D):
                    per_slice = achievable_rate(cfg, sinr(rho[d], beta[d, 0]))
                    _same_bits(rates[d].min(axis=-1), per_slice.min(axis=-1))
                    _same_bits(rates[d].mean(axis=-1), per_slice.mean(axis=-1))
        # gains with more stack axes than the powers broadcast the powers
        _same_bits(sinr_closed(M_GRID, rho[0], gains[:, None], 100.0),
                   [sinr_closed(M_GRID, rho[0], b, 100.0) for b in gains])


class TestShapes:
    def test_column_gives_float(self, table_beta):
        rho = np.full(7, 1000.0)
        for value in (upsilon(rho, table_beta[:, 0]),
                      exp_rcee_closed(LS, 8, rho, table_beta[:, 0]),
                      exp_rcee_limit(MMSE, rho, table_beta[:, 0]),
                      exp_rcee_eppa_limit(MMSE, table_beta[:, 0], 3, math.inf),
                      sinr_limit(rho, table_beta[:, 0])):
            assert isinstance(value, float)

    def test_antenna_grid_shapes(self, table_beta):
        rho = np.full((7, 3), 1000.0)
        assert exp_rcee_closed(MMSE, [8, 16, 32], rho, table_beta).shape == (3, 3)
        assert exp_rcee_closed(MMSE, 8, rho, table_beta).shape == (3,)
        assert exp_rcee_closed(LS, [8, 16], rho[:, 0], table_beta[:, 0]).shape == (2,)
        assert sinr_closed((2, 4, 8, 16), rho, table_beta, 100.0).shape == (4, 3)
        assert exp_rcee_bound_mmse([2, 3], rho, table_beta).shape == (2, 3)

    def test_grid_rows_equal_single_antenna_calls(self, table_beta):
        rho = np.full((7, 3), 1000.0)
        grid = exp_rcee_closed(MMSE, [8, 512], rho, table_beta)
        assert np.array_equal(grid[1], exp_rcee_closed(MMSE, 512, rho, table_beta))

    def test_rate_summary_of_a_stack(self, table_beta):
        # the sweep's rate figures of a (gamma, drop, budget, allocation)
        # stack: fig5a's worst user at each antenna count, fig5b's average
        # user in the limit, one row per allocation, each reuse factor's
        # rates at its own config's prefactor
        cfg = SystemConfig(K=3, M=8, P_total=3.0e3, mu=1.5)
        cfgs = [cfg, cfg.replace(Gamma=3)]
        plan = plan_for("fig5a", n_large=1)
        rho = np.full((2, 7, 3), 1000.0)
        rho[1, 0] = [500.0, 1500.0, 1000.0]
        beta = np.broadcast_to(table_beta, (2, 1, 1, 1, 7, 3))
        stack = np.broadcast_to(rho, (2, 1, 1, 2, 7, 3))
        worst = _fig5a_closed(plan, cfgs, None, beta, stack)["closed"]
        average = _fig5b_closed(plan, cfgs, None, beta, stack)["limit"]
        assert worst.shape == (2, 1, 2, len(plan.m_grid))
        assert average.shape == (2, 1, 2)
        for g, cfg_g in enumerate(cfgs):
            for c in range(2):
                rates = achievable_rate(cfg_g, sinr_closed(plan.m_grid, rho[c], table_beta,
                                                           cfg.rho_u))
                assert worst[g, 0, c].tolist() == [min(row) for row in rates.tolist()]
                limit = achievable_rate(cfg_g, sinr_limit(rho[c], table_beta))
                assert average[g, 0, c] == limit.mean()


class TestValidation:
    def test_shape_mismatch(self, table_beta):
        with pytest.raises(ValueError):
            upsilon(np.ones((7, 2)), table_beta)
        with pytest.raises(ValueError):
            exp_rcee_limit(LS, np.ones((2, 7, 3)), np.ones((2, 7, 3)))

    def test_stacks_end_in_the_gain_shape(self, table_beta):
        with pytest.raises(ValueError):
            upsilon(np.ones((2, 7, 2)), table_beta)
        with pytest.raises(ValueError):
            sinr_limit(np.ones((2, 3, 7)), table_beta)
        rho = np.full((2, 7, 3), 1000.0)
        rho[1, 0, 2] = 0.0  # one slice's target-cell power
        with pytest.raises(ValueError):
            exp_rcee_limit(LS, rho, table_beta)

    def test_stacked_gains_need_a_one_for_the_allocations(self, table_beta):
        rho = np.full((2, 4, 7, 3), 1000.0)
        gains = np.stack([table_beta, 2.0 * table_beta])
        assert exp_rcee_limit(LS, rho, gains[:, None]).shape == (2, 4, 3)
        # no 1, a gain slice per allocation, and three drops against two
        for bad in (gains, np.stack([gains] * 4, axis=1), np.stack([table_beta] * 3)[:, None]):
            with pytest.raises(ValueError):
                exp_rcee_limit(LS, rho, bad)

    def test_power_and_gain_signs(self, table_beta):
        rho = np.full((7, 3), 1000.0)
        rho[3, 1] = -1.0
        with pytest.raises(ValueError):
            exp_rcee_closed(LS, 8, rho, table_beta)
        rho = np.full((7, 3), 1000.0)
        rho[0, 2] = 0.0
        with pytest.raises(ValueError):
            sinr_limit(rho, table_beta)
        with pytest.raises(ValueError):
            exp_rcee_eppa_limit(LS, -table_beta, 3, math.inf)

    def test_antenna_counts(self, table_beta):
        rho = np.full((7, 3), 1000.0)
        for bad in (0, [8, 0], 8.0, [[8]]):
            with pytest.raises(ValueError):
                exp_rcee_closed(LS, bad, rho, table_beta)
        with pytest.raises(ValueError):
            exp_rcee_bound_mmse(1, rho, table_beta)
        with pytest.raises(ValueError):
            sinr_closed(8, rho, table_beta, 0.0)

    def test_negative_rates(self):
        cfg = SystemConfig(K=2, M=2, P_total=10.0)
        with pytest.raises(ValueError):
            achievable_rate(cfg, np.array([1.0, -0.5]))

