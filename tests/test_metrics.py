import math

import numpy as np
import pytest

from mimo_pilot import (SystemConfig, achievable_rate, exp_rcee_bound_mmse,
                        exp_rcee_closed, exp_rcee_eppa_floor,
                        exp_rcee_eppa_limit, exp_rcee_limit, sinr_closed,
                        sinr_limit)
from mimo_pilot.estimators import LS, MMSE
from oracle import rcee_prefix_samples, rcee_sample, upsilon

# single-interferer column: own received pilot power 1, interference 0.1
RHO_1 = np.array([4.0, 1.0])
BETA_1 = np.array([0.25, 0.1])


def test_upsilon_on_worked_example(table_beta):
    rho = np.full(7, 1000.0)
    vals = [upsilon(rho, table_beta[:, k]) for k in range(3)]
    assert vals == pytest.approx([23.8, 138.5, 58.2], rel=1e-12)


def test_upsilon_single_cell_is_noise_only():
    assert upsilon(np.array([5.0]), np.array([0.3])) == 1.0


class TestRceeSample:
    def test_hand_value(self):
        h = np.array([1.0 + 0.0j, 0.0j])
        h_hat = np.array([1.0 + 0.0j, 1.0 + 0.0j])
        assert rcee_sample(h, h_hat) == pytest.approx(1.0, rel=1e-14)

    def test_zero_error(self):
        h = np.array([1.0 + 2.0j, -1.0j])
        assert rcee_sample(h, h) == 0.0

    def test_zero_channel_rejected(self):
        with pytest.raises(ValueError):
            rcee_sample(np.zeros(3, dtype=complex), np.ones(3, dtype=complex))

    def test_prefix_consistency(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        h_hat = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        out = rcee_prefix_samples(h, h_hat, [1, 3, 4])
        assert out.shape == (3, 2)
        for i, m in enumerate([1, 3, 4]):
            for k in range(2):
                assert out[i, k] == pytest.approx(
                    rcee_sample(h[k, :m], h_hat[k, :m]), rel=1e-12)

    def test_prefix_rejects_out_of_range(self):
        h = np.ones((2, 4), dtype=complex)
        with pytest.raises(ValueError):
            rcee_prefix_samples(h, h, [5])
        with pytest.raises(ValueError):
            rcee_prefix_samples(h, h, [0])


class TestExpRceeClosed:
    def test_two_antenna_values(self):
        assert exp_rcee_closed(LS, 2, RHO_1[:1], BETA_1[:1]) == pytest.approx(2.0, rel=1e-14)
        assert exp_rcee_closed(MMSE, 2, RHO_1[:1], BETA_1[:1]) == pytest.approx(0.75, rel=1e-14)
        assert exp_rcee_bound_mmse(2, RHO_1[:1], BETA_1[:1]) == pytest.approx(1.0, rel=1e-14)

    def test_single_antenna_diverges(self):
        assert exp_rcee_closed(LS, 1, RHO_1, BETA_1) == math.inf
        assert exp_rcee_closed(MMSE, 1, RHO_1, BETA_1) == math.inf

    def test_ls_scales_as_antenna_ratio(self):
        # finite-M value is exactly M/(M-1) times the limiting one
        lim = exp_rcee_limit(LS, RHO_1, BETA_1)
        for M in (2, 3, 17, 400):
            assert exp_rcee_closed(LS, M, RHO_1, BETA_1) == pytest.approx(
                M / (M - 1) * lim, rel=1e-12)

    def test_mmse_between_limit_and_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            L = rng.integers(2, 8)
            rho = rng.uniform(0.1, 50.0, L)
            beta = rng.uniform(0.01, 2.0, L)
            M = int(rng.integers(2, 300))
            closed = exp_rcee_closed(MMSE, M, rho, beta)
            assert exp_rcee_limit(MMSE, rho, beta) <= closed
            assert closed <= exp_rcee_bound_mmse(M, rho, beta) * (1 + 1e-12)

    def test_decreasing_in_antennas(self):
        for method in (LS, MMSE):
            vals = [exp_rcee_closed(method, M, RHO_1, BETA_1)
                    for M in (2, 4, 8, 64, 512)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_interference_hurts_own_power_helps(self):
        base = exp_rcee_closed(LS, 8, RHO_1, BETA_1)
        more_own = exp_rcee_closed(LS, 8, np.array([8.0, 1.0]), BETA_1)
        more_int = exp_rcee_closed(LS, 8, np.array([4.0, 2.0]), BETA_1)
        assert more_own < base < more_int


class TestExpRceeLimits:
    def test_hand_values(self):
        assert exp_rcee_limit(LS, RHO_1, BETA_1) == pytest.approx(1.1, rel=1e-14)
        assert exp_rcee_limit(MMSE, RHO_1, BETA_1) == pytest.approx(
            0.5238095238095238, rel=1e-14)

    def test_mmse_limit_below_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = rng.uniform(0.01, 100.0, 4)
            beta = rng.uniform(0.001, 3.0, 4)
            assert 0.0 < exp_rcee_limit(MMSE, rho, beta) < 1.0

    def test_closed_converges_to_limit(self):
        for method in (LS, MMSE):
            lim = exp_rcee_limit(method, RHO_1, BETA_1)
            assert exp_rcee_closed(method, 10**6, RHO_1, BETA_1) == pytest.approx(
                lim, rel=1e-5)

    def test_flat_allocation_limit_consistency(self, table_beta):
        # dedicated flat-power expression equals the general limit with P/K
        K, P = 3, 3.0e3
        rho = np.full(7, P / K)
        for method in (LS, MMSE):
            for k in range(3):
                assert exp_rcee_eppa_limit(method, table_beta[:, k], K, P) == \
                    pytest.approx(exp_rcee_limit(method, rho, table_beta[:, k]),
                                  rel=1e-12)

    def test_floor_values_and_saturation(self):
        beta = np.array([1.0, 0.1])
        assert exp_rcee_eppa_floor(LS, beta) == pytest.approx(0.1, rel=1e-14)
        assert exp_rcee_eppa_floor(MMSE, beta) == pytest.approx(0.1 / 1.1, rel=1e-14)
        for method in (LS, MMSE):
            assert exp_rcee_eppa_limit(method, beta, 10, 1e30) == pytest.approx(
                exp_rcee_eppa_floor(method, beta), rel=1e-12)

    def test_budget_growth_monotone_toward_floor(self):
        beta = np.array([0.8, 0.2, 0.05])
        for method in (LS, MMSE):
            vals = [exp_rcee_eppa_limit(method, beta, 5, P)
                    for P in (1e2, 1e4, 1e6, 1e8)]
            floor = exp_rcee_eppa_floor(method, beta)
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert all(v > floor for v in vals)


class TestSinr:
    def test_single_user_hand_value(self):
        beta = np.array([[1.0]])
        assert sinr_closed(4, np.array([[1.0]]), beta, 1.0)[0] == pytest.approx(
            1.0, rel=1e-14)

    def test_increasing_in_antennas(self, table_beta):
        rho = np.full((7, 3), 1000.0)
        vals = [sinr_closed(M, rho, table_beta, 100.0)[1] for M in (2, 8, 64, 1024)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_converges_to_limit(self, table_beta):
        rho = np.full((7, 3), 1000.0)
        lim = sinr_limit(rho[:, 1], table_beta[:, 1])
        assert sinr_closed(10**9, rho, table_beta, 100.0)[1] == pytest.approx(
            lim, rel=1e-5)

    def test_limit_is_power_ratio(self, table_beta):
        rho = np.array([1000.0, 500.0, 250.0, 125.0, 60.0, 30.0, 15.0])
        expected = (rho[0] * table_beta[0, 0] ** 2 /
                    np.sum(rho[1:] * table_beta[1:, 0] ** 2))
        assert sinr_limit(rho, table_beta[:, 0]) == pytest.approx(expected, rel=1e-12)

    def test_limit_without_interference_is_unbounded(self):
        assert sinr_limit(np.array([5.0]), np.array([0.3])) == math.inf


class TestRates:
    def test_reuse_three_hand_value(self):
        cfg = SystemConfig(K=2, M=2, P_total=10.0, Gamma=3)
        assert achievable_rate(cfg, 25.0) == pytest.approx(12545791.48459427, rel=1e-12)

    def test_zero_sinr_zero_rate(self):
        cfg = SystemConfig(K=2, M=2, P_total=10.0)
        assert achievable_rate(cfg, 0.0) == 0.0

    def test_reuse_divides_bandwidth(self):
        cfg = SystemConfig(K=2, M=2, P_total=10.0)
        r1 = achievable_rate(cfg, 9.0)
        r3 = achievable_rate(cfg.replace(Gamma=3), 9.0)
        assert r1 == pytest.approx(3.0 * r3, rel=1e-12)
