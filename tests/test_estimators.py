import numpy as np
import pytest

from mimo_pilot import check_method, complex_normal
from mimo_pilot.estimators import LS, MMSE, METHODS
from oracle import (estimate_ls, estimate_mmse, mmse_gain, mmse_gain_matrix,
                    pilot_phase)


def _observe(h, rho, tau=None, noise_rng=None):
    L, K, M = h.shape
    return pilot_phase(h, rho, K if tau is None else tau, noise_rng)


def test_method_registry():
    assert METHODS == (LS, MMSE)
    assert check_method("ls") == LS
    assert check_method("mmse") == MMSE
    with pytest.raises(ValueError):
        check_method("zf")


class TestLeastSquares:
    def test_recovers_channel_without_interference(self):
        rng = np.random.default_rng(0)
        h = complex_normal((1, 3, 4), rng)
        obs = _observe(h, np.full((1, 3), 9.0))
        est = estimate_ls(obs)
        assert est.method == LS
        assert np.allclose(est.h_hat, h[0], atol=1e-12)

    def test_contamination_identity(self):
        # noise-free least squares collapses to the power-weighted sum of
        # co-pilot channels
        rng = np.random.default_rng(1)
        h = complex_normal((3, 2, 5), rng)
        rho = np.array([[4.0, 9.0], [1.0, 2.0], [16.0, 0.5]])
        est = estimate_ls(_observe(h, rho))
        for k in range(2):
            expected = sum(np.sqrt(rho[l, k] / rho[0, k]) * h[l, k]
                           for l in range(3))
            assert np.allclose(est.h_hat[k], expected, atol=1e-12)

    def test_oversized_pilot_book(self):
        rng = np.random.default_rng(2)
        h = complex_normal((1, 2, 3), rng)
        est = estimate_ls(_observe(h, np.full((1, 2), 4.0), tau=5))
        assert est.h_hat.shape == (2, 3)
        assert np.allclose(est.h_hat, h[0], atol=1e-12)

    def test_noise_averages_out(self):
        rng = np.random.default_rng(3)
        h = complex_normal((2, 2, 3), rng)
        rho = np.full((2, 2), 25.0)
        clean = estimate_ls(_observe(h, rho)).h_hat
        acc = np.zeros_like(clean)
        n = 3000
        for s in range(n):
            noisy = estimate_ls(_observe(h, rho, noise_rng=np.random.default_rng(s)))
            acc += noisy.h_hat
        assert np.abs(acc / n - clean).max() < 0.02

    def test_rejects_nonpositive_target_power(self):
        rng = np.random.default_rng(4)
        h = complex_normal((1, 2, 3), rng)
        obs = _observe(h, np.array([[4.0, 4.0]]))
        bad = type(obs)(y=obs.y, rho=np.array([[4.0, 0.0]]), book=obs.book)
        with pytest.raises(ValueError):
            estimate_ls(bad)


class TestMmse:
    def test_gain_on_worked_example(self, table_beta):
        rho = np.full(7, 1000.0)
        # strongest user: own signal dominates but contamination persists
        assert mmse_gain(rho, table_beta[:, 1]) == pytest.approx(
            0.9030383646037524, rel=1e-12)
        # direct quotient of signal power over total received pilot power
        num = 1000.0 * table_beta[0, 1]
        den = float(np.dot(np.full(7, 1000.0), table_beta[:, 1])) + 1.0
        assert mmse_gain(rho, table_beta[:, 1]) == pytest.approx(num / den, rel=1e-14)

    def test_gain_shrinks_toward_zero_power(self):
        beta = np.array([1.0, 0.5])
        assert mmse_gain(np.array([1e-9, 1e-9]), beta) < 1e-8
        assert mmse_gain(np.array([1e12, 1e-9]), beta) == pytest.approx(1.0, rel=1e-9)

    def test_estimate_is_scaled_least_squares(self, table_beta):
        rng = np.random.default_rng(5)
        h = complex_normal((7, 3, 4), rng) * np.sqrt(table_beta)[..., None]
        rho = np.full((7, 3), 1000.0)
        obs = _observe(h, rho, noise_rng=np.random.default_rng(9))
        ls = estimate_ls(obs)
        mmse = estimate_mmse(obs, table_beta)
        assert mmse.method == MMSE
        for k in range(3):
            c = mmse_gain(rho[:, k], table_beta[:, k])
            assert np.allclose(mmse.h_hat[k], c * ls.h_hat[k], atol=1e-12)

    def test_gain_matrix_is_scalar_for_iid_antennas(self, table_beta):
        rho = np.full(7, 1000.0)
        c = mmse_gain(rho, table_beta[:, 2])
        mat = mmse_gain_matrix(rho, table_beta[:, 2], 4)
        assert mat.shape == (4, 4)
        assert np.allclose(mat, c * np.eye(4), atol=1e-12)

    def test_error_orthogonal_to_estimate(self, table_beta):
        # optimality of the linear filter: estimation error decorrelates
        # from the estimate as the ensemble grows
        rho = np.full((7, 3), 1000.0)
        n = 4000
        inner = 0.0 + 0.0j
        scale = 0.0
        for s in range(n):
            rng = np.random.default_rng(1000 + s)
            h = complex_normal((7, 3, 2), rng) * np.sqrt(table_beta)[..., None]
            obs = _observe(h, rho, noise_rng=np.random.default_rng(5000 + s))
            est = estimate_mmse(obs, table_beta)
            err = h[0, 1] - est.h_hat[1]
            inner += est.h_hat[1].conj() @ err
            scale += float(np.sum(np.abs(est.h_hat[1]) ** 2))
        assert abs(inner / n) < 0.02 * scale / n

    def test_shape_mismatch_raises(self, table_beta):
        rng = np.random.default_rng(6)
        h = complex_normal((7, 3, 4), rng)
        obs = _observe(h, np.full((7, 3), 1000.0))
        with pytest.raises(ValueError):
            estimate_mmse(obs, table_beta[:, :2])
