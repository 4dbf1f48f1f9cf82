import numpy as np
import pytest

from mimo_pilot import complex_normal, matched_filter_sinr, sample_channels
from oracle import empirical_sinr_terms, pilot_book, pilot_phase


def test_complex_normal_moments():
    rng = np.random.default_rng(0)
    z = complex_normal((100000,), rng)
    assert abs(z.mean()) < 0.01
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)
    # circularly symmetric: halves of the power in each component
    assert z.real.var() == pytest.approx(0.5, rel=0.03)
    assert z.imag.var() == pytest.approx(0.5, rel=0.03)


@pytest.mark.parametrize("shape", [(7, 10, 512), (512, 10), (3, 1, 8), 5, (0,)])
def test_complex_normal_bits_match_the_divided_form(shape):
    # one (2, *shape) draw scaled by 1/sqrt(2) gives the bits of
    # (a + 1j*b) / sqrt(2) with a and b drawn one after the other
    for seed in range(6):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        old = (a + 1j * b) / np.sqrt(2.0)
        new = complex_normal(shape, np.random.default_rng(seed))
        assert new.shape == old.shape
        assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("L, K, M", [(7, 10, 200), (7, 10, 512), (3, 4, 8), (1, 1, 1)])
def test_sample_channels_bits_match_complex_product(L, K, M):
    # scaling the draw's float view by sqrt(g) gives the bits of the
    # complex product (g + 0i)(x + iy), for gains over fourteen decades
    for seed in range(5):
        gains = 10.0 ** np.random.default_rng(100 + seed).uniform(-12.0, 2.0, (L, K))
        old = np.sqrt(gains)[:, :, None] * complex_normal(
            (L, K, M), np.random.default_rng(seed))
        new = sample_channels(gains, M, np.random.default_rng(seed))
        assert new.shape == old.shape
        assert np.array_equal(new.view(np.int64), old.view(np.int64))


def test_pilot_book_orthonormal_rows():
    book = pilot_book(3, 5)
    assert book.shape == (3, 5)
    assert book.dtype == complex
    gram = book @ book.conj().T
    assert np.allclose(gram, np.eye(3))


def test_pilot_book_rejects_short_book():
    with pytest.raises(ValueError):
        pilot_book(4, 3)


class TestSampleChannels:
    def test_shape_and_determinism(self, table_beta):
        a = sample_channels(table_beta, 16, np.random.default_rng(3))
        b = sample_channels(table_beta, 16, np.random.default_rng(3))
        assert a.shape == (7, 3, 16)
        assert np.array_equal(a, b)

    def test_per_entry_variance_tracks_gain(self):
        beta = np.array([[4.0, 0.25], [1.0, 9.0]])
        h = sample_channels(beta, 40000, np.random.default_rng(1))
        power = np.mean(np.abs(h) ** 2, axis=-1)
        assert power == pytest.approx(beta, rel=0.05)


class TestPilotPhase:
    def test_noise_free_superposition(self):
        rng = np.random.default_rng(2)
        h = complex_normal((3, 2, 4), rng)
        rho = np.array([[4.0, 1.0], [9.0, 2.0], [1.0, 16.0]])
        obs = pilot_phase(h, rho, 2, None)
        assert obs.y.shape == (4, 2)
        for k in range(2):
            expected = sum(np.sqrt(rho[l, k]) * h[l, k] for l in range(3))
            assert np.allclose(obs.y[:, k], expected, atol=1e-12)

    def test_extra_pilot_dimensions_carry_only_noise(self):
        rng = np.random.default_rng(4)
        h = complex_normal((1, 2, 3), rng)
        rho = np.full((1, 2), 5.0)
        quiet = pilot_phase(h, rho, 4, None)
        assert np.allclose(quiet.y[:, 2:], 0.0)
        noisy = pilot_phase(h, rho, 4, np.random.default_rng(0))
        assert np.abs(noisy.y[:, 2:]).min() > 0.0

    def test_noise_stream_replays(self):
        rng = np.random.default_rng(5)
        h = complex_normal((2, 2, 3), rng)
        rho_a = np.full((2, 2), 1.0)
        rho_b = np.full((2, 2), 7.0)
        ya = pilot_phase(h, rho_a, 2, np.random.default_rng(42)).y
        yb = pilot_phase(h, rho_b, 2, np.random.default_rng(42)).y
        # same noise realization under both power allocations
        clean_a = pilot_phase(h, rho_a, 2, None).y
        clean_b = pilot_phase(h, rho_b, 2, None).y
        assert np.allclose(ya - clean_a, yb - clean_b, atol=1e-12)

    def test_rejects_bad_rho_shape(self):
        h = complex_normal((2, 2, 3), np.random.default_rng(0))
        with pytest.raises(ValueError):
            pilot_phase(h, np.ones((3, 2)), 2, None)


class TestSinrMoments:
    def test_assembly_formula(self):
        sinr = matched_filter_sinr(4.0, np.array([[1.0, 2.0], [3.0, 4.0]]), 5.0, 2.0)
        assert sinr == pytest.approx(8.0 / 17.0, rel=1e-14)

    def test_stacked_moments_assemble_each_user_bitwise(self):
        # (C, K) stacks of moments give each user's SINR with the sum over
        # its whole (L, K) cross-energy block, as one user's moments do
        rng = np.random.default_rng(3)
        C, K, L = 4, 10, 7
        gain = rng.uniform(0.0, 50.0, (C, K))
        cross = rng.uniform(0.0, 60.0, (C, K, L, K))
        energy = rng.uniform(1.0, 9.0, (C, K))
        sinr = matched_filter_sinr(gain, cross, energy, 100.0)
        assert sinr.shape == (C, K)
        for c in range(C):
            for k in range(K):
                one = 100.0 * gain[c, k] / (100.0 * (cross[c, k].sum() - gain[c, k])
                                            + energy[c, k])
                assert sinr[c, k] == one

    def test_hand_rolled_ensemble(self):
        rng = np.random.default_rng(6)
        channels = np.stack([complex_normal((2, 2, 3), rng) for _ in range(5)])
        estimates = np.stack([complex_normal((2, 3), rng) for _ in range(5)])
        gain, cross, energy = empirical_sinr_terms(channels, estimates, 1)
        own = np.mean([e[1].conj() @ c[0, 1] for c, e in zip(channels, estimates)])
        assert gain == pytest.approx(abs(own) ** 2, rel=1e-12)
        cross_01 = np.mean([abs(e[1].conj() @ c[0, 1]) ** 2
                            for c, e in zip(channels, estimates)])
        assert cross[0, 1] == pytest.approx(cross_01, rel=1e-12)
        hand_energy = np.mean([np.sum(np.abs(e[1]) ** 2) for e in estimates])
        assert energy == pytest.approx(hand_energy, rel=1e-12)

    def test_matches_a_running_sum_over_trials(self):
        # the batched moments equal a trial-by-trial accumulation bit for bit
        rng = np.random.default_rng(8)
        n, L, K, M = 300, 7, 3, 8
        h = complex_normal((n, L, K, M), rng)
        h_hat = complex_normal((n, K, M), rng)
        for k in range(K):
            own, cross, energy = 0.0 + 0.0j, np.zeros((L, K)), 0.0
            for s in range(n):
                inner = np.einsum("m,lkm->lk", np.conj(h_hat[s, k]), h[s])
                own += inner[0, k]
                cross += np.abs(inner) ** 2
                energy += float(np.vdot(h_hat[s, k], h_hat[s, k]).real)
            gain, cross_mean, energy_mean = empirical_sinr_terms(h, h_hat, k)
            assert gain == float(np.abs(own / n) ** 2)
            assert np.array_equal(cross_mean, cross / n)
            assert energy_mean == energy / n

    def test_needs_two_samples(self):
        ch = complex_normal((1, 1, 2, 2), np.random.default_rng(0))
        est = np.ones((1, 2, 2), dtype=complex)
        with pytest.raises(ValueError):
            empirical_sinr_terms(ch, est, 0)
        with pytest.raises(ValueError):
            empirical_sinr_terms(np.concatenate([ch, ch]), est, 0)
