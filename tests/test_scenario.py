import dataclasses
import math
import re

import numpy as np
import pytest

from mimo_pilot import (ConfigurationError, FixtureFormatError, SystemConfig,
                        attenuation, build_layout, db_to_linear,
                        default_config, drop_users, empirical_cdf, in_hexagon,
                        ks_distance, large_scale, load_beta_fixture,
                        sample_shadowing, save_beta_fixture)


def test_db_round_trip():
    assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-12)
    assert db_to_linear(0.0) == 1.0


class TestSystemConfig:
    def test_defaults(self):
        cfg = SystemConfig(K=10, M=200, P_total=1.0e4)
        assert cfg.L == 7
        assert cfg.mu == 1.5
        assert cfg.rho_u == 100.0
        assert cfg.Gamma == 1
        assert cfg.r == 500.0
        assert cfg.sigma_sh == 8.0
        assert cfg.gamma_pl == 3.8
        assert cfg.r_min == 200.0
        assert cfg.B == 20.0e6
        assert cfg.slot_fraction == pytest.approx(3.0 / 7.0)
        assert cfg.Tu == 66.7
        assert cfg.To == 71.4
        assert cfg.seed == 0

    def test_power_bounds(self):
        cfg = SystemConfig(K=10, M=200, P_total=1.0e4, mu=3.0)
        assert cfg.rho_min == 500.0
        assert cfg.rho_max == 3000.0

    def test_cell_spacing(self):
        cfg = SystemConfig(K=2, M=2, P_total=10.0)
        assert cfg.cell_spacing == pytest.approx(866.0254037844386, rel=1e-14)
        assert cfg.replace(Gamma=3).cell_spacing == pytest.approx(1500.0, rel=1e-14)
        assert cfg.replace(Gamma=7).cell_spacing == pytest.approx(2291.28784747792, rel=1e-14)

    def test_rate_prefactor(self):
        cfg = SystemConfig(K=2, M=2, P_total=10.0)
        assert cfg.rate_prefactor == pytest.approx(8007202.88115246, rel=1e-12)
        assert cfg.replace(Gamma=3).rate_prefactor == pytest.approx(
            2669067.6270508203, rel=1e-12)

    @pytest.mark.parametrize("bad", [
        dict(K=1), dict(M=1), dict(L=0), dict(L=8), dict(Gamma=2),
        dict(sigma_sh=-1.0), dict(mu=1.4), dict(mu=5.0), dict(P_total=0.0),
        dict(rho_u=-1.0), dict(r=0.0), dict(slot_fraction=1.5),
        dict(seed=-1), dict(P_total=math.inf), dict(rho_u=math.inf),
        dict(r=math.inf), dict(r_min=math.inf), dict(gamma_pl=math.inf),
        dict(B=math.inf), dict(Tu=math.inf), dict(To=math.inf),
        dict(sigma_sh=math.inf), dict(sigma_sh=math.nan),
    ])
    def test_rejects_invalid(self, bad):
        base = dict(K=3, M=8, P_total=3.0e3)
        base.update(bad)
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            SystemConfig(**base)

    def test_mu_upper_bound_scales_with_k(self):
        # (K + 1) / 2 is the largest usable cap
        SystemConfig(K=10, M=8, P_total=1.0e4, mu=5.5)
        with pytest.raises(ConfigurationError):
            SystemConfig(K=10, M=8, P_total=1.0e4, mu=5.6)

    def test_replace_revalidates(self):
        cfg = SystemConfig(K=3, M=8, P_total=3.0e3)
        assert cfg.replace(M=16).M == 16
        with pytest.raises(ConfigurationError):
            cfg.replace(Gamma=4)

    def test_replace_changes_the_user_count(self):
        assert default_config("fig3").replace(K=12, mu=3.0) == SystemConfig(
            K=12, M=200, P_total=1.0e4, mu=3.0, rho_u=100.0)

    def test_file_round_trip(self, tmp_path):
        cfg = SystemConfig(K=4, M=32, P_total=2.0e3, mu=2.0, Gamma=3,
                           rho_u=50.0, seed=11)
        path = tmp_path / "sim.cfg"
        path.write_text("".join(f"{f.name} = {getattr(cfg, f.name)}\n"
                                for f in dataclasses.fields(cfg)))
        assert SystemConfig.from_file(path) == cfg

    def test_from_file_parses_comments_and_blanks(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("# comment\n\nK = 3\nM = 8\nP_total = 3e3\n")
        cfg = SystemConfig.from_file(path)
        assert (cfg.K, cfg.M, cfg.P_total) == (3, 8, 3000.0)

    def test_from_file_unknown_key(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("K = 3\nM = 8\nP_total = 3e3\nbogus = 1\n")
        with pytest.raises(ConfigurationError, match=r"sim\.cfg:4"):
            SystemConfig.from_file(path)

    def test_from_file_rejects_a_pilot_length(self, tmp_path):
        # the pilot book is always the K x K identity
        path = tmp_path / "sim.cfg"
        path.write_text("K = 3\nM = 8\nP_total = 3e3\ntau = 4\n")
        with pytest.raises(ConfigurationError, match="unknown key 'tau'"):
            SystemConfig.from_file(path)

    def test_from_file_bad_value(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("K = three\nM = 8\nP_total = 3e3\n")
        with pytest.raises(ConfigurationError):
            SystemConfig.from_file(path)

    def test_from_file_missing_required(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("K = 3\nM = 8\n")
        with pytest.raises(ConfigurationError, match="P_total"):
            SystemConfig.from_file(path)


class TestLayout:
    def test_target_cell_at_origin(self):
        cfg = SystemConfig(K=2, M=2, P_total=10.0)
        centers = build_layout(cfg)
        assert centers.shape == (7, 2)
        assert np.array_equal(centers[0], [0.0, 0.0])

    def test_interferers_on_reuse_ring(self):
        cfg = SystemConfig(K=2, M=2, P_total=10.0, Gamma=3)
        centers = build_layout(cfg)
        dist = np.hypot(*centers[1:].T)
        assert dist == pytest.approx(np.full(6, 1500.0), rel=1e-12)
        # first interferer sits on the positive x axis, then every 60 degrees
        assert centers[1] == pytest.approx([1500.0, 0.0], abs=1e-9)
        angles = np.degrees(np.arctan2(centers[1:, 1], centers[1:, 0]))
        assert sorted(np.round(angles).astype(int) % 360) == [0, 60, 120, 180, 240, 300]

    def test_layout_respects_l(self):
        cfg = SystemConfig(K=2, M=2, P_total=10.0, L=3)
        assert build_layout(cfg).shape == (3, 2)

    def test_spacing_property(self):
        # every interferer sits one cell spacing from the target cell
        cfg = SystemConfig(K=2, M=2, P_total=10.0, Gamma=7)
        centers = build_layout(cfg)
        assert np.hypot(*centers[1:].T) == pytest.approx(
            np.full(6, cfg.cell_spacing), rel=1e-14)


class TestHexagon:
    def test_membership(self):
        center = np.zeros(2)
        r = 500.0
        inside = np.array([[0.0, 0.0], [499.0, 0.0], [0.0, 433.0], [375.0, 216.5]])
        outside = np.array([[500.1, 0.0], [0.0, 433.5], [480.0, 100.0]])
        assert in_hexagon(inside, center, r).all()
        assert not in_hexagon(outside, center, r).any()

    def test_membership_translates(self):
        center = np.array([100.0, -50.0])
        assert in_hexagon(np.array([[100.0, -50.0]]), center, 500.0).all()
        assert not in_hexagon(np.array([[0.0, 0.0]]), center, 100.0).any()

    def test_samples_fill_hexagon(self):
        cfg = SystemConfig(K=4000, M=2, P_total=10.0, L=1)
        center = np.array([10.0, 20.0])
        pts = drop_users(cfg, center[None], np.random.default_rng(2))[0]
        assert pts.shape == (4000, 2)
        assert in_hexagon(pts, center, cfg.r).all()
        # uniform over a centrally symmetric region: mean near the center
        assert np.abs(pts.mean(axis=0) - center).max() < 15.0
        # corners get populated, not just the inscribed disc
        radii = np.hypot(*(pts - center).T)
        assert radii.max() > cfg.r * math.sqrt(3) / 2

    def test_drop_law_matches_rejection_sampling(self):
        # Two-sample KS of x, y and radius against uniform proposals from
        # the bounding rectangle kept when inside the hexagon.  Each
        # statistic is held at level 1e-3 (asymptotic critical value).
        n, r = 20_000, 500.0
        cfg = SystemConfig(K=n, M=2, P_total=10.0, L=1, r=r)
        pts = drop_users(cfg, np.zeros((1, 2)), np.random.default_rng(11))[0]
        rng = np.random.default_rng(12)
        box = rng.uniform((-r, -r * math.sqrt(3) / 2), (r, r * math.sqrt(3) / 2),
                          (2 * n, 2))
        ref = box[in_hexagon(box, np.zeros(2), r)][:n]
        assert len(ref) == n
        critical = math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2 / n)
        for stat in (lambda p: p[:, 0], lambda p: p[:, 1],
                     lambda p: np.hypot(p[:, 0], p[:, 1])):
            assert ks_distance(empirical_cdf(stat(pts)),
                               empirical_cdf(stat(ref))) < critical


class TestDrops:
    def test_users_land_in_their_cells(self):
        cfg = SystemConfig(K=5, M=2, P_total=10.0, L=4)
        centers = build_layout(cfg)
        pos = drop_users(cfg, centers, np.random.default_rng(0))
        assert pos.shape == (4, 5, 2)
        for l in range(4):
            assert in_hexagon(pos[l], centers[l], cfg.r).all()

    def test_deterministic_under_seeded_rng(self):
        cfg = SystemConfig(K=3, M=2, P_total=10.0)
        centers = build_layout(cfg)
        a = drop_users(cfg, centers, np.random.default_rng(7))
        b = drop_users(cfg, centers, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestAttenuation:
    def test_reference_distances(self):
        assert attenuation(0.0, 200.0, 3.8) == 1.0
        assert attenuation(200.0, 200.0, 3.8) == 0.5
        assert attenuation(400.0, 200.0, 3.8) == pytest.approx(
            0.06698457989158757, rel=1e-15)

    def test_monotone_decreasing(self):
        d = np.linspace(0.0, 5000.0, 200)
        a = attenuation(d, 200.0, 3.8)
        assert np.all(np.diff(a) < 0)
        assert np.all(a > 0)


class TestShadowing:
    def test_zero_sigma_is_unity(self):
        z = sample_shadowing(0.0, (3, 4), np.random.default_rng(0))
        assert np.array_equal(z, np.ones((3, 4)))

    def test_log_domain_moments(self):
        rng = np.random.default_rng(5)
        z = sample_shadowing(8.0, 40000, rng)
        db = 10.0 * np.log10(z)
        assert abs(db.mean()) < 0.15
        assert db.std() == pytest.approx(8.0, rel=0.02)


def _full_tensor_slice(cfg, centers, positions, rng):
    """Gains toward the target BS as slice 0 of a full (BS, cell, user) draw."""
    L = len(centers)
    diff = positions[None, :, :, :] - centers[:, None, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    z = sample_shadowing(cfg.sigma_sh, (L, L, cfg.K), rng)
    return (z * attenuation(dist, cfg.r_min, cfg.gamma_pl))[0]


class TestLargeScale:
    def test_matches_manual_formula_without_shadowing(self):
        cfg = SystemConfig(K=2, M=2, P_total=10.0, L=3, sigma_sh=0.0)
        centers = build_layout(cfg)
        pos = drop_users(cfg, centers, np.random.default_rng(3))
        beta = large_scale(cfg, centers, pos, np.random.default_rng(4))
        assert beta.shape == (3, 2)
        for l in range(3):
            for k in range(2):
                d = np.hypot(*(pos[l, k] - centers[0]))
                assert beta[l, k] == pytest.approx(
                    attenuation(d, cfg.r_min, cfg.gamma_pl), rel=1e-12)
        # a stack of layouts takes a stack of positions of the same shape
        with pytest.raises(ValueError, match=re.escape("shape (2, 3, 2, 2)")):
            large_scale(cfg, np.stack([centers, centers]), pos, np.random.default_rng(4))

    def test_gains_equal_slice_zero_of_the_full_tensor(self):
        for gamma in (1, 3, 7):
            cfg = SystemConfig(K=10, M=2, P_total=10.0, Gamma=gamma)
            centers = build_layout(cfg)
            for seed in range(5):
                pos = drop_users(cfg, centers, np.random.default_rng(seed))
                beta = large_scale(cfg, centers, pos, np.random.default_rng(100 + seed))
                full = _full_tensor_slice(cfg, centers, pos,
                                          np.random.default_rng(100 + seed))
                assert np.array_equal(beta, full)


class TestBetaFixture:
    def test_round_trip_exact(self, table_beta, tmp_path):
        path = tmp_path / "beta.csv"
        save_beta_fixture(table_beta, path)
        assert np.array_equal(load_beta_fixture(path), table_beta)

    def test_header_names_users(self, table_fixture_path):
        header = table_fixture_path.read_text().splitlines()[0]
        assert header == "user_1,user_2,user_3"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "beta.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FixtureFormatError):
            load_beta_fixture(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "beta.csv"
        path.write_text("user_1,user_2\n0.1,0.2\n0.3\n")
        with pytest.raises(FixtureFormatError):
            load_beta_fixture(path)

    def test_rejects_nonnumeric(self, tmp_path):
        path = tmp_path / "beta.csv"
        path.write_text("user_1\n0.1\nweak\n")
        with pytest.raises(FixtureFormatError):
            load_beta_fixture(path)

    def test_rejects_nonpositive_values(self, tmp_path):
        path = tmp_path / "beta.csv"
        path.write_text("user_1\n0.1\n-0.2\n")
        with pytest.raises(FixtureFormatError):
            load_beta_fixture(path)

    def test_rejects_too_many_cells(self, tmp_path):
        path = tmp_path / "beta.csv"
        rows = "\n".join(["0.1"] * 8)
        path.write_text(f"user_1\n{rows}\n")
        with pytest.raises(FixtureFormatError, match="cell rows"):
            load_beta_fixture(path)

    @pytest.mark.parametrize("bad", [0.0, -2.0, np.inf, np.nan])
    def test_save_refuses_what_load_rejects(self, table_beta, tmp_path, bad):
        path = tmp_path / "beta.csv"
        beta = table_beta.copy()
        beta[1, 2] = bad
        with pytest.raises(FixtureFormatError, match="gains must be positive and finite"):
            save_beta_fixture(beta, path)
        assert not path.exists()

    def test_save_refuses_too_many_cells(self, tmp_path):
        path = tmp_path / "beta.csv"
        with pytest.raises(FixtureFormatError, match="cell rows"):
            save_beta_fixture(np.full((8, 2), 0.1), path)
        assert not path.exists()
