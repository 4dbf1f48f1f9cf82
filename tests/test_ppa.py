import math
import re
import warnings

import numpy as np
import pytest

import oracle
from mimo_pilot import (ALPHA, InterferenceProfile, SystemConfig, db_to_linear,
                        eppa_profile, exp_rcee_asymptotic, make_objective,
                        objective_value, ppa, ppa_allocate, unconstrained_optimum)
from mimo_pilot.estimators import LS, METHODS, MMSE
from mimo_pilot.harness import default_config, drop_gains, reference_solve
from mimo_pilot.metrics import (exp_rcee_bound_mmse, exp_rcee_closed, exp_rcee_eppa_limit,
                                exp_rcee_limit)
from mimo_pilot.ppa import _allocate_rows, _check_allocation, _flat_interference
from mimo_pilot.refsolver import _clip_level


# A desk drop's (7, 10) gains, kept as literals because the drop draw no
# longer produces it: fig4a drop 2 at seed 0 and Gamma = 1 when each Gamma
# drew its own users by rejection sampling.
PINNED_DROP_BETA = np.array([
    [5.9710805294379568e-02, 2.9772839311598288e-02, 2.3171568837441220e-01,
     1.2665331443871384e-02, 5.3897377059846718e-01, 1.5063671956557821e-02,
     1.0665261621221196e-01, 4.4913727240512538e+00, 2.0168539237771321e-01,
     4.3365270666963052e-01],
    [8.4291884896735888e-04, 2.1931106784539163e-04, 1.9642233766744061e-04,
     6.5099731671958312e-05, 1.4894606088982913e-02, 3.1027579158472290e-02,
     5.0559851847328861e-04, 5.7937835478711643e-04, 3.1101435085289161e-02,
     8.7679883084960638e-04],
    [5.1275222225562926e-04, 4.5230618869861711e-02, 1.1731171746442301e-03,
     1.6908472655896723e-02, 1.1518359901743744e-01, 1.2151268564241998e-02,
     6.9110311849902037e-04, 2.4374665660955187e-03, 2.3447820084539980e-03,
     3.3736497437652845e-04],
    [1.9343006209008706e-04, 3.7942634486759511e-02, 9.7912763338808828e-04,
     1.1443114171045558e-03, 4.2334160411652502e-04, 1.0084037660906737e-03,
     1.2576127817639521e-01, 5.3071826328923918e-03, 8.1564619097874102e-04,
     3.9232534885258832e-04],
    [1.7665592292401447e-03, 2.9950682798956504e-04, 2.1553634126416082e-05,
     1.1260981813549032e-02, 4.6513941963117591e-03, 3.4423465765829442e-04,
     1.1328371460278366e-04, 3.3740517980838280e-04, 2.0298256887008606e-02,
     7.8744731825967380e-03],
    [8.1473616951614498e-04, 7.2983085261666188e-03, 8.1081078758449149e-05,
     2.0934870400357827e-01, 1.7598716458949521e-02, 3.1007242734114582e-01,
     9.3737569870142718e-04, 2.2917858813844439e-03, 5.6934826918450131e-04,
     6.1359235444466908e-04],
    [2.4417891735519425e-03, 2.7304120621920423e-02, 5.4185954006452011e-03,
     2.5606417125370901e-01, 5.5136284050713385e-04, 1.8288708815075657e-02,
     5.7361130563654875e-04, 5.5822832156864608e-04, 1.2561895177681599e-02,
     4.4465054553627318e-03],
])


def table_profile(table_beta, P=3.0e3):
    return eppa_profile(table_beta, P, 3)


def random_profile(rng, K, P):
    """Interference levels and own gains at the worked-example scale."""
    beta0 = 10.0 ** rng.uniform(-1.5, 0.2, size=K)
    interference = 10.0 ** rng.uniform(-1.7, -0.8, size=K)
    return InterferenceProfile(upsilon=1.0 + (P / K) * interference,
                               beta_target=beta0)


class TestInterferenceProfile:
    def test_eppa_profile_matches_from_scenario(self, table_beta):
        prof = table_profile(table_beta)
        assert prof.upsilon == pytest.approx([23.8, 138.5, 58.2], rel=1e-12)
        assert prof.beta_target == pytest.approx(table_beta[0])
        # the general other-cell sum over a full power array, whose row 0
        # (the cell being allocated) plays no role
        rho_other = np.full((7, 3), 1000.0)
        rho_other[0] = [5.0, 0.0, 7e9]
        direct = np.einsum("lk,lk->k", rho_other[1:], table_beta[1:]) + 1.0
        assert np.array_equal(direct, prof.upsilon)

    def test_weight(self):
        # the allocator's weight lists: the bits of the array division and
        # of np.sqrt over it
        prof = InterferenceProfile(upsilon=np.array([6.0, 8.0, 0.3]),
                                   beta_target=np.array([2.0, 4.0, 0.7]))
        w = prof.upsilon / prof.beta_target
        assert prof._weights[:2] == [3.0, 2.0]
        assert np.array(prof._weights).tobytes() == w.tobytes()
        assert np.array(prof._sqrt_weights).tobytes() == np.sqrt(w).tobytes()

    def test_rejects_bad_shapes_and_signs(self):
        with pytest.raises(ValueError):
            InterferenceProfile(upsilon=np.ones((2, 2)), beta_target=np.ones(4))
        with pytest.raises(ValueError):
            InterferenceProfile(upsilon=np.array([1.0, -1.0]),
                                beta_target=np.ones(2))
        with pytest.raises(ValueError):
            InterferenceProfile(upsilon=np.ones(2),
                                beta_target=np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_inputs(self, bad):
        # an infinite level would pin its user at the top of the box, a
        # nan one fail later on the budget
        with pytest.raises(ValueError, match="must be finite"):
            InterferenceProfile(upsilon=np.array([bad, 2.0, 3.0]),
                                beta_target=np.ones(3))
        with pytest.raises(ValueError, match="must be finite"):
            InterferenceProfile(upsilon=np.ones(3),
                                beta_target=np.array([1.0, bad, 1.0]))


def test_flat_interference_keeps_the_einsum_bits():
    # one arithmetic for one drop and for a stack of them, summed in cell
    # order: the bits of the einsum of a full power array
    rng = np.random.default_rng(7)
    shares = 10.0 ** np.linspace(0.0, 8.0, 17)
    for L in range(1, 8):
        for K in range(2, 17):
            beta = 10.0 ** rng.uniform(-14.0, 0.0, (len(shares), L, K))
            stacked = _flat_interference(beta, shares[:, None, None])
            for one, share, stacked_one in zip(beta, shares, stacked):
                want = oracle.flat_interference(one, share).tobytes()
                assert _flat_interference(one, share).tobytes() == want
                assert stacked_one.tobytes() == want


class TestWaterFill:
    def test_ls_hand_value(self):
        prof = InterferenceProfile(upsilon=np.array([1.0, 4.0]),
                                   beta_target=np.ones(2))
        rho = unconstrained_optimum(LS, prof, 10.0)
        assert rho == pytest.approx([10.0 / 3.0, 20.0 / 3.0], rel=1e-15)
        # stationarity: w_k / rho_k^2 equal across users
        marg = prof.upsilon / prof.beta_target / rho**2
        assert marg[0] == pytest.approx(marg[1], rel=1e-12)

    def test_mmse_hand_value(self):
        prof = InterferenceProfile(upsilon=np.array([1.0, 4.0]),
                                   beta_target=np.ones(2))
        rho = unconstrained_optimum(MMSE, prof, 10.0)
        assert rho == pytest.approx([4.0, 6.0], rel=1e-15)
        w = prof.upsilon / prof.beta_target
        marg = w / (w + rho) ** 2
        assert marg[0] == pytest.approx(marg[1], rel=1e-12)

    def test_budget_exhausted(self):
        rng = np.random.default_rng(3)
        prof = random_profile(rng, 6, 600.0)
        for method in (LS, MMSE):
            rho = unconstrained_optimum(method, prof, 600.0)
            assert rho.sum() == pytest.approx(600.0, rel=1e-12)

    def test_equal_weights_flat(self):
        prof = InterferenceProfile(upsilon=np.full(4, 7.0),
                                   beta_target=np.full(4, 0.2))
        for method in (LS, MMSE):
            assert unconstrained_optimum(method, prof, 8.0) == pytest.approx(2.0)

    def test_mmse_can_go_negative(self):
        # one weight dominating drags that entry below zero; the sum
        # still matches the budget, the box stage cleans it up later
        prof = InterferenceProfile(upsilon=np.array([1.0e6, 1.0]),
                                   beta_target=np.ones(2))
        rho = unconstrained_optimum(MMSE, prof, 1.0)
        assert rho.min() < 0
        assert rho.sum() == pytest.approx(1.0, rel=1e-9)

    def test_rejects_nonpositive_budget(self):
        prof = InterferenceProfile(upsilon=np.ones(2), beta_target=np.ones(2))
        with pytest.raises(ValueError):
            unconstrained_optimum(LS, prof, 0.0)


class TestPpaAllocate:
    def test_hand_trace_pins_heavy_user_at_max(self):
        cfg = SystemConfig(K=3, M=8, P_total=3.0e3, mu=1.5)
        prof = InterferenceProfile(upsilon=np.array([1.0, 1.0, 16.0]),
                                   beta_target=np.ones(3))
        alloc = ppa_allocate(LS, prof, cfg)
        assert np.array_equal(alloc.rho, [750.0, 750.0, 1500.0])
        assert alloc.at_max == {2}
        assert alloc.at_min == frozenset()
        assert alloc.free == {0, 1}

    def test_equal_weights_return_flat_split(self):
        cfg = SystemConfig(K=4, M=8, P_total=4.0e3, mu=1.5)
        prof = InterferenceProfile(upsilon=np.full(4, 9.0),
                                   beta_target=np.full(4, 0.5))
        for method in (LS, MMSE):
            alloc = ppa_allocate(method, prof, cfg)
            assert np.array_equal(alloc.rho, np.full(4, 1000.0))
            assert alloc.free == {0, 1, 2, 3}

    def test_worked_example_ls(self, table_beta):
        cfg = SystemConfig(K=3, M=8, P_total=3.0e3, mu=1.5)
        alloc = ppa_allocate(LS, table_profile(table_beta), cfg)
        assert alloc.rho == pytest.approx(
            [1210.4531275497995, 500.0, 1289.5468724502002], rel=1e-12)
        assert alloc.at_min == {1}
        assert alloc.rho[1] == 500.0
        assert objective_value(LS, alloc.rho, table_profile(table_beta), cfg.M) \
            == pytest.approx(0.5906909526805899, rel=1e-12)

    def test_worked_example_mmse(self, table_beta):
        cfg = SystemConfig(K=3, M=8, P_total=3.0e3, mu=1.5)
        alloc = ppa_allocate(MMSE, table_profile(table_beta), cfg)
        assert alloc.rho == pytest.approx(
            [1179.1124603437916, 619.227973274815, 1201.659566381393],
            rel=1e-12)
        assert alloc.free == {0, 1, 2}
        assert objective_value(MMSE, alloc.rho, table_profile(table_beta), cfg.M) \
            == pytest.approx(0.35302129337570926, rel=1e-12)

    def test_worked_example_near_refsolver(self, table_beta):
        cfg = SystemConfig(K=3, M=200, P_total=3.0e3, mu=1.5)
        prof = table_profile(table_beta)
        alloc = ppa_allocate(LS, prof, cfg)
        result = reference_solve(LS, prof, cfg)
        assert objective_value(LS, alloc.rho, prof, cfg.M) \
            <= result.objective * (1.0 + 1e-6)

    def test_heavy_tail_pins_exactly(self):
        # weights spread over 24 decades: three users forced to the top
        # of the box in weight order, the rest to the bottom
        cfg = SystemConfig(K=7, M=8, P_total=1.4e4, mu=2.0)
        prof = InterferenceProfile(
            upsilon=np.array([1e24, 1e16, 1e8, 1.0, 1.0, 1.0, 1.0]),
            beta_target=np.ones(7))
        alloc = ppa_allocate(LS, prof, cfg)
        assert np.array_equal(
            alloc.rho, [4000.0, 4000.0, 2000.0, 1000.0, 1000.0, 1000.0, 1000.0])
        assert alloc.at_max == {0, 1}
        assert alloc.at_min == {3, 4, 5, 6}
        assert alloc.free == {2}

    @pytest.mark.parametrize("method", [LS, MMSE])
    def test_user_water_filled_onto_a_bound_is_pinned(self, method):
        # the noise-free profile of gains [[1, 1], [0.01, 1]] at P = 1e6:
        # the level search leaves user 1 free by its knot probe's last bit,
        # and the water-fill gives it exactly rho_max
        cfg = SystemConfig(K=2, M=8, P_total=1.0e6, mu=1.5)
        prof = InterferenceProfile(upsilon=np.array([5.0e3, 5.0e5]),
                                   beta_target=np.ones(2))
        alloc = ppa_allocate(method, prof, cfg)
        assert alloc.rho.tolist() == [cfg.rho_min, cfg.rho_max]
        assert alloc.at_max == {1}
        assert alloc.at_min == {0}
        assert alloc.free == set()

    def test_desk_drop_reaches_the_reference_optimum(self):
        # A desk drop at 40 dB on which pinning the worst violator one pass
        # at a time stopped at 3.3595, above the optimum
        cfg = default_config(seed=0)
        prof = eppa_profile(PINNED_DROP_BETA, cfg.P_total, cfg.K)
        ref = reference_solve(LS, prof, cfg)
        assert ref.converged
        value = objective_value(LS, ppa_allocate(LS, prof, cfg).rho, prof, cfg.M)
        assert value == pytest.approx(ref.objective, rel=1e-9)
        assert value == pytest.approx(3.1212, rel=1e-4)

    @pytest.mark.parametrize("method", [LS, MMSE])
    def test_random_instance_properties(self, method):
        P = 1.0e4
        cfg = SystemConfig(K=10, M=200, P_total=P, mu=3.0)
        flat = np.full(10, P / 10.0)
        for trial in range(20):
            rng = np.random.default_rng(trial)
            prof = random_profile(rng, 10, P)
            alloc = ppa_allocate(method, prof, cfg)
            assert alloc.rho.sum() == pytest.approx(P, abs=1e-9 * P)
            assert np.all(alloc.rho >= cfg.rho_min - 1e-9)
            assert np.all(alloc.rho <= cfg.rho_max + 1e-9)
            groups = (alloc.free, alloc.at_min, alloc.at_max)
            assert set().union(*groups) == set(range(10))
            assert sum(len(g) for g in groups) == 10
            # never worse than the flat split
            assert objective_value(method, alloc.rho, prof, cfg.M) <= objective_value(
                method, flat, prof, cfg.M) * (1.0 + 1e-12)
            # re-solved free users share one water level
            free = sorted(alloc.free)
            if len(free) > 1:
                w = (prof.upsilon / prof.beta_target)[free]
                rho = alloc.rho[free]
                marg = w / rho**2 if method == LS else w / (w + rho) ** 2
                assert np.ptp(marg) <= 1e-9 * marg.mean()

    @pytest.mark.parametrize("K", [3, 10])
    def test_near_optimal_at_example_scale(self, K):
        P = 1.0e3 * K
        cfg = SystemConfig(K=K, M=200, P_total=P, mu=1.5)
        for trial in range(30):
            rng = np.random.default_rng(100 + trial)
            prof = random_profile(rng, K, P)
            for method in (LS, MMSE):
                alloc = ppa_allocate(method, prof, cfg)
                result = reference_solve(method, prof, cfg)
                exact_at_ref = objective_value(method, result.x, prof, cfg.M)
                value = objective_value(method, alloc.rho, prof, cfg.M)
                assert value <= exact_at_ref * (1.0 + 1e-4)

    def test_user_count_mismatch(self, table_beta):
        cfg = SystemConfig(K=4, M=8, P_total=4.0e3, mu=1.5)
        with pytest.raises(ValueError, match="K=4"):
            ppa_allocate(LS, table_profile(table_beta), cfg)

    def test_infeasible_box_rejected(self):
        from types import SimpleNamespace

        prof = InterferenceProfile(upsilon=np.ones(2), beta_target=np.ones(2))
        bad = SimpleNamespace(K=2, M=8, P_total=10.0, rho_min=6.0, rho_max=7.0)
        with pytest.raises(ValueError, match="budget"):
            ppa_allocate(LS, prof, bad)
        bad = SimpleNamespace(K=2, M=8, P_total=10.0, rho_min=-1.0, rho_max=7.0)
        with pytest.raises(ValueError, match="box"):
            ppa_allocate(LS, prof, bad)


def _stack_grid():
    """The stacked pass's rows, as (gains (n, L, K), one config per row)
    blocks: at each K = 2..12 and L = 1..7, every budget of 20-80 dB at mu
    1.5 and (K+1)/2, with gains down to 1e-12 from one fixed stream; K = 16
    drops of near-equal weights, every user free; and the 100 desk drops
    of fig4a at seed 1 and Gamma 1, one of which has a lone free user that
    least squares water-fills exactly onto rho_max."""
    rng = np.random.default_rng(31)
    budgets = [db_to_linear(p_db) for p_db in (20.0, 35.0, 50.0, 65.0, 80.0)]
    blocks = []
    for K in range(2, 13):
        for L in range(1, 8):
            cfgs = [SystemConfig(K=K, M=8, P_total=P, mu=mu, L=L)
                    for P in budgets for mu in (1.5, (K + 1) / 2)]
            blocks.append((10.0 ** rng.uniform(-12.0, 0.0, (len(cfgs), L, K)), cfgs))
    cfgs = [SystemConfig(K=16, M=8, P_total=P, mu=8.5) for P in budgets]
    blocks.append((np.concatenate([rng.uniform(0.5, 1.0, (len(cfgs), 1, 16)),
                                   rng.uniform(1e-4, 2e-4, (len(cfgs), 6, 16))], axis=1),
                   cfgs))
    cfg = default_config("fig4a", seed=1)
    blocks.append((np.stack([drop_gains(cfg, drop) for drop in range(100)]), [cfg] * 100))
    return blocks


def _boxes(cfgs):
    return [np.array([getattr(c, name) for c in cfgs])
            for name in ("P_total", "rho_min", "rho_max")]


def _profile_rows(profiles):
    """The (n, K) upsilon and beta_target rows of ``profiles``."""
    return [np.stack([getattr(p, name) for p in profiles]) for name in ("upsilon", "beta_target")]


def _flat_rows(beta, cfgs):
    """Each drop's flat-P/K profile under its config, as (upsilon, beta_target) rows."""
    return _profile_rows([eppa_profile(g, c.P_total, c.K) for g, c in zip(beta, cfgs)])


class TestAllocateRows:
    """The sweeps' stacked allocator, row by row against ppa_allocate."""

    def test_every_row_keeps_the_list_bits(self, monkeypatch):
        # each drop's flat-P/K rows, and with other cells the high-budget
        # limit's noise-free rows: upsilon = sum_{l != 0} beta_l / K, budget
        # 1, box [1/(2K), mu/K]; among them the vertex profile, where least
        # squares water-fills a lone free user exactly onto rho_max
        seen = dict.fromkeys(("all pinned", "free user on a bound", "list search",
                              "matrix fallback", "16 free users", "noise-free on a bound"), 0)

        def counted(fn, key):
            def wrapper(*args):
                seen[key] += 1
                return fn(*args)
            return wrapper

        vertex = (np.array([[[1.0, 1.0], [0.01, 1.0]]]), [SystemConfig(K=2, M=8, P_total=1.0,
                                                                       mu=1.5, L=2)])
        for beta, cfgs in [*_stack_grid(), vertex]:
            K = beta.shape[-1]
            profiles = [eppa_profile(g, c.P_total, K) for g, c in zip(beta, cfgs)]
            if beta.shape[1] > 1:  # rows i >= len(beta) are noise-free
                profiles += [InterferenceProfile(_flat_interference(g, 1.0 / K), g[0].copy())
                             for g in beta]
                cfgs = [*cfgs, *(c.replace(P_total=1.0) for c in cfgs)]
            for method in METHODS:
                with monkeypatch.context() as m:
                    # the rows the stacked pass hands to the list functions:
                    # MMSE searches the list path would recentre (some
                    # weight above 1024 P) and fills that break the budget
                    m.setattr(ppa, "_clip_level", counted(_clip_level, "list search"))
                    m.setattr(ppa, "_water_fill", counted(ppa._water_fill, "matrix fallback"))
                    rows = _allocate_rows(method, *_profile_rows(profiles), *_boxes(cfgs))
                assert rows.shape == (len(cfgs), K)
                for i, (row, profile, cfg) in enumerate(zip(rows, profiles, cfgs)):
                    alloc = ppa_allocate(method, profile, cfg)
                    assert row.tobytes() == alloc.rho.tobytes(), (method, K, cfg)
                    s = profile._sqrt_weights
                    side = _clip_level(s, None if method == LS else s, cfg.P_total,
                                       cfg.rho_min, cfg.rho_max)
                    on_bound = side.count(0) > len(alloc.free)
                    seen["all pinned"] += 0 not in side
                    seen["free user on a bound"] += on_bound
                    seen["noise-free on a bound"] += on_bound and i >= len(beta)
                    seen["16 free users"] += len(alloc.free) >= 16
        assert all(seen.values()), seen

    def test_leading_axes_broadcast(self):
        # the sweeps' (gamma, drop, budget) rows: gains broadcast over the
        # budgets, budgets over the drops
        cfg = default_config("fig4b", seed=0)
        cfgs = [cfg.replace(P_total=db_to_linear(p_db)) for p_db in (20.0, 50.0, 80.0)]
        beta = np.stack([drop_gains(cfg, drop) for drop in range(4)])
        P, lo, hi = (x[None] for x in _boxes(cfgs))
        ups = np.stack([_flat_rows([g] * 3, cfgs)[0] for g in beta])
        rows = _allocate_rows(MMSE, ups, beta[:, None, 0], P, lo, hi)
        assert rows.shape == (4, 3, cfg.K)
        for d, gains in enumerate(beta):
            for b, cfg_p in enumerate(cfgs):
                profile = eppa_profile(gains, cfg_p.P_total, cfg.K)
                assert rows[d, b].tobytes() == ppa_allocate(MMSE, profile, cfg_p).rho.tobytes()

    def test_rows_do_not_depend_on_the_block(self, monkeypatch):
        # blocks of one row, of two, and the default, which holds them all
        beta, cfgs = _stack_grid()[-1]
        want = _allocate_rows(MMSE, *_flat_rows(beta, cfgs), *_boxes(cfgs)).tobytes()
        for rows in (1, 2):
            monkeypatch.setattr(ppa, "_ROW_BLOCK", rows * 16 * beta.shape[-1])
            assert _allocate_rows(MMSE, *_flat_rows(beta, cfgs), *_boxes(cfgs)).tobytes() == want

    def test_no_rows_give_no_powers(self):
        # an empty stack allocates nothing and keeps its shape, here and in
        # the high-budget limit, which prices its rows through the pass
        cfg = default_config("fig4b")
        for method in METHODS:
            rows = _allocate_rows(method, np.empty((0, 3, cfg.K)), np.empty((0, 1, cfg.K)),
                                  cfg.P_total, cfg.rho_min, cfg.rho_max)
            assert rows.shape == (0, 3, cfg.K)
            assert exp_rcee_asymptotic(method, np.empty((0, 7, cfg.K)), cfg).shape == (0, cfg.K)

    @pytest.mark.parametrize("lo, hi", [(6.0, 7.0), (-1.0, 7.0)])
    def test_a_box_that_cannot_meet_its_budget_raises_as_the_list_path(self, lo, hi):
        from types import SimpleNamespace

        beta = np.ones((3, 2, 2))
        bad = SimpleNamespace(K=2, M=8, P_total=10.0, rho_min=lo, rho_max=hi)
        with pytest.raises(ValueError) as listed:
            ppa_allocate(LS, eppa_profile(beta[1], bad.P_total, 2), bad)
        # one bad row among good ones
        with pytest.raises(ValueError, match=f"^{re.escape(str(listed.value))}$"):
            _allocate_rows(LS, *_flat_rows(beta, [bad] * 3), np.full(3, 10.0),
                           np.array([2.5, lo, 2.5]), np.array([7.5, hi, 7.5]))

    def test_rows_with_every_user_pinned_divide_nothing(self):
        # two users whose weights differ by 1e8 pin both at any budget
        beta = np.array([[[1.0, 1e-8]], [[1e-8, 1.0]]])
        cfg = SystemConfig(K=2, M=8, P_total=1.0e3, mu=1.5, L=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _allocate_rows(LS, *_flat_rows(beta, [cfg, cfg]), *_boxes([cfg, cfg]))
        assert rows.tolist() == [[cfg.rho_min, cfg.rho_max], [cfg.rho_max, cfg.rho_min]]

    @pytest.mark.parametrize("rtol", [1e-12, 1e-9])
    def test_budget_checks_decide_as_the_correctly_rounded_sum(self, monkeypatch, rtol):
        # the pass checks its sums with numpy's and sums correctly rounded
        # only the rows within rounding error of the bound; every row must
        # still be decided as the fsum check of the list path decides it
        rng = np.random.default_rng(4)
        n, K = 3000, 10
        x = rng.random((n, K)) * 10.0 ** rng.integers(-3, 9, (n, 1))
        x[:50, 0] = 1e20  # numpy's sums lose the rest of these rows
        x[:50, 1] = -1e20
        exact = np.array([math.fsum(row) for row in x.tolist()])[:, None]
        offset = rng.choice([0.0, 1.0, -1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1e-3, 1e3], (n, 1))
        target = np.where(exact > 0, exact, 1.0) * (1.0 + rtol * offset)
        summed = []
        row_sums = ppa._row_sums
        monkeypatch.setattr(ppa, "_row_sums", lambda rows: summed.append(len(rows))
                            or row_sums(rows))
        misses = ppa._misses(x, target, rtol)
        assert misses.shape == (n, 1)
        assert np.array_equal(misses, abs(exact - target) > rtol * target)
        # the ones numpy decides, not every row, are left out of the fsum pass
        assert 50 <= summed[0] < n



class TestPilotAllocationValidation:
    # ppa_allocate's one check of its result, on the powers as a list
    def args(self):
        return dict(r=[2.0, 6.0], free={1}, at_min={0}, at_max=set(),
                    P=8.0, lo=2.0, hi=6.0)

    def test_valid_instance(self):
        _check_allocation(**self.args())

    def test_partition_must_cover_users(self):
        bad = self.args() | {"free": set()}
        with pytest.raises(ValueError, match="partition"):
            _check_allocation(**bad)

    def test_budget_must_be_exhausted(self):
        bad = self.args() | {"P": 9.0}
        with pytest.raises(ValueError, match="budget"):
            _check_allocation(**bad)

    def test_pinned_users_sit_on_the_bound(self):
        bad = self.args() | {"r": [2.5, 5.5]}
        with pytest.raises(ValueError, match="at_min"):
            _check_allocation(**bad)


class TestObjectiveValue:
    def test_single_user_reduces_to_closed_form(self):
        prof = InterferenceProfile(upsilon=np.array([5.0]),
                                   beta_target=np.array([0.5]))
        for method in (LS, MMSE):
            direct = objective_value(method, np.array([10.0]), prof, 8)
            closed = exp_rcee_closed(method, 8, np.array([10.0, 1.0]),
                                     np.array([0.5, 4.0]))
            assert direct == pytest.approx(closed, rel=1e-14)

    def test_matches_per_user_closed_forms(self, table_beta):
        # fold each upsilon into a synthetic one-interferer column so the
        # estimator-level closed form can price the same allocation
        prof = table_profile(table_beta)
        rho = np.array([900.0, 1100.0, 1000.0])
        for method in (LS, MMSE):
            direct = objective_value(method, rho, prof, 8)
            emb = np.mean([
                exp_rcee_closed(method, 8, np.array([rho[k], 1.0]),
                                np.array([prof.beta_target[k],
                                          prof.upsilon[k] - 1.0]))
                for k in range(3)])
            assert direct == pytest.approx(emb, rel=1e-13)
        # the same columns as one (2, K) slice price the MMSE bound
        rho_2 = np.vstack([rho, np.ones(3)])
        beta_2 = np.vstack([prof.beta_target, prof.upsilon - 1.0])
        assert objective_value(MMSE, rho, prof, 8, exact=False) == pytest.approx(
            exp_rcee_bound_mmse(8, rho_2, beta_2).mean(), rel=1e-13)

    def test_mmse_surrogate_upper_bounds_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            prof = random_profile(rng, 5, 5.0e3)
            rho = rng.uniform(200.0, 2000.0, size=5)
            exact = objective_value(MMSE, rho, prof, 8)
            bound = objective_value(MMSE, rho, prof, 8, exact=False)
            assert bound >= exact - 1e-12

    def test_ls_surrogate_is_exact(self, table_beta):
        prof = table_profile(table_beta)
        rho = np.array([800.0, 1200.0, 1000.0])
        assert objective_value(LS, rho, prof, 8) == objective_value(
            LS, rho, prof, 8, exact=False)

    def test_rejects_bad_inputs(self, table_beta):
        prof = table_profile(table_beta)
        with pytest.raises(ValueError):
            objective_value(LS, np.ones(3), prof, 1)
        with pytest.raises(ValueError):
            objective_value(LS, np.ones(4), prof, 8)
        with pytest.raises(ValueError):
            objective_value(LS, np.array([1.0, -1.0, 1.0]), prof, 8)


class TestMakeObjective:
    # the objective is the exact error under LS and its bound under MMSE
    @pytest.mark.parametrize("method,exact", [(LS, True), (MMSE, False)])
    def test_gradient_matches_finite_differences(self, table_beta, method, exact):
        prof = table_profile(table_beta)
        _, grad = make_objective(method, prof, 8)
        rho = np.array([900.0, 1100.0, 1000.0])
        g = grad(rho)
        for k in range(3):
            h = 1e-4 * rho[k]
            up, down = rho.copy(), rho.copy()
            up[k] += h
            down[k] -= h
            numeric = (objective_value(method, up, prof, 8, exact=exact)
                       - objective_value(method, down, prof, 8, exact=exact)) / (2.0 * h)
            assert g[k] == pytest.approx(numeric, rel=1e-6)

    def test_fun_equals_objective_value(self, table_beta):
        prof = table_profile(table_beta)
        rho = np.array([900.0, 1100.0, 1000.0])
        for method in (LS, MMSE):
            fun, _ = make_objective(method, prof, 8)
            assert fun(rho) == objective_value(method, rho, prof, 8, exact=False)

    def test_mean_keeps_the_bits_of_numpy_mean(self):
        rng = np.random.default_rng(47)
        for K in range(2, 13):
            for _ in range(40):
                P = 10.0 ** rng.uniform(2.0, 8.0)
                prof = random_profile(rng, K, P)
                rho = P / K * 10.0 ** rng.uniform(-1.0, 1.0, K)
                M = int(rng.integers(2, 513))
                for method in (LS, MMSE):
                    fun, _ = make_objective(method, prof, M)
                    assert fun(rho) == oracle.mean_error(method, rho, prof, M, False)
                    for exact in (True, False):
                        assert objective_value(method, rho, prof, M, exact=exact) \
                            == oracle.mean_error(method, rho, prof, M, exact)


def _oracle_asymptote(method, beta, cfg):
    """The per-user high-budget limit priced one user at a time from the
    noise-free allocation at unit budget: (K,) limits and their cell
    average, in the arithmetic of :func:`exp_rcee_asymptotic`."""
    interference = oracle.flat_interference(beta, 1.0 / cfg.K)
    profile = InterferenceProfile(upsilon=interference, beta_target=beta[0].copy())
    x = oracle.ppa_allocate(method, profile, cfg.replace(P_total=1.0)).rho
    values = []
    for k in range(cfg.K):
        own = x[k] * beta[0, k]
        values.append(interference[k] / own if method == LS
                      else interference[k] / (interference[k] + own))
    return np.array(values), float(np.mean(values))


def _group_formulas(method, beta, cfg):
    """The paper's per-group limits, written one user at a time: a pinned
    user from its bound's share of the budget, a free user from the
    water-filling ratios of the free group, with the groups read off a
    noise-free allocation at a budget of 1e6.  (K,) limits and their cell
    average."""
    K = cfg.K
    delta = np.full((cfg.L, K), 1.0 / K)
    interference = np.einsum("lk,lk->k", delta[1:], beta[1:])
    profile = InterferenceProfile(upsilon=interference * 1.0e6,
                                  beta_target=beta[0].copy())
    alloc = ppa_allocate(method, profile, cfg.replace(P_total=1.0e6))
    ratio = interference / beta[0]
    free_sqrt_sum = math.fsum(np.sqrt(ratio[list(alloc.free)]))
    varphi = 1.0 - (ALPHA * len(alloc.at_min) + cfg.mu * len(alloc.at_max)) / K
    varpi = math.fsum(ratio[list(alloc.free)])
    psi = np.sqrt(beta[0] * interference)
    phi = interference * free_sqrt_sum
    values = []
    for k in range(K):
        if k in alloc.free:
            level = varphi if method == LS else varphi + varpi
            values.append(phi[k] / (level * psi[k]))
            continue
        fraction = (ALPHA if k in alloc.at_min else cfg.mu) / K
        if method == LS:
            values.append(interference[k] / (fraction * beta[0][k]))
        else:
            values.append(interference[k] / (interference[k] + fraction * beta[0][k]))
    return np.array(values), float(np.mean(values))


class TestAsymptoticGroups:
    """The high-budget user groups: pinned at a bound, or free."""

    def cfg(self, K=3, mu=1.5):
        return SystemConfig(K=K, M=200, P_total=1.0e3 * K, mu=mu)

    def test_symmetric_users_stay_free(self):
        # free users water-fill to the flat split, so its floor is the limit;
        # a pinned user would sit at twice or two thirds of it
        beta = np.array([[1.0, 1.0, 1.0], [0.2, 0.2, 0.2]])
        for method in (LS, MMSE):
            assert exp_rcee_asymptotic(method, beta, self.cfg()) == pytest.approx(
                exp_rcee_eppa_limit(method, beta, 3, math.inf), rel=1e-12)

    def test_heavy_user_joins_at_max(self):
        # user 2 keeps mu/K of the budget against interference 1/3
        beta = np.array([[1.0, 1.0, 1.0], [0.01, 0.01, 1.0]])
        assert exp_rcee_asymptotic(LS, beta, self.cfg())[2] == pytest.approx(
            (1.0 / 3.0) / 0.5, rel=1e-14)
        assert exp_rcee_asymptotic(MMSE, beta, self.cfg())[2] == pytest.approx(
            (1.0 / 3.0) / (1.0 / 3.0 + 0.5), rel=1e-14)

    def test_partition_is_budget_invariant(self, table_beta):
        # without the noise term the weights scale with the budget, and so
        # does the box: the allocator groups the users alike at any budget
        interference = table_beta[1:].sum(axis=0) / 3.0
        for method in (LS, MMSE):
            groups = []
            for P in (1.0, 1.0e3, 1.0e6):
                prof = InterferenceProfile(upsilon=interference * P,
                                           beta_target=table_beta[0])
                alloc = ppa_allocate(method, prof, self.cfg().replace(P_total=P))
                groups.append((alloc.free, alloc.at_min, alloc.at_max))
            assert groups[0] == groups[1] == groups[2]

    def test_a_stack_equals_its_slices_bitwise(self):
        # (D, L, K) gains: every slice is the limit of that drop alone
        cfg = default_config("fig4b", seed=1).replace(Gamma=3)
        gains = np.stack([drop_gains(cfg, d) for d in range(6)])
        for method in (LS, MMSE):
            stacked = exp_rcee_asymptotic(method, gains, cfg)
            assert stacked.shape == (6, cfg.K)
            for one, limits in zip(gains, stacked):
                assert limits.tobytes() == exp_rcee_asymptotic(method, one, cfg).tobytes()
            assert exp_rcee_asymptotic(method, gains.reshape(2, 3, cfg.L, cfg.K),
                                       cfg).tobytes() == stacked.tobytes()

    def test_single_cell_has_no_interference(self, table_beta):
        # with no other cell the error vanishes as the budget grows, as the
        # equal-power floor does
        for method in (LS, MMSE):
            for beta in (table_beta[:1], np.stack([table_beta[:1]] * 2)):
                limits = exp_rcee_asymptotic(method, beta, self.cfg())
                assert limits.shape == beta.shape[:-2] + (3,)
                assert np.all(limits == 0.0)
                assert np.array_equal(limits,
                                      exp_rcee_eppa_limit(method, beta, 3, math.inf))

    def test_shape_and_user_count_checks(self, table_beta):
        with pytest.raises(ValueError):
            exp_rcee_asymptotic(LS, table_beta[:, 0], self.cfg())
        with pytest.raises(ValueError, match="K=4"):
            exp_rcee_asymptotic(LS, table_beta, self.cfg(K=4))


class TestExpRceeAsymptotic:
    def cfg(self):
        return SystemConfig(K=3, M=200, P_total=3.0e3, mu=1.5)

    def test_min_branch_ls(self):
        # user 0's interference/gain ratio is 20x below the others': at_min
        beta = np.array([[1.0, 1.0, 1.0], [0.05, 1.0, 1.0]])
        assert exp_rcee_asymptotic(LS, beta, self.cfg())[0] == pytest.approx(
            0.1, rel=1e-14)

    def test_max_branch_mmse(self):
        beta = np.array([[1.0, 1.0, 1.0], [0.05, 0.05, 2.0]])
        assert exp_rcee_asymptotic(MMSE, beta, self.cfg())[2] == pytest.approx(
            4.0 / 7.0, rel=1e-14)

    def test_two_user_hand_instance(self):
        # exact tie between the bound violations; both the pinned-share and
        # free-user formulas give the same limits here, so the assertions
        # hold whichever way the tie lands
        cfg = SystemConfig(K=2, M=200, P_total=1.0e3, mu=1.5)
        beta = np.array([[1.0, 1.0], [0.01, 3.0]])
        assert exp_rcee_asymptotic(LS, beta, cfg) == pytest.approx(
            [0.02, 2.0], rel=1e-9)
        assert exp_rcee_asymptotic(MMSE, beta, cfg) == pytest.approx(
            [1.0 / 51.0, 2.0 / 3.0], rel=1e-9)

    def test_method_mismatch_rejected(self, table_beta):
        with pytest.raises(ValueError, match="method"):
            exp_rcee_asymptotic("zf", table_beta, self.cfg())

    def test_every_user_pinned(self):
        # K = 2 and mu = 1.5 put both box corners on the budget.  User 0's
        # weight is 1000 times user 1's: MMSE's noise-free allocation pins
        # user 0 at max and user 1 at min, so no user is free and no
        # free-user formula may be evaluated; LS leaves one user free on
        # its bound.
        cfg = SystemConfig(K=2, M=2, P_total=100.0, mu=1.5)
        beta = np.array([[1.0, 1.0], [10.0, 0.01]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ls, mmse = (exp_rcee_asymptotic(m, beta, cfg) for m in (LS, MMSE))
        # interference 5 and 0.005 over the shares mu/K and alpha/K
        assert ls == pytest.approx([20.0 / 3.0, 0.02], rel=1e-14)
        assert mmse == pytest.approx([20.0 / 23.0, 1.0 / 51.0], rel=1e-14)

    def test_matches_large_budget_allocation(self, table_beta):
        # drive the budget 12 decades up and price the actual allocation
        P = 1.0e12
        cfg_big = SystemConfig(K=3, M=200, P_total=P, mu=1.5)
        for method in (LS, MMSE):
            limits = exp_rcee_asymptotic(method, table_beta, self.cfg())
            prof = eppa_profile(table_beta, P, 3)
            alloc = ppa_allocate(method, prof, cfg_big)
            for k in range(3):
                col_rho = np.concatenate([[alloc.rho[k]], np.full(6, P / 3.0)])
                limit = exp_rcee_limit(method, col_rho, table_beta[:, k])
                assert limits[k] == pytest.approx(limit, rel=1e-6)

    def test_frozen_table_values(self, table_beta):
        # LS pins user 1 at the lower bound and leaves 0 and 2 free; MMSE
        # leaves every user free
        limits = exp_rcee_asymptotic(LS, table_beta, self.cfg())
        assert limits == pytest.approx(
            [0.6237188488947948, 0.21319482130397707, 0.6730318259940313],
            rel=1e-12)
        assert limits.mean() == pytest.approx(0.503315165397601, rel=1e-12)
        assert exp_rcee_asymptotic(MMSE, table_beta, self.cfg()).mean() == pytest.approx(
            0.3188373990879196, rel=1e-12)

    def test_equals_the_per_user_formulas_bitwise(self):
        # every desk fig4b drop: Gamma 1, 3, 7 at seeds 0-2, 20 drops each
        checked = 0
        for seed in (0, 1, 2):
            for gamma in (1, 3, 7):
                cfg = default_config("fig4b", seed=seed).replace(Gamma=gamma)
                for drop in range(20):
                    beta = drop_gains(cfg, drop)
                    for method in (LS, MMSE):
                        values, mean = _oracle_asymptote(method, beta, cfg)
                        limits = exp_rcee_asymptotic(method, beta, cfg)
                        assert np.array_equal(limits, values)
                        assert float(limits.mean()) == mean
                        # and the paper's group formulas, to a few ulps
                        values, mean = _group_formulas(method, beta, cfg)
                        assert np.all(abs(limits - values) <= 8 * np.spacing(values))
                        assert abs(float(limits.mean()) - mean) <= 8 * np.spacing(mean)
                        checked += 1
        assert checked == 360


def test_alpha_matches_the_configured_lower_bound():
    cfg = SystemConfig(K=5, M=8, P_total=5.0e3, mu=1.5)
    assert cfg.rho_min == ALPHA * cfg.P_total / cfg.K
    # (0.5 P) / K and P / (2K) round the same real once: the same bits
    for K in range(2, 13):
        for P in np.geomspace(1e-3, 1e9, 97):
            assert SystemConfig(K=K, M=8, P_total=float(P)).rho_min == P / (2 * K)
