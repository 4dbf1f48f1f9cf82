import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mimo_pilot
from mimo_pilot.cli import SEED_ENV, _cell, emit_csv, main

TABLE_GOLDEN = """\
user,rho_pilot,group,objective
0,4016.372736729784,free,0.5099304325743789
1,1666.6666666666667,min,
2,4316.960596603551,free,
"""


class TestEmitCsv:
    def test_stdout_formatting(self, capsys):
        emit_csv(("a", "b", "c"), [(1, 0.5, None), (2, 1.0 / 3.0, "x")])
        out = capsys.readouterr().out
        assert out == "a,b,c\n1,0.5,\n2,0.3333333333333333,x\n"

    def test_file_output_lf_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(("a",), [(np.float64(0.1),), (np.int64(3),)], str(path))
        raw = path.read_bytes()
        assert raw == b"a\n0.1\n3\n"

    class Rate(float):
        def __repr__(self):
            return "not the float's text"

    class Label(str):
        def __str__(self):
            return "the label's text"

    @pytest.mark.parametrize("value, text", [
        (0.1, "0.1"), (1.0 / 3.0, "0.3333333333333333"), (1e300, "1e+300"), (-0.0, "-0.0"),
        (np.float64(0.1), "0.1"), (np.float32(0.5), "0.5"), (7, "7"), (-2 ** 70, str(-2 ** 70)),
        (np.int64(3), "3"), (True, "1"), (False, "0"), (None, ""), ("ppa", "ppa"),
        (Rate(2.5), "2.5"), (Label("x"), "the label's text"),
    ])
    def test_each_cell_type_gives_the_cell_text(self, capsys, value, text):
        # the writer's by-type formatting must give _cell's text for every type
        assert _cell(value) == text
        emit_csv(("a", "b"), [(value, value)])
        assert capsys.readouterr().out == f"a,b\n{text},{text}\n"


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["explode"])
        assert err.value.code == 2

    def test_bad_gamma_list(self):
        with pytest.raises(SystemExit) as err:
            main(["figure", "fig3", "--gamma", "1,x"])
        assert err.value.code == 2

    def test_gamma_outside_reuse_set(self, capsys):
        assert main(["figure", "fig4a", "--gamma", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_repeated_gamma(self, capsys):
        assert main(["figure", "fig4a", "--gamma", "1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "repeat" in captured.err


class TestFixtureCheck:
    def test_ok_line(self, table_fixture_path, capsys):
        assert main(["fixture-check", str(table_fixture_path)]) == 0
        assert capsys.readouterr().out == "ok: cells=7 users=3\n"

    def test_corrupt_fixture(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_1,user_2\n0.5,oops\n")
        assert main(["fixture-check", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["fixture-check", str(tmp_path / "nope.csv")]) == 1
        assert "error:" in capsys.readouterr().err


class TestAllocate:
    def test_golden_table_output(self, table_fixture_path, capsys):
        assert main(["allocate", "--beta", str(table_fixture_path)]) == 0
        assert capsys.readouterr().out == TABLE_GOLDEN

    def test_check_passes_for_allocator(self, table_fixture_path, capsys):
        assert main(["allocate", "--beta", str(table_fixture_path),
                     "--check"]) == 0
        assert "PASS" in capsys.readouterr().err

    def test_check_compares_the_bound_both_solvers_minimize(self, table_fixture_path,
                                                            table_beta, capsys):
        # the CSV keeps the exact MMSE error; the check line prices the
        # allocation by the MMSE bound
        assert main(["allocate", "--beta", str(table_fixture_path), "--method", "mmse",
                     "--check"]) == 0
        out, err = capsys.readouterr()
        rows = [line.split(",") for line in out.splitlines()[1:]]
        rho = np.array([float(row[1]) for row in rows])
        cfg = mimo_pilot.default_config("fig3")  # its budget and M, as allocate's
        profile = mimo_pilot.eppa_profile(table_beta, cfg.P_total, len(rho))
        assert float(rows[0][3]) == mimo_pilot.objective_value("mmse", rho, profile, cfg.M)
        bound = mimo_pilot.objective_value("mmse", rho, profile, cfg.M, exact=False)
        assert f"objective={bound!r} " in err

    def test_check_flags_flat_split_as_suboptimal(self, table_fixture_path,
                                                  capsys):
        assert main(["allocate", "--beta", str(table_fixture_path),
                     "--scheme", "eppa", "--check"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_reference_scheme_matches_itself(self, table_fixture_path, capsys):
        assert main(["allocate", "--beta", str(table_fixture_path),
                     "--scheme", "ref", "--check", "--method", "mmse"]) == 0
        assert "PASS" in capsys.readouterr().err

    def test_check_fails_against_unconverged_reference(
            self, table_fixture_path, capsys, unconverged_solver):
        with pytest.warns(RuntimeWarning, match="did not converge"):
            assert main(["allocate", "--beta", str(table_fixture_path),
                         "--check"]) == 1
        err = capsys.readouterr().err
        assert "converged=False iterations=100000 pg_norm=2.500e-03 FAIL" in err

    def test_symmetric_fixture_gets_flat_split(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("user_1,user_2\n" + "0.1,0.1\n" * 3)
        assert main(["allocate", "--beta", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("0,5000.0,free")
        assert lines[2].startswith("1,5000.0,free")

    def test_fixture_without_config_takes_the_fig3_defaults(self, tmp_path, capsys):
        # 12 users, so the fig3 cap mu = 3.0 applies unclipped
        rng = np.random.default_rng(12)
        mimo_pilot.save_beta_fixture(10.0 ** rng.uniform(-3.0, 0.0, (7, 12)),
                                     tmp_path / "beta.csv")
        (tmp_path / "sim.cfg").write_text("K = 12\nM = 200\nP_total = 1e4\nmu = 3.0\n")
        for method in ("ls", "mmse"):
            beta = ["allocate", "--beta", str(tmp_path / "beta.csv"), "--method", method]
            assert main(beta + ["--check"]) == 0
            out, err = capsys.readouterr()
            assert len(out.splitlines()) == 13
            assert err.endswith("PASS\n")
            assert main(beta + ["--check", "--config", str(tmp_path / "sim.cfg")]) == 0
            assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("seed", range(8))
    def test_check_passes_at_80_db(self, seed, tmp_path, capsys):
        # at P = 1e8 the gradient is ~1e-10 against powers of ~1e7; the
        # reference must still converge onto the allocator's optimum
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("K = 10\nM = 200\nP_total = 1e8\nmu = 3.0\n")
        assert main(["allocate", "--config", str(cfg), "--seed", str(seed),
                     "--method", "ls", "--check"]) == 0
        assert capsys.readouterr().err.endswith(" PASS\n")

    def test_config_user_count_must_match_fixture(self, table_fixture_path,
                                                  tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("K = 4\nM = 64\nP_total = 4e3\nmu = 1.5\n")
        assert main(["allocate", "--beta", str(table_fixture_path),
                     "--config", str(cfg)]) == 1
        assert "K=4" in capsys.readouterr().err

    def test_infeasible_power_bound_rejected(self, table_fixture_path,
                                             tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("K = 3\nM = 64\nP_total = 3e3\nmu = 5.0\n")
        assert main(["allocate", "--beta", str(table_fixture_path),
                     "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_random_drop_is_seed_deterministic(self, capsys):
        assert main(["allocate", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["allocate", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first
        assert main(["allocate", "--seed", "10"]) == 0
        assert capsys.readouterr().out != first


class TestSeedResolution:
    def test_environment_seed_matches_flag(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "9")
        assert main(["allocate"]) == 0
        via_env = capsys.readouterr().out
        monkeypatch.delenv(SEED_ENV)
        assert main(["allocate", "--seed", "9"]) == 0
        assert capsys.readouterr().out == via_env

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "1234")
        assert main(["allocate", "--seed", "9"]) == 0
        with_flag = capsys.readouterr().out
        monkeypatch.delenv(SEED_ENV)
        assert main(["allocate", "--seed", "9"]) == 0
        assert capsys.readouterr().out == with_flag

    def test_bad_environment_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "not-a-number")
        assert main(["allocate"]) == 1
        assert SEED_ENV in capsys.readouterr().err


class TestValidate:
    def test_check_passes_at_moderate_depth(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert main(["validate", "--trials", "1500", "--seed", "0",
                     "--out", str(out), "--check"]) == 0
        err = capsys.readouterr().err
        assert "PASS" in err and "FAIL" not in err
        header = out.read_text().splitlines()[0]
        assert header == ("experiment,metric,gamma,method,scheme,x,"
                          "mc_mean,mc_stderr,closed_form,asymptote")

    def test_rejects_degenerate_trial_count(self, capsys):
        assert main(["validate", "--trials", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBench:
    @pytest.mark.parametrize("kmax", ["1", "0"])
    def test_rejects_kmax_below_two(self, kmax, capsys):
        # range(2, kmax + 1) would be empty: a header-only CSV
        assert main(["bench", "--kmax", kmax]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: kmax must be at least 2\n"


class TestFigure:
    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["figure", "fig5b", "--gamma", "1", "--drops", "4", "--seed", "2"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_output(self, capsys):
        assert main(["figure", "fig5b", "--gamma", "1", "--drops", "2",
                     "--out", "/nonexistent/dir/out.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["figure", "fig5b", "--config", "/nonexistent/sim.cfg"]) == 1
        assert "error:" in capsys.readouterr().err
        # a config the sweep cannot report: one cell has no interference,
        # so every large-antenna rate is infinite
        single_cell = tmp_path / "single.cfg"
        single_cell.write_text("K = 10\nM = 200\nP_total = 1e4\nL = 1\n")
        assert main(["figure", "fig5b", "--config", str(single_cell), "--drops", "3"]) == 1
        assert capsys.readouterr().err == "error: samples must be finite\n"
        # fig4b reports it: with no interfering cell every infinite-budget
        # error limit is 0
        out = tmp_path / "fig4b.csv"
        assert main(["figure", "fig4b", "--config", str(single_cell), "--drops", "2",
                     "--gamma", "1", "--trials", "2", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 4 * 7
        assert {row.split(",")[-1] for row in rows[1:]} == {"0.0"}


def _run_cli(*args) -> subprocess.CompletedProcess:
    """The command in a child process, which prints warnings to its stderr;
    the child imports the package from where this process found it."""
    package_root = str(Path(mimo_pilot.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "mimo_pilot.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_script_entry_point(table_fixture_path):
    result = _run_cli("fixture-check", str(table_fixture_path))
    assert result.returncode == 0
    assert result.stdout == "ok: cells=7 users=3\n"


def test_every_user_pinned_prints_no_warning(tmp_path):
    # K = 2 and mu = 1.5 put both box corners on the budget; this drop's
    # high-budget allocation pins both users, so no user is free
    cfg = tmp_path / "vertex.cfg"
    cfg.write_text("K = 2\nM = 2\nP_total = 100\nmu = 1.5\n")
    result = _run_cli("figure", "fig4b", "--config", str(cfg), "--drops", "1",
                      "--gamma", "1", "--trials", "3")
    assert result.returncode == 0
    assert result.stderr == ""
    assert len(result.stdout.splitlines()) == 1 + 4 * 7
