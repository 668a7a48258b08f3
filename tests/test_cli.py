import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import roughmor
from roughmor import DEFAULT_TOL_P, DEFAULT_TOL_Q, BilinearRoughSystem
from roughmor._fixtures import mild_stable_system
from roughmor.cli import main, read_system_file, write_system_file


@pytest.fixture()
def small_model_file(tmp_path):
    path = tmp_path / "model.txt"
    write_system_file(mild_stable_system(4, 1, seed=77), path)
    return str(path)


def read_summary(outdir):
    with open(outdir / "summary.json") as handle:
        return json.load(handle)


class TestSystemFileRoundTrip:
    def test_bitwise(self, tmp_path):
        sys_ = mild_stable_system(5, 2, seed=31)
        path = tmp_path / "m.txt"
        write_system_file(sys_, path)
        back = read_system_file(path)
        assert np.array_equal(back.A, sys_.A)
        for lhs, rhs in zip(back.N, sys_.N):
            assert np.array_equal(lhs, rhs)
        assert np.array_equal(back.K, sys_.K)
        assert np.array_equal(back.C, sys_.C)
        assert np.array_equal(back.x0, sys_.x0)

    def test_missing_file(self):
        rc = main(["simulate", "--model", "file", "--model-file",
                   "/nonexistent/m.txt", "--out", "/tmp/never-used"])
        assert rc == 1


class TestReduce:
    def test_small_model_exact(self, small_model_file, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["reduce", "--model", "file", "--model-file",
                   small_model_file, "--step-exp", "7", "--out", str(out)])
        assert rc == 0
        summary = read_summary(out)
        assert summary["status"] == "ok"
        assert summary["relative_l2_error"] <= 1e-10
        assert not summary["error_is_absolute"]
        gramian = summary["gramian"]
        for side in ("p", "q"):
            assert (0.0 <= gramian[f"{side}_gate_rho_lower"]
                    <= gramian[f"{side}_gate_rho_upper"] < 1.0)
            assert gramian[f"{side}_gate_solves"] > 0
        for name in ("config.txt", "driver_path.csv", "gramian_spectrum_p.csv",
                     "gramian_spectrum_q.csv", "stage_metadata.csv",
                     "output_full.csv", "output_reduced.csv",
                     "pointwise_error.csv", "summary.json"):
            assert (out / name).exists(), name
        assert "orders:" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, small_model_file, tmp_path):
        out = tmp_path / "run"
        argv = ["reduce", "--model", "file", "--model-file", small_model_file,
                "--step-exp", "7", "--out", str(out)]
        assert main(argv) == 0
        kept = {name: (out / name).read_bytes()
                for name in ("summary.json", "output_reduced.csv",
                             "driver_path.csv", "gramian_spectrum_p.csv")}
        assert main(argv) == 0
        for name, blob in kept.items():
            assert (out / name).read_bytes() == blob, name

    def test_states_flag(self, small_model_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["reduce", "--model", "file", "--model-file",
                   small_model_file, "--step-exp", "6", "--states",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "states_full.csv").exists()

    def test_unstable_model_gate(self, tmp_path):
        sys_ = BilinearRoughSystem(A=np.diag([0.5, -1.0]),
                                   N=(np.zeros((2, 2)),), K=np.eye(1),
                                   C=np.eye(2)[:1], x0=np.ones(2))
        mfile = tmp_path / "unstable.txt"
        write_system_file(sys_, mfile)
        out = tmp_path / "run"
        rc = main(["reduce", "--model", "file", "--model-file", str(mfile),
                   "--step-exp", "6", "--out", str(out)])
        assert rc == 1
        summary = read_summary(out)
        assert summary["status"] == "failed"
        assert "stab" in summary["error"]
        assert summary["error_type"] == "StabilityError"
        assert not {"residual", "iterations", "step"} & set(summary)

    def test_undecided_gate_exits_2(self, tmp_path):
        # A = -I and a strictly lower-triangular N: the splitting is
        # nilpotent, but ||L^{-1}(I)|| near 1e15 keeps the bracket on its
        # spectral radius around 1, so the gate names it and gives up
        rng = np.random.default_rng(0)
        N = 4.0 * np.tril(rng.standard_normal((20, 20)), -1)
        sys_ = BilinearRoughSystem(A=-np.eye(20), N=(N,), K=np.eye(1),
                                   C=np.eye(20)[:1], x0=np.ones(20))
        mfile = tmp_path / "nilpotent.txt"
        write_system_file(sys_, mfile)
        out = tmp_path / "run"
        rc = main(["reduce", "--model", "file", "--model-file", str(mfile),
                   "--step-exp", "6", "--out", str(out)])
        assert rc == 2
        summary = read_summary(out)
        assert summary["error_type"] == "NumericalError"
        assert "undecided" in summary["error"]


    def test_zero_initial_state_exits_1(self, tmp_path):
        # x0 = 0 leaves P = 0 with nothing to keep: a precondition of the
        # reduction fails, nothing numerical
        base = mild_stable_system(2, 1, seed=3)
        mfile = tmp_path / "zero.txt"
        write_system_file(BilinearRoughSystem(A=base.A, N=base.N, K=base.K,
                                              C=base.C, x0=np.zeros(2)),
                          mfile)
        for command in ("reduce", "sweep"):
            out = tmp_path / command
            rc = main([command, "--model", "file", "--model-file",
                       str(mfile), "--step-exp", "6", "--out", str(out)])
            assert rc == 1
            assert read_summary(out)["error_type"] == "EmptyBasisError"


class TestSweep:
    def test_full_rank_and_csv(self, small_model_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["sweep", "--model", "file", "--model-file",
                   small_model_file, "--step-exp", "7", "--ranks", "2,4",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep_errors.csv").read_text().splitlines()
        assert lines[0] == "r,rel_L2_error"
        table = {int(row.split(",")[0]): float(row.split(",")[1])
                 for row in lines[1:]}
        assert sorted(table) == [2, 4]
        assert table[4] <= 1e-10
        # the CSV carries the same float as summary.json, in full repr
        entry = read_summary(out)["table"][0]
        assert lines[1] == f"{entry['r']},{entry['rel_L2_error']!r}"

    def test_default_ranks_below_five(self, tmp_path):
        # heat n = 4 reduces 4 -> 4 -> 4, so range(5, r + 1, 2) is empty and
        # the default sweep is the exact order alone
        out = tmp_path / "run"
        assert main(["sweep", "--n", "4", "--out", str(out)]) == 0
        summary = read_summary(out)
        assert len(summary["table"]) == 1
        assert summary["table"][0]["actual_r"] == summary["orders"][-1]


class TestGramian:
    def test_spectra_and_ranks(self, small_model_file, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["gramian", "--model", "file", "--model-file",
                   small_model_file, "--out", str(out)])
        assert rc == 0
        assert (out / "gramian_spectrum_p.csv").exists()
        assert (out / "gramian_spectrum_q.csv").exists()
        assert "numerical rank" in capsys.readouterr().out
        summary = read_summary(out)
        # both sides gate the same system
        for key in ("gate_rho_lower", "gate_rho_upper", "gate_solves"):
            assert summary["reach"][key] == summary["obs"][key]
        assert (0.0 <= summary["reach"]["gate_rho_lower"]
                <= summary["reach"]["gate_rho_upper"] < 1.0)
        assert summary["obs"]["gate_solves"] > 0

    def test_spectrum_csv_matches_rank(self, tmp_path):
        # the CSV and numerical_rank come from one eigendecomposition, so the
        # entries above the cut are exactly the retained directions; at
        # n = 200 an eigenvalues-only solve puts 42 entries above the P cut
        # where the eigenvector solve keeps 41
        base = mild_stable_system(4, 1, seed=77)
        write_system_file(BilinearRoughSystem(A=base.A, N=base.N, K=base.K,
                                              C=base.C, x0=np.zeros(4)),
                          tmp_path / "zero.txt")
        runs = {"heat": ["--n", "200"],
                "zero": ["--model", "file", "--model-file",
                         str(tmp_path / "zero.txt")]}
        for name, args in runs.items():
            out = tmp_path / name
            assert main(["gramian", *args, "--out", str(out)]) == 0
            summary = read_summary(out)
            for side, key, tol in (("p", "reach", DEFAULT_TOL_P),
                                   ("q", "obs", DEFAULT_TOL_Q)):
                lines = (out / f"gramian_spectrum_{side}.csv").read_text()
                w = [float(row.split(",")[1])
                     for row in lines.splitlines()[1:]]
                assert sum(v > tol * w[0] for v in w) \
                    == summary[key]["numerical_rank"]
        assert summary["reach"]["numerical_rank"] == 0

    def test_marginal_system_exits_2(self, tmp_path, monkeypatch):
        # a backward-error bound below the solver's round-off floor cannot
        # be met: the solve raises ConvergenceError
        tol = 1e-30
        monkeypatch.setattr("roughmor.gramians.BACKWARD_ERROR_BOUND", tol)
        out = tmp_path / "run"
        rc = main(["gramian", "--n", "10", "--out", str(out)])
        assert rc == 2
        summary = read_summary(out)
        assert summary["status"] == "failed"
        assert summary["error_type"] == "ConvergenceError"
        assert summary["residual"] > tol
        assert summary["iterations"] > 0
        assert "step" not in summary


class TestSimulateAndPathReuse:
    def test_stored_path_reused_bitwise(self, small_model_file, tmp_path):
        first = tmp_path / "a"
        rc = main(["simulate", "--model", "file", "--model-file",
                   small_model_file, "--step-exp", "6", "--out", str(first)])
        assert rc == 0
        second = tmp_path / "b"
        rc = main(["simulate", "--model", "file", "--model-file",
                   small_model_file, "--step-exp", "6", "--path-file",
                   str(first / "driver_path.csv"), "--out", str(second)])
        assert rc == 0
        assert ((first / "driver_path.csv").read_bytes()
                == (second / "driver_path.csv").read_bytes())
        assert ((first / "output_full.csv").read_bytes()
                == (second / "output_full.csv").read_bytes())

    def test_path_dimension_mismatch(self, tmp_path, small_model_file):
        wide = tmp_path / "w"
        rc = main(["simulate", "--n", "4", "--step-exp", "6",
                   "--out", str(wide)])
        assert rc == 0
        out = tmp_path / "run"
        rc = main(["simulate", "--model", "file", "--model-file",
                   small_model_file, "--step-exp", "6", "--path-file",
                   str(wide / "driver_path.csv"), "--out", str(out)])
        assert rc == 1


class TestConfigResolution:
    def test_file_then_flags_precedence(self, small_model_file, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# comment line\n"
            "model=file\n"
            f"model_file={small_model_file}\n"
            "seed=7\n"
            "hurst=0.45\n"
            "step_exp=6\n")
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(cfgfile), "--hurst", "0.35",
                   "--out", str(out)])
        assert rc == 0
        echoed = (out / "config.txt").read_text().splitlines()
        assert "seed=7" in echoed
        assert "hurst=0.35" in echoed
        assert "step_exp=6" in echoed

    def test_replay_echoed_config(self, small_model_file, tmp_path):
        first = tmp_path / "a"
        rc = main(["simulate", "--model", "file", "--model-file",
                   small_model_file, "--step-exp", "6", "--seed", "11",
                   "--states", "--out", str(first)])
        assert rc == 0
        second = tmp_path / "b"
        rc = main(["simulate", "--config", str(first / "config.txt"),
                   "--out", str(second)])
        assert rc == 0
        csvs = sorted(path.name for path in first.glob("*.csv"))
        assert csvs == sorted(path.name for path in second.glob("*.csv"))
        assert "states_full.csv" in csvs
        for name in csvs:
            assert ((first / name).read_bytes()
                    == (second / name).read_bytes()), name
        old = (first / "config.txt").read_text().splitlines()
        new = (second / "config.txt").read_text().splitlines()
        assert "mode=simulate" in old
        assert [(a, b) for a, b in zip(old, new) if a != b] == [
            (f"out={first}", f"out={second}")]
        assert len(old) == len(new)
        # the echoed mode must match the subcommand that replays it
        third = tmp_path / "c"
        rc = main(["reduce", "--config", str(first / "config.txt"),
                   "--out", str(third)])
        assert rc == 1
        assert not third.exists()

    def test_unknown_config_key(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("stepexp=6\n")
        assert main(["simulate", "--config", str(cfgfile)]) == 1

    def test_heat_coefficient_keys_rejected(self, tmp_path):
        # the heat model's coefficients are fixed; any other model comes in
        # through --model file
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--n", "4", "--beta", "constant:0.4", "--gamma",
                  "constant:0.1", "--out", str(out)])
        assert exc.value.code == 1
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=4\nbeta=\n")
        assert main(["reduce", "--config", str(cfgfile),
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_invalid_hurst_flag(self, tmp_path):
        rc = main(["simulate", "--n", "4", "--hurst", "2.0",
                   "--out", str(tmp_path / "run")])
        assert rc == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


class TestProbes:
    def test_default_suite_passes(self, tmp_path, cli_oracle):
        out = tmp_path / "run"
        rc = main(["probes", "--out", str(out)])
        assert rc == 0
        lines = (out / "probes_report.csv").read_text().splitlines()
        assert lines[0] == "name,value,bound,status"
        assert len(lines) == 6
        assert all(row.endswith(",pass") for row in lines[1:])
        names = [row.split(",")[0] for row in lines[1:]]
        assert names == ["mean_square_stability", "resolvent_positivity",
                         "kernel_preservation", "gronwall_quadratic_form",
                         "mc_gramian_cross_check"]

    def test_unstable_fixture_fails(self, tmp_path, cli_oracle):
        out = tmp_path / "run"
        rc = main(["probes", "--fixture", "unstable", "--out", str(out)])
        assert rc == 3
        summary = read_summary(out)
        assert summary["status"] == "probe_failure"
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        assert failed == ["mean_square_stability"]


class TestEntryPoint:
    def test_module_invocation(self, small_model_file, tmp_path):
        out = tmp_path / "run"
        # the child imports the package this test imported, whether it came
        # from PYTHONPATH, pytest's pythonpath setting or an install
        src = os.path.dirname(os.path.dirname(roughmor.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "roughmor.cli", "simulate", "--model",
             "file", "--model-file", small_model_file, "--step-exp", "6",
             "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (out / "summary.json").exists()
        assert "simulated 32 steps" in proc.stdout

    def test_console_script_if_installed(self, small_model_file, tmp_path):
        exe = shutil.which("roughmor")
        if exe is None:
            pytest.skip("console script not on PATH")
        out = tmp_path / "run"
        proc = subprocess.run(
            [exe, "simulate", "--model", "file", "--model-file",
             small_model_file, "--step-exp", "6", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
