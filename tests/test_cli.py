import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roughmor
from roughmor import (DEFAULT_TOL_P, DEFAULT_TOL_Q, BilinearRoughSystem,
                      read_path_csv, rough_rk_simulate)
from roughmor._fixtures import mild_stable_system
from roughmor._util import fmt
from roughmor.cli import build_parser, main, read_system_file, resolve_config

README = Path(__file__).resolve().parents[1] / "README.md"
# the flags of every subcommand that drives a model along a path
RUN_FLAGS = {"--model-file", "--n", "--horizon", "--hurst", "--seed",
             "--step-exp", "--out", "--path-file"}


def write_system_file(model_sys: BilinearRoughSystem, path) -> None:
    """Write a system in the plain-text matrix format read_system_file reads:
    the 'n d p' header, then A, N_1..N_d, K, C and x0 row by row."""
    lines = [f"{model_sys.n} {model_sys.d} {model_sys.p}"]
    for label, M in [("A", model_sys.A),
                     *((f"N{i + 1}", Ni) for i, Ni in enumerate(model_sys.N)),
                     ("K", model_sys.K), ("C", model_sys.C),
                     ("x0", model_sys.x0)]:
        lines.append(f"# {label}")
        lines.extend(" ".join(fmt(v) for v in row)
                     for row in np.atleast_2d(M))
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.fixture()
def small_model_file(tmp_path):
    path = tmp_path / "model.txt"
    write_system_file(mild_stable_system(4, 1, seed=77), path)
    return str(path)


def read_summary(outdir):
    # strict JSON: a NaN or Infinity in the file fails the test
    with open(outdir / "summary.json") as handle:
        return json.load(handle, parse_constant=pytest.fail)


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

    @pytest.mark.parametrize("header", ["0 1 1", "2 -1 1", "2 1 -1"])
    def test_header_out_of_range(self, tmp_path, header):
        path = tmp_path / "m.txt"
        path.write_text(header + "\n1\n")
        with pytest.raises(roughmor.ArgumentError, match="n >= 1"):
            read_system_file(path)

    @pytest.mark.parametrize("text, match", [
        ("2 1\n", "missing 'n d p' header"),
        ("2 one 1\n", "malformed 'n d p' header"),
        ("1 0 0\n-1\n", "expected 2 matrix entries"),
        ("1 0 0\n-1 one\n", "non-numeric matrix entry")])
    def test_malformed_file(self, tmp_path, text, match):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(roughmor.ArgumentError, match=match):
            read_system_file(path)

    def test_missing_file(self, tmp_path):
        # a model file that cannot be read fails the run; it does not fall
        # back to the builtin heat model
        out = tmp_path / "run"
        rc = main(["simulate", "--model-file", str(tmp_path / "missing.txt"),
                   "--out", str(out)])
        assert rc == 1
        summary = read_summary(out)
        assert summary["status"] == "failed"
        assert summary["error_type"] == "ArgumentError"


class TestReduce:
    def test_small_model_exact(self, small_model_file, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["reduce", "--model-file", small_model_file,
                   "--step-exp", "7", "--out", str(out)])
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
        for side in ("full", "reduced"):
            assert summary["solver"][f"min_pivot_ratio_{side}"] > 0.0
        for name in ("config.txt", "driver_path.csv", "gramian_spectrum_p.csv",
                     "gramian_spectrum_q.csv", "stage_metadata.csv",
                     "output_full.csv", "output_reduced.csv",
                     "pointwise_error.csv", "summary.json"):
            assert (out / name).exists(), name
        assert "orders:" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, small_model_file, tmp_path):
        out = tmp_path / "run"
        argv = ["reduce", "--model-file", small_model_file,
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
        rc = main(["reduce", "--model-file", small_model_file,
                   "--step-exp", "6", "--states", "--out", str(out)])
        assert rc == 0
        assert (out / "states_full.csv").exists()

    def test_unstable_model_gate(self, tmp_path):
        sys_ = BilinearRoughSystem(A=np.diag([0.5, -1.0]),
                                   N=(np.zeros((2, 2)),), K=np.eye(1),
                                   C=np.eye(2)[:1], x0=np.ones(2))
        mfile = tmp_path / "unstable.txt"
        write_system_file(sys_, mfile)
        out = tmp_path / "run"
        rc = main(["reduce", "--model-file", str(mfile),
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
        rc = main(["reduce", "--model-file", str(mfile),
                   "--step-exp", "6", "--out", str(out)])
        assert rc == 2
        summary = read_summary(out)
        assert summary["error_type"] == "NumericalError"
        assert "undecided" in summary["error"]


    def test_non_finite_model_exits_1(self, tmp_path):
        # n = d = p = 1 with A = nan, N = 0, K = C = x0 = 1: rejected as bad
        # input before any Gramian solve or integration
        mfile = tmp_path / "nan.txt"
        mfile.write_text("1 1 1\nnan\n0\n1\n1\n1\n")
        for command in ("reduce", "simulate"):
            out = tmp_path / command
            rc = main([command, "--model-file", str(mfile),
                       "--step-exp", "6", "--out", str(out)])
            assert rc == 1
            summary = read_summary(out)
            assert summary["status"] == "failed"
            assert summary["error_type"] == "ArgumentError"

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
            rc = main([command, "--model-file", str(mfile),
                       "--step-exp", "6", "--out", str(out)])
            assert rc == 1
            assert read_summary(out)["error_type"] == "EmptyBasisError"

    def test_no_noise_channels_exits_1(self, tmp_path):
        # header "2 0 1": no noise channels and an empty K. The reduction
        # runs; the fBm driver then needs d >= 1, a bad-input failure
        mfile = tmp_path / "d0.txt"
        mfile.write_text("2 0 1\n-1 0.5\n0 -2\n1 1\n1 0\n")
        for command in ("reduce", "sweep"):
            out = tmp_path / command
            rc = main([command, "--model-file", str(mfile),
                       "--step-exp", "6", "--out", str(out)])
            assert rc == 1
            summary = read_summary(out)
            assert summary["status"] == "failed"
            assert summary["error_type"] == "ArgumentError"
            assert "d >= 1" in summary["error"]


class TestSweep:
    def test_full_rank_and_csv(self, small_model_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["sweep", "--model-file", small_model_file,
                   "--step-exp", "7", "--ranks", "2,4", "--out", str(out)])
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

    @pytest.mark.parametrize("ranks", [",", " , ,"])
    def test_rank_list_without_a_rank_exits_1(self, tmp_path, capsys, ranks):
        # the list must not fall back to the default ranks, nor write a
        # config.txt whose empty ranks= replays as that default
        out = tmp_path / "run"
        assert main(["sweep", "--n", "12", "--ranks", ranks,
                     "--out", str(out)]) == 1
        assert "ranks=" in capsys.readouterr().err
        assert not out.exists()
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"ranks={ranks}\n")
        assert main(["sweep", "--config", str(cfgfile),
                     "--out", str(out)]) == 1
        assert not out.exists()


class TestGramian:
    def test_spectra_and_ranks(self, small_model_file, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["gramian", "--model-file", small_model_file,
                   "--out", str(out)])
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
                "zero": ["--model-file", str(tmp_path / "zero.txt")]}
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

    def test_overflowing_solve_exits_2(self, tmp_path):
        # x0 = (1e150, 1) overflows the norm of x0 x0^T: the solve's backward
        # error is nan, which fails the acceptance, and summary.json stays
        # strict JSON without the nan residual
        mfile = tmp_path / "huge.txt"
        write_system_file(BilinearRoughSystem(
            A=-np.eye(2), N=(0.1 * np.eye(2),), K=np.eye(1),
            C=np.array([[1.0, 0.0]]), x0=np.array([1e150, 1.0])), mfile)
        for command in ("reduce", "gramian"):
            out = tmp_path / command
            rc = main([command, "--model-file", str(mfile), "--out", str(out)])
            assert rc == 2
            summary = read_summary(out)
            assert summary["status"] == "failed"
            assert summary["error_type"] == "ConvergenceError"
            assert "residual" not in summary

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
        rc = main(["simulate", "--model-file", small_model_file,
                   "--step-exp", "6", "--out", str(first)])
        assert rc == 0
        second = tmp_path / "b"
        rc = main(["simulate", "--model-file", small_model_file,
                   "--path-file", str(first / "driver_path.csv"),
                   "--out", str(second)])
        assert rc == 0
        assert ((first / "driver_path.csv").read_bytes()
                == (second / "driver_path.csv").read_bytes())
        assert ((first / "output_full.csv").read_bytes()
                == (second / "output_full.csv").read_bytes())
        # the summary reports the integrator's pivot diagnostic as it is
        expected = rough_rk_simulate(
            read_system_file(small_model_file),
            read_path_csv(first / "driver_path.csv")).min_pivot_ratio
        for run in (first, second):
            assert (read_summary(run)["solver"]["min_pivot_ratio"]
                    == expected > 0.0)

    def test_unreadable_path_file_exits_1(self, tmp_path, small_model_file):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,W1\n0.0,0.0\n0.5,oops\n")
        # a uniform grid of the right span that starts at t = 1.0, not 0
        late = tmp_path / "late.csv"
        late.write_text("t,W1\n1.0,0.0\n1.25,0.5\n1.5,1.0\n")
        times_only = tmp_path / "times_only.csv"
        times_only.write_text("t\n0.0\n0.5\n")
        one_row = tmp_path / "one_row.csv"
        one_row.write_text("t,W1\n0.0,0.0\n")
        for path_file, why in ((tmp_path / "missing.csv", "cannot read"),
                               (bad, "cannot read"), (late, "uniform grid"),
                               (times_only, ">= 1 component"),
                               (one_row, "at least two rows")):
            out = tmp_path / path_file.stem
            rc = main(["simulate", "--model-file", small_model_file,
                       "--path-file", str(path_file), "--out", str(out)])
            assert rc == 1
            summary = read_summary(out)
            assert summary["status"] == "failed"
            assert summary["error_type"] == "ArgumentError"
            assert str(path_file) in summary["error"]
            assert why in summary["error"]

    def test_path_dimension_mismatch(self, tmp_path, small_model_file):
        wide = tmp_path / "w"
        rc = main(["simulate", "--n", "4", "--step-exp", "6",
                   "--out", str(wide)])
        assert rc == 0
        out = tmp_path / "run"
        rc = main(["simulate", "--model-file", small_model_file,
                   "--path-file", str(wide / "driver_path.csv"),
                   "--out", str(out)])
        assert rc == 1
        # heat n = 4 drives two components, the model file one
        assert "2 components" in read_summary(out)["error"]


class TestConfigResolution:
    def test_file_then_flags_precedence(self, small_model_file, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# comment line\n"
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
        rc = main(["simulate", "--model-file", small_model_file,
                   "--step-exp", "6", "--seed", "11",
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
        assert [line.partition("=")[0] for line in old] == [
            "horizon", "hurst", "mode", "model_file", "out", "path_file",
            "seed", "states", "step_exp"]
        # the echoed mode must match the subcommand that replays it
        third = tmp_path / "c"
        rc = main(["reduce", "--config", str(first / "config.txt"),
                   "--out", str(third)])
        assert rc == 1
        assert not third.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        # also a line without '=' and a config path that is a directory,
        # each rejected before the output directory exists
        out = tmp_path / "run"
        cfgfile = tmp_path / "run.cfg"
        for text, why in (("stepexp=6\n", "takes no key 'stepexp'"),
                          ("step_exp 6\n", "expected key=value")):
            cfgfile.write_text(text)
            assert main(["simulate", "--config", str(cfgfile),
                         "--out", str(out)]) == 1
            assert why in capsys.readouterr().err
        assert main(["simulate", "--config", str(tmp_path),
                     "--out", str(out)]) == 1
        assert "cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    def test_heat_coefficient_keys_rejected(self, tmp_path):
        # the heat model's coefficients, the cut levels and the probe suite
        # are fixed, and a model file alone selects the model: any other
        # model comes in through --model-file
        out = tmp_path / "run"
        for flags in (["--beta", "constant:0.4", "--gamma", "constant:0.1"],
                      ["--model", "heat1d"], ["--tol-p", "1e-14"],
                      ["--tol-q", "1e-14"], ["--fixture", "unstable"]):
            with pytest.raises(SystemExit) as exc:
                main(["reduce", "--n", "4", *flags, "--out", str(out)])
            assert exc.value.code == 1
        cfgfile = tmp_path / "run.cfg"
        for line in ("beta=", "model=file", "tol_p=1e-16", "fixture=stable"):
            cfgfile.write_text(f"n=4\n{line}\n")
            assert main(["reduce", "--config", str(cfgfile),
                         "--out", str(out)]) == 1
        assert not out.exists()

    def test_invalid_hurst_flag(self, tmp_path):
        # also step counts past 2^53, where k T / M stops being a uniform
        # grid of doubles, below the sampler's 2, or not whole
        out = tmp_path / "run"
        for flags in (["--hurst", "2.0"], ["--step-exp", "100"],
                      ["--horizon", "1e300", "--step-exp", "0"],
                      ["--step-exp", "1"], ["--horizon", "0.3"],
                      ["--n", "1"]):
            rc = main(["simulate", "--n", "4", *flags, "--out", str(out)])
            assert rc == 1
        assert not out.exists()

    def test_negative_seed(self, tmp_path, capsys):
        # rejected with the config, before the output directory exists:
        # numpy's seeding would end the run later with a bare ValueError
        out = tmp_path / "run"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed=-3\n")
        for argv in (["reduce", "--seed", "-1"], ["simulate", "--seed", "-3"],
                     ["sweep", "--config", str(cfgfile)]):
            assert main([*argv, "--n", "12", "--out", str(out)]) == 1
            assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_out_names_a_file(self, tmp_path, capsys):
        # a path that cannot become a directory exits 1 with a message,
        # not a traceback, and leaves the file as it was
        afile = tmp_path / "afile"
        afile.write_bytes(b"keep me\n")
        assert main(["simulate", "--n", "4", "--step-exp", "4",
                     "--out", str(afile)]) == 1
        err = capsys.readouterr().err
        assert "error: cannot create output directory" in err
        assert afile.read_bytes() == b"keep me\n"

    @pytest.mark.parametrize("command, flags", [
        ("reduce", RUN_FLAGS | {"--states"}),
        ("simulate", RUN_FLAGS | {"--states"}),
        ("sweep", RUN_FLAGS | {"--ranks"}),
        ("gramian", {"--model-file", "--n", "--out"}),
        ("probes", {"--out"})])
    def test_help_lists_the_keys_read(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"--help", "--config", *flags}

    def test_unread_keys_rejected(self, tmp_path):
        out = tmp_path / "run"
        for argv in (["probes", "--n", "7"], ["gramian", "--hurst", "0.3"],
                     ["sweep", "--states"], ["reduce", "--ranks", "3"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--out", str(out)])
            assert exc.value.code == 1
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("ranks=3\n")
        assert main(["reduce", "--config", str(cfgfile),
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_file_with_a_key_it_replaces(self, small_model_file, tmp_path,
                                         capsys):
        # the clash fails before any file is read
        out = tmp_path / "run"
        for flags in (["--model-file", small_model_file, "--n", "4"],
                      ["--path-file", "path.csv", "--seed", "3"],
                      ["--path-file", "path.csv", "--horizon", "0.25"]):
            assert main(["simulate", *flags, "--out", str(out)]) == 1
            assert "replaces" in capsys.readouterr().err
        assert not out.exists()

    def test_short_path_replays_without_its_step(self, tmp_path):
        # 8 steps of 2^-14 over 2^-11: the stored path alone sets the grid
        first = tmp_path / "a"
        assert main(["simulate", "--n", "4", "--horizon", "0.00048828125",
                     "--step-exp", "14", "--out", str(first)]) == 0
        second = tmp_path / "b"
        assert main(["simulate", "--n", "4",
                     "--path-file", str(first / "driver_path.csv"),
                     "--out", str(second)]) == 0
        assert ((first / "output_full.csv").read_bytes()
                == (second / "output_full.csv").read_bytes())
        echoed = (second / "config.txt").read_text().splitlines()
        assert [line.partition("=")[0] for line in echoed] == [
            "mode", "model_file", "n", "out", "path_file", "states"]

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
        # the three claim probes report a ratio against a fixed tolerance
        bounds = [float(row.split(",")[2]) for row in lines[1:]]
        assert bounds == [1.0, -1e-10, 1e-8, -1e-6, 0.95]
        summary = read_summary(out)
        assert summary["status"] == "ok"
        assert all(check["passed"] for check in summary["checks"])

    def test_failing_probe_exits_3(self, tmp_path, cli_oracle, monkeypatch):
        # a value below the positivity bound fails that probe alone
        monkeypatch.setattr(roughmor.cli, "resolvent_positivity_probe",
                            lambda *args, **kwargs: -1.0)
        out = tmp_path / "run"
        rc = main(["probes", "--out", str(out)])
        assert rc == 3
        summary = read_summary(out)
        assert summary["status"] == "probe_failure"
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        assert failed == ["resolvent_positivity"]


class TestEntryPoint:
    def test_module_invocation(self, small_model_file, tmp_path):
        out = tmp_path / "run"
        # the child imports the package this test imported, whether it came
        # from PYTHONPATH, pytest's pythonpath setting or an install
        src = os.path.dirname(os.path.dirname(roughmor.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "roughmor.cli", "simulate",
             "--model-file", small_model_file, "--step-exp", "6",
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
            [exe, "simulate", "--model-file", small_model_file,
             "--step-exp", "6", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_readme_cli_quick_start_parses():
    # every command of README's CLI quick start parses and resolves, so a
    # flag change cannot leave the README stale
    section = README.read_text().split("## Quick start (CLI)")[1]
    lines = section.split("\n## ")[0].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("roughmor ")]
    assert commands
    for argv in commands:
        resolve_config(build_parser().parse_args(argv))


def test_readme_library_quick_start_runs():
    # README's library quick start runs as written and prints what it claims
    section = README.read_text().split("## Quick start (library)")[1]
    code = section.split("```python\n")[1].split("```")[0]
    namespace = {}
    exec(code, namespace)
    assert namespace["meta"].orders == (100, 35, 33)
    assert float(namespace["err"]) <= 1e-10
