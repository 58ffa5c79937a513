import argparse
import importlib.metadata
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohaudit
from cohaudit import ENSEMBLES, EnsembleSpec, MeasurementMatrix, generate, save_matrix
from cohaudit import cli, separation, solvers
from cohaudit.cli import main
from cohaudit.ripcheck import BLOCK_TRIALS
from cohaudit.solvers import SOLVERS

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def dup_spike_matrix():
    n, N = 16, 10
    data = np.zeros((n, N))
    for j in range(N - 1):
        data[j, j] = 1.0
    data[0, N - 1] = 1.0
    return MeasurementMatrix(data)


def test_audit_report_content(tmp_path):
    out = tmp_path / "audit.json"
    code = run_cli(["audit", "--ensemble", "gaussian", "--rows", "200",
                    "--cols", "400", "--seed", "42", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["command"] == "audit"
    assert rep["profile"]["sample_count"] == 79800
    assert 0.25 <= rep["profile"]["mutual_coherence"] <= 0.40
    assert rep["thresholds"]["bernstein_floor"] == 25
    assert rep["normality"]["passed"] is True
    assert sum(c for _, _, c in rep["profile"]["histogram"]) == 79800


def test_audit_stdout_mode(capsys):
    code = run_cli(["audit", "--ensemble", "gaussian", "--rows", "30",
                    "--cols", "40", "--seed", "1"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["command"] == "audit"


def test_audit_orthonormal_degenerate(tmp_path):
    m = MeasurementMatrix(np.eye(24))
    path = tmp_path / "eye.csv"
    save_matrix(m, path, "csv")
    out = tmp_path / "audit.json"
    code = run_cli(["audit", "--matrix", str(path), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["profile"]["mutual_coherence"] == 0.0
    assert rep["thresholds"] is None
    assert rep["normality"]["degenerate"] is True


def test_audit_small_matrix_skips_normality(tmp_path):
    m = MeasurementMatrix(np.eye(4))
    path = tmp_path / "small.csv"
    save_matrix(m, path, "csv")
    out = tmp_path / "audit.json"
    assert run_cli(["audit", "--matrix", str(path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["normality"] is None


def test_audit_histogram_csv(tmp_path):
    hist = tmp_path / "hist.csv"
    out = tmp_path / "audit.json"
    code = run_cli(["audit", "--ensemble", "gaussian", "--rows", "40",
                    "--cols", "30", "--seed", "2", "--bins", "16",
                    "--hist-csv", str(hist), "--out", str(out)])
    assert code == 0
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "bin_lower,bin_upper,count"
    assert len(lines) == 17


def test_audit_rerun_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["audit", "--ensemble", "bernoulli", "--rows", "50", "--cols", "80",
            "--seed", "3"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_clean_matrix(tmp_path):
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--ensemble", "gaussian", "--rows", "200",
                    "--cols", "400", "--seed", "42", "--k", "10",
                    "--trials", "800", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] is True
    assert rep["band_frequency"] >= 0.85
    assert len(rep["ratio_tail"]) == 3
    assert len(rep["spectral_tail"]) == 3


def test_verify_orthonormal_trivial(tmp_path):
    m = MeasurementMatrix(np.eye(32))
    path = tmp_path / "eye.bin"
    save_matrix(m, path, "binary")
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--matrix", str(path), "--k", "4",
                    "--trials", "200", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["band_frequency"] == 1.0
    assert rep["sigma"] == 0.0
    assert rep["ratio_tail"] == []


def test_verify_duplicate_column_fails(tmp_path):
    path = tmp_path / "dup.csv"
    save_matrix(dup_spike_matrix(), path, "csv")
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--matrix", str(path), "--k", "2",
                    "--trials", "4000", "--seed", "5", "--out", str(out)])
    assert code == 3
    rep = json.loads(out.read_text())
    assert rep["ok"] is False
    assert any(not p["ok"] for p in rep["ratio_tail"] + rep["spectral_tail"])


@pytest.mark.parametrize("base", [
    ["verify", "--ensemble", "gaussian", "--rows", "100", "--cols", "200",
     "--seed", "9", "--k", "5", "--trials", "400"],
    ["phase", "--ensemble", "gaussian", "--rows", "30", "--cols", "60", "--seed", "9",
     "--k-list", "2,6", "--solver", "omp", "--trials", "12", "--noise", "0.01"],
    ["separate", "--preset", "spikes-fourier", "--n", "32", "--seed", "9",
     "--nx", "2", "--ne", "2", "--trials", "6"],
    # bpdn solves block j of every k in one lockstep path, one work item
    ["phase", "--ensemble", "gaussian", "--rows", "30", "--cols", "60", "--seed", "9",
     "--k-list", "2,5,8", "--solver", "bpdn", "--trials", "6", "--noise", "0.01"],
    ["separate", "--preset", "spikes-fourier", "--n", "32", "--seed", "9",
     "--nx", "2", "--ne", "2", "--trials", "6", "--noise", "0.01"],
    # one trial past a block, so that bpdn's two work items run on the pool
    ["phase", "--ensemble", "gaussian", "--rows", "8", "--cols", "16", "--seed", "9",
     "--k-list", "1,3", "--solver", "bpdn", "--trials", str(BLOCK_TRIALS + 1),
     "--noise", "0.01"],
    ["separate", "--preset", "spikes-fourier", "--n", "8", "--seed", "9",
     "--nx", "1", "--ne", "1", "--trials", str(BLOCK_TRIALS + 1), "--noise", "0.01"],
], ids=["verify", "phase", "separate", "phase-bpdn-noisy", "separate-noisy",
        "phase-bpdn-two-blocks", "separate-two-blocks"])
def test_thread_count_does_not_change_bytes(tmp_path, monkeypatch, base):
    # four cores, so that --threads 4 runs a pool on any machine
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(base + ["--threads", "1", "--out", str(a)]) == 0
    assert run_cli(base + ["--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_t_grid_sets_tail_points(tmp_path):
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "--ensemble", "gaussian", "--rows", "20", "--cols", "40",
                    "--k", "3", "--trials", "50", "--t-grid", "1,3",
                    "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["ratio_tail"]) == len(rep["spectral_tail"]) == 2


@pytest.mark.parametrize("grid", ["1,nan", "inf", "abc", "0.5,-1", ","])
def test_verify_bad_t_grid_is_usage_error_before_sampling(monkeypatch, capsys, grid):
    # a non-finite multiplier used to run every trial and then fail as
    # "non-finite float in report", exit 1
    def unreachable(*args, **kwargs):
        raise AssertionError("trials ran before the grid was checked")

    monkeypatch.setattr(cli, "sample_ratios", unreachable)
    assert run_cli(["verify", "--ensemble", "gaussian", "--rows", "10", "--cols", "12",
                    "--k", "2", "--trials", "5", "--t-grid", grid]) == 2
    assert "grid" in capsys.readouterr().err


def test_verify_csv_dumps(tmp_path):
    ratios = tmp_path / "r.csv"
    spectral = tmp_path / "s.csv"
    code = run_cli(["verify", "--ensemble", "gaussian", "--rows", "50",
                    "--cols", "100", "--seed", "4", "--k", "3",
                    "--trials", "150", "--out", str(tmp_path / "v.json"),
                    "--ratios-csv", str(ratios), "--spectral-csv", str(spectral)])
    assert code == 0
    assert ratios.read_text().splitlines()[0] == "value"
    assert len(ratios.read_text().strip().splitlines()) == 151
    assert len(spectral.read_text().strip().splitlines()) == 151


def test_phase_report_and_csv(tmp_path):
    out = tmp_path / "phase.json"
    csv = tmp_path / "phase.csv"
    code = run_cli(["phase", "--ensemble", "gaussian", "--rows", "100",
                    "--cols", "500", "--seed", "7", "--k-list", "2,10",
                    "--solver", "omp", "--trials", "50", "--out", str(out),
                    "--csv", str(csv)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert [p["k"] for p in rep["points"]] == [2, 10]
    assert rep["points"][0]["rate"] >= 0.9
    assert rep["thresholds"]["worst_case_floor"] <= 2
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "k,trials,successes,rate,ci_low,ci_high"
    assert len(lines) == 3


def test_phase_usage_errors(capsys):
    assert run_cli(["phase", "--ensemble", "gaussian", "--rows", "20",
                    "--cols", "30", "--k-list", "2,5", "--solver", "nosuch",
                    "--trials", "5"]) == 2
    assert run_cli(["phase", "--ensemble", "gaussian", "--rows", "20",
                    "--cols", "30", "--k-list", "2,5", "--solver", "omp",
                    "--trials", "0"]) == 2
    assert run_cli(["phase", "--ensemble", "gaussian", "--rows", "20",
                    "--cols", "30", "--k-list", "5,2", "--solver", "omp",
                    "--trials", "5"]) == 2
    capsys.readouterr()
    # a negative k is a usage error however the list is spelled; argparse
    # itself takes "-1,2" for a flag
    for spelling in (["--k-list", "-1"], ["--k-list=-1,2"], ["--k-list", "-1,2"],
                     ["--k-list", "0,-1"]):
        assert run_cli(["phase", "--ensemble", "gaussian", "--rows", "20", "--cols", "30",
                        "--solver", "omp", "--trials", "5"] + spelling) == 2
        assert "--k-list" in capsys.readouterr().err


def test_separate_preset(tmp_path):
    out = tmp_path / "sep.json"
    csv = tmp_path / "sep.csv"
    code = run_cli(["separate", "--preset", "spikes-fourier", "--n", "64",
                    "--nx", "3", "--ne", "3", "--trials", "5",
                    "--out", str(out), "--csv", str(csv)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["x_rel_error_mean"] <= 1e-3
    assert rep["e_rel_error_mean"] <= 1e-3
    assert rep["condition"]["ok"] is True
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 6


def test_separate_mismatched_dictionaries(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_matrix(generate(EnsembleSpec("gaussian", 16, 8, 0)), a, "csv")
    save_matrix(generate(EnsembleSpec("gaussian", 12, 8, 0)), b, "csv")
    code = run_cli(["separate", "--matrix-d", str(a), "--matrix-b", str(b),
                    "--nx", "2", "--ne", "2", "--trials", "2",
                    "--out", str(tmp_path / "sep.json")])
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["phase", "--ensemble", "gaussian", "--rows", "20", "--cols", "30",
      "--k-list", "1,x", "--solver", "omp"], "bad --k-list '1,x'"),
    (["separate", "--preset", "spikes-fourier", "--n", "8", "--nx", "-1", "--ne", "2"],
     "argument --nx: must be >= 0, got -1"),
    (["separate", "--preset", "spikes-fourier", "--n", "1", "--nx", "1", "--ne", "1"],
     "argument --n: must be >= 2, got 1"),
    (["audit", "--ensemble", "gaussian", "--rows", "5", "--cols", "4", "--bins", "513"],
     "argument --bins: must be <= 512, got 513"),
    (["audit", "--ensemble", "gaussian", "--rows", "0", "--cols", "4"],
     "argument --rows: must be >= 1, got 0"),
    (["audit", "--matrix", "m.csv", "--rows", "99", "--cols", "3"],
     "argument --rows: not allowed with argument --matrix"),
    (["verify", "--matrix", "m.csv", "--cols", "3", "--k", "2"],
     "argument --cols: not allowed with argument --matrix"),
    (["phase", "--matrix", "m.csv", "--rows", "4", "--k-list", "1", "--solver", "omp"],
     "argument --rows: not allowed with argument --matrix"),
], ids=["k-list", "nx", "n", "bins", "rows", "audit-matrix-rows", "verify-matrix-cols",
        "phase-matrix-rows"])
def test_usage_error_messages(capsys, argv, message):
    assert run_cli(argv) == 2
    assert message in capsys.readouterr().err


ENSEMBLE = ["--ensemble", "gaussian", "--rows", "20", "--cols", "30"]
PRESET = ["--preset", "spikes-fourier", "--n", "8", "--nx", "1", "--ne", "1"]


@pytest.mark.parametrize("argv, message", [
    # the checks that span flags, made by each command after parsing
    (["audit", "--ensemble", "gaussian", "--rows", "4"], "--ensemble needs --rows and --cols"),
    (["audit", "--ensemble", "partial_fourier", "--rows", "5", "--cols", "4"],
     "partial_fourier needs rows <= cols, got 5x4"),
    (["verify"] + ENSEMBLE + ["--k", "2", "--t-grid", "abc"],
     "bad grid 'abc', expected comma-separated numbers"),
    (["verify"] + ENSEMBLE + ["--k", "2", "--t-grid", "0,1"],
     "grid multipliers must be positive and finite"),
    (["phase"] + ENSEMBLE + ["--solver", "omp", "--k-list", "1,x"],
     "bad --k-list '1,x', expected comma-separated ints"),
    (["phase"] + ENSEMBLE + ["--solver", "omp", "--k-list", "0,-1"],
     "--k-list must be nonempty, >= 0 and strictly ascending: '0,-1'"),
    (["separate"] + PRESET + ["--matrix-d", "d.csv"],
     "give either --preset or --matrix-d and --matrix-b, not both"),
    (["separate", "--n", "8", "--nx", "1", "--ne", "1", "--matrix-d", "d.csv",
      "--matrix-b", "b.csv"], "--n needs --preset"),
    (["separate", "--preset", "spikes-fourier", "--nx", "1", "--ne", "1"], "--preset needs --n"),
    (["separate", "--nx", "1", "--ne", "1", "--matrix-d", "d.csv"],
     "need --preset or both --matrix-d and --matrix-b"),
    # argparse's own checks
    (["verify", "--k", "2"], "one of the arguments --matrix --ensemble is required"),
    (["phase", "--matrix", "m.csv", "--ensemble", "gaussian", "--k-list", "1",
      "--solver", "omp"], "argument --ensemble: not allowed with argument --matrix"),
    (["separate"] + PRESET[:-1] + ["-2"], "argument --ne: must be >= 0, got -2"),
    (["audit"] + ENSEMBLE + ["--threads", "2"], "unrecognized arguments: --threads 2"),
    (["audit", "--matrix", "m.csv", "--rows", "99", "--cols", "3"],
     "argument --rows: not allowed with argument --matrix"),
    (["verify", "--matrix", "m.csv", "--cols", "3", "--k", "2"],
     "argument --cols: not allowed with argument --matrix"),
    (["phase", "--matrix", "m.csv", "--rows", "4", "--k-list", "1", "--solver", "omp"],
     "argument --rows: not allowed with argument --matrix"),
], ids=["rows-cols", "shape", "grid", "grid-range", "k-list", "k-list-order", "preset-files",
        "n-files", "preset-n", "files", "no-source", "two-sources", "ne", "unknown",
        "audit-matrix-rows", "verify-matrix-cols", "phase-matrix-rows"])
def test_usage_errors_print_their_commands_usage(monkeypatch, capsys, argv, message):
    # argparse prints the usage of the parser whose error() is called; the
    # top-level one would list the four commands instead of this one's flags
    for name in ("generate", "load_matrix", "spikes_fourier_pair"):
        monkeypatch.setattr(cli, name, unreachable(name))
    assert run_cli(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: cohaudit {argv[0]} "), lines
    assert lines[-1] == f"cohaudit {argv[0]}: error: {message}"


def test_separate_usage_errors(capsys):
    assert run_cli(["separate", "--nx", "2", "--ne", "2", "--trials", "2"]) == 2
    assert run_cli(["separate", "--preset", "spikes-fourier", "--nx", "2",
                    "--ne", "2", "--trials", "2"]) == 2
    capsys.readouterr()


def test_source_flag_conflicts(tmp_path, capsys):
    path = tmp_path / "m.csv"
    save_matrix(MeasurementMatrix(np.eye(4)), path, "csv")
    assert run_cli(["audit", "--matrix", str(path), "--ensemble", "gaussian",
                    "--rows", "4", "--cols", "4"]) == 2
    assert run_cli(["audit"]) == 2
    assert run_cli(["audit", "--ensemble", "gaussian", "--rows", "4"]) == 2
    separate = ["separate", "--nx", "1", "--ne", "1", "--trials", "1"]
    missing = str(tmp_path / "missing.csv")
    assert run_cli(separate + ["--preset", "spikes-fourier", "--n", "8",
                               "--matrix-d", missing, "--matrix-b", missing]) == 2
    assert run_cli(separate + ["--preset", "spikes-fourier", "--n", "8",
                               "--matrix-b", str(path)]) == 2
    assert run_cli(separate + ["--n", "4", "--matrix-d", str(path),
                               "--matrix-b", str(path)]) == 2
    capsys.readouterr()


def test_missing_matrix_file_is_data_error(tmp_path):
    assert run_cli(["audit", "--matrix", str(tmp_path / "nope.csv")]) == 1


def test_malformed_matrix_file_is_data_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2,3\n1,0\n")
    assert run_cli(["audit", "--matrix", str(path)]) == 1


@pytest.mark.parametrize("flags", [["audit", "--matrix", "{bad}"],
                                   ["separate", "--matrix-d", "{bad}", "--matrix-b", "{good}"],
                                   ["separate", "--matrix-d", "{good}", "--matrix-b", "{bad}"]])
def test_non_utf8_csv_matrix_names_the_file(tmp_path, capsys, flags):
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_bytes(b"2,2\n1,\xff\n0,1\n")
    save_matrix(MeasurementMatrix(np.eye(2)), good, "csv")
    argv = [f.format(bad=bad, good=good) for f in flags]
    if argv[0] == "separate":
        argv += ["--nx", "1", "--ne", "1", "--trials", "1"]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text")
    assert "Traceback" not in err


@pytest.mark.parametrize("file_format", ["csv", "binary"])
@pytest.mark.parametrize("command", [["audit"], ["verify", "--k", "1", "--trials", "2"]])
def test_zero_column_matrix_file_is_data_error(tmp_path, capsys, file_format, command):
    path = tmp_path / "empty.mat"
    save_matrix(MeasurementMatrix(np.zeros((3, 0))), path, file_format)
    assert run_cli(command + ["--matrix", str(path)]) == 1
    assert capsys.readouterr().err == \
        "error: need at least two columns for a coherence profile\n"


def test_separate_sparsity_past_dictionary_is_data_error(capsys):
    code = run_cli(["separate", "--preset", "spikes-fourier", "--n", "4",
                    "--nx", "10", "--ne", "1", "--trials", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,value", [("--noise", "-1"), ("--noise", "inf")])
def test_separate_bad_noise_or_epsilon_is_data_error(flag, value, capsys):
    code = run_cli(["separate", "--preset", "spikes-fourier", "--n", "8", "--nx", "1",
                    "--ne", "1", "--trials", "2", flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert flag[2:] in err and "non-finite float in report" not in err


@pytest.mark.parametrize("solver", ["bpdn", "iht"])
def test_phase_infinite_noise_is_data_error(solver, capsys):
    code = run_cli(["phase", "--ensemble", "gaussian", "--rows", "20", "--cols", "30",
                    "--k-list", "2,5", "--solver", solver, "--trials", "3",
                    "--noise", "inf"])
    assert code == 1
    assert capsys.readouterr().err == "error: noise_sigma must be finite and >= 0, got inf\n"


def unreachable(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} ran before the bad input was rejected")
    return fail


@pytest.mark.parametrize("argv", [
    *(["phase", "--ensemble", "gaussian", "--rows", "10", "--cols", "20", "--k-list", "2",
       "--trials", "2", "--solver", solver] for solver in ("omp", "iht", "cosamp", "bpdn")),
    ["separate", "--preset", "spikes-fourier", "--n", "8", "--nx", "1", "--ne", "1",
     "--trials", "2"]], ids=["omp", "iht", "cosamp", "bpdn", "separate"])
def test_noise_that_overflows_the_observations_is_one_data_error(monkeypatch, capsys, argv):
    # finite noise so large that the noisy observations overflow is rejected
    # before any solve, with no overflow warning and no fitted curve
    for module, name in [(solvers, "_omp"), (solvers, "_iht"), (solvers, "_cosamp"),
                         (solvers, "bpdn"), (separation, "bpdn"), (solvers, "_homotopy")]:
        monkeypatch.setattr(module, name, unreachable(name))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(argv + ["--noise", "1e308"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: noise_sigma=1e+308 is too large: observations overflow\n"


@pytest.mark.parametrize("solver, k_list, limit", [("omp", "5,10,21", "min(rows, cols) = 20"),
                                                   ("cosamp", "5,51", "50")],
                         ids=["omp", "cosamp"])
def test_phase_k_past_solver_limit_fails_before_any_trial(monkeypatch, capsys, solver,
                                                          k_list, limit):
    # a k the solver cannot take used to fail only once that k's first
    # trial ran, after every trial of the smaller k
    monkeypatch.setattr(solvers, "_trials", unreachable("a trial"))
    monkeypatch.setattr(solvers, "recovery_trial", unreachable("a trial"))
    code = run_cli(["phase", "--ensemble", "gaussian", "--rows", "20", "--cols", "50",
                    "--k-list", k_list, "--solver", solver, "--trials", "50"])
    assert code == 1
    assert capsys.readouterr().err == \
        f"error: need 0 <= k <= {limit}, got {k_list.split(',')[-1]}\n"


def test_phase_without_coherence_pairs_fails_before_any_trial(monkeypatch, capsys):
    # a one-column matrix has no coherence profile, which used to fail only
    # after every trial had run
    monkeypatch.setattr(solvers, "_trials", unreachable("a trial"))
    monkeypatch.setattr(solvers, "recovery_trial", unreachable("a trial"))
    code = run_cli(["phase", "--ensemble", "gaussian", "--rows", "50", "--cols", "1",
                    "--k-list", "0,1", "--solver", "bpdn", "--trials", "3000"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: need at least two columns for a coherence profile\n"


def test_phase_fresh_matrix_flag_is_a_usage_error(monkeypatch, capsys):
    # phase runs every trial on the one matrix its thresholds describe
    monkeypatch.setattr(solvers, "_trials", unreachable("a trial"))
    code = run_cli(["phase", "--ensemble", "gaussian", "--rows", "20", "--cols", "30",
                    "--k-list", "2", "--solver", "omp", "--trials", "5", "--fresh-matrix"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --fresh-matrix" in err
    assert "Traceback" not in err


def test_separate_epsilon_flag_is_a_usage_error(monkeypatch, capsys):
    # separate's residual budget follows --noise, as phase's does
    monkeypatch.setattr(cli, "separation_trials", unreachable("a trial"))
    code = run_cli(["separate", "--preset", "spikes-fourier", "--n", "8", "--nx", "1",
                    "--ne", "1", "--noise", "0.01", "--epsilon", "0.1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --epsilon" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["phase", "--ensemble", "gaussian", "--rows", "20", "--cols", "30", "--k-list", "2",
     "--solver", "omp", "--noise", "-1"],
    ["phase", "--ensemble", "gaussian", "--rows", "20", "--cols", "30", "--k-list", "2",
     "--solver", "bpdn", "--noise", "nan"],
    ["separate", "--preset", "spikes-fourier", "--n", "8", "--nx", "1", "--ne", "1",
     "--noise", "-1"],
    ["separate", "--preset", "spikes-fourier", "--n", "8", "--nx", "1", "--ne", "1",
     "--noise", "nan"],
    ["separate", "--preset", "spikes-fourier", "--n", "8", "--nx", "1", "--ne", "1",
     "--noise", "inf"],
])
def test_bad_noise_fails_before_any_work(monkeypatch, capsys, argv):
    for name in ("generate", "spikes_fourier_pair", "separation_feasibility"):
        monkeypatch.setattr(cli, name, unreachable(name))
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: noise_sigma must be finite and >= 0, got {float(argv[-1])}\n"


FUZZ_VALUES = st.sampled_from(["-1", "0", "0.01", "nan", "inf"])


@st.composite
def cli_argv(draw):
    """A tiny-size invocation of one of the four subcommands, valid or not."""
    command = draw(st.sampled_from(["audit", "verify", "phase", "separate"]))
    trials = str(draw(st.integers(1, 4)))
    seed = str(draw(st.integers(0, 3)))
    if command == "separate":
        n = draw(st.integers(1, 12))
        k = st.integers(-1, n + 2)
        return ["separate", "--preset", "spikes-fourier", "--n", str(n),
                "--nx", str(draw(k)), "--ne", str(draw(k)), "--trials", trials,
                "--noise", draw(FUZZ_VALUES), "--seed", seed]
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    argv = [command, "--ensemble", draw(st.sampled_from(ENSEMBLES)), "--rows", str(rows),
            "--cols", str(cols), "--seed", seed]
    k = st.integers(-1, cols + 2)
    if command == "verify":
        argv += ["--k", str(draw(k)), "--trials", trials]
    elif command == "phase":
        k_list = sorted(set(draw(st.lists(k, min_size=1, max_size=4))))
        argv += ["--k-list", ",".join(map(str, k_list)), "--trials", trials,
                 "--solver", draw(st.sampled_from(SOLVERS)), "--noise", draw(FUZZ_VALUES)]
    return argv


@settings(max_examples=40, deadline=None)
@given(argv=cli_argv())
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(f"usage: cohaudit {argv[0]} "), (argv, err.getvalue())


FINITE_ENTRIES = st.floats(-4.0, 4.0)
ANY_ENTRIES = FINITE_ENTRIES | st.sampled_from([0.0, math.nan, math.inf, -math.inf])


@st.composite
def matrix_file(draw):
    """Bytes of a CSV or binary matrix file, well formed or not."""
    csv = draw(st.booleans())
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    entries = draw(st.sampled_from([FINITE_ENTRIES, ANY_ENTRIES]))
    values = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    # the header may disagree with the payload; only CSV can state negative sizes
    side = st.integers(-2 if csv else 0, 5)
    head = draw(st.one_of(st.just((rows, cols)), st.tuples(side, side)))
    if csv:
        lines = ["%d,%d" % head] + [",".join("%.17g" % v for v in values[r * cols:][:cols])
                                    for r in range(rows)]
        blob = ("\n".join(lines) + "\n").encode()
    else:
        blob = b"CAMX" + struct.pack("<II", *head) + np.array(values, "<f8").tobytes()
    return blob[:len(blob) - draw(st.one_of(st.just(0), st.integers(1, 12)))]


@settings(max_examples=60, deadline=None)
@given(blob=matrix_file(), command=st.sampled_from(["audit", "verify", "phase", "separate"]),
       k=st.integers(0, 3), solver=st.sampled_from(SOLVERS))
def test_cli_matrix_file_fuzz_exit_codes(blob, command, k, solver):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.mat")
        Path(path).write_bytes(blob)
        argv = {"audit": ["audit", "--matrix", path],
                "verify": ["verify", "--matrix", path, "--k", str(k), "--trials", "2"],
                "phase": ["phase", "--matrix", path, "--k-list", str(k), "--trials", "1",
                          "--solver", solver],
                "separate": ["separate", "--matrix-d", path, "--matrix-b", path,
                             "--nx", str(k), "--ne", str(k), "--trials", "1"]}[command]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)
    assert code in (0, 1, 2, 3), (argv, blob, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_memory_error_is_data_error(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "coherence_sample", exhausted)
    assert run_cli(["audit", "--ensemble", "gaussian", "--rows", "10",
                    "--cols", "12"]) == 1
    err = capsys.readouterr().err
    assert err == "error: MemoryError\n"
    assert "Traceback" not in err


def test_counts_below_one_are_usage_errors(capsys):
    audit = ["audit", "--ensemble", "gaussian", "--rows", "10", "--cols", "12"]
    assert run_cli(audit + ["--bins", "0"]) == 2
    assert run_cli(audit + ["--threads", "0"]) == 2
    assert run_cli(["verify", "--ensemble", "gaussian", "--rows", "10", "--cols", "12",
                    "--k", "2", "--trials", "5", "--threads", "-3"]) == 2
    err = capsys.readouterr().err
    assert "argument --bins: must be >= 1, got 0" in err
    assert "argument --threads: must be >= 1, got -3" in err


@pytest.mark.parametrize("flag, value", [("--seed", "x"), ("--bins", "1.5"), ("--trials", "x"),
                                         ("--spectral-trials", "2.0"), ("--threads", "two"),
                                         ("--rows", "x"), ("--cols", "1e3"), ("--k", "x"),
                                         ("--n", "8.0"), ("--nx", "x"), ("--ne", "one")])
def test_non_integer_counts_are_usage_errors_naming_the_flag(capsys, flag, value):
    # argparse would otherwise print its generic "invalid int value", or the
    # name of the private type function
    if flag in ("--n", "--nx", "--ne"):
        argv = ["separate", "--preset", "spikes-fourier", "--n", "8", "--nx", "1", "--ne", "1"]
    else:
        command = "audit" if flag == "--bins" else "verify"
        argv = [command, "--ensemble", "gaussian", "--rows", "10", "--cols", "12"] \
            + (["--k", "2"] if command == "verify" else [])
    assert run_cli(argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected an integer, got {value!r}\n" in err
    assert "invalid _" not in err


def test_bins_up_to_the_histogram_cap(capsys):
    # above the cap (see test_usage_error_messages) the flag, not the input,
    # would set the report size, memory and time
    assert run_cli(["audit", "--ensemble", "gaussian", "--rows", "5", "--cols", "4",
                    "--bins", "512"]) == 0
    assert len(json.loads(capsys.readouterr().out)["profile"]["histogram"]) == 512


def test_audit_of_pairs_a_few_ulps_apart_names_the_bins_remedy(tmp_path, capsys):
    # 780 pairs within a few ulps of 1: ceil(sqrt(780)) = 28 bins of that
    # range have no finite width, but one bin has
    col = np.array([0.5, -0.3, 0.8, 0.1, 0.4])
    data = col[:, None] + 1e-15 * np.random.default_rng(0).standard_normal((5, 40))
    path = tmp_path / "near.camx"
    save_matrix(cohaudit.normalize_columns(MeasurementMatrix(data)), path)
    assert run_cli(["audit", "--matrix", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: the pairs span \[0\.99999999\d*, 1\.0\d*\], too narrow for "
                        r"28 finite-sized bins; pass a smaller --bins \(1 always fits\)\n", err)
    assert run_cli(["audit", "--matrix", str(path), "--bins", "1"]) == 0
    prof = json.loads(capsys.readouterr().out)["profile"]
    assert [c for _, _, c in prof["histogram"]] == [780] == [prof["sample_count"]]


@pytest.mark.parametrize("argv", [
    ["separate", "--preset", "spikes-fourier", "--n", "16", "--nx", "1", "--ne", "1",
     "--seed", "-5"],
    ["verify", "--matrix", "{matrix}", "--k", "2", "--trials", "5", "--seed", "-1"],
    ["phase", "--matrix", "{matrix}", "--k-list", "2", "--solver", "omp", "--trials", "5",
     "--seed", str(2**64)],
    ["audit", "--ensemble", "gaussian", "--rows", "5", "--cols", "8", "--seed", str(2**64)],
], ids=["preset", "matrix", "matrix-2^64", "ensemble-2^64"])
def test_seed_outside_the_stream_domain_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    # every subcommand takes --seed from [0, 2^64), as the keyed streams do
    path = tmp_path / "m.csv"
    save_matrix(generate(EnsembleSpec("gaussian", 8, 12, 0)), path, "csv")
    for name in ("generate", "load_matrix", "spikes_fourier_pair"):
        monkeypatch.setattr(cli, name, unreachable(name))
    assert run_cli([a.format(matrix=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert f"argument --seed: seed must be in [0, 2^64), got {argv[-1]}\n" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("count", ["0", "-5"])
def test_spectral_trials_below_one_is_usage_error(capsys, count):
    # 0 used to fall back to --trials, and -5 ended as data error 1
    assert run_cli(["verify", "--ensemble", "gaussian", "--rows", "10", "--cols", "12",
                    "--k", "2", "--trials", "5", "--spectral-trials", count]) == 2
    assert f"argument --spectral-trials: must be >= 1, got {count}" in capsys.readouterr().err


def test_library_value_error_is_data_error(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ValueError("not a cohaudit error")

    monkeypatch.setattr(cli, "profile", fail)
    assert run_cli(["audit", "--ensemble", "gaussian", "--rows", "10",
                    "--cols", "12"]) == 1
    assert capsys.readouterr().err == "error: not a cohaudit error\n"


def test_unwritable_report_path_is_data_error(tmp_path, capsys):
    out = tmp_path / "missing" / "audit.json"
    assert run_cli(["audit", "--ensemble", "gaussian", "--rows", "10",
                    "--cols", "12", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def read_csv(path):
    """Header names and rows of floats of a CSV dump."""
    header, *rows = path.read_text().splitlines()
    return header.split(","), [[float(v) for v in row.split(",")] for row in rows]


def test_csv_dumps_agree_with_reports(tmp_path):
    # Reports and CSVs both print floats at %.12g, so parsed values match
    # exactly; a wrong CSV format string shows up as a mismatch.
    def report(*argv):
        out = tmp_path / "report.json"
        assert run_cli(list(argv) + ["--out", str(out)]) == 0
        return json.loads(out.read_text())

    csv = tmp_path / "dump.csv"
    rep = report("audit", "--ensemble", "gaussian", "--rows", "30", "--cols", "40",
                 "--seed", "1", "--bins", "12", "--hist-csv", str(csv))
    header, rows = read_csv(csv)
    assert header == ["bin_lower", "bin_upper", "count"]
    assert rows == rep["profile"]["histogram"]

    rep = report("phase", "--ensemble", "gaussian", "--rows", "40", "--cols", "80",
                 "--seed", "3", "--k-list", "2,8", "--solver", "omp",
                 "--trials", "12", "--csv", str(csv))
    header, rows = read_csv(csv)
    assert rows == [[p[name] for name in header] for p in rep["points"]]

    rep = report("separate", "--preset", "spikes-fourier", "--n", "32", "--nx", "2",
                 "--ne", "3", "--trials", "4", "--noise", "0.01",
                 "--csv", str(csv))
    header, rows = read_csv(csv)
    cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    assert cols["trial"] == [0.0, 1.0, 2.0, 3.0]
    for column, rate in (("x_support_ok", "x_support_rate"),
                         ("e_support_ok", "e_support_rate"),
                         ("converged", "converged_rate")):
        assert float("%.12g" % (sum(cols[column]) / len(rows))) == rep[rate]
    for name in ("x_rel_error", "e_rel_error"):
        assert max(cols[name]) == rep[name + "_max"]

    ratios, spectral = tmp_path / "r.csv", tmp_path / "s.csv"
    rep = report("verify", "--ensemble", "gaussian", "--rows", "40", "--cols", "80",
                 "--seed", "5", "--k", "3", "--trials", "120", "--spectral-trials", "90",
                 "--ratios-csv", str(ratios), "--spectral-csv", str(spectral))
    header, rows = read_csv(ratios)
    assert header == ["value"] and len(rows) == rep["trials"] == 120
    assert np.mean(rows) == pytest.approx(rep["ratio_mean"], rel=1e-10)
    header, rows = read_csv(spectral)
    assert header == ["value"] and len(rows) == rep["spectral_trials"] == 90
    assert max(rows) == [rep["spectral_max"]]


def declared_scripts(path=PYPROJECT):
    """The ``[project.scripts]`` table of ``path`` as ``{name: target}``.

    Reads only that table of plain string values, so the suite needs no
    ``tomllib`` (absent on Python 3.10).
    """
    scripts, in_table = {}, False
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            name, value = (part.strip().strip("\"'") for part in line.split("=", 1))
            scripts[name] = value
    return scripts


def test_console_script_entry_point(tmp_path):
    """The declared ``cohaudit`` script runs ``audit`` in its own process.

    The target is started the way pip's generated wrapper starts it, through
    ``sys.executable``, so no installed ``cohaudit`` executable is needed and
    the child runs the same copy of the package as this test.
    """
    target = declared_scripts().get("cohaudit")
    assert target is not None, f"no cohaudit entry in [project.scripts] of {PYPROJECT}"
    module, _, attr = target.partition(":")
    assert attr.isidentifier() and all(
        part.isidentifier() for part in module.split(".")), target
    assert callable(getattr(importlib.import_module(module), attr))

    try:
        dist = importlib.metadata.distribution("cohaudit")
    except importlib.metadata.PackageNotFoundError:
        dist = None
    if dist is not None:
        installed = {ep.name: ep.value for ep in dist.entry_points
                     if ep.group == "console_scripts"}
        assert installed.get("cohaudit") == target

    src = str(Path(cohaudit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = tmp_path / "audit.json"
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())",
         "audit", "--ensemble", "gaussian", "--rows", "30",
         "--cols", "40", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["command"] == "audit"


def test_readme_cli_section_names_real_commands_and_flags():
    """README from ``## CLI`` on: its commands parse and its backticked flags exist."""
    text = README.read_text()
    section = text[text.index("\n## CLI\n"):]
    parser = cli.build_parser()
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    commands = [line.split()[1:] for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("cohaudit ")]
    assert commands
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: cohaudit {' '.join(argv)}")
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {flag for sub in subs.choices.values() for action in sub._actions
             for flag in action.option_strings}
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    named = {flag for span in re.findall(r"`([^`]+)`", prose)
             for flag in re.findall(r"--[a-z][a-z-]*", span)}
    assert named and named <= known, sorted(named - known)
