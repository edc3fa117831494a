"""Unit tests for the command-line front end."""

import hashlib
import json
import sys

import numpy as np
import pytest

from sparsenlms.cli import (
    _summarize_mse,
    build_config,
    entry_point,
    parse_and_dispatch,
    parse_invocation,
)
from sparsenlms.harness import (
    MseCurve,
    run_estimation_trial,
    write_mse_csv,
    write_stepsize_csv,
)


def run_cli(*args):
    return parse_and_dispatch(list(args))


def small_overrides():
    return [
        "--override", "algorithms=[\"iss_nlms\"]",
        "--override", "snr_db=10",
        "--override", "max_iterations=50",
        "--trials", "2",
    ]


def test_dump_config_round_trips(tmp_path, capsys):
    assert run_cli("single-run", "--dump-config", "--override", "sparsity=4") == 0
    first = capsys.readouterr().out
    config_path = tmp_path / "config.json"
    config_path.write_text(first)
    assert run_cli("single-run", "--config", str(config_path), "--dump-config") == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["sparsity"] == 4


@pytest.mark.parametrize(
    "argv, status",
    [(["single-run", "--dump-config"], 0), (["single-run", "--override", "mu=-1"], 2)],
)
def test_entry_point_exits_with_dispatch_status(argv, status, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["sparsenlms", *argv])
    with pytest.raises(SystemExit) as exc:
        entry_point()
    assert exc.value.code == status


def test_seed_and_trials_flags_apply_last(capsys):
    assert run_cli(
        "single-run", "--dump-config",
        "--override", "rng_seed=1", "--override", "num_trials=7",
        "--seed", "42", "--trials", "3",
    ) == 0
    config = json.loads(capsys.readouterr().out)
    assert config["rng_seed"] == 42
    assert config["num_trials"] == 3


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("mse-convergence", "--out", str(dir_a), "--seed", "7",
                   *small_overrides()) == 0
    assert run_cli("mse-convergence", "--out", str(dir_b), "--seed", "7",
                   *small_overrides()) == 0
    capsys.readouterr()
    files_a = sorted(p.name for p in dir_a.iterdir())
    files_b = sorted(p.name for p in dir_b.iterdir())
    assert files_a == files_b
    assert "manifest.json" in files_a
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_unknown_override_key_is_rejected_by_name(tmp_path, capsys):
    code = run_cli("single-run", "--out", str(tmp_path),
                   "--override", "not_a_knob=1")
    captured = capsys.readouterr()
    assert code == 2
    assert "not_a_knob" in captured.err


def test_malformed_override_is_rejected(tmp_path, capsys):
    code = run_cli("single-run", "--out", str(tmp_path), "--override", "justakey")
    captured = capsys.readouterr()
    assert code == 2
    assert "justakey" in captured.err


def test_invalid_value_is_rejected(tmp_path, capsys):
    code = run_cli("single-run", "--out", str(tmp_path),
                   "--override", "sparsity=0")
    captured = capsys.readouterr()
    assert code == 2
    assert "sparsity" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["single-run", "--override", "mu=-1", "--override", "algorithms=iss_nlms"],
        ["single-run", "--override", "beta=5", "--override", "algorithms=vss_nlms"],
        ["ber-sweep", "--override", "cp_length=2"],
        ["single-run", "--dump-config", "--override", "mu=-1"],
    ],
)
def test_invalid_config_is_rejected_before_running(argv, tmp_path, capsys):
    code = run_cli(*argv, "--out", str(tmp_path / "out"))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_output_file_naming(tmp_path, capsys):
    assert run_cli(
        "single-run", "--out", str(tmp_path),
        "--override", "algorithms=vss_nlms",
        "--override", "sparsity=4",
        "--override", "snr_db=20",
        "--override", "max_iterations=40",
    ) == 0
    capsys.readouterr()
    assert (tmp_path / "single-run_vss_nlms_T4_SNR20.csv").exists()


def test_ber_sweep_emits_one_csv_per_detector(tmp_path, capsys):
    assert run_cli(
        "ber-sweep", "--out", str(tmp_path),
        "--override", "qam_orders=[16]",
        "--override", "algorithms=[\"vss_nlms\"]",
        "--override", "n_t=2", "--override", "n_r=2",
        "--override", "tap_length=4", "--override", "cp_length=4",
        "--override", "subcarrier_count=16",
        "--override", "esn0_range_db=[15]",
        "--override", "ber_min_bits=1000",
        "--override", "ber_min_errors=0",
        "--override", "ber_num_channels=1",
        "--override", "max_iterations=100",
    ) == 0
    capsys.readouterr()
    csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert csvs == [
        "ber-sweep_true_channel_T1_SNR10_QAM16.csv",
        "ber-sweep_vss_nlms_T1_SNR10_QAM16.csv",
    ]


@pytest.mark.parametrize("stop_epsilon", [0.0, 1e-5])
def test_single_run_and_trace_match_batch_of_one(stop_epsilon, tmp_path, capsys):
    # Both commands run the 12 rows of trial 0 as one batch; each file
    # must equal the one written from that pair's own batch-of-one run.
    options = [
        "--seed", "99", "--trials", "5",
        "--override", "max_iterations=1000",
        "--override", f"stop_epsilon={stop_epsilon}",
    ]
    config = build_config(parse_invocation(["single-run", *options]))
    assert len(config.algorithms) * len(config.snr_db) == 12
    for command in ("single-run", "trace-stepsize"):
        assert run_cli(command, "--out", str(tmp_path / command), *options) == 0
    capsys.readouterr()
    stopped = set()
    for algorithm in config.algorithms:
        for snr in config.snr_db:
            alone = run_estimation_trial(config, 0, algorithm, snr)
            stopped.add(alone.iterations_run)
            suffix = f"_{algorithm}_T1_SNR{snr:g}.csv"
            expected = tmp_path / "expected.csv"
            write_mse_csv(expected, MseCurve(
                values=alone.squared_error, algorithm=algorithm, snr_db=snr,
                sparsity=config.sparsity, num_trials=1,
                rng_seed=config.rng_seed, diverged=int(alone.diverged),
            ))
            actual = tmp_path / "single-run" / f"single-run{suffix}"
            assert actual.read_bytes() == expected.read_bytes()
            write_stepsize_csv(expected, alone.step_trace, algorithm, snr,
                               config.sparsity, config.rng_seed)
            actual = tmp_path / "trace-stepsize" / f"trace-stepsize{suffix}"
            assert actual.read_bytes() == expected.read_bytes()
    if stop_epsilon:
        # Rows freeze at different iterations, in and after the first chunk.
        assert len(stopped) >= 3 and min(stopped) < 100 < max(stopped) < 1000
    else:
        assert stopped == {1000}


def test_manifest_records_checksums(tmp_path, capsys):
    assert run_cli("trace-stepsize", "--out", str(tmp_path),
                   *small_overrides()) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "trace-stepsize"
    assert manifest["config"]["num_trials"] == 2
    assert manifest["artifacts"]
    for name, digest in manifest["artifacts"].items():
        payload = (tmp_path / name).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == digest


def test_summary_lines_are_printed(tmp_path, capsys):
    assert run_cli("mse-convergence", "--out", str(tmp_path),
                   *small_overrides()) == 0
    captured = capsys.readouterr()
    assert "mse-convergence algorithm=iss_nlms snr_db=10" in captured.out
    assert "final-1% MSE=" in captured.out
    assert "diverged=0/2" in captured.out
    assert "warning" not in captured.err


def test_divergence_is_reported(tmp_path, capsys):
    # An adaptive step pinned near 2 at -20 dB: the error ends far above
    # the all-zero estimator's n_r = 4.  The run still succeeds and
    # writes its usual files.
    code = run_cli(
        "single-run", "--out", str(tmp_path),
        "--override", "snr_db=-20", "--override", "c_threshold=1e-9",
        "--override", "mu_max=1.99", "--override", "algorithms=vss_nlms",
        "--override", "max_iterations=100",
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "diverged=1/1" in captured.out
    assert captured.err.startswith("warning: single-run algorithm=vss_nlms")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.json", "single-run_vss_nlms_T1_SNR-20.csv",
    ]


def test_non_finite_tail_prints_nan_db(capsys):
    curve = MseCurve(
        values=np.array([1.0, np.inf]), algorithm="vss_nlms", snr_db=10.0,
        sparsity=1, num_trials=1, rng_seed=0, diverged=1,
    )
    _summarize_mse("single-run", curve)
    assert "(nan dB) diverged=1/1" in capsys.readouterr().out
