"""Unit tests for the command-line front end and its CSV output."""

import csv
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsenlms import cli
from sparsenlms.cli import (
    _summarize_mse,
    build_config,
    entry_point,
    parse_and_dispatch,
    parse_invocation,
)
from sparsenlms.harness import (
    MseCurve,
    run_ber_sweep,
    run_monte_carlo_mse,
    steady_state_mean,
)


def run_cli(*args):
    return parse_and_dispatch(list(args))


REPEATED_KEY_CONFIG = "repeated-key.json"
NON_UTF8_CONFIG = "non-utf8.json"

# Two QAM orders at two E_s/N_0 points, small enough to run in a second.
SMALL_BER_SWEEP = [
    "ber-sweep",
    "--override", "algorithms=vss_nlms",
    "--override", "n_t=2", "--override", "n_r=2",
    "--override", "tap_length=4", "--override", "cp_length=4",
    "--override", "subcarrier_count=16",
    "--override", "qam_orders=[16, 64]",
    "--override", "esn0_range_db=[15, 30]",
    "--override", "ber_num_channels=2",
    "--override", "ber_min_errors=0", "--override", "ber_min_bits=2000",
    "--override", "ber_max_frames=100", "--override", "max_iterations=300",
    "--seed", "55",
]


def small_overrides():
    return [
        "--override", "algorithms=[\"iss_nlms\"]",
        "--override", "snr_db=10",
        "--override", "max_iterations=50",
        "--trials", "2",
    ]


def test_dump_config_round_trips(tmp_path, capsys):
    cases = [
        (["sparsity=4"], {"sparsity": 4}),
        # A scalar where a list is stored, a c_by_snr table and a rho weight.
        (
            ["snr_db=20", 'c_by_snr={"10": 1e-5}', "rho_za=0.6"],
            {"snr_db": [20.0], "c_by_snr": {"10.0": 1e-5}, "rho_za": 0.6},
        ),
    ]
    for overrides, expected in cases:
        argv = [arg for item in overrides for arg in ("--override", item)]
        assert run_cli("single-run", "--dump-config", *argv) == 0
        first = capsys.readouterr().out
        config_path = tmp_path / "config.json"
        config_path.write_text(first)
        assert run_cli("single-run", "--config", str(config_path), "--dump-config") == 0
        second = capsys.readouterr().out
        assert first == second
        dumped = json.loads(first)
        assert {key: dumped[key] for key in expected} == expected


@pytest.mark.parametrize(
    "argv, status",
    [(["single-run", "--dump-config"], 0), (["single-run", "--override", "mu=-1"], 2)],
)
def test_entry_point_exits_with_dispatch_status(argv, status, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["sparsenlms", *argv])
    with pytest.raises(SystemExit) as exc:
        entry_point()
    assert exc.value.code == status


def test_module_invocation_runs_the_cli():
    # ``python -m sparsenlms`` runs the same entry point as the script.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "sparsenlms", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    dumped = run("single-run", "--dump-config")
    assert dumped.returncode == 0
    assert json.loads(dumped.stdout)["max_iterations"] == 5000
    rejected = run("single-run", "--override", "mu=-1")
    assert rejected.returncode == 2
    assert rejected.stdout == ""
    assert rejected.stderr.startswith("error: ")


def test_seed_and_trials_flags_apply_last(capsys):
    assert run_cli(
        "mse-convergence", "--dump-config",
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


@pytest.mark.parametrize("key", ["not_a_knob", "stop_epsilon"])
def test_unknown_override_key_is_rejected_by_name(key, tmp_path, capsys):
    code = run_cli("single-run", "--out", str(tmp_path), "--override", f"{key}=0")
    captured = capsys.readouterr()
    assert code == 2
    assert key in captured.err


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
        # Integer fields take integers only, never a bool.
        ["single-run", "--override", "max_iterations=1.5"],
        ["single-run", "--override", "n_r=2.5"],
        ["single-run", "--override", "tap_length=1e400"],
        ["ber-sweep", "--override", "ber_max_frames=2.5"],
        ["single-run", "--override", "num_trials=true"],
        ["single-run", "--override", "c_by_snr=5"],
        # +inf dB is the noiseless case; NaN and -inf have no noise level.
        ["single-run", "--override", "snr_db=NaN"],
        ["single-run", "--override", "snr_db=[10, -Infinity]"],
        ["ber-sweep", "--override", "esn0_range_db=[12, NaN]"],
        ["ber-sweep", "--override", "ber_training_snr_db=-Infinity"],
        # NaN fails every range check.
        ["single-run", "--override", "mu=NaN", "--override", "algorithms=iss_za_nlms"],
        ["single-run", "--override", "rho_za=NaN"],
        ["single-run", "--override", "c_threshold=NaN"],
        # QAM orders are integers, never truncated.
        ["ber-sweep", "--override", "qam_orders=[16.7]"],
        # Float fields, SNR lists and c_by_snr values take numbers, never a
        # bool or a string.
        ["single-run", "--override", "mu=true"],
        ["single-run", "--override", "rho_za=false"],
        ["single-run", "--override", "ber_training_snr_db=true"],
        ["single-run", "--override", "snr_db=[true]"],
        ["single-run", "--override", 'snr_db=["10"]'],
        ["single-run", "--override", 'c_by_snr={"10": true}'],
        ["single-run", "--override", "algorithms=5"],
        ["ber-sweep", "--override", "qam_orders=[]"],
        ["single-run", "--override", "rho_za=-1"],
        # mu and epsilon_rza are checked under their own names, not as the
        # penalty strengths derived from them.
        ["single-run", "--override", "mu=-1", "--override", "algorithms=vss_za_nlms"],
        ["single-run", "--override", "epsilon_rza=-1"],
        # Two keys that name one SNR.
        ["single-run", "--override", 'c_by_snr={"10": 1e-5, "10.0": 2e-5}'],
        # One key twice in a JSON object, which json would collapse to the
        # last value: in an override and in a config file.
        ["single-run", "--override", 'c_by_snr={"10": 1e-5, "10": 2e-5}'],
        ["single-run", "--config", REPEATED_KEY_CONFIG],
        # A config file that is not UTF-8.
        ["single-run", "--dump-config", "--config", NON_UTF8_CONFIG],
        # The smallest channel is one transmit antenna and one tap.
        ["single-run", "--override", "n_t=0"],
        ["single-run", "--override", "tap_length=0"],
    ],
)
def test_invalid_config_is_rejected_before_running(argv, tmp_path, capsys, monkeypatch):
    # Config files named by a case are read from the working directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / REPEATED_KEY_CONFIG).write_text('{"mu": 0.1, "mu": 0.3}')
    (tmp_path / NON_UTF8_CONFIG).write_bytes(b'\xff{"mu": 0.1}')
    code = run_cli(*argv, "--out", str(tmp_path / "out"))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        # Accepted before whenever only fixed-step variants ran.
        (["single-run", "--override", "beta=1.5", "--override", "algorithms=iss_nlms"],
         "beta"),
        (["single-run", "--override", "mu_max=2.5", "--override", "algorithms=iss_nlms"],
         "mu_max"),
        # Infinite penalty inputs, which ran to an all-NaN curve or were
        # named by the strength derived from them.
        (["single-run", "--override", "rho_za=Infinity",
          "--override", "algorithms=vss_za_nlms", "--override", "snr_db=20"], "rho_za"),
        (["single-run", "--override", "epsilon_rza=Infinity",
          "--override", "algorithms=vss_rza_nlms", "--override", "snr_db=20"],
         "epsilon_rza"),
        (["single-run", "--override", "mu=Infinity", "--override", "algorithms=iss_nlms"],
         "mu"),
        (["single-run", "--override", "rho_za=Infinity", "--override", "snr_db=Infinity"],
         "rho_za"),
        # SNRs whose noise level overflows a float.
        (["single-run", "--dump-config", "--override", "snr_db=-3100"], "snr_db"),
        (["ber-sweep", "--override", "esn0_range_db=[-3100]"], "esn0_range_db"),
        (["ber-sweep", "--override", "ber_training_snr_db=-3100"], "ber_training_snr_db"),
        # An infinite threshold pins the adaptive step at 0: a flat curve.
        (["single-run", "--override", "c_threshold=Infinity",
          "--override", "algorithms=vss_nlms", "--override", "snr_db=20",
          "--override", "max_iterations=400"], "c_threshold"),
        (["single-run", "--override", 'c_by_snr={"20": Infinity}',
          "--override", "algorithms=vss_nlms", "--override", "snr_db=20",
          "--override", "max_iterations=400"], "c_by_snr"),
    ],
)
def test_invalid_filter_input_is_named(argv, field, tmp_path, capsys):
    code = run_cli(*argv, "--out", str(tmp_path / "out"))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {field} ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_unknown_subcommand_lists_the_runners_in_order(capsys):
    assert cli.parse_and_dispatch(["bogus"]) == 2
    captured = capsys.readouterr()
    assert "{mse-convergence,ber-sweep,single-run,trace-stepsize}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, name, field",
    [
        # File names print the SNR with {:g}: 10.000001 becomes 10.
        (
            ["mse-convergence", "--trials", "1", "--override", "max_iterations=50",
             "--override", "snr_db=[10, 10.000001]"],
            "mse-convergence_iss_nlms_T1_SNR10.csv",
            "snr_db",
        ),
        (
            ["ber-sweep", "--override", "qam_orders=[16,16]",
             "--override", "ber_num_channels=1", "--override", "max_iterations=50",
             "--override", "esn0_range_db=[20]", "--override", "ber_max_frames=2"],
            "ber-sweep_true_channel_T1_SNR10_QAM16.csv",
            "qam_orders",
        ),
        (
            ["trace-stepsize", "--override", "max_iterations=50",
             "--override", 'algorithms=["vss_nlms","vss_nlms"]'],
            "trace-stepsize_vss_nlms_T1_SNR10.csv",
            "algorithms",
        ),
    ],
    ids=["mse-snr", "ber-order", "trace-algorithm"],
)
def test_curves_sharing_a_file_are_rejected(argv, name, field, tmp_path, capsys):
    # Otherwise the later curve would silently overwrite the earlier one.
    code = run_cli(*argv, "--out", str(tmp_path / "out"))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert name in captured.err
    assert f"{field} [" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["--override", 'c_by_snr={"10": 1e-5, "10": 2e-5}'], "'10'"),
        (["--override", 'c_by_snr={"20": 1e-5, "10": {"a": 1, "a": 2}}'], "'a'"),
        (["--config", REPEATED_KEY_CONFIG], "'mu'"),
    ],
)
def test_repeated_json_key_is_named(argv, key, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / REPEATED_KEY_CONFIG).write_text('{"mu": 0.1, "mu": 0.3}')
    assert run_cli("single-run", "--dump-config", *argv) == 2
    assert f"repeats key {key}" in capsys.readouterr().err


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


def test_single_run_and_trace_match_batch_of_one(tmp_path, capsys):
    # Both commands run the 12 rows of trial 0 as one batch; each file
    # must equal the one a run of that pair alone, a batch of one, writes.
    options = ["--seed", "99", "--trials", "5", "--override", "max_iterations=1000"]
    config = build_config(parse_invocation(["single-run", *options]))
    assert len(config.algorithms) * len(config.snr_db) == 12
    alone = tmp_path / "alone"
    for command in ("single-run", "trace-stepsize"):
        assert run_cli(command, "--out", str(tmp_path / command), *options) == 0
        for algorithm in config.algorithms:
            for snr in config.snr_db:
                assert run_cli(
                    command, "--out", str(alone), *options,
                    "--override", f"algorithms={algorithm}",
                    "--override", f"snr_db={snr!r}",
                ) == 0
                name = f"{command}_{algorithm}_T1_SNR{snr:g}.csv"
                expected = (alone / name).read_bytes()
                assert (tmp_path / command / name).read_bytes() == expected
    capsys.readouterr()


def test_manifest_records_checksums(tmp_path, capsys, monkeypatch):
    # Two workers, so the three-trial mse-convergence and the ber-sweep
    # run pooled.
    monkeypatch.setattr(cli, "_worker_count", lambda: 2)
    runs = {
        "trace-stepsize": ["trace-stepsize", *small_overrides()],
        "single-run": ["single-run", *small_overrides()],
        "mse-convergence": [
            "mse-convergence", *small_overrides(), "--trials", "3",
            "--override", "snr_db=[10, 20]",
        ],
        "ber-sweep": SMALL_BER_SWEEP,
    }
    manifests = {}
    for command, argv in runs.items():
        out = tmp_path / command
        assert run_cli(*argv, "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert sorted(manifest["artifacts"]) == sorted(p.name for p in out.glob("*.csv"))
        for name, digest in manifest["artifacts"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        manifests[command] = manifest
    capsys.readouterr()
    assert len(manifests["mse-convergence"]["artifacts"]) == 2
    assert len(manifests["ber-sweep"]["artifacts"]) == 4
    # The trace runs trial 0 alone, whatever --trials says.
    assert manifests["trace-stepsize"]["config"]["num_trials"] == 1
    path = tmp_path / "trace-stepsize" / "trace-stepsize_iss_nlms_T1_SNR10.csv"
    assert path.read_text().splitlines()[:2] == [
        "# stepsize-trace algorithm=iss_nlms snr_db=10 sparsity=1 rng_seed=12345",
        "iteration,step_size",
    ]


def test_manifest_hashes_an_artifact_of_several_blocks(tmp_path, capsys):
    # The writer hashes each block of rows as it writes it; this
    # 2,000-row CSV spans two write blocks.
    assert run_cli(
        "single-run", "--out", str(tmp_path), "--override", "algorithms=vss_nlms",
        "--override", "snr_db=10", "--override", "max_iterations=2000",
    ) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    ((name, digest),) = manifest["artifacts"].items()
    payload = (tmp_path / name).read_bytes()
    assert 1 << 16 < len(payload) < 1 << 17
    assert hashlib.sha256(payload).hexdigest() == digest


def test_summary_lines_are_printed(tmp_path, capsys):
    assert run_cli("mse-convergence", "--out", str(tmp_path),
                   *small_overrides()) == 0
    captured = capsys.readouterr()
    assert "mse-convergence algorithm=iss_nlms snr_db=10" in captured.out
    assert "final-1% MSE=" in captured.out
    assert "diverged=0/2 worse_than_zero=0/2" in captured.out
    assert "warning" not in captured.err


def test_divergence_is_reported(tmp_path, capsys):
    # An adaptive step pinned near 2 at -20 dB: the error ends finite but
    # far above the all-zero estimator's n_r = 4.  The run still succeeds
    # and writes its usual files.
    code = run_cli(
        "single-run", "--out", str(tmp_path),
        "--override", "snr_db=-20", "--override", "c_threshold=1e-9",
        "--override", "mu_max=1.99", "--override", "algorithms=vss_nlms",
        "--override", "max_iterations=100",
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "diverged=0/1 worse_than_zero=1/1" in captured.out
    assert captured.err == (
        "warning: single-run algorithm=vss_nlms snr_db=-20: 1/1 trials ended "
        "worse than the all-zero estimator (final squared error finite but "
        "above n_r) and are averaged into the curve\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.json", "single-run_vss_nlms_T1_SNR-20.csv",
    ]
    # mu = 50 overflows to NaN: diverged, under its own rule.
    code = run_cli(
        "single-run", "--out", str(tmp_path / "overflow"),
        "--override", "mu=50", "--override", "algorithms=iss_nlms",
        "--override", "snr_db=10", "--override", "max_iterations=1000",
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "diverged=1/1 worse_than_zero=0/1" in captured.out
    assert captured.err == (
        "warning: single-run algorithm=iss_nlms snr_db=10: 1/1 trials diverged "
        "(final squared error not finite) and are averaged into the curve\n"
    )


def test_non_finite_tail_prints_nan_db(capsys):
    curve = MseCurve(
        values=np.array([1.0, np.inf]), algorithm="vss_nlms", snr_db=10.0, diverged=1
    )
    tail = steady_state_mean(curve.values, fraction=0.01)
    _summarize_mse("single-run", curve, tail, 1)
    assert "(nan dB) diverged=1/1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["mse-convergence", "--trials", "3"],
        # mu = 1.9 is stable, but the iss variants end worse than zero at
        # 10 dB: those counts and the stderr warnings come back from the
        # workers.
        [
            "mse-convergence", "--trials", "3",
            "--override", "mu=1.9", "--override", "max_iterations=1000",
        ],
        # Each worker reads the per-SNR c_threshold from its pickled config.
        [
            "mse-convergence", "--trials", "3",
            "--override", 'c_by_snr={"20": 1e-5}', "--override", "max_iterations=500",
        ],
        SMALL_BER_SWEEP,
    ],
    ids=["mse", "mse-diverging", "mse-c_by_snr", "ber"],
)
def test_worker_count_does_not_change_outputs(argv, tmp_path, capsys, monkeypatch):
    # Whatever this machine's CPU count, one run is serial and the other
    # uses a pool of two.
    contexts = []
    get_context = multiprocessing.get_context

    def recording(method=None):
        contexts.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", recording)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_worker_count", lambda: workers)
        out = tmp_path / f"workers{workers}"
        status = run_cli(*argv, "--out", str(out))
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((status, captured.out, captured.err, files))
        assert contexts == ([] if workers == 1 else ["fork"])
    assert runs[0][0] == 0
    assert runs[0] == runs[1]
    if "mu=1.9" in argv:
        assert "diverged=0/3 worse_than_zero=3/3" in runs[0][1]
        assert "diverged=3/3" not in runs[0][1]
        assert "trials ended worse than the all-zero estimator" in runs[0][2]
    if argv[0] == "ber-sweep":
        # No training channel diverged, so there is no warning.
        assert runs[0][2] == ""
    assert multiprocessing.active_children() == []


def test_worker_count_follows_the_affinity_mask(monkeypatch):
    if not hasattr(os, "fork"):
        assert cli._worker_count() == 1
        return
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert cli._worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._worker_count() == 1
    monkeypatch.delattr(os, "fork")
    assert cli._worker_count() == 1


# Run the CLI pinned to the CPU given as the first argument.
PINNED = (
    "import os, sys; os.sched_setaffinity(0, {int(sys.argv.pop(1))}); "
    "from sparsenlms.cli import entry_point; entry_point()"
)


def pooled_and_serial(argv, tmp_path, *flags):
    """``(status, stdout, stderr, files)`` of a pooled and a one-CPU run.

    Each runs in its own interpreter, started with ``flags``.
    """
    cpus = sorted(getattr(os, "sched_getaffinity", lambda pid: ())(0))
    if len(cpus) < 2 or not hasattr(os, "fork"):
        pytest.skip("needs a fork pool of 2 or more CPUs")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = []
    for name, prefix in (
        ("pooled", ["-m", "sparsenlms"]),
        ("serial", ["-c", PINNED, str(cpus[0])]),
    ):
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, *flags, *prefix, *argv, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((done.returncode, done.stdout, done.stderr, files))
    assert runs[0][0] == 0, runs[0][2]
    return runs


@pytest.mark.parametrize(
    "argv",
    [
        # iss_nlms at mu = 50 overflows to NaN in every trial.
        [
            "mse-convergence", "--trials", "4", "--override", "mu=50",
            "--override", "algorithms=iss_nlms", "--override", "snr_db=10",
            "--override", "max_iterations=3000",
        ],
        # The same estimator, trained on two channels, then frozen; one
        # warning names the curve and both diverged channels.
        [
            "ber-sweep", "--override", "mu=50", "--override", "algorithms=iss_nlms",
            "--override", "qam_orders=[16]", "--override", "esn0_range_db=[20]",
            "--override", "ber_num_channels=2", "--override", "max_iterations=3000",
            "--override", "ber_max_frames=4",
        ],
    ],
    ids=["mse", "ber"],
)
def test_diverging_run_is_the_same_pooled_and_on_one_cpu(argv, tmp_path):
    # Each pool worker is its own process, so numpy warnings printed once
    # per process would repeat per worker.
    pooled, serial = pooled_and_serial(argv, tmp_path)
    assert pooled == serial
    if argv[0] == "ber-sweep":
        assert pooled[2] == (
            "warning: ber-sweep algorithm=iss_nlms qam=16: 2/2 training channels "
            "diverged (final estimate not finite) and are erased on every subcarrier\n"
        )


def test_pooled_run_warns_as_a_serial_one_under_default_filters(tmp_path):
    # -W default shows the DeprecationWarning that Python 3.12+ raises
    # when a process with threads forks; numpy's BLAS pool is threads.
    # The README promises the same standard error pooled and serial.
    argv = ["mse-convergence", "--trials", "3", "--override", "max_iterations=200"]
    pooled, serial = pooled_and_serial(argv, tmp_path, "-W", "default")
    assert pooled == serial


# -- CSV output ---------------------------------------------------------------


def test_mse_csv_format(tmp_path, capsys):
    argv = [
        "mse-convergence", "--seed", "99", "--trials", "1",
        "--override", "algorithms=vss_nlms", "--override", "snr_db=10",
        "--override", "max_iterations=5",
    ]
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    capsys.readouterr()
    curve = run_monte_carlo_mse(build_config(parse_invocation(argv)))[0]
    lines = (tmp_path / "mse-convergence_vss_nlms_T1_SNR10.csv").read_text().splitlines()
    assert lines[0] == (
        "# mse-curve algorithm=vss_nlms snr_db=10 sparsity=1 num_trials=1 rng_seed=99"
    )
    assert lines[1] == "iteration,mse_linear,mse_db"
    assert len(lines) == 2 + 5
    first = lines[2].split(",")
    assert first[0] == "1"
    assert float(first[1]) == curve.values[0]
    # mse_db is 10 log10 of mse_linear on every row.
    for line in lines[2:]:
        linear = float(line.split(",")[1])
        assert line.split(",")[2] == repr(float(10.0 * np.log10(linear)))


def test_ber_csv_rows_derive_from_the_curve_counts(tmp_path, capsys):
    assert run_cli(*SMALL_BER_SWEEP, "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out.splitlines()
    config = build_config(parse_invocation(SMALL_BER_SWEEP))
    curves = run_ber_sweep(config)
    assert len(curves) == 4
    for curve in curves:
        name = f"ber-sweep_{curve.algorithm}_T1_SNR10_QAM{curve.qam_order}.csv"
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == (
            f"# ber-curve algorithm={curve.algorithm} qam_order={curve.qam_order} "
            "training_snr_db=10 sparsity=1 rng_seed=55"
        )
        assert lines[1] == "esn0_db,ber,bit_errors,bits_total"
        # The axis comes from the config and the rate from the counts.
        errors, bits = curve.bit_errors.tolist(), curve.bits_total.tolist()
        rows = list(zip(config.esn0_range_db, errors, bits, strict=True))
        assert lines[2:] == [f"{esn0!r},{e / b!r},{e},{b}" for esn0, e, b in rows]
        points = " ".join(f"{esn0:g}dB:{e / b:.3e}" for esn0, e, b in rows)
        assert (
            f"ber-sweep algorithm={curve.algorithm} qam={curve.qam_order} {points}"
        ) in out


def test_csv_writers_match_csv_module_bytes(tmp_path):
    # Longer than two blocks of rows, so block boundaries are covered.
    rows = 2 * cli._ROWS_PER_WRITE + 3
    rng = np.random.default_rng(8)
    values = np.concatenate([[0.0, 1e-300, 1.0, 1e300], rng.random(rows - 4)])
    counts = rng.integers(0, 999, rows - 4)
    iterations = np.arange(1, rows + 1)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(values)
    esn0_db = np.linspace(12.0, 30.0, rows)
    bit_errors = np.concatenate([[0, 1, 2, 2**40], counts])
    bits_total = np.concatenate([[1, 7, 1024, 2**50], counts + 999])
    returned = [
        cli._write_csv(
            tmp_path, "mse.csv", "mse-curve algorithm=iss_nlms",
            {"iteration": iterations, "mse_linear": values, "mse_db": db},
        ),
        cli._write_csv(
            tmp_path, "step.csv", "stepsize-trace algorithm=iss_nlms",
            {"iteration": iterations, "step_size": values},
        ),
        cli._write_csv(
            tmp_path, "ber.csv", "ber-curve algorithm=iss_nlms",
            {"esn0_db": esn0_db, "ber": values,
             "bit_errors": bit_errors, "bits_total": bits_total},
        ),
    ]
    # Each digest, taken block by block as the file is written, is the
    # sha256 of the whole file.
    assert returned == [
        (name, hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
        for name in ("mse.csv", "step.csv", "ber.csv")
    ]

    expected_mse, expected_step = io.StringIO(), io.StringIO()
    expected_ber = io.StringIO()
    writer = csv.writer(expected_mse, lineterminator="\n")
    writer.writerow(["iteration", "mse_linear", "mse_db"])
    for i, (linear, decibel) in enumerate(zip(values, db), start=1):
        writer.writerow([i, repr(float(linear)), repr(float(decibel))])
    writer = csv.writer(expected_step, lineterminator="\n")
    writer.writerow(["iteration", "step_size"])
    for i, value in enumerate(values, start=1):
        writer.writerow([i, repr(float(value))])

    writer = csv.writer(expected_ber, lineterminator="\n")
    writer.writerow(["esn0_db", "ber", "bit_errors", "bits_total"])
    for row in zip(esn0_db, values, bit_errors, bits_total):
        writer.writerow([repr(float(row[0])), repr(float(row[1])), *map(int, row[2:])])

    mse_lines = (tmp_path / "mse.csv").read_bytes().split(b"\n", 1)
    step_lines = (tmp_path / "step.csv").read_bytes().split(b"\n", 1)
    ber_lines = (tmp_path / "ber.csv").read_bytes().split(b"\n", 1)
    assert mse_lines[0] == b"# mse-curve algorithm=iss_nlms"
    assert step_lines[0] == b"# stepsize-trace algorithm=iss_nlms"
    assert ber_lines[0] == b"# ber-curve algorithm=iss_nlms"
    assert mse_lines[1] == expected_mse.getvalue().encode()
    assert step_lines[1] == expected_step.getvalue().encode()
    assert ber_lines[1] == expected_ber.getvalue().encode()
    assert b"1,0.0,-inf\n" in mse_lines[1]
