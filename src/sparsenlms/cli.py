"""Command-line front end for the estimation and BER experiments.

Four subcommands map onto the harness entry points:

    mse-convergence   trial-averaged identification error curves
    ber-sweep         OFDM/QAM bit error rate curves per detector
    single-run        one trial of mse-convergence (trial 0)
    trace-stepsize    step-size traces of trial 0

The effective configuration is built in three layers: built-in
defaults, then an optional JSON config file (``--config``), then
``--override key=value`` pairs in command-line order.  The dedicated
``--seed`` and ``--trials`` flags are applied last.  Unknown keys are
rejected by name.  Every run writes its artifacts plus a
``manifest.json`` recording the effective configuration, the seed and
a sha256 checksum per artifact; rerunning the same invocation
reproduces every file byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import replace

from .harness import (
    ExperimentConfig,
    run_ber_sweep,
    run_monte_carlo_mse,
    run_trial_rows,
    steady_state_mean,
    write_ber_csv,
    write_mse_csv,
    write_stepsize_csv,
)

SUBCOMMANDS = ("mse-convergence", "ber-sweep", "single-run", "trace-stepsize")


class CliError(Exception):
    """Contract violation surfaced to the user with a nonzero exit."""


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsenlms",
        description="Sparse adaptive MIMO channel estimation experiments.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", dest="config_path", metavar="PATH")
    parser.add_argument(
        "--override",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="configuration override; repeatable, applied after --config",
    )
    parser.add_argument("--out", dest="output_dir", default=".", metavar="DIR")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument(
        "--dump-config",
        action="store_true",
        help="print the effective configuration as JSON and exit",
    )
    return parser


def parse_invocation(argv):
    """Parse ``argv`` (no program name) into an ``argparse.Namespace``."""
    return _build_parser().parse_args(argv)


def _parse_override(token):
    key, sep, raw = token.partition("=")
    if not sep or not key:
        raise CliError(f"invalid override {token!r} (expected key=value)")
    try:
        # JSON covers numbers, lists, booleans and null; bare algorithm
        # names and similar unquoted strings fall through as-is.
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def build_config(invocation):
    """Resolve defaults, config file and overrides into one config."""
    data = ExperimentConfig().to_dict()
    if invocation.config_path is not None:
        try:
            with open(invocation.config_path) as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(
                f"config file {invocation.config_path!r} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(loaded, dict):
            raise CliError("config file must hold a JSON object")
        data.update(loaded)
    for token in invocation.overrides:
        key, value = _parse_override(token)
        data[key] = value
    if invocation.seed is not None:
        data["rng_seed"] = invocation.seed
    if invocation.trials is not None:
        data["num_trials"] = invocation.trials
    try:
        config = ExperimentConfig.from_dict(data)
        if invocation.subcommand == "ber-sweep":
            config.validate_ofdm()
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc)) from exc
    return config


def _artifact_name(subcommand, algorithm, config, snr_db, qam_order=None):
    name = f"{subcommand}_{algorithm}_T{config.sparsity}_SNR{snr_db:g}"
    if qam_order is not None:
        name += f"_QAM{qam_order}"
    return name + ".csv"


def _run_mse_convergence(config, out_dir, subcommand="mse-convergence"):
    files = []
    for curve in run_monte_carlo_mse(config):
        name = _artifact_name(subcommand, curve.algorithm, config, curve.snr_db)
        write_mse_csv(os.path.join(out_dir, name), curve)
        files.append(name)
        _summarize_mse(subcommand, curve)
    return files


def _run_single_run(config, out_dir):
    # Averaging a single trial returns it exactly (0.0 + x, then x / 1).
    return _run_mse_convergence(replace(config, num_trials=1), out_dir, "single-run")


def _run_trace_stepsize(config, out_dir):
    pairs = [(a, snr) for a in config.algorithms for snr in config.snr_db]
    files = []
    for (algorithm, snr), result in zip(pairs, run_trial_rows(config, 0, pairs)):
        name = _artifact_name("trace-stepsize", algorithm, config, snr)
        write_stepsize_csv(
            os.path.join(out_dir, name),
            result.step_trace,
            algorithm,
            snr,
            config.sparsity,
            config.rng_seed,
        )
        files.append(name)
        head = max(1, result.step_trace.size // 10)
        print(
            f"trace-stepsize algorithm={algorithm} snr_db={snr:g} "
            f"first10%={float(result.step_trace[:head].mean()):.6g} "
            f"last10%={steady_state_mean(result.step_trace):.6g}"
        )
    return files


def _run_ber_sweep(config, out_dir):
    files = []
    for curve in run_ber_sweep(config):
        name = _artifact_name(
            "ber-sweep",
            curve.algorithm,
            config,
            curve.training_snr_db,
            qam_order=curve.qam_order,
        )
        write_ber_csv(os.path.join(out_dir, name), curve)
        files.append(name)
        points = " ".join(
            f"{esn0:g}dB:{ber:.3e}" for esn0, ber in zip(curve.esn0_db, curve.ber)
        )
        print(
            f"ber-sweep algorithm={curve.algorithm} qam={curve.qam_order} {points}"
        )
    return files


def _summarize_mse(subcommand, curve):
    # Final-1% window mean, the quick convergence-quality readout.
    tail = steady_state_mean(curve.values, fraction=0.01)
    if tail == 0.0:
        db = float("-inf")
    elif math.isfinite(tail):
        db = 10.0 * math.log10(tail)
    else:
        db = float("nan")
    print(
        f"{subcommand} algorithm={curve.algorithm} snr_db={curve.snr_db:g} "
        f"final-1% MSE={tail:.6e} ({db:.2f} dB) "
        f"diverged={curve.diverged}/{curve.num_trials}"
    )
    if curve.diverged:
        print(
            f"warning: {subcommand} algorithm={curve.algorithm} "
            f"snr_db={curve.snr_db:g}: {curve.diverged}/{curve.num_trials} "
            "trials diverged (final squared error not finite or above n_r, "
            "the all-zero estimator's) and are averaged into the curve",
            file=sys.stderr,
        )


_RUNNERS = {
    "mse-convergence": _run_mse_convergence,
    "ber-sweep": _run_ber_sweep,
    "single-run": _run_single_run,
    "trace-stepsize": _run_trace_stepsize,
}


def _write_manifest(out_dir, invocation, config, files):
    checksums = {}
    for name in sorted(files):
        with open(os.path.join(out_dir, name), "rb") as handle:
            checksums[name] = hashlib.sha256(handle.read()).hexdigest()
    manifest = {
        "command": invocation.subcommand,
        "seed": config.rng_seed,
        "config": config.to_dict(),
        "artifacts": checksums,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def parse_and_dispatch(argv):
    """Parse ``argv`` (no program name), run the request, return exit status."""
    try:
        invocation = parse_invocation(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = build_config(invocation)
        if invocation.dump_config:
            print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
            return 0
        try:
            os.makedirs(invocation.output_dir, exist_ok=True)
        except OSError as exc:
            raise CliError(f"cannot create output directory: {exc}") from exc
        files = _RUNNERS[invocation.subcommand](config, invocation.output_dir)
        _write_manifest(invocation.output_dir, invocation, config, files)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry_point():
    raise SystemExit(parse_and_dispatch(sys.argv[1:]))
