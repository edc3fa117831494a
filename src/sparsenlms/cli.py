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
rejected by name.  The runners only compute: each yields one
``(file name, comment line, columns)`` per curve.
:func:`parse_and_dispatch` writes every file into ``--out``: each
curve's CSV through :func:`_write_csv`, with the comment as its header
line, then a ``manifest.json`` recording the effective configuration,
the seed and the sha256 of each CSV's bytes as written.  Rerunning the
same invocation reproduces every file byte for byte.

The harness spreads multi-trial MSE runs and BER sweeps over one
process per CPU in the affinity mask, as for any library caller
(``taskset -c 0`` or ``os.sched_setaffinity`` makes a run serial); the
output files, stdout and stderr do not depend on the count.

At module level this imports only the standard library and
:mod:`sparsenlms.config`.  numpy and the harness load when a runner
starts, and ``hashlib`` when the first file is written, so ``--help``,
``--dump-config`` and every rejected invocation answer without them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .config import ExperimentConfig, _shown


class CliError(Exception):
    """Contract violation surfaced to the user with a nonzero exit."""


def parse_invocation(argv):
    """Parse ``argv`` (no program name) into an ``argparse.Namespace``."""
    parser = argparse.ArgumentParser(
        prog="sparsenlms",
        description="Sparse adaptive MIMO channel estimation experiments.",
    )
    parser.add_argument("subcommand", choices=tuple(_RUNNERS))
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
    parser.add_argument("--seed", type=_integer, default=None)
    parser.add_argument("--trials", type=_integer, default=None)
    parser.add_argument(
        "--dump-config",
        action="store_true",
        help="print the effective configuration as JSON and exit",
    )
    return parser.parse_args(argv)


def _integer(text):
    """``int(text)``; argparse itself would echo a bad value whole."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None


def _unique_keys(pairs):
    """``object_pairs_hook`` that rejects a repeated key instead of keeping the last."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise CliError(f"a JSON object repeats key {_shown(key)}")
        seen.add(key)
    return dict(pairs)


def _parse_override(token):
    key, sep, raw = token.partition("=")
    if not sep or not key:
        raise CliError(f"invalid override {_shown(token)} (expected key=value)")
    try:
        # JSON covers numbers, lists, booleans and null; bare algorithm
        # names and similar unquoted strings fall through as-is.
        value = json.loads(raw, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError:
        value = raw
    except (ValueError, RecursionError) as exc:  # too deep, or too many digits
        # Named by key: the value may be huge.
        raise CliError(f"override {key!r} is not valid JSON: {exc}") from exc
    return key, value


def build_config(invocation):
    """Resolve defaults, config file and overrides into one config."""
    data = {}
    if invocation.config_path is not None:
        try:
            with open(invocation.config_path) as handle:
                loaded = json.load(handle, object_pairs_hook=_unique_keys)
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or too deep
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
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc)) from exc
    # The config rejects a repeated SNR; file names also print two SNRs
    # that differ past their {:g} digits alike, as 10 and 10.000001.
    printed = set()
    for name in (f"{snr:g}" for snr in config.snr_db):
        if name in printed:
            raise CliError(
                f"snr_db {_shown(list(config.snr_db))} has two SNRs that file "
                f"names print as {name}"
            )
        printed.add(name)
    if invocation.subcommand in ("single-run", "trace-stepsize"):
        config = replace(config, num_trials=1)  # trial 0 alone, once checked
    return config


def _artifact_name(subcommand, algorithm, config, snr_db, qam_order=None):
    name = f"{subcommand}_{algorithm}_T{config.sparsity}_SNR{snr_db:g}"
    if qam_order is not None:
        name += f"_QAM{qam_order}"
    return name + ".csv"


# Rows formatted per write: whole 100k-row curves would hold every row
# string in memory at once.
_ROWS_PER_WRITE = 1024


def _write_csv(out_dir, name, comment, columns):
    """Write file ``name`` in ``out_dir``; return ``(name, sha256 hex digest)``.

    The file holds ``# comment``, the column names, then one row of
    ``repr`` values per index; ``columns`` maps each name to a 1-D
    array.  The repr of an int or a float never needs csv quoting, so
    the rows equal those of ``csv.writer`` with ``lineterminator="\\n"``.
    The digest is of the bytes written, so the file is never read back.
    """
    import hashlib

    digest = hashlib.sha256()
    with open(os.path.join(out_dir, name), "wb") as handle:

        def write(text):
            data = text.encode()
            digest.update(data)
            handle.write(data)

        write(f"# {comment}\n" + ",".join(columns) + "\n")
        arrays = list(columns.values())
        for start in range(0, len(arrays[0]), _ROWS_PER_WRITE):
            stop = start + _ROWS_PER_WRITE
            texts = [map(repr, array[start:stop].tolist()) for array in arrays]
            write("\n".join(map(",".join, zip(*texts))) + "\n")
    return name, digest.hexdigest()


def _run_mse_convergence(subcommand, config):
    import numpy as np

    from .harness import run_monte_carlo_mse

    for curve in run_monte_carlo_mse(config):
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(curve.values)
        yield (
            _artifact_name(subcommand, curve.algorithm, config, curve.snr_db),
            f"mse-curve algorithm={curve.algorithm} snr_db={curve.snr_db:g} "
            f"sparsity={config.sparsity} num_trials={config.num_trials} "
            f"rng_seed={config.rng_seed}",
            {"iteration": np.arange(1, db.size + 1),
             "mse_linear": curve.values, "mse_db": db},
        )
        _summarize_mse(subcommand, curve, config.num_trials)


def _run_trace_stepsize(subcommand, config):
    import numpy as np

    from .harness import run_trial_rows

    # One trial, so there is nothing to share between processes.
    pairs = [(a, snr) for a in config.algorithms for snr in config.snr_db]
    traces = run_trial_rows(config, 0, pairs).step_trace.T
    for (algorithm, snr), trace in zip(pairs, traces):
        yield (
            _artifact_name(subcommand, algorithm, config, snr),
            f"stepsize-trace algorithm={algorithm} snr_db={snr:g} "
            f"sparsity={config.sparsity} rng_seed={config.rng_seed}",
            {"iteration": np.arange(1, trace.size + 1), "step_size": trace},
        )
        count = _window(0.1, trace.size)
        print(
            f"{subcommand} algorithm={algorithm} snr_db={snr:g} "
            f"first10%={float(trace[:count].mean()):.6g} "
            f"last10%={float(trace[-count:].mean()):.6g}"
        )


def _run_ber_sweep(subcommand, config):
    import numpy as np

    from .harness import run_ber_sweep

    snr = config.ber_training_snr_db
    esn0_db = np.array(config.esn0_range_db)
    for curve in run_ber_sweep(config):
        ber = curve.bit_errors / curve.bits_total
        yield (
            _artifact_name(subcommand, curve.algorithm, config, snr, curve.qam_order),
            f"ber-curve algorithm={curve.algorithm} qam_order={curve.qam_order} "
            f"training_snr_db={snr:g} sparsity={config.sparsity} "
            f"rng_seed={config.rng_seed}",
            {"esn0_db": esn0_db, "ber": ber,
             "bit_errors": curve.bit_errors, "bits_total": curve.bits_total},
        )
        label = f"{subcommand} algorithm={curve.algorithm} qam={curve.qam_order}"
        points = " ".join(f"{e:g}dB:{b:.3e}" for e, b in zip(esn0_db, ber))
        print(f"{label} {points}")
        _warn(label, config.ber_num_channels, "training channels", (
            (curve.diverged, "diverged (final estimate not finite) "
             "and are erased on every subcarrier"),
            (curve.worse_than_zero, "ended worse than the all-zero estimator "
             "(final estimate finite, final squared error not at most n_r) "
             "and are detected with that estimate"),
        ))


def _window(fraction, size):
    """Entries in a summary window: the rounded ``fraction`` of ``size``, at least 1."""
    return max(1, round(fraction * size))


def _warn(label, total, noun, counts):
    """Print a ``warning:`` line to stderr per ``(count, rule)`` with a nonzero count."""
    for count, rule in counts:
        if count:
            print(f"warning: {label}: {count}/{total} {noun} {rule}", file=sys.stderr)


def _summarize_mse(subcommand, curve, num_trials):
    """Print the curve's final-1% mean and trial counts, and a warning per count."""
    import numpy as np

    # An overflowed sum reads inf, which diverged= or worse_than_zero= explains.
    with np.errstate(over="ignore"):
        tail = float(curve.values[-_window(0.01, curve.values.size):].mean())
    if tail == 0.0:
        db = float("-inf")
    elif math.isfinite(tail):
        db = 10.0 * math.log10(tail)
    else:
        db = float("nan")
    label = f"{subcommand} algorithm={curve.algorithm} snr_db={curve.snr_db:g}"
    print(
        f"{label} final-1% MSE={tail:.6e} ({db:.2f} dB) "
        f"diverged={curve.diverged}/{num_trials} "
        f"worse_than_zero={curve.worse_than_zero}/{num_trials}"
    )
    _warn(label, num_trials, "trials", (
        (curve.diverged, "diverged (final squared error not finite) "
         "and are averaged into the curve"),
        (curve.worse_than_zero, "ended worse than the all-zero estimator "
         "(final squared error finite but above n_r) and are averaged into the curve"),
    ))


# Each runner yields ``(file name, comment line, columns)`` per curve and
# prints that curve's summary once it is written.
_RUNNERS = {
    "mse-convergence": _run_mse_convergence,
    "ber-sweep": _run_ber_sweep,
    # Averaging a single trial returns it exactly (0.0 + x, then x / 1).
    "single-run": _run_mse_convergence,
    "trace-stepsize": _run_trace_stepsize,
}


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
        curves = _RUNNERS[invocation.subcommand](invocation.subcommand, config)
        # A generator expression, so that no curve's arrays outlive its write.
        checksums = dict(_write_csv(invocation.output_dir, *c) for c in curves)
        manifest = {
            "command": invocation.subcommand,
            "seed": config.rng_seed,
            "config": config.to_dict(),
            "artifacts": checksums,
        }
        with open(os.path.join(invocation.output_dir, "manifest.json"), "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except (CliError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, CliError) else 1
    return 0


def entry_point():
    raise SystemExit(parse_and_dispatch(sys.argv[1:]))

