"""Benchmark of the sparsenlms simulator, run through its public CLI.

Run from the repository root:

    python3 perfbench/run.py --workload mse-convergence --seed 1 --seconds 30 --trace 0

Each workload is one ``sparsenlms.cli.parse_and_dispatch`` invocation,
called in-process and repeated back to back (closed loop, one caller)
for ``--seconds``; timings are medians over the repetitions.  Outputs go
to a scratch directory under ``.perfbench_out/`` and are checked (see
``checks.py``): every repetition must reproduce the first one byte for
byte, and the first one must pass the invariants and, on seeds pinned
in ``reference/``, match the reference curves.

``--trace 0`` reports the end-to-end metrics: ``wall_s``,
``updates_per_s``, ``setup_s`` (median over fresh interpreters that
import ``sparsenlms.cli`` and build the config) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics listed in ``layers.json`` (see ``tracing.py``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (output curves) and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: numpy reads these once, when it is imported,
# and the set-up probes inherit them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from tracing import Tracer, bits_per_frame

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
LAYERS = json.loads((HERE / "layers.json").read_text())
SETUP_PROBES = 9

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "mse-convergence": ["mse-convergence", "--trials", "1"],
    "ber-detect": [
        "ber-sweep",
        "--override", "ber_num_channels=2",
        "--override", "max_iterations=1000",
    ],
    "single-trial-long": [
        "single-run",
        "--override", "algorithms=vss_rza_nlms",
        "--override", "snr_db=20",
        "--override", "max_iterations=100000",
    ],
}

# Fresh interpreter to ready: import the CLI and build the config.
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from sparsenlms import cli\n"
    "cli.build_config(cli.parse_invocation(sys.argv[2:]))\n"
    "print(time.monotonic())\n"
)


@dataclass
class Rep:
    wall: float
    status: int
    out_dir: str
    hashes: dict
    tracer: Tracer | None = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def import_cli():
    """Import ``sparsenlms.cli`` from this checkout's ``src`` only."""
    if not (SRC / "sparsenlms" / "cli.py").is_file():
        raise SystemExit(f"error: no sparsenlms sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from sparsenlms import cli

    if Path(cli.__file__).resolve().parent != SRC / "sparsenlms":
        raise SystemExit(f"error: imported sparsenlms from {cli.__file__}, not {SRC}")
    return cli


def plan(subcommand, config):
    """Filter updates and output curves one invocation should produce."""
    if subcommand == "ber-sweep":
        updates = config.ber_num_channels * len(config.algorithms) * config.max_iterations
        return updates, len(config.qam_orders) * (len(config.algorithms) + 1)
    trials = config.num_trials if subcommand == "mse-convergence" else 1
    pairs = len(config.algorithms) * len(config.snr_db)
    return trials * pairs * config.max_iterations, pairs


def machine_facts():
    import numpy

    blas = "unknown"
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']}-{info['version']}"
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} blas={blas} blas_threads=1"
    )


def measure_setup(argv):
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), *argv],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def sha256_files(directory):
    hashes = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            hashes[name] = hashlib.sha256(handle.read()).hexdigest()
    return hashes


def run_once(cli, argv, work, traced):
    """One invocation of the CLI; wall time excludes hashing and tracer set-up."""
    out_dir = tempfile.mkdtemp(dir=work)
    tracer = Tracer(f["name"] for f in LAYERS["functions"]) if traced else None
    gc.collect()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        start = time.perf_counter()
        status = cli.parse_and_dispatch(argv + ["--out", out_dir])
        wall = time.perf_counter() - start
    return Rep(wall, status, out_dir, sha256_files(out_dir), tracer)


def repeat(seconds, once):
    """Call ``once`` until another call would overrun ``seconds``; keep all reps."""
    reps = []
    start = time.perf_counter()
    rounds = 0
    while True:
        batch = once()
        rounds += 1
        for rep in batch:
            if reps:
                shutil.rmtree(rep.out_dir)
            reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return reps


def score(reps, curves, config, reference):
    """Return ``(attempted, failed, reasons)`` over the output curves of every rep."""
    first = reps[0]
    names = sorted(n for n in first.hashes if n.endswith(".csv"))
    per_rep = max(curves, len(names))
    if first.status != 0:
        return per_rep * len(reps), per_rep * len(reps), ["first run exited nonzero"]
    results = checks.check_outputs(first.out_dir, names, config, reference)
    reasons = [f"{name}: {why}" for name, why in results.items() if why]
    attempted = failed = 0
    for rep in reps:
        same = (
            rep.status == 0
            and rep.hashes.keys() == first.hashes.keys()
            and rep.hashes.get("manifest.json") == first.hashes.get("manifest.json")
        )
        reproduced = [n for n in names if same and rep.hashes[n] == first.hashes[n]]
        if len(reproduced) < len(names):
            reasons.append("a repetition did not reproduce the first one byte for byte")
        attempted += per_rep
        failed += per_rep - sum(1 for n in reproduced if not results[n])
    return attempted, failed, reasons


def count_frames(out_dir, names, config):
    frames = 0
    for name in names:
        header, rows = checks.read_csv(os.path.join(out_dir, name))
        if header.get("algorithm") == "true_channel":
            per_frame = bits_per_frame(config, int(header["qam_order"]))
            frames += sum(int(row[3]) // per_frame for row in rows)
    return frames


def layer_metrics(reps):
    """Per-layer metrics from the traced reps, plus whether counts repeated."""
    traced = [rep for rep in reps if rep.tracer is not None]
    plain = [rep.wall for rep in reps if rep.tracer is None]
    metrics = {}
    repeatable = True
    for entry in LAYERS["functions"]:
        name = entry["name"]
        calls = [rep.tracer.stats[name][0] for rep in traced]
        selfs = [rep.tracer.stats[name][1] for rep in traced]
        repeatable = repeatable and len(set(calls)) == 1
        metrics[f"{name}.calls"] = (calls[0], "count")
        metrics[f"{name}.self_s"] = (statistics.median(selfs), "s")
        metrics[f"{name}.share"] = (
            statistics.median(s / rep.wall for s, rep in zip(selfs, traced)),
            "ratio",
        )
    counters = [rep.tracer.counters for rep in traced]
    repeatable = repeatable and all(c == counters[0] for c in counters)
    error_calls = traced[0].tracer.stats["harness.channel_error"][0]
    useful = counters[0].pop("harness.channel_error.useful")
    values = dict(counters[0])
    values["harness.channel_error.useful_ratio"] = useful / error_calls if error_calls else 0.0
    values["trace.overhead_ratio"] = (
        statistics.median(rep.wall for rep in traced) / statistics.median(plain)
    )
    values["trace.self_coverage"] = statistics.median(
        sum(stat[1] for stat in rep.tracer.stats.values()) / rep.wall for rep in traced
    )
    for entry in LAYERS["counters"]:
        metrics[entry["name"]] = (values[entry["name"]], entry["unit"])
    return metrics, repeatable, traced[0].tracer.missing


def main(argv=None):
    args = parse_args(argv)
    cli = import_cli()
    workload_argv = WORKLOADS[args.workload] + ["--seed", str(args.seed)]
    config = cli.build_config(cli.parse_invocation(workload_argv))
    updates, curves = plan(workload_argv[0], config)
    reference_file = HERE / "reference" / f"{args.workload}.json"
    reference = None
    if reference_file.is_file():
        reference = json.loads(reference_file.read_text()).get(str(args.seed))

    print(f"machine {machine_facts()}")
    setup_s = measure_setup(workload_argv) if not args.trace else None

    OUT_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=OUT_ROOT)
    try:
        if args.trace:
            def once():
                return [run_once(cli, workload_argv, work, traced) for traced in (False, True)]
        else:
            def once():
                return [run_once(cli, workload_argv, work, False)]

        reps = repeat(args.seconds, once)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, reasons = score(reps, curves, config, reference)
        names = sorted(n for n in reps[0].hashes if n.endswith(".csv"))
        frames = count_frames(reps[0].out_dir, names, config) if reps[0].status == 0 else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()

    correct = failed == 0
    wall_s = statistics.median(rep.wall for rep in reps if rep.tracer is None)
    print(
        f"workload={args.workload} seed={args.seed} reps={len(reps)} "
        f"reference={'pinned' if reference is not None else 'none'} "
        f"planned_updates={updates} frames={frames}"
    )
    print("rep_walls_s " + " ".join(f"{rep.wall:.3f}" for rep in reps if rep.tracer is None))
    for reason in reasons:
        print(f"check failed: {reason}")

    if args.trace:
        metrics, repeatable, missing = layer_metrics(reps)
        if not repeatable:
            correct = False
            print("check failed: call counts differ between traced repetitions")
        for name in missing:
            print(f"note: {name} not found, reported as zero")
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "updates_per_s": (updates / wall_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    extra = {"failed_frac": (failed / attempted, "1")}
    if frames:
        extra["frames_per_s"] = (frames / wall_s, "1/s")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
