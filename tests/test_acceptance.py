"""Acceptance suite: ten criteria, one printed PASS/FAIL line each.

The verdict lines are echoed in a terminal-summary section after the
run, so they are visible even with output capture on; ``-s`` also shows
them inline as they are produced.  The heavier criteria share Monte
Carlo results through module-scoped fixtures, so the whole suite stays
well inside its runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from sparsenlms import filters
from sparsenlms.cli import parse_and_dispatch
from sparsenlms.config import TRUE_CHANNEL, VARIANTS, ExperimentConfig
from sparsenlms.harness import run_ber_sweep, run_trial_rows
import acceptance_report
from naive_oracle import channel_error, run_oracle
from single_filter import update_one


def report(number, passed, details):
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {number}: {verdict} - {details}"
    print(line)
    acceptance_report.lines.append(line)
    assert passed, line


def tail_mean(values, fraction=0.1):
    count = max(1, int(round(fraction * values.size)))
    return float(values[-count:].mean())


# -- shared Monte Carlo runs --------------------------------------------------


DESK_TRIALS = 50
DESK_ITERATIONS = 1000


def desk_scale_tail_means(sparsity, algorithms):
    """Per-trial final-10% MSE means at the desk-scale protocol."""
    config = ExperimentConfig(
        sparsity=sparsity,
        snr_db=[10.0],
        algorithms=algorithms,
        max_iterations=DESK_ITERATIONS,
        num_trials=DESK_TRIALS,
        rng_seed=12345,
    )
    out = {}
    for algorithm in algorithms:
        tails = np.empty(DESK_TRIALS)
        for trial in range(DESK_TRIALS):
            result = run_trial_rows(config, trial, [(algorithm, 10.0)])
            tails[trial] = tail_mean(result.squared_error[:, 0])
        out[algorithm] = tails
    return out


@pytest.fixture(scope="module")
def desk_t1():
    return desk_scale_tail_means(
        1, ["vss_rza_nlms", "vss_za_nlms", "vss_nlms", "iss_za_nlms"]
    )


@pytest.fixture(scope="module")
def desk_t4():
    return desk_scale_tail_means(4, ["vss_za_nlms", "vss_nlms"])


def separation(tails_high, tails_low):
    """Mean paired separation and its Monte Carlo standard error."""
    diff = tails_high - tails_low
    return float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(diff.size))


def wilson_interval(errors, total, z=1.959963984540054):
    p = errors / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2.0 * total)) / denom
    half = z * np.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom
    return center - half, center + half


# -- criteria -----------------------------------------------------------------


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    params = dict(
        mu=0.2, mu_max=2.0, c_threshold=1e-4, beta=0.99,
        gamma_za=3e-4, gamma_rza=6e-4, epsilon_rza=20.0,
    )
    worst = 0.0
    for _ in range(50):
        length = int(rng.integers(1, 17))
        w_true = 0.5 * (rng.standard_normal(length) + 1j * rng.standard_normal(length))
        xs = [
            rng.standard_normal(length) + 1j * rng.standard_normal(length)
            for _ in range(200)
        ]
        ys = [
            np.dot(w_true, x) + 0.03 * complex(*rng.standard_normal(2)) for x in xs
        ]
        oracle_xs = [[complex(v) for v in x] for x in xs]
        oracle_ys = [complex(y) for y in ys]
        for variant in VARIANTS:
            config = filters.RowParams([variant], **params)
            weights, grad_avg = np.zeros((2, length), complex)
            trajectory = np.empty((200, length), dtype=np.complex128)
            for n, (x, y) in enumerate(zip(xs, ys)):
                update_one(weights, grad_avg, x, y, config)
                trajectory[n] = weights
            expected = np.array(
                run_oracle(variant, oracle_xs, oracle_ys, **params)["weights"]
            )
            scale = max(1.0, float(np.abs(expected).max()))
            worst = max(worst, float(np.abs(trajectory - expected).max()) / scale)
    elapsed = time.perf_counter() - started
    report(
        1,
        worst < 1e-10 and elapsed < 10.0,
        f"max relative trajectory error {worst:.2e} over 50 instances x 6 "
        f"variants, {elapsed:.1f}s",
    )


def test_criterion_02_step_size_law():
    config = ExperimentConfig(
        snr_db=[10.0],
        algorithms=["vss_nlms", "vss_za_nlms", "vss_rza_nlms"],
        max_iterations=500,
        num_trials=2,
        rng_seed=12345,
    )
    low, high = np.inf, -np.inf
    for algorithm in config.algorithms:
        for trial in range(config.num_trials):
            trace = run_trial_rows(config, trial, [(algorithm, 10.0)]).step_trace
            low = min(low, float(trace.min()))
            high = max(high, float(trace.max()))
    bounds_ok = 0.0 <= low and high < 2.0

    # Exact midpoint: the smoothed-gradient energy 0.25**2 == 0.0625 and
    # the threshold are the same binary float, so the quotient is 1/2.
    exact_binary = filters.vss_steps(np.array([0.25 + 0j]), 2.0, 0.0625)
    p = np.random.default_rng(3).standard_normal(8) + 0j
    measured_energy = float(np.vdot(p, p).real)
    exact_measured = filters.vss_steps(p, 2.0, measured_energy)
    midpoint_ok = exact_binary == 1.0 and exact_measured == 1.0

    report(
        2,
        bounds_ok and midpoint_ok,
        f"recorded steps within [{low:.3g}, {high:.3g}] of [0, 2); "
        f"midpoint evaluations {exact_binary}, {exact_measured} == mu_max/2",
    )


def test_criterion_03_reduction_identities():
    pairs = [("vss_za_nlms", "vss_nlms"), ("iss_za_nlms", "iss_nlms")]
    identical = True
    for penalized, plain in pairs:
        config_off = ExperimentConfig(
            snr_db=[10.0],
            algorithms=[penalized, plain],
            rho_za=0.0,
            max_iterations=200,
            num_trials=2,
            rng_seed=12345,
        )
        for trial in range(2):
            a = run_trial_rows(config_off, trial, [(penalized, 10.0)])
            b = run_trial_rows(config_off, trial, [(plain, 10.0)])
            identical = (
                identical
                and np.array_equal(a.final_estimate, b.final_estimate)
                and np.array_equal(a.squared_error, b.squared_error)
            )
    report(
        3,
        identical,
        "gamma_za=0 trajectories bitwise equal to the unpenalized variants "
        "(vss and iss, 2 trials each)",
    )


def test_criterion_04_noiseless_convergence():
    # The 5000-update budget is per receive antenna; with 4 antennas on
    # the round-robin schedule that is 20000 global iterations.
    started = time.perf_counter()
    config = ExperimentConfig(
        snr_db=[float("inf")],
        algorithms=["iss_nlms"],
        sparsity=4,
        mu=0.2,
        max_iterations=20000,
        num_trials=3,
        rng_seed=12345,
    )
    finals = [
        run_trial_rows(config, trial, [("iss_nlms", float("inf"))]).squared_error[-1, 0]
        for trial in range(3)
    ]
    mse = float(np.mean(finals))
    elapsed = time.perf_counter() - started
    report(
        4,
        mse < 1e-6 and elapsed < 30.0,
        f"noiseless iss_nlms average MSE {mse:.2e} after 5000 updates per "
        f"antenna, {elapsed:.1f}s",
    )


def test_criterion_05_steady_state_ordering(desk_t1):
    started = time.perf_counter()
    sep_rza, se_rza = separation(desk_t1["vss_za_nlms"], desk_t1["vss_rza_nlms"])
    sep_za, se_za = separation(desk_t1["vss_nlms"], desk_t1["vss_za_nlms"])
    sep_vss, se_vss = separation(desk_t1["iss_za_nlms"], desk_t1["vss_za_nlms"])
    elapsed = time.perf_counter() - started
    ok = sep_rza > se_rza and sep_za > se_za and sep_vss > se_vss
    report(
        5,
        ok and elapsed < 300.0,
        f"separations (mean, SE): rza<za ({sep_rza:.2e}, {se_rza:.1e}), "
        f"za<nlms ({sep_za:.2e}, {se_za:.1e}), "
        f"vss_za<iss_za ({sep_vss:.2e}, {se_vss:.1e}), "
        f"50 trials x 1000 iterations",
    )


def test_criterion_06_sparsity_benefit_scaling(desk_t1, desk_t4):
    gap_t1, _ = separation(desk_t1["vss_nlms"], desk_t1["vss_za_nlms"])
    gap_t4, _ = separation(desk_t4["vss_nlms"], desk_t4["vss_za_nlms"])
    report(
        6,
        gap_t1 > gap_t4,
        f"zero-attraction MSE gap {gap_t1:.2e} at T=1 vs {gap_t4:.2e} at T=4",
    )


def test_criterion_07_step_size_trace_decreases():
    config = ExperimentConfig(
        snr_db=[10.0],
        algorithms=["vss_nlms"],
        max_iterations=5000,
        num_trials=1,
        rng_seed=12345,
    )
    trace = run_trial_rows(config, 0, [("vss_nlms", 10.0)]).step_trace[:, 0]
    head = float(trace[: trace.size // 10].mean())
    tail = tail_mean(trace)
    report(
        7,
        tail < head,
        f"step-size trace mean {head:.3f} over first 10% vs {tail:.3f} over "
        f"final 10% of a 5000-iteration run",
    )


def test_criterion_08_ber_ordering():
    started = time.perf_counter()
    config = ExperimentConfig(
        algorithms=["vss_rza_nlms", "iss_za_nlms"],
        qam_orders=[16],
        esn0_range_db=[12.0, 18.0, 24.0, 30.0],
        ber_min_errors=0,
        ber_min_bits=102_400,
        ber_max_frames=1000,
        rng_seed=12345,
    )
    curves = {curve.algorithm: curve for curve in run_ber_sweep(config)}
    genie = curves[TRUE_CHANNEL]
    better = curves["vss_rza_nlms"]
    worse = curves["iss_za_nlms"]

    enough_bits = all(
        int(curve.bits_total.min()) >= 100_000 for curve in curves.values()
    )
    ordered = True
    for j in range(len(config.esn0_range_db)):
        genie_low, _ = wilson_interval(genie.bit_errors[j], genie.bits_total[j])
        better_low, better_high = wilson_interval(
            better.bit_errors[j], better.bits_total[j]
        )
        _, worse_high = wilson_interval(worse.bit_errors[j], worse.bits_total[j])
        ordered = ordered and genie_low <= better_high and better_low <= worse_high
    monotone = True
    for curve in curves.values():
        for j in range(len(config.esn0_range_db) - 1):
            next_low, _ = wilson_interval(
                curve.bit_errors[j + 1], curve.bits_total[j + 1]
            )
            _, here_high = wilson_interval(curve.bit_errors[j], curve.bits_total[j])
            monotone = monotone and next_low <= here_high
    elapsed = time.perf_counter() - started
    summary = " ".join(
        f"{name}:{curve.bit_errors[-1] / curve.bits_total[-1]:.1e}"
        for name, curve in curves.items()
    )
    report(
        8,
        enough_bits and ordered and monotone and elapsed < 600.0,
        f"16-QAM BER at 30 dB {summary}; ordering and monotonicity hold "
        f"within 95% binomial confidence at every point, {elapsed:.0f}s",
    )


def test_criterion_09_metric_sanity():
    config = ExperimentConfig(
        snr_db=[10.0],
        algorithms=["iss_nlms"],
        max_iterations=1,
        num_trials=1,
        rng_seed=12345,
    )
    zero_values = []
    for trial in range(5):
        chan = run_trial_rows(config, trial, [("iss_nlms", 10.0)]).channel
        zero_values.append(channel_error(chan, np.zeros_like(chan)))
        perfect = channel_error(chan, chan.copy())
        assert perfect == 0.0
    exact = all(value == 4.0 for value in zero_values)
    report(
        9,
        exact,
        f"zero-estimator MSE equals N_r exactly on 5 channels "
        f"(max deviation {max(abs(v - 4.0) for v in zero_values):.1e}); "
        f"perfect estimator metric is 0.0",
    )


def test_criterion_10_cli_determinism(tmp_path):
    args = [
        "mse-convergence",
        "--seed", "7",
        "--trials", "3",
        "--override", "algorithms=[\"vss_rza_nlms\",\"iss_nlms\"]",
        "--override", "snr_db=[10,20]",
        "--override", "max_iterations=200",
    ]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert parse_and_dispatch(args + ["--out", str(dir_a)]) == 0
    assert parse_and_dispatch(args + ["--out", str(dir_b)]) == 0
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    identical = names_a == names_b and all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in names_a
    )
    report(
        10,
        identical and len(names_a) == 5,
        f"repeated invocation reproduced {len(names_a)} artifacts "
        f"byte-identically (4 curves + manifest)",
    )
