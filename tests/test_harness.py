"""Unit tests for experiment orchestration, training data and metrics."""

import dataclasses
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from naive_oracle import channel_error
from per_frame_ber import per_frame_ber_sweep
from single_filter import update_one
from theory import (
    gray_axis_errors, nlms_curve, nlms_envelope, nlms_steady_state, q, qam_levels,
    rza_bias, vss_steady_step, za_bias,
)
from sparsenlms import cli, filters, harness
from sparsenlms.channel import generate_sparse_channel
from sparsenlms.config import TRUE_CHANNEL, VARIANTS, ExperimentConfig
from sparsenlms.harness import (
    FRAME_BLOCK,
    _frequency_responses,
    row_params,
    run_ber_sweep,
    run_monte_carlo_mse,
    run_trial_rows,
    training_chunk,
)
from sparsenlms.modem import qam_modulate

PRESET = Path(__file__).resolve().parents[1] / "configs" / "paper.json"


def small_config(**kwargs):
    defaults = dict(
        snr_db=[10.0],
        algorithms=["vss_nlms"],
        max_iterations=50,
        num_trials=2,
        rng_seed=99,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def per_sample_trial(config, trial_index, algorithm, snr_db):
    """One estimation trial written the slow way, as a reference.

    Each iteration draws its regressor and noise pair on its own, updates
    the scheduled antenna's filter alone (a batch of one) and scores the
    whole estimate with ``channel_error``.  Returns ``(squared_error,
    step_trace, estimate)``.
    """
    algo = row_params(config, [(algorithm, snr_db)])
    chan = generate_sparse_channel(
        np.random.default_rng([config.rng_seed, trial_index, 0]),
        config.n_t, config.n_r, config.tap_length, config.sparsity,
    )
    rng = np.random.default_rng([config.rng_seed, trial_index, 1])
    length = config.filter_length()
    sigma = np.sqrt(config.noise_variance(snr_db) / 2.0)
    estimate = np.zeros((config.n_r, length), dtype=complex)
    grad_avg = np.zeros_like(estimate)
    errors, steps = [], []
    for n in range(1, config.max_iterations + 1):
        antenna = (n - 1) % config.n_r
        x = np.sqrt(0.5 / length) * (
            rng.standard_normal(length) + 1j * rng.standard_normal(length)
        )
        pair = rng.standard_normal(2)
        y = np.dot(chan[antenna], x) + sigma * (pair[0] + 1j * pair[1])
        _, step_size = update_one(estimate[antenna], grad_avg[antenna], x, y, algo)
        errors.append(channel_error(chan, estimate))
        steps.append(step_size)
    return np.array(errors), np.array(steps), estimate


# -- scheduling ---------------------------------------------------------------


def updated_antenna(n, **kwargs):
    """The 0-based antenna whose estimate iteration ``n`` (1-based) changed."""

    def estimate(count):
        if count == 0:
            return 0.0
        config = small_config(max_iterations=count, **kwargs)
        return run_trial_rows(config, 0, [("vss_nlms", 10.0)]).final_estimate[0]

    changed = np.flatnonzero(np.any(estimate(n) != estimate(n - 1), axis=1))
    assert changed.size == 1
    return int(changed[0])


def test_antenna_selection_examples():
    # Iteration n (1-based) updates antenna (n - 1) mod n_r (0-based).
    assert [updated_antenna(n) for n in range(1, 6)] == [0, 1, 2, 3, 0]
    assert [updated_antenna(n, n_r=1) for n in range(1, 4)] == [0, 0, 0]


def test_antenna_selection_rejects_bad_arguments():
    # The schedule's iteration and antenna counts come from the config,
    # which rejects zero for both.
    with pytest.raises(ValueError, match="max_iterations"):
        small_config(max_iterations=0)
    with pytest.raises(ValueError, match="n_r"):
        small_config(n_r=0)


def test_round_robin_is_fair():
    picks = [updated_antenna(n) for n in range(1, 13)]
    for antenna in (0, 1, 2, 3):
        assert picks.count(antenna) == 3
    # At n_r = 3 a chunk is 25 rounds, 75 iterations; each chunk
    # continues the schedule where the previous one stopped.
    assert [updated_antenna(n, n_r=3) for n in (75, 76, 77, 151)] == [2, 0, 1, 0]
    # Three updates touch the first three antennas and leave the fourth.
    config = small_config(max_iterations=3)
    estimate = run_trial_rows(config, 0, [("vss_nlms", 10.0)]).final_estimate[0]
    assert [bool(np.any(row)) for row in estimate] == [True, True, True, False]


# -- metric -------------------------------------------------------------------


def test_metric_perfect_estimate_is_exactly_zero():
    rng = np.random.default_rng(400)
    h = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    assert channel_error(h, h.copy()) == 0.0


def test_metric_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        channel_error(np.zeros((2, 2)), np.zeros((2, 3)))


def test_metric_of_zero_estimator_equals_receive_antenna_count():
    config = small_config()
    result = run_trial_rows(config, 0, [("vss_nlms", 10.0)])
    zero = np.zeros_like(result.channel)
    assert channel_error(result.channel, zero) == 4.0


# -- estimation trials --------------------------------------------------------


def test_trial_is_deterministic():
    config = small_config()
    a = run_trial_rows(config, 1, [("vss_nlms", 10.0)])
    b = run_trial_rows(config, 1, [("vss_nlms", 10.0)])
    assert np.array_equal(a.squared_error, b.squared_error)
    assert np.array_equal(a.final_estimate, b.final_estimate)
    assert np.array_equal(a.step_trace, b.step_trace)


def test_trial_data_is_algorithm_and_snr_independent():
    config = small_config(snr_db=[10.0, 20.0], algorithms=list(VARIANTS))
    base = run_trial_rows(config, 0, [("iss_nlms", 10.0)])
    other = run_trial_rows(config, 0, [("vss_rza_nlms", 20.0)])
    assert np.array_equal(base.channel, other.channel)


def test_all_variants_run_to_completion():
    config = small_config(algorithms=list(VARIANTS))
    for variant in VARIANTS:
        result = run_trial_rows(config, 0, [(variant, 10.0)])
        assert result.squared_error.shape == (config.max_iterations, 1)
        assert np.all(result.squared_error >= 0.0)
        assert np.all(np.isfinite(result.squared_error))


def test_trial_rejects_negative_index():
    # The trial's seed sequence raises it; no message is pinned, so the
    # check holds whichever layer rejects the index.
    with pytest.raises(ValueError):
        run_trial_rows(small_config(), -1, [("vss_nlms", 10.0)])


def test_monte_carlo_single_trial_degenerates_to_the_trial():
    config = small_config(num_trials=1)
    curve = run_monte_carlo_mse(config)[0]
    trial = run_trial_rows(config, 0, [("vss_nlms", 10.0)])
    assert np.array_equal(curve.values, trial.squared_error[:, 0])
    assert curve.algorithm == "vss_nlms"
    assert curve.snr_db == 10.0


def test_monte_carlo_emits_one_curve_per_pair():
    config = small_config(
        snr_db=[10.0, 20.0], algorithms=["iss_nlms", "vss_nlms"], num_trials=1
    )
    curves = run_monte_carlo_mse(config)
    assert [(c.algorithm, c.snr_db) for c in curves] == [
        ("iss_nlms", 10.0),
        ("iss_nlms", 20.0),
        ("vss_nlms", 10.0),
        ("vss_nlms", 20.0),
    ]


# -- row-batched kernel -------------------------------------------------------


@pytest.mark.parametrize(
    "n_r, algorithms, mu, iterations",
    [
        (4, VARIANTS, 0.2, 1000),
        (9, VARIANTS, 0.2, 1000),
        (4, ["iss_nlms", "vss_nlms"], 0.2, 1000),
        (4, ["iss_nlms", "iss_za_nlms", "iss_rza_nlms"], 0.2, 1000),
        (4, ["iss_nlms", "iss_za_nlms"], 50.0, 3000),
    ],
    ids=["n_r4", "n_r9", "unpenalized", "fixed-step", "diverging"],
)
def test_batch_rows_equal_batch_of_one(n_r, algorithms, mu, iterations):
    # From n_r = 8 on, numpy would sum a contiguous (n_r, 1) column
    # pairwise, so summing antennas in one call would make a row of
    # the batch differ from its batch of one.  The unpenalized and
    # fixed-step batches skip the penalty and the vss law, with more
    # than one row.  At mu = 50 every row's taps overflow to NaN:
    # iss_nlms alone skips the penalty, but beside iss_za_nlms it takes
    # the penalized path with a zero strength, and must still match.
    config = small_config(
        n_r=n_r,
        snr_db=[10.0, 20.0],
        algorithms=list(algorithms),
        max_iterations=iterations,
        mu=mu,
    )
    pairs = [(a, snr) for a in config.algorithms for snr in config.snr_db]
    batch = run_trial_rows(config, 0, pairs)
    if mu > 2.0:  # past the NLMS stability bound
        assert np.isnan(batch.final_estimate).all()
    for row, (algorithm, snr) in enumerate(pairs):
        alone = run_trial_rows(config, 0, [(algorithm, snr)])
        # Bytes, so that NaN equals NaN and -0.0 differs from 0.0.
        for name in ("squared_error", "step_trace"):
            column = getattr(batch, name)[:, row]
            assert column.tobytes() == getattr(alone, name)[:, 0].tobytes()
        assert batch.final_estimate[row].tobytes() == alone.final_estimate[0].tobytes()


def test_c_per_noise_rows_equal_runs_with_that_flat_c_threshold():
    config = small_config(
        snr_db=[10.0, 20.0, 30.0],
        algorithms=["vss_nlms", "vss_rza_nlms"],
        mu_max=1.0,
        c_per_noise=0.03,
        max_iterations=1000,
    )
    pairs = [(a, snr) for a in config.algorithms for snr in config.snr_db]
    batch = run_trial_rows(config, 0, pairs)
    for row, (algorithm, snr) in enumerate(pairs):
        flat = dataclasses.replace(
            config, c_per_noise=None, c_threshold=0.03 * config.noise_variance(snr)
        )
        alone = run_trial_rows(flat, 0, [(algorithm, snr)])
        for name in ("squared_error", "step_trace"):
            column = getattr(batch, name)[:, row]
            assert column.tobytes() == getattr(alone, name)[:, 0].tobytes()
        assert batch.final_estimate[row].tobytes() == alone.final_estimate[0].tobytes()


@pytest.mark.parametrize(
    "n_r, max_iterations, trial, shape",
    [
        (4, 1001, 0, {}),
        (9, 703, 0, {}),
        (3, 1001, 0, {}),
        (1, 333, 0, {}),
        (128, 300, 0, {"n_t": 1, "tap_length": 2}),
        (4, 300, 1, {"snr_db": [10.0, float("inf")]}),
        (4, 3, 0, {}),
        (7, 177, 0, {}),
    ],
    ids=[
        "n_r4", "n_r9", "n_r3", "n_r1", "n_r128", "noiseless", "sub_round",
        "short_chunk",
    ],
)
def test_round_kernel_matches_per_sample_reference(n_r, max_iterations, trial, shape):
    # The chunked draws reproduce the per-iteration stream bit for bit,
    # so estimates and step sizes are equal; the incremental metric
    # only sums in another order.  A round updates every antenna at
    # once, each with its own iteration's data, and chunk iteration i
    # reads antenna a's error after round (i - a) // n_r + 1.  A chunk
    # is 25 rounds.  Partial final rounds (1001 = 4 * 250 + 1, 703 =
    # 9 * 78 + 1 and 1001 = 3 * 333 + 2, the last two closing final
    # chunks of 28 and 26 iterations), chunks that are not 100
    # iterations long (225, 75 and 25 at n_r = 9, 3 and 1, and one
    # chunk of 300 = 2 * 128 + 44 at n_r = 128), a trial shorter than
    # one round (3 < 4) and a final chunk shorter than one round (177 =
    # 175 + 2 at n_r = 7) must leave the per-iteration results
    # unchanged, and so must a noiseless (+inf dB) row.
    config = small_config(
        n_r=n_r,
        algorithms=list(VARIANTS),
        max_iterations=max_iterations,
        **{"snr_db": [10.0, 20.0], **shape},
    )
    for variant in VARIANTS:
        for snr in config.snr_db:
            result = run_trial_rows(config, trial, [(variant, snr)])
            errors, steps, estimate = per_sample_trial(config, trial, variant, snr)
            assert np.array_equal(result.final_estimate[0], estimate)
            assert np.array_equal(result.step_trace[:, 0], steps)
            np.testing.assert_allclose(
                result.squared_error[:, 0], errors, rtol=1e-12, atol=0
            )


@pytest.mark.parametrize("n_r, max_iterations", [(4, 1001), (9, 703)])
def test_one_update_call_per_antenna_round(n_r, max_iterations, monkeypatch):
    calls = []
    update_rows = filters.update_rows

    def counting(*args):
        calls.append(args[0].shape[0])
        return update_rows(*args)

    monkeypatch.setattr(filters, "update_rows", counting)
    config = small_config(n_r=n_r, snr_db=[10.0, 20.0], max_iterations=max_iterations)
    run_trial_rows(config, 0, [("vss_nlms", 10.0), ("iss_nlms", 20.0)])
    assert len(calls) == math.ceil(max_iterations / n_r)
    assert sum(calls) == max_iterations


def test_incremental_metric_matches_channel_error():
    config = small_config(
        snr_db=[10.0, 20.0], algorithms=list(VARIANTS), max_iterations=777
    )
    pairs = [(a, snr) for a in config.algorithms for snr in config.snr_db]
    trial = run_trial_rows(config, 3, pairs)
    for final_error, estimate in zip(trial.squared_error[-1], trial.final_estimate):
        np.testing.assert_allclose(
            final_error, channel_error(trial.channel, estimate), rtol=1e-12
        )


def test_divergence_is_counted():
    # An adaptive step pinned near 2 at -20 dB ends far above the
    # all-zero estimator's n_r = 4, but finite: the filter is stable and
    # worse than zero, not diverged.
    noisy = small_config(
        snr_db=[-20.0], c_threshold=1e-9, mu_max=1.99, max_iterations=100
    )
    curve = run_monte_carlo_mse(noisy)[0]
    assert (curve.diverged, curve.worse_than_zero) == (0, 2)
    assert 4.0 < curve.values[-1] < np.inf
    # mu = 50 overflows to NaN: diverged, and not also worse than zero.
    overflowing = small_config(mu=50.0, algorithms=["iss_nlms"], max_iterations=1000)
    curve = run_monte_carlo_mse(overflowing)[0]
    assert (curve.diverged, curve.worse_than_zero) == (2, 0)
    assert np.isnan(curve.values[-1])
    curve = run_monte_carlo_mse(small_config())[0]
    assert (curve.diverged, curve.worse_than_zero) == (0, 0)


def rows_failing_at_trial_1(config, trial_index, pairs):
    """``run_trial_rows`` that raises for trial 1.

    The pool maps it by reference, so it lives at module level.
    """
    if trial_index == 1:
        raise RuntimeError("trial 1 failed")
    return run_trial_rows(config, trial_index, pairs)


def test_pool_is_joined_when_a_task_raises(monkeypatch):
    # Workers are forked after the patch, so a later trial and every BER
    # point raise inside them; the error reaches the caller and no worker
    # outlives the call.
    def failing_frames(*args):
        raise RuntimeError("frames failed")

    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "run_trial_rows", rows_failing_at_trial_1)
    with pytest.raises(RuntimeError, match="trial 1 failed"):
        run_monte_carlo_mse(small_config(num_trials=4))
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(harness, "_simulate_frames", failing_frames)
    with pytest.raises(RuntimeError, match="frames failed"):
        run_ber_sweep(ber_config(ber_num_channels=1))
    assert multiprocessing.active_children() == []


# A pooled map whose worker for item 3 dies without a result.
DEAD_WORKER = """
import os
from sparsenlms import harness

def task(item):
    if item == 3:
        os._exit(1)
    return item

harness._cpu_count = lambda: 2
with harness._ordered_map(6) as ordered_map:
    print(list(ordered_map(task, range(6))))
"""


def test_a_dead_worker_fails_the_run():
    # A lost worker must end the run with an error, not leave it waiting
    # for a result that never comes.
    if not hasattr(os, "fork"):
        pytest.skip("needs a fork pool")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", DEAD_WORKER],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode != 0
    assert "BrokenProcessPool" in done.stderr, done.stderr


def test_a_platform_without_fork_runs_serially(monkeypatch):
    # As on Windows, where a fork pool cannot be opened at all.
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    with harness._ordered_map(4) as ordered_map:
        assert ordered_map is map
    config = small_config(algorithms=["iss_nlms", "vss_rza_nlms"], num_trials=4)
    pooled = run_monte_carlo_mse(config)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    serial = run_monte_carlo_mse(config)
    for got, want in zip(pooled, serial, strict=True):
        assert np.array_equal(got.values, want.values)
        assert dataclasses.replace(got, values=None) == dataclasses.replace(
            want, values=None
        )


def test_iss_nlms_steady_state_matches_theory():
    # The exact limit, E[1 / ||x||^2] = L / (L - 1) included.  At -20 dB
    # it is 45.1, far above the all-zero estimator's n_r = 4: every trial
    # is worse than zero, and none diverged, because the filter is
    # stable.  Seeds 0-9 put the -20 dB ratio within 0.978-1.016; noise
    # of twice the variance puts it near 2.
    config = ExperimentConfig(
        algorithms=["iss_nlms"],
        snr_db=[-20.0, 10.0, 20.0],
        num_trials=4,
        max_iterations=20_000,
        rng_seed=12345,
    )
    assert nlms_steady_state(config, -20.0) == pytest.approx(45.1, abs=0.05)
    for curve in run_monte_carlo_mse(config):
        theory = nlms_steady_state(config, curve.snr_db)
        simulated = curve.values[10_000:].mean()
        assert simulated / theory == pytest.approx(1.0, abs=0.05)
        assert curve.diverged == 0
        assert curve.worse_than_zero == (4 if curve.snr_db == -20.0 else 0)


def test_iss_nlms_learning_curve_matches_exact_recursion(monkeypatch):
    # The curve comes from a two-process pool; the serial per-trial
    # curves give its exact trial-order sum and the standard errors.
    config = ExperimentConfig(
        algorithms=["iss_nlms"],
        snr_db=[10.0, 20.0, math.inf],
        num_trials=64,
        max_iterations=2000,
        rng_seed=2024,
    )
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    curves = run_monte_carlo_mse(config)
    pairs = [("iss_nlms", snr) for snr in config.snr_db]
    trials = np.array([
        run_trial_rows(config, trial, pairs).squared_error.T
        for trial in range(config.num_trials)
    ])
    for row, curve in enumerate(curves):
        total = np.zeros(config.max_iterations)
        for trial in trials[:, row]:
            total += trial
        assert np.array_equal(curve.values, total / config.num_trials)
        expected = nlms_curve(config, curve.snr_db)
        stderr = trials[:, row].std(axis=0, ddof=1) / math.sqrt(config.num_trials)
        z = (curve.values - expected) / stderr
        # The largest |z| over 2000 correlated iterations is about 1.4 on
        # every curve.  A schedule one iteration late reaches 8, and a
        # contraction 2% too fast reaches 5.6.
        assert np.max(np.abs(z)) < 4.0, (curve.snr_db, int(np.argmax(np.abs(z))))


def test_vss_nlms_tracks_the_iss_envelope_closer_than_any_fixed_step(monkeypatch):
    # The abstract's step-size claim, independent of one mu: E(n) is the
    # best any fixed-step iss_nlms can do at iteration n, and a fixed step
    # falls behind it somewhere.  Over iterations 100-5000 at 10 dB the
    # best single step (mu 0.335) trails E by 2.47 dB at worst, mu = 0.2
    # by 5.08 dB.  Seeds 0-9 put vss_nlms's worst gap at 0.63-0.75 dB, so
    # at least 1.71 dB below the best fixed step's.
    config = ExperimentConfig(algorithms=["vss_nlms"], snr_db=[10.0], num_trials=40)
    mus = np.linspace(0.005, 1.995, 399)
    envelope = nlms_envelope(config, 10.0, mus)
    window = slice(99, config.max_iterations)
    fixed = nlms_curve(config, 10.0, mus)[window] / envelope[window, None]
    best_fixed = 10.0 * np.log10(fixed.max(axis=0).min())
    assert best_fixed == pytest.approx(2.47, abs=0.01)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    (curve,) = run_monte_carlo_mse(config)
    gap = 10.0 * np.log10(np.max(curve.values[window] / envelope[window]))
    assert gap < best_fixed - 1.0


def test_preset_vss_nlms_tracks_the_iss_envelope_at_20_and_30_db():
    # The same claim at the higher SNRs, under configs/paper.json (whose
    # c_per_noise was chosen at seed 1000).  The best single fixed step
    # trails E by 3.08 and 3.02 dB at 20 and 30 dB.  With 20 trials,
    # seeds 0-9 put vss_nlms's worst gap at 0.19-0.46 and 0.03-0.45 dB.
    argv = [
        "mse-convergence", "--config", str(PRESET), "--seed", "7", "--trials", "20",
        "--override", "algorithms=vss_nlms", "--override", "snr_db=[20, 30]",
    ]
    config = cli.build_config(cli.parse_invocation(argv))
    mus = np.linspace(0.005, 1.995, 399)
    window = slice(99, config.max_iterations)
    for curve, expected in zip(run_monte_carlo_mse(config), (3.08, 3.02)):
        envelope = nlms_envelope(config, curve.snr_db, mus)
        fixed = nlms_curve(config, curve.snr_db, mus)[window] / envelope[window, None]
        best_fixed = 10.0 * np.log10(fixed.max(axis=0).min())
        assert best_fixed == pytest.approx(expected, abs=0.01)
        gap = 10.0 * np.log10(np.max(curve.values[window] / envelope[window]))
        assert gap < best_fixed - 2.0, (curve.snr_db, gap)


def test_noise_relative_c_makes_nlms_snr_homogeneous():
    # With c proportional to the noise variance, iss_nlms and vss_nlms
    # are invariant to scaling the noise once the transient from the zero
    # start has decayed, so error / noise variance and the step agree
    # across SNRs.  Seeds 0-2 agreed within 4.5e-5 relative; a flat c
    # spreads the vss step by 2.3 times its mean, and over iterations
    # 5,000-10,000 the iss transient still spreads the error by 0.8 times
    # its mean.  ZA and RZA are left out: their pull scales with the
    # noise variance, not its square root, and their errors spread 9-17%.
    config = ExperimentConfig(
        algorithms=["iss_nlms", "vss_nlms"],
        snr_db=[10.0, 20.0, 30.0],
        mu_max=1.0,
        c_per_noise=0.03,
        max_iterations=20_000,
        rng_seed=0,
    )
    pairs = [(a, snr) for a in config.algorithms for snr in config.snr_db]
    trial = run_trial_rows(config, 0, pairs)
    variances = np.array([config.noise_variance(snr) for _, snr in pairs])
    error = (trial.squared_error[-5000:] / variances).mean(axis=0)
    step = trial.step_trace[-5000:].mean(axis=0)
    for values in (*error.reshape(2, 3), *step.reshape(2, 3)):
        assert np.ptp(values) < 1e-3 * values.mean(), values


def test_vss_nlms_settles_at_the_step_its_law_predicts():
    # Under configs/paper.json vss_steady_step puts the step at 0.1315 at
    # every SNR; gradients taken as independent would put it at 0.1454.
    # Over the last 5,000 of 20,000 iterations, seeds 0-9 averaged a step
    # of 0.1310 (0.3% low, SE 0.66%) and an error of 19.24 noise
    # variances, 5.1% above nlms_steady_state at the predicted step (SE
    # 1.5%): the model leaves out the step's fluctuation and its
    # correlation with the error.
    config = cli.build_config(cli.parse_invocation([
        "mse-convergence", "--config", str(PRESET), "--override", "algorithms=vss_nlms",
        "--override", "max_iterations=20000",
    ]))
    pairs = [("vss_nlms", snr) for snr in config.snr_db]
    variances = np.array([config.noise_variance(snr) for snr in config.snr_db])
    steps, errors = [], []
    for seed in range(10):
        trial = run_trial_rows(dataclasses.replace(config, rng_seed=seed), 0, pairs)
        steps.append(trial.step_trace[-5000:].mean(axis=0))
        errors.append((trial.squared_error[-5000:] / variances).mean(axis=0))
    for snr, step, error in zip(config.snr_db, np.mean(steps, 0), np.mean(errors, 0)):
        predicted = vss_steady_step(config, snr)
        assert predicted == pytest.approx(0.1315, abs=5e-5)
        assert step / predicted == pytest.approx(1.0, abs=0.02), (snr, step)
        limit = nlms_steady_state(config, snr, predicted) / config.noise_variance(snr)
        assert 1.0 < error / limit < 1.1, (snr, error, limit)


def test_preset_mse_claims_hold_at_every_snr():
    # The paper's six MSE claims under configs/paper.json, whose c was
    # chosen at seed 1000, from one 18-row run: VSS beats ISS under the
    # same penalty, and each penalty beats none under the same step
    # policy.  At this seed the paired
    # per-trial differences of the final-50 tails, in dB at 10, 20 and
    # 30 dB, were:
    #   vss_rza - iss_rza  -1.697 +- 0.017, -3.519 +- 0.043, -9.913 +- 0.081
    #   vss_za - iss_za    -1.574 +- 0.016, -3.467 +- 0.044, -9.888 +- 0.081
    #   vss_rza - vss      -0.656 +- 0.004, -0.229 +- 0.0012, -0.069 +- 0.0004
    #   vss_za - vss       -0.393 +- 0.0035, -0.122 +- 0.001, -0.035 +- 0.0003
    #   iss_rza - iss      -0.336 +- 0.0046, -0.100 +- 0.0016, -0.015 +- 0.0003
    #   iss_za - iss       -0.195 +- 0.004, -0.045 +- 0.0012, -0.006 +- 0.0002
    # so every cell lay 34.9-188 SE below zero.  At 30 dB most of each
    # vss - iss gap is convergence speed, not a lower floor: iss_* at mu
    # 0.2 is still in its transient at 5,000 iterations.
    claims = [
        ("vss_rza_nlms", "iss_rza_nlms"),
        ("vss_za_nlms", "iss_za_nlms"),
        ("vss_rza_nlms", "vss_nlms"),
        ("vss_za_nlms", "vss_nlms"),
        ("iss_rza_nlms", "iss_nlms"),
        ("iss_za_nlms", "iss_nlms"),
    ]
    argv = ["mse-convergence", "--config", str(PRESET), "--seed", "7", "--trials", "8"]
    config = cli.build_config(cli.parse_invocation(argv))
    assert config.snr_db == (10.0, 20.0, 30.0)
    pairs = [(a, snr) for a in VARIANTS for snr in config.snr_db]
    tails = np.array([
        10.0 * np.log10(run_trial_rows(config, trial, pairs).squared_error[-50:].mean(axis=0))
        for trial in range(config.num_trials)
    ]).reshape(config.num_trials, len(VARIANTS), len(config.snr_db))
    by_variant = dict(zip(VARIANTS, np.moveaxis(tails, 1, 0)))  # each (trials, SNRs)
    for better, worse in claims:
        diff = by_variant[better] - by_variant[worse]
        se = diff.std(axis=0, ddof=1) / math.sqrt(config.num_trials)
        mean = diff.mean(axis=0)
        assert np.all(mean < -10.0 * se), (better, worse, mean, se)


@pytest.mark.parametrize(
    "training_snr_db, unclaimed",
    [(10, ()), (20, (("vss_rza_nlms", "vss_nlms", 16),))],
    ids=["10dB", "20dB"],
)
def test_preset_ber_claims_hold_at_every_point(training_snr_db, unclaimed):
    # The paper's BER claims under configs/paper.json, trained at 10 and
    # 20 dB: vss_rza_nlms beats iss_rza_nlms, and RZA beats no penalty
    # under each step policy.  Each seed trains one channel and every
    # point sends exactly 200 frames, so all detectors see the same bits
    # and noise and their bit errors pair by channel.  Over seeds 0-9,
    # better / worse - 1 for 16-QAM at 24 and 30 dB, then 256-QAM, trained
    # at 10 dB:
    #   vss_rza / iss_rza  -20.9 +- 1.9%, -27.4 +- 2.2%, -9.0 +- 0.46%, -12.5 +- 0.55%
    #   vss_rza / vss      -9.0 +- 1.0%, -12.4 +- 1.2%, -3.7 +- 0.23%, -5.4 +- 0.29%
    #   iss_rza / iss      -5.3 +- 0.68%, -7.0 +- 0.74%, -2.1 +- 0.11%, -2.8 +- 0.14%
    # that is 7.8-22.7 SE below zero; trained at 20 dB:
    #   vss_rza / iss_rza  -13.8%, -34.8%, -7.2%, -20.7% (10.4, 7.4, 12.6, 12.9 SE)
    #   vss_rza / vss      -1.1%, -3.2%, -0.6%, -1.8% (3.4, 4.8, 13.1, 10.7 SE)
    #   iss_rza / iss      -0.8%, -2.1%, -0.4%, -1.1% (10.1, 14.2, 14.5, 15.1 SE)
    # All 120 pairs favoured the claim at each training SNR.  Trained at
    # 20 dB, vss_rza / vss at 16-QAM lies only 3.4 and 4.8 SE below zero
    # (its MSE gain there is -0.23 dB, against -0.67 dB at 10 dB), and a
    # separation of a few SEs is not claimed.
    claims = [
        ("vss_rza_nlms", "iss_rza_nlms"),
        ("vss_rza_nlms", "vss_nlms"),
        ("iss_rza_nlms", "iss_nlms"),
    ]
    ratios = []
    for seed in range(10):
        argv = [
            "ber-sweep", "--config", str(PRESET), "--seed", str(seed),
            "--override", "ber_num_channels=1",
            "--override", 'algorithms=["iss_nlms", "vss_nlms", "iss_rza_nlms", "vss_rza_nlms"]',
            "--override", "qam_orders=[16, 256]", "--override", "esn0_range_db=[24, 30]",
            "--override", "ber_min_errors=1000000000", "--override", "ber_max_frames=200",
            "--override", f"ber_training_snr_db={training_snr_db}",
        ]
        config = cli.build_config(cli.parse_invocation(argv))
        errors = {
            (curve.algorithm, curve.qam_order): curve.bit_errors
            for curve in run_ber_sweep(config)
        }
        ratios.append([
            [errors[better, q] / errors[worse, q] - 1.0 for q in config.qam_orders]
            for better, worse in claims
        ])
    ratios = np.array(ratios)  # (seed, claim, order, point)
    se = ratios.std(axis=0, ddof=1) / math.sqrt(len(ratios))
    mean = ratios.mean(axis=0)
    for (better, worse), claim_mean, claim_se in zip(claims, mean, se):
        for order, m, s in zip(config.qam_orders, claim_mean, claim_se):
            if (better, worse, order) not in unclaimed:
                assert np.all(m < -5.0 * s), (better, worse, order, m, s)


def test_iss_nlms_above_mu_2_grows_as_the_exact_recursion():
    # Past the stability boundary mu = 2 each update multiplies an
    # antenna's error by 1 + mu (mu - 2) / L, 1.0195 here, so the mean
    # curve grows about 16,000-fold in 2000 iterations and still follows
    # nlms_curve.  Seeds 0-9 kept every iteration within 5.7% of it
    # (1.9% at this seed); a step normalized by ||x||^2 + 0.01 in place of
    # ||x||^2 ends 44% below it.
    config = ExperimentConfig(
        algorithms=["iss_nlms"],
        snr_db=[20.0],
        mu=2.5,
        num_trials=50,
        max_iterations=2000,
        rng_seed=7,
    )
    (curve,) = run_monte_carlo_mse(config)
    expected = nlms_curve(config, 20.0)
    assert expected[-1] / expected[0] > 10_000
    relative = np.abs(curve.values / expected - 1.0)
    assert np.max(relative) < 0.1, int(np.argmax(relative))


def test_zero_attraction_bias_matches_its_fixed_point():
    # On each tap part far from zero the ZA row's mean lies za_bias = 0.05
    # closer to zero.  Paired with iss_nlms on the same data, the noise
    # cancels from the difference of the final estimates.
    config = ExperimentConfig(
        n_t=2, n_r=2, tap_length=8, snr_db=[10.0], rho_za=0.5,
        algorithms=["iss_nlms", "iss_za_nlms"], max_iterations=3000, rng_seed=0,
    )
    pairs = [(algorithm, 10.0) for algorithm in config.algorithms]
    shifts = []
    for trial in range(25):
        result = run_trial_rows(config, trial, pairs)
        diff = result.final_estimate[1] - result.final_estimate[0]
        parts = np.concatenate([result.channel.real, result.channel.imag], axis=None)
        moved = np.concatenate([diff.real, diff.imag], axis=None)
        big = np.abs(parts) > 0.2
        shifts.append(np.mean(-moved[big] * np.sign(parts[big])))
    predicted = za_bias(config, 10.0)
    assert predicted == pytest.approx(0.05)
    z = (np.mean(shifts) - predicted) / (np.std(shifts, ddof=1) / math.sqrt(25))
    # Seeds 0-9 gave |z| <= 2.8 (2.8 at this seed).  A strength 10% off
    # either way gave |z| > 5.1, the complex sign w / |w| in place of the
    # componentwise one > 12, and a gamma_za without its mu factor
    # (bias 0.25) > 53.
    assert abs(z) < 4.0, (np.mean(shifts), z)


def test_reweighted_zero_attraction_bias_matches_its_fixed_point():
    # The RZA row's mean on a tap part far from zero lies rza_bias closer
    # to zero, about 0.0028 here: the ZA pull rho_rza epsilon_rza
    # noise_var L = 0.04 divided by 1 + epsilon_rza |h - b csign(h)|.
    # Every part used is above 0.2, five times that pull, so no tap sits
    # in the trap near zero.  Paired with iss_nlms on the same data; each
    # trial's measured shift is compared with its own channel's
    # prediction.
    config = ExperimentConfig(
        n_t=2, n_r=2, tap_length=8, snr_db=[20.0], rho_rza=0.2,
        algorithms=["iss_nlms", "iss_rza_nlms"], max_iterations=3000, rng_seed=0,
    )
    pairs = [(algorithm, 20.0) for algorithm in config.algorithms]
    residuals = []
    for trial in range(25):
        result = run_trial_rows(config, trial, pairs)
        diff = result.final_estimate[1] - result.final_estimate[0]
        bias = rza_bias(config, 20.0, result.channel)
        parts = np.concatenate([result.channel.real, result.channel.imag], axis=None)
        moved = np.concatenate([diff.real, diff.imag], axis=None)
        predicted = np.concatenate([bias, bias], axis=None)
        big = np.abs(parts) > 0.2
        shift = np.mean(-moved[big] * np.sign(parts[big]))
        residuals.append(shift - np.mean(predicted[big]))
    z = np.mean(residuals) / (np.std(residuals, ddof=1) / math.sqrt(25))
    # Seeds 0-9 gave |z| <= 1.6 (1.4 at this seed).  A gamma_rza without
    # its epsilon_rza factor gave |z| 49, and a pull reweighted by each
    # part's own magnitude in place of the tap's complex one 5.3.
    assert abs(z) < 4.0, (np.mean(residuals), z)


def test_sparse_gain_shrinks_as_the_channel_gets_denser():
    # Chen, Gu and Hero (ICASSP 2009): zero attraction pays on a sparse
    # channel and costs accuracy on a dense one, where the reweighted
    # pull loses less than the plain one.  rho is fixed, so only the
    # density changes from T = 1 to T = tap_length = 16.  Paired
    # per-trial differences from iss_nlms of the final-50 tails in dB,
    # at 20 dB: seeds 0-9 gave ZA -0.016 and RZA -0.035 at T = 1 (|z| >=
    # 39 and 56), ZA +0.017 and RZA +0.011 at T = 16 (|z| >= 35 and 27),
    # and RZA - ZA -0.0065 at T = 16 (|z| >= 36).
    algorithms = ["iss_nlms", "iss_za_nlms", "iss_rza_nlms"]
    pairs = [(algorithm, 20.0) for algorithm in algorithms]
    z = {}
    for sparsity in (1, 16):
        config = ExperimentConfig(
            sparsity=sparsity, snr_db=[20.0], algorithms=algorithms,
            rho_za=0.002, rho_rza=0.0002, num_trials=20, rng_seed=0,
        )
        tails = np.array([
            10.0 * np.log10(
                run_trial_rows(config, trial, pairs).squared_error[-50:].mean(axis=0)
            )
            for trial in range(config.num_trials)
        ])
        za, rza = tails[:, 1] - tails[:, 0], tails[:, 2] - tails[:, 0]
        z[sparsity] = [
            diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size))
            for diff in (za, rza, rza - za)
        ]
    # Both gain at T = 1, RZA more; both lose at T = 16, RZA less.
    assert max(z[1]) < -8.0, z
    assert min(z[16][:2]) > 8.0 and z[16][2] < -8.0, z


# -- configuration ------------------------------------------------------------


def test_config_power_conventions():
    config = ExperimentConfig()
    assert config.filter_length() == 64
    # At 0 dB the noise variance is the received signal power.
    assert config.noise_variance(0.0) == pytest.approx(1 / 64)
    assert config.noise_variance(10.0) == pytest.approx(0.1 / 64)
    assert config.noise_variance(10) == pytest.approx(0.1 / 64)
    assert config.noise_variance(20.0) == pytest.approx(0.01 / 64)


def penalties(config, snr_db):
    """``(gamma_za, gamma_rza, epsilon_rza)`` as ``row_params`` resolves them at one SNR."""
    pairs = [("vss_za_nlms", snr_db), ("vss_rza_nlms", snr_db)]
    params = row_params(config, pairs)
    return params.gamma[0, 0], params.gamma[1, 0], params.epsilon[1, 0]


def test_config_rho_defaults_follow_sparsity():
    for sparsity, rho_za, rho_rza in ((1, 0.006, 0.0006), (4, 0.002, 0.0002)):
        config = ExperimentConfig(sparsity=sparsity)
        gamma_za, gamma_rza, _ = penalties(config, 10.0)
        variance = config.noise_variance(10.0)
        assert gamma_za == 0.2 * rho_za * variance
        assert gamma_rza == 0.2 * rho_rza * 20.0 * variance
    # An explicit weight replaces its own default only.
    config = ExperimentConfig(sparsity=4, rho_za=0.6)
    gamma_za, gamma_rza, _ = penalties(config, 10.0)
    variance = config.noise_variance(10.0)
    assert gamma_za == 0.2 * 0.6 * variance
    assert gamma_rza == 0.2 * 0.0002 * 20.0 * variance


def test_config_gamma_resolution():
    config = ExperimentConfig(sparsity=1)
    gamma_za, gamma_rza, epsilon_rza = penalties(config, 10.0)
    variance = config.noise_variance(10.0)
    assert gamma_za == pytest.approx(0.2 * 0.006 * variance, rel=1e-12)
    assert gamma_rza == pytest.approx(0.2 * 0.0006 * 20.0 * variance, rel=1e-12)
    assert epsilon_rza == 20.0


def test_config_c_per_noise_follows_the_noise_level():
    pairs = [("vss_nlms", snr) for snr in (10.0, 10, 20.0, 30.0)]
    config = ExperimentConfig(c_per_noise=0.03)
    params = row_params(config, pairs)
    for (_, snr), c_threshold in zip(pairs, params.c_threshold):
        assert c_threshold == 0.03 * config.noise_variance(snr)
    # Unset, every SNR uses the flat threshold.
    assert list(row_params(ExperimentConfig(), pairs).c_threshold) == [1e-4] * 4


def test_config_validation_errors():
    with pytest.raises(ValueError, match="sparsity"):
        ExperimentConfig(sparsity=17)
    with pytest.raises(ValueError, match="algorithms"):
        ExperimentConfig(algorithms=[])
    with pytest.raises(ValueError, match="unknown algorithm"):
        ExperimentConfig(algorithms=["lms"])
    with pytest.raises(ValueError, match="qam order"):
        ExperimentConfig(qam_orders=[32])
    with pytest.raises(ValueError, match="cp_length"):
        ExperimentConfig(cp_length=3).validate_ofdm()
    with pytest.raises(ValueError, match="c_per_noise"):
        ExperimentConfig(c_per_noise=0.0)
    # An assigned field would skip the check, so no field can be assigned.
    config = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.n_t = 0


@pytest.mark.parametrize(
    "name, value",
    [
        ("n_t", 0),
        ("n_r", 0),
        ("tap_length", 0),
        ("max_iterations", 0),
        ("num_trials", 0),
        ("rng_seed", -1),
        ("ber_num_channels", 0),
        ("ber_min_errors", -1),
        ("ber_min_bits", -1),
        ("ber_max_frames", 0),
        ("subcarrier_count", 15),  # below the default tap_length 16
    ],
)
def test_count_bounds_are_rejected_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} "):
        ExperimentConfig(**{name: value}).validate_ofdm()


def test_list_fields_cannot_be_changed_in_place():
    # Stored as tuples, so nothing gets past the check by mutation either.
    config = ExperimentConfig(snr_db=[10.0], qam_orders=[16], algorithms=["iss_nlms"])
    for name in ("snr_db", "esn0_range_db", "qam_orders", "algorithms"):
        assert isinstance(getattr(config, name), tuple)
    with pytest.raises(AttributeError):
        config.algorithms.append("lms")


def test_c_per_noise_config_hashes_and_copies():
    # The pooled runs in test_cli pickle the config, and single-run
    # replaces num_trials; a replaced SNR is checked against c_per_noise.
    config = ExperimentConfig(c_per_noise=0.03)
    assert hash(config) == hash(ExperimentConfig(c_per_noise=0.03))
    assert dataclasses.replace(config, num_trials=1).c_per_noise == 0.03
    assert pickle.loads(pickle.dumps(config)) == config
    with pytest.raises(ValueError, match="^c_per_noise "):
        dataclasses.replace(config, snr_db=[math.inf])


@pytest.mark.parametrize(
    "overrides, name",
    [
        (dict(mu_max=2.5), "mu_max"),
        (dict(beta=1.0), "beta"),
        (dict(beta=-0.1), "beta"),
        (dict(c_threshold=0.0), "c_threshold"),
        (dict(c_threshold=-1e-4), "c_threshold"),
        (dict(c_threshold=math.nan), "c_threshold"),
        # Even where c_per_noise gives every SNR its own threshold.
        (dict(c_threshold=0.0, c_per_noise=0.03), "c_threshold"),
        (dict(mu=0.0), "mu"),
        (dict(mu=math.inf), "mu"),
        (dict(epsilon_rza=0.0), "epsilon_rza"),
        (dict(epsilon_rza=math.inf), "epsilon_rza"),
        (dict(rho_za=-1.0), "rho_za"),
        (dict(rho_za=math.inf), "rho_za"),
        (dict(rho_rza=math.inf), "rho_rza"),
        (dict(rho_za=math.inf, snr_db=[math.inf]), "rho_za"),
        # 10**310 overflows a float.
        (dict(snr_db=[-3100.0]), "snr_db"),
        (dict(esn0_range_db=[12.0, -3100.0]), "esn0_range_db"),
        (dict(ber_training_snr_db=-3100.0), "ber_training_snr_db"),
        # Pins the adaptive step at 0, a flat curve at the all-zero error.
        (dict(c_threshold=math.inf), "c_threshold"),
        # c_per_noise times a noise level that is 0 (noiseless) or too
        # large, at an MSE SNR or at the BER training SNR.
        (dict(c_per_noise=0.03, snr_db=[10.0, math.inf]), "c_per_noise"),
        (dict(c_per_noise=0.03, ber_training_snr_db=math.inf), "c_per_noise"),
        (dict(c_per_noise=1e308, snr_db=[-100.0]), "c_per_noise"),
    ],
)
def test_filter_parameters_are_checked_whatever_algorithms_run(overrides, name):
    # Only iss_nlms runs, which reads neither the vss knobs nor a penalty.
    with pytest.raises(ValueError, match=f"^{name} "):
        ExperimentConfig(algorithms=["iss_nlms"], **overrides)


def test_config_dict_round_trip():
    config = ExperimentConfig(snr_db=[5.0], c_per_noise=0.03, sparsity=4)
    clone = ExperimentConfig.from_dict(config.to_dict())
    assert clone == config


def test_config_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="not_a_field"):
        ExperimentConfig.from_dict({"not_a_field": 3})


def test_config_from_dict_accepts_scalars_for_lists():
    scalars = {"snr_db": 20, "qam_orders": 16, "algorithms": "vss_nlms"}
    # Direct construction and JSON follow the same rules.
    for config in (ExperimentConfig.from_dict(scalars), ExperimentConfig(**scalars)):
        assert config.snr_db == (20.0,)
        assert config.qam_orders == (16,)
        assert config.algorithms == ("vss_nlms",)


@pytest.mark.parametrize(
    "field, value",
    [
        ("snr_db", [True]),
        ("esn0_range_db", ["12"]),
        ("qam_orders", [16.7]),
        ("algorithms", [5]),
        ("c_per_noise", True),
        ("c_per_noise", "0.03"),
        ("c_per_noise", {10.0: 1e-5}),
        ("c_per_noise", 0.0),
        ("rho_za", -1.0),
        ("rho_rza", math.nan),
        ("qam_orders", []),
        ("mu", -1.0),
        ("epsilon_rza", -1.0),
        ("c_per_noise", -0.03),
        ("snr_db", []),
        ("esn0_range_db", []),
        ("algorithms", []),
        ("c_per_noise", math.inf),
        ("c_per_noise", math.nan),
        ("c_per_noise", [0.03]),
    ],
)
def test_config_rejects_bad_list_elements_by_name(field, value):
    # vss_za_nlms reads mu only through gamma_za, and epsilon_rza not at
    # all; both are still checked under their own names.
    with pytest.raises(ValueError, match=f"^{field} must "):
        ExperimentConfig(**{"algorithms": ["vss_za_nlms"], field: value})


# -- training data and the OFDM model -----------------------------------------


def test_regressor_length():
    x_conj, noise = training_chunk(np.random.default_rng(0), 7, 3, 4, 16)
    assert x_conj.shape == (7, 3, 64)
    assert noise.shape == (7, 3)


def test_regressor_mean_power_is_unit():
    x_conj, _ = training_chunk(np.random.default_rng(200), 2_500, 4, 4, 16)
    energy = np.sum(x_conj.real**2 + x_conj.imag**2, axis=-1)
    assert energy.mean() == pytest.approx(1.0, rel=0.02)


def test_regressor_determinism():
    a, noise_a = training_chunk(np.random.default_rng(42), 5, 3, 2, 8)
    b, noise_b = training_chunk(np.random.default_rng(42), 5, 3, 2, 8)
    assert np.array_equal(a, b) and np.array_equal(noise_a, noise_b)
    # Chunks of any number of rounds continue one stream: the draws equal
    # one iteration at a time of real parts, imaginary parts, noise pair,
    # with entry [r, a] holding iteration 3 r + a.
    rng = np.random.default_rng(42)
    parts = [training_chunk(rng, rounds, 3, 2, 8) for rounds in (2, 1, 2)]
    assert np.concatenate([p[0] for p in parts]).tobytes() == a.tobytes()
    assert np.concatenate([p[1] for p in parts]).tobytes() == noise_a.tobytes()
    sequential = np.random.default_rng(42)
    for i in range(15):
        x = np.sqrt(0.5 / 16) * (
            sequential.standard_normal(16) + 1j * sequential.standard_normal(16)
        )
        pair = sequential.standard_normal(2)
        assert x.conj().tobytes() == a[i // 3, i % 3].tobytes()
        assert noise_a[i // 3, i % 3] == pair[0] + 1j * pair[1]


def test_cyclic_prefix_makes_convolution_circular():
    # Reference OFDM link built the slow way: per-stream inverse DFT,
    # cyclic prefix, per-link linear convolution, prefix removal and
    # forward DFT.  With cp_length = tap_length - 1 it must equal the
    # per-subcarrier product H_k @ X_k that run_ber_sweep synthesizes
    # directly; one sample shorter and it must not.
    rng = np.random.default_rng(205)
    n_t, n_r, taps, k = 2, 3, 5, 16
    cirs = rng.standard_normal((n_r, n_t, taps)) + 1j * rng.standard_normal(
        (n_r, n_t, taps)
    )
    symbols = rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k))

    def slow_link(cp):
        block = np.fft.ifft(symbols, axis=1) * np.sqrt(k)
        tx = np.concatenate([block[:, k - cp :], block], axis=1)
        rx_freq = np.empty((k, n_r), dtype=complex)
        for ir in range(n_r):
            rx = np.zeros(k + cp, dtype=complex)
            for it in range(n_t):
                rx += np.convolve(cirs[ir, it], tx[it])[: k + cp]
            rx_freq[:, ir] = np.fft.fft(rx[cp:]) / np.sqrt(k)
        return rx_freq

    h = _frequency_responses(cirs.reshape(n_r, n_t * taps), n_t, n_r, taps, k)
    expected = np.array([h[i] @ symbols[:, i] for i in range(k)])
    assert np.abs(slow_link(taps - 1) - expected).max() < 1e-12
    assert np.abs(slow_link(taps - 2) - expected).max() > 1e-3


def test_stacked_frequency_responses_equal_per_cir_calls():
    # A (channel, detector, n_r, n_t * taps) stack keeps its leading axes
    # and gives each CIR bit for bit the responses of its own call.
    rng = np.random.default_rng(206)
    n_t, n_r, taps, k = 2, 3, 5, 16
    stack = rng.standard_normal((2, 3, n_r, n_t * taps)) + 1j * rng.standard_normal(
        (2, 3, n_r, n_t * taps)
    )
    h = _frequency_responses(stack, n_t, n_r, taps, k)
    assert h.shape == (2, 3, k, n_r, n_t)
    for index in np.ndindex(stack.shape[:2]):
        single = _frequency_responses(stack[index], n_t, n_r, taps, k)
        assert single.tobytes() == h[index].tobytes()


# -- BER sweep ----------------------------------------------------------------


def ber_config(**kwargs):
    defaults = dict(
        n_t=2,
        n_r=2,
        tap_length=4,
        sparsity=1,
        algorithms=["vss_nlms"],
        subcarrier_count=16,
        cp_length=4,
        qam_orders=[16],
        esn0_range_db=[15.0, 30.0],
        ber_training_snr_db=10.0,
        ber_num_channels=2,
        ber_min_errors=0,
        ber_min_bits=2000,
        ber_max_frames=100,
        max_iterations=300,
        rng_seed=55,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_ber_sweep_curves_and_counters():
    config = ber_config()
    curves = run_ber_sweep(config)
    names = [(c.algorithm, c.qam_order) for c in curves]
    assert (TRUE_CHANNEL, 16) in names
    assert ("vss_nlms", 16) in names
    for curve in curves:
        ber = curve.bit_errors / curve.bits_total
        assert np.all((ber >= 0.0) & (ber <= 1.0))
        assert np.all(curve.bits_total >= 2000)
        # One count per configured E_s/N_0 point, in config order.
        points = (len(config.esn0_range_db),)
        assert curve.bit_errors.shape == curve.bits_total.shape == points
        assert np.all(curve.bit_errors <= curve.bits_total)


def test_ber_sweep_is_deterministic():
    a = run_ber_sweep(ber_config())
    b = run_ber_sweep(ber_config())
    for ca, cb in zip(a, b):
        assert ca.algorithm == cb.algorithm
        assert np.array_equal(ca.bit_errors, cb.bit_errors)
        assert np.array_equal(ca.bits_total, cb.bits_total)


def test_ber_sweep_all_detectors_share_frames():
    # The genie sees exactly the frames the estimators see, so its error
    # count at high SNR cannot exceed a mis-trained estimator's.
    config = ber_config(esn0_range_db=[30.0], max_iterations=20)
    curves = {c.algorithm: c for c in run_ber_sweep(config)}
    assert curves[TRUE_CHANNEL].bits_total == curves["vss_nlms"].bits_total


def test_ber_sweep_erases_rank_deficient_subcarriers():
    # One training update touches only the first receive antenna, so the
    # estimate has a zero row and its zero-forcing matrix is rank
    # deficient on every subcarrier: every bit counts as an error.
    config = ber_config(max_iterations=1, esn0_range_db=[30.0])
    curves = {c.algorithm: c for c in run_ber_sweep(config)}
    estimator = curves["vss_nlms"]
    assert estimator.bits_total.tolist() == [2048]
    assert estimator.bit_errors.tolist() == [2048]
    assert (estimator.bit_errors / estimator.bits_total).tolist() == [1.0]
    # Erased, but finite: not counted as diverged.
    assert estimator.diverged == 0
    assert estimator.worse_than_zero == 0
    assert curves[TRUE_CHANNEL].bit_errors.tolist() == [0]


def test_ber_sweep_erases_a_diverged_estimator():
    # mu = 50 overflows the estimate to NaN, on which the SVD would not
    # converge; the estimator is erased on every subcarrier instead, and
    # both training channels count as diverged.
    config = ber_config(
        mu=50.0, algorithms=["iss_nlms"], max_iterations=1000, esn0_range_db=[30.0]
    )
    trial = run_trial_rows(config, 0, [("iss_nlms", config.ber_training_snr_db)])
    assert np.isnan(trial.final_estimate).any()
    curves = {c.algorithm: c for c in run_ber_sweep(config)}
    estimator = curves["iss_nlms"]
    assert estimator.bits_total.tolist() == [2048]
    assert estimator.bit_errors.tolist() == [2048]
    assert (estimator.bit_errors / estimator.bits_total).tolist() == [1.0]
    assert estimator.diverged == 2
    assert estimator.worse_than_zero == 0
    assert curves[TRUE_CHANNEL].bit_errors.tolist() == [0]
    assert curves[TRUE_CHANNEL].diverged == 0


@pytest.mark.parametrize("iterations", [120, 400])
def test_ber_sweep_counts_a_finite_estimate_worse_than_zero(iterations):
    # Shorter mu = 50 training leaves the estimate finite but huge; its
    # final squared error is finite and above n_r at 120 iterations and
    # NaN (an overflowed sum) at 400.  Either way it is not diverged.
    config = ber_config(
        mu=50.0, algorithms=["iss_nlms"], max_iterations=iterations,
        esn0_range_db=[30.0],
    )
    trial = run_trial_rows(config, 0, [("iss_nlms", config.ber_training_snr_db)])
    assert np.isfinite(trial.final_estimate).all()
    final = trial.squared_error[-1, 0]
    assert final > config.n_r if iterations == 120 else np.isnan(final)
    counts = {
        c.algorithm: (c.diverged, c.worse_than_zero) for c in run_ber_sweep(config)
    }
    assert counts == {TRUE_CHANNEL: (0, 0), "iss_nlms": (0, 2)}


def test_ber_sweep_factorizes_each_stack_once(monkeypatch):
    # The erasure mask and the pseudo-inverses come from one batched SVD.
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("pinv runs an SVD of its own")

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(np.linalg, "pinv", refused)
    run_ber_sweep(ber_config())
    assert calls == [{"full_matrices": False}]


def bits_per_frame(config, order):
    return config.subcarrier_count * config.n_t * int(math.log2(order))


@pytest.mark.parametrize(
    "overrides",
    [
        # ber_min_bits binds: 12 and 8 frames, past one full block.
        dict(ber_min_bits=1500, qam_orders=[16, 64]),
        # ber_min_errors binds after ber_min_bits is met, mid-block.
        dict(
            ber_min_bits=300, ber_min_errors=60,
            esn0_range_db=[12.0, 18.0], qam_orders=[16, 64],
        ),
        # ber_max_frames binds below one block.
        dict(ber_min_bits=10**6, ber_max_frames=5),
        # Blocks of 8 and 2 frames over three channels.
        dict(ber_num_channels=3, ber_min_bits=1200),
        # Rank-deficient estimates: every subcarrier erased.
        dict(max_iterations=1, esn0_range_db=[30.0]),
    ],
    ids=["min_bits", "min_errors", "max_frames", "three_channels", "rank_deficient"],
)
def test_block_loop_equals_per_frame_loop(overrides):
    config = ber_config(**overrides)
    reference = per_frame_ber_sweep(config)
    curves = run_ber_sweep(config)
    assert len(curves) == len(reference)
    for curve in curves:
        bit_errors, bits_total = reference[curve.algorithm, curve.qam_order]
        assert curve.bit_errors.tolist() == bit_errors.tolist()
        assert curve.bits_total.tolist() == bits_total.tolist()
    if config.ber_min_errors:
        # Blocks end where ber_min_bits is met, then run whole: at least
        # one point must stop inside a later block, discarding frames.
        inside = []
        for curve in curves:
            per_frame = bits_per_frame(config, curve.qam_order)
            first = -(-config.ber_min_bits // per_frame)
            for used in curve.bits_total // per_frame:
                inside.append(used > first and (used - first) % FRAME_BLOCK != 0)
        assert any(inside)
    if config.ber_max_frames < FRAME_BLOCK:
        for curve in curves:
            assert curve.bits_total.tolist() == [
                config.ber_max_frames * bits_per_frame(config, curve.qam_order)
            ] * 2


def test_block_loop_simulates_no_frame_past_min_bits(monkeypatch):
    # Bound by ber_min_bits (13 frames of 16-QAM, 9 of 64-QAM), so every
    # symbol modulated belongs to a frame that counts.
    modulated = []

    def counting(codes, order):
        modulated.append((order, np.size(codes)))
        return qam_modulate(codes, order)

    # Serial, so the counts are made in this process, not in pool workers.
    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    monkeypatch.setattr(harness, "qam_modulate", counting)
    config = ber_config(ber_min_bits=1600, qam_orders=[16, 64])
    curves = run_ber_sweep(config)
    for order in config.qam_orders:
        curve = next(c for c in curves if c.qam_order == order)
        symbols = sum(size for o, size in modulated if o == order)
        assert symbols * int(math.log2(order)) == curve.bits_total.sum()


def test_genie_ber_matches_closed_form():
    # After zero forcing, stream j on subcarrier k carries unit-energy
    # symbols in circular Gaussian noise of variance N0 [G_k]_jj, with
    # G_k = (H_k^H H_k)^-1, so each axis carries a level in Gaussian noise
    # of variance N0 [G_k]_jj / 2, and its bits err with probability p,
    # the per-axis Gray expectation averaged over levels.  Summed over
    # the frames each channel served, that gives the expected count and,
    # for independent bits, its variance sum p (1 - p).  The bits of a
    # symbol share one noise sample and zero forcing correlates the
    # streams' noise, which across seeds 0-9 widened z to a standard
    # deviation of 1.23 (largest |z| 3.46 of 80 points); the bound of 5
    # keeps a margin of four such deviations.  Noise 5% too strong gives
    # |z| >= 8.9 at every point, a DFT without 1 / sqrt(K) and a
    # non-Gray level map give more than 16.
    gamma = np.array([0.5, 3.0, 30.0])
    qpsk = [q(math.sqrt(g)) for g in gamma]
    levels = qam_levels(4)
    axis = [gray_axis_errors(4, i, a, np.sqrt(0.5 / gamma)) for i, a in enumerate(levels)]
    np.testing.assert_allclose(np.mean(axis, axis=0), qpsk, rtol=1e-14)
    config = ExperimentConfig(
        algorithms=["iss_nlms"],
        max_iterations=10,
        ber_num_channels=3,
        qam_orders=[16, 64],
        esn0_range_db=[10.0, 15.0, 20.0, 25.0],
        ber_min_bits=10**9,
        ber_max_frames=300,
        rng_seed=12345,
    )
    k, n_t = config.subcarrier_count, config.n_t
    g_diagonals = []
    for trial in range(config.ber_num_channels):
        chan = generate_sparse_channel(
            np.random.default_rng([config.rng_seed, trial, 0]),
            n_t, config.n_r, config.tap_length, config.sparsity,
        )
        cirs = chan.reshape(config.n_r, n_t, config.tap_length)
        h = np.moveaxis(np.fft.fft(cirs, n=k, axis=2), 2, 0)
        g = np.linalg.inv(h.conj().transpose(0, 2, 1) @ h)
        g_diagonals.append(np.diagonal(g, axis1=1, axis2=2).real)
    frames = np.bincount(np.arange(config.ber_max_frames) % config.ber_num_channels)
    z = []
    for curve in run_ber_sweep(config):
        if curve.algorithm != TRUE_CHANNEL:
            continue
        bits_per_symbol = int(math.log2(curve.qam_order))
        assert curve.bits_total.tolist() == [300 * k * n_t * bits_per_symbol] * 4
        bits = frames[:, None, None] * bits_per_symbol
        levels = qam_levels(curve.qam_order)
        for esn0, errors in zip(config.esn0_range_db, curve.bit_errors, strict=True):
            sd = np.sqrt(10.0 ** (-esn0 / 10.0) * np.array(g_diagonals) / 2.0)
            axis = [gray_axis_errors(curve.qam_order, i, a, sd) for i, a in enumerate(levels)]
            p = np.mean(axis, axis=0) / (bits_per_symbol // 2)
            expected = np.sum(bits * p)
            z.append((errors - expected) / math.sqrt(np.sum(bits * p * (1 - p))))
    assert len(z) == 8
    assert max(map(abs, z)) <= 5.0


def zero_forcing_expectation(config, channel, estimate, n0):
    """Expected bit errors of one frame, and their variance, with ``estimate``.

    Written apart from the harness: on subcarrier k, zero forcing with
    P = pinv(Ĥ_k) gives stream i the value sum_j [P H_k]_ij s_j plus
    circular noise of variance N0 ||P_i||^2, so each axis sees its mean
    in Gaussian noise of variance N0 ||P_i||^2 / 2.  The expectation
    averages the per-axis Gray errors over all order^n_t symbol vectors;
    an erased subcarrier (rank rule of the README) counts every bit.
    The variance treats the bits as independent.
    """
    k, n_t, n_r = config.subcarrier_count, config.n_t, config.n_r
    (order,) = config.qam_orders
    levels = qam_levels(order)
    bits_per_axis = int(math.log2(order)) // 2

    def response(cir):  # (k, n_r, n_t)
        cirs = cir.reshape(n_r, n_t, config.tap_length)
        return np.moveaxis(np.fft.fft(cirs, n=k, axis=2), 2, 0)

    h, h_hat = response(channel), response(estimate)
    singular = np.linalg.svd(h_hat, compute_uv=False)
    erased = singular[:, -1] <= 1e-12 * singular[:, 0]
    p = np.linalg.pinv(h_hat)
    # Every symbol vector: its (in-phase, quadrature) level per stream.
    sent = np.indices((levels.size,) * (2 * n_t)).reshape(n_t, 2, -1)
    symbols = levels[sent[:, 0]] + 1j * levels[sent[:, 1]]
    mean = (p @ h) @ symbols
    sd = np.sqrt(n0 * np.sum(np.abs(p) ** 2, axis=2) / 2.0)[..., None]
    errors = np.stack([
        gray_axis_errors(order, sent[:, 0], mean.real, sd),
        gray_axis_errors(order, sent[:, 1], mean.imag, sd),
    ]).mean(axis=-1)
    bit_p = errors / bits_per_axis
    variance = np.sum(bits_per_axis * bit_p * (1.0 - bit_p), axis=(0, 2))
    errors = errors.sum(axis=(0, 2))
    errors[erased] = 2 * n_t * bits_per_axis
    variance[erased] = 0.0
    return errors.sum(), variance.sum()


@pytest.mark.parametrize("iterations", [30, 300])
def test_trained_ber_matches_its_exact_expectation(iterations):
    # Every detector's bit errors, estimators trained poorly (30
    # iterations) or well (300), against the expectation built from each
    # training channel's true channel and frozen estimate by the test's
    # own FFT and pseudo-inverse.  Seeds 0-9 gave a largest |z| of 2.40
    # over 120 points, with a standard deviation of 1.13; the bound of 5
    # is twice that largest value.  Transposing the harness's
    # pseudo-inverses gives |z| >= 70 at every point, and detecting each
    # estimator with the other's estimate |z| >= 12 at every estimator
    # point.  Noise 5% too strong reaches only |z| 3.1, so this test does
    # not catch it; the genie test does.
    config = ber_config(
        algorithms=["iss_nlms", "vss_rza_nlms"],
        esn0_range_db=[15.0, 25.0],
        ber_num_channels=3,
        ber_min_bits=10**9,
        ber_max_frames=400,
        max_iterations=iterations,
        rng_seed=0,
    )
    pairs = [(a, config.ber_training_snr_db) for a in config.algorithms]
    frames = np.bincount(np.arange(400) % config.ber_num_channels)
    expected = {}
    for trial, count in enumerate(frames):
        result = run_trial_rows(config, trial, pairs)
        estimates = [result.channel, *result.final_estimate]
        for detector, estimate in zip([TRUE_CHANNEL, *config.algorithms], estimates):
            for esn0 in config.esn0_range_db:
                mean, variance = zero_forcing_expectation(
                    config, result.channel, estimate, 10.0 ** (-esn0 / 10.0)
                )
                total = expected.get((detector, esn0), 0.0)
                expected[detector, esn0] = total + count * np.array([mean, variance])
    z = []
    for curve in run_ber_sweep(config):
        for esn0, errors in zip(config.esn0_range_db, curve.bit_errors, strict=True):
            mean, variance = expected[curve.algorithm, esn0]
            z.append((errors - mean) / math.sqrt(variance))
    assert len(z) == 6
    assert max(map(abs, z)) <= 5.0
