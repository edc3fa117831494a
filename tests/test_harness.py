"""Unit tests for experiment orchestration, metrics and persistence."""

import csv
import io

import numpy as np
import pytest

from sparsenlms import filters
from sparsenlms.channel import generate_sparse_channel
from sparsenlms.harness import (
    CHUNK_ITERATIONS,
    BerCurve,
    ExperimentConfig,
    MseCurve,
    TRUE_CHANNEL,
    _antennas,
    channel_error,
    run_ber_sweep,
    run_estimation_trial,
    run_monte_carlo_mse,
    run_trial_rows,
    steady_state_mean,
    write_ber_csv,
    write_mse_csv,
    write_stepsize_csv,
)


def small_config(**kwargs):
    defaults = dict(
        snr_db=[10.0],
        algorithms=[filters.VSS_NLMS],
        max_iterations=50,
        num_trials=2,
        rng_seed=99,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def per_sample_trial(config, trial_index, algorithm, snr_db):
    """One estimation trial written the slow way, as a reference.

    Each iteration draws its regressor and noise pair on its own, calls
    ``filters.step`` for the scheduled antenna, scores the whole
    estimate with ``channel_error`` and applies the stop rule to the
    whole matrix.  Returns ``(squared_error, step_trace, estimate,
    iterations_run)`` up to the stopping iteration.
    """
    algo = config.algorithm_config(algorithm, snr_db)
    chan = generate_sparse_channel(
        np.random.default_rng([config.rng_seed, trial_index, 0]),
        config.n_t, config.n_r, config.tap_length, config.sparsity,
    )
    rng = np.random.default_rng([config.rng_seed, trial_index, 1])
    length = config.filter_length()
    sigma = np.sqrt(config.noise_variance(snr_db) / 2.0)
    states = [filters.initial_state(length, algo) for _ in range(config.n_r)]
    estimate = np.zeros((config.n_r, length), dtype=complex)
    errors, steps = [], []
    for n in range(1, config.max_iterations + 1):
        antenna = (n - 1) % config.n_r
        x = np.sqrt(0.5 / length) * (
            rng.standard_normal(length) + 1j * rng.standard_normal(length)
        )
        pair = rng.standard_normal(2)
        y = np.dot(chan.entries[antenna], x) + sigma * (pair[0] + 1j * pair[1])
        previous = estimate.copy()
        states[antenna], _ = filters.step(states[antenna], x, y, algo)
        estimate[antenna] = states[antenna].weights
        errors.append(channel_error(chan.entries, estimate))
        steps.append(states[antenna].step_size)
        moved = channel_error(previous, estimate)
        if 0.0 < config.stop_epsilon and moved <= config.stop_epsilon:
            break
    return np.array(errors), np.array(steps), estimate, n


# -- scheduling ---------------------------------------------------------------


def test_antenna_selection_examples():
    # Iteration n (1-based) updates antenna (n - 1) mod n_r (0-based).
    assert _antennas(0, 5, 4).tolist() == [0, 1, 2, 3, 0]
    assert _antennas(3, 1, 4).tolist() == [3]
    assert _antennas(4, 1, 4).tolist() == [0]
    assert _antennas(0, 9, 1).tolist() == [0] * 9


def test_antenna_selection_rejects_bad_arguments():
    # The schedule's iteration and antenna counts come from the config,
    # which rejects zero for both.
    with pytest.raises(ValueError, match="max_iterations"):
        small_config(max_iterations=0)
    with pytest.raises(ValueError, match="n_r"):
        small_config(n_r=0)


def test_round_robin_is_fair():
    for k in (1, 3, 7):
        picks = _antennas(0, 4 * k, 4).tolist()
        for antenna in (0, 1, 2, 3):
            assert picks.count(antenna) == k
    # Each chunk continues the schedule where the previous one stopped.
    split = np.concatenate([_antennas(0, 6, 4), _antennas(6, 5, 4)])
    assert np.array_equal(split, _antennas(0, 11, 4))
    # Three updates touch the first three antennas and leave the fourth.
    estimate = run_estimation_trial(small_config(max_iterations=3), 0).final_estimate
    assert [bool(np.any(row)) for row in estimate] == [True, True, True, False]


def test_check_stop_examples():
    # A row freezes at its first update whose squared norm is at most
    # stop_epsilon; 0 switches the rule off.
    assert run_estimation_trial(small_config(stop_epsilon=1e9), 0).iterations_run == 1
    never = run_estimation_trial(small_config(stop_epsilon=0.0), 0)
    assert never.iterations_run == 50
    config = small_config(stop_epsilon=1e-5, max_iterations=400)
    for variant in (filters.ISS_NLMS, filters.VSS_RZA_NLMS):
        result = run_estimation_trial(config, 0, algorithm=variant)
        _, _, _, stopped = per_sample_trial(config, 0, variant, 10.0)
        assert result.iterations_run == stopped < 400


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
    result = run_estimation_trial(config, 0)
    zero = np.zeros_like(result.channel.entries)
    assert channel_error(result.channel.entries, zero) == 4.0


def test_steady_state_mean():
    values = np.arange(10.0)
    assert steady_state_mean(values) == 9.0
    assert steady_state_mean(values, fraction=0.5) == 7.0
    assert steady_state_mean(np.array([3.0]), fraction=0.1) == 3.0


# -- estimation trials --------------------------------------------------------


def test_trial_is_deterministic():
    config = small_config()
    a = run_estimation_trial(config, 1)
    b = run_estimation_trial(config, 1)
    assert np.array_equal(a.squared_error, b.squared_error)
    assert np.array_equal(a.final_estimate, b.final_estimate)
    assert np.array_equal(a.step_trace, b.step_trace)


def test_trial_data_is_algorithm_and_snr_independent():
    config = small_config(snr_db=[10.0, 20.0], algorithms=list(filters.VARIANTS))
    base = run_estimation_trial(config, 0, algorithm="iss_nlms", snr_db=10.0)
    other = run_estimation_trial(config, 0, algorithm="vss_rza_nlms", snr_db=20.0)
    assert np.array_equal(base.channel.entries, other.channel.entries)


def test_all_variants_run_to_completion():
    config = small_config(algorithms=list(filters.VARIANTS))
    for variant in filters.VARIANTS:
        result = run_estimation_trial(config, 0, algorithm=variant)
        assert result.squared_error.shape == (config.max_iterations,)
        assert np.all(result.squared_error >= 0.0)
        assert np.all(np.isfinite(result.squared_error))


def test_early_stop_pads_series():
    config = small_config(stop_epsilon=1e9)
    result = run_estimation_trial(config, 0)
    assert result.iterations_run == 1
    assert result.squared_error.shape == (config.max_iterations,)
    assert np.all(result.squared_error == result.squared_error[0])


def test_trial_rejects_negative_index():
    with pytest.raises(ValueError, match="trial_index"):
        run_estimation_trial(small_config(), -1)


def test_monte_carlo_single_trial_degenerates_to_the_trial():
    config = small_config(num_trials=1)
    curve = run_monte_carlo_mse(config)[0]
    trial = run_estimation_trial(config, 0)
    assert np.array_equal(curve.values, trial.squared_error)
    assert curve.algorithm == filters.VSS_NLMS
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


@pytest.mark.parametrize("stop_epsilon", [0.0, 1e-5])
def test_kernel_matches_per_sample_reference(stop_epsilon):
    # The chunked draws reproduce the per-iteration stream bit for bit,
    # so estimates and step sizes are equal; the incremental metric
    # only sums in another order.
    config = small_config(
        snr_db=[10.0, float("inf")], max_iterations=300, stop_epsilon=stop_epsilon
    )
    for variant in filters.VARIANTS:
        for snr in config.snr_db:
            result = run_estimation_trial(config, 1, algorithm=variant, snr_db=snr)
            errors, steps, estimate, stopped = per_sample_trial(config, 1, variant, snr)
            assert result.iterations_run == stopped
            assert np.array_equal(result.final_estimate, estimate)
            assert np.array_equal(result.step_trace[:stopped], steps)
            np.testing.assert_allclose(
                result.squared_error[:stopped], errors, rtol=1e-12, atol=0
            )


@pytest.mark.parametrize(
    "stop_epsilon, n_r",
    [(0.0, 4), (1e-5, 4), (0.0, 9), (1e-6, 9)],
    ids=["0.0", "1e-05", "0.0-n_r9", "1e-06-n_r9"],
)
def test_batch_rows_equal_batch_of_one(stop_epsilon, n_r):
    # From n_r = 8 on, numpy would sum a contiguous (n_r, 1) column
    # pairwise, so summing antennas in one call would make a row of
    # the batch differ from its batch of one.  At n_r = 9 the smaller
    # threshold makes rows freeze both in the first chunk and after it.
    config = small_config(
        n_r=n_r,
        snr_db=[10.0, 20.0],
        algorithms=list(filters.VARIANTS),
        max_iterations=1000,
        stop_epsilon=stop_epsilon,
    )
    pairs = [(a, snr) for a in config.algorithms for snr in config.snr_db]
    batch = run_trial_rows(config, 0, pairs)
    for (algorithm, snr), row in zip(pairs, batch):
        alone = run_estimation_trial(config, 0, algorithm=algorithm, snr_db=snr)
        assert np.array_equal(row.squared_error, alone.squared_error)
        assert np.array_equal(row.step_trace, alone.step_trace)
        assert np.array_equal(row.final_estimate, alone.final_estimate)
        assert row.iterations_run == alone.iterations_run
    runs = {row.iterations_run for row in batch}
    if stop_epsilon:
        # Rows freeze at different iterations, in the first chunk and
        # after it.
        assert len(runs) >= 3 and min(runs) < CHUNK_ITERATIONS < max(runs) < 1000
    else:
        assert runs == {1000}


@pytest.mark.parametrize("stop_epsilon", [0.0, 1e-4])
def test_incremental_metric_matches_channel_error(stop_epsilon):
    config = small_config(
        snr_db=[10.0, 20.0],
        algorithms=list(filters.VARIANTS),
        max_iterations=777,
        stop_epsilon=stop_epsilon,
    )
    pairs = [(a, snr) for a in config.algorithms for snr in config.snr_db]
    for row in run_trial_rows(config, 3, pairs):
        np.testing.assert_allclose(
            row.squared_error[-1],
            channel_error(row.channel.entries, row.final_estimate),
            rtol=1e-12,
        )


def test_divergence_is_counted():
    # An adaptive step pinned near 2 at -20 dB drives the error far
    # above the all-zero estimator's n_r = 4.
    diverging = small_config(
        snr_db=[-20.0], c_threshold=1e-9, mu_max=1.99, max_iterations=100
    )
    curve = run_monte_carlo_mse(diverging)[0]
    assert curve.diverged == 2
    assert curve.values[-1] > 4.0
    assert run_monte_carlo_mse(small_config())[0].diverged == 0


def test_iss_nlms_steady_state_matches_theory():
    # NLMS steady-state misalignment (Sayed): per antenna
    # mu / (2 - mu) * noise_var * L / E||x||^2, with E||x||^2 = 1 here.
    # E[1 / ||x||^2] = L / (L - 1) puts the simulation about 1.6% above.
    config = ExperimentConfig(
        algorithms=["iss_nlms"],
        snr_db=[10.0, 20.0],
        num_trials=4,
        max_iterations=20_000,
        rng_seed=12345,
    )
    for curve in run_monte_carlo_mse(config):
        theory = (
            config.n_r
            * config.mu
            / (2.0 - config.mu)
            * config.noise_variance(curve.snr_db)
            * config.filter_length()
        )
        simulated = curve.values[10_000:].mean()
        assert simulated / theory == pytest.approx(1.0, abs=0.05)


# -- configuration ------------------------------------------------------------


def test_config_power_conventions():
    config = ExperimentConfig()
    assert config.filter_length() == 64
    assert config.received_signal_power() == pytest.approx(1 / 64)
    assert config.noise_variance(10.0) == pytest.approx(0.1 / 64)
    assert config.noise_variance(20.0) == pytest.approx(0.01 / 64)


def test_config_rho_defaults_follow_sparsity():
    sparse = ExperimentConfig(sparsity=1)
    denser = ExperimentConfig(sparsity=4)
    assert sparse.resolved_rho_za() == 0.006
    assert sparse.resolved_rho_rza() == 0.0006
    assert denser.resolved_rho_za() == 0.002
    assert denser.resolved_rho_rza() == 0.0002


def test_config_gamma_resolution():
    config = ExperimentConfig(sparsity=1)
    algo = config.algorithm_config(filters.VSS_RZA_NLMS, 10.0)
    variance = config.noise_variance(10.0)
    assert algo.gamma_za == pytest.approx(0.2 * 0.006 * variance, rel=1e-12)
    assert algo.gamma_rza == pytest.approx(0.2 * 0.0006 * 20.0 * variance, rel=1e-12)
    assert algo.epsilon_rza == 20.0


def test_config_c_by_snr_table():
    config = ExperimentConfig(c_by_snr={10.0: 1e-5})
    assert config.c_for_snr(10.0) == 1e-5
    assert config.c_for_snr(20.0) == config.c_threshold


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
    # Filter parameters are checked for every algorithm at every SNR,
    # the BER training SNR included.
    with pytest.raises(ValueError, match="mu must be positive"):
        ExperimentConfig(mu=-1.0, algorithms=["iss_nlms"])
    with pytest.raises(ValueError, match="beta"):
        ExperimentConfig(beta=5.0, algorithms=["vss_nlms"])
    with pytest.raises(ValueError, match="c_threshold"):
        ExperimentConfig(
            snr_db=[20.0], ber_training_snr_db=10.0, c_by_snr={10.0: 0.0}
        )


def test_config_dict_round_trip():
    config = ExperimentConfig(snr_db=[5.0], c_by_snr={5.0: 1e-4}, sparsity=4)
    clone = ExperimentConfig.from_dict(config.to_dict())
    assert clone == config


def test_config_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="not_a_field"):
        ExperimentConfig.from_dict({"not_a_field": 3})


def test_config_from_dict_accepts_scalars_for_lists():
    config = ExperimentConfig.from_dict(
        {"snr_db": 20, "qam_orders": 16, "algorithms": "vss_nlms"}
    )
    assert config.snr_db == [20.0]
    assert config.qam_orders == [16]
    assert config.algorithms == ["vss_nlms"]


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
    curves = run_ber_sweep(ber_config())
    names = [(c.algorithm, c.qam_order) for c in curves]
    assert (TRUE_CHANNEL, 16) in names
    assert ("vss_nlms", 16) in names
    for curve in curves:
        assert np.all((curve.ber >= 0.0) & (curve.ber <= 1.0))
        assert np.all(curve.bits_total >= 2000)
        assert np.array_equal(curve.esn0_db, [15.0, 30.0])
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
    assert estimator.ber.tolist() == [1.0]
    assert curves[TRUE_CHANNEL].bit_errors.tolist() == [0]


# -- persistence --------------------------------------------------------------


def test_mse_csv_format(tmp_path):
    config = small_config(max_iterations=5, num_trials=1)
    curve = run_monte_carlo_mse(config)[0]
    path = tmp_path / "curve.csv"
    write_mse_csv(path, curve)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# mse-curve algorithm=vss_nlms snr_db=10")
    assert lines[1] == "iteration,mse_linear,mse_db"
    assert len(lines) == 2 + 5
    first = lines[2].split(",")
    assert first[0] == "1"
    assert float(first[1]) == curve.values[0]


def test_csv_writers_match_csv_module_bytes(tmp_path):
    values = np.array([0.0, 1e-300, 1.0, 1e300])
    curve = MseCurve(
        values=values, algorithm="iss_nlms", snr_db=10.0, sparsity=1,
        num_trials=1, rng_seed=3,
    )
    write_mse_csv(tmp_path / "mse.csv", curve)
    write_stepsize_csv(tmp_path / "step.csv", values, "iss_nlms", 10.0, 1, 3)
    ber = BerCurve(
        esn0_db=np.array([12.0, 13.5, 15.0, 30.0]), ber=values,
        bit_errors=np.array([0, 1, 2, 2**40], dtype=np.int64),
        bits_total=np.array([1, 7, 1024, 2**50], dtype=np.int64),
        algorithm="iss_nlms", qam_order=16, training_snr_db=10.0, sparsity=1,
        rng_seed=3,
    )
    write_ber_csv(tmp_path / "ber.csv", ber)

    expected_mse, expected_step = io.StringIO(), io.StringIO()
    expected_ber = io.StringIO()
    writer = csv.writer(expected_mse, lineterminator="\n")
    writer.writerow(["iteration", "mse_linear", "mse_db"])
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(values)
    for i, (linear, decibel) in enumerate(zip(values, db), start=1):
        writer.writerow([i, repr(float(linear)), repr(float(decibel))])
    writer = csv.writer(expected_step, lineterminator="\n")
    writer.writerow(["iteration", "step_size"])
    for i, value in enumerate(values, start=1):
        writer.writerow([i, repr(float(value))])

    writer = csv.writer(expected_ber, lineterminator="\n")
    writer.writerow(["esn0_db", "ber", "bit_errors", "bits_total"])
    for row in zip(ber.esn0_db, ber.ber, ber.bit_errors, ber.bits_total):
        writer.writerow([repr(float(row[0])), repr(float(row[1])), *map(int, row[2:])])

    mse_lines = (tmp_path / "mse.csv").read_bytes().split(b"\n", 1)
    step_lines = (tmp_path / "step.csv").read_bytes().split(b"\n", 1)
    ber_lines = (tmp_path / "ber.csv").read_bytes().split(b"\n", 1)
    assert mse_lines[1] == expected_mse.getvalue().encode()
    assert step_lines[1] == expected_step.getvalue().encode()
    assert ber_lines[1] == expected_ber.getvalue().encode()
    assert b"1,0.0,-inf\n" in mse_lines[1]
