"""Unit tests for experiment orchestration, metrics and persistence."""

import numpy as np
import pytest

from sparsenlms import filters
from sparsenlms.harness import (
    ExperimentConfig,
    TRUE_CHANNEL,
    channel_error,
    check_stop,
    run_ber_sweep,
    run_estimation_trial,
    run_monte_carlo_mse,
    select_receive_antenna,
    steady_state_mean,
    write_mse_csv,
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


# -- scheduling ---------------------------------------------------------------


def test_antenna_selection_examples():
    assert select_receive_antenna(1, 4) == 1
    assert select_receive_antenna(4, 4) == 4
    assert select_receive_antenna(5, 4) == 1
    assert all(select_receive_antenna(n, 1) == 1 for n in range(1, 10))


def test_antenna_selection_rejects_bad_arguments():
    with pytest.raises(ValueError, match="iteration"):
        select_receive_antenna(0, 4)
    with pytest.raises(ValueError, match="n_r_count"):
        select_receive_antenna(1, 0)


def test_round_robin_is_fair():
    for k in (1, 3, 7):
        picks = [select_receive_antenna(n, 4) for n in range(1, 4 * k + 1)]
        for antenna in (1, 2, 3, 4):
            assert picks.count(antenna) == k


def test_check_stop_examples():
    same = np.ones((2, 3), dtype=complex)
    assert check_stop(same, same, 1)
    assert check_stop(np.zeros((1, 1)), np.ones((1, 1)), 5001)
    moved = np.zeros((1, 1), dtype=complex)
    moved_next = np.array([[np.sqrt(2e-5)]], dtype=complex)
    assert not check_stop(moved, moved_next, 10)


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
