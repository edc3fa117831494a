"""Unit tests for sparse channel generation and application."""

import numpy as np
import pytest

from sparsenlms.channel import NoiseModel, apply_channel, generate_sparse_channel


def test_noise_model_from_snr():
    noise = NoiseModel.from_snr_db(10.0, signal_power=1 / 64)
    assert noise.snr_db == 10.0
    assert noise.variance == pytest.approx((1 / 64) * 0.1, rel=1e-12)


def test_noise_model_rejects_negative_variance():
    with pytest.raises(ValueError, match="variance"):
        NoiseModel(variance=-1.0, snr_db=0.0)


def test_sparsity_counts_per_link_and_row():
    rng = np.random.default_rng(100)
    chan = generate_sparse_channel(rng, 4, 4, 16, 1)
    assert chan.entries.shape == (4, 64)
    cirs = chan.entries.reshape(4, 4, 16)
    for ir in range(4):
        assert np.count_nonzero(chan.entries[ir]) == 4
        for it in range(4):
            assert np.count_nonzero(cirs[ir, it]) == 1


def test_denser_channel_sparsity():
    rng = np.random.default_rng(101)
    chan = generate_sparse_channel(rng, 4, 4, 16, 4)
    cirs = chan.entries.reshape(4, 4, 16)
    assert np.all(np.count_nonzero(cirs, axis=2) == 4)


def test_rows_have_unit_norm():
    rng = np.random.default_rng(102)
    for sparsity in (1, 4, 16):
        chan = generate_sparse_channel(rng, 4, 4, 16, sparsity)
        norms = np.sqrt(np.sum(np.abs(chan.entries) ** 2, axis=1))
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_generation_is_deterministic():
    a = generate_sparse_channel(np.random.default_rng(7), 2, 3, 8, 2)
    b = generate_sparse_channel(np.random.default_rng(7), 2, 3, 8, 2)
    assert np.array_equal(a.entries, b.entries)


def test_generation_validates_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="sparsity"):
        generate_sparse_channel(rng, 2, 2, 4, 5)
    with pytest.raises(ValueError, match="antenna"):
        generate_sparse_channel(rng, 0, 2, 4, 1)
    with pytest.raises(ValueError, match="tap_length"):
        generate_sparse_channel(rng, 2, 2, 0, 1)


def test_support_positions_are_uniform():
    # Chi-square goodness of fit over 1e4 single-tap links; 30.578 is
    # the 1% critical value at 15 degrees of freedom.
    rng = np.random.default_rng(103)
    counts = np.zeros(16)
    for _ in range(10_000):
        chan = generate_sparse_channel(rng, 1, 1, 16, 1)
        counts[np.nonzero(chan.entries[0])[0]] += 1
    expected = 10_000 / 16
    statistic = np.sum((counts - expected) ** 2) / expected
    assert statistic < 30.578


def test_apply_channel_dead_channel():
    noise = NoiseModel(variance=0.0, snr_db=np.inf)
    rng = np.random.default_rng(1)
    y = apply_channel(np.zeros(8, complex), np.ones(8, complex), noise, rng)
    assert y == 0


def test_apply_channel_selector():
    noise = NoiseModel(variance=0.0, snr_db=np.inf)
    rng = np.random.default_rng(2)
    h = np.zeros(8, dtype=complex)
    h[5] = 1.0
    x = (np.arange(8) + 1j * np.arange(8)).astype(complex)
    assert apply_channel(h, x, noise, rng) == x[5]


def test_apply_channel_rejects_mismatch():
    noise = NoiseModel(variance=0.0, snr_db=np.inf)
    with pytest.raises(ValueError, match="does not match"):
        apply_channel(np.zeros(4, complex), np.zeros(3, complex), noise,
                      np.random.default_rng(3))


def test_noise_variance_matches_model():
    rng = np.random.default_rng(104)
    noise = NoiseModel(variance=0.05, snr_db=0.0)
    h = np.zeros(4, dtype=complex)
    x = np.zeros(4, dtype=complex)
    draws = np.array([apply_channel(h, x, noise, rng) for _ in range(100_000)])
    sample_variance = np.mean(np.abs(draws) ** 2)
    assert sample_variance == pytest.approx(0.05, rel=0.03)
    # Circular symmetry: real and imaginary parts carry half each.
    assert draws.real.var() == pytest.approx(0.025, rel=0.05)
    assert draws.imag.var() == pytest.approx(0.025, rel=0.05)


def test_noiseless_stream_stays_aligned():
    # Zero-variance runs consume the same rng draws as noisy ones, so
    # the regressor stream downstream of apply_channel is unaffected by
    # the noise setting.
    h = np.zeros(2, dtype=complex)
    x = np.zeros(2, dtype=complex)
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    apply_channel(h, x, NoiseModel(variance=0.0, snr_db=np.inf), rng_a)
    apply_channel(h, x, NoiseModel(variance=1.0, snr_db=0.0), rng_b)
    assert rng_a.standard_normal() == rng_b.standard_normal()
