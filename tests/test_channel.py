"""Unit tests for sparse channel generation and noisy observation."""

import numpy as np
import pytest

from sparsenlms.channel import generate_sparse_channel
from sparsenlms.config import ExperimentConfig
from sparsenlms.harness import _observe, training_chunk


def test_noise_model_from_snr():
    # 4 x 16 taps: received power 1/64, tenfold below it at 10 dB.
    config = ExperimentConfig(n_t=4, tap_length=16)
    assert config.noise_variance(10.0) == pytest.approx((1 / 64) * 0.1, rel=1e-12)
    assert config.noise_variance(float("inf")) == 0.0


def test_sparsity_counts_per_link_and_row():
    rng = np.random.default_rng(100)
    chan = generate_sparse_channel(rng, 4, 4, 16, 1)
    assert chan.shape == (4, 64)
    cirs = chan.reshape(4, 4, 16)
    for ir in range(4):
        assert np.count_nonzero(chan[ir]) == 4
        for it in range(4):
            assert np.count_nonzero(cirs[ir, it]) == 1


def test_denser_channel_sparsity():
    rng = np.random.default_rng(101)
    chan = generate_sparse_channel(rng, 4, 4, 16, 4)
    cirs = chan.reshape(4, 4, 16)
    assert np.all(np.count_nonzero(cirs, axis=2) == 4)


def test_rows_have_unit_norm():
    rng = np.random.default_rng(102)
    for sparsity in (1, 4, 16):
        chan = generate_sparse_channel(rng, 4, 4, 16, sparsity)
        norms = np.sqrt(np.sum(np.abs(chan) ** 2, axis=1))
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_generation_is_deterministic():
    a = generate_sparse_channel(np.random.default_rng(7), 2, 3, 8, 2)
    b = generate_sparse_channel(np.random.default_rng(7), 2, 3, 8, 2)
    assert np.array_equal(a, b)


def test_support_positions_are_uniform():
    # Chi-square goodness of fit over 1e4 single-tap links; 30.578 is
    # the 1% critical value at 15 degrees of freedom.
    rng = np.random.default_rng(103)
    counts = np.zeros(16)
    for _ in range(10_000):
        chan = generate_sparse_channel(rng, 1, 1, 16, 1)
        counts[np.nonzero(chan[0])[0]] += 1
    expected = 10_000 / 16
    statistic = np.sum((counts - expected) ** 2) / expected
    assert statistic < 30.578


def test_observe_dead_channel():
    x, noise = training_chunk(np.random.default_rng(1), 3, 1, 8)
    y = _observe(np.zeros((2, 8), complex), np.array([0, 1, 0]), x.conj(), noise,
                 np.array([0.0]))
    assert y.shape == (3, 1)
    assert np.all(y == 0)


def test_observe_selector():
    h = np.zeros((1, 8), dtype=complex)
    h[0, 5] = 1.0
    x = (np.arange(8) + 1j * np.arange(8)).astype(complex)[None, :]
    y = _observe(h, np.array([0]), x.conj(), np.ones(1, complex), np.array([0.0]))
    assert y[0, 0] == x[0, 5]


def test_noise_variance_matches_model():
    # Received power 1/2, so 10 dB leaves a noise variance of 0.05.
    variance = ExperimentConfig(n_t=1, tap_length=2).noise_variance(10.0)
    x, noise = training_chunk(np.random.default_rng(104), 100_000, 1, 1)
    scale = np.array([np.sqrt(variance / 2.0)])
    draws = _observe(np.zeros((1, 1), complex), np.zeros(x.shape[0], int), x.conj(),
                     noise, scale)[:, 0]
    sample_variance = np.mean(np.abs(draws) ** 2)
    assert sample_variance == pytest.approx(0.05, rel=0.03)
    # Circular symmetry: real and imaginary parts carry half each.
    assert draws.real.var() == pytest.approx(0.025, rel=0.05)
    assert draws.imag.var() == pytest.approx(0.025, rel=0.05)


def test_noiseless_stream_stays_aligned():
    # The noise pair is drawn whatever the variance, so rows at every
    # SNR share one stream; a zero-variance row observes exactly the
    # clean product and a noisy row in the same batch does not.
    rng = np.random.default_rng(9)
    h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    x, noise = training_chunk(rng, 6, 2, 2)
    antennas = np.array([0, 1, 0, 1, 0, 1])
    y = _observe(h, antennas, x.conj(), noise, np.array([0.0, 1.0]))
    clean = np.array([np.dot(h[a], row) for a, row in zip(antennas, x)])
    assert np.array_equal(y[:, 0], clean)
    assert np.array_equal(y[:, 1], clean + noise)
    assert np.all(y[:, 1] != clean)
