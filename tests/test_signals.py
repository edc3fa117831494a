"""Unit tests for training regressors and the frequency-domain OFDM model."""

import numpy as np
import pytest

from sparsenlms.harness import _frequency_responses
from sparsenlms.signals import generate_training_regressor


def test_regressor_length():
    rng = np.random.default_rng(0)
    assert generate_training_regressor(rng, 4, 16).size == 64


def test_regressor_mean_power_is_unit():
    rng = np.random.default_rng(200)
    total = 0.0
    for _ in range(10_000):
        x = generate_training_regressor(rng, 4, 16)
        total += np.vdot(x, x).real
    assert total / 10_000 == pytest.approx(1.0, rel=0.02)


def test_regressor_determinism():
    a = generate_training_regressor(np.random.default_rng(42), 2, 8)
    b = generate_training_regressor(np.random.default_rng(42), 2, 8)
    assert np.array_equal(a, b)


def test_regressor_validates_arguments():
    with pytest.raises(ValueError, match="at least 1"):
        generate_training_regressor(np.random.default_rng(0), 0, 8)


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
