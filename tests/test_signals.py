"""Unit tests for training data and the frequency-domain OFDM model."""

import numpy as np
import pytest

from sparsenlms.harness import _frequency_responses, training_chunk


def test_regressor_length():
    x, noise = training_chunk(np.random.default_rng(0), 7, 4, 16)
    assert x.shape == (7, 64)
    assert noise.shape == (7,)


def test_regressor_mean_power_is_unit():
    x, _ = training_chunk(np.random.default_rng(200), 10_000, 4, 16)
    energy = np.sum(x.real**2 + x.imag**2, axis=1)
    assert energy.mean() == pytest.approx(1.0, rel=0.02)


def test_regressor_determinism():
    a, noise_a = training_chunk(np.random.default_rng(42), 5, 2, 8)
    b, noise_b = training_chunk(np.random.default_rng(42), 5, 2, 8)
    assert np.array_equal(a, b) and np.array_equal(noise_a, noise_b)
    # Chunks of any size continue one stream: the draws equal one
    # iteration at a time of real parts, imaginary parts, noise pair.
    rng = np.random.default_rng(42)
    parts = [training_chunk(rng, count, 2, 8) for count in (2, 1, 2)]
    assert np.array_equal(np.concatenate([p[0] for p in parts]), a)
    assert np.array_equal(np.concatenate([p[1] for p in parts]), noise_a)
    sequential = np.random.default_rng(42)
    for i in range(5):
        x = np.sqrt(0.5 / 16) * (
            sequential.standard_normal(16) + 1j * sequential.standard_normal(16)
        )
        pair = sequential.standard_normal(2)
        assert np.array_equal(x, a[i])
        assert noise_a[i] == pair[0] + 1j * pair[1]


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
