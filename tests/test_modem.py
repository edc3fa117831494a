"""Unit tests for Gray QAM mapping and per-subcarrier zero-forcing detection."""

import math

import numpy as np
import pytest

from per_frame_ber import nearest_level_codes_reference
from theory import q
from sparsenlms.config import QAM_ORDERS
from sparsenlms.harness import _zero_forcing_tables
from sparsenlms.modem import (
    _nearest_level_codes,
    code_bit_errors,
    qam_constellation,
    qam_demodulate,
    qam_modulate,
)


def test_bits_per_symbol():
    assert qam_constellation(16).bits_per_symbol == 4
    assert qam_constellation(64).bits_per_symbol == 6
    assert qam_constellation(256).bits_per_symbol == 8


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_modulate_demodulate_round_trip(order):
    rng = np.random.default_rng(300 + order)
    codes = rng.integers(0, order, size=(3, 400))
    symbols = qam_modulate(codes, order)
    assert symbols.shape == codes.shape
    assert np.array_equal(qam_demodulate(symbols, order), codes)


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_unit_mean_symbol_energy(order):
    points = qam_constellation(order).points
    assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_gray_neighbor_property(order):
    table = qam_constellation(order)
    for i in range(table.levels_per_axis - 1):
        diff = int(table.level_codes[i] ^ table.level_codes[i + 1])
        assert bin(diff).count("1") == 1


def test_tie_breaks_toward_lower_gray_codeword():
    # Zero lies exactly between the two inner levels on both axes; their
    # Gray codewords are 1 and 3, so the decision must pick 1, which is
    # bit pattern 01 per axis: code 0b0101.
    assert qam_demodulate(np.array([0j]), 16).tolist() == [0b0101]


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_rounded_decision_equals_distance_comparison(order):
    # Rounding the level position must decide exactly as comparing the
    # distances to both neighbouring levels does, except where the
    # computed position is exactly half-integer.  There the decision is a
    # tie by definition and takes the smaller codeword of its two levels,
    # even where the float distances to them differ by an ulp.
    table = qam_constellation(order)
    m = table.levels_per_axis
    amplitudes = table.amplitudes
    midpoints = np.concatenate([
        (amplitudes[:-1] + amplitudes[1:]) / 2.0,
        (2 * np.arange(1, table.levels_per_axis) - table.levels_per_axis) * table.scale,
    ])
    values = [midpoints, amplitudes]
    for direction in (-np.inf, np.inf):
        nudged = midpoints
        for _ in range(4):
            nudged = np.nextafter(nudged, direction)
            values.append(nudged)
    far = [0.0, -0.0, 1.5, -1.5, 10.0, -10.0, 1e6, -1e6, 1e300, -1e300]
    values = np.concatenate(values + [np.array(far)])
    rng = np.random.default_rng(305)
    values = np.concatenate([values, rng.uniform(-1.5, 1.5, size=10_000)])
    expected = nearest_level_codes_reference(values, table)
    position = values * (0.5 / table.scale) + 0.5 * (m - 1)
    tie = position - np.floor(position) == 0.5
    assert tie.sum() >= m - 1
    lower = np.clip(np.floor(position[tie]), 0, m - 2).astype(np.int64)
    expected[tie] = np.minimum(table.level_codes[lower], table.level_codes[lower + 1])
    assert np.array_equal(_nearest_level_codes(values, table), expected)


def test_awgn_ber_matches_analytic_approximation():
    # 16-QAM over AWGN at E_s / N_0 = 12 dB against the nearest-neighbor
    # Gray-code approximation 0.75 Q(sqrt(gamma / 5)).
    rng = np.random.default_rng(301)
    order, symbols_count = 16, 1_000_000
    bits = rng.integers(0, 2, size=(symbols_count, 4))
    codes = bits @ [8, 4, 2, 1]
    tx = qam_modulate(codes, order)
    gamma = 10.0 ** 1.2
    n0 = 1.0 / gamma
    noise = math.sqrt(n0 / 2.0) * (
        rng.standard_normal(symbols_count) + 1j * rng.standard_normal(symbols_count)
    )
    rx_codes = qam_demodulate(tx + noise, order)
    measured = code_bit_errors(codes, rx_codes).sum() / bits.size
    analytic = 0.75 * q(math.sqrt(gamma / 5.0))
    assert measured == pytest.approx(analytic, rel=0.10)


def zero_force(freq_resp, rx):
    """Detect ``(k, n_t)`` symbols from ``(k, n_r)`` observations."""
    pinv, failed = _zero_forcing_tables(freq_resp)
    return np.einsum("kij,kj->ki", pinv, rx), failed


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_zero_forcing_identity_channel():
    rng = np.random.default_rng(302)
    sent = complex_normal(rng, (3, 4))
    identity = np.broadcast_to(np.eye(4, dtype=complex), (3, 4, 4))
    out, failed = zero_force(identity, sent)
    assert np.allclose(out, sent, atol=1e-12)
    assert not failed.any()


def test_zero_forcing_inverts_noiseless_channel():
    rng = np.random.default_rng(303)
    h = complex_normal(rng, (3, 4, 4))
    sent = qam_modulate(rng.integers(0, 16, size=(3, 4)), 16)
    out, failed = zero_force(h, np.einsum("kij,kj->ki", h, sent))
    assert np.allclose(out, sent, atol=1e-10)
    assert not failed.any()


def test_zero_forcing_scale_invariance():
    rng = np.random.default_rng(304)
    h = complex_normal(rng, (3, 4, 4))
    y = complex_normal(rng, (3, 4))
    alpha = 0.3 - 1.7j
    assert np.allclose(
        zero_force(h, y)[0], zero_force(alpha * h, alpha * y)[0], atol=1e-12
    )


def test_zero_forcing_rejects_rank_deficiency():
    # Only the all-ones subcarrier is flagged; its neighbor is invertible.
    h = np.stack([np.ones((4, 4), dtype=complex), np.eye(4, dtype=complex)])
    _, failed = _zero_forcing_tables(h)
    assert failed.tolist() == [True, False]
    # A (channel, detector, k, n_r, n_t) stack flags the same matrices
    # and gives each bit for bit the tables of its own call.
    stack = complex_normal(np.random.default_rng(305), (2, 3, 5, 4, 4))
    stack[1, 2, 3] = 1.0
    pinvs, failed = _zero_forcing_tables(stack)
    expected = np.zeros((2, 3, 5), dtype=bool)
    expected[1, 2, 3] = True
    assert np.array_equal(failed, expected)
    for index in np.ndindex(failed.shape):
        pinv, single = _zero_forcing_tables(stack[index])
        assert single == failed[index]
        assert pinv.tobytes() == pinvs[index].tobytes()


def test_zero_forcing_tables_are_pinv_under_one_rank_rule():
    # One SVD gives both tables.  The matrices it keeps get the bytes
    # np.linalg.pinv gives the finite-zeroed stack, and it erases exactly
    # those that are not finite or whose singular values span 1e12 or
    # more, with a zero inverse.  n_r = 3 and n_t = 2, so a transposed
    # table would not even have the right shape.
    stack = complex_normal(np.random.default_rng(306), (2, 4, 3, 2))
    stack[0, 1] = np.outer([1.0, 2.0, 3.0], [1.0, -1j])  # rank one
    stack[0, 3] = [[1.0, 0.0], [0.0, 1e-13], [0.0, 0.0]]  # pinv inverts it
    stack[1, 0, 1, 1] = np.inf
    stack[1, 2, 0, 0] = np.nan
    pinvs, failed = _zero_forcing_tables(stack)
    assert pinvs.shape == (2, 4, 2, 3)
    finite = np.isfinite(stack).all(axis=(-2, -1))
    zeroed = np.where(finite[..., None, None], stack, 0.0)
    singular = np.linalg.svd(zeroed, compute_uv=False)
    expected = ~finite | (singular[..., -1] <= 1e-12 * singular[..., 0])
    assert np.array_equal(failed, expected)
    assert np.argwhere(failed).tolist() == [[0, 1], [0, 3], [1, 0], [1, 2]]
    assert pinvs[~failed].tobytes() == np.linalg.pinv(zeroed)[~failed].tobytes()
    assert not pinvs[failed].any()
