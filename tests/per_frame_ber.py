"""Per-frame reference for the BER frame loop and the hard decision.

``per_frame_ber_sweep`` simulates one OFDM frame per pass, modulating
from bits and demodulating back to bits, and checks the stop rule after
every frame.  ``nearest_level_codes_reference`` decides every value by
comparing its distances to the two neighbouring levels.  Both are kept
as they were before frames ran in blocks and decisions rounded the level
position, so the tests can pin the block loop and the rounding to them.
"""

import numpy as np

from sparsenlms.config import TRUE_CHANNEL
from sparsenlms.harness import (
    _frequency_responses,
    _zero_forcing_tables,
    run_trial_rows,
)
from sparsenlms.modem import qam_constellation


def nearest_level_codes_reference(values, table):
    """Gray codewords of the nearest amplitude levels, lower code on ties."""
    m = table.levels_per_axis
    # Fractional level index; levels sit at 0 .. m-1.
    position = (values / table.scale + (m - 1)) / 2.0
    lower = np.clip(np.floor(position), 0, m - 1).astype(np.int64)
    upper = np.clip(lower + 1, 0, m - 1)
    d_lower = np.abs(values - table.amplitudes[lower])
    d_upper = np.abs(values - table.amplitudes[upper])
    codes_lower = table.level_codes[lower].astype(np.int64)
    codes_upper = table.level_codes[upper].astype(np.int64)
    tie = d_lower == d_upper
    nearest = np.where(d_lower < d_upper, codes_lower, codes_upper)
    return np.where(tie, np.minimum(codes_lower, codes_upper), nearest)


def modulate_bits(bits, order):
    """Map a 0/1 array (length divisible by ``log2(order)``) to symbols."""
    table = qam_constellation(order)
    groups = np.asarray(bits).reshape(-1, table.bits_per_symbol)
    weights = 1 << np.arange(table.bits_per_symbol - 1, -1, -1)
    return table.points[groups @ weights]


def demodulate_bits(symbols, order):
    """Hard-decide symbols of any shape (read in C order) to a flat bit array."""
    table = qam_constellation(order)
    symbols = np.asarray(symbols)
    i_codes = nearest_level_codes_reference(symbols.real, table)
    q_codes = nearest_level_codes_reference(symbols.imag, table)
    codes = (i_codes << table.bits_per_axis) | q_codes
    shifts = np.arange(table.bits_per_symbol - 1, -1, -1)
    return ((codes[..., None] >> shifts) & 1).reshape(-1).astype(np.int64)


def per_frame_ber_sweep(config):
    """``{(detector, order): (bit_errors, bits_total)}``, one frame per pass."""
    config.validate_ofdm()
    detectors = [TRUE_CHANNEL] + list(config.algorithms)
    k, cp = config.subcarrier_count, config.cp_length
    n_t, n_r = config.n_t, config.n_r

    true_responses = []
    zf_tables = []
    for trial in range(config.ber_num_channels):
        result = run_trial_rows(
            config,
            trial,
            [(a, config.ber_training_snr_db) for a in config.algorithms],
        )
        true_response = _frequency_responses(
            result.channel, n_t, n_r, config.tap_length, k
        )
        tables = [_zero_forcing_tables(true_response)] + [
            _zero_forcing_tables(
                _frequency_responses(estimate, n_t, n_r, config.tap_length, k)
            )
            for estimate in result.final_estimate
        ]
        true_responses.append(true_response)
        pinvs, failed = zip(*tables)
        zf_tables.append((pinvs, np.stack(failed)))

    out = {}
    for order in config.qam_orders:
        table = qam_constellation(order)
        bits_per_frame = k * n_t * table.bits_per_symbol
        point_errors = []
        point_bits = []
        for point_index, esn0 in enumerate(config.esn0_range_db):
            n0 = 10.0 ** (-esn0 / 10.0)
            errors = np.zeros(len(detectors), dtype=np.int64)
            bits_sent = 0
            frames = 0
            while frames < config.ber_max_frames:
                trial = frames % config.ber_num_channels
                rng = np.random.default_rng(
                    [config.rng_seed, 2, int(order), point_index, frames]
                )
                tx_bits = rng.integers(0, 2, size=(n_t, k * table.bits_per_symbol))
                symbols = modulate_bits(tx_bits, order).reshape(n_t, k)
                noise = np.sqrt(n0 / 2.0) * (
                    rng.standard_normal((n_r, k + cp))
                    + 1j * rng.standard_normal((n_r, k + cp))
                )
                rx_freq = np.einsum(
                    "kij,jk->ki", true_responses[trial], symbols
                ) + np.fft.fft(noise[:, cp:], axis=1).T / np.sqrt(k)
                sent = tx_bits.reshape(n_t, k, table.bits_per_symbol)
                pinvs, failed = zf_tables[trial]
                detected = np.stack(
                    [np.einsum("kij,kj->ki", pinv, rx_freq) for pinv in pinvs]
                )
                received = demodulate_bits(detected.transpose(0, 2, 1), order)
                diff = received.reshape(len(detectors), *sent.shape) != sent
                diff |= failed[:, None, :, None]
                errors += diff.sum(axis=(1, 2, 3))
                bits_sent += bits_per_frame
                frames += 1
                if bits_sent >= config.ber_min_bits and np.all(
                    errors >= config.ber_min_errors
                ):
                    break
            point_errors.append(errors)
            point_bits.append(bits_sent)
        bits_total = np.array(point_bits, dtype=np.int64)
        for bit_errors, detector in zip(np.array(point_errors).T, detectors):
            out[detector, int(order)] = (bit_errors, bits_total)
    return out
