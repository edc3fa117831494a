"""Gray-coded square QAM modulation and hard-decision demodulation.

Square constellations of order 16, 64 and 256 are supported.  Each
symbol carries ``log2(order)`` bits, the first half Gray-coding the
in-phase level and the second half the quadrature level, and the lattice
is scaled to unit mean symbol energy.  Axis-adjacent constellation
points therefore differ in exactly one bit.

Hard decisions take the nearest constellation point per axis.  A
received value exactly between two levels resolves to the level whose
Gray codeword is numerically smaller, which keeps demodulation fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QAM_ORDERS = (16, 64, 256)


def _gray_encode(index):
    return index ^ (index >> 1)


@dataclass
class QamConstellation:
    """Lookup tables for one Gray-coded square QAM order."""

    order: int
    bits_per_symbol: int
    bits_per_axis: int
    levels_per_axis: int
    scale: float
    points: np.ndarray          # indexed by the symbol's bit pattern
    level_codes: np.ndarray     # Gray codeword of each amplitude level


def qam_constellation(order):
    """Build (and cache) the constellation tables for ``order``."""
    if order not in QAM_ORDERS:
        raise ValueError(f"order must be one of {QAM_ORDERS}, got {order}")
    if order not in _CONSTELLATIONS:
        bits_per_symbol = int(np.log2(order))
        bits_per_axis = bits_per_symbol // 2
        m = 1 << bits_per_axis
        # Unit mean symbol energy: the unnormalized square lattice with
        # levels +-1, +-3, ... has mean energy 2 (order - 1) / 3.
        scale = 1.0 / np.sqrt(2.0 * (order - 1) / 3.0)
        level_codes = np.array([_gray_encode(i) for i in range(m)], dtype=np.int64)
        code_levels = np.argsort(level_codes).astype(np.int64)
        amplitudes = (2 * np.arange(m) - (m - 1)) * scale
        codes = np.arange(order)
        i_levels = code_levels[codes >> bits_per_axis]
        q_levels = code_levels[codes & (m - 1)]
        points = amplitudes[i_levels] + 1j * amplitudes[q_levels]
        _CONSTELLATIONS[order] = QamConstellation(
            order=order,
            bits_per_symbol=bits_per_symbol,
            bits_per_axis=bits_per_axis,
            levels_per_axis=m,
            scale=scale,
            points=points,
            level_codes=level_codes,
        )
    return _CONSTELLATIONS[order]


_CONSTELLATIONS: dict[int, QamConstellation] = {}


def qam_modulate(bits, order):
    """Map a 0/1 array (length divisible by ``log2(order)``) to symbols."""
    table = qam_constellation(order)
    bits = np.asarray(bits)
    if bits.size % table.bits_per_symbol:
        raise ValueError(
            f"bit count {bits.size} is not a multiple of {table.bits_per_symbol}"
        )
    groups = bits.reshape(-1, table.bits_per_symbol)
    weights = 1 << np.arange(table.bits_per_symbol - 1, -1, -1)
    codes = groups @ weights
    return table.points[codes]


def _nearest_level_codes(values, table):
    """Gray codewords of the nearest amplitude levels, lower code on ties."""
    m = table.levels_per_axis
    # Fractional level index; levels sit at 0 .. m-1.
    position = (values / table.scale + (m - 1)) / 2.0
    lower = np.clip(np.floor(position), 0, m - 1).astype(np.int64)
    upper = np.clip(lower + 1, 0, m - 1)
    amplitudes = (2 * np.arange(m) - (m - 1)) * table.scale
    d_lower = np.abs(values - amplitudes[lower])
    d_upper = np.abs(values - amplitudes[upper])
    codes_lower = table.level_codes[lower]
    codes_upper = table.level_codes[upper]
    tie = d_lower == d_upper
    nearest = np.where(d_lower < d_upper, codes_lower, codes_upper)
    return np.where(tie, np.minimum(codes_lower, codes_upper), nearest)


def qam_demodulate(symbols, order):
    """Hard-decide symbols back to a flat bit array (inverse of :func:`qam_modulate`).

    Symbols of any shape are read in C order.
    """
    table = qam_constellation(order)
    symbols = np.asarray(symbols)
    i_codes = _nearest_level_codes(symbols.real, table)
    q_codes = _nearest_level_codes(symbols.imag, table)
    codes = (i_codes << table.bits_per_axis) | q_codes
    shifts = np.arange(table.bits_per_symbol - 1, -1, -1)
    return ((codes[..., None] >> shifts) & 1).reshape(-1).astype(np.int64)
