"""Gray-coded square QAM modulation and hard-decision demodulation on symbol codes.

Square constellations of the orders in ``config.QAM_ORDERS`` (16, 64
and 256) are supported.  A symbol's code is its ``log2(order)``-bit
pattern read as an integer, most significant bit first: the high half
Gray-codes the in-phase level and the low half the quadrature level, and
the lattice is scaled to unit mean symbol energy.  Axis-adjacent
constellation points therefore differ in exactly one bit, and the bit
errors of a decision are the set bits of the XOR of the sent and decided
codes (:func:`code_bit_errors`).
:func:`qam_modulate` maps codes to symbols and :func:`qam_demodulate`
maps symbols back to codes; both keep the array's shape.

Hard decisions take the nearest constellation point per axis.  A
received value exactly between two levels resolves to the level whose
Gray codeword is numerically smaller, which keeps demodulation fully
deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def _gray_encode(index):
    return index ^ (index >> 1)


@dataclass
class QamConstellation:
    """Lookup tables for one Gray-coded square QAM order."""

    bits_per_symbol: int
    bits_per_axis: int
    levels_per_axis: int
    scale: float
    amplitudes: np.ndarray      # amplitude of each level, ascending
    points: np.ndarray          # indexed by the symbol's bit pattern
    level_codes: np.ndarray     # Gray codeword of each amplitude level


@functools.cache
def qam_constellation(order):
    """Build the constellation tables for ``order`` (cached per order)."""
    bits_per_symbol = int(np.log2(order))
    bits_per_axis = bits_per_symbol // 2
    m = 1 << bits_per_axis
    # Unit mean symbol energy: the unnormalized square lattice with
    # levels +-1, +-3, ... has mean energy 2 (order - 1) / 3.
    scale = 1.0 / np.sqrt(2.0 * (order - 1) / 3.0)
    level_codes = np.array([_gray_encode(i) for i in range(m)], dtype=np.uint8)
    code_levels = np.argsort(level_codes).astype(np.int64)
    amplitudes = (2 * np.arange(m) - (m - 1)) * scale
    codes = np.arange(order)
    i_levels = code_levels[codes >> bits_per_axis]
    q_levels = code_levels[codes & (m - 1)]
    points = amplitudes[i_levels] + 1j * amplitudes[q_levels]
    return QamConstellation(
        bits_per_symbol=bits_per_symbol,
        bits_per_axis=bits_per_axis,
        levels_per_axis=m,
        scale=scale,
        amplitudes=amplitudes,
        points=points,
        level_codes=level_codes,
    )


def qam_modulate(codes, order):
    """Map integer symbol codes in ``[0, order)`` of any shape to symbols."""
    return qam_constellation(order).points[codes]


# Set bits of each byte value.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def code_bit_errors(sent, decided):
    """Bit errors of each decision: the set bits of ``sent ^ decided`` (codes, broadcast)."""
    return _POPCOUNT[np.bitwise_xor(sent, decided)]


# Within this distance of a half-integer level position, a value is
# decided by comparing its distances to the two levels, as the tie rule
# is stated.  Everywhere else rounding the position gives the same
# level: inside the lattice the computed position is off by about 1e-14
# at most, and outside it both pick the edge level.
_TIE_MARGIN = 1e-9


def _tie_rule_codes(values, table):
    """Gray codewords by exact distance comparison, lower code on ties."""
    m = table.levels_per_axis
    position = (values / table.scale + (m - 1)) / 2.0
    lower = np.clip(np.floor(position), 0, m - 1).astype(np.int64)
    upper = np.clip(lower + 1, 0, m - 1)
    d_lower = np.abs(values - table.amplitudes[lower])
    d_upper = np.abs(values - table.amplitudes[upper])
    codes_lower = table.level_codes[lower]
    codes_upper = table.level_codes[upper]
    tie = d_lower == d_upper
    nearest = np.where(d_lower < d_upper, codes_lower, codes_upper)
    return np.where(tie, np.minimum(codes_lower, codes_upper), nearest)


def _nearest_level_codes(values, table):
    """Gray codewords of the nearest amplitude levels, lower code on ties."""
    m = table.levels_per_axis
    # Fractional level index; levels sit at 0 .. m-1.
    position = values * (0.5 / table.scale)
    position += 0.5 * (m - 1)
    nearest = np.rint(position)
    position -= nearest
    near_tie = np.abs(position, out=position) > 0.5 - _TIE_MARGIN
    np.clip(nearest, 0, m - 1, out=nearest)
    codes = _gray_encode(nearest.astype(table.level_codes.dtype))
    if near_tie.any():
        codes[near_tie] = _tie_rule_codes(values[near_tie], table)
    return codes


def qam_demodulate(symbols, order):
    """Hard-decide symbols of any shape to their codes (inverse of :func:`qam_modulate`)."""
    table = qam_constellation(order)
    # Real and imaginary parts interleaved: both axes in one pass.
    axes = np.ascontiguousarray(symbols, dtype=np.complex128).view(np.float64)
    codes = _nearest_level_codes(axes, table).reshape(*np.shape(symbols), 2)
    return (codes[..., 0] << table.bits_per_axis) | codes[..., 1]
