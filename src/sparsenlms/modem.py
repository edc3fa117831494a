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

Hard decisions round each axis's computed level position to the
nearest level.  A position exactly halfway between two levels takes the
level whose Gray codeword is numerically smaller, so demodulation is
fully deterministic.  The harness discards the decisions of an erased
subcarrier (exact zeros): all of its bits count as errors.
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


def _nearest_level_codes(values, table):
    """Gray codewords of the nearest amplitude levels, lower code on ties."""
    m = table.levels_per_axis
    # Fractional level index; levels sit at 0 .. m-1.
    position = values * (0.5 / table.scale)
    position += 0.5 * (m - 1)
    nearest = np.rint(position)
    position -= nearest  # exact, so a tie is an offset of exactly +-0.5
    tie = (position == 0.5) | (position == -0.5)
    lower = nearest[tie] + position[tie] - 0.5  # floor of each tied position
    np.clip(nearest, 0, m - 1, out=nearest)
    codes = _gray_encode(nearest.astype(table.level_codes.dtype))
    codes[tie] = np.minimum(
        _gray_encode(np.clip(lower, 0, m - 1).astype(codes.dtype)),
        _gray_encode(np.clip(lower + 1, 0, m - 1).astype(codes.dtype)),
    )
    return codes


def qam_demodulate(symbols, order):
    """Hard-decide symbols of any shape to their codes (inverse of :func:`qam_modulate`)."""
    table = qam_constellation(order)
    # Real and imaginary parts interleaved: both axes in one pass.
    axes = np.ascontiguousarray(symbols, dtype=np.complex128).view(np.float64)
    codes = _nearest_level_codes(axes, table).reshape(*np.shape(symbols), 2)
    return (codes[..., 0] << table.bits_per_axis) | codes[..., 1]
