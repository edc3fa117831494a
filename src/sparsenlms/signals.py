"""Training data for channel estimation, drawn a block of iterations at a time.

Training uses fresh i.i.d. circular complex Gaussian regressors with
unit total power: a stacked vector of length ``n_t * tap_length`` has
per-entry variance ``1 / (n_t * tap_length)``.  Each iteration also
draws one standard complex pair for its observation noise, whatever
the noise variance, so runs that differ only in SNR consume identical
random streams.
"""

from __future__ import annotations

import numpy as np


def training_chunk(rng, count, n_t, tap_length):
    """Regressors and unit noise for ``count`` consecutive iterations.

    Returns ``(x, noise)``: ``x`` is ``(count, n_t * tap_length)`` with
    unit expected row energy, and ``noise[i] = a + 1j b`` with ``a, b``
    standard normal, to be scaled by ``sqrt(variance / 2)``.  One
    ``(count, 2 L + 2)`` block of normals is drawn; per iteration it
    holds the real parts, the imaginary parts, then the noise pair,
    which is the order in which drawing one regressor's real and
    imaginary vectors and then the noise pair, iteration by iteration,
    consumes the stream.  Splitting a run into chunks of any size
    therefore leaves every value unchanged.
    """
    length = n_t * tap_length
    draws = rng.standard_normal((count, 2 * length + 2))
    scale = np.sqrt(0.5 / length)
    x = np.empty((count, length), dtype=np.complex128)
    x.real = scale * draws[:, :length]
    x.imag = scale * draws[:, length : 2 * length]
    noise = np.empty(count, dtype=np.complex128)
    noise.real = draws[:, 2 * length]
    noise.imag = draws[:, 2 * length + 1]
    return x, noise
