"""Training regressors for channel estimation.

Training uses fresh i.i.d. circular complex Gaussian regressors with
unit total power: a stacked vector of length ``n_t * tap_length`` has
per-entry variance ``1 / (n_t * tap_length)``.
"""

from __future__ import annotations

import numpy as np


def generate_training_regressor(rng, n_t, tap_length):
    """Fresh training regressor of length ``n_t * tap_length``.

    Entries are i.i.d. circular complex Gaussian with variance
    ``1 / (n_t * tap_length)``, so the expected total energy is 1.
    """
    if n_t < 1 or tap_length < 1:
        raise ValueError("n_t and tap_length must be at least 1")
    length = n_t * tap_length
    scale = np.sqrt(0.5 / length)
    return scale * (
        rng.standard_normal(length) + 1j * rng.standard_normal(length)
    )
