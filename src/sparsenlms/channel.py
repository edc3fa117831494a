"""Sparse multipath MIMO channel generation.

A channel between ``n_t`` transmit and ``n_r`` receive antennas with
``tap_length`` taps per link is stored as an ``n_r x (n_t *
tap_length)`` complex matrix: row ``i`` stacks the impulse responses of
every transmit antenna toward receive antenna ``i``.  Each link carries
exactly ``sparsity`` nonzero taps at uniformly drawn positions, values
drawn circularly Gaussian with unit variance, and every row is scaled
to unit Euclidean norm afterwards so that all receive antennas observe
the same average signal power.
"""

from __future__ import annotations

import numpy as np


def generate_sparse_channel(rng, n_t, n_r, tap_length, sparsity):
    """Draw one sparse channel realization as its ``(n_r, n_t * tap_length)`` matrix.

    Per link, ``sparsity`` tap positions are chosen uniformly without
    replacement and filled with unit-variance circular complex Gaussian
    values; each receive row is then normalized to unit Euclidean norm.
    ``reshape(n_r, n_t, tap_length)`` of the result gives the per-link
    impulse responses.

    Parameters
    ----------
    rng : numpy.random.Generator
        Source of randomness; a generator seeded identically yields an
        identical realization.
    """
    entries = np.zeros((n_r, n_t * tap_length), dtype=np.complex128)
    for ir in range(n_r):
        for it in range(n_t):
            positions = np.sort(rng.choice(tap_length, size=sparsity, replace=False))
            values = np.sqrt(0.5) * (
                rng.standard_normal(sparsity) + 1j * rng.standard_normal(sparsity)
            )
            entries[ir, it * tap_length + positions] = values
        entries[ir] /= np.linalg.norm(entries[ir])
    return entries

