"""Normalized LMS adaptive filter updates with sparsity-promoting penalties.

This module implements the six update rules used throughout the package,
operating on complex tap vectors.  The one table of variants, ``_LAWS``,
lives in :mod:`sparsenlms.config` (which imports no numpy, so a config
can be checked before numpy loads); ``config.VARIANTS`` lists its keys
in this order:

============== =========== ====================================
variant        step size   penalty on the pre-update taps
============== =========== ====================================
iss_nlms       fixed       none
vss_nlms       adaptive    none
iss_za_nlms    fixed       zero attraction
iss_rza_nlms   fixed       reweighted zero attraction
vss_za_nlms    adaptive    zero attraction
vss_rza_nlms   adaptive    reweighted zero attraction
============== =========== ====================================

All variants share the same structure.  With taps ``w``, regressor ``x``
and observation ``y``, one update takes, in this order:

* the prediction error ``e = y - w.T @ x`` from the current taps (plain
  transpose; the model estimated is ``y = h.T @ x + z``),
* the step size: the fixed ``mu``, or the vss law on the refreshed
  smoothed gradient,
* the normalized gradient correction ``mu * e * conj(x) / ||x||^2``,
* the penalty of the pre-update taps, subtracted after the correction.

The correction uses the conjugate regressor: for circularly symmetric
complex inputs an unconjugated correction has zero mean pull toward the
true taps and the filter never converges.  The normalizer is the real
regressor energy ``||x||^2`` for the same reason (a plain ``x.T @ x`` can
vanish for nonzero complex ``x``).

Variable step-size (vss) variants keep an exponentially smoothed average
``p`` of the normalized gradient and set

    mu(n) = mu_max * ||p||^2 / (||p||^2 + c_threshold)

which stays in ``[0, mu_max)`` and shrinks as the filter converges.

Every variant subtracts one penalty, ``gamma / (1 + epsilon |w|)`` times
the sign of the pre-update taps taken componentwise on real and
imaginary parts (``sign(0) = 0``).  Reweighted zero attraction uses
``(gamma_rza, epsilon_rza)``, which leaves taps well above
``1 / epsilon_rza`` in magnitude mostly alone; zero attraction is its
``epsilon = 0`` case ``(gamma_za, 0)``; unpenalized variants have
``gamma = 0``.

The update law is written once, in :func:`update_rows`, for ``B``
filters (rows) that share a regressor but may differ in variant and
parameters (:class:`RowParams`).  An optional leading antenna axis
advances several independent sets of rows in one call, each set with
its own regressor.  It is the only update kernel: a single filter is a
batch of one.  Row reductions go through ``np.vecdot``, which
conjugates its first operand and reduces every stacked row with the
BLAS dot product ``np.dot`` and ``np.vdot`` use for one pair of vectors.
Its rounding therefore does not depend on ``B`` or on the antenna axis,
so a row's trajectory is bitwise the same in any batch.  The conjugated
operand is the shared regressor ``conj(x)`` (or the row itself for an
energy), never the ``B`` taps, so no conjugate copy is made.
"""

from __future__ import annotations

import numpy as np

from .config import _LAWS


def row_energy(rows):
    """Hermitian energy ``||r||^2`` of each row, as ``np.vdot(r, r).real`` gives it."""
    return np.vecdot(rows, rows).real


def vss_steps(grad_avg, mu_max, c_threshold):
    """Adaptive step size ``mu_max * ||p||^2 / (||p||^2 + c_threshold)`` per row.

    ``||p||^2`` is the Hermitian energy of each row of the smoothed
    gradient ``grad_avg`` (a 1-D vector is one row), so the result is
    real, lies in ``[0, mu_max)`` and equals ``mu_max / 2`` exactly when
    the energy equals ``c_threshold``.  Array parameters broadcast
    against the rows and are not validated.
    """
    energy = row_energy(grad_avg)
    return mu_max * energy / (energy + c_threshold)


def _attraction(weights, gamma, epsilon):
    """Penalty ``gamma / (1 + epsilon |w|)`` times the componentwise sign of ``w``.

    At ``epsilon = 0`` the factor is exactly 1, which is plain zero
    attraction.  ``weights`` is C-contiguous complex (the sign is taken
    on its float view); array parameters broadcast against it.
    """
    # Times the reciprocal: the rounding numpy applies when a complex
    # value is divided by a real one.
    pull = gamma * (1.0 / (1.0 + epsilon * np.abs(weights)))
    return pull * np.sign(weights.view(np.float64)).view(np.complex128)


class RowParams:
    """Update laws of ``B`` filters updated together.

    ``variants`` names each row's rule (one of ``config.VARIANTS``).
    ``mu_max`` and ``beta`` are one value for the batch; every other
    argument is one value per row or one for all rows, and a row reads
    only those of its own variant.  Nothing is validated.

    ``vss`` marks the rows whose step follows the vss law (the others
    use ``mu``), and every row subtracts the penalty of
    :func:`_attraction` with its ``gamma`` and ``epsilon``:
    ``(gamma_za, 0)`` for zero attraction, ``(0, 0)`` for none.
    ``adaptive`` (some row adapts its step) and ``penalized`` (some
    strength is nonzero) are derived from these; :func:`update_rows`
    skips the smoothing and vss law when no row adapts, and the penalty
    when every strength is 0.
    """

    def __init__(
        self, variants, mu, mu_max, c_threshold, beta, gamma_za, gamma_rza, epsilon_rza
    ):
        adaptive, penalty = zip(*(_LAWS[v] for v in variants))
        rows = len(adaptive)
        za = np.array([p == "za" for p in penalty])
        rza = np.array([p == "rza" for p in penalty])
        self.vss = np.array(adaptive)
        self.mu = np.full(rows, mu, dtype=float)
        self.mu_max = mu_max
        self.c_threshold = np.full(rows, c_threshold, dtype=float)
        self.beta = beta
        gamma = np.where(za, gamma_za, np.where(rza, gamma_rza, 0.0))
        self.gamma = gamma[:, None]
        self.epsilon = np.where(rza, epsilon_rza, 0.0)[:, None]
        self.adaptive = bool(self.vss.any())
        self.penalized = bool(self.gamma.any())


def update_rows(weights, grad_avg, x_conj, energy, y, params):
    """Advance ``B`` filters that share the regressor ``x`` by one update.

    ``weights`` and ``grad_avg`` are ``(B, L)`` complex arrays, updated
    in place; ``y`` holds the ``B`` observations, ``x_conj`` is
    ``conj(x)`` (the only form of ``x`` the update reads) and
    ``energy`` is :func:`row_energy` of ``x``.  Each
    row takes its error from the current taps, then its step size, then
    the correction, then subtracts the penalty of its pre-update taps.
    Returns the prediction errors and the step sizes, both ``(B,)``.
    A fixed-step row in an adaptive batch smooths a gradient nothing reads.

    An optional leading antenna axis updates ``A`` independent sets of
    rows at once, each with its own regressor: ``weights`` and
    ``grad_avg`` are then ``(A, B, L)``, ``x_conj`` is ``(A, 1, L)``,
    ``energy`` is ``(A, 1)``, ``y`` is ``(A, B)``, and
    the errors and step sizes are ``(A, B)`` (fixed-step batches return
    the ``(B,)`` step sizes).  Every element is rounded as in a separate
    call.  Inputs are not validated.
    """
    e = y - np.vecdot(x_conj, weights)
    mu = params.mu
    if params.adaptive:
        grad_avg *= params.beta
        grad_avg += ((1.0 - params.beta) * (e / energy))[..., None] * x_conj
        steps = vss_steps(grad_avg, params.mu_max, params.c_threshold)
        mu = np.where(params.vss, steps, mu)
    # The penalty reads the pre-update taps.
    penalty = 0.0
    if params.penalized:
        penalty = _attraction(weights, params.gamma, params.epsilon)
    weights += (mu * e / energy)[..., None] * x_conj
    weights -= penalty
    return e, mu
