"""Normalized LMS adaptive filter updates with sparsity-promoting penalties.

This module implements the six update rules used throughout the package,
operating on complex tap vectors:

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
batch of one.  Row reductions go through :func:`row_dot`, whose rounding
does not depend on ``B`` or on the antenna axis, so a row's trajectory
is bitwise the same in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ISS_NLMS = "iss_nlms"
VSS_NLMS = "vss_nlms"
ISS_ZA_NLMS = "iss_za_nlms"
ISS_RZA_NLMS = "iss_rza_nlms"
VSS_ZA_NLMS = "vss_za_nlms"
VSS_RZA_NLMS = "vss_rza_nlms"

VARIANTS = (
    ISS_NLMS,
    VSS_NLMS,
    ISS_ZA_NLMS,
    ISS_RZA_NLMS,
    VSS_ZA_NLMS,
    VSS_RZA_NLMS,
)


# Per variant: whether the step adapts, and the fields holding the penalty
# strength and reweighting scale (none: 0).
_LAWS = {
    ISS_NLMS: (False, None, None),
    VSS_NLMS: (True, None, None),
    ISS_ZA_NLMS: (False, "gamma_za", None),
    ISS_RZA_NLMS: (False, "gamma_rza", "epsilon_rza"),
    VSS_ZA_NLMS: (True, "gamma_za", None),
    VSS_RZA_NLMS: (True, "gamma_rza", "epsilon_rza"),
}


@dataclass
class AlgorithmConfig:
    """Parameters of one update rule.

    Parameters irrelevant to the chosen variant are not validated and
    never change its results: fixed step-size variants ignore
    ``mu_max``, ``c_threshold`` and ``beta``, and a penalized variant
    reads only its own strength (and ``epsilon_rza`` if reweighted);
    see :meth:`law`.

    Parameters
    ----------
    variant : str
        One of :data:`VARIANTS`.
    mu : float
        Fixed step size for iss variants.  Must be positive.
    mu_max : float
        Upper step-size bound for vss variants, in ``(0, 2]``; values
        above 2 destabilize the normalized update.
    c_threshold : float
        Positive threshold in the vss law.  The adaptive step equals
        ``mu_max / 2`` exactly when the smoothed gradient energy equals
        this value.
    beta : float
        Gradient smoothing factor, in ``[0, 1)``.
    gamma_za : float
        Zero-attraction strength, nonnegative.
    gamma_rza : float
        Reweighted zero-attraction strength, nonnegative.
    epsilon_rza : float
        Reweighting scale; attraction falls off for tap magnitudes
        beyond ``1 / epsilon_rza``.  Must be positive.
    """

    variant: str
    mu: float = 0.2
    mu_max: float = 2.0
    c_threshold: float = 1e-4
    beta: float = 0.99
    gamma_za: float = 0.0
    gamma_rza: float = 0.0
    epsilon_rza: float = 20.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        adaptive, strength, scale = _LAWS[self.variant]
        # Every check is written as ``not <valid range>``, so NaN fails it.
        if adaptive:
            if not 0.0 < self.mu_max <= 2.0:
                raise ValueError("mu_max must lie in (0, 2]")
            if not self.c_threshold > 0.0:
                raise ValueError("c_threshold must be positive")
            if not 0.0 <= self.beta < 1.0:
                raise ValueError("beta must lie in [0, 1)")
        elif not self.mu > 0.0:
            raise ValueError("mu must be positive")
        if strength is not None and not getattr(self, strength) >= 0.0:
            raise ValueError(f"{strength} must be nonnegative")
        if scale is not None and not getattr(self, scale) > 0.0:
            raise ValueError(f"{scale} must be positive")

    def law(self):
        """The variant as data: ``(adaptive, gamma, epsilon)``.

        ``adaptive`` selects the vss step over the fixed ``mu``, and
        ``gamma`` and ``epsilon`` set the penalty of :func:`_attraction`:
        ``(gamma_za, 0)`` for zero attraction, ``(0, 0)`` for none.
        """
        adaptive, strength, scale = _LAWS[self.variant]
        gamma = 0.0 if strength is None else getattr(self, strength)
        epsilon = 0.0 if scale is None else getattr(self, scale)
        return adaptive, gamma, epsilon


def componentwise_sign(values):
    """Signum applied separately to real and imaginary parts.

    Zero maps to zero on each axis, so ``sign(0) = 0`` and e.g.
    ``sign(0.5 - 0.3j) = 1 - 1j``.  The result is complex.
    """
    values = np.ascontiguousarray(values, dtype=np.complex128)
    return np.sign(values.view(np.float64)).view(np.complex128)


def row_dot(rows, x):
    """Plain-transpose products ``rows[..., :] @ x[..., :]`` over the last axis.

    ``matmul`` reduces every stacked row with the BLAS dot product that
    ``np.dot`` uses for one pair of vectors, so a row's result is the
    same whatever the number of rows stacked with it.
    """
    return np.matmul(rows[..., None, :], x[..., :, None])[..., 0, 0]


def row_energy(rows):
    """Hermitian energy ``||r||^2`` of each row, as ``np.vdot(r, r).real`` gives it."""
    return row_dot(rows.conj(), rows).real


def vss_steps(grad_avg, mu_max, c_threshold):
    """Adaptive step size ``mu_max * ||p||^2 / (||p||^2 + c_threshold)`` per row.

    ``||p||^2`` is the Hermitian energy of each row of the smoothed
    gradient ``grad_avg`` (a 1-D vector is one row), so the result is
    real, lies in ``[0, mu_max)`` and equals ``mu_max / 2`` exactly when
    the energy equals ``c_threshold``.  Array parameters broadcast
    against the rows; :class:`AlgorithmConfig` validates them.
    """
    energy = row_energy(grad_avg)
    return mu_max * energy / (energy + c_threshold)


def _attraction(weights, gamma, epsilon):
    """Penalty ``gamma / (1 + epsilon |w|)`` times the componentwise sign of ``w``.

    At ``epsilon = 0`` the factor is exactly 1, which is plain zero
    attraction.  Array parameters broadcast against ``weights``.
    """
    # Times the reciprocal: the rounding numpy applies when a complex
    # value is divided by a real one.
    pull = gamma * (1.0 / (1.0 + epsilon * np.abs(weights)))
    return pull * componentwise_sign(weights)


class RowParams:
    """Update laws of ``B`` filters updated together, one entry per row.

    Each row carries its variant's :meth:`AlgorithmConfig.law` and
    parameters: ``vss`` marks the rows whose step follows the vss law
    (the others use ``mu``), ``keep`` and ``smooth`` are the gradient
    smoothing weights ``beta`` and ``1 - beta``, and every row
    subtracts the penalty of :func:`_attraction` with its ``gamma`` and
    ``epsilon``.  ``adaptive`` (some row adapts its step) and
    ``penalized`` (some strength is nonzero) are derived from these;
    :func:`update_rows` skips the smoothing and vss law when no row
    adapts, and the penalty when every strength is 0.
    """

    def __init__(self, configs):
        configs = tuple(configs)
        adaptive, gamma, epsilon = zip(*(c.law() for c in configs))
        self.vss = np.array(adaptive)
        # beta = 1 keeps a fixed-step row's smoothed gradient at zero, so
        # a diverging fixed-step row cannot overflow it.
        beta = np.where(self.vss, [c.beta for c in configs], 1.0)
        self.mu = np.array([c.mu for c in configs], dtype=float)
        self.mu_max = np.array([c.mu_max for c in configs], dtype=float)
        self.c_threshold = np.array([c.c_threshold for c in configs], dtype=float)
        self.keep = beta[:, None]
        self.smooth = 1.0 - beta
        self.gamma = np.array(gamma, dtype=float)[:, None]
        self.epsilon = np.array(epsilon, dtype=float)[:, None]
        self.adaptive = bool(self.vss.any())
        self.penalized = bool(self.gamma.any())


def update_rows(weights, grad_avg, x, x_conj, energy, y, params):
    """Advance ``B`` filters that share the regressor ``x`` by one update.

    ``weights`` and ``grad_avg`` are ``(B, L)`` complex arrays, updated
    in place; ``y`` holds the ``B`` observations, ``x_conj`` is
    ``conj(x)`` and ``energy`` is :func:`row_energy` of ``x``.  Each
    row takes its error from the current taps, then its step size, then
    the correction, then subtracts the penalty of its pre-update taps.
    Returns the prediction errors and the step sizes, both ``(B,)``.

    An optional leading antenna axis updates ``A`` independent sets of
    rows at once, each with its own regressor: ``weights`` and
    ``grad_avg`` are then ``(A, B, L)``, ``x`` and ``x_conj`` are
    ``(A, 1, L)``, ``energy`` is ``(A, 1)``, ``y`` is ``(A, B)``, and
    the errors and step sizes are ``(A, B)`` (fixed-step batches return
    the ``(B,)`` step sizes).  Every element is rounded as in a separate
    call.  Inputs are not validated.
    """
    e = y - row_dot(weights, x)
    mu = params.mu
    if params.adaptive:
        grad_avg *= params.keep
        grad_avg += (params.smooth * (e / energy))[..., None] * x_conj
        steps = vss_steps(grad_avg, params.mu_max, params.c_threshold)
        mu = np.where(params.vss, steps, mu)
    # The penalty reads the pre-update taps.
    penalty = 0.0
    if params.penalized:
        penalty = _attraction(weights, params.gamma, params.epsilon)
    weights += (mu * e / energy)[..., None] * x_conj
    weights -= penalty
    return e, mu
