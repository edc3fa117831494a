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
and observation ``y``:

* prediction error ``e = y - w.T @ x`` (plain transpose; the linear model
  this package estimates is ``y = h.T @ x + z``),
* normalized gradient correction ``mu * e * conj(x) / ||x||^2``,
* optional penalty subtracted from the corrected taps.

The correction uses the conjugate regressor: for circularly symmetric
complex inputs an unconjugated correction has zero mean pull toward the
true taps and the filter never converges.  The normalizer is the real
regressor energy ``||x||^2`` for the same reason (a plain ``x.T @ x`` can
vanish for nonzero complex ``x``).

Variable step-size (vss) variants keep an exponentially smoothed average
``p`` of the normalized gradient and set

    mu(n) = mu_max * ||p||^2 / (||p||^2 + c_threshold)

which stays in ``[0, mu_max)`` and shrinks as the filter converges.

Zero attraction subtracts ``gamma_za * sign(w)`` with the sign taken
componentwise on real and imaginary parts (``sign(0) = 0``); reweighted
zero attraction scales the pull by ``1 / (1 + epsilon_rza * |w|)`` so
that taps well above ``1 / epsilon_rza`` in magnitude are left mostly
alone.  Penalties always evaluate the pre-update taps.
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


def is_vss(variant):
    """True if ``variant`` adapts its step size."""
    return variant in (VSS_NLMS, VSS_ZA_NLMS, VSS_RZA_NLMS)


def penalty_kind(variant):
    """Penalty used by ``variant``: ``"za"``, ``"rza"`` or ``None``."""
    if variant in (ISS_ZA_NLMS, VSS_ZA_NLMS):
        return "za"
    if variant in (ISS_RZA_NLMS, VSS_RZA_NLMS):
        return "rza"
    return None


@dataclass
class AlgorithmConfig:
    """Parameters of one update rule.

    Parameters irrelevant to the chosen variant are ignored: fixed
    step-size variants never read ``mu_max``, ``c_threshold`` or
    ``beta``; ``gamma_za``/``gamma_rza``/``epsilon_rza`` only matter for
    the penalized variants.

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
        if is_vss(self.variant):
            if not 0.0 < self.mu_max <= 2.0:
                raise ValueError("mu_max must lie in (0, 2]")
            if self.c_threshold <= 0.0:
                raise ValueError("c_threshold must be positive")
            if not 0.0 <= self.beta < 1.0:
                raise ValueError("beta must lie in [0, 1)")
        elif self.mu <= 0.0:
            raise ValueError("mu must be positive")
        kind = penalty_kind(self.variant)
        if kind == "za" and self.gamma_za < 0.0:
            raise ValueError("gamma_za must be nonnegative")
        if kind == "rza":
            if self.gamma_rza < 0.0:
                raise ValueError("gamma_rza must be nonnegative")
            if self.epsilon_rza <= 0.0:
                raise ValueError("epsilon_rza must be positive")


@dataclass
class FilterState:
    """Mutable quantities of one adaptive filter.

    ``weights`` holds the current tap estimates, ``grad_avg`` the
    smoothed gradient used by vss variants (kept at zero by iss
    variants), ``step_size`` the step applied in the most recent update
    and ``iteration`` the number of updates performed.
    """

    weights: np.ndarray
    grad_avg: np.ndarray
    step_size: float
    iteration: int = 0


def initial_state(length, config):
    """Zero-initialized state for a filter with ``length`` taps."""
    if length < 1:
        raise ValueError("length must be at least 1")
    step = 0.0 if is_vss(config.variant) else config.mu
    return FilterState(
        weights=np.zeros(length, dtype=np.complex128),
        grad_avg=np.zeros(length, dtype=np.complex128),
        step_size=float(step),
        iteration=0,
    )


def componentwise_sign(values):
    """Signum applied separately to real and imaginary parts.

    Zero maps to zero on each axis, so ``sign(0) = 0`` and e.g.
    ``sign(0.5 - 0.3j) = 1 - 1j``.
    """
    values = np.asarray(values)
    return np.sign(values.real) + 1j * np.sign(values.imag)


def compute_vss(grad_avg, mu_max, c_threshold):
    """Adaptive step size ``mu_max * ||p||^2 / (||p||^2 + c_threshold)``.

    ``||p||^2`` is the Hermitian energy of the smoothed gradient, so the
    result is real, lies in ``[0, mu_max)`` and equals ``mu_max / 2``
    exactly when the energy equals ``c_threshold``.
    """
    if c_threshold <= 0.0:
        raise ValueError("c_threshold must be positive")
    energy = np.vdot(grad_avg, grad_avg).real
    return float(mu_max * energy / (energy + c_threshold))


def zero_attract_term(weights, gamma_za):
    """Zero-attraction pull ``gamma_za * sign(weights)``."""
    if gamma_za < 0.0:
        raise ValueError("gamma_za must be nonnegative")
    return gamma_za * componentwise_sign(weights)


def reweighted_zero_attract_term(weights, gamma_rza, epsilon_rza):
    """Magnitude-reweighted pull ``gamma_rza * sign(w) / (1 + epsilon_rza |w|)``."""
    if gamma_rza < 0.0:
        raise ValueError("gamma_rza must be nonnegative")
    if epsilon_rza <= 0.0:
        raise ValueError("epsilon_rza must be positive")
    weights = np.asarray(weights)
    return gamma_rza * componentwise_sign(weights) / (1.0 + epsilon_rza * np.abs(weights))


def step(state, x, y, config):
    """Run one update and return ``(new_state, error)``.

    The update sequence is: error from the current taps, step size
    (smoothed-gradient refresh for vss variants, the fixed ``mu``
    otherwise), gradient correction, penalty subtraction.  The input
    state is not modified.

    Raises
    ------
    ValueError
        On shape mismatch, non-finite inputs, or a zero-energy
        regressor (the update direction would be undefined; callers
        are expected to supply persistently exciting regressors).
    """
    x = np.asarray(x)
    if x.shape != state.weights.shape:
        raise ValueError(
            f"regressor shape {x.shape} does not match taps "
            f"{state.weights.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("regressor contains non-finite values")
    if not np.isfinite(y):
        raise ValueError("observation is not finite")
    energy = np.vdot(x, x).real
    if energy == 0.0:
        raise ValueError("regressor energy is zero; cannot normalize")

    e = y - np.dot(state.weights, x)

    if is_vss(config.variant):
        grad_avg = config.beta * state.grad_avg + (
            (1.0 - config.beta) * (e / energy)
        ) * np.conj(x)
        mu = compute_vss(grad_avg, config.mu_max, config.c_threshold)
    else:
        grad_avg = state.grad_avg
        mu = config.mu

    weights = state.weights + (mu * e / energy) * np.conj(x)

    kind = penalty_kind(config.variant)
    if kind == "za" and config.gamma_za != 0.0:
        weights = weights - zero_attract_term(state.weights, config.gamma_za)
    elif kind == "rza" and config.gamma_rza != 0.0:
        weights = weights - reweighted_zero_attract_term(
            state.weights, config.gamma_rza, config.epsilon_rza
        )

    new_state = FilterState(
        weights=weights,
        grad_avg=grad_avg,
        step_size=mu,
        iteration=state.iteration + 1,
    )
    return new_state, e
