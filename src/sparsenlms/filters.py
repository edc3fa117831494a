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

The update law is written once, in :func:`update_rows`, for ``B``
filters (rows) that share a regressor but may differ in variant and
parameters (:class:`RowParams`).  An optional leading antenna axis
advances several independent sets of rows in one call, each set with
its own regressor.  :func:`step` is a batch of one with input
validation.  Row reductions go through :func:`row_dot`, whose rounding
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


def _vss_steps(grad_avg, mu_max, c_threshold):
    """The vss law for each row of ``grad_avg``; see :func:`compute_vss`."""
    energy = row_energy(grad_avg)
    return mu_max * energy / (energy + c_threshold)


def compute_vss(grad_avg, mu_max, c_threshold):
    """Adaptive step size ``mu_max * ||p||^2 / (||p||^2 + c_threshold)``.

    ``||p||^2`` is the Hermitian energy of the smoothed gradient, so the
    result is real, lies in ``[0, mu_max)`` and equals ``mu_max / 2``
    exactly when the energy equals ``c_threshold``.
    """
    if c_threshold <= 0.0:
        raise ValueError("c_threshold must be positive")
    rows = np.asarray(grad_avg, dtype=np.complex128).reshape(1, -1)
    return float(_vss_steps(rows, mu_max, c_threshold)[0])


def _attraction(weights, gamma_za, gamma_rza, epsilon_rza):
    """Penalty on the taps ``weights``: plain plus reweighted zero attraction.

    A strength of ``None`` skips its term; array strengths broadcast
    against ``weights``.  The pull per tap is ``gamma_za + gamma_rza /
    (1 + epsilon_rza |w|)`` times the componentwise sign of ``w``.
    """
    pull = gamma_za
    if gamma_rza is not None:
        # Times the reciprocal: the rounding numpy applies when a complex
        # value is divided by a real one.
        reweighted = gamma_rza * (1.0 / (1.0 + epsilon_rza * np.abs(weights)))
        pull = reweighted if pull is None else pull + reweighted
    return pull * componentwise_sign(weights)


class RowParams:
    """Parameters of ``B`` filters updated together, one entry per row.

    Fixed-step rows keep their smoothed gradient at zero (their
    smoothing weights are ``1`` and ``0``) and use ``mu``; adaptive rows
    use the vss law.  A penalty strength is ``None`` when no row applies
    that penalty, so :func:`update_rows` skips the work entirely; a row
    without the penalty that shares a batch with one gets strength 0,
    which leaves its taps bitwise unchanged.
    """

    def __init__(self, configs):
        configs = tuple(configs)
        vss = [is_vss(c.variant) for c in configs]
        za = [penalty_kind(c.variant) == "za" for c in configs]
        rza = [penalty_kind(c.variant) == "rza" for c in configs]

        def per_row(name, used, unused):
            return np.array(
                [getattr(c, name) if u else unused for c, u in zip(configs, used)],
                dtype=float,
            )

        self.any_vss = any(vss)
        # Needed only when fixed-step and adaptive rows are mixed.
        self.vss_rows = np.array(vss) if self.any_vss and not all(vss) else None
        self.mu = np.array([c.mu for c in configs], dtype=float)
        self.mu_max = per_row("mu_max", vss, 0.0)
        self.c_threshold = per_row("c_threshold", vss, 1.0)
        beta = per_row("beta", vss, 1.0)
        self.keep = beta[:, None]
        self.smooth = 1.0 - beta
        gamma_za = per_row("gamma_za", za, 0.0)
        gamma_rza = per_row("gamma_rza", rza, 0.0)
        self.gamma_za = gamma_za[:, None] if gamma_za.any() else None
        self.gamma_rza = gamma_rza[:, None] if gamma_rza.any() else None
        self.epsilon_rza = per_row("epsilon_rza", rza, 1.0)[:, None]


def update_rows(weights, grad_avg, x, x_conj, energy, y, params):
    """Advance ``B`` filters that share the regressor ``x`` by one update.

    ``weights`` and ``grad_avg`` are ``(B, L)`` complex arrays, updated
    in place; ``y`` holds the ``B`` observations, ``x_conj`` is
    ``conj(x)`` and ``energy`` is ``||x||^2``.  Every row follows the
    update sequence of :func:`step`.  Returns the prediction errors and
    the step sizes applied, both shaped ``(B,)``.

    An optional leading antenna axis updates ``A`` independent sets of
    rows at once, each with its own regressor: ``weights`` and
    ``grad_avg`` are then ``(A, B, L)``, ``x`` and ``x_conj`` are
    ``(A, 1, L)``, ``energy`` is ``(A, 1)``, ``y`` is ``(A, B)``, and
    the errors and step sizes are ``(A, B)`` (fixed-step batches return
    the ``(B,)`` step sizes).  Every element is rounded as in a separate
    call.  Inputs are not validated.
    """
    e = y - row_dot(weights, x)
    if params.any_vss:
        grad_avg *= params.keep
        grad_avg += (params.smooth * (e / energy))[..., None] * x_conj
        mu = _vss_steps(grad_avg, params.mu_max, params.c_threshold)
        if params.vss_rows is not None:
            mu = np.where(params.vss_rows, mu, params.mu)
    else:
        mu = params.mu
    penalty = None
    if params.gamma_za is not None or params.gamma_rza is not None:
        penalty = _attraction(
            weights, params.gamma_za, params.gamma_rza, params.epsilon_rza
        )
    weights += (mu * e / energy)[..., None] * x_conj
    if penalty is not None:
        weights -= penalty
    return e, mu


def step(state, x, y, config):
    """Run one update and return ``(new_state, error)``.

    The update sequence is: error from the current taps, step size
    (smoothed-gradient refresh for vss variants, the fixed ``mu``
    otherwise), gradient correction, penalty subtraction.  The input
    state is not modified.  This is :func:`update_rows` on a batch of
    one.

    Raises
    ------
    ValueError
        On shape mismatch, non-finite inputs, or a zero-energy
        regressor (the update direction would be undefined; callers
        are expected to supply persistently exciting regressors).
    """
    x = np.asarray(x, dtype=np.complex128)
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

    weights = np.array(state.weights, dtype=np.complex128, ndmin=2)
    grad_avg = np.array(state.grad_avg, dtype=np.complex128, ndmin=2)
    e, mu = update_rows(
        weights,
        grad_avg,
        x,
        np.conj(x),
        energy,
        np.array([y], dtype=np.complex128),
        RowParams([config]),
    )
    new_state = FilterState(
        weights=weights[0],
        grad_avg=grad_avg[0],
        step_size=float(mu[0]),
        iteration=state.iteration + 1,
    )
    return new_state, e[0]
