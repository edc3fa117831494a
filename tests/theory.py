"""Closed forms the tests check simulations against, each written once.

The adaptive-filter forms read their sizes and strengths from an
``ExperimentConfig`` and their noise level from ``snr_db``; the QAM forms
take the order and the noise level directly.  The module imports only
``math`` and numpy, so a theory value never depends on the code it
checks.

References: Sayed, *Fundamentals of Adaptive Filtering* (2003), for the
NLMS learning curve; Shin, Sayed and Song, "Variable step-size NLMS and
affine projection algorithms" (IEEE SPL, 2004), for the steady state of
the variable step; Chen, Gu and Hero, "Sparse LMS for system
identification" (ICASSP 2009), for the bias of zero attraction;
Proakis, *Digital Communications*, for the decision regions of Gray
square QAM.
"""

import math

import numpy as np


def q(x):
    """Gaussian tail probability ``P(N(0, 1) > x)``."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def qam_levels(order):
    """The ascending amplitudes of one axis of unit-energy square QAM."""
    m = math.isqrt(order)
    return (2 * np.arange(m) - (m - 1)) * math.sqrt(1.5 / (order - 1))


def gray_axis_errors(order, sent, mean, sd):
    """Expected bit errors of one axis of a Gray square QAM hard decision.

    The axis sends level ``sent`` (an index into :func:`qam_levels`) and
    receives a Gaussian value of mean ``mean`` and standard deviation
    ``sd``; the arrays broadcast.  The decision thresholds lie midway
    between levels (Proakis).  Summing the error bits of each decision
    region times the probability of landing in it, by parts, gives a sum
    over thresholds: the probability that the value lies beyond
    threshold ``t``, seen from the sent level, times the change in error
    bits across ``t``.  Each of those probabilities is one Gaussian tail,
    so small ones keep their relative precision.
    """
    levels = qam_levels(order)
    index = np.arange(levels.size)
    gray = index ^ (index >> 1)
    ones = np.array([bin(code).count("1") for code in index])
    sent, mean, sd = (a[..., None] for a in np.broadcast_arrays(sent, mean, sd))
    wrong = ones[gray ^ gray[sent]]  # error bits of deciding each level
    # Threshold j lies between levels j - 1 and j; +1 where it lies above
    # the sent level, -1 where below.
    outward = np.where(index[1:] > sent, 1.0, -1.0)
    thresholds = (levels[:-1] + levels[1:]) / 2.0
    erfc = np.vectorize(math.erfc, otypes=[float])
    beyond = 0.5 * erfc(outward * (thresholds - mean) / (sd * math.sqrt(2.0)))
    return (outward * np.diff(wrong, axis=-1) * beyond).sum(axis=-1)


def nlms_curve(config, snr_db, mu=None):
    """Exact expected ``iss_nlms`` error after each of ``config.max_iterations``.

    Antenna ``a``'s misalignment after ``k`` updates follows
        D(k + 1) = (1 - mu (2 - mu) / L) D(k) + mu^2 noise_var L / (L - 1),
    D(0) = ||h_a||^2 = 1, because ``x / ||x||`` is isotropic and
    independent of ``||x||^2 ~ Gamma(L, 1 / L)``, whose ``E[1 / ||x||^2]``
    is ``L / (L - 1)``.  After ``n`` iterations of the round-robin schedule
    antenna ``a`` has had ``ceil((n - a) / n_r)`` updates.  It holds for
    any ``mu``: above 2 each update multiplies the error by
    ``1 + mu (mu - 2) / L``.  ``mu`` defaults to ``config.mu``; an array
    of step sizes gives one curve per step, shaped ``(iterations,
    *mu.shape)``.
    """
    mu = np.asarray(config.mu if mu is None else mu, dtype=float)
    length, n_r = config.filter_length(), config.n_r
    floor = mu**2 * config.noise_variance(snr_db) * length / (length - 1)
    d = np.empty((config.max_iterations + 1, *mu.shape))
    d[0] = 1.0
    for k in range(config.max_iterations):
        d[k + 1] = (1.0 - mu * (2.0 - mu) / length) * d[k] + floor
    n = np.arange(1, config.max_iterations + 1)
    return sum(d[-(-(n - a) // n_r)] for a in range(n_r))


def nlms_envelope(config, snr_db, mus):
    """The lowest :func:`nlms_curve` over the step sizes ``mus`` at each iteration.

    With ``mus`` a fine grid of (0, 2), ``E(n)`` is what a fixed-step
    ``iss_nlms`` tuned for iteration ``n`` alone can reach; no single
    step reaches it at every ``n``.
    """
    return nlms_curve(config, snr_db, mus).min(axis=1)


def nlms_steady_state(config, snr_db, mu=None):
    """The limit of :func:`nlms_curve` for ``0 < mu < 2``: its fixed point on each antenna.

    ``mu`` defaults to ``config.mu``.
    """
    mu = config.mu if mu is None else mu
    length = config.filter_length()
    return (
        config.n_r * mu * config.noise_variance(snr_db) * length**2
        / ((2.0 - mu) * (length - 1))
    )


def vss_steady_step(config, snr_db):
    """The step ``vss_nlms`` settles at: the fixed point of its law in steady state.

    Following Shin, Sayed and Song, the law ``mu = mu_max s / (s + c)``
    is solved with ``s = E||p||^2`` at the step it yields.  For a fixed
    ``mu`` the smoothed gradient telescopes: the misalignment moves by
    ``v(n + 1) = v(n) - mu g(n)``, so
        p(n) = -((1 - beta) / mu) (v(n + 1) - vbar(n)),
    with ``vbar`` the beta-weighted average of past ``v``.  Modelling
    ``v`` as AR(1), with lag factor ``r = 1 - mu / L`` (one update's mean
    contraction) and energy ``D`` (one antenna's share of
    :func:`nlms_steady_state` at ``mu``), gives
        s = ((1 - beta) / mu)^2 D [1 - 2 (1 - beta) r / (1 - beta r)
            + (1 - beta) (1 + beta r) / ((1 + beta) (1 - beta r))].
    ``c`` is ``c_per_noise`` times the noise variance when set, else
    ``c_threshold``; with ``c_per_noise`` the step does not depend on
    ``snr_db``.  Treating the gradients as independent instead gives
    ``s = (1 - beta) / (1 + beta) * noise_var L / (L - 1)`` and, under
    ``configs/paper.json``, a step 11% higher.
    """
    beta, length = config.beta, config.filter_length()
    c = config.c_threshold
    if config.c_per_noise is not None:
        c = config.c_per_noise * config.noise_variance(snr_db)

    def law(mu):
        r = 1.0 - mu / length
        d = nlms_steady_state(config, snr_db, mu) / config.n_r
        s = ((1.0 - beta) / mu) ** 2 * d * (
            1.0 - 2.0 * (1.0 - beta) * r / (1.0 - beta * r)
            + (1.0 - beta) * (1.0 + beta * r) / ((1.0 + beta) * (1.0 - beta * r))
        )
        return config.mu_max * s / (s + c)

    # law(mu) - mu is positive near 0 and negative at mu_max: bisect.
    low, high = 0.0, config.mu_max
    for _ in range(100):
        middle = (low + high) / 2.0
        low, high = (middle, high) if law(middle) > middle else (low, middle)
    return (low + high) / 2.0


def za_bias(config, snr_db):
    """Mean pull of a fixed-step ZA row toward zero on each tap part far from zero.

    For isotropic regressors ``E[x* x^T / ||x||^2] = I / L``, so the row's
    mean follows ``E w <- E w + (mu / L)(h - E w) - gamma_za csign(w)``.
    Where ``csign(w)`` is the sign of ``h`` the fixed point lies
    ``gamma_za L / mu = rho_za noise_var L`` closer to zero.  The config
    must set ``rho_za``.
    """
    return config.rho_za * config.noise_variance(snr_db) * config.filter_length()


def rza_bias(config, snr_db, h):
    """Mean pull of a fixed-step RZA row toward zero, per complex tap of ``h``.

    The penalty is ``gamma_rza / (1 + epsilon_rza |w|)`` on each part's
    sign, with ``|w|`` the tap's complex magnitude, so the ZA argument
    gives each part of a tap the same bias ``b``, the fixed point of
        b = (gamma_rza L / mu) / (1 + epsilon_rza |h - b csign(h)|),
    with ``gamma_rza L / mu = rho_rza epsilon_rza noise_var L``.  It holds
    on parts whose magnitude is well above that strength: closer to zero
    the fixed point turns bistable and the tap can stay trapped at its
    zero start.  The config must set ``rho_rza``.
    """
    strength = (
        config.rho_rza * config.epsilon_rza * config.noise_variance(snr_db)
        * config.filter_length()
    )
    csign = np.sign(h.real) + 1j * np.sign(h.imag)
    b = np.zeros(h.shape)
    for _ in range(100):
        b = strength / (1.0 + config.epsilon_rza * np.abs(h - b * csign))
    return b
