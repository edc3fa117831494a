"""Deliberately naive references for the update rules and the error metric.

The six update rules are written with plain Python scalars and explicit
loops, no numpy, so that agreement with the vectorized package code is
evidence of correctness rather than shared bugs.  :func:`channel_error`
scores a whole estimate directly.  Used by the unit tests and by the
acceptance suite.
"""

import numpy as np


def csign(z):
    def s(v):
        if v > 0.0:
            return 1.0
        if v < 0.0:
            return -1.0
        return 0.0

    return complex(s(z.real), s(z.imag))


def run_oracle(variant, regressors, observations, mu=0.2, mu_max=2.0,
               c_threshold=1e-4, beta=0.99, gamma_za=0.0, gamma_rza=0.0,
               epsilon_rza=20.0):
    """Run the named update rule step by step.

    ``regressors`` is a sequence of complex-number lists, one per
    iteration; ``observations`` the matching scalars.  Returns a dict
    with per-iteration weight snapshots, errors and step sizes.
    """
    length = len(regressors[0])
    w = [0j] * length
    p = [0j] * length
    weights_history = []
    errors = []
    steps = []

    vss = variant.startswith("vss")
    if variant.endswith("rza_nlms"):
        penalty = "rza"
    elif variant.endswith("za_nlms"):
        penalty = "za"
    else:
        penalty = None

    for x, y in zip(regressors, observations):
        e = y
        for i in range(length):
            e = e - w[i] * x[i]

        energy = 0.0
        for i in range(length):
            energy = energy + x[i].real ** 2 + x[i].imag ** 2

        if vss:
            for i in range(length):
                p[i] = beta * p[i] + (1.0 - beta) * (e / energy) * x[i].conjugate()
            p_energy = 0.0
            for i in range(length):
                p_energy = p_energy + p[i].real ** 2 + p[i].imag ** 2
            step = mu_max * p_energy / (p_energy + c_threshold)
        else:
            step = mu

        new_w = [0j] * length
        for i in range(length):
            new_w[i] = w[i] + (step * e / energy) * x[i].conjugate()
            if penalty == "za":
                new_w[i] = new_w[i] - gamma_za * csign(w[i])
            elif penalty == "rza":
                new_w[i] = new_w[i] - gamma_rza * csign(w[i]) / (
                    1.0 + epsilon_rza * abs(w[i])
                )
        w = new_w

        weights_history.append(list(w))
        errors.append(e)
        steps.append(step)

    return {"weights": weights_history, "errors": errors, "steps": steps}



def channel_error(h_true, h_est):
    """Squared Frobenius distance between two channel matrices.

    Computed from the whole estimate at once, unlike the harness, which
    rescores only the antennas each round changed.
    """
    h_true = np.asarray(h_true)
    h_est = np.asarray(h_est)
    if h_true.shape != h_est.shape:
        raise ValueError(f"shape mismatch: {h_true.shape} vs {h_est.shape}")
    diff = h_true - h_est
    return float(np.sum(diff.real**2 + diff.imag**2))
