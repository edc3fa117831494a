"""Unit tests for the adaptive filter update rules."""

import numpy as np
import pytest

from sparsenlms import filters
from sparsenlms.config import VARIANTS
from naive_oracle import run_oracle
from single_filter import update_one


def complex_normal(rng, size, scale=1.0):
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


# The naive oracle's defaults: no penalty unless a strength is given.
ORACLE_DEFAULTS = dict(
    mu=0.2, mu_max=2.0, c_threshold=1e-4, beta=0.99,
    gamma_za=0.0, gamma_rza=0.0, epsilon_rza=20.0,
)


def make_config(variant, **kwargs):
    """The ``RowParams`` of one filter, with the oracle's defaults."""
    return filters.RowParams([variant], **{**ORACLE_DEFAULTS, **kwargs})


# -- prediction error (returned by update_rows) -------------------------------


def test_variants_keep_the_default_order():
    # The default algorithms: the order of stdout lines and of the
    # manifest's config.
    assert VARIANTS == (
        "iss_nlms", "vss_nlms", "iss_za_nlms",
        "iss_rza_nlms", "vss_za_nlms", "vss_rza_nlms",
    )


def test_error_zero_estimator_passes_observation_through():
    config = make_config("iss_nlms")
    x = np.array([1.0, 2.0, -1.0, 0.5], dtype=np.complex128)
    weights, grad_avg = np.zeros((2, 4), complex)
    e, _ = update_one(weights, grad_avg, x, 3 + 1j, config)
    assert e == 3 + 1j


def test_error_perfect_estimator_is_zero():
    rng = np.random.default_rng(11)
    w = complex_normal(rng, 6)
    x = complex_normal(rng, 6)
    config = make_config("iss_nlms")
    e, _ = update_one(w, np.zeros(6, complex), x, np.dot(w, x), config)
    assert e == 0


def test_error_hand_example():
    # Plain transpose, no conjugation: e = 3 - [1, 0] . [1, 1] = 2.
    weights = np.array([1.0, 0.0], dtype=np.complex128)
    x = np.array([1.0, 1.0], dtype=np.complex128)
    config = make_config("iss_nlms")
    e, _ = update_one(weights, np.zeros(2, complex), x, 3.0, config)
    assert e == 2.0


# -- componentwise sign -------------------------------------------------------
# Taken through the penalty at a pull of exactly 1, which equals the sign.


def test_sign_real_values():
    out = filters._attraction(np.array([-2.0, 0.0, 3.0], dtype=complex), 1.0, 0.0)
    assert np.array_equal(out, np.array([-1.0, 0.0, 1.0], dtype=complex))


def test_sign_zero_is_zero():
    assert filters._attraction(np.array([0j]), 1.0, 0.0)[0] == 0j


def test_sign_complex_componentwise():
    out = filters._attraction(np.array([0.5 - 0.3j]), 1.0, 0.0)
    assert out[0] == 1.0 - 1.0j


# -- adaptive step law --------------------------------------------------------


def test_vss_zero_gradient_gives_zero_step():
    assert filters.vss_steps(np.zeros(8, dtype=complex), 2.0, 1e-4) == 0.0


def test_vss_midpoint_is_exactly_half_mu_max():
    # 0.25**2 and 0.0625 are exact binary floats, so the energy hits the
    # threshold exactly and the quotient is exactly one half.
    p = np.array([0.25], dtype=np.complex128)
    assert filters.vss_steps(p, 2.0, 0.0625) == 1.0


def test_vss_direct_evaluation():
    p = np.array([0.03], dtype=np.complex128)  # energy 9e-4
    assert filters.vss_steps(p, 2.0, 1e-4) == pytest.approx(1.8, rel=1e-12)


def test_vss_stays_below_mu_max_and_increases_with_energy():
    rng = np.random.default_rng(5)
    direction = complex_normal(rng, 6)
    direction /= np.sqrt(np.vdot(direction, direction).real)
    previous = -1.0
    for scale in [1e-6, 1e-3, 1e-1, 1.0, 10.0, 1e4]:
        mu = filters.vss_steps(scale * direction, 2.0, 1e-4)
        assert 0.0 <= mu < 2.0
        assert mu > previous
        previous = mu


# -- gradient smoothing (grad_avg after update_rows) --------------------------


def vss_step(grad_avg, x, y, beta):
    """One vss_nlms update from zero taps; returns ``(grad_avg, error)``."""
    grad_avg = np.array(grad_avg, dtype=complex)
    config = make_config("vss_nlms", beta=beta)
    error, _ = update_one(np.zeros(x.size, complex), grad_avg, x, y, config)
    return grad_avg, error


def test_grad_avg_no_smoothing_equals_normalized_gradient():
    rng = np.random.default_rng(7)
    x = complex_normal(rng, 5)
    e = 0.3 - 0.7j
    grad_avg, error = vss_step(np.zeros(5), x, e, 0.0)
    assert error == e
    expected = (e / np.vdot(x, x).real) * np.conj(x)
    assert np.allclose(grad_avg, expected, rtol=0, atol=0)


def test_grad_avg_zero_history_scales_by_one_minus_beta():
    rng = np.random.default_rng(8)
    x = complex_normal(rng, 5)
    e = 1.0 + 2.0j
    grad_avg, _ = vss_step(np.zeros(5), x, e, 0.75)
    expected = 0.25 * (e / np.vdot(x, x).real) * np.conj(x)
    assert np.allclose(grad_avg, expected, rtol=1e-15)


def test_grad_avg_hand_example():
    grad_avg, _ = vss_step([0.1], np.array([1.0], dtype=complex), 1.0, 0.99)
    assert grad_avg[0] == pytest.approx(0.109, rel=1e-12)


# -- penalties ----------------------------------------------------------------


def test_zero_attraction_disabled_is_zero_vector():
    w = np.array([1.0 + 1j, -2.0], dtype=complex)
    out = filters._attraction(w, 0.0, 0.0)
    assert np.array_equal(out, np.zeros(2, complex))


def test_zero_attraction_hand_example():
    # gamma = 0.006 * 0.1: attraction scaled by the noise floor.
    w = np.array([-0.5, 0.0, 0.2], dtype=np.complex128)
    out = filters._attraction(w, 0.006 * 0.1, 0.0)
    assert np.allclose(out, [-6e-4, 0.0, 6e-4], rtol=0, atol=1e-18)
    assert out[1] == 0


def test_reweighted_zero_weights_give_zero_term():
    out = filters._attraction(np.zeros(4, complex), 0.01, 20.0)
    assert np.array_equal(out, np.zeros(4, complex))


def test_reweighted_hand_example():
    out = filters._attraction(
        np.array([0.05], dtype=np.complex128), 0.01, 20.0
    )
    assert out[0] == 0.005


def test_reweighted_vanishes_for_large_taps():
    big = np.array([100.0], dtype=np.complex128)
    out = filters._attraction(big, 0.01, 20.0)
    approx = 0.01 / (20.0 * 100.0)
    assert abs(out[0]) == pytest.approx(approx, rel=1e-3)
    assert abs(out[0]) < 1e-5


def test_reweighted_matches_plain_attraction_at_zero_magnitude():
    w = np.zeros(3, dtype=complex)
    za = filters._attraction(w, 0.01, 0.0)
    rza = filters._attraction(w, 0.01, 20.0)
    assert np.array_equal(za, rza)


def test_reweighted_approaches_plain_attraction_for_tiny_taps():
    w = np.array([1e-12 - 1e-12j], dtype=np.complex128)
    za = filters._attraction(w, 0.01, 0.0)
    rza = filters._attraction(w, 0.01, 20.0)
    assert np.allclose(za, rza, rtol=1e-9)


# -- single updates -----------------------------------------------------------


def test_step_iss_scalar_hand_example():
    config = make_config("iss_nlms", mu=0.2)
    weights = np.zeros(1, complex)
    e, step_size = update_one(
        weights, np.zeros(1, complex), np.array([1.0], dtype=complex), 1.0, config
    )
    assert e == 1.0
    assert weights[0] == pytest.approx(0.2, rel=0, abs=0)
    assert step_size == 0.2


def test_step_vss_with_beta_near_one_barely_moves():
    config = make_config("vss_za_nlms", beta=1.0 - 1e-9, gamma_za=0.0)
    weights = np.zeros(1, complex)
    _, step_size = update_one(
        weights, np.zeros(1, complex), np.array([1.0], dtype=complex), 1.0, config
    )
    assert step_size < 1e-12
    assert abs(weights[0]) < 1e-12


def test_step_zero_error_zero_penalty_leaves_weights_unchanged():
    rng = np.random.default_rng(21)
    for variant in VARIANTS:
        config = make_config(variant)
        w = complex_normal(rng, 4)
        weights = w.copy()
        x = complex_normal(rng, 4)
        y = np.dot(w, x)  # exact, so e == 0
        e, _ = update_one(weights, np.zeros(4, complex), x, y, config)
        assert e == 0
        assert np.array_equal(weights, w)


def test_iss_config_ignores_vss_fields():
    # Fixed-step rows do not read the vss knobs, even out-of-range ones.
    x = np.array([1.0 + 0j, -0.5j])
    results = []
    for vss_fields in ({}, dict(mu_max=99.0, beta=5.0, c_threshold=-1.0)):
        config = make_config("iss_za_nlms", gamma_za=0.01, **vss_fields)
        weights, grad_avg = np.full((2, 2), 0.3 + 0.1j)
        _, step_size = update_one(weights, grad_avg, x, 1.0, config)
        assert step_size == 0.2
        results.append((weights, grad_avg))
    assert all(np.array_equal(a, b) for a, b in zip(*results))


def test_fixed_row_ignores_vss_fields_beside_an_adaptive_row():
    # Beside a vss row the batch smooths its gradient and runs the vss
    # law, so the fixed row's taps and step must still not depend on them.
    rng = np.random.default_rng(31)
    xs = [complex_normal(rng, 4) for _ in range(3)]
    ys = [complex_normal(rng, 2) for _ in range(3)]
    runs = []
    for vss_fields in ({}, dict(mu_max=1.5, beta=0.5, c_threshold=1e-2)):
        params = filters.RowParams(
            ["iss_za_nlms", "vss_nlms"],
            **{**ORACLE_DEFAULTS, "gamma_za": 0.01, **vss_fields},
        )
        weights, grad_avg = np.zeros((2, 2, 4), complex)
        for x, y in zip(xs, ys):
            _, steps = filters.update_rows(
                weights, grad_avg, x, x.conj(), filters.row_energy(x), y, params
            )
            assert steps[0] == 0.2
        runs.append((weights[0].tobytes(), steps[1]))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] != runs[1][1]


# -- reduction identities -----------------------------------------------------


def run_variant(variant, regressors, observations, **kwargs):
    """The taps after each update, one row per update."""
    config = make_config(variant, **kwargs)
    weights, grad_avg = np.zeros((2, regressors[0].size), complex)
    trajectory = []
    for x, y in zip(regressors, observations):
        update_one(weights, grad_avg, x, y, config)
        trajectory.append(weights.copy())
    return np.array(trajectory)


def test_za_with_zero_gamma_reduces_to_plain_bitwise():
    rng = np.random.default_rng(77)
    xs = [complex_normal(rng, 6) for _ in range(50)]
    ys = [complex(*rng.standard_normal(2)) for _ in range(50)]
    for za, plain in [
        ("vss_za_nlms", "vss_nlms"),
        ("iss_za_nlms", "iss_nlms"),
    ]:
        got = run_variant(za, xs, ys, gamma_za=0.0)
        want = run_variant(plain, xs, ys)
        assert np.array_equal(got, want)


def test_rza_with_zero_gamma_reduces_to_plain_bitwise():
    rng = np.random.default_rng(78)
    xs = [complex_normal(rng, 6) for _ in range(50)]
    ys = [complex(*rng.standard_normal(2)) for _ in range(50)]
    got = run_variant("vss_rza_nlms", xs, ys, gamma_rza=0.0)
    want = run_variant("vss_nlms", xs, ys)
    assert np.array_equal(got, want)


# -- behavioral properties ----------------------------------------------------


def test_vss_step_bounds_hold_throughout_noisy_run():
    rng = np.random.default_rng(90)
    w_true = complex_normal(rng, 8, scale=0.3)
    config = make_config("vss_nlms")
    weights, grad_avg = np.zeros((2, 8), complex)
    for n in range(500):
        x = complex_normal(rng, 8)
        y = np.dot(w_true, x) + 0.05 * complex(*rng.standard_normal(2))
        e, step_size = update_one(weights, grad_avg, x, y, config)
        assert 0.0 <= step_size < 2.0
        if n == 0:
            assert e != 0
            assert step_size > 0.0


def test_vss_step_size_decays_as_noiseless_run_converges():
    rng = np.random.default_rng(91)
    w_true = complex_normal(rng, 8, scale=0.3)
    config = make_config("vss_nlms", beta=0.9)
    weights, grad_avg = np.zeros((2, 8), complex)
    trace = np.empty(1000)
    for n in range(1000):
        x = complex_normal(rng, 8)
        _, trace[n] = update_one(weights, grad_avg, x, np.dot(w_true, x), config)
    assert trace[900:].mean() < trace[:100].mean()


def test_iss_noiseless_convergence_below_threshold():
    rng = np.random.default_rng(92)
    w_true = complex_normal(rng, 64, scale=np.sqrt(0.5 / 64))
    config = make_config("iss_nlms", mu=0.2)
    weights, grad_avg = np.zeros((2, 64), complex)
    for _ in range(5000):
        x = complex_normal(rng, 64)
        update_one(weights, grad_avg, x, np.dot(w_true, x), config)
    residual = np.vdot(w_true - weights, w_true - weights).real
    assert residual < 1e-6


# -- oracle equivalence -------------------------------------------------------


ORACLE_PARAMS = dict(ORACLE_DEFAULTS, gamma_za=3e-4, gamma_rza=6e-4)


@pytest.mark.parametrize("variant", VARIANTS)
def test_trajectories_match_naive_oracle(variant):
    rng = np.random.default_rng(1000)
    for _ in range(5):
        length = int(rng.integers(1, 9))
        w_true = complex_normal(rng, length, scale=0.5)
        xs = [complex_normal(rng, length) for _ in range(200)]
        ys = [
            np.dot(w_true, x) + 0.03 * complex(*rng.standard_normal(2))
            for x in xs
        ]
        expected = run_oracle(
            variant,
            [[complex(v) for v in x] for x in xs],
            [complex(y) for y in ys],
            **ORACLE_PARAMS,
        )
        got = run_variant(variant, xs, ys, **ORACLE_PARAMS)
        want = np.array(expected["weights"])
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() / scale < 1e-10
