"""Golden anchors: pinned MSE curve samples and BER bit counts.

The values in ``golden/anchors.json`` were computed once, by
:func:`pin` below, and are compared against the current code on every
run.  Refactors that reorder floating-point sums may move the MSE
samples by rounding only (rtol 1e-12); the BER counts must match
exactly.  Re-pin only for an intended change of results, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from sparsenlms.config import ExperimentConfig
from sparsenlms.harness import run_ber_sweep, run_monte_carlo_mse

ANCHORS = Path(__file__).with_name("golden") / "anchors.json"

MSE_CONFIG = dict(num_trials=5, max_iterations=1000)
# 1-based iterations at which the MSE curves are sampled.
MSE_SAMPLES = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]
# The small 16-QAM sweep of ``ber_config()`` in test_harness.py.
BER_CONFIG = dict(
    n_t=2,
    n_r=2,
    tap_length=4,
    sparsity=1,
    algorithms=["vss_nlms"],
    subcarrier_count=16,
    cp_length=4,
    qam_orders=[16],
    esn0_range_db=[15.0, 30.0],
    ber_training_snr_db=10.0,
    ber_num_channels=2,
    ber_min_errors=0,
    ber_min_bits=2000,
    ber_max_frames=100,
    max_iterations=300,
    rng_seed=55,
)


def mse_samples():
    index = np.array(MSE_SAMPLES) - 1
    return {
        f"{curve.algorithm}@{curve.snr_db:g}": curve.values[index].tolist()
        for curve in run_monte_carlo_mse(ExperimentConfig(**MSE_CONFIG))
    }


def ber_counts():
    return {
        f"{curve.algorithm}@QAM{curve.qam_order}": {
            "bit_errors": curve.bit_errors.tolist(),
            "bits_total": curve.bits_total.tolist(),
        }
        for curve in run_ber_sweep(ExperimentConfig(**BER_CONFIG))
    }


def pin():
    """Recompute every anchor and overwrite ``golden/anchors.json``."""
    anchors = {
        "mse_config": MSE_CONFIG,
        "mse_samples_at": MSE_SAMPLES,
        "mse": mse_samples(),
        "ber_config": BER_CONFIG,
        "ber": ber_counts(),
    }
    ANCHORS.write_text(json.dumps(anchors, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def anchors():
    stored = json.loads(ANCHORS.read_text())
    # The anchors only mean something for the configurations they were
    # pinned with.
    assert stored["mse_config"] == MSE_CONFIG
    assert stored["mse_samples_at"] == MSE_SAMPLES
    assert stored["ber_config"] == BER_CONFIG
    return stored


def test_mse_curves_match_golden(anchors):
    got = mse_samples()
    assert sorted(got) == sorted(anchors["mse"])
    for key, values in anchors["mse"].items():
        np.testing.assert_allclose(got[key], values, rtol=1e-12, atol=0, err_msg=key)


def test_ber_counts_match_golden(anchors):
    assert ber_counts() == anchors["ber"]


if __name__ == "__main__":
    pin()
