"""Correctness checks on the CSV files a workload writes.

Each output curve (one CSV file) passes or fails as a whole.  Checks
that hold on any seed:

* every value is finite;
* an MSE curve's tail (last 10% of iterations) lies below the
  zero-estimator baseline ``n_r``;
* an ``iss_nlms`` tail lies within a factor ``ISS_FACTOR`` of the NLMS
  learning curve: the Sayed steady state
  ``n_r * mu / (2 - mu) * noise_var * L / E||x||^2`` plus the initial
  error ``n_r`` decaying by ``1 - mu (2 - mu) / L`` per update of each
  antenna's filter (at 5000 iterations the transient still adds about
  as much as the steady state at 20 dB);
* per BER point, bit errors and totals are consistent, and the genie
  detector is no worse than any estimator: the genie's Wilson lower
  bound does not exceed the estimator's Wilson upper bound at ``Z``.

On seeds with a pinned reference (see ``pin_reference.py``), sampled
MSE values must match to relative tolerance ``MSE_RTOL`` (vectorizing
reorders floating-point sums) and BER bit-error counts to within
``BER_FLIPS`` bits per point (rare flips at a decision boundary), with
``bits_total`` exact.
"""

from __future__ import annotations

import csv
import math
import os

ISS_FACTOR = 1.5
Z = 3.29
MSE_RTOL = 1e-9
BER_FLIPS = 2
REFERENCE_SAMPLES = 21
TAIL_FRACTION = 0.1
# E||x||^2 of the harness's unit-total-power training regressors.
TRAINING_ENERGY = 1.0


def read_csv(path):
    """Return ``(header_fields, rows)`` of a sparsenlms CSV file."""
    with open(path, newline="") as handle:
        comment = handle.readline().split()
        reader = csv.reader(handle)
        next(reader)
        rows = [row for row in reader]
    header = dict(part.split("=", 1) for part in comment[2:])
    header["kind"] = comment[1]
    return header, rows


def mse_values(rows):
    return [float(row[1]) for row in rows]


def sample_indices(count):
    if count <= REFERENCE_SAMPLES:
        return list(range(count))
    return [round(i * (count - 1) / (REFERENCE_SAMPLES - 1)) for i in range(REFERENCE_SAMPLES)]


def _digest_entry(header, rows):
    if header["kind"] == "mse-curve":
        values = mse_values(rows)
        return {"mse": [values[i] for i in sample_indices(len(values))]}
    return {
        "bit_errors": [int(row[2]) for row in rows],
        "bits_total": [int(row[3]) for row in rows],
    }


def digest(out_dir, names):
    """Reference digest of the curves in ``out_dir``: sampled MSE values, BER counts."""
    return {
        name: _digest_entry(*read_csv(os.path.join(out_dir, name)))
        for name in sorted(names)
    }


def _tail(values):
    count = max(1, int(round(TAIL_FRACTION * len(values))))
    return sum(values[-count:]) / count


def iss_prediction(config, snr_db, iterations):
    """Mean NLMS learning-curve value over the tail of ``iterations``."""
    length = config.n_t * config.tap_length
    noise_var = 10.0 ** (-snr_db / 10.0) / length
    steady = (
        config.n_r * config.mu / (2.0 - config.mu) * noise_var * length / TRAINING_ENERGY
    )
    contraction = 1.0 - config.mu * (2.0 - config.mu) / length
    count = max(1, int(round(TAIL_FRACTION * iterations)))
    first = iterations - count + 1
    transient = sum(
        contraction ** (n / config.n_r) for n in range(first, iterations + 1)
    ) / count
    return steady + (config.n_r - steady) * transient


def _check_mse(header, rows, config):
    values = mse_values(rows)
    if not values or not all(math.isfinite(v) for v in values):
        return "non-finite or empty MSE curve"
    tail = _tail(values)
    if not tail < config.n_r:
        return f"tail {tail:.4g} not below zero-estimator baseline {config.n_r}"
    if header["algorithm"] == "iss_nlms":
        predicted = iss_prediction(config, float(header["snr_db"]), len(values))
        ratio = tail / predicted
        if not 1.0 / ISS_FACTOR <= ratio <= ISS_FACTOR:
            return f"iss_nlms tail/theory {ratio:.3f} outside factor {ISS_FACTOR}"
    return None


def wilson(errors, total, z=Z):
    """Wilson score interval ``(low, high)`` for ``errors`` out of ``total``."""
    p = errors / total
    denom = 1.0 + z * z / total
    centre = (p + z * z / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom
    return centre - half, centre + half


def _ber_points(rows):
    return [(float(r[0]), float(r[1]), int(r[2]), int(r[3])) for r in rows]


def _check_ber(points):
    for esn0, ber, errors, total in points:
        if not (math.isfinite(esn0) and math.isfinite(ber)):
            return "non-finite BER value"
        if total <= 0 or not 0 <= errors <= total:
            return f"inconsistent counts {errors}/{total}"
        if abs(ber - errors / total) > 1e-12:
            return f"ber {ber} is not {errors}/{total}"
    return None


def check_outputs(out_dir, names, config, reference):
    """Return ``{csv_name: failure reason or None}`` for every curve."""
    results = {}
    ber = {}
    current = {}
    for name in sorted(names):
        header, rows = read_csv(os.path.join(out_dir, name))
        current[name] = _digest_entry(header, rows)
        if header["kind"] == "mse-curve":
            results[name] = _check_mse(header, rows, config)
        else:
            points = _ber_points(rows)
            results[name] = _check_ber(points)
            ber[name] = (header, points)
    _check_genie(ber, results)
    if reference is not None:
        _check_reference(current, reference, results)
    return results


def _check_genie(ber, results):
    genie = {
        int(h["qam_order"]): pts for h, pts in ber.values() if h["algorithm"] == "true_channel"
    }
    for name, (header, points) in ber.items():
        base = genie.get(int(header["qam_order"]))
        if base is None:
            results[name] = results[name] or "no genie curve for this order"
            continue
        if header["algorithm"] == "true_channel" or results[name]:
            continue
        for (esn0, _, g_err, g_tot), (_, _, e_err, e_tot) in zip(base, points):
            if wilson(g_err, g_tot)[0] > wilson(e_err, e_tot)[1]:
                results[name] = f"genie worse than estimator at {esn0:g} dB"
                break


def _check_reference(current, reference, results):
    if sorted(reference) != sorted(current):
        for name in current:
            results[name] = results[name] or "output files differ from the reference set"
        return
    for name in current:
        if results[name]:
            continue
        want, got = reference[name], current[name]
        if "mse" in want:
            if len(want["mse"]) != len(got["mse"]) or any(
                not math.isclose(a, b, rel_tol=MSE_RTOL, abs_tol=0.0)
                for a, b in zip(want["mse"], got["mse"])
            ):
                results[name] = f"MSE differs from reference beyond rtol {MSE_RTOL}"
        elif want["bits_total"] != got["bits_total"] or any(
            abs(a - b) > BER_FLIPS for a, b in zip(want["bit_errors"], got["bit_errors"])
        ):
            results[name] = "BER counts differ from reference"
