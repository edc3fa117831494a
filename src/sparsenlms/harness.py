"""Monte Carlo experiment harness for sparse MIMO channel estimation.

The harness estimates a static ``n_r x (n_t * tap_length)`` channel
matrix by running one adaptive filter per receive antenna.  Iteration
``n`` (1-based) updates only antenna ``mod(n - 1, n_r) + 1`` with a
fresh unit-power training regressor and a noisy observation through the
true channel.  Identification quality is tracked per iteration as the
squared Frobenius distance between the true and estimated matrices, and
averaged across trials elementwise.

Noise levels derive from the received SNR: with unit-norm receive rows
and unit-total-power regressors the received signal power is ``1 /
(n_t * tap_length)``, and the noise variance is that power times
``10**(-snr_db / 10)``.

The penalty strengths of the sparsity-aware variants scale with the
noise floor.  The configured coefficients ``rho_za`` and ``rho_rza``
act as regularization weights in units of the noise variance; the
update prefactors passed to the filters are ``gamma_za = mu * rho_za *
variance`` and ``gamma_rza = mu * rho_rza * epsilon_rza * variance``
(the reweighted pull is defined through the product of step size,
regularization weight and reweighting scale).

The bit-error-rate sweep trains each algorithm at a fixed SNR, freezes
the estimates, and transmits Gray-coded QAM over cyclic-prefixed OFDM
frames of ``K`` subcarriers through the true channel, detecting per
subcarrier by zero forcing with either the frozen estimates or the true
channel ("genie" baseline, reported as algorithm ``true_channel``).
All detectors see identical frames, bits and noise, so BER differences
reflect only channel-estimate quality.

Frames are synthesized directly in the frequency domain.  Because the
cyclic prefix is at least as long as the channel memory (``cp_length
>= tap_length - 1``, enforced by ``validate_ofdm``), the linear
convolution of a prefixed block with each link's impulse response is
circular over the kept ``K`` samples, so subcarrier ``k`` sees exactly
``Y_k = H_k X_k + N_k``.  ``H_k`` is the ``K``-point DFT of the impulse
responses and ``N_k`` the unitary DFT of the time-domain noise after
prefix removal.  The full prefixed noise block is still drawn, so the
random streams match a time-domain simulation of the same frames.

Estimation runs row-batched (:func:`run_trial_rows`).  The rows of one
trial are the (algorithm, SNR) pairs that share its channel and data
streams; one Python loop advances all of them together through
``filters.update_rows``, whose per-row rounding does not depend on how
many rows are batched, so a row's results equal a batch of one.
Training data are drawn ``CHUNK_ITERATIONS`` iterations at a time as
one ``(C, 2L + 2)`` block of normals per trial.  Row ``i`` of the block
holds iteration ``i``'s real parts, imaginary parts and noise pair,
which is exactly the order in which drawing them one iteration at a
time consumes the stream, so the regressors and noise are unchanged
bit for bit.  Each row's noise is the shared unit pair scaled by its
own SNR.  The error metric is always computed, incrementally: an
update changes one antenna's row, so only that row's entry in a running
``(n_r, B)`` table of per-antenna errors is recomputed (O(L) rather
than O(n_r L)).  The table is copied once per iteration and the copies
are summed antenna by antenna once per chunk.  The stop rule is a
per-row frozen mask: a row freezes at its first update whose squared
norm is at most ``stop_epsilon`` (0 turns the rule off); its
``iterations_run`` and estimate are recorded at that update and its
series repeat their last value.  A frozen row stays in the batch and
its later updates are discarded; the trial ends early once every row is
frozen.  A trial whose final error is not finite or exceeds the
all-zero estimator's ``n_r`` counts as diverged.

Reproducibility: every random stream is derived from ``rng_seed``
together with the trial (or frame) index through seed sequences, and
aggregation always runs in fixed trial order, so equal configurations
produce byte-identical outputs.  Trials never share mutable state and
may be computed in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import filters
from .channel import ChannelMatrix, generate_sparse_channel
from .modem import QAM_ORDERS, qam_constellation, qam_demodulate, qam_modulate
from .signals import training_chunk

TRUE_CHANNEL = "true_channel"

# Iterations whose training data are drawn and post-processed at once.
# Larger chunks cut per-chunk overhead but raise peak memory.
CHUNK_ITERATIONS = 100

# Regularization weights (per unit noise variance) by channel sparsity:
# single-tap links get the stronger pull.
DEFAULT_RHO_ZA = {1: 0.006, "denser": 0.002}
DEFAULT_RHO_RZA = {1: 0.0006, "denser": 0.0002}


@dataclass
class ExperimentConfig:
    """Full description of one experiment.

    Defaults describe the reference scenario: a 4x4 channel with 16
    taps per link, unit-power training, all six algorithm variants,
    200 trials.  ``rho_za`` and ``rho_rza`` default per sparsity
    (0.006/0.0006 for single-tap links, 0.002/0.0002 otherwise).

    ``stop_epsilon`` is the squared-Frobenius threshold on successive
    estimates below which a trial stops early.  It defaults to 0
    (disabled): the classic stop rule value of 1e-5 triggers on single
    small-error updates long before the average error settles, which
    truncates convergence curves; set it explicitly when early
    stopping is wanted.

    ``c_by_snr`` optionally maps an SNR in dB to its own ``c_threshold``.
    It is unset by default: a flat 1e-4 keeps the adaptive step in its
    productive range during the transient, while 1e-5 pins the step
    against ``mu_max``, where the normalized update barely contracts.

    Every algorithm is resolved at every SNR it can run at (``snr_db``
    and ``ber_training_snr_db``) on construction, so an invalid filter
    parameter is rejected here rather than partway through a run.
    """

    n_t: int = 4
    n_r: int = 4
    tap_length: int = 16
    sparsity: int = 1
    snr_db: list = field(default_factory=lambda: [10.0, 20.0])
    algorithms: list = field(default_factory=lambda: list(filters.VARIANTS))
    mu: float = 0.2
    mu_max: float = 2.0
    c_threshold: float = 1e-4
    c_by_snr: dict | None = None
    beta: float = 0.99
    rho_za: float | None = None
    rho_rza: float | None = None
    epsilon_rza: float = 20.0
    max_iterations: int = 5000
    stop_epsilon: float = 0.0
    num_trials: int = 200
    rng_seed: int = 12345
    subcarrier_count: int = 64
    cp_length: int = 16
    qam_orders: list = field(default_factory=lambda: [16, 64, 256])
    esn0_range_db: list = field(default_factory=lambda: [12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0])
    ber_training_snr_db: float = 10.0
    ber_num_channels: int = 10
    ber_min_errors: int = 100
    ber_min_bits: int = 100_000
    ber_max_frames: int = 1000

    def __post_init__(self):
        if self.n_t < 1 or self.n_r < 1:
            raise ValueError("n_t and n_r must be at least 1")
        if self.tap_length < 1:
            raise ValueError("tap_length must be at least 1")
        if not 1 <= self.sparsity <= self.tap_length:
            raise ValueError("sparsity must lie in [1, tap_length]")
        if not self.snr_db:
            raise ValueError("snr_db must not be empty")
        if not self.algorithms:
            raise ValueError("algorithms must not be empty")
        for name in self.algorithms:
            if name not in filters.VARIANTS:
                raise ValueError(
                    f"unknown algorithm {name!r}; expected one of {filters.VARIANTS}"
                )
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.stop_epsilon < 0.0:
            raise ValueError("stop_epsilon must be nonnegative")
        if self.num_trials < 1:
            raise ValueError("num_trials must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")
        for order in self.qam_orders:
            if order not in QAM_ORDERS:
                raise ValueError(f"qam order must be one of {QAM_ORDERS}, got {order}")
        if not self.esn0_range_db:
            raise ValueError("esn0_range_db must not be empty")
        if self.ber_num_channels < 1:
            raise ValueError("ber_num_channels must be at least 1")
        if self.ber_min_errors < 0 or self.ber_min_bits < 0:
            raise ValueError("ber stopping thresholds must be nonnegative")
        if self.ber_max_frames < 1:
            raise ValueError("ber_max_frames must be at least 1")
        for name in self.algorithms:
            for snr in [*self.snr_db, self.ber_training_snr_db]:
                self.algorithm_config(name, snr)

    # -- resolution helpers -------------------------------------------------

    def filter_length(self):
        return self.n_t * self.tap_length

    def received_signal_power(self):
        """Mean power of the noiseless observation at any receive antenna."""
        return 1.0 / self.filter_length()

    def noise_variance(self, snr_db):
        return self.received_signal_power() * 10.0 ** (-snr_db / 10.0)

    def c_for_snr(self, snr_db):
        if self.c_by_snr is not None and float(snr_db) in self.c_by_snr:
            return float(self.c_by_snr[float(snr_db)])
        return self.c_threshold

    def resolved_rho_za(self):
        if self.rho_za is not None:
            return self.rho_za
        return DEFAULT_RHO_ZA[1] if self.sparsity == 1 else DEFAULT_RHO_ZA["denser"]

    def resolved_rho_rza(self):
        if self.rho_rza is not None:
            return self.rho_rza
        return DEFAULT_RHO_RZA[1] if self.sparsity == 1 else DEFAULT_RHO_RZA["denser"]

    def algorithm_config(self, variant, snr_db):
        """Resolve the filter parameters for one variant at one SNR."""
        variance = self.noise_variance(snr_db)
        return filters.AlgorithmConfig(
            variant=variant,
            mu=self.mu,
            mu_max=self.mu_max,
            c_threshold=self.c_for_snr(snr_db),
            beta=self.beta,
            gamma_za=self.mu * self.resolved_rho_za() * variance,
            gamma_rza=self.mu * self.resolved_rho_rza() * self.epsilon_rza * variance,
            epsilon_rza=self.epsilon_rza,
        )

    def validate_ofdm(self):
        if self.cp_length < self.tap_length - 1:
            raise ValueError(
                f"cp_length {self.cp_length} shorter than channel memory "
                f"{self.tap_length - 1}"
            )
        if self.subcarrier_count < self.tap_length:
            raise ValueError("subcarrier_count must be at least tap_length")

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        out = {}
        for entry in fields(self):
            value = getattr(self, entry.name)
            if isinstance(value, list):
                value = list(value)
            elif isinstance(value, dict):
                value = {str(float(k)): float(v) for k, v in value.items()}
            out[entry.name] = value
        return out

    @classmethod
    def from_dict(cls, data):
        known = {entry.name for entry in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown configuration field(s): {', '.join(unknown)}")
        values = dict(data)
        # Scalars are accepted where lists are expected (a single SNR,
        # a single QAM order, one algorithm name) and element types are
        # normalized so serialized configs round-trip exactly.
        for name, kind in (("snr_db", float), ("esn0_range_db", float),
                           ("qam_orders", int)):
            if name in values:
                raw = values[name]
                if not isinstance(raw, (list, tuple)):
                    raw = [raw]
                values[name] = [kind(v) for v in raw]
        if isinstance(values.get("algorithms"), str):
            values["algorithms"] = [values["algorithms"]]
        if values.get("c_by_snr") is not None:
            values["c_by_snr"] = {
                float(k): float(v) for k, v in values["c_by_snr"].items()
            }
        return cls(**values)


# -- result containers ------------------------------------------------------


@dataclass
class TrialResult:
    """Outputs of a single estimation run.

    The error and step-size series always have ``max_iterations``
    entries; when the stop rule fires at iteration ``iterations_run``
    the remaining entries repeat the final value (the frozen estimate's
    error stays constant once updating stops).
    """

    squared_error: np.ndarray
    step_trace: np.ndarray
    final_estimate: np.ndarray
    channel: ChannelMatrix
    iterations_run: int

    @property
    def diverged(self):
        """Final error not finite or above the all-zero estimator's ``n_r``."""
        return not self.squared_error[-1] <= self.channel.n_r


@dataclass
class MseCurve:
    """Trial-averaged squared identification error per iteration.

    ``diverged`` counts the trials whose final error was not finite or
    exceeded the all-zero estimator's level ``n_r``.
    """

    values: np.ndarray
    algorithm: str
    snr_db: float
    sparsity: int
    num_trials: int
    rng_seed: int
    diverged: int = 0


@dataclass
class BerCurve:
    """Measured bit error rates over a range of symbol SNRs."""

    esn0_db: np.ndarray
    ber: np.ndarray
    bit_errors: np.ndarray
    bits_total: np.ndarray
    algorithm: str
    qam_order: int
    training_snr_db: float
    sparsity: int
    rng_seed: int


# -- metrics -------------------------------------------------------------------


def channel_error(h_true, h_est):
    """Squared Frobenius distance between two channel matrices."""
    h_true = np.asarray(h_true)
    h_est = np.asarray(h_est)
    if h_true.shape != h_est.shape:
        raise ValueError(f"shape mismatch: {h_true.shape} vs {h_est.shape}")
    diff = h_true - h_est
    return float(np.sum(diff.real**2 + diff.imag**2))


def steady_state_mean(values, fraction=0.1):
    """Mean over the trailing ``fraction`` of a series (at least 1 entry)."""
    values = np.asarray(values)
    count = max(1, int(round(fraction * values.size)))
    return float(values[-count:].mean())


# -- estimation experiments ---------------------------------------------------


def _antennas(start, count, n_r):
    """0-based antenna updated at each iteration ``start + 1 .. start + count``."""
    return (start + np.arange(count)) % n_r


def _observe(entries, antennas, x, noise, noise_scale):
    """Observations ``h_a . x + scale * noise``, shaped ``(count, B)``."""
    clean = filters.row_dot(entries[antennas], x)
    return clean[:, None] + noise[:, None] * noise_scale


def run_trial_rows(config, trial_index, pairs):
    """Run one seeded trial for every ``(algorithm, snr_db)`` pair together.

    Returns one :class:`TrialResult` per pair, in order.  All pairs
    share the trial's channel, regressors and unit noise draws; only
    the noise scale and the update rule differ per row.  Each row's
    results, error curve included, equal those of a batch of one.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be nonnegative")
    rng_channel = np.random.default_rng([config.rng_seed, trial_index, 0])
    chan = generate_sparse_channel(
        rng_channel, config.n_t, config.n_r, config.tap_length, config.sparsity
    )
    rng_data = np.random.default_rng([config.rng_seed, trial_index, 1])

    n_r, length, total = config.n_r, config.filter_length(), config.max_iterations
    rows = len(pairs)
    params = filters.RowParams(config.algorithm_config(a, s) for a, s in pairs)
    noise_scale = np.sqrt([config.noise_variance(snr) / 2.0 for _, snr in pairs])
    stop = config.stop_epsilon > 0.0

    weights = np.zeros((n_r, rows, length), dtype=np.complex128)
    grad_avg = np.zeros_like(weights)
    squared_error = np.empty((total, rows))
    step_trace = np.empty((total, rows))
    iterations_run = np.full(rows, total)
    final = np.empty((rows, n_r, length), dtype=np.complex128)
    frozen = np.zeros(rows, dtype=bool)
    # Current error of every antenna's row, and its value per iteration
    # of the current chunk.
    antenna_error = np.repeat(
        filters.row_energy(chan.entries)[:, None], rows, axis=1
    )
    history = np.empty((CHUNK_ITERATIONS, n_r, rows))

    for start in range(0, total, CHUNK_ITERATIONS):
        count = min(CHUNK_ITERATIONS, total - start)
        x, noise = training_chunk(rng_data, count, config.n_t, config.tap_length)
        x_conj = x.conj()
        energy = filters.row_energy(x)
        antennas = _antennas(start, count, n_r)
        y = _observe(chan.entries, antennas, x, noise, noise_scale)
        for i, antenna in enumerate(antennas.tolist()):
            w = weights[antenna]
            if stop:
                before = w.copy()
            _, step_trace[start + i] = filters.update_rows(
                w, grad_avg[antenna], x[i], x_conj[i], energy[i], y[i], params
            )
            antenna_error[antenna] = filters.row_energy(chan.entries[antenna] - w)
            history[i] = antenna_error
            if not stop:
                continue
            # A row freezes at its first update whose squared norm is at
            # most stop_epsilon; its later updates are discarded.
            settled = ~frozen & (
                filters.row_energy(w - before) <= config.stop_epsilon
            )
            if settled.any():
                iterations_run[settled] = start + i + 1
                final[settled] = weights[:, settled].transpose(1, 0, 2)
                frozen |= settled
                if frozen.all():
                    count = i + 1
                    break
        # Antenna by antenna, so the rounding is the same for any B: one
        # sum call would add 8 or more antennas pairwise when B = 1.
        totals = history[:count, 0]
        for antenna in range(1, n_r):
            totals = totals + history[:count, antenna]
        squared_error[start : start + count] = totals
        if frozen.all():
            break

    for row in np.flatnonzero(frozen):
        n = iterations_run[row]
        step_trace[n:, row] = step_trace[n - 1, row]
        squared_error[n:, row] = squared_error[n - 1, row]
    final[~frozen] = weights[:, ~frozen].transpose(1, 0, 2)
    return [
        TrialResult(
            squared_error=squared_error[:, row],
            step_trace=step_trace[:, row],
            final_estimate=final[row],
            channel=chan,
            iterations_run=int(iterations_run[row]),
        )
        for row in range(rows)
    ]


def run_estimation_trial(config, trial_index, algorithm=None, snr_db=None):
    """Run one seeded estimation trial and return its :class:`TrialResult`.

    The channel and the training/noise streams derive from
    ``(rng_seed, trial_index)`` only, never from the algorithm or SNR,
    so different algorithms face identical data and comparisons between
    them are paired.
    """
    algorithm = config.algorithms[0] if algorithm is None else algorithm
    snr_db = config.snr_db[0] if snr_db is None else snr_db
    return run_trial_rows(config, trial_index, [(algorithm, snr_db)])[0]


def run_monte_carlo_mse(config):
    """Average identification error curves for every (algorithm, SNR) pair.

    Each trial runs all pairs as one batch.  Trials are aggregated in
    index order, so repeated runs of the same configuration produce
    identical curves.
    """
    pairs = [(a, snr) for a in config.algorithms for snr in config.snr_db]
    totals = np.zeros((len(pairs), config.max_iterations))
    diverged = np.zeros(len(pairs), dtype=int)
    for trial in range(config.num_trials):
        for row, result in enumerate(run_trial_rows(config, trial, pairs)):
            totals[row] += result.squared_error
            diverged[row] += result.diverged
    totals /= config.num_trials
    return [
        MseCurve(
            values=totals[row],
            algorithm=algorithm,
            snr_db=snr,
            sparsity=config.sparsity,
            num_trials=config.num_trials,
            rng_seed=config.rng_seed,
            diverged=int(diverged[row]),
        )
        for row, (algorithm, snr) in enumerate(pairs)
    ]


# -- BER experiment -----------------------------------------------------------


def _frequency_responses(cir_matrix, n_t, n_r, tap_length, k):
    """Per-subcarrier channel matrices, shaped ``(k, n_r, n_t)``."""
    cirs = np.asarray(cir_matrix).reshape(n_r, n_t, tap_length)
    return np.moveaxis(np.fft.fft(cirs, n=k, axis=2), 2, 0)


def _zero_forcing_tables(freq_resp):
    """Pseudo-inverses plus a mask of rank-deficient subcarriers."""
    singular = np.linalg.svd(freq_resp, compute_uv=False)
    failed = singular[:, -1] <= singular[:, 0] * 1e-12
    return np.linalg.pinv(freq_resp), failed


def run_ber_sweep(config):
    """Train, freeze, transmit, detect: BER curves per algorithm and order.

    Returns one :class:`BerCurve` per (algorithm, QAM order) pair plus
    the genie baseline (``true_channel``) per order.  Frames at each
    E_s/N_0 point accumulate until the configured minimum bit and error
    counts are reached (or the frame cap), cycling through
    ``ber_num_channels`` independently trained channel realizations.
    """
    config.validate_ofdm()
    detectors = [TRUE_CHANNEL] + list(config.algorithms)
    k, cp = config.subcarrier_count, config.cp_length
    n_t, n_r = config.n_t, config.n_r

    true_responses = []
    # Per channel: the pseudo-inverses and erasure masks in detector order.
    zf_tables = []
    for trial in range(config.ber_num_channels):
        results = run_trial_rows(
            config,
            trial,
            [(a, config.ber_training_snr_db) for a in config.algorithms],
        )
        true_response = _frequency_responses(
            results[0].channel.entries, n_t, n_r, config.tap_length, k
        )
        tables = [_zero_forcing_tables(true_response)] + [
            _zero_forcing_tables(
                _frequency_responses(
                    result.final_estimate, n_t, n_r, config.tap_length, k
                )
            )
            for result in results
        ]
        true_responses.append(true_response)
        pinvs, failed = zip(*tables)
        zf_tables.append((pinvs, np.stack(failed)))

    curves = []
    for order in config.qam_orders:
        table = qam_constellation(order)
        bits_per_frame = k * n_t * table.bits_per_symbol
        point_errors = []
        point_bits = []
        for point_index, esn0 in enumerate(config.esn0_range_db):
            n0 = 10.0 ** (-esn0 / 10.0)
            errors = np.zeros(len(detectors), dtype=np.int64)
            bits_sent = 0
            frames = 0
            while frames < config.ber_max_frames:
                trial = frames % config.ber_num_channels
                rng = np.random.default_rng(
                    [config.rng_seed, 2, int(order), point_index, frames]
                )
                tx_bits = rng.integers(0, 2, size=(n_t, k * table.bits_per_symbol))
                symbols = qam_modulate(tx_bits, order).reshape(n_t, k)
                noise = np.sqrt(n0 / 2.0) * (
                    rng.standard_normal((n_r, k + cp))
                    + 1j * rng.standard_normal((n_r, k + cp))
                )
                rx_freq = np.einsum(
                    "kij,jk->ki", true_responses[trial], symbols
                ) + np.fft.fft(noise[:, cp:], axis=1).T / np.sqrt(k)
                sent = tx_bits.reshape(n_t, k, table.bits_per_symbol)
                pinvs, failed = zf_tables[trial]
                detected = np.stack(
                    [np.einsum("kij,kj->ki", pinv, rx_freq) for pinv in pinvs]
                )
                # Every detector in one call, shaped (detector, n_t, k, bits).
                received = qam_demodulate(detected.transpose(0, 2, 1), order)
                diff = received.reshape(len(detectors), *sent.shape) != sent
                diff |= failed[:, None, :, None]
                errors += diff.sum(axis=(1, 2, 3))
                bits_sent += bits_per_frame
                frames += 1
                if bits_sent >= config.ber_min_bits and np.all(
                    errors >= config.ber_min_errors
                ):
                    break
            point_errors.append(errors)
            point_bits.append(bits_sent)
        bits_total = np.array(point_bits, dtype=np.int64)
        for bit_errors, detector in zip(np.array(point_errors).T, detectors):
            curves.append(
                BerCurve(
                    esn0_db=np.asarray(config.esn0_range_db, dtype=float),
                    ber=bit_errors / bits_total,
                    bit_errors=bit_errors,
                    bits_total=bits_total,
                    algorithm=detector,
                    qam_order=int(order),
                    training_snr_db=config.ber_training_snr_db,
                    sparsity=config.sparsity,
                    rng_seed=config.rng_seed,
                )
            )
    return curves


# -- CSV output ---------------------------------------------------------------


# Rows formatted per write: whole 100k-row curves would hold every row
# string in memory at once.
_ROWS_PER_WRITE = 1024


def _write_series(handle, values, second=None):
    """Write rows ``iteration,repr(value)[,repr(second)]`` from 1, a block at a time.

    The repr of a float never needs csv quoting, so the bytes equal
    those of ``csv.writer`` with ``lineterminator="\\n"``.
    """
    values = np.asarray(values, dtype=float)
    for start in range(0, values.size, _ROWS_PER_WRITE):
        stop = start + _ROWS_PER_WRITE
        numbers = range(start + 1, start + 1 + values[start:stop].size)
        if second is None:
            lines = (
                f"{i},{a!r}\n" for i, a in zip(numbers, values[start:stop].tolist())
            )
        else:
            lines = (
                f"{i},{a!r},{b!r}\n"
                for i, a, b in zip(
                    numbers, values[start:stop].tolist(), second[start:stop].tolist()
                )
            )
        handle.write("".join(lines))


def write_mse_csv(path, curve):
    """Write an MSE curve as ``iteration, mse_linear, mse_db`` rows."""
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(curve.values)
    with open(path, "w", newline="") as handle:
        handle.write(
            f"# mse-curve algorithm={curve.algorithm} snr_db={curve.snr_db:g} "
            f"sparsity={curve.sparsity} num_trials={curve.num_trials} "
            f"rng_seed={curve.rng_seed}\n"
            "iteration,mse_linear,mse_db\n"
        )
        _write_series(handle, curve.values, db)


def write_stepsize_csv(path, trace, algorithm, snr_db, sparsity, rng_seed):
    """Write a step-size trace as ``iteration, step_size`` rows."""
    with open(path, "w", newline="") as handle:
        handle.write(
            f"# stepsize-trace algorithm={algorithm} snr_db={snr_db:g} "
            f"sparsity={sparsity} rng_seed={rng_seed}\n"
            "iteration,step_size\n"
        )
        _write_series(handle, trace)


def write_ber_csv(path, curve):
    """Write a BER curve as ``esn0_db, ber, bit_errors, bits_total`` rows."""
    rows = zip(
        np.asarray(curve.esn0_db, dtype=float).tolist(),
        np.asarray(curve.ber, dtype=float).tolist(),
        np.asarray(curve.bit_errors).tolist(),
        np.asarray(curve.bits_total).tolist(),
    )
    with open(path, "w", newline="") as handle:
        handle.write(
            f"# ber-curve algorithm={curve.algorithm} qam_order={curve.qam_order} "
            f"training_snr_db={curve.training_snr_db:g} sparsity={curve.sparsity} "
            f"rng_seed={curve.rng_seed}\n"
            "esn0_db,ber,bit_errors,bits_total\n"
        )
        handle.write("".join(f"{e!r},{b!r},{n},{t}\n" for e, b, n, t in rows))
