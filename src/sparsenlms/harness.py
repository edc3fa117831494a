"""Monte Carlo experiment harness for sparse MIMO channel estimation.

The harness estimates a static ``n_r x (n_t * tap_length)`` channel
matrix by running one adaptive filter per receive antenna.  Iteration
``n`` (1-based) updates only antenna ``mod(n - 1, n_r) + 1`` with a
fresh unit-power training regressor and a noisy observation through the
true channel.  Identification quality is tracked per iteration as the
squared Frobenius distance between the true and estimated matrices, and
averaged across trials elementwise.  Every function takes a
:class:`sparsenlms.config.ExperimentConfig`, checked by its
``__post_init__`` and, for the OFDM sizes, by ``validate_ofdm``, which
``run_ber_sweep`` calls.  Past those checks the harness, ``channel``,
``signals`` and ``modem`` trust their arguments.  The config lives in
its own module, which imports no numpy; this one loads numpy, so the
command line imports it only when a run starts.

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
channel ("genie" baseline, reported as algorithm ``true_channel``).  A
diverged (non-finite) estimate is erased on every subcarrier and counted
in the curve's ``diverged``.  All detectors see identical frames, bits
and noise, so BER differences reflect only channel-estimate quality.

Frames are synthesized directly in the frequency domain.  Because the
cyclic prefix is at least as long as the channel memory (``cp_length
>= tap_length - 1``, enforced by ``validate_ofdm``), the linear
convolution of a prefixed block with each link's impulse response is
circular over the kept ``K`` samples, so subcarrier ``k`` sees exactly
``Y_k = H_k X_k + N_k``.  ``H_k`` is the ``K``-point DFT of the impulse
responses and ``N_k`` the unitary DFT of the time-domain noise after
prefix removal.  The full prefixed noise block is still drawn, so the
random streams match a time-domain simulation of the same frames.

The detector tables are built once per sweep as stacked arrays: each
channel's true impulse responses and every algorithm's frozen estimate
form one ``(channel, detector)`` stack, which one FFT turns into
per-subcarrier responses and one SVD turns into zero-forcing matrices
and erasure masks, by one rank rule.  Zero forcing is then one
einsum per frame block over the pseudo-inverses gathered by each
frame's channel.

Frames run in blocks of up to ``FRAME_BLOCK``: modulation, the channel,
the noise DFT, zero forcing, the hard decision and error counting each
take one numpy pass per block.  Each frame still draws from its own
seeded stream (its bits, then the real and the imaginary noise) and uses
channel ``frame % ber_num_channels``, so the frames do not depend on the
blocking.  Bits travel as symbol codes; a decision's bit errors are the
set bits of the XOR of the sent and decided codes, and every bit of an
erased subcarrier counts as an error.  The stop rule is resolved per
frame from the running error totals: a point stops at its first frame
that meets both thresholds, and the block's later frames are discarded
and count nowhere.  No block runs past the frame at which
``ber_min_bits`` is first met, so a point bound by it simulates no extra
frame.

Estimation runs row-batched (:func:`run_trial_rows`).  The rows of one
trial are the (algorithm, SNR) pairs that share its channel and data
streams; they advance together through ``filters.update_rows``, whose
per-row rounding does not depend on how many rows are batched, so a
row's results equal a batch of one, and a trial returns them stacked:
one :class:`TrialResult` with a column per row in the error and
step-size series and a leading row axis on the estimates.  The ``n_r``
per-antenna filters never interact, so each Python step is one round of
``n_r`` consecutive iterations: one ``update_rows`` call on the antenna
axis updates antenna ``a`` of every row with iteration ``a``'s regressor
and observation, ``ceil(max_iterations / n_r)`` calls per trial.
Training data are drawn a chunk at a time as one ``(C, 2L + 2)`` block of
normals per trial, where ``C`` is the largest multiple of ``n_r`` not
above ``CHUNK_ITERATIONS`` (at least ``n_r``), so every chunk starts at
antenna 0.  Row ``i`` of the block holds iteration ``i``'s real parts,
imaginary parts and noise pair, which is exactly the order in which
drawing them one iteration at a time consumes the stream, so the
regressors and noise are unchanged bit for bit.  Each row's noise is
the shared unit pair scaled by its own SNR.  The error metric is always
computed, incrementally: after each round the updated antennas' errors
are rescored into an ``(n_r, B)`` per-antenna table for that round.  At
chunk end one index rule reads each iteration's error: at chunk
iteration ``i`` antenna ``a`` holds its error after round ``(i - a) //
n_r + 1`` (round 0 being the chunk's start), and the antennas are summed
one by one.  Every trial runs all ``max_iterations`` updates.  A trial
whose final error is not finite counts as diverged, and one whose final
error is finite but exceeds the all-zero estimator's ``n_r`` as worse
than zero: a stable filter at low SNR can settle there.

Reproducibility: every random stream is derived from ``rng_seed``
together with the trial (or frame) index through seed sequences, and
aggregation always runs in fixed trial order, so equal configurations
produce byte-identical outputs.  The harness does no I/O: it returns
curves of counts and values measured, with no copy of the config (BER
curves hold no E_s/N_0 axis or rates); :mod:`sparsenlms.cli` writes them.

Independent work runs on up to ``workers`` processes (default 1, which
opens no pool): one ordered ``Executor.map`` over module-level tasks on
a ``fork`` process pool.  Both experiments map :func:`run_trial_rows`
over the trials: the MSE run adds each trial's error block in trial
order exactly as a serial run does and classifies its last row's
errors, and the BER sweep keeps the channels and frozen estimates.  Each
(QAM order, E_s/N_0) point is then one task, running its block loop and
stop rule on the stacked tables and returning its error counts and bits
sent.  Outputs are byte-identical for every worker count.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from . import filters
from .channel import generate_sparse_channel
from .config import TRUE_CHANNEL
from .modem import code_bit_errors, qam_constellation, qam_demodulate, qam_modulate
from .signals import training_chunk

# Iterations whose training data are drawn and post-processed at once,
# rounded down to whole antenna rounds (at least one).  Larger chunks cut
# per-chunk overhead but raise peak memory.
CHUNK_ITERATIONS = 100

# OFDM frames simulated at once in the BER sweep.  Each frame keeps its
# own seeded stream; larger blocks cut per-frame overhead but raise peak
# memory.
FRAME_BLOCK = 8

# Default (rho_za, rho_rza), weights per unit noise variance, keyed by
# whether links are single-tap (sparsity 1); those get the stronger pull.
DEFAULT_RHO = {True: (0.006, 0.0006), False: (0.002, 0.0002)}


# -- result containers ------------------------------------------------------


@dataclass
class TrialResult:
    """Outputs of one trial, stacked over its ``rows`` (algorithm, SNR) pairs.

    ``squared_error`` and ``step_trace`` are ``(max_iterations, rows)``:
    one entry per update and row.  ``channel`` is the trial's true
    ``(n_r, n_t * tap_length)`` matrix and ``final_estimate`` each row's
    estimate after the last update, ``(rows, n_r, n_t * tap_length)``.
    """

    squared_error: np.ndarray
    step_trace: np.ndarray
    final_estimate: np.ndarray
    channel: np.ndarray


@dataclass
class MseCurve:
    """Trial-averaged squared identification error per iteration.

    ``diverged`` counts the trials whose final error was not finite, and
    ``worse_than_zero`` those whose final error was finite but above the
    all-zero estimator's level ``n_r``.
    """

    values: np.ndarray
    algorithm: str
    snr_db: float
    diverged: int = 0
    worse_than_zero: int = 0


@dataclass
class BerCurve:
    """Bit errors and bits sent per ``config.esn0_range_db`` point; BER is their ratio.

    ``diverged`` counts the training channels whose estimate is not finite.
    """

    bit_errors: np.ndarray
    bits_total: np.ndarray
    algorithm: str
    qam_order: int
    diverged: int


# -- metrics -------------------------------------------------------------------


def steady_state_mean(values, fraction=0.1):
    """Mean over the trailing ``fraction`` of a series (at least 1 entry)."""
    values = np.asarray(values)
    count = max(1, int(round(fraction * values.size)))
    return float(values[-count:].mean())


# -- estimation experiments ---------------------------------------------------


def row_params(config, pairs):
    """The ``filters.RowParams`` of ``(algorithm, snr_db)`` pairs, one row each."""
    rho_za, rho_rza = DEFAULT_RHO[config.sparsity == 1]
    rho_za = rho_za if config.rho_za is None else config.rho_za
    rho_rza = rho_rza if config.rho_rza is None else config.rho_rza
    variants, snrs = zip(*pairs)
    variances = [config.noise_variance(snr) for snr in snrs]
    c_by_snr = dict(config.c_by_snr or ())
    return filters.RowParams(
        variants=variants,
        mu=config.mu,
        mu_max=config.mu_max,
        c_threshold=[c_by_snr.get(snr, config.c_threshold) for snr in snrs],
        beta=config.beta,
        gamma_za=[config.mu * rho_za * v for v in variances],
        gamma_rza=[config.mu * rho_rza * config.epsilon_rza * v for v in variances],
        epsilon_rza=config.epsilon_rza,
    )


def _observe(channel, antennas, x, noise, noise_scale):
    """Observations ``h_a . x + scale * noise``, shaped ``(count, B)``."""
    clean = filters.row_dot(channel[antennas], x)
    return clean[:, None] + noise[:, None] * noise_scale


def run_trial_rows(config, trial_index, pairs):
    """Run one seeded trial for every ``(algorithm, snr_db)`` pair together.

    Returns one :class:`TrialResult` whose rows are the pairs, in order.
    All pairs share the trial's channel, regressors and unit noise draws;
    only the noise scale and the update rule differ per row.  Each row's
    results, error curve included, equal those of a batch of one.
    """
    rng_channel = np.random.default_rng([config.rng_seed, trial_index, 0])
    channel = generate_sparse_channel(
        rng_channel, config.n_t, config.n_r, config.tap_length, config.sparsity
    )
    rng_data = np.random.default_rng([config.rng_seed, trial_index, 1])

    n_r, length, total = config.n_r, config.filter_length(), config.max_iterations
    rows = len(pairs)
    params = row_params(config, pairs)
    noise_scale = np.sqrt([config.noise_variance(snr) / 2.0 for _, snr in pairs])
    # Whole rounds, so every chunk starts at antenna 0.
    chunk = n_r * max(1, CHUNK_ITERATIONS // n_r)
    entries = channel[:, None, :]

    weights = np.zeros((n_r, rows, length), dtype=np.complex128)
    grad_avg = np.zeros_like(weights)
    squared_error = np.empty((total, rows))
    step_trace = np.empty((total, rows))
    # Error of every antenna's row after each round of the current
    # chunk; entry 0 holds the errors the chunk starts from.
    round_error = np.empty((chunk // n_r + 1, n_r, rows))
    round_error[0] = filters.row_energy(channel)[:, None]
    antennas = np.arange(chunk) % n_r

    # A diverging row overflows to NaN, which the CLI reports; numpy's
    # warnings, printed once per process, would repeat per pool worker.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, total, chunk):
            count = min(chunk, total - start)
            x, noise = training_chunk(rng_data, count, config.n_t, config.tap_length)
            y = _observe(channel, antennas[:count], x, noise, noise_scale)
            energy = filters.row_energy(x)[:, None]
            x = x[:, None, :]
            x_conj = x.conj()
            for r, i in enumerate(range(0, count, n_r)):
                # One round: antenna a takes iteration start + i + a.
                m = min(n_r, count - i)
                w = weights[:m]
                _, step_trace[start + i : start + i + m] = filters.update_rows(
                    w, grad_avg[:m], x[i : i + m], x_conj[i : i + m],
                    energy[i : i + m], y[i : i + m], params,
                )
                # A partial final round leaves the later antennas' entries
                # unset; no iteration of that round reads them.
                round_error[r + 1, :m] = filters.row_energy(entries[:m] - w)
            # At chunk iteration i antenna a holds the error after round
            # (i - a) // n_r + 1, entry i + n_r - a of its repeated column.
            # Antenna by antenna, so the rounding is the same for any B: one
            # sum call would add 8 or more antennas pairwise when B = 1.
            totals = 0.0
            for a in range(n_r):
                repeated = np.repeat(round_error[:, a], n_r, axis=0)
                totals = totals + repeated[n_r - a : n_r - a + count]
            squared_error[start : start + count] = totals
            round_error[0] = round_error[-1]

    return TrialResult(
        squared_error=squared_error,
        step_trace=step_trace,
        final_estimate=weights.transpose(1, 0, 2),
        channel=channel,
    )


@contextlib.contextmanager
def _ordered_map(workers, tasks):
    """Yield a ``map(task, items)`` that returns results in item order.

    With ``workers > 1`` and ``tasks > 1`` (the most items any one map
    call gets) it is ``Executor.map`` on a ``fork`` process pool of
    ``min(workers, tasks)`` workers, otherwise the builtin ``map``.  A
    task that raises raises here too: the map's pending tasks are
    cancelled and its running ones finish.  A worker that dies raises
    ``BrokenProcessPool``.  No worker outlives the block.
    """
    processes = min(workers, tasks)
    if processes <= 1:
        yield map
        return
    # Imported only where a pool is opened, so serial runs never load them.
    import concurrent.futures
    import multiprocessing

    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(processes, mp_context=context) as pool:
        yield pool.map


def run_monte_carlo_mse(config, workers=1):
    """Average identification error curves for every (algorithm, SNR) pair.

    Each trial runs all pairs as one batch, on up to ``workers``
    processes.  Trials are aggregated in index order whatever the worker
    count, so repeated runs of the same configuration produce identical
    curves.
    """
    pairs = [(a, snr) for a in config.algorithms for snr in config.snr_db]
    # One contiguous curve per row.
    totals = np.zeros((len(pairs), config.max_iterations))
    diverged = np.zeros(len(pairs), dtype=int)
    worse_than_zero = np.zeros(len(pairs), dtype=int)
    task = functools.partial(run_trial_rows, config, pairs=pairs)
    with _ordered_map(workers, config.num_trials) as ordered_map:
        for trial in ordered_map(task, range(config.num_trials)):
            errors = trial.squared_error
            totals += errors.T
            finite = np.isfinite(errors[-1])
            diverged += ~finite
            worse_than_zero += finite & (errors[-1] > config.n_r)
    totals /= config.num_trials
    return [
        MseCurve(
            values=totals[row],
            algorithm=algorithm,
            snr_db=snr,
            diverged=int(diverged[row]),
            worse_than_zero=int(worse_than_zero[row]),
        )
        for row, (algorithm, snr) in enumerate(pairs)
    ]


# -- BER experiment -----------------------------------------------------------


def _frequency_responses(cir_matrix, n_t, n_r, tap_length, k):
    """Per-subcarrier channel matrices, shaped ``(..., k, n_r, n_t)``.

    ``cir_matrix`` is ``(..., n_r, n_t * tap_length)``; leading stack
    axes are kept.
    """
    cirs = cir_matrix.reshape(*cir_matrix.shape[:-2], n_r, n_t, tap_length)
    return np.moveaxis(np.fft.fft(cirs, n=k, axis=-1), -1, -3)


def _zero_forcing_tables(freq_resp):
    """Pseudo-inverses plus a mask of rank-deficient matrices, from one SVD.

    ``freq_resp`` is a ``(..., n_r, n_t)`` stack; the mask has its leading
    shape.  Masked matrices get zero, the rest ``np.linalg.pinv``'s bytes.
    """
    # The SVD of a diverged (non-finite) estimate would not converge; as
    # zeros it is rank deficient, so all its bits count as errors.
    finite = np.isfinite(freq_resp).all(axis=(-2, -1))
    freq_resp = np.where(finite[..., None, None], freq_resp, 0.0)
    u, s, vh = np.linalg.svd(freq_resp.conj(), full_matrices=False)
    failed = s[..., -1] <= s[..., 0] * 1e-12
    inverse = np.divide(1.0, s, where=~failed[..., None], out=np.zeros_like(s))
    pinvs = np.swapaxes(vh, -1, -2) @ (inverse[..., None] * np.swapaxes(u, -1, -2))
    return pinvs, failed


def _simulate_frames(config, order, point_index, n0, first, count, tables):
    """Bit errors of frames ``first .. first + count - 1``, shaped ``(count, detector)``.

    Frame ``f`` uses channel ``f % ber_num_channels`` and draws from its
    own stream: its bits, then the real, then the imaginary noise.
    ``tables`` holds the stacked true responses, shaped ``(channel, n_r,
    n_t, k)``, pseudo-inverses, ``(channel, detector, n_t, n_r, k)``, and
    erasure masks, ``(channel, detector, k)``.  Zero forcing is one
    einsum over the pseudo-inverses gathered by frame.
    """
    responses, pinvs, failed = tables
    table = qam_constellation(order)
    k, cp = config.subcarrier_count, config.cp_length
    n_t, n_r = config.n_t, config.n_r
    bits = np.empty((count, n_t, k * table.bits_per_symbol), dtype=np.int64)
    real = np.empty((count, n_r, k + cp))
    imag = np.empty_like(real)
    for i in range(count):
        rng = np.random.default_rng(
            [config.rng_seed, 2, int(order), point_index, first + i]
        )
        bits[i] = rng.integers(0, 2, size=(n_t, k * table.bits_per_symbol))
        rng.standard_normal(out=real[i])
        rng.standard_normal(out=imag[i])
    weights = 1 << np.arange(table.bits_per_symbol - 1, -1, -1)
    tx_codes = bits.reshape(count, n_t, k, table.bits_per_symbol) @ weights
    trials = (first + np.arange(count)) % config.ber_num_channels
    noise = np.sqrt(n0 / 2.0) * (real[..., cp:] + 1j * imag[..., cp:])
    rx_freq = np.einsum(
        "bijk,bjk->bik", responses[trials], qam_modulate(tx_codes, order)
    ) + np.fft.fft(noise, axis=2) / np.sqrt(k)
    detected = np.einsum("bdijk,bjk->bdik", pinvs[trials], rx_freq)
    bit_errors = code_bit_errors(tx_codes[:, None], qam_demodulate(detected, order))
    # Every bit of an erased subcarrier counts as an error.
    erased = failed[trials][:, :, None, :]
    bit_errors = np.where(erased, table.bits_per_symbol, bit_errors)
    return bit_errors.sum(axis=(2, 3), dtype=np.int64)


def _ber_point(config, tables, point):
    """Frames of one ``(order, point_index, esn0)`` point: ``(errors, bits)``.

    ``errors`` holds one bit-error count per detector of ``tables``;
    ``bits`` counts the payload bits sent.
    """
    order, point_index, esn0 = point
    bits_per_symbol = qam_constellation(order).bits_per_symbol
    bits_per_frame = config.subcarrier_count * config.n_t * bits_per_symbol
    # Frames at which bits_sent first reaches ber_min_bits; no block runs
    # past it, so a point bound by ber_min_bits wastes no frame.
    frames_min = max(1, -(-config.ber_min_bits // bits_per_frame))
    n0 = 10.0 ** (-esn0 / 10.0)
    errors = np.zeros(tables[1].shape[1], dtype=np.int64)
    frames = 0
    while frames < config.ber_max_frames:
        count = min(FRAME_BLOCK, config.ber_max_frames - frames)
        if frames < frames_min:
            count = min(count, frames_min - frames)
        block = _simulate_frames(config, order, point_index, n0, frames, count, tables)
        totals = errors + np.cumsum(block, axis=0)
        # The point stops at its first frame that meets both thresholds;
        # the frames after it are discarded.
        sent = (frames + np.arange(1, count + 1)) * bits_per_frame
        met = (sent >= config.ber_min_bits) & np.all(
            totals >= config.ber_min_errors, axis=1
        )
        used = int(met.argmax()) + 1 if met.any() else count
        errors = totals[used - 1]
        frames += used
        if met.any():
            break
    return errors, frames * bits_per_frame


def run_ber_sweep(config, workers=1):
    """Train, freeze, transmit, detect: BER curves per algorithm and order.

    Returns one :class:`BerCurve` per (algorithm, QAM order) pair plus
    the genie baseline (``true_channel``) per order.  Frames at each
    E_s/N_0 point accumulate until the configured minimum bit and error
    counts are reached (or the frame cap), cycling through
    ``ber_num_channels`` independently trained channel realizations.
    The channels, then the (order, E_s/N_0) points, run on up to
    ``workers`` processes; the curves do not depend on the count.
    """
    config.validate_ofdm()
    detectors = [TRUE_CHANNEL] + list(config.algorithms)
    k, n_t, n_r = config.subcarrier_count, config.n_t, config.n_r

    pairs = [(a, config.ber_training_snr_db) for a in config.algorithms]
    points = [
        (order, index, esn0)
        for order in config.qam_orders
        for index, esn0 in enumerate(config.esn0_range_db)
    ]
    # One pool serves both phases.
    most = max(config.ber_num_channels, len(points))
    with _ordered_map(workers, most) as ordered_map:
        task = functools.partial(run_trial_rows, config, pairs=pairs)
        trials = ordered_map(task, range(config.ber_num_channels))
        cirs = np.array([[trial.channel, *trial.final_estimate] for trial in trials])
        diverged = (~np.isfinite(cirs).all(axis=(2, 3))).sum(axis=0)
        # Shaped (channel, detector, k, n_r, n_t), detectors in output order.
        responses = _frequency_responses(cirs, n_t, n_r, config.tap_length, k)
        pinvs, failed = _zero_forcing_tables(responses)
        # Subcarriers last, so the einsums' inner loops run along them.
        tables = (
            np.ascontiguousarray(np.moveaxis(responses[:, 0], 1, -1)),
            np.ascontiguousarray(np.moveaxis(pinvs, 2, -1)),
            failed,
        )
        task = functools.partial(_ber_point, config, tables)
        outcomes = list(ordered_map(task, points))
    # Points ran order by order: errors are (order, point, detector).
    shape = (len(config.qam_orders), len(config.esn0_range_db))
    errors, bits = zip(*outcomes)
    errors = np.array(errors).reshape(*shape, len(detectors))
    bits = np.array(bits, dtype=np.int64).reshape(shape)
    return [
        BerCurve(
            bit_errors=errors[o, :, d],
            bits_total=bits[o],
            algorithm=detector,
            qam_order=order,
            diverged=int(diverged[d]),
        )
        for o, order in enumerate(config.qam_orders)
        for d, detector in enumerate(detectors)
    ]
