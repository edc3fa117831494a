"""Experiment configuration and its input checks, on the standard library alone.

:class:`ExperimentConfig` describes one experiment, and its
``__post_init__`` checks every field, the OFDM sizes included, so a
config is valid or not whatever runs it.  The command line adds one
check of its own: two SNRs that its file names would print alike.  The
other modules trust their arguments.  The facts that the checks need are
written here once:
``_LAWS``, the table of filter variants, and :data:`VARIANTS`, its names
in default order; :data:`QAM_ORDERS`; :data:`TRUE_CHANNEL`, the genie
detector's name.

No numpy is imported, so the command line can parse, check, dump or
reject a configuration before numpy loads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from sys import maxsize

# Per variant, in default order: whether the step adapts, and its
# penalty (none, zero attraction or reweighted zero attraction).
_LAWS = {
    "iss_nlms": (False, None),
    "vss_nlms": (True, None),
    "iss_za_nlms": (False, "za"),
    "iss_rza_nlms": (False, "rza"),
    "vss_za_nlms": (True, "za"),
    "vss_rza_nlms": (True, "rza"),
}

VARIANTS = tuple(_LAWS)

QAM_ORDERS = (16, 64, 256)

TRUE_CHANNEL = "true_channel"


def _is_integer(value):
    """An integral number that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    """A real number that is not a bool and converts to a float."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)  # an integer past about 1.8e308 overflows
    except OverflowError:
        return False
    return True


def _shown(value):
    """``repr(value)`` for an error message, cut to 60 characters ending in ``...``."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment.

    Defaults describe the reference scenario: a 4x4 channel with 16
    taps per link, unit-power training, all six algorithm variants,
    200 trials.  ``rho_za`` and ``rho_rza`` default per sparsity
    (0.006/0.0006 for single-tap links, 0.002/0.0002 otherwise).

    ``c_per_noise``, when set, gives the adaptive step's threshold in
    noise units, as ``rho_za`` and ``rho_rza`` give the penalties: each
    SNR's ``c_threshold`` is ``c_per_noise * noise_variance(snr)``.
    Unset, every SNR uses ``c_threshold``: 1e-4 keeps the adaptive step
    in its productive range during the transient, while 1e-5 pins the
    step against ``mu_max``, where the normalized update barely contracts.

    The list fields take a list, a tuple or one value and are stored as
    tuples.  So no element can change past the check, and a config
    holds only builtin immutable values: it hashes, pickles and copies.
    """

    n_t: int = 4
    n_r: int = 4
    tap_length: int = 16
    sparsity: int = 1
    snr_db: tuple = (10.0, 20.0)
    algorithms: tuple = VARIANTS
    mu: float = 0.2
    mu_max: float = 2.0
    c_threshold: float = 1e-4
    c_per_noise: float | None = None
    beta: float = 0.99
    rho_za: float | None = None
    rho_rza: float | None = None
    epsilon_rza: float = 20.0
    max_iterations: int = 5000
    num_trials: int = 200
    rng_seed: int = 12345
    subcarrier_count: int = 64
    cp_length: int = 16
    qam_orders: tuple = QAM_ORDERS
    esn0_range_db: tuple = (12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0)
    ber_training_snr_db: float = 10.0
    ber_num_channels: int = 10
    ber_min_errors: int = 100
    ber_min_bits: int = 100_000
    ber_max_frames: int = 1000

    def __post_init__(self):
        # Annotations are strings here (postponed evaluation).
        for entry in fields(self):
            value = getattr(self, entry.name)
            # numpy's sizes and counts stop at sys.maxsize.
            if entry.type == "int" and not (_is_integer(value) and value <= maxsize):
                raise ValueError(
                    f"{entry.name} must be an integer <= {maxsize}, got {_shown(value)}"
                )
            if entry.type == "float" and not _is_real(value):
                raise ValueError(f"{entry.name} must be a number, got {_shown(value)}")
            if entry.type == "float | None" and not (
                value is None or (_is_real(value) and 0.0 <= value < math.inf)
            ):
                raise ValueError(
                    f"{entry.name} must be null or a finite number >= 0, "
                    f"got {_shown(value)}"
                )
        # Scalars are accepted where lists are expected (a single SNR, a
        # single QAM order, one algorithm name), and elements are checked
        # and normalized so serialized configs round-trip exactly.
        for name, kind, valid, noun in (
            ("snr_db", float, _is_real, "numbers"),
            ("esn0_range_db", float, _is_real, "numbers"),
            ("qam_orders", int, _is_integer, "integers"),
            ("algorithms", str, lambda v: isinstance(v, str), "names"),
        ):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                values = [values]
            if not values:
                raise ValueError(f"{name} must not be empty")
            if not all(valid(v) for v in values):
                raise ValueError(f"{name} must hold {noun}, got {_shown(values)}")
            stored = tuple(kind(v) for v in values)
            if len(set(stored)) < len(stored):  # one curve or point twice
                raise ValueError(f"{name} must not repeat a value, got {_shown(values)}")
            object.__setattr__(self, name, stored)
        # +inf dB is the noiseless case; NaN and -inf have no noise level,
        # and below about -3083 dB the noise level overflows.
        for name, values in (
            ("snr_db", self.snr_db),
            ("esn0_range_db", self.esn0_range_db),
            ("ber_training_snr_db", [self.ber_training_snr_db]),
        ):
            if not all(value > -math.inf for value in values):
                raise ValueError(f"{name} must not be NaN or -inf")
            for value in values:
                try:
                    10.0 ** (-value / 10.0)
                except OverflowError:
                    raise ValueError(
                        f"{name} {value:g} dB gives a noise level that overflows"
                    ) from None
        # Before c_per_noise, which divides by n_t * tap_length.
        for name in (
            "n_t", "n_r", "tap_length", "max_iterations", "num_trials",
            "ber_num_channels", "ber_max_frames",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("rng_seed", "ber_min_errors", "ber_min_bits"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 1 <= self.sparsity <= self.tap_length:
            raise ValueError("sparsity must lie in [1, tap_length]")
        for name in self.algorithms:
            if name not in VARIANTS:
                raise ValueError(
                    f"unknown algorithm {_shown(name)}; expected one of {VARIANTS}"
                )
        # Filter parameters are checked whichever variants run, and NaN
        # fails every check.  An infinite mu or epsilon_rza makes the taps
        # NaN through the penalty strengths, an infinite c_threshold pins
        # the adaptive step at 0, and mu_max is capped at 2 so the adaptive
        # step is stable by construction.  A fixed mu above 2 diverges and
        # is reported; the tests run 2.5 and 50 on purpose.
        for name in ("mu", "epsilon_rza", "c_threshold"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.mu_max <= 2.0:
            raise ValueError("mu_max must lie in (0, 2]")
        if self.c_per_noise is not None:
            # At +inf dB c is 0: the step is 0/0 once the gradient vanishes.
            for snr in (*self.snr_db, self.ber_training_snr_db):
                c = self.c_per_noise * self.noise_variance(snr)
                if not 0.0 < c < math.inf:
                    raise ValueError(
                        "c_per_noise must give every SNR a positive finite "
                        f"c_threshold, got {c:g} at {snr:g} dB"
                    )
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        for order in self.qam_orders:
            if order not in QAM_ORDERS:
                raise ValueError(
                    f"qam order must be one of {QAM_ORDERS}, got {_shown(order)}"
                )
        # Every experiment's channel is the OFDM system's: the cyclic
        # prefix covers the channel memory, so convolution is circular.
        if self.cp_length < self.tap_length - 1:
            raise ValueError(
                f"cp_length {_shown(self.cp_length)} shorter than channel memory "
                f"{_shown(self.tap_length - 1)}"
            )
        if self.subcarrier_count < self.tap_length:
            raise ValueError("subcarrier_count must be at least tap_length")

    # -- resolution helpers -------------------------------------------------

    def filter_length(self):
        return self.n_t * self.tap_length

    def noise_variance(self, snr_db):
        """Received signal power ``1 / filter_length()`` times ``10**(-snr_db / 10)``."""
        return (1.0 / self.filter_length()) * 10.0 ** (-snr_db / 10.0)

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        known = {entry.name for entry in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown configuration field(s): {_shown(unknown)}")
        return cls(**data)
