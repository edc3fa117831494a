"""Experiment configuration and its input checks, on the standard library alone.

:class:`ExperimentConfig` describes one experiment, and its
``__post_init__`` checks every field.  ``validate_ofdm`` adds the OFDM
size checks, which ``cli.build_config`` runs for ``ber-sweep`` and
``harness.run_ber_sweep`` runs itself; the command line also rejects a
config under which two curves share a file.  The other modules trust
their arguments.  The facts that the checks need are written here once:
``_LAWS``, the table of filter variants, and :data:`VARIANTS`, its names
in default order; :data:`QAM_ORDERS`; :data:`TRUE_CHANNEL`, the genie
detector's name.

No numpy is imported, so the command line can parse, check, dump or
reject a configuration before numpy loads.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields

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
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_snr_key(key):
    """A number or numeric string (JSON keys), not a bool, NaN or -inf."""
    try:
        return not isinstance(key, bool) and float(key) > -math.inf
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment.

    Defaults describe the reference scenario: a 4x4 channel with 16
    taps per link, unit-power training, all six algorithm variants,
    200 trials.  ``rho_za`` and ``rho_rza`` default per sparsity
    (0.006/0.0006 for single-tap links, 0.002/0.0002 otherwise).

    ``c_by_snr`` optionally maps an SNR in dB to its own ``c_threshold``,
    used only at an exactly matching SNR.  It takes a mapping and is
    stored as a tuple of ``(snr_db, c_threshold)`` float pairs in SNR
    order.
    It is unset by default: a flat 1e-4 keeps the adaptive step in its
    productive range during the transient, while 1e-5 pins the step
    against ``mu_max``, where the normalized update barely contracts.

    The list fields take a list, a tuple or one value and are stored as
    tuples too.  So no element can change past the check, and a config
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
    c_by_snr: tuple | None = None
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
            if entry.type == "int" and not _is_integer(value):
                raise ValueError(f"{entry.name} must be an integer, got {value!r}")
            if entry.type == "float" and not _is_real(value):
                raise ValueError(f"{entry.name} must be a number, got {value!r}")
            if entry.type == "float | None" and not (
                value is None or (_is_real(value) and 0.0 <= value < math.inf)
            ):
                raise ValueError(
                    f"{entry.name} must be null or a finite number >= 0, got {value!r}"
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
                raise ValueError(f"{name} must hold {noun}, got {values!r}")
            object.__setattr__(self, name, tuple(kind(v) for v in values))
        if self.c_by_snr is not None:
            # A mapping, or the stored pairs that dataclasses.replace passes back.
            given = None
            if isinstance(self.c_by_snr, (Mapping, tuple)):
                try:
                    given = dict(self.c_by_snr)
                except (TypeError, ValueError):
                    pass
            if given is None or not all(
                _is_snr_key(k) and _is_real(v) and 0.0 < v < math.inf
                for k, v in given.items()
            ):
                raise ValueError(
                    "c_by_snr must map SNR in dB to a positive finite c_threshold, "
                    f"got {self.c_by_snr!r}"
                )
            table = {float(k): float(v) for k, v in given.items()}
            if len(table) < len(self.c_by_snr):
                raise ValueError(
                    f"c_by_snr must name each SNR once, got {self.c_by_snr!r}"
                )
            object.__setattr__(self, "c_by_snr", tuple(sorted(table.items())))
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
        if self.n_t < 1 or self.n_r < 1:
            raise ValueError("n_t and n_r must be at least 1")
        if self.tap_length < 1:
            raise ValueError("tap_length must be at least 1")
        if not 1 <= self.sparsity <= self.tap_length:
            raise ValueError("sparsity must lie in [1, tap_length]")
        for name in self.algorithms:
            if name not in VARIANTS:
                raise ValueError(
                    f"unknown algorithm {name!r}; expected one of {VARIANTS}"
                )
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        # Filter parameters are checked whichever variants run, and NaN
        # fails every check.  An infinite mu or epsilon_rza makes the taps
        # NaN through the penalty strengths, an infinite c_threshold pins
        # the adaptive step at 0, and a mu_max above 2 is unstable.
        for name in ("mu", "epsilon_rza"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.mu_max <= 2.0:
            raise ValueError("mu_max must lie in (0, 2]")
        if not 0.0 < self.c_threshold < math.inf:
            raise ValueError("c_threshold must be positive and finite")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        if self.num_trials < 1:
            raise ValueError("num_trials must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")
        for order in self.qam_orders:
            if order not in QAM_ORDERS:
                raise ValueError(f"qam order must be one of {QAM_ORDERS}, got {order}")
        if self.ber_num_channels < 1:
            raise ValueError("ber_num_channels must be at least 1")
        if self.ber_min_errors < 0 or self.ber_min_bits < 0:
            raise ValueError("ber stopping thresholds must be nonnegative")
        if self.ber_max_frames < 1:
            raise ValueError("ber_max_frames must be at least 1")

    # -- resolution helpers -------------------------------------------------

    def filter_length(self):
        return self.n_t * self.tap_length

    def noise_variance(self, snr_db):
        """Received signal power ``1 / filter_length()`` times ``10**(-snr_db / 10)``."""
        return (1.0 / self.filter_length()) * 10.0 ** (-snr_db / 10.0)

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
        out = asdict(self)
        if self.c_by_snr is not None:
            # JSON keys are strings; sorted dumps order them as text.
            out["c_by_snr"] = {str(k): v for k, v in self.c_by_snr}
        return out

    @classmethod
    def from_dict(cls, data):
        known = {entry.name for entry in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown configuration field(s): {', '.join(unknown)}")
        return cls(**data)
