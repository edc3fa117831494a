"""Sparse NLMS adaptive filtering for MIMO multipath channel estimation.

The config names come from :mod:`sparsenlms.config`, which imports no
numpy.  The two runners are looked up on first use (PEP 562), so numpy
loads only when one of them is first read.
"""

from .config import VARIANTS, ExperimentConfig

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "VARIANTS",
    "run_ber_sweep",
    "run_monte_carlo_mse",
]


def __getattr__(name):
    if name in ("run_ber_sweep", "run_monte_carlo_mse"):
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
