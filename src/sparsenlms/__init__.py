"""Sparse NLMS adaptive filtering for MIMO multipath channel estimation."""

from .filters import VARIANTS
from .harness import ExperimentConfig, run_ber_sweep, run_monte_carlo_mse

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "VARIANTS",
    "run_ber_sweep",
    "run_monte_carlo_mse",
]
