"""Shared utilities: configuration files, RNG streams and summary
statistics."""

from repro.util.config import ConfigError, ConfigFile
from repro.util.rng import spawn_rng, stable_seed
from repro.util.stats import RunningStat, mean_confidence, speedup_curve

__all__ = [
    "ConfigError",
    "ConfigFile",
    "RunningStat",
    "mean_confidence",
    "spawn_rng",
    "speedup_curve",
    "stable_seed",
]
