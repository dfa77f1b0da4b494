"""Experiment harness: sweep runner and figure/table regeneration.

Paper correspondence: the §IV evaluation harness (sweeps, figures,
tables); not itself part of the paper's design.
"""

from repro.experiments.parallel import SweepError, SweepRunner, default_jobs
from repro.experiments.resultcache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    cache_key,
    config_fingerprint,
    default_cache,
)
from repro.experiments.runner import (
    DEFAULT_SCALE,
    ExperimentResult,
    ExperimentSpec,
    resolve_config,
    run_experiment,
    run_experiment_cached,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_SCALE",
    "ExperimentResult",
    "ExperimentSpec",
    "ResultCache",
    "SweepError",
    "SweepRunner",
    "cache_key",
    "config_fingerprint",
    "default_cache",
    "default_jobs",
    "resolve_config",
    "run_experiment",
    "run_experiment_cached",
]
