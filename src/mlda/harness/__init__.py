"""Experiment harness: configs, runners, aggregation, CLI.

Importing the harness pins OpenBLAS, OpenMP and MKL to one thread unless the
user has set them: reproducibility beats raw speed for a verification
harness. The pin sits here, ahead of every import that loads numpy, because
this package initialiser runs before ``mlda.harness.cli`` (the ``mlda``
command) and ``mlda`` itself loads its modules only on first use.
"""

import os

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .aggregate import aggregate, slope_fit
from .config import (
    DEFAULT_SEED,
    DEFAULTS,
    EXPERIMENTS,
    ExperimentConfig,
    build_config,
    load_config_file,
    scheme_from_dict,
    validate_options,
)
from .experiments import (
    ExperimentReport,
    run,
    write_csv,
    write_report,
    write_summary,
)

__all__ = [
    "DEFAULT_SEED",
    "DEFAULTS",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentReport",
    "aggregate",
    "build_config",
    "load_config_file",
    "run",
    "scheme_from_dict",
    "slope_fit",
    "validate_options",
    "write_csv",
    "write_report",
    "write_summary",
]
