"""Multilabel Fisher discriminant analysis.

Scatter algebra for overlapping label sets, the four Fisher objectives under
Stiefel and total-scatter orthogonality, population references of the linear
label-effect model, distance/concentration/robustness bounds, and a
config-driven synthetic experiment harness (CLI: ``mlda``).

The public names below are loaded from their submodules on first access, so
that importing ``mlda.harness`` (and the ``mlda`` command) does not load numpy
before the harness has pinned the BLAS thread count.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    "errors": (
        "ConfigError",
        "DegenerateNoise",
        "InvalidCovariance",
        "InvalidGap",
        "InvalidInput",
        "InvalidScheme",
        "InvariantViolation",
        "MissingLabel",
        "MldaError",
        "NotConverged",
        "RankDeficient",
        "SingularTotalScatter",
        "UnlabeledSample",
    ),
    "spectral": (
        "EigenPair",
        "Frame",
        "numeric_rank",
        "orthonormalize",
        "principal_angle_sin",
        "sym_eig",
        "sym_eigvals",
        "symmetrize",
    ),
    "scatter": (
        "Dataset",
        "LabelMatrix",
        "RankReport",
        "ScatterSet",
        "build_dataset",
        "build_labels",
        "build_scatter",
        "load_dataset_csv",
        "rank_analysis",
        "residual_bound",
        "save_dataset_csv",
    ),
    "population": (
        "GapReport",
        "LabelDistribution",
        "ModelParams",
        "PopulationScatters",
        "gamma_norm",
        "gaps",
        "isotropic_params",
        "label_moments",
        "population_scatters",
        "scheme_distribution",
    ),
    "synth": (
        "LabelScheme",
        "Seed",
        "gen_data",
        "gen_labels",
        "gen_pattern",
        "noise_differences",
        "pair_products",
        "pair_products_matrix",
        "signal_rows",
    ),
    "discriminant": (
        "DavisKahanReport",
        "EigenspaceResult",
        "ObjectiveValues",
        "TraceRatioResult",
        "WhitenedFrame",
        "commutativity_defect",
        "davis_kahan_check",
        "eval_objectives",
        "opt_stml",
        "opt_td",
        "ordering_consistent",
        "regularization_report",
        "theta_form",
        "top_eigenspace",
        "trace_ratio_stiefel",
    ),
    "bounds": (
        "BoundFrame",
        "DistanceBudget",
        "TailParams",
        "bound_frame",
        "concentration_interval",
        "distance_budget",
        "hamming",
        "interaction_bound",
        "jaccard",
        "jaccard_lower",
        "snr",
        "tail_params",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_ORIGIN]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _ORIGIN:
        return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
