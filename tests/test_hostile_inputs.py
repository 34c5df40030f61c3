"""Hostile inputs at the solver entry points, with warnings as errors.

Each hostile class is a dataset and its scatter set; ``gaps`` gets the
sample pencil (Sb, St_ml) as a population. Every cell of the matrix below
must return or raise an ``MldaError``, never a bare numpy error or a
warning, and the table records which it does.
"""

import dataclasses

import numpy as np
import pytest

from mlda import (
    MldaError,
    build_dataset,
    build_labels,
    build_scatter,
    gaps,
    isotropic_params,
    label_moments,
    opt_stml,
    opt_td,
    population_scatters,
    rank_analysis,
    regularization_report,
    trace_ratio_stiefel,
)


def _variable_bits(rng, n, L):
    bits = (rng.random((n, L)) < 0.4).astype(np.int64)
    bits[np.arange(n), np.arange(n) % L] = 1  # every row and every label used
    return bits


def _with_nan(M):
    """A copy of M with NaN as its first entry."""
    M = np.array(M, dtype=float)
    M.flat[0] = np.nan
    return M


def _hostile_case(name):
    """(Dataset, ScatterSet) of one hostile class."""
    rng = np.random.default_rng(20260816)
    if name == "nan":
        # build_dataset rejects a NaN feature, so the NaN is written into a
        # valid dataset and every matrix of its scatter set
        ds = build_dataset(rng.standard_normal((40, 5)), build_labels(_variable_bits(rng, 40, 3)))
        ss = build_scatter(ds)
        fields = ("Sb", "Sw", "St_ml", "St", "R", "M")
        return (
            dataclasses.replace(ds, X=_with_nan(ds.X), X_centered=_with_nan(ds.X_centered)),
            dataclasses.replace(ss, **{f: _with_nan(getattr(ss, f)) for f in fields}),
        )
    if name == "d >> n":
        X, bits = rng.standard_normal((10, 60)), _variable_bits(rng, 10, 3)
    elif name == "L = 1":
        X, bits = rng.standard_normal((30, 4)), np.ones((30, 1), dtype=np.int64)
    elif name == "every label":
        X, bits = rng.standard_normal((30, 4)), np.ones((30, 3), dtype=np.int64)
    elif name == "near-singular St_ml":
        # feature 6 repeats feature 5 up to 1e-5 N(0, 1): kappa(St_ml) ~ 1e10
        X = rng.standard_normal((80, 6))
        X[:, 5] = X[:, 4] + 1e-5 * rng.standard_normal(80)
        bits = _variable_bits(rng, 80, 4)
    else:
        exponent = {"scale 1e+60": 60, "scale 1e-60": -60}[name]
        X, bits = 10.0 ** exponent * rng.standard_normal((40, 5)), _variable_bits(rng, 40, 3)
    ds = build_dataset(X, build_labels(bits))
    return ds, build_scatter(ds)


_POP = population_scatters(
    isotropic_params(np.zeros(2), np.eye(2), 0.5), label_moments([([1, 0], 0.5), ([0, 1], 0.5)])
)


def _as_population(ss):
    return dataclasses.replace(
        _POP, Sb_inf=ss.Sb, St_inf=ss.St_ml, M_star_c=2.0 * ss.Sb - ss.St_ml
    )


ENTRY_POINTS = {
    "opt_stml": lambda ds, ss: opt_stml(ss.Sb, ss.St_ml, 1),
    "opt_td": lambda ds, ss: opt_td(ss, 1),
    "trace_ratio_stiefel": lambda ds, ss: trace_ratio_stiefel(ss.Sb, ss.Sw, 1),
    "regularization_report": lambda ds, ss: regularization_report(ss, [0.0, 1.0], 1),
    "rank_analysis": lambda ds, ss: rank_analysis(ds, ss),
    "gaps": lambda ds, ss: gaps(_as_population(ss), 1),
}

# The outcome of every cell: "ok" or the MldaError subclass it raises. The
# near-singular row raises InvariantViolation where an absolute tolerance
# meets kappa ~ 1e10: opt_stml's St-orthogonality check (defect 4e-7), and
# gaps through it, and the trace-ratio monotonicity check (a fall of 1e-7
# relative at r = 1). Both are open parts of the conditioning contract.
EXPECTED = {
    "nan": dict.fromkeys(ENTRY_POINTS, "InvalidInput"),
    "d >> n": {
        **dict.fromkeys(ENTRY_POINTS, "ok"),
        "opt_stml": "SingularTotalScatter",
        "gaps": "SingularTotalScatter",
    },
    "L = 1": dict.fromkeys(ENTRY_POINTS, "ok"),
    "every label": dict.fromkeys(ENTRY_POINTS, "ok"),
    "near-singular St_ml": {
        **dict.fromkeys(ENTRY_POINTS, "ok"),
        "opt_stml": "InvariantViolation",
        "trace_ratio_stiefel": "InvariantViolation",
        "gaps": "InvariantViolation",
    },
    "scale 1e+60": dict.fromkeys(ENTRY_POINTS, "ok"),
    "scale 1e-60": dict.fromkeys(ENTRY_POINTS, "ok"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("hostile", sorted(EXPECTED))
def test_every_entry_point_returns_or_raises_an_mlda_error(hostile):
    ds, ss = _hostile_case(hostile)
    got = {}
    for name, call in ENTRY_POINTS.items():
        try:
            call(ds, ss)
            got[name] = "ok"
        except MldaError as exc:
            got[name] = type(exc).__name__
    assert got == EXPECTED[hostile]
