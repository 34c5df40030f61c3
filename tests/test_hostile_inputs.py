"""Hostile inputs at the solver entry points, with warnings as errors.

Each hostile class is a dataset and its scatter set; ``gaps`` gets the
sample pencil (Sb, St_ml) as a population. Every cell of the matrix below
must return or raise an ``MldaError``, never a bare numpy error or a
warning, and the table records which it does.

Every count argument of the public API (``r``, ``n``, ``L``, ``max_iter``,
the base seed) is found by its name in the signatures, and each must turn a
non-integer or out-of-range value into ``InvalidInput``.

Every real argument (``gamma``, ``delta_prob``, ``alpha``, ...) and every
array argument is found the same way, and each must turn a zoo of hostile
values into an ``MldaError`` subclass. An ``ast`` lock keeps every
conversion of an argument inside ``errors.real``/``count`` and
``spectral._array``.
"""

import ast
import dataclasses
import inspect
import math
import pathlib

import numpy as np
import pytest

import mlda
from mlda import (
    InvalidInput,
    InvalidScheme,
    LabelScheme,
    MldaError,
    Seed,
    build_dataset,
    build_labels,
    build_scatter,
    gaps,
    gen_labels,
    isotropic_params,
    label_moments,
    load_dataset_csv,
    opt_stml,
    opt_td,
    population_scatters,
    rank_analysis,
    regularization_report,
    scheme_distribution,
    snr,
    sym_eig,
    top_eigenspace,
    trace_ratio_stiefel,
)
from mlda.errors import FLOAT_MAX
from mlda.harness.aggregate import aggregate, slope_fit


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


@pytest.mark.parametrize("n, d", [(30, 4), (40, 8), (20, 60)])
def test_every_label_has_rank_zero_at_both_entry_points(n, d):
    # every label mean is the global mean, so Sb is exactly 0; both entry
    # points read the one count ``ScatterSet.rank_sb``
    rng = np.random.default_rng(20260816)
    ds = build_dataset(rng.standard_normal((n, d)), build_labels(np.ones((n, 3), dtype=np.int64)))
    ss = build_scatter(ds)
    assert not ss.Sb.any()
    assert rank_analysis(ds, ss).rank_sb == 0
    assert {row.rank_sb for row in regularization_report(ss, [0.0, 1.0], 1)} == {0}


@pytest.mark.parametrize("broken", ["features", "labels"])
@pytest.mark.parametrize("fault", ["not utf-8", "missing", "a directory"])
def test_unreadable_csv_is_invalid_input(tmp_path, broken, fault):
    paths = {name: tmp_path / f"{name}.csv" for name in ("features", "labels")}
    paths["features"].write_text("1.0,2.0\n3.0,4.5\n-1.0,0.5\n")
    paths["labels"].write_text("1,0\n0,1\n1,1\n")
    load_dataset_csv(paths["features"], paths["labels"])
    path = paths[broken]
    path.unlink()
    if fault == "not utf-8":
        path.write_bytes(b"\xff\xfe1,0\n")
    elif fault == "a directory":
        path.mkdir()
    with pytest.raises(InvalidInput, match=f"cannot read {broken} CSV"):
        load_dataset_csv(paths["features"], paths["labels"])


# ---------------------------------------------------------------------------
# raw data where a validated object belongs
# ---------------------------------------------------------------------------

_X = np.random.default_rng(20260816).standard_normal((6, 3))
_BITS = np.eye(6, 2, dtype=np.int64) + np.eye(6, 2, -2, dtype=np.int64) + np.eye(6, 2, -4, dtype=np.int64)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_labels([[1, 0], [1]]), "label matrix is not a rectangular numeric array"),
        (lambda: build_dataset([[1.0, 2.0], [3.0]], build_labels(_BITS[:2])), "feature matrix is not"),
        (lambda: build_dataset(_X, _BITS), "labels must be a LabelMatrix .* got ndarray"),
        (lambda: build_scatter(_X), "ds must be a Dataset .* got ndarray"),
        (lambda: build_scatter(build_labels(_BITS)), "ds must be a Dataset .* got LabelMatrix"),
    ],
)
def test_raw_data_at_an_entry_point_is_invalid_input(call, message):
    build_scatter(build_dataset(_X, build_labels(_BITS)))  # the valid chain
    with pytest.raises(InvalidInput, match=message):
        call()


# ---------------------------------------------------------------------------
# every count argument, found by signature
# ---------------------------------------------------------------------------

COUNT_PARAMS = ("r", "n", "L", "max_iter", "base")

# Callables whose count-named parameter is not an argument to check: the
# result dataclasses store the rank they were built at as an output field.
# The exception classes take a message only; ``_count_callables`` passes
# over them, as their builtin signature cannot be read.
SKIPPED = {
    "WhitenedFrame": "a result dataclass: r is an output field of opt_stml",
    "GapReport": "a result dataclass: r is an output field of gaps",
}

_DS = build_dataset(np.random.default_rng(7).standard_normal((40, 5)), build_labels(_variable_bits(np.random.default_rng(8), 40, 3)))
_SS = build_scatter(_DS)
_D = 5
_BUDGET = mlda.distance_budget(np.eye(4, 2), np.eye(4, 2), [1, 0], [0, 1], np.eye(4))

# One valid call per callable: the call, taking the count arguments as
# keywords; their valid values; and the range [low, high] of each (high None:
# no upper end).
VALID = {
    "EigenPair.top": (lambda **kw: sym_eig(_SS.Sb).top(**kw), {"r": 2}, {"r": (1, _D)}),
    "Seed": (lambda **kw: Seed(**kw), {"base": 7}, {"base": (0, 2 ** 64 - 1)}),
    "gaps": (lambda **kw: gaps(_POP, **kw), {"r": 1}, {"r": (1, 1)}),
    "gen_labels": (
        lambda **kw: gen_labels(LabelScheme.uniform(2), rng=np.random.default_rng(3), **kw),
        {"n": 20, "L": 3},
        {"n": (3, None), "L": (1, None)},
    ),
    "gen_pattern": (
        lambda **kw: mlda.gen_pattern(LabelScheme.uniform(2), rng=np.random.default_rng(3), **kw),
        {"L": 3},
        {"L": (1, None)},
    ),
    "opt_stml": (lambda **kw: opt_stml(_SS.Sb, _SS.St_ml, **kw), {"r": 2}, {"r": (1, _D)}),
    "opt_td": (lambda **kw: opt_td(_SS, **kw), {"r": 2}, {"r": (1, _D)}),
    "regularization_report": (
        lambda **kw: regularization_report(_SS, [0.0, 1.0], **kw), {"r": 2}, {"r": (1, _D - 1)}
    ),
    "scheme_distribution": (
        lambda **kw: scheme_distribution(LabelScheme.uniform(2), **kw), {"L": 3}, {"L": (1, None)}
    ),
    "snr": (lambda **kw: snr(_BUDGET, Sigma_w=np.eye(4), **kw), {"r": 2}, {"r": (1, None)}),
    "top_eigenspace": (lambda **kw: top_eigenspace(_SS.Sb, **kw), {"r": 2}, {"r": (1, _D)}),
    "trace_ratio_stiefel": (
        lambda **kw: trace_ratio_stiefel(_SS.Sb, _SS.Sw, **kw),
        {"r": 2, "max_iter": 500},
        {"r": (1, _D), "max_iter": (1, None)},
    ),
}


def _count_callables():
    """{name: count parameters} of every callable in ``mlda.__all__`` and
    every public method of an exported class that has a count parameter."""
    found = {}
    for name in mlda.__all__:
        obj = getattr(mlda, name)
        if inspect.ismodule(obj) or (inspect.isclass(obj) and issubclass(obj, MldaError)):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj) if not attr.startswith("_")]
        for qualname, member in members:
            if not callable(member):
                continue
            params = [p for p in inspect.signature(member).parameters if p in COUNT_PARAMS]
            if params:
                found[qualname] = params
    return found


def test_every_count_parameter_has_a_valid_call_or_a_recorded_skip():
    found = _count_callables()
    assert sorted(found) == sorted([*VALID, *SKIPPED])
    for name, (_, valid, ranges) in VALID.items():
        assert sorted(found[name]) == sorted(valid) == sorted(ranges), name


def _hostile_counts(low, high):
    """Non-integers, and the integers just outside [low, high]."""
    outside = [v for v in (0, -1, low - 1) if v < low]
    if high is not None:
        outside.append(high + 1)
    return [2.5, np.float64(2.0), True, None, "2", *dict.fromkeys(outside)]


def _same(a, b):
    """Whether two results are equal field by field, arrays bit for bit."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize(
    "name, param, value",
    [
        (name, param, value)
        for name, (_, _, ranges) in VALID.items()
        for param, (low, high) in ranges.items()
        for value in _hostile_counts(low, high)
    ],
    ids=repr,
)
def test_a_hostile_count_is_invalid_input(name, param, value):
    call, valid, _ = VALID[name]
    with pytest.raises(InvalidInput, match=param):
        call(**{**valid, param: value})


@pytest.mark.parametrize("name", sorted(VALID))
def test_a_numpy_integer_count_gives_the_result_of_the_int(name):
    call, valid, _ = VALID[name]
    assert _same(call(**valid), call(**{k: np.int64(v) for k, v in valid.items()}))


@pytest.mark.parametrize("value", _hostile_counts(1, None))
@pytest.mark.parametrize(
    "make", [LabelScheme.uniform, lambda c: LabelScheme.variable([[c, 1.0]])], ids=["k", "mix"]
)
def test_a_hostile_scheme_cardinality_is_invalid_scheme(make, value):
    with pytest.raises(InvalidScheme, match="cardinality"):
        make(value)



# ---------------------------------------------------------------------------
# every real and array argument, found by signature
# ---------------------------------------------------------------------------

REAL_PARAMS = {
    # name: (low, high, strict), the range ``errors.real`` checks; gammas per entry
    "gamma": (0.0, FLOAT_MAX, False),
    "gammas": (0.0, FLOAT_MAX, False),
    "delta_prob": (0.0, 1.0, True),
    "c_scale": (0.0, math.inf, True),
    "gap": (0.0, math.inf, True),  # a gap <= 0 is InvalidGap, a NaN InvalidInput
    "pert_norm": (0.0, FLOAT_MAX, False),
    "tol": (0.0, math.inf, False),
    "sigma_w": (-FLOAT_MAX, FLOAT_MAX, False),
    "st_min_eig": (0.0, math.inf, True),
    "alpha": (-FLOAT_MAX, FLOAT_MAX, False),
}
ARRAY_PARAMS = (
    "A", "B_inter", "C", "M", "S", "Sb", "Sigma_w", "St", "St_total", "Sw", "U", "U_hat", "U_ref",
    "V", "W", "X", "Y", "bits", "columns", "mu", "out", "theta", "y", "y_i", "y_j",
)

# Callables whose real- or array-named parameters are not arguments to check:
# result dataclasses store what the function that built them computed.
RESULT_SKIPS = {
    "BoundFrame": "a result dataclass: bound_frame validates W, A and B_inter",
    "Dataset": "a result dataclass: build_dataset validates X",
    "EigenspaceResult": "a result dataclass: gap is an output field of top_eigenspace",
    "GapReport": "a result dataclass: theta is an output field of gaps",
    "LabelDistribution": "a result dataclass: C is an output field of label_moments",
    "LabelMatrix": "a result dataclass: build_labels validates bits",
    "ScatterSet": "a result dataclass: its scatters are outputs of build_scatter",
    "WhitenedFrame": "a result dataclass: columns and gamma are output fields of opt_stml",
}

_TWO = np.eye(4, 2)
_YS = {"y_i": np.array([1, 0, 1]), "y_j": np.array([0, 1, 1])}
_A3 = np.random.default_rng(11).standard_normal((4, 3))
_B3 = 0.3 * np.random.default_rng(12).standard_normal((4, 3))
_FRAME = mlda.bound_frame(_TWO, _A3, 0.5 * np.eye(4), _B3)
_PARAMS = isotropic_params(np.zeros(4), _A3, 0.5, B_inter=_B3)
_LABELS = build_labels(np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]]))
_MODEL = {"mu": np.zeros(4), "A": _A3, "Sigma_w": 0.25 * np.eye(4), "B_inter": _B3}
_DIAGONAL_MODEL = {**_MODEL, "Sigma_w": np.full(4, 0.25)}
_PAIR = {"W": _TWO, "A": _A3, **_YS}

# One valid call per callable: the call, taking the walked arguments as
# keywords, and their valid values. A callable that takes an argument in two
# forms has one entry per form, named "<callable> (<form>)".
WALK = {
    "BoundFrame.distance_budget": (lambda **kw: _FRAME.distance_budget(**kw), _YS),
    "BoundFrame.interaction_bound": (
        lambda **kw: _FRAME.interaction_bound(constraint="stml", **kw), {**_YS, "st_min_eig": 0.5}
    ),
    "BoundFrame.tail_params": (lambda **kw: _FRAME.tail_params(**kw), _YS),
    "BoundFrame.with_interactions": (lambda **kw: _FRAME.with_interactions(**kw), {"B_inter": _B3}),
    "Frame": (lambda **kw: mlda.Frame(**kw), {"columns": _TWO}),
    "ModelParams": (lambda **kw: mlda.ModelParams(**kw), _MODEL),
    "ModelParams (diagonal Sigma_w)": (lambda **kw: mlda.ModelParams(**kw), _DIAGONAL_MODEL),
    "bound_frame": (
        lambda **kw: mlda.bound_frame(**kw), {"W": _TWO, "A": _A3, "Sigma_w": np.eye(4), "B_inter": _B3}
    ),
    "build_dataset": (lambda **kw: build_dataset(labels=_LABELS, **kw), {"X": np.arange(20.0).reshape(5, 4) ** 1.5}),
    "build_labels": (lambda **kw: build_labels(**kw), {"bits": _LABELS.bits}),
    "commutativity_defect": (lambda **kw: mlda.commutativity_defect(**kw), {"Sb": _SS.Sb, "St": _SS.St}),
    "concentration_interval": (
        lambda **kw: mlda.concentration_interval(_FRAME.tail_params(**_YS), **kw),
        {"delta_prob": 0.05, "c_scale": 2.0},
    ),
    "davis_kahan_check": (
        lambda **kw: mlda.davis_kahan_check(**kw),
        {"U_hat": _TWO, "U_ref": np.eye(4)[:, 1:3], "pert_norm": 0.3, "gap": 0.7},
    ),
    "distance_budget": (lambda **kw: mlda.distance_budget(**kw), {**_PAIR, "Sigma_w": np.eye(4)}),
    "eval_objectives": (
        lambda **kw: mlda.eval_objectives(**kw), {"W": np.eye(5, 2), "Sb": _SS.Sb, "Sw": _SS.Sw}
    ),
    "gen_data": (
        lambda **kw: mlda.gen_data(_LABELS, _PARAMS, np.random.default_rng(5), **kw), {"alpha": 0.7}
    ),
    "hamming": (lambda **kw: mlda.hamming(**kw), _YS),
    "interaction_bound": (
        lambda **kw: mlda.interaction_bound(constraint="stml", **kw),
        {**_PAIR, "B_inter": _B3, "st_min_eig": 0.5},
    ),
    "isotropic_params": (
        lambda **kw: isotropic_params(**kw), {"mu": np.zeros(4), "A": _A3, "sigma_w": 0.5, "B_inter": _B3}
    ),
    "jaccard": (lambda **kw: mlda.jaccard(**kw), _YS),
    "jaccard_lower": (lambda **kw: mlda.jaccard_lower(_BUDGET, **kw), {"y_i": [1, 0], "y_j": [1, 1]}),
    "noise_differences": (
        lambda **kw: mlda.noise_differences(_PARAMS, np.random.default_rng(5), **kw), {"out": np.empty((3, 4))}
    ),
    "numeric_rank": (lambda **kw: mlda.numeric_rank(**kw), {"M": _SS.Sb, "tol": 1e-3}),
    "opt_stml": (lambda **kw: opt_stml(r=2, **kw), {"Sb": _SS.Sb, "St_total": _SS.St_ml, "gamma": 0.5}),
    "ordering_consistent": (lambda **kw: mlda.ordering_consistent(**kw), {"Sb": np.diag([3.0, 2.0]), "St": np.eye(2)}),
    "orthonormalize": (lambda **kw: mlda.orthonormalize(**kw), {"W": _A3}),
    "pair_products": (lambda **kw: mlda.pair_products(**kw), {"y": [1, 0, 1, 1]}),
    "pair_products_matrix": (lambda **kw: mlda.pair_products_matrix(**kw), {"Y": _LABELS.bits}),
    "principal_angle_sin": (lambda **kw: mlda.principal_angle_sin(**kw), {"U": _TWO, "V": np.eye(4)[:, 1:3]}),
    "regularization_report": (lambda **kw: regularization_report(_SS, r=2, **kw), {"gammas": [0.0, 1.5]}),
    "signal_rows": (lambda **kw: mlda.signal_rows(_LABELS, _PARAMS, **kw), {"alpha": 0.7}),
    "snr": (lambda **kw: snr(_BUDGET, 2, **kw), {"Sigma_w": 2.0 * np.eye(4)}),
    "sym_eig": (lambda **kw: sym_eig(**kw), {"S": _SS.Sw}),
    "sym_eigvals": (lambda **kw: mlda.sym_eigvals(**kw), {"S": _SS.Sw}),
    "symmetrize": (lambda **kw: mlda.symmetrize(**kw), {"S": _SS.Sw}),
    "tail_params": (lambda **kw: mlda.tail_params(**kw), {**_PAIR, "Sigma_w": np.eye(4)}),
    "theta_form": (lambda **kw: mlda.theta_form(**kw), {"theta": [0.5, 0.25]}),
    "top_eigenspace": (lambda **kw: top_eigenspace(r=2, **kw), {"C": _SS.Sb}),
    "trace_ratio_stiefel": (lambda **kw: trace_ratio_stiefel(r=2, **kw), {"Sb": _SS.Sb, "Sw": _SS.Sw}),
}

# Hostile values that a call may accept with another result, and why.
ACCEPTED = {
    ("interaction_bound", "B_inter", "None"): "None is a model without interactions, bound_frame's default",
    ("pair_products", "y", "empty array"): "the empty pattern, over no labels, has no pairs",
}

_ZOO = {
    "None": None,
    "'1'": "1",
    "True": True,
    "NaN": math.nan,
    "ragged": [[1.0], [1.0, 2.0]],
    "0-d array": np.array(1.0),
    "empty array": np.array([]),
    "numeric strings": np.array(["0.5", "0.25"]),
    "complex": np.array([1 + 2j, 0.5]),
}

# The array parameters whose shape is tied to another argument's: matrices
# that must conform, patterns over a frame's or each other's labels, and
# feature rows that must match the label rows. Each must reject its valid
# value with one extra row, and one extra column too where it is square (an
# extra row alone would only fail the squareness check).
TIED = {
    "BoundFrame.distance_budget": ("y_i", "y_j"),
    "BoundFrame.interaction_bound": ("y_i", "y_j"),
    "BoundFrame.tail_params": ("y_i", "y_j"),
    "BoundFrame.with_interactions": ("B_inter",),
    "ModelParams": ("mu", "A", "Sigma_w", "B_inter"),
    "ModelParams (diagonal Sigma_w)": ("mu", "A", "Sigma_w", "B_inter"),
    "bound_frame": ("W", "A", "Sigma_w", "B_inter"),
    "build_dataset": ("X",),
    "commutativity_defect": ("Sb", "St"),
    "davis_kahan_check": ("U_hat", "U_ref"),
    "distance_budget": ("W", "A", "y_i", "y_j", "Sigma_w"),
    "eval_objectives": ("W", "Sb", "Sw"),
    "hamming": ("y_i", "y_j"),
    "interaction_bound": ("W", "A", "B_inter", "y_i", "y_j"),
    "isotropic_params": ("mu", "A", "B_inter"),
    "jaccard": ("y_i", "y_j"),
    "jaccard_lower": ("y_i", "y_j"),
    "opt_stml": ("Sb", "St_total"),
    "ordering_consistent": ("Sb", "St"),
    "principal_angle_sin": ("U", "V"),
    "tail_params": ("W", "A", "y_i", "y_j", "Sigma_w"),
    "trace_ratio_stiefel": ("Sb", "Sw"),
}
_GROWN = "grown by one"


def _grown(value):
    """The array ``value`` with its last row repeated, and its last column
    too when it is square."""
    value = np.asarray(value)
    value = np.concatenate((value, value[-1:]))
    if value.ndim == 2 and value.shape[0] == value.shape[1] + 1:
        value = np.concatenate((value, value[:, -1:]), axis=1)
    return value


def _walked_callables():
    """{name: walked parameters} of every callable in ``mlda.__all__`` and
    every public method of an exported class with a parameter named in
    REAL_PARAMS or ARRAY_PARAMS."""
    walked = {*REAL_PARAMS, *ARRAY_PARAMS}
    found = {}
    for name in mlda.__all__:
        obj = getattr(mlda, name)
        if inspect.ismodule(obj) or (inspect.isclass(obj) and issubclass(obj, MldaError)):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj) if not attr.startswith("_")]
        for qualname, member in members:
            if callable(member):
                params = [p for p in inspect.signature(member).parameters if p in walked]
                if params:
                    found[qualname] = params
    return found


def _callable_of(name):
    """The callable a WALK entry calls: its name without the form."""
    return name.split(" (")[0]


def test_every_real_and_array_parameter_has_a_valid_call_or_a_recorded_skip():
    found = _walked_callables()
    assert sorted(found) == sorted([*dict.fromkeys(map(_callable_of, WALK)), *RESULT_SKIPS])
    for name, (_, valid) in WALK.items():
        assert sorted(found[_callable_of(name)]) == sorted(valid), name
    assert all(set(params) <= set(WALK[name][1]) for name, params in TIED.items())


def _outside(low, high, strict):
    """The reals just outside a range: an open end itself, the double next
    beyond a closed finite end, and +-inf beyond +-FLOAT_MAX."""
    values = []
    for end, outward in ((low, -math.inf), (high, math.inf)):
        if abs(end) == FLOAT_MAX:
            values.append(outward)
        elif math.isfinite(end):
            values.append(end if strict else math.nextafter(end, outward))
    return values


def _hostile_values(name, param):
    values = dict(_ZOO)
    if param in REAL_PARAMS:
        for x in _outside(*REAL_PARAMS[param]):
            values[repr(x)] = [x] if param == "gammas" else x
    if param in TIED.get(name, ()):
        values[_GROWN] = _grown(WALK[name][1][param])
    return values


def _walked_member(qualname):
    obj = mlda
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, param, label",
    [
        (name, param, label)
        for name, (_, valid) in WALK.items()
        for param in valid
        for label in _hostile_values(name, param)
    ],
)
def test_a_hostile_real_or_array_is_an_mlda_error(name, param, label):
    call, valid = WALK[name]
    value = _hostile_values(name, param)[label]
    try:
        got = call(**{**valid, param: value})
    except MldaError:
        return
    assert label in _ZOO, f"{name}({param}={label}) does not fit but returned {got!r}"
    default = inspect.signature(_walked_member(_callable_of(name))).parameters[param].default
    assert (value is None and default is None) or (name, param, label) in ACCEPTED or _same(
        got, call(**valid)
    ), f"{name}({param}={label}) returned {got!r}"


@pytest.mark.parametrize(
    "name, param", [(name, param) for name, (_, valid) in WALK.items() for param in valid if param in REAL_PARAMS]
)
def test_a_numpy_float_real_gives_the_result_of_the_float(name, param):
    call, valid = WALK[name]
    value = valid[param]
    as_numpy = [np.float64(v) for v in value] if param == "gammas" else np.float64(value)
    assert _same(call(**valid), call(**{**valid, param: as_numpy}))


# ---------------------------------------------------------------------------
# the probes that ended in a bare Python or numpy error (or a warning)
# ---------------------------------------------------------------------------

_RAGGED = [[1.0, 2.0], [3.0]]
_SS4 = build_scatter(build_dataset(_DS.X[:, :4], _DS.labels))  # d = 4 against _DS's d = 5
_U, _V = np.eye(5, 2), np.eye(5)[:, 1:3]
_PROBES = {
    "symmetrize(ragged)": lambda: mlda.symmetrize(_RAGGED),
    "symmetrize('x')": lambda: mlda.symmetrize("x"),
    "numeric_rank(tol='a')": lambda: mlda.numeric_rank(_SS.Sb, tol="a"),
    "opt_stml(gamma=None)": lambda: opt_stml(_SS.Sb, _SS.St_ml, 1, gamma=None),
    "opt_stml(gamma='1')": lambda: opt_stml(_SS.Sb, _SS.St_ml, 1, gamma="1"),
    "opt_stml(gamma=inf)": lambda: opt_stml(_SS.Sb, _SS.St_ml, 1, gamma=float("inf")),
    "regularization_report(None)": lambda: regularization_report(_SS, None, 1),
    "regularization_report(['a'])": lambda: regularization_report(_SS, ["a"], 1),
    "davis_kahan_check(gap=None)": lambda: mlda.davis_kahan_check(_U, _V, 0.1, None),
    "davis_kahan_check(pert_norm='a')": lambda: mlda.davis_kahan_check(_U, _V, "a", 0.5),
    "concentration_interval(None)": lambda: mlda.concentration_interval(_FRAME.tail_params(**_YS), None),
    "interaction_bound(st_min_eig='1')": lambda: _FRAME.interaction_bound(constraint="stml", st_min_eig="1", **_YS),
    "isotropic_params(sigma_w=None)": lambda: isotropic_params(np.zeros(4), _A3, None),
    "isotropic_params(sigma_w='a')": lambda: isotropic_params(np.zeros(4), _A3, "a"),
    "label_moments(prob=None)": lambda: label_moments([([1, 0], None)]),
    "label_moments(bits=1)": lambda: label_moments([(1, 1.0)]),
    "gen_data(alpha=None)": lambda: mlda.gen_data(_LABELS, _PARAMS, np.random.default_rng(5), alpha=None),
    "gen_data(alpha='1')": lambda: mlda.gen_data(_LABELS, _PARAMS, np.random.default_rng(5), alpha="1"),
    "bound_frame(ragged)": lambda: mlda.bound_frame(_RAGGED, _A3),
    "hamming(ragged)": lambda: mlda.hamming(_RAGGED, [0, 1]),
    "ModelParams(ragged)": lambda: mlda.ModelParams(np.zeros(2), _RAGGED, np.eye(2)),
    "eval_objectives(ragged W)": lambda: mlda.eval_objectives(_RAGGED, _SS.Sb, _SS.Sw),
    "eval_objectives(ragged Sb)": lambda: mlda.eval_objectives(np.eye(5, 2), _RAGGED, _SS.Sw),
    "orthonormalize(ragged)": lambda: mlda.orthonormalize(_RAGGED),
    "commutativity_defect(ragged)": lambda: mlda.commutativity_defect(_RAGGED, _SS.St),
    "pair_products(ragged)": lambda: mlda.pair_products(_RAGGED),
    "pair_products_matrix(1-D)": lambda: mlda.pair_products_matrix([1, 0, 1]),
    "theta_form('a')": lambda: mlda.theta_form("a"),
    "theta_form('0.5')": lambda: mlda.theta_form("0.5"),
    "build_dataset(X as strings)": lambda: build_dataset(_DS.X.astype(str), _DS.labels),
    "opt_stml(3 x 3, 4 x 4)": lambda: opt_stml(np.eye(3), np.eye(4), 1),
    "commutativity_defect(3 x 3, 4 x 4)": lambda: mlda.commutativity_defect(np.eye(3), np.eye(4)),
    "ordering_consistent(3 x 3, 4 x 4)": lambda: mlda.ordering_consistent(np.eye(3), np.eye(4)),
    "eval_objectives(4 x 2, 3 x 3, 4 x 4)": lambda: mlda.eval_objectives(np.eye(4, 2), np.eye(3), np.eye(4)),
    "rank_analysis(another dataset's scatters)": lambda: rank_analysis(_DS, _SS4),
    "residual_bound(another dataset's scatters)": lambda: mlda.residual_bound(_DS, _SS4),
    "ScatterSet(neither its matrices nor on_range)": lambda: mlda.ScatterSet(M=np.eye(2), st_ml_norm=1.0),
    "mix fraction True": lambda: LabelScheme.variable([(1, True)]),
    "mix fraction '1'": lambda: LabelScheme.variable([(1, "1")]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("probe", list(_PROBES))
def test_a_probe_that_failed_bare_is_an_mlda_error(probe):
    with pytest.raises(MldaError):
        _PROBES[probe]()


@pytest.mark.parametrize(
    "call",
    [
        lambda: aggregate(None),
        lambda: aggregate(5.0),
        lambda: aggregate(["a"]),
        lambda: aggregate([[1.0, 2.0], [3.0, 4.0]]),
        lambda: slope_fit([1, 2, "a"], [1, 2, 3]),
        lambda: slope_fit(None, [1, 2, 3]),
    ],
)
def test_the_harness_summaries_check_their_batch_before_sorting(call):
    with pytest.raises(InvalidInput):
        call()


def test_a_numpy_real_probability_or_fraction_gives_the_result_of_the_float():
    assert _same(
        label_moments([([1, 0], 0.25), ([0, 1], 0.75)]),
        label_moments([([1, 0], np.float64(0.25)), ([0, 1], np.float32(0.75))]),
    )
    assert LabelScheme.variable([(1, np.float64(0.25)), (2, 0.75)]).mix == ((1, 0.25), (2, 0.75))


# ---------------------------------------------------------------------------
# one conversion route: an ast lock on the six library modules
# ---------------------------------------------------------------------------

_LIBRARY = ("spectral", "scatter", "bounds", "discriminant", "population", "synth")
_CONVERSIONS = {"asarray", "array", "float", "int"}


def _given(fn):
    """A predicate on expressions of ``fn``: is it an argument as the caller
    gave it? That is a parameter, a name bound to one (by assignment, or as
    the target of a loop over it or its ``items()``) and, in
    ``__post_init__``, a field of self."""
    args = fn.args
    params = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a}

    def parameter(node):
        if isinstance(node, ast.Attribute) and fn.name == "__post_init__":
            return getattr(node.value, "id", None) == "self"
        return isinstance(node, ast.Name) and node.id in params

    names = set(params)
    for node in ast.walk(fn):
        source, targets = None, ()
        if isinstance(node, (ast.For, ast.comprehension)):
            source, targets = node.iter, [node.target]
            if isinstance(source, ast.Call) and getattr(source.func, "attr", None) == "items":
                source = source.func.value
        elif isinstance(node, ast.Assign):
            source, targets = node.value, node.targets
        if source is not None and parameter(source):
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return lambda node: parameter(node) or (isinstance(node, ast.Name) and node.id in names)


def _raw_conversions(source):
    """(function, conversion, line) of every ``np.asarray``/``np.array``,
    ``float()`` or ``int()`` whose first argument is an argument as given."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        given = _given(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and node.args and given(node.args[0]):
                func = node.func
                if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "np":
                    name = func.attr
                else:
                    name = getattr(func, "id", None)
                if name in _CONVERSIONS:
                    found.append((fn.name, name, node.lineno))
    return found


def test_conversion_scan_sees_every_spelling():
    for source in (
        "def f(x):\n    return np.asarray(x, dtype=float)",
        "def f(sigma_w):\n    return float(sigma_w)",
        "def f(r):\n    return int(r)",
        "def f(**arrays):\n    for name, value in arrays.items():\n        np.asarray(value)",
        "def f(pairs):\n    for bits, prob in pairs:\n        float(prob)",
        "def f(gammas):\n    return [float(g) for g in gammas]",
        "class C:\n    def __post_init__(self):\n        B = self.B\n        np.array(B)",
        "def f(y):\n    z = y\n    return np.array(z)",
    ):
        assert _raw_conversions(source), source
    for source in (
        "def f(x):\n    return float(np.trace(x))",
        "def f(pairs):\n    for bits, prob in pairs:\n        return [int(b) for b in bits]",
        "def f(x):\n    y = g(x)\n    return np.asarray(y)",
        "def f(x):\n    return _array(x, 'x', float)",
    ):
        assert not _raw_conversions(source), source


def test_only_the_two_routes_convert_an_argument():
    package = pathlib.Path(mlda.__file__).parent
    found = {
        module: hits
        for module in _LIBRARY
        for hits in [_raw_conversions((package / f"{module}.py").read_text(encoding="utf-8"))]
        if hits
    }
    assert [(name, conversion) for name, conversion, _ in found.pop("spectral")] == [("_array", "asarray")]
    assert found == {}
