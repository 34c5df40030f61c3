"""Hostile inputs at the solver entry points, with warnings as errors.

Each hostile class is a dataset and its scatter set; ``gaps`` gets the
sample pencil (Sb, St_ml) as a population. Every cell of the matrix below
must return or raise an ``MldaError``, never a bare numpy error or a
warning, and the table records which it does.

Every count argument of the public API (``r``, ``n``, ``L``, ``max_iter``,
the base seed) is found by its name in the signatures, and each must turn a
non-integer or out-of-range value into ``InvalidInput``.
"""

import dataclasses
import inspect

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

