"""Experiment configuration: defaults, JSON overrides, validation, hashing.

A config is resolved in three layers: built-in defaults for the experiment,
then a JSON file (``--config``), then the CLI's seed and output directory
(``--seed``, ``--out``); options are set by name in the file. Everything
that affects results is validated up front so a bad config fails before any
trials run, and hashed so outputs can be traced to the exact settings.

Options hold the inputs of a run, never a value the runner can derive from
them: a ``rank`` row's expected rank follows from its shape and label
scheme, and a ``factors`` setting's k_max is its scheme's largest
cardinality, so neither can be set (nor contradict the scheme). Nor do they
hold the bound a criterion is judged by: every such bound is a constant of
``experiments._BOUNDS``, so a config chooses what is measured (sizes,
scales, schemes, grids and trial counts) and never turns a failing run into
a pass. A config file that names a bound fails as an unknown option.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field

from ..errors import FLOAT_MAX, ConfigError, InvalidScheme, count, real
from ..synth import LabelScheme

EXPERIMENTS = (
    "rank",
    "divergence",
    "distance",
    "convergence",
    "factors",
    "concentration",
    "interaction",
    "regularization",
)

_VARIABLE_MIX = {"kind": "variable", "mix": [[1, 0.8], [2, 0.2]]}
_HEAVY_MIX = {"kind": "variable", "mix": [[1, 0.1], [2, 0.25], [3, 0.3], [4, 0.35]]}
_SINGULAR_VALUES = [8.0, 6.0, 4.0, 1.5, 1.0]

DEFAULT_SEED = 20260816
# The distance and interaction experiments project onto the top
# r = min(PAIR_FRAME_RANK, L) eigenvectors of Sb.
PAIR_FRAME_RANK = 6
# The largest d at which a runner forms d x d arrays (one float64 array is
# 32 MB there; each such runner, run once at that d with small trial
# counts, peaked at 0.3 to 1.2 GB RSS). regularization and each rank row
# solve on the range when n < d, so for them the bound is on min(n, d).
# DATA_CELL_LIMIT bounds the cells of every runner's (rows x d) arrays: a
# dataset's n x d rows (max(ns) x d in convergence) and concentration's
# draws x d noise differences (one float64 array is 80 MB there).
DENSE_D_LIMIT = 2048
DATA_CELL_LIMIT = 10**7

DEFAULTS = {
    "rank": {
        "sigma_w": 1.0,
        "effect_scale": 2.0,
        "rows": [
            {"setting": "variable card", "n": 100, "d": 20, "L": 6, "scheme": _VARIABLE_MIX},
            {"setting": "single-label", "n": 100, "d": 20, "L": 6, "scheme": {"kind": "single"}},
            {"setting": "uniform k=3", "n": 100, "d": 20, "L": 6, "scheme": {"kind": "uniform", "k": 3}},
            {"setting": "variable card", "n": 200, "d": 50, "L": 14, "scheme": _VARIABLE_MIX},
            {"setting": "single-label", "n": 200, "d": 50, "L": 14, "scheme": {"kind": "single"}},
            {"setting": "high-dim", "n": 50, "d": 100, "L": 10, "scheme": _VARIABLE_MIX},
        ],
    },
    "divergence": {
        "n": 400,
        "d": 20,
        "L": 6,
        "r": 3,
        "trials": 50,
        "sigma_w": 1.0,
        "effect_scale": 2.0,
        "settings": [
            {"setting": "single-label", "scheme": {"kind": "single"}},
            {"setting": "uniform k=2", "scheme": {"kind": "uniform", "k": 2}},
            {"setting": "uniform k=3", "scheme": {"kind": "uniform", "k": 3}},
            {
                "setting": "variable mean~2",
                "scheme": {
                    "kind": "variable",
                    "mix": [[1, 0.4], [2, 0.35], [3, 0.15], [4, 0.1]],
                },
            },
            {"setting": "variable mean~3", "scheme": _HEAVY_MIX},
        ],
    },
    "distance": {
        "n": 400,
        "d": 20,
        "L": 6,
        "pairs": 200,
        "draws": 50,
        "sigma_w": 1.0,
        "effect_scale": 2.0,
        "settings": [
            {"setting": "variable card", "scheme": _VARIABLE_MIX},
            {"setting": "uniform k=2", "scheme": {"kind": "uniform", "k": 2}},
            {"setting": "uniform k=3", "scheme": {"kind": "uniform", "k": 3}},
        ],
    },
    "convergence": {
        "d": 15,
        "L": 5,
        "sigma_w": 0.5,
        "singular_values": _SINGULAR_VALUES,
        "scheme": _VARIABLE_MIX,
        "ns": [50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000],
        "trials": 100,
    },
    "factors": {
        "d": 12,
        "L": 5,
        "n": 2000,
        "sigma_w": 0.5,
        "singular_values": _SINGULAR_VALUES,
        "trials": 80,
        "r": 1,
        "kmax_settings": [
            {"scheme": {"kind": "single"}},
            {"scheme": _VARIABLE_MIX},
            {"scheme": {"kind": "variable", "mix": [[1, 0.9], [3, 0.1]]}},
        ],
        "kappa_scales": [1.0, 5.0],
        "kappa_trials": 40,
        "gamma_scheme": _HEAVY_MIX,
    },
    "concentration": {
        "d": 20,
        "L": 6,
        "r": 4,
        "pairs": 50,
        "draws": 10000,
        "sigma_w": 1.0,
        "effect_scale": 2.0,
        "scheme": _VARIABLE_MIX,
        "deltas": [0.01, 0.05, 0.1, 0.2],
    },
    "interaction": {
        "n": 400,
        "d": 15,
        "L": 5,
        "pairs": 200,
        "draws": 50,
        "sigma_w": 0.5,
        "singular_values": _SINGULAR_VALUES,
        "interaction_scale": 1.0,
        "scheme": {"kind": "variable", "mix": [[1, 0.5], [2, 0.35], [3, 0.15]]},
        "alphas": [0.0, 0.1, 0.5, 1.0, 2.0],
    },
    "regularization": {
        "n": 50,
        "d": 200,
        "L": 10,
        "trials": 50,
        "sigma_w": 1.0,
        "effect_scale": 2.0,
        "scheme": _VARIABLE_MIX,
        "gammas": [0.0, 0.01, 0.1, 1.0, 10.0],
    },
}

_RESERVED_KEYS = {"experiment", "seed", "out_dir"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved settings for one experiment run."""

    experiment: str
    seed: int
    out_dir: str
    options: dict = field(default_factory=dict)

    def digest(self):
        """sha256 over everything that affects results (not out_dir): trials
        run in a fixed order, so experiment, seed and options fix every number."""
        payload = {
            "experiment": self.experiment,
            "seed": self.seed,
            "options": self.options,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_SCHEME_KEYS = {"single": {"kind"}, "uniform": {"kind", "k"}, "variable": {"kind", "mix"}}


def scheme_from_dict(spec, where="scheme"):
    """The LabelScheme of a scheme's exact JSON form: ``{"kind": "single"}``,
    ``{"kind": "uniform", "k": <int>}`` or ``{"kind": "variable", "mix":
    [[<int>, <fraction>], ...]}``. Anything else is a ConfigError."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or _SCHEME_KEYS.get(kind) != set(spec):
        raise ConfigError(
            f"{where} must be {{'kind': 'single'}}, {{'kind': 'uniform', 'k': ...}} "
            f"or {{'kind': 'variable', 'mix': [...]}}, got {spec!r}"
        )
    try:
        return LabelScheme(kind=kind, k=spec.get("k", 1), mix=spec.get("mix", ()))
    except InvalidScheme as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _finite_square(v):
    return v * v <= FLOAT_MAX


def _at_least(bound):
    return (lambda v: v >= bound), f">= {bound}"


# The domain of an option, by name wherever it appears (a rank row's n is
# checked as the top-level n is); a list option's domain holds for each
# element. Options without an entry take any value of their type.
_DOMAIN = {
    **dict.fromkeys(("n", "d", "L", "r", "trials", "pairs", "kappa_trials"), _at_least(1)),
    "draws": _at_least(2),
    # model scales enter the scatters squared, so each square must be a
    # finite double, and a positive scale must not square to zero
    **dict.fromkeys(
        ("sigma_w", "effect_scale", "singular_values", "kappa_scales"),
        ((lambda v: v > 0 and 0 < v * v <= FLOAT_MAX), "> 0 with a finite non-zero square"),
    ),
    "interaction_scale": ((lambda v: v >= 0 and _finite_square(v)), ">= 0 with a finite square"),
    **dict.fromkeys(("alphas", "gammas"), _at_least(0)),
    "deltas": ((lambda v: 0 < v < 1), "in (0, 1)"),
}


def _typed(value, default, where, key=None):
    """``value`` checked against the type of ``default``, its counterpart in
    DEFAULTS, and against the domain of option ``key``; returned as a new
    normalized copy in which a number given for a float is a float."""
    if isinstance(default, dict) and "kind" in default:
        scheme = scheme_from_dict(value, where)
        if scheme.kind == "variable":
            return {"kind": "variable", "mix": [list(pair) for pair in scheme.mix]}
        return dict(value)
    if isinstance(default, dict):
        if type(value) is not dict:
            raise ConfigError(f"{where} must be a JSON object, got {value!r}")
        unknown = sorted(value.keys() - default.keys())
        missing = sorted(default.keys() - value.keys())
        if unknown or missing:
            name = (unknown or missing)[0]
            raise ConfigError(f"{where}: {'unknown' if unknown else 'missing'} option {name!r}")
        return {name: _typed(v, default[name], f"{where}.{name}", name) for name, v in value.items()}
    if isinstance(default, list):
        if type(value) is not list or not value:
            raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
        return [_typed(v, default[0], f"{where}[{i}]", key) for i, v in enumerate(value)]
    if isinstance(default, float):
        value = real(where, value, -FLOAT_MAX, FLOAT_MAX, error=ConfigError)
    elif type(value) is not type(default):  # so a bool is no int, nor 20.7
        raise ConfigError(f"{where} must be of type {type(default).__name__}, got {value!r}")
    if key in _DOMAIN and not _DOMAIN[key][0](value):
        raise ConfigError(f"{where} must be {_DOMAIN[key][1]}, got {value!r}")
    return value


def _fits(spec, L):
    return scheme_from_dict(spec).max_cardinality() <= L


def _fewest(spec):
    return min(c for c, _ in scheme_from_dict(spec).drawn)


def _sw_sees_every_frame(o):
    # rank(Sw) <= min(n - 1, K - L): its columns lie on the span of the
    # centred rows, and the K >= c n label assignments (c the setting's fewest
    # drawn labels) fall into L classes. So the null space of Sw in R^d, the
    # directions off that span (where Sb = Sw = 0) included, has dimension
    # at least d - min(n - 1, c n - L). Once that reaches r, some r-frame has
    # tr(W^T Sw W) = 0, and the trace ratio is unbounded or has no unique
    # maximizer
    return all(min(o["n"] - 1, _fewest(e["scheme"]) * o["n"] - o["L"]) > o["d"] - o["r"] for e in o["settings"])


def _schemes_fit(o):
    entries = [o, *o.get("settings", ()), *o.get("kmax_settings", ())]
    return all(_fits(e[k], o["L"]) for e in entries for k in ("scheme", "gamma_scheme") if k in e)


def _range_fits(o):
    return min(o["n"], o["d"]) <= DENSE_D_LIMIT and o["n"] * o["d"] <= DATA_CELL_LIMIT


_N_COVERS_L = (lambda o: o["n"] >= o["L"]), "need n >= L to realize every label, got n={n}, L={L}"
_R_BELOW_D = (lambda o: o["r"] < o["d"]), "need r < d, got r={r}, d={d}"
_SV_PER_LABEL = (lambda o: len(o["singular_values"]) == o["L"]), "need one singular value per label"
# the effects get L orthonormal directions in d dimensions, one per singular value
_L_WITHIN_D = (lambda o: o["L"] <= o["d"]), "need L <= d for L orthogonal label effects, got L={L}, d={d}"
_SCHEMES_FIT = _schemes_fit, "a scheme's cardinality exceeds L={L}"
# the pair experiments draw pairs of distinct rows
_PAIRS_OF_ROWS = (lambda o: o["n"] >= 2), "need n >= 2 to draw a pair of distinct rows, got n={n}"
_FRAME_WITHIN_D = (lambda o: min(PAIR_FRAME_RANK, o["L"]) <= o["d"]), (
    f"need min({PAIR_FRAME_RANK}, L) <= d for the projection frame, got L={{L}}, d={{d}}"
)
_DENSE_D = (lambda o: o["d"] <= DENSE_D_LIMIT), (
    f"need d <= {DENSE_D_LIMIT}, the largest d at which a runner forms d x d arrays, got d={{d}}"
)
# the rows of a dataset, and concentration's buffer of noise differences,
# are (rows x d) float64 arrays
_N_D_CELLS = (lambda o: o["n"] * o["d"] <= DATA_CELL_LIMIT), (
    f"need n * d <= {DATA_CELL_LIMIT}, the cells of the n x d data, got n={{n}}, d={{d}}"
)
# at n >= d the scatters are d x d arrays, and the data is n x d at any shape
_RANGE_LAW = f"min(n, d) <= {DENSE_D_LIMIT} and n * d <= {DATA_CELL_LIMIT}"
_RANGE_FITS = _range_fits, f"need {_RANGE_LAW}, got n={{n}}, d={{d}}"

# Cross-field rules of each experiment, as (test, message) pairs; the
# message is formatted with the options. They run in order once every option
# has passed its type and domain check, so a rule may rely on the ones before.
_RULES = {
    "rank": (
        ((lambda o: all(map(_range_fits, o["rows"]))), f"every row needs {_RANGE_LAW}"),
        (
            (lambda o: all(row["n"] >= row["L"] and _fits(row["scheme"], row["L"]) for row in o["rows"])),
            "every row needs n >= L and a scheme that fits in its L labels",
        ),
    ),
    "divergence": (
        _DENSE_D,
        _N_D_CELLS,
        _N_COVERS_L,
        _R_BELOW_D,
        _SCHEMES_FIT,
        (
            _sw_sees_every_frame,
            "every setting needs min(n - 1, c n - L) > d - r, c its fewest drawn labels, so that the "
            "null space of Sw has dimension below r; got n={n}, d={d}, L={L}, r={r}",
        ),
    ),
    "distance": (_DENSE_D, _N_D_CELLS, _N_COVERS_L, _PAIRS_OF_ROWS, _FRAME_WITHIN_D, _SCHEMES_FIT),
    "convergence": (
        _DENSE_D,
        (
            (lambda o: len(o["ns"]) >= 3 and o["ns"] == sorted(o["ns"]) and o["ns"][0] >= o["L"]),
            "ns needs >= 3 increasing entries, each >= L={L}, got {ns}",
        ),
        (
            (lambda o: max(o["ns"]) * o["d"] <= DATA_CELL_LIMIT),
            f"need max(ns) * d <= {DATA_CELL_LIMIT}, the cells of the largest n x d data, got ns={{ns}}, d={{d}}",
        ),
        _SV_PER_LABEL,
        _L_WITHIN_D,
        # the target subspace is cut at a gap between two of d eigenvalues
        ((lambda o: o["d"] >= 2), "need d >= 2 for a spectral gap, got d={d}"),
        _SCHEMES_FIT,
    ),
    "factors": (
        _DENSE_D,
        _N_D_CELLS,
        _SV_PER_LABEL,
        _L_WITHIN_D,
        # Q_pi has at most L - 1 positive eigenvalues, so (A having full column
        # rank, by Sylvester's law of inertia) M*_c = A Q_pi A^T - K sigma_w^2 I
        # has at most L - 1 above its -K sigma_w^2 cluster: a cut at r >= L
        # falls inside that tie. With L <= d this also gives r < d.
        (
            (lambda o: o["r"] < o["L"]),
            "need r < L, as at most L - 1 eigenvalues of M*_c stand above its noise cluster, got r={r}, L={L}",
        ),
        # the condition probe whitens the sample St_ml, whose rank is at most
        # n - 1; with L <= d this also gives n >= L
        ((lambda o: o["n"] > o["d"]), "need n > d for a nonsingular sample St_ml, got n={n}, d={d}"),
        # the rescaling and condition probes take kmax_settings[1] as their
        # multilabel scheme
        ((lambda o: len(o["kmax_settings"]) >= 2), "kmax_settings needs >= 2 entries"),
        _SCHEMES_FIT,
        # a scheme that draws all L labels on every row gives the signal rows
        # one pattern, so their scatters vanish and the gap at r is 0
        (
            (lambda o: all(_fewest(e["scheme"]) < o["L"] for e in o["kmax_settings"])),
            "every kmax_settings scheme must draw fewer than L={L} labels on some rows",
        ),
    ),
    "concentration": (
        _DENSE_D,
        (
            (lambda o: o["draws"] * o["d"] <= DATA_CELL_LIMIT),
            f"need draws * d <= {DATA_CELL_LIMIT}, the cells of the draws x d noise differences, "
            "got draws={draws}, d={d}",
        ),
        _R_BELOW_D,
        ((lambda o: o["draws"] >= 100), "draws must be >= 100"),
        _SCHEMES_FIT,
    ),
    "interaction": (
        _DENSE_D,
        _N_D_CELLS,
        _N_COVERS_L,
        _PAIRS_OF_ROWS,
        _SV_PER_LABEL,
        _L_WITHIN_D,
        _SCHEMES_FIT,
        # alpha scales the interaction effects, so alpha * interaction_scale
        # is a model scale and needs a finite square like the scales above
        (
            (lambda o: all(_finite_square(a * o["interaction_scale"]) for a in o["alphas"])),
            "every alpha * interaction_scale needs a finite square, got alphas={alphas}, "
            "interaction_scale={interaction_scale}",
        ),
    ),
    "regularization": (
        _RANGE_FITS,
        _N_COVERS_L,
        ((lambda o: o["L"] < o["d"]), "need L < d, as the ridge report takes r = L, got L={L}, d={d}"),
        (
            (lambda o: len(o["gammas"]) >= 2 and all(a < b for a, b in zip(o["gammas"], o["gammas"][1:]))),
            "gammas needs >= 2 strictly increasing entries, got {gammas}",
        ),
        _SCHEMES_FIT,
    ),
}


def validate_options(experiment, options):
    """``options`` checked against the schema of ``experiment`` and returned
    as a normalized copy; any violation raises ConfigError before a trial runs.

    Each option's type is read off its value in ``DEFAULTS[experiment]``: an
    int needs an int (not a bool), a float a finite real (``errors.real``;
    stored as a float), a str or bool exactly that type, a list a non-empty
    list of the default's element type, a dict the default's keys, and a
    scheme its exact form (``scheme_from_dict``). Domains come from
    ``_DOMAIN`` and cross-field rules from ``_RULES``.
    """
    if experiment not in DEFAULTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    options = _typed(options, DEFAULTS[experiment], experiment)
    for test, message in _RULES[experiment]:
        if not test(options):
            raise ConfigError(f"{experiment}: " + message.format(**options))
    return options


def load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path!r} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    return data


def build_config(
    experiment,
    config_path=None,
    seed=None,
    out_dir=None,
    threads=None,
):
    """Resolve defaults <- config file <- CLI overrides into one config."""
    # ``threads`` is kept only because the benchmark's worker passes
    # ``threads=1``; trials always run in order, so it stores nothing
    if threads is not None and (type(threads) is not int or threads != 1):
        raise ConfigError(f"threads is not a setting; trials run in order (got {threads!r})")
    if experiment not in EXPERIMENTS and experiment != "all":
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)} or 'all'"
        )
    file_data = load_config_file(config_path) if config_path else {}
    declared = file_data.get("experiment")
    if declared is not None and declared != experiment:
        raise ConfigError(
            f"config file is for experiment {declared!r}, but {experiment!r} was requested"
        )

    if experiment == "all":
        extra = sorted(file_data.keys() - _RESERVED_KEYS)
        if extra:
            raise ConfigError(f"a config file for 'all' may only set seed/out_dir, not {extra}")
        options = {}
    else:
        given = {k: v for k, v in file_data.items() if k not in _RESERVED_KEYS}
        options = {**DEFAULTS[experiment], **given}

    seed = seed if seed is not None else file_data.get("seed", DEFAULT_SEED)
    out_dir = out_dir if out_dir is not None else file_data.get("out_dir", "results")
    seed = count("seed", seed, low=0, high=2 ** 64 - 1, error=ConfigError)
    # a file's out_dir is a JSON value; a caller may also pass a path object
    if not isinstance(out_dir, (str, os.PathLike)) or not os.fspath(out_dir):
        raise ConfigError(f"out_dir must be a non-empty string, got {out_dir!r}")

    if experiment != "all":
        options = validate_options(experiment, options)
    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        out_dir=os.fspath(out_dir),
        options=options,
    )
