"""Experiment configuration: defaults, JSON overrides, validation, hashing.

A config is resolved in three layers: built-in defaults for the experiment,
then a JSON file (``--config``), then explicit CLI overrides. Everything
that affects results is validated up front so a bad config fails before any
trials run, and hashed so outputs can be traced to the exact settings.
"""

import copy
import hashlib
import json
from dataclasses import dataclass, field

from ..errors import ConfigError, InvalidScheme
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

DEFAULT_SEED = 20260816

DEFAULTS = {
    "rank": {
        "sigma_w": 1.0,
        "effect_scale": 2.0,
        "rows": [
            {
                "setting": "variable card",
                "n": 100,
                "d": 20,
                "L": 6,
                "scheme": _VARIABLE_MIX,
                "expect_rank": 6,
                "expect_excess": True,
            },
            {
                "setting": "single-label",
                "n": 100,
                "d": 20,
                "L": 6,
                "scheme": {"kind": "single"},
                "expect_rank": 5,
                "expect_excess": False,
            },
            {
                "setting": "uniform k=3",
                "n": 100,
                "d": 20,
                "L": 6,
                "scheme": {"kind": "uniform", "k": 3},
                "expect_rank": 5,
                "expect_excess": False,
            },
            {
                "setting": "variable card",
                "n": 200,
                "d": 50,
                "L": 14,
                "scheme": _VARIABLE_MIX,
                "expect_rank": 14,
                "expect_excess": True,
            },
            {
                "setting": "single-label",
                "n": 200,
                "d": 50,
                "L": 14,
                "scheme": {"kind": "single"},
                "expect_rank": 13,
                "expect_excess": False,
            },
            {
                "setting": "high-dim",
                "n": 50,
                "d": 100,
                "L": 10,
                "scheme": _VARIABLE_MIX,
                "expect_rank": 10,
                "expect_excess": True,
            },
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
            {
                "setting": "variable mean~3",
                "scheme": {
                    "kind": "variable",
                    "mix": [[1, 0.1], [2, 0.25], [3, 0.3], [4, 0.35]],
                },
            },
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
        "tolerance_se": 3.0,
        "min_pass_rate": 0.95,
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
        "singular_values": [8.0, 6.0, 4.0, 1.5, 1.0],
        "scheme": _VARIABLE_MIX,
        "ns": [50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000],
        "trials": 100,
        "gap_threshold": 3.0,
        "max_median": 0.05,
        "max_inversions": 1,
        "slope_range": [-0.6, -0.15],
    },
    "factors": {
        "d": 12,
        "L": 5,
        "n": 2000,
        "sigma_w": 0.5,
        "singular_values": [8.0, 6.0, 4.0, 1.5, 1.0],
        "trials": 80,
        "r": 1,
        "kmax_settings": [
            {"k_max": 1, "scheme": {"kind": "single"}},
            {"k_max": 2, "scheme": _VARIABLE_MIX},
            {"k_max": 3, "scheme": {"kind": "variable", "mix": [[1, 0.9], [3, 0.1]]}},
        ],
        "ratio_factor": 2.0,
        "scale_factor": 3.0,
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
        "c_scale": 1.0,
        "variance_rel_tol": 0.01,
        "mean_se_tol": 4.0,
        "quantile_ratio_max": 2.5,
    },
    "interaction": {
        "n": 400,
        "d": 15,
        "L": 5,
        "pairs": 200,
        "draws": 50,
        "sigma_w": 0.5,
        "singular_values": [8.0, 6.0, 4.0, 1.5, 1.0],
        "interaction_scale": 1.0,
        "scheme": {"kind": "variable", "mix": [[1, 0.5], [2, 0.35], [3, 0.15]]},
        "alphas": [0.0, 0.1, 0.5, 1.0, 2.0],
        "tolerance_se": 3.0,
        "min_corrected": 0.99,
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
        "kappa_ratio_range": [8.0, 12.0],
        "gap_match_tol": 1e-10,
    },
}

_RESERVED_KEYS = {"experiment", "seed", "out_dir", "options"}


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


def scheme_from_dict(spec):
    """Build a LabelScheme from its JSON form; bad specs become ConfigError."""
    if isinstance(spec, LabelScheme):
        return spec
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"scheme spec must be a dict with a 'kind', got {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "single":
            return LabelScheme.single()
        if kind == "uniform":
            return LabelScheme.uniform(int(spec.get("k", 0)))
        if kind == "variable":
            return LabelScheme.variable(tuple((int(c), float(f)) for c, f in spec.get("mix", ())))
    except (InvalidScheme, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scheme spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown scheme kind {kind!r}")


def _need(options, key, kind, experiment):
    if key not in options:
        raise ConfigError(f"{experiment}: missing option {key!r}")
    value = options[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(
            f"{experiment}: option {key!r} must be {kind.__name__}, got {value!r}"
        )
    return value


def _check_positive_dims(entry, experiment, keys=("n", "d", "L")):
    for key in keys:
        if int(entry.get(key, 0)) < 1:
            raise ConfigError(f"{experiment}: {key} must be a positive integer, got {entry.get(key)!r}")
    if "n" in keys and "L" in keys and int(entry["n"]) < int(entry["L"]):
        raise ConfigError(
            f"{experiment}: need n >= L to realize every label, got n={entry['n']}, L={entry['L']}"
        )


def _check_scheme_fits(scheme_spec, L, experiment):
    scheme = scheme_from_dict(scheme_spec)
    if scheme.max_cardinality() > L:
        raise ConfigError(
            f"{experiment}: scheme cardinality {scheme.max_cardinality()} exceeds L={L}"
        )
    return scheme


def validate_options(experiment, options):
    """Structural validation; raises ConfigError before any trial runs."""
    if experiment == "rank":
        rows = _need(options, "rows", list, experiment)
        if not rows:
            raise ConfigError("rank: needs at least one row config")
        for row in rows:
            _check_positive_dims(row, experiment)
            _check_scheme_fits(row["scheme"], int(row["L"]), experiment)
    elif experiment == "divergence":
        _check_positive_dims(options, experiment)
        if not 1 <= int(options["r"]) < int(options["d"]):
            raise ConfigError(f"divergence: need 1 <= r < d, got r={options['r']}, d={options['d']}")
        if int(options["trials"]) < 1:
            raise ConfigError("divergence: trials must be >= 1")
        for entry in _need(options, "settings", list, experiment):
            _check_scheme_fits(entry["scheme"], int(options["L"]), experiment)
    elif experiment == "distance":
        _check_positive_dims(options, experiment)
        if int(options["pairs"]) < 1 or int(options["draws"]) < 2:
            raise ConfigError("distance: need pairs >= 1 and draws >= 2")
        for entry in _need(options, "settings", list, experiment):
            _check_scheme_fits(entry["scheme"], int(options["L"]), experiment)
    elif experiment == "convergence":
        _check_positive_dims(options, experiment, keys=("d", "L"))
        ns = _need(options, "ns", list, experiment)
        if len(ns) < 3 or any(int(n) < int(options["L"]) for n in ns):
            raise ConfigError("convergence: ns needs >= 3 entries, each >= L")
        if list(ns) != sorted(int(n) for n in ns):
            raise ConfigError("convergence: ns must be increasing")
        if int(options["trials"]) < 1:
            raise ConfigError("convergence: trials must be >= 1")
        svals = _need(options, "singular_values", list, experiment)
        if len(svals) != int(options["L"]):
            raise ConfigError("convergence: need one singular value per label")
        _check_scheme_fits(options["scheme"], int(options["L"]), experiment)
        if not 0.0 < float(options["gap_threshold"]):
            raise ConfigError("convergence: gap_threshold must be > 0")
    elif experiment == "factors":
        _check_positive_dims(options, experiment)
        if int(options["trials"]) < 1 or int(options["kappa_trials"]) < 1:
            raise ConfigError("factors: trial counts must be >= 1")
        if not 1 <= int(options["r"]) < int(options["d"]):
            raise ConfigError("factors: need 1 <= r < d")
        svals = _need(options, "singular_values", list, experiment)
        if len(svals) != int(options["L"]):
            raise ConfigError("factors: need one singular value per label")
        for entry in _need(options, "kmax_settings", list, experiment):
            _check_scheme_fits(entry["scheme"], int(options["L"]), experiment)
        _check_scheme_fits(options["gamma_scheme"], int(options["L"]), experiment)
        if float(options["scale_factor"]) <= 0:
            raise ConfigError("factors: scale_factor must be > 0")
    elif experiment == "concentration":
        _check_positive_dims(options, experiment, keys=("d", "L"))
        if not 1 <= int(options["r"]) < int(options["d"]):
            raise ConfigError("concentration: need 1 <= r < d")
        if int(options["pairs"]) < 1 or int(options["draws"]) < 100:
            raise ConfigError("concentration: need pairs >= 1 and draws >= 100")
        deltas = _need(options, "deltas", list, experiment)
        if not deltas or any(not 0.0 < float(t) < 1.0 for t in deltas):
            raise ConfigError("concentration: deltas must lie in (0, 1)")
        if float(options["c_scale"]) <= 0:
            raise ConfigError("concentration: c_scale must be > 0")
        _check_scheme_fits(options["scheme"], int(options["L"]), experiment)
    elif experiment == "interaction":
        _check_positive_dims(options, experiment)
        if int(options["pairs"]) < 1 or int(options["draws"]) < 2:
            raise ConfigError("interaction: need pairs >= 1 and draws >= 2")
        alphas = _need(options, "alphas", list, experiment)
        if not alphas or any(float(a) < 0 for a in alphas):
            raise ConfigError("interaction: alphas must be >= 0")
        svals = _need(options, "singular_values", list, experiment)
        if len(svals) != int(options["L"]):
            raise ConfigError("interaction: need one singular value per label")
        _check_scheme_fits(options["scheme"], int(options["L"]), experiment)
    elif experiment == "regularization":
        _check_positive_dims(options, experiment)
        if int(options["trials"]) < 1:
            raise ConfigError("regularization: trials must be >= 1")
        gammas = [float(g) for g in _need(options, "gammas", list, experiment)]
        if len(gammas) < 2 or any(b <= a for a, b in zip(gammas, gammas[1:])):
            raise ConfigError("regularization: gammas must be strictly increasing")
        if gammas[0] < 0:
            raise ConfigError("regularization: gammas must be >= 0")
        _check_scheme_fits(options["scheme"], int(options["L"]), experiment)
    else:
        raise ConfigError(f"unknown experiment {experiment!r}")


def load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    return data


def build_config(
    experiment,
    config_path=None,
    seed=None,
    out_dir=None,
    trials=None,
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
        extra = sorted(k for k in file_data if k not in ("experiment", "seed", "out_dir"))
        if extra:
            raise ConfigError(f"a config file for 'all' may only set seed/out_dir, not {extra}")
        options = {}
    else:
        options = copy.deepcopy(DEFAULTS[experiment])
        overrides = dict(file_data.get("options", {}))
        for key, value in file_data.items():
            if key in _RESERVED_KEYS:
                continue
            overrides[key] = value
        for key, value in overrides.items():
            if key not in options:
                raise ConfigError(f"{experiment}: unknown option {key!r}")
            options[key] = value

    seed = seed if seed is not None else file_data.get("seed", DEFAULT_SEED)
    out_dir = out_dir if out_dir is not None else file_data.get("out_dir", "results")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be an integer in [0, 2^64), got {seed!r}")

    if trials is not None:
        if trials < 1:
            raise ConfigError(f"trials must be >= 1, got {trials}")
        if experiment == "all":
            raise ConfigError("--trials cannot be applied to 'all'")
        if "trials" in options:
            options["trials"] = trials
        elif "draws" in options:
            options["draws"] = trials
        else:
            raise ConfigError(f"{experiment}: has no trial-count knob to override")

    if experiment != "all":
        validate_options(experiment, options)
    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        out_dir=str(out_dir),
        options=options,
    )
