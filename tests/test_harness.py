"""Harness tests: aggregation rules, config resolution, determinism of the
experiment tables and of their random streams, and CLI exit codes."""

import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mlda
from mlda import ConfigError
from mlda.harness.aggregate import UpperTail, aggregate, slope_fit
from mlda.harness.config import (
    DATA_CELL_LIMIT, DEFAULT_SEED, DEFAULTS, DENSE_D_LIMIT, EXPERIMENTS, build_config, validate_options,
)
from mlda.harness.experiments import _BOUNDS, run, write_report
from mlda.errors import InvalidInput


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_nearest_rank_p95():
    stats = aggregate(np.arange(1.0, 101.0))
    assert stats["p95"] == 95.0  # nearest-rank: ceil(0.95 * 100) = 95th sorted
    assert stats["median"] == pytest.approx(50.5)
    assert stats["mean"] == pytest.approx(50.5)
    assert stats["se"] == pytest.approx(np.arange(1.0, 101.0).std(ddof=1) / 10.0)


def test_aggregate_permutation_invariant(rng):
    vals = rng.uniform(0, 5, size=37)
    a = aggregate(vals)
    b = aggregate(rng.permutation(vals))
    assert a == b


def test_aggregate_single_value():
    stats = aggregate([2.5])
    assert stats == {"median": 2.5, "p95": 2.5, "mean": 2.5, "se": 0.0}


def test_aggregate_validation():
    with pytest.raises(InvalidInput):
        aggregate([])
    with pytest.raises(InvalidInput):
        aggregate([1.0, np.nan])
    with pytest.raises(InvalidInput):
        aggregate(np.ones((2, 2)))


def test_slope_fit_exact_power_law():
    ns = [10, 100, 1000, 10000]
    errors = [3.0 / np.sqrt(n) for n in ns]
    assert slope_fit(ns, errors) == pytest.approx(-0.5, abs=1e-12)
    assert slope_fit(ns, [0.7] * 4) == pytest.approx(0.0, abs=1e-12)


def test_slope_fit_reference_table():
    # medians of the subspace-error sweep published for this model family;
    # the fitted decay must sit in the reported window
    ns = [50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000]
    medians = [0.160, 0.115, 0.106, 0.072, 0.051, 0.051, 0.041, 0.033, 0.029]
    slope = slope_fit(ns, medians)
    assert slope == pytest.approx(-0.28128, abs=1e-4)
    assert -0.35 <= slope <= -0.20


@pytest.mark.filterwarnings("error")
def test_slope_fit_validation():
    with pytest.raises(InvalidInput):
        slope_fit([10, 100], [1.0, 0.5])  # need >= 3 points
    with pytest.raises(InvalidInput):
        slope_fit([10, 100, 1000], [1.0, 0.0, 0.1])  # non-positive error
    with pytest.raises(InvalidInput):
        slope_fit([10, 100], [1.0, 0.5, 0.1])
    for ns in ([1, 2, np.nan], [1, 2, np.inf]):  # non-finite sample sizes
        with pytest.raises(InvalidInput):
            slope_fit(ns, [1, 2, 3])


def test_package_exports_load_on_access():
    import mlda

    for name in mlda.__all__:
        assert getattr(mlda, name) is not None, name
    assert set(mlda.__all__) <= set(dir(mlda))
    with pytest.raises(AttributeError):
        mlda.no_such_name


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def test_defaults_resolved():
    cfg = build_config("rank", None, None, None, None)
    assert cfg.experiment == "rank"
    assert cfg.seed == DEFAULT_SEED
    assert cfg.options == DEFAULTS["rank"]


def test_file_and_cli_precedence(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiment": "distance", "seed": 7, "pairs": 11}))
    cfg = build_config("distance", str(path), None, None, None)
    assert cfg.seed == 7
    assert cfg.options["pairs"] == 11
    # CLI seed beats the file's
    cfg2 = build_config("distance", str(path), 99, None, None)
    assert cfg2.seed == 99
    # options sit at the top level only: a nested "options" object is no option
    path.write_text(json.dumps({"experiment": "distance", "options": {"pairs": 13}}))
    with pytest.raises(ConfigError, match="distance: unknown option 'options'"):
        build_config("distance", str(path), None, None, None)


def test_config_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"experiment": "rank", "bogus_key": 1}))
    with pytest.raises(ConfigError):
        build_config("rank", str(path), None, None, None)
    path.write_text(json.dumps({"experiment": "distance"}))
    with pytest.raises(ConfigError):
        build_config("rank", str(path), None, None, None)  # wrong experiment
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        build_config("rank", str(path), None, None, None)
    with pytest.raises(ConfigError):
        build_config("rank", None, -3, None, None)  # bad seed
    with pytest.raises(ConfigError):
        build_config("nonesuch", None, None, None, None)
    path.write_text(json.dumps({"experiment": "rank", "options": 5}))
    with pytest.raises(ConfigError, match="unknown option 'options'"):
        build_config("rank", str(path), None, None, None)
    row = {**DEFAULTS["rank"]["rows"][0], "bogus": 1}
    path.write_text(json.dumps({"experiment": "rank", "rows": [row]}))
    with pytest.raises(ConfigError, match=r"rows\[0\]: unknown option 'bogus'"):
        build_config("rank", str(path), None, None, None)


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="not valid UTF-8 JSON"):
        build_config("rank", str(path), None, None, None)
    proc = _cli(["rank", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("mlda: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("out_dir", [None, ["a"], "", 5, True, {"dir": "a"}])
def test_config_file_out_dir_must_be_a_non_empty_string(tmp_path, out_dir):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"experiment": "rank", "out_dir": out_dir}))
    with pytest.raises(ConfigError, match="out_dir must be a non-empty string"):
        build_config("rank", str(path), None, None, None)
    # the command line neither writes reports nor makes a directory
    package_root = os.path.dirname(os.path.dirname(mlda.__file__))
    proc = _cli(["rank", "--config", str(path)], {"PYTHONPATH": package_root}, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["bad.json"]


def test_config_out_dir_keeps_a_path_object(tmp_path):
    assert build_config("rank", out_dir=tmp_path).out_dir == str(tmp_path)


@pytest.mark.parametrize(
    "experiment, option, key",
    [("rank", "rows", "expect_rank"), ("rank", "rows", "expect_excess"), ("factors", "kmax_settings", "k_max")],
)
def test_derived_values_are_no_options(tmp_path, experiment, option, key):
    # a rank row's expected rank and excess, and a factors setting's k_max,
    # follow from the row's shape and scheme: a config may not state them
    entries = [{**DEFAULTS[experiment][option][0], key: 1}]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiment": experiment, option: entries}))
    with pytest.raises(ConfigError, match=rf"{option}\[0\]: unknown option '{key}'"):
        build_config(experiment, str(path), None, None, None)


def test_centred_label_rank_matches_the_enumerated_patterns():
    # the closed form the rank runner predicts from, against the rank of every
    # pattern of the scheme, centred: rank(HY) = rank(Y) - [1 in col Y]
    from itertools import combinations

    from mlda.harness.experiments import _centred_label_rank
    from mlda.population import scheme_distribution
    from mlda.spectral import numeric_rank
    from mlda.synth import LabelScheme

    checked = 0
    for L in range(1, 8):
        for size in (1, 2, 3):
            for cards in combinations(range(1, L + 1), size):
                schemes = [LabelScheme.variable([[c, 1.0 / size] for c in cards])]
                if size == 1:
                    # a zero fraction draws nothing, so it moves no rank
                    spare = [[c, 0.0] for c in range(1, L + 1) if c != cards[0]][:1]
                    schemes += [LabelScheme.uniform(cards[0]), LabelScheme.variable([[cards[0], 1.0], *spare])]
                for scheme in schemes:
                    Y = scheme_distribution(scheme, L).patterns.astype(float)
                    assert _centred_label_rank(scheme, L) == numeric_rank(Y - Y.mean(axis=0)), (L, scheme)
                checked += 1
    assert checked == 154
    assert _centred_label_rank(LabelScheme.single(), 6) == 5


def test_rank_row_with_a_zero_fraction_cardinality_beyond_L_runs(tmp_path):
    # config validation passes a cardinality that is never drawn, so the run
    # must not reject it either: the row draws single-label sets
    row = {**DEFAULTS["rank"]["rows"][1], "scheme": {"kind": "variable", "mix": [[1, 1.0], [9, 0.0]]}}
    path = tmp_path / "rank.json"
    path.write_text(json.dumps({"experiment": "rank", "rows": [row]}))
    report = run(build_config("rank", str(path), None, None, None))
    assert all(report.passes.values())
    assert report.rows[0]["rank_Sb_ML"] == 5


@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (5, 2)])
def test_rank_row_at_one_label_passes_at_every_seed(tmp_path, n, d):
    # L = 1: Sb is exactly 0, while Xc^T Y, the centred column sum, carries
    # n times the global mean's rounding (-8.9e-16 at (2, 1) and seed 9,
    # against a cutoff of 1.4e-16 from the centred rows alone); over seeds
    # 0-199 the rank cross-check failed on 44, 27 and 2 of these shapes
    row = {"setting": "one", "n": n, "d": d, "L": 1, "scheme": {"kind": "single"}}
    path = tmp_path / "rank.json"
    path.write_text(json.dumps({"experiment": "rank", "rows": [row]}))
    for seed in range(200):
        report = run(build_config("rank", str(path), seed, None, None))
        assert all(report.passes.values()), (seed, report.summary)


def test_all_config_restricted(tmp_path):
    path = tmp_path / "all.json"
    path.write_text(json.dumps({"experiment": "all", "seed": 5}))
    cfg = build_config("all", str(path), None, None, None)
    assert cfg.seed == 5
    path.write_text(json.dumps({"experiment": "all", "pairs": 10}))
    with pytest.raises(ConfigError):
        build_config("all", str(path), None, None, None)


def test_digest_covers_results_only(tmp_path):
    a = build_config("rank", None, 5, str(tmp_path / "x"), None)
    b = build_config("rank", None, 5, str(tmp_path / "y"), None)
    assert a.digest() == b.digest()  # out_dir does not affect results
    c = build_config("rank", None, 6, str(tmp_path / "x"), None)
    assert a.digest() != c.digest()


def test_threads_is_not_a_setting(tmp_path):
    # trials always run in order; build_config takes threads=1 only for the
    # benchmark's worker, and no config file may set it
    assert build_config("rank", threads=1).options == DEFAULTS["rank"]
    for bad in (2, 0, True):
        with pytest.raises(ConfigError):
            build_config("rank", threads=bad)
    path = tmp_path / "c.json"
    for experiment in ("rank", "all"):
        path.write_text(json.dumps({"experiment": experiment, "threads": 1}))
        with pytest.raises(ConfigError, match="threads"):
            build_config(experiment, str(path))


def test_dimension_validation(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiment": "divergence", "n": 0}))
    with pytest.raises(ConfigError):
        build_config("divergence", str(path), None, None, None)
    path.write_text(json.dumps({"experiment": "divergence", "n": 3, "L": 8}))
    with pytest.raises(ConfigError):  # n >= L required
        build_config("divergence", str(path), None, None, None)
    cases = [
        ("divergence", {"d": 20.7}, "must be of type int"),  # no silent truncation
        ("divergence", {"r": 20}, "need r < d"),
        ("concentration", {"draws": 50}, "draws must be >= 100"),
        ("convergence", {"ns": [50, 20, 100]}, "increasing"),
        ("convergence", {"ns": [3, 50, 100]}, "each >= L"),
        ("regularization", {"gammas": [0.0, 1.0, 1.0]}, "strictly increasing"),
        # the ranks the runners derive: r = L for the ridge report,
        # r = min(6, L) for the projection frame
        ("regularization", {"d": 10, "L": 10, "n": 50}, "need L < d"),
        ("distance", {"d": 3, "L": 5}, r"need min\(6, L\) <= d"),
        ("interaction", {"singular_values": [8.0, 6.0]}, "one singular value per label"),
        ("interaction", {"alphas": [0.0, 1e308]}, "finite square"),
        ("interaction", {"alphas": [0.0, 1e100], "interaction_scale": 1e100}, "finite square"),
        ("factors", {"kmax_settings": DEFAULTS["factors"]["kmax_settings"][:1]}, ">= 2 entries"),
        ("factors", {"gamma_scheme": {"kind": "uniform", "k": 6}}, "exceeds L"),
        ("factors", {"r": 5}, "need r < L"),
        ("factors", {"n": 10}, "need n > d"),
        ("factors", {"kmax_settings": [{"scheme": {"kind": "single"}}, {"scheme": {"kind": "uniform", "k": 5}}]},
         "fewer than L=5 labels"),
        ("factors", {"L": 2, "singular_values": [8.0, 6.0], "gamma_scheme": {"kind": "uniform", "k": 2},
                     "kmax_settings": [{"scheme": {"kind": "single"}}, {"scheme": {"kind": "uniform", "k": 2}}]},
         "fewer than L=2 labels"),
        ("divergence", {"n": 10}, r"min\(n - 1, c n - L\) > d - r"),
        ("divergence", {"n": 23}, "got n=23, d=20, L=6, r=3"),
        ("rank", {"rows": [{**DEFAULTS["rank"]["rows"][0], "L": 200}]}, "n >= L"),
    ]
    for experiment, options, message in cases:
        path.write_text(json.dumps({"experiment": experiment, **options}))
        with pytest.raises(ConfigError, match=message):
            build_config(experiment, str(path), None, None, None)


# Options whose domain includes 0; every other option rejects it.
_ZERO_ALLOWED = {"interaction_scale"}
_BAD_SCHEMES = [
    {"kind": "variable", "mix": [[1, float("nan")]]},
    {"kind": "uniform", "k": 1.5},
    {"kind": "uniform", "k": 2, "mix": []},
    {"kind": "nonesuch"},
]


def _hostile_values(default):
    """Values of the wrong type, non-finite, negative or empty for an option
    whose default is ``default``."""
    values = [float("nan"), float("inf"), float("-inf"), -1, "abc", None, True, [], {}]
    if isinstance(default, int):
        values.append(20.7)
    if isinstance(default, dict):
        values += _BAD_SCHEMES
    if isinstance(default, list):
        element = default[0]
        values += [[float("nan")], ["abc"], [None], [True], [[]]]
        if isinstance(element, dict) and "scheme" in element:
            values += [[{**element, "scheme": bad}] for bad in _BAD_SCHEMES]
            values.append([{k: v for k, v in element.items() if k != "scheme"}])
        if isinstance(element, dict):
            values.append([{**element, "extra": 1}])
    return values


@pytest.mark.parametrize(
    "experiment,option", [(e, o) for e in EXPERIMENTS for o in DEFAULTS[e]]
)
def test_every_option_rejects_hostile_values(tmp_path, experiment, option):
    path = tmp_path / "c.json"
    default = DEFAULTS[experiment][option]
    hostile = _hostile_values(default)
    if option not in _ZERO_ALLOWED:
        hostile.append(0)
    for value in hostile:
        path.write_text(json.dumps({"experiment": experiment, option: value}))
        with pytest.raises(ConfigError, match=option):
            build_config(experiment, str(path))
            pytest.fail(f"{experiment}.{option} = {value!r} was accepted")
    if option in _ZERO_ALLOWED:
        path.write_text(json.dumps({"experiment": experiment, option: 0}))
        assert build_config(experiment, str(path)).options[option] == 0


def test_defaults_and_shipped_configs_normalize_to_themselves(tmp_path):
    from mlda.harness.config import ExperimentConfig, validate_options

    for experiment in EXPERIMENTS:
        options = validate_options(experiment, DEFAULTS[experiment])
        assert options == DEFAULTS[experiment]
        assert json.dumps(options, sort_keys=True) == json.dumps(DEFAULTS[experiment], sort_keys=True)
        # the defaults written out as a config file read back as themselves
        path = tmp_path / f"{experiment}.json"
        path.write_text(json.dumps({"experiment": experiment, "seed": DEFAULT_SEED, **DEFAULTS[experiment]}))
        cfg = build_config(experiment, str(path))
        unvalidated = ExperimentConfig(experiment, DEFAULT_SEED, "results", DEFAULTS[experiment])
        assert cfg.options == DEFAULTS[experiment]
        assert cfg.digest() == unvalidated.digest()
    # an int given for a float option is stored as a float
    options = validate_options("distance", {**DEFAULTS["distance"], "sigma_w": 2, "effect_scale": 3})
    assert type(options["sigma_w"]) is float and type(options["effect_scale"]) is float


# ---------------------------------------------------------------------------
# experiment determinism and report files
# ---------------------------------------------------------------------------


def test_rerun_is_deterministic(tmp_path):
    cfg = build_config("rank", None, 31, str(tmp_path), None)
    r1 = run(cfg)
    r2 = run(cfg)
    assert r1.rows == r2.rows
    assert r1.passes == r2.passes


def test_report_files_and_formatting(tmp_path):
    cfg = build_config("rank", None, DEFAULT_SEED, str(tmp_path), None)
    report = run(cfg)
    csv_path, json_path = write_report(report, str(tmp_path))
    assert os.path.basename(csv_path) == "rank.csv"
    assert os.path.basename(json_path) == "rank.summary.json"
    with open(csv_path) as fh:
        header, *rows = fh.read().strip().split("\n")
    assert header.split(",") == report.columns
    assert len(rows) == len(report.rows)
    with open(json_path) as fh:
        payload = json.loads(fh.read())
    assert payload["config_hash"] == report.config_digest
    assert payload["all_passed"] is True
    assert payload["seed"] == DEFAULT_SEED
    # floats carry six significant digits
    from mlda.harness.experiments import _fmt_cell

    assert _fmt_cell(0.123456789) == "0.123457"
    assert _fmt_cell(1234567.0) == "1.23457e+06"
    assert _fmt_cell(True) == "true"
    assert _fmt_cell(None) == ""


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def _cli(args, env_extra=None, cwd=None, python_flags=()):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "mlda.harness.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_cli_pass_exit_zero(tmp_path):
    proc = _cli(["rank", "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    assert (tmp_path / "rank.csv").exists()
    assert (tmp_path / "rank.summary.json").exists()


def test_cli_criterion_failure_exit_one(tmp_path):
    # four rows cannot realize the pair patterns, so rank(Sb) falls short of
    # the rank theorem's prediction: the inputs, not a bound, fail the run
    row = {"setting": "misses pairs", "n": 4, "d": 10, "L": 3,
           "scheme": {"kind": "variable", "mix": [[1, 0.99], [2, 0.01]]}}
    cfgfile = tmp_path / "short.json"
    cfgfile.write_text(json.dumps({"experiment": "rank", "rows": [row]}))
    proc = _cli(["rank", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert proc.returncode == 1, proc.stderr
    assert "FAIL" in proc.stdout


def test_cli_config_error_exit_two(tmp_path):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"experiment": "rank", "unknown_option": 3}))
    proc = _cli(["rank", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""
    # no result files on a config error
    assert not (tmp_path / "rank.csv").exists()


# divergence shapes where the null space of Sw has dimension r or more, so
# some r-frame sees no within-class scatter: they exited 2 after their trials
# (n = 10), or 3 as the trace ratio decreased at lambda ~ 3e17 (n = 21); the
# last three passed a rule that counted only the null directions on the row
# span, and exited 2 or 3 after their trials
_SW_NULL_SHAPES = [
    {"n": 10, "trials": 5},
    {"n": 21, "trials": 5},
    {"n": 23, "trials": 5},
    {"n": 15, "r": 8, "trials": 5, "settings": [{"setting": "single", "scheme": {"kind": "single"}}]},
    {"n": 18, "r": 8, "trials": 5},
    {"n": 12, "d": 15, "L": 3, "r": 6, "settings": [{"setting": "single", "scheme": {"kind": "single"}}]},
]


# one config per runner whose (rows x d) buffer the cell rule bounds, just
# past DATA_CELL_LIMIT
_CELL_BOUNDED = [
    ("divergence", {"n": 500_001}),
    ("distance", {"n": 500_001}),
    ("interaction", {"n": 666_667}),
    ("factors", {"n": 833_334}),
    ("convergence", {"ns": [50, 100, 666_667]}),
    ("concentration", {"draws": 500_001}),
]


@pytest.mark.parametrize(
    "experiment,options",
    [
        ("regularization", {"sigma_w": float("nan")}),
        ("regularization", {"sigma_w": float("inf")}),
        ("regularization", {"sigma_w": -1}),
        ("regularization", {"sigma_w": 1e308}),
        ("regularization", {"effect_scale": float("nan")}),
        ("regularization", {"gammas": [0, float("nan")]}),
        ("regularization", {"d": "abc"}),
        ("regularization", {"d": 20.7}),
        ("regularization", {"trials": True}),
        ("divergence", {"settings": [{"setting": "no scheme"}]}),
        ("divergence", {"settings": [{"setting": "k", "scheme": {"kind": "uniform", "k": 1.5}}]}),
        ("interaction", {"alphas": [float("nan")]}),
        ("factors", {"kmax_settings": [{"scheme": {"kind": "single"}}]}),
        # a cut at r >= L falls inside a tied cluster of M*_c, and the
        # condition probe needs a nonsingular sample St_ml
        ("factors", {"r": 5, "trials": 3, "kappa_trials": 2}),
        ("factors", {"d": 21, "L": 6, "r": 16, "singular_values": [8, 6, 4, 1.5, 1, 0.5], "trials": 3,
                     "kappa_trials": 2}),
        ("factors", {"n": 10, "trials": 3, "kappa_trials": 2}),
        # a kmax_settings scheme that draws all L labels gives its signal rows
        # one pattern, so the gap at r is 0 (the bound ratio divided by it)
        ("factors", {"trials": 3, "kappa_trials": 2,
                     "kmax_settings": [{"scheme": {"kind": "single"}}, {"scheme": {"kind": "uniform", "k": 5}}]}),
        ("factors", {"L": 2, "singular_values": [8.0, 6.0], "trials": 3, "kappa_trials": 2,
                     "kmax_settings": [{"scheme": {"kind": "single"}}, {"scheme": {"kind": "uniform", "k": 2}}],
                     "gamma_scheme": {"kind": "uniform", "k": 2}}),
        *(("divergence", options) for options in _SW_NULL_SHAPES),
        # r = L = d: the ridge report takes r = L, which must stay below d
        ("regularization", {"d": 10, "L": 10, "trials": 1}),
        # extreme but finite values, rejected before numpy can overflow
        ("regularization", {"gammas": [0.0, 1e200]}),
        ("regularization", {"gammas": [0.0, 1e308]}),
        ("concentration", {"effect_scale": 1e100}),
        ("interaction", {"alphas": [0.0, 1e308]}),
        # alpha * B has a finite square but overflows the model's scatters
        ("interaction", {"alphas": [0.0, 1e150]}),
        # one orthogonal effect direction per label needs L <= d
        ("convergence", {"d": 3, "L": 5}),
        ("factors", {"d": 3, "L": 5}),
        ("interaction", {"d": 3, "L": 5}),
        # a pair needs two distinct rows, and a spectral gap two eigenvalues
        ("distance", {"n": 1, "L": 1, "settings": [{"setting": "s", "scheme": {"kind": "single"}}]}),
        ("interaction", {"n": 1, "L": 1, "scheme": {"kind": "single"}, "singular_values": [1.0]}),
        (
            "convergence",
            {"d": 1, "L": 1, "singular_values": [1.0], "ns": [5, 10, 20], "scheme": {"kind": "single"}},
        ),
        # each runner's rows, or concentration's noise differences, would
        # exceed DATA_CELL_LIMIT float64 cells
        *_CELL_BOUNDED,
    ],
)
def test_cli_hostile_config_exit_two(tmp_path, experiment, options):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"experiment": experiment, **options}))
    # a RuntimeWarning on the way to exit 2 becomes an error (a traceback
    # and exit 1), so an overflow that slips past a check fails here
    proc = _cli(
        [experiment, "--config", str(cfgfile), "--out", str(tmp_path)],
        python_flags=("-W", "error::RuntimeWarning"),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("mlda: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / f"{experiment}.csv").exists()
    if experiment == "divergence" and options in _SW_NULL_SHAPES:
        # the null-space rule's own line, before any trial
        got = "got n={n}, d={d}, L={L}, r={r}\n".format(**{**DEFAULTS["divergence"], **options})
        assert proc.stderr.startswith("mlda: divergence: every setting needs min(n - 1, c n - L) > d - r, ")
        assert proc.stderr.endswith(got), proc.stderr


@pytest.mark.parametrize("experiment, key", [(e, k) for e, bounds in _BOUNDS.items() for k in bounds])
def test_criterion_bounds_are_no_options(tmp_path, experiment, key):
    # the bound a criterion is judged by is a constant of _BOUNDS: a config
    # file that names one, even at its fixed value, fails as an unknown option
    assert key not in DEFAULTS[experiment]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiment": experiment, key: _BOUNDS[experiment][key]}))
    with pytest.raises(ConfigError, match=rf"^{experiment}: unknown option '{key}'$"):
        build_config(experiment, str(path))


@pytest.mark.parametrize(
    "experiment, options, key",
    [
        # exited 0 on Hamming rates of 95, 90 and 90 %, and exited 1 on the
        # same rates once min_pass_rate read 1.0
        ("distance", {"pairs": 20, "draws": 10, "tolerance_se": 0.0, "min_pass_rate": 0.0}, "min_pass_rate"),
        # exited 0 on medians of 0.835, 0.782 and 0.842 that do not fall with n
        ("convergence", {"ns": [50, 100, 200], "trials": 3, "max_median": 1e9, "slope_range": [-100, 100],
                         "max_inversions": 9, "gap_threshold": 1e-9}, "gap_threshold"),
        ("distance", {"tolerance_se": float("nan")}, "tolerance_se"),
        ("factors", {"scale_factor": 1e150}, "scale_factor"),
        ("concentration", {"c_scale": 1e-308}, "c_scale"),
    ],
)
def test_cli_config_naming_a_bound_exit_two(tmp_path, experiment, options, key):
    cfgfile = tmp_path / "bound.json"
    cfgfile.write_text(json.dumps({"experiment": experiment, **options}))
    proc = _cli([experiment, "--config", str(cfgfile), "--out", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"mlda: {experiment}: unknown option '{key}'\n"
    assert proc.stdout == "" and not (tmp_path / f"{experiment}.csv").exists()


def test_divergence_rule_keeps_the_shapes_that_run():
    # at the defaults (d = 20, L = 6, r = 3) the single-label setting needs
    # n - 6 > 17; n = 25 exits 0 on seeds 0-7
    for n in (24, 25):
        validate_options("divergence", {**DEFAULTS["divergence"], "n": n})
    # these exit 0, but Sw vanishes on the d - (n - 1) >= 6 directions off
    # the row span, so the trace ratio's optimal 3-frame is not unique: a
    # multi-label setting fills Sw no faster than n - 1 allows
    shapes = [
        {"n": n, "settings": [{"setting": f"uniform k={k}", "scheme": {"kind": "uniform", "k": k}}]}
        for n, k in ((10, 2), (11, 2), (12, 2), (15, 3))
    ]
    for options in shapes:
        with pytest.raises(ConfigError, match="the null space of Sw has dimension below r"):
            validate_options("divergence", {**DEFAULTS["divergence"], **options})


def test_divergence_groups_settings_by_their_drawn_cardinalities(tmp_path):
    # uniform k = 1 draws one label per row, as single does, so it joins the
    # single-label group: counted as multi-label, its 0-degree angle read
    # multilabel_divergence_visible as false
    settings = [{"setting": name, "scheme": spec} for name, spec in (
        ("single", {"kind": "single"}),
        ("uniform k=1", {"kind": "uniform", "k": 1}),
        ("uniform k=2", {"kind": "uniform", "k": 2}),
    )]
    report = run(_with_options("divergence", tmp_path, trials=5, settings=settings))
    per_setting = report.summary["per_setting"]
    assert {name: q["single_label"] for name, q in per_setting.items()} == {
        "single": True, "uniform k=1": True, "uniform k=2": False}
    assert all(report.summary["qualitative"].values()), report.summary["qualitative"]


def _settings(*schemes):
    return [{"setting": f"s{i}", "scheme": scheme} for i, scheme in enumerate(schemes)]


@pytest.mark.parametrize(
    "seed, options",
    [
        # lambda* is about 2.9e7, so one ulp of lambda exceeds an absolute
        # 1e-10 step and the iterate alternated until NotConverged
        (None, {"sigma_w": 0.001, "trials": 2}),
        # Sw has a near-null direction; lambda wandered by 1e-13 relative
        (5, {"n": 24, "trials": 5}),
        (3687970487, {"n": 9, "d": 7, "L": 2, "r": 1, "sigma_w": 0.1, "trials": 2,
                      "settings": _settings({"kind": "single"}, {"kind": "uniform", "k": 2},
                                            {"kind": "uniform", "k": 2})}),
        # lambda ~ 2.8e7 iterated past its stop until it fell below the
        # monotonicity slack: "iteration decreased"
        (778642305, {"n": 31, "d": 25, "L": 6, "r": 1, "sigma_w": 0.5, "trials": 2,
                     "settings": _settings({"kind": "uniform", "k": 1})}),
    ],
)
def test_cli_divergence_trace_ratio_stops_on_a_relative_step(tmp_path, seed, options):
    cfgfile = tmp_path / "divergence.json"
    cfgfile.write_text(json.dumps(options))
    seed_args = [] if seed is None else ["--seed", str(seed)]
    proc = _cli(["divergence", *seed_args, "--config", str(cfgfile), "--out", str(tmp_path)],
                python_flags=("-W", "error"))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_cli_divergence_names_a_drawn_sw_whose_null_space_holds_an_r_frame(tmp_path):
    # n = 7 passes the rule min(n - 1, c n - L) = 6 > d - r = 5, but a label
    # drawn on one row adds nothing to Sw: on 7 of 50 trials rank(Sw) = 5,
    # where the trace ratio once raised InvalidInput (exit 2) or failed its
    # monotonicity check (exit 3)
    cfgfile = tmp_path / "small.json"
    cfgfile.write_text(json.dumps({"n": 7, "d": 10, "L": 6, "r": 5,
                                   "settings": _settings({"kind": "uniform", "k": 2})}))
    proc = _cli(["divergence", "--seed", "2446665202", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert (proc.returncode, proc.stderr) == (1, "")
    with open(tmp_path / "divergence.summary.json", encoding="utf-8") as fh:
        details = json.load(fh)["details"]
    assert details["failures"] == ["s0: the drawn Sw has rank <= d - r = 5 on 7/50 trials, "
                                   "where no trace ratio is solved"]


def test_cli_factors_names_a_tied_population_gap(tmp_path):
    # equal singular values tie the population gap at r = 1 (exactly, at
    # seed 2), so the rescale test has no gap ratio to read: the criterion
    # fails and names the tie, where it once divided by zero
    cfgfile = tmp_path / "tied.json"
    cfgfile.write_text(json.dumps({"experiment": "factors", "singular_values": [1, 1, 1, 1, 1],
                                   "trials": 2, "kappa_trials": 2}))
    proc = _cli(["factors", "--seed", "2", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    with open(tmp_path / "factors.summary.json", encoding="utf-8") as fh:
        details = json.load(fh)["details"]
    assert details["failures"] == ["rescale test: the population gap at r=1 is tied (0.0)"]
    assert details["scale_check"]["gap_ratio"] is None


def test_cli_factors_names_a_scheme_whose_rows_realize_one_pattern(tmp_path):
    # at n = 2000 a fraction of 1e-4 draws 0.2 four-label rows on average, so
    # at seed 0 every trial's signal rows carry all 5 labels: the signal
    # scatters vanish and the gap at r is tied, where the bound-ratio spread
    # once divided by zero
    cfgfile = tmp_path / "rare.json"
    cfgfile.write_text(json.dumps({
        "experiment": "factors", "trials": 3, "kappa_trials": 2,
        "kmax_settings": [{"scheme": {"kind": "single"}},
                          {"scheme": {"kind": "variable", "mix": [[4, 0.0001], [5, 0.9999]]}}],
    }))
    proc = _cli(["factors", "--seed", "0", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    with open(tmp_path / "factors.summary.json", encoding="utf-8") as fh:
        details = json.load(fh)["details"]
    assert "k_max=5: the signal gap at r=1 is tied on 3/3 trials, as too few label patterns were drawn" \
        in details["failures"]
    assert details["bound_ratio_spread"] == "inf"


def test_cli_concentration_reads_theta_against_its_conditioned_floor(tmp_path):
    # sigma_w = 0.001 makes kappa(St_ml_pop) about 3e7, so the whitened theta
    # carries rounding dust down to about -1e-9: below THETA_DUST, but within
    # the floor d eps kappa that whitening at that condition number allows
    cfgfile = tmp_path / "ill.json"
    cfgfile.write_text(json.dumps({"experiment": "concentration", "sigma_w": 0.001, "r": 19,
                                   "pairs": 3, "draws": 200}))
    proc = _cli(["concentration", "--config", str(cfgfile), "--out", str(tmp_path)])
    # 600 draws are too few for the variance ratio: a criterion failure, not
    # an invariant violation (exit 3)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("experiment", ["rank", "all"])
def test_cli_unwritable_output_exit_two(tmp_path, experiment):
    # the directory cannot be made: a path under a regular file
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "sub")
    proc = _cli([experiment, "--out", out])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"mlda: cannot write reports to {out!r}: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    # nothing ran before the directory was tried
    assert proc.stdout == ""


def test_cli_failed_report_write_exit_two(tmp_path):
    # the directory exists, but a directory stands where the report goes
    (tmp_path / "rank.csv").mkdir()
    proc = _cli(["rank", "--out", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"mlda: cannot write reports to {str(tmp_path)!r}: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_cli_convergence_beyond_the_old_column_cap_runs(tmp_path):
    # d = 501 exited 2 with "pass max_cols=None", a keyword no CLI user can
    # reach; now the run reports, whether or not its criterion passes
    cfgfile = tmp_path / "wide.json"
    cfgfile.write_text(json.dumps({"experiment": "convergence", "d": 501, "trials": 2, "ns": [50, 100, 200]}))
    proc = _cli(["convergence", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert proc.returncode in (0, 1), proc.stderr
    assert (tmp_path / "convergence.csv").read_text().startswith("n,median_sin,")


def test_cli_d_beyond_the_dense_limit_exit_two(tmp_path):
    # ended at once in numpy's "Unable to allocate 298. GiB" traceback, exit 1
    cfgfile = tmp_path / "huge.json"
    cfgfile.write_text(json.dumps({"d": 200000, "r": 4}))
    proc = _cli(["concentration", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"mlda: concentration: need d <= {DENSE_D_LIMIT}, the largest d at which a runner "
        "forms d x d arrays, got d=200000\n"
    )
    assert proc.stdout == "" and os.listdir(tmp_path) == ["huge.json"]


def test_cli_ridge_data_beyond_the_cell_limit_exit_two(tmp_path):
    # at n < d the ridge sweep holds no d x d array, but its n x d data at
    # d = 10^8 would be 40 GB, and a bound on min(n, d) alone let it through
    cfgfile = tmp_path / "huge.json"
    cfgfile.write_text(json.dumps({"d": 10**8}))
    proc = _cli(["regularization", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"mlda: regularization: need min(n, d) <= {DENSE_D_LIMIT} and n * d <= {DATA_CELL_LIMIT}, "
        "got n=50, d=100000000\n"
    )
    assert proc.stdout == "" and os.listdir(tmp_path) == ["huge.json"]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_runner_bounds_its_dense_d(experiment):
    # d is bounded where a runner forms d x d arrays; regularization and a
    # rank row solve on the range at n < d, so min(n, d) is bounded there,
    # and n * d, the cells of the data
    options = DEFAULTS[experiment]

    def grow(**shape):
        if experiment == "rank":
            return {**options, "rows": [{**options["rows"][0], **shape}]}
        return {**options, **shape}

    big = DENSE_D_LIMIT + 1
    if experiment in ("rank", "regularization"):
        validate_options(experiment, grow(n=50, d=DATA_CELL_LIMIT // 50))
        law = f"min\\(n, d\\) <= {DENSE_D_LIMIT} and n \\* d <= {DATA_CELL_LIMIT}"
        for shape in ({"n": big, "d": big}, {"n": 50, "d": DATA_CELL_LIMIT // 50 + 1}):
            with pytest.raises(ConfigError, match=law):
                validate_options(experiment, grow(**shape))
    else:
        with pytest.raises(ConfigError, match=f"need d <= {DENSE_D_LIMIT}, .* got d={big}$"):
            validate_options(experiment, grow(d=big))


@pytest.mark.parametrize("experiment,options", _CELL_BOUNDED)
def test_every_runner_bounds_the_cells_of_its_rows(experiment, options):
    # one row past DATA_CELL_LIMIT cells fails on the cell rule, and one row
    # fewer validates
    with pytest.raises(ConfigError, match=rf"^{experiment}: need [a-z()]+ \* d <= {DATA_CELL_LIMIT}, "):
        validate_options(experiment, {**DEFAULTS[experiment], **options})
    (key, value), = options.items()
    fewer = [*value[:-1], value[-1] - 1] if isinstance(value, list) else value - 1
    validate_options(experiment, {**DEFAULTS[experiment], key: fewer})


def test_regularization_trial_at_d_over_n_400_holds_order_n_d(tmp_path):
    # the noise covariance is held as its diagonal, so one full trial at
    # (n, d, L) = (50, 20000, 10) forms no d x d array (one would be 3.2 GB):
    # it peaked at 5.4 n x d doubles when the lock was set
    from tests.conftest import peak_bytes

    cfg = _with_options("regularization", tmp_path, d=20000, trials=1)
    n, d = cfg.options["n"], cfg.options["d"]
    assert peak_bytes(lambda: run(cfg)) < 8 * n * d * 8


def test_cli_has_no_threads_flag(tmp_path):
    proc = _cli(["rank", "--threads", "2", "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "--threads" in proc.stderr
    assert not (tmp_path / "rank.csv").exists()


def test_cli_has_no_trials_flag(tmp_path):
    # a config file sets each experiment's counts by their own names
    # (trials, draws, kappa_trials), so no flag maps onto one of them
    proc = _cli(["divergence", "--trials", "3", "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "unrecognized arguments: --trials 3" in proc.stderr
    assert not (tmp_path / "divergence.csv").exists()


def test_cli_gap_below_threshold_is_criterion_failure(tmp_path):
    # at seed 1 the convergence instance has no spectral gap above the
    # threshold: a failed criterion with its report, not a usage error
    proc = _cli(["convergence", "--seed", "1", "--out", str(tmp_path)])
    assert proc.returncode == 1, proc.stderr
    assert "FAIL criterion_convergence" in proc.stdout
    payload = json.loads((tmp_path / "convergence.summary.json").read_text())
    assert payload["passes"] == {"criterion_convergence": False}
    assert "no spectral gap exceeds threshold" in payload["details"]["failures"][0]
    assert (tmp_path / "convergence.csv").read_text().startswith("n,median_sin,")


def test_cli_all_writes_every_report(tmp_path):
    proc = _cli(["all", "--seed", "1", "--out", str(tmp_path)])
    assert proc.returncode == 1, proc.stderr
    for name in DEFAULTS:
        assert (tmp_path / f"{name}.csv").exists(), name
        assert (tmp_path / f"{name}.summary.json").exists(), name


_BLAS_PROBE = """
import ctypes, json, os
import mlda.harness.cli
threads = []
with open("/proc/self/maps", encoding="utf-8") as fh:
    paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
for path in paths:
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads.append(fn())
            break
print(json.dumps({"threads": threads, "env": os.environ["OPENBLAS_NUM_THREADS"]}))
"""


def _blas_probe(**pins):
    """Import the CLI module in a fresh interpreter whose only BLAS thread
    settings are ``pins``; report OpenBLAS's own thread count and the
    variable left in place after the import."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(pins)
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_cli_pins_blas_to_one_thread():
    probe = _blas_probe()
    if not probe["threads"]:
        pytest.skip("numpy does not use OpenBLAS here")
    assert probe["threads"] == [1] * len(probe["threads"])
    # an explicit setting wins over the pin
    assert _blas_probe(OPENBLAS_NUM_THREADS="2")["env"] == "2"


# ---------------------------------------------------------------------------
# failure contract: invariant failures, atomic reports, stream keys
# ---------------------------------------------------------------------------


def test_cli_invariant_violation_exit_three(tmp_path, monkeypatch, capsys):
    from mlda import scatter
    from mlda.harness import cli

    # every scatter cross-check now fails, as a numerical fault would
    monkeypatch.setattr(scatter, "CROSSCHECK_TOL", -1.0)
    assert cli.main(["rank", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("mlda: internal check failed (InvariantViolation): ")
    assert err.count("\n") == 1 and "Traceback" not in err
    # a config error is still a usage error, with or without the fault
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"experiment": "rank", "unknown_option": 3}))
    assert cli.main(["rank", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    assert "unknown option" in capsys.readouterr().err


def test_cli_not_converged_exit_three(tmp_path, monkeypatch, capsys):
    from mlda import NotConverged
    from mlda.harness import cli

    def stalled(config):
        raise NotConverged("trace-ratio iteration did not converge\nin 500 steps")

    monkeypatch.setattr(cli, "run", stalled)
    assert cli.main(["divergence", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "mlda: internal check failed (NotConverged): " \
        "trace-ratio iteration did not converge in 500 steps\n"


def test_failed_summary_write_keeps_previous_report(tmp_path, monkeypatch):
    from mlda.harness.experiments import ExperimentReport, write_summary

    report = ExperimentReport(
        experiment="demo", columns=["a"], rows=[{"a": 1}], passes={"ok": True},
        summary={}, seed=5, config_digest="abc", wall_time_s=0.5,
    )
    path = tmp_path / "demo.summary.json"
    write_summary(report, str(path))
    before = path.read_bytes()

    def broken(*args, **kwargs):
        raise RuntimeError("disk gone")

    monkeypatch.setattr(json, "dump", broken)
    with pytest.raises(RuntimeError, match="disk gone"):
        write_summary(report, str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["demo.summary.json"]


# small trial counts, so every runner reaches each of its streams quickly
_QUICK = {
    "convergence": {"trials": 3},
    "factors": {"trials": 3, "kappa_trials": 2},
    "regularization": {"trials": 3},
    "rank": {},
    "divergence": {"trials": 3},
    "distance": {"pairs": 10, "draws": 10},
    "concentration": {"pairs": 5, "draws": 200},
    "interaction": {"pairs": 10, "draws": 10},
}


def test_stream_purposes_have_distinct_ids(tmp_path, monkeypatch):
    import dataclasses
    import zlib

    from mlda.harness.config import validate_options
    from mlda.synth import Seed

    assert set(_QUICK) == set(DEFAULTS)
    purposes = {}
    stream = Seed.stream

    def recording(self, experiment, trial, purpose):
        purposes.setdefault(experiment, set()).add(purpose)
        return stream(self, experiment, trial, purpose)

    monkeypatch.setattr(Seed, "stream", recording)
    for name, counts in _QUICK.items():
        cfg = build_config(name, None, DEFAULT_SEED, str(tmp_path), None)
        options = {**cfg.options, **counts}
        validate_options(name, options)
        run(dataclasses.replace(cfg, options=options))
    # the stream names are part of the output: renaming one changes every
    # number drawn from it, so they are pinned here one by one
    assert purposes == {
        "rank": {"labels", "effects", "noise"},
        "divergence": {
            "labels:0", "labels:1", "labels:2", "labels:3", "labels:4",
            "effects:0", "effects:1", "effects:2", "effects:3", "effects:4",
            "noise:0", "noise:1", "noise:2", "noise:3", "noise:4",
        },
        "distance": {"labels", "effects", "fit-noise", "pairs", "draws:0", "draws:1", "draws:2"},
        "convergence": {
            "effects", "labels", "noise:50", "noise:100", "noise:200", "noise:500", "noise:1000",
            "noise:2000", "noise:5000", "noise:10000", "noise:20000",
        },
        "factors": {
            "effects", "labels:0", "labels:1", "labels:2", "noise:0", "noise:1", "noise:2",
            "gamma-single", "gamma-multi", "kappa-labels:0", "kappa-labels:1",
            "kappa-noise:0", "kappa-noise:1",
        },
        "concentration": {"effects", "pair", "draws"},
        "interaction": {
            "labels", "effects", "inter", "fit-noise", "pairs",
            "draws:0", "draws:1", "draws:2", "draws:3", "draws:4",
        },
        "regularization": {"labels", "effects", "noise"},
    }
    tokens = set(purposes).union(*purposes.values())
    ids = {zlib.crc32(t.encode("utf-8")) for t in tokens}
    assert len(ids) == len(tokens)


def _draw_pattern_oracle(scheme, L, rng):
    """The concentration experiment's former inline pattern draw: one scalar
    ``choice`` for the cardinality, then a uniform subset of that size."""
    if scheme.kind == "single":
        card = 1
    elif scheme.kind == "uniform":
        card = scheme.k
    else:
        cards = np.array([c for c, _ in scheme.mix], dtype=np.int64)
        fracs = np.array([f for _, f in scheme.mix])
        card = int(cards[rng.choice(len(cards), p=fracs)])
    bits = np.zeros(L, dtype=np.int64)
    bits[rng.choice(L, size=card, replace=False)] = 1
    return bits


@pytest.mark.parametrize(
    "spec",
    [{"kind": "single"}, {"kind": "uniform", "k": 3},
     {"kind": "variable", "mix": [[1, 0.5], [2, 0.3], [4, 0.2]]}],
)
def test_draw_pattern_matches_inline_draw(spec):
    from mlda.harness.config import scheme_from_dict
    from mlda.synth import Seed, gen_pattern

    scheme, L, seed = scheme_from_dict(spec), 6, Seed(11)
    for p in range(500):
        new, old = seed.stream("pattern", p, "a"), seed.stream("pattern", p, "a")
        # two patterns per stream, as the concentration experiment draws them
        for _ in range(2):
            expected = _draw_pattern_oracle(scheme, L, old)
            np.testing.assert_array_equal(gen_pattern(scheme, L, new), expected)
        assert new.random() == old.random()  # both left the stream at the same state


# ---------------------------------------------------------------------------
# work per pair: bound factors once per frame, draws unchanged
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, counts",
    [
        ("distance", {"pairs": 10, "draws": 10}),
        ("concentration", {"pairs": 5, "draws": 200}),
        ("interaction", {"pairs": 10, "draws": 10}),
    ],
)
def test_pair_loops_compute_bound_factors_once_per_frame(tmp_path, monkeypatch, name, counts):
    import dataclasses

    from mlda import bounds
    from mlda.harness.config import validate_options
    from mlda.synth import Seed

    calls = {"svd": 0, "stream": 0}
    svd, stream = bounds._extreme_singular_values, Seed.stream

    def counted_svd(T):
        calls["svd"] += 1
        return svd(T)

    def counted_stream(self, *key):
        calls["stream"] += 1
        return stream(self, *key)

    monkeypatch.setattr(bounds, "_extreme_singular_values", counted_svd)
    monkeypatch.setattr(Seed, "stream", counted_stream)
    cfg = build_config(name, None, DEFAULT_SEED, str(tmp_path), None)
    options = {**cfg.options, **counts}
    validate_options(name, options)
    run(dataclasses.replace(cfg, options=options))
    pairs = counts["pairs"]
    # one SVD of W^T A per frame, plus one of W^T (alpha B) per alpha; the
    # streams are those the per-pair bounds drew from, one by one
    if name == "distance":
        want = (len(options["settings"]), len(options["settings"]) * (4 + pairs))
    elif name == "concentration":
        want = (1, 1 + 2 * pairs)
    else:
        want = (1 + len(options["alphas"]), 5 + len(options["alphas"]) * pairs)
    assert (calls["svd"], calls["stream"]) == want


# ---------------------------------------------------------------------------
# factors: the joint-rescale test is relative to c^2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("factor", [1e4, 1e5, 1e70])
def test_factors_rescale_passes_at_large_factors(tmp_path, monkeypatch, factor):
    monkeypatch.setitem(_BOUNDS["factors"], "scale_factor", factor)
    report = run(_with_options("factors", tmp_path, trials=3, kappa_trials=2))
    assert report.summary["scale_check"]["factor"] == factor
    assert not [f for f in report.summary["failures"] if f.startswith("rescale test")]


def test_factors_rescale_rejects_a_gap_ratio_off_by_a_millionth():
    from mlda.harness.experiments import _rescale_ok

    for c in (3.0, 1e4, 1e5, 1e70, 1e-3):
        assert _rescale_ok(0.0, c * c * (1 + 1e-12), c)
        assert not _rescale_ok(0.0, c * c * (1 + 1e-6), c)
        assert not _rescale_ok(0.0, c * c * (1 - 1e-6), c)
        assert not _rescale_ok(2e-10, c * c, c)
    # at the default c = 3 the test is no looser than the absolute 1e-8
    assert not _rescale_ok(0.0, 9.0 + 1e-8, 3.0)
    assert not _rescale_ok(0.0, 9.0 - 1e-8, 3.0)


# ---------------------------------------------------------------------------
# trial loops: concentration diagnostics over all draws, bounded peak memory
# ---------------------------------------------------------------------------


def _concentration_oracle(options, seed):
    """The concentration statistics as first written: every pair's linear
    part, quadratic part and Z kept in lists, the second noise draw made in
    one call, and the pools concatenated once the loop ends. Also returns how
    many pairs had no linear part and so were left out of the linear pool,
    and for each moment statistic how far two evaluations of it can differ
    when each takes its sums in its own order (``_sum_bound`` on both)."""
    import math

    from mlda import bounds
    from mlda.discriminant import opt_stml
    from mlda.harness.config import scheme_from_dict
    from mlda.harness.experiments import _gaussian_effects
    from mlda.population import isotropic_params, population_scatters, scheme_distribution
    from mlda.synth import gen_pattern

    d, L, r, pairs, draws = (options[k] for k in ("d", "L", "r", "pairs", "draws"))
    sigma_w, deltas = options["sigma_w"], options["deltas"]
    scheme = scheme_from_dict(options["scheme"])
    A = _gaussian_effects(d, L, options["effect_scale"], seed.stream("concentration", 0, "effects"))
    params = isotropic_params(np.zeros(d), A, sigma_w)
    pop = population_scatters(params, scheme_distribution(scheme, L))
    W = opt_stml(pop.Sb_pop, pop.St_ml_pop, r).columns
    frame = bounds.bound_frame(W, A, params.Sigma_w)
    covered, lin, quad, Z, lin_var = [], [], [], [], []
    for p in range(pairs):
        rng = seed.stream("concentration", p, "pair")
        y_i, y_j = gen_pattern(scheme, L, rng), gen_pattern(scheme, L, rng)
        tail = frame.tail_params(y_i, y_j)
        s = W.T @ (A @ (y_i - y_j).astype(float))
        rng_draws = seed.stream("concentration", p, "draws")
        E = sigma_w * rng_draws.standard_normal((draws, d)) - sigma_w * rng_draws.standard_normal((draws, d))
        P = E @ W
        lin.append(2.0 * (P @ s))
        quad.append(np.einsum("ij,ij->i", P, P) - frame.C_w)
        Z.append(lin[-1] + quad[-1])
        interval = [bounds.concentration_interval(tail, t, _BOUNDS["concentration"]["c_scale"]) for t in deltas]
        covered.append([int(np.count_nonzero(np.abs(Z[-1]) <= c)) for c in interval])
        lin_var.append(8.0 * float(s @ tail.Psi @ s))
    lin_unit = np.concatenate([x / math.sqrt(v) for x, v in zip(lin, lin_var) if v > 0.0])
    quad_all = np.concatenate(quad)
    abs_Z = np.abs(np.concatenate(Z))
    q95, q99 = (float(np.quantile(abs_Z, q)) for q in (0.95, 0.99))
    used, total = lin_unit.size, quad_all.size
    quad_std = float(quad_all.std(ddof=1))
    t_quad = abs(float(quad_all.mean())) / (quad_std / math.sqrt(total))
    # a merge of per-pair moments makes a few roundings per pair after its sums
    merges = 4 * pairs
    return {
        "coverage": [sum(c[k] for c in covered) / (pairs * draws) for k in range(len(deltas))],
        "variance_ratio": float(np.mean(lin_unit ** 2)),
        "t_linear_mean": abs(float(lin_unit.mean())) * math.sqrt(used),
        "t_quad_mean": t_quad,
        "quantile_ratio_99_95": q99 / q95,
        "excluded": sum(1 for v in lin_var if not v > 0.0),
        "bounds": {
            "variance_ratio": 2 * _sum_bound(lin_unit ** 2, 3) / used,
            "t_linear_mean": 2 * _sum_bound(lin_unit, 3) / math.sqrt(used),
            # t = |mean| sqrt(N) / std: the error of the mean's sum, and half
            # the relative error of the sum of squared deviations
            "t_quad_mean": 2 * _sum_bound(quad_all, merges) / math.sqrt(total) / quad_std
            + t_quad * _sum_bound((quad_all - quad_all.mean()) ** 2, merges)
            / (quad_std ** 2 * (total - 1)),
        },
    }


def _sum_bound(x, extra):
    """Forward-error bound gamma_k sum |x_i| of a floating-point sum of the
    values ``x`` taken in any order (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 4.2), with k = x.size + ``extra``
    counting the roundings made after the sum."""
    u = np.finfo(float).eps / 2
    k = x.size + extra
    return k * u / (1 - k * u) * float(np.abs(x).sum())


def _with_options(name, tmp_path, seed=DEFAULT_SEED, **changes):
    import dataclasses

    from mlda.harness.config import validate_options

    cfg = build_config(name, None, seed, str(tmp_path), None)
    options = {**cfg.options, **changes}
    validate_options(name, options)
    return dataclasses.replace(cfg, options=options)


@pytest.mark.parametrize(
    "seed, changes, excluded",
    [
        (DEFAULT_SEED, {"pairs": 6, "draws": 300}, 0),
        (3, {"pairs": 4, "draws": 2500}, 0),
        # one of the five pairs draws the same pattern twice
        (7, {"pairs": 5, "draws": 1001}, 1),
        # three single labels: two of the six pairs draw the same label twice
        (5, {"pairs": 6, "draws": 400, "L": 3, "r": 2, "scheme": {"kind": "single"}}, 2),
    ],
)
def test_pooled_concentration_statistics_equal_the_concatenated_ones(tmp_path, seed, changes, excluded):
    from mlda.synth import Seed

    cfg = _with_options("concentration", tmp_path, seed, **changes)
    report = run(cfg)
    oracle = _concentration_oracle(cfg.options, Seed(seed))
    assert oracle.pop("excluded") == excluded
    assert [row["coverage"] for row in report.rows] == oracle.pop("coverage")
    assert report.summary["quantile_ratio_99_95"] == oracle.pop("quantile_ratio_99_95")
    # running sums per pair add in another order than one sum over the pool
    for key, bound in oracle.pop("bounds").items():
        assert abs(report.summary[key] - oracle[key]) <= bound, key


def test_concentration_without_a_linear_part_fails_its_criterion(tmp_path):
    # two labels, one pair, and both draws give the same single label: the
    # pooled linear part is empty, so its variance ratio cannot be tested
    cfg = _with_options("concentration", tmp_path, 2, pairs=1, draws=100, L=2, r=1,
                        scheme={"kind": "single"})
    report = run(cfg)
    assert report.passes == {"criterion_concentration": False}
    assert report.summary["variance_ratio"] is None and report.summary["t_linear_mean"] is None
    assert report.summary["failures"] == ["every pair drew two equal patterns, so no linear part was sampled"]


@pytest.mark.parametrize("blocks", [(1000,) * 10, (1, 7, 333, 2000, 7659)])
def test_block_normal_draws_continue_one_draw(blocks):
    from mlda.synth import Seed

    one = Seed(4).stream("concentration", 0, "draws").standard_normal((sum(blocks), 20))
    rng = Seed(4).stream("concentration", 0, "draws")
    parts = np.concatenate([rng.standard_normal((b, 20)) for b in blocks])
    assert parts.tobytes() == one.tobytes()
    # the same blocks drawn into the leading rows of one reused buffer
    rng, buffer, parts = Seed(4).stream("concentration", 0, "draws"), np.empty((max(blocks), 20)), []
    for b in blocks:
        rng.standard_normal(out=buffer[:b])
        parts.append(buffer[:b].copy())
    assert np.concatenate(parts).tobytes() == one.tobytes()


@pytest.mark.parametrize(
    "chunks",
    [
        # one pair at the fewest draws a config allows
        [np.random.default_rng(1).standard_normal(100)],
        # N = 101: (N - 1) * 0.95 is exactly 95, so the 95th percentile is a value
        np.array_split(np.random.default_rng(2).standard_normal(101), 3),
        # heavy ties, across and inside chunks
        np.array_split(np.round(np.random.default_rng(3).exponential(size=3000), 1), 7),
        # every value equal
        [np.full(400, 2.5), np.full(400, 2.5)],
    ],
)
def test_upper_tail_quantiles_equal_numpy(chunks):
    values = np.concatenate(chunks)
    qs = (0.95, 0.97, 0.99, 0.999)
    want = [float(v) for v in np.quantile(values, qs)]
    # the chunks merged in several orders keep the same tail
    for order in ([*range(len(chunks))], [*reversed(range(len(chunks)))],
                  list(np.random.default_rng(0).permutation(len(chunks)))):
        tail = UpperTail(values.size, 0.95)
        for i in order:
            tail.add(chunks[i])
        assert tail.quantiles(qs) == want


def test_upper_tail_reads_only_a_full_stream():
    tail = UpperTail(300, 0.95)
    tail.add(np.arange(200.0))
    with pytest.raises(InvalidInput, match="200 of its 300"):
        tail.quantiles((0.95,))


def test_concentration_peak_memory_is_its_noise_buffer_and_tail(tmp_path):
    from tests.conftest import peak_bytes

    draws = 5000

    def peak(pairs):
        cfg = _with_options("concentration", tmp_path, pairs=pairs, draws=draws)
        return peak_bytes(lambda: run(cfg)), UpperTail(pairs * draws, 0.95).size

    d = DEFAULTS["concentration"]["d"]
    small, tail_small = peak(10)
    large, tail_large = peak(40)
    # one (draws, d) noise draw and as much again for its product and
    # temporaries, two tails of |Z| (and two pairs' draws) while a pair is
    # merged in, plus 1 MB
    assert large <= 2 * draws * d * 8 + 2 * tail_large * 8 + 2 ** 20
    # only the tail grows with the number of pairs
    assert large - small <= 2 * (tail_large - tail_small) * 8


def test_convergence_peak_memory_is_the_largest_signal_plus_one_trial(tmp_path):
    from tests.conftest import peak_bytes

    cfg = _with_options("convergence", tmp_path, trials=2)
    n, d, L = cfg.options["ns"][-1], cfg.options["d"], cfg.options["L"]
    # the largest n's signal rows, label bits and scaled label bits, and one
    # trial: its noisy rows, their centred copy, and one label's gathered rows
    # with their centred copy, each at most n x d; plus 1 MB
    signal = 8 * n * (d + 2 * L)
    trial = 8 * 4 * n * d
    assert peak_bytes(lambda: run(cfg)) <= signal + trial + 2 ** 20


def _mc_distance_oracle(rng, shift, W, sigma_w, draws, tol_se):
    # the per-pair Monte Carlo mean that the blocked one replaced
    Ei = sigma_w * rng.standard_normal((draws, W.shape[0]))
    Ej = sigma_w * rng.standard_normal((draws, W.shape[0]))
    proj = (shift + (Ei - Ej)) @ W
    dist2 = np.einsum("ij,ij->i", proj, proj)
    return float(dist2.mean()), tol_se * float(dist2.std(ddof=1) / np.sqrt(draws))


def test_blocked_monte_carlo_means_match_the_per_pair_oracle(rng):
    from mlda.harness.experiments import _MC_BLOCK, _Run, _mc_distance
    from mlda.population import isotropic_params
    from mlda.synth import Seed

    ex = _Run("distance", {}, Seed(7))
    d, r, draws, sigma_w, tol_se = 9, 3, 6, 0.7, 3.0
    W = rng.standard_normal((d, r))
    params = isotropic_params(np.zeros(d), np.zeros((d, 2)), sigma_w)
    for P in sorted({1, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1, 200}):
        shifts = 2.0 * rng.standard_normal((P, d))
        means, tols = _mc_distance(ex, f"draws:{P}", shifts, W, params, draws, tol_se)
        assert means.shape == tols.shape == (P,)
        for p in range(P):
            want = _mc_distance_oracle(ex.stream(p, f"draws:{P}"), shifts[p], W, sigma_w, draws, tol_se)
            assert np.array([means[p], tols[p]]).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("experiment", ["distance", "interaction"])
def test_pair_experiments_peak_memory_stays_bounded(tmp_path, experiment):
    # the Monte Carlo noise differences are drawn in blocks of pairs into one
    # buffer, so a run's traced peak is about 0.65 MB at the defaults (0.56 MB
    # for interaction), not a stack of every pair's draws
    from tests.conftest import peak_bytes

    cfg = build_config(experiment, out_dir=str(tmp_path))
    assert peak_bytes(lambda: run(cfg)) < 1.5e6


# ---------------------------------------------------------------------------
# criterion failures: every reachable branch, strict JSON summaries
# ---------------------------------------------------------------------------

# One small config per failure branch that options or a bound reach, with
# the bounds it swaps in the ``_BOUNDS`` table and a piece of that branch's
# message; each runs at the default seed. The branches for a concentration
# run whose pairs all draw equal patterns and for a factors run whose
# population gap is tied have their own tests above. Not reachable: the
# divergence sin-theta bound (a theorem, with an eps * ||C|| floor on the
# perturbation), concentration's ||Psi||_2 <= 1/lambda_min bound (a theorem
# for an St-orthogonal W) and factors' rescale test on an untied gap (exact
# to rounding at the fixed scale factor, and at the large factors above).
_FAILURE_PATHS = [
    # four rows cannot realize the pair patterns, so rank(Sb) falls short of
    # the prediction min(d, n - 1, L) = 3
    ("rank", {"rows": [{"setting": "misses pairs", "n": 4, "d": 10, "L": 3,
                        "scheme": {"kind": "variable", "mix": [[1, 0.99], [2, 0.01]]}}]}, {},
     "row 0 (misses pairs): rank 2, excess False; expected (3, True)"),
    ("distance", {"pairs": 20, "draws": 10}, {"tolerance_se": 0.0, "min_pass_rate": 1.0}, "Hamming"),
    ("convergence", {"ns": [50, 100, 200], "trials": 3}, {"gap_threshold": 1e9},
     "no spectral gap exceeds threshold"),
    ("convergence", {"ns": [50, 100, 200], "trials": 3}, {"max_median": 0.0}, "median at n=200"),
    ("convergence", {"ns": [50, 51, 52, 53, 54, 55], "trials": 1},
     {"gap_threshold": 0.5, "max_inversions": 0, "max_median": 1.0, "slope_range": (-100.0, 100.0)},
     "median inversions"),
    ("convergence", {"ns": [50, 100, 200], "trials": 3}, {"max_median": 1.0, "slope_range": (5.0, 6.0)},
     "log-log slope"),
    # noise this weak leaves the noisy frame on its target, so a median is 0
    # and has no logarithm to fit a slope to
    ("convergence", {"sigma_w": 1e-30, "trials": 3}, {}, "so no log-log slope is fitted"),
    ("factors", {"trials": 3, "kappa_trials": 2, "kmax_settings": [
        {"scheme": {"kind": "variable", "mix": [[1, 0.9], [3, 0.1]]}},
        {"scheme": {"kind": "variable", "mix": [[1, 0.8], [2, 0.2]]}},
        {"scheme": {"kind": "single"}}]}, {}, "median errors not monotone in k_max"),
    ("factors", {"trials": 3, "kappa_trials": 2}, {"ratio_factor": 0.0}, "bound-ratio spread"),
    ("factors", {"trials": 3, "kappa_trials": 2, "gamma_scheme": {"kind": "single"}}, {}, "co-occurrence norms"),
    ("concentration", {"pairs": 3, "draws": 200}, {"c_scale": 1e6}, "coverage"),
    ("concentration", {"pairs": 3, "draws": 200}, {"variance_rel_tol": 0.0}, "linear-part variance ratio"),
    ("concentration", {"pairs": 3, "draws": 200}, {"mean_se_tol": 0.0}, "component means not centered"),
    ("concentration", {"pairs": 3, "draws": 200}, {"quantile_ratio_max": 0.0}, "99th/95th deviation ratio"),
    ("interaction", {"pairs": 20, "draws": 10}, {"tolerance_se": 0.0, "min_corrected": 1.0},
     "corrected rate below"),
    ("interaction", {"pairs": 20, "draws": 10, "alphas": [0.0]}, {}, "naive rate"),
    ("regularization", {"n": 10, "trials": 2, "scheme": {"kind": "single"}}, {}, "rank varied"),
    ("regularization", {"n": 60, "d": 20, "trials": 2}, {}, "gamma=0 did not flag"),
    ("regularization", {"trials": 2}, {"kappa_ratio_range": (11.5, 12.0)}, "consecutive kappa ratios"),
    ("regularization", {"n": 60, "d": 20, "trials": 2}, {"gap_match_tol": 0.0}, "trace-difference gap moved"),
]


@pytest.mark.parametrize("name, changes, bounds, message", _FAILURE_PATHS)
def test_failure_path_fails_its_criterion(tmp_path, monkeypatch, name, changes, bounds, message):
    from mlda.harness.experiments import _RUNNERS

    for key, value in bounds.items():
        assert key in _BOUNDS[name], key
        monkeypatch.setitem(_BOUNDS[name], key, value)
    report = run(_with_options(name, tmp_path, **changes))
    assert report.passes == {_RUNNERS[name][1]: False}
    assert [f for f in report.summary["failures"] if message in f], report.summary["failures"]


def _own_nodes(fn):
    """The nodes of ``fn``'s body, not descending into the functions it defines."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, ast.FunctionDef):
            stack.extend(ast.iter_child_nodes(node))


def test_runners_record_through_their_run():
    # every runner writes onto the _Run that run() hands it: none returns a
    # value, and outside _Run nothing opens a stream but the run's own and
    # nothing appends a failure
    from mlda.harness import experiments

    with open(experiments.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    outside = [node for node in tree.body if not (isinstance(node, ast.ClassDef) and node.name == "_Run")]
    runners = [node for node in outside if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_")]
    assert {fn.name for fn in runners} == {runner.__name__ for runner, _ in experiments._RUNNERS.values()}
    for fn in runners:
        returns = [node.lineno for node in _own_nodes(fn) if isinstance(node, ast.Return) and node.value]
        assert not returns, f"{fn.name} returns a value at lines {returns}"
    for node in (n for top in outside for n in ast.walk(top)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if node.func.attr == "stream":
                assert isinstance(receiver, ast.Name) and receiver.id == "ex", f"line {node.lineno}"
            if node.func.attr == "append":
                name = receiver.attr if isinstance(receiver, ast.Attribute) else getattr(receiver, "id", None)
                assert name != "failures", f"line {node.lineno}"


def test_a_scheme_kind_is_compared_only_where_it_is_decided():
    # LabelScheme.drawn states a scheme's law; kind decides only the JSON
    # form (config.scheme_from_dict and _typed) and, in synth, whether a draw
    # spends the generator. No module re-derives the drawn cardinalities.
    import pathlib

    own = {"config.py": {"scheme_from_dict", "_typed"}}
    for path in sorted(pathlib.Path(mlda.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert "_drawn" not in defined, path.name
        if path.name == "synth.py":
            continue
        for top in tree.body:
            if getattr(top, "name", None) in own.get(path.name, ()):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    assert not any(isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands), \
                        f"{path.name}:{node.lineno} compares a kind"


def _package_trees():
    import pathlib

    root = pathlib.Path(mlda.__file__).parent
    return {path.relative_to(root).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def test_no_function_defers_a_package_import():
    # a relative import inside a function hides an import cycle
    for name, tree in _package_trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred = [node.lineno for node in ast.walk(fn) if isinstance(node, ast.ImportFrom) and node.level]
                assert not deferred, f"{name}:{fn.name} imports at lines {deferred}"


def test_harness_reads_population_quantities_through_public_names():
    # the population pencil (Sb_inf, St_inf) has one solve, in gaps; the
    # harness neither solves it again nor reaches for a private helper of
    # discriminant, population or synth, the one route to every draw
    modules = ("discriminant", "population", "synth")
    for name, tree in _package_trees().items():
        if not name.startswith("harness/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in modules:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{name}:{node.lineno} imports {private}"
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "opt_stml":
                names = {getattr(n, "attr", getattr(n, "id", None)) for arg in node.args for n in ast.walk(arg)}
                assert not names & {"Sb_inf", "St_inf"}, f"{name}:{node.lineno} solves the population pencil"


def test_runners_read_bounds_from_the_table_only():
    # a bound key appears in a runner only as a subscript of ex.bounds (or of
    # a name assigned from it), never of the options, and each runner reads
    # every bound of its experiment
    from mlda.harness import experiments

    with open(experiments.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    keys = {k for bounds in experiments._BOUNDS.values() for k in bounds}
    for name, (runner, _) in experiments._RUNNERS.items():
        fn = functions[runner.__name__]
        receivers = {"ex.bounds"}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple) \
                    and isinstance(node.value, ast.Tuple):
                pairs = zip(node.targets[0].elts, node.value.elts)
                receivers |= {ast.unparse(t) for t, v in pairs if ast.unparse(v) == "ex.bounds"}
            elif isinstance(node, ast.Assign) and ast.unparse(node.value) == "ex.bounds":
                receivers |= {ast.unparse(t) for t in node.targets}
        parents = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Constant) and node.value in keys:
                parent = parents[node]
                receiver = ast.unparse(parent.value) if isinstance(parent, ast.Subscript) else None
                assert receiver in receivers, f"{fn.name} reads {node.value!r} from {receiver} (line {node.lineno})"
                read.add(node.value)
        assert read == set(experiments._BOUNDS.get(name, {})), fn.name


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_every_summary_is_strict_json(tmp_path):
    details = {}
    for name, counts in _QUICK.items():
        _, path = write_report(run(_with_options(name, tmp_path, **counts)), str(tmp_path))
        with open(path, encoding="utf-8") as fh:
            details[name] = json.load(fh, parse_constant=_reject_constant)["details"]
    # gamma = 0 leaves Sw singular at d > n: its kappa is written as the CSV writes it
    assert details["regularization"]["kappa_medians"][0] == "inf"
