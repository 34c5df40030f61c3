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
from mlda.harness.config import DEFAULT_SEED, DEFAULTS, EXPERIMENTS, build_config
from mlda.harness.experiments import run, write_report
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
    # nested options form works too
    path.write_text(json.dumps({"experiment": "distance", "options": {"pairs": 13}}))
    assert build_config("distance", str(path), None, None, None).options["pairs"] == 13


def test_trials_flag_mapping(tmp_path):
    cfg = build_config("divergence", None, None, None, 17)
    assert cfg.options["trials"] == 17
    cfg = build_config("concentration", None, None, None, 150)
    assert cfg.options["draws"] == 150
    with pytest.raises(ConfigError):
        build_config("rank", None, None, None, 5)  # rank has no trial count


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
    with pytest.raises(ConfigError, match="'options' must be a JSON object"):
        build_config("rank", str(path), None, None, None)
    row = {**DEFAULTS["rank"]["rows"][0], "bogus": 1}
    path.write_text(json.dumps({"experiment": "rank", "rows": [row]}))
    with pytest.raises(ConfigError, match=r"rows\[0\]: unknown option 'bogus'"):
        build_config("rank", str(path), None, None, None)
    for trials in (0, -1, True):  # the --trials override is validated like the file
        with pytest.raises(ConfigError, match="trials"):
            build_config("divergence", None, None, None, trials)


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


@pytest.mark.parametrize("key", ["expect_rank", "expect_excess"])
def test_rank_row_needs_both_expectations(tmp_path, key):
    row = dict(DEFAULTS["rank"]["rows"][0])
    del row[key]
    path = tmp_path / "rank.json"
    path.write_text(json.dumps({"experiment": "rank", "rows": [row]}))
    with pytest.raises(ConfigError, match=rf"rows\[0\]: missing option '{key}'"):
        build_config("rank", str(path), None, None, None)


def test_rank_row_with_a_zero_fraction_cardinality_beyond_L_runs(tmp_path):
    # config validation passes a cardinality that is never drawn, so the run
    # must not reject it either: the row draws single-label sets
    row = {**DEFAULTS["rank"]["rows"][1], "scheme": {"kind": "variable", "mix": [[1, 1.0], [9, 0.0]]}}
    path = tmp_path / "rank.json"
    path.write_text(json.dumps({"experiment": "rank", "rows": [row]}))
    report = run(build_config("rank", str(path), None, None, None))
    assert all(report.passes.values())
    assert report.rows[0]["rank_Sb_ML"] == 5


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
        ("convergence", {"slope_range": [-0.15, -0.6]}, "low <= high"),
        ("regularization", {"kappa_ratio_range": [8.0, 10.0, 12.0]}, "pair"),
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
        ("rank", {"rows": [{**DEFAULTS["rank"]["rows"][0], "L": 200}]}, "n >= L"),
    ]
    for experiment, options, message in cases:
        path.write_text(json.dumps({"experiment": experiment, **options}))
        with pytest.raises(ConfigError, match=message):
            build_config(experiment, str(path), None, None, None)


# Options whose domain includes 0; every other option rejects it.
_ZERO_ALLOWED = {
    "max_inversions", "max_median", "ratio_factor", "tolerance_se", "min_pass_rate",
    "variance_rel_tol", "mean_se_tol", "quantile_ratio_max", "interaction_scale",
    "min_corrected", "gap_match_tol",
}
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
        path.write_text(json.dumps({"experiment": experiment, "seed": DEFAULT_SEED, "options": DEFAULTS[experiment]}))
        cfg = build_config(experiment, str(path))
        unvalidated = ExperimentConfig(experiment, DEFAULT_SEED, "results", DEFAULTS[experiment])
        assert cfg.options == DEFAULTS[experiment]
        assert cfg.digest() == unvalidated.digest()
    # an int given for a float option is stored as a float
    options = validate_options("distance", {**DEFAULTS["distance"], "sigma_w": 2, "tolerance_se": 3})
    assert type(options["sigma_w"]) is float and type(options["tolerance_se"]) is float


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
    cfgfile = tmp_path / "strict.json"
    cfgfile.write_text(
        json.dumps(
            {"experiment": "regularization", "kappa_ratio_range": [11.5, 12.0]}
        )
    )
    proc = _cli(
        ["regularization", "--config", str(cfgfile), "--out", str(tmp_path)]
    )
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_cli_config_error_exit_two(tmp_path):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"experiment": "rank", "unknown_option": 3}))
    proc = _cli(["rank", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""
    # no result files on a config error
    assert not (tmp_path / "rank.csv").exists()


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
        ("distance", {"tolerance_se": float("nan")}),
        ("interaction", {"alphas": [float("nan")]}),
        ("factors", {"kmax_settings": [{"k_max": 1, "scheme": {"kind": "single"}}]}),
        # r = L = d: the ridge report takes r = L, which must stay below d
        ("regularization", {"d": 10, "L": 10, "trials": 1}),
        # extreme but finite values, rejected before numpy can overflow
        ("regularization", {"gammas": [0.0, 1e200]}),
        ("regularization", {"gammas": [0.0, 1e308]}),
        ("factors", {"scale_factor": 1e150}),
        ("concentration", {"effect_scale": 1e100}),
        ("interaction", {"alphas": [0.0, 1e308]}),
        ("concentration", {"c_scale": 1e-308}),
        # alpha * B has a finite square but overflows the model's scatters
        ("interaction", {"alphas": [0.0, 1e150]}),
        # one orthogonal effect direction per label needs L <= d
        ("convergence", {"d": 3, "L": 5}),
        ("factors", {"d": 3, "L": 5}),
        ("interaction", {"d": 3, "L": 5}),
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


def test_cli_has_no_threads_flag(tmp_path):
    proc = _cli(["rank", "--threads", "2", "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "--threads" in proc.stderr
    assert not (tmp_path / "rank.csv").exists()


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
    from mlda.harness.experiments import _draw_pattern
    from mlda.synth import Seed

    scheme, L, seed = scheme_from_dict(spec), 6, Seed(11)
    for p in range(500):
        new, old = seed.stream("pattern", p, "a"), seed.stream("pattern", p, "a")
        # two patterns per stream, as the concentration experiment draws them
        for _ in range(2):
            expected = _draw_pattern_oracle(scheme, L, old)
            np.testing.assert_array_equal(_draw_pattern(scheme, L, new), expected)
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
def test_factors_rescale_passes_at_large_factors(tmp_path, factor):
    import dataclasses

    from mlda.harness.config import validate_options

    cfg = build_config("factors", None, DEFAULT_SEED, str(tmp_path), None)
    options = {**cfg.options, "trials": 3, "kappa_trials": 2, "scale_factor": factor}
    validate_options("factors", options)
    report = run(dataclasses.replace(cfg, options=options))
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
    from mlda.harness.experiments import _draw_pattern, _gaussian_effects
    from mlda.population import isotropic_params, population_scatters
    from mlda.synth import scheme_distribution

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
        y_i, y_j = _draw_pattern(scheme, L, rng), _draw_pattern(scheme, L, rng)
        tail = frame.tail_params(y_i, y_j)
        s = W.T @ (A @ (y_i - y_j).astype(float))
        rng_draws = seed.stream("concentration", p, "draws")
        E = sigma_w * rng_draws.standard_normal((draws, d)) - sigma_w * rng_draws.standard_normal((draws, d))
        P = E @ W
        lin.append(2.0 * (P @ s))
        quad.append(np.einsum("ij,ij->i", P, P) - frame.C_w)
        Z.append(lin[-1] + quad[-1])
        interval = [bounds.concentration_interval(tail, t, options["c_scale"]) for t in deltas]
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


# ---------------------------------------------------------------------------
# criterion failures: every reachable branch, strict JSON summaries
# ---------------------------------------------------------------------------

# One small config per failure branch that options can reach, with a piece of
# that branch's message; each runs at the default seed. The branch for a
# concentration run whose pairs all draw equal patterns has its own test
# above. Not reachable from options: divergence's sin-theta bound (a theorem,
# with an eps * ||C|| floor on the perturbation), concentration's ||Psi||_2 <=
# 1/lambda_min bound (a theorem for an St-orthogonal W) and factors' rescale
# test (exact to rounding at every scale_factor the schema admits).
_FAILURE_PATHS = [
    ("rank", {"rows": [{"setting": "wrong rank", "n": 40, "d": 10, "L": 4, "scheme": {"kind": "single"},
                        "expect_rank": 4, "expect_excess": False}]}, "row 0 (wrong rank): rank 3"),
    ("distance", {"pairs": 20, "draws": 10, "tolerance_se": 0.0, "min_pass_rate": 1.0}, "Hamming"),
    ("convergence", {"ns": [50, 100, 200], "trials": 3, "gap_threshold": 1e9},
     "no spectral gap exceeds threshold"),
    ("convergence", {"ns": [50, 100, 200], "trials": 3, "max_median": 0.0}, "median at n=200"),
    ("convergence", {"ns": [50, 51, 52, 53, 54, 55], "trials": 1, "gap_threshold": 0.5, "max_inversions": 0,
                     "max_median": 1.0, "slope_range": [-100.0, 100.0]}, "median inversions"),
    ("convergence", {"ns": [50, 100, 200], "trials": 3, "max_median": 1.0, "slope_range": [5.0, 6.0]},
     "log-log slope"),
    ("factors", {"trials": 3, "kappa_trials": 2, "kmax_settings": [
        {"k_max": 3, "scheme": {"kind": "variable", "mix": [[1, 0.9], [3, 0.1]]}},
        {"k_max": 2, "scheme": {"kind": "variable", "mix": [[1, 0.8], [2, 0.2]]}},
        {"k_max": 1, "scheme": {"kind": "single"}}]}, "median errors not monotone in k_max"),
    ("factors", {"trials": 3, "kappa_trials": 2, "ratio_factor": 0.0}, "bound-ratio spread"),
    ("factors", {"trials": 3, "kappa_trials": 2, "gamma_scheme": {"kind": "single"}}, "co-occurrence norms"),
    ("concentration", {"pairs": 3, "draws": 200, "c_scale": 1e6}, "coverage"),
    ("concentration", {"pairs": 3, "draws": 200, "variance_rel_tol": 0.0}, "linear-part variance ratio"),
    ("concentration", {"pairs": 3, "draws": 200, "mean_se_tol": 0.0}, "component means not centered"),
    ("concentration", {"pairs": 3, "draws": 200, "quantile_ratio_max": 0.0}, "99th/95th deviation ratio"),
    ("interaction", {"pairs": 20, "draws": 10, "tolerance_se": 0.0, "min_corrected": 1.0},
     "corrected rate below"),
    ("interaction", {"pairs": 20, "draws": 10, "alphas": [0.0]}, "naive rate"),
    ("regularization", {"n": 10, "trials": 2, "scheme": {"kind": "single"}}, "rank varied"),
    ("regularization", {"n": 60, "d": 20, "trials": 2}, "gamma=0 did not flag"),
    ("regularization", {"trials": 2, "kappa_ratio_range": [11.5, 12.0]}, "consecutive kappa ratios"),
    ("regularization", {"n": 60, "d": 20, "trials": 2, "gap_match_tol": 0.0}, "trace-difference gap moved"),
]


@pytest.mark.parametrize("name, changes, message", _FAILURE_PATHS)
def test_failure_path_fails_its_criterion(tmp_path, name, changes, message):
    from mlda.harness.experiments import _RUNNERS

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
