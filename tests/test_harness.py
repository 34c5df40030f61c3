"""Harness tests: aggregation rules, config resolution, determinism of the
experiment tables across thread counts, and CLI exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mlda import ConfigError
from mlda.harness.aggregate import aggregate, slope_fit
from mlda.harness.config import DEFAULT_SEED, DEFAULTS, build_config
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


def test_slope_fit_validation():
    with pytest.raises(InvalidInput):
        slope_fit([10, 100], [1.0, 0.5])  # need >= 3 points
    with pytest.raises(InvalidInput):
        slope_fit([10, 100, 1000], [1.0, 0.0, 0.1])  # non-positive error
    with pytest.raises(InvalidInput):
        slope_fit([10, 100], [1.0, 0.5, 0.1])


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
    cfg = build_config("rank", None, None, None, None, None)
    assert cfg.experiment == "rank"
    assert cfg.seed == DEFAULT_SEED
    assert cfg.threads == 1
    assert cfg.options == DEFAULTS["rank"]


def test_file_and_cli_precedence(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiment": "distance", "seed": 7, "pairs": 11}))
    cfg = build_config("distance", str(path), None, None, None, None)
    assert cfg.seed == 7
    assert cfg.options["pairs"] == 11
    # CLI seed beats the file's
    cfg2 = build_config("distance", str(path), 99, None, None, 3)
    assert cfg2.seed == 99 and cfg2.threads == 3
    # nested options form works too
    path.write_text(json.dumps({"experiment": "distance", "options": {"pairs": 13}}))
    assert build_config("distance", str(path), None, None, None, None).options["pairs"] == 13


def test_trials_flag_mapping(tmp_path):
    cfg = build_config("divergence", None, None, None, 17, None)
    assert cfg.options["trials"] == 17
    cfg = build_config("concentration", None, None, None, 150, None)
    assert cfg.options["draws"] == 150
    with pytest.raises(ConfigError):
        build_config("rank", None, None, None, 5, None)  # rank has no trial count


def test_config_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"experiment": "rank", "bogus_key": 1}))
    with pytest.raises(ConfigError):
        build_config("rank", str(path), None, None, None, None)
    path.write_text(json.dumps({"experiment": "distance"}))
    with pytest.raises(ConfigError):
        build_config("rank", str(path), None, None, None, None)  # wrong experiment
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        build_config("rank", str(path), None, None, None, None)
    with pytest.raises(ConfigError):
        build_config("rank", None, -3, None, None, None)  # bad seed
    with pytest.raises(ConfigError):
        build_config("rank", None, None, None, None, 0)  # bad threads
    with pytest.raises(ConfigError):
        build_config("nonesuch", None, None, None, None, None)


def test_all_config_restricted(tmp_path):
    path = tmp_path / "all.json"
    path.write_text(json.dumps({"experiment": "all", "seed": 5}))
    cfg = build_config("all", str(path), None, None, None, None)
    assert cfg.seed == 5
    path.write_text(json.dumps({"experiment": "all", "pairs": 10}))
    with pytest.raises(ConfigError):
        build_config("all", str(path), None, None, None, None)


def test_digest_covers_results_only(tmp_path):
    a = build_config("rank", None, 5, str(tmp_path / "x"), None, 1)
    b = build_config("rank", None, 5, str(tmp_path / "y"), None, 4)
    assert a.digest() == b.digest()  # out_dir/threads do not affect results
    c = build_config("rank", None, 6, str(tmp_path / "x"), None, 1)
    assert a.digest() != c.digest()


def test_dimension_validation(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"experiment": "divergence", "n": 0}))
    with pytest.raises(ConfigError):
        build_config("divergence", str(path), None, None, None, None)
    path.write_text(json.dumps({"experiment": "divergence", "n": 3, "L": 8}))
    with pytest.raises(ConfigError):  # n >= L required
        build_config("divergence", str(path), None, None, None, None)


# ---------------------------------------------------------------------------
# experiment determinism and report files
# ---------------------------------------------------------------------------


def test_reports_byte_identical_across_threads(tmp_path):
    # divergence maps its trials through the thread pool (rank never does)
    paths = []
    for threads, sub in ((1, "one"), (2, "two")):
        cfg = build_config("divergence", None, 77, str(tmp_path / sub), 3, threads)
        report = run(cfg)
        csv_path, json_path = write_report(report, cfg.out_dir)
        paths.append((csv_path, json_path))
    with open(paths[0][0], "rb") as f:
        first = f.read()
    with open(paths[1][0], "rb") as f:
        second = f.read()
    assert first == second and len(first) > 0


def test_rerun_is_deterministic(tmp_path):
    cfg = build_config("rank", None, 31, str(tmp_path), None, 1)
    r1 = run(cfg)
    r2 = run(cfg)
    assert r1.rows == r2.rows
    assert r1.passes == r2.passes


def test_report_files_and_formatting(tmp_path):
    cfg = build_config("rank", None, DEFAULT_SEED, str(tmp_path), None, 1)
    report = run(cfg)
    csv_path, json_path = write_report(report, str(tmp_path))
    assert os.path.basename(csv_path) == "rank.csv"
    assert os.path.basename(json_path) == "rank.summary.json"
    header, *rows = open(csv_path).read().strip().split("\n")
    assert header.split(",") == report.columns
    assert len(rows) == len(report.rows)
    payload = json.loads(open(json_path).read())
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


def _cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "mlda.harness.cli", *args],
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


def test_cli_threads_env_fallback(tmp_path):
    a = _cli(["rank", "--out", str(tmp_path / "a")], env_extra={"MLDA_THREADS": "2"})
    b = _cli(["rank", "--out", str(tmp_path / "b")])
    assert a.returncode == 0 and b.returncode == 0
    assert (tmp_path / "a" / "rank.csv").read_bytes() == (
        tmp_path / "b" / "rank.csv"
    ).read_bytes()
    bad = _cli(["rank", "--out", str(tmp_path / "c")], env_extra={"MLDA_THREADS": "x"})
    assert bad.returncode == 2


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
