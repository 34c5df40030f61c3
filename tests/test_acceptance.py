"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Criteria 1 and 5-11 drive the shipped experiment harness at its
default configuration; criteria 2-4 exercise the library directly; criterion
12 checks the deliberate scope boundary.
"""

import time

import numpy as np
import pytest

from mlda import (
    LabelScheme,
    Seed,
    build_dataset,
    build_labels,
    build_scatter,
    eval_objectives,
    gamma_norm,
    gaps,
    gen_labels,
    isotropic_params,
    opt_stml,
    population_scatters,
    residual_bound,
    scheme_distribution,
    theta_form,
)
from mlda.harness.config import DEFAULT_SEED, DEFAULTS, build_config
from mlda.harness.experiments import run
from tests.conftest import inverse_sqrt


def _criterion(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    line = f"{tag} criterion {num:2d} ({name}){suffix}"
    print(line)
    assert ok, line


def _run_experiment(name):
    cfg = build_config(name, None, DEFAULT_SEED)
    t0 = time.monotonic()
    report = run(cfg)
    return report, time.monotonic() - t0


@pytest.fixture(scope="module")
def rank_run():
    return _run_experiment("rank")


@pytest.fixture(scope="module")
def divergence_run():
    return _run_experiment("divergence")


@pytest.fixture(scope="module")
def distance_run():
    return _run_experiment("distance")


@pytest.fixture(scope="module")
def convergence_run():
    return _run_experiment("convergence")


@pytest.fixture(scope="module")
def factors_run():
    return _run_experiment("factors")


@pytest.fixture(scope="module")
def concentration_run():
    return _run_experiment("concentration")


@pytest.fixture(scope="module")
def interaction_run():
    return _run_experiment("interaction")


@pytest.fixture(scope="module")
def regularization_run():
    return _run_experiment("regularization")


# ---------------------------------------------------------------------------
# 1. rank table
# ---------------------------------------------------------------------------


def test_criterion_01_rank_table(rank_run):
    report, elapsed = rank_run
    ok = report.passes["criterion_rank_table"]
    exact = all(
        row["rank_Sb_ML"] == row["expected_rank"] and bool(row["pass"])
        for row in report.rows
    )
    # the runner derives its expected ranks from the rows' schemes; the
    # ranks the paper's table states stay pinned here as the oracle
    exact = exact and [row["rank_Sb_ML"] for row in report.rows] == [6, 5, 5, 14, 13, 10]
    timely = elapsed < 5.0
    _criterion(
        1,
        "rank table exact",
        ok and exact and timely,
        f"6 settings integer-exact, {elapsed:.2f}s (< 5s)",
    )


# ---------------------------------------------------------------------------
# 2. algebraic identities on 200 random datasets
# ---------------------------------------------------------------------------


def _random_multilabel_dataset(rng):
    L = int(rng.integers(3, 16))
    d = int(rng.integers(2, 51))
    n = int(rng.integers(max(2 * L, 20), 301))
    mix = ((1, 0.6), (2, 0.3), (3, 0.1)) if L >= 3 else ((1, 0.7), (2, 0.3))
    scheme = LabelScheme.variable(mix)
    for _ in range(20):
        labels = gen_labels(scheme, n, L, rng)
        if labels.k.max() > 1:
            break
    X = rng.standard_normal((n, d)) * rng.uniform(0.2, 4.0)
    return build_dataset(X, labels)


def test_criterion_02_algebraic_identities():
    rng = np.random.default_rng(20260816)
    worst_partition = worst_factor = worst_psd = 0.0
    for _ in range(200):
        ds = _random_multilabel_dataset(rng)
        ss = build_scatter(ds)
        partition = np.linalg.norm(ss.St_ml - ss.Sb - ss.Sw) / np.linalg.norm(ss.St_ml)
        factor = np.linalg.norm(ss.Sb - ss.M @ ss.M.T) / np.linalg.norm(ss.Sb)
        evals = np.linalg.eigvalsh(ss.R)
        r_norm = np.abs(evals).max()
        psd_defect = max(0.0, -evals.min()) / max(r_norm, 1e-300)
        worst_partition = max(worst_partition, partition)
        worst_factor = max(worst_factor, factor)
        worst_psd = max(worst_psd, psd_defect)
    ok = worst_partition <= 1e-10 and worst_factor <= 1e-10 and worst_psd <= 1e-8
    _criterion(
        2,
        "partition / factorization / excess PSD",
        ok,
        f"200 datasets, worst partition {worst_partition:.2e}, "
        f"factorization {worst_factor:.2e}, PSD defect {worst_psd:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. objective equivalence and domination
# ---------------------------------------------------------------------------


def test_criterion_03_objective_equivalence():
    rng = np.random.default_rng(97)
    t0 = time.monotonic()
    keys = ("j_tr", "j_rt", "j_dr", "j_td")
    worst_rel = 0.0
    dominated = True
    for _ in range(100):
        L = int(rng.integers(2, 6))
        d = int(rng.integers(max(3, L), 9))
        n = int(rng.integers(40, 120))
        labels = gen_labels(LabelScheme.variable(((1, 0.6), (2, 0.4))), n, L, rng)
        X = rng.standard_normal((n, d)) @ np.diag(rng.uniform(0.5, 3.0, d))
        ss = build_scatter(build_dataset(X, labels))
        r = int(rng.integers(1, min(4, d)))
        opt = opt_stml(ss.Sb, ss.St_ml, r)
        at_w = eval_objectives(opt.columns, ss.Sb, ss.Sw)
        closed = theta_form(opt.theta)
        for key in keys:
            a, b = getattr(at_w, key), closed[key]
            worst_rel = max(worst_rel, abs(a - b) / max(abs(b), 1e-12))
        T = inverse_sqrt(ss.St_ml)
        G = rng.standard_normal((d, r, 10))
        for p in range(10):
            Q, R = np.linalg.qr(G[:, :, p])
            probe = T @ (Q * np.sign(np.diag(R)))
            cand = eval_objectives(probe, ss.Sb, ss.Sw)
            for key in keys:
                margin = 1e-9 * max(1.0, abs(getattr(at_w, key)))
                if getattr(cand, key) > getattr(at_w, key) + margin:
                    dominated = False
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 1e-8 and dominated and elapsed < 60.0
    _criterion(
        3,
        "objective equivalence + domination",
        ok,
        f"100 instances, worst closed-form mismatch {worst_rel:.2e}, "
        f"1000 probes dominated={dominated}, {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 4. residual spectral bound
# ---------------------------------------------------------------------------


def test_criterion_04_residual_bound():
    rng = np.random.default_rng(53)
    holds = 0
    eq_worst = 0.0
    for t in range(200):
        if t % 4 == 0:  # every fourth instance: uniform cardinality (equality)
            L = int(rng.integers(3, 8))
            k = int(rng.integers(2, 4))
            n = int(rng.integers(30, 120))
            labels = gen_labels(LabelScheme.uniform(k), n, L, rng)
        else:
            L = int(rng.integers(3, 8))
            n = int(rng.integers(30, 120))
            labels = gen_labels(
                LabelScheme.variable(((1, 0.5), (2, 0.3), (3, 0.2))), n, L, rng
            )
        d = int(rng.integers(2, 12))
        ds = build_dataset(rng.standard_normal((n, d)), labels)
        out = residual_bound(ds, build_scatter(ds))
        holds += bool(out["holds"])
        if t % 4 == 0:
            eq_worst = max(eq_worst, abs(out["lhs"] - out["rhs"]) / max(out["rhs"], 1e-300))
    ok = holds == 200 and eq_worst <= 1e-8
    _criterion(
        4,
        "residual bound + uniform equality",
        ok,
        f"200/200 hold, worst uniform-cardinality equality defect {eq_worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. Davis-Kahan divergence configurations
# ---------------------------------------------------------------------------


def test_criterion_05_davis_kahan(divergence_run):
    report, _ = divergence_run
    ok = report.passes["criterion_davis_kahan"]
    all_rates = [row["dk_pass_rate"] for row in report.rows]
    trials = DEFAULTS["divergence"]["trials"]
    ok = ok and trials == 50 and all(r == 1.0 for r in all_rates)
    _criterion(
        5,
        "Davis-Kahan bound across settings",
        ok,
        f"{len(report.rows)} settings x {trials} instances, pass rates {all_rates}",
    )


# ---------------------------------------------------------------------------
# 6. distance bound pass rates
# ---------------------------------------------------------------------------


def test_criterion_06_distance_rates(distance_run):
    report, elapsed = distance_run
    ok = report.passes["criterion_distance_rates"]
    rates_ok = all(
        row["Hamming_pass_pct"] >= 95.0 and row["Jaccard_pass_pct"] >= 95.0
        for row in report.rows
    )
    shape_ok = all(
        row["pairs"] == 200 and row["draws"] == 50 for row in report.rows
    )
    timely = elapsed < 120.0
    detail = ", ".join(
        f"{row['Setting']}: H {row['Hamming_pass_pct']:.1f}% / J {row['Jaccard_pass_pct']:.1f}%"
        for row in report.rows
    )
    _criterion(
        6,
        "distance bound rates >= 95%",
        ok and rates_ok and shape_ok and timely,
        f"{detail}, {elapsed:.1f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# 7. convergence sweep
# ---------------------------------------------------------------------------


def test_criterion_07_convergence(convergence_run):
    report, elapsed = convergence_run
    ok = report.passes["criterion_convergence"]
    ns = [row["n"] for row in report.rows]
    grid_ok = ns == [50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000]
    trials_ok = all(row["trials"] == 100 for row in report.rows)
    final = report.rows[-1]["median_sin"]
    slope = report.summary["slope"]
    inversions = report.summary["inversions"]
    checks = (
        grid_ok
        and trials_ok
        and final <= 0.05
        and inversions <= 1
        and -0.6 <= slope <= -0.15
        and elapsed < 900.0
    )
    _criterion(
        7,
        "subspace convergence sweep",
        ok and checks,
        f"median@20000 {final:.4f} (<= 0.05), inversions {inversions} (<= 1), "
        f"slope {slope:.3f} in [-0.6, -0.15], {elapsed:.1f}s (< 900s)",
    )


# ---------------------------------------------------------------------------
# 8. multilabel difficulty factors
# ---------------------------------------------------------------------------


def test_criterion_08a_cardinality_sweep(factors_run):
    report, _ = factors_run
    med = report.summary["kmax_medians"]
    spread = report.summary["bound_ratio_spread"]
    ok = (
        report.passes["criterion_factors"]
        # k_max is each setting's largest cardinality, derived by the runner
        and [row["k_max"] for row in report.rows] == [1, 2, 3]
        and all(a <= b * (1 + 1e-12) for a, b in zip(med, med[1:]))
        and spread <= 2.0
    )
    _criterion(
        8,
        "(a) error non-decreasing in k_max, bound ratio stable",
        ok,
        f"medians {[round(m, 4) for m in med]}, ratio spread {spread:.3f} (<= 2)",
    )


def test_criterion_08b_scale_invariance(factors_run):
    report, _ = factors_run
    sc = report.summary["scale_check"]
    factor = sc["factor"]
    ok = (
        sc["Delta_r_deviation"] <= 1e-10
        and abs(sc["gap_ratio"] - factor**2) <= 1e-8 * factor**2
        and factor == 3.0
    )
    _criterion(
        8,
        "(b) Delta_r invariant under x3 rescale, gap_r x9",
        ok,
        f"Delta_r moved {sc['Delta_r_deviation']:.2e} (<= 1e-10), "
        f"gap ratio {sc['gap_ratio']:.10f} (9 +- 1e-8)",
    )


def test_criterion_08c_cooccurrence_norm(factors_run):
    report, _ = factors_run
    co = report.summary["cooccurrence"]
    exact = abs(co["single_norm"] - co["single_max_share"]) <= 1e-14
    larger = co["multi_norm"] > co["multi_max_share"]
    _criterion(
        8,
        "(c) co-occurrence norm: single exact, multilabel larger",
        exact and larger,
        f"single {co['single_norm']:.6f} == share {co['single_max_share']:.6f}, "
        f"multi {co['multi_norm']:.4f} > {co['multi_max_share']:.4f}",
    )


# ---------------------------------------------------------------------------
# 9. concentration coverage
# ---------------------------------------------------------------------------


def test_criterion_09_concentration(concentration_run):
    report, elapsed = concentration_run
    ok = report.passes["criterion_concentration"]
    coverage_ok = all(row["coverage"] >= row["nominal"] for row in report.rows)
    s = report.summary
    var_ok = abs(s["variance_ratio"] - 1.0) <= 0.01
    means_ok = abs(s["t_linear_mean"]) <= 4.0 and abs(s["t_quad_mean"]) <= 4.0
    q_ok = s["quantile_ratio_99_95"] <= 2.5
    deltas = [row["delta"] for row in report.rows]
    timely = elapsed < 300.0
    _criterion(
        9,
        "tail coverage >= nominal + diagnostics",
        ok and coverage_ok and var_ok and means_ok and q_ok and timely
        and deltas == [0.01, 0.05, 0.1, 0.2],
        f"coverage {[round(r['coverage'], 4) for r in report.rows]}, "
        f"var ratio {s['variance_ratio']:.4f} (+-1%), "
        f"q99/q95 {s['quantile_ratio_99_95']:.2f} (<= 2.5), {elapsed:.1f}s (< 300s)",
    )


# ---------------------------------------------------------------------------
# 10. interaction robustness
# ---------------------------------------------------------------------------


def test_criterion_10_interaction(interaction_run):
    report, _ = interaction_run
    ok = report.passes["criterion_interaction"]
    alphas = [row["alpha"] for row in report.rows]
    corrected_ok = all(row["corrected_pass_pct"] >= 99.0 for row in report.rows)
    top = report.rows[-1]
    separation = top["naive_pass_pct"] < top["corrected_pass_pct"]
    _criterion(
        10,
        "corrected bound robust, naive degrades",
        ok and corrected_ok and separation and alphas == [0.0, 0.1, 0.5, 1.0, 2.0],
        f"corrected {[row['corrected_pass_pct'] for row in report.rows]}%, "
        f"naive@2 {top['naive_pass_pct']:.1f}% < corrected@2 {top['corrected_pass_pct']:.1f}%",
    )


# ---------------------------------------------------------------------------
# 11. regularization sweep
# ---------------------------------------------------------------------------


def test_criterion_11_regularization(regularization_run):
    report, _ = regularization_run
    ok = report.passes["criterion_regularization"]
    rank_ok = all(row["rank_Sb_ML"] == 10 for row in report.rows)
    zero_inf = np.isinf(report.rows[0]["kappa_median"])
    ratios = report.summary["kappa_ratios"]
    ratio_ok = all(8.0 <= q <= 12.0 for q in ratios)
    gap_ok = report.summary["max_gap_deviation"] <= 1e-10
    _criterion(
        11,
        "ridge sweep: rank, infinite kappa, ratios, gap",
        ok and rank_ok and zero_inf and ratio_ok and gap_ok,
        f"rank constant 10, kappa ratios {[round(q, 2) for q in ratios]} in [8, 12], "
        f"max gap deviation {report.summary['max_gap_deviation']:.2e}",
    )


# ---------------------------------------------------------------------------
# 12. scope boundary: no minimax machinery, difficulty quantities computable
# ---------------------------------------------------------------------------


def test_criterion_12_scope_boundary():
    import mlda
    import mlda.bounds
    import mlda.discriminant
    import mlda.harness.experiments
    import mlda.population
    import mlda.scatter
    import mlda.spectral
    import mlda.synth

    banned = ("minimax", "fano", "packing")
    offenders = []
    for module in (
        mlda,
        mlda.bounds,
        mlda.discriminant,
        mlda.population,
        mlda.scatter,
        mlda.spectral,
        mlda.synth,
        mlda.harness.experiments,
    ):
        for attr in dir(module):
            if any(word in attr.lower() for word in banned):
                offenders.append(f"{module.__name__}.{attr}")

    # the three difficulty quantities stay computable
    rng = Seed(DEFAULT_SEED).stream("scope", 0, "labels")
    labels = gen_labels(LabelScheme.variable(((1, 0.7), (2, 0.3))), 40, 4, rng)
    norm = gamma_norm(labels)
    dist = scheme_distribution(LabelScheme.variable(((1, 0.7), (2, 0.3))), 4)
    pi_min = float(dist.pi.min())
    A = rng.standard_normal((6, 4))
    pop = population_scatters(isotropic_params(np.zeros(6), A, 0.5), dist)
    delta_r = gaps(pop, 1).Delta_r
    computable = np.isfinite(norm) and pi_min > 0 and np.isfinite(delta_r)
    _criterion(
        12,
        "no lower-bound machinery; difficulty quantities available",
        not offenders and computable,
        f"offenders {offenders or 'none'}; co-occurrence norm {norm:.3f}, "
        f"min label probability {pi_min:.3f}, Delta_r {delta_r:.4f}",
    )
