"""The eight synthetic experiments behind the ``mlda`` command.

Each experiment generates data from the linear label-effect model, measures
one family of claims (rank structure, objective divergence, distance bounds,
subspace convergence, difficulty factors, tail concentration, interaction
robustness, ridge regularization), and returns a table of rows plus a single
pass flag tied to that experiment's acceptance criterion. Everything is
deterministic given (config, seed): every random draw comes from a stream
keyed by (experiment, trial, purpose), never from a shared generator, so the
order in which trials or experiments run cannot change any number. Trials
run one after another in index order.
"""

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..bounds import (
    concentration_interval,
    distance_budget,
    interaction_bound,
    jaccard_lower,
    tail_params,
)
from ..discriminant import (
    commutativity_defect,
    davis_kahan_check,
    opt_stml,
    opt_td,
    regularization_report,
    top_eigenspace,
    trace_ratio_stiefel,
)
from ..errors import ConfigError
from ..population import gamma_norm, gaps, isotropic_params, population_scatters
from ..scatter import build_dataset, build_scatter, rank_analysis
from ..spectral import orthonormalize, principal_angle_sin, sym_eig
from ..synth import LabelScheme, Seed, gen_data, gen_labels, pair_products, scheme_distribution
from ..synth import _draw_cardinalities
from .aggregate import aggregate, slope_fit
from .config import DEFAULTS, EXPERIMENTS, ExperimentConfig, scheme_from_dict

# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    """One experiment's table, pass flags, and run metadata."""

    experiment: str
    columns: list
    rows: list
    passes: dict
    summary: dict
    seed: int
    config_digest: str
    wall_time_s: float

    @property
    def all_passed(self):
        return all(self.passes.values())


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json can serialize."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def _fmt_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".6g")
    if value is None:
        return ""
    return str(value)


@contextmanager
def _atomic_open(path):
    """Open a temporary file beside ``path`` and rename it over ``path`` on success.

    A failure while writing removes the temporary file and leaves any earlier
    ``path`` untouched, so a report is never half-written.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(report, path):
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(_fmt_cell(row.get(col)) for col in report.columns))
    with _atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(report, path):
    import json

    payload = {
        "experiment": report.experiment,
        "seed": report.seed,
        "config_hash": report.config_digest,
        "passes": _plain(report.passes),
        "all_passed": bool(report.all_passed),
        "wall_time_s": round(report.wall_time_s, 3),
        "details": _plain(report.summary),
    }
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report(report, out_dir):
    """Write <experiment>.csv and <experiment>.summary.json; return paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{report.experiment}.csv")
    json_path = os.path.join(out_dir, f"{report.experiment}.summary.json")
    write_csv(report, csv_path)
    write_summary(report, json_path)
    return csv_path, json_path


# ---------------------------------------------------------------------------
# shared generative helpers
# ---------------------------------------------------------------------------


def _orthonormal_columns(rng, rows, cols):
    """Deterministic orthonormal (rows, cols) factor from a seeded draw."""
    M = rng.standard_normal((rows, max(rows, cols)))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.where(np.diag(R) == 0, 1.0, np.diag(R)))
    return Q[:, :cols]


def _structured_effects(d, L, singular_values, rng):
    """Label-effect matrix with prescribed singular values."""
    sv = np.asarray(singular_values, dtype=float)
    U = _orthonormal_columns(rng, d, L)
    V = _orthonormal_columns(rng, L, L)
    return (U * sv) @ V.T


def _gaussian_effects(d, L, scale, rng):
    return float(scale) * rng.standard_normal((d, L))


def _instance(seed, experiment, trial, scheme, n, d, L, scale, sigma_w, suffix="", noise="noise"):
    """One draw of the model with Gaussian effects and isotropic noise.

    Labels, effects and noise come from the streams ``(experiment, trial,
    purpose + suffix)`` with purposes "labels", "effects" and ``noise``.
    Returns the model parameters and the noisy dataset (which holds the labels).
    """
    labels = gen_labels(scheme, n, L, seed.stream(experiment, trial, "labels" + suffix))
    A = _gaussian_effects(d, L, scale, seed.stream(experiment, trial, "effects" + suffix))
    params = isotropic_params(np.zeros(d), A, sigma_w)
    return params, gen_data(labels, params, seed.stream(experiment, trial, noise + suffix))


def _draw_pattern(scheme, L, rng):
    """One label pattern from a scheme: cardinality drawn as ``gen_labels``
    draws it, labels a uniform random subset of that size."""
    card = int(_draw_cardinalities(scheme, 1, L, rng)[0])
    bits = np.zeros(L, dtype=np.int64)
    bits[rng.choice(L, size=card, replace=False)] = 1
    return bits


def _signal_dataset(labels, A):
    """Noise-free dataset x = A y for a fixed label matrix."""
    X = labels.bits.astype(float) @ A.T
    return build_dataset(X, labels, max_rows=None, max_cols=None)


def _noisy_td_error(signal, sigma_w, rng, r, target):
    """sin of the largest principal angle between ``target`` and the
    trace-difference frame of ``signal`` plus isotropic noise from ``rng``."""
    X = signal.X + sigma_w * rng.standard_normal(signal.X.shape)
    ss = build_scatter(build_dataset(X, signal.labels, max_rows=None))
    return principal_angle_sin(opt_td(ss, r).frame, target)


def _degrees(sin_value):
    return float(np.degrees(np.arcsin(min(1.0, max(0.0, sin_value)))))


# ---------------------------------------------------------------------------
# experiment 1: rank structure of the between-class scatter
# ---------------------------------------------------------------------------


def _run_rank(options, seed):
    rows, failures = [], []
    for idx, row_cfg in enumerate(options["rows"]):
        scheme = scheme_from_dict(row_cfg["scheme"])
        n, d, L = int(row_cfg["n"]), int(row_cfg["d"]), int(row_cfg["L"])
        _, ds = _instance(
            seed, "rank", idx, scheme, n, d, L, options["effect_scale"], float(options["sigma_w"])
        )
        report = rank_analysis(ds, build_scatter(ds))
        expect_rank = row_cfg.get("expect_rank")
        expect_excess = row_cfg.get("expect_excess")
        ok = True
        if expect_rank is not None:
            ok = ok and report.rank_sb == int(expect_rank)
        if expect_excess is not None:
            ok = ok and report.excess == bool(expect_excess)
        if not ok:
            failures.append(
                f"row {idx} ({row_cfg['setting']}): rank {report.rank_sb}, "
                f"excess {report.excess}; expected ({expect_rank}, {expect_excess})"
            )
        rows.append(
            {
                "Setting": row_cfg["setting"],
                "n": n,
                "d": d,
                "L": L,
                "rank_Sb_ML": report.rank_sb,
                "Excess": report.excess,
                "bound": report.bound,
                "expected_rank": expect_rank,
                "pass": ok,
            }
        )
    columns = ["Setting", "n", "d", "L", "rank_Sb_ML", "Excess", "bound", "expected_rank", "pass"]
    passes = {"criterion_rank_table": not failures}
    return columns, rows, passes, {"failures": failures}


# ---------------------------------------------------------------------------
# experiment 2: objective divergence under the Stiefel constraint
# ---------------------------------------------------------------------------


def _run_divergence(options, seed):
    n, d, L, r = (int(options[k]) for k in ("n", "d", "L", "r"))
    trials = int(options["trials"])
    sigma_w = float(options["sigma_w"])
    scale = float(options["effect_scale"])

    rows, failures = [], []
    qualitative = {}
    dk_all = True
    for si, entry in enumerate(options["settings"]):
        scheme = scheme_from_dict(entry["scheme"])

        def one(t):
            _, ds = _instance(seed, "divergence", t, scheme, n, d, L, scale, sigma_w, suffix=f":{si}")
            ss = build_scatter(ds)
            defect = commutativity_defect(ss.Sb, ss.St)
            td = opt_td(ss, r)
            C0 = 2.0 * ss.Sb - ss.St
            ref = top_eigenspace(C0, r)
            angle_ref = principal_angle_sin(td.frame, ref.frame)
            # The computed frames are exact eigenframes of matrices within
            # eigensolver backward error of the intended ones, so the honest
            # perturbation between them carries an eps * ||C|| floor on top
            # of ||R||; without it, single-label instances (where R is pure
            # rounding dust) would compare one flavor of noise with another.
            pert = float(np.linalg.norm(ss.R, 2))
            pert += 32.0 * np.finfo(float).eps * float(np.linalg.norm(C0, 2))
            dk = davis_kahan_check(td.frame, ref.frame, pert, ref.gap)
            tr = trace_ratio_stiefel(ss.Sb, ss.Sw, r)
            angle_tr = principal_angle_sin(td.frame, tr.frame)
            margin = dk.angle / dk.bound if 0.0 < dk.bound < 1.0 else 0.0
            return defect, angle_ref, angle_tr, dk.holds, margin

        defects, ref_sin, tr_sin, holds, margins = zip(*[one(t) for t in range(trials)])
        med_defect = aggregate(defects)["median"]
        med_ref = aggregate([_degrees(s) for s in ref_sin])["median"]
        med_tr = aggregate([_degrees(s) for s in tr_sin])["median"]
        passed = sum(1 for h in holds if h)
        dk_all = dk_all and passed == trials
        if passed < trials:
            failures.append(
                f"{entry['setting']}: sin-theta bound violated on {trials - passed}/{trials} instances"
            )
        rows.append(
            {
                "Setting": entry["setting"],
                "Comm_defect": med_defect,
                "angle_TD_TD0_deg": med_ref,
                "angle_TD_TR_deg": med_tr,
                "dk_pass_rate": passed / trials,
            }
        )
        qualitative[entry["setting"]] = {
            "median_defect": med_defect,
            "median_angle_TD_TD0_deg": med_ref,
            "median_angle_TD_TR_deg": med_tr,
            "max_dk_margin": max(margins),
            "single_label": scheme.kind == "single",
        }

    # qualitative observations (informational; the pass flag is the bound check)
    singles = [q for q in qualitative.values() if q["single_label"]]
    multis = [q for q in qualitative.values() if not q["single_label"]]
    observed = {
        "single_reference_angle_near_zero": all(
            q["median_angle_TD_TD0_deg"] <= 1e-4 for q in singles
        ),
        "single_td_tr_angle_above_5deg": all(
            q["median_angle_TD_TR_deg"] > 5.0 for q in singles
        ),
        "multilabel_divergence_visible": all(
            q["median_angle_TD_TD0_deg"] > 10.0 for q in multis
        ),
        "single_defect_smallest": all(
            s["median_defect"] < m["median_defect"] for s in singles for m in multis
        ),
    }
    columns = ["Setting", "Comm_defect", "angle_TD_TD0_deg", "angle_TD_TR_deg", "dk_pass_rate"]
    passes = {"criterion_davis_kahan": dk_all}
    summary = {"failures": failures, "qualitative": observed, "per_setting": qualitative}
    return columns, rows, passes, summary


# ---------------------------------------------------------------------------
# experiment 3: two-sided distance bounds against Monte Carlo means
# ---------------------------------------------------------------------------


def _run_distance(options, seed):
    n, d, L = (int(options[k]) for k in ("n", "d", "L"))
    pairs, draws = int(options["pairs"]), int(options["draws"])
    sigma_w = float(options["sigma_w"])
    scale = float(options["effect_scale"])
    tol_se = float(options["tolerance_se"])
    min_rate = float(options["min_pass_rate"])
    r = min(6, L)

    rows, failures = [], []
    ok_all = True
    for si, entry in enumerate(options["settings"]):
        scheme = scheme_from_dict(entry["scheme"])
        params, ds = _instance(seed, "distance", si, scheme, n, d, L, scale, sigma_w, noise="fit-noise")
        labels, A, Sigma_w = ds.labels, params.A, params.Sigma_w
        W = top_eigenspace(build_scatter(ds).Sb, r).frame.columns
        rng_pairs = seed.stream("distance", si, "pairs")
        pair_idx = [rng_pairs.choice(n, size=2, replace=False) for _ in range(pairs)]

        def one(p):
            i, j = pair_idx[p]
            y_i, y_j = labels.bits[i], labels.bits[j]
            budget = distance_budget(W, A, y_i, y_j, Sigma_w)
            jac = jaccard_lower(budget, y_i, y_j)
            rng = seed.stream("distance", p, f"draws:{si}")
            Ei = sigma_w * rng.standard_normal((draws, d))
            Ej = sigma_w * rng.standard_normal((draws, d))
            diff = (A @ (y_i - y_j).astype(float)) + (Ei - Ej)
            proj = diff @ W
            dist2 = np.einsum("ij,ij->i", proj, proj)
            mean = float(dist2.mean())
            tol = tol_se * float(dist2.std(ddof=1) / np.sqrt(draws))
            hamming_ok = budget.lower - tol <= mean <= budget.upper + tol
            jaccard_ok = mean >= budget.C_w + jac["weakened"] - tol
            return hamming_ok, jaccard_ok

        out = [one(p) for p in range(pairs)]
        ham_rate = sum(1 for o in out if o[0]) / pairs
        jac_rate = sum(1 for o in out if o[1]) / pairs
        ok = ham_rate >= min_rate and jac_rate >= min_rate
        ok_all = ok_all and ok
        if not ok:
            failures.append(
                f"{entry['setting']}: Hamming {100 * ham_rate:.1f}%, Jaccard {100 * jac_rate:.1f}%"
            )
        rows.append(
            {
                "Setting": entry["setting"],
                "Hamming_pass_pct": 100.0 * ham_rate,
                "Jaccard_pass_pct": 100.0 * jac_rate,
                "pairs": pairs,
                "draws": draws,
            }
        )
    columns = ["Setting", "Hamming_pass_pct", "Jaccard_pass_pct", "pairs", "draws"]
    passes = {"criterion_distance_rates": ok_all}
    return columns, rows, passes, {"failures": failures, "r": r}


# ---------------------------------------------------------------------------
# experiment 4: subspace convergence against sample size
# ---------------------------------------------------------------------------


def _run_convergence(options, seed):
    d, L = int(options["d"]), int(options["L"])
    sigma_w = float(options["sigma_w"])
    trials = int(options["trials"])
    ns = [int(x) for x in options["ns"]]
    threshold = float(options["gap_threshold"])
    scheme = scheme_from_dict(options["scheme"])

    A = _structured_effects(d, L, options["singular_values"], seed.stream("convergence", 0, "effects"))

    signal_by_n = {
        n: _signal_dataset(gen_labels(scheme, n, L, seed.stream("convergence", n, "labels")), A)
        for n in ns
    }
    signal_ss = {n: build_scatter(ds) for n, ds in signal_by_n.items()}

    # adaptive target rank from the per-sample spectral gaps at the largest n
    n_ref = ns[-1]
    ss_ref = signal_ss[n_ref]
    ref_vals = sym_eig(2.0 * ss_ref.Sb - ss_ref.St_ml).values
    per_sample_gaps = (ref_vals[:-1] - ref_vals[1:]) / n_ref
    above = np.nonzero(per_sample_gaps > threshold)[0]
    columns = ["n", "median_sin", "p95_sin", "drift", "trials"]
    if above.size == 0:
        # the drawn instance has no separated target subspace: a property of
        # the data, so the criterion fails rather than the configuration
        largest = float(per_sample_gaps.max())
        failures = [
            f"no spectral gap exceeds threshold {threshold} "
            f"(largest per-sample gap {largest:.3g})"
        ]
        summary = {"failures": failures, "largest_per_sample_gap": largest}
        return columns, [], {"criterion_convergence": False}, summary
    r = int(above.max()) + 1

    targets = {n: opt_td(ss, r).frame for n, ss in signal_ss.items()}

    rows = []
    medians = []
    for n in ns:
        noise = (seed.stream("convergence", t, f"noise:{n}") for t in range(trials))
        agg = aggregate([_noisy_td_error(signal_by_n[n], sigma_w, rng, r, targets[n]) for rng in noise])
        medians.append(agg["median"])
        rows.append(
            {
                "n": n,
                "median_sin": agg["median"],
                "p95_sin": agg["p95"],
                "drift": principal_angle_sin(targets[n], targets[n_ref]),
                "trials": trials,
            }
        )

    slope = slope_fit(ns, medians)
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
    lo, hi = (float(x) for x in options["slope_range"])
    final_ok = medians[-1] <= float(options["max_median"])
    monotone_ok = inversions <= int(options["max_inversions"])
    slope_ok = lo <= slope <= hi
    failures = []
    if not final_ok:
        failures.append(f"median at n={ns[-1]} is {medians[-1]:.4g} > {options['max_median']}")
    if not monotone_ok:
        failures.append(f"{inversions} median inversions (allowed {options['max_inversions']})")
    if not slope_ok:
        failures.append(f"log-log slope {slope:.3f} outside [{lo}, {hi}]")

    passes = {"criterion_convergence": final_ok and monotone_ok and slope_ok}
    summary = {
        "failures": failures,
        "r": r,
        "per_sample_gap_at_r": float(per_sample_gaps[r - 1]),
        "slope": slope,
        "inversions": inversions,
    }
    return columns, rows, passes, summary


# ---------------------------------------------------------------------------
# experiment 5: difficulty factors (k_max, scale, co-occurrence, condition)
# ---------------------------------------------------------------------------


def _run_factors(options, seed):
    d, L, n = int(options["d"]), int(options["L"]), int(options["n"])
    sigma_w = float(options["sigma_w"])
    trials = int(options["trials"])
    r = int(options["r"])

    A = _structured_effects(d, L, options["singular_values"], seed.stream("factors", 0, "effects"))
    norm_A = float(max(options["singular_values"]))
    rate = math.sqrt(d * math.log(d) / n)

    # (a) sweep the maximum label cardinality
    rows = []
    med_errs, med_ratios = [], []
    for si, entry in enumerate(options["kmax_settings"]):
        scheme = scheme_from_dict(entry["scheme"])
        k_max = int(entry["k_max"])
        denom = (sigma_w * norm_A + sigma_w ** 2 * k_max) * rate

        def one(t):
            labels = gen_labels(scheme, n, L, seed.stream("factors", t, f"labels:{si}"))
            ds_sig = _signal_dataset(labels, A)
            target = opt_td(build_scatter(ds_sig), r)
            rng = seed.stream("factors", t, f"noise:{si}")
            err = _noisy_td_error(ds_sig, sigma_w, rng, r, target.frame)
            return err, target.gap, err * target.gap / denom

        errs, gap_vals, ratios = zip(*[one(t) for t in range(trials)])
        med_err = aggregate(errs)["median"]
        med_gap = aggregate(gap_vals)["median"]
        med_ratio = aggregate(ratios)["median"]
        med_errs.append(med_err)
        med_ratios.append(med_ratio)
        rows.append(
            {
                "k_max": k_max,
                "median_sin": med_err,
                "median_gap_r": med_gap,
                "median_bound_ratio": med_ratio,
                "trials": trials,
            }
        )
    sweep_ok = all(b >= a for a, b in zip(med_errs, med_errs[1:]))
    ratio_spread = max(med_ratios) / min(med_ratios)
    ratio_ok = ratio_spread <= float(options["ratio_factor"])

    # (b) joint model rescaling: effects and noise scaled together multiply
    # both population scatter matrices by the square of the factor, so the
    # generalized gap is untouched while the absolute gap picks the factor up
    c = float(options["scale_factor"])
    scheme_multi = scheme_from_dict(options["kmax_settings"][1]["scheme"])
    dist = scheme_distribution(scheme_multi, L)
    pop_1 = population_scatters(isotropic_params(np.zeros(d), A, sigma_w), dist)
    pop_c = population_scatters(isotropic_params(np.zeros(d), c * A, c * sigma_w), dist)
    g_1, g_c = gaps(pop_1, r), gaps(pop_c, r)
    delta_dev = abs(g_c.Delta_r - g_1.Delta_r)
    gap_ratio = g_c.gap_r / g_1.gap_r
    scale_ok = delta_dev <= 1e-10 and abs(gap_ratio - c * c) <= 1e-8

    # (c) co-occurrence norm: diagonal-exact for single-label, strictly
    # larger once labels overlap
    labels_single = gen_labels(LabelScheme.single(), n, L, seed.stream("factors", 1, "gamma-single"))
    labels_multi = gen_labels(
        scheme_from_dict(options["gamma_scheme"]), n, L, seed.stream("factors", 2, "gamma-multi")
    )
    gn_single = gamma_norm(labels_single)
    gn_multi = gamma_norm(labels_multi)
    share_single = float(labels_single.n_ell.max()) / n
    share_multi = float(labels_multi.n_ell.max()) / n
    eps = np.finfo(float).eps
    gamma_ok = (
        abs(gn_single - share_single) <= 8 * eps * share_single
        and gn_multi > share_multi
        and gn_multi > gn_single
    )

    # condition-number probe (informational): scaling the leading rows of A
    # moves kappa(St_inf); record whether the median error moves with it
    kappa_values, kappa_medians = [], []
    for ci, cval in enumerate(float(x) for x in options["kappa_scales"]):
        A_c = A.copy()
        A_c[:r, :] *= cval
        params_c = isotropic_params(np.zeros(d), A_c, sigma_w)
        pop = population_scatters(params_c, dist)
        kappa_values.append(gaps(pop, r).kappa_St_inf)
        W_pop = orthonormalize(opt_stml(pop.Sb_inf, pop.St_inf, r).columns)

        def one(t):
            labels = gen_labels(scheme_multi, n, L, seed.stream("factors", t, f"kappa-labels:{ci}"))
            ds = gen_data(labels, params_c, seed.stream("factors", t, f"kappa-noise:{ci}"), max_rows=None)
            ss = build_scatter(ds)
            est = orthonormalize(opt_stml(ss.Sb, ss.St_ml, r).columns)
            return principal_angle_sin(est, W_pop)

        out = [one(t) for t in range(int(options["kappa_trials"]))]
        kappa_medians.append(aggregate(out)["median"])
    kappa_co_moves = all(
        (k2 >= k1) == (m2 >= m1)
        for (k1, k2), (m1, m2) in zip(
            zip(kappa_values, kappa_values[1:]), zip(kappa_medians, kappa_medians[1:])
        )
    )

    failures = []
    if not sweep_ok:
        failures.append(f"median errors not monotone in k_max: {med_errs}")
    if not ratio_ok:
        failures.append(f"bound-ratio spread {ratio_spread:.3g} exceeds {options['ratio_factor']}")
    if not scale_ok:
        failures.append(
            f"rescale test: Delta_r moved by {delta_dev:.3g}, gap ratio {gap_ratio!r}"
        )
    if not gamma_ok:
        failures.append(
            f"co-occurrence norms: single {gn_single!r} vs share {share_single!r}, "
            f"multi {gn_multi!r} vs share {share_multi!r}"
        )

    columns = ["k_max", "median_sin", "median_gap_r", "median_bound_ratio", "trials"]
    passes = {"criterion_factors": sweep_ok and ratio_ok and scale_ok and gamma_ok}
    summary = {
        "failures": failures,
        "kmax_medians": med_errs,
        "bound_ratio_spread": ratio_spread,
        "scale_check": {"Delta_r_deviation": delta_dev, "gap_ratio": gap_ratio, "factor": c},
        "cooccurrence": {
            "single_norm": gn_single,
            "single_max_share": share_single,
            "multi_norm": gn_multi,
            "multi_max_share": share_multi,
        },
        "kappa_probe": {
            "kappas": kappa_values,
            "median_errors": kappa_medians,
            "co_moves": kappa_co_moves,
        },
    }
    return columns, rows, passes, summary


# ---------------------------------------------------------------------------
# experiment 6: tail concentration of projected distances
# ---------------------------------------------------------------------------


def _run_concentration(options, seed):
    d, L, r = int(options["d"]), int(options["L"]), int(options["r"])
    pairs, draws = int(options["pairs"]), int(options["draws"])
    sigma_w = float(options["sigma_w"])
    scale = float(options["effect_scale"])
    deltas = [float(t) for t in options["deltas"]]
    c_scale = float(options["c_scale"])
    scheme = scheme_from_dict(options["scheme"])

    A = _gaussian_effects(d, L, scale, seed.stream("concentration", 0, "effects"))
    params = isotropic_params(np.zeros(d), A, sigma_w)
    dist = scheme_distribution(scheme, L)
    pop = population_scatters(params, dist)
    W = opt_stml(pop.Sb_pop, pop.St_ml_pop, r).columns
    Sigma_w = params.Sigma_w
    lam_min_st = float(np.linalg.eigvalsh(pop.St_ml_pop).min())

    def one(p):
        rng = seed.stream("concentration", p, "pair")
        y_i = _draw_pattern(scheme, L, rng)
        y_j = _draw_pattern(scheme, L, rng)
        params_tail = tail_params(W, A, y_i, y_j, Sigma_w, pop=pop)
        budget = distance_budget(W, A, y_i, y_j, Sigma_w)
        s = W.T @ (A @ (y_i - y_j).astype(float))
        rng_draws = seed.stream("concentration", p, "draws")
        Ei = sigma_w * rng_draws.standard_normal((draws, d))
        Ej = sigma_w * rng_draws.standard_normal((draws, d))
        P = (Ei - Ej) @ W
        lin = 2.0 * (P @ s)
        quad = np.einsum("ij,ij->i", P, P) - budget.C_w
        Z = lin + quad
        covered = [int(np.count_nonzero(np.abs(Z) <= concentration_interval(params_tail, t, c_scale))) for t in deltas]
        lin_var_target = 8.0 * float(s @ params_tail.Psi @ s)
        psi_norm = float(np.linalg.norm(params_tail.Psi, 2))
        return covered, lin, quad, Z, lin_var_target, psi_norm

    covered, lin, quad, Z, lin_var, psi_norms = zip(*[one(p) for p in range(pairs)])

    total = pairs * draws
    coverage = [sum(c[k] for c in covered) / total for k in range(len(deltas))]
    rows = [
        {"delta": deltas[k], "nominal": 1.0 - deltas[k], "coverage": coverage[k]}
        for k in range(len(deltas))
    ]
    coverage_ok = all(coverage[k] >= 1.0 - deltas[k] for k in range(len(deltas)))

    # pooled component diagnostics on the same draws
    lin_unit = np.concatenate([x / math.sqrt(v) for x, v in zip(lin, lin_var) if v > 0.0])
    quad_all = np.concatenate(quad)
    Z_all = np.concatenate(Z)
    var_ratio = float(np.mean(lin_unit ** 2))
    var_ok = abs(var_ratio - 1.0) <= float(options["variance_rel_tol"])
    lin_t = abs(float(lin_unit.mean())) * math.sqrt(lin_unit.size)
    quad_t = abs(float(quad_all.mean())) / (float(quad_all.std(ddof=1)) / math.sqrt(quad_all.size))
    mean_tol = float(options["mean_se_tol"])
    means_ok = lin_t <= mean_tol and quad_t <= mean_tol
    abs_Z = np.abs(Z_all)
    q95, q99 = (float(np.quantile(abs_Z, q)) for q in (0.95, 0.99))
    q_ratio = q99 / q95
    q_ok = q_ratio <= float(options["quantile_ratio_max"])
    psi_bound_ok = all(v <= (1.0 + 1e-10) / lam_min_st for v in psi_norms)

    failures = []
    for k, cov in enumerate(coverage):
        if cov < 1.0 - deltas[k]:
            failures.append(f"delta={deltas[k]}: coverage {cov:.4f} < nominal {1 - deltas[k]:.4f}")
    if not var_ok:
        failures.append(f"linear-part variance ratio {var_ratio:.4f} off unity by more than "
                        f"{options['variance_rel_tol']}")
    if not means_ok:
        failures.append(f"component means not centered: t_lin={lin_t:.2f}, t_quad={quad_t:.2f}")
    if not q_ok:
        failures.append(f"99th/95th deviation ratio {q_ratio:.3f} exceeds {options['quantile_ratio_max']}")
    if not psi_bound_ok:
        failures.append("||Psi||_2 exceeded 1/lambda_min of the population total scatter")

    columns = ["delta", "nominal", "coverage"]
    passes = {
        "criterion_concentration": coverage_ok and var_ok and means_ok and q_ok and psi_bound_ok
    }
    summary = {
        "failures": failures,
        "variance_ratio": var_ratio,
        "t_linear_mean": lin_t,
        "t_quad_mean": quad_t,
        "quantile_ratio_99_95": q_ratio,
        "pooled_draws": int(total),
        "theta": _plain(np.sort(np.linalg.eigvalsh(W.T @ pop.Sb_pop @ W))[::-1]),
    }
    return columns, rows, passes, summary


# ---------------------------------------------------------------------------
# experiment 7: robustness of distance bounds under label interactions
# ---------------------------------------------------------------------------


def _run_interaction(options, seed):
    n, d, L = (int(options[k]) for k in ("n", "d", "L"))
    pairs, draws = int(options["pairs"]), int(options["draws"])
    sigma_w = float(options["sigma_w"])
    iscale = float(options["interaction_scale"])
    alphas = [float(a) for a in options["alphas"]]
    tol_se = float(options["tolerance_se"])
    scheme = scheme_from_dict(options["scheme"])
    r = min(6, L)

    labels = gen_labels(scheme, n, L, seed.stream("interaction", 0, "labels"))
    # Orthogonal label effects whose column norms are the prescribed singular
    # values.  A pair differing in one extreme-norm label then has its expected
    # projected distance sitting essentially on an endpoint of the two-sided
    # band, so an interaction shift of either sign can escape the naive bound
    # while the corrected bound absorbs it.  A rotated spectrum would leave
    # slack between every realizable label change and the band endpoints,
    # hiding the interaction inside the naive bound at every strength.
    sv = np.asarray(options["singular_values"], dtype=float)
    U = _orthonormal_columns(seed.stream("interaction", 0, "effects"), d, L)
    A = U * sv
    n_prod = L * (L - 1) // 2
    B = iscale * seed.stream("interaction", 0, "inter").standard_normal((d, n_prod))
    params = isotropic_params(np.zeros(d), A, sigma_w, B_inter=B)
    ds0 = gen_data(labels, params, seed.stream("interaction", 0, "fit-noise"))
    W = top_eigenspace(build_scatter(ds0).Sb, r).frame.columns
    Sigma_w = params.Sigma_w

    rng_pairs = seed.stream("interaction", 0, "pairs")
    pair_idx = [rng_pairs.choice(n, size=2, replace=False) for _ in range(pairs)]

    rows, failures = [], []
    rates = {}
    for ai, alpha in enumerate(alphas):

        def one(p):
            i, j = pair_idx[p]
            y_i, y_j = labels.bits[i], labels.bits[j]
            z_diff = (pair_products(y_i) - pair_products(y_j)).astype(float)
            base = A @ (y_i - y_j).astype(float) + alpha * (B @ z_diff)
            rng = seed.stream("interaction", p, f"draws:{ai}")
            Ei = sigma_w * rng.standard_normal((draws, d))
            Ej = sigma_w * rng.standard_normal((draws, d))
            proj = (base + Ei - Ej) @ W
            dist2 = np.einsum("ij,ij->i", proj, proj)
            mean = float(dist2.mean())
            tol = tol_se * float(dist2.std(ddof=1) / np.sqrt(draws))
            budget = distance_budget(W, A, y_i, y_j, Sigma_w)
            widen = interaction_bound(W, A, alpha * B, y_i, y_j)["corrected_bound"]
            naive_ok = budget.lower - tol <= mean <= budget.upper + tol
            corrected_ok = budget.lower - widen - tol <= mean <= budget.upper + widen + tol
            return naive_ok, corrected_ok

        out = [one(p) for p in range(pairs)]
        naive_rate = sum(1 for o in out if o[0]) / pairs
        corrected_rate = sum(1 for o in out if o[1]) / pairs
        rates[alpha] = (naive_rate, corrected_rate)
        rows.append(
            {
                "alpha": alpha,
                "naive_pass_pct": 100.0 * naive_rate,
                "corrected_pass_pct": 100.0 * corrected_rate,
                "pairs": pairs,
                "draws": draws,
            }
        )

    min_corrected = float(options["min_corrected"])
    corrected_ok = all(rates[a][1] >= min_corrected for a in alphas)
    a_top = max(alphas)
    separation_ok = rates[a_top][0] < rates[a_top][1]
    if not corrected_ok:
        bad = [a for a in alphas if rates[a][1] < min_corrected]
        failures.append(f"corrected rate below {min_corrected} at alpha in {bad}")
    if not separation_ok:
        failures.append(
            f"naive rate {rates[a_top][0]:.3f} not below corrected {rates[a_top][1]:.3f} "
            f"at alpha={a_top}"
        )

    columns = ["alpha", "naive_pass_pct", "corrected_pass_pct", "pairs", "draws"]
    passes = {"criterion_interaction": corrected_ok and separation_ok}
    return columns, rows, passes, {"failures": failures, "r": r}


# ---------------------------------------------------------------------------
# experiment 8: ridge regularization in the d >> n regime
# ---------------------------------------------------------------------------


def _run_regularization(options, seed):
    n, d, L = (int(options[k]) for k in ("n", "d", "L"))
    trials = int(options["trials"])
    sigma_w = float(options["sigma_w"])
    scale = float(options["effect_scale"])
    gammas = [float(g) for g in options["gammas"]]
    scheme = scheme_from_dict(options["scheme"])
    gap_tol = float(options["gap_match_tol"])
    r = L

    reports = []
    for t in range(trials):
        _, ds = _instance(seed, "regularization", t, scheme, n, d, L, scale, sigma_w)
        reports.append(regularization_report(build_scatter(ds), gammas, r))

    ranks = {row.rank_sb for rep in reports for row in rep}
    rank_ok = ranks == {L}
    zero_rows = [rep[0] for rep in reports]
    zero_flagged = all(row.kappa_infinite for row in zero_rows) if gammas[0] == 0.0 else True
    gap_devs = [
        max(abs(row.gap_td - rep[0].gap_td) for row in rep) for rep in reports
    ]
    gap_ok = max(gap_devs) <= gap_tol

    rows = []
    medians = []
    for gi, gamma in enumerate(gammas):
        kappas = [rep[gi].kappa_sw_gamma for rep in reports]
        infinite = any(rep[gi].kappa_infinite for rep in reports)
        med = float("inf") if infinite else aggregate(kappas)["median"]
        medians.append(med)
        rows.append(
            {
                "gamma": gamma,
                "rank_Sb_ML": int(min(rep[gi].rank_sb for rep in reports)),
                "kappa_median": med,
                "max_gap_dev": max(abs(rep[gi].gap_td - rep[0].gap_td) for rep in reports),
                "trials": trials,
            }
        )

    finite = [m for m in medians if math.isfinite(m)]
    lo, hi = (float(x) for x in options["kappa_ratio_range"])
    ratios = [a / b for a, b in zip(finite, finite[1:])]
    ratio_ok = all(lo <= q <= hi for q in ratios)

    failures = []
    if not rank_ok:
        failures.append(f"rank varied across trials/ridges: {sorted(ranks)}")
    if not zero_flagged:
        failures.append("gamma=0 did not flag an infinite condition number")
    if not ratio_ok:
        failures.append(f"consecutive kappa ratios {ratios} outside [{lo}, {hi}]")
    if not gap_ok:
        failures.append(f"trace-difference gap moved by {max(gap_devs):.3g} across ridges")

    columns = ["gamma", "rank_Sb_ML", "kappa_median", "max_gap_dev", "trials"]
    passes = {"criterion_regularization": rank_ok and zero_flagged and ratio_ok and gap_ok}
    summary = {
        "failures": failures,
        "kappa_medians": medians,
        "kappa_ratios": ratios,
        "max_gap_deviation": max(gap_devs),
    }
    return columns, rows, passes, summary


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_RUNNERS = {
    "rank": _run_rank,
    "divergence": _run_divergence,
    "distance": _run_distance,
    "convergence": _run_convergence,
    "factors": _run_factors,
    "concentration": _run_concentration,
    "interaction": _run_interaction,
    "regularization": _run_regularization,
}


def run(config):
    """Run one experiment and return its report."""
    if config.experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    start = time.perf_counter()
    seed = Seed(config.seed)
    columns, rows, passes, summary = _RUNNERS[config.experiment](config.options, seed)
    wall = time.perf_counter() - start
    return ExperimentReport(
        experiment=config.experiment,
        columns=columns,
        rows=rows,
        passes=passes,
        summary=summary,
        seed=config.seed,
        config_digest=config.digest(),
        wall_time_s=wall,
    )


def all_configs(config):
    """The configs ``run_all`` runs, in ``EXPERIMENTS`` order: every
    experiment at its defaults, with the seed and output directory of
    ``config``. Each experiment draws only from its own streams, so the
    order changes no number."""
    import copy

    return [
        ExperimentConfig(
            experiment=name,
            seed=config.seed,
            out_dir=config.out_dir,
            options=copy.deepcopy(DEFAULTS[name]),
        )
        for name in EXPERIMENTS
    ]


def run_all(config):
    """Run every experiment at its defaults, one after another in
    ``EXPERIMENTS`` order (seed and output directory shared)."""
    return [run(sub) for sub in all_configs(config)]
