"""The eight synthetic experiments behind the ``mlda`` command.

Each experiment generates data from the linear label-effect model, measures
one family of claims (rank structure, objective divergence, distance bounds,
subspace convergence, difficulty factors, tail concentration, interaction
robustness, ridge regularization), and returns a table of rows plus the
failures of that experiment's acceptance criterion, which passes when there
are none. Everything is
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

from ..bounds import bound_frame, concentration_interval, jaccard_lower
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
    """Recursively convert numpy scalars/arrays so json can serialize; a
    non-finite float becomes the string the CSV writes for it, since strict
    JSON has no infinities or NaNs."""
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
        return float(obj) if math.isfinite(obj) else _fmt_cell(obj)
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
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
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
    return scale * rng.standard_normal((d, L))


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


def _signal_rows(labels, A):
    """Noise-free rows x = A y for a fixed label matrix."""
    return labels.bits.astype(float) @ A.T


def _signal_dataset(labels, A):
    """Noise-free dataset x = A y for a fixed label matrix."""
    return build_dataset(_signal_rows(labels, A), labels, max_rows=None, max_cols=None)


def _noisy_td_error(signal, labels, sigma_w, rng, r, target):
    """sin of the largest principal angle between ``target`` and the
    trace-difference frame of the rows ``signal`` plus isotropic noise from
    ``rng``."""
    X = rng.standard_normal(signal.shape)
    X *= sigma_w
    X += signal
    ss = build_scatter(build_dataset(X, labels, max_rows=None))
    return principal_angle_sin(opt_td(ss, r).frame, target)


def _mc_distance(rng, shift, W, sigma_w, draws, tol_se):
    """Monte Carlo mean of the projected squared distance ||W^T (shift + e_i
    - e_j)||^2 over ``draws`` isotropic noise pairs from ``rng``, and the
    tolerance of ``tol_se`` standard errors around it."""
    Ei = sigma_w * rng.standard_normal((draws, W.shape[0]))
    Ej = sigma_w * rng.standard_normal((draws, W.shape[0]))
    proj = (shift + (Ei - Ej)) @ W
    dist2 = np.einsum("ij,ij->i", proj, proj)
    return float(dist2.mean()), tol_se * float(dist2.std(ddof=1) / np.sqrt(draws))


def _degrees(sin_value):
    return float(np.degrees(np.arcsin(min(1.0, max(0.0, sin_value)))))


# ---------------------------------------------------------------------------
# experiment 1: rank structure of the between-class scatter
# ---------------------------------------------------------------------------


def _run_rank(options, seed):
    rows, failures = [], []
    for idx, row_cfg in enumerate(options["rows"]):
        scheme = scheme_from_dict(row_cfg["scheme"])
        n, d, L = row_cfg["n"], row_cfg["d"], row_cfg["L"]
        _, ds = _instance(seed, "rank", idx, scheme, n, d, L, options["effect_scale"], options["sigma_w"])
        report = rank_analysis(ds, build_scatter(ds))
        expect_rank = row_cfg.get("expect_rank")
        expect_excess = row_cfg.get("expect_excess")
        ok = True
        if expect_rank is not None:
            ok = ok and report.rank_sb == expect_rank
        if expect_excess is not None:
            ok = ok and report.excess == expect_excess
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
    return columns, rows, failures, {}


# ---------------------------------------------------------------------------
# experiment 2: objective divergence under the Stiefel constraint
# ---------------------------------------------------------------------------


def _run_divergence(options, seed):
    n, d, L, r, trials = (options[k] for k in ("n", "d", "L", "r", "trials"))
    sigma_w, scale = options["sigma_w"], options["effect_scale"]

    rows, failures = [], []
    qualitative = {}
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
    return columns, rows, failures, {"qualitative": observed, "per_setting": qualitative}


# ---------------------------------------------------------------------------
# experiment 3: two-sided distance bounds against Monte Carlo means
# ---------------------------------------------------------------------------


def _run_distance(options, seed):
    n, d, L, pairs, draws = (options[k] for k in ("n", "d", "L", "pairs", "draws"))
    sigma_w, scale = options["sigma_w"], options["effect_scale"]
    tol_se, min_rate = options["tolerance_se"], options["min_pass_rate"]
    r = min(6, L)

    rows, failures = [], []
    for si, entry in enumerate(options["settings"]):
        scheme = scheme_from_dict(entry["scheme"])
        params, ds = _instance(seed, "distance", si, scheme, n, d, L, scale, sigma_w, noise="fit-noise")
        labels, A, Sigma_w = ds.labels, params.A, params.Sigma_w
        W = top_eigenspace(build_scatter(ds).Sb, r).frame.columns
        frame = bound_frame(W, A, Sigma_w)
        rng_pairs = seed.stream("distance", si, "pairs")
        pair_idx = [rng_pairs.choice(n, size=2, replace=False) for _ in range(pairs)]

        def one(p):
            i, j = pair_idx[p]
            y_i, y_j = labels.bits[i], labels.bits[j]
            budget = frame.distance_budget(y_i, y_j)
            jac = jaccard_lower(budget, y_i, y_j)
            rng = seed.stream("distance", p, f"draws:{si}")
            mean, tol = _mc_distance(rng, A @ (y_i - y_j).astype(float), W, sigma_w, draws, tol_se)
            hamming_ok = budget.lower - tol <= mean <= budget.upper + tol
            jaccard_ok = mean >= budget.C_w + jac["weakened"] - tol
            return hamming_ok, jaccard_ok

        out = [one(p) for p in range(pairs)]
        ham_rate = sum(1 for o in out if o[0]) / pairs
        jac_rate = sum(1 for o in out if o[1]) / pairs
        if not (ham_rate >= min_rate and jac_rate >= min_rate):
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
    return columns, rows, failures, {"r": r}


# ---------------------------------------------------------------------------
# experiment 4: subspace convergence against sample size
# ---------------------------------------------------------------------------


def _run_convergence(options, seed):
    """Median subspace error of the noisy trace-difference frame against n.

    Only the signal scatters are kept across sample sizes. Each n's labels
    and noise-free rows are drawn again from their stream when its trials
    start and dropped when they end, so a run holds the largest n's signal
    plus one trial's data and scatters.
    """
    d, L, sigma_w, trials, ns = (options[k] for k in ("d", "L", "sigma_w", "trials", "ns"))
    threshold = options["gap_threshold"]
    scheme = scheme_from_dict(options["scheme"])

    A = _structured_effects(d, L, options["singular_values"], seed.stream("convergence", 0, "effects"))

    def labels_at(n):
        return gen_labels(scheme, n, L, seed.stream("convergence", n, "labels"))

    signal_ss = {n: build_scatter(_signal_dataset(labels_at(n), A)) for n in ns}

    # adaptive target rank from the per-sample spectral gaps at the largest n
    n_ref = ns[-1]
    ss_ref = signal_ss[n_ref]
    ref = sym_eig(2.0 * ss_ref.Sb - ss_ref.St_ml)
    per_sample_gaps = (ref.values[:-1] - ref.values[1:]) / n_ref
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
        return columns, [], failures, {"largest_per_sample_gap": largest}
    r = int(above.max()) + 1

    # at n_ref, opt_td would solve ref's matrix again: its top r is the target
    targets = {n: ref.top(r) if n == n_ref else opt_td(ss, r).frame for n, ss in signal_ss.items()}

    def errors_at(n):
        labels = labels_at(n)
        signal = _signal_rows(labels, A)
        noise = (seed.stream("convergence", t, f"noise:{n}") for t in range(trials))
        return aggregate([_noisy_td_error(signal, labels, sigma_w, rng, r, targets[n]) for rng in noise])

    rows = []
    medians = []
    for n in ns:
        agg = errors_at(n)
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
    lo, hi = options["slope_range"]
    failures = []
    if not medians[-1] <= options["max_median"]:
        failures.append(f"median at n={ns[-1]} is {medians[-1]:.4g} > {options['max_median']}")
    if not inversions <= options["max_inversions"]:
        failures.append(f"{inversions} median inversions (allowed {options['max_inversions']})")
    if not lo <= slope <= hi:
        failures.append(f"log-log slope {slope:.3f} outside [{lo}, {hi}]")

    summary = {
        "r": r,
        "per_sample_gap_at_r": float(per_sample_gaps[r - 1]),
        "slope": slope,
        "inversions": inversions,
    }
    return columns, rows, failures, summary


# ---------------------------------------------------------------------------
# experiment 5: difficulty factors (k_max, scale, co-occurrence, condition)
# ---------------------------------------------------------------------------


def _rescale_ok(delta_dev, gap_ratio, c):
    """The joint-rescale test: Delta_r stays put and gap_r picks up c^2.

    The gap ratio is tested relative to c^2, which it carries along with
    its rounding; at the default c = 3 the tolerance 9e-9 is inside the
    1e-8 that an absolute test would allow.
    """
    return delta_dev <= 1e-10 and abs(gap_ratio - c * c) <= 1e-9 * c * c


def _run_factors(options, seed):
    d, L, n, r, trials = (options[k] for k in ("d", "L", "n", "r", "trials"))
    sigma_w = options["sigma_w"]

    A = _structured_effects(d, L, options["singular_values"], seed.stream("factors", 0, "effects"))
    norm_A = max(options["singular_values"])
    rate = math.sqrt(d * math.log(d) / n)

    # (a) sweep the maximum label cardinality
    rows = []
    med_errs, med_ratios = [], []
    for si, entry in enumerate(options["kmax_settings"]):
        scheme = scheme_from_dict(entry["scheme"])
        k_max = entry["k_max"]
        denom = (sigma_w * norm_A + sigma_w ** 2 * k_max) * rate

        def one(t):
            labels = gen_labels(scheme, n, L, seed.stream("factors", t, f"labels:{si}"))
            ds_sig = _signal_dataset(labels, A)
            target = opt_td(build_scatter(ds_sig), r)
            rng = seed.stream("factors", t, f"noise:{si}")
            err = _noisy_td_error(ds_sig.X, labels, sigma_w, rng, r, target.frame)
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
    ratio_spread = max(med_ratios) / min(med_ratios)

    # (b) joint model rescaling: effects and noise scaled together multiply
    # both population scatter matrices by the square of the factor, so the
    # generalized gap is untouched while the absolute gap picks the factor up
    c = options["scale_factor"]
    scheme_multi = scheme_from_dict(options["kmax_settings"][1]["scheme"])
    dist = scheme_distribution(scheme_multi, L)
    pop_1 = population_scatters(isotropic_params(np.zeros(d), A, sigma_w), dist)
    pop_c = population_scatters(isotropic_params(np.zeros(d), c * A, c * sigma_w), dist)
    g_1, g_c = gaps(pop_1, r), gaps(pop_c, r)
    delta_dev = abs(g_c.Delta_r - g_1.Delta_r)
    gap_ratio = g_c.gap_r / g_1.gap_r

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

    # condition-number probe (informational): scaling the leading rows of A
    # moves kappa(St_inf); record whether the median error moves with it
    kappa_values, kappa_medians = [], []
    for ci, cval in enumerate(options["kappa_scales"]):
        A_c = A.copy()
        A_c[:r, :] *= cval
        params_c = isotropic_params(np.zeros(d), A_c, sigma_w)
        pop = population_scatters(params_c, dist)
        whitened = opt_stml(pop.Sb_inf, pop.St_inf, r)
        kappa_values.append(float(whitened.st_values[0]) / float(whitened.st_values[-1]))
        W_pop = orthonormalize(whitened.columns)

        def one(t):
            labels = gen_labels(scheme_multi, n, L, seed.stream("factors", t, f"kappa-labels:{ci}"))
            ds = gen_data(labels, params_c, seed.stream("factors", t, f"kappa-noise:{ci}"))
            ss = build_scatter(ds)
            est = orthonormalize(opt_stml(ss.Sb, ss.St_ml, r).columns)
            return principal_angle_sin(est, W_pop)

        out = [one(t) for t in range(options["kappa_trials"])]
        kappa_medians.append(aggregate(out)["median"])
    kappa_co_moves = all(
        (k2 >= k1) == (m2 >= m1)
        for (k1, k2), (m1, m2) in zip(
            zip(kappa_values, kappa_values[1:]), zip(kappa_medians, kappa_medians[1:])
        )
    )

    failures = []
    if not all(b >= a for a, b in zip(med_errs, med_errs[1:])):
        failures.append(f"median errors not monotone in k_max: {med_errs}")
    if not ratio_spread <= options["ratio_factor"]:
        failures.append(f"bound-ratio spread {ratio_spread:.3g} exceeds {options['ratio_factor']}")
    if not _rescale_ok(delta_dev, gap_ratio, c):
        failures.append(
            f"rescale test: Delta_r moved by {delta_dev:.3g}, gap ratio {gap_ratio!r}"
        )
    if not (
        abs(gn_single - share_single) <= 8 * np.finfo(float).eps * share_single
        and gn_multi > share_multi
        and gn_multi > gn_single
    ):
        failures.append(
            f"co-occurrence norms: single {gn_single!r} vs share {share_single!r}, "
            f"multi {gn_multi!r} vs share {share_multi!r}"
        )

    columns = ["k_max", "median_sin", "median_gap_r", "median_bound_ratio", "trials"]
    summary = {
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
    return columns, rows, failures, summary


# ---------------------------------------------------------------------------
# experiment 6: tail concentration of projected distances
# ---------------------------------------------------------------------------


# rows of the second noise draw generated at a time; each block is scaled and
# subtracted into the first draw, so one (draws, d) buffer holds the deviations
_DRAW_BLOCK = 1000


def _pooled_mean_std(x):
    """``(x.mean(), x.std(ddof=1))``, bit for bit, with ``x`` as the workspace.

    numpy's ``std`` centres into a temporary the size of ``x``; this centres
    and squares ``x`` in place instead, with the same operations in the same
    order, and leaves ``x`` overwritten.
    """
    mean = x.mean()
    x -= mean
    np.square(x, out=x)
    return float(mean), math.sqrt(float(x.sum()) / (x.size - 1))


def _run_concentration(options, seed):
    """Coverage of the concentration interval, with pooled diagnostics.

    Every pair's ``draws`` deviations are written into three pooled arrays of
    ``pairs * draws`` doubles: the linear part over its predicted standard
    deviation (pairs whose linear part is not identically zero), the
    quadratic part, and |Z|. Those, one (draws, d) noise buffer and a block
    of the second draw, both reused by every pair, are what a run holds.
    """
    d, L, r, pairs, draws = (options[k] for k in ("d", "L", "r", "pairs", "draws"))
    sigma_w, scale = options["sigma_w"], options["effect_scale"]
    deltas, c_scale = options["deltas"], options["c_scale"]
    scheme = scheme_from_dict(options["scheme"])

    A = _gaussian_effects(d, L, scale, seed.stream("concentration", 0, "effects"))
    params = isotropic_params(np.zeros(d), A, sigma_w)
    dist = scheme_distribution(scheme, L)
    pop = population_scatters(params, dist)
    whitened = opt_stml(pop.Sb_pop, pop.St_ml_pop, r)
    W = whitened.columns
    frame = bound_frame(W, A, params.Sigma_w)
    lam_min_st = float(whitened.st_values[-1])
    # Psi = W^T Sigma_w W is the same for every pair
    psi_norm = float(np.linalg.norm(frame.Psi, 2))

    total = pairs * draws
    lin_unit = np.empty(total)
    quad = np.empty(total)
    abs_Z = np.empty(total)
    E = np.empty((draws, d))
    E_block = np.empty((min(_DRAW_BLOCK, draws), d))
    covered = [0] * len(deltas)
    used = 0
    for p in range(pairs):
        rng = seed.stream("concentration", p, "pair")
        y_i = _draw_pattern(scheme, L, rng)
        y_j = _draw_pattern(scheme, L, rng)
        params_tail = frame.tail_params(y_i, y_j, pop=pop)
        s = W.T @ (A @ (y_i - y_j).astype(float))
        rng_draws = seed.stream("concentration", p, "draws")
        # sigma_w * e and e * sigma_w round alike, so scaling in place is
        # exact; block draws from one generator continue one another, so the
        # blocks of the second draw equal a single (draws, d) draw
        rng_draws.standard_normal(out=E)
        E *= sigma_w
        for a in range(0, draws, _DRAW_BLOCK):
            block = E_block[: min(_DRAW_BLOCK, draws - a)]
            rng_draws.standard_normal(out=block)
            block *= sigma_w
            E[a : a + block.shape[0]] -= block
        P = E @ W
        lin = 2.0 * (P @ s)
        own = slice(p * draws, (p + 1) * draws)
        quad_p = quad[own]
        np.einsum("ij,ij->i", P, P, out=quad_p)
        quad_p -= frame.C_w
        abs_Z_p = abs_Z[own]
        np.add(lin, quad_p, out=abs_Z_p)
        np.abs(abs_Z_p, out=abs_Z_p)
        for k, t in enumerate(deltas):
            covered[k] += int(np.count_nonzero(abs_Z_p <= concentration_interval(params_tail, t, c_scale)))
        lin_var = 8.0 * float(s @ params_tail.Psi @ s)
        if lin_var > 0.0:
            np.divide(lin, math.sqrt(lin_var), out=lin_unit[used : used + draws])
            used += draws
    lin_unit = lin_unit[:used]

    coverage = [c / total for c in covered]
    rows = [
        {"delta": deltas[k], "nominal": 1.0 - deltas[k], "coverage": coverage[k]}
        for k in range(len(deltas))
    ]

    # pooled component diagnostics on the same draws, each pool overwritten
    # once it has been read
    if used:
        lin_t = abs(float(lin_unit.mean())) * math.sqrt(used)
        np.square(lin_unit, out=lin_unit)
        var_ratio = float(lin_unit.mean())
    else:
        # every pair drew two equal patterns: no linear part to test
        lin_t = var_ratio = None
    quad_mean, quad_std = _pooled_mean_std(quad)
    quad_t = abs(quad_mean) / (quad_std / math.sqrt(total))
    q95, q99 = (float(q) for q in np.quantile(abs_Z, (0.95, 0.99), overwrite_input=True))
    q_ratio = q99 / q95

    failures = []
    for k, cov in enumerate(coverage):
        if cov < 1.0 - deltas[k]:
            failures.append(f"delta={deltas[k]}: coverage {cov:.4f} < nominal {1 - deltas[k]:.4f}")
    if var_ratio is None:
        failures.append("every pair drew two equal patterns, so no linear part was sampled")
    else:
        if not abs(var_ratio - 1.0) <= options["variance_rel_tol"]:
            failures.append(f"linear-part variance ratio {var_ratio:.4f} off unity by more than "
                            f"{options['variance_rel_tol']}")
        mean_tol = options["mean_se_tol"]
        if not (lin_t <= mean_tol and quad_t <= mean_tol):
            failures.append(f"component means not centered: t_lin={lin_t:.2f}, t_quad={quad_t:.2f}")
    if not q_ratio <= options["quantile_ratio_max"]:
        failures.append(f"99th/95th deviation ratio {q_ratio:.3f} exceeds {options['quantile_ratio_max']}")
    if not psi_norm <= (1.0 + 1e-10) / lam_min_st:
        failures.append("||Psi||_2 exceeded 1/lambda_min of the population total scatter")

    columns = ["delta", "nominal", "coverage"]
    summary = {
        "variance_ratio": var_ratio,
        "t_linear_mean": lin_t,
        "t_quad_mean": quad_t,
        "quantile_ratio_99_95": q_ratio,
        "pooled_draws": int(total),
        "theta": _plain(whitened.theta),
    }
    return columns, rows, failures, summary


# ---------------------------------------------------------------------------
# experiment 7: robustness of distance bounds under label interactions
# ---------------------------------------------------------------------------


def _run_interaction(options, seed):
    n, d, L, pairs, draws = (options[k] for k in ("n", "d", "L", "pairs", "draws"))
    sigma_w, iscale = options["sigma_w"], options["interaction_scale"]
    alphas, tol_se = options["alphas"], options["tolerance_se"]
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
    # the strongest interaction alpha * B must make a valid model as well
    isotropic_params(np.zeros(d), A, sigma_w, B_inter=max(alphas) * B)
    ds0 = gen_data(labels, params, seed.stream("interaction", 0, "fit-noise"))
    W = top_eigenspace(build_scatter(ds0).Sb, r).frame.columns
    frame = bound_frame(W, A, params.Sigma_w)

    rng_pairs = seed.stream("interaction", 0, "pairs")
    pair_idx = [rng_pairs.choice(n, size=2, replace=False) for _ in range(pairs)]
    # what a pair contributes at every alpha: its patterns, its budget, and
    # the label and interaction effects A delta and B (z_i - z_j)
    per_pair = []
    for i, j in pair_idx:
        y_i, y_j = labels.bits[i], labels.bits[j]
        z_diff = (pair_products(y_i) - pair_products(y_j)).astype(float)
        per_pair.append(
            (y_i, y_j, frame.distance_budget(y_i, y_j), A @ (y_i - y_j).astype(float), B @ z_diff)
        )

    rows = []
    rates = {}
    for ai, alpha in enumerate(alphas):
        frame_alpha = frame.with_interactions(alpha * B)

        def one(p):
            y_i, y_j, budget, effect, inter = per_pair[p]
            rng = seed.stream("interaction", p, f"draws:{ai}")
            mean, tol = _mc_distance(rng, effect + alpha * inter, W, sigma_w, draws, tol_se)
            widen = frame_alpha.interaction_bound(y_i, y_j)["corrected_bound"]
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

    min_corrected = options["min_corrected"]
    a_top = max(alphas)
    failures = []
    bad = [a for a in alphas if rates[a][1] < min_corrected]
    if bad:
        failures.append(f"corrected rate below {min_corrected} at alpha in {bad}")
    if not rates[a_top][0] < rates[a_top][1]:
        failures.append(
            f"naive rate {rates[a_top][0]:.3f} not below corrected {rates[a_top][1]:.3f} "
            f"at alpha={a_top}"
        )

    columns = ["alpha", "naive_pass_pct", "corrected_pass_pct", "pairs", "draws"]
    return columns, rows, failures, {"r": r}


# ---------------------------------------------------------------------------
# experiment 8: ridge regularization in the d >> n regime
# ---------------------------------------------------------------------------


def _run_regularization(options, seed):
    n, d, L, trials, gammas = (options[k] for k in ("n", "d", "L", "trials", "gammas"))
    sigma_w, scale = options["sigma_w"], options["effect_scale"]
    scheme = scheme_from_dict(options["scheme"])
    gap_tol = options["gap_match_tol"]
    r = L

    reports = []
    for t in range(trials):
        _, ds = _instance(seed, "regularization", t, scheme, n, d, L, scale, sigma_w)
        reports.append(regularization_report(build_scatter(ds), gammas, r))

    ranks = {row.rank_sb for rep in reports for row in rep}
    gap_devs = [
        max(abs(row.gap_td - rep[0].gap_td) for row in rep) for rep in reports
    ]

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
    lo, hi = options["kappa_ratio_range"]
    ratios = [a / b for a, b in zip(finite, finite[1:])]

    failures = []
    if ranks != {L}:
        failures.append(f"rank varied across trials/ridges: {sorted(ranks)}")
    if gammas[0] == 0.0 and not all(rep[0].kappa_infinite for rep in reports):
        failures.append("gamma=0 did not flag an infinite condition number")
    if not all(lo <= q <= hi for q in ratios):
        failures.append(f"consecutive kappa ratios {ratios} outside [{lo}, {hi}]")
    if not max(gap_devs) <= gap_tol:
        failures.append(f"trace-difference gap moved by {max(gap_devs):.3g} across ridges")

    columns = ["gamma", "rank_Sb_ML", "kappa_median", "max_gap_dev", "trials"]
    summary = {
        "kappa_medians": medians,
        "kappa_ratios": ratios,
        "max_gap_deviation": max(gap_devs),
    }
    return columns, rows, failures, summary


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# Each runner returns (columns, rows, failures, summary); its criterion, named
# here, passes exactly when the failure list is empty.
_RUNNERS = {
    "rank": (_run_rank, "criterion_rank_table"),
    "divergence": (_run_divergence, "criterion_davis_kahan"),
    "distance": (_run_distance, "criterion_distance_rates"),
    "convergence": (_run_convergence, "criterion_convergence"),
    "factors": (_run_factors, "criterion_factors"),
    "concentration": (_run_concentration, "criterion_concentration"),
    "interaction": (_run_interaction, "criterion_interaction"),
    "regularization": (_run_regularization, "criterion_regularization"),
}


def run(config):
    """Run one experiment and return its report."""
    if config.experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    runner, criterion = _RUNNERS[config.experiment]
    start = time.perf_counter()
    columns, rows, failures, summary = runner(config.options, Seed(config.seed))
    wall = time.perf_counter() - start
    return ExperimentReport(
        experiment=config.experiment,
        columns=columns,
        rows=rows,
        passes={criterion: not failures},
        summary={**summary, "failures": failures},
        seed=config.seed,
        config_digest=config.digest(),
        wall_time_s=wall,
    )


def all_configs(config):
    """The configs ``mlda all`` runs, in ``EXPERIMENTS`` order: every
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
