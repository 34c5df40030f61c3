"""The eight synthetic experiments behind the ``mlda`` command.

Each experiment generates data from the linear label-effect model and
measures one family of claims (rank structure, objective divergence, distance
bounds, subspace convergence, difficulty factors, tail concentration,
interaction robustness, ridge regularization). ``run`` hands its runner one
``_Run`` record, and the runner writes everything onto it: the table rows,
the failures of the experiment's acceptance criterion (which passes when
there are none) and the summary. Everything is deterministic given (config,
seed): every random draw comes from a stream keyed by (experiment, trial,
purpose), which ``_Run.stream`` opens in the runner's own experiment, never
from a shared generator, so the order in which trials or experiments run
cannot change any number. Trials run one after another in index order.
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
from ..errors import ConfigError, check
from ..population import gamma_norm, gaps, isotropic_params, population_scatters, scheme_distribution
from ..scatter import build_dataset, build_scatter, rank_analysis
from ..spectral import numeric_rank, orthonormalize, principal_angle_sin, sym_eigvals, symmetrize
from ..synth import (
    LabelScheme,
    Seed,
    gen_data,
    gen_labels,
    gen_pattern,
    noise_differences,
    pair_products_matrix,
    signal_rows,
)
from .aggregate import UpperTail, aggregate, slope_fit
from .config import EXPERIMENTS, PAIR_FRAME_RANK, build_config, scheme_from_dict

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


# The bounds each experiment's criterion is judged by. They are constants,
# not options: a config sets what is measured, and these fix the verdict.
_BOUNDS = {
    # a pair holds within tolerance_se Monte Carlo standard errors of its band
    "distance": {"tolerance_se": 3.0, "min_pass_rate": 0.95},
    # the target rank is cut at the last per-sample gap above gap_threshold
    "convergence": {"gap_threshold": 3.0, "max_median": 0.05, "max_inversions": 1, "slope_range": (-0.6, -0.15)},
    # scale_factor is the joint rescale c, whose gap ratio must read c^2
    "factors": {"ratio_factor": 2.0, "scale_factor": 3.0},
    # c_scale is the constant of the Bernstein interval
    "concentration": {"c_scale": 1.0, "variance_rel_tol": 0.01, "mean_se_tol": 4.0, "quantile_ratio_max": 2.5},
    "interaction": {"tolerance_se": 3.0, "min_corrected": 0.99},
    "regularization": {"kappa_ratio_range": (8.0, 12.0), "gap_match_tol": 1e-10},
}


class _Run:
    """What one experiment's runner reads and writes: its options, seed and
    criterion bounds, and the rows, failures and summary that ``run`` turns
    into its report."""

    def __init__(self, experiment, options, seed):
        self.experiment, self.options, self.seed = experiment, options, seed
        self.bounds = _BOUNDS.get(experiment, {})
        self.rows, self.failures, self.summary = [], [], {}

    def stream(self, trial, purpose):
        """The generator keyed by (this experiment, ``trial``, ``purpose``)."""
        return self.seed.stream(self.experiment, trial, purpose)

    def require(self, ok, message):
        """Record ``message`` as a failure of the criterion unless ``ok``."""
        if not ok:
            self.failures.append(message)


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


def _structured_effects(d, L, singular_values, rng):
    """Label-effect matrix with prescribed singular values."""
    sv = np.asarray(singular_values, dtype=float)
    U = orthonormalize(rng.standard_normal((d, d))).columns[:, :L]
    V = orthonormalize(rng.standard_normal((L, L))).columns
    return (U * sv) @ V.T


def _gaussian_effects(d, L, scale, rng):
    return scale * rng.standard_normal((d, L))


def _instance(ex, trial, scheme, n, d, L, scale, sigma_w, suffix="", noise="noise"):
    """One draw of the model with Gaussian effects and isotropic noise.

    Labels, effects and noise come from the run's streams ``(trial, purpose +
    suffix)`` with purposes "labels", "effects" and ``noise``.
    Returns the model parameters and the noisy dataset (which holds the labels).
    """
    labels = gen_labels(scheme, n, L, ex.stream(trial, "labels" + suffix))
    A = _gaussian_effects(d, L, scale, ex.stream(trial, "effects" + suffix))
    params = isotropic_params(np.zeros(d), A, sigma_w)
    return params, gen_data(labels, params, ex.stream(trial, noise + suffix))


def _pair_frame(ex, trial, ds, params):
    """The pair experiments' frame: the top-r eigenspace W of the fitted
    between-class scatter of ``ds``, r = min(PAIR_FRAME_RANK, L), its
    ``bound_frame`` under ``params``, and the label patterns of the option
    ``pairs`` pairs of distinct rows of ``ds``, drawn from the stream
    ``(trial, "pairs")``, as two (pairs, L) stacks Y_i and Y_j."""
    W = top_eigenspace(build_scatter(ds).Sb, min(PAIR_FRAME_RANK, params.L)).frame.columns
    rng = ex.stream(trial, "pairs")
    i, j = np.array([rng.choice(ds.n, size=2, replace=False) for _ in range(ex.options["pairs"])]).T
    return W, bound_frame(W, params.A, params.Sigma_w), ds.labels.bits[i], ds.labels.bits[j]


def _each_row(M, V):
    """M @ v for every row v of V, one product per row: a single matrix
    product over the stack would round differently."""
    return np.array([M @ v for v in V.astype(float)])


def _rate(flags):
    """The share of true flags."""
    return np.count_nonzero(flags) / len(flags)


def _signal_scatter(labels, params):
    """The scatter set of the noise-free rows of ``params`` for ``labels``."""
    return build_scatter(build_dataset(signal_rows(labels, params), labels))


def _noisy_td_error(labels, params, rng, r, target):
    """sin of the largest principal angle between ``target`` and the
    trace-difference frame of rows drawn by ``gen_data`` from ``rng``."""
    ss = build_scatter(gen_data(labels, params, rng))
    return principal_angle_sin(opt_td(ss, r).frame, target)


# pairs whose Monte Carlo noise is drawn into one reused buffer at a time, so
# the buffer holds 16 x draws x d floats whatever the number of pairs
_MC_BLOCK = 16


def _mc_distance(ex, purpose, shifts, W, params, draws, tol_se):
    """Monte Carlo means of the projected squared distances ||W^T (shift_p +
    e_i - e_j)||^2 for the rows shift_p of ``shifts``, and the tolerance of
    ``tol_se`` standard errors around each.

    Pair p draws its ``draws`` noise differences e_i - e_j of the model
    ``params`` through ``noise_differences``, from the run's stream ``(p,
    purpose)``; blocks of ``_MC_BLOCK`` pairs are drawn into one buffer and
    reduced together.
    """
    P, d = shifts.shape
    noise = np.empty((min(P, _MC_BLOCK), draws, d))
    means, tols = np.empty(P), np.empty(P)
    for start in range(0, P, _MC_BLOCK):
        block = slice(start, min(start + _MC_BLOCK, P))
        E = noise[: block.stop - start]
        for b, e in enumerate(E):
            noise_differences(params, ex.stream(start + b, purpose), e)
        proj = (shifts[block, None] + E) @ W
        dist2 = np.einsum("bij,bij->bi", proj, proj)
        means[block] = dist2.mean(axis=1)
        tols[block] = tol_se * (dist2.std(ddof=1, axis=1) / np.sqrt(draws))
    return means, tols


def _degrees(sin_value):
    return float(np.degrees(np.arcsin(min(1.0, max(0.0, sin_value)))))


# ---------------------------------------------------------------------------
# experiment 1: rank structure of the between-class scatter
# ---------------------------------------------------------------------------


def _centred_label_rank(scheme, L):
    """rank(Y) - [1 in col Y] for rows Y that realize every pattern of
    ``scheme`` over L labels, from the set S of cardinalities it draws: L - 1
    when S = {c} with c < L (the columns of Y sum to c times the ones
    vector), 0 when S = {L} (every row is all ones), and L when S holds two
    or more. A closed form, since the patterns number C(L, c) per
    cardinality."""
    cards = {c for c, _ in scheme.drawn}
    if len(cards) > 1:
        return L
    return 0 if cards == {L} else L - 1


def _run_rank(ex):
    options = ex.options
    for idx, row_cfg in enumerate(options["rows"]):
        scheme = scheme_from_dict(row_cfg["scheme"])
        n, d, L = row_cfg["n"], row_cfg["d"], row_cfg["L"]
        _, ds = _instance(ex, idx, scheme, n, d, L, options["effect_scale"], options["sigma_w"])
        report = rank_analysis(ds, build_scatter(ds))
        # the rank theorem: rank(Sb) = min(d, n - 1, rank(Y) - [1 in col Y]);
        # the excess rank(Sb) > L - 1 follows from the rank
        predicted = min(d, n - 1, _centred_label_rank(scheme, L))
        ok = report.rank_sb == predicted
        ex.require(
            ok,
            f"row {idx} ({row_cfg['setting']}): rank {report.rank_sb}, "
            f"excess {report.excess}; expected ({predicted}, {predicted > L - 1})",
        )
        ex.rows.append(
            {
                "Setting": row_cfg["setting"],
                "n": n,
                "d": d,
                "L": L,
                "rank_Sb_ML": report.rank_sb,
                "Excess": report.excess,
                "bound": report.bound,
                "expected_rank": predicted,
                "pass": ok,
            }
        )


# ---------------------------------------------------------------------------
# experiment 2: objective divergence under the Stiefel constraint
# ---------------------------------------------------------------------------


def _run_divergence(ex):
    n, d, L, r, trials = (ex.options[k] for k in ("n", "d", "L", "r", "trials"))
    sigma_w, scale = ex.options["sigma_w"], ex.options["effect_scale"]

    qualitative = {}
    for si, entry in enumerate(ex.options["settings"]):
        scheme = scheme_from_dict(entry["scheme"])

        def one(t):
            _, ds = _instance(ex, t, scheme, n, d, L, scale, sigma_w, suffix=f":{si}")
            ss = build_scatter(ds)
            defect = commutativity_defect(ss.Sb, ss.St)
            td = opt_td(ss, r)
            C0 = 2.0 * ss.Sb - ss.St
            ref = top_eigenspace(C0, r)
            # The computed frames are exact eigenframes of matrices within
            # eigensolver backward error of the intended ones, so the honest
            # perturbation between them carries an eps * ||C|| floor on top
            # of ||R||; without it, single-label instances (where R is pure
            # rounding dust) would compare one flavor of noise with another.
            # ||C0||_2 is read off the ends of the spectrum ``ref`` solved.
            norm_c0 = float(max(abs(ref.values[0]), abs(ref.values[-1])))
            pert = float(np.abs(sym_eigvals(ss.R)).max()) + 32.0 * np.finfo(float).eps * norm_c0
            dk = davis_kahan_check(td.frame, ref.frame, pert, ref.gap)
            margin = dk.angle / dk.bound if 0.0 < dk.bound < 1.0 else 0.0
            # a one-member label adds nothing to Sw; once the drawn labels
            # leave an r-frame in its null space, the trace ratio is unbounded
            # or has no unique maximizer, so that trial solves none
            if numeric_rank(ss.reduced.Sw) <= d - r:
                return defect, dk.angle, None, dk.holds, margin
            tr = trace_ratio_stiefel(ss.Sb, ss.Sw, r)
            return defect, dk.angle, principal_angle_sin(td.frame, tr.frame), dk.holds, margin

        defects, ref_sin, tr_sin, holds, margins = zip(*[one(t) for t in range(trials)])
        tr_deg = [_degrees(s) for s in tr_sin if s is not None]
        ex.require(len(tr_deg) == trials,
                   f"{entry['setting']}: the drawn Sw has rank <= d - r = {d - r} on "
                   f"{trials - len(tr_deg)}/{trials} trials, where no trace ratio is solved")
        med_defect = aggregate(defects)["median"]
        med_ref = aggregate([_degrees(s) for s in ref_sin])["median"]
        med_tr = aggregate(tr_deg)["median"] if tr_deg else math.nan
        dk_rate = _rate(holds)
        ex.require(
            dk_rate == 1.0,
            f"{entry['setting']}: sin-theta bound violated on {holds.count(False)}/{trials} instances",
        )
        ex.rows.append(
            {
                "Setting": entry["setting"],
                "Comm_defect": med_defect,
                "angle_TD_TD0_deg": med_ref,
                "angle_TD_TR_deg": med_tr,
                "dk_pass_rate": dk_rate,
            }
        )
        qualitative[entry["setting"]] = {
            "median_defect": med_defect,
            "median_angle_TD_TD0_deg": med_ref,
            "median_angle_TD_TR_deg": med_tr,
            "max_dk_margin": max(margins),
            "single_label": scheme.max_cardinality() == 1,
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
    ex.summary = {"qualitative": observed, "per_setting": qualitative}


# ---------------------------------------------------------------------------
# experiment 3: two-sided distance bounds against Monte Carlo means
# ---------------------------------------------------------------------------


def _run_distance(ex):
    n, d, L, pairs, draws = (ex.options[k] for k in ("n", "d", "L", "pairs", "draws"))
    sigma_w, scale = ex.options["sigma_w"], ex.options["effect_scale"]
    tol_se, min_rate = ex.bounds["tolerance_se"], ex.bounds["min_pass_rate"]

    for si, entry in enumerate(ex.options["settings"]):
        scheme = scheme_from_dict(entry["scheme"])
        params, ds = _instance(ex, si, scheme, n, d, L, scale, sigma_w, noise="fit-noise")
        W, frame, Y_i, Y_j = _pair_frame(ex, si, ds, params)
        budget = frame.distance_budget(Y_i, Y_j)
        mean, tol = _mc_distance(ex, f"draws:{si}", _each_row(params.A, Y_i - Y_j), W, params, draws, tol_se)
        hamming = (budget.lower - tol <= mean) & (mean <= budget.upper + tol)
        jaccard = mean >= budget.C_w + jaccard_lower(budget, Y_i, Y_j)["weakened"] - tol

        ham_rate, jac_rate = _rate(hamming), _rate(jaccard)
        ex.require(
            ham_rate >= min_rate and jac_rate >= min_rate,
            f"{entry['setting']}: Hamming {100 * ham_rate:.1f}%, Jaccard {100 * jac_rate:.1f}%",
        )
        ex.rows.append(
            {
                "Setting": entry["setting"],
                "Hamming_pass_pct": 100.0 * ham_rate,
                "Jaccard_pass_pct": 100.0 * jac_rate,
                "pairs": pairs,
                "draws": draws,
            }
        )
    ex.summary = {"r": W.shape[1]}


# ---------------------------------------------------------------------------
# experiment 4: subspace convergence against sample size
# ---------------------------------------------------------------------------


def _run_convergence(ex):
    """Median subspace error of the noisy trace-difference frame against n.

    Only the signal scatters are kept across sample sizes. Each n's labels
    are drawn again from their stream when its trials start, and every trial
    draws its rows through ``gen_data``, so a run holds one n's labels plus
    one trial's rows and scatters.
    """
    options, bounds = ex.options, ex.bounds
    d, L, sigma_w, trials, ns = (options[k] for k in ("d", "L", "sigma_w", "trials", "ns"))
    threshold = bounds["gap_threshold"]
    scheme = scheme_from_dict(options["scheme"])

    A = _structured_effects(d, L, options["singular_values"], ex.stream(0, "effects"))
    params = isotropic_params(np.zeros(d), A, sigma_w)

    def labels_at(n):
        return gen_labels(scheme, n, L, ex.stream(n, "labels"))

    signal_ss = {n: _signal_scatter(labels_at(n), params) for n in ns}

    # adaptive target rank from the per-sample spectral gaps at the largest n
    n_ref = ns[-1]
    ref_values = opt_td(signal_ss[n_ref], 1).values
    per_sample_gaps = (ref_values[:-1] - ref_values[1:]) / n_ref
    above = np.nonzero(per_sample_gaps > threshold)[0]
    if above.size == 0:
        # the drawn instance has no separated target subspace: a property of
        # the data, so the criterion fails rather than the configuration
        largest = float(per_sample_gaps.max())
        ex.require(False, f"no spectral gap exceeds threshold {threshold} "
                          f"(largest per-sample gap {largest:.3g})")
        ex.summary = {"largest_per_sample_gap": largest}
        return
    r = int(above.max()) + 1

    targets = {n: opt_td(ss, r).frame for n, ss in signal_ss.items()}

    def errors_at(n):
        labels = labels_at(n)
        noise = (ex.stream(t, f"noise:{n}") for t in range(trials))
        return aggregate([_noisy_td_error(labels, params, rng, r, targets[n]) for rng in noise])

    medians = []
    for n in ns:
        agg = errors_at(n)
        medians.append(agg["median"])
        ex.rows.append(
            {
                "n": n,
                "median_sin": agg["median"],
                "p95_sin": agg["p95"],
                "drift": principal_angle_sin(targets[n], targets[n_ref]),
                "trials": trials,
            }
        )

    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
    lo, hi = bounds["slope_range"]
    ex.require(medians[-1] <= bounds["max_median"],
               f"median at n={ns[-1]} is {medians[-1]:.4g} > {bounds['max_median']}")
    ex.require(inversions <= bounds["max_inversions"],
               f"{inversions} median inversions (allowed {bounds['max_inversions']})")
    # noise too weak to move the frame leaves a median at 0, whose log has no
    # slope: a property of the drawn data, so the criterion fails
    unmoved = [n for n, m in zip(ns, medians) if m <= 0.0]
    ex.require(not unmoved, f"median error is 0 at n in {unmoved}, so no log-log slope is fitted")
    slope = None if unmoved else slope_fit(ns, medians)
    if slope is not None:
        ex.require(lo <= slope <= hi, f"log-log slope {slope:.3f} outside [{lo}, {hi}]")

    ex.summary = {
        "r": r,
        "per_sample_gap_at_r": float(per_sample_gaps[r - 1]),
        "slope": slope,
        "inversions": inversions,
    }


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


def _run_factors(ex):
    options = ex.options
    d, L, n, r, trials = (options[k] for k in ("d", "L", "n", "r", "trials"))
    sigma_w = options["sigma_w"]

    A = _structured_effects(d, L, options["singular_values"], ex.stream(0, "effects"))
    params = isotropic_params(np.zeros(d), A, sigma_w)
    norm_A = max(options["singular_values"])
    rate = math.sqrt(d * math.log(d) / n)

    # (a) sweep the maximum label cardinality
    med_errs, med_ratios = [], []
    for si, entry in enumerate(options["kmax_settings"]):
        scheme = scheme_from_dict(entry["scheme"])
        k_max = scheme.max_cardinality()
        denom = (sigma_w * norm_A + sigma_w ** 2 * k_max) * rate

        def one(t):
            labels = gen_labels(scheme, n, L, ex.stream(t, f"labels:{si}"))
            target = opt_td(_signal_scatter(labels, params), r)
            rng = ex.stream(t, f"noise:{si}")
            err = _noisy_td_error(labels, params, rng, r, target.frame)
            return err, target.gap, err * target.gap / denom, target.degenerate_gap

        errs, gap_vals, ratios, tied = zip(*[one(t) for t in range(trials)])
        # rows that realize too few label patterns (one, when the scheme's
        # rows below L are too rare to be drawn) tie the signal gap at r: a
        # property of the drawn labels, so the criterion fails
        ex.require(not any(tied), f"k_max={k_max}: the signal gap at r={r} is tied on "
                                  f"{sum(tied)}/{trials} trials, as too few label patterns were drawn")
        med_err = aggregate(errs)["median"]
        med_gap = aggregate(gap_vals)["median"]
        med_ratio = aggregate(ratios)["median"]
        med_errs.append(med_err)
        med_ratios.append(med_ratio)
        ex.rows.append(
            {
                "k_max": k_max,
                "median_sin": med_err,
                "median_gap_r": med_gap,
                "median_bound_ratio": med_ratio,
                "trials": trials,
            }
        )
    ratio_spread = max(med_ratios) / min(med_ratios) if min(med_ratios) > 0 else math.inf

    # (b) joint model rescaling: effects and noise scaled together multiply
    # both population scatter matrices by the square of the factor, so the
    # generalized gap is untouched while the absolute gap picks the factor up
    c = ex.bounds["scale_factor"]
    scheme_multi = scheme_from_dict(options["kmax_settings"][1]["scheme"])
    dist = scheme_distribution(scheme_multi, L)
    pop_1 = population_scatters(params, dist)
    pop_c = population_scatters(isotropic_params(np.zeros(d), c * A, c * sigma_w), dist)
    g_1, g_c = gaps(pop_1, r), gaps(pop_c, r)
    delta_dev = abs(g_c.Delta_r - g_1.Delta_r)
    # a population gap tied at r has no ratio to test: a property of the
    # drawn effects (equal singular values), so the criterion fails
    tied = g_1.gap_tied
    gap_ratio = None if tied else g_c.gap_r / g_1.gap_r

    # (c) co-occurrence norm: diagonal-exact for single-label, strictly
    # larger once labels overlap
    labels_single = gen_labels(LabelScheme.single(), n, L, ex.stream(1, "gamma-single"))
    labels_multi = gen_labels(scheme_from_dict(options["gamma_scheme"]), n, L, ex.stream(2, "gamma-multi"))
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
        g = gaps(population_scatters(params_c, dist), r)
        kappa_values.append(g.kappa_St_inf)
        W_pop = orthonormalize(g.frame.columns)

        def one(t):
            labels = gen_labels(scheme_multi, n, L, ex.stream(t, f"kappa-labels:{ci}"))
            ds = gen_data(labels, params_c, ex.stream(t, f"kappa-noise:{ci}"))
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

    ex.require(all(b >= a for a, b in zip(med_errs, med_errs[1:])),
               f"median errors not monotone in k_max: {med_errs}")
    ex.require(ratio_spread <= ex.bounds["ratio_factor"],
               f"bound-ratio spread {ratio_spread:.3g} exceeds {ex.bounds['ratio_factor']}")
    ex.require(not tied, f"rescale test: the population gap at r={r} is tied ({g_1.gap_r!r})")
    if not tied:
        ex.require(_rescale_ok(delta_dev, gap_ratio, c),
                   f"rescale test: Delta_r moved by {delta_dev:.3g}, gap ratio {gap_ratio!r}")
    ex.require(
        abs(gn_single - share_single) <= 8 * np.finfo(float).eps * share_single
        and gn_multi > share_multi
        and gn_multi > gn_single,
        f"co-occurrence norms: single {gn_single!r} vs share {share_single!r}, "
        f"multi {gn_multi!r} vs share {share_multi!r}",
    )

    ex.summary = {
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


# ---------------------------------------------------------------------------
# experiment 6: tail concentration of projected distances
# ---------------------------------------------------------------------------


def _run_concentration(ex):
    """Coverage of the concentration interval, with diagnostics over all draws.

    The population frame W is checked once, before any pair: W^T St_ml_pop W
    = I must make Psi = W^T Sigma_w W equal (I - W^T Sb_pop W) / K_pop to
    1e-8 (relative to the right side, "Psi identity defect"), and its theta
    must lie in [0, 1); the pairs then do only pair work.

    Each pair's ``draws`` deviations are folded into running statistics as
    the pair ends: the quadratic part's count, mean and sum of squared
    deviations, merged by the pairwise update of Chan, Golub & LeVeque
    (1983); the sum and the sum of squares of the linear part over its
    predicted standard deviation (pairs whose linear part is not identically
    zero); and the largest |Z|, as many as the 95th and 99th percentiles read
    (about ``pairs * draws / 20`` doubles, see ``UpperTail``). Those, and
    one (draws, d) buffer of noise differences that every pair's
    ``noise_differences`` call fills (it adds one block of 1000 rows), are
    what a run holds.
    """
    options, bounds = ex.options, ex.bounds
    d, L, r, pairs, draws = (options[k] for k in ("d", "L", "r", "pairs", "draws"))
    sigma_w, scale = options["sigma_w"], options["effect_scale"]
    deltas, c_scale = options["deltas"], bounds["c_scale"]
    scheme = scheme_from_dict(options["scheme"])

    A = _gaussian_effects(d, L, scale, ex.stream(0, "effects"))
    params = isotropic_params(np.zeros(d), A, sigma_w)
    dist = scheme_distribution(scheme, L)
    pop = population_scatters(params, dist)
    whitened = opt_stml(pop.Sb_pop, pop.St_ml_pop, r)
    W = whitened.columns
    frame = bound_frame(W, A, params.Sigma_w)
    # the frame's identity and theta, checked once for every pair
    target = (np.eye(r) - symmetrize(W.T @ pop.Sb_pop @ W)) / dist.K_pop
    defect = float(np.linalg.norm(frame.Psi - target))
    check("Psi identity defect", defect, 1e-8 * max(1.0, np.linalg.norm(target)))
    whitened.unit_values()

    total = pairs * draws
    E = np.empty((draws, d))
    quad = np.empty(draws)
    abs_Z = np.empty(draws)
    tail = UpperTail(total, 0.95)
    covered = [0] * len(deltas)
    quad_mean = quad_m2 = 0.0
    lin_sum = lin_sq = 0.0
    used = 0
    for p in range(pairs):
        rng = ex.stream(p, "pair")
        y_i = gen_pattern(scheme, L, rng)
        y_j = gen_pattern(scheme, L, rng)
        params_tail = frame.tail_params(y_i, y_j)
        s = W.T @ (A @ (y_i - y_j).astype(float))
        P = noise_differences(params, ex.stream(p, "draws"), E) @ W
        lin = 2.0 * (P @ s)
        np.einsum("ij,ij->i", P, P, out=quad)
        quad -= frame.C_w
        np.add(lin, quad, out=abs_Z)
        np.abs(abs_Z, out=abs_Z)
        for k, t in enumerate(deltas):
            covered[k] += int(np.count_nonzero(abs_Z <= concentration_interval(params_tail, t, c_scale)))
        tail.add(abs_Z)
        lin_var = 8.0 * float(s @ params_tail.Psi @ s)
        if lin_var > 0.0:
            lin /= math.sqrt(lin_var)
            lin_sum += float(lin.sum())
            lin_sq += float(lin @ lin)
            used += draws
        # merge this pair's (draws, mean, M2) into the running (seen, mean,
        # M2) of the pairs before it
        pair_mean = float(quad.mean())
        quad -= pair_mean
        seen = p * draws
        delta = pair_mean - quad_mean
        quad_mean += delta * (draws / (seen + draws))
        quad_m2 += float(quad @ quad) + delta * delta * (seen * draws / (seen + draws))

    coverage = [c / total for c in covered]
    ex.rows = [
        {"delta": deltas[k], "nominal": 1.0 - deltas[k], "coverage": coverage[k]}
        for k in range(len(deltas))
    ]

    if used:
        lin_t = abs(lin_sum / used) * math.sqrt(used)
        var_ratio = lin_sq / used
    else:
        # every pair drew two equal patterns: no linear part to test
        lin_t = var_ratio = None
    quad_std = math.sqrt(quad_m2 / (total - 1))
    quad_t = abs(quad_mean) / (quad_std / math.sqrt(total))
    q95, q99 = tail.quantiles((0.95, 0.99))
    q_ratio = q99 / q95

    for delta, cov in zip(deltas, coverage):
        ex.require(not cov < 1.0 - delta, f"delta={delta}: coverage {cov:.4f} < nominal {1 - delta:.4f}")
    ex.require(var_ratio is not None, "every pair drew two equal patterns, so no linear part was sampled")
    if var_ratio is not None:
        ex.require(abs(var_ratio - 1.0) <= bounds["variance_rel_tol"],
                   f"linear-part variance ratio {var_ratio:.4f} off unity by more than "
                   f"{bounds['variance_rel_tol']}")
        mean_tol = bounds["mean_se_tol"]
        ex.require(lin_t <= mean_tol and quad_t <= mean_tol,
                   f"component means not centered: t_lin={lin_t:.2f}, t_quad={quad_t:.2f}")
    ex.require(q_ratio <= bounds["quantile_ratio_max"],
               f"99th/95th deviation ratio {q_ratio:.3f} exceeds {bounds['quantile_ratio_max']}")
    ex.require(frame.psi_2 <= (1.0 + 1e-10) / float(whitened.st_values[-1]),
               "||Psi||_2 exceeded 1/lambda_min of the population total scatter")

    ex.summary = {
        "variance_ratio": var_ratio,
        "t_linear_mean": lin_t,
        "t_quad_mean": quad_t,
        "quantile_ratio_99_95": q_ratio,
        "pooled_draws": int(total),
        "theta": _plain(whitened.theta),
    }


# ---------------------------------------------------------------------------
# experiment 7: robustness of distance bounds under label interactions
# ---------------------------------------------------------------------------


def _run_interaction(ex):
    n, d, L, pairs, draws = (ex.options[k] for k in ("n", "d", "L", "pairs", "draws"))
    sigma_w, iscale = ex.options["sigma_w"], ex.options["interaction_scale"]
    alphas, tol_se = ex.options["alphas"], ex.bounds["tolerance_se"]
    scheme = scheme_from_dict(ex.options["scheme"])

    labels = gen_labels(scheme, n, L, ex.stream(0, "labels"))
    # Orthogonal label effects whose column norms are the prescribed singular
    # values.  A pair differing in one extreme-norm label then has its expected
    # projected distance sitting essentially on an endpoint of the two-sided
    # band, so an interaction shift of either sign can escape the naive bound
    # while the corrected bound absorbs it.  A rotated spectrum would leave
    # slack between every realizable label change and the band endpoints,
    # hiding the interaction inside the naive bound at every strength.
    sv = np.asarray(ex.options["singular_values"], dtype=float)
    U = orthonormalize(ex.stream(0, "effects").standard_normal((d, d))).columns[:, :L]
    A = U * sv
    n_prod = L * (L - 1) // 2
    B = iscale * ex.stream(0, "inter").standard_normal((d, n_prod))
    params = isotropic_params(np.zeros(d), A, sigma_w, B_inter=B)
    # the strongest interaction alpha * B must make a valid model as well
    isotropic_params(np.zeros(d), A, sigma_w, B_inter=max(alphas) * B)
    ds0 = gen_data(labels, params, ex.stream(0, "fit-noise"))
    W, frame, Y_i, Y_j = _pair_frame(ex, 0, ds0, params)

    # what the pairs contribute at every alpha: their budgets, and the label
    # and interaction effects A delta and B (z_i - z_j)
    budget = frame.distance_budget(Y_i, Y_j)
    effects = _each_row(A, Y_i - Y_j)
    inters = _each_row(B, pair_products_matrix(Y_i) - pair_products_matrix(Y_j))

    rates = {}
    for ai, alpha in enumerate(alphas):
        widen = frame.with_interactions(alpha * B).interaction_bound(Y_i, Y_j)["corrected_bound"]
        mean, tol = _mc_distance(ex, f"draws:{ai}", effects + alpha * inters, W, params, draws, tol_se)
        naive = (budget.lower - tol <= mean) & (mean <= budget.upper + tol)
        corrected = (budget.lower - widen - tol <= mean) & (mean <= budget.upper + widen + tol)

        rates[alpha] = (_rate(naive), _rate(corrected))
        ex.rows.append(
            {
                "alpha": alpha,
                "naive_pass_pct": 100.0 * rates[alpha][0],
                "corrected_pass_pct": 100.0 * rates[alpha][1],
                "pairs": pairs,
                "draws": draws,
            }
        )

    min_corrected = ex.bounds["min_corrected"]
    a_top = max(alphas)
    bad = [a for a in alphas if rates[a][1] < min_corrected]
    ex.require(not bad, f"corrected rate below {min_corrected} at alpha in {bad}")
    ex.require(
        rates[a_top][0] < rates[a_top][1],
        f"naive rate {rates[a_top][0]:.3f} not below corrected {rates[a_top][1]:.3f} at alpha={a_top}",
    )
    ex.summary = {"r": W.shape[1]}


# ---------------------------------------------------------------------------
# experiment 8: ridge regularization in the d >> n regime
# ---------------------------------------------------------------------------


def _run_regularization(ex):
    options = ex.options
    n, d, L, trials, gammas = (options[k] for k in ("n", "d", "L", "trials", "gammas"))
    sigma_w, scale = options["sigma_w"], options["effect_scale"]
    scheme = scheme_from_dict(options["scheme"])
    gap_tol = ex.bounds["gap_match_tol"]
    r = L

    reports = []
    for t in range(trials):
        _, ds = _instance(ex, t, scheme, n, d, L, scale, sigma_w)
        reports.append(regularization_report(build_scatter(ds), gammas, r))

    ranks = {row.rank_sb for rep in reports for row in rep}

    medians = []
    for gi, gamma in enumerate(gammas):
        kappas = [rep[gi].kappa_sw_gamma for rep in reports]
        infinite = any(rep[gi].kappa_infinite for rep in reports)
        med = float("inf") if infinite else aggregate(kappas)["median"]
        medians.append(med)
        ex.rows.append(
            {
                "gamma": gamma,
                "rank_Sb_ML": int(min(rep[gi].rank_sb for rep in reports)),
                "kappa_median": med,
                "max_gap_dev": max(abs(rep[gi].gap_td - rep[0].gap_td) for rep in reports),
                "trials": trials,
            }
        )

    finite = [m for m in medians if math.isfinite(m)]
    lo, hi = ex.bounds["kappa_ratio_range"]
    ratios = [a / b for a, b in zip(finite, finite[1:])]

    ex.require(ranks == {L}, f"rank varied across trials/ridges: {sorted(ranks)}")
    ex.require(gammas[0] != 0.0 or all(rep[0].kappa_infinite for rep in reports),
               "gamma=0 did not flag an infinite condition number")
    ex.require(all(lo <= q <= hi for q in ratios), f"consecutive kappa ratios {ratios} outside [{lo}, {hi}]")
    gap_dev = max(row["max_gap_dev"] for row in ex.rows)
    ex.require(gap_dev <= gap_tol, f"trace-difference gap moved by {gap_dev:.3g} across ridges")

    ex.summary = {
        "kappa_medians": medians,
        "kappa_ratios": ratios,
        "max_gap_deviation": gap_dev,
    }


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# Each runner writes its rows, failures and summary onto the ``_Run`` that
# ``run`` hands it; its criterion, named here, passes exactly when the run
# records no failure. A CSV header is the keys of the first row, except where
# a runner can write no rows: convergence does when its instance has no
# spectral gap, so its header is named here.
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
_HEADERS = {"convergence": ["n", "median_sin", "p95_sin", "drift", "trials"]}


def run(config):
    """Run one experiment and return its report."""
    if config.experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    runner, criterion = _RUNNERS[config.experiment]
    ex = _Run(config.experiment, config.options, Seed(config.seed))
    start = time.perf_counter()
    runner(ex)
    wall = time.perf_counter() - start
    return ExperimentReport(
        experiment=config.experiment,
        columns=list(ex.rows[0]) if ex.rows else _HEADERS.get(config.experiment, []),
        rows=ex.rows,
        passes={criterion: not ex.failures},
        summary={**ex.summary, "failures": ex.failures},
        seed=config.seed,
        config_digest=config.digest(),
        wall_time_s=wall,
    )


def all_configs(config):
    """The configs ``mlda all`` runs, in ``EXPERIMENTS`` order: every
    experiment at its defaults, with the seed and output directory of
    ``config``, resolved and validated by ``build_config``. Each experiment
    draws only from its own streams, so the order changes no number."""
    return [build_config(name, seed=config.seed, out_dir=config.out_dir) for name in EXPERIMENTS]
