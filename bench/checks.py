"""Correctness checks that run outside the timed passes.

Each check builds its instances with mlda's public functions, shaped like
the workload's experiments, and compares the program's output against a
computation made apart from it (a plain loop, numpy, scipy) or against a
property the method must have. Nothing is compared with stored output.
Every check returns (ok, detail).
"""

import numpy as np
import scipy.linalg

import mlda
from mlda.harness import DEFAULTS, scheme_from_dict


def _instance(seed, idx, scheme, n, d, L, sigma_w, scale=2.0):
    rng = seed.stream("bench-check", idx, "instance")
    labels = mlda.gen_labels(scheme_from_dict(scheme), n, L, rng)
    A = scale * rng.standard_normal((d, L))
    params = mlda.isotropic_params(np.zeros(d), A, sigma_w)
    return labels, A, params, mlda.gen_data(labels, params, rng)


def _stiefel(rng, d, r):
    Q, _ = np.linalg.qr(rng.standard_normal((d, r)))
    return Q


def _worst(pairs):
    """(ok, detail) from (defect, tolerance) pairs: the worst defect/tol."""
    ratio = max(defect / tol for defect, tol in pairs)
    return bool(ratio <= 1.0), {"worst_defect_over_tol": float(ratio), "cases": len(pairs)}


# --------------------------------------------------------------------- tall


def scatter_loop(seed):
    """build_scatter against a plain per-label loop, and St_ml = Sb + Sw."""
    conv, fac = DEFAULTS["convergence"], DEFAULTS["factors"]
    shapes = [
        (conv["scheme"], conv["ns"][-1], conv["d"], conv["L"], conv["sigma_w"]),
        (conv["scheme"], conv["ns"][0], conv["d"], conv["L"], conv["sigma_w"]),
        (fac["gamma_scheme"], fac["n"], fac["d"], fac["L"], fac["sigma_w"]),
    ]
    pairs = []
    for idx, (scheme, n, d, L, sigma_w) in enumerate(shapes):
        labels, _, _, ds = _instance(seed, idx, scheme, n, d, L, sigma_w)
        ss = mlda.build_scatter(ds)
        X, bits = ds.X, labels.bits
        mu = X.mean(axis=0)
        Sb, Sw = np.zeros((d, d)), np.zeros((d, d))
        for ell in range(L):
            rows = X[bits[:, ell] == 1]
            m = rows.mean(axis=0)
            D = rows - m
            Sb += len(rows) * np.outer(m - mu, m - mu)
            Sw += D.T @ D
        Xc = X - mu
        St = Xc.T @ Xc
        scale = np.linalg.norm(Sb + Sw)
        for got, want in ((ss.Sb, Sb), (ss.Sw, Sw), (ss.St, St), (ss.St_ml, ss.Sb + ss.Sw)):
            pairs.append((np.linalg.norm(got - want), 1e-10 * scale))
    return _worst(pairs)


def angles_scipy(seed):
    """principal_angle_sin against scipy.linalg.subspace_angles."""
    rng = seed.stream("bench-check", 0, "angles")
    d = DEFAULTS["convergence"]["d"]
    pairs = []
    for r in range(1, 5):
        for step in (1e-9, 1e-4, 1e-1, 1.0):
            U = _stiefel(rng, d, r)
            V, _ = np.linalg.qr(U + step * rng.standard_normal((d, r)))
            want = np.sin(scipy.linalg.subspace_angles(U, V).max())
            pairs.append((abs(mlda.principal_angle_sin(U, V) - want), 1e-10))
    return _worst(pairs)


# --------------------------------------------------------------------- wide


def rank_bound(seed):
    """rank(Sb) = min(d, n-1, rank(Y) - [1 in col Y]), the right side from numpy."""
    reg = DEFAULTS["regularization"]
    shapes = [(row["scheme"], row["n"], row["d"], row["L"]) for row in DEFAULTS["rank"]["rows"]]
    shapes += [(reg["scheme"], reg["n"], reg["d"], reg["L"])] * 3
    bad = []
    for idx, (scheme, n, d, L) in enumerate(shapes):
        labels, _, _, ds = _instance(seed, 100 + idx, scheme, n, d, L, 1.0)
        ss = mlda.build_scatter(ds)
        Y = labels.bits.astype(float)
        coef = np.linalg.lstsq(Y, np.ones(n), rcond=None)[0]
        one_in = np.linalg.norm(Y @ coef - 1.0) <= 1e-8 * np.sqrt(n)
        want = min(d, n - 1, np.linalg.matrix_rank(Y) - int(one_in))
        got = (mlda.rank_analysis(ds, ss).rank_sb, int(np.linalg.matrix_rank(ss.Sb)))
        if got != (want, want):
            bad.append({"n": n, "d": d, "L": L, "got": got, "want": int(want)})
    return not bad, {"cases": len(shapes), "mismatches": bad}


def ridge_scipy(seed):
    """opt_stml(..., gamma) generalized values against scipy.linalg.eigh(Sb, St_ml + gamma I)."""
    reg = DEFAULTS["regularization"]
    n, d, L = reg["n"], reg["d"], reg["L"]
    pairs = []
    for idx in range(2):
        _, _, _, ds = _instance(seed, 200 + idx, reg["scheme"], n, d, L, reg["sigma_w"])
        ss = mlda.build_scatter(ds)
        for gamma in (g for g in reg["gammas"] if g > 0):
            got = mlda.opt_stml(ss.Sb, ss.St_ml, L, gamma=gamma).gen_values
            want = scipy.linalg.eigh(ss.Sb, ss.St_ml + gamma * np.eye(d), eigvals_only=True)[::-1]
            pairs.append((np.abs(got - want).max(), 1e-9 * max(1.0, abs(want[0]))))
    return _worst(pairs)


# ------------------------------------------------------------------- solver


def trace_ratio_root(seed):
    """f(lambda*) ~ 0 by numpy.linalg.eigvalsh, and lambda* beats random Stiefel frames."""
    div = DEFAULTS["divergence"]
    n, d, L, r = div["n"], div["d"], div["L"], div["r"]
    rng = seed.stream("bench-check", 0, "frames")
    root, beaten = [], []
    for idx, setting in enumerate(div["settings"]):
        _, _, _, ds = _instance(seed, 300 + idx, setting["scheme"], n, d, L, div["sigma_w"])
        ss = mlda.build_scatter(ds)
        lam = mlda.trace_ratio_stiefel(ss.Sb, ss.Sw, r).lambda_star
        f = np.sort(np.linalg.eigvalsh(ss.Sb - lam * ss.Sw))[::-1][:r].sum()
        scale = np.linalg.norm(ss.Sb, 2) + lam * np.linalg.norm(ss.Sw, 2)
        root.append((abs(f), 1e-8 * scale))
        for _ in range(200):
            Q = _stiefel(rng, d, r)
            ratio = np.trace(Q.T @ ss.Sb @ Q) / np.trace(Q.T @ ss.Sw @ Q)
            beaten.append((max(ratio - lam, 0.0), 1e-12 * lam))
    ok_root, detail_root = _worst(root)
    ok_frames, detail_frames = _worst(beaten)
    return ok_root and ok_frames, {"root": detail_root, "random_frames": detail_frames}


# -------------------------------------------------------------------- pairs


def distance_bounds(seed):
    """budget.lower <= ||W^T A (y_i - y_j)||^2 + 2 sigma_w^2 ||W||_F^2 <= budget.upper."""
    dist, conc = DEFAULTS["distance"], DEFAULTS["concentration"]
    cases = []
    for si, setting in enumerate(dist["settings"]):
        labels, A, params, ds = _instance(
            seed, 400 + si, setting["scheme"], dist["n"], dist["d"], dist["L"], dist["sigma_w"]
        )
        W = mlda.top_eigenspace(mlda.build_scatter(ds).Sb, min(6, dist["L"])).frame.columns
        cases.append((labels, A, W, dist["sigma_w"], dist["pairs"]))
    # a total-scatter-orthogonal frame from the population, as `concentration` uses
    labels, A, params, _ = _instance(
        seed, 410, conc["scheme"], 400, conc["d"], conc["L"], conc["sigma_w"]
    )
    pop = mlda.population_scatters(
        params, mlda.scheme_distribution(scheme_from_dict(conc["scheme"]), conc["L"])
    )
    W = mlda.opt_stml(pop.Sb_pop, pop.St_ml_pop, conc["r"]).columns
    cases.append((labels, A, W, conc["sigma_w"], dist["pairs"]))

    rng = seed.stream("bench-check", 0, "pairs")
    pairs = []
    for labels, A, W, sigma_w, count in cases:
        Sigma_w = sigma_w ** 2 * np.eye(A.shape[0])
        for _ in range(count):
            i, j = rng.choice(labels.n, size=2, replace=False)
            y_i, y_j = labels.bits[i], labels.bits[j]
            budget = mlda.distance_budget(W, A, y_i, y_j, Sigma_w)
            s = W.T @ A @ (y_i - y_j).astype(float)
            value = s @ s + 2.0 * sigma_w ** 2 * np.sum(W * W)
            tol = 1e-10 * budget.upper
            pairs.append((max(budget.lower - value, value - budget.upper, 0.0), tol))
    return _worst(pairs)


CHECKS = {
    "tall": (scatter_loop, angles_scipy),
    "wide": (rank_bound, ridge_scipy),
    "solver": (trace_ratio_root,),
    "pairs": (distance_bounds,),
}


def run_checks(workload, seed):
    """{check name: {"ok": bool, ...detail}} for the workload's checks."""
    out = {}
    for check in CHECKS[workload]:
        ok, detail = check(seed)
        out[check.__name__] = {"ok": bool(ok), **detail}
    return out
