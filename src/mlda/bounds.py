"""Distance preservation, concentration, and interaction-robustness bounds.

For two samples generated by the linear label-effect model, the projected
squared distance decomposes as

    ||W^T(x_i - x_j)||^2 = ||s||^2 + 2 s^T W^T(e_i - e_j) + ||W^T(e_i - e_j)||^2,

with s = W^T A (y_i - y_j). Its expectation is the signal ||s||^2 plus the
noise floor C_w = 2 tr(W^T Sigma_w W), and the signal is pinched between the
extreme singular values of W^T A times the Hamming distance of the label
patterns. Deviations around the mean are sub-exponential with Hanson-Wright
tail parameters (V, B) computed here; pairwise label interactions perturb the
mean by an explicitly bounded amount.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNoise, InvalidInput, InvariantViolation
from .synth import pair_products
from .spectral import _all_binary, symmetrize


def _pattern(y, L=None, name="pattern"):
    y = np.asarray(y)
    if y.ndim != 1:
        raise InvalidInput(f"{name} must be 1-D, got shape {y.shape}")
    if not _all_binary(y):
        raise InvalidInput(f"{name} entries must be 0 or 1")
    if L is not None and y.shape[0] != L:
        raise InvalidInput(f"{name} has length {y.shape[0]}, expected {L}")
    return y.astype(float)


def _finite(**arrays):
    """Each keyword's value as a float array; a NaN or infinity is ``InvalidInput``."""
    out = []
    for name, value in arrays.items():
        value = np.asarray(value, dtype=float)
        if not np.isfinite(value).all():
            raise InvalidInput(f"{name} contains non-finite entries")
        out.append(value)
    return out


def hamming(y_i, y_j):
    """Hamming distance between two label patterns: k_i + k_j - 2 y_i^T y_j."""
    y_i = _pattern(y_i)
    y_j = _pattern(y_j, L=y_i.shape[0])
    return int(np.abs(y_i - y_j).sum())


def jaccard(y_i, y_j):
    """Jaccard distance: Hamming over union size (zero for equal patterns)."""
    y_i = _pattern(y_i)
    y_j = _pattern(y_j, L=y_i.shape[0])
    return _jaccard(y_i, y_j)


def _jaccard(y_i, y_j):
    # the arithmetic of ``jaccard`` on two already-validated float patterns
    union = float(y_i.sum() + y_j.sum() - y_i @ y_j)
    if union == 0:
        return 0.0
    return float(np.abs(y_i - y_j).sum() / union)


def _extreme_singular_values(T):
    """(sigma_min, sigma_max) of T as a map on its full domain.

    A wide matrix (more columns than rows) has a nontrivial null space, so
    its effective smallest singular value is zero.
    """
    svals = np.linalg.svd(T, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    smin = float(svals[-1]) if T.shape[0] >= T.shape[1] else 0.0
    return smin, smax


@dataclass(frozen=True)
class DistanceBudget:
    """Expected projected squared distance between two samples, with bounds.

    total_expected = signal + C_w always; lower/upper pinch total_expected
    via the extreme singular values of W^T A (restricted to the differing
    labels when support_restricted was requested).
    """

    signal: float
    C_w: float
    total_expected: float
    d_H: int
    d_J: float
    lower: float
    upper: float
    sigma_min: float
    sigma_max: float


def distance_budget(W, A, y_i, y_j, Sigma_w, support_restricted=False):
    """Two-sided bound on E||W^T(x_i - x_j)||^2 for a label pair.

    Parameters
    ----------
    W : (d, r) array_like
        Projection (any matrix; Stiefel or total-scatter-orthogonal frames
        both work).
    A : (d, L) array_like
        Label-effect matrix.
    y_i, y_j : (L,) binary patterns
    Sigma_w : (d, d) array_like
        Noise covariance.
    support_restricted : bool
        When true, the singular values are taken on the columns where the
        patterns differ - a sharper pinch for the same pair.
    """
    W, A, Sigma_w = _finite(W=W, A=A, Sigma_w=Sigma_w)
    if W.ndim != 2 or A.ndim != 2 or W.shape[0] != A.shape[0]:
        raise InvalidInput(f"shape mismatch: W {W.shape} vs A {A.shape}")
    if Sigma_w.shape != (W.shape[0], W.shape[0]):
        raise InvalidInput(f"Sigma_w shape {Sigma_w.shape} != ({W.shape[0]},)*2")
    y_i = _pattern(y_i, L=A.shape[1], name="y_i")
    y_j = _pattern(y_j, L=A.shape[1], name="y_j")
    delta = y_i - y_j
    d_H = int(np.abs(delta).sum())
    d_J = _jaccard(y_i, y_j)

    T = W.T @ A
    s = T @ delta
    signal = float(s @ s)
    Psi = symmetrize(W.T @ Sigma_w @ W)
    C_w = float(2.0 * np.trace(Psi))

    if support_restricted:
        support = np.flatnonzero(delta != 0)
        smin, smax = _extreme_singular_values(T[:, support]) if support.size else (0.0, 0.0)
    else:
        smin, smax = _extreme_singular_values(T)
    return DistanceBudget(
        signal=signal,
        C_w=C_w,
        total_expected=signal + C_w,
        d_H=d_H,
        d_J=d_J,
        lower=smin * smin * d_H + C_w,
        upper=smax * smax * d_H + C_w,
        sigma_min=smin,
        sigma_max=smax,
    )


def snr(budget, r, Sigma_w):
    """Signal-to-noise ratio of a pair and its Stiefel-frame bounds.

    The value is signal / C_w; the bounds assume W is a Stiefel frame so that
    C_w lies in [2 r lambda_min(Sigma_w), 2 r lambda_max(Sigma_w)].
    """
    if budget.C_w <= 0:
        raise DegenerateNoise("C_w = 0: signal-to-noise ratio undefined")
    if r < 1:
        raise InvalidInput(f"r must be >= 1, got {r}")
    lam = np.linalg.eigvalsh(symmetrize(np.asarray(Sigma_w, dtype=float)))
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    lower = (budget.sigma_min ** 2) * budget.d_H / (2.0 * r * lam_max) if lam_max > 0 else np.inf
    upper = (budget.sigma_max ** 2) * budget.d_H / (2.0 * r * lam_min) if lam_min > 0 else np.inf
    return {
        "snr": budget.signal / budget.C_w,
        "lower": float(lower),
        "upper": float(upper),
    }


def jaccard_lower(budget, y_i, y_j):
    """Jaccard-form lower bounds on the projected signal.

    The exact form sigma_min^2 * |union| * d_J equals the Hamming lower
    bound; the weakened form replaces |union| by max(k_i, k_j) and is never
    larger.
    """
    y_i = _pattern(y_i)
    y_j = _pattern(y_j, L=y_i.shape[0])
    k_i, k_j = float(y_i.sum()), float(y_j.sum())
    union = k_i + k_j - float(y_i @ y_j)
    d_J = budget.d_J
    exact = (budget.sigma_min ** 2) * union * d_J
    weakened = (budget.sigma_min ** 2) * max(k_i, k_j) * d_J
    if exact < weakened - 1e-12 * max(1.0, abs(weakened)):
        raise InvariantViolation(
            f"exact Jaccard bound {exact!r} fell below weakened form {weakened!r}"
        )
    return {"d_J": d_J, "exact": float(exact), "weakened": float(weakened)}


@dataclass(frozen=True)
class TailParams:
    """Hanson-Wright tail parameters of the projected-distance deviation.

    B_tail = 4 ||Psi||_2 and V^2 = 16 ||s||^2 ||Psi||_2 + 32 ||Psi||_F^2 with
    Psi = W^T Sigma_w W and s the projected signal difference. When the frame
    is total-scatter-orthogonal for the population, Psi additionally equals
    (I_r - W^T Sb_pop W) / K_pop; ``psi_identity_defect``/``theta`` report
    that check when the population context is supplied.
    """

    Psi: np.ndarray
    B_tail: float
    V_ij: float
    signal: float
    psi_identity_defect: float = None
    theta: np.ndarray = None


def tail_params(W, A, y_i, y_j, Sigma_w, pop=None):
    """Tail parameters (V, B) for one pair, optionally checking the
    total-scatter-orthogonality identity for Psi.

    Parameters
    ----------
    pop : PopulationScatters, optional
        When given, W is taken to satisfy W^T St_ml_pop W = I_r; the identity
        Psi = (I_r - W^T Sb_pop W) / K_pop is verified to 1e-8 and the
        projected between-scatter spectrum theta (all in [0, 1)) is attached.
    """
    W, A, Sigma_w = _finite(W=W, A=A, Sigma_w=Sigma_w)
    y_i = _pattern(y_i, L=A.shape[1], name="y_i")
    y_j = _pattern(y_j, L=A.shape[1], name="y_j")
    s = W.T @ A @ (y_i - y_j)
    signal = float(s @ s)
    Psi = symmetrize(W.T @ Sigma_w @ W)
    psi_evals = np.linalg.eigvalsh(Psi)
    psi_2 = float(np.abs(psi_evals).max())
    psi_F = float(np.linalg.norm(Psi))
    B_tail = 4.0 * psi_2
    V_ij = float(np.sqrt(16.0 * signal * psi_2 + 32.0 * psi_F ** 2))

    defect = None
    theta = None
    if pop is not None:
        r = W.shape[1]
        # Sw_pop = K_pop * Sigma_w, so the expected cardinality is a trace ratio
        K_pop = float(np.trace(pop.Sw_pop) / np.trace(Sigma_w))
        Wb = symmetrize(W.T @ pop.Sb_pop @ W)
        target = (np.eye(r) - Wb) / K_pop
        defect = float(np.linalg.norm(Psi - target))
        if defect > 1e-8 * max(1.0, np.linalg.norm(target)):
            raise InvariantViolation(
                f"Psi identity defect {defect:.3e}: frame is not "
                "total-scatter-orthogonal for this population"
            )
        theta = np.linalg.eigvalsh(Wb)[::-1].copy()
        theta[(theta < 0) & (theta > -1e-12)] = 0.0
        if theta.min() < 0 or theta.max() >= 1.0:
            raise InvariantViolation(
                f"projected between-scatter spectrum escaped [0, 1): {theta}"
            )
    return TailParams(
        Psi=Psi, B_tail=B_tail, V_ij=V_ij, signal=signal,
        psi_identity_defect=defect, theta=theta,
    )


def concentration_interval(params, delta_prob, c_scale=1.0):
    """Half-width of the sub-exponential deviation interval at level delta.

    half_width = V sqrt(log(2/delta) / c) + B log(2/delta) / c with c the
    configurable scale factor (default 1). Decreasing delta widens the
    interval monotonically. The arithmetic is done in Python floats, which
    round an overflow to inf without a warning; a log term or half-width
    that is not finite raises InvalidInput.
    """
    if not 0 < delta_prob < 1:
        raise InvalidInput(f"delta must be in (0, 1), got {delta_prob}")
    if c_scale <= 0:
        raise InvalidInput(f"c_scale must be > 0, got {c_scale}")
    log_term = float(np.log(2.0 / delta_prob)) / c_scale
    if not math.isfinite(log_term):
        raise InvalidInput(f"log(2/delta) / c_scale overflows at c_scale={c_scale!r}")
    half_width = float(params.V_ij) * math.sqrt(log_term) + float(params.B_tail) * log_term
    if not math.isfinite(half_width):
        raise InvalidInput(f"half-width overflows at delta={delta_prob!r}, c_scale={c_scale!r}")
    return half_width


def interaction_bound(W, A, B_inter, y_i, y_j, constraint="none",
                      st_min_eig=None, A_full=None, B_full=None):
    """Bound the mean-distance shift caused by pairwise label interactions.

    Returns a dict with the naive widening (0: the linear theory claims the
    mean needs no correction), the corrected widening

        2 sigma_max(W^T A) ||delta|| sigma_max(W^T B) ||z_i - z_j||
        + sigma_max(W^T B)^2 ||z_i - z_j||^2,

    the actual ``z_norm`` = ||z_i - z_j|| and its a-priori bound
    sqrt(d_H * min(k_max - 1, L - 1)) with k_max = max(k_i, k_j).

    With ``constraint="stiefel"`` an a-priori variant using sigma_max(A) and
    sigma_max(B) is added (valid for any Stiefel frame); with
    ``constraint="stml"`` the same variant divided by lambda_min of the
    population total scatter (pass it as ``st_min_eig``) is added, valid for
    any total-scatter-orthogonal frame.
    """
    W, A = _finite(W=W, A=A)
    y_i = _pattern(y_i, L=A.shape[1], name="y_i")
    y_j = _pattern(y_j, L=A.shape[1], name="y_j")
    L = A.shape[1]
    delta = y_i - y_j
    d_H = float(np.abs(delta).sum())
    delta_norm = float(np.sqrt(d_H))
    k_max = int(max(y_i.sum(), y_j.sum()))
    z_i = pair_products(y_i)
    z_j = pair_products(y_j)
    dz = float(np.linalg.norm(z_i - z_j))
    z_bound = float(np.sqrt(d_H * min(max(k_max - 1, 0), L - 1)))
    if dz > z_bound * (1 + 1e-12) + 1e-12:
        raise InvariantViolation(f"||z_i - z_j|| = {dz!r} exceeded its bound {z_bound!r}")

    if B_inter is None:
        sb = 0.0
        B_inter_arr = None
    else:
        (B_inter_arr,) = _finite(B_inter=B_inter)
        want = L * (L - 1) // 2
        if B_inter_arr.shape != (A.shape[0], want):
            raise InvalidInput(
                f"B_inter shape {B_inter_arr.shape} != ({A.shape[0]}, {want})"
            )
        sb = _extreme_singular_values(W.T @ B_inter_arr)[1]
    sa = _extreme_singular_values(W.T @ A)[1]
    corrected = 2.0 * sa * delta_norm * sb * dz + sb * sb * dz * dz

    out = {
        "naive_gap_bound": 0.0,
        "corrected_bound": float(corrected),
        "z_norm": dz,
        "z_norm_bound": z_bound,
    }
    if constraint == "stiefel":
        sa_f = _extreme_singular_values(A)[1] if A_full is None else float(A_full)
        sb_f = 0.0 if B_inter_arr is None else (
            _extreme_singular_values(B_inter_arr)[1] if B_full is None else float(B_full)
        )
        out["stiefel_bound"] = float(
            2.0 * sa_f * delta_norm * sb_f * dz + sb_f * sb_f * dz * dz
        )
    elif constraint == "stml":
        if st_min_eig is None or st_min_eig <= 0:
            raise InvalidInput("stml constraint needs st_min_eig > 0")
        sa_f = _extreme_singular_values(A)[1]
        sb_f = 0.0 if B_inter_arr is None else _extreme_singular_values(B_inter_arr)[1]
        raw = 2.0 * sa_f * delta_norm * sb_f * dz + sb_f * sb_f * dz * dz
        out["stml_bound"] = float(raw / st_min_eig)
    elif constraint != "none":
        raise InvalidInput(f"unknown constraint kind {constraint!r}")
    return out
