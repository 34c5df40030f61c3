"""Fisher objectives and their optimizers under orthogonality constraints.

Four classical objectives are evaluated for a projection W given a between-
scatter Sb and within-scatter Sw:

* trace ratio      J_TR = tr(W^T Sb W) / tr(W^T Sw W)
* ratio trace      J_RT = tr((W^T Sw W)^{-1} W^T Sb W)
* determinant ratio J_DR = det(W^T Sb W) / det(W^T Sw W)
* trace difference  J_TD = tr(W^T Sb W) - tr(W^T Sw W)

Under total-scatter orthogonality (W^T St_ml W = I_r) all four are maximized
by the same whitened eigenvector frame; under the Stiefel constraint
(W^T W = I_r) they genuinely diverge, and the divergence is driven by the
cardinality excess R = St_ml - St and by non-commutativity of Sb with St.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidGap,
    InvalidInput,
    InvariantViolation,
    NotConverged,
    SingularTotalScatter,
)
from .spectral import (
    RECON_TOL,
    Frame,
    _as_float_matrix,
    numeric_rank,
    principal_angle_sin,
    sym_eig,
    sym_eigvals,
    symmetrize,
)

# Log-space floor under which a determinant counts as vanished.
DET_FLOOR_LOG = np.log(1e-300)
# Absolute eigenvalue-tie threshold for flagging a degenerate cut.
GAP_TIE_TOL = 1e-12
# Normalized commutator size under which two scatters count as commuting.
COMMUTE_TOL = 1e-12
# Step in lambda under which the trace-ratio iteration counts as converged.
TRACE_RATIO_TOL = 1e-10
# Negative theta down to -THETA_DUST is rounding dust of a zero eigenvalue.
THETA_DUST = 1e-12
# A symmetric PSD matrix whose smallest eigenvalue is at most SINGULAR_FLOOR
# times its largest counts as singular: a total scatter is not whitened, a
# noise covariance is rejected and a condition number is reported as infinite.
SINGULAR_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# objective evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectiveValues:
    """The four Fisher objective values at one projection.

    ``within_singular`` is set when W^T Sw W is numerically singular; the
    ratio-type objectives are then reported as +inf rather than raising.
    ``dr_flagged`` is set when the determinant ratio's denominator falls
    below the log-space floor (the value is unreliable); a vanishing
    numerator is a legitimate J_DR = 0 and is not flagged.
    """

    j_tr: float
    j_rt: float
    j_dr: float
    j_td: float
    within_singular: bool
    dr_flagged: bool


def _projected(W, S):
    W = np.asarray(W, dtype=float)
    return symmetrize(W.T @ S @ W)


def eval_objectives(W, Sb, Sw):
    """Evaluate all four Fisher objectives at a projection W.

    W need not be orthonormal (total-scatter-orthogonal frames are not).
    Singularity of the projected within-scatter is reported through flags,
    never exceptions. The determinant ratio is computed in log space.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise InvalidInput(f"W must be 2-D, got shape {W.shape}")
    Wb = _projected(W, Sb)
    Ww = _projected(W, Sw)
    r = W.shape[1]
    tb = float(np.trace(Wb))
    tw = float(np.trace(Ww))
    j_td = tb - tw

    within_singular = numeric_rank(Ww) < r if np.abs(Ww).max() > 0 else True
    if within_singular:
        j_tr = np.inf if tw <= 0 else tb / tw
        j_rt = np.inf
    else:
        j_tr = tb / tw
        j_rt = float(np.trace(np.linalg.solve(Ww, Wb)))

    sign_b, log_b = np.linalg.slogdet(Wb)
    sign_w, log_w = np.linalg.slogdet(Ww)
    dr_flagged = bool(sign_w <= 0 or log_w <= DET_FLOOR_LOG)
    if dr_flagged:
        j_dr = np.inf
    elif sign_b <= 0 or log_b <= DET_FLOOR_LOG:
        j_dr = 0.0
    else:
        j_dr = float(np.exp(log_b - log_w))
    return ObjectiveValues(
        j_tr=float(j_tr), j_rt=float(j_rt), j_dr=float(j_dr), j_td=float(j_td),
        within_singular=bool(within_singular), dr_flagged=dr_flagged,
    )


def _theta_checked(theta, floor=THETA_DUST, error=InvariantViolation):
    """Generalized eigenvalues theta in [0, 1), with [-floor, 0) read as the
    rounding dust of 0; anything else, or no theta at all, raises ``error``."""
    theta = np.asarray(theta, dtype=float)
    if theta.size == 0 or not np.isfinite(theta).all() or theta.min() < -floor or theta.max() >= 1:
        raise error(f"theta must lie in [0, 1) (dust floor {floor:.3e}), got {theta}")
    return np.where(theta < 0, 0.0, theta)


def theta_form(theta):
    """Closed-form objective values from generalized eigenvalues theta.

    For a frame with W^T St_ml W = I_r whose projected between-scatter has
    eigenvalues theta (each in [0, 1)), the objectives depend on theta only.
    Directions outside range(Sb) have theta = 0 up to rounding, so values in
    [-THETA_DUST, 0) are read as 0. Returns a dict with keys j_tr, j_rt, j_dr,
    j_td.
    """
    theta = _theta_checked(theta, error=InvalidInput)
    r = theta.size
    s = theta.sum()
    return {
        "j_tr": s / (r - s),
        "j_rt": float((theta / (1.0 - theta)).sum()),
        "j_dr": float(np.prod(theta / (1.0 - theta))),
        "j_td": 2.0 * s - r,
    }


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenspaceResult:
    """Top-r eigenspace of a symmetric objective matrix.

    ``gap`` is the eigenvalue gap at the cut; ``degenerate_gap`` flags a tie
    within GAP_TIE_TOL (the frame is still returned, chosen deterministically
    by the eigendecomposition's sign and ordering conventions).
    """

    frame: Frame
    values: np.ndarray
    gap: float
    degenerate_gap: bool


def top_eigenspace(C, r):
    """Deterministic top-r eigenspace of a symmetric matrix."""
    ep = sym_eig(C)
    d = ep.values.size
    if not 1 <= r <= d:
        raise InvalidInput(f"need 1 <= r <= d={d}, got r={r}")
    gap = float(ep.values[r - 1] - ep.values[r]) if r < d else np.inf
    return EigenspaceResult(
        frame=ep.top(r),
        values=ep.values,
        gap=gap,
        degenerate_gap=bool(gap <= GAP_TIE_TOL),
    )


def opt_td(ss, r):
    """Stiefel maximizer of the trace difference: top-r of 2 Sb - St_ml."""
    return top_eigenspace(2.0 * ss.Sb - ss.St_ml, r)


@dataclass(frozen=True)
class WhitenedFrame:
    """Total-scatter-orthogonal optimizer (columns are NOT orthonormal).

    Satisfies columns^T (St + gamma I) columns = I_r. ``gen_values`` are the
    generalized eigenvalues of (Sb, St + gamma I) in descending order; the
    leading r of them are the projected between-scatter spectrum theta.
    ``st_values`` is the spectrum of St + gamma I, descending, from the solve
    that whitens it, so kappa(St + gamma I) is its first over its last entry.
    """

    columns: np.ndarray
    gen_values: np.ndarray
    st_values: np.ndarray
    r: int
    gamma: float

    @property
    def theta(self):
        return self.gen_values[: self.r]


def opt_stml(Sb, St_total, r, gamma=0.0):
    """Common maximizer of all four objectives under W^T St W = I_r.

    Parameters
    ----------
    Sb, St_total : (d, d) array_like
        Between-scatter and (cardinality-weighted) total scatter.
    r : int
    gamma : float
        Optional ridge added to St_total before whitening.

    Raises
    ------
    SingularTotalScatter
        If St_total + gamma I is numerically singular.
    """
    if gamma < 0:
        raise InvalidInput(f"gamma must be >= 0, got {gamma}")
    Sb = symmetrize(Sb)
    St = symmetrize(St_total)
    d = St.shape[0]
    if not 1 <= r <= d:
        raise InvalidInput(f"need 1 <= r <= d={d}, got r={r}")
    St_g = St + gamma * np.eye(d)
    ep = sym_eig(St_g)
    if ep.values[0] <= 0 or ep.values[-1] <= SINGULAR_FLOOR * ep.values[0]:
        raise SingularTotalScatter(
            f"total scatter is numerically singular at gamma={gamma} "
            f"(eigenvalues in [{ep.values[-1]:.3e}, {ep.values[0]:.3e}])"
        )
    T_isqrt = (ep.vectors / np.sqrt(ep.values)) @ ep.vectors.T
    P = symmetrize(T_isqrt @ Sb @ T_isqrt)
    epP = sym_eig(P)
    W = T_isqrt @ epP.vectors[:, :r]
    defect = np.linalg.norm(W.T @ St_g @ W - np.eye(r))
    if defect > 1e-8:
        raise InvariantViolation(f"whitened frame lost St-orthogonality ({defect:.3e})")
    return WhitenedFrame(columns=W, gen_values=epP.values, st_values=ep.values, r=r, gamma=float(gamma))


@dataclass(frozen=True)
class TraceRatioResult:
    """Fixed point of the trace-ratio iteration on the Stiefel manifold.

    ``residual`` is the stationarity defect |sum of the top-r eigenvalues of
    (Sb - lambda_star Sw)| evaluated on Frobenius-normalized inputs, so the
    1e-10 scale is meaningful regardless of the data's magnitude.
    """

    frame: Frame
    lambda_star: float
    iterations: int
    residual: float


def trace_ratio_stiefel(Sb, Sw, r, max_iter=500):
    """Maximize tr(W^T Sb W)/tr(W^T Sw W) over Stiefel frames.

    Classic alternating scheme: given lambda, W maximizes the trace of
    W^T (Sb - lambda Sw) W (a top-r eigenspace); given W, lambda is the
    objective value. The lambda sequence is non-decreasing and converges to
    the unique root of f(lambda) = sum of top-r eigenvalues of
    (Sb - lambda Sw). It stops once lambda moves by at most TRACE_RATIO_TOL
    and the stationarity residual is at most 1e-10.

    Raises
    ------
    NotConverged
        If max_iter is exceeded; the last iterate rides along on the error.
    """
    Sb = symmetrize(Sb)
    Sw = symmetrize(Sw)
    d = Sb.shape[0]
    if Sw.shape != Sb.shape:
        raise InvalidInput(f"shape mismatch: Sb {Sb.shape} vs Sw {Sw.shape}")
    if not 1 <= r <= d:
        raise InvalidInput(f"need 1 <= r <= d={d}, got r={r}")
    if max_iter < 1:
        raise InvalidInput(f"max_iter must be >= 1, got {max_iter}")
    scale = max(np.linalg.norm(Sb), np.linalg.norm(Sw))
    if scale <= 0:
        raise InvalidInput("both scatters vanish")
    Sb_n, Sw_n = Sb / scale, Sw / scale

    W = sym_eig(Sb_n).vectors[:, :r]
    lam = -np.inf
    for it in range(1, max_iter + 1):
        tb = float(np.trace(W.T @ Sb_n @ W))
        tw = float(np.trace(W.T @ Sw_n @ W))
        if tw <= 1e-300:
            raise InvalidInput(
                "within-scatter vanishes on the iterate span; trace ratio unbounded"
            )
        lam_new = tb / tw
        if lam_new < lam - 1e-10 * max(1.0, abs(lam)):
            raise InvariantViolation(
                f"trace-ratio iteration decreased: {lam!r} -> {lam_new!r}"
            )
        ep = sym_eig(Sb_n - lam_new * Sw_n)
        W = ep.vectors[:, :r]
        residual = abs(float(ep.values[:r].sum()))
        converged = lam > -np.inf and abs(lam_new - lam) <= TRACE_RATIO_TOL and residual <= 1e-10
        lam = lam_new
        if converged:
            return TraceRatioResult(
                frame=Frame(W), lambda_star=lam, iterations=it, residual=residual,
            )
    raise NotConverged(
        f"trace-ratio iteration did not converge in {max_iter} steps",
        result=TraceRatioResult(
            frame=Frame(W), lambda_star=lam, iterations=max_iter, residual=residual,
        ),
    )


# ---------------------------------------------------------------------------
# divergence diagnostics
# ---------------------------------------------------------------------------


def commutativity_defect(Sb, St):
    """Normalized commutator size ||Sb St - St Sb||_F / (||Sb||_F ||St||_F).

    Zero iff the two matrices share an eigenbasis; invariant under separate
    positive rescaling of either matrix. Each matrix is first divided by the
    power of two nearest its Frobenius norm, so the commutator is formed from
    entries of order one and stays finite for any finite scatters; a power of
    two scales exactly, so wherever the unscaled formula does not overflow
    the value is the same to the last bit.
    """
    Sb = symmetrize(Sb)
    St = symmetrize(St)
    norm_b, norm_t = np.linalg.norm(Sb), np.linalg.norm(St)
    if norm_b == 0 or norm_t == 0:
        return 0.0
    Sb = np.ldexp(Sb, -np.frexp(norm_b)[1])
    St = np.ldexp(St, -np.frexp(norm_t)[1])
    denom = np.linalg.norm(Sb) * np.linalg.norm(St)
    return float(np.linalg.norm(Sb @ St - St @ Sb) / denom)


def ordering_consistent(Sb, St):
    """For commuting scatters: do their eigenvalue orderings agree?

    Returns None when the matrices do not commute (normalized defect above
    COMMUTE_TOL); otherwise True/False for whether sorting the shared
    eigenbasis by St eigenvalues descending also sorts the Sb eigenvalues
    descending. Ties are reported as consistent.
    """
    if commutativity_defect(Sb, St) > COMMUTE_TOL:
        return None
    ep = sym_eig(symmetrize(St))
    diag_b = np.einsum("ij,jk,ki->i", ep.vectors.T, symmetrize(Sb), ep.vectors)
    tol = 1e-10 * max(1.0, np.abs(diag_b).max())
    return bool(np.all(np.diff(diag_b) <= tol))


@dataclass(frozen=True)
class DavisKahanReport:
    angle: float
    bound: float
    holds: bool


def davis_kahan_check(U_hat, U_ref, pert_norm, gap):
    """Check a sin-theta perturbation bound: angle <= pert_norm / gap.

    ``holds`` is vacuously true when the bound exceeds one (the sine of any
    angle is at most one). An infinite gap (a cut at r = d) is valid; a NaN
    gap, or a perturbation norm that is NaN, infinite or negative, is not.
    """
    if np.isnan(gap):
        raise InvalidInput(f"gap must be a number, got {gap}")
    if gap <= 0:
        raise InvalidGap(f"need a positive gap, got {gap}")
    if not (np.isfinite(pert_norm) and pert_norm >= 0):
        raise InvalidInput(f"perturbation norm must be finite and >= 0, got {pert_norm}")
    angle = principal_angle_sin(U_hat, U_ref)
    bound = pert_norm / gap
    holds = bool(angle <= bound * (1 + 1e-8) or bound >= 1.0)
    return DavisKahanReport(angle=angle, bound=float(bound), holds=holds)


# ---------------------------------------------------------------------------
# ridge regularization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularizationRow:
    """Effect of one ridge level gamma on the discriminant structure."""

    gamma: float
    rank_sb: int
    kappa_sw_gamma: float
    kappa_infinite: bool
    gap_td: float


def regularization_report(ss, gammas, r):
    """Ridge sweep: rank of Sb, condition of Sw + gamma I, TD gap at r.

    The between-scatter rank never depends on gamma; it is counted from the
    d x L factor M of Sb = M M^T, whose squared singular values are those of
    Sb, with the cutoff ``numeric_rank(Sb)`` applies. The trace-difference
    matrix C = 2 Sb - St_ml merely shifts by -gamma I, so its gap at any cut
    is unchanged (each row recomputes it from a fresh eigenvalue solve as a
    check); the condition number strictly improves as gamma grows (unless Sw
    is already a multiple of the identity). Each computed condition number
    (lambda_max + gamma) / (lambda_min + gamma) carries three roundings, so
    about 3u relative error (u = eps / 2); a gamma step of a few ulps can
    leave it equal or round it up by an ulp. The check therefore raises only
    when it grows by more than a factor 1 + 8u.

    When d > n the scatter set carries ``range_basis``, an orthonormal d x n
    Q whose span holds the ranges of Sb, Sw and St_ml. Then C = Q Cq Q^T
    with Cq = Q^T C Q, so C - gamma I has the n eigenvalues of
    Cq - gamma I_n and d - n eigenvalues equal to -gamma exactly; likewise
    Sw has the eigenvalues of Swq = Q^T Sw Q and d - n zeros, so
    lambda_min(Sw) = min(lambda_min(Swq), 0). Each ridge row is then a
    checked n x n solve instead of a d x d one. The compression is
    certified once: the trace and the Frobenius norm of Cq and of Swq must
    match those of C and Sw within ``RECON_TOL * max(1, ||S||_F)``, the
    invariants and tolerance of ``sym_eigvals``, or InvariantViolation is
    raised ("range compression"). For an orthonormal Q, ||Q^T S Q||_F <=
    ||S||_F with equality exactly when S = Q Q^T S Q Q^T, and a norm defect
    delta bounds the part of S outside span(Q) by sqrt(2 ||S||_F delta) in
    Frobenius norm; for the PSD Sw the trace defect alone bounds that part's
    diagonal block at first order.

    A gamma so large that ||C - gamma I||_F^2 could overflow is rejected as
    InvalidInput before the sweep starts.
    """
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise InvalidInput("need at least one gamma")
    # false for NaN and infinities as well as for negative gammas
    if not all(0.0 <= g < np.inf for g in gammas):
        raise InvalidInput(f"gammas must be finite and >= 0: {gammas}")
    if any(b <= a for a, b in zip(gammas, gammas[1:])):
        raise InvalidInput(f"gammas must be strictly increasing: {gammas}")
    C = 2.0 * ss.Sb - ss.St_ml
    d = C.shape[0]
    if not 1 <= r < d:
        raise InvalidInput(f"need 1 <= r < d={d}, got r={r}")
    # ||C - gamma I||_F <= ||C||_F + sqrt(d) gamma; keep its square, which
    # every solve's norm check forms, 4 times below the largest double (the
    # comparison is arranged so that it cannot overflow itself)
    room = np.sqrt(np.finfo(float).max) / 2.0 - np.linalg.norm(C)
    if gammas[-1] > room / np.sqrt(d):
        raise InvalidInput(
            f"gamma {gammas[-1]!r} is too large: ||C - gamma I||_F^2 would overflow"
        )
    sv2 = np.linalg.svd(_as_float_matrix(ss.M, "M"), compute_uv=False) ** 2
    rank_sb = int(np.count_nonzero(sv2 > ss.M.shape[0] * np.finfo(float).eps * sv2[0]))
    Q = ss.range_basis
    if Q is None:
        sw_vals = sym_eigvals(ss.Sw)
        lam_min, lam_max = float(sw_vals[-1]), float(sw_vals[0])
    else:
        Cq, Swq = _compress(C, Q), _compress(ss.Sw, Q)
        sw_vals = sym_eigvals(Swq)
        # the d - n eigenvalues of Sw off span(Q) are zeros
        lam_min, lam_max = min(float(sw_vals[-1]), 0.0), max(float(sw_vals[0]), 0.0)
        n = Q.shape[1]
    rows = []
    finite = []  # kappa of each finite row
    for gamma in gammas:
        top, bot = lam_max + gamma, lam_min + gamma
        infinite = bot <= SINGULAR_FLOOR * max(top, 1e-300)
        kappa = np.inf if infinite else top / bot
        if not infinite:
            finite.append(kappa)
        if Q is None:
            vals = sym_eigvals(C - gamma * np.eye(d))
        else:
            off_range = np.full(d - n, -gamma)
            vals = np.sort(np.concatenate((sym_eigvals(Cq - gamma * np.eye(n)), off_range)))[::-1]
        rows.append(
            RegularizationRow(
                gamma=gamma,
                rank_sb=rank_sb,
                kappa_sw_gamma=float(kappa),
                kappa_infinite=bool(infinite),
                gap_td=float(vals[r - 1] - vals[r]),
            )
        )
    isotropic = abs(lam_max - lam_min) <= 1e-12 * max(lam_max, 1e-300)
    if not isotropic:
        slack = 1.0 + 8.0 * (np.finfo(float).eps / 2)
        for a, b in zip(finite, finite[1:]):
            if b > a * slack:
                raise InvariantViolation(
                    f"condition number failed to decrease: {a!r} -> {b!r}"
                )
    return rows


def _compress(S, Q):
    """Q^T S Q for an orthonormal Q whose span must hold the range of S.

    Raises InvariantViolation ("range compression") unless the trace and
    the Frobenius norm of the result match those of S within
    ``RECON_TOL * max(1, ||S||_F)``.
    """
    Sq = symmetrize(Q.T @ S @ Q)
    norm = np.linalg.norm(S)
    defect = max(abs(np.trace(Sq) - np.trace(S)), abs(np.linalg.norm(Sq) - norm))
    if defect > RECON_TOL * max(1.0, norm):
        raise InvariantViolation(
            f"range compression lost mass outside span(Q): invariant defect {defect:.3e}"
        )
    return Sq
