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
    FLOAT_MAX,
    InvalidGap,
    InvalidInput,
    InvariantViolation,
    NotConverged,
    SingularTotalScatter,
    check,
    count,
    real,
)
from .spectral import (
    RECON_TOL,
    Frame,
    _array,
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


def _projected(W, S, name):
    return symmetrize(W.T @ _array(S, name, float, ndim=2) @ W)


def eval_objectives(W, Sb, Sw):
    """Evaluate all four Fisher objectives at a projection W.

    W need not be orthonormal (total-scatter-orthogonal frames are not).
    Singularity of the projected within-scatter is reported through flags,
    never exceptions. The determinant ratio is computed in log space.
    """
    W = _array(W, "W", float, ndim=2)
    Wb = _projected(W, Sb, "Sb")
    Ww = _projected(W, Sw, "Sw")
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
    theta = _array(theta, "theta", float)
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
    C = symmetrize(C)
    d = C.shape[0]
    r = count("r", r, high=d)
    ep = sym_eig(C)
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
        Optional ridge, finite and >= 0, added to St_total before whitening.

    Raises
    ------
    SingularTotalScatter
        If St_total + gamma I is numerically singular.
    """
    gamma = real("gamma", gamma, 0, FLOAT_MAX)
    Sb = symmetrize(Sb)
    St = symmetrize(St_total)
    d = St.shape[0]
    r = count("r", r, high=d)
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
    check("whitened frame St-orthogonality defect", defect, 1e-8)
    return WhitenedFrame(columns=W, gen_values=epP.values, st_values=ep.values, r=r, gamma=gamma)


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
    r = count("r", r, high=d)
    max_iter = count("max_iter", max_iter)
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
        check(
            "trace-ratio iteration decreased (lambda - slack vs next lambda)",
            lam - 1e-10 * max(1.0, abs(lam)), lam_new,
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
    gap = real("gap", gap)
    if gap <= 0:
        raise InvalidGap(f"need a positive gap, got {gap}")
    pert_norm = real("pert_norm", pert_norm, 0, FLOAT_MAX)
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

    The between-scatter rank never depends on gamma; each row reports
    ``ss.rank_sb``, the count ``rank_analysis`` reads too. The
    trace-difference matrix C = 2 Sb - St_ml merely shifts by -gamma I, so
    its gap at any cut is unchanged (each row recomputes it from a fresh
    eigenvalue solve as a check); the condition number strictly improves as
    gamma grows (unless Sw is already a multiple of the identity). Each
    computed condition number (lambda_max + gamma) / (lambda_min + gamma)
    carries three roundings, so about 3u relative error (u = eps / 2); a
    gamma step of a few ulps can leave it equal or round it up by an ulp.
    The check therefore raises only when it grows by more than a factor
    1 + 8u.

    When d > n the report solves on ``ss.on_range``, the n x n scatters S_q
    whose lifts Q S_q Q^T (Q = ``ss.range_basis``) are the d x d fields (see
    ``mlda.scatter``): C - gamma I has the eigenvalues of Cq - gamma I_n,
    with Cq = 2 Sb_q - St_ml_q, and d - n more equal to -gamma; Sw has those
    of Sw_q and d - n zeros. It first checks that the d x d fields are
    still those lifts ("range compression", InvariantViolation): Q must
    have n columns, and C and Sw the Frobenius norm and the trace of Cq and
    Sw_q, to the tolerance of ``sym_eigvals``. Without ``range_basis`` or
    ``on_range`` every solve is d x d.

    A gamma so large that ||C - gamma I||_F^2 could overflow is rejected as
    InvalidInput before the sweep starts.
    """
    gammas = _array(gammas, "gammas", ndim=1)
    gammas = [real(f"gammas[{i}]", g, 0, FLOAT_MAX) for i, g in enumerate(gammas)]
    if not gammas:
        raise InvalidInput("need at least one gamma")
    if any(b <= a for a, b in zip(gammas, gammas[1:])):
        raise InvalidInput(f"gammas must be strictly increasing: {gammas}")
    C = 2.0 * ss.Sb
    C -= ss.St_ml
    d = C.shape[0]
    r = count("r", r, high=d - 1)
    # ||C - gamma I||_F <= ||C||_F + sqrt(d) gamma; keep its square, which
    # every solve's norm check forms, 4 times below the largest double (the
    # comparison is arranged so that it cannot overflow itself)
    room = np.sqrt(np.finfo(float).max) / 2.0 - np.linalg.norm(C)
    if gammas[-1] > room / np.sqrt(d):
        raise InvalidInput(
            f"gamma {gammas[-1]!r} is too large: ||C - gamma I||_F^2 would overflow"
        )
    Q = ss.range_basis
    sq = ss if Q is None or ss.on_range is None else ss.on_range
    m = sq.Sw.shape[0]
    zeros = d - m  # eigenvalues -gamma of C - gamma I, and 0 of Sw, off the range
    Cq = C
    if sq is not ss:
        check("range compression: basis shape mismatch", int(Q.shape != (d, m)), 0)
        Cq = 2.0 * sq.Sb - sq.St_ml
        _check_lift("C", C, Cq)
        _check_lift("Sw", ss.Sw, sq.Sw)
    rank_sb = ss.rank_sb
    sw_vals = sym_eigvals(sq.Sw)
    lam_min, lam_max = float(sw_vals[-1]), float(sw_vals[0])
    if zeros:
        lam_min = min(lam_min, 0.0)
    rows = []
    finite = []  # kappa of each finite row
    for gamma in gammas:
        top, bot = lam_max + gamma, lam_min + gamma
        infinite = bot <= SINGULAR_FLOOR * max(top, 1e-300)
        kappa = np.inf if infinite else top / bot
        if not infinite:
            finite.append(kappa)
        vals = sym_eigvals(Cq - gamma * np.eye(m))
        vals = np.sort(np.concatenate((vals, np.full(zeros, -gamma))))[::-1]
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
            check("condition number failed to decrease (next kappa vs kappa * slack)", b, a * slack)
    return rows


def _check_lift(name, S, Sq):
    """Raise InvariantViolation ("range compression") unless the d-space
    matrix S has the Frobenius norm and the trace of its counterpart Sq on
    the range, within ``RECON_TOL * max(1, ||S||_F)``.

    A lift Q Sq Q^T with orthonormal Q keeps both: they are the invariants
    sum(lambda) and sqrt(sum(lambda^2)) that ``sym_eigvals`` checks, so the
    eigenvalues solved on Sq pass the check a solve of S would apply. A NaN
    anywhere fails it.
    """
    norm = np.linalg.norm(S)
    defect = max(abs(norm - np.linalg.norm(Sq)), abs(np.trace(S) - np.trace(Sq)))
    check(f"range compression: {name} lift invariant defect", defect, RECON_TOL * max(1.0, norm))
