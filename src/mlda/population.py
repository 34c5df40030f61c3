"""Population quantities of the linear label-effect model.

The model is x = mu + A y + eps with label pattern y drawn from a finite
distribution over binary vectors and eps ~ (0, Sigma_w). Everything here is
computed by exact enumeration over the pattern support - no sampling - so the
derived matrices serve as ground truth for the finite-sample estimators.

Two families of population scatters appear:

* the naive references Sb_pop = A D_pi A^T and Sw_pop = K_pop Sigma_w, whose
  difference M_star ignores label centering and co-occurrence;
* the centered/co-occurrence-aware references built from the label moments
  B_pi (between), W_pi (within), Q_pi = B_pi - W_pi (net), which give the
  centered discriminant M_star_c = A Q_pi A^T - K_pop Sigma_w and the limits
  Sb_inf = A B_pi A^T, St_inf = Sb_inf + A W_pi A^T + K_pop Sigma_w.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidCovariance,
    InvalidInput,
    InvariantViolation,
    MissingLabel,
    SingularTotalScatter,
)
from .spectral import sym_eig, symmetrize

# Eigenvalue floor for whitening: below this (relative) the matrix is singular.
WHITEN_FLOOR = 1e-12


@dataclass(frozen=True)
class LabelDistribution:
    """Finite distribution over binary label patterns, with exact moments.

    Attributes
    ----------
    patterns : (m, L) ndarray of {0, 1}
    probs : (m,) ndarray, summing to one
    pi : (L,) ndarray
        Marginal label probabilities, all > 0.
    C : (L, L) ndarray
        Second moment E[y y^T]; diagonal equals pi.
    Sigma_y : (L, L) ndarray
        Covariance C - pi pi^T.
    cond_cov : (L, L, L) ndarray
        cond_cov[ell] = Cov(y | y_ell = 1).
    K_pop : float
        Expected cardinality, sum of pi.
    """

    patterns: np.ndarray
    probs: np.ndarray
    pi: np.ndarray
    C: np.ndarray
    Sigma_y: np.ndarray
    cond_cov: np.ndarray
    K_pop: float

    @property
    def L(self):
        return self.patterns.shape[1]

    def is_single_label(self):
        return bool((self.patterns.sum(axis=1) == 1).all())


def label_moments(patterns):
    """Exact first/second/conditional moments of a finite pattern distribution.

    Parameters
    ----------
    patterns : sequence of (bits, prob) pairs
        ``bits`` is a binary vector of a fixed length L; duplicate patterns
        are merged by summing their probabilities.

    Raises
    ------
    MissingLabel
        If some label has zero marginal probability.
    """
    if not patterns:
        raise InvalidInput("pattern list is empty")
    merged = {}
    L = None
    for bits, prob in patterns:
        bits = np.asarray(bits)
        if L is None:
            L = bits.shape[0]
        if bits.shape != (L,):
            raise InvalidInput(f"pattern shape {bits.shape} != ({L},)")
        if not np.isin(bits, (0, 1)).all():
            raise InvalidInput("pattern entries must be 0 or 1")
        if bits.sum() == 0:
            raise InvalidInput("pattern with no labels is not allowed")
        prob = float(prob)
        if prob < 0:
            raise InvalidInput(f"negative pattern probability {prob}")
        key = tuple(int(b) for b in bits)
        merged[key] = merged.get(key, 0.0) + prob
    P = np.array(sorted(merged), dtype=float)
    probs = np.array([merged[tuple(int(b) for b in row)] for row in P])
    total = probs.sum()
    if abs(total - 1.0) > 1e-12:
        raise InvalidInput(f"pattern probabilities sum to {total!r}, not 1")

    pi = probs @ P
    if (pi <= 0).any():
        dead = np.flatnonzero(pi <= 0)
        raise MissingLabel(f"labels with zero probability: {dead.tolist()}")
    C = symmetrize((P.T * probs) @ P)
    Sigma_y = symmetrize(C - np.outer(pi, pi))

    cond_cov = np.zeros((L, L, L))
    for ell in range(L):
        mask = P[:, ell] == 1
        w = probs[mask] / pi[ell]
        Pl = P[mask]
        m = w @ Pl
        second = (Pl.T * w) @ Pl
        cond_cov[ell] = symmetrize(second - np.outer(m, m))

    return LabelDistribution(
        patterns=P.astype(np.int64),
        probs=probs,
        pi=pi,
        C=C,
        Sigma_y=Sigma_y,
        cond_cov=cond_cov,
        K_pop=float(pi.sum()),
    )


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the (optionally interaction-extended) label-effect model.

    Attributes
    ----------
    mu : (d,) ndarray
    A : (d, L) ndarray
        Per-label mean offsets (columns).
    Sigma_w : (d, d) ndarray
        Noise covariance; symmetric PSD here, strictly PD where population
        theory requires it.
    B_inter : (d, L*(L-1)/2) ndarray or None
        Optional pairwise-interaction effects, columns in lexicographic pair
        order (1,2), (1,3), ..., (2,3), ...
    sigma : float
        Sub-Gaussian noise scale used by the statistical bound shapes;
        defaults to sqrt(lambda_max(Sigma_w)).
    """

    mu: np.ndarray
    A: np.ndarray
    Sigma_w: np.ndarray
    B_inter: np.ndarray = None
    sigma: float = None

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        A = np.asarray(self.A, dtype=float)
        S = np.asarray(self.Sigma_w, dtype=float)
        if mu.ndim != 1 or A.ndim != 2 or A.shape[0] != mu.shape[0]:
            raise InvalidInput(
                f"inconsistent shapes: mu {mu.shape}, A {A.shape}"
            )
        if S.shape != (mu.shape[0], mu.shape[0]):
            raise InvalidInput(f"Sigma_w shape {S.shape} != ({mu.shape[0]},)*2")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(A)) and np.all(np.isfinite(S))):
            raise InvalidInput("model parameters contain non-finite entries")
        if np.linalg.norm(S - S.T) > 1e-10 * max(1.0, np.linalg.norm(S)):
            raise InvalidCovariance("Sigma_w is not symmetric")
        S = symmetrize(S)
        diag = np.diag(S)
        if np.array_equal(S, np.diag(diag)):
            # the spectrum of a diagonal matrix is its diagonal; eigvalsh
            # returns exactly sort(diag), so only the O(d^3) solve is skipped
            evals = np.sort(diag)
        else:
            evals = np.linalg.eigvalsh(S)
        if evals.min() < -1e-10 * max(1.0, evals.max()):
            raise InvalidCovariance(f"Sigma_w has negative eigenvalue {evals.min():.3e}")
        B = self.B_inter
        if B is not None:
            B = np.asarray(B, dtype=float)
            L = A.shape[1]
            want = L * (L - 1) // 2
            if B.shape != (A.shape[0], want):
                raise InvalidInput(
                    f"B_inter shape {B.shape} != ({A.shape[0]}, {want})"
                )
            if not np.all(np.isfinite(B)):
                raise InvalidInput("B_inter contains non-finite entries")
        sigma = self.sigma
        if sigma is None:
            sigma = float(np.sqrt(max(evals.max(), 0.0)))
        elif sigma < 0:
            raise InvalidInput(f"sigma must be >= 0, got {sigma}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Sigma_w", S)
        object.__setattr__(self, "B_inter", B)
        object.__setattr__(self, "sigma", float(sigma))

    @property
    def d(self):
        return self.A.shape[0]

    @property
    def L(self):
        return self.A.shape[1]


def isotropic_params(mu, A, sigma_w, B_inter=None):
    """Convenience constructor with Sigma_w = sigma_w^2 I."""
    A = np.asarray(A, dtype=float)
    return ModelParams(
        mu=mu, A=A, Sigma_w=(sigma_w ** 2) * np.eye(A.shape[0]),
        B_inter=B_inter, sigma=float(sigma_w),
    )


@dataclass(frozen=True)
class PopulationScatters:
    """Population scatter references of the label-effect model."""

    Sb_pop: np.ndarray
    Sw_pop: np.ndarray
    St_ml_pop: np.ndarray
    M_star: np.ndarray
    B_pi: np.ndarray
    W_pi: np.ndarray
    Q_pi: np.ndarray
    M_star_c: np.ndarray
    Sb_inf: np.ndarray
    Swc_pop: np.ndarray
    St_inf: np.ndarray


def population_scatters(params, dist):
    """Assemble all population scatter matrices from exact label moments.

    Raises
    ------
    InvalidCovariance
        If Sigma_w is not strictly positive definite (the population theory
        needs an invertible noise floor).
    """
    if params.L != dist.L:
        raise InvalidInput(f"A has {params.L} labels but distribution has {dist.L}")
    Sw_evals = np.linalg.eigvalsh(params.Sigma_w)
    if Sw_evals.min() <= WHITEN_FLOOR * max(Sw_evals.max(), 1e-300):
        raise InvalidCovariance(
            f"Sigma_w must be positive definite (min eigenvalue {Sw_evals.min():.3e})"
        )
    A = params.A
    pi = dist.pi
    K_pop = dist.K_pop

    Sb_pop = symmetrize((A * pi) @ A.T)
    Sw_pop = K_pop * params.Sigma_w
    St_ml_pop = symmetrize(Sb_pop + Sw_pop)
    M_star = symmetrize(Sb_pop - Sw_pop)

    B_pi = symmetrize(dist.Sigma_y @ np.diag(1.0 / pi) @ dist.Sigma_y)
    W_pi = symmetrize(np.einsum("l,lij->ij", pi, dist.cond_cov))
    Q_pi = B_pi - W_pi
    M_star_c = symmetrize(A @ Q_pi @ A.T - K_pop * params.Sigma_w)
    Sb_inf = symmetrize(A @ B_pi @ A.T)
    Swc_pop = symmetrize(A @ W_pi @ A.T + K_pop * params.Sigma_w)
    St_inf = symmetrize(Sb_inf + Swc_pop)

    if dist.is_single_label():
        if np.abs(W_pi).max() > 0.0:
            raise InvariantViolation("single-label distribution produced nonzero W_pi")
        direct = symmetrize(np.diag(pi) - np.outer(pi, pi))
        defect = np.linalg.norm(Q_pi - direct)
        if defect > 1e-13 * max(1.0, np.linalg.norm(direct)):
            raise InvariantViolation(
                f"single-label Q_pi defect {defect:.3e} vs diag(pi) - pi pi^T"
            )
        reduced = symmetrize(M_star - A @ np.outer(pi, pi) @ A.T)
        rdefect = np.linalg.norm(M_star_c - reduced)
        if rdefect > 1e-12 * max(1.0, np.linalg.norm(reduced)):
            raise InvariantViolation(f"single-label M_star_c defect {rdefect:.3e}")

    return PopulationScatters(
        Sb_pop=Sb_pop, Sw_pop=Sw_pop, St_ml_pop=St_ml_pop, M_star=M_star,
        B_pi=B_pi, W_pi=W_pi, Q_pi=Q_pi, M_star_c=M_star_c,
        Sb_inf=Sb_inf, Swc_pop=Swc_pop, St_inf=St_inf,
    )


@dataclass(frozen=True)
class GapReport:
    """Spectral gaps governing identifiability and estimation difficulty.

    ``gap_r`` is the eigenvalue gap of the centered discriminant M_star_c at
    rank r (scale-dependent: quadratic in the size of A). ``Delta_r`` is the
    generalized eigenvalue gap of (Sb_inf, St_inf), which is scale-invariant;
    its eigenvalues theta lie in [0, 1). ``degenerate`` flags a tied gap
    (Delta_r == 0 within floor); no interpretation is attached to ties.
    """

    r: int
    eigvals_M_star_c: np.ndarray
    gap_r: float
    theta: np.ndarray
    Delta_r: float
    kappa_St_inf: float
    lam_min_St_inf: float
    degenerate: bool


def whiten_inverse_sqrt(S):
    """Inverse symmetric square root of a PD matrix (raises if singular)."""
    ep = sym_eig(S)
    lam_max = ep.values[0]
    if lam_max <= 0 or ep.values[-1] <= WHITEN_FLOOR * lam_max:
        raise SingularTotalScatter(
            f"matrix is numerically singular (eigenvalues in "
            f"[{ep.values[-1]:.3e}, {lam_max:.3e}])"
        )
    return (ep.vectors / np.sqrt(ep.values)) @ ep.vectors.T


def gaps(pop, r):
    """Gap report of a population at rank r (1-based, r < d).

    The generalized eigenvalues theta of (Sb_inf, St_inf) come from the
    whitened matrix St_inf^{-1/2} Sb_inf St_inf^{-1/2}; negatives within
    -1e-12 are snapped to zero, and any theta outside [0, 1) raises.
    """
    d = pop.St_inf.shape[0]
    if not 1 <= r < d:
        raise InvalidInput(f"need 1 <= r < d={d}, got r={r}")
    vals_c = sym_eig(pop.M_star_c).values
    gap_r = float(vals_c[r - 1] - vals_c[r])

    st_vals = np.linalg.eigvalsh(pop.St_inf)
    lam_min, lam_max = float(st_vals[0]), float(st_vals[-1])
    T_isqrt = whiten_inverse_sqrt(pop.St_inf)
    P = symmetrize(T_isqrt @ pop.Sb_inf @ T_isqrt)
    theta = sym_eig(P).values
    theta[(theta < 0) & (theta > -1e-12)] = 0.0
    if theta.min() < 0 or theta.max() >= 1.0:
        raise InvariantViolation(
            f"generalized eigenvalues escaped [0, 1): "
            f"[{theta.min():.3e}, {theta.max():.17g}]"
        )
    Delta_r = float(theta[r - 1] - theta[r])
    return GapReport(
        r=r,
        eigvals_M_star_c=vals_c,
        gap_r=gap_r,
        theta=theta,
        Delta_r=Delta_r,
        kappa_St_inf=lam_max / lam_min,
        lam_min_St_inf=lam_min,
        degenerate=bool(Delta_r <= 1e-12),
    )


def gamma_norm(labels):
    """Spectral norm of the normalized co-occurrence matrix Y^T Y / n.

    For single-label data this equals max_ell n_ell / n exactly (the matrix
    is diagonal); genuine co-occurrence adds off-diagonal mass and makes it
    strictly larger than that diagonal maximum.
    """
    G = labels.gram.astype(float) / labels.n
    return float(np.linalg.eigvalsh(symmetrize(G)).max())


# ---------------------------------------------------------------------------
# JSON-friendly constructors (used by the experiment configs)
# ---------------------------------------------------------------------------

def model_from_dict(spec):
    """Build ModelParams from a plain dict (e.g. parsed JSON).

    Recognized keys: ``mu``, ``A``, and either ``Sigma_w`` or ``sigma_w``
    (isotropic shorthand); optional ``B_inter`` and ``sigma``.
    """
    try:
        mu = np.asarray(spec["mu"], dtype=float)
        A = np.asarray(spec["A"], dtype=float)
    except KeyError as exc:
        raise InvalidInput(f"model spec missing key {exc}") from exc
    if "Sigma_w" in spec:
        Sigma_w = np.asarray(spec["Sigma_w"], dtype=float)
    elif "sigma_w" in spec:
        Sigma_w = float(spec["sigma_w"]) ** 2 * np.eye(A.shape[0])
    else:
        raise InvalidInput("model spec needs Sigma_w or sigma_w")
    B = spec.get("B_inter")
    if B is not None:
        B = np.asarray(B, dtype=float)
    sigma = spec.get("sigma")
    if sigma is None and "sigma_w" in spec:
        sigma = float(spec["sigma_w"])
    return ModelParams(mu=mu, A=A, Sigma_w=Sigma_w, B_inter=B, sigma=sigma)


def patterns_from_dict(spec):
    """Build a LabelDistribution from {"pattern string": prob} or pair list.

    Pattern strings are fixed-length 0/1 strings, e.g. {"10": 0.4, "01": 0.4,
    "11": 0.2}; a list of [bits, prob] pairs is also accepted.
    """
    if isinstance(spec, dict):
        pairs = [([int(ch) for ch in key], prob) for key, prob in sorted(spec.items())]
    else:
        pairs = [(bits, prob) for bits, prob in spec]
    return label_moments(pairs)
