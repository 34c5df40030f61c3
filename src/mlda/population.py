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

from dataclasses import dataclass, field

import numpy as np

from .discriminant import SINGULAR_FLOOR, THETA_DUST, _theta_checked, opt_stml
from .errors import FLOAT_MAX, InvalidCovariance, InvalidInput, MissingLabel, check, count, real
from .spectral import _all_binary, _array, _finite, sym_eig, sym_eigvals, symmetrize


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
        bits = _array(bits, "pattern", ndim=1)
        if L is None:
            L = bits.shape[0]
        if bits.shape != (L,):
            raise InvalidInput(f"pattern shape {bits.shape} != ({L},)")
        if not _all_binary(bits):
            raise InvalidInput("pattern entries must be 0 or 1")
        if bits.sum() == 0:
            raise InvalidInput("pattern with no labels is not allowed")
        prob = real("pattern probability", prob, low=0)
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

    Two read-only fields come from the one solve that checks Sigma_w is PSD;
    they are not constructor arguments:

    noise_values : (d,) ndarray
        The spectrum of Sigma_w, descending. A diagonal Sigma_w is read off
        its diagonal with no solve; any other takes one ``sym_eig``.
    noise_factor : (d,) or (d, d) ndarray
        The symmetric square root of Sigma_w, negative rounding dust clipped
        to zero: the vector sqrt(diag) for a diagonal Sigma_w, otherwise
        V diag(sqrt(lambda)) V^T from the same solve.
    """

    mu: np.ndarray
    A: np.ndarray
    Sigma_w: np.ndarray
    B_inter: np.ndarray = None
    noise_values: np.ndarray = field(init=False)
    noise_factor: np.ndarray = field(init=False)

    def __post_init__(self):
        mu, A, S = _finite(mu=self.mu, A=self.A, Sigma_w=self.Sigma_w)
        if mu.ndim != 1 or A.ndim != 2 or A.shape[0] != mu.shape[0]:
            raise InvalidInput(
                f"inconsistent shapes: mu {mu.shape}, A {A.shape}"
            )
        if S.shape != (mu.shape[0], mu.shape[0]):
            raise InvalidInput(f"Sigma_w shape {S.shape} != ({mu.shape[0]},)*2")
        B = self.B_inter
        if B is not None:
            (B,) = _finite(B_inter=B)
            L = A.shape[1]
            want = L * (L - 1) // 2
            if B.shape != (A.shape[0], want):
                raise InvalidInput(
                    f"B_inter shape {B.shape} != ({A.shape[0]}, {want})"
                )
        _check_magnitude(A, S, B)
        diag = S.diagonal()
        if np.count_nonzero(S) == np.count_nonzero(diag):
            # every off-diagonal entry is zero, so S is exactly symmetric and
            # needs no symmetrized copy; the spectrum of a diagonal matrix is
            # its diagonal and a permutation basis diagonalizes it, so the
            # factor is elementwise: a GEMM against the full factor adds only
            # exact zeros, and no O(d^3) solve runs
            evals = np.sort(diag)[::-1]
            factor = np.sqrt(np.clip(diag, 0.0, None))
        else:
            if np.linalg.norm(S - S.T) > 1e-10 * max(1.0, np.linalg.norm(S)):
                raise InvalidCovariance("Sigma_w is not symmetric")
            S = symmetrize(S)
            ep = sym_eig(S)
            evals = ep.values
            factor = (ep.vectors * np.sqrt(np.clip(evals, 0.0, None))) @ ep.vectors.T
        if evals[-1] < -1e-10 * max(1.0, evals[0]):
            raise InvalidCovariance(f"Sigma_w has negative eigenvalue {evals[-1]:.3e}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Sigma_w", S)
        object.__setattr__(self, "B_inter", B)
        object.__setattr__(self, "noise_values", evals)
        object.__setattr__(self, "noise_factor", factor)

    @property
    def d(self):
        return self.A.shape[0]

    @property
    def L(self):
        return self.A.shape[1]


def _check_magnitude(A, Sigma_w, B_inter):
    """Reject a model whose second moments could overflow, as InvalidInput.

    Every entry of A and B_inter, and the square root of every entry of
    Sigma_w, must be at most m = max^(1/4) / (4 sqrt(w d)), with w = L +
    L(L-1)/2 the number of effect columns and max the largest double. Then
    an entry of Sigma_w, of A D_pi A^T or of K_pop Sigma_w is at most w m^2,
    and their squared Frobenius norms, which the symmetry check and the
    population scatters form, at most (w d m^2)^2 = max / 256. Only
    magnitudes are compared, so nothing here can overflow.
    """
    d, w = A.shape[0], A.shape[1] + (0 if B_inter is None else B_inter.shape[1])
    bound = np.finfo(float).max ** 0.25 / (4.0 * np.sqrt(max(w * d, 1)))
    limits = (("A", A, bound), ("Sigma_w", Sigma_w, bound * bound), ("B_inter", B_inter, bound))
    for name, M, limit in limits:
        if M is None or not M.size:
            continue
        peak = max(M.max(), -M.min())
        if peak > limit:
            raise InvalidInput(
                f"{name} magnitude {peak:.3e} exceeds {limit:.3e}; "
                "the model's scatters would overflow"
            )


def isotropic_params(mu, A, sigma_w, B_inter=None):
    """Convenience constructor with Sigma_w = sigma_w^2 I.

    sigma_w must be a finite real. A variance that overflows becomes an
    infinite diagonal, which ``ModelParams`` rejects as non-finite
    (``InvalidInput``).
    """
    A = _array(A, "A", float, ndim=2)
    sigma_w = real("sigma_w", sigma_w, -FLOAT_MAX, FLOAT_MAX)
    # the product rounds to inf where ``**`` raises OverflowError; np.diag keeps
    # that inf off the zeros, where inf * 0 would be a NaN and a warning
    return ModelParams(
        mu=mu, A=A, Sigma_w=np.diag(np.full(A.shape[0], sigma_w * sigma_w)), B_inter=B_inter,
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
    Sw_evals = params.noise_values
    if Sw_evals[-1] <= SINGULAR_FLOOR * max(Sw_evals[0], 1e-300):
        raise InvalidCovariance(
            f"Sigma_w must be positive definite (min eigenvalue {Sw_evals[-1]:.3e})"
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
    M_star_c = symmetrize(A @ Q_pi @ A.T - Sw_pop)
    Sb_inf = symmetrize(A @ B_pi @ A.T)
    Swc_pop = symmetrize(A @ W_pi @ A.T + Sw_pop)
    St_inf = symmetrize(Sb_inf + Swc_pop)

    if dist.is_single_label():
        check("single-label max|W_pi|", np.abs(W_pi).max(), 0.0)
        direct = symmetrize(np.diag(pi) - np.outer(pi, pi))
        defect = np.linalg.norm(Q_pi - direct)
        check("single-label Q_pi defect", defect, 1e-13 * max(1.0, np.linalg.norm(direct)))
        reduced = symmetrize(M_star - A @ np.outer(pi, pi) @ A.T)
        rdefect = np.linalg.norm(M_star_c - reduced)
        check("single-label M_star_c defect", rdefect, 1e-12 * max(1.0, np.linalg.norm(reduced)))

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
    its eigenvalues theta lie in [0, 1). ``kappa_St_inf`` and ``lam_min_St_inf``
    come from the same solve. ``degenerate`` flags a tied gap (Delta_r == 0
    within floor); no interpretation is attached to ties.
    """

    r: int
    eigvals_M_star_c: np.ndarray
    gap_r: float
    theta: np.ndarray
    Delta_r: float
    kappa_St_inf: float
    lam_min_St_inf: float
    degenerate: bool


def gaps(pop, r):
    """Gap report of a population at rank r (1-based, r < d).

    One solve, ``opt_stml(Sb_inf, St_inf, r)``, gives theta (``gen_values``)
    and the spectrum of St_inf (``st_values``); a singular St_inf raises
    SingularTotalScatter. Whitening errs by about u kappa(St_inf) (Golub & Van
    Loan, Matrix Computations, sec. 8.7), so theta in [-max(THETA_DUST,
    d eps kappa), 0) reads as 0; any other theta outside [0, 1) raises.
    """
    d = pop.St_inf.shape[0]
    r = count("r", r, high=d - 1)
    vals_c = sym_eigvals(pop.M_star_c)
    gap_r = float(vals_c[r - 1] - vals_c[r])

    frame = opt_stml(pop.Sb_inf, pop.St_inf, r)
    lam_max, lam_min = float(frame.st_values[0]), float(frame.st_values[-1])
    kappa = lam_max / lam_min
    theta = _theta_checked(frame.gen_values, max(THETA_DUST, d * np.finfo(float).eps * kappa))
    Delta_r = float(theta[r - 1] - theta[r])
    return GapReport(
        r=r,
        eigvals_M_star_c=vals_c,
        gap_r=gap_r,
        theta=theta,
        Delta_r=Delta_r,
        kappa_St_inf=kappa,
        lam_min_St_inf=lam_min,
        degenerate=bool(Delta_r <= 1e-12),
    )


def gamma_norm(labels):
    """Spectral norm of the normalized co-occurrence matrix Y^T Y / n.

    For single-label data this equals max_ell n_ell / n exactly (the matrix
    is diagonal); genuine co-occurrence adds off-diagonal mass and makes it
    strictly larger than that diagonal maximum.
    """
    G = (labels.bits.T @ labels.bits).astype(float) / labels.n
    return float(sym_eigvals(G)[0])
