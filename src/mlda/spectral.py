"""Dense symmetric eigen-toolbox with deterministic conventions.

Thin layer over LAPACK (via numpy.linalg) that pins down the conventions the
rest of the library relies on: descending eigenvalue order, a reproducible
sign for every eigenvector, a documented singular-value cutoff for numeric
rank, and clamped principal angles between subspaces.

Two routes solve a symmetric eigenproblem. ``sym_eig`` returns eigenvectors
and checks the O(d^3) reconstruction V diag(lambda) V^T = S. ``sym_eigvals``
is the values-only route for callers that never read eigenvectors: it skips
them and checks two O(d^2) spectral invariants instead, sum(lambda) = tr S
and sqrt(sum(lambda^2)) = ||S||_F, against the same RECON_TOL.
Every eigenvalue in mlda comes from these two routes, and no other module
calls a numpy eigensolver; a caller that reads no eigenvectors uses sym_eigvals.

Every array argument of the library goes through one coercion, ``_array``
(``_finite`` when its entries must be finite); each caller then checks the
shapes it needs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, RankDeficient, check, count, real

# Frobenius tolerance for "these columns are orthonormal" checks.
ORTHO_TOL = 1e-10
# Relative tolerance for eigendecomposition reconstruction checks.
RECON_TOL = 1e-8


def _array(value, name, dtype=None, ndim=None):
    """``np.asarray(value, dtype)``, with a value that does not convert (a
    ragged list, a string for a number) or, when ``ndim`` is given, one of
    another ndim raised as InvalidInput naming ``name``."""
    try:
        a = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{name} is not a rectangular numeric array: {exc}") from None
    if ndim is not None and a.ndim != ndim:
        raise InvalidInput(f"{name} must be {ndim}-D, got shape {a.shape}")
    return a


def _finite(**arrays):
    """Each keyword's value as a float array (``_array``); a NaN or infinity
    is InvalidInput naming the keyword."""
    out = []
    for name, value in arrays.items():
        value = _array(value, name, float)
        if not np.isfinite(value).all():
            raise InvalidInput(f"{name} contains non-finite entries")
        out.append(value)
    return out


def _as_float_matrix(M, name="matrix"):
    """Validate and return a finite 2-D float array."""
    M = _array(M, name, float, ndim=2)
    if M.size == 0:
        raise InvalidInput(f"{name} is empty (shape {M.shape})")
    if not np.all(np.isfinite(M)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return M


def _all_binary(a):
    """Whether every entry of the array ``a`` equals 0 or 1.

    Accepts and rejects exactly what ``np.isin(a, (0, 1)).all()`` does, at
    the cost of two elementwise comparisons.
    """
    return bool(((a == 0) | (a == 1)).all())


def symmetrize(S):
    """Return the exactly symmetric part (S + S^T) / 2 of a square matrix.

    Floating-point addition is commutative, so the result is bitwise
    symmetric, not just symmetric up to rounding.
    """
    S = _as_float_matrix(S, "S")
    if S.shape[0] != S.shape[1]:
        raise InvalidInput(f"S must be square, got shape {S.shape}")
    return 0.5 * (S + S.T)


@dataclass(frozen=True)
class Frame:
    """Orthonormal basis of an r-dimensional subspace of R^d.

    Attributes
    ----------
    columns : (d, r) ndarray
        Orthonormal columns, ``columns.T @ columns == I_r`` to ORTHO_TOL.
    """

    columns: np.ndarray

    def __post_init__(self):
        cols = _as_float_matrix(self.columns, "frame columns")
        d, r = cols.shape
        if r > d:
            raise InvalidInput(f"frame rank {r} exceeds ambient dimension {d}")
        defect = np.linalg.norm(cols.T @ cols - np.eye(r))
        if defect > ORTHO_TOL:
            raise InvalidInput(
                f"columns are not orthonormal (defect {defect:.3e} > {ORTHO_TOL:.0e})"
            )
        object.__setattr__(self, "columns", cols)

    @property
    def ambient_dim(self):
        return self.columns.shape[0]

    @property
    def rank(self):
        return self.columns.shape[1]


@dataclass(frozen=True)
class EigenPair:
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray

    def top(self, r):
        """Frame spanned by the r leading eigenvectors."""
        return Frame(self.vectors[:, : count("r", r, high=self.vectors.shape[1])])


def _fix_signs(V):
    """Flip eigenvector signs so the largest-magnitude entry is positive.

    Ties in magnitude resolve to the lowest index (argmax convention), making
    the decomposition reproducible across runs and BLAS builds.
    """
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


def sym_eig(S):
    """Eigendecomposition of a symmetric matrix with deterministic output.

    Parameters
    ----------
    S : (d, d) array_like
        Symmetric matrix; it is symmetrized exactly before factorization.

    Returns
    -------
    EigenPair
        Eigenvalues in descending order; eigenvectors sign-normalized so each
        column's largest-magnitude entry is positive.
    """
    S = symmetrize(S)
    vals, vecs = np.linalg.eigh(S)
    vals = vals[::-1].copy()
    vecs = _fix_signs(vecs[:, ::-1].copy())
    recon = np.linalg.norm((vecs * vals) @ vecs.T - S)
    check("eigendecomposition reconstruction defect", recon, RECON_TOL * max(1.0, np.linalg.norm(S)))
    return EigenPair(values=vals, vectors=vecs)


def sym_eigvals(S):
    """Eigenvalues of a symmetric matrix, descending, without eigenvectors.

    S is symmetrized exactly as in ``sym_eig``. In place of the
    reconstruction check, the trace and the Frobenius norm of S must match
    the sum and the root sum of squares of the eigenvalues to
    ``RECON_TOL * max(1, ||S||_F)``; a larger defect raises
    InvariantViolation.
    """
    S = symmetrize(S)
    vals = np.linalg.eigvalsh(S)[::-1].copy()
    norm = np.linalg.norm(S)
    defect = max(abs(vals.sum() - np.trace(S)), abs(np.linalg.norm(vals) - norm))
    check("eigenvalue invariant defect", defect, RECON_TOL * max(1.0, norm))
    return vals


def numeric_rank(M, tol=None):
    """Number of singular values above a tolerance.

    Parameters
    ----------
    M : (m, n) array_like
    tol : float, optional
        Cutoff for "numerically nonzero". Defaults to
        ``max(m, n) * machine_eps * sigma_max``, the usual LAPACK-style
        policy; pass an explicit value to override, any real >= 0 (+inf
        too). Anything else raises InvalidInput.

    Returns
    -------
    int
    """
    M = _as_float_matrix(M, "M")
    tol = None if tol is None else real("tol", tol, low=0)
    svals = np.linalg.svd(M, compute_uv=False)
    if tol is None:
        tol = max(M.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    return int(np.count_nonzero(svals > tol))


def principal_angle_sin(U, V):
    """Sine of the largest principal angle between two equal-rank subspaces.

    The value is sqrt(1 - sigma_min(U^T V)^2) clamped into [0, 1]: zero iff
    the spans coincide (up to ORTHO_TOL), one iff some direction of U is
    orthogonal to all of V. It is evaluated through the residual form
    ``||(I - V V^T) U||_2`` (the same number), which keeps full precision for
    nearly equal subspaces where the cosine form cancels catastrophically;
    taking the max over both orderings makes the result exactly symmetric.

    Parameters
    ----------
    U, V : Frame or (d, r) ndarray with orthonormal columns

    Returns
    -------
    float
    """
    Uc, Vc = (u.columns if isinstance(u, Frame) else Frame(u).columns for u in (U, V))
    if Uc.shape != Vc.shape:
        raise InvalidInput(
            f"subspaces must have equal shape, got {Uc.shape} vs {Vc.shape}"
        )
    res_u = np.linalg.norm(Uc - Vc @ (Vc.T @ Uc), 2)
    res_v = np.linalg.norm(Vc - Uc @ (Uc.T @ Vc), 2)
    return float(np.clip(max(res_u, res_v), 0.0, 1.0))


def orthonormalize(W):
    """Orthonormal basis of the column span of a full-column-rank matrix.

    Parameters
    ----------
    W : (d, r) array_like
        Must have full column rank; otherwise RankDeficient is raised.

    Returns
    -------
    Frame
        QR-based basis with the sign convention diag(R) > 0, so an input
        that is already orthonormal comes back unchanged.
    """
    W = _as_float_matrix(W, "W")
    d, r = W.shape
    if r > d:
        raise InvalidInput(f"more columns ({r}) than rows ({d})")
    if numeric_rank(W) < r:
        raise RankDeficient(f"columns are numerically dependent (rank < {r})")
    Q, R = np.linalg.qr(W)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    Q = Q * signs
    resid = np.linalg.norm(W - Q @ (Q.T @ W))
    check("orthonormalization span residual", resid, ORTHO_TOL * max(1.0, np.linalg.norm(W)))
    return Frame(Q)
