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

Every array argument of the library goes through one route, ``_array``: it
converts the value and checks its kind (no strings or bytes), its shape
against the caller's spec (one length or "any" per axis, a length taken from
another argument where the two must conform) and, on request, that it is
non-empty and finite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, RankDeficient, check, count, real

# Frobenius tolerance for "these columns are orthonormal" checks.
ORTHO_TOL = 1e-10
# Relative tolerance for eigendecomposition reconstruction checks.
RECON_TOL = 1e-8


def _array(value, name, dtype=None, shape=None, finite=False, empty=True):
    """The one route for an array argument: ``np.asarray(value, dtype)``.

    A value raises InvalidInput naming ``name`` when numpy cannot convert it
    (a ragged list), when an entry is a string or bytes (numpy would parse
    ``"0.5"`` as a number), when its shape does not fit ``shape`` (one entry
    per axis: a length, or None for any length), when it has no entries and
    ``empty`` is false, and, with ``finite`` set, when an entry is a NaN or an
    infinity.
    """
    try:
        a = np.asarray(value)
        kind = a.dtype.kind
        if kind in "SU" or (kind == "O" and any(isinstance(v, (str, bytes)) for v in a.flat)):
            raise InvalidInput(f"{name} holds strings or bytes, not numbers")
        if dtype is not None:
            # numpy refuses a complex number where dtype is real, but casts
            # (with a warning) a complex array
            a = np.asarray(value if kind == "c" else a, dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{name} is not a rectangular numeric array: {exc}") from None
    if shape is not None and not (
        a.ndim == len(shape) and all(want in (None, n) for n, want in zip(a.shape, shape))
    ):
        want = ", ".join("any" if n is None else str(n) for n in shape)
        raise InvalidInput(f"{name} must have shape ({want}{',' * (len(shape) == 1)}), got {a.shape}")
    if not empty and a.size == 0:
        raise InvalidInput(f"{name} is empty (shape {a.shape})")
    if finite and not np.isfinite(a).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


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
    S = _array(S, "S", float, (None, None), finite=True, empty=False)
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
        cols = _array(self.columns, "frame columns", float, (None, None), finite=True, empty=False)
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
    M = _array(M, "M", float, (None, None), finite=True, empty=False)
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
    _array(Vc, "V", shape=Uc.shape)
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
    W = _array(W, "W", float, (None, None), finite=True, empty=False)
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
