"""Multilabel scatter algebra on finite samples.

A sample can carry several labels at once, so the class-indicator matrix Y has
row sums k_i >= 1 and the within/between scatters count each sample once per
label it carries. The central algebraic facts wired into this module:

* between + within = cardinality-weighted total:
  Sb + Sw = sum_i k_i (x_i - mu)(x_i - mu)^T,
* Sb factorizes as M M^T with M = Xc^T Y D_n^{-1/2},
* the excess R = St_ml - St = sum_i (k_i - 1)(x_i - mu)(x_i - mu)^T is PSD.

``build_dataset`` centres the rows and checks the centring drift.
``build_scatter`` then visits each label's member rows once: it gathers them,
takes their compensated mean and adds their centred block into Sw. It checks
every identity above by two independent routes and fails loudly on
disagreement:

* St_ml as Sb + Sw (Sb from the label means, Sw from the per-label centred
  blocks) against St + Xc_E^T diag(k_E - 1) Xc_E from the globally centred
  rows, where E holds the rows with k != 1: every other row has weight
  k - 1 = 0, so Xc^T diag(k) Xc needs only St and the rows of E (20% of
  them under the default cardinality mix);
* Sb from the label means against M M^T, with M from Xc and the 0/1 label
  matrix;
* Sb, Sw and R are positive semidefinite up to a floor: a Cholesky factor of
  each, shifted just below the floor, certifies that no eigenvalue lies below
  minus a tolerance (or a rounding-dust floor scaled to ||St_ml||_2, which
  ``build_scatter`` computes once and carries on the ScatterSet);
* in ``build_dataset``, the feature magnitude stays below the level at which
  the scatters' squared Frobenius norms would overflow;
* the column sums of the centred rows vanish up to rounding (centring drift).

When n < d every scatter has rank at most n - 1 and lies in the span of the n
centred rows, so the algebra above runs on an n-dimensional problem:
``build_scatter`` takes one thin QR factorization Xc^T = Q R_X and projects
the rows to Z = Xc Q (n x n). A row-level certificate ("range compression")
requires ||Xc - Z Q^T||_F to stay within CROSSCHECK_TOL ||Xc||_F, so no row
has mass outside span(Q). The per-label pass and every check above then run
on the rows Z (centred again, with their drift checked), whose checked
scatter set rides on the ScatterSet as ``on_range``, with the d x n factor Q
as ``range_basis`` and M = Q M_q (both None when n >= d, where the algebra
runs on the rows as they are). Such a factored set stores no d x d matrix:
its d x d fields are lifts Q S_q Q^T of the n x n matrices, formed only when
a caller reads one. ``regularization_report``, ``rank_analysis`` and
``residual_bound`` read none of them; they solve on ``on_range`` (see
their docstrings).
"""

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInput, InvariantViolation, MissingLabel, UnlabeledSample, check
from .spectral import _all_binary, _array, numeric_rank, sym_eigvals, symmetrize

# Relative tolerance for the internal two-route cross-checks.
CROSSCHECK_TOL = 1e-8
# Most feature columns ``load_dataset_csv`` accepts: the scatters are d x d.
MAX_COLS = 500


@dataclass(frozen=True)
class LabelMatrix:
    """Validated binary label assignment for n samples over L labels.

    Attributes
    ----------
    bits : (n, L) ndarray of {0, 1}
    n_ell : (L,) ndarray
        Per-label sample counts, all >= 1.
    k : (n,) ndarray
        Per-sample cardinalities, all >= 1.
    K : int
        Total assignment count, sum of k.
    members : tuple of L ndarrays
        Ascending row indices of the samples carrying each label.

    Three read-only arrays are derived from the fields on first use and
    cached on the instance (``dataclasses.replace`` builds a fresh instance,
    so they follow any field it changes):

    excess_rows : ndarray
        Ascending indices of the rows with k != 1, the only rows that
        contribute to the cardinality excess St_ml - St.
    excess_weights : ndarray
        Their weights k - 1 as floats.
    scaled_bits : (n, L) ndarray
        bits / sqrt(n_ell), so that Xc^T scaled_bits factors Sb.
    """

    bits: np.ndarray
    n_ell: np.ndarray
    k: np.ndarray
    K: int
    members: tuple

    @property
    def n(self):
        return self.bits.shape[0]

    @property
    def L(self):
        return self.bits.shape[1]

    @cached_property
    def excess_rows(self):
        return _read_only(np.flatnonzero(self.k != 1))

    @cached_property
    def excess_weights(self):
        return _read_only((self.k[self.excess_rows] - 1).astype(float))

    @cached_property
    def scaled_bits(self):
        return _read_only(self.bits / np.sqrt(self.n_ell))


def _read_only(a):
    a.flags.writeable = False
    return a


def build_labels(bits):
    """Validate a 0/1 matrix and derive its label-count structure.

    Raises
    ------
    MissingLabel
        If some label column is all zero.
    UnlabeledSample
        If some sample row is all zero.
    """
    bits = _array(bits, "label matrix", shape=(None, None), empty=False)
    if not _all_binary(bits):
        raise InvalidInput("label matrix entries must be 0 or 1")
    bits = bits.astype(np.int64)
    n_ell = bits.sum(axis=0)
    if (n_ell == 0).any():
        missing = np.flatnonzero(n_ell == 0)
        raise MissingLabel(f"labels with no samples: {missing.tolist()}")
    k = bits.sum(axis=1)
    if (k == 0).any():
        empty = np.flatnonzero(k == 0)
        raise UnlabeledSample(f"samples with no labels: {empty.tolist()}")
    _, rows = np.nonzero(bits.T)  # row indices grouped by label, ascending
    return LabelMatrix(
        bits=bits,
        n_ell=n_ell,
        k=k,
        K=int(k.sum()),
        members=tuple(np.split(rows, np.cumsum(n_ell)[:-1])),
    )


@dataclass(frozen=True)
class Dataset:
    """Feature matrix bound to a validated label matrix, with its rows centred.

    ``X_centered`` is X minus its compensated global mean ``mu``. ``peak`` is
    max|X|, read off the extremes that the overflow guard takes;
    ``build_scatter`` scales the rounding floor of R by it. The label means
    and the within-scatter come from ``build_scatter``'s one per-label pass.
    """

    X: np.ndarray
    labels: LabelMatrix
    mu: np.ndarray
    X_centered: np.ndarray
    peak: float

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]


def _centre(rows, ones):
    """Compensated mean of ``rows`` and the rows centred on it.

    A ones-vector product gives a provisional mean; the rows are shifted by
    it, and a second product over the shifted rows corrects the mean by their
    residual sum (the two-pass update of Chan, Golub & LeVeque, 1983). Both
    reductions are contiguous BLAS matrix-vector products. The centred rows
    are ``rows - mean``, written over the shifted copy.
    """
    count = rows.shape[0]
    m = (ones @ rows) / count
    centred = rows - m
    mean = m + (ones @ centred) / count
    np.subtract(rows, mean, out=centred)
    return mean, centred


def _centred(X, ones, peak):
    """Global mean of the rows and the rows centred on it, with the centring
    drift (the norm of the centred column sums) checked."""
    mu, Xc = _centre(X, ones)
    check("centering drift", np.linalg.norm(ones @ Xc), 1e-8 * X.shape[0] * max(1.0, peak))
    return mu, Xc


def build_dataset(X, labels):
    """Bind features to labels and centre the rows on their global mean.

    The mean uses a two-pass compensated summation so that centering is
    accurate for feature dimensions into the hundreds.

    Parameters
    ----------
    X : (n, d) array_like
        Of any size: the rows are already in memory, so no cap bounds them.
    labels : LabelMatrix
    """
    if not isinstance(labels, LabelMatrix):
        raise InvalidInput(f"labels must be a LabelMatrix (from build_labels), got {type(labels).__name__}")
    X = _array(X, "feature matrix", float, (labels.n, None), empty=False)
    n, d = X.shape
    # centred entries are at most 2 max|X|, so a scatter entry is at most
    # 4 K max|X|^2 and a scatter's squared Frobenius norm at most
    # (4 K d max|X|^2)^2; this bound keeps that 16 times below the largest
    # double. A NaN propagates into X.max() and X.min(), and an infinity
    # lands in one of them, so checking the two extremes checks every entry.
    hi, lo = X.max(), X.min()
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise InvalidInput("feature matrix contains non-finite entries")
    peak = float(max(hi, -lo))
    bound = np.finfo(float).max ** 0.25 / (4.0 * np.sqrt(labels.K * d))
    if peak > bound:
        raise InvalidInput(
            f"feature magnitude {peak:.3e} exceeds {bound:.3e}; the scatters would overflow"
        )
    mu, Xc = _centred(X, np.ones(n), peak)
    return Dataset(X=X, labels=labels, mu=mu, X_centered=Xc, peak=peak)


def _lift(name):
    """A d x d field of ScatterSet, read from the instance when stored and,
    when not (a factored set), computed on first read as the lift
    Q S_q Q^T of ``on_range``'s field of the same name, then cached."""

    def lift(ss):
        Q = ss.range_basis
        return symmetrize((Q @ getattr(ss.on_range, name)) @ Q.T)

    # kept out of repr, which would otherwise form every lift
    return field(default=cached_property(lift), kw_only=True, repr=False)


_LIFTS = ("Sb", "Sw", "St_ml", "St", "R")


@dataclass(frozen=True)
class ScatterSet:
    """The five scatter matrices of a dataset plus the between-scatter factor.

    A set is dense (n >= d), storing the five d x d matrices, or factored
    (n < d), storing none of them but ``range_basis`` and ``on_range``: its
    d x d fields are then lifts, formed on first read and cached. The
    d x d fields are keyword-only; any other mix is InvalidInput, so a
    factored set's d x d fields are always the lifts of ``on_range``
    (``dataclasses.replace`` reads every field, so on a factored set it
    must also clear ``on_range`` and ``range_basis``, which gives the dense
    set of the lifts).

    Attributes
    ----------
    Sb : (d, d) ndarray
        Between-scatter, sum_ell n_ell (mu_ell - mu)(mu_ell - mu)^T.
    Sw : (d, d) ndarray
        Within-scatter, summed over every (sample, label) incidence.
    St_ml : (d, d) ndarray
        Sb + Sw; equal to the cardinality-weighted total scatter.
    St : (d, d) ndarray
        Plain total scatter Xc^T Xc.
    R : (d, d) ndarray
        St_ml - St, the PSD cardinality excess (zero for single-label data).
    M : (d, L) ndarray
        Factor with Sb = M M^T, namely Xc^T Y diag(n_ell)^{-1/2}.
    st_ml_norm : float
        ||St_ml||_2, the largest |eigenvalue| of St_ml, from one values-only
        solve (of the n x n St_ml on the range when n < d).
    range_basis : (d, n) ndarray or None
        When n < d, the orthonormal Q of the thin QR factorization
        Xc^T = Q R_X. Every scatter is a sum of outer products
        of vectors in the row space of Xc (centred rows, label means minus
        the global mean, rows minus their label mean), so Sb, Sw, St, St_ml,
        R and the columns of M all live on span(Q). None when n >= d.
    on_range : ScatterSet or None
        When n < d, the scatter set of the rows Z = Xc Q: the same matrices
        in the coordinates of Q (n x n, and M n x L), computed and certified
        by ``build_scatter``. Each d x d field above is the lift Q S_q Q^T of
        its counterpart S_q here, and M = Q M_q, so a d x d problem on these
        matrices reduces to an n x n one (see ``regularization_report``).
        None when n >= d.

    ``rank_sb`` is the one count of rank(Sb), which ``rank_analysis`` and
    ``regularization_report`` both read: the singular values of
    ``reduced.Sb`` above ``sb_rank_cutoff``.
    """

    Sb: np.ndarray = _lift("Sb")
    Sw: np.ndarray = _lift("Sw")
    St_ml: np.ndarray = _lift("St_ml")
    St: np.ndarray = _lift("St")
    R: np.ndarray = _lift("R")
    M: np.ndarray
    st_ml_norm: float
    range_basis: np.ndarray = None
    on_range: "ScatterSet" = None

    def __post_init__(self):
        # a d x d field left at its default holds the cached_property itself;
        # dropping it from the instance lets the first read compute the lift
        fields = vars(self)
        unset = [name for name in _LIFTS if isinstance(fields[name], cached_property)]
        for name in unset:
            del fields[name]
        if self.on_range is None:
            if unset:
                raise InvalidInput(f"a dense ScatterSet (no on_range) needs {', '.join(unset)}")
        elif len(unset) < len(_LIFTS) or np.shape(self.range_basis) != (
            np.shape(self.M)[0], np.shape(self.on_range.M)[0]
        ):
            raise InvalidInput(
                "a factored ScatterSet (with on_range) stores no d x d field and needs "
                "a d x n range_basis, n the size of on_range"
            )

    @property
    def sb_rank_cutoff(self):
        """Singular values of Sb at or below d eps ||St_ml||_2 are rounding
        dust: Sb inherits noise of that size from the accumulations it is
        computed from, even when it is mathematically zero (every sample
        carries every label, so all label means coincide with the global
        mean)."""
        return self.M.shape[0] * np.finfo(float).eps * max(self.st_ml_norm, 1e-300)

    @property
    def reduced(self):
        """The set to solve on: ``on_range`` when n < d, else the set itself.
        A lift Q S_q Q^T has the nonzero eigenvalues and singular values of
        S_q, and d - n more zeros."""
        return self if self.on_range is None else self.on_range

    @property
    def rank_sb(self):
        """rank(Sb): the singular values of ``reduced.Sb`` above
        ``sb_rank_cutoff``."""
        return numeric_rank(self.reduced.Sb, tol=self.sb_rank_cutoff)


def _rel_defect(lhs, rhs, scale=0.0):
    # `scale` lets callers anchor the comparison to the magnitude of the
    # accumulations both sides were computed from; without it a pair that is
    # mathematically zero (e.g. Sb when every label mean coincides with the
    # global mean) would divide rounding dust by itself.
    denom = max(np.linalg.norm(lhs), np.linalg.norm(rhs), scale, 1e-300)
    return np.linalg.norm(lhs - rhs) / denom


def build_scatter(ds):
    """Compute all scatter matrices of a dataset, cross-checking identities.

    The cardinality-weighted total scatter is computed both as Sb + Sw (from
    the label means and the per-label centred blocks) and as
    sum_i k_i (x_i - mu)(x_i - mu)^T (from the globally centred rows). The
    second route adds sum_{i in E} (k_i - 1)(x_i - mu)(x_i - mu)^T over the
    rows E with k_i != 1 to St, so it costs one product over those rows
    rather than a second full one; a row with k_i = 0 (never valid, but
    reachable by editing a LabelMatrix) keeps its weight -1. The
    factorization Sb = M M^T is checked as well. Disagreement beyond
    CROSSCHECK_TOL raises InvariantViolation.

    When n < d, every computation and check above runs on the n x n rows
    Z = Xc Q instead, certified first to lose no row mass (``range
    compression``), and the result is a factored ScatterSet: it forms no
    d x d matrix, and its d x d fields are lifted only when read.
    """
    if not isinstance(ds, Dataset):
        raise InvalidInput(f"ds must be a Dataset (from build_dataset), got {type(ds).__name__}")
    Xc = ds.X_centered
    n, d = Xc.shape
    if n >= d:
        return _scatters(ds.X, ds.mu, Xc, ds.labels, ds.peak)
    Q = np.linalg.qr(Xc.T)[0]
    Z = Xc @ Q
    check(
        "range compression: row mass outside span(Q)",
        np.linalg.norm(Xc - Z @ Q.T), CROSSCHECK_TOL * np.linalg.norm(Xc),
    )
    peak = float(max(Z.max(), -Z.min()))
    mu, Zc = _centred(Z, np.ones(n), peak)
    on_range = _scatters(Z, mu, Zc, ds.labels, peak)
    return ScatterSet(M=Q @ on_range.M, st_ml_norm=on_range.st_ml_norm, range_basis=Q, on_range=on_range)


def _scatters(X, mu, Xc, labels, peak):
    """The checked dense scatter set of the rows X, with global mean mu and
    centred rows Xc.

    This is the one per-label pass: each label's member rows are gathered
    once, for their compensated mean and their centred block of Sw.
    """
    n, d = X.shape
    ones = np.ones(n)
    mu_ell = np.empty((labels.L, d))
    Sw = np.zeros((d, d))
    for ell, rows in enumerate(labels.members):
        mu_ell[ell], D = _centre(X.take(rows, axis=0), ones[: rows.size])
        Sw += D.T @ D
    dev = mu_ell - mu
    Sb = symmetrize((dev.T * labels.n_ell) @ dev)
    Sw = symmetrize(Sw)

    St = symmetrize(Xc.T @ Xc)
    St_ml = symmetrize(Sb + Sw)
    XE = Xc.take(labels.excess_rows, axis=0)
    St_ml_weighted = symmetrize(St + (XE * labels.excess_weights[:, None]).T @ XE)
    defect = _rel_defect(St_ml, St_ml_weighted)
    check("total-scatter routes relative defect", defect, CROSSCHECK_TOL)

    M = Xc.T @ labels.scaled_bits
    factor_defect = _rel_defect(Sb, M @ M.T, scale=np.linalg.norm(St_ml))
    check("between-scatter factorization defect", factor_defect, CROSSCHECK_TOL)

    st_ml_norm = float(np.abs(sym_eigvals(St_ml)).max())
    ss = ScatterSet(Sb=Sb, Sw=Sw, St_ml=St_ml, St=St, R=St_ml - St, M=M, st_ml_norm=st_ml_norm)
    for name, S in (("Sb", Sb), ("Sw", Sw)):
        _certify_psd(name, S, _dust(ss))
    _certify_psd("R", ss.R, _r_floor(ss, peak, labels.K))
    return ss


def _dust(ss):
    """The rounding-dust floor of the scatters of ``ss``: 128 eps ||St_ml||_2."""
    return 128.0 * np.finfo(float).eps * max(ss.st_ml_norm, 1e-300)


def _r_floor(ss, peak, K):
    """The floor R of a dense ``ss`` is certified against, its rows' entries
    at most ``peak`` in size (on a factored set, the floor of the dense set
    of its lifts). R is a difference of two same-scale accumulations, so
    when it is mathematically zero (all cardinalities 1) its computed
    eigenvalues are rounding dust proportional to the scatter magnitude, not
    to ||R||, plus the rounding of the means, which grows with max|X|."""
    return _dust(ss) + _mean_rounding(peak, K, ss.M.shape[0], ss.reduced.Sb)


def _mean_rounding(peak, K, d, Sb):
    """Bound on ||dR||_2 from the rounding of the means of rows far from 0.

    Each mean behind the scatters (the global one and one per label) ends in
    a rounded addition of a value of size at most max|X| = peak, so
    it is off by a vector e with |e_j| <= u peak (u the unit roundoff), on
    top of an error that scales with the rows' spread and that the dust
    floor covers. Centring rows on a mean that is off by e moves their Gram
    matrix Xc^T Xc by n e e^T only, because the exactly centred rows sum to
    zero and the first-order cross terms cancel; St and Sw are such Gram
    matrices. Sb is not: it is built from dev_l = mu_l - mu, which is off by
    f_l = e_l - e with ||f_l|| <= 2 u peak sqrt(d), and so it moves by
    sum_l n_l (dev_l f_l^T + f_l dev_l^T) to first order. By Cauchy-Schwarz,
    with sum_l n_l ||dev_l||^2 = tr(Sb) and sum_l n_l = K, that is at most

        2 sqrt(tr Sb) sqrt(K) 2 u peak sqrt(d) = 4 u peak sqrt(K d tr Sb)

    in 2-norm, and R = Sb + Sw - St inherits it. The second-order terms,
    of size n d (u peak)^2, stay below the dust floor unless the rows'
    spread is itself down near u peak.
    """
    u = np.finfo(float).eps / 2
    return 4.0 * u * peak * np.sqrt(K * d * max(float(np.trace(Sb)), 0.0))


def _certify_psd(name, S, dust):
    """Raise InvariantViolation unless one Cholesky proves lambda_min(S) >= -tau.

    The floor is tau = max(CROSSCHECK_TOL * l, dust), where
    l = max(max_i |S_ii|, ||S||_F / sqrt(d)) is a lower bound on ||S||_2:
    |S_ii| = |e_i^T S e_i| <= ||S||_2 and ||S||_F^2 = sum(lambda^2) <= d ||S||_2^2.
    So tau never exceeds the eigenvalue floor max(CROSSCHECK_TOL * ||S||_2, dust).

    The certificate factors A = fl(S + c I). If the factorization runs to
    completion, its computed factor F satisfies F^T F = A + dA with
    |dA| <= gamma_{d+1} |F^T| |F|, gamma_k = k u / (1 - k u) and u the unit
    roundoff (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm. 10.3; a blocked factorization with conventional matrix products
    evaluates the same inner products in another order, and the bound holds
    for any order). Rounding the shifted diagonal adds at most u |a_ii| per
    entry, so gamma = gamma_{d+2} covers both (gamma_j + gamma_1 +
    gamma_j gamma_1 <= gamma_{j+1}). Then:

    * ||dA||_2 <= gamma || |F^T| |F| ||_2 <= gamma ||F||_F^2;
    * ||F||_F^2 = sum_i (F^T F)_ii <= tr(A) + gamma ||F||_F^2, so
      ||F||_F^2 <= tr(A) / (1 - gamma);
    * F^T F is PSD, so lambda_min(S) = lambda_min(A) - c >= -c - ||dA||_2
      >= -c - g tr(A) with g = gamma / (1 - gamma).

    tr(A) is at most sum_i |S_ii| + d c, so the shift
    c = (tau - g sum_i |S_ii|) / (1 + g d) makes c + g tr(A) <= tau: a
    completed factorization certifies lambda_min(S) >= -tau. The argument
    assumes no underflow and ignores the rounding of the few scalar
    operations that form tau and c, a relative change of order d u in tau,
    far below the error of a computed eigenvalue.
    """
    d = S.shape[0]
    diag_abs = np.abs(S.diagonal())
    tau = max(CROSSCHECK_TOL * max(diag_abs.max(), np.linalg.norm(S) / np.sqrt(d)), dust)
    ku = (d + 2) * np.finfo(float).eps / 2
    gamma = ku / (1.0 - ku)
    g = gamma / (1.0 - gamma)
    shift = (tau - g * diag_abs.sum()) / (1.0 + g * d)
    A = S.copy()
    A.flat[:: d + 1] += shift
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise InvariantViolation(
            f"{name} has negative eigenvalue below -{tau:.3e}: "
            f"{name} + {shift:.3e} I has no Cholesky factor"
        ) from None


@dataclass(frozen=True)
class RankReport:
    """Rank structure of the between-scatter and its governing bound.

    ``one_in_colspace`` is rank_HY < rank_Y: with H the centring projector,
    rank(HY) = rank(Y) - [all-ones in col(Y)].
    """

    rank_sb: int
    rank_XtY: int
    rank_Y: int
    rank_HY: int
    bound: int
    one_in_colspace: bool
    excess: bool


def rank_analysis(ds, ss=None):
    """Ranks of the between-scatter and related matrices, with the rank bound.

    The bound is min(d, n-1, rank(HY)), where rank(HY) = rank(Y) - [all-ones
    in col(Y)]; ``excess`` flags rank(Sb) > L - 1, which can only happen when
    the all-ones vector is NOT in the label column space (variable
    cardinality). It reads no d x d field of ``ss``: rank(Sb) is
    ``ss.rank_sb``.
    """
    if ss is None:
        ss = build_scatter(ds)
    labels = ds.labels
    _array(ss.M, "ss.M", shape=(ds.d, labels.L))
    Y = labels.bits.astype(float)
    # Anchor the rank decisions to the scale of the accumulations the
    # matrices were computed from: Sb inherits rounding noise of size
    # eps * ||St_ml|| (``sb_rank_cutoff``), and Xc^T Y of size
    # eps * ||Xc|| * ||Y||, even when the result itself is mathematically
    # zero. Xc^T Y also carries the rounding of the global mean, which
    # scales with max|X|, not with the centred rows: a mean off by e, with
    # |e_j| <= u max|X| (see ``_mean_rounding``), moves column ell by
    # n_ell e, so Xc^T Y by at most u max|X| sqrt(d) ||n_ell|| in 2-norm.
    eps = np.finfo(float).eps
    Xc = _array(ds.X_centered, "X_centered", float, (None, None), finite=True, empty=False)
    sigma_x = np.linalg.norm(Xc, 2)
    sigma_y = np.linalg.norm(Y, 2)
    mean_rounding = eps / 2 * ds.peak * np.sqrt(ds.d) * np.linalg.norm(labels.n_ell)
    rank_sb = ss.rank_sb
    rank_XtY = numeric_rank(
        Xc.T @ Y, tol=max(ds.d, labels.L) * eps * sigma_x * sigma_y + mean_rounding
    )
    check("|rank(Sb) - rank(Xc^T Y)|", abs(rank_sb - rank_XtY), 0)
    rank_Y = numeric_rank(Y)
    rank_HY = numeric_rank(Y - Y.mean(axis=0))
    bound = min(ds.d, ds.n - 1, rank_HY)
    return RankReport(
        rank_sb=rank_sb,
        rank_XtY=rank_XtY,
        rank_Y=rank_Y,
        rank_HY=rank_HY,
        bound=bound,
        one_in_colspace=rank_HY < rank_Y,
        excess=bool(rank_sb > labels.L - 1),
    )


def residual_bound(ds, ss):
    """Spectral-norm bound on the cardinality excess R = St_ml - St.

    Returns a dict with ``lhs`` = ||R||_2, ``rhs`` = max_i (k_i - 1) times the
    top eigenvalue of the total scatter restricted to multi-label samples,
    and ``holds``: whether lhs <= rhs up to the floor ``build_scatter``
    certifies R against (``_r_floor``), which scales with the data (for
    single-label data R is that rounding dust, and rhs is 0). Equality holds
    when all multi-label weights k_i - 1 agree (in particular for uniform
    cardinality). Neither side forms a d x d matrix it does not need:
    ||R||_2 is solved on ``ss.reduced.R``, and the top eigenvalue on the
    m x m Gram of the m multi-label rows when m < d.
    """
    _array(ss.M, "ss.M", shape=(ds.d, ds.labels.L))
    k = ds.labels.k
    lhs = float(np.abs(sym_eigvals(ss.reduced.R)).max())
    # both sides carry the rounding of the rows of ds and of their mean
    floor = _r_floor(ss, ds.peak, ds.labels.K)
    multi = k > 1
    if not multi.any():
        return {"lhs": lhs, "rhs": 0.0, "holds": bool(lhs <= floor)}
    Xm = ds.X_centered[multi]
    # Xm^T Xm and the Gram Xm Xm^T share their nonzero eigenvalues: solve the smaller
    St_K = symmetrize(Xm @ Xm.T if Xm.shape[0] < ds.d else Xm.T @ Xm)
    lam = float(sym_eigvals(St_K)[0])
    rhs = float((k.max() - 1) * lam)
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs + floor)}


# ---------------------------------------------------------------------------
# CSV import/export
# ---------------------------------------------------------------------------

def load_dataset_csv(features_path, labels_path):
    """Load a dataset from two headerless CSV files (features and 0/1 labels).

    A features file with more than ``MAX_COLS`` columns raises InvalidInput:
    data from outside the program is where d is not known in advance, and
    every scatter built from it holds d x d entries.
    """
    X = _read_numeric_csv(features_path, "features")
    if X.shape[1] > MAX_COLS:
        raise InvalidInput(f"features CSV has {X.shape[1]} columns, more than {MAX_COLS}")
    bits = _read_numeric_csv(labels_path, "labels")
    return build_dataset(X, build_labels(bits))


def save_dataset_csv(ds, features_path, labels_path):
    """Write a dataset to two headerless CSV files."""
    np.savetxt(features_path, ds.X, delimiter=",", fmt="%.17g")
    np.savetxt(labels_path, ds.labels.bits, delimiter=",", fmt="%d")


def _read_numeric_csv(path, name):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {name} CSV {path!r}: {exc}") from exc
    rows = []
    for lineno, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not row:
            continue
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise InvalidInput(f"{name} CSV line {lineno}: {exc}") from exc
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise InvalidInput(
                f"{name} CSV line {lineno}: expected {len(rows[0])} columns, "
                f"got {len(rows[-1])}"
            )
    if not rows:
        raise InvalidInput(f"{name} CSV {path} is empty")
    return np.asarray(rows)
