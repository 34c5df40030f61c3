"""Reproducible synthetic data from the linear label-effect model.

Random streams are keyed by (experiment, trial, purpose) through numpy's
SeedSequence spawn keys, so any draw can be replayed bit-identically no
matter in which order the trials run.
"""

import zlib
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InvalidInput, InvalidScheme
from .scatter import build_dataset, build_labels
from .spectral import sym_eig

# ---------------------------------------------------------------------------
# label schemes
# ---------------------------------------------------------------------------


def _is_count(value):
    """An integer (not a bool) of at least one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


def _is_real(value):
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class LabelScheme:
    """How per-sample label sets are drawn.

    ``kind`` is one of "single" (cardinality 1), "uniform" (constant
    cardinality ``k``), or "variable" (cardinality sampled from ``mix``, a
    list of (cardinality, fraction) pairs with fractions summing to one).
    Labels within a sample are a uniform random subset of the given size.
    """

    kind: str
    k: int = 1
    mix: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in ("single", "uniform", "variable"):
            raise InvalidScheme(f"unknown scheme kind {self.kind!r}")
        if self.kind == "uniform":
            if not _is_count(self.k):
                raise InvalidScheme(f"uniform cardinality must be an integer >= 1, got {self.k!r}")
            object.__setattr__(self, "k", int(self.k))
        if self.kind == "variable":
            try:
                mix = tuple((c, f) for c, f in self.mix)
            except (TypeError, ValueError):
                raise InvalidScheme(f"mix must hold (cardinality, fraction) pairs, got {self.mix!r}") from None
            if not mix:
                raise InvalidScheme("variable scheme needs a non-empty mix")
            if not all(_is_count(c) for c, _ in mix):
                raise InvalidScheme(f"cardinalities must be integers >= 1: {mix}")
            # 0 <= f <= 1 is false for NaN and infinities: it checks finiteness too
            if not all(_is_real(f) and 0 <= f <= 1 for _, f in mix):
                raise InvalidScheme(f"fractions must be numbers in [0, 1]: {mix}")
            mix = tuple((int(c), float(f)) for c, f in mix)
            total = sum(f for _, f in mix)
            if abs(total - 1.0) > 1e-12:
                raise InvalidScheme(f"mix fractions sum to {total!r}, not 1")
            object.__setattr__(self, "mix", mix)

    @staticmethod
    def single():
        return LabelScheme(kind="single")

    @staticmethod
    def uniform(k):
        return LabelScheme(kind="uniform", k=k)

    @staticmethod
    def variable(mix):
        return LabelScheme(kind="variable", mix=mix)

    def max_cardinality(self):
        if self.kind == "single":
            return 1
        if self.kind == "uniform":
            return self.k
        return max(c for c, f in self.mix if f > 0)


# ---------------------------------------------------------------------------
# seed streams
# ---------------------------------------------------------------------------


def _stream_id(token):
    """Stable 32-bit id for a stream token (int passthrough, crc32 for str)."""
    if isinstance(token, (int, np.integer)):
        if token < 0:
            raise InvalidInput(f"stream token must be >= 0, got {token}")
        return int(token)
    return zlib.crc32(str(token).encode("utf-8"))


@dataclass(frozen=True)
class Seed:
    """Base seed with derived, order-independent substreams.

    ``stream(experiment, trial, purpose)`` returns a fresh Generator whose
    state depends only on (base, experiment, trial, purpose) - identical
    across runs and platforms, whatever was drawn before it.
    """

    base: int

    def __post_init__(self):
        if not 0 <= int(self.base) < 2 ** 64:
            raise InvalidInput(f"base seed must fit in 64 bits, got {self.base}")
        object.__setattr__(self, "base", int(self.base))

    def stream(self, experiment, trial, purpose):
        key = (_stream_id(experiment), _stream_id(trial), _stream_id(purpose))
        return np.random.default_rng(np.random.SeedSequence(self.base, spawn_key=key))


# ---------------------------------------------------------------------------
# label generation
# ---------------------------------------------------------------------------


def _draw_cardinalities(scheme, n, L, rng):
    if scheme.kind == "single":
        return np.ones(n, dtype=np.int64)
    if scheme.kind == "uniform":
        if scheme.k > L:
            raise InvalidScheme(f"uniform cardinality {scheme.k} exceeds L={L}")
        return np.full(n, scheme.k, dtype=np.int64)
    cards = np.array([c for c, _ in scheme.mix], dtype=np.int64)
    fracs = np.array([f for _, f in scheme.mix])
    if cards.max() > L:
        raise InvalidScheme(f"mix cardinality {cards.max()} exceeds L={L}")
    return cards[rng.choice(len(cards), size=n, p=fracs)]


def _force_all_labels(bits):
    """Deterministically reassign lowest-index rows until no label is empty.

    Each fix rewrites one fresh row (indices 0, 1, 2, ... in order) to carry
    the first missing label plus the currently most frequent labels, keeping
    the row's cardinality. Rows are never rewritten twice, so each fix is
    permanent and at most L rows are touched.
    """
    n, L = bits.shape
    counts = bits.sum(axis=0)
    next_row = 0
    while (counts == 0).any():
        if next_row >= n:
            raise InvalidScheme("cannot cover all labels: too few rows")
        ell = int(np.argmin(counts > 0))
        row = next_row
        next_row += 1
        k_row = int(bits[row].sum())
        # most frequent labels first, lowest index breaking ties
        order = np.lexsort((np.arange(L), -counts))
        fill = [ell] + [int(m) for m in order if m != ell][: k_row - 1]
        counts -= bits[row]
        bits[row] = 0
        bits[row, fill] = 1
        counts += bits[row]
    return bits


def gen_labels(scheme, n, L, rng):
    """Draw an n x L label matrix under a scheme, every label guaranteed present.

    Parameters
    ----------
    scheme : LabelScheme
    n : int
        Number of samples; must be >= L so all labels can be covered.
    L : int
        Number of labels.
    rng : numpy.random.Generator

    Returns
    -------
    LabelMatrix
    """
    if L < 1:
        raise InvalidInput(f"L must be >= 1, got {L}")
    if n < L:
        raise InvalidInput(f"need n >= L to cover all labels, got n={n} < L={L}")
    k = _draw_cardinalities(scheme, n, L, rng)
    # uniform random subset of size k[i] per row: each row keeps the k[i]
    # smallest of L iid uniform keys
    keys = rng.random((n, L))
    order = np.argsort(keys, axis=1)
    take = np.arange(L)[None, :] < k[:, None]
    bits = np.zeros((n, L), dtype=np.int64)
    bits[np.nonzero(take)[0], order[take]] = 1
    bits = _force_all_labels(bits)
    return build_labels(bits)


# ---------------------------------------------------------------------------
# feature generation
# ---------------------------------------------------------------------------


def pair_products(y):
    """Pairwise label products of one pattern, lexicographic pair order."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise InvalidInput(f"pattern must be 1-D, got shape {y.shape}")
    return pair_products_matrix(y[None])[0]


def pair_products_matrix(Y):
    """Row-wise pair products of a label matrix: (n, L(L-1)/2)."""
    Y = np.asarray(Y)
    pairs = np.array(list(combinations(range(Y.shape[1]), 2)), dtype=np.intp).reshape(-1, 2)
    # the gathered columns come out column-major; the product is row-major
    return np.multiply(Y[:, pairs[:, 0]], Y[:, pairs[:, 1]], order="C")


def _covariance_factor(Sigma_w):
    """Symmetric PSD square root (``sym_eig``-based, tolerant of zero covariance)."""
    ep = sym_eig(Sigma_w)
    if ep.values[-1] < -1e-10 * max(1.0, abs(ep.values[0])):
        raise InvalidInput(f"covariance has negative eigenvalue {ep.values[-1]:.3e}")
    return (ep.vectors * np.sqrt(np.clip(ep.values, 0.0, None))) @ ep.vectors.T


def gen_data(labels, params, rng, alpha=0.0, noise="gaussian"):
    """Sample features x = mu + A y + alpha * B z + eps for given labels.

    Parameters
    ----------
    labels : LabelMatrix
    params : ModelParams
        ``params.B_inter`` supplies the interaction effects when alpha != 0.
    rng : numpy.random.Generator
    alpha : float
        Interaction strength; with alpha == 0 the interaction branch is
        skipped entirely, so the output is bit-identical to the plain linear
        model under the same rng state.
    noise : {"gaussian", "rademacher"}
        Noise law: exact N(0, Sigma_w), or a bounded sub-Gaussian alternative
        (iid sign flips pushed through the covariance square root - same
        mean and covariance, compact support).

    Returns
    -------
    Dataset
        Built without ``build_dataset``'s dense-storage caps, so a sample
        of any size comes back.
    """
    if params.L != labels.L:
        raise InvalidInput(f"A has {params.L} label columns, labels have {labels.L}")
    if alpha != 0.0 and params.B_inter is None:
        raise InvalidInput("alpha != 0 requires B_inter in the model parameters")
    n, d = labels.n, params.d
    Y = labels.bits.astype(float)
    X = params.mu + Y @ params.A.T
    if alpha != 0.0:
        Z = pair_products_matrix(Y)
        X = X + alpha * (Z @ params.B_inter.T)
    if noise == "gaussian":
        G = rng.standard_normal((n, d))
    elif noise == "rademacher":
        G = rng.integers(0, 2, size=(n, d)).astype(float) * 2.0 - 1.0
    else:
        raise InvalidInput(f"unknown noise kind {noise!r}")
    Sigma_w = params.Sigma_w
    diag = np.diag(Sigma_w)
    if np.array_equal(Sigma_w, np.diag(diag)) and diag.min() >= 0:
        # bit-identical to the factor route: sym_eig of a diagonal matrix returns
        # a permutation basis, and a GEMM against a diagonal factor adds only
        # exact zeros; this skips an O(d^3) solve and an n x d x d GEMM
        X = X + G * np.sqrt(diag)
    else:
        X = X + G @ _covariance_factor(Sigma_w).T
    return build_dataset(X, labels, max_rows=None, max_cols=None)


def scheme_distribution(scheme, L):
    """Exact pattern distribution induced by a scheme over ``L`` labels.

    A scheme draws a cardinality c and then a uniform random size-c subset,
    so every size-c pattern has probability frac(c) / C(L, c). Enumerates
    all patterns with positive probability; feasible for the small L used
    in population-level checks.
    """
    from math import comb

    from .population import label_moments

    if scheme.kind == "single":
        mix = ((1, 1.0),)
    elif scheme.kind == "uniform":
        mix = ((scheme.k, 1.0),)
    else:
        mix = scheme.mix
    pairs = []
    for card, frac in mix:
        if frac <= 0.0:
            continue
        if card > L:
            raise InvalidScheme(f"mix cardinality {card} exceeds L={L}")
        share = frac / comb(L, card)
        for subset in combinations(range(L), card):
            bits = np.zeros(L, dtype=np.int64)
            bits[list(subset)] = 1
            pairs.append((bits, share))
    return label_moments(pairs)
