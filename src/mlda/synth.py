"""Reproducible synthetic data from the linear label-effect model.

Random streams are keyed by (experiment, trial, purpose) through numpy's
SeedSequence spawn keys, so any draw can be replayed bit-identically no
matter in which order the trials run.
"""

import zlib
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import FLOAT_MAX, InvalidInput, InvalidScheme, count, real
from .scatter import build_dataset, build_labels
from .spectral import _array

# ---------------------------------------------------------------------------
# label schemes
# ---------------------------------------------------------------------------


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
            object.__setattr__(self, "k", count("uniform cardinality", self.k, error=InvalidScheme))
        if self.kind == "variable":
            try:
                mix = tuple(
                    (count("mix cardinality", c, error=InvalidScheme),
                     real("mix fraction", f, 0, 1, error=InvalidScheme))
                    for c, f in self.mix
                )
            except (TypeError, ValueError):
                raise InvalidScheme(f"mix must hold (cardinality, fraction) pairs, got {self.mix!r}") from None
            if not mix:
                raise InvalidScheme("variable scheme needs a non-empty mix")
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
        return count("stream token", token, low=0)
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
        object.__setattr__(self, "base", count("base seed", self.base, low=0, high=2 ** 64 - 1))

    def stream(self, experiment, trial, purpose):
        key = (_stream_id(experiment), _stream_id(trial), _stream_id(purpose))
        return np.random.default_rng(np.random.SeedSequence(self.base, spawn_key=key))


# ---------------------------------------------------------------------------
# label generation
# ---------------------------------------------------------------------------


def _draw_cardinalities(scheme, n, L, rng):
    # a cardinality with fraction 0 is never drawn, so it may exceed L
    count("scheme cardinality", scheme.max_cardinality(), high=L, error=InvalidScheme)
    if scheme.kind == "single":
        return np.ones(n, dtype=np.int64)
    if scheme.kind == "uniform":
        return np.full(n, scheme.k, dtype=np.int64)
    cards = np.array([c for c, _ in scheme.mix], dtype=np.int64)
    fracs = np.array([f for _, f in scheme.mix])
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
    L = count("L", L)
    n = count("n", n, low=L)
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
    return pair_products_matrix(_array(y, "pattern", ndim=1)[None])[0]


def pair_products_matrix(Y):
    """Row-wise pair products of a label matrix: (n, L(L-1)/2)."""
    Y = _array(Y, "Y", ndim=2)
    pairs = np.array(list(combinations(range(Y.shape[1]), 2)), dtype=np.intp).reshape(-1, 2)
    # the gathered columns come out column-major; the product is row-major
    return np.multiply(Y[:, pairs[:, 0]], Y[:, pairs[:, 1]], order="C")


def gen_data(labels, params, rng, alpha=0.0, noise="gaussian"):
    """Sample features x = mu + A y + alpha * B z + eps for given labels.

    Parameters
    ----------
    labels : LabelMatrix
    params : ModelParams
        ``params.B_inter`` supplies the interaction effects when alpha != 0;
        ``params.noise_factor``, the square root of Sigma_w, colours the noise.
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
        The rows are built in place, so a call holds the rows and one noise
        matrix of the same size.
    """
    alpha = real("alpha", alpha, -FLOAT_MAX, FLOAT_MAX)
    if params.L != labels.L:
        raise InvalidInput(f"A has {params.L} label columns, labels have {labels.L}")
    if alpha != 0.0 and params.B_inter is None:
        raise InvalidInput("alpha != 0 requires B_inter in the model parameters")
    n, d = labels.n, params.d
    Y = labels.bits.astype(float)
    X = Y @ params.A.T
    X += params.mu
    if alpha != 0.0:
        X += alpha * (pair_products_matrix(Y) @ params.B_inter.T)
    del Y
    if noise == "gaussian":
        G = rng.standard_normal((n, d))
    elif noise == "rademacher":
        G = rng.integers(0, 2, size=(n, d)).astype(float) * 2.0 - 1.0
    else:
        raise InvalidInput(f"unknown noise kind {noise!r}")
    F = params.noise_factor
    if F.ndim == 1:
        G *= F
    else:
        G = G @ F.T
    X += G
    del G
    return build_dataset(X, labels)


def scheme_distribution(scheme, L):
    """Exact pattern distribution induced by a scheme over ``L`` labels.

    A scheme draws a cardinality c and then a uniform random size-c subset,
    so every size-c pattern has probability frac(c) / C(L, c). Enumerates
    all patterns with positive probability; feasible for the small L used
    in population-level checks.
    """
    from math import comb

    from .population import label_moments

    L = count("L", L)
    count("scheme cardinality", scheme.max_cardinality(), high=L, error=InvalidScheme)
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
        share = frac / comb(L, card)
        for subset in combinations(range(L), card):
            bits = np.zeros(L, dtype=np.int64)
            bits[list(subset)] = 1
            pairs.append((bits, share))
    return label_moments(pairs)
