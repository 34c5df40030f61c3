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
        if self.kind == "single":
            object.__setattr__(self, "k", 1)  # its cardinality; a given k is ignored
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

    @property
    def drawn(self):
        """The scheme's law, read by every reader of it: the (cardinality,
        fraction) pairs it draws with a positive fraction, ``((k, 1.0),)``
        for "single" and "uniform", the positive part of ``mix`` otherwise."""
        if self.kind == "variable":
            return tuple((c, f) for c, f in self.mix if f > 0)
        return ((self.k, 1.0),)

    def max_cardinality(self):
        return max(c for c, _ in self.drawn)


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
    if scheme.kind != "variable":
        return np.full(n, scheme.max_cardinality(), dtype=np.int64)
    # zero fractions take part in the choice, so the stream is the mix's own
    cards = np.array([c for c, _ in scheme.mix], dtype=np.int64)
    fracs = np.array([f for _, f in scheme.mix])
    return cards[rng.choice(len(cards), size=n, p=fracs)]


def gen_pattern(scheme, L, rng):
    """One label pattern over L labels: its cardinality drawn as
    ``gen_labels`` draws a row's, its labels a uniform random subset of that
    size. No label is forced to appear.

    Returns
    -------
    (L,) int64 ndarray of 0/1 entries
    """
    L = count("L", L)
    card = int(_draw_cardinalities(scheme, 1, L, rng)[0])
    bits = np.zeros(L, dtype=np.int64)
    bits[rng.choice(L, size=card, replace=False)] = 1
    return bits


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
    return pair_products_matrix(_array(y, "pattern", shape=(None,))[None])[0]


def pair_products_matrix(Y):
    """Row-wise pair products of a label matrix: (n, L(L-1)/2)."""
    Y = _array(Y, "Y", shape=(None, None))
    pairs = np.array(list(combinations(range(Y.shape[1]), 2)), dtype=np.intp).reshape(-1, 2)
    # the gathered columns come out column-major; the product is row-major
    return np.multiply(Y[:, pairs[:, 0]], Y[:, pairs[:, 1]], order="C")


def _interaction_effects(B_inter, A):
    """B_inter through the array route: finite, with one row per feature of
    the (d, L) label effects A and one column per label pair, as
    ``pair_products_matrix`` orders them."""
    d, L = A.shape
    return _array(B_inter, "B_inter", float, (d, L * (L - 1) // 2), finite=True)


def signal_rows(labels, params, alpha=0.0):
    """The noise-free rows x = mu + A y + alpha * B z of the model for given labels.

    Parameters
    ----------
    labels : LabelMatrix
    params : ModelParams
        ``params.B_inter`` supplies the interaction effects when alpha != 0.
    alpha : float
        Interaction strength; with alpha == 0 the interaction branch is
        skipped entirely, so the rows are those of the plain linear model.

    Returns
    -------
    (n, d) ndarray
        One row per sample, in the order of ``labels``.
    """
    alpha = real("alpha", alpha, -FLOAT_MAX, FLOAT_MAX)
    if params.L != labels.L:
        raise InvalidInput(f"A has {params.L} label columns, labels have {labels.L}")
    if alpha != 0.0 and params.B_inter is None:
        raise InvalidInput("alpha != 0 requires B_inter in the model parameters")
    Y = labels.bits.astype(float)
    X = Y @ params.A.T
    X += params.mu
    if alpha != 0.0:
        X += alpha * (pair_products_matrix(Y) @ params.B_inter.T)
    return X


def _noise_rows(params, rng, out, noise="gaussian"):
    """Fill ``out``, an (m, d) float array, with m noise rows drawn from
    ``rng`` under the law ``noise`` and coloured by ``params.noise_factor``,
    and return it."""
    if noise == "gaussian":
        rng.standard_normal(out=out)
    elif noise == "rademacher":
        out[...] = 2.0 * rng.integers(0, 2, size=out.shape) - 1.0
    else:
        raise InvalidInput(f"unknown noise kind {noise!r}")
    F = params.noise_factor
    if F.ndim == 1:
        out *= F
    else:
        out[...] = out @ F.T
    return out


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
        Interaction strength, as ``signal_rows`` takes it; with alpha == 0
        the output is bit-identical to the plain linear model under the same
        rng state.
    noise : {"gaussian", "rademacher"}
        Noise law: exact N(0, Sigma_w), or a bounded sub-Gaussian alternative
        (iid sign flips pushed through the covariance square root - same
        mean and covariance, compact support).

    Returns
    -------
    Dataset
        The rows of ``signal_rows`` plus one noise row each, so a call holds
        the rows and one noise matrix of the same size.
    """
    X = signal_rows(labels, params, alpha)
    X += _noise_rows(params, rng, np.empty_like(X), noise)
    return build_dataset(X, labels)


# rows of the second draw of ``noise_differences`` made at a time: each block
# is subtracted from the first draw, so a call holds ``out`` and one block
_DIFFERENCE_BLOCK = 1000


def noise_differences(params, rng, out):
    """Write e_i - e_j for m independent pairs of noise vectors into ``out``.

    Parameters
    ----------
    params : ModelParams
        ``params.noise_factor`` colours each draw, so e ~ N(0, Sigma_w).
    rng : numpy.random.Generator
        Every e_i is drawn first, in one (m, d) draw; then the e_j, in blocks
        of 1000 rows. The blocks continue one draw, so the e_j are those of
        a single (m, d) draw.
    out : (m, d) ndarray
        The caller's writeable, C-contiguous float64 buffer; d must be the
        model's. It is filled in place, so a call allocates one block.

    Returns
    -------
    out
    """
    d = params.d
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.ndim == 2 and out.shape[1] == d):
        got = f"{out.dtype} {out.shape}" if isinstance(out, np.ndarray) else type(out).__name__
        raise InvalidInput(f"out must be a float64 (m, {d}) array, got {got}")
    if not (out.flags.writeable and out.flags.c_contiguous):
        raise InvalidInput("out must be a writeable C-contiguous array")
    m = out.shape[0]
    _noise_rows(params, rng, out)
    block = np.empty((min(_DIFFERENCE_BLOCK, m), d))
    for a in range(0, m, _DIFFERENCE_BLOCK):
        out[a : a + _DIFFERENCE_BLOCK] -= _noise_rows(params, rng, block[: m - a])
    return out
