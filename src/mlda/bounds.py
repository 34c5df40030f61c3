"""Distance preservation, concentration, and interaction-robustness bounds.

For two samples generated by the linear label-effect model, the projected
squared distance decomposes as

    ||W^T(x_i - x_j)||^2 = ||s||^2 + 2 s^T W^T(e_i - e_j) + ||W^T(e_i - e_j)||^2,

with s = W^T A (y_i - y_j). Its expectation is the signal ||s||^2 plus the
noise floor C_w = 2 tr(W^T Sigma_w W), and the signal is pinched between the
extreme singular values of W^T A times the Hamming distance of the label
patterns. Deviations around the mean are sub-exponential with Hanson-Wright
tail parameters (V, B) computed here; pairwise label interactions perturb the
mean by an explicitly bounded amount.

Every bound is evaluated for many pairs under one (W, A, Sigma_w, B_inter),
so its factors are split by what they depend on. ``bound_frame`` validates
the matrices and computes, once per frame: W^T A and its extreme singular
values (one SVD), Psi = W^T Sigma_w W with C_w = 2 tr(Psi), ||Psi||_2 and
||Psi||_F, and sigma_max(W^T B_inter) (one more SVD; ``with_interactions``
swaps B_inter at that cost alone). sigma_max(A) and sigma_max(B_inter),
which only the a-priori interaction variants read, are computed by each call
that asks for them. Each pair method takes one pair of (L,) patterns or a
stack of P pairs as two (P, L) arrays, validates them once and computes only
what depends on the pair: delta = y_i - y_j, d_H, d_J, s = (W^T A) delta,
the support-restricted singular values when asked for, the tail parameters
(V, B) from ||s||, ||z_i - z_j|| and the widenings. A stack gives each
pair-dependent result as a (P,) array whose entries carry the bits of the
single-pair call, which returns Python scalars. The module-level
``distance_budget``, ``tail_params`` and ``interaction_bound`` build a frame
for a single call. A property of the frame as a whole, such as the identity
Psi = (I_r - W^T Sb_pop W) / K_pop of a total-scatter-orthogonal W, is
checked by whoever built W, once, not by the pair bounds.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateNoise, InvalidInput, check, count, real
from .synth import _interaction_effects, pair_products_matrix
from .spectral import _all_binary, _array, sym_eigvals, symmetrize


def _pattern(y, L=None, name="pattern", shape=None):
    y = _array(y, name, shape=shape or (L,))
    if not _all_binary(y):
        raise InvalidInput(f"{name} entries must be 0 or 1")
    return y.astype(float)


def _pattern_pairs(y_i, y_j, L=None):
    """One pair of (L,) label patterns, or a stack of P pairs as two (P, L)
    arrays, validated together; returned as float (P, L) stacks, with
    whether one pair came in."""
    stacked = _array(y_i, "y_i").ndim == 2
    y_i = _pattern(y_i, name="y_i", shape=(None, L) if stacked else (L,))
    y_j = _pattern(y_j, name="y_j", shape=y_i.shape)
    return (y_i, y_j, False) if stacked else (y_i[None], y_j[None], True)


def _one(fields):
    """The fields of a one-pair stack as that pair's Python scalars."""
    return {k: v[0].item() if isinstance(v, np.ndarray) else v for k, v in fields.items()}


def _check_pairs(name, value, limit):
    """``check`` for a stack of pairs, run once on its worst pair: the one
    whose value - limit is largest, a NaN counting as worst."""
    if value.size:
        worst = np.argmax(value - limit)
        check(name, value[worst], limit[worst])


def hamming(y_i, y_j):
    """Hamming distance between two label patterns: k_i + k_j - 2 y_i^T y_j."""
    y_i = _pattern(y_i)
    y_j = _pattern(y_j, L=y_i.shape[0])
    return int(np.abs(y_i - y_j).sum())


def jaccard(y_i, y_j):
    """Jaccard distance: Hamming over union size (zero for equal patterns)."""
    y_i = _pattern(y_i)
    y_j = _pattern(y_j, L=y_i.shape[0])
    return _jaccard(y_i, y_j)


def _jaccard(y_i, y_j):
    # the arithmetic of ``jaccard`` on already-validated float patterns, one
    # pair (a float) or a stack (one entry per row); every count is exact
    union = y_i.sum(-1) + y_j.sum(-1) - (y_i * y_j).sum(-1)
    d_J = np.divide(np.abs(y_i - y_j).sum(-1), union, out=np.zeros_like(union), where=union != 0)
    return d_J.item() if d_J.ndim == 0 else d_J


def _extreme_singular_values(T):
    """(sigma_min, sigma_max) of T as a map on its full domain.

    A wide matrix (more columns than rows) has a nontrivial null space, so
    its effective smallest singular value is zero; a matrix without columns
    or rows (B_inter when L = 1) has (0, 0).
    """
    svals = np.linalg.svd(T, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    smin = float(svals[-1]) if svals.size and T.shape[0] >= T.shape[1] else 0.0
    return smin, smax


@dataclass(frozen=True)
class DistanceBudget:
    """Expected projected squared distance between two samples, with bounds.

    total_expected = signal + C_w always; lower/upper pinch total_expected
    via the extreme singular values of W^T A (restricted to the differing
    labels when support_restricted was requested). For a stack of pairs,
    every field but C_w (and the unrestricted sigma_min/sigma_max) is a (P,)
    array.
    """

    signal: float
    C_w: float
    total_expected: float
    d_H: int
    d_J: float
    lower: float
    upper: float
    sigma_min: float
    sigma_max: float


def distance_budget(W, A, y_i, y_j, Sigma_w, support_restricted=False):
    """Two-sided bound on E||W^T(x_i - x_j)||^2 for a label pair.

    Parameters
    ----------
    W : (d, r) array_like
        Projection (any matrix; Stiefel or total-scatter-orthogonal frames
        both work).
    A : (d, L) array_like
        Label-effect matrix.
    y_i, y_j : (L,) binary patterns
    Sigma_w : (d, d) array_like
        Noise covariance.
    support_restricted : bool
        When true, the singular values are taken on the columns where the
        patterns differ - a sharper pinch for the same pair.

    Many pairs under one (W, A, Sigma_w) should share one ``bound_frame``.
    """
    return bound_frame(W, A, Sigma_w).distance_budget(y_i, y_j, support_restricted)


def snr(budget, r, Sigma_w):
    """Signal-to-noise ratio of a pair and its Stiefel-frame bounds.

    The value is signal / C_w; the bounds assume W is a Stiefel frame so that
    C_w lies in [2 r lambda_min(Sigma_w), 2 r lambda_max(Sigma_w)].
    """
    if budget.C_w <= 0:
        raise DegenerateNoise("C_w = 0: signal-to-noise ratio undefined")
    r = count("r", r)
    lam = sym_eigvals(Sigma_w)
    lam_min, lam_max = float(lam[-1]), float(lam[0])
    lower = (budget.sigma_min ** 2) * budget.d_H / (2.0 * r * lam_max) if lam_max > 0 else np.inf
    upper = (budget.sigma_max ** 2) * budget.d_H / (2.0 * r * lam_min) if lam_min > 0 else np.inf
    return {
        "snr": budget.signal / budget.C_w,
        "lower": float(lower),
        "upper": float(upper),
    }


def jaccard_lower(budget, y_i, y_j):
    """Jaccard-form lower bounds on the projected signal.

    The exact form sigma_min^2 * |union| * d_J equals the Hamming lower
    bound; the weakened form replaces |union| by max(k_i, k_j) and is never
    larger. Takes the budget of one pair or of a stack, with its patterns.
    """
    y_i, y_j, single = _pattern_pairs(y_i, y_j)
    if np.shape(budget.d_J) != (() if single else y_i.shape[:1]):
        raise InvalidInput("budget and patterns must hold the same number of pairs")
    k_i, k_j = y_i.sum(1), y_j.sum(1)
    union = k_i + k_j - (y_i * y_j).sum(1)
    d_J = budget.d_J
    exact = (budget.sigma_min ** 2) * union * d_J
    weakened = (budget.sigma_min ** 2) * np.maximum(k_i, k_j) * d_J
    _check_pairs(
        "exact Jaccard bound fell below weakened form (weakened - slack vs exact)",
        weakened - 1e-12 * np.maximum(1.0, np.abs(weakened)), exact,
    )
    out = {"d_J": d_J, "exact": exact, "weakened": weakened}
    return _one(out) if single else out


@dataclass(frozen=True)
class TailParams:
    """Hanson-Wright tail parameters of the projected-distance deviation.

    B_tail = 4 ||Psi||_2 and V^2 = 16 ||s||^2 ||Psi||_2 + 32 ||Psi||_F^2 with
    Psi = W^T Sigma_w W and s the projected signal difference; Psi is the
    frame's, shared by every pair.
    """

    Psi: np.ndarray
    B_tail: float
    V_ij: float
    signal: float


def tail_params(W, A, y_i, y_j, Sigma_w):
    """Tail parameters (V, B) for one pair.

    Only s depends on the pair; Psi, ||Psi||_2 and ||Psi||_F come from the
    frame. Many pairs under one (W, A, Sigma_w) should share one
    ``bound_frame``.
    """
    return bound_frame(W, A, Sigma_w).tail_params(y_i, y_j)


def concentration_interval(params, delta_prob, c_scale=1.0):
    """Half-width of the sub-exponential deviation interval at level delta.

    half_width = V sqrt(log(2/delta) / c) + B log(2/delta) / c with c the
    configurable scale factor (default 1). Decreasing delta widens the
    interval monotonically. The arithmetic is done in Python floats, which
    round an overflow to inf without a warning; a log term or half-width
    that is not finite raises InvalidInput.
    """
    delta_prob = real("delta", delta_prob, 0, 1, strict=True)
    c_scale = real("c_scale", c_scale, 0, strict=True)
    log_term = float(np.log(2.0 / delta_prob)) / c_scale
    if not math.isfinite(log_term):
        raise InvalidInput(f"log(2/delta) / c_scale overflows at c_scale={c_scale!r}")
    half_width = float(params.V_ij) * math.sqrt(log_term) + float(params.B_tail) * log_term
    if not math.isfinite(half_width):
        raise InvalidInput(f"half-width overflows at delta={delta_prob!r}, c_scale={c_scale!r}")
    return half_width


def interaction_bound(W, A, B_inter, y_i, y_j, constraint="none", st_min_eig=None):
    """Bound the mean-distance shift caused by pairwise label interactions.

    Returns a dict with the naive widening (0: the linear theory claims the
    mean needs no correction), the corrected widening

        2 sigma_max(W^T A) ||delta|| sigma_max(W^T B) ||z_i - z_j||
        + sigma_max(W^T B)^2 ||z_i - z_j||^2,

    the actual ``z_norm`` = ||z_i - z_j|| and its a-priori bound
    sqrt(d_H * min(k_max - 1, L - 1)) with k_max = max(k_i, k_j).

    With ``constraint="stiefel"`` an a-priori variant using sigma_max(A) and
    sigma_max(B) is added (valid for any Stiefel frame); with
    ``constraint="stml"`` the same variant divided by lambda_min of the
    population total scatter (pass it as ``st_min_eig``) is added, valid for
    any total-scatter-orthogonal frame.
    """
    return bound_frame(W, A, B_inter=B_inter).interaction_bound(y_i, y_j, constraint, st_min_eig)


# ---------------------------------------------------------------------------
# the pair-invariant factors, computed once per frame
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BoundFrame:
    """The factors of the pair bounds that do not depend on the pair.

    Built by ``bound_frame``, which validates every matrix once. The
    methods ``distance_budget``, ``tail_params`` and ``interaction_bound``
    then validate the two patterns and do only the pair's own arithmetic.

    Attributes
    ----------
    W, A : validated float arrays; B_inter likewise, or None.
    T : W^T A (read-only), with sigma_min/sigma_max its extreme singular
        values as a map on its full domain.
    Psi : symmetrize(W^T Sigma_w W) (read-only); C_w = 2 tr(Psi), psi_2 its
        largest absolute eigenvalue, psi_F its Frobenius norm. None without
        Sigma_w.
    sigma_max_WB : sigma_max(W^T B_inter), 0.0 without B_inter.
    """

    W: np.ndarray
    A: np.ndarray
    T: np.ndarray
    sigma_min: float
    sigma_max: float
    Psi: np.ndarray = None
    C_w: float = None
    psi_2: float = None
    psi_F: float = None
    B_inter: np.ndarray = None
    sigma_max_WB: float = 0.0

    def with_interactions(self, B_inter):
        """This frame with B_inter validated and sigma_max(W^T B_inter) added;
        every other factor is shared, so it costs one SVD."""
        B_inter = _interaction_effects(B_inter, self.A)
        sb = _extreme_singular_values(self.W.T @ B_inter)[1]
        return replace(self, B_inter=B_inter, sigma_max_WB=sb)

    def _patterns(self, y_i, y_j):
        return _pattern_pairs(y_i, y_j, self.A.shape[1])

    def _require_noise(self):
        if self.Psi is None:
            raise InvalidInput("this bound needs Sigma_w; pass it to bound_frame")

    def _signals(self, delta):
        # ||s||^2 with s = T delta, one row at a time: a stacked product
        # rounds differently from T @ delta
        return np.array([s @ s for s in (self.T @ row for row in delta)])

    def distance_budget(self, y_i, y_j, support_restricted=False):
        """``distance_budget`` for one pair or a stack (see the module-level
        function)."""
        self._require_noise()
        y_i, y_j, single = self._patterns(y_i, y_j)
        delta = y_i - y_j
        d_H = np.abs(delta).sum(1).astype(int)
        signal = self._signals(delta)
        C_w = self.C_w
        if support_restricted:
            svals = [_extreme_singular_values(self.T[:, row != 0]) for row in delta]
            smin, smax = np.array(svals).reshape(-1, 2).T
        else:
            smin, smax = self.sigma_min, self.sigma_max
        out = dict(
            signal=signal,
            C_w=C_w,
            total_expected=signal + C_w,
            d_H=d_H,
            d_J=_jaccard(y_i, y_j),
            lower=smin * smin * d_H + C_w,
            upper=smax * smax * d_H + C_w,
            sigma_min=smin,
            sigma_max=smax,
        )
        return DistanceBudget(**(_one(out) if single else out))

    def tail_params(self, y_i, y_j):
        """``tail_params`` for one pair or a stack (see the module-level
        function)."""
        self._require_noise()
        y_i, y_j, single = self._patterns(y_i, y_j)
        signal = self._signals(y_i - y_j)
        psi_2 = self.psi_2
        pair = dict(V_ij=np.sqrt(16.0 * signal * psi_2 + 32.0 * self.psi_F ** 2), signal=signal)
        return TailParams(Psi=self.Psi, B_tail=4.0 * psi_2, **(_one(pair) if single else pair))

    def interaction_bound(self, y_i, y_j, constraint="none", st_min_eig=None):
        """``interaction_bound`` for one pair or a stack (see the
        module-level function)."""
        y_i, y_j, single = self._patterns(y_i, y_j)
        L = self.A.shape[1]
        d_H = np.abs(y_i - y_j).sum(1)
        delta_norm = np.sqrt(d_H)
        k_max = np.maximum(y_i.sum(1), y_j.sum(1)).astype(int)
        dz = np.linalg.norm(pair_products_matrix(y_i) - pair_products_matrix(y_j), axis=1)
        z_bound = np.sqrt(d_H * np.minimum(np.maximum(k_max - 1, 0), L - 1))
        _check_pairs("||z_i - z_j|| exceeded its bound", dz, z_bound * (1 + 1e-12) + 1e-12)

        out = {
            "naive_gap_bound": np.zeros_like(dz),
            "corrected_bound": _widening(self.sigma_max, self.sigma_max_WB, delta_norm, dz),
            "z_norm": dz,
            "z_norm_bound": z_bound,
        }
        if constraint in ("stiefel", "stml"):
            # the a-priori variant, from sigma_max(A) and sigma_max(B_inter)
            sb = 0.0 if self.B_inter is None else _extreme_singular_values(self.B_inter)[1]
            raw = _widening(_extreme_singular_values(self.A)[1], sb, delta_norm, dz)
            if constraint == "stiefel":
                out["stiefel_bound"] = raw
            else:
                out["stml_bound"] = raw / real("st_min_eig", st_min_eig, 0, strict=True)
        elif constraint != "none":
            raise InvalidInput(f"unknown constraint kind {constraint!r}")
        return _one(out) if single else out


def _widening(sa, sb, delta_norm, dz):
    """2 sa ||delta|| sb dz + sb^2 dz^2: the mean shift that interaction
    effects of size sb can add beside label effects of size sa, for a pair
    with ||delta|| = delta_norm and ||z_i - z_j|| = dz."""
    return 2.0 * sa * delta_norm * sb * dz + sb * sb * dz * dz


def bound_frame(W, A, Sigma_w=None, B_inter=None):
    """Validate (W, A, Sigma_w, B_inter) once and compute the pair-invariant
    factors of the pair bounds: W^T A and its extreme singular values (one
    SVD), Psi = W^T Sigma_w W with C_w, ||Psi||_2 and ||Psi||_F when Sigma_w
    is given, and sigma_max(W^T B_inter) when B_inter is given (one more SVD).

    A non-finite entry or a misshapen matrix raises InvalidInput here, with
    the messages the module-level bound functions give.
    """
    W = _array(W, "W", float, (None, None), finite=True)
    d = W.shape[0]
    A = _array(A, "A", float, (d, None), finite=True)
    noise = {}
    if Sigma_w is not None:
        Sigma_w = _array(Sigma_w, "Sigma_w", float, (d, d), finite=True)
        Psi = symmetrize(W.T @ Sigma_w @ W)
        Psi.flags.writeable = False
        noise = dict(
            Psi=Psi,
            C_w=float(2.0 * np.trace(Psi)),
            psi_2=float(np.abs(sym_eigvals(Psi)).max()),
            psi_F=float(np.linalg.norm(Psi)),
        )
    T = W.T @ A
    T.flags.writeable = False
    smin, smax = _extreme_singular_values(T)
    frame = BoundFrame(W=W, A=A, T=T, sigma_min=smin, sigma_max=smax, **noise)
    return frame if B_inter is None else frame.with_interactions(B_inter)
