"""Distance / concentration / interaction bound tests.

Backed by a hand-built frame with known singular values, a Monte Carlo oracle
for the expected projected distance, and exact Cauchy-Schwarz checks for the
interaction widening.
"""

import dataclasses
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mlda import (
    DegenerateNoise,
    InvalidInput,
    InvariantViolation,
    bound_frame,
    concentration_interval,
    distance_budget,
    hamming,
    interaction_bound,
    isotropic_params,
    jaccard,
    jaccard_lower,
    label_moments,
    opt_stml,
    pair_products,
    population_scatters,
    snr,
    tail_params,
)
from mlda.bounds import DistanceBudget, TailParams, _extreme_singular_values, _jaccard, _pattern
from mlda.spectral import _array, symmetrize
from tests.conftest import random_psd, random_stiefel

# hand-built: W = first two axes, W^T A = diag(2, 1) -> singular values (2, 1)
W2 = np.eye(4)[:, :2]
A2 = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
SIG_ISO = 0.25 * np.eye(4)
YI = np.array([1, 0])
YJ = np.array([0, 1])


# ---------------------------------------------------------------------------
# pattern distances
# ---------------------------------------------------------------------------


def test_hamming_and_jaccard_frozen():
    yi = np.array([1, 1, 0])
    yj = np.array([0, 1, 1])
    assert hamming(yi, yj) == 2
    assert jaccard(yi, yj) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert jaccard(yi, yi) == 0.0
    assert hamming(YI, YJ) == 2 and jaccard(YI, YJ) == 1.0


def test_distance_budget_frozen():
    b = distance_budget(W2, A2, YI, YJ, SIG_ISO)
    assert b.signal == pytest.approx(5.0, abs=1e-14)  # ||(2, -1)||^2
    assert b.C_w == pytest.approx(1.0, abs=1e-14)  # 2 tr(0.25 I_2)
    assert b.total_expected == pytest.approx(6.0, abs=1e-14)
    assert b.d_H == 2 and b.d_J == 1.0
    assert (b.sigma_min, b.sigma_max) == (pytest.approx(1.0), pytest.approx(2.0))
    assert b.lower == pytest.approx(3.0, abs=1e-14)
    assert b.upper == pytest.approx(9.0, abs=1e-14)
    assert b.lower <= b.total_expected <= b.upper


def test_distance_budget_jaccard_is_bitwise_jaccard(rng):
    # distance_budget reuses its validated patterns for d_J instead of
    # calling jaccard; the value must not move by a single bit
    d = 5
    W = random_stiefel(rng, d, 2)
    for L in range(1, 7):
        A = rng.standard_normal((d, L))
        patterns = [np.array(bits) for bits in product((0, 1), repeat=L)]
        for y_i in patterns:
            for y_j in patterns:
                d_J = distance_budget(W, A, y_i, y_j, np.eye(d)).d_J
                want = jaccard(y_i, y_j)
                assert type(d_J) is float
                assert np.float64(d_J).tobytes() == np.float64(want).tobytes(), (y_i, y_j)


def test_wide_projected_effect_has_zero_sigma_min(rng):
    W = random_stiefel(rng, 5, 2)
    A = rng.standard_normal((5, 4))  # W^T A is 2x4: nontrivial kernel
    y_i = np.array([1, 0, 0, 0])
    y_j = np.array([0, 1, 0, 0])
    b = distance_budget(W, A, y_i, y_j, np.eye(5))
    assert b.sigma_min == 0.0
    assert b.lower == pytest.approx(b.C_w)


def test_support_restriction_sharpens(rng):
    for _ in range(20):
        W = random_stiefel(rng, 6, 3)
        A = rng.standard_normal((6, 4))
        y_i = np.array([1, 1, 0, 0])
        y_j = np.array([0, 1, 1, 0])
        plain = distance_budget(W, A, y_i, y_j, np.eye(6))
        sharp = distance_budget(W, A, y_i, y_j, np.eye(6), support_restricted=True)
        assert sharp.lower >= plain.lower - 1e-12
        assert sharp.upper <= plain.upper + 1e-12
        assert sharp.lower - 1e-9 <= sharp.total_expected <= sharp.upper + 1e-9


def test_budget_shape_validation():
    with pytest.raises(InvalidInput):
        distance_budget(np.eye(3), np.eye(4), [1, 0, 0, 0], [0, 1, 0, 0], np.eye(4))
    with pytest.raises(InvalidInput):
        distance_budget(W2, A2, [1, 0], [0, 1], np.eye(3))
    with pytest.raises(InvalidInput):
        distance_budget(W2, A2, [1, 2], [0, 1], SIG_ISO)


def _poisoned(M, value):
    M = np.array(M, dtype=float)
    M[0, -1] = value
    return M


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("target", ["W", "A", "Sigma_w"])
def test_distance_budget_rejects_non_finite_inputs(value, target):
    args = {"W": W2, "A": A2, "Sigma_w": SIG_ISO}
    args[target] = _poisoned(args[target], value)
    with pytest.raises(InvalidInput, match=target):
        distance_budget(args["W"], args["A"], YI, YJ, args["Sigma_w"])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("target", ["W", "A", "B_inter"])
def test_interaction_bound_rejects_non_finite_inputs(value, target):
    args = {"W": W2, "A": A2, "B_inter": np.ones((4, 1))}
    args[target] = _poisoned(args[target], value)
    with pytest.raises(InvalidInput, match=target):
        interaction_bound(args["W"], args["A"], args["B_inter"], YI, YJ)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("target", ["W", "A", "Sigma_w"])
def test_tail_params_rejects_non_finite_inputs(value, target):
    args = {"W": W2, "A": A2, "Sigma_w": SIG_ISO}
    args[target] = _poisoned(args[target], value)
    with pytest.raises(InvalidInput, match=target):
        tail_params(args["W"], args["A"], YI, YJ, args["Sigma_w"])


# ---------------------------------------------------------------------------
# Monte Carlo oracle for the expected distance
# ---------------------------------------------------------------------------


def test_expected_distance_matches_monte_carlo(rng):
    d, r, L = 4, 2, 3
    W = random_stiefel(rng, d, r)
    A = rng.standard_normal((d, L))
    Sigma_w = random_psd(rng, d, scale=0.5) + 0.1 * np.eye(d)
    y_i = np.array([1, 1, 0])
    y_j = np.array([0, 1, 1])
    b = distance_budget(W, A, y_i, y_j, Sigma_w)

    n = 100_000
    Ltri = np.linalg.cholesky(Sigma_w)
    base = A @ (y_i - y_j)
    eps = (rng.standard_normal((n, d)) - rng.standard_normal((n, d))) @ Ltri.T
    vals = np.square((base + eps) @ W).sum(axis=1)
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - b.total_expected) < 5 * se


def test_per_draw_decomposition_identity(rng):
    d, r = 5, 2
    W = random_stiefel(rng, d, r)
    A = rng.standard_normal((d, 3))
    y_i, y_j = np.array([1, 0, 1]), np.array([1, 1, 0])
    s = W.T @ A @ (y_i - y_j)
    for _ in range(100):
        e = rng.standard_normal(d) - rng.standard_normal(d)
        pe = W.T @ e
        total = float(np.sum((s + pe) ** 2))
        parts = float(s @ s) + 2.0 * float(s @ pe) + float(pe @ pe)
        assert total == pytest.approx(parts, rel=1e-12, abs=1e-12)


def test_cross_term_centers_and_linear_variance(rng):
    d, r = 4, 2
    W = random_stiefel(rng, d, r)
    A = rng.standard_normal((d, 3))
    Sigma_w = random_psd(rng, d, scale=0.4) + 0.2 * np.eye(d)
    y_i, y_j = np.array([1, 0, 0]), np.array([0, 0, 1])
    s = W.T @ A @ (y_i - y_j)

    n = 200_000
    Ltri = np.linalg.cholesky(Sigma_w)
    eps = (rng.standard_normal((n, d)) - rng.standard_normal((n, d))) @ Ltri.T
    cross = 2.0 * (eps @ W) @ s
    se = cross.std(ddof=1) / np.sqrt(n)
    assert abs(cross.mean()) < 5 * se
    # the linear part is Gaussian with variance 8 s^T (W^T Sigma_w W) s
    Psi = W.T @ Sigma_w @ W
    var_expected = 8.0 * float(s @ Psi @ s)
    rel_se = np.sqrt(2.0 / n)
    assert abs(cross.var(ddof=1) / var_expected - 1.0) < 5 * rel_se


def test_noise_floor_bracket_over_stiefel_frames(rng):
    d, r = 6, 2
    Sigma_w = random_psd(rng, d) + 0.05 * np.eye(d)
    lam = np.linalg.eigvalsh(Sigma_w)
    for _ in range(1000):
        W = random_stiefel(rng, d, r)
        C_w = 2.0 * float(np.trace(W.T @ Sigma_w @ W))
        assert 2 * r * lam[0] - 1e-10 <= C_w <= 2 * r * lam[-1] + 1e-10


# ---------------------------------------------------------------------------
# snr and the Jaccard forms
# ---------------------------------------------------------------------------


def test_snr_brackets_and_scaling():
    b = distance_budget(W2, A2, YI, YJ, SIG_ISO)
    out = snr(b, r=2, Sigma_w=SIG_ISO)
    assert out["snr"] == pytest.approx(5.0, abs=1e-12)
    assert out["lower"] <= out["snr"] <= out["upper"]
    doubled = distance_budget(W2, 2.0 * A2, YI, YJ, SIG_ISO)
    assert snr(doubled, 2, SIG_ISO)["snr"] == pytest.approx(20.0, abs=1e-11)


def test_snr_degenerate_noise():
    b = distance_budget(W2, A2, YI, YJ, np.zeros((4, 4)))
    with pytest.raises(DegenerateNoise):
        snr(b, 2, np.zeros((4, 4)))
    good = distance_budget(W2, A2, YI, YJ, SIG_ISO)
    with pytest.raises(InvalidInput):
        snr(good, 0, SIG_ISO)


def test_jaccard_lower_equals_hamming_form(rng):
    # union * d_J == d_H makes the exact Jaccard bound coincide with the
    # Hamming lower bound; the weakened form can only fall below it
    for _ in range(50):
        L = 5
        y_i = np.zeros(L, dtype=int)
        y_j = np.zeros(L, dtype=int)
        y_i[rng.choice(L, size=rng.integers(1, 4), replace=False)] = 1
        y_j[rng.choice(L, size=rng.integers(1, 4), replace=False)] = 1
        if np.array_equal(y_i, y_j):
            continue
        W = random_stiefel(rng, 6, 4)
        A = rng.standard_normal((6, L)) @ np.diag(rng.uniform(0.5, 2.0, L))
        b = distance_budget(W, A, y_i, y_j, 0.3 * np.eye(6))
        out = jaccard_lower(b, y_i, y_j)
        hamming_form = b.sigma_min**2 * hamming(y_i, y_j)
        assert out["exact"] == pytest.approx(hamming_form, rel=1e-12, abs=1e-12)
        assert out["weakened"] <= out["exact"] + 1e-12


# ---------------------------------------------------------------------------
# tail parameters
# ---------------------------------------------------------------------------


def test_tail_params_plain_route(rng):
    d, r = 5, 2
    W = random_stiefel(rng, d, r)
    A = rng.standard_normal((d, 3))
    Sigma_w = random_psd(rng, d) + 0.1 * np.eye(d)
    tp = tail_params(W, A, [1, 0, 0], [0, 1, 0], Sigma_w)
    Psi = W.T @ Sigma_w @ W
    assert np.allclose(tp.Psi, 0.5 * (Psi + Psi.T), atol=1e-12)
    evals = np.abs(np.linalg.eigvalsh(tp.Psi))
    assert tp.B_tail == pytest.approx(4.0 * evals.max(), rel=1e-12)
    v2 = 16.0 * tp.signal * evals.max() + 32.0 * np.linalg.norm(tp.Psi) ** 2
    assert tp.V_ij == pytest.approx(np.sqrt(v2), rel=1e-12)


TOY = [([1, 0], 0.4), ([0, 1], 0.4), ([1, 1], 0.2)]


def test_tail_params_population_identity(rng):
    dist = label_moments(TOY)
    A = rng.standard_normal((4, 2)) * 1.5
    params = isotropic_params(np.zeros(4), A, 0.6)
    pop = population_scatters(params, dist)
    r = 2
    opt = opt_stml(pop.Sb_pop, pop.St_ml_pop, r)
    Psi = bound_frame(opt.columns, A, params.Sigma_w).Psi
    assert (opt.theta >= 0).all() and (opt.theta < 1).all()
    # W^T St_ml_pop W = I makes the eigenvalues of Psi (1 - theta_i) / K_pop
    psi_evals = np.sort(np.linalg.eigvalsh(Psi))[::-1]
    expected = np.sort((1.0 - opt.theta) / dist.K_pop)[::-1]
    assert np.allclose(psi_evals, expected, rtol=1e-10, atol=1e-12)


def test_tail_params_rejects_wrong_frame(rng, monkeypatch):
    # the concentration runner checks its frame's Psi identity once; a frame
    # that is orthonormal but not St_ml-orthogonal fails it before any pair
    from mlda.harness import experiments
    from mlda.harness.config import DEFAULTS, ExperimentConfig

    def stiefel_frame(Sb, St, r):
        good = opt_stml(Sb, St, r)
        return dataclasses.replace(good, columns=random_stiefel(rng, Sb.shape[0], r))

    monkeypatch.setattr(experiments, "opt_stml", stiefel_frame)
    options = {**DEFAULTS["concentration"], "pairs": 2, "draws": 100}
    config = ExperimentConfig(experiment="concentration", seed=3, out_dir="results", options=options)
    with pytest.raises(InvariantViolation, match="Psi identity"):
        experiments.run(config)


def test_concentration_interval_properties(rng):
    tp = tail_params(W2, A2, YI, YJ, SIG_ISO)
    widths = [concentration_interval(tp, d) for d in (0.5, 0.1, 0.01, 0.001)]
    assert all(a < b for a, b in zip(widths, widths[1:]))  # smaller delta, wider
    assert concentration_interval(tp, 0.1, c_scale=4.0) < concentration_interval(tp, 0.1)
    zero = tail_params(W2, A2, YI, YJ, np.zeros((4, 4)))
    assert concentration_interval(zero, 0.05) == 0.0
    with pytest.raises(InvalidInput):
        concentration_interval(tp, 0.0)
    with pytest.raises(InvalidInput):
        concentration_interval(tp, 1.5)
    with pytest.raises(InvalidInput):
        concentration_interval(tp, 0.1, c_scale=0.0)
    # an overflowing log term or half-width is rejected without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="overflows"):
            concentration_interval(tp, 0.1, c_scale=1e-308)
        with pytest.raises(InvalidInput, match="overflows"):
            concentration_interval(dataclasses.replace(tp, B_tail=1e300), 0.1, c_scale=1e-10)


# ---------------------------------------------------------------------------
# interaction widening
# ---------------------------------------------------------------------------


def _random_pair(rng, L):
    while True:
        y_i = (rng.random(L) < 0.5).astype(int)
        y_j = (rng.random(L) < 0.5).astype(int)
        if y_i.sum() and y_j.sum() and not np.array_equal(y_i, y_j):
            return y_i, y_j


def test_interaction_shift_within_corrected_bound(rng):
    d, r, L = 5, 2, 4
    for _ in range(200):
        W = random_stiefel(rng, d, r)
        A = rng.standard_normal((d, L))
        B = rng.standard_normal((d, L * (L - 1) // 2))
        y_i, y_j = _random_pair(rng, L)
        out = interaction_bound(W, A, B, y_i, y_j)
        dz = pair_products(y_i) - pair_products(y_j)
        with_inter = W.T @ (A @ (y_i - y_j) + B @ dz)
        plain = W.T @ A @ (y_i - y_j)
        shift = abs(float(with_inter @ with_inter) - float(plain @ plain))
        assert shift <= out["corrected_bound"] * (1 + 1e-9) + 1e-12
        assert out["naive_gap_bound"] == 0.0
        assert out["z_norm"] <= out["z_norm_bound"] + 1e-12


def test_interaction_bound_zero_cases(rng):
    W = random_stiefel(rng, 4, 2)
    A = rng.standard_normal((4, 3))
    out = interaction_bound(W, A, None, [1, 0, 0], [0, 1, 0])
    assert out["corrected_bound"] == 0.0
    # patterns with identical pair products: singletons always give z = 0
    B = rng.standard_normal((4, 3))
    out2 = interaction_bound(W, A, B, [1, 0, 0], [0, 1, 0])
    assert out2["z_norm"] == 0.0 and out2["corrected_bound"] == 0.0


def test_interaction_constraint_variants(rng):
    d, r, L = 5, 2, 4
    W = random_stiefel(rng, d, r)
    A = rng.standard_normal((d, L))
    B = rng.standard_normal((d, 6))
    y_i, y_j = np.array([1, 1, 0, 0]), np.array([1, 0, 1, 1])
    stiefel = interaction_bound(W, A, B, y_i, y_j, constraint="stiefel")
    assert stiefel["stiefel_bound"] >= stiefel["corrected_bound"] - 1e-12
    stml = interaction_bound(W, A, B, y_i, y_j, constraint="stml", st_min_eig=0.5)
    assert stml["stml_bound"] > 0
    with pytest.raises(InvalidInput):
        interaction_bound(W, A, B, y_i, y_j, constraint="stml")
    with pytest.raises(InvalidInput):
        interaction_bound(W, A, B, y_i, y_j, constraint="fro")
    with pytest.raises(InvalidInput):
        interaction_bound(W, A, B[:, :5], y_i, y_j)


# ---------------------------------------------------------------------------
# bound frames against the per-call bounds they replaced
# ---------------------------------------------------------------------------
#
# The oracles below are the per-call implementations that validated every
# matrix and recomputed W^T A, W^T Sigma_w W and every SVD for each pair. A
# frame computes those once; its per-pair methods must agree to the bit.


def _distance_budget_oracle(W, A, y_i, y_j, Sigma_w, support_restricted=False):
    W = _array(W, "W", float, (None, None), finite=True)
    A = _array(A, "A", float, (W.shape[0], None), finite=True)
    Sigma_w = _array(Sigma_w, "Sigma_w", float, (W.shape[0], W.shape[0]), finite=True)
    y_i = _pattern(y_i, L=A.shape[1], name="y_i")
    y_j = _pattern(y_j, L=A.shape[1], name="y_j")
    delta = y_i - y_j
    d_H = int(np.abs(delta).sum())
    d_J = _jaccard(y_i, y_j)
    T = W.T @ A
    s = T @ delta
    signal = float(s @ s)
    Psi = symmetrize(W.T @ Sigma_w @ W)
    C_w = float(2.0 * np.trace(Psi))
    if support_restricted:
        support = np.flatnonzero(delta != 0)
        smin, smax = _extreme_singular_values(T[:, support]) if support.size else (0.0, 0.0)
    else:
        smin, smax = _extreme_singular_values(T)
    return DistanceBudget(
        signal=signal, C_w=C_w, total_expected=signal + C_w, d_H=d_H, d_J=d_J,
        lower=smin * smin * d_H + C_w, upper=smax * smax * d_H + C_w,
        sigma_min=smin, sigma_max=smax,
    )


def _tail_params_oracle(W, A, y_i, y_j, Sigma_w):
    W = _array(W, "W", float, finite=True)
    A = _array(A, "A", float, finite=True)
    Sigma_w = _array(Sigma_w, "Sigma_w", float, finite=True)
    y_i = _pattern(y_i, L=A.shape[1], name="y_i")
    y_j = _pattern(y_j, L=A.shape[1], name="y_j")
    s = W.T @ A @ (y_i - y_j)
    signal = float(s @ s)
    Psi = symmetrize(W.T @ Sigma_w @ W)
    psi_2 = float(np.abs(np.linalg.eigvalsh(Psi)).max())
    psi_F = float(np.linalg.norm(Psi))
    return TailParams(
        Psi=Psi, B_tail=4.0 * psi_2, V_ij=float(np.sqrt(16.0 * signal * psi_2 + 32.0 * psi_F ** 2)),
        signal=signal,
    )


def _interaction_bound_oracle(W, A, B_inter, y_i, y_j, constraint="none", st_min_eig=None):
    W = _array(W, "W", float, finite=True)
    A = _array(A, "A", float, finite=True)
    y_i = _pattern(y_i, L=A.shape[1], name="y_i")
    y_j = _pattern(y_j, L=A.shape[1], name="y_j")
    L = A.shape[1]
    delta = y_i - y_j
    d_H = float(np.abs(delta).sum())
    delta_norm = float(np.sqrt(d_H))
    k_max = int(max(y_i.sum(), y_j.sum()))
    dz = float(np.linalg.norm(pair_products(y_i) - pair_products(y_j)))
    z_bound = float(np.sqrt(d_H * min(max(k_max - 1, 0), L - 1)))
    if B_inter is None:
        sb = 0.0
    else:
        B_inter = _array(B_inter, "B_inter", float, (A.shape[0], L * (L - 1) // 2), finite=True)
        sb = _extreme_singular_values(W.T @ B_inter)[1]
    sa = _extreme_singular_values(W.T @ A)[1]
    out = {
        "naive_gap_bound": 0.0,
        "corrected_bound": float(2.0 * sa * delta_norm * sb * dz + sb * sb * dz * dz),
        "z_norm": dz,
        "z_norm_bound": z_bound,
    }
    if constraint in ("stiefel", "stml"):
        sa_f = _extreme_singular_values(A)[1]
        sb_f = 0.0 if B_inter is None else _extreme_singular_values(B_inter)[1]
        raw = 2.0 * sa_f * delta_norm * sb_f * dz + sb_f * sb_f * dz * dz
        if constraint == "stiefel":
            out["stiefel_bound"] = float(raw)
        else:
            out["stml_bound"] = float(raw / st_min_eig)
    return out


def _same_tail(got, want):
    assert got.Psi.tobytes() == want.Psi.tobytes()
    assert (got.B_tail, got.V_ij, got.signal) == (want.B_tail, want.V_ij, want.signal)


@st.composite
def frame_cases(draw):
    """(W, A, Sigma_w, B_inter, pairs): W tall, square or wide against A, at
    scales from 1e-3 to 1e3, B_inter present or not, and label pairs that
    include equal and empty patterns."""
    d = draw(st.integers(1, 8))
    r = draw(st.integers(1, 8))
    L = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = lambda: 10.0 ** draw(st.integers(-3, 3))  # noqa: E731
    W = scale() * rng.standard_normal((d, r))
    A = scale() * rng.standard_normal((d, L))
    Sigma_w = scale() * random_psd(rng, d)
    B = scale() * rng.standard_normal((d, L * (L - 1) // 2)) if draw(st.booleans()) else None
    pattern = st.lists(st.integers(0, 1), min_size=L, max_size=L).map(np.array)
    pairs = draw(st.lists(st.tuples(pattern, pattern), min_size=1, max_size=6))
    return W, A, Sigma_w, B, pairs


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(frame_cases())
def test_bound_frame_matches_the_per_call_bounds(case):
    W, A, Sigma_w, B, pairs = case
    frame = bound_frame(W, A, Sigma_w, B)
    for y_i, y_j in pairs:
        for restricted in (False, True):
            got = frame.distance_budget(y_i, y_j, support_restricted=restricted)
            want = _distance_budget_oracle(W, A, y_i, y_j, Sigma_w, support_restricted=restricted)
            assert dataclasses.astuple(got) == dataclasses.astuple(want)
            assert [type(v) for v in dataclasses.astuple(got)] == [type(v) for v in dataclasses.astuple(want)]
        _same_tail(frame.tail_params(y_i, y_j), _tail_params_oracle(W, A, y_i, y_j, Sigma_w))
        for constraint in ("none", "stiefel", "stml"):
            got = frame.interaction_bound(y_i, y_j, constraint=constraint, st_min_eig=0.3)
            assert got == _interaction_bound_oracle(W, A, B, y_i, y_j, constraint, st_min_eig=0.3)
        # the module-level functions are the frame's methods
        assert distance_budget(W, A, y_i, y_j, Sigma_w) == frame.distance_budget(y_i, y_j)
        assert interaction_bound(W, A, B, y_i, y_j, "stiefel") == frame.interaction_bound(
            y_i, y_j, "stiefel"
        )


def test_bound_frame_tail_params_with_population_match_the_oracle(rng):
    dist = label_moments(TOY)
    for _ in range(10):
        A = rng.standard_normal((4, 2)) * rng.uniform(0.5, 3.0)
        params = isotropic_params(np.zeros(4), A, rng.uniform(0.2, 1.0))
        pop = population_scatters(params, dist)
        W = opt_stml(pop.Sb_pop, pop.St_ml_pop, 2).columns
        frame = bound_frame(W, A, params.Sigma_w)
        for y_i, y_j in ([1, 0], [0, 1]), ([1, 1], [0, 1]), ([1, 1], [1, 1]):
            _same_tail(
                frame.tail_params(y_i, y_j),
                _tail_params_oracle(W, A, y_i, y_j, params.Sigma_w),
            )


def test_interaction_frames_share_their_factors(rng):
    W = random_stiefel(rng, 5, 2)
    A = rng.standard_normal((5, 4))
    B = rng.standard_normal((5, 6))
    frame = bound_frame(W, A, 0.3 * np.eye(5), B)
    y_i, y_j = np.array([1, 1, 0, 0]), np.array([1, 0, 1, 1])
    for alpha in (0.0, 0.5, 2.0):
        swapped = frame.with_interactions(alpha * B)
        assert swapped.T is frame.T and swapped.Psi is frame.Psi
        assert swapped.interaction_bound(y_i, y_j, "stiefel") == _interaction_bound_oracle(
            W, A, alpha * B, y_i, y_j, "stiefel"
        )
    assert bound_frame(W, A).interaction_bound(y_i, y_j)["corrected_bound"] == 0.0
    with pytest.raises(InvalidInput, match="needs Sigma_w"):
        bound_frame(W, A).distance_budget(y_i, y_j)
    with pytest.raises(InvalidInput, match="needs Sigma_w"):
        bound_frame(W, A, B_inter=B).tail_params(y_i, y_j)


def _bad_frame_inputs():
    W, A, S, B = W2, A2, SIG_ISO, np.ones((4, 1))
    cases = []
    for value in (np.nan, np.inf, -np.inf):
        cases += [
            ("distance", (_poisoned(W, value), A, S, None)),
            ("distance", (W, _poisoned(A, value), S, None)),
            ("distance", (W, A, _poisoned(S, value), None)),
            ("interaction", (W, A, None, _poisoned(B, value))),
        ]
    cases += [
        ("distance", (np.eye(3), A, S, None)),  # rows of W and A differ
        ("distance", (W[:, 0], A, S, None)),  # 1-D W
        ("distance", (W, A[:, 0], S, None)),  # 1-D A
        ("distance", (W, A, np.eye(3), None)),
        ("distance", (W, A, S[:, :2], None)),
        ("interaction", (W, A, None, np.ones((4, 2)))),
        ("interaction", (W, A, None, np.ones((3, 1)))),
    ]
    return cases


@pytest.mark.parametrize("route, args", _bad_frame_inputs())
def test_bound_frame_rejects_what_the_per_call_bounds_rejected(route, args):
    W, A, Sigma_w, B = args
    with pytest.raises(InvalidInput) as want:
        if route == "distance":
            _distance_budget_oracle(W, A, YI, YJ, Sigma_w)
        else:
            _interaction_bound_oracle(W, A, B, YI, YJ)
    with pytest.raises(InvalidInput) as got:
        bound_frame(W, A, Sigma_w, B)
    assert str(got.value) == str(want.value)


def test_pair_checks_stay_per_pair():
    frame = bound_frame(W2, A2, SIG_ISO, np.ones((4, 1)))
    with pytest.raises(InvalidInput, match="y_i"):
        frame.distance_budget([1, 2], YJ)
    with pytest.raises(InvalidInput, match="y_j"):
        frame.interaction_bound(YI, [0, 1, 0])
    with pytest.raises(InvalidInput, match="st_min_eig"):
        frame.interaction_bound(YI, YJ, constraint="stml")
    with pytest.raises(InvalidInput, match="unknown constraint"):
        frame.interaction_bound(YI, YJ, constraint="fro")


# ---------------------------------------------------------------------------
# stacks of pairs against the single-pair oracles
# ---------------------------------------------------------------------------


def _jaccard_lower_oracle(budget, y_i, y_j):
    # the per-pair jaccard_lower that stacks replaced
    y_i = _pattern(y_i)
    y_j = _pattern(y_j, L=y_i.shape[0])
    k_i, k_j = float(y_i.sum()), float(y_j.sum())
    union = k_i + k_j - float(y_i @ y_j)
    exact = (budget.sigma_min ** 2) * union * budget.d_J
    weakened = (budget.sigma_min ** 2) * max(k_i, k_j) * budget.d_J
    return {"d_J": budget.d_J, "exact": float(exact), "weakened": float(weakened)}


def _same_row(got, p, want):
    """Entry p of a stacked result (or the result itself, where the field is
    shared by every pair) has the bits and the kind of the oracle's scalar."""
    value = got[p] if np.ndim(got) else got
    assert np.asarray(value).dtype.kind == np.asarray(want).dtype.kind
    assert np.float64(value).tobytes() == np.float64(want).tobytes()


def _assert_stack_matches_the_oracles(W, A, Sigma_w, B, pairs):
    frame = bound_frame(W, A, Sigma_w, B)
    Y_i = np.array([y_i for y_i, _ in pairs]).reshape(len(pairs), A.shape[1])
    Y_j = np.array([y_j for _, y_j in pairs]).reshape(len(pairs), A.shape[1])
    budgets = {r: frame.distance_budget(Y_i, Y_j, support_restricted=r) for r in (False, True)}
    tails = frame.tail_params(Y_i, Y_j)
    assert tails.Psi is frame.Psi
    bounds = {c: frame.interaction_bound(Y_i, Y_j, c, st_min_eig=0.3) for c in ("none", "stiefel", "stml")}
    lower = jaccard_lower(budgets[False], Y_i, Y_j)
    for p, (y_i, y_j) in enumerate(pairs):
        for restricted, budget in budgets.items():
            want = _distance_budget_oracle(W, A, y_i, y_j, Sigma_w, support_restricted=restricted)
            for got, one in zip(dataclasses.astuple(budget), dataclasses.astuple(want)):
                _same_row(got, p, one)
        want = _tail_params_oracle(W, A, y_i, y_j, Sigma_w)
        _same_row(tails.B_tail, p, want.B_tail)
        _same_row(tails.V_ij, p, want.V_ij)
        _same_row(tails.signal, p, want.signal)
        for constraint, got in bounds.items():
            want = _interaction_bound_oracle(W, A, B, y_i, y_j, constraint, st_min_eig=0.3)
            assert got.keys() == want.keys()
            for key in want:
                _same_row(got[key], p, want[key])
        want = _jaccard_lower_oracle(_distance_budget_oracle(W, A, y_i, y_j, Sigma_w), y_i, y_j)
        for key in want:
            _same_row(lower[key], p, want[key])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(frame_cases())
def test_bound_frame_stacks_match_the_single_pair_oracles(case):
    _assert_stack_matches_the_oracles(*case)


@pytest.mark.parametrize("L, with_b", [(1, True), (1, False), (4, True), (4, False)])
def test_stacks_of_equal_patterns_and_of_one_label_match_the_oracles(rng, L, with_b):
    # d_H = 0 rows sit on both ends of the band; at L = 1, B_inter has no
    # columns and every pair product vanishes
    d, r = 5, 3
    W, A, Sigma_w = rng.standard_normal((d, r)), rng.standard_normal((d, L)), random_psd(rng, d)
    B = rng.standard_normal((d, L * (L - 1) // 2)) if with_b else None
    patterns = [np.array(y) for y in product((0, 1), repeat=L)]
    pairs = [(y, y) for y in patterns] + [(y_i, y_j) for y_i in patterns for y_j in patterns[::3]]
    _assert_stack_matches_the_oracles(W, A, Sigma_w, B, pairs)
    budget = bound_frame(W, A, Sigma_w).distance_budget(*map(np.array, zip(*pairs)))
    assert (budget.d_H[: len(patterns)] == 0).all()
    assert (budget.lower[: len(patterns)] == budget.C_w).all()


_Y3 = np.array([[1, 0], [0, 1], [1, 1]])
_HOSTILE_STACKS = {
    "different P": (_Y3, _Y3[:2], "y_j must have shape"),
    "y_j over other labels": (_Y3, np.ones((3, 3), int), "y_j must have shape"),
    "non-binary entry": (_Y3, np.where(_Y3 == 1, 2, 0), "y_j entries must be 0 or 1"),
    "a stack against one pattern": (_Y3, _Y3[0], "y_j must have shape"),
}


@pytest.mark.parametrize("case", sorted(_HOSTILE_STACKS))
def test_hostile_stacks_raise_invalid_input(case):
    Y_i, Y_j, message = _HOSTILE_STACKS[case]
    frame = bound_frame(W2, A2, SIG_ISO, np.ones((4, 1)))
    budget = frame.distance_budget(_Y3, _Y3)
    for call in (frame.distance_budget, frame.tail_params, frame.interaction_bound,
                 lambda y_i, y_j: jaccard_lower(budget, y_i, y_j)):
        with pytest.raises(InvalidInput, match=message):
            call(Y_i, Y_j)


def test_hostile_stacks_of_the_wrong_size_raise_invalid_input():
    frame = bound_frame(W2, A2, SIG_ISO, np.ones((4, 1)))
    # a stack over other labels than the frame's
    for call in (frame.distance_budget, frame.tail_params, frame.interaction_bound):
        with pytest.raises(InvalidInput, match="y_i must have shape"):
            call(np.ones((3, 3), int), np.ones((3, 3), int))
    # a budget of other pairs than the patterns given with it
    for budget, y_i in ((frame.distance_budget(YI, YJ), _Y3), (frame.distance_budget(_Y3, _Y3), _Y3[:2]),
                        (frame.distance_budget(_Y3, _Y3), YI)):
        with pytest.raises(InvalidInput, match="same number of pairs"):
            jaccard_lower(budget, y_i, y_i)
