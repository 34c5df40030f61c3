"""Objective/optimizer tests.

Oracles: closed-form theta expressions, an exhaustive subset search for the
trace ratio on commuting (diagonal) scatters, characteristic-polynomial roots
for the whitened problem, brute-force Stiefel probes for the Ky Fan bound,
and the full d x d eigenvalue sweep for the ridge report's range reduction.
"""

import dataclasses
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mlda import (
    InvalidGap,
    InvalidInput,
    InvariantViolation,
    LabelScheme,
    NotConverged,
    Seed,
    SingularTotalScatter,
    build_dataset,
    build_labels,
    build_scatter,
    commutativity_defect,
    davis_kahan_check,
    eval_objectives,
    gen_labels,
    numeric_rank,
    opt_stml,
    opt_td,
    ordering_consistent,
    regularization_report,
    sym_eig,
    sym_eigvals,
    symmetrize,
    theta_form,
    top_eigenspace,
    trace_ratio_stiefel,
)
from mlda import discriminant
from mlda.discriminant import RegularizationRow
from mlda.spectral import principal_angle_sin
from tests.conftest import inverse_sqrt, random_stiefel


def _random_scatter_pair(rng, n=60, d=6, L=4):
    labels = gen_labels(LabelScheme.variable(((1, 0.6), (2, 0.4))), n, L, rng)
    X = rng.standard_normal((n, d)) @ np.diag(np.linspace(3.0, 0.5, d))
    ds = build_dataset(X, labels)
    return build_scatter(ds)


# ---------------------------------------------------------------------------
# closed forms in theta
# ---------------------------------------------------------------------------


def test_theta_form_frozen():
    out = theta_form(np.array([0.5, 0.25]))
    assert out["j_tr"] == pytest.approx(0.6, abs=1e-15)
    assert out["j_rt"] == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert out["j_dr"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert out["j_td"] == pytest.approx(-0.5, abs=1e-15)


def test_theta_form_validation():
    with pytest.raises(InvalidInput):
        theta_form(np.array([0.5, 1.0]))
    with pytest.raises(InvalidInput):
        theta_form(np.array([-0.1]))
    with pytest.raises(InvalidInput):
        theta_form(np.array([]))


def test_theta_form_rejects_nan():
    # NaN passes every ordered comparison, so a range check alone let it
    # through to NaN objectives
    for theta in ([np.nan, 0.5], [np.nan], [0.25, np.nan, 0.5]):
        with pytest.raises(InvalidInput):
            theta_form(np.array(theta))


def test_theta_form_reads_rounding_dust_as_zero():
    # -1.9e-19 is what opt_stml returned for a zero generalized eigenvalue
    # in one scatter-core variant; it must not be rejected as negative
    dust = theta_form(np.array([0.5, 0.25, -1.9e-19]))
    assert dust == theta_form(np.array([0.5, 0.25, 0.0]))
    assert theta_form(np.array([-1e-12]))["j_td"] == -1.0
    with pytest.raises(InvalidInput):
        theta_form(np.array([0.5, -2e-12]))


def test_theta_beyond_rank_sb_is_dust_theta_form_accepts():
    # single-label with L = 2 gives rank Sb = 1, so at r = 3 two of the
    # returned generalized eigenvalues are rounding dust of either sign
    negative = 0
    for seed in range(10):
        g = np.random.default_rng(seed)
        labels = gen_labels(LabelScheme.single(), 40, 2, g)
        ss = build_scatter(build_dataset(g.standard_normal((40, 4)), labels))
        opt = opt_stml(ss.Sb, ss.St_ml, 3)
        assert np.abs(opt.theta[1:]).max() <= 1e-15
        negative += int(opt.theta.min() < 0)
        closed = theta_form(opt.theta)
        vals = eval_objectives(opt.columns, ss.Sb, ss.Sw)
        assert vals.j_tr == pytest.approx(closed["j_tr"], rel=1e-8)
        assert vals.j_td == pytest.approx(closed["j_td"], rel=1e-8)
    assert negative > 0


def test_equal_scatters_give_reference_values(rng):
    d, r = 5, 2
    G = rng.standard_normal((d, d + 1))
    S = G @ G.T
    W = random_stiefel(rng, d, r)
    vals = eval_objectives(W, S, S)
    assert vals.j_tr == pytest.approx(1.0, rel=1e-12)
    assert vals.j_rt == pytest.approx(float(r), rel=1e-12)
    assert vals.j_dr == pytest.approx(1.0, rel=1e-12)
    assert vals.j_td == pytest.approx(0.0, abs=1e-10)
    assert not vals.within_singular


def test_singular_within_flagged(rng):
    W = random_stiefel(rng, 4, 2)
    vals = eval_objectives(W, np.eye(4), np.zeros((4, 4)))
    assert vals.within_singular
    assert np.isinf(vals.j_rt)


# ---------------------------------------------------------------------------
# one maximizer for all four objectives
# ---------------------------------------------------------------------------


def test_common_maximizer_matches_theta_form(rng):
    for _ in range(10):
        ss = _random_scatter_pair(rng)
        r = 2
        opt = opt_stml(ss.Sb, ss.St_ml, r)
        vals = eval_objectives(opt.columns, ss.Sb, ss.Sw)
        closed = theta_form(opt.theta)
        assert vals.j_tr == pytest.approx(closed["j_tr"], rel=1e-8)
        assert vals.j_rt == pytest.approx(closed["j_rt"], rel=1e-8)
        assert vals.j_dr == pytest.approx(closed["j_dr"], rel=1e-8)
        assert vals.j_td == pytest.approx(closed["j_td"], rel=1e-8, abs=1e-10)


def test_common_maximizer_dominates_probes(rng):
    ss = _random_scatter_pair(rng)
    d, r = ss.Sb.shape[0], 2
    opt = opt_stml(ss.Sb, ss.St_ml, r)
    best = eval_objectives(opt.columns, ss.Sb, ss.Sw)
    T = inverse_sqrt(ss.St_ml)
    for _ in range(100):
        probe = T @ random_stiefel(rng, d, r)
        # constraint check: probe^T St_ml probe == I
        assert np.abs(probe.T @ ss.St_ml @ probe - np.eye(r)).max() < 1e-8
        cand = eval_objectives(probe, ss.Sb, ss.Sw)
        slack = 1e-10
        assert cand.j_tr <= best.j_tr * (1 + slack) + slack
        assert cand.j_rt <= best.j_rt * (1 + slack) + slack
        assert cand.j_dr <= best.j_dr * (1 + slack) + slack
        assert cand.j_td <= best.j_td + slack * max(1.0, abs(best.j_td))


def test_td_stiefel_optimizer_is_ky_fan(rng):
    ss = _random_scatter_pair(rng)
    d, r = ss.Sb.shape[0], 2
    C = 2 * ss.Sb - ss.St_ml
    res = opt_td(ss, r)
    best = float(np.trace(res.frame.columns.T @ C @ res.frame.columns))
    assert best == pytest.approx(res.values[:r].sum(), rel=1e-10)
    for _ in range(200):
        W = random_stiefel(rng, d, r)
        assert np.trace(W.T @ C @ W) <= best + 1e-10 * max(1.0, abs(best))


# ---------------------------------------------------------------------------
# trace-ratio iteration
# ---------------------------------------------------------------------------


def test_trace_ratio_proportional_scatters(rng):
    G = rng.standard_normal((5, 7))
    Sw = G @ G.T
    res = trace_ratio_stiefel(3.0 * Sw, Sw, 2)
    assert res.lambda_star == pytest.approx(3.0, rel=1e-10)
    assert res.residual <= 1e-9


def test_trace_ratio_matches_exhaustive_diagonal_oracle(rng):
    for _ in range(20):
        d = 7
        b = rng.uniform(0.0, 5.0, size=d)
        w = rng.uniform(0.5, 4.0, size=d)
        r = int(rng.integers(1, 4))
        oracle = max(
            sum(b[list(S)]) / sum(w[list(S)]) for S in combinations(range(d), r)
        )
        res = trace_ratio_stiefel(np.diag(b), np.diag(w), r)
        assert res.lambda_star == pytest.approx(oracle, rel=1e-10)


def test_trace_ratio_fixed_point_property(rng):
    ss = _random_scatter_pair(rng)
    res = trace_ratio_stiefel(ss.Sb, ss.Sw, 2)
    # at the fixed point the top-r eigenvalues of Sb - lambda* Sw sum to zero
    scale = max(np.linalg.norm(ss.Sb), np.linalg.norm(ss.Sw))
    vals = np.linalg.eigvalsh(ss.Sb - res.lambda_star * ss.Sw)[::-1]
    assert abs(vals[:2].sum()) <= 1e-8 * scale


def test_trace_ratio_not_converged_carries_iterate(rng):
    ss = _random_scatter_pair(rng)
    with pytest.raises(NotConverged) as info:
        trace_ratio_stiefel(ss.Sb, ss.Sw, 2, max_iter=1)
    assert info.value.result is not None
    assert np.isfinite(info.value.result.lambda_star)


def test_trace_ratio_validation(rng):
    with pytest.raises(InvalidInput):
        trace_ratio_stiefel(np.eye(3), np.eye(2), 1)
    with pytest.raises(InvalidInput):
        trace_ratio_stiefel(np.eye(3), np.eye(3), 0)
    with pytest.raises(InvalidInput):
        trace_ratio_stiefel(np.zeros((2, 2)), np.zeros((2, 2)), 1)


# ---------------------------------------------------------------------------
# commutativity and ordering
# ---------------------------------------------------------------------------


def test_commutativity_defect_frozen():
    Sb = np.array([[1.0, 1.0], [1.0, 1.0]])
    St = np.array([[2.0, 0.0], [0.0, 1.0]])
    assert commutativity_defect(Sb, St) == pytest.approx(
        np.sqrt(2.0) / (2.0 * np.sqrt(5.0)), rel=1e-12
    )
    assert commutativity_defect(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0


def test_commutativity_defect_finite_at_large_feature_magnitude(rng):
    # features at half the build_dataset bound: the unscaled commutator
    # Sb St - St Sb would overflow
    labels = gen_labels(LabelScheme.variable(((1, 0.6), (2, 0.4))), 30, 4, rng)
    X = rng.standard_normal((30, 20))
    unit = build_scatter(build_dataset(X, labels))
    bound = np.finfo(float).max ** 0.25 / (4.0 * np.sqrt(labels.K * X.shape[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = build_scatter(build_dataset(X * (0.5 * bound / np.abs(X).max()), labels))
        defect = commutativity_defect(big.Sb, big.St)
    assert np.isfinite(defect)
    assert defect == pytest.approx(commutativity_defect(unit.Sb, unit.St), rel=1e-12)


def test_commutativity_defect_scaling_is_exact(rng):
    # the power-of-two prescaling leaves every bit of the unscaled formula
    ss = _random_scatter_pair(rng)
    Sb, St = symmetrize(ss.Sb), symmetrize(ss.St)
    unscaled = float(
        np.linalg.norm(Sb @ St - St @ Sb) / (np.linalg.norm(Sb) * np.linalg.norm(St))
    )
    assert commutativity_defect(ss.Sb, ss.St) == unscaled


def test_ordering_consistent_cases():
    assert ordering_consistent(np.diag([3.0, 2.0, 1.0]), np.diag([6.0, 5.0, 4.0])) is True
    assert ordering_consistent(np.diag([1.0, 2.0, 3.0]), np.diag([6.0, 5.0, 4.0])) is False
    Sb = np.array([[1.0, 1.0], [1.0, 1.0]])
    St = np.array([[2.0, 0.0], [0.0, 1.0]])
    assert ordering_consistent(Sb, St) is None


# ---------------------------------------------------------------------------
# whitened optimizer against the characteristic polynomial
# ---------------------------------------------------------------------------


def charpoly_roots_3x3(Sb, T):
    nodes = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    vals = [np.linalg.det(Sb - t * T) for t in nodes]
    roots = np.roots(np.polyfit(nodes, vals, 3))
    assert np.abs(roots.imag).max() < 1e-8
    return np.sort(roots.real)[::-1]


def test_opt_stml_matches_charpoly(rng):
    for _ in range(10):
        ss = _random_scatter_pair(rng, n=40, d=3, L=3)
        opt = opt_stml(ss.Sb, ss.St_ml, 2)
        oracle = charpoly_roots_3x3(ss.Sb, ss.St_ml)
        assert np.allclose(opt.gen_values, oracle, rtol=1e-8, atol=1e-10)
        assert np.allclose(opt.theta, oracle[:2], rtol=1e-8, atol=1e-10)
        # constraint: W^T St_ml W == I_r
        G = opt.columns.T @ ss.St_ml @ opt.columns
        assert np.abs(G - np.eye(2)).max() < 1e-8
        assert (opt.theta >= 0).all() and (opt.theta < 1).all()


def test_opt_stml_ridge(rng):
    ss = _random_scatter_pair(rng, n=40, d=3, L=3)
    g = 0.7
    opt = opt_stml(ss.Sb, ss.St_ml, 2, gamma=g)
    oracle = charpoly_roots_3x3(ss.Sb, ss.St_ml + g * np.eye(3))
    assert np.allclose(opt.gen_values, oracle, rtol=1e-8, atol=1e-10)
    G = opt.columns.T @ (ss.St_ml + g * np.eye(3)) @ opt.columns
    assert np.abs(G - np.eye(2)).max() < 1e-8


@st.composite
def pencils(draw):
    """(Sb, St, r, gamma): a PSD Sb of any rank and St = Sb + a PD matrix."""
    d = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = 10.0 ** draw(st.integers(-3, 3))
    G = rng.standard_normal((d, draw(st.integers(0, d))))
    H = rng.standard_normal((d, d + 2))
    Sb = spread * (G @ G.T)
    St = Sb + spread * (H @ H.T) / (d + 2)
    gamma = spread * draw(st.sampled_from([0.0, 1e-3, 1.0]))
    return Sb, St, draw(st.integers(1, d)), gamma


@settings(max_examples=150, deadline=None)
@given(pencils())
def test_whitened_frame_carries_the_total_scatter_spectrum(pencil):
    Sb, St, r, gamma = pencil
    d = St.shape[0]
    frame = opt_stml(Sb, St, r, gamma=gamma)
    want = sym_eigvals(St + gamma * np.eye(d))
    assert (np.diff(frame.st_values) <= 0).all()
    assert np.abs(frame.st_values - want).max() <= d * np.finfo(float).eps * want[0]


def test_opt_stml_singular_total():
    Sb = np.diag([1.0, 0.0])
    with pytest.raises(SingularTotalScatter):
        opt_stml(Sb, np.diag([1.0, 0.0]), 1)


# ---------------------------------------------------------------------------
# eigenspace utilities
# ---------------------------------------------------------------------------


def test_top_eigenspace_basic():
    res = top_eigenspace(np.diag([5.0, 3.0, 1.0]), 2)
    assert np.allclose(res.values, [5.0, 3.0, 1.0])
    assert res.frame.rank == 2
    assert res.gap == pytest.approx(2.0)
    assert not res.degenerate_gap
    full = top_eigenspace(np.diag([5.0, 3.0, 1.0]), 3)
    assert np.isinf(full.gap)
    tied = top_eigenspace(np.eye(3), 1)
    assert tied.degenerate_gap


def test_davis_kahan_cases(rng):
    U = random_stiefel(rng, 5, 2)
    same = davis_kahan_check(U, U, pert_norm=0.3, gap=1.0)
    assert same.angle <= 1e-12 and same.holds
    # orthogonal-complement frames: angle 1, bound above one is vacuous
    V = np.linalg.qr(np.eye(5)[:, 2:4] - U @ (U.T @ np.eye(5)[:, 2:4]))[0]
    far = davis_kahan_check(U, V, pert_norm=3.0, gap=2.0)
    assert far.holds  # bound 1.5 >= 1: vacuous
    with pytest.raises(InvalidGap):
        davis_kahan_check(U, U, pert_norm=0.1, gap=0.0)
    with pytest.raises(InvalidInput):
        davis_kahan_check(U, U, pert_norm=-0.1, gap=1.0)


def test_davis_kahan_rejects_nan_and_infinite_inputs(rng):
    U = random_stiefel(rng, 5, 2)
    for pert_norm, gap in ((0.1, np.nan), (np.nan, 1.0), (np.inf, 1.0), (np.nan, np.nan)):
        with pytest.raises(InvalidInput):
            davis_kahan_check(U, U, pert_norm=pert_norm, gap=gap)
    # top_eigenspace reports gap = inf for a cut at r = d: the bound is 0
    full = np.eye(5)
    assert top_eigenspace(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]), 5).gap == np.inf
    report = davis_kahan_check(full, full, pert_norm=0.1, gap=np.inf)
    assert report.bound == 0.0 and report.holds


# ---------------------------------------------------------------------------
# ridge sweep
# ---------------------------------------------------------------------------


def _rank_deficient_scatter(rng):
    # fewer samples than dimensions makes Sw singular
    labels = gen_labels(LabelScheme.single(), 8, 3, rng)
    X = rng.standard_normal((8, 12))
    return build_scatter(build_dataset(X, labels, max_cols=None))


def test_regularization_report_invariants(rng):
    ss = _rank_deficient_scatter(rng)
    rows = regularization_report(ss, [0.0, 1e-3, 1e-2, 1e-1], r=1)
    assert rows[0].kappa_infinite
    assert np.isinf(rows[0].kappa_sw_gamma)
    finite = [row.kappa_sw_gamma for row in rows[1:]]
    assert all(np.isfinite(finite))
    assert all(a > b for a, b in zip(finite, finite[1:]))
    # the ridge shifts the TD matrix by a multiple of the identity: the gap
    # between consecutive eigenvalues is untouched
    gaps = [row.gap_td for row in rows]
    assert max(gaps) - min(gaps) <= 1e-10 * max(1.0, abs(gaps[0]))
    assert len({row.rank_sb for row in rows}) == 1


def test_regularization_gap_matches_full_eigendecomposition(rng, monkeypatch):
    ss = _rank_deficient_scatter(rng)
    gammas = [0.0, 1e-2, 1.0]
    C = 2.0 * ss.Sb - ss.St_ml
    for row in regularization_report(ss, gammas, r=2):
        vals = sym_eig(C - row.gamma * np.eye(C.shape[0])).values
        assert row.gap_td == pytest.approx(vals[1] - vals[2], abs=1e-12 * np.linalg.norm(C))
    # each ridge level is a checked values-only solve
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: solve(M) + 1e-6)
    with pytest.raises(InvariantViolation, match="eigenvalue invariant"):
        regularization_report(ss, gammas, r=2)


def test_regularization_rank_from_factor_matches_numeric_rank(rng):
    # the sweep counts sigma(M)^2 > d eps sigma_max(M)^2, which is the
    # cutoff numeric_rank(Sb) applies to sigma(Sb) = sigma(M)^2
    cases = []
    for _ in range(10):
        n, d, L = int(rng.integers(20, 80)), int(rng.integers(3, 30)), int(rng.integers(2, 7))
        cases.append((LabelScheme.variable(((1, 0.6), (2, 0.3), (3, 0.1))), n, d, L))
        cases.append((LabelScheme.single(), n, d, L))
    for _ in range(5):  # d >> n, as in the regularization experiment
        n, d = int(rng.integers(10, 60)), int(rng.integers(100, 500))
        cases.append((LabelScheme.variable(((1, 0.6), (2, 0.4))), n, d, 10))
        cases.append((LabelScheme.single(), n, d, 10))
    for scheme, n, d, L in cases:
        labels = gen_labels(scheme, n, max(L, scheme.max_cardinality() + 1), rng)
        X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3)
        ss = build_scatter(build_dataset(X, labels))
        rank = regularization_report(ss, [0.0], r=1)[0].rank_sb
        assert rank == numeric_rank(ss.Sb)
        if scheme.max_cardinality() == 1:
            assert rank == labels.L - 1


def _unit_scale_scatter(rng, scale=1.0):
    labels = gen_labels(LabelScheme.variable(((1, 0.6), (2, 0.4))), 30, 4, rng)
    return build_scatter(build_dataset(rng.standard_normal((30, 20)) * scale, labels))


def test_regularization_gamma_step_below_rounding_keeps_kappa(rng):
    # a gamma step that changes neither lambda_max + gamma nor
    # lambda_min + gamma in floating point leaves kappa equal
    for scale, gammas in ((1.0, [0.0, 1e-20]), (1e70, [0.0, 1.0])):
        rows = regularization_report(_unit_scale_scatter(rng, scale), gammas, r=2)
        assert rows[0].kappa_sw_gamma == rows[1].kappa_sw_gamma
        assert not rows[0].kappa_infinite


def test_regularization_rejects_kappa_increase(rng, monkeypatch):
    ss = _unit_scale_scatter(rng)
    solve = discriminant.sym_eigvals
    # an extreme pair with lambda_min > lambda_max (the spectrum comes
    # descending) makes kappa grow with gamma
    monkeypatch.setattr(
        discriminant, "sym_eigvals", lambda M: np.array([1.0, 5.0]) if M is ss.Sw else solve(M)
    )
    with pytest.raises(InvariantViolation, match="failed to decrease"):
        regularization_report(ss, [0.0, 1.0], r=2)


def test_regularization_kappa_rounding_up_by_an_ulp_is_not_an_increase(rng):
    # a gamma step of a few ulps that changes lambda_max + gamma and
    # lambda_min + gamma can round kappa up by one ulp: 1.1555437769909684
    # -> 1.1555437769909687 here, which the exact comparison called an
    # invariant failure on valid input
    ss = dataclasses.replace(
        _unit_scale_scatter(rng),
        Sw=np.diag(np.linspace(3.6023521126681812, 4.162675566323985, 20)),
    )
    rows = regularization_report(ss, [0.0, 1.4687734649672557e-15], r=2)
    assert rows[1].kappa_sw_gamma > rows[0].kappa_sw_gamma  # rounded up, inside 1 + 8u
    assert rows[1].kappa_sw_gamma <= rows[0].kappa_sw_gamma * (1 + 4 * np.finfo(float).eps)


def test_regularization_rejects_non_finite_gammas(rng):
    ss = _rank_deficient_scatter(rng)
    for gammas in ([0.0, np.nan], [np.nan], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(InvalidInput, match="finite and >= 0"):
            regularization_report(ss, gammas, r=1)


def test_regularization_report_validation(rng):
    ss = _rank_deficient_scatter(rng)
    with pytest.raises(InvalidInput):
        regularization_report(ss, [1e-2, 1e-3], r=1)
    with pytest.raises(InvalidInput):
        regularization_report(ss, [-1.0, 0.0], r=1)
    with pytest.raises(InvalidInput):
        regularization_report(ss, [], r=1)


def test_regularization_rejects_gammas_whose_norm_would_overflow(rng):
    # ||C - gamma I||_F^2 would overflow: InvalidInput before any solve, on
    # the range route (d > n) and on the full route alike
    for ss in (_rank_deficient_scatter(rng), _unit_scale_scatter(rng)):
        C = 2.0 * ss.Sb - ss.St_ml
        d = C.shape[0]
        edge = (np.sqrt(np.finfo(float).max) / 2.0 - np.linalg.norm(C)) / np.sqrt(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for big in (1e200, 1e308, 1.01 * edge):
                with pytest.raises(InvalidInput, match="too large"):
                    regularization_report(ss, [0.0, big], r=1)
            rows = regularization_report(ss, [0.0, 0.99 * edge], r=1)
        assert all(np.isfinite(row.gap_td) for row in rows)


# ---------------------------------------------------------------------------
# the ridge sweep on the range of the scatters (d > n)
# ---------------------------------------------------------------------------


def _full_sweep(ss, gammas, r):
    """Oracle: the ridge sweep with full d x d eigenvalue solves of Sw and of
    every C - gamma I, ignoring ``range_basis``."""
    sv2 = np.linalg.svd(ss.M, compute_uv=False) ** 2
    rank_sb = int(np.count_nonzero(sv2 > ss.M.shape[0] * np.finfo(float).eps * sv2[0]))
    sw_vals = np.linalg.eigvalsh(ss.Sw)
    lam_min, lam_max = float(sw_vals[0]), float(sw_vals[-1])
    C = 2.0 * ss.Sb - ss.St_ml
    rows = []
    for gamma in gammas:
        top, bot = lam_max + gamma, lam_min + gamma
        infinite = bot <= 1e-12 * max(top, 1e-300)
        vals = np.linalg.eigvalsh(C - gamma * np.eye(C.shape[0]))[::-1]
        rows.append(
            RegularizationRow(
                gamma=gamma,
                rank_sb=rank_sb,
                kappa_sw_gamma=float(np.inf if infinite else top / bot),
                kappa_infinite=bool(infinite),
                gap_td=float(vals[r - 1] - vals[r]),
            )
        )
    return rows


def _bits(rows):
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row))
        for row in rows
    ]


@st.composite
def wide_datasets(draw):
    """(X, bits, r) with n < d, in the shapes that stress the range reduction."""
    kind = draw(st.sampled_from(["random", "n = d - 1", "L = 1", "single-label", "every"]))
    d = draw(st.integers(2, 40))
    n = d - 1 if kind == "n = d - 1" else draw(st.integers(1, d - 1))
    L = 1 if kind == "L = 1" else draw(st.integers(1, 6 if kind == "every" else min(n, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("L = 1", "every"):
        bits = np.ones((n, L), dtype=np.int64)
    elif kind == "single-label":
        bits = np.zeros((n, L), dtype=np.int64)
        bits[np.arange(n), rng.permutation(n) % L] = 1
    else:
        bits = (rng.random((n, L)) < 0.4).astype(np.int64)
        bits[np.arange(n), rng.integers(0, L, size=n)] = 1  # no unlabeled row
        for ell in np.flatnonzero(bits.sum(axis=0) == 0):
            bits[rng.integers(n), ell] = 1  # no empty label
    spread = 10.0 ** draw(st.integers(-3, 3))
    offset = spread * draw(st.sampled_from([0.0, 1.0, -1e6, 1e6]))
    X = offset + spread * rng.standard_normal((n, d))
    return X, bits, draw(st.integers(1, d - 1))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wide_datasets())
def test_ridge_sweep_on_the_range_matches_the_full_sweep(data):
    X, bits, r = data
    ss = build_scatter(build_dataset(X, build_labels(bits)))
    n, d = X.shape
    assert ss.range_basis.shape == (d, n)
    scale = max(ss.st_ml_norm, 1e-300)
    gammas = [0.0, 1e-4 * scale, 1e-2 * scale, scale]
    C = 2.0 * ss.Sb - ss.St_ml
    got = regularization_report(ss, gammas, r)
    for row, want in zip(got, _full_sweep(ss, gammas, r), strict=True):
        assert row.rank_sb == want.rank_sb
        assert row.kappa_infinite == want.kappa_infinite
        # the full solve reads lambda_min(Sw) as dust of size d eps ||Sw||;
        # the range route as 0, so kappa moves by at most that over gamma
        assert row.kappa_sw_gamma == pytest.approx(want.kappa_sw_gamma, rel=1e-8)
        tol = 1e-10 * (np.linalg.norm(C) + row.gamma) + 1e-300
        assert abs(row.gap_td - want.gap_td) <= tol


def test_ridge_sweep_without_range_basis_is_the_full_sweep(rng):
    # range_basis = None, built so for n >= d or cleared by hand, runs the
    # d x d sweep to the last bit
    scheme = LabelScheme.variable(((1, 0.6), (2, 0.4)))
    for n, d in ((8, 12), (50, 200), (30, 20), (20, 20)):
        labels = gen_labels(scheme, n, 4, rng)
        ss = build_scatter(build_dataset(rng.standard_normal((n, d)), labels))
        assert (ss.range_basis is None) == (n >= d)
        full = dataclasses.replace(ss, range_basis=None)
        gammas = [0.0, 1e-3, 1e-1, 10.0]
        assert _bits(regularization_report(full, gammas, r=2)) == _bits(_full_sweep(ss, gammas, 2))


def _wide_scatter(rng, n=20, d=60):
    labels = gen_labels(LabelScheme.variable(((1, 0.6), (2, 0.4))), n, 4, rng)
    return build_scatter(build_dataset(rng.standard_normal((n, d)), labels))


def test_range_compression_rejects_a_truncated_basis(rng):
    ss = _wide_scatter(rng)
    truncated = dataclasses.replace(ss, range_basis=ss.range_basis[:, :-3])
    with pytest.raises(InvariantViolation, match="range compression"):
        regularization_report(truncated, [0.0, 1.0], r=2)


def test_range_compression_rejects_within_scatter_mass_off_the_range(rng):
    ss = _wide_scatter(rng)
    Q = ss.range_basis
    v = rng.standard_normal(Q.shape[0])
    v -= Q @ (Q.T @ v)
    v /= np.linalg.norm(v)
    off = dataclasses.replace(ss, Sw=ss.Sw + 1e-3 * np.linalg.norm(ss.Sw) * np.outer(v, v))
    with pytest.raises(InvariantViolation, match="range compression"):
        regularization_report(off, [0.0, 1.0], r=2)
    # the same matrices without a basis take the full route and pass
    regularization_report(dataclasses.replace(off, range_basis=None), [0.0, 1.0], r=2)


# ---------------------------------------------------------------------------
# the multilabel-aware and classic optimizers genuinely differ
# ---------------------------------------------------------------------------


def test_td_and_trace_ratio_solve_different_problems():
    rng = Seed(1).stream("probe", 0, "x")
    labels = gen_labels(LabelScheme.single(), 60, 4, rng)
    X = rng.standard_normal((60, 6)) @ np.diag([3.0, 2.5, 1.0, 0.8, 0.5, 0.3])
    ss = build_scatter(build_dataset(X, labels))
    td = opt_td(ss, 2).frame
    tr = trace_ratio_stiefel(ss.Sb, ss.Sw, 2).frame
    assert principal_angle_sin(td, tr) > 0.25
