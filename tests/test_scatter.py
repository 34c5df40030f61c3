"""Scatter algebra tests: independent direct-summation oracle, a fully
hand-computed toy, then the algebraic identities as properties."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mlda import (
    InvalidInput,
    InvariantViolation,
    MissingLabel,
    UnlabeledSample,
    build_dataset,
    build_labels,
    build_scatter,
    load_dataset_csv,
    rank_analysis,
    regularization_report,
    residual_bound,
    save_dataset_csv,
    symmetrize,
)
from mlda import scatter
from mlda.population import gamma_norm
from mlda.synth import LabelScheme, Seed, gen_labels


# ---------------------------------------------------------------------------
# oracle: direct per-definition loops, no vectorization, no shared code
# ---------------------------------------------------------------------------


def oracle_scatters(X, bits):
    X = np.asarray(X, dtype=float)
    bits = np.asarray(bits)
    n, d = X.shape
    L = bits.shape[1]
    mu = X.mean(axis=0)
    Sb = np.zeros((d, d))
    Sw = np.zeros((d, d))
    for ell in range(L):
        members = [i for i in range(n) if bits[i, ell] == 1]
        mu_ell = X[members].mean(axis=0)
        dev = mu_ell - mu
        Sb += len(members) * np.outer(dev, dev)
        for i in members:
            diff = X[i] - mu_ell
            Sw += np.outer(diff, diff)
    St = np.zeros((d, d))
    St_ml = np.zeros((d, d))
    for i in range(n):
        c = X[i] - mu
        St += np.outer(c, c)
        St_ml += bits[i].sum() * np.outer(c, c)
    return Sb, Sw, St, St_ml


def make_dataset(X, bits):
    return build_dataset(np.asarray(X, dtype=float), build_labels(bits))


# ---------------------------------------------------------------------------
# hand-computed toy: three points, two overlapping labels
# ---------------------------------------------------------------------------

TOY_X = [(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)]
TOY_BITS = [[1, 1], [1, 0], [0, 1]]


def test_toy_scatters_exact():
    ss = build_scatter(make_dataset(TOY_X, TOY_BITS))
    assert np.allclose(ss.Sb, [[0.5, 0.5], [0.5, 1.0]], atol=1e-14)
    assert np.allclose(ss.Sw, [[2.5, 0.5], [0.5, 1.0]], atol=1e-14)
    assert np.allclose(ss.St_ml, [[3.0, 1.0], [1.0, 2.0]], atol=1e-14)
    assert np.allclose(ss.St, [[2.0, 1.0], [1.0, 2.0]], atol=1e-14)
    assert np.allclose(ss.R, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_toy_rank_report():
    ds = make_dataset(TOY_X, TOY_BITS)
    report = rank_analysis(ds)
    assert report.rank_sb == 2  # exceeds L - 1 = 1
    assert report.excess is True
    assert report.one_in_colspace is False
    assert report.bound == 2


def test_toy_label_structure():
    labels = build_labels(TOY_BITS)
    assert labels.n == 3 and labels.L == 2
    assert np.array_equal(labels.n_ell, [2, 2])
    assert np.array_equal(labels.k, [2, 1, 1])
    assert labels.K == 4
    # Y^T Y / n = [[2, 1], [1, 2]] / 3 has eigenvalues 1 and 1/3
    assert gamma_norm(labels) == pytest.approx(1.0, rel=4 * np.finfo(float).eps)


def test_single_label_one_in_colspace():
    labels = build_labels([[1, 0], [1, 0], [0, 1], [0, 1]])
    X = [[0.0, 1.0], [1.0, 3.0], [2.0, 0.5], [4.0, 2.0]]
    report = rank_analysis(build_dataset(X, labels))
    assert report.one_in_colspace is True
    assert (report.rank_Y, report.rank_HY, report.bound) == (2, 1, 1)


# ---------------------------------------------------------------------------
# oracle comparison and identities on random data
# ---------------------------------------------------------------------------


def _random_dataset(rng, scheme=None, n=None, d=None, L=None):
    n = n or int(rng.integers(8, 40))
    d = d or int(rng.integers(2, 10))
    L = L or int(rng.integers(2, 6))
    scheme = scheme or LabelScheme.variable(((1, 0.6), (2, 0.3), (3, 0.1)))
    if scheme.max_cardinality() > L:
        L = scheme.max_cardinality() + 1
    n = max(n, L)
    labels = gen_labels(scheme, n, L, rng)
    X = rng.standard_normal((n, d)) * rng.uniform(0.2, 5)
    return build_dataset(X, labels)


def test_build_scatter_matches_oracle(rng):
    for _ in range(30):
        ds = _random_dataset(rng)
        ss = build_scatter(ds)
        Sb, Sw, St, St_ml = oracle_scatters(ds.X, ds.labels.bits)
        scale = max(1.0, np.abs(St_ml).max())
        assert np.allclose(ss.Sb, Sb, atol=1e-10 * scale)
        assert np.allclose(ss.Sw, Sw, atol=1e-10 * scale)
        assert np.allclose(ss.St, St, atol=1e-10 * scale)
        assert np.allclose(ss.St_ml, St_ml, atol=1e-10 * scale)


def test_partition_and_factorization(rng):
    for _ in range(40):
        ds = _random_dataset(rng)
        ss = build_scatter(ds)
        scale = max(np.linalg.norm(ss.St_ml), 1e-300)
        # between + within equals the cardinality-weighted total
        weighted = (ds.X_centered * ds.labels.k[:, None]).T @ ds.X_centered
        assert np.linalg.norm(ss.Sb + ss.Sw - weighted) <= 1e-10 * scale
        # factor route
        assert np.linalg.norm(ss.Sb - ss.M @ ss.M.T) <= 1e-10 * max(np.linalg.norm(ss.Sb), 1e-300)
        # excess is positive semidefinite
        evals = np.linalg.eigvalsh(ss.R)
        assert evals.min() >= -1e-8 * max(np.abs(evals).max(), 1e-300)


def test_single_label_excess_vanishes(rng):
    labels = gen_labels(LabelScheme.single(), 30, 4, rng)
    X = rng.standard_normal((30, 5))
    ss = build_scatter(build_dataset(X, labels))
    dust = 1e-10 * np.abs(np.linalg.eigvalsh(ss.St_ml)).max()
    assert np.abs(ss.R).max() <= dust
    assert np.allclose(ss.St_ml, ss.St, atol=dust)


@pytest.mark.parametrize("k", [2, 3])
def test_uniform_cardinality_scales_total_scatter(rng, k):
    labels = gen_labels(LabelScheme.uniform(k), 40, 5, rng)
    X = rng.standard_normal((40, 6))
    ss = build_scatter(build_dataset(X, labels))
    assert np.allclose(ss.St_ml, k * ss.St, atol=1e-10 * np.abs(ss.St_ml).max())


def test_rank_bound_and_excess_implication(rng):
    schemes = [
        LabelScheme.single(),
        LabelScheme.uniform(2),
        LabelScheme.variable(((1, 0.7), (2, 0.3))),
    ]
    for _ in range(40):
        scheme = schemes[int(rng.integers(len(schemes)))]
        ds = _random_dataset(rng, scheme=scheme)
        report = rank_analysis(ds)
        assert report.rank_sb == report.rank_XtY
        assert report.rank_sb <= report.bound
        if report.excess:
            # more than L-1 directions requires the all-ones vector to
            # escape the label column space
            assert not report.one_in_colspace


def test_one_in_colspace_matches_lstsq_oracle(rng):
    # rank_analysis reads [1 in col Y] off rank(Y) - rank(HY); the oracle
    # solves min ||Y c - 1|| by least squares
    schemes = [
        LabelScheme.single(),
        LabelScheme.uniform(2),
        LabelScheme.uniform(3),
        LabelScheme.variable(((1, 0.6), (2, 0.3), (3, 0.1))),
    ]
    seen = set()
    for scheme in schemes:
        for _ in range(15):
            n, d = int(rng.integers(20, 60)), int(rng.integers(2, 12))
            L = max(int(rng.integers(2, 7)), scheme.max_cardinality() + 1)
            labels = gen_labels(scheme, n, L, rng)
            Y = labels.bits.astype(float)
            coef = np.linalg.lstsq(Y, np.ones(n), rcond=None)[0]
            one_in = bool(np.linalg.norm(Y @ coef - 1.0) <= 1e-8 * np.sqrt(n))
            report = rank_analysis(build_dataset(rng.standard_normal((n, d)), labels))
            assert report.one_in_colspace is one_in
            assert report.bound == min(d, n - 1, np.linalg.matrix_rank(Y) - int(one_in))
            if scheme.kind != "variable":
                assert one_in  # equal cardinalities: Y 1 = k 1
            seen.add(one_in)
    assert seen == {True, False}


def test_rank_single_label_is_classes_minus_one(rng):
    labels = gen_labels(LabelScheme.single(), 60, 5, rng)
    X = rng.standard_normal((60, 12))
    report = rank_analysis(build_dataset(X, labels))
    assert report.rank_sb == 4
    assert report.excess is False


def test_residual_bound_holds_and_uniform_equality(rng):
    # generic variable-cardinality instances: inequality
    for _ in range(25):
        ds = _random_dataset(rng)
        out = residual_bound(ds, build_scatter(ds))
        assert out["holds"]
    # uniform cardinality: equality (all multi-label weights agree)
    for k in (2, 3):
        labels = gen_labels(LabelScheme.uniform(k), 30, 5, rng)
        X = rng.standard_normal((30, 7))
        ds = build_dataset(X, labels)
        out = residual_bound(ds, build_scatter(ds))
        assert out["lhs"] == pytest.approx(out["rhs"], rel=1e-8)
    # single label: residual is zero
    labels = gen_labels(LabelScheme.single(), 20, 4, rng)
    ds = build_dataset(rng.standard_normal((20, 3)), labels)
    out = residual_bound(ds, build_scatter(ds))
    assert out["rhs"] == 0.0 and out["holds"]


# ---------------------------------------------------------------------------
# differential test on hostile shapes, and precision when Sb dominates
# ---------------------------------------------------------------------------


@st.composite
def hostile_datasets(draw):
    """Feature and label matrices of awkward shape: L = 1, every sample
    carrying every label, d > n, a label with a single member, or a random
    overlapping assignment; features with an offset up to 100 x their spread."""
    n = draw(st.integers(1, 12))
    L = draw(st.integers(1, 5))
    d = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["random", "every", "single-member"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "every":
        bits = np.ones((n, L), dtype=np.int64)
    else:
        bits = (rng.random((n, L)) < 0.4).astype(np.int64)
        bits[np.arange(n), rng.integers(0, L, size=n)] = 1  # no unlabeled row
        for ell in np.flatnonzero(bits.sum(axis=0) == 0):
            bits[rng.integers(n), ell] = 1  # no empty label
        if kind == "single-member":
            bits[1:, 0] = 0
            bits[0, 0] = 1
            bits[bits.sum(axis=1) == 0, L - 1] = 1
    spread = 10.0 ** draw(st.integers(-3, 3))
    offset = spread * draw(st.floats(-100, 100))
    X = offset + spread * rng.standard_normal((n, d))
    return X, bits


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hostile_datasets())
def test_build_scatter_matches_oracle_on_hostile_shapes(data):
    X, bits = data
    ss = build_scatter(make_dataset(X, bits))
    Sb, Sw, St, St_ml = oracle_scatters(X, bits)
    # relative to the scatter, plus a floor for scatters that vanish (n = 1,
    # identical rows): each centred entry carries rounding of eps * max|X|
    n, L = bits.shape
    tol = 1e-10 * np.linalg.norm(St_ml) + 16 * n * L * np.finfo(float).eps * np.abs(X).max() ** 2
    for got, want in ((ss.Sb, Sb), (ss.Sw, Sw), (ss.St, St), (ss.St_ml, St_ml)):
        assert np.linalg.norm(got - want) <= tol
    assert np.linalg.norm(ss.Sb - ss.M @ ss.M.T) <= tol


def test_within_scatter_precise_when_between_dominates():
    # well-separated single-label classes, noise 1e-6: ||Sb|| / ||Sw|| ~ 1e14,
    # so forming Sw as St_ml - Sb would lose every digit; the per-label
    # centred blocks keep Sw accurate relative to its own size
    rng = np.random.default_rng(7)
    n, d, L = 90, 4, 3
    labels = build_labels(np.eye(L, dtype=np.int64)[np.arange(n) % L])
    centres = 10.0 * rng.standard_normal((L, d))
    X = centres[np.arange(n) % L] + 1e-6 * rng.standard_normal((n, d))
    ss = build_scatter(build_dataset(X, labels))
    _, Sw, _, _ = oracle_scatters(X, labels.bits)
    assert np.linalg.norm(ss.Sb) > 1e12 * np.linalg.norm(Sw)
    assert np.linalg.norm(ss.Sw - Sw) <= 1e-10 * np.linalg.norm(Sw)


# ---------------------------------------------------------------------------
# fault injection: every runtime cross-check is live
# ---------------------------------------------------------------------------


def _single_label_dataset(rng, n=30, d=4, L=3):
    bits = np.eye(L, dtype=np.int64)[np.arange(n) % L]
    return make_dataset(rng.standard_normal((n, d)), bits)


def test_fault_total_scatter_routes(rng):
    ds = _random_dataset(rng, n=30, d=5, L=4)
    build_scatter(ds)
    with pytest.raises(ArithmeticError, match="total-scatter routes"):
        build_scatter(dataclasses.replace(ds, Sw=1.01 * ds.Sw))
    with pytest.raises(ArithmeticError, match="total-scatter routes"):
        build_scatter(dataclasses.replace(ds, mu_ell=ds.mu_ell + 1e-3))
    wrong_k = dataclasses.replace(ds.labels, k=ds.labels.k + 1)
    with pytest.raises(ArithmeticError, match="total-scatter routes"):
        build_scatter(dataclasses.replace(ds, labels=wrong_k))


def test_fault_between_scatter_factorization(rng):
    ds = _random_dataset(rng, n=30, d=5, L=4)
    bits = ds.labels.bits.copy()
    bits[0] = 1 - bits[0]  # M sees other labels than the label means did
    wrong_bits = dataclasses.replace(ds.labels, bits=bits)
    with pytest.raises(ArithmeticError, match="factorization"):
        build_scatter(dataclasses.replace(ds, labels=wrong_bits))


def test_fault_psd_excess(rng):
    # a sample dropped from every label while still counted in St gives it
    # weight k - 1 = -1 in R = St_ml - St; the other two routes stay
    # consistent with each other, so only the PSD check can catch it
    ds = _single_label_dataset(rng)
    labels = ds.labels
    bits = labels.bits.copy()
    bits[0] = 0
    dropped = dataclasses.replace(
        labels,
        bits=bits,
        n_ell=bits.sum(axis=0),
        k=bits.sum(axis=1),
        members=tuple(rows[rows != 0] for rows in labels.members),
    )
    with pytest.raises(ArithmeticError, match="R has negative eigenvalue"):
        build_scatter(build_dataset(ds.X, dropped))


@st.composite
def offset_single_label_datasets(draw):
    """Single-label data, where R = St_ml - St is exactly zero, centred up
    to 1e6 spreads away from the origin, with n above and below d."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 20))
    L = draw(st.integers(1, min(n, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = np.eye(L, dtype=np.int64)[rng.permutation(n) % L]
    spread = 10.0 ** draw(st.integers(-3, 3))
    offset = spread * 10.0 ** draw(st.floats(0, 6)) * rng.choice([-1.0, 1.0], d)
    return offset + spread * rng.standard_normal((n, d)), bits


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(offset_single_label_datasets())
def test_excess_floor_covers_rows_far_from_the_origin(data):
    X, bits = data
    ds = build_dataset(X, build_labels(bits))
    ss = build_scatter(ds)
    # every eigenvalue of the zero R is rounding inside the certificate's floor
    floor = 128.0 * np.finfo(float).eps * ss.st_ml_norm
    floor += scatter._mean_rounding(ds.peak, ds.labels.K, ds.d, ss.Sb)
    assert np.abs(np.linalg.eigvalsh(ss.R)).max() <= floor
    # and a sample dropped from its label, which gives R the eigenvalue
    # -||x_0 - mu||^2, is still caught
    if X.shape[0] >= 2 * bits.shape[1]:  # no label loses its last member
        keep = bits.copy()
        keep[0] = 0
        labels = ds.labels
        dropped = dataclasses.replace(
            labels,
            bits=keep,
            n_ell=keep.sum(axis=0),
            k=keep.sum(axis=1),
            members=tuple(rows[rows != 0] for rows in labels.members),
        )
        if np.linalg.norm(ds.X_centered[0]) ** 2 > 1e3 * floor:
            with pytest.raises(ArithmeticError, match="R has negative eigenvalue"):
                build_scatter(build_dataset(X, dropped))


def test_fault_centring_drift(rng, monkeypatch):
    ds = _single_label_dataset(rng)
    true_centre = scatter._centre

    def off_centre(rows, ones):
        mean, centred = true_centre(rows, ones)
        return mean + 1e-3, centred - 1e-3

    monkeypatch.setattr(scatter, "_centre", off_centre)
    with pytest.raises(ArithmeticError, match="centering drift"):
        build_dataset(ds.X, ds.labels)


# ---------------------------------------------------------------------------
# PSD certificate against the eigenvalue floor it replaced
# ---------------------------------------------------------------------------


def eigvalsh_floor_rejects(S, dust):
    """The eigenvalue floor build_scatter applied before its Cholesky
    certificate: reject when lambda_min < -max(CROSSCHECK_TOL * ||S||_2, dust)."""
    evals = np.linalg.eigvalsh(S)
    return bool(evals.min() < -max(scatter.CROSSCHECK_TOL * np.abs(evals).max(), dust))


def certificate_rejects(S, dust):
    try:
        scatter._certify_psd("S", S, dust)
    except InvariantViolation as exc:
        assert str(exc).startswith("S has negative eigenvalue")
        return True
    return False


def _scatter_of(kind, rng, d):
    """A scatter from a real dataset: rank-deficient Sb (d >> L), Sw at
    d >> n, or the all-dust R of single-label data."""
    if kind == "Sw":
        n = int(rng.integers(max(4, d // 8), max(5, d // 2) + 1))
    else:
        n = int(rng.integers(8, 60))
    L = int(rng.integers(2, min(n, 6) + 1))
    scheme = LabelScheme.single() if kind == "R" else LabelScheme.variable(((1, 0.6), (2, 0.4)))
    labels = gen_labels(scheme, n, L, rng)
    X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3)
    ss = build_scatter(build_dataset(X, labels))
    return getattr(ss, kind), 128.0 * np.finfo(float).eps * ss.st_ml_norm


@st.composite
def planted_psd_cases(draw):
    """A symmetric matrix whose smallest eigenvalue is planted at `ratio`
    times the eigenvalue floor below zero (0 leaves it PSD), with its dust
    level. The base is a drawn spectrum, possibly rank-deficient and possibly
    below the dust level, or a real Sb, Sw or R."""
    kind = draw(st.sampled_from(["spectrum", "Sb", "Sw", "R"]))
    d = draw(st.integers(1, scatter.MAX_COLS))
    ratio = draw(st.one_of(st.just(0.0), st.floats(0.5, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "spectrum":
        scale = 10.0 ** draw(st.integers(-6, 6))
        evals = np.zeros(d)
        rank = draw(st.integers(1, d))
        evals[:rank] = scale * rng.uniform(0.0, 1.0, rank)
        evals[0] = scale
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        S0 = symmetrize((Q * evals) @ Q.T)
        dust = 128.0 * np.finfo(float).eps * scale * 10.0 ** draw(st.integers(0, 12))
    else:
        S0, dust = _scatter_of(kind, rng, d)
    vals, vecs = np.linalg.eigh(S0)
    floor = max(scatter.CROSSCHECK_TOL * np.abs(vals).max(), dust)
    q = vecs[:, 0]
    S = symmetrize(S0 - (vals[0] + ratio * floor) * np.outer(q, q))
    return S, dust, ratio


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_psd_cases())
def test_psd_certificate_rejects_what_the_eigenvalue_floor_rejects(case):
    S, dust, ratio = case
    if eigvalsh_floor_rejects(S, dust):
        assert certificate_rejects(S, dust)
    if ratio == 0.0:
        assert not certificate_rejects(S, dust)


@pytest.mark.parametrize("kind", ["Sb", "Sw", "R"])
@pytest.mark.parametrize("d", [1, 15, 200, scatter.MAX_COLS])
def test_psd_certificate_accepts_real_scatters(kind, d):
    # rank-deficient Sb, Sw at d >> n and the all-dust single-label R pass
    rng = np.random.default_rng(d)
    for _ in range(3):
        S, dust = _scatter_of(kind, rng, d)
        assert not certificate_rejects(S, dust)
        assert not eigvalsh_floor_rejects(S, dust)


def test_psd_certificate_reserves_the_cholesky_margin():
    # S = diag(1, 1/2, ..., 1/2, lam): max|S_ii| = ||S||_2 = 1, so the floor
    # tau = CROSSCHECK_TOL is the eigenvalue floor itself. A completed
    # Cholesky of S + c I proves lambda_min >= -c - g tr(S + c I), with g
    # from the backward-error bound gamma_{d+2}; lam inside that margin above
    # -tau must be rejected, lam beyond it accepted.
    d = 6
    tau = scatter.CROSSCHECK_TOL
    ku = (d + 2) * np.finfo(float).eps / 2
    g = ku / (1 - ku) / (1 - ku / (1 - ku))
    margin = g * (1.0 + 0.5 * (d - 2) + d * tau + tau)
    for lam, rejected in (
        (-tau * (1 + 1e-6), True),
        (-tau + 0.5 * margin, True),
        (-tau + 2.0 * margin, False),
        (-0.5 * tau, False),
        (0.0, False),
    ):
        S = np.diag([1.0] + [0.5] * (d - 2) + [lam])
        assert certificate_rejects(S, 0.0) is rejected, lam
        assert eigvalsh_floor_rejects(S, 0.0) == (lam < -tau)


def test_st_ml_norm_matches_eigvalsh(rng):
    # n < d reads the norm off the n x n Gram, n >= d off St_ml itself
    for n, d in ((20, 500), (50, 200), (12, 13), (40, 40), (300, 15), (60, 2)):
        for scheme in (LabelScheme.single(), LabelScheme.variable(((1, 0.5), (2, 0.3), (3, 0.2)))):
            labels = gen_labels(scheme, n, 5, rng)
            X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-50, 50)
            ss = build_scatter(build_dataset(X, labels))
            want = np.abs(np.linalg.eigvalsh(ss.St_ml)).max()
            assert ss.st_ml_norm == pytest.approx(want, rel=1e-12)


def test_range_basis_spans_every_scatter(rng):
    # n < d: an orthonormal d x n basis whose span holds every scatter and M;
    # n >= d: none
    scheme = LabelScheme.variable(((1, 0.5), (2, 0.3), (3, 0.2)))
    for n, d in ((20, 500), (50, 200), (12, 13), (40, 40), (300, 15)):
        labels = gen_labels(scheme, n, 5, rng)
        X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-50, 50)
        ss = build_scatter(build_dataset(X, labels))
        if n >= d:
            assert ss.range_basis is None
            continue
        Q = ss.range_basis
        assert Q.shape == (d, n)
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 1e-12
        scale = np.linalg.norm(ss.St_ml)
        for S in (ss.Sb, ss.Sw, ss.St, ss.St_ml, ss.R):
            assert np.linalg.norm(S - Q @ (Q.T @ S @ Q) @ Q.T) <= 1e-12 * scale
        assert np.linalg.norm(ss.M - Q @ (Q.T @ ss.M)) <= 1e-12 * np.sqrt(scale)


def test_feature_magnitude_that_would_overflow_is_invalid_input(rng):
    labels = gen_labels(LabelScheme.variable(((1, 0.6), (2, 0.4))), 30, 4, rng)
    X = rng.standard_normal((30, 20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="overflow"):
            build_dataset(X * 1e200, labels)
    # just inside the bound every scatter, norm and report stays finite
    bound = np.finfo(float).max ** 0.25 / (4.0 * np.sqrt(labels.K * X.shape[1]))
    X_big = X * (0.999 * bound / np.abs(X).max())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = build_dataset(X_big, labels)
        ss = build_scatter(ds)
        report = rank_analysis(ds, ss)
        rows = regularization_report(ss, [0.0, 1e-3 * ss.st_ml_norm], r=2)
    for S in (ss.Sb, ss.Sw, ss.St_ml, ss.St, ss.R):
        assert np.isfinite(np.linalg.norm(S))
    assert np.isfinite(ss.st_ml_norm)
    assert report.rank_sb == rank_analysis(build_dataset(X, labels)).rank_sb
    assert all(np.isfinite(row.gap_td) for row in rows)
    with pytest.raises(InvalidInput, match="overflow"):
        build_dataset(X_big * 1.01, labels)


def test_members_list_label_rows(rng):
    labels = _random_dataset(rng).labels
    assert len(labels.members) == labels.L
    for ell, rows in enumerate(labels.members):
        assert np.array_equal(rows, np.flatnonzero(labels.bits[:, ell]))


# ---------------------------------------------------------------------------
# the k != 1 total-scatter route and the cached label arrays
# ---------------------------------------------------------------------------


def weighted_total_oracle(Xc, k):
    """The full cardinality-weighted product the k != 1 route replaced."""
    return symmetrize((Xc * np.asarray(k, dtype=float)[:, None]).T @ Xc)


def _excess_route(ds):
    labels = ds.labels
    Xc = ds.X_centered
    XE = Xc.take(labels.excess_rows, axis=0)
    return symmetrize(Xc.T @ Xc + (XE * labels.excess_weights[:, None]).T @ XE)


def _with_unlabeled_first_row(labels):
    bits = labels.bits.copy()
    bits[0] = 0
    return dataclasses.replace(
        labels,
        bits=bits,
        n_ell=bits.sum(axis=0),
        k=bits.sum(axis=1),
        members=tuple(rows[rows != 0] for rows in labels.members),
    )


def test_excess_route_matches_full_weighted_product(rng):
    n, d = 40, 6
    X = rng.standard_normal((n, d)) * 3.0 + 1.0
    every_label = np.ones((n, 3), dtype=np.int64)
    cases = {
        "E empty, single-label": np.eye(3, dtype=np.int64)[np.arange(n) % 3],
        "E empty, L = 1": np.ones((n, 1), dtype=np.int64),
        "E every row": every_label,
        "mixed": _random_dataset(rng, n=n, d=d, L=4).labels.bits,
    }
    for name, bits in cases.items():
        labels = build_labels(bits)
        ds = build_dataset(X, labels)
        assert np.array_equal(labels.excess_rows, np.flatnonzero(labels.k != 1)), name
        want = weighted_total_oracle(ds.X_centered, labels.k)
        got = _excess_route(ds)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), name
        ss = build_scatter(ds)  # its own cross-check runs this route
        assert np.linalg.norm(ss.St_ml - want) <= 1e-12 * np.linalg.norm(want), name
    assert build_labels(every_label).excess_rows.size == n
    assert build_labels(cases["E empty, L = 1"]).excess_rows.size == 0


def test_excess_route_keeps_weight_minus_one_for_k_zero(rng):
    ds = _single_label_dataset(rng)
    dropped = _with_unlabeled_first_row(ds.labels)
    assert dropped.k[0] == 0
    assert np.array_equal(dropped.excess_rows, [0])
    assert np.array_equal(dropped.excess_weights, [-1.0])
    faulty = dataclasses.replace(ds, labels=dropped)
    want = weighted_total_oracle(ds.X_centered, dropped.k)
    assert np.linalg.norm(_excess_route(faulty) - want) <= 1e-13 * np.linalg.norm(want)


def test_cached_label_arrays_follow_replace_and_are_read_only(rng):
    labels = _random_dataset(rng, n=30, d=4, L=4).labels
    for name in ("excess_rows", "excess_weights", "scaled_bits"):
        cached = getattr(labels, name)
        assert getattr(labels, name) is cached  # computed once per instance
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[...] = 0
    assert np.array_equal(labels.excess_weights, labels.k[labels.k != 1] - 1)
    assert np.array_equal(labels.scaled_bits, labels.bits / np.sqrt(labels.n_ell))

    dropped = _with_unlabeled_first_row(labels)
    assert np.array_equal(dropped.excess_rows, np.flatnonzero(dropped.k != 1))
    assert np.array_equal(dropped.excess_weights, dropped.k[dropped.k != 1] - 1)
    assert np.array_equal(dropped.scaled_bits, dropped.bits / np.sqrt(dropped.n_ell))
    assert 0 in dropped.excess_rows
    # the original instance keeps its own arrays
    assert np.array_equal(labels.excess_rows, np.flatnonzero(labels.k != 1))


def test_non_finite_features_are_invalid_input(rng):
    labels = build_labels([[1, 0], [0, 1], [1, 1]])
    for bad in (np.nan, np.inf, -np.inf):
        for pos in ((0, 0), (1, 2), (2, 3)):
            X = rng.standard_normal((3, 4)) * 1e10
            X[pos] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidInput, match="non-finite"):
                    build_dataset(X, labels)


# ---------------------------------------------------------------------------
# validation and IO
# ---------------------------------------------------------------------------


def test_label_validation_errors():
    with pytest.raises(MissingLabel):
        build_labels([[1, 0], [1, 0]])
    with pytest.raises(UnlabeledSample):
        build_labels([[1, 0], [0, 0], [0, 1]])
    with pytest.raises(InvalidInput):
        build_labels([[1, 2], [0, 1]])
    with pytest.raises(InvalidInput):
        build_labels(np.zeros((0, 3)))


def test_dataset_validation_errors(rng):
    labels = build_labels([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(InvalidInput):
        build_dataset(np.ones((2, 4)), labels)  # row mismatch
    X = np.ones((3, 4))
    X[0, 0] = np.nan
    with pytest.raises(InvalidInput):
        build_dataset(X, labels)
    with pytest.raises(InvalidInput):
        build_dataset(np.ones((3, 4)), labels, max_cols=2)
    with pytest.raises(InvalidInput):
        build_dataset(np.ones((3, 4)), labels, max_rows=2)
    # lifting the caps admits the same data
    ds = build_dataset(np.arange(12.0).reshape(3, 4), labels, max_rows=None, max_cols=None)
    assert ds.n == 3 and ds.d == 4


def test_csv_round_trip(tmp_path, rng):
    ds = _random_dataset(rng, n=12, d=4, L=3)
    fx, fy = tmp_path / "x.csv", tmp_path / "y.csv"
    save_dataset_csv(ds, fx, fy)
    back = load_dataset_csv(fx, fy)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.labels.bits, ds.labels.bits)


def test_csv_malformed(tmp_path):
    fx = tmp_path / "x.csv"
    fy = tmp_path / "y.csv"
    fx.write_text("1.0,2.0\n3.0\n")
    fy.write_text("1,0\n0,1\n")
    with pytest.raises(InvalidInput):
        load_dataset_csv(fx, fy)
    fx.write_text("1.0,abc\n")
    with pytest.raises(InvalidInput):
        load_dataset_csv(fx, fy)
    fx.write_text("")
    with pytest.raises(InvalidInput):
        load_dataset_csv(fx, fy)
