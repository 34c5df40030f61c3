"""Population-model tests.

Three independent oracles back the frozen expectations:
* a fully hand-computed two-label pattern distribution,
* Monte Carlo moments of the generative model x = mu + A y + eps,
* characteristic-polynomial roots for the generalized eigenvalues.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlda import (
    InvalidCovariance,
    InvalidInput,
    InvariantViolation,
    MissingLabel,
    ModelParams,
    SingularTotalScatter,
    build_labels,
    gamma_norm,
    gaps,
    isotropic_params,
    label_moments,
    opt_stml,
    population_scatters,
)
from mlda.discriminant import THETA_DUST
from mlda.spectral import sym_eigvals, symmetrize

TOY = [([1, 0], 0.4), ([0, 1], 0.4), ([1, 1], 0.2)]


# ---------------------------------------------------------------------------
# hand-computed moments of the toy distribution
# ---------------------------------------------------------------------------


def test_toy_moments_exact():
    dist = label_moments(TOY)
    assert np.allclose(dist.pi, [0.6, 0.6], atol=1e-15)
    assert np.allclose(dist.C, [[0.6, 0.2], [0.2, 0.6]], atol=1e-15)
    assert np.allclose(dist.Sigma_y, [[0.24, -0.16], [-0.16, 0.24]], atol=1e-15)
    assert dist.K_pop == pytest.approx(1.2, abs=1e-15)
    # conditioned on label 0 present: patterns 10 (2/3) and 11 (1/3)
    assert np.allclose(dist.cond_cov[0], [[0.0, 0.0], [0.0, 2.0 / 9.0]], atol=1e-15)
    assert np.allclose(dist.cond_cov[1], [[2.0 / 9.0, 0.0], [0.0, 0.0]], atol=1e-15)
    assert not dist.is_single_label()


def test_toy_population_matrices_exact():
    dist = label_moments(TOY)
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    params = isotropic_params(np.zeros(3), A, 0.5)
    pop = population_scatters(params, dist)
    W_pi = np.diag([2.0 / 15.0, 2.0 / 15.0])
    B_pi = np.array([[0.416 / 3.0, -0.128], [-0.128, 0.416 / 3.0]])
    assert np.allclose(pop.W_pi, W_pi, atol=1e-14)
    assert np.allclose(pop.B_pi, B_pi, atol=1e-14)
    assert np.allclose(pop.Q_pi, B_pi - W_pi, atol=1e-14)
    assert np.allclose(pop.Sb_pop, (A * dist.pi) @ A.T, atol=1e-14)
    assert np.allclose(pop.Sw_pop, 1.2 * 0.25 * np.eye(3), atol=1e-14)
    assert np.allclose(pop.M_star, pop.Sb_pop - pop.Sw_pop, atol=1e-14)
    assert np.allclose(pop.M_star_c, 2 * pop.Sb_inf - pop.St_inf, atol=1e-13)
    assert np.allclose(pop.St_inf, pop.Sb_inf + pop.Swc_pop, atol=1e-14)


# ---------------------------------------------------------------------------
# Monte Carlo oracle: the matrices are limits of empirical scatters
# ---------------------------------------------------------------------------


def _sample_patterns(dist, n, rng):
    idx = rng.choice(len(dist.probs), size=n, p=dist.probs)
    return dist.patterns[idx]


def test_moments_match_monte_carlo():
    rng = np.random.default_rng(7)
    dist = label_moments(TOY)
    n = 400_000
    Y = _sample_patterns(dist, n, rng).astype(float)
    se = 0.5 / np.sqrt(n)
    assert np.abs(Y.mean(axis=0) - dist.pi).max() < 5 * se
    assert np.abs(Y.T @ Y / n - dist.C).max() < 5 * se
    assert np.abs(np.cov(Y.T, bias=True) - dist.Sigma_y).max() < 5 * se
    assert abs(Y.sum(axis=1).mean() - dist.K_pop) < 10 * se
    for ell in range(2):
        sub = Y[Y[:, ell] == 1]
        emp = np.cov(sub.T, bias=True)
        assert np.abs(emp - dist.cond_cov[ell]).max() < 8 * se


def test_population_scatters_match_simulated_limits():
    rng = np.random.default_rng(11)
    dist = label_moments(TOY)
    A = np.array([[1.2, -0.3], [0.4, 0.9], [-0.5, 0.7]])
    sigma_w = 0.6
    params = isotropic_params(np.array([0.5, -1.0, 2.0]), A, sigma_w)
    pop = population_scatters(params, dist)

    n = 300_000
    Y = _sample_patterns(dist, n, rng).astype(float)
    X = params.mu + Y @ A.T + sigma_w * rng.standard_normal((n, 3))
    Xc = X - X.mean(axis=0)
    k = Y.sum(axis=1)

    # per-sample cardinality-weighted scatter converges to St_inf
    St_emp = (Xc * k[:, None]).T @ Xc / n
    assert np.abs(St_emp - pop.St_inf).max() < 0.05

    # between-scatter per sample converges to Sb_inf
    Sb_emp = np.zeros((3, 3))
    for ell in range(2):
        member = Y[:, ell] == 1
        dev = X[member].mean(axis=0) - X.mean(axis=0)
        Sb_emp += member.mean() * np.outer(dev, dev)
    assert np.abs(Sb_emp - pop.Sb_inf).max() < 0.05

    # B_pi is the pi-weighted spread of conditional label means
    B_emp = np.zeros((2, 2))
    for ell in range(2):
        member = Y[:, ell] == 1
        dev = Y[member].mean(axis=0) - dist.pi
        B_emp += dist.pi[ell] * np.outer(dev, dev)
    assert np.abs(B_emp - pop.B_pi).max() < 0.01


# ---------------------------------------------------------------------------
# generalized eigenvalues: characteristic-polynomial oracle
# ---------------------------------------------------------------------------


def charpoly_generalized_eigs(Sb, St):
    """Roots of det(Sb - theta * St) via exact cubic interpolation (d = 3)."""
    nodes = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    vals = [np.linalg.det(Sb - t * St) for t in nodes]
    coeffs = np.polyfit(nodes, vals, 3)
    roots = np.roots(coeffs)
    assert np.abs(roots.imag).max() < 1e-8
    return np.sort(roots.real)[::-1]


def test_theta_matches_charpoly_oracle():
    rng = np.random.default_rng(3)
    dist = label_moments(TOY)
    for _ in range(10):
        A = rng.standard_normal((3, 2)) * 2.0
        params = isotropic_params(np.zeros(3), A, rng.uniform(0.3, 1.5))
        pop = population_scatters(params, dist)
        report = gaps(pop, 1)
        oracle = charpoly_generalized_eigs(pop.Sb_inf, pop.St_inf)
        assert np.allclose(report.theta, oracle, rtol=1e-8, atol=1e-10)


def test_theta_in_unit_interval():
    rng = np.random.default_rng(5)
    for trial in range(30):
        L = int(rng.integers(2, 5))
        d = int(rng.integers(L, L + 4))
        patterns = []
        support = rng.integers(0, 2, size=(6, L))
        support[:L] |= np.eye(L, dtype=support.dtype)  # every label appears
        support[support.sum(axis=1) == 0, 0] = 1
        w = rng.uniform(0.1, 1.0, size=6)
        for row, p in zip(support, w / w.sum()):
            patterns.append((row, p))
        dist = label_moments(patterns)
        params = isotropic_params(np.zeros(d), rng.standard_normal((d, L)), 0.7)
        pop = population_scatters(params, dist)
        report = gaps(pop, 1)
        assert report.theta.shape == (d,)
        assert (report.theta >= 0.0).all() and (report.theta < 1.0).all()
        assert (np.diff(report.theta) <= 1e-12).all()  # descending


# ---------------------------------------------------------------------------
# structural reductions and invariances
# ---------------------------------------------------------------------------

SINGLE = [([1, 0, 0], 0.5), ([0, 1, 0], 0.3), ([0, 0, 1], 0.2)]


def test_single_label_reduction():
    dist = label_moments(SINGLE)
    assert dist.is_single_label()
    assert dist.K_pop == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(2)
    params = isotropic_params(np.zeros(4), rng.standard_normal((4, 3)), 0.8)
    pop = population_scatters(params, dist)
    assert np.abs(pop.W_pi).max() == 0.0
    pi = dist.pi
    assert np.allclose(pop.Q_pi, np.diag(pi) - np.outer(pi, pi), atol=1e-14)
    # with K_pop = 1 the naive and centered totals agree
    assert np.allclose(pop.St_ml_pop, pop.Sb_pop + params.Sigma_w, atol=1e-14)


def test_uniform_multilabel_collapses_identifiability():
    # all two-subsets of three labels, equal probability: Q_pi is NSD
    patterns = [([1, 1, 0], 1 / 3), ([1, 0, 1], 1 / 3), ([0, 1, 1], 1 / 3)]
    dist = label_moments(patterns)
    params = isotropic_params(np.zeros(3), np.eye(3), 0.5)
    pop = population_scatters(params, dist)
    evals = np.linalg.eigvalsh(pop.Q_pi)
    assert evals.max() <= 1e-12


def test_joint_scaling_invariance():
    dist = label_moments(TOY)
    rng = np.random.default_rng(9)
    A = rng.standard_normal((4, 2))
    base = gaps(population_scatters(isotropic_params(np.zeros(4), A, 0.5), dist), 1)
    for c in (3.0, 0.25):
        scaled = gaps(
            population_scatters(isotropic_params(np.zeros(4), c * A, c * 0.5), dist), 1
        )
        assert scaled.Delta_r == pytest.approx(base.Delta_r, rel=1e-10)
        assert scaled.gap_r == pytest.approx(c**2 * base.gap_r, rel=1e-8)
        assert scaled.kappa_St_inf == pytest.approx(base.kappa_St_inf, rel=1e-8)


def test_degenerate_gap_flagged():
    dist = label_moments([([1, 0], 0.5), ([0, 1], 0.5)])
    A = np.array([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]])  # rank-1 between structure
    pop = population_scatters(isotropic_params(np.zeros(3), A, 0.4), dist)
    report = gaps(pop, 2)  # eigenvalues 2 and 3 of M_star_c tie at -K sigma^2
    assert report.degenerate
    assert report.gap_r <= 1e-12
    healthy = gaps(pop, 1)
    assert not healthy.degenerate
    assert healthy.lam_min_St_inf > 0.0
    assert healthy.kappa_St_inf >= 1.0


def test_gamma_norm_single_exact_and_multi_larger(rng):
    bits = np.zeros((10, 3), dtype=int)
    bits[np.arange(10), [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]] = 1
    labels = build_labels(bits)
    assert gamma_norm(labels) == 0.4  # max n_ell / n, exactly
    multi = np.array(bits)
    multi[0, 1] = 1
    multi[4, 2] = 1
    assert gamma_norm(build_labels(multi)) > 0.4


# ---------------------------------------------------------------------------
# constructors and validation
# ---------------------------------------------------------------------------


def test_duplicate_patterns_merge():
    merged = label_moments([([1, 0], 0.2), ([1, 0], 0.2), ([0, 1], 0.6)])
    plain = label_moments([([1, 0], 0.4), ([0, 1], 0.6)])
    assert np.allclose(merged.probs, plain.probs)
    assert np.array_equal(merged.patterns, plain.patterns)


def test_distribution_validation():
    with pytest.raises(InvalidInput):
        label_moments([([1, 0], 0.5), ([0, 1], 0.4)])  # probs sum to 0.9
    with pytest.raises(MissingLabel):
        label_moments([([1, 0], 1.0)])  # label 1 never active
    with pytest.raises(InvalidInput):
        label_moments([([1, 2], 1.0)])  # non-binary pattern
    with pytest.raises(InvalidInput):
        label_moments([([0, 0], 0.5), ([1, 1], 0.5)])  # empty pattern


def test_model_validation():
    with pytest.raises(InvalidCovariance):
        ModelParams(np.zeros(2), np.eye(2), Sigma_w=np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidCovariance):
        ModelParams(np.zeros(2), np.eye(2), Sigma_w=-np.eye(2))
    singular = ModelParams(np.zeros(2), np.eye(2), Sigma_w=np.diag([1.0, 0.0]))
    with pytest.raises(InvalidCovariance):
        population_scatters(singular, label_moments([([1, 0], 0.5), ([0, 1], 0.5)]))


def test_isotropic_params_overflowing_variance_is_invalid_input():
    # sigma_w ** 2 raised a bare OverflowError; the infinite variance now
    # reaches the finiteness check, and inf * 0 never makes a NaN warning
    for sigma_w in (1e308, 1e155, float("inf"), float("nan")):
        with pytest.raises(InvalidInput, match="non-finite"):
            isotropic_params(np.zeros(3), np.ones((3, 2)), sigma_w)
    # the diagonal is the same double (sigma_w ** 2) * eye gave
    for sigma_w in (0.0, 0.5, 0.7, 1.0, 3.3, 1e-150, 1e70):
        params = isotropic_params(np.zeros(4), np.ones((4, 2)), sigma_w)
        expected = (sigma_w ** 2) * np.eye(4)
        assert params.Sigma_w.tobytes() == expected.tobytes()
        # sqrt(fl(sigma_w^2)) is sigma_w again, so the noise factor is exact
        assert params.noise_factor.tobytes() == np.full(4, sigma_w).tobytes()
        assert params.noise_values.tobytes() == np.full(4, sigma_w ** 2).tobytes()


def test_model_magnitude_that_would_overflow_is_invalid_input():
    # the guard runs before the symmetry check squares any entry, so no
    # overflow warning comes first
    d, L = 6, 3
    A, B, Sigma = np.ones((d, L)), np.ones((d, L * (L - 1) // 2)), np.eye(d)
    bound = np.finfo(float).max ** 0.25 / (4.0 * np.sqrt((L + B.shape[1]) * d))
    asymmetric = np.triu(np.full((d, d), 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, s, b in ((1e150, 1.0, 1.0), (1.0, 1e300, 1.0), (1.0, 1.0, 1e150),
                        (1.01 * bound, 1.0, 1.0), (1.0, 1.03 * bound**2, 1.0), (1.0, 1.0, 1.01 * bound)):
            with pytest.raises(InvalidInput, match="would overflow"):
                ModelParams(np.zeros(d), A * a, Sigma * s, B_inter=B * b)
        with pytest.raises(InvalidInput, match="would overflow"):
            ModelParams(np.zeros(d), A, asymmetric)
        # just inside the bound the model and its population scatters are finite
        params = ModelParams(
            np.zeros(d), A * 0.99 * bound, Sigma * (0.99 * bound) ** 2, B_inter=B * 0.99 * bound
        )
        pop = population_scatters(params, label_moments([([1, 0, 0], 0.5), ([0, 1, 1], 0.5)]))
    assert all(np.isfinite(np.linalg.norm(S)) for S in (pop.St_ml_pop, pop.St_inf, pop.M_star_c))


def _factor_oracle(S):
    """Symmetric PSD square root through a full eigendecomposition."""
    vals, vecs = np.linalg.eigh(S)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def test_model_diagonal_covariance_skips_eigvalsh(monkeypatch):
    # a diagonal Sigma_w reads its spectrum and its square root off the
    # diagonal; both must match what the full eigensolver route gives
    rng = np.random.default_rng(5)
    cases = [np.diag(rng.uniform(0.0, 1.0, 7) * 10.0 ** rng.integers(-6, 7, 7)),
             np.diag([0.0, 2.5, 0.0]), 0.49 * np.eye(4), np.zeros((3, 3))]
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    expected = [(eigvalsh(S)[::-1], _factor_oracle(S)) for S in cases]

    def forbidden(S):
        raise AssertionError("eigensolver called on a diagonal covariance")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    for S, (values, factor) in zip(cases, expected):
        params = ModelParams(np.zeros(S.shape[0]), np.ones((S.shape[0], 2)), S)
        assert params.noise_values.tobytes() == values.tobytes()
        assert params.noise_factor.ndim == 1
        assert np.array_equal(np.diag(params.noise_factor), factor)
    iso = isotropic_params(np.zeros(5), np.ones((5, 2)), 0.7)
    assert np.array_equal(iso.noise_factor, np.full(5, 0.7))
    with pytest.raises(InvalidCovariance):
        ModelParams(np.zeros(2), np.eye(2), Sigma_w=np.diag([1.0, -1e-3]))

    # a non-diagonal covariance takes one eigh, whose values reject a negative
    # eigenvalue that no diagonal entry shows and whose vectors give the factor
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda S: calls.append(S) or eigh(S))
    with pytest.raises(InvalidCovariance):
        ModelParams(np.zeros(2), np.eye(2), Sigma_w=np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert len(calls) == 1
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    params = ModelParams(np.zeros(2), np.eye(2), Sigma_w=S)
    assert len(calls) == 2
    assert params.noise_values == pytest.approx([3.0, 1.0], rel=1e-15)
    assert np.allclose(params.noise_factor @ params.noise_factor, S, rtol=0, atol=1e-14)


@st.composite
def noise_covariances(draw):
    """A PSD Sigma_w: diagonal with zeros, dense full rank, or dense rank-deficient."""
    kind = draw(st.sampled_from(["diagonal", "dense", "deficient"]))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    evals = rng.uniform(0.0, 1.0, d) * 10.0 ** draw(st.integers(-6, 6))
    if kind == "diagonal":
        evals[rng.random(d) < 0.3] = 0.0
        return np.diag(evals)
    if kind == "deficient":
        evals[: draw(st.integers(0, d - 1))] = 0.0
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return symmetrize((Q * evals) @ Q.T)


@settings(max_examples=80, deadline=None)
@given(noise_covariances())
def test_noise_factor_squares_back_to_the_covariance(S):
    params = ModelParams(np.zeros(S.shape[0]), np.ones((S.shape[0], 2)), S)
    F = params.noise_factor
    square = np.diag(F * F) if F.ndim == 1 else F @ F
    d, eps = S.shape[0], np.finfo(float).eps
    scale = max(np.linalg.norm(S), np.finfo(float).tiny)
    assert np.linalg.norm(square - S) <= 16 * d * eps * scale
    oracle = np.linalg.eigvalsh(S)[::-1]
    assert np.all(np.diff(params.noise_values) <= 0)
    assert np.abs(params.noise_values - oracle).max() <= 16 * d * eps * scale


@st.composite
def noise_diagonals(draw):
    """(variances, rng): d from 1 to 40 variances of mixed scales, 1e-6 to
    1e6, with none, some or all of them exact zeros."""
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.uniform(0.0, 1.0, d) * 10.0 ** rng.integers(-6, 7, d)
    v[rng.random(d) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    return v, rng


@settings(max_examples=60, deadline=None)
@given(noise_diagonals())
def test_a_diagonal_given_as_its_vector_is_the_dense_diagonal(case):
    # the (d,) route is the dense exactly-diagonal route, bit for bit, and
    # forms the d x d matrix only when Sigma_w is read
    from mlda import Seed, bound_frame, gen_data, gen_labels
    from mlda.synth import LabelScheme

    v, rng = case
    d, L = v.shape[0], 2
    mu, A = rng.standard_normal(d), rng.standard_normal((d, L))
    held, dense = ModelParams(mu, A, v), ModelParams(mu, A, np.diag(v))
    for name in ("noise_values", "noise_factor"):
        assert getattr(held, name).tobytes() == getattr(dense, name).tobytes()
    labels = gen_labels(LabelScheme.variable(((1, 0.6), (2, 0.4))), 30, L, Seed(1).stream("e", 0, "l"))
    rows = [gen_data(labels, p, Seed(1).stream("e", 0, "n")).X for p in (held, dense)]
    assert rows[0].tobytes() == rows[1].tobytes()
    assert "Sigma_w" not in vars(held) and "Sigma_w" not in repr(held)

    assert held.Sigma_w.tobytes() == dense.Sigma_w.tobytes()
    assert held.Sigma_w is held.Sigma_w
    W = rng.standard_normal((d, 1))
    frames = [bound_frame(W, A, p.Sigma_w) for p in (held, dense)]
    assert all(np.array_equal(getattr(frames[0], f.name), getattr(frames[1], f.name))
               for f in dataclasses.fields(frames[0]))
    dist = label_moments(TOY)
    try:
        want = population_scatters(dense, dist)
    except InvalidCovariance:
        with pytest.raises(InvalidCovariance):
            population_scatters(held, dist)
    else:
        got = population_scatters(held, dist)
        assert all(np.array_equal(getattr(got, f.name), getattr(want, f.name)) for f in dataclasses.fields(want))


def test_a_hostile_diagonal_is_rejected_as_the_dense_one_is():
    mu, A = np.zeros(3), np.ones((3, 2))
    for v in ([1.0, np.nan, 0.5], [1.0, np.inf, 0.5], [-np.inf, 1.0, 0.5]):
        for S in (v, np.diag(v)):
            with pytest.raises(InvalidInput, match="non-finite"):
                ModelParams(mu, A, S)
    for S in ([1.0, -1e-3, 0.5], np.diag([1.0, -1e-3, 0.5])):
        with pytest.raises(InvalidCovariance, match="negative eigenvalue"):
            ModelParams(mu, A, S)
    # rounding dust within the -1e-10 slack passes in both forms
    dust = [1.0, -1e-11, 0.5]
    assert ModelParams(mu, A, dust).noise_values.tobytes() == ModelParams(mu, A, np.diag(dust)).noise_values.tobytes()
    for S in (np.ones(4), np.ones(2), np.ones((3, 4)), np.ones((3, 3, 3))):
        with pytest.raises(InvalidInput, match="Sigma_w must have shape"):
            ModelParams(mu, A, S)
    with pytest.raises(InvalidInput, match="needs Sigma_w"):
        ModelParams(mu, A)


def test_population_and_draws_solve_no_eigenproblem(monkeypatch):
    # the spectrum and the factor of Sigma_w are solved once, in ModelParams
    from mlda import Seed, gen_data, gen_labels
    from mlda.synth import LabelScheme

    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    params = ModelParams(np.zeros(3), A, Sigma_w=np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.1], [0.0, 0.1, 0.5]]))
    labels = gen_labels(LabelScheme.variable(((1, 0.6), (2, 0.4))), 40, 2, Seed(1).stream("e", 0, "l"))

    def forbidden(S):
        raise AssertionError("eigensolver called after ModelParams")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    population_scatters(params, label_moments(TOY))
    gen_data(labels, params, Seed(1).stream("e", 0, "n"))


def _with_pencil(pop, Sb_inf, St_inf):
    """``pop`` with the pencil (Sb_inf, St_inf) and the M_star_c = 2 Sb_inf -
    St_inf that the population identity gives it."""
    Sb_inf, St_inf = symmetrize(Sb_inf), symmetrize(St_inf)
    return dataclasses.replace(pop, Sb_inf=Sb_inf, St_inf=St_inf, M_star_c=symmetrize(2.0 * Sb_inf - St_inf))


def test_gaps_rejects_a_singular_total_scatter():
    pop = population_scatters(isotropic_params(np.zeros(3), np.eye(3, 2), 0.5), label_moments(TOY))
    with pytest.raises(SingularTotalScatter):
        gaps(_with_pencil(pop, np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0])), 1)
    # a diagonal pencil whitens to the ratios of its diagonals
    report = gaps(_with_pencil(pop, np.diag([2.0, 2.25, 0.0]), np.diag([4.0, 9.0, 1.0])), 1)
    assert report.theta == pytest.approx([0.5, 0.25, 0.0], abs=1e-15)
    assert report.kappa_St_inf == 9.0


def test_gaps_flags_a_tied_gap_r():
    pop = population_scatters(isotropic_params(np.zeros(3), np.eye(3, 2), 0.5), label_moments(TOY))
    # M_star_c = 2 Sb_inf - St_inf is diag(0, 0, -1): tied at r = 1
    assert gaps(_with_pencil(pop, np.diag([1.0, 1.0, 0.0]), np.diag([2.0, 2.0, 1.0])), 1).gap_tied
    assert not gaps(_with_pencil(pop, np.diag([2.0, 2.25, 0.0]), np.diag([4.0, 9.0, 1.0])), 1).gap_tied


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_gaps_keeps_the_one_solve_of_its_pencil(seed):
    # the report's frame is opt_stml's on (Sb_inf, St_inf), bit for bit, and
    # its kappa is that solve's first over last st_values
    pop, r = _random_population(seed, L=3, extra=2, scale=2.0, sigma=0.5)
    report = gaps(pop, r)
    frame = opt_stml(pop.Sb_inf, pop.St_inf, r)
    assert report.frame.gen_values.tobytes() == frame.gen_values.tobytes()
    assert report.frame.columns.tobytes() == frame.columns.tobytes()
    kappa = float(frame.st_values[0]) / float(frame.st_values[-1])
    assert report.frame.kappa == report.kappa_St_inf == kappa


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    L=st.integers(2, 5),
    extra=st.integers(1, 4),
    scale=st.floats(0.1, 10.0),
    sigma=st.floats(0.3, 3.0),
)
def test_gaps_theta_is_the_whitening_solve(seed, L, extra, scale, sigma):
    # scale / sigma stays within 35, so kappa(St_inf) stays far below the
    # 1e8 at which the whitening solve starts to lose St-orthogonality
    pop, r = _random_population(seed, L, extra, scale, sigma)
    d = pop.St_inf.shape[0]
    frame = opt_stml(pop.Sb_inf, pop.St_inf, r)
    kappa = float(frame.st_values[0]) / float(frame.st_values[-1])
    want = frame.gen_values
    want[(want < 0) & (want >= -max(THETA_DUST, d * np.finfo(float).eps * kappa))] = 0.0
    report = gaps(pop, r)
    assert report.theta.tobytes() == want.tobytes()
    # kappa and lambda_min are read off the whitening solve's spectrum
    assert report.kappa_St_inf == kappa
    assert report.lam_min_St_inf == float(frame.st_values[-1])
    assert report.eigvals_M_star_c.tobytes() == sym_eigvals(pop.M_star_c).tobytes()


def _random_population(seed, L, extra, scale, sigma):
    """A random population over six label patterns and a rank r in [1, d)."""
    rng = np.random.default_rng(seed)
    d = L + extra
    support = rng.integers(0, 2, size=(6, L))
    support[:L] |= np.eye(L, dtype=support.dtype)  # every label appears
    support[support.sum(axis=1) == 0, 0] = 1
    w = rng.uniform(0.1, 1.0, size=6)
    dist = label_moments(list(zip(support, w / w.sum())))
    pop = population_scatters(isotropic_params(np.zeros(d), scale * rng.standard_normal((d, L)), sigma), dist)
    return pop, int(rng.integers(1, d))


@pytest.mark.parametrize("seed", [0, 2, 3, 11])
def test_gaps_theta_floor_scales_with_kappa(seed):
    # kappa(St_inf) is 7e5 to 3e6 here, and the whitening solve leaves a
    # zero theta at -2e-12 to -3e-11: below the fixed 1e-12 floor, inside
    # d eps kappa
    pop, r = _random_population(seed, L=2, extra=1, scale=443.0, sigma=0.25)
    raw = opt_stml(pop.Sb_inf, pop.St_inf, r).gen_values
    assert raw.min() < -THETA_DUST
    report = gaps(pop, r)
    assert 5e5 <= report.kappa_St_inf <= 5e6
    assert report.theta.min() == 0.0
    assert np.array_equal(report.theta[raw >= 0], raw[raw >= 0])


def test_gaps_rejects_a_negative_theta_beyond_the_floor():
    # at kappa = 4 the floor is THETA_DUST, so a theta of -1e-6 is an error
    pop = population_scatters(isotropic_params(np.zeros(3), np.eye(3, 2), 0.5), label_moments(TOY))
    pencil = _with_pencil(pop, np.diag([2.0, -1e-6, 0.0]), np.diag([4.0, 1.0, 1.0]))
    with pytest.raises(InvariantViolation, match="theta must lie in"):
        gaps(pencil, 1)


def test_gaps_raises_whenever_the_whitening_solve_raises():
    # St_inf = S^(1/2) (I + H) S^(1/2) and Sb_inf = S^(1/2) H S^(1/2), with
    # kappa(S) from 1 to 1e13 and a small PSD H of rank 2: the whitening
    # solve loses St-orthogonality from about 1e9 on and calls St singular
    # near 1e12; gaps must raise the same error on every such pencil
    rng = np.random.default_rng(20260816)
    d = 5
    pop = population_scatters(isotropic_params(np.zeros(d), np.eye(d, 2), 0.5), label_moments(TOY))
    raised = set()
    for log_kappa in range(14):
        for _ in range(20):
            Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            root = Q * np.sqrt(np.logspace(0.0, -log_kappa, d))
            G = 0.5 * rng.standard_normal((d, 2))
            Sb = symmetrize(root @ (G @ G.T) @ root.T)
            St = symmetrize(root @ (np.eye(d) + G @ G.T) @ root.T)
            try:
                opt_stml(Sb, St, 1)
            except (InvariantViolation, SingularTotalScatter) as exc:
                raised.add(type(exc))
                with pytest.raises(type(exc)):
                    gaps(_with_pencil(pop, Sb, St), 1)
    assert raised == {InvariantViolation, SingularTotalScatter}


def test_gaps_rank_validation():
    dist = label_moments(TOY)
    pop = population_scatters(isotropic_params(np.zeros(3), np.eye(3, 2), 0.5), dist)
    with pytest.raises(InvalidInput):
        gaps(pop, 0)
    with pytest.raises(InvalidInput):
        gaps(pop, 3)  # r must leave a gap: r < d
