"""Population-model tests.

Three independent oracles back the frozen expectations:
* a fully hand-computed two-label pattern distribution,
* Monte Carlo moments of the generative model x = mu + A y + eps,
* characteristic-polynomial roots for the generalized eigenvalues.
"""

import numpy as np
import pytest

from mlda import (
    InvalidCovariance,
    InvalidInput,
    MissingLabel,
    ModelParams,
    SingularTotalScatter,
    build_labels,
    gamma_norm,
    gaps,
    isotropic_params,
    label_moments,
    model_from_dict,
    patterns_from_dict,
    population_scatters,
)
from mlda.population import whiten_inverse_sqrt

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


def test_patterns_from_dict_matches_list_route():
    dist_a = label_moments(TOY)
    dist_b = patterns_from_dict({"10": 0.4, "01": 0.4, "11": 0.2})
    assert np.allclose(dist_a.pi, dist_b.pi, atol=1e-15)
    assert np.allclose(dist_a.C, dist_b.C, atol=1e-15)


def test_duplicate_patterns_merge():
    merged = label_moments([([1, 0], 0.2), ([1, 0], 0.2), ([0, 1], 0.6)])
    plain = label_moments([([1, 0], 0.4), ([0, 1], 0.6)])
    assert np.allclose(merged.probs, plain.probs)
    assert np.array_equal(merged.patterns, plain.patterns)


def test_model_from_dict():
    spec = {"mu": [0.0, 0.0], "A": [[1.0, 0.0], [0.0, 2.0]], "sigma_w": 0.3}
    params = model_from_dict(spec)
    assert np.allclose(params.Sigma_w, 0.09 * np.eye(2), atol=1e-15)
    full = model_from_dict(
        {"mu": [0.0, 0.0], "A": [[1.0, 0.0], [0.0, 2.0]], "Sigma_w": [[0.1, 0.0], [0.0, 0.2]]}
    )
    assert np.allclose(full.Sigma_w, np.diag([0.1, 0.2]), atol=1e-15)


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


def test_model_diagonal_covariance_skips_eigvalsh(monkeypatch):
    # a diagonal Sigma_w reads its spectrum off the diagonal; the PSD check
    # and the default sigma must match what the full eigvalsh route gives
    rng = np.random.default_rng(5)
    cases = [np.diag(rng.uniform(0.0, 1.0, 7) * 10.0 ** rng.integers(-6, 7, 7)),
             np.diag([0.0, 2.5, 0.0]), 0.49 * np.eye(4), np.zeros((3, 3))]
    expected = [ModelParams(np.zeros(S.shape[0]), np.ones((S.shape[0], 2)), S).sigma for S in cases]

    def forbidden(S):
        raise AssertionError("eigvalsh called on a diagonal covariance")

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    for S, sigma in zip(cases, expected):
        params = ModelParams(np.zeros(S.shape[0]), np.ones((S.shape[0], 2)), S)
        assert params.sigma == sigma == float(np.sqrt(eigvalsh(S).max()))
    assert isotropic_params(np.zeros(5), np.ones((5, 2)), 0.7).sigma == float(np.sqrt(0.7 ** 2))
    with pytest.raises(InvalidCovariance):
        ModelParams(np.zeros(2), np.eye(2), Sigma_w=np.diag([1.0, -1e-3]))

    # a non-diagonal covariance still goes through eigvalsh and still rejects
    # a negative eigenvalue that no diagonal entry shows
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda S: calls.append(S) or eigvalsh(S))
    with pytest.raises(InvalidCovariance):
        ModelParams(np.zeros(2), np.eye(2), Sigma_w=np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert len(calls) == 1
    params = ModelParams(np.zeros(2), np.eye(2), Sigma_w=np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert len(calls) == 2 and params.sigma == pytest.approx(np.sqrt(3.0), rel=1e-15)


def test_whiten_inverse_sqrt_errors():
    with pytest.raises(SingularTotalScatter):
        whiten_inverse_sqrt(np.diag([1.0, 0.0]))
    T = whiten_inverse_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(T, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)


def test_gaps_rank_validation():
    dist = label_moments(TOY)
    pop = population_scatters(isotropic_params(np.zeros(3), np.eye(3, 2), 0.5), dist)
    with pytest.raises(InvalidInput):
        gaps(pop, 0)
    with pytest.raises(InvalidInput):
        gaps(pop, 3)  # r must leave a gap: r < d
