"""Generator tests: determinism, scheme statistics, exact noiseless output,
and the frozen pair-product encoding."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlda import (
    InvalidInput,
    InvalidScheme,
    LabelScheme,
    ModelParams,
    Seed,
    gen_data,
    gen_labels,
    isotropic_params,
    noise_differences,
    pair_products,
    pair_products_matrix,
    scheme_distribution,
    signal_rows,
)
from mlda.spectral import sym_eig

VAR = LabelScheme.variable(((1, 0.6), (2, 0.3), (3, 0.1)))


# ---------------------------------------------------------------------------
# determinism of the seeded streams
# ---------------------------------------------------------------------------


def test_streams_reproducible_and_independent():
    seed = Seed(42)
    a1 = seed.stream("alpha", 3, "labels").standard_normal(8)
    a2 = Seed(42).stream("alpha", 3, "labels").standard_normal(8)
    assert np.array_equal(a1, a2)  # bitwise
    b = seed.stream("alpha", 3, "noise").standard_normal(8)
    c = seed.stream("alpha", 4, "labels").standard_normal(8)
    d = seed.stream("beta", 3, "labels").standard_normal(8)
    for other in (b, c, d):
        assert not np.array_equal(a1, other)


def test_stream_order_does_not_matter():
    s = Seed(7)
    first = s.stream("x", 0, "a").integers(0, 1 << 30, 4)
    second = s.stream("x", 1, "a").integers(0, 1 << 30, 4)
    t = Seed(7)
    second_again = t.stream("x", 1, "a").integers(0, 1 << 30, 4)
    first_again = t.stream("x", 0, "a").integers(0, 1 << 30, 4)
    assert np.array_equal(first, first_again)
    assert np.array_equal(second, second_again)


def test_seed_validation():
    with pytest.raises(InvalidInput):
        Seed(-1)
    with pytest.raises(InvalidInput):
        Seed(1 << 64)
    with pytest.raises(InvalidInput):
        Seed(9).stream("x", -2, "a")


def test_gen_labels_deterministic():
    y1 = gen_labels(VAR, 50, 4, Seed(1).stream("e", 0, "labels"))
    y2 = gen_labels(VAR, 50, 4, Seed(1).stream("e", 0, "labels"))
    assert np.array_equal(y1.bits, y2.bits)


# ---------------------------------------------------------------------------
# label scheme statistics
# ---------------------------------------------------------------------------


def test_scheme_validation():
    with pytest.raises(InvalidScheme):
        LabelScheme.variable(((1, 0.5), (2, 0.4)))  # fractions sum to 0.9
    with pytest.raises(InvalidScheme):
        LabelScheme.variable(((0, 1.0),))
    with pytest.raises(InvalidScheme):
        LabelScheme.uniform(0)
    assert LabelScheme.single().max_cardinality() == 1
    assert VAR.max_cardinality() == 3


@pytest.mark.parametrize(
    "make",
    [
        lambda: LabelScheme.variable(((1, float("nan")),)),  # NaN passes abs(total - 1) > tol
        lambda: LabelScheme.variable(((1, 0.5), (2, float("inf")))),
        lambda: LabelScheme.variable(((2.5, 1.0),)),  # was truncated to 2
        lambda: LabelScheme.variable(((True, 1.0),)),
        lambda: LabelScheme.variable(((1, True),)),
        lambda: LabelScheme.variable(((1, 0.5, 3),)),
        lambda: LabelScheme.variable(5),
        lambda: LabelScheme.uniform(1.5),  # was truncated to 1
        lambda: LabelScheme.uniform(True),
    ],
)
def test_scheme_rejects_non_integer_cardinality_and_non_finite_fraction(make):
    with pytest.raises(InvalidScheme):
        make()


def test_scheme_keeps_integer_and_float_values():
    assert LabelScheme.uniform(np.int64(3)).k == 3
    assert LabelScheme.variable(((np.int64(1), 1),)).mix == ((1, 1.0),)
    assert type(LabelScheme.variable(((np.int64(1), 1),)).mix[0][0]) is int


def test_cardinality_fractions_converge():
    rng = Seed(3).stream("mix", 0, "labels")
    labels = gen_labels(VAR, 100_000, 8, rng)
    k = labels.k
    for card, frac in ((1, 0.6), (2, 0.3), (3, 0.1)):
        assert abs((k == card).mean() - frac) < 0.01
    assert set(np.unique(k)) <= {1, 2, 3}


def test_every_label_present_even_at_minimum_size():
    for trial in range(50):
        rng = Seed(trial).stream("small", 0, "labels")
        labels = gen_labels(VAR, 6, 6, rng)
        assert (labels.n_ell > 0).all()
        assert (labels.k >= 1).all() and (labels.k <= 3).all()
    with pytest.raises(InvalidInput):
        gen_labels(VAR, 5, 6, Seed(0).stream("small", 0, "labels"))


def test_uniform_scheme_respects_cardinality():
    labels = gen_labels(LabelScheme.uniform(2), 200, 5, Seed(4).stream("u", 0, "l"))
    assert (labels.k == 2).all()
    assert (labels.n_ell > 0).all()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=60),
    L=st.integers(min_value=2, max_value=6),
    base=st.integers(min_value=0, max_value=2**32),
)
def test_gen_labels_always_valid(n, L, base):
    scheme = LabelScheme.variable(((1, 0.5), (2, 0.5)))
    labels = gen_labels(scheme, max(n, L), L, Seed(base).stream("h", 0, "l"))
    assert labels.bits.shape == (max(n, L), L)
    assert (labels.k >= 1).all() and (labels.k <= 2).all()
    assert (labels.n_ell > 0).all()


# ---------------------------------------------------------------------------
# exact feature generation
# ---------------------------------------------------------------------------


def test_noiseless_output_is_exact():
    labels = gen_labels(VAR, 30, 4, Seed(6).stream("g", 0, "l"))
    A = np.arange(20.0).reshape(5, 4)
    mu = np.array([1.0, -2.0, 3.0, 0.0, 0.5])
    params = ModelParams(mu, A, Sigma_w=np.zeros((5, 5)))
    ds = gen_data(labels, params, Seed(6).stream("g", 0, "noise"))
    expected = mu + labels.bits @ A.T
    assert np.array_equal(ds.X, expected)


def test_linear_model_mean_converges():
    labels = gen_labels(VAR, 40_000, 3, Seed(8).stream("m", 0, "l"))
    A = np.array([[2.0, -1.0, 0.5], [0.0, 1.0, 1.0]])
    params = isotropic_params(np.array([1.0, -1.0]), A, 1.0)
    ds = gen_data(labels, params, Seed(8).stream("m", 0, "noise"))
    target = params.mu + labels.bits.mean(axis=0) @ A.T
    se = 1.0 / np.sqrt(labels.n)
    assert np.abs(ds.X.mean(axis=0) - target).max() < 5 * se


def test_alpha_zero_bit_identical_to_plain_model():
    labels = gen_labels(VAR, 25, 4, Seed(10).stream("a", 0, "l"))
    A = np.ones((3, 4))
    B = np.full((3, 6), 2.0)
    with_b = ModelParams(np.zeros(3), A, Sigma_w=0.25 * np.eye(3), B_inter=B)
    without = ModelParams(np.zeros(3), A, Sigma_w=0.25 * np.eye(3))
    x1 = gen_data(labels, with_b, Seed(10).stream("a", 0, "n"), alpha=0.0)
    x2 = gen_data(labels, without, Seed(10).stream("a", 0, "n"), alpha=0.0)
    assert np.array_equal(x1.X, x2.X)
    with pytest.raises(InvalidInput):
        gen_data(labels, without, Seed(10).stream("a", 0, "n"), alpha=0.5)


def _covariance_factor(Sigma_w):
    """Symmetric PSD square root through ``sym_eig``: the full-matrix oracle
    for the factor ``ModelParams`` carries."""
    ep = sym_eig(Sigma_w)
    return (ep.vectors * np.sqrt(np.clip(ep.values, 0.0, None))) @ ep.vectors.T


@pytest.mark.parametrize("noise", ["gaussian", "rademacher"])
def test_diagonal_covariance_draw_bit_identical_to_factor(noise):
    labels = gen_labels(VAR, 60, 4, Seed(13).stream("dg", 0, "l"))
    A = Seed(13).stream("dg", 0, "a").standard_normal((7, 4))
    mu = np.linspace(-1.0, 2.0, 7)
    for Sigma_w in (
        np.diag([2.5, 0.0, 1e-6, 3.0, 0.0, 1e6, 0.3]),
        0.49 * np.eye(7),
        np.zeros((7, 7)),
    ):
        params = ModelParams(mu, A, Sigma_w=Sigma_w)
        ds = gen_data(labels, params, Seed(13).stream("dg", 0, "n"), noise=noise)
        rng = Seed(13).stream("dg", 0, "n")
        if noise == "gaussian":
            G = rng.standard_normal((60, 7))
        else:
            G = rng.integers(0, 2, size=(60, 7)).astype(float) * 2.0 - 1.0
        X = mu + labels.bits.astype(float) @ A.T
        expected = X + G @ _covariance_factor(params.Sigma_w).T
        assert ds.X.tobytes() == expected.tobytes()


def test_non_diagonal_covariance_goes_through_factor(monkeypatch):
    from mlda import population

    calls = []
    solve = population.sym_eig

    def spy(S):
        calls.append(S)
        return solve(S)

    monkeypatch.setattr(population, "sym_eig", spy)
    labels = gen_labels(VAR, 40, 3, Seed(14).stream("nd", 0, "l"))
    A = np.ones((3, 3))
    Sigma_w = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.0], [0.0, 0.0, 0.5]])
    params = ModelParams(np.zeros(3), A, Sigma_w)
    assert len(calls) == 1  # one solve per model
    ds = gen_data(labels, params, Seed(14).stream("nd", 0, "n"))
    assert len(calls) == 1  # and none per draw
    G = Seed(14).stream("nd", 0, "n").standard_normal((40, 3))
    expected = labels.bits.astype(float) @ A.T + G @ _covariance_factor(Sigma_w).T
    assert ds.X.tobytes() == expected.tobytes()
    gen_data(labels, isotropic_params(np.zeros(3), A, 0.5), Seed(14).stream("nd", 0, "n"))
    assert len(calls) == 1  # a diagonal covariance is never solved


@pytest.mark.parametrize("sigma", [0.5, 0.7, 1 / 3, 1e-3])
def test_isotropic_draw_is_scaled_noise_plus_signal(sigma):
    # sqrt(fl(sigma^2)) = sigma, so the isotropic route is sigma * G + A y
    # bit for bit, as the trial loops drew their rows by hand before
    labels = gen_labels(VAR, 80, 4, Seed(15).stream("iso", 0, "l"))
    A = Seed(15).stream("iso", 0, "a").standard_normal((6, 4))
    ds = gen_data(labels, isotropic_params(np.zeros(6), A, sigma), Seed(15).stream("iso", 0, "n"))
    X = Seed(15).stream("iso", 0, "n").standard_normal((80, 6))
    X *= sigma
    X += labels.bits.astype(float) @ A.T
    assert ds.X.tobytes() == X.tobytes()


def test_interaction_term_enters_linearly():
    labels = gen_labels(LabelScheme.uniform(2), 20, 4, Seed(11).stream("i", 0, "l"))
    A = np.zeros((3, 4))
    B = np.arange(18.0).reshape(3, 6)
    params = ModelParams(np.zeros(3), A, Sigma_w=np.zeros((3, 3)), B_inter=B)
    ds = gen_data(labels, params, Seed(11).stream("i", 0, "n"), alpha=2.0)
    Z = pair_products_matrix(labels.bits)
    assert np.allclose(ds.X, 2.0 * Z @ B.T, atol=1e-14)


def test_rademacher_noise_is_bounded():
    labels = gen_labels(LabelScheme.single(), 500, 3, Seed(12).stream("r", 0, "l"))
    params = isotropic_params(np.zeros(2), np.zeros((2, 3)), 0.7, B_inter=None)
    ds = gen_data(labels, params, Seed(12).stream("r", 0, "n"), noise="rademacher")
    assert np.allclose(np.abs(ds.X), 0.7, atol=1e-12)
    mean = np.abs(ds.X.mean(axis=0)).max()
    assert mean < 5 * 0.7 / np.sqrt(500)
    with pytest.raises(InvalidInput):
        gen_data(labels, params, Seed(12).stream("r", 0, "n"), noise="uniform")


# ---------------------------------------------------------------------------
# signal rows and noise differences: the one route from a model to its draws
# ---------------------------------------------------------------------------


def _old_gen_data_signal(labels, params, alpha):
    """The signal that ``gen_data`` formed inline before ``signal_rows``."""
    Y = labels.bits.astype(float)
    X = Y @ params.A.T
    X += params.mu
    if alpha != 0.0:
        X += alpha * (pair_products_matrix(Y) @ params.B_inter.T)
    return X


@pytest.mark.parametrize("noise", ["gaussian", "rademacher"])
@pytest.mark.parametrize("alpha", [0.0, 0.8])
def test_signal_rows_plus_noise_rows_reproduce_gen_data(noise, alpha):
    labels = gen_labels(VAR, 70, 4, Seed(16).stream("sr", 0, "l"))
    A = Seed(16).stream("sr", 0, "a").standard_normal((5, 4))
    B = Seed(16).stream("sr", 0, "b").standard_normal((5, 6))
    mu = np.linspace(-1.0, 1.0, 5)
    dense = np.array(
        [[1.0, 0.3, 0.0, 0.0, 0.1], [0.3, 2.0, 0.0, 0.2, 0.0], [0.0, 0.0, 0.5, 0.0, 0.0],
         [0.0, 0.2, 0.0, 1.5, 0.0], [0.1, 0.0, 0.0, 0.0, 0.8]]
    )
    for Sigma_w in (np.full(5, 0.49), dense):
        params = ModelParams(mu, A, Sigma_w, B_inter=B)
        rows = signal_rows(labels, params, alpha)
        assert rows.tobytes() == _old_gen_data_signal(labels, params, alpha).tobytes()
        rng = Seed(16).stream("sr", 0, "n")
        if noise == "gaussian":
            G = rng.standard_normal((70, 5))
        else:
            G = rng.integers(0, 2, size=(70, 5)).astype(float) * 2.0 - 1.0
        F = params.noise_factor
        rows += G * F if F.ndim == 1 else G @ F.T
        ds = gen_data(labels, params, Seed(16).stream("sr", 0, "n"), alpha=alpha, noise=noise)
        assert ds.X.tobytes() == rows.tobytes()


def test_signal_rows_checks_the_model_against_the_labels():
    labels = gen_labels(VAR, 20, 4, Seed(17).stream("sr", 0, "l"))
    with pytest.raises(InvalidInput, match="label columns"):
        signal_rows(labels, isotropic_params(np.zeros(3), np.ones((3, 5)), 1.0))
    with pytest.raises(InvalidInput, match="B_inter"):
        signal_rows(labels, isotropic_params(np.zeros(3), np.ones((3, 4)), 1.0), alpha=0.5)


def _concentration_draws(rng, sigma_w, m, d):
    """The concentration experiment's former inline draws: every e_i scaled
    in place, then the e_j in scaled blocks of 1000 rows subtracted from them."""
    E = rng.standard_normal((m, d))
    E *= sigma_w
    for a in range(0, m, 1000):
        block = rng.standard_normal((min(1000, m - a), d))
        block *= sigma_w
        E[a : a + block.shape[0]] -= block
    return E


def _distance_draws(rng, sigma_w, m, d):
    """The distance experiments' former inline draws: both draws in one
    (2, m, d) call, scaled together, then differenced."""
    E = rng.standard_normal((2, m, d))
    E *= sigma_w
    return E[0] - E[1]


@pytest.mark.parametrize("m", [1, 999, 1000, 1001, 2500])
@pytest.mark.parametrize("sigma_w", [1.0, 0.5, 0.7, 1 / 3, 1e-3, 3.0, 1e-30])
def test_noise_differences_match_the_former_inline_draws(m, sigma_w):
    d = 3
    params = isotropic_params(np.zeros(d), np.ones((d, 2)), sigma_w)
    out = np.empty((m, d))
    assert noise_differences(params, Seed(18).stream("nd", m, "draws"), out) is out
    for oracle in (_concentration_draws, _distance_draws):
        assert out.tobytes() == oracle(Seed(18).stream("nd", m, "draws"), sigma_w, m, d).tobytes()


@pytest.mark.parametrize("m", [1, 1001, 2500])
def test_noise_differences_colour_a_dense_covariance(m):
    Sigma_w = np.array([[1.0, 0.4, 0.1], [0.4, 2.0, -0.3], [0.1, -0.3, 0.7]])
    params = ModelParams(np.zeros(3), np.ones((3, 2)), Sigma_w)
    out = noise_differences(params, Seed(19).stream("nd", m, "draws"), np.empty((m, 3)))
    rng = Seed(19).stream("nd", m, "draws")
    e_i, e_j = rng.standard_normal((m, 3)), rng.standard_normal((m, 3))
    F = _covariance_factor(Sigma_w)
    np.testing.assert_allclose(out, (e_i - e_j) @ F.T, rtol=1e-12, atol=1e-12)


def test_noise_differences_fill_the_buffer_they_are_given():
    # a call allocates one block of the second draw, not a second (m, d)
    # array; colouring by the (d,) factor in place adds numpy's fixed 64 KiB
    # iteration buffer
    from tests.conftest import peak_bytes

    m, d = 20000, 8
    params = isotropic_params(np.zeros(d), np.ones((d, 2)), 0.5)
    out, rng = np.empty((m, d)), Seed(20).stream("nd", 0, "draws")
    assert peak_bytes(lambda: noise_differences(params, rng, out)) < 8 * 1000 * d + 2 ** 17 < out.nbytes


@pytest.mark.parametrize(
    "out",
    [
        None,
        [[0.0, 0.0, 0.0]],
        np.empty((4, 2)),
        np.empty(3),
        np.empty((2, 4, 3)),
        np.empty((4, 3), dtype=np.float32),
        np.empty((4, 3), dtype=complex),
        np.empty((4, 3), order="F"),
        np.empty((8, 3))[::2],
        np.broadcast_to(np.zeros(3), (4, 3)),
    ],
    ids=["None", "list", "wrong d", "1-d", "3-d", "float32", "complex", "F-order", "strided", "read-only"],
)
def test_noise_differences_reject_a_bad_buffer(out):
    params = isotropic_params(np.zeros(3), np.ones((3, 2)), 0.5)
    with pytest.raises(InvalidInput, match="out must be"):
        noise_differences(params, Seed(21).stream("nd", 0, "draws"), out)


# ---------------------------------------------------------------------------
# pair products
# ---------------------------------------------------------------------------


def test_pair_products_frozen():
    assert np.array_equal(pair_products(np.array([1, 0, 1])), [0, 1, 0])
    assert np.array_equal(pair_products(np.array([1, 1, 1])), [1, 1, 1])
    assert np.array_equal(pair_products(np.array([0, 1, 0, 1])), [0, 0, 0, 0, 1, 0])
    Y = np.array([[1, 1, 0], [0, 1, 1]])
    assert np.array_equal(pair_products_matrix(Y), [[1, 0, 0], [0, 0, 1]])
    with pytest.raises(InvalidInput):
        pair_products(Y)


def _pair_products_oracle(y):
    """One pattern's pair products, one scalar product per pair."""
    L = y.shape[0]
    return np.array([y[i] * y[j] for i, j in combinations(range(L), 2)], dtype=y.dtype)


def _pair_products_matrix_oracle(Y):
    """A label matrix's pair products, one column product per pair."""
    pairs = list(combinations(range(Y.shape[1]), 2))
    if not pairs:
        return np.zeros((Y.shape[0], 0), dtype=Y.dtype)
    return np.stack([Y[:, i] * Y[:, j] for i, j in pairs], axis=1)


_PAIR_DTYPES = st.sampled_from([np.int64, np.int32, np.int8, np.uint8, np.bool_, np.float64, np.float32])


@settings(max_examples=200, deadline=None)
@given(dtype=_PAIR_DTYPES, L=st.integers(0, 8), n=st.integers(1, 6), data=st.data())
def test_pair_products_match_the_scalar_and_column_oracles(dtype, L, n, data):
    # 11 * 11 fits int8, so no product overflows
    values = st.integers(0, 1) if dtype is np.bool_ else st.integers(0, 11)
    Y = np.array(data.draw(st.lists(st.lists(values, min_size=L, max_size=L), min_size=n, max_size=n)),
                 dtype=dtype).reshape(n, L)
    Z = pair_products_matrix(Y)
    Z_old = _pair_products_matrix_oracle(Y)
    assert np.array_equal(Z, Z_old) and Z.dtype == Z_old.dtype and Z.shape == Z_old.shape
    assert Z.flags["C_CONTIGUOUS"]
    for y in Y:
        z, z_old = pair_products(y), _pair_products_oracle(y)
        assert np.array_equal(z, z_old) and z.dtype == z_old.dtype and z.shape == z_old.shape == (L * (L - 1) // 2,)


def test_pair_difference_norm_bound():
    rng = np.random.default_rng(13)
    L = 5
    cap = min(3, L) - 1  # max cardinality 3 in this draw
    for _ in range(2000):
        yi = np.zeros(L, dtype=int)
        yj = np.zeros(L, dtype=int)
        yi[rng.choice(L, size=rng.integers(1, 4), replace=False)] = 1
        yj[rng.choice(L, size=rng.integers(1, 4), replace=False)] = 1
        dz = pair_products(yi) - pair_products(yj)
        d_h = int(np.abs(yi - yj).sum())
        bound = np.sqrt(d_h * min(cap, L - 1))
        assert np.linalg.norm(dz) <= bound + 1e-12


# ---------------------------------------------------------------------------
# exact scheme distribution
# ---------------------------------------------------------------------------


def test_scheme_distribution_exact():
    dist = scheme_distribution(LabelScheme.variable(((1, 0.6), (2, 0.4))), 3)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-15)
    # three singletons at 0.2 each, three pairs at 0.4/3 each
    cards = dist.patterns.sum(axis=1)
    assert np.allclose(dist.probs[cards == 1], 0.2, atol=1e-15)
    assert np.allclose(dist.probs[cards == 2], 0.4 / 3.0, atol=1e-15)
    assert np.allclose(dist.pi, 7.0 / 15.0, atol=1e-14)


def test_scheme_distribution_single():
    dist = scheme_distribution(LabelScheme.single(), 4)
    assert dist.is_single_label()
    assert np.allclose(dist.pi, 0.25, atol=1e-15)


def test_scheme_distribution_card_exceeds_labels():
    with pytest.raises(InvalidScheme):
        scheme_distribution(LabelScheme.uniform(4), 3)


def test_a_cardinality_with_fraction_zero_may_exceed_L():
    # it is never drawn, so the draw and the exact distribution ignore it,
    # as the config check does; the label stream is the one a mix without it
    # would spend, since the zero fraction still takes part in the choice
    scheme = LabelScheme.variable([[1, 1.0], [9, 0.0]])
    assert scheme.max_cardinality() == 1
    labels = gen_labels(scheme, 20, 6, Seed(5).stream("z", 0, "l"))
    assert (labels.k == 1).all()
    assert scheme_distribution(scheme, 6).patterns.shape == (6, 6)
    for draw in (
        lambda: gen_labels(LabelScheme.variable([[1, 0.5], [9, 0.5]]), 20, 6, Seed(5).stream("z", 0, "l")),
        lambda: scheme_distribution(LabelScheme.variable([[1, 0.5], [9, 0.5]]), 6),
    ):
        with pytest.raises(InvalidScheme, match="scheme cardinality"):
            draw()


_CARD = st.integers(1, 6)
# variable mixes from integer weights, zero weights included: a zero-fraction
# cardinality may exceed the largest drawn one, and so L
_SCHEMES = st.one_of(
    st.just(LabelScheme.single()),
    st.just(LabelScheme(kind="single", k=5)),  # a single scheme's k is ignored
    _CARD.map(LabelScheme.uniform),
    st.lists(st.tuples(_CARD, st.integers(0, 3)), min_size=1, max_size=4)
    .filter(lambda pairs: any(w for _, w in pairs))
    .map(lambda pairs: LabelScheme.variable([(c, w / sum(w for _, w in pairs)) for c, w in pairs])),
)


@given(scheme=_SCHEMES, extra=st.integers(0, 2), base=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_drawn_is_the_law_of_the_draw_and_the_exact_distribution(scheme, extra, base):
    drawn = scheme.drawn
    assert drawn and all(f > 0 for _, f in drawn)
    assert abs(sum(f for _, f in drawn) - 1.0) <= 1e-12
    assert scheme.max_cardinality() == max(c for c, _ in drawn)
    want = {}
    for c, f in drawn:
        want[c] = want.get(c, 0.0) + f
    L = scheme.max_cardinality() + extra
    dist = scheme_distribution(scheme, L)
    cards = dist.patterns.sum(axis=1)
    got = {int(c): float(dist.probs[cards == c].sum()) for c in np.unique(cards)}
    assert got.keys() == want.keys()
    for c, f in want.items():
        assert got[c] == pytest.approx(f, rel=1e-12, abs=1e-15)
    labels = gen_labels(scheme, 3 * L, L, Seed(base).stream("drawn", 0, "labels"))
    assert set(labels.k.tolist()) <= want.keys()


def test_generated_frequencies_match_distribution():
    scheme = LabelScheme.variable(((1, 0.5), (2, 0.5)))
    dist = scheme_distribution(scheme, 3)
    labels = gen_labels(scheme, 60_000, 3, Seed(14).stream("f", 0, "l"))
    keys = {tuple(p): q for p, q in zip(dist.patterns, dist.probs)}
    rows, counts = np.unique(labels.bits, axis=0, return_counts=True)
    for row, cnt in zip(rows, counts):
        assert abs(cnt / labels.n - keys[tuple(row)]) < 0.01
