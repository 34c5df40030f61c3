"""Eigen-toolbox tests: oracles first, then conventions and properties."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlda import (
    Frame,
    InvalidInput,
    InvariantViolation,
    MldaError,
    RankDeficient,
    build_labels,
    label_moments,
    numeric_rank,
    orthonormalize,
    principal_angle_sin,
    sym_eig,
    sym_eigvals,
    symmetrize,
)
import mlda
from mlda import bounds
from mlda.errors import check
from mlda.spectral import _all_binary

from conftest import random_stiefel, random_symmetric


# ---------------------------------------------------------------------------
# oracle: shifted power iteration, written independently of the library
# ---------------------------------------------------------------------------


def power_iteration_spectrum(S, iters=20000, tol=1e-12):
    """All eigenvalues of a small symmetric matrix by shifted power iteration
    with deflation. Slow and simple on purpose - it shares no code path with
    numpy.linalg.eigh."""
    S = np.asarray(S, dtype=float)
    d = S.shape[0]
    # shift so the dominant eigenvalue of S + shift*I is the largest in
    # magnitude and positive
    shift = float(np.abs(S).sum()) + 1.0
    M = S + shift * np.eye(d)
    values = []
    for _ in range(d):
        v = np.ones(d) / np.sqrt(d)
        lam = 0.0
        for _ in range(iters):
            w = M @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                lam = 0.0
                break
            w /= nw
            lam_new = float(w @ M @ w)
            if abs(lam_new - lam) < tol * max(1.0, abs(lam_new)):
                lam, v = lam_new, w
                break
            lam, v = lam_new, w
        values.append(lam - shift)
        M = M - lam * np.outer(v, v)  # deflate
    return np.sort(np.array(values))[::-1]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sym_eig_matches_power_iteration_oracle(rng, d):
    for _ in range(10):
        S = random_symmetric(rng, d)
        want = power_iteration_spectrum(S)
        got = sym_eig(S).values
        assert np.allclose(got, want, atol=1e-6, rtol=1e-6)


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


def test_sym_eig_identity():
    ep = sym_eig(np.eye(3))
    assert np.array_equal(ep.values, np.ones(3))


def test_sym_eig_diagonal_sorted_descending():
    ep = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(ep.values, [3.0, 2.0, 1.0])
    # eigenvectors are the axes, sign-fixed positive
    assert np.allclose(np.abs(ep.vectors), np.eye(3)[:, [0, 2, 1]])
    assert (ep.vectors.sum(axis=0) > 0).all()


def test_sym_eig_rank_one():
    v = np.array([1.0, 2.0, -2.0])
    ep = sym_eig(np.outer(v, v))
    assert np.allclose(ep.values, [9.0, 0.0, 0.0], atol=1e-12)


def test_numeric_rank_dependent_columns():
    c1 = np.array([1.0, 0.0, 2.0, -1.0])
    c2 = np.array([0.0, 3.0, 1.0, 1.0])
    M = np.column_stack([c1, c2, c1 + c2])
    assert numeric_rank(M) == 2
    assert numeric_rank(np.zeros((3, 3))) == 0
    assert numeric_rank(np.eye(5)) == 5


def test_numeric_rank_rejects_nan_and_negative_tol():
    # a NaN cutoff compared false against every singular value and gave 0
    M = np.eye(3)
    for tol in (np.nan, -1e-12, -np.inf):
        with pytest.raises(InvalidInput):
            numeric_rank(M, tol=tol)
    assert numeric_rank(M, tol=0.0) == 3


def test_principal_angle_frozen_45_degrees():
    U = np.array([[1.0], [0.0]])
    V = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    assert principal_angle_sin(U, V) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_principal_angle_extremes():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert principal_angle_sin(e1, e1) == 0.0
    assert principal_angle_sin(e1, e2) == 1.0


# ---------------------------------------------------------------------------
# conventions and properties
# ---------------------------------------------------------------------------


def test_sym_eig_deterministic_across_calls(rng):
    S = random_symmetric(rng, 6)
    a = sym_eig(S)
    b = sym_eig(S.copy())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_sym_eig_reconstruction(rng):
    for _ in range(20):
        S = random_symmetric(rng, 8, scale=rng.uniform(0.1, 100))
        ep = sym_eig(S)
        recon = (ep.vectors * ep.values) @ ep.vectors.T
        assert np.allclose(recon, symmetrize(S), atol=1e-9 * max(1, np.abs(S).max()))
        assert (np.diff(ep.values) <= 1e-12).all()


def test_symmetrize_bitwise_symmetric(rng):
    S = rng.standard_normal((5, 5))
    out = symmetrize(S)
    assert np.array_equal(out, out.T)
    with pytest.raises(InvalidInput):
        symmetrize(rng.standard_normal((3, 4)))


def test_principal_angle_symmetry_and_range(rng):
    for _ in range(50):
        d = int(rng.integers(2, 8))
        r = int(rng.integers(1, d + 1))
        U = random_stiefel(rng, d, r)
        V = random_stiefel(rng, d, r)
        a = principal_angle_sin(U, V)
        b = principal_angle_sin(V, U)
        assert a == b
        assert 0.0 <= a <= 1.0


def test_principal_angle_zero_iff_same_span(rng):
    U = random_stiefel(rng, 7, 3)
    # same span, different basis
    Q = random_stiefel(rng, 3, 3)
    assert principal_angle_sin(U, U @ Q) < 1e-12


def test_principal_angle_keeps_precision_near_zero(rng):
    # rotate a frame by a tiny angle inside its orthogonal complement
    U = random_stiefel(rng, 10, 2)
    comp = np.linalg.svd(U, full_matrices=True)[0][:, 2:]
    eps = 1e-9
    V = orthonormalize(U + eps * comp[:, :2]).columns
    got = principal_angle_sin(U, V)
    assert got == pytest.approx(eps, rel=1e-3)


def test_principal_angle_shape_mismatch():
    with pytest.raises(InvalidInput):
        principal_angle_sin(np.eye(3)[:, :1], np.eye(3)[:, :2])


def test_interlacing_projection_never_raises_singular_values(rng):
    # compressing by an orthonormal frame cannot increase any singular value
    for _ in range(100):
        d = int(rng.integers(3, 12))
        r = int(rng.integers(1, d))
        L = int(rng.integers(1, 9))
        W = random_stiefel(rng, d, r)
        A = rng.standard_normal((d, L)) * rng.uniform(0.1, 10)
        sw = np.linalg.svd(W.T @ A, compute_uv=False)
        sa = np.linalg.svd(A, compute_uv=False)
        assert sw[0] <= sa[0] + 1e-10
        # every interlaced singular value is dominated as well
        m = min(len(sw), len(sa))
        assert (sw[:m] <= sa[:m] + 1e-10).all()


def test_orthonormalize_identity_on_orthonormal_input(rng):
    U = random_stiefel(rng, 6, 3)
    out = orthonormalize(U).columns
    assert np.allclose(out, U, atol=1e-12)


def test_orthonormalize_preserves_span(rng):
    W = rng.standard_normal((8, 3)) @ np.diag([1.0, 10.0, 0.1])
    F = orthonormalize(W)
    assert F.rank == 3
    # direct span check: W projects onto F with no residual
    resid = W - F.columns @ (F.columns.T @ W)
    assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(W)
    # a mixed basis of the same columns spans the same subspace
    mix = orthonormalize(W @ np.array([[1.0, 0, 1], [0, 1, 1], [1, 1, 0]]))
    assert principal_angle_sin(F, mix) < 1e-8


def test_orthonormalize_rank_deficient():
    W = np.ones((4, 2))
    with pytest.raises(RankDeficient):
        orthonormalize(W)


def test_frame_validation():
    with pytest.raises(InvalidInput):
        Frame(np.ones((3, 2)))
    with pytest.raises(InvalidInput):
        Frame(np.eye(3)[:, :0])
    with pytest.raises(InvalidInput):
        Frame(np.ones((2, 3)))
    F = Frame(np.eye(4)[:, :2])
    assert F.ambient_dim == 4 and F.rank == 2


def test_eigenpair_top_validates():
    ep = sym_eig(np.diag([2.0, 1.0]))
    with pytest.raises(InvalidInput):
        ep.top(3)
    assert ep.top(1).columns.shape == (2, 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2 ** 32 - 1))
def test_property_eigendecomposition(d, seed):
    g = np.random.default_rng(seed)
    S = random_symmetric(g, d)
    ep = sym_eig(S)
    # descending order, orthonormal vectors, trace preserved
    assert (np.diff(ep.values) <= 1e-12).all()
    assert np.allclose(ep.vectors.T @ ep.vectors, np.eye(d), atol=1e-10)
    assert np.trace(S) == pytest.approx(ep.values.sum(), abs=1e-9 * max(1, abs(np.trace(S))))


# ---------------------------------------------------------------------------
# values-only route
# ---------------------------------------------------------------------------


def _values_only_cases(rng):
    v = rng.standard_normal(7)
    return {
        "random": random_symmetric(rng, 9, scale=30.0),
        "rank-one": np.outer(v, v),
        "indefinite": np.diag([5.0, -3.0, 0.0, 1e-9, -7.5]) + 1e-3 * random_symmetric(rng, 5),
        "non-symmetric input": rng.standard_normal((6, 6)),
    }


def test_sym_eigvals_matches_sym_eig(rng):
    for name, S in _values_only_cases(rng).items():
        vals = sym_eigvals(S)
        want = sym_eig(S).values
        tol = 1e-12 * np.linalg.norm(symmetrize(S))
        assert np.abs(vals - want).max() <= tol, name
        assert (np.diff(vals) <= 0).all(), name


def test_sym_eigvals_validates_input():
    S = np.eye(3)
    S[1, 2] = np.nan
    with pytest.raises(InvalidInput):
        sym_eigvals(S)
    with pytest.raises(InvalidInput):
        sym_eigvals(np.ones((2, 3)))


@pytest.mark.parametrize("fault", ["shift", "trace-preserving swap"])
def test_sym_eigvals_invariant_check_catches_faulty_solver(rng, monkeypatch, fault):
    S = random_symmetric(rng, 8, scale=10.0)
    delta = 1e-6 * np.linalg.norm(S)
    solve = np.linalg.eigvalsh

    def faulty(M):
        vals = solve(M).copy()
        vals[-1] += delta  # breaks the trace
        if fault == "trace-preserving swap":
            vals[0] -= delta  # restores the trace, still breaks the norm
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", faulty)
    with pytest.raises(InvariantViolation, match="eigenvalue invariant"):
        sym_eigvals(S)
    # the same fault a thousand times smaller stays inside RECON_TOL
    delta *= 1e-3
    sym_eigvals(S)


# ---------------------------------------------------------------------------
# the 0/1 pattern check against np.isin
# ---------------------------------------------------------------------------

# per dtype: the array dtype and a pool of entries, about half of them binary
_ENTRY_POOLS = {
    "int": (np.int64, st.integers(-2, 3)),
    "float": (float, st.one_of(
        st.sampled_from([0.0, 1.0, -0.0]),
        st.sampled_from([0.5, 2.0, -1.0, np.nan, np.inf]),
    )),
    "bool": (bool, st.booleans()),
    "str": (str, st.sampled_from(["0", "1", "a", ""])),
    "object": (object, st.one_of(
        st.sampled_from([0, 1, 0.0, 1.0, True]),
        st.sampled_from([0.5, np.nan, None, "0", "1", -1]),
    )),
}


@st.composite
def entry_vectors(draw):
    dtype, entries = _ENTRY_POOLS[draw(st.sampled_from(sorted(_ENTRY_POOLS)))]
    values = draw(st.lists(entries, min_size=1, max_size=6))
    y = np.empty(len(values), dtype=dtype)
    for i, v in enumerate(values):
        y[i] = v
    return y


def _rejected_as_non_binary(call):
    # a string or bytes entry, which np.isin never reads as 0 or 1, is
    # rejected by kind before the 0/1 check
    try:
        call()
    except MldaError as exc:
        return "must be 0 or 1" in str(exc) or "strings or bytes" in str(exc)
    return False


@settings(max_examples=300, deadline=None)
@given(entry_vectors())
def test_binary_check_agrees_with_isin_at_every_entry_point(y):
    binary = bool(np.isin(y, (0, 1)).all())
    assert _all_binary(y) is binary
    assert _all_binary(y[None, :]) is binary
    for call in (
        lambda: bounds._pattern(y),
        lambda: label_moments([(y, 1.0)]),
        lambda: build_labels(y[None, :]),
    ):
        assert _rejected_as_non_binary(call) is not binary


# ---------------------------------------------------------------------------
# one eigen route: only spectral.py calls a numpy eigensolver
# ---------------------------------------------------------------------------

_EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def _eigensolver_uses(source):
    """Line numbers where ``source`` names a numpy eigensolver, as an
    attribute (``np.linalg.eigh``, aliased or called or not) or an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _EIGENSOLVERS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name in _EIGENSOLVERS for a in node.names):
            lines.append(node.lineno)
    return lines


def test_eigensolver_scan_sees_every_spelling():
    for source in (
        "import numpy as np\nnp.linalg.eigvalsh(S)",
        "import numpy\nsolve = numpy.linalg.eigh",
        "from numpy.linalg import eig",
        "import numpy.linalg as la\nla.eigvals(S)",
    ):
        assert _eigensolver_uses(source), source
    assert not _eigensolver_uses("from .spectral import sym_eig, sym_eigvals\nsym_eigvals(S)")


def test_only_spectral_calls_a_numpy_eigensolver():
    package = pathlib.Path(mlda.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert package / "spectral.py" in modules and len(modules) > 5
    offenders = {
        str(path.relative_to(package)): lines
        for path in modules
        if path != package / "spectral.py"
        for lines in [_eigensolver_uses(path.read_text(encoding="utf-8"))]
        if lines
    }
    assert offenders == {}
    assert _eigensolver_uses((package / "spectral.py").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# one route per derived quantity: the harness reads spectra, norms and ranks
# off the library, and the pair bounds take nothing from the solvers
# ---------------------------------------------------------------------------

_SPECTRAL_SOLVES = _EIGENSOLVERS | {"svd", "svdvals", "matrix_rank"}


def _ord_value(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _ord_value(node.operand)
        return None if value is None else -value
    return node.value if isinstance(node, ast.Constant) else None


def _called_name(call):
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def _spectral_solve_uses(source):
    """Line numbers where ``source`` names a numpy eigensolver, SVD or
    matrix rank (as an attribute or an import), or calls ``norm`` with ord
    2 or -2, the matrix 2-norms that an SVD computes."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _SPECTRAL_SOLVES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name in _SPECTRAL_SOLVES for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and _called_name(node) == "norm":
            ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
            if any(_ord_value(o) in (2, -2) for o in ords):
                lines.append(node.lineno)
    return lines


def test_spectral_solve_scan_sees_every_spelling():
    for source in (
        "import numpy as np\nnp.linalg.svd(M, compute_uv=False)",
        "from numpy.linalg import matrix_rank",
        "import numpy as np\nnp.linalg.norm(R, 2)",
        "import numpy.linalg as la\nla.norm(R, ord=2.0)",
        "from numpy.linalg import norm\nnorm(R, -2)",
        "import numpy as np\nnp.linalg.eigvalsh(S)",
    ):
        assert _spectral_solve_uses(source), source
    for source in (
        "import numpy as np\nnp.linalg.norm(R)",
        "import numpy as np\nnp.linalg.norm(R, 'fro')",
        "import numpy as np\nnp.linalg.norm(v, ord=1)",
        "import numpy as np\nnp.linalg.qr(M)",
        "from ..spectral import sym_eigvals\nabs(sym_eigvals(R)).max()",
    ):
        assert not _spectral_solve_uses(source), source


def test_harness_calls_no_numpy_spectral_solve():
    harness = pathlib.Path(mlda.__file__).parent / "harness"
    modules = sorted(harness.glob("*.py"))
    assert harness / "experiments.py" in modules
    offenders = {
        path.name: lines
        for path in modules
        for lines in [_spectral_solve_uses(path.read_text(encoding="utf-8"))]
        if lines
    }
    assert offenders == {}


def _discriminant_imports(source):
    """Line numbers where ``source`` imports from ``discriminant`` (any
    package spelling, relative or absolute) or imports the module itself."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[-1] == "discriminant" or any(a.name == "discriminant" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
            a.name.split(".")[-1] == "discriminant" for a in node.names
        ):
            lines.append(node.lineno)
    return lines


def test_bounds_imports_nothing_from_discriminant():
    for source in (
        "from .discriminant import _theta_checked",
        "from mlda.discriminant import opt_stml",
        "from . import discriminant",
        "import mlda.discriminant",
    ):
        assert _discriminant_imports(source), source
    assert not _discriminant_imports("from .spectral import sym_eigvals\nfrom .errors import check")
    source = (pathlib.Path(mlda.__file__).parent / "bounds.py").read_text(encoding="utf-8")
    assert _discriminant_imports(source) == []


# ---------------------------------------------------------------------------
# one check route: numeric invariants raise only through errors.check
# ---------------------------------------------------------------------------

# (module, function) of the only InvariantViolation raisers: the check route
# itself, and two exemptions: a Cholesky certificate, which compares no two
# numbers, and _theta_checked, which raises the error class its caller passes
# (InvariantViolation by default)
_INVARIANT_RAISERS = [
    ("discriminant.py", "_theta_checked"),
    ("errors.py", "check"),
    ("scatter.py", "_certify_psd"),
]


def _is_invariant_violation(node):
    return getattr(node, "attr", getattr(node, "id", None)) == "InvariantViolation"


def _invariant_constructions(source):
    """(innermost enclosing function or None, line) of every call that
    constructs ``InvariantViolation`` in ``source``, by name or attribute,
    and of every function with a parameter that defaults to it."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                if any(map(_is_invariant_violation, args.defaults + args.kw_defaults)):
                    found.append((child.name, child.lineno))
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _is_invariant_violation(child.func):
                found.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_invariant_scan_sees_every_spelling():
    assert _invariant_constructions("def f(x):\n    raise InvariantViolation(x)") == [("f", 2)]
    assert _invariant_constructions(
        "from mlda import errors\nclass C:\n    def g(self):\n        def h():\n"
        "            return errors.InvariantViolation('x')\n"
    ) == [("h", 5)]
    assert _invariant_constructions("exc = InvariantViolation('x')") == [(None, 1)]
    assert _invariant_constructions(
        "def f(x, error=InvariantViolation):\n    raise error(x)"
    ) == [("f", 1)]
    assert _invariant_constructions("def f(*, e=errors.InvariantViolation):\n    pass") == [("f", 1)]
    assert not _invariant_constructions("def f(x):\n    check('x', x, 0.0)")
    assert not _invariant_constructions("try:\n    f()\nexcept InvariantViolation:\n    pass")


def test_only_check_and_two_exemptions_construct_invariant_violation():
    package = pathlib.Path(mlda.__file__).parent
    found = sorted(
        (path.relative_to(package).as_posix(), func)
        for path in package.rglob("*.py")
        for func, _ in _invariant_constructions(path.read_text(encoding="utf-8"))
    )
    assert found == _INVARIANT_RAISERS


def test_check_passes_at_its_limit_and_fails_above_it_or_on_nan():
    check("defect", 1e-8, 1e-8)
    check("defect", -np.inf, 0.0)
    above = float(np.nextafter(1e-8, 1.0))
    with pytest.raises(InvariantViolation) as info:
        check("defect", above, 1e-8)
    assert str(info.value) == f"defect: {above!r} is not <= 1e-08"
    for value, limit in ((np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)):
        with pytest.raises(InvariantViolation, match="defect: .*nan"):
            check("defect", value, limit)
