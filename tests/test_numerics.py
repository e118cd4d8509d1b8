import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import scipy
from scipy.linalg import cho_factor, cho_solve, lapack

from embedprop import numerics
from embedprop.classify import label_propagation_scores
from embedprop.diagnostics import compactness_metrics
from embedprop.episodes import EmbeddingSet, confidence_interval95
from embedprop.errors import (
    DimensionMismatch,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
)
from embedprop.graph import GraphConfig
from embedprop.numerics import (
    SYMMETRY_RTOL,
    as_index,
    as_matrix,
    as_square,
    solve_spd,
    symmetry_defect,
)


def test_identity_solve_returns_rhs():
    b = np.arange(6, dtype=float).reshape(3, 2)
    x = solve_spd(np.eye(3), b)
    np.testing.assert_allclose(x, b, rtol=0, atol=1e-14)


def test_diagonal_inverse():
    x = solve_spd(np.diag([2.0, 4.0]), np.eye(2))
    np.testing.assert_allclose(x, np.diag([0.5, 0.25]), rtol=0, atol=1e-15)


def test_hand_solved_2x2():
    # [[1,-0.5],[-0.5,1]] has inverse (1/0.75)*[[1,0.5],[0.5,1]]
    m = np.array([[1.0, -0.5], [-0.5, 1.0]])
    x = solve_spd(m, np.eye(2))
    expected = np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])
    np.testing.assert_allclose(x, expected, rtol=0, atol=1e-14)


def test_rejects_asymmetric():
    m = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        solve_spd(m, np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 400])
def test_symmetry_defect_matches_dense_formula(n):
    # 400 rows take two row blocks
    m = np.random.default_rng(n).normal(size=(n, n))
    assert symmetry_defect(m) == np.abs(m - m.T).max()
    m[n - 1, 0] = np.nan
    assert np.isnan(symmetry_defect(m))


def test_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        solve_spd(-np.eye(3), np.eye(3))
    # positive semidefinite but singular
    with pytest.raises(NotPositiveDefinite):
        solve_spd(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))


def test_not_positive_definite_names_the_failed_minor():
    # eigenvalues 1 -+ 1.5: the first pivot is 1, the second 1 - 2.25
    message = r"^M is not positive definite: leading minor 2 of 2$"
    with pytest.raises(NotPositiveDefinite, match=message):
        solve_spd([[1.0, -1.5], [-1.5, 1.0]], np.ones(2))


def test_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_spd(np.eye(3), np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        solve_spd(np.ones((2, 3)), np.ones(2))


@pytest.mark.parametrize("columns", [2, 9])
def test_nearly_symmetric_m_is_solved_by_its_upper_triangle(columns):
    # an M within SYMMETRY_RTOL of symmetric passes the check, and LAPACK reads
    # its upper triangle: the solve is that of the upper triangle mirrored
    rng = np.random.default_rng(11)
    g = rng.normal(size=(6, 6))
    m = g.T @ g + np.eye(6)
    m[4, 1] += SYMMETRY_RTOL * np.abs(m).max() / 2
    assert 0 < symmetry_defect(m) <= SYMMETRY_RTOL * (1 + np.abs(m).max())
    b = rng.normal(size=(6, columns))
    upper = np.triu(m) + np.triu(m, 1).T
    lower = np.tril(m) + np.tril(m, -1).T
    x = solve_spd(m, b)
    assert x.tobytes() == solve_spd(upper, b).tobytes()
    assert x.tobytes() != solve_spd(lower, b).tobytes()


def test_deterministic():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(6, 6))
    m = g.T @ g + np.eye(6)
    b = rng.normal(size=(6, 3))
    x1 = solve_spd(m, b)
    x2 = solve_spd(m.copy(), b.copy())
    assert (x1 == x2).all()


@given(
    g=arrays(np.float64, (5, 5), elements=st.floats(-2, 2)),
    b=arrays(np.float64, (5, 2), elements=st.floats(-10, 10)),
)
def test_residual_bound_random_spd(g, b):
    # G^T G + I is SPD for any G
    m = g.T @ g + np.eye(5)
    x = solve_spd(m, b)
    residual = np.abs(m @ x - b).max()
    assert residual <= 1e-8 * (1.0 + np.abs(b).max())


@given(g=arrays(np.float64, (6, 6), elements=st.floats(-3, 3)))
def test_inverse_of_symmetric_is_symmetric(g):
    m = g.T @ g + np.eye(6)
    inv = solve_spd(m, np.eye(6))
    assert np.abs(inv - inv.T).max() <= 1e-8


@pytest.mark.parametrize("size", [1, 2, 4, 8])
def test_residual_bound_sizes(size):
    rng = np.random.default_rng(size)
    g = rng.normal(size=(size, size))
    m = g.T @ g + np.eye(size)
    b = rng.normal(size=(size, size + 1))
    x = solve_spd(m, b)
    assert np.abs(m @ x - b).max() <= 1e-8 * (1.0 + np.abs(b).max())


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    log_cond=st.floats(0, 8),
    extra=st.integers(1, 60),
)
def test_wide_rhs_matches_dense_solve_property(seed, n, log_cond, extra):
    # past n columns B is multiplied by the formed inverse; like np.linalg.solve
    # it is backward stable, so the two agree to a few eps * cond(M) (worst seen:
    # 2.8 eps * cond over 1500 draws with n <= 40, cond <= 1e8)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = (q * np.logspace(0, log_cond, n)) @ q.T
    m = (m + m.T) / 2
    b = rng.normal(size=(n, n + extra))
    x = solve_spd(m, b)
    ref = np.linalg.solve(m, b)
    bound = 16 * np.finfo(np.float64).eps * np.linalg.cond(m) * np.abs(ref).max()
    assert np.abs(x - ref).max() <= bound


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(2,), (2, 3)])
def test_rejects_non_finite_rhs(bad, shape):
    # without the check a NaN spreads to every entry and an Inf gives rows of Inf
    b = np.ones(shape)
    b.flat[0] = bad
    with pytest.raises(NonFiniteInput, match="B contains NaN or Inf"):
        solve_spd(np.eye(2), b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cells", [[(0, 1), (1, 0)], [(1, 1)]], ids=["off-diagonal", "diagonal"])
def test_rejects_non_finite_m(bad, cells):
    # M stays symmetric, so the error must name the non-finite entry, not an
    # asymmetry; an Inf would also make the symmetry subtraction warn
    m = 2.0 * np.eye(2)
    for cell in cells:
        m[cell] = bad
    with pytest.raises(NonFiniteInput, match="M contains NaN or Inf"):
        solve_spd(m, np.ones(2))


def test_symmetry_tolerance_is_one_plus_the_largest_entry():
    # as in adjacency, the defect may reach SYMMETRY_RTOL * (1 + max |M|) and
    # no further; at max |M| = 1 that is twice SYMMETRY_RTOL * max(1, max |M|)
    tol = SYMMETRY_RTOL * (1.0 + 1.0)
    m = np.array([[1.0, 0.5], [0.5 - tol, 1.0]])
    assert SYMMETRY_RTOL < 0.5 - m[1, 0] <= tol
    solve_spd(m, np.ones(2))
    m[1, 0] = np.nextafter(m[1, 0], -np.inf)
    with pytest.raises(NotSymmetric, match="^M is not symmetric: asymmetry "):
        solve_spd(m, np.ones(2))


def test_overflowing_asymmetry_is_not_symmetric():
    # finite mirrored entries 2e308 apart: their difference overflows to Inf,
    # which must fail the tolerance without an overflow warning
    with pytest.raises(NotSymmetric, match="asymmetry inf exceeds"):
        solve_spd([[1e308, -1e308], [1e308, 1.0]], np.ones(2))


@pytest.mark.parametrize("a", [[1.5], [True], np.array([1], dtype=object), [1j]],
                         ids=["float", "bool", "object", "complex"])
def test_as_index_rejects_non_integer_dtypes(a):
    with pytest.raises(TypeError, match=r"^idx must hold integers, got dtype "):
        as_index(a, "idx")


@pytest.mark.parametrize("a", [[], np.empty(0, dtype=bool), np.array([3], dtype=np.uint8)],
                         ids=["empty-float", "empty-bool", "uint8"])
def test_as_index_reads_integers_and_empty_arrays(a):
    idx = as_index(a, "idx")
    assert idx.dtype == np.intp and idx.tolist() == np.asarray(a).tolist()


def test_as_matrix_rejects_nan_and_bad_shape():
    with pytest.raises(NonFiniteInput):
        as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(DimensionMismatch):
        as_matrix(np.ones(3))
    with pytest.raises(DimensionMismatch):
        as_matrix(np.empty((0, 2)))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    layout=st.sampled_from(["C", "F", "transposed view"]),
    columns=st.sampled_from([None, "empty", "narrow", "wide"]),
)
def test_same_bits_as_cho_solve(seed, n, layout, columns):
    # LAPACK's potrf/potrs called directly, against scipy's wrapper of the same pair
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n))
    m = g.T @ g + np.eye(n)
    m = (m + m.T) / 2
    m = {"C": m, "F": np.asfortranarray(m), "transposed view": m.copy().T}[layout]
    width = {
        None: None,
        "empty": 0,
        "narrow": int(rng.integers(1, n + 1)),
        "wide": int(rng.integers(n + 1, 2 * n + 2)),
    }[columns]
    b = rng.normal(size=n if width is None else (n, width))
    factor = cho_factor(m, lower=True)
    if columns == "wide":
        expected = cho_solve(factor, np.eye(n)) @ b
    else:
        expected = cho_solve(factor, b)
    x = solve_spd(m, b)
    assert x.shape == expected.shape and x.dtype == expected.dtype
    assert x.tobytes() == expected.tobytes()


def test_lapack_routines_are_scipys_public_ones():
    # the standalone load must reach the very routines scipy.linalg.lapack
    # exports, so that a change of scipy's layout fails here, not in the bits
    assert numerics.lapack.dpotrf is lapack.dpotrf
    assert numerics.lapack.dpotrs is lapack.dpotrs


SOLVES_WITHOUT_SCIPY_LINALG = """
import sys
import numpy as np
import embedprop, embedprop.cli
from embedprop.graph import GraphConfig, build_propagator
from embedprop.numerics import solve_spd
solve_spd(2.0 * np.eye(3), np.ones(3))
build_propagator(np.arange(6.0).reshape(3, 2), GraphConfig()).apply(np.ones((3, 4)))
print("scipy.linalg" in sys.modules)
"""

NO_LAPACK_EXTENSION = """
import importlib.machinery
find_spec = importlib.machinery.PathFinder.find_spec
importlib.machinery.PathFinder.find_spec = lambda name, path=None, target=None: (
    None if name == "scipy.linalg._flapack" else find_spec(name, path, target))
try:
    import embedprop
except ImportError as e:
    print(e)
"""


def run_fresh(code: str) -> str:
    """Stdout of `code` run in a fresh interpreter on this tree's src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_no_call_path_imports_scipy_linalg():
    # all of scipy.linalg costs a process about 0.27 s and 18 MB; numerics
    # loads scipy's LAPACK extension alone, at import, not on the first solve
    assert run_fresh(SOLVES_WITHOUT_SCIPY_LINALG).split() == ["False"]


def test_missing_lapack_extension_names_where_it_looked():
    message = run_fresh(NO_LAPACK_EXTENSION).strip()
    assert message.startswith("no LAPACK extension _flapack in ")
    assert os.path.join("scipy", "linalg") in message and f"(scipy {scipy.__version__})" in message


_Z = np.ones((3, 2))


# complex arrays: numpy's cast keeps only their real part and merely warns
# (ComplexWarning); a list of Python complex numbers numpy rejects itself
@pytest.mark.parametrize(
    "call, value, name",
    [
        pytest.param(lambda a: as_matrix(a, "Z"), np.eye(2) + 2j, "Z", id="as_matrix"),
        pytest.param(lambda a: as_square(a, "L"), np.eye(2) + 2j, "L", id="as_square"),
        pytest.param(
            lambda a: solve_spd(np.eye(2), a), np.array([1 + 1j, 2]), "B", id="solve_spd B"
        ),
        pytest.param(
            lambda a: EmbeddingSet(a, ("a",)), np.array([[1 + 1j]]), "embeddings", id="EmbeddingSet"
        ),
        pytest.param(
            lambda a: label_propagation_scores(_Z, a, GraphConfig()),
            np.eye(3, 2) + 1j,
            "labels",
            id="label_propagation_scores",
        ),
        pytest.param(
            lambda a: compactness_metrics(a, "aab", _Z), _Z + 1j, "Z", id="compactness_metrics z"
        ),
        pytest.param(
            lambda a: compactness_metrics(_Z, "aab", a),
            _Z + 1j,
            "Ztilde",
            id="compactness_metrics ztilde",
        ),
        pytest.param(
            confidence_interval95, np.array([0.5j, 0.7]), "accuracies", id="confidence_interval95"
        ),
    ],
)
def test_complex_input_raises_instead_of_dropping_imaginary_part(call, value, name):
    with pytest.raises(TypeError, match=rf"^{name} must be real, got dtype complex128$"):
        call(value)
