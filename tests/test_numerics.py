import math
import os
import re
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
from embedprop.classify import build_label_matrix, label_propagation_scores, prototypical_scores
from embedprop.diagnostics import (
    batch_projections,
    compactness_metrics,
    gaussian_clusters,
    interpolation_curve,
    random_query_pairs,
    two_moons,
)
from embedprop.episodes import (
    EmbeddingSet,
    EvalConfig,
    confidence_interval95,
    labeled_count,
    sample_episode,
)
from embedprop.errors import (
    DimensionMismatch,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
)
from embedprop.graph import GraphConfig, propagator
from embedprop.numerics import (
    SYMMETRY_RTOL,
    as_count,
    as_index,
    as_number,
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


@pytest.mark.parametrize("value", [True, np.True_, "1", None, 2.5, 2.0, np.float64(2.0)])
def test_as_count_rejects_non_integers(value):
    # bool is a numbers.Integral: a bare isinstance check would read True as 1
    with pytest.raises(ValueError, match=rf"^n must be an integer, got {re.escape(repr(value))}$"):
        as_count(value, "n")


@pytest.mark.parametrize("value", [2, np.int64(2), np.uint8(2), 10**30])
def test_as_count_reads_integers_from_least_up(value):
    count = as_count(value, "n", 2)
    assert type(count) is int and count == value
    assert as_count(-5, "n") == -5  # no bound unless `least` is given


@pytest.mark.parametrize("least, value", [(2, 1), (0, -1), (1, np.int64(0))])
def test_as_count_rejects_values_below_least(least, value):
    with pytest.raises(ValueError, match=rf"^n must be >= {least}, got {value}$"):
        as_count(value, "n", least)


@pytest.mark.parametrize("value", [True, np.True_, "0.5", None, 0.5j, np.complex128(0.5)])
def test_as_number_rejects_non_reals(value):
    with pytest.raises(ValueError, match=rf"^x must be a real number, got {re.escape(repr(value))}$"):
        as_number(value, "x")


@pytest.mark.parametrize("value", [0.5, 2, np.float32(0.5), np.int64(2), math.inf])
def test_as_number_reads_reals(value):
    number = as_number(value, "x")
    assert type(number) is float and number == value
    assert math.isnan(as_number(math.nan, "x"))  # ranges are the caller's


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


def _episode_args():
    """A two-class set, its config and one sampled episode, for the diagnostics."""
    data = gaussian_clusters(2, 10, spread=0.3, seed=0)
    cfg = EvalConfig(n_way=2, k_shot=1, q_queries=2, episodes=1)
    return data, cfg, sample_episode(data, cfg, 0)


def _interpolation_curve(**kw):
    data, cfg, ep = _episode_args()
    args = dict(i=ep.n_support, j=ep.n_support + ep.q_queries, grid_size=3) | kw
    return interpolation_curve(data, ep, cfg=cfg, **args)


# public entry point -> (call with keyword overrides, its counts, its real numbers,
# those of its arguments for which None is a valid value)
PUBLIC_SCALARS = {
    "EvalConfig": (EvalConfig, ("n_way", "k_shot", "q_queries", "u_unlabeled", "episodes",
                                "seed"), ("labeled_fraction",), ()),
    "GraphConfig": (GraphConfig, (), ("alpha", "sigma2_override"), ("sigma2_override",)),
    "propagator": (lambda **kw: propagator(np.zeros((2, 2)), **kw), (), ("alpha",), ()),
    "build_label_matrix": (
        lambda **kw: build_label_matrix(**(dict(n_nodes=3, n_classes=2) | kw), rows=[0],
                                        classes=[0]),
        ("n_nodes", "n_classes"), (), ()),
    "prototypical_scores": (
        lambda **kw: prototypical_scores(np.array([[0.0], [1.0]]), [0, 1], np.zeros((1, 1)), **kw),
        ("n_classes",), (), ("n_classes",)),
    "interpolation_curve": (_interpolation_curve, ("i", "j", "grid_size"), (), ()),
    "random_query_pairs": (
        lambda **kw: random_query_pairs(_episode_args()[2], rng=np.random.default_rng(0), **kw),
        ("count",), (), ()),
    "two_moons": (lambda **kw: two_moons(**(dict(n_per_moon=5, noise_sd=0.1, seed=0) | kw)),
                  ("n_per_moon", "seed"), ("noise_sd",), ()),
    "gaussian_clusters": (
        lambda **kw: gaussian_clusters(
            **(dict(n_classes=3, n_per_class=4, spread=0.3, seed=0) | kw)),
        ("n_classes", "n_per_class", "dim", "seed"), ("spread",), ("dim",)),
    "batch_projections": (
        lambda **kw: batch_projections(two_moons(5, 0.1, seed=0), cfg=GraphConfig(),
                                       **(dict(n_batches=1, batch_size=3, seed=0) | kw)),
        ("n_batches", "batch_size", "seed"), (), ()),
    "labeled_count": (lambda **kw: labeled_count(**(dict(labeled_fraction=0.5, k_shot=2) | kw)),
                      ("k_shot",), ("labeled_fraction",), ()),
    "sample_episode": (lambda episode_index: sample_episode(*_episode_args()[:2], episode_index),
                       ("episode_index",), (), ()),
}
BAD_COUNTS = [True, np.True_, "1", None, 2.5]
BAD_REALS = [True, np.True_, "1", None, math.nan]


def _bad_scalar_cases():
    for entry, (_, counts, reals, optional) in PUBLIC_SCALARS.items():
        for names, values in ((counts, BAD_COUNTS), (reals, BAD_REALS)):
            for name in names:
                for value in values:
                    if value is None and name in optional:
                        continue
                    yield pytest.param(entry, name, value, id=f"{entry}-{name}-{value!r}")


@pytest.mark.parametrize("entry, name, value", _bad_scalar_cases())
def test_public_scalars_follow_one_rule(entry, name, value):
    # a bool is never read as 0 or 1, a string or a float count never reaches
    # numpy, and NaN fails every range of a real
    call = PUBLIC_SCALARS[entry][0]
    with pytest.raises(ValueError, match=rf"^{name} must "):
        call(**{name: value})
