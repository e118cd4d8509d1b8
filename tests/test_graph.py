import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embedprop.errors import InvalidDistanceMatrix, IsolatedNode, NonFiniteInput, NotPositiveDefinite
from embedprop.graph import (
    GraphConfig,
    adjacency,
    build_propagator,
    normalized_laplacian,
    pairwise_sq_distances,
    propagator,
)


def neumann_propagator(lap: np.ndarray, alpha: float, terms: int) -> np.ndarray:
    """Independent oracle: truncated series I + aL + a^2 L^2 + ..."""
    acc = np.eye(lap.shape[0])
    term = np.eye(lap.shape[0])
    for _ in range(terms):
        term = alpha * (term @ lap)
        acc = acc + term
    return acc


def laplacian_from_points(z: np.ndarray, cfg: GraphConfig = GraphConfig()) -> np.ndarray:
    a, _ = adjacency(pairwise_sq_distances(z), cfg)
    return normalized_laplacian(a)


class TestPairwiseSqDistances:
    def test_pythagorean(self):
        d2 = pairwise_sq_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(d2, [[0.0, 25.0], [25.0, 0.0]])

    def test_single_row(self):
        np.testing.assert_array_equal(pairwise_sq_distances([[1.0, 2.0]]), [[0.0]])

    def test_three_points(self):
        d2 = pairwise_sq_distances(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
        assert d2[0, 1] == 1.0 and d2[0, 2] == 4.0 and d2[1, 2] == 5.0

    def test_exact_symmetry_zero_diagonal(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(40, 7))
        d2 = pairwise_sq_distances(z)
        assert (d2 == d2.T).all()
        assert (np.diagonal(d2) == 0.0).all()
        assert d2.min() >= 0.0

    def test_blocked_path_matches_unblocked(self):
        # more rows than the internal block size
        rng = np.random.default_rng(2)
        z = rng.normal(size=(300, 3))
        d2 = pairwise_sq_distances(z)
        diff = z[:5, None, :] - z[None, :, :]
        direct = np.einsum("ijk,ijk->ij", diff, diff)
        np.testing.assert_array_equal(d2[:5], direct)

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteInput):
            pairwise_sq_distances(np.array([[0.0, np.nan]]))


class TestAdjacency:
    def test_sigma2_population_variance(self):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        d2 = pairwise_sq_distances(z)
        a, s2 = adjacency(d2, GraphConfig())
        # oracle: literal population variance of the ordered off-diagonal entries
        off = [d2[i, j] for i in range(3) for j in range(3) if i != j]
        mean = sum(off) / len(off)
        var = sum((x - mean) ** 2 for x in off) / len(off)
        assert s2 == pytest.approx(var)
        assert s2 == pytest.approx(26 / 9)
        assert a[0, 1] == pytest.approx(0.7074, abs=1e-4)
        assert a[0, 2] == pytest.approx(0.2504, abs=1e-4)
        assert a[1, 2] == pytest.approx(0.1772, abs=1e-4)
        np.testing.assert_allclose(a, np.exp(-d2 / s2) - np.diag(np.exp(np.zeros(3))) + 0.0, atol=1e-15)

    def test_zero_variance_falls_back(self):
        d2 = np.array([[0.0, 25.0], [25.0, 0.0]])
        a, s2 = adjacency(d2, GraphConfig())
        assert s2 == 1.0
        assert a[0, 1] == pytest.approx(math.exp(-25.0))

    def test_single_node_falls_back(self):
        a, s2 = adjacency(np.zeros((1, 1)), GraphConfig())
        assert s2 == 1.0 and a[0, 0] == 0.0

    def test_override_bounds_entries(self):
        rng = np.random.default_rng(3)
        d2 = pairwise_sq_distances(rng.normal(size=(8, 3)))
        a, s2 = adjacency(d2, GraphConfig(sigma2_override=float(d2.max())))
        assert s2 == d2.max()
        off = a[~np.eye(8, dtype=bool)]
        assert (off >= math.exp(-1.0) - 1e-15).all()
        assert (off > 0.0).all() and (off <= 1.0).all()

    def test_diagonal_forced_zero(self):
        d2 = pairwise_sq_distances(np.random.default_rng(4).normal(size=(5, 2)))
        a, _ = adjacency(d2, GraphConfig())
        assert (np.diagonal(a) == 0.0).all()

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.0, 1.0], [2.0, 0.0]]),  # asymmetric
            np.array([[0.5, 1.0], [1.0, 0.0]]),  # nonzero diagonal
            np.array([[0.0, -1.0], [-1.0, 0.0]]),  # negative
            np.array([[0.0, np.nan], [np.nan, 0.0]]),  # non-finite
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidDistanceMatrix):
            adjacency(bad, GraphConfig())


class TestNormalizedLaplacian:
    def test_two_nodes_cancel_weight(self):
        for w in (0.3, 1.0, 7.5):
            lap = normalized_laplacian(np.array([[0.0, w], [w, 0.0]]))
            np.testing.assert_allclose(lap, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_equal_weight_clique(self):
        a = 0.7 * (np.ones((3, 3)) - np.eye(3))
        lap = normalized_laplacian(a)
        expected = 0.5 * (np.ones((3, 3)) - np.eye(3))
        np.testing.assert_allclose(lap, expected, atol=1e-12)

    def test_single_node_zero_operator(self):
        np.testing.assert_array_equal(normalized_laplacian(np.zeros((1, 1))), [[0.0]])

    def test_isolated_node_rejected(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        with pytest.raises(IsolatedNode):
            normalized_laplacian(a)

    @pytest.mark.parametrize(
        "a,row",
        [
            ([[0.0, 1.0, np.nan], [1.0, 0.0, 1.0], [np.nan, 1.0, 0.0]], 0),
            ([[0.0, 1.0, 1.0], [1.0, 0.0, np.inf], [1.0, np.inf, 0.0]], 1),
            ([[np.nan]], 0),
        ],
        ids=["nan", "inf", "single-nan"],
    )
    def test_non_finite_adjacency_rejected(self, a, row):
        with pytest.raises(NonFiniteInput, match=f"row {row} of A"):
            normalized_laplacian(a)

    def test_symmetric_output(self):
        rng = np.random.default_rng(5)
        a, _ = adjacency(pairwise_sq_distances(rng.normal(size=(9, 4))), GraphConfig())
        lap = normalized_laplacian(a)
        assert (lap == lap.T).all()


class TestPropagator:
    def test_hand_solved_two_node(self):
        p = propagator(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5)
        np.testing.assert_allclose(
            p.matrix, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], rtol=0, atol=1e-12
        )

    def test_identity_limit(self):
        rng = np.random.default_rng(6)
        lap = laplacian_from_points(rng.normal(size=(7, 3)))
        p = propagator(lap, 1e-12)
        assert np.abs(p.matrix - np.eye(7)).max() <= 1e-10

    def test_neumann_oracle_six_nodes(self):
        rng = np.random.default_rng(7)
        lap = laplacian_from_points(rng.normal(size=(6, 2)))
        p = propagator(lap, 0.3)
        oracle = neumann_propagator(lap, 0.3, 200)
        assert np.abs(p.matrix - oracle).max() <= 1e-6

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_neumann_oracle_alpha_range(self, alpha):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            lap = laplacian_from_points(rng.normal(size=(n, int(rng.integers(1, 5)))))
            p = propagator(lap, alpha)
            oracle = neumann_propagator(lap, alpha, 400)
            assert np.abs(p.matrix - oracle).max() <= 1e-6

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            propagator(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            propagator(np.zeros((2, 2)), 0.0)

    def test_not_positive_definite_raised_on_first_use(self):
        # eigenvalues of I - 0.5 * L are 1 -+ 1.5; the factorization is deferred
        p = propagator(np.array([[0.0, 3.0], [3.0, 0.0]]), 0.5)
        with pytest.raises(NotPositiveDefinite):
            p.apply(np.ones((2, 1)))
        with pytest.raises(NotPositiveDefinite):
            p.matrix

    def test_invariants_random_batches(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 17))
            z = rng.normal(size=(n, int(rng.integers(1, 5))))
            p = build_propagator(z, GraphConfig(alpha=float(rng.uniform(0.05, 0.95))))
            m = p.matrix
            assert np.abs(m - m.T).max() <= 1e-9
            assert m.min() >= -1e-9
            assert np.diagonal(m).min() >= 1.0 - 1e-9


class TestPipelineInvariances:
    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(12, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        shift = rng.normal(size=3)
        moved = z @ q.T + shift
        a1, s1 = adjacency(pairwise_sq_distances(z), GraphConfig())
        a2, s2 = adjacency(pairwise_sq_distances(moved), GraphConfig())
        assert abs(s1 - s2) <= 1e-9 * s1
        assert np.abs(a1 - a2).max() <= 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(10, 4))
        perm = rng.permutation(10)
        cfg = GraphConfig(alpha=0.4)
        d2 = pairwise_sq_distances(z)
        d2p = pairwise_sq_distances(z[perm])
        assert np.abs(d2p - d2[np.ix_(perm, perm)]).max() <= 1e-9
        a, _ = adjacency(d2, cfg)
        ap, _ = adjacency(d2p, cfg)
        assert np.abs(ap - a[np.ix_(perm, perm)]).max() <= 1e-9
        lap, lapp = normalized_laplacian(a), normalized_laplacian(ap)
        assert np.abs(lapp - lap[np.ix_(perm, perm)]).max() <= 1e-9
        p, pp = propagator(lap, 0.4), propagator(lapp, 0.4)
        assert np.abs(pp.matrix - p.matrix[np.ix_(perm, perm)]).max() <= 1e-9


@given(
    z=arrays(
        np.float64,
        st.tuples(st.integers(2, 8), st.integers(1, 3)),
        elements=st.floats(-5, 5, allow_nan=False),
    ),
    alpha=st.floats(0.05, 0.95),
)
def test_propagator_invariants_property(z, alpha):
    p = build_propagator(z, GraphConfig(alpha=alpha))
    assert np.abs(p.matrix - p.matrix.T).max() <= 1e-9
    assert p.matrix.min() >= -1e-9
    assert np.diagonal(p.matrix).min() >= 1.0 - 1e-9


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    alpha=st.floats(0.05, 0.95),
    log_scale=st.floats(-3, 3),
    duplicates=st.integers(0, 5),
    k_over_n=st.sampled_from([None, 0.1, 1.0, 2.5]),
)
def test_apply_matches_dense_solve_property(seed, n, alpha, log_scale, duplicates, k_over_n):
    # cond(I - alpha*L) <= (1 + alpha) / (1 - alpha) <= 39, so a backward-stable
    # solve or inverse-then-multiply stays well inside 1e-12 relative
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, int(rng.integers(1, 6)))) * 10.0**log_scale
    dup = rng.integers(n, size=min(duplicates, n - 1))
    z[rng.permutation(n)[: dup.size]] = z[dup]
    p = build_propagator(z, GraphConfig(alpha=alpha))
    shape = (n,) if k_over_n is None else (n, max(1, int(round(k_over_n * n))))
    b = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
    x = p.apply(b)
    ref = np.linalg.solve(p.system, b)
    assert x.shape == ref.shape
    assert np.abs(x - ref).max() <= 1e-12 * max(1.0, float(np.abs(ref).max()))
