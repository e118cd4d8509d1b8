import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embedprop import graph, numerics
from embedprop.diagnostics import gaussian_clusters
from embedprop.episodes import EvalConfig, evaluate
from embedprop.errors import (
    DimensionMismatch,
    InvalidDistanceMatrix,
    IsolatedNode,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
    ResourceLimit,
)
from embedprop.graph import (
    FALLBACK_SIGMA2,
    VARIANCE_FLOOR,
    GraphConfig,
    adjacency,
    build_propagator,
    normalized_laplacian,
    pairwise_sq_distances,
    propagator,
)
from embedprop.numerics import BLOCK_ELEMENTS, SYMMETRY_RTOL, solve_spd
from embedprop.propagation import PropagationMode, propagate_embeddings


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

    def test_peak_memory_bounded_by_block_budget(self):
        # numpy reports its array allocations to tracemalloc: the result, one
        # difference temporary of at most the budget, and small per-block rows
        n, m = 1000, 64
        z = np.random.default_rng(3).normal(size=(n, m))
        tracemalloc.start()
        try:
            pairwise_sq_distances(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * n + 8 * BLOCK_ELEMENTS + 8 * n * m + (1 << 16)

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

    @pytest.mark.parametrize("override", [math.inf, math.nan, 0.0, -1.0])
    def test_override_must_be_finite_and_positive(self, override):
        # an infinite bandwidth would weigh every edge exp(-0) = 1: a uniform graph
        with pytest.raises(ValueError, match="sigma2_override must be finite and positive"):
            GraphConfig(sigma2_override=override)

    def test_diagonal_forced_zero(self):
        d2 = pairwise_sq_distances(np.random.default_rng(4).normal(size=(5, 2)))
        a, _ = adjacency(d2, GraphConfig())
        assert (np.diagonal(a) == 0.0).all()

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([[0.0, 1.0], [2.0, 0.0]]), "D2 is not symmetric"),
            (np.array([[0.5, 1.0], [1.0, 0.0]]), "D2 diagonal is not zero"),
            (np.array([[0.0, -1.0], [-1.0, 0.0]]), "D2 has negative entries"),
            (np.array([[0.0, np.nan], [np.nan, 0.0]]), "D2 contains NaN or Inf"),
            (np.zeros((2, 3)), r"D2 must be square, got shape \(2, 3\)"),
            (np.zeros(4), r"D2 must be square, got shape \(4,\)"),
            (np.zeros((0, 0)), r"D2 must be square, got shape \(0, 0\)"),
        ],
        ids=[f"bad{i}" for i in range(7)],
    )
    def test_rejects_invalid(self, bad, message):
        with pytest.raises(InvalidDistanceMatrix, match=message):
            adjacency(bad, GraphConfig())

    def test_overflowing_asymmetry_rejected(self):
        # finite, but the mirrored entries differ by more than the float64 maximum
        with pytest.raises(InvalidDistanceMatrix, match="D2 is not symmetric"):
            adjacency(np.array([[0.0, 1e308], [-1e308, 0.0]]), GraphConfig())

    def test_symmetry_tolerance_scales_with_the_largest_entry(self):
        # the defect may reach SYMMETRY_RTOL * (1 + max |d2|) and no further
        big = 1e6
        tol = SYMMETRY_RTOL * (1.0 + big)
        d2 = np.array([[0.0, big], [big - tol, 0.0]])
        assert big - d2[1, 0] <= tol
        adjacency(d2, GraphConfig())
        d2[1, 0] = np.nextafter(d2[1, 0], -np.inf)
        with pytest.raises(InvalidDistanceMatrix, match="not symmetric"):
            adjacency(d2, GraphConfig())


@pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 0), (2, 2, 2)])
@pytest.mark.parametrize("stage, name", [
    (normalized_laplacian, "A"),
    (lambda lap: propagator(lap, 0.5), "L"),
    (lambda m: solve_spd(m, np.ones(2)), "M"),
], ids=["laplacian", "propagator", "solve"])
def test_square_stages_reject_other_shapes(stage, name, shape):
    with pytest.raises(DimensionMismatch, match=rf"^{name} must be square, got shape "):
        stage(np.zeros(shape))


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

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    def test_bits_of_adjacency_times_outer_product(self, symmetric):
        rng = np.random.default_rng(13)
        a = rng.uniform(0.1, 2.0, size=(500, 500))
        if symmetric:
            a = np.triu(a, 1)
            a += a.T
        dinv = 1.0 / np.sqrt(a.sum(axis=1))
        expected = a * np.multiply.outer(dinv, dinv)
        assert normalized_laplacian(a).tobytes() == expected.tobytes()

    def test_asymmetric_adjacency_fails_at_apply(self):
        # no averaging hides an asymmetric A: its system fails solve_spd's check
        a = np.random.default_rng(14).uniform(0.1, 2.0, size=(6, 6))
        np.fill_diagonal(a, 0.0)
        p = propagator(normalized_laplacian(a), 0.5)
        with pytest.raises(NotSymmetric):
            p.apply(np.ones(6))

    @pytest.mark.parametrize("weight", [1e-310, 5e-324, np.finfo(np.float64).tiny / 2])
    def test_subnormal_degree_rejected(self, weight):
        # d_i d_j = 1/deg overflows to inf below deg ~ 5.6e-309
        a = np.array([[0.0, weight], [weight, 0.0]])
        with pytest.raises(IsolatedNode, match="node 0 has zero or subnormal degree"):
            normalized_laplacian(a)

    def test_smallest_normal_degree_accepted(self):
        tiny = np.finfo(np.float64).tiny
        lap = normalized_laplacian(np.array([[0.0, tiny], [tiny, 0.0]]))
        assert lap.tolist() == [[0.0, 1.0], [1.0, 0.0]]

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

    def test_system_bits_match_eye_minus_alpha_lap(self):
        # zeros of both signs off the diagonal must come out as +0.0, as in np.eye(n) - x
        rng = np.random.default_rng(14)
        lap = rng.normal(size=(6, 6))
        lap[0, 1] = lap[1, 0] = 0.0
        lap[2, 3] = lap[3, 2] = -0.0
        lap[4, 4] = -0.0
        system = propagator(lap, 0.3).system
        assert system.tobytes() == (np.eye(6) - 0.3 * lap).tobytes()

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

    def test_not_positive_definite_names_the_failed_minor(self):
        p = propagator(np.array([[0.0, 3.0], [3.0, 0.0]]), 0.5)
        message = r"^M is not positive definite: leading minor 2 of 2$"
        with pytest.raises(NotPositiveDefinite, match=message):
            p.apply(np.ones(2))

    def test_non_finite_laplacian_rejected_on_first_use(self):
        p = propagator(np.array([[0.0, np.nan], [np.nan, 0.0]]), 0.5)
        with pytest.raises(NonFiniteInput, match="M contains NaN or Inf"):
            p.apply(np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("columns", [None, 1, 3, 4])
    def test_non_finite_rhs_rejected_on_both_paths(self, bad, columns, monkeypatch):
        # 3 rows: up to 3 columns solve, 4 multiply by the formed P
        p = build_propagator(np.array([[0.0], [1.0], [3.0]]), GraphConfig())
        b = np.ones(3 if columns is None else (3, columns))
        b.flat[-1] = bad
        factored = []
        dpotrf = numerics.lapack.dpotrf
        monkeypatch.setattr(numerics.lapack, "dpotrf", lambda *a, **k: factored.append(1) or dpotrf(*a, **k))
        with pytest.raises(NonFiniteInput):
            p.apply(b)
        assert not factored  # rejected before anything is factored
        p.apply(np.ones(b.shape))
        assert len(factored) == 1

    @pytest.mark.parametrize("columns", [1, 4])
    def test_editing_a_read_matrix_leaves_apply_unchanged(self, columns):
        p = build_propagator(np.array([[0.0], [1.0], [3.0]]), GraphConfig())
        b = np.arange(3.0 * columns).reshape(3, columns)
        before, matrix = p.apply(b), p.matrix.copy()
        read = p.matrix
        read += 2.5
        np.testing.assert_array_equal(p.apply(b), before)
        np.testing.assert_array_equal(p.matrix, matrix)

    @pytest.mark.parametrize("shape", [(2,), (2, 1), (2, 4), (4, 5)])
    def test_wrong_row_count_rejected_on_both_paths(self, shape):
        p = build_propagator(np.array([[0.0], [1.0], [3.0]]), GraphConfig())
        with pytest.raises(DimensionMismatch, match="B must have 3 rows"):
            p.apply(np.ones(shape))

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


def _usable_cpus(monkeypatch, count=4):
    # the split path starts real threads; at most count - 1 beside the caller
    monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _shape_batch(n, m, seed=5):
    """Random rows with two duplicates and a large common offset."""
    z = np.random.default_rng(seed).normal(size=(n, m)) + 1e4
    if n >= 4:
        z[-1] = z[0]
        z[n // 2] = z[1]
    return z


class TestSplitPath:
    # n * m * workers >= BLOCK_ELEMENTS splits: (511, 128) at 4 workers and not
    # at 2, (512, 128) at both, (256, 127) at neither; n = 1 never splits
    @pytest.mark.parametrize(
        "shape,shares",
        [((256, 127), (1, 1, 1)), ((511, 128), (1, 1, 4)), ((512, 128), (1, 2, 4)),
         ((1, BLOCK_ELEMENTS), (1, 1, 1)), ((2, BLOCK_ELEMENTS // 2), (1, 2, 2))],
    )
    def test_bits_equal_the_serial_path(self, shape, shares, monkeypatch):
        # shares write disjoint parts of one result; four workers on fewer
        # cores, switching often, would expose a lost or crossed write
        _usable_cpus(monkeypatch)
        z = _shape_batch(*shape)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads, count in zip(("1", "2", "4"), shares):
                monkeypatch.setenv("EP_THREADS", threads)
                assert len(numerics.upper_shares(*shape)) == count
                results.append(pairwise_sq_distances(z))
        finally:
            sys.setswitchinterval(interval)
        serial = results[0]
        assert all(d2.tobytes() == serial.tobytes() for d2 in results[1:])
        assert (serial == serial.T).all() and (np.diagonal(serial) == 0.0).all()

    def test_shares_cover_every_row_once(self, monkeypatch):
        _usable_cpus(monkeypatch, count=8)
        monkeypatch.setenv("EP_THREADS", "8")
        for n, m in ((512, 256), (2000, 64), (9, BLOCK_ELEMENTS)):
            shares = numerics.upper_shares(n, m)
            bounds = [lo for lo, _ in shares] + [shares[-1][1]]
            assert bounds[0] == 0 and bounds[-1] == n
            assert all(lo < hi for lo, hi in shares)
            assert [hi for _, hi in shares[:-1]] == bounds[1:-1]
            area = [(2 * n - lo - hi + 1) * (hi - lo) / 2 for lo, hi in shares]
            assert max(area) <= n * (n + 1) / 2 / len(shares) + n

    def test_overflow_in_a_pool_share_is_inf_without_warning(self, monkeypatch):
        _usable_cpus(monkeypatch)
        monkeypatch.setenv("EP_THREADS", "2")
        n, m = 512, 128
        z = np.random.default_rng(6).normal(size=(n, m))
        z[-2, 0], z[-1, 0] = -1e308, 1e308  # both rows in the pool's share
        assert numerics.upper_shares(n, m)[-1][0] < n - 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d2 = pairwise_sq_distances(z)
        assert d2[n - 2, n - 1] == math.inf and d2[n - 1, n - 2] == math.inf
        assert np.isfinite(d2[: n - 2, : n - 2]).all()

    def test_peak_memory_of_the_shares(self, monkeypatch):
        # each of 4 shares walks with its own scratch of at least one row
        _usable_cpus(monkeypatch)
        monkeypatch.setenv("EP_THREADS", "4")
        n, m, workers = 300, 128, 4
        assert len(numerics.upper_shares(n, m)) == workers
        z = np.random.default_rng(7).normal(size=(n, m))
        tracemalloc.start()
        try:
            pairwise_sq_distances(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * n + 8 * max(BLOCK_ELEMENTS, workers * n * m) + (1 << 16)


class TestNoNestedPools:
    @staticmethod
    def _count_pools(monkeypatch):
        started = []
        factory = numerics.thread_pool

        def counting(workers):
            started.append(workers)
            return factory(workers)

        monkeypatch.setattr(numerics, "thread_pool", counting)
        return started

    def test_evaluate_kernels_run_inline_on_its_pool(self, monkeypatch):
        # on the calling thread 120 x 640 would split; on the episode pool it does not
        _usable_cpus(monkeypatch)
        monkeypatch.setenv("EP_THREADS", "2")
        assert len(numerics.upper_shares(120, 640)) == 2
        data = gaussian_clusters(5, 24, spread=0.4, seed=8, dim=640)
        cfg = EvalConfig(n_way=5, k_shot=5, q_queries=15, u_unlabeled=20, episodes=2)
        started = self._count_pools(monkeypatch)
        evaluate(data, cfg)
        assert started == [2]

    def test_direct_call_starts_one_pool(self, monkeypatch):
        _usable_cpus(monkeypatch)
        monkeypatch.setenv("EP_THREADS", "2")
        started = self._count_pools(monkeypatch)
        pairwise_sq_distances(np.random.default_rng(9).normal(size=(2000, 64)))
        assert started == [1]


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.one_of(
        st.tuples(st.integers(1, 30), st.integers(1, 8)),
        # n^2 m exactly at the budget, then far above it with several rows
        # per block, then with one row per block
        st.sampled_from([(64, max(1, BLOCK_ELEMENTS // 64**2)), (150, 64), (40, 4000)]),
    ),
    log_scale=st.floats(-3, 3),
    offset=st.sampled_from([0.0, -37.5, 1e4]),
    duplicates=st.integers(0, 5),
)
def test_pairwise_matches_per_row_oracle_property(seed, shape, log_scale, offset, duplicates):
    rng = np.random.default_rng(seed)
    n, m = shape
    z = rng.normal(size=(n, m)) * 10.0**log_scale + offset
    dup = rng.integers(n, size=min(duplicates, n - 1))
    z[rng.permutation(n)[: dup.size]] = z[dup]
    rows = []
    for i in range(n):
        diff = z[i : i + 1, None, :] - z[None, :, :]
        rows.append(np.einsum("ijk,ijk->ij", diff, diff))
    d2 = pairwise_sq_distances(z)
    assert d2.tobytes() == np.vstack(rows).tobytes()
    assert (d2 == d2.T).all()
    assert (np.diagonal(d2) == 0.0).all()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    m=st.integers(1, 6),
    log_scale=st.floats(-3, 3),
    offset=st.sampled_from([0.0, -37.5, 1e4]),
    duplicates=st.integers(0, 40),
)
def test_bandwidth_is_numpy_var_bit_for_bit_property(seed, n, m, log_scale, offset, duplicates):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, m)) * 10.0**log_scale + offset
    dup = rng.integers(n, size=min(duplicates, n - 1))
    z[rng.permutation(n)[: dup.size]] = z[dup]
    d2 = pairwise_sq_distances(z)
    _, sigma2 = adjacency(d2, GraphConfig())
    if n == 1:
        assert sigma2 == FALLBACK_SIGMA2
        return
    var = float(d2[~np.eye(n, dtype=bool)].var())
    assert sigma2 == (var if var >= VARIANCE_FLOOR else FALLBACK_SIGMA2)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    m=st.integers(1, 6),
    log_scale=st.floats(-3, 3),
    offset=st.sampled_from([0.0, -37.5, 1e4]),
    duplicates=st.integers(0, 5),
    override=st.sampled_from([None, 0.05, 2.0]),
)
def test_laplacian_within_four_eps_of_long_double_property(
    seed, n, m, log_scale, offset, duplicates, override
):
    # the float64 degree sums carry most of the error, and it grows with n:
    # at n <= 120 up to 4.4 eps was seen
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, m)) * 10.0**log_scale + offset
    dup = rng.integers(n, size=min(duplicates, n - 1))
    z[rng.permutation(n)[: dup.size]] = z[dup]
    a, _ = adjacency(pairwise_sq_distances(z), GraphConfig(sigma2_override=override))
    lap = normalized_laplacian(a)
    exact = a.astype(np.longdouble)
    dinv = 1.0 / np.sqrt(exact.sum(axis=1))
    exact *= dinv[:, None] * dinv[None, :]
    off = ~np.eye(n, dtype=bool)
    rel = np.abs(lap[off] - exact[off]) / exact[off]
    assert rel.max() <= 4 * np.finfo(np.float64).eps


def _layouts(x):
    """`x` as C-ordered, F-ordered and transposed-view inputs of equal values."""
    return {
        "C": np.ascontiguousarray(x),
        "F": np.asfortranarray(x),
        "T": np.ascontiguousarray(x.T).T,
    }


def _run_untouched(stage, x, *args):
    """Call `stage(x, *args)`; assert it leaves the bytes of `x` as they were
    and returns no view of them."""
    before = x.copy(order="K")
    out = stage(x, *args)
    assert x.tobytes(order="A") == before.tobytes(order="A")
    result = out[0] if isinstance(out, tuple) else getattr(out, "system", out)
    assert not np.shares_memory(result, x)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.sampled_from([1, 2]), st.integers(3, 30)),
    m=st.integers(1, 5),
    override=st.booleans(),
)
def test_stages_leave_their_inputs_untouched_property(seed, n, m, override):
    # every stage computes in place on its own result; none may write its
    # argument, whatever its memory layout, or return a view of it
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, m))
    if n > 2:
        z[n // 2] = z[0]  # a duplicate row; n = 2 is a zero-variance batch already
    cfg = GraphConfig(alpha=0.5, sigma2_override=2.0 if override else None)
    for x in _layouts(z).values():
        _run_untouched(pairwise_sq_distances, x)
    d2 = pairwise_sq_distances(z)
    for x in _layouts(d2).values():
        _run_untouched(adjacency, x, cfg)
    a, _ = adjacency(d2, cfg)
    for x in _layouts(a).values():
        _run_untouched(normalized_laplacian, x)
    lap = normalized_laplacian(a)
    for x in _layouts(lap).values():
        _run_untouched(propagator, x, 0.5)
    system = propagator(lap, 0.5).system
    b = rng.normal(size=(n, 3))
    for x in _layouts(system).values():
        _run_untouched(solve_spd, x, b)
    for x in _layouts(b).values():
        _run_untouched(lambda rhs: solve_spd(system, rhs), x)


class TestResourceLimit:
    def test_raises_before_allocating(self, monkeypatch):
        def no_distances(z):
            raise AssertionError("the check must fire before the first n x n array")

        monkeypatch.setattr(numerics, "physical_memory", lambda: 2 * 8 * 30 * 30 - 1)
        monkeypatch.setattr(graph, "pairwise_sq_distances", no_distances)
        with pytest.raises(ResourceLimit, match=r"30 rows needs about 14400 bytes"):
            build_propagator(np.zeros((30, 2)), GraphConfig())

    def test_fits_at_the_limit_or_without_a_probe(self, monkeypatch):
        z = np.random.default_rng(12).normal(size=(30, 2))
        expected = build_propagator(z, GraphConfig()).system
        for probe in (lambda: 2 * 8 * 30 * 30, lambda: None):
            monkeypatch.setattr(numerics, "physical_memory", probe)
            assert (build_propagator(z, GraphConfig()).system == expected).all()

    def test_forming_p_checks_four_arrays(self, monkeypatch):
        # the graph and FULL propagation hold two n x n arrays, forming P four
        z = np.random.default_rng(15).normal(size=(30, 2))
        monkeypatch.setattr(numerics, "physical_memory", lambda: 3 * 8 * 30 * 30)
        propagate_embeddings(z, GraphConfig(), PropagationMode.FULL)
        for mode in (PropagationMode.DIAGONAL_ONLY, PropagationMode.OFF_DIAGONAL_ONLY):
            with pytest.raises(ResourceLimit, match=r"forming P over 30 rows needs about 28800"):
                propagate_embeddings(z, GraphConfig(), mode)

    def test_forming_p_raises_before_allocating(self, monkeypatch):
        p = build_propagator(np.random.default_rng(16).normal(size=(30, 2)), GraphConfig())

        def no_solve(m, b):
            raise AssertionError("the check must fire before the identity and P")

        monkeypatch.setattr(numerics, "physical_memory", lambda: 4 * 8 * 30 * 30 - 1)
        monkeypatch.setattr(graph.numerics, "solve_spd", no_solve)
        with pytest.raises(ResourceLimit):
            p.matrix

    def test_wide_apply_checks_four_arrays_before_factoring(self, monkeypatch):
        # a right-hand side wider than the batch forms P: the system, its
        # factor, I and P
        n = 30
        p = build_propagator(np.random.default_rng(17).normal(size=(n, 2)), GraphConfig())
        b = np.random.default_rng(18).normal(size=(n, n + 1))
        expected = p.apply(b)

        def no_factor(*args, **kwargs):
            raise AssertionError("the check must fire before the factorization")

        with monkeypatch.context() as patch:
            patch.setattr(numerics, "physical_memory", lambda: 4 * 8 * n * n - 1)
            patch.setattr(numerics.lapack, "dpotrf", no_factor)
            with pytest.raises(ResourceLimit, match=r"30 rows needs about 28800 bytes"):
                p.apply(b)
        monkeypatch.setattr(numerics, "physical_memory", lambda: 4 * 8 * n * n)
        assert p.apply(b).tobytes() == expected.tobytes()

    def test_probe_reads_this_machine(self):
        available = numerics.physical_memory()
        assert available is None or available > 0
