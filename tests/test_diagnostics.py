import dataclasses

import numpy as np
import pytest
import scipy.spatial

from embedprop.classify import build_label_matrix, label_propagation_scores, predict
from embedprop.diagnostics import (
    batch_projections,
    compactness_metrics,
    gaussian_clusters,
    interpolation_curve,
    random_query_pairs,
    two_moons,
)
from embedprop.episodes import Episode, EvalConfig, SslMode, sample_episode
from embedprop.errors import (
    DimensionMismatch,
    InvariantViolation,
    NoUnlabeledPool,
    SameClassPair,
)
from embedprop.graph import GraphConfig
from embedprop.propagation import PropagationMode


def two_class_episode(seed=11, k=2, q=5):
    data = gaussian_clusters(2, 30, spread=0.4, seed=seed)
    cfg = EvalConfig(n_way=2, k_shot=k, q_queries=q, episodes=1, seed=seed)
    return data, cfg, sample_episode(data, cfg, 0)


class TestInterpolationCurve:
    def test_endpoints_match_duplicated_query(self):
        # at weight 1 the interpolated point duplicates node i; a label-free
        # duplicate is graph-interchangeable with the original, so the curve
        # endpoint equals the probability the same run assigns to node i
        data, cfg, ep = two_class_episode()
        i = ep.n_support  # first class-0 query
        j = ep.n_support + ep.q_queries  # first class-1 query
        curve = interpolation_curve(data, ep, i, j, 5, cfg)

        from embedprop.classify import softmax_probs
        from embedprop.episodes import infer

        z = data.embeddings[ep.node_indices()]
        for weight, pos in ((1.0, i), (0.0, j)):
            batch = np.vstack([z, weight * z[i] + (1 - weight) * z[j]])
            probs = softmax_probs(infer(batch, ep, cfg))
            node_prob = probs[pos, 0]
            curve_prob = curve.probs[-1] if weight == 1.0 else curve.probs[0]
            assert abs(curve_prob - node_prob) <= 1e-9

    def test_grid_of_two_is_just_endpoints(self):
        data, cfg, ep = two_class_episode()
        curve = interpolation_curve(data, ep, ep.n_support, ep.n_support + ep.q_queries, 2, cfg)
        assert curve.grid.tolist() == [0.0, 1.0]
        assert curve.probs.shape == (2,)
        assert curve.max_jump == abs(curve.probs[1] - curve.probs[0])

    def test_same_class_pair_rejected(self):
        data, cfg, ep = two_class_episode()
        with pytest.raises(SameClassPair):
            interpolation_curve(data, ep, ep.n_support, ep.n_support + 1, 4, cfg)

    def test_follows_ssl(self):
        # pseudo-labeling needs a pool, which this episode lacks
        data, cfg, ep = two_class_episode()
        ssl_cfg = dataclasses.replace(cfg, ssl=SslMode.PSEUDO_LABEL)
        with pytest.raises(NoUnlabeledPool):
            interpolation_curve(data, ep, ep.n_support, ep.n_support + ep.q_queries, 3, ssl_cfg)

    def test_grid_size_validated(self):
        data, cfg, ep = two_class_episode()
        with pytest.raises(ValueError):
            interpolation_curve(data, ep, 0, ep.n_support + ep.q_queries, 1, cfg)

    @pytest.mark.parametrize("past_end", [False, True])
    def test_node_position_validated(self, past_end):
        data, cfg, ep = two_class_episode()
        n_nodes = ep.n_support + ep.n_query
        bad = n_nodes if past_end else -1  # -1 would silently score the last node
        with pytest.raises(ValueError, match="outside"):
            interpolation_curve(data, ep, bad, ep.n_support, 3, cfg)
        with pytest.raises(ValueError, match="outside"):
            interpolation_curve(data, ep, ep.n_support, bad, 3, cfg)

    def test_row_outside_the_set_rejected(self, episode_past_the_set):
        data, ep, cfg = episode_past_the_set
        with pytest.raises(InvariantViolation, match="episode row 99 outside a set of 30 rows"):
            interpolation_curve(data, ep, 2, 3, 3, cfg)

    def test_node_of_another_class_rejected(self):
        # query row 40 of this set is class c002, which the episode does not hold
        data = gaussian_clusters(3, 20, spread=0.3, seed=0)
        ep = Episode(
            classes=("c000", "c001"),
            support=np.array([[0], [20]]),
            query=np.array([[1], [40]]),
            unlabeled=np.empty(0, dtype=np.intp),
            labeled_mask=np.ones((2, 1), dtype=bool),
        )
        cfg = EvalConfig(n_way=2, k_shot=1, q_queries=1, episodes=1)
        with pytest.raises(ValueError, match="node 3 has label 'c002' outside the episode"):
            interpolation_curve(data, ep, 2, 3, 3, cfg)

    def test_two_class_swap_symmetry(self):
        data, cfg, ep = two_class_episode()
        i = ep.n_support + 1
        j = ep.n_support + ep.q_queries + 2
        fwd = interpolation_curve(data, ep, i, j, 7, cfg)
        rev = interpolation_curve(data, ep, j, i, 7, cfg)
        assert np.abs(fwd.probs - (1.0 - rev.probs[::-1])).max() <= 1e-9

    def test_full_mode_smoother_than_identity(self):
        # frozen seeded regime: default bandwidth, 2-class gaussians
        data = gaussian_clusters(2, 80, spread=0.25 * np.sqrt(2), seed=101)
        cfg = EvalConfig(n_way=2, k_shot=5, q_queries=15, episodes=1, seed=101)
        ep = sample_episode(data, cfg, 0)
        rng = np.random.default_rng([101, 77])
        pairs = random_query_pairs(ep, 5, rng)
        means = {}
        for mode in (PropagationMode.FULL, PropagationMode.IDENTITY):
            mcfg = dataclasses.replace(cfg, mode=mode)
            means[mode] = np.mean(
                [interpolation_curve(data, ep, i, j, 16, mcfg).max_jump for i, j in pairs]
            )
        assert means[PropagationMode.FULL] <= means[PropagationMode.IDENTITY]


class TestTwoMoons:
    def test_noiseless_moon0_on_unit_circle(self):
        data = two_moons(50, 0.0, seed=1)
        pts = data.embeddings[:50]
        np.testing.assert_allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.0, rtol=0, atol=1e-12)

    def test_noiseless_moon1_centered(self):
        data = two_moons(50, 0.0, seed=1)
        pts = data.embeddings[50:]
        dist = np.hypot(pts[:, 0] - 1.0, pts[:, 1] - 0.5)
        np.testing.assert_allclose(dist, 1.0, rtol=0, atol=1e-12)

    def test_deterministic(self):
        a = two_moons(200, 0.1, seed=9)
        b = two_moons(200, 0.1, seed=9)
        assert (a.embeddings == b.embeddings).all()
        assert a.labels == b.labels

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.1])
    def test_bad_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise_sd"):
            two_moons(10, noise, seed=0)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError, match="n_per_moon must be >= 1, got 0"):
            two_moons(0, 0.1, seed=0)

    def test_labels(self):
        data = two_moons(3, 0.0, seed=0)
        assert data.labels == ("moon0",) * 3 + ("moon1",) * 3

    def test_not_linearly_separable(self):
        # some moon-1 point falls inside the convex hull of moon 0
        data = two_moons(200, 0.0, seed=123)
        hull = scipy.spatial.Delaunay(data.embeddings[:200])
        assert (hull.find_simplex(data.embeddings[200:]) >= 0).any()

    def test_label_propagation_separates_noiseless_moons(self):
        # frozen setting from the bandwidth/alpha sweep: alpha 0.99,
        # sigma2 override 0.05, one support at the first row of each moon
        data = two_moons(100, 0.0, seed=123)
        y = build_label_matrix(200, 2, [0, 100], [0, 1])
        scores = label_propagation_scores(
            data.embeddings, y, GraphConfig(alpha=0.99, sigma2_override=0.05)
        )
        others = np.ones(200, dtype=bool)
        others[[0, 100]] = False
        preds = predict(scores[others])
        truth = np.repeat([0, 1], 100)[others]
        assert np.mean(preds == truth) >= 0.95


class TestCompactnessMetrics:
    def test_identity_gives_unit_ratios(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(10, 3))
        labels = ["a"] * 5 + ["b"] * 5
        m = compactness_metrics(z, labels, z)
        assert m.intra_ratio == pytest.approx(1.0)
        assert m.inter_ratio == pytest.approx(1.0)

    def test_half_scale_halves_ratios(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(8, 2))
        labels = ["a"] * 4 + ["b"] * 4
        m = compactness_metrics(z, labels, 0.5 * z)
        assert m.intra_ratio == pytest.approx(0.5)
        assert m.inter_ratio == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            compactness_metrics(np.ones((3, 2)), ["a", "a", "b"], np.ones((3, 3)))

    def test_label_count_rejected(self):
        with pytest.raises(DimensionMismatch, match="need one label per row"):
            compactness_metrics(np.ones((3, 2)), ["a", "b"], np.ones((3, 2)))

    def test_moons_relative_compaction(self):
        from embedprop.propagation import propagate_embeddings

        data = two_moons(200, 0.1, seed=7)
        ztilde, _ = propagate_embeddings(data.embeddings, GraphConfig(alpha=0.5))
        m = compactness_metrics(data.embeddings, data.labels, ztilde)
        assert m.intra_ratio < m.inter_ratio


class TestGaussianClusters:
    def test_geometry(self):
        data = gaussian_clusters(3, 40, spread=0.05, seed=4)
        assert data.n == 120 and data.dim == 3
        centers = np.eye(3)
        for c in range(3):
            block = data.embeddings[40 * c : 40 * (c + 1)]
            assert np.abs(block.mean(axis=0) - centers[c]).max() < 0.05

    @pytest.mark.parametrize("spread", [float("nan"), float("inf"), -1.0])
    def test_bad_spread_rejected(self, spread):
        with pytest.raises(ValueError, match="spread"):
            gaussian_clusters(3, 5, spread=spread, seed=0)

    @pytest.mark.parametrize("args, message", [
        ((1, 5), "n_classes must be >= 2, got 1"),
        ((3, 0), "n_per_class must be >= 1, got 0"),
        ((3, 5, 2), "dim must be >= n_classes, got 2 < 3"),
    ], ids=["classes", "per-class", "dim"])
    def test_bad_layout_rejected(self, args, message):
        n_classes, n_per_class, *dim = args
        with pytest.raises(ValueError, match=message):
            gaussian_clusters(n_classes, n_per_class, 0.3, 0, *dim)

    def test_deterministic(self):
        a = gaussian_clusters(4, 10, spread=0.3, seed=5)
        b = gaussian_clusters(4, 10, spread=0.3, seed=5)
        assert (a.embeddings == b.embeddings).all()


class TestBatchProjections:
    def test_shapes_and_determinism(self):
        data = two_moons(40, 0.05, seed=6)
        cfg = GraphConfig(alpha=0.5)
        a = batch_projections(data, n_batches=3, batch_size=20, cfg=cfg, seed=8)
        b = batch_projections(data, n_batches=3, batch_size=20, cfg=cfg, seed=8)
        assert a.point.shape == (60,) and a.coords.shape == (60, 2)
        assert (a.batch == np.repeat([0, 1, 2], 20)).all()
        assert (a.coords == b.coords).all()
        assert len(a.labels) == 60

    @pytest.mark.parametrize("n_batches, batch_size, message", [
        (1, 0, r"batch_size must lie in \[1, 20\], got 0"),
        (1, 21, r"batch_size must lie in \[1, 20\], got 21"),
        (0, 5, "n_batches must be >= 1, got 0"),
    ], ids=["empty-batch", "batch-over-set", "no-batches"])
    def test_bad_arguments_rejected(self, n_batches, batch_size, message):
        data = two_moons(10, 0.05, seed=6)
        with pytest.raises(ValueError, match=message):
            batch_projections(data, n_batches=n_batches, batch_size=batch_size,
                              cfg=GraphConfig(), seed=0)

    def test_point_moves_across_batches(self):
        data = two_moons(40, 0.05, seed=6)
        proj = batch_projections(data, n_batches=8, batch_size=30, cfg=GraphConfig(), seed=9)
        # pick a dataset row that appears in several batches
        counts = np.bincount(proj.point, minlength=data.n)
        row = int(np.argmax(counts))
        coords = proj.coords[proj.point == row]
        assert coords.shape[0] >= 2
        assert np.abs(coords - coords[0]).max() > 0.0
