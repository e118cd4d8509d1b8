import dataclasses
import math
import sys

import numpy as np
import pytest

from embedprop import episodes, graph, numerics
from embedprop.classify import build_label_matrix, label_propagation_scores, predict, prototypical_scores
from embedprop.diagnostics import gaussian_clusters
from embedprop.episodes import (
    Classifier,
    EmbeddingSet,
    Episode,
    EvalConfig,
    SslMode,
    confidence_interval95,
    evaluate,
    infer,
    labeled_count,
    query_truth,
    run_episode,
    sample_episode,
    ssl_predict,
    thread_count,
)
from embedprop.errors import (
    EmptyClass,
    InsufficientClassCount,
    InsufficientClassSize,
    InvariantViolation,
    NoUnlabeledPool,
)
from embedprop.graph import GraphConfig
from embedprop.io import report_to_dict
from embedprop.propagation import PropagationMode, propagate_embeddings

from test_classify import NON_INTEGER


def grid_dataset(n_classes=20, per_class=40, seed=0):
    return gaussian_clusters(n_classes, per_class, spread=0.3, seed=seed)


def record_builds(monkeypatch):
    """Batch shapes of every later graph.build_propagator call."""
    calls = []
    original = graph.build_propagator

    def counting(z, gcfg):
        calls.append(z.shape)
        return original(z, gcfg)

    monkeypatch.setattr(graph, "build_propagator", counting)
    return calls


class TestEmbeddingSet:
    def test_basic_properties(self):
        data = EmbeddingSet(np.ones((4, 2)), ("a", "b", "a", "b"))
        assert data.n == 4 and data.dim == 2
        assert data.classes == ("a", "b")
        np.testing.assert_array_equal(data.class_rows()["a"], [0, 2])

    def test_rejects_nan(self):
        with pytest.raises(InvariantViolation):
            EmbeddingSet(np.array([[np.nan, 1.0]]), ("a",))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(InvariantViolation):
            EmbeddingSet(np.ones((3, 2)), ("a", "b"))

    def test_rejects_bad_split(self):
        with pytest.raises(InvariantViolation):
            EmbeddingSet(np.ones((1, 1)), ("a",), ("test",))

    @pytest.mark.parametrize("shape", [(3,), (0, 2), (1, 0), (1, 1, 1)])
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(InvariantViolation, match=r"embeddings must be \(N, m\)"):
            EmbeddingSet(np.ones(shape), ("a",))

    @pytest.mark.parametrize("split", [(None, None), ("", None), ("", "")])
    def test_split_without_tags_is_untagged(self, split):
        assert EmbeddingSet(np.ones((2, 1)), ("a", "b"), split).split is None

    def test_filter_split_of_split_without_tags(self):
        with pytest.raises(InvariantViolation, match="set has no split tags"):
            EmbeddingSet(np.ones((2, 1)), ("a", "b"), (None, None)).filter_split("base")

    def test_report_of_split_without_tags_is_null(self):
        emb = np.vstack([np.full((10, 2), 0.0), np.full((10, 2), 9.0)])
        data = EmbeddingSet(emb, ("a",) * 10 + ("b",) * 10, (None,) * 20)
        report = evaluate(data, EvalConfig(n_way=2, k_shot=1, q_queries=2, episodes=2))
        assert report.split is None and report_to_dict(report)["split"] is None

    def test_rejects_split_count_mismatch(self):
        with pytest.raises(InvariantViolation, match="1 split tags for 2 rows"):
            EmbeddingSet(np.ones((2, 1)), ("a", "b"), ("base",))

    def test_filter_split(self):
        data = EmbeddingSet(
            np.arange(6.0).reshape(3, 2), ("a", "a", "b"), ("base", "novel", "novel")
        )
        novel = data.filter_split("novel")
        assert novel.n == 2 and novel.labels == ("a", "b")

    def test_filter_split_errors(self):
        with pytest.raises(InvariantViolation, match="set has no split tags"):
            EmbeddingSet(np.ones((2, 1)), ("a", "b")).filter_split("base")
        with pytest.raises(InvariantViolation, match="no rows with split 'val'"):
            EmbeddingSet(np.ones((2, 1)), ("a", "b"), ("base", None)).filter_split("val")


class TestSampleEpisode:
    def test_standard_episode_shape(self):
        data = grid_dataset(n_classes=20, per_class=600 // 8)
        cfg = EvalConfig(n_way=5, k_shot=1, q_queries=15, episodes=1)
        ep = sample_episode(data, cfg, 0)
        assert ep.n_support == 5 and ep.n_query == 75
        assert ep.support.shape == (5, 1) and ep.query.shape == (5, 15)
        assert ep.classes == tuple(sorted(ep.classes))

    def test_labeled_fraction_two_of_five(self):
        data = grid_dataset()
        cfg = EvalConfig(n_way=5, k_shot=5, q_queries=5, labeled_fraction=0.4, episodes=1)
        ep = sample_episode(data, cfg, 0)
        np.testing.assert_array_equal(ep.labeled_mask.sum(axis=1), [2, 2, 2, 2, 2])

    @pytest.mark.parametrize(
        "fraction,k,expected",
        [(0.2, 5, 1), (0.4, 5, 2), (0.6, 5, 3), (1.0, 5, 5), (0.7, 10, 7), (0.5, 1, 1),
         (1e-10, 5, 1)],
    )
    def test_labeled_count_rounding(self, fraction, k, expected):
        assert labeled_count(fraction, k) == expected

    def test_class_too_small(self):
        data = gaussian_clusters(5, 10, spread=0.3, seed=1)
        cfg = EvalConfig(n_way=5, k_shot=5, q_queries=15, episodes=1)
        with pytest.raises(InsufficientClassSize):
            sample_episode(data, cfg, 0)

    def test_too_few_classes(self):
        data = gaussian_clusters(3, 50, spread=0.3, seed=2)
        cfg = EvalConfig(n_way=5, k_shot=1, q_queries=1, episodes=1)
        with pytest.raises(InsufficientClassCount):
            sample_episode(data, cfg, 0)

    def test_deterministic_per_index(self):
        data = grid_dataset()
        cfg = EvalConfig(n_way=5, k_shot=2, q_queries=5, u_unlabeled=7, episodes=1)
        a = sample_episode(data, cfg, 3)
        b = sample_episode(data, cfg, 3)
        assert a.classes == b.classes
        np.testing.assert_array_equal(a.support, b.support)
        np.testing.assert_array_equal(a.query, b.query)
        np.testing.assert_array_equal(a.unlabeled, b.unlabeled)
        np.testing.assert_array_equal(a.labeled_mask, b.labeled_mask)
        c = sample_episode(data, cfg, 4)
        assert (a.classes != c.classes) or (a.support != c.support).any()

    def test_disjoint_and_class_consistent(self):
        data = grid_dataset()
        cfg = EvalConfig(n_way=5, k_shot=3, q_queries=4, u_unlabeled=11, episodes=1)
        for index in range(25):
            ep = sample_episode(data, cfg, index)
            nodes = ep.node_indices()
            assert len(np.unique(nodes)) == nodes.size
            assert ep.n_unlabeled == 11
            for ci, cls in enumerate(ep.classes):
                assert all(data.labels[r] == cls for r in ep.support[ci])
                assert all(data.labels[r] == cls for r in ep.query[ci])
            assert all(data.labels[r] in ep.classes for r in ep.unlabeled)

    def test_unlabeled_class_balance(self):
        data = grid_dataset()
        cfg = EvalConfig(n_way=5, k_shot=1, q_queries=1, u_unlabeled=12, episodes=1)
        ep = sample_episode(data, cfg, 0)
        counts = [sum(1 for r in ep.unlabeled if data.labels[r] == c) for c in ep.classes]
        assert sorted(counts) == [2, 2, 2, 3, 3]

    @pytest.mark.parametrize("u_unlabeled", [0, 12])
    @pytest.mark.parametrize("fraction", [1.0, 0.4])
    def test_matches_sampler_with_every_mask_draw(self, fraction, u_unlabeled):
        data = grid_dataset()
        cfg = EvalConfig(n_way=5, k_shot=5, q_queries=6, u_unlabeled=u_unlabeled,
                         labeled_fraction=fraction, episodes=1, seed=9)
        for index in range(200):
            ep = sample_episode(data, cfg, index)
            classes, support, query, unlabeled, mask = sample_with_every_mask_draw(data, cfg, index)
            assert ep.classes == classes
            np.testing.assert_array_equal(ep.support, support)
            np.testing.assert_array_equal(ep.query, query)
            np.testing.assert_array_equal(ep.unlabeled, unlabeled)
            np.testing.assert_array_equal(ep.labeled_mask, mask)


def sample_with_every_mask_draw(data, cfg, episode_index):
    """The sampler's draws, drawing every class's labeled mask even when all supports are labeled."""
    rng = episodes.episode_rng(cfg.seed, episode_index)
    by_class = data.class_rows()
    max_need = cfg.k_shot + cfg.q_queries + math.ceil(cfg.u_unlabeled / cfg.n_way)
    eligible = [c for c in sorted(by_class) if by_class[c].size >= max_need]
    classes = tuple(sorted(eligible[i] for i in rng.choice(len(eligible), size=cfg.n_way,
                                                           replace=False)))
    base, extra = divmod(cfg.u_unlabeled, cfg.n_way)
    support, query, unlabeled = [], [], []
    for ci, cls in enumerate(classes):
        u_c = base + (1 if ci < extra else 0)
        rows = rng.choice(by_class[cls], size=cfg.k_shot + cfg.q_queries + u_c, replace=False)
        support.append(rows[: cfg.k_shot])
        query.append(rows[cfg.k_shot : cfg.k_shot + cfg.q_queries])
        unlabeled.append(rows[cfg.k_shot + cfg.q_queries :])
    n_labeled = labeled_count(cfg.labeled_fraction, cfg.k_shot)
    mask = np.zeros((cfg.n_way, cfg.k_shot), dtype=bool)
    for ci in range(cfg.n_way):
        mask[ci, rng.choice(cfg.k_shot, size=n_labeled, replace=False)] = True
    return classes, np.array(support), np.array(query), np.concatenate(unlabeled), mask


class TestEpisode:
    def test_class_without_labeled_support_rejected(self):
        with pytest.raises(EmptyClass, match="class 1"):
            Episode(
                classes=("a", "b", "c"),
                support=np.array([[0, 1], [2, 3], [4, 5]]),
                query=np.array([[6], [7], [8]]),
                unlabeled=np.empty(0, dtype=np.intp),
                labeled_mask=np.array([[True, False], [False, False], [False, True]]),
            )

    def test_negative_row_index_rejected(self):
        # -1 would silently select the last dataset row, from outside the episode
        with pytest.raises(InvariantViolation, match="negative row index -1"):
            Episode(
                classes=("a", "b"),
                support=np.array([[0], [2]]),
                query=np.array([[1], [-1]]),
                unlabeled=np.empty(0, dtype=np.intp),
                labeled_mask=np.ones((2, 1), dtype=bool),
            )

    @pytest.mark.parametrize("field, value, message", [
        ("support", np.array([0, 2]), r"support must be \(2, k\), got \(2,\)"),
        ("query", np.array([[1, 3]]), r"query must be \(2, q\), got \(1, 2\)"),
        ("labeled_mask", np.ones((2, 2), dtype=bool), "labeled_mask must match support shape"),
        ("unlabeled", np.array([3]), "support, query, and unlabeled indices overlap"),
    ], ids=["support", "query", "mask", "overlap"])
    def test_malformed_layout_rejected(self, field, value, message):
        layout = dict(
            classes=("a", "b"),
            support=np.array([[0], [2]]),
            query=np.array([[1], [3]]),
            unlabeled=np.empty(0, dtype=np.intp),
            labeled_mask=np.ones((2, 1), dtype=bool),
        )
        layout[field] = value
        with pytest.raises(InvariantViolation, match=message):
            Episode(**layout)

    @pytest.mark.parametrize("kind", sorted(NON_INTEGER))
    @pytest.mark.parametrize("field", ["support", "query", "unlabeled"])
    def test_non_integer_indices_rejected(self, field, kind):
        layout = dict(
            classes=("a", "b"),
            support=np.array([[0], [2]]),
            query=np.array([[1], [3]]),
            unlabeled=np.array([4]),
            labeled_mask=np.ones((2, 1), dtype=bool),
        )
        layout[field] = NON_INTEGER[kind](layout[field])
        with pytest.raises(TypeError, match=f"^{field} must hold integers, got dtype "):
            Episode(**layout)

    def test_empty_unlabeled_list_accepted(self):
        ep = Episode(
            classes=("a", "b"),
            support=np.array([[0], [2]]),
            query=np.array([[1], [3]]),
            unlabeled=[],
            labeled_mask=np.ones((2, 1), dtype=bool),
        )
        assert ep.unlabeled.dtype == np.intp and ep.unlabeled.shape == (0,)

    def test_duplicate_class_identifiers_rejected(self):
        # a repeated class would score 0.0 in run_episode
        with pytest.raises(InvariantViolation, match="duplicate class identifiers"):
            Episode(
                classes=("c000", "c000"),
                support=np.array([[0], [1]]),
                query=np.array([[2], [3]]),
                unlabeled=np.empty(0, dtype=np.intp),
                labeled_mask=np.ones((2, 1), dtype=bool),
            )


class TestRunEpisode:
    def test_row_outside_the_set_rejected(self, episode_past_the_set):
        data, ep, cfg = episode_past_the_set
        with pytest.raises(InvariantViolation, match="episode row 99 outside a set of 30 rows"):
            run_episode(data, ep, cfg)

    def test_point_mass_classes_are_trivial(self):
        emb = np.array([[0.0, 0.0]] * 10 + [[100.0, 0.0]] * 10)
        data = EmbeddingSet(emb, ("a",) * 10 + ("b",) * 10)
        for clf in (Classifier.LABEL_PROP, Classifier.PROTOTYPICAL):
            cfg = EvalConfig(n_way=2, k_shot=1, q_queries=1, episodes=1, classifier=clf)
            ep = sample_episode(data, cfg, 0)
            _, accuracy, _ = run_episode(data, ep, cfg)
            assert accuracy == 1.0

    def test_identity_proto_is_nearest_support(self):
        data = grid_dataset(n_classes=6, per_class=30)
        cfg = EvalConfig(
            n_way=5, k_shot=1, q_queries=6, episodes=1,
            mode=PropagationMode.IDENTITY, classifier=Classifier.PROTOTYPICAL,
        )
        ep = sample_episode(data, cfg, 1)
        preds, _, _ = run_episode(data, ep, cfg)
        sup = data.embeddings[ep.support.ravel()]
        q = data.embeddings[ep.query.ravel()]
        d2 = ((q[:, None, :] - sup[None, :, :]) ** 2).sum(-1)
        np.testing.assert_array_equal(preds, np.argmin(d2, axis=1))

    def test_all_wrong_gives_zero(self):
        # two classes at the same point except the supports are swapped
        emb = np.vstack([
            np.full((5, 2), 0.0), np.full((5, 2), 10.0),   # class a rows
            np.full((5, 2), 10.0), np.full((5, 2), 0.0),   # class b rows
        ])
        data = EmbeddingSet(emb, ("a",) * 10 + ("b",) * 10)
        # construct the pathological episode by hand
        from embedprop.episodes import Episode

        ep = Episode(
            classes=("a", "b"),
            support=np.array([[0], [10]]),   # a-support at 0.0, b-support at 10.0
            query=np.array([[5, 6], [15, 16]]),  # a-queries at 10.0, b-queries at 0.0
            unlabeled=np.empty(0, dtype=np.intp),
            labeled_mask=np.ones((2, 1), dtype=bool),
        )
        cfg = EvalConfig(n_way=2, k_shot=1, q_queries=2, episodes=1)
        _, accuracy, _ = run_episode(data, ep, cfg)
        assert accuracy == 0.0

    def test_scores_cover_all_nodes(self):
        data = grid_dataset(n_classes=6, per_class=30)
        cfg = EvalConfig(n_way=3, k_shot=2, q_queries=4, u_unlabeled=6, episodes=1)
        ep = sample_episode(data, cfg, 0)
        preds, _, scores = run_episode(data, ep, cfg)
        assert scores.shape == (ep.n_support + ep.n_query + ep.n_unlabeled, 3)
        assert preds.shape == (ep.n_query,)


    @pytest.mark.parametrize("classifier", list(Classifier), ids=lambda c: c.value)
    @pytest.mark.parametrize("mode", list(PropagationMode), ids=lambda m: m.value)
    def test_label_propagation_graph_builds(self, monkeypatch, mode, classifier):
        # embedding propagation builds a graph unless the mode is IDENTITY, and
        # label propagation builds its own on ztilde; prototypes read no graph
        builds = (mode is not PropagationMode.IDENTITY) + (classifier is Classifier.LABEL_PROP)
        data = grid_dataset(n_classes=6, per_class=30)
        cfg = EvalConfig(n_way=5, k_shot=2, q_queries=3, episodes=1, mode=mode,
                         classifier=classifier)
        ep = sample_episode(data, cfg, 0)
        calls = record_builds(monkeypatch)
        run_episode(data, ep, cfg)
        assert len(calls) == builds

    def test_full_label_propagation_never_inverts(self, monkeypatch):
        # embedding width m < n nodes: both P @ Z and P @ Y are solves with
        # fewer than n right-hand-side columns, so P is never formed
        data = grid_dataset(n_classes=6, per_class=30)
        cfg = EvalConfig(n_way=5, k_shot=2, q_queries=3, episodes=1)
        ep = sample_episode(data, cfg, 0)
        n = ep.n_support + ep.n_query
        assert data.dim < n
        widths = []
        original = numerics.solve_spd

        def recording(m, b):
            widths.append(1 if b.ndim == 1 else b.shape[1])
            return original(m, b)

        monkeypatch.setattr(numerics, "solve_spd", recording)
        run_episode(data, ep, cfg)
        assert widths == [data.dim, ep.n_way]


class TestSslPredict:
    def test_pass_two_reference_rows(self):
        data = grid_dataset(n_classes=8, per_class=50)
        cfg = EvalConfig(n_way=5, k_shot=1, q_queries=3, u_unlabeled=100,
                         episodes=1, ssl=SslMode.PSEUDO_LABEL)
        ep = sample_episode(data, cfg, 0)
        assert ep.n_unlabeled == 100
        preds = ssl_predict(data, ep, cfg)
        assert preds.shape == (ep.n_query,)
        # pass 2 references = n*k labeled supports + the whole pool
        assert int(ep.labeled_mask.sum()) + ep.n_unlabeled == 5 * 1 + 100

    def test_pool_point_identical_to_support(self):
        emb = np.array([
            [0.0, 0.0], [0.0, 0.0], [0.0, 0.1],     # class a: support, pool twin, query
            [10.0, 0.0], [10.0, 0.0], [10.0, 0.1],  # class b
        ])
        data = EmbeddingSet(emb, ("a", "a", "a", "b", "b", "b"))
        ep = Episode(
            classes=("a", "b"),
            support=np.array([[0], [3]]),
            query=np.array([[2], [5]]),
            unlabeled=np.array([1, 4]),
            labeled_mask=np.ones((2, 1), dtype=bool),
        )
        # pass-1 scores, from which the pool rows are pseudo-labeled
        cfg = EvalConfig(n_way=2, k_shot=1, q_queries=1, u_unlabeled=2, episodes=1)
        scores = infer(data.embeddings[ep.node_indices()], ep, cfg)
        pseudo = predict(scores[4:6])  # pool rows come last
        np.testing.assert_array_equal(pseudo, [0, 1])

    def test_no_pool_rejected(self):
        data = grid_dataset(n_classes=6, per_class=30)
        cfg = EvalConfig(n_way=5, k_shot=1, q_queries=2, u_unlabeled=0, episodes=1)
        ep = sample_episode(data, cfg, 0)
        with pytest.raises(NoUnlabeledPool):
            ssl_predict(data, ep, cfg)  # pseudo-labels whatever cfg.ssl says
        with pytest.raises(NoUnlabeledPool):
            run_episode(data, ep, dataclasses.replace(cfg, ssl=SslMode.PSEUDO_LABEL))

    @pytest.mark.parametrize("call", [ssl_predict, run_episode], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "classifier,builds", [(Classifier.LABEL_PROP, 2), (Classifier.PROTOTYPICAL, 1)]
    )
    def test_one_label_graph_per_batch(self, monkeypatch, classifier, builds, call):
        # `builds` is the FULL count: one graph for embedding propagation, plus
        # under label propagation one label graph on ztilde that both passes
        # score against; IDENTITY builds no embedding graph, so one fewer
        data = grid_dataset(n_classes=6, per_class=30)
        calls = record_builds(monkeypatch)
        for mode, expected in ((PropagationMode.FULL, builds),
                               (PropagationMode.IDENTITY, builds - 1)):
            cfg = EvalConfig(n_way=5, k_shot=2, q_queries=3, u_unlabeled=5, episodes=1,
                             mode=mode, classifier=classifier, ssl=SslMode.PSEUDO_LABEL)
            ep = sample_episode(data, cfg, 0)
            calls.clear()
            call(data, ep, cfg)
            assert len(calls) == expected, mode

    @pytest.mark.parametrize("classifier", list(Classifier))
    def test_run_episode_follows_ssl(self, classifier):
        # run_episode is the per-episode unit of evaluate, SSL included
        data = gaussian_clusters(8, 40, 0.5, seed=11, dim=12)
        cfg = EvalConfig(n_way=5, k_shot=3, q_queries=5, u_unlabeled=10, labeled_fraction=0.4,
                         episodes=20, classifier=classifier, ssl=SslMode.PSEUDO_LABEL, seed=7)
        report = evaluate(data, cfg)
        for index, expected in enumerate(report.accuracies):
            ep = sample_episode(data, cfg, index)
            preds, accuracy, _ = run_episode(data, ep, cfg)
            np.testing.assert_array_equal(preds, ssl_predict(data, ep, cfg))
            assert accuracy == expected

    def test_matches_public_api_chain(self):
        data = grid_dataset(n_classes=8, per_class=30)
        cfg = EvalConfig(n_way=5, k_shot=3, q_queries=4, u_unlabeled=10,
                         labeled_fraction=0.4, episodes=1, ssl=SslMode.PSEUDO_LABEL)
        for index in range(5):
            ep = sample_episode(data, cfg, index)
            z = data.embeddings[ep.node_indices()]
            ztilde, _ = propagate_embeddings(z, cfg.graph, cfg.mode)
            mask = ep.labeled_mask.ravel()
            rows = np.flatnonzero(mask)
            classes = np.repeat(np.arange(ep.n_way), ep.k_shot)[rows]
            q_hi = ep.n_support + ep.n_query
            pool = np.concatenate([np.flatnonzero(~mask), np.arange(q_hi, z.shape[0])])
            y = build_label_matrix(z.shape[0], ep.n_way, rows, classes)
            first = label_propagation_scores(ztilde, y, cfg.graph)
            y2 = build_label_matrix(z.shape[0], ep.n_way, np.concatenate([rows, pool]),
                                    np.concatenate([classes, predict(first[pool])]))
            second = label_propagation_scores(ztilde, y2, cfg.graph)
            expected = predict(second[ep.n_support:q_hi])
            np.testing.assert_array_equal(ssl_predict(data, ep, cfg), expected)

    def test_partial_labels_make_a_pool(self):
        data = grid_dataset(n_classes=6, per_class=30)
        cfg = EvalConfig(n_way=5, k_shot=5, q_queries=2, u_unlabeled=0,
                         labeled_fraction=0.2, episodes=1, ssl=SslMode.PSEUDO_LABEL)
        ep = sample_episode(data, cfg, 0)
        preds = ssl_predict(data, ep, cfg)
        assert preds.shape == (ep.n_query,)


class TestEvaluate:
    def test_perfect_data_perfect_report(self):
        emb = np.vstack([np.full((20, 2), c * 50.0) for c in range(5)])
        labels = tuple(f"c{c}" for c in range(5) for _ in range(20))
        data = EmbeddingSet(emb, labels)
        cfg = EvalConfig(n_way=5, k_shot=1, q_queries=3, episodes=8)
        report = evaluate(data, cfg)
        assert report.mean == 1.0 and report.ci95 == 0.0
        assert len(report.accuracies) == 8

    @pytest.mark.parametrize("pattern, expected", [
        (None, None),
        (("novel", "base", None, "novel"), ("base", "novel")),
        (("val",), ("val",)),
    ])
    def test_report_names_the_sorted_split_tags(self, pattern, expected):
        data = grid_dataset(n_classes=5, per_class=8)
        split = None if pattern is None else [pattern[i % len(pattern)] for i in range(data.n)]
        cfg = EvalConfig(n_way=5, k_shot=1, q_queries=2, episodes=2)
        report = evaluate(EmbeddingSet(data.embeddings, data.labels, split), cfg)
        assert report.split == expected

    def test_ci_closed_form(self):
        assert confidence_interval95([0.0, 1.0]) == pytest.approx(0.98, abs=1e-12)
        assert confidence_interval95([0.7]) == 0.0
        expected = 1.96 * np.std([0.2, 0.4, 0.9], ddof=1) / math.sqrt(3)
        assert confidence_interval95([0.2, 0.4, 0.9]) == pytest.approx(expected)

    def test_deterministic_across_thread_counts(self, monkeypatch):
        data = grid_dataset(n_classes=8, per_class=30)
        cfg = EvalConfig(n_way=5, k_shot=1, q_queries=5, episodes=40)
        monkeypatch.setenv("EP_THREADS", "1")
        serial = evaluate(data, cfg)
        monkeypatch.setenv("EP_THREADS", "5")
        threaded = evaluate(data, cfg)
        assert serial.accuracies == threaded.accuracies
        assert serial.mean == threaded.mean and serial.ci95 == threaded.ci95

    def test_bits_equal_across_thread_counts_above_the_pool_size(self, monkeypatch):
        # 80 rows x 640 columns is a job past numerics.BLOCK_ELEMENTS, so the
        # episodes really run on 1, 2 and 4 workers; 7 of them split unevenly,
        # and four workers on fewer cores, switching often, would expose a
        # lost or misplaced result
        monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        data = gaussian_clusters(6, 20, spread=0.4, seed=11, dim=640)
        cfg = EvalConfig(n_way=5, k_shot=1, q_queries=15, episodes=7)
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in ("1", "2", "4"):
                monkeypatch.setenv("EP_THREADS", threads)
                assert numerics.workers_for(80 * 80 * 640) == int(threads)
                reports.append(evaluate(data, cfg))
        finally:
            sys.setswitchinterval(interval)
        first = reports[0]
        assert all(r.accuracies == first.accuracies for r in reports[1:])
        assert all(r.mean == first.mean and r.ci95 == first.ci95 for r in reports[1:])

    def test_thread_count_capped_at_cpu_count(self, monkeypatch):
        # pure function of the env var and the usable CPUs; starts no thread
        def usable(count):
            monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: set(range(count)),
                                raising=False)

        usable(3)
        monkeypatch.setenv("EP_THREADS", "64")
        assert thread_count() == 3
        monkeypatch.setenv("EP_THREADS", "2")
        assert thread_count() == 2
        monkeypatch.delenv("EP_THREADS")
        assert thread_count() == 3
        usable(32)
        assert thread_count() == 8
        # platforms without an affinity mask fall back to os.cpu_count
        monkeypatch.delattr(numerics.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: None)
        assert thread_count() == 1
        monkeypatch.setenv("EP_THREADS", "4")
        assert thread_count() == 1
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: 3)
        assert thread_count() == 3

    def test_thread_count_capped_at_affinity(self, monkeypatch):
        # a process pinned to one of four CPUs gets one worker
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.delenv("EP_THREADS", raising=False)
        assert thread_count() == 1
        monkeypatch.setenv("EP_THREADS", "4")
        assert thread_count() == 1

    def test_bad_ep_threads_rejected(self, monkeypatch):
        data = grid_dataset(n_classes=6, per_class=20)
        cfg = EvalConfig(n_way=5, k_shot=1, q_queries=2, episodes=2)
        monkeypatch.setenv("EP_THREADS", "lots")
        with pytest.raises(ValueError):
            evaluate(data, cfg)
        monkeypatch.setenv("EP_THREADS", "0")
        with pytest.raises(ValueError):
            evaluate(data, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(n_way=1)
        with pytest.raises(ValueError):
            EvalConfig(labeled_fraction=0.0)
        with pytest.raises(ValueError):
            EvalConfig(episodes=0)
        with pytest.raises(ValueError):
            EvalConfig(seed=-1)

    @pytest.mark.parametrize("field, value, message", [
        ("k_shot", 0, "k_shot must be >= 1, got 0"),
        ("q_queries", 0, "q_queries must be >= 1, got 0"),
        ("u_unlabeled", -1, "u_unlabeled must be >= 0, got -1"),
    ], ids=["k_shot", "q_queries", "u_unlabeled"])
    def test_config_rejects_counts_below_their_range(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            EvalConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_way", 2.5), ("k_shot", 1.5), ("q_queries", 2.0), ("u_unlabeled", 1.0),
        ("episodes", 2.0), ("seed", 1.5),
    ])
    def test_config_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EvalConfig(**{field: value})

    @pytest.mark.parametrize("config, field, kind", [
        *(pytest.param(EvalConfig, name, "an integer", id=name)
          for name in ("n_way", "k_shot", "q_queries", "u_unlabeled", "episodes", "seed")),
        pytest.param(EvalConfig, "labeled_fraction", "a real number", id="labeled_fraction"),
        pytest.param(GraphConfig, "sigma2_override", "a real number", id="sigma2_override"),
        pytest.param(GraphConfig, "alpha", "a real number", id="alpha"),
    ])
    @pytest.mark.parametrize("value", [True, False])
    def test_config_rejects_bool_counts(self, config, field, kind, value):
        # bool passes numbers.Integral and numbers.Real: k_shot=True would
        # build a 1-shot config, labeled_fraction=True a fraction of 1
        with pytest.raises(ValueError, match=f"^{field} must be {kind}, got {value}$"):
            config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("mode", "full"), ("classifier", "lp"), ("ssl", "pseudo"), ("graph", None),
        ("classifier", PropagationMode.FULL), ("labeled_fraction", "0.5"),
        ("labeled_fraction", np.True_),
    ])
    def test_config_rejects_values_outside_its_types(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a "):
            EvalConfig(**{field: value})

    def test_config_accepts_numpy_integers(self):
        cfg = EvalConfig(n_way=np.int64(3), k_shot=np.int32(2), episodes=np.int64(4),
                         seed=np.uint64(2**63))
        assert evaluate(grid_dataset(), cfg).accuracies == evaluate(
            grid_dataset(), EvalConfig(n_way=3, k_shot=2, episodes=4, seed=2**63)
        ).accuracies


@pytest.mark.slow
def test_ssl_dominance_on_easy_data():
    # tight clusters: spread / inter-center distance = 0.12/sqrt(2) < 0.1
    data = gaussian_clusters(6, 30, spread=0.12, seed=7)
    base_cfg = EvalConfig(n_way=5, k_shot=1, q_queries=5, u_unlabeled=10,
                          episodes=1000, seed=7)
    ssl_cfg = dataclasses.replace(base_cfg, ssl=SslMode.PSEUDO_LABEL)
    base = evaluate(data, base_cfg)
    ssl = evaluate(data, ssl_cfg)
    assert ssl.mean >= base.mean - 0.01


def test_query_truth_layout():
    data = grid_dataset(n_classes=6, per_class=30)
    cfg = EvalConfig(n_way=3, k_shot=1, q_queries=2, episodes=1)
    ep = sample_episode(data, cfg, 0)
    np.testing.assert_array_equal(query_truth(ep), [0, 0, 1, 1, 2, 2])
    nodes = ep.node_indices()
    labels = [data.labels[i] for i in nodes[ep.n_support : ep.n_support + ep.n_query]]
    assert labels == [ep.classes[c] for c in query_truth(ep)]


def _lp_full_query_predictions(z, data, cfg):
    """LP + FULL query predictions of cfg.episodes episodes of `data` with its rows replaced by `z`."""
    moved = EmbeddingSet(z, data.labels)
    return np.concatenate([run_episode(moved, sample_episode(data, cfg, i), cfg)[0]
                           for i in range(cfg.episodes)])


_SCALE_SET = gaussian_clusters(8, 40, spread=0.4, seed=7, dim=8)
_SCALE_CFG = EvalConfig(n_way=5, k_shot=5, q_queries=15, episodes=20, seed=3)


@pytest.mark.xfail(
    strict=True,
    reason="P's row masses vary per row (about 1/(1 - alpha)), so a common offset c adds "
    "about r_i * c to row i and the graph on ztilde changes: +100 flips 1151 of the 1500 "
    "query predictions (README, 'A note on scale')",
)
def test_common_offset_keeps_lp_full_predictions():
    z = _SCALE_SET.embeddings
    np.testing.assert_array_equal(
        _lp_full_query_predictions(z + 100.0, _SCALE_SET, _SCALE_CFG),
        _lp_full_query_predictions(z, _SCALE_SET, _SCALE_CFG),
    )


@pytest.mark.xfail(
    strict=True,
    reason="the variance bandwidth scales as c^4 while d^2 scales as c^2, so a uniform scale "
    "changes every edge weight: x10 flips 65 of the 1500 query predictions (README, "
    "'A note on scale')",
)
def test_uniform_scale_keeps_lp_full_predictions():
    z = _SCALE_SET.embeddings
    np.testing.assert_array_equal(
        _lp_full_query_predictions(z * 10.0, _SCALE_SET, _SCALE_CFG),
        _lp_full_query_predictions(z, _SCALE_SET, _SCALE_CFG),
    )
