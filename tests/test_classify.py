import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embedprop.classify import (
    build_label_matrix,
    label_propagation_scores,
    predict,
    prototypical_scores,
    softmax_probs,
)
from embedprop.errors import DimensionMismatch, EmptyClass, LabelOutOfRange
from embedprop.graph import GraphConfig

from test_graph import neumann_propagator, laplacian_from_points

# index arrays of the right values and shape in a dtype the index rule refuses
NON_INTEGER = {
    "float": lambda a: np.asarray(a, dtype=np.float64),
    "bool": lambda a: np.asarray(a).astype(bool),
    "object": lambda a: np.asarray(a, dtype=object),
}


class TestLabelPropagationScores:
    def test_duplicate_of_support_gets_its_class(self):
        z = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        y = build_label_matrix(3, 2, [0, 2], [0, 1])
        scores = label_propagation_scores(z, y, GraphConfig())
        assert predict(scores[1:2])[0] == 0

    def test_nearest_support_wins_vs_neumann_oracle(self):
        # supports at (0,0) class 0 and (10,0) class 1; query at (0.1, 0)
        z = np.array([[0.0, 0.0], [10.0, 0.0], [0.1, 0.0]])
        y = build_label_matrix(3, 2, [0, 1], [0, 1])
        cfg = GraphConfig(alpha=0.5)
        scores = label_propagation_scores(z, y, cfg)
        assert predict(scores[2:3])[0] == 0
        # independent path: truncated series propagator times the labels
        oracle_p = neumann_propagator(laplacian_from_points(z, cfg), 0.5, 400)
        oracle_scores = oracle_p @ y
        np.testing.assert_allclose(scores, oracle_scores, atol=1e-6)
        assert predict(oracle_scores[2:3])[0] == 0

    def test_all_zero_labels_rejected(self):
        z = np.random.default_rng(0).normal(size=(4, 2))
        with pytest.raises(EmptyClass):
            label_propagation_scores(z, np.zeros((4, 2)), GraphConfig())

    def test_empty_class_column_rejected(self):
        z = np.random.default_rng(1).normal(size=(4, 2))
        y = build_label_matrix(4, 3, [0, 1], [0, 0])  # class 1, 2 empty
        with pytest.raises(EmptyClass):
            label_propagation_scores(z, y, GraphConfig())

    @pytest.mark.parametrize("y, message", [
        ([[0.5, 0.0], [0.0, 1.0]], "entries must be 0 or 1"),
        ([[1.0, 1.0], [0.0, 1.0]], "at most one 1"),
    ], ids=["fractional", "two-ones"])
    def test_malformed_label_matrix_rejected(self, y, message):
        with pytest.raises(ValueError, match=message):
            label_propagation_scores(np.array([[0.0], [1.0]]), y, GraphConfig())

    @pytest.mark.parametrize("shape", [(3, 2), (2,)])
    def test_label_matrix_needs_one_row_per_node(self, shape):
        with pytest.raises(DimensionMismatch, match="label matrix must have 2 rows"):
            label_propagation_scores(np.array([[0.0], [1.0]]), np.zeros(shape), GraphConfig())

    def test_scores_nonnegative_and_cover_all_rows(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(9, 3))
        y = build_label_matrix(9, 3, [0, 1, 2], [0, 1, 2])
        scores = label_propagation_scores(z, y, GraphConfig())
        assert scores.shape == (9, 3)
        assert scores.min() >= -1e-9

    def test_alpha_to_zero_zeroes_query_rows(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(6, 2))
        y = build_label_matrix(6, 2, [0, 1], [0, 1])
        scores = label_propagation_scores(z, y, GraphConfig(alpha=1e-12))
        assert np.abs(scores[2:]).max() <= 1e-9

    def test_node_and_label_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(8, 3))
        y = build_label_matrix(8, 2, [0, 1], [0, 1])
        cfg = GraphConfig(alpha=0.7)
        perm = rng.permutation(8)
        s1 = label_propagation_scores(z, y, cfg)
        s2 = label_propagation_scores(z[perm], y[perm], cfg)
        assert np.abs(s2 - s1[perm]).max() <= 1e-9


class TestBuildLabelMatrix:
    def test_one_hot_rows(self):
        y = build_label_matrix(4, 3, [0, 3], [2, 0])
        np.testing.assert_array_equal(y, [[0, 0, 1], [0, 0, 0], [0, 0, 0], [1, 0, 0]])

    @pytest.mark.parametrize("row", [-1, 3, 5])
    def test_row_outside_nodes_rejected(self, row):
        # a negative row would otherwise label a node counted from the end
        with pytest.raises(LabelOutOfRange, match=f"row {row} outside"):
            build_label_matrix(3, 2, [0, row], [0, 1])

    @pytest.mark.parametrize("cls", [-1, 2])
    def test_class_outside_columns_rejected(self, cls):
        with pytest.raises(LabelOutOfRange):
            build_label_matrix(3, 2, [0], [cls])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch, match="matching lengths"):
            build_label_matrix(3, 2, [0, 1], [0])

    @pytest.mark.parametrize("kind", sorted(NON_INTEGER))
    @pytest.mark.parametrize("arg", ["rows", "classes"])
    def test_non_integer_indices_rejected(self, arg, kind):
        # a cast would truncate 1.7 to 1 and read True as 1, without a word
        indices = dict(rows=[2, 1], classes=[1, 0])
        indices[arg] = NON_INTEGER[kind](indices[arg])
        with pytest.raises(TypeError, match=f"^{arg} must hold integers, got dtype "):
            build_label_matrix(3, 2, **indices)

    def test_empty_float_indices_accepted(self):
        # np.asarray([]) is float64; no index is truncated
        assert (build_label_matrix(3, 2, np.array([]), []) == 0.0).all()


class TestSoftmax:
    def test_uniform_rows(self):
        np.testing.assert_allclose(softmax_probs([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-15)
        np.testing.assert_allclose(
            softmax_probs([[3.0, 3.0, 3.0]]), [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15
        )

    def test_closed_form(self):
        np.testing.assert_allclose(
            softmax_probs([[math.log(3.0), 0.0]]), [[0.75, 0.25]], atol=1e-12
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        p = softmax_probs(rng.normal(scale=8, size=(20, 6)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert (p > 0).all() and (p < 1).all()


class TestPrototypicalScores:
    def test_class_mean_prototype(self):
        sup = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 5.0]])
        scores = prototypical_scores(sup, [0, 0, 1], np.array([[0.9, 0.0]]))
        assert scores[0, 0] == pytest.approx(-0.01)

    def test_equidistant_tie_breaks_low(self):
        sup = np.array([[-1.0, 0.0], [1.0, 0.0]])
        scores = prototypical_scores(sup, [0, 1], np.array([[0.0, 0.0]]))
        assert scores[0, 0] == scores[0, 1]
        assert predict(scores)[0] == 0

    def test_single_support_is_prototype(self):
        sup = np.array([[1.0, 2.0], [3.0, 4.0]])
        q = np.array([[1.0, 2.0]])
        scores = prototypical_scores(sup, [0, 1], q)
        assert scores[0, 0] == 0.0
        assert scores[0, 1] == pytest.approx(-8.0)

    def test_missing_class_rejected(self):
        with pytest.raises(EmptyClass):
            prototypical_scores(np.array([[0.0], [1.0]]), [0, 0], np.array([[0.5]]), n_classes=2)

    @pytest.mark.parametrize("query_dim, labels, n_classes, error, message", [
        (2, [0, 1], None, DimensionMismatch, "support and query dimensions differ"),
        (1, [0], None, DimensionMismatch, "one label per support row"),
        (1, [0, -1], None, LabelOutOfRange, "negative class index"),
        (1, [0, 2], 2, LabelOutOfRange, r"label index outside \[0, 2\)"),
    ], ids=["widths", "label-count", "negative", "out-of-range"])
    def test_bad_inputs_rejected(self, query_dim, labels, n_classes, error, message):
        with pytest.raises(error, match=message):
            prototypical_scores(np.array([[0.0], [1.0]]), labels, np.zeros((1, query_dim)),
                                n_classes=n_classes)

    @pytest.mark.parametrize("kind", sorted(NON_INTEGER))
    def test_non_integer_labels_rejected(self, kind):
        labels = NON_INTEGER[kind]([0, 1])
        with pytest.raises(TypeError, match="^support_labels must hold integers, got dtype "):
            prototypical_scores(np.array([[0.0], [1.0]]), labels, np.zeros((1, 1)))

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        sup = rng.normal(size=(6, 4))
        q = rng.normal(size=(3, 4))
        shift = rng.normal(size=4)
        s1 = prototypical_scores(sup, [0, 0, 1, 1, 2, 2], q)
        s2 = prototypical_scores(sup + shift, [0, 0, 1, 1, 2, 2], q + shift)
        assert np.abs(s1 - s2).max() <= 1e-9


class TestPredict:
    def test_basic_argmax(self):
        assert predict([[0.2, 0.9]])[0] == 1

    def test_tie_breaks_low(self):
        assert predict([[0.5, 0.5]])[0] == 0

    def test_identity_scores(self):
        np.testing.assert_array_equal(predict(np.eye(3)), [0, 1, 2])


@given(
    scores=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 5)),
        # spaced grid: distinct scores stay distinct through exp, exact ties stay ties
        elements=st.integers(-200, 200).map(lambda v: v / 4.0),
    )
)
def test_softmax_preserves_argmax(scores):
    np.testing.assert_array_equal(predict(softmax_probs(scores)), predict(scores))
