"""Transductive classifiers over a propagated batch.

Label propagation diffuses one-hot reference labels through a graph built on
the batch: scores = P @ Y, where Y has a one-hot row per labeled node and a
zero row everywhere else. The prototypical scorer is the ablation baseline:
negative squared distance to per-class mean embeddings.
"""

import numpy as np

from . import graph, numerics
from .errors import DimensionMismatch, EmptyClass, LabelOutOfRange
from .graph import GraphConfig


def build_label_matrix(n_nodes: int, n_classes: int, rows, classes) -> np.ndarray:
    """One-hot label matrix: row r of `rows` gets a 1 in column `classes[r]`.

    Raises TypeError for a non-integer `rows` or `classes`, and
    LabelOutOfRange for a row outside [0, n_nodes) or a class outside
    [0, n_classes).
    """
    rows = numerics.as_index(rows, "rows")
    classes = numerics.as_index(classes, "classes")
    if rows.shape != classes.shape:
        raise DimensionMismatch("rows and classes must have matching lengths")
    outside = rows[(rows < 0) | (rows >= n_nodes)]
    if outside.size:
        raise LabelOutOfRange(f"row {outside[0]} outside [0, {n_nodes})")
    if classes.size and (classes.min() < 0 or classes.max() >= n_classes):
        raise LabelOutOfRange(f"class index outside [0, {n_classes})")
    y = np.zeros((n_nodes, n_classes))
    y[rows, classes] = 1.0
    return y


def _check_label_matrix(y: np.ndarray) -> None:
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("label matrix entries must be 0 or 1")
    row_sums = y.sum(axis=1)
    if (row_sums > 1.0).any():
        raise ValueError("label matrix rows must have at most one 1")
    col_sums = y.sum(axis=0)
    if (col_sums < 1.0).any():
        bad = int(np.argmin(col_sums))
        raise EmptyClass(f"class {bad} has no labeled row")


def label_propagation_scores(ztilde, labels, cfg: GraphConfig) -> np.ndarray:
    """Diffuse one-hot labels through a fresh graph on `ztilde`.

    The graph (bandwidth included) is rebuilt from `ztilde`; nothing is
    reused from the embedding-propagation step. Every node receives a score
    row, labeled ones included, so callers can inspect the diffusion on the
    references themselves.

    Raises EmptyClass when some class column has no labeled row.
    """
    ztilde = numerics.as_matrix(ztilde, "Ztilde")
    y = numerics.as_real(labels, "labels")
    if y.ndim != 2 or y.shape[0] != ztilde.shape[0]:
        raise DimensionMismatch(
            f"label matrix must have {ztilde.shape[0]} rows, got shape {y.shape}"
        )
    _check_label_matrix(y)
    prop = graph.build_propagator(ztilde, cfg)
    return prop.apply(y)


def softmax_probs(scores) -> np.ndarray:
    """Row-wise softmax with the usual max-shift for stability."""
    s = numerics.as_matrix(scores, "scores")
    shifted = s - s.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def prototypical_scores(support_z, support_labels, query_z, n_classes: int | None = None) -> np.ndarray:
    """Negative squared Euclidean distance to per-class support means.

    score(q, c) = -||z_q - mu_c||^2 with mu_c the mean of the class-c support
    rows. Scores are nonpositive, unlike label-propagation scores. Raises
    TypeError for non-integer labels, and EmptyClass when a class in
    [0, n_classes) has no support row.
    """
    support_z = numerics.as_matrix(support_z, "support_Z")
    query_z = numerics.as_matrix(query_z, "query_Z")
    if support_z.shape[1] != query_z.shape[1]:
        raise DimensionMismatch("support and query dimensions differ")
    labels = numerics.as_index(support_labels, "support_labels")
    if labels.ndim != 1 or labels.shape[0] != support_z.shape[0]:
        raise DimensionMismatch("need one label per support row")
    if labels.min() < 0:
        raise LabelOutOfRange("negative class index")
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    elif labels.max() >= n_classes:
        raise LabelOutOfRange(f"label index outside [0, {n_classes})")
    protos = np.empty((n_classes, support_z.shape[1]))
    for c in range(n_classes):
        members = support_z[labels == c]
        if members.shape[0] == 0:
            raise EmptyClass(f"class {c} has no support row")
        protos[c] = members.mean(axis=0)
    diff = query_z[:, None, :] - protos[None, :, :]
    return -np.einsum("qck,qck->qc", diff, diff)


def predict(scores) -> np.ndarray:
    """Argmax class per row; ties go to the lowest class index."""
    s = numerics.as_matrix(scores, "scores")
    return np.argmax(s, axis=1)
