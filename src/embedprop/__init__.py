"""Embedding propagation and graph label propagation for transductive
few-shot classification over precomputed embedding vectors."""

from .classify import (
    build_label_matrix,
    label_propagation_scores,
    predict,
    prototypical_scores,
    softmax_probs,
)
from .diagnostics import (
    BatchProjections,
    CompactnessMetrics,
    InterpolationCurve,
    batch_projections,
    compactness_metrics,
    gaussian_clusters,
    interpolation_curve,
    random_query_pairs,
    two_moons,
)
from .episodes import (
    Classifier,
    EmbeddingSet,
    Episode,
    EvalConfig,
    EvalReport,
    SslMode,
    confidence_interval95,
    evaluate,
    labeled_count,
    query_truth,
    run_episode,
    sample_episode,
    ssl_predict,
)
from .errors import (
    DimensionMismatch,
    EmbedPropError,
    EmptyClass,
    InsufficientClassCount,
    InsufficientClassSize,
    InvalidDistanceMatrix,
    InvariantViolation,
    IsolatedNode,
    LabelOutOfRange,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
    NoUnlabeledPool,
    ParseError,
    ResourceLimit,
    SameClassPair,
)
from .graph import (
    GraphConfig,
    Propagator,
    adjacency,
    build_propagator,
    normalized_laplacian,
    pairwise_sq_distances,
    propagator,
)
from .io import load_embeddings, report_to_dict, save_embeddings, write_report
from .numerics import solve_spd
from .propagation import PropagationMode, propagate_embeddings

__version__ = "0.1.0"
