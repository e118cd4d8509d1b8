"""Manifold-smoothness diagnostics.

Three probes of what propagation does to the embedding space: probability
curves along straight-line interpolations between two nodes of different
classes, synthetic datasets (two moons, separated Gaussian clusters) to run
the pipeline on, and intra/inter-class compactness ratios before and after
propagation.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import classify, numerics
from .episodes import EmbeddingSet, Episode, EvalConfig, _episode_rows, infer
from .errors import DimensionMismatch, SameClassPair
from .graph import GraphConfig, pairwise_sq_distances
from .propagation import propagate_embeddings


@dataclass(frozen=True)
class InterpolationCurve:
    """Class probability along the segment from node j (weight 0) to node i (weight 1)."""

    i: int
    j: int
    grid: np.ndarray
    probs: np.ndarray
    max_jump: float


@dataclass(frozen=True)
class CompactnessMetrics:
    """Mean pairwise distances within and across classes, before and after propagation."""

    intra_before: float
    intra_after: float
    inter_before: float
    inter_after: float

    @property
    def intra_ratio(self) -> float:
        return self.intra_after / self.intra_before

    @property
    def inter_ratio(self) -> float:
        return self.inter_after / self.inter_before


@dataclass(frozen=True)
class BatchProjections:
    """Propagated coordinates of dataset points across repeated random batches."""

    point: np.ndarray  # (rows,) dataset row index
    batch: np.ndarray  # (rows,) batch index
    coords: np.ndarray  # (rows, m) propagated embedding
    labels: tuple[str, ...]  # per output row


def _episode_class_index(data: EmbeddingSet, ep: Episode, nodes: np.ndarray, i: int) -> int:
    """Episode class index of node position `i`; `nodes` are the episode's dataset rows."""
    if not 0 <= i < nodes.size:
        raise ValueError(f"node position {i} outside [0, {nodes.size})")
    label = data.labels[nodes[i]]
    try:
        return ep.classes.index(label)
    except ValueError:
        raise ValueError(f"node {i} has label {label!r} outside the episode") from None


def interpolation_curve(
    data: EmbeddingSet,
    ep: Episode,
    i: int,
    j: int,
    grid_size: int,
    cfg: EvalConfig,
) -> InterpolationCurve:
    """Probability of node i's class along the i-j interpolation segment.

    For each grid weight w the point w*z_i + (1-w)*z_j is appended to the
    episode batch as one extra unlabeled query, the whole pipeline (`infer`,
    per cfg.mode, cfg.classifier and cfg.ssl) reruns on the extended batch,
    and the softmax probability of class y_i at the extra row is recorded.
    Under SslMode.PSEUDO_LABEL the extra point is scored but never
    pseudo-labeled, and an episode with no pool raises NoUnlabeledPool.

    The curve is transductive: the extra point participates in the graph.
    Appending a point perturbs the graph slightly, so exact endpoint
    consistency (weight 1 scoring like node i itself) holds when i and j are
    label-free rows (queries or unlabeled), whose duplicates are
    interchangeable with them by graph symmetry.

    `i` and `j` are positions in episode node order, not dataset rows; they
    and `grid_size` >= 2 are integers (`numerics.as_count`), else ValueError.
    """
    i, j = numerics.as_count(i, "i"), numerics.as_count(j, "j")
    grid_size = numerics.as_count(grid_size, "grid_size", 2)
    nodes = _episode_rows(data, ep)
    yi = _episode_class_index(data, ep, nodes, i)
    yj = _episode_class_index(data, ep, nodes, j)
    if yi == yj:
        raise SameClassPair(f"nodes {i} and {j} are both class {ep.classes[yi]!r}")

    z = data.embeddings[nodes]
    grid = np.linspace(0.0, 1.0, grid_size)
    probs = np.empty(grid_size)
    for g, w in enumerate(grid):
        extra = w * z[i] + (1.0 - w) * z[j]
        scores = infer(np.vstack([z, extra]), ep, cfg)
        probs[g] = classify.softmax_probs(scores[-1:])[0, yi]
    max_jump = float(np.abs(np.diff(probs)).max())
    return InterpolationCurve(i=i, j=j, grid=grid, probs=probs, max_jump=max_jump)


def random_query_pairs(ep: Episode, count: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """`count` >= 1 random different-class query node pairs, as episode node positions."""
    pairs = []
    for _ in range(numerics.as_count(count, "count", 1)):
        ca, cb = rng.choice(ep.n_way, size=2, replace=False)
        qa = int(rng.integers(ep.q_queries))
        qb = int(rng.integers(ep.q_queries))
        pairs.append((ep.n_support + int(ca) * ep.q_queries + qa,
                      ep.n_support + int(cb) * ep.q_queries + qb))
    return pairs


def two_moons(n_per_moon: int, noise_sd: float, seed: int) -> EmbeddingSet:
    """Two interleaved half-circles with isotropic Gaussian noise.

    Moon 0 traces (cos t, sin t) and moon 1 traces (1 - cos t, 0.5 - sin t)
    for t uniform on [0, pi]; labels are the moon names. `n_per_moon` >= 1 and
    `noise_sd` >= 0 go through `numerics.as_count` and `as_number`.
    """
    n_per_moon = numerics.as_count(n_per_moon, "n_per_moon", 1)
    noise_sd = numerics.as_number(noise_sd, "noise_sd")
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(0.0, math.pi, n_per_moon)
    t1 = rng.uniform(0.0, math.pi, n_per_moon)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    points = np.vstack([upper, lower])
    points = points + rng.normal(0.0, noise_sd, points.shape)
    labels = ("moon0",) * n_per_moon + ("moon1",) * n_per_moon
    return EmbeddingSet(embeddings=points, labels=labels)


def gaussian_clusters(
    n_classes: int,
    n_per_class: int,
    spread: float,
    seed: int,
    dim: int | None = None,
) -> EmbeddingSet:
    """Gaussian blobs at unit basis vectors (pairwise center distance sqrt(2)).

    `spread` is the per-coordinate standard deviation, so the ratio of
    within-class spread to inter-center distance is spread / sqrt(2). The
    counts go through `numerics.as_count` and `spread` through `as_number`.
    """
    n_classes = numerics.as_count(n_classes, "n_classes", 2)
    n_per_class = numerics.as_count(n_per_class, "n_per_class", 1)
    spread = numerics.as_number(spread, "spread")
    if not (math.isfinite(spread) and spread >= 0):
        raise ValueError(f"spread must be finite and >= 0, got {spread}")
    dim = n_classes if dim is None else numerics.as_count(dim, "dim")
    if dim < n_classes:
        raise ValueError(f"dim must be >= n_classes, got {dim} < {n_classes}")
    rng = np.random.default_rng(seed)
    blocks = []
    for c in range(n_classes):
        center = np.zeros(dim)
        center[c] = 1.0
        blocks.append(center + rng.normal(0.0, spread, (n_per_class, dim)))
    labels = tuple(f"c{c:03d}" for c in range(n_classes) for _ in range(n_per_class))
    return EmbeddingSet(embeddings=np.vstack(blocks), labels=labels)


def compactness_metrics(z, labels, ztilde) -> CompactnessMetrics:
    """Mean intra- and inter-class pairwise Euclidean distances for z and ztilde.

    Distances are plain (not squared) Euclidean, averaged over unordered row
    pairs. Categories with no pairs come out as NaN.
    """
    z = numerics.as_real(z, "Z")
    ztilde = numerics.as_real(ztilde, "Ztilde")
    if z.shape != ztilde.shape:
        raise DimensionMismatch(f"Z {z.shape} and Ztilde {ztilde.shape} differ in shape")
    labs = np.asarray([str(x) for x in labels])
    if labs.shape[0] != z.shape[0]:
        raise DimensionMismatch("need one label per row")
    iu = np.triu_indices(z.shape[0], k=1)
    same = (labs[:, None] == labs[None, :])[iu]

    def mean_dists(mat: np.ndarray) -> tuple[float, float]:
        d = np.sqrt(pairwise_sq_distances(mat))[iu]
        intra = float(d[same].mean()) if same.any() else float("nan")
        inter = float(d[~same].mean()) if (~same).any() else float("nan")
        return intra, inter

    intra_b, inter_b = mean_dists(z)
    intra_a, inter_a = mean_dists(ztilde)
    return CompactnessMetrics(
        intra_before=intra_b, intra_after=intra_a,
        inter_before=inter_b, inter_after=inter_a,
    )


def batch_projections(
    data: EmbeddingSet,
    n_batches: int,
    batch_size: int,
    cfg: GraphConfig,
    seed: int,
) -> BatchProjections:
    """Propagate random subsets repeatedly (FULL mode), one output row per (point, batch).

    Shows how the same point lands in different places depending on which
    batch it is propagated with. Both counts go through `numerics.as_count`.
    """
    if not 1 <= numerics.as_count(batch_size, "batch_size") <= data.n:
        raise ValueError(f"batch_size must lie in [1, {data.n}], got {batch_size}")
    n_batches = numerics.as_count(n_batches, "n_batches", 1)
    rng = np.random.default_rng(seed)
    points = []
    coords = []
    for _ in range(n_batches):
        idx = np.sort(rng.choice(data.n, size=batch_size, replace=False))
        points.append(idx)
        coords.append(propagate_embeddings(data.embeddings[idx], cfg)[0])
    point = np.concatenate(points)
    return BatchProjections(
        point=point,
        batch=np.repeat(np.arange(n_batches, dtype=np.intp), batch_size),
        coords=np.vstack(coords),
        labels=tuple(data.labels[i] for i in point),
    )
