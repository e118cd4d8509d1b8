"""Episodic evaluation: dataset model, n-way k-shot sampler, per-episode
inference, pseudo-label semi-supervised inference, and the accuracy harness.

Episode node order is always support rows (class-major), then query rows
(class-major), then unlabeled rows. Episode class indices follow the sorted
class identifiers. Every episode draws its own RNG stream from
(master seed, episode index), so results never depend on execution order.
"""

import dataclasses
import enum
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import classify, graph, numerics
from .errors import (
    EmptyClass,
    InsufficientClassCount,
    InsufficientClassSize,
    InvariantViolation,
    NoUnlabeledPool,
)
from .graph import GraphConfig
from .numerics import thread_count
from .propagation import PropagationMode, propagate_embeddings

SPLIT_TAGS = ("base", "val", "novel")


class Classifier(enum.Enum):
    LABEL_PROP = "lp"
    PROTOTYPICAL = "proto"


class SslMode(enum.Enum):
    OFF = "off"
    PSEUDO_LABEL = "pseudo"


@dataclass(frozen=True)
class EmbeddingSet:
    """Immutable store of N embedding rows with class labels and optional split tags.

    A split tag of None or "" leaves its row untagged, and a split that tags
    no row is stored as None: the set is untagged.
    """

    embeddings: np.ndarray
    labels: tuple[str, ...]
    split: tuple[str | None, ...] | None = None

    def __post_init__(self):
        emb = numerics.as_real(self.embeddings, "embeddings")
        if emb.ndim != 2 or emb.shape[0] < 1 or emb.shape[1] < 1:
            raise InvariantViolation(f"embeddings must be (N, m) with N, m >= 1, got {emb.shape}")
        if not np.isfinite(emb).all():
            raise InvariantViolation("embeddings contain NaN or Inf entries")
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != emb.shape[0]:
            raise InvariantViolation(f"{len(labels)} labels for {emb.shape[0]} rows")
        split = self.split
        if split is not None:
            split = tuple(None if s in (None, "") else str(s) for s in split)
            if len(split) != emb.shape[0]:
                raise InvariantViolation(f"{len(split)} split tags for {emb.shape[0]} rows")
            bad = {s for s in split if s is not None and s not in SPLIT_TAGS}
            if bad:
                raise InvariantViolation(f"unknown split tags {sorted(bad)}")
            if all(s is None for s in split):
                split = None
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "split", split)

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def classes(self) -> tuple[str, ...]:
        """Distinct class identifiers, sorted."""
        return tuple(sorted(self.class_rows().keys()))

    def class_rows(self) -> dict[str, np.ndarray]:
        """Map class identifier -> ascending row indices (cached)."""
        cached = getattr(self, "_class_rows", None)
        if cached is None:
            cached = {}
            for i, lab in enumerate(self.labels):
                cached.setdefault(lab, []).append(i)
            cached = {lab: np.asarray(rows, dtype=np.intp) for lab, rows in cached.items()}
            object.__setattr__(self, "_class_rows", cached)
        return cached

    def filter_split(self, tag: str) -> "EmbeddingSet":
        """Rows whose split tag equals `tag`, as a new set."""
        if self.split is None:
            raise InvariantViolation("set has no split tags")
        keep = [i for i, s in enumerate(self.split) if s == tag]
        if not keep:
            raise InvariantViolation(f"no rows with split {tag!r}")
        return EmbeddingSet(
            embeddings=self.embeddings[keep],
            labels=tuple(self.labels[i] for i in keep),
            split=tuple(self.split[i] for i in keep),
        )


@dataclass(frozen=True)
class Episode:
    """Index sets for one sampled task, relative to the parent EmbeddingSet."""

    classes: tuple[str, ...]
    support: np.ndarray  # (n_way, k) row indices
    query: np.ndarray  # (n_way, q) row indices
    unlabeled: np.ndarray  # (u,) row indices
    labeled_mask: np.ndarray  # (n_way, k) bool

    def __post_init__(self):
        support = numerics.as_index(self.support, "support")
        query = numerics.as_index(self.query, "query")
        unlabeled = numerics.as_index(self.unlabeled, "unlabeled").reshape(-1)
        mask = np.asarray(self.labeled_mask, dtype=bool)
        classes = tuple(str(c) for c in self.classes)
        if len(set(classes)) != len(classes):
            raise InvariantViolation(f"duplicate class identifiers in {classes}")
        n_way = len(classes)
        if support.ndim != 2 or support.shape[0] != n_way or support.shape[1] < 1:
            raise InvariantViolation(f"support must be ({n_way}, k), got {support.shape}")
        if query.ndim != 2 or query.shape[0] != n_way or query.shape[1] < 1:
            raise InvariantViolation(f"query must be ({n_way}, q), got {query.shape}")
        if mask.shape != support.shape:
            raise InvariantViolation("labeled_mask must match support shape")
        has_label = mask.any(axis=1)
        if not has_label.all():
            raise EmptyClass(f"class {int(np.argmin(has_label))} has no labeled support")
        combined = np.concatenate([support.ravel(), query.ravel(), unlabeled])
        if combined.min() < 0:
            raise InvariantViolation(f"negative row index {int(combined.min())}")
        if len(np.unique(combined)) != combined.size:
            raise InvariantViolation("support, query, and unlabeled indices overlap")
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "unlabeled", unlabeled)
        object.__setattr__(self, "labeled_mask", mask)

    @property
    def n_way(self) -> int:
        return len(self.classes)

    @property
    def k_shot(self) -> int:
        return self.support.shape[1]

    @property
    def q_queries(self) -> int:
        return self.query.shape[1]

    @property
    def n_support(self) -> int:
        return self.support.size

    @property
    def n_query(self) -> int:
        return self.query.size

    @property
    def n_unlabeled(self) -> int:
        return self.unlabeled.size

    def node_indices(self) -> np.ndarray:
        """Row indices in episode node order: supports, queries, unlabeled."""
        return np.concatenate([self.support.ravel(), self.query.ravel(), self.unlabeled])


@dataclass(frozen=True)
class EvalConfig:
    """Episode layout plus pipeline configuration for the harness."""

    n_way: int = 5
    k_shot: int = 1
    q_queries: int = 15
    u_unlabeled: int = 0
    labeled_fraction: float = 1.0
    episodes: int = 1000
    graph: GraphConfig = field(default_factory=GraphConfig)
    mode: PropagationMode = PropagationMode.FULL
    classifier: Classifier = Classifier.LABEL_PROP
    ssl: SslMode = SslMode.OFF
    seed: int = 42

    def __post_init__(self):
        for name in ("n_way", "k_shot", "q_queries", "u_unlabeled", "episodes", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name, kind in (("graph", GraphConfig), ("mode", PropagationMode),
                           ("classifier", Classifier), ("ssl", SslMode)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        if self.n_way < 2:
            raise ValueError(f"n_way must be >= 2, got {self.n_way}")
        if self.k_shot < 1 or self.q_queries < 1:
            raise ValueError("k_shot and q_queries must be >= 1")
        if self.u_unlabeled < 0:
            raise ValueError(f"u_unlabeled must be >= 0, got {self.u_unlabeled}")
        if isinstance(self.labeled_fraction, bool) or not isinstance(self.labeled_fraction, numbers.Real):
            raise ValueError(f"labeled_fraction must be a real number, got {self.labeled_fraction!r}")
        if not 0.0 < self.labeled_fraction <= 1.0:
            raise ValueError(f"labeled_fraction must lie in (0, 1], got {self.labeled_fraction}")
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class EvalReport:
    """Per-episode accuracies, their mean and 95% CI half-width, and the set's sorted split tags."""

    accuracies: tuple[float, ...]
    mean: float
    ci95: float
    config: EvalConfig
    wall_ms: int
    split: tuple[str, ...] | None


def labeled_count(labeled_fraction: float, k_shot: int) -> int:
    """Supports labeled per class: ceil(fraction * k), guarded against float dust, at least 1."""
    return max(1, math.ceil(labeled_fraction * k_shot - 1e-9))


def episode_rng(seed: int, episode_index: int) -> np.random.Generator:
    """Independent RNG stream for one episode, keyed by (master seed, index)."""
    return np.random.default_rng([seed, episode_index])


def sample_episode(data: EmbeddingSet, cfg: EvalConfig, episode_index: int) -> Episode:
    """Draw one n-way k-shot episode.

    Classes are sampled uniformly without replacement among classes large
    enough for the layout (k + q + per-class unlabeled quota rows). The
    unlabeled pool is drawn class-balanced from the episode's own classes.
    Deterministic given (cfg.seed, episode_index).
    """
    rng = episode_rng(cfg.seed, episode_index)
    by_class = data.class_rows()
    all_classes = sorted(by_class.keys())
    if len(all_classes) < cfg.n_way:
        raise InsufficientClassCount(
            f"need {cfg.n_way} classes, dataset has {len(all_classes)}"
        )
    max_need = cfg.k_shot + cfg.q_queries + math.ceil(cfg.u_unlabeled / cfg.n_way)
    eligible = [c for c in all_classes if by_class[c].size >= max_need]
    if len(eligible) < cfg.n_way:
        short = min(
            (c for c in all_classes if c not in set(eligible)),
            key=lambda c: by_class[c].size,
        )
        raise InsufficientClassSize(
            f"only {len(eligible)} classes have >= {max_need} rows "
            f"(e.g. class {short!r} has {by_class[short].size}); need {cfg.n_way}"
        )

    picked = rng.choice(len(eligible), size=cfg.n_way, replace=False)
    episode_classes = sorted(eligible[i] for i in picked)

    base, extra = divmod(cfg.u_unlabeled, cfg.n_way)
    support = np.empty((cfg.n_way, cfg.k_shot), dtype=np.intp)
    query = np.empty((cfg.n_way, cfg.q_queries), dtype=np.intp)
    unlabeled: list[np.ndarray] = []
    for ci, cls in enumerate(episode_classes):
        u_c = base + (1 if ci < extra else 0)
        need = cfg.k_shot + cfg.q_queries + u_c
        rows = rng.choice(by_class[cls], size=need, replace=False)
        support[ci] = rows[: cfg.k_shot]
        query[ci] = rows[cfg.k_shot : cfg.k_shot + cfg.q_queries]
        unlabeled.append(rows[cfg.k_shot + cfg.q_queries :])

    n_labeled = labeled_count(cfg.labeled_fraction, cfg.k_shot)
    if n_labeled == cfg.k_shot:
        # the draws below would pick every support; they are the stream's last,
        # so skipping them leaves the episode unchanged
        mask = np.ones((cfg.n_way, cfg.k_shot), dtype=bool)
    else:
        mask = np.zeros((cfg.n_way, cfg.k_shot), dtype=bool)
        for ci in range(cfg.n_way):
            mask[ci, rng.choice(cfg.k_shot, size=n_labeled, replace=False)] = True

    return Episode(
        classes=tuple(episode_classes),
        support=support,
        query=query,
        unlabeled=np.concatenate(unlabeled),
        labeled_mask=mask,
    )


def infer(z, ep: Episode, cfg: EvalConfig) -> np.ndarray:
    """Transductive scores of every row of the batch `z` for episode `ep`.

    Propagates `z` per cfg.mode into `ztilde` (`z` itself under IDENTITY, with
    no graph built) and scores all rows against the labeled supports of `ep`
    (its first node positions) with cfg.classifier; label propagation scores
    with P @ Y on its own graph of `ztilde`. Under cfg.ssl = PSEUDO_LABEL, the
    pool of `ep` (masked-out supports, then unlabeled rows; NoUnlabeledPool if
    empty) is pseudo-labeled by argmax and all rows rescored on the same graph.

    Returns the (rows of z, n_way) score matrix.
    """
    if cfg.ssl is SslMode.PSEUDO_LABEL:
        q_hi = ep.n_support + ep.n_query
        unlabeled_support = np.flatnonzero(~ep.labeled_mask.ravel())
        pool = np.concatenate([unlabeled_support, np.arange(q_hi, q_hi + ep.n_unlabeled)])
        if pool.size == 0:
            raise NoUnlabeledPool("episode has no unlabeled rows and all supports are labeled")
    ztilde = z
    if cfg.mode is not PropagationMode.IDENTITY:
        ztilde, _ = propagate_embeddings(z, cfg.graph, cfg.mode)
    if cfg.classifier is Classifier.LABEL_PROP:
        prop = graph.build_propagator(ztilde, cfg.graph)

        def score(rows, classes):
            return prop.apply(classify.build_label_matrix(len(ztilde), ep.n_way, rows, classes))
    else:
        def score(rows, classes):
            return classify.prototypical_scores(ztilde[rows], classes, ztilde, n_classes=ep.n_way)

    rows = np.flatnonzero(ep.labeled_mask.ravel())  # labeled supports, class-major
    classes = rows // ep.k_shot
    scores = score(rows, classes)
    if cfg.ssl is SslMode.OFF:
        return scores
    pseudo = classify.predict(scores[pool])
    return score(np.concatenate([rows, pool]), np.concatenate([classes, pseudo]))


def query_truth(ep: Episode) -> np.ndarray:
    """Episode class index of each query row, in node order."""
    return np.repeat(np.arange(ep.n_way), ep.q_queries)


def _episode_rows(data: EmbeddingSet, ep: Episode) -> np.ndarray:
    """Dataset rows of `ep` in node order; InvariantViolation if one lies outside `data`."""
    rows = ep.node_indices()
    if rows.max() >= data.n:
        raise InvariantViolation(f"episode row {int(rows.max())} outside a set of {data.n} rows")
    return rows


def run_episode(
    data: EmbeddingSet, ep: Episode, cfg: EvalConfig
) -> tuple[np.ndarray, float, np.ndarray]:
    """Transductive inference on one episode, as `evaluate` runs it.

    Stacks support, query, and unlabeled rows, scores all nodes with `infer`
    (per the whole cfg, cfg.ssl included), and predicts the query rows.

    Returns (query predictions as episode class indices, query accuracy,
    score matrix over all nodes).
    """
    scores = infer(data.embeddings[_episode_rows(data, ep)], ep, cfg)
    preds = classify.predict(scores[ep.n_support : ep.n_support + ep.n_query])
    accuracy = float(np.mean(preds == query_truth(ep)))
    return preds, accuracy, scores


def ssl_predict(data: EmbeddingSet, ep: Episode, cfg: EvalConfig) -> np.ndarray:
    """Query predictions of two-pass pseudo-label inference, whatever cfg.ssl says.

    Pass 1 runs the standard pipeline and hard-argmax labels the pool (the
    episode's unlabeled rows plus any masked-out supports). Pass 2 treats the
    pseudo-labels as true support labels and rescores. Exactly two passes,
    no fixpoint iteration: `run_episode` with cfg.ssl = PSEUDO_LABEL.
    """
    preds, _, _ = run_episode(data, ep, dataclasses.replace(cfg, ssl=SslMode.PSEUDO_LABEL))
    return preds


def confidence_interval95(accuracies) -> float:
    """Half-width 1.96 * s / sqrt(E) with s the sample standard deviation."""
    acc = numerics.as_real(accuracies, "accuracies")
    if acc.size < 2:
        return 0.0
    return float(1.96 * acc.std(ddof=1) / math.sqrt(acc.size))


def _episode_accuracy(data: EmbeddingSet, cfg: EvalConfig, index: int) -> float:
    return run_episode(data, sample_episode(data, cfg, index), cfg)[1]


def evaluate(data: EmbeddingSet, cfg: EvalConfig) -> EvalReport:
    """Run cfg.episodes episodes and report mean accuracy with a 95% CI.

    Episodes are independent pure functions of (data, cfg, index), so the
    accuracy list is bit-identical regardless of the worker count. Episodes
    run on `numerics.thread_pool` threads, so their kernels run inline.
    """
    start = time.perf_counter()
    indices = range(cfg.episodes)
    workers = thread_count()
    if workers == 1 or cfg.episodes == 1:
        accuracies = [_episode_accuracy(data, cfg, i) for i in indices]
    else:
        with numerics.thread_pool(workers) as pool:
            accuracies = list(pool.map(lambda i: _episode_accuracy(data, cfg, i), indices))
    wall_ms = int(round((time.perf_counter() - start) * 1000.0))
    return EvalReport(
        accuracies=tuple(accuracies),
        mean=float(np.mean(accuracies)),
        ci95=confidence_interval95(accuracies),
        config=cfg,
        wall_ms=wall_ms,
        split=None if data.split is None else tuple(sorted(set(data.split) - {None})),
    )
