"""Episode-level differential test against the benchmark's exact reference.

perfbench/reference.py rebuilds the FULL + label-propagation chain in plain
numpy (difference-form distances, the variance bandwidth, np.linalg.solve of
I - alpha L). Library outputs must agree with it within reference.RTOL
relative to their largest entry; the library factors by Cholesky instead of
LU, so agreement is to rounding, not bit for bit.
"""

import dataclasses
import math
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from embedprop import (
    Classifier,
    EmbeddingSet,
    EvalConfig,
    GraphConfig,
    PropagationMode,
    SslMode,
    gaussian_clusters,
    propagate_embeddings,
    run_episode,
    sample_episode,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference  # noqa: E402


@st.composite
def episodes(draw):
    """A small scaled and offset Gaussian-cluster set, an episode of it and its config."""
    n_way = draw(st.integers(2, 5))
    k_shot = draw(st.integers(1, 3))
    q_queries = draw(st.integers(1, 4))
    u_unlabeled = draw(st.integers(0, 8))
    labeled_fraction = draw(st.sampled_from([0.5, 1.0]))
    per_class = k_shot + q_queries + math.ceil(u_unlabeled / n_way)
    base = gaussian_clusters(n_way + 1, per_class, spread=draw(st.floats(0.05, 1.0)),
                             seed=draw(st.integers(0, 2**32 - 1)),
                             dim=n_way + 1 + draw(st.integers(0, 6)))
    scale = 10.0 ** draw(st.floats(-2, 2))
    offset = draw(st.sampled_from([0.0, -37.5, 1e3]))
    data = EmbeddingSet(base.embeddings * scale + offset, base.labels)
    cfg = EvalConfig(n_way=n_way, k_shot=k_shot, q_queries=q_queries, u_unlabeled=u_unlabeled,
                     labeled_fraction=labeled_fraction, episodes=1,
                     graph=GraphConfig(alpha=reference.ALPHA), mode=PropagationMode.FULL,
                     classifier=Classifier.LABEL_PROP, seed=draw(st.integers(0, 2**32 - 1)))
    return data, sample_episode(data, cfg, draw(st.integers(0, 99))), cfg


@given(episodes())
def test_full_lp_query_scores_match_reference(case):
    data, ep, cfg = case
    z = data.embeddings[ep.node_indices()]
    layout = {"n_way": ep.n_way, "k_shot": ep.k_shot, "query": ep.query.ravel(),
              "labeled_mask": ep.labeled_mask.ravel()}
    queries = slice(ep.n_support, ep.n_support + ep.n_query)
    # SSL needs a pool: unlabeled rows or masked-out supports
    has_pool = ep.n_unlabeled > 0 or not ep.labeled_mask.all()
    for ssl in SslMode if has_pool else [SslMode.OFF]:
        _, _, scores = run_episode(data, ep, dataclasses.replace(cfg, ssl=ssl))
        ref, pass1_decided = reference.episode_scores(z, layout, ssl is SslMode.PSEUDO_LABEL)
        # pass 2 is only defined where pass 1's pseudo-labels are clear of rounding
        if pass1_decided:
            assert reference.rel_error(scores[queries], ref) <= reference.RTOL, ssl


@given(episodes())
def test_full_propagation_matches_reference(case):
    data, ep, cfg = case
    z = data.embeddings[ep.node_indices()]
    ztilde, _ = propagate_embeddings(z, cfg.graph, PropagationMode.FULL)
    assert reference.rel_error(ztilde, reference.diffuse(z, z)) <= reference.RTOL
