"""PAPER.md's headline claims, run on the benchmark's own data.

The abstract claims that embedding propagation (a) improves a transductive
classifier and (b) improves accuracy in semi-supervised scenarios. Neither
holds on this data today, so each test is a strict xfail that gives its
measured accuracies. A change that makes a claim hold turns its xfail into a
failure, and that change then removes the marker.

The data come from perfbench's generator for the `fewshot-1shot-w640`
workload, at 60 rows per class instead of 600 so that the module runs in
about two seconds. Seed 3 and that size are the ones the accuracies were
first measured at; they were not chosen to hide or to show anything.
"""

import dataclasses
import functools
import sys
from pathlib import Path

import pytest

from embedprop import Classifier, EmbeddingSet, EvalConfig, PropagationMode, SslMode, evaluate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, make_dataset  # noqa: E402

SEED = 3
# A claimed gain must be at least one accuracy point.
MARGIN = 0.01


@functools.lru_cache(maxsize=None)
def _data() -> EmbeddingSet:
    w = dataclasses.replace(WORKLOADS["fewshot-1shot-w640"], rows_per_class=60)
    return EmbeddingSet(*make_dataset(w, SEED))


@functools.lru_cache(maxsize=None)
def _lp_accuracy(mode: PropagationMode, unlabeled: int, ssl: SslMode) -> float:
    """Mean LP accuracy of 40 seeded 5-way 1-shot 15-query episodes."""
    cfg = EvalConfig(n_way=5, k_shot=1, q_queries=15, u_unlabeled=unlabeled, episodes=40,
                     mode=mode, classifier=Classifier.LABEL_PROP, ssl=ssl, seed=SEED)
    return evaluate(_data(), cfg).mean


@pytest.mark.xfail(
    strict=True,
    reason="at w640 every off-diagonal weight is near 1, so EP changes no prediction: "
    "LP FULL 0.751 = IDENTITY 0.751 (ROADMAP item 10)",
)
def test_ep_improves_label_propagation():
    full = _lp_accuracy(PropagationMode.FULL, 0, SslMode.OFF)
    identity = _lp_accuracy(PropagationMode.IDENTITY, 0, SslMode.OFF)
    assert full >= identity + MARGIN


@pytest.mark.xfail(
    strict=True,
    reason="with u = 20 and pseudo-labels LP FULL 0.244 = IDENTITY 0.244: the w640 graph "
    "is almost uniform, so pass 2 favours the class with the most pseudo-labels "
    "whatever EP does (ROADMAP items 6 and 10)",
)
def test_ep_improves_label_propagation_with_pseudo_labels():
    full = _lp_accuracy(PropagationMode.FULL, 20, SslMode.PSEUDO_LABEL)
    identity = _lp_accuracy(PropagationMode.IDENTITY, 20, SslMode.PSEUDO_LABEL)
    assert full >= identity + MARGIN


@pytest.mark.xfail(
    strict=True,
    reason="pseudo-labels cost 51 points: LP FULL with u = 20 reads 0.755 without them "
    "and 0.244 with them (ROADMAP item 6)",
)
def test_pseudo_labels_do_not_hurt_label_propagation():
    without = _lp_accuracy(PropagationMode.FULL, 20, SslMode.OFF)
    with_pseudo = _lp_accuracy(PropagationMode.FULL, 20, SslMode.PSEUDO_LABEL)
    assert with_pseudo >= without
