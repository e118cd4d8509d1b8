"""perfbench's tracer still finds every library function it reads.

perfbench/tracing.py wraps library functions by their module and name and
reads their spans by name, so a change that stops calling one of them makes
`perfbench/run.py --trace 1` fail with a KeyError. These tests import the
tracer unchanged and trace one tiny operation of each kind the benchmark
traces: a FULL + LP episode, an SSL episode and a whole-batch propagation.
"""

import math
import sys
from pathlib import Path

import pytest

import embedprop
from embedprop import (
    Classifier,
    EvalConfig,
    GraphConfig,
    PropagationMode,
    SslMode,
    gaussian_clusters,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

DATA = gaussian_clusters(4, 12, spread=0.4, seed=5, dim=6)


def _evaluate(ssl: SslMode):
    cfg = EvalConfig(
        n_way=3, k_shot=2, q_queries=3, episodes=2, mode=PropagationMode.FULL,
        classifier=Classifier.LABEL_PROP, ssl=ssl,
        u_unlabeled=6 if ssl is SslMode.PSEUDO_LABEL else 0,
        labeled_fraction=0.5 if ssl is SslMode.PSEUDO_LABEL else 1.0,
    )
    return lambda tracer: embedprop.evaluate(DATA, cfg)


def _propagate(tracer):
    # the propagate workload marks its operation itself, as here
    with tracer.span("op", op_root=True):
        embedprop.propagate_embeddings(DATA.embeddings, GraphConfig())


@pytest.mark.parametrize(
    "run,builds",
    [(_evaluate(SslMode.OFF), 2), (_evaluate(SslMode.PSEUDO_LABEL), 2), (_propagate, 1)],
    ids=["evaluate", "ssl", "propagate"],
)
def test_layer_metrics_of_a_traced_operation(run, builds, monkeypatch):
    monkeypatch.setenv("EP_THREADS", "1")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run(tracer)
    finally:
        tracer.uninstall()
    ops, gap = tracing.per_op_summary(tracer.spans)
    layer = tracing.layer_metrics(ops, tracing.all_self_ms(ops))
    assert len(layer) == 14
    assert all(math.isfinite(value) for value in layer.values())
    assert layer["graph.build_propagator.calls_per_op"] == builds
    assert gap <= 1e-9
