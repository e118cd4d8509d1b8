"""Child process of the benchmark: runs one workload through the public
embedprop API and writes what it measured as JSON.

Usage (started by run.py, not by hand):
    python3 perfbench/worker.py setup DATA
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS TRACE DATA OUT

`setup` times `import embedprop` plus `load_embeddings(DATA)` in a fresh
interpreter and prints the seconds. `measure` runs the workload's operation
in a closed loop for SECONDS: one `evaluate()` call of the workload's layout
at a time for the episodic workloads, one whole-file propagate-and-save for
the propagate workload. With TRACE=1 it measures two more segments after
that untraced one, traced and single-threaded, and derives the per-layer
metrics.
"""

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

MIN_CALLS = 3
# Seed index of the warm-up call, outside the range of timed calls.
WARMUP_INDEX = 1_000_000


def import_embedprop():
    import embedprop

    expected = (ROOT / "src" / "embedprop").resolve()
    if Path(embedprop.__file__).resolve().parent != expected:
        raise ImportError(f"embedprop imported from {embedprop.__file__}, not {expected}")
    return embedprop


def setup(data_path: str) -> None:
    start = time.perf_counter()
    ep = import_embedprop()
    ep.load_embeddings(data_path)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def call_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


class Runner:
    """The workload's operation as a function of the call index."""

    def __init__(self, ep, w, data, seed: int, out_path: str):
        self.ep, self.w, self.data, self.seed, self.out_path = ep, w, data, seed, out_path
        self.ops_per_call = w.episodes_per_call if w.kind != "propagate" else 1

    def config(self, index: int):
        ep, w = self.ep, self.w
        return ep.EvalConfig(
            n_way=w.n_way, k_shot=w.k_shot, q_queries=w.q_queries,
            u_unlabeled=w.u_unlabeled, labeled_fraction=w.labeled_fraction,
            episodes=w.episodes_per_call, graph=ep.GraphConfig(),
            mode=ep.PropagationMode.FULL, classifier=ep.Classifier.LABEL_PROP,
            ssl=ep.SslMode.PSEUDO_LABEL if w.kind == "ssl" else ep.SslMode.OFF,
            seed=call_seed(self.seed, index),
        )

    def call(self, index: int, tracer=None):
        """Run one call and return its raw output (timed by the caller)."""
        ep = self.ep
        if self.w.kind != "propagate":
            return ep.evaluate(self.data, self.config(index)).accuracies
        if tracer is None:
            return self._propagate()
        with tracer.span("op", op_root=True):
            return self._propagate()

    def _propagate(self):
        ep, data = self.ep, self.data
        ztilde, _ = ep.propagate_embeddings(data.embeddings, ep.GraphConfig())
        ep.save_embeddings(ep.EmbeddingSet(ztilde, data.labels, data.split), self.out_path)
        return ztilde

    def summarize(self, raw):
        if self.w.kind != "propagate":
            return list(raw)
        return hashlib.sha256(raw.tobytes()).hexdigest()

    def loop(self, seconds: float, tracer=None):
        """Closed loop of calls for `seconds` (at least MIN_CALLS), after one warm-up call."""
        self.call(WARMUP_INDEX, tracer)
        if tracer is not None:
            tracer.spans.clear()
        calls = []
        start = time.perf_counter()
        while len(calls) < MIN_CALLS or time.perf_counter() - start < seconds:
            index = len(calls)
            t0 = time.perf_counter()
            try:
                raw = self.call(index, tracer)
                error = None
            except Exception:  # a failing call is counted, and the loop goes on
                raw, error = None, traceback.format_exc()
                sys.stderr.write(error)
            wall = time.perf_counter() - t0
            calls.append({"index": index, "wall_s": wall, "ops": self.ops_per_call,
                          "error": error, "out": None if error else self.summarize(raw)})
        return calls

    def checked_subset(self):
        """Library predictions (and query scores, where the API returns them)
        for the leading episodes of timed call 0."""
        ep, w = self.ep, self.w
        cfg = self.config(0)
        out = []
        for i in range(w.checked_episodes):
            try:
                e = ep.sample_episode(self.data, cfg, i)
                scores = None
                if w.kind == "ssl":
                    preds = ep.ssl_predict(self.data, e, cfg)
                else:
                    preds, _, scores = ep.run_episode(self.data, e, cfg)
                    scores = scores[e.n_support:e.n_support + e.n_query].tolist()
            except Exception:
                out.append({"episode": i, "error": traceback.format_exc()})
                continue
            out.append({
                "episode": i, "error": None, "classes": list(e.classes),
                "support": e.support.tolist(), "query": e.query.ravel().tolist(),
                "unlabeled": e.unlabeled.tolist(),
                "labeled_mask": e.labeled_mask.ravel().tolist(),
                "preds": [int(p) for p in preds], "scores": scores,
            })
        return out


def environment(ep) -> dict:
    import numpy as np
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "pool_workers": ep.episodes.thread_count(),
    }


def traced_segment(ep, runner, seconds, data_path, untraced, spans_path) -> dict:
    """Traced segment: per-layer metrics from the spans, which go to spans_path."""
    from tracing import Tracer, all_self_ms, layer_metrics, per_op_summary

    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.loop(seconds, tracer)
        load_spans_from = len(tracer.spans)
        for _ in range(3):
            ep.load_embeddings(data_path)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    write_spans(spans_path, spans)
    ops, sum_gap = per_op_summary(spans)
    self_ms = all_self_ms(ops)
    layer = layer_metrics(ops, self_ms)
    load_s = statistics.median(
        s[4] - s[3] for s in spans[load_spans_from:] if s[2] == "io.load_embeddings")
    layer["io.load_embeddings.s"] = load_s
    layer["io.load_embeddings.mb_per_s"] = os.path.getsize(data_path) / 1e6 / load_s
    op_time = sum(r["dur"] for r in ops.values())
    layer["op.concurrency"] = op_time / sum(c["wall_s"] for c in traced)
    layer["trace.overhead_frac"] = median_wall_per_op(traced) / median_wall_per_op(untraced) - 1.0
    return {"traced": traced, "layer": layer, "self_ms": self_ms,
            "self_sum_gap": sum_gap, "traced_ops": len(ops)}


def median_wall_per_op(calls) -> float:
    return statistics.median(c["wall_s"] / c["ops"] for c in calls if c["error"] is None)


def write_spans(path, spans) -> None:
    names = ("id", "parent", "name", "start", "end", "op", "thread", "attrs")
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(names, s))) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: bool, data_path: str, out: str) -> None:
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    ep = import_embedprop()
    data = ep.load_embeddings(data_path)
    work = Path(out).parent
    runner = Runner(ep, w, data, seed, str(work / f"{w.name}-out.csv"))
    result = {"env": environment(ep), "segments": {}}
    untraced = runner.loop(seconds)
    result["segments"]["untraced"] = untraced
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        result.update(traced_segment(ep, runner, seconds, data_path, untraced,
                                     work / f"{w.name}-spans.jsonl"))
        result["segments"]["traced"] = result.pop("traced")
        if w.kind == "propagate":
            # The end-to-end configuration is already one thread here
            # (no episode pool, BLAS at one thread), so reuse its rate.
            single = untraced
        else:
            os.environ["EP_THREADS"] = "1"
            try:
                single = runner.loop(seconds)
            finally:
                del os.environ["EP_THREADS"]
            result["segments"]["single"] = single
        result["layer"]["op.single_thread_per_s"] = 1.0 / median_wall_per_op(single)
    if w.kind != "propagate":
        result["checked"] = runner.checked_subset()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        setup(argv[1])
    elif argv[:1] == ["measure"] and len(argv) == 7:
        measure(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", argv[5], argv[6])
    else:
        sys.stderr.write(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
