"""Out-of-process tracing of the embedprop library.

The tracer wraps public functions from the outside: it replaces each target
function at its module attribute and at every `from ... import` site inside
the `embedprop` package, so internal calls are timed as well. Nothing under
`src/` is edited. Spans stay in memory until the run ends.

A span is (id, parent id, name, start, end, operation id, thread id, attrs).
An operation is one episode (the span of `episodes._episode_accuracy`, which
`evaluate` calls once per episode) or one batch of the propagate workload.
Self time of a span is its duration minus the part of its interval covered
by its child spans.
"""

import functools
import itertools
import statistics
import sys
import threading
import time
from contextlib import contextmanager

PACKAGE = "embedprop"
OP = "op"


def _pairwise_attrs(z, *args, **kwargs):
    n, m = z.shape
    return {"flop": 3 * n * n * m, "bytes": 8 * (n * m + n * n)}


def _solve_attrs(m, b, *args, **kwargs):
    return {"rhs_cols": 1 if b.ndim == 1 else b.shape[1]}


# (module, function, attrs from the call arguments). The argument shapes are
# read on entry, so the counts cost no extra work inside the library.
TARGETS = (
    ("io", "load_embeddings", None),
    ("io", "save_embeddings", None),
    ("episodes", "evaluate", None),
    ("episodes", "sample_episode", None),
    ("episodes", "run_episode", None),
    ("episodes", "ssl_predict", None),
    ("propagation", "propagate_embeddings", None),
    ("graph", "build_propagator", None),
    ("graph", "pairwise_sq_distances", _pairwise_attrs),
    ("graph", "adjacency", None),
    ("graph", "normalized_laplacian", None),
    ("graph", "propagator", None),
    ("numerics", "solve_spd", _solve_attrs),
    ("classify", "label_propagation_scores", None),
    ("classify", "predict", None),
)
# The per-episode unit of `evaluate`; its span is the operation root.
OP_ROOT = ("episodes", "_episode_accuracy")

GRAPH_LAYERS = ("graph.", "numerics.", "propagation.")


class Tracer:
    """Span recorder that patches and restores embedprop functions."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, op_root=False, attrs=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        op = parent[1] if parent is not None else None
        if op is None and op_root:
            op = next(self._ops)
        stack.append((sid, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent[0] if parent else None, name, start, end, op,
                 threading.get_ident(), attrs)
            )

    def _wrap(self, name, fn, attrs_of, op_root):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else None
            with self.span(name, op_root=op_root, attrs=attrs):
                return fn(*args, **kwargs)

        return traced

    def install(self):
        """Wrap every target at its definition and at each import site."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        targets = [(mod, fn, attrs, False) for mod, fn, attrs in TARGETS]
        targets.append((OP_ROOT[0], OP_ROOT[1], None, True))
        for mod_name, fn_name, attrs_of, op_root in targets:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(home, fn_name)
            name = OP if op_root else f"{mod_name}.{fn_name}"
            wrapper = self._wrap(name, original, attrs_of, op_root)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> self time in seconds."""
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    return {s[0]: (s[4] - s[3]) - _covered(children.get(s[0], ())) for s in spans}


def per_op_summary(spans):
    """Group the spans of each operation by name.

    Returns {op id: {"dur", "self": {name: s}, "calls": {name: k},
    "attrs": {name: [...]}}} and the largest relative gap between an operation's root span
    and the sum of the self times of all of its spans (zero up to rounding
    when spans nest properly).
    """
    selfs = self_times(spans)
    ops = {}
    for s in spans:
        if s[5] is None:
            continue
        rec = ops.setdefault(s[5], {"dur": None, "self": {}, "calls": {}, "attrs": {}})
        name = s[2]
        rec["self"][name] = rec["self"].get(name, 0.0) + selfs[s[0]]
        rec["calls"][name] = rec["calls"].get(name, 0) + 1
        if s[7] is not None:
            rec["attrs"].setdefault(name, []).append(s[7])
        if name == OP:
            rec["dur"] = s[4] - s[3]
    worst = 0.0
    for rec in ops.values():
        total = sum(rec["self"].values())
        worst = max(worst, abs(total - rec["dur"]) / max(rec["dur"], 1e-12))
    return ops, worst


def _median_over_ops(ops, fn):
    return statistics.median(fn(rec) for rec in ops.values())


def all_self_ms(ops):
    """Median per-op self time (ms) of every traced name."""
    names = sorted({k for r in ops.values() for k in r["self"]})
    return {n: _median_over_ops(ops, lambda r: 1e3 * r["self"].get(n, 0.0)) for n in names}


def layer_metrics(ops, self_ms):
    """Per-layer metrics from the per-op summary and all_self_ms(ops)."""
    pw = "graph.pairwise_sq_distances"

    def pairwise_sum(r, key):
        return sum(a[key] for a in r["attrs"].get(pw, ()))

    solve_cols = [a["rhs_cols"] for r in ops.values()
                  for a in r["attrs"].get("numerics.solve_spd", ())]
    durs = sorted(1e3 * r["dur"] for r in ops.values())
    out = {f"{name}.self_ms": self_ms[name] for name in (
        pw, "graph.adjacency", "graph.normalized_laplacian", "graph.propagator",
        "numerics.solve_spd", "propagation.propagate_embeddings")}
    out.update({
        f"{pw}.gflop": _median_over_ops(ops, lambda r: pairwise_sum(r, "flop")) / 1e9,
        f"{pw}.gflops": _median_over_ops(
            ops, lambda r: pairwise_sum(r, "flop") / 1e9 / r["self"][pw]),
        f"{pw}.mb": _median_over_ops(ops, lambda r: pairwise_sum(r, "bytes")) / 1e6,
        "graph.build_propagator.calls_per_op": _median_over_ops(
            ops, lambda r: r["calls"].get("graph.build_propagator", 0)),
        "numerics.solve_spd.rhs_cols": statistics.median(solve_cols),
        "op.outside_graph_ms": _median_over_ops(ops, lambda r: 1e3 * sum(
            v for k, v in r["self"].items() if not k.startswith(GRAPH_LAYERS))),
        "op.ms_p50": statistics.median(durs),
        "op.ms_p90": statistics.quantiles(durs, n=10)[-1] if len(durs) > 1 else durs[0],
    })
    return out
