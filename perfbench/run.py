"""embedprop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark writes the workload's input
file from --seed under .bench_work/, then starts child processes that use
the library from src/ through its public API (see worker.py):

* setup: SETUP_RUNS fresh interpreters each time `import embedprop` plus
  `load_embeddings`; setup_s is their median.
* measure: one process runs the workload's operation in a closed loop for
  S seconds after a warm-up call; its peak RSS is peak_rss_mb.

The outputs are then checked against an independent numpy reference
(reference.py). With --trace 0 the last stdout line carries the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer ones. Everything else
the run saw (environment, per-function self times, spans) is printed above it
and saved under .bench_work/.

Threads: EP_THREADS stays unset in end-to-end runs, as users get it, and BLAS
runs one thread, so that pool workers x BLAS threads <= nproc (the library's
default pool never exceeds nproc).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import reference  # noqa: E402
from workloads import WORKLOADS, read_csv, write_input  # noqa: E402

SETUP_RUNS = 9
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EP_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, timeout) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return proc.stdout


def measure_setup(data_path) -> list:
    """Setup seconds of SETUP_RUNS fresh interpreters, after one warm-up."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        out = run_child(["setup", str(data_path)], timeout=60)
        times.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return times[1:]


class Check:
    """Counts failed operations and what the reference compared."""

    def __init__(self):
        self.failed = 0
        self.notes = []
        self.compared = self.skipped = 0
        self.max_rel_err = 0.0  # largest scores/ztilde error against the reference

    def error(self, err: float, what: str) -> bool:
        """Record a relative error; fail one operation if it exceeds RTOL."""
        self.max_rel_err = max(self.max_rel_err, err)
        if err <= reference.RTOL:
            return True
        self.fail(1, f"{what} off the reference by {err:.3e} (relative)")
        return False

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.notes.append(why)


def check_calls(check: Check, segments: dict) -> None:
    """Raised calls fail; calls with equal index ran the same inputs, so
    their outputs must agree bit for bit across segments and thread counts."""
    first = segments["untraced"]
    for name, calls in segments.items():
        for c in calls:
            if c["error"] is not None:
                check.fail(c["ops"], f"{name} call {c['index']} raised")
            elif c["index"] < len(first) and first[c["index"]]["error"] is None \
                    and c["out"] != first[c["index"]]["out"]:
                check.fail(c["ops"], f"{name} call {c['index']} differs from untraced call")


def check_episodes(check: Check, w, z, labels, checked, accuracies) -> None:
    labels = np.asarray(labels)
    n_labeled = int(np.ceil(w.labeled_fraction * w.k_shot - 1e-9))
    for rec in checked:
        i = rec["episode"]
        if rec["error"] is not None:
            check.fail(1, f"checked episode {i} raised")
            continue
        classes = rec["classes"]
        support = np.asarray(rec["support"])
        query = np.asarray(rec["query"]).reshape(w.n_way, w.q_queries)
        unlabeled = np.asarray(rec["unlabeled"], dtype=int)
        mask = np.asarray(rec["labeled_mask"], dtype=bool).reshape(w.n_way, w.k_shot)
        nodes = np.concatenate([support.ravel(), query.ravel(), unlabeled])
        cls = np.asarray(classes)
        if (len(set(classes)) != w.n_way or support.shape != (w.n_way, w.k_shot)
                or len(unlabeled) != w.u_unlabeled or len(set(nodes.tolist())) != nodes.size
                or (labels[support] != cls[:, None]).any() or (labels[query] != cls[:, None]).any()
                or not np.isin(labels[unlabeled], cls).all()
                or (mask.sum(axis=1) != n_labeled).any()):
            check.fail(1, f"checked episode {i} has a malformed layout")
            continue
        ep = {"n_way": w.n_way, "k_shot": w.k_shot, "query": query.ravel(),
              "labeled_mask": mask.ravel()}
        scores, pass1_decided = reference.episode_scores(z[nodes], ep, w.kind == "ssl")
        if not pass1_decided:
            check.skipped += len(rec["preds"])
            continue
        ok = reference.decided(scores)
        ref_preds = np.argmax(scores, axis=1)
        preds = np.asarray(rec["preds"])
        truth = np.repeat(np.arange(w.n_way), w.q_queries)
        check.compared += int(ok.sum())
        check.skipped += int((~ok).sum())
        ref_acc = float(np.mean(ref_preds == truth))
        if rec["scores"] is not None and not check.error(
                reference.rel_error(rec["scores"], scores), f"episode {i} query scores"):
            continue
        if (preds[ok] != ref_preds[ok]).any():
            check.fail(1, f"checked episode {i}: predictions differ from the reference")
        elif abs(accuracies[i] - ref_acc) > (~ok).sum() / truth.size + 1e-12:
            check.fail(1, f"checked episode {i}: evaluate accuracy {accuracies[i]} "
                          f"!= reference {ref_acc}")


def check_propagate(check: Check, w, z, labels, calls, out_path) -> None:
    ids, saved_labels, saved = read_csv(out_path)
    digest = calls[-1]["out"]
    if saved_labels != list(labels) or ids != [str(i) for i in range(len(labels))]:
        check.fail(1, "saved file has wrong ids or labels")
    elif hashlib.sha256(saved.tobytes()).hexdigest() != digest:
        check.fail(1, "saved file does not round-trip the propagated embeddings")
    else:
        check.compared += 1
        check.error(reference.rel_error(saved, reference.diffuse(z, z)), "ztilde")


def declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "embedprop" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no embedprop sources under {ROOT / 'src'}\n")
        return 2
    w = WORKLOADS[args.workload]
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    data_path = work / f"{w.name}{w.file_suffix}"
    z, labels = write_input(w, args.seed, data_path)

    setup_times = [] if args.trace else measure_setup(data_path)
    result_path = work / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    run_child(["measure", w.name, str(args.seed), str(args.seconds), str(args.trace),
               str(data_path), str(result_path)], timeout=CHILD_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    segments = result["segments"]
    check = Check()
    check_calls(check, segments)
    attempted = sum(c["ops"] for calls in segments.values() for c in calls)
    untraced = segments["untraced"]
    if w.kind == "propagate":
        check_propagate(check, w, z, labels, untraced, work / f"{w.name}-out.csv")
    elif untraced[0]["error"] is None:
        check_episodes(check, w, z, labels, result["checked"], untraced[0]["out"])

    failed = min(check.failed, attempted)
    good = [c["wall_s"] / c["ops"] for c in untraced if c["error"] is None]
    if not good:
        sys.stderr.write("run.py: every timed call raised; nothing to measure\n")
        return 4
    if args.trace:
        metrics = dict(result["layer"])
    else:
        metrics = {
            "ops_per_s": 1.0 / statistics.median(good),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
    units = declared_metrics(bool(args.trace))
    if set(metrics) != set(units):
        sys.stderr.write(f"run.py: metrics {sorted(metrics)} do not match BENCHMARK.json\n")
        return 3
    correct = check.failed == 0 and (not args.trace or result["self_sum_gap"] <= 1e-9)

    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": result["env"],
        "dataset": {"rows": len(labels), "dim": w.dim, "classes": w.n_classes,
                    "file": data_path.name, "bytes": data_path.stat().st_size},
        "layout": {"kind": w.kind, "batch_rows": w.batch_rows, "n_way": w.n_way,
                   "k_shot": w.k_shot, "q_queries": w.q_queries, "u_unlabeled": w.u_unlabeled,
                   "labeled_fraction": w.labeled_fraction,
                   "episodes_per_call": w.episodes_per_call},
        "calls": {name: len(calls) for name, calls in segments.items()},
        "failed_frac": failed / attempted,
        "mean_accuracy": None if w.kind == "propagate" else float(np.mean(
            [a for c in untraced if c["error"] is None for a in c["out"]])),
        "check": {"failed": check.failed, "notes": check.notes[:20],
                  "compared": check.compared, "skipped_margin": check.skipped,
                  "max_rel_err": check.max_rel_err, "rtol": reference.RTOL},
        "setup_s_runs": setup_times,
    }
    if args.trace:
        record.update(self_ms=result["self_ms"], self_sum_gap=result["self_sum_gap"],
                      traced_ops=result["traced_ops"])
    print("env " + json.dumps(record))
    headline = "propagate_s" if w.kind == "propagate" else "episodes_per_s"
    if not args.trace:
        rate = metrics["ops_per_s"]
        print(f"{headline} {1.0 / rate if w.kind == 'propagate' else rate:.6g} "
              f"{'s' if w.kind == 'propagate' else '1/s'}; failed_frac {failed / attempted:.6g} "
              f"({failed} of {attempted})")
    else:
        for name, ms in result["self_ms"].items():
            print(f"self_ms {name} {ms:.6g}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    with open(work / f"{w.name}-seed{args.seed}-trace{args.trace}-summary.json", "w",
              encoding="utf-8") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
