"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--out FILE] [--against EARLIER_OUT]

Runs `run.py --trace 0` once per seed and workload (seed-major, so slow
drifts of the machine spread over all workloads) and reports for every
end-to-end metric the median and the spread (Q3 - Q1) / median, with the
quartiles from statistics.quantiles(values, n=4). A spread under a third of
the metric's bound in BENCHMARK.json is marked steady. The spread of setup_s
is reported but not judged: set-up is compared by its median only.
--against reports how much worse each median is than in an earlier set.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", default=str(ROOT / ".bench_work" / "steadiness.json"))
    parser.add_argument("--against", help="an earlier --out file: report how much worse "
                        "each median is than its median there")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    runs = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{w} seed {seed} exited with code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w].append({"seed": seed, "run_wall_s": time.perf_counter() - start,
                            "correct": result["correct"],
                            "attempted": result["attempted"], "failed": result["failed"],
                            **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    first = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            first = json.load(fh)["summary"]
    report = {"run_seconds": spec["run_seconds"], "runs": runs, "summary": {}}
    print(f"\n{'workload':22} {'metric':12} {'median':>12} {'spread':>8} {'bound/3':>8}"
          + (f" {'worse':>8}" if first else ""))
    for w in workloads:
        report["summary"][w] = {}
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs[w]]
            med = statistics.median(values)
            s = spread(values) if len(values) > 1 else 0.0
            steady = m["name"] == "setup_s" or s < m["bound"] / 3
            entry = {"median": med, "spread": s, "bound": m["bound"], "steady": steady}
            line = (f"{w:22} {m['name']:12} {med:12.6g} {s:8.4f} {m['bound'] / 3:8.4f}")
            if first:
                base = first[w][m["name"]]["median"]
                worse = (base - med if m["better"] == "higher" else med - base) / base
                entry["worse_than_against"] = worse
                line += f" {worse:8.4f}" + ("  OUT OF BOUND" if worse > m["bound"] else "")
            report["summary"][w][m["name"]] = entry
            print(line + ("" if steady else "  NOT STEADY"))
    Path(args.out).parent.mkdir(exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
