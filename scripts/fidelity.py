#!/usr/bin/env python3
"""Label-propagation accuracy of the benchmark's data under a scale and an offset.

For the 5-way 1-shot 640-wide and 5-way 5-shot 8-wide layouts of perfbench's
workloads, on the data `perfbench/workloads.make_dataset` draws for them,
prints the LP accuracy with embedding propagation FULL and IDENTITY, each with
SSL off and on, after every embedding is scaled by 1 and by 1/sqrt(m) and
shifted by 0 and by 100. The SSL columns add 20 unlabeled rows to each
episode and pseudo-label them. README "A note on scale" explains the table.

    PYTHONPATH=src python scripts/fidelity.py
    PYTHONPATH=src python scripts/fidelity.py --episodes 5 --layouts 5shot-w8
"""

import argparse
import dataclasses
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, make_dataset  # noqa: E402

from embedprop import EmbeddingSet, EvalConfig, PropagationMode, SslMode, evaluate  # noqa: E402

LAYOUTS = {"1shot-w640": "fewshot-1shot-w640", "5shot-w8": "fewshot-5shot-w8"}
SSL_UNLABELED = 20


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--layouts", nargs="+", choices=list(LAYOUTS), default=list(LAYOUTS))
    ap.add_argument("--episodes", type=int, default=100)
    ap.add_argument("--seed", type=int, default=3, help="seed of the data and the episodes")
    args = ap.parse_args()

    columns = {"full": (PropagationMode.FULL, SslMode.OFF),
               "identity": (PropagationMode.IDENTITY, SslMode.OFF),
               "full+ssl": (PropagationMode.FULL, SslMode.PSEUDO_LABEL),
               "identity+ssl": (PropagationMode.IDENTITY, SslMode.PSEUDO_LABEL)}
    print(f"LP accuracy, {args.episodes} episodes, seed {args.seed}; ssl adds u={SSL_UNLABELED}")
    print(f"{'layout':11s} {'scale':>9s} {'offset':>6s} "
          + " ".join(f"{name:>12s}" for name in columns))
    for layout in args.layouts:
        w = WORKLOADS[LAYOUTS[layout]]
        z, labels = make_dataset(w, args.seed)
        base = EvalConfig(n_way=w.n_way, k_shot=w.k_shot, q_queries=w.q_queries,
                          episodes=args.episodes, seed=args.seed)
        for scale_name, scale in (("1", 1.0), ("1/sqrt(m)", 1.0 / math.sqrt(w.dim))):
            for offset in (0.0, 100.0):
                data = EmbeddingSet(z * scale + offset, labels)
                accuracies = [
                    evaluate(data, dataclasses.replace(
                        base, mode=mode, ssl=ssl,
                        u_unlabeled=SSL_UNLABELED if ssl is SslMode.PSEUDO_LABEL else 0)).mean
                    for mode, ssl in columns.values()
                ]
                print(f"{layout:11s} {scale_name:>9s} {offset:6g} "
                      + " ".join(f"{acc:12.3f}" for acc in accuracies), flush=True)


if __name__ == "__main__":
    main()
