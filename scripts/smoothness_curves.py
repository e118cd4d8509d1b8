#!/usr/bin/env python3
"""Interpolation smoothness experiment.

Samples a seeded 2-class Gaussian episode, interpolates between random
different-class query pairs, and compares the probability transitions with
and without embedding propagation. Smaller max jumps mean smoother decision
boundaries along the segment.
"""

import argparse
import csv
import dataclasses

import numpy as np

from embedprop import (
    EvalConfig,
    GraphConfig,
    PropagationMode,
    gaussian_clusters,
    interpolation_curve,
    random_query_pairs,
    sample_episode,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spread", type=float, default=0.25 * np.sqrt(2))
    ap.add_argument("--per-class", type=int, default=80)
    ap.add_argument("--k-shot", type=int, default=5)
    ap.add_argument("--q-queries", type=int, default=15)
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--grid", type=int, default=16)
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--out", default=None, help="optional CSV of all curves")
    args = ap.parse_args()

    data = gaussian_clusters(2, args.per_class, spread=args.spread, seed=args.seed)
    cfg = EvalConfig(
        n_way=2, k_shot=args.k_shot, q_queries=args.q_queries, episodes=1, seed=args.seed,
        graph=GraphConfig(alpha=args.alpha),
    )
    ep = sample_episode(data, cfg, 0)
    pairs = random_query_pairs(ep, args.pairs, np.random.default_rng([args.seed, 77]))

    rows = []
    for mode in (PropagationMode.FULL, PropagationMode.IDENTITY):
        mcfg = dataclasses.replace(cfg, mode=mode)
        jumps = []
        for pid, (i, j) in enumerate(pairs):
            curve = interpolation_curve(data, ep, i, j, args.grid, mcfg)
            jumps.append(curve.max_jump)
            rows.extend(
                (mode.value, pid, i, j, w, p) for w, p in zip(curve.grid, curve.probs)
            )
        print(
            f"mode {mode.value:8s}: mean max-jump {np.mean(jumps):.4f} "
            f"(worst {np.max(jumps):.4f}) over {len(pairs)} pairs"
        )

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mode", "pair", "i", "j", "weight", "prob"])
            writer.writerows(rows)
        print(f"curves -> {args.out}")


if __name__ == "__main__":
    main()
