"""Command-line interface.

Subcommands: evaluate, ssl, propagate, moons, interp. Exit codes: 0 success,
1 usage/configuration error, 2 data or parse error.
"""

import argparse
import csv
import sys

import numpy as np

from . import io
from .diagnostics import interpolation_curve, random_query_pairs, two_moons
from .episodes import Classifier, EmbeddingSet, EvalConfig, SslMode, evaluate, sample_episode
from .errors import EmbedPropError
from .graph import GraphConfig
from .propagation import PropagationMode, propagate_embeddings

# Salt for the pair-picking RNG stream so it cannot collide with episode streams.
_PAIR_STREAM = 0x9E3779B9


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="embedding file (csv or binary)")
    p.add_argument("--n-way", type=int, default=5)
    p.add_argument("--k-shot", type=int, default=1)
    p.add_argument("--q-queries", type=int, default=15)
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--mode", choices=[m.value for m in PropagationMode], default="full")
    p.add_argument("--classifier", choices=[c.value for c in Classifier], default="lp")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="JSON report path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="embedprop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eval = sub.add_parser("evaluate", help="episodic accuracy benchmark")
    _add_eval_args(p_eval)
    p_eval.set_defaults(run=_cmd_evaluate)

    p_ssl = sub.add_parser("ssl", help="benchmark with pseudo-label semi-supervision")
    _add_eval_args(p_ssl)
    p_ssl.add_argument("--unlabeled", type=int, default=100)
    p_ssl.add_argument("--labeled-fraction", type=float, default=1.0)
    p_ssl.set_defaults(run=_cmd_evaluate)

    p_prop = sub.add_parser("propagate", help="propagate a whole embedding file as one batch")
    p_prop.add_argument("--data", required=True)
    p_prop.add_argument("--alpha", type=float, default=0.5)
    p_prop.add_argument("--mode", choices=[m.value for m in PropagationMode], default="full")
    p_prop.add_argument("--out", required=True)
    p_prop.set_defaults(run=_cmd_propagate)

    p_moons = sub.add_parser("moons", help="write a two-moons embedding file")
    p_moons.add_argument("--n", type=int, default=200, help="points per moon")
    p_moons.add_argument("--noise", type=float, default=0.1)
    p_moons.add_argument("--seed", type=int, default=42)
    p_moons.add_argument("--out", required=True)
    p_moons.set_defaults(run=_cmd_moons)

    p_interp = sub.add_parser("interp", help="interpolation probability curves as CSV")
    p_interp.add_argument("--data", required=True)
    p_interp.add_argument("--n-way", type=int, default=5)
    p_interp.add_argument("--k-shot", type=int, default=1)
    p_interp.add_argument("--pairs", type=int, default=20)
    p_interp.add_argument("--grid", type=int, default=11)
    p_interp.add_argument("--alpha", type=float, default=0.5)
    p_interp.add_argument("--seed", type=int, default=42)
    p_interp.add_argument("--out", required=True)
    p_interp.set_defaults(run=_cmd_interp)

    return parser


def _eval_config(args, ssl: bool) -> EvalConfig:
    return EvalConfig(
        n_way=args.n_way,
        k_shot=args.k_shot,
        q_queries=args.q_queries,
        u_unlabeled=args.unlabeled if ssl else 0,
        labeled_fraction=args.labeled_fraction if ssl else 1.0,
        episodes=args.episodes,
        graph=GraphConfig(alpha=args.alpha),
        mode=PropagationMode(args.mode),
        classifier=Classifier(args.classifier),
        ssl=SslMode.PSEUDO_LABEL if ssl else SslMode.OFF,
        seed=args.seed,
    )


def _cmd_evaluate(args) -> None:
    data = io.load_embeddings(args.data)
    cfg = _eval_config(args, ssl=args.command == "ssl")
    report = evaluate(data, cfg)
    io.write_report(report, args.out)
    print(
        f"mean accuracy {report.mean:.4f} (ci95 {report.ci95:.4f}, "
        f"{len(report.accuracies)} episodes, {report.wall_ms} ms) -> {args.out}"
    )


def _cmd_propagate(args) -> None:
    data = io.load_embeddings(args.data)
    ztilde, prop = propagate_embeddings(
        data.embeddings, GraphConfig(alpha=args.alpha), PropagationMode(args.mode)
    )
    io.save_embeddings(EmbeddingSet(ztilde, data.labels, data.split), args.out)
    print(f"propagated {data.n} rows (alpha {prop.alpha}, sigma2 {prop.sigma2:.6g}) -> {args.out}")


def _cmd_moons(args) -> None:
    data = two_moons(args.n, args.noise, args.seed)
    io.save_embeddings(data, args.out)
    print(f"wrote {data.n} moon points -> {args.out}")


def _cmd_interp(args) -> None:
    data = io.load_embeddings(args.data)
    cfg = EvalConfig(
        n_way=args.n_way,
        k_shot=args.k_shot,
        episodes=1,
        graph=GraphConfig(alpha=args.alpha),
        seed=args.seed,
    )
    ep = sample_episode(data, cfg, 0)
    rng = np.random.default_rng([args.seed, _PAIR_STREAM])
    pairs = random_query_pairs(ep, args.pairs, rng)
    # every curve is computed before --out is opened, so a failure leaves it untouched
    curves = [interpolation_curve(data, ep, i, j, args.grid, cfg) for i, j in pairs]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair", "i", "j", "weight", "prob"])
        for pair_id, curve in enumerate(curves):
            for w, p in zip(curve.grid, curve.probs):
                writer.writerow([pair_id, curve.i, curve.j, format(w, ".17g"), format(p, ".17g")])
    mean_jump = np.mean([c.max_jump for c in curves])
    print(f"wrote {len(curves)} curves (mean max jump {mean_jump:.4f}) -> {args.out}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.run(args)
    except (EmbedPropError, OSError) as exc:
        print(f"embedprop: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"embedprop: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
