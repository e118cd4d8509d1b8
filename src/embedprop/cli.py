"""Command-line interface.

Subcommands: evaluate, ssl, propagate, moons, interp. Exit codes: 0 success,
1 usage/configuration error, 2 data, parse or resource error. evaluate, ssl
and interp sample only the novel rows of a file with split tags (exit 2 when
it has none); propagate keeps every row.
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

_DEFAULT = EvalConfig()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _enum_flag(kind, default) -> dict:
    """A flag that parses straight to a member of `kind`; usage lists the values."""
    return dict(type=kind, choices=list(kind), default=default,
                metavar="{" + ",".join(member.value for member in kind) + "}")


# Every flag, declared once under its dest. A flag that sets an EvalConfig or
# GraphConfig field takes that field's default.
_FLAGS = {
    "data": dict(required=True, help="embedding file (csv or binary); evaluate, ssl and interp "
                 "read only the novel rows of a file with split tags, propagate every row"),
    "n_way": dict(type=int, default=_DEFAULT.n_way),
    "k_shot": dict(type=int, default=_DEFAULT.k_shot),
    "q_queries": dict(type=int, default=_DEFAULT.q_queries),
    "episodes": dict(type=int, default=_DEFAULT.episodes),
    "alpha": dict(type=float, default=_DEFAULT.graph.alpha),
    "mode": _enum_flag(PropagationMode, _DEFAULT.mode),
    "classifier": _enum_flag(Classifier, _DEFAULT.classifier),
    "seed": dict(type=int, default=_DEFAULT.seed),
    "out": dict(required=True, help="output file"),
    "unlabeled": dict(type=int, default=100),
    "labeled_fraction": dict(type=float, default=_DEFAULT.labeled_fraction),
    "pairs": dict(type=int, default=20),
    "grid": dict(type=int, default=11),
    "n": dict(type=int, default=200, help="points per moon"),
    "noise": dict(type=float, default=0.1),
}

_EPISODE_FLAGS = ("data", "n_way", "k_shot", "q_queries", "episodes", "alpha", "mode",
                  "classifier", "seed", "out")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="embedprop", description=__doc__)
    # EvalConfig fields that a subcommand sets by no flag of its own; its
    # flags and set_defaults below override these
    parser.set_defaults(q_queries=_DEFAULT.q_queries, unlabeled=_DEFAULT.u_unlabeled,
                        labeled_fraction=_DEFAULT.labeled_fraction, mode=_DEFAULT.mode,
                        classifier=_DEFAULT.classifier, ssl=_DEFAULT.ssl)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, summary, flags, defaults in (
        ("evaluate", "episodic accuracy benchmark", _EPISODE_FLAGS, {"run": _cmd_evaluate}),
        ("ssl", "benchmark with pseudo-label semi-supervision",
         _EPISODE_FLAGS + ("unlabeled", "labeled_fraction"),
         {"run": _cmd_evaluate, "ssl": SslMode.PSEUDO_LABEL}),
        ("propagate", "propagate a whole embedding file as one batch",
         ("data", "alpha", "mode", "out"), {"run": _cmd_propagate}),
        ("moons", "write a two-moons embedding file", ("n", "noise", "seed", "out"),
         {"run": _cmd_moons}),
        ("interp", "interpolation probability curves as CSV",
         ("data", "n_way", "k_shot", "pairs", "grid", "alpha", "seed", "out"),
         {"run": _cmd_interp, "episodes": 1}),
    ):
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
        p.set_defaults(**defaults)
    return parser


def _eval_config(args) -> EvalConfig:
    """The EvalConfig that evaluate, ssl and interp run, from the parsed flags."""
    return EvalConfig(
        n_way=args.n_way, k_shot=args.k_shot, q_queries=args.q_queries,
        u_unlabeled=args.unlabeled, labeled_fraction=args.labeled_fraction,
        episodes=args.episodes, graph=GraphConfig(alpha=args.alpha), mode=args.mode,
        classifier=args.classifier, ssl=args.ssl, seed=args.seed,
    )


def _episode_set(path) -> EmbeddingSet:
    """The rows evaluate, ssl and interp sample: a tagged set's novel rows, else every row."""
    data = io.load_embeddings(path)
    return data if data.split is None else data.filter_split("novel")


def _cmd_evaluate(args) -> None:
    report = evaluate(_episode_set(args.data), _eval_config(args))
    io.write_report(report, args.out)
    print(
        f"mean accuracy {report.mean:.4f} (ci95 {report.ci95:.4f}, "
        f"{len(report.accuracies)} episodes, {report.wall_ms} ms) -> {args.out}"
    )


def _cmd_propagate(args) -> None:
    data = io.load_embeddings(args.data)
    ztilde, prop = propagate_embeddings(data.embeddings, GraphConfig(alpha=args.alpha), args.mode)
    io.save_embeddings(EmbeddingSet(ztilde, data.labels, data.split), args.out)
    print(f"propagated {data.n} rows (alpha {prop.alpha}, sigma2 {prop.sigma2:.6g}) -> {args.out}")


def _cmd_moons(args) -> None:
    data = two_moons(args.n, args.noise, args.seed)
    io.save_embeddings(data, args.out)
    print(f"wrote {data.n} moon points -> {args.out}")


def _cmd_interp(args) -> None:
    data = _episode_set(args.data)
    cfg = _eval_config(args)
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
    except (EmbedPropError, OSError, ValueError) as exc:
        print(f"embedprop: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (EmbedPropError, OSError)) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
