#!/usr/bin/env python3
"""Mutant catalogue: known wrong versions of the library that the tests must catch.

Each mutant is a list of text patches (file, text, replacement) and the test
files that should fail under it. For every mutant the script copies `src/`,
`tests/`, `perfbench/` and `pyproject.toml` into a temporary directory,
replaces every occurrence of each text there, runs `pytest -x` on the named
test files with the copy's `src/` on the path, and prints `killed`, with the
first failing test, when they fail and `survived` when they pass. A text
that no longer occurs in its file stops the script: the catalogue has gone
stale.

    python scripts/mutants.py                  # every mutant
    python scripts/mutants.py alpha-negated    # the named ones
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EPISODES = "src/embedprop/episodes.py"
GRAPH = "src/embedprop/graph.py"
NUMERICS = "src/embedprop/numerics.py"

# name -> (patches, test files)
MUTANTS = {
    "bandwidth-std-for-var": (
        [(GRAPH, "return float(np.add.reduce(off) / off.size)",
          "return float(np.sqrt(np.add.reduce(off) / off.size))")],
        ["tests/test_graph.py"],
    ),
    "one-sided-inv-sqrt-degree": (
        [(GRAPH, "lap = np.multiply.outer(dinv, dinv)",
          "lap = np.multiply.outer(dinv, np.ones_like(dinv))")],
        ["tests/test_graph.py"],
    ),
    "ssl-pass2-without-pool": (
        [(EPISODES,
          "return score(np.concatenate([rows, pool]), np.concatenate([classes, pseudo]))",
          "return score(rows, classes)")],
        ["tests/test_reference.py", "tests/test_episodes.py"],
    ),
    # the chain still runs, but perfbench's tracer finds its stages by name
    "renamed-pairwise-sq-distances": (
        [(name, "pairwise_sq_distances", "sq_distances")
         for name in (GRAPH, "src/embedprop/diagnostics.py", "src/embedprop/__init__.py")],
        ["tests/test_tracing.py"],
    ),
    "alpha-negated": (
        [(GRAPH, "system = np.multiply(lap, alpha,", "system = np.multiply(lap, -alpha,")],
        ["tests/test_graph.py"],
    ),
    "adjacency-diagonal-not-zeroed": (
        [(GRAPH, "    np.fill_diagonal(a, 0.0)\n    return a, sigma2", "    return a, sigma2")],
        ["tests/test_graph.py"],
    ),
    "tiny-floor-dropped": (
        [(GRAPH, "np.maximum(a, np.finfo(np.float64).tiny, out=a)", "pass")],
        ["tests/test_graph.py"],
    ),
    "f32-block-at-split-code-offset": (
        [("src/embedprop/io.py", 'dtype="<f4", count=n * m, offset=pos + 3 * n',
          'dtype="<f4", count=n * m, offset=pos + 2 * n')],
        ["tests/test_io.py"],
    ),
    # a tagged file's base classes are sampled too, as before the split rule
    "cli-ignores-split-tags": (
        [("src/embedprop/cli.py",
          'return data if data.split is None else data.filter_split("novel")', "return data")],
        ["tests/test_cli.py"],
    ),
    # the partial factor of an indefinite M is used as if it were complete
    "pd-info-ignored": (
        [(NUMERICS, "if info > 0:", "if info < 0:")],
        ["tests/test_numerics.py"],
    ),
    # potrf leaves M's own upper triangle in place (clean=False), so the
    # solve runs on M, not on its factor
    "potrs-reads-upper": (
        [(NUMERICS, "if wide else b, lower=True)", "if wide else b, lower=False)")],
        ["tests/test_numerics.py"],
    ),
    # numpy's cast truncates a float index and reads a bool one as 0 or 1
    "index-rule-accepts-floats": (
        [(NUMERICS, '    if a.size and a.dtype.kind not in "iu":\n'
                    '        raise TypeError(f"{name} must hold integers, got dtype {a.dtype}")\n',
          "")],
        ["tests/test_numerics.py", "tests/test_classify.py", "tests/test_episodes.py"],
    ),
    # bool is a numbers.Integral, so k_shot=True would build a 1-shot config
    "count-accepts-bool": (
        [(NUMERICS, "if isinstance(value, bool) or not isinstance(value, numbers.Integral):",
          "if not isinstance(value, numbers.Integral):")],
        ["tests/test_numerics.py"],
    ),
    # a count equal to its least, u_unlabeled=0 say, is refused
    "count-least-off-by-one": (
        [(NUMERICS, "if least is not None and value < least:",
          "if least is not None and value <= least:")],
        ["tests/test_numerics.py"],
    ),
    # the same routines, reached through all of scipy.linalg in every process
    "imports-scipy-linalg": (
        [(NUMERICS, "lapack = importlib.util.module_from_spec(_spec)\n_spec.loader.exec_module(lapack)\n",
          "from scipy.linalg import lapack\n")],
        ["tests/test_numerics.py"],
    ),
    # the factorization reads only M's lower triangle, so an asymmetric M is
    # solved as if it were symmetric
    "solve-spd-skips-symmetry": (
        [(NUMERICS, '    check_symmetric(m, "M")\n', "")],
        ["tests/test_numerics.py", "tests/test_graph.py"],
    ),
    # every share stops one row short, so the row before each cut (and the
    # last row) is never computed
    "share-drops-last-row": (
        [(NUMERICS, "    return list(zip(bounds[:-1], bounds[1:]))",
          "    return [(lo, hi - 1) for lo, hi in zip(bounds[:-1], bounds[1:])]")],
        ["tests/test_graph.py"],
    ),
    # numpy's error state does not follow a task into a pool thread, so the
    # pool's shares warn on an overflowing difference
    "share-errstate-on-caller-only": (
        [(GRAPH, '        with np.errstate(over="ignore"):\n            for start, stop, scratch',
          "        if True:\n            for start, stop, scratch"),
         (GRAPH, "    numerics.parallel_map(rows, shares, len(shares))",
          '    with np.errstate(over="ignore"):\n'
          "        numerics.parallel_map(rows, shares, len(shares))")],
        ["tests/test_graph.py"],
    ),
    # every evaluate starts its pool, also where an episode is too small to
    # gain from threads (100 rows x 8 columns)
    "episode-pool-ignores-size": (
        [(EPISODES, "    workers = numerics.workers_for(rows * rows * data.dim)\n",
          "    workers = thread_count()\n")],
        ["tests/test_graph.py"],
    ),
    # a kernel on a pool thread starts a pool of its own: pools nest
    "workers-ignore-mark": (
        [(NUMERICS, '    if getattr(_pool_thread, "marked", False):\n        return 1\n', "")],
        ["tests/test_graph.py"],
    ),
    # the pool's threads are never marked, so a kernel on one starts a pool
    # of its own: pools nest
    "pool-threads-unmarked": (
        [(NUMERICS, "ThreadPoolExecutor(workers, initializer=_mark_pool_thread)",
          "ThreadPoolExecutor(workers)")],
        ["tests/test_graph.py"],
    ),
    # numpy's bool cast reads a float, int or string mask as all True
    "mask-accepts-any-dtype": (
        [(EPISODES, "mask = np.asarray(self.labeled_mask)\n",
          "mask = np.asarray(self.labeled_mask, dtype=bool)\n")],
        ["tests/test_episodes.py"],
    ),
    # an untagged file's report would read "split": [] rather than null
    "parsers-keep-all-none-split": (
        [(EPISODES, "            if all(s is None for s in split):\n                split = None\n",
          "")],
        ["tests/test_io.py", "tests/test_cli.py", "tests/test_episodes.py"],
    ),
}


def run_mutant(name: str) -> tuple[str, str]:
    """(outcome, the first failing test or "" when none failed) of one mutant."""
    patches, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for rel, text, replacement in patches:
            path = copy / rel
            source = path.read_text(encoding="utf-8")
            if text not in source:
                raise SystemExit(f"{name}: {rel} no longer contains {text!r}")
            path.write_text(source.replace(text, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    # pytest exits 1 when a test fails and 2 when collection fails
    if result.returncode in (1, 2):
        failed = [line.split(" - ")[0].split(" ", 1)[1] for line in result.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        return "killed", failed[0] if failed else ""
    if result.returncode == 0:
        return "survived", ""
    raise SystemExit(f"{name}: pytest exited {result.returncode}\n{result.stdout}{result.stderr}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("names", nargs="*", metavar="name",
                    help=f"mutants to run (default: all): {', '.join(MUTANTS)}")
    args = ap.parse_args()
    unknown = [name for name in args.names if name not in MUTANTS]
    if unknown:
        ap.error(f"unknown mutant {unknown[0]!r}; choose from {', '.join(MUTANTS)}")
    for name in args.names or MUTANTS:
        start = time.perf_counter()
        outcome, by = run_mutant(name)
        print(f"{name}: {outcome} ({time.perf_counter() - start:.1f} s){' by ' + by if by else ''}",
              flush=True)


if __name__ == "__main__":
    main()
