#!/usr/bin/env python3
"""One sha256 over the library's numeric outputs, to compare two versions bit for bit.

Hashes the `run_episode` score matrices of every Classifier x SslMode x
PropagationMode combination on seeded Gaussian-cluster episodes, then
`propagate_embeddings` in every PropagationMode at several batch shapes
(n = 1 and 2, duplicate rows, a large common offset, up to 2000 x 64): its
z_tilde, the propagator's system, sigma^2 and formed matrix. Every value is
hashed by its raw float64 bytes, after a label naming it. Then come the bytes
`save_embeddings` writes, as CSV and as EPB1, for one propagated batch whose
labels need CSV quoting and whose rows carry mixed split tags, each followed
by what `load_embeddings` reads back from that file: its embedding bytes,
labels and split. Then the error type and message `load_embeddings` raises
on a few fixed malformed CSVs, with the file's path replaced by its name, so
a reader change that moves a message shows too. Last come the JSON reports
of one `evaluate` (default flags) and one `ssl` run (every flag set), both
through `embedprop.cli.main` on a seeded CSV, without `wall_ms`.

The bits depend on the BLAS build, its thread count and the CPU, so the digest
is not a golden value: run it for both versions on one host with the same
OPENBLAS_NUM_THREADS and compare the two lines.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/output_digest.py
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np

from embedprop import (
    Classifier,
    EmbeddingSet,
    EmbedPropError,
    EvalConfig,
    GraphConfig,
    PropagationMode,
    SslMode,
    cli,
    gaussian_clusters,
    load_embeddings,
    propagate_embeddings,
    run_episode,
    sample_episode,
    save_embeddings,
)

# (rows, columns, common offset, duplicated rows) of the propagate batches
SHAPES = (
    (1, 3, 0.0, 0),
    (2, 3, 0.0, 0),
    (2, 1, 0.0, 1),
    (7, 2, -37.5, 2),
    (100, 8, 0.0, 0),
    (80, 640, 3.0, 3),
    (300, 64, 1e4, 0),
    (2000, 64, 0.0, 0),
)

# labels of the saved batch: csv quotes the first four; then a space, the
# empty string and non-ASCII text
LABELS = ("comma,label", 'quote"label', "line\r\nbreak", "lf\nonly", " spaced ", "", "ünï 日本")
TAGS = (None, "base", "val", "novel")


def epb1(table, indices, codes, m=1):
    """EPB1 bytes: label `table`, a label index and split code per row, every value 0.5."""
    parts = [b"EPB1", struct.pack("<IIII", 1, len(indices), m, len(table))]
    parts += [struct.pack("<H", len(name)) + name for name in table]
    parts += [struct.pack(f"<{len(indices)}H", *indices), bytes(codes)]
    parts.append(struct.pack(f"<{len(indices) * m}f", *[0.5] * (len(indices) * m)))
    return b"".join(parts)


# files that load_embeddings rejects. CSVs: a bad float after a quoted line
# break, a duplicate id after a blank row, invalid UTF-8 and a digit
# separator. EPB1: truncated at the row count and inside the label table, one
# byte short of its declared size, a label index past the table, an unknown
# split code and a label that is not UTF-8
MALFORMED = {
    "quoted-break.csv": b'id,label,split,f0\r\n0,"a\r\nb",,1\r\n1,c,,x\r\n',
    "blank-row.csv": b"id,label,split,f0\r\n0,a,,1\r\n\r\n0,b,,2\r\n",
    "utf8.csv": b"id,label,split,f0\r\n0,a,,1\r\n1,b\xffc,,2\r\n",
    "separator.csv": b"id,label,split,f0,f1\r\n0,a,,1.0,1_0\r\n",
    "row-count.epb": epb1([b"a"], [0], [0])[:10],
    "label-table.epb": epb1([b"a", "ünï".encode()], [0, 1], [0, 1])[:27],
    "short.epb": epb1([b"a", b"b"], [0, 1, 1], [1, 2, 3], m=2)[:-1],
    "label-index.epb": epb1([b"a", b"b"], [0, 2], [0, 0]),
    "split-code.epb": epb1([b"a"], [0, 0], [3, 4]),
    "label-utf8.epb": epb1([b"a", b"b\xffc"], [0, 1], [0, 0]),
}


def _update(h, label: str, value) -> None:
    arr = np.ascontiguousarray(value, dtype=np.float64)
    h.update(f"{label} {arr.shape}\n".encode())
    h.update(arr.tobytes())


def episode_outputs(h, episodes: int) -> int:
    data = gaussian_clusters(8, 40, spread=0.4, seed=7, dim=16)
    base = EvalConfig(n_way=5, k_shot=2, q_queries=5, u_unlabeled=10, labeled_fraction=0.5,
                      episodes=episodes, graph=GraphConfig(alpha=0.4), seed=11)
    count = 0
    for clf in Classifier:
        for ssl in SslMode:
            for mode in PropagationMode:
                cfg = dataclasses.replace(base, classifier=clf, ssl=ssl, mode=mode)
                for i in range(episodes):
                    _, _, scores = run_episode(data, sample_episode(data, cfg, i), cfg)
                    _update(h, f"episode {clf.value} {ssl.value} {mode.value} {i}", scores)
                    count += 1
    return count


def propagate_outputs(h, max_n: int) -> int:
    count = 0
    for n, m, offset, dups in SHAPES:
        if n > max_n:
            continue
        rng = np.random.default_rng([n, m])
        z = rng.normal(size=(n, m)) + offset
        z[n - dups:] = z[:dups]
        for mode in PropagationMode:
            ztilde, prop = propagate_embeddings(z, GraphConfig(alpha=0.5), mode)
            label = f"propagate {n}x{m} {mode.value}"
            _update(h, f"{label} ztilde", ztilde)
            _update(h, f"{label} system", prop.system)
            _update(h, f"{label} sigma2", prop.sigma2)
            _update(h, f"{label} matrix", prop.matrix)
            count += 1
    return count


def saved_files(h) -> int:
    rng = np.random.default_rng([40, 5])
    ztilde, _ = propagate_embeddings(rng.normal(size=(40, 5)), GraphConfig(alpha=0.5),
                                     PropagationMode.FULL)
    n = ztilde.shape[0]
    data = EmbeddingSet(ztilde, tuple(LABELS[i % len(LABELS)] for i in range(n)),
                        tuple(TAGS[i % len(TAGS)] for i in range(n)))
    names = ("batch.csv", "batch.epb")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            path = Path(tmp) / name
            save_embeddings(data, path)
            h.update(f"saved {name}\n".encode())
            h.update(path.read_bytes())
            back = load_embeddings(path)
            _update(h, f"loaded {name} embeddings", back.embeddings)
            h.update(f"loaded {name}\n{json.dumps([back.labels, back.split])}\n".encode())
    return len(names)


def rejected_files(h) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, blob in MALFORMED.items():
            path = Path(tmp) / name
            path.write_bytes(blob)
            try:
                load_embeddings(path)
            except EmbedPropError as exc:
                error = f"{type(exc).__name__}: {exc}".replace(str(path), name)
            else:
                raise SystemExit(f"{name} loaded without an error")
            h.update(f"rejected {name}\n{error}\n".encode())
    return len(MALFORMED)


def cli_reports(h, episodes: int) -> int:
    runs = {
        "evaluate": ["--episodes", str(episodes)],
        "ssl": ["--n-way", "4", "--k-shot", "2", "--q-queries", "5", "--episodes", str(episodes),
                "--alpha", "0.4", "--mode", "offdiag", "--classifier", "proto", "--seed", "11",
                "--unlabeled", "12", "--labeled-fraction", "0.5"],
    }
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "clusters.csv"
        save_embeddings(gaussian_clusters(8, 40, spread=0.4, seed=7, dim=16), data)
        for command, flags in runs.items():
            out = Path(tmp) / f"{command}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--data", str(data), *flags, "--out", str(out)])
            if code != 0:
                raise SystemExit(f"embedprop {command} exited with {code}")
            report = json.loads(out.read_text(encoding="utf-8"))
            del report["wall_ms"]
            h.update(f"cli {command}\n{json.dumps(report)}\n".encode())
    return len(runs)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--episodes", type=int, default=4, help="episodes per combination")
    ap.add_argument("--max-n", type=int, default=2000, help="skip propagate batches above n rows")
    args = ap.parse_args()

    h = hashlib.sha256()
    runs = episode_outputs(h, args.episodes)
    batches = propagate_outputs(h, args.max_n)
    files = saved_files(h)
    rejected = rejected_files(h)
    reports = cli_reports(h, args.episodes)
    print(f"{h.hexdigest()}  ({runs} episodes, {batches} propagate calls, {files} files saved and loaded, "
          f"{rejected} malformed files rejected, {reports} cli reports)")


if __name__ == "__main__":
    main()
