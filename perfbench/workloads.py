"""Workload definitions and seeded input generation.

Inputs are written by the benchmark's own writers for the two documented
file formats (EPB1 binary and CSV), so a defect in the library's writers
cannot hide one in its readers.
"""

import csv
import struct
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "evaluate", "ssl" or "propagate"
    n_classes: int
    rows_per_class: int
    dim: int
    spread: float  # within-class noise scale against unit-variance class means
    file_suffix: str  # ".epb" (EPB1 binary) or ".csv"
    n_way: int = 5
    k_shot: int = 1
    q_queries: int = 15
    u_unlabeled: int = 0
    labeled_fraction: float = 1.0
    episodes_per_call: int = 1  # episodes per evaluate() call
    checked_episodes: int = 0  # leading episodes of the first timed call checked against the reference

    @property
    def batch_rows(self) -> int:
        if self.kind == "propagate":
            return self.n_classes * self.rows_per_class
        return self.n_way * (self.k_shot + self.q_queries) + self.u_unlabeled


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fewshot-1shot-w640", "evaluate", 20, 600, 640, 3.2, ".epb",
                 k_shot=1, episodes_per_call=40, checked_episodes=10),
        Workload("fewshot-5shot-w8", "evaluate", 20, 600, 8, 0.9, ".epb",
                 k_shot=5, episodes_per_call=200, checked_episodes=10),
        Workload("ssl-5shot-u20-w640", "ssl", 20, 600, 640, 3.2, ".epb",
                 k_shot=5, u_unlabeled=20, labeled_fraction=0.4,
                 episodes_per_call=10, checked_episodes=6),
        Workload("propagate-n2000-w64", "propagate", 10, 200, 64, 1.0, ".csv"),
    )
}


def make_dataset(w: Workload, seed: int):
    """(embeddings as float64, labels) drawn from `seed`: Gaussian classes.

    EPB1 stores float32, so binary workloads are rounded to float32 here and
    the returned float64 array is exactly what a correct loader yields.
    """
    rng = np.random.default_rng([seed, w.dim, w.n_classes])
    means = rng.normal(size=(w.n_classes, w.dim))
    z = np.repeat(means, w.rows_per_class, axis=0)
    z += w.spread * rng.normal(size=z.shape)
    if w.file_suffix == ".epb":
        z = z.astype(np.float32).astype(np.float64)
    labels = [f"c{c:02d}" for c in range(w.n_classes) for _ in range(w.rows_per_class)]
    return z, labels


def write_epb1(path, z: np.ndarray, labels) -> None:
    """EPB1: magic, u32 version/N/m/table size, u16-prefixed label table,
    u16 label indices, u8 split codes (all 0), f32 row-major block."""
    table = sorted(set(labels))
    index = {lab: i for i, lab in enumerate(table)}
    n, m = z.shape
    parts = [b"EPB1", struct.pack("<IIII", 1, n, m, len(table))]
    for name in table:
        raw = name.encode("utf-8")
        parts += [struct.pack("<H", len(raw)), raw]
    parts.append(np.asarray([index[lab] for lab in labels], dtype="<u2").tobytes())
    parts.append(np.zeros(n, dtype="<u1").tobytes())
    parts.append(z.astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def write_csv(path, z: np.ndarray, labels) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label", "split"] + [f"f{i}" for i in range(z.shape[1])])
        for i, row in enumerate(z):
            writer.writerow([str(i), labels[i], ""] + [repr(float(v)) for v in row])


def read_csv(path):
    """(ids, labels, float64 rows) of a CSV embedding file."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = [r for r in rows[1:] if r]
    return ([r[0] for r in body], [r[1] for r in body],
            np.asarray([[float(v) for v in r[3:]] for r in body]))


def write_input(w: Workload, seed: int, path) -> tuple[np.ndarray, list]:
    z, labels = make_dataset(w, seed)
    (write_epb1 if w.file_suffix == ".epb" else write_csv)(path, z, labels)
    return z, labels
