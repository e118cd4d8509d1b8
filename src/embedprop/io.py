"""Embedding file formats and the JSON report schema.

Two on-disk formats carry an EmbeddingSet:

* CSV: header ``id,label,split,f0,...,f{m-1}``, one row per embedding, split
  empty or one of base/val/novel, features written with 17 significant
  digits (lossless for float64).
* Binary: magic ``EPB1``; little-endian u32 format version (=1), u32 N,
  u32 m, u32 label-table-size; label table of u16-length-prefixed UTF-8
  names; N u16 label indices; N u8 split codes (0=none, 1=base, 2=val,
  3=novel); N*m f32 row-major embedding block. The file length must match
  the header arithmetic exactly.

Decoding failures raise ParseError (with a position); decodable files whose
content breaks an EmbeddingSet invariant raise InvariantViolation. Plain
OSError propagates for unreadable/unwritable paths.
"""

import csv
import dataclasses
import json
import re
import struct

import numpy as np

from .episodes import EmbeddingSet, EvalConfig, EvalReport
from .errors import InvariantViolation, ParseError
from .graph import FALLBACK_SIGMA2, VARIANCE_FLOOR

MAGIC = b"EPB1"
BINARY_VERSION = 1
_SPLIT_CODES = {None: 0, "base": 1, "val": 2, "novel": 3}
_SPLIT_NAMES = {0: None, 1: "base", 2: "val", 3: "novel"}


def sniff_format(path) -> str:
    """'binary' if the file starts with the EPB1 magic, else 'csv'."""
    with open(path, "rb") as fh:
        return "binary" if fh.read(4) == MAGIC else "csv"


def load_embeddings(path) -> EmbeddingSet:
    """Read an EmbeddingSet from `path`: binary if it starts with the EPB1 magic, else csv."""
    if sniff_format(path) == "binary":
        return _load_binary(path)
    return _load_csv(path)


def save_embeddings(data: EmbeddingSet, path) -> None:
    """Write `data` to `path`: binary for a .epb/.bin suffix (any case), else csv."""
    if str(path).lower().endswith((".epb", ".bin")):
        _save_binary(data, path)
    else:
        _save_csv(data, path)


def _load_csv(path) -> EmbeddingSet:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if len(header) < 4 or header[:3] != ["id", "label", "split"]:
            raise ParseError(f"{path}: header must start with id,label,split and one feature column")
        m = len(header) - 3
        for col, name in enumerate(header[3:]):
            if not re.fullmatch(rf"f{col}", name):
                raise ParseError(f"{path}: feature column {col} is named {name!r}, expected f{col}")

        ids: set[str] = set()
        labels: list[str] = []
        splits: list[str | None] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InvariantViolation(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
                )
            rid = row[0]
            if rid in ids:
                raise InvariantViolation(f"{path}:{lineno}: duplicate id {rid!r}")
            ids.add(rid)
            labels.append(row[1])
            splits.append(row[2] if row[2] != "" else None)
            try:
                rows.append([float(tok) for tok in row[3:]])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise InvariantViolation(f"{path}: no data rows")
    split = None if all(s is None for s in splits) else tuple(splits)
    return EmbeddingSet(embeddings=np.asarray(rows), labels=tuple(labels), split=split)


def _save_csv(data: EmbeddingSet, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label", "split"] + [f"f{i}" for i in range(data.dim)])
        for i in range(data.n):
            tag = data.split[i] if data.split is not None else None
            writer.writerow(
                [str(i), data.labels[i], tag if tag is not None else ""]
                + [format(v, ".17g") for v in data.embeddings[i]]
            )


class _Cursor:
    """Byte cursor that reports expected vs available length on truncation."""

    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.blob):
            raise ParseError(
                f"{self.path}: truncated reading {what}: expected {self.pos + count} "
                f"bytes, file has {len(self.blob)}"
            )
        out = self.blob[self.pos : self.pos + count]
        self.pos += count
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def _load_binary(path) -> EmbeddingSet:
    with open(path, "rb") as fh:
        blob = fh.read()
    cur = _Cursor(blob, path)
    if cur.take(4, "magic") != MAGIC:
        raise ParseError(f"{path}: bad magic, not an EPB1 file")
    version = cur.u32("format version")
    if version != BINARY_VERSION:
        raise ParseError(f"{path}: unsupported format version {version}")
    n = cur.u32("row count")
    m = cur.u32("dimension")
    table_size = cur.u32("label table size")

    table: list[str] = []
    for t in range(table_size):
        (length,) = struct.unpack("<H", cur.take(2, f"label {t} length"))
        raw = cur.take(length, f"label {t}")
        try:
            table.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: label {t} is not valid UTF-8: {exc}") from None

    body = n * 2 + n + n * m * 4
    if len(blob) != cur.pos + body:
        raise ParseError(
            f"{path}: declared sizes need exactly {cur.pos + body} bytes, "
            f"file has {len(blob)}"
        )
    idx = np.frombuffer(cur.take(n * 2, "label indices"), dtype="<u2")
    codes = np.frombuffer(cur.take(n, "split codes"), dtype="<u1")
    values = np.frombuffer(cur.take(n * m * 4, "embedding block"), dtype="<f4")

    if idx.size and idx.max() >= table_size:
        raise ParseError(f"{path}: label index {int(idx.max())} >= table size {table_size}")
    if codes.size and codes.max() > 3:
        raise ParseError(f"{path}: unknown split code {int(codes.max())}")
    labels = tuple(table[i] for i in idx)
    splits = tuple(_SPLIT_NAMES[int(c)] for c in codes)
    split = None if all(s is None for s in splits) else splits
    emb = values.astype(np.float64).reshape(n, m) if n and m else np.empty((n, m))
    return EmbeddingSet(embeddings=emb, labels=labels, split=split)


def _save_binary(data: EmbeddingSet, path) -> None:
    table = sorted(set(data.labels))
    if len(table) > 0x10000:
        raise InvariantViolation(f"binary format holds at most 65536 classes, got {len(table)}")
    index = {lab: i for i, lab in enumerate(table)}
    parts = [MAGIC, struct.pack("<IIII", BINARY_VERSION, data.n, data.dim, len(table))]
    for name in table:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise InvariantViolation(f"label too long for binary format: {name[:32]!r}...")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
    parts.append(np.asarray([index[lab] for lab in data.labels], dtype="<u2").tobytes())
    tags = data.split if data.split is not None else (None,) * data.n
    parts.append(np.asarray([_SPLIT_CODES[t] for t in tags], dtype="<u1").tobytes())
    parts.append(data.embeddings.astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def config_to_dict(cfg: EvalConfig) -> dict:
    """EvalConfig as plain JSON-ready data (enums become their string values)."""
    out = dataclasses.asdict(cfg)
    # the schema is append-only: config.graph still echoes the fixed bandwidth rule
    out["graph"]["variance_floor"] = VARIANCE_FLOOR
    out["graph"]["fallback_sigma2"] = FALLBACK_SIGMA2
    out["mode"] = cfg.mode.value
    out["classifier"] = cfg.classifier.value
    out["ssl"] = cfg.ssl.value
    return out


def report_to_dict(report: EvalReport) -> dict:
    """Fixed-key report schema; keys are stable across versions."""
    return {
        "config": config_to_dict(report.config),
        "seed": report.config.seed,
        "episodes": len(report.accuracies),
        "accuracies": list(report.accuracies),
        "mean": report.mean,
        "ci95": report.ci95,
        "wall_ms": report.wall_ms,
    }


def write_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")
