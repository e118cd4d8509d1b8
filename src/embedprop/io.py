"""Embedding file formats and the JSON report schema.

Two on-disk formats carry an EmbeddingSet. `load_embeddings` reads the file
once and parses those bytes as binary when they start with the magic, else
as CSV:

* CSV (UTF-8): header ``id,label,split,f0,...,f{m-1}``, one row per
  embedding, split empty or one of base/val/novel, features written with 17
  significant digits (lossless for float64) and read as float literals
  without ``_`` digit separators. The reader streams the text through csv
  into float64 rows; an error names the line its record starts on. The
  writer streams one ``\r\n``-ended line per row, csv quoting the id, label
  and split cells; its bytes equal those of passing every cell through
  ``csv.writer``.
* Binary: magic ``EPB1``; little-endian u32 format version (=1), u32 N,
  u32 m, u32 label-table-size; label table of u16-length-prefixed UTF-8
  names; N u16 label indices; N u8 split codes (0=none, 1=base, 2=val,
  3=novel); N*m f32 row-major embedding block. The file length must match
  the header arithmetic exactly. The reader views the index, code and f32
  blocks in the file's bytes by offset, so the float64 embeddings are the
  one copy of the values. The writer rejects a set with a value beyond the
  f32 range before it creates the file.

Both formats tag rows with a split; the CLI evaluates a tagged set's novel
rows. A report's `split` lists the set's sorted distinct tags, null if none.

Decoding failures raise ParseError (with a position); decodable files whose
content breaks an EmbeddingSet invariant raise InvariantViolation. Plain
OSError propagates for unreadable/unwritable paths.
"""

import csv
import dataclasses
import json
import struct
from io import BytesIO, TextIOWrapper

import numpy as np

from .episodes import SPLIT_TAGS, EmbeddingSet, EvalConfig, EvalReport
from .errors import InvariantViolation, ParseError
from .graph import FALLBACK_SIGMA2, VARIANCE_FLOOR

MAGIC = b"EPB1"
BINARY_VERSION = 1
# a split's binary code is its index here
_SPLIT_NAMES = (None,) + SPLIT_TAGS


def load_embeddings(path) -> EmbeddingSet:
    """Read an EmbeddingSet from `path`: binary if it starts with the EPB1 magic, else csv."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob.startswith(MAGIC):
        return _parse_binary(blob, path)
    return _parse_csv(blob, path)


def save_embeddings(data: EmbeddingSet, path) -> None:
    """Write `data` to `path`: binary for a .epb/.bin suffix (any case), else csv."""
    if str(path).lower().endswith((".epb", ".bin")):
        _save_binary(data, path)
    else:
        _save_csv(data, path)


def _parse_csv(blob: bytes, path) -> EmbeddingSet:
    # checked whole, so that a bad byte is reported at its offset in the file;
    # csv then reads the bytes through a streaming decoder
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not valid UTF-8 ({exc.reason})") from None
    reader = csv.reader(TextIOWrapper(BytesIO(blob), encoding="utf-8", newline=""))
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    if len(header) < 4 or header[:3] != ["id", "label", "split"]:
        raise ParseError(f"{path}: header must start with id,label,split and one feature column")
    for col, name in enumerate(header[3:]):
        if name != f"f{col}":
            raise ParseError(f"{path}: feature column {col} is named {name!r}, expected f{col}")

    ids: set[str] = set()
    labels: list[str] = []
    splits: list[str] = []
    rows: list[np.ndarray] = []
    start = reader.line_num + 1  # a record's first line; quoted line breaks span lines
    for row in reader:
        lineno, start = start, reader.line_num + 1
        if not row:
            continue
        if len(row) != len(header):
            raise InvariantViolation(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
            )
        if row[0] in ids:
            raise InvariantViolation(f"{path}:{lineno}: duplicate id {row[0]!r}")
        ids.add(row[0])
        labels.append(row[1])
        splits.append(row[2])
        features = row[3:]
        # float(), which np.array calls per cell, also reads digit separators: "1_0" is 10.0
        if "_" in "".join(features):
            bad = next(tok for tok in features if "_" in tok)
            raise ParseError(f"{path}:{lineno}: feature {bad!r} contains '_'")
        try:
            rows.append(np.array(features, dtype=np.float64))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise InvariantViolation(f"{path}: no data rows")
    return EmbeddingSet(embeddings=np.array(rows), labels=tuple(labels), split=tuple(splits))


class _Echo:
    """Stand-in file whose write returns its argument, so csv.writer.writerow returns the line."""

    def write(self, line: str) -> str:
        return line


def _save_csv(data: EmbeddingSet, path) -> None:
    # csv writes the id, label and split cells, quoting where needed; the
    # "%.17g" features never need it, so each row is written as it is made
    cells = csv.writer(_Echo())
    line = "%s," + ",".join(["%.17g"] * data.dim) + "\r\n"
    tags = data.split if data.split is not None else (None,) * data.n
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(cells.writerow(["id", "label", "split"] + [f"f{i}" for i in range(data.dim)]))
        for i, (label, tag) in enumerate(zip(data.labels, tags)):
            head = cells.writerow((i, label, tag or "")).removesuffix("\r\n")
            fh.write(line % (head, *data.embeddings[i].tolist()))


def _parse_binary(blob: bytes, path) -> EmbeddingSet:
    pos = len(MAGIC)  # load_embeddings routed on it

    def unpack(fmt: str, what: str):
        nonlocal pos
        end = pos + struct.calcsize(fmt)
        if end > len(blob):
            raise ParseError(
                f"{path}: truncated reading {what}: expected {end} bytes, file has {len(blob)}"
            )
        fields = struct.unpack_from(fmt, blob, pos)
        pos = end
        return fields[0]

    version = unpack("<I", "format version")
    if version != BINARY_VERSION:
        raise ParseError(f"{path}: unsupported format version {version}")
    n = unpack("<I", "row count")
    m = unpack("<I", "dimension")
    table_size = unpack("<I", "label table size")

    table: list[str] = []
    for t in range(table_size):
        length = unpack("<H", f"label {t} length")
        raw = unpack(f"<{length}s", f"label {t}")
        try:
            table.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: label {t} is not valid UTF-8: {exc}") from None

    size = pos + n * 2 + n + n * m * 4
    if len(blob) != size:
        raise ParseError(f"{path}: declared sizes need exactly {size} bytes, file has {len(blob)}")
    # views of the file's bytes; the float64 embeddings are the one copy
    idx = np.frombuffer(blob, dtype="<u2", count=n, offset=pos)
    codes = np.frombuffer(blob, dtype="<u1", count=n, offset=pos + 2 * n)
    values = np.frombuffer(blob, dtype="<f4", count=n * m, offset=pos + 3 * n)

    if idx.size and idx.max() >= table_size:
        raise ParseError(f"{path}: label index {int(idx.max())} >= table size {table_size}")
    if codes.size and codes.max() >= len(_SPLIT_NAMES):
        raise ParseError(f"{path}: unknown split code {int(codes.max())}")
    labels = tuple(table[i] for i in idx)
    splits = tuple(_SPLIT_NAMES[int(c)] for c in codes)
    emb = values.astype(np.float64).reshape(n, m)
    return EmbeddingSet(embeddings=emb, labels=labels, split=splits)


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
        parts += [struct.pack("<H", len(raw)), raw]
    parts.append(np.asarray([index[lab] for lab in data.labels], dtype="<u2"))
    tags = data.split if data.split is not None else (None,) * data.n
    parts.append(np.asarray([_SPLIT_NAMES.index(t) for t in tags], dtype="<u1"))
    with np.errstate(over="ignore"):
        block = data.embeddings.astype("<f4", order="C")  # C order: written from its buffer
    overflow = np.isinf(block).any(axis=1)  # the set's own values are finite
    if overflow.any():
        row = int(np.argmax(overflow))
        raise InvariantViolation(f"row {row} holds a value beyond the binary format's float32 range")
    parts.append(block)
    with open(path, "wb") as fh:
        fh.writelines(parts)


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
        "split": None if report.split is None else list(report.split),
    }


def write_report(report: EvalReport, path) -> None:
    """Write the report's JSON to `path`; a report that cannot be serialized
    raises before the file is opened, so an existing file keeps its bytes."""
    text = json.dumps(report_to_dict(report), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
