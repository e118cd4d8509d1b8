import builtins
import csv
import dataclasses
import json
import struct
import tracemalloc
from io import StringIO

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from embedprop.episodes import EmbeddingSet, EvalConfig, evaluate
from embedprop import io
from embedprop.errors import InvariantViolation, ParseError
from embedprop.graph import GraphConfig
from embedprop.io import MAGIC, load_embeddings, report_to_dict, save_embeddings, write_report


def sample_set(n=7, m=3, seed=0, with_split=True):
    rng = np.random.default_rng(seed)
    labels = tuple(f"class-{i % 3}" for i in range(n))
    split = tuple(("base", "val", "novel", None)[i % 4] for i in range(n)) if with_split else None
    return EmbeddingSet(rng.normal(size=(n, m)), labels, split)


class TestCsv:
    def test_round_trip(self, tmp_path):
        data = sample_set()
        path = tmp_path / "emb.csv"
        save_embeddings(data, path)
        back = load_embeddings(path)
        assert back.labels == data.labels
        assert back.split == data.split
        np.testing.assert_array_equal(back.embeddings, data.embeddings)

    def test_small_file(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("id,label,split,f0,f1\nr1,cat,,0.5,1.5\nr2,dog,novel,2.5,3.5\n")
        data = load_embeddings(path)
        assert data.n == 2 and data.dim == 2
        assert data.labels == ("cat", "dog")
        assert data.split == (None, "novel")

    def test_line_breaks_inside_quoted_labels_round_trip(self, tmp_path):
        # csv splits records only at \r and \n outside quotes; U+2028 and U+0085
        # are ordinary characters to it
        labels = ("a\r\nb", "c\u2028d", "e\x85f", "g\nh")
        data = EmbeddingSet(np.arange(4.0)[:, None], labels)
        path = tmp_path / "breaks.csv"
        save_embeddings(data, path)
        back = load_embeddings(path)
        assert back.labels == labels
        np.testing.assert_array_equal(back.embeddings, data.embeddings)

    def test_blank_rows_skipped_and_counted(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_bytes(b"id,label,split,f0\r\n\r\n0,a,,1\r\n\r\n1,b,,2\r\n\r\n")
        data = load_embeddings(path)
        assert data.labels == ("a", "b") and data.embeddings.tolist() == [[1.0], [2.0]]
        path.write_bytes(b"id,label,split,f0\r\n\r\n0,a,,1\r\n\r\n1,b,,x\r\n")
        with pytest.raises(ParseError, match=r"blank\.csv:5: "):
            load_embeddings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_bytes(b"")
        with pytest.raises(ParseError, match=r"none\.csv: empty file"):
            load_embeddings(path)

    def test_misnamed_feature_column_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("id,label,split,f0,g1\na,x,,1.0,2.0\n")
        with pytest.raises(ParseError, match="feature column 1 is named 'g1', expected f1"):
            load_embeddings(path)

    def test_nan_feature_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("id,label,split,f0\na,x,,nan\n")
        with pytest.raises(InvariantViolation):
            load_embeddings(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,label,split,f0\na,x,,1.0\na,y,,2.0\n")
        with pytest.raises(InvariantViolation):
            load_embeddings(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("id,label,split,f0,f1\na,x,,1.0,2.0\nb,y,,3.0\n")
        with pytest.raises(InvariantViolation):
            load_embeddings(path)

    def test_unparseable_float_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,split,f0\na,x,,pi\n")
        with pytest.raises(ParseError) as exc:
            load_embeddings(path)
        assert ":2:" in str(exc.value)  # line number reported

    @pytest.mark.parametrize("body, line", [
        # a bad float after a label holding \r\n
        (b'0,"a\r\nb",,1\r\n1,c,,x\r\n', 4),
        # the bad record itself spans lines 2-3
        (b'0,"a\r\nb",,x\r\n', 2),
        # lone \r and \n inside quotes, then a blank line
        (b'0,"a\rb\nc",,1\r\r1,c,,x\n', 6),
        # a duplicate id and a short row name their lines the same way
        (b'0,"a\nb",,1\n\n0,c,,2\n', 5),
        (b'0,"a\nb",,1\n1,c,\n', 4),
    ], ids=["after-crlf", "spanning", "cr-lf-blank", "duplicate-id", "short-row"])
    def test_errors_name_the_line_a_record_starts_on(self, tmp_path, body, line):
        path = tmp_path / "lines.csv"
        path.write_bytes(b"id,label,split,f0\r\n" + body)
        with pytest.raises((ParseError, InvariantViolation), match=rf"lines\.csv:{line}: "):
            load_embeddings(path)

    def test_load_holds_the_file_once(self, tmp_path):
        # room for the file's bytes, one decode check and the float64 rows; a
        # second copy of the text or lists of Python floats go past it
        path = tmp_path / "big.csv"
        save_embeddings(sample_set(n=2000, m=64), path)
        tracemalloc.start()
        try:
            load_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * path.stat().st_size

    def test_invalid_utf8_is_parse_error_at_its_byte(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"id,label,split,f0\n0,a,,1.0\n1,b\xffc,,2.0\n")
        with pytest.raises(ParseError, match=r"bad\.csv: byte 30 is not valid UTF-8"):
            load_embeddings(path)

    @pytest.mark.parametrize("token", ["1_0", "0.5_1", "1e1_0", "_1"])
    def test_digit_separator_is_parse_error(self, tmp_path, token):
        # Python's float() reads "1_0" as 10.0; a CSV feature never means that
        path = tmp_path / "sep.csv"
        path.write_text(f"id,label,split,f0,f1\n0,a,,1.0,2.0\n1,b,,3.0,{token}\n")
        with pytest.raises(ParseError, match=rf":3: feature '{token}' contains '_'"):
            load_embeddings(path)

    def test_underscore_in_label_and_id_is_kept(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("id,label,split,f0\nrow_0,class_a,,1.5\n")
        data = load_embeddings(path)
        assert data.labels == ("class_a",)
        assert data.embeddings.tolist() == [[1.5]]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("id,label,f0\na,x,1.0\n")
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_empty_data_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,label,split,f0\n")
        with pytest.raises(InvariantViolation):
            load_embeddings(path)

    def test_bad_split_rejected(self, tmp_path):
        path = tmp_path / "split.csv"
        path.write_text("id,label,split,f0\na,x,test,1.0\n")
        with pytest.raises(InvariantViolation):
            load_embeddings(path)


def parse_csv_one_decode(blob):
    """The CSV reader over one decoded text, with float() per cell; the reader's oracle."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError("not UTF-8") from None
    records = csv.reader(StringIO(text, newline=""))
    header = next(records, None)
    if header is None or header[:3] != ["id", "label", "split"] or len(header) < 4:
        raise ParseError("bad header")
    if header[3:] != [f"f{i}" for i in range(len(header) - 3)]:
        raise ParseError("bad feature column")
    ids, labels, splits, rows = set(), [], [], []
    for row in records:
        if not row:
            continue
        if len(row) != len(header):
            raise InvariantViolation("ragged row")
        if row[0] in ids:
            raise InvariantViolation("duplicate id")
        ids.add(row[0])
        labels.append(row[1])
        splits.append(row[2] or None)
        if any("_" in tok for tok in row[3:]):
            raise ParseError("digit separator")
        try:
            rows.append([float(tok) for tok in row[3:]])
        except ValueError:
            raise ParseError("not a float") from None
    if not rows:
        raise InvariantViolation("no rows")
    split = None if all(t is None for t in splits) else tuple(splits)
    return EmbeddingSet(np.array(rows), tuple(labels), split)


# what may land in a cell: line breaks csv splits on and characters it does
# not, whitespace float() strips, a BOM, underscores, non-ASCII digits
PIECES = ["\r\n", "\r", "\n", "\u2028", "\x85", "\x0b", "\x0c", "\x1c", "\ufeff", ",", '"',
          " ", "\t", "_", "a", "é", "日"]
FLOAT_TOKENS = ["0", "-0.0", "1.5", "1e-310", "١٢", "１", " 2 ", "\x0c3\x0b", "4\u2028", "\x855"]
BAD_FLOAT_TOKENS = ["nan", "-inf", "Infinity", "1e400", "1_0", "", "x", "0x10"]


def rarely(draw):
    """True about one draw in eight."""
    return draw(st.sampled_from([False] * 7 + [True]))


@st.composite
def csv_bytes(draw):
    m = draw(st.integers(1, 3))
    text = st.lists(st.sampled_from(PIECES), max_size=4).map("".join)
    eol = st.sampled_from(["\r\n", "\n", "\r"])
    # padding that puts a later line break on the decoder's 8192-byte chunk edge
    pad = draw(st.sampled_from([0] * 15 + list(range(8180, 8195))))
    lines = [",".join(["id", "label", "split"] + [f"f{i}" for i in range(m)])]
    for i in range(draw(st.integers(0, 5))):
        if rarely(draw):
            lines.append("")  # a blank row
        label = ("p" * pad if i == 0 else "") + draw(st.sampled_from(["cat", "", "b_c"]) | text)
        cells = [draw(st.sampled_from([str(i)] * 6 + ["0", "r_1"])), label,
                 draw(st.sampled_from(["", "", "base", "val", "novel", "test"]))]
        good = st.sampled_from(FLOAT_TOKENS) | st.floats(allow_nan=False).map(repr)
        cells += [draw(st.sampled_from(BAD_FLOAT_TOKENS) if rarely(draw) else good)
                  for _ in range(m)]
        if rarely(draw):  # a ragged row
            cells = cells[: draw(st.integers(1, len(cells)))]
        # a cell that needs quotes mostly gets them; any other one half the time
        quoted = [draw(st.booleans()) or (any(ch in c for ch in ',"\r\n') and not rarely(draw))
                  for c in cells]
        lines.append(",".join('"' + c.replace('"', '""') + '"' if q else c
                              for c, q in zip(cells, quoted)))
    out = "".join(line + draw(eol) for line in lines)
    if draw(st.booleans()):  # cut the last line break, or half of a \r\n
        out = out[: -1]
    blob = (b"\xef\xbb\xbf" if rarely(draw) else b"") + out.encode("utf-8")
    if rarely(draw):  # an invalid UTF-8 byte somewhere
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + blob[at:]
    return blob


class TestCsvReader:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=csv_bytes())
    # a \r\n split across the decoder's first chunk edge, inside and outside quotes
    @example(blob=b"id,label,split,f0\r\n0," + b"p" * 8167 + b",,1\r\n1,b,,x\r\n")
    @example(blob=b'id,label,split,f0\r\n0,"' + b"p" * 8169 + b'\r\n",,1\r\n')
    def test_matches_one_decode_reference(self, tmp_path, blob):
        path = tmp_path / "gen.csv"
        path.write_bytes(blob)
        try:
            want = parse_csv_one_decode(blob)
        except Exception as exc:  # the reader must raise the same type
            with pytest.raises(type(exc)):
                load_embeddings(path)
            return
        got = load_embeddings(path)
        assert got.embeddings.shape == want.embeddings.shape
        assert got.embeddings.tobytes() == want.embeddings.tobytes()
        assert (got.labels, got.split) == (want.labels, want.split)


def save_csv_cell_by_cell(data, path):
    """The CSV writer that passed every cell through csv.writer; the byte oracle."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label", "split"] + [f"f{i}" for i in range(data.dim)])
        for i in range(data.n):
            tag = data.split[i] if data.split is not None else None
            writer.writerow(
                [str(i), data.labels[i], tag if tag is not None else ""]
                + [format(v, ".17g") for v in data.embeddings[i]]
            )


EDGE_VALUES = [-0.0, 5e-324, 1e-310, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 3.0]
EDGE_LABELS = [",", '"', "\r", "\n", " ", "", "a,\"b\"\r\n c", "ünï 日本"]


@st.composite
def embedding_sets(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    value = st.one_of(
        st.sampled_from(EDGE_VALUES),
        st.integers(-(2**60), 2**60).map(float),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    label = st.one_of(
        st.sampled_from(EDGE_LABELS),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    )
    rows = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n))
    labels = draw(st.lists(label, min_size=n, max_size=n))
    tags = st.sampled_from([None, "base", "val", "novel"])
    split = draw(st.none() | st.lists(tags, min_size=n, max_size=n))
    return EmbeddingSet(np.array(rows, dtype=np.float64).reshape(n, m), tuple(labels), split)


class TestCsvWriter:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=embedding_sets())
    # every edge label on a row of every edge value, split None
    @example(data=EmbeddingSet(np.array([EDGE_VALUES] * len(EDGE_LABELS)), tuple(EDGE_LABELS)))
    # m = 1: one edge value and one edge label per row, mixed tags
    @example(data=EmbeddingSet(
        np.array([EDGE_VALUES]).T, tuple(EDGE_LABELS[: len(EDGE_VALUES)]),
        (None, "base", "val", "novel", None, "novel", "val"),
    ))
    # n = 1 and m = 1
    @example(data=EmbeddingSet(np.array([[-0.0]]), ("",), ("val",)))
    def test_bytes_match_cell_by_cell_writer(self, tmp_path, data):
        save_embeddings(data, tmp_path / "rows.csv")
        save_csv_cell_by_cell(data, tmp_path / "cells.csv")
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    def test_streams_rows(self, tmp_path):
        # the 2000 x 64 file is ~2.9 MB, its values as Python floats ~3 MB:
        # building either whole would peak far above the bound
        data = sample_set(n=2000, m=64)
        tracemalloc.start()
        try:
            save_embeddings(data, tmp_path / "big.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.csv").stat().st_size > 2_000_000
        assert peak < 1 << 20


class TestBinary:
    def test_round_trip_f32_precision(self, tmp_path):
        data = sample_set(n=9, m=4, seed=1)
        path = tmp_path / "emb.epb"
        save_embeddings(data, path)
        back = load_embeddings(path)
        assert back.labels == data.labels
        assert back.split == data.split
        np.testing.assert_array_equal(
            back.embeddings, data.embeddings.astype(np.float32).astype(np.float64)
        )

    def test_no_split_round_trip(self, tmp_path):
        data = sample_set(with_split=False)
        path = tmp_path / "nosplit.epb"
        save_embeddings(data, path)
        assert load_embeddings(path).split is None

    def test_save_holds_the_block_once(self, tmp_path):
        # room for the f32 block and the overflow mask; a bytes copy of the
        # block or a join of the parts goes past it
        data = sample_set(n=2000, m=640)
        tracemalloc.start()
        try:
            save_embeddings(data, tmp_path / "big.epb")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * data.n * data.dim * 4

    def test_load_holds_the_file_once(self, tmp_path):
        # room for the file's bytes, the float64 embeddings and the set's
        # finiteness mask; a bytes copy of the f32 block goes past it
        data = sample_set(n=2000, m=640)
        save_embeddings(data, tmp_path / "big.epb")
        tracemalloc.start()
        try:
            load_embeddings(tmp_path / "big.epb")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * data.n * data.dim * 4

    @pytest.mark.parametrize("layout", [np.asfortranarray, lambda a: np.repeat(a, 2, axis=1)[:, ::2]],
                             ids=["fortran", "strided"])
    def test_any_memory_layout_saves_row_major_bytes(self, tmp_path, layout):
        data = sample_set(n=6, m=4)
        other = EmbeddingSet(layout(data.embeddings), data.labels, data.split)
        assert not other.embeddings.flags.c_contiguous
        save_embeddings(data, tmp_path / "c.epb")
        save_embeddings(other, tmp_path / "other.epb")
        assert (tmp_path / "other.epb").read_bytes() == (tmp_path / "c.epb").read_bytes()

    def test_truncated_block_names_byte_counts(self, tmp_path):
        data = sample_set()
        path = tmp_path / "emb.epb"
        save_embeddings(data, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(ParseError) as exc:
            load_embeddings(path)
        msg = str(exc.value)
        assert str(len(blob)) in msg and str(len(blob) - 5) in msg

    def test_trailing_garbage_rejected(self, tmp_path):
        data = sample_set()
        path = tmp_path / "emb.epb"
        save_embeddings(data, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_full_u16_label_table_round_trip(self, tmp_path):
        # u16 label indices 0..65535 address exactly 0x10000 classes
        n = 0x10000
        data = EmbeddingSet(np.arange(n, dtype=np.float64)[:, None], [f"c{i}" for i in range(n)])
        path = tmp_path / "wide.epb"
        save_embeddings(data, path)
        back = load_embeddings(path)
        assert back.labels == data.labels
        np.testing.assert_array_equal(back.embeddings, data.embeddings)

    def test_too_many_classes_rejected(self, tmp_path):
        n = 0x10001
        data = EmbeddingSet(np.zeros((n, 1)), [f"c{i}" for i in range(n)])
        with pytest.raises(InvariantViolation, match="65536 classes, got 65537"):
            save_embeddings(data, tmp_path / "wide.epb")

    def test_float32_overflow_rejected_before_writing(self, tmp_path):
        emb = np.zeros((4, 2))
        emb[2, 1] = 1e39  # finite in float64, inf in float32
        path = tmp_path / "big.epb"
        with pytest.raises(InvariantViolation, match="row 2 .*float32"):
            save_embeddings(EmbeddingSet(emb, ("a", "b", "a", "b")), path)
        assert not path.exists()

    def test_largest_float32_round_trips(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        path = tmp_path / "top.epb"
        save_embeddings(EmbeddingSet(np.array([[top], [-top]]), ("a", "b")), path)
        assert load_embeddings(path).embeddings.tolist() == [[top], [-top]]

    def test_truncated_header_names_byte_counts(self, tmp_path):
        path = tmp_path / "short.epb"
        path.write_bytes(MAGIC + struct.pack("<I", 1) + b"\0\0")
        with pytest.raises(ParseError, match="truncated reading row count: expected 12 bytes, "
                                             "file has 10"):
            load_embeddings(path)

    def test_non_utf8_label_rejected(self, tmp_path):
        parts = [MAGIC, struct.pack("<IIII", 1, 1, 1, 1)]
        parts.append(struct.pack("<H", 1) + b"\xff")
        parts.append(struct.pack("<H", 0) + b"\0" + struct.pack("<f", 1.0))
        path = tmp_path / "label.epb"
        path.write_bytes(b"".join(parts))
        with pytest.raises(ParseError, match="label 0 is not valid UTF-8"):
            load_embeddings(path)

    def test_label_too_long_rejected_before_writing(self, tmp_path):
        path = tmp_path / "long.epb"
        with pytest.raises(InvariantViolation, match="label too long for binary format"):
            save_embeddings(EmbeddingSet(np.zeros((1, 1)), ("x" * 0x10000,)), path)
        assert not path.exists()

    @pytest.mark.parametrize("n, m", [(0, 3), (2, 0)], ids=["no-rows", "no-columns"])
    def test_empty_block_rejected_as_empty_set(self, tmp_path, n, m):
        # the header arithmetic holds, so the set itself refuses the (n, m) block
        parts = [MAGIC, struct.pack("<IIII", 1, n, m, 1), struct.pack("<H", 1) + b"x"]
        parts.append(b"\0\0" * n + b"\0" * n)  # label indices and split codes
        path = tmp_path / "empty.epb"
        path.write_bytes(b"".join(parts))
        with pytest.raises(InvariantViolation, match=rf"N, m >= 1, got \({n}, {m}\)"):
            load_embeddings(path)

    def test_split_codes_index_the_split_tags(self, tmp_path):
        parts = [MAGIC, struct.pack("<IIII", 1, 4, 1, 1)]
        parts.append(struct.pack("<H", 1) + b"x")
        parts.append(b"\0\0" * 4 + bytes([0, 1, 2, 3]) + struct.pack("<4f", 1, 2, 3, 4))
        path = tmp_path / "codes.epb"
        path.write_bytes(b"".join(parts))
        assert load_embeddings(path).split == (None, "base", "val", "novel")
        blob = bytearray(path.read_bytes())
        blob[-17] = 4  # the last split code
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="unknown split code 4"):
            load_embeddings(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.epb"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.epb"
        path.write_bytes(MAGIC + struct.pack("<IIII", 9, 0, 0, 0))
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_label_index_out_of_table(self, tmp_path):
        # one row, one label entry, but index points past the table
        parts = [MAGIC, struct.pack("<IIII", 1, 1, 1, 1)]
        parts.append(struct.pack("<H", 1) + b"x")
        parts.append(struct.pack("<H", 7))  # label index 7 >= table size 1
        parts.append(b"\0")
        parts.append(struct.pack("<f", 1.0))
        path = tmp_path / "idx.epb"
        path.write_bytes(b"".join(parts))
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_bad_split_code(self, tmp_path):
        parts = [MAGIC, struct.pack("<IIII", 1, 1, 1, 1)]
        parts.append(struct.pack("<H", 1) + b"x")
        parts.append(struct.pack("<H", 0))
        parts.append(b"\x09")  # split code 9
        parts.append(struct.pack("<f", 1.0))
        path = tmp_path / "code.epb"
        path.write_bytes(b"".join(parts))
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_nonfinite_f32_rejected(self, tmp_path):
        parts = [MAGIC, struct.pack("<IIII", 1, 1, 1, 1)]
        parts.append(struct.pack("<H", 1) + b"x")
        parts.append(struct.pack("<H", 0))
        parts.append(b"\0")
        parts.append(struct.pack("<f", float("inf")))
        path = tmp_path / "inf.epb"
        path.write_bytes(b"".join(parts))
        with pytest.raises(InvariantViolation):
            load_embeddings(path)


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


def parse_binary_by_cursor(blob, path):
    """The EPB1 reader that sliced each block out of the file's bytes; the reader's oracle."""
    cur = _Cursor(blob, path)
    cur.take(len(MAGIC), "magic")
    version = cur.u32("format version")
    if version != io.BINARY_VERSION:
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
    if codes.size and codes.max() >= len(io._SPLIT_NAMES):
        raise ParseError(f"{path}: unknown split code {int(codes.max())}")
    labels = tuple(table[i] for i in idx)
    splits = tuple(io._SPLIT_NAMES[int(c)] for c in codes)
    split = None if all(s is None for s in splits) else splits
    emb = values.astype(np.float64).reshape(n, m)
    return EmbeddingSet(embeddings=emb, labels=labels, split=split)


# label table entries: empty, non-ASCII, repeated, and a surrogate that is not UTF-8
TABLE_LABELS = [b"", b"a", b"a", "ünï 日本".encode(), b"b,c", b"\xed\xa0\x80"]
F32_VALUES = [0.0, -0.0, 1.5, -3.25, 1e-45, 3.4028235e38, float("inf"), float("nan")]


@st.composite
def epb1_parts(draw):
    """An EPB1 file as (region, bytes) parts, mostly valid: a bad entry now and then."""
    n = draw(st.integers(0 if rarely(draw) else 1, 4))
    m = draw(st.integers(0 if rarely(draw) else 1, 3))
    name = st.sampled_from(TABLE_LABELS if rarely(draw) else TABLE_LABELS[:-1])
    names = draw(st.lists(name, min_size=0 if rarely(draw) else 1, max_size=4))
    table = len(names) + (draw(st.integers(1, 3)) if rarely(draw) else 0)
    index = st.integers(0, max(len(names) - 1, 0)) if not rarely(draw) else st.integers(0, 9)
    code = st.integers(0, 3) if not rarely(draw) else st.integers(0, 255)
    value = st.sampled_from(F32_VALUES) if rarely(draw) else (
        st.sampled_from(F32_VALUES[:-2]) | st.floats(width=32, allow_nan=False, allow_infinity=False))
    parts = [("magic", MAGIC), ("version", struct.pack("<I", 1)),
             ("sizes", struct.pack("<III", n, m, table))]
    for name in names:
        parts += [("label length", struct.pack("<H", len(name))), ("label", name)]
    parts.append(("indices", np.array([draw(index) for _ in range(n)], dtype="<u2").tobytes()))
    parts.append(("codes", bytes(draw(code) for _ in range(n))))
    parts.append(("block", np.array([draw(value) for _ in range(n * m)], dtype="<f4").tobytes()))
    return parts


@st.composite
def epb1_bytes(draw):
    """Valid small files, truncated, byte-flipped or with trailing bytes."""
    parts = draw(epb1_parts())
    blob = b"".join(p for _, p in parts)
    change = draw(st.sampled_from(["none", "truncate", "flip", "flip", "trailing"]))
    if change == "truncate":
        blob = blob[: draw(st.integers(len(MAGIC), len(blob)))]
    elif change == "flip":
        # the version, a size field, a label length or its bytes, an index or a code
        regions, start = [], 0
        for region, part in parts:
            if region not in ("magic", "block") and part:
                regions.append((start, start + len(part)))
            start += len(part)
        lo, hi = draw(st.sampled_from(regions))
        at = draw(st.integers(lo, hi - 1))
        blob = blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
    elif change == "trailing":
        blob += draw(st.binary(min_size=1, max_size=5))
    return blob


def assert_loads_like_cursor_reader(path, blob):
    path.write_bytes(blob)
    try:
        want = parse_binary_by_cursor(blob, path)
    except Exception as exc:  # the reader must raise the same type and message
        with pytest.raises(type(exc)) as got:
            load_embeddings(path)
        assert str(got.value) == str(exc)
        return
    got = load_embeddings(path)
    assert got.embeddings.shape == want.embeddings.shape
    assert got.embeddings.tobytes() == want.embeddings.tobytes()
    assert (got.labels, got.split) == (want.labels, want.split)


class TestBinaryReader:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=epb1_bytes())
    def test_matches_cursor_reference(self, tmp_path, blob):
        assert_loads_like_cursor_reader(tmp_path / "gen.epb", blob)

    def test_every_truncation_matches_cursor_reference(self, tmp_path):
        data = EmbeddingSet(np.arange(6.0).reshape(3, 2), ("", "ünï", ""),
                            (None, "val", "novel"))
        save_embeddings(data, tmp_path / "full.epb")
        blob = (tmp_path / "full.epb").read_bytes()
        for cut in range(len(MAGIC), len(blob) + 1):
            assert_loads_like_cursor_reader(tmp_path / "cut.epb", blob[:cut])


class TestAutoFormat:
    def test_sniffing(self, tmp_path):
        data = sample_set()
        csv_path, bin_path = tmp_path / "a.csv", tmp_path / "b.epb"
        save_embeddings(data, csv_path)
        save_embeddings(data, bin_path)
        assert csv_path.read_bytes()[:4] != MAGIC
        assert bin_path.read_bytes()[:4] == MAGIC
        assert load_embeddings(csv_path).labels == data.labels
        assert load_embeddings(bin_path).labels == data.labels

    @pytest.mark.parametrize("name, fmt", [("a.EPB", "binary"), ("a.bin", "binary"), ("a.csv", "csv")])
    def test_save_picks_format_from_suffix(self, tmp_path, name, fmt):
        save_embeddings(sample_set(), tmp_path / name)
        assert ((tmp_path / name).read_bytes()[:4] == MAGIC) == (fmt == "binary")

    def test_load_picks_format_from_content(self, tmp_path):
        data = sample_set()
        save_embeddings(data, tmp_path / "a.epb")
        renamed = (tmp_path / "a.epb").rename(tmp_path / "a.dat")
        back = load_embeddings(renamed)
        assert back.labels == data.labels
        np.testing.assert_array_equal(
            back.embeddings, data.embeddings.astype(np.float32).astype(np.float64)
        )

    @pytest.mark.parametrize("name", ["a.csv", "a.epb"])
    def test_load_opens_the_file_once(self, tmp_path, monkeypatch, name):
        path = tmp_path / name
        save_embeddings(sample_set(), path)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return builtins.open(*args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open, raising=False)
        load_embeddings(path)
        assert opened == [path]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_embeddings(tmp_path / "missing.csv")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            save_embeddings(sample_set(), tmp_path / "no" / "such" / "dir.csv")


class TestReport:
    def test_schema_keys_and_json(self, tmp_path):
        emb = np.vstack([np.full((10, 2), 0.0), np.full((10, 2), 9.0)])
        data = EmbeddingSet(emb, ("a",) * 10 + ("b",) * 10)
        cfg = EvalConfig(n_way=2, k_shot=1, q_queries=2, episodes=3, seed=5)
        report = evaluate(data, cfg)
        d = report_to_dict(report)
        assert list(d.keys()) == [
            "config", "seed", "episodes", "accuracies", "mean", "ci95", "wall_ms", "split",
        ]
        assert d["episodes"] == 3 and d["seed"] == 5 and d["split"] is None
        assert d["config"]["mode"] == "full"
        assert d["config"]["classifier"] == "lp"
        assert d["config"]["graph"]["alpha"] == 0.5
        assert list(d["config"]["graph"].items()) == [
            ("alpha", 0.5), ("sigma2_override", None),
            ("variance_floor", 1e-12), ("fallback_sigma2", 1.0),
        ]

        path = tmp_path / "report.json"
        write_report(report, path)
        loaded = json.loads(path.read_text())
        assert loaded["accuracies"] == list(report.accuracies)
        assert loaded["mean"] == report.mean

    def test_numpy_scalar_config_reports_as_the_plain_one(self, tmp_path):
        # the configs store the int and float the scalar rule returns, so a
        # config built from numpy scalars serializes like the plain one
        data = EmbeddingSet(np.random.default_rng(4).normal(size=(30, 3)), ("a", "b", "c") * 10)
        plain = EvalConfig(n_way=3, k_shot=2, q_queries=3, labeled_fraction=0.5, episodes=2,
                           seed=6, graph=GraphConfig(alpha=0.25, sigma2_override=2.0))
        numpy = EvalConfig(n_way=np.int64(3), k_shot=np.int32(2), q_queries=np.uint8(3),
                           labeled_fraction=np.float32(0.5), episodes=np.int64(2),
                           seed=np.uint64(6),
                           graph=GraphConfig(alpha=np.float64(0.25), sigma2_override=np.int64(2)))
        assert numpy == plain
        texts = []
        for cfg in (plain, numpy):
            path = tmp_path / "report.json"
            write_report(evaluate(data, cfg), path)
            loaded = json.loads(path.read_text())
            del loaded["wall_ms"]
            texts.append(json.dumps(loaded))
        assert texts[0] == texts[1]

    def test_failed_serialization_leaves_the_file(self, tmp_path):
        data = EmbeddingSet(np.random.default_rng(4).normal(size=(20, 2)), ("a", "b") * 10)
        report = evaluate(data, EvalConfig(n_way=2, k_shot=1, q_queries=2, episodes=1))
        path = tmp_path / "report.json"
        path.write_bytes(b"earlier report\n")
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_report(dataclasses.replace(report, wall_ms=np.int64(3)), path)
        assert path.read_bytes() == b"earlier report\n"
