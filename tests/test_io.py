import json
import struct

import numpy as np
import pytest

from embedprop.episodes import EmbeddingSet, EvalConfig, evaluate
from embedprop.errors import InvariantViolation, ParseError
from embedprop.io import (
    MAGIC,
    _load_binary,
    load_embeddings,
    report_to_dict,
    save_embeddings,
    sniff_format,
    write_report,
)


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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.epb"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_reader_checks_magic_itself(self, tmp_path):
        # load_embeddings routes by the magic; the binary reader still checks it
        path = tmp_path / "bad.epb"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ParseError, match="bad magic"):
            _load_binary(path)

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


class TestAutoFormat:
    def test_sniffing(self, tmp_path):
        data = sample_set()
        csv_path, bin_path = tmp_path / "a.csv", tmp_path / "b.epb"
        save_embeddings(data, csv_path)
        save_embeddings(data, bin_path)
        assert sniff_format(csv_path) == "csv"
        assert sniff_format(bin_path) == "binary"
        assert load_embeddings(csv_path).labels == data.labels
        assert load_embeddings(bin_path).labels == data.labels

    @pytest.mark.parametrize("name, fmt", [("a.EPB", "binary"), ("a.bin", "binary"), ("a.csv", "csv")])
    def test_save_picks_format_from_suffix(self, tmp_path, name, fmt):
        save_embeddings(sample_set(), tmp_path / name)
        assert sniff_format(tmp_path / name) == fmt

    def test_load_picks_format_from_content(self, tmp_path):
        data = sample_set()
        save_embeddings(data, tmp_path / "a.epb")
        renamed = (tmp_path / "a.epb").rename(tmp_path / "a.dat")
        back = load_embeddings(renamed)
        assert back.labels == data.labels
        np.testing.assert_array_equal(
            back.embeddings, data.embeddings.astype(np.float32).astype(np.float64)
        )

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
            "config", "seed", "episodes", "accuracies", "mean", "ci95", "wall_ms",
        ]
        assert d["episodes"] == 3 and d["seed"] == 5
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
