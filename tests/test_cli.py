import csv
import json

import numpy as np
import pytest

from embedprop.cli import main
from embedprop.diagnostics import gaussian_clusters
from embedprop.io import load_embeddings, save_embeddings


@pytest.fixture
def cluster_file(tmp_path):
    data = gaussian_clusters(8, 40, spread=0.3, seed=2)
    path = tmp_path / "clusters.csv"
    save_embeddings(data, path)
    return path


def test_moons_then_evaluate(tmp_path, capsys):
    moons = tmp_path / "moons.csv"
    assert main(["moons", "--n", "60", "--noise", "0.1", "--seed", "7", "--out", str(moons)]) == 0
    data = load_embeddings(moons)
    assert data.n == 120 and set(data.labels) == {"moon0", "moon1"}

    report_path = tmp_path / "report.json"
    rc = main([
        "evaluate", "--data", str(moons), "--n-way", "2", "--k-shot", "1",
        "--q-queries", "5", "--episodes", "12", "--seed", "3",
        "--out", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["episodes"] == 12
    assert len(report["accuracies"]) == 12
    assert 0.0 <= report["mean"] <= 1.0
    assert "mean accuracy" in capsys.readouterr().out


def test_ssl_subcommand(cluster_file, tmp_path):
    report_path = tmp_path / "ssl.json"
    rc = main([
        "ssl", "--data", str(cluster_file), "--n-way", "5", "--k-shot", "1",
        "--q-queries", "4", "--episodes", "6", "--unlabeled", "10",
        "--out", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["config"]["ssl"] == "pseudo"
    assert report["config"]["u_unlabeled"] == 10


def test_ssl_without_pool_is_data_error(cluster_file, tmp_path):
    rc = main([
        "ssl", "--data", str(cluster_file), "--episodes", "2", "--unlabeled", "0",
        "--labeled-fraction", "1.0", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2


def test_propagate_round_trip(tmp_path):
    src = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    save_embeddings(gaussian_clusters(2, 10, spread=0.2, seed=4), src)
    assert main(["propagate", "--data", str(src), "--alpha", "0.5", "--out", str(out)]) == 0
    before = load_embeddings(src)
    after = load_embeddings(out)
    assert after.labels == before.labels
    assert after.embeddings.shape == before.embeddings.shape
    assert not np.allclose(after.embeddings, before.embeddings)

    ident = tmp_path / "ident.csv"
    assert main(["propagate", "--data", str(src), "--mode", "identity", "--out", str(ident)]) == 0
    np.testing.assert_array_equal(load_embeddings(ident).embeddings, before.embeddings)


def test_interp_writes_curves(cluster_file, tmp_path):
    out = tmp_path / "curves.csv"
    rc = main([
        "interp", "--data", str(cluster_file), "--n-way", "5", "--k-shot", "1",
        "--pairs", "3", "--grid", "5", "--seed", "9", "--out", str(out),
    ])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["pair", "i", "j", "weight", "prob"]
    assert len(rows) == 1 + 3 * 5
    probs = [float(r[4]) for r in rows[1:]]
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_interp_zero_pairs_exit_1(cluster_file, tmp_path, capsys):
    rc = main([
        "interp", "--data", str(cluster_file), "--pairs", "0", "--out", str(tmp_path / "c.csv"),
    ])
    assert rc == 1
    assert "count must be >= 1" in capsys.readouterr().err


def test_interp_usage_error_keeps_out_file(cluster_file, tmp_path, capsys):
    out = tmp_path / "curves.csv"
    out.write_text("earlier results\n")
    rc = main(["interp", "--data", str(cluster_file), "--grid", "1", "--out", str(out)])
    assert rc == 1
    assert "grid_size must be >= 2" in capsys.readouterr().err
    assert out.read_text() == "earlier results\n"


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_moons_non_finite_noise_exits_1(tmp_path, capsys, noise):
    rc = main(["moons", "--noise", noise, "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    assert "noise_sd must be finite" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["evaluate"]) == 1  # missing required flags
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_bad_alpha_exits_1(cluster_file, tmp_path, capsys):
    rc = main([
        "evaluate", "--data", str(cluster_file), "--alpha", "1.5",
        "--episodes", "2", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    assert "alpha" in capsys.readouterr().err


def test_missing_data_file_exits_2(tmp_path, capsys):
    rc = main([
        "evaluate", "--data", str(tmp_path / "nope.csv"),
        "--episodes", "2", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 2
    capsys.readouterr()


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,label,split,f0\na,x,,not-a-number\n")
    rc = main(["evaluate", "--data", str(bad), "--episodes", "2", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "evaluate" in capsys.readouterr().out
