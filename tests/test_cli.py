import csv
import json

import numpy as np
import pytest

from embedprop import cli, numerics
from embedprop.cli import main
from embedprop.diagnostics import gaussian_clusters
from embedprop.episodes import Classifier, EmbeddingSet, EvalConfig, SslMode, evaluate
from embedprop.graph import GraphConfig
from embedprop.io import load_embeddings, report_to_dict, save_embeddings
from embedprop.propagation import PropagationMode


@pytest.fixture
def cluster_file(tmp_path):
    data = gaussian_clusters(8, 40, spread=0.3, seed=2)
    path = tmp_path / "clusters.csv"
    save_embeddings(data, path)
    return path


@pytest.fixture(params=[".csv", ".epb"])
def tagged_file(request, tmp_path):
    """Five base classes, then three novel ones, in either file format."""
    data = gaussian_clusters(8, 30, spread=0.6, seed=2)
    novel = set(data.classes[5:])
    split = tuple("novel" if label in novel else "base" for label in data.labels)
    path = tmp_path / f"tagged{request.param}"
    save_embeddings(EmbeddingSet(data.embeddings, data.labels, split), path)
    return path


_EPISODE_RUNS = {
    "evaluate": (["--n-way", "3", "--k-shot", "1", "--q-queries", "5", "--episodes", "8",
                  "--seed", "4"],
                 EvalConfig(n_way=3, k_shot=1, q_queries=5, episodes=8, seed=4)),
    "ssl": (["--n-way", "3", "--k-shot", "1", "--q-queries", "5", "--episodes", "8",
             "--seed", "4", "--unlabeled", "6"],
            EvalConfig(n_way=3, k_shot=1, q_queries=5, episodes=8, seed=4, u_unlabeled=6,
                       ssl=SslMode.PSEUDO_LABEL)),
}


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


def test_propagate_over_memory_exits_2(cluster_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(numerics, "physical_memory", lambda: 1 << 20)
    out = tmp_path / "out.csv"
    rc = main(["propagate", "--data", str(cluster_file), "--out", str(out)])
    assert rc == 2
    assert "320 rows needs about 1638400 bytes" in capsys.readouterr().err
    assert not out.exists()


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,label,split,f0\na,x,,not-a-number\n")
    rc = main(["evaluate", "--data", str(bad), "--episodes", "2", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    capsys.readouterr()


def test_invalid_utf8_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"id,label,split,f0\n0,a\xff,,1.0\n1,b,,2.0\n")
    out = tmp_path / "out.csv"
    rc = main(["propagate", "--data", str(bad), "--out", str(out)])
    assert rc == 2
    assert "byte 21 is not valid UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "evaluate" in capsys.readouterr().out


class _Captured(Exception):
    """Carries the EvalConfig a subcommand hands to the library, ending the run."""


def _capture(data, cfg, *rest):
    raise _Captured(cfg)


_EVERY_EPISODE_FLAG = [
    "--n-way", "3", "--k-shot", "2", "--q-queries", "4", "--episodes", "7",
    "--alpha", "0.25", "--mode", "diag", "--classifier", "proto", "--seed", "9",
]
_EVERY_EPISODE_FIELD = dict(
    n_way=3, k_shot=2, q_queries=4, episodes=7, graph=GraphConfig(alpha=0.25),
    mode=PropagationMode.DIAGONAL_ONLY, classifier=Classifier.PROTOTYPICAL, seed=9,
)


@pytest.mark.parametrize("argv, expected", [
    (["evaluate"], EvalConfig()),
    (["ssl"], EvalConfig(u_unlabeled=100, ssl=SslMode.PSEUDO_LABEL)),
    (["interp"], EvalConfig(episodes=1)),
    (["evaluate", *_EVERY_EPISODE_FLAG], EvalConfig(**_EVERY_EPISODE_FIELD)),
    (["ssl", *_EVERY_EPISODE_FLAG, "--unlabeled", "6", "--labeled-fraction", "0.5"],
     EvalConfig(**_EVERY_EPISODE_FIELD, u_unlabeled=6, labeled_fraction=0.5,
                ssl=SslMode.PSEUDO_LABEL)),
    (["interp", "--n-way", "3", "--k-shot", "2", "--pairs", "4", "--grid", "5",
      "--alpha", "0.25", "--seed", "9"],
     EvalConfig(n_way=3, k_shot=2, episodes=1, graph=GraphConfig(alpha=0.25), seed=9)),
])
def test_subcommand_builds_eval_config(cluster_file, tmp_path, monkeypatch, argv, expected):
    monkeypatch.setattr(cli, "evaluate", _capture)
    monkeypatch.setattr(cli, "sample_episode", _capture)
    out = tmp_path / "out"
    with pytest.raises(_Captured) as captured:
        main([*argv, "--data", str(cluster_file), "--out", str(out)])
    assert captured.value.args[0] == expected
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "ssl"])
def test_tagged_file_is_evaluated_on_its_novel_rows(tagged_file, tmp_path, command):
    flags, cfg = _EPISODE_RUNS[command]
    out = tmp_path / "report.json"
    assert main([command, "--data", str(tagged_file), *flags, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    expected = evaluate(load_embeddings(tagged_file).filter_split("novel"), cfg)
    assert report["accuracies"] == list(expected.accuracies)
    assert report["split"] == ["novel"]


def test_untagged_file_report_gains_a_null_split(cluster_file, tmp_path):
    flags, cfg = _EPISODE_RUNS["evaluate"]
    out = tmp_path / "report.json"
    assert main(["evaluate", "--data", str(cluster_file), *flags, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    expected = json.loads(json.dumps(report_to_dict(evaluate(load_embeddings(cluster_file), cfg))))
    assert list(report) == [
        "config", "seed", "episodes", "accuracies", "mean", "ci95", "wall_ms", "split",
    ]
    del report["wall_ms"], expected["wall_ms"]
    assert report == expected and report["split"] is None


def test_interp_reads_the_novel_rows_of_a_tagged_file(tagged_file, tmp_path):
    novel_only = tmp_path / f"novel{tagged_file.suffix}"
    save_embeddings(load_embeddings(tagged_file).filter_split("novel"), novel_only)
    curves = []
    for path in (tagged_file, novel_only):
        out = tmp_path / f"curves-{path.stem}.csv"
        rc = main(["interp", "--data", str(path), "--n-way", "3", "--k-shot", "2",
                   "--pairs", "3", "--grid", "4", "--seed", "9", "--out", str(out)])
        assert rc == 0
        curves.append(out.read_bytes())
    assert curves[0] == curves[1]


@pytest.mark.parametrize("command", ["evaluate", "ssl", "interp"])
def test_tagged_file_without_novel_rows_exits_2(tmp_path, capsys, command):
    data = gaussian_clusters(5, 30, spread=0.3, seed=2)
    path = tmp_path / "base.csv"
    save_embeddings(EmbeddingSet(data.embeddings, data.labels, ("base",) * data.n), path)
    out = tmp_path / "out"
    assert main([command, "--data", str(path), "--out", str(out)]) == 2
    assert "no rows with split 'novel'" in capsys.readouterr().err
    assert not out.exists()


def test_propagate_keeps_every_row_of_a_tagged_file(tagged_file, tmp_path):
    out = tmp_path / f"out{tagged_file.suffix}"
    assert main(["propagate", "--data", str(tagged_file), "--out", str(out)]) == 0
    before, after = load_embeddings(tagged_file), load_embeddings(out)
    assert after.labels == before.labels and after.split == before.split
    assert after.n == 240 and set(after.split) == {"base", "novel"}
