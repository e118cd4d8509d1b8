"""Smoke runs of the example scripts with tiny arguments."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, args, monkeypatch):
    module = load_script(name)
    monkeypatch.setattr(sys, "argv", [name, *args])
    module.main()


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_ssl_benchmark(monkeypatch, capsys):
    run_script("ssl_benchmark", ["--episodes", "5"], monkeypatch)
    out = capsys.readouterr().out
    # 2 classifiers x (4 propagation modes + 1 SSL row), after two header lines
    assert len(out.splitlines()) == 2 + 2 * 5
    assert "lp / full + ssl(u=20)" in out


def test_two_moons_demo(tmp_path, monkeypatch, capsys):
    run_script("two_moons_demo", ["--n", "30", "--batches", "2", "--batch-size", "20",
                                  "--outdir", str(tmp_path / "moons")], monkeypatch)
    written = sorted(p.name for p in (tmp_path / "moons").iterdir())
    assert written == ["moons.csv", "projections.csv", "propagated.csv", "summary.txt"]
    assert "label propagation, 1 support per moon" in capsys.readouterr().out


def test_smoothness_curves(tmp_path, monkeypatch, capsys):
    out_csv = tmp_path / "curves.csv"
    args = ["--pairs", "2", "--grid", "3"]
    run_script("smoothness_curves", [*args, "--out", str(out_csv)], monkeypatch)
    out = capsys.readouterr().out
    assert "mode full" in out and "mode identity" in out
    # header + 2 modes x 2 pairs x 3 grid points
    assert len(out_csv.read_text().splitlines()) == 1 + 2 * 2 * 3
    # --alpha reaches the graph: the full-mode curves move
    other = tmp_path / "alpha.csv"
    run_script("smoothness_curves", [*args, "--alpha", "0.9", "--out", str(other)], monkeypatch)
    assert other.read_bytes() != out_csv.read_bytes()


def test_output_digest_is_repeatable(monkeypatch, capsys):
    args = ["--episodes", "1", "--max-n", "7"]
    run_script("output_digest", args, monkeypatch)
    first = capsys.readouterr().out
    run_script("output_digest", args, monkeypatch)
    assert capsys.readouterr().out == first
    digest, counts = first.split("  ", 1)
    assert len(digest) == 64 and int(digest, 16) >= 0
    # 2 classifiers x 2 SSL modes x 4 propagation modes; 4 shapes x 4 modes;
    # one batch saved as CSV and as EPB1 and loaded back; four malformed CSVs
    # and six malformed EPB1 files; evaluate and ssl through the CLI
    assert counts.strip() == (
        "(16 episodes, 16 propagate calls, 2 files saved and loaded, "
        "10 malformed files rejected, 2 cli reports)"
    )


def test_fidelity(monkeypatch, capsys):
    run_script("fidelity", ["--episodes", "2", "--layouts", "5shot-w8"], monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    # two header lines, then scales {1, 1/sqrt(m)} x offsets {0, 100}
    assert lines[1].split() == ["layout", "scale", "offset", "full", "identity",
                                "full+ssl", "identity+ssl"]
    assert [line.split()[:3] for line in lines[2:]] == [
        ["5shot-w8", "1", "0"], ["5shot-w8", "1", "100"],
        ["5shot-w8", "1/sqrt(m)", "0"], ["5shot-w8", "1/sqrt(m)", "100"],
    ]
    assert all(0.0 <= float(acc) <= 1.0 for line in lines[2:] for acc in line.split()[3:])


def test_mutant_catalogue_is_current():
    # every patch text still occurs in its file and every named test file
    # exists, so `scripts/mutants.py` can apply and run each mutant
    mutants = load_script("mutants")
    stale = []
    for name, (patches, tests) in mutants.MUTANTS.items():
        stale += [(name, rel, text) for rel, text, _ in patches
                  if text not in (mutants.ROOT / rel).read_text(encoding="utf-8")]
        stale += [(name, test) for test in tests if not (mutants.ROOT / test).is_file()]
    assert stale == []


def test_mutants_kills_alpha_negated(monkeypatch, capsys):
    run_script("mutants", ["alpha-negated"], monkeypatch)
    assert capsys.readouterr().out.startswith("alpha-negated: killed (")
