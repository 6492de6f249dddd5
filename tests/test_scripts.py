"""The scripts under `scripts/`, loaded by path and run on small grids."""

import importlib.util
import math
from pathlib import Path

import pytest

from noisycav.cli import main
from noisycav.sweep import PRESETS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a script that ignored its output option would write here


def test_reproduce_figures_writes_the_cli_presets(tmp_path, capsys):
    outdir = tmp_path / "figures"
    assert load("reproduce_figures").run(["--outdir", str(outdir), "--points", "2", "--cutoff", "2"]) == 0
    written = sorted(path.name for path in outdir.iterdir())
    assert written == sorted(f"{name}{tail}" for name in PRESETS for tail in (".csv", ".csv.summary.csv"))
    for name in PRESETS:
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--preset", name, "--points", "2", "--cutoff", "2", "--out", str(out)]) == 0
        for tail in ("", ".summary.csv"):
            assert (outdir / f"{name}.csv{tail}").read_bytes() == Path(f"{out}{tail}").read_bytes()


def test_reproduce_figures_stops_at_a_failing_preset(tmp_path, capsys):
    assert load("reproduce_figures").run(["--outdir", str(tmp_path), "--points", "0"]) == 2
    assert "failed with exit code 2" in capsys.readouterr().err


def test_separability_margin_map(tmp_path, capsys):
    out = tmp_path / "margin.csv"
    args = ["--out", str(out), "--nt-max", "1", "--nt-points", "2", "--t-max", "0.2", "--t-points", "2"]
    assert load("separability_margin").run(args) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "n_thermal,t,margin"
    assert len(rows) == 4
    cells = [[float(x) for x in row.split(",")] for row in rows]
    assert all(len(cell) == 3 and all(map(math.isfinite, cell)) for cell in cells)
    assert [cell[:2] for cell in cells] == [[0.0, 0.1], [0.0, 0.2], [1.0, 0.1], [1.0, 0.2]]
    assert f"wrote {out}" in capsys.readouterr().out
