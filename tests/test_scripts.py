"""The scripts under `scripts/`, loaded by path and run on small grids."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import noisycav.model
import noisycav.sweep
from noisycav.dynamics import IntegratorSettings, evolve
from noisycav.entanglement import concurrence
from noisycav.model import ATOM_A, ATOM_B, SystemConfig, build_model, ground_state

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a script that ignored its output option would write here


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


def test_separability_margin_is_one_sweep(tmp_path, monkeypatch):
    # one model for the whole grid, and the margins of an evolution per noise value
    built = []

    def counted(cfg):
        built.append(cfg)
        return build_model(cfg)

    monkeypatch.setattr(noisycav.sweep, "build_model", counted)
    monkeypatch.setattr(noisycav.model, "build_model", counted)
    out = tmp_path / "margin.csv"
    args = ["--out", str(out), "--nt-max", "1.5", "--nt-points", "2", "--t-max", "0.4", "--t-points", "2",
            "--dt", "0.01"]
    assert load("separability_margin").run(args) == 0
    assert len(built) == 1
    rows = [[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[1:]]
    for n_t in (0.0, 1.5):
        cfg = SystemConfig(n_thermal=n_t)
        traj = evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(dt=0.01, t_max=0.4),
                      record_times=[0.2, 0.4], reduce_to=(ATOM_A, ATOM_B))
        expected = [(n_t, t, concurrence(state).margin) for t, state in zip(traj.times, traj.states)]
        got = [row for row in rows if row[0] == n_t]
        assert np.abs(np.subtract(got, expected)).max() <= 1e-12
    assert min(row[2] for row in rows) < 0  # the unclamped margin, not the concurrence


@pytest.mark.parametrize("flag,value,message", [
    ("--nt-points", "0", "--nt-points must be at least 1"),
    ("--t-points", "0", "--t-points must be at least 1"),
    ("--t-points", "-3", "--t-points must be at least 1"),
    ("--t-max", "0", "--t-max must be positive"),
    ("--t-max", "nan", "--t-max must be positive"),
    ("--dt", "0", "--dt must be positive"),
    ("--dt", "-0.01", "--dt must be positive"),
    ("--dt", "10", "dt=10.0 exceeds t_max=5.0"),
    ("--nt-max", "-1", "n_thermal must be nonnegative"),
    ("--nt-max", "nan", "n_thermal must be finite"),
])
def test_separability_margin_rejects_bad_grids(flag, value, message, tmp_path, capsys):
    out = tmp_path / "margin.csv"
    with pytest.raises(SystemExit) as exit_info:
        load("separability_margin").run(["--out", str(out), flag, value])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
