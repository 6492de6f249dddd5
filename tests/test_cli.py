import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisycav.cli
import noisycav.dynamics
from noisycav.cli import (
    EVOLVE_HEADER,
    SUMMARY_HEADER,
    SWEEP_HEADER,
    ConfigError,
    main,
    parse_config,
)
from noisycav.dynamics import IntegratorSettings, evolve
from noisycav.entanglement import concurrence
from noisycav.model import ATOM_A, ATOM_B, CAVITY, SystemConfig, build_model, ground_state, standard_observables
from noisycav.qops import embed
from noisycav.sweep import PRESETS, SummaryRow

ROOT = Path(__file__).resolve().parents[1]


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.system.g_a == 1.0 and cfg.system.g_b == 1.0
        assert cfg.system.kappa == 2.0 and cfg.system.gamma == 0.2
        assert cfg.system.n_thermal == 0.0 and cfg.system.cutoff == 5
        assert cfg.integrator.dt == 0.002 and cfg.integrator.t_max == 5.0
        assert cfg.fmt == "csv" and cfg.out is None

    def test_single_override(self):
        cfg = parse_config("n_thermal = 0.5\n")
        assert cfg.system.n_thermal == 0.5
        assert cfg.system.kappa == 2.0  # untouched

    def test_domain_violation_names_key(self):
        with pytest.raises(ConfigError, match="kappa"):
            parse_config("kappa = -1\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match=r"line 2.*gama"):
            parse_config("kappa = 2\ngama = 0.3\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("kappa 2\n")

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="kappa"):
            parse_config("kappa = fast\n")

    @pytest.mark.parametrize("line", ["cutoff = 2.5\n", "record_stride = x\n", "cutoff = 1e3\n"])
    def test_non_integer_value(self, line):
        with pytest.raises(ConfigError, match=rf"line 1: value for {line.split()[0]} is not an integer"):
            parse_config(line)

    @pytest.mark.parametrize("key", ["g_a", "kappa", "gamma", "n_thermal", "dt", "t_max"])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_key(self, key, raw):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(f"{key} = {raw}\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# physics\n\nkappa = 1.5  # overridden\n")
        assert cfg.system.kappa == 1.5

    def test_output_keys(self):
        cfg = parse_config("out = results.csv\nformat = json\n")
        assert cfg.out == "results.csv" and cfg.fmt == "json"
        with pytest.raises(ConfigError, match="format"):
            parse_config("format = yaml\n")


class TestEvolveCommand:
    def test_defaults_stay_separable(self, tmp_path):
        out = tmp_path / "e.csv"
        code = main(["evolve", "--out", str(out), "--set", "t_max=0.5"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == EVOLVE_HEADER
        assert len(lines) > 2
        for row in csv.DictReader(lines):
            assert float(row["concurrence"]) == 0.0
            assert float(row["margin"]) == 0.0  # without noise nothing leaves |g,g,0>
            assert float(row["trace_residual"]) <= 1e-8

    @pytest.mark.parametrize("n_thermal", [0.5, 3.0])
    def test_thermal_drive_populates_bus_but_not_concurrence(self, n_thermal, tmp_path):
        # oracle-computed truth: thermal photon bunching feeds the doubly
        # excited state fast enough that the atoms stay separable even while
        # the bus is demonstrably active (mean photon number grows): the
        # unclamped margin l1 - l2 - l3 - l4 stays at or below 0, and falls below it
        out = tmp_path / "e.csv"
        assert main(["evolve", "--out", str(out), "--set", f"n_thermal={n_thermal}", "--set", "t_max=5"]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert max(float(row["mean_photon"]) for row in rows) > 0.1
        assert all(float(row["concurrence"]) == 0.0 for row in rows)
        margins = [float(row["margin"]) for row in rows]
        assert max(margins) <= 0.0 and min(margins) < 0.0

    @pytest.mark.parametrize("n_thermal", [0.3, 3.0])
    def test_rows_match_an_independent_evolution(self, n_thermal, tmp_path):
        # the command runs as a one-axis time sweep; check it against `evolve` on a model of its own
        cfg = SystemConfig(g_a=0.8, g_b=1.3, n_thermal=n_thermal, cutoff=3)
        settings = IntegratorSettings(dt=0.004, t_max=0.6, record_stride=7)
        out = tmp_path / "e.csv"
        assert main(["evolve", "--out", str(out), "--set", "g_a=0.8", "--set", "g_b=1.3",
                     "--set", f"n_thermal={n_thermal}", "--cutoff", "3", "--set", "dt=0.004",
                     "--set", "t_max=0.6", "--set", "record_stride=7"]) == 0
        traj = evolve(build_model(cfg), ground_state(cfg), settings, observables=standard_observables(cfg),
                      reduce_to=(ATOM_A, ATOM_B))
        results = [concurrence(atoms) for atoms in traj.states]
        expected = {"t": traj.times, "concurrence": [c.value for c in results], **traj.observables,
                    "trace_residual": traj.trace_residuals, "margin": [c.margin for c in results]}
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == len(traj.times) == 23  # 0.6 / (7 * 0.004) = 21.4 strides, plus t = 0 and t_max
        for name in EVOLVE_HEADER.split(","):
            got = np.array([float(row[name]) for row in rows])
            # 1e-12 plus the rounding of a 12-significant-digit cell
            assert np.all(np.abs(got - expected[name]) <= 1e-12 + 5e-12 * np.abs(expected[name])), name

    def test_zero_t_max_single_row(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["evolve", "--out", str(out), "--set", "t_max=0"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert float(fields[0]) == 0.0 and float(fields[1]) == 0.0

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--set", "n_thermal=0.3", "--set", "t_max=0.5"]
        assert main(["evolve", "--out", str(a), *args]) == 0
        assert main(["evolve", "--out", str(b), *args]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "e.json"
        args = ["evolve", "--out", str(out), "--format", "json", "--set", "t_max=0.2",
                "--set", "n_thermal=0.4"]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        # values survive re-serialization exactly
        assert json.dumps(payload, indent=2) + "\n" == out.read_text()

    def test_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n_thermal = 0.2\nt_max = 0.1\n")
        out = tmp_path / "e.csv"
        assert main(["evolve", "--config", str(conf), "--out", str(out)]) == 0
        assert out.exists()

    def test_missing_config_is_exit_2(self, tmp_path):
        assert main(["evolve", "--config", str(tmp_path / "nope.conf")]) == 2

    def test_bad_set_key_is_exit_2(self):
        assert main(["evolve", "--set", "gama=1"]) == 2
        assert main(["evolve", "--set", "kappa=-2"]) == 2

    @pytest.mark.parametrize("args,message", [
        (["steady", "--set", "t_max=0.001"], "steady does not read t_max"),
        (["sweep", "--axis1", "n_thermal:0:1:2", "--at-time", "0.2", "--set", "t_max=0.001"],
         "sweep does not read t_max"),
        (["sweep", "--axis1", "n_thermal:0:1:2", "--at-time", "0.2", "--set", "record_stride=7"],
         "sweep does not read record_stride"),
    ])
    def test_key_the_command_does_not_read_is_exit_2(self, args, message, tmp_path, capsys):
        # neither ignored nor checked against another key: named as unread, before any work
        assert main([*args, "--cutoff", "1", "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_unread_key_in_a_config_file_is_exit_2(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("n_thermal = 0.2\ndt = 0.004\n")
        assert main(["steady", "--config", str(conf), "--cutoff", "1", "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == "config error: steady does not read dt\n"

    def test_unstable_step_is_exit_3(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        args = ["evolve", "--out", str(out), "--set", "dt=0.5", "--set", "t_max=5",
                "--set", "n_thermal=2"]
        assert main(args) == 3
        err = capsys.readouterr().err  # the trajectory is the sweep's time column
        assert err.startswith("integrator failure: time column: trace drift ") and err.endswith("; reduce dt\n")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["evolve", "--set", "n_thermal=1e308", "--set", "t_max=0.004"],
        ["sweep", "--axis1", "n_thermal:0:1e308:2", "--at-time", "0.004"],
    ])
    def test_nan_drift_is_exit_3(self, args, tmp_path, capsys):
        # the overflowing thermal rate makes every entry NaN at the first record after t=0
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert main([*args, "--cutoff", "1", "--out", str(tmp_path / "out.csv")]) == 3
        assert "trace drift nan exceeds tolerance 1.0e-08 at t=0.004; reduce dt\n" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_overflowing_step_map_is_exit_3_without_warning(self, tmp_path, capsys):
        # one step of 1e308 overflows the step matrix; a warning raised while it is built fails this test
        args = ["sweep", "--axis1", "n_thermal:0:1:2", "--cutoff", "1", "--set", "dt=1e308", "--at-time", "1e308"]
        assert main([*args, "--out", str(tmp_path / "out.csv")]) == 3
        assert capsys.readouterr().err == ("integrator failure: n_thermal=0: trace drift nan exceeds "
                                           "tolerance 1.0e-08 at t=1e+308; reduce dt\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args,label", [
        (["sweep", "--axis1", "n_thermal:0:1:2", "--at-time", "1e308"], "n_thermal=0: "),
        (["sweep", "--axis1", "time:0:1e308:2"], "time column: "),
    ])
    def test_uncountable_step_count_is_exit_3(self, args, label, tmp_path, capsys):
        assert main([*args, "--cutoff", "1", "--out", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err
        assert f"integrator failure: {label}record time t=1e+308 is too many steps of dt=0.002" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args,code,message", [
        (["sweep", "--axis1", "n_thermal:0:1:2", "--at-time", "1e300"], 3,
         "integrator failure: n_thermal=0: record time t=1e+300 is too many steps of dt=0.002 away"),
        (["sweep", "--axis1", "time:0:1e300:2"], 3,
         "integrator failure: time column: record time t=1e+300 is too many steps of dt=0.002 away"),
        (["evolve", "--set", "t_max=1e300", "--set", "dt=1e-3"], 2,
         "config error: t_max=1e+300 is more than MAX_STEPS=1e+07 steps of dt=0.001"),
    ])
    def test_huge_finite_time_fails_at_once(self, args, code, message, tmp_path, monkeypatch, capsys):
        # a finite step count is not enough: without the cap these would step (or list times) for ever
        def never(*_, **__):
            raise AssertionError("the run started")

        monkeypatch.setattr(noisycav.dynamics, "_step_map", never)
        monkeypatch.setattr(IntegratorSettings, "times", property(never))  # evolve's record grid
        assert main([*args, "--cutoff", "1", "--out", str(tmp_path / "out.csv")]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args,code,message", [
        # dt above the default t_max: the one step of the evaluation time 1/(2g) is too large at n_T = 1
        (["--set", "dt=6"], 3,
         "integrator failure: n_thermal=1: trace drift 1.764e+00 exceeds tolerance 1.0e-08 at t=0.353553; reduce dt"),
        (["--at-time", "0.05", "--set", "dt=6"], 0, ""),
        # the step cap is the one each record time meets, not one computed from an unread t_max
        (["--at-time", "2", "--set", "dt=1e-7"], 3,
         "integrator failure: n_thermal=0: record time t=2 is too many steps of dt=1e-07 away"),
    ])
    def test_sweep_checks_dt_against_no_unread_key(self, args, code, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["sweep", "--axis1", "n_thermal:0:1:2", "--cutoff", "1", "--out", str(out), *args]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and "config error" not in err
        assert out.exists() == (code == 0)

    def test_mode_b_column_empty_without_coupling(self, tmp_path):
        out = tmp_path / "e.csv"
        args = ["evolve", "--out", str(out), "--set", "g_a=0", "--set", "g_b=0",
                "--set", "t_max=0.1"]
        assert main(args) == 0
        fields = out.read_text().splitlines()[1].split(",")
        assert fields[5] == ""

    def test_json_without_coupling_is_strict_json(self, tmp_path):
        # no collective mode: mode_b_pop is null, and no NaN or Infinity token is written
        out = tmp_path / "e.json"
        args = ["evolve", "--out", str(out), "--format", "json", "--set", "g_a=0", "--set", "g_b=0",
                "--set", "t_max=0.1"]
        assert main(args) == 0

        def reject(token):
            raise ValueError(f"non-finite JSON token {token}")

        records = json.loads(out.read_text(), parse_constant=reject)["records"]
        assert records and all(rec["mode_b_pop"] is None for rec in records)

    def test_non_finite_values_fail_to_serialize(self, tmp_path):
        with pytest.raises(ValueError, match="JSON compliant"):
            noisycav.cli._write_table(str(tmp_path / "t.json"), "json", "x", [{"x": float("nan")}])


class TestTruncationNote:
    """At n_T > 0 every command notes the largest population of the top Fock state |N> it found."""

    @staticmethod
    def note(n_thermal: str, cutoff: int, population: float) -> str:
        return f"note: largest population of the top Fock state (n_T={n_thermal}, N={cutoff}): {population:.3e}\n"

    @staticmethod
    def top_projector(cfg: SystemConfig) -> dict[str, np.ndarray]:
        return {"top": embed(np.diag(np.arange(cfg.cutoff + 1) == cfg.cutoff).astype(complex), CAVITY, cfg.layout)}

    def test_evolve_notes_its_largest_record(self, tmp_path, capsys):
        cfg = SystemConfig(n_thermal=2.0, cutoff=3)
        assert main(["evolve", "--out", str(tmp_path / "e.csv"), "--cutoff", "3", "--set", "n_thermal=2",
                     "--set", "t_max=1"]) == 0
        traj = evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(t_max=1.0),
                      observables=self.top_projector(cfg))
        assert capsys.readouterr().err == self.note("2", 3, traj.observables["top"].max())

    def test_sweep_notes_its_largest_cell(self, tmp_path, capsys):
        # the note names the largest noise on the axis and the largest population over every cell,
        # here that of n_T = 2, gamma = 0, not of the last cell
        assert main(["sweep", "--out", str(tmp_path / "s.csv"), "--axis1", "n_thermal:0.5:2:2",
                     "--axis2", "gamma:0:1:2", "--at-time", "2", "--cutoff", "2"]) == 0
        tops = []
        for n_thermal in (0.5, 2.0):
            for gamma in (0.0, 1.0):
                cfg = SystemConfig(n_thermal=n_thermal, gamma=gamma, cutoff=2)
                traj = evolve(build_model(cfg), ground_state(cfg), IntegratorSettings(t_max=2.0),
                              record_times=[2.0], observables=self.top_projector(cfg))
                tops.append(traj.observables["top"][0])
        assert max(tops) > tops[-1]
        assert capsys.readouterr().err == self.note("2", 2, max(tops))

    def test_steady_notes_its_top_photon_number(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["steady", "--out", str(out), "--cutoff", "4", "--set", "n_thermal=0.5"]) == 0
        values = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert capsys.readouterr().err == self.note("0.5", 4, float(values["photon_4"]))

    @pytest.mark.parametrize("args", [
        ["evolve", "--set", "t_max=0.1"],
        ["steady"],
        ["sweep", "--axis1", "kappa:1:2:2", "--at-time", "0.1"],
        ["sweep", "--axis1", "n_thermal:0:0:2", "--at-time", "0.1"],
    ], ids=["evolve", "steady", "sweep", "sweep-zero-noise-axis"])
    def test_no_note_without_noise(self, args, tmp_path, capsys):
        assert main([*args, "--cutoff", "2", "--out", str(tmp_path / "t.csv")]) == 0
        assert capsys.readouterr().err == ""


class TestSteadyCommand:
    def test_cavity_only_thermal_law(self, tmp_path):
        out = tmp_path / "s.json"
        args = ["steady", "--cavity-only", "--out", str(out), "--format", "json",
                "--set", "g_a=0", "--set", "g_b=0", "--set", "gamma=0",
                "--set", "kappa=1", "--set", "n_thermal=0.5", "--cutoff", "20"]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        photons = np.array(payload["photon_distribution"])
        q = 0.5 / 1.5
        target = (q ** np.arange(21)) / 1.5
        assert np.abs(photons - target).max() <= 1e-6
        assert payload["concurrence"] is None
        assert payload["liouvillian_residual"] <= 1e-8

    def test_dark_steady_state_without_noise(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["steady", "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["concurrence"] == 0.0
        assert payload["photon_distribution"][0] == pytest.approx(1.0, abs=1e-8)
        assert abs(payload["reduced_atoms_re"][0][0] - 1.0) < 1e-8

    def test_steady_csv_fields(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["steady", "--out", str(out), "--set", "n_thermal=0.4"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "field,value"
        fields = dict(line.split(",") for line in lines[1:])
        assert "concurrence" in fields and "liouvillian_residual" in fields
        assert "rho_atoms_re_0_0" in fields and "photon_0" in fields
        assert float(fields["liouvillian_residual"]) <= 1e-8

    def test_steady_atoms_have_exact_zero_imaginary_parts(self, tmp_path):
        # the state is solved on the real s coordinates, with no a, so every entry is real, the atoms' too
        out = tmp_path / "s.csv"
        assert main(["steady", "--out", str(out), "--cutoff", "10", "--set", "n_thermal=0.5"]) == 0
        fields = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        imaginary = {k: v for k, v in fields.items() if k.startswith("rho_atoms_im_")}
        assert len(imaginary) == 16 and set(imaginary.values()) == {"0"}
        assert float(fields["rho_atoms_re_1_2"]) != 0.0  # the coherence between |ge> and |eg> is there

    def test_no_dissipation_is_exit_4(self):
        assert main(["steady", "--set", "kappa=0", "--set", "gamma=0"]) == 4

    @pytest.mark.parametrize("args", [
        ["--set", "n_thermal=1e308"],
        ["--set", "gamma=1e308"],  # a finite rate, but the jump's sqrt(2 rate) overflows
        ["--cavity-only", "--set", "n_thermal=1e308"],
    ])
    def test_overflowing_rate_is_exit_4(self, args, tmp_path, capsys):
        with pytest.warns(RuntimeWarning, match="encountered"):
            assert main(["steady", *args, "--cutoff", "1", "--out", str(tmp_path / "s.csv")]) == 4
        assert "the Liouvillian has non-finite entries" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args,message", [
        # a rate more than 1e10 below the largest coupling or rate: the nullity threshold cannot see it
        (["--cutoff", "3", "--set", "g_a=1e12"], "cannot decide uniqueness: the smallest rate 0.2 "),
        (["--cutoff", "3", "--set", "kappa=1e9", "--set", "n_thermal=3"], "cannot decide uniqueness: "),
        (["--cutoff", "1", "--set", "g_a=1e200"], "cannot decide uniqueness: "),
        (["--cutoff", "3", "--set", "gamma=1e-12"], "cannot decide uniqueness: the smallest rate 1e-12 "),
        # every rate is positive, but atomic-decay singular values fall below the nullity threshold
        *[(["--set", f"kappa={kappa}", "--set", f"n_thermal={n_t}"],
           "cannot decide uniqueness: the smallest rate 0.2 is below 1.0e-08 times the largest singular value, ")
          for kappa, n_t in [("1.5e7", 3), ("3e7", 3), ("5e7", 3), ("1e8", 3), ("2e8", 3), ("4e8", 3),
                             ("1e8", 0.5), ("3e8", 0.5)]],
        # genuinely degenerate: undamped atoms, with and without a coupling to the damped cavity
        (["--cutoff", "3", "--set", "gamma=0", "--set", "n_thermal=3"], "steady-state manifold has dimension 2;"),
        (["--cutoff", "3", "--set", "g_a=0", "--set", "g_b=0", "--set", "gamma=0"],
         "steady-state manifold has dimension 16;"),
    ])
    def test_unresolvable_and_degenerate_manifolds_are_exit_4(self, args, message, tmp_path, capsys):
        assert main(["steady", *args, "--out", str(tmp_path / "s.csv")]) == 4
        assert capsys.readouterr().err.startswith(f"degenerate steady state: {message}")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kappa,n_thermal", [("3e6", "3"), ("1e7", "3"), ("3e7", "0.5")])
    def test_large_rates_pass_the_residual_gate(self, kappa, n_thermal, tmp_path):
        # round-off puts the residual above 1e-8 here (2.1e-08, 1.3e-08 and 1.1e-08 with one BLAS
        # thread), but not above 1e-8 times the largest rate, kappa (n_thermal + 1)
        out = tmp_path / "s.csv"
        assert main(["steady", "--set", f"kappa={kappa}", "--set", f"n_thermal={n_thermal}", "--out", str(out)]) == 0
        fields = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert float(fields["liouvillian_residual"]) <= 1e-8 * float(kappa) * (float(n_thermal) + 1)

    @pytest.mark.parametrize("args,svd_overflows", [
        # the generator's entries overflow (each s column sums two columns of the complex block),
        # so no SVD is taken
        (["--set", "g_a=1e308"], False),
        # every block is finite, but the SVD overflows inside it and returns inf; a relative
        # nullity threshold of inf would call every direction null
        (["--set", "g_a=8e307", "--set", "g_b=4e307", "--set", "kappa=1e307"], True),
    ], ids=["entries", "singular_values"])
    def test_overflowing_singular_values_are_exit_4(self, args, svd_overflows, tmp_path, capsys, monkeypatch):
        spectra, svd = [], np.linalg.svd

        def recording_svd(a, **kwargs):
            assert np.isfinite(a).all()
            spectra.append(svd(a, **kwargs))
            return spectra[-1]

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        assert main(["steady", *args, "--cutoff", "1", "--out", str(tmp_path / "s.csv")]) == 4
        assert "singular values: a rate or coupling overflows" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert any(not np.isfinite(values).all() for values in spectra) is svd_overflows


class TestSweepCommand:
    def test_single_cell_row(self, tmp_path):
        out = tmp_path / "w.csv"
        args = ["sweep", "--out", str(out), "--axis1", "n_thermal:0.5:0.5:1",
                "--axis2", "time:1:1:1"]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "n_thermal" and fields[2] == "time"

    def test_one_axis_sweep_leaves_axis2_empty(self, tmp_path):
        out = tmp_path / "w.csv"
        args = ["sweep", "--out", str(out), "--axis1", "n_thermal:0:1:2", "--at-time", "0.2"]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "" and lines[1].split(",")[3] == ""

    def test_summary_sidecar_written(self, tmp_path):
        out = tmp_path / "w.csv"
        args = ["sweep", "--out", str(out), "--axis1", "n_thermal:0:1:2",
                "--axis2", "kappa:1:2:2", "--at-time", "0.2", "--workers", "1"]
        assert main(args) == 0
        sidecar = tmp_path / "w.csv.summary.csv"
        assert sidecar.exists()
        lines = sidecar.read_text().splitlines()
        assert lines[0].startswith("fixed_value,argmax_value,max_concurrence")
        assert len(lines) == 3

    def test_summary_sidecar_tokens(self, tmp_path):
        # the CLI starts from |g,g,0>, where every cell is separable, so every
        # row has no argmax; with time as an axis there is no product either
        grid = ["--axis1", "n_thermal:0:1:3", "--axis2", "time:0:0.2:3", "--workers", "1"]
        assert main(["sweep", "--out", str(tmp_path / "w.csv"), *grid]) == 0
        sidecar = (tmp_path / "w.csv.summary.csv").read_text()
        assert sidecar == SUMMARY_HEADER + "\n0,none,0,false,\n0.5,none,0,false,\n1,none,0,false,\n"
        assert main(["sweep", "--out", str(tmp_path / "w.json"), "--format", "json", *grid]) == 0
        rows = json.loads((tmp_path / "w.json.summary.json").read_text())["rows"]
        assert rows[1] == {"fixed_value": 0.5, "argmax_value": None, "max_concurrence": 0.0,
                           "interior": False, "product_at_argmax": None}

    ROWS = [
        SummaryRow(0.0, None, 0.0, False, None),
        SummaryRow(1.0, 1.5, 0.25, True, 1.5),
        SummaryRow(2.0, 0.3, 0.125, False, None),
    ]

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            ("csv", SUMMARY_HEADER + "\n0,none,0,false,\n1,1.5,0.25,true,1.5\n2,0.3,0.125,false,\n"),
            ("json", json.dumps({"rows": [
                {"fixed_value": 0.0, "argmax_value": None, "max_concurrence": 0.0,
                 "interior": False, "product_at_argmax": None},
                {"fixed_value": 1.0, "argmax_value": 1.5, "max_concurrence": 0.25,
                 "interior": True, "product_at_argmax": 1.5},
                {"fixed_value": 2.0, "argmax_value": 0.3, "max_concurrence": 0.125,
                 "interior": False, "product_at_argmax": None},
            ]}, indent=2) + "\n"),
        ],
    )
    def test_summary_sidecar_format(self, fmt, expected, tmp_path, monkeypatch):
        # rows with a maximum cannot come from a CLI run (see above), so they are injected
        monkeypatch.setattr(noisycav.cli, "resonance_summary", lambda result: self.ROWS)
        out = tmp_path / f"w.{fmt}"
        args = ["sweep", "--out", str(out), "--format", fmt, "--axis1", "n_thermal:0:1:2",
                "--axis2", "kappa:1:2:2", "--at-time", "0.05", "--workers", "1"]
        assert main(args) == 0
        assert (tmp_path / f"w.{fmt}.summary.{fmt}").read_text() == expected

    def test_preset_fig2_small(self, tmp_path):
        out = tmp_path / "w.csv"
        args = ["sweep", "--out", str(out), "--preset", "fig2", "--points", "3",
                "--set", "dt=0.004", "--workers", "2"]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 9
        for line in lines[1:]:
            fields = line.split(",")
            assert 0.0 <= float(fields[4]) <= 1.0  # concurrence
            assert float(fields[6]) <= 1e-8  # trace residual
            if float(fields[1]) == 0.0:  # the n_T = 0 rows are identically dark
                assert float(fields[4]) == 0.0

    @pytest.mark.parametrize("preset,axis2", [("fig3", "kappa"), ("fig4", "gamma")])
    def test_presets_at_half_period(self, tmp_path, preset, axis2):
        out = tmp_path / "w.csv"
        args = ["sweep", "--out", str(out), "--preset", preset, "--points", "2",
                "--set", "dt=0.004"]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4
        assert all(line.split(",")[2] == axis2 for line in lines[1:])
        if preset == "fig3":
            assert all(float(line.split(",")[3]) > 0.0 for line in lines[1:])

    def test_sweep_requires_axes_or_preset(self):
        assert main(["sweep"]) == 2

    def test_malformed_axis_is_exit_2(self):
        assert main(["sweep", "--axis1", "n_thermal:0:1"]) == 2
        assert main(["sweep", "--axis1", "n_thermal:0:1:0"]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--preset", "fig3", "--points", "0"],
            ["--preset", "fig3", "--set", "g_a=0", "--set", "g_b=0"],
            ["--axis1", "n_thermal:0:1:2", "--set", "g_a=0", "--set", "g_b=0"],
        ],
    )
    def test_sweep_spec_errors_are_exit_2(self, args, capsys):
        assert main(["sweep", *args]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args", [["--preset", "fig3", "--points", "-2"], ["--axis1", "n_thermal:0:1:2", "--points", "3"]]
    )
    def test_points_errors_name_points(self, args, capsys):
        assert main(["sweep", *args]) == 2
        assert "--points" in capsys.readouterr().err

    def test_default_sweep_starts_no_pool(self, tmp_path, recording_pool):
        # a pool is opt-in: forked workers with full BLAS thread pools oversubscribe the CPU
        sizes, _ = recording_pool
        args = ["sweep", "--out", str(tmp_path / "w.csv"), "--axis1", "n_thermal:0:1:3",
                "--at-time", "0.05", "--cutoff", "2"]
        assert main(args) == 0
        assert sizes == []

    def test_json_records_mirror_csv(self, tmp_path):
        base = ["sweep", "--axis1", "n_thermal:0:1:2", "--at-time", "0.2"]
        csv_out = tmp_path / "w.csv"
        json_out = tmp_path / "w.json"
        assert main([*base, "--out", str(csv_out)]) == 0
        assert main([*base, "--out", str(json_out), "--format", "json"]) == 0
        records = json.loads(json_out.read_text())["records"]
        lines = csv_out.read_text().splitlines()[1:]
        assert len(records) == len(lines)
        for rec, line in zip(records, lines):
            fields = line.split(",")
            assert rec["axis1_name"] == fields[0]
            assert rec["axis2_name"] is None
            assert float(fields[4]) == pytest.approx(rec["concurrence"], abs=1e-12)

    def test_deterministic_across_worker_counts(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--axis1", "n_thermal:0:1:2", "--axis2", "kappa:1:2:2", "--at-time", "0.2"]
        assert main(["sweep", "--out", str(a), "--workers", "1", *args]) == 0
        assert main(["sweep", "--out", str(b), "--workers", "2", *args]) == 0
        assert a.read_bytes() == b.read_bytes()


SMALL_GRID = ["--axis1", "n_thermal:0:1:2", "--axis2", "kappa:1:2:2", "--at-time", "0.05"]


@pytest.mark.parametrize("args,table,key,header,hidden", [
    # a `SweepCell` carries more fields than the table shows
    (["evolve", "--set", "t_max=0.2", "--set", "n_thermal=0.4"], "", "records", EVOLVE_HEADER,
     {"min_eigenvalue", "top_fock_pop"}),
    (["sweep", *SMALL_GRID], "", "records", SWEEP_HEADER,
     {"margin", "p_ee_a", "min_eigenvalue", "mode_b_pop", "top_fock_pop"}),
    (["sweep", *SMALL_GRID], ".summary.json", "rows", SUMMARY_HEADER, set()),
], ids=["evolve", "sweep", "summary"])
def test_json_keys_are_the_header(args, table, key, header, hidden, tmp_path):
    out = tmp_path / "t.json"
    assert main([*args, "--cutoff", "2", "--format", "json", "--out", str(out)]) == 0
    records = json.loads((tmp_path / f"t.json{table}").read_text())[key]
    assert records and all(list(rec) == header.split(",") and not hidden & set(rec) for rec in records)


@pytest.mark.parametrize(
    "args",
    [
        ["evolve", "--set", "kappa=nan"],
        ["evolve", "--set", "dt=nan"],
        ["evolve", "--set", "t_max=inf"],
        ["evolve", "--set", "n_thermal=inf"],
        ["steady", "--set", "gamma=nan"],
        ["sweep", "--axis1", "n_thermal:nan:1:2", "--at-time", "0.1"],
        ["sweep", "--axis1", "n_thermal:0:inf:2", "--at-time", "0.1"],
        ["sweep", "--axis1", "n_thermal:0:1:2", "--at-time", "nan"],
        ["sweep", "--axis1", "n_thermal:0:1:2", "--at-time", "inf"],
        ["sweep", "--axis1", "n_thermal:0:1:2", "--at-time", "0.1", "--workers", "0"],
        ["sweep", "--axis1", "n_thermal:0:1:2", "--at-time", "0.1", "--workers", "-3"],
        ["sweep", "--preset", "fig3", "--at-time", "0.05"],
        ["sweep", "--preset", "fig3", "--axis1", "gamma:0:1:3"],
        ["sweep", "--preset", "fig3", "--axis2", "gamma:0:1:3"],
        ["sweep", "--axis1", "n_thermal:0:1:2", "--axis2", "time:0:1:2", "--at-time", "0.1"],
        ["evolve", "--set", "omega=7"],
        ["sweep", "--preset", "fig3", "--points", "-2"],
        ["sweep", "--axis1", "n_thermal:0:1:2", "--at-time", "0.05", "--cutoff", "2", "--points", "3"],
        ["evolve", "--set", "t_max=1e308", "--cutoff", "1"],  # the step count overflows
    ],
)
def test_invalid_values_are_exit_2(args, tmp_path, monkeypatch, capsys, recwarn):
    monkeypatch.chdir(tmp_path)  # a run that slipped through would write here
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not list(tmp_path.iterdir())
    assert not recwarn.list  # rejected before numpy sees the value


@pytest.mark.parametrize("args,message", [
    (["steady", "--set", "kappa"], "--set expects KEY=VALUE, got 'kappa'"),
    (["sweep", "--axis1", "n_thermal:0:1:2", "--at-time", "0"],
     "evaluation_time must be positive when time is not a sweep axis"),
    (["evolve", "--set", "dt=0"], "dt must be positive, got 0.0"),
    (["evolve", "--set", "dt=-0.01"], "dt must be positive, got -0.01"),
    (["evolve", "--set", "dt=10"], "dt=10.0 exceeds t_max=5.0"),
    (["evolve", "--set", "n_thermal=-1"], "n_thermal must be nonnegative, got -1.0"),
    (["evolve", "--set", "record_stride=0"], "record_stride must be a positive integer, got 0"),
], ids=["set-without-value", "zero-evaluation-time", "zero-dt", "negative-dt", "dt-above-t_max",
        "negative-noise", "zero-record-stride"])
def test_rejections_name_the_fault(args, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_readme_documents_the_table_headers():
    # README's output schemas name the `evolve`, `sweep` and summary headers in that order
    readme = (ROOT / "README.md").read_text()
    assert re.findall(r"CSV header\s+`([^`]+)`", readme) == [EVOLVE_HEADER, SWEEP_HEADER, SUMMARY_HEADER]


def test_readme_figure_commands(tmp_path, monkeypatch, capsys):
    # README's "Reproduce the figures" commands, one per preset, run through `python -m noisycav`
    # on a small grid, give the files and notes of `main` run in this process with the same arguments
    commands = [shlex.split(line) for line in (ROOT / "README.md").read_text().splitlines()
                if line.startswith("python -m noisycav sweep --preset ")]
    assert [cmd[5] for cmd in commands] == list(PRESETS)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    small = ["--points", "2", "--cutoff", "2"]
    monkeypatch.chdir(tmp_path)
    Path("results").mkdir()
    for cmd in commands:
        run = subprocess.run([sys.executable, *cmd[1:], *small], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        args = cmd[3:]
        out = args[args.index("--out") + 1]
        args[args.index("--out") + 1] = "in_process.csv"
        assert main([*args, *small]) == 0
        assert (run.stdout, run.stderr) == capsys.readouterr()
        for tail in ("", ".summary.csv"):
            assert Path(f"{out}{tail}").read_bytes() == Path(f"in_process.csv{tail}").read_bytes()


def test_readme_margin_map_loop(tmp_path, monkeypatch, capsys):
    # README's noise x time map, its shell loop over `--set n_thermal=...` run by the shell on a
    # small grid, writes one `evolve` table per noise value, each that of `main` run in this process;
    # the margin is 0 without noise and at or below 0, somewhere below, with it
    loops = [line.strip() for line in (ROOT / "README.md").read_text().splitlines()
             if line.strip().startswith("for n in ")]
    assert len(loops) == 1
    noises = loops[0].removeprefix("for n in ").split(";")[0].split()
    assert noises[0] == "0" and len(noises) > 2
    small = ["--cutoff", "2", "--set", "t_max=0.2"]
    loop = loops[0].replace(" --out ", f" {shlex.join(small)} --out ")
    monkeypatch.chdir(tmp_path)
    run = subprocess.run(["bash", "-c", loop], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"margin_{n}.csv" for n in noises)
    for n in noises:
        assert main(["evolve", "--set", f"n_thermal={n}", *small, "--out", "in_process.csv"]) == 0
        table = Path(f"margin_{n}.csv").read_text()
        assert table == Path("in_process.csv").read_text()
        margins = [float(row["margin"]) for row in csv.DictReader(table.splitlines())]
        if n == "0":
            assert all(m == 0.0 for m in margins)
        else:
            assert max(margins) <= 0.0 and min(margins) < 0.0
    assert run.stderr == capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["evolve", "--set", "t_max=0.004"],
    ["steady"],
    ["steady", "--cavity-only", "--format", "json"],
    ["sweep", "--axis1", "n_thermal:0:1:2", "--axis2", "kappa:1:2:2", "--at-time", "0.004"],
])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_output_is_exit_2(command, target, tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv" if target == "missing" else tmp_path
    assert main([*command, "--cutoff", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out}: ")
    assert not list(tmp_path.iterdir())
