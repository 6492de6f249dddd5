import json

import numpy as np
import pytest

import noisycav.cli
from noisycav.cli import (
    EVOLVE_HEADER,
    SUMMARY_HEADER,
    SWEEP_HEADER,
    ConfigError,
    main,
    parse_config,
)
from noisycav.sweep import SummaryRow


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.system.omega == 1.0 and cfg.system.omega_f == 1.0
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

    @pytest.mark.parametrize("key", ["omega", "g_a", "kappa", "gamma", "n_thermal", "dt", "t_max", "tolerance"])
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
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[1]) == 0.0  # concurrence
            assert float(fields[6]) <= 1e-8  # trace residual

    def test_thermal_drive_populates_bus_but_not_concurrence(self, tmp_path):
        # oracle-computed truth: thermal photon bunching feeds the doubly
        # excited state fast enough that the atoms stay separable even while
        # the bus is demonstrably active (mean photon number grows)
        out = tmp_path / "e.csv"
        assert main(["evolve", "--out", str(out), "--set", "n_thermal=0.5", "--set", "t_max=1"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert max(float(r[4]) for r in rows) > 0.1  # mean photon
        assert all(float(r[1]) == 0.0 for r in rows)  # concurrence

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
        records = payload["records"]
        assert list(records[0]) == EVOLVE_HEADER.split(",")
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

    def test_unstable_step_is_exit_3(self, tmp_path):
        out = tmp_path / "e.csv"
        args = ["evolve", "--out", str(out), "--set", "dt=0.5", "--set", "t_max=5",
                "--set", "n_thermal=2"]
        assert main(args) == 3

    def test_mode_b_column_nan_without_coupling(self, tmp_path):
        out = tmp_path / "e.csv"
        args = ["evolve", "--out", str(out), "--set", "g_a=0", "--set", "g_b=0",
                "--set", "t_max=0.1"]
        assert main(args) == 0
        fields = out.read_text().splitlines()[1].split(",")
        assert fields[5] == "nan"


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

    def test_no_dissipation_is_exit_4(self):
        assert main(["steady", "--set", "kappa=0", "--set", "gamma=0"]) == 4


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
    ],
)
def test_invalid_values_are_exit_2(args, tmp_path, monkeypatch, capsys, recwarn):
    monkeypatch.chdir(tmp_path)  # a run that slipped through would write here
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not list(tmp_path.iterdir())
    assert not recwarn.list  # rejected before numpy sees the value
