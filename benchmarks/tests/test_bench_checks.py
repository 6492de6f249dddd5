import contextlib
import io
import math

import numpy as np
import pytest

import checks
import noisycav.cli
import oracle
from workloads import WORKLOADS, Workload

SMALL_MAP = Workload("small_map", "sweep", cutoff=2, preset="fig3", points=3, oracle_cells=9)
SMALL_AXIS = Workload("small_axis", "sweep", cutoff=2, preset="fig2", points=3, oracle_cells=9)
SMALL_STEADY = Workload("small_steady", "steady", cutoff=3, n_thermal=0.5)


def run_cli(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        assert noisycav.cli.main(argv) == 0


@pytest.fixture(scope="module", params=[SMALL_MAP, SMALL_AXIS], ids=lambda w: w.name)
def sweep_output(request, tmp_path_factory):
    w, seed = request.param, 7
    out = tmp_path_factory.mktemp(w.name) / "out.csv"
    run_cli(w.argv(seed, str(out)))
    return w, seed, out.read_text(), (out.parent / "out.csv.summary.csv").read_text()


def perturb(csv_text, row, column, delta):
    lines = csv_text.splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_program_output_passes(sweep_output):
    w, seed, table, summary = sweep_output
    assert checks.check_sweep(w, seed, checks.sweep_references(w, seed), table, summary) == {}


@pytest.mark.parametrize("column, delta", [(5, 1e-5), (5, -1e-3), (4, 0.01)], ids=["photon", "photon-", "conc"])
def test_perturbed_cell_fails(sweep_output, column, delta):
    w, seed, table, summary = sweep_output
    bad = perturb(table, 4, column, delta)
    failed = checks.check_sweep(w, seed, checks.sweep_references(w, seed), bad, summary)
    assert (4 // w.points, 4 % w.points) in failed


def test_gate_failure_and_truncated_table(sweep_output):
    w, seed, table, summary = sweep_output
    refs = checks.sweep_references(w, seed)
    assert list(checks.check_sweep(w, seed, refs, perturb(table, 0, 6, 1e-6), summary)) == [(0, 0)]
    truncated = "\n".join(table.splitlines()[:-1]) + "\n"
    assert len(checks.check_sweep(w, seed, refs, truncated, summary)) == w.points**2


def test_wrong_summary_fails_its_row(sweep_output):
    w, seed, table, summary = sweep_output
    lines = summary.splitlines()
    lines[2] = lines[2].replace("false", "true")
    failed = checks.check_sweep(w, seed, checks.sweep_references(w, seed), table, "\n".join(lines) + "\n")
    assert set(failed) == {(1, j) for j in range(w.points)}


def test_steady_output_and_perturbation(tmp_path):
    out = tmp_path / "steady.csv"
    run_cli(SMALL_STEADY.argv(5, str(out)))
    ref = checks.steady_reference(SMALL_STEADY, 5)
    text = out.read_text()
    assert checks.check_steady(SMALL_STEADY, ref, text) is None

    lines = text.splitlines()
    key, value = lines[1].split(",")
    lines[1] = f"{key},{float(value) + 1e-6!r}"
    assert checks.check_steady(SMALL_STEADY, ref, "\n".join(lines)) is not None
    assert checks.check_steady(SMALL_STEADY, ref, text.replace("photon_2", "photon_x")) is not None


def test_oracle_against_closed_forms():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    w, v = np.linalg.eig(3.0 * a)
    assert np.allclose(oracle.expm(3.0 * a), (v * np.exp(w)) @ np.linalg.inv(v), rtol=1e-9, atol=1e-9)

    bell = np.zeros((4, 4))
    bell[np.ix_([1, 2], [1, 2])] = 0.5
    assert oracle.concurrence(bell) == pytest.approx(1.0)
    assert oracle.concurrence(np.diag([1.0, 0, 0, 0])) == 0.0

    # Uncoupled atoms: a thermally damped cavity, <n>(t) = n_T (1 - exp(-2 kappa t)), and
    # a geometric steady state over the truncated Fock space, with both atoms in |g>.
    model = oracle.SectorModel(oracle.Physics(cutoff=6, n_thermal=0.1, kappa=0.7, gamma=0.3, g_a=0.0, g_b=0.0))
    assert model.generator.shape == (1 + 9 + 16 * 5 + 9 + 1,) * 2  # excitation blocks 1, 3, 4 x5, 3, 1
    assert oracle.mean_photon(model.evolve_ground_state(0.8)) == pytest.approx(0.1 * (1 - math.exp(-1.12)), abs=1e-7)
    rho = model.steady_state()
    geometric = (0.1 / 1.1) ** np.arange(7)
    assert np.allclose(oracle.photon_distribution(rho), geometric / geometric.sum(), atol=1e-12)
    assert np.allclose(oracle.reduced_atoms(rho), np.diag([1.0, 0, 0, 0]), atol=1e-12)


def test_seed_zero_runs_the_presets_and_seeds_keep_the_work():
    w = WORKLOADS["fig3_map"]
    assert w.argv(0, "o.csv") == ["sweep", "--preset", "fig3", "--points", "10", "--cutoff", "5",
                                  "--workers", "1", "--out", "o.csv"]
    assert WORKLOADS["steady_cutoff10"].argv(0, "o.csv") == ["steady", "--cutoff", "10", "--out", "o.csv",
                                                             "--set", "n_thermal=0.5"]
    for seed in range(1, 30):
        p = w.physics(seed)
        assert math.hypot(p.g_a, p.g_b) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert 0.15 <= p.gamma <= 0.25 and 0.72 < p.g_b / p.g_a < 1.39
        assert w.argv(seed, "o.csv") == w.argv(seed, "o.csv")
    assert w.argv(1, "o.csv") != w.argv(2, "o.csv")
