from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import noisycav.sweep
from noisycav.dynamics import (
    IntegratorError,
    IntegratorSettings,
    SectorBlocks,
    _evolved_entries,
    evolve,
)
from noisycav.entanglement import concurrence
from noisycav.model import ATOM_A, ATOM_B, SystemConfig, build_model, ground_state, standard_observables
from noisycav.qops import basis_state
from noisycav.sweep import (
    SweepAxis,
    SweepCell,
    SweepResult,
    SweepSpec,
    bright_mode_half_period,
    preset_spec,
    product_spread,
    resonance_summary,
    run_sweep,
)
from noisycav.sweep import _RateComponents

from conftest import has_interior_extremum

FAST = IntegratorSettings(dt=0.004, t_max=5.0)


def small_spec(**overrides):
    base = dict(
        base=SystemConfig(),
        axis1=SweepAxis("n_thermal", (0.0, 0.5, 1.0)),
        axis2=SweepAxis("time", (0.1, 0.3)),
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            SweepAxis("coupling", (0.0, 1.0))

    def test_values_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            SweepAxis("kappa", (1.0, 0.5))

    @pytest.mark.parametrize("values,message", [
        ((), "axis gamma has no values"),
        ((-0.5, 1.0), "axis gamma values must be nonnegative"),
    ], ids=["empty", "negative"])
    def test_values_must_be_given_and_nonnegative(self, values, message):
        with pytest.raises(ValueError, match=message):
            SweepAxis("gamma", values)

    def test_axes_must_differ(self):
        with pytest.raises(ValueError, match="distinct"):
            small_spec(axis2=SweepAxis("n_thermal", (0.0, 1.0)))

    @pytest.mark.parametrize("parameter", ["n_thermal", "time"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_values_must_be_finite(self, parameter, bad):
        with pytest.raises(ValueError, match=f"axis {parameter} values must be finite"):
            SweepAxis(parameter, (0.0, bad))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_evaluation_time_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="evaluation_time must be finite"):
            SweepSpec(base=SystemConfig(), axis1=SweepAxis("kappa", (1.0,)), evaluation_time=bad)

    def test_evaluation_time_required_without_time_axis(self):
        # required, and 1/(2g) when not given; with a time axis none may be given
        spec = SweepSpec(
            base=SystemConfig(g_a=0.6, g_b=0.8),
            axis1=SweepAxis("n_thermal", (0.0, 1.0)),
            axis2=SweepAxis("kappa", (1.0, 2.0)),
        )
        assert spec.evaluation_time == spec.times[0] == 0.5
        assert small_spec().evaluation_time is None
        assert small_spec().times == [0.1, 0.3]
        with pytest.raises(ValueError, match="evaluation time does not apply"):
            small_spec(evaluation_time=0.2)

    def test_half_period(self):
        assert bright_mode_half_period(SystemConfig()) == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)))
        with pytest.raises(ValueError):
            bright_mode_half_period(SystemConfig(g_a=0.0, g_b=0.0))


class TestRunSweep:
    def test_single_cell(self):
        spec = SweepSpec(
            base=SystemConfig(),
            axis1=SweepAxis("n_thermal", (0.5,)),
            axis2=None,
            evaluation_time=0.2,
        )
        result = run_sweep(spec, FAST)
        assert result.shape == (1, 1)
        cell = result.cells[0][0]
        assert cell.axis1_value == 0.5
        assert cell.axis2_value is None
        assert cell.trace_residual <= 1e-8

    def test_grid_shape_and_axis_values(self):
        result = run_sweep(small_spec(), FAST)
        assert result.shape == (3, 2)
        assert result.cells[2][1].axis1_value == 1.0
        assert result.cells[2][1].axis2_value == 0.3

    def test_zero_noise_column_is_dark(self):
        result = run_sweep(small_spec(), FAST)
        for cell in result.cells[0]:
            assert cell.concurrence <= 1e-10
            assert cell.mean_photon <= 1e-10

    def test_concurrence_is_the_clamped_margin(self):
        cells = [cell for row in run_sweep(small_spec(), FAST).cells for cell in row]
        assert all(cell.concurrence == min(max(cell.margin, 0.0), 1.0) for cell in cells)
        assert any(cell.margin < 0 for cell in cells)  # unclamped: it says how far from entangled

    def test_deterministic(self):
        r1 = run_sweep(small_spec(), FAST)
        r2 = run_sweep(small_spec(), FAST)
        assert np.array_equal(r1.concurrence_grid(), r2.concurrence_grid())
        for row1, row2 in zip(r1.cells, r2.cells):
            for c1, c2 in zip(row1, row2):
                assert c1 == c2

    def test_workers_do_not_change_results(self):
        serial = run_sweep(small_spec(), FAST, workers=1)
        parallel = run_sweep(small_spec(), FAST, workers=2)
        for row1, row2 in zip(serial.cells, parallel.cells):
            for c1, c2 in zip(row1, row2):
                assert c1 == c2

    # ids: workers-stacks-pool size, as when each task was one cell, then the cases with larger stacks
    @pytest.mark.parametrize("workers,n_cells,per_stack,pool_size,chunk", [
        pytest.param(5000, 2, 1, 2, 1, id="5000-2-2"),  # two stacks of one cell
        pytest.param(2, 3, 1, 2, 2, id="2-3-2"),  # three stacks over two workers
        pytest.param(4, 1, 1, None, None, id="4-1-None"),  # one stack: no pool
        pytest.param(1, 3, 1, None, None, id="1-3-None"),  # one worker: no pool
        pytest.param(5000, 5, 2, 3, 1, id="stacks_of_2-5000"),  # stacks of 2, 2 and 1
        pytest.param(2, 5, 2, 2, 2, id="stacks_of_2-2"),
        # the default budget takes the three cells of 14 coordinates in one stack
        pytest.param(4, 3, None, None, None, id="default_budget-4"),
    ])
    def test_pool_is_bounded_by_the_tasks(self, workers, n_cells, per_stack, pool_size, chunk, recording_pool,
                                          monkeypatch):
        # the pool's tasks are the stacks: per_stack cells fit the budget, one more does not
        sizes, chunks = recording_pool
        spec = SweepSpec(
            base=SystemConfig(cutoff=1),
            axis1=SweepAxis("n_thermal", tuple(0.5 * k for k in range(n_cells))),
            evaluation_time=0.02,
        )
        if per_stack is not None:
            one = _RateComponents.build(spec.base, spec.initial_density_matrix()).stack[0].nbytes
            monkeypatch.setattr(noisycav.sweep, "STACK_BYTES", (per_stack + 1) * one - 1)
        result = run_sweep(spec, FAST, workers=workers)
        assert result.shape == (n_cells, 1)
        assert sizes == ([] if pool_size is None else [pool_size])
        # one chunk per worker, so the shared components are pickled once per worker
        assert chunks == ([] if pool_size is None else [chunk])

    def test_time_axis_batching_matches_independent_cells(self):
        # one trajectory sampled at several times must equal separate
        # evolutions to each time: cells are order-independent
        base = SystemConfig(n_thermal=0.6)
        spec = SweepSpec(
            base=base,
            axis1=SweepAxis("time", (0.1, 0.25, 0.4)),
            axis2=None,
        )
        result = run_sweep(spec, FAST)
        for i, t in enumerate(spec.axis1.values):
            traj = evolve(build_model(base), ground_state(base), FAST, record_times=[t],
                          reduce_to=(ATOM_A, ATOM_B))
            expected = concurrence(traj.states[-1]).value
            assert result.cells[i][0].concurrence == pytest.approx(expected, abs=1e-12)

    def test_two_parameter_grid(self):
        spec = SweepSpec(
            base=SystemConfig(),
            axis1=SweepAxis("n_thermal", (0.2, 0.8)),
            axis2=SweepAxis("kappa", (1.0, 3.0)),
            evaluation_time=0.2,
        )
        result = run_sweep(spec, FAST)
        assert result.shape == (2, 2)
        assert result.cells[1][0].axis2_value == 1.0

    def test_gamma_axis_overrides_base(self):
        spec = SweepSpec(
            base=SystemConfig(g_a=0.0, g_b=0.0, kappa=0.0, gamma=0.5),
            axis1=SweepAxis("gamma", (0.0, 0.3)),
            axis2=None,
            evaluation_time=1.0,
            initial_state=_excited_state(SystemConfig(cutoff=5)),
        )
        result = run_sweep(spec, FAST)
        # excited populations after t=1 pin the per-cell gamma: exp(-2*gamma)
        assert result.cells[0][0].p_ee_a == pytest.approx(1.0, abs=1e-9)
        assert result.cells[1][0].p_ee_a == pytest.approx(np.exp(-0.6), rel=1e-6)

    def test_no_dark_mode_population_without_coupling(self):
        # g = 0 has no collective modes, so `standard_observables` has no mode_b_pop to record
        cells = run_sweep(small_spec(base=SystemConfig(g_a=0.0, g_b=0.0, cutoff=2)), FAST).cells
        assert all(cell.mode_b_pop is None for row in cells for cell in row)
        assert all(cell.mode_b_pop is not None for row in run_sweep(small_spec(), FAST).cells for cell in row)

    def test_integrator_errors_carry_cell_coordinates(self):
        spec = SweepSpec(
            base=SystemConfig(n_thermal=2.0),
            axis1=SweepAxis("kappa", (4.0,)),
            axis2=None,
            evaluation_time=2.0,
        )
        bad = IntegratorSettings(dt=0.5, t_max=2.0)
        with pytest.raises(IntegratorError, match="kappa=4"):
            run_sweep(spec, bad)

    def test_custom_initial_state_validated(self):
        with pytest.raises(ValueError):
            small_spec(initial_state=np.eye(24, dtype=complex))  # trace 24
        with pytest.raises(ValueError, match=r"initial_state shape \(\) does not match"):
            small_spec(initial_state="excited")  # a name, not a matrix
        with pytest.raises(ValueError, match=r"^density matrix has non-finite entries$"):
            small_spec(initial_state=np.full((24, 24), np.nan, dtype=complex))

    @pytest.mark.parametrize("cutoff", [4, 6])
    def test_initial_state_shape_must_match_the_base_layout(self, cutoff):
        # a valid density matrix of another cutoff: 20 x 20 or 28 x 28 against the base's 24 x 24
        rho0 = ground_state(SystemConfig(cutoff=cutoff))
        d = rho0.shape[0]
        with pytest.raises(ValueError, match=rf"shape \({d}, {d}\) does not match .* \(24, 24\)"):
            small_spec(initial_state=rho0)


def _excited_state(cfg):
    d = cfg.layout.dim
    rho = np.zeros((d, d), dtype=complex)
    idx = 3 * (cfg.cutoff + 1)
    rho[idx, idx] = 1.0
    return rho


def synthetic_result(grid, axis1_values, axis2_values, params=("n_thermal", "kappa")):
    spec = SweepSpec(
        base=SystemConfig(),
        axis1=SweepAxis(params[0], tuple(axis1_values)),
        axis2=SweepAxis(params[1], tuple(axis2_values)),
        evaluation_time=None if "time" in params else 1.0,
    )
    cells = [
        [
            SweepCell(a1, a2, grid[i][j], grid[i][j], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            for j, a2 in enumerate(axis2_values)
        ]
        for i, a1 in enumerate(axis1_values)
    ]
    return SweepResult(spec=spec, cells=cells)


def _superposition_state(cfg):
    """(|g,g,0> + |e,g,0>)/sqrt(2): the q = 0 sector and the coherences in q = +1 and -1."""
    ket = (basis_state(cfg.layout.dim, 0) + basis_state(cfg.layout.dim, 2 * (cfg.cutoff + 1))) / np.sqrt(2.0)
    return np.outer(ket, ket.conj())


# the observables `_independent_cell` compares
OBSERVED = ("mean_photon", "p_ee_a", "p_ee_b", "mode_b_pop", "top_fock_pop")


def _independent_cell(cfg, rho0, times):
    """A trajectory's concurrence, `OBSERVED` values, trace residual and smallest eigenvalue per time."""
    traj = evolve(build_model(cfg), rho0, FAST, record_times=times, observables=standard_observables(cfg),
                  reduce_to=(ATOM_A, ATOM_B))
    return [
        (concurrence(atoms).value, *(traj.observables[name][i] for name in OBSERVED),
         traj.trace_residuals[i], traj.min_eigenvalues[i])
        for i, atoms in enumerate(traj.states)
    ]


GENERATOR_SPECS = {
    "fig3": lambda base: SweepSpec(base=base, axis1=SweepAxis("n_thermal", (0.0, 0.7, 1.5)),
                                   axis2=SweepAxis("kappa", (0.5, 2.0, 4.0)), evaluation_time=0.2),
    "fig4": lambda base: SweepSpec(base=base, axis1=SweepAxis("n_thermal", (0.0, 1.0)),
                                   axis2=SweepAxis("gamma", (0.0, 0.4, 1.0)), evaluation_time=0.2),
    "time_axis": lambda base: SweepSpec(base=base, axis1=SweepAxis("gamma", (0.0, 0.5)),
                                        axis2=SweepAxis("time", (0.0, 0.1, 0.25))),
    # a start with coherences in q = +1 and -1, evolved with them
    "superposition": lambda base: SweepSpec(base=base, axis1=SweepAxis("n_thermal", (0.0, 0.7, 1.5)),
                                            axis2=SweepAxis("time", (0.0, 0.1, 0.25)),
                                            initial_state=_superposition_state(base)),
}


class TestRateComponents:
    """The per-sweep generator, re-weighted per cell, against a model built per cell."""

    @pytest.mark.parametrize("parameter,values", [
        ("n_thermal", (0.0, 0.4, 2.5)),
        ("kappa", (0.0, 0.3, 5.0)),
        ("gamma", (0.0, 0.2, 1.0)),
    ])
    @pytest.mark.parametrize("start", ["ground", "excited", "superposition"])
    def test_cell_blocks_match_a_model_per_cell(self, parameter, values, start):
        base = SystemConfig(cutoff=3, n_thermal=0.5, g_a=0.8, g_b=1.3)
        cells = [replace(base, **{parameter: v}) for v in values]
        starts = {"ground": ground_state, "excited": _excited_state, "superposition": _superposition_state}
        rho0 = starts[start](base)
        components = _RateComponents.build(base, rho0)
        # the entries `evolve` picks from rho0 for a model of the sweep's own
        rows, cols = _evolved_entries(build_model(base), rho0)
        assert np.array_equal(components.generator.rows, rows) and np.array_equal(components.generator.cols, cols)
        stack = components.at(cells)
        assert stack.mirror is components.generator.mirror  # computed once per sweep, not per cell
        assert stack.block.shape == (len(cells),) + components.generator.block.shape
        for cfg, got in zip(cells, stack.block):
            expected = SectorBlocks.of(build_model(cfg), stack.rows, stack.cols, rho0).block
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
            assert np.array_equal(components.at([cfg]).block[0], got)  # whatever stack it is in

    def test_a_cell_block_does_not_depend_on_its_stack(self, rng):
        # random parts, so that summing the weighted parts in another order shows in the last bits
        base = SystemConfig(cutoff=2)
        components = _RateComponents.build(base, ground_state(base))
        components = _RateComponents(components.generator, rng.standard_normal(components.stack.shape))
        cells = [replace(base, n_thermal=0.1 + 0.3 * k, kappa=1.7 - 0.2 * k, gamma=0.05 * k) for k in range(6)]
        stack = components.at(cells).block
        for k, cfg in enumerate(cells):
            assert np.array_equal(components.at([cfg]).block[0], stack[k])
            assert np.array_equal(components.at(cells[k:k + 2]).block[0], stack[k])

    @staticmethod
    def assert_cells_match_independent_evolutions(spec, workers):
        result = run_sweep(spec, FAST, workers=workers)
        rho0 = spec.initial_density_matrix()
        time_axis = [axis for axis in (spec.axis1, spec.axis2) if axis.parameter == "time"]
        times = list(time_axis[0].values) if time_axis else [spec.evaluation_time]
        for i, j in product(range(len(spec.axis1)), range(len(spec.axis2))):
            index = {axis.parameter: (axis, k) for axis, k in zip((spec.axis1, spec.axis2), (i, j))}
            _, r = index.pop("time", (None, 0))
            cfg = replace(spec.base, **{name: axis.values[k] for name, (axis, k) in index.items()})
            expected = _independent_cell(cfg, rho0, times)[r]
            cell = result.cells[i][j]
            got = (cell.concurrence, *(getattr(cell, name) for name in OBSERVED), cell.trace_residual,
                   cell.min_eigenvalue)
            assert np.abs(np.subtract(got, expected)).max() <= 1e-12, (i, j)

    @pytest.mark.parametrize("case", sorted(GENERATOR_SPECS))
    def test_cells_match_independent_evolutions(self, case, monkeypatch):
        built = []  # a sweep builds its model once, whatever its grid
        monkeypatch.setattr(noisycav.sweep, "build_model", lambda cfg: built.append(cfg) or build_model(cfg))
        spec = GENERATOR_SPECS[case](SystemConfig(cutoff=3, gamma=0.3, g_a=0.8, g_b=1.3))
        self.assert_cells_match_independent_evolutions(spec, workers=1)
        assert built == [spec.base]

    def test_pooled_cells_match_independent_evolutions(self):
        spec = GENERATOR_SPECS["fig3"](SystemConfig(cutoff=3, gamma=0.3))
        self.assert_cells_match_independent_evolutions(spec, workers=2)


class TestResonanceSummary:
    def test_single_peaked_cell(self):
        grid = np.zeros((3, 4))
        grid[1][2] = 0.7
        result = synthetic_result(grid, (0.1, 0.2, 0.3), (1.0, 2.0, 3.0, 4.0))
        rows = resonance_summary(result)
        assert rows[1].argmax_value == 3.0
        assert rows[1].max_concurrence == 0.7
        assert rows[1].interior

    def test_zero_row_flagged_none(self):
        grid = np.zeros((2, 3))
        grid[1][0] = 0.4
        result = synthetic_result(grid, (0.1, 0.2), (1.0, 2.0, 3.0))
        rows = resonance_summary(result)
        assert rows[0].argmax_value is None
        assert rows[0].max_concurrence == 0.0
        assert not rows[0].interior
        assert not rows[1].interior  # endpoint maximum

    def test_product_at_argmax(self):
        grid = [[0.0, 0.5, 0.1]]
        result = synthetic_result(grid, (2.0,), (1.0, 2.0, 3.0))
        rows = resonance_summary(result)
        assert rows[0].product_at_argmax == pytest.approx(4.0)
        mean, rel = product_spread(rows)
        assert mean == pytest.approx(4.0)
        assert rel == 0.0

    def test_zero_products_have_no_spread(self):
        # maxima on the n_T = 0 row only: every product is 0, and the spread is 0 rather than 0/0
        result = synthetic_result([[0.0, 0.5, 0.1]], (0.0,), (1.0, 2.0, 3.0))
        assert product_spread(resonance_summary(result)) == (0.0, 0.0)

    def test_requires_two_axes(self):
        spec = SweepSpec(
            base=SystemConfig(),
            axis1=SweepAxis("n_thermal", (0.1,)),
            axis2=None,
            evaluation_time=1.0,
        )
        result = SweepResult(spec=spec, cells=[[SweepCell(0.1, None, 0.0, 0.0, 0, 0, 0, 0, 0, 0)]])
        with pytest.raises(ValueError):
            resonance_summary(result)

    def test_no_products_for_time_axis(self):
        grid = [[0.0, 0.2]]
        result = synthetic_result(grid, (0.5,), (1.0, 2.0), params=("n_thermal", "time"))
        rows = resonance_summary(result)
        assert rows[0].product_at_argmax is None
        assert product_spread(rows) is None


class TestInteriorExtremum:
    def test_monotone_series_has_none(self):
        assert not has_interior_extremum([0.0, 0.1, 0.2, 0.3])
        assert not has_interior_extremum([0.3, 0.2, 0.1, 0.0])
        assert not has_interior_extremum([0.0, 0.0, 0.0])

    def test_peak_detected(self):
        assert has_interior_extremum([0.0, 0.5, 0.0])
        assert has_interior_extremum([0.5, 0.0, 0.5])

    def test_noise_band_tolerated(self):
        assert not has_interior_extremum([0.1, 0.1 + 5e-7, 0.1])
        assert has_interior_extremum([0.1, 0.1 + 5e-7, 0.1], band=1e-8)


class TestPresets:
    def test_fig2_axes(self):
        spec = preset_spec("fig2", SystemConfig(), points=11)
        assert spec.axis1.parameter == "n_thermal"
        assert spec.axis2.parameter == "time"
        assert spec.axis1.values[0] == 0.0 and spec.axis1.values[-1] == 3.0
        assert spec.axis2.values[-1] == 5.0

    def test_fig3_axes_exclude_zero_kappa(self):
        spec = preset_spec("fig3", SystemConfig(), points=10)
        assert spec.axis2.parameter == "kappa"
        assert spec.axis2.values[0] > 0.0
        assert spec.axis2.values[-1] == 5.0
        assert spec.evaluation_time == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)))

    def test_fig4_axes(self):
        spec = preset_spec("fig4", SystemConfig(), points=5)
        assert spec.axis2.parameter == "gamma"
        assert spec.axis2.values == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_spec("fig9", SystemConfig())
