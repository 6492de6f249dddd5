"""Parameter sweeps over noise intensity, decay rates and time.

A sweep evaluates the reduced two-atom concurrence (plus photon number,
excited populations and numerical health data) on a rectangular grid of one
or two swept parameters. When one axis is time, each grid column comes from
a single trajectory recorded at the requested times; otherwise every cell is
an independent evolution to the evaluation time. Cells are independent and
may be computed by a process pool; results are keyed by grid coordinates, so
the output does not depend on scheduling order.

No sweepable parameter touches the Hamiltonian or a collapse operator, only
the rates of `model._channels`, so the model is built once per sweep. Sweeps
evolve on the q = 0 sector (their starts have no coherence between different
excitation numbers; `evolve` rejects one that has): its generator is split
into a Hamiltonian block and one unit-rate dissipator block per group of
channels (`_RateComponents`), and each cell's generator is their
rate-weighted sum, handed to `evolve` as `SectorBlocks`.

The figure grids behind the CLI's --preset are the rows of `PRESETS`, each
built by `preset_spec`.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .dynamics import (
    IntegratorError,
    IntegratorSettings,
    SectorBlocks,
    _coherence_sectors,
    _superoperator_block,
    evolve,
)
from .entanglement import concurrence
from .model import (
    ATOM_A,
    ATOM_B,
    LindbladModel,
    SystemConfig,
    _channels,
    build_model,
    ground_state,
    standard_observables,
)
from .qops import SpaceLayout, assert_density_matrix, embed

SWEEPABLE = ("n_thermal", "kappa", "gamma", "time")
RECORDED = ("mean_photon", "p_ee_a", "p_ee_b")  # the observables a SweepCell holds


def bright_mode_half_period(cfg: SystemConfig) -> float:
    """Evaluation time 1/(2 g) with g = sqrt(g_a^2 + g_b^2)."""
    g = cfg.coupling
    if g == 0:
        raise ValueError("evaluation time 1/(2g) undefined for zero coupling")
    return 1.0 / (2.0 * g)


@dataclass(frozen=True)
class SweepAxis:
    parameter: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}; choose from {SWEEPABLE}")
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError(f"axis {self.parameter} has no values")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"axis {self.parameter} values must be finite")
        if any(v2 < v1 for v1, v2 in zip(values, values[1:])):
            raise ValueError(f"axis {self.parameter} values must be ascending")
        if any(v < 0 for v in values):
            raise ValueError(f"axis {self.parameter} values must be nonnegative")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """Grid definition: base config, one or two axes, and the evaluation time."""

    base: SystemConfig
    axis1: SweepAxis
    axis2: SweepAxis | None = None
    evaluation_time: float = 0.0
    initial_state: object = "ground"  # "ground" or a composite density matrix

    def __post_init__(self):
        if self.axis2 is not None and self.axis1.parameter == self.axis2.parameter:
            raise ValueError(f"axis parameters must be distinct, both are {self.axis1.parameter!r}")
        if not math.isfinite(self.evaluation_time):
            raise ValueError(f"evaluation_time must be finite, got {self.evaluation_time}")
        if not self._has_time_axis() and self.evaluation_time <= 0:
            raise ValueError("evaluation_time must be positive when time is not a sweep axis")
        if isinstance(self.initial_state, str):
            if self.initial_state != "ground":
                raise ValueError(f"unknown initial state tag {self.initial_state!r}")
        else:
            assert_density_matrix(np.asarray(self.initial_state))

    def _has_time_axis(self) -> bool:
        return self.axis1.parameter == "time" or (
            self.axis2 is not None and self.axis2.parameter == "time"
        )

    def initial_density_matrix(self) -> np.ndarray:
        if isinstance(self.initial_state, str):
            return ground_state(self.base)
        return np.asarray(self.initial_state, dtype=complex)


@dataclass(frozen=True)
class SweepCell:
    axis1_value: float
    axis2_value: float | None
    concurrence: float
    mean_photon: float
    p_ee_a: float
    p_ee_b: float
    trace_residual: float
    min_eigenvalue: float


@dataclass(eq=False)
class SweepResult:
    spec: SweepSpec
    cells: list[list[SweepCell]]  # shape |axis1| x (|axis2| or 1)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.cells), len(self.cells[0])

    def concurrence_grid(self) -> np.ndarray:
        return np.array([[cell.concurrence for cell in row] for row in self.cells])


@dataclass(frozen=True, eq=False)
class _RateComponents:
    """A sweep's q = 0 generator as a function of the channel rates.

    The block at config cfg is

        stack[0] + sum_g rate_g(cfg) stack[1 + g],

    where stack[0] is the Hamiltonian's block (no collapse terms) and
    stack[1 + g] the block of the `_channels` rows in `groups[g]` at unit rate
    with H = 0: cavity loss, thermal pumping, and the emission of both atoms,
    whose rates agree in every cell.
    """

    layout: SpaceLayout
    rows: np.ndarray
    cols: np.ndarray
    groups: list[list[int]]
    stack: np.ndarray

    @classmethod
    def build(cls, base: SystemConfig, cells: list[SystemConfig]) -> _RateComponents:
        """Components of `build_model(base)` on its q = 0 sector, for the configs `cells`.

        `_channels` rows whose rates are equal in every one of `cells` share a
        group, so a cell's block costs one axpy per group.
        """
        model = build_model(base)
        layout = model.layout
        units = [(1.0, embed(op, slot, layout)) for slot, _, op in _channels(base)]
        rates = np.array([[rate for _, rate, _ in _channels(cfg)] for cfg in cells])
        groups: dict[int, list[int]] = {}  # first row of each group -> its rows
        for k in range(len(units)):
            first = next(j for j in range(k + 1) if np.array_equal(rates[:, j], rates[:, k]))
            groups.setdefault(first, []).append(k)
        # every channel present, so the sector holds for any rates
        rows, cols = _coherence_sectors(LindbladModel(model.hamiltonian, tuple(units), layout))[0]
        zero = np.zeros_like(model.hamiltonian)
        parts = [LindbladModel(model.hamiltonian, (), layout)]
        parts += [LindbladModel(zero, tuple(units[k] for k in group), layout) for group in groups.values()]
        stack = np.stack([_superoperator_block(part, rows, cols) for part in parts])
        return cls(layout, rows, cols, list(groups.values()), stack)

    def at(self, cfg: SystemConfig) -> SectorBlocks:
        rates = [rate for _, rate, _ in _channels(cfg)]
        weights = np.array([1.0] + [rates[group[0]] for group in self.groups])
        return SectorBlocks(self.layout, self.rows, self.cols, np.tensordot(weights, self.stack, axes=1))


def _run_trajectory_task(task):
    """One trajectory, sampled at the requested times.

    Returns one record per time: the `SweepCell` fields after the two axis
    values, in field order. Module-level so process pools can pickle it.
    Integrator failures are re-raised with the offending cell coordinates
    prepended.
    """
    components, cfg, times, rho0, settings, observables, label = task
    try:
        traj = evolve(components.at(cfg), rho0, settings, record_times=times, observables=observables,
                      reduce_to=(ATOM_A, ATOM_B))
    except IntegratorError as err:
        raise type(err)(f"{label}: {err}") from None
    series = traj.observables
    return [
        (concurrence(atoms).value, *(float(series[name][i]) for name in RECORDED),
         float(traj.trace_residuals[i]), float(traj.min_eigenvalues[i]))
        for i, atoms in enumerate(traj.states)
    ]


def run_sweep(spec: SweepSpec, settings: IntegratorSettings, workers: int = 1) -> SweepResult:
    """Evaluate the grid. `workers` > 1 distributes trajectories over at most that many processes."""
    rho0 = spec.initial_density_matrix()
    a1, a2 = spec.axis1, spec.axis2

    # Each task is one trajectory, one per combination of the non-time axis
    # values, recorded along the time axis if there is one; `targets` maps its
    # per-time records to cells.
    axes = (a1,) if a2 is None else (a1, a2)
    times = [spec.evaluation_time]
    for axis in axes:
        if axis.parameter == "time":
            times = list(axis.values)
    pad = (0,) if a2 is None else ()  # a one-axis grid has a single column
    cfgs, labels = [], []
    targets = []  # list of lists of (i, j) aligned with each task's records
    for cell in product(*([None] if axis.parameter == "time" else range(len(axis)) for axis in axes)):
        fixed = {axis.parameter: axis.values[k] for axis, k in zip(axes, cell) if k is not None}
        cfgs.append(replace(spec.base, **fixed))
        labels.append(", ".join(f"{name}={v:g}" for name, v in fixed.items()) or "time column")
        targets.append([tuple(r if k is None else k for k in cell) + pad for r in range(len(times))])
    components = _RateComponents.build(spec.base, cfgs)
    observables = {name: op for name, op in standard_observables(spec.base).items() if name in RECORDED}
    tasks = [(components, cfg, times, rho0, settings, observables, label) for cfg, label in zip(cfgs, labels)]

    workers = min(workers, len(tasks))  # the pool starts all its processes up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # one chunk per worker, pickled as one object: the shared components travel once per worker
            results = list(pool.map(_run_trajectory_task, tasks, chunksize=math.ceil(len(tasks) / workers)))
    else:
        results = [_run_trajectory_task(task) for task in tasks]

    n1 = len(a1)
    n2 = len(a2) if a2 is not None else 1
    grid: list[list[SweepCell | None]] = [[None] * n2 for _ in range(n1)]
    for task_targets, records in zip(targets, results):
        for (i, j), rec in zip(task_targets, records):
            grid[i][j] = SweepCell(a1.values[i], a2.values[j] if a2 is not None else None, *rec)
    return SweepResult(spec=spec, cells=grid)


@dataclass(frozen=True)
class SummaryRow:
    fixed_value: float
    argmax_value: float | None
    max_concurrence: float
    interior: bool
    product_at_argmax: float | None


def resonance_summary(result: SweepResult, swept: str = "axis2") -> list[SummaryRow]:
    """Location and height of the concurrence maximum along one axis.

    With swept="axis2" (default) each row fixes an axis1 value and scans
    axis2; swept="axis1" transposes that. Identically zero slices are flagged
    with argmax None. `interior` is True when the maximum sits strictly
    between the endpoints of the swept axis. `product_at_argmax` is
    fixed * argmax (None for time axes), the quantity that is roughly constant
    along the resonance ridge of a noise-vs-decay map.
    """
    if result.spec.axis2 is None:
        raise ValueError("resonance_summary needs a two-axis sweep")
    if swept not in ("axis1", "axis2"):
        raise ValueError(f"swept must be 'axis1' or 'axis2', got {swept!r}")

    grid = result.concurrence_grid()
    if swept == "axis1":
        grid = grid.T
        fixed_axis, swept_axis = result.spec.axis2, result.spec.axis1
    else:
        fixed_axis, swept_axis = result.spec.axis1, result.spec.axis2

    product_defined = fixed_axis.parameter != "time" and swept_axis.parameter != "time"
    rows = []
    for i, fixed in enumerate(fixed_axis.values):
        series = grid[i]
        k = int(np.argmax(series))
        peak = float(series[k])
        if peak <= 0.0:
            rows.append(SummaryRow(fixed, None, 0.0, False, None))
            continue
        argmax = float(swept_axis.values[k])
        interior = 0 < k < len(swept_axis) - 1
        product = fixed * argmax if product_defined else None
        rows.append(SummaryRow(fixed, argmax, peak, interior, product))
    return rows


def has_interior_extremum(values, band: float = 1e-6) -> bool:
    """True if some interior point is a strict extremum beyond the noise band."""
    v = np.asarray(values, dtype=float)
    for i in range(1, len(v) - 1):
        if v[i] > max(v[i - 1], v[i + 1]) + band:
            return True
        if v[i] < min(v[i - 1], v[i + 1]) - band:
            return True
    return False


def _linspace(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(np.linspace(lo, hi, n))


# The figure presets: noise intensity n_thermal in [0, 3] against one second
# axis, (parameter, its values at n points), evaluated at t = 1/(2g) unless
# that axis is time.
PRESETS = {
    "fig2": ("time", lambda n: _linspace(0.0, 5.0, n)),  # time in [0, 5]
    "fig3": ("kappa", lambda n: tuple(5.0 * k / n for k in range(1, n + 1))),  # cavity decay in (0, 5]
    "fig4": ("gamma", lambda n: _linspace(0.0, 1.0, n)),  # atomic decay in [0, 1]
}


def preset_spec(name: str, base: SystemConfig, points: int = 31) -> SweepSpec:
    """The `PRESETS` grid `name` at `points` values per axis, behind the CLI's --preset."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    parameter, values = PRESETS[name]
    noise, second = SweepAxis("n_thermal", _linspace(0.0, 3.0, points)), SweepAxis(parameter, values(points))
    time = 0.0 if parameter == "time" else bright_mode_half_period(base)
    return SweepSpec(base=base, axis1=noise, axis2=second, evaluation_time=time)


def product_spread(rows: list[SummaryRow]) -> tuple[float, float] | None:
    """(mean, relative spread) of product_at_argmax over rows that have one."""
    products = [r.product_at_argmax for r in rows if r.product_at_argmax is not None]
    if not products:
        return None
    mean = float(np.mean(products))
    if mean == 0:
        return mean, 0.0
    return mean, float((max(products) - min(products)) / mean)
