"""Parameter sweeps over noise intensity, decay rates and time.

A sweep evaluates the reduced two-atom concurrence (plus every
`standard_observables` entry and numerical health data) on a grid of one or
two parameters. When one axis is time, each grid column comes from a single
trajectory recorded at the requested times, as for the CLI's `evolve`;
otherwise every cell is an independent evolution to the evaluation time.
Trajectories are independent. Consecutive ones are dealt into stacks whose
generators take at most `STACK_BYTES`, and each stack is one task, evolved
by one `evolve` call: one start check, and batched matrix products per
record span and one batched gate per record for the whole stack; then each
trajectory's records are read off the stack by its own `_run_trajectory_task`
call. The tasks may be
computed by a process pool; results are keyed by grid coordinates, and a
trajectory's records do not depend on its stack, so the output does not
depend on stacking or scheduling. An integrator failure names the first
failing cell of the first failing stack, which is the first in grid order.

No sweepable parameter touches the Hamiltonian or a collapse operator, only
the rates of `model._channels`, so the model is built once per sweep. A sweep
evolves the entries that `evolve` would pick from its start (the q = 0
sector from |g,g,0>, plus the q = +-1 sectors from a start with such a
coherence): the real generator on them (see `dynamics.SectorBlocks`) is
split into a Hamiltonian part and one unit-rate dissipator part per channel
(`_RateComponents`), and each cell's generator is their rate-weighted sum,
a stack of them handed to `evolve` as `SectorBlocks`. Each part passes the
check of `SectorBlocks.with_model` that its Liouvillian is real, so every
cell's is.

The figure grids behind the CLI's --preset are the rows of `PRESETS`, each
built by `preset_spec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .dynamics import (
    IntegratorError,
    IntegratorSettings,
    SectorBlocks,
    Trajectory,
    _evolved_entries,
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
from .qops import assert_density_matrix, embed

SWEEPABLE = ("n_thermal", "kappa", "gamma", "time")

# Most bytes of the generators one task stacks: 4 cells of 54 coordinates (cutoff 5, from |g,g,0>),
# one of 104 (cutoff 10). On the fig3 preset at cutoff 5, one BLAS thread, the benchmark's fig3_map read
# 0.0306 s with stacks of 4 and 0.0330 s with stacks of 2 (0.037 s at one cell a task), though stacks of
# 2 ran 5% faster in process. From 3 cells on, a stack-sized array takes 64 KiB or more, and freeing one
# makes glibc's free() give the top of the heap back to the system, whose pages the next stack faults in
# again: 4328 minor page faults per in-process pass with stacks of 4, 126 with stacks of 2.
STACK_BYTES = 96 * 1024


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
    """Grid definition: base config, one or two axes, the evaluation time and the start.

    Without a time axis every cell is evaluated at `evaluation_time`, by
    default the bright-mode half period 1/(2g) of `base`; a time axis sets the
    record times itself, and then no evaluation time may be given.
    `initial_state` is a composite density matrix, by default |g,g,0>.
    """

    base: SystemConfig
    axis1: SweepAxis
    axis2: SweepAxis | None = None
    evaluation_time: float | None = None
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        if self.axis2 is not None and self.axis1.parameter == self.axis2.parameter:
            raise ValueError(f"axis parameters must be distinct, both are {self.axis1.parameter!r}")
        if self._time_axis() is not None:
            if self.evaluation_time is not None:
                raise ValueError("an evaluation time does not apply when time is a sweep axis")
        elif self.evaluation_time is None:
            object.__setattr__(self, "evaluation_time", bright_mode_half_period(self.base))
        elif not math.isfinite(self.evaluation_time):
            raise ValueError(f"evaluation_time must be finite, got {self.evaluation_time}")
        elif self.evaluation_time <= 0:
            raise ValueError("evaluation_time must be positive when time is not a sweep axis")
        if self.initial_state is not None:
            shape, d = np.shape(self.initial_state), self.base.layout.dim
            if shape != (d, d):
                raise ValueError(f"initial_state shape {shape} does not match the base layout's {(d, d)}")
            assert_density_matrix(np.asarray(self.initial_state))

    def _time_axis(self) -> SweepAxis | None:
        axes = (self.axis1,) if self.axis2 is None else (self.axis1, self.axis2)
        return next((axis for axis in axes if axis.parameter == "time"), None)

    @property
    def times(self) -> list[float]:
        """The times every trajectory of the sweep records: the time axis, or the evaluation time."""
        axis = self._time_axis()
        return [self.evaluation_time] if axis is None else list(axis.values)

    def initial_density_matrix(self) -> np.ndarray:
        rho0 = ground_state(self.base) if self.initial_state is None else self.initial_state
        return np.asarray(rho0, dtype=complex)


@dataclass(frozen=True)
class SweepCell:
    axis1_value: float
    axis2_value: float | None
    concurrence: float
    margin: float
    mean_photon: float
    p_ee_a: float
    p_ee_b: float
    top_fock_pop: float
    trace_residual: float
    min_eigenvalue: float
    mode_b_pop: float | None = None  # None without a collective mode (g = 0)


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
    """A sweep's generator on the entries evolved from its start, as a function of the channel rates.

    The real generator (see `SectorBlocks`) at config cfg is

        stack[0] + sum_k rate_k(cfg) stack[1 + k],

    where stack[0] is the Hamiltonian's (no collapse terms) and stack[1 + k]
    that of row k of `_channels` at unit rate with H = 0: cavity loss,
    thermal pumping, and the emission of each atom. Every part is checked on
    its own for a real Liouvillian.
    """

    generator: SectorBlocks  # the coordinates, and their maps, that every cell shares
    stack: np.ndarray

    @classmethod
    def build(cls, base: SystemConfig, rho0: np.ndarray) -> _RateComponents:
        """Components of `build_model(base)` on the `_evolved_entries` of rho0, on the coordinates rho0 needs."""
        model = build_model(base)
        layout = model.layout
        rows, cols = _evolved_entries(model, rho0)
        zero = np.zeros_like(model.hamiltonian)
        generator = SectorBlocks.of(LindbladModel(model.hamiltonian, (), layout), rows, cols, rho0)
        units = [LindbladModel(zero, ((1.0, embed(op, slot, layout)),), layout) for slot, _, op in _channels(base)]
        return cls(generator, np.stack([generator.block] + [generator.with_model(unit).block for unit in units]))

    def at(self, cfgs: list[SystemConfig]) -> SectorBlocks:
        """The generators of `cfgs`, as one stack: a block of shape (len(cfgs), m, m).

        Each is its own vector-matrix product of the weights with the parts,
        batched, so a cell's generator does not depend on the stack it is in:
        one matrix product over the stack would sum in another order.
        """
        weights = np.array([[1.0] + [rate for _, rate, _ in _channels(cfg)] for cfg in cfgs])
        parts, m = len(self.stack), self.stack.shape[-1]
        return self.generator.with_block((weights[:, None] @ self.stack.reshape(parts, m * m)).reshape(-1, m, m))


def _run_stack_task(task):
    """A stack of trajectories, one per config, each sampled at the requested times, evolved as one.

    Returns the records of each trajectory in stack order (see
    `_run_trajectory_task`). Module-level so process pools can pickle it. An
    integrator failure is re-raised with the coordinates of the cell that
    `evolve` names prepended: the first failing one of the stack.
    """
    components, cfgs, times, rho0, settings, observables, labels = task
    try:
        stack = evolve(components.at(cfgs), rho0, settings, record_times=times, observables=observables,
                       reduce_to=(ATOM_A, ATOM_B))
    except IntegratorError as err:
        raise type(err)(f"{labels[err.index]}: {err}") from None
    return [_run_trajectory_task(stack, k) for k in range(len(cfgs))]


def _run_trajectory_task(stack: Trajectory, k: int) -> list[dict[str, float]]:
    """Trajectory k of a stack's evolution, one record per time.

    A record is the `SweepCell` fields after the two axis values, keyed by
    name, one `concurrence` call giving the first two. A sweep calls this once
    per trajectory, whatever its stacks, so the benchmark's timed passes
    (`benchmarks/speed.py`), cut at both ends of each call, have as many
    intervals as the sweep has trajectories.
    """
    return [
        {"concurrence": c.value, "margin": c.margin,
         **{name: float(series[i, k]) for name, series in stack.observables.items()},
         "trace_residual": float(stack.trace_residuals[i, k]), "min_eigenvalue": float(stack.min_eigenvalues[i, k])}
        for i, c in enumerate(concurrence(atoms[k]) for atoms in stack.states)
    ]


def run_sweep(spec: SweepSpec, settings: IntegratorSettings, workers: int = 1) -> SweepResult:
    """Evaluate the grid, one task per stack of trajectories.

    `workers` > 1 distributes the stacks over at most that many processes.
    Which stack or process evolves a trajectory does not change its records.
    """
    rho0 = spec.initial_density_matrix()
    a1, a2 = spec.axis1, spec.axis2

    # One trajectory per combination of the non-time axis values, recorded
    # along the time axis if there is one; `targets` maps its per-time records
    # to cells.
    axes = (a1,) if a2 is None else (a1, a2)
    times = spec.times
    pad = (0,) if a2 is None else ()  # a one-axis grid has a single column
    components = _RateComponents.build(spec.base, rho0)
    observables = standard_observables(spec.base)
    configs, labels, targets = [], [], []  # targets: the (i, j) of each of a trajectory's records
    for cell in product(*([None] if axis.parameter == "time" else range(len(axis)) for axis in axes)):
        fixed = {axis.parameter: axis.values[k] for axis, k in zip(axes, cell) if k is not None}
        configs.append(replace(spec.base, **fixed))
        labels.append(", ".join(f"{name}={v:g}" for name, v in fixed.items()) or "time column")
        targets.append([tuple(r if k is None else k for k in cell) + pad for r in range(len(times))])
    # each task is a stack of consecutive trajectories, whose generators take at most STACK_BYTES
    size = max(1, STACK_BYTES // components.stack[0].nbytes)
    tasks = [(components, configs[i:i + size], times, rho0, settings, observables, labels[i:i + size])
             for i in range(0, len(configs), size)]

    workers = min(workers, len(tasks))  # the pool starts all its processes up front
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so a serial run never loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # one chunk per worker, pickled as one object: the shared components travel once per worker
            results = list(pool.map(_run_stack_task, tasks, chunksize=math.ceil(len(tasks) / workers)))
    else:
        results = [_run_stack_task(task) for task in tasks]

    n1 = len(a1)
    n2 = len(a2) if a2 is not None else 1
    grid: list[list[SweepCell | None]] = [[None] * n2 for _ in range(n1)]
    for trajectory_targets, records in zip(targets, (trajectory for stack in results for trajectory in stack)):
        for (i, j), rec in zip(trajectory_targets, records):
            grid[i][j] = SweepCell(a1.values[i], a2.values[j] if a2 is not None else None, **rec)
    return SweepResult(spec=spec, cells=grid)


@dataclass(frozen=True)
class SummaryRow:
    fixed_value: float
    argmax_value: float | None
    max_concurrence: float
    interior: bool
    product_at_argmax: float | None


def resonance_summary(result: SweepResult) -> list[SummaryRow]:
    """Location and height of the concurrence maximum along axis2, one row per axis1 value.

    Identically zero rows are flagged with argmax None. `interior` is True
    when the maximum sits strictly between the endpoints of axis2.
    `product_at_argmax` is axis1 value * argmax (None for a time axis), the
    quantity that is roughly constant along the resonance ridge of a
    noise-vs-decay map.
    """
    fixed_axis, scanned = result.spec.axis1, result.spec.axis2
    if scanned is None:
        raise ValueError("resonance_summary needs a two-axis sweep")

    product_defined = fixed_axis.parameter != "time" and scanned.parameter != "time"
    rows = []
    for fixed, series in zip(fixed_axis.values, result.concurrence_grid()):
        k = int(np.argmax(series))
        peak = float(series[k])
        if peak <= 0.0:
            rows.append(SummaryRow(fixed, None, 0.0, False, None))
            continue
        argmax = float(scanned.values[k])
        interior = 0 < k < len(scanned) - 1
        product = fixed * argmax if product_defined else None
        rows.append(SummaryRow(fixed, argmax, peak, interior, product))
    return rows


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
    return SweepSpec(base=base, axis1=noise, axis2=second)


def product_spread(rows: list[SummaryRow]) -> tuple[float, float] | None:
    """(mean, relative spread) of product_at_argmax over rows that have one."""
    products = [r.product_at_argmax for r in rows if r.product_at_argmax is not None]
    if not products:
        return None
    mean = float(np.mean(products))
    if mean == 0:
        return mean, 0.0
    return mean, float((max(products) - min(products)) / mean)
