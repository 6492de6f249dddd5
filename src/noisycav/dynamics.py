"""Time evolution and stationary solutions of the master equation.

The right-hand side is

    drho/dt = -i[H, rho] + sum_k rate_k (2 L_k rho L_k^dag
                                         - L_k^dag L_k rho - rho L_k^dag L_k),

evaluated as written by `lindblad_rhs`, the reference the tests compare
against and the steady-state residual. Its fast form is the superoperator
block of `_superoperator_block`, with H and the anticommutators folded into
M = iH + sum_k rate_k L_k^dag L_k and the jumps into J_k = sqrt(2 rate_k) L_k.

Every term of the model changes the total excitation N = n_a + n_b + n_cav by
a fixed amount, so the vectorized superoperator (column-stacking convention,
vec(A X B) = (B^T kron A) vec(X)) is block-diagonal in the order
q = N_i - N_j of the entry rho[i, j]; a model that breaks this is one sector
of all d^2 entries. Only those blocks are built.

`evolve` integrates with fixed-step classical RK4 on the entries that
`_evolved_entries` picks: the sectors that rho0 or its transpose touches,
every other entry staying exactly 0. From |g,g,0> that is the q = 0 sector
(84 of the 576 entries at cutoff 5); a q = +-1 coherence adds those sectors;
a model without the symmetry evolves all d^2 entries, at the cost of a
d^2 x d^2 block. The evaluator `make_rhs` is one product with the block B of
the `SectorBlocks`. For this linear equation an RK4 step of size h is the
matrix S = p(hB), p(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, which `_step_map`
builds by Horner's rule with three `make_rhs` products, once per distinct h
in an evolution; each step is then one matvec S @ x. In place of a model,
`evolve` also takes `SectorBlocks` built elsewhere: a sweep builds its
generator once and re-weights it per cell (see `sweep`).
The drift gates run on every step's state, once per chunk of steps: a record
span is stepped in chunks of 1, 2, 4, ... up to CHUNK_STEPS steps, each step a
matvec into one reused buffer, and after each chunk the Hermiticity drift
max |x - conj(x[mirror])| (mirror maps rho[i, j] to rho[j, i]) and the trace
drift max(|tr rho - 1|, max |rho_ij| - 1) of all its steps are checked against
the tolerance; the first failing step raises, Hermiticity first. The vector
is re-Hermitized as (x + conj(x[mirror]))/2 at each record, so the
Hermiticity gate bounds the drift accumulated since the last record.
Recorded states, scattered back into d x d matrices, must pass the
density-matrix gates. RK4 keeps the trace and Hermiticity up to round-off, so
it is the |rho_ij| <= 1 term that stops a step too large for the rates, on
the step where an entry first grows past 1. A chunk is never longer than the
span's steps before it, so the steps taken past a failing one are at most as
many as those that passed, and an unstable run stops before it overflows.
Accuracy is certified by step halving, not by an embedded error estimator.

`steady_state` solves on the q = 0 block and checks uniqueness on all of
them; the residual it reports is the master equation evaluated on the full
space. `vectorize_superoperator` builds the whole matrix with the same code;
tests check it against `lindblad_rhs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    LindbladModel,
    SystemConfig,
    build_model,
    collective_mode_operators,
    ground_state,
    require_finite,
)
from .qops import (
    TOLERANCE,
    SpaceLayout,
    assert_density_matrix,
    dagger,
    density_matrix_defects,
    excitation_numbers,
    expectation,
    partial_trace,
)


# Most RK4 steps `evolve` takes to reach one record time, and most t_max / dt
# may ask for, so a huge but finite time fails at once instead of running on.
MAX_STEPS = 10**7
# Most RK4 steps `evolve` takes between two runs of its drift gates. A record
# span is stepped in chunks of 1, 2, 4, ... steps up to this many, so after a
# failing step at most as many steps are taken as came before it.
CHUNK_STEPS = 32


class IntegratorError(RuntimeError):
    """Base class for aborted time evolutions."""


class TraceDriftError(IntegratorError):
    """Trace, or an entry's modulus, left 1 (a bound on the trace norm) by more than the tolerance; reduce dt."""


class HermiticityDriftError(IntegratorError):
    """Hermiticity defect accumulated since the last re-Hermitization exceeded the tolerance."""


class PositivityLossError(IntegratorError):
    """A recorded state developed a negative eigenvalue beyond the gate."""


class RankDeficientError(RuntimeError):
    """The steady-state manifold is degenerate (or empty of dissipation)."""


@dataclass(frozen=True)
class IntegratorSettings:
    """Fixed-step RK4 parameters. Times are in the units set by the couplings."""

    dt: float = 0.002
    t_max: float = 5.0
    record_stride: int = 10

    def __post_init__(self):
        require_finite(self)
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_max < 0:
            raise ValueError(f"t_max must be nonnegative, got {self.t_max}")
        if self.t_max > 0 and self.dt > self.t_max:
            raise ValueError(f"dt={self.dt} exceeds t_max={self.t_max}")
        if not math.isfinite(self.t_max / self.dt + self.record_stride * self.dt):
            raise ValueError(f"t_max / dt or record_stride * dt overflows, with dt={self.dt}")
        if self.t_max / self.dt > MAX_STEPS:
            raise ValueError(f"t_max={self.t_max:g} is more than MAX_STEPS={MAX_STEPS:g} steps of dt={self.dt:g}")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
            raise ValueError(f"record_stride must be a positive integer, got {self.record_stride}")

    @property
    def times(self) -> list[float]:
        """The default record grid: every `record_stride`-th step from t=0, plus t_max."""
        stride_dt = self.record_stride * self.dt
        n_rec = int(math.floor(self.t_max / stride_dt + 1e-9))
        times = [k * stride_dt for k in range(n_rec + 1)]
        if times[-1] < self.t_max - 1e-12:
            times.append(self.t_max)
        return times


@dataclass
class Trajectory:
    """Recorded time series: states plus derived observables and health data."""

    times: np.ndarray
    states: list[np.ndarray]
    observables: dict[str, np.ndarray] = field(default_factory=dict)
    trace_residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    min_eigenvalues: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        n = len(self.times)
        if len(self.states) != n:
            raise ValueError("times and states lengths disagree")
        for values in self.observables.values():
            if len(values) != n:
                raise ValueError("observable series length disagrees with times")


@dataclass(frozen=True, eq=False)
class SectorBlocks:
    """A Liouvillian given by its block on one set of entries, for use in place of a model.

    `block` is the `_superoperator_block` of the entries rho[rows, cols], the
    matrix that maps them to their time derivatives; the entries must form a
    sector the Liouvillian maps into itself. `evolve` takes one in place of a
    `LindbladModel`, and evolves only its entries; `make_rhs` evaluates it.
    """

    layout: SpaceLayout
    rows: np.ndarray
    cols: np.ndarray
    block: np.ndarray

    def __post_init__(self):
        n = len(self.rows)
        if self.block.shape != (n, n):
            raise ValueError(f"block shape {self.block.shape} does not match the {n} entries")

    @property
    def dim(self) -> int:
        return self.layout.dim


def lindblad_rhs(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Master-equation right-hand side, written exactly as the equation reads."""
    h = model.hamiltonian
    if rho.shape != h.shape:
        raise ValueError(f"state shape {rho.shape} does not match model dimension {h.shape[0]}")
    out = -1j * (h @ rho - rho @ h)
    for rate, lop in model.collapse_terms:
        ldag = lop.conj().T
        ldl = ldag @ lop
        out = out + rate * (2.0 * (lop @ rho @ ldag) - ldl @ rho - rho @ ldl)
    return out


def make_rhs(generator: SectorBlocks):
    """The master equation's right-hand side on the entries of `generator`: its block times their vector.

    Agreement with `lindblad_rhs` is pinned by tests.
    """
    block = generator.block
    return lambda x: block @ x


def evolve(
    model: LindbladModel | SectorBlocks,
    rho0: np.ndarray,
    settings: IntegratorSettings,
    record_times=None,
    observables: dict[str, np.ndarray] | None = None,
    reduce_to=None,
) -> Trajectory:
    """Integrate from rho0, recording states, observables and health data.

    Records at `record_times` (ascending, >= 0), by default `settings.times`;
    steps are shortened where needed so every record time is hit exactly, and
    never exceed `settings.dt`. With `reduce_to` set (an iterable of layout
    slots), stored states are partial traces over the complement; diagnostics
    are always computed on the composite state.

    A model is propagated on the entries `_evolved_entries` picks from rho0,
    whose other entries stay exactly 0. Given `SectorBlocks`, their entries
    are propagated, and they must hold every nonzero entry of rho0.

    Every step's state passes the Hermiticity and trace drift gates, checked
    once per chunk of steps (see the module docstring); an error names the
    time its first failing step reached. States are re-Hermitized at records,
    so the Hermiticity gate bounds the drift since the last record.
    """
    assert_density_matrix(rho0)
    d = model.dim
    if rho0.shape != (d, d):
        raise ValueError(f"initial state shape {rho0.shape} does not match model dimension {d}")

    record_times = [float(t) for t in (settings.times if record_times is None else record_times)]
    if not all(map(math.isfinite, record_times)):
        raise ValueError("record times must be finite")
    if any(t < 0 for t in record_times):
        raise ValueError("record times must be nonnegative")
    if any(t2 < t1 for t1, t2 in zip(record_times, record_times[1:])):
        raise ValueError("record times must be ascending")

    generator = model
    if not isinstance(model, SectorBlocks):
        entries = _evolved_entries(model, rho0)
        generator = SectorBlocks(model.layout, *entries, _superoperator_block(model, *entries))
    rows, cols = generator.rows, generator.cols
    pos = np.full((d, d), -1)
    pos[rows, cols] = np.arange(len(rows))
    if np.any(rho0[pos < 0]):
        raise ValueError("initial state has nonzero entries outside the sectors evolved")
    mirror = pos[cols, rows]  # position of rho[j, i] for each entry rho[i, j]
    diagonal = np.flatnonzero(rows == cols)

    observables = observables or {}

    x = np.asarray(rho0, dtype=complex)[rows, cols]
    states: list[np.ndarray] = []
    obs_out: dict[str, list[float]] = {name: [] for name in observables}
    trace_res: list[float] = []
    min_eigs: list[float] = []

    step_maps: dict[float, np.ndarray] = {}  # keyed by the exact step size
    chunk = np.empty((CHUNK_STEPS, len(x)), dtype=complex)  # row i: the state after the chunk's step i
    t_prev = 0.0
    for t_rec in record_times:
        span = t_rec - t_prev
        if span > 1e-12 * max(1.0, t_rec):
            steps = span / settings.dt
            if not steps <= MAX_STEPS:  # also an overflow to inf
                raise IntegratorError(f"record time t={t_rec:g} is too many steps of dt={settings.dt:g} away "
                                      f"(more than MAX_STEPS={MAX_STEPS:g})")
            n_steps = max(1, math.ceil(steps - 1e-9))
            h = span / n_steps
            if h not in step_maps:
                step_maps[h] = _step_map(generator, h)
            step = step_maps[h]
            done, length = 0, 1
            while done < n_steps:
                m = min(length, CHUNK_STEPS, n_steps - done)
                state = x
                for i in range(m):
                    state = np.dot(step, state, out=chunk[i])
                stepped = chunk[:m]
                herm_drift = np.abs(stepped - stepped[:, mirror].conj()).max(axis=1)
                # a lower bound on the trace-norm drift: any density matrix has |rho_ij| <= 1;
                # `np.maximum` keeps a NaN
                drift = np.maximum(np.abs(stepped[:, diagonal].sum(axis=1).real - 1.0),
                                   np.abs(stepped).max(axis=1) - 1.0)
                # `not <=` so that a NaN drift fails the gates too
                failed = ~((herm_drift <= TOLERANCE) & (drift <= TOLERANCE))
                if failed.any():
                    i = int(np.argmax(failed))  # the first failing step; Hermiticity is checked first
                    near = t_prev + (done + i + 1) * h
                    if not herm_drift[i] <= TOLERANCE:
                        raise HermiticityDriftError(f"Hermiticity drift {herm_drift[i]:.3e} exceeds tolerance "
                                                    f"{TOLERANCE:.1e} near t={near:.6g}")
                    raise TraceDriftError(
                        f"trace drift {drift[i]:.3e} exceeds tolerance {TOLERANCE:.1e} near t={near:.6g}; reduce dt"
                    )
                x = chunk[m - 1].copy()
                done, length = done + m, 2 * length
            x = 0.5 * (x + x[mirror].conj())
            t_prev = t_rec

        rho = np.zeros((d, d), dtype=complex)
        rho[rows, cols] = x
        _, residual, min_eig = density_matrix_defects(rho)
        if not min_eig >= -TOLERANCE:
            raise PositivityLossError(
                f"smallest eigenvalue {min_eig:.3e} at t={t_rec:.6g} violates the positivity gate"
            )
        states.append(partial_trace(rho, model.layout, reduce_to) if reduce_to is not None else rho)
        trace_res.append(residual)
        min_eigs.append(min_eig)
        for name, op in observables.items():
            obs_out[name].append(expectation(op, rho))

    return Trajectory(
        times=np.array(record_times),
        states=states,
        observables={name: np.array(vals) for name, vals in obs_out.items()},
        trace_residuals=np.array(trace_res),
        min_eigenvalues=np.array(min_eigs),
    )


def _step_map(generator: SectorBlocks, h: float) -> np.ndarray:
    """The matrix S of one classical RK4 step of size h on the entries of `generator`: a step is x -> S @ x.

    For the linear autonomous equation dx/dt = Bx the four stages combine into
    S = p(hB) = I + hB(I + hB/2(I + hB/3(I + hB/4))), evaluated from the inside
    out: the innermost factor needs no product, the other three are one
    `make_rhs` evaluation each.
    """
    rhs = make_rhs(generator)
    eye = np.eye(len(generator.rows), dtype=complex)
    # a step too large for the rates overflows S to inf or NaN; stepping with it gives a
    # state that is not finite, which fails the drift gates
    with np.errstate(over="ignore", invalid="ignore"):
        y = eye + (h / 4) * generator.block
        y = eye + (h / 3) * rhs(y)
        y = eye + (h / 2) * rhs(y)
        return eye + h * rhs(y)


def _superoperator_block(model: LindbladModel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Rows and columns of `vectorize_superoperator` for the entries rho[rows[a], cols[a]].

    With M = iH + sum_k rate_k L_k^dag L_k and J_k = sqrt(2 rate_k) L_k
    (zero-rate terms dropped) the equation reads

        drho/dt = -(M rho + rho M^dag) + sum_k J_k rho J_k^dag,

    which vectorizes to -(I kron M + M^* kron I) + sum_k J_k^* kron J_k.
    Uses the kron rule (A kron B)[(j,i),(l,k)] = A[j,l] B[i,k] on the
    chosen entries only, so a block costs its own size, not d^4.
    """
    eye = np.eye(model.dim, dtype=complex)
    col_pairs, row_pairs = np.ix_(cols, cols), np.ix_(rows, rows)

    def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a[col_pairs] * b[row_pairs]

    sink = np.zeros_like(eye)
    jumps = []
    for rate, lop in model.collapse_terms:
        if rate == 0:
            continue
        sink = sink + rate * (lop.conj().T @ lop)
        jumps.append(np.sqrt(2.0 * rate) * lop)
    m = 1j * model.hamiltonian + sink
    block = -(kron(eye, m) + kron(m.conj(), eye))
    for jump in jumps:
        block = block + kron(jump.conj(), jump)
    return block


def vectorize_superoperator(model: LindbladModel) -> np.ndarray:
    """Matrix  L  with  L vec(rho) = vec(lindblad_rhs(model, rho))  for all rho."""
    d = model.dim
    entries = np.arange(d * d)
    return _superoperator_block(model, entries % d, entries // d)


def _coherence_sectors(model: LindbladModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """Entries (rows, cols) of rho grouped into sectors the Liouvillian maps into themselves.

    When H conserves the total excitation N and every collapse operator shifts
    N by one fixed amount, the coherence order q = N_i - N_j of rho[i, j] is
    conserved, and each q is a sector. Otherwise all entries form one sector.
    The sector holding rho[0, 0] (q = 0) comes first, and entries keep their
    vec order within a sector, so rho[0, 0] is the first entry of the first.
    """
    d = model.dim
    n = excitation_numbers(model.layout)
    entries = np.arange(d * d)
    rows, cols = entries % d, entries // d

    def shifts(op: np.ndarray) -> set[int]:
        r, c = np.nonzero(op)
        return set((n[r] - n[c]).tolist())

    jumps_graded = all(len(shifts(lop)) <= 1 for _, lop in model.collapse_terms)
    if not (shifts(model.hamiltonian) <= {0} and jumps_graded):
        return [(rows, cols)]
    order = n[rows] - n[cols]
    return [(rows[order == q], cols[order == q]) for q in sorted(set(order.tolist()), key=abs)]


def _evolved_entries(model: LindbladModel, rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries (rows, cols) to propagate from rho0: the sectors of `_coherence_sectors` it touches.

    A sector counts when rho0 or its transpose has a nonzero entry in it, so
    the mirror rho[j, i] of every entry rho[i, j] is among them; every other
    entry stays exactly 0 under the Liouvillian. Sectors keep their order, so
    from a start without coherence between different N (|g,g,0>) these are
    the q = 0 sector's entries alone; a model without the symmetry gives all
    d^2 entries in vec order.
    """
    touched = (rho0 != 0) | (rho0.T != 0)
    sectors = [(rows, cols) for rows, cols in _coherence_sectors(model) if touched[rows, cols].any()]
    return np.concatenate([rows for rows, _ in sectors]), np.concatenate([cols for _, cols in sectors])


def steady_state(model: LindbladModel) -> np.ndarray:
    """Unique stationary state of the model.

    Works on the coherence sectors of the Liouvillian (see `_coherence_sectors`),
    so for an excitation-conserving model the full d^2 x d^2 matrix is never
    formed; otherwise the one sector is the dense solve. Uniqueness pools the singular values of
    every sector, which are those of the full block-diagonal matrix, so a
    stationary coherence in any sector counts. The state solves L vec(rho) = 0
    on the q = 0 sector, with its first row (entry rho[0, 0]) replaced by the
    trace functional. Degenerate stationary manifolds (extra null directions,
    e.g. undamped atoms) raise RankDeficientError rather than returning an
    arbitrary representative, as does a Liouvillian whose entries or singular values overflow,
    or whose slowest rate is below TOLERANCE times its largest singular value, too small to
    tell a null direction; so does a residual above TOLERANCE times the largest |H| entry or rate.
    """
    if not any(rate > 0 for rate, _ in model.collapse_terms):
        raise RankDeficientError("no dissipation: every density matrix commuting with H is stationary")
    d = model.dim
    sectors = _coherence_sectors(model)
    blocks = [_superoperator_block(model, rows, cols) for rows, cols in sectors]

    svals = None
    if all(np.isfinite(block).all() for block in blocks):
        svals = np.concatenate([np.linalg.svd(block, compute_uv=False) for block in blocks])
    if svals is None or not np.isfinite(svals).all():  # else the relative nullity threshold is inf
        raise RankDeficientError("the Liouvillian has non-finite entries or singular values: "
                                 "a rate or coupling overflows")
    nullity = int(np.sum(svals < svals.max() * 1e-10))
    rates = [rate for rate, _ in model.collapse_terms if rate > 0]
    if nullity != 1 and not min(rates) >= TOLERANCE * svals.max():  # the threshold may not resolve it
        raise RankDeficientError(f"cannot decide uniqueness: the smallest rate {min(rates):.3g} is below "
                                 f"{TOLERANCE:.1e} times the largest singular value, {svals.max():.3g}")
    if nullity != 1:
        raise RankDeficientError(
            f"steady-state manifold has dimension {nullity}; the stationary state is not unique"
        )

    rows, cols = sectors[0]
    a = blocks[0]
    a[0, :] = 0.0
    a[0, rows == cols] = 1.0  # trace functional hits the diagonal entries
    b = np.zeros(len(rows), dtype=complex)
    b[0] = 1.0
    rho = np.zeros((d, d), dtype=complex)
    rho[rows, cols] = np.linalg.solve(a, b)
    rho = 0.5 * (rho + rho.conj().T)

    residual = steady_state_residual(model, rho)
    scale = max(float(np.abs(model.hamiltonian).max()), *rates)
    if not residual <= TOLERANCE * scale:  # round-off in L rho grows with the model's scale
        raise RankDeficientError(f"steady-state residual {residual:.3e} exceeds {TOLERANCE * scale:.1e} "
                                 f"({TOLERANCE:.1e} times the largest coupling or rate); system is near-degenerate")
    assert_density_matrix(rho)
    return rho


def steady_state_residual(model: LindbladModel, rho: np.ndarray) -> float:
    """Sup-norm of the master equation's right-hand side; zero for an exact stationary state."""
    return float(np.abs(lindblad_rhs(model, rho)).max())


@dataclass(frozen=True)
class ModeBReport:
    decoupled: bool
    max_population: float
    bound: float


def verify_mode_b_decoupling(cfg: SystemConfig, t_max: float = 10.0) -> ModeBReport:
    """Dynamical check that the dark collective mode stays unpopulated.

    Evolves from |g,g,0> (which is the collective ground state) and bounds
    the mode-B excitation number along the trajectory. This is the dynamical
    statement behind treating mode B as frozen; it is not an operator
    commutation relation.
    """
    _, sigma_b_plus = collective_mode_operators(cfg)
    n_b = sigma_b_plus @ dagger(sigma_b_plus)
    settings = IntegratorSettings(t_max=t_max, record_stride=25)
    traj = evolve(build_model(cfg), ground_state(cfg), settings, observables={"mode_b_pop": n_b})
    max_pop = float(np.max(traj.observables["mode_b_pop"]))
    return ModeBReport(decoupled=max_pop <= TOLERANCE, max_population=max_pop, bound=TOLERANCE)
