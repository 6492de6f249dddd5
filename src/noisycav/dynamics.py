"""Time evolution and stationary solutions of the master equation.

The right-hand side is

    drho/dt = -i[H, rho] + sum_k rate_k (2 L_k rho L_k^dag
                                         - L_k^dag L_k rho - rho L_k^dag L_k),

evaluated as written by `lindblad_rhs`, the reference the tests compare
against and the steady-state residual. Its fast forms, the superoperator
blocks and the evaluator `make_rhs` on top of them, are built from
`_generator`, which folds H and the anticommutators into
M = iH + sum_k rate_k L_k^dag L_k and the jumps into J_k = sqrt(2 rate_k) L_k.

Every term of the model changes the total excitation N = n_a + n_b + n_cav by
a fixed amount, so the vectorized superoperator (column-stacking convention,
vec(A X B) = (B^T kron A) vec(X)) is block-diagonal in the order
q = N_i - N_j of the entry rho[i, j]; a model that breaks this is one sector
of all d^2 entries. Only those blocks are built.

`evolve` integrates with fixed-step classical RK4, each of the four stages
one call of the evaluator `make_rhs` builds from its generator, chosen by
type. When the model has the symmetry and rho0 has no coherence between
different N (|g,g,0>: 84 of the 576 entries at cutoff 5), the generator is
the q = 0 `SectorBlocks` of `_evolved_entries` and a stage is one matvec with
its block; else it is the model itself, on all d^2 entries in matrix form at
the cost of dense RK4. In place of a model, `evolve` also takes
`SectorBlocks` built elsewhere: a sweep builds its generator once and
re-weights it per cell (see `sweep`).
After every step the vector is re-Hermitized as (x + conj(x[mirror]))/2,
where mirror maps rho[i, j] to rho[j, i]; the pre-enforcement Hermiticity
drift and the trace drift are checked against the per-step tolerance, and
recorded states, scattered back into d x d matrices, must pass the
density-matrix gates.
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
    POSITIVITY_TOL,
    SpaceLayout,
    assert_density_matrix,
    dagger,
    excitation_numbers,
    expectation,
    partial_trace,
)


class IntegratorError(RuntimeError):
    """Base class for aborted time evolutions."""


class TraceDriftError(IntegratorError):
    """Trace left 1 by more than the tolerance; the step size is too large."""


class HermiticityDriftError(IntegratorError):
    """Pre-symmetrization Hermiticity defect exceeded the tolerance."""


class PositivityLossError(IntegratorError):
    """A recorded state developed a negative eigenvalue beyond the gate."""


class RankDeficientError(RuntimeError):
    """The steady-state manifold is degenerate (or empty of dissipation)."""


@dataclass(frozen=True)
class IntegratorSettings:
    """Fixed-step RK4 parameters. Times are in the units set by the couplings."""

    dt: float = 0.002
    t_max: float = 5.0
    tolerance: float = 1e-8
    record_stride: int = 10

    def __post_init__(self):
        require_finite(self)
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_max < 0:
            raise ValueError(f"t_max must be nonnegative, got {self.t_max}")
        if self.t_max > 0 and self.dt > self.t_max:
            raise ValueError(f"dt={self.dt} exceeds t_max={self.t_max}")
        if not 0 < self.tolerance <= 1e-4:
            raise ValueError(f"tolerance must lie in (0, 1e-4], got {self.tolerance}")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
            raise ValueError(f"record_stride must be a positive integer, got {self.record_stride}")


@dataclass
class Trajectory:
    """Recorded time series: states plus derived observables and health data."""

    times: np.ndarray
    states: list[np.ndarray]
    observables: dict[str, np.ndarray] = field(default_factory=dict)
    trace_residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    min_eigenvalues: np.ndarray = field(default_factory=lambda: np.zeros(0))
    reduced: bool = False

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
    sector the Liouvillian maps into itself. `evolve` and `make_rhs` take one
    in place of a `LindbladModel`, and evolve only its entries.
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


def _generator(model: LindbladModel) -> tuple[np.ndarray, list[np.ndarray]]:
    """The master equation folded into (M, jumps), the source of its fast forms.

    M = iH + sum_k rate_k L_k^dag L_k and J_k = sqrt(2 rate_k) L_k, with
    zero-rate terms dropped, so that

        drho/dt = -(M rho + rho M^dag) + sum_k J_k rho J_k^dag.
    """
    h = model.hamiltonian
    d = h.shape[0]
    sink = np.zeros((d, d), dtype=complex)
    jumps = []
    for rate, lop in model.collapse_terms:
        if rate == 0:
            continue
        sink = sink + rate * (lop.conj().T @ lop)
        jumps.append(np.sqrt(2.0 * rate) * lop)
    return 1j * h + sink, jumps


def make_rhs(generator: LindbladModel | SectorBlocks):
    """The master equation's right-hand side as a function of the vector of the entries it evolves.

    `SectorBlocks` evolve their own entries: the result is their block times
    the vector. A model evolves all d^2 entries in vec order, whose block would
    be d^2 x d^2, so it is evaluated in the `_generator` form

        rhs(rho) = -(M rho + rho M^dag) + sum_k J_k rho J_k^dag

    instead, on rho = unvec(x), with the jump terms stacked for batched matmul.
    Agreement with `lindblad_rhs` is pinned by tests.
    """
    if isinstance(generator, SectorBlocks):
        block = generator.block
        return lambda x: block @ x
    d = generator.dim
    m, jumps = _generator(generator)
    mdag = m.conj().T
    a = np.stack(jumps) if jumps else np.zeros((0, d, d), dtype=complex)
    adag = a.conj().transpose(0, 2, 1)

    def rhs(x: np.ndarray) -> np.ndarray:
        rho = unvec(x, d)
        return vec(((a @ rho) @ adag).sum(axis=0) - (m @ rho + rho @ mdag))

    return rhs


def evolve(
    model: LindbladModel | SectorBlocks,
    rho0: np.ndarray,
    settings: IntegratorSettings,
    record_times=None,
    observables: dict[str, np.ndarray] | None = None,
    reduce_to=None,
) -> Trajectory:
    """Integrate from rho0, recording states, observables and health data.

    By default records every `record_stride`-th step plus t=0 and t_max.
    Explicit `record_times` (ascending, >= 0) override that grid; steps are
    shortened where needed so every record time is hit exactly, and never
    exceed `settings.dt`. With `reduce_to` set (an iterable of layout slots),
    stored states are partial traces over the complement; diagnostics are
    always computed on the composite state.

    A model is propagated on the q = 0 `SectorBlocks` of `_evolved_entries`
    when rho0 lies in that sector, whose other entries stay exactly 0, else on
    all d^2 entries. Given `SectorBlocks`, their entries are propagated, and
    they must hold every nonzero entry of rho0.
    """
    assert_density_matrix(rho0)
    d = model.dim
    if rho0.shape != (d, d):
        raise ValueError(f"initial state shape {rho0.shape} does not match model dimension {d}")

    if record_times is None:
        stride_dt = settings.record_stride * settings.dt
        n_rec = int(math.floor(settings.t_max / stride_dt + 1e-9))
        record_times = [k * stride_dt for k in range(n_rec + 1)]
        if record_times[-1] < settings.t_max - 1e-12:
            record_times.append(settings.t_max)
    record_times = [float(t) for t in record_times]
    if not all(map(math.isfinite, record_times)):
        raise ValueError("record times must be finite")
    if any(t < 0 for t in record_times):
        raise ValueError("record times must be nonnegative")
    if any(t2 < t1 for t1, t2 in zip(record_times, record_times[1:])):
        raise ValueError("record times must be ascending")

    generator = model if isinstance(model, SectorBlocks) else _evolved_entries(model, rho0) or model
    if isinstance(generator, SectorBlocks):
        rows, cols = generator.rows, generator.cols
    else:  # all d^2 entries, in vec order
        rows, cols = np.arange(d * d) % d, np.arange(d * d) // d
    rhs = make_rhs(generator)
    pos = np.full((d, d), -1)
    pos[rows, cols] = np.arange(len(rows))
    if np.any(rho0[pos < 0]):
        raise ValueError("initial state has nonzero entries outside the sectors evolved")
    mirror = pos[cols, rows]  # position of rho[j, i] for each entry rho[i, j]
    diagonal = np.flatnonzero(rows == cols)

    observables = observables or {}
    tol = settings.tolerance

    x = np.asarray(rho0, dtype=complex)[rows, cols]
    times_out: list[float] = []
    states: list[np.ndarray] = []
    obs_out: dict[str, list[float]] = {name: [] for name in observables}
    trace_res: list[float] = []
    min_eigs: list[float] = []

    t_prev = 0.0
    for t_rec in record_times:
        span = t_rec - t_prev
        if span > 1e-12 * max(1.0, t_rec):
            n_steps = max(1, math.ceil(span / settings.dt - 1e-9))
            h = span / n_steps
            for _ in range(n_steps):
                raw = _rk4_step(rhs, x, h)
                mirrored = raw[mirror].conj()
                herm_drift = float(np.abs(raw - mirrored).max())
                if herm_drift > tol:
                    raise HermiticityDriftError(
                        f"Hermiticity drift {herm_drift:.3e} exceeds tolerance {tol:.1e} near t={t_prev:.6g}"
                    )
                x = 0.5 * (raw + mirrored)
                drift = float(abs(x[diagonal].sum().real - 1.0))
                if drift > tol:
                    raise TraceDriftError(
                        f"trace drift {drift:.3e} exceeds tolerance {tol:.1e} near t={t_prev:.6g}; reduce dt"
                    )
            t_prev = t_rec

        rho = np.zeros((d, d), dtype=complex)
        rho[rows, cols] = x
        residual = float(abs(rho.trace().real - 1.0))
        min_eig = float(np.linalg.eigvalsh(rho)[0])
        if min_eig < -100.0 * tol or min_eig < -POSITIVITY_TOL:
            raise PositivityLossError(
                f"smallest eigenvalue {min_eig:.3e} at t={t_rec:.6g} violates the positivity gate"
            )
        times_out.append(t_rec)
        states.append(partial_trace(rho, model.layout, reduce_to) if reduce_to is not None else rho)
        trace_res.append(residual)
        min_eigs.append(min_eig)
        for name, op in observables.items():
            obs_out[name].append(expectation(op, rho))

    return Trajectory(
        times=np.array(times_out),
        states=states,
        observables={name: np.array(vals) for name, vals in obs_out.items()},
        trace_residuals=np.array(trace_res),
        min_eigenvalues=np.array(min_eigs),
        reduced=reduce_to is not None,
    )


def _rk4_step(rhs, x: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of the linear equation dx/dt = rhs(x).

    For a linear autonomous equation the four stages combine into the
    polynomial x + hL(x + hL/2(x + hL/3(x + hL/4 x))), evaluated here with one
    `rhs` call per stage and fewer vector operations than the stage form.
    """
    y = x + (h / 4) * rhs(x)
    y = x + (h / 3) * rhs(y)
    y = x + (h / 2) * rhs(y)
    return x + h * rhs(y)


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return mat.reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape(dim, dim, order="F")


def _superoperator_block(model: LindbladModel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Rows and columns of `vectorize_superoperator` for the entries rho[rows[a], cols[a]].

    The `_generator` form vectorized:
    -(I kron M + M^* kron I) + sum_k J_k^* kron J_k. Uses the kron identity
    (A kron B)[(j,i),(l,k)] = A[j,l] B[i,k] on the chosen entries only, so a
    block costs its own size, not d^4.
    """
    eye = np.eye(model.dim, dtype=complex)
    col_pairs, row_pairs = np.ix_(cols, cols), np.ix_(rows, rows)

    def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a[col_pairs] * b[row_pairs]

    m, jumps = _generator(model)
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


def _evolved_entries(model: LindbladModel, rho0: np.ndarray) -> SectorBlocks | None:
    """The q = 0 sector of `_coherence_sectors` as `SectorBlocks`, for `evolve` to propagate from rho0.

    Every entry outside it then stays exactly 0 under the Liouvillian. None
    when rho0 has a nonzero entry outside it, or when the model lacks the
    symmetry (one sector of all d^2 entries): `evolve` then propagates all
    d^2 entries with the model itself.
    """
    sectors = _coherence_sectors(model)
    rows, cols = sectors[0]
    outside = np.ones(rho0.shape, dtype=bool)
    outside[rows, cols] = False
    if len(sectors) == 1 or np.any(rho0[outside]):
        return None
    return SectorBlocks(model.layout, rows, cols, _superoperator_block(model, rows, cols))


def steady_state(model: LindbladModel, residual_tol: float = 1e-8) -> np.ndarray:
    """Unique stationary state of the model.

    Works on the coherence sectors of the Liouvillian (see `_coherence_sectors`),
    so for an excitation-conserving model the full d^2 x d^2 matrix is never
    formed; otherwise the one sector is the dense solve. Uniqueness pools the singular values of
    every sector, which are those of the full block-diagonal matrix, so a
    stationary coherence in any sector counts. The state solves L vec(rho) = 0
    on the q = 0 sector, with its first row (entry rho[0, 0]) replaced by the
    trace functional. Degenerate stationary manifolds (extra null directions,
    e.g. undamped atoms) raise RankDeficientError rather than returning an
    arbitrary representative.
    """
    if not any(rate > 0 for rate, _ in model.collapse_terms):
        raise RankDeficientError("no dissipation: every density matrix commuting with H is stationary")
    d = model.dim
    sectors = _coherence_sectors(model)
    blocks = [_superoperator_block(model, rows, cols) for rows, cols in sectors]

    svals = np.concatenate([np.linalg.svd(block, compute_uv=False) for block in blocks])
    nullity = int(np.sum(svals < svals.max() * 1e-10))
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
    if residual > residual_tol:
        raise RankDeficientError(
            f"steady-state residual {residual:.3e} exceeds {residual_tol:.1e}; system is near-degenerate"
        )
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


def verify_mode_b_decoupling(
    cfg: SystemConfig,
    t_max: float = 10.0,
    dt: float = 0.002,
    bound: float = 1e-8,
) -> ModeBReport:
    """Dynamical check that the dark collective mode stays unpopulated.

    Evolves from |g,g,0> (which is the collective ground state) and bounds
    the mode-B excitation number along the trajectory. This is the dynamical
    statement behind treating mode B as frozen; it is not an operator
    commutation identity.
    """
    _, sigma_b_plus = collective_mode_operators(cfg)
    n_b = sigma_b_plus @ dagger(sigma_b_plus)
    settings = IntegratorSettings(dt=dt, t_max=t_max, record_stride=25)
    model = build_model(cfg)
    traj = evolve(model, ground_state(cfg), settings, observables={"mode_b_pop": n_b})
    max_pop = float(np.max(traj.observables["mode_b_pop"]))
    return ModeBReport(decoupled=max_pop <= bound, max_population=max_pop, bound=bound)
