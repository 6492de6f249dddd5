"""Time evolution and stationary solutions of the master equation.

The right-hand side is

    drho/dt = -i[H, rho] + sum_k rate_k (2 L_k rho L_k^dag
                                         - L_k^dag L_k rho - rho L_k^dag L_k),

evaluated as written by `lindblad_rhs`, the reference the tests compare
against and the steady-state residual. Its fast form is sparse: `_triplets`
lists the nonzeros of the vectorized superoperator (rho[i, j] is entry
i + d j) as (row, col, value) triplets, read off M = iH + sum_k rate_k
L_k^dag L_k and the jumps J_k = sqrt(2 rate_k) L_k, and `_Liouvillian` groups
them by row entry, so the block of any set of entries is one `bincount`.
The sectors, sets of entries the Liouvillian maps into themselves, are the
connected components of the triplets' graph (`_components`), whose pattern
does not depend on the rates. For the package's model, each of whose terms
changes N = n_a + n_b + n_cav by a fixed amount, they are the coherence
orders q = N_i - N_j of the entries rho[i, j]; a jump that changes N by
+-1 leaves the two parities of q, and a zero coupling splits them further.

The Hamiltonian is imaginary and each jump real or imaginary (the phase
convention of `model.build_interaction_hamiltonian`), so the Liouvillian is
a real map as written; `_require_real_frame` checks this exactly and refuses
a model without it. It maps the real symmetric part s and the imaginary
antisymmetric part a of rho each to itself, so a set of entries x closed
under transpose is held by real coordinates, s one per pair i <= j and a one
per pair i < j, read back as x = s +- i a (+ for i < j, s alone on the
diagonal), every state exactly Hermitian. The generator G of the
coordinates is gathered from the real block (`SectorBlocks.with_model`).

`evolve` integrates with fixed-step classical RK4 on the entries that
`_evolved_entries` picks, the sectors that rho0 or its transpose touches,
every other entry staying exactly 0: from |g,g,0> the q = 0 sector, 84 of
576 entries at cutoff 5, stepped as its s alone, 54 coordinates. A step of
size h is the matrix S = p(hG), p(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, built
by `_step_map` once per distinct h, and a record span of n steps is one
product with S^(2^k) for each set bit k of n, the powers squared as first
needed. `evolve` also takes `SectorBlocks` built elsewhere, a stack of K
generators evolved as one, each bit for bit as it would be alone (see
`sweep`). Each record passes the drift gate, max(|tr rho - 1|,
max |rho_ij| - 1) within the tolerance (a NaN failing, which is how a step
too large for the rates fails), then the positivity gate, one batched
`eigvalsh` (`qops.hermitian_defects`). Stored states, reduced or full, and
observables are fixed linear maps of x (`SectorBlocks.reduction`). Accuracy
is certified by step halving, not by an embedded error estimator.

`steady_state` solves on the s coordinates of the sector of rho[0, 0] and
checks uniqueness on the pooled singular values of its s and a halves and
of one sector of each transpose pair, each block real and built from one
`_Liouvillian`. `vectorize_superoperator` scatters the triplets into the
whole matrix; tests check it against `lindblad_rhs`.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .model import LindbladModel, require_finite
from .qops import (
    TOLERANCE,
    SpaceLayout,
    assert_density_matrix,
    hermitian_defects,
    kept_slots,
    partial_trace,
)


# Most RK4 steps `evolve` takes to reach one record time, and most t_max / dt
# may ask for. A span costs only about log2 of its steps, so this is input
# validation: a huge but finite time is refused at once as a likely mistake.
MAX_STEPS = 10**7


class IntegratorError(RuntimeError):
    """Base class for aborted time evolutions.

    `index` is the position of the failing generator in the stack `evolve` was given, 0 for a single one.
    """

    index = 0


class TraceDriftError(IntegratorError):
    """At a record, the trace or an entry's modulus left 1 (a trace-norm bound) beyond the tolerance; reduce dt."""


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
    """A Liouvillian given by its real generator on one set of entries, for use in place of a model.

    The entries x = rho[rows, cols] must form a sector the Liouvillian maps into
    itself, closed under transpose: rho[j, i] is x[mirror] for each rho[i, j].
    Their real coordinates are s, one per pair i <= j, and, when `antisymmetric`,
    a, one per pair i < j, in that order, read back as x = s + i a for i < j,
    s - i a for i > j and s on the diagonal (see the module docstring).
    `block` maps the coordinates c to dc/dt; without a block the map alone is
    given, and `with_model` adds one. A block of shape (K, m, m) is a stack of
    K generators on the same coordinates, which `evolve` steps together.
    `evolve` takes one in place of a `LindbladModel`, and evolves only its
    coordinates; `make_rhs` evaluates it.
    """

    layout: SpaceLayout
    rows: np.ndarray
    cols: np.ndarray
    block: np.ndarray | None = None
    antisymmetric: bool = True
    mirror: np.ndarray = field(init=False)
    # the entry each coordinate belongs to: rho[i, j] with i <= j for s, then with i < j for a
    owners: np.ndarray = field(init=False)
    _upper: np.ndarray = field(init=False, repr=False)  # the entries rho[i, j] with i <= j
    _strict: np.ndarray = field(init=False, repr=False)  # ... and with i < j
    # x = c[sources[0]] + isign c[sources[1]], where c[len(c)] reads 0 and isign = i sign(j - i): s + i sign a
    _sources: np.ndarray = field(init=False, repr=False)
    _isign: np.ndarray = field(init=False, repr=False)
    # the maps of `reduction`, keyed by the kept factors; `with_block` copies share it
    _reductions: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        rows, cols, n, d = self.rows, self.cols, len(self.rows), self.dim
        pos = np.full((d, d), -1)
        pos[rows, cols] = np.arange(n)
        mirror = pos[cols, rows]
        if np.any(mirror < 0):
            raise ValueError("the entries are not closed under transpose")
        upper, strict = np.flatnonzero(rows <= cols), np.flatnonzero(rows < cols)
        n_s, m = len(upper), len(upper) + self.antisymmetric * len(strict)
        # s at `pair`, and a at `anti`, which is m, reading 0, where there is no a
        pair, anti = np.empty(n, dtype=int), np.full(n, m)
        pair[upper] = np.arange(n_s)
        pair[mirror[upper]] = pair[upper]
        if self.antisymmetric:
            anti[strict] = anti[mirror[strict]] = n_s + np.arange(len(strict))
        derived = dict(mirror=mirror, owners=np.concatenate([upper, strict])[:m],
                       _upper=upper, _strict=strict, _sources=np.array([pair, anti]),
                       _isign=1j * np.sign(cols - rows))
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        if self.block is not None:
            self._require_block_shape(self.block)

    @classmethod
    def of(cls, model: LindbladModel | _Liouvillian, rows: np.ndarray, cols: np.ndarray,
           start: np.ndarray | None = None) -> SectorBlocks:
        """The generator of `model` on the coordinates of the entries rho[rows, cols].

        Given a `start` (a d x d state) whose entries are real, such as
        |g,g,0>, a is dropped: s alone. Otherwise both.
        """
        antisymmetric = start is None or bool(np.asarray(start)[rows, cols].imag.any())
        return cls(model.layout, rows, cols, antisymmetric=antisymmetric).with_model(model)

    def with_model(self, model: LindbladModel | _Liouvillian) -> SectorBlocks:
        """The generator of `model` on the same coordinates, gathered from the block B of the entries.

        B is the `_Liouvillian.block` of the model (or of its `_Liouvillian`),
        real, which `_require_real_frame` checks first, so s and a are
        separate sectors: each coordinate's row is the row of its entry, and
        its column sums the columns of its entry and the mirror, with the
        signs of +-i a.
        """
        n_s, upper, strict, lower = len(self._upper), self._upper, self._strict, self.mirror[self._strict]
        liouvillian = model if isinstance(model, _Liouvillian) else _Liouvillian.of(model)
        b = liouvillian.block(self.rows, self.cols, self.owners)
        generator = np.zeros((len(self.owners),) * 2)
        generator[:n_s, :n_s] = b[:n_s, upper]
        # a sum past the largest float leaves inf or NaN, which `steady_state` and the drift gate reject
        with np.errstate(over="ignore", invalid="ignore"):
            generator[:n_s, np.searchsorted(upper, strict)] += b[:n_s, lower]
            if self.antisymmetric:
                generator[n_s:, n_s:] = b[n_s:, strict] - b[n_s:, lower]
        return self.with_block(generator)

    def with_block(self, block: np.ndarray) -> SectorBlocks:
        """The generator `block` on the same coordinates, sharing their maps rather than recomputing them."""
        self._require_block_shape(block)
        generator = copy.copy(self)
        object.__setattr__(generator, "block", block)
        return generator

    def _require_block_shape(self, block: np.ndarray) -> None:
        m = len(self.owners)
        if block.ndim not in (2, 3) or block.shape[-2:] != (m, m):
            raise ValueError(f"block shape {block.shape} does not match the {m} coordinates "
                             f"of the {len(self.rows)} entries")

    @property
    def dim(self) -> int:
        return self.layout.dim

    def entries(self, c: np.ndarray) -> np.ndarray:
        """The entries x = s +- i a of the real coordinates c (last axis), exactly Hermitian.

        Each product and sum is exact; adding 0.0 makes a -0.0 part a 0.0, so an exact 0 prints as 0.
        """
        padded = np.concatenate([c, np.zeros(c.shape[:-1] + (1,))], axis=-1)
        s, a = (np.take(padded, sources, axis=-1) for sources in self._sources)
        return s + self._isign * a + 0.0

    def coordinates(self, x: np.ndarray) -> np.ndarray | None:
        """The coordinates of the Hermitian part (x + conj(x[mirror])) / 2, or None if it has an a they do not hold."""
        upper, strict = self._upper, self._strict
        s = 0.5 * (x.real[upper] + x.real[self.mirror[upper]])
        a = 0.5 * (x.imag[strict] - x.imag[self.mirror[strict]])
        if not self.antisymmetric:
            return None if a.any() else s + 0.0  # + 0.0 makes a -0.0 a 0.0
        return np.concatenate([s, a]) + 0.0

    def reduction(self, keep) -> np.ndarray:
        """The (k^2, n) map from the entries x to the partial trace onto the factors `keep`, flattened.

        Column j is `partial_trace` of the unit matrix of the entry
        rho[rows[j], cols[j]], all n columns from one call on the stack of the
        unit matrices; keeping every factor, the map is the scatter of x into
        the d x d state. Built once per set of kept factors and shared by every
        `with_block` copy, as it depends on the entries alone.
        """
        key = kept_slots(self.layout, keep)
        if key not in self._reductions:
            n = len(self.rows)
            units = np.zeros((n, self.dim, self.dim), dtype=bool)
            units[np.arange(n), self.rows, self.cols] = True
            self._reductions[key] = partial_trace(units, self.layout, key).reshape(n, -1).T.astype(complex)
        return self._reductions[key]


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
    """The master equation's right-hand side on the coordinates of `generator`: its real block times them.

    Agreement with `lindblad_rhs` is pinned by tests.
    """
    block = generator.block
    return lambda y: block @ y


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
    never exceed `settings.dt`. With `reduce_to` set (an iterable of integer
    layout slots), stored states are partial traces over the complement;
    without it, over nothing: the full states. Diagnostics are always computed
    on the composite state. Each observable must be a (d, d) array, or
    ValueError names it. States and observables are read off the recorded
    entries by fixed linear maps (see the module docstring).

    A model is propagated on the entries `_evolved_entries` picks from rho0,
    whose other entries stay exactly 0, in their s coordinates and the a ones
    if rho0 has an a part. Given `SectorBlocks`, their coordinates are
    propagated, and they must hold rho0: every nonzero entry, and its a half.
    A stack of K generators (a block of shape (K, m, m)) is evolved from the
    same rho0, checked once, and gives one `Trajectory` whose `times` are
    those of every generator and whose other per-record values have a second
    axis of length K, in stack order; a single generator's have none.

    The state is stepped in real coordinates from rho0's Hermitian part, by
    binary powers of the step matrix, and every record passes the drift and
    positivity gates (see the module docstring); an error names the time of
    the earliest failing record of the first failing generator in stack
    order, whose position is the error's `index`.
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

    if isinstance(model, SectorBlocks):
        generator = model
    else:
        liouvillian = _Liouvillian.of(model)
        generator = SectorBlocks.of(liouvillian, *_evolved_entries(liouvillian, rho0), rho0)
    rows, cols = generator.rows, generator.cols
    c = generator.coordinates(np.asarray(rho0, dtype=complex)[rows, cols])
    if c is None or np.count_nonzero(rho0) > np.count_nonzero(rho0[rows, cols]):
        raise ValueError("initial state has nonzero entries outside the sectors evolved")
    stacked = generator.block.ndim == 3
    if not stacked:  # a stack of one, unstacked at the end
        generator = generator.with_block(generator.block[None])
    n_gen = len(generator.block)
    c = np.tile(c, (n_gen, 1))[..., None]  # c[k]: the coordinates of generator k, as a column
    diagonal = np.flatnonzero(rows == cols)

    observables = observables or {}
    for name, op in observables.items():
        if not isinstance(op, np.ndarray) or op.shape != (d, d):
            raise ValueError(f"observable {name!r} of shape {np.shape(op)} does not match model dimension {d}")
    reduction = generator.reduction(range(generator.layout.nfactors) if reduce_to is None else reduce_to)
    # Re tr(op rho) = Re sum_j op[cols[j], rows[j]] x_j, as rho is 0 off the entries x
    expectations = np.array([op[cols, rows] for op in observables.values()]).reshape(len(observables), len(rows))

    # [k, i]: generator k at record i; x holds the entries of each generator's record
    recorded = np.empty((n_gen, len(record_times), len(rows)), dtype=complex)
    trace_res = np.empty((n_gen, len(record_times)))
    min_eigs = np.empty((n_gen, len(record_times)))
    failures: dict[int, IntegratorError] = {}  # the earliest failure of each failed generator
    failed = np.zeros(n_gen, dtype=bool)

    powers: dict[float, list[np.ndarray]] = {}  # [S, S^2, S^4, ...], keyed by the exact step size
    t_prev = 0.0
    for i_rec, t_rec in enumerate(record_times):
        span = t_rec - t_prev
        if span > 1e-12 * max(1.0, t_rec):
            steps = span / settings.dt
            if not steps <= MAX_STEPS:  # also an overflow to inf
                raise IntegratorError(f"record time t={t_rec:g} is too many steps of dt={settings.dt:g} away "
                                      f"(more than MAX_STEPS={MAX_STEPS:g})")
            n_steps = max(1, math.ceil(steps - 1e-9))
            h = span / n_steps
            if h not in powers:
                powers[h] = [_step_map(generator, h)]
            step_powers = powers[h]
            # a step too large for the rates overflows the powers or the state to inf or NaN,
            # which fails the drift gate below
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(n_steps.bit_length()):  # S^n is the product of S^(2^k) over the set bits k of n
                    if k == len(step_powers):
                        step_powers.append(step_powers[-1] @ step_powers[-1])
                    if n_steps >> k & 1:
                        c = step_powers[k] @ c
            t_prev = t_rec

        with np.errstate(over="ignore", invalid="ignore"):
            x = generator.entries(c[..., 0])
            # a lower bound on the trace-norm drift, as any density matrix has |rho_ij| <= 1;
            # `np.maximum` keeps a NaN, and `not <=` makes a NaN drift fail the gate. `take`
            # keeps the rows contiguous, so each row sums in the same order whatever the stack
            trace = np.abs(np.take(x, diagonal, axis=1).sum(axis=1).real - 1.0)
            drift = np.maximum(trace, np.abs(x).max(axis=1) - 1.0)
            drifted = ~(drift <= TOLERANCE) & ~failed
        for k in np.flatnonzero(drifted).tolist():
            failures[k] = TraceDriftError(f"trace drift {drift[k]:.3e} exceeds tolerance {TOLERANCE:.1e} "
                                          f"at t={t_rec:.6g}; reduce dt")
        failed |= drifted
        gated = np.flatnonzero(~failed)  # finite, as they passed the drift gate
        rho = np.zeros((len(gated), d, d), dtype=complex)
        rho[:, rows, cols] = x[gated]
        residual, min_eig = hermitian_defects(rho)
        for k, value in zip(gated.tolist(), min_eig):
            if not value >= -TOLERANCE:
                failures[k] = PositivityLossError(
                    f"smallest eigenvalue {value:.3e} at t={t_rec:.6g} violates the positivity gate"
                )
                failed[k] = True
        if failed[0]:  # no later record changes which failure comes first
            break
        recorded[:, i_rec] = x
        trace_res[gated, i_rec] = residual
        min_eigs[gated, i_rec] = min_eig
    if failures:
        index = min(failures)
        failures[index].index = index
        raise failures[index]

    k = math.isqrt(len(reduction))
    states = (recorded @ reduction.T).reshape(n_gen, -1, k, k)
    values = (recorded @ expectations.T).real
    # record first: generator k's record i is [i][k] for a stack, [i] alone otherwise
    states, values, trace_res, min_eigs = (np.swapaxes(a, 0, 1) if stacked else a[0]
                                           for a in (states, values, trace_res, min_eigs))
    return Trajectory(
        times=np.array(record_times),
        states=list(states),
        observables={name: values[..., j] for j, name in enumerate(observables)},
        trace_residuals=trace_res,
        min_eigenvalues=min_eigs,
    )


def _step_map(generator: SectorBlocks, h: float) -> np.ndarray:
    """The matrix S of one classical RK4 step of size h on the coordinates of `generator`: a step is c -> S @ c.

    For the linear autonomous equation dc/dt = Gc the four stages combine into
    S = p(hG) = I + hG(I + hG/2(I + hG/3(I + hG/4))), evaluated from the inside
    out: the innermost factor needs no product, the other three are one
    `make_rhs` evaluation each. A stack of generators gives a stack of step
    matrices; each factor is scaled and shifted in place, which gives the
    same floats as I + (h/k) y.
    """
    rhs = make_rhs(generator)
    eye = np.eye(generator.block.shape[-1])
    # a step too large for the rates overflows S to inf or NaN; stepping with it gives a
    # state that is not finite, which fails the drift gate
    with np.errstate(over="ignore", invalid="ignore"):
        y = (h / 4) * generator.block
        y += eye
        for k in (3, 2, 1):
            y = rhs(y)
            y *= h / k
            y += eye
        return y


def _triplets(model: LindbladModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of `vectorize_superoperator(model)` as (row, col, value) triplets; duplicates sum.

    The equation reads drho/dt = -(M rho + rho M^dag) + sum_k J_k rho J_k^dag,
    so rho[i, j] (entry i + d j) gains -M[i, k] rho[k, j] (nnz(M) d triplets),
    -conj(M[j, l]) rho[i, l] (as many) and J[i, k] conj(J[j, l]) rho[k, l] per
    jump (nnz(J)^2), listed in that order, the order in which they sum. The
    pattern is that of H and of each L whatever its rate: a zero rate gives zeros.
    """
    d = model.dim
    pattern, m = model.hamiltonian != 0, 1j * model.hamiltonian
    for rate, lop in model.collapse_terms:
        ldl = lop.conj().T @ lop
        pattern |= ldl != 0
        m = m + rate * ldl
    every = np.arange(d)[:, None]
    i, k = np.nonzero(pattern)
    rows, cols = [(i + d * every).ravel(), (every + d * i).ravel()], [(k + d * every).ravel(), (every + d * k).ravel()]
    values = [np.tile(-m[i, k], d), np.tile(-m[i, k].conj(), d)]
    for rate, lop in model.collapse_terms:
        i, k = np.nonzero(lop)
        jump = np.sqrt(2.0 * rate) * lop[i, k]
        rows.append((i[:, None] + d * i).ravel())
        cols.append((k[:, None] + d * k).ravel())
        values.append((jump[:, None] * jump.conj()).ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def vectorize_superoperator(model: LindbladModel) -> np.ndarray:
    """Matrix  L  with  L vec(rho) = vec(lindblad_rhs(model, rho))  for all rho: the `_triplets` scattered densely."""
    d = model.dim
    rows, cols, values = _triplets(model)
    liouv = np.zeros((d * d, d * d), dtype=complex)
    np.add.at(liouv, (rows, cols), values)
    return liouv


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each vertex's label, the smallest vertex of its connected component, in the graph of edges (rows, cols).

    Each round hooks every root to the smallest root it shares an edge with, then jumps every pointer to its root.
    """
    labels = np.arange(n)
    while True:
        head, tail = labels[rows], labels[cols]
        if np.array_equal(head, tail):
            return labels
        low = np.minimum(head, tail)
        np.minimum.at(labels, head, low)
        np.minimum.at(labels, tail, low)
        while not np.array_equal(up := labels[labels], labels):
            labels = up


@dataclass(frozen=True, eq=False)
class _Liouvillian:
    """A model's real Liouvillian, its `_triplets` grouped by row entry in their order (CSR).

    The triplets of row entry e are [starts[e], starts[e + 1]). `of` takes
    the real part only after `_require_real_frame`.
    """

    layout: SpaceLayout
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    starts: np.ndarray

    @classmethod
    def of(cls, model: LindbladModel) -> _Liouvillian:
        _require_real_frame(model)
        rows, cols, values = _triplets(model)
        order = np.argsort(rows, kind="stable")
        starts = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=model.dim**2))])
        return cls(model.layout, rows[order], cols[order], values.real[order], starts)

    def block(self, rows: np.ndarray, cols: np.ndarray, out=None) -> np.ndarray:
        """The rows and columns of the Liouvillian for the entries rho[rows[a], cols[a]], one `bincount`.

        With `out` (positions among the entries), only the rows of those entries.
        """
        d, n = self.layout.dim, len(rows)
        entries = rows + d * cols
        chosen = entries if out is None else entries[out]
        position = np.full(d * d, -1)
        position[entries] = np.arange(n)
        count = self.starts[chosen + 1] - self.starts[chosen]
        index = np.arange(count.sum()) + np.repeat(self.starts[chosen] - np.cumsum(count) + count, count)
        row, col = np.repeat(np.arange(len(chosen)), count), position[self.cols[index]]
        inside = col >= 0
        return np.bincount(row[inside] * n + col[inside], self.values[index[inside]], len(chosen) * n).reshape(-1, n)


def _require_real_frame(model: LindbladModel) -> None:
    """Raise ValueError unless the Liouvillian of `model` is a real map as written.

    It is when H is imaginary (-iH real) and each jump with a nonzero rate is
    real or imaginary, so that J rho J^dag is real for a real rho: the phase
    convention of `model.build_interaction_hamiltonian`. The check is exact.
    """
    if model.hamiltonian.real.any():
        raise ValueError("the Hamiltonian is not imaginary, so the Liouvillian is not real; write the exchange "
                         "in the convention of model.build_interaction_hamiltonian, i g (sigma_- a^dag - h.c.)")
    for k, (rate, lop) in enumerate(model.collapse_terms):
        if rate != 0 and lop.real.any() and lop.imag.any():
            raise ValueError(f"collapse operator {k} is neither real nor imaginary, so the Liouvillian is not real")


def _evolved_entries(model: LindbladModel | _Liouvillian, rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries (rows, cols) to propagate from rho0, in vec order: the sectors that rho0 or its transpose touches.

    The sectors are the `_components` of the triplets' graph, which the
    Liouvillian maps into themselves, each entry's mirror among them; every
    other entry stays exactly 0. From |g,g,0> that is the sector of rho[0, 0].
    """
    d = model.layout.dim
    rows, cols = (model.rows, model.cols) if isinstance(model, _Liouvillian) else _triplets(model)[:2]
    labels = _components(d * d, rows, cols)
    touched = ((rho0 != 0) | (rho0.T != 0)).ravel(order="F")
    entries = np.flatnonzero(np.isin(labels, labels[touched]))
    return entries % d, entries // d


def steady_state(model: LindbladModel) -> np.ndarray:
    """Unique stationary state of the model.

    Works on the sectors of one `_Liouvillian` (see `_evolved_entries`); the
    d^2 x d^2 matrix is never formed. Uniqueness pools the singular values of
    every sector, those of the whole matrix. A sector's transpose has the same
    block up to order, so one of each pair is built, counted twice unless it
    is its own transpose; the sector of rho[0, 0] counts as its s and a
    halves, each scaled by the coordinates' norms to keep the singular values.
    The state solves L vec(rho) = 0 on that s half, its first row (entry
    rho[0, 0]) replaced by the trace functional. A Liouvillian that is not real
    raises ValueError (`_require_real_frame`). Degenerate stationary manifolds
    (e.g. undamped atoms, or populations in two sectors) raise RankDeficientError
    rather than returning an arbitrary representative, as does a Liouvillian
    whose entries or singular values overflow, or whose slowest rate is below
    TOLERANCE times its largest singular value, too small to tell a null
    direction; so does a residual above TOLERANCE times the largest |H| entry or rate.
    """
    if not any(rate > 0 for rate, _ in model.collapse_terms):
        raise RankDeficientError("no dissipation: every density matrix commuting with H is stationary")
    d = model.dim
    liouvillian = _Liouvillian.of(model)
    labels = _components(d * d, liouvillian.rows, liouvillian.cols)
    order = np.argsort(labels, kind="stable")
    (populated, *sectors) = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    rows, cols = populated % d, populated // d
    populations = SectorBlocks.of(liouvillian, rows, cols)
    n_s = len(populations._upper)  # the s coordinates, which hold every population, come first
    diagonal = rows[populations.owners] == cols[populations.owners]  # the coordinates that are a diagonal entry
    # every other coordinate's image in the entries has length sqrt(2); scaled by these norms the
    # coordinates map unitarily to the entries, which keeps the complex block's singular values
    norms = np.where(diagonal, 1.0, math.sqrt(2.0))
    scaled = populations.block * np.outer(norms, 1.0 / norms)
    blocks, counts = [scaled[:n_s, :n_s], scaled[n_s:, n_s:]], [1, 1]
    for entries in sectors:
        mirror = labels[entries[0] // d + d * (entries[0] % d)]  # the label of the transposed sector
        if mirror >= entries[0]:
            blocks.append(liouvillian.block(entries % d, entries // d))
            counts.append(1 if mirror == entries[0] else 2)

    svals = None
    if all(np.isfinite(block).all() for block in blocks):
        spectra = [np.linalg.svd(block, compute_uv=False) for block in blocks]
        svals = np.concatenate([spectrum for spectrum, count in zip(spectra, counts) for _ in range(count)])
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

    a = populations.block[:n_s, :n_s].copy()
    a[0, :] = 0.0
    a[0, diagonal[:n_s]] = 1.0  # the trace functional
    b = np.zeros(n_s)
    b[0] = 1.0
    c = np.zeros(len(populations.owners))
    c[:n_s] = np.linalg.solve(a, b)
    rho = np.zeros((d, d), dtype=complex)
    rho[rows, cols] = populations.entries(c)

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
