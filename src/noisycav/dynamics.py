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
d^2 x d^2 block. Those entries x hold conj(rho[i, j]) = rho[j, i] at
x[mirror] for each rho[i, j], so `evolve` steps real coordinates: s, one per
pair i <= j, and a, one per pair i < j, read back by index gathers as
x = s +- i a, the sign + for i < j and - for i > j (s alone on the diagonal),
so every state is exactly Hermitian.

The model's Hamiltonian is imaginary and each jump real or imaginary (the
phase convention of `model.build_interaction_hamiltonian`), so the Liouvillian
is a real map as written; `_require_real_frame` checks this exactly per model
and refuses a model without it, such as a textbook exchange g (sigma_+ a +
h.c.). It maps the real symmetric part s and the imaginary antisymmetric part
a of rho each to itself: separate sectors, and a real start such as |g,g,0>
has no a, so `evolve` steps s alone, 54 coordinates for the 84 entries at
cutoff 5 (104 for 164 at cutoff 10). The generator G of the coordinates is
gathered from the rows and columns of the real block B
(`SectorBlocks.with_model`), and the evaluator `make_rhs` is one product with G.
For this linear equation an RK4 step of size h is the matrix S = p(hG),
p(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, which `_step_map` builds by Horner's
rule with three `make_rhs` products, once per distinct h in an evolution.
In place of a model, `evolve` also takes `SectorBlocks` built elsewhere,
also a stack of K generators on the same coordinates, a block of shape
(K, m, m): a sweep builds its generator once, re-weights it per cell and
evolves a few cells at a time as one stack (see `sweep`). The stack is the
leading axis of every array of the evolution, and each generator's slice
goes through the same BLAS and LAPACK calls as it would alone, so a stack
gives each generator bit for bit what it gives alone.
A record span of n steps of size h is n products with S, taken as one
product with S^(2^k) for each set bit k of n. The powers S, S^2, S^4, ... are
squared as first needed and kept per h for the whole evolution (for a stack,
one stack of powers), so a span costs at most log2(n) + 1 matrix-vector
products once its powers exist, and only recorded states are formed. Each
record's entries x pass the drift gate first: the trace drift
max(|tr rho - 1|, max |rho_ij| - 1) must be within the tolerance, a NaN
failing. The entries of the generators that pass are then scattered into
d x d matrices for the gate alone, whose trace and smallest eigenvalue
`qops.hermitian_defects` gives for the whole stack at once, from one batched
`eigvalsh`; the smallest
eigenvalue must pass the positivity gate. A generator that failed a gate is
stepped on, NaN or not, but never reaches the eigensolver again. The error
raised is the earliest failure of the first failing generator in stack
order, which names its record time and whose `index` is that generator's
position; a failure of the first generator raises at once. Each matrix is exactly
Hermitian, so no Hermiticity check or Hermitian part is needed. The stored
state, reduced or full (the partial trace that keeps every factor), and the
observables are fixed linear maps of x, read off all records by one matrix
product per map: `SectorBlocks.reduction`, built by one stacked
`partial_trace` call per entry set and kept factors and kept for every cell
of a sweep, and the m x n map of op[cols, rows] for the m observables, each
a (d, d) array. RK4 keeps the trace up to round-off,
so it is the |rho_ij| <= 1 term that stops a step too large for the rates:
its unstable mode grows geometrically over the span, and the record that
ends it fails, by an entry past 1 or, once the powers overflow, by a state
that is not finite. Accuracy is certified by step halving, not by an embedded
error estimator.

`steady_state` solves on the s coordinates of the q = 0 sector, and checks
uniqueness on the pooled singular values of s, a and every q > 0 block,
building only the q >= 0 ones, each real. The residual it reports is the
master equation evaluated on the full space.
`vectorize_superoperator` builds the whole matrix with the same code;
tests check it against `lindblad_rhs`.
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
    excitation_numbers,
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
    def of(cls, model: LindbladModel, rows: np.ndarray, cols: np.ndarray,
           start: np.ndarray | None = None) -> SectorBlocks:
        """The generator of `model` on the coordinates of the entries rho[rows, cols].

        Given a `start` (a d x d state) whose entries are real, such as
        |g,g,0>, a is dropped: s alone. Otherwise both.
        """
        antisymmetric = start is None or bool(np.asarray(start)[rows, cols].imag.any())
        return cls(model.layout, rows, cols, antisymmetric=antisymmetric).with_model(model)

    def with_model(self, model: LindbladModel) -> SectorBlocks:
        """The generator of `model` on the same coordinates, gathered from the block B of the entries.

        B is real, which `_require_real_frame` checks first, so s and a are
        separate sectors: each coordinate's row is the row of its entry, and
        its column sums the columns of its entry and the mirror, with the
        signs of +-i a.
        """
        _require_real_frame(model)
        n_s, upper, strict, lower = len(self._upper), self._upper, self._strict, self.mirror[self._strict]
        b = _superoperator_block(model, self.rows, self.cols, self.owners).real
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

    The state is stepped in real coordinates (see the module docstring), from
    rho0's Hermitian part. Each record span of n equal steps is applied by
    binary powers of the step matrix, and only recorded states are formed.
    Every recorded state passes the trace drift gate, then the
    positivity gate; an error names the time of the earliest failing record
    of the first failing generator in stack order, whose position is the
    error's `index`.
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
        generator = SectorBlocks.of(model, *_evolved_entries(model, rho0), rho0)
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


def _superoperator_block(model: LindbladModel, rows: np.ndarray, cols: np.ndarray, out=None) -> np.ndarray:
    """Rows and columns of `vectorize_superoperator` for the entries rho[rows[a], cols[a]].

    With `out` (positions among the entries), only the rows of those entries.

    With M = iH + sum_k rate_k L_k^dag L_k and J_k = sqrt(2 rate_k) L_k
    (zero-rate terms dropped) the equation reads

        drho/dt = -(M rho + rho M^dag) + sum_k J_k rho J_k^dag,

    which vectorizes to -(I kron M + M^* kron I) + sum_k J_k^* kron J_k.
    Uses the kron rule (A kron B)[(j,i),(l,k)] = A[j,l] B[i,k] on the
    chosen entries only, so a block costs its own size, not d^4.
    """
    eye = np.eye(model.dim, dtype=complex)
    out = slice(None) if out is None else out
    col_pairs, row_pairs = np.ix_(cols[out], cols), np.ix_(rows[out], rows)

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


def _coherence_sectors(model: LindbladModel) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Entries (rows, cols) of rho grouped into sectors the Liouvillian maps into themselves, with their order q.

    When H conserves the total excitation N and every collapse operator shifts
    N by one fixed amount, the coherence order q = N_i - N_j of rho[i, j] is
    conserved, and each q is a sector, the transpose of the -q one. Otherwise
    all entries form one sector, given q = 0. The q = 0 sector comes first, and entries keep
    their vec order within a sector, so rho[0, 0] is the first entry of the first.
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
        return [(0, rows, cols)]
    order = n[rows] - n[cols]
    return [(q, rows[order == q], cols[order == q]) for q in sorted(set(order.tolist()), key=abs)]


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
    sectors = [(rows, cols) for _, rows, cols in _coherence_sectors(model) if touched[rows, cols].any()]
    return np.concatenate([rows for rows, _ in sectors]), np.concatenate([cols for _, cols in sectors])


def steady_state(model: LindbladModel) -> np.ndarray:
    """Unique stationary state of the model.

    Works on the coherence sectors of the Liouvillian (see `_coherence_sectors`),
    so for an excitation-conserving model the full d^2 x d^2 matrix is never
    formed; otherwise the one sector is the dense solve. Uniqueness pools the singular values of
    every sector, which are those of the full block-diagonal matrix, so a
    stationary coherence in any sector counts: the q = 0 sector is its s and a
    halves, each scaled by the coordinates' norms to keep the singular values,
    and each q > 0 spectrum counts twice, for the -q sector, which is not
    built. A model whose Liouvillian is not real as written raises ValueError
    (`_require_real_frame`). The state solves L vec(rho) = 0 on the s half of
    the q = 0 sector, with its first row
    (entry rho[0, 0]) replaced by the trace functional. Degenerate stationary manifolds (extra null directions,
    e.g. undamped atoms) raise RankDeficientError rather than returning an
    arbitrary representative, as does a Liouvillian whose entries or singular values overflow,
    or whose slowest rate is below TOLERANCE times its largest singular value, too small to
    tell a null direction; so does a residual above TOLERANCE times the largest |H| entry or rate.
    """
    if not any(rate > 0 for rate, _ in model.collapse_terms):
        raise RankDeficientError("no dissipation: every density matrix commuting with H is stationary")
    d = model.dim
    (_, rows, cols), *coherences = [(q, r, c) for q, r, c in _coherence_sectors(model) if q >= 0]
    populations = SectorBlocks.of(model, rows, cols)
    n_s = len(populations._upper)  # the s coordinates, which hold every population, come first
    diagonal = rows[populations.owners] == cols[populations.owners]  # the coordinates that are a diagonal entry
    # every other coordinate's image in the entries has length sqrt(2); scaled by these norms the
    # coordinates map unitarily to the entries, which keeps the complex block's singular values
    norms = np.where(diagonal, 1.0, math.sqrt(2.0))
    scaled = populations.block * np.outer(norms, 1.0 / norms)
    blocks = [scaled[:n_s, :n_s], scaled[n_s:, n_s:]]
    blocks += [_superoperator_block(model, r, c).real for _, r, c in coherences]

    svals = None
    if all(np.isfinite(block).all() for block in blocks):
        spectra = [np.linalg.svd(block, compute_uv=False) for block in blocks]
        svals = np.concatenate(spectra + spectra[2:])  # each q > 0 spectrum is also the -q one
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
