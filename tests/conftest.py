import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest

from noisycav.dynamics import (
    TOLERANCE,
    IntegratorSettings,
    PositivityLossError,
    TraceDriftError,
    _evolved_entries,
    evolve,
    lindblad_rhs,
)
from noisycav.model import (
    ATOM_A,
    ATOM_B,
    CAVITY,
    build_interaction_hamiltonian,
    build_model,
    collective_mode_operators,
    ground_state,
)
from noisycav.qops import dagger, embed, number_operator


def random_density_matrix(rng, dim, rank=None):
    """GG†/tr(GG†): full rank unless `rank` says otherwise."""
    k = rank or dim
    g = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_hermitian(rng, dim, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_trace_one_hermitian(rng, dim):
    """Hermitian with unit trace, not necessarily positive."""
    h = random_hermitian(rng, dim)
    h = h - (np.trace(h).real - 1.0) / dim * np.eye(dim)
    return h


def vec(mat):
    """Column-stacking vectorization, the entry order of `vectorize_superoperator`."""
    return mat.reshape(-1, order="F")


def unvec(v, dim):
    return v.reshape(dim, dim, order="F")


def lindblad_block(model, rows, cols):
    """The complex block of the Liouvillian on the entries rho[rows, cols], column by column from `lindblad_rhs`.

    Column a is `lindblad_rhs` of the unit matrix of the entry rho[rows[a], cols[a]],
    read at the entries, so neither triplets nor a vectorized superoperator are used.
    """
    d = model.dim
    block = np.empty((len(rows), len(rows)), dtype=complex)
    for a, (i, j) in enumerate(zip(rows, cols)):
        unit = np.zeros((d, d), dtype=complex)
        unit[i, j] = 1.0
        block[:, a] = lindblad_rhs(model, unit)[rows, cols]
    return block


def stepwise_evolve(model, rho0, dt, record_times):
    """`evolve`'s schedule in classical RK4 of stage form, with the drift gate run after every single step.

    Each step is four stages, each a product with the complex block of the
    entries `evolve` propagates (`lindblad_block`), so neither the real coordinates nor a step
    matrix of the program is used. Each product is made exactly Hermitian, as
    it is in exact arithmetic, so every state is exactly Hermitian, as
    `evolve`'s are by construction. The loop checks the trace drift
    max(|tr rho - 1|, max |rho_ij| - 1) of each step's state and each
    recorded state's smallest eigenvalue. A drift error names the failing
    step, where `evolve`, which gates recorded states only, names the first
    record at or after it. Returns the recorded d x d states.
    """
    d = model.dim
    rows, cols = _evolved_entries(model, rho0)
    block = lindblad_block(model, rows, cols)
    pos = np.full((d, d), -1)
    pos[rows, cols] = np.arange(len(rows))
    mirror, diagonal = pos[cols, rows], np.flatnonzero(rows == cols)

    def rhs(y):
        k = block @ y
        return 0.5 * (k + k[mirror].conj())

    x = rho0[rows, cols].astype(complex)
    states, t_prev = [], 0.0
    for t_rec in record_times:
        span = t_rec - t_prev
        if span > 1e-12 * max(1.0, t_rec):
            n_steps = max(1, math.ceil(span / dt - 1e-9))
            h = span / n_steps
            for n in range(1, n_steps + 1):
                k1 = rhs(x)
                k2 = rhs(x + 0.5 * h * k1)
                k3 = rhs(x + 0.5 * h * k2)
                k4 = rhs(x + h * k3)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                drift = float(np.maximum(abs(x[diagonal].sum().real - 1.0), np.abs(x).max() - 1.0))
                if not drift <= TOLERANCE:
                    raise TraceDriftError(f"trace drift {drift:.3e} near t={t_prev + n * h:.6g}; reduce dt")
            t_prev = t_rec
        rho = np.zeros((d, d), dtype=complex)
        rho[rows, cols] = x
        min_eig = float(np.linalg.eigvalsh(rho)[0])
        if not min_eig >= -TOLERANCE:
            raise PositivityLossError(f"smallest eigenvalue {min_eig:.3e} at t={t_rec:.6g}")
        states.append(rho)
    return states


def pauli_z():
    """sigma_z = |e><e| - |g><g| in the |g>=0, |e>=1 ordering."""
    return np.diag([-1.0, 1.0]).astype(complex)


def lab_hamiltonian(cfg, omega, omega_f):
    """Lab-frame Hamiltonian: free energies (omega/2) sigma_z per atom and omega_f a^dag a plus the exchange.

    On resonance (omega == omega_f) the free part commutes with the exchange,
    so this frame and the interaction picture give the same reduced-atom
    dynamics; off resonance it is a second model with the same symmetry.
    """
    layout = cfg.layout
    h0 = 0.5 * omega * (embed(pauli_z(), ATOM_A, layout) + embed(pauli_z(), ATOM_B, layout))
    h0 = h0 + omega_f * embed(number_operator(cfg.cutoff), CAVITY, layout)
    return h0 + build_interaction_hamiltonian(cfg)


def lab_model(cfg, omega, omega_f):
    """`build_model(cfg)` with `lab_hamiltonian` in place of the interaction-picture Hamiltonian."""
    return dataclasses.replace(build_model(cfg), hamiltonian=lab_hamiltonian(cfg, omega, omega_f))


def has_interior_extremum(values, band=1e-6):
    """True if some interior point is a strict extremum beyond the noise band."""
    v = np.asarray(values, dtype=float)
    for i in range(1, len(v) - 1):
        if v[i] > max(v[i - 1], v[i + 1]) + band:
            return True
        if v[i] < min(v[i - 1], v[i + 1]) - band:
            return True
    return False


@dataclasses.dataclass(frozen=True)
class ModeBReport:
    decoupled: bool
    max_population: float
    bound: float


def verify_mode_b_decoupling(cfg, t_max=10.0):
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def recording_pool(monkeypatch):
    """A stand-in for the sweep's process pool, so a real pool is never started.

    Returns the lists of the `max_workers` of every pool made and the
    `chunksize` of every map; the tasks run in this process.
    """
    sizes, chunks = [], []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            chunks.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return sizes, chunks
