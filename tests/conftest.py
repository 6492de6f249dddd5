import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest

from noisycav.dynamics import (
    TOLERANCE,
    HermiticityDriftError,
    PositivityLossError,
    TraceDriftError,
    _evolved_entries,
    _superoperator_block,
)
from noisycav.model import ATOM_A, ATOM_B, CAVITY, build_interaction_hamiltonian, build_model
from noisycav.qops import embed, number_operator, pauli_z


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


def stepwise_evolve(model, rho0, dt, record_times):
    """`evolve`'s schedule in classical RK4 of stage form, with the drift gates run after every single step.

    Each step is four stages, each a product with the block of the entries
    `evolve` propagates, so no step matrix of the program is used. Each
    product is made exactly Hermitian, as it is in exact arithmetic: on a
    state grown far past 1 its round-off alone, which depends on the BLAS
    kernel's summation order, exceeds the Hermiticity gate's absolute
    tolerance. So that gate stops only a state that is not finite. The loop
    checks the Hermiticity drift and then the trace drift
    max(|tr rho - 1|, max |rho_ij| - 1) of each step's state, re-Hermitizes
    after every step and checks each recorded state's smallest eigenvalue. It
    raises the error `evolve` raises, naming the same time, and returns the
    recorded d x d states.
    """
    d = model.dim
    rows, cols = _evolved_entries(model, rho0)
    block = _superoperator_block(model, rows, cols)
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
                raw = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                mirrored = raw[mirror].conj()
                herm_drift = float(np.abs(raw - mirrored).max())
                if not herm_drift <= TOLERANCE:
                    raise HermiticityDriftError(f"Hermiticity drift {herm_drift:.3e} near t={t_prev + n * h:.6g}")
                x = 0.5 * (raw + mirrored)
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
