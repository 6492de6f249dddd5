import numpy as np
import pytest

import noisycav.sweep


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

    monkeypatch.setattr(noisycav.sweep, "ProcessPoolExecutor", RecordingExecutor)
    return sizes, chunks
