"""Reference solutions for the benchmark's correctness checks.

Everything here is built from the model conventions stated in the README,
without importing noisycav: legs ordered [atom a, atom b, cavity] with the
left factor slowest, |g> = 0 and |e> = 1, the resonant exchange Hamiltonian
H = sum_i g_i (sigma_i^- a^dag + h.c.), and the channels (kappa (n_T + 1), a),
(kappa n_T, a^dag), (gamma, sigma_a^-), (gamma, sigma_b^-) entering as
rate * (2 L rho L^dag - L^dag L rho - rho L^dag L).

Every term changes the total excitation number by 0 or +-1, so the
Liouvillian maps the density-matrix entries whose row and column carry the
same excitation number (the zero-coherence sector) into themselves. The
ground state |g,g,0> lies in that sector and, by the same symmetry, so does a
unique stationary state. The dense Liouvillian restricted to the sector
(84 of 576 entries at cutoff 5, 164 of 1936 at cutoff 10) therefore gives the
exact transient states, through its matrix exponential, and the exact steady
state, as its null vector, while staying small enough that the checks add
almost nothing to the process's memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass(frozen=True)
class Physics:
    """The parameters a workload passes to the program."""

    cutoff: int
    n_thermal: float = 0.0
    kappa: float = 2.0
    gamma: float = 0.2
    g_a: float = 1.0
    g_b: float = 1.0


class SectorModel:
    """Dense Liouvillian on the zero-coherence sector of one parameter set."""

    def __init__(self, p: Physics):
        dc = p.cutoff + 1
        eye2, eyec = np.eye(2), np.eye(dc)
        lower_a = np.kron(np.kron(_SIGMA_MINUS, eye2), eyec)
        lower_b = np.kron(np.kron(eye2, _SIGMA_MINUS), eyec)
        a = np.kron(np.eye(4), np.diag(np.sqrt(np.arange(1.0, dc)), k=1).astype(complex))
        exchange = (p.g_a * lower_a + p.g_b * lower_b) @ a.conj().T
        h = exchange + exchange.conj().T
        channels = [
            (p.kappa * (p.n_thermal + 1.0), a),
            (p.kappa * p.n_thermal, a.conj().T),
            (p.gamma, lower_a),
            (p.gamma, lower_b),
        ]
        excitation = (
            np.arange(2)[:, None, None] + np.arange(2)[None, :, None] + np.arange(dc)[None, None, :]
        ).ravel()
        inside = excitation[:, None] == excitation[None, :]
        rows, cols = np.nonzero(inside)

        sink = sum(rate * (op.conj().T @ op) for rate, op in channels)
        gen = np.empty((len(rows), len(rows)), dtype=complex)
        for k, (r, c) in enumerate(zip(rows, cols)):
            # L(|r><c|), term by term: -i[H, E] - {sink, E} + sum 2 rate L E L^dag.
            x = np.zeros((4 * dc, 4 * dc), dtype=complex)
            x[:, c] += -1j * h[:, r] - sink[:, r]
            x[r, :] += 1j * h[c, :] - sink[c, :]
            for rate, op in channels:
                x += (2.0 * rate) * np.outer(op[:, r], op[:, c].conj())
            if np.any(x[~inside]):
                raise AssertionError("Liouvillian leaves the zero-coherence sector")
            gen[:, k] = x[rows, cols]

        self.dim = 4 * dc
        self.cutoff = p.cutoff
        self.generator = gen
        self._rows, self._cols = rows, cols

    def to_density_matrix(self, v: np.ndarray) -> np.ndarray:
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[self._rows, self._cols] = v
        return rho

    def evolve_ground_state(self, t: float) -> np.ndarray:
        """exp(L t) applied to |g,g,0><g,g,0|."""
        v0 = np.zeros(len(self._rows), dtype=complex)
        v0[0] = 1.0  # entry (0, 0) comes first in row-major order
        return self.to_density_matrix(expm(self.generator * t) @ v0)

    def steady_state(self) -> np.ndarray:
        """Trace-normalized null vector; raises if the null space is not one-dimensional."""
        _, s, vh = np.linalg.svd(self.generator)
        if not (s[-1] <= 1e-10 * s[0] < s[-2] * 1e-2):
            raise AssertionError(f"sector null space is not one-dimensional: singular values {s[-3:]}")
        rho = self.to_density_matrix(vh[-1].conj())
        rho = rho / np.trace(rho)
        return 0.5 * (rho + rho.conj().T)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a degree-18 Taylor series.

    The scaled matrix has 1-norm at most 1/2, so the truncated series is
    exact to far below double precision before squaring.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    a = a / 2.0**squarings
    result = np.eye(a.shape[0], dtype=complex)
    term = result
    for k in range(1, 19):
        term = term @ a / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def reduced_atoms(rho: np.ndarray) -> np.ndarray:
    dc = rho.shape[0] // 4
    return np.einsum("ikjk->ij", rho.reshape(4, dc, 4, dc))


def photon_distribution(rho: np.ndarray) -> np.ndarray:
    dc = rho.shape[0] // 4
    return np.einsum("aiai->i", rho.reshape(4, dc, 4, dc)).real


def mean_photon(rho: np.ndarray) -> float:
    p = photon_distribution(rho)
    return float(np.arange(len(p)) @ p)


def concurrence(atoms: np.ndarray) -> float:
    """Wootters: max(0, l1 - l2 - l3 - l4), l_i the square roots of eig(rho rho~)."""
    tilde = _YY @ atoms.conj() @ _YY
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(atoms @ tilde).real, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
