"""Wootters concurrence of a two-qubit state.

c(rho) = max(0, l1 - l2 - l3 - l4), where the l_i are the square roots of the
eigenvalues of rho * rho_tilde in decreasing order and rho_tilde is the
spin-flipped state (sigma_y kron sigma_y) rho^* (sigma_y kron sigma_y).

The l_i are computed here as the square-rooted eigenvalues of the Hermitian
matrix sqrt(rho) rho_tilde sqrt(rho), which has the same spectrum as the
non-Hermitian product but needs only Hermitian eigensolves. A characteristic-
polynomial evaluation of the product's spectrum lives in the test suite as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qops import assert_density_matrix

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value, the unclamped margin l1 - l2 - l3 - l4 it clamps, the lambdas and diagnostics."""

    value: float
    margin: float
    lambdas: tuple[float, float, float, float]
    max_imag_residue: float
    min_eig_clipped: float


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """(sigma_y kron sigma_y) rho^* (sigma_y kron sigma_y), basis |gg>,|ge>,|eg>,|ee>."""
    if rho.shape != (4, 4):
        raise ValueError(f"spin flip needs a 4x4 matrix, got shape {rho.shape}")
    return _YY @ rho.conj() @ _YY


def concurrence(rho: np.ndarray) -> ConcurrenceResult:
    """Wootters concurrence of a valid two-qubit density matrix."""
    if rho.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 density matrix, got shape {rho.shape}")
    assert_density_matrix(rho)

    # negative eigenvalues within the gate are clipped; the product below is then PSD up to round-off
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    clipped = float(min(w.min(), 0.0))
    w = np.clip(w, 0.0, None)
    rho_psd = (v * w) @ v.conj().T
    sqrt_rho = (v * np.sqrt(w)) @ v.conj().T

    product = sqrt_rho @ spin_flip(rho_psd) @ sqrt_rho
    max_imag = float(np.abs(product - product.conj().T).max())
    mu = np.linalg.eigvalsh(0.5 * (product + product.conj().T))
    clipped = min(clipped, float(min(mu.min(), 0.0)))
    lambdas = np.sqrt(np.clip(mu, 0.0, None))[::-1]

    margin = float(lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3])
    return ConcurrenceResult(
        value=min(max(margin, 0.0), 1.0),
        margin=margin,
        lambdas=tuple(float(x) for x in lambdas),
        max_imag_residue=max_imag,
        min_eig_clipped=clipped,
    )
