"""Wootters concurrence of a two-qubit state.

c(rho) = max(0, l1 - l2 - l3 - l4), where the l_i are the square roots of the
eigenvalues of rho * rho_tilde in decreasing order and rho_tilde is the
spin-flipped state (sigma_y kron sigma_y) rho^* (sigma_y kron sigma_y)
(Wootters, PRL 80, 2245 (1998)).

An X-state, whose every entry off the diagonal and the anti-diagonal is
exactly 0, takes a closed form (Yu & Eberly, QIC 7, 459 (2007)): it is the sum
of two 2x2 blocks [[a, z], [z^*, b]], the outer one on |gg>, |ee> and the
inner one on |ge>, |eg>, and each gives the l_i sqrt(a b) + |z| and
sqrt(a b) - |z|. Every record of a trajectory from a start without coherence
between different excitation numbers, and every steady state's reduced atoms,
is an X-state.

Any other state takes Wootters' path: the l_i are the square-rooted
eigenvalues of the Hermitian matrix sqrt(rho) rho_tilde sqrt(rho), which has
the same spectrum as the non-Hermitian product but needs only Hermitian
eigensolves. Both paths first clip the negative eigenvalues the positivity
gate lets through. A characteristic-polynomial evaluation of the product's
spectrum lives in the test suite as an independent oracle of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qops import assert_density_matrix

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)
# the entries of a 4x4 matrix off its diagonal and its anti-diagonal, all 0 in an X-state
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


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
    """Wootters concurrence of a valid two-qubit density matrix, in closed form for an X-state."""
    if rho.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 density matrix, got shape {rho.shape}")
    assert_density_matrix(rho)

    lambdas, max_imag, clipped = _wootters(rho) if rho[_OFF_X].any() else _x_state(rho)
    margin = float(lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3])
    return ConcurrenceResult(
        value=min(max(margin, 0.0), 1.0),
        margin=margin,
        lambdas=tuple(float(x) for x in lambdas),
        max_imag_residue=max_imag,
        min_eig_clipped=clipped,
    )


def _wootters(rho: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(the l_i in decreasing order, the product's anti-Hermitian residue, the most negative eigenvalue clipped)."""
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
    return np.sqrt(np.clip(mu, 0.0, None))[::-1], max_imag, clipped


def _x_state(rho: np.ndarray) -> tuple[list[float], float, float]:
    """`_wootters` of an X-state, in closed form; it forms no product, so the residue is 0.0."""
    lambdas, clipped, entries = [], 0.0, rho.tolist()
    for i, j in ((0, 3), (1, 2)):  # the outer and the inner block, of the Hermitian part of rho
        a, b = entries[i][i].real, entries[j][j].real
        z = abs(0.5 * (entries[i][j] + entries[j][i].conjugate()))
        mean, half = 0.5 * (a + b), 0.5 * (a - b)
        radius = math.hypot(half, z)
        low, high = mean - radius, mean + radius  # the block's eigenvalues
        clipped = min(clipped, low)
        if low < 0.0:  # clipped, the block is high v v^H, with |v_0|^2 = (radius + half) / (2 radius)
            scale = max(high, 0.0) / (2.0 * radius) if radius > 0.0 else 0.0
            a, b, z = scale * (radius + half), scale * (radius - half), scale * z
        root = math.sqrt(max(a * b, 0.0))
        lambdas += [root + z, abs(root - z)]  # the root of the product's eigenvalue (root - z)^2
    return sorted(lambdas, reverse=True), 0.0, clipped
