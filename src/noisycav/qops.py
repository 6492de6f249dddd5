"""Hilbert-space plumbing shared by the whole package.

Operators are plain complex numpy arrays of shape (dim, dim). Two global
conventions are fixed here and consumed everywhere else:

  * qubit basis ordering |g> = index 0, |e> = index 1 (so sigma_z|e> = +|e>);
  * composite legs ordered [atom a, atom b, cavity], left factor slowest
    (standard Kronecker ordering), encoded by SpaceLayout.

Density matrices are operators that pass ``assert_density_matrix``: finite,
Hermitian to HERMITICITY_TOL = 1e-10, unit trace to TOLERANCE = 1e-8 and smallest
eigenvalue >= -TOLERANCE. Every gate is written so that NaN fails it (`not x <= tol`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
# also the bound on each `evolve` record's drift and on `steady_state`'s residual relative to
# the model's scale
TOLERANCE = 1e-8


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered subsystem dimensions of a composite Hilbert space."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor_dims must be positive integers, got {self.factor_dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return math.prod(self.factor_dims)

    @property
    def nfactors(self) -> int:
        return len(self.factor_dims)


def excitation_numbers(layout: SpaceLayout) -> np.ndarray:
    """Total excitation of every composite basis index.

    The sum of the index's factor indices: |g> counts 0, |e> counts 1 and the
    Fock state |n> counts n.
    """
    return np.indices(layout.factor_dims).reshape(layout.nfactors, -1).sum(axis=0)


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis ket |index> as a length-dim vector."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    ket = np.zeros(dim, dtype=complex)
    ket[index] = 1.0
    return ket


def dagger(op: np.ndarray) -> np.ndarray:
    return op.conj().T


def annihilation(cutoff: int) -> np.ndarray:
    """Fock-space annihilation operator truncated at `cutoff` photons.

    Returns the (cutoff+1) x (cutoff+1) matrix with <n-1|a|n> = sqrt(n).
    The truncation is a hard cutoff: [a, a^dag] is diagonal with every
    entry 1 except (cutoff, cutoff) = -cutoff.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be at least 1, got {cutoff}")
    return np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1).astype(complex)


def number_operator(cutoff: int) -> np.ndarray:
    if cutoff < 1:
        raise ValueError(f"cutoff must be at least 1, got {cutoff}")
    return np.diag(np.arange(cutoff + 1, dtype=float)).astype(complex)


def sigma_plus() -> np.ndarray:
    """|e><g| in the |g>=0, |e>=1 ordering."""
    return np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def sigma_minus() -> np.ndarray:
    """|g><e| in the |g>=0, |e>=1 ordering."""
    return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def excited_projector() -> np.ndarray:
    return np.diag([0.0, 1.0]).astype(complex)


def embed(op: np.ndarray, slot: int, layout: SpaceLayout) -> np.ndarray:
    """Lift `op` acting on one factor to the composite space (unit operator on every other factor)."""
    dims = layout.factor_dims
    if not 0 <= slot < len(dims):
        raise ValueError(f"slot {slot} out of range for layout {dims}")
    if op.shape != (dims[slot], dims[slot]):
        raise ValueError(
            f"operator of shape {op.shape} does not fit factor {slot} of dimension {dims[slot]}"
        )
    out = np.eye(1, dtype=complex)
    for s, d in enumerate(dims):
        out = np.kron(out, op if s == slot else np.eye(d, dtype=complex))
    return out


def partial_trace(rho: np.ndarray, layout: SpaceLayout, keep) -> np.ndarray:
    """Reduced matrix on the kept factors, in their original relative order."""
    dims = layout.factor_dims
    n = len(dims)
    keep_sorted = sorted(set(int(s) for s in keep))
    if not keep_sorted:
        raise ValueError("keep must name at least one factor")
    for s in keep_sorted:
        if not 0 <= s < n:
            raise ValueError(f"invalid slot index {s} for layout {dims}")
    if rho.shape != (layout.dim, layout.dim):
        raise ValueError(f"state of shape {rho.shape} does not match layout dimension {layout.dim}")

    work = rho.reshape(dims + dims)
    remaining = list(range(n))
    for slot in reversed([s for s in range(n) if s not in keep_sorted]):
        pos = remaining.index(slot)
        work = np.trace(work, axis1=pos, axis2=len(remaining) + pos)
        remaining.remove(slot)
    d_keep = math.prod(dims[s] for s in keep_sorted)
    return work.reshape(d_keep, d_keep)


def expectation(op: np.ndarray, rho: np.ndarray) -> float:
    """Re tr(op rho); real part only (Hermitian observables)."""
    return float(np.einsum("ij,ji->", op, rho).real)


def density_matrix_defects(rho: np.ndarray) -> tuple[float, float, float]:
    """(hermiticity defect, |trace - 1|, smallest eigenvalue) of a candidate state.

    The last two are those of its Hermitian part.
    """
    herm = float(np.abs(rho - rho.conj().T).max())
    return (herm, *hermitian_defects(0.5 * (rho + rho.conj().T)))


def hermitian_defects(rho: np.ndarray) -> tuple[float, float]:
    """(|trace - 1|, smallest eigenvalue) of a candidate state that is exactly Hermitian.

    `density_matrix_defects` without the Hermiticity defect, which is 0, and
    without taking the Hermitian part, which is rho itself.
    """
    return float(abs(rho.trace() - 1.0)), float(np.linalg.eigvalsh(rho)[0])


def assert_density_matrix(rho: np.ndarray) -> None:
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.isfinite(rho).all():  # before the eigensolve, which fails on NaN with LinAlgError
        raise ValueError("density matrix has non-finite entries")
    herm, trace, min_eig = density_matrix_defects(rho)
    if not herm <= HERMITICITY_TOL:
        raise ValueError(f"not Hermitian: defect {herm:.3e} exceeds {HERMITICITY_TOL:.1e}")
    if not trace <= TOLERANCE:
        raise ValueError(f"trace deviates from 1 by {trace:.3e} (tolerance {TOLERANCE:.1e})")
    if not min_eig >= -TOLERANCE:
        raise ValueError(f"not positive: smallest eigenvalue {min_eig:.3e} below -{TOLERANCE:.1e}")
