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


def kept_slots(layout: SpaceLayout, keep) -> tuple[int, ...]:
    """The factors `keep` names, sorted and without repeats; ValueError unless each is an integer slot of `layout`."""
    keep = list(keep)
    for s in keep:
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
            raise ValueError(f"slot {s!r} is not an integer")
        if not 0 <= s < layout.nfactors:
            raise ValueError(f"invalid slot index {s} for layout {layout.factor_dims}")
    if not keep:
        raise ValueError("keep must name at least one factor")
    return tuple(sorted({int(s) for s in keep}))


def partial_trace(rho: np.ndarray, layout: SpaceLayout, keep) -> np.ndarray:
    """Reduced matrix on the kept factors, in their original relative order, of a matrix or of each of a stack.

    `rho` has shape (..., d, d), d the layout's dimension, and the result
    (..., k, k). It is always a new array, never a view of `rho`, also when
    `keep` names every factor. Each matrix of a stack is traced by the same
    `np.trace` calls as alone, offset by the leading axes.
    """
    dims = layout.factor_dims
    keep = kept_slots(layout, keep)
    if rho.shape[-2:] != (layout.dim, layout.dim):
        raise ValueError(f"state of shape {rho.shape} does not match layout dimension {layout.dim}")

    lead = rho.shape[:-2]
    work = rho.reshape(lead + dims + dims)
    for slot in reversed(range(len(dims))):  # the last first, so each factor's row axis stays at its slot
        if slot not in keep:
            pos, remaining = len(lead) + slot, (work.ndim - len(lead)) // 2
            work = np.trace(work, axis1=pos, axis2=remaining + pos)
    d_keep = math.prod(dims[s] for s in keep)
    return work.reshape(lead + (d_keep, d_keep)).copy()


def expectation(op: np.ndarray, rho: np.ndarray) -> float:
    """Re tr(op rho); real part only (Hermitian observables)."""
    return float(np.einsum("ij,ji->", op, rho).real)


def density_matrix_defects(rho: np.ndarray) -> tuple[float, float, float]:
    """(hermiticity defect, |trace - 1|, smallest eigenvalue) of a candidate state.

    The last two are those of its Hermitian part.
    """
    herm = float(np.abs(rho - rho.conj().T).max())
    return (herm, *map(float, hermitian_defects(0.5 * (rho + rho.conj().T))))


def hermitian_defects(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|trace - 1|, smallest eigenvalue) of a candidate state that is exactly Hermitian, or of each of a stack.

    `density_matrix_defects` without the Hermiticity defect, which is 0, and
    without taking the Hermitian part, which is rho itself. A stack of shape
    (..., d, d) gives two arrays of shape (...).
    """
    return np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0), np.linalg.eigvalsh(rho)[..., 0]


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
