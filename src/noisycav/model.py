"""Physical model assembly for two two-level atoms in a thermally driven cavity.

Atoms and cavity are resonant, and the model is written in the interaction
picture, where the free energies drop out and only the atom-cavity exchange
survives:

    H_I = i sum_i g_i (|g>_i<e| a^dag - h.c.),   i in {a, b},

the textbook exchange sum_i g_i (|g>_i<e| a^dag + h.c.) in the phase
convention U = diag(i^n) of the cavity mode, n the photon number, where the
Liouvillian is a real map (see `build_interaction_hamiltonian`).

Dissipation follows the rate-times-anticommutator convention

    rate * (2 L rho L^dag - L^dag L rho - rho L^dag L),

so `kappa` and `gamma` mean exactly what the figure parameters mean: total
cavity decay 2*kappa, spontaneous emission rate 2*gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .qops import (
    HERMITICITY_TOL,
    SpaceLayout,
    annihilation,
    basis_state,
    dagger,
    embed,
    excited_projector,
    number_operator,
    sigma_minus,
    sigma_plus,
)

ATOM_A, ATOM_B, CAVITY = 0, 1, 2


def require_finite(settings) -> None:
    """Raise ValueError naming the first field of a dataclass instance that is NaN or infinite."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class SystemConfig:
    """All physical parameters, in natural units (hbar = 1, rates angular).

    Defaults are the parameter set used throughout the concurrence maps:
    resonant atoms and cavity, g_a = g_b = 1, kappa = 2, gamma = 0.2.
    """

    g_a: float = 1.0
    g_b: float = 1.0
    kappa: float = 2.0
    gamma: float = 0.2
    n_thermal: float = 0.0
    cutoff: int = 5

    def __post_init__(self):
        require_finite(self)
        for name in ("kappa", "gamma", "n_thermal"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if int(self.cutoff) != self.cutoff or self.cutoff < 1:
            raise ValueError(f"cutoff must be a positive integer, got {self.cutoff}")

    @property
    def layout(self) -> SpaceLayout:
        return SpaceLayout((2, 2, self.cutoff + 1))

    @property
    def coupling(self) -> float:
        """Effective collective coupling g = sqrt(g_a^2 + g_b^2)."""
        return math.hypot(self.g_a, self.g_b)


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian plus (rate, collapse operator) pairs on one composite space."""

    hamiltonian: np.ndarray
    collapse_terms: tuple[tuple[float, np.ndarray], ...]
    layout: SpaceLayout

    def __post_init__(self):
        d = self.layout.dim
        if self.hamiltonian.shape != (d, d):
            raise ValueError(f"Hamiltonian shape {self.hamiltonian.shape} does not match layout dim {d}")
        if not np.isfinite(self.hamiltonian).all():
            raise ValueError("Hamiltonian has non-finite entries")
        defect = float(np.abs(self.hamiltonian - self.hamiltonian.conj().T).max())
        if not defect <= HERMITICITY_TOL:
            raise ValueError(f"Hamiltonian not Hermitian: defect {defect:.3e}")
        for k, (rate, op) in enumerate(self.collapse_terms):
            if not rate >= 0:
                raise ValueError(f"collapse rate must be nonnegative, got {rate}")
            if op.shape != (d, d):
                raise ValueError(f"collapse operator shape {op.shape} does not match layout dim {d}")
            if not np.isfinite(op).all():
                raise ValueError(f"collapse operator {k} has non-finite entries")

    @property
    def dim(self) -> int:
        return self.layout.dim


def build_interaction_hamiltonian(cfg: SystemConfig) -> np.ndarray:
    """Resonant exchange Hamiltonian on the composite space: i (X - X^dag), X = sum_i g_i sigma_-^i a^dag.

    Exactly U (X + X^dag) U^dag for U = diag(i^n) = exp(i pi a^dag a / 2), n the
    photon number: the textbook exchange in the phase convention where H is
    imaginary and the Liouvillian real. The noise is phase-insensitive, so U
    leaves the collapse terms, the reduced atom state and the photon
    distribution unchanged; a textbook-convention start rho is passed as
    U rho U^dag. Exactly Hermitian.
    """
    layout = cfg.layout
    adag = embed(dagger(annihilation(cfg.cutoff)), CAVITY, layout)
    lower_a = embed(sigma_minus(), ATOM_A, layout)
    lower_b = embed(sigma_minus(), ATOM_B, layout)
    x = (cfg.g_a * lower_a + cfg.g_b * lower_b) @ adag
    return 1j * (x - dagger(x))


def _channels(cfg: SystemConfig) -> list[tuple[int, float, np.ndarray]]:
    """Dissipation channels as (layout slot, rate, single-factor operator) rows.

    Cavity loss (kappa(n_T+1), a), thermal pumping (kappa n_T, a^dag), and
    spontaneous emission (gamma, sigma_minus) on each atom, in that order.
    The only place the rates are written.
    """
    a = annihilation(cfg.cutoff)
    return [
        (CAVITY, cfg.kappa * (cfg.n_thermal + 1.0), a),
        (CAVITY, cfg.kappa * cfg.n_thermal, dagger(a)),
        (ATOM_A, cfg.gamma, sigma_minus()),
        (ATOM_B, cfg.gamma, sigma_minus()),
    ]


def build_collapse_terms(cfg: SystemConfig) -> list[tuple[float, np.ndarray]]:
    """Cavity thermal damping plus per-atom spontaneous emission.

    The rows of `_channels` embedded on the composite space. Zero-rate terms
    are omitted.
    """
    layout = cfg.layout
    return [(rate, embed(op, slot, layout)) for slot, rate, op in _channels(cfg) if rate > 0]


def build_model(cfg: SystemConfig) -> LindbladModel:
    """Full open-system model: the exchange Hamiltonian and the collapse terms."""
    return LindbladModel(build_interaction_hamiltonian(cfg), tuple(build_collapse_terms(cfg)), cfg.layout)


def build_cavity_model(cfg: SystemConfig) -> LindbladModel:
    """Cavity-only model (no atoms in the space): thermal damping of one mode.

    The cavity rows of `_channels` with nonzero rate, on a one-factor layout.
    This is the configuration whose stationary state is the geometric thermal
    distribution; with atoms present and g = gamma = 0 the steady state would
    be degenerate instead.
    """
    layout = SpaceLayout((cfg.cutoff + 1,))
    terms = tuple((rate, op) for slot, rate, op in _channels(cfg) if slot == CAVITY and rate > 0)
    return LindbladModel(np.zeros((layout.dim,) * 2, dtype=complex), terms, layout)


def collective_mode_operators(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Raising operators of the collective atomic modes A (bright) and B (dark).

    sigma_A+ = (g_a sigma_a+ + g_b sigma_b+) / g,
    sigma_B+ = (g_b sigma_a+ - g_a sigma_b+) / g,  g = sqrt(g_a^2 + g_b^2),

    embedded on the composite space. Mode A carries the whole cavity coupling;
    mode B drops out of the coherent dynamics and is only damped.
    """
    g = cfg.coupling
    if g == 0:
        raise ValueError("collective modes undefined: both couplings are zero")
    layout = cfg.layout
    raise_a = embed(sigma_plus(), ATOM_A, layout)
    raise_b = embed(sigma_plus(), ATOM_B, layout)
    sigma_a_plus = (cfg.g_a * raise_a + cfg.g_b * raise_b) / g
    sigma_b_plus = (cfg.g_b * raise_a - cfg.g_a * raise_b) / g
    return sigma_a_plus, sigma_b_plus


def ground_state(cfg: SystemConfig) -> np.ndarray:
    """|g>_a |g>_b |0>_c as a density matrix on the composite space."""
    ket = basis_state(cfg.layout.dim, 0)
    return np.outer(ket, ket.conj())


def standard_observables(cfg: SystemConfig) -> dict[str, np.ndarray]:
    """Named expectation operators recorded along trajectories.

    mode_b_pop is present only when the collective modes exist (g > 0).
    top_fock_pop, the population of the top Fock state |N> (N = cutoff), is
    the truncation diagnostic: it is small only when the cutoff holds the state.
    """
    layout = cfg.layout
    obs = {
        "mean_photon": embed(number_operator(cfg.cutoff), CAVITY, layout),
        "p_ee_a": embed(excited_projector(), ATOM_A, layout),
        "p_ee_b": embed(excited_projector(), ATOM_B, layout),
    }
    if cfg.coupling > 0:
        _, sigma_b_plus = collective_mode_operators(cfg)
        obs["mode_b_pop"] = sigma_b_plus @ dagger(sigma_b_plus)
    top = basis_state(cfg.cutoff + 1, cfg.cutoff)
    obs["top_fock_pop"] = embed(np.outer(top, top), CAVITY, layout)
    return obs

