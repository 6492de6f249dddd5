"""Two two-level atoms in a thermally driven leaky cavity.

Lindblad time evolution of the joint atom-atom-cavity density matrix,
stationary-state solutions, Wootters concurrence of the reduced atoms, and
parameter sweeps that map the noise-assisted entanglement resonance.
"""

from .dynamics import (
    IntegratorError,
    IntegratorSettings,
    PositivityLossError,
    RankDeficientError,
    TraceDriftError,
    Trajectory,
    evolve,
    lindblad_rhs,
    steady_state,
    vectorize_superoperator,
)
from .entanglement import ConcurrenceResult, concurrence, spin_flip
from .model import (
    LindbladModel,
    SystemConfig,
    build_cavity_model,
    build_collapse_terms,
    build_interaction_hamiltonian,
    build_model,
    collective_mode_operators,
    ground_state,
    standard_observables,
)
from .qops import SpaceLayout, partial_trace
from .sweep import (
    SweepAxis,
    SweepResult,
    SweepSpec,
    preset_spec,
    resonance_summary,
    run_sweep,
)

__version__ = "0.1.0"
