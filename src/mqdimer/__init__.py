"""Dynamics and quantum correlations of a dipolar-coupled two-spin pair.

The pair starts with spin 1 in a pure superposition and spin 2 in thermal
equilibrium, and evolves under the two-quantum coupling that exchanges
|00> and |11>. The toolkit provides the evolved density matrix (closed
form and brute force), coherence-order intensities, Wootters concurrence,
and quantum discord by one route per input: the evolved pair's discord in
closed form from its parameters (discord_curve, which sweeps use), and a
projective-measurement optimization for a 4x4 matrix (discord), plus
CSV/SVG sweep output through :mod:`mqdimer.sweep` and the ``mqdimer`` CLI.
"""

from . import linalg
from .coherence import (
    ORDERS,
    IntensityProfile,
    analytic_intensities,
    decompose,
    intensity,
)
from .dimer import (
    IZ_TOTAL,
    DimerParams,
    evolve_analytic,
    evolve_numeric,
    ht_reference,
    initial_polarization,
    initial_state,
    mq_hamiltonian,
    propagator,
    require_state,
)
from .correlations import (
    DiscordResult,
    classical_correlations,
    conditional_entropy,
    conditional_entropy_many,
    direction,
    discord,
    minimize_conditional_entropy,
    mutual_information,
    projector_pair,
)
from .entanglement import (
    concurrence_analytic,
    concurrence_from_intensities,
    concurrence_numeric,
    concurrence_spectrum,
    discord_curve,
    spin_flip,
)
from .errors import (
    BadSubsystemId,
    InvalidConfig,
    InvalidParams,
    MqDimerError,
    NonRealIntensity,
    NotAState,
    NotHermitian,
    NotUnitVector,
    SpectrumNotReal,
)
from .sweep import QUANTITIES, SweepConfig, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BadSubsystemId",
    "DimerParams",
    "DiscordResult",
    "IntensityProfile",
    "InvalidConfig",
    "InvalidParams",
    "IZ_TOTAL",
    "MqDimerError",
    "NonRealIntensity",
    "NotAState",
    "NotHermitian",
    "NotUnitVector",
    "ORDERS",
    "QUANTITIES",
    "SpectrumNotReal",
    "SweepConfig",
    "analytic_intensities",
    "classical_correlations",
    "concurrence_analytic",
    "concurrence_from_intensities",
    "concurrence_numeric",
    "concurrence_spectrum",
    "conditional_entropy",
    "conditional_entropy_many",
    "decompose",
    "direction",
    "discord",
    "discord_curve",
    "evolve_analytic",
    "evolve_numeric",
    "ht_reference",
    "initial_polarization",
    "initial_state",
    "intensity",
    "linalg",
    "minimize_conditional_entropy",
    "mq_hamiltonian",
    "mutual_information",
    "projector_pair",
    "propagator",
    "require_state",
    "run_sweep",
    "spin_flip",
]
