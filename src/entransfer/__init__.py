"""Entanglement transfer through dissipative atom-cavity-reservoir chains.

Closed-form single-chain amplitudes, all bipartite concurrences of the
two-chain system, sudden-death/birth/revival event detection, the cavity
entanglement phase diagram, and two brute-force validation oracles.
"""

from .amplitudes import (
    AmplitudeTriple,
    SystemParams,
    amplitudes_exact,
    amplitudes_strong,
    amplitudes_weak,
    exact_squares,
)
from .errors import ConfigError
from .events import (
    ESB,
    ESD,
    ESR,
    EventRecord,
    PhaseDiagram,
    WeakEventTimes,
    cavity_boundary,
    cavity_entangled_intervals,
    cavity_phase,
    concurrence_series,
    dead_window,
    detect_events,
    esb_time_strong,
    phase_diagram,
    weak_event_times,
)
from .jointstate import (
    CROSS_PAIRS,
    DIAGONAL_PAIRS,
    InitialAmplitudes,
    PAIR_LABELS,
    concurrence_closed,
    cross_concurrence_closed,
    global_tangle,
    joint_state,
    lambda_minus,
    pair_concurrence,
    reduced_pair,
    rho_closed,
)
from .oracle import (
    CollectiveChain,
    ReservoirDiscretization,
    build_hamiltonian,
    collective_chain,
    discretized_errors,
    evolve,
    lindblad_evolve,
    lindblad_max_error,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeTriple", "SystemParams", "amplitudes_exact", "amplitudes_strong",
    "amplitudes_weak", "exact_squares", "ConfigError",
    "ESB", "ESD", "ESR", "EventRecord", "PhaseDiagram", "WeakEventTimes",
    "cavity_boundary", "cavity_entangled_intervals", "cavity_phase",
    "concurrence_series", "dead_window", "detect_events", "esb_time_strong",
    "phase_diagram", "weak_event_times",
    "CROSS_PAIRS", "DIAGONAL_PAIRS", "InitialAmplitudes", "PAIR_LABELS",
    "concurrence_closed", "cross_concurrence_closed", "global_tangle",
    "joint_state", "lambda_minus", "pair_concurrence", "reduced_pair",
    "rho_closed",
    "CollectiveChain", "ReservoirDiscretization", "build_hamiltonian",
    "collective_chain", "discretized_errors", "evolve", "lindblad_evolve",
    "lindblad_max_error",
]
