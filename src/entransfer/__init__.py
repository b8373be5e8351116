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
    DIAGONAL_PAIRS,
    ESB,
    ESD,
    ESR,
    PAIR_LABELS,
    EventRecord,
    InitialAmplitudes,
    PhaseDiagram,
    WeakEventTimes,
    cavity_boundary,
    cavity_entangled_intervals,
    cavity_phase,
    concurrence_series,
    dead_window,
    detect_events,
    esb_time_strong,
    lambda_minus,
    phase_diagram,
    weak_event_times,
)
from .oracle import (
    ReservoirDiscretization,
    discretized_errors,
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
    "DIAGONAL_PAIRS", "InitialAmplitudes", "PAIR_LABELS", "lambda_minus",
    "ReservoirDiscretization", "discretized_errors", "lindblad_evolve",
    "lindblad_max_error",
]
