"""Two-chain joint state, reduced density matrices and concurrences.

The joint system is two identical, non-interacting atom-cavity-reservoir
chains.  Each chain is reduced to three effective qubits (atom e/g,
cavity 0/1 photon, reservoir collective 0/1 excitation); bit value 1
marks the excited local state.  Qubit order is (a1, c1, r1, a2, c2, r2)
with big-endian indexing, so the joint pure state lives in dimension 64.

The initial state is (alpha |gg> + beta |ee>) with cavities and
reservoirs in vacuum; each chain then evolves with the closed-form
amplitudes of :mod:`entransfer.amplitudes`.
"""

from dataclasses import dataclass

import numpy as np

from . import qops
from .amplitudes import _squares, amplitudes_exact

# qubit index per subsystem label
QUBIT_INDEX = {"a1": 0, "c1": 1, "r1": 2, "a2": 3, "c2": 4, "r2": 5}

# the 15 unordered subsystem pairs, canonical label order
PAIR_LABELS = (
    "a1a2", "c1c2", "r1r2",
    "a1c1", "c1r1", "a1r1",
    "a2c2", "c2r2", "a2r2",
    "a1c2", "a1r2", "c1r2",
    "a2c1", "a2r1", "c2r1",
)

# pairs with a printed closed-form X matrix / negative PT eigenvalue
DIAGONAL_PAIRS = ("a1a2", "c1c2", "r1r2")
# non-interacting cross pairs with a printed closed-form concurrence
CROSS_PAIRS = ("a1c2", "a1r2", "c1r2")


def pair_qubits(pair):
    if pair not in PAIR_LABELS:
        raise ValueError(f"unknown pair label {pair!r}")
    return QUBIT_INDEX[pair[:2]], QUBIT_INDEX[pair[2:]]


@dataclass(frozen=True)
class InitialAmplitudes:
    """Non-negative amplitudes of the initial atomic state
    alpha |gg> + beta |ee>, with alpha^2 + beta^2 = 1."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        # an amplitude above 2 is far from normalized, and its square may overflow
        if max(self.alpha, self.beta) > 2.0 or abs(self.alpha**2 + self.beta**2 - 1.0) > 1e-12:
            raise ValueError("alpha^2 + beta^2 must equal 1")

    @classmethod
    def from_ratio(cls, ratio):
        """Construct from the ratio beta / alpha."""
        if ratio < 0:
            raise ValueError("ratio must be non-negative")
        # past 1e154 ratio^2 overflows, and 1 + ratio^2 rounds to ratio^2 well before
        alpha = 1.0 / ratio if ratio > 1e154 else 1.0 / np.sqrt(1.0 + ratio**2)
        return cls(alpha=alpha, beta=ratio * alpha)


def single_chain_state(amps):
    """8-dim chain state E |e00> + G |g10> + R |g01> over (atom, cavity,
    reservoir) qubits, plus zero weight on |g00>."""
    v = np.zeros(8, dtype=complex)
    v[0b100] = amps.E
    v[0b010] = amps.G
    v[0b001] = amps.R
    return v


def joint_state(t, init, p):
    """Joint 64-dim pure state of both chains at time t."""
    amps = amplitudes_exact(t, p)
    chain = single_chain_state(amps)
    psi = init.beta * np.kron(chain, chain)
    psi[0] += init.alpha
    return psi


def reduced_pair(state, pair):
    """Two-qubit reduced density matrix of a subsystem pair."""
    psi = np.asarray(state, dtype=complex).ravel()
    if psi.size != 64:
        raise ValueError("joint state must have dimension 64")
    rho = np.outer(psi, psi.conj())
    return qops.partial_trace(rho, (2,) * 6, pair_qubits(pair))


def _pair_amplitude(pair, amps):
    """x and |x|^2 of the a1a2 / c1c2 / r1r2 pair: E, G or R."""
    if pair not in DIAGONAL_PAIRS:
        raise ValueError(f"no closed form for pair {pair!r}")
    k = DIAGONAL_PAIRS.index(pair)
    return complex((amps.E, amps.G, amps.R)[k]), float(_squares(amps.E, amps.G)[k])


def rho_closed(pair, amps, init):
    """Closed-form X matrix for the a1a2 / c1c2 / r1r2 pair.

    With x the relevant complex amplitude, the matrix is
    beta^2 |x|^4 |11><11| + alpha beta x^2 |11><00| + h.c.
    + beta^2 |x|^2 (1 - |x|^2) (|10><10| + |01><01|)
    + (alpha^2 + beta^2 (1 - |x|^2)^2) |00><00|.
    The coherence keeps the phase of x^2 (the cavity amplitude carries a
    factor i, making its coherence negative real).
    """
    x, x2 = _pair_amplitude(pair, amps)
    a, b = init.alpha, init.beta
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = b**2 * x2**2
    rho[3, 0] = a * b * x**2
    rho[0, 3] = np.conj(rho[3, 0])
    rho[1, 1] = rho[2, 2] = b**2 * x2 * (1.0 - x2)
    rho[0, 0] = a**2 + b**2 * (1.0 - x2) ** 2
    return rho


def lambda_minus(pair, x2, init):
    """Negative partial-transpose eigenvalue beta x^2 (beta (1 - x^2) - alpha)
    of the closed-form pair matrix; array-aware in x2."""
    if pair not in DIAGONAL_PAIRS:
        raise ValueError(f"no closed-form lambda for pair {pair!r}")
    a, b = init.alpha, init.beta
    return b * x2 * (b * (1.0 - x2) - a)


def concurrence_closed(pair, amps, init):
    """max(0, -2 lambda_-) for the a1a2 / c1c2 / r1r2 pair."""
    _, x2 = _pair_amplitude(pair, amps)
    return float(max(0.0, -2.0 * lambda_minus(pair, x2, init)))


def _w_printed(x, y, init):
    # as printed: asymmetric in x vs y and weighted by alpha^4
    return init.alpha**4 * x * y**2 * (1.0 - x**2) * (1.0 - y**2)


def cross_concurrence_closed(pair, amps, init):
    """Printed closed-form concurrence of the non-interacting cross pairs
    a1c2, a1r2, c1r2, using magnitudes |E|, |G|, R.

    Implemented exactly as printed, including the w(x, y) weight; see the
    brute-force partial-trace route for an independent value.
    """
    if pair not in CROSS_PAIRS:
        raise ValueError(f"no printed closed form for pair {pair!r}")
    e = abs(amps.E)
    g = abs(amps.G)
    r = float(np.asarray(amps.R))
    x, y = {"a1c2": (e, g), "a1r2": (e, r), "c1r2": (g, r)}[pair]
    a, b = init.alpha, init.beta
    val = 2.0 * (a * b * x * y - np.sqrt(max(0.0, _w_printed(x, y, init))))
    return float(max(0.0, val))


def pair_concurrence(pair, t, init, p):
    """Concurrence of any of the 15 pairs by partial trace of the joint
    state (Wootters route)."""
    return qops.wootters_concurrence(reduced_pair(joint_state(t, init, p), pair))


def global_tangle(t, init, p):
    """I-concurrence across the chain bipartition (a1,c1,r1) x (a2,c2,r2).

    Conserved at 2 alpha beta for all times because the two chains never
    interact.
    """
    return qops.i_concurrence(joint_state(t, init, p), (8, 8))
