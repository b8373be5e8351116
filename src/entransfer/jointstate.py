"""Reference route: the two-chain joint state, reduced density matrices
and Wootters concurrences, and the paper's printed closed forms; the
dense Hamiltonian and its exact evolution, which check the secular solve
of :mod:`entransfer.oracle`; and the collective-mode chain of the
reservoir, the coupling-weighted one-excitation state and the orthogonal
family generated from it by the reservoir free energy (a Lanczos
three-term recurrence that tridiagonalizes the frequency operator).

Neither the CLI nor the package root imports this module; it checks the
closed forms of :mod:`entransfer.events`, which owns the model's definitions
(initial state, pair labels, ``lambda_minus``).  The joint system is two
identical, non-interacting atom-cavity-reservoir chains.  Each chain is
reduced to three effective qubits (atom e/g, cavity 0/1 photon, reservoir
collective 0/1 excitation); bit value 1 marks the excited local state.
Qubit order is (a1, c1, r1, a2, c2, r2) with big-endian indexing, so the
joint pure state lives in dimension 64.
"""

from dataclasses import dataclass

import numpy as np

from . import qops
from .amplitudes import _squares, amplitudes_exact
# bench/workloads.py imports InitialAmplitudes from here; jointstate uses the other three
from .events import DIAGONAL_PAIRS, InitialAmplitudes, PAIR_LABELS, lambda_minus

# qubit index per subsystem label
QUBIT_INDEX = {"a1": 0, "c1": 1, "r1": 2, "a2": 3, "c2": 4, "r2": 5}

# non-interacting cross pairs with a printed closed-form concurrence
CROSS_PAIRS = ("a1c2", "a1r2", "c1r2")


def pair_qubits(pair):
    if pair not in PAIR_LABELS:
        raise ValueError(f"unknown pair label {pair!r}")
    return QUBIT_INDEX[pair[:2]], QUBIT_INDEX[pair[2:]]


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
    # R is 0 exactly where R^2 is, at every t without decay
    x2 = _squares(amps.E.real, amps.G.imag, amps.R > 0.0)[k]
    return complex((amps.E, amps.G, amps.R)[k]), float(x2)


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


# --- dense reference of the discretized-reservoir oracle ------------------

def build_hamiltonian(p, d):
    """Single-excitation Hamiltonian over the basis
    {|e00>, |c00>, |g10>, |g0 1_k>} of dimension 3 + N; every entry is
    real.  The dense reference for ``oracle.spectrum`` at small N."""
    n = d.n_modes
    dim = 3 + n
    h = np.zeros((dim, dim))
    h[0, 0] = -p.delta
    h[1, 1] = p.Delta
    h[0, 1] = h[1, 0] = p.Omega
    h[1, 2] = h[2, 1] = p.g
    if n:
        idx = np.arange(3, dim)
        h[idx, idx] = d.offsets          # -(omega - omega_k)
        h[2, 3:] = h[3:, 2] = np.sqrt(p.kappa * d.spacing / (2.0 * np.pi))
    return h


def evolve(h, psi0, times):
    """psi(t) = exp(-i H t) psi0 for every t in ``times``.

    Diagonalizes once; exact at machine precision for arbitrary t.
    Returns an array of shape (len(times), dim) (or (dim,) for scalar t).
    """
    h = np.asarray(h)
    if np.max(np.abs(h - h.conj().T)) > 1e-10:
        raise ValueError("Hamiltonian is not Hermitian")
    w, v = np.linalg.eigh(h)
    c = v.conj().T @ np.asarray(psi0, dtype=complex)
    scalar = np.ndim(times) == 0
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    out = (v @ (np.exp(-1j * np.outer(w, ts)) * c[:, None])).T
    return out[0] if scalar else out


# --- collective reservoir chain ---------------------------------------------

@dataclass(frozen=True)
class CollectiveChain:
    """Orthonormal collective reservoir vectors and the tridiagonal
    couplings produced by iterating the frequency operator."""

    vectors: np.ndarray       # shape (depth, n_modes)
    alphas: np.ndarray        # diagonal recurrence coefficients
    betas: np.ndarray         # off-diagonal couplings, length depth-1
    requested_depth: int

    @property
    def depth(self):
        return self.vectors.shape[0]

    @property
    def truncated(self):
        return self.depth < self.requested_depth


# residual norm below which the collective chain stops early
CHAIN_BREAKDOWN_TOL = 1e-13


def collective_chain(d, depth):
    """Orthogonal one-excitation reservoir states reachable from the
    coupling-weighted mode |1bar_0> under the free bath evolution.

    Vector 0 is g_k / sqrt(sum |g_k|^2), uniform since every mode couples
    equally, whatever kappa; each following vector is the
    image under diag(omega - omega_k) orthogonalized against everything
    before (with full reorthogonalization for numerical safety).  Stops
    early, flagging truncation, if the residual norm drops below
    CHAIN_BREAKDOWN_TOL.
    """
    n = d.n_modes
    if depth > n:
        raise ValueError(f"depth {depth} exceeds mode count {n}")
    freq = -d.offsets            # omega - omega_k
    vecs = [np.ones(n) / np.sqrt(n)]
    alphas, betas = [], []
    for _ in range(1, depth):
        w = freq * vecs[-1]
        alphas.append(float(vecs[-1] @ w))
        for u in vecs:           # full reorthogonalization
            w -= (u @ w) * u
        for u in vecs:
            w -= (u @ w) * u
        nrm = np.linalg.norm(w)
        if nrm < CHAIN_BREAKDOWN_TOL:
            break
        betas.append(float(nrm))
        vecs.append(w / nrm)
    if len(vecs) == depth:
        alphas.append(float(vecs[-1] @ (freq * vecs[-1])))
    return CollectiveChain(vectors=np.array(vecs), alphas=np.array(alphas),
                           betas=np.array(betas), requested_depth=depth)
