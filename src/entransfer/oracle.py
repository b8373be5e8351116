"""Brute-force validation routes for the closed-form amplitudes.

Two independent oracles:

* exact unitary evolution of the full atom-cavity-reservoir Hamiltonian
  with an explicitly discretized reservoir (flat spectral density,
  uniform couplings g_k = sqrt(kappa * dw / 2 pi)), evolved by one real
  eigendecomposition.  Its error against the closed forms has two terms
  that partly cancel: the dropped intermediate level (~4 g_eff / Delta)
  and the finite bandwidth B.  Once the recurrence time exceeds the
  horizon the mode count does not set it: at g_eff = 5, Delta = 1e4,
  B = 200 the error is 0.0034 with N = 2000 and with N = 4000, and
  0.0018 with B = 400; and
* a fixed-step RK4 integration of the dissipative atom-cavity master
  equation in the three-level x two-Fock truncated space.

Also provides the collective-mode chain of the reservoir: the normalized
coupling-weighted one-excitation state and the orthogonal family
generated from it by the reservoir free energy (a Lanczos three-term
recurrence that tridiagonalizes the frequency operator).
"""

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .amplitudes import amplitudes_exact, exact_squares
from .errors import ConfigError


@dataclass(frozen=True)
class ReservoirDiscretization:
    """Uniform flat-band discretization of one reservoir.

    n_modes modes span ``bandwidth`` centred on the cavity frequency;
    every mode couples with g_k = sqrt(kappa * spacing / 2 pi), which
    reproduces the Markovian decay rate kappa in the continuum limit.
    """

    n_modes: int
    bandwidth: float
    kappa: float = 1.0

    def __post_init__(self):
        if self.n_modes < 0:
            raise ValueError("n_modes must be non-negative")
        if self.n_modes > 0 and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def spacing(self):
        return self.bandwidth / self.n_modes if self.n_modes else 0.0

    @property
    def offsets(self):
        """Mode detunings omega_k - omega, symmetric around resonance."""
        n = self.n_modes
        return (np.arange(n) - (n - 1) / 2.0) * self.spacing

    @property
    def couplings(self):
        return np.full(self.n_modes, np.sqrt(self.kappa * self.spacing / (2.0 * np.pi)))

    @property
    def recurrence_time(self):
        return 2.0 * np.pi / self.spacing if self.n_modes else np.inf

    def validate(self, p, horizon, strict=True):
        """Check that the discretization can fake a continuum over
        ``horizon``: no recurrence, and bandwidth well above every system
        rate.  Warns (or raises with strict=True) on violation."""
        problems = []
        if self.recurrence_time <= horizon:
            problems.append(
                f"recurrence time {self.recurrence_time:.3g} <= horizon {horizon:.3g}")
        floor = 20.0 * max(p.kappa, p.g_eff, abs(p.omega_bar))
        if self.bandwidth < floor:
            problems.append(f"bandwidth {self.bandwidth:.3g} < {floor:.3g}")
        for msg in problems:
            if strict:
                raise ConfigError(msg)
            warnings.warn(msg, stacklevel=2)
        return not problems


def build_hamiltonian(p, d):
    """Single-excitation Hamiltonian over the basis
    {|e00>, |c00>, |g10>, |g0 1_k>} of dimension 3 + N.

    Every entry is real.  Raises ConfigError, before allocating, when
    the dense solve (H, its eigenvectors and the LAPACK workspace, about
    four real matrices) would not fit in physical memory.
    """
    n = d.n_modes
    dim = 3 + n
    need = 4 * 8 * dim * dim
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"{n} reservoir modes need about {need / 1e9:.3g} GB for the dense "
            f"oracle; physical memory is {have / 1e9:.3g} GB")
    h = np.zeros((dim, dim))
    h[0, 0] = -p.delta
    h[1, 1] = p.Delta
    h[0, 1] = h[1, 0] = p.Omega
    h[1, 2] = h[2, 1] = p.g
    if n:
        idx = np.arange(3, dim)
        h[idx, idx] = d.offsets          # -(omega - omega_k)
        h[2, 3:] = d.couplings
        h[3:, 2] = d.couplings
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


def collective_chain(d, depth, breakdown_tol=1e-13):
    """Orthogonal one-excitation reservoir states reachable from the
    coupling-weighted mode |1bar_0> under the free bath evolution.

    Vector 0 is g_k / sqrt(sum |g_k|^2); each following vector is the
    image under diag(omega - omega_k) orthogonalized against everything
    before (with full reorthogonalization for numerical safety).  Stops
    early, flagging truncation, if the residual norm drops below
    ``breakdown_tol``.
    """
    n = d.n_modes
    if depth > n:
        raise ValueError(f"depth {depth} exceeds mode count {n}")
    freq = -d.offsets            # omega - omega_k
    g = d.couplings.astype(float)
    v = g / np.linalg.norm(g)
    vecs = [v]
    alphas, betas = [], []
    for _ in range(1, depth):
        w = freq * vecs[-1]
        alphas.append(float(vecs[-1] @ w))
        for u in vecs:           # full reorthogonalization
            w -= (u @ w) * u
        for u in vecs:
            w -= (u @ w) * u
        nrm = np.linalg.norm(w)
        if nrm < breakdown_tol:
            break
        betas.append(float(nrm))
        vecs.append(w / nrm)
    if len(vecs) == depth:
        alphas.append(float(vecs[-1] @ (freq * vecs[-1])))
    return CollectiveChain(vectors=np.array(vecs), alphas=np.array(alphas),
                           betas=np.array(betas), requested_depth=depth)


# --- Lindblad route ---------------------------------------------------------

# basis index = 2 * atomic level + photon number, levels ordered (e, c, g)
IDX_E0, IDX_E1, IDX_C0, IDX_C1, IDX_G0, IDX_G1 = range(6)


def _atom_cavity_operators(p):
    h = np.zeros((6, 6), dtype=complex)
    h[IDX_C0, IDX_C0] = h[IDX_C1, IDX_C1] = p.Delta
    h[IDX_E0, IDX_E0] = h[IDX_E1, IDX_E1] = -p.delta
    h[IDX_C0, IDX_E0] = h[IDX_E0, IDX_C0] = p.Omega
    h[IDX_C1, IDX_E1] = h[IDX_E1, IDX_C1] = p.Omega
    # g (a |c><g| + a+ |g><c|) maps |g1> <-> |c0>
    h[IDX_C0, IDX_G1] = h[IDX_G1, IDX_C0] = p.g
    a = np.zeros((6, 6))
    for level in range(3):
        a[2 * level, 2 * level + 1] = 1.0
    return h, a


def _liouvillian(p, photon_loss=True):
    h, a = _atom_cavity_operators(p)
    eye = np.eye(6)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    ad = a.T
    n_op = ad @ a
    anti = np.kron(n_op, eye) + np.kron(eye, n_op.T)
    if photon_loss:
        jump = np.kron(a, a.conj())          # a rho a+
    else:
        # operator ordering as printed (a+ rho a): a gain process, kept
        # only for comparison; contradicts the decaying closed forms
        jump = np.kron(ad, ad.conj())
    return lv + (p.kappa / 2.0) * (2.0 * jump - anti)


def lindblad_evolve(p, grid, photon_loss=True, max_step=None):
    """RK4 integration of the dissipative atom-cavity master equation.

    Starts from |e0><e0| and returns the 6x6 density matrices at each
    grid time.  The internal step never exceeds 0.01 / max(kappa,
    |omega_bar|, |Delta|); because the generator is linear and constant,
    the fixed-step RK4 update is the degree-4 Taylor polynomial of the
    exact propagator, applied once per substep.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or grid[0] < 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing and start at t >= 0")
    limit = 0.01 / max(p.kappa, abs(p.omega_bar), abs(p.Delta))
    step = limit if max_step is None else float(max_step)
    if step > limit * (1.0 + 1e-12):
        raise ConfigError(f"step {step:.3g} exceeds RK4 stability bound {limit:.3g}")

    lv = _liouvillian(p, photon_loss=photon_loss)
    one = np.eye(36, dtype=complex)
    term = one.copy()
    rk4 = one.copy()
    for k in (1, 2, 3, 4):
        term = term @ (step * lv) / k
        rk4 = rk4 + term

    rho = np.zeros((6, 6), dtype=complex)
    rho[IDX_E0, IDX_E0] = 1.0
    v = rho.reshape(36)
    out = np.empty((grid.size, 6, 6), dtype=complex)
    t_now = 0.0
    prop_cache = {}
    for i, t in enumerate(grid):
        n_sub = int(round((t - t_now) / step))
        if n_sub:
            if n_sub not in prop_cache:
                prop_cache[n_sub] = np.linalg.matrix_power(rk4, n_sub)
            v = prop_cache[n_sub] @ v
            t_now += n_sub * step
        out[i] = v.reshape(6, 6)
    return out


def lindblad_max_error(p, grid, photon_loss=True):
    """Max deviation of the integrated populations/coherences of
    {|e0>, |g1>, |g0>} from the closed-form single-chain matrix."""
    rhos = lindblad_evolve(p, grid, photon_loss=photon_loss)
    amps = amplitudes_exact(np.asarray(grid, dtype=float), p)
    return float(max(
        np.max(np.abs(rhos[:, IDX_E0, IDX_E0].real - np.abs(amps.E) ** 2)),
        np.max(np.abs(rhos[:, IDX_G1, IDX_G1].real - np.abs(amps.G) ** 2)),
        np.max(np.abs(rhos[:, IDX_G0, IDX_G0].real - amps.R ** 2)),
        np.max(np.abs(rhos[:, IDX_E0, IDX_G1] - amps.E * np.conj(amps.G))),
    ))


def discretized_errors(p, d, horizon, n_samples=201):
    """(amplitude_error, leakage) of the discretized-reservoir oracle over
    ``n_samples`` times in [0, horizon], from one evolution.

    amplitude_error is the max deviation of |E|^2, |G|^2 and R^2 from the
    closed forms, with R^2 the summed reservoir-mode population; leakage
    is the max population of the far-detuned intermediate level, the
    size of the term the closed forms drop.
    """
    h = build_hamiltonian(p, d)
    psi0 = np.zeros(h.shape[0])
    psi0[0] = 1.0
    ts = np.linspace(0.0, horizon, n_samples)
    pops = np.abs(evolve(h, psi0, ts)) ** 2
    e2, g2, r2 = exact_squares(ts, p)
    amplitude_error = max(np.max(np.abs(pops[:, 0] - e2)),
                          np.max(np.abs(pops[:, 2] - g2)),
                          np.max(np.abs(pops[:, 3:].sum(axis=1) - r2)))
    return float(amplitude_error), float(np.max(pops[:, 1]))
