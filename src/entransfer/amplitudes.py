"""Closed-form single-chain probability amplitudes.

One chain is a three-level atom driven by a classical field (coupling
Omega) and a quantized cavity mode (coupling g), with detuning Delta and
cavity decay rate kappa.  In the high-detuning regime the excitation
oscillates between the atomic excited state and the cavity photon at the
effective Raman rate g_eff = g * Omega / Delta while leaking irreversibly
into the reservoir.

``amplitudes_exact`` gives the amplitudes E (atom), G (cavity) and R
(reservoir, real and non-negative) for arbitrary damping; the strong- and
weak-coupling approximations return the squared magnitudes directly.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SystemParams:
    """Physical couplings of a single atom-cavity-reservoir chain.

    g      quantum-mode coupling (rad/time)
    Omega  classical-field coupling (rad/time)
    Delta  detuning of the cavity from the g-c transition (rad/time)
    kappa  cavity decay rate (1/time)

    Derived quantities (``delta``, ``g_eff``, ``omega_bar``, ``gamma``)
    are recomputed on access so they can never go stale.
    """

    g: float
    Omega: float
    Delta: float
    kappa: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite((self.g, self.Omega, self.Delta, self.kappa))):
            raise ValueError("g, Omega, Delta and kappa must be finite")
        if self.g <= 0 or self.Omega <= 0:
            raise ValueError("g and Omega must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        if self.Delta == 0:
            raise ValueError("Delta must be nonzero")

    @property
    def delta(self):
        """Stark-compensating two-photon detuning (g^2 - Omega^2) / Delta."""
        s = max(self.g, self.Omega)
        if s < 1e154:
            return (self.g**2 - self.Omega**2) / self.Delta
        # the squares would overflow: scale both couplings by the larger
        return ((self.g / s)**2 - (self.Omega / s)**2) * s / self.Delta * s

    @property
    def g_eff(self):
        """Effective Raman coupling g * Omega / Delta."""
        return self.g * self.Omega / self.Delta

    @property
    def omega_bar(self):
        """Damped Rabi frequency, kept complex so the overdamped branch
        continues analytically (4 omega_bar^2 = 4 g_eff^2 - kappa^2 / 4)."""
        if max(self.g_eff, self.kappa) < 1e154:
            return np.sqrt(complex(self.g_eff**2 - self.kappa**2 / 16.0))
        # the squares would overflow: scale both rates by the larger
        s = max(self.g_eff, self.kappa / 4.0)
        return s * np.sqrt(complex((self.g_eff / s)**2 - (self.kappa / 4.0 / s)**2))

    @property
    def gamma(self):
        """Coupling-to-decay ratio g_eff / kappa."""
        if self.kappa == 0:
            return np.inf
        return self.g_eff / self.kappa

    @classmethod
    def from_geff(cls, g_eff, kappa=1.0, Delta=None):
        """Build parameters realizing a given g_eff with g = Omega.

        Delta defaults to 500 * kappa.  The closed forms drop the
        far-detuned intermediate level, whose peak population is close to
        4 g_eff / Delta; the squared amplitudes err by the same order.  At
        g_eff = 5 kappa the explicit-reservoir oracle differs by 0.070 at
        Delta = 500 kappa and by 0.0034 at Delta = 1e4 kappa, the
        ``validate`` default.
        """
        if g_eff <= 0:
            raise ValueError("g_eff must be positive")
        if Delta is None:
            Delta = 500.0 * (kappa if kappa > 0 else 1.0)
        g = np.sqrt(g_eff * Delta)
        return cls(g=g, Omega=g, Delta=Delta, kappa=kappa)


@dataclass(frozen=True)
class AmplitudeTriple:
    """Amplitudes of the single-excitation chain state.

    E is the atomic amplitude, G the cavity amplitude (carries an explicit
    factor i) and R the real, non-negative reservoir amplitude defined by
    R = sqrt(1 - |E|^2 - |G|^2).
    """

    E: complex
    G: complex
    R: float


def _check_time(t):
    t = np.asarray(t, dtype=float)
    if not (t.min(initial=0.0) >= 0.0 and t.max(initial=0.0) < np.inf):   # NaN fails both
        raise ValueError("time must be finite and non-negative")
    return t


def _check_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty time grid")
    # increasing from a finite start to a finite end: every point is finite
    if not (grid[0] >= 0 and grid[-1] < np.inf and np.all(np.diff(grid) > 0)):
        raise ValueError("grid must be finite, strictly increasing and start at t >= 0")
    return grid


def _squares(e, g, decays):
    """(|E|^2, |G|^2, R^2) of the amplitudes e, g; a scalar gives the bits
    of the same value in an array.  np.square, not ** 2: a numpy scalar
    squares by pow(), which misrounds about one square in a thousand that
    an array squares exactly.  R^2 = 1 - (|E|^2 + |G|^2), clipped at 0,
    rounds the non-increasing sum once, so it never decreases; 1 - |E|^2 -
    |G|^2 fell by an ulp at about 4 points in 10^4 once R^2 neared 1.
    Without decay (``decays`` false, kappa = 0) R^2 is exactly 0: 1 - the
    sum is then rounding noise of up to 2e-16, which reads as a live
    reservoir."""
    e2 = np.square(np.abs(e))
    g2 = np.square(np.abs(g))
    if not decays:
        return e2, g2, np.zeros_like(e2)
    return e2, g2, np.clip(1.0 - (e2 + g2), 0.0, None)


def _eg(t, p):
    """E and G at time(s) t; array-aware."""
    t = _check_time(t)
    ob = p.omega_bar
    # sin(x)/x limit at critical damping
    x = ob * t
    small = np.abs(x) < 1e-12
    sinc = np.where(small, t, np.sin(np.where(small, 1.0, x)) / np.where(small, 1.0, ob))
    damp = np.exp(-p.kappa * t / 4.0)
    e = (np.cos(x) + (p.kappa / 4.0) * sinc) * damp
    g = 1j * p.g_eff * sinc * damp
    return e, g


def amplitudes_exact(t, p):
    """Exact amplitudes at time ``t`` (scalar or array).

    The overdamped regime 4 g_eff^2 < kappa^2 / 4 is handled by the
    analytic continuation of cos/sin to hyperbolic functions via the
    complex omega_bar; magnitudes stay real either way.
    """
    e, g = _eg(t, p)
    r = np.sqrt(_squares(e, g, p.kappa > 0)[2])
    if np.ndim(e) == 0:
        return AmplitudeTriple(E=complex(e), G=complex(g), R=float(r))
    return AmplitudeTriple(E=e, G=g, R=r)


def exact_squares(t, p):
    """(|E|^2, |G|^2, R^2) from the exact amplitudes; array-aware, and a
    scalar t gives the bits of the same t in an array."""
    return _squares(*_eg(t, p), p.kappa > 0)


def amplitudes_strong(t, p):
    """Strong-coupling (g_eff >> kappa) squared magnitudes.

    Sum to one exactly by construction.
    """
    t = _check_time(t)
    damp = np.exp(-p.kappa * t / 2.0)
    e2 = np.cos(p.g_eff * t) ** 2 * damp
    g2 = np.sin(p.g_eff * t) ** 2 * damp
    return e2, g2, 1.0 - damp


def amplitudes_weak(t, p):
    """Weak-coupling (g_eff << kappa) squared magnitudes, second order in
    gamma = g_eff / kappa."""
    t = _check_time(t)
    gm2 = p.gamma**2
    kt = p.kappa * t
    e2 = (1.0 + 4.0 * gm2) * np.exp(-4.0 * gm2 * kt) - 4.0 * gm2 * np.exp(-kt + 4.0 * gm2 * kt)
    g2 = 4.0 * gm2 * (
        np.exp(-4.0 * gm2 * kt) + np.exp(-kt + 4.0 * gm2 * kt) - 2.0 * np.exp(-kt / 2.0)
    )
    r2 = 1.0 - (1.0 + 8.0 * gm2) * np.exp(-4.0 * gm2 * kt) + 8.0 * gm2 * np.exp(-kt / 2.0)
    return e2, g2, r2
