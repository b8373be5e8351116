"""Sudden-death/birth/revival detection and the cavity phase diagram.

Event detection works on the smooth partial-transpose eigenvalue
lambda_-(t) of the closed-form pair matrices rather than on the clipped
concurrence: bisection needs sign changes, not flat zeros.  A pair is
entangled where lambda_- < 0.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
# minimize_scalar is unused here; the benchmark tracer (bench/spans.py) wraps it
from scipy.optimize import brentq, minimize_scalar  # noqa: F401

from .amplitudes import SystemParams, exact_squares
from .errors import ConfigError
from .jointstate import DIAGONAL_PAIRS, PAIR_LABELS, lambda_minus

# concurrence below this counts as unentangled (numerical floor of the
# closed forms)
ZERO_THRESHOLD = 1e-12
# least detection-grid points per Rabi period
POINTS_PER_PERIOD = 40

ESD = "ESD"
ESB = "ESB"
ESR = "ESR"


@dataclass(frozen=True)
class EventRecord:
    kind: str       # ESD | ESB | ESR
    pair: str
    time: float     # units 1/kappa


def _pair_index(pair):
    if pair not in DIAGONAL_PAIRS:
        raise ValueError(f"event detection requires a pair with a closed-form "
                         f"lambda (a1a2, c1c2, r1r2), got {pair!r}")
    return DIAGONAL_PAIRS.index(pair)


def _lambda_on_grid(pair, init, p, grid):
    x2 = exact_squares(grid, p)[_pair_index(pair)]
    return lambda_minus(pair, x2, init)


def concurrence_series(pair, init, p, grid):
    """Concurrence of any of the 15 ``pair`` labels at each grid point.

    Every reduced pair state is an X state, so each concurrence follows in
    closed form from the squared amplitudes (Yu & Eberly, QIC 7, 459
    (2007)): C = 2 max(0, |rho_03| - sqrt(rho_11 rho_22),
    |rho_12| - sqrt(rho_00 rho_33)) in the basis |00>, |01>, |10>, |11>.
    With x^2, y^2 the squared amplitudes (|E|^2, |G|^2 or R^2) of the two
    subsystems:

    * same chain (a1c1, c1r1, ...): one excitation is shared within the
      chain, so rho_03 = rho_33 = 0, rho_11 = beta^2 y^2,
      rho_22 = beta^2 x^2 and |rho_12| = beta^2 |x y|, giving
      C = 2 beta^2 sqrt(x^2 y^2);
    * different chains (a1a2, a1c2, ...): the coherence alpha beta x y
      links |00> and |11>, and rho_11 rho_22 =
      beta^4 x^2 y^2 (1 - x^2)(1 - y^2), giving
      C = max(0, -2 beta sqrt(x^2 y^2) (beta sqrt((1 - x^2)(1 - y^2)) - alpha)),
      which for x = y is max(0, -2 lambda_-) of ``lambda_minus``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty time grid")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise ValueError("grid must be strictly increasing and start at t >= 0")
    if pair not in PAIR_LABELS:
        raise ValueError(f"unknown pair label {pair!r}")
    squares = exact_squares(grid, p)
    x2, y2 = (squares["acr".index(pair[k])] for k in (0, 2))
    a, b = init.alpha, init.beta
    xy = np.sqrt(x2 * y2)
    if pair[1] == pair[3]:          # same chain
        return 2.0 * b**2 * xy
    # |E|^2 can round to 1 + 4e-16 near t = 0, making the product negative
    rest = np.sqrt(np.maximum(0.0, (1.0 - x2) * (1.0 - y2)))
    return np.maximum(0.0, -2.0 * b * xy * (b * rest - a))


def _detection_grid(p, horizon, n_points, min_points_per_period):
    ob = p.omega_bar
    if ob.real > 0:
        period = 2.0 * np.pi / ob.real
        needed = int(np.ceil(min_points_per_period * horizon / period))
    else:
        needed = 0
    n = max(2000, needed) if n_points is None else int(n_points)
    if ob.real > 0 and n < needed:
        raise ConfigError(
            f"{n} grid points is too coarse for oscillation period {period:.3g}; "
            f"need at least {needed}")
    return np.linspace(0.0, horizon, n + 1)


def detect_events(pair, init, p, horizon, n_points=None,
                  min_points_per_period=POINTS_PER_PERIOD):
    """Locate all ESD/ESB/ESR events of a closed-form pair on (0, horizon].

    Sign changes of lambda_-(t) are bracketed on a dense grid (at least
    ``min_points_per_period`` points per Rabi period) and refined by
    bisection to better than 1e-6 in time.  A positive-going zero ends an
    entangled interval (ESD); a negative-going zero starts one (ESB the
    first time, ESR afterwards).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    grid = _detection_grid(p, horizon, n_points, min_points_per_period)
    lam = _lambda_on_grid(pair, init, p, grid)

    events = []
    # lambda(0) = 0 for all three pairs; the state just after t=0 decides
    # whether the pair is born entangled.
    entangled = lam[1] < 0.0
    ever_entangled = entangled or (pair == "a1a2" and init.alpha * init.beta > 0)
    if entangled and pair != "a1a2":
        # born entangled at t = 0+ without a sign change to bracket
        events.append(EventRecord(kind=ESB, pair=pair, time=0.0))
        ever_entangled = True

    f = lambda t: lambda_minus(pair, exact_squares(t, p)[_pair_index(pair)], init)
    for i in range(1, len(grid) - 1):
        a, b = lam[i], lam[i + 1]
        if a == 0.0 or np.sign(a) == np.sign(b):
            continue
        root = brentq(f, grid[i], grid[i + 1], xtol=1e-8)
        if a < 0.0:          # entangled -> unentangled
            events.append(EventRecord(kind=ESD, pair=pair, time=root))
            entangled = False
        else:                # unentangled -> entangled
            kind = ESR if ever_entangled else ESB
            events.append(EventRecord(kind=kind, pair=pair, time=root))
            entangled = True
            ever_entangled = True
    return events


def esb_time_strong(init, kappa=1.0):
    """Strong-coupling prediction 2 ln(beta/alpha) / kappa for the
    reservoir-pair sudden-birth time; requires beta >= alpha.

    The formula is leading order in kappa / g_eff.  The pair is born when
    1 - R^2 falls to alpha/beta, and exactly
        1 - R^2 = e^{-kappa t/2} [1 + (kappa/4w) sin 2wt + (kappa^2/8w^2) sin^2 wt]
    with w = omega_bar.  For w > kappa/4 the bracket lies in
    [1 - kappa/4w, 1 + kappa/4w + kappa^2/8w^2], so the exact time differs
    from this prediction by at most
        (2/kappa) max(ln(1 + kappa/4w + kappa^2/8w^2), -ln(1 - kappa/4w)),
    0.107/kappa at g_eff = 5 kappa, about 1/(2 g_eff) for g_eff >> kappa."""
    if init.beta < init.alpha:
        raise ValueError("no ESB prediction for beta < alpha")
    if init.alpha == 0:
        raise ValueError("beta = 1 never crosses the birth threshold at finite time")
    return 2.0 * np.log(init.beta / init.alpha) / kappa


class WeakEventTimes(NamedTuple):
    t_esd: float
    t_esb: float
    window: Optional[float]


def weak_event_times(init, gamma, kappa=1.0):
    """Weak-coupling closed-form event times.

    t_ESD = ln(beta/(beta-alpha)) / (4 gamma^2 kappa)
    t_ESB = ln(beta/alpha)        / (4 gamma^2 kappa)
    window = ln(beta/alpha - 1)   / (4 gamma^2 kappa), only for beta > 2 alpha.
    """
    a, b = init.alpha, init.beta
    if b <= a:
        raise ValueError("weak-coupling ESD/ESB require beta > alpha")
    pref = 1.0 / (4.0 * gamma**2 * kappa)
    t_esd = pref * np.log(b / (b - a))
    t_esb = pref * np.log(b / a)
    window = pref * np.log(b / a - 1.0) if b > 2.0 * a else None
    return WeakEventTimes(t_esd=t_esd, t_esb=t_esb, window=window)


def _phase_params(gamma, kappa):
    return SystemParams.from_geff(gamma * kappa, kappa=kappa)


def _phase_horizon(p):
    ob = p.omega_bar
    horizon = 20.0 / p.kappa
    if ob.real > 0:
        horizon = max(horizon, 10.0 * np.pi / ob.real)
    else:
        # overdamped: |G|^2 peaks at tanh(nu t) = 4 nu / kappa
        nu = ob.imag
        x = min(4.0 * nu / p.kappa, 1.0 - 1e-12)
        horizon = max(horizon, 3.0 * np.arctanh(x) / nu)
    return horizon


def cavity_boundary(gamma, kappa=1.0):
    """Minimum over t of 1 - |G_t|^2 with exact amplitudes: the critical
    alpha/beta ratio above which the cavities entangle.

    |G_t|^2 = g_eff^2 |sin(w t) / w|^2 e^{-kappa t / 2} (w = omega_bar)
    takes its largest value at its first peak, where tan(w t) = 4 w / kappa:
    t* = arctan(4 w / kappa) / w, which is tanh(nu t*) = 4 nu / kappa when
    overdamped (w = i nu) and t* = 4 / kappa at critical damping.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    p = _phase_params(gamma, kappa)
    ob = p.omega_bar
    z = 4.0 * ob / p.kappa
    # arctan(z) / w = (4 / kappa)(1 - z^2 / 3 + ...)
    t_peak = 4.0 / p.kappa if abs(z) < 1e-8 else (np.arctan(z) / ob).real
    return float(1.0 - exact_squares(t_peak, p)[1])


def cavity_phase(gamma, ratio):
    """'entangled' if cavities entangle at some time for alpha/beta = ratio."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio alpha/beta must lie in (0, 1)")
    return "entangled" if ratio > cavity_boundary(gamma) else "unentangled"


def _cavity_quiet_time(p, level):
    """A time after which |G_t|^2 < level for good.

    |G_t|^2 = g_eff^2 |sin(w t) / w|^2 e^{-kappa t / 2} with w = omega_bar
    lies below g_eff^2 min(a^2, t^2) e^{-c t}, where
      underdamped:          a = 1 / |w|,     c = kappa / 2,
      overdamped (w = i nu): a = 1 / (2 nu),  c = kappa / 2 - 2 nu;
    and t^2 e^{-c t} <= (4 / (e c))^2 e^{-c t / 2} keeps the bound finite
    at critical damping, where a diverges.
    """
    ob = p.omega_bar
    g2 = p.g_eff**2
    if ob.real > 0:
        a2, c = 1.0 / ob.real**2, p.kappa / 2.0
    else:
        nu = ob.imag
        a2 = 1.0 / (4.0 * nu**2) if nu > 0 else np.inf
        c = 4.0 * g2 / (p.kappa / 2.0 + 2.0 * nu)   # kappa/2 - 2 nu, no cancellation
    t_exp = np.log(g2 * a2 / level) / c
    t_poly = 2.0 * np.log(16.0 * g2 / (np.e**2 * c**2 * level)) / c
    return max(0.0, min(t_exp, t_poly))


def cavity_entangled_intervals(gamma, ratio, kappa=1.0, n_points=8000):
    """Time intervals on which the cavity pair is entangled for
    alpha/beta = ratio (exact amplitudes): where 1 - |G_t|^2 < ratio.

    The scan ends where an envelope of |G|^2 has fallen to half the
    threshold 1 - ratio, so every crossing lies inside it; its spacing is
    at most that of the ``n_points`` grid on ``_phase_horizon``.  When
    overdamped, |G|^2 peaks once, at tanh(nu t) = 4 nu / kappa, well
    inside ``_phase_horizon``; the grid stops there and an ESD beyond it
    is the single root left before the scan end.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio alpha/beta must lie in (0, 1)")
    p = _phase_params(gamma, kappa)
    horizon = _phase_horizon(p)
    t_end = _cavity_quiet_time(p, 0.5 * (1.0 - ratio))
    overdamped = p.omega_bar.real == 0.0
    grid_end = min(t_end, horizon) if overdamped else t_end
    n = max(n_points, int(np.ceil(grid_end * n_points / horizon)))
    ts = np.linspace(0.0, grid_end, n + 1)
    f = lambda t: (1.0 - exact_squares(t, p)[1]) - ratio
    vals = f(ts)
    below = vals < 0.0
    intervals = []
    start = None
    for i in range(1, len(ts)):
        if below[i] and not below[i - 1]:
            start = brentq(f, ts[i - 1], ts[i], xtol=1e-10)
        elif not below[i] and below[i - 1] and start is not None:
            intervals.append((start, brentq(f, ts[i - 1], ts[i], xtol=1e-10)))
            start = None
    if start is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(f(t_end))
        if not finite:
            raise ValueError(
                f"the cavity pair is still entangled at t = {grid_end:.6g} and "
                f"disentangles past the range where the exact amplitudes are finite")
        intervals.append((start, brentq(f, grid_end, t_end, xtol=1e-10)))
    return intervals


@dataclass(frozen=True)
class PhaseDiagram:
    gammas: np.ndarray
    ratios: np.ndarray
    entangled: np.ndarray            # bool, shape (len(gammas), len(ratios))
    boundary: np.ndarray             # critical ratio per gamma


def phase_diagram(gammas, ratios):
    """Cavity entangled/unentangled verdicts on a (gamma, ratio) grid,
    using the exact-amplitude criterion throughout."""
    gammas = np.asarray(gammas, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    if gammas.size == 0 or ratios.size == 0:
        raise ValueError("empty grid")
    boundary = np.array([cavity_boundary(g) for g in gammas])
    entangled = ratios[None, :] > boundary[:, None]
    return PhaseDiagram(gammas=gammas, ratios=ratios,
                        entangled=entangled, boundary=boundary)


def dead_window(init, p, horizon):
    """Maximal interval on which a1a2, c1c2 and r1r2 are simultaneously
    unentangled; None if there is no such interval (or no entanglement at
    all to begin with)."""
    if init.alpha * init.beta == 0:
        return None
    per_pair = {pair: detect_events(pair, init, p, horizon) for pair in DIAGONAL_PAIRS}
    cuts = sorted({0.0, horizon} | {ev.time for evs in per_pair.values() for ev in evs})
    best = None
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-9:
            continue
        mid = 0.5 * (lo + hi)
        x2s = exact_squares(mid, p)
        dead = all(
            max(0.0, -2.0 * lambda_minus(pair, x2s[i], init)) < ZERO_THRESHOLD
            for i, pair in enumerate(DIAGONAL_PAIRS)
        )
        if dead and (best is None or hi - lo > best[1] - best[0]):
            best = (lo, hi)
    return best
