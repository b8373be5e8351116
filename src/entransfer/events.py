"""Sudden-death/birth/revival detection and the cavity phase diagram.

Event detection brackets sign changes, so it works on the smooth g = -C/2
of a pair on different chains, not on the clipped concurrence C.  Times are
in units of 1/kappa and rates in units of kappa (kappa = 1).
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ._roots import brentq
from .amplitudes import SystemParams, exact_squares
from .errors import ConfigError, require_memory
from .jointstate import DIAGONAL_PAIRS, PAIR_LABELS

# bench/spans.py wraps events.brentq and events.minimize_scalar by name; the
# next benchmark revision (ROADMAP item 1) traces brentq alone and deletes this
minimize_scalar = brentq

# least detection-grid points per Rabi period, and least grid cells
POINTS_PER_PERIOD = 40
MIN_CELLS = 2000
# peak bytes per detection-grid point, measured with numpy 2 on CPython 3.11
GRID_POINT_BYTES = 128

ESD = "ESD"
ESB = "ESB"
ESR = "ESR"


@dataclass(frozen=True)
class EventRecord:
    kind: str       # ESD | ESB | ESR
    pair: str
    time: float     # units 1/kappa


def _cross_pair(pair, init, squares):
    """g = -C/2 of a pair on different chains at ``squares =
    exact_squares(t, p)``: with x^2, y^2 the squares of its two subsystems,
    g = beta x y (beta sqrt((1 - x^2)(1 - y^2)) - alpha), which for x = y
    is ``lambda_minus`` to the last bit."""
    x2, y2 = (squares["acr".index(pair[k])] for k in (0, 2))
    a, b = init.alpha, init.beta
    # |E|^2 can round to 1 + 4e-16 near t = 0, making the product negative
    rest = np.sqrt(np.maximum(0.0, (1.0 - x2) * (1.0 - y2)))
    return b * np.sqrt(x2 * y2) * (b * rest - a)


def _cross_margin(pair, init, squares):
    """(margin, live): where ``live`` (beta x^2 y^2 > 0), g has the sign of
    beta^2 q - alpha^2, q = (1 - x^2)(1 - y^2), else C = 0.  Where q > 1/2 it
    is taken as (beta - alpha)(beta + alpha) - beta^2 (x^2 + y^2 - x^2 y^2),
    which keeps the small x^2, y^2 that 1 - x^2 rounds away."""
    x2, y2 = (squares["acr".index(pair[k])] for k in (0, 2))
    a, b = init.alpha, init.beta
    q = (1.0 - x2) * (1.0 - y2)
    return (np.where(q > 0.5, (b - a) * (b + a) - b**2 * (x2 + y2 - x2 * y2),
                     b**2 * q - a**2), b * x2 * y2 > 0.0)


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
      C = max(0, -2 g) with g of ``_cross_pair``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty time grid")
    # increasing from a finite start to a finite end: every point is finite
    if not (grid[0] >= 0 and grid[-1] < np.inf and np.all(np.diff(grid) > 0)):
        raise ValueError("grid must be finite, strictly increasing and start at t >= 0")
    if pair not in PAIR_LABELS:
        raise ValueError(f"unknown pair label {pair!r}")
    squares = exact_squares(grid, p)
    if pair[1] != pair[3]:
        return np.maximum(0.0, -2.0 * _cross_pair(pair, init, squares))
    x2, y2 = (squares["acr".index(pair[k])] for k in (0, 2))   # same chain
    return 2.0 * init.beta**2 * np.sqrt(x2 * y2)


def _require_horizon(horizon):
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")


def _detection_cells(p, horizon, n_points, what=None):
    """Cell count of the detection grid on [0, horizon]: ``n_points``, or by
    default POINTS_PER_PERIOD per Rabi period and at least MIN_CELLS.

    Raises ConfigError, before anything is allocated, if the grid would not
    fit in physical memory, naming it ``what`` (default: by its cell count
    and horizon)."""
    if n_points is not None and n_points < 1:
        raise ValueError(f"the detection grid needs at least 1 cell, got {n_points}")
    period = 2.0 * np.pi / p.omega_bar.real if p.omega_bar.real > 0 else np.inf
    needed = np.ceil(POINTS_PER_PERIOD * horizon / period)
    n = max(MIN_CELLS, needed) if n_points is None else n_points
    if n < needed:
        raise ConfigError(
            f"{n} grid points is too coarse for oscillation period {period:.3g}; "
            f"need at least {needed:.0f}")
    # n may be a float too large (inf included) for any grid
    require_memory((n + 1.0) * GRID_POINT_BYTES,
                   what or f"a detection grid of {n:g} cells on horizon {horizon:g}")
    return int(n)


def detect_events(pair, init, p, horizon, n_points=None):
    """ESD/ESB/ESR events on [0, horizon] of a pair on different chains
    (same-chain pairs, C = 2 beta^2 |x y|, only touch zero).

    The ``_cross_margin`` sign is read at t = 0 and at the live points of a
    grid of ``n_points`` cells (default: POINTS_PER_PERIOD per Rabi period,
    at least MIN_CELLS), and each change is refined by brentq to 1e-8 in
    time: an ESD, or an ESB the first time and an ESR afterwards; an ESB at
    0 if C(0) = 0 < C just after.  Two crossings in one cell can go unseen.
    """
    if pair not in PAIR_LABELS or pair[1] == pair[3]:
        raise ValueError(f"event detection takes a pair on different chains "
                         f"(a1a2, a1c2, ...), got {pair!r}")
    _require_horizon(horizon)
    grid = np.linspace(0.0, horizon, _detection_cells(p, horizon, n_points) + 1)
    squares = exact_squares(grid, p)
    g, (margin, live) = _cross_pair(pair, init, squares), _cross_margin(pair, init, squares)
    # C(0) = 0 for all pairs but a1a2; the margin at t = 0 is the sign just after
    born, live[0] = not live[0], init.beta > 0.0
    live = np.flatnonzero(live)
    entangled = margin[live] < 0.0
    g_at = lambda t: _cross_pair(pair, init, exact_squares(t, p))
    margin_at = lambda t: _cross_margin(pair, init, exact_squares(t, p))[0]
    ever_entangled = entangled[:1].any()
    events = [EventRecord(ESB, pair, 0.0)] if born and ever_entangled else []
    for k in np.flatnonzero(entangled[:-1] != entangled[1:]):
        lo, hi = live[k], live[k + 1]
        # refine on g, or on the margin where g has rounded to one sign
        f = g_at if np.sign(g[lo]) * np.sign(g[hi]) < 0.0 else margin_at
        root = brentq(f, grid[lo], grid[hi], xtol=1e-8)
        kind = ESD if entangled[k] else ESR if ever_entangled else ESB
        events.append(EventRecord(kind=kind, pair=pair, time=root))
        ever_entangled = True
    return events


def esb_time_strong(init):
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
    return 2.0 * np.log(init.beta / init.alpha)


class WeakEventTimes(NamedTuple):
    t_esd: float
    t_esb: float
    window: Optional[float]


def weak_event_times(init, gamma):
    """Weak-coupling closed-form event times.

    t_ESD = ln(beta/(beta-alpha)) / (4 gamma^2 kappa)
    t_ESB = ln(beta/alpha)        / (4 gamma^2 kappa)
    window = ln(beta/alpha - 1)   / (4 gamma^2 kappa), only for beta > 2 alpha.
    """
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be positive and finite")
    a, b = init.alpha, init.beta
    if b <= a:
        raise ValueError("weak-coupling ESD/ESB require beta > alpha")
    if a == 0:
        raise ValueError("alpha = 0 never crosses the ESD/ESB thresholds at finite time")
    pref = 1.0 / (4.0 * gamma**2)
    t_esd = pref * np.log(b / (b - a))
    t_esb = pref * np.log(b / a)
    window = pref * np.log(b / a - 1.0) if b > 2.0 * a else None
    return WeakEventTimes(t_esd=t_esd, t_esb=t_esb, window=window)


def _cavity_peak(p):
    """Time of the first (and highest) peak of |G_t|^2, where
    tan(w t) = 4 w / kappa with w = omega_bar: t* = arctan(4 w / kappa) / w,
    which is tanh(nu t*) = 4 nu / kappa when overdamped (w = i nu) and
    t* = 4 / kappa at critical damping."""
    ob = p.omega_bar
    z = 4.0 * ob / p.kappa
    # arctan(z) / w = (4 / kappa)(1 - z^2 / 3 + ...)
    return 4.0 / p.kappa if abs(z) < 1e-8 else float((np.arctan(z) / ob).real)


def cavity_boundary(gamma):
    """Minimum over t of 1 - |G_t|^2 with exact amplitudes: the critical
    alpha/beta ratio above which the cavities entangle.

    |G_t|^2 = g_eff^2 |sin(w t) / w|^2 e^{-kappa t / 2} (w = omega_bar)
    takes its largest value at its first peak, ``_cavity_peak``.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    p = SystemParams.from_geff(gamma)
    return float(1.0 - exact_squares(_cavity_peak(p), p)[1])


def cavity_phase(gamma, ratio):
    """'entangled' if cavities entangle at some time for alpha/beta = ratio."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio alpha/beta must lie in (0, 1)")
    return "entangled" if ratio > cavity_boundary(gamma) else "unentangled"


def cavity_entangled_intervals(gamma, ratio):
    """Time intervals on which the cavity pair is entangled for
    alpha/beta = ratio (exact amplitudes): where 1 - |G_t|^2 < ratio.

    |G_t|^2 is monotone between its closed-form critical points, so every
    crossing has an exact bracket, refined by brentq to 1e-10 in time.
    Underdamped (real w = omega_bar), |G|^2 vanishes at k pi / w and peaks
    at t* + k pi / w (t* from ``_cavity_peak``), each peak e^{-kappa pi / 2w}
    times the one before: an interval opens and closes around every peak
    above 1 - ratio.  Overdamped or critically damped, |G|^2 peaks once,
    at t*: the ESB lies in [0, t*], and the ESD past t* in the first of
    [t*, 2t*], [2t*, 4t*], ... where f >= 0 again.  Raises ValueError if
    the amplitudes overflow (kappa t ~ 2840) before that.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio alpha/beta must lie in (0, 1)")
    p = SystemParams.from_geff(gamma)
    f = lambda t: (1.0 - exact_squares(t, p)[1]) - ratio
    t_peak = _cavity_peak(p)
    if f(t_peak) >= 0.0:
        return []
    ob = p.omega_bar.real
    if ob > 0.0:
        half = np.pi / ob
        # peak k stands at |G(t*)|^2 e^{-kappa k half / 2}: count those above
        # 1 - ratio, plus one spare against rounding
        efolds = np.log(exact_squares(t_peak, p)[1] / (1.0 - ratio))
        peaks = t_peak + half * np.arange(int(efolds / (p.kappa * half / 2.0)) + 2)
        return [(brentq(f, k * half, peaks[k], xtol=1e-10),
                 brentq(f, peaks[k], (k + 1) * half, xtol=1e-10))
                for k in np.flatnonzero(f(peaks) < 0.0)]
    lo, hi = t_peak, 2.0 * t_peak
    with np.errstate(over="ignore", invalid="ignore"):
        # cosh and sinh overflow near kappa t ~ 2840, leaving f NaN or -inf
        while np.isfinite(f_hi := f(hi)) and f_hi < 0.0:
            lo, hi = hi, 2.0 * hi
    if not np.isfinite(f_hi):
        raise ValueError(
            f"the cavity pair is still entangled at t = {lo:.6g} and "
            f"disentangles past the range where the exact amplitudes are finite")
    return [(brentq(f, 0.0, t_peak, xtol=1e-10), brentq(f, lo, hi, xtol=1e-10))]


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
    """Widest interval on which no pair on different chains is entangled;
    None if there is none (or no entanglement at all to begin with).

    Only a1a2, c1c2 and r1r2 need a scan: where all three are unentangled,
    beta (1 - x^2) >= alpha for x^2 = |E|^2, |G|^2 and R^2, and the product
    of two of these, beta^2 (1 - x^2)(1 - y^2) >= alpha^2, leaves the other
    six unentangled too.  The window is the widest gap in the union of the
    intervals their alternating events bound (a1a2 starts entangled).
    """
    _require_horizon(horizon)
    if init.alpha * init.beta == 0:
        return None
    covered = []
    for pair in DIAGONAL_PAIRS:
        ends = [0.0] if pair == "a1a2" else []
        ends += [ev.time for ev in detect_events(pair, init, p, horizon)]
        covered += zip(ends[::2], ends[1::2] + [horizon])
    gaps, reach = [], 0.0
    for lo, hi in sorted(covered) + [(horizon, horizon)]:
        gaps += [(reach, lo)] if lo > reach else []
        reach = max(reach, hi)
    return max(gaps, key=lambda gap: gap[1] - gap[0], default=None)
