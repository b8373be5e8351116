"""The two-chain model, its pair concurrences, sudden-death/birth/revival
detection and the cavity phase diagram.

The model is defined here: the initial state alpha |gg> + beta |ee> with
cavities and reservoirs in vacuum (``InitialAmplitudes``), the 15 pair
labels and ``lambda_minus`` of the a1a2 / c1c2 / r1r2 states.  Event
detection brackets sign changes, so it works on the smooth g = -C/2 of a
pair on different chains, not on the clipped concurrence C.  Times are in
the inverse unit of the rates of ``SystemParams``, or 1/kappa without one.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ._roots import brentq
from .amplitudes import SystemParams, _check_grid, exact_squares
from .errors import ConfigError, require_memory

# bench/spans.py wraps events.brentq and events.minimize_scalar by name; the
# next benchmark revision (ROADMAP item 1) traces brentq alone and deletes this
minimize_scalar = brentq

# least detection-grid points per Rabi period, and least grid cells
POINTS_PER_PERIOD = 40
MIN_CELLS = 2000
# peak bytes per detection-grid point, measured with numpy 2 on CPython 3.11
GRID_POINT_BYTES = 128
# the same per half period pi / w for the scans of ``_intervals`` at two
# crossings, the most there are (3.1-3.3 kB)
SCAN_STEP_BYTES = 4096

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

ESD = "ESD"
ESB = "ESB"
ESR = "ESR"


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


def lambda_minus(pair, x2, init):
    """Negative partial-transpose eigenvalue beta x^2 (beta (1 - x^2) - alpha)
    of the closed-form pair matrix; array-aware in x2."""
    if pair not in DIAGONAL_PAIRS:
        raise ValueError(f"no closed-form lambda for pair {pair!r}")
    a, b = init.alpha, init.beta
    return b * x2 * (b * (1.0 - x2) - a)


@dataclass(frozen=True)
class EventRecord:
    kind: str       # ESD | ESB | ESR
    pair: str
    time: float     # in the inverse unit of the rates


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
    which keeps the small x^2, y^2 that 1 - x^2 rounds away, else as
    beta sqrt(max(q, 0)) - alpha, which keeps the alpha that alpha^2 underflows."""
    x2, y2 = (squares["acr".index(pair[k])] for k in (0, 2))
    a, b = init.alpha, init.beta
    q = (1.0 - x2) * (1.0 - y2)
    return (np.where(q > 0.5, (b - a) * (b + a) - b**2 * (x2 + y2 - x2 * y2),
                     b * np.sqrt(np.maximum(q, 0.0)) - a), b * x2 * y2 > 0.0)


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
    grid = _check_grid(grid)
    if pair not in PAIR_LABELS:
        raise ValueError(f"unknown pair label {pair!r}")
    squares = exact_squares(grid, p)
    if pair[1] != pair[3]:
        return np.maximum(0.0, -2.0 * _cross_pair(pair, init, squares))
    x2, y2 = (squares["acr".index(pair[k])] for k in (0, 2))   # same chain
    return 2.0 * init.beta**2 * np.sqrt(x2 * y2)


def _detection_cells(p, horizon, n_points, what=None):
    """Cell count of the detection grid on [0, horizon]: ``n_points``, or by
    default POINTS_PER_PERIOD per Rabi period and at least MIN_CELLS.

    Raises ValueError unless the horizon is positive and finite, and
    ConfigError, before anything is allocated, if the grid would not fit in
    physical memory, naming it ``what`` (default: by its cell count and
    horizon)."""
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
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
    0 if C(0) = 0 < C just after.  ``_lattice`` splits the cells of a1a2,
    c1c2 and r1r2 so that none holds two crossings; two crossings of a mixed
    pair (a1c2, ...) in one cell can go unseen.  Non-finite amplitudes raise
    ValueError."""
    if pair not in PAIR_LABELS or pair[1] == pair[3]:
        raise ValueError(f"event detection takes a pair on different chains "
                         f"(a1a2, a1c2, ...), got {pair!r}")
    grid = np.linspace(0.0, horizon, _detection_cells(p, horizon, n_points) + 1)
    if pair in DIAGONAL_PAIRS:
        grid = np.union1d(grid, _lattice(p, horizon))
    squares = _finite(exact_squares(grid, p), horizon)
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
    tanh(nu t*) = 4 nu / kappa overdamped (w = i nu), 4 / kappa at critical
    damping, pi / 2w at kappa = 0.  Below gamma ~ 2e-9, 4 nu / kappa rounds
    to 1 and t* is inf: the peak, of order gamma^2, rounds away against 1."""
    ob = p.omega_bar
    z = 4.0 * ob / p.kappa if p.kappa > 0 else np.inf
    if z == 1j:
        return np.inf
    # arctan(z) / w = (4 / kappa)(1 - z^2 / 3 + ...)
    return 4.0 / p.kappa if abs(z) < 1e-8 else float((np.arctan(z) / ob).real)


def _lattice(p, horizon):
    """0, ``horizon`` and the times between at which |E|^2 or |G|^2 is
    stationary, so that |E|^2, |G|^2 and R^2 (dR^2/dt = kappa |G|^2) are
    monotone between neighbours.  As dE/dt = -g_eff^2 (sin(w t) / w) e^{-kappa t / 4},
    for real w = omega_bar these are k pi / w, the zeros k pi / w - t* of E and
    the peaks t* + k pi / w of |G|^2; else E > 0 falls and |G|^2 peaks at t*."""
    t_peak, w = _cavity_peak(p), p.omega_bar.real
    k_pi = np.arange(horizon * w // np.pi + 2.0) * np.pi / w if w > 0.0 else np.zeros(1)
    inner = np.concatenate((k_pi, t_peak + k_pi, k_pi - t_peak))
    return np.union1d(inner[(inner > 0.0) & (inner < horizon)], [0.0, horizon])


def _finite(values, horizon):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"the exact amplitudes are not finite on [0, {horizon:g}]")
    return values


def _intervals(f, p, horizon, xtol):
    """Intervals of [0, horizon] on which f < 0, for an f monotone between
    neighbours of ``_lattice(p, horizon)``.  One array call narrows each
    end's bracket to a sixteenth of its cell, and brentq refines it to xtol.
    ConfigError, raised before allocating, marks scans past physical memory."""
    n = horizon * p.omega_bar.real / np.pi + 2.0
    require_memory(n * SCAN_STEP_BYTES, f"a scan of {n:g} half periods on horizon {horizon:g}")
    ts = _lattice(p, horizon)
    neg = _finite(f(ts), horizon) < 0.0
    k = np.flatnonzero(neg[:-1] != neg[1:])
    sub = np.linspace(ts[k], ts[k + 1], 17, axis=-1)
    sub_neg = _finite(f(sub.ravel()), horizon).reshape(sub.shape) < 0.0
    j = np.argmax(sub_neg != neg[k, None], axis=1)
    ends = [brentq(f, row[i - 1], row[i], xtol=xtol) for row, i in zip(sub, j)]
    ends = ([float(ts[0])] if neg[0] else []) + ends + ([float(ts[-1])] if neg[-1] else [])
    return list(zip(ends[::2], ends[1::2]))


def cavity_boundary(gamma):
    """Minimum over t of 1 - |G_t|^2 with exact amplitudes: the critical
    alpha/beta ratio above which the cavities entangle.

    |G_t|^2 = g_eff^2 |sin(w t) / w|^2 e^{-kappa t / 2} (w = omega_bar)
    takes its largest value at its first peak, ``_cavity_peak``.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    p = SystemParams.from_geff(gamma)
    t_peak = _cavity_peak(p)
    return 1.0 if t_peak == np.inf else float(1.0 - exact_squares(t_peak, p)[1])


def cavity_phase(gamma, ratio):
    """'entangled' if cavities entangle at some time for alpha/beta = ratio."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio alpha/beta must lie in (0, 1)")
    return "entangled" if ratio > cavity_boundary(gamma) else "unentangled"


def cavity_entangled_intervals(gamma, ratio):
    """Time intervals on which the cavity pair is entangled for
    alpha/beta = ratio (exact amplitudes): where 1 - |G_t|^2 < ratio.

    ``_lattice`` brackets each crossing, refined to 1e-10 in time, up to a
    half period pi / w past the last peak of |G|^2 above 1 - ratio (real
    w = omega_bar), else to the first of 2t*, 4t*, ... where f >= 0 again.
    Non-finite amplitudes (kappa t ~ 2840 overdamped) raise ValueError, and
    a scan past physical memory ConfigError."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio alpha/beta must lie in (0, 1)")
    p = SystemParams.from_geff(gamma)
    f = lambda t: (1.0 - exact_squares(t, p)[1]) - ratio
    t_peak = _cavity_peak(p)
    if t_peak == np.inf or f(t_peak) >= 0.0:
        return []
    hi = 2.0 * t_peak
    with np.errstate(over="ignore", invalid="ignore"):
        if p.omega_bar.real > 0.0:
            half = np.pi / p.omega_bar.real
            # peak k is |G(t*)|^2 e^{-kappa k half / 2}; one spare against rounding
            efolds = np.log(exact_squares(t_peak, p)[1] / (1.0 - ratio))
            hi = t_peak + half * (int(efolds / (p.kappa * half / 2.0)) + 2)
        # cosh and sinh overflow near kappa t ~ 2840: f turns -inf, then NaN
        while f(hi) < 0.0:
            hi *= 2.0
        return _intervals(f, p, hi, xtol=1e-10)


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

    Only a1a2, c1c2 and r1r2 need a search: where all three are unentangled,
    beta (1 - x^2) >= alpha for x^2 = |E|^2, |G|^2 and R^2, and the product
    of two of these, beta^2 (1 - x^2)(1 - y^2) >= alpha^2, leaves the other
    six unentangled too.  The window is the earliest of the widest gaps
    (widths within 2e-8 tie) between the intervals where their margins are
    negative, whose ends ``_lattice`` brackets, refined to 1e-8."""
    _detection_cells(p, horizon, None)    # validates the horizon
    if init.alpha * init.beta == 0:
        return None
    covered = []
    for pair in DIAGONAL_PAIRS:
        margin = lambda t, pair=pair: _cross_margin(pair, init, exact_squares(t, p))[0]
        covered += _intervals(margin, p, horizon, xtol=1e-8)
    gaps, reach = [], 0.0
    for lo, hi in sorted(covered) + [(horizon, horizon)]:
        gaps += [(reach, lo)] if lo > reach else []
        reach = max(reach, hi)
    widest = max((hi - lo for lo, hi in gaps), default=None)
    return next((gap for gap in gaps if gap[1] - gap[0] >= widest - 2e-8), None)
