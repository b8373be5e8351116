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

from ._roots import RTOL, brentq
from .amplitudes import SystemParams, _check_grid, exact_squares
from .errors import require_memory

# bench/spans.py wraps events.brentq and events.minimize_scalar by name; the
# next benchmark revision (ROADMAP item 1) traces brentq alone and deletes this
minimize_scalar = brentq

# least detection-grid points per Rabi period, and least grid cells
POINTS_PER_PERIOD = 40
MIN_CELLS = 2000
# peak bytes per detection-grid point, measured with numpy 2 on CPython 3.11
GRID_POINT_BYTES = 128

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


def _detection_cells(p, horizon, what=None):
    """Cell count of the detection grid np.linspace(0, horizon, cells + 1):
    POINTS_PER_PERIOD per Rabi period and at least MIN_CELLS.

    ValueError unless the horizon is positive and finite; ConfigError, before
    allocating, if the grid, or ``_filled`` filling every span (~85 B a cell),
    would not fit in physical memory, named ``what`` or by cells and horizon."""
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
    period = 2.0 * np.pi / p.omega_bar.real if p.omega_bar.real > 0 else np.inf
    n = max(MIN_CELLS, np.ceil(POINTS_PER_PERIOD * horizon / period))
    # n may be a float too large (inf included) for any grid
    require_memory((n + 1.0) * GRID_POINT_BYTES,
                   what or f"a detection grid of {n:g} cells on horizon {horizon:g}")
    return int(n)


def _margin_rounding(init):
    """8 eps of ``_cross_margin``'s terms near 0, beta^2 - alpha^2 and alpha:
    the most it rounds to there; a touch of 0 reads up to eps / 2 either side."""
    a, b = init.alpha, init.beta
    return 8.0 * np.finfo(float).eps * min(abs((b - a) * (b + a)), a)


def _split_opposed(pair, init, p, horizon, t, s):
    """(times, squares): the ``_lattice`` times ``t`` and their squares ``s``,
    where a mixed pair's x^2, y^2 are monotone between neighbours, with each
    cell cut in 16 while it is wider than brentq's tolerance and M = beta^2
    (1 - x^2)(1 - y^2) - alpha^2 may cross 0 twice in it: x^2 and y^2 move
    apart, M at the cell's larger and smaller squares straddles 0, and
    sqrt|M| <= sqrt(3/4) beta A h at an end, as A = g_eff + kappa bounds each
    square's slope and 2 A^2 its curvature (E' = -g_eff G/i,
    (G/i)' = g_eff E - kappa G/2i), so |M''| <= 6 (beta A)^2.
    ConfigError if the points would not fit in physical memory."""
    i, j = ("acr".index(pair[k]) for k in (0, 2))
    a, b = init.alpha, init.beta
    # not squared: (beta A)^2 underflows to 0 for A below about 1e-162
    slope = np.sqrt(0.75) * b * (p.g_eff + p.kappa)
    cut, n = [], t.size
    while True:
        cut.append(np.vstack((t.reshape(1, -1), s.reshape(3, -1))))
        lower, upper = (_cross_margin(pair, init, f(s[..., :-1], s[..., 1:]))[0]
                        for f in (np.maximum, np.minimum))
        m = np.sqrt(np.abs(b * b * (1.0 - s[i]) * (1.0 - s[j]) - a * a))
        step, h = np.diff(s), np.diff(t)
        split = ((step[i] * step[j] < 0.0) & (lower < 0.0) & (upper >= 0.0)
                 & (np.minimum(m[..., :-1], m[..., 1:]) <= slope * h)
                 & (h > 1e-8 + RTOL * t[..., 1:]))
        # an exact touch of 0 is cut at every level, so the points grow with it
        n += 17 * np.count_nonzero(split)
        require_memory(n * GRID_POINT_BYTES,
                       f"a detection grid of {n:g} points on horizon {horizon:g}")
        t = np.linspace(t[..., :-1][split], t[..., 1:][split], 17, axis=-1)
        if not t.size:
            break
        s = np.asarray(_finite(exact_squares(t, p), horizon))
    cut = np.concatenate(cut, axis=1)
    first = _first_of_each(cut[0])
    return cut[0, first], cut[1:, first]


def _filled(p, horizon, signs, cells, t, s):
    """(times, squares): the ``_lattice`` times ``t``, with squares ``s``,
    joined with the points of the detection grid np.linspace(0, horizon,
    cells + 1) in each span between neighbours that ``signs(squares)`` =
    (negative, signed, live) neither signs alike nor finds both dead, and one
    either side: a subset of their union."""
    neg, signed, live = signs(s)
    alike = signed[:-1] & signed[1:] & (neg[:-1] == neg[1:])
    k = np.flatnonzero(~alike & (live[:-1] | live[1:]))
    if not k.size:
        return t, s
    # linspace's i h, h = horizon / cells; (i / cells) horizon on [0, horizon] if h = 0
    step = horizon / cells
    lo, hi = (t[k] // step, t[k + 1] // step + 1.0) if step else (0.0 * k, 0.0 * k + cells)
    lo, hi = np.maximum(lo, 1.0), np.minimum(hi, cells - 1.0)
    n = np.maximum(hi - lo + 1.0, 0.0).astype(int)
    i = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(np.sum(n))
    fill = i * step if step else i / cells * horizon
    # exact_squares works point by point, so the lattice's squares are kept
    t = np.concatenate((t, fill))
    s = np.concatenate((s, np.asarray(_finite(exact_squares(fill, p), horizon))), axis=1)
    first = _first_of_each(t)
    return t[first], s[:, first]


def _first_of_each(t):
    """Indices that sort ``t``, keeping the first occurrence of each value:
    ``np.unique(t, return_index=True)[1]``, without the numpy.ma import that
    np.unique and np.union1d make on their first call."""
    order = np.argsort(t, kind="stable")
    t = t[order]
    return order[np.concatenate(([True], t[1:] != t[:-1]))]


def detect_events(pair, init, p, horizon):
    """ESD/ESB/ESR events on [0, horizon] of a pair on different chains
    (same-chain pairs, C = 2 beta^2 |x y|, only touch zero).

    The ``_cross_margin`` sign is read where signed (x^2 y^2 > 0 and beyond
    ``_margin_rounding``, so a touch of 0 is no event; at t = 0 the sign just
    after): on ``_split_opposed`` for a mixed pair, so no cell holds two
    crossings 1e-8 apart, else on ``_filled``, whose grid sets the last
    digits.  Each change is refined by brentq to 1e-8: an ESD, or an ESB the
    first time and an ESR afterwards; an ESB at 0 if C(0) = 0 < C just after.
    Non-finite amplitudes raise ValueError, a grid past memory ConfigError."""
    _check_cross(pair)
    return _events((pair,), init, p, horizon, _detection_cells(p, horizon))


def _check_cross(pair):
    if pair not in PAIR_LABELS or pair[1] == pair[3]:
        raise ValueError(f"event detection takes a pair on different chains "
                         f"(a1a2, a1c2, ...), got {pair!r}")


def _events(pairs, init, p, horizon, cells):
    """``detect_events`` of each of ``pairs`` in turn, given ``cells =
    _detection_cells(p, horizon)``: the pairs share one ``_lattice`` and its
    squares, built once the first pair passes its check."""
    lattice, events = None, []
    for pair in pairs:
        _check_cross(pair)
        if lattice is None:
            lattice = _lattice_squares(p, horizon)
        events += _pair_events(pair, init, p, horizon, cells, *lattice)
    return events


def _pair_events(pair, init, p, horizon, cells, t, s):
    """``detect_events`` of ``pair`` from the lattice times ``t`` and squares ``s``."""
    def signs(squares):     # (negative, signed, live)
        margin, live = _cross_margin(pair, init, squares)
        signed = live & (np.abs(margin) > _margin_rounding(init))
        signed[0] = init.beta > 0.0
        return margin < 0.0, signed, live
    if pair in DIAGONAL_PAIRS:      # monotone margins between lattice neighbours
        grid, squares = _filled(p, horizon, signs, cells, t, s)
    else:
        grid, squares = _split_opposed(pair, init, p, horizon, t, s)
    entangled, signed, live = signs(squares)
    # C(0) = 0 for all pairs but a1a2, born at 0 only if live at a later point
    born, signed = not live[0] and live[1:].any(), np.flatnonzero(signed)
    entangled = entangled[signed]
    changes = np.flatnonzero(entangled[:-1] != entangled[1:])
    lo, hi = signed[changes], signed[changes + 1]
    # refine on g, or on the margin where g has rounded to one sign
    g_lo, g_hi = (_cross_pair(pair, init, squares[:, k]) for k in (lo, hi))
    on_g = np.sign(g_lo) * np.sign(g_hi) < 0.0
    g_at = lambda t: _cross_pair(pair, init, exact_squares(t, p))
    margin_at = lambda t: _cross_margin(pair, init, exact_squares(t, p))[0]
    ever_entangled = entangled[:1].any()
    events = [EventRecord(ESB, pair, 0.0)] if born and ever_entangled else []
    for k, a, b, use_g in zip(changes, grid[lo], grid[hi], on_g):
        root = brentq(g_at if use_g else margin_at, a, b, xtol=1e-8)
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
    t = np.concatenate((inner[(inner > 0.0) & (inner < horizon)], [0.0, horizon]))
    return t[_first_of_each(t)]


def _lattice_squares(p, horizon):
    """``_lattice`` and its squares; ValueError where they are not finite."""
    t = _lattice(p, horizon)
    return t, np.asarray(_finite(exact_squares(t, p), horizon))


def _finite(values, horizon):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"the exact amplitudes are not finite on [0, {horizon:g}]")
    return values


def cavity_boundary(gamma):
    """Minimum over t of 1 - |G_t|^2 with exact amplitudes: the critical
    alpha/beta ratio above which the cavities entangle.

    |G_t|^2 = g_eff^2 |sin(w t) / w|^2 e^{-kappa t / 2} (w = omega_bar)
    takes its largest value at its first peak, ``_cavity_peak``.
    """
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be positive and finite")
    p = SystemParams.from_geff(gamma)
    t_peak = _cavity_peak(p)
    return 1.0 if t_peak == np.inf else float(1.0 - exact_squares(t_peak, p)[1])


def _check_ratios(ratios):
    """Reject an alpha / beta outside (0, 1), NaN included."""
    ratios = np.asarray(ratios, dtype=float)
    if not np.all((0.0 < ratios) & (ratios < 1.0)):
        raise ValueError("ratio alpha/beta must lie in (0, 1)")
    return ratios


def cavity_phase(gamma, ratio):
    """'entangled' if cavities entangle at some time for alpha/beta = ratio."""
    _check_ratios(ratio)
    return "entangled" if ratio > cavity_boundary(gamma) else "unentangled"


def cavity_entangled_intervals(gamma, ratio):
    """Time intervals on which the cavity pair is entangled for
    alpha/beta = ratio (exact amplitudes): where f = (1 - ratio) - |G_t|^2
    < 0, 1 - ratio being exact for ratio >= 1/2 (Sterbenz).  f is monotone
    between ``_lattice`` neighbours; its crossings are bracketed on
    ``_filled`` and refined to 1e-10 in time, up to a half period pi / w past
    the last peak of |G|^2 above 1 - ratio (real w = omega_bar), else to the
    first of 2t*, 4t*, ... where f >= 0 again.  Non-finite amplitudes (kappa
    t ~ 2840 overdamped) raise ValueError, a grid past memory ConfigError."""
    _check_ratios(ratio)
    if ratio <= cavity_boundary(gamma):     # f(t*) >= 0: never entangled
        return []
    p = SystemParams.from_geff(gamma)
    level = lambda squares: (1.0 - ratio) - squares[1]
    f = lambda t: level(exact_squares(t, p))
    t_peak = _cavity_peak(p)
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
        signs = lambda s: (level(s) < 0.0,) + 2 * (np.ones(s.shape[1], bool),)
        # every point signed and live
        ts, squares = _filled(p, hi, signs, _detection_cells(p, hi), *_lattice_squares(p, hi))
    # f(0) = 1 - ratio > 0 and f(hi) >= 0, so the crossings pair up
    ends = [brentq(f, ts[k], ts[k + 1], xtol=1e-10)
            for k in np.flatnonzero(np.diff(level(squares) < 0.0))]
    return list(zip(ends[::2], ends[1::2]))


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
    ratios = _check_ratios(ratios)
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
    (widths within 2e-8 tie) between the intervals on which they are
    entangled, whose ends are their ``detect_events`` times."""
    return _dead_window(init, p, horizon, _detection_cells(p, horizon))


def _dead_window(init, p, horizon, cells):
    """``dead_window`` given ``cells = _detection_cells(p, horizon)``."""
    if init.alpha * init.beta == 0:
        return None
    found = _events(DIAGONAL_PAIRS, init, p, horizon, cells)
    covered = []
    for pair in DIAGONAL_PAIRS:
        # C(0) = 2 alpha beta > 0 for a1a2 alone, and the events alternate
        ends = [0.0] * (pair == "a1a2") + [e.time for e in found if e.pair == pair]
        ends += [horizon] * (len(ends) % 2)
        covered += zip(ends[::2], ends[1::2])
    gaps, reach = [], 0.0
    for lo, hi in sorted(covered) + [(horizon, horizon)]:
        gaps += [(reach, lo)] if lo > reach else []
        reach = max(reach, hi)
    widest = max((hi - lo for lo, hi in gaps), default=None)
    return next((gap for gap in gaps if gap[1] - gap[0] >= widest - 2e-8), None)
