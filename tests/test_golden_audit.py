"""Audit of the golden files against 50-digit mpmath.

Every numeric cell of figures 3-10 and ``events_strong.csv`` is recomputed
from the floats the CLI uses (alpha and beta of ``from_ratio``, g_eff and
kappa of ``from_geff``, the times of ``np.linspace``) and compared with the
correctly rounded ``%.12g`` value.  The test asserts what holds today: the
set of cells that are not correctly rounded, and a bound on their error.  A
change that moves a golden cell shows whether it moves toward the correctly
rounded value or away from it.
"""

import csv
import os
from decimal import Decimal

import mpmath
import numpy as np

from entransfer.amplitudes import SystemParams
from entransfer.cli import COMMANDS, FIGURES
from entransfer.events import InitialAmplitudes

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# (file, row, column) of each cell that is not the correctly rounded value
# today, in file order, its row named by its first cell (an event by its
# time).  Figure 3 at t = 1.275, figure 5 and figure 10 at t = 48 lie within
# 0.004 units of a tie, which the float's own rounding tips.
NOT_ROUNDED = [
    ("figure3.csv", "0.325", "C_a1a2"),     # cancellation in beta (1 - x^2) - alpha
    ("figure3.csv", "1.275", "C_c1c2"),
    ("figure5.csv", "2.375", "atoms_threshold"),
    ("figure8.csv", "0", "C_r1r2_weak"),    # exact 0, the weak R^2(0) rounds below 0
    ("figure9.csv", "29.5", "C_r1r2"),      # cancellation in R^2 = 1 - |E|^2 - |G|^2
    ("figure10.csv", "29.5", "C_r1r2"),
    ("figure10.csv", "48", "C_a1c1"),
] + [("events_strong.csv", t, "time") for t in (   # brentq stops within 1e-8
    "0.194368062659", "0.4656910375", "0.797325843693", "1.12793625498",
    "1.39146590698", "1.81010544643", "1.96554392442", "0.127695817068",
    "0.487069408901", "0.784836806282", "1.45406574728", "1.67347493065",
    "2.18149780445", "2.20222453048")]
# the most a figure cell and an event time are off today, in units of the
# 12th digit, and a cell whose exact value is 0, absolutely
FIGURE_UNITS = 3.5
EVENT_UNITS = 2100.0
ZERO_ABS = 2e-17


def mp_squares(t, g_eff, kappa):
    """(|E|^2, |G|^2, R^2) of the closed forms at float inputs, in mpmath."""
    t, g_eff, kappa = (mpmath.mpf(x) for x in (t, g_eff, kappa))
    w = mpmath.sqrt(mpmath.mpc(g_eff**2 - kappa**2 / 16))
    sinc = mpmath.sin(w * t) / w if w else t
    damp = mpmath.exp(-kappa * t / 4)
    e2 = mpmath.re((mpmath.cos(w * t) + kappa / 4 * sinc) * damp)**2
    g2 = mpmath.re(g_eff * sinc * damp)**2
    return e2, g2, 1 - e2 - g2 if kappa > 0 else mpmath.mpf(0)


def mp_weak(t, g_eff, kappa):
    """The second-order weak-coupling squares of ``amplitudes_weak``."""
    gm2, kt = (mpmath.mpf(g_eff) / kappa)**2, mpmath.mpf(kappa) * t
    e2 = (1 + 4 * gm2) * mpmath.exp(-4 * gm2 * kt) - 4 * gm2 * mpmath.exp(-kt + 4 * gm2 * kt)
    g2 = 4 * gm2 * (mpmath.exp(-4 * gm2 * kt) + mpmath.exp(-kt + 4 * gm2 * kt)
                    - 2 * mpmath.exp(-kt / 2))
    r2 = 1 - (1 + 8 * gm2) * mpmath.exp(-4 * gm2 * kt) + 8 * gm2 * mpmath.exp(-kt / 2)
    return e2, g2, r2


def mp_concurrence(pair, squares, init):
    x2, y2 = (squares["acr".index(pair[k])] for k in (0, 2))
    a, b = mpmath.mpf(init.alpha), mpmath.mpf(init.beta)
    if pair[1] == pair[3]:      # same chain
        return 2 * b**2 * mpmath.sqrt(x2 * y2)
    g = b * mpmath.sqrt(x2 * y2) * (b * mpmath.sqrt((1 - x2) * (1 - y2)) - a)
    return max(mpmath.mpf(0), -2 * g)


def mp_boundary(gamma):
    """1 - |G|^2 at its first peak t* = arctan(4 w / kappa) / w."""
    p = SystemParams.from_geff(gamma)
    g_eff, kappa = mpmath.mpf(p.g_eff), mpmath.mpf(p.kappa)
    w = mpmath.sqrt(mpmath.mpc(g_eff**2 - kappa**2 / 16))
    t_peak = mpmath.re(mpmath.atan(4 * w / kappa) / w) if w else 4 / kappa
    return 1 - mp_squares(t_peak, p.g_eff, p.kappa)[1]


def series_rows(number):
    """(t, {column: exact value}) per row of a ``figure N --steps 120``."""
    args = dict(FIGURES[number][1], steps=120)
    p = SystemParams.from_geff(args["geff"], kappa=args["kappa"])
    init = InitialAmplitudes.from_ratio(args["ratio"])
    line = mpmath.mpf(init.alpha) / init.beta
    pairs = args["pairs"].split(",") if "pairs" in args else ()
    for t in np.linspace(0.0, args["t_max"], args["steps"] + 1):
        exact = mp_squares(t, p.g_eff, p.kappa)
        row = {f"C_{pair}": mp_concurrence(pair, exact, init) for pair in pairs}
        if number == 5:
            damp = mpmath.exp(-mpmath.mpf(p.kappa) * t / 2)
            gt = mpmath.mpf(p.g_eff) * t
            row.update(atoms_threshold=1 - mpmath.cos(gt)**2 * damp,
                       cavities_threshold=1 - mpmath.sin(gt)**2 * damp, ratio_line=line)
        elif number == 6:
            row.update(cavity_threshold=1 - mp_weak(t, p.g_eff, p.kappa)[1], ratio_line=line,
                       C_c1c2=mp_concurrence("c1c2", exact, init))
        elif number == 8:
            weak = mp_weak(t, p.g_eff, p.kappa)
            for pair in ("a1a2", "c1c2", "r1r2"):
                row[f"C_{pair}_weak"] = mp_concurrence(pair, weak, init)
                row[f"C_{pair}_exact"] = mp_concurrence(pair, exact, init)
        yield t, row


def phase_rows():
    args = dict(COMMANDS["phase-diagram"], gamma_steps=6, ratio_steps=7)
    for gamma in np.linspace(args["gamma_min"], args["gamma_max"], args["gamma_steps"]):
        boundary = mp_boundary(gamma)
        for ratio in np.linspace(args["ratio_min"], args["ratio_max"], args["ratio_steps"]):
            yield gamma, dict(ratio=ratio, entangled=int(ratio > boundary), boundary=boundary)


def event_root(pair, t, init, g_eff, kappa):
    """The root near ``t`` of beta (1 - x^2) - alpha, x^2 the pair's square."""
    a, b = mpmath.mpf(init.alpha), mpmath.mpf(init.beta)
    x2 = lambda u: mp_squares(u, g_eff, kappa)["acr".index(pair[0])]
    root = mpmath.findroot(lambda u: b * (1 - x2(u)) - a, mpmath.mpf(t))
    assert abs(root - t) < 1e-6, (pair, t)
    return root


def audit():
    """[(file, row, column, error, unit)] of every cell that is not the
    correctly rounded %.12g value, its row named by its first cell (by its
    time in ``events_strong.csv``), with its error in units of its 12th
    digit ("digit"), or absolute ("abs") where the exact value is 0."""
    found = []

    def check(name, row, key, printed, exact):
        printed = Decimal(printed)
        if exact == 0:
            if printed != 0:
                found.append((name, row, key, float(printed), "abs"))
            return
        unit = Decimal(10) ** (int(mpmath.floor(mpmath.log10(abs(exact)))) - 11)
        exact = Decimal(mpmath.nstr(exact, 40, strip_zeros=False))
        if (exact / unit).to_integral_value() != printed / unit:
            found.append((name, row, key, float((printed - exact) / unit), "digit"))

    with mpmath.workdps(50):
        tables = {f"figure{n}.csv": series_rows(n) for n in (3, 4, 5, 6, 8, 9, 10)}
        tables["figure7.csv"] = phase_rows()
        for name, rows in tables.items():
            with open(os.path.join(GOLDEN_DIR, name)) as fh:
                golden = list(csv.DictReader(fh))
            rows = list(rows)
            assert len(golden) == len(rows), name
            for cells, (first, exact) in zip(golden, rows):
                key0 = next(iter(cells))
                row = cells[key0]
                assert set(cells) == {key0} | set(exact), name
                check(name, row, key0, row, mpmath.mpf(first))
                for key, value in exact.items():
                    check(name, row, key, cells[key], value)
        args = dict(COMMANDS["events"], geff=5.0, ratio=1.5, t_max=3.0)
        p = SystemParams.from_geff(args["geff"], kappa=args["kappa"])
        init = InitialAmplitudes.from_ratio(args["ratio"])
        with open(os.path.join(GOLDEN_DIR, "events_strong.csv")) as fh:
            for cells in csv.DictReader(fh):
                root = event_root(cells["pair"], float(cells["time"]), init, p.g_eff, p.kappa)
                check("events_strong.csv", cells["time"], "time", cells["time"], root)
    return found


def test_golden_cells_against_mpmath():
    found = audit()
    print("\n".join("%s %s %s: %.3g %s" % cell for cell in found))
    assert [cell[:3] for cell in found] == NOT_ROUNDED
    for name, _, _, error, unit in found:
        bound = (ZERO_ABS if unit == "abs" else
                 EVENT_UNITS if name == "events_strong.csv" else FIGURE_UNITS)
        assert abs(error) <= bound
