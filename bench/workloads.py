"""Seeded operations and output checks for the benchmark workloads.

An op is one request of the closed loop.  ``op.run()`` is the timed part;
``op.check(result)`` runs afterwards, outside the timed region, and raises
``CheckFailed`` when the output is wrong.  Every op calls the library through
module attributes (``cli.main``, ``events.concurrence_series`` ...) so that
the traced run sees the same calls as the untraced one.

The inputs come only from the seed: the same seed gives the same op sequence.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import calibrate
from entransfer import cli, events, jointstate, qops
from entransfer.amplitudes import SystemParams, amplitudes_exact
from entransfer.jointstate import DIAGONAL_PAIRS, PAIR_LABELS, InitialAmplitudes

# Parameter ranges of the paper and the figure presets.
GAMMA_RANGE = (0.05, 10.0)      # g_eff / kappa, drawn log-uniformly
RATIO_RANGE = (1.0, 4.0)        # beta / alpha
SERIES_POINTS = 601             # default size of the figure presets

FIGURES = (3, 4, 5, 6, 7, 8, 9)
GOLDEN_FIGURES = (3, 4, 5, 6, 8, 9)   # goldens hold the 120-step rows
GOLDEN_STRIDE = 5                      # 600 / 120
EVENTS_GOLDEN_ARGV = ("events", "--geff", "5", "--ratio", "1.5", "--t-max", "3")
# figure 7: the CLI's default phase-diagram grid, gamma x alpha/beta
FIGURE7_GRID = (np.linspace(0.05, 1.0, 20), np.linspace(0.80, 0.999, 21))
# (format, written with --out): each kind takes them in turn, so that every
# run, whatever its seed, measures the same mix of emit paths
EMIT_PATHS = (("csv", False), ("json", True), ("json", False), ("csv", True))

# The oracle workload cycles seven N = 500 calls and one N = 1000 call.
# With this ratio the median and the tail percentile both fall inside the
# N = 500 group at any plausible op count, so they do not jump between the
# two sizes from run to run; the N = 1000 calls weigh on ops_per_s.
ORACLE_SCHEDULE = (500,) * 7 + (1000,)
ORACLE_GAMMAS = tuple(1.0 + 0.5 * k for k in range(15))   # 1.0 .. 8.0
ORACLE_BANDWIDTH = 200.0
ORACLE_COLUMNS = ("amplitude_error", "lindblad_error", "leakage")
ORACLE_RTOL = 1e-9

C_TOL = 1e-12           # slack on 0 <= C <= 1 and on closed-form agreement
CROSS_TOL = 1e-9        # partial-trace route vs the X-state formula
VERDICT_TOL = 1e-6      # a measure above this must see the other nonzero
TANGLE_TOL = 1e-12      # global tangle vs 2 alpha beta
CROSS_SAMPLES = 13      # points checked per interacting-pair series


class CheckFailed(Exception):
    """An op produced an output that fails its check."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    cycle: int = 0      # index of the pass through the workload's op schedule


def _expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _g(x):
    """Round a drawn value to the text the CLI receives."""
    return float("%.6g" % x)


def draw_point(rng):
    """(gamma, beta/alpha, t_max) with the horizon set by the physics: about
    1/(4 gamma^2 kappa) in weak coupling, a few decay times in strong."""
    lo, hi = GAMMA_RANGE
    gamma = _g(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    ratio = _g(rng.uniform(*RATIO_RANGE))
    t_max = _g(max(rng.uniform(1.0, 3.0) / (4.0 * gamma**2), rng.uniform(3.0, 8.0)))
    return gamma, ratio, t_max


# --- CLI output handling -----------------------------------------------------

def csv_cell(x):
    """The CSV text ``cli.emit`` writes for a JSON-decoded cell."""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, int):
        return str(x)
    return "%.12g" % (float(x) + 0.0)


def json_to_csv(text):
    data = json.loads(text)
    _expect(set(data) == {"config", "columns", "records"}, "JSON keys differ")
    lines = [",".join(data["columns"])]
    lines += [",".join(csv_cell(c) for c in row) for row in data["records"]]
    return "\n".join(lines) + "\n"


def call_cli(argv):
    """cli.main with stdout and stderr captured: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    return status, out.getvalue(), err.getvalue()


def _rows(text, min_rows=1):
    lines = text.splitlines()
    _expect(len(lines) >= 1 + min_rows, "no data rows")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(rows, col):
    vals = np.array([float(r[col]) for r in rows])
    _expect(np.all(np.isfinite(vals)), "non-finite value in output")
    return vals


def cli_op(kind, argv, fmt, out_path, check_csv, golden=False, cycle=0):
    """An op that runs ``cli.main``; the check sees the output as CSV text.

    JSON output is formatted the way ``emit`` formats CSV.  It must equal the
    CSV output of the same call, which the check reruns, unless ``check_csv``
    compares it with a golden CSV anyway.
    """
    argv = list(argv) + ["--format", fmt]
    if out_path is not None:
        argv += ["--out", out_path]

    def run():
        return call_cli(argv)

    def check(result):
        status, text, err = result
        _expect(status == 0, f"exit code {status}: {err.strip()[:200]}")
        if out_path is not None:
            with open(out_path) as fh:
                text = fh.read()
            os.unlink(out_path)
        if fmt == "json":
            text = json_to_csv(text)
            if not golden:
                status, csv_text, err = call_cli(argv[:argv.index("--format")])
                _expect(status == 0, f"CSV rerun exit code {status}")
                _expect(text == csv_text, "JSON and CSV outputs disagree")
        check_csv(text)

    return Op(kind, run, check, cycle)


# --- closed-form checks ------------------------------------------------------

def _check_concurrence_columns(text):
    header, rows = _rows(text)
    for j, name in enumerate(header):
        vals = _floats(rows, j)
        if name.startswith("C_"):
            _expect(np.all((vals >= -C_TOL) & (vals <= 1.0 + C_TOL)),
                    f"{name} outside [0, 1]")


def check_golden_figure(text, golden):
    _check_concurrence_columns(text)
    lines = text.splitlines()
    want = golden.splitlines()
    _expect(lines[0] == want[0], "header differs from golden")
    _expect(len(lines) - 1 == (len(want) - 2) * GOLDEN_STRIDE + 1,
            f"{len(lines) - 1} rows, expected the default {SERIES_POINTS}")
    _expect(lines[1::GOLDEN_STRIDE] == want[1:],
            "every 5th row differs from the 120-step golden")


def check_phase_rows(text, gammas, ratios):
    """Rows of a phase diagram on the grid ``gammas`` x ``ratios``."""
    header, rows = _rows(text)
    _expect(header == ["gamma", "ratio", "entangled", "boundary"], "phase columns")
    n_rows = len(gammas) * len(ratios)
    _expect(len(rows) == n_rows, f"{len(rows)} rows, expected {n_rows}")
    grid = [[csv_cell(g), csv_cell(r)] for g in gammas for r in ratios]
    _expect([r[:2] for r in rows] == grid, "gamma, ratio columns differ from the grid")
    ratio, flag, boundary = (_floats(rows, j) for j in (1, 2, 3))
    _expect(np.all((boundary > 0.0) & (boundary <= 1.0)), "boundary outside (0, 1]")
    _expect(np.all(boundary.reshape(len(gammas), -1) == boundary[::len(ratios), None]),
            "boundary differs between rows of one gamma")
    _expect(np.array_equal(flag, (ratio > boundary).astype(float)),
            "entangled flag does not match the boundary column")


def check_events(text, pairs, t_max):
    header, rows = _rows(text, min_rows=0)
    _expect(header == ["kind", "pair", "time"], "events columns")
    _expect(all(r[1] in pairs for r in rows), "event for an unrequested pair")
    for pair in pairs:
        kinds = [r[0] for r in rows if r[1] == pair]
        times = [float(r[2]) for r in rows if r[1] == pair]
        _expect(all(0.0 < t <= t_max for t in times), f"{pair}: event time outside (0, t_max]")
        _expect(all(a < b for a, b in zip(times, times[1:])), f"{pair}: times not sorted")
        # a1a2 starts entangled, so its events run ESD, ESR, ESD ...; the
        # other pairs start unentangled and run ESB, ESD, ESR, ESD ...
        if pair == "a1a2":
            expected = ["ESD" if i % 2 == 0 else "ESR" for i in range(len(kinds))]
        else:
            expected = ["ESB" if i == 0 else "ESD" if i % 2 else "ESR"
                        for i in range(len(kinds))]
        _expect(kinds == expected, f"{pair}: event kinds {kinds} do not alternate")


def check_window(text, t_max):
    header, rows = _rows(text)
    _expect(header == ["found", "t_start", "t_end", "width"] and len(rows) == 1,
            "window layout")
    found, start, end, width = rows[0]
    if found == "0":
        _expect([start, end, width] == ["nan"] * 3, "absent window has numbers")
        return
    _expect(found == "1", f"found flag {found!r}")
    lo, hi, w = float(start), float(end), float(width)
    _expect(0.0 <= lo < hi <= t_max, "window bounds outside [0, t_max]")
    _expect(abs(w - (hi - lo)) <= 1e-9 * max(1.0, t_max), "width != t_end - t_start")


def check_amplitudes(text, n_rows):
    header, rows = _rows(text)
    _expect(header == ["t", "E2", "G2", "R2"], "amplitude columns")
    _expect(len(rows) == n_rows, f"{len(rows)} rows, expected {n_rows}")
    sq = np.stack([_floats(rows, j) for j in (1, 2, 3)])
    _expect(np.all((sq >= -C_TOL) & (sq <= 1.0 + C_TOL)), "probability outside [0, 1]")
    _expect(np.all(np.abs(sq.sum(axis=0) - 1.0) <= 1e-9), "probabilities do not sum to 1")


def _read(path):
    with open(path) as fh:
        return fh.read()


def closed_form_ops(rng, scratch, golden_dir):
    """Seeded ``cli.main`` calls: figure presets 3-9 at their default size, the
    strong-coupling events golden, and events / window / phase-diagram /
    amplitudes at seeded (gamma, beta/alpha)."""
    goldens = {n: _read(os.path.join(golden_dir, f"figure{n}.csv"))
               for n in GOLDEN_FIGURES}
    events_golden = _read(os.path.join(golden_dir, "events_strong.csv"))
    kinds = [f"figure{n}" for n in FIGURES] + [
        "events-golden", "events", "window", "phase-diagram", "amplitudes"]
    count = 0
    for cycle in itertools.count():
        for k, kind in enumerate(kinds):
            fmt, to_file = EMIT_PATHS[(cycle + k) % len(EMIT_PATHS)]
            out = os.path.join(scratch, f"op{count}.{fmt}") if to_file else None
            count += 1
            gamma, ratio, t_max = draw_point(rng)
            golden = False
            if kind.startswith("figure"):
                n = int(kind[len("figure"):])
                argv = ["figure", str(n)]
                golden = n in goldens
                if golden:
                    check = lambda text, g=goldens[n]: check_golden_figure(text, g)
                else:   # figure 7: the default 20 x 21 phase diagram
                    check = lambda text: check_phase_rows(text, *FIGURE7_GRID)
            elif kind == "events-golden":
                argv = list(EVENTS_GOLDEN_ARGV)
                golden = True
                check = lambda text: _expect(text == events_golden,
                                             "differs from events_strong.csv")
            elif kind == "events":
                argv = ["events", "--geff", str(gamma), "--ratio", str(ratio),
                        "--t-max", str(t_max)]
                check = lambda text, t=t_max: check_events(text, DIAGONAL_PAIRS, t)
            elif kind == "window":
                argv = ["window", "--geff", str(gamma), "--ratio", str(ratio),
                        "--t-max", str(t_max)]
                check = lambda text, t=t_max: check_window(text, t)
            elif kind == "phase-diagram":
                g_lo, g_hi = sorted(_g(math.exp(rng.uniform(math.log(GAMMA_RANGE[0]),
                                                            math.log(GAMMA_RANGE[1]))))
                                    for _ in range(2))
                # alpha / beta, from beta / alpha in RATIO_RANGE; the CLI
                # needs it below 1
                r_lo = _g(rng.uniform(1.0 / RATIO_RANGE[1], 0.99))
                r_hi = _g(rng.uniform(r_lo, 0.999))
                argv = ["phase-diagram", "--gamma-min", str(g_lo), "--gamma-max", str(g_hi),
                        "--gamma-steps", "4", "--ratio-min", str(r_lo),
                        "--ratio-max", str(r_hi), "--ratio-steps", "7"]
                grid = (np.linspace(g_lo, g_hi, 4), np.linspace(r_lo, r_hi, 7))
                check = lambda text, grid=grid: check_phase_rows(text, *grid)
            else:   # amplitudes: the approximations only where they apply
                regime = "exact"
                if rng.random() < 0.5:
                    regime = "strong" if gamma >= 1.0 else "weak" if gamma <= 0.25 else "exact"
                argv = ["amplitudes", "--geff", str(gamma), "--t-max", str(t_max),
                        "--steps", str(SERIES_POINTS - 1), "--regime", regime]
                check = lambda text: check_amplitudes(text, SERIES_POINTS)
            yield cli_op(kind, argv, fmt, out, check, golden, cycle)


# --- all-pairs ---------------------------------------------------------------

def x_state_concurrence(rho):
    """Yu-Eberly concurrence of a two-qubit X state (QIC 7, 459 (2007))."""
    d = rho.diagonal().real
    outer = abs(rho[0, 3]) - math.sqrt(max(0.0, d[1] * d[2]))
    inner = abs(rho[1, 2]) - math.sqrt(max(0.0, d[0] * d[3]))
    return max(0.0, 2.0 * outer, 2.0 * inner)


_X_OFF = ~np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=bool)


def check_series(c, pair, init, p, grid):
    _expect(c.shape == grid.shape, f"{pair}: series shape {c.shape}")
    _expect(np.all(np.isfinite(c)), f"{pair}: non-finite concurrence")
    _expect(np.all((c >= -C_TOL) & (c <= 1.0 + C_TOL)), f"{pair}: C outside [0, 1]")
    if pair in DIAGONAL_PAIRS:
        want = [jointstate.concurrence_closed(pair, amplitudes_exact(t, p), init)
                for t in grid]
        _expect(np.max(np.abs(c - want)) <= C_TOL, f"{pair}: differs from concurrence_closed")
        return
    # Interacting pairs, on sampled points: the reduced state is X-form, the
    # series equals the X-state formula applied to the partial trace, and it
    # agrees with the negativity on whether the pair is entangled.  (The two
    # measures coincide only on balanced X states; these are not balanced.)
    for i in np.linspace(0, grid.size - 1, CROSS_SAMPLES).astype(int):
        rho = jointstate.reduced_pair(jointstate.joint_state(grid[i], init, p), pair)
        at = f"{pair} at t={grid[i]:.6g}"
        _expect(np.max(np.abs(rho[_X_OFF])) < qops.X_SPARSITY_TOL, f"{at}: not an X state")
        _expect(abs(c[i] - x_state_concurrence(rho)) <= CROSS_TOL,
                f"{at}: differs from the X-state formula")
        neg = qops.negativity_concurrence(rho)
        _expect(not (c[i] > VERDICT_TOL and neg == 0.0 or neg > VERDICT_TOL and c[i] == 0.0),
                f"{at}: concurrence {c[i]:.3g} and negativity {neg:.3g} disagree "
                "on entanglement")


def check_tangle(tau, init):
    _expect(np.all(np.isfinite(tau)), "non-finite global tangle")
    _expect(np.max(np.abs(tau - 2.0 * init.alpha * init.beta)) <= TANGLE_TOL,
            "global tangle differs from 2 alpha beta")


def all_pairs_ops(rng):
    """For each seeded (gamma, beta/alpha, t_max): ``concurrence_series`` of
    all 15 pairs on a 601-point grid, one op per pair, then the global tangle
    at every grid point as one more op."""
    for cycle in itertools.count():
        gamma, ratio, t_max = draw_point(rng)
        p = SystemParams.from_geff(gamma)
        init = InitialAmplitudes.from_ratio(ratio)
        grid = np.linspace(0.0, t_max, SERIES_POINTS)
        for pair in PAIR_LABELS:
            kind = "diagonal" if pair in DIAGONAL_PAIRS else "interacting"
            yield Op(kind,
                     lambda pair=pair, init=init, p=p, grid=grid:
                         events.concurrence_series(pair, init, p, grid),
                     lambda c, pair=pair, init=init, p=p, grid=grid:
                         check_series(c, pair, init, p, grid),
                     cycle)
        yield Op("tangle",
                 lambda init=init, p=p, grid=grid:
                     np.array([jointstate.global_tangle(t, init, p) for t in grid]),
                 lambda tau, init=init: check_tangle(tau, init),
                 cycle)


# --- oracle ------------------------------------------------------------------

def oracle_argv(gamma, n_modes):
    return ["validate", "--geff", "%g" % gamma, "--n-modes", str(n_modes),
            "--bandwidth", "%g" % ORACLE_BANDWIDTH]


def oracle_key(gamma, n_modes):
    return "%g:%d" % (gamma, n_modes)


def parse_validate(text):
    header, rows = _rows(text)
    _expect(header == list(ORACLE_COLUMNS) + ["tol", "passed"] and len(rows) == 1,
            "validate layout")
    return rows[0]


def check_validate(result, want):
    status, text, err = result
    _expect(status == 0, f"exit code {status}: {err.strip()[:200]}")
    row = parse_validate(text)
    _expect(row[-1] == "1", "passed != 1")
    for name, got, ref in zip(ORACLE_COLUMNS, row, want):
        got = float(got)
        _expect(math.isfinite(got) and abs(got - ref) <= ORACLE_RTOL * abs(ref),
                f"{name} {got!r} differs from the recorded {ref!r}")


def oracle_ops(rng, reference):
    """``validate`` via ``cli.main`` with B = 200, gamma drawn from
    ORACLE_GAMMAS and N following ORACLE_SCHEDULE; the three error columns
    must equal the values recorded in ``reference``."""
    i = 0
    while True:
        n_modes = ORACLE_SCHEDULE[i % len(ORACLE_SCHEDULE)]
        i += 1
        gamma = rng.choice(ORACLE_GAMMAS)
        argv = oracle_argv(gamma, n_modes)
        want = reference[oracle_key(gamma, n_modes)]
        yield Op(f"validate-N{n_modes}", lambda argv=argv: call_cli(argv),
                 lambda result, want=want: check_validate(result, want),
                 (i - 1) // len(ORACLE_SCHEDULE))


# The calibration kernel whose speed tracks each workload's (calibrate.py).
KERNELS = {"closed-form": calibrate.cli, "all-pairs": calibrate.series,
           "oracle": calibrate.dense}


def make_ops(workload, seed, scratch, root):
    """The seeded op stream of one workload."""
    rng = random.Random(seed)
    if workload == "closed-form":
        return closed_form_ops(rng, scratch, os.path.join(root, "tests", "golden"))
    if workload == "all-pairs":
        return all_pairs_ops(rng)
    if workload == "oracle":
        with open(os.path.join(os.path.dirname(__file__), "oracle_reference.json")) as fh:
            reference = json.load(fh)["values"]
        return oracle_ops(rng, reference)
    raise ValueError(f"unknown workload {workload!r}")
