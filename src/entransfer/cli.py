"""Command-line front end.

Subcommands emit CSV or JSON data files (no plotting):

* ``amplitudes``     exact/strong/weak squared amplitudes on a time grid
* ``concurrence``    concurrence series for any list of subsystem pairs
* ``events``         sudden-death/birth/revival records
* ``window``         widest interval with no pairwise entanglement
* ``phase-diagram``  cavity entangled/unentangled verdicts on a (gamma, ratio) grid
* ``validate``       closed forms vs the two brute-force oracles
* ``figure N``       preset parameter sets (N in 3..10) reproducing the
                     reference curves of the strong/weak coupling study

Each subcommand and each preset takes only the flags its handler reads
(``COMMANDS``, ``FIGURES``), plus ``--out``, ``--format`` and ``--config``.
The subcommand and ``N`` are positionals of one argument parser, which holds
only the flags of the subcommand and preset that argv names; it is built
once per process for each subcommand and preset, and each call parses with
a shallow copy of it.
Every rate is in the unit of ``--kappa`` (1 by default) and every time in
its inverse; ``--geff`` gives the coupling and ``--ratio`` (beta / alpha)
the initial state alpha|gg> + beta|ee>.  Exit codes:
0 success, 2 configuration error (including a run too large for physical
memory, rejected from a size estimate before it starts), 3
numerical-validation failure (including a NaN or infinite output value).
"""

import argparse
import copy
import functools
import json
import math
import os
import stat
import sys
import tempfile

import numpy as np

from .amplitudes import SystemParams, amplitudes_strong, amplitudes_weak, exact_squares
from .errors import ConfigError, require_memory
from .events import (DIAGONAL_PAIRS, InitialAmplitudes, PAIR_LABELS, _dead_window,
                     _detection_cells, _events, concurrence_series, lambda_minus, phase_diagram)
from . import oracle

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3

# peak bytes per output cell; JSON records are the largest, 153 B per cell
# for a 300 x 300 phase-diagram under tracemalloc, with numpy 2 on CPython 3.11
CELL_BYTES = 256


def _write_out(path, text):
    """Write ``text`` to ``path``, or to its target if it is a symlink.  A
    regular file is replaced whole, atomically, keeping its mode; a new file
    gets 0o666 less the umask; a FIFO, device or other special file is
    written in place."""
    path = os.path.realpath(path)
    try:
        st = os.stat(path)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(st.st_mode):
            with open(path, "w", newline="\n") as fh:
                fh.write(text)
            return
        mode = stat.S_IMODE(st.st_mode)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_text(config, columns, arrays, values):
    """The bytes of ``json.dumps(obj, indent=2) + "\\n"`` for the object with
    config/columns/records.  The records are encoded a column at a time by
    the C encoder, which ``json`` runs only without ``indent``, and laid out
    with the separators ``indent=2`` writes; a number column is one call,
    split on ", ", which no number's text holds, a string column one call
    per cell."""
    head = json.dumps({
        "config": {k: float(v) + 0.0 if isinstance(v, float) else v
                   for k, v in config.items()},
        "columns": list(columns),
        "records": [],
    }, indent=2)
    if not values[0]:
        return head + "\n"
    cells = [json.dumps(v)[1:-1].split(", ") if a.dtype.kind in "biuf"
             else list(map(json.dumps, v)) for a, v in zip(arrays, values)]
    rows = map(",\n      ".join, zip(*cells))
    # head ends with the empty records' "[]\n}"
    return "".join([head[:-4], "[\n    [\n      ", "\n    ],\n    [\n      ".join(rows),
                    "\n    ]\n  ]\n}\n"])


def emit(config, columns, data, out=None, fmt="csv"):
    """Serialize a table given as one sequence per column; CSV uses 12
    significant digits and LF endings, JSON is ``json.dumps(obj, indent=2)``
    plus LF for one object with config/columns/records."""
    arrays = [np.asarray(column) for column in data]
    floats = [a.dtype.kind == "f" for a in arrays]
    # +0.0 normalizes negative zero
    values = [(a + 0.0).tolist() if f else a.tolist() for a, f in zip(arrays, floats)]
    if fmt == "csv":
        row = ",".join("%.12g" if f else "%s" for f in floats)
        text = "\n".join([",".join(columns), *map(row.__mod__, zip(*values))]) + "\n"
    elif fmt == "json":
        text = _json_text(config, columns, arrays, values)
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if out is None:
        sys.stdout.write(text)
    else:
        _write_out(out, text)


# --- configuration ----------------------------------------------------------

def _finite(text):
    """argparse type of every float flag: NaN and +-inf are rejected."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


# flag -> argparse options; a flag is written --name with "_" as "-"
FLAGS = {
    "geff": dict(type=_finite, help="effective coupling g Omega / Delta"),
    "delta_detuning": dict(type=_finite, help="detuning Delta"),
    "kappa": dict(type=_finite, help="cavity decay rate, the unit of every rate"),
    "ratio": dict(type=_finite, help="beta / alpha of the initial alpha|gg> + beta|ee>"),
    "t_max": dict(type=_finite, help="grid horizon, in the inverse unit of --kappa"),
    "steps": dict(type=int, help="number of grid intervals"),
    "pairs": dict(help="comma-separated pair labels"),
    "regime": dict(choices=("exact", "strong", "weak"), help="amplitude formula"),
    "n_modes": dict(type=int, help="reservoir modes for the discretized oracle"),
    "bandwidth": dict(type=_finite, help="reservoir bandwidth for the oracle"),
    "tol": dict(type=_finite, help="validation tolerance"),
    "gamma_min": dict(type=_finite, help="smallest g_eff / kappa"),
    "gamma_max": dict(type=_finite, help="largest g_eff / kappa"),
    "gamma_steps": dict(type=int, help="number of gamma values"),
    "ratio_min": dict(type=_finite, help="smallest alpha / beta"),
    "ratio_max": dict(type=_finite, help="largest alpha / beta, below 1"),
    "ratio_steps": dict(type=int, help="number of alpha / beta values"),
    "out": dict(help="output path (default stdout)"),
    "format": dict(choices=("csv", "json"), default="csv", help="output format"),
    "config": dict(help="JSON file with flag defaults; flags override it"),
}

# the flags of _resolve_params, and those plus the initial state; None marks
# a value that is required (geff) or has a default derived from the others.
# The closed forms read only g_eff and kappa: Delta is validate's alone
CHAIN = dict(geff=None, kappa=1.0)
STATE = dict(CHAIN, ratio=1.0)
DIAGONAL = ",".join(DIAGONAL_PAIRS)

# subcommand -> the flags its handler reads, with their defaults
COMMANDS = {
    "amplitudes": dict(CHAIN, t_max=10.0, steps=500, regime="exact"),
    "concurrence": dict(STATE, t_max=10.0, steps=500, pairs=DIAGONAL),
    "events": dict(STATE, t_max=10.0, pairs=DIAGONAL),
    "window": dict(STATE, t_max=60.0),
    "phase-diagram": dict(gamma_min=0.05, gamma_max=1.0, gamma_steps=20,
                          ratio_min=0.80, ratio_max=0.999, ratio_steps=21),
    # Delta = 1e4 and bandwidth = 200 times kappa (times 1 at kappa = 0)
    "validate": dict(geff=5.0, delta_detuning=None, kappa=1.0, t_max=10.0,
                     n_modes=2000, bandwidth=None, tol=0.02),
}


def build_parser(argv):
    """A parser for ``argv``: the positional subcommand, the positional
    preset ``N`` for ``figure``, and the flags of what ``argv`` names.  A name
    that ``argv`` gives joins the prog and leaves the help; a missing or
    invalid one is an error that lists every choice.  It is a shallow copy of
    the one parser of that subcommand and preset, built on first use, so an
    attribute that a caller sets on it stays its own."""
    # "--" ends the options; argparse drops it before the first positional
    command, number = (*[a for a in argv[:3] if a != "--"][:2], None, None)[:2]
    known = command in HANDLERS
    preset = command == "figure" and number in _PRESETS
    return copy.copy(_parser(command if known else None, number if preset else None))


@functools.lru_cache(maxsize=16)      # 6 subcommands, figure with 8 presets or none, no name
def _parser(command, number):
    defaults = FIGURES[_PRESETS[number]][1] if number else COMMANDS.get(command)
    parser = argparse.ArgumentParser(
        prog=" ".join(["entransfer", *filter(None, (command, number))]),
        allow_abbrev=False,     # validate --g is not --geff
        description=None if command else "Entanglement transfer through dissipative "
                    "atom-cavity-reservoir chains: series, events and phase diagrams.")
    parser.add_argument("command", choices=HANDLERS, help=argparse.SUPPRESS if command else None)
    if command == "figure":
        # a preset's number parses to its int; any other text fails the choices
        parser.add_argument("number", metavar="N", type=lambda s: _PRESETS.get(s, s),
                            choices=FIGURES, help=argparse.SUPPRESS if number else None)
    if defaults is not None:
        for dest in (*defaults, "out", "format", "config"):
            parser.add_argument("--" + dest.replace("_", "-"), **FLAGS[dest])
        parser.set_defaults(**defaults)
    return parser


def _config_flags(args):
    """The keys of the --config file as --key=value flags."""
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    flags = []
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in vars(args) or dest in ("command", "number", "config"):
            raise ConfigError(f"unknown config key {key!r}")
        flags.append(f"--{dest.replace('_', '-')}={value}")
    return flags


def _resolve_params(args):
    if args.geff is None:
        raise ConfigError("specify --geff")
    return SystemParams.from_geff(args.geff, kappa=args.kappa)


def _resolve_grid(args, n_columns):
    if args.t_max <= 0 or args.steps < 1:
        raise ConfigError("t_max must be positive and steps at least 1")
    require_memory((args.steps + 1.0) * n_columns * CELL_BYTES, f"--steps {args.steps:g}")
    return np.linspace(0.0, args.t_max, args.steps + 1)


def _resolve_pairs(args):
    pairs = tuple(s.strip() for s in args.pairs.split(",") if s.strip())
    for pair in pairs:
        if pair not in PAIR_LABELS:
            raise ConfigError(f"unknown pair label {pair!r}")
    if not pairs:
        raise ConfigError("empty pair list")
    return pairs


def _base_config(args, p, init=None, **extra):
    cfg = {
        "command": args.command,
        "g": p.g, "Omega": p.Omega, "Delta": p.Delta, "kappa": p.kappa,
        "g_eff": p.g_eff,
    }
    if init is not None:
        cfg.update(alpha=init.alpha, beta=init.beta)
    cfg.update(extra)
    return cfg


# --- subcommands ------------------------------------------------------------
# Each returns (config, column names, one sequence per column[, exit code]).

def cmd_amplitudes(args):
    p = _resolve_params(args)
    grid = _resolve_grid(args, 4)
    fn = {"exact": exact_squares, "strong": amplitudes_strong,
          "weak": amplitudes_weak}[args.regime]
    data = [grid] + [np.broadcast_to(x, grid.shape) for x in fn(grid, p)]
    cfg = _base_config(args, p, regime=args.regime,
                       t_max=grid[-1], steps=len(grid) - 1)
    return cfg, ("t", "E2", "G2", "R2"), data


def cmd_concurrence(args):
    p = _resolve_params(args)
    init = InitialAmplitudes.from_ratio(args.ratio)
    pairs = _resolve_pairs(args)
    grid = _resolve_grid(args, 1 + len(pairs))
    data = [grid] + [concurrence_series(pair, init, p, grid) for pair in pairs]
    cfg = _base_config(args, p, init, pairs=",".join(pairs),
                       t_max=grid[-1], steps=len(grid) - 1)
    return cfg, ("t",) + tuple(f"C_{pair}" for pair in pairs), data


def cmd_events(args):
    p = _resolve_params(args)
    init = InitialAmplitudes.from_ratio(args.ratio)
    pairs = _resolve_pairs(args)
    # the detection grid's size check, naming the flag that sets its cells
    cells = _detection_cells(p, args.t_max, what=f"--t-max {args.t_max:g}")
    found = _events(pairs, init, p, args.t_max, cells)
    data = ([ev.kind for ev in found], [ev.pair for ev in found],
            [ev.time for ev in found])
    cfg = _base_config(args, p, init, pairs=",".join(pairs), t_max=args.t_max)
    return cfg, ("kind", "pair", "time"), data


def cmd_window(args):
    p = _resolve_params(args)
    init = InitialAmplitudes.from_ratio(args.ratio)
    cells = _detection_cells(p, args.t_max, what=f"--t-max {args.t_max:g}")
    win = _dead_window(init, p, args.t_max, cells)
    if win is None:
        data = ([0], [math.nan], [math.nan], [math.nan])
    else:
        data = ([1], [win[0]], [win[1]], [win[1] - win[0]])
    cfg = _base_config(args, p, init, t_max=args.t_max)
    return cfg, ("found", "t_start", "t_end", "width"), data


def cmd_phase_diagram(args):
    if not (0 < args.gamma_min <= args.gamma_max and args.gamma_steps > 0
            and 0 < args.ratio_min <= args.ratio_max < 1 and args.ratio_steps > 0):
        raise ConfigError("invalid phase-diagram grid ranges")
    require_memory(4.0 * args.gamma_steps * args.ratio_steps * CELL_BYTES,
                   f"--gamma-steps {args.gamma_steps:g} with --ratio-steps {args.ratio_steps:g}")
    diagram = phase_diagram(np.linspace(args.gamma_min, args.gamma_max, args.gamma_steps),
                            np.linspace(args.ratio_min, args.ratio_max, args.ratio_steps))
    n_gamma, n_ratio = diagram.entangled.shape
    data = (np.repeat(diagram.gammas, n_ratio), np.tile(diagram.ratios, n_gamma),
            diagram.entangled.ravel().astype(int), np.repeat(diagram.boundary, n_ratio))
    cfg = {"command": args.command, "kappa": 1.0,
           **{k: getattr(args, k) for k in COMMANDS["phase-diagram"]}}
    return cfg, ("gamma", "ratio", "entangled", "boundary"), data


def cmd_validate(args):
    if args.t_max <= 0:
        raise ConfigError("--t-max must be positive")
    if args.tol <= 0:
        raise ConfigError("--tol must be positive")
    if args.n_modes <= 0:
        raise ConfigError("--n-modes must be positive")
    unit = args.kappa if args.kappa > 0 else 1.0      # as in from_geff
    delta = 1e4 * unit if args.delta_detuning is None else args.delta_detuning
    bandwidth = 200.0 * unit if args.bandwidth is None else args.bandwidth
    p = SystemParams.from_geff(args.geff, kappa=args.kappa, Delta=delta)
    d = oracle.ReservoirDiscretization(n_modes=args.n_modes, bandwidth=bandwidth)
    step = oracle._lindblad_step(p)
    if not math.isfinite(args.t_max / step):
        raise ConfigError(f"--t-max {args.t_max:g} takes more RK4 substeps of "
                          f"{step:.3g} than a float holds")
    d.validate(p, args.t_max)
    amp_err, leak = oracle.discretized_errors(p, d, args.t_max)
    # lindblad_error is resolved only to the RK4 route's rounding, about
    # 0.05 eps per substep as measured; where 16 eps per substep exceeds
    # --tol it must not decide a run that amplitude_error has not failed
    rounding = 16.0 * args.t_max / step * np.finfo(float).eps
    if amp_err <= args.tol < rounding:
        raise ConfigError(
            f"--delta-detuning {delta:g} with --t-max {args.t_max:g}: the Lindblad "
            f"route's rounding, up to {rounding:.2g}, exceeds --tol {args.tol:g}")
    lind_grid = np.linspace(args.t_max / 50.0, args.t_max, 50)
    lind_err = oracle.lindblad_max_error(p, lind_grid)
    passed = amp_err <= args.tol and lind_err <= args.tol
    cfg = _base_config(args, p, n_modes=args.n_modes, bandwidth=bandwidth,
                       t_max=args.t_max, tol=args.tol)
    data = ([amp_err], [lind_err], [leak], [args.tol], [int(passed)])
    columns = ("amplitude_error", "lindblad_error", "leakage", "tol", "passed")
    return cfg, columns, data, (EXIT_OK if passed else EXIT_VALIDATION)


def _strong_conditions(args):
    p = _resolve_params(args)
    init = InitialAmplitudes.from_ratio(args.ratio)
    grid = _resolve_grid(args, 4)
    e2, g2, _ = amplitudes_strong(grid, p)
    line = np.full_like(grid, init.alpha / init.beta)
    cfg = _base_config(args, p, init, t_max=grid[-1], steps=len(grid) - 1)
    return (cfg, ("t", "atoms_threshold", "cavities_threshold", "ratio_line"),
            (grid, 1.0 - e2, 1.0 - g2, line))


def _weak_condition(args):
    p = _resolve_params(args)
    init = InitialAmplitudes.from_ratio(args.ratio)
    grid = _resolve_grid(args, 4)
    g2 = amplitudes_weak(grid, p)[1]
    line = np.full_like(grid, init.alpha / init.beta)
    c_cav = concurrence_series("c1c2", init, p, grid)
    cfg = _base_config(args, p, init, t_max=grid[-1], steps=len(grid) - 1)
    return cfg, ("t", "cavity_threshold", "ratio_line", "C_c1c2"), (grid, 1.0 - g2, line, c_cav)


def _weak_vs_exact(args):
    p = _resolve_params(args)
    init = InitialAmplitudes.from_ratio(args.ratio)
    grid = _resolve_grid(args, 1 + 2 * len(DIAGONAL_PAIRS))
    weak = amplitudes_weak(grid, p)
    cols, series = ["t"], [grid]
    for i, pair in enumerate(DIAGONAL_PAIRS):
        series.append(np.maximum(0.0, -2.0 * lambda_minus(pair, weak[i], init)))
        cols.append(f"C_{pair}_weak")
    for pair in DIAGONAL_PAIRS:
        series.append(concurrence_series(pair, init, p, grid))
        cols.append(f"C_{pair}_exact")
    cfg = _base_config(args, p, init, t_max=grid[-1], steps=len(grid) - 1)
    return cfg, tuple(cols), series


# preset number -> (handler, the flags it reads with their defaults); numbers
# follow the reference figure sequence: 3/4 strong-coupling concurrences,
# 5 strong conditions, 6 weak cavity condition (alpha / beta = 0.985),
# 7 phase diagram, 8 weak-vs-exact, 9 weak concurrences with dead window,
# 10 interacting pairs
SERIES = dict(STATE, t_max=60.0, steps=600)
FIGURES = {
    3: (cmd_concurrence, dict(SERIES, geff=5.0, t_max=3.0, pairs=DIAGONAL)),
    4: (cmd_concurrence, dict(SERIES, geff=5.0, ratio=1.5, t_max=3.0, pairs=DIAGONAL)),
    5: (_strong_conditions, dict(SERIES, geff=5.0, ratio=1.5, t_max=3.0)),
    6: (_weak_condition, dict(SERIES, geff=0.1, ratio=1.0 / 0.985)),
    7: (cmd_phase_diagram, COMMANDS["phase-diagram"]),
    8: (_weak_vs_exact, dict(SERIES, geff=0.1, ratio=1.5)),
    9: (cmd_concurrence, dict(SERIES, geff=0.1, ratio=3.0, pairs=DIAGONAL)),
    10: (cmd_concurrence, dict(SERIES, geff=0.1, ratio=3.0, pairs="a1c1,c1r1,a1a2,r1r2")),
}
# preset text -> number, the choices that "figure" N parses to
_PRESETS = {str(n): n for n in FIGURES}


def cmd_figure(args):
    return FIGURES[args.number][0](args)


HANDLERS = {
    "amplitudes": cmd_amplitudes,
    "concurrence": cmd_concurrence,
    "events": cmd_events,
    "window": cmd_window,
    "phase-diagram": cmd_phase_diagram,
    "validate": cmd_validate,
    "figure": cmd_figure,
}


def _first_non_finite(columns, data):
    """(row, column name) of the first NaN or infinite cell in row order,
    or None."""
    first = None
    for name, column in zip(columns, data):
        a = np.asarray(column)
        if a.dtype.kind in "fc":
            bad = np.flatnonzero(~np.isfinite(a))
            if bad.size and (first is None or bad[0] < first[0]):
                first = (int(bad[0]), name)
    return first


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # the file's keys go before the user's flags, so argparse types
            # them and a flag on the command line wins
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
        # a non-finite result is reported by its error line, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            result = HANDLERS[args.command](args)
        cfg, columns, data, status = (*result, EXIT_OK)[:4]
        if args.command == "figure":
            cfg = dict(cfg, figure=args.number)
        # window writes NaN times for "no window"; elsewhere NaN is a fault
        bad = _first_non_finite(columns, data) if args.command != "window" else None
        if bad is not None:
            row, name = bad
            print(f"error: non-finite {name} in data row {row + 1} "
                  f"({columns[0]} = {data[0][row]}); no output written", file=sys.stderr)
            return EXIT_VALIDATION
        emit(cfg, columns, data, out=args.out, fmt=args.format)
        return status
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
