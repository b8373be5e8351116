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

All rates are in units of kappa and times in 1/kappa.  Exit codes:
0 success, 2 configuration error, 3 numerical-validation failure.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .amplitudes import SystemParams, amplitudes_strong, amplitudes_weak, exact_squares
from .errors import ConfigError
from .events import (
    concurrence_series,
    dead_window,
    detect_events,
    phase_diagram,
)
from .jointstate import DIAGONAL_PAIRS, InitialAmplitudes, PAIR_LABELS, lambda_minus
from . import oracle

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3

def _float_cell(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.12g" % (float(x) + 0.0)  # +0.0 normalizes negative zero


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _jsonable(x):
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x) + 0.0  # +0.0 normalizes negative zero
    return x


def emit(config, columns, records, out=None, fmt="csv"):
    """Serialize a table; CSV uses 12 significant digits and LF endings,
    JSON wraps everything in one object with config/columns/records."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_float_cell(c) for c in row) for row in records]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "config": {k: _jsonable(v) for k, v in config.items()},
            "columns": list(columns),
            "records": [[_jsonable(c) for c in row] for row in records],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


# --- configuration ----------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--geff", type=float, help="effective coupling in units of kappa")
    sp.add_argument("--g", type=float, help="quantum-mode coupling")
    sp.add_argument("--omega", type=float, help="classical-field coupling")
    sp.add_argument("--delta-detuning", type=float, dest="delta_detuning",
                    help="detuning Delta")
    sp.add_argument("--kappa", type=float, help="cavity decay rate (default 1)")
    sp.add_argument("--alpha", type=float, help="initial ground-ground amplitude")
    sp.add_argument("--beta", type=float, help="initial excited-excited amplitude")
    sp.add_argument("--ratio", type=float, help="beta / alpha (alternative to alpha/beta)")
    sp.add_argument("--t-max", type=float, dest="t_max", help="grid horizon in 1/kappa")
    sp.add_argument("--steps", type=int, help="number of grid intervals")
    sp.add_argument("--pairs", type=str, help="comma-separated pair labels")
    sp.add_argument("--regime", choices=("exact", "strong", "weak"))
    sp.add_argument("--out", type=str, help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), dest="format")
    sp.add_argument("--config", type=str, help="JSON file with flag defaults")
    sp.add_argument("--n-modes", type=int, dest="n_modes",
                    help="reservoir modes for the discretized oracle")
    sp.add_argument("--bandwidth", type=float, help="reservoir bandwidth for the oracle")
    sp.add_argument("--seed", type=int, help="reserved; the dynamics is deterministic")
    sp.add_argument("--tol", type=float, help="validation tolerance")
    sp.add_argument("--gamma-min", type=float, dest="gamma_min")
    sp.add_argument("--gamma-max", type=float, dest="gamma_max")
    sp.add_argument("--gamma-steps", type=int, dest="gamma_steps")
    sp.add_argument("--ratio-min", type=float, dest="ratio_min")
    sp.add_argument("--ratio-max", type=float, dest="ratio_max")
    sp.add_argument("--ratio-steps", type=int, dest="ratio_steps")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="entransfer",
        description="Entanglement transfer through dissipative atom-cavity-"
                    "reservoir chains: series, events and phase diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("amplitudes", "concurrence", "events", "window",
                 "phase-diagram", "validate"):
        _add_common(sub.add_parser(name))
    fig = sub.add_parser("figure")
    fig.add_argument("number", type=int, choices=tuple(FIGURES))
    _add_common(fig)
    return parser


def _merge_config_file(args):
    if args.config is None:
        return args
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    for key, value in data.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, attr) is None:       # flags override the file
            setattr(args, attr, value)
    return args


def _resolve_params(args, default_geff=None):
    kappa = 1.0 if args.kappa is None else float(args.kappa)
    if args.g is not None or args.omega is not None:
        if args.g is None or args.omega is None:
            raise ConfigError("--g and --omega must be given together")
        delta = args.delta_detuning
        if delta is None:
            raise ConfigError("--delta-detuning is required with explicit --g/--omega")
        return SystemParams(g=args.g, Omega=args.omega, Delta=delta, kappa=kappa)
    geff = args.geff if args.geff is not None else default_geff
    if geff is None:
        raise ConfigError("specify --geff or --g/--omega/--delta-detuning")
    return SystemParams.from_geff(geff, kappa=kappa, Delta=args.delta_detuning)


def _resolve_initial(args, default_ratio=1.0):
    if args.alpha is not None or args.beta is not None:
        if args.alpha is not None and args.beta is not None:
            return InitialAmplitudes(alpha=args.alpha, beta=args.beta)
        if args.alpha is not None:
            return InitialAmplitudes(alpha=args.alpha,
                                     beta=float(np.sqrt(1.0 - args.alpha**2)))
        return InitialAmplitudes(alpha=float(np.sqrt(1.0 - args.beta**2)),
                                 beta=args.beta)
    ratio = default_ratio if args.ratio is None else args.ratio
    return InitialAmplitudes.from_ratio(ratio)


def _resolve_grid(args, default_t_max=10.0, default_steps=500):
    t_max = default_t_max if args.t_max is None else float(args.t_max)
    steps = default_steps if args.steps is None else int(args.steps)
    if t_max <= 0 or steps < 1:
        raise ConfigError("t_max must be positive and steps at least 1")
    return np.linspace(0.0, t_max, steps + 1)


def _resolve_pairs(args, default):
    if args.pairs is None:
        return tuple(default)
    pairs = tuple(s.strip() for s in args.pairs.split(",") if s.strip())
    for pair in pairs:
        if pair not in PAIR_LABELS:
            raise ConfigError(f"unknown pair label {pair!r}")
    if not pairs:
        raise ConfigError("empty pair list")
    return pairs


def _base_config(args, p, init, **extra):
    cfg = {
        "command": args.command,
        "g": p.g, "Omega": p.Omega, "Delta": p.Delta, "kappa": p.kappa,
        "g_eff": p.g_eff,
        "alpha": init.alpha, "beta": init.beta,
    }
    cfg.update(extra)
    return cfg


# --- subcommands ------------------------------------------------------------

def cmd_amplitudes(args):
    p = _resolve_params(args)
    grid = _resolve_grid(args)
    regime = args.regime or "exact"
    fn = {"exact": exact_squares, "strong": amplitudes_strong,
          "weak": amplitudes_weak}[regime]
    e2, g2, r2 = fn(grid, p)
    records = list(zip(grid, np.broadcast_to(e2, grid.shape),
                       np.broadcast_to(g2, grid.shape),
                       np.broadcast_to(r2, grid.shape)))
    init = InitialAmplitudes.from_ratio(1.0)
    cfg = _base_config(args, p, init, regime=regime,
                       t_max=grid[-1], steps=len(grid) - 1)
    del cfg["alpha"], cfg["beta"]
    return cfg, ("t", "E2", "G2", "R2"), records


def cmd_concurrence(args):
    p = _resolve_params(args)
    init = _resolve_initial(args)
    grid = _resolve_grid(args)
    pairs = _resolve_pairs(args, DIAGONAL_PAIRS)
    series = [concurrence_series(pair, init, p, grid) for pair in pairs]
    records = list(zip(grid, *series))
    cfg = _base_config(args, p, init, pairs=",".join(pairs),
                       t_max=grid[-1], steps=len(grid) - 1)
    return cfg, ("t",) + tuple(f"C_{pair}" for pair in pairs), records


def cmd_events(args):
    p = _resolve_params(args)
    init = _resolve_initial(args)
    t_max = 10.0 if args.t_max is None else float(args.t_max)
    pairs = _resolve_pairs(args, DIAGONAL_PAIRS)
    for pair in pairs:
        if pair not in DIAGONAL_PAIRS:
            raise ConfigError(f"event detection supports a1a2/c1c2/r1r2, got {pair!r}")
    records = []
    for pair in pairs:
        for ev in detect_events(pair, init, p, t_max, n_points=args.steps):
            records.append((ev.kind, ev.pair, ev.time))
    cfg = _base_config(args, p, init, pairs=",".join(pairs), t_max=t_max)
    return cfg, ("kind", "pair", "time"), records


def cmd_window(args):
    p = _resolve_params(args)
    init = _resolve_initial(args)
    t_max = 60.0 if args.t_max is None else float(args.t_max)
    win = dead_window(init, p, t_max)
    if win is None:
        records = [(0, float("nan"), float("nan"), float("nan"))]
    else:
        records = [(1, win[0], win[1], win[1] - win[0])]
    cfg = _base_config(args, p, init, t_max=t_max)
    return cfg, ("found", "t_start", "t_end", "width"), records


def cmd_phase_diagram(args):
    gmin = 0.05 if args.gamma_min is None else args.gamma_min
    gmax = 1.0 if args.gamma_max is None else args.gamma_max
    gnum = 20 if args.gamma_steps is None else args.gamma_steps
    rmin = 0.80 if args.ratio_min is None else args.ratio_min
    rmax = 0.999 if args.ratio_max is None else args.ratio_max
    rnum = 21 if args.ratio_steps is None else args.ratio_steps
    if not (0 < gmin <= gmax and 0 < rmin <= rmax < 1 and gnum > 0 and rnum > 0):
        raise ConfigError("invalid phase-diagram grid ranges")
    gammas = np.linspace(gmin, gmax, gnum)
    ratios = np.linspace(rmin, rmax, rnum)
    diagram = phase_diagram(gammas, ratios)
    records = []
    for i, gm in enumerate(diagram.gammas):
        for j, rt in enumerate(diagram.ratios):
            records.append((gm, rt, int(diagram.entangled[i, j]),
                            diagram.boundary[i]))
    cfg = {"command": args.command, "kappa": 1.0,
           "gamma_min": gmin, "gamma_max": gmax, "gamma_steps": gnum,
           "ratio_min": rmin, "ratio_max": rmax, "ratio_steps": rnum}
    return cfg, ("gamma", "ratio", "entangled", "boundary"), records


def cmd_validate(args):
    kappa = 1.0 if args.kappa is None else float(args.kappa)
    geff = 5.0 if args.geff is None else args.geff
    delta = 1e4 * kappa if args.delta_detuning is None else args.delta_detuning
    p = SystemParams.from_geff(geff, kappa=kappa, Delta=delta)
    t_max = 10.0 if args.t_max is None else float(args.t_max)
    n_modes = 2000 if args.n_modes is None else args.n_modes
    bandwidth = 200.0 * kappa if args.bandwidth is None else args.bandwidth
    tol = 0.02 if args.tol is None else args.tol
    d = oracle.ReservoirDiscretization(n_modes=n_modes, bandwidth=bandwidth,
                                       kappa=kappa)
    d.validate(p, t_max, strict=False)
    amp_err, leak = oracle.discretized_errors(p, d, t_max)
    lind_grid = np.linspace(t_max / 50.0, t_max, 50)
    lind_err = oracle.lindblad_max_error(p, lind_grid)
    passed = amp_err <= tol and lind_err <= tol
    cfg = {"command": args.command, "g": p.g, "Omega": p.Omega,
           "Delta": p.Delta, "kappa": kappa, "g_eff": p.g_eff,
           "n_modes": n_modes, "bandwidth": bandwidth,
           "t_max": t_max, "tol": tol}
    records = [(amp_err, lind_err, leak, tol, int(passed))]
    columns = ("amplitude_error", "lindblad_error", "leakage", "tol", "passed")
    return cfg, columns, records, (EXIT_OK if passed else EXIT_VALIDATION)


def _strong_conditions(args):
    p = _resolve_params(args, default_geff=5.0)
    init = _resolve_initial(args, default_ratio=1.5)
    grid = _resolve_grid(args, default_t_max=3.0, default_steps=600)
    e2, g2, _ = amplitudes_strong(grid, p)
    atoms, cavities = 1.0 - e2, 1.0 - g2
    line = np.full_like(grid, init.alpha / init.beta)
    records = list(zip(grid, atoms, cavities, line))
    cfg = _base_config(args, p, init, t_max=grid[-1], steps=len(grid) - 1)
    return cfg, ("t", "atoms_threshold", "cavities_threshold", "ratio_line"), records


def _weak_condition(args):
    p = _resolve_params(args, default_geff=0.1)
    ratio_ab = 0.985                       # alpha / beta
    init = _resolve_initial(args, default_ratio=1.0 / ratio_ab)
    grid = _resolve_grid(args, default_t_max=60.0, default_steps=600)
    g2 = amplitudes_weak(grid, p)[1]
    line = np.full_like(grid, init.alpha / init.beta)
    c_cav = concurrence_series("c1c2", init, p, grid)
    records = list(zip(grid, 1.0 - g2, line, c_cav))
    cfg = _base_config(args, p, init, t_max=grid[-1], steps=len(grid) - 1)
    return cfg, ("t", "cavity_threshold", "ratio_line", "C_c1c2"), records


def _weak_vs_exact(args):
    p = _resolve_params(args, default_geff=0.1)
    init = _resolve_initial(args, default_ratio=1.5)
    grid = _resolve_grid(args, default_t_max=60.0, default_steps=600)
    weak = amplitudes_weak(grid, p)
    cols, series = ["t"], [grid]
    for i, pair in enumerate(DIAGONAL_PAIRS):
        series.append(np.maximum(0.0, -2.0 * lambda_minus(pair, weak[i], init)))
        cols.append(f"C_{pair}_weak")
    for pair in DIAGONAL_PAIRS:
        series.append(concurrence_series(pair, init, p, grid))
        cols.append(f"C_{pair}_exact")
    cfg = _base_config(args, p, init, t_max=grid[-1], steps=len(grid) - 1)
    return cfg, tuple(cols), list(zip(*series))


def _figure_overrides(args, **defaults):
    for key, value in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    return args


# preset number -> (handler, flag defaults); numbers follow the reference
# figure sequence: 3/4 strong-coupling concurrences, 5 strong conditions,
# 6 weak cavity condition, 7 phase diagram, 8 weak-vs-exact, 9 weak
# concurrences with dead window, 10 interacting pairs
FIGURES = {
    3: (cmd_concurrence, dict(geff=5.0, ratio=1.0, t_max=3.0, steps=600,
                              pairs="a1a2,c1c2,r1r2")),
    4: (cmd_concurrence, dict(geff=5.0, ratio=1.5, t_max=3.0, steps=600,
                              pairs="a1a2,c1c2,r1r2")),
    5: (_strong_conditions, {}),
    6: (_weak_condition, {}),
    7: (cmd_phase_diagram, {}),
    8: (_weak_vs_exact, {}),
    9: (cmd_concurrence, dict(geff=0.1, ratio=3.0, t_max=60.0, steps=600,
                              pairs="a1a2,c1c2,r1r2")),
    10: (cmd_concurrence, dict(geff=0.1, ratio=3.0, t_max=60.0, steps=600,
                               pairs="a1c1,c1r1,a1a2,r1r2")),
}


def cmd_figure(args):
    handler, defaults = FIGURES[args.number]
    return handler(_figure_overrides(args, **defaults))


HANDLERS = {
    "amplitudes": cmd_amplitudes,
    "concurrence": cmd_concurrence,
    "events": cmd_events,
    "window": cmd_window,
    "phase-diagram": cmd_phase_diagram,
    "validate": cmd_validate,
    "figure": cmd_figure,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config_file(args)
        result = HANDLERS[args.command](args)
        status = EXIT_OK
        if len(result) == 4:
            cfg, columns, records, status = result
        else:
            cfg, columns, records = result
        if args.command == "figure":
            cfg = dict(cfg, figure=args.number)
        emit(cfg, columns, records, out=args.out, fmt=args.format or "csv")
        return status
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
