"""Span tracer for the benchmark's traced run.

``Tracer.install()`` wraps every public function of the package's layer
modules at each binding a caller goes through: the defining module, every
module that imported it by name (``from .amplitudes import exact_squares``),
``cli.HANDLERS`` and the parser that ``cli.build_parser`` returns.  SciPy's
``brentq`` and ``minimize_scalar``, as bound in ``events``, count as events
work.  ``uninstall()`` restores every binding.

Spans (name, start, end, parent) are kept in memory and written out by
``dump``.  A span's self time is its duration minus the time covered by its
child spans; a layer's self time is the sum over its spans.  An entry call
into a layer is a span whose parent belongs to another layer.
"""

import collections
import functools
import gzip
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

import numpy as np

from entransfer import amplitudes, cli, events, jointstate, oracle, qops

LAYERS = {"cli": cli, "amplitudes": amplitudes, "jointstate": jointstate,
          "qops": qops, "events": events, "oracle": oracle}
# events functions that scan a grid for brackets; the grids they pass to
# exact_squares are the scanned grids of events.grid_points
SCANS = ("events.detect_events", "events.cavity_boundary",
         "events.cavity_entangled_intervals")
# position of the time (or squared-amplitude) argument, for point counts
POINT_ARG = {"joint_state": 0, "global_tangle": 0, "pair_concurrence": 1,
             "lambda_minus": 1}
UNITS = {
    "cli.parse_ms": "ms/op", "cli.handler_ms": "ms/op", "cli.emit_ms": "ms/op",
    "cli.emit_bytes": "B/op",
    "amplitudes.array_calls": "count/op", "amplitudes.scalar_calls": "count/op",
    "amplitudes.points": "points/op", "amplitudes.self_ms": "ms/op",
    "amplitudes.ns_per_point": "ns/point",
    "jointstate.calls": "count/op", "jointstate.self_ms": "ms/op",
    "jointstate.us_per_point": "us/point",
    "qops.calls": "count/op", "qops.self_ms": "ms/op", "qops.us_per_call": "us/call",
    "qops.x_form_ratio": "ratio",
    "events.calls": "count/op", "events.self_ms": "ms/op", "events.brentq_calls": "count/op",
    "events.minimize_calls": "count/op", "events.grid_points": "points/op",
    "events.bracket_ratio": "ratio",
    "oracle.evolve_calls": "count/op", "oracle.evolve_ms": "ms/op", "oracle.build_ms": "ms/op",
    "oracle.dim": "count", "oracle.dense_bytes": "B-computed", "oracle.lindblad_ms": "ms/op",
    "trace.overhead_ms": "ms/op", "trace.overhead_pct": "%",
}
_X_OFF = ~np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=bool)


class Tracer:
    def __init__(self):
        self.active = False
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = []            # frames: [span index, name, layer, start, child time]
        self._patches = []
        self._wrappers = {}
        self.self_s = collections.Counter()       # by layer
        self.name_self_s = collections.Counter()  # by span name
        self.incl_s = collections.Counter()       # by span name
        self.calls = collections.Counter()        # by span name
        self.entry_calls = collections.Counter()  # by layer
        self.entry_s = collections.Counter()      # by layer
        self.n = collections.Counter()            # other counts

    # --- spans -------------------------------------------------------------

    def _open(self, name, layer):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [idx, name, layer, 0.0, 0.0]
        self._stack.append(frame)
        frame[3] = perf_counter()
        self.span_start.append(frame[3])
        return frame

    def _close(self, frame):
        end = perf_counter()
        self._stack.pop()
        idx, name, layer, start, child = frame
        self.span_end[idx] = end
        dur = end - start
        self.self_s[layer] += dur - child
        self.name_self_s[name] += dur - child
        self.incl_s[name] += dur
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += dur
        if parent is None or parent[2] != layer:
            self.entry_calls[layer] += 1
            self.entry_s[layer] += dur

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def run_op(self, fn):
        """Call ``fn`` as one traced op, under a root span ``bench.op``."""
        self.active = True
        frame = self._open("bench.op", "bench")
        try:
            return fn()
        finally:
            self._close(frame)
            self.active = False

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer):
        """One shared wrapper per function, whichever binding it replaces."""
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = self._make_wrapper(fn, layer, fn.__name__)
        return self._wrappers[id(fn)]

    def _make_wrapper(self, fn, layer, short_name):
        name = f"{layer}.{short_name}"
        before = getattr(self, "_before_" + short_name, None)
        after = getattr(self, "_after_" + short_name, None)
        if layer in ("amplitudes", "jointstate"):
            before = getattr(self, "_before_" + layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(name, args, kwargs) if before else None
            frame = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after:
                after(args, kwargs, result, state)
            return result

        return wrapper

    def _patch(self, namespace, key, value):
        """Replace a module's or a dict's entry, remembering the original."""
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    def install(self):
        owners = {mod.__name__: layer for layer, mod in LAYERS.items()}
        for mod in LAYERS.values():
            for key, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not key.startswith("_")
                        and obj.__module__ in owners):
                    self._patch(vars(mod), key, self._wrap(obj, owners[obj.__module__]))
        for key in ("brentq", "minimize_scalar"):
            self._patch(vars(events), key, self._wrap(getattr(events, key), "events"))
        for key, fn in list(cli.HANDLERS.items()):
            self._patch(cli.HANDLERS, key, self._wrap(fn, "cli"))

    def uninstall(self):
        while self._patches:
            namespace, key, value = self._patches.pop()
            namespace[key] = value
        self.active = False

    # --- per-function counters (run outside the span's timing) -------------

    def _before_amplitudes(self, name, args, kwargs):
        t = args[0] if args else kwargs["t"]
        size = int(np.size(t))
        self.n["amplitudes.array_calls" if np.ndim(t) else "amplitudes.scalar_calls"] += 1
        self.n["amplitudes.points"] += size
        if np.ndim(t) and name == "amplitudes.exact_squares" and self.parent_name() in SCANS:
            self.n["events.grid_points"] += size
            self.n["events.grid_intervals"] += size - 1

    def _before_jointstate(self, name, args, kwargs):
        if self._stack and self._stack[-1][2] == "jointstate":
            return       # not an entry call
        pos = POINT_ARG.get(name.split(".", 1)[1])
        self.n["jointstate.points"] += 1 if pos is None else int(np.size(args[pos]))

    def _before_wootters_concurrence(self, name, args, kwargs):
        rho = np.asarray(args[0])
        self.n["qops.x_form_inputs"] += 1
        if rho.shape == (4, 4) and np.max(np.abs(rho[_X_OFF])) < qops.X_SPARSITY_TOL:
            self.n["qops.x_form"] += 1

    def _after_build_hamiltonian(self, args, kwargs, h, state):
        dim = h.shape[0]
        self.n["oracle.hamiltonians"] += 1
        self.n["oracle.dim"] += dim
        self.n["oracle.dense_bytes"] += 16 * dim * dim

    def _before_emit(self, name, args, kwargs):
        out = kwargs.get("out", args[3] if len(args) > 3 else None)
        return out, (sys.stdout.tell() if out is None else 0)

    def _after_emit(self, args, kwargs, result, state):
        out, pos = state
        self.n["cli.emit_bytes"] += (os.path.getsize(out) if out is not None
                                     else sys.stdout.tell() - pos)

    def _after_build_parser(self, args, kwargs, parser, state):
        parser.parse_args = self._make_wrapper(parser.parse_args, "cli", "parse_args")

    # --- results -----------------------------------------------------------

    def metrics(self, n_ops, traced_s, untraced_s):
        """Per-layer metrics; counts and times are per op of the traced run.

        The tracing overhead is the traced replay's op time minus the op time
        of the same ops run untraced."""
        ms = 1e3 / n_ops
        per_op = 1.0 / n_ops
        n, incl = self.n, self.incl_s

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        parse_s = incl["cli.build_parser"] + incl["cli.parse_args"]
        handler_self = sum(v for k, v in self.name_self_s.items() if k.startswith("cli.cmd_"))
        values = {
            "cli.parse_ms": parse_s * ms,
            "cli.handler_ms": handler_self * ms,
            "cli.emit_ms": incl["cli.emit"] * ms,
            "cli.emit_bytes": n["cli.emit_bytes"] * per_op,
            "amplitudes.array_calls": n["amplitudes.array_calls"] * per_op,
            "amplitudes.scalar_calls": n["amplitudes.scalar_calls"] * per_op,
            "amplitudes.points": n["amplitudes.points"] * per_op,
            "amplitudes.self_ms": self.self_s["amplitudes"] * ms,
            "amplitudes.ns_per_point": ratio(self.self_s["amplitudes"],
                                             n["amplitudes.points"], 1e9),
            "jointstate.calls": self.entry_calls["jointstate"] * per_op,
            "jointstate.self_ms": self.self_s["jointstate"] * ms,
            "jointstate.us_per_point": ratio(self.entry_s["jointstate"],
                                             n["jointstate.points"], 1e6),
            "qops.calls": self.entry_calls["qops"] * per_op,
            "qops.self_ms": self.self_s["qops"] * ms,
            "qops.us_per_call": ratio(self.entry_s["qops"], self.entry_calls["qops"], 1e6),
            "qops.x_form_ratio": ratio(n["qops.x_form"], n["qops.x_form_inputs"]),
            "events.calls": self.entry_calls["events"] * per_op,
            "events.self_ms": self.self_s["events"] * ms,
            "events.brentq_calls": self.calls["events.brentq"] * per_op,
            "events.minimize_calls": self.calls["events.minimize_scalar"] * per_op,
            "events.grid_points": n["events.grid_points"] * per_op,
            "events.bracket_ratio": ratio(self.calls["events.brentq"],
                                          n["events.grid_intervals"]),
            "oracle.evolve_calls": self.calls["oracle.evolve"] * per_op,
            "oracle.evolve_ms": incl["oracle.evolve"] * ms,
            "oracle.build_ms": incl["oracle.build_hamiltonian"] * ms,
            "oracle.dim": ratio(n["oracle.dim"], n["oracle.hamiltonians"]),
            "oracle.dense_bytes": ratio(n["oracle.dense_bytes"], n["oracle.hamiltonians"]),
            "oracle.lindblad_ms": incl["oracle.lindblad_evolve"] * ms,
            "trace.overhead_ms": (traced_s - untraced_s) * ms,
            "trace.overhead_pct": ratio(traced_s - untraced_s, untraced_s, 100.0),
        }
        return values

    def dump(self, path):
        """Write every span, gzip-compressed JSON with one list per field."""
        doc = {"names": self.names,
               "name": self.span_name.tolist(), "start": self.span_start.tolist(),
               "end": self.span_end.tolist(), "parent": self.span_parent.tolist()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
