"""Spans around the package's public functions, recorded from outside it.

install() replaces each traced function at every module binding that holds
it (solve_xmax, for one, is bound in lambda_frame, nonadiabatic, sweeps and
cli), so calls are caught wherever they are looked up.  Each call records a
span: name, start, end, parent span and request id.  Spans stay in memory
until the run writes them out.  A traced name the package no longer has is
listed in `absent` and its metrics read 0; it never stops the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "ramansim"
LAYERS = ("lambda_frame", "nonadiabatic", "lindblad", "sweeps", "cli")
SWEEPS = ("sweep_error_vs_chi", "sweep_xmax_vs_chi", "sweep_error_vs_gamma",
          "sweep_error_vs_delta", "ratio_grid")
NOMINAL_DT_Z = 0.02  # the seed commit's step rule, fixed here on purpose
DEFAULT_UB = 3.0  # PulseEnvelope's default half-width u_b


def _ub(env):
    return DEFAULT_UB if env is None else env.u_b


def _amplitude_probe(tracer, name, args):
    import numpy as np
    n = int(round(2.0 * _ub(args["env"]) * args["steps_per_unit"]))
    points = max(np.size(args["chi"]), np.size(args["x_max"]))
    tracer.count(name + ".steps", n)
    tracer.count(name + ".points", points)
    tracer.count(name + ".point_steps", n * points)


def _nominal_probe(tracer, name, args):
    drive = args["drive"]
    span = drive.t_final - drive.t_initial
    tracer.count(name + ".nominal_steps",
                 max(1, math.ceil(drive.z_max * span / NOMINAL_DT_Z)))


def _rows_probe(tracer, name, args):
    def done(result):
        table = result[0] if isinstance(result, tuple) else result
        tracer.count("sweeps.rows", len(table.rows))
    return done


def _tell(stream):
    try:
        return stream.tell()
    except (AttributeError, OSError, ValueError):
        return 0


def _bytes_probe(tracer, name, args):
    path = args["path"]
    start = None if path else _tell(sys.stdout)

    def done(result):
        n = os.path.getsize(path) if path else _tell(sys.stdout) - start
        tracer.count(name + ".bytes", n)
    return done


def _exit_probe(tracer, name, args):
    def done(result):
        if result != 0:
            tracer.count("cli.exit_nonzero")
    return done


# (home module, function, probe): a probe sees the bound arguments and may
# return a callback for the result.
TRACED = (
    ("lambda_frame", "solve_xmax", None),
    ("nonadiabatic", "integrate_amplitudes", _amplitude_probe),
    ("nonadiabatic", "integrate_amplitudes_batch", _amplitude_probe),
    ("lindblad", "gate_error_mixed", _nominal_probe),
    ("lindblad", "propagate_master", _nominal_probe),
    *(("sweeps", fn, _rows_probe) for fn in SWEEPS),
    ("cli", "write_table", _bytes_probe),
    ("cli", "run", _exit_probe),
)
# counted, not timed: called tens of times per calibration
QUADRATURE = ("lambda_frame", "adaptive_simpson")


class Tracer:
    """In-memory span recorder plus counters, for one thread of requests."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.counters = Counter()
        self.request = None
        self.absent = []
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def count(self, key, n=1):
        self.counters[key] += n

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------ wrapping

    def _span_wrapper(self, name, fn, probe):
        sig = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = None
            if probe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                done = probe(self, name, bound.arguments)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if done:
                done(result)
            return result
        return wrapper

    def _quadrature_wrapper(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            counters["lambda_frame.quadratures"] += 1

            def counted(u):
                counters["lambda_frame.integrand_evals"] += 1
                return f(u)
            return fn(counted, *args, **kwargs)
        return wrapper

    def _patch(self, module, name, make):
        """Replace `name` at every package binding of the home function."""
        try:
            home = importlib.import_module("%s.%s" % (PACKAGE, module))
        except ImportError:
            home = None
        original = getattr(home, name, None)
        if not callable(original):
            self.absent.append("%s.%s" % (module, name))
            return
        wrapper = make(original)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self):
        for module, name, probe in TRACED:
            span = "%s.%s" % (module, name)
            self._patch(module, name,
                        lambda fn, s=span, p=probe: self._span_wrapper(s, fn, p))
        self._patch(*QUADRATURE, self._quadrature_wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


# ----------------------------------------------------------------- analysis

def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children[i]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def coverage(spans, request_walls):
    """Share of request wall time inside top-level spans."""
    inside = sum(s[2] - s[1] for s in spans if s[3] is None)
    total = sum(request_walls)
    return inside / total if total > 0 else 0.0


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("lambda_frame.solve_xmax.calls", "count", "lower"),
    ("lambda_frame.solve_xmax.busy_s", "s", "lower"),
    ("lambda_frame.solve_xmax.ms_per_call", "ms", "lower"),
    ("lambda_frame.quadratures", "count", "lower"),
    ("lambda_frame.integrand_evals", "count", "lower"),
    ("lambda_frame.self_share", "1", "lower"),
    ("nonadiabatic.integrate_amplitudes.calls", "count", "lower"),
    ("nonadiabatic.integrate_amplitudes.busy_s", "s", "lower"),
    ("nonadiabatic.integrate_amplitudes.us_per_step", "us", "lower"),
    ("nonadiabatic.integrate_amplitudes_batch.calls", "count", "lower"),
    ("nonadiabatic.integrate_amplitudes_batch.busy_s", "s", "lower"),
    ("nonadiabatic.integrate_amplitudes_batch.points", "count", "higher"),
    ("nonadiabatic.integrate_amplitudes_batch.us_per_point_step", "us", "lower"),
    ("nonadiabatic.self_share", "1", "lower"),
    ("lindblad.gate_error_mixed.calls", "count", "lower"),
    ("lindblad.gate_error_mixed.busy_s", "s", "lower"),
    ("lindblad.gate_error_mixed.nominal_steps", "count", "higher"),
    ("lindblad.gate_error_mixed.us_per_nominal_step", "us", "lower"),
    ("lindblad.propagate_master.calls", "count", "lower"),
    ("lindblad.propagate_master.busy_s", "s", "lower"),
    ("lindblad.propagate_master.nominal_steps", "count", "higher"),
    ("lindblad.propagate_master.us_per_nominal_step", "us", "lower"),
    ("lindblad.self_share", "1", "lower"),
) + tuple(
    ("sweeps.%s.%s" % (fn, m), unit, "lower")
    for fn in SWEEPS for m, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("sweeps.rows", "count", "higher"),
    ("sweeps.self_share", "1", "lower"),
    ("cli.run.calls", "count", "higher"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.write_table.busy_s", "s", "lower"),
    ("cli.write_table.bytes", "B", "higher"),
    ("cli.exit_nonzero", "count", "lower"),
    ("cli.self_share", "1", "lower"),
    ("proc.cpu_util", "1", "lower"),
    ("check.max_dev", "1", "lower"),
    ("check.values", "count", "higher"),
    ("trace.coverage", "1", "higher"),
    ("trace.overhead_frac", "1", "lower"),
)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer, request_walls):
    """Per-name and per-layer numbers from one traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls, busy, self_s = Counter(), Counter(), Counter()
    layer_self = Counter()
    for s, own in zip(spans, selfs):
        name = s[0]
        calls[name] += 1
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        # inclusive time, once per outermost call of a name
        p = s[3]
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            busy[name] += s[2] - s[1]
    c = tracer.counters
    wall = sum(request_walls)
    amp, batch = "nonadiabatic.integrate_amplitudes", "nonadiabatic.integrate_amplitudes_batch"
    gem, pm = "lindblad.gate_error_mixed", "lindblad.propagate_master"
    sx = "lambda_frame.solve_xmax"
    out = {
        sx + ".calls": calls[sx],
        sx + ".busy_s": busy[sx],
        sx + ".ms_per_call": _ratio(busy[sx], calls[sx], 1e3),
        "lambda_frame.quadratures": c["lambda_frame.quadratures"],
        "lambda_frame.integrand_evals": c["lambda_frame.integrand_evals"],
        amp + ".calls": calls[amp],
        amp + ".busy_s": busy[amp],
        amp + ".us_per_step": _ratio(busy[amp], c[amp + ".steps"], 1e6),
        batch + ".calls": calls[batch],
        batch + ".busy_s": busy[batch],
        batch + ".points": c[batch + ".points"],
        batch + ".us_per_point_step": _ratio(busy[batch], c[batch + ".point_steps"], 1e6),
        "sweeps.rows": c["sweeps.rows"],
        "cli.run.calls": calls["cli.run"],
        "cli.run.self_s": self_s["cli.run"],
        "cli.write_table.busy_s": busy["cli.write_table"],
        "cli.write_table.bytes": c["cli.write_table.bytes"],
        "cli.exit_nonzero": c["cli.exit_nonzero"],
        "trace.coverage": coverage(spans, request_walls),
    }
    for name in (gem, pm):
        out[name + ".calls"] = calls[name]
        out[name + ".busy_s"] = busy[name]
        out[name + ".nominal_steps"] = c[name + ".nominal_steps"]
        out[name + ".us_per_nominal_step"] = _ratio(
            busy[name], c[name + ".nominal_steps"], 1e6)
    for fn in SWEEPS:
        out["sweeps.%s.calls" % fn] = calls["sweeps." + fn]
        out["sweeps.%s.self_s" % fn] = self_s["sweeps." + fn]
    for layer in LAYERS:
        out[layer + ".self_share"] = _ratio(layer_self[layer], wall)
    return out
