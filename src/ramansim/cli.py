"""Command-line front end emitting CSV tables with metadata headers.

Conventions: angles accept pi-rational forms ("pi", "2pi", "pi/2",
"0.75pi") or plain radians; energies need a meV or ns^-1 suffix; times
need ps or ns; decay rates need ns^-1.  A bare "0" is accepted anywhere
since zero needs no unit.  Swept flags take either a comma list or an
inclusive start:stop:step range, with one trailing suffix applying to
every element ("1:8:1meV").

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import shlex
import sys
import tempfile

from .errors import ConfigurationError, NumericalError
from .lambda_frame import (DEFAULT_BETA, MEV_TO_INV_NS_PHYSICAL, DriveConfig,
                           PhysicalUnits, PulseEnvelope, solve_xmax)
from .lindblad import (DT_Z_LIMIT, WORST_CASE_DT_Z_LIMIT, DecayConfig,
                       _open_gates, density_from_state, qubit_state)
from .nonadiabatic import STEPS_PER_UNIT, _calibrated_gates
from .sweeps import (CHI_REGIME_MIN, _path_inputs, ratio_grid,
                     records_to_table, sweep_error_vs_chi,
                     sweep_error_vs_delta, sweep_error_vs_gamma,
                     sweep_xmax_vs_chi, trace_run)

_PI_FORM = re.compile(r"^([+-]?\d*\.?\d*)pi(?:/(\d*\.?\d+))?$")
_UNIT_SUFFIX = re.compile(r"(meV|ns\^-1|ps|ns)$")


def parse_angle(text):
    """Angle in radians; accepts pi-rational shorthand."""
    t = text.strip().lower().replace(" ", "")
    m = _PI_FORM.match(t)
    if m:
        num, den = m.group(1), m.group(2)
        # a bare sign, or none, means one
        scale = float(num + "1" if num in ("", "+", "-") else num)
        if den:
            scale /= float(den)
        return scale * math.pi
    try:
        return float(t)
    except ValueError:
        raise ConfigurationError("cannot parse angle %r" % text) from None


def _unit_parser(kind, scales):
    # a number with one of the suffixes in scales, times that suffix's
    # scale; a bare number is only legal when it is zero
    def parse(text):
        t = text.strip()
        suffix = next((u for u in scales if t.endswith(u)), "")
        if suffix:
            return float(t[:-len(suffix)]) * scales[suffix]
        try:
            v = float(t)
        except ValueError:
            raise ConfigurationError(
                "cannot parse %s %r (unit suffix required)" % (kind, t)) from None
        if v == 0.0:
            return 0.0
        raise ConfigurationError("missing unit suffix on %s %r" % (kind, t))
    return parse


def make_energy_parser(units):
    """Parser of energies in ns^-1 from a meV or ns^-1 suffix."""
    return _unit_parser("energy", {"meV": units.mev_to_inv_ns, "ns^-1": 1.0})


parse_time = _unit_parser("time", {"ps": 1e-3, "ns": 1.0})  # in ns
parse_rate = _unit_parser("rate", {"ns^-1": 1.0})  # decay rate in ns^-1


def make_list_parser(scalar):
    """Comma list or start:stop:step range of scalar values.

    A unit suffix after the last element applies to every element written
    without one; an element with its own unit keeps it.
    """
    def parse(text):
        t = text.strip()
        m = _UNIT_SUFFIX.search(t)
        suffix = m.group(1) if m else ""

        def value(part):
            part = part.strip()
            return scalar(part if _UNIT_SUFFIX.search(part) else part + suffix)
        if ":" in t:
            parts = t.split(":")
            if len(parts) != 3:
                raise ConfigurationError("range must be start:stop:step: %r" % text)
            start, stop, step = (value(p) for p in parts)
            if not all(map(math.isfinite, (start, stop, step))):
                raise ConfigurationError("range bounds and step must be "
                                         "finite: %r" % text)
            if step <= 0.0 or stop < start:
                raise ConfigurationError("bad range %r" % text)
            n = int(math.floor((stop - start) / step + 1e-9)) + 1
            return [start + i * step for i in range(n)]
        return [value(p) for p in t.split(",")]
    return parse


_NAMED_STATES = {
    "0": (0.0, 0.0),
    "1": (math.pi, 0.0),
    "+": (0.5 * math.pi, 0.0),
    "-": (0.5 * math.pi, math.pi),
    "+i": (0.5 * math.pi, 0.5 * math.pi),
    "-i": (0.5 * math.pi, -0.5 * math.pi),
}


def parse_initial(text):
    """Initial qubit state: named (0, 1, +, -, +i, -i) or 'theta,phi'."""
    t = text.strip()
    if t in _NAMED_STATES:
        theta, ph = _NAMED_STATES[t]
    elif "," in t:
        a, b = t.split(",", 1)
        theta, ph = parse_angle(a), parse_angle(b)
    else:
        raise ConfigurationError("cannot parse initial state %r" % text)
    return qubit_state(theta, ph)


def _timing(args, need_physical=False):
    """(chi, detuning, tau) from --chi or any consistent pair of the three."""
    chi, det, tau = args.chi, args.delta, args.tau
    for flag, v in (("--delta", det), ("--tau", tau)):
        if v is not None and not 0.0 < v < math.inf:
            raise ConfigurationError("%s must be positive and finite" % flag)
    if det is not None and tau is not None:
        derived = det * tau
        if chi is not None and abs(chi - derived) > 1e-9 * max(1.0, derived):
            raise ConfigurationError("--chi contradicts --delta * --tau")
        chi = derived
    elif chi is not None and det is not None:
        tau = chi / det
    elif chi is not None and tau is not None:
        det = chi / tau
    if chi is None:
        raise ConfigurationError(
            "need --chi, or two of (--chi, --delta, --tau)")
    if need_physical and (det is None or tau is None):
        raise ConfigurationError(
            "this command needs physical timing: give two of "
            "(--chi, --delta, --tau)")
    return chi, det, tau


def _decay(args):
    return DecayConfig(gamma0=args.gamma0, gamma1=args.gamma1,
                       prefactor=args.prefactor)


def _fmt(v):
    # + 0.0 canonicalizes negative zero
    return "%.12g" % (v + 0.0)


def write_table(table, path, command=None):
    """CSV with '# key=value' metadata lines; written atomically.

    Raises ConfigurationError when the file cannot be written.
    """
    lines = []
    if command is not None:
        lines.append("# command=%s" % command)
    for k, v in table.metadata.items():
        lines.append("# %s=%s" % (k, v))
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    target = os.path.abspath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".part")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigurationError("cannot write %s: %s"
                                 % (path, exc.strerror or exc)) from None


def _print_kv(pairs):
    for k, v in pairs:
        print("%s = %s" % (k, _fmt(v) if isinstance(v, float) else v))


# Handlers look library functions up as module globals when they run, so a
# rebinding on this module (a test's or a tracer's) takes effect.  A handler
# that builds a table returns it for run() to write.

def cmd_frame(args):
    chi, det, tau = _timing(args)
    # without physical timing, energies are in units of Delta
    drive = DriveConfig.for_rotation(
        args.angle, 1.0 if det is None else det, chi if tau is None else tau,
        alpha=args.alpha, beta=args.beta, envelope=PulseEnvelope(u_b=args.ub))
    rot = drive.rotation()
    es = drive.eigensystem_at(0.0)
    pairs = [
        ("chi", chi),
        ("x_max", drive.x_max),
        ("rotation_angle_rad", rot.angle),
        *zip(("axis_x", "axis_y", "axis_z"), rot.axis),
        ("energy_unit", "Delta" if det is None else "ns^-1"),
        ("omega_peak", es.omega),
        ("z_peak", es.z),
        ("phi_peak_rad", es.phi),
        ("lambda2_peak", es.values[1]),
        ("lambda3_peak", es.values[2]),
    ]
    if tau is not None:
        pairs.insert(1, ("tau_ns", tau))
    _print_kv(pairs)


def cmd_gate(args):
    env = PulseEnvelope(u_b=args.ub)
    decay = _decay(args)
    step = _path_inputs(decay, args.alpha, args.beta, args.steps_per_unit,
                        args.dt)
    if not args.angle > 0.0:
        raise ConfigurationError("angle must be positive")
    if decay.total == 0.0:
        chi, _, _ = _timing(args)
        (x,), (res,) = _calibrated_gates(args.angle, [chi], env, step)
        _print_kv([
            ("chi", chi),
            ("x_max", x),
            ("error", res.error),
            ("abs_c", abs(res.c)),
            ("abs_d", abs(res.d)),
            ("p_star", res.p_star),
        ])
        return
    chi, det, tau = _timing(args, need_physical=True)
    x = solve_xmax(args.angle, chi, env)
    (err, est, ratio, worst_n), = _open_gates(
        args.angle, det, tau, x, [decay], env, step, args.alpha, args.beta)
    # components below 1e-9 are zero up to the march's rounding, which
    # would print as digits that move with any reordering of its sums
    worst_n = [0.0 if abs(v) < 1e-9 else v for v in worst_n]
    _print_kv([
        ("chi", chi),
        ("x_max", x),
        ("error", err),
        ("estimate", est),
        ("ratio", ratio),
        ("prefactor", decay.prefactor),
        *zip(("worst_n_x", "worst_n_y", "worst_n_z"), worst_n),
    ])


def cmd_trace(args):
    env = PulseEnvelope(u_b=args.ub)
    _, det, tau = _timing(args, need_physical=True)
    drive = DriveConfig.for_rotation(args.angle, det, tau, alpha=args.alpha,
                                     beta=args.beta, envelope=env)
    decay = _decay(args)
    rho0 = None if args.initial is None else density_from_state(args.initial)
    records = trace_run(drive, decay, rho0=rho0, dt=args.dt,
                        record_stride=args.stride)
    return records_to_table(records, drive, decay,
                            extra_metadata={"angle_rad": repr(args.angle)})


def cmd_sweep_chi(args):
    return sweep_error_vs_chi(
        args.angle, args.chi, decay=_decay(args), detuning=args.delta,
        env=PulseEnvelope(u_b=args.ub), steps_per_unit=args.steps_per_unit,
        dt=args.dt, alpha=args.alpha, beta=args.beta)


def cmd_sweep_xmax(args):
    return sweep_xmax_vs_chi(args.angle, args.chi,
                             env=PulseEnvelope(u_b=args.ub))


def cmd_grid(args):
    """sweep-gamma, sweep-delta and ratio-grid; fits go into the metadata."""
    sweep, fit_axis = {
        "sweep-gamma": (sweep_error_vs_gamma, "delta"),
        "sweep-delta": (sweep_error_vs_delta, "gamma"),
        "ratio-grid": (ratio_grid, None),
    }[args.subcommand]
    result = sweep(
        gammas=args.gamma, detunings=args.delta, angle=args.angle,
        tau=args.tau, prefactor=args.prefactor,
        env=PulseEnvelope(u_b=args.ub), dt=args.dt, alpha=args.alpha,
        beta=args.beta, enforce_regime=args.enforce_regime)
    if fit_axis is None:
        return result
    table, fits = result
    meta = dict(table.metadata)
    for key, fit in sorted(fits.items()):
        meta["fit_%s_%s" % (fit_axis, _fmt(key))] = (
            "model=%s,coefficient=%r,r_squared=%r,residual_max=%r"
            % (fit.model, fit.coefficient, fit.r_squared, fit.residual_max))
    return dataclasses.replace(table, metadata=meta)


@functools.lru_cache(maxsize=2)
def build_parser(units):
    """Cached raman-sim parser for one meV conversion; callers share it."""
    def argument_type(parse):
        # argparse would print "invalid <function name> value" for these
        def wrapped(text):
            try:
                return parse(text)
            except ConfigurationError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
            except ValueError:
                raise argparse.ArgumentTypeError(
                    "cannot parse %r" % text) from None
        return wrapped

    energy = make_energy_parser(units)
    energy_list, rate_list, float_list = (
        argument_type(make_list_parser(scalar))
        for scalar in (energy, parse_rate, float))
    energy, angle, time, rate, initial = (
        argument_type(parse) for parse in
        (energy, parse_angle, parse_time, parse_rate, parse_initial))

    top = argparse.ArgumentParser(
        prog="raman-sim",
        description="Adiabatic Raman single-qubit gate simulator")
    top.add_argument("--units", choices=("rounded", "physical"),
                     default="rounded",
                     help="meV conversion: 1500 ns^-1 (rounded) or 1519.3")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    def common(p, need_angle=True, need_axis=True):
        if need_angle:
            p.add_argument("--angle", type=angle, required=True,
                           help="target rotation angle (pi forms ok)")
        if need_axis:
            p.add_argument("--alpha", type=angle, default=0.0)
            p.add_argument("--beta", type=angle, default=DEFAULT_BETA)
        p.add_argument("--ub", type=float, default=PulseEnvelope().u_b,
                       help="envelope truncation halfwidth u_b; decay errors "
                       "are read at t = u_b tau, so past u = 33, where f = 0, "
                       "a wider u_b adds a dark wait")

    def output_opt(p):
        p.add_argument("-o", "--output", help="output file (default stdout)")

    def timing(p):
        p.add_argument("--chi", type=float)
        p.add_argument("--delta", type=energy,
                       help="detuning (meV or ns^-1 suffix)")
        p.add_argument("--tau", type=time,
                       help="pulse halfwidth (ps or ns suffix)")

    def prefactor_opt(p):
        p.add_argument("--prefactor", type=float, help="dissipator prefactor",
                       default=DecayConfig().prefactor)

    def decay_opts(p):
        p.add_argument("--gamma0", type=rate, default=0.0,
                       help="decay rate to |0> (ns^-1 suffix)")
        p.add_argument("--gamma1", type=rate, default=0.0,
                       help="decay rate to |1> (ns^-1 suffix)")
        prefactor_opt(p)

    def steps_opt(p):
        p.add_argument("--steps-per-unit", type=int, default=STEPS_PER_UNIT,
                       help="amplitude Magnus steps per unit of u, default %d "
                            "(no decay)" % STEPS_PER_UNIT)

    def dt_opt(p):
        p.add_argument("--dt", type=time,
                       help="master-equation step (ps or ns suffix); "
                            "defaults to %g/Z_max for worst-case errors "
                            "and %g/Z_max for traces, the finer step "
                            "because a trace prints the state itself"
                            % (WORST_CASE_DT_Z_LIMIT, DT_Z_LIMIT))

    p = command("frame", cmd_frame, "print calibration and eigensystem")
    common(p)
    timing(p)

    p = command("gate", cmd_gate, "single worst-case gate error")
    common(p)
    timing(p)
    decay_opts(p)
    steps_opt(p)
    dt_opt(p)

    p = command("trace", cmd_trace, "time series CSV of one run")
    common(p)
    output_opt(p)
    timing(p)
    decay_opts(p)
    dt_opt(p)
    p.add_argument("--initial", type=initial,
                   help="initial qubit state: 0,1,+,-,+i,-i or 'theta,phi'")
    p.add_argument("--stride", type=int, default=10,
                   help="record every N-th integrator step")

    # the calibration does not depend on the rotation axis
    p = command("sweep-xmax", cmd_sweep_xmax, "x_max calibration table vs chi")
    common(p, need_axis=False)
    output_opt(p)
    p.add_argument("--chi", type=float_list, required=True,
                   help="comma list or start:stop:step")

    p = command("sweep-chi", cmd_sweep_chi, "error vs chi table")
    common(p, need_angle=False)
    output_opt(p)
    p.add_argument("--angle", type=angle, action="append",
                   required=True, help="repeatable target angle")
    p.add_argument("--chi", type=float_list, required=True,
                   help="comma list or start:stop:step")
    p.add_argument("--delta", type=energy,
                   help="fixed detuning (needed when gamma > 0)")
    decay_opts(p)
    steps_opt(p)
    dt_opt(p)

    for name, help_text in (
            ("sweep-gamma", "error vs gamma with per-detuning fits"),
            ("sweep-delta", "error vs detuning with per-gamma fits"),
            ("ratio-grid", "exact error over the analytic estimate")):
        p = command(name, cmd_grid, help_text)
        common(p)
        output_opt(p)
        p.add_argument("--tau", type=time, required=True)
        p.add_argument("--delta", type=energy_list, required=True,
                       help="detunings (comma list or range, meV/ns^-1)")
        p.add_argument("--gamma", type=rate_list, required=True,
                       help="total decay rates (comma list or range, ns^-1)")
        prefactor_opt(p)
        dt_opt(p)
        p.add_argument("--no-regime-guard", dest="enforce_regime",
                       action="store_false",
                       help="demote the chi >= %g guard to a warning"
                            % CHI_REGIME_MIN)

    return top


def run(argv=None):
    """Parse argv, run its subcommand, return the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(PhysicalUnits()).parse_args(argv)
        if args.units == "physical":
            # meV values were converted at the rounded rate: parse again
            args = build_parser(
                PhysicalUnits(MEV_TO_INV_NS_PHYSICAL)).parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        table = args.handler(args)
        if table is not None:
            write_table(table, args.output, command=shlex.join(argv))
    except ConfigurationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
