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
import math
import os
import re
import shlex
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError
from .lambda_frame import (MEV_TO_INV_NS_PHYSICAL, DriveConfig, PhysicalUnits,
                           PulseEnvelope, RotationSpec, eigensystem,
                           rotation_angle, rotation_axis, solve_xmax)
from .lindblad import (DecayConfig, _worst_case, density_from_state,
                       gate_error_mixed, qubit_state)
from .nonadiabatic import gate_error_pure, integrate_amplitudes
from .sweeps import (ratio_grid, records_to_table, sweep_error_vs_chi,
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
        if num in ("", "+"):
            scale = 1.0
        elif num == "-":
            scale = -1.0
        else:
            scale = float(num)
        if den:
            scale /= float(den)
        return scale * math.pi
    try:
        return float(t)
    except ValueError:
        raise ConfigurationError("cannot parse angle %r" % text) from None


def _bare_or_unit(text, kind):
    # a bare number is only legal when it is zero
    try:
        v = float(text)
    except ValueError:
        raise ConfigurationError(
            "cannot parse %s %r (unit suffix required)" % (kind, text)) from None
    if v == 0.0:
        return 0.0
    raise ConfigurationError("missing unit suffix on %s %r" % (kind, text))


def make_energy_parser(units):
    def parse(text):
        t = text.strip()
        if t.endswith("meV"):
            return float(t[:-3]) * units.mev_to_inv_ns
        if t.endswith("ns^-1"):
            return float(t[:-5])
        return _bare_or_unit(t, "energy")
    return parse


def parse_time(text):
    """Time in ns; accepts ps or ns suffix."""
    t = text.strip()
    if t.endswith("ps"):
        return float(t[:-2]) * 1e-3
    if t.endswith("ns"):
        return float(t[:-2])
    return _bare_or_unit(t, "time")


def parse_rate(text):
    """Decay rate in ns^-1."""
    t = text.strip()
    if t.endswith("ns^-1"):
        return float(t[:-5])
    return _bare_or_unit(t, "rate")


def make_list_parser(scalar):
    """Comma list or start:stop:step range, shared trailing unit suffix."""
    def parse(text):
        t = text.strip()
        m = _UNIT_SUFFIX.search(t)
        suffix = m.group(1) if m else ""
        body = t[:m.start()] if m else t
        if ":" in body:
            parts = body.split(":")
            if len(parts) != 3:
                raise ConfigurationError("range must be start:stop:step: %r" % text)
            start, stop, step = (scalar(p + suffix) for p in parts)
            if step <= 0.0 or stop < start:
                raise ConfigurationError("bad range %r" % text)
            n = int(math.floor((stop - start) / step + 1e-9)) + 1
            return [start + i * step for i in range(n)]
        return [scalar(p + suffix) for p in body.split(",")]
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


@dataclass
class RunConfig:
    """Canonical, unit-resolved view of one CLI invocation."""

    subcommand: str
    units: PhysicalUnits
    envelope: PulseEnvelope
    angle: float | None = None
    angles: list = field(default_factory=list)
    alpha: float = 0.0
    beta: float = math.pi / 4
    chi: float | None = None
    detuning: float | None = None
    tau: float | None = None
    chis: list | None = None
    detunings: list | None = None
    gammas: list | None = None
    gamma0: float = 0.0
    gamma1: float = 0.0
    prefactor: float = 0.5
    steps_per_unit: int = 2000
    dt: float | None = None
    record_stride: int = 10
    initial: np.ndarray | None = None
    enforce_regime: bool = True
    output: str | None = None

    def resolve_timing(self, need_physical=False):
        """Fill (chi, detuning, tau) from any consistent pair."""
        chi, det, tau = self.chi, self.detuning, self.tau
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
        self.chi, self.detuning, self.tau = chi, det, tau

    def decay(self):
        return DecayConfig(gamma0=self.gamma0, gamma1=self.gamma1,
                           prefactor=self.prefactor)


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
        if isinstance(v, float):
            print("%s = %s" % (k, _fmt(v)))
        else:
            print("%s = %s" % (k, v))


def cmd_frame(cfg):
    cfg.resolve_timing()
    x = solve_xmax(cfg.angle, cfg.chi, cfg.envelope)
    lam = rotation_angle(cfg.chi, x, cfg.envelope)
    axis = rotation_axis(cfg.alpha, cfg.beta)
    det = cfg.detuning if cfg.detuning is not None else 1.0
    scale = "ns^-1" if cfg.detuning is not None else "Delta"
    om = det * x
    es = eigensystem(om * math.cos(cfg.beta), om * math.sin(cfg.beta),
                     det, cfg.alpha, beta=cfg.beta)
    pairs = [
        ("chi", cfg.chi),
        ("x_max", x),
        ("rotation_angle_rad", lam),
        ("axis_x", axis[0]), ("axis_y", axis[1]), ("axis_z", axis[2]),
        ("energy_unit", scale),
        ("omega_peak", es.omega),
        ("z_peak", es.z),
        ("phi_peak_rad", es.phi),
        ("lambda2_peak", es.values[1]),
        ("lambda3_peak", es.values[2]),
    ]
    if cfg.tau is not None:
        pairs.insert(1, ("tau_ns", cfg.tau))
    _print_kv(pairs)
    return 0


def cmd_gate(cfg):
    decay = cfg.decay()
    if decay.total == 0.0:
        cfg.resolve_timing()
        if not cfg.angle > 0.0:
            raise ConfigurationError("angle must be positive")
        # nonadiabatic_error's composition, calibrating once for both the
        # error and the printed x_max
        x = solve_xmax(cfg.angle, cfg.chi, cfg.envelope)
        amps = integrate_amplitudes(cfg.chi, x, cfg.envelope,
                                    steps_per_unit=cfg.steps_per_unit)
        res = gate_error_pure(amps.a2, amps.a3)
        _print_kv([
            ("chi", cfg.chi),
            ("x_max", x),
            ("error", res.error),
            ("abs_c", abs(res.c)),
            ("abs_d", abs(res.d)),
            ("p_star", res.p_star),
        ])
        return 0
    cfg.resolve_timing(need_physical=True)
    drive = DriveConfig.for_rotation(cfg.angle, cfg.detuning, cfg.tau,
                                     alpha=cfg.alpha, beta=cfg.beta,
                                     envelope=cfg.envelope)
    target = RotationSpec.from_angles(cfg.angle, cfg.alpha, cfg.beta)
    err = gate_error_mixed(drive, decay, target, cfg.dt)
    # the same arguments again: _worst_case returns its cached result
    _, worst_n = _worst_case(drive, decay, target, cfg.dt)
    est = cfg.angle * decay.total / cfg.detuning
    _print_kv([
        ("chi", cfg.chi),
        ("x_max", drive.x_max),
        ("error", err),
        ("estimate", est),
        ("ratio", err / est),
        ("prefactor", decay.prefactor),
        ("worst_n_x", worst_n[0]),
        ("worst_n_y", worst_n[1]),
        ("worst_n_z", worst_n[2]),
    ])
    return 0


def cmd_trace(cfg, command):
    cfg.resolve_timing(need_physical=True)
    drive = DriveConfig.for_rotation(cfg.angle, cfg.detuning, cfg.tau,
                                     alpha=cfg.alpha, beta=cfg.beta,
                                     envelope=cfg.envelope)
    decay = cfg.decay()
    rho0 = None if cfg.initial is None else density_from_state(cfg.initial)
    records = trace_run(drive, decay, rho0=rho0, dt=cfg.dt,
                        record_stride=cfg.record_stride)
    table = records_to_table(records, drive, decay,
                             extra_metadata={"angle_rad": repr(cfg.angle)})
    write_table(table, cfg.output, command=command)
    return 0


def cmd_sweep_chi(cfg, command):
    decay = cfg.decay()
    table = sweep_error_vs_chi(
        cfg.angles, cfg.chis,
        decay=decay if decay.total > 0.0 else None,
        detuning=cfg.detuning, env=cfg.envelope,
        steps_per_unit=cfg.steps_per_unit, dt=cfg.dt,
        alpha=cfg.alpha, beta=cfg.beta)
    write_table(table, cfg.output, command=command)
    return 0


def cmd_sweep_xmax(cfg, command):
    table = sweep_xmax_vs_chi(cfg.angle, cfg.chis, env=cfg.envelope)
    write_table(table, cfg.output, command=command)
    return 0


def _fits_to_metadata(table, fits, key_prefix):
    meta = dict(table.metadata)
    for key in sorted(fits):
        fit = fits[key]
        meta["fit_%s_%s" % (key_prefix, _fmt(key))] = (
            "model=%s,coefficient=%s,r_squared=%s,residual_max=%s"
            % (fit.model, repr(fit.coefficient), repr(fit.r_squared),
               repr(fit.residual_max)))
    return type(table)(name=table.name, columns=table.columns,
                       rows=table.rows, metadata=meta)


def cmd_sweep_gamma(cfg, command):
    table, fits = sweep_error_vs_gamma(
        cfg.detunings, cfg.gammas, cfg.angle, cfg.tau,
        prefactor=cfg.prefactor, env=cfg.envelope, dt=cfg.dt,
        alpha=cfg.alpha, beta=cfg.beta, enforce_regime=cfg.enforce_regime)
    write_table(_fits_to_metadata(table, fits, "delta"), cfg.output,
                command=command)
    return 0


def cmd_sweep_delta(cfg, command):
    table, fits = sweep_error_vs_delta(
        cfg.gammas, cfg.detunings, cfg.angle, cfg.tau,
        prefactor=cfg.prefactor, env=cfg.envelope, dt=cfg.dt,
        alpha=cfg.alpha, beta=cfg.beta, enforce_regime=cfg.enforce_regime)
    write_table(_fits_to_metadata(table, fits, "gamma"), cfg.output,
                command=command)
    return 0


def cmd_ratio_grid(cfg, command):
    table = ratio_grid(
        cfg.gammas, cfg.detunings, cfg.angle, cfg.tau,
        prefactor=cfg.prefactor, env=cfg.envelope, dt=cfg.dt,
        alpha=cfg.alpha, beta=cfg.beta, enforce_regime=cfg.enforce_regime)
    write_table(table, cfg.output, command=command)
    return 0


def build_parser(units):
    energy = make_energy_parser(units)
    energy_list = make_list_parser(energy)
    rate_list = make_list_parser(parse_rate)
    float_list = make_list_parser(float)

    top = argparse.ArgumentParser(
        prog="raman-sim",
        description="Adiabatic Raman single-qubit gate simulator")
    top.add_argument("--units", choices=("rounded", "physical"),
                     default="rounded",
                     help="meV conversion: 1500 ns^-1 (rounded) or 1519.3")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p, need_angle=True):
        if need_angle:
            p.add_argument("--angle", type=parse_angle, required=True,
                           help="target rotation angle (pi forms ok)")
        p.add_argument("--alpha", type=parse_angle, default=0.0)
        p.add_argument("--beta", type=parse_angle, default=math.pi / 4)
        p.add_argument("--ub", type=float, default=3.0,
                       help="envelope truncation halfwidth u_b")
        p.add_argument("-o", "--output", default=None,
                       help="output file (default stdout)")

    def timing(p):
        p.add_argument("--chi", type=float, default=None)
        p.add_argument("--delta", type=energy, default=None,
                       help="detuning (meV or ns^-1 suffix)")
        p.add_argument("--tau", type=parse_time, default=None,
                       help="pulse halfwidth (ps or ns suffix)")

    def decay_opts(p):
        p.add_argument("--gamma0", type=parse_rate, default=0.0,
                       help="decay rate to |0> (ns^-1 suffix)")
        p.add_argument("--gamma1", type=parse_rate, default=0.0,
                       help="decay rate to |1> (ns^-1 suffix)")
        p.add_argument("--prefactor", type=float, choices=(0.5, 1.0),
                       default=0.5, help="dissipator prefactor")

    def steps_opt(p):
        p.add_argument("--steps-per-unit", type=int, default=2000)

    def dt_opt(p):
        p.add_argument("--dt", type=parse_time, default=None,
                       help="master-equation step (ps or ns suffix)")

    p = sub.add_parser("frame", help="print calibration and eigensystem")
    common(p)
    timing(p)
    p.set_defaults(handler="frame")

    p = sub.add_parser("gate", help="single worst-case gate error")
    common(p)
    timing(p)
    decay_opts(p)
    steps_opt(p)
    dt_opt(p)
    p.set_defaults(handler="gate")

    p = sub.add_parser("trace", help="time series CSV of one run")
    common(p)
    timing(p)
    decay_opts(p)
    dt_opt(p)
    p.add_argument("--initial", type=parse_initial, default=None,
                   help="initial qubit state: 0,1,+,-,+i,-i or 'theta,phi'")
    p.add_argument("--stride", type=int, default=10,
                   help="record every N-th integrator step")
    p.set_defaults(handler="trace")

    p = sub.add_parser("sweep-xmax", help="x_max calibration table vs chi")
    common(p)
    p.add_argument("--chi", type=float_list, required=True,
                   help="comma list or start:stop:step")
    p.set_defaults(handler="sweep-xmax")

    p = sub.add_parser("sweep-chi", help="error vs chi table")
    common(p, need_angle=False)
    p.add_argument("--angle", type=parse_angle, action="append",
                   required=True, help="repeatable target angle")
    p.add_argument("--chi", type=float_list, required=True,
                   help="comma list or start:stop:step")
    p.add_argument("--delta", type=energy, default=None,
                   help="fixed detuning (needed when gamma > 0)")
    decay_opts(p)
    steps_opt(p)
    dt_opt(p)
    p.set_defaults(handler="sweep-chi")

    def grid_sweep(name, help_text):
        q = sub.add_parser(name, help=help_text)
        common(q)
        q.add_argument("--tau", type=parse_time, required=True)
        q.add_argument("--delta", type=energy_list, required=True,
                       help="detunings (comma list or range, meV/ns^-1)")
        q.add_argument("--gamma", type=rate_list, required=True,
                       help="total decay rates (comma list or range, ns^-1)")
        q.add_argument("--prefactor", type=float, choices=(0.5, 1.0),
                       default=0.5)
        dt_opt(q)
        q.add_argument("--no-regime-guard", dest="enforce_regime",
                       action="store_false",
                       help="demote the chi >= 20 guard to a warning")
        q.set_defaults(handler=name)
        return q

    grid_sweep("sweep-gamma", "error vs gamma with per-detuning fits")
    grid_sweep("sweep-delta", "error vs detuning with per-gamma fits")
    grid_sweep("ratio-grid", "exact error over the analytic estimate")

    return top


def _build_config(args, units):
    cfg = RunConfig(subcommand=args.handler, units=units,
                    envelope=PulseEnvelope(u_b=getattr(args, "ub", 3.0)))
    cfg.alpha = getattr(args, "alpha", 0.0)
    cfg.beta = getattr(args, "beta", math.pi / 4)
    cfg.output = getattr(args, "output", None)
    cfg.tau = getattr(args, "tau", None)
    cfg.gamma0 = getattr(args, "gamma0", 0.0)
    cfg.gamma1 = getattr(args, "gamma1", 0.0)
    cfg.prefactor = getattr(args, "prefactor", 0.5)
    cfg.steps_per_unit = getattr(args, "steps_per_unit", 2000)
    cfg.dt = getattr(args, "dt", None)
    cfg.record_stride = getattr(args, "stride", 10)
    cfg.initial = getattr(args, "initial", None)
    cfg.enforce_regime = getattr(args, "enforce_regime", True)

    angle = getattr(args, "angle", None)
    if isinstance(angle, list):
        cfg.angles = angle
    elif angle is not None:
        cfg.angle = angle

    chi = getattr(args, "chi", None)
    if isinstance(chi, list):
        cfg.chis = chi
    elif chi is not None:
        cfg.chi = chi

    delta = getattr(args, "delta", None)
    if isinstance(delta, list):
        cfg.detunings = delta
    elif delta is not None:
        cfg.detuning = delta

    gamma = getattr(args, "gamma", None)
    if isinstance(gamma, list):
        cfg.gammas = gamma

    if cfg.steps_per_unit < 1:
        raise ConfigurationError("--steps-per-unit must be >= 1")
    if cfg.record_stride < 1:
        raise ConfigurationError("--stride must be >= 1")
    return cfg


def run(argv=None):
    """Parse argv, dispatch, return the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        units_probe = argparse.ArgumentParser(add_help=False)
        units_probe.add_argument("--units", choices=("rounded", "physical"),
                                 default="rounded")
        probed, _ = units_probe.parse_known_args(argv)
        units = PhysicalUnits(MEV_TO_INV_NS_PHYSICAL
                              if probed.units == "physical" else 1500.0)
        parser = build_parser(units)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    command = shlex.join([str(a) for a in argv])
    try:
        cfg = _build_config(args, units)
        if cfg.subcommand == "frame":
            return cmd_frame(cfg)
        if cfg.subcommand == "gate":
            return cmd_gate(cfg)
        if cfg.subcommand == "trace":
            return cmd_trace(cfg, command)
        if cfg.subcommand == "sweep-xmax":
            return cmd_sweep_xmax(cfg, command)
        if cfg.subcommand == "sweep-chi":
            return cmd_sweep_chi(cfg, command)
        if cfg.subcommand == "sweep-gamma":
            return cmd_sweep_gamma(cfg, command)
        if cfg.subcommand == "sweep-delta":
            return cmd_sweep_delta(cfg, command)
        if cfg.subcommand == "ratio-grid":
            return cmd_ratio_grid(cfg, command)
        raise ConfigurationError("unknown subcommand %r" % cfg.subcommand)
    except ConfigurationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
