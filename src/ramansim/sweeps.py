"""Parameter sweeps producing deterministic, re-runnable data tables.

Every operation returns a SweepTable whose metadata records the complete
input set, so any table can be regenerated bit-identically.

Decay sweeps take the total rate gamma = gamma0 + gamma1 as the swept
variable and split it equally between the two channels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .lambda_frame import DriveConfig, PulseEnvelope, RotationSpec, solve_xmax
from .lindblad import (DecayConfig, density_from_state, gate_error_mixed,
                       propagate_master, qubit_state)
from .nonadiabatic import gate_error_pure, integrate_amplitudes_batch

CHI_REGIME_MIN = 20.0
ESTIMATE_REGIME_MAX = 0.05


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Named columns of floats plus the metadata to re-run them."""

    name: str
    columns: tuple
    rows: tuple
    metadata: dict

    def __len__(self):
        return len(self.rows)

    def column(self, name):
        if name not in self.columns:
            raise ConfigurationError("no column named %r" % name)
        i = self.columns.index(name)
        return np.array([row[i] for row in self.rows])


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit summary: model tag, coefficient, R^2, worst residual."""

    model: str
    coefficient: float
    r_squared: float
    residual_max: float


def fit_linear_through_origin(x, y, floor=0.0):
    """Fit y = floor + k*x with the floor held fixed.

    residual_max is the worst absolute residual; R^2 is measured against
    the variance of y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or x.size != y.size:
        raise ConfigurationError("need at least two matching points")
    sxx = float(np.dot(x, x))
    if sxx == 0.0:
        raise ConfigurationError("all x values are zero")
    k = float(np.dot(x, y - floor)) / sxx
    pred = floor + k * x
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return FitResult(model="linear-through-origin", coefficient=k,
                     r_squared=min(1.0, max(0.0, r2)),
                     residual_max=float(np.max(np.abs(y - pred))))


def fit_inverse(x, y):
    """Fit y = c / x; residual_max is the worst relative residual."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or x.size != y.size:
        raise ConfigurationError("need at least two matching points")
    if np.any(x <= 0.0):
        raise ConfigurationError("x values must be positive")
    inv = 1.0 / x
    c = float(np.dot(inv, y)) / float(np.dot(inv, inv))
    pred = c * inv
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / max(ss_tot, 1e-300)
    rel = np.max(np.abs(y - pred) / np.maximum(np.abs(y), 1e-300))
    return FitResult(model="inverse", coefficient=c,
                     r_squared=min(1.0, max(0.0, r2)),
                     residual_max=float(rel))


def _check_regime(chi, enforce):
    if chi < CHI_REGIME_MIN - 1e-9:
        msg = ("chi = %.6g below the adiabatic working range (>= %g)"
               % (chi, CHI_REGIME_MIN))
        if enforce:
            raise ConfigurationError(msg + "; pass enforce_regime=False to override")
        warnings.warn(msg)


def _check_percent_level(angle, gamma_max, detuning_min, enforce):
    worst = angle * gamma_max / detuning_min
    if worst > ESTIMATE_REGIME_MAX + 1e-12:
        msg = ("estimated error %.3g beyond the percent-level regime (<= %g)"
               % (worst, ESTIMATE_REGIME_MAX))
        if enforce:
            raise ConfigurationError(msg + "; pass enforce_regime=False to override")
        warnings.warn(msg)


def _tool_tag():
    from . import __version__
    return "ramansim " + __version__


def _float_list(values):
    return ",".join(repr(float(v)) for v in values)


def sweep_xmax_vs_chi(angle, chi_values, env=None):
    """Calibrated peak ratio x_max for each chi at a fixed angle."""
    if env is None:
        env = PulseEnvelope()
    chi_values = np.asarray(chi_values, dtype=float)
    if chi_values.size == 0 or np.any(np.diff(chi_values) <= 0.0):
        raise ConfigurationError("chi_values must be positive and increasing")
    rows = tuple((float(c), float(x))
                 for c, x in zip(chi_values, solve_xmax(angle, chi_values, env)))
    meta = {
        "table": "xmax-vs-chi",
        "tool": _tool_tag(),
        "envelope": "truncated-gaussian",
        "u_b": repr(env.u_b),
        "angle_rad": repr(float(angle)),
        "chi_values": _float_list(chi_values),
    }
    return SweepTable(name="xmax-vs-chi", columns=("chi", "x_max"),
                      rows=rows, metadata=meta)


def sweep_error_vs_chi(angles, chi_values, decay=None, detuning=None,
                       env=None, steps_per_unit=2000, dt=None,
                       alpha=0.0, beta=math.pi / 4):
    """Gate error versus chi for one or more target angles.

    Without decay the fast adiabatic-basis path is used and the table
    carries the amplitude diagnostics.  With decay present a fixed
    detuning is required, each chi is converted to a gate halfwidth
    tau = chi / detuning and the full master equation is integrated.
    """
    if env is None:
        env = PulseEnvelope()
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    chi_values = np.asarray(chi_values, dtype=float)
    if np.any(chi_values <= 0.0):
        raise ConfigurationError("chi values must be positive")

    has_decay = decay is not None and decay.total > 0.0
    meta = {
        "table": "error-vs-chi",
        "tool": _tool_tag(),
        "envelope": "truncated-gaussian",
        "u_b": repr(env.u_b),
        "angle_rad": _float_list(angles),
        "chi_values": _float_list(chi_values),
    }

    if not has_decay:
        meta["steps_per_unit"] = str(steps_per_unit)
        rows = []
        for angle in angles:
            xs = solve_xmax(angle, chi_values, env)
            a2, a3, _ = integrate_amplitudes_batch(
                chi_values, xs, env, steps_per_unit=steps_per_unit)
            for c, x, c2, c3 in zip(chi_values, xs, a2, a3):
                res = gate_error_pure(complex(c2), complex(c3))
                rows.append((float(angle), float(c), float(x), res.error,
                             abs(res.c), abs(res.d), res.p_star))
        return SweepTable(
            name="error-vs-chi",
            columns=("angle", "chi", "x_max", "error", "abs_c", "abs_d", "p_star"),
            rows=tuple(rows), metadata=meta)

    if detuning is None or not detuning > 0.0:
        raise ConfigurationError("decay sweeps need a positive detuning")
    meta.update({
        "detuning_inv_ns": repr(float(detuning)),
        "gamma0_inv_ns": repr(decay.gamma0),
        "gamma1_inv_ns": repr(decay.gamma1),
        "prefactor": repr(decay.prefactor),
        "alpha_rad": repr(float(alpha)),
        "beta_rad": repr(float(beta)),
        "dt_rule": "0.02/z_max" if dt is None else repr(float(dt)),
        "final_time": "light-off",
    })

    rows = []
    for angle in angles.tolist():
        target = RotationSpec.from_angles(angle, alpha, beta)
        est = angle * decay.total / detuning
        xs = solve_xmax(angle, chi_values, env)
        for chi, x in zip(chi_values.tolist(), xs.tolist()):
            tau = chi / detuning
            drive = DriveConfig(detuning=detuning, tau=tau, x_max=x,
                                alpha=alpha, beta=beta, envelope=env)
            err = gate_error_mixed(drive, decay, target=target, dt=dt)
            rows.append((angle, chi, tau, x, err, est, err / est))
    return SweepTable(
        name="error-vs-chi",
        columns=("angle", "chi", "tau", "x_max", "error", "estimate", "ratio"),
        rows=tuple(rows), metadata=meta)


def _decay_grid_rows(angle, tau, detunings, gammas, prefactor, env, dt,
                     alpha, beta, enforce_regime):
    """Shared engine for the (detuning, gamma) grids: the calibration and
    the gamma = 0 floor of every detuning in one call each, then one
    master-equation run per point."""
    detunings = np.asarray(detunings, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    if np.any(detunings <= 0.0):
        raise ConfigurationError("detunings must be positive")
    if np.any(gammas < 0.0):
        raise ConfigurationError("gammas must be >= 0")
    if not tau > 0.0:
        raise ConfigurationError("tau must be positive")

    chis = detunings * tau
    for chi in chis:
        _check_regime(chi, enforce_regime)
    xs = solve_xmax(angle, chis, env)
    a2s, a3s, _ = integrate_amplitudes_batch(chis, xs, env)
    per_delta = {}
    for det, x, a2, a3 in zip(detunings.tolist(), xs.tolist(),
                              a2s.tolist(), a3s.tolist()):
        floor = gate_error_pure(a2, a3).error
        drive = DriveConfig(detuning=det, tau=tau, x_max=x,
                            alpha=alpha, beta=beta, envelope=env)
        per_delta[det] = (drive, floor)

    target = RotationSpec.from_angles(angle, alpha, beta)
    points = [(float(det), float(g)) for det in detunings for g in gammas]

    def evaluate(pt):
        det, gamma = pt
        drive, floor = per_delta[det]
        decay = DecayConfig(gamma0=0.5 * gamma, gamma1=0.5 * gamma,
                            prefactor=prefactor)
        err = gate_error_mixed(drive, decay, target=target, dt=dt)
        return det, gamma, err, floor

    return detunings, gammas, [evaluate(pt) for pt in points]


def _decay_grid_metadata(table, angle, tau, detunings, gammas, prefactor,
                         env, dt, alpha, beta):
    return {
        "table": table,
        "tool": _tool_tag(),
        "envelope": "truncated-gaussian",
        "u_b": repr(env.u_b),
        "angle_rad": repr(float(angle)),
        "tau_ns": repr(float(tau)),
        "detunings_inv_ns": _float_list(detunings),
        "gammas_inv_ns": _float_list(gammas),
        "gamma_split": "equal",
        "prefactor": repr(float(prefactor)),
        "alpha_rad": repr(float(alpha)),
        "beta_rad": repr(float(beta)),
        "dt_rule": "0.02/z_max" if dt is None else repr(float(dt)),
        "final_time": "light-off",
    }


def sweep_error_vs_gamma(detunings, gammas, angle, tau, prefactor=0.5,
                         env=None, dt=None, alpha=0.0, beta=math.pi / 4,
                         enforce_regime=True):
    """Error versus total decay rate at fixed tau, one fit per detuning.

    Returns (table, fits) where fits maps each detuning to the
    linear-with-floor fit E = E0 + k*gamma.  The floor E0 comes from the
    independent decay-free computation.
    """
    if env is None:
        env = PulseEnvelope()
    detunings, gammas, results = _decay_grid_rows(
        angle, tau, detunings, gammas, prefactor, env, dt, alpha, beta,
        enforce_regime)

    rows = []
    for det, gamma, err, floor in results:
        estimate = angle * gamma / det
        ratio = err / estimate if estimate > 0.0 else float("nan")
        rows.append((det, gamma, err, floor, estimate, ratio))

    fits = {}
    for det in (float(d) for d in detunings):
        sel = [(g, e) for d, g, e, _ in results if d == det]
        if len(sel) < 2:
            continue  # a one-point sweep has no slope to fit
        floor = next(f for d, _, _, f in results if d == det)
        fits[det] = fit_linear_through_origin(
            [g for g, _ in sel], [e for _, e in sel], floor=floor)

    meta = _decay_grid_metadata("error-vs-gamma", angle, tau, detunings,
                                gammas, prefactor, env, dt, alpha, beta)
    table = SweepTable(
        name="error-vs-gamma",
        columns=("detuning", "gamma", "error", "error_floor", "estimate", "ratio"),
        rows=tuple(rows), metadata=meta)
    return table, fits


def sweep_error_vs_delta(gammas, detunings, angle, tau, prefactor=0.5,
                         env=None, dt=None, alpha=0.0, beta=math.pi / 4,
                         enforce_regime=True):
    """Error versus detuning at fixed tau, one inverse fit per gamma.

    The scaled_excess column holds (E - E0(detuning)) * detuning, which
    is flat when the decay part of the error follows 1/detuning.
    """
    if env is None:
        env = PulseEnvelope()
    detunings, gammas, results = _decay_grid_rows(
        angle, tau, detunings, gammas, prefactor, env, dt, alpha, beta,
        enforce_regime)

    by_gamma = {}
    rows = []
    for det, gamma, err, floor in results:
        estimate = angle * gamma / det
        rows.append((gamma, det, err, floor, estimate, (err - floor) * det))
        by_gamma.setdefault(gamma, []).append((det, err))
    rows.sort(key=lambda r: (r[0], r[1]))

    fits = {}
    for gamma, pts in by_gamma.items():
        if gamma > 0.0 and len(pts) >= 2:
            fits[gamma] = fit_inverse([d for d, _ in pts], [e for _, e in pts])

    meta = _decay_grid_metadata("error-vs-delta", angle, tau, detunings,
                                gammas, prefactor, env, dt, alpha, beta)
    table = SweepTable(
        name="error-vs-delta",
        columns=("gamma", "detuning", "error", "error_floor", "estimate",
                 "scaled_excess"),
        rows=tuple(rows), metadata=meta)
    return table, fits


def ratio_grid(gammas, detunings, angle, tau, prefactor=0.5, env=None,
               dt=None, alpha=0.0, beta=math.pi / 4, enforce_regime=True):
    """Exact error against the analytic estimate over a (gamma, detuning) grid.

    floor_dominated flags rows where the decay-free floor exceeds 10% of
    the estimate, where the ratio stops measuring the decay physics.
    """
    if env is None:
        env = PulseEnvelope()
    gammas_arr = np.asarray(gammas, dtype=float)
    detunings_arr = np.asarray(detunings, dtype=float)
    if np.any(gammas_arr > 0.0):
        _check_percent_level(angle, float(np.max(gammas_arr)),
                             float(np.min(detunings_arr)), enforce_regime)
    detunings_arr, gammas_arr, results = _decay_grid_rows(
        angle, tau, detunings_arr, gammas_arr, prefactor, env, dt, alpha,
        beta, enforce_regime)

    rows = []
    for det, gamma, err, floor in results:
        estimate = angle * gamma / det
        ratio = err / estimate if estimate > 0.0 else float("nan")
        frac = floor / estimate if estimate > 0.0 else float("inf")
        rows.append((gamma, det, err, estimate, ratio, frac,
                     1.0 if frac > 0.1 else 0.0))
    rows.sort(key=lambda r: (r[0], r[1]))

    meta = _decay_grid_metadata("ratio-grid", angle, tau, detunings_arr,
                                gammas_arr, prefactor, env, dt, alpha, beta)
    return SweepTable(
        name="ratio-grid",
        columns=("gamma", "detuning", "error", "estimate", "ratio",
                 "floor_fraction", "floor_dominated"),
        rows=tuple(rows), metadata=meta)


def trace_run(drive, decay=None, rho0=None, dt=None, record_stride=10):
    """Full time series of one propagation; rho0 defaults to |0><0|."""
    if rho0 is None:
        rho0 = density_from_state(qubit_state(0.0, 0.0))
    if decay is None:
        decay = DecayConfig()
    if record_stride < 1:
        raise ConfigurationError("record_stride must be >= 1")
    _, records = propagate_master(rho0, drive, decay, dt=dt,
                                  record_stride=record_stride)
    return records


def records_to_table(records, drive, decay, extra_metadata=None):
    """Pack TraceRecords into a SweepTable for CSV output."""
    meta = {
        "table": "trace",
        "tool": _tool_tag(),
        "envelope": "truncated-gaussian",
        "u_b": repr(drive.envelope.u_b),
        "detuning_inv_ns": repr(drive.detuning),
        "tau_ns": repr(drive.tau),
        "x_max": repr(drive.x_max),
        "alpha_rad": repr(drive.alpha),
        "beta_rad": repr(drive.beta),
        "gamma0_inv_ns": repr(decay.gamma0),
        "gamma1_inv_ns": repr(decay.gamma1),
        "prefactor": repr(decay.prefactor),
        "final_time": "light-off",
    }
    if extra_metadata:
        meta.update(extra_metadata)
    rows = tuple((r.t, r.pop0, r.pop1, r.pop_x, r.purity, r.p1, r.p2, r.p3)
                 for r in records)
    return SweepTable(
        name="trace",
        columns=("t", "pop0", "pop1", "pop_x", "purity", "p1", "p2", "p3"),
        rows=rows, metadata=meta)
