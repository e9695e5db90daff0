"""Parameter sweeps producing deterministic, re-runnable data tables.

Every operation returns a SweepTable whose metadata records the complete
input set, so any table can be regenerated bit-identically.

Decay sweeps take the total rate gamma = gamma0 + gamma1 as the swept
variable and split it equally between the two channels.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .lambda_frame import (DEFAULT_BETA, PulseEnvelope, _check_axis,
                           solve_xmax)
from .lindblad import (WORST_CASE_DT_Z_LIMIT, DecayConfig, _open_gates,
                       density_from_state, estimate_spontaneous_error,
                       propagate_master, qubit_state)
from .nonadiabatic import STEPS_PER_UNIT, _calibrated_gates

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


def _r_squared(y, pred):
    """R^2 of pred against the variance of y, clipped to [0, 1]."""
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return min(1.0, max(0.0, r2))


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
    return FitResult(model="linear-through-origin", coefficient=k,
                     r_squared=_r_squared(y, pred),
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
    rel = np.max(np.abs(y - pred) / np.maximum(np.abs(y), 1e-300))
    return FitResult(model="inverse", coefficient=c,
                     r_squared=_r_squared(y, pred),
                     residual_max=float(rel))


def _out_of_regime(msg, enforce):
    """Raise on input outside the working range, or warn if not enforced."""
    if enforce:
        raise ConfigurationError(msg + "; pass enforce_regime=False to override")
    warnings.warn(msg)


def _metadata(table, env, **fields):
    """The header every table's metadata opens with, then its own fields."""
    from . import __version__
    return {"table": table, "tool": "ramansim " + __version__,
            "envelope": "truncated-gaussian", "u_b": repr(env.u_b), **fields}


def _float_list(values):
    return ",".join(repr(float(v)) for v in values)


def _dt_rule(dt):
    # the master-equation step of a decay table's gate_error_mixed calls
    if dt is None:
        return "%r/z_max" % WORST_CASE_DT_Z_LIMIT
    return repr(float(dt))


def sweep_xmax_vs_chi(angle, chi_values, env=None):
    """Calibrated peak ratio x_max for each chi at a fixed angle."""
    if env is None:
        env = PulseEnvelope()
    chi_values = np.asarray(chi_values, dtype=float)
    if chi_values.size == 0 or np.any(np.diff(chi_values) <= 0.0):
        raise ConfigurationError("chi_values must be positive and increasing")
    rows = tuple((float(c), float(x))
                 for c, x in zip(chi_values, solve_xmax(angle, chi_values, env)))
    meta = _metadata("xmax-vs-chi", env, angle_rad=repr(float(angle)),
                     chi_values=_float_list(chi_values))
    return SweepTable(name="xmax-vs-chi", columns=("chi", "x_max"),
                      rows=rows, metadata=meta)


def sweep_error_vs_chi(angles, chi_values, decay=None, detuning=None,
                       env=None, steps_per_unit=STEPS_PER_UNIT, dt=None,
                       alpha=0.0, beta=DEFAULT_BETA):
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
    if angles.size == 0 or chi_values.size == 0:
        raise ConfigurationError("need at least one angle and one chi value")
    if np.any(chi_values <= 0.0):
        raise ConfigurationError("chi values must be positive")
    _check_axis(alpha, beta)

    has_decay = decay is not None and decay.total > 0.0
    meta = _metadata("error-vs-chi", env, angle_rad=_float_list(angles),
                     chi_values=_float_list(chi_values))

    if not has_decay:
        if detuning is not None:
            raise ConfigurationError("a detuning applies only with decay")
        meta["steps_per_unit"] = str(steps_per_unit)
        rows = []
        for angle in angles:
            xs, results = _calibrated_gates(angle, chi_values, env,
                                            steps_per_unit)
            for c, x, res in zip(chi_values, xs, results):
                rows.append((float(angle), float(c), float(x), res.error,
                             abs(res.c), abs(res.d), res.p_star))
        return SweepTable(
            name="error-vs-chi",
            columns=("angle", "chi", "x_max", "error", "abs_c", "abs_d", "p_star"),
            rows=tuple(rows), metadata=meta)

    if detuning is None or not detuning > 0.0:
        raise ConfigurationError("decay sweeps need a positive detuning")
    meta.update(
        detuning_inv_ns=repr(float(detuning)),
        gamma0_inv_ns=repr(decay.gamma0), gamma1_inv_ns=repr(decay.gamma1),
        prefactor=repr(decay.prefactor), alpha_rad=repr(float(alpha)),
        beta_rad=repr(float(beta)), dt_rule=_dt_rule(dt),
        final_time="light-off")

    rows = []
    taus = chi_values / detuning
    for angle in angles.tolist():
        xs = solve_xmax(angle, chi_values, env)
        gates = _open_gates(angle, detuning, taus, xs, [decay], env, dt,
                            alpha, beta)
        # each gate's (error, estimate, ratio) closes its row
        rows += [(angle, chi, tau, x, *gate[:3]) for chi, tau, x, gate in zip(
            chi_values.tolist(), taus.tolist(), xs.tolist(), gates)]
    return SweepTable(
        name="error-vs-chi",
        columns=("angle", "chi", "tau", "x_max", "error", "estimate", "ratio"),
        rows=tuple(rows), metadata=meta)


def _decay_grid(table, columns, angle, tau, detunings, gammas, prefactor,
                env, dt, alpha, beta, enforce_regime, estimate_max=math.inf):
    """Shared engine of the (detuning, gamma) tables.

    Validates, guards the largest estimate against estimate_max and each
    chi against CHI_REGIME_MIN, calibrates every detuning and reads its
    gamma = 0 floor in one _calibrated_gates call, then runs every point
    in one _open_gates call, detunings outer and gammas inner.  Returns
    the table of the named columns with rows in evaluation order.
    """
    if env is None:
        env = PulseEnvelope()
    detunings = np.asarray(detunings, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    if detunings.size == 0 or gammas.size == 0:
        raise ConfigurationError("need at least one detuning and one gamma")
    if np.any(detunings <= 0.0):
        raise ConfigurationError("detunings must be positive")
    if not np.all(np.isfinite(gammas) & (gammas >= 0.0)):
        raise ConfigurationError("gammas must be >= 0 and finite")
    if not tau > 0.0:
        raise ConfigurationError("tau must be positive")
    # built before any work, so a bad prefactor fails first
    decays = [DecayConfig(g / 2, g / 2, prefactor) for g in gammas.tolist()]

    worst = estimate_spontaneous_error(angle, gammas.max(), detunings.min())
    if worst > estimate_max + 1e-12:
        _out_of_regime("estimated error %.3g beyond the percent-level "
                       "regime (<= %g)" % (worst, estimate_max),
                       enforce_regime)
    chis = detunings * tau
    for chi in chis:
        if chi < CHI_REGIME_MIN - 1e-9:
            _out_of_regime("chi = %.6g below the adiabatic working range "
                           "(>= %g)" % (chi, CHI_REGIME_MIN), enforce_regime)
    xs, floors = _calibrated_gates(angle, chis, env)
    gates = _open_gates(angle, detunings, tau, xs, decays, env, dt, alpha,
                        beta)
    rows = []
    for ((det, res), gamma), (err, est, ratio, _) in zip(
            itertools.product(zip(detunings.tolist(), floors),
                              gammas.tolist()), gates):
        floor = res.error
        frac = floor / est if est > 0.0 else math.inf
        cells = {"detuning": det, "gamma": gamma, "error": err,
                 "error_floor": floor, "estimate": est, "ratio": ratio,
                 "scaled_excess": (err - floor) * det, "floor_fraction": frac,
                 "floor_dominated": 1.0 if frac > 0.1 else 0.0}
        rows.append(tuple(cells[c] for c in columns))

    meta = _metadata(
        table, env, angle_rad=repr(float(angle)), tau_ns=repr(float(tau)),
        detunings_inv_ns=_float_list(detunings),
        gammas_inv_ns=_float_list(gammas), gamma_split="equal",
        prefactor=repr(float(prefactor)), alpha_rad=repr(float(alpha)),
        beta_rad=repr(float(beta)), dt_rule=_dt_rule(dt),
        final_time="light-off")
    return SweepTable(name=table, columns=columns, rows=tuple(rows),
                      metadata=meta)


def _by_first_column(rows):
    """Rows grouped by their first cell, each group in evaluation order."""
    groups = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row)
    return groups


def _sorted_rows(table):
    """The table with its rows sorted by gamma, then detuning."""
    return replace(table, rows=tuple(sorted(
        table.rows, key=lambda r: (r[0], r[1]))))


def sweep_error_vs_gamma(detunings, gammas, angle, tau, prefactor=0.5,
                         env=None, dt=None, alpha=0.0, beta=DEFAULT_BETA,
                         enforce_regime=True):
    """Error versus total decay rate at fixed tau, one fit per detuning.

    Returns (table, fits) where fits maps each detuning to the
    linear-with-floor fit E = E0 + k*gamma.  The floor E0 comes from the
    independent decay-free computation.
    """
    table = _decay_grid(
        "error-vs-gamma",
        ("detuning", "gamma", "error", "error_floor", "estimate", "ratio"),
        angle, tau, detunings, gammas, prefactor, env, dt, alpha, beta,
        enforce_regime)
    # a one-point sweep has no slope to fit
    fits = {det: fit_linear_through_origin([r[1] for r in pts],
                                           [r[2] for r in pts],
                                           floor=pts[0][3])
            for det, pts in _by_first_column(table.rows).items()
            if len(pts) >= 2}
    return table, fits


def sweep_error_vs_delta(gammas, detunings, angle, tau, prefactor=0.5,
                         env=None, dt=None, alpha=0.0, beta=DEFAULT_BETA,
                         enforce_regime=True):
    """Error versus detuning at fixed tau, one inverse fit per gamma.

    The scaled_excess column holds (E - E0(detuning)) * detuning, which
    is flat when the decay part of the error follows 1/detuning.
    """
    table = _decay_grid(
        "error-vs-delta",
        ("gamma", "detuning", "error", "error_floor", "estimate",
         "scaled_excess"),
        angle, tau, detunings, gammas, prefactor, env, dt, alpha, beta,
        enforce_regime)
    fits = {gamma: fit_inverse([r[1] for r in pts], [r[2] for r in pts])
            for gamma, pts in _by_first_column(table.rows).items()
            if gamma > 0.0 and len(pts) >= 2}
    return _sorted_rows(table), fits


def ratio_grid(gammas, detunings, angle, tau, prefactor=0.5, env=None,
               dt=None, alpha=0.0, beta=DEFAULT_BETA, enforce_regime=True):
    """Exact error against the analytic estimate over a (gamma, detuning) grid.

    floor_dominated flags rows where the decay-free floor exceeds 10% of
    the estimate, where the ratio stops measuring the decay physics.
    """
    return _sorted_rows(_decay_grid(
        "ratio-grid",
        ("gamma", "detuning", "error", "estimate", "ratio", "floor_fraction",
         "floor_dominated"),
        angle, tau, detunings, gammas, prefactor, env, dt, alpha, beta,
        enforce_regime, estimate_max=ESTIMATE_REGIME_MAX))


def trace_run(drive, decay=None, rho0=None, dt=None, record_stride=10):
    """Full time series of one propagation; rho0 defaults to |0><0|."""
    if rho0 is None:
        rho0 = density_from_state(qubit_state(0.0, 0.0))
    if record_stride < 1:
        raise ConfigurationError("record_stride must be >= 1")
    _, records = propagate_master(rho0, drive, decay, dt=dt,
                                  record_stride=record_stride)
    return records


def records_to_table(records, drive, decay, extra_metadata=None):
    """Pack TraceRecords into a SweepTable for CSV output."""
    meta = _metadata(
        "trace", drive.envelope, detuning_inv_ns=repr(drive.detuning),
        tau_ns=repr(drive.tau), x_max=repr(drive.x_max),
        alpha_rad=repr(drive.alpha), beta_rad=repr(drive.beta),
        gamma0_inv_ns=repr(decay.gamma0), gamma1_inv_ns=repr(decay.gamma1),
        prefactor=repr(decay.prefactor), final_time="light-off")
    if extra_metadata:
        meta.update(extra_metadata)
    rows = tuple((r.t, r.pop0, r.pop1, r.pop_x, r.purity, r.p1, r.p2, r.p3)
                 for r in records)
    return SweepTable(
        name="trace",
        columns=("t", "pop0", "pop1", "pop_x", "purity", "p1", "p2", "p3"),
        rows=rows, metadata=meta)
