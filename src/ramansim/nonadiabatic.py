"""Non-adiabatic gate error from the exact amplitude equations.

In the adiabatic expansion psi = sum_k a_k Phi_k exp(-i theta_k) with
theta_k(u) = int tau*lambda_k dv, the amplitude of the dark-like state a_1
is constant and the remaining pair obeys, in dimensionless time u = t/tau,

    da2/du = +p(u) a3 exp(-i S),
    da3/du = -p(u) a2 exp(+i S),
    dS/du  = chi sqrt(1 + 4 x_max^2 f(u)^2),

where p = x_max f'(u) / (1 + 4 x_max^2 f(u)^2) is the mixing-angle rate
and S = theta_3 - theta_2 is the accumulated phase gap.  Everything the
gate does wrong at gamma = 0 is encoded in the final (a2, a3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .lambda_frame import PulseEnvelope, solve_xmax
from .lindblad import _CHUNK, _rk4_deltas

MAX_PHASE_STEP = 0.1  # rad of S advance per RK4 step


@dataclass(frozen=True)
class AdiabaticAmplitudes:
    """Final amplitudes (a2, a3) and accumulated phase gap S at u_f."""

    a2: complex
    a3: complex
    phase: float


@dataclass(frozen=True)
class GateErrorResult:
    """Worst-case gate error with its ingredients.

    c is the transfer amplitude a2(u_f), d the leakage a3(u_f) and
    p_star the initial Phi_2 population achieving the maximum error.
    """

    error: float
    c: complex
    d: complex
    p_star: float


def _check_resolution(chi, x_max, h, allow_coarse):
    # chi and x_max may be arrays of paired points; the guard bounds the
    # largest per-point phase advance
    peak = float(np.max(chi * np.sqrt(1.0 + 4.0 * x_max * x_max))) * h
    if peak > MAX_PHASE_STEP and not allow_coarse:
        raise NumericalError(
            "phase advance %.3f rad per step exceeds %.2f; "
            "increase steps_per_unit or pass allow_coarse" % (peak, MAX_PHASE_STEP))


def _stage_matrices(p, phase):
    # generator [[0, p e^{-iS}], [-p e^{+iS}, 0]] of (a2, a3) at one stage
    e = np.exp(-1j * phase)
    a = np.zeros(p.shape + (2, 2), dtype=complex)
    a[..., 0, 1] = p * e
    a[..., 1, 0] = -p * np.conj(e)
    return a


def _matmul2(a, b):
    # a @ b for stacks of 2x2 matrices, written out: np.matmul spends about
    # 0.4 us on each matrix this small
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def _compose(a, b):
    # (I + a)(I + b) - I.  Products of near-identity steps are held as their
    # deviation from I because rounding them on the grid at 1 errs with one
    # sign and drains |a2|^2 + |a3|^2 by about 1e-13 over 12 000 steps
    return a + b + _matmul2(a, b)


def _chain_product(deltas):
    # (I + d[c-1]) ... (I + d[0]) - I by pairwise reduction along axis 0,
    # later steps on the left
    while len(deltas) > 1:
        if len(deltas) % 2:
            deltas[-2] = _compose(deltas[-1], deltas[-2])
            deltas = deltas[:-1]
        deltas = _compose(deltas[1::2], deltas[0::2])
    return deltas[0]


def _integrate(chi, x_max, env, steps_per_unit, allow_coarse):
    """RK4 over u in [-u_b, u_b] for paired (chi, x_max) points.

    S does not depend on the amplitudes, so its RK4 recurrence (Simpson's
    rule on dS/du) is summed up front and each step on the linear pair
    (a2, a3) becomes one 2x2 matrix I + D.  The D are built _CHUNK steps
    at a time, each chunk's product is formed pairwise and applied to the
    state, so memory stays flat in the number of steps.
    """
    chi = np.atleast_1d(np.asarray(chi, dtype=float))
    x_max = np.atleast_1d(np.asarray(x_max, dtype=float))
    chi, x_max = np.broadcast_arrays(chi, x_max)
    if not np.all(chi > 0.0):
        raise ConfigurationError("chi must be positive")
    if not np.all(x_max >= 0.0):
        raise ConfigurationError("x_max must be >= 0")
    if int(steps_per_unit) != steps_per_unit or steps_per_unit < 1:
        raise ConfigurationError("steps_per_unit must be a positive integer")
    if env is None:
        env = PulseEnvelope()
    n = int(round(2.0 * env.u_b * steps_per_unit))
    h = 2.0 * env.u_b / n
    _check_resolution(chi, x_max, h, allow_coarse)

    # coupling p and phase rate dS/du on the half-step grid, one column
    # per point; S[k] is the phase at the start of step k
    u = np.linspace(-env.u_b, env.u_b, 2 * n + 1)
    f = env.value(u)[:, None]
    fp = env.derivative(u)[:, None]
    den = 1.0 + 4.0 * x_max * x_max * f * f
    p = x_max * fp / den
    s = chi * np.sqrt(den)
    S = np.zeros((n + 1, chi.size))
    np.cumsum((h / 6.0) * (s[0:-1:2] + 4.0 * s[1::2] + s[2::2]), axis=0,
              out=S[1:])

    y = np.zeros((chi.size, 2, 1), dtype=complex)
    y[:, 0] = 1.0
    h2 = 0.5 * h
    for k0 in range(0, n, _CHUNK):
        k1 = min(k0 + _CHUNK, n)
        pc = p[2 * k0:2 * k1 + 1]
        sc = s[2 * k0:2 * k1 + 1]
        s0 = S[k0:k1]
        pm, sm = pc[1::2], sc[1::2]
        deltas = _rk4_deltas(_stage_matrices(pc[0:-1:2], s0),
                             _stage_matrices(pm, s0 + h2 * sc[0:-1:2]),
                             _stage_matrices(pm, s0 + h2 * sm),
                             _stage_matrices(pc[2::2], s0 + h * sm),
                             h, _matmul2)
        y = y + _matmul2(_chain_product(deltas), y)
    return y[:, 0, 0], y[:, 1, 0], S[n]


def integrate_amplitudes(chi, x_max, env=None, steps_per_unit=2000,
                         allow_coarse=False):
    """Integrate the amplitude system over u in [-u_b, u_b].

    Fixed-step RK4 from a2 = 1, a3 = 0, sufficient by linearity.  The
    oscillatory phase S is advanced by the RK4 recurrence of its own
    equation, never accumulated naively.

    Parameters
    ----------
    chi : float
        Adiabaticity parameter Delta*tau > 0.
    x_max : float
        Peak ratio from the calibration.
    env : PulseEnvelope, optional
    steps_per_unit : int
        RK4 steps per unit of u (default 2000).
    allow_coarse : bool
        Override the resolution guard on the phase advance per step.

    Returns
    -------
    AdiabaticAmplitudes
    """
    (a2,), (a3,), (phase,) = _integrate(chi, x_max, env, steps_per_unit,
                                        allow_coarse)
    return AdiabaticAmplitudes(a2=complex(a2), a3=complex(a3),
                               phase=float(phase))


def integrate_amplitudes_batch(chi, x_max, env=None, steps_per_unit=2000,
                               allow_coarse=False):
    """integrate_amplitudes over arrays of (chi, x_max) pairs.

    Same grid and recurrence for every point; returns (a2, a3, S) arrays.
    """
    return _integrate(chi, x_max, env, steps_per_unit, allow_coarse)


def gate_error_pure(c, d):
    """Worst-case error over initial states from the final amplitudes.

    For initial Phi_2 population p the fidelity is F(p) = |1 + p(c-1)|^2,
    a quadratic in p minimized in closed form; the phase of the initial
    amplitude drops out.  Typical near-adiabatic gates are leakage
    dominated and clamp at p* = 1 where E = 1 - |c|^2.
    """
    norm = abs(c) ** 2 + abs(d) ** 2
    if abs(norm - 1.0) > 1e-8:
        raise ConfigurationError(
            "|c|^2 + |d|^2 = %.12g violates unit norm" % norm)
    w = c - 1.0
    w2 = abs(w) ** 2
    if w2 == 0.0:
        return GateErrorResult(error=0.0, c=c, d=d, p_star=0.5)
    p = min(1.0, max(0.0, -w.real / w2))
    fid = abs(1.0 + p * w) ** 2
    err = min(1.0, max(0.0, 1.0 - fid))
    return GateErrorResult(error=err, c=c, d=d, p_star=p)


def nonadiabatic_error(angle, chi, env=None, steps_per_unit=2000):
    """Gate error at gamma = 0 for a target angle and adiabaticity chi.

    Composes solve_xmax -> integrate_amplitudes -> gate_error_pure.  The
    result is independent of the rotation axis (alpha, beta), which is
    why neither appears in the signature.
    """
    if not angle > 0.0:
        raise ConfigurationError("angle must be positive")
    if env is None:
        env = PulseEnvelope()
    x = solve_xmax(angle, chi, env)
    amps = integrate_amplitudes(chi, x, env, steps_per_unit=steps_per_unit)
    return gate_error_pure(amps.a2, amps.a3)
