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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .lambda_frame import (PulseEnvelope, hamiltonian, rotation_angle,
                           solve_xmax)

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


def _stage_tables(chi, x_max, env, n_steps):
    # coupling p and phase rate dS/du on the half-step grid
    u = np.linspace(-env.u_b, env.u_b, 2 * n_steps + 1)
    f = env.value(u)
    fp = env.derivative(u)
    den = 1.0 + 4.0 * x_max * x_max * f * f
    p = x_max * fp / den
    s = chi * np.sqrt(den)
    return p, s


def _check_resolution(chi, x_max, h, allow_coarse):
    # chi and x_max may be arrays of paired points; the guard bounds the
    # largest per-point phase advance
    peak = float(np.max(chi * np.sqrt(1.0 + 4.0 * x_max * x_max))) * h
    if peak > MAX_PHASE_STEP and not allow_coarse:
        raise NumericalError(
            "phase advance %.3f rad per step exceeds %.2f; "
            "increase steps_per_unit or pass allow_coarse" % (peak, MAX_PHASE_STEP))


def _validate_amplitude_args(chi, x_max, steps_per_unit):
    if not chi > 0.0:
        raise ConfigurationError("chi must be positive")
    if x_max < 0.0:
        raise ConfigurationError("x_max must be >= 0")
    if int(steps_per_unit) != steps_per_unit or steps_per_unit < 1:
        raise ConfigurationError("steps_per_unit must be a positive integer")


def integrate_amplitudes(chi, x_max, env=None, steps_per_unit=2000,
                         allow_coarse=False):
    """Integrate the amplitude system over u in [-u_b, u_b].

    Fixed-step RK4; the oscillatory phase S is advanced as part of the
    augmented state, never accumulated naively.  Initial condition is
    a2 = 1, a3 = 0, sufficient by linearity.

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
    _validate_amplitude_args(chi, x_max, steps_per_unit)
    if env is None:
        env = PulseEnvelope()
    n = int(round(2.0 * env.u_b * steps_per_unit))
    h = 2.0 * env.u_b / n
    _check_resolution(chi, x_max, h, allow_coarse)

    p, s = _stage_tables(chi, x_max, env, n)
    a2 = 1.0 + 0.0j
    a3 = 0.0 + 0.0j
    S = 0.0
    h2 = 0.5 * h
    h6 = h / 6.0
    for k in range(n):
        i = 2 * k
        p1 = p[i]
        pm = p[i + 1]
        p4 = p[i + 2]
        s1 = s[i]
        sm = s[i + 1]
        s4 = s[i + 2]

        e1 = cmath.exp(-1j * S)
        k1a = p1 * a3 * e1
        k1b = -p1 * a2 * e1.conjugate()

        e2 = cmath.exp(-1j * (S + h2 * s1))
        k2a = pm * (a3 + h2 * k1b) * e2
        k2b = -pm * (a2 + h2 * k1a) * e2.conjugate()

        e3 = cmath.exp(-1j * (S + h2 * sm))
        k3a = pm * (a3 + h2 * k2b) * e3
        k3b = -pm * (a2 + h2 * k2a) * e3.conjugate()

        e4 = cmath.exp(-1j * (S + h * sm))
        k4a = p4 * (a3 + h * k3b) * e4
        k4b = -p4 * (a2 + h * k3a) * e4.conjugate()

        a2 = a2 + h6 * (k1a + 2.0 * (k2a + k3a) + k4a)
        a3 = a3 + h6 * (k1b + 2.0 * (k2b + k3b) + k4b)
        S = S + h6 * (s1 + 4.0 * sm + s4)

    return AdiabaticAmplitudes(a2=a2, a3=a3, phase=S)


def integrate_amplitudes_batch(chi, x_max, env=None, steps_per_unit=2000,
                               allow_coarse=False):
    """Vectorized integrate_amplitudes over arrays of (chi, x_max) pairs.

    Same recurrence as the scalar path, marched for all runs at once;
    returns (a2, a3, S) arrays.  Agreement with the scalar integrator is
    exercised by the test suite.
    """
    chi = np.atleast_1d(np.asarray(chi, dtype=float))
    x_max = np.atleast_1d(np.asarray(x_max, dtype=float))
    chi, x_max = np.broadcast_arrays(chi, x_max)
    if np.any(chi <= 0.0) or np.any(x_max < 0.0):
        raise ConfigurationError("chi must be positive and x_max >= 0")
    if int(steps_per_unit) != steps_per_unit or steps_per_unit < 1:
        raise ConfigurationError("steps_per_unit must be a positive integer")
    if env is None:
        env = PulseEnvelope()
    n = int(round(2.0 * env.u_b * steps_per_unit))
    h = 2.0 * env.u_b / n
    _check_resolution(chi, x_max, h, allow_coarse)

    u = np.linspace(-env.u_b, env.u_b, 2 * n + 1)
    f = env.value(u)[None, :]
    fp = env.derivative(u)[None, :]
    xc = x_max[:, None]
    den = 1.0 + 4.0 * xc * xc * f * f
    p = xc * fp / den
    s = chi[:, None] * np.sqrt(den)

    m = chi.shape[0]
    a2 = np.ones(m, dtype=complex)
    a3 = np.zeros(m, dtype=complex)
    S = np.zeros(m)
    h2 = 0.5 * h
    h6 = h / 6.0
    for k in range(n):
        i = 2 * k
        p1 = p[:, i]
        pm = p[:, i + 1]
        p4 = p[:, i + 2]
        s1 = s[:, i]
        sm = s[:, i + 1]
        s4 = s[:, i + 2]

        e1 = np.exp(-1j * S)
        k1a = p1 * a3 * e1
        k1b = -p1 * a2 * np.conj(e1)

        e2 = np.exp(-1j * (S + h2 * s1))
        k2a = pm * (a3 + h2 * k1b) * e2
        k2b = -pm * (a2 + h2 * k1a) * np.conj(e2)

        e3 = np.exp(-1j * (S + h2 * sm))
        k3a = pm * (a3 + h2 * k2b) * e3
        k3b = -pm * (a2 + h2 * k2a) * np.conj(e3)

        e4 = np.exp(-1j * (S + h * sm))
        k4a = p4 * (a3 + h * k3b) * e4
        k4b = -p4 * (a2 + h * k3a) * np.conj(e4)

        a2 = a2 + h6 * (k1a + 2.0 * (k2a + k3a) + k4a)
        a3 = a3 + h6 * (k1b + 2.0 * (k2b + k3b) + k4b)
        S = S + h6 * (s1 + 4.0 * sm + s4)

    return a2, a3, S


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


def integrate_bare_schrodinger(chi, x_max, alpha=0.0, beta=math.pi / 4,
                               env=None, a1=0.0, a2=1.0,
                               rtol=1e-12, atol=1e-14):
    """Cross-check path: direct Schrodinger integration in the bare basis.

    Integrates d psi/du = -i chi Htilde(u) psi with an adaptive high-order
    scheme, starting from a1 Phi_1 + a2 Phi_2 at u_i, then projects the
    final state back onto the instantaneous eigenbasis and strips the
    dynamical phases theta_2 = -Lambda and theta_3 = 2 u_b chi + Lambda.

    Returns the projected (a1, a2, a3) at u_f for comparison with
    integrate_amplitudes; completely independent code path.
    """
    from scipy.integrate import solve_ivp

    if env is None:
        env = PulseEnvelope()
    if abs(abs(a1) ** 2 + abs(a2) ** 2 - 1.0) > 1e-8:
        raise ConfigurationError("initial amplitudes must have unit norm")

    ea = cmath.exp(1j * alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    coupling = hamiltonian(cb, sb, 0.0, alpha)
    bare = hamiltonian(0.0, 0.0, 1.0)

    def rhs(u, y):
        psi = y[:3] + 1j * y[3:]
        hm = bare + x_max * env.value(u) * coupling
        d = -1j * chi * (hm @ psi)
        return np.concatenate([d.real, d.imag])

    # drive is exactly off at the endpoints, so phi(u_i) = phi(u_f) = 0
    phi1 = np.array([-ea * sb, cb, 0.0])
    phi2 = np.array([-ea * cb, -sb, 0.0])
    phi3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    psi0 = a1 * phi1 + a2 * phi2

    sol = solve_ivp(rhs, (-env.u_b, env.u_b),
                    np.concatenate([psi0.real, psi0.imag]),
                    method="DOP853", rtol=rtol, atol=atol, dense_output=False)
    if not sol.success:
        raise NumericalError("bare-basis integration failed: %s" % sol.message)
    psi = sol.y[:3, -1] + 1j * sol.y[3:, -1]

    lam = rotation_angle(chi, x_max, env)
    theta3 = 2.0 * env.u_b * chi + lam
    out1 = np.vdot(phi1, psi)
    out2 = np.vdot(phi2, psi) * cmath.exp(-1j * lam)
    out3 = np.vdot(phi3, psi) * cmath.exp(1j * theta3)
    return complex(out1), complex(out2), complex(out3)
