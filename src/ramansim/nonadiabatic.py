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

MAX_PHASE_STEP = 0.1  # rad of S advance per RK4 step
STEPS_PER_UNIT = 2000  # default RK4 steps per unit of u
_CHUNK = 2048  # RK4 steps built and multiplied at a time


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


def _rk4_deviation(z1, z2, z3, z4, h):
    """D = M - I of one RK4 step on (a2, a3), as the quaternion (a, b).

    The generator at each stage is [[0, z], [-z*, 0]], so every stage
    product, step and deviation has the form [[a, b], [-b*, a*]] and is
    held as its first row (a, b) (Hairer, Lubich & Wanner, Geometric
    Numerical Integration, ch. IV).  k1 = (0, z1) and
    k_{i+1} = (0, z_{i+1})(I + c_i h k_i) in closed form.

    Every complex product keeps its temporary operand on the left.  For
    large temporaries numpy evaluates x * tmp in place as tmp *= x, and
    with fused multiply-adds the two operand orders round differently,
    so a batch would no longer equal its points run one at a time.
    """
    h2 = 0.5 * h
    k2a = np.conj(-h2 * z1) * z2
    k3a = np.conj(-h2 * z2) * z3
    k3b = np.conj(1.0 + h2 * k2a) * z3
    k4a = np.conj(-h * k3b) * z4
    k4b = np.conj(1.0 + h * k3a) * z4
    h6 = h / 6.0
    return h6 * (2.0 * (k2a + k3a) + k4a), h6 * (z1 + 2.0 * (z2 + k3b) + k4b)


def _compose(xa, xb, ya, yb):
    # (I + x)(I + y) - I for quaternions x = (xa, xb), y = (ya, yb).  Steps
    # and their products are held as their deviation from I because
    # rounding them on the grid at 1 loses the low digits of D: it drains
    # |a2|^2 + |a3|^2 by about 1e-13 over 12 000 steps.  Temporaries go on
    # the left of complex products (_rk4_deviation)
    return (xa + ya + (xa * ya - np.conj(yb) * xb),
            xb + yb + (xa * yb + np.conj(ya) * xb))


def _chain_product(a, b):
    # (I + d[c-1]) ... (I + d[0]) - I for d = (a, b) by pairwise reduction
    # along axis 0, later steps on the left
    while len(a) > 1:
        if len(a) % 2:
            ta, tb = _compose(a[-1:], b[-1:], a[-2:-1], b[-2:-1])
            a = np.concatenate((a[:-2], ta))
            b = np.concatenate((b[:-2], tb))
        a, b = _compose(a[1::2], b[1::2], a[0::2], b[0::2])
    return a[0], b[0]


def _integrate(chi, x_max, env, steps_per_unit):
    """RK4 over u in [-u_b, u_b] for paired (chi, x_max) points.

    S does not depend on the amplitudes, so its RK4 recurrence (Simpson's
    rule on dS/du) is summed first and each step on the linear pair
    (a2, a3) becomes one matrix I + D, with D a quaternion (a, b)
    (_rk4_deviation).  Only u, f and f' live on the whole grid; p, dS/du
    and S are built _CHUNK steps at a time, S carried across chunks by
    the same sequential sum.  The four stage phase factors of a step come
    from three exponentials, e^{-iS_k} and the half-step advances at the
    step's start and middle.  Each chunk's product is formed pairwise
    and composed into the propagator, itself held as a deviation u from
    I, so a2 = 1 + u_a and a3 = -conj(u_b).
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
    # the largest phase advance per step over the points
    peak = float(np.max(chi * np.sqrt(1.0 + 4.0 * x_max * x_max))) * h
    if peak > MAX_PHASE_STEP:
        raise NumericalError(
            "phase advance %.3f rad per step exceeds %.2f; "
            "increase steps_per_unit" % (peak, MAX_PHASE_STEP))

    # envelope on the half-step grid; per chunk, coupling p and phase rate
    # dS/du get one column per point, and S[k] is the phase at step k
    u = np.linspace(-env.u_b, env.u_b, 2 * n + 1)
    f, fp = (v[:, None] for v in env._value_and_derivative(u))
    q = 4.0 * x_max * x_max
    h2 = 0.5 * h
    S = np.zeros((1, chi.size))
    ua = ub = np.zeros(chi.size, dtype=complex)
    for k0 in range(0, n, _CHUNK):
        k1 = min(k0 + _CHUNK, n)
        fc = f[2 * k0:2 * k1 + 1]
        den = 1.0 + q * fc * fc
        p = x_max * fp[2 * k0:2 * k1 + 1] / den
        s = chi * np.sqrt(den)
        S = np.cumsum(np.concatenate(
            (S[-1:], (h / 6.0) * (s[0:-1:2] + 4.0 * s[1::2] + s[2::2]))),
            axis=0)
        e0 = np.exp(-1j * S[:-1])
        # e^{-i h/2 s} at each step's start (even) and middle (odd)
        half = np.exp((-1j * h2) * s[:-1])
        e0m = e0 * half[1::2]
        pm = p[1::2]
        da, db = _rk4_deviation(p[0:-1:2] * e0, pm * (e0 * half[0::2]),
                                pm * e0m, p[2::2] * (e0m * half[1::2]), h)
        ua, ub = _compose(*_chain_product(da, db), ua, ub)
    return 1.0 + ua, -np.conj(ub), S[-1]


def integrate_amplitudes(chi, x_max, env=None, steps_per_unit=STEPS_PER_UNIT):
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
        RK4 steps per unit of u (default STEPS_PER_UNIT).  A step that
        advances S by more than MAX_PHASE_STEP raises NumericalError.

    Returns
    -------
    AdiabaticAmplitudes
    """
    (a2,), (a3,), (phase,) = _integrate(chi, x_max, env, steps_per_unit)
    return AdiabaticAmplitudes(a2=complex(a2), a3=complex(a3),
                               phase=float(phase))


def integrate_amplitudes_batch(chi, x_max, env=None,
                               steps_per_unit=STEPS_PER_UNIT):
    """integrate_amplitudes over arrays of (chi, x_max) pairs.

    Same grid and recurrence for every point; returns (a2, a3, S) arrays.
    """
    return _integrate(chi, x_max, env, steps_per_unit)


def gate_error_pure(c, d):
    """Worst-case error over initial states from the final amplitudes.

    For initial Phi_2 population p the fidelity is F(p) = |1 + p w|^2 with
    w = c - 1; the phase of the initial amplitude drops out.  The exact
    dynamics is unitary, |1 + w|^2 + |d|^2 = 1, so Re w = -r/2 with
    r = |w|^2 + |d|^2 and 1 - F(p) = p r - p^2 |w|^2.  Its maximum over
    p in [0, 1] is read off |w| and |d| alone, never off 1 - F, which
    cancels for small errors (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 1): E = |d|^2 at p* = 1 when |d|^2 >= |w|^2, as for
    typical leakage-dominated near-adiabatic gates, and otherwise
    E = r^2 / (4 |w|^2) at p* = r / (2 |w|^2).
    """
    norm = abs(c) ** 2 + abs(d) ** 2
    if abs(norm - 1.0) > 1e-8:
        raise ConfigurationError(
            "|c|^2 + |d|^2 = %.12g violates unit norm" % norm)
    w2 = abs(c - 1.0) ** 2
    if w2 == 0.0:
        return GateErrorResult(error=0.0, c=c, d=d, p_star=0.5)
    d2 = abs(d) ** 2
    if d2 >= w2:
        p, err = 1.0, d2
    else:
        r = w2 + d2
        p, err = r / (2.0 * w2), r * r / (4.0 * w2)
    return GateErrorResult(error=min(1.0, err), c=c, d=d, p_star=p)


def nonadiabatic_error(angle, chi, env=None, steps_per_unit=STEPS_PER_UNIT):
    """Gate error at gamma = 0 for a target angle and adiabaticity chi.

    Composes solve_xmax -> integrate_amplitudes -> gate_error_pure.  The
    result is independent of the rotation axis (alpha, beta), which is
    why neither appears in the signature.
    """
    if not angle > 0.0:
        raise ConfigurationError("angle must be positive")
    x = solve_xmax(angle, chi, env)
    amps = integrate_amplitudes(chi, x, env, steps_per_unit=steps_per_unit)
    return gate_error_pure(amps.a2, amps.a3)
