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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .lambda_frame import PulseEnvelope, solve_xmax

MAX_PHASE_STEP = 0.25  # rad: largest |omega| of one Magnus step
STEPS_PER_UNIT = 800  # default Magnus steps per unit of u
_CHUNK = 1024  # Magnus steps built and multiplied at a time
_GAUSS = math.sqrt(3.0) / 6.0  # Gauss nodes at (1/2 -+ _GAUSS) h


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


def _compose(xa, xb, ya, yb):
    # (I + x)(I + y) - I for quaternions x = (xa, xb), y = (ya, yb), each
    # the first row (a, b) of [[a, b], [-b*, a*]].  Steps and products are
    # held as their deviation from I because rounding them on the grid at
    # 1 loses the low digits of a step and drains |a2|^2 + |a3|^2.  Every
    # complex product keeps its temporary operand on the left: for large
    # temporaries numpy evaluates x * tmp in place as tmp *= x, and with
    # fused multiply-adds the two operand orders round differently, so a
    # batch would no longer equal its points run one at a time
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


def _magnus_deviation(w1, w2, w3):
    """exp(i w.sigma) - I as the quaternion (a, b), and |w|.

    exp(i w.sigma) = (cos|w| + i w3 sinc, (w2 + i w1) sinc) with
    sinc = sin|w| / |w|, and cos|w| - 1 = -2 sin^2(|w|/2).
    """
    w = np.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
    sh, ch = np.sin(0.5 * w), np.cos(0.5 * w)
    sinc = 2.0 * sh * ch / w
    da = np.empty(w.shape, dtype=complex)
    db = np.empty(w.shape, dtype=complex)
    da.real, da.imag = -2.0 * sh * sh, w3 * sinc
    db.real, db.imag = w2 * sinc, w1 * sinc
    return da, db, w


def _integrate(chi, x_max, env, steps_per_unit):
    """Magnus-4 over u in [0, s], s = env.support, for (chi, x_max) points.

    In the co-rotating frame b2 = a2 e^{iS/2}, b3 = a3 e^{-iS/2} the pair
    obeys b' = G b with G = [[i nu, p], [-p, -i nu]], nu = S'/2: the pure
    quaternion i g.sigma with g = (0, p, nu), and no phase oscillates.  A
    step of length h is the two-point Gauss Magnus-4 exponent
    w = (h/2)(g_A + g_B) - (sqrt(3)/6) h^2 (g_B x g_A), exponentiated in
    closed form, so every step is exactly unitary (Blanes, Casas, Oteo &
    Ros, Phys. Rep. 470, 151 (2009)).  nu is even and p odd, so
    G(-u) = G(u)^T and the mirrored step is the step's transpose: with U+
    the propagator over [0, s], the one over [-s, s] is U+ U+^T, marched
    _CHUNK steps at a time, each chunk's product formed pairwise and
    composed into U+, held as a deviation from I.  S_on is the same Gauss
    rule's integral of S' on the march's nodes.  Beyond s, f = 0 and each
    tail is the pure phase G = i (chi/2) sigma_z, so a2 = e^{-iS_on/2}
    (1 + U_a), S_f = S_on + 2 chi (u_b - s) and a3 = -e^{iS_f/2} conj(U_b).
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
    n = max(1, int(round(env.support * steps_per_unit)))
    h = env.support / n

    q = 4.0 * x_max * x_max
    h2, h3 = 0.5 * h, _GAUSS * h * h
    ua = ub = np.zeros(chi.size, dtype=complex)
    w3_sum = np.zeros(chi.size)
    for k0 in range(0, n, _CHUNK):
        # envelope at each step's Gauss nodes A and B, interleaved; the
        # coupling p and nu = S'/2 get one column per point
        k = np.arange(k0, min(k0 + _CHUNK, n))[:, None]
        f, fp = (v[:, None] for v in env._value_and_derivative(
            ((k + [0.5 - _GAUSS, 0.5 + _GAUSS]) * h).ravel()))
        den = 1.0 + q * f * f
        p = x_max * fp / den
        nu = (0.5 * chi) * np.sqrt(den)
        pa, pb, na, nb = p[0::2], p[1::2], nu[0::2], nu[1::2]
        w3 = h2 * (na + nb)
        da, db, w = _magnus_deviation(h3 * (pa * nb - pb * na),
                                      h2 * (pa + pb), w3)
        if np.max(w) > MAX_PHASE_STEP:
            raise NumericalError(
                "Magnus step angle %.3f rad exceeds %.2f; increase "
                "steps_per_unit" % (np.max(w), MAX_PHASE_STEP))
        # summed in sequence, so a point's S_f does not depend on the batch
        w3_sum = w3_sum + np.cumsum(w3, axis=0)[-1]
        ua, ub = _compose(*_chain_product(da, db), ua, ub)
    ua, ub = _compose(ua, ub, ua, -np.conj(ub))
    phase = 4.0 * w3_sum  # S_on = 2 int_0^s S' du
    # without drive every step is a pure phase, and a2 = 1 exactly
    a2 = np.where(x_max == 0.0, 1.0, (1.0 + ua) * np.exp(-0.5j * phase))
    phase = phase + 2.0 * chi * (env.u_b - env.support)
    return a2, -np.conj(ub * np.exp(-0.5j * phase)), phase


def integrate_amplitudes(chi, x_max, env=None, steps_per_unit=STEPS_PER_UNIT):
    """Integrate the amplitude system over u in [-u_b, u_b].

    Fixed-step Magnus-4 from a2 = 1, a3 = 0, sufficient by linearity,
    marched over [0, env.support] only (_integrate).  Every step is
    exactly unitary, and S is the same Gauss rule's integral of dS/du.

    Parameters
    ----------
    chi : float
        Adiabaticity parameter Delta*tau > 0.
    x_max : float
        Peak ratio from the calibration.
    env : PulseEnvelope, optional
    steps_per_unit : int
        Magnus steps per unit of u (default STEPS_PER_UNIT), step
        h = s / round(s * steps_per_unit), s = env.support.  A step with
        |omega| above MAX_PHASE_STEP raises NumericalError.

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

    Same grid and steps for every point; returns (a2, a3, S) arrays.
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
