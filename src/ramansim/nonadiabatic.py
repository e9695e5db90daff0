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
_CHUNK = 4096  # Magnus steps multiplied in one pairwise tree
_GROUP = 16  # points marched at a time, so memory does not grow with a batch
_GAUSS = math.sqrt(3.0) / 6.0  # Gauss nodes at (1/2 -+ _GAUSS) h
# Taylor coefficients in r = |w|^2 of (cos|w| - 1) / r and sin|w| / |w|, a
# pair per row; up to MAX_PHASE_STEP the terms left out are below 1e-20
_TAYLOR = np.array([[-(-1) ** k / math.factorial(2 * k + 2),
                     (-1) ** k / math.factorial(2 * k + 1)] for k in range(7)])


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
    # (I + d[..., c-1]) ... (I + d[..., 0]) - I for d = (a, b) by pairwise
    # reduction along the last axis, later steps on the left
    while a.shape[-1] > 1:
        if a.shape[-1] % 2:
            ta, tb = _compose(a[..., -1:], b[..., -1:],
                              a[..., -2:-1], b[..., -2:-1])
            a = np.concatenate((a[..., :-2], ta), axis=-1)
            b = np.concatenate((b[..., :-2], tb), axis=-1)
        a, b = _compose(a[..., 1::2], b[..., 1::2],
                        a[..., 0::2], b[..., 0::2])
    return a[..., 0], b[..., 0]


def _magnus_deviation(w1, w2, w3):
    """exp(i w.sigma) - I as the quaternion (a, b), and |w|.

    exp(i w.sigma) = (cos|w| + i w3 sinc, (w2 + i w1) sinc) with
    sinc = sin|w| / |w|.  cos|w| - 1 and sinc are Horner polynomials in
    r = |w|^2 (_TAYLOR), valid for |w| <= MAX_PHASE_STEP.
    """
    r = w1 * w1 + w2 * w2 + w3 * w3
    c = _TAYLOR.reshape(_TAYLOR.shape + (1,) * r.ndim)
    t = c[-1] * r
    for ck in c[-2:0:-1]:
        t += ck
        t *= r
    t += c[0]
    d = np.empty((2,) + r.shape, dtype=complex)
    np.multiply(r, t[0], out=d[0].real)
    np.multiply(w3, t[1], out=d[0].imag)
    np.multiply(w2, t[1], out=d[1].real)
    np.multiply(w1, t[1], out=d[1].imag)
    return d[0], d[1], np.sqrt(r)


def _march(chi, x_max, ff, fp, h):
    # U+ - I as (ua, ub) and the sum of w3 for a group of points given as
    # columns, with f^2 and f' at the nodes A and B as rows; a function of
    # its own, so that a group's arrays are freed before the next group's
    q = 4.0 * x_max * x_max
    h2, h3 = 0.5 * h, _GAUSS * h * h
    for k0 in range(0, ff.shape[-1], _CHUNK):
        # p and nu = S'/2 at A and B, (2, points, steps), built in place
        den = q * ff[..., k0:k0 + _CHUNK]
        den += 1.0
        p = x_max * fp[..., k0:k0 + _CHUNK]
        p /= den
        nu = np.sqrt(den, out=den)
        nu *= 0.5 * chi
        (pa, pb), (na, nb) = p, nu
        w3 = h2 * (na + nb)
        da, db, w = _magnus_deviation(h3 * (pa * nb - pb * na),
                                      h2 * (pa + pb), w3)
        if not np.all(w <= MAX_PHASE_STEP):
            raise NumericalError(
                "Magnus step angle %.3f rad exceeds %.2f; increase "
                "steps_per_unit" % (np.max(w), MAX_PHASE_STEP))
        # summed in sequence, so a point's S_f does not depend on the
        # batch; copied out, so that the cumulative sums can be freed
        s = np.cumsum(w3, axis=-1)[:, -1].copy()
        pa, pb = _chain_product(da, db)
        ua, ub = _compose(pa, pb, ua, ub) if k0 else (pa, pb)
        w3_sum = w3_sum + s if k0 else s
    return ua, ub, w3_sum


def integrate_amplitudes_batch(chi, x_max, env=None,
                               steps_per_unit=STEPS_PER_UNIT):
    """Integrate the amplitude system over u in [-u_b, u_b] for many points.

    chi and x_max broadcast against each other; returns flat (a2, a3, S)
    arrays, one entry per point, all marched on the same grid.  Fixed-step
    Magnus-4 from a2 = 1, a3 = 0, sufficient by linearity, over
    u in [0, s] only, s = env.support, with h = s / round(s *
    steps_per_unit).  A step with |omega| above MAX_PHASE_STEP raises
    NumericalError; an empty batch, a chi not positive and finite or an
    x_max not >= 0 and finite raises ConfigurationError.

    In the co-rotating frame b2 = a2 e^{iS/2}, b3 = a3 e^{-iS/2} the pair
    obeys b' = G b with G = [[i nu, p], [-p, -i nu]], nu = S'/2: the pure
    quaternion i g.sigma with g = (0, p, nu), and no phase oscillates.  A
    step of length h is the two-point Gauss Magnus-4 exponent
    w = (h/2)(g_A + g_B) - (sqrt(3)/6) h^2 (g_B x g_A), exponentiated in
    closed form, so every step is exactly unitary (Blanes, Casas, Oteo &
    Ros, Phys. Rep. 470, 151 (2009)).  nu is even and p odd, so
    G(-u) = G(u)^T and the mirrored step is the step's transpose: with U+
    the propagator over [0, s], the one over [-s, s] is U+ U+^T, one
    pairwise product per _CHUNK steps for each _GROUP points (_march).
    S_on is the same Gauss rule's integral of S' on the march's nodes.
    Beyond s, f = 0 and each tail is the pure phase G = i (chi/2) sigma_z,
    so a2 = e^{-iS_on/2} (1 + U_a), S_f = S_on + 2 chi (u_b - s) and
    a3 = -e^{iS_f/2} conj(U_b).
    """
    chi, x_max = (v.ravel() for v in np.broadcast_arrays(
        np.asarray(chi, dtype=float), np.asarray(x_max, dtype=float)))
    if chi.size == 0:
        raise ConfigurationError("no (chi, x_max) points given")
    if not np.all(np.isfinite(chi) & (chi > 0.0)):
        raise ConfigurationError("chi must be positive and finite")
    if not np.all(np.isfinite(x_max) & (x_max >= 0.0)):
        raise ConfigurationError("x_max must be >= 0 and finite")
    if int(steps_per_unit) != steps_per_unit or steps_per_unit < 1:
        raise ConfigurationError("steps_per_unit must be a positive integer")
    if env is None:
        env = PulseEnvelope()
    n = max(1, int(round(env.support * steps_per_unit)))
    h = env.support / n

    # f^2 and f' at each step's Gauss nodes A and B, one row each
    f, fp = env._value_and_derivative(
        (np.arange(n) + [[0.5 - _GAUSS], [0.5 + _GAUSS]]) * h)
    ff, fp = (f * f)[:, None], fp[:, None]
    march = [_march(chi[g:g + _GROUP, None], x_max[g:g + _GROUP, None],
                    ff, fp, h) for g in range(0, chi.size, _GROUP)]
    ua, ub, w3_sum = (np.concatenate(v) for v in zip(*march))
    ua, ub = _compose(ua, ub, ua, -np.conj(ub))
    phase = 4.0 * w3_sum  # S_on = 2 int_0^s S' du
    # without drive every step is a pure phase, and a2 = 1 exactly
    a2 = np.where(x_max == 0.0, 1.0, (1.0 + ua) * np.exp(-0.5j * phase))
    phase = phase + 2.0 * chi * (env.u_b - env.support)
    return a2, -np.conj(np.exp(-0.5j * phase) * ub), phase


def integrate_amplitudes(chi, x_max, env=None, steps_per_unit=STEPS_PER_UNIT):
    """integrate_amplitudes_batch for one (chi, x_max) point.

    Returns
    -------
    AdiabaticAmplitudes
    """
    (a2,), (a3,), (phase,) = integrate_amplitudes_batch(
        chi, x_max, env, steps_per_unit)
    return AdiabaticAmplitudes(a2=complex(a2), a3=complex(a3),
                               phase=float(phase))


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


def _calibrated_gates(angle, chi, env=None, steps_per_unit=STEPS_PER_UNIT):
    """x_max and the gamma = 0 GateErrorResult for each chi at one angle.

    The one composition solve_xmax -> integrate_amplitudes_batch ->
    gate_error_pure: one calibration and one march for all of chi (a
    sequence).  Returns the x_max array and a list of results.
    """
    xs = solve_xmax(angle, chi, env)
    a2, a3, _ = integrate_amplitudes_batch(chi, xs, env,
                                           steps_per_unit=steps_per_unit)
    return xs, [gate_error_pure(c, d)
                for c, d in zip(a2.tolist(), a3.tolist())]


def nonadiabatic_error(angle, chi, env=None, steps_per_unit=STEPS_PER_UNIT):
    """Gate error at gamma = 0 for a target angle and adiabaticity chi.

    One point of _calibrated_gates.  The result is independent of the
    rotation axis (alpha, beta), which is why neither appears in the
    signature.
    """
    if not angle > 0.0:
        raise ConfigurationError("angle must be positive")
    _, (res,) = _calibrated_gates(angle, [chi], env, steps_per_unit)
    return res
