"""Lambda-system frame: pulse envelope, adiabatic eigensystem, rotation calibration.

Conventions used throughout the package:

* basis ordering is (|0>, |1>, |X>) with the qubit states first,
* hbar = 1, so every energy is an angular frequency in ns^-1,
* the drive is parameterized by the detuning Delta, the pulse halfwidth tau,
  the peak ratio x_max = max Omega / Delta, the relative laser phase alpha
  and the constant mixing angle beta with Omega_1 = Omega cos(beta),
  Omega_2 = Omega sin(beta).

The dimensionless time is u = t / tau and the pulse lives on u in
[-u_b, u_b].  chi = Delta * tau is the adiabaticity parameter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError

_LN2 = math.log(2.0)

# 1 meV / hbar expressed in ns^-1.  The rounded value keeps chi = Delta*tau
# at round numbers for meV-scale detunings and picosecond pulses; the
# second constant is the physical conversion.
MEV_TO_INV_NS_ROUNDED = 1500.0
MEV_TO_INV_NS_PHYSICAL = 1519.3

# default mixing angle: Omega_1 = Omega_2, rotation axis in the xy-plane
DEFAULT_BETA = math.pi / 4

# Gauss-Legendre nodes per panel and the widest panel on the even half
# [0, u_b] of the pulse, the relative gap allowed between the rule and one
# on panels half as wide, and the Newton iteration cap and stopping step
# (in ulp of x) for solve_xmax
_GL_NODES = 32
_PANEL_WIDTH = 3.0
_RULE_RTOL = 1e-10
_NEWTON_MAX_ITER = 50
_NEWTON_ULPS = 4.0
_DOMAIN_ULPS = 4  # ulp past u_b that t / tau can round to at t = u_b tau


@dataclass(frozen=True)
class PhysicalUnits:
    """Energy unit conversion; energies are stored as angular frequencies."""

    mev_to_inv_ns: float = MEV_TO_INV_NS_ROUNDED

    def __post_init__(self):
        if not self.mev_to_inv_ns > 0.0:
            raise ConfigurationError("mev_to_inv_ns must be positive")

    def energy_to_rate(self, mev):
        """meV -> angular frequency [ns^-1]."""
        return mev * self.mev_to_inv_ns


@dataclass(frozen=True)
class PulseEnvelope:
    """Truncated Gaussian envelope on u in [-u_b, u_b].

    f(u) = (g(u) - g(u_b)) / (1 - g(u_b)) with g(u) = exp(-u^2 ln 2),
    so f(0) = 1, f(+-u_b) = 0 exactly and f(+-1) is close to 1/2.
    """

    u_b: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.u_b < math.inf:
            raise ConfigurationError("u_b must be positive and finite")

    @property
    def support(self):
        """Half-width min(u_b, 33): f is 0 where exp(-u^2 ln 2) underflows."""
        return min(self.u_b, 33.0)

    def _value_and_derivative(self, u):
        """f(u) and f'(u) from one exponential, u clipped to [-u_b, u_b]."""
        u = np.asarray(u, dtype=float)
        excess = np.max(np.abs(u), initial=0.0) - self.u_b
        if excess > _DOMAIN_ULPS * math.ulp(self.u_b):
            raise ConfigurationError(
                "u outside [-u_b, u_b] with u_b = %g" % self.u_b)
        if excess > 0.0:
            u = np.clip(u, -self.u_b, self.u_b)
        g = np.exp(-_LN2 * u * u)
        gb = math.exp(-_LN2 * self.u_b * self.u_b)
        return (g - gb) / (1.0 - gb), -2.0 * _LN2 * u * g / (1.0 - gb)

    def value(self, u):
        """Envelope f(u); scalar in, scalar out; array in, array out."""
        out = self._value_and_derivative(u)[0]
        return float(out) if out.ndim == 0 else out

    def derivative(self, u):
        """Analytic f'(u) on the same domain."""
        out = self._value_and_derivative(u)[1]
        return float(out) if out.ndim == 0 else out


def hamiltonian(omega1, omega2, detuning, alpha=0.0):
    """Interaction-picture Hamiltonian in the (|0>, |1>, |X>) basis [ns^-1]."""
    e = np.exp(1j * alpha)
    return np.array([
        [0.0, 0.0, omega1 * e],
        [0.0, 0.0, omega2],
        [omega1 * np.conj(e), omega2, detuning],
    ], dtype=complex)


@dataclass(frozen=True, eq=False)
class AdiabaticEigensystem:
    """Closed-form instantaneous eigensystem of the Lambda Hamiltonian.

    values holds (lambda_1, lambda_2, lambda_3) with lambda_1 = 0 and
    lambda_2 <= 0 <= lambda_3; vectors holds the eigenvectors as columns,
    Phi_1 being the dark-like state with no |X> content.
    """

    omega: float
    z: float
    phi: float
    values: np.ndarray
    vectors: np.ndarray


def eigensystem(omega1, omega2, detuning, alpha=0.0, beta=None):
    """Diagonalize the Lambda Hamiltonian in closed form.

    Parameters
    ----------
    omega1, omega2 : float or array_like
        Rabi frequencies [ns^-1], all >= 0; arrays broadcast together.
    detuning : float
        Shared detuning Delta > 0 [ns^-1].
    alpha : float
        Relative laser phase [rad].
    beta : float, optional
        Mixing angle.  When omitted it is recomputed as
        arctan(omega2 / omega1); pass the stored configuration value at
        zero drive where the ratio is 0/0.

    Returns
    -------
    AdiabaticEigensystem
        Eigenvalues (0, -2 Z sin^2 phi, 2 Z cos^2 phi) and unit-norm
        eigenvectors; no numeric diagonalizer is involved.  Scalars give
        float omega, z and phi, values of shape (3,) and vectors (3, 3);
        arrays of shape s give (s), (s + (3,)) and (s + (3, 3)).
    """
    omega1, omega2 = np.broadcast_arrays(np.asarray(omega1, dtype=float),
                                         np.asarray(omega2, dtype=float))
    if not detuning > 0.0:
        raise ConfigurationError("detuning must be positive")
    if np.any(omega1 < 0.0) or np.any(omega2 < 0.0):
        raise ConfigurationError("Rabi frequencies must be non-negative")

    omega = np.hypot(omega1, omega2)
    z = np.hypot(omega, 0.5 * detuning)
    phi = 0.5 * np.arctan2(2.0 * omega, detuning)
    if beta is None:
        beta = np.arctan2(omega2, omega1)

    sb = np.broadcast_to(np.sin(beta), omega.shape)
    cb = np.broadcast_to(np.cos(beta), omega.shape)
    sp, cp = np.sin(phi), np.cos(phi)
    ea = complex(math.cos(alpha), math.sin(alpha))

    values = np.stack([np.zeros_like(z), -2.0 * z * sp * sp,
                       2.0 * z * cp * cp], axis=-1)
    vectors = np.stack([
        np.stack([-ea * sb, -ea * cb * cp, ea * cb * sp], axis=-1),
        np.stack([cb, -sb * cp, sb * sp], axis=-1),
        np.stack([np.zeros_like(sp), sp, cp], axis=-1),
    ], axis=-2)
    if omega.ndim == 0:
        omega, z, phi = float(omega), float(z), float(phi)
    return AdiabaticEigensystem(omega=omega, z=z, phi=phi,
                                values=values, vectors=vectors)


def rotation_axis(alpha, beta):
    """Unit rotation axis n = (cos a sin 2b, -sin a sin 2b, cos 2b)."""
    return np.array([
        math.cos(alpha) * math.sin(2.0 * beta),
        -math.sin(alpha) * math.sin(2.0 * beta),
        math.cos(2.0 * beta),
    ])


@dataclass(frozen=True, eq=False)
class RotationSpec:
    """Target single-qubit rotation: positive angle plus unit axis."""

    angle: float
    axis: np.ndarray

    def __post_init__(self):
        if self.angle < 0.0:
            raise ConfigurationError("rotation angle must be >= 0")
        axis = np.asarray(self.axis, dtype=float)
        if axis.shape != (3,) or abs(np.linalg.norm(axis) - 1.0) > 1e-9:
            raise ConfigurationError("axis must be a unit 3-vector")
        object.__setattr__(self, "axis", axis)

    @classmethod
    def from_angles(cls, angle, alpha=0.0, beta=DEFAULT_BETA):
        return cls(angle=angle, axis=rotation_axis(alpha, beta))

    def unitary(self):
        """2x2 qubit unitary exp(+i/2 * angle * sigma.n).

        The sign is that of Phi_2's adiabatic phase, which runs to -angle.
        """
        nx, ny, nz = self.axis
        half = 0.5 * self.angle
        c, s = math.cos(half), math.sin(half)
        # exp(+i (angle/2) sigma.n) = cos I + i sin sigma.n
        return np.array([
            [c + 1j * s * nz, 1j * s * (nx - 1j * ny)],
            [1j * s * (nx + 1j * ny), c - 1j * s * nz],
        ])


@functools.lru_cache(maxsize=16)
def _envelope_rule(env, panel_width=_PANEL_WIDTH):
    """Weights on [0, u_b] and q = 4 f^2 at composite Gauss-Legendre nodes.

    The support [0, env.support] is cut into the fewest equal panels no
    wider than panel_width, with _GL_NODES nodes each; for
    u_b <= panel_width the rule is the single-panel one, node for node.
    Cached: every calibration of one envelope reads the same two rules.
    """
    # numpy.polynomial is imported on first use, not at module load
    from numpy.polynomial.legendre import leggauss
    t, w = leggauss(_GL_NODES)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    panels = math.ceil(env.support / panel_width)
    width = env.support / panels
    f = env.value((width * np.arange(panels)[:, None] + width * t).ravel())
    w, q = np.tile(width * w, panels), 4.0 * f * f
    w.flags.writeable = q.flags.writeable = False
    return w, q


def _check_rule(x, h, env):
    """Raise NumericalError unless h(x) agrees with a rule on panels half
    as wide to _RULE_RTOL relative."""
    ref, _ = _half_integral(x, *_envelope_rule(env, 0.5 * _PANEL_WIDTH))
    gap = np.abs(h - ref)
    if not np.all(gap <= _RULE_RTOL * ref):
        raise NumericalError(
            "calibration quadrature unresolved at u_b = %g: %.2g relative "
            "to a rule on half-width panels"
            % (env.u_b, np.max(gap / np.maximum(ref, np.finfo(float).tiny))))


def _half_integral(x, w, q):
    """h(x) = int_0^{u_b} (sqrt(1 + 4 x^2 f^2) - 1) du and h'(x).

    x has shape (m,), and h and h' come back with the same shape.  The
    integrand is written s / (sqrt(1 + s) + 1) to avoid the
    cancellation of sqrt(1 + s) - 1 at small s.  Each row is reduced on
    its own by np.sum, so a point's value does not depend on the others.
    """
    s = (x * x)[:, None] * q
    root = np.sqrt(1.0 + s)
    h = np.sum(w * (s / (root + 1.0)), axis=-1)
    dh = x * np.sum(w * (q / root), axis=-1)
    return h, dh


def rotation_angle(chi, x_max, env=None):
    """Rotation angle Lambda accumulated by the pulse.

    Lambda = (chi/2) * int_{-u_b}^{u_b} (sqrt(1 + 4 x_max^2 f(u)^2) - 1) du.
    The integrand is even, so this is chi times the integral over
    [0, u_b], taken with composite 32-node Gauss-Legendre panels and
    checked against panels half as wide (NumericalError when they part).
    """
    if not (math.isfinite(chi) and math.isfinite(x_max)):
        raise ConfigurationError("chi and x_max must be finite")
    if not chi > 0.0:
        raise ConfigurationError("chi must be positive")
    if x_max < 0.0:
        raise ConfigurationError("x_max must be >= 0")
    if env is None:
        env = PulseEnvelope()
    x = np.array([float(x_max)])
    h, _ = _half_integral(x, *_envelope_rule(env))
    _check_rule(x, h, env)
    return chi * float(h[0])


def solve_xmax(angle, chi, env=None):
    """Solve rotation_angle(chi, x_max) = angle for x_max.

    angle and chi broadcast against each other; scalars give a float and
    arrays an array.  Newton's method runs on h(x) = angle / chi with the
    rule of rotation_angle.  h is increasing and convex, so from the
    small-x root sqrt(angle / (chi * int_0^{u_b} 2 f^2 du)), which lies
    below the solution, the first step overshoots and the rest descend
    monotonically.  A point stops once its step is within a few ulp of
    x.  The result depends on (angle, chi) only through their ratio.
    At the solution, a rule on panels half as wide must give h(x) to
    _RULE_RTOL relative.

    Raises
    ------
    ConfigurationError
        If an angle is negative or not finite, or a chi not positive and
        finite.
    NumericalError
        If an iterate is not finite, Newton exceeds its iteration cap or
        the refined rule disagrees at the solution.
    """
    angle, chi = np.broadcast_arrays(np.asarray(angle, dtype=float),
                                     np.asarray(chi, dtype=float))
    if not (np.all(np.isfinite(angle)) and np.all(np.isfinite(chi))):
        raise ConfigurationError("angle and chi must be finite")
    if np.any(angle < 0.0):
        raise ConfigurationError("angle must be >= 0")
    if not np.all(chi > 0.0):
        raise ConfigurationError("chi must be positive")
    if env is None:
        env = PulseEnvelope()

    w, q = _envelope_rule(env)
    target = (angle / chi).ravel()
    x = np.zeros_like(target)
    todo = np.flatnonzero(target > 0.0)
    x[todo] = np.sqrt(target[todo] / (0.5 * np.sum(w * q)))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            h, dh = _half_integral(x[todo], w, q)
            step = (target[todo] - h) / dh
            xt = x[todo] + step
            if not np.all(np.isfinite(xt)):
                raise NumericalError("Newton iterate for x_max is not finite")
            x[todo] = xt
            todo = todo[np.abs(step) > _NEWTON_ULPS * np.spacing(xt)]
            if todo.size == 0:
                break
        else:
            raise NumericalError("Newton iteration for x_max did not converge")
    _check_rule(x, target, env)
    x = x.reshape(angle.shape)
    return float(x) if x.ndim == 0 else x


def _check_axis(alpha, beta):
    """ConfigurationError unless alpha is finite and beta in [0, pi/2]."""
    if not 0.0 <= beta <= 0.5 * math.pi:
        raise ConfigurationError("beta must lie in [0, pi/2]")
    if not math.isfinite(alpha):
        raise ConfigurationError("alpha must be finite")


@dataclass(frozen=True, eq=False)
class DriveConfig:
    """Complete drive specification for one gate.

    Fields
    ------
    detuning : float
        Delta > 0 [ns^-1].
    tau : float
        Pulse halfwidth [ns].
    x_max : float
        Peak ratio max Omega / Delta, >= 0.
    alpha : float
        Relative laser phase [rad].
    beta : float
        Mixing angle in [0, pi/2]; constant because both envelopes share
        one shape.
    envelope : PulseEnvelope
    """

    detuning: float
    tau: float
    x_max: float
    alpha: float = 0.0
    beta: float = DEFAULT_BETA
    envelope: PulseEnvelope = PulseEnvelope()

    def __post_init__(self):
        if not self.detuning > 0.0:
            raise ConfigurationError("detuning must be positive")
        if not self.tau > 0.0:
            raise ConfigurationError("tau must be positive")
        if self.x_max < 0.0:
            raise ConfigurationError("x_max must be >= 0")
        _check_axis(self.alpha, self.beta)

    @property
    def chi(self):
        return self.detuning * self.tau

    @property
    def omega_peak(self):
        return self.detuning * self.x_max

    @property
    def z_max(self):
        """Z at peak drive [ns^-1]."""
        return 0.5 * self.detuning * math.sqrt(1.0 + 4.0 * self.x_max ** 2)

    @property
    def t_initial(self):
        return -self.envelope.u_b * self.tau

    @property
    def t_final(self):
        return self.envelope.u_b * self.tau

    def _rabi_frequencies(self, t):
        """(Omega_1, Omega_2) = Omega(t) (cos beta, sin beta) [ns^-1]."""
        om = self.omega_peak * self.envelope.value(t / self.tau)
        return om * math.cos(self.beta), om * math.sin(self.beta)

    def hamiltonian_at(self, t):
        o1, o2 = self._rabi_frequencies(t)
        return hamiltonian(o1, o2, self.detuning, self.alpha)

    def eigensystem_at(self, t):
        o1, o2 = self._rabi_frequencies(t)
        return eigensystem(o1, o2, self.detuning, self.alpha, beta=self.beta)

    def rotation_angle(self):
        return rotation_angle(self.chi, self.x_max, self.envelope)

    def rotation(self):
        """Target rotation realized by this drive."""
        return RotationSpec.from_angles(self.rotation_angle(),
                                        self.alpha, self.beta)

    @classmethod
    def for_rotation(cls, angle, detuning, tau, alpha=0.0,
                     beta=DEFAULT_BETA, envelope=None):
        """Calibrate x_max so the drive realizes the requested angle."""
        env = PulseEnvelope() if envelope is None else envelope
        x = solve_xmax(angle, detuning * tau, env)
        return cls(detuning=detuning, tau=tau, x_max=x,
                   alpha=alpha, beta=beta, envelope=env)
