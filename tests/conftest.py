"""Shared fixtures and cross-check helpers."""

import cmath
import math

import numpy as np
import pytest

from scipy.integrate import solve_ivp

from ramansim import (ConfigurationError, NumericalError, PulseEnvelope,
                      hamiltonian, rotation_angle)


@pytest.fixture
def rng():
    return np.random.default_rng(719364002)


def bare_final_state(a1, a2, a3, chi, x_max, alpha=0.0, beta=math.pi / 4,
                     env=None):
    """Reassemble the bare-basis state at u_f from adiabatic amplitudes.

    psi(u_f) = a1 Phi_1 + a2 e^{i Lambda} Phi_2 + a3 e^{-i theta_3} Phi_3
    with theta_3 = 2 u_b chi + Lambda; the drive is off at u_f so the
    eigenvectors take their phi = 0 form.
    """
    if env is None:
        env = PulseEnvelope()
    lam = rotation_angle(chi, x_max, env) if x_max > 0.0 else 0.0
    ea = cmath.exp(1j * alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    phi1 = np.array([-ea * sb, cb, 0.0])
    phi2 = np.array([-ea * cb, -sb, 0.0])
    phi3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    theta3 = 2.0 * env.u_b * chi + lam
    return (a1 * phi1
            + a2 * cmath.exp(1j * lam) * phi2
            + a3 * cmath.exp(-1j * theta3) * phi3)


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
