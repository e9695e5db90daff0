"""Density-matrix propagation with spontaneous emission from |X>.

The master equation is

    drho/dt = -i [H(t), rho] + pf * sum_i (2 L_i rho L_i+ - {L_i+ L_i, rho})

with jump operators L_i = sqrt(gamma_i) |i><X| for i in {0, 1} and a
configurable prefactor pf.  pf = 1/2 is the standard Lindblad form where
the |X> population decays at the total rate gamma = gamma0 + gamma1;
pf = 1 doubles every dissipative rate.  Both are supported because the
two conventions circulate and they differ by an overall factor of two in
the decay-induced error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .lambda_frame import RotationSpec, hamiltonian

DT_Z_LIMIT = 0.02  # max phase advance Z*dt per RK4 step
TRACE_TOL = 1e-8
_CHUNK = 256  # RK4 step matrices built per batched matmul


@dataclass(frozen=True)
class DecayConfig:
    """Spontaneous decay rates from |X> into each qubit state [ns^-1]."""

    gamma0: float = 0.0
    gamma1: float = 0.0
    prefactor: float = 0.5

    def __post_init__(self):
        if self.gamma0 < 0.0 or self.gamma1 < 0.0:
            raise ConfigurationError("decay rates must be >= 0")
        if self.prefactor not in (0.5, 1.0):
            raise ConfigurationError("prefactor must be 1/2 or 1")

    @property
    def total(self):
        return self.gamma0 + self.gamma1


@dataclass(frozen=True)
class TraceRecord:
    """One sampling instant of a propagation.

    Bare populations, purity Theta = Tr rho^2 and the populations of the
    instantaneous eigenstates Phi_1..3.
    """

    t: float
    pop0: float
    pop1: float
    pop_x: float
    purity: float
    p1: float
    p2: float
    p3: float


def validate_density(rho):
    """Check Hermiticity, unit trace and positivity of a 3x3 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise ConfigurationError("density matrix must be 3x3")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ConfigurationError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ConfigurationError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho)[0] < -1e-10:
        raise ConfigurationError("density matrix must be positive")
    return rho


def purity(rho):
    """Theta = Tr rho^2."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.einsum("ij,ji->", rho, rho).real)


def qubit_state(theta, phi_rel):
    """Bloch-sphere qubit state embedded in the 3-level space."""
    return np.array([
        math.cos(0.5 * theta),
        math.sin(0.5 * theta) * complex(math.cos(phi_rel), math.sin(phi_rel)),
        0.0,
    ], dtype=complex)


def density_from_state(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def adiabatic_populations(rho, drive, t):
    """(P1, P2, P3) = populations of the instantaneous eigenstates at t."""
    es = drive.eigensystem_at(t)
    rho = np.asarray(rho, dtype=complex)
    out = []
    for k in range(3):
        v = es.vectors[:, k]
        out.append(float(np.vdot(v, rho @ v).real))
    return tuple(out)


def _drive_stages(drive, n_steps):
    # envelope at the 2n+1 RK4 stage instants
    u = np.linspace(-drive.envelope.u_b, drive.envelope.u_b, 2 * n_steps + 1)
    return drive.envelope.value(u)


def _resolve_dt(drive, dt):
    if dt is None:
        return DT_Z_LIMIT / drive.z_max
    if not dt > 0.0:
        raise ConfigurationError("dt must be positive")
    if dt * drive.z_max > DT_Z_LIMIT * (1.0 + 1e-9):
        raise NumericalError(
            "dt too large: dt*Z_max = %.4g exceeds %.3g"
            % (dt * drive.z_max, DT_Z_LIMIT))
    return dt


def _hermitian_basis():
    # real coordinates of a Hermitian 3x3 matrix: the three diagonal
    # entries, then Re and Im of the upper off-diagonals (0,1), (0,2), (1,2)
    basis = np.zeros((9, 3, 3), dtype=complex)
    for j in range(3):
        basis[j, j, j] = 1.0
    for j, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
        basis[3 + 2 * j, a, b] = basis[3 + 2 * j, b, a] = 1.0
        basis[4 + 2 * j, a, b] = 1.0j
        basis[4 + 2 * j, b, a] = -1.0j
    return basis


_BASIS = _hermitian_basis()
_BASIS_NORM = np.einsum("jab,jab->j", _BASIS.conj(), _BASIS).real


def _to_coords(batch):
    # (m, 3, 3) -> (9, m): coordinates of each operator's Hermitian part
    return (np.einsum("jab,mab->jm", _BASIS.conj(), batch).real
            / _BASIS_NORM[:, None])


def _from_coords(y):
    # (9, m) -> (m, 3, 3), Hermitian by construction
    return np.einsum("jm,jab->mab", y, _BASIS)


def _generators(drive, decay):
    """9x9 real generators A0, A1 with drho/dt = (A0 + f(t) A1) rho.

    Built by applying the Hamiltonian-plus-dissipator map to the
    Hermitian basis; A1 is the coherent part of the envelope-scaled
    coupling, A0 the bare detuning plus the dissipator.
    """
    hbare = hamiltonian(0.0, 0.0, drive.detuning)
    hk = hamiltonian(drive.omega_peak * math.cos(drive.beta),
                     drive.omega_peak * math.sin(drive.beta), 0.0, drive.alpha)
    out0 = -1j * (hbare @ _BASIS - _BASIS @ hbare)
    out1 = -1j * (hk @ _BASIS - _BASIS @ hk)
    if decay.total > 0.0:
        pf = decay.prefactor
        xx = _BASIS[:, 2, 2]
        out0[:, 0, 0] += 2.0 * pf * decay.gamma0 * xx
        out0[:, 1, 1] += 2.0 * pf * decay.gamma1 * xx
        drain = pf * decay.total
        out0[:, 2, :] -= drain * _BASIS[:, 2, :]
        out0[:, :, 2] -= drain * _BASIS[:, :, 2]
    return _to_coords(out0), _to_coords(out1)


def _rk4_deltas(k1, a2, a3, a4, h, mul=np.matmul):
    # RK4 on a linear system y' = A(t) y collapses to one matrix I + D per
    # step; returns D from stacks k1, a2, a3, a4 of A at each step's four
    # stages, with mul multiplying two such stacks
    eye = np.eye(k1.shape[-1])
    k2 = mul(a2, eye + 0.5 * h * k1)
    k3 = mul(a3, eye + 0.5 * h * k2)
    k4 = mul(a4, eye + h * k3)
    return (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _step_matrices(a0, a1, f, h):
    # the generator a0 + f a1 at the 2c+1 envelope values of a chunk's stages
    a = a0 + f[:, None, None] * a1
    am = a[1::2]
    return np.eye(9) + _rk4_deltas(a[0:-1:2], am, am, a[2::2], h)


def _propagate_batch(ops, drive, decay, dt, record_hook=None, record_stride=0):
    """March a batch of 3x3 operators through the master equation.

    ops has shape (m, 3, 3); all are advanced with one shared RK4 grid.
    Each operator is held in the 9 real coordinates of its Hermitian part
    (which symmetrises the input once), and each RK4 step is applied as
    one precomputed 9x9 matrix, built _CHUNK steps at a time.
    record_hook(t, batch) fires at t_i, every record_stride-th step and
    at t_f.  Raises NumericalError when any operator's trace drifts.
    """
    dt = _resolve_dt(drive, dt)
    span = drive.t_final - drive.t_initial
    n = max(1, int(math.ceil(span / dt - 1e-12)))
    h = span / n
    f = _drive_stages(drive, n)
    a0, a1 = _generators(drive, decay)

    y = _to_coords(np.asarray(ops, dtype=complex))
    trace0 = y[:3].sum(axis=0)
    if record_hook is not None:
        record_hook(drive.t_initial, _from_coords(y))
    ys = np.empty((_CHUNK + 1,) + y.shape)
    for k0 in range(0, n, _CHUNK):
        c = min(_CHUNK, n - k0)
        steps = _step_matrices(a0, a1, f[2 * k0:2 * (k0 + c) + 1], h)
        ys[0] = y
        for j in range(c):
            steps[j].dot(ys[j], out=ys[j + 1])
        drift = np.max(np.abs(ys[1:c + 1, :3].sum(axis=1) - trace0), axis=1)
        bad = np.flatnonzero(~(drift <= TRACE_TOL))  # NaN counts as drift
        if bad.size:
            raise NumericalError(
                "trace drift %.3g exceeds %.1g" % (drift[bad[0]], TRACE_TOL))
        if record_hook is not None:
            for j in range(1, c + 1):
                k = k0 + j
                if k == n or (record_stride > 0 and k % record_stride == 0):
                    # accumulated rounding must not push t past the
                    # envelope domain
                    t = drive.t_final if k == n else drive.t_initial + k * h
                    record_hook(t, _from_coords(ys[j]))
        y = ys[c]
    return _from_coords(y)


def propagate_master(rho0, drive, decay=None, dt=None, record_stride=0):
    """Propagate a density matrix from t_i to t_f = +u_b tau.

    Parameters
    ----------
    rho0 : array_like
        Valid 3x3 density matrix at t_i.
    drive : DriveConfig
    decay : DecayConfig, optional
        Defaults to no decay.
    dt : float, optional
        RK4 step [ns]; defaults to 0.02 / Z_max and must not exceed it.
    record_stride : int
        Every how many steps to append a TraceRecord; 0 disables
        recording.  The initial and final instants are always included
        when recording is on.

    Returns
    -------
    (rho_f, records) : (ndarray, list of TraceRecord)
    """
    rho0 = validate_density(rho0)
    if decay is None:
        decay = DecayConfig()
    if record_stride < 0 or int(record_stride) != record_stride:
        raise ConfigurationError("record_stride must be a non-negative integer")

    records = []

    def hook(t, batch):
        rho = batch[0]
        p1, p2, p3 = adiabatic_populations(rho, drive, t)
        records.append(TraceRecord(
            t=t,
            pop0=float(rho[0, 0].real),
            pop1=float(rho[1, 1].real),
            pop_x=float(rho[2, 2].real),
            purity=purity(rho),
            p1=p1, p2=p2, p3=p3,
        ))

    out = _propagate_batch(rho0[None, :, :], drive, decay, dt,
                           record_hook=hook if record_stride > 0 else None,
                           record_stride=record_stride)
    return out[0], records


# Hermitian qubit-sector basis operators; any initial qubit density matrix
# is a real combination of the first two plus a complex combination of the
# off-diagonal pair, and the master equation is linear in rho.
_P00 = np.diag([1.0, 0.0, 0.0]).astype(complex)
_P11 = np.diag([0.0, 1.0, 0.0]).astype(complex)
_X01 = np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]], dtype=complex)
_Y01 = np.array([[0, -0.5j, 0], [0.5j, 0, 0], [0, 0, 0]], dtype=complex)


def _final_overlaps(drive, decay, dt, target):
    # propagate the basis once, then close over the reconstructed final
    # state to evaluate any initial qubit state cheaply
    basis = np.stack([_P00, _P11, _X01, _Y01])
    v00, v11, vx, vy = _propagate_batch(basis, drive, decay, dt)
    t01 = vx + 1j * vy  # final image of |0><1|

    umat = target.unitary()

    def infidelity(theta, phi_rel):
        c0 = math.cos(0.5 * theta)
        c1 = math.sin(0.5 * theta) * complex(math.cos(phi_rel), math.sin(phi_rel))
        cross = c0 * c1.conjugate() * t01
        rho_f = (abs(c0) ** 2 * v00 + abs(c1) ** 2 * v11
                 + cross + cross.conj().T)
        ideal = np.zeros(3, dtype=complex)
        ideal[:2] = umat @ np.array([c0, c1])
        fid = np.vdot(ideal, rho_f @ ideal).real
        return 1.0 - fid

    return infidelity


def gate_error_mixed(drive, decay, target=None, grid=(17, 32), dt=None,
                     refine=True):
    """Worst-case gate error over initial qubit states, decay included.

    Propagates the four Hermitian qubit basis operators once, then
    maximizes 1 - <psi_ideal| rho(t_f) |psi_ideal> over the Bloch sphere:
    a theta x phi grid scan (default 17 x 32) followed by a local
    Nelder-Mead refinement from the best grid point.

    target defaults to the rotation the drive is calibrated for.
    """
    if target is None:
        target = drive.rotation()
    if not isinstance(target, RotationSpec):
        raise ConfigurationError("target must be a RotationSpec")
    n_theta, n_phi = grid
    if n_theta < 2 or n_phi < 2:
        raise ConfigurationError("grid must be at least 2x2")

    infidelity = _final_overlaps(drive, decay, dt, target)

    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    best = -1.0
    best_pt = (0.0, 0.0)
    for th in thetas:
        for ph in phis:
            e = infidelity(th, ph)
            if e > best:
                best = e
                best_pt = (th, ph)

    if refine:
        from scipy.optimize import minimize
        res = minimize(lambda p: -infidelity(p[0], p[1]), best_pt,
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400})
        best = max(best, -float(res.fun))

    return min(1.0, max(0.0, best))


def estimate_spontaneous_error(angle, gamma, detuning):
    """Analytic spontaneous-emission error estimate: angle * gamma / detuning.

    Independent of the gate time; valid deep in the adiabatic regime
    where the error is at most at the percent level.
    """
    if angle < 0.0 or gamma < 0.0:
        raise ConfigurationError("angle and gamma must be >= 0")
    if not detuning > 0.0:
        raise ConfigurationError("detuning must be positive")
    return angle * gamma / detuning
