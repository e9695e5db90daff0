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

import functools
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
# I, sigma_x, sigma_y, sigma_z on the qubit pair
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_SPHERE_MAX_ITER = 100
_SPHERE_ULPS = 4  # a Newton step this many ulp of the shift or less ends it


def _error_quadratic(drive, decay, dt, target):
    """(c, b, A) with 1 - F = c - b.n - n.A.n exactly over Bloch vectors n.

    The initial state (I + n.sigma)/2 and the ideal final projector
    U (I + n.sigma) U+ / 2 are both affine in n and the master equation is
    linear, so F = m.T.m with m = (1, n) and the table
    T_ab = Tr[U sigma_a U+ Phi(sigma_b)] / 4 over (I, sigma_x, sigma_y,
    sigma_z).  Phi(sigma_b) comes from the four basis operators, all
    propagated in one batch.
    """
    basis = np.stack([_P00, _P11, _X01, _Y01])
    v00, v11, vx, vy = _propagate_batch(basis, drive, decay, dt)[:, :2, :2]
    images = np.stack([v00 + v11, 2.0 * vx, 2.0 * vy, v00 - v11])
    umat = target.unitary()
    ideal = umat @ _PAULI @ umat.conj().T
    t = np.einsum("aij,bji->ab", ideal, images).real / 4.0
    return 1.0 - t[0, 0], t[1:, 0] + t[0, 1:], 0.5 * (t[1:, 1:] + t[1:, 1:].T)


def _maximize_on_sphere(c, b, a):
    """Maximum of c - b.n - n.A.n over unit vectors n, and a maximizer.

    Minimizing q = n.A.n + b.n on the sphere is a trust-region subproblem:
    the minimizer solves (A - mu I) n = -b/2 with mu <= lambda_min (More &
    Sorensen, SIAM J. Sci. Stat. Comput. 4, 553 (1983)).  In the
    eigenbasis of A, with g = V.T b and d = lambda - lambda_min, the
    solution for the shift s = lambda_min - mu >= 0 has coordinates
    -g / (2 (d + s)).  Newton's method on 1/|n(s)| - 1 starts at
    max(|g_i|/2 - d_i), where |n| >= 1; 1/|n(s)| is concave and increasing,
    so the iterates rise monotonically to the root, which lies below
    |g|/2.  In the hard case, where g vanishes on the lambda_min
    eigenspace and |n(0)| <= 1, n(0) is completed to unit norm along
    v_min.
    """
    lam, vec = np.linalg.eigh(a)
    g = vec.T @ b
    d = lam - lam[0]
    s = max(0.0, float(np.max(0.5 * np.abs(g) - d)))
    s_max = 0.5 * math.sqrt(g @ g)
    for _ in range(_SPHERE_MAX_ITER):
        ds = d + s
        live = ds > 0.0  # at s = 0 only components with g = 0 are not
        y = np.divide(0.5 * g, ds, out=np.zeros(3), where=live)
        norm = math.sqrt(y @ y)
        if norm <= 1.0:
            break
        step = (norm - 1.0) * norm * norm / (
            y @ np.divide(y, ds, out=np.zeros(3), where=live))
        if step <= _SPHERE_ULPS * np.spacing(s):
            break
        s = min(s + step, s_max)
    else:
        raise NumericalError("worst-case search did not converge")
    z = -y
    if s == 0.0:  # the hard case
        z[0] = math.sqrt(max(0.0, 1.0 - norm * norm))
    n = vec @ z
    n /= math.sqrt(n @ n)
    return float(c - n @ a @ n - b @ n), n


@functools.lru_cache(maxsize=1)
def _worst_case(drive, decay, target, dt, /):
    """Worst-case gate error over initial qubit states and its Bloch vector.

    Returns (error, (n_x, n_y, n_z)), the error clamped to [0, 1].
    raman-sim gate takes the error from gate_error_mixed, the public entry
    that bench/tracing.py times, and then n from here with the same
    arguments: the one cached entry makes that one march, and
    positional-only arguments keep one cache key per call.
    """
    err, n = _maximize_on_sphere(*_error_quadratic(drive, decay, dt, target))
    return min(1.0, max(0.0, err)), tuple(n.tolist())


def gate_error_mixed(drive, decay, target=None, dt=None):
    """Worst-case gate error over initial qubit states, decay included.

    Propagates the four Hermitian qubit basis operators once.  The error
    1 - <psi_ideal| rho(t_f) |psi_ideal> is then an exact quadratic in the
    initial Bloch vector, and its maximum over the sphere is found in
    closed form (_maximize_on_sphere).

    target defaults to the rotation the drive is calibrated for.
    """
    if target is None:
        target = drive.rotation()
    if not isinstance(target, RotationSpec):
        raise ConfigurationError("target must be a RotationSpec")
    return _worst_case(drive, decay, target, dt)[0]


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
