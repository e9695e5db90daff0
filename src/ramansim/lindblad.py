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
from .lambda_frame import (_MAX_STEPS, DriveConfig, RotationSpec,
                           _check_axis, hamiltonian)

DT_Z_LIMIT = 0.02  # max phase advance Z*dt per RK4 step
# the same for the unrecorded worst-case march (_error_quadratic), whose
# error E is second order in the coherent step error of its final states
WORST_CASE_DT_Z_LIMIT = 2.0 * DT_Z_LIMIT
TRACE_TOL = 1e-8
_CHUNK = 256  # RK4 step matrices built per matrix product
_BLOCK = math.isqrt(_CHUNK)  # steps per block, and blocks per chunk


@dataclass(frozen=True)
class DecayConfig:
    """Spontaneous decay rates from |X> into each qubit state [ns^-1]."""

    gamma0: float = 0.0
    gamma1: float = 0.0
    prefactor: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.gamma0 < math.inf
                and 0.0 <= self.gamma1 < math.inf):
            raise ConfigurationError("decay rates must be >= 0 and finite")
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
    """(P1, P2, P3) = populations of the instantaneous eigenstates at t.

    rho may be a stack (..., 3, 3) and t an array broadcasting against
    the stack, giving an array (..., 3); one rho at a scalar t gives a
    tuple of floats.
    """
    v = drive.eigensystem_at(t).vectors
    rho = np.asarray(rho, dtype=complex)
    pops = np.einsum("...ak,...ab,...bk->...k", v.conj(), rho, v).real
    return tuple(pops.tolist()) if pops.ndim == 1 else pops


def _resolve_dt(drive, dt, z_limit=DT_Z_LIMIT):
    """The RK4 step: z_limit / Z_max by default, and never coarser.

    Two limits are in use.  Recorded marches and propagate_master step at
    Z*dt = 0.02 (DT_Z_LIMIT): the 4th-order state error at twice that
    step puts the 1 meV pi state 1.9e-9 from a DOP853 solve, against
    1.2e-10 at 0.02.  The worst-case march of gate_error_mixed steps at
    0.04 (WORST_CASE_DT_Z_LIMIT): its error E is second order in that
    coherent step error, and moved by at most 1.9e-13 against Z*dt =
    0.005 over pi/2, pi and 2pi at 1-8 meV, gamma 2 and 10 ns^-1.
    """
    if dt is None:
        return z_limit / drive.z_max
    if not 0.0 < dt < math.inf:
        raise ConfigurationError("dt must be positive and finite")
    if dt * drive.z_max > z_limit * (1.0 + 1e-9):
        raise NumericalError(
            "dt too large: dt*Z_max = %.4g exceeds %.3g"
            % (dt * drive.z_max, z_limit))
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
    coupling, A0 the bare detuning plus the dissipator.  The coupling is
    H(0) - H_bare, exact because f(0) = 1 exactly.
    """
    hbare = hamiltonian(0.0, 0.0, drive.detuning)
    hk = drive.hamiltonian_at(0.0) - hbare
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


def _rk4_deltas(k1, a2, a3, a4, h):
    # RK4 on a linear system y' = A(t) y collapses to one matrix I + D per
    # step; returns D from stacks k1, a2, a3, a4 of A at each step's four
    # stages
    eye = np.eye(k1.shape[-1])
    k2 = np.matmul(a2, eye + 0.5 * h * k1)
    k3 = np.matmul(a3, eye + 0.5 * h * k2)
    k4 = np.matmul(a4, eye + h * k3)
    return (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _compose(a, b):
    # (I + a)(I + b) - I.  Steps and their products are held as their
    # deviation from I because rounding them on the grid at 1 loses the low
    # digits of D: it puts the 1 meV master-equation states 6e-15 from an
    # extended-precision march against 8e-16 in the deviation form
    return a + b + np.matmul(a, b)


def _chain_product(deltas):
    # (I + d[c-1]) ... (I + d[0]) - I by pairwise reduction along axis 0,
    # later steps on the left; c must be a power of two (it is _BLOCK)
    while len(deltas) > 1:
        deltas = _compose(deltas[1::2], deltas[0::2])
    return deltas[0]


# values of a polynomial of degree (1, 2, 1) on the nodes
# {0, 1} x {-1, 0, 1} x {0, 1} -> its coefficients: the Kronecker product
# of the three inverse Vandermonde matrices, with weights exact in binary
_FROM_NODES = np.kron(np.kron([[1.0, 0.0], [-1.0, 1.0]],
                              [[0.0, 1.0, 0.0], [-0.5, 0.0, 0.5],
                               [0.5, -1.0, 0.5]]),
                      [[1.0, 0.0], [-1.0, 1.0]])


def _step_polynomial(a0, a1, h):
    """(12, 81) coefficients of one RK4 step's D = M - I for A = a0 + f a1.

    D has degree (1, 2, 1) in the envelope values (f0, fm, f1) at the
    step's start, middle and end, so its values on the node grid fix it;
    row 6i + 2j + k is the coefficient of f0^i fm^j f1^k (_monomials).
    """
    g0, gm, g1 = (g.reshape(12, 1, 1) for g in np.meshgrid(
        [0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0], indexing="ij"))
    am = a0 + gm * a1
    d = _rk4_deltas(a0 + g0 * a1, am, am, a0 + g1 * a1, h)
    return _FROM_NODES @ d.reshape(12, 81)


def _monomials(f0, fm, f1):
    # (12, c) rows f0^i fm^j f1^k in the row order of _step_polynomial
    one = np.ones_like(f0)
    return (np.array((one, f0))[:, None, None]
            * np.array((one, fm, fm * fm))[:, None]
            * np.array((one, f1))).reshape(12, -1)


def _propagate_batch(ops, drive, decay, dt, record_stride=0,
                     z_limit=DT_Z_LIMIT):
    """March a batch of 3x3 operators through the master equation.

    ops has shape (m, 3, 3); all are advanced with one shared RK4 grid.
    Each operator is held in the 9 real coordinates of its Hermitian part
    (which symmetrises the input once).  Each RK4 step is one 9x9 matrix
    I + D, held as D: the D of a _CHUNK-step chunk come from one product
    of the chunk's envelope monomials with _step_polynomial.  The chunk is
    cut into _BLOCK blocks of _BLOCK steps; the state is carried across
    the block starts by each block's pairwise product, and then all
    blocks advance together, one y + D y per step.  Returns
    the final (m, 3, 3) batch; with record_stride > 0 it returns
    (batch, times, coords) with the coordinates (r, 9, m) at t_i, every
    record_stride-th step and t_f.  Raises NumericalError when any
    operator's trace drifts, and ConfigurationError, before any array is
    built, above _MAX_STEPS steps.  dt and z_limit go to _resolve_dt.
    """
    dt = _resolve_dt(drive, dt, z_limit)
    span = drive.t_final - drive.t_initial
    count = span / dt
    if not count <= _MAX_STEPS:
        raise ConfigurationError(
            "%.4g steps of dt = %.4g ns exceed the cap of %d steps"
            % (count, dt, _MAX_STEPS))
    n = max(1, int(math.ceil(count - 1e-12)))
    h = span / n
    # envelope at the 2n+1 RK4 stage instants
    f = drive.envelope.value(np.linspace(-drive.envelope.u_b,
                                         drive.envelope.u_b, 2 * n + 1))
    coeffs = _step_polynomial(*_generators(drive, decay), h)

    y = _to_coords(np.asarray(ops, dtype=complex))
    trace0 = y[:3].sum(axis=0)
    steps_kept, kept = [np.zeros(1, dtype=int)], [y[None]]
    deltas = np.zeros((_CHUNK, 81))
    # ys[j, b] is the state after j steps of block b; ys[0, b] its start
    ys = np.empty((_BLOCK + 1, _BLOCK) + y.shape)
    ys[0, 0] = y
    for k0 in range(0, n, _CHUNK):
        c = min(_CHUNK, n - k0)
        nb = -(-c // _BLOCK)
        fc = f[2 * k0:2 * (k0 + c) + 1]
        np.matmul(_monomials(fc[0:-1:2], fc[1::2], fc[2::2]).T, coeffs,
                  out=deltas[:c])
        # a short last chunk is padded with D = 0, which steps exactly as I
        deltas[c:nb * _BLOCK] = 0.0
        d = deltas[:nb * _BLOCK].reshape(nb, _BLOCK, 9, 9)
        blocks = _chain_product(d.transpose(1, 0, 2, 3))
        for b in range(nb - 1):
            blocks[b].dot(ys[0, b], out=ys[0, b + 1])
            ys[0, b + 1] += ys[0, b]
        for j in range(_BLOCK):
            np.matmul(d[:, j], ys[j, :nb], out=ys[j + 1, :nb])
            ys[j + 1, :nb] += ys[j, :nb]
        # the states after each step, as (step in block, block, 9, m)
        states = ys[1:, :nb]
        drift = np.abs(states[:, :, 0] + states[:, :, 1] + states[:, :, 2]
                       - trace0)
        if not np.all(drift <= TRACE_TOL):  # NaN counts as drift
            drift = drift.max(axis=2).T.ravel()
            first = np.flatnonzero(~(drift <= TRACE_TOL))[0]
            raise NumericalError(
                "trace drift %.3g exceeds %.1g at step %d of %d"
                % (drift[first], TRACE_TOL, k0 + first + 1, n))
        if record_stride > 0:
            k = np.arange(k0 + 1, k0 + c + 1)
            keep = (k % record_stride == 0) | (k == n)
            steps_kept.append(k[keep])
            kept.append(states.swapaxes(0, 1).reshape(-1, *y.shape)[:c][keep])
        ys[0, 0] = ys[_BLOCK, nb - 1]
    if record_stride == 0:
        return _from_coords(ys[0, 0])
    times = drive.t_initial + np.concatenate(steps_kept) * h
    # the last record is at t_f exactly, where t_i + n h can round off it
    times[-1] = drive.t_final
    return _from_coords(ys[0, 0]), times, np.concatenate(kept)


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

    if record_stride == 0:
        return _propagate_batch(rho0[None], drive, decay, dt)[0], []
    out, times, coords = _propagate_batch(rho0[None], drive, decay, dt,
                                          record_stride=record_stride)
    # the columns over all recorded states at once
    y = coords[:, :, 0]
    rhos = _from_coords(y.T)
    purities = np.einsum("mij,mji->m", rhos, rhos).real
    pops = adiabatic_populations(rhos, drive, times)
    columns = np.column_stack([times, y[:, :3], purities, pops])
    return out[0], [TraceRecord(*row) for row in columns.tolist()]


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
    v00, v11, vx, vy = _propagate_batch(
        basis, drive, decay, dt, z_limit=WORST_CASE_DT_Z_LIMIT)[:, :2, :2]
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
    _open_gates takes the error from gate_error_mixed, the public entry
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

    target defaults to the rotation the drive is calibrated for.  dt is
    the RK4 step [ns]; it defaults to 0.04 / Z_max and must not exceed it,
    twice the 0.02 / Z_max of propagate_master and recorded marches
    (_resolve_dt gives the measured reasons).
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


def _open_gates(angle, detuning, tau, x_max, decays, env, dt, alpha, beta):
    """(error, estimate, ratio, n) of each drive under each decay.

    detuning, tau and x_max broadcast to one drive each, aimed at the
    rotation (angle, alpha, beta); drives outer, decays inner.  The error
    is gate_error_mixed's, the ratio is nan where the estimate
    angle * gamma / detuning is 0, and n is the worst Bloch vector of the
    _worst_case entry that call left, so each pair is one march.
    """
    _check_axis(alpha, beta)  # before rotation_axis takes cos(alpha)
    target = RotationSpec.from_angles(angle, alpha, beta)
    gates = []
    for det, t, x in np.broadcast(detuning, tau, x_max):
        drive = DriveConfig(float(det), float(t), float(x), alpha, beta, env)
        for decay in decays:
            err = gate_error_mixed(drive, decay, target, dt)
            est = estimate_spontaneous_error(angle, decay.total, float(det))
            gates.append((err, est, err / est if est > 0.0 else math.nan,
                          _worst_case(drive, decay, target, dt)[1]))
    return gates
