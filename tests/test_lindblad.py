"""Master-equation propagation and the mixed-state gate error."""

import math

import numpy as np
import pytest
from conftest import bare_final_state

import ramansim.lindblad as lindblad
from ramansim import (ConfigurationError, DecayConfig, DriveConfig,
                      NumericalError, RotationSpec, adiabatic_populations,
                      density_from_state, estimate_spontaneous_error,
                      gate_error_mixed, integrate_amplitudes,
                      nonadiabatic_error, propagate_master, purity,
                      qubit_state, validate_density)

DETUNING = 1500.0
TAU = 0.01


def rho_ground():
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    return rho


@pytest.fixture(scope="module")
def worked_drive():
    return DriveConfig.for_rotation(math.pi, DETUNING, TAU)


@pytest.fixture(scope="module")
def nodecay_run(worked_drive):
    return propagate_master(rho_ground(), worked_drive)


@pytest.fixture(scope="module")
def decay_run(worked_drive):
    decay = DecayConfig(gamma0=20.0, gamma1=20.0)
    return propagate_master(rho_ground(), worked_drive, decay,
                            record_stride=25)


@pytest.fixture(scope="module")
def band_drive():
    return DriveConfig.for_rotation(math.pi, DETUNING, 20.0 / DETUNING)


class TestDecayConfig:

    def test_total(self):
        assert DecayConfig(gamma0=3.0, gamma1=5.0).total == 8.0

    def test_rejects_negative_rate(self):
        with pytest.raises(ConfigurationError):
            DecayConfig(gamma0=-1.0)

    def test_rejects_odd_prefactor(self):
        with pytest.raises(ConfigurationError):
            DecayConfig(gamma0=1.0, prefactor=0.7)

    def test_both_prefactors_allowed(self):
        DecayConfig(gamma0=1.0, prefactor=0.5)
        DecayConfig(gamma0=1.0, prefactor=1.0)


class TestStateHelpers:

    def test_qubit_state_poles(self):
        psi = qubit_state(0.0, 0.3)
        assert abs(psi[0]) == pytest.approx(1.0, abs=1e-15)
        psi = qubit_state(math.pi, 0.0)
        assert abs(psi[1]) == pytest.approx(1.0, abs=1e-12)
        assert psi[2] == 0.0

    def test_density_from_state(self):
        rho = density_from_state(qubit_state(1.0, 2.0))
        validate_density(rho)
        assert purity(rho) == pytest.approx(1.0, abs=1e-14)

    def test_purity_examples(self):
        assert purity(rho_ground()) == pytest.approx(1.0, abs=1e-15)
        assert purity(np.eye(3) / 3.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert purity(np.diag([0.5, 0.5, 0.0]).astype(complex)) == \
            pytest.approx(0.5, abs=1e-15)

    def test_validate_density_rejects(self):
        with pytest.raises(ConfigurationError):
            validate_density(np.eye(2, dtype=complex))
        herm = np.eye(3, dtype=complex) / 3.0
        herm[0, 1] = 1.0j
        with pytest.raises(ConfigurationError):
            validate_density(herm)
        with pytest.raises(ConfigurationError):
            validate_density(2.0 * rho_ground())
        neg = np.diag([1.2, -0.2, 0.0]).astype(complex)
        with pytest.raises(ConfigurationError):
            validate_density(neg)

    def test_adiabatic_populations_at_start(self, worked_drive):
        p1, p2, p3 = adiabatic_populations(rho_ground(), worked_drive,
                                           worked_drive.t_initial)
        assert p1 == pytest.approx(0.5, abs=1e-12)
        assert p2 == pytest.approx(0.5, abs=1e-12)
        assert abs(p3) < 1e-12


class TestFreeDecay:

    # no drive: populations obey simple rate equations the propagator
    # must reproduce

    def test_standard_prefactor(self):
        drive = DriveConfig(detuning=DETUNING, tau=0.01, x_max=0.0)
        decay = DecayConfig(gamma0=30.0, gamma1=50.0)
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[2, 2] = 1.0
        rho_f, _ = propagate_master(rho0, drive, decay)
        span = drive.t_final - drive.t_initial
        g = decay.total
        survived = math.exp(-g * span)
        assert rho_f[2, 2].real == pytest.approx(survived, abs=1e-8)
        assert rho_f[0, 0].real == pytest.approx(
            (30.0 / g) * (1.0 - survived), abs=1e-8)
        assert rho_f[1, 1].real == pytest.approx(
            (50.0 / g) * (1.0 - survived), abs=1e-8)

    def test_doubled_prefactor(self):
        drive = DriveConfig(detuning=DETUNING, tau=0.01, x_max=0.0)
        decay = DecayConfig(gamma0=30.0, gamma1=50.0, prefactor=1.0)
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[2, 2] = 1.0
        rho_f, _ = propagate_master(rho0, drive, decay)
        span = drive.t_final - drive.t_initial
        survived = math.exp(-2.0 * decay.total * span)
        assert rho_f[2, 2].real == pytest.approx(survived, abs=1e-8)

    def test_branching_ratio(self):
        drive = DriveConfig(detuning=DETUNING, tau=0.01, x_max=0.0)
        decay = DecayConfig(gamma0=3.0, gamma1=5.0)
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[2, 2] = 1.0
        rho_f, _ = propagate_master(rho0, drive, decay)
        p0 = rho_f[0, 0].real
        p1 = rho_f[1, 1].real
        assert p0 / (p0 + p1) == pytest.approx(3.0 / 8.0, abs=1e-10)


class TestCoherentLimit:

    def test_trace_and_purity_preserved(self, nodecay_run):
        rho_f, _ = nodecay_run
        assert abs(np.trace(rho_f).real - 1.0) < 1e-10
        assert abs(purity(rho_f) - 1.0) < 1e-10

    def test_matches_schrodinger_evolution(self, worked_drive, nodecay_run):
        rho_f, _ = nodecay_run
        chi = worked_drive.chi
        x = worked_drive.x_max
        amps = integrate_amplitudes(chi, x)
        s = 1.0 / math.sqrt(2.0)
        psi = bare_final_state(-s, -s * amps.a2, -s * amps.a3, chi, x)
        fidelity = float(np.real(np.conj(psi) @ rho_f @ psi))
        assert fidelity > 1.0 - 1e-8

    def test_population_transfer(self, nodecay_run):
        rho_f, _ = nodecay_run
        assert rho_f[1, 1].real > 0.999
        assert rho_f[2, 2].real < 1e-4
        assert rho_f[1, 1].real == pytest.approx(0.9999874845481179,
                                                 rel=1e-6)
        assert rho_f[2, 2].real == pytest.approx(4.3881936868395815e-08,
                                                 rel=1e-3)


class TestDecayRun:

    def test_final_populations(self, decay_run):
        rho_f, _ = decay_run
        validate_density(rho_f)
        assert rho_f[0, 0].real > 0.0
        assert rho_f[2, 2].real > 0.0
        assert rho_f[0, 0].real == pytest.approx(0.0172345253921, rel=1e-6)
        assert rho_f[2, 2].real == pytest.approx(0.000433258406822, rel=1e-6)
        assert purity(rho_f) == pytest.approx(0.965950062571, rel=1e-6)

    def test_records_consistent(self, worked_drive, decay_run):
        _, records = decay_run
        assert records[0].t == worked_drive.t_initial
        assert records[-1].t == worked_drive.t_final
        for rec in records:
            total = rec.pop0 + rec.pop1 + rec.pop_x
            assert abs(total - 1.0) < 1e-10
            assert abs(rec.p1 + rec.p2 + rec.p3 - 1.0) < 1e-10
            assert 0.0 < rec.purity <= 1.0 + 1e-12

    def test_purity_decreases(self, decay_run):
        _, records = decay_run
        assert records[-1].purity < records[0].purity


def master_oracle(rho0, drive, decay):
    # independent DOP853 integration of the complex master equation with
    # the jump operators L_i = sqrt(gamma_i) |i><X| written out
    from scipy.integrate import solve_ivp

    pf = decay.prefactor
    jumps = []
    for i, g in ((0, decay.gamma0), (1, decay.gamma1)):
        op = np.zeros((3, 3), dtype=complex)
        op[i, 2] = math.sqrt(g)
        jumps.append(op)

    def rhs(t, y):
        rho = (y[:9] + 1j * y[9:]).reshape(3, 3)
        hm = drive.hamiltonian_at(t)
        d = -1j * (hm @ rho - rho @ hm)
        for op in jumps:
            ld = op.conj().T @ op
            d += pf * (2.0 * op @ rho @ op.conj().T - ld @ rho - rho @ ld)
        d = d.ravel()
        return np.concatenate([d.real, d.imag])

    y0 = np.asarray(rho0, dtype=complex).ravel()
    sol = solve_ivp(rhs, (drive.t_initial, drive.t_final),
                    np.concatenate([y0.real, y0.imag]), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return (sol.y[:9, -1] + 1j * sol.y[9:, -1]).reshape(3, 3)


class TestStepMatrixMarch:

    @pytest.fixture(scope="class")
    def generic_run(self):
        drive = DriveConfig.for_rotation(math.pi, DETUNING, 0.0133)
        decay = DecayConfig(gamma0=5.0, gamma1=5.0)
        rho0 = density_from_state(qubit_state(1.0, 0.3))
        rho_f, _ = propagate_master(rho0, drive, decay)
        return rho0, drive, decay, rho_f

    def test_matches_dop853_oracle(self, generic_run):
        rho0, drive, decay, rho_f = generic_run
        oracle = master_oracle(rho0, drive, decay)
        assert np.max(np.abs(rho_f - oracle)) <= 1e-9

    def test_result_exactly_hermitian(self, generic_run):
        rho_f = generic_run[3]
        assert np.array_equal(rho_f, rho_f.conj().T)

    def test_trace_drift_guard_fires(self, monkeypatch, worked_drive):
        monkeypatch.setattr(lindblad, "TRACE_TOL", 1e-18)
        decay = DecayConfig(gamma0=5.0, gamma1=5.0)
        with pytest.raises(NumericalError, match="trace drift"):
            propagate_master(rho_ground(), worked_drive, decay)


class TestGateErrorMixed:

    def test_matches_pure_limit(self, worked_drive):
        e_mixed = gate_error_mixed(worked_drive, DecayConfig())
        e_pure = nonadiabatic_error(math.pi, worked_drive.chi).error
        assert e_mixed == pytest.approx(e_pure, abs=1e-6)

    def test_error_within_band_of_estimate(self, band_drive):
        # measured ratio sits near 0.46: decay events out of the bright
        # superposition re-land half their weight back in it
        decay = DecayConfig(gamma0=5.0, gamma1=5.0)
        error = gate_error_mixed(band_drive, decay)
        estimate = estimate_spontaneous_error(math.pi, decay.total, DETUNING)
        assert 0.5 * estimate <= error <= 1.5 * estimate

    def test_error_grows_with_gamma(self, band_drive):
        errors = []
        for g in (0.0, 2.0, 6.0, 10.0):
            decay = DecayConfig(gamma0=0.5 * g, gamma1=0.5 * g)
            errors.append(gate_error_mixed(band_drive, decay))
        assert all(a < b for a, b in zip(errors, errors[1:]))

    def test_doubled_prefactor_doubles_excess(self, band_drive):
        floor = nonadiabatic_error(math.pi, band_drive.chi).error
        e_half = gate_error_mixed(band_drive,
                                  DecayConfig(gamma0=5.0, gamma1=5.0))
        e_full = gate_error_mixed(band_drive,
                                  DecayConfig(gamma0=5.0, gamma1=5.0,
                                              prefactor=1.0))
        ratio = (e_full - floor) / (e_half - floor)
        assert 1.8 < ratio < 2.2

    def test_rejects_bad_target(self, worked_drive):
        with pytest.raises(ConfigurationError):
            gate_error_mixed(worked_drive, DecayConfig(), target=1.0)

    def test_rejects_unhashable_target(self, worked_drive):
        # checked before the cached solve, which would raise TypeError
        with pytest.raises(ConfigurationError):
            gate_error_mixed(worked_drive, DecayConfig(), target=[1.0, 0.0])


# gate_error_mixed at (pi, tau = 13.3 ps, gamma0 = gamma1 = 5 ns^-1), frozen
# from the 17 x 32 Bloch scan plus Nelder-Mead search that the closed-form
# maximum replaced
FROZEN_SEARCH = {
    1500.0: 0.009631403590909637,
    3000.0: 0.005012092047530281,
    6000.0: 0.0025601280605720422,
    12000.0: 0.0012942817118509753,
}

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def bloch_density(n):
    # (I + n.sigma)/2 on the qubit pair, embedded in the 3-level space
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = 0.5 * (np.eye(2) + np.einsum("i,iab->ab", n, PAULI))
    return rho


def master_error(n, drive, decay, target):
    # 1 - F for the initial Bloch vector n, straight from propagate_master
    rho_f, _ = propagate_master(bloch_density(n), drive, decay)
    umat = target.unitary()
    ideal = umat @ bloch_density(n)[:2, :2] @ umat.conj().T
    return 1.0 - float(np.einsum("ab,ba->", ideal, rho_f[:2, :2]).real)


def sphere_scan(n_theta, n_phi):
    theta = np.linspace(0.0, math.pi, n_theta)[:, None]
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)[None, :]
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta) + 0.0 * phi], axis=-1).reshape(-1, 3)


def quadratic(c, b, a, n):
    # c - b.n - n.A.n for one vector or a stack of them
    return c - n @ b - np.einsum("...i,ij,...j->...", n, a, n)


def assert_global_max(c, b, a, value, n):
    # certificate for the maximum over the sphere: n is a unit stationary
    # point, (A - mu I) n = -b/2, with A - mu I positive semidefinite
    n = np.asarray(n)
    assert abs(n @ n - 1.0) < 1e-14
    assert value == pytest.approx(quadratic(c, b, a, n), abs=1e-14)
    mu = n @ a @ n + 0.5 * b @ n
    assert np.max(np.abs((a - mu * np.eye(3)) @ n + 0.5 * b)) < 1e-12
    assert np.linalg.eigvalsh(a)[0] - mu > -1e-12


class TestExactWorstCase:
    """The closed-form maximum of 1 - F over the Bloch sphere."""

    @pytest.fixture(scope="class")
    def generic(self):
        # unequal rates, doubled prefactor and a tilted axis
        drive = DriveConfig.for_rotation(0.7 * math.pi, 2.0 * DETUNING,
                                         0.0133, alpha=0.9, beta=0.4)
        decay = DecayConfig(gamma0=3.0, gamma1=11.0, prefactor=1.0)
        target = RotationSpec.from_angles(0.7 * math.pi, 0.9, 0.4)
        table = lindblad._error_quadratic(drive, decay, None, target)
        return drive, decay, target, table

    @pytest.mark.parametrize("detuning", sorted(FROZEN_SEARCH))
    def test_matches_frozen_search(self, detuning):
        drive = DriveConfig.for_rotation(math.pi, detuning, 0.0133)
        error = gate_error_mixed(drive, DecayConfig(gamma0=5.0, gamma1=5.0))
        assert error == pytest.approx(FROZEN_SEARCH[detuning], abs=1e-12)

    def test_master_equation_from_returned_state(self, generic):
        drive, decay, target, _ = generic
        error, n = lindblad._worst_case(drive, decay, target, None)
        assert error == gate_error_mixed(drive, decay, target)
        assert abs(master_error(np.array(n), drive, decay, target)
                   - error) <= 1e-12

    def test_table_matches_master_equation(self, generic, rng):
        drive, decay, target, (c, b, a) = generic
        for _ in range(5):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            assert abs(quadratic(c, b, a, n)
                       - master_error(n, drive, decay, target)) <= 1e-12

    def test_dense_scan_never_exceeds(self, generic):
        drive, decay, target, (c, b, a) = generic
        error, n = lindblad._worst_case(drive, decay, target, None)
        scan = quadratic(c, b, a, sphere_scan(65, 128))
        assert np.max(scan) <= error + 1e-15
        assert np.max(scan) > error - 1e-3 * error
        assert_global_max(c, b, a, error, n)


class TestMaximizeOnSphere:
    """The trust-region solve on synthetic (A, b)."""

    def test_easy_case(self, rng):
        for _ in range(200):
            m = rng.normal(size=(3, 3))
            a, b, c = m + m.T, rng.normal(size=3), rng.normal()
            value, n = lindblad._maximize_on_sphere(c, b, a)
            assert_global_max(c, b, a, value, n)
            assert np.max(quadratic(c, b, a, sphere_scan(33, 64))) <= \
                value + 1e-12

    def test_zero_linear_term(self):
        a = np.diag([0.3, -0.2, 0.5])
        value, n = lindblad._maximize_on_sphere(1.0, np.zeros(3), a)
        assert value == pytest.approx(1.2, abs=1e-15)
        assert np.allclose(np.abs(n), [0.0, 1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_hard_case(self, rotated, rng):
        # b has no component along v_min = e_x and |n(lambda_min)| = 0.25,
        # so the maximizer is n(lambda_min) completed along e_x
        a, b = np.diag([0.0, 1.0, 2.0]), np.array([0.0, 0.4, 0.6])
        if rotated:  # g0 is then rounding-sized but not zero
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            a, b = q @ a @ q.T, q @ b
        value, n = lindblad._maximize_on_sphere(0.0, b, a)
        assert value == pytest.approx(0.4 * 0.2 + 0.6 * 0.15
                                      - 0.2 ** 2 - 2.0 * 0.15 ** 2, abs=1e-14)
        assert_global_max(0.0, b, a, value, n)

    def test_hard_case_boundary(self):
        # |n(lambda_min)| = 1 exactly: the hard-case completion is empty
        a, b = np.diag([0.0, 1.0, 1.0]), np.array([0.0, -2.0, 0.0])
        value, n = lindblad._maximize_on_sphere(0.0, b, a)
        assert np.allclose(n, [0.0, 1.0, 0.0], atol=1e-15)
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_isotropic(self):
        b = np.array([0.1, -0.2, 0.05])
        value, n = lindblad._maximize_on_sphere(0.5, b, 0.3 * np.eye(3))
        assert value == pytest.approx(0.2 + np.linalg.norm(b), abs=1e-15)
        assert np.allclose(n, -b / np.linalg.norm(b), atol=1e-15)
        value, n = lindblad._maximize_on_sphere(0.5, np.zeros(3),
                                                0.3 * np.eye(3))
        assert value == pytest.approx(0.2, abs=1e-15)
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)


class TestEstimate:

    def test_worked_value(self):
        est = estimate_spontaneous_error(math.pi, 10.0, 1500.0)
        assert est == pytest.approx(math.pi * 10.0 / 1500.0, rel=1e-15)

    def test_zero_angle(self):
        assert estimate_spontaneous_error(0.0, 10.0, 1500.0) == 0.0

    def test_depends_on_ratio_only(self):
        a = estimate_spontaneous_error(math.pi, 10.0, 1500.0)
        b = estimate_spontaneous_error(math.pi, 20.0, 3000.0)
        assert a == b

    def test_rejects(self):
        with pytest.raises(ConfigurationError):
            estimate_spontaneous_error(-1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            estimate_spontaneous_error(1.0, 1.0, 0.0)


class TestPropagateValidation:

    def test_rejects_bad_initial_state(self, worked_drive):
        with pytest.raises(ConfigurationError):
            propagate_master(2.0 * rho_ground(), worked_drive)

    def test_rejects_coarse_dt(self, worked_drive):
        dt = 1.0 / worked_drive.z_max
        with pytest.raises(NumericalError):
            propagate_master(rho_ground(), worked_drive, dt=dt)

    def test_rejects_nonpositive_dt(self, worked_drive):
        with pytest.raises(ConfigurationError):
            propagate_master(rho_ground(), worked_drive, dt=0.0)

    def test_rejects_negative_stride(self, worked_drive):
        with pytest.raises(ConfigurationError):
            propagate_master(rho_ground(), worked_drive, record_stride=-1)
