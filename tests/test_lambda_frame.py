"""Envelope, eigensystem, rotation and calibration checks."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

import ramansim.lambda_frame as lambda_frame
from ramansim import (ConfigurationError, DriveConfig, NumericalError,
                      PhysicalUnits, PulseEnvelope, RotationSpec, eigensystem,
                      hamiltonian, rotation_angle, rotation_axis, solve_xmax)

ENV = PulseEnvelope()

# x_max from the bisection on adaptive Simpson quadrature that the
# Gauss-Legendre Newton solve replaced (bisection tolerance 1e-12)
FROZEN_XMAX = (
    (math.pi, 15.0, 0.39080458847774935),
    (math.pi / 2, 7.0, 0.40575335898165577),
    (2.0 * math.pi, 2.0, 2.170964069312049),
    (1e-6, 15.0, 0.0002106109418491542),
)


class TestEnvelope:

    def test_peak_normalization(self):
        assert ENV.value(0.0) == 1.0

    def test_boundary_zero_exact(self):
        assert ENV.value(3.0) == 0.0
        assert ENV.value(-3.0) == 0.0

    def test_half_point_value(self):
        # direct arithmetic from the defining formula
        expected = (0.5 - 2.0 ** -9) / (1.0 - 2.0 ** -9)
        assert ENV.value(1.0) == pytest.approx(expected, rel=1e-14)

    def test_even_and_bounded(self):
        u = np.linspace(-3.0, 3.0, 601)
        f = ENV.value(u)
        assert np.all(f >= 0.0)
        assert np.all(f <= 1.0)
        assert np.allclose(f, f[::-1], atol=1e-15)

    def test_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            ENV.value(3.0001)
        with pytest.raises(ConfigurationError):
            ENV.derivative(-3.1)
        with pytest.raises(ConfigurationError):
            ENV.value(np.array([0.0, 4.0]))

    def test_ulp_past_boundary_clipped(self):
        # t / tau at t = u_b tau can round one ulp past u_b
        assert ENV.value(np.nextafter(3.0, 4.0)) == 0.0
        assert ENV.value(np.nextafter(-3.0, -4.0)) == 0.0
        assert ENV.derivative(np.nextafter(3.0, 4.0)) == ENV.derivative(3.0)
        with pytest.raises(ConfigurationError):
            ENV.value(3.0001)

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for u in (-2.5, -1.0, -0.3, 0.0, 0.7, 1.9, 2.9):
            fd = (ENV.value(u + h) - ENV.value(u - h)) / (2.0 * h)
            assert ENV.derivative(u) == pytest.approx(fd, abs=5e-9)

    def test_custom_width(self):
        env = PulseEnvelope(u_b=2.0)
        assert env.value(2.0) == 0.0
        assert env.value(0.0) == 1.0
        with pytest.raises(ConfigurationError):
            env.value(2.5)
        with pytest.raises(ConfigurationError):
            PulseEnvelope(u_b=0.0)
        with pytest.raises(ConfigurationError):
            PulseEnvelope(u_b=math.inf)
        with pytest.raises(ConfigurationError):
            PulseEnvelope(u_b=math.nan)

    def test_support(self):
        # beyond u = 33 exp(-u^2 ln 2) underflows, and f and f' are 0
        assert [PulseEnvelope(u_b=u_b).support
                for u_b in (2.0, 33.0, 34.0, 1e9)] == [2.0, 33.0, 33.0, 33.0]
        env, u = PulseEnvelope(u_b=1e3), np.linspace(33.0, 1e3, 7)
        assert not np.any(env.value(u)) and not np.any(env.derivative(u))
        with pytest.raises(AttributeError):
            ENV.support = 3.0


class TestUnits:

    def test_defaults_and_conversions(self):
        units = PhysicalUnits()
        assert units.energy_to_rate(1.0) == 1500.0

    def test_physical_constant(self):
        units = PhysicalUnits(mev_to_inv_ns=1519.3)
        assert units.energy_to_rate(2.0) == pytest.approx(3038.6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            PhysicalUnits(mev_to_inv_ns=0.0)


class TestEigensystem:

    def test_lasers_off(self):
        es = eigensystem(0.0, 0.0, 1.0, 0.0)
        assert es.phi == 0.0
        assert es.values[1] == 0.0
        assert es.values[2] == 1.0
        # beta falls back to 0 at zero drive
        assert np.allclose(es.vectors[:, 1], [-1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(es.vectors[:, 2], [0.0, 0.0, 1.0], atol=1e-15)

    def test_residuals_and_orthonormality(self, rng):
        worst_res = 0.0
        worst_gram = 0.0
        for _ in range(1000):
            o1, o2 = rng.uniform(0.0, 5.0, size=2)
            det = rng.uniform(0.1, 10.0)
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            es = eigensystem(o1, o2, det, alpha)
            h = hamiltonian(o1, o2, det, alpha)
            res = h @ es.vectors - es.vectors * es.values[None, :]
            worst_res = max(worst_res, float(np.max(np.abs(res))))
            gram = es.vectors.conj().T @ es.vectors
            worst_gram = max(worst_gram,
                             float(np.max(np.abs(gram - np.eye(3)))))
            assert abs(es.values.sum() - det) < 1e-12 * max(1.0, det)
        assert worst_res < 1e-12
        assert worst_gram < 1e-12

    def test_lambda2_closed_form(self, rng):
        for _ in range(100):
            o1, o2 = rng.uniform(0.0, 4.0, size=2)
            det = rng.uniform(0.5, 8.0)
            es = eigensystem(o1, o2, det, 0.3)
            om2 = o1 * o1 + o2 * o2
            expect = -0.5 * det * (math.sqrt(1.0 + 4.0 * om2 / det ** 2) - 1.0)
            assert es.values[1] == pytest.approx(expect, abs=1e-12)
            assert math.tan(2.0 * es.phi) == pytest.approx(
                2.0 * es.omega / det, rel=1e-12)

    def test_dark_state_has_no_excited_component(self):
        es = eigensystem(1.0, 1.0, 2.0, math.pi / 3)
        assert es.vectors[2, 0] == 0.0
        assert es.values[0] == 0.0

    def test_eigenvalue_ordering(self):
        es = eigensystem(2.0, 1.0, 1.5, 0.0)
        assert es.values[1] <= 0.0 <= es.values[2]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            eigensystem(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            eigensystem(-1.0, 1.0, 1.0, 0.0)

    def test_rejects_negative_array_entry(self):
        with pytest.raises(ConfigurationError):
            eigensystem(np.array([1.0, -1.0]), 1.0, 1.0, 0.0)

    def test_scalar_call_returns_floats(self):
        es = eigensystem(1.0, 2.0, 1.5, 0.4)
        assert all(type(v) is float for v in (es.omega, es.z, es.phi))
        assert es.values.shape == (3,)
        assert es.vectors.shape == (3, 3)

    @pytest.mark.parametrize("beta", [None, 0.3])
    def test_array_call_matches_scalar_calls(self, rng, beta):
        o1 = rng.uniform(0.0, 5.0, size=(4, 3))
        o2 = rng.uniform(0.0, 5.0, size=3)
        es = eigensystem(o1, o2, 2.5, 0.7, beta=beta)
        assert es.omega.shape == es.z.shape == es.phi.shape == (4, 3)
        assert es.values.shape == (4, 3, 3)
        assert es.vectors.shape == (4, 3, 3, 3)
        for i, j in np.ndindex(4, 3):
            one = eigensystem(o1[i, j], o2[j], 2.5, 0.7, beta=beta)
            for name in ("omega", "z", "phi", "values", "vectors"):
                got = getattr(es, name)[i, j]
                assert np.max(np.abs(got - getattr(one, name))) <= 1e-15


class TestRotationAxis:

    def test_x_axis(self):
        assert np.allclose(rotation_axis(0.0, math.pi / 4), [1.0, 0.0, 0.0],
                           atol=1e-12)

    def test_minus_y_axis(self):
        assert np.allclose(rotation_axis(math.pi / 2, math.pi / 4),
                           [0.0, -1.0, 0.0], atol=1e-12)

    def test_z_axis(self):
        assert np.allclose(rotation_axis(0.0, 0.0), [0.0, 0.0, 1.0],
                           atol=1e-12)


class TestRotationSpec:

    def test_unitary_matches_matrix_exponential(self):
        pauli = [np.array([[0, 1], [1, 0]], dtype=complex),
                 np.array([[0, -1j], [1j, 0]]),
                 np.array([[1, 0], [0, -1]], dtype=complex)]
        for angle, alpha, beta in ((math.pi, 0.0, math.pi / 4),
                                   (0.7, 1.1, 0.3),
                                   (2.0 * math.pi, math.pi / 2, math.pi / 4)):
            spec = RotationSpec.from_angles(angle, alpha, beta)
            sn = sum(n * s for n, s in zip(spec.axis, pauli))
            expect = expm(0.5j * angle * sn)
            assert np.allclose(spec.unitary(), expect, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RotationSpec(angle=-0.1, axis=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ConfigurationError):
            RotationSpec(angle=1.0, axis=np.array([1.0, 1.0, 0.0]))


class TestRotationAngle:

    def test_zero_drive(self):
        assert rotation_angle(10.0, 0.0) == 0.0

    def test_round_trip(self):
        x = solve_xmax(math.pi, 15.0)
        assert rotation_angle(15.0, x) == pytest.approx(math.pi, abs=1e-8)

    def test_small_x_quadratic_regime(self):
        # Lambda ~ chi x^2 int f^2 du for x << 1
        i2, _ = quad(lambda u: ENV.value(u) ** 2, -3.0, 3.0)
        x = 1e-3
        lam = rotation_angle(15.0, x)
        assert lam == pytest.approx(15.0 * x * x * i2, rel=1e-5)

    def test_matches_physical_time_quadrature(self):
        # Lambda = -int lambda_2 dt along the actual pulse
        drive = DriveConfig.for_rotation(math.pi, 1500.0, 0.01)

        def integrand(t):
            return -drive.eigensystem_at(t).values[1]

        val, _ = quad(integrand, drive.t_initial, drive.t_final,
                      epsabs=1e-13, epsrel=1e-12, limit=200)
        assert val == pytest.approx(drive.rotation_angle(), rel=1e-9)

    @pytest.mark.parametrize("x", [1e-3, 0.4, 3.8])
    def test_rule_matches_adaptive_quadrature(self, x):
        # chi = 2 makes Lambda the integral g(x) itself
        def integrand(u):
            s = 4.0 * x * x * ENV.value(u) ** 2
            return s / (math.sqrt(1.0 + s) + 1.0)

        val, _ = quad(integrand, -3.0, 3.0, epsabs=0.0, epsrel=1e-13,
                      limit=200)
        assert rotation_angle(2.0, x) == pytest.approx(val, rel=1e-12)

    def test_monotone_in_xmax(self):
        lams = [rotation_angle(15.0, x) for x in (0.1, 0.2, 0.4, 0.8)]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            rotation_angle(0.0, 0.5)
        with pytest.raises(ConfigurationError):
            rotation_angle(10.0, -0.5)
        for chi, x in ((math.inf, 0.5), (math.nan, 0.5), (10.0, math.inf),
                       (10.0, math.nan)):
            with pytest.raises(ConfigurationError):
                rotation_angle(chi, x)


class TestSolveXmax:

    @pytest.mark.parametrize("angle, chi, frozen", FROZEN_XMAX)
    def test_matches_frozen_bisection(self, angle, chi, frozen):
        x = solve_xmax(angle, chi)
        assert type(x) is float
        assert x == pytest.approx(frozen, abs=1e-12)

    def test_node_count_converged(self, monkeypatch):
        chis = np.arange(2.0, 61.0)
        angles = np.array([[math.pi / 2], [math.pi], [2.0 * math.pi]])
        x32 = solve_xmax(angles, chis)
        # the rules are cached per envelope: build the 64-node ones
        # uncached, so that they neither come from nor stay in the cache
        monkeypatch.setattr(lambda_frame, "_GL_NODES", 64)
        monkeypatch.setattr(lambda_frame, "_envelope_rule",
                            lambda_frame._envelope_rule.__wrapped__)
        assert lambda_frame._envelope_rule(ENV)[0].size == 64
        x64 = solve_xmax(angles, chis)
        assert x32.shape == (3, chis.size)
        assert np.max(np.abs(x64 - x32)) <= 1e-13

    def test_array_call_equals_scalar_calls(self):
        angles = np.array([math.pi, 0.0, math.pi / 2, 2.0 * math.pi, 1e-6])
        chis = np.array([15.0, 20.0, 7.0, 2.0, 300.0])
        xs = solve_xmax(angles, chis)
        assert xs[1] == 0.0
        for angle, chi, x in zip(angles, chis, xs):
            assert x == solve_xmax(float(angle), float(chi))
        # a scalar angle broadcasts against the chi array
        assert np.array_equal(solve_xmax(math.pi, chis),
                              [solve_xmax(math.pi, c) for c in chis])

    @pytest.mark.parametrize("u_b", [3.0, 6.0, 12.0, 50.0, 1e9])
    def test_realised_angle_on_wide_envelopes(self, u_b):
        # the drive realises its target, by adaptive quadrature over the
        # envelope's support; one 32-node panel over [0, u_b] missed pi at
        # chi = 15 by 1.7e-4 relative at u_b = 50; measured 3.2e-14.  The
        # rule stops where f underflows, so u_b = 1e9 costs no more nodes
        env = PulseEnvelope(u_b=u_b)
        for angle, chi in ((math.pi, 15.0), (math.pi / 2, 40.0),
                           (2.0 * math.pi, 2.0), (4.0 * math.pi, 0.5)):
            x = solve_xmax(angle, chi, env)

            def integrand(u):
                s = 4.0 * x * x * env.value(u) ** 2
                return s / (math.sqrt(1.0 + s) + 1.0)

            val, _ = quad(integrand, 0.0, min(u_b, 34.0), epsabs=0.0,
                          epsrel=2e-14, limit=500)
            assert chi * val == pytest.approx(angle, rel=1e-13)

    def test_rule_checked_once_per_call(self, monkeypatch):
        # one rule for Newton, one refined rule at the solution
        calls = []
        rule = lambda_frame._envelope_rule

        def counted(env, *width):
            calls.append(width)
            return rule(env, *width)

        monkeypatch.setattr(lambda_frame, "_envelope_rule", counted)
        solve_xmax(math.pi, np.arange(2.0, 41.0))
        assert calls == [(), (0.5 * lambda_frame._PANEL_WIDTH,)]

    def test_unresolved_rule_raises(self):
        # x ~ 5.9e4: the rule and one on half-width panels part by 2.4e-9
        with pytest.raises(NumericalError, match="half-width panels"):
            solve_xmax(40.0 * math.pi, 1e-3)
        with pytest.raises(NumericalError, match="half-width panels"):
            rotation_angle(1e-3, 5.9e4)

    def test_newton_cap_raises(self, monkeypatch):
        monkeypatch.setattr(lambda_frame, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(NumericalError):
            solve_xmax(math.pi, 15.0)

    def test_ratio_scaling_exact(self):
        for angle, chi in ((math.pi, 15.0), (math.pi / 2, 7.0), (1.0, 3.3)):
            assert solve_xmax(angle, chi) == solve_xmax(2.0 * angle, 2.0 * chi)

    def test_small_angle_limit(self):
        i2, _ = quad(lambda u: ENV.value(u) ** 2, -3.0, 3.0)
        angle = 1e-6
        x = solve_xmax(angle, 15.0)
        assert x == pytest.approx(math.sqrt(angle / (15.0 * i2)), rel=1e-2)
        assert x < solve_xmax(1e-3, 15.0)

    def test_small_x_crosscheck_at_pi(self):
        # the quadratic estimate is decent though not exact at x ~ 0.4
        i2, _ = quad(lambda u: ENV.value(u) ** 2, -3.0, 3.0)
        x = solve_xmax(math.pi, 15.0)
        approx = math.sqrt(math.pi / (15.0 * i2))
        assert abs(x - approx) / x < 0.1

    def test_strictly_decreasing_in_chi(self):
        xs = [solve_xmax(math.pi, c) for c in np.arange(2.0, 31.0, 2.0)]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_zero_angle(self):
        assert solve_xmax(0.0, 15.0) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            solve_xmax(-1.0, 15.0)
        with pytest.raises(ConfigurationError):
            solve_xmax(math.pi, 0.0)
        for angle, chi in ((math.nan, 15.0), (math.inf, 15.0),
                           (math.pi, math.inf), (math.pi, math.nan)):
            with pytest.raises(ConfigurationError):
                solve_xmax(angle, chi)
        with pytest.raises(ConfigurationError):
            solve_xmax([math.pi, -1.0], 15.0)


class TestDriveConfig:

    def test_chi_and_peaks(self):
        drive = DriveConfig(detuning=1500.0, tau=0.01, x_max=0.4)
        assert drive.chi == 15.0
        assert drive.omega_peak == 600.0
        assert drive.z_max == pytest.approx(
            750.0 * math.sqrt(1.0 + 4.0 * 0.16))
        assert drive.t_initial == -0.03
        assert drive.t_final == 0.03

    def test_rabi_ratio_is_constant(self):
        drive = DriveConfig(detuning=1500.0, tau=0.01, x_max=0.4,
                            beta=math.pi / 3)
        for t in (-0.02, -0.004, 0.011):
            hm = drive.hamiltonian_at(t)
            o1, o2 = hm[0, 2].real, hm[1, 2].real
            assert o2 == pytest.approx(o1 * math.tan(math.pi / 3), rel=1e-12)

    def test_for_rotation_round_trip(self):
        drive = DriveConfig.for_rotation(math.pi / 2, 3000.0, 0.005)
        assert drive.rotation_angle() == pytest.approx(math.pi / 2, abs=1e-8)
        spec = drive.rotation()
        assert spec.angle == pytest.approx(math.pi / 2, abs=1e-8)

    def test_pulse_ends_inside_the_envelope(self):
        # (u_b tau) / tau rounds past u_b for 82 of these gate times
        for tenth_ps in range(10, 1000):
            drive = DriveConfig(detuning=1500.0, tau=tenth_ps / 10 * 1e-3,
                                x_max=0.4)
            drive.eigensystem_at(drive.t_initial)
            drive.eigensystem_at(drive.t_final)

    def test_eigensystem_at_respects_beta(self):
        drive = DriveConfig(detuning=1500.0, tau=0.01, x_max=0.4, beta=0.2)
        es = drive.eigensystem_at(drive.t_initial)
        # at zero instantaneous drive the stored beta still shapes Phi_1
        assert es.vectors[1, 0] == pytest.approx(math.cos(0.2), rel=1e-12)

    def test_eigensystem_at_array_of_times(self):
        # an array of times gives the stack of the single-time systems
        drive = DriveConfig(detuning=1500.0, tau=0.01, x_max=0.4, beta=0.2)
        ts = np.array([drive.t_initial, -0.004, 0.0, drive.t_final])
        stack = drive.eigensystem_at(ts).vectors
        assert stack.shape == (4, 3, 3)
        for t, vectors in zip(ts, stack):
            assert np.max(np.abs(vectors - drive.eigensystem_at(t).vectors)) \
                <= 1e-15

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DriveConfig(detuning=0.0, tau=0.01, x_max=0.4)
        with pytest.raises(ConfigurationError):
            DriveConfig(detuning=1500.0, tau=-0.01, x_max=0.4)
        with pytest.raises(ConfigurationError):
            DriveConfig(detuning=1500.0, tau=0.01, x_max=-0.4)
        with pytest.raises(ConfigurationError):
            DriveConfig(detuning=1500.0, tau=0.01, x_max=0.4, beta=2.0)
        with pytest.raises(ConfigurationError):
            DriveConfig(detuning=1500.0, tau=0.01, x_max=0.4, alpha=math.nan)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["detuning", "tau", "x_max"])
    def test_rejects_non_finite_fields(self, field, value):
        # a non-finite drive would fail later in the march with a bare
        # ZeroDivisionError, OverflowError or ValueError
        fields = {"detuning": 1500.0, "tau": 0.0133, "x_max": 0.3,
                  field: value}
        with pytest.raises(ConfigurationError,
                           match="%s must be .* finite" % field):
            DriveConfig(**fields)
