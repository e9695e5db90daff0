"""Amplitude integration and worst-case pure-state gate error."""

import math

import numpy as np
import pytest
from conftest import integrate_bare_schrodinger

from ramansim import (ConfigurationError, NumericalError, PulseEnvelope,
                      gate_error_pure, integrate_amplitudes,
                      integrate_amplitudes_batch, nonadiabatic_error,
                      solve_xmax)

# frozen from an independent adaptive integration of the same system
E_PI_15 = 1.2515490443e-05

# (chi, x_max, a2, a3, S) from the per-step RK4 loop that preceded the
# step-matrix kernel, at 2000 steps per unit; x_max is frozen too so that
# a change of calibration cannot move these rows
FROZEN_RK4 = (
    (15.0, 0.39080458847774935, 0.9999750129781935+0.007062977807053161j,
     0.00025207973986679294-0.00015562637416822696j, 96.28318530717208),
    (21.0, 0.32620370208996974, 0.9999923629428653+0.0039002307819165803j,
     4.175710535116886e-05-0.000245992143371199j, 132.28318530717806),
    (2.0, 0.8376500397130258, 0.941418840183566+0.0953031491061744j,
     0.31060859815583164-0.0903890251609076j, 15.14159265358849),
    (5.0, 1.132441765704698, 0.997447742816182+0.058421168381872605j,
     -0.02669324601665161-0.031183939021444913j, 42.56637061436093),
)
# u_b = 2.5 at 301 steps per unit: n = 1505, odd and not a chunk multiple
FROZEN_RK4_ODD = (5.0, 0.7349874207980065,
                  0.9989595103953564+0.04558620007000196j,
                  -8.8855359163288e-05-0.0013368092291520365j,
                  31.28318530718255)
# from the previous vectorized loop, one call over both points
FROZEN_RK4_BATCH = (
    (8.0, 0.37738068816497616, 0.9999169709659889+0.012848460797242382j,
     0.0004173863957369716-0.000891076837946455j, 51.14159265358325),
    (21.0, 0.2269417371230702, 0.9999976081630544+0.0021871590007936786j,
     1.889847419621456e-06+3.208011302439932e-07j, 129.14159265359407),
)


def _assert_frozen(a2, a3, phase, row):
    assert abs(a2 - row[2]) < 1e-12
    assert abs(a3 - row[3]) < 1e-12
    assert phase == pytest.approx(row[4], rel=1e-12)


class TestIntegrateAmplitudes:

    def test_zero_drive_is_exact(self):
        amps = integrate_amplitudes(10.0, 0.0)
        assert amps.a2 == 1.0
        assert amps.a3 == 0.0
        assert amps.phase == pytest.approx(60.0, rel=1e-12)  # chi * 2 u_b

    def test_norm_conserved(self):
        for angle, chi in ((math.pi, 5.0), (2.0 * math.pi, 12.0),
                           (math.pi / 2, 25.0)):
            x = solve_xmax(angle, chi)
            amps = integrate_amplitudes(chi, x)
            norm = abs(amps.a2) ** 2 + abs(amps.a3) ** 2
            assert abs(norm - 1.0) < 1e-10

    def test_norm_not_drained_by_rounding(self):
        # near-identity step products rounded on the grid at 1 err with one
        # sign and would drain about 1e-13 of norm here
        x = solve_xmax(math.pi, 21.0)
        amps = integrate_amplitudes(21.0, x, steps_per_unit=8000)
        assert abs(abs(amps.a2) ** 2 + abs(amps.a3) ** 2 - 1.0) < 2e-14

    def test_step_halving_converged(self):
        x = solve_xmax(math.pi, 15.0)
        e1 = gate_error_pure(*_final(integrate_amplitudes(15.0, x))).error
        fine = integrate_amplitudes(15.0, x, steps_per_unit=4000)
        e2 = gate_error_pure(*_final(fine)).error
        assert abs(e1 - e2) < 1e-10

    def test_resolution_guard(self):
        with pytest.raises(NumericalError):
            integrate_amplitudes(500.0, 0.3)
        # override runs and still conserves norm
        amps = integrate_amplitudes(500.0, 0.3, allow_coarse=True)
        assert abs(abs(amps.a2) ** 2 + abs(amps.a3) ** 2 - 1.0) < 1e-6

    def test_matches_frozen_recurrence(self):
        for row in FROZEN_RK4:
            amps = integrate_amplitudes(row[0], row[1])
            _assert_frozen(amps.a2, amps.a3, amps.phase, row)

    def test_matches_frozen_recurrence_odd_step_count(self):
        row = FROZEN_RK4_ODD
        amps = integrate_amplitudes(row[0], row[1], PulseEnvelope(u_b=2.5),
                                    steps_per_unit=301)
        _assert_frozen(amps.a2, amps.a3, amps.phase, row)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            integrate_amplitudes(-1.0, 0.3)
        with pytest.raises(ConfigurationError):
            integrate_amplitudes(5.0, 0.3, steps_per_unit=0)


def _final(amps):
    return amps.a2, amps.a3


class TestBareBasisOracle:

    def test_amplitudes_agree_at_chi_5(self):
        x = solve_xmax(math.pi, 5.0)
        amps = integrate_amplitudes(5.0, x)
        a1, a2, a3 = integrate_bare_schrodinger(5.0, x)
        assert abs(a1) < 1e-10
        assert abs(a2 - amps.a2) < 1e-8
        assert abs(a3 - amps.a3) < 1e-8

    def test_error_independent_of_axis(self):
        x = solve_xmax(math.pi, 5.0)
        errors = []
        for alpha, beta in ((0.0, math.pi / 4), (math.pi / 2, math.pi / 4),
                            (0.0, 0.0)):
            _, c, d = integrate_bare_schrodinger(5.0, x, alpha=alpha,
                                                 beta=beta)
            errors.append(gate_error_pure(c, d).error)
        assert max(errors) - min(errors) < 1e-12


class TestGateErrorPure:

    def test_perfect_gate(self):
        res = gate_error_pure(1.0 + 0.0j, 0.0j)
        assert res.error == 0.0

    def test_complete_leakage(self):
        res = gate_error_pure(0.0j, 1.0 + 0.0j)
        assert res.error == 1.0
        assert res.p_star == 1.0

    def test_pure_phase_error(self):
        for theta in (0.3, 1.2, 2.5):
            c = complex(math.cos(theta), math.sin(theta))
            res = gate_error_pure(c, 0.0j)
            assert res.error == pytest.approx(math.sin(0.5 * theta) ** 2,
                                              rel=1e-12)
            assert res.p_star == pytest.approx(0.5, rel=1e-12)

    def test_matches_dense_population_scan(self):
        x = solve_xmax(math.pi, 5.0)
        amps = integrate_amplitudes(5.0, x)
        res = gate_error_pure(amps.a2, amps.a3)
        p = np.linspace(0.0, 1.0, 100001)
        scanned = np.max(1.0 - np.abs(1.0 + p * (amps.a2 - 1.0)) ** 2)
        assert res.error == pytest.approx(float(scanned), abs=1e-9)

    def test_norm_precondition(self):
        with pytest.raises(ConfigurationError):
            gate_error_pure(0.9 + 0.0j, 0.0j)


class TestNonadiabaticError:

    def test_error_below_threshold_at_chi_15(self):
        res = nonadiabatic_error(math.pi, 15.0)
        assert res.error < 1e-4
        assert res.error == pytest.approx(E_PI_15, rel=1e-6)

    def test_small_chi_oscillation(self):
        errors = [nonadiabatic_error(math.pi, c).error
                  for c in (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0)]
        diffs = np.diff(errors)
        # at least one rise and one fall: non-monotonic
        assert np.any(diffs > 0.0) and np.any(diffs < 0.0)

    def test_angle_ordering_at_large_chi(self):
        e_small = nonadiabatic_error(math.pi / 2, 25.0).error
        e_mid = nonadiabatic_error(math.pi, 25.0).error
        e_large = nonadiabatic_error(2.0 * math.pi, 25.0).error
        assert e_small < e_mid < e_large

    def test_decreasing_in_adiabatic_regime(self):
        errors = [nonadiabatic_error(math.pi, float(c)).error
                  for c in range(15, 31, 3)]
        assert all(a > b for a, b in zip(errors, errors[1:]))


class TestBatchIntegration:

    def test_matches_scalar(self):
        chis = np.array([3.0, 7.5, 12.0, 25.0])
        xs = np.array([solve_xmax(math.pi, float(c)) for c in chis])
        b2, b3, bs = integrate_amplitudes_batch(chis, xs)
        for i, chi in enumerate(chis):
            amps = integrate_amplitudes(float(chi), float(xs[i]))
            assert abs(b2[i] - amps.a2) < 1e-12
            assert abs(b3[i] - amps.a3) < 1e-12
            assert abs(bs[i] - amps.phase) < 1e-9

    def test_matches_frozen_recurrence(self):
        chis = np.array([row[0] for row in FROZEN_RK4_BATCH])
        xs = np.array([row[1] for row in FROZEN_RK4_BATCH])
        a2, a3, phase = integrate_amplitudes_batch(chis, xs)
        for i, row in enumerate(FROZEN_RK4_BATCH):
            _assert_frozen(a2[i], a3[i], phase[i], row)

    def test_broadcasts_scalar_x(self):
        a2, a3, _ = integrate_amplitudes_batch(10.0, 0.0)
        assert a2[0] == 1.0
        assert a3[0] == 0.0
