"""Sweep tables, fits and calibration counts."""

import math

import numpy as np
import pytest

import ramansim.sweeps
from ramansim import (ConfigurationError, DecayConfig, DriveConfig,
                      fit_inverse, fit_linear_through_origin,
                      gate_error_mixed, nonadiabatic_error, ratio_grid,
                      records_to_table, solve_xmax, sweep_error_vs_chi,
                      sweep_error_vs_delta, sweep_error_vs_gamma,
                      sweep_xmax_vs_chi, trace_run)


class TestFits:

    def test_linear_recovers_exact_data(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = 0.1 + 0.37 * x
        fit = fit_linear_through_origin(x, y, floor=0.1)
        assert fit.model == "linear-through-origin"
        assert fit.coefficient == pytest.approx(0.37, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_max < 1e-12

    def test_inverse_recovers_exact_data(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_inverse(x, 3.7 / x)
        assert fit.model == "inverse"
        assert fit.coefficient == pytest.approx(3.7, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_fit_validation(self):
        with pytest.raises(ConfigurationError):
            fit_linear_through_origin([1.0], [2.0])
        with pytest.raises(ConfigurationError):
            fit_linear_through_origin([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConfigurationError):
            fit_inverse([0.0, 1.0], [1.0, 1.0])


class TestSweepXmax:

    def test_matches_direct_solve(self):
        chis = [5.0, 10.0, 20.0, 40.0]
        table = sweep_xmax_vs_chi(math.pi, chis)
        assert table.columns == ("chi", "x_max")
        for chi, x in table.rows:
            assert x == solve_xmax(math.pi, chi)

    def test_strictly_decreasing(self):
        table = sweep_xmax_vs_chi(math.pi, [5.0, 10.0, 20.0, 40.0])
        xs = table.column("x_max")
        assert np.all(np.diff(xs) < 0.0)

    def test_depends_on_ratio_only(self):
        # doubling angle and chi together leaves angle/chi, and so every
        # Newton iterate, unchanged, so the results agree bitwise
        a = sweep_xmax_vs_chi(math.pi, [5.0, 10.0, 20.0, 40.0])
        b = sweep_xmax_vs_chi(2.0 * math.pi, [10.0, 20.0, 40.0, 80.0])
        assert np.array_equal(a.column("x_max"), b.column("x_max"))

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            sweep_xmax_vs_chi(math.pi, [10.0, 5.0])

    def test_unknown_column(self):
        table = sweep_xmax_vs_chi(math.pi, [5.0, 10.0])
        with pytest.raises(ConfigurationError):
            table.column("nope")


class TestSweepErrorVsChi:

    def test_pure_rows_match_direct(self):
        chis = np.array([5.0, 10.0, 15.0, 25.0])
        table = sweep_error_vs_chi(math.pi, chis)
        assert table.columns == ("angle", "chi", "x_max", "error", "abs_c",
                                 "abs_d", "p_star")
        for row in table.rows:
            direct = nonadiabatic_error(math.pi, row[1])
            assert row[3] == pytest.approx(direct.error, rel=1e-12, abs=1e-15)

    def test_multiple_angles(self):
        table = sweep_error_vs_chi([math.pi / 2, math.pi], [25.0])
        assert len(table) == 2
        angles = table.column("angle")
        errors = table.column("error")
        assert angles[0] < angles[1]
        assert errors[0] < errors[1]

    def test_resolution_guard_checks_each_point(self):
        # the largest chi and the largest x_max come from different points;
        # each point alone is inside the phase-step guard
        chis = [5.0, 180.0]
        table = sweep_error_vs_chi(2.0 * math.pi, chis)
        assert len(table) == 2
        for row, chi in zip(table.rows, chis):
            direct = nonadiabatic_error(2.0 * math.pi, chi)
            assert row[3] == pytest.approx(direct.error, rel=1e-12, abs=1e-15)

    def test_decay_requires_detuning(self):
        with pytest.raises(ConfigurationError):
            sweep_error_vs_chi(math.pi, [20.0],
                               decay=DecayConfig(gamma0=5.0, gamma1=5.0))

    def test_decay_row_composes(self):
        decay = DecayConfig(gamma0=5.0, gamma1=5.0)
        table = sweep_error_vs_chi(math.pi, [20.0], decay=decay,
                                   detuning=1500.0)
        assert table.columns == ("angle", "chi", "tau", "x_max", "error",
                                 "estimate", "ratio")
        row = table.rows[0]
        assert row[2] == pytest.approx(20.0 / 1500.0, rel=1e-15)
        drive = DriveConfig(detuning=1500.0, tau=row[2], x_max=row[3])
        direct = gate_error_mixed(drive, decay)
        assert row[4] == pytest.approx(direct, rel=1e-12)
        assert row[6] == pytest.approx(row[4] / row[5], rel=1e-12)


class TestCalibratesOnce:
    """Each sweep calibrates all its chi (or detuning) values in one call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(angle, chi, env=None):
            calls.append((angle, np.shape(chi)))
            return solve_xmax(angle, chi, env)

        monkeypatch.setattr(ramansim.sweeps, "solve_xmax", counting)
        # the master equation is not what these tests count
        monkeypatch.setattr(ramansim.sweeps, "gate_error_mixed",
                            lambda drive, decay, target=None, dt=None: 1e-3)
        return calls

    def test_sweep_xmax(self, calls):
        table = sweep_xmax_vs_chi(math.pi, [5.0, 10.0, 20.0, 40.0])
        assert calls == [(math.pi, (4,))]
        for chi, x in table.rows:
            assert type(x) is float and x == solve_xmax(math.pi, chi)

    def test_sweep_chi_pure(self, calls):
        sweep_error_vs_chi([math.pi / 2, math.pi], [20.0, 25.0, 30.0])
        assert calls == [(math.pi / 2, (3,)), (math.pi, (3,))]

    def test_sweep_chi_decay(self, calls):
        table = sweep_error_vs_chi([math.pi / 2, math.pi], [20.0, 25.0, 30.0],
                                   decay=DecayConfig(gamma0=5.0, gamma1=5.0),
                                   detuning=1500.0)
        assert calls == [(math.pi / 2, (3,)), (math.pi, (3,))]
        for row in table.rows:
            assert all(type(v) is float for v in row)
            assert row[3] == solve_xmax(row[0], row[1])

    def test_decay_grid(self, calls):
        table, _ = sweep_error_vs_gamma([1500.0, 3000.0], [5.0], math.pi,
                                        20.0 / 1500.0)
        assert calls == [(math.pi, (2,))]
        assert len(table) == 2

    def test_decay_grid_floors(self, calls, monkeypatch):
        floor_calls = []
        batch = ramansim.sweeps.integrate_amplitudes_batch

        def counting(chi, x_max, env=None, **kwargs):
            floor_calls.append(np.shape(chi))
            return batch(chi, x_max, env, **kwargs)

        monkeypatch.setattr(ramansim.sweeps, "integrate_amplitudes_batch",
                            counting)
        detunings = [1500.0, 3000.0, 6000.0]
        table = ratio_grid([2.0, 6.0], detunings, math.pi, 0.014)
        assert floor_calls == [(3,)]
        assert len(table) == 6
        table, _ = sweep_error_vs_gamma(detunings, [5.0], math.pi / 2, 0.014)
        assert floor_calls == [(3,), (3,)]
        for det, row in zip(detunings, table.rows):
            # the batch floor equals the scalar path's to the bit
            assert row[3] == nonadiabatic_error(math.pi / 2, det * 0.014).error


class TestSweepErrorVsGamma:

    def test_fit_quality_and_floor(self):
        table, fits = sweep_error_vs_gamma(
            [3000.0], [0.0, 5.0, 10.0], math.pi, 0.0133)
        assert table.columns == ("detuning", "gamma", "error", "error_floor",
                                 "estimate", "ratio")
        fit = fits[3000.0]
        assert fit.model == "linear-through-origin"
        assert fit.r_squared > 0.999
        assert 4.0e-4 < fit.coefficient < 6.0e-4
        errors = table.column("error")
        floors = table.column("error_floor")
        assert abs(errors[0] - floors[0]) < 1e-6  # gamma = 0 row
        assert np.all(np.diff(errors) > 0.0)

    def test_regime_guard(self):
        with pytest.raises(ConfigurationError):
            sweep_error_vs_gamma([1500.0], [0.0], math.pi, 15.0 / 1500.0)

    def test_regime_guard_downgrades_to_warning(self):
        with pytest.warns(UserWarning, match="below the adiabatic"):
            table, _ = sweep_error_vs_gamma([1500.0], [0.0], math.pi,
                                            15.0 / 1500.0,
                                            enforce_regime=False)
        assert len(table) == 1


class TestSweepErrorVsDelta:

    def test_scaled_excess_is_flat(self):
        table, fits = sweep_error_vs_delta(
            [4.0], [1500.0, 3000.0], math.pi, 20.0 / 1500.0)
        assert table.columns == ("gamma", "detuning", "error", "error_floor",
                                 "estimate", "scaled_excess")
        assert fits[4.0].model == "inverse"
        scaled = table.column("scaled_excess")
        assert abs(scaled[1] - scaled[0]) / scaled[0] < 0.10
        dets = table.column("detuning")
        assert np.all(np.diff(dets) > 0.0)  # sorted rows


class TestRatioGrid:

    def test_small_grid(self):
        table = ratio_grid([5.0, 10.0], [1500.0], math.pi, 20.0 / 1500.0)
        assert table.columns == ("gamma", "detuning", "error", "estimate",
                                 "ratio", "floor_fraction", "floor_dominated")
        for row in table.rows:
            assert row[4] == pytest.approx(row[2] / row[3], rel=1e-12)
            assert row[4] > 0.2
            assert row[6] == 0.0

    def test_percent_level_guard(self):
        with pytest.raises(ConfigurationError):
            ratio_grid([40.0], [1500.0], math.pi, 20.0 / 1500.0)

    def test_percent_level_guard_warns(self):
        with pytest.warns(UserWarning, match="percent-level"):
            ratio_grid([40.0], [1500.0], math.pi, 20.0 / 1500.0,
                       enforce_regime=False)


class TestTraceRun:

    def test_drive_off_is_stationary(self):
        drive = DriveConfig(detuning=1500.0, tau=0.01, x_max=0.0)
        records = trace_run(drive, record_stride=10)
        assert len(records) > 10
        for rec in records:
            assert rec.pop0 == pytest.approx(1.0, abs=1e-12)
            assert rec.purity == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_stride(self):
        drive = DriveConfig(detuning=1500.0, tau=0.01, x_max=0.0)
        with pytest.raises(ConfigurationError):
            trace_run(drive, record_stride=0)

    def test_records_to_table(self):
        drive = DriveConfig(detuning=1500.0, tau=0.01, x_max=0.0)
        records = trace_run(drive, record_stride=50)
        table = records_to_table(records, drive, DecayConfig())
        assert table.columns == ("t", "pop0", "pop1", "pop_x", "purity",
                                 "p1", "p2", "p3")
        assert len(table) == len(records)
        for key in ("table", "tool", "envelope", "u_b", "detuning_inv_ns",
                    "tau_ns", "x_max", "gamma0_inv_ns", "prefactor",
                    "final_time"):
            assert key in table.metadata


class TestMetadata:

    def test_gamma_sweep_metadata_complete(self):
        table, _ = sweep_error_vs_gamma([3000.0], [0.0], math.pi, 0.0133)
        for key in ("table", "tool", "envelope", "u_b", "angle_rad",
                    "tau_ns", "detunings_inv_ns", "gammas_inv_ns",
                    "gamma_split", "prefactor", "alpha_rad", "beta_rad",
                    "dt_rule", "final_time"):
            assert key in table.metadata
        assert table.metadata["table"] == "error-vs-gamma"
