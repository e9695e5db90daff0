"""Command-line parsing, exit codes and CSV round-trips."""

import inspect
import math
import os
import random
import shlex
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import ramansim.cli
import ramansim.lindblad
import ramansim.nonadiabatic
from ramansim import (DEFAULT_BETA, ConfigurationError, DecayConfig,
                      DriveConfig, PhysicalUnits, PulseEnvelope, RotationSpec,
                      gate_error_mixed, integrate_amplitudes,
                      integrate_amplitudes_batch, nonadiabatic_error,
                      ratio_grid, solve_xmax, sweep_error_vs_chi)
from ramansim.cli import (make_energy_parser, make_list_parser, parse_angle,
                          parse_initial, parse_rate, parse_time, run)
from ramansim.lindblad import DT_Z_LIMIT, WORST_CASE_DT_Z_LIMIT
from ramansim.nonadiabatic import STEPS_PER_UNIT
from ramansim.sweeps import (CHI_REGIME_MIN, sweep_error_vs_delta,
                             sweep_error_vs_gamma)

ROUNDED = PhysicalUnits(mev_to_inv_ns=1500.0)


def kv_from_stdout(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            out[k] = v
    return out


class TestParsers:

    def test_angle_forms(self):
        assert parse_angle("pi") == math.pi
        assert parse_angle("2pi") == 2.0 * math.pi
        assert parse_angle("pi/2") == math.pi / 2.0
        assert parse_angle("0.5pi") == 0.5 * math.pi
        assert parse_angle("-pi/2") == -math.pi / 2.0
        assert parse_angle("1.5") == 1.5

    def test_angle_rejects(self):
        with pytest.raises(ConfigurationError):
            parse_angle("twopi")

    def test_energy_units(self):
        energy = make_energy_parser(ROUNDED)
        assert energy("1meV") == 1500.0
        assert energy("2.5ns^-1") == 2.5
        assert energy("0") == 0.0
        with pytest.raises(ConfigurationError):
            energy("3")

    def test_time_units(self):
        assert parse_time("10ps") == pytest.approx(0.01, rel=1e-15)
        assert parse_time("0.5ns") == 0.5
        assert parse_time("0") == 0.0
        with pytest.raises(ConfigurationError):
            parse_time("1")

    def test_rate_units(self):
        assert parse_rate("2ns^-1") == 2.0
        with pytest.raises(ConfigurationError):
            parse_rate("5")

    def test_list_range_with_shared_suffix(self):
        energy_list = make_list_parser(make_energy_parser(ROUNDED))
        values = energy_list("1:8:1meV")
        assert values == [1500.0 * k for k in range(1, 9)]

    def test_list_comma_form(self):
        rate_list = make_list_parser(parse_rate)
        assert rate_list("2,6,10ns^-1") == [2.0, 6.0, 10.0]

    def test_list_units_per_element(self):
        energy_list = make_list_parser(make_energy_parser(ROUNDED))
        assert energy_list("1meV,2meV") == energy_list("1,2meV") == [
            1500.0, 3000.0]
        assert energy_list("1meV,2ns^-1") == [1500.0, 2.0]
        assert energy_list("1meV:2:1meV") == energy_list("1:2:1meV")
        assert make_list_parser(parse_rate)("2ns^-1,4ns^-1") == [2.0, 4.0]
        with pytest.raises(ConfigurationError, match="missing unit suffix"):
            energy_list("1meV,2")

    def test_list_plain_floats(self):
        float_list = make_list_parser(float)
        assert float_list("2:4:0.5") == [2.0, 2.5, 3.0, 3.5, 4.0]
        with pytest.raises(ConfigurationError):
            float_list("4:2:1")

    @pytest.mark.parametrize("text", ["1:inf:1", "-inf:2:1", "1:2:inf",
                                      "nan:2:1", "1:nan:1", "1:2:nan"])
    def test_list_range_rejects_non_finite(self, text):
        with pytest.raises(ConfigurationError, match="finite"):
            make_list_parser(float)(text)

    def test_initial_named(self):
        psi = parse_initial("+i")
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(psi, [s, 1j * s, 0.0], atol=1e-15)

    def test_initial_angles(self):
        psi = parse_initial("pi/2,pi")
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(psi, [s, -s, 0.0], atol=1e-12)

    def test_initial_rejects(self):
        with pytest.raises(ConfigurationError):
            parse_initial("junk")


class TestExitCodes:

    def test_gate_pure_success(self, capsys):
        rc = run(["gate", "--angle", "pi", "--chi", "15"])
        assert rc == 0
        kv = kv_from_stdout(capsys.readouterr().out)
        assert float(kv["error"]) < 1e-4
        assert float(kv["p_star"]) == pytest.approx(0.5, abs=0.01)

    def test_gate_pure_calibrates_once(self, capsys, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_xmax(*args, **kwargs)

        monkeypatch.setattr(ramansim.cli, "solve_xmax", counting)
        monkeypatch.setattr(ramansim.nonadiabatic, "solve_xmax", counting)
        assert run(["gate", "--angle", "pi", "--chi", "21"]) == 0
        assert len(calls) == 1
        kv = kv_from_stdout(capsys.readouterr().out)
        res = nonadiabatic_error(math.pi, 21.0)
        assert kv["x_max"] == "%.12g" % solve_xmax(math.pi, 21.0)
        assert kv["error"] == "%.12g" % res.error
        assert kv["abs_c"] == "%.12g" % abs(res.c)
        assert kv["abs_d"] == "%.12g" % abs(res.d)
        assert kv["p_star"] == "%.12g" % res.p_star

    def test_gate_pure_marches_once(self, capsys, monkeypatch):
        shapes = []
        batch = ramansim.nonadiabatic.integrate_amplitudes_batch

        def counting(chi, x_max, *args, **kwargs):
            shapes.append(np.shape(chi))
            return batch(chi, x_max, *args, **kwargs)

        monkeypatch.setattr(ramansim.nonadiabatic,
                            "integrate_amplitudes_batch", counting)
        assert run(["gate", "--angle", "pi", "--chi", "21"]) == 0
        assert shapes == [(1,)]
        capsys.readouterr()

    @pytest.mark.parametrize("line", [
        "gate --angle pi --chi 21",
        "sweep-chi --angle pi --angle pi/2 --chi 20,40",
        "ratio-grid --angle pi --tau 14ps --delta 2meV --gamma 4ns^-1",
    ])
    def test_decay_free_paths_skip_scalar_kernel(self, line, capsys,
                                                 monkeypatch):
        def scalar(*args, **kwargs):
            raise AssertionError("scalar amplitude kernel called")

        # at every binding of the package's that holds it
        original = ramansim.nonadiabatic.integrate_amplitudes
        for name, module in list(sys.modules.items()):
            if (name.partition(".")[0] == "ramansim" and getattr(
                    module, "integrate_amplitudes", None) is original):
                monkeypatch.setattr(module, "integrate_amplitudes", scalar)
        assert run(shlex.split(line)) == 0
        capsys.readouterr()

    def test_gate_decay_output(self, capsys, monkeypatch):
        calls = []
        batch = ramansim.lindblad._propagate_batch

        def counting(*args, **kwargs):
            calls.append(args)
            return batch(*args, **kwargs)

        monkeypatch.setattr(ramansim.lindblad, "_propagate_batch", counting)
        assert run(["gate", "--angle", "pi/2", "--delta", "1meV", "--tau",
                    "13.3ps", "--gamma0", "2ns^-1", "--gamma1", "6ns^-1",
                    "--alpha", "0.3"]) == 0
        assert len(calls) == 1
        kv = kv_from_stdout(capsys.readouterr().out)
        assert list(kv) == ["chi", "x_max", "error", "estimate", "ratio",
                            "prefactor", "worst_n_x", "worst_n_y",
                            "worst_n_z"]
        drive = DriveConfig.for_rotation(math.pi / 2, 1500.0, 0.0133,
                                         alpha=0.3)
        target = RotationSpec.from_angles(math.pi / 2, 0.3)
        error = gate_error_mixed(drive, DecayConfig(gamma0=2.0, gamma1=6.0),
                                 target)
        assert kv["error"] == "%.12g" % error
        n = [float(kv["worst_n_" + k]) for k in "xyz"]
        assert math.hypot(*n) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("dt_z", [None, 0.02], ids=["default", "half"])
    def test_gate_prints_rounding_zero_components_as_zero(self, dt_z,
                                                          capsys):
        # n_y and n_z are zero up to rounding here, at the default step
        # (Z dt = 0.04) and at half of it
        argv = ["gate", "--angle", "pi", "--delta", "1meV", "--tau",
                "13.3ps", "--gamma0", "2ns^-1", "--gamma1", "2ns^-1"]
        if dt_z is not None:
            drive = DriveConfig.for_rotation(math.pi, 1500.0, 0.0133)
            argv += ["--dt", "%.17gns" % (dt_z / drive.z_max)]
        assert run(argv) == 0
        kv = kv_from_stdout(capsys.readouterr().out)
        assert kv["worst_n_y"] == kv["worst_n_z"] == "0"
        assert abs(float(kv["worst_n_x"])) == pytest.approx(1.0, abs=1e-11)

    def test_gate_decay_matches_sweep_chi_row(self, capsys, monkeypatch):
        # 1 meV * (24.5 / 1 meV) is not 24.5 in floating point: the gate
        # calibrates at the chi it was given, as the sweep does
        calls, marches = [], []
        march = ramansim.lindblad._propagate_batch

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_xmax(*args, **kwargs)

        def counting_march(*args, **kwargs):
            marches.append(args)
            return march(*args, **kwargs)

        monkeypatch.setattr(ramansim.cli, "solve_xmax", counting)
        monkeypatch.setattr(ramansim.lindblad, "_propagate_batch",
                            counting_march)
        ramansim.lindblad._worst_case.cache_clear()
        flags = ["--angle", "pi", "--chi", "24.5", "--delta", "1meV",
                 "--gamma0", "2ns^-1", "--gamma1", "6ns^-1"]
        assert run(["gate"] + flags) == 0
        assert len(calls) == len(marches) == 1
        kv = kv_from_stdout(capsys.readouterr().out)
        assert run(["sweep-chi"] + flags) == 0
        header, row = capsys.readouterr().out.splitlines()[-2:]
        row = dict(zip(header.split(","), row.split(",")))
        for key in ("x_max", "error", "estimate", "ratio"):
            assert kv[key] == row[key]

    def test_gate_pure_rejects_zero_angle(self, capsys):
        assert run(["gate", "--angle", "0", "--chi", "21"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_gate_decay_rejects_zero_angle(self, capsys):
        # the zero estimate would divide by zero in the printed ratio
        assert run(["gate", "--angle", "0", "--delta", "1meV", "--tau",
                    "14ps", "--gamma0", "1ns^-1"]) == 2
        assert capsys.readouterr().err == "error: angle must be positive\n"

    @pytest.mark.parametrize("argv", [
        ["trace", "--angle", "pi", "--delta", "1meV", "--chi", "15",
         "--grid", "3x3"],
        ["trace", "--angle", "pi", "--delta", "1meV", "--chi", "15",
         "--steps-per-unit", "7"],
        ["sweep-chi", "--angle", "pi", "--chi", "15", "--grid", "3x3"],
        ["gate", "--angle", "pi", "--delta", "1meV", "--tau", "13.3ps",
         "--gamma0", "5ns^-1", "--grid", "17x32"],
        ["frame", "--angle", "pi", "--chi", "15", "-o", "out.csv"],
        ["gate", "--angle", "pi", "--chi", "15", "-o", "out.csv"],
        ["sweep-xmax", "--angle", "pi", "--chi", "20,21", "--alpha", "0.3"],
        ["sweep-xmax", "--angle", "pi", "--chi", "20,21", "--beta", "0.3"],
        # each step flag is read by one path only
        ["gate", "--angle", "pi", "--chi", "15", "--dt", "1ns"],
        ["sweep-chi", "--angle", "pi", "--chi", "15", "--dt", "1ns"],
        ["gate", "--angle", "pi", "--delta", "1meV", "--tau", "13.3ps",
         "--gamma0", "5ns^-1", "--steps-per-unit", "2000"],
        ["sweep-chi", "--angle", "pi", "--chi", "20", "--delta", "1meV",
         "--gamma0", "5ns^-1", "--steps-per-unit", "2000", "-o",
         "out.csv"],
        # the detuning is read only with decay
        ["sweep-chi", "--angle", "pi", "--chi", "20", "--delta", "0meV"],
    ])
    def test_unread_flags_rejected(self, argv, capsys, tmp_path,
                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("units, code", [("rounded", 0),
                                             ("physical", 2)])
    def test_timing_triple(self, units, code, capsys):
        # 1 meV * 10 ps is chi = 15 in rounded units and 15.193 in
        # physical ones
        assert run(["--units", units, "frame", "--angle", "pi", "--chi",
                    "15", "--delta", "1meV", "--tau", "10ps"]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: --chi contradicts")

    def test_trace_needs_physical_timing(self, capsys):
        assert run(["trace", "--angle", "pi", "--chi", "15"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "needs physical timing" in err

    @pytest.mark.parametrize("argv", [
        ["gate", "--angle", "pi", "--chi", "15", "--steps-per-unit", "0"],
        ["gate", "--angle", "pi", "--delta", "1meV", "--tau", "13.3ps",
         "--gamma0", "5ns^-1", "--steps-per-unit", "0"],
        ["sweep-chi", "--angle", "pi", "--chi", "15", "--steps-per-unit",
         "0"],
        ["trace", "--angle", "pi", "--delta", "1meV", "--chi", "15",
         "--stride", "0"],
    ])
    def test_step_counts_must_be_positive(self, argv, capsys):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_output_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv"
        rc = run(["sweep-xmax", "--angle", "pi", "--chi", "20,21",
                  "-o", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert not (tmp_path / "no").exists()

    def test_missing_unit_is_usage_error(self, capsys):
        rc = run(["gate", "--angle", "pi", "--delta", "1", "--tau", "10ps"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["frame", "--angle", "pi", "--delta", "1", "--tau", "10ps"],
         "argument --delta: missing unit suffix on energy '1'"),
        (["frame", "--angle", "pi", "--delta", "1:4meV", "--tau", "10ps"],
         "argument --delta: cannot parse '1:4meV'"),
        (["sweep-gamma", "--angle", "pi", "--tau", "13.3ps", "--delta",
          "1:4meV", "--gamma", "2ns^-1"],
         "argument --delta: range must be start:stop:step: '1:4meV'"),
        (["frame", "--angle", "xyz", "--chi", "15"],
         "argument --angle: cannot parse angle 'xyz'"),
        (["sweep-gamma", "--angle", "pi", "--tau", "13.3ps", "--delta",
          "1meV,2", "--gamma", "2ns^-1"],
         "argument --delta: missing unit suffix on energy '2'"),
    ])
    def test_parser_message_shown(self, argv, message, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(": error: " + message)

    def test_underspecified_timing(self, capsys):
        rc = run(["gate", "--angle", "pi"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_numeric_failure_exit_code(self, capsys):
        rc = run(["gate", "--angle", "pi", "--chi", "500"])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_gate_dt_above_limit(self, capsys):
        drive = DriveConfig.for_rotation(math.pi, 1500.0, 0.0133)
        rc = run(["gate", "--angle", "pi", "--delta", "1meV", "--tau",
                  "13.3ps", "--gamma0", "2ns^-1", "--dt",
                  "%.17gns" % (0.05 / drive.z_max)])
        assert rc == 3
        assert "exceeds 0.04" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "gate --angle pi --delta 1meV --tau 13.3ps --gamma0 1ns^-1",
        "trace --angle pi --delta 1meV --tau 13.3ps --gamma0 1ns^-1",
        "ratio-grid --angle pi --tau 14ps --delta 2meV --gamma 2ns^-1",
        "sweep-chi --angle pi --chi 20 --delta 1meV --gamma0 1ns^-1",
    ])
    def test_non_finite_dt_rejected(self, line, capsys):
        # non-finite input is a configuration error, unlike a finite step
        # above the limit (test_gate_dt_above_limit)
        assert run(shlex.split(line) + ["--dt", "infns"]) == 2
        assert (capsys.readouterr().err
                == "error: dt must be positive and finite\n")

    @pytest.mark.parametrize("line, code", [
        ("frame --angle nan --chi 20", 2),
        ("gate --angle inf --chi 20", 2),
        ("frame --angle pi --chi inf", 2),
        ("frame --angle pi --chi 20 --ub inf", 2),
        ("frame --angle 1e300 --chi 20", 3),
    ])
    def test_non_finite_and_overflowing_calibration(self, line, code, capsys):
        # non-finite input is a configuration error; a finite angle too
        # large to calibrate is numerical trouble
        assert run(shlex.split(line)) == code
        err = capsys.readouterr().err
        assert err.startswith("error:" if code == 2 else "numeric failure")

    @pytest.mark.parametrize("line, message", [
        ("gate --angle pi --chi 15 --delta 0meV", "--delta"),
        ("gate --angle pi --chi 15 --tau 0ps", "--tau"),
        ("gate --angle pi --chi 15 --delta infmeV", "--delta"),
        ("gate --angle pi --chi 15 --tau=-2ps", "--tau"),
        ("frame --angle pi --chi 15 --delta 0meV", "--delta"),
        ("frame --angle pi --chi 15 --tau infps", "--tau"),
        ("trace --angle pi --chi 15 --tau 0ps", "--tau"),
        ("trace --angle pi --chi 15 --delta nanmeV", "--delta"),
    ])
    def test_timing_rejects_non_positive_or_non_finite(self, line, message,
                                                       capsys):
        assert run(shlex.split(line)) == 2
        assert capsys.readouterr().err == (
            "error: %s must be positive and finite\n" % message)

    @pytest.mark.parametrize("line", [
        "gate --angle pi --delta 1meV --tau 13.3ps --gamma0 nanns^-1",
        "gate --angle pi --delta 1meV --tau 13.3ps --gamma1 infns^-1",
        "trace --angle pi --delta 1meV --tau 13.3ps --gamma0 nanns^-1",
        "sweep-chi --angle pi --chi 20 --delta 1meV --gamma0 nanns^-1",
        "ratio-grid --angle pi --tau 14ps --delta 2meV --gamma nanns^-1",
        "ratio-grid --angle pi --tau 14ps --delta 2meV --gamma infns^-1",
    ])
    def test_non_finite_decay_rate_rejected(self, line, capsys):
        assert run(shlex.split(line)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("line, flag", [
        ("sweep-xmax --angle pi --chi 1:inf:1", "--chi"),
        ("ratio-grid --angle pi --tau 14ps --delta 2meV "
         "--gamma 1:inf:1ns^-1", "--gamma"),
    ])
    def test_range_with_infinite_bound_rejected(self, line, flag, capsys):
        assert run(shlex.split(line)) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.endswith(": error: argument %s: range bounds and step "
                            "must be finite: %r" % (flag, line.split()[-1]))

    @pytest.mark.parametrize("line", [
        "trace --angle pi --delta 1meV --tau 12ps --gamma0 1ns^-1 "
        "--gamma1 1ns^-1",
        "trace --angle pi --delta 1meV --chi 18",
    ])
    def test_trace_at_rounding_gate_time(self, line, tmp_path, capsys):
        # (u_b tau) / tau rounds one ulp past u_b at these gate times
        out = tmp_path / "t.csv"
        assert run(shlex.split(line) + ["-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[-1].startswith("0.036,")

    @pytest.mark.parametrize("beta", ["6.5", "2"])
    def test_frame_checks_beta(self, beta, capsys):
        # the same check as gate and trace apply through DriveConfig
        assert run(["frame", "--angle", "pi", "--chi", "15", "--beta",
                    beta]) == 2
        assert (capsys.readouterr().err
                == "error: beta must lie in [0, pi/2]\n")

    @pytest.mark.parametrize("line, message", [
        ("sweep-chi --angle pi --chi 15 --beta nan", "beta must lie in"),
        ("gate --angle pi --chi 20 --alpha inf", "alpha must be finite"),
        ("gate --angle pi --chi 20 --beta 6.5", "beta must lie in"),
        ("sweep-chi --angle pi --chi 15 --beta 2", "beta must lie in"),
    ])
    def test_decay_free_paths_check_axis(self, line, message, capsys):
        # the error does not depend on the axis, but a bad one is rejected
        # as on the decay paths
        assert run(shlex.split(line)) == 2
        assert capsys.readouterr().err.startswith("error: " + message)

    @pytest.mark.parametrize("subcommand", ["sweep-gamma", "sweep-delta",
                                            "ratio-grid"])
    def test_grids_check_axis(self, subcommand, capsys):
        # the axis is checked before the target is built from it, where
        # cos(inf) would raise a ValueError
        assert run([subcommand, "--angle", "pi", "--tau", "14ps", "--delta",
                    "2meV", "--gamma", "2ns^-1", "--alpha", "inf"]) == 2
        assert capsys.readouterr().err == "error: alpha must be finite\n"

    def test_frame_output(self, capsys):
        rc = run(["frame", "--angle", "pi", "--chi", "15"])
        assert rc == 0
        kv = kv_from_stdout(capsys.readouterr().out)
        assert kv["x_max"] == "0.390804588478"
        assert float(kv["rotation_angle_rad"]) == pytest.approx(math.pi,
                                                                abs=1e-9)

    def test_physical_units_flag(self, capsys):
        rc = run(["--units", "physical", "frame", "--angle", "pi",
                  "--delta", "1meV", "--tau", "10ps"])
        assert rc == 0
        kv = kv_from_stdout(capsys.readouterr().out)
        assert float(kv["chi"]) == pytest.approx(15.193, rel=1e-12)

    def test_units_switch_between_calls(self, capsys):
        argv = ["frame", "--angle", "pi", "--delta", "1meV", "--tau", "10ps"]
        assert run(["--units", "physical"] + argv) == 0
        assert kv_from_stdout(capsys.readouterr().out)["chi"] == "15.193"
        assert run(argv) == 0
        assert kv_from_stdout(capsys.readouterr().out)["chi"] == "15"

    def test_library_rebinding_honoured_after_warm_run(self, capsys,
                                                       monkeypatch):
        # handlers must look library functions up at call time, so that
        # a rebinding after the first run (as a tracer does) takes effect
        argv = ["ratio-grid", "--angle", "pi", "--tau", "14ps", "--delta",
                "2meV", "--gamma", "4ns^-1"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        calls = []
        original = ramansim.cli.ratio_grid

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ramansim.cli, "ratio_grid", counting)
        assert run(argv) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == first

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()


class TestDefaults:
    """Each CLI default and quoted limit is the library's own value."""

    def help_text(self, subcommand, capsys):
        assert run([subcommand, "--help"]) == 0
        return " ".join(capsys.readouterr().out.split())

    def test_ub_default(self):
        args = ramansim.cli.build_parser(ROUNDED).parse_args(
            ["frame", "--angle", "pi", "--chi", "15"])
        assert args.ub == PulseEnvelope().u_b

    def test_prefactor_default(self):
        args = ramansim.cli.build_parser(ROUNDED).parse_args(
            ["gate", "--angle", "pi", "--chi", "15"])
        assert args.prefactor == DecayConfig().prefactor

    def test_beta_default(self):
        assert DEFAULT_BETA == math.pi / 4
        args = ramansim.cli.build_parser(ROUNDED).parse_args(
            ["frame", "--angle", "pi", "--chi", "15"])
        assert args.beta is DEFAULT_BETA
        assert DriveConfig(detuning=1.0, tau=1.0, x_max=0.0).beta \
            is DEFAULT_BETA
        for fn in (RotationSpec.from_angles, DriveConfig.for_rotation,
                   sweep_error_vs_chi, sweep_error_vs_gamma,
                   sweep_error_vs_delta, ratio_grid):
            default = inspect.signature(fn).parameters["beta"].default
            assert default is DEFAULT_BETA

    @pytest.mark.parametrize("subcommand", ["gate", "trace", "sweep-chi",
                                            "ratio-grid"])
    def test_dt_help_quotes_step_limits(self, subcommand, capsys):
        text = self.help_text(subcommand, capsys)
        assert ("defaults to %g/Z_max for worst-case errors and %g/Z_max "
                "for traces" % (WORST_CASE_DT_Z_LIMIT, DT_Z_LIMIT)) in text

    def test_regime_guard_help_quotes_chi_min(self, capsys):
        text = self.help_text("sweep-delta", capsys)
        assert "demote the chi >= %g guard" % CHI_REGIME_MIN in text

    def test_amplitude_step_default(self, capsys):
        for fn in (integrate_amplitudes, integrate_amplitudes_batch,
                   nonadiabatic_error, sweep_error_vs_chi):
            default = inspect.signature(fn).parameters["steps_per_unit"]
            assert default.default == STEPS_PER_UNIT
        argv = ["gate", "--angle", "pi", "--chi", "21"]
        assert run(argv) == 0
        implicit = capsys.readouterr().out
        assert run(argv + ["--steps-per-unit", str(STEPS_PER_UNIT)]) == 0
        assert capsys.readouterr().out == implicit

    @pytest.mark.parametrize("argv", [
        ["gate", "--angle", "pi", "--delta", "1meV", "--tau", "13.3ps",
         "--gamma0", "5ns^-1"],
        ["trace", "--angle", "pi", "--delta", "1meV", "--tau", "13.3ps",
         "--gamma0", "5ns^-1"],
        ["ratio-grid", "--angle", "pi", "--tau", "14ps", "--delta", "2meV",
         "--gamma", "4ns^-1"],
    ])
    def test_prefactor_rule_is_decay_configs(self, argv, capsys):
        assert run(argv + ["--prefactor", "0.7"]) == 2
        assert capsys.readouterr().err == (
            "error: prefactor must be 1/2 or 1\n")


class TestExtremeInputs:

    def test_wide_envelope_is_calibrated_or_exits_3(self, capsys):
        # one 32-node panel over [0, 1000] printed x_max = 0.6415 here;
        # the drive must realise pi, by adaptive quadrature over f's support
        rc = run(["gate", "--angle", "pi", "--chi", "15", "--ub", "1e3"])
        assert rc in (0, 3)
        if rc == 3:
            return
        x = float(kv_from_stdout(capsys.readouterr().out)["x_max"])
        env = PulseEnvelope(u_b=1e3)

        def integrand(u):
            s = 4.0 * x * x * env.value(u) ** 2
            return s / (math.sqrt(1.0 + s) + 1.0)

        val, _ = quad(integrand, 0.0, 34.0, epsabs=0.0, epsrel=2e-14,
                      limit=500)
        assert 15.0 * val == pytest.approx(math.pi, rel=1e-11)

    def test_tail_beyond_support_is_free(self, capsys):
        # f = 0 beyond u = 33: a wider pulse adds a phase and no steps
        out = {}
        for u_b in ("40", "1e9"):
            assert run(["gate", "--angle", "pi", "--chi", "15", "--ub",
                        u_b]) == 0
            kv = kv_from_stdout(capsys.readouterr().out)
            out[u_b] = (kv["x_max"], kv["error"])
        assert out["1e9"] == out["40"]

    def test_seeded_extreme_argv(self, capsys):
        # every outcome is a result, a configuration error or a numerical
        # failure, and no result prints a non-finite number; each value is
        # drawn from the bad pool one time in eight
        rng = random.Random(41)
        pools = {
            "--angle": (("pi", "pi/2", "2pi", "40pi", "1e-9", "1e3"),
                        ("0", "-1", "nan", "inf")),
            "--chi": (("1e-9", "1e-3", "0.5", "15", "160", "500", "1e4",
                       "1e9"), ("0", "-2", "nan", "inf")),
            "--ub": (("1e-4", "0.5", "3", "12", "50", "1e3"),
                     ("0", "-1", "nan", "inf")),
            "--alpha": (("0", "-pi", "1e3"), ("nan", "inf")),
            "--beta": (("0", "pi/4", "pi/2"), ("-0.1", "pi", "nan")),
            "--steps-per-unit": (("1", "7", "100", "2000"), ("0", "-3")),
        }

        def draw(flag):
            good, bad = pools[flag]
            return rng.choice(bad if rng.random() < 0.125 else good)

        codes = set()
        for _ in range(60):
            cmd = rng.choice(("gate", "frame", "sweep-chi"))
            argv = [cmd, "--angle", draw("--angle"), "--ub", draw("--ub"),
                    "--chi", (",".join((draw("--chi"), draw("--chi")))
                              if cmd == "sweep-chi" else draw("--chi"))]
            for flag in ("--alpha", "--beta", "--steps-per-unit"):
                if rng.random() < 0.4 and (cmd, flag) != (
                        "frame", "--steps-per-unit"):
                    argv += [flag, draw(flag)]
            rc = run(argv)
            out = capsys.readouterr().out.lower().splitlines()
            assert rc in (0, 2, 3), argv
            codes.add(rc)
            values = [line for line in out
                      if not line.startswith("# command=")]
            assert not any("nan" in v or "inf" in v for v in values), argv
        assert codes == {0, 2, 3}


class TestCsvOutput:

    def test_trace_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "trace.csv"
        argv = ["trace", "--angle", "pi", "--delta", "1meV", "--chi", "15",
                "--stride", "50", "-o", str(out)]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first

    def test_trace_replays_from_command_line(self, tmp_path):
        out = tmp_path / "trace.csv"
        argv = ["trace", "--angle", "pi", "--delta", "1meV", "--chi", "15",
                "--stride", "50", "-o", str(out)]
        assert run(argv) == 0
        first = out.read_bytes()
        header = first.decode().splitlines()[0]
        assert header.startswith("# command=")
        replay = shlex.split(header[len("# command="):])
        assert run(replay) == 0
        assert out.read_bytes() == first

    def test_no_partial_files_left(self, tmp_path):
        out = tmp_path / "table.csv"
        argv = ["sweep-xmax", "--angle", "pi", "--chi", "10:30:10",
                "-o", str(out)]
        assert run(argv) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_sweep_xmax_rows(self, tmp_path):
        out = tmp_path / "xmax.csv"
        assert run(["sweep-xmax", "--angle", "pi", "--chi", "10:30:10",
                    "-o", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "chi,x_max"
        assert len(lines) == 4
        assert [float(l.split(",")[0]) for l in lines[1:]] == \
            [10.0, 20.0, 30.0]

    def test_sweep_chi_table(self, tmp_path):
        out = tmp_path / "err.csv"
        assert run(["sweep-chi", "--angle", "pi", "--chi", "15,20,25",
                    "-o", str(out)]) == 0
        text = out.read_text()
        assert "# table=error-vs-chi" in text
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "angle,chi,x_max,error,abs_c,abs_d,p_star"
        errors = [float(l.split(",")[3]) for l in lines[1:]]
        assert errors == sorted(errors, reverse=True)


@pytest.mark.parametrize("subcommand, argv, prefix", [
    ("sweep-gamma", ["--delta", "1meV", "--gamma", "2,6ns^-1"], "delta"),
    ("sweep-delta", ["--delta", "1,2meV", "--gamma", "4ns^-1"], "gamma"),
])
def test_grid_fits_in_metadata(subcommand, argv, prefix, tmp_path):
    out = tmp_path / "fit.csv"
    assert run([subcommand, "--angle", "pi", "--tau", "14ps"] + argv
               + ["-o", str(out)]) == 0
    energy = make_list_parser(make_energy_parser(ROUNDED))
    rate = make_list_parser(parse_rate)
    deltas, gammas = energy(argv[1]), rate(argv[3])
    tau = parse_time("14ps")
    if subcommand == "sweep-gamma":
        _, fits = sweep_error_vs_gamma(deltas, gammas, math.pi, tau)
    else:
        _, fits = sweep_error_vs_delta(gammas, deltas, math.pi, tau)
    assert len(fits) == 1
    (key, fit), = fits.items()
    expected = ("# fit_%s_%s=model=%s,coefficient=%r,r_squared=%r,"
                "residual_max=%r" % (prefix, "%.12g" % key, fit.model,
                                     fit.coefficient, fit.r_squared,
                                     fit.residual_max))
    lines = out.read_text().splitlines()
    assert expected in lines
    assert lines.index(expected) < lines.index(
        next(l for l in lines if not l.startswith("#")))


def test_run_path_imports_no_scipy(tmp_path):
    # scipy is a test-only dependency: a decay gate, a trace and a
    # ratio-grid must not import it
    code = """if True:
        import sys
        from ramansim.cli import run
        out = sys.argv[1]
        assert run(["gate", "--angle", "pi", "--delta", "1meV", "--tau",
                    "13.3ps", "--gamma0", "5ns^-1"]) == 0
        assert run(["trace", "--angle", "pi", "--delta", "1meV", "--tau",
                    "13.3ps", "--gamma1", "5ns^-1", "-o", out]) == 0
        assert run(["ratio-grid", "--angle", "pi", "--tau", "14ps",
                    "--delta", "2meV", "--gamma", "4ns^-1", "-o", out]) == 0
        print(sorted(m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")))
    """
    src = os.path.dirname(os.path.dirname(ramansim.cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code,
                           str(tmp_path / "out.csv")],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
