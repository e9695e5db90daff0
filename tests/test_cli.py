"""Command-line parsing, exit codes and CSV round-trips."""

import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

import ramansim.cli
from ramansim import (ConfigurationError, DecayConfig, DriveConfig,
                      PhysicalUnits, RotationSpec, gate_error_mixed,
                      nonadiabatic_error, solve_xmax)
from ramansim.cli import (make_energy_parser, make_list_parser, parse_angle,
                          parse_initial, parse_rate, parse_time, run)

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

    def test_list_plain_floats(self):
        float_list = make_list_parser(float)
        assert float_list("2:4:0.5") == [2.0, 2.5, 3.0, 3.5, 4.0]
        with pytest.raises(ConfigurationError):
            float_list("4:2:1")

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

    def test_gate_pure_rejects_zero_angle(self, capsys):
        assert run(["gate", "--angle", "0", "--chi", "21"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["trace", "--angle", "pi", "--delta", "1meV", "--chi", "15",
         "--grid", "3x3"],
        ["trace", "--angle", "pi", "--delta", "1meV", "--chi", "15",
         "--steps-per-unit", "7"],
        ["sweep-chi", "--angle", "pi", "--chi", "15", "--grid", "3x3"],
        ["gate", "--angle", "pi", "--delta", "1meV", "--tau", "13.3ps",
         "--gamma0", "5ns^-1", "--grid", "17x32"],
    ])
    def test_unread_flags_rejected(self, argv, capsys):
        assert run(argv) == 2
        capsys.readouterr()

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

    def test_underspecified_timing(self, capsys):
        rc = run(["gate", "--angle", "pi"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_numeric_failure_exit_code(self, capsys):
        rc = run(["gate", "--angle", "pi", "--chi", "500"])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

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

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()


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
