"""Write bench/reference.json: every pool point at step-halved resolution.

    PYTHONPATH=src python3 bench/make_reference.py

Master-equation values use dt = 0.01 / z_max (half the program's default
step rule 0.02 / z_max) through the public `dt` argument; amplitude values
use steps_per_unit = 4000 (twice the default 2000).  Inputs go through the
CLI's own parsers so the floats match what a request hands the program.
Points run in a pool of one process per usable core.  The file records the
commit and source digest the values came from.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from envinfo import environment  # noqa: E402

HALF_DT_Z = 0.01
HALF_STEPS_PER_UNIT = 4000


def _drive(angle, delta_mev, tau):
    from ramansim.cli import parse_angle, parse_time
    from ramansim.lambda_frame import DriveConfig
    return DriveConfig.for_rotation(parse_angle(angle), delta_mev * wl.MEV,
                                    parse_time(tau))


def _decay(gamma):
    from ramansim.lindblad import DecayConfig
    return DecayConfig(gamma0=0.5 * gamma, gamma1=0.5 * gamma)


def _gate(angle, delta_mev, tau, gamma):
    from ramansim.cli import parse_angle
    from ramansim.lambda_frame import RotationSpec
    from ramansim.lindblad import gate_error_mixed
    drive = _drive(angle, delta_mev, tau)
    target = RotationSpec.from_angles(parse_angle(angle), 0.0, math.pi / 4)
    return {"error": gate_error_mixed(drive, _decay(gamma), target=target,
                                      dt=HALF_DT_Z / drive.z_max)}


def _trace(angle, delta_mev, tau, gamma):
    import numpy as np
    from ramansim.lindblad import adiabatic_populations, propagate_master, purity
    drive = _drive(angle, delta_mev, tau)
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rho, _ = propagate_master(rho0, drive, _decay(gamma),
                              dt=HALF_DT_Z / drive.z_max)
    p1, p2, p3 = adiabatic_populations(rho, drive, drive.t_final)
    return {"pop0": float(rho[0, 0].real), "pop1": float(rho[1, 1].real),
            "pop_x": float(rho[2, 2].real), "purity": purity(rho),
            "p1": p1, "p2": p2, "p3": p3}


def _pure(angle, chi):
    from ramansim.cli import parse_angle
    from ramansim.lambda_frame import solve_xmax
    from ramansim.nonadiabatic import gate_error_pure, integrate_amplitudes
    x = solve_xmax(parse_angle(angle), chi)
    amps = integrate_amplitudes(chi, x, steps_per_unit=HALF_STEPS_PER_UNIT)
    return x, gate_error_pure(amps.a2, amps.a3).error


def _closed(angle, chi):
    x, err = _pure(angle, float(chi))
    return {"error": err, "x_max": x}


def _floor(angle, delta_mev, tau):
    from ramansim.cli import parse_time
    _, err = _pure(angle, delta_mev * wl.MEV * parse_time(tau))
    return {"error_floor": err}


def tasks():
    """(key, function name, args) for every pool point."""
    out = []
    p = wl.GATE_OPEN
    for a in p["angles"]:
        for d in p["deltas_mev"]:
            for g in p["gammas"]:
                out.append(("open|%s|%d|%d" % (a, d, g), "_gate", (a, d, p["tau"], g)))
                out.append(("trace|%s|%d|%d" % (a, d, g), "_trace", (a, d, p["tau"], g)))
    p = wl.CLOSED_CHI
    for a in p["angles"]:
        for c in p["chis"]:
            out.append(("closed|%s|%d" % (a, c), "_closed", (a, c)))
    p = wl.DECAY_GRID
    for a in p["angles"]:
        for d in p["deltas_mev"]:
            out.append(("floor|%s|%d" % (a, d), "_floor", (a, d, p["tau"])))
            for g in p["gammas"]:
                out.append(("decay|%s|%d|%d" % (a, d, g), "_gate", (a, d, p["tau"], g)))
    return out


def _run(task):
    key, fn, args = task
    return key, globals()[fn](*args)


def main():
    t0 = time.perf_counter()
    todo = tasks()
    # longest first, so the pool does not end on one slow straggler
    todo.sort(key=lambda t: -(t[2][1] if t[1] in ("_gate", "_trace") else 0))
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        values = dict(pool.imap_unordered(_run, todo))
    meta = {
        "resolution": {"master_dt": "%g/z_max" % HALF_DT_Z,
                       "steps_per_unit": HALF_STEPS_PER_UNIT},
        "tolerance": wl.TOLERANCE,
        "environment": environment(ROOT),
        "seconds": round(time.perf_counter() - t0, 1),
    }
    out = os.path.join(HERE, "reference.json")
    with open(out, "w") as fh:
        json.dump({"meta": meta, "values": dict(sorted(values.items()))},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d points to %s" % (len(values), out))


if __name__ == "__main__":
    main()
