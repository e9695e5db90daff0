"""End-to-end acceptance gate, one test per numbered criterion.

Every test prints exactly one PASS/FAIL line directly to the terminal
(bypassing capture) so the whole gate reads at a glance, then asserts.
The last criterion reruns every error-bearing computation with all
integrator steps halved and compares the two result sets.
"""

import math
import time

import numpy as np
import pytest
from conftest import bare_final_state, integrate_bare_schrodinger

from ramansim import (DecayConfig, DriveConfig, eigensystem,
                      fit_linear_through_origin, gate_error_mixed,
                      gate_error_pure, hamiltonian, integrate_amplitudes,
                      integrate_amplitudes_batch, nonadiabatic_error,
                      propagate_master, purity, solve_xmax)

PI = math.pi
MEV = 1500.0          # rounded energy conversion, ns^-1 per meV
TAU_SCAN = 0.0133     # 13.3 ps gate halfwidth used by the decay scans
DELTA_GRID_MEV = (1.0, 2.0, 4.0, 8.0)
GAMMA_GRID = (2.0, 4.0, 6.0, 8.0, 10.0)
C2_ANGLES = (("half", PI / 2), ("pi", PI), ("two", 2.0 * PI))

_drive_cache = {}


def drive_for(angle, detuning, chi):
    key = (angle, detuning, chi)
    if key not in _drive_cache:
        _drive_cache[key] = DriveConfig.for_rotation(angle, detuning,
                                                     chi / detuning)
    return _drive_cache[key]


def mixed_error(drive, gamma_total, prefactor, scale):
    decay = DecayConfig(gamma0=0.5 * gamma_total, gamma1=0.5 * gamma_total,
                        prefactor=prefactor)
    dt = 0.02 / drive.z_max / scale
    return gate_error_mixed(drive, decay, dt=dt)


def pure_floor(chi, steps):
    x = solve_xmax(PI, chi)
    a2, a3, _ = integrate_amplitudes_batch(chi, x, steps_per_unit=steps)
    return gate_error_pure(complex(a2[0]), complex(a3[0])).error


def compute_suite(scale):
    """All reported error numbers at one resolution setting.

    scale=1 is the shipping resolution; scale=2 halves every integrator
    step (fixed-step RK4 in u and the master-equation step in t).
    """
    steps = 2000 * scale
    errors = {}
    times = {}
    aux = {"scale": scale, "times": times}

    def timed(key, fn):
        t0 = time.perf_counter()
        errors[key] = fn()
        times[key] = time.perf_counter() - t0

    # criterion 1: adiabatic error threshold
    t0 = time.perf_counter()
    errors["c1"] = nonadiabatic_error(PI, 15.0, steps_per_unit=steps).error
    aux["c1_seconds"] = time.perf_counter() - t0

    # criterion 2: error vs chi curves for three angles
    chis = np.concatenate([np.linspace(2.0, 8.0, 61), np.arange(9.0, 31.0)])
    aux["c2_chis"] = chis
    for tag, angle in C2_ANGLES:
        xs = np.array([solve_xmax(angle, float(c)) for c in chis])
        a2, a3, _ = integrate_amplitudes_batch(chis, xs,
                                               steps_per_unit=steps)
        errs = np.array([gate_error_pure(complex(u), complex(v)).error
                         for u, v in zip(a2, a3)])
        aux["c2_" + tag] = errs
        for c, e in zip(chis, errs):
            errors["c2_%s_%.4f" % (tag, c)] = float(e)

    # criterion 4, adiabatic side (the bare-basis oracle is scale-free
    # and is run once from the baseline fixture)
    rng = np.random.default_rng(183394721)
    draws = [(rng.uniform(0.5 * PI, 2.0 * PI), rng.uniform(2.0, 30.0))
             for _ in range(20)]
    aux["c4_draws"] = draws
    worst_norm = 0.0
    for i, (angle, chi) in enumerate(draws):
        x = solve_xmax(angle, chi)
        amps = integrate_amplitudes(chi, x, steps_per_unit=steps)
        errors["c4_%02d" % i] = gate_error_pure(amps.a2, amps.a3).error
        worst_norm = max(worst_norm,
                         abs(abs(amps.a2) ** 2 + abs(amps.a3) ** 2 - 1.0))
    aux["c5_norm_drift"] = worst_norm

    # criterion 8 grid; criteria 6 and 7 reuse its points
    for dm in DELTA_GRID_MEV:
        det = dm * MEV
        chi = det * TAU_SCAN
        drv = drive_for(PI, det, chi)
        aux["c8_floor_d%g" % dm] = pure_floor(chi, steps)
        for g in GAMMA_GRID:
            timed("c8_half_d%g_g%g" % (dm, g),
                  lambda d=drv, gg=g: mixed_error(d, gg, 0.5, scale))
            timed("c8_full_d%g_g%g" % (dm, g),
                  lambda d=drv, gg=g: mixed_error(d, gg, 1.0, scale))

    # criterion 6 extras: odd gammas at 2 meV complete the 1..10 scan
    drv6 = drive_for(PI, 2.0 * MEV, 2.0 * MEV * TAU_SCAN)
    for g in (1.0, 3.0, 5.0, 7.0, 9.0):
        timed("c6_g%g" % g, lambda gg=g: mixed_error(drv6, gg, 0.5, scale))
    aux["c6_seconds"] = (sum(times["c6_g%g" % g]
                             for g in (1.0, 3.0, 5.0, 7.0, 9.0))
                         + sum(times["c8_half_d2_g%g" % g]
                               for g in GAMMA_GRID))

    # criterion 9: tau scan at 1 meV, gamma0 = gamma1 = 5
    for chi in (20.0, 22.0, 24.0, 26.0, 28.0, 30.0,
                2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
        drv = drive_for(PI, MEV, chi)
        timed("c9_chi%g" % chi,
              lambda d=drv: mixed_error(d, 10.0, 0.5, scale))

    # criterion 10: worked example runs
    drv10 = drive_for(PI, MEV, 15.0)
    dt10 = 0.02 / drv10.z_max / scale
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    rho_g0, _ = propagate_master(rho0, drv10, DecayConfig(), dt=dt10)
    rho_g20, recs = propagate_master(rho0, drv10,
                                     DecayConfig(gamma0=20.0, gamma1=20.0),
                                     dt=dt10, record_stride=2)
    errors["c10_rho11_g0"] = rho_g0[1, 1].real
    errors["c10_rhoxx_g0"] = rho_g0[2, 2].real
    errors["c10_rho00_g20"] = rho_g20[0, 0].real
    errors["c10_rhoxx_g20"] = rho_g20[2, 2].real
    errors["c10_purity_g20"] = purity(rho_g20)
    aux["c10_records_g20"] = recs
    aux["c10_drive"] = drv10
    aux["c10_trace_drift_g0"] = abs(np.trace(rho_g0).real - 1.0)
    aux["c10_purity_drift_g0"] = abs(purity(rho_g0) - 1.0)

    # Schrodinger prediction for the gamma = 0 worked run (criterion 4)
    amps = integrate_amplitudes(drv10.chi, drv10.x_max, steps_per_unit=steps)
    s = 1.0 / math.sqrt(2.0)
    psi = bare_final_state(-s, -s * amps.a2, -s * amps.a3, drv10.chi,
                           drv10.x_max)
    aux["c4_lindblad_fidelity"] = float(
        np.real(np.conj(psi) @ rho_g0 @ psi))

    return errors, aux


@pytest.fixture(scope="module")
def baseline():
    errors, aux = compute_suite(1)
    oracle = {}
    for i, (angle, chi) in enumerate(aux["c4_draws"]):
        x = solve_xmax(angle, chi)
        _, c, d = integrate_bare_schrodinger(chi, x)
        oracle["c4_%02d" % i] = gate_error_pure(c, d).error
    aux["c4_oracle"] = oracle
    return errors, aux


@pytest.fixture(scope="module")
def halved():
    return compute_suite(2)


def check(capsys, num, ok, detail):
    with capsys.disabled():
        print("ACCEPTANCE %2d: %s  %s" % (num, "PASS" if ok else "FAIL",
                                          detail))
    assert ok, "criterion %d: %s" % (num, detail)


def test_criterion_01_threshold(baseline, capsys):
    errors, aux = baseline
    e = errors["c1"]
    dt = aux["c1_seconds"]
    ok = e < 1e-4 and dt < 1.0
    check(capsys, 1, ok,
          "E(pi, chi=15, gamma=0) = %.4g (< 1e-4) in %.3f s" % (e, dt))


def test_criterion_02_curve_shape(baseline, capsys):
    errors, aux = baseline
    chis = aux["c2_chis"]
    small = chis <= 8.0
    large = chis >= 15.0
    details = []
    ok = True
    for tag, _ in C2_ANGLES:
        errs = aux["c2_" + tag]
        ds = np.diff(errs[small])
        has_extremum = bool(np.any(ds[:-1] * ds[1:] < 0.0))
        tail = errs[large]
        decreasing = bool(np.all(np.diff(tail) < 0.0))
        below = bool(np.max(tail) < np.max(errs[small]))
        ok = ok and has_extremum and decreasing and below
        details.append("%s: extremum %s, tail monotone %s" %
                       (tag, has_extremum, decreasing))
    e_half = errors["c2_half_25.0000"]
    e_pi = errors["c2_pi_25.0000"]
    e_two = errors["c2_two_25.0000"]
    order = e_two > e_pi > e_half
    ok = ok and order
    check(capsys, 2, ok, "; ".join(details) +
          "; order at chi=25 %s (%.3g > %.3g > %.3g)" %
          (order, e_two, e_pi, e_half))


def test_criterion_03_xmax_scaling(capsys):
    rng = np.random.default_rng(58102934)
    worst = 0.0
    for _ in range(10):
        angle = rng.uniform(0.5 * PI, 2.0 * PI)
        chi = rng.uniform(3.0, 30.0)
        worst = max(worst, abs(solve_xmax(angle, chi)
                               - solve_xmax(2.0 * angle, 2.0 * chi)))
    xs = [solve_xmax(PI, c) for c in np.linspace(5.0, 40.0, 15)]
    decreasing = all(a > b for a, b in zip(xs, xs[1:]))
    ok = worst < 1e-10 and decreasing
    check(capsys, 3, ok,
          "max |x_max(L,chi) - x_max(2L,2chi)| = %.3g; decreasing %s" %
          (worst, decreasing))


def test_criterion_04_oracle_equivalence(baseline, capsys):
    errors, aux = baseline
    worst = max(abs(errors[k] - aux["c4_oracle"][k])
                for k in aux["c4_oracle"])
    fid = aux["c4_lindblad_fidelity"]
    ok = worst < 1e-8 and fid > 1.0 - 1e-8
    check(capsys, 4, ok,
          "max |E_adiabatic - E_bare| = %.3g over 20 draws; "
          "Lindblad/Schrodinger fidelity deficit = %.3g" % (worst, 1.0 - fid))


def test_criterion_05_conservation(baseline, capsys):
    errors, aux = baseline
    rng = np.random.default_rng(907713355)
    worst_res = 0.0
    worst_gram = 0.0
    for _ in range(1000):
        o1, o2 = rng.uniform(0.0, 5.0, size=2)
        det = rng.uniform(0.1, 10.0)
        alpha = rng.uniform(0.0, 2.0 * PI)
        es = eigensystem(o1, o2, det, alpha)
        h = hamiltonian(o1, o2, det, alpha)
        res = h @ es.vectors - es.vectors * es.values[None, :]
        worst_res = max(worst_res, float(np.max(np.abs(res))))
        gram = es.vectors.conj().T @ es.vectors
        worst_gram = max(worst_gram,
                         float(np.max(np.abs(gram - np.eye(3)))))
    ok = (aux["c5_norm_drift"] < 1e-10
          and aux["c10_trace_drift_g0"] < 1e-10
          and aux["c10_purity_drift_g0"] < 1e-10
          and worst_res < 1e-12 and worst_gram < 1e-12)
    check(capsys, 5, ok,
          "norm drift %.3g, trace drift %.3g, purity drift %.3g, "
          "eigen residual %.3g, gram %.3g" %
          (aux["c5_norm_drift"], aux["c10_trace_drift_g0"],
           aux["c10_purity_drift_g0"], worst_res, worst_gram))


def test_criterion_06_gamma_linearity(baseline, capsys):
    errors, aux = baseline
    gammas = [float(g) for g in range(1, 11)]
    es = [errors["c6_g%g" % g] if g % 2 else errors["c8_half_d2_g%g" % g]
          for g in gammas]
    fit = fit_linear_through_origin(gammas, es, floor=aux["c8_floor_d2"])
    seconds = aux["c6_seconds"]
    ok = fit.r_squared > 0.999 and seconds < 60.0
    check(capsys, 6, ok,
          "E = E0 + k*gamma at 2 meV: k = %.4g, R^2 = %.6f, %.1f s" %
          (fit.coefficient, fit.r_squared, seconds))


def test_criterion_07_delta_scaling(baseline, capsys):
    errors, aux = baseline
    scaled = []
    for dm in DELTA_GRID_MEV:
        det = dm * MEV
        e = errors["c8_half_d%g_g4" % dm]
        scaled.append((e - aux["c8_floor_d%g" % dm]) * det)
    scaled = np.array(scaled)
    dev = float(np.max(np.abs(scaled - scaled.mean())) / scaled.mean())
    ok = dev < 0.05
    check(capsys, 7, ok,
          "(E - E0)*Delta = %s, max deviation %.2f%%" %
          (np.array2string(scaled, precision=3), 100.0 * dev))


def test_criterion_08_estimate_ratio(baseline, capsys):
    errors, _ = baseline
    ratios = {}
    for dm in DELTA_GRID_MEV:
        det = dm * MEV
        ratios[dm] = [errors["c8_half_d%g_g%g" % (dm, g)] / (PI * g / det)
                      for g in GAMMA_GRID]
    flat = [r for row in ratios.values() for r in row]
    in_band = all(0.5 <= r <= 1.5 for r in flat)
    mono_gamma = all(
        all(abs(1.0 - a) <= abs(1.0 - b) + 1e-12
            for a, b in zip(ratios[dm], ratios[dm][1:]))
        for dm in DELTA_GRID_MEV)
    # smaller Delta means larger gamma/Delta, so its deviation must not
    # be smaller than at the next Delta up
    mono_delta = all(
        all(abs(1.0 - ratios[dm_small][i])
            >= abs(1.0 - ratios[dm_big][i]) - 1e-12
            for dm_small, dm_big in zip(DELTA_GRID_MEV, DELTA_GRID_MEV[1:]))
        for i in range(len(GAMMA_GRID)))
    full = [errors["c8_full_d%g_g%g" % (dm, g)] / (PI * g / (dm * MEV))
            for dm in DELTA_GRID_MEV for g in GAMMA_GRID]
    ok = in_band and mono_gamma and mono_delta
    check(capsys, 8, ok,
          "prefactor 1/2 ratio in [%.3f, %.3f] (band [0.5, 1.5]: %s); "
          "degrades monotonically with gamma/Delta: %s; "
          "prefactor 1 ratio in [%.3f, %.3f]" %
          (min(flat), max(flat), in_band, mono_gamma and mono_delta,
           min(full), max(full)))


def test_criterion_09_tau_independence(baseline, capsys):
    errors, _ = baseline
    plateau = np.array([errors["c9_chi%g" % c]
                        for c in (20.0, 22.0, 24.0, 26.0, 28.0, 30.0)])
    variation = float((plateau.max() - plateau.min()) / plateau.mean())
    small = np.array([errors["c9_chi%g" % c]
                      for c in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0,
                                10.0)])
    ds = np.diff(small)
    sign_changes = int(np.sum(ds[:-1] * ds[1:] < 0.0))
    ok = variation < 0.10 and sign_changes >= 2
    check(capsys, 9, ok,
          "plateau variation %.2f%% over chi in [20, 30]; "
          "%d small-chi extrema" % (100.0 * variation, sign_changes))


def test_criterion_10_worked_example(baseline, capsys):
    errors, aux = baseline
    drv = aux["c10_drive"]
    recs = aux["c10_records_g20"]
    purities = np.array([r.purity for r in recs])
    times = np.array([r.t for r in recs])
    slopes = np.diff(purities) / np.diff(times)
    t_drop = float(0.5 * (times[np.argmin(slopes)]
                          + times[np.argmin(slopes) + 1]))
    # The drive's transient |X> population is read at its peak during the
    # pulse. At light-off f = 0, so the final rho_XX is only the
    # non-adiabatic leakage left in the upper eigenstate, which the
    # gamma = 0 clause requires to be < 1e-4.
    pops_x = np.array([r.pop_x for r in recs])
    i_peak = int(np.argmax(pops_x))
    ok_g0 = errors["c10_rho11_g0"] > 0.999 and errors["c10_rhoxx_g0"] < 1e-4
    ok_g20 = (errors["c10_rho00_g20"] > 0.005
              and pops_x[i_peak] > 0.005
              and errors["c10_purity_g20"] < 0.99)
    ok_drop = abs(t_drop) < drv.tau
    ok = ok_g0 and ok_g20 and ok_drop
    check(capsys, 10, ok,
          "gamma=0: rho11 = %.6f, rho_XX = %.3g; gamma=20: rho00 = %.4f, "
          "final rho_XX = %.3g, peak rho_XX = %.4f at t = %.4f ns "
          "(need > 5e-3), purity = %.4f; steepest purity drop at "
          "t = %.4f ns (tau = %.3f)" %
          (errors["c10_rho11_g0"], errors["c10_rhoxx_g0"],
           errors["c10_rho00_g20"], errors["c10_rhoxx_g20"],
           pops_x[i_peak], times[i_peak], errors["c10_purity_g20"],
           t_drop, drv.tau))


def test_criterion_11_convergence(baseline, halved, capsys):
    errors, _ = baseline
    errors2, _ = halved
    assert set(errors) == set(errors2)
    worst_key = max(errors, key=lambda k: abs(errors[k] - errors2[k]))
    worst = abs(errors[worst_key] - errors2[worst_key])
    ok = worst < 1e-8
    check(capsys, 11, ok,
          "max |E - E_halved| = %.3g over %d reported values (worst: %s)" %
          (worst, len(errors), worst_key))
