"""Amplitude integration and worst-case pure-state gate error."""

import cmath
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from conftest import integrate_bare_schrodinger
from scipy.linalg import expm

from ramansim import (ConfigurationError, NumericalError, PulseEnvelope,
                      gate_error_pure, integrate_amplitudes,
                      integrate_amplitudes_batch, nonadiabatic,
                      nonadiabatic_error, solve_xmax)

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
# from the Magnus kernel at u_b = 2.5 and 842 steps per unit: n = 2105
# steps, odd and not a chunk multiple; 3.2e-14 from its 16 000-step value
FROZEN_MAGNUS_ODD = (5.0, 0.7349874207980065,
                     0.9989595103959217+0.04558620005389001j,
                     -8.885535916638537e-05-0.0013368092291533515j,
                     31.28318530718262)
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

    def test_matches_frozen_recurrence(self):
        for row in FROZEN_RK4:
            amps = integrate_amplitudes(row[0], row[1])
            _assert_frozen(amps.a2, amps.a3, amps.phase, row)

    def test_matches_frozen_recurrence_odd_step_count(self):
        row = FROZEN_MAGNUS_ODD
        amps = integrate_amplitudes(row[0], row[1], PulseEnvelope(u_b=2.5),
                                    steps_per_unit=842)
        _assert_frozen(amps.a2, amps.a3, amps.phase, row)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            integrate_amplitudes(-1.0, 0.3)
        with pytest.raises(ConfigurationError):
            integrate_amplitudes(5.0, 0.3, steps_per_unit=0)
        for steps in (math.inf, math.nan, 2.5, 10 ** 400):
            with pytest.raises(ConfigurationError, match="steps_per_unit|cap"):
                integrate_amplitudes(5.0, 0.3, steps_per_unit=steps)
        with pytest.raises(ConfigurationError, match="angle must be positive"):
            nonadiabatic_error(0.0, 20.0)
        for chi, x in (([], []), ([math.inf], [0.3]), ([10.0], [math.inf]),
                       ([math.nan], [0.3]), ([10.0], [math.nan])):
            with pytest.raises(ConfigurationError):
                integrate_amplitudes_batch(chi, x)

    def test_step_cap(self, monkeypatch):
        # round(support * steps_per_unit) steps, checked before any node
        # array is built: 2 400 at u_b = 3 by default
        monkeypatch.setattr(nonadiabatic, "_MAX_STEPS", 2400)
        integrate_amplitudes_batch(21.0, 0.3)
        with pytest.raises(ConfigurationError, match="cap of 2400 steps"):
            integrate_amplitudes_batch(21.0, 0.3, steps_per_unit=801)

    def test_guard_trips_on_nan_steps(self):
        # 4 x_max^2 overflows, and inf * f^2 = nan where f^2 underflows:
        # nan step angles must not pass the resolution guard
        with pytest.raises(NumericalError), np.errstate(all="ignore"):
            integrate_amplitudes_batch([10.0], [1e200])


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

    def test_unitary_pairs_match_exact_maximum(self):
        # (c, d) from rational unit quaternions (1 - |v|^2, 2v) / (1 + |v|^2),
        # exactly unitary before rounding to floats; the reference is
        # max over p in [0, 1] of 1 - |1 + p(c - 1)|^2 in exact arithmetic.
        # Measured: 6.9e-18 absolute, 6.5e-16 relative over E = 1e-12..0.1;
        # 1 - |1 + p(c - 1)|^2 in floats is 2.3e-16 absolute off here
        rng = random.Random(5)
        for k in range(300):
            scale = 10.0 ** rng.uniform(-6.0, -1.0)
            v = [Fraction(rng.uniform(-1.0, 1.0) * scale) for _ in range(3)]
            if k % 3 == 0:  # phase dominated
                v[1] /= 1000
                v[2] /= 1000
            elif k % 3 == 1:  # leakage dominated
                v[0] /= 1000
            v2 = sum(x * x for x in v)
            cr, ci, dr, di = ((1 - v2) / (1 + v2),
                              *(2 * x / (1 + v2) for x in v))
            wr, w2 = cr - 1, (cr - 1) ** 2 + ci ** 2
            p = min(Fraction(1), max(Fraction(0), -wr / w2))
            want = float(-2 * p * wr - p * p * w2)
            got = gate_error_pure(complex(float(cr), float(ci)),
                                  complex(float(dr), float(di)))
            assert abs(got.error - want) <= 1e-16
            assert abs(got.error - want) <= 2e-15 * want
            assert got.p_star == pytest.approx(float(p), rel=1e-12)

    @pytest.mark.parametrize("angle, chi", [(math.pi, 160.0),
                                            (math.pi / 2, 190.0)])
    def test_converged_at_large_chi(self, angle, chi):
        # E ~ 1e-9 and 2e-10: 1 - F(p*) would lose the low digits to
        # cancellation and to RK4's norm drift (1.4e-4 and 8.8e-4 relative
        # between these step counts); measured 1.7e-7 and 3.2e-7
        x = solve_xmax(angle, chi)
        e = [gate_error_pure(*_final(integrate_amplitudes(
            chi, x, steps_per_unit=steps))).error for steps in (2000, 8000)]
        assert abs(e[0] - e[1]) <= 1e-6 * e[1]


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


def _full_march(chi, x_max, steps_per_unit):
    # the same Gauss Magnus-4 steps over all of [-u_b, u_b], no mirror:
    # the propagator's first row (1 + U_a, U_b) and S_f
    env = PulseEnvelope()
    n = int(round(2.0 * env.u_b * steps_per_unit))
    h = 2.0 * env.u_b / n
    g = math.sqrt(3.0) / 6.0
    u = -env.u_b + (np.arange(n)[:, None] + [0.5 - g, 0.5 + g]) * h
    f, fp = env.value(u), env.derivative(u)
    den = 1.0 + 4.0 * x_max * x_max * f * f
    p, nu = x_max * fp / den, 0.5 * chi * np.sqrt(den)
    da, db, _ = nonadiabatic._magnus_deviation(
        g * h * h * (p[:, 0] * nu[:, 1] - p[:, 1] * nu[:, 0]),
        0.5 * h * (p[:, 0] + p[:, 1]), 0.5 * h * (nu[:, 0] + nu[:, 1]))
    ua, ub = nonadiabatic._chain_product(da, db)
    return 1.0 + ua, ub, h * math.fsum(nu.ravel())


class TestQuaternionKernel:

    def test_step_matches_expm(self):
        # exp(i w.sigma) - I in closed form against scipy's expm of the
        # 2x2 generator; measured gap 5.6e-17 for |w| <= 0.1, the range of
        # every step at the default for chi up to about 150.  Towards the
        # guard expm's own rounding grows: up to 0.25 the gap is 8.3e-17
        # here and reached 1.1e-16 on a 500-point draw, while a 200-bit
        # evaluation puts the closed form within 3.9e-17 of the exact
        # exponential
        rng = np.random.default_rng(3)
        for top, tol in ((0.1, 1e-16), (nonadiabatic.MAX_PHASE_STEP, 2e-16)):
            w = rng.normal(size=(300, 3))
            w *= (rng.uniform(0.0, top, 300)
                  / np.linalg.norm(w, axis=1))[:, None]
            da, db, norm = nonadiabatic._magnus_deviation(*w.T)
            assert np.allclose(norm, np.linalg.norm(w, axis=1), rtol=1e-15)
            for (w1, w2, w3), a, b in zip(w, da, db):
                m = expm(np.array([[1j * w3, w2 + 1j * w1],
                                   [-w2 + 1j * w1, -1j * w3]]))
                assert abs(m[0, 0] - 1.0 - a) <= tol
                assert abs(m[0, 1] - b) <= tol
                assert abs(m[1, 0] + np.conj(b)) <= tol
                assert abs(m[1, 1] - 1.0 - np.conj(a)) <= tol

    def test_step_polynomial_matches_taylor_reference(self):
        # the Horner polynomials for cos|w| - 1 and sin|w| / |w| against a
        # 40-digit Taylor sum at the same float w, up to and at the guard;
        # measured gap 2.6e-17, and 2.2e-17 off unit norm
        top = nonadiabatic.MAX_PHASE_STEP
        rng = np.random.default_rng(5)
        w = rng.normal(size=(300, 3))
        w *= (rng.uniform(0.0, top, 300) / np.linalg.norm(w, axis=1))[:, None]
        w = np.vstack((w, top * np.eye(3)))
        da, db, _ = nonadiabatic._magnus_deviation(*w.T)
        with localcontext() as ctx:
            ctx.prec = 40
            for (w1, w2, w3), a, b in zip(w, da, db):
                w1, w2, w3 = Decimal(w1), Decimal(w2), Decimal(w3)
                r = w1 * w1 + w2 * w2 + w3 * w3
                cm1 = sum((-r) ** k / math.factorial(2 * k)
                          for k in range(1, 20))
                sinc = sum((-r) ** k / math.factorial(2 * k + 1)
                           for k in range(20))
                got = (Decimal(a.real), Decimal(a.imag), Decimal(b.real),
                       Decimal(b.imag))
                want = (cm1, w3 * sinc, w2 * sinc, w1 * sinc)
                for g, v in zip(got, want):
                    assert abs(g - v) <= Decimal("5e-17")
                norm = sum(g * g for g in got[1:]) + (1 + got[0]) ** 2
                assert abs(norm - 1) <= Decimal("5e-17")

    @pytest.mark.parametrize("angle, chi", [(math.pi, 21.0),
                                            (math.pi / 2, 8.0),
                                            (2.0 * math.pi, 60.0)])
    def test_half_march_equals_full_march(self, angle, chi):
        # U = U+ U+^T from [0, u_b] against the product of every step over
        # [-u_b, u_b], compared in the co-rotating frame: b2 = a2 e^{iS/2},
        # b3 = a3 e^{-iS/2}; measured gap 3.5e-15, and 1.7e-15 relative
        # in S_f
        x = solve_xmax(angle, chi)
        amps = integrate_amplitudes(chi, x)
        b2, ub, phase = _full_march(chi, x, nonadiabatic.STEPS_PER_UNIT)
        assert abs(amps.a2 * cmath.exp(0.5j * amps.phase) - b2) <= 1e-14
        assert abs(amps.a3 * cmath.exp(-0.5j * amps.phase)
                   + np.conj(ub)) <= 1e-14
        assert amps.phase == pytest.approx(phase, rel=1e-14)

    def test_batch_equals_scalar_calls_bitwise(self):
        # 9 000 steps: two whole chunks and a partial one.  Forty points
        # span three groups, and a group's first pairwise level (16 x 2 048
        # complex, 512 kB) is larger than numpy's 256 kB threshold for
        # reusing temporaries in place, which a point run alone never
        # reaches, so a product with its temporary on the right shows
        spu = 3000
        n = int(round(PulseEnvelope().u_b * spu))
        assert n > 2 * nonadiabatic._CHUNK
        assert n % nonadiabatic._CHUNK != 0
        chis = np.linspace(4.0, 40.0, 40)
        xs = solve_xmax(math.pi, chis)
        assert len(chis) > 2 * nonadiabatic._GROUP
        a2, a3, phase = integrate_amplitudes_batch(chis, xs,
                                                   steps_per_unit=spu)
        for i, chi in enumerate(chis):
            amps = integrate_amplitudes(float(chi), float(xs[i]),
                                        steps_per_unit=spu)
            assert a2[i] == amps.a2
            assert a3[i] == amps.a3
            assert phase[i] == amps.phase

    def test_batch_order_is_bitwise_irrelevant(self):
        # shuffled, each point lands in another group next to other points
        chis = np.linspace(4.0, 40.0, 40)
        xs = solve_xmax(math.pi, chis)
        ref = integrate_amplitudes_batch(chis, xs)
        order = np.random.default_rng(7).permutation(len(chis))
        got = integrate_amplitudes_batch(chis[order], xs[order])
        for r, g in zip(ref, got):
            assert np.array_equal(r[order], g)

    def test_batch_memory_bounded(self):
        # points are marched in fixed groups, so a large batch holds no
        # more working memory than one group
        def peak(m):
            chis = np.linspace(4.0, 40.0, m)
            xs = solve_xmax(math.pi, chis)
            tracemalloc.start()
            try:
                integrate_amplitudes_batch(chis, xs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200) <= 1.5 * peak(nonadiabatic._GROUP)


class TestSupportMarch:

    @pytest.mark.parametrize("chi", [15.0, 21.0, 60.0])
    def test_tail_moves_only_the_phase(self, chi):
        # f = 0 beyond u = 33, so every u_b >= 33 marches the same steps
        # and its tails shift only the phase of a3.  |d| = |a3| carries
        # the rounding of one product with e^{iS_f/2}, measured 1 ulp
        rows = []
        for u_b in (33.0, 34.0, 40.0, 1e3):
            env = PulseEnvelope(u_b=u_b)
            x = solve_xmax(math.pi, chi, env)
            amps = integrate_amplitudes(chi, x, env)
            res = gate_error_pure(amps.a2, amps.a3)
            rows.append((x, amps.a2, res.error, abs(res.c), res.p_star,
                         abs(res.d), amps.phase - 2.0 * chi * u_b))
        for row in rows[1:]:
            assert row[:5] == rows[0][:5]
            assert row[5] == pytest.approx(rows[0][5], rel=5e-16)
            assert row[6] == pytest.approx(rows[0][6], rel=1e-12)

    @pytest.mark.parametrize("u_b", [3.0, 34.0, 1e3])
    def test_march_stops_at_support(self, u_b, monkeypatch):
        steps = []
        deviation = nonadiabatic._magnus_deviation

        def counted(w1, w2, w3):
            steps.append(w1.shape[-1])
            return deviation(w1, w2, w3)

        monkeypatch.setattr(nonadiabatic, "_magnus_deviation", counted)
        integrate_amplitudes(21.0, 0.33, PulseEnvelope(u_b=u_b))
        assert sum(steps) == round(min(u_b, 33.0)
                                   * nonadiabatic.STEPS_PER_UNIT)
