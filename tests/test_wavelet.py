import hashlib
import math
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

import dyadosc as d
from dyadosc import wavelet
from dyadosc.dyadic import DyadicRational as DR
from oracles import (
    _s5_d1,
    _s5_d2,
    derivative,
    main_derivative,
    second_derivative,
    tail_extreme_offsets,
    value_exact,
)


def _tail(f, t, lo):
    """f's stage sum at t from stage `lo` on, as the witness search reads
    its tail: ``value_float`` without the stages below `lo`."""
    return f._difference(f._zeros, f._ratios(t.numerator, t.denominator, lo))


class TestBaseWavelet:
    def test_plateaus_exact(self):
        w = d.base_wavelet()
        assert w(0.0) == 1.0
        assert w(0.05) == 1.0
        assert w(0.4) == -1.0
        assert w(-0.4) == -1.0
        assert w(float(Fraction(13, 32))) == -1.0
        assert w(0.5) == 0.0
        assert w(0.75) == 0.0
        assert w(-0.6) == 0.0

    def test_support(self):
        w = d.base_wavelet()
        for x in np.linspace(0.5, 3.0, 40):
            assert w(float(x)) == 0.0
            assert w(float(-x)) == 0.0

    def test_moments_exact(self):
        m0, m1, m2 = d.base_wavelet().moments_exact()
        assert m0 == 0 and m1 == 0 and m2 == 0

    def test_moments_by_independent_quadrature(self):
        w = d.base_wavelet()
        knots = sorted({float(pc.lo) for pc in w.pieces}
                       | {float(pc.hi) for pc in w.pieces})
        panels = [(-b, -a) for a, b in zip(knots[:-1], knots[1:])] + \
                 list(zip(knots[:-1], knots[1:]))
        for n in range(3):
            total = sum(quad(lambda x: x ** n * w(x), lo, hi, limit=100)[0]
                        for lo, hi in panels)
            assert abs(total) < 1e-10

    def test_bounded_by_one(self):
        w = d.base_wavelet()
        grid = np.linspace(-0.5, 0.5, 20001)
        vals = np.array([w(float(x)) for x in grid])
        assert np.max(np.abs(vals)) <= 1.0 + 1e-15

    def test_c2_joins(self):
        w = d.base_wavelet()
        eps = 1e-9
        knots = sorted({float(pc.lo) for pc in w.pieces}
                       | {float(pc.hi) for pc in w.pieces})
        for k in knots:
            for fn, scale in ((w, 1.0), (partial(derivative, w), 1e3),
                              (partial(second_derivative, w), 1e6)):
                if 0.0 < k < 0.5:
                    assert abs(fn(k - eps) - fn(k + eps)) <= 1e-5 * scale

    def test_derivatives_match_per_method_lookups(self):
        # each derivative used to find its piece and local t on its own
        w = d.base_wavelet()
        for x in np.linspace(-0.75, 0.75, 1201).tolist() + [0.0, -0.0, 0.5, -0.5]:
            cell = w._cell(*wavelet._float_ratio(x))
            if cell is None or not cell[4]:
                want1 = want2 = 0.0
            else:
                pc = cell[0]
                wd = float(pc.width)
                t = (abs(float(x)) - float(pc.lo)) / wd
                want1 = float(pc.b - pc.a) / wd * _s5_d1(t)
                want1 = want1 if x >= 0 else -want1
                want2 = float(pc.b - pc.a) / (wd * wd) * _s5_d2(t)
            assert _same_float(derivative(w, x), want1), x
            assert _same_float(second_derivative(w, x), want2), x

    def test_derivative_bounds_hold_on_grid(self):
        w = d.base_wavelet()
        grid = np.linspace(-0.5, 0.5, 10001)
        d1 = max(abs(derivative(w, float(x))) for x in grid)
        d2 = max(abs(second_derivative(w, float(x))) for x in grid)
        assert d1 <= float(w.d1_sup) + 1e-9
        assert d2 <= float(w.d2_sup) + 1e-6

    def test_evenness(self):
        w = d.base_wavelet()
        for x in np.linspace(0, 0.5, 101):
            assert w(float(x)) == w(float(-x))


class TestSchedule:
    def test_first_level_is_one(self):
        sch = d.wavelet_schedule(0.5, 1.0 / 200.0, 1)
        assert sch.ks == [1]

    def test_four_stage_levels(self, wavelet_schedule_half):
        sch = wavelet_schedule_half
        assert sch.ks[0] == 1
        assert all(b - a >= 4 for a, b in zip(sch.ks, sch.ks[1:]))
        # gaps at least ceil(log2(1/eps) / (1-alpha)) - O(1)
        floor_gap = math.ceil(math.log2(200.0) / 0.5) - 4
        assert all(b - a >= floor_gap for a, b in zip(sch.ks, sch.ks[1:]))

    def test_clause_margins_certified(self, wavelet_schedule_half):
        for rec in wavelet_schedule_half.records:
            assert rec["clause1_margin"] >= 0.0
            assert rec["clause2_margin"] >= 0.0

    def test_flatness_clause_spot_check(self, wavelet_schedule_half,
                                        oscillator_half):
        # |S_m'| <= eps 2^(k_m (1-alpha)) sampled densely at the built scales
        sch = wavelet_schedule_half
        f = oscillator_half
        rng = np.random.default_rng(5)
        for m in (2, 3):
            bound = sch.epsilon * 2.0 ** (sch.ks[m - 1] * (1.0 - sch.alpha))
            step = 2.0 ** -(sch.ks[m - 2] + 8)
            ts = rng.uniform(0.0, 0.5, size=400)
            for t in ts:
                for probe in (t, t + step, t + 2 * step):
                    assert abs(main_derivative(f, m, probe)) <= bound

    def test_zero_window_clause_spot_check(self, wavelet_schedule_half,
                                           oscillator_half):
        # locate real zeros of S_m' by sign change and bisection, then
        # sample the 10 * 2^-k_m window around each: slope stays below eps
        sch = wavelet_schedule_half
        f = oscillator_half
        rng = np.random.default_rng(6)
        for m in (2, 3):
            k = sch.ks[m - 1]
            fine = sch.ks[m - 2]
            step = Fraction(1, 1 << (fine + 6))
            zeros = []
            for _ in range(40):
                base = Fraction(int(rng.integers(0, 1 << (fine + 7))),
                                1 << (fine + 8))
                grid = [base + i * step for i in range(65)]
                vals = [main_derivative(f, m, t) for t in grid]
                for i in range(64):
                    if vals[i] == 0.0:
                        zeros.append(grid[i])
                        break
                    if vals[i] * vals[i + 1] < 0.0:
                        lo, hi = grid[i], grid[i + 1]
                        g_lo = vals[i]
                        for _ in range(90):
                            mid = (lo + hi) / 2
                            g_mid = main_derivative(f, m, mid)
                            if g_lo * g_mid <= 0.0:
                                hi = mid
                            else:
                                lo, g_lo = mid, g_mid
                        zeros.append((lo + hi) / 2)
                        break
                if len(zeros) >= 8:
                    break
            assert zeros, "no critical points located"
            for t0 in zeros:
                assert abs(main_derivative(f, m, t0)) <= 1e-6
                for theta in rng.uniform(-10.0, 10.0, size=50):
                    offset = Fraction(round(float(theta) * (1 << 16)),
                                      1 << 16) * Fraction(1, 1 << k)
                    assert abs(main_derivative(f, m, t0 + offset)) <= sch.epsilon

    def test_empty_main_part_gives_plus_four(self):
        k, rec = d.next_frequency_level(7, 0.5, 1.0 / 200.0, 0.0, 0.0)
        assert k == 11
        assert rec["clause1_margin"] >= 0.0

    @pytest.mark.parametrize("alpha", [0.25, 0.3, 0.5, 0.7])
    def test_least_certified_level_at_the_float_boundaries(self, alpha):
        # bounds one ulp above eps 2^(n (1-alpha)) and eps 2^n / 10, where
        # the float log2 lands on n; prev_k = -100 lets the clause decide k
        eps = 1.0 / 200.0
        for n in range(1, 60):
            d1 = math.nextafter(math.pow(2.0, n * (1.0 - alpha)) * eps, math.inf)
            k, rec = d.next_frequency_level(-100, alpha, eps, d1, 0.0)
            assert rec["clause1_margin"] >= 0.0
            assert math.pow(2.0, (k - 1) * (1.0 - alpha)) * eps < d1, (n, k)
            d2 = math.nextafter(math.ldexp(eps, n) / 10.0, math.inf)
            k, _ = d.next_frequency_level(-100, alpha, eps, 0.0, d2)
            assert math.ldexp(10.0 * d2, -k) <= eps < math.ldexp(10.0 * d2, 1 - k), (n, k)

    def test_alpha_outside_the_unit_interval(self):
        with pytest.raises(d.DomainError, match="alpha"):
            d.wavelet_schedule(1.0)

    def test_eps_only_tightens(self):
        with pytest.raises(d.DomainError):
            d.wavelet_schedule(0.5, 1.0 / 100.0, 2)
        sch = d.wavelet_schedule(0.5, 1.0 / 400.0, 2)
        assert sch.ks[1] >= d.wavelet_schedule(0.5, 1.0 / 200.0, 2).ks[1]

    @pytest.mark.parametrize("eps", [0.0, -0.0, -1.0, -math.inf, math.nan])
    def test_eps_must_be_positive(self, eps):
        # a negative eps failed in math.log2, 0 divided by zero, NaN in int()
        with pytest.raises(d.DomainError, match="eps"):
            d.wavelet_schedule(0.5, eps, 2)

    def test_stage_cap(self):
        with pytest.raises(d.DomainError):
            d.wavelet_schedule(0.5, 1.0 / 200.0, 7)

    def test_flatness_bounds_past_the_float_range(self):
        # 2^(k (2 - alpha)) of a level k past about 1024 / (2 - alpha)
        # raised a bare OverflowError; every schedule that builds keeps its
        # levels and records (the digest is of the schedules before the guard)
        with pytest.raises(d.DepthCapError, match=r"stage 3: .* level k = 1540 "):
            d.wavelet_schedule(0.99, 1.0 / 200.0, 3)
        h, capped = hashlib.sha256(), {}
        for i in range(1, 100):
            for stages in range(1, 7):
                try:
                    sch = d.wavelet_schedule(i / 100, 1.0 / 200.0, stages)
                except d.DepthCapError:
                    capped.setdefault(stages, i / 100)
                    continue
                h.update(repr((i / 100, stages, sch.ks, sch.records)).encode())
        assert capped == {3: 0.99, 4: 0.97, 5: 0.96, 6: 0.94}
        assert h.hexdigest() == \
            "09ebbe0054ce6fa596f273693f22b1ce57e2889c1842667ef4e698a7e0ed7a8d"


class TestOscillator:
    def test_plateau_stacking_value(self, oscillator_half):
        f = oscillator_half
        sch = f.schedule
        x = Fraction(1, 7)
        offs = tail_extreme_offsets(f, x, 1)
        top = f.value_float(x + offs["r_plus"])
        assert top == pytest.approx(sch.tail_sum(1), rel=1e-12)

    def test_single_stage_sup(self):
        sch = d.wavelet_schedule(0.5, 1.0 / 200.0, 1)
        f = d.wavelet_oscillator(sch)
        # f = 2^-alpha phi(2x - j): sup over a plateau point
        assert f.value_float(Fraction(1, 2)) == pytest.approx(2.0 ** -0.5)
        assert abs(f.value_float(Fraction(1, 5))) <= 2.0 ** -0.5 + 1e-15

    def test_difference_matches_values(self, oscillator_half):
        f = oscillator_half
        rng = random.Random(3)
        for _ in range(50):
            a = Fraction(rng.getrandbits(40), 1 << 40)
            b = Fraction(rng.getrandbits(40), 1 << 40)
            diff = f.difference_float(a, b)
            assert diff == pytest.approx(f.value_float(b) - f.value_float(a),
                                         abs=1e-12)

    def test_difference_reads_every_number_type(self, oscillator_half):
        # the HolderFunction entry point: DyadicRational, float and Fraction
        # arguments reach difference_float as the same Fractions
        f = oscillator_half
        rng = random.Random(4)
        for _ in range(40):
            a, b = (d.DyadicRational(rng.getrandbits(50), 50) for _ in range(2))
            want = f.difference_float(a.as_fraction(), b.as_fraction())
            for x, y in ((a, b), (float(a), float(b)), (a.as_fraction(), b.as_fraction())):
                assert _same_float(f.difference(x, y), want), (a, b)

    def test_seminorm_estimate_stable(self, oscillator_half):
        vals = [d.holder_seminorm_estimate(
            oscillator_half,
            d.SeminormSampler(pairs=n, scale_min=2.0 ** -16, seed=2))
            for n in (1000, 4000)]
        assert abs(vals[1] - vals[0]) / vals[1] < 0.05


class TestWitnessScales:
    def test_offsets_in_annulus(self, oscillator_half):
        f = oscillator_half
        rng = random.Random(11)
        for m in (1, 2, 3):
            k = f.schedule.ks[m - 1]
            x = Fraction(rng.getrandbits(200), 1 << 200)
            offs = tail_extreme_offsets(f, x, m)
            for name, val in offs.items():
                assert Fraction(1, 1 << k) <= val <= Fraction(2, 1 << k)

    def test_tail_identity_exact(self, oscillator_half):
        f = oscillator_half
        sch = f.schedule
        x = Fraction(3, 11)
        for m in (2, 3):
            offs = tail_extreme_offsets(f, x, m)
            assert _tail(f, x + offs["r_plus"], m) == pytest.approx(
                sch.tail_sum(m), rel=1e-12)
            assert _tail(f, x + offs["r_minus"], m) == pytest.approx(
                -sch.tail_sum(m), rel=1e-12)
            assert _tail(f, x - offs["rho_plus"], m) == pytest.approx(
                sch.tail_sum(m), rel=1e-12)
            assert _tail(f, x - offs["rho_minus"], m) == pytest.approx(
                -sch.tail_sum(m), rel=1e-12)

    def test_certificates_at_sampled_points(self, oscillator_half):
        f = oscillator_half
        rng = random.Random(17)
        seen = set()
        for _ in range(25):
            x = Fraction(rng.getrandbits(200), 1 << 200)
            for m in (2, 3):
                ws = d.witness_scales(f, x, m)
                seen.add(ws.case)
                assert ws.quotient_tame <= 1.0 + 1e-3
                # the proof's constant, with only the working slack removed
                assert ws.quotient_big >= 0.5 * (1.0 - 1e-3) * ws.scale_reference()
                # divided difference versus the first-order certificate
                expect_dd = ws.quotient_big * abs(float(ws.h)) ** (1 - f.alpha)
                assert ws.divdiff_big == pytest.approx(expect_dd, rel=1e-9)

    def test_case_records_side(self, oscillator_half):
        f = oscillator_half
        ws = d.witness_scales(f, Fraction(5, 13), 2)
        assert ws.h_side in ("right", "left")
        assert ws.h_prime_side in ("right", "left")
        if ws.case in ("i", "ii"):
            assert ws.h_side == "right"
        else:
            assert ws.h_side == "left"

    def test_stage_beyond_schedule(self, oscillator_half):
        with pytest.raises(d.DomainError):
            d.witness_scales(oscillator_half, Fraction(1, 3), 9)


# The evaluator the integer kernel replaced, kept as the reference: a linear
# scan over the pieces, the smootherstep in Fraction arithmetic and the
# stage reduction 2^k t - floor(2^k t + 1/2) in Fractions.
def _ref_piece(w, u):
    for pc in w.pieces:
        if pc.lo <= u <= pc.hi:
            return pc
    raise AssertionError(f"no piece at {u}")


def _ref_value(w, x):
    u = abs(Fraction(x))
    if u >= Fraction(1, 2):
        return Fraction(0)
    pc = _ref_piece(w, u)
    if pc.a == pc.b:
        return pc.a
    s = (u - pc.lo) / pc.width
    return pc.a + (pc.b - pc.a) * (s * s * s * (10 + s * (-15 + 6 * s)))


def _ref_reduce(t, k):
    arg = Fraction(t) * (1 << k)
    return arg - math.floor(arg + Fraction(1, 2))


def _ref_stage(f, m, t):
    return _ref_value(f.wavelet, _ref_reduce(t, f.schedule.ks[m - 1]))


def _ref_derivative(w, x, order):
    u = abs(float(x))
    if u >= 0.5:
        return 0.0
    pc = _ref_piece(w, Fraction(u))
    if pc.a == pc.b:
        return 0.0
    wd = float(pc.width)
    t = (u - float(pc.lo)) / wd
    if order == 2:
        return float(pc.b - pc.a) / (wd * wd) * (60.0 * t * (1.0 - t) * (1.0 - 2.0 * t))
    dv = float(pc.b - pc.a) / wd * (30.0 * t * t * (1.0 - t) * (1.0 - t))
    return dv if x >= 0 else -dv


def _ref_main_derivative(f, m, t):
    total = 0.0
    for n in range(1, m):
        k = f.schedule.ks[n - 1]
        u = float(_ref_reduce(t, k))
        total += (f.schedule.coefficient(n) * math.ldexp(1.0, k)
                  * _ref_derivative(f.wavelet, u, 1))
    return total


NON_DYADIC = [Fraction(1, 7), Fraction(3, 11), Fraction(5, 13)]


def _knots_and_neighbours(w):
    knots = sorted({pc.lo for pc in w.pieces} | {pc.hi for pc in w.pieces})
    out = []
    for kn in knots:
        for delta in (Fraction(0), Fraction(1, 1 << 40), Fraction(1, 64 * 7),
                      Fraction(1, 128)):
            out += [kn - delta, kn + delta, -kn - delta, -kn + delta]
    return out


class TestExactKernelOracle:
    def test_value_exact_matches_scan(self):
        w = d.base_wavelet()
        rng = random.Random(41)
        xs = [Fraction(rng.getrandbits(64) - (1 << 63), 1 << 63) for _ in range(2000)]
        xs += [s * x for x in NON_DYADIC for s in (1, -1)]
        xs += [x / 3 for x in NON_DYADIC] + [x + Fraction(1, 64) for x in NON_DYADIC]
        xs += _knots_and_neighbours(w)
        xs += [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4),
               Fraction(-5), Fraction(1, 2) + Fraction(1, 1 << 60), 7, -1]
        for x in xs:
            got = value_exact(w, x)
            assert type(got) is Fraction
            assert got == _ref_value(w, x), x

    def test_float_call_matches_scan(self):
        w = d.base_wavelet()
        grid = list(np.linspace(-0.75, 0.75, 3001)) + [float(x) for x in _knots_and_neighbours(w)]
        for x in grid + [math.inf, -math.inf]:
            u = abs(float(x))
            want = 0.0 if u >= 0.5 else float(_ref_value(w, Fraction(u)))
            assert w(float(x)) == want, x

    def test_stage_value_exact_matches_reduction(self, oscillator_half):
        f = oscillator_half
        rng = random.Random(43)
        ts = [Fraction(rng.getrandbits(200), 1 << 200) for _ in range(200)]
        ts += NON_DYADIC + [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-3, 7)]
        for m in range(1, f.schedule.stages + 1):
            k = f.schedule.ks[m - 1]
            # points whose reduced argument is a knot or a knot's neighbour
            pre = [(5 + x) / (1 << k) for x in _knots_and_neighbours(f.wavelet)[::3]]
            for t in ts + pre:
                assert f.stage_value_exact(m, t) == _ref_stage(f, m, t), (m, t)

    def test_derivatives_match_scan(self, oscillator_half):
        w = d.base_wavelet()
        grid = list(np.linspace(-0.6, 0.6, 4001)) + [float(x) for x in _knots_and_neighbours(w)]
        for x in grid:
            assert derivative(w, float(x)) == _ref_derivative(w, x, 1), x
            assert second_derivative(w, float(x)) == _ref_derivative(w, x, 2), x
        f = oscillator_half
        rng = random.Random(47)
        for t in [rng.uniform(0.0, 1.0) for _ in range(100)] + NON_DYADIC:
            for m in (2, 3, 4):
                assert main_derivative(f, m, t) == _ref_main_derivative(f, m, t)

    def test_float_paths_match_fraction_oracle(self, oscillator_half):
        # the integer-ratio floats against the float of each stage's
        # exact Fraction (difference) or value, summed in the same order
        f = oscillator_half
        coef = f.schedule.coefficient
        stages = range(1, f.schedule.stages + 1)
        rng = random.Random(53)
        ts = [Fraction(rng.getrandbits(80), 1 << 80) for _ in range(300)]
        ts += [Fraction(rng.randrange(1, 10 ** 6), rng.choice([3, 7, 11, 13, 999]) * 10 ** 6 + 1)
               for _ in range(100)]
        ts += NON_DYADIC + [Fraction(0), Fraction(1, 2)]
        for a, b in zip(ts, ts[1:] + ts[:1]):
            want = 0.0
            for m in stages:
                want += coef(m) * float(f.stage_value_exact(m, b) - f.stage_value_exact(m, a))
            assert f.difference_float(a, b) == want, (a, b)
            want = 0.0
            for m in stages:
                want += coef(m) * float(f.stage_value_exact(m, a))
            assert f.value_float(a) == want, a

    def test_every_read_takes_a_dyadic_rational(self, oscillator_half):
        # value_float and stage_value_exact raised TypeError on a
        # DyadicRational, which difference and witness_scales accepted
        f = oscillator_half
        rng = random.Random(59)
        pts = [DR(12345, 20), DR(0, 0), DR(1, 1)]
        pts += [DR(rng.getrandbits(bits), bits) for bits in (3, 40, 90, 300) for _ in range(5)]
        for p in pts:
            t = p.as_fraction()
            assert _same_float(f.value_float(p), f.value_float(t)), p
            assert _same_float(f._eval(p), f.value_float(t)), p
            for m in range(1, f.schedule.stages + 1):
                assert f.stage_value_exact(m, p) == f.stage_value_exact(m, t), (p, m)
            q = pts[0]
            assert _same_float(f.difference_float(q, p),
                               f.difference_float(q.as_fraction(), t)), p
            assert _same_float(f.difference(q, p), f.difference_float(q.as_fraction(), t)), p

    def test_witness_scales_digest(self, oscillator_half):
        # sha256 of the witness records at 20 points and every stage, taken
        # from the Fraction-scan evaluator before the integer kernel
        f = oscillator_half
        rng = random.Random(20)
        h = hashlib.sha256()
        for _ in range(20):
            x = Fraction(rng.getrandbits(200), 1 << 200)
            for m in (1, 2, 3, 4):
                h.update(repr(d.witness_scales(f, x, m)).encode())
        assert h.hexdigest() == (
            "18a980a148e035e89251477cc599485554b8ce269bd4e9243ddd8dd8b723dd0d")


# The witness search the one-pass bisection replaced, kept as the
# reference: the plateau nesting and all four annulus offsets built
# eagerly, and a bisection that re-evaluates x and builds a Fraction
# midpoint at every step.
def _ref_plateau_point(f, x, lo, hi, m, sign):
    band = f.wavelet.PLUS_PLATEAU if sign > 0 else f.wavelet.MINUS_PLATEAU
    cur_lo, cur_hi = Fraction(lo), Fraction(hi)
    for n in range(m, f.schedule.stages + 1):
        k = f.schedule.ks[n - 1]
        scale = Fraction(1, 1 << k)
        j = math.ceil(cur_lo / scale - band[0])
        plo = (j + band[0]) * scale
        phi_ = (j + band[1]) * scale
        if phi_ > cur_hi:
            raise d.CertificationError(
                f"no full stage-{n} plateau inside [{cur_lo}, {cur_hi}] "
                f"(x = {x.numerator}/{x.denominator}, m={m}, bracket [{lo}, {hi}])")
        cur_lo, cur_hi = plo, phi_
    return (cur_lo + cur_hi) / 2


def _ref_extreme_offsets(f, x, m):
    period = Fraction(1, 1 << f.schedule.ks[m - 1])
    out = {}
    for name, sign, left in (("r_plus", +1, False), ("r_minus", -1, False),
                             ("rho_plus", +1, True), ("rho_minus", -1, True)):
        lo, hi = (x - 3 * period, x - period) if left else (x + period, x + 3 * period)
        t_star = _ref_plateau_point(f, x, lo, hi, m, sign)
        off = x - t_star if left else t_star - x
        while off > 2 * period:
            off -= period
        while off < period:
            off += period
        out[name] = off
    return out


def _ref_bisect_zero(f, x, t_lo, t_hi, tol_rel=1e-4, max_steps=200):
    g_lo = f.difference_float(x, x + t_lo)
    g_hi = f.difference_float(x, x + t_hi)
    if g_lo == 0.0:
        return t_lo
    if g_hi == 0.0:
        return t_hi
    assert math.copysign(1.0, g_lo) != math.copysign(1.0, g_hi)
    for _ in range(max_steps):
        mid = (t_lo + t_hi) / 2
        g_mid = f.difference_float(x, x + mid)
        if abs(g_mid) <= tol_rel * abs(float(mid)):
            return mid
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            t_lo, g_lo = mid, g_mid
        else:
            t_hi, g_hi = mid, g_mid
    raise AssertionError("reference bisection did not converge")


def _ref_witness_scales(f, x, m):
    k = f.schedule.ks[m - 1]
    offs = _ref_extreme_offsets(f, x, m)
    r_p, r_m_ = offs["r_plus"], offs["r_minus"]

    def quot(offset):
        return f.difference_float(x, x + offset) / float(offset)

    q_p, q_m = quot(r_p), quot(r_m_)
    rho_p = rho_m_ = None
    if abs(q_p) <= 1.0 or abs(q_m) <= 1.0:
        case = "i"
        h_prime, h = (r_p, r_m_) if abs(q_p) <= 1.0 else (r_m_, r_p)
    elif (q_p > 1.0 and q_m < -1.0) or (q_p < -1.0 and q_m > 1.0):
        case = "ii"
        h_prime = _ref_bisect_zero(f, x, min(r_p, r_m_), max(r_p, r_m_))
        t_tilde = _tail(f, x + h_prime, m)
        move_p = abs(t_tilde - _tail(f, x + r_p, m))
        move_m = abs(t_tilde - _tail(f, x + r_m_, m))
        h = r_p if move_p >= move_m else r_m_
    else:
        case = "iii"
        rho_p, rho_m_ = offs["rho_plus"], offs["rho_minus"]
        h = -rho_p if q_p > 1.0 else -rho_m_
        h_prime = _ref_bisect_zero(f, x, min(-rho_p, -rho_m_), max(-rho_p, -rho_m_))
    d_big = f.difference_float(x, x + h)
    d_tame = f.difference_float(x, x + h_prime)
    return d.WitnessScales(
        x=x, stage=m, level=k, alpha=f.alpha, case=case,
        r_plus=r_p, r_minus=r_m_, rho_plus=rho_p, rho_minus=rho_m_,
        h=h, h_prime=h_prime,
        quotient_big=abs(d_big) / abs(float(h)),
        quotient_tame=abs(d_tame) / abs(float(h_prime)),
        divdiff_big=abs(d_big) / abs(float(h)) ** f.alpha,
        tail_sum=f.schedule.tail_sum(m),
        h_side="right" if h > 0 else "left",
        h_prime_side="right" if h_prime > 0 else "left")


class TestBisectZeroEnds:
    """`_bisect_zero` on brackets whose ends decide it before any step."""

    @pytest.fixture
    def frame(self, oscillator_half):
        f = oscillator_half
        x = Fraction(3, 11)
        X, D = wavelet._frame(f, x)
        rx = f._ratios(X, D)
        # an offset where f(x + t) - f(x) is not 0.0, off every plateau
        period = D >> f.schedule.ks[1]
        t = next(t for t in (period // 3, period // 5, period // 7)
                 if f._difference(rx, f._ratios(X + t, D)) != 0.0)
        return f, x, X, D, rx, t

    def test_an_end_at_x_is_the_zero(self, frame):
        f, x, X, D, rx, t = frame
        assert wavelet._bisect_zero(f, x, X, D, rx, 2, 0, t) == (0, D)
        assert wavelet._bisect_zero(f, x, X, D, rx, 2, t, 0) == (0, D)

    def test_no_sign_change_is_named(self, frame):
        f, x, X, D, rx, t = frame
        with pytest.raises(wavelet.CertificationError,
                           match=r"no sign change .*x = 3/11, m=2"):
            wavelet._bisect_zero(f, x, X, D, rx, 2, t, t)


class TestWitnessBisectionOracle:
    @staticmethod
    def _points():
        rng = random.Random(61)
        xs = [Fraction(rng.getrandbits(200), 1 << 200) for _ in range(30)]
        return xs + NON_DYADIC + [Fraction(2, 3) + Fraction(1, 997)]

    def test_witness_scales_match_reference(self, oscillator_half):
        f = oscillator_half
        cases = set()
        for x in self._points():
            for m in (1, 2, 3):
                got = d.witness_scales(f, x, m)
                want = _ref_witness_scales(f, x, m)
                assert got == want, (x, m)
                assert repr(got) == repr(want), (x, m)
                cases.add(got.case)
        assert cases == {"i", "ii", "iii"}

    def test_tail_extreme_offsets_match_reference(self, oscillator_half):
        f = oscillator_half
        for x in self._points()[::3] + NON_DYADIC:
            for m in (1, 2, 3, 4):
                assert tail_extreme_offsets(f, x, m) == _ref_extreme_offsets(f, x, m)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_nested_plateau_point_matches_fractions(self, alpha):
        # integer numerators against the Fraction nesting, failures and
        # their messages included
        f = d.wavelet_oscillator(d.wavelet_schedule(alpha, 1.0 / 200.0, 4))
        rng = random.Random(62)
        xs = [Fraction(rng.getrandbits(200), 1 << 200) for _ in range(20)] + NON_DYADIC

        def attempt(fn, *args):
            try:
                return fn(*args)
            except d.CertificationError as err:
                return str(err)

        found = {Fraction: 0, str: 0}
        for x in xs:
            for m in (1, 2, 3, 4):
                period = Fraction(1, 1 << f.schedule.ks[m - 1])
                # the two annuli, a bracket that may hold a stage-m plateau
                # and one shorter than any plateau
                for lo, hi in ((x + period, x + 3 * period), (x - 3 * period, x - period),
                               (x, x + period / 4), (x, x + period / 32)):
                    den = math.lcm(lo.denominator, hi.denominator,
                                   1 << (f.schedule.ks[-1] + 5))
                    nums = (lo.numerator * (den // lo.denominator),
                            hi.numerator * (den // hi.denominator))
                    for sign in (1, -1):
                        got = attempt(wavelet._nested_plateau_point,
                                      f, x, *nums, den, m, sign)
                        if isinstance(got, int):
                            got = Fraction(got, den)
                        args = (f, x, lo, hi, m, sign)
                        assert got == attempt(_ref_plateau_point, *args), args
                        found[type(got)] += 1
        assert found[Fraction] > 300 and found[str] > 200, found

    def test_case_ii_reads_x_once_and_skips_left_annulus(self, oscillator_half,
                                                         monkeypatch):
        f = oscillator_half
        x = Fraction(3, 11)
        assert _ref_witness_scales(f, x, 2).case == "ii"
        reads, plateaus = [], []
        kernel = d.WaveletOscillator._ratios
        nested = wavelet._nested_plateau_point

        def counting_kernel(self, n, q, *args):
            reads.append(Fraction(n, q))
            return kernel(self, n, q, *args)

        def counting_nested(f_, x_, lo, hi, den, m, sign):
            plateaus.append((Fraction(lo, den), Fraction(hi, den)))
            return nested(f_, x_, lo, hi, den, m, sign)

        monkeypatch.setattr(d.WaveletOscillator, "_ratios", counting_kernel)
        monkeypatch.setattr(d.wavelet, "_nested_plateau_point", counting_nested)
        ws = d.witness_scales(f, x, 2)
        assert ws.case == "ii"
        # once for the case quotients and the bisection, and once in each
        # of the two certificates, each recomputed on its own
        assert reads.count(x) == 3
        assert len(plateaus) == 2 and all(lo > x for lo, _ in plateaus)

    def test_last_stage_cancellation_names_instance(self, oscillator_half):
        # stage-3 and stage-4 terms of +-1.958e-29 cancel to about 1.9e-40;
        # the float sum cannot resolve the 2.0e-46 tolerance there
        rng = random.Random(5)
        xs = [Fraction(rng.getrandbits(200), 1 << 200) for _ in range(150)]
        x = xs[137]
        with pytest.raises(d.CertificationError, match="m=4") as err:
            d.witness_scales(oscillator_half, x, 4)
        assert f"x = {x.numerator}/{x.denominator}" in str(err.value)
        assert "bracket [" in str(err.value)
        # the message of the (num, den) kernel, to the last digit
        lo, hi = Fraction(1380835495473518317, 1 << 199), Fraction(2065382638833833709, 1 << 199)
        assert str(err.value) == (
            "zero crossing did not converge in 200 steps "
            f"(x = {x.numerator}/{x.denominator}, m=4, bracket [{lo}, {hi}])")


# The (num, den) kernel the binary-scaled triples replaced, kept as the
# reference: den = den0 (w64 d)^5 carries the point's whole denominator,
# and a stage difference is one cross-multiplied int / int.
def _ref_ratio(w, r, d):
    r = abs(r)
    if 2 * r >= d:
        return 0, 1
    _, lo64, w64, num_a, num_g, den = w._cells[(r << 6) // d]
    if not num_g:
        return num_a, den
    n, m = (r << 6) - lo64 * d, w64 * d
    m5 = m ** 5
    return (num_a * m5 + num_g * n ** 3 * (10 * m * m - 15 * m * n + 6 * n * n),
            den * m5)


def _ref_ratios(f, t):
    t = Fraction(t)
    n, d = t.numerator, t.denominator
    out = []
    for k in f.schedule.ks:
        nk = n << k
        out.append(_ref_ratio(f.wavelet, nk - (2 * nk + d) // (2 * d) * d, d))
    return out


def _ref_difference(f, ra, rb):
    total = 0.0
    for c, (na, da), (nb, db) in zip(f._coefficients, ra, rb):
        total += c * ((nb * da - na * db) / (db * da))
    return total


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestBinaryScaledKernelOracle:
    @staticmethod
    def _points(f, seed):
        rng = random.Random(seed)
        xs = [Fraction(rng.getrandbits(200), 1 << 200) for _ in range(60)]
        xs += [Fraction(rng.getrandbits(64), 1 << 64) for _ in range(20)]
        xs += NON_DYADIC + [x / 3 + Fraction(1, 1 << 90) for x in NON_DYADIC]
        # negative arguments and points outside [0, 1)
        xs += [-x for x in xs[:10]] + [x + 3 for x in xs[10:15]] + [-x - 2 for x in NON_DYADIC]
        for k in f.schedule.ks:
            # reduced arguments on both plateaus, on a knot and just off one
            for u in (Fraction(0), Fraction(1, 32), Fraction(13, 32), Fraction(-13, 32),
                      Fraction(7, 32), Fraction(7, 32) + Fraction(1, 1 << 70),
                      Fraction(1, 2), Fraction(-1, 2) + Fraction(1, 1 << 70)):
                xs.append((5 + u) / (1 << k))
        return xs + [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-3, 7)]

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_stage_values_match_num_den_oracle(self, alpha):
        f = d.wavelet_oscillator(d.wavelet_schedule(alpha, 1.0 / 200.0, 4))
        for t in self._points(f, 71):
            want = _ref_ratios(f, t)
            got = f._ratios(t.numerator, t.denominator)
            for m, ((num, k, e), (rn, rd)) in enumerate(zip(got, want), start=1):
                assert Fraction(num, k << e) == Fraction(rn, rd), (t, m)
                assert f.stage_value_exact(m, t) == Fraction(rn, rd), (t, m)
            # from every starting stage, as the witness search reads the tail
            for lo in range(1, f.schedule.stages + 1):
                ref_value = 0.0
                for c, (rn, rd) in zip(f._coefficients[lo - 1:], want[lo - 1:]):
                    ref_value += c * (rn / rd)
                got = f.value_float(t) if lo == 1 else _tail(f, t, lo)
                assert _same_float(got, ref_value), (t, lo)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_stage_differences_match_num_den_oracle(self, alpha):
        f = d.wavelet_oscillator(d.wavelet_schedule(alpha, 1.0 / 200.0, 4))
        ts = self._points(f, 73)
        rng = random.Random(74)
        k_last = f.schedule.ks[-1]
        # far pairs, and near pairs as the bisection makes them
        pairs = list(zip(ts, ts[1:] + ts[:1]))
        pairs += [(x, x + Fraction(rng.getrandbits(40) + 1, 1 << (k_last + 60)))
                  for x in ts[:60]]
        for a, b in pairs:
            want = _ref_difference(f, _ref_ratios(f, a), _ref_ratios(f, b))
            assert _same_float(f.difference_float(a, b), want), (a, b)
            # unreduced numerators, as the witness search passes them
            ua = f._ratios(a.numerator << 7, a.denominator << 7)
            ub = f._ratios(3 * b.numerator, 3 * b.denominator)
            assert _same_float(f._difference(ua, ub), want), (a, b)

    def test_base_ratio_matches_num_den_oracle(self):
        w = d.base_wavelet()
        rng = random.Random(75)
        for _ in range(3000):
            o = rng.choice([1, 1, 3, 7, 11, 999])
            e = rng.randrange(0, 220)
            # inside and outside the support, both signs
            r = rng.randrange(-(o << e), (o << e) + 1)
            num, k, big_e = w._ratio(r, o, e)
            assert Fraction(num, k << big_e) == Fraction(*_ref_ratio(w, r, o << e)), (r, o, e)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_dyadic_scale_lives_in_the_exponent(self, alpha):
        # for a dyadic point K = den0 w64^5 whatever its bit count: the
        # 2^-e of the point sits in E, not in a 1,250-bit power
        f = d.wavelet_oscillator(d.wavelet_schedule(alpha, 1.0 / 200.0, 4))
        rng = random.Random(76)
        for bits in (8, 64, 200, 1000):
            for _ in range(50):
                t = Fraction(rng.getrandbits(bits), 1 << bits)
                for triple in f._ratios(t.numerator, t.denominator):
                    num, k, e = triple
                    assert 0 < k < 1 << 64, (bits, k)
                    assert e >= 0
