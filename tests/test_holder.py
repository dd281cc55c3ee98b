import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import dyadosc as d
from dyadosc.dyadic import DyadicInterval as DI
from dyadosc.dyadic import DyadicRational as DR

mp.mp.dps = 40


class TestWeierstrass:
    def test_value_at_zero(self):
        f = d.WeierstrassFunction(2.0, 0.5)
        closed = 1.0 / (1.0 - 2.0 ** -0.5)
        assert f(0.0, 1e-10) == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("b,alpha", [(2.0, 0.3), (3.0, 0.5), (2.0, 0.8)])
    def test_geometric_value_at_zero(self, b, alpha):
        f = d.WeierstrassFunction(b, alpha)
        assert f(0.0, 1e-11) == pytest.approx(1.0 / (1.0 - b ** -alpha), abs=1e-10)

    def test_periodicity_integer_base(self):
        f = d.WeierstrassFunction(2.0, 0.5)
        tol = 1e-10
        x = 0.37
        # the float argument x + 2pi carries its own rounding; allow the
        # Holder-of-argument slack on top of the two evaluation tolerances
        slack = 2 * tol + f.seminorm_bound * (4 * abs(x + 2 * math.pi) * 2.0 ** -53) ** 0.5
        assert abs(f(x, tol) - f(x + 2 * math.pi, tol)) <= slack

    def test_tail_bound_controls_truncation(self):
        f = d.WeierstrassFunction(2.0, 0.5)
        n = f.terms_for(1e-8)
        assert f.tail_bound(n) <= 1e-8
        # doubling the depth moves values by less than the reported tail
        for x in (0.1, 0.57, 0.93):
            coarse = np.cos(x * np.power(2.0, np.arange(n))) @ \
                np.power(2.0, -0.5 * np.arange(n))
            fine = np.cos(x * np.power(2.0, np.arange(2 * n))) @ \
                np.power(2.0, -0.5 * np.arange(2 * n))
            assert abs(fine - coarse) <= f.tail_bound(n)

    def test_two_evaluator_agreement(self):
        # independent high-precision series vs the production evaluator
        f = d.WeierstrassFunction(2.0, 0.5)
        x, h = 0.0, 2.0 ** -10
        prod = (f(x + h, 1e-13) - f(x, 1e-13)) / h ** 0.5
        hp = sum(mp.power(2, -n * mp.mpf("0.5"))
                 * (mp.cos(mp.power(2, n) * (x + h)) - mp.cos(mp.power(2, n) * x))
                 for n in range(120)) / mp.sqrt(mp.mpf(2) ** -10)
        assert prod == pytest.approx(float(hp), abs=1e-9)

    def test_batch_matches_scalar(self):
        f = d.WeierstrassFunction(2.0, 0.5)
        xs = np.linspace(0, 1, 17)
        vals = f.batch(xs, 1e-12)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(f(float(x), 1e-12), abs=1e-12)

    def test_domain(self):
        with pytest.raises(d.DomainError):
            d.WeierstrassFunction(0.5, 0.5)
        with pytest.raises(d.DomainError):
            d.WeierstrassFunction(2.0, 0.5)(0.1, tol=-1.0)


class TestMartingaleInduced:
    def test_zero_martingale(self):
        f = d.martingale_function(d.zero_martingale(), 0.5)
        assert f.eval_dyadic(DR(3, 3)) == 0.0
        assert f(0.3) == 0.0

    def test_half_point(self):
        S = d.binary_digit_martingale()
        f = d.martingale_function(S, 0.5)
        assert f.eval_dyadic(DR(1, 1)) == 0.5 * S.value(DI(1, 0))

    def test_endpoints_vanish(self):
        f = d.martingale_function(d.binary_digit_martingale(), 0.5)
        assert f.eval_dyadic(DR(0, 0)) == 0.0
        assert f.eval_dyadic(DR(1, 0)) == 0.0

    def test_difference_to_right_endpoint(self):
        # f(1) = 0: the b == 1 branch; the tiles [1/4, 1/2) and [1/2, 1)
        # give 2^-2 S([1/4, 1/2)) + 2^-1 S([1/2, 1)) = 0 + 1/2
        f = d.martingale_function(d.binary_digit_martingale(), 0.5)
        assert f.difference(0.25, 1) == 0.5
        assert f.difference(DR(1, 2), DR(1, 0)) == -f.eval_dyadic(DR(1, 2))

    def test_round_trip_exact_depth12(self):
        S = d.binary_digit_martingale()
        f = d.martingale_function(S, 0.5)
        S2 = d.from_function(f, 12)
        for n in range(13):
            for j in range(1 << n):
                I = DI(n, j)
                assert S2.value(I) == float(S.value(I))

    def test_round_trip_general_martingale(self):
        S = d.RandomSignMartingale(21)
        f = d.martingale_function(S, 0.5)
        S2 = d.from_function(f, 10)
        rng = random.Random(0)
        for _ in range(300):
            n = rng.randint(0, 10)
            I = DI(n, rng.getrandbits(n))
            assert S2.value(I) == S.value(I)

    def test_round_trip_block_martingale(self, block_martingale_half):
        # irrational float values survive the round trip bit for bit
        S = block_martingale_half
        f = d.martingale_function(S, 0.5)
        S2 = d.from_function(f, 12)
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(0, 12)
            I = DI(n, rng.getrandbits(n))
            assert S2.value(I) == S.value(I)

    def test_difference_telescopes(self):
        S = d.RandomSignMartingale(4)
        f = d.martingale_function(S, 0.5)
        rng = random.Random(1)
        for _ in range(100):
            depth = rng.randint(1, 12)
            a_bits = rng.getrandbits(depth)
            b_bits = rng.getrandbits(depth)
            a = DR(min(a_bits, b_bits), depth)
            b = DR(max(a_bits, b_bits), depth)
            direct = f.difference(a, b)
            via_zero = f.eval_dyadic(b) - f.eval_dyadic(a)
            assert direct == pytest.approx(via_zero, abs=1e-12)

    def test_whitney_sum_equals_difference(self):
        S = d.RandomSignMartingale(8)
        f = d.martingale_function(S, 0.5)
        a, b = DR(5, 5), DR(27, 5)
        tiles = d.whitney(a, b - a)
        total = sum(math.ldexp(S.value(I), -I.level) for I in tiles.intervals)
        assert f.difference(a, b) == pytest.approx(total, abs=1e-14)

    def test_requires_centered_start(self):
        shifted = d.Martingale(lambda child: 0.0, s0=1.0)
        with pytest.raises(d.DomainError):
            d.martingale_function(shifted, 0.5)

    def test_depth_cap_reported(self):
        f = d.martingale_function(d.binary_digit_martingale(), 0.5, max_depth=16)
        with pytest.raises(d.DepthCapError):
            f.eval_dyadic(DR(1, 20))
        assert f.truncation_bound() is not None if f.seminorm_bound else True

    def test_truncation_bound_value(self):
        f = d.martingale_function(d.binary_digit_martingale(), 0.5,
                                  max_depth=20, growth_bound=1.0)
        assert f.truncation_bound() == pytest.approx(
            f.seminorm_bound * 2.0 ** -10, rel=1e-12)

    def test_periodic_eval(self):
        f = d.martingale_function(d.binary_digit_martingale(), 0.5, max_depth=30)
        assert f(1.25) == pytest.approx(f(0.25), abs=1e-8)


class TestSeminormEstimate:
    def test_constant_zero(self):
        est = d.holder_seminorm_estimate(
            d.ConstantFunction(2.0), d.SeminormSampler(pairs=500, seed=0))
        assert est == 0.0

    def test_linear_closed_form(self):
        # |x - y|^(1-alpha) peaks at the largest sampled scale
        est = d.holder_seminorm_estimate(
            d.LinearFunction(1.0, alpha=0.5),
            d.SeminormSampler(pairs=4000, scale_min=1e-4, scale_max=0.5, seed=1))
        assert est == pytest.approx(0.5 ** 0.5, rel=0.02)

    def test_weierstrass_stabilizes_under_refinement(self, weier_half):
        vals = []
        for pairs in (2000, 8000, 32000):
            vals.append(d.holder_seminorm_estimate(
                weier_half, d.SeminormSampler(pairs=pairs, scale_min=2.0 ** -20,
                                              seed=3)))
        assert abs(vals[2] - vals[1]) / vals[2] < 0.05

    def test_reproducible(self, weier_half):
        cfg = d.SeminormSampler(pairs=1000, seed=9)
        assert (d.holder_seminorm_estimate(weier_half, cfg)
                == d.holder_seminorm_estimate(weier_half, cfg))
