import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadosc as d
from dyadosc.dyadic import DyadicInterval as DI
from dyadosc.dyadic import DyadicRational as DR

# independently summed with mpmath (400 terms, 30 digits):
WEIER_ROOT_VALUE = -3.6359615646280604


class TestBinaryDigit:
    def test_closed_form_values(self):
        S = d.binary_digit_martingale()
        assert S.value(DI(5, 0)) == -5          # address 00000
        assert S.value(DI(5, 0b10101)) == 1     # three ones
        assert S.value(DI(5, 0b11111)) == 5

    def test_star_norm_one_at_all_depths(self):
        S = d.binary_digit_martingale()
        for depth in (1, 4, 8, 12):
            assert d.star_norm(S, depth) == 1.0

    def test_star_norm_zero_martingale(self):
        assert d.star_norm(d.zero_martingale(), 8) == 0.0

    def test_pointwise_linear_bound(self):
        # |S_n| <= n since increments are unit-bounded
        S = d.binary_digit_martingale()
        for n in range(13):
            vals = S.level_values(n)
            assert np.all(np.abs(vals) <= n)

    def test_cancellation_exact(self):
        rep = d.check_cancellation(d.binary_digit_martingale(), 10)
        assert rep.max_violation == 0.0


class TestFromFunction:
    def test_identity_function_gives_one(self):
        S = d.from_function(d.LinearFunction(1.0), 8)
        for n in range(8):
            I = DI(n, (1 << n) - 1)
            assert S.value(I) == pytest.approx(1.0, abs=1e-12)

    def test_constant_gives_zero(self):
        S = d.from_function(d.ConstantFunction(3.7), 8)
        assert S.value(DI(6, 17)) == 0.0

    def test_weierstrass_root_value(self, weier_half):
        S = d.from_function(weier_half, 8, tol=1e-13)
        assert S.value(d.unit_interval()) == pytest.approx(WEIER_ROOT_VALUE,
                                                           abs=1e-10)

    def test_weierstrass_cancellation(self, weier_half):
        S = d.from_function(weier_half, 8, tol=1e-15)
        rep = d.check_cancellation(S, 8)
        assert rep.max_violation <= 1e-12

    def test_broken_evaluator_is_named(self):
        def broken(I):
            if (I.level, I.index) == (3, 5):
                return 123.0
            return 0.0

        S = d.martingale.ValueMartingale(broken)
        rep = d.check_cancellation(S, 4)
        assert rep.max_violation > 1.0
        assert rep.worst_interval is not None
        # the violation is detected at the parent of the corrupted node
        assert rep.worst_interval in (DI(3, 5), DI(2, 2))


class TestDiscountAndSharpness:
    def test_zero_growth_means_zero(self):
        T = d.GrowthMartingale(0.5, lambda child: 0.0)
        S = d.discount_transform(T)
        assert S.value(DI(6, 33)) == 0.0

    def test_single_jump(self):
        # T_1 - T_0 = 2^beta on [0,1/2): the discounted jump is exactly 1
        beta = 0.5

        def scaled(child):
            if child.level == 1:
                return 1.0 if child.index == 0 else -1.0
            return 0.0

        S = d.discount_transform(d.GrowthMartingale(beta, scaled))
        assert S.value(DI(1, 0)) == 1.0
        assert S.value(DI(1, 1)) == -1.0

    def test_sharpness_first_level(self):
        T = d.sharpness_martingale(0.5)
        assert T.value(DI(1, 1)) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert T.t0 == 0.0

    def test_round_trip_exact(self):
        T = d.sharpness_martingale(0.5)
        back = d.discount_transform(T)
        S = d.binary_digit_martingale()
        rng = random.Random(5)
        for _ in range(300):
            lvl = rng.randint(0, 12)
            I = DI(lvl, rng.getrandbits(lvl))
            assert back.value(I) == float(S.value(I))

    def test_discount_returns_the_base(self):
        S = d.binary_digit_martingale()
        assert d.discount_transform(d.sharpness_martingale(0.5, S)) is S
        with pytest.raises(d.DomainError):
            d.sharpness_martingale(0.5, d.Martingale(lambda child: 0.0, s0=1.0))

    def test_beta_star_norm_is_one(self):
        T = d.sharpness_martingale(0.5)
        assert d.beta_star_norm(T, 12) == 1.0

    def test_discount_increment_bound(self):
        T = d.random_growth_martingale(0.3, seed=2)
        S = d.discount_transform(T)
        bound = d.beta_star_norm(T, 8)
        assert d.star_norm(S, 8) <= bound + 1e-15


class TestSummationByParts:
    def test_zero(self):
        T = d.GrowthMartingale(0.4, lambda child: 0.0)
        assert d.summation_by_parts_check(T, 6) == 0.0

    def test_matches_scalar_reference(self):
        # the identity interval by interval, from scalar reads
        T = d.random_growth_martingale(0.4, seed=4)
        S = d.discount_transform(T)
        beta, worst = T.beta, 0.0
        for n in range(1, 7):
            for j in range(1 << n):
                I = DI(n, j)
                acc = 0.0
                for k in range(1, n):
                    acc += math.pow(2.0, -k * beta) * T.value(I.ancestor(k))
                rhs = ((1.0 - 2.0 ** -beta) * acc + math.pow(2.0, -n * beta) * T.value(I)
                       - 2.0 ** -beta * T.t0)
                worst = max(worst, abs(S.value(I) - rhs))
        assert d.summation_by_parts_check(T, 6) == worst

    def test_level_one_reduces_to_definition(self):
        T = d.random_growth_martingale(0.5, seed=9)
        assert d.summation_by_parts_check(T, 1) <= 1e-15

    @pytest.mark.parametrize("seed,beta", [(1, 0.3), (2, 0.5), (3, 0.8)])
    def test_random_growth(self, seed, beta):
        T = d.random_growth_martingale(beta, seed=seed)
        assert d.summation_by_parts_check(T, 10) <= 1e-10


class TestNormComparison:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    def test_two_sided_norm_equivalence(self, seed, beta):
        T = d.random_growth_martingale(beta, seed=seed)
        depth = 9
        star = d.beta_star_norm(T, depth)
        full = d.beta_norm(T, depth)
        assert star <= (1.0 + 2.0 ** -beta) * full + 1e-12
        factor = 2.0 ** beta / (2.0 ** beta - 1.0)
        assert full <= factor * star + 1e-12


    def test_beta_norm_matches_scalar_reference(self):
        T = d.random_growth_martingale(0.5, seed=1)
        ref = max([abs(T.t0)] + [math.pow(2.0, -n * T.beta) * abs(T.value(DI(n, j)))
                                 for n in range(1, 8) for j in range(1 << n)])
        assert d.beta_norm(T, 7) == ref


class TestSubsample:
    def test_decimated_bound_and_cancellation(self):
        S = d.binary_digit_martingale()
        # |S_n - S_m| <= |n - m| pointwise, so C = 0 works
        sub = d.subsample(S, 4, 2, 0.0)
        assert sub.star_norm(2) <= 1.0 + 1e-15
        assert sub.check_cancellation(2) <= 1e-12

    def test_level_sweeps_match_scalar_reference(self):
        sub = d.subsample(d.RandomSignMartingale(2, scale=0.3), 3, 1, 0.5)
        star = cancel = 0.0
        for n in range(3):
            lvl, nxt = sub.dyadic_level(n), sub.dyadic_level(n + 1)
            for j in range(1 << lvl):
                parent = sub.value(n, DI(lvl, j))
                kids = [sub.value(n + 1, DI(nxt, 8 * j + c)) for c in range(8)]
                cancel = max(cancel, abs(parent - sum(kids) / 8))
                star = max(star, max(abs(v - parent) for v in kids))
        assert sub.check_cancellation(3) == cancel
        assert sub.star_norm(3) == star

    def test_values_scale(self):
        S = d.binary_digit_martingale()
        sub = d.subsample(S, 3, 0, 1.0)
        I = DI(6, 0b110110)
        assert sub.value(2, I) == S.value(I) / 4.0

    def test_domain_checks(self):
        S = d.binary_digit_martingale()
        with pytest.raises(d.DomainError):
            d.subsample(S, 0, 0, 1.0)
        with pytest.raises(d.DomainError):
            d.subsample(S, 3, 3, 1.0)


class TestDumpFormat:
    def test_rows(self):
        rows = list(d.dump_rows(d.binary_digit_martingale(), 2))
        assert rows[0] == (0, 0, 0)
        assert (1, 0, -1) in rows and (1, 1, 1) in rows
        assert len(rows) == 1 + 2 + 4


class TestCancellationProperty:
    @given(st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=1,
                    max_size=64), st.integers(0, 2**20))
    @settings(max_examples=100, deadline=None)
    def test_paired_increments_cancel(self, magnitudes, salt):
        # paired jumps cancel up to one rounding of the accumulated value
        # (exact only when the arithmetic stays rational, e.g. integers)
        def inc(child):
            parent = (child.level - 1, child.index >> 1)
            mag = magnitudes[(parent[1] ^ salt) % len(magnitudes)]
            return mag if (child.index & 1) == 0 else -mag

        S = d.Martingale(inc, name="hypothesis")
        rep = d.check_cancellation(S, 5)
        assert rep.max_violation <= 1e-13

    @given(st.integers(-8, 8), st.integers(0, 2**20))
    @settings(max_examples=50, deadline=None)
    def test_integer_increments_cancel_exactly(self, mag, salt):
        def inc(child):
            parent_index = child.index >> 1
            sign = 1 if ((parent_index ^ salt) & 1) == 0 else -1
            v = mag * sign
            return v if (child.index & 1) == 0 else -v

        S = d.Martingale(inc, s0=0, name="hypothesis-int")
        rep = d.check_cancellation(S, 5)
        assert rep.max_violation == 0.0


class TestRandomSign:
    def test_deterministic_and_paired(self):
        A = d.RandomSignMartingale(11)
        B = d.RandomSignMartingale(11)
        for n in range(1, 8):
            incs_a = A.level_increments(n)
            incs_b = B.level_increments(n)
            assert np.array_equal(incs_a, incs_b)
            assert np.all(incs_a[0::2] == -incs_a[1::2])
            assert np.all(np.abs(incs_a) == 1.0)

    def test_level_values_match_walk(self):
        S = d.RandomSignMartingale(13)
        vals = S.level_values(6)
        for j in range(1 << 6):
            assert vals[j] == S.value(DI(6, j))

    def test_scalar_increment_allocates_no_level(self):
        # one deep scalar jump must not materialize the 2^23 parent signs
        S = d.RandomSignMartingale(3)
        tracemalloc.start()
        try:
            S.increment(DI(24, 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _vectorized_members():
    B = d.assemble_martingale(d.build_schedule(0.5, 1, depth_cap=160))
    return {
        "binary": d.binary_digit_martingale(),
        "random-sign": d.RandomSignMartingale(7, scale=0.75),
        "block": B,
        "block-discounted": d.ScaledMartingale(B, -0.5, star_bound=0.5),
        "random-growth": d.random_growth_martingale(0.6, seed=5),
        "sharpness": d.sharpness_martingale(0.3),
    }


class TestLevelArrayOracle:
    """Vectorized level arrays against the base-class scalar loops."""

    @pytest.mark.parametrize("name", sorted(_vectorized_members()))
    def test_level_arrays_match_scalar_loops(self, name):
        S = _vectorized_members()[name]
        for n in range(1, 11):
            assert np.array_equal(S.level_increments(n), d.Martingale.level_increments(S, n))
        rng = random.Random(name)
        for _ in range(20):
            n = rng.randint(0, 16)
            lo = rng.randrange(1 << n)
            hi = min(1 << n, lo + rng.randint(1, 300))
            vals = S.level_values_range(n, lo, hi)
            assert np.array_equal(vals, [S.value(DI(n, j)) for j in range(lo, hi)])
            assert np.array_equal(vals, d.Martingale.level_values_range(S, n, lo, hi))
            if n:
                incs = S.level_increments(n)[lo:hi]
                assert np.array_equal(incs, [S.increment(DI(n, j)) for j in range(lo, hi)])

    def test_block_discounted_view_matches_scalar_lambda(self):
        B = d.assemble_martingale(d.build_schedule(0.5, 1, depth_cap=160))
        lam = d.Martingale(lambda ch: math.pow(2.0, -ch.level * 0.5) * B.increment(ch),
                           star_bound=0.5, name="block-discounted")
        view = d.ScaledMartingale(B, -0.5, star_bound=0.5, name="block-discounted")
        assert (d.sweep_mass_distribution(view, 0.25, 16)
                == d.sweep_mass_distribution(lam, 0.25, 16))
