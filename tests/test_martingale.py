import math
import random
from bisect import bisect_right
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadosc as d
from dyadosc import martingale
from dyadosc.dyadic import DyadicInterval as DI
from dyadosc.dyadic import DyadicRational as DR
from oracles import (IncrementOracleMartingale, bit_walk_primitive, level_set_family,
                     sweep_mass_levels, value_difference_martingale)

# the loop over `increment` that any kind's level arrays must reproduce
scalar_loop = IncrementOracleMartingale._level_increments

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

    def test_weierstrass_root_value(self):
        S = d.from_function(d.WeierstrassFunction(2.0, 0.5, 1e-13), 8)
        assert S.value(d.unit_interval()) == pytest.approx(WEIER_ROOT_VALUE,
                                                           abs=1e-10)

    def test_weierstrass_cancellation(self):
        S = d.from_function(d.WeierstrassFunction(2.0, 0.5, 1e-15), 8)
        rep = d.check_cancellation(S, 8)
        assert rep.max_violation <= 1e-12

    def test_broken_evaluator_is_named(self):
        class Broken(d.HolderFunction):
            # f(b) - f(a) vanishes on every interval but [5/8, 3/4) = I(3, 5)
            def difference(self, a, b):
                return 123.0 / 8 if (a, b) == (DR(5, 3), DR(6, 3)) else 0.0

        S = d.from_function(Broken(0.5, "broken"), 4)
        assert S.value(DI(3, 5)) == 123.0
        rep = d.check_cancellation(S, 4)
        assert rep.max_violation > 1.0
        assert rep.worst_interval is not None
        # the violation is detected at the parent of the corrupted node
        assert rep.worst_interval in (DI(3, 5), DI(2, 2))

    @pytest.mark.parametrize("name", ["W(2, 1/2)", "W(3, 1/2)", "binary-induced",
                                      "block-induced"])
    def test_range_reads_are_the_scalar_reads(self, name, block_martingale_half):
        # every cell to depth 10: the range read, the one-cell read of
        # `value` and 2^n (f(b) - f(a)) by the scalar difference, bit for bit
        f = {"W(2, 1/2)": lambda: d.WeierstrassFunction(2.0, 0.5),
             "W(3, 1/2)": lambda: d.WeierstrassFunction(3.0, 0.5),
             "binary-induced": lambda: d.martingale_function(d.binary_digit_martingale(), 0.5),
             "block-induced": lambda: d.martingale_function(block_martingale_half, 0.5),
             }[name]()
        S = d.from_function(f, 10)
        for n in range(11):
            scalar = [S.value(DI(n, j)) for j in range(1 << n)]
            direct = [math.ldexp(f.difference(DR(j, n), DR(j + 1, n)), n)
                      for j in range(1 << n)]
            assert np.array(scalar).tobytes() == np.array(direct).tobytes()
            assert S.level_values_range(n, 0, 1 << n).tobytes() == np.array(scalar).tobytes()

    def test_range_next_to_2_to_the_66(self):
        # numerators past 2^63 stay Python ints
        B = d.binary_digit_martingale(max_depth=80)
        lo, hi = (1 << 66) - 5, 1 << 66
        cells = [DI(66, j) for j in range(lo, hi)]
        for f, want in ((d.martingale_function(B, 0.5), [B.value(I) for I in cells]),
                        # the endpoints of each cell round to one float
                        (d.WeierstrassFunction(2.0, 0.5), [0.0] * 5)):
            S = d.from_function(f, 66)
            got = S.level_values_range(66, lo, hi).tolist()
            assert got == [S.value(I) for I in cells] == want

    def test_writing_into_a_read_leaves_the_next_read(self):
        S = d.from_function(d.WeierstrassFunction(2.0, 0.5), 6)
        for read in (lambda: S.level_values_range(6, 3, 40), lambda: S.level_values(6)):
            first = read()
            want = first.tobytes()
            first[:] = 7.0
            assert read().tobytes() == want
        assert S.value(DI(6, 3)) == S.level_values(6)[3]

    def test_errors_of_scalar_and_range_reads(self):
        S = d.from_function(d.LinearFunction(1.0, 0.5), 5)
        with pytest.raises(d.DomainError, match="outside the unit interval"):
            S.value(DI(3, 8))
        for call in (lambda: S.value(DI(6, 0)), lambda: S.level_values_range(6, 0, 1)):
            with pytest.raises(d.DepthCapError, match="level 6 beyond max depth 5"):
                call()
        empty = S.level_values_range(9, 3, 3)
        assert empty.dtype == np.float64 and empty.size == 0


    @pytest.mark.parametrize("name", ["W(2, 1/2)", "W(3, 1/2)", "binary-induced"])
    def test_hook_is_the_cell_differences(self, name):
        # the hook's two dyadic_differences reads against S_n(child) -
        # S_{n-1}(parent) per cell: the same walk, blocks and star norm
        f = {"W(2, 1/2)": lambda: d.WeierstrassFunction(2.0, 0.5),
             "W(3, 1/2)": lambda: d.WeierstrassFunction(3.0, 0.5),
             "binary-induced": lambda: d.martingale_function(d.binary_digit_martingale(), 0.5),
             }[name]()
        # depth 10: each of the three walks evaluates f at every cell
        S = d.from_function(f, 10)
        O = value_difference_martingale(S)
        for (n, incs, vals), (m, incs_o, vals_o) in zip(S.levels(10), O.levels(10), strict=True):
            assert n == m and incs.tobytes() == incs_o.tobytes()
            assert vals.tobytes() == vals_o.tobytes()
        for got, want in zip(S.level_blocks(10), O.level_blocks(10), strict=True):
            assert got[:2] == want[:2]
            assert got[2].tobytes() == want[2].tobytes() and got[3].tobytes() == want[3].tobytes()
        assert d.star_norm(S, 10).hex() == d.star_norm(O, 10).hex()
        # and the one-cell reads: value(child) - value(parent)
        rng = random.Random(name)
        for n in (1, 5, 9, 10):
            for j in {0, (1 << n) - 1, *(rng.randrange(1 << n) for _ in range(6))}:
                I = DI(n, j)
                want = S.value(I) - S.value(I.parent())
                assert S.increment(I).hex() == want.hex() == O.increment(I).hex()

class TestDiscountAndSharpness:
    def test_zero_growth_means_zero(self):
        T = d.GrowthMartingale(0.5, IncrementOracleMartingale(lambda child: 0.0))
        S = d.discount_transform(T)
        assert S.value(DI(6, 33)) == 0.0

    def test_single_jump(self):
        # T_1 - T_0 = 2^beta on [0,1/2): the discounted jump is exactly 1
        beta = 0.5

        def scaled(child):
            if child.level == 1:
                return 1.0 if child.index == 0 else -1.0
            return 0.0

        S = d.discount_transform(d.GrowthMartingale(beta, IncrementOracleMartingale(scaled)))
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
            d.sharpness_martingale(0.5, IncrementOracleMartingale(lambda child: 0.0, s0=1.0))

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
        T = d.GrowthMartingale(0.4, IncrementOracleMartingale(lambda child: 0.0))
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
        sub = d.SubsampledMartingale(S, 4, 2, 0.0)
        assert sub.star_norm(2) <= 1.0 + 1e-15
        assert sub.check_cancellation(2) <= 1e-12

    def test_level_sweeps_match_scalar_reference(self):
        sub = d.SubsampledMartingale(d.RandomSignMartingale(2, scale=0.3), 3, 1, 0.5)
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

    def test_each_level_read_once(self, monkeypatch):
        # decimated levels 0..4 sit at dyadic levels 1, 4, 7, 10, 13
        reads = []
        read = d.Martingale.level_values

        def counting(self, n):
            reads.append(n)
            return read(self, n)

        monkeypatch.setattr(d.Martingale, "level_values", counting)
        sub = d.SubsampledMartingale(d.RandomSignMartingale(1), 3, 1, 0.0)
        sub.star_norm(4)
        assert reads == [1, 4, 7, 10, 13]
        reads.clear()
        sub.check_cancellation(4)
        assert reads == [1, 4, 7, 10, 13]
        reads.clear()
        assert sub.star_norm(0) == 0.0 and reads == []

    def test_values_scale(self):
        S = d.binary_digit_martingale()
        sub = d.SubsampledMartingale(S, 3, 0, 1.0)
        I = DI(6, 0b110110)
        assert sub.value(2, I) == S.value(I) / 4.0

    def test_domain_checks(self):
        S = d.binary_digit_martingale()
        with pytest.raises(d.DomainError):
            d.SubsampledMartingale(S, 0, 0, 1.0)
        with pytest.raises(d.DomainError):
            d.SubsampledMartingale(S, 3, 3, 1.0)

    @pytest.mark.parametrize("C", [-1.0, -0.25, math.inf, math.nan])
    def test_c_nonnegative_and_finite(self, C):
        # N + C = 1 + C was 0, negative or NaN, and divided every value
        with pytest.raises(d.DomainError, match="C must be"):
            d.SubsampledMartingale(d.binary_digit_martingale(), 1, 0, C)


class TestDumpFormat:
    def test_rows(self):
        rows = list(d.dump_rows(d.binary_digit_martingale(), 2))
        assert rows[0] == (0, 0, 0)
        assert (1, 0, -1) in rows and (1, 1, 1) in rows
        assert len(rows) == 1 + 2 + 4

    def test_sweep_budget_checked_before_any_level(self, monkeypatch):
        monkeypatch.setattr(martingale, "SWEEP_CELL_BUDGET", 1 << 6)
        S = d.binary_digit_martingale()
        assert len(list(d.dump_rows(S, 6))) == (1 << 7) - 1
        S.level_values = lambda n: pytest.fail("level built past the budget")
        with pytest.raises(d.DepthCapError):
            d.dump_rows(S, 7)


class TestSweepBudget:
    def test_benchmark_depths_inside_budget(self):
        for depth in (0, 16, 22):
            martingale.check_sweep_budget(depth)
        with pytest.raises(d.DepthCapError):
            martingale.check_sweep_budget(40)

    def test_budget_need_not_be_a_power_of_two(self, monkeypatch):
        monkeypatch.setattr(martingale, "SWEEP_CELL_BUDGET", 100)
        martingale.check_sweep_budget(6)            # 64 cells
        with pytest.raises(d.DepthCapError):
            martingale.check_sweep_budget(7)        # 128 cells


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

        S = IncrementOracleMartingale(inc, name="hypothesis")
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

        S = IncrementOracleMartingale(inc, s0=0, name="hypothesis-int")
        rep = d.check_cancellation(S, 5)
        assert rep.max_violation == 0.0


class TestCancellationChunks:
    def test_chunking_keeps_the_report(self, monkeypatch):
        # a chunk's argmax and the strict > keep the first maximum
        S = d.from_function(d.WeierstrassFunction(3.0, 0.5), 10)
        whole = d.check_cancellation(S, 10)
        assert whole.max_violation > 0.0
        monkeypatch.setattr(martingale, "_CANCELLATION_CHUNK", 4)
        chunked = d.check_cancellation(S, 10)
        assert (chunked.max_violation, chunked.worst_interval, chunked.checked) == \
            (whole.max_violation, whole.worst_interval, whole.checked)

    def test_peak_memory_bounded(self, block_martingale_half):
        # whole-level reads at depth 20 peaked at ~43 MiB; chunks of 2^16
        # parents keep the peak near 6 MiB
        tracemalloc.start()
        try:
            rep = d.check_cancellation(block_martingale_half, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.checked == (1 << 20) - 1 and rep.ok()
        assert peak < 16 << 20

    def test_hook_cells_bounded(self):
        # each chunk read walks only the cells above its range: about
        # 3 x 2^21 cells in all, where whole-level walks per chunk
        # returned 33,030,054 (15.75 x 2^21)
        S = d.RandomSignMartingale(3)
        hook = S._level_increments
        cells = []

        def counted(n, parents):
            out = hook(n, parents)
            cells.append(out.size)
            return out

        S._level_increments = counted
        assert d.check_cancellation(S, 20).ok(0.0)
        assert sum(cells) <= 4 << 21

    @pytest.mark.parametrize("depth", [25, 40])
    def test_refused_past_the_sweep_budget(self, depth):
        # its time doubles per level: depth 40 was accepted on a kind whose
        # max_depth is 48, where a whole-level sweep refuses past 24
        S = d.RandomSignMartingale(3)
        S._level_increments = S.level_values_range = \
            lambda *args: pytest.fail("level read past the budget")
        with pytest.raises(d.DepthCapError):
            d.check_cancellation(S, depth)


class TestNaNJump:
    def test_sup_certificates_report_nan(self):
        # Python's max and the `>` test dropped the NaN: each of these read
        # a finite value, and the cancellation check passed with a 0.0
        # violation and no worst interval
        def inc(child):
            if child.level == 3 and child.index >> 1 == 2:
                return math.nan
            return 1.0 if child.index % 2 == 0 else -1.0

        S = IncrementOracleMartingale(inc, star_bound=1.0)
        T = d.GrowthMartingale(0.5, S)
        sub = d.SubsampledMartingale(S, 2, 0, 0.0)
        for value in (d.star_norm(S, 5), d.beta_star_norm(T, 5), d.beta_norm(T, 5),
                      d.summation_by_parts_check(T, 5), sub.star_norm(2),
                      sub.check_cancellation(2)):
            assert math.isnan(value)
        rep = d.check_cancellation(S, 5)
        assert math.isnan(rep.max_violation) and not rep.ok()
        assert rep.worst_interval == DI(2, 2)     # the first NaN: its children


class TestMartingaleRefusals:
    @pytest.mark.parametrize("call", [
        lambda: IncrementOracleMartingale(lambda child: 0.0, max_depth=-1),
        lambda: d.binary_digit_martingale().increment(d.unit_interval()),
        lambda: d.binary_digit_martingale().level_increments(0),
        lambda: d.GrowthMartingale(1.0, d.RandomSignMartingale(1)),
        lambda: d.SubsampledMartingale(d.binary_digit_martingale(), 2, 1, 0.0).value(
            1, DI(2, 0)),
        lambda: d.binary_digit_martingale().level_values(-1),
    ], ids=["negative-max-depth", "root-increment", "level-0-increments",
            "growth-beta-1", "subsampled-off-level", "negative-level"])
    def test_domain_error(self, call):
        with pytest.raises(d.DomainError):
            call()

    def test_subsampled_value_on_its_level(self):
        S = d.RandomSignMartingale(4)
        T = d.SubsampledMartingale(S, 2, 1, 0.5)
        for j in range(8):
            assert T.value(1, DI(3, j)) == S.value(DI(3, j)) / 2.5


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

    def test_uniform_draws_keep_their_declared_scale(self):
        S = martingale._RandomUniformMartingale(1, scale=0.5)
        unit = martingale._RandomUniformMartingale(1)
        assert S.star_bound == 0.5 and d.star_norm(S, 10) <= 0.5
        for n in range(1, 11):
            assert S.level_increments(n).tolist() == (0.5 * unit.level_increments(n)).tolist()
            assert S.increment(DI(n, n)) == 0.5 * unit.increment(DI(n, n))

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
        "offset": d.ScaledMartingale(d.RandomSignMartingale(9), 0.0, s0=5.0),
    }


def _scalar_oracle(S):
    """The increment oracle on S's scalar jumps, read apart from S's hook:
    a paired kind's Python-int kernel, and 2^(n gamma) times the base's
    jump for a scaled view, summed along the ancestor chain."""
    if isinstance(S, d.ScaledMartingale):
        base = _scalar_oracle(S.base)
        jump = lambda ch: math.pow(2.0, ch.level * S.gamma) * base.increment(ch)
    else:
        jump = S.increment
    return IncrementOracleMartingale(jump, s0=S.s0, max_depth=S.max_depth)


class TestLevelArrayOracle:
    """Vectorized level arrays against the increment oracle's scalar loops."""

    @pytest.mark.parametrize("name", sorted(_vectorized_members()))
    def test_level_arrays_match_scalar_loops(self, name):
        S = _vectorized_members()[name]
        O = _scalar_oracle(S)
        for n in range(1, 11):
            assert np.array_equal(S.level_increments(n), scalar_loop(
                O, n, np.arange(1 << (n - 1), dtype=np.uint64)))
        rng = random.Random(name)
        for _ in range(20):
            n = rng.randint(0, 16)
            lo = rng.randrange(1 << n)
            hi = min(1 << n, lo + rng.randint(1, 300))
            vals = S.level_values_range(n, lo, hi)
            assert np.array_equal(vals, [S.value(DI(n, j)) for j in range(lo, hi)])
            assert np.array_equal(vals, [O.value(DI(n, j)) for j in range(lo, hi)])
            assert np.array_equal(vals, d.Martingale.level_values_range(S, n, lo, hi))
            if n:
                incs = S.level_increments(n)[lo:hi]
                assert np.array_equal(incs, [S.increment(DI(n, j)) for j in range(lo, hi)])
                assert np.array_equal(incs, [O.increment(DI(n, j)) for j in range(lo, hi)])

    @pytest.mark.parametrize("name", sorted(_vectorized_members()))
    def test_levels_match_scalar_oracle(self, name):
        S = _vectorized_members()[name]
        O = _scalar_oracle(S)
        seen = []
        for (n, incs, vals), (_, incs_o, vals_o) in zip(S.levels(10), O.levels(10)):
            seen.append(n)
            assert np.array_equal(incs, [S.increment(DI(n, j)) for j in range(1 << n)])
            assert np.array_equal(vals, [S.value(DI(n, j)) for j in range(1 << n)])
            assert incs.tobytes() == incs_o.tobytes() and vals.tobytes() == vals_o.tobytes()
        assert seen == list(range(1, 11))

    @pytest.mark.parametrize("name", sorted(_vectorized_members()))
    def test_scalar_reads_match_increment_oracle(self, name):
        # the kind's own scalar and range reads against the oracle's
        # ancestor sums, by float.hex and by type, at levels 1-16 and 48
        S = _vectorized_members()[name]
        O = _scalar_oracle(S)
        rng = random.Random(name)
        for n in [*range(1, 17), 48]:
            for j in sorted({0, (1 << n) - 1, *(rng.randrange(1 << n) for _ in range(3))}):
                I = DI(n, j)
                got, want = S.value(I), O.value(I)
                assert type(got) is type(want) and float(got).hex() == float(want).hex()
                got, want = S.increment(I), O.increment(I)
                assert type(got) is type(want) and float(got).hex() == float(want).hex()
            lo = rng.randrange((1 << n) - 1)
            assert [v.hex() for v in S.level_values_range(n, lo, lo + 2).tolist()] == [
                float(O.value(DI(n, j))).hex() for j in (lo, lo + 1)]

    def test_block_discounted_view_matches_scalar_lambda(self):
        B = d.assemble_martingale(d.build_schedule(0.5, 1, depth_cap=160))
        lam = IncrementOracleMartingale(
            lambda ch: math.pow(2.0, -ch.level * 0.5) * B.increment(ch),
            star_bound=0.5, name="block-discounted")
        view = d.ScaledMartingale(B, -0.5, star_bound=0.5, name="block-discounted")
        assert (d.sweep_mass_distribution(view, 0.25, 16)
                == d.sweep_mass_distribution(lam, 0.25, 16))


class _OneHook(d.Martingale):
    """A kind that defines only its hook: paired jumps +-3/4 on parents
    divisible by 3 and -+1/2 on the others, halved on odd levels."""

    def _level_increments(self, n, parents):
        left = np.where(parents % 3 == 0, 0.75, -0.5) * 0.5 ** (n % 2)
        return np.repeat(left, 2) * np.tile([1.0, -1.0], parents.size)


class TestOneHookKind:
    """Every read of a kind that writes only `_level_increments`."""

    def test_answers_every_read(self):
        S = _OneHook(star_bound=0.75, max_depth=80)
        for n in (1, 2, 7, 20, 64, 65, 80):
            for j in sorted({0, 1, 5 % (1 << n), (1 << n) - 1}):
                I = DI(n, j)
                walk = S.level_values_range(n, j, j + 1)
                assert S.value(I).hex() == float(walk[0]).hex()
                assert S.value(I).hex() == (S.value(DI(n - 1, j >> 1)) + S.increment(I)).hex()
        for n in range(1, 11):
            assert S.level_increments(n).tolist() == [S.increment(DI(n, j))
                                                      for j in range(1 << n)]
        blocks = list(S.level_blocks(14))
        for n in range(1, 15):
            vals = np.concatenate([v for m, _, _, v in blocks if m == n])
            assert vals.tobytes() == S.level_values(n).tobytes()
        # the integral of S_12 from 0 to bits 2^-12 is 2^-12 times the sum
        # of the level-12 values left of it
        vals = S.level_values(12)
        for bits in (1, 1234, 4095):
            want = math.ldexp(float(np.sum(vals[:bits])), -12)
            got = S.pair_primitive(bits, bits ^ 1 << 11, 12)[1]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert got.hex() == bit_walk_primitive(S, d.unit_interval(), 0.0, bits, 12).hex()
        rep = d.check_cancellation(S, 12)
        assert rep.max_violation == 0.0 and rep.checked == (1 << 12) - 1
        for eta in (0.25, 0.5):
            mass = d.sweep_mass_distribution(S, eta, 12)
            assert mass.increments_paired and mass.level_sums_exact
            whole = sweep_mass_levels(S, eta, 12)
            assert (mass.members, mass.worst_log2_margin.hex(), mass.worst_member) == \
                (whole.members, whole.worst_log2_margin.hex(), whole.worst_member)

    def test_bare_base_names_its_class(self):
        # each scalar read goes through the hook, so a kind without one
        # must raise at once, not recurse
        S = d.Martingale()
        assert S.value(d.unit_interval()) == 0.0        # the root needs no jump
        for read in (lambda: S.increment(DI(3, 1)), lambda: S.value(DI(3, 1)),
                     lambda: S.level_values(2), lambda: S.level_increments(1),
                     lambda: next(S.level_blocks(2)), lambda: d.check_cancellation(S, 2)):
            with pytest.raises(NotImplementedError, match="^Martingale defines no "):
                read()
        with pytest.raises(NotImplementedError, match="^Sub defines no "):
            type("Sub", (d.Martingale,), {})().increment(DI(1, 0))


# The jump formulas of the paired kinds before their one left-child
# kernel, kept verbatim (`self` passed as `S`) as oracles for it: each
# kind's scalar `_inc` and array `_level_increments`.

def _binary_inc(S, child):
    return 1 if (child.index & 1) else -1


def _binary_level_increments(S, n):
    out = np.empty(1 << n)
    out[0::2] = -1.0
    out[1::2] = 1.0
    return out


def _zero_inc(S, child):
    return 0.0


def _zero_level_increments(S, n):
    return np.zeros(1 << n)


def _sign_draw(S, bits):
    return S.scale * (1.0 - 2.0 * (bits >> 63))


def _uniform_draw(S, bits):
    return (bits >> 11) * 2.0 ** -52 - 1.0


def _random_inc(draw):
    def _inc(S, child):
        left = draw(S, martingale._stream(S.seed, child.level - 1, child.index >> 1))
        return left if (child.index & 1) == 0 else -left
    return _inc


def _random_level_increments(draw):
    def _level_increments(S, n):
        parents = np.arange(1 << (n - 1), dtype=np.uint64)
        left = draw(S, martingale._stream(S.seed, n - 1, parents))
        out = np.empty(1 << n)
        out[0::2] = left
        out[1::2] = -left
        return out
    return _level_increments


def _active_placement(S, i):
    """Placement with k < i <= k + M, if any."""
    pos = bisect_right(S._starts, i - 1) - 1
    if pos < 0:
        return None
    p = S.schedule.placements[pos]
    return p if i <= p.end else None


def _block_inc(S, child):
    i = child.level
    p = _active_placement(S, i)
    if p is None:
        return 0.0
    t = i - p.level - 1          # 0-based Haar term index
    if t > 0:
        between = (child.index >> 1) & ((1 << t) - 1)
        if between:
            return 0.0
    v = p.amplitude * math.ldexp(1.0, t)
    return v if (child.index & 1) == 0 else -v


def _block_level_increments(S, n):
    p = _active_placement(S, n)
    out = np.zeros(1 << n)
    if p is None:
        return out
    t = n - p.level - 1
    idx = np.arange(1 << n, dtype=np.uint64)
    if t > 0:
        between = (idx >> np.uint64(1)) & np.uint64((1 << t) - 1)
        live = between == 0
    else:
        live = np.ones(idx.shape, dtype=bool)
    v = p.amplitude * math.ldexp(1.0, t)
    out[live & ((idx & np.uint64(1)) == 0)] = v
    out[live & ((idx & np.uint64(1)) == 1)] = -v
    return out


def _paired_kinds(block_martingale):
    """name -> (martingale, its former scalar oracle, its former level
    array), each readable to level 900."""
    zero = d.zero_martingale()
    zero.max_depth = 1024
    return {
        "binary": (d.binary_digit_martingale(max_depth=1024), _binary_inc,
                   _binary_level_increments),
        "zero": (zero, _zero_inc, _zero_level_increments),
        "random-sign": (d.RandomSignMartingale(7, scale=0.75, max_depth=1024),
                        _random_inc(_sign_draw), _random_level_increments(_sign_draw)),
        "random-uniform": (martingale._RandomUniformMartingale(5, max_depth=1024),
                           _random_inc(_uniform_draw),
                           _random_level_increments(_uniform_draw)),
        "block": (block_martingale, _block_inc, _block_level_increments),
    }


_PAIRED_KINDS = ["binary", "zero", "random-sign", "random-uniform", "block"]


class TestPairedKernelOracle:
    """The one left-child kernel per paired kind against the scalar and
    array formulas it replaced: the same bytes, types and signs."""

    @pytest.mark.parametrize("name", _PAIRED_KINDS)
    def test_level_arrays_byte_equal(self, block_martingale_half, name):
        S, _, level_increments = _paired_kinds(block_martingale_half)[name]
        for n in range(1, 17):
            assert S.level_increments(n).tobytes() == level_increments(S, n).tobytes()

    @pytest.mark.parametrize("name", _PAIRED_KINDS)
    def test_scalar_jumps_equal(self, block_martingale_half, name):
        # block_martingale_half ends at level 895; its spine cells (low
        # parent bits zero) are the live ones, so shifted draws find them
        S, inc, _ = _paired_kinds(block_martingale_half)[name]
        rng = random.Random(name)
        for n in range(1, 901):
            top = (1 << n) - 1
            idx = {0, 1, top - 1, top}
            for _ in range(8):
                shift = rng.randrange(n + 1)
                idx.add((rng.getrandbits(n) >> shift) << shift)
                idx.add(((rng.getrandbits(n) >> shift) << shift) | 1)
            for j in sorted(i for i in idx if 0 <= i <= top):
                got, want = S.increment(DI(n, j)), inc(S, DI(n, j))
                assert type(got) is type(want) and got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)


# The whole-level walks before they were made allocation-lean, kept as
# byte-identical oracles.

def _repeat_levels(S, depth):
    """`levels` as np.repeat(parents, 2) + increments, level by level."""
    vals = np.full(1, float(S.s0))
    for n in range(1, depth + 1):
        incs = S.level_increments(n)
        vals = np.repeat(vals, 2) + incs
        yield n, incs, vals


def _splitmix64_out_of_place(z):
    z = (z + 0x9E3779B97F4A7C15) & martingale._M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & martingale._M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & martingale._M64
    return z ^ (z >> 31)


def _check_cancellation_every_chunk_read(S, depth):
    """`check_cancellation` reading every chunk's parents afresh."""
    worst, worst_iv, checked = 0.0, None, 0
    for n in range(depth):
        size = 1 << n
        step = min(size, martingale._CANCELLATION_CHUNK)
        for lo in range(0, size, step):
            parents = S.level_values_range(n, lo, lo + step)
            kids = S.level_values_range(n + 1, 2 * lo, 2 * (lo + step))
            viol = np.abs(parents - 0.5 * (kids[0::2] + kids[1::2]))
            j = int(np.argmax(viol))
            if viol[j] > worst:
                worst, worst_iv = float(viol[j]), DI(n, lo + j)
            checked += step
    return martingale.CancellationReport(worst, worst_iv, checked)


def _walk_and_slice(S, n, lo, hi):
    """The base `level_values_range` before range walks, verbatim: the
    whole level walked by `levels`, then sliced."""
    S._check_range(n, lo, hi)
    vals = np.full(1, float(S.s0))
    for _, _, vals in S.levels(n):
        pass
    return vals[lo:hi]


def _range_walk_kinds():
    B = d.assemble_martingale(d.build_schedule(0.5, 1, depth_cap=160))
    return {
        "random-sign": d.RandomSignMartingale(7, scale=0.75),
        "random-uniform": martingale._RandomUniformMartingale(5),
        "random-growth": d.random_growth_martingale(0.6, seed=5),
        "scaled": d.ScaledMartingale(d.RandomSignMartingale(9), 0.3, s0=5.0),
        "zero": d.zero_martingale(),
        "binary": d.binary_digit_martingale(),
        "block-discounted": d.ScaledMartingale(B, -0.5, star_bound=0.5),
        "lambda": IncrementOracleMartingale(
            lambda ch: math.pow(2.0, -ch.level * 0.5) * B.increment(ch), s0=1.25),
    }


class TestRangeWalkOracle:
    """The range walk of the base `level_values_range` against the whole
    level walked and sliced: the same bytes on every range."""

    @pytest.mark.parametrize("name", sorted(_range_walk_kinds()))
    def test_byte_equal_to_walk_and_slice(self, name):
        S = _range_walk_kinds()[name]
        rng = random.Random(name)
        for n in range(15):
            top = 1 << n
            full = _walk_and_slice(S, n, 0, top)
            ranges = [(0, top), (0, 0), (top, top), (0, 1), (top - 1, top)]
            for _ in range(12):
                lo = rng.randrange(top + 1)
                ranges += [(lo, rng.randrange(lo, top + 1)), (lo, lo), (lo, min(lo + 1, top))]
            for lo, hi in ranges:
                got = S.level_values_range(n, lo, hi)
                want = _walk_and_slice(S, n, lo, hi)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, lo, hi)
                assert want.tobytes() == full[lo:hi].tobytes()

    @pytest.mark.parametrize("S", [d.RandomSignMartingale(4), d.binary_digit_martingale()],
                             ids=["random-sign", "binary"])
    def test_deep_reads_match_scalar_values(self, S):
        # a range read no longer walks its whole level: level 48 in 48
        # steps; the binary kind's scalar value is its digit count
        O = _scalar_oracle(S)
        for j in (0, 12345, (1 << 48) - 3):
            assert S.level_values_range(48, j, j + 3).tolist() == [
                S.value(DI(48, i)) for i in range(j, j + 3)] == [
                O.value(DI(48, i)) for i in range(j, j + 3)]

    def test_beyond_the_depth_cap(self):
        # parents past level 64 are Python ints, so a walk reads to max_depth
        for S in (d.RandomSignMartingale(4), d.RandomSignMartingale(4, max_depth=100)):
            assert S.level_values_range(S.max_depth, 0, 1).size == 1
            with pytest.raises(d.DepthCapError):
                S.level_values_range(S.max_depth + 1, 0, 1)


def _deep_kinds(block):
    """name -> (kind, the increment oracle that sums its scalar jumps),
    both readable past level 64."""
    R = d.RandomSignMartingale(4, max_depth=100)
    G = d.random_growth_martingale(0.6, 5, max_depth=100)
    V = d.ScaledMartingale(block, -0.5, star_bound=0.5)
    return {
        "random-sign": (R, IncrementOracleMartingale(R.increment, max_depth=100)),
        "random-growth": (G, IncrementOracleMartingale(
            lambda ch: math.pow(2.0, ch.level * 0.6) * G.base.increment(ch), max_depth=100)),
        "block-discounted": (V, IncrementOracleMartingale(
            lambda ch: math.pow(2.0, -ch.level * 0.5) * block.increment(ch),
            max_depth=V.max_depth)),
    }


class TestPastLevel64:
    """Past level 64 the walk's parents are Python ints: range reads,
    `value` and `increment` equal the increment oracle's scalar sums."""

    @pytest.mark.parametrize("name", ["random-sign", "random-growth", "block-discounted"])
    def test_levels_65_to_100(self, block_martingale_half, name):
        S, oracle = _deep_kinds(block_martingale_half)[name]
        rng = random.Random(name)
        for n in range(65, 101):
            # the block's live cells lie on its spines: low index bits zero
            shift = rng.randrange(n - 8)
            lo = (rng.getrandbits(n - shift) << shift) - rng.randrange(2)
            lo = min(max(lo, 0), (1 << n) - 3)
            got = S.level_values_range(n, lo, lo + 3)
            want = [oracle.value(DI(n, j)) for j in range(lo, lo + 3)]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
            for j in range(lo, lo + 3):
                I = DI(n, j)
                assert S.value(I).hex() == oracle.value(I).hex()
                assert S.increment(I).hex() == oracle.increment(I).hex()

    def test_paired_hook_on_python_int_parents(self):
        # the right jumps were subtracted from the object-float left
        # jumps, which numpy cannot cast into the float output
        S = martingale._RandomUniformMartingale(5, max_depth=100)
        parents = np.arange((1 << 70) - 4, 1 << 70, dtype=object)
        out = S._level_increments(71, parents)
        assert out.dtype == np.float64
        assert out.tolist() == [S.increment(DI(71, j))
                                for j in range((1 << 71) - 8, 1 << 71)]


class TestLeanLevelWalkOracle:
    """The in-place level kernels against the forms they replaced."""

    @pytest.mark.parametrize("name", sorted(_vectorized_members()) + ["zero", "value"])
    def test_levels_byte_equal_to_repeat_walk(self, name):
        S = {"zero": d.zero_martingale(),
             "value": d.from_function(d.WeierstrassFunction(3.0, 0.5), 8),
             **_vectorized_members()}[name]
        depth = 8 if name == "value" else 14
        lean, ref = list(S.levels(depth)), list(_repeat_levels(S, depth))
        assert [n for n, _, _ in lean] == [n for n, _, _ in ref] == list(range(1, depth + 1))
        for (_, incs, vals), (_, incs_ref, vals_ref) in zip(lean, ref):
            assert incs.tobytes() == incs_ref.tobytes()
            assert vals.dtype == vals_ref.dtype and vals.tobytes() == vals_ref.tobytes()

    @pytest.mark.parametrize("name", sorted(_vectorized_members()))
    def test_blocks_tile_the_levels(self, name):
        # levels 14 to 16 split into 2, 4 and 8 blocks of 2^13 cells, which
        # arrive depth first and re-assemble the levels byte for byte
        S = _vectorized_members()[name]
        blocks = list(S.level_blocks(16))
        assert [(n, lo) for n, lo, _, _ in blocks if n >= 13] == [
            (13, 0), (14, 0), (15, 0), (16, 0), (16, 8192), (15, 8192),
            (16, 16384), (16, 24576), (14, 8192), (15, 16384), (16, 32768),
            (16, 40960), (15, 24576), (16, 49152), (16, 57344)]
        for n, incs, vals in S.levels(16):
            mine = [(i, v) for m, _, i, v in blocks if m == n]
            assert all(v.size <= martingale.BLOCK_CELLS for _, v in mine)
            assert np.concatenate([i for i, _ in mine]).tobytes() == incs.tobytes()
            assert np.concatenate([v for _, v in mine]).tobytes() == vals.tobytes()

    def test_splitmix64_on_ints_and_arrays(self):
        rng = random.Random(16)
        zs = [0, 1, martingale._M64, 1 << 63, 0x9E3779B97F4A7C15,
              (1 << 64) - 0x9E3779B97F4A7C15] + [rng.getrandbits(64) for _ in range(2000)]
        for z in zs:
            got = martingale._splitmix64(z)
            assert type(got) is int and got == _splitmix64_out_of_place(z)
        arr = np.array(zs, dtype=np.uint64)
        before = arr.copy()
        got = martingale._splitmix64(arr)
        assert got.dtype == np.uint64
        assert got.tobytes() == _splitmix64_out_of_place(arr).tobytes()
        assert got.tolist() == [_splitmix64_out_of_place(z) for z in zs]
        # the caller's array is never mutated
        assert arr.tobytes() == before.tobytes()

    def test_stream_leaves_its_indices_alone(self):
        idx = np.arange(1 << 10, dtype=np.uint64)
        bits = martingale._stream(5, 9, idx)
        assert np.array_equal(idx, np.arange(1 << 10, dtype=np.uint64))
        assert bits.tolist() == [martingale._stream(5, 9, j) for j in range(1 << 10)]

    @pytest.mark.parametrize("name, depth, chunk", [
        ("block", 19, None), ("block", 12, 8), ("random-sign", 12, 16),
        ("weierstrass", 10, None), ("weierstrass", 10, 4), ("weierstrass", 10, 1),
    ])
    def test_check_cancellation_reports_equal(self, block_martingale_half, monkeypatch,
                                              name, depth, chunk):
        # depth 19 reads levels 17 and 18 in chunks; the value oracle has
        # nonzero violations, so worst_interval is a real interval
        S = {"block": block_martingale_half,
             "random-sign": d.RandomSignMartingale(3),
             "weierstrass": d.from_function(d.WeierstrassFunction(3.0, 0.5), 10)}[name]
        if chunk is not None:
            monkeypatch.setattr(martingale, "_CANCELLATION_CHUNK", chunk)
        rep = d.check_cancellation(S, depth)
        ref = _check_cancellation_every_chunk_read(S, depth)
        assert rep == ref
        assert rep.max_violation.hex() == ref.max_violation.hex()
        assert (rep.worst_interval is None) == (name != "weierstrass")


def _guard_levels(S, attr="level_increments"):
    """Make the instance's level read fail the test past level 6."""
    read = getattr(S, attr)

    def guarded(n, *args):
        if n > 6:
            pytest.fail(f"level {n} built past the budget")
        return read(n, *args)

    setattr(S, attr, guarded)
    return S


class TestWholeTreeSweepBudget:
    """Every whole-level sweep checks SWEEP_CELL_BUDGET before it builds a
    level past it (here 2^6 cells, so level 7 is refused)."""

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(martingale, "SWEEP_CELL_BUDGET", 1 << 6)

    def test_levels(self):
        S = _guard_levels(d.RandomSignMartingale(1))
        assert [n for n, _, _ in S.levels(6)] == [1, 2, 3, 4, 5, 6]
        with pytest.raises(d.DepthCapError):
            next(S.levels(7))

    def test_star_norm(self):
        S = _guard_levels(d.RandomSignMartingale(1))
        assert d.star_norm(S, 6) == 1.0
        with pytest.raises(d.DepthCapError):
            d.star_norm(S, 7)

    def test_beta_norm(self):
        T = _guard_levels(d.random_growth_martingale(0.5, seed=1))
        d.beta_norm(T, 6)
        with pytest.raises(d.DepthCapError):
            d.beta_norm(T, 7)

    def test_summation_by_parts(self):
        T = _guard_levels(d.random_growth_martingale(0.5, seed=1))
        _guard_levels(T.base)
        assert d.summation_by_parts_check(T, 6) <= 1e-10
        with pytest.raises(d.DepthCapError):
            d.summation_by_parts_check(T, 7)

    def test_level_set_family(self):
        S = _guard_levels(d.RandomSignMartingale(1))
        level_set_family(S, 0.5, 6)
        with pytest.raises(d.DepthCapError):
            level_set_family(S, 0.5, 7)

    @pytest.mark.parametrize("S, attr", [
        (d.binary_digit_martingale(), "level_values_range"),
        (d.RandomSignMartingale(1), "level_increments"),
    ], ids=["binary", "random-sign"])
    def test_level_values(self, S, attr):
        S = _guard_levels(S, attr)
        assert S.level_values(6).size == 64
        with pytest.raises(d.DepthCapError):
            S.level_values(7)

    def test_subsampled_star_norm(self):
        # decimated levels 0, 1, 2 sit at dyadic levels 1, 4, 7
        sub = d.SubsampledMartingale(_guard_levels(d.RandomSignMartingale(1)), 3, 1, 0.0)
        sub.star_norm(1)
        with pytest.raises(d.DepthCapError):
            sub.star_norm(2)

    def test_check_cancellation_random_sign(self):
        S = _guard_levels(d.RandomSignMartingale(1))
        assert d.check_cancellation(S, 6).ok(0.0)
        with pytest.raises(d.DepthCapError):
            d.check_cancellation(S, 7)

    @pytest.mark.parametrize("make", [
        d.binary_digit_martingale,
        lambda: d.RandomSignMartingale(1),
        lambda: d.assemble_martingale(d.build_schedule(0.5, 1)),
        lambda: d.sharpness_martingale(0.5),
    ], ids=["binary", "random-sign", "block", "scaled"])
    def test_level_increments(self, make):
        # a direct read, outside any sweep, checks the budget too
        S = make()
        assert S.level_increments(6).size == 64
        with pytest.raises(d.DepthCapError):
            S.level_increments(7)


class TestLevelValuesRangeCheck:
    """Each level_values_range implementation checks its range first: the
    base walk (random-sign and binary), the value oracle and the block form."""

    @pytest.fixture
    def kinds(self, block_martingale_half):
        return {"base": d.RandomSignMartingale(3),
                "value": d.from_function(d.LinearFunction(1.0, 0.5), 30),
                "binary": d.binary_digit_martingale(),
                "block": block_martingale_half}

    @pytest.mark.parametrize("lo, hi", [(-2, 8), (0, 9), (6, 10), (-1, 2), (5, 4)])
    def test_outside_the_level(self, kinds, lo, hi):
        # the base loop sliced (-2, 8) to the last two values and cut
        # (0, 9) short; the binary and block kinds read past 2^n and
        # raised OverflowError on a negative lo
        for S in kinds.values():
            with pytest.raises(d.DomainError, match="level-3 indices"):
                S.level_values_range(3, lo, hi)

    def test_inside_the_level(self, kinds):
        for S in kinds.values():
            full = S.level_values(3)
            for lo in range(9):
                for hi in range(lo, 9):
                    assert S.level_values_range(3, lo, hi).tolist() == full[lo:hi].tolist()

    def test_width_budget_before_allocation(self, kinds):
        # one cell past the budget: the parent built the 2^24 + 1 cells
        width = martingale.SWEEP_CELL_BUDGET + 1
        for name, S in kinds.items():
            tracemalloc.start()
            try:
                with pytest.raises(d.DepthCapError):
                    S.level_values_range(25, 0, width)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, name


def _walk_against_level_values(S, depth):
    """Pairs (walk values, `level_values`) at each level 1..depth."""
    return [(vals, S.level_values(n)) for n, _, vals in S.levels(depth)]


class TestLevelsAgainstOwnValues:
    """`levels` sums its own values from the increments; a kind that
    overrides `value` or `level_values_range` computes its values another
    way, so the two agree byte for byte only for some kinds."""

    @pytest.mark.parametrize("name", ["binary", "random-sign", "zero", "random-growth",
                                      "block-0.3", "block-0.5"])
    def test_byte_equal(self, name):
        S = {"binary": d.binary_digit_martingale(),
             "random-sign": d.RandomSignMartingale(3),
             "zero": d.zero_martingale(),
             "random-growth": d.random_growth_martingale(0.6, 2),
             "block-0.3": d.assemble_martingale(d.build_schedule(0.3, 2, depth_cap=1024)),
             "block-0.5": d.assemble_martingale(d.build_schedule(0.5, 2, depth_cap=1024)),
             }[name]
        for walk, own in _walk_against_level_values(S, 18 if name.startswith("block") else 14):
            assert walk.tobytes() == own.tobytes()

    @pytest.mark.parametrize("name, depth, cells", [
        ("block-0.7", 18, 52_480), ("W2, tol 1e-13", 10, 41), ("W3, tol 1e-13", 10, 47)])
    def test_within_relative_1e13(self, name, depth, cells):
        # the block kind's nested sums and the value oracle round apart
        # from the walk by a few ulps (3 and 32 and 16 at most, measured)
        S = {"block-0.7": d.assemble_martingale(d.build_schedule(0.7, 2, depth_cap=1024)),
             "W2, tol 1e-13": d.from_function(d.WeierstrassFunction(2.0, 0.5, 1e-13), 10),
             "W3, tol 1e-13": d.from_function(d.WeierstrassFunction(3.0, 0.5, 1e-13), 10),
             }[name]
        pairs = _walk_against_level_values(S, depth)
        for walk, own in pairs:
            np.testing.assert_allclose(walk, own, rtol=1e-13, atol=0.0)
        assert sum(int(np.count_nonzero(walk != own)) for walk, own in pairs) == cells
