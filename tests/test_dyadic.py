import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadosc as d
from dyadosc.dyadic import DyadicRational as DR
from oracles import left_neighbor, whitney_greedy


class TestDyadicRational:
    def test_normalization(self):
        assert DR(4, 2) == DR(1, 0)
        assert DR(6, 3) == DR(3, 2)
        assert DR(0, 7).exponent == 0

    def test_negative_exponent_refused(self):
        with pytest.raises(d.DomainError):
            DR(1, -1)

    def test_reflected_subtraction_and_negation_match_fractions(self):
        # x - k reads an int, float or Fraction k exactly; k - x and -x
        # are not defined
        rng = random.Random(3)
        for _ in range(200):
            x = DR(rng.randint(-2**20, 2**20), rng.randint(0, 20))
            k = rng.randint(-50, 50)
            assert (x - k).as_fraction() == x.as_fraction() - k
            assert (x - 0.75).as_fraction() == x.as_fraction() - Fraction(3, 4)
            assert (x - Fraction(k, 8)).as_fraction() == x.as_fraction() - Fraction(k, 8)
            with pytest.raises(TypeError):
                k - x
            with pytest.raises(TypeError):
                -x

    def test_floor_scaled_is_the_exact_floor(self):
        rng = random.Random(4)
        for _ in range(500):
            x = DR(rng.randint(-2**30, 2**30), rng.randint(0, 30))
            n = rng.randint(0, 40)
            assert x.floor_scaled(n) == math.floor(x.as_fraction() * 2**n), (x, n)

    @given(st.integers(-2**40, 2**40), st.integers(0, 40),
           st.integers(-2**40, 2**40), st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_matches_fractions(self, n1, e1, n2, e2):
        a, b = DR(n1, e1), DR(n2, e2)
        fa, fb = Fraction(n1, 2**e1), Fraction(n2, 2**e2)
        assert (a - b).as_fraction() == fa - fb
        assert (a == b) == (fa == fb)

    @given(st.integers(-2**40, 2**40), st.integers(0, 40),
           st.one_of(st.integers(-2**12, 2**12),
                     st.builds(Fraction, st.integers(-2**12, 2**12),
                               st.sampled_from([1, 2, 3, 8, 1 << 40])),
                     st.floats()))
    @settings(max_examples=300, deadline=None)
    def test_equality_and_hash_match_fractions(self, n, e, other):
        # equality is by value among DyadicRationals and never with
        # another type; the other side is read through from_value
        a, fa = DR(n, e), Fraction(n, 2**e)
        assert a != other and not a == other
        assert a == DR(n << 3, e + 3) and hash(a) == hash(DR(n << 3, e + 3))
        assert a == DR.from_value(fa) == DR.from_value(float(fa))
        try:
            b = DR.from_value(other)
        except (ValueError, OverflowError):     # not dyadic, or not finite
            return
        assert (a == b) == (fa == other) and (a != b) == (fa != other)
        if a == b:
            assert hash(a) == hash(b)

    def test_equality_with_integers(self):
        one = DR.from_value(1)
        assert DR(1, 0) == one and DR(4, 2) == one and one == DR(1, 0)
        assert DR(1, 1) != one and DR(1, 1) != "1/2"
        assert DR(1, 0) != 1 and DR(1, 1) != Fraction(1, 2)
        assert len({DR(1, 0), DR(4, 2), one, DR.from_value(1.0),
                    DR.from_value(Fraction(1))}) == 1

    @given(st.integers(-2**62, 2**62), st.integers(0, 100), st.integers(-2**62, 2**62),
           st.sampled_from([np.int64, np.int32, np.uint8]))
    @settings(max_examples=200, deadline=None)
    def test_numpy_integers_match_fractions(self, n, e, m, np_type):
        # numpy integers behave as the Python ints they hold, also past
        # 64-bit shifts
        info = np.iinfo(np_type)
        m = min(max(m, info.min), info.max)
        a, fa, x = DR(n, e), Fraction(n, 2**e), np_type(m)
        assert (a - x).as_fraction() == fa - m
        assert (a == DR.from_value(x)) == (fa == m)
        for big in (DR(1, 64), DR(1, 70), DR(-3, 200)):
            assert (DR.from_value(x) - big).as_fraction() == m - big.as_fraction()
            assert (DR(x, e) - big).as_fraction() == Fraction(m, 2**e) - big.as_fraction()
        assert type(DR.from_value(x).numerator) is int
        assert type(DR(x, np.int64(e)).numerator) is int

    def test_numpy_integer_regressions(self):
        assert (DR(1, 1) - np.int64(1)).numerator < 0
        assert DR(1, 0) == DR.from_value(np.int64(1)) != DR(1, 1)
        assert (DR.from_value(np.int64(3)) - DR(1, 70)).as_fraction() \
            == Fraction(3) - Fraction(1, 2**70)
        assert (DR(1, 70) - np.int64(3)).as_fraction() == Fraction(1, 2**70) - 3
        assert d.locate(np.int64(3), 70) == d.DyadicInterval(70, 3 << 70)

    def test_non_integral_numerator_rejected(self):
        with pytest.raises(TypeError):
            DR(1.5, 2)

    def test_float_past_1024_bits(self):
        # the numerator went to float first and overflowed past 2^1024
        assert float(DR((1 << 1050) + 1, 1100)) == 2.0 ** -50
        rng = random.Random(0)
        for _ in range(500):
            e = rng.randrange(1300)
            x = DR(rng.getrandbits(rng.randrange(1, e + 64)), e)
            assert float(x) == float(x.as_fraction())

    def test_from_float_exact(self):
        assert DR.from_value(0.375) == DR(3, 3)
        with pytest.raises(d.DomainError):
            DR.from_value(Fraction(1, 3))


class TestLocate:
    def test_left_edge(self):
        assert d.locate(0.0, 3) == d.DyadicInterval(3, 0)

    def test_boundary_goes_right(self):
        assert d.locate(0.5, 1) == d.DyadicInterval(1, 1)

    def test_interior(self):
        # 0.3 * 16 = 4.8 -> index 4
        assert d.locate(0.3, 4) == d.DyadicInterval(4, 4)

    def test_containment_and_nesting(self):
        rng = random.Random(0)
        for _ in range(10_000):
            x = rng.random()
            n = rng.randint(0, 20)
            I = d.locate(x, n)
            assert I.contains(x)
            assert d.locate(x, n + 1).parent() == I


    def test_dyadic_rationals_and_ints(self):
        for x in (DR(0, 0), DR(3, 3), DR(5, 7), DR(1, 0), DR(-3, 2), 0, 1, 2, -1):
            for n in (0, 2, 3, 9):
                exact = x.as_fraction() if isinstance(x, DR) else Fraction(x)
                assert d.locate(x, n) == _locate_by_fraction(exact, n), (x, n)

    def test_negative_level_refused(self):
        for x in (0.5, DR(1, 1), 1):
            with pytest.raises(d.DomainError):
                d.locate(x, -1)


def _locate_by_fraction(x, n):
    frac = Fraction(x)
    return d.DyadicInterval(n, (frac.numerator << n) // frac.denominator)


class TestLocateFloat:
    """Floats are located from their integer ratio, not through Fraction."""

    def test_matches_fraction_form(self):
        rng = random.Random(16)
        xs = [rng.random() for _ in range(3000)]
        xs += [rng.uniform(-4.0, 4.0) for _ in range(500)]
        xs += [math.ldexp(rng.random(), -rng.randrange(1100)) for _ in range(500)]
        # dyadic boundary points and their float neighbours
        for m in range(0, 60):
            for k in (1, 3, (1 << m) - 1):
                b = math.ldexp(k, -m)
                xs += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]
        xs += [0.0, -0.0, 1.0, 5e-324, 1.7976931348623157e308]
        for x in xs:
            for n in (0, 1, 7, 20, 53, 60, 200):
                got = d.locate(x, n)
                assert got == _locate_by_fraction(x, n)
                assert type(got.index) is int
                assert d.locate(np.float64(x), n) == got

    @pytest.mark.parametrize("x, exc", [(math.nan, ValueError), (math.inf, OverflowError),
                                        (-math.inf, OverflowError)])
    def test_non_finite_raises_as_fraction_does(self, x, exc):
        with pytest.raises(exc):
            Fraction(x)
        with pytest.raises(exc):
            d.locate(x, 3)


class TestChildren:
    def test_root_split(self):
        left, right = d.unit_interval().children()
        assert left == d.DyadicInterval(1, 0)
        assert right == d.DyadicInterval(1, 1)

    def test_second_level(self):
        left, right = d.DyadicInterval(1, 1).children()
        assert (left, right) == (d.DyadicInterval(2, 2), d.DyadicInterval(2, 3))

    def test_no_parent_or_ancestor_above_the_interval(self):
        with pytest.raises(d.DomainError):
            d.unit_interval().parent()
        with pytest.raises(d.DomainError):
            d.DyadicInterval(3, 5).ancestor(4)
        assert d.DyadicInterval(3, 5).ancestor(1) == d.DyadicInterval(1, 1)

    def test_depth_cap(self):
        I = d.DyadicInterval(62, 123)
        with pytest.raises(d.DepthCapError):
            I.children(max_depth=62)

    def test_partition_exhaustive(self):
        # children tile the parent and are disjoint, down to depth 12
        for n in range(12):
            cover = set()
            for j in range(1 << n):
                lo, hi = d.DyadicInterval(n, j).children(max_depth=13)
                assert lo.parent() == d.DyadicInterval(n, j) == hi.parent()
                cover.add(lo.index)
                cover.add(hi.index)
            assert cover == set(range(1 << (n + 1)))

    @pytest.mark.filterwarnings("error")
    def test_numpy_index_does_not_wrap(self):
        I = d.DyadicInterval(np.int64(63), np.int64(2 ** 62))
        assert type(I.level) is int and type(I.index) is int
        child = I.children(max_depth=64)[0]
        assert child == d.DyadicInterval(64, 2 ** 63)
        assert d.binary_digit_martingale(max_depth=80).value(child) == 2 - 64


class TestLeftNeighbor:
    def test_plain(self):
        assert left_neighbor(d.DyadicInterval(2, 1)) == d.DyadicInterval(2, 0)
        assert left_neighbor(d.DyadicInterval(3, 3)) == d.DyadicInterval(3, 2)

    def test_discard_at_zero(self):
        assert left_neighbor(d.DyadicInterval(3, 0)) is None


class TestWhitney:
    def test_aligned_single_piece(self):
        w = d.whitney(DR(0, 0), DR(1, 1))
        assert w.intervals == (d.DyadicInterval(1, 0),)

    def test_two_rank2_pieces(self):
        w = d.whitney(DR(1, 2), DR(1, 1))
        assert w.intervals == (d.DyadicInterval(2, 1), d.DyadicInterval(2, 2))

    def test_quarter_to_seven_eighths(self):
        w = d.whitney(DR(1, 3), DR(3, 2))
        assert float(w.total_length()) == 0.75
        assert max(w.per_rank_counts().values()) <= 4

    def test_random_tilings(self):
        rng = random.Random(3)
        for _ in range(1000):
            depth = rng.randint(1, 20)
            lo = rng.getrandbits(depth)
            hi = rng.getrandbits(depth)
            if lo == hi:
                continue
            lo, hi = min(lo, hi), max(lo, hi)
            x = DR(lo, depth)
            h = DR(hi - lo, depth)
            w = d.whitney(x, h, max_depth=24)
            # exact tiling: consecutive, lengths sum to h, <= 4 per rank
            assert w.total_length() == h
            cursor = x
            for piece in w.intervals:
                assert piece.left == cursor
                assert Fraction(1, 1 << piece.level) <= h.as_fraction()
                cursor = piece.right
            assert cursor - x == h
            assert max(w.per_rank_counts().values()) <= 4

    def test_matches_greedy_oracle(self):
        # x in [-2, 2], h from -3/2^e (nonpositive h included), caps that
        # bind and one that does not; both types of argument, since the
        # error text prints x as given
        rng = random.Random(31)
        kinds = {}
        for _ in range(10_000):
            e = rng.randint(0, 56)
            x = DR(rng.randint(-2 << e, 2 << e), e)
            if rng.random() < 0.5:
                x = x.as_fraction()
            h = DR(rng.randint(-3, 2 << e), e)
            cap = rng.choice((8, 24, 48))
            got, want = (_whitney_outcome(d.whitney, x, h, cap),
                         _whitney_outcome(whitney_greedy, x, h, cap))
            assert got == want, (x, h, cap)
            kinds[got[0]] = kinds.get(got[0], 0) + 1
        assert min(kinds.values()) >= 200 and len(kinds) == 3, kinds

    def test_depth_cap_reported(self):
        with pytest.raises(d.DepthCapError):
            d.whitney(DR(1, 30), DR(1, 1), max_depth=8)

    def test_bad_h(self):
        with pytest.raises(d.DomainError):
            d.whitney(DR(0, 0), DR(0, 0))


def _whitney_outcome(fn, x, h, cap):
    """("ok", x, h, pieces, total) of a tiling, or the error's type and text."""
    try:
        w = fn(x, h, cap)
    except (d.DomainError, d.DepthCapError) as err:
        return type(err).__name__, str(err)
    if isinstance(w, d.WhitneyDecomposition):
        w = (w.x, w.h, w.intervals, w.total_length().as_fraction())
    return ("ok",) + w


class TestDepthConfig:
    def test_default(self, monkeypatch):
        # one declared cap, read from no environment variable
        monkeypatch.setenv("OSC_MAX_DEPTH", "96")
        assert d.DEFAULT_MAX_DEPTH == 48
        assert d.binary_digit_martingale().max_depth == 48
        assert d.RandomSignMartingale(1).max_depth == 48
        with pytest.raises(d.DepthCapError, match="max depth 48"):
            d.DyadicInterval(48, 0).children()
        with pytest.raises(d.DepthCapError, match="max depth 48"):
            d.whitney(DR(1, 49), DR(1, 1))
