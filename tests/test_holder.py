import hashlib
import math
import os
import random
import re
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadosc as d
from dyadosc import holder
from dyadosc.dyadic import DyadicInterval as DI
from dyadosc.dyadic import DyadicRational as DR
from oracles import (IncrementOracleMartingale, bit_walk_primitive, loop_series, pair_loop,
                     pair_split, tail_bound)

mp.mp.dps = 40


def _term_loop(b, alpha, x, tol):
    """f(x) summed to tol by running products, as the per-call `_eval`
    that took a tolerance on every call did it."""
    terms = len(loop_series(b, alpha, tol)[0])
    total, freq, amp, damp = 0.0, 1.0, 1.0, math.pow(b, -alpha)
    for _ in range(terms):
        total += amp * math.cos(freq * x)
        freq *= b
        amp *= damp
    return total


class TestWeierstrass:
    def test_value_at_zero(self):
        f = d.WeierstrassFunction(2.0, 0.5, 1e-10)
        closed = 1.0 / (1.0 - 2.0 ** -0.5)
        assert f(0.0) == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("b,alpha", [(2.0, 0.3), (3.0, 0.5), (2.0, 0.8)])
    def test_geometric_value_at_zero(self, b, alpha):
        f = d.WeierstrassFunction(b, alpha, 1e-11)
        assert f(0.0) == pytest.approx(1.0 / (1.0 - b ** -alpha), abs=1e-10)

    def test_periodicity_integer_base(self):
        tol = 1e-10
        f = d.WeierstrassFunction(2.0, 0.5, tol)
        x = 0.37
        # the float argument x + 2pi carries its own rounding; allow the
        # Holder-of-argument slack on top of the two evaluation tolerances
        slack = 2 * tol + f.seminorm_bound * (4 * abs(x + 2 * math.pi) * 2.0 ** -53) ** 0.5
        assert abs(f(x) - f(x + 2 * math.pi)) <= slack

    def test_tail_bound_controls_truncation(self):
        f = d.WeierstrassFunction(2.0, 0.5)
        n = f.terms_for(1e-8)
        assert tail_bound(f, n) <= 1e-8
        # doubling the depth moves values by less than the reported tail
        for x in (0.1, 0.57, 0.93):
            coarse = np.cos(x * np.power(2.0, np.arange(n))) @ \
                np.power(2.0, -0.5 * np.arange(n))
            fine = np.cos(x * np.power(2.0, np.arange(2 * n))) @ \
                np.power(2.0, -0.5 * np.arange(2 * n))
            assert abs(fine - coarse) <= tail_bound(f, n)

    def test_two_evaluator_agreement(self):
        # independent high-precision series vs the production evaluator
        f = d.WeierstrassFunction(2.0, 0.5, 1e-13)
        x, h = 0.0, 2.0 ** -10
        prod = (f(x + h) - f(x)) / h ** 0.5
        hp = sum(mp.power(2, -n * mp.mpf("0.5"))
                 * (mp.cos(mp.power(2, n) * (x + h)) - mp.cos(mp.power(2, n) * x))
                 for n in range(120)) / mp.sqrt(mp.mpf(2) ** -10)
        assert prod == pytest.approx(float(hp), abs=1e-9)

    def test_batch_matches_scalar(self):
        f = d.WeierstrassFunction(2.0, 0.5, 1e-12)
        xs = np.linspace(0, 1, 17)
        vals = f.batch(xs)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(f(float(x)), abs=1e-12)

    def test_domain(self):
        with pytest.raises(d.DomainError):
            d.WeierstrassFunction(0.5, 0.5)
        with pytest.raises(d.DomainError):
            d.WeierstrassFunction(2.0, 0.5, tol=-1.0)

    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_refuses_base_that_is_not_finite(self, b):
        # b = inf used to give a NaN seminorm bound
        with pytest.raises(d.DomainError, match="b must be finite"):
            d.WeierstrassFunction(b, 0.5)

    def test_refuses_infinite_tolerance(self):
        # tol = inf used to take one term
        f = d.WeierstrassFunction(2.0, 0.5)
        for call in (lambda: f.terms_for(math.inf),
                     lambda: d.WeierstrassFunction(2.0, 0.5, math.inf)):
            with pytest.raises(d.DomainError, match="finite"):
                call()

    @pytest.mark.parametrize("x", [1e300, -1e300, 1e308])
    def test_scalar_refuses_phase_past_the_float_range(self, x):
        # b^(N-1) x overflowed and math.cos raised a bare ValueError
        with pytest.raises(d.DomainError, match="x = "):
            d.WeierstrassFunction(2.0, 0.5)(x)

    @pytest.mark.parametrize("x", [1e300, -1e300, math.inf, math.nan])
    def test_batches_refuse_phase_past_the_float_range(self, x):
        # the batches wrote NaN for such an x, with two numpy warnings
        f = d.WeierstrassFunction(2.0, 0.5, 1e-13)
        xs = np.array([0.25, x, 0.5])
        for call in (f.batch, f.antiderivative_batch):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(d.DomainError, match=re.escape(f"x = {x} ")):
                    call(xs)

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_batches_unchanged_on_finite_phases(self, b):
        # the unchecked phase products, up to the largest x the rule admits
        rng = np.random.default_rng(3)
        for tol, power, name, trig in ((1e-12, 0.5, "batch", np.cos),
                                       (1e-13, 1.5, "antiderivative_batch", np.sin)):
            f = d.WeierstrassFunction(b, 0.5, tol)
            call = getattr(f, name)
            freqs, amps = f._series(power, tol)
            edge = np.nextafter(np.finfo(float).max / freqs[-1], 0.0)
            xs = np.concatenate([rng.uniform(-4.0, 4.0, 64), [0.0, -0.0, edge, -edge]])
            assert call(xs).tobytes() == (trig(np.outer(xs, freqs)) @ amps).tobytes()
            assert call(np.zeros(0)).size == 0

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_series_refuse_nonpositive_tolerance(self, tol):
        f = d.WeierstrassFunction(2.0, 0.5)
        for call in (lambda: f.terms_for(tol), lambda: d.WeierstrassFunction(2.0, 0.5, tol)):
            with pytest.raises(d.DomainError):
                call()

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
    def test_constructor_refuses_tolerance(self, tol):
        with pytest.raises(d.DomainError, match="tolerance must be positive and finite"):
            d.WeierstrassFunction(2.0, 0.5, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, math.nan])
    def test_antiderivative_refuses_zero_and_nan_tolerance(self, tol):
        # tol = 0 used to sum until b^-n underflowed, NaN to take one term
        with pytest.raises(d.DomainError):
            d.WeierstrassFunction(2.0, 0.5, tol).antiderivative_batch(np.array([0.1]))

    def test_antiderivative_refuses_negative_tolerance(self):
        # a subprocess with a timeout: the term loop used to run forever
        code = ("import numpy as np, dyadosc as d\n"
                "try:\n"
                "    d.WeierstrassFunction(2.0, 0.5, -1.0).antiderivative_batch(np.array([0.1]))\n"
                "except d.DomainError:\n"
                "    print('refused')\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(d.__file__).parents[1]), env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60).stdout
        assert out.strip() == "refused"

    @pytest.mark.parametrize("b,alpha", [(2.0, 0.5), (3.0, 0.5), (2.0, 0.3)])
    def test_cached_series_match_term_loops(self, b, alpha, monkeypatch):
        # the replaced per-call term loops, as the bit-for-bit reference
        xs = np.linspace(0.0, 1.0, 17)
        fs = {tol: d.WeierstrassFunction(b, alpha, tol) for tol in (1e-8, 1e-12, 1e-13)}
        for tol, f in fs.items():
            freqs, amps = loop_series(b, alpha, tol)
            assert f.terms_for(tol) == len(freqs)
            assert np.array_equal(f.batch(xs), np.cos(np.outer(xs, freqs)) @ amps)
            freqs, amps = loop_series(b, 1.0 + alpha, tol)
            assert np.array_equal(f.antiderivative_batch(xs),
                                  np.sin(np.outer(xs, freqs)) @ amps)
        # each series was built once: repeated calls run no term loop
        pows = []
        monkeypatch.setattr(math, "pow", lambda *a: pows.append(a) or (a[0] ** a[1]))
        for tol, f in fs.items():
            f.terms_for(tol), f.batch(xs), f.antiderivative_batch(xs)
        assert pows == []

    def test_term_counts_match_the_loop(self):
        # the closed form, nudged, against the loop it replaced, for the
        # series of f (power alpha) and of its antiderivative (1 + alpha)
        for b in (1.5, 2.0, 3.0, 7.0):
            for alpha in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                f = d.WeierstrassFunction(b, alpha)
                for tol in [10.0 ** -k for k in range(6, 16)]:
                    for power in (alpha, 1.0 + alpha):
                        assert len(f._series(power, tol)[0]) == len(
                            loop_series(b, power, tol)[0]), (b, alpha, tol, power)

    @pytest.mark.parametrize("tol, terms", [(0.6035533905932738, 6),
                                            (0.05334708691207962, 12)])
    def test_closed_form_nudged_onto_the_loop(self, tol, terms):
        # tolerances at a term's boundary, where the closed form rounds to
        # one term fewer (first) and one more (second) than the loop
        f = d.WeierstrassFunction(2.0, 0.5)
        assert f.terms_for(tol) == len(loop_series(2.0, 0.5, tol)[0]) == terms

    @pytest.mark.parametrize("b, alpha, tol, text", [
        (1.0000001, 0.5, 1e-12, "needs an array of 888845325 cells"),
        (2.0, 0.5, 1e-300, "needs the frequency b^1996, past the float range"),
        (2.0, 0.001, 1e-12, "needs the frequency b^50358, past the float range"),
        (1.0 + 2.0 ** -52, 0.001, 1e-12, "has no last term: b^-0.001 rounds to 1"),
    ])
    def test_term_count_refused_before_any_array(self, b, alpha, tol, text):
        # the loop was still counting after 30 s at b = 1.0000001, before
        # arrays of ~7 GB; past b^N = inf numpy warned and every x was
        # refused; b^-alpha = 1 divided by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t0 = time.perf_counter()
            with pytest.raises(d.DepthCapError) as err:
                d.WeierstrassFunction(b, alpha, tol)
            assert time.perf_counter() - t0 < 1.0
        assert str(err.value).startswith(
            f"a Weierstrass series with b = {b}, exponent {alpha} and tol = {tol} {text}")

    @pytest.mark.parametrize("b", [2.0, 1.5])
    def test_seminorm_bound_past_the_float_range(self, b):
        # at alpha = 1 - 2^-53, b^(1 - alpha) rounds to 1 and the bound's
        # q / (q - 1) divided by zero
        alpha = 0.9999999999999999
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(d.DepthCapError) as err:
                d.WeierstrassFunction(b, alpha)
        assert str(err.value) == (f"the seminorm bound at b = {b}, alpha = {alpha} leaves "
                                  f"the float range: b^(1 - alpha) rounds to 1")
        # at b = 3, b^(1 - alpha) is 1 + 2^-52: a finite bound
        assert math.isfinite(d.WeierstrassFunction(3.0, alpha).seminorm_bound)

    @pytest.mark.parametrize("tol", [None, 1e-13, 1e-11])
    @pytest.mark.parametrize("b,alpha", [(2.0, 0.5), (3.0, 0.5), (2.0, 0.3)])
    def test_one_tolerance_rule(self, b, alpha, tol):
        # the per-call term loop as the oracle: f(x), batch and the
        # antiderivative sum to the constructor's tol, difference each side
        # to tol / 2, the split that difference(tol=t) used to make
        f = d.WeierstrassFunction(b, alpha, **({} if tol is None else {"tol": tol}))
        tol = 1e-12 if tol is None else tol
        assert f.tol == tol
        xs = np.linspace(0.013, 0.97, 9)
        for x in xs.tolist():
            assert f(x) == _term_loop(b, alpha, x, tol)
        for lo, hi in [(0.0, 2.0 ** -10), (0.3, 0.71), (0.9, 0.25)]:
            want = _term_loop(b, alpha, hi, tol / 2) - _term_loop(b, alpha, lo, tol / 2)
            assert f.difference(lo, hi) == want
            assert d.divided_difference(f, alpha, lo, hi - lo) == want / abs(hi - lo) ** alpha
        S = d.from_function(f, 2)
        assert S.value(DI(2, 1)) == math.ldexp(
            _term_loop(b, alpha, 0.5, tol / 2) - _term_loop(b, alpha, 0.25, tol / 2), 2)
        for power, call, trig in ((alpha, f.batch, np.cos),
                                  (1.0 + alpha, f.antiderivative_batch, np.sin)):
            freqs, amps = loop_series(b, power, tol)
            assert call(xs).tobytes() == (trig(np.outer(xs, freqs)) @ amps).tobytes()

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_tolerance_bounds_every_truncation(self, tol):
        # at b = 2 the phases b^n x are exact, so only truncation and
        # rounding separate the values from a 40-digit sum of 160 terms
        f = d.WeierstrassFunction(2.0, 0.5, tol)
        half = mp.mpf("0.5")

        def exact(x, power, trig):
            return sum(mp.power(2, -n * power) * trig(mp.power(2, n) * mp.mpf(x))
                       for n in range(160))

        for x, y in [(0.1, 0.37), (0.55, 0.93)]:
            assert abs(f(x) - exact(x, half, mp.cos)) <= tol + 1e-14
            assert abs(f.batch(np.array([x]))[0] - exact(x, half, mp.cos)) <= tol + 1e-14
            assert abs(f.antiderivative_batch(np.array([x]))[0]
                       - exact(x, 1 + half, mp.sin)) <= tol + 1e-14
            want = exact(y, half, mp.cos) - exact(x, half, mp.cos)
            assert abs(f.difference(x, y) - want) <= tol + 1e-14


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
        shifted = IncrementOracleMartingale(lambda child: 0.0, s0=1.0)
        with pytest.raises(d.DomainError):
            d.martingale_function(shifted, 0.5)

    def test_depth_cap_reported(self):
        f = d.martingale_function(d.binary_digit_martingale(), 0.5, max_depth=16)
        with pytest.raises(d.DepthCapError):
            f.eval_dyadic(DR(1, 20))

    def test_periodic_eval(self):
        f = d.martingale_function(d.binary_digit_martingale(), 0.5, max_depth=30)
        assert f(1.25) == pytest.approx(f(0.25), abs=1e-8)


class TestHolderRefusals:
    def test_alpha_outside_the_unit_interval(self):
        with pytest.raises(d.DomainError):
            d.HolderFunction(1.0, "user")

    def test_base_class_has_no_values_or_antiderivative(self):
        f = d.HolderFunction(0.5, "user")
        with pytest.raises(NotImplementedError):
            f(0.25)
        with pytest.raises(d.DomainError, match="user has no antiderivative"):
            f.antiderivative_batch(np.array([0.5]))

    @pytest.mark.parametrize("x", [DR(3, 1), DR(-1, 2)])
    def test_eval_dyadic_outside_the_unit_interval(self, x):
        f = d.martingale_function(d.binary_digit_martingale(), 0.5)
        with pytest.raises(d.DomainError):
            f.eval_dyadic(x)

    def test_sampler_refuses_a_negative_dyadic_depth(self):
        # it failed only inside the estimate, with "negative shift count"
        with pytest.raises(d.DomainError, match="dyadic depth must be nonnegative"):
            d.SeminormSampler(dyadic_depth=-1)

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert holder._usable_cpus() == (os.cpu_count() or 1)


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


def _exact_value(S, I):
    """S(I) in exact rationals: the sum of the (exact float) increments."""
    return sum((Fraction(S.increment(I.ancestor(lvl))) for lvl in range(1, I.level + 1)),
               Fraction(0))


def _exact_primitive(S, start, s_start, bits, depth):
    """The bit walk of `bit_walk_primitive` in exact rationals: the sum
    and the sum of its terms' magnitudes."""
    acc = mag = Fraction(0)
    cur, s = start, s_start
    for k in range(depth - 1, -1, -1):
        left = DI(cur.level + 1, 2 * cur.index)
        s_left = s + Fraction(S.increment(left))
        if (bits >> k) & 1:
            term = s_left / (1 << left.level)
            acc += term
            mag += abs(term)
            cur = DI(left.level, left.index + 1)
            s = s + Fraction(S.increment(cur))
        else:
            cur, s = left, s_left
    return acc, mag


def _exact_sides(S, a, b):
    """Exact one-sided integrals (ga, gb) of S from the common ancestor of
    the dyadic points a and b, so that f(b) - f(a) = gb - ga."""
    depth = max(a.exponent, b.exponent)
    ia = a.numerator << (depth - a.exponent)
    ib = b.numerator << (depth - b.exponent)
    diff_bits = (ia ^ ib).bit_length()
    anc = DI(depth - diff_bits, ia >> diff_bits)
    s_anc = _exact_value(S, anc)
    mask = (1 << diff_bits) - 1
    return (_exact_primitive(S, anc, s_anc, ia & mask, diff_bits)[0],
            _exact_primitive(S, anc, s_anc, ib & mask, diff_bits)[0])


def _window_starts(sched, rng):
    """Start intervals strictly inside placement windows, one on the
    block's spine and one off it per placement (M >= 2)."""
    out = []
    for p in sched.placements[:12] + sched.placements[-4:]:
        if p.M < 2:
            continue
        L = rng.randint(p.level + 1, p.end - 1)
        prefix = rng.getrandbits(p.level) if p.level else 0
        out.append(DI(L, prefix << (L - p.level)))                 # on the spine
        low = rng.randint(1, (1 << (L - p.level)) - 1)
        out.append(DI(L, (prefix << (L - p.level)) | low))         # off it
    return out


class TestRunLengthPrimitive:
    """`BlockMartingale.primitive` (closed-form runs) against the bit walk
    `bit_walk_primitive` of tests/oracles.py and against exact rationals."""

    def test_matches_bit_walk(self, block_schedule_half, block_martingale_half):
        # Both float paths are within 1e-13 of the exact sum, measured
        # against the sum of its terms' magnitudes.  Where the sum cancels
        # (all 1-bits from the root end near f(1) = 0) that is all either
        # path can give; elsewhere they agree to 1e-13 relative.
        S, sched = block_martingale_half, block_schedule_half
        rng = random.Random(11)
        starts = _window_starts(sched, rng) + [d.unit_interval()]
        starts += [DI(L, rng.getrandbits(L)) for L in rng.sample(range(1, 150), 10)]
        compared = cancelling = 0
        for start in starts:
            s_start = S.value(start)
            for depth in (0, 1, 44, rng.randint(190, 210), sched.end_level + 48):
                depth = min(depth, S.max_depth - start.level)
                for bits in (0, (1 << depth) - 1, rng.getrandbits(depth)):
                    walk = bit_walk_primitive(S, start, s_start, bits, depth)
                    got = S.primitive(start, s_start, bits, depth)
                    exact, mag = _exact_primitive(S, start, Fraction(s_start), bits, depth)
                    assert abs(got - float(exact)) <= 1e-13 * float(mag)
                    assert abs(walk - float(exact)) <= 1e-13 * float(mag)
                    if abs(exact) >= mag / 2:
                        assert got == pytest.approx(walk, rel=1e-13, abs=0), (start, depth)
                        compared += 1
                    else:
                        cancelling += 1
        assert compared > 500 and cancelling > 0

    def test_difference_matches_exact_sum(self, block_schedule_half,
                                          block_martingale_half):
        # exact relative to the rational sum of the same float amplitudes;
        # the bit walk is no tighter reference on cancelling pairs
        S, sched = block_martingale_half, block_schedule_half
        f = d.martingale_function(S, 0.5)
        rng = random.Random(12)
        pairs = []
        for depth in (44, 200, sched.end_level + 48):
            for _ in range(12):
                lo = rng.getrandbits(depth)
                width = rng.getrandbits(rng.randint(1, depth))
                if 0 < width and lo + width < (1 << depth):
                    pairs.append((DR(lo, depth), DR(lo + width, depth)))
        # common ancestors inside placement windows, on and off the spine
        for anc in _window_starts(sched, rng):
            depth = anc.level + rng.choice((3, 44, 150))
            below = depth - anc.level - 1
            a = ((2 * anc.index) << below) | rng.getrandbits(below)
            b = ((2 * anc.index + 1) << below) | rng.getrandbits(below)
            pairs.append((DR(a, depth), DR(b, depth)))
        for a, b in pairs:
            ga, gb = _exact_sides(S, a, b)
            tol = 1e-13 * float(max(abs(ga), abs(gb)))
            assert abs(f.difference(a, b) - float(gb - ga)) <= tol, (a, b)

    def test_other_martingales_keep_the_walk(self):
        # sha256 of the packed doubles below as computed by the descent
        # before it moved into Martingale.primitive: bit-identical outputs
        rng = random.Random(17)
        h = hashlib.sha256()
        for S in (d.binary_digit_martingale(max_depth=60),
                  d.RandomSignMartingale(21, max_depth=60),
                  d.sharpness_martingale(0.5, max_depth=60)):
            f = d.martingale_function(S, 0.5)
            for _ in range(300):
                depth = rng.randint(1, 60)
                lo, hi = sorted((rng.getrandbits(depth), rng.getrandbits(depth)))
                h.update(struct.pack("<d", f.difference(DR(lo, depth), DR(hi, depth))))
                h.update(struct.pack("<d", f.eval_dyadic(DR(hi, depth))))
        assert h.hexdigest() == (
            "bf0137b823c50b6d0625ef83050de91b9dd569d8e5f0f24a4d6c1492346373af")

    def test_deep_constant_run(self):
        # one stage ends at level 91: the trailing constant run of a point
        # 2000 bits deep is far wider than the 1023-bit float range
        sched = d.build_schedule(0.5, 1)
        S = d.assemble_martingale(sched)
        f = d.martingale_function(S, 0.5, max_depth=2048)
        rng = random.Random(13)
        for _ in range(3):
            x = DR(rng.getrandbits(2000) | 1, 2000)
            walk = bit_walk_primitive(S, d.unit_interval(), 0.0, x.numerator, x.exponent)
            assert f.eval_dyadic(x) == pytest.approx(walk, rel=1e-13, abs=0)

    def test_depth_cap(self, block_martingale_half):
        # the scalar pair read checks the cap once, before its `primitive`s
        S = block_martingale_half
        with pytest.raises(d.DepthCapError, match=f"level {S.max_depth + 1} beyond"):
            S.pair_primitive(0, 1, S.max_depth + 1)

    def test_no_increment_calls(self, monkeypatch, block_schedule_half,
                                block_martingale_half):
        # a count, not a time: the closed form never falls back to the walk
        S, sched = block_martingale_half, block_schedule_half
        calls = []

        def counting(self, child):
            calls.append(child)
            return d.Martingale.increment(self, child)

        monkeypatch.setattr(d.BlockMartingale, "increment", counting, raising=False)
        f = d.martingale_function(S, 0.5, max_depth=sched.end_level + 64)
        depth = sched.end_level + 48
        rng = random.Random(14)
        lo = rng.getrandbits(depth)
        a, b = DR(lo, depth), DR(lo + rng.getrandbits(depth - 8), depth)
        f.difference(a, b)
        assert calls == []
        bit_walk_primitive(S, d.unit_interval(), 0.0, 1, 3)
        assert len(calls) == 4           # the wrapper does see the walk


# The scalar induced difference and the block walk as they were before
# `difference` routed on aligned integer numerators and the walk ended at
# the address's last 1-bit, kept as the oracle (the endpoint comparisons
# read through Fractions, since DyadicRational no longer orders): equal
# floats, zero signs included, on every route.
def _walk_to_full_depth(S, start, s_start, bits, depth):
    end = start.level + depth
    if end > S.max_depth:
        raise d.DepthCapError(f"level {end} beyond max depth {S.max_depth}")

    def run(s, u, v):
        window = (bits >> (end - v)) & ((1 << (v - u)) - 1)
        if window == 0 or s == 0.0:
            return 0.0
        width = window.bit_length()
        top = window >> max(0, width - 60)
        return math.ldexp(s * math.ldexp(float(top), -top.bit_length()), width - v)

    acc = 0.0
    s = s_start
    lvl = start.level
    first = bisect_right(S._ends, lvl)
    for k, k_end, amp, M in S._windows[first:]:
        if k >= end:
            break
        off = lvl - k if lvl > k else 0
        if start.index & ((1 << off) - 1):
            continue
        acc += run(s, lvl, k + off)
        hi = k_end if k_end < end else end
        window = (bits >> (end - hi)) & ((1 << (hi - k - off)) - 1)
        spine = math.ldexp(amp, off)
        if window == 0:
            s += math.ldexp(amp, M) - spine
            lvl = hi
        else:
            lvl = hi - window.bit_length() + 1
            acc += math.ldexp(s + (math.ldexp(amp, lvl - k) - spine), -lvl)
            s -= spine
    return acc + run(s, lvl, end)


def _difference_by_comparisons(f, a, b):
    a = DR.from_value(a)
    b = DR.from_value(b)
    if b.as_fraction() < a.as_fraction():
        return -_difference_by_comparisons(f, b, a)
    if not (0 <= a.as_fraction() and b.as_fraction() <= 1):
        raise d.DomainError("difference expects 0 <= a <= b <= 1")
    if a == b:
        return 0.0
    span = b - a
    if span.numerator == 1 and a.exponent <= span.exponent:
        n = span.exponent
        return math.ldexp(f.S.value(DI(n, a.floor_scaled(n))), -n)
    if b == DR(1, 0):
        # -eval_dyadic(a), where a is neither 0 nor 1
        if a.exponent > f.max_depth:
            raise d.DepthCapError(f"dyadic point at depth {a.exponent} beyond cap")
        return -_walk_to_full_depth(f.S, d.unit_interval(), 0.0, a.numerator, a.exponent)
    depth = max(a.exponent, b.exponent)
    if depth > f.max_depth:
        raise d.DepthCapError(f"difference needs depth {depth} beyond cap")
    ia = a.numerator << (depth - a.exponent)
    ib = b.numerator << (depth - b.exponent)
    diff_bits = (ia ^ ib).bit_length()
    anc = DI(depth - diff_bits, ia >> diff_bits)
    s_anc = f.S.value(anc)
    ga = _walk_to_full_depth(f.S, anc, s_anc, ia & ((1 << diff_bits) - 1), diff_bits)
    gb = _walk_to_full_depth(f.S, anc, s_anc, ib & ((1 << diff_bits) - 1), diff_bits)
    return gb - ga


def _outcome(fn, *args):
    """A float with its sign bit, or the class of the error raised."""
    try:
        v = fn(*args)
    except (d.DomainError, d.DepthCapError) as err:
        return type(err)
    return v, math.copysign(1.0, v)


def _address_bits(rng, depth):
    """Zero, all ones, a random address with a run of trailing zeros, and
    a random one."""
    if depth == 0:
        return (0,)
    tz = rng.randint(0, depth - 1)
    return (0, (1 << depth) - 1, (rng.getrandbits(depth - tz) | 1) << tz,
            rng.getrandbits(depth))


class TestIntegerRoutedDifference:
    """`BlockMartingale.primitive` and `MartingaleInducedFunction.difference`
    against the copies above, on four schedules."""

    SCHEDULES = ((0.5, 1), (0.5, 2), (0.3, 2), (0.7, 3))

    @pytest.fixture(scope="class")
    def martingales(self):
        # beta = 0.7's third stage overflows the float amplitudes before
        # the default cap, so that schedule stops at level 1024
        return [d.assemble_martingale(d.build_schedule(beta, stages, depth_cap=1024))
                for beta, stages in self.SCHEDULES]

    def test_primitive_matches_full_depth_walk(self, martingales):
        rng = random.Random(121)
        cases = 0
        for S in martingales:
            sched = S.schedule
            end = sched.end_level
            starts = _window_starts(sched, rng) + [d.unit_interval()]
            starts += [DI(p.level, rng.getrandbits(p.level)) for p in sched.placements[:6]]
            starts += [DI(p.end, rng.getrandbits(p.end)) for p in sched.placements[-3:]]
            starts += [DI(L, rng.getrandbits(L)) for L in rng.sample(range(1, end), 6)]
            for start in starts:
                s_start = S.value(start)
                for _ in range(21):
                    depth = min(rng.randint(0, end + 40), S.max_depth - start.level)
                    for bits in _address_bits(rng, depth):
                        got = _outcome(S.primitive, start, s_start, bits, depth)
                        want = _outcome(_walk_to_full_depth, S, start, s_start, bits, depth)
                        assert got == want, (start, bits, depth)
                        cases += 1
        assert cases >= 15_000

    def test_difference_matches_comparison_routing(self, martingales):
        rng = random.Random(122)
        routes = {}
        for S in martingales:
            end = S.schedule.end_level
            f = d.martingale_function(S, 0.5)
            capped = d.martingale_function(S, 0.5, max_depth=end)
            for _ in range(300):
                depth = rng.randint(1, end + 40)
                top = 1 << depth
                lo, hi = rng.getrandbits(depth), rng.getrandbits(depth)
                n = rng.randint(0, depth)
                cell = rng.getrandbits(n) << (depth - n)
                level = rng.randint(1, depth)
                # x to the right endpoint e of its level-`level` ancestor:
                # e's address is zero below that level
                e = ((lo >> (depth - level)) + 1) << (depth - level)
                pairs = {"random": (lo, hi), "swapped": (max(lo, hi), min(lo, hi)),
                         "single": (cell, cell + (1 << (depth - n))),
                         "to-one": (lo, top), "equal": (lo, lo), "to-endpoint": (lo, e),
                         "outside": rng.choice(((-1 - lo, hi), (lo, top + 1 + hi)))}
                for route, (ia, ib) in pairs.items():
                    a, b = DR(ia, depth), DR(ib, depth)
                    got = _outcome(f.difference, a, b)
                    assert got == _outcome(_difference_by_comparisons, f, a, b), (route, a, b)
                    routes[route] = routes.get(route, 0) + 1
                    if max(a.exponent, b.exponent) > end and ia != ib and route != "outside":
                        assert _outcome(capped.difference, a, b) is d.DepthCapError
                        routes["capped"] = routes.get("capped", 0) + 1
        for a, b in ((0.25, 1), (1, Fraction(3, 8)), (0, 0.5), (0.5, 0.5)):
            f = d.martingale_function(martingales[0], 0.5)
            assert _outcome(f.difference, a, b) == _outcome(_difference_by_comparisons, f, a, b)
        assert sum(routes.values()) >= 8_000 and min(routes.values()) >= 100, routes

    def test_single_interval_route_keeps_the_depth_cap(self):
        f = d.martingale_function(d.binary_digit_martingale(), 0.5, max_depth=10)
        with pytest.raises(d.DepthCapError):
            f.difference(DR(1, 20), DR(2, 20))
        with pytest.raises(d.DepthCapError):
            f.difference(DR(2, 20), DR(1, 20))
        with pytest.raises(d.DepthCapError):
            f.difference(DR(1, 20), DR(4, 20))
        with pytest.raises(d.DepthCapError):
            f.eval_dyadic(DR(1, 20))
        with pytest.raises(d.DepthCapError):
            f.dyadic_differences([1], [2], 20)
        assert f.difference(DR(1, 20), DR(1, 20)) == 0.0
        assert f.difference(DR(1, 10), DR(2, 10)) == math.ldexp(f.S.value(DI(10, 1)), -10)

    def test_block_value_keeps_the_depth_cap(self, block_martingale_half):
        B = block_martingale_half
        with pytest.raises(d.DepthCapError):
            B.value(DI(B.max_depth + 5, 3))
        with pytest.raises(d.DomainError):
            B.value(DI(3, 8))
        B.value(DI(B.max_depth, 0))


def _split_outcome(fn, *args):
    """The hex of each float returned, or the class of the error raised."""
    try:
        return [float.hex(float(v)) for v in fn(*args)]
    except (d.DomainError, d.DepthCapError) as err:
        return type(err)


class TestPairPrimitive:
    """`pair_primitive`, the common-ancestor descent behind f(b) - f(a): the
    hook descent, and the closed forms of the block kind, on four kinds of
    martingale at depths 0 to 70."""

    @pytest.fixture(scope="class")
    def kinds(self, block_martingale_half):
        return {"binary": d.binary_digit_martingale(max_depth=80),
                "random-sign": d.RandomSignMartingale(31, max_depth=80),
                "scaled": d.ScaledMartingale(d.RandomSignMartingale(32, max_depth=80), 0.3),
                "block": block_martingale_half}

    @staticmethod
    def _walk(name):
        """The integral along one address that the kind's split reads."""
        return d.BlockMartingale.primitive if name == "block" else bit_walk_primitive

    def test_matches_inline_split(self, kinds):
        rng = random.Random(131)
        for name, S in kinds.items():
            walk = self._walk(name)
            for depth in range(71):
                top = 1 << depth
                pairs = [(a, a) for a in _address_bits(rng, depth)]
                pairs += [(rng.getrandbits(depth), rng.getrandbits(depth)) for _ in range(3)]
                pairs += [(rng.getrandbits(depth), top)]   # a point and 1: no ancestor
                for a, b in pairs:
                    got = _split_outcome(S.pair_primitive, a, b, depth)
                    assert got == _split_outcome(pair_split, S, a, b, depth, walk), \
                        (name, a, b, depth)

    def test_pair_primitives_are_the_pair_loop(self, kinds):
        # byte for byte the loop over one scalar split per pair: the block's
        # own `pair_primitive`, and for the others the split of `value` and
        # the bit walk (TestHookDescent reads their one-pair descents)
        rng = random.Random(132)
        for name, S in kinds.items():
            split = d.BlockMartingale.pair_primitive if name == "block" else pair_split
            for depth in (0, 1, 17, 53, 54, 60, 63):
                ia = np.array([rng.getrandbits(depth) for _ in range(40)], dtype=np.uint64)
                ib = np.array([rng.getrandbits(depth) for _ in range(40)], dtype=np.uint64)
                got = np.array(S.pair_primitives(ia, ib, depth))
                want = np.array(pair_loop(S, ia, ib, depth, split))
                assert got.tobytes() == want.tobytes(), (name, depth)

    def test_block_pairs_past_53_match_the_base_loop(self, block_martingale_half):
        B = block_martingale_half
        rng = random.Random(133)
        for depth in (54, 58, 63):
            ia = np.array([rng.getrandbits(depth) for _ in range(60)], dtype=np.uint64)
            ib = np.array([rng.getrandbits(depth) for _ in range(60)], dtype=np.uint64)
            got = B.pair_primitives(ia, ib, depth)
            want = pair_loop(B, ia, ib, depth, d.BlockMartingale.pair_primitive)
            for g, w in zip(got, want):
                assert g.tolist() == w.tolist()

    def test_endpoints_and_the_to_one_route(self, kinds):
        rng = random.Random(134)
        for name, S in kinds.items():
            walk = self._walk(name)
            f = d.martingale_function(S, 0.5)
            for x in (DR(0, 0), DR(1, 0)):
                assert float.hex(f.eval_dyadic(x)) == float.hex(0.0), (name, x)
            for depth in range(2, 71):
                # [a, 1) is not one dyadic interval: a is not 1 - 2^-depth
                a = DR(rng.randrange(0, (1 << depth) - 2, 2) | 1, depth)
                want = -walk(S, d.unit_interval(), 0.0, a.numerator, depth)
                assert float.hex(f.difference(a, 1)) == float.hex(want), (name, a)


def _hook_kinds():
    """Six kinds whose `_descend` is the hook descent, to level 80."""
    return {"binary": d.binary_digit_martingale(max_depth=80),
            "zero": d.martingale._ZeroMartingale(max_depth=80, name="zero"),
            "random-sign": d.RandomSignMartingale(41, max_depth=80),
            "random-uniform": d.martingale._RandomUniformMartingale(42, max_depth=80),
            "scaled": d.ScaledMartingale(d.RandomSignMartingale(43, max_depth=80), 0.3),
            "growth": d.random_growth_martingale(0.6, 44, max_depth=80)}


class TestHookDescent:
    """The base `_descend`, one hook read per level for all pairs,
    against `pair_loop`: the loop over the ancestor-chain `value` and the
    bit walk that it replaced."""

    DEPTHS = (0, 1, 2, 17, 48, 63, 64, 65, 80)

    @staticmethod
    def _pairs(rng, depth):
        """Random pairs, equal pairs and mirror pairs (ancestor the root)."""
        top = (1 << depth) - 1
        pairs = [(rng.getrandbits(depth), rng.getrandbits(depth)) for _ in range(4)]
        pairs += [(a, a) for a in (0, top, rng.getrandbits(depth))]
        if depth:
            pairs += [(a, a ^ 1 << (depth - 1)) for a in (0, top, rng.getrandbits(depth))]
        dtype = np.uint64 if depth <= 64 else object
        return (pairs, np.array([a for a, _ in pairs], dtype=dtype),
                np.array([b for _, b in pairs], dtype=dtype))

    def test_matches_pair_loop(self):
        rng = random.Random(141)
        for name, S in _hook_kinds().items():
            for depth in self.DEPTHS:
                pairs, ia, ib = self._pairs(rng, depth)
                want = [[v.hex() for v in w.tolist()] for w in pair_loop(S, ia, ib, depth)]
                got = [[v.hex() for v in g.tolist()] for g in S.pair_primitives(ia, ib, depth)]
                assert got == want, (name, depth)
                one = [[v.hex() for v in S.pair_primitive(a, b, depth)] for a, b in pairs]
                assert one == [list(p) for p in zip(*want)], (name, depth)

    def test_one_hook_read_per_level(self):
        # a count: no scalar `increment` or `value`, on the kind or its base
        def fail(*args):
            pytest.fail("a scalar read")

        rng = random.Random(142)
        for name, S in _hook_kinds().items():
            levels = []
            hook = S._level_increments

            def counting(n, parents, hook=hook, levels=levels):
                levels.append(n)
                return hook(n, parents)

            S._level_increments = counting
            for T in (S, getattr(S, "base", S)):
                T.increment = T.value = T._inc = fail
            for depth in (0, 17, 80):
                pairs, ia, ib = self._pairs(rng, depth)
                levels.clear()
                S.pair_primitives(ia, ib, depth)
                assert levels == list(range(1, depth + 1)), (name, depth)
                levels.clear()
                S.pair_primitive(*pairs[0], depth)
                assert levels == list(range(1, depth + 1)), (name, depth)

    def test_pairs_in_blocks_of_one_grid(self):
        # more pairs than one grid of BLOCK_CELLS levels-by-addresses cells
        # holds: each block of pairs makes its own hook read per level
        S = d.binary_digit_martingale(max_depth=80)
        rng = random.Random(144)
        depth = 60
        ia, ib = (np.array([rng.getrandbits(depth) for _ in range(300)], dtype=np.uint64)
                  for _ in range(2))
        sizes = []
        hook = S._level_increments
        S._level_increments = lambda n, parents: sizes.append(len(parents)) or hook(n, parents)
        got = S.pair_primitives(ia, ib, depth)
        del S._level_increments
        assert len(sizes) == 5 * depth and max(sizes) * depth <= d.martingale.BLOCK_CELLS
        assert got.tobytes() == np.array(pair_loop(S, ia, ib, depth)).tobytes()

    def test_from_function_ancestor_value(self):
        # this kind's `value` reads f, and the descent sums its hook jumps
        # as the walk does: S(anc) is the walk's value, within
        # TestLevelsAgainstOwnValues' relative 1e-13 of `value`
        S = d.from_function(d.WeierstrassFunction(2.0, 0.5, 1e-13), 10)
        rng = random.Random(143)
        for depth in range(11):
            pairs, ia, ib = self._pairs(rng, depth)
            s = S.pair_primitives(ia, ib, depth)[0]
            ancs = [DI(depth - (a ^ b).bit_length(), a >> (a ^ b).bit_length())
                    for a, b in pairs]
            walk = [d.Martingale.level_values_range(S, I.level, I.index, I.index + 1)[0]
                    for I in ancs]
            assert s.tobytes() == np.array(walk).tobytes(), depth
            np.testing.assert_allclose(s, [S.value(I) for I in ancs], rtol=1e-13, atol=0.0)

    def test_refusals(self):
        S = d.RandomSignMartingale(45, max_depth=20)
        with pytest.raises(d.DepthCapError):
            S.pair_primitives(np.array([0], dtype=np.uint64), np.array([1], dtype=np.uint64), 21)
        for a, b in ((0, 1 << 10), (-1, 0), (1 << 10, 1 << 10)):
            with pytest.raises(d.DomainError):
                S.pair_primitive(a, b, 10)


def _scalar_seminorm(f, sampler):
    """The per-pair seminorm loop that the dyadic branch replaced, kept as
    its oracle: one scalar `difference` per sampled pair."""
    rng = np.random.default_rng(sampler.seed)
    draws = rng.uniform(0.0, 1.0, size=(sampler.pairs, 2))
    lo, hi = math.log(sampler.scale_min), math.log(sampler.scale_max)
    hs = np.exp(lo + (hi - lo) * draws[:, 0])
    xs = draws[:, 1] * (1.0 - hs)
    depth = sampler.dyadic_depth
    worst = 0.0
    for x, h in zip(xs, hs):
        lo = int(math.floor(x * (1 << depth)))
        width = max(1, int(math.floor(h * (1 << depth))))
        width = min(width, (1 << depth) - lo)
        if width <= 0:
            continue
        a = DR(lo, depth)
        bq = DR(lo + width, depth)
        worst = max(worst, abs(f.difference(a, bq)) / float(bq - a) ** f.alpha)
    return worst


@st.composite
def _pair_cases(draw, depths=(0, 1, 2, 17, 44, 53)):
    """(depth, lo, hi): every path of `difference`, at the listed depths."""
    depth = draw(st.sampled_from(depths))
    top = 1 << depth
    kind = draw(st.sampled_from(["random", "origin", "cell", "aligned", "to-one"]))
    lo = draw(st.integers(0, top))
    if kind == "origin":
        lo = 0
    if kind == "cell":
        lo = min(lo, top - 1)
        return depth, lo, lo + 1
    if kind == "aligned":
        s = draw(st.integers(0, depth))
        lo = (lo >> s << s) % top
        return depth, lo, lo + (1 << s)
    if kind == "to-one":
        return depth, lo, top
    return depth, lo, draw(st.integers(lo, top))


def _deep_pairs(sched, rng, depth):
    """Address pairs at `depth` for the array descent: zero and all-ones
    addresses; random ones with common prefixes of every length; for each
    placement window with end <= depth, ancestors at each level inside it,
    on its spine and off it; and addresses whose last window holds no 1-bit
    and whose final run then has its first 1-bit 53, 54, 60, 61, 64, 65,
    100 or 300 bits above depth (where that is below the last window),
    followed by random bits or by ones."""
    top = (1 << depth) - 1
    pairs = [(0, 0), (0, top), (top, 0), (top, top), (0, rng.getrandbits(depth))]
    for _ in range(80):
        a, shared = rng.getrandbits(depth), rng.randint(0, depth)
        below = (1 << (depth - shared)) - 1
        pairs.append((a, (a & ~below) | (rng.getrandbits(depth) & below)))
    for p in sched.placements:
        if p.end > depth:
            break
        for L in range(p.level + 1, p.end):
            on = rng.getrandbits(p.level) << (L - p.level)
            for anc in (on, on | 1 << rng.randrange(L - p.level)):
                a = (anc << (depth - L)) | rng.getrandbits(depth - L - 1)
                pairs.append((a, a | 1 << (depth - L - 1)))
    k = max(p.level for p in sched.placements if p.level < depth)
    for width in (53, 54, 60, 61, 64, 65, 100, 300):
        q = depth - width + 1           # the level of the run's first 1-bit
        if q <= max(p.end for p in sched.placements if p.level < depth):
            continue
        head = rng.getrandbits(k) << (depth - k)
        for tail in (rng.getrandbits(depth - q), (1 << (depth - q)) - 1):
            a = head | 1 << (depth - q) | tail
            pairs.append((a, a ^ 1 << (depth - 1)))
    return pairs


class TestPairVectorizedDifferences:
    """`dyadic_differences` and `pair_primitives` (array passes) against
    the kept scalar `difference`, `value` and `primitive`: exactly equal."""

    @pytest.fixture(scope="class")
    def block_f(self, block_schedule_half, block_martingale_half):
        return d.martingale_function(block_martingale_half, 0.5,
                                     max_depth=block_schedule_half.end_level + 64)

    @pytest.fixture(scope="class", params=[0.5, 0.3], ids=["beta=0.5", "beta=0.3"])
    def blocks_f(self, request, block_f):
        # at beta = 0.5 every amplitude above level 53 is a power of two, so
        # sums are exact; beta = 0.3 makes every reordering show
        if request.param == 0.5:
            return block_f
        sched = d.build_schedule(request.param, 2, depth_cap=1024)
        return d.martingale_function(d.assemble_martingale(sched), 1.0 - request.param,
                                     max_depth=sched.end_level + 64)

    @staticmethod
    def _assert_matches_scalar(f, depth, lo, hi):
        # numerators up to 2^depth: Python ints from depth 63 on
        dtype = np.int64 if depth < 63 else object
        got = f.dyadic_differences(np.array(lo, dtype=dtype), np.array(hi, dtype=dtype), depth)
        want = [f.difference(DR(a, depth), DR(b, depth)) for a, b in zip(lo, hi)]
        assert got.tolist() == want

    @given(st.lists(_pair_cases(), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_block_matches_scalar(self, blocks_f, cases):
        for depth in {c[0] for c in cases}:
            pairs = [(lo, hi) for D, lo, hi in cases if D == depth]
            self._assert_matches_scalar(blocks_f, depth, *zip(*pairs))

    def test_block_every_path(self, blocks_f):
        # common ancestors at every level, inside and between placement
        # windows, where a reordered float operation shows in ~1 pair of 1,000
        rng = random.Random(21)
        for depth in (0, 1, 2, 17, 28, 36, 44, 53):
            top = 1 << depth
            lo = [rng.randrange(top) for _ in range(1500)]
            hi = [min(top, a + rng.getrandbits(rng.randint(0, depth)) + 1) for a in lo]
            aligned = [a >> 3 << 3 for a in lo[:200]]
            lo += [0, 0, top, 0] + aligned + lo[:200]
            hi += [0, top, top, 1] + [min(top, a + 8) for a in aligned] + [top] * 200
            self._assert_matches_scalar(blocks_f, depth, lo, hi)

    @pytest.mark.parametrize("S", [
        d.binary_digit_martingale(max_depth=60),
        d.RandomSignMartingale(21, max_depth=60),
    ], ids=["binary", "random-sign"])
    def test_base_loop_matches_scalar(self, S):
        f = d.martingale_function(S, 0.5)
        rng = random.Random(22)
        for depth in (1, 17, 44, 53, 60):
            top = 1 << depth
            lo = [rng.randrange(top) for _ in range(60)]
            hi = [top] * 20 + [min(top, a + (1 << rng.randrange(depth))) for a in lo[20:]]
            self._assert_matches_scalar(f, depth, lo, hi)

    def test_pair_primitives_match_base_loop(self, blocks_f):
        # the hook descent follows the bit walk, which meets the block's
        # closed forms only to rounding: the loop reads the block's own split
        S = blocks_f.S
        rng = random.Random(23)
        for depth in (1, 17, 44, 53):
            ia = np.array([rng.getrandbits(depth) for _ in range(300)], dtype=np.uint64)
            ib = np.array([rng.getrandbits(depth) for _ in range(300)], dtype=np.uint64)
            got = S.pair_primitives(ia, ib, depth)
            want = pair_loop(S, ia, ib, depth, d.BlockMartingale.pair_primitive)
            for g, w in zip(got, want):
                assert g.tolist() == w.tolist()

    def test_deep_pairs_take_the_descent(self, monkeypatch):
        # a martingale without closed forms: one hook descent for all pairs,
        # past depth 53 as below it, and no scalar `pair_primitive`
        calls = []
        descent = d.Martingale.pair_primitives

        def counting(self, *args):
            calls.append(args)
            return descent(self, *args)

        monkeypatch.setattr(d.Martingale, "pair_primitives", counting)
        monkeypatch.setattr(d.Martingale, "pair_primitive",
                            lambda *a: pytest.fail("a scalar descent"))
        f = d.martingale_function(d.RandomSignMartingale(24, max_depth=80), 0.5)
        rng = random.Random(24)
        lo = [rng.getrandbits(60) for _ in range(20)]
        hi = [a + rng.getrandbits(30) for a in lo]
        got = f.dyadic_differences(np.array(lo), np.array(hi), 60)
        assert len(calls) == 1
        monkeypatch.undo()
        assert got.tolist() == [f.difference(DR(a, 60), DR(b, 60)) for a, b in zip(lo, hi)]

    def test_deep_block_pairs_make_no_scalar_descent(self, monkeypatch, block_f):
        # uint64 numerators at depth 60, Python ints at depth 200: one base
        # `pair_primitives` call each, over the block kind's `_descend`
        rng = random.Random(25)
        cases = []
        for depth, dtype in ((60, np.uint64), (200, object)):
            lo = [rng.getrandbits(depth) for _ in range(20)]
            hi = [min(a + rng.getrandbits(depth - 50), 1 << depth) for a in lo]
            want = [block_f.difference(DR(a, depth), DR(b, depth)) for a, b in zip(lo, hi)]
            cases.append((depth, np.array(lo, dtype=dtype), np.array(hi, dtype=dtype), want))
        for name in ("primitive", "pair_primitive", "value"):
            monkeypatch.setattr(d.BlockMartingale, name,
                                lambda *a: pytest.fail("a scalar descent"))
        calls = []
        descent = d.Martingale.pair_primitives

        def counting(self, *args):
            calls.append(type(self))
            return descent(self, *args)

        monkeypatch.setattr(d.Martingale, "pair_primitives", counting)
        for depth, lo, hi, want in cases:
            assert block_f.dyadic_differences(lo, hi, depth).tolist() == want
        assert calls == [d.BlockMartingale] * 2

    @pytest.fixture(scope="class")
    def deep_cases(self, blocks_f):
        """(depth, pairs) for pair_primitives at depths 54 to the martingale's
        cap; see `_deep_pairs`."""
        S = blocks_f.S
        rng = random.Random(26)
        return [(depth, _deep_pairs(S.schedule, rng, depth))
                for depth in (54, 63, 64, 65, 200, 943, blocks_f.max_depth, S.max_depth)
                if depth <= S.max_depth]

    def test_deep_pair_primitives_match_scalar(self, blocks_f, deep_cases):
        S = blocks_f.S
        for depth, pairs in deep_cases:
            dtype = np.uint64 if depth <= 64 else object
            ia = np.array([a for a, _ in pairs], dtype=dtype)
            ib = np.array([b for _, b in pairs], dtype=dtype)
            got = np.array(S.pair_primitives(ia, ib, depth))
            want = np.array([S.pair_primitive(a, b, depth) for a, b in pairs]).T
            assert got.tobytes() == want.tobytes(), depth

    def test_deep_differences_match_scalar(self, blocks_f, deep_cases):
        # the general, single-interval and to-one routes, past int64 too
        rng = random.Random(27)
        for depth, pairs in deep_cases:
            if depth > blocks_f.max_depth:
                continue
            top = 1 << depth
            lo = [min(a, b) for a, b in pairs]
            hi = [max(a, b) for a, b in pairs]
            for a in lo[:40]:
                n = rng.randint(0, depth)
                cell = a >> (depth - n) << (depth - n)
                lo += [cell, a, a]
                hi += [cell + (1 << (depth - n)), top, a]
            self._assert_matches_scalar(blocks_f, depth, lo, hi)

    def test_checks_before_work(self, block_f):
        # floats too: numpy makes 2^63 and 2^63 - 1 a float64 array, whose
        # numerators the uint64 routes would read rounded
        for lo, hi, depth in (([-1], [1], 4), ([3], [2], 4), ([0], [17], 4),
                              ([[0]], [[1]], 4), ([0.0], [1.0], 4),
                              ([0, 0], [2 ** 63 - 1, 2 ** 63], 63)):
            with pytest.raises(d.DomainError):
                block_f.dyadic_differences(np.array(lo), np.array(hi), depth)
        with pytest.raises(d.DepthCapError):
            block_f.dyadic_differences(np.array([0]), np.array([1]),
                                       block_f.max_depth + 1)
        S = block_f.S
        with pytest.raises(d.DepthCapError):
            S.pair_primitives(np.array([0], dtype=object), np.array([1], dtype=object),
                              S.max_depth + 1)

    def test_seminorm_matches_per_pair_loop(self, block_f):
        # the block-witness seminorm seeds of its seed 0, with the values
        # the per-pair loop gave for them
        pinned = {3415057689: 0.5564905878429572, 668581066: 0.5886249145240833,
                  1078139974: 0.6090361382254651, 2748976581: 0.6106394905550027}
        for seed, value in pinned.items():
            sampler = d.SeminormSampler(pairs=1000, scale_min=2.0 ** -40, seed=seed,
                                        dyadic_depth=44)
            est = d.holder_seminorm_estimate(block_f, sampler)
            assert est == _scalar_seminorm(block_f, sampler) == value

    def test_seminorm_other_functions_match_loop(self, weier_half):
        for f in (weier_half, d.martingale_function(d.RandomSignMartingale(3), 0.5)):
            sampler = d.SeminormSampler(pairs=300, scale_min=2.0 ** -30, seed=4,
                                        dyadic_depth=40)
            assert d.holder_seminorm_estimate(f, sampler) == _scalar_seminorm(f, sampler)

    def test_seminorm_past_int64_matches_loop(self, block_f):
        # numerators of depth 64 leave int64: the object-int side of
        # _exact_ints and of the routes of dyadic_differences
        assert holder._exact_ints(np.array([1.0]), 64).dtype == object
        sampler = d.SeminormSampler(pairs=200, scale_min=2.0 ** -40, seed=3,
                                    dyadic_depth=64)
        est = d.holder_seminorm_estimate(block_f, sampler)
        assert 0.0 < est == _scalar_seminorm(block_f, sampler)

    def test_seminorm_makes_no_scalar_descent(self, monkeypatch, block_f):
        # a count, not a time: the parent made about 2,000 of these calls
        calls = []
        walk = d.BlockMartingale.primitive

        def counting(self, *args):
            calls.append(args)
            return walk(self, *args)

        monkeypatch.setattr(d.BlockMartingale, "primitive", counting)
        d.holder_seminorm_estimate(block_f, d.SeminormSampler(
            pairs=1000, scale_min=2.0 ** -40, seed=5, dyadic_depth=44))
        assert calls == []

    @pytest.mark.parametrize("pairs", [0, -1])
    def test_sampler_needs_pairs(self, pairs):
        with pytest.raises(d.DomainError):
            d.SeminormSampler(pairs=pairs)

    def test_sampler_scales_stay_in_unit_interval(self, weier_half):
        # scales above 1 would put base points x = u (1 - h) below 0
        with pytest.raises(d.DomainError):
            d.SeminormSampler(pairs=100, scale_max=2.0, seed=0)
        with pytest.raises(d.DomainError):
            d.SeminormSampler(pairs=100, scale_min=0.0)
        sampler = d.SeminormSampler(pairs=100, scale_min=0.25, scale_max=1.0, seed=0)
        assert 0.0 < d.holder_seminorm_estimate(weier_half, sampler)


def _shape_fleet(request):
    """Each batch evaluator of the package, by name."""
    W2, W3 = d.WeierstrassFunction(2.0, 0.5), d.WeierstrassFunction(3.0, 0.5)
    return {
        "constant": d.ConstantFunction(1.3).batch,
        "linear": d.LinearFunction(-2.5, alpha=0.3).batch,
        "callable": d.CallableFunction(lambda x: math.sin(3.0 * x), 0.5).batch,
        "W2": W2.batch,
        "W3": W3.batch,
        "W2-antiderivative": W2.antiderivative_batch,
        "W3-antiderivative": W3.antiderivative_batch,
        "martingale-induced": d.martingale_function(d.binary_digit_martingale(), 0.5,
                                                    max_depth=30).batch,
        "wavelet": request.getfixturevalue("oscillator_half").batch,
    }


class TestBatchShape:
    """A (k, n) input gives a (k, n) output whose rows are one-row calls."""

    @pytest.mark.parametrize("n", [1, 3, 65, 129])
    @pytest.mark.parametrize("name", ["constant", "linear", "callable", "W2", "W3",
                                      "W2-antiderivative", "W3-antiderivative",
                                      "martingale-induced", "wavelet"])
    def test_rows_are_one_row_calls_bit_for_bit(self, request, name, n):
        evaluate = _shape_fleet(request)[name]
        xs = np.random.default_rng(n).uniform(0.0, 1.0, size=(3, n))
        got = evaluate(xs)
        want = np.stack([evaluate(row) for row in xs])
        assert got.shape == xs.shape
        assert got.tobytes() == want.tobytes()


def _split_fleet():
    W2, W3 = d.WeierstrassFunction(2.0, 0.5), d.WeierstrassFunction(3.0, 0.5)
    return {"W2": W2.batch, "W3": W3.batch, "W2-antiderivative": W2.antiderivative_batch,
            "W3-antiderivative": W3.antiderivative_batch}


class TestRowSplit:
    """The Weierstrass kernels split a table's leading axis across threads;
    no worker count changes a bit."""

    @pytest.fixture
    def workers(self, monkeypatch):
        # every table of two or more rows is split, one block per worker
        monkeypatch.setattr(holder, "_BLOCK_CELLS", 1)

        def force(count):
            monkeypatch.setattr(holder, "_usable_cpus", lambda: count)
        return force

    @pytest.mark.parametrize("name", sorted(_split_fleet()))
    def test_worker_count_keeps_the_bytes(self, workers, name):
        evaluate = _split_fleet()[name]
        for S in (1, 2, 7, 64):
            for n in (1, 3, 65, 129):
                xs = np.random.default_rng(S * n).uniform(0.0, 1.0, size=(S, n))
                got = {}
                for count in (1, 2, 3):
                    workers(count)
                    got[count] = evaluate(xs).tobytes()
                assert got[2] == got[1] and got[3] == got[1], (S, n)
                workers(1)
                assert got[1] == np.stack([evaluate(row) for row in xs]).tobytes()

    def test_leading_axis_of_a_3d_input(self, workers):
        W = d.WeierstrassFunction(2.0, 0.5)
        xs = np.random.default_rng(5).uniform(0.0, 1.0, size=(5, 4, 33))
        workers(1)
        want = W.batch(xs).tobytes()
        workers(3)
        assert W.batch(xs).tobytes() == want

    def test_1d_input_is_one_product(self, workers, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a 1-d input was split")

        monkeypatch.setattr(holder, "_row_pool", no_pool)
        workers(3)
        W = d.WeierstrassFunction(2.0, 0.5)
        xs = np.random.default_rng(2).uniform(0.0, 1.0, size=4096)
        freqs, amps = W._series(W.alpha, W.tol)
        phases = np.multiply.outer(xs, freqs)
        assert W.batch(xs).tobytes() == (np.cos(phases) @ amps).tobytes()

    def test_one_cpu_starts_no_thread(self, workers, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a pool was asked for on one CPU")

        monkeypatch.setattr(holder, "_row_pool", no_pool)
        workers(1)
        before = threading.active_count()
        for evaluate in _split_fleet().values():
            evaluate(np.random.default_rng(3).uniform(0.0, 1.0, size=(64, 129)))
        assert threading.active_count() == before

    def test_small_tables_stay_on_the_calling_thread(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a table below two blocks was split")

        monkeypatch.setattr(holder, "_row_pool", no_pool)
        monkeypatch.setattr(holder, "_usable_cpus", lambda: 3)
        W = d.WeierstrassFunction(2.0, 0.5)
        rows = 2 * holder._BLOCK_CELLS // W.cells_per_point() // 33
        W.batch(np.zeros((rows, 33)))       # the most rows below two blocks

    @pytest.mark.parametrize("name", sorted(_split_fleet()))
    def test_scratch_table_holds_at_most_2048_points_or_one_row(self, workers, name):
        evaluate = _split_fleet()[name]
        terms = d.WeierstrassFunction(2.0, 0.5).cells_per_point()
        for count in (1, 2, 3, 8):
            workers(count)
            for S, n in ((64, 129), (300, 33), (7, 3000), (2100, 1)):
                xs = np.random.default_rng(S * n).uniform(0.0, 1.0, size=(S, n))
                want = np.stack([evaluate(row) for row in xs]).tobytes()
                evaluate(xs)        # the pool's first start is not the call's
                tracemalloc.start()
                try:
                    got = evaluate(xs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                # besides its output, a call holds the scratch table, per
                # thread numpy's buffers for two operands, and its own Python
                # objects (views, cut list, futures: about 5 KB on CPython 3.11)
                table = peak - got.nbytes - count * 2 * 8 * np.getbufsize() - 8192
                assert table <= 8 * max(2048, n) * terms, (count, S, n)
                assert got.tobytes() == want, (count, S, n)
            for n in (0, 1, 65):
                assert evaluate(np.empty((0, n))).shape == (0, n)
            assert evaluate(np.empty(0)).shape == (0,)

    def test_phase_check_copies_nothing(self):
        # the largest |x| is read from max x and min x: np.abs(xs) made a
        # full copy of every kernel call's input only to read its maximum
        xs = np.random.default_rng(5).uniform(-1.0, 1.0, size=(256, 256))
        tracemalloc.start()
        try:
            holder._check_phases(xs, 1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 < xs.nbytes

    def test_forked_child_finishes_a_split_call(self, workers):
        workers(2)
        W = d.WeierstrassFunction(2.0, 0.5)
        xs = np.random.default_rng(4).uniform(0.0, 1.0, size=(30, 65))
        want = W.batch(xs).tobytes()      # the parent's pool exists from here on
        read, write = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:        # the child: one split call, its bytes to the pipe
            code = 1
            try:
                with os.fdopen(write, "wb") as out:
                    out.write(W.batch(xs).tobytes())
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        deadline, status = time.monotonic() + 30.0, None
        while status is None and time.monotonic() < deadline:
            done, code = os.waitpid(pid, os.WNOHANG)
            status = code if done else time.sleep(0.05)
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        with os.fdopen(read, "rb") as inp:
            got = inp.read()
        assert status is not None, "the forked child's split call did not return"
        assert os.waitstatus_to_exitcode(status) == 0
        assert got == want
