import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadosc as d

mp.mp.dps = 30


def theta_oracle(x, eps, alpha, nmax=200):
    """Per-term incomplete-integral evaluation of Theta for the dyadic
    cosine series: each term reduces to int_a^b (cos(t+v)-cos t) v^(-1-a) dv
    with a = 2^n eps, b = 2^n, handled through complex incomplete gammas."""
    total = mp.mpf(0)
    s = 1 + mp.mpf(alpha)
    for n in range(nmax):
        a = mp.mpf(2) ** n * eps
        b = mp.mpf(2) ** n
        ph = mp.mpf(2) ** n * x

        def upper(V):
            return (-1j) ** (s - 1) * mp.gammainc(1 - s, -1j * V)

        osc = mp.re(mp.e ** (1j * ph) * (upper(a) - upper(b)))
        flat = mp.cos(ph) * (a ** -mp.mpf(alpha) - b ** -mp.mpf(alpha)) / mp.mpf(alpha)
        term = osc - flat
        total += term
        if n > 60 and abs(term) < mp.mpf(10) ** -25:
            break
    return float(total)


# The replaced per-eps quadratures, kept as oracles for the shared kernel:
# two Simpson passes per theta, and one theta per (level, eps) in the gap.

def _theta_fixed_reference(f, alpha, x, eps, panels_per_octave):
    U = math.log2(1.0 / eps)
    fx = f(x)
    total = 0.0
    panels = 0
    for j in range(int(math.ceil(U))):
        lo, hi = float(j), min(float(j + 1), U)
        if hi <= lo:
            break
        m = panels_per_octave
        nodes = np.linspace(lo, hi, 2 * m + 1)
        hs = np.exp2(-nodes)
        vals = (f.batch(x + hs) - fx) * np.exp2(alpha * nodes) * math.log(2.0)
        step = (hi - lo) / m
        total += step / 6.0 * (vals[0] + vals[-1] + 4.0 * vals[1::2].sum()
                               + 2.0 * vals[2:-1:2].sum())
        panels += m
    return total, panels


def theta_reference(f, alpha, x, eps, quad):
    coarse, _ = _theta_fixed_reference(f, alpha, x, eps, quad.panels_per_octave)
    fine, panels = _theta_fixed_reference(f, alpha, x, eps, 2 * quad.panels_per_octave)
    return fine, abs(fine - coarse), panels


def tracking_reference(f, alpha, I, cutoff_extra, panels_per_octave):
    m = I.level
    a, b = float(I.left), float(I.right)
    u_top = float(m + cutoff_extra)
    fa = float(f.antiderivative_batch(np.array([a]))[0])
    fb = float(f.antiderivative_batch(np.array([b]))[0])
    total = 0.0
    scale = math.ldexp(1.0, m)
    for j in range(int(math.ceil(u_top))):
        lo, hi = float(j), min(float(j + 1), u_top)
        if hi <= lo:
            break
        nodes = np.linspace(lo, hi, 2 * panels_per_octave + 1)
        hs = np.exp2(-nodes)
        inner = (f.antiderivative_batch(b + hs) - fb
                 - (f.antiderivative_batch(a + hs) - fa))
        vals = scale * inner * np.exp2(alpha * nodes) * math.log(2.0)
        step = (hi - lo) / panels_per_octave
        total += step / 6.0 * (vals[0] + vals[-1] + 4.0 * vals[1::2].sum()
                               + 2.0 * vals[2:-1:2].sum())
    return total


def gap_reference(f, alpha, depth, xs, first_level, eps_grid, quad, cutoff_extra=24):
    levels = list(range(first_level, depth + 1))
    gaps = [0.0] * len(levels)
    for x in xs:
        for n in levels:
            s_val = tracking_reference(f, alpha, d.locate(x, n), cutoff_extra,
                                       quad.panels_per_octave)
            for eps in np.exp2(-np.linspace(n, n + 1, eps_grid)):
                th, _, _ = theta_reference(f, alpha, float(x), float(eps), quad)
                idx = n - first_level
                gaps[idx] = max(gaps[idx], abs(th - s_val))
    return levels, gaps


KERNEL_FLEET = {
    "linear": d.LinearFunction(1.0, alpha=0.5),
    "W2": d.WeierstrassFunction(2.0, 0.5),
    "W3": d.WeierstrassFunction(3.0, 0.5),
    "constant": d.ConstantFunction(1.3),
}


# points whose intervals share endpoints: two in one level-10 interval, the
# dyadic point 0.5, and one below 2^-14, whose left endpoint is 0.0 (the
# same float key as octave 0) at every level up to 14
SHARED_POINTS = [0.3, 0.3005, 0.5, 3e-5]


class TestDividedDifference:
    def test_constant(self):
        f = d.ConstantFunction(4.0)
        assert d.divided_difference(f, 0.5, 0.2, 0.1) == 0.0

    def test_linear_closed_form(self):
        f = d.LinearFunction(1.0, alpha=0.5)
        h = 0.25
        assert d.divided_difference(f, 0.5, 0.1, h) == pytest.approx(h ** 0.5)

    def test_signed_h(self):
        f = d.LinearFunction(1.0, alpha=0.5)
        plus = d.divided_difference(f, 0.5, 0.5, 0.25)
        minus = d.divided_difference(f, 0.5, 0.5, -0.25)
        assert plus == pytest.approx(-minus)

    def test_zero_h_rejected(self):
        with pytest.raises(d.DomainError):
            d.divided_difference(d.ConstantFunction(0.0), 0.5, 0.1, 0.0)

    def test_antisymmetry_for_odd_function(self):
        # f odd about x: the two one-sided numerators are exact negatives
        f = d.CallableFunction(math.sin, 0.5, seminorm_bound=2.0)
        for h in (0.5, 0.125, 2.0 ** -9):
            plus = d.divided_difference(f, 0.5, 0.0, h) * abs(h) ** 0.5
            minus = d.divided_difference(f, 0.5, 0.0, -h) * abs(h) ** 0.5
            assert plus == pytest.approx(-minus, rel=1e-12)

    def test_weierstrass_two_evaluators(self):
        got = d.divided_difference(d.WeierstrassFunction(2.0, 0.5, 1e-13), 0.5, 0.0,
                                   2.0 ** -10)
        hp = sum(mp.power(2, -n * mp.mpf("0.5"))
                 * (mp.cos(mp.power(2, n) * mp.mpf(2) ** -10) - 1)
                 for n in range(140)) / mp.sqrt(mp.mpf(2) ** -10)
        assert got == pytest.approx(float(hp), abs=1e-9)


class TestTheta:
    def test_constant_zero(self):
        assert d.theta(d.ConstantFunction(5.0), 0.5, 0.3, 1e-3).value == 0.0

    @pytest.mark.parametrize("eps", [0.5, 2.0 ** -6, 2.0 ** -12])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_linear_closed_form(self, eps, alpha):
        f = d.LinearFunction(1.0, alpha=alpha)
        got = d.theta(f, alpha, 0.0, eps)
        assert got.value == pytest.approx(
            d.theta_linear_closed_form(1.0, alpha, eps), abs=1e-8)

    def test_weierstrass_against_incomplete_gamma_oracle(self, weier_half):
        for x, eps in ((0.3, 2.0 ** -8), (0.71, 2.0 ** -11)):
            got = d.theta(weier_half, 0.5, x, eps)
            want = theta_oracle(mp.mpf(x), mp.mpf(eps), "0.5")
            assert got.value == pytest.approx(want, abs=2e-2)

    def test_bound_across_fleet(self, weier_half):
        fleet = [weier_half, d.WeierstrassFunction(3.0, 0.5),
                 d.LinearFunction(1.0, alpha=0.5)]
        for f in fleet:
            for x in (0.1, 0.55):
                for eps in (2.0 ** -4, 2.0 ** -10):
                    th = d.theta(f, f.alpha, x, eps)
                    assert abs(th.value) <= f.seminorm_bound * math.log(1 / eps) + 1e-9

    def test_halving_within_error_estimate(self, weier_half):
        fleet = [weier_half, d.LinearFunction(1.0, alpha=0.5)]
        for f in fleet:
            for eps in (2.0 ** -6, 2.0 ** -10):
                a = d.theta(f, 0.5, 0.3, eps, d.QuadratureConfig(32))
                b = d.theta(f, 0.5, 0.3, eps, d.QuadratureConfig(64))
                assert abs(b.value - a.value) <= a.error_estimate + 1e-12

    def test_domain(self):
        with pytest.raises(d.DomainError):
            d.theta(d.ConstantFunction(0.0), 0.5, 0.0, 1.5)

    @pytest.mark.parametrize("eps", [5e-324, 1e-310])
    def test_eps_with_an_infinite_reciprocal_is_refused(self, weier_half, eps):
        # 1/eps overflowed to inf, and the octave loop ran to U = inf
        with pytest.raises(d.DomainError, match="eps"):
            d.theta(weier_half, 0.5, 0.3, eps)


class TestSigmaStats:
    @pytest.mark.parametrize("eps", [5e-324, 1e-310])
    def test_eps_with_an_infinite_reciprocal_is_refused(self, weier_half, eps):
        # U = log(1/eps) was inf: upper nan, lower and total inf
        with pytest.raises(d.DomainError, match="1/eps overflows"):
            d.sigma_stats(weier_half, 0.5, 0.37, eps, [0.5], [0.5], samples=100, seed=1)

    def test_full_event_for_steep_function(self):
        # f(x) = x: Delta_alpha = t^(1-alpha) <= 1; threshold below the
        # minimum over sampled scales makes the event everything
        f = d.LinearFunction(1.0, alpha=0.5)
        eps = 2.0 ** -8
        st = d.sigma_stats(f, 0.5, 0.0, eps, [eps ** 0.5 * 0.9], [0.1],
                           samples=4000, seed=1)
        measure, stderr = st.upper[eps ** 0.5 * 0.9]
        assert measure == pytest.approx(st.total_mass, abs=1e-12)

    def test_constant_all_zero(self):
        st = d.sigma_stats(d.ConstantFunction(1.0), 0.5, 0.2, 2.0 ** -8,
                           [0.01], [0.01], samples=2000, seed=2)
        assert st.upper[0.01][0] == 0.0
        assert st.lower[0.01][0] == 0.0

    def test_partition_sums_exactly(self, weier_half):
        st = d.sigma_stats(weier_half, 0.5, 0.123, 2.0 ** -10, [0.1], [0.2],
                           samples=5000, seed=3)
        total = st.upper[0.1][0] + st.lower[0.2][0] + st.middle_mass
        assert total == pytest.approx(st.total_mass, abs=1e-12)

    def test_weierstrass_dichotomy_at_generic_point(self, weier_half):
        # both threshold events carry positive scale measure at a generic
        # point (at x = 0 the cosine phases align and every one-sided
        # difference is nonpositive, so a generic point is the right probe)
        st = d.sigma_stats(weier_half, 0.5, 0.123, 2.0 ** -12, [0.05], [0.05],
                           samples=20000, seed=7)
        assert st.upper[0.05][0] > 0.0
        assert st.lower[0.05][0] > 0.0

    @pytest.mark.parametrize("upper, lower", [
        ([math.nan], [0.1]), ([0.1], [math.nan]), ([math.inf], [0.1]),
        ([0.0], [0.1]), ([0.1], [-0.1])])
    def test_thresholds_positive_and_finite(self, weier_half, upper, lower):
        # a NaN threshold used to measure (0.0, 0.0) for its event
        with pytest.raises(d.DomainError, match="thresholds"):
            d.sigma_stats(weier_half, 0.5, 0.4, 2.0 ** -9, upper, lower,
                          samples=100, seed=1)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_refused(self, weier_half, samples):
        with pytest.raises(d.DomainError):
            d.sigma_stats(weier_half, 0.5, 0.4, 2.0 ** -9, [0.1], [0.1],
                          samples=samples, seed=1)

    def test_deterministic_under_seed(self, weier_half):
        a = d.sigma_stats(weier_half, 0.5, 0.4, 2.0 ** -9, [0.1], [0.1],
                          samples=3000, seed=11)
        b = d.sigma_stats(weier_half, 0.5, 0.4, 2.0 ** -9, [0.1], [0.1],
                          samples=3000, seed=11)
        assert a.upper == b.upper and a.lower == b.lower


class TestThetaMartingaleGap:
    def test_zero_function(self):
        prof = d.theta_martingale_gap(d.ConstantFunction(0.0), 0.5, 6,
                                      [0.2, 0.7], first_level=2, eps_grid=2)
        assert max(prof.gaps) == 0.0

    def test_linear_closed_form(self):
        # for f(x) = x the interval average is exact and the sup gap over
        # [2^-(n+1), 2^-n] has the closed form below (largest at eps = 2^-n)
        f = d.LinearFunction(1.0, alpha=0.5)
        K = 24
        prof = d.theta_martingale_gap(f, 0.5, 8, [0.0], first_level=4,
                                      eps_grid=2, cutoff_extra=K)
        for n, g in zip(prof.levels, prof.gaps):
            expect = (2.0 ** (-n * 0.5) - 2.0 ** (-(n + K) * 0.5)) / 0.5
            assert g == pytest.approx(expect, abs=1e-8)

    def test_tracking_value_is_martingale_like(self, weier_half):
        # parent value agrees with the mean of its children, up to the
        # cutoff tail 2^(-K(1-alpha)) and quadrature error
        from dyadosc.divdiff import tracking_martingale_value

        I = d.locate(0.3, 6)
        v = tracking_martingale_value(weier_half, 0.5, I, cutoff_extra=30)
        lo = d.DyadicInterval(7, 2 * I.index)
        hi = d.DyadicInterval(7, 2 * I.index + 1)
        mean = 0.5 * (tracking_martingale_value(weier_half, 0.5, lo, 29)
                      + tracking_martingale_value(weier_half, 0.5, hi, 29))
        assert v == pytest.approx(mean, abs=1e-3)

    def test_weierstrass_profile_flat(self, weier_half):
        rng = np.random.default_rng(4)
        xs = [float(v) for v in rng.uniform(0.02, 0.98, size=12)]
        prof = d.theta_martingale_gap(weier_half, 0.5, 12, xs, first_level=6,
                                      eps_grid=2, quad=d.QuadratureConfig(16))
        p = d.trend_pvalue(prof.gaps)
        assert p >= 0.05


class TestTrendPvalue:
    """Kendall's test against scipy's kendalltau (method="auto") as oracle."""

    @staticmethod
    def _scipy(values):
        from scipy.stats import kendalltau

        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")     # scipy warns on n < 2
            return float(kendalltau(np.arange(len(values)), np.asarray(values)).pvalue)

    @given(st.one_of(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=60),
        st.lists(st.integers(0, 4).map(float), max_size=60),
        st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=60).map(sorted)))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy(self, values):
        got, want = d.trend_pvalue(values), self._scipy(values)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("values", [
        [], [1.0], [2.0, 2.0, 2.0], [0.1, math.nan, 0.3, 0.2]])
    def test_nan_cases(self, values):
        assert math.isnan(d.trend_pvalue(values))

    def test_one_pair_out_of_order_is_exact(self):
        # n > 33 with one discordant pair still takes the exact tail
        v = [float(i) for i in range(40)]
        v[3], v[4] = v[4], v[3]
        assert d.trend_pvalue(v) == pytest.approx(2 * 40 / math.factorial(40), rel=1e-12)
        assert d.trend_pvalue(v) == pytest.approx(self._scipy(v), rel=1e-12)

    def test_gap_runs_without_scipy(self):
        code = ("import sys, dyadosc as d\n"
                "d.trend_pvalue([0.3, 0.1, 0.2, 0.5])\n"
                "d.theta_martingale_gap(d.WeierstrassFunction(2.0, 0.5), 0.5, 4, [0.3],\n"
                "                       first_level=2, eps_grid=2,\n"
                "                       quad=d.QuadratureConfig(8))\n"
                "print('scipy' in sys.modules)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(d.__file__).parents[1]), env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestSharedOctaveKernel:
    @pytest.mark.parametrize("panels", [3, 16, 32])
    @pytest.mark.parametrize("name", sorted(KERNEL_FLEET))
    def test_theta_matches_two_pass_reference(self, name, panels):
        f, quad = KERNEL_FLEET[name], d.QuadratureConfig(panels)
        for x in (0.0, 0.37, 0.93):
            for eps in (0.5, 2.0 ** -3, 2.0 ** -11, 1e-3, 0.3):
                got = d.theta(f, 0.5, x, eps, quad)
                value, err, count = theta_reference(f, 0.5, x, eps, quad)
                assert (got.value, got.panels) == (value, count), (x, eps)
                assert type(got.value) is type(value)
                assert abs(got.error_estimate - err) <= 1e-13, (x, eps)

    @pytest.mark.parametrize("eps_grid", [2, 3])
    def test_gap_matches_per_eps_reference(self, weier_half, eps_grid):
        xs, quad = [0.21, 0.64, 0.83], d.QuadratureConfig(8)
        prof = d.theta_martingale_gap(weier_half, 0.5, 10, xs, first_level=6,
                                      eps_grid=eps_grid, quad=quad)
        assert (prof.levels, prof.gaps) == gap_reference(weier_half, 0.5, 10, xs, 6,
                                                         eps_grid, quad)

    @pytest.mark.parametrize("panels", [3, 16])
    def test_tracking_matches_reference(self, panels):
        from dyadosc.divdiff import tracking_martingale_value

        for f in (KERNEL_FLEET["W2"], KERNEL_FLEET["W3"], KERNEL_FLEET["linear"]):
            for level, cutoff in ((0, 24), (3, 7), (9, 24)):
                I = d.locate(0.37, level)
                assert (tracking_martingale_value(f, 0.5, I, cutoff, panels)
                        == tracking_reference(f, 0.5, I, cutoff, panels))

    def test_gap_integrates_each_point_once(self):
        # the per-eps path made 378 batch calls per point at these parameters
        W = d.WeierstrassFunction(2.0, 0.5)
        batch, calls = W.batch, []
        W.batch = lambda xs: calls.append(1) or batch(xs)
        xs = [0.3, 0.71]
        d.theta_martingale_gap(W, 0.5, 14, xs, first_level=6, eps_grid=2,
                               quad=d.QuadratureConfig(16))
        assert len(calls) <= 15 * len(xs)


class TestSharedEndpointTracking:
    @pytest.mark.parametrize("name", ["W2", "W3", "linear"])
    def test_gap_matches_reference(self, name):
        f, quad = KERNEL_FLEET[name], d.QuadratureConfig(16)
        prof = d.theta_martingale_gap(f, 0.5, 14, SHARED_POINTS, first_level=6,
                                      eps_grid=2, quad=quad)
        assert (prof.levels, prof.gaps) == gap_reference(f, 0.5, 14, SHARED_POINTS, 6, 2,
                                                         quad)

    @pytest.mark.parametrize("name", ["W2", "W3", "linear"])
    def test_memoised_values_match_reference(self, name):
        from dyadosc.divdiff import _tracking

        f, quad = KERNEL_FLEET[name], d.QuadratureConfig(16)
        # one stacked pass over intervals that share endpoints and octaves
        intervals = [d.locate(x, n) for n in range(14, 5, -1) for x in SHARED_POINTS]
        tracking = _tracking(f, 0.5, intervals, 24, quad)
        for I in intervals:
            assert tracking[I] == tracking_reference(f, 0.5, I, 24, 16)

    def test_gap_evaluates_each_endpoint_row_once(self):
        # one tracking evaluation per (level, interval) made 1,260 calls here
        W = d.WeierstrassFunction(2.0, 0.5)
        anti, calls = W.antiderivative_batch, []
        W.antiderivative_batch = lambda ys: calls.append(1) or anti(ys)
        d.theta_martingale_gap(W, 0.5, 14, [0.3, 0.71], first_level=6, eps_grid=2,
                               quad=d.QuadratureConfig(16))
        assert len(calls) <= 720

    def test_gap_stacks_octave_rows(self):
        # a call per endpoint and octave made 708 antiderivative calls here,
        # and a call per octave 30 batch calls: the same points, fewer calls
        W = d.WeierstrassFunction(2.0, 0.5)
        anti, batch, anti_sizes, batch_calls = W.antiderivative_batch, W.batch, [], []
        W.antiderivative_batch = lambda ys: anti_sizes.append(np.size(ys)) or anti(ys)
        W.batch = lambda xs: batch_calls.append(1) or batch(xs)
        xs = [0.3, 0.71]
        d.theta_martingale_gap(W, 0.5, 14, xs, first_level=6, eps_grid=2,
                               quad=d.QuadratureConfig(16))
        assert len(anti_sizes) <= 1 + 14 + 24
        assert sum(anti_sizes) == 22_724
        assert len(batch_calls) <= len(xs)

    def test_stacked_calls_keep_the_cell_budget(self):
        from dyadosc.divdiff import _tracking

        W = d.WeierstrassFunction(2.0, 0.5)
        anti, batch, sizes = W.antiderivative_batch, W.batch, []
        W.antiderivative_batch = lambda ys: sizes.append(np.size(ys)) or anti(ys)
        W.batch = lambda xs: sizes.append(np.size(xs)) or batch(xs)
        tracemalloc.start()
        try:
            d.theta(W, 0.5, 0.3, 2.0 ** -1000, d.QuadratureConfig(64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1000 octaves of 257 nodes: every node once; one phase table for
        # all of them held 165 MiB
        assert sum(sizes) == 1000 * 257
        assert peak < 16 * 2 ** 20
        # an octave's endpoint rows past one table are filled in several steps
        intervals = [d.locate(x, n) for x in np.linspace(0.01, 0.99, 40) for n in (5, 6, 7, 8)]
        tracking = _tracking(W, 0.5, intervals, 4, d.QuadratureConfig(16))
        for I in intervals:
            assert tracking[I] == tracking_reference(W, 0.5, I, 4, 16)

    @pytest.mark.parametrize("kwargs", [
        {"sample_points": []},
        {"eps_grid": 0},
        {"eps_grid": -1},
        {"first_level": 7},
        {"sample_points": [0.3, 1.5]},
        {"sample_points": [1.0]},
        {"sample_points": [-0.25]},
        {"sample_points": [math.nan]},
        {"cutoff_extra": 0},
        {"cutoff_extra": -3},
    ])
    def test_gap_refuses_empty_certificates(self, kwargs):
        args = {"sample_points": [0.3], "first_level": 4, "eps_grid": 2,
                "quad": d.QuadratureConfig(4), "cutoff_extra": 4, **kwargs}
        with pytest.raises(d.DomainError):
            d.theta_martingale_gap(KERNEL_FLEET["W2"], 0.5, 6, **args)

    @pytest.mark.parametrize("first_level", [0, -2])
    def test_gap_names_a_first_level_below_one(self, first_level):
        # level 0 used to fail on its eps grid, as "eps must lie in (0, 1)"
        with pytest.raises(d.DomainError, match="first_level"):
            d.theta_martingale_gap(KERNEL_FLEET["W2"], 0.5, 6, [0.3],
                                   first_level=first_level, eps_grid=2,
                                   quad=d.QuadratureConfig(4), cutoff_extra=4)

    @pytest.mark.parametrize("kwargs", [
        {"cutoff_extra": 0}, {"panels_per_octave": 0}])
    def test_tracking_domain(self, kwargs):
        from dyadosc.divdiff import tracking_martingale_value

        with pytest.raises(d.DomainError):
            tracking_martingale_value(KERNEL_FLEET["W2"], 0.5, d.locate(0.3, 4), **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"panels_per_octave": 0}, {"panels_per_octave": -2}])
    def test_quadrature_config_domain(self, kwargs):
        with pytest.raises(d.DomainError):
            d.QuadratureConfig(**kwargs)


class TestRowParallelValues:
    """Theta, the gap and the tracking values keep every bit on 1, 2 and 3
    kernel threads."""

    @staticmethod
    def _values(f):
        from dyadosc.divdiff import _tracking

        quad = d.QuadratureConfig(8)
        thetas = [d.theta(f, 0.5, x, eps, quad).value
                  for x in (0.1, 0.37, 0.93) for eps in (2.0 ** -4, 1e-5, 2.0 ** -40)]
        gaps = d.theta_martingale_gap(f, 0.5, 9, [0.21, 0.64], first_level=5, eps_grid=2,
                                      quad=quad, cutoff_extra=8).gaps
        intervals = [d.locate(x, n) for x in SHARED_POINTS for n in (3, 7, 10)]
        tracking = list(_tracking(f, 0.5, intervals, 8, quad).values())
        return [float(v).hex() for v in (*thetas, *gaps, *tracking)]

    @pytest.mark.parametrize("name", ["W2", "W3"])
    def test_worker_count_keeps_the_bits(self, monkeypatch, name):
        from dyadosc import holder

        monkeypatch.setattr(holder, "_BLOCK_CELLS", 64)     # split every stacked call
        got = {}
        for count in (1, 2, 3):
            monkeypatch.setattr(holder, "_usable_cpus", lambda: count)
            got[count] = self._values(KERNEL_FLEET[name])
        assert got[2] == got[1] and got[3] == got[1]

    def test_three_workers_keep_the_cell_budget(self, monkeypatch):
        from dyadosc import holder

        monkeypatch.setattr(holder, "_usable_cpus", lambda: 3)
        W = d.WeierstrassFunction(2.0, 0.5)
        want = d.theta(W, 0.5, 0.3, 2.0 ** -1000, d.QuadratureConfig(64)).value
        tracemalloc.start()
        try:
            got = d.theta(W, 0.5, 0.3, 2.0 ** -1000, d.QuadratureConfig(64)).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the blocks of a call share one scratch table of at most 2,048 points
        assert peak < 16 * 2 ** 20
        assert float(got).hex() == float(want).hex()


class TestCountBudget:
    """Panel and sample counts whose arrays pass the sweep budget are refused
    before anything is allocated (these would ask for terabytes)."""

    def test_theta_panels(self, weier_half):
        with pytest.raises(d.DepthCapError, match="panels_per_octave"):
            d.theta(weier_half, 0.5, 0.3, 1e-3, d.QuadratureConfig(10 ** 12))

    def test_gap_panels(self, weier_half):
        with pytest.raises(d.DepthCapError, match="panels_per_octave"):
            d.theta_martingale_gap(weier_half, 0.5, 12, [0.3], first_level=6,
                                   quad=d.QuadratureConfig(10 ** 12))

    def test_tracking_panels(self, weier_half):
        from dyadosc.divdiff import tracking_martingale_value

        with pytest.raises(d.DepthCapError, match="panels_per_octave"):
            tracking_martingale_value(weier_half, 0.5, d.locate(0.3, 4),
                                      panels_per_octave=10 ** 12)

    def test_sigma_stats_samples(self, weier_half):
        with pytest.raises(d.DepthCapError, match="samples"):
            d.sigma_stats(weier_half, 0.5, 0.123, 2.0 ** -12, [0.1], [0.1],
                          samples=10 ** 11, seed=1)

    def test_the_phase_table_counts(self, weier_half):
        # 2^24 / 84 terms = 199,728 samples fit one W(2, 1/2) phase table;
        # the samples array alone would fit 2^24
        with pytest.raises(d.DepthCapError, match="samples"):
            d.sigma_stats(weier_half, 0.5, 0.123, 2.0 ** -12, [0.1], [0.1],
                          samples=199_729, seed=1)

    def test_the_budget_is_read_from_martingale(self, weier_half, monkeypatch):
        # divdiff once held an import-time copy of the budget: patched to 64
        # cells, the depth-7 mass sweep was refused and theta still ran
        from dyadosc import martingale

        monkeypatch.setattr(martingale, "SWEEP_CELL_BUDGET", 64)
        with pytest.raises(d.DepthCapError, match="panels_per_octave"):
            d.theta(weier_half, 0.5, 0.3, 2.0 ** -10, d.QuadratureConfig(16))
        with pytest.raises(d.DepthCapError, match="panels_per_octave"):
            d.theta_martingale_gap(weier_half, 0.5, 8, [0.3], first_level=6,
                                   quad=d.QuadratureConfig(16))
        with pytest.raises(d.DepthCapError, match="samples"):
            d.sigma_stats(weier_half, 0.5, 0.123, 2.0 ** -12, [0.1], [0.1],
                          samples=1000, seed=1)

    @pytest.mark.parametrize("panels", [2.5, "16", None])
    def test_panels_must_be_an_integer(self, panels):
        # 2.5 raised TypeError from np.linspace at the first theta
        with pytest.raises(d.DomainError, match="panels_per_octave"):
            d.QuadratureConfig(panels)

    def test_numpy_integer_panels(self):
        assert d.QuadratureConfig(np.int64(16)).panels_per_octave == 16
