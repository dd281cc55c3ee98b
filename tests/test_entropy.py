import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadosc as d
from dyadosc import entropy, martingale
from dyadosc.dyadic import DyadicInterval as DI
from oracles import level_set_family, mass_exact, sweep_mass_levels

mp.mp.dps = 40


def phi_highprec(eta) -> float:
    e = mp.mpf(eta)
    v = (1 + e) / 2 * mp.log(2 / (1 + e), 2) + (1 - e) / 2 * mp.log(2 / (1 - e), 2)
    return float(v)


def _sweep_reference(S, eta, depth):
    """The per-cell mass sweep that the distinct-jump kernel replaced: every
    ratio, bound check, log2 and jump code computed once per cell (it reads
    np.log2 where the kernel reads math.log2, which agree on these jumps).
    The audit is its own: each distinct sibling pair's exact ratios, built
    from Fractions here, must split the parent's mass exactly."""
    d.MassMeasure(S, eta)
    phi = d.entropy_phi(eta)
    eta_frac = Fraction(eta)
    log2_mass = np.zeros(1)
    worst_margin, worst_member, members = 0.0, d.unit_interval(), 1
    paired = sums_exact = True
    for n, incs, s_vals in S.levels(depth):
        paired = paired and bool(np.all(incs[0::2] == -incs[1::2]))
        ratios = (1.0 + eta * incs) / 2.0
        if np.any(ratios < -1e-12) or np.any(ratios > 1.0 + 1e-12):
            raise d.DomainError("increment bound violated during evaluation")
        with np.errstate(divide="ignore"):
            log2_mass = np.repeat(log2_mass, 2) + np.log2(np.maximum(ratios, 0.0))
        mask = s_vals >= eta * n - 1e-12
        count = int(np.count_nonzero(mask))
        if count:
            members += count
            margins = log2_mass[mask] + phi * n
            j = int(np.argmin(margins))
            if margins[j] < worst_margin:
                worst_margin = float(margins[j])
                worst_member = DI(n, int(np.nonzero(mask)[0][j]))
        siblings = np.unique(np.stack([incs[0::2], incs[1::2]], axis=1), axis=0)
        sums_exact = sums_exact and all(
            (1 + eta_frac * Fraction(a)) / 2 + (1 + eta_frac * Fraction(b)) / 2 == 1
            for a, b in siblings.tolist())
    return d.MassSweepReport(depth, eta, members, worst_margin, worst_member,
                             paired, sums_exact, phi)


def _report_key(rep):
    return (rep.depth, rep.eta, rep.members, rep.worst_log2_margin.hex(),
            rep.worst_member, rep.increments_paired, rep.level_sums_exact,
            rep.phi.hex())


class _Unpaired(d.Martingale):
    def _level_increments(self, n, parents):
        # siblings share a sign: +1 on indices 0, 1 mod 4
        return np.repeat(np.where(parents & 1, -1.0, 1.0), 2)


def _alternating():
    # jumps +1/-1 with the favored side alternating by level
    def inc(child):
        fav = 0 if child.level % 2 == 1 else 1
        return 1.0 if (child.index & 1) == fav else -1.0
    return d.Martingale(inc, star_bound=1.0, name="alternating")


def _block_discounted(schedule):
    B = d.BlockMartingale(schedule)
    return d.ScaledMartingale(B, -0.5, star_bound=0.5, name="block-discounted")


def _graded():
    """Paired jumps +-k/16 with k = 1 + (parent index mod 12): 24 distinct
    jumps from level 5 on, past the 8 whose codes come from comparisons."""
    def inc(child):
        left = (1 + (child.index >> 1) % 12) / 16.0
        return left if (child.index & 1) == 0 else -left
    return d.Martingale(inc, star_bound=1.0, name="graded")


def _balanced_unpaired():
    """Level-2 jumps [0.25, 0.0, -0.25, 0.0], every other jump 0: siblings
    do not cancel, so at eta 1/2 the two level-1 parents hand their
    children 1.0625 and 0.9375 of their mass.  Every level's masses still
    sum to exactly 1, but this is not a measure."""
    def inc(child):
        return (0.25, 0.0, -0.25, 0.0)[child.index] if child.level == 2 else 0.0
    return d.Martingale(inc, star_bound=1.0, name="balanced-unpaired")


class TestEntropyPhi:
    def test_endpoint_limits(self):
        assert d.entropy_phi(1e-12) == pytest.approx(1.0, abs=1e-9)
        assert d.entropy_phi(1.0 - 1e-12) == pytest.approx(0.0, abs=1e-9)
        assert d.entropy_phi(0.0) == 1.0
        assert d.entropy_phi(1.0) == 0.0

    def test_half_against_high_precision(self):
        assert d.entropy_phi(0.5) == pytest.approx(2.0 - 0.75 * math.log2(3.0),
                                                   abs=1e-12)
        assert d.entropy_phi(0.5) == pytest.approx(phi_highprec("0.5"), abs=1e-12)

    def test_cross_identity_on_grid(self):
        # Phi(eta) = 1 - [(1+eta)/2 log2(1+eta) + (1-eta)/2 log2(1-eta)]
        for eta in np.linspace(1e-3, 1.0 - 1e-3, 1000):
            other = 1.0 - ((1 + eta) / 2 * math.log2(1 + eta)
                           + (1 - eta) / 2 * math.log2(1 - eta))
            assert abs(d.entropy_phi(eta) - other) < 1e-12

    def test_strictly_decreasing_and_concave(self):
        grid = np.linspace(0.01, 0.99, 200)
        vals = np.array([d.entropy_phi(e) for e in grid])
        assert np.all(np.diff(vals) < 0)
        assert np.all(np.diff(vals, 2) < 0)

    def test_domain(self):
        with pytest.raises(d.DomainError):
            d.entropy_phi(1.5)


class TestProductLowerBound:
    def test_extremal_equality_exact(self):
        xs = d.extremal_configuration(4, Fraction(1, 2))
        prod = d.product_lower_bound_exact(xs, Fraction(1, 2))
        assert prod == Fraction(27, 256)
        assert prod == d.extremal_bound_exact(4, Fraction(1, 2))

    @pytest.mark.parametrize("n,eta", [(8, Fraction(1, 2)), (10, Fraction(3, 5)),
                                       (12, Fraction(1, 2))])
    def test_extremal_equality_family(self, n, eta):
        if (Fraction(n) * (1 + eta) / 2).denominator != 1:
            pytest.skip("threshold not integral")
        xs = d.extremal_configuration(n, eta)
        prod = d.product_lower_bound_exact(xs, eta)
        assert prod == d.extremal_bound_exact(n, eta)
        # and the float sides agree to 1e-12
        res = d.product_lower_bound([float(x) for x in xs], float(eta))
        assert res.product == pytest.approx(res.bound, rel=1e-12)

    def test_all_ones(self):
        res = d.product_lower_bound([1.0] * 9, 0.37)
        assert res.hypothesis_holds
        assert res.product == pytest.approx(((1 + 0.37) / 2) ** 9, rel=1e-12)
        assert res.product >= res.bound

    def test_hypothesis_not_satisfied_is_reported(self):
        res = d.product_lower_bound([-1.0, -1.0], 0.5)
        assert not res.hypothesis_holds

    @given(st.integers(1, 20), st.floats(0.05, 0.95),
           st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20),
           st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_random_feasible_instances(self, n, eta, base, blend):
        xs = (base * (n // len(base) + 1))[:n]
        # blend toward all-ones until the hypothesis holds
        s = sum(xs)
        target = eta * n
        if s < target:
            lam = (n - target) / (n - s)
            xs = [1.0 - lam * (1.0 - x) for x in xs]
        res = d.product_lower_bound(xs, eta)
        if res.hypothesis_holds:
            assert res.log2_margin >= -1e-9

    def test_domain_violation(self):
        with pytest.raises(d.DomainError):
            d.product_lower_bound([1.5], 0.5)


class TestEntropyRefusals:
    @pytest.mark.parametrize("call", [
        lambda: d.product_lower_bound([], 0.5),
        lambda: d.product_lower_bound([0.5], 1.0),
        lambda: d.product_lower_bound_exact([Fraction(3, 2)], Fraction(1, 2)),
        lambda: d.extremal_bound_exact(3, Fraction(1, 2)),
        # a NaN x_k passed |x_k| <= 1 (product nan), and the exact forms took
        # any eta: 3/2 from eta = 2, five ones for N = 4 at eta = 3/2
        lambda: d.product_lower_bound([0.5, math.nan], 0.5),
        lambda: d.product_lower_bound_exact([Fraction(1)], Fraction(2)),
        lambda: d.product_lower_bound_exact([Fraction(1)], Fraction(0)),
        lambda: d.extremal_configuration(4, Fraction(3, 2)),
        lambda: d.extremal_bound_exact(4, Fraction(-1, 2)),
        lambda: d.covering_content([DI(1, 0)], 1.5, 0.5),
        lambda: d.besicovitch_threshold(10, 1),
        lambda: d.besicovitch_count(-1, 0.5),
        lambda: d.dim_estimate([(20, 5), (0, 1)]),
        lambda: d.dim_estimate([(20, 0)]),
    ], ids=["no-x", "eta-1", "exact-x-above-1", "n0-not-integral", "x-nan", "exact-eta-2",
            "exact-eta-0", "extremal-eta-3/2", "extremal-eta-negative", "content-s-above-1",
            "threshold-eta-1", "count-negative-n", "estimate-n-0", "estimate-count-0"])
    def test_domain_error(self, call):
        with pytest.raises(d.DomainError):
            call()

    def test_underflowing_product_has_margin_minus_infinity(self):
        # 4^-600 = 2^-1200 underflows to 0.0
        res = d.product_lower_bound([-1.0] * 600, 0.5)
        assert res.product == 0.0 and res.log2_margin == -math.inf
        assert not res.hypothesis_holds

    def test_zero_ratio_has_log2_mass_minus_infinity(self):
        # jumps +-2 with no declared star bound: at eta = 1/2 the right
        # child's ratio (1 + eta * -2) / 2 is 0
        S = d.Martingale(lambda child: 2.0 if child.index % 2 == 0 else -2.0)
        mm = d.MassMeasure(S, 0.5)
        assert mm.mass_log2(DI(1, 1)) == -math.inf
        assert mm.mass_log2(DI(3, 6)) == -math.inf
        assert mm.mass_log2(DI(2, 0)) == 0.0


class TestMassMeasure:
    def test_uniform_for_zero_martingale(self):
        mm = d.MassMeasure(d.zero_martingale(), 0.7)
        for n in range(6):
            for j in range(1 << n):
                assert mass_exact(mm, DI(n, j)) == Fraction(1, 1 << n)

    def test_binary_closed_form(self):
        eta = Fraction(1, 2)
        mm = d.MassMeasure(d.binary_digit_martingale(), float(eta))
        for n in range(9):
            for j in range(1 << n):
                k = bin(j).count("1")
                expect = ((1 + eta) / 2) ** k * ((1 - eta) / 2) ** (n - k)
                assert mass_exact(mm, DI(n, j)) == expect

    def test_additivity_and_total_mass(self):
        mm = d.MassMeasure(d.RandomSignMartingale(3), 0.5)
        for n in range(7):
            total = sum(mass_exact(mm, DI(n, j)) for j in range(1 << n))
            assert total == 1
            for j in range(1 << n):
                kids = (mass_exact(mm, DI(n + 1, 2 * j))
                        + mass_exact(mm, DI(n + 1, 2 * j + 1)))
                assert kids == mass_exact(mm, DI(n, j))

    def test_star_bound_precondition(self):
        big = d.Martingale(lambda child: 2.0 if child.index % 2 == 0 else -2.0,
                           star_bound=2.0)
        with pytest.raises(d.DomainError):
            d.MassMeasure(big, 0.5)


class TestMassSweep:
    def test_binary_depth16(self):
        rep = d.sweep_mass_distribution(d.binary_digit_martingale(), 0.5, 16)
        assert rep.ok(1e-9)
        assert rep.members > 0

    @pytest.mark.parametrize("eta, members", [(0.25, 6668), (0.5, 58)])
    def test_uniform_jumps_depth16(self, eta, members):
        # jumps uniform on [-1, 1): not a relabelled binary martingale, so
        # the threshold family is not the binary one
        S = d.discount_transform(d.random_growth_martingale(0.5, 0))
        rep = d.sweep_mass_distribution(S, eta, 16)
        assert rep.members == members
        assert rep.ok(1e-9) and rep.increments_paired and rep.level_sums_exact

    def test_random_signs_relabel_the_binary_martingale(self):
        # each node's children get +1 and -1 in some order: every level has
        # the binary martingale's multiset of (S, mu)
        reps = [d.sweep_mass_distribution(S, 0.5, 16)
                for S in (d.RandomSignMartingale(3), d.binary_digit_martingale())]
        assert reps[0].members == reps[1].members == 4476
        assert reps[0].worst_log2_margin == reps[1].worst_log2_margin

    def test_zero_martingale_root_only(self):
        rep = d.sweep_mass_distribution(d.zero_martingale(), 0.5, 8)
        assert rep.members == 1
        assert rep.worst_member == d.unit_interval()
        assert rep.worst_log2_margin == 0.0

    def test_alternating_adversary_matches_hand_enumeration(self):
        # jumps +1/-1 with the favored side alternating by level
        def inc(child):
            fav = 0 if child.level % 2 == 1 else 1
            return 1.0 if (child.index & 1) == fav else -1.0

        S = d.Martingale(inc, star_bound=1.0, name="alternating")
        eta = 0.5
        rep = d.sweep_mass_distribution(S, eta, 6)
        # independent brute enumeration of the threshold family
        members = 1  # root
        for n in range(1, 7):
            for j in range(1 << n):
                val = sum(inc(DI(k, j >> (n - k))) for k in range(1, n + 1))
                if val >= eta * n - 1e-12:
                    members += 1
        assert rep.members == members
        assert rep.ok(1e-9)

    def test_block_discounted(self, block_schedule_half):
        B = d.BlockMartingale(block_schedule_half)
        S = d.Martingale(lambda ch: math.pow(2.0, -ch.level * 0.5) * B.increment(ch),
                         star_bound=0.5, name="block-discounted")
        rep = d.sweep_mass_distribution(S, 0.25, 14)
        assert rep.ok(1e-9)
        assert rep.increments_paired and rep.level_sums_exact


    def test_nonzero_start_refused_and_family_counted(self):
        # the sweep and the family used to sum from 0, not S_0: the sweep
        # reported 22 members where 113 intervals qualify
        S = d.ScaledMartingale(d.binary_digit_martingale(), 0.0, s0=5.0, star_bound=1.0)
        with pytest.raises(d.DomainError):
            d.sweep_mass_distribution(S, 0.5, 6)
        fam = level_set_family(S, 0.5, 6)
        ref = [DI(n, j) for n in range(1, 7) for j in range(1 << n)
               if S.value(DI(n, j)) >= 0.5 * n - 1e-12]
        assert len(ref) == 112 and fam == ref

    @pytest.mark.parametrize("eta, star_bound", [(0.0, 1.0), (1.0, 1.0), (0.5, 2.0)])
    def test_mass_measure_domain(self, eta, star_bound):
        S = d.Martingale(lambda ch: 1.0 if ch.index & 1 else -1.0, star_bound=star_bound)
        with pytest.raises(d.DomainError):
            d.sweep_mass_distribution(S, eta, 4)

    def test_int64_level_sums_at_depth_20(self):
        # unpaired unit jumps miss exact sums at level 1; paired ones are
        # exact at all 20 levels
        rep = d.sweep_mass_distribution(_Unpaired(None, star_bound=1.0), 0.5, 20)
        assert not rep.increments_paired and not rep.level_sums_exact
        rep = d.sweep_mass_distribution(d.binary_digit_martingale(), 0.5, 20)
        assert rep.increments_paired and rep.level_sums_exact and rep.ok()

    def test_ratio_off_by_1e_6_fails_the_audit(self, monkeypatch):
        # the sums are computed from the ratios in use: paired jumps alone
        # used to report them exact
        real = entropy._mass_ratio
        monkeypatch.setattr(entropy, "_mass_ratio", lambda eta, u: real(eta, u) + 1e-6)
        rep = d.sweep_mass_distribution(d.binary_digit_martingale(), 0.5, 8)
        assert rep.increments_paired
        assert not rep.level_sums_exact and not rep.ok()

    def test_sweep_budget_checked_before_any_level(self, monkeypatch):
        monkeypatch.setattr(martingale, "SWEEP_CELL_BUDGET", 1 << 6)
        S = d.binary_digit_martingale()
        assert d.sweep_mass_distribution(S, 0.5, 6).ok()
        S.level_increments = S._level_increments = \
            lambda n, *parents: pytest.fail("level built past the budget")
        with pytest.raises(d.DepthCapError):
            d.sweep_mass_distribution(S, 0.5, 7)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_sweep_needs_a_level(self, depth):
        # depth -1 gave a root-only report that passed
        with pytest.raises(d.DomainError, match="depth"):
            d.sweep_mass_distribution(d.binary_digit_martingale(), 0.5, depth)

    def test_nan_jump_is_a_domain_error(self):
        # NaN passed both one-sided bound checks and reached Fraction
        S = d.Martingale(lambda ch: math.nan, star_bound=1.0)
        with pytest.raises(d.DomainError):
            d.MassMeasure(S, 0.5).mass_log2(DI(1, 0))
        with pytest.raises(d.DomainError):
            d.sweep_mass_distribution(S, 0.5, 4)

    @pytest.mark.parametrize("u", [math.inf, -math.inf])
    def test_infinite_jump_is_a_domain_error(self, u):
        # refused before the exact ratio: Fraction(inf) raises OverflowError
        S = d.Martingale(lambda ch: u if ch.index & 1 == 0 else -u, star_bound=1.0)
        with pytest.raises(d.DomainError):
            d.MassMeasure(S, 0.5).ratio(DI(1, 0))
        with pytest.raises(d.DomainError):
            d.sweep_mass_distribution(S, 0.5, 4)

    def test_negative_ratio_is_a_domain_error(self):
        # a ratio in [-1e-12, 0) passed the bound check: the scalar log2
        # raised a bare ValueError, and the sweep took it as mass 0 with a
        # negative exact numerator and level sums still exact
        u, eta = -1.0 - 2e-12, 1.0 - 1e-12
        S = d.Martingale(lambda ch: u if ch.index & 1 == 0 else -u, star_bound=1.0)
        mm = d.MassMeasure(S, eta)
        assert 1.0 < mm.ratio(DI(1, 1)) <= 1.0 + 1e-12    # the upper slack stays
        with pytest.raises(d.DomainError):
            mm.ratio(DI(1, 0))
        with pytest.raises(d.DomainError):
            mm.mass_log2(DI(1, 0))
        with pytest.raises(d.DomainError):
            d.sweep_mass_distribution(S, eta, 4)


class TestMassSweepOracle:
    """The distinct-jump kernel against the per-cell sweep it replaced."""

    @pytest.mark.parametrize("seed", range(21))
    def test_random_sign(self, seed):
        S = d.RandomSignMartingale(seed)
        assert (_report_key(d.sweep_mass_distribution(S, 0.5, 12))
                == _report_key(_sweep_reference(S, 0.5, 12)))

    @pytest.mark.parametrize("name, eta, depth", [
        ("binary", 0.5, 14), ("zero", 0.5, 8), ("alternating", 0.5, 8),
        ("block-discounted", 0.25, 14), ("block-discounted", 0.7, 14),
        ("unpaired", 0.5, 20), ("graded", 0.6, 12), ("balanced-unpaired", 0.5, 8),
    ])
    def test_named_martingales(self, block_schedule_half, name, eta, depth):
        S = {"binary": d.binary_digit_martingale(), "zero": d.zero_martingale(),
             "alternating": _alternating(),
             "block-discounted": _block_discounted(block_schedule_half),
             "unpaired": _Unpaired(None, star_bound=1.0),
             "graded": _graded(), "balanced-unpaired": _balanced_unpaired()}[name]
        rep = d.sweep_mass_distribution(S, eta, depth)
        assert _report_key(rep) == _report_key(_sweep_reference(S, eta, depth))
        if name == "balanced-unpaired":
            # level totals of 1 do not make a measure: each parent's mass
            # must split exactly, and here neither level-1 parent's does
            assert not rep.increments_paired and not rep.level_sums_exact

    def test_graded_takes_the_big_integer_path(self):
        S = _graded()
        widths = [len(np.unique(incs)) for _, incs, _ in S.levels(8)]
        assert max(widths) == 24
        rep = d.sweep_mass_distribution(S, 0.6, 8)
        assert rep.increments_paired and rep.level_sums_exact

    # jumps +-61/4096 at eta 0.7: np.log2 and math.log2 differ on the ratio
    @pytest.mark.parametrize("S", [d.binary_digit_martingale(), _alternating(),
                                   _graded(), d.RandomSignMartingale(1, scale=61 / 4096)])
    def test_kernel_log2_masses_equal_the_scalar_oracle(self, S):
        mm = d.MassMeasure(S, 0.7)
        for n, lo, *_, log2_mass in entropy._mass_blocks(S, 0.7, 8):
            assert lo == 0
            assert log2_mass.tolist() == [mm.mass_log2(DI(n, j)) for j in range(1 << n)]

    def test_fraction_lut_built_once_per_jump_set(self, monkeypatch):
        # one exact ratio per distinct jump of the sweep, not per level or
        # per cell: one Fraction of the jump, one of eta
        calls = []
        real = entropy.Fraction

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(entropy, "Fraction", counting)
        for S, eta in ((d.RandomSignMartingale(4), 0.5),
                       (d.ScaledMartingale(d.RandomSignMartingale(4), -1.0,
                                           star_bound=1.0), 0.3),
                       (_graded(), 0.6)):
            calls.clear()
            rep = d.sweep_mass_distribution(S, eta, 12)
            assert rep.increments_paired and rep.level_sums_exact
            jumps = {u for _, incs, _ in S.levels(12) for u in incs.tolist()}
            assert len(calls) == 2 * len(jumps)
            assert sorted(a for a in calls if a != (eta,)) == sorted((u,) for u in jumps)


def _unique_codes(incs):
    """np.unique of the jumps and their intp positions in it."""
    uniq = np.unique(incs)
    if len(uniq) > entropy._COMPARE_WIDTH:
        return uniq, np.searchsorted(uniq, incs)
    codes = np.zeros(incs.shape, dtype=np.intp)
    for u in uniq[1:].tolist():
        codes += incs >= u
    return uniq, codes


def _mass_levels_unique(S, eta, depth):
    """The whole-level mass kernel before the sort-based jump set:
    np.unique, intp codes, and the parents' log2 masses repeated and
    added first."""
    d.MassMeasure(S, eta)
    log2_mass = np.zeros(1)
    for n, incs, s_vals in S.levels(depth):
        uniq, codes = _unique_codes(incs)
        ratios = [entropy._mass_ratio(float(eta), u) for u in uniq.tolist()]
        lg = np.array([math.log2(r) if r > 0.0 else -math.inf for r in ratios])
        log2_mass = np.repeat(log2_mass, 2) + lg[codes]
        yield n, incs, s_vals, uniq, codes, log2_mass


def _levels_from_blocks(blocks):
    """(n, incs, s_vals, log2_mass) per level, each array re-assembled from
    the level's blocks, which must tile it in index order."""
    parts = {}
    for n, lo, incs, s_vals, _, _, log2_mass in blocks:
        got = parts.setdefault(n, [])
        assert lo == sum(p[0].size for p in got)
        got.append((incs, s_vals, log2_mass))
    for n in sorted(parts):
        yield n, *(np.concatenate(cols) for cols in zip(*parts[n]))


def _signed_zeros():
    """Paired jumps 0.0, -0.0 and +-0.5 by parent index mod 3: both zeros
    on every level from 2 on."""
    def inc(child):
        left = (0.0, -0.0, 0.5)[(child.index >> 1) % 3]
        return left if (child.index & 1) == 0 else -left
    return d.Martingale(inc, star_bound=1.0, name="signed-zeros")


class TestLeanMassKernel:
    """The sort-based jump set and in-place log2 masses against the
    np.unique kernel they replaced, byte for byte."""

    @pytest.mark.parametrize("seed", range(6))
    def test_distinct_jumps_equal_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, np.inf, -np.inf,
                         np.nan, -np.nan, 2.0 ** -1074, 1e300])
        for size in (0, 1, 2, 3, 8, 64, 1000):
            for width in (1, 2, 4, len(pool)):
                incs = rng.choice(pool[rng.permutation(len(pool))[:width]], size=size)
                got, want = entropy._distinct_jumps(incs), np.unique(incs)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name, eta, depth", [
        ("binary", 0.5, 14), ("zero", 0.5, 8), ("random-sign", 0.5, 14),
        ("alternating", 0.5, 8), ("block-discounted", 0.25, 14),
        ("graded", 0.6, 10), ("balanced-unpaired", 0.5, 8), ("signed-zeros", 0.5, 10),
    ])
    def test_kernel_equals_np_unique_kernel(self, block_schedule_half, name, eta, depth):
        S = {"binary": d.binary_digit_martingale(), "zero": d.zero_martingale(),
             "random-sign": d.RandomSignMartingale(8), "alternating": _alternating(),
             "block-discounted": _block_discounted(block_schedule_half),
             "graded": _graded(), "balanced-unpaired": _balanced_unpaired(),
             "signed-zeros": _signed_zeros()}[name]
        # depth 14 takes level 14 in two blocks: each block's jump set and
        # codes are its own, and the levels re-assembled from the blocks
        # are the whole-level kernel's, byte for byte
        blocks = list(entropy._mass_blocks(S, eta, depth))
        assert len(blocks) == depth + (depth == 14)
        for _, _, incs, _, uniq, codes, _ in blocks:
            uniq0, codes0 = _unique_codes(incs)
            assert uniq.tobytes() == uniq0.tobytes()
            assert np.array_equal(codes, codes0)
        lean = list(_levels_from_blocks(blocks))
        ref = list(_mass_levels_unique(S, eta, depth))
        assert len(lean) == len(ref) == depth
        for (n, incs, vals, lg), (n0, incs0, vals0, _, _, lg0) in zip(lean, ref):
            assert n == n0 and incs.tobytes() == incs0.tobytes()
            assert vals.tobytes() == vals0.tobytes()
            assert lg.tobytes() == lg0.tobytes()

    def test_nan_jump_raises_as_before(self):
        S = d.Martingale(lambda ch: math.nan if ch.index == 3 else 0.0, star_bound=1.0)
        with pytest.raises(d.DomainError) as lean:
            list(entropy._mass_blocks(S, 0.5, 3))
        with pytest.raises(d.DomainError) as ref:
            list(_mass_levels_unique(S, 0.5, 3))
        assert str(lean.value) == str(ref.value)

    def test_sweep_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call, in every fresh process
        code = ("import sys\n"
                "import dyadosc as d\n"
                "for S in (d.binary_digit_martingale(), d.RandomSignMartingale(1),\n"
                "          d.ScaledMartingale(d.assemble_martingale(\n"
                "              d.build_schedule(0.5, 1, depth_cap=160)), -0.5,\n"
                "              star_bound=0.5)):\n"
                "    assert d.sweep_mass_distribution(S, 0.5, 10).ok()\n"
                "print('numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(d.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class _Tabled(d.Martingale):
    """A scalar fixture's jumps to level 18, read through its gate once
    into level tables: its oracle takes about a second over 2^19 cells."""

    def __init__(self, S):
        super().__init__(S.increment, star_bound=S.star_bound, name=S.name)
        self._tables = [None] + [S.level_increments(n) for n in range(1, 19)]

    def _level_increments(self, n, parents):
        return self._tables[n].reshape(-1, 2)[parents.astype(np.intp)].ravel()


@functools.cache
def _blocked_kind(name):
    schedule = d.build_schedule(0.5, 1, depth_cap=160)
    return {
        "random-sign": lambda: d.RandomSignMartingale(6),
        "binary": d.binary_digit_martingale,
        "zero": d.zero_martingale,
        "random-uniform": lambda: martingale._RandomUniformMartingale(2),
        "scaled": lambda: d.ScaledMartingale(d.RandomSignMartingale(7), -0.125,
                                             star_bound=1.0),
        "block-discounted": lambda: _block_discounted(schedule),
        "graded": lambda: _Tabled(_graded()),
        "alternating": lambda: _Tabled(_alternating()),
        "unpaired": lambda: _Unpaired(None, star_bound=1.0),
        "signed-zeros": lambda: _Tabled(_signed_zeros()),
    }[name]()


class TestBlockedMassSweep:
    """The depth-first sweep in blocks against the whole-level sweep of
    tests/oracles.py: one block per level to depth 13, split from 14 on."""

    # random-uniform takes depths 1, 12 and 14 alone: each of its 2^(depth - 1)
    # distinct jumps takes an exact ratio, about 65 s for the six sweeps at 18
    @pytest.mark.parametrize("name, depth", [
        (name, depth) for name in ("random-sign", "binary", "zero", "random-uniform",
                                   "scaled", "block-discounted", "graded",
                                   "alternating", "unpaired", "signed-zeros")
        for depth in (1, 12, 13, 14, 16, 18)
        if name != "random-uniform" or depth in (1, 12, 14)])
    def test_report_equals_the_whole_level_sweep(self, name, depth):
        # binary margins tie, so this pins the first worst member too
        S = _blocked_kind(name)
        for eta in (0.25, 0.5, 0.7):
            assert (_report_key(d.sweep_mass_distribution(S, eta, depth))
                    == _report_key(sweep_mass_levels(S, eta, depth)))

    def test_jump_past_the_bound_at_two_levels(self):
        # 3.0 in level 14's second block, -2.5 under it at level 16: both
        # sweeps name the level-14 jump
        class Spiked(d.Martingale):
            def _level_increments(self, n, parents):
                out = np.zeros(2 * parents.size)
                at = {14: ((1 << 13) + 7, 3.0), 16: ((1 << 15) + 1, -2.5)}.get(n)
                if at is not None:
                    out[2 * np.flatnonzero(parents == at[0] >> 1) + at[0] % 2] = at[1]
                return out

        S = Spiked(None, star_bound=1.0)
        with pytest.raises(d.DomainError) as blocked:
            d.sweep_mass_distribution(S, 0.5, 18)
        with pytest.raises(d.DomainError) as whole:
            sweep_mass_levels(S, 0.5, 18)
        assert str(blocked.value) == str(whole.value) and "3.0" in str(whole.value)

    def test_gate_reads_at_most_2_12_parents(self):
        # whole levels read 2^17 parents at level 18; each cell is still
        # read once, so a traced sweep counts 2^19 - 2 cells
        S = d.RandomSignMartingale(2)
        gate = S.level_increments
        sizes = []

        def counted(n, *parents):
            out = gate(n, *parents)
            sizes.append(out.size)
            return out

        S.level_increments = counted
        assert d.sweep_mass_distribution(S, 0.5, 18).ok()
        assert max(sizes) // 2 <= 1 << 12
        assert sum(sizes) == (1 << 19) - 2


class TestCoveringContent:
    def test_full_partition_content_one(self):
        fam = [DI(6, j) for j in range(64)]
        assert d.covering_content(fam, 1.0, 0.5) == pytest.approx(1.0)

    def test_small_exponent(self):
        fam = [DI(5, j) for j in range(32)]
        assert d.covering_content(fam, 0.5, 1.0) == pytest.approx(2 ** (5 * 0.5))

    def test_maximal_selection(self):
        fam = [DI(2, 1), DI(3, 2), DI(3, 3), DI(4, 5)]
        # the level-3 members and [5/16, 6/16) all sit inside [1/4, 1/2)
        assert d.covering_content(fam, 1.0, 0.5) == pytest.approx(0.25)

    def test_level_set_content_bounded_by_total_mass(self):
        S = d.binary_digit_martingale()
        eta = 0.5
        fam = level_set_family(S, eta, 14)
        content = d.covering_content(fam, d.entropy_phi(eta), 1.0)
        assert content <= 1.0 + 1e-9


class TestBesicovitch:
    def test_count_20(self):
        assert d.besicovitch_count(20, Fraction(1, 2)) == 21700

    def test_count_4(self):
        assert d.besicovitch_count(4, Fraction(1, 2)) == 5

    def test_threshold_at_top(self):
        for N in (5, 9, 16):
            eta = Fraction(N - 1, N)  # forces k >= N
            assert d.besicovitch_count(N, eta) == 1

    @pytest.mark.parametrize("eta", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                                     Fraction(3, 4), Fraction(7, 8)])
    def test_brute_force_agreement(self, eta):
        for N in range(21):
            assert (d.besicovitch_count(N, eta)
                    == d.besicovitch_count_bruteforce(N, eta))

    @pytest.mark.parametrize("eta", [Fraction(1, 1000), Fraction(1, 4), Fraction(1, 3),
                                     Fraction(1, 2), Fraction(3, 4), Fraction(999, 1000)])
    def test_recurrence_equals_binomial_sums(self, eta):
        for N in list(range(201)) + [2000]:
            kmin = d.besicovitch_threshold(N, eta)
            assert (d.besicovitch_count(N, eta)
                    == sum(math.comb(N, k) for k in range(kmin, N + 1)))

    @pytest.mark.parametrize("eta", [Fraction(1, 1000), Fraction(1, 3), Fraction(1, 2),
                                     Fraction(3, 5), Fraction(999, 1000), 0.1])
    def test_threshold_is_the_ceiling(self, eta):
        # the two-branch form it replaced: the ceiling, or the exact integer
        for N in range(300):
            kmin = Fraction(N) * (1 + Fraction(eta)) / 2
            want = int(math.ceil(kmin)) if kmin.denominator != 1 else int(kmin)
            got = d.besicovitch_threshold(N, eta)
            assert type(got) is int and got == want

    def test_caps(self):
        with pytest.raises(d.DomainError):
            d.besicovitch_count(20_000, Fraction(1, 2))

    def test_bruteforce_behind_the_sweep_budget(self):
        # 2^25 addresses exceed the cell budget: refused before any array
        tracemalloc.start()
        try:
            with pytest.raises(d.DepthCapError):
                d.besicovitch_count_bruteforce(25, Fraction(1, 2))
            _, refused = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert d.besicovitch_count_bruteforce(16, Fraction(1, 2)) == 2517
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert refused < 1 << 20
        # the addresses and their uint8 digit counts, no wider copy
        assert peak < 12 << 16
        with pytest.raises(d.DomainError):
            d.besicovitch_count_bruteforce(-1, Fraction(1, 2))


    def test_bruteforce_keeps_its_own_threshold(self, monkeypatch):
        # the oracle must not read the threshold of the count it checks
        monkeypatch.setattr(entropy, "besicovitch_threshold",
                            lambda N, eta: pytest.fail("read besicovitch_threshold"))
        assert d.besicovitch_count_bruteforce(20, Fraction(1, 2)) == 21700
        assert d.besicovitch_count_bruteforce(10, Fraction(9, 10)) == 1
        for eta in (0, 1, Fraction(3, 2), -0.5):
            with pytest.raises(d.DomainError):
                d.besicovitch_count_bruteforce(4, eta)


class TestDimEstimate:
    def test_single_values(self):
        assert d.dim_estimate([(20, 21700)])[0] == pytest.approx(0.7203, abs=5e-5)
        assert d.dim_estimate([(12, 1 << 12)])[0] == 1.0

    def test_monotone_toward_phi(self):
        eta = Fraction(1, 2)
        counts = [(N, d.besicovitch_count(N, eta)) for N in (20, 100, 500, 2000)]
        ests = d.dim_estimate(counts)
        assert all(a < b for a, b in zip(ests, ests[1:]))
        assert ests[-1] == pytest.approx(d.entropy_phi(0.5), abs=0.02)

    def test_huge_counts_log(self):
        c = d.besicovitch_count(2000, Fraction(1, 2))
        est = d.dim_estimate([(2000, c)])[0]
        assert 0.80 < est < d.entropy_phi(0.5)
