import json
import math
import random
from bisect import bisect_right
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import dyadosc as d
from dyadosc import blocks, cli
from dyadosc.dyadic import DyadicInterval as DI
from dyadosc.dyadic import DyadicRational as DR
from oracles import check_members, coverage_identities, witness_survey_loop

mp.mp.dps = 50


class TestMOfDelta:
    def test_spec_values(self):
        assert d.m_of_delta(Fraction(1, 8), 0.5) == 5
        assert d.m_of_delta(Fraction(1, 4), 0.5) == 3

    def test_sandwich_instances(self):
        M = d.m_of_delta(Fraction(1, 8), 0.5)
        v = 2.0 ** (M * 0.5) / 8.0
        assert 0.5 <= v <= 2.0 ** -0.5 + 1e-12

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    def test_sandwich_sweep(self, beta):
        for j in range(21):
            delta = d.delta_j(j)
            M = d.m_of_delta(delta, beta)
            v = 2.0 ** (M * (1 - beta)) * float(delta)
            assert 0.5 - 1e-12 <= v <= 2.0 ** -beta + 1e-12

    def test_domain(self):
        with pytest.raises(d.DomainError):
            d.m_of_delta(Fraction(3, 4), 0.5)

    def test_float_path(self):
        # delta = 0.1 is no power of two, so the depth comes from floats:
        # log(1/0.2) / (0.5 log 2) = 4.64
        assert d.m_of_delta(0.1, 0.5) == 5
        assert 0.5 <= 2.0 ** (5 * 0.5) * 0.1 <= 2.0 ** -0.5

    @pytest.mark.parametrize("delta", [1e-310, 5e-324, Fraction(3, 2 ** 1100), 3e-309],
                             ids=["inf-quotient", "least-subnormal", "float-zero",
                                  "sandwich-overflow"])
    def test_past_the_float_range(self, delta):
        # these raised OverflowError (an infinite 1/(2 delta), or the
        # sandwich's power at 1/(2 delta) = 1.7e308) or ZeroDivisionError
        with pytest.raises(d.DepthCapError, match="delta="):
            d.m_of_delta(delta, 0.5)

    def test_building_block_past_the_float_range(self):
        with pytest.raises(d.DepthCapError, match="delta="):
            d.building_block(1e-310, DI(0, 0), 0.5)

    def test_float_range_edge_kept(self):
        assert d.m_of_delta(1e-308, 0.5) == 2045
        assert d.m_of_delta(1e-300, 0.5) == 1992


class TestBlockRefusals:
    @pytest.mark.parametrize("call", [
        lambda: d.m_of_delta(Fraction(1, 8), 1.0),
        lambda: d.delta_j(-1),
        lambda: d.build_schedule(1.0, 1),
        lambda: d.build_schedule(0.5, 0),
    ], ids=["depth-beta-1", "negative-stage", "schedule-beta-1", "no-stage"])
    def test_domain_error(self, call):
        with pytest.raises(d.DomainError):
            call()

    @pytest.mark.parametrize("delta, M, message", [
        (3.0, 3, "partial sup bound fails at t=1"),
        (-0.25, 3, "partial floor fails at t=1"),
        # no ladder below M < 1, so only the whole block's sup is checked
        (-100.0, -1, "block sup bound fails"),
    ])
    def test_verify_names_the_failing_bound(self, delta, M, message):
        with pytest.raises(d.DomainError, match=message):
            d.BuildingBlock(delta, d.unit_interval(), 0.5, M).verify()


class TestBuildingBlock:
    @pytest.mark.parametrize("J", [DI(2, 9), DI(2, 4), DI(0, 1), DI(2, -1)])
    def test_block_inside_the_unit_interval(self, J):
        with pytest.raises(d.DomainError, match="outside the unit interval"):
            d.building_block(Fraction(1, 8), J, 0.5)

    def test_closed_form_values(self):
        blk = d.building_block(Fraction(1, 8), d.unit_interval(), 0.5)
        assert blk.M == 5
        assert blk.peak == pytest.approx(31.0 / 8.0)
        assert blk.trough == pytest.approx(-1.0 / 8.0)

    def test_integral_zero_exact(self):
        for j in range(5):
            blk = d.building_block(d.delta_j(j), DI(3, 5), 0.4)
            assert blk.integral_unit() == 0

    def test_scaled_sup_instance(self):
        blk = d.building_block(Fraction(1, 8), d.unit_interval(), 0.5)
        assert 2.0 ** -2.5 * blk.peak <= 2.0 ** 0.5

    @pytest.mark.parametrize("level, beta", [(1200, 0.9), (2046, 0.5)])
    def test_amplitude_or_peak_past_the_float_range(self, level, beta):
        # delta 2^(level beta) overflowed in math.pow; at level 2046 the
        # amplitude is finite and the peak inf, which failed the sup bound
        with pytest.raises(d.DepthCapError, match=f"level {level} leaves the float range"):
            d.building_block(Fraction(1, 8), DI(level, 0), beta)

    def test_partial_bounds(self):
        blk = d.building_block(Fraction(1, 16), DI(2, 1), 0.6)
        bound = 2.0 ** (1 - 0.6)
        for t in range(1, blk.M + 1):
            assert blk.partial_sup_scaled(t) <= bound + 1e-12
            assert blk.partial_inf_scaled(t) >= -float(Fraction(1, 16)) - 1e-12


class TestNOfJ:
    def test_against_high_precision(self):
        for j in range(8):
            for beta in (0.25, 0.5, 0.75):
                M = d.m_of_delta(d.delta_j(j), beta)
                hp = mp.log(mp.mpf(1) / (1 << (j + 2))) / mp.log(1 - mp.mpf(2) ** -M)
                expect = int(mp.floor(hp)) + 1
                got = d.n_of_j(j, beta)
                assert abs(got - expect) <= 1  # float-boundary nudge only

    def test_designed_property_exact_small(self):
        for j in range(5):
            for beta in (0.25, 0.5, 0.75):
                M = d.m_of_delta(d.delta_j(j), beta)
                n = d.n_of_j(j, beta)
                if n * M > 200_000:
                    continue  # exact power would be astronomically wide
                assert (1 - Fraction(1, 1 << M)) ** n <= d.delta_j(j)

    def test_designed_property_highprec_large(self):
        for j in range(5, 13):
            for beta in (0.25, 0.5, 0.75):
                M = d.m_of_delta(d.delta_j(j), beta)
                n = d.n_of_j(j, beta)
                lhs = n * mp.log(1 - mp.mpf(2) ** -M)
                assert lhs <= mp.log(mp.mpf(d.delta_j(j).numerator)
                                     / d.delta_j(j).denominator)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    def test_growth_envelope(self, beta):
        # n_j grows like j * 2^(M_j); bracketed by j 2^j and 64 j 2^(j/(1-beta))
        for j in range(4, 13):
            n = d.n_of_j(j, beta)
            assert n >= j * (1 << j)
            assert n <= 64 * j * 2.0 ** (j / (1.0 - beta))

    def test_positive(self):
        for j in range(13):
            assert d.n_of_j(j, 0.5) >= 1

    def test_past_the_float_range(self, tmp_path):
        # the count 2^M ln(1/delta_j) leaves the float range once M reaches
        # about 1024, and 2^-M underflows to 0 past M = 1074
        for j, beta in ((0, 0.99905), (0, 0.9995), (1, 0.999)):
            with pytest.raises(d.DepthCapError, match=f"stage {j}"):
                d.n_of_j(j, beta)
        for beta in (0.99905, 0.9995):
            with pytest.raises(d.DepthCapError):
                d.build_schedule(beta, 1)
        assert cli.main(["schedule", "--beta", "0.9995", "--stages", "1",
                         "--out", str(tmp_path)]) == 4

    def test_unchanged_inside_the_float_range(self):
        betas = [*np.linspace(0.05, 0.999, 40),
                 *(1 - 1 / x for x in (1000.5, 1021.5, 1022.5))]
        depths = set()
        for beta in betas:
            for j in range(4):
                M = d.m_of_delta(d.delta_j(j), beta)
                if M >= 1024:
                    continue
                depths.add(M)
                try:
                    want = _n_of_j_reference(j, beta)
                except OverflowError:       # a count past the float range
                    with pytest.raises(d.DepthCapError):
                        d.n_of_j(j, beta)
                    continue
                assert d.n_of_j(j, beta) == want, (j, beta)
        assert {1001, 1022, 1023} <= depths


def _n_of_j_reference(j, beta):
    """n_of_j before it checked the float range, verbatim."""
    dj = d.delta_j(j)
    M = d.m_of_delta(dj, beta)
    log_ratio = math.log(float(dj)) / math.log1p(-math.ldexp(1.0, -M))
    n = int(math.floor(log_ratio)) + 1
    while n * math.log1p(-math.ldexp(1.0, -M)) > math.log(float(dj)):
        n += 1
    return n


class TestBuildSchedule:
    def test_k00_zero(self, block_schedule_half):
        assert block_schedule_half.placements[0].level == 0

    def test_gap_inequalities_reverified(self, block_schedule_half):
        sched = block_schedule_half
        for p in sched.placements:
            # each chosen k discounts the stored norm below delta/2
            assert (2.0 ** (-p.level * sched.beta) * p.norm_before
                    <= p.delta / 2.0 + 1e-12)

    def test_minimality_of_levels(self, block_schedule_half):
        sched = block_schedule_half
        prev_end = 0
        for p in sched.placements:
            if p.level > prev_end:
                assert (2.0 ** (-(p.level - 1) * sched.beta) * p.norm_before
                        > p.delta / 2.0)
            prev_end = p.level + p.M

    def test_interleaving_chain(self, block_schedule_half):
        placements = block_schedule_half.placements
        for prev, cur in zip(placements, placements[1:]):
            assert prev.level + prev.M <= cur.level

    def test_stage0_actual_levels(self, block_schedule_half):
        # recorded run: twelve rounds at spacing eight, finishing at 91
        ks = [p.level for p in block_schedule_half.stage_placements(0)]
        assert ks == [8 * i for i in range(12)]
        assert block_schedule_half.stage_placements(0)[-1].end == 91

    def test_depth_cap_before_stage0(self):
        with pytest.raises(d.DepthCapError):
            d.build_schedule(0.5, 1, depth_cap=32)

    def test_negative_depth_cap_is_a_domain_error(self):
        # a cap of 0 is too small, a cap of -1 is no cap at all
        with pytest.raises(d.DomainError, match="depth_cap"):
            d.build_schedule(0.5, 1, depth_cap=-1)
        with pytest.raises(d.DepthCapError):
            d.build_schedule(0.5, 1, depth_cap=0)

    @pytest.mark.parametrize("beta", [0.3, 0.4, 0.6, 0.7])
    def test_block_depth_one_short_is_refused(self, monkeypatch, beta):
        # M - 1 fails the deep-piece bound (1/2)(1 - 2^-M) at stage 0; at
        # beta 1/2 it meets the sandwich's lower end with equality,
        # 2^((M - 1)/2) delta_j = 1/2, and the bound with it
        real = blocks.m_of_delta
        monkeypatch.setattr(blocks, "m_of_delta", lambda delta, b: real(delta, b) - 1)
        with pytest.raises(d.DomainError, match="deep-piece lower bound fails"):
            d.build_schedule(beta, 2, depth_cap=1024)
        sched = d.build_schedule(0.5, 2, depth_cap=1024)
        assert [st.M for st in sched.stages] == [real(d.delta_j(j), 0.5) - 1 for j in (0, 1)]

    def test_truncation_keeps_prefix(self):
        sched = d.build_schedule(0.5, 2, depth_cap=200)
        assert sched.truncated
        assert sched.stages[0].complete
        assert not sched.stages[1].complete


def _build_schedule_reference(beta, stages, depth_cap):
    """The schedule loop before it truncated on float overflow, verbatim:
    the oracle wherever that loop finished."""
    from dyadosc.blocks import (BlockSchedule, Placement, StageRecord, delta_j,
                                m_of_delta, n_of_j)
    beta_f = float(beta)
    placements = []
    stage_records = []
    sup_levels = [0.0]
    inf_levels = [0.0]
    cur_sup, cur_inf = 0.0, 0.0
    prev_end = 0
    truncated = False
    for j in range(stages):
        d_ = float(delta_j(j))
        M = m_of_delta(delta_j(j), beta_f)
        n_j = n_of_j(j, beta_f)
        placed = 0
        for n in range(n_j + 1):
            norm = max(cur_sup, -cur_inf)
            if norm == 0.0:
                k = prev_end
            else:
                k = max(prev_end,
                        math.ceil(math.log2(2.0 * norm / d_) / beta_f))
                while math.pow(2.0, -k * beta_f) * norm > d_ / 2.0:
                    k += 1
            if k + M > depth_cap:
                truncated = True
                break
            amp = d_ * math.pow(2.0, k * beta_f)
            while len(sup_levels) <= k:
                sup_levels.append(cur_sup)
                inf_levels.append(cur_inf)
            for t in range(1, M + 1):
                sup_levels.append(cur_sup + amp * (math.ldexp(1.0, t) - 1.0))
                inf_levels.append(cur_inf - amp)
            norm_before = norm
            cur_sup = cur_sup + amp * (math.ldexp(1.0, M) - 1.0)
            cur_inf = cur_inf - amp
            placements.append(Placement(j, n, k, M, d_, amp, norm_before,
                                        max(cur_sup, -cur_inf)))
            prev_end = k + M
            placed += 1
        complete = placed == n_j + 1
        stage_records.append(StageRecord(j, d_, M, n_j, complete))
        if truncated:
            if j == 0 and not complete:
                raise d.DepthCapError(
                    f"depth cap {depth_cap} too small to finish stage 0")
            break
    end_level = len(sup_levels) - 1
    return BlockSchedule(beta_f, placements, stage_records,
                         np.array(sup_levels), np.array(inf_levels),
                         end_level, depth_cap, truncated)


class TestScheduleFloatRange:
    @pytest.mark.parametrize("cap", [4096, 2048])
    def test_overflow_truncates_cleanly(self, cap):
        # amplitudes delta 2^(k beta) leave the float range near level 1460,
        # before these caps: the next round's log2 was an OverflowError
        sched = d.build_schedule(0.7, 3, depth_cap=cap)
        assert sched.truncated and sched.end_level == 1464
        assert sched.stages[0].complete and not sched.stages[1].complete
        assert np.all(np.isfinite(sched.growth_norm_profile()))

    @pytest.mark.parametrize("cap", [160, 1024, 1400])
    @pytest.mark.parametrize("stages", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_schedules_inside_the_range_unchanged(self, beta, stages, cap):
        try:
            ref = _build_schedule_reference(beta, stages, cap)
        except d.DepthCapError:
            with pytest.raises(d.DepthCapError):
                d.build_schedule(beta, stages, depth_cap=cap)
            return
        sched = d.build_schedule(beta, stages, depth_cap=cap)
        assert sched.to_dict() == ref.to_dict()
        assert sched.sup_at.tobytes() == ref.sup_at.tobytes()
        assert sched.inf_at.tobytes() == ref.inf_at.tobytes()


def _to_dict_reference(sched):
    """`BlockSchedule.to_dict` as it listed the fields by hand."""
    return {
        "beta": sched.beta,
        "end_level": sched.end_level,
        "depth_cap": sched.depth_cap,
        "truncated": sched.truncated,
        "stages": [{"stage": s.stage, "delta": s.delta, "M": s.M, "rounds": s.rounds,
                    "complete": s.complete} for s in sched.stages],
        "placements": [{"stage": p.stage, "round": p.round, "level": p.level, "M": p.M,
                        "delta": p.delta, "norm_before": p.norm_before,
                        "norm_after": p.norm_after} for p in sched.placements],
    }


def test_schedule_record_matches_hand_listed_fields():
    seen = set()
    for beta in (0.3, 0.5, 0.7):
        for stages in (1, 3):
            sched = d.build_schedule(beta, stages, depth_cap=1024)
            seen.add(sched.truncated)
            got, want = sched.to_dict(), _to_dict_reference(sched)
            assert got == want
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert seen == {False, True}


def _value_reference(S, I):
    """`BlockMartingale.value` as it read the placement objects."""
    total = 0.0
    for p in S.schedule.placements:
        if p.level >= I.level:
            break
        t = min(I.level, p.end) - p.level
        bits = (I.index >> (I.level - p.level - t)) & ((1 << t) - 1)
        total += p.amplitude * ((math.ldexp(1.0, t) - 1.0) if bits == 0 else -1.0)
    return total


def _values_reference(S, level, index):
    """`value` per entry, vectorized over (level, index) as the placement
    loop that read the placement objects."""
    total = np.zeros(level.shape)
    u = np.uint64
    for p in S.schedule.placements:
        on = p.level < level
        if not on.any():
            break
        lv = level[on]
        t = np.minimum(lv, p.end) - p.level
        bits = (index[on] >> (lv - p.level - t).astype(u)) & ((u(1) << t.astype(u)) - u(1))
        total[on] += np.where(bits == 0, p.amplitude * (np.ldexp(1.0, t) - 1.0),
                              -p.amplitude)
    return total


def _window_intervals(S, rng, max_level):
    """Random intervals to `max_level`, plus, for every placement, cells on
    and just off the spine at each level of its window and one past it."""
    out = [(0, 0)]
    for _ in range(3000):
        lvl = rng.randint(1, max_level)
        out.append((lvl, rng.getrandbits(lvl)))
    for p in S.schedule.placements:
        for lvl in range(p.level + 1, min(p.end + 1, max_level) + 1):
            q = rng.getrandbits(p.level) << (lvl - p.level)
            out += [(lvl, q), (lvl, q + 1), (lvl, q | 1 << (lvl - p.level - 1))]
    return out


class TestPlacementTableOracle:
    """`value` and the S(anc) of `pair_primitives` read the window table,
    with the arithmetic of the placement-object loops they replaced."""

    def test_value_bit_identical(self, block_martingale_half):
        S = block_martingale_half
        cells = _window_intervals(S, random.Random(8), 935)
        got = [S.value(DI(lvl, idx)) for lvl, idx in cells]
        want = [_value_reference(S, DI(lvl, idx)) for lvl, idx in cells]
        assert len(cells) > 3000
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_values_bit_identical(self, block_martingale_half):
        # S(anc) of `pair_primitives`, the array form of `value`: the pair
        # (lvl, idx) 2^(53 - lvl) plus 0 and all ones below has that ancestor
        S = block_martingale_half
        cells = _window_intervals(S, random.Random(9), 53)
        level = np.array([lvl for lvl, _ in cells])
        index = np.array([idx for _, idx in cells], dtype=np.uint64)
        ia = index << (53 - level).astype(np.uint64)
        ib = ia | ((np.uint64(1) << (53 - level).astype(np.uint64)) - np.uint64(1))
        got = S.pair_primitives(ia, ib, 53)[0]
        assert len(cells) > 3000
        assert got.tobytes() == _values_reference(S, level, index).tobytes()
        assert got.tobytes() == np.array([S.value(DI(lvl, idx)) for lvl, idx in cells]).tobytes()


class TestAssembledMartingale:
    def test_early_levels_match_block_partials(self, block_schedule_half,
                                               block_martingale_half):
        # below M(delta_0) the martingale is exactly the prefix ladder of
        # the root block: peak on the spine, trough everywhere else
        S = block_martingale_half
        blk = d.building_block(Fraction(1, 4), d.unit_interval(), 0.5)
        for t in range(1, blk.M + 1):
            vals = S.level_values(t)
            expect = np.full(1 << t, -blk.amplitude)
            expect[0] = blk.amplitude * ((1 << t) - 1)
            assert np.array_equal(vals, expect)

    def test_stopped_between_placements(self, block_schedule_half,
                                        block_martingale_half):
        S = block_martingale_half
        p0 = block_schedule_half.placements[0]
        p1 = block_schedule_half.placements[1]
        for lvl in range(p0.end, p1.level + 1):
            vals = S.level_values(lvl)
            ref = np.repeat(S.level_values(p0.end), 1 << (lvl - p0.end))
            assert np.array_equal(vals, ref)

    def test_growth_bound_all_levels(self, block_schedule_half):
        prof = block_schedule_half.growth_norm_profile()
        assert np.all(prof <= 2.0 ** 0.5 + 1e-9)

    def test_stagewise_floor(self, block_schedule_half):
        sched = block_schedule_half
        fp = sched.floor_profile()
        for rec in sched.stages:
            start = sched.stage_floor_start(rec.stage)
            nxt = (sched.stage_floor_start(rec.stage + 1)
                   if rec.stage + 1 < len(sched.stages) else None)
            hi = len(fp) if nxt is None else nxt
            assert fp[start:hi].min() >= -3.0 * rec.delta - 1e-9

    def test_cancellation_deep(self, block_martingale_half):
        rep = d.check_cancellation(block_martingale_half, 24)
        assert rep.max_violation == 0.0

    def test_value_matches_increment_walk_deep(self, block_martingale_half):
        S = block_martingale_half
        rng = random.Random(2)
        for _ in range(50):
            lvl = rng.randint(1, 400)
            idx = rng.getrandbits(lvl)
            I = DI(lvl, idx)
            walked = 0.0
            for k in range(1, lvl + 1):
                walked += S.increment(I.ancestor(k))
            assert S.value(I) == pytest.approx(walked, rel=1e-11, abs=1e-300)


def _floor_rows_reference(sched):
    """Criterion 5's inline stagewise floors: per stage, the least scaled
    floor from the end of its first round to the end of the next stage's."""
    fp = sched.floor_profile()
    rows = []
    for rec in sched.stages:
        start = sched.stage_floor_start(rec.stage)
        nxt = (sched.stage_floor_start(rec.stage + 1)
               if rec.stage + 1 < len(sched.stages) else None)
        hi = len(fp) if nxt is None else nxt
        rows.append((rec.stage, start, float(fp[start:hi].min()), -3.0 * rec.delta))
    return rows


class TestScheduleVerdicts:
    """`growth_ok` and `floor_rows`, the one definition the CLI reads."""

    @pytest.mark.parametrize("stages", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.3, 0.4, 0.5, 0.6, 0.7])
    def test_floor_rows_match_criterion_5(self, beta, stages):
        sched = d.build_schedule(beta, stages, depth_cap=1024)
        rows = sched.floor_rows()
        assert rows == _floor_rows_reference(sched)
        assert all(least >= floor - 1e-9 for *_, least, floor in rows)

    @pytest.mark.parametrize("stages", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.3, 0.4, 0.5, 0.6, 0.7])
    def test_growth_ok_agrees_with_the_looser_slack(self, beta, stages):
        # the counterexample used to allow 1e-9 over 2^(1-beta); every
        # schedule here clears the bound by far more than either slack
        sched = d.build_schedule(beta, stages, depth_cap=1024)
        prof = sched.growth_norm_profile()
        assert sched.growth_ok() is True
        assert bool(np.all(prof <= 2.0 ** (1.0 - beta) + 1e-9)) is True
        assert 2.0 ** (1.0 - beta) - prof.max() > 0.5

    def test_growth_ok_slack_is_1e_12(self, monkeypatch):
        sched = d.build_schedule(0.5, 1, depth_cap=256)
        prof = sched.growth_norm_profile()
        bound = math.pow(2.0, 0.5) + 1e-12
        for last, ok in ((bound, True), (np.nextafter(bound, np.inf), False)):
            monkeypatch.setattr(d.BlockSchedule, "growth_norm_profile",
                                lambda self, last=last: np.append(prof, last))
            assert sched.growth_ok() is ok


def _level_values_reference(S, n, lo, hi):
    """The placement loop that `level_values_range` replaced: the closed
    form on every level-n index, with no reuse across levels."""
    idx = np.arange(lo, hi, dtype=np.uint64)
    total = np.zeros(idx.shape, dtype=float)
    for p in S.schedule.placements:
        if p.level >= n:
            break
        t = min(n, p.end) - p.level
        bits = (idx >> np.uint64(n - p.level - t)) & np.uint64((1 << t) - 1)
        total += np.where(bits == 0, p.amplitude * (math.ldexp(1.0, t) - 1.0),
                          -p.amplitude)
    return total


class TestLevelValuesAtDeepestLiveLevel:
    """Values past a window read at the window's end, against the loop."""

    def _check(self, S, n, lo, hi):
        vals = S.level_values_range(n, lo, hi)
        ref = _level_values_reference(S, n, lo, hi)
        assert vals.tobytes() == ref.tobytes()
        assert vals.tolist() == [S.value(DI(n, j)) for j in range(lo, hi)]

    def test_inside_and_past_windows(self, block_martingale_half):
        S = block_martingale_half
        p0, p1 = S.schedule.placements[:2]
        for n in range(0, p1.end + 3):
            self._check(S, n, 0, 1 << min(n, 12))
            self._check(S, n, (1 << n) - min(1 << n, 300), 1 << n)

    def test_unaligned_ranges(self, block_martingale_half):
        S = block_martingale_half
        for p in S.schedule.placements[:3]:
            e = p.end
            self._check(S, e + 3, 3, 13)
            self._check(S, e + 3, 5, 6)
            self._check(S, e + 2, 1, 4)
            self._check(S, e + 5, 31, 97)

    def test_range_inside_one_coarse_cell(self, block_martingale_half):
        S = block_martingale_half
        # level 7 reads level 3 (windows (0, 3] and (8, 11]): cell 1 is 16..31
        self._check(S, 7, 17, 30)
        self._check(S, 7, 16, 32)
        self._check(S, 7, 20, 20)
        # level 62 reads level 59 (window (56, 59]): cell k is 8k..8k+7
        k = (5 << 56) + 3
        self._check(S, 62, 8 * k + 1, 8 * k + 6)

    def test_refused_past_max_depth(self, block_martingale_half):
        S = block_martingale_half
        with pytest.raises(d.DepthCapError, match=f"level {S.max_depth + 1} beyond"):
            S.level_values_range(S.max_depth + 1, 0, 4)

    def test_deep_levels_to_max_depth(self):
        # the range reads answer wherever `value` does: levels past 62,
        # where a clipped end count is 2^s with s past 63
        S = d.assemble_martingale(d.build_schedule(0.5, 1, depth_cap=160))
        assert S.max_depth == 224
        rng = random.Random(8)
        for n in (62, 63, 64, 65, 100, 200, S.max_depth):
            for width in (1, 2, 3, 64, 100):
                for lo in (0, rng.randrange(1 << n), (1 << n) - width):
                    vals = S.level_values_range(n, lo, lo + width)
                    want = [S.value(DI(n, j)).hex() for j in range(lo, lo + width)]
                    assert [v.hex() for v in vals.tolist()] == want, (n, lo, width)

    def test_random_ranges(self, block_martingale_half):
        S = block_martingale_half
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(0, 62)
            lo = rng.randrange(1 << n)
            hi = min(1 << n, lo + rng.randint(0, 200))
            self._check(S, n, lo, hi)


def _level_values_per_placement(S, n, lo, hi):
    """`level_values_range` before the nested sums: every live placement's
    term added by `np.where` on each cell of the deepest live level, then
    repeated over the level-n range with clipped ends."""
    live = bisect_right(S._starts, n - 1)
    e = min(n, S._ends[live - 1]) if live else 0
    shift = n - e
    clo = lo >> shift
    idx = np.arange(clo, ((hi - 1) >> shift) + 1, dtype=np.uint64)
    total = np.zeros(idx.shape, dtype=float)
    for p in S.schedule.placements[:live]:
        t = min(e, p.end) - p.level
        bits = (idx >> np.uint64(e - p.level - t)) & np.uint64((1 << t) - 1)
        total += np.where(bits == 0, p.amplitude * (math.ldexp(1.0, t) - 1.0),
                          -p.amplitude)
    if shift == 0 or hi == lo:
        return total[:hi - lo]
    counts = np.full(total.shape, 1 << shift, dtype=np.int64)
    counts[0] -= lo - (clo << shift)
    counts[-1] -= ((idx.size + clo) << shift) - hi
    return np.repeat(total, counts)


class TestNestedBlockSums:
    """The nested placement sums against the per-placement loop, byte for
    byte, on the ranges check_cancellation and the sweeps read."""

    @pytest.fixture(params=[(0.5, 2), (0.3, 1), (0.8, 1)], ids=["b0.5", "b0.3", "b0.8"])
    def S(self, request, block_martingale_half):
        beta, stages = request.param
        if request.param == (0.5, 2):
            return block_martingale_half
        return d.assemble_martingale(d.build_schedule(beta, stages, depth_cap=1024))

    def _check(self, S, n, lo, hi):
        got = S.level_values_range(n, lo, hi)
        want = _level_values_per_placement(S, n, lo, hi)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_chunk_edges(self, S):
        # check_cancellation's chunks at levels 17 to 22, and chunks cut
        # one cell in from either edge
        chunk = 1 << 17
        for n in range(17, 23):
            for lo in {0, min(chunk, (1 << n) - chunk), (1 << n) - chunk}:
                self._check(S, n, lo, lo + chunk)
                self._check(S, n, lo + 1, lo + chunk - 1)

    def test_empty_ranges(self, S):
        for n in (0, 1, 3, 11, 40, 62):
            for lo in {0, 1 << (n - 1) if n else 0, 1 << n}:
                assert S.level_values_range(n, lo, lo).shape == (0,)
                self._check(S, n, lo, lo)

    def test_inside_and_between_windows(self, S):
        rng = random.Random(16)
        for p in S.schedule.placements[:6]:
            if p.end > 60:
                break
            # inside the window, at its end, and between it and the next
            for n in range(p.level + 1, p.end + 3):
                self._check(S, n, 0, 1 << min(n, 14))
                for _ in range(6):
                    lo = rng.randrange(1 << n)
                    self._check(S, n, lo, min(1 << n, lo + rng.randint(1, 5000)))

    def test_whole_levels(self, S):
        for n in range(0, 19):
            self._check(S, n, 0, 1 << n)


class TestSpecialRegistry:
    def test_member_bound(self, block_schedule_half, block_martingale_half):
        reg = d.SpecialIntervalRegistry(block_schedule_half, 0, block_martingale_half)
        checked, worst = check_members(reg)
        assert checked > 0
        assert worst >= 0.2

    def test_left_measure_bound(self, block_schedule_half):
        reg = d.SpecialIntervalRegistry(block_schedule_half, 0)
        assert reg.left_measure_bound_ok()
        reg1 = d.SpecialIntervalRegistry(block_schedule_half, 1)
        assert reg1.left_measure_bound_ok()

    def test_coverage_identities(self, block_schedule_half):
        reg = d.SpecialIntervalRegistry(block_schedule_half, 0)
        out = coverage_identities(reg, 0)
        M = reg.record.M
        assert out["new_outside"] == Fraction(1, 1 << M) * (1 - Fraction(1, 1 << M))
        assert out["union_two"] == (2 - Fraction(1, 1 << M)) * Fraction(1, 1 << M)

    def test_leftmost_interval_discarded(self, block_schedule_half):
        reg = d.SpecialIntervalRegistry(block_schedule_half, 0)
        p = reg.placements[1]          # level 8 round
        depth = p.end + 4
        # x with all-ones prefix through p.end: in the last level-k interval
        bits = (1 << depth) - 1
        hits = [h for h in reg.hits(bits, depth) if h.placement == p]
        assert hits == []
        # the same window pattern one interval earlier is a left-special hit
        bits2 = ((1 << p.M) - 1) << (depth - p.end)  # q = 0 window all ones
        hits2 = [h for h in reg.hits(bits2, depth) if h.placement == p]
        assert len(hits2) == 1 and hits2[0].kind == "left"
        assert hits2[0].interval == DI(p.end, 1 << p.M)

    def test_special_hit_geometry(self, block_schedule_half):
        reg = d.SpecialIntervalRegistry(block_schedule_half, 0)
        p = reg.placements[1]
        depth = p.end + 6
        bits = 0b101 << (depth - 3)    # x in [5/8, 6/8): window bits zero
        hits = [h for h in reg.hits(bits, depth) if h.placement == p]
        assert len(hits) == 1 and hits[0].kind == "special"
        target = hits[0].target
        assert (target - DR(bits, depth)).numerator > 0

    def test_special_values_match_member_loops(self, block_schedule_half,
                                               block_martingale_half):
        # the per-member reads that `special_values` replaced: the index
        # array of `check_members` and the counterexample's interval loop
        S, beta = block_martingale_half, block_schedule_half.beta
        for j in (0, 1):
            reg = d.SpecialIntervalRegistry(block_schedule_half, j, S)
            for p in reg.placements:
                if p.level > 12:
                    continue
                vals = S.level_values(p.end)
                members = np.arange(1 << p.level, dtype=np.int64) << p.M
                want = math.pow(2.0, -p.end * beta) * vals[members]
                got = reg.special_values(p)
                assert got.tobytes() == want.tobytes()
                for q in range(1 << p.level):
                    iv = DI(p.end, q << p.M)
                    assert got[q] == math.pow(2.0, -p.end * beta) * vals[iv.index]

    def test_incomplete_stage_raises(self):
        sched = d.build_schedule(0.5, 2, depth_cap=200)
        with pytest.raises(d.DomainError):
            d.SpecialIntervalRegistry(sched, 1)

    @pytest.mark.parametrize("stage", [-1, 2, 5])
    def test_stage_out_of_range_raises(self, block_schedule_half, stage):
        with pytest.raises(d.DomainError, match=f"stage {stage} not completely built"):
            d.SpecialIntervalRegistry(block_schedule_half, stage)

    def test_record_is_the_stage_at_its_index(self, block_schedule_half):
        for j, rec in enumerate(block_schedule_half.stages):
            assert d.SpecialIntervalRegistry(block_schedule_half, j).record is rec
            assert rec.stage == j


class TestInducedFunctionCertificates:
    """Small-scale version of the end-to-end counterexample certificates."""

    def test_witness_survey(self, block_schedule_half, block_martingale_half):
        sched = block_schedule_half
        S = block_martingale_half
        B = float(sched.growth_norm_profile().max())
        f = d.martingale_function(S, 0.5, max_depth=sched.end_level + 64,
                                  growth_bound=B)
        hits, total = d.blocks.witness_survey(sched, S, f, 0.5, 100, seed=123)
        assert hits >= 99

    @pytest.mark.parametrize("beta", [0.5, 0.7])
    def test_witness_survey_matches_point_loop(self, beta):
        # at beta = 0.7 stage 1 is incomplete and points have 1,068 bits
        sched = d.build_schedule(beta, 2, depth_cap=1024)
        S = d.assemble_martingale(sched)
        f = d.martingale_function(S, 1.0 - beta, max_depth=sched.end_level + 64)
        for seed in range(10):
            got = d.blocks.witness_survey(sched, S, f, 1.0 - beta, 50, seed=seed)
            assert got == witness_survey_loop(sched, S, f, 1.0 - beta, 50, seed), seed

    def test_witness_survey_makes_no_scalar_difference(self, monkeypatch,
                                                       block_schedule_half,
                                                       block_martingale_half):
        # the `hits` calls of the point loop, stage by stage instead of point
        # by point, and no scalar difference
        sched, S = block_schedule_half, block_martingale_half
        f = d.martingale_function(S, 0.5, max_depth=sched.end_level + 64)
        calls = []
        hits = d.SpecialIntervalRegistry.hits
        monkeypatch.setattr(d.SpecialIntervalRegistry, "hits",
                            lambda self, *a: calls.append((self.stage, *a)) or hits(self, *a))
        want = witness_survey_loop(sched, S, f, 0.5, 50, seed=3)
        loop_calls, calls[:] = sorted(calls), []
        monkeypatch.setattr(d.MartingaleInducedFunction, "difference",
                            lambda *a: pytest.fail("scalar difference in the survey"))
        assert d.blocks.witness_survey(sched, S, f, 0.5, 50, seed=3) == want
        assert sorted(calls) == loop_calls

    def test_witness_survey_past_1024_bits(self):
        # survey points 1068 bits deep: float(e - x) was an OverflowError
        sched = d.build_schedule(0.7, 3, depth_cap=1024)
        S = d.assemble_martingale(sched)
        B = float(sched.growth_norm_profile().max())
        f = d.martingale_function(S, 0.3, max_depth=sched.end_level + 64,
                                  growth_bound=B)
        assert d.blocks.witness_survey(sched, S, f, 0.3, 20, seed=0) == (18, 20)

    @pytest.mark.parametrize("points", [0, -1])
    def test_witness_survey_needs_points(self, block_schedule_half,
                                         block_martingale_half, points):
        f = d.martingale_function(block_martingale_half, 0.5)
        with pytest.raises(d.DomainError):
            d.blocks.witness_survey(block_schedule_half, block_martingale_half,
                                    f, 0.5, points, seed=1)

    def test_holder_pairs(self, block_schedule_half, block_martingale_half):
        sched = block_schedule_half
        B = float(sched.growth_norm_profile().max())
        f = d.martingale_function(block_martingale_half, 0.5,
                                  max_depth=sched.end_level + 64, growth_bound=B)
        est = d.holder_seminorm_estimate(
            f, d.SeminormSampler(pairs=3000, scale_min=2.0 ** -40, seed=1,
                                 dyadic_depth=44))
        assert est <= f.seminorm_bound


class TestTwoStageLimit:
    @pytest.mark.parametrize("beta, complete", [(0.6, True), (0.65, False)])
    def test_stage_one_completes_up_to_beta_0_6(self, beta, complete):
        # at the CLI's default --depth 1024 stage 1 stops at level 1020 for
        # beta 0.65 and 0.7, so the witness survey sees stage 0 only
        sched = d.build_schedule(beta, 2, depth_cap=1024)
        assert sched.stages[0].complete
        assert sched.stages[1].complete is complete
        assert sched.truncated is not complete
