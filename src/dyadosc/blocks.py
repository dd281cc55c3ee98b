"""Haar building blocks and the double-induction growth martingale.

A block ``W(delta, J)`` is a finite sum of scaled Haar terms on the nested
left spine of J: it sits at ``-delta * 2^(K beta)`` off the spine and
piles up ``delta * 2^(K beta) (2^M - 1)`` on the deep left piece J_M.
Blocks are placed on every interval of a level at a time; placement
levels are chosen minimally so the running sup norm is discounted below
``delta/2`` before the next round.  The assembled martingale stops
between placements, keeps ``2^(-i beta) ||S_i|| <= 2^(1-beta)`` at every
level, and its lower envelope improves stage by stage.

Enumeration is restricted to shallow placements; deep-placement facts
(special-interval measures, norm snapshots) are tracked in closed form.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .dyadic import DepthCapError, DomainError, DyadicInterval, DyadicRational
from .martingale import Martingale


def haar(I: DyadicInterval, x) -> int:
    """Renormalized Haar function of I: +1 on the left half, -1 on the
    right half, 0 outside; integrates to zero against Lebesgue."""
    if not I.contains(x):
        return 0
    return 1 if I.left_half().contains(x) else -1


def m_of_delta(delta, beta) -> int:
    """Block depth M(delta) = floor(log(1/(2 delta)) / ((1-beta) log 2)) + 1.

    Defined so that 1/2 <= 2^(M(1-beta)) * delta <= 2^-beta; the sandwich
    is re-verified after rounding.
    """
    delta_f = Fraction(delta)
    beta_f = Fraction(beta)
    if not 0 < delta_f < Fraction(1, 2):
        raise DomainError("delta must lie in (0, 1/2)")
    if not 0 < beta_f < 1:
        raise DomainError("beta must lie in (0, 1)")
    num = 1 / (2 * delta_f)
    if num.denominator == 1 and (num.numerator & (num.numerator - 1)) == 0:
        # delta a power of two: the quotient is exactly rational
        e = num.numerator.bit_length() - 1
        x = Fraction(e) / (1 - beta_f)
        M = int(math.floor(x)) + 1
    else:
        x = math.log(1.0 / (2.0 * float(delta_f))) / ((1.0 - float(beta_f)) * math.log(2.0))
        M = int(math.floor(x)) + 1
    # sandwich check, with a float-boundary nudge
    def sandwich(m: int) -> bool:
        v = math.pow(2.0, m * (1.0 - float(beta_f))) * float(delta_f)
        return 0.5 - 1e-12 <= v <= math.pow(2.0, -float(beta_f)) + 1e-12
    if not sandwich(M):
        for cand in (M - 1, M + 1):
            if cand >= 1 and sandwich(cand):
                return cand
        raise DomainError(f"no block depth satisfies the sandwich at delta={delta}, beta={beta}")
    return M


def delta_j(j: int) -> Fraction:
    """Stage amplitudes delta_j = 2^-(j+2)."""
    if j < 0:
        raise DomainError("stage index must be nonnegative")
    return Fraction(1, 1 << (j + 2))


def n_of_j(j: int, beta) -> int:
    """Rounds per stage: least n with (1 - 2^-M_j)^n <= delta_j, plus one.

    Computed as floor(log delta_j / log(1 - 2^-M_j)) + 1; the defining
    inequality is re-verified and the count nudged up across any float
    boundary.  Degenerate (nonpositive) values raise.
    """
    d = delta_j(j)
    M = m_of_delta(d, beta)
    log_ratio = math.log(float(d)) / math.log1p(-math.ldexp(1.0, -M))
    n = int(math.floor(log_ratio)) + 1
    if n <= 0:
        raise DomainError(f"round count degenerated at stage {j}")
    while n * math.log1p(-math.ldexp(1.0, -M)) > math.log(float(d)):
        n += 1
    return n


@dataclass(frozen=True)
class BuildingBlock:
    """W(delta, J): closed-form description plus its Haar-term ladder."""

    delta: float
    J: DyadicInterval
    beta: float
    M: int

    @property
    def amplitude(self) -> float:
        """delta * 2^(K beta) for K = level of J."""
        return self.delta * math.pow(2.0, self.J.level * self.beta)

    @property
    def peak(self) -> float:
        """Value on the deep left piece J_M."""
        return self.amplitude * (math.ldexp(1.0, self.M) - 1.0)

    @property
    def trough(self) -> float:
        """Value on J minus J_M."""
        return -self.amplitude

    def spine(self) -> list[DyadicInterval]:
        """J_0 contains J_1 contains ... J_M, each the left half before it."""
        out = [self.J]
        for _ in range(self.M):
            out.append(out[-1].left_half())
        return out

    def value(self, x) -> float:
        """Closed form: peak on J_M, trough on J minus J_M, 0 outside."""
        if not self.J.contains(x):
            return 0.0
        deep = self.J
        for _ in range(self.M):
            deep = deep.left_half()
        return self.peak if deep.contains(x) else self.trough

    def partial_sup_scaled(self, t: int) -> float:
        """2^-((K+t) beta) * sup of the first t terms (t = 1..M)."""
        top = self.amplitude * (math.ldexp(1.0, t) - 1.0)
        return math.pow(2.0, -(self.J.level + t) * self.beta) * top

    def partial_inf_scaled(self, t: int) -> float:
        return -math.pow(2.0, -(self.J.level + t) * self.beta) * self.amplitude

    def verify(self) -> dict[str, float]:
        """Construction-time inequalities; raises on violation.

        Checks the scaled sup bound 2^(1-beta) for every partial ladder
        sum, the -delta floor, and the deep-piece lower bound
        (1/2)(1 - 2^-M).
        """
        checks = {}
        bound = math.pow(2.0, 1.0 - self.beta)
        for t in range(1, self.M + 1):
            s = self.partial_sup_scaled(t)
            if s > bound + 1e-12:
                raise DomainError(f"partial sup bound fails at t={t}")
            f = self.partial_inf_scaled(t)
            if f < -self.delta - 1e-12:
                raise DomainError(f"partial floor fails at t={t}")
        checks["scaled_sup"] = math.pow(2.0, -(self.J.level + self.M) * self.beta) * self.peak
        if checks["scaled_sup"] > bound + 1e-12:
            raise DomainError("block sup bound fails")
        checks["deep_lower"] = checks["scaled_sup"]
        if checks["deep_lower"] < 0.5 * (1.0 - math.ldexp(1.0, -self.M)) - 1e-12:
            raise DomainError("deep-piece lower bound fails")
        return checks

    def integral_unit(self) -> Fraction:
        """Integral of W over J in units of amplitude * |J|, exactly.

        Equals (2^M - 1)/2^M - (1 - 2^-M), i.e. zero: every Haar term has
        zero mean, and this computes the closed-form balance exactly.
        """
        deep = Fraction(1, 1 << self.M)
        return Fraction((1 << self.M) - 1) * deep - (1 - deep)


def building_block(delta, J: DyadicInterval, beta) -> BuildingBlock:
    """Construct and verify W(delta, J)."""
    M = m_of_delta(delta, beta)
    block = BuildingBlock(float(delta), J, float(beta), M)
    block.verify()
    return block


@dataclass(frozen=True)
class Placement:
    """One round of blocks: W(delta_j, J) on every J of level k."""

    stage: int
    round: int
    level: int              # k_{jn}
    M: int
    delta: float
    amplitude: float        # delta * 2^(k beta)
    norm_before: float      # ||S_k||_inf when the round was placed
    norm_after: float       # ||S_{k+M}||_inf

    @property
    def end(self) -> int:
        return self.level + self.M


@dataclass
class StageRecord:
    stage: int
    delta: float
    M: int
    rounds: int             # n_j (placements are rounds 0..n_j)
    complete: bool


@dataclass
class BlockSchedule:
    """Placement levels, norm snapshots, and per-level envelopes."""

    beta: float
    placements: list[Placement]
    stages: list[StageRecord]
    sup_at: np.ndarray      # sup of S_i, i = 0..end_level
    inf_at: np.ndarray
    end_level: int
    depth_cap: int
    truncated: bool

    def stage_placements(self, j: int) -> list[Placement]:
        return [p for p in self.placements if p.stage == j]

    def norm_at(self, i: int) -> float:
        return max(self.sup_at[i], -self.inf_at[i])

    def growth_norm_profile(self) -> np.ndarray:
        """2^(-i beta) ||S_i||_inf for all materialized levels."""
        levels = np.arange(self.end_level + 1)
        norms = np.maximum(self.sup_at, -self.inf_at)
        return np.power(2.0, -levels * self.beta) * norms

    def floor_profile(self) -> np.ndarray:
        """2^(-i beta) * inf S_i for all materialized levels."""
        levels = np.arange(self.end_level + 1)
        return np.power(2.0, -levels * self.beta) * self.inf_at

    def stage_floor_start(self, j: int) -> Optional[int]:
        """First level from which the stage-j floor -3 delta_j applies."""
        rounds = self.stage_placements(j)
        return rounds[0].end if rounds else None

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "end_level": self.end_level,
            "depth_cap": self.depth_cap,
            "truncated": self.truncated,
            "stages": [
                {
                    "stage": s.stage,
                    "delta": s.delta,
                    "M": s.M,
                    "rounds": s.rounds,
                    "complete": s.complete,
                }
                for s in self.stages
            ],
            "placements": [
                {
                    "stage": p.stage,
                    "round": p.round,
                    "level": p.level,
                    "M": p.M,
                    "delta": p.delta,
                    "norm_before": p.norm_before,
                    "norm_after": p.norm_after,
                }
                for p in self.placements
            ],
        }


def build_schedule(beta, stages: int, depth_cap: int = 4096) -> BlockSchedule:
    """Choose minimal admissible placement levels for the given stages.

    Each new round starts at the least level k that is past the previous
    round and discounts the standing norm: 2^(-k beta) ||S_prev|| <=
    delta_j / 2.  Construction aborts cleanly at `depth_cap` with the
    completed prefix (raises if not even stage 0 completes).
    """
    beta_f = float(beta)
    if not 0.0 < beta_f < 1.0:
        raise DomainError("beta must lie in (0, 1)")
    if stages < 1:
        raise DomainError("need at least one stage")
    placements: list[Placement] = []
    stage_records: list[StageRecord] = []
    sup_levels = [0.0]
    inf_levels = [0.0]
    cur_sup, cur_inf = 0.0, 0.0
    prev_end = 0
    truncated = False

    for j in range(stages):
        d = float(delta_j(j))
        M = m_of_delta(delta_j(j), beta_f)
        n_j = n_of_j(j, beta_f)
        placed = 0
        for n in range(n_j + 1):
            norm = max(cur_sup, -cur_inf)
            if norm == 0.0:
                k = prev_end
            else:
                k = max(prev_end,
                        math.ceil(math.log2(2.0 * norm / d) / beta_f))
                while math.pow(2.0, -k * beta_f) * norm > d / 2.0:
                    k += 1
            if k + M > depth_cap:
                truncated = True
                break
            amp = d * math.pow(2.0, k * beta_f)
            # stopped levels up to k, then the M in-block levels
            while len(sup_levels) <= k:
                sup_levels.append(cur_sup)
                inf_levels.append(cur_inf)
            for t in range(1, M + 1):
                sup_levels.append(cur_sup + amp * (math.ldexp(1.0, t) - 1.0))
                inf_levels.append(cur_inf - amp)
            norm_before = norm
            cur_sup = cur_sup + amp * (math.ldexp(1.0, M) - 1.0)
            cur_inf = cur_inf - amp
            placements.append(Placement(j, n, k, M, d, amp, norm_before,
                                        max(cur_sup, -cur_inf)))
            prev_end = k + M
            placed += 1
        complete = placed == n_j + 1
        stage_records.append(StageRecord(j, d, M, n_j, complete))
        if truncated:
            if j == 0 and not complete:
                raise DepthCapError(
                    f"depth cap {depth_cap} too small to finish stage 0")
            break

    end_level = len(sup_levels) - 1
    return BlockSchedule(beta_f, placements, stage_records,
                         np.array(sup_levels), np.array(inf_levels),
                         end_level, depth_cap, truncated)


class BlockMartingale(Martingale):
    """Accumulated block sums, interval-keyed; stops between placements.

    Values follow the placement closed form: a placement at level k
    contributes amplitude*(2^t - 1) on the all-zero spine (t active
    terms), -amplitude off it, and nothing outside its active levels.
    """

    def __init__(self, schedule: BlockSchedule):
        super().__init__(self._inc, s0=0.0,
                         max_depth=max(schedule.depth_cap, schedule.end_level) + 64,
                         name=f"blocks(beta={schedule.beta})")
        self.schedule = schedule
        self._starts = [p.level for p in schedule.placements]
        self._ends = [p.end for p in schedule.placements]
        self._windows = [(p.level, p.end, p.amplitude, p.M) for p in schedule.placements]

    def _active_placement(self, i: int) -> Optional[Placement]:
        """Placement with k < i <= k + M, if any."""
        pos = bisect_right(self._starts, i - 1) - 1
        if pos < 0:
            return None
        p = self.schedule.placements[pos]
        return p if i <= p.end else None

    def _inc(self, child: DyadicInterval) -> float:
        i = child.level
        p = self._active_placement(i)
        if p is None:
            return 0.0
        t = i - p.level - 1          # 0-based Haar term index
        if t > 0:
            between = (child.index >> 1) & ((1 << t) - 1)
            if between:
                return 0.0
        v = p.amplitude * math.ldexp(1.0, t)
        return v if (child.index & 1) == 0 else -v

    def value(self, I: DyadicInterval) -> float:
        if not 0 <= I.index < (1 << I.level):
            raise DomainError(f"{I} lies outside the unit interval")
        total = 0.0
        for p in self.schedule.placements:
            if p.level >= I.level:
                break
            t = min(I.level, p.end) - p.level
            bits = (I.index >> (I.level - p.level - t)) & ((1 << t) - 1)
            total += p.amplitude * ((math.ldexp(1.0, t) - 1.0) if bits == 0 else -1.0)
        return total

    def primitive(self, start: DyadicInterval, s_start: float,
                  bits: int, depth: int) -> float:
        """The integral of S along one address, in closed form.

        S is constant along the path between placement windows, so a run
        of levels (u, v] adds s * window / 2^v, where window holds the
        address bits of those levels.  Inside a window (k, k+M] the path
        rides the block's spine until its first 1-bit, at level i, which
        adds 2^-i (s_k + amp (2^(i-k) - 1)); from there S is s_k - amp up
        to the next window, and with no 1-bit S leaves the window at
        s_k + amp (2^M - 1).  O(placements) work per point, no `increment`.
        """
        end = start.level + depth
        if end > self.max_depth:
            raise DepthCapError(f"level {end} beyond max depth {self.max_depth}")

        def run(s: float, u: int, v: int) -> float:
            """s times the integral of the 1-bits at levels (u, v]."""
            window = (bits >> (end - v)) & ((1 << (v - u)) - 1)
            if window == 0 or s == 0.0:
                return 0.0
            # window / 2^v from its top 60 bits, never float() of a wide int
            width = window.bit_length()
            top = window >> max(0, width - 60)
            return math.ldexp(s * math.ldexp(float(top), -top.bit_length()), width - v)

        acc = 0.0
        s = s_start
        lvl = start.level           # S = s on the path from level lvl on
        first = bisect_right(self._ends, lvl)
        for k, k_end, amp, M in self._windows[first:]:
            if k >= end:
                break
            # a start inside the window is on the spine iff its address
            # bits below level k are zero; off it, S stays s
            off = lvl - k if lvl > k else 0
            if start.index & ((1 << off) - 1):
                continue
            acc += run(s, lvl, k + off)
            hi = k_end if k_end < end else end
            window = (bits >> (end - hi)) & ((1 << (hi - k - off)) - 1)
            spine = math.ldexp(amp, off)        # s = s_k + amp (2^off - 1)
            if window == 0:
                s += math.ldexp(amp, M) - spine
                lvl = hi
            else:
                lvl = hi - window.bit_length() + 1
                acc += math.ldexp(s + (math.ldexp(amp, lvl - k) - spine), -lvl)
                s -= spine
        return acc + run(s, lvl, end)

    def level_values_range(self, n: int, lo: int, hi: int) -> np.ndarray:
        """Vectorized values of S_n on indices [lo, hi); needs n <= 62."""
        if n > 62:
            raise DepthCapError("vectorized sweep limited to level 62")
        idx = np.arange(lo, hi, dtype=np.uint64)
        total = np.zeros(idx.shape, dtype=float)
        for p in self.schedule.placements:
            if p.level >= n:
                break
            t = min(n, p.end) - p.level
            bits = (idx >> np.uint64(n - p.level - t)) & np.uint64((1 << t) - 1)
            total += np.where(bits == 0,
                              p.amplitude * (math.ldexp(1.0, t) - 1.0),
                              -p.amplitude)
        return total

    def level_increments(self, n: int) -> np.ndarray:
        if n < 1:
            raise DomainError("increments start at level 1")
        if n > 62:
            raise DepthCapError("vectorized sweep limited to level 62")
        p = self._active_placement(n)
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


def assemble_martingale(schedule: BlockSchedule) -> BlockMartingale:
    return BlockMartingale(schedule)


@dataclass(frozen=True)
class SpecialHit:
    """A located special (or left-special) interval membership for a point."""

    placement: Placement
    kind: str               # "special" | "left"
    spine_index: int        # ancestor index q of the special interval's parent

    @property
    def interval(self) -> DyadicInterval:
        return DyadicInterval(self.placement.end,
                              self.spine_index << self.placement.M)

    @property
    def target(self) -> DyadicRational:
        """Right endpoint of the special interval (the witness offset)."""
        return self.interval.right


class SpecialIntervalRegistry:
    """Stage-j special and left-special intervals, exactly accounted.

    A special interval is the deep left piece J_M of a placed block; a
    left-special interval is its same-length left neighbor (discarded when
    it would stick out of [0,1)).  Membership is located by address bits;
    aggregate Lebesgue measures come from an exact two-state recursion
    rather than enumeration, since deep placements have astronomically
    many members.
    """

    def __init__(self, schedule: BlockSchedule, stage: int,
                 martingale: Optional[BlockMartingale] = None):
        recs = [s for s in schedule.stages if s.stage == stage]
        if not recs or not recs[0].complete:
            raise DomainError(f"stage {stage} not completely built")
        self.schedule = schedule
        self.stage = stage
        self.record = recs[0]
        self.placements = schedule.stage_placements(stage)
        self.S = martingale or BlockMartingale(schedule)

    # -- membership ---------------------------------------------------

    def hits(self, x_bits: int, depth: int) -> list[SpecialHit]:
        """Special / left-special memberships of x = x_bits * 2^-depth."""
        out = []
        for p in self.placements:
            if p.end > depth:
                break
            window = (x_bits >> (depth - p.end)) & ((1 << p.M) - 1)
            q = x_bits >> (depth - p.level)
            if window == 0:
                out.append(SpecialHit(p, "special", q))
            elif window == (1 << p.M) - 1 and q + 1 < (1 << p.level):
                out.append(SpecialHit(p, "left", q + 1))
        return out

    # -- exact measures -----------------------------------------------

    def covered_measure_special(self) -> Fraction:
        """|union of stage-j special intervals| = 1 - (1 - 2^-M)^rounds."""
        M = self.record.M
        miss = (1 - Fraction(1, 1 << M)) ** len(self.placements)
        return 1 - miss

    def uncovered_measure_left(self) -> Fraction:
        """|[0,1) minus union of left-special intervals|, exactly.

        Two-state recursion over address bits: the all-ones prefix state
        tracks points in the last interval of each placement level, whose
        would-be left-special membership is discarded.
        """
        M = self.record.M
        a = Fraction(1)   # still missing, prefix all ones
        b = Fraction(0)   # still missing, prefix has a zero
        prev = 0
        for p in self.placements:
            gap = p.level - prev
            if gap > 0:
                shift = Fraction(1, 1 << gap)
                a, b = a * shift, b + a * (1 - shift)
            block = Fraction(1, 1 << M)
            # all-ones window: from state a it stays a miss (edge discard),
            # from state b it is a hit and leaves the miss set
            a, b = a * block, b * (1 - block) + a * (1 - block)
            prev = p.end
        return a + b

    def left_measure_bound_ok(self) -> bool:
        """Uncovered left-special mass <= 2 (1 - 2^-M)^n_j, exactly."""
        M = self.record.M
        bound = 2 * (1 - Fraction(1, 1 << M)) ** self.record.rounds
        return self.uncovered_measure_left() <= bound

    # -- per-member value bound ----------------------------------------

    def special_value_lower_closed_form(self) -> float:
        """min over rounds of 2^(-end beta)(peak - norm_before): the
        uniform lower bound for |I'|^beta S(I') over all members."""
        beta = self.schedule.beta
        worst = math.inf
        for p in self.placements:
            peak = p.amplitude * (math.ldexp(1.0, p.M) - 1.0)
            worst = min(worst, math.pow(2.0, -p.end * beta) * (peak - p.norm_before))
        return worst

    def check_members(self, max_level: int = 16) -> tuple[int, float]:
        """|I'|^beta S(I') >= 1/5 on every enumerable member.

        Returns (number checked, worst value).  Deep placements are
        covered by the closed-form bound instead.
        """
        beta = self.schedule.beta
        worst = math.inf
        checked = 0
        for p in self.placements:
            if p.level > max_level:
                continue
            vals = self.S.level_values(p.end)
            members = np.arange(1 << p.level, dtype=np.int64) << p.M
            scaled = math.pow(2.0, -p.end * beta) * vals[members]
            worst = min(worst, float(scaled.min()))
            checked += members.size
            if scaled.min() < 0.2 - 1e-12:
                raise DomainError(
                    f"special-interval bound 1/5 fails at placement {p}")
        closed = self.special_value_lower_closed_form()
        if closed < 0.2 - 1e-12:
            raise DomainError("closed-form special bound below 1/5")
        return checked, min(worst, closed)

    # -- structural coverage identities --------------------------------

    def coverage_identities(self, round_index: int) -> dict[str, Fraction]:
        """Exact per-round coverage bookkeeping between consecutive rounds.

        For J a round-`round_index` block interval and F(J) the next
        round's deep pieces inside J:
          * new mass outside J_M:  |union F(J) \\ J_M| = 2^-M (1 - 2^-M)|J|
          * two-round coverage:    |J_M union F(J)| = (2 - 2^-M) 2^-M |J|
        Counted directly from the index arithmetic, no floats.
        """
        if round_index + 1 >= len(self.placements):
            raise DomainError("need a following round inside the stage")
        p, p_next = self.placements[round_index], self.placements[round_index + 1]
        M = self.record.M
        k, k2 = p.level, p_next.level
        J_len = Fraction(1, 1 << k)
        n_inside = 1 << (k2 - k)                 # next-round intervals inside J
        n_in_deep = 1 << (k2 - k - M)            # of which inside J_M
        piece = Fraction(1, 1 << (k2 + M))
        new_outside = (n_inside - n_in_deep) * piece
        union_two = Fraction(1, 1 << (k + M)) + new_outside
        expect_outside = Fraction(1, 1 << M) * (1 - Fraction(1, 1 << M)) * J_len
        expect_union = (2 - Fraction(1, 1 << M)) * Fraction(1, 1 << M) * J_len
        if new_outside != expect_outside or union_two != expect_union:
            raise DomainError("coverage identity failed")
        return {"new_outside": new_outside, "union_two": union_two}


def special_registry(schedule: BlockSchedule, stage: int,
                     martingale: Optional[BlockMartingale] = None) -> SpecialIntervalRegistry:
    return SpecialIntervalRegistry(schedule, stage, martingale)


def witness_survey(schedule: BlockSchedule, S: BlockMartingale, f, alpha: float,
                   points: int, seed: int, tol: float = 1e-3,
                   stages: int = 2) -> tuple[int, int]:
    """Count sampled points with a special-interval witness for f.

    At each uniformly sampled dyadic point x, every special or
    left-special membership in the first `stages` stages offers the
    candidate step h = (right endpoint of the special interval) - x; the
    point scores once some candidate's divided difference clears
    1/20 - tol.  Returns (hits, points).
    """
    import random as _random

    rng = _random.Random(seed)
    regs = [special_registry(schedule, j, S)
            for j in range(min(stages, len(schedule.stages)))
            if schedule.stages[j].complete]
    depth = schedule.end_level + 48
    hits = 0
    for _ in range(points):
        bits = rng.getrandbits(depth)
        x = DyadicRational(bits, depth)
        found = False
        for reg in regs:
            for hit in reg.hits(bits, depth):
                e = hit.target
                dd = f.difference(x, e) / float(e - x) ** alpha
                if dd >= 0.05 - tol:
                    found = True
                    break
            if found:
                break
        hits += int(found)
    return hits, points
