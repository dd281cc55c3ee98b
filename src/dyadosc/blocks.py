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
import random
from bisect import bisect_right
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .dyadic import DepthCapError, DomainError, DyadicInterval, DyadicRational
from .martingale import BLOCK_CELLS, PairedMartingale, bit_lengths


def m_of_delta(delta, beta) -> int:
    """Block depth M(delta) = floor(log(1/(2 delta)) / ((1-beta) log 2)) + 1.

    Defined so that 1/2 <= 2^(M(1-beta)) * delta <= 2^-beta; the sandwich
    is re-verified after rounding, and a delta past the float range raises
    DepthCapError.
    """
    delta_f = Fraction(delta)
    beta_f = Fraction(beta)
    if not 0 < delta_f < Fraction(1, 2):
        raise DomainError("delta must lie in (0, 1/2)")
    if not 0 < beta_f < 1:
        raise DomainError("beta must lie in (0, 1)")
    num = 1 / (2 * delta_f)
    # sandwich check, with a float-boundary nudge
    def sandwich(m: int) -> bool:
        v = math.pow(2.0, m * (1.0 - float(beta_f))) * float(delta_f)
        return 0.5 - 1e-12 <= v <= math.pow(2.0, -float(beta_f)) + 1e-12
    try:
        if num.denominator == 1 and (num.numerator & (num.numerator - 1)) == 0:
            # delta a power of two: the quotient is exactly rational
            x = Fraction(num.numerator.bit_length() - 1) / (1 - beta_f)
        else:
            x = (math.log(1.0 / (2.0 * float(delta_f)))
                 / ((1.0 - float(beta_f)) * math.log(2.0)))
        M = int(math.floor(x)) + 1
        if not sandwich(M):
            for cand in (M - 1, M + 1):
                if cand >= 1 and sandwich(cand):
                    return cand
            raise DomainError(f"no block depth satisfies the sandwich at delta={delta}, beta={beta}")
    except (OverflowError, ZeroDivisionError) as exc:
        raise DepthCapError(f"the block depth at delta={delta} leaves the float range") from exc
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
    boundary.  Degenerate (nonpositive) values raise, and so does a count
    of about 2^M ln(1/delta_j) past the float range (M_j >= 1024 or so).
    """
    d = delta_j(j)
    M = m_of_delta(d, beta)
    step = math.log1p(-math.ldexp(1.0, -M))     # 0.0 once 2^-M underflows
    if not step or math.isinf(log_ratio := math.log(float(d)) / step):
        raise DepthCapError(f"stage {j}: the round count at M = {M} leaves the float range")
    n = int(math.floor(log_ratio)) + 1
    if n <= 0:
        raise DomainError(f"round count degenerated at stage {j}")
    while n * step > math.log(float(d)):
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
    """Construct and verify W(delta, J), for J inside [0, 1); an amplitude
    or peak past the float range raises DepthCapError."""
    if J.index < 0 or J.index >> J.level:
        raise DomainError(f"{J} lies outside the unit interval: need index < 2^level")
    M = m_of_delta(delta, beta)
    block = BuildingBlock(float(delta), J, float(beta), M)
    if J.level * block.beta >= 1024.0 or not math.isfinite(block.peak):
        raise DepthCapError(f"the block amplitude or peak at level {J.level} leaves the float range")
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

    def growth_ok(self) -> bool:
        """The growth bound: 2^(-i beta) ||S_i|| <= 2^(1-beta) + 1e-12 at
        every materialized level."""
        bound = math.pow(2.0, 1.0 - self.beta) + 1e-12
        return bool(np.all(self.growth_norm_profile() <= bound))

    def floor_rows(self) -> list[tuple[int, int, float, float]]:
        """(stage, first level, least scaled floor, -3 delta_j) for each
        stage with a placed round: the least of `floor_profile` from the
        end of the stage's first round up to the end of the next stage's
        first round (or the last level, when no next round is placed)."""
        fp = self.floor_profile()
        starts = [self.stage_floor_start(rec.stage) for rec in self.stages]
        return [(rec.stage, start, float(fp[start:stop].min()), -3.0 * rec.delta)
                for rec, start, stop in zip(self.stages, starts, starts[1:] + [None])
                if start is not None]

    def to_dict(self) -> dict:
        """The JSON record: all fields but the envelopes and amplitudes."""
        return asdict(self, dict_factory=lambda items: {
            k: v for k, v in items if k not in ("sup_at", "inf_at", "amplitude")})


def build_schedule(beta, stages: int, depth_cap: int = 4096) -> BlockSchedule:
    """Choose minimal admissible placement levels for the given stages.

    Each new round starts at the least level k that is past the previous
    round and discounts the standing norm: 2^(-k beta) ||S_prev|| <=
    delta_j / 2.  Construction aborts cleanly with the completed prefix
    before a round that would end past `depth_cap`, or whose norm ratio
    2 ||S_prev|| / delta_j or new peak would overflow float (raises if
    not even stage 0 completes).  Each stage's block depth is verified once,
    on a block over [0, 1): no check of its ``verify`` depends on the level.
    """
    beta_f = float(beta)
    if not 0.0 < beta_f < 1.0:
        raise DomainError("beta must lie in (0, 1)")
    if stages < 1:
        raise DomainError("need at least one stage")
    if depth_cap < 0:
        raise DomainError(f"depth_cap must be nonnegative, not {depth_cap}")
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
        BuildingBlock(d, DyadicInterval(0, 0), beta_f, M).verify()
        placed = 0
        for n in range(n_j + 1):
            norm = max(cur_sup, -cur_inf)
            if norm == 0.0:
                k = prev_end
            elif not math.isfinite(2.0 * norm / d):
                k = math.inf            # no float level discounts the norm
            else:
                k = max(prev_end,
                        math.ceil(math.log2(2.0 * norm / d) / beta_f))
                while math.pow(2.0, -k * beta_f) * norm > d / 2.0:
                    k += 1
            amp = d * math.pow(2.0, k * beta_f) if k * beta_f < 1024.0 else math.inf
            if k + M > depth_cap or not math.isfinite(cur_sup + amp * math.ldexp(1.0, M)):
                truncated = True
                break
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


# widest block of `BlockMartingale.pair_primitives`, in cells per array: a
# 50-point survey over the 79 windows of beta = 1/2 descends in one block,
# whose widest arrays, 125 KiB of floats, stay below glibc's 128 KiB mmap
# threshold
_BLOCK = 2 * BLOCK_CELLS


class BlockMartingale(PairedMartingale):
    """Accumulated block sums, interval-keyed; stops between placements.

    Values follow the placement closed form: a placement at level k
    contributes amplitude*(2^t - 1) on the all-zero spine (t active
    terms), -amplitude off it, and nothing outside its active levels.
    """

    def __init__(self, schedule: BlockSchedule):
        super().__init__(s0=0.0,
                         max_depth=max(schedule.depth_cap, schedule.end_level) + 64,
                         name=f"blocks(beta={schedule.beta})")
        self.schedule = schedule
        # rows k, end and M of the placement windows (k, end = k + M]
        self._levels = np.array([(p.level, p.end, p.M) for p in schedule.placements],
                                dtype=np.int32).T.reshape(3, -1)
        self._starts, self._ends = self._levels[:2].tolist()
        self._windows = [(p.level, p.end, p.amplitude, p.M) for p in schedule.placements]
        self._amps = np.array([(p.amplitude, math.ldexp(p.amplitude, p.M))
                               for p in schedule.placements]).T.reshape(2, -1)

    def _left(self, level: int, parents):
        """Haar term t = level - k - 1 of the window (k, k + M] live at
        `level`: amp 2^t on parents whose low t bits are zero (the spine),
        0.0 off it and outside every window."""
        pos = bisect_right(self._starts, level - 1) - 1
        if pos < 0 or level > self._ends[pos]:
            return 0.0
        k, _, amp, _ = self._windows[pos]
        t = level - k - 1
        return math.ldexp(amp, t) * ((parents & ((1 << t) - 1)) == 0)

    def value(self, I: DyadicInterval) -> float:
        self._check(I)
        total = 0.0
        for k, end, amp, _ in self._windows:
            if k >= I.level:
                break
            t = min(I.level, end) - k
            bits = (I.index >> (I.level - k - t)) & ((1 << t) - 1)
            total += amp * ((math.ldexp(1.0, t) - 1.0) if bits == 0 else -1.0)
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
        s_k + amp (2^M - 1).  Below the address's last 1-bit every run adds
        nothing, so the walk ends there: O(placements above it) work per
        point, no `increment`.
        """
        end = start.level + depth
        if end > self.max_depth:
            raise DepthCapError(f"level {end} beyond max depth {self.max_depth}")
        if not bits:
            return 0.0
        last = end - (bits & -bits).bit_length() + 1   # level of the last 1-bit

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
            if lvl >= last:
                # no 1-bit below: the remaining runs add 0.0, and s only
                # moves along the spine
                return acc
            if k >= end:
                break
            if k > lvl:
                acc += run(s, lvl, k)
                lvl = k
            spine = amp
            if lvl > k:
                # only the first window can hold the start, which is on
                # the spine iff its address bits below level k are zero;
                # off it, S stays s
                off = lvl - k
                if start.index & ((1 << off) - 1):
                    continue
                spine = math.ldexp(amp, off)    # s = s_k + amp (2^off - 1)
            hi = k_end if k_end < end else end
            window = (bits >> (end - hi)) & ((1 << (hi - lvl)) - 1)
            if window == 0:
                s += math.ldexp(amp, M) - spine
                lvl = hi
            else:
                lvl = hi - window.bit_length() + 1
                acc += math.ldexp(s + (math.ldexp(amp, lvl - k) - spine), -lvl)
                s -= spine
        return acc + run(s, lvl, end)

    def pair_primitive(self, a: int, b: int, depth: int):
        """The descent behind f(b) - f(a), for the numerators a, b of two
        depth-`depth` dyadic points: (S(anc), ga, gb) at their deepest
        common dyadic ancestor anc, with ga, gb the integrals of S from the
        left endpoint of anc to each point, by ``value`` and ``primitive``."""
        bits = (a ^ b).bit_length()
        anc = DyadicInterval(depth - bits, a >> bits)
        s = self.value(anc)
        return (s, *(self.primitive(anc, s, x & ((1 << bits) - 1), bits) for x in (a, b)))

    def pair_primitives(self, ia: np.ndarray, ib: np.ndarray, depth: int):
        """``pair_primitive`` over arrays of address pairs at any depth, bit
        for bit: `ia` and `ib` hold depth-bit numerators, uint64 or Python
        ints.  Pairs are taken in order of their ancestor's level, in
        blocks of at most _BLOCK cells per array, each by one `_descend`."""
        if depth > self.max_depth:
            raise DepthCapError(f"level {depth} beyond max depth {self.max_depth}")
        n = len(ia)
        lvl = (depth - bit_lengths(ia ^ ib)).astype(np.int32)
        # windows starting above depth
        P = int(np.searchsorted(self._levels[0], depth - 1, side="right"))
        # cells per pair: two rows of 2 P + 2 terms, and of the address words
        step = max(1, _BLOCK // max(4 * P + 4, 2 * (depth // 64 + 3)))
        out = np.empty((3, n))
        order = np.argsort(lvl, kind="stable")
        for c in range(0, n, step):
            pick = order[c:c + step]
            out[:, pick] = self._descend(ia[pick], ib[pick], lvl[pick], depth, P)
        return out[0], out[1], out[2]

    def _descend(self, ia, ib, lvl, depth: int, P: int) -> np.ndarray:
        """(S(anc), ga, gb) of the pairs, whose ancestors are at levels
        `lvl`, as a (3, pairs) array: `value` and `primitive` laid out on
        grids of rows by columns, the placement windows (k, k + M].

        `value` reads one row per pair, on the windows with k below some
        ancestor; the descents read both addresses of each pair, on the
        windows that end below some ancestor and start above depth.  Every
        field of the scalar loops is read from the address bits: a window's
        first 1-bit, and the run from each window's exit to the next window.
        The scalar additions become running sums along the columns, in the
        scalar order: S(anc) of `value`'s terms, s of S(anc) and the jumps
        at the windows, and the integral of the terms run, hit, run, hit,
        ..., final run.
        """
        n = len(ia)
        bits = _AddressBits(np.concatenate([ia, ib]), depth)
        lo = int(np.searchsorted(self._levels[1], lvl.min(), side="right"))
        top = int(np.searchsorted(self._levels[0], lvl.max(), side="left"))
        # value(anc) adds, per window with k < L, its spine value on the
        # levels (k, min(L, end)] when they hold no 1-bit, else -amp
        k, M, amp = self._levels[0, :top], self._levels[2, :top], self._amps[0, :top]
        t = np.minimum(lvl[:, None] - k, M)
        terms = np.zeros((n, top + 1))
        terms[:, 1:] = np.where(bits.below(k, n) > k + t, amp * (np.ldexp(1.0, t) - 1.0),
                                -amp) * (t > 0)
        s_anc = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
        # the descents enter each window below L on its spine, and the
        # window of L when L's own bits in it are zero
        L = np.concatenate([lvl, lvl])[:, None]
        k, end, M = self._levels[:, lo:P]
        amp, peak = self._amps[:, lo:P]
        hi = np.minimum(end, depth)
        p = bits.below(k)
        on = (end > L) & (p > L)
        hit = on & (p <= hi)
        spine = np.ldexp(amp, np.minimum(np.maximum(L - k, 0), M))
        terms = np.empty((2 * n, P - lo + 1))
        terms[:, 0] = np.concatenate([s_anc, s_anc])
        terms[:, 1:] = (peak * ~hit - spine) * on
        s = np.add.accumulate(terms, axis=1, out=terms)
        # runs: from L, or from the level after each window, down to the
        # next window's k, and the last down to depth
        q = bits.below(np.concatenate([L, np.where(hit, p, np.where(on, hi, L))], axis=1))
        width = np.append(k, np.int32(depth)) + 1 - q
        size = np.minimum(np.maximum(width, 0), 60)
        head = bits.word(q - 1) >> (np.uint64(64) - size.astype(np.uint64))
        terms = np.zeros((2 * n, 2 * (P - lo) + 2))
        # window / 2^v of the scalar `run`, from its top 60 bits
        np.ldexp(s * np.ldexp(head.astype(float), -size), 1 - q, out=terms[:, 1::2])
        first = np.minimum(p, hi)
        np.multiply(np.ldexp(s[:, :-1] + (np.ldexp(amp, first - k) - spine), -first), hit,
                    out=terms[:, 2::2])
        g = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
        return np.stack([s_anc, g[:n], g[n:]])

    def level_values_range(self, n: int, lo: int, hi: int) -> np.ndarray:
        """Vectorized values of S_n on indices [lo, hi), to ``max_depth``.

        A placement at level k adds its term by the address bits of levels
        (k, L] alone, with L = min(n, its end) its deepest live level, so
        the terms are summed nested, in placement order: each is added on
        the level-L cells that cover [lo, hi), and the running sum is then
        repeated over the cells of the next placement's L, and finally of
        level n.  Every cell adds the terms of ``value`` in its order.
        """
        self._check_range(n, lo, hi)
        if n > self.max_depth:
            raise DepthCapError(f"level {n} beyond max depth {self.max_depth}")
        if hi == lo:
            return np.zeros(0)
        live = bisect_right(self._starts, n - 1)   # placements starting below n
        total = np.zeros(1)         # S_0 on the one level-0 cell
        shift = n                   # `total` lives at level n - shift
        for k, k_end, amp, _ in self._windows[:live]:
            L = min(n, k_end)
            total = _cover_repeat(total, shift, n - L, lo, hi)
            shift = n - L
            # spine cells (low L - k index bits zero) add amp (2^(L-k) - 1),
            # the others -amp: x - amp is x + (-amp), bit for bit
            step = 1 << (L - k)
            spine = slice(-(lo >> shift) % step, None, step)
            on_spine = total[spine] + amp * (math.ldexp(1.0, L - k) - 1.0)
            total -= amp
            total[spine] = on_spine
        return _cover_repeat(total, shift, 0, lo, hi)


class _AddressBits:
    """Depth-bit numerators (uint64 or Python ints) as 64-bit words, word w
    of every row in row w of `words`, the bit of level i at bit i - 1 of its
    row's words; then two zero words, so no read runs off a row."""

    def __init__(self, a: np.ndarray, depth: int):
        self.depth = depth
        self.rows = len(a)
        nw = max(1, -(-depth // 64))
        words = np.zeros((nw + 2, len(a)), np.uint64)
        if a.dtype != object and depth <= 64:
            if depth:
                words[0] = a.astype(np.uint64) << np.uint64(64 - depth)
        elif len(a):
            buf = b"".join((int(v) << (64 * nw - depth)).to_bytes(8 * nw, "big")
                           for v in a.tolist())
            words[:nw] = np.frombuffer(buf, ">u8").reshape(len(a), nw).T
        self.flat = words.ravel()
        # after[w, r]: the level of the first 1-bit of row r in the words
        # past word w, and a level past depth where there is none
        after = np.empty((nw + 1, len(a)), np.int32)
        after[nw - 1:] = 64 * (nw + 1) + 1
        after[:nw - 1] = 64 * np.arange(1, nw, dtype=np.int32)[:, None] + _clz(words[1:nw]) + 1
        self.after = np.minimum.accumulate(after[::-1], axis=0)[::-1].ravel()
        self.at = np.arange(len(a))[:, None]

    def below(self, u: np.ndarray, rows: Optional[int] = None) -> np.ndarray:
        """The level of the first 1-bit below level u, per cell of the first
        `rows` rows (all by default); past depth where there is none."""
        w = (u >> 6) * self.rows + self.at[:rows]
        cur = self.flat.take(w) << (u & 63).astype(np.uint64)
        return np.minimum(u + 1 + _clz(cur), self.after.take(w))

    def word(self, j: np.ndarray) -> np.ndarray:
        """The 64 bits from bit index j (min(j, depth)) on, per cell."""
        j = np.minimum(j, self.depth)
        w = (j >> 6) * self.rows + self.at
        o = (j & 63).astype(np.uint64)
        return (self.flat.take(w) << o) | (self.flat.take(w + self.rows) >> (np.uint64(64) - o))


def _clz(x: np.ndarray) -> np.ndarray:
    """Leading zero bits of each uint64, and 2^30, past any depth, for 0.
    The float of x with every bit below a 1-bit cleared is below 1.5 times
    its top bit, so it rounds within that bit's binade, and its frexp
    exponent is exact."""
    top = np.frexp((x & ~(x >> np.uint64(1))).astype(float))[1]
    return np.where(top, 64 - top, np.int32(1 << 30))


def _cover_repeat(vals: np.ndarray, shift: int, to: int, lo: int, hi: int) -> np.ndarray:
    """`vals` on the cells `shift` levels above n that cover the level-n
    range [lo, hi), repeated over the covering cells `to` <= `shift` levels
    above n; the first and last are clipped to the range."""
    if to == shift:
        return vals
    s = shift - to
    start, end = lo >> to, ((hi - 1) >> to) + 1      # the level-`to` cells of the range
    # a middle cell lies wholly in the range, so 2^s fits when there is one;
    # the clipped ends are counted in Python ints
    counts = np.full(vals.shape, 1 << s if vals.size > 2 else 0, dtype=np.int64)
    counts[0] = min(((lo >> shift) + 1) << s, end) - start
    counts[-1] = end - max(((lo >> shift) + vals.size - 1) << s, start)
    return np.repeat(vals, counts)


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
        if not 0 <= stage < len(schedule.stages) or not schedule.stages[stage].complete:
            raise DomainError(f"stage {stage} not completely built")
        self.schedule = schedule
        self.stage = stage
        self.record = schedule.stages[stage]
        self.placements = schedule.stage_placements(stage)
        self.S = martingale or BlockMartingale(schedule)
        # (placement, level, end, all-ones window, count of level cells)
        self._rounds = [(p, p.level, p.end, (1 << p.M) - 1, 1 << p.level)
                        for p in self.placements]

    # -- membership ---------------------------------------------------

    def hits(self, x_bits: int, depth: int) -> list[SpecialHit]:
        """Special / left-special memberships of x = x_bits * 2^-depth."""
        out = []
        for p, level, end, ones, cells in self._rounds:
            if end > depth:
                break
            window = (x_bits >> (depth - end)) & ones
            q = x_bits >> (depth - level)
            if window == 0:
                out.append(SpecialHit(p, "special", q))
            elif window == ones and q + 1 < cells:
                out.append(SpecialHit(p, "left", q + 1))
        return out

    # -- exact measures -----------------------------------------------

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

    def special_values(self, p: Placement) -> np.ndarray:
        """|I'|^beta S(I') = 2^(-end beta) S(I') on the 2^level special
        intervals I' of placement p, the level-end cells q 2^M, in order."""
        vals = self.S.level_values(p.end)
        return math.pow(2.0, -p.end * self.schedule.beta) * vals[::1 << p.M]


def witness_survey(schedule: BlockSchedule, S: BlockMartingale, f, alpha: float,
                   points: int, seed: int) -> tuple[int, int]:
    """Count sampled points with a special-interval witness for f.

    At each uniformly sampled dyadic point x, every special or
    left-special membership in the first two stages offers the
    candidate step h = (right endpoint of the special interval) - x; the
    point scores once some candidate's divided difference clears
    1/20 - 1e-3.  Returns (hits, points).  Only complete stages offer
    candidates, and the 99% certificate needs stage 1: at depth cap 1024
    it completes for beta <= 0.6, not at beta 0.65 or 0.7.

    The points are drawn first; then, stage by stage, the memberships of
    the points not yet scored are located, and their candidates are tried
    by rank, one ``f.dyadic_differences`` call per rank over the points
    still open: the candidates and their order per point are those of a
    point-by-point search, so (hits, points) is the same.
    """
    if points < 1:
        raise DomainError("need at least one sampled point")
    rng = random.Random(seed)
    regs = [SpecialIntervalRegistry(schedule, j, S)
            for j in range(min(2, len(schedule.stages)))
            if schedule.stages[j].complete]
    depth = schedule.end_level + 48
    xs = [rng.getrandbits(depth) for _ in range(points)]
    unscored = list(range(points))
    for reg in regs:
        cands = {i: reg.hits(xs[i], depth) for i in unscored}
        rank = 0
        while live := [i for i in unscored if len(cands[i]) > rank]:
            x = [xs[i] for i in live]
            # the right endpoints of the special intervals, at `depth`
            e = [(t := cands[i][rank].target).numerator << (depth - t.exponent) for i in live]
            diffs = f.dyadic_differences(np.array(x, dtype=object), np.array(e, dtype=object),
                                         depth)
            scored = {i for i, a, b, diff in zip(live, x, e, diffs.tolist())
                      if diff / float(DyadicRational(b - a, depth)) ** alpha >= 0.05 - 1e-3}
            unscored = [i for i in unscored if i not in scored]
            rank += 1
    return points - len(unscored), points
