"""Test-only oracles and readers, moved out of the library.

No library code calls these.  Each is what a test compares a library
path against, or the entry through which a test reads a library kernel:
the greedy Whitney walk, the walk `levels`, the whole-level mass sweep,
the special-interval registry, the point-by-point witness survey, the
Weierstrass term loop, the wavelet's
cell table and ratio kernel, the witness search's annulus offsets.  The
code is the library's, except the Whitney walk, restated on Fractions; a method
became a function of its instance, and `ratio_exact` reads the
measure's float eta, the one its masses use.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

import numpy as np

from dyadosc import entropy
from dyadosc.dyadic import (DepthCapError, DomainError, DyadicInterval, DyadicRational,
                            unit_interval)
from dyadosc.wavelet import _annulus_offset, _float_ratio, _frame, _split, _to_fraction


# -- dyadic -----------------------------------------------------------

def left_neighbor(I: DyadicInterval) -> Optional[DyadicInterval]:
    """Same-length interval immediately to the left.

    Returns None when the left endpoint is 0, i.e. the neighbor would
    fall outside the unit-interval domain.
    """
    if I.index == 0:
        return None
    return DyadicInterval(I.level, I.index - 1)


def whitney_greedy(x, h, max_depth: int):
    """The greedy walk that `whitney` replaced, on Fractions: from the
    left end a, the level-n interval with n the least level at or below
    a's lowest-terms exponent whose length fits in what is left.  Returns
    (x, h, pieces, total length)."""
    x_dr, h_dr = DyadicRational.from_value(x), DyadicRational.from_value(h)
    a, rest = x_dr.as_fraction(), h_dr.as_fraction()
    if not rest > 0:
        raise DomainError("h must be positive")
    end = a + rest
    pieces: list[DyadicInterval] = []
    while a < end:
        n = a.denominator.bit_length() - 1
        while Fraction(1, 1 << n) > end - a:
            n += 1
        if n > max_depth:
            raise DepthCapError(
                f"whitney tiling of [{x}, {x}+{h_dr}) needs level {n} > max depth {max_depth}")
        pieces.append(DyadicInterval(n, math.floor(a * (1 << n))))
        a += Fraction(1, 1 << n)
    return x_dr, h_dr, tuple(pieces), sum(Fraction(1, 1 << iv.level) for iv in pieces)


# -- entropy ----------------------------------------------------------

def ratio_exact(mm, child: DyadicInterval) -> Fraction:
    jump = Fraction(mm.S.increment(child))
    return (1 + Fraction(mm.eta) * jump) / 2


def mass_exact(mm, I: DyadicInterval) -> Fraction:
    m = Fraction(1)
    for lvl in range(1, I.level + 1):
        m *= ratio_exact(mm, I.ancestor(lvl))
    return m


def level_set_family(S, eta: float, depth: int) -> list[DyadicInterval]:
    """All intervals to `depth` with S(I) >= eta * level (vectorized sweep)."""
    out: list[DyadicInterval] = []
    for n, _, vals in S.levels(depth):
        for j in np.nonzero(vals >= eta * n - 1e-12)[0]:
            out.append(DyadicInterval(n, int(j)))
    return out


def mass_levels(S, eta: float, depth: int, ratios: Optional[dict] = None):
    """The mass kernel a whole level at a time, through `S.levels`: for
    n = 1..depth, yields (n, incs, s_vals, uniq, codes, log2_mass), with the
    exact ratios kept in `ratios` and one log2 per distinct jump."""
    entropy.MassMeasure(S, eta)
    eta_f = float(eta)
    ratios = {} if ratios is None else ratios
    log2s: dict[float, float] = {}
    log2_mass = np.zeros(1)
    for n, incs, s_vals in S.levels(depth):
        uniq = entropy._distinct_jumps(incs)
        jumps = uniq.tolist()
        for u in jumps:
            if u not in log2s:
                r = ratios[u] = entropy._mass_ratio(eta_f, u)
                log2s[u] = math.log2(f) if (f := float(r)) > 0.0 else -math.inf
        lg = np.array([log2s[u] for u in jumps])
        codes = entropy._jump_codes(incs, uniq)
        kids = lg.take(codes)
        kids[0::2] += log2_mass
        kids[1::2] += log2_mass
        log2_mass = kids
        yield n, incs, s_vals, uniq, codes, log2_mass


def sweep_mass_levels(S, eta: float, depth: int):
    """`sweep_mass_distribution` a whole level at a time: each level's
    first least margin, folded in level order against the running worst."""
    if depth < 1:
        raise DomainError("the mass sweep needs depth >= 1")
    phi = entropy.entropy_phi(eta)
    worst_margin = 0.0
    worst_member = unit_interval()
    members = 1
    paired = True
    ratios: dict[float, Fraction] = {}
    for n, incs, s_vals, _, _, log2_mass in mass_levels(S, eta, depth, ratios):
        paired = paired and bool(np.all(incs[0::2] == -incs[1::2]))
        mask = s_vals >= eta * n - 1e-12
        count = int(np.count_nonzero(mask))
        if count:
            members += count
            margins = log2_mass[mask] + phi * n
            j = int(np.argmin(margins))
            if margins[j] < worst_margin:
                worst_margin = float(margins[j])
                worst_member = DyadicInterval(n, int(np.nonzero(mask)[0][j]))
    sums_exact = paired and all(r + ratios[-u] == 1 for u, r in ratios.items())
    return entropy.MassSweepReport(depth, eta, members, worst_margin, worst_member,
                                   paired, sums_exact, phi)


# -- blocks -----------------------------------------------------------

def check_members(reg) -> tuple[int, float]:
    """|I'|^beta S(I') >= 1/5 on every member of a placement at level
    16 or less.

    Returns (number checked, worst value).  Deeper placements are
    covered by the closed-form bound instead.
    """
    worst = math.inf
    checked = 0
    for p in reg.placements:
        if p.level > 16:
            continue
        scaled = reg.special_values(p)
        worst = min(worst, float(scaled.min()))
        checked += scaled.size
        if scaled.min() < 0.2 - 1e-12:
            raise DomainError(
                f"special-interval bound 1/5 fails at placement {p}")
    closed = reg.special_value_lower_closed_form()
    if closed < 0.2 - 1e-12:
        raise DomainError("closed-form special bound below 1/5")
    return checked, min(worst, closed)


def coverage_identities(reg, round_index: int) -> dict[str, Fraction]:
    """Exact per-round coverage bookkeeping between consecutive rounds.

    For J a round-`round_index` block interval and F(J) the next
    round's deep pieces inside J:
      * new mass outside J_M:  |union F(J) \\ J_M| = 2^-M (1 - 2^-M)|J|
      * two-round coverage:    |J_M union F(J)| = (2 - 2^-M) 2^-M |J|
    Counted directly from the index arithmetic, no floats.
    """
    if round_index + 1 >= len(reg.placements):
        raise DomainError("need a following round inside the stage")
    p, p_next = reg.placements[round_index], reg.placements[round_index + 1]
    M = reg.record.M
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


def witness_survey_loop(schedule, S, f, alpha: float, points: int,
                        seed: int) -> tuple[int, int]:
    """The point-by-point survey that `blocks.witness_survey` batched: per
    sampled point, each stage's memberships in order, one scalar
    `f.difference` per candidate until one clears 1/20 - 1e-3."""
    from dyadosc.blocks import SpecialIntervalRegistry

    if points < 1:
        raise DomainError("need at least one sampled point")
    rng = random.Random(seed)
    regs = [SpecialIntervalRegistry(schedule, j, S)
            for j in range(min(2, len(schedule.stages)))
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
                if dd >= 0.05 - 1e-3:
                    found = True
                    break
            if found:
                break
        hits += int(found)
    return hits, points


# -- holder -----------------------------------------------------------

def loop_series(b, power, tol):
    """Frequencies and amplitudes of the series summed to tol, with the
    term count found by the loop that the closed form replaced."""
    geo = 1.0 - math.pow(b, -power)
    n = 0
    while math.pow(b, -(n + 1) * power) / geo > tol:
        n += 1
    ns = np.arange(n + 1)
    return np.power(b, ns), np.power(b, -power * ns)


def tail_bound(f, terms: int) -> float:
    """The truncation bound of a Weierstrass series cut after `terms` terms."""
    geo = 1.0 - math.pow(f.b, -f.alpha)
    return math.pow(f.b, -terms * f.alpha) / geo


# -- wavelet ----------------------------------------------------------

def _s5_d1(u: float) -> float:
    return 30.0 * u * u * (1.0 - u) * (1.0 - u)


def _s5_d2(u: float) -> float:
    return 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u)


def value_exact(w, x: Fraction) -> Fraction:
    x = Fraction(x)
    num, k, e = w._ratio(x.numerator, *_split(x.denominator))
    return Fraction(num, k << e)


def _local(w, x: float):
    """(piece, width, local t) of the piece holding |x|, or None where
    phi is flat: outside the support and on the plateaus."""
    cell = w._cell(*_float_ratio(x))
    if cell is None or not cell[4]:
        return None
    pc = cell[0]
    wd = float(pc.width)
    return pc, wd, (abs(float(x)) - float(pc.lo)) / wd


def derivative(w, x: float) -> float:
    if (at := _local(w, x)) is None:
        return 0.0
    pc, wd, t = at
    dv = float(pc.b - pc.a) / wd * _s5_d1(t)
    return dv if x >= 0 else -dv


def second_derivative(w, x: float) -> float:
    if (at := _local(w, x)) is None:
        return 0.0
    pc, wd, t = at
    return float(pc.b - pc.a) / (wd * wd) * _s5_d2(t)


def _reduce(t, k: int) -> tuple[int, int]:
    """(r, d) with r/d = 2^k t - j for the nearest integer j (ties up)."""
    t = Fraction(t)
    n, d = t.numerator << k, t.denominator
    return n - (2 * n + d) // (2 * d) * d, d


def main_derivative(f, m: int, t: float) -> float:
    total = 0.0
    for n in range(1, m):
        k = f.schedule.ks[n - 1]
        r, d = _reduce(t, k)
        total += (f.schedule.coefficient(n) * math.ldexp(1.0, k)
                  * derivative(f.wavelet, r / d))
    return total


def tail_extreme_offsets(f, x: Fraction, m: int) -> dict[str, Fraction]:
    """Extremizing offsets of the tail R_m over both scale-m annuli.

    r_plus/r_minus maximize/minimize R_m(x + t) over t in
    [2^-k_m, 2^(-k_m+1)]; rho_plus/rho_minus do the same for R_m(x - t).
    Constructed through nested plateaus and shifted by whole periods into
    the annulus, so the extreme values are exact stacked amplitudes.
    """
    x = _to_fraction(x)
    X, D = _frame(f, x)
    return {name: Fraction(_annulus_offset(f, x, X, D, m, sign, left), D)
            for name, sign, left in (("r_plus", +1, False), ("r_minus", -1, False),
                                     ("rho_plus", +1, True), ("rho_minus", -1, True))}
