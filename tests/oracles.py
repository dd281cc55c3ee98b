"""Test-only oracles and readers, moved out of the library.

No library code calls these.  Each is what a test compares a library
path against, or the entry through which a test reads a library kernel:
the greedy Whitney walk, the walk `levels`, the whole-level mass sweep,
the special-interval registry, the point-by-point witness survey, the
Weierstrass term loop, the wavelet's cell lookup and its per-stage
ratio kernel with the stage sum over two lists of triples, the witness
search built on them, its annulus offsets, the tracking pass with
one antiderivative call per octave, the martingale built from a
per-child increment callable, the bit walk of the integral of a
martingale along one address and its per-pair loop, and the
divided-difference martingale on jumps read one cell at a time.  The code is the
library's, except the Whitney walk, restated on Fractions; a method
became a function of its instance, and `ratio_exact` reads the
measure's float eta, the one its masses use.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Optional

import numpy as np

from dyadosc import divdiff, entropy, martingale
from dyadosc.dyadic import (DepthCapError, DomainError, DyadicInterval, DyadicRational,
                            unit_interval)
from dyadosc.wavelet import (CertificationError, WitnessScales, _annulus_offset, _at,
                             _frame, _to_fraction)


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


# -- martingale -------------------------------------------------------

class IncrementOracleMartingale(martingale.Martingale):
    """The base martingale as it was built from a per-child increment
    callable, which must return exactly opposite values on the two
    children of any interval: `value` sums the jumps along the ancestor
    chain from S_0, and the hook is the scalar loop over `increment`."""

    def __init__(self, increment_fn, **kw):
        super().__init__(**kw)
        self._increment_fn = increment_fn

    def _inc(self, child: DyadicInterval):
        return self._increment_fn(child)

    def value(self, I: DyadicInterval):
        self._check_range(I.level, I.index, I.index + 1)
        v = self.s0
        for lvl in range(1, I.level + 1):
            v = v + self.increment(I.ancestor(lvl))
        return v

    def _level_increments(self, n: int, parents: np.ndarray) -> np.ndarray:
        return np.array([self.increment(DyadicInterval(n, j)) for p in parents.tolist()
                         for j in (2 * p, 2 * p + 1)], dtype=float)


def bit_walk_primitive(S, start: DyadicInterval, s_start: float, bits: int,
                       depth: int) -> float:
    """Integral of S from the left endpoint of `start` to the point whose
    `depth` address bits below `start` are `bits`, as the base
    `Martingale.primitive` walked it: `s_start` is S(start), and each 1-bit
    at level i adds 2^-i S(left sibling) on the way down, one `increment`
    call per address bit and a second per 1-bit."""
    acc = 0.0
    cur = start
    s_cur = s_start
    for k in range(depth - 1, -1, -1):
        bit = (bits >> k) & 1
        left = DyadicInterval(cur.level + 1, 2 * cur.index)
        inc_left = S.increment(left)
        if bit == 0:
            cur = left
            s_cur = s_cur + inc_left
        else:
            acc += math.ldexp(s_cur + inc_left, -left.level)
            right = DyadicInterval(left.level, left.index + 1)
            s_cur = s_cur + S.increment(right)
            cur = right
    return acc


def pair_split(S, a: int, b: int, depth: int, primitive=bit_walk_primitive):
    """The base `Martingale.pair_primitive` as it was composed: (S(anc), ga,
    gb) at the deepest common dyadic ancestor anc of the numerators a, b,
    by `value` and two calls `primitive(S, anc, S(anc), bits, depth)`."""
    bits = (a ^ b).bit_length()
    anc = DyadicInterval(depth - bits, a >> bits)
    s = S.value(anc)
    mask = (1 << bits) - 1
    return (s, primitive(S, anc, s, a & mask, bits), primitive(S, anc, s, b & mask, bits))


def pair_loop(S, ia: np.ndarray, ib: np.ndarray, depth: int, split=pair_split):
    """The base `Martingale.pair_primitives` as it was: one `split(S, a, b,
    depth)` per address pair, as three float arrays."""
    out = np.empty((3, len(ia)))
    for j, (a, b) in enumerate(zip(ia.tolist(), ib.tolist())):
        out[:, j] = split(S, a, b, depth)
    return out[0], out[1], out[2]


def value_difference_martingale(S) -> IncrementOracleMartingale:
    """The divided-difference martingale `S` (a `from_function` kind) on
    the jump it had before its hook, S_n(child) - S_{n-1}(parent), one
    cell at a time.  The values come from whole-level range reads, kept;
    tests/test_martingale.py pins those to the one-cell `value` reads."""
    level = functools.cache(S.level_values)
    return IncrementOracleMartingale(
        lambda ch: float(level(ch.level)[ch.index] - level(ch.level - 1)[ch.index >> 1]),
        s0=S.s0, max_depth=S.max_depth, name=S.name)


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


def _split(d: int) -> tuple[int, int]:
    """(o, e) with d = o 2^e and o odd, for an integer d > 0."""
    e = (d & -d).bit_length() - 1
    return d >> e, e


def float_ratio(x: float) -> tuple[int, int, int]:
    """|x| as an exact ratio r / (o 2^e) in the form (r, o, e); infinities
    read as 1/2, outside the support."""
    r, d = min(abs(float(x)), 0.5).as_integer_ratio()
    return (r, *_split(d))


def cell(w, r: int, o: int, e: int):
    """Cell entry of the piece holding r / (o 2^e) (r >= 0, o > 0), or
    None outside the support: floor(64 u) < 32 exactly when u < 1/2."""
    i = ((r << 6) >> e) // o
    return w._cells[i] if i < 32 else None


def ratio(w, r: int, o: int, e: int) -> tuple[int, int, int]:
    """phi(r / (o 2^e)) as an unreduced triple (num, K, E), meaning
    num / (K 2^E), for integers o > 0 and e >= 0.

    The binary scale stays in E = 5e, so K = den (w64 o)^5 is small for
    a dyadic point (o = 1) however many bits it has."""
    r = abs(r)
    at = cell(w, r, o, e)
    if at is None:
        return 0, 1, 0
    _, lo64, w64, num_a, num_g, den = at
    if not num_g:
        return num_a, den, 0
    # u = (r / (o 2^e) - lo) / width = n / (M 2^e) with M = w64 o, and
    # S5(u) (M 2^e)^5 = n^3 (10 M^2 4^e - 15 M 2^e n + 6 n^2)
    big_m = w64 * o
    n = (r << 6) - (lo64 * o << e)
    n2 = n * n
    m5 = big_m ** 5
    poly = ((((10 * big_m << e) - 15 * n) * big_m) << e) + 6 * n2
    return (num_a * m5 << 5 * e) + num_g * n2 * n * poly, den * m5, 5 * e


def base_call(w, x: float) -> float:
    """phi(x) for a float x: one ratio kernel call and one int / int."""
    num, k, e = ratio(w, *float_ratio(x))
    return num / (k << e)


def ratios(f, n: int, d: int, lo: int = 1) -> list[tuple[int, int, int]]:
    """psi_m(n/d) for stage lo and every later stage as `ratio` triples,
    for integers d > 0, after the zero triple (0, 1, 0) for each stage
    below lo.  Common factors of two are stripped and d = o 2^e is split
    once; stage k reads the point as n / (o 2^(e-k)), or (n 2^(k-e)) / o
    once k passes e, so its binary scale shrinks instead of its numerator
    growing."""
    low = (n | d) & -(n | d)
    s = low.bit_length() - 1
    n, (o, e) = n >> s, _split(d >> s)
    out = [(0, 1, 0)] * (lo - 1)
    for k in f.schedule.ks[lo - 1:]:
        nk, ek = (n, e - k) if k <= e else (n << k - e, 0)
        # the nearest translate j = floor(nk / (o 2^ek) + 1/2)
        j = ((2 * nk >> ek) + o) // (2 * o)
        out.append(ratio(f.wavelet, nk - (j * o << ek), o, ek))
    return out


def stage_difference(f, ra: list, rb: list) -> float:
    """sum_m c_m (psi_m(b) - psi_m(a)) from both points' stage triples,
    summed in stage order.  Each stage lines the two binary exponents up
    by a shift, multiplies only by the small K's and takes one int / int,
    which CPython rounds correctly: the float of the exact stage
    difference."""
    total = 0.0
    coefficients = [f.schedule.coefficient(m) for m in range(1, f.schedule.stages + 1)]
    for c, (na, ka, ea), (nb, kb, eb) in zip(coefficients, ra, rb):
        if ea >= eb:
            total += c * (((nb * ka << ea - eb) - na * kb) / (ka * kb << ea))
        else:
            total += c * ((nb * ka - (na * kb << eb - ea)) / (ka * kb << eb))
    return total


def tail(f, n: int, d: int, lo: int = 1) -> float:
    """f's stage sum at n/d from stage `lo` on: the value f(n/d) without
    the stages below `lo`, as the difference from the point 0."""
    zeros = [(0, 1, 0)] * f.schedule.stages
    return stage_difference(f, zeros, ratios(f, n, d, lo))


def value_exact(w, x: Fraction) -> Fraction:
    x = Fraction(x)
    num, k, e = ratio(w, x.numerator, *_split(x.denominator))
    return Fraction(num, k << e)


def _local(w, x: float):
    """(piece, width, local t) of the piece holding |x|, or None where
    phi is flat: outside the support and on the plateaus."""
    at = cell(w, *float_ratio(x))
    if at is None or not at[4]:
        return None
    pc = at[0]
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


def bisect_zero(f, x: Fraction, X: int, D: int, rx: list, m: int, t_lo: int,
                t_hi: int) -> tuple[int, int]:
    """Offset t = c / den between t_lo / D and t_hi / D with
    |f(x+t)-f(x)| <= 1e-4 |t|, within 200 bisection steps; x = X / D and
    rx holds x's stage triples.  Both ends are evaluated here."""
    def g(p: int, q: int) -> float:
        return stage_difference(f, rx, ratios(f, p, q))

    a, b, den = t_lo, t_hi, D
    pa, pb = X + a, X + b
    g_lo, g_hi = g(pa, den), g(pb, den)
    if g_lo == 0.0:
        return t_lo, D
    if g_hi == 0.0:
        return t_hi, D

    def where() -> str:
        return f"{_at(x)}, m={m}, bracket [{Fraction(t_lo, D)}, {Fraction(t_hi, D)}]"

    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        raise CertificationError(f"no sign change for the zero crossing ({where()})")
    for _ in range(200):
        c, pc = a + b, pa + pb
        den *= 2
        g_mid = g(pc, den)
        if abs(g_mid) <= 1e-4 * abs(c / den):
            return c, den
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            a, pa, g_lo = c, pc, g_mid
            b, pb = 2 * b, 2 * pb
        else:
            a, pa = 2 * a, 2 * pa
            b, pb = c, pc
    raise CertificationError(
        f"zero crossing did not converge in 200 steps ({where()})")


def witness_scales_lists(f, x, m: int) -> WitnessScales:
    """The witness search on lists of stage triples: x's triples read once
    for the case quotients and the bisection, each bisection end
    evaluated again, and the certificates from `difference` at x + h and
    x + h', each reading x's triples afresh."""
    x = _to_fraction(x)
    k = f.schedule.ks[m - 1]
    X, D = _frame(f, x)
    r_p = _annulus_offset(f, x, X, D, m, +1, False)
    r_m_ = _annulus_offset(f, x, X, D, m, -1, False)
    rx = ratios(f, x.numerator, x.denominator)

    def quot(offset: int) -> float:
        return stage_difference(f, rx, ratios(f, X + offset, D)) / (offset / D)

    def tail_at(offset: int, den: int) -> float:
        return tail(f, X * (den // D) + offset, den, m)

    def difference(a: Fraction, b: Fraction) -> float:
        return stage_difference(f, ratios(f, a.numerator, a.denominator),
                                ratios(f, b.numerator, b.denominator))

    q_p, q_m = quot(r_p), quot(r_m_)
    rho_p = rho_m_ = None
    if abs(q_p) <= 1.0 or abs(q_m) <= 1.0:
        case = "i"
        h_prime, h = (r_p, r_m_) if abs(q_p) <= 1.0 else (r_m_, r_p)
        h_den = D
    elif (q_p > 1.0 and q_m < -1.0) or (q_p < -1.0 and q_m > 1.0):
        case = "ii"
        h_prime, h_den = bisect_zero(f, x, X, D, rx, m, min(r_p, r_m_), max(r_p, r_m_))
        t_tilde = tail_at(h_prime, h_den)
        move_p = abs(t_tilde - tail_at(r_p, D))
        move_m = abs(t_tilde - tail_at(r_m_, D))
        h = r_p if move_p >= move_m else r_m_
    else:
        case = "iii"
        rho_p = _annulus_offset(f, x, X, D, m, +1, True)
        rho_m_ = _annulus_offset(f, x, X, D, m, -1, True)
        h = -rho_p if q_p > 1.0 else -rho_m_
        h_prime, h_den = bisect_zero(f, x, X, D, rx, m, min(-rho_p, -rho_m_),
                                     max(-rho_p, -rho_m_))
        rho_p, rho_m_ = Fraction(rho_p, D), Fraction(rho_m_, D)

    h, h_prime = Fraction(h, D), Fraction(h_prime, h_den)
    d_big = difference(x, x + h)
    d_tame = difference(x, x + h_prime)
    return WitnessScales(
        x=x, stage=m, level=k, alpha=f.alpha, case=case,
        r_plus=Fraction(r_p, D), r_minus=Fraction(r_m_, D),
        rho_plus=rho_p, rho_minus=rho_m_, h=h, h_prime=h_prime,
        quotient_big=abs(d_big) / abs(float(h)),
        quotient_tame=abs(d_tame) / abs(float(h_prime)),
        divdiff_big=abs(d_big) / abs(float(h)) ** f.alpha,
        tail_sum=f.schedule.tail_sum(m),
        h_side="right" if h > 0 else "left",
        h_prime_side="right" if h_prime > 0 else "left")


# -- divdiff ------------------------------------------------------------

def tracking_per_octave(f, alpha: float, intervals, cutoff_extra: int, quad):
    """`divdiff._tracking` with one antiderivative call per octave on the
    rows of the endpoints that reach it, the loop the stacked octave
    groups replaced."""
    if cutoff_extra < 1:
        raise DomainError("cutoff_extra must be at least 1")
    m = quad.panels_per_octave
    intervals = sorted(dict.fromkeys(intervals), key=lambda I: -I.level)
    uppers = np.array([I.level + cutoff_extra for I in intervals])
    reach: dict[float, int] = {}
    for I, U in zip(intervals, uppers.tolist()):
        reach.setdefault(float(I.left), U)
        reach.setdefault(float(I.right), U)
    position = {e: i for i, e in enumerate(reach)}
    left = np.array([position[float(I.left)] for I in intervals])
    right = np.array([position[float(I.right)] for I in intervals])
    divdiff._check_cells(f, max(len(reach), int(uppers[0])), 2 * m + 1,
                         f"panels_per_octave = {m}")
    ends, spans = np.array(list(reach)), np.array(list(reach.values()))
    anti = f.antiderivative_batch(ends[:, None])
    lo = np.arange(uppers[0], dtype=float)
    u = divdiff._octave_nodes(lo, lo + 1.0, m)
    hs, weights = np.exp2(-u), np.exp2(alpha * u)
    scale = np.ldexp(1.0, [I.level for I in intervals])[:, None]
    totals = np.zeros(len(intervals))
    for j in range(len(lo)):
        live, rows = np.count_nonzero(uppers > j), np.count_nonzero(spans > j)
        R = f.antiderivative_batch(ends[:rows, None] + hs[j]) - anti[:rows]
        vals = scale[:live] * (R[right[:live]] - R[left[:live]]) * weights[j] * divdiff.LN2
        totals[:live] += divdiff._simpson(vals, 1.0 / m)
    return dict(zip(intervals, totals))
