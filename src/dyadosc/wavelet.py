"""Compactly supported C^2 wavelet and the superlacunary oscillator.

The base wavelet is an even piecewise-quintic function: plateau +1 around
0, plateau -1 on +-[3/8, 7/16], support [-1/2, 1/2], and vanishing
moments of order 0..2.  Two free plateau levels are solved exactly (2x2
rational linear system) so the moments vanish identically; every ramp is
a monotone smootherstep between levels in [-1, 1], which pins sup|phi| = 1
and makes the tail extremes of the oscillator exactly computable.

Frequency levels k_m are chosen so the already-built part of the series
is flat at the next scale: its derivative is small relative to the new
amplitude, and near every critical point it is small outright.  Both
clauses are certified through rigorous derivative-sum bounds (a dense
grid at the nominal step would need ~2^(k_m) points per period, so grid
search is used only as a spot check in the tests).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .dyadic import DepthCapError, DomainError, DyadicRational
from .holder import HolderFunction

# max |S5'| = 15/8 at u = 1/2 (exact); max |S5''| = 10/sqrt(3), padded up
_S5_D1_MAX = Fraction(15, 8)
_S5_D2_MAX = Fraction(57736, 10000)


@dataclass(frozen=True)
class _Piece:
    lo: Fraction
    hi: Fraction
    a: Fraction     # level at lo
    b: Fraction     # level at hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def moment0(self) -> Fraction:
        return self.width * (self.a + self.b) / 2

    def moment2(self) -> Fraction:
        # int x^2 (a + (b-a) S5(u)) dx with x = lo + w u
        w, l, a, b = self.width, self.lo, self.a, self.b
        x3 = ((l + w) ** 3 - l ** 3) / 3
        i0 = Fraction(6, 6) - Fraction(15, 5) + Fraction(10, 4)
        i1 = Fraction(6, 7) - Fraction(15, 6) + Fraction(10, 5)
        i2 = Fraction(6, 8) - Fraction(15, 7) + Fraction(10, 6)
        s = w * (l * l * i0 + 2 * l * w * i1 + w * w * i2)
        return a * x3 + (b - a) * s


# knot layout on [0, 1/2]; two levels (q, p) are solved for the moments
_KNOTS = [
    (Fraction(0), Fraction(1, 16), "one", "one"),
    (Fraction(1, 16), Fraction(3, 32), "one", "neg"),
    (Fraction(3, 32), Fraction(3, 16), "neg", "neg"),
    (Fraction(3, 16), Fraction(7, 32), "neg", "q"),
    (Fraction(7, 32), Fraction(23, 64), "q", "q"),
    (Fraction(23, 64), Fraction(3, 8), "q", "neg"),
    (Fraction(3, 8), Fraction(7, 16), "neg", "neg"),
    (Fraction(7, 16), Fraction(29, 64), "neg", "p"),
    (Fraction(29, 64), Fraction(31, 64), "p", "p"),
    (Fraction(31, 64), Fraction(1, 2), "p", "zero"),
]


def _pieces(q: Fraction, p: Fraction) -> list[_Piece]:
    """The pieces of `_KNOTS` on [0, 1/2] with free plateau levels q and p."""
    levels = {"one": Fraction(1), "neg": Fraction(-1), "zero": Fraction(0),
              "q": q, "p": p}
    return [_Piece(lo, hi, levels[a], levels[b]) for lo, hi, a, b in _KNOTS]


def _moments(pieces: list[_Piece]) -> tuple[Fraction, Fraction]:
    """Moments 0 and 2 of the pieces over [0, 1/2]."""
    return (sum((pc.moment0() for pc in pieces), Fraction(0)),
            sum((pc.moment2() for pc in pieces), Fraction(0)))


def _solve_levels() -> tuple[Fraction, Fraction]:
    """Solve the two free plateau levels for vanishing moments 0 and 2."""
    base0, base2 = _moments(_pieces(Fraction(0), Fraction(0)))
    q10, q12 = _moments(_pieces(Fraction(1), Fraction(0)))
    p10, p12 = _moments(_pieces(Fraction(0), Fraction(1)))
    cq0, cq2 = q10 - base0, q12 - base2
    cp0, cp2 = p10 - base0, p12 - base2
    det = cq0 * cp2 - cp0 * cq2
    if det == 0:
        raise DomainError("degenerate moment system")
    q = (-base0 * cp2 + cp0 * base2) / det
    p = (-cq0 * base2 + base0 * cq2) / det
    if not (abs(q) < 1 and abs(p) < 1):
        raise DomainError("free plateau levels escaped (-1, 1)")
    if _moments(_pieces(q, p)) != (0, 0):
        raise DomainError("moment solve failed")
    return q, p


def _float_ratio(x: float) -> tuple[int, int]:
    """min(|x|, 1/2) as an exact ratio (p, q): phi is even and vanishes
    from 1/2 on, so infinities read as 1/2; NaN is refused."""
    x = float(x)
    if math.isnan(x):
        raise DomainError(f"the point {x} is not finite")
    return min(abs(x), 0.5).as_integer_ratio()


# phi itself as a reference: one stage at level k = 0 with amplitude 1,
# against the zero triple (see `BaseWavelet._stage_sum`)
_UNIT_STAGE = ((0, 1.0, 0, 1, 0),)


class BaseWavelet:
    """The even C^2 piecewise-quintic base wavelet.

    sup|phi| = 1, attained exactly on the designed plateaus; moments
    0..2 vanish exactly; the derivative sup norms used by the schedule
    are exact (first) and rigorously padded (second).
    """

    def __init__(self):
        q, p = _solve_levels()
        self.q, self.p = q, p
        self.pieces = _pieces(q, p)
        self.d1_sup = max(abs(pc.b - pc.a) * _S5_D1_MAX / pc.width
                          for pc in self.pieces if pc.a != pc.b)
        self.d2_sup = max(abs(pc.b - pc.a) * _S5_D2_MAX / (pc.width * pc.width)
                          for pc in self.pieces if pc.a != pc.b)
        # every knot has denominator 64, so the cell floor(64 u) of [0, 1/2)
        # lies in one piece: (piece, 64 lo, 64 width, a D, (b - a) D, D)
        self._cells = []
        for pc in self.pieces:
            w64 = int(64 * pc.width)
            den = math.lcm(pc.a.denominator, (pc.b - pc.a).denominator)
            self._cells += [(pc, int(64 * pc.lo), w64, int(pc.a * den),
                             int((pc.b - pc.a) * den), den)] * w64

    def _stage_sum(self, ref, p: int, q: int, as_ref: bool = False):
        """sum_m c_m (psi_m(p/q) - ref_m) over the stages of `ref`, for
        integers q > 0, where psi_m(t) = phi(2^(k_m) t - j) for the nearest
        translate j.  `ref` holds one (k_m, c_m, num, K, E) per stage, the
        level, the amplitude and a reference point's stage value num / (K
        2^E); with as_ref it returns p/q's own reference instead of a sum.

        Common factors of two are stripped and q = o 2^e is split once.
        Stage k reads the point as n_k / (o 2^e') with n_k = n, e' = e - k,
        or n_k = n 2^(k-e), e' = 0 once k passes e, so its binary scale
        shrinks instead of its numerator growing, and reduces it to
        r / (o 2^e') with r = |n_k - j o 2^e'|.  The cell
        floor(64 r / (o 2^e')) names the piece (it is below 32 exactly
        inside the support), and the smootherstep is evaluated on integers
        in the loop body: with u = t / (M 2^e'), t = 64 r - lo64 o 2^e' and
        M = w64 o, S5(u) (M 2^e')^5 = t^3 (10 M^2 4^e' - 15 M 2^e' t + 6 t^2).
        The stage value is the unreduced triple num / (K 2^E) with E = 5 e',
        so K = den (w64 o)^5 is small for a dyadic point however many bits
        it has.  Each stage difference lines the two exponents up by a
        shift, multiplies only by the small K's and takes one int / int,
        which CPython rounds correctly: the float of the exact difference.
        The c_m-weighted terms are summed in stage order.
        """
        low = (p | q) & -(p | q)
        s = low.bit_length() - 1
        n, q = p >> s, q >> s
        e = (q & -q).bit_length() - 1
        o = q >> e
        cells = self._cells
        out = [] if as_ref else None
        total = 0.0
        for k, c, na, ka, ea in ref:
            nk, ek = (n, e - k) if k <= e else (n << k - e, 0)
            # the nearest translate j = floor(nk / (o 2^ek) + 1/2)
            j = ((2 * nk >> ek) + o) // (2 * o)
            r = abs(nk - (j * o << ek))
            i = ((r << 6) >> ek) // o
            if i >= 32:
                nb, kb, eb = 0, 1, 0
            else:
                _, lo64, w64, num_a, num_g, den = cells[i]
                if not num_g:
                    nb, kb, eb = num_a, den, 0
                else:
                    big_m = w64 * o
                    t = (r << 6) - (lo64 * o << ek)
                    t2 = t * t
                    m5 = big_m ** 5
                    poly = ((((10 * big_m << ek) - 15 * t) * big_m) << ek) + 6 * t2
                    nb, kb, eb = ((num_a * m5 << 5 * ek) + num_g * t2 * t * poly,
                                  den * m5, 5 * ek)
            if as_ref:
                out.append((k, c, nb, kb, eb))
            elif ea >= eb:
                total += c * (((nb * ka << ea - eb) - na * kb) / (ka * kb << ea))
            else:
                total += c * ((nb * ka - (na * kb << eb - ea)) / (ka * kb << eb))
        return out if as_ref else total

    def __call__(self, x: float) -> float:
        return self._stage_sum(_UNIT_STAGE, *_float_ratio(x))

    def moments_exact(self) -> tuple[Fraction, Fraction, Fraction]:
        """(m0, m1, m2) over the real line; all exactly zero."""
        m0, m2 = _moments(self.pieces)
        return 2 * m0, Fraction(0), 2 * m2

    # plateau geometry used by the oscillator's extreme-point search
    PLUS_PLATEAU = (Fraction(-1, 16), Fraction(1, 16))
    MINUS_PLATEAU = (Fraction(3, 8), Fraction(7, 16))


@functools.cache
def base_wavelet() -> BaseWavelet:
    return BaseWavelet()


def next_frequency_level(prev_k: int, alpha: float, eps: float,
                         d1_bound: float, d2_bound: float) -> tuple[int, dict]:
    """Minimal k >= prev_k + 4 with both flatness clauses certified.

    Clause 1: d1_bound <= eps * 2^(k (1-alpha)); clause 2: 10 * 2^-k *
    d2_bound <= eps (covers every critical-point window, since |S'| grows
    from a zero at most like ||S''|| * distance).  Empty main part makes
    both clauses vacuous.
    """
    k = prev_k + 4
    if d1_bound > 0.0:
        k1 = math.ceil(math.log2(d1_bound / eps) / (1.0 - alpha))
        while math.pow(2.0, k1 * (1.0 - alpha)) * eps < d1_bound:
            k1 += 1
        k = max(k, k1)
    if d2_bound > 0.0:
        k2 = math.ceil(math.log2(10.0 * d2_bound / eps))
        while math.ldexp(10.0 * d2_bound, -k2) > eps:
            k2 += 1
        k = max(k, k2)
    record = {
        "d1_bound": d1_bound,
        "d2_bound": d2_bound,
        "clause1_margin": eps * math.pow(2.0, k * (1.0 - alpha)) - d1_bound,
        "clause2_margin": eps - 10.0 * d2_bound * math.pow(2.0, -k),
    }
    return k, record


@dataclass
class WaveletSchedule:
    """Frequency levels k_m with per-stage certification records."""

    alpha: float
    epsilon: float
    ks: list[int]
    records: list[dict] = field(default_factory=list)

    @property
    def stages(self) -> int:
        return len(self.ks)

    def coefficient(self, m: int) -> float:
        """Amplitude 2^(-k_m alpha) of stage m (1-based)."""
        return math.pow(2.0, -self.ks[m - 1] * self.alpha)

    def tail_sum(self, m: int) -> float:
        """sum_{n >= m} 2^(-k_n alpha) over the built stages."""
        return sum(self.coefficient(n) for n in range(m, self.stages + 1))

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "k": list(self.ks),
            "records": self.records,
        }


def wavelet_schedule(alpha: float, eps: float = 1.0 / 200.0,
                     stages: int = 4) -> WaveletSchedule:
    """Build the superlacunary schedule k_1 = 1 < k_2 < ... < k_stages.

    eps may only be tightened below 1/200; stage counts are kept small
    because levels grow geometrically (factor about 2 - alpha), and a
    stage whose bounds leave the float range raises DepthCapError.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if not 0.0 < eps <= 1.0 / 200.0 + 1e-15:     # NaN fails too
        raise DomainError(f"eps must lie in (0, 1/200], not {eps}")
    if not 1 <= stages <= 6:
        raise DomainError("stages must lie in 1..6")
    w = base_wavelet()
    d1, d2 = float(w.d1_sup), float(w.d2_sup)
    ks = [1]
    records = []
    for m in range(2, stages + 1):
        try:
            b1 = sum(math.pow(2.0, k * (1.0 - alpha)) for k in ks) * d1
            b2 = sum(math.pow(2.0, k * (2.0 - alpha)) for k in ks) * d2
            k, rec = next_frequency_level(ks[-1], alpha, eps, b1, b2)
        except OverflowError as exc:
            raise DepthCapError(f"stage {m}: the flatness bounds past level "
                                f"k = {ks[-1]} leave the float range") from exc
        ks.append(k)
        records.append(rec)
    return WaveletSchedule(alpha, eps, ks, records)


class WaveletOscillator(HolderFunction):
    """f = sum_m 2^(-k_m alpha) sum_j phi(2^(k_m) t - j).

    Per scale the translates have disjoint supports, so evaluation picks
    one j per stage.  Point values and differences are one stage sum,
    `BaseWavelet._stage_sum`, of exact rational stage differences: a
    difference f(b) - f(a) reads b against a's stage values, and a value
    f(t) reads t against the point 0, whose stage values are all 0.  Only
    the final alpha-weighted sum is in floats, which preserves relative
    accuracy at every scale.
    """

    def __init__(self, schedule: WaveletSchedule):
        super().__init__(schedule.alpha, f"wavelet(stages={schedule.stages})")
        self.schedule = schedule
        self.wavelet = base_wavelet()
        zero = tuple((k, schedule.coefficient(m), 0, 1, 0)
                     for m, k in enumerate(schedule.ks, start=1))
        # _tails[m - 1]: the point 0 as a reference from stage m on
        self._tails = [zero[m:] for m in range(schedule.stages)]

    def _check_stage(self, m) -> None:
        """Refuse a stage index that is not an integer in 1..stages."""
        if not (isinstance(m, numbers.Integral) and 1 <= m <= self.schedule.stages):
            raise DomainError(f"stage {m!r} is not an integer in "
                              f"1..{self.schedule.stages}")

    def _reference(self, t: Fraction) -> list:
        """t's stage values at every built stage, as a `_stage_sum` reference."""
        return self.wavelet._stage_sum(self._tails[0], t.numerator, t.denominator,
                                       as_ref=True)

    def stage_value_exact(self, m: int, t: Fraction) -> Fraction:
        """psi_m(t) = phi(2^(k_m) t - j) for the unique live translate."""
        self._check_stage(m)
        t = _to_fraction(t)
        (_, _, num, k, e), = self.wavelet._stage_sum(self._tails[m - 1][:1], t.numerator,
                                                     t.denominator, as_ref=True)
        return Fraction(num, k << e)

    def value_float(self, t: Fraction) -> float:
        """f(t) in floats, summed over the built stages: the stage sum
        against the point 0, each stage one int / int."""
        t = _to_fraction(t)
        return self.wavelet._stage_sum(self._tails[0], t.numerator, t.denominator)

    def difference_float(self, a: Fraction, b: Fraction) -> float:
        """f(b) - f(a): b's stage sum against a's stage values, each stage
        difference exact and rounded once by one int / int, then
        alpha-weighted in floats.  The stage terms can cancel each other,
        so the error is relative to the largest term, not to the result:
        near a stage-4 zero crossing of the alpha = 1/2 schedule, stage-3
        and stage-4 terms of +-1.958e-29 cancel to about 1.9e-40, and the
        float sum cannot resolve below their last bit, 2.8e-45."""
        a, b = _to_fraction(a), _to_fraction(b)
        return self.wavelet._stage_sum(self._reference(a), b.numerator, b.denominator)

    def difference(self, a, b) -> float:
        return self.difference_float(a, b)

    def _eval(self, x):
        return self.value_float(x)


def _to_fraction(x) -> Fraction:
    """x as an exact Fraction; a NaN or infinite float is refused."""
    if isinstance(x, DyadicRational):
        return x.as_fraction()
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        raise DomainError(f"the point {x} is not finite")
    return Fraction(x)


def wavelet_oscillator(schedule: WaveletSchedule) -> WaveletOscillator:
    return WaveletOscillator(schedule)


class CertificationError(RuntimeError):
    """An extremizer or case certificate failed at the working tolerance."""


def _at(x: Fraction) -> str:
    """Where a certificate failed: the point as p/q."""
    return f"x = {x.numerator}/{x.denominator}"


def _frame(f: WaveletOscillator, x: Fraction) -> tuple[int, int]:
    """(X, D) with x = X / D, where D is a multiple of 2^(k+5) for the last
    built level k: every plateau edge and midpoint, and so every offset
    the witness search builds, is an integer numerator over D."""
    D = math.lcm(x.denominator, 1 << (f.schedule.ks[-1] + 5))
    return x.numerator * (D // x.denominator), D


def _nested_plateau_point(f: WaveletOscillator, x: Fraction, lo: int, hi: int,
                          den: int, m: int, sign: int) -> int:
    """Numerator over den of a point of [lo/den, hi/den] where every stage
    n >= m sits on its sign-plateau, so the tail R_m attains exactly
    +-(sum of amplitudes); den is a multiple of 2^(k+5) for the last
    built level k, as `_frame` makes it.

    Requires hi - lo >= 2 * 2^(-k_m) (two periods); each scale's plateau
    is then guaranteed to contain a full period of the next (k gaps are
    at least 4).
    """
    w = f.wavelet
    band = w.PLUS_PLATEAU if sign > 0 else w.MINUS_PLATEAU
    b_lo, b_hi = (16 * t.numerator // t.denominator for t in band)  # in 1/16ths
    cur_lo, cur_hi = lo, hi
    for n, k in enumerate(f.schedule.ks[m - 1:], start=m):
        # stage k's plateau edges are multiples of 2^-(k+4)
        q = den >> (k + 4)
        # least j with j + band contained in [cur_lo, cur_hi] at scale k
        j = -((b_lo * q - cur_lo) // (16 * q))
        plo = (16 * j + b_lo) * q
        phi_ = (16 * j + b_hi) * q
        if phi_ > cur_hi:
            raise CertificationError(
                f"no full stage-{n} plateau inside "
                f"[{Fraction(cur_lo, den)}, {Fraction(cur_hi, den)}] "
                f"({_at(x)}, m={m}, bracket [{Fraction(lo, den)}, {Fraction(hi, den)}])")
        cur_lo, cur_hi = plo, phi_
    return (cur_lo + cur_hi) >> 1


def _annulus_offset(f: WaveletOscillator, x: Fraction, X: int, D: int, m: int,
                    sign: int, left: bool) -> int:
    """Numerator over D of the offset t in [2^-k_m, 2^(-k_m+1)] where
    R_m(x + t) (right) or R_m(x - t) (left) is +-(sum of amplitudes), by
    sign; x = X / D as `_frame` gives it."""
    period = D >> f.schedule.ks[m - 1]
    if left:
        lo, hi = X - 3 * period, X - period
    else:
        lo, hi = X + period, X + 3 * period
    t_star = _nested_plateau_point(f, x, lo, hi, D, m, sign)
    # t_star lies in [lo, hi], so off starts in [period, 3 period]: shift
    # it by whole periods into the annulus [period, 2 period]
    off = X - t_star if left else t_star - X
    while off > 2 * period:
        off -= period
    return off


@dataclass
class WitnessScales:
    """Witness pair (h, h') for one point and stage, with certificates."""

    x: Fraction
    stage: int
    level: int                  # frequency level k of the stage
    alpha: float
    case: str                   # "i" | "ii" | "iii"
    r_plus: Fraction
    r_minus: Fraction
    rho_plus: Optional[Fraction]
    rho_minus: Optional[Fraction]
    h: Fraction                 # the big-quotient scale (signed offset)
    h_prime: Fraction           # the tame first-order scale (signed offset)
    quotient_big: float         # |f(x+h)-f(x)| / |h|
    quotient_tame: float        # |f(x+h')-f(x)| / |h'|
    divdiff_big: float          # |f(x+h)-f(x)| / |h|^alpha
    tail_sum: float
    h_side: str                 # "right" | "left"
    h_prime_side: str

    def scale_reference(self) -> float:
        """2^(k (1-alpha)): the growth scale the big quotient is held to."""
        return math.pow(2.0, self.level * (1.0 - self.alpha))


def _bisect_zero(f: WaveletOscillator, x: Fraction, X: int, D: int, rx: list,
                 m: int, lo: tuple[int, float], hi: tuple[int, float]) -> tuple[int, int]:
    """Offset t = c / den between t_lo / D and t_hi / D with
    |f(x+t)-f(x)| <= 1e-4 |t|, within 200 bisection steps.

    x = X / D, rx is x's `_stage_sum` reference, and lo and hi are the
    bracket's ends (t_lo, g_lo) and (t_hi, g_hi), with g = f(x+t) - f(x)
    as the caller read it.  Offsets and points x + t are integer
    numerators over one denominator that doubles at each step, so a step
    costs additions and one stage sum.
    """
    kernel = f.wavelet._stage_sum
    (t_lo, g_lo), (t_hi, g_hi) = lo, hi
    if g_lo == 0.0:
        return t_lo, D
    if g_hi == 0.0:
        return t_hi, D

    def where() -> str:
        return f"{_at(x)}, m={m}, bracket [{Fraction(t_lo, D)}, {Fraction(t_hi, D)}]"

    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        raise CertificationError(f"no sign change for the zero crossing ({where()})")
    a, b, den = t_lo, t_hi, D
    pa, pb = X + a, X + b
    for _ in range(200):
        c, pc = a + b, pa + pb
        den *= 2
        g_mid = kernel(rx, pc, den)
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


def witness_scales(f: WaveletOscillator, x, m: int) -> WitnessScales:
    """Locate the stage-m witness pair (h_m, h'_m) at the point x.

    Follows the right-annulus extremes of the tail and the three-way
    case split on their first-order quotients; case (iii) moves to the
    left annulus.  x's stage values are read once, and every later read
    is one stage sum against them: the case quotients, whose values are
    the case-(ii) bisection's ends, the bisection and the two
    certificates.  The search runs on integer numerators over x's frame.
    All offsets are exact dyadic rationals, and the returned quotients
    are certificates, evaluated afresh at the final offsets.
    """
    f._check_stage(m)
    x = _to_fraction(x)
    k = f.schedule.ks[m - 1]
    X, D = _frame(f, x)
    r_p = _annulus_offset(f, x, X, D, m, +1, False)
    r_m_ = _annulus_offset(f, x, X, D, m, -1, False)
    tail = f.schedule.tail_sum(m)
    kernel = f.wavelet._stage_sum
    rx = f._reference(x)

    def g(offset: int) -> float:
        return kernel(rx, X + offset, D)

    def tail_at(offset: int, den: int) -> float:
        return kernel(f._tails[m - 1], X * (den // D) + offset, den)

    g_p, g_m = g(r_p), g(r_m_)
    q_p, q_m = g_p / (r_p / D), g_m / (r_m_ / D)
    rho_p = rho_m_ = None

    if abs(q_p) <= 1.0 or abs(q_m) <= 1.0:
        case = "i"
        h_prime, h = (r_p, r_m_) if abs(q_p) <= 1.0 else (r_m_, r_p)
        h_den = D
    elif (q_p > 1.0 and q_m < -1.0) or (q_p < -1.0 and q_m > 1.0):
        case = "ii"
        h_prime, h_den = _bisect_zero(f, x, X, D, rx, m, *sorted([(r_p, g_p), (r_m_, g_m)]))
        # the side whose tail moved further from the crossing
        t_tilde = tail_at(h_prime, h_den)
        move_p = abs(t_tilde - tail_at(r_p, D))
        move_m = abs(t_tilde - tail_at(r_m_, D))
        h = r_p if move_p >= move_m else r_m_
    else:
        case = "iii"
        rho_p = _annulus_offset(f, x, X, D, m, +1, True)
        rho_m_ = _annulus_offset(f, x, X, D, m, -1, True)
        h = -rho_p if q_p > 1.0 else -rho_m_
        h_prime, h_den = _bisect_zero(f, x, X, D, rx, m, *sorted(
            [(-rho_p, g(-rho_p)), (-rho_m_, g(-rho_m_))]))
        rho_p, rho_m_ = Fraction(rho_p, D), Fraction(rho_m_, D)

    # the certificates: fresh stage sums at x + h and x + h'
    d_big = g(h)
    d_tame = kernel(rx, X * (h_den // D) + h_prime, h_den)
    h, h_prime = Fraction(h, D), Fraction(h_prime, h_den)
    quotient_big = abs(d_big) / abs(float(h))
    quotient_tame = abs(d_tame) / abs(float(h_prime))
    divdiff_big = abs(d_big) / abs(float(h)) ** f.alpha
    return WitnessScales(
        x=x, stage=m, level=k, alpha=f.alpha, case=case,
        r_plus=Fraction(r_p, D), r_minus=Fraction(r_m_, D),
        rho_plus=rho_p, rho_minus=rho_m_, h=h, h_prime=h_prime,
        quotient_big=quotient_big, quotient_tame=quotient_tame,
        divdiff_big=divdiff_big, tail_sum=tail,
        h_side="right" if h > 0 else "left",
        h_prime_side="right" if h_prime > 0 else "left",
    )
