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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .dyadic import DomainError, DyadicRational
from .holder import HolderFunction

HALF = Fraction(1, 2)

# max |S5'| = 15/8 at u = 1/2 (exact); max |S5''| = 10/sqrt(3), padded up
_S5_D1_MAX = Fraction(15, 8)
_S5_D2_MAX = Fraction(57736, 10000)


def _s5(u: Fraction) -> Fraction:
    """Quintic smootherstep: 6u^5 - 15u^4 + 10u^3 on [0, 1]."""
    return u * u * u * (10 + u * (-15 + 6 * u))


def _s5_d1(u: float) -> float:
    return 30.0 * u * u * (1.0 - u) * (1.0 - u)


def _s5_d2(u: float) -> float:
    return 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u)


@dataclass(frozen=True)
class _Piece:
    lo: Fraction
    hi: Fraction
    a: Fraction     # level at lo
    b: Fraction     # level at hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def value(self, x: Fraction) -> Fraction:
        if self.a == self.b:
            return self.a
        u = (x - self.lo) / self.width
        return self.a + (self.b - self.a) * _s5(u)

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


def _solve_levels() -> tuple[Fraction, Fraction]:
    """Solve the two free plateau levels for vanishing moments 0 and 2."""
    levels = {"one": Fraction(1), "neg": Fraction(-1), "zero": Fraction(0)}

    def moments(q: Fraction, p: Fraction) -> tuple[Fraction, Fraction]:
        levels_qp = dict(levels, q=q, p=p)
        m0 = Fraction(0)
        m2 = Fraction(0)
        for lo, hi, a, b in _KNOTS:
            piece = _Piece(lo, hi, levels_qp[a], levels_qp[b])
            m0 += piece.moment0()
            m2 += piece.moment2()
        return m0, m2

    base0, base2 = moments(Fraction(0), Fraction(0))
    q10, q12 = moments(Fraction(1), Fraction(0))
    p10, p12 = moments(Fraction(0), Fraction(1))
    cq0, cq2 = q10 - base0, q12 - base2
    cp0, cp2 = p10 - base0, p12 - base2
    det = cq0 * cp2 - cp0 * cq2
    if det == 0:
        raise DomainError("degenerate moment system")
    q = (-base0 * cp2 + cp0 * base2) / det
    p = (-cq0 * base2 + base0 * cq2) / det
    if not (abs(q) < 1 and abs(p) < 1):
        raise DomainError("free plateau levels escaped (-1, 1)")
    m0, m2 = moments(q, p)
    if m0 != 0 or m2 != 0:
        raise DomainError("moment solve failed")
    return q, p


class BaseWavelet:
    """The even C^2 piecewise-quintic base wavelet.

    sup|phi| = 1, attained exactly on the designed plateaus; moments
    0..2 vanish exactly; the derivative sup norms used by the schedule
    are exact (first) and rigorously padded (second).
    """

    def __init__(self):
        q, p = _solve_levels()
        self.q, self.p = q, p
        levels = {"one": Fraction(1), "neg": Fraction(-1), "zero": Fraction(0),
                  "q": q, "p": p}
        self.pieces = [
            _Piece(lo, hi, levels[a], levels[b]) for lo, hi, a, b in _KNOTS
        ]
        self.d1_sup = max(abs(pc.b - pc.a) * _S5_D1_MAX / pc.width
                          for pc in self.pieces if pc.a != pc.b)
        self.d2_sup = max(abs(pc.b - pc.a) * _S5_D2_MAX / (pc.width * pc.width)
                          for pc in self.pieces if pc.a != pc.b)

    def _piece_at(self, u: Fraction) -> Optional[_Piece]:
        for pc in self.pieces:
            if pc.lo <= u <= pc.hi:
                return pc
        return None

    def value_exact(self, x: Fraction) -> Fraction:
        u = abs(Fraction(x))
        if u >= HALF:
            return Fraction(0)
        pc = self._piece_at(u)
        if pc is None:
            raise DomainError(f"no piece at {u}")
        return pc.value(u)

    def __call__(self, x: float) -> float:
        u = abs(float(x))
        if u >= 0.5:
            return 0.0
        return float(self.value_exact(Fraction(u)))

    def batch(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self(float(x)) for x in np.atleast_1d(xs)])

    def derivative(self, x: float) -> float:
        u = abs(float(x))
        if u >= 0.5:
            return 0.0
        pc = self._piece_at(Fraction(u))
        if pc is None or pc.a == pc.b:
            return 0.0
        w = float(pc.width)
        t = (u - float(pc.lo)) / w
        d = float(pc.b - pc.a) / w * _s5_d1(t)
        return d if x >= 0 else -d

    def second_derivative(self, x: float) -> float:
        u = abs(float(x))
        if u >= 0.5:
            return 0.0
        pc = self._piece_at(Fraction(u))
        if pc is None or pc.a == pc.b:
            return 0.0
        w = float(pc.width)
        t = (u - float(pc.lo)) / w
        return float(pc.b - pc.a) / (w * w) * _s5_d2(t)

    def moments_exact(self) -> tuple[Fraction, Fraction, Fraction]:
        """(m0, m1, m2) over the real line; all exactly zero."""
        m0 = 2 * sum((pc.moment0() for pc in self.pieces), Fraction(0))
        m2 = 2 * sum((pc.moment2() for pc in self.pieces), Fraction(0))
        return m0, Fraction(0), m2

    # plateau geometry used by the oscillator's extreme-point search
    PLUS_PLATEAU = (Fraction(-1, 16), Fraction(1, 16))
    MINUS_PLATEAU = (Fraction(3, 8), Fraction(7, 16))


_BASE: Optional[BaseWavelet] = None


def base_wavelet() -> BaseWavelet:
    global _BASE
    if _BASE is None:
        _BASE = BaseWavelet()
    return _BASE


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
    because levels grow geometrically (factor about 2 - alpha).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if eps > 1.0 / 200.0 + 1e-15:
        raise DomainError("eps must be at most 1/200")
    if not 1 <= stages <= 6:
        raise DomainError("stages must lie in 1..6")
    w = base_wavelet()
    d1, d2 = float(w.d1_sup), float(w.d2_sup)
    ks = [1]
    records = []
    for _ in range(2, stages + 1):
        b1 = sum(math.pow(2.0, k * (1.0 - alpha)) for k in ks) * d1
        b2 = sum(math.pow(2.0, k * (2.0 - alpha)) for k in ks) * d2
        k, rec = next_frequency_level(ks[-1], alpha, eps, b1, b2)
        ks.append(k)
        records.append(rec)
    return WaveletSchedule(alpha, eps, ks, records)


class WaveletOscillator(HolderFunction):
    """f = sum_m 2^(-k_m alpha) sum_j phi(2^(k_m) t - j).

    Per scale the translates have disjoint supports, so evaluation picks
    one j per stage.  Point values and differences route through exact
    rational wavelet evaluations; only the final alpha-weighted sum is in
    floats, which preserves relative accuracy at every scale.
    """

    def __init__(self, schedule: WaveletSchedule):
        super().__init__(schedule.alpha, f"wavelet(stages={schedule.stages})")
        self.schedule = schedule
        self.wavelet = base_wavelet()

    def stage_value_exact(self, m: int, t: Fraction) -> Fraction:
        """psi_m(t) = phi(2^(k_m) t - j) for the unique live translate."""
        k = self.schedule.ks[m - 1]
        arg = Fraction(t) * (1 << k)
        j = math.floor(arg + HALF)
        return self.wavelet.value_exact(arg - j)

    def value_float(self, t: Fraction, lo_stage: int = 1,
                    hi_stage: Optional[int] = None) -> float:
        hi = self.schedule.stages if hi_stage is None else hi_stage
        total = 0.0
        for m in range(lo_stage, hi + 1):
            total += self.schedule.coefficient(m) * float(self.stage_value_exact(m, t))
        return total

    def main_part(self, m: int, t: Fraction) -> float:
        """S_m(t): stages strictly before m."""
        return self.value_float(t, 1, m - 1)

    def tail_part(self, m: int, t: Fraction) -> float:
        """R_m(t): stages m and beyond (within the built schedule)."""
        return self.value_float(t, m, self.schedule.stages)

    def main_derivative(self, m: int, t: float) -> float:
        total = 0.0
        for n in range(1, m):
            k = self.schedule.ks[n - 1]
            arg = Fraction(t) * (1 << k)
            j = math.floor(arg + HALF)
            u = float(arg - j)
            total += (self.schedule.coefficient(n) * math.ldexp(1.0, k)
                      * self.wavelet.derivative(u))
        return total

    def difference_float(self, a: Fraction, b: Fraction) -> float:
        """f(b) - f(a): per-stage exact differences, alpha-weighted in
        floats (no large-term cancellation)."""
        total = 0.0
        for m in range(1, self.schedule.stages + 1):
            d = self.stage_value_exact(m, b) - self.stage_value_exact(m, a)
            total += self.schedule.coefficient(m) * float(d)
        return total

    def difference(self, a, b, tol: Optional[float] = None) -> float:
        return self.difference_float(_to_fraction(a), _to_fraction(b))

    def _eval(self, x, tol):
        return self.value_float(Fraction(x))

    def batch(self, xs, tol=None):
        return np.array([self.value_float(Fraction(float(x)))
                         for x in np.atleast_1d(xs)])

    def truncation_tail_bound(self) -> float:
        """Amplitude available to unbuilt stages: geometric continuation
        of 2^(-k alpha) from the gap pattern (reported, not absorbed)."""
        ks = self.schedule.ks
        if len(ks) < 2:
            return math.pow(2.0, -(ks[-1] + 4) * self.alpha) / (
                1.0 - math.pow(2.0, -4 * self.alpha))
        gap = ks[-1] - ks[-2]
        first = math.pow(2.0, -(ks[-1] + gap) * self.alpha)
        return first / (1.0 - math.pow(2.0, -gap * self.alpha))


def _to_fraction(x) -> Fraction:
    if isinstance(x, DyadicRational):
        return x.as_fraction()
    return Fraction(x)


def wavelet_oscillator(schedule: WaveletSchedule) -> WaveletOscillator:
    return WaveletOscillator(schedule)


class CertificationError(RuntimeError):
    """An extremizer or case certificate failed at the working tolerance."""


def _nested_plateau_point(f: WaveletOscillator, lo: Fraction, hi: Fraction,
                          m: int, sign: int) -> Fraction:
    """A point of [lo, hi] where every stage n >= m sits on its sign-
    plateau, so the tail R_m attains exactly +-(sum of amplitudes).

    Requires hi - lo >= 2 * 2^(-k_m) (two periods); each scale's plateau
    is then guaranteed to contain a full period of the next (k gaps are
    at least 4).
    """
    w = f.wavelet
    band = w.PLUS_PLATEAU if sign > 0 else w.MINUS_PLATEAU
    cur_lo, cur_hi = Fraction(lo), Fraction(hi)
    for n in range(m, f.schedule.stages + 1):
        k = f.schedule.ks[n - 1]
        scale = Fraction(1, 1 << k)
        # least j with j + band contained in [cur_lo, cur_hi] at scale k
        j = math.ceil(cur_lo / scale - band[0])
        plo = (j + band[0]) * scale
        phi_ = (j + band[1]) * scale
        if phi_ > cur_hi:
            raise CertificationError(
                f"no full stage-{n} plateau inside [{cur_lo}, {cur_hi}]")
        cur_lo, cur_hi = plo, phi_
    return (cur_lo + cur_hi) / 2


def tail_extreme_offsets(f: WaveletOscillator, x: Fraction, m: int
                         ) -> dict[str, Fraction]:
    """Extremizing offsets of the tail R_m over both scale-m annuli.

    r_plus/r_minus maximize/minimize R_m(x + t) over t in
    [2^-k_m, 2^(-k_m+1)]; rho_plus/rho_minus do the same for R_m(x - t).
    Constructed through nested plateaus and shifted by whole periods into
    the annulus, so the extreme values are exact stacked amplitudes.
    """
    k = f.schedule.ks[m - 1]
    period = Fraction(1, 1 << k)
    out: dict[str, Fraction] = {}
    for name, sign, left in (("r_plus", +1, False), ("r_minus", -1, False),
                             ("rho_plus", +1, True), ("rho_minus", -1, True)):
        if left:
            lo, hi = x - 3 * period, x - period
        else:
            lo, hi = x + period, x + 3 * period
        t_star = _nested_plateau_point(f, lo, hi, m, sign)
        if left:
            # shift into [x - 2 period, x - period]
            while t_star < x - 2 * period:
                t_star += period
            while t_star > x - period:
                t_star -= period
            out[name] = x - t_star
        else:
            while t_star > x + 2 * period:
                t_star -= period
            while t_star < x + period:
                t_star += period
            out[name] = t_star - x
    return out


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


def _bisect_zero(f: WaveletOscillator, x: Fraction, t_lo: Fraction,
                 t_hi: Fraction, tol_rel: float = 1e-4,
                 max_steps: int = 200) -> Fraction:
    """Offset t between t_lo, t_hi with |f(x+t)-f(x)| <= tol_rel * |t|."""
    g_lo = f.difference_float(x, x + t_lo)
    g_hi = f.difference_float(x, x + t_hi)
    if g_lo == 0.0:
        return t_lo
    if g_hi == 0.0:
        return t_hi
    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        raise CertificationError("no sign change for the zero crossing")
    for _ in range(max_steps):
        mid = (t_lo + t_hi) / 2
        g_mid = f.difference_float(x, x + mid)
        if abs(g_mid) <= tol_rel * abs(float(mid)):
            return mid
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            t_lo, g_lo = mid, g_mid
        else:
            t_hi, g_hi = mid, g_mid
    raise CertificationError("zero crossing did not converge")


def witness_scales(f: WaveletOscillator, x, m: int) -> WitnessScales:
    """Locate the stage-m witness pair (h_m, h'_m) at the point x.

    Follows the right-annulus extremes of the tail and the three-way
    case split on their first-order quotients; case (iii) moves to the
    left annulus.  All offsets are exact dyadic rationals and the
    returned quotients are recomputed from scratch as certificates.
    """
    if not 1 <= m <= f.schedule.stages:
        raise DomainError("stage beyond the built schedule")
    x = _to_fraction(x)
    k = f.schedule.ks[m - 1]
    offs = tail_extreme_offsets(f, x, m)
    r_p, r_m_ = offs["r_plus"], offs["r_minus"]
    tail = f.schedule.tail_sum(m)

    def quot(offset: Fraction) -> float:
        return f.difference_float(x, x + offset) / float(offset)

    q_p, q_m = quot(r_p), quot(r_m_)
    rho_p = rho_m_ = None

    if abs(q_p) <= 1.0 or abs(q_m) <= 1.0:
        case = "i"
        if abs(q_p) <= 1.0:
            h_prime, h = r_p, r_m_
        else:
            h_prime, h = r_m_, r_p
    elif (q_p > 1.0 and q_m < -1.0) or (q_p < -1.0 and q_m > 1.0):
        case = "ii"
        lo, hi = (r_m_, r_p) if r_m_ < r_p else (r_p, r_m_)
        h_prime = _bisect_zero(f, x, lo, hi)
        # the side whose tail moved further from the crossing
        t_tilde = f.tail_part(m, x + h_prime)
        move_p = abs(t_tilde - f.tail_part(m, x + r_p))
        move_m = abs(t_tilde - f.tail_part(m, x + r_m_))
        h = r_p if move_p >= move_m else r_m_
    else:
        case = "iii"
        offs_l = offs
        rho_p, rho_m_ = offs_l["rho_plus"], offs_l["rho_minus"]
        if q_p > 1.0:
            h = -rho_p
        else:
            h = -rho_m_
        lo, hi = (-rho_m_, -rho_p) if -rho_m_ < -rho_p else (-rho_p, -rho_m_)
        h_prime = _bisect_zero(f, x, lo, hi)

    d_big = f.difference_float(x, x + h)
    d_tame = f.difference_float(x, x + h_prime)
    quotient_big = abs(d_big) / abs(float(h))
    quotient_tame = abs(d_tame) / abs(float(h_prime))
    divdiff_big = abs(d_big) / abs(float(h)) ** f.alpha
    return WitnessScales(
        x=x, stage=m, level=k, alpha=f.alpha, case=case,
        r_plus=r_p, r_minus=r_m_,
        rho_plus=rho_p, rho_minus=rho_m_, h=h, h_prime=h_prime,
        quotient_big=quotient_big, quotient_tame=quotient_tame,
        divdiff_big=divdiff_big, tail_sum=tail,
        h_side="right" if h > 0 else "left",
        h_prime_side="right" if h_prime > 0 else "left",
    )
