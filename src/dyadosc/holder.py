"""Holder-class functions: lacunary cosine series, martingale-induced
functions, and empirical seminorm estimation.

Every function carries its exponent alpha and an evaluation story: a
truncation-error bound for series, the integral of the martingale along
a dyadic point's address for martingale-induced constructions.
Differences of the latter never go through two absolute evaluations, so
deep-scale divided differences keep their precision relative to the
one-sided sums from the common dyadic ancestor.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .dyadic import (
    DepthCapError,
    DomainError,
    DyadicInterval,
    DyadicRational,
    locate,
    unit_interval,
)
from .martingale import Martingale


class HolderFunction:
    """Evaluable real function with a declared Holder exponent.

    Subclasses implement ``_eval``; ``difference`` defaults to a pair of
    evaluations but is overridden where a telescoped exact form exists.
    ``seminorm_bound``, when set, is an upper bound for the alpha
    seminorm usable in integral estimates.
    """

    def __init__(self, alpha: float, provenance: str,
                 seminorm_bound: Optional[float] = None):
        if not 0.0 < alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        self.alpha = alpha
        self.provenance = provenance
        self.seminorm_bound = seminorm_bound

    def __call__(self, x, tol: Optional[float] = None) -> float:
        return self._eval(float(x), tol if tol is not None else 1e-12)

    def _eval(self, x: float, tol: float) -> float:
        raise NotImplementedError

    def batch(self, xs: np.ndarray, tol: Optional[float] = None) -> np.ndarray:
        tol = tol if tol is not None else 1e-12
        return np.array([self._eval(float(x), tol) for x in np.atleast_1d(xs)])

    def difference(self, a, b, tol: Optional[float] = None):
        """f(b) - f(a); overridden where cancellation-free forms exist."""
        t = (tol / 2.0) if tol is not None else None
        return self(b, t) - self(a, t)

    def antiderivative_batch(self, ys: np.ndarray, tol: float = 1e-13) -> np.ndarray:
        """F(y) = int_0^y f, where a closed form exists (else DomainError)."""
        raise DomainError(f"{self.provenance} has no antiderivative")


class ConstantFunction(HolderFunction):
    def __init__(self, c: float, alpha: float = 0.5):
        super().__init__(alpha, "user", seminorm_bound=0.0)
        self.c = c

    def _eval(self, x, tol):
        return self.c

    def batch(self, xs, tol=None):
        return np.full(np.atleast_1d(xs).shape, self.c, dtype=float)

    def antiderivative_batch(self, ys, tol=1e-13):
        return self.c * np.atleast_1d(ys).astype(float)


class LinearFunction(HolderFunction):
    """f(x) = slope * x; Holder only on bounded ranges, used as a test
    function with closed-form accumulated differences."""

    def __init__(self, slope: float = 1.0, alpha: float = 0.5):
        super().__init__(alpha, "user", seminorm_bound=abs(slope))
        self.slope = slope

    def _eval(self, x, tol):
        return self.slope * x

    def batch(self, xs, tol=None):
        return self.slope * np.atleast_1d(xs).astype(float)

    def antiderivative_batch(self, ys, tol=1e-13):
        ys = np.atleast_1d(ys).astype(float)
        return self.slope * ys * ys / 2.0


class CallableFunction(HolderFunction):
    """Wrap an arbitrary callable with a declared exponent."""

    def __init__(self, fn, alpha: float, seminorm_bound: Optional[float] = None):
        super().__init__(alpha, "user", seminorm_bound=seminorm_bound)
        self.fn = fn

    def _eval(self, x, tol):
        return float(self.fn(x))


class WeierstrassFunction(HolderFunction):
    """f(x) = sum_n b^(-n alpha) cos(b^n x), truncated to a tail bound.

    The truncation index is the least N with b^-((N+1) alpha) / (1 -
    b^-alpha) <= tol, so tol bounds the truncation error, deterministically.
    It does not bound the float error of the phases b^n x: for b not a power
    of two that error dominates (mpmath measures 4.0e-9 to 9.3e-9 at b = 3,
    tol = 1e-12, x in {0.1, 0.37, 0.55, 0.93}).
    """

    def __init__(self, b: float, alpha: float):
        if not b > 1.0:
            raise DomainError("b must exceed 1")
        super().__init__(alpha, f"weierstrass(b={b}, alpha={alpha})")
        self.b = b
        # |f(x)-f(y)| <= C |x-y|^alpha with the standard two-regime split
        q = math.pow(b, 1.0 - alpha)
        self.seminorm_bound = q / (q - 1.0) + 2.0 / (1.0 - math.pow(b, -alpha))

    def terms_for(self, tol: float) -> int:
        if tol <= 0.0:
            raise DomainError("tolerance must be positive")
        geo = 1.0 - math.pow(self.b, -self.alpha)
        n = 0
        while math.pow(self.b, -(n + 1) * self.alpha) / geo > tol:
            n += 1
        return n + 1

    def tail_bound(self, terms: int) -> float:
        geo = 1.0 - math.pow(self.b, -self.alpha)
        return math.pow(self.b, -terms * self.alpha) / geo

    def _eval(self, x, tol):
        n = self.terms_for(tol)
        total = 0.0
        freq = 1.0
        amp = 1.0
        damp = math.pow(self.b, -self.alpha)
        for _ in range(n):
            total += amp * math.cos(freq * x)
            freq *= self.b
            amp *= damp
        return total

    def batch(self, xs, tol=None):
        tol = tol if tol is not None else 1e-12
        n = self.terms_for(tol)
        xs = np.atleast_1d(xs).astype(float)
        freqs = np.power(self.b, np.arange(n))
        amps = np.power(self.b, -self.alpha * np.arange(n))
        return np.cos(np.outer(xs, freqs)) @ amps

    def antiderivative_batch(self, ys, tol=1e-13):
        """F(y) = sum_n b^(-n(1+alpha)) sin(b^n y), termwise exact."""
        geo = 1.0 - math.pow(self.b, -(1.0 + self.alpha))
        n = 0
        while math.pow(self.b, -(n + 1) * (1.0 + self.alpha)) / geo > tol:
            n += 1
        ns = np.arange(n + 1)
        freqs = np.power(self.b, ns)
        amps = np.power(self.b, -(1.0 + self.alpha) * ns)
        return np.sin(np.outer(np.atleast_1d(ys).astype(float), freqs)) @ amps


class MartingaleInducedFunction(HolderFunction):
    """Function with dyadic increments f(b)-f(a) = 2^-n S([a,b)).

    At dyadic rationals f is the integral of S along the point's address,
    ``S.primitive``: closed-form placement runs for block martingales, the
    bit walk otherwise, either within rounding of the exact rational sum
    of S's float values.  1-periodic with f(0) = f(1) = 0 (requires S_0 =
    0).  Non-dyadic points are evaluated at the truncation depth, with the
    Holder tail bound reported rather than silently absorbed.
    """

    def __init__(self, S: Martingale, alpha: float,
                 max_depth: Optional[int] = None,
                 growth_bound: Optional[float] = None):
        super().__init__(alpha, f"martingale-induced({S.name})")
        if S.s0 != 0:
            raise DomainError("induced function needs S_0 = 0")
        self.S = S
        self.max_depth = S.max_depth if max_depth is None else max_depth
        # sup_n 2^-n(1-alpha) ||S_n||, declared or measured by the caller
        self.growth_bound = growth_bound
        if growth_bound is not None:
            self.seminorm_bound = 4.0 * growth_bound / (1.0 - 2.0 ** -alpha)

    # -- exact dyadic machinery ----------------------------------------

    def eval_dyadic(self, x: DyadicRational) -> float:
        """f(x) for dyadic x in [0, 1], by descent from the root."""
        if x.numerator < 0 or x > 1:
            raise DomainError("eval_dyadic expects x in [0, 1]")
        if x.exponent > self.max_depth:
            raise DepthCapError(
                f"dyadic point at depth {x.exponent} beyond cap {self.max_depth}")
        if x.numerator == 0 or (x.numerator == 1 and x.exponent == 0):
            return 0.0
        return self.S.primitive(unit_interval(), 0.0, x.numerator, x.exponent)

    def difference(self, a, b, tol: Optional[float] = None) -> float:
        """f(b) - f(a) for dyadic a <= b in [0,1], telescoped exactly.

        A single dyadic interval [a, b) contributes the one term
        2^-n S(I); general pairs descend from the common ancestor so
        that no large-value cancellation ever happens.
        """
        a = DyadicRational.from_value(a)
        b = DyadicRational.from_value(b)
        if b < a:
            return -self.difference(b, a)
        if not (DyadicRational(0, 0) <= a and b <= DyadicRational(1, 0)):
            raise DomainError("difference expects 0 <= a <= b <= 1")
        if a == b:
            return 0.0
        # single-interval fast path: exact one-term telescoping
        span = b - a
        if span.numerator == 1 and a.exponent <= span.exponent:
            n = span.exponent
            return math.ldexp(self.S.value(DyadicInterval(n, a.floor_scaled(n))), -n)
        if b == 1:
            # f(1) = 0, so the difference is -(f(a) - f(0))
            return -self.eval_dyadic(a)
        return self._diff_common(a, b)

    def _diff_common(self, a: DyadicRational, b: DyadicRational) -> float:
        depth = max(a.exponent, b.exponent)
        if depth > self.max_depth:
            raise DepthCapError(f"difference needs depth {depth} beyond cap")
        ia = a.numerator << (depth - a.exponent)
        ib = b.numerator << (depth - b.exponent)
        # deepest common ancestor: shared bit prefix of ia and ib
        diff_bits = (ia ^ ib).bit_length()
        anc_level = depth - diff_bits
        anc = DyadicInterval(anc_level, ia >> diff_bits)
        s_anc = self.S.value(anc)
        ga = self.S.primitive(anc, s_anc, ia & ((1 << diff_bits) - 1), diff_bits)
        gb = self.S.primitive(anc, s_anc, ib & ((1 << diff_bits) - 1), diff_bits)
        return gb - ga

    def truncation_bound(self) -> float:
        """Holder tail bound for evaluating non-dyadic points at the cap."""
        if self.seminorm_bound is None:
            raise DomainError("no growth bound declared")
        return self.seminorm_bound * math.pow(2.0, -self.max_depth * self.alpha)

    def _eval(self, x, tol):
        # reduce 1-periodically onto [0,1)
        frac = x - math.floor(x)
        grid = locate(frac, self.max_depth)
        return self.eval_dyadic(grid.left)


def martingale_function(S: Martingale, alpha: float,
                        max_depth: Optional[int] = None,
                        growth_bound: Optional[float] = None) -> MartingaleInducedFunction:
    """The function induced by S via f(b) - f(a) = 2^-n S([a,b))."""
    return MartingaleInducedFunction(S, alpha, max_depth=max_depth,
                                     growth_bound=growth_bound)


class SeminormSampler:
    """Pair-sampling configuration for empirical seminorm estimation."""

    def __init__(self, pairs: int = 10_000, scale_min: float = 2.0 ** -30,
                 scale_max: float = 0.5, seed: int = 0,
                 dyadic_depth: Optional[int] = None):
        if not 0.0 < scale_min <= scale_max:
            raise DomainError("need 0 < scale_min <= scale_max")
        self.pairs = pairs
        self.scale_min = scale_min
        self.scale_max = scale_max
        self.seed = seed
        self.dyadic_depth = dyadic_depth


def holder_seminorm_estimate(f: HolderFunction,
                             sampler: SeminormSampler) -> float:
    """Empirical sup of |f(x+h) - f(x)| / h^alpha over sampled pairs.

    Scales are log-uniform in [scale_min, scale_max]; base points uniform
    with x + h kept inside [0, 1).  A lower bound for the seminorm,
    reproducible for a fixed seed.
    """
    rng = np.random.default_rng(sampler.seed)
    # interleaved draws so a larger pair count extends the smaller sample
    draws = rng.uniform(0.0, 1.0, size=(sampler.pairs, 2))
    lo, hi = math.log(sampler.scale_min), math.log(sampler.scale_max)
    hs = np.exp(lo + (hi - lo) * draws[:, 0])
    xs = draws[:, 1] * (1.0 - hs)
    if sampler.dyadic_depth is not None:
        depth = sampler.dyadic_depth
        worst = 0.0
        for x, h in zip(xs, hs):
            lo = int(math.floor(x * (1 << depth)))
            width = max(1, int(math.floor(h * (1 << depth))))
            width = min(width, (1 << depth) - lo)
            if width <= 0:
                continue
            a = DyadicRational(lo, depth)
            bq = DyadicRational(lo + width, depth)
            d = f.difference(a, bq)
            hh = float(bq - a)
            worst = max(worst, abs(d) / hh ** f.alpha)
        return worst
    fx = f.batch(xs)
    fxh = f.batch(xs + hs)
    quot = np.abs(fxh - fx) / np.power(hs, f.alpha)
    return float(np.max(quot))
