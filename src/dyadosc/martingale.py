"""Dyadic martingales read as level arrays with paired increments.

A martingale here is a map ``S(I)`` on dyadic subintervals of [0,1) whose
value at an interval is the mean of its children's values (cancellation).
Every consumer reads it through ``increment(child)``, the scalar jump
oracle, or the level arrays ``level_increments(n)`` and
``level_values_range(n, lo, hi)``.  The base class derives the arrays from
the scalar oracle by plain loops, the reference that vectorized overrides
reproduce exactly.  Jumps come from increment oracles, which hand each
pair of children exactly opposite jumps, or from value oracles such as
divided differences of a function, whose cancellation is checked.

A growth martingale with exponent ``beta`` is the level-scaled view
``2^(n beta)`` of its discounted martingale, so the discount transform and
the sharpness construction invert each other exactly.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

import numpy as np

from .dyadic import (
    DepthCapError,
    DomainError,
    DyadicInterval,
    default_max_depth,
    unit_interval,
)

_M64 = (1 << 64) - 1


def _splitmix64(z):
    """SplitMix64 output for state z (Steele, Lea & Flood, OOPSLA 2014).

    Works on Python ints and on uint64 arrays alike: arrays wrap modulo
    2^64 on their own, the masks do it for ints.
    """
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _stream(seed: int, level: int, index):
    """Counter-based 64-bit draws for (seed, level, index); `index` is a
    Python int or a uint64 array of indices."""
    key = _splitmix64(_splitmix64(seed & _M64) ^ level)
    return _splitmix64(index ^ key)


class Martingale:
    """Martingale on [0,1), built from a per-child increment oracle.

    The oracle must return exactly opposite values on the two children of
    any interval; values are accumulated along the ancestor chain.
    ``star_bound``, when given, declares sup_n ||S_{n+1}-S_n||.

    Subclasses keep the scalar ``increment`` and may override the level
    arrays with vectorized sweeps that return the same floats.
    """

    def __init__(self, increment_fn: Callable[[DyadicInterval], float],
                 s0=0.0, max_depth: Optional[int] = None,
                 star_bound: Optional[float] = None, name: str = "martingale"):
        self._increment_fn = increment_fn
        self.s0 = s0
        self.max_depth = default_max_depth() if max_depth is None else max_depth
        self.star_bound = star_bound
        self.name = name

    def _check(self, I: DyadicInterval):
        if not 0 <= I.index < (1 << I.level):
            raise DomainError(f"{I} lies outside the unit interval")
        if I.level > self.max_depth:
            raise DepthCapError(f"level {I.level} beyond max depth {self.max_depth}")

    def increment(self, child: DyadicInterval):
        """Jump S(child) - S(parent)."""
        if child.level == 0:
            raise DomainError("the root interval has no increment")
        self._check(child)
        return self._increment_fn(child)

    def value(self, I: DyadicInterval):
        """S(I): the constant value of S_level on I, summed from the root."""
        self._check(I)
        v = self.s0
        for lvl in range(1, I.level + 1):
            v = v + self.increment(I.ancestor(lvl))
        return v

    def level_increments(self, n: int) -> np.ndarray:
        """Increments into level n for all level-n intervals (n >= 1)."""
        if n < 1:
            raise DomainError("increments start at level 1")
        return np.array([self.increment(DyadicInterval(n, j)) for j in range(1 << n)],
                        dtype=float)

    def level_values_range(self, n: int, lo: int, hi: int) -> np.ndarray:
        """Values of S_n on level-n indices [lo, hi), left to right.

        Accumulated from the root through ``level_increments``, in the
        same order as ``value`` adds them.
        """
        vals = np.full(1, float(self.s0))
        for m in range(1, n + 1):
            vals = np.repeat(vals, 2) + self.level_increments(m)
        return vals[lo:hi]

    def level_values(self, n: int) -> np.ndarray:
        """Values of S_n on all 2^n level-n intervals, left to right."""
        return self.level_values_range(n, 0, 1 << n)


class ValueMartingale(Martingale):
    """Martingale given by a direct value oracle (cancellation inherited
    from the oracle, so it is checked rather than guaranteed).  Oracle
    results are memoized, since each may be an expensive evaluation."""

    def __init__(self, value_fn: Callable[[DyadicInterval], float], **kw):
        self._value_fn = value_fn
        self._values: dict[tuple[int, int], float] = {}
        super().__init__(increment_fn=self._increment_from_values, **kw)
        self.s0 = self.value(unit_interval())

    def _increment_from_values(self, child: DyadicInterval):
        return self.value(child) - self.value(child.parent())

    def value(self, I: DyadicInterval):
        self._check(I)
        key = (I.level, I.index)
        cached = self._values.get(key)
        if cached is None:
            cached = self._value_fn(I)
            self._values[key] = cached
        return cached

    def level_values_range(self, n: int, lo: int, hi: int) -> np.ndarray:
        return np.array([self.value(DyadicInterval(n, j)) for j in range(lo, hi)],
                        dtype=float)


class BinaryDigitMartingale(Martingale):
    """S_n = 2*(number of 1-digits) - n; increments are exactly +-1."""

    def __init__(self, max_depth: Optional[int] = None):
        super().__init__(self._inc, s0=0, max_depth=max_depth,
                         star_bound=1.0, name="binary")

    @staticmethod
    def _inc(child: DyadicInterval) -> int:
        return 1 if (child.index & 1) else -1

    def value(self, I: DyadicInterval) -> int:
        self._check(I)
        return 2 * int(I.index).bit_count() - I.level

    def level_values_range(self, n: int, lo: int, hi: int) -> np.ndarray:
        return 2.0 * np.bitwise_count(np.arange(lo, hi, dtype=np.uint64)) - n

    def level_increments(self, n: int) -> np.ndarray:
        if n < 1:
            raise DomainError("increments start at level 1")
        out = np.empty(1 << n)
        out[0::2] = -1.0
        out[1::2] = 1.0
        return out


def binary_digit_martingale(max_depth: Optional[int] = None) -> BinaryDigitMartingale:
    return BinaryDigitMartingale(max_depth=max_depth)


def zero_martingale() -> Martingale:
    return Martingale(lambda child: 0.0, s0=0.0, star_bound=0.0, name="zero")


class RandomSignMartingale(Martingale):
    """Increments +-scale with a random sign per parent.

    The sign of parent (level, index) is the top bit of a counter-based
    SplitMix64 hash of (seed, level, index), so scalar and level reads
    agree; the left child takes +sign and the right child its opposite.
    """

    _kind = "random-sign"

    def __init__(self, seed: int, scale: float = 1.0, max_depth: Optional[int] = None):
        super().__init__(self._inc, s0=0.0, max_depth=max_depth,
                         star_bound=scale, name=f"{self._kind}-{seed}")
        self.seed = seed
        self.scale = scale

    def _draw(self, bits):
        """Left-child increments from the parents' stream bits (a Python
        int or a uint64 array; the same arithmetic serves both)."""
        return self.scale * (1.0 - 2.0 * (bits >> 63))

    def _inc(self, child: DyadicInterval) -> float:
        # Python ints, not a numpy uint64 scalar, which warns when it wraps
        left = self._draw(_stream(self.seed, child.level - 1, child.index >> 1))
        return left if (child.index & 1) == 0 else -left

    def level_increments(self, n: int) -> np.ndarray:
        if n < 1:
            raise DomainError("increments start at level 1")
        parents = np.arange(1 << (n - 1), dtype=np.uint64)
        left = self._draw(_stream(self.seed, n - 1, parents))
        out = np.empty(1 << n)
        out[0::2] = left
        out[1::2] = -left
        return out


class _RandomUniformMartingale(RandomSignMartingale):
    """Paired increments +-u per parent, u uniform on the 2^-52 grid of
    [-1, 1), read from the same stream as the random signs."""

    _kind = "random-uniform"

    def _draw(self, bits):
        return (bits >> 11) * 2.0 ** -52 - 1.0


class FunctionMartingale(ValueMartingale):
    """S(I) = 2^n (f(b) - f(a)) for I = [a, b) at level n."""

    def __init__(self, f, depth: int, tol: Optional[float] = None):
        self.f = f
        self.depth = depth
        self.tol = tol
        super().__init__(self._value, max_depth=depth, name="from-function")

    def _value(self, I: DyadicInterval):
        diff = self.f.difference(I.left, I.right, tol=self.tol)
        if isinstance(diff, float):
            return math.ldexp(diff, I.level)
        return diff * (1 << I.level)


def from_function(f, depth: int, tol: Optional[float] = None) -> FunctionMartingale:
    """Divided-difference martingale of f, evaluable to the given depth."""
    return FunctionMartingale(f, depth, tol=tol)


class ScaledMartingale(Martingale):
    """Level-scaled view of `base`: increments 2^(n gamma) (S_n - S_{n-1}).

    Paired increments stay paired, so the view is again a martingale;
    it starts at `s0` and reads `base` at the same depth cap.
    """

    def __init__(self, base: Martingale, gamma: float, s0=0.0,
                 star_bound: Optional[float] = None, name: Optional[str] = None):
        super().__init__(self._scaled_inc, s0=s0, max_depth=base.max_depth,
                         star_bound=star_bound,
                         name=name or f"scaled({base.name}, {gamma})")
        self.base = base
        self.gamma = gamma

    def _scaled_inc(self, child: DyadicInterval) -> float:
        return math.pow(2.0, child.level * self.gamma) * self.base.increment(child)

    def level_increments(self, n: int) -> np.ndarray:
        return math.pow(2.0, n * self.gamma) * self.base.level_increments(n)


class CancellationReport:
    def __init__(self, max_violation: float, worst_interval: Optional[DyadicInterval],
                 checked: int):
        self.max_violation = max_violation
        self.worst_interval = worst_interval
        self.checked = checked

    def ok(self, tol: float = 1e-12) -> bool:
        return self.max_violation <= tol

    def __repr__(self):
        return (f"CancellationReport(max_violation={self.max_violation:.3e}, "
                f"worst={self.worst_interval}, checked={self.checked})")


# parents per level-array read in check_cancellation, bounding its memory
_CANCELLATION_CHUNK = 1 << 20


def check_cancellation(S: Martingale, depth: int) -> CancellationReport:
    """Exhaustively verify value(I) = mean of children values to `depth`.

    Reports the largest deviation and the interval attaining it.  Levels
    are read in chunks of parents to bound memory.
    """
    worst = 0.0
    worst_iv: Optional[DyadicInterval] = None
    checked = 0
    for n in range(depth):
        size = 1 << n
        step = min(size, _CANCELLATION_CHUNK)
        for lo in range(0, size, step):
            parents = S.level_values_range(n, lo, lo + step)
            kids = S.level_values_range(n + 1, 2 * lo, 2 * (lo + step))
            viol = np.abs(parents - 0.5 * (kids[0::2] + kids[1::2]))
            j = int(np.argmax(viol))
            if viol[j] > worst:
                worst = float(viol[j])
                worst_iv = DyadicInterval(n, lo + j)
            checked += step
    return CancellationReport(worst, worst_iv, checked)


def star_norm(S: Martingale, depth: int) -> float:
    """sup_{n <= depth} ||S_n - S_{n-1}||_inf over the evaluated tree.

    A to-depth lower bound of the supremum, monotone nondecreasing in
    depth.
    """
    worst = 0.0
    for n in range(1, depth + 1):
        worst = max(worst, float(np.max(np.abs(S.level_increments(n)))))
    return worst


class GrowthMartingale(ScaledMartingale):
    """Martingale T with growth exponent beta: the view 2^(n beta) of its
    discounted martingale.

    The discounted martingale S has the scaled increments
    ``2^-(n*beta) (T_n - T_{n-1})``, whose sup norm is the beta-star norm
    of T.  `discounted` is S itself, which must start at S_0 = 0, or a
    per-child oracle for its increments (then capped at `max_depth` and
    declared bounded by `beta_star_bound`); T_0 is `t0`.
    """

    def __init__(self, beta: float,
                 discounted: Union[Martingale, Callable[[DyadicInterval], float]],
                 t0: float = 0.0, max_depth: Optional[int] = None,
                 beta_star_bound: Optional[float] = None, name: str = "growth"):
        if not 0.0 < beta < 1.0:
            raise DomainError("beta must lie in (0,1)")
        if not isinstance(discounted, Martingale):
            discounted = Martingale(discounted, s0=0.0, max_depth=max_depth,
                                    star_bound=beta_star_bound,
                                    name=f"discount({name})")
        if discounted.s0 != 0:
            raise DomainError("the discounted martingale must start at S_0 = 0")
        super().__init__(discounted, beta, s0=t0, name=name)

    @property
    def beta(self) -> float:
        return self.gamma

    @property
    def t0(self):
        return self.s0

    # Restated in this class's body so that per-class instrumentation
    # (perfbench/tracer.py) times growth-martingale reads on their own.
    def increment(self, child: DyadicInterval) -> float:
        """T_n - T_{n-1} on `child`: 2^(n beta) times the discounted jump."""
        return super().increment(child)

    def value(self, I: DyadicInterval) -> float:
        """T(I) = T_0 + sum_k 2^(k beta) (S_k - S_{k-1}) along the ancestry."""
        return super().value(I)


def beta_star_norm(T: GrowthMartingale, depth: int) -> float:
    """sup_{n <= depth} 2^-(n beta) ||T_n - T_{n-1}||_inf, exhaustively."""
    return star_norm(discount_transform(T), depth)


def beta_norm(T: GrowthMartingale, depth: int) -> float:
    """sup_{n <= depth} 2^-(n beta) ||T_n||_inf, exhaustively to depth."""
    worst = abs(T.t0)
    for n in range(1, depth + 1):
        top = float(np.max(np.abs(T.level_values(n))))
        worst = max(worst, math.pow(2.0, -n * T.beta) * top)
    return worst


def discount_transform(T: GrowthMartingale) -> Martingale:
    """Bounded-increment martingale S_n = sum_k 2^-(k beta)(T_k - T_{k-1}).

    S_0 = 0, and each unit increment *is* the scaled increment of T, so
    ||S_n - S_{n-1}||_inf <= ||{T}||_{beta,*} with no rounding at all.
    """
    return T.base


def sharpness_martingale(beta: float, base: Optional[Martingale] = None,
                         max_depth: Optional[int] = None) -> GrowthMartingale:
    """Growth martingale T_n = sum_k 2^(k beta)(S_k - S_{k-1}) over `base`.

    `base` is T's discounted martingale, so the discount transform returns
    it again.  With the binary-digit base the beta-star norm is exactly 1.
    """
    if base is None:
        base = binary_digit_martingale(max_depth=max_depth)
    return GrowthMartingale(beta, base, name=f"sharpness({base.name})")


def random_growth_martingale(beta: float, seed: int,
                             max_depth: Optional[int] = None) -> GrowthMartingale:
    """Growth martingale with random scaled increments, |.| <= 1, paired."""
    return GrowthMartingale(beta, _RandomUniformMartingale(seed, max_depth=max_depth),
                            name=f"random-growth-{seed}")


def summation_by_parts_check(T: GrowthMartingale, depth: int) -> float:
    """Max residual of the summation-by-parts identity over all intervals.

    Compares S_n(x) = sum_{k<=n} 2^-(k beta)(T_k - T_{k-1}) against
    (1 - 2^-beta) sum_{k<n} 2^-(k beta) T_k + 2^-(n beta) T_n - 2^-beta T_0
    on every interval to `depth`, level by level.
    """
    S = discount_transform(T)
    beta = T.beta
    s_vals = np.zeros(1)
    t_vals = np.full(1, float(T.t0))
    acc = np.zeros(1)           # sum_{0<k<n} 2^-(k beta) T_k, left to right
    worst = 0.0
    for n in range(1, depth + 1):
        if n > 1:
            acc = acc + math.pow(2.0, -(n - 1) * beta) * t_vals
        acc = np.repeat(acc, 2)
        s_vals = np.repeat(s_vals, 2) + S.level_increments(n)
        t_vals = np.repeat(t_vals, 2) + T.level_increments(n)
        rhs = ((1.0 - 2.0 ** -beta) * acc
               + math.pow(2.0, -n * beta) * t_vals
               - 2.0 ** -beta * T.t0)
        worst = max(worst, float(np.max(np.abs(s_vals - rhs))))
    return worst


class SubsampledMartingale:
    """T_n = S_{N n + k} / (N + C) on the N-fold decimated dyadic tree.

    Level n of the decimated tree is the dyadic level N*n + k; each node
    has 2^N children and the mean of T_{n+1} over them reproduces T_n.
    When ||S_a - S_b||_inf <= C + |a - b| the decimated increments are
    bounded by 1, which is the whole point of the construction.
    """

    def __init__(self, S: Martingale, N: int, k: int, C: float):
        if N < 1 or not 0 <= k < N:
            raise DomainError("need N >= 1 and 0 <= k < N")
        self.S = S
        self.N = N
        self.k = k
        self.M = N + C

    def dyadic_level(self, n: int) -> int:
        return self.N * n + self.k

    def value(self, n: int, I: DyadicInterval) -> float:
        if I.level != self.dyadic_level(n):
            raise DomainError(
                f"level-{n} nodes live at dyadic level {self.dyadic_level(n)}")
        return self.S.value(I) / self.M

    def _level_values(self, n: int) -> np.ndarray:
        """T_n on all nodes of decimated level n, left to right."""
        return self.S.level_values(self.dyadic_level(n)) / self.M

    def star_norm(self, depth: int) -> float:
        """sup over decimated steps to `depth` of |T_n - T_{n-1}|."""
        worst = 0.0
        for n in range(1, depth + 1):
            incs = self._level_values(n) - np.repeat(self._level_values(n - 1), 1 << self.N)
            worst = max(worst, float(np.max(np.abs(incs))))
        return worst

    def check_cancellation(self, depth: int) -> float:
        """Max deviation of a node value from the mean of its 2^N children."""
        fan = 1 << self.N
        worst = 0.0
        for n in range(depth):
            kids = self._level_values(n + 1).reshape(-1, fan)
            # children summed left to right, like a running scalar sum
            mean = sum(kids[:, c] for c in range(fan)) / fan
            worst = max(worst, float(np.max(np.abs(self._level_values(n) - mean))))
        return worst


def subsample(S: Martingale, N: int, k: int, C: float) -> SubsampledMartingale:
    """Decimation combinator behind the additive-gap dimension bound."""
    return SubsampledMartingale(S, N, k, C)


def dump_rows(S: Martingale, depth: int):
    """(level, index, value) rows for the materialized prefix to `depth`."""
    for n in range(depth + 1):
        yield from ((n, j, v) for j, v in enumerate(S.level_values(n).tolist()))
