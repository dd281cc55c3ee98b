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

import functools
import math
import os
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
from .martingale import Martingale, bit_lengths, check_cells


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

    def __call__(self, x) -> float:
        return self._eval(float(x))

    def _eval(self, x: float) -> float:
        raise NotImplementedError

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """f at every entry of `xs`, in an array of its shape (at least 1-d)."""
        xs = np.atleast_1d(xs)
        vals = [self._eval(float(x)) for x in xs.flat]
        return np.array(vals, dtype=float).reshape(xs.shape)

    def difference(self, a, b):
        """f(b) - f(a); overridden where cancellation-free forms exist."""
        return self(b) - self(a)

    def dyadic_differences(self, lo, hi, depth: int) -> np.ndarray:
        """f(hi 2^-depth) - f(lo 2^-depth) per pair of integer numerator
        arrays with 0 <= lo <= hi <= 2^depth.

        A loop over the scalar ``difference``: the reference that array
        overrides reproduce bit for bit.
        """
        lo, hi = _dyadic_pairs(lo, hi, depth)
        return np.array([self.difference(DyadicRational(a, depth), DyadicRational(b, depth))
                         for a, b in zip(lo.tolist(), hi.tolist())], dtype=float)

    def antiderivative_batch(self, ys: np.ndarray) -> np.ndarray:
        """F(y) = int_0^y f, where a closed form exists (else DomainError)."""
        raise DomainError(f"{self.provenance} has no antiderivative")

    def cells_per_point(self) -> int:
        """Array cells a `batch` or `antiderivative_batch` call holds per
        point at most: one, or a Weierstrass series' term count."""
        return 1


def _dyadic_pairs(lo, hi, depth: int):
    """The numerator arrays of `dyadic_differences`, domain-checked."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise DomainError("lo and hi must be 1-d arrays of one length")
    if lo.dtype.kind not in "iuO" or hi.dtype.kind not in "iuO":
        raise DomainError("dyadic differences expect integer numerator arrays")
    if depth < 0 or np.any(lo < 0) or np.any(hi < lo) or np.any(hi > (1 << depth)):
        raise DomainError("dyadic differences expect 0 <= lo <= hi <= 2^depth")
    return lo, hi


class ConstantFunction(HolderFunction):
    def __init__(self, c: float, alpha: float = 0.5):
        super().__init__(alpha, "user", seminorm_bound=0.0)
        self.c = c

    def _eval(self, x):
        return self.c

    def batch(self, xs):
        return np.full(np.atleast_1d(xs).shape, self.c, dtype=float)

    def antiderivative_batch(self, ys):
        return self.c * np.atleast_1d(ys).astype(float)


class LinearFunction(HolderFunction):
    """f(x) = slope * x; Holder only on bounded ranges, used as a test
    function with closed-form accumulated differences."""

    def __init__(self, slope: float = 1.0, alpha: float = 0.5):
        super().__init__(alpha, "user", seminorm_bound=abs(slope))
        self.slope = slope

    def _eval(self, x):
        return self.slope * x

    def batch(self, xs):
        return self.slope * np.atleast_1d(xs).astype(float)

    def antiderivative_batch(self, ys):
        ys = np.atleast_1d(ys).astype(float)
        return self.slope * ys * ys / 2.0


class CallableFunction(HolderFunction):
    """Wrap an arbitrary callable with a declared exponent."""

    def __init__(self, fn, alpha: float, seminorm_bound: Optional[float] = None):
        super().__init__(alpha, "user", seminorm_bound=seminorm_bound)
        self.fn = fn

    def _eval(self, x):
        return float(self.fn(x))


class WeierstrassFunction(HolderFunction):
    """f(x) = sum_n b^(-n alpha) cos(b^n x), truncated to a tail bound.

    One tolerance tol, set at construction, bounds the truncation error of
    every value: f(x), `batch` and `antiderivative_batch` sum to tol, and
    `difference` sums each side to tol / 2.  A series sums to t through the
    least N with b^-((N+1) power) / (1 - b^-power) <= t.  tol does not bound
    the float error of the phases b^n x: for b not a power of two it
    dominates (mpmath: 4.0e-9 to 9.3e-9 at b = 3, tol = 1e-12).
    """

    def __init__(self, b: float, alpha: float, tol: float = 1e-12):
        if not 1.0 < b < math.inf:
            raise DomainError(f"b must be finite and exceed 1, not {b}")
        super().__init__(alpha, f"weierstrass(b={b}, alpha={alpha})")
        self.b = b
        self._series = functools.cache(self._build_series)
        # refuses a tol that is not positive and finite, and a b so near 1
        # that the series has too many terms, before its bound divides by
        # 1 - b^-alpha
        self._series(alpha, tol)
        self.tol = tol
        # |f(x)-f(y)| <= C |x-y|^alpha with the standard two-regime split
        q = math.pow(b, 1.0 - alpha)
        if q == 1.0:
            raise DepthCapError(f"the seminorm bound at b = {b}, alpha = {alpha} leaves "
                                f"the float range: b^(1 - alpha) rounds to 1")
        self.seminorm_bound = q / (q - 1.0) + 2.0 / (1.0 - math.pow(b, -alpha))

    def _build_series(self, power: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """Frequencies b^n and amplitudes b^(-n power), n = 0..N, for the
        least N with b^-((N+1) power) / (1 - b^-power) <= tol.

        N is the closed form ceil(ln(1 / (tol (1 - b^-power))) / (power ln b))
        - 1, moved by one where rounding put it next to the least N that
        passes the inequality.  A series of more than SWEEP_CELL_BUDGET terms,
        or whose frequency b^N leaves the float range, is refused before any
        array is built.  `_series` is this, built once per (power, tol) and
        kept on the instance: power alpha is the series of f, power 1 + alpha
        that of its antiderivative.
        """
        if not 0.0 < tol < math.inf:
            raise DomainError(f"tolerance must be positive and finite, not {tol}")
        what = f"a Weierstrass series with b = {self.b}, exponent {power} and tol = {tol}"
        geo = 1.0 - math.pow(self.b, -power)
        if geo == 0.0:      # b^-power rounds to 1: no N passes the inequality
            raise DepthCapError(f"{what} has no last term: b^-{power} rounds to 1")

        def fits(m: int) -> bool:
            return math.pow(self.b, -(m + 1) * power) / geo <= tol

        n = max(0, math.ceil(-(math.log(tol) + math.log(geo))
                             / (power * math.log(self.b))) - 1)
        if n > 0 and fits(n - 1):
            n -= 1
        elif not fits(n):
            n += 1
        check_cells(n + 1, what)
        with np.errstate(over="ignore"):
            if not np.isfinite(np.power(self.b, n)):
                raise DepthCapError(f"{what} needs the frequency b^{n}, past the float range")
        ns = np.arange(n + 1)
        return np.power(self.b, ns), np.power(self.b, -power * ns)

    def terms_for(self, tol: float) -> int:
        return len(self._series(self.alpha, tol)[0])

    def cells_per_point(self) -> int:
        """The phase table's term count: that of f, whose exponent alpha
        keeps more terms than the antiderivative's 1 + alpha."""
        return len(self._series(self.alpha, self.tol)[0])

    def _eval(self, x):
        return self._term_loop(x, self.tol)

    def difference(self, a, b):
        """f(b) - f(a), each side summed to tol / 2."""
        half = self.tol / 2.0
        return self._term_loop(float(b), half) - self._term_loop(float(a), half)

    def _term_loop(self, x: float, tol: float) -> float:
        """f(x) summed to `tol` by running products b^n and b^(-n alpha)."""
        freqs = self._series(self.alpha, tol)[0]
        _check_phases(x, float(freqs[-1]))
        total = 0.0
        freq = 1.0
        amp = 1.0
        damp = math.pow(self.b, -self.alpha)
        for _ in range(len(freqs)):
            total += amp * math.cos(freq * x)
            freq *= self.b
            amp *= damp
        return total

    def batch(self, xs):
        """f at every entry of `xs`, in an array of its shape (at least 1-d),
        each row of its leading axis with the bits of a one-row call (see
        `_series_rows`)."""
        return _series_rows(np.cos, xs, *self._series(self.alpha, self.tol))

    def antiderivative_batch(self, ys):
        """F(y) = sum_n b^(-n(1+alpha)) sin(b^n y), termwise exact, with
        the truncation rule of f at exponent 1 + alpha; keeps the shape of
        `ys` and its rows' bits as `batch` does."""
        return _series_rows(np.sin, ys, *self._series(1.0 + self.alpha, self.tol))


# points (times the term count) of phase table a kernel call holds at
# once, or one row of its input's leading axis where that is wider
_TABLE_POINTS = 1 << 11

# phase-table cells per block below which a kernel call is not split: a
# smaller block costs less than handing it to another thread
_BLOCK_CELLS = 1 << 13


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _row_pool(pid: int, threads: int):
    """The `threads` threads that take the blocks of split kernel calls in
    process `pid`, started on its first split (concurrent.futures is
    imported only then: `import dyadosc` does not load it).  Keyed by the
    pid, so a forked child builds its own pool: its parent's threads do not
    exist in it."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads, thread_name_prefix="dyadosc-rows")


def _series_rows(trig, xs, freqs: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """trig(x b^n) @ amps at every x of `xs` (after `_check_phases`), in an
    array of its shape (at least 1-d).

    A 1-d input is one row of the leading axis.  Once the whole table holds
    two blocks of _BLOCK_CELLS cells, that axis is cut into blocks of whole
    rows, one per CPU at most: the calling thread fills the first, the
    threads of `_row_pool` the others (numpy releases the GIL in the outer
    product, the ufunc and `@`).  Each block is filled a few rows at a time
    in its slice of one scratch table allocated here.  The table keeps the
    input's shape, so `@ amps` makes one matrix-vector product per row of
    the last axis, with the operands of a one-row call: a value has the
    same bits on any number of threads, where a flat product would reorder
    its sums.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    _check_phases(xs, float(freqs[-1]))
    rows = np.atleast_2d(xs)
    out = np.empty(rows.shape)
    width = max(1, math.prod(rows.shape[1:]))      # points per row
    cpus = _usable_cpus()
    # workers times one row stays within the table's bound
    workers = max(1, min(cpus, len(rows), rows.size * len(freqs) // _BLOCK_CELLS,
                         _TABLE_POINTS // width))
    cuts = [len(rows) * k // workers for k in range(workers + 1)]
    step = max(1, _TABLE_POINTS // (workers * width))
    # block k fills min(step, its rows) rows of the table from row
    # min(cuts[k], k step): blocks differ by at most one row
    table = np.empty((min(len(rows), workers * step), *rows.shape[1:], len(freqs)))

    def fill(k: int) -> None:
        scratch = table[min(cuts[k], k * step):]
        for lo in range(cuts[k], cuts[k + 1], step):
            hi = min(lo + step, cuts[k + 1])
            phases = scratch[:hi - lo]
            np.multiply.outer(rows[lo:hi], freqs, out=phases)
            np.matmul(trig(phases, out=phases), amps, out=out[lo:hi])

    futures = []
    if workers > 1:
        pool = _row_pool(os.getpid(), cpus - 1)
        futures = [pool.submit(fill, k) for k in range(1, workers)]
    try:
        fill(0)
    finally:
        for future in futures:
            future.result()
    return out.reshape(xs.shape)


def _check_phases(xs, top: float) -> None:
    """The domain rule of every Weierstrass evaluator: each x has a finite
    top phase b^(N-1) x, or its sum is NaN.  The product rounds monotonically
    in |x|, so the largest |x| decides: max x or -min x, both read without
    a copy (and both NaN if an x is), in Python floats (no numpy warning)."""
    big = max(float(np.max(xs, initial=0.0)), -float(np.min(xs, initial=0.0)))
    if not math.isfinite(big * top):
        x = next(x for x in np.ravel(xs).tolist() if not math.isfinite(x * top))
        raise DomainError(f"x = {x} puts the top phase b^(N-1) x past the float range")


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
        if x.numerator < 0 or x.numerator > 1 << x.exponent:
            raise DomainError("eval_dyadic expects x in [0, 1]")
        if x.exponent > self.max_depth:
            raise DepthCapError(
                f"dyadic point at depth {x.exponent} beyond cap {self.max_depth}")
        return self.S.primitive(unit_interval(), 0.0, x.numerator, x.exponent)

    def difference(self, a, b) -> float:
        """f(b) - f(a) for dyadic a <= b in [0,1], telescoped exactly.

        A single dyadic interval [a, b) contributes the one term
        2^-n S(I); general pairs descend from the common ancestor so
        that no large-value cancellation ever happens.  Every route is
        chosen on the numerators ia, ib of a and b over 2^depth, with
        depth the deeper of their lowest-terms exponents.
        """
        a = DyadicRational.from_value(a)
        b = DyadicRational.from_value(b)
        depth = max(a.exponent, b.exponent)
        ia = a.numerator << (depth - a.exponent)
        ib = b.numerator << (depth - b.exponent)
        if ib < ia:
            return -self.difference(b, a)
        if ia < 0 or ib > 1 << depth:
            raise DomainError("difference expects 0 <= a <= b <= 1")
        if ia == ib:
            return 0.0
        if depth > self.max_depth:
            raise DepthCapError(f"difference needs depth {depth} beyond cap")
        width = ib - ia
        if not (width & (width - 1) or ia & (width - 1)):
            # [a, b) is one dyadic interval, at level depth - log2(width):
            # exact one-term telescoping
            bits = width.bit_length() - 1
            return math.ldexp(self.S.value(DyadicInterval(depth - bits, ia >> bits)),
                              bits - depth)
        if ib == 1 << depth:
            return -self.eval_dyadic(a)     # f(1) = 0
        _, ga, gb = self.S.pair_primitive(ia, ib, depth)
        return gb - ga

    def dyadic_differences(self, lo, hi, depth: int) -> np.ndarray:
        """The three paths of ``difference`` over whole arrays, at any depth,
        through one ``S.pair_primitives`` call: the routes are chosen on
        uint64 numerators to depth 63 and on Python ints past it.

        Working at `depth` rather than at each point's lowest terms only
        appends zero address bits, which add nothing to either descent.
        A single interval I = [lo, hi) is the common ancestor of its first
        and last cells; the root is that of a and its mirror a ^ 2^(depth-1).
        """
        lo, hi = _dyadic_pairs(lo, hi, depth)
        if depth > self.max_depth:
            raise DepthCapError(f"difference needs depth {depth} beyond cap")
        out = np.zeros(lo.shape)
        live = lo != hi
        if depth < 64:
            u = np.uint64
            lo, hi = lo[live].astype(u), hi[live].astype(u)
        else:
            u = int
            lo, hi = lo[live].astype(object), hi[live].astype(object)
        width = hi - lo
        one = u(1)
        single = ((width & (width - one)) == 0) & ((lo & (width - one)) == 0)
        to_one = (hi == u(1 << depth)) & ~single
        mirror = lo ^ u((1 << depth) >> 1)
        s, ga, gb = self.S.pair_primitives(
            lo, np.where(single, hi - one, np.where(to_one, mirror, hi)), depth)
        level = depth + 1 - bit_lengths(width)
        out[live] = np.where(single, np.ldexp(s, -level), np.where(to_one, -ga, gb - ga))
        return out

    def _eval(self, x):
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
        # base points x = u (1 - h) leave [0, 1) for scales h > 1
        if not 0.0 < scale_min <= scale_max <= 1.0:
            raise DomainError("need 0 < scale_min <= scale_max <= 1")
        if pairs < 1:
            raise DomainError("need at least one sampled pair")
        if dyadic_depth is not None and dyadic_depth < 0:
            raise DomainError(f"dyadic depth must be nonnegative, not {dyadic_depth}")
        self.pairs = pairs
        self.scale_min = scale_min
        self.scale_max = scale_max
        self.seed = seed
        self.dyadic_depth = dyadic_depth


# sampled pairs per array pass of the dyadic seminorm estimate, bounding
# its memory
_SEMINORM_CHUNK = 1 << 16


def _exact_ints(v: np.ndarray, depth: int) -> np.ndarray:
    """Integer-valued floats as exact integers: int64 where they and
    2^depth fit with room to spare, Python ints otherwise."""
    if depth < 62 and np.all(np.abs(v) < 2.0 ** 62):
        return v.astype(np.int64)
    return np.array([int(t) for t in v.tolist()], dtype=object)


def holder_seminorm_estimate(f: HolderFunction,
                             sampler: SeminormSampler) -> float:
    """Empirical sup of |f(x+h) - f(x)| / h^alpha over sampled pairs.

    Scales are log-uniform in [scale_min, scale_max]; base points uniform
    with x + h kept inside [0, 1).  A lower bound for the seminorm,
    reproducible for a fixed seed.
    """
    check_cells(2 * sampler.pairs, f"pairs = {sampler.pairs}")
    rng = np.random.default_rng(sampler.seed)
    # interleaved draws so a larger pair count extends the smaller sample
    draws = rng.uniform(0.0, 1.0, size=(sampler.pairs, 2))
    lo, hi = math.log(sampler.scale_min), math.log(sampler.scale_max)
    hs = np.exp(lo + (hi - lo) * draws[:, 0])
    xs = draws[:, 1] * (1.0 - hs)
    if sampler.dyadic_depth is not None:
        # pairs [lo, lo + width) 2^-depth at the sampled x and h, rounded
        # down, at least one cell wide and inside [0, 1]
        depth = sampler.dyadic_depth
        scale = 2.0 ** depth
        worst = 0.0
        for c in range(0, sampler.pairs, _SEMINORM_CHUNK):
            lo = _exact_ints(np.floor(xs[c:c + _SEMINORM_CHUNK] * scale), depth)
            width = _exact_ints(np.floor(hs[c:c + _SEMINORM_CHUNK] * scale), depth)
            width = np.minimum(np.maximum(width, 1), (1 << depth) - lo)
            d = f.dyadic_differences(lo, lo + width, depth)
            # Python's pow, since np.power can differ from it in the last bit
            den = np.array([hh ** f.alpha for hh in (width * 2.0 ** -depth).tolist()])
            worst = max(worst, float(np.max(np.abs(d) / den)))
        return worst
    fx = f.batch(xs)
    fxh = f.batch(xs + hs)
    quot = np.abs(fxh - fx) / np.power(hs, f.alpha)
    return float(np.max(quot))
