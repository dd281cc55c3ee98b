"""Dyadic martingales read as level arrays with paired increments.

A martingale here is a map ``S(I)`` on dyadic subintervals of [0,1) whose
value at an interval is the mean of its children's values (cancellation).
A kind is one method, the level hook ``_level_increments(n, parents)``:
the jumps into level n of the children of an array of level n - 1
indices.  Every read derives from it: the level arrays
``level_increments(n)`` and ``level_values_range(n, lo, hi)``, the scalar
``increment(child)``, the hook read for the child's one parent, and
``value(I)``, those jumps summed along the ancestor chain; and
``pair_primitives``, the integrals of S along arrays of address pairs
from their common ancestors, one hook read per level for all of them.
Whole-tree certificates walk the tree once behind the sweep budget, depth
first in blocks (``level_blocks``) or by whole levels (``levels``); a
range read walks only the cells above its range.
Base-class reads are the reference that closed-form overrides reproduce.
Jumps come from paired kernels, which hand each pair of children exactly
opposite jumps (a paired kind writes only its left child's jump), or from
value oracles such as divided differences of a function, whose
cancellation is checked.

A growth martingale with exponent ``beta`` is the level-scaled view
``2^(n beta)`` of its discounted martingale, so the discount transform and
the sharpness construction invert each other exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dyadic import (
    DEFAULT_MAX_DEPTH,
    DepthCapError,
    DomainError,
    DyadicInterval,
    unit_interval,
)

_M64 = (1 << 64) - 1

# widest level array (cells of 8 bytes) that a whole-level sweep may build
SWEEP_CELL_BUDGET = 1 << 24


def check_sweep_budget(depth: int) -> None:
    """Raise DepthCapError before a sweep to `depth` builds a level array
    wider than SWEEP_CELL_BUDGET cells."""
    if depth >= SWEEP_CELL_BUDGET.bit_length():    # 2^depth > budget
        raise DepthCapError(f"a sweep to depth {depth} needs 2^{depth} cells, "
                            f"beyond the budget of {SWEEP_CELL_BUDGET}")


def check_cells(cells: int, what: str) -> None:
    """Raise DepthCapError, before anything is built, when `what` needs an
    array of more than SWEEP_CELL_BUDGET cells; `what` names the count."""
    if cells > SWEEP_CELL_BUDGET:
        raise DepthCapError(f"{what} needs an array of {cells} cells, beyond the "
                            f"budget of {SWEEP_CELL_BUDGET}")


# widest block of `Martingale.level_blocks`: 2^13 float64 cells are 64 KiB,
# half glibc's 128 KiB mmap threshold, so a sweep reuses heap arrays where
# whole 2^16-cell levels were trimmed and faulted in afresh each level; on
# level-sweep 2^14 faulted 2.5 times as often, and 2^12 ran more Python
BLOCK_CELLS = 1 << 13


def _children(vals: np.ndarray, incs: np.ndarray) -> np.ndarray:
    """Child values of the parent values `vals`: each parent plus its left
    jump and plus its right jump (`incs` interleaved), by two strided adds."""
    kids = np.empty(incs.shape)
    np.add(vals, incs[0::2], out=kids[0::2])
    np.add(vals, incs[1::2], out=kids[1::2])
    return kids


def bit_lengths(x: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each entry of a uint64 or Python-int array,
    exactly, as int32: for a uint64, the frexp exponent of its float with
    every bit below a 1-bit cleared, which is below 1.5 times its top bit,
    so it rounds within that bit's binade; ``int.bit_length`` itself for a
    Python int."""
    if x.dtype == object:
        return np.array([int(v).bit_length() for v in x.tolist()], dtype=np.int32)
    x = x.astype(np.uint64, copy=False)
    return np.frexp((x & ~(x >> np.uint64(1))).astype(float))[1]


def _clz(x: np.ndarray) -> np.ndarray:
    """Leading zero bits of each uint64, by `bit_lengths`, and 2^30, past
    any depth, for 0."""
    top = bit_lengths(x)
    return np.where(top, 64 - top, np.int32(1 << 30))


def _splitmix64(z):
    """SplitMix64 output for state z (Steele, Lea & Flood, OOPSLA 2014).

    Works on Python ints and on uint64 arrays alike: arrays wrap modulo
    2^64 on their own, the masks do it for ints.  The first step builds a
    new state, so the later in-place steps never touch the caller's array.
    """
    z = z + 0x9E3779B97F4A7C15
    z &= _M64
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _M64
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _M64
    z ^= z >> 31
    return z


def _stream(seed: int, level: int, index):
    """Counter-based 64-bit draws for (seed, level, index); `index` is a
    Python int or a uint64 array of indices."""
    key = _splitmix64(_splitmix64(seed & _M64) ^ level)
    return _splitmix64(index ^ key)


class Martingale:
    """Martingale on [0,1), defined by its level hook.

    A kind defines ``_level_increments(n, parents)``: the jumps into level
    n of the children of `parents`, level n - 1 indices in a uint64 array
    to level 64 and a Python-int array past it, left then right.  The two
    jumps of each pair must be exactly opposite, or be checked, as a
    function's divided differences are.  ``star_bound``, when given,
    declares sup_n ||S_{n+1}-S_n||.

    The walk ``level_blocks(depth)`` (``levels`` by whole levels), which
    sums each cell's value from S_0 and the increments, is the definition
    that every certificate reads; ``level_values_range`` walks it over one
    range.  ``increment`` reads the hook for the child's one parent, and
    ``value`` sums ``increment`` along the ancestor chain in the walk's
    order, so it returns the walk's bits.  A kind that overrides ``value``
    or ``level_values_range`` agrees with the walk within the few ulps
    that tests/test_martingale.py ``TestLevelsAgainstOwnValues`` pins.

    ``pair_primitives`` reads arrays of address pairs by a kind's
    ``_descend`` kernel: the base one descends the hook and adds the
    terms of ``value`` and of the bit walk in their order, and
    ``BlockMartingale`` overrides it with closed forms that agree with
    that descent to rounding.  Subclasses may also override ``_inc``, the
    scalar jump behind ``increment`` (``PairedMartingale`` reads its
    left-child kernel on a Python int).

    Two gates refuse every read before it builds anything: ``_check_range``
    each level read, by index range (DomainError), ``max_depth`` and the
    sweep budget (DepthCapError); ``_check_pairs`` each pair read, by
    numerators and ``max_depth``.
    """

    def __init__(self, s0=0.0, max_depth: int = DEFAULT_MAX_DEPTH,
                 star_bound: Optional[float] = None, name: str = "martingale"):
        self.s0 = s0
        self.max_depth = max_depth
        if self.max_depth < 0:
            raise DomainError(f"max depth must be nonnegative, not {self.max_depth}")
        self.star_bound = star_bound
        self.name = name

    def _check_range(self, n: int, lo: int, hi: int) -> None:
        """The one gate of every level read: [lo, hi) is a range of level-n
        indices (hi <= 2^n, without building 2^n), level n is within
        ``max_depth``, and the range within the budget."""
        if n < 0 or not 0 <= lo <= hi or (hi > 0 and (hi - 1) >> n):
            raise DomainError(f"[{lo}, {hi}) is not a range of level-{n} indices")
        if n > self.max_depth:
            raise DepthCapError(f"level {n} beyond max depth {self.max_depth}")
        if hi - lo > SWEEP_CELL_BUDGET:
            raise DepthCapError(f"a read of {hi - lo} cells is beyond the budget "
                                f"of {SWEEP_CELL_BUDGET}")

    def _check_pairs(self, a: int, b: int, depth: int) -> None:
        """The one gate of every pair read: the numerators a, b of
        depth-`depth` points (the least and greatest of an array) lie in
        [0, 2^depth), and level `depth` is within ``max_depth``."""
        if depth < 0 or a < 0 or b < 0 or (a | b) >> depth:
            raise DomainError(f"numerators outside [0, 2^{depth})")
        if depth > self.max_depth:
            raise DepthCapError(f"level {depth} beyond max depth {self.max_depth}")

    def increment(self, child: DyadicInterval):
        """Jump S(child) - S(parent)."""
        if child.level == 0:
            raise DomainError("the root interval has no increment")
        self._check_range(child.level, child.index, child.index + 1)
        return self._inc(child)

    def _inc(self, child: DyadicInterval) -> float:
        """The hook read for the child's one parent."""
        p = child.index >> 1
        parents = np.arange(p, p + 1, dtype=np.uint64 if child.level <= 64 else object)
        return float(self._level_increments(child.level, parents)[child.index & 1])

    def value(self, I: DyadicInterval):
        """S(I): the constant value of S_level on I, summed from the root."""
        self._check_range(I.level, I.index, I.index + 1)
        v = self.s0
        for lvl in range(1, I.level + 1):
            v = v + self.increment(I.ancestor(lvl))
        return v

    def pair_primitive(self, a: int, b: int, depth: int):
        """``pair_primitives`` on the one pair of numerators a, b, as floats."""
        return tuple(self.pair_primitives(*np.array([[a], [b]], dtype=object), depth).T[0].tolist())

    def pair_primitives(self, ia: np.ndarray, ib: np.ndarray, depth: int) -> np.ndarray:
        """The descent behind f(b) - f(a), for arrays of numerators ia, ib of
        depth-`depth` dyadic points (uint64 or Python ints): a (3, pairs)
        float array of rows S(anc), ga and gb, anc the deepest common dyadic
        ancestor of a pair and ga, gb the integrals of S from the left
        endpoint of anc to each point.

        After the gate, pairs are taken in order of their ancestor's level,
        depth - bit_length(a ^ b), in blocks of ``_pairs_per_block(depth)``
        pairs, each by one call of the kind's ``_descend`` kernel.
        """
        x = np.concatenate([ia, ib])
        least, greatest = (int(x.min()), int(x.max())) if x.size else (0, 0)
        self._check_pairs(least, greatest, depth)
        anc = depth - bit_lengths(ia ^ ib)
        step = self._pairs_per_block(depth)
        out = np.empty((3, len(ia)))
        order = np.argsort(anc, kind="stable")
        for c in range(0, len(ia), step):
            pick = order[c:c + step]
            out[:, pick] = self._descend(ia[pick], ib[pick], anc[pick], depth)
        return out

    def _pairs_per_block(self, depth: int) -> int:
        """Pairs per `_descend` call: a grid of at most BLOCK_CELLS cells."""
        return max(1, BLOCK_CELLS // (2 * depth + 2))

    def _descend(self, ia, ib, anc, depth: int) -> np.ndarray:
        """(S(anc), ga, gb) of the pairs, whose ancestors are at levels
        `anc`, as a (3, pairs) array: the hook descent.

        One hook read per level m = 1..depth, for the parents of all 2n
        addresses (uint64 to level 64, Python ints past it), gives a grid of
        levels by addresses; S is summed down it from S_0, in level order,
        and read at anc.  Below anc, each 1-bit at level m adds 2^-m (s +
        left jump), s the value at its parent, summed in level order: the
        terms of the ancestor-chain `value` and of the bit walk along each
        address (tests/oracles.py `bit_walk_primitive`), added in their
        order, so the floats are theirs.
        """
        x = np.concatenate([ia, ib])
        m = np.arange(1, depth + 1)[:, None]                # one row per level
        cells = x >> (depth - m).astype(x.dtype)
        jumps = np.reshape([self._level_increments(k, (c >> 1).astype(
            np.uint64 if k <= 64 else object, copy=False)) for k, c in enumerate(cells, 1)],
            (depth, len(x), 2))
        left, bit, n = jumps[..., 0], (cells & 1) == 1, len(ia)
        s = np.add.accumulate(np.concatenate([np.full((1, len(x)), float(self.s0)),
                                              np.where(bit, jumps[..., 1], left)]))
        terms = np.where(bit & (np.concatenate([anc, anc]) < m), np.ldexp(s[:-1] + left, -m), 0)
        g = np.add.accumulate(np.concatenate([np.zeros((1, len(x))), terms]))[-1]
        return np.concatenate([s[anc, np.arange(n)][None], g.reshape(2, n)])

    def level_increments(self, n: int, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Increments into level n (n >= 1) of the children of the level
        n - 1 parents [lo, hi), all of them by default: the one gate before
        `_level_increments`, on the children's range."""
        if n < 1:
            raise DomainError("increments start at level 1")
        if hi is None:      # the whole level, refused past max_depth before 2^(n-1) is built
            self._check_range(n, 0, 0)
            hi = 1 << (n - 1)
        self._check_range(n, 2 * lo, 2 * hi)
        return self._level_increments(n, np.arange(lo, hi, dtype=np.uint64 if n <= 64 else object))

    def _level_increments(self, n: int, parents: np.ndarray) -> np.ndarray:
        """Jumps into level n of the children of `parents` (level n - 1
        indices), left then right: the one method a kind defines."""
        raise NotImplementedError(f"{type(self).__name__} defines no _level_increments")

    def _walk(self, depth: int, cap: float):
        """The walk of ``level_blocks``, refused past ``max_depth`` and the
        sweep budget before any level: a block whose children would pass
        `cap` cells is halved before stepping."""
        self._check_range(depth, 0, 0)
        check_sweep_budget(depth)
        stack = [(0, 0, np.full(1, float(self.s0)))] if depth > 0 else []
        while stack:
            n, lo, vals = stack.pop()
            if 2 * vals.size > cap:
                half = vals.size // 2
                stack += [(n, lo + half, vals[half:]), (n, lo, vals[:half])]
                continue
            incs = self.level_increments(n + 1, lo, lo + vals.size)
            vals = _children(vals, incs)
            yield n + 1, 2 * lo, incs, vals
            if n + 1 < depth:
                stack.append((n + 1, 2 * lo, vals))

    def level_blocks(self, depth: int):
        """Yield (n, lo, increments, values) for blocks of at most BLOCK_CELLS
        level-n cells from lo on, n = 1..depth, walked depth first from S_0:
        a level's blocks arrive in index order, each after its parents'."""
        return self._walk(depth, BLOCK_CELLS)

    def levels(self, depth: int):
        """Yield (n, increments, values) for n = 1..depth: the walk of
        ``level_blocks`` with one block per level."""
        return ((n, incs, vals) for n, _, incs, vals in self._walk(depth, math.inf))

    def level_values_range(self, n: int, lo: int, hi: int) -> np.ndarray:
        """Values of S_n on level-n indices [lo, hi): the walk of ``levels``
        through only the cells above the range, O(hi - lo + n) of them."""
        self._check_range(n, lo, hi)
        if hi == lo:
            return np.zeros(0)
        vals = np.full(1, float(self.s0))
        for m in range(1, n + 1):
            first = lo >> (n - m + 1)       # `vals` starts at cell `first` of level m - 1
            kids = _children(vals, self._level_increments(m, np.arange(
                first, first + vals.size, dtype=np.uint64 if m <= 64 else object)))
            vals = kids[(lo >> (n - m)) - 2 * first:((hi - 1) >> (n - m)) + 1 - 2 * first]
        return vals

    def level_values(self, n: int) -> np.ndarray:
        """Values of S_n on all 2^n level-n intervals, refused past
        ``max_depth`` and the sweep budget before the range read."""
        self._check_range(n, 0, 0)
        check_sweep_budget(n)
        return self.level_values_range(n, 0, 1 << n)


class ValueMartingale(Martingale):
    """Divided-difference martingale S(I) = 2^n (f(b) - f(a)), I = [a, b) at level
    n <= depth, of a HolderFunction f, whose cancellation is f's: checked, not
    assumed.  One ``f.dyadic_differences`` read per range, kept; reads get copies.
    The hook reads the children's cells and the parents' cells, one call each."""

    def __init__(self, f, depth: int):
        super().__init__(max_depth=depth, name="from-function")
        self._ints = np.int64 if depth < 63 else object       # Python ints past 2^62 + 1
        self._cells = lambda n, j: np.ldexp(f.dyadic_differences(j, j + 1, n), n)
        self._read = functools.cache(
            lambda n, lo, hi: self._cells(n, np.arange(lo, hi, dtype=self._ints)))
        self.s0 = self.value(unit_interval())

    def _level_increments(self, n: int, parents: np.ndarray) -> np.ndarray:
        p = parents.astype(self._ints)
        kids = (2 * p[:, None] + [0, 1]).ravel()       # left then right
        return self._cells(n, kids) - np.repeat(self._cells(n - 1, p), 2)

    def value(self, I: DyadicInterval):
        self._check_range(I.level, I.index, I.index + 1)
        return float(self._read(I.level, I.index, I.index + 1)[0])

    def level_values_range(self, n: int, lo: int, hi: int) -> np.ndarray:
        self._check_range(n, lo, hi)
        return self._read(n, lo, hi).copy() if hi > lo else np.zeros(0)


def from_function(f, depth: int) -> ValueMartingale:
    """The divided-difference martingale of f, evaluable to `depth`."""
    return ValueMartingale(f, depth)


class PairedMartingale(Martingale):
    """Martingale paired by construction: one left-child jump kernel.

    A subclass defines ``_left(level, parents)``, the jump into `level` of
    each parent's left child, where `parents` is a Python int or an array
    of uint64s or Python ints and the same arithmetic serves all.  The hook
    reads it on arrays and ``increment`` on the one Python-int parent, so
    int jumps stay ints; the right child takes ``0 - left``: exactly
    opposite, and +0.0 for a zero jump.
    """

    def _inc(self, child: DyadicInterval):
        # Python ints, not a numpy uint64 scalar, which warns when it wraps
        left = self._left(child.level, child.index >> 1)
        return left if (child.index & 1) == 0 else 0 - left

    def _level_increments(self, n: int, parents: np.ndarray) -> np.ndarray:
        out = np.empty(2 * parents.size)
        out[0::2] = self._left(n, parents)
        np.subtract(0.0, out[0::2], out=out[1::2])
        return out


class BinaryDigitMartingale(PairedMartingale):
    """S_n = 2*(number of 1-digits) - n; increments are exactly +-1."""

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH):
        super().__init__(s0=0, max_depth=max_depth, star_bound=1.0, name="binary")

    @staticmethod
    def _left(level, parents) -> int:
        return -1

    def value(self, I: DyadicInterval) -> int:
        self._check_range(I.level, I.index, I.index + 1)
        return 2 * int(I.index).bit_count() - I.level


def binary_digit_martingale(max_depth: int = DEFAULT_MAX_DEPTH) -> BinaryDigitMartingale:
    return BinaryDigitMartingale(max_depth=max_depth)


class _ZeroMartingale(PairedMartingale):
    @staticmethod
    def _left(level, parents) -> float:
        return 0.0


def zero_martingale() -> Martingale:
    return _ZeroMartingale(star_bound=0.0, name="zero")


class RandomSignMartingale(PairedMartingale):
    """Increments +-scale with a random sign per parent.

    The sign of parent (level, index) is the top bit of a counter-based
    SplitMix64 hash of (seed, level, index), so scalar and level reads
    agree; the left child takes +sign and the right child its opposite.
    """

    _kind = "random-sign"

    def __init__(self, seed: int, scale: float = 1.0, max_depth: int = DEFAULT_MAX_DEPTH):
        super().__init__(s0=0.0, max_depth=max_depth, star_bound=scale,
                         name=f"{self._kind}-{seed}")
        self.seed = seed
        self.scale = scale

    def _left(self, level, parents):
        return self._draw(_stream(self.seed, level - 1, parents))

    def _draw(self, bits):
        """Left-child increments from the parents' stream bits."""
        return self.scale * (1.0 - 2.0 * (bits >> 63))


class _RandomUniformMartingale(RandomSignMartingale):
    """Paired increments +-u per parent, u uniform on the 2^-52 grid of
    [-1, 1), read from the same stream as the random signs."""

    _kind = "random-uniform"

    def _draw(self, bits):
        return self.scale * ((bits >> 11) * 2.0 ** -52 - 1.0)


class ScaledMartingale(Martingale):
    """Level-scaled view of `base`: increments 2^(n gamma) (S_n - S_{n-1}).

    Paired increments stay paired, so the view is again a martingale;
    it starts at `s0` and reads `base` at the same depth cap.
    """

    def __init__(self, base: Martingale, gamma: float, s0=0.0,
                 star_bound: Optional[float] = None, name: Optional[str] = None):
        super().__init__(s0=s0, max_depth=base.max_depth, star_bound=star_bound,
                         name=name or f"scaled({base.name}, {gamma})")
        self.base = base
        self.gamma = gamma

    def _level_increments(self, n: int, parents: np.ndarray) -> np.ndarray:
        return math.pow(2.0, n * self.gamma) * self.base._level_increments(n, parents)


def _sup(values, start: float = 0.0) -> float:
    """The largest of `start` and `values`, NaN once one of them is NaN:
    Python's max and a `>` test both drop a NaN."""
    return float(np.max([start, *values]))


@dataclass
class CancellationReport:
    max_violation: float
    worst_interval: Optional[DyadicInterval]
    checked: int

    def ok(self, tol: float = 1e-12) -> bool:
        return self.max_violation <= tol


# parents per level-array read in check_cancellation, bounding its memory
_CANCELLATION_CHUNK = 1 << 16


def check_cancellation(S: Martingale, depth: int) -> CancellationReport:
    """Exhaustively verify value(I) = mean of children values to `depth`.

    Reports the largest deviation and the interval attaining it; each
    level is read in chunks of parents, with their children.  The sweep
    budget bounds its work: depth 25 and beyond is refused before any read.
    """
    check_sweep_budget(depth)
    worst = 0.0
    worst_iv: Optional[DyadicInterval] = None
    checked = 0
    for n in range(depth):
        step = min(1 << n, _CANCELLATION_CHUNK)
        for lo in range(0, 1 << n, step):
            parents = S.level_values_range(n, lo, lo + step)
            kids = S.level_values_range(n + 1, 2 * lo, 2 * (lo + step))
            viol = np.abs(parents - 0.5 * (kids[0::2] + kids[1::2]))
            j = int(np.argmax(viol))      # the first NaN, if there is one
            if worst == worst and not viol[j] <= worst:     # a NaN stays worst
                worst = float(viol[j])
                worst_iv = DyadicInterval(n, lo + j)
            checked += step
    return CancellationReport(worst, worst_iv, checked)


def star_norm(S: Martingale, depth: int) -> float:
    """sup_{n <= depth} ||S_n - S_{n-1}||_inf over the evaluated tree.

    A to-depth lower bound of the supremum, monotone nondecreasing in
    depth.
    """
    return _sup(float(np.max(np.abs(incs))) for _, _, incs, _ in S.level_blocks(depth))


class GrowthMartingale(ScaledMartingale):
    """Martingale T with growth exponent beta: the view 2^(n beta) of its
    discounted martingale.

    The discounted martingale S has the scaled increments
    ``2^-(n*beta) (T_n - T_{n-1})``, whose sup norm is the beta-star norm
    of T.  `discounted` is S itself, which must start at S_0 = 0; T_0 is
    `t0`.
    """

    def __init__(self, beta: float, discounted: Martingale, t0: float = 0.0,
                 name: str = "growth"):
        if not 0.0 < beta < 1.0:
            raise DomainError("beta must lie in (0,1)")
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
    return _sup((math.pow(2.0, -n * T.beta) * float(np.max(np.abs(vals)))
                 for n, _, _, vals in T.level_blocks(depth)), abs(T.t0))


def discount_transform(T: GrowthMartingale) -> Martingale:
    """Bounded-increment martingale S_n = sum_k 2^-(k beta)(T_k - T_{k-1}).

    S_0 = 0, and each unit increment *is* the scaled increment of T, so
    ||S_n - S_{n-1}||_inf <= ||{T}||_{beta,*} with no rounding at all.
    """
    return T.base


def sharpness_martingale(beta: float, base: Optional[Martingale] = None,
                         max_depth: int = DEFAULT_MAX_DEPTH) -> GrowthMartingale:
    """Growth martingale T_n = sum_k 2^(k beta)(S_k - S_{k-1}) over `base`.

    `base` is T's discounted martingale, so the discount transform returns
    it again.  With the binary-digit base the beta-star norm is exactly 1.
    """
    if base is None:
        base = binary_digit_martingale(max_depth=max_depth)
    return GrowthMartingale(beta, base, name=f"sharpness({base.name})")


def random_growth_martingale(beta: float, seed: int,
                             max_depth: int = DEFAULT_MAX_DEPTH) -> GrowthMartingale:
    """Growth martingale with random scaled increments, |.| <= 1, paired."""
    return GrowthMartingale(beta, _RandomUniformMartingale(seed, max_depth=max_depth),
                            name=f"random-growth-{seed}")


def summation_by_parts_check(T: GrowthMartingale, depth: int) -> float:
    """Max residual of the summation-by-parts identity over all intervals.

    Compares S_n(x) = sum_{k<=n} 2^-(k beta)(T_k - T_{k-1}) against
    (1 - 2^-beta) sum_{k<n} 2^-(k beta) T_k + 2^-(n beta) T_n - 2^-beta T_0
    on every interval to `depth`, level by level.
    """
    beta = T.beta
    acc = np.zeros(1)           # sum_{0<k<n} 2^-(k beta) T_k, left to right
    residuals = []
    for (n, _, s_vals), (_, _, t_vals) in zip(discount_transform(T).levels(depth),
                                              T.levels(depth)):
        acc = np.repeat(acc, 2)
        rhs = ((1.0 - 2.0 ** -beta) * acc
               + math.pow(2.0, -n * beta) * t_vals
               - 2.0 ** -beta * T.t0)
        residuals.append(float(np.max(np.abs(s_vals - rhs))))
        acc = acc + math.pow(2.0, -n * beta) * t_vals
    return _sup(residuals)


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
        if not 0.0 <= C < math.inf:     # NaN fails too
            raise DomainError(f"C must be nonnegative and finite, not {C}")
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

    def _level_pairs(self, depth: int):
        """(T_{n-1}, T_n) for n = 1..depth, each decimated level read once."""
        if depth < 1:
            return
        prev = self._level_values(0)
        for n in range(1, depth + 1):
            cur = self._level_values(n)
            yield prev, cur
            prev = cur

    def star_norm(self, depth: int) -> float:
        """sup over decimated steps to `depth` of |T_n - T_{n-1}|."""
        return _sup(float(np.max(np.abs(cur - np.repeat(prev, 1 << self.N))))
                    for prev, cur in self._level_pairs(depth))

    def check_cancellation(self, depth: int) -> float:
        """Max deviation of a node value from the mean of its 2^N children."""
        fan = 1 << self.N
        deviations = []
        for prev, cur in self._level_pairs(depth):
            kids = cur.reshape(-1, fan)
            # children summed left to right, like a running scalar sum
            mean = sum(kids[:, c] for c in range(fan)) / fan
            deviations.append(float(np.max(np.abs(prev - mean))))
        return _sup(deviations)


def dump_rows(S: Martingale, depth: int):
    """(level, index, value) rows for the materialized prefix to `depth`;
    the sweep budget is checked before any level is built."""
    check_sweep_budget(depth)
    return ((n, j, v) for n in range(depth + 1)
            for j, v in enumerate(S.level_values(n).tolist()))
