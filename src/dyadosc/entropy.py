"""Entropy function, product lower bound, mass measure, and exact counting.

The dimension bound for growth sets of bounded-increment martingales runs
through three pieces that are each exercised here at desk scale:

* the entropy ``Phi(eta)`` controlling the exponent,
* the convexity product bound  prod (1 + eta x_k)/2 >= 2^(-N Phi(eta))
  whenever sum x_k >= eta N with |x_k| <= 1,
* the mass measure built from a martingale by per-child ratios
  (1 + eta * jump)/2, which majorizes |I|^Phi(eta) on the collection of
  intervals where S(I) >= eta log2(1/|I|).

Counting level sets of the binary-digit martingale recovers the classical
digit-frequency dimension exactly (big-integer binomial tails).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .dyadic import DomainError, DyadicInterval
from .martingale import Martingale, check_sweep_budget


def _xlog2x(t: float) -> float:
    return 0.0 if t == 0.0 else t * math.log2(t)


def entropy_phi(eta: float) -> float:
    """Entropy (1+eta)/2 log2(2/(1+eta)) + (1-eta)/2 log2(2/(1-eta)).

    Strictly decreasing from 1 to 0 on (0,1); the endpoints are the
    continuous limits (x log x -> 0).
    """
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise DomainError("eta must lie in [0, 1]")
    p = (1.0 + eta) / 2.0
    q = (1.0 - eta) / 2.0
    return -_xlog2x(p) - _xlog2x(q) + 0.0


@dataclass
class ProductBoundResult:
    product: float
    bound: float
    hypothesis_holds: bool
    sum_x: float
    n: int

    @property
    def log2_margin(self) -> float:
        if self.product <= 0.0:
            return -math.inf
        return math.log2(self.product) - math.log2(self.bound)


def product_lower_bound(xs: Sequence[float], eta: float) -> ProductBoundResult:
    """Both sides of  prod (1 + eta x_k)/2 >= 2^(-N Phi(eta)).

    The inequality is asserted only when the hypothesis sum x_k >= eta N
    holds; otherwise the result just reports both sides.
    """
    xs = list(xs)
    n = len(xs)
    if n == 0:
        raise DomainError("need at least one x_k")
    if not all(abs(x) <= 1.0 + 1e-15 for x in xs):     # NaN fails too
        raise DomainError("all x_k must satisfy |x_k| <= 1")
    eta = float(eta)
    if not 0.0 < eta < 1.0:
        raise DomainError("eta must lie in (0, 1)")
    sum_x = math.fsum(xs)
    product = 1.0
    for x in xs:
        product *= (1.0 + eta * x) / 2.0
    bound = 2.0 ** (-n * entropy_phi(eta))
    return ProductBoundResult(product, bound, sum_x >= eta * n - 1e-12, sum_x, n)


def product_lower_bound_exact(xs: Sequence[Fraction], eta: Fraction):
    """Exact-rational product and, when it is rational, the exact bound.

    The bound 2^(-N Phi(eta)) is rational iff N(1+eta)/2 * log-terms align;
    for the extremal configuration the product is returned exactly so
    equality can be asserted with no tolerance at all.
    """
    xs = [Fraction(x) for x in xs]
    eta = Fraction(eta)
    if not 0 < eta < 1:
        raise DomainError("eta must lie in (0, 1)")
    product = Fraction(1)
    for x in xs:
        if abs(x) > 1:
            raise DomainError("all x_k must satisfy |x_k| <= 1")
        product *= (1 + eta * x) / 2
    return product


def _extremal_ones(n: int, eta: Fraction) -> int:
    """N0 = N(1+eta)/2, the extremal count of ones; requires it integral."""
    if not 0 < eta < 1:
        raise DomainError("eta must lie in (0, 1)")
    n0 = Fraction(n) * (1 + eta) / 2
    if n0.denominator != 1:
        raise DomainError("N(1+eta)/2 must be an integer")
    return int(n0)


def extremal_configuration(n: int, eta: Fraction) -> list[Fraction]:
    """x = (1,...,1,-1,...,-1) with N(1+eta)/2 ones; requires it integral."""
    n0 = _extremal_ones(n, Fraction(eta))
    return [Fraction(1)] * n0 + [Fraction(-1)] * (n - n0)


def extremal_bound_exact(n: int, eta: Fraction) -> Fraction:
    """2^(-N Phi(eta)) as an exact rational at the extremal configuration.

    With N0 = N(1+eta)/2 integral, N*Phi(eta) = N - N0 log2(1+eta)
    - (N-N0) log2(1-eta) and the bound equals
    (1+eta)^N0 (1-eta)^(N-N0) / 2^N, which is rational.
    """
    eta = Fraction(eta)
    n0 = _extremal_ones(n, eta)
    return (1 + eta) ** n0 * (1 - eta) ** (n - n0) / Fraction(2) ** n


class MassMeasure:
    """Probability measure on dyadic intervals driven by a martingale.

    mu([0,1)) = 1 and each child receives the fraction (1 + eta*jump)/2 of
    its parent's mass; the two fractions sum to 1 exactly because sibling
    jumps cancel.  With ||S||_* <= 1 and 0 < eta < 1 all masses stay in
    [0, 1].  log2 masses never underflow; the sweep audits the exact
    split of every parent's mass (every float jump is an exact rational).
    """

    def __init__(self, S: Martingale, eta: float):
        eta_f = float(eta)
        if not 0.0 < eta_f < 1.0:
            raise DomainError("eta must lie in (0, 1)")
        if S.star_bound is not None and S.star_bound > 1.0 + 1e-12:
            raise DomainError(
                f"mass measure needs ||S||_* <= 1, declared {S.star_bound}")
        if S.s0 != 0:
            raise DomainError("mass measure expects S_0 = 0")
        self.S = S
        self.eta = eta_f

    def ratio(self, child: DyadicInterval) -> float:
        return float(_mass_ratio(self.eta, self.S.increment(child)))

    def mass_log2(self, I: DyadicInterval) -> float:
        acc = 0.0
        for lvl in range(1, I.level + 1):
            r = self.ratio(I.ancestor(lvl))
            if r == 0.0:
                return -math.inf
            acc += math.log2(r)
        return acc


def _mass_ratio(eta: float, u: float) -> Fraction:
    """The mass ratio (1 + eta*u)/2 of a jump u, exactly, on the rationals
    the floats eta and u are; a ratio below 0 or past 1 + 1e-12, or a NaN
    or infinite jump, breaks the declared increment bound."""
    u = float(u)
    if math.isfinite(u):
        r = (1 + Fraction(eta) * Fraction(u)) / 2
        if 0 <= r <= 1.0 + 1e-12:
            return r
    raise DomainError(f"jump {u!r} violates the declared increment bound")


@dataclass
class MassSweepReport:
    """Levelwise audit of a mass measure against its martingale."""

    depth: int
    eta: float
    members: int                      # intervals with S(I) >= eta * level
    worst_log2_margin: float          # min over members of log2 mu + level*Phi
    worst_member: Optional[DyadicInterval]
    increments_paired: bool           # sibling jumps exactly opposite
    level_sums_exact: bool            # every parent's mass splits exactly
    phi: float

    def ok(self, margin_tol: float = 1e-9) -> bool:
        return (self.increments_paired and self.level_sums_exact
                and self.worst_log2_margin >= -margin_tol)


# widest distinct-jump set per level whose jump codes come from
# comparisons; a wider set takes a binary search
_COMPARE_WIDTH = 8


def _distinct_jumps(incs: np.ndarray) -> np.ndarray:
    """The sorted distinct jumps of a level, as ``np.unique`` returns them
    (the first of each run of equal values, one NaN), from one sort and an
    adjacent-difference mask; ``np.unique`` would import ``numpy.ma``."""
    srt = np.sort(incs)
    keep = np.empty(srt.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=keep[1:])
    uniq = srt[keep]
    if uniq.size > 1 and np.isnan(uniq[-2]):    # NaN != NaN kept every NaN
        uniq = uniq[:int(np.argmax(np.isnan(uniq))) + 1]
    return uniq


def _jump_codes(incs: np.ndarray, uniq: np.ndarray) -> np.ndarray:
    """Position of each jump in the sorted distinct jumps `uniq`."""
    if len(uniq) > _COMPARE_WIDTH:
        return np.searchsorted(uniq, incs)
    codes = np.zeros(incs.shape, dtype=np.uint8)
    for u in uniq[1:].tolist():
        codes += incs >= u
    return codes


def _mass_blocks(S: Martingale, eta: float, depth: int,
                 ratios: Optional[dict] = None):
    """The mass sweep's kernel: for each block of ``S.level_blocks(depth)``
    yields (n, lo, incs, s_vals, uniq, codes, log2_mass).

    A sweep holds a handful of distinct jumps, so what depends on the jump
    alone is computed once per distinct jump of the sweep: the exact ratio
    (1 + eta*u)/2 and its bound check, kept in `ratios`, and the
    `math.log2` of its float, as in ``MassMeasure.mass_log2``.  The cells
    read their ratio's log2 through `codes`, their positions in the
    block's distinct jumps `uniq`, and add their parent's log2 mass to it
    (the sum of the scalar oracle, whose two terms commute), a slice of the
    last block read a level up, which holds the block's parents.
    """
    MassMeasure(S, eta)     # its domain checks, before any level is built
    eta_f = float(eta)
    ratios = {} if ratios is None else ratios
    log2s: dict[float, float] = {}
    last = {0: (0, np.zeros(1))}    # level -> (lo, log2 masses) of its last block
    for n, lo, incs, s_vals in S.level_blocks(depth):
        uniq = _distinct_jumps(incs)
        jumps = uniq.tolist()
        for u in jumps:
            if u not in log2s:
                r = ratios[u] = _mass_ratio(eta_f, u)
                log2s[u] = math.log2(f) if (f := float(r)) > 0.0 else -math.inf
        lg = np.array([log2s[u] for u in jumps])
        codes = _jump_codes(incs, uniq)
        kids = lg.take(codes)
        plo, masses = last[n - 1]
        parents = masses[lo // 2 - plo:lo // 2 - plo + kids.size // 2]
        kids[0::2] += parents
        kids[1::2] += parents
        last[n] = (lo, kids)
        yield n, lo, incs, s_vals, uniq, codes, kids


def sweep_mass_distribution(S: Martingale, eta: float, depth: int) -> MassSweepReport:
    """Check mu(I) >= |I|^Phi(eta) on {S(I) >= eta log2(1/|I|)} to `depth`.

    Works block by block through ``S.level_blocks``, depth first, under
    the mass measure's domain checks, so S_0 = 0 and the root is a member
    with margin 0; float log2 masses give the margins, and the worst member
    is the first of least margin in level order.  The audit reads the
    exact ratios the kernel used: every parent's mass splits exactly when
    every block is paired (sibling jumps u and -u) and ratio(u) + ratio(-u)
    == 1 for each distinct jump u of the sweep; then every level sums to 1,
    by induction from the root.
    """
    if depth < 1:
        raise DomainError("the mass sweep needs depth >= 1")
    phi = entropy_phi(eta)
    worst = (0.0, 0, 0)     # (margin, level, index) of the worst member: the root
    members = 1
    paired = True
    ratios: dict[float, Fraction] = {}
    for n, lo, incs, s_vals, _, _, log2_mass in _mass_blocks(S, eta, depth, ratios):
        paired = paired and bool(np.all(incs[0::2] == -incs[1::2]))
        mask = s_vals >= eta * n - 1e-12
        count = int(np.count_nonzero(mask))
        if count:
            members += count
            margins = log2_mass[mask] + phi * n
            j = int(np.argmin(margins))
            # a level's later blocks hold later indices, so compare (margin, level)
            if (m := float(margins[j]), n) < worst[:2]:
                worst = (m, n, lo + int(np.flatnonzero(mask)[j]))
    sums_exact = paired and all(r + ratios[-u] == 1 for u, r in ratios.items())
    return MassSweepReport(depth, eta, members, worst[0], DyadicInterval(*worst[1:]),
                           paired, sums_exact, phi)


def covering_content(intervals: Iterable[DyadicInterval], s: float,
                     delta: float) -> float:
    """sum |I|^s over maximal members of length < delta.

    Maximal members of a finite dyadic family are pairwise disjoint, so
    the sum is the delta-content of the covered set.
    """
    if not 0.0 < s <= 1.0:
        raise DomainError("exponent s must lie in (0, 1]")
    short = [I for I in intervals if math.ldexp(1.0, -I.level) < delta]
    short.sort(key=lambda I: I.level)
    kept: set[tuple[int, int]] = set()
    total = 0.0
    for I in short:
        anc_found = False
        for lvl in range(0, I.level):
            if (lvl, I.index >> (I.level - lvl)) in kept:
                anc_found = True
                break
        if anc_found or (I.level, I.index) in kept:
            continue
        kept.add((I.level, I.index))
        total += math.ldexp(1.0, -I.level) ** s
    return total


def besicovitch_threshold(N: int, eta) -> int:
    """Smallest digit count k with 2k - N >= eta N, by exact comparison."""
    eta = Fraction(eta)
    if not 0 < eta < 1:
        raise DomainError("eta must lie in (0, 1)")
    return math.ceil(Fraction(N) * (1 + eta) / 2)


def besicovitch_count(N: int, eta) -> int:
    """Exact number of level-N intervals with S(I) >= eta N (binary digits).

    Equals sum_{k >= ceil(N(1+eta)/2)} C(N, k); exact big-integer
    arithmetic, so N in the thousands is fine.  The binomials are carried
    down from C(N, N) = 1 by C(N, k-1) = C(N, k) k / (N - k + 1), an exact
    division, rather than each computed afresh.
    """
    if N < 0:
        raise DomainError("N must be nonnegative")
    if N > 10_000:
        raise DomainError("N capped at 10^4")
    kmin = besicovitch_threshold(N, eta)
    total = 0
    c = 1
    for k in range(N, kmin - 1, -1):
        total += c
        c = c * k // (N - k + 1)
    return total


def besicovitch_count_bruteforce(N: int, eta) -> int:
    """Independent oracle: enumerate all 2^N addresses and count directly,
    inside the sweep budget, against its own least digit count k with
    (2k - N) q >= p N for eta = p/q."""
    if N < 0:
        raise DomainError("N must be nonnegative")
    eta = Fraction(eta)
    if not 0 < eta < 1:
        raise DomainError("eta must lie in (0, 1)")
    check_sweep_budget(N)
    p, q = eta.numerator, eta.denominator
    ones = np.bitwise_count(np.arange(1 << N, dtype=np.uint64))    # uint8
    return int(np.count_nonzero(ones >= -(-N * (p + q) // (2 * q))))


def dim_estimate(counts: Sequence[tuple[int, int]]) -> list[float]:
    """log2(count)/N for each (N, count): finite-depth counting exponents.

    These are box-counting style estimates that approach the entropy bound
    from below with an O(log N / N) gap; they are not Hausdorff dimension
    itself.
    """
    out = []
    for N, count in counts:
        if N <= 0 or count <= 0:
            raise DomainError("need N > 0 and count > 0")
        out.append(_log2_int(count) / N)
    return out


def _log2_int(c: int) -> float:
    """log2 of a (possibly huge) positive integer, in float precision."""
    if c.bit_length() <= 53:
        return math.log2(c)
    shift = c.bit_length() - 53
    return math.log2(c >> shift) + shift
