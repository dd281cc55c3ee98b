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

from .dyadic import DomainError, DyadicInterval, unit_interval
from .martingale import Martingale


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
    def satisfied(self) -> Optional[bool]:
        """Whether the inequality held; None when the hypothesis failed."""
        if not self.hypothesis_holds:
            return None
        return self.product >= self.bound or math.isclose(
            self.product, self.bound, rel_tol=1e-12)

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
    if any(abs(x) > 1.0 + 1e-15 for x in xs):
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
    product = Fraction(1)
    for x in xs:
        if abs(x) > 1:
            raise DomainError("all x_k must satisfy |x_k| <= 1")
        product *= (1 + eta * x) / 2
    return product


def extremal_configuration(n: int, eta: Fraction) -> list[Fraction]:
    """x = (1,...,1,-1,...,-1) with N(1+eta)/2 ones; requires it integral."""
    eta = Fraction(eta)
    n0 = Fraction(n) * (1 + eta) / 2
    if n0.denominator != 1:
        raise DomainError("N(1+eta)/2 must be an integer")
    n0 = int(n0)
    return [Fraction(1)] * n0 + [Fraction(-1)] * (n - n0)


def extremal_bound_exact(n: int, eta: Fraction) -> Fraction:
    """2^(-N Phi(eta)) as an exact rational at the extremal configuration.

    With N0 = N(1+eta)/2 integral, N*Phi(eta) = N - N0 log2(1+eta)
    - (N-N0) log2(1-eta) and the bound equals
    (1+eta)^N0 (1-eta)^(N-N0) / 2^N, which is rational.
    """
    eta = Fraction(eta)
    n0f = Fraction(n) * (1 + eta) / 2
    if n0f.denominator != 1:
        raise DomainError("N(1+eta)/2 must be an integer")
    n0 = int(n0f)
    return (1 + eta) ** n0 * (1 - eta) ** (n - n0) / Fraction(2) ** n


class MassMeasure:
    """Probability measure on dyadic intervals driven by a martingale.

    mu([0,1)) = 1 and each child receives the fraction (1 + eta*jump)/2 of
    its parent's mass; the two fractions sum to 1 exactly because sibling
    jumps cancel.  With ||S||_* <= 1 and 0 < eta < 1 all masses stay in
    [0, 1].  Exact rational masses are available whenever the jumps are
    exactly representable (every float is); log2 masses are always
    available and never underflow.
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
        self.eta_exact = Fraction(eta)

    def ratio(self, child: DyadicInterval) -> float:
        r = (1.0 + self.eta * self.S.increment(child)) / 2.0
        if r < -1e-12 or r > 1.0 + 1e-12:
            raise DomainError(
                f"jump at {child} violates the declared increment bound")
        return r

    def ratio_exact(self, child: DyadicInterval) -> Fraction:
        jump = Fraction(self.S.increment(child))
        return (1 + self.eta_exact * jump) / 2

    def mass_exact(self, I: DyadicInterval) -> Fraction:
        m = Fraction(1)
        for lvl in range(1, I.level + 1):
            m *= self.ratio_exact(I.ancestor(lvl))
        return m

    def mass_log2(self, I: DyadicInterval) -> float:
        acc = 0.0
        for lvl in range(1, I.level + 1):
            r = self.ratio(I.ancestor(lvl))
            if r == 0.0:
                return -math.inf
            acc += math.log2(r)
        return acc


def mass_measure(S: Martingale, eta: float) -> MassMeasure:
    return MassMeasure(S, eta)


@dataclass
class MassSweepReport:
    """Levelwise audit of a mass measure against its martingale."""

    depth: int
    eta: float
    members: int                      # intervals with S(I) >= eta * level
    worst_log2_margin: float          # min over members of log2 mu + level*Phi
    worst_member: Optional[DyadicInterval]
    increments_paired: bool           # sibling jumps exactly opposite
    level_sums_exact: bool            # every level's masses sum to exactly 1
    phi: float

    def ok(self, margin_tol: float = 1e-9) -> bool:
        return (self.increments_paired and self.level_sums_exact
                and self.worst_log2_margin >= -margin_tol)


def sweep_mass_distribution(S: Martingale, eta: float, depth: int) -> MassSweepReport:
    """Check mu(I) >= |I|^Phi(eta) on {S(I) >= eta log2(1/|I|)} to `depth`.

    Works levelwise with vectorized martingale sweeps.  Masses are audited
    two ways: float log2 masses for the lower-bound margin, and exact
    rational numerators (jumps read as the exact rationals their floats
    are) for the sums-to-one test.  A vectorized int64 numerator path
    covers unit-jump martingales; anything larger falls back to big ints.
    """
    phi = entropy_phi(eta)
    eta_frac = Fraction(eta)
    s_vals = np.zeros(1)
    log2_mass = np.zeros(1)
    worst_margin = math.inf
    worst_member: Optional[DyadicInterval] = None
    members = 0
    paired = True
    sums_exact = True
    if float(S.s0) >= 0.0:
        # the root always belongs to the threshold family, with margin 0
        members = 1
        worst_margin = 0.0
        worst_member = unit_interval()

    # exact masses: num / den with a per-level common denominator
    nums64: Optional[np.ndarray] = np.ones(1, dtype=np.int64)
    nums_big: Optional[np.ndarray] = None
    den = 1
    bound64 = 1  # running bound on the largest numerator in the int64 path

    for n in range(1, depth + 1):
        incs = np.asarray(S.level_increments(n), dtype=float)
        if not np.all(incs[0::2] == -incs[1::2]):
            paired = False
        s_vals = np.repeat(s_vals, 2) + incs
        ratios = (1.0 + eta * incs) / 2.0
        if np.any(ratios < -1e-12) or np.any(ratios > 1.0 + 1e-12):
            raise DomainError("increment bound violated during evaluation")
        with np.errstate(divide="ignore"):
            log2_mass = np.repeat(log2_mass, 2) + np.log2(np.maximum(ratios, 0.0))

        mask = s_vals >= eta * n - 1e-12
        count = int(np.count_nonzero(mask))
        if count:
            members += count
            margins = log2_mass[mask] + phi * n
            j = int(np.argmin(margins))
            if margins[j] < worst_margin:
                worst_margin = float(margins[j])
                worst_member = DyadicInterval(n, int(np.nonzero(mask)[0][j]))

        # lift this level's ratios to a common denominator
        uniq = np.unique(incs)
        fracs = [(1 + eta_frac * Fraction(float(v))) / 2 for v in uniq]
        lev_den = 1
        for f in fracs:
            lev_den = lev_den * f.denominator // math.gcd(lev_den, f.denominator)
        lut = [f.numerator * (lev_den // f.denominator) for f in fracs]
        den *= lev_den

        codes = np.searchsorted(uniq, incs)
        if nums64 is not None:
            max_r = max(*lut, 1)
            if bound64 * max_r < (1 << 62) and len(lut) <= 8:
                nums64 = np.repeat(nums64, 2) * np.array(lut, dtype=np.int64)[codes]
                bound64 *= max_r
                sums_exact = sums_exact and int(nums64.sum(dtype=object)) == den
                continue
            nums_big = nums64.astype(object)
            nums64 = None

        # big-integer numerators, multiplied as Python ints in object arrays
        nums_big = np.repeat(nums_big, 2) * np.array(lut, dtype=object)[codes]
        sums_exact = sums_exact and int(nums_big.sum()) == den

    if members == 0:
        worst_margin = math.inf
    return MassSweepReport(depth, eta, members, worst_margin, worst_member,
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


def level_set_family(S: Martingale, eta: float, depth: int) -> list[DyadicInterval]:
    """All intervals to `depth` with S(I) >= eta * level (vectorized sweep)."""
    out: list[DyadicInterval] = []
    vals = np.zeros(1)
    for n in range(1, depth + 1):
        vals = np.repeat(vals, 2) + S.level_increments(n)
        for j in np.nonzero(vals >= eta * n - 1e-12)[0]:
            out.append(DyadicInterval(n, int(j)))
    return out


def besicovitch_threshold(N: int, eta) -> int:
    """Smallest digit count k with 2k - N >= eta N, by exact comparison."""
    eta = Fraction(eta)
    if not 0 < eta < 1:
        raise DomainError("eta must lie in (0, 1)")
    kmin = Fraction(N) * (1 + eta) / 2
    return int(math.ceil(kmin)) if kmin.denominator != 1 else int(kmin)


def besicovitch_count(N: int, eta) -> int:
    """Exact number of level-N intervals with S(I) >= eta N (binary digits).

    Equals sum_{k >= ceil(N(1+eta)/2)} C(N, k); exact big-integer
    arithmetic, so N in the thousands is fine.
    """
    if N < 0:
        raise DomainError("N must be nonnegative")
    if N > 10_000:
        raise DomainError("N capped at 10^4")
    kmin = besicovitch_threshold(N, eta)
    return sum(math.comb(N, k) for k in range(kmin, N + 1))


def besicovitch_count_bruteforce(N: int, eta) -> int:
    """Independent oracle: enumerate all 2^N addresses and count directly."""
    if N > 26:
        raise DomainError("brute force capped at N = 26")
    idx = np.arange(1 << N, dtype=np.uint64)
    ones = np.bitwise_count(idx).astype(np.int64)
    kmin = besicovitch_threshold(N, eta)
    return int(np.count_nonzero(ones >= kmin))


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
