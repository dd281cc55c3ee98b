"""Divided differences, the accumulated difference, and scale statistics.

The accumulated difference integrates the alpha-divided difference over
scales against dh/h; under h = 2^-u the integrand is bounded by the
Holder seminorm and the integral becomes a finite sum of per-octave
panels, which suits the lacunary structure of the test functions.  Scale
statistics estimate the dh/h measure of threshold events by log-uniform
Monte Carlo (indicator discontinuities defeat smooth quadrature).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dyadic import DomainError, DyadicInterval, locate
from .holder import HolderFunction

LN2 = math.log(2.0)


def divided_difference(f: HolderFunction, alpha: float, x: float, h: float) -> float:
    """(f(x+h) - f(x)) / |h|^alpha for signed nonzero h."""
    if h == 0.0:
        raise DomainError("h must be nonzero")
    return f.difference(x, x + h) / abs(h) ** alpha


@dataclass
class QuadratureConfig:
    """Composite panels per dyadic octave under the log substitution."""

    panels_per_octave: int = 32

    def __post_init__(self):
        if self.panels_per_octave < 1:
            raise DomainError("panels_per_octave must be at least 1")


@dataclass
class ThetaResult:
    value: float
    error_estimate: float       # from one panel-halving refinement
    panels: int


def _octave_simpson(g, uppers: Sequence[float], m: int) -> list[tuple[float, float]]:
    """int_0^U g(u) du at each U of the increasing `uppers`, by composite
    Simpson with m panels per octave [j, hi], hi = min(j+1, U): g(j, hi)
    gives the integrand on the nodes np.linspace(j, hi, 2m+1).  Full octaves
    are shared by every U; a non-integer U adds its own partial octave.
    Each U also gets the rule on every other node (m/2 panels of twice the
    step: the panel-halving reference, for even m)."""
    def simpson(v, step):
        return step / 6.0 * (v[0] + v[-1] + 4.0 * v[1::2].sum() + 2.0 * v[2:-1:2].sum())

    out, total, coarse, j = [], 0.0, 0.0, 0
    for U in uppers:
        while j < U:
            hi = min(j + 1.0, U)
            vals, step = g(j, hi), (hi - j) / m
            s, c = simpson(vals, step), simpson(vals[::2], 2.0 * step)
            if hi < j + 1:  # a partial octave serves this U only
                out.append((total + s, coarse + c))
                break
            total, coarse, j = total + s, coarse + c, j + 1
        else:
            out.append((total, coarse))
    return out


def _thetas(f: HolderFunction, alpha: float, x: float, eps_values: Sequence[float],
            quad: QuadratureConfig) -> list[tuple[float, float]]:
    """Theta and its coarse twin at each eps of the decreasing `eps_values`."""
    if not all(0.0 < eps < 1.0 for eps in eps_values):
        raise DomainError("eps must lie in (0, 1)")
    fx, m = f(x), 2 * quad.panels_per_octave

    def integrand(j, hi):
        u = np.linspace(float(j), hi, 2 * m + 1)
        return (f.batch(x + np.exp2(-u)) - fx) * np.exp2(alpha * u) * LN2

    return _octave_simpson(integrand, [math.log2(1.0 / eps) for eps in eps_values], m)


def theta(f: HolderFunction, alpha: float, x: float, eps: float,
          quad: Optional[QuadratureConfig] = None) -> ThetaResult:
    """Accumulated divided difference int_eps^1 (f(x+h)-f(x)) h^-alpha dh/h.

    Evaluated under h = 2^-u with composite 4th-order panels per octave;
    the reported error estimate is the change under one panel halving
    (conservative: no Richardson division), read from the same nodes.
    """
    quad = quad or QuadratureConfig()
    [(fine, coarse)] = _thetas(f, alpha, x, [eps], quad)
    octaves = math.ceil(math.log2(1.0 / eps))
    return ThetaResult(fine, abs(fine - coarse), 2 * quad.panels_per_octave * octaves)


def theta_linear_closed_form(slope: float, alpha: float, eps: float) -> float:
    """Theta for f(x) = slope * x: slope (1 - eps^(1-alpha)) / (1-alpha)."""
    return slope * (1.0 - eps ** (1.0 - alpha)) / (1.0 - alpha)


@dataclass
class ScaleStatistics:
    """dh/h measures of threshold events {Delta_alpha(f)(x, t) vs thresholds}.

    Measures are over t in [eps, 1]; the total available mass is
    log(1/eps).  Monte Carlo in log scale with a recorded seed.
    """

    x: float
    eps: float
    total_mass: float
    upper: dict[float, tuple[float, float]]   # delta -> (measure, stderr)
    lower: dict[float, tuple[float, float]]   # c -> (measure of {< -c}, stderr)
    middle_mass: float                        # complement of first (delta, c) pair
    seed: int
    samples: int


def sigma_stats(f: HolderFunction, alpha: float, x: float, eps: float,
                upper_thresholds: Sequence[float],
                lower_thresholds: Sequence[float],
                samples: int = 20_000, seed: int = 0) -> ScaleStatistics:
    """Estimate sigma{t in [eps,1]: Delta_alpha(f)(x,t) > delta} and the
    mirrored {< -c} events, by log-uniform sampling t = 2^-(u U).

    Deterministic for a fixed seed; standard errors are reported per
    threshold.  The three events {> delta}, [-c, delta], {< -c} of the
    leading threshold pair partition the sampled mass exactly.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    if samples < 1:
        raise DomainError("need at least one sample")
    if not all(0.0 < t < math.inf for t in (*upper_thresholds, *lower_thresholds)):
        raise DomainError("thresholds must be positive and finite")
    U = math.log(1.0 / eps)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, size=samples)
    ts = np.exp(-u * U)
    fx = f(x)  # the scalar first: it refuses an x out of its domain
    quots = (f.batch(x + ts) - fx) / np.power(ts, alpha)

    def measure(mask: np.ndarray) -> tuple[float, float]:
        p = float(np.mean(mask))
        stderr = U * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
        return U * p, stderr

    upper = {float(d): measure(quots > d) for d in upper_thresholds}
    lower = {float(c): measure(quots < -c) for c in lower_thresholds}
    middle = 0.0
    if upper_thresholds and lower_thresholds:
        d0, c0 = float(upper_thresholds[0]), float(lower_thresholds[0])
        middle = measure((quots <= d0) & (quots >= -c0))[0]
    return ScaleStatistics(x, eps, U, upper, lower, middle, seed, samples)


@dataclass
class GapProfile:
    """sup_x |Theta_eps(f)(x) - S_n(x)| by level, over an eps grid."""

    levels: list[int]
    gaps: list[float]
    points: int


def _tracking(f: HolderFunction, alpha: float, cutoff_extra: int,
              quad: QuadratureConfig):
    """The tracking value of f on a dyadic interval, as a function of the
    interval memoised across the intervals asked for.

    Each endpoint e's scalar F(e) and its row F(e + 2^-u) - F(e) on the
    nodes u of each octave, each octave's scales 2^-u and weights
    2^(alpha u), and each interval's value are computed once.  Nested
    intervals share an endpoint with their parent, and every interval
    shares the octaves.  A row is still one antiderivative_batch call on
    the same 2m+1 inputs in the same order, so a value does not depend on
    which other intervals were asked for first.  One closure serves one
    gap call, and its caches go with it.
    """
    if cutoff_extra < 1:
        raise DomainError("cutoff_extra must be at least 1")
    m = quad.panels_per_octave

    @functools.cache
    def octave(j: int) -> tuple[np.ndarray, np.ndarray]:
        """The scales 2^-u and weights 2^(alpha u) on the nodes of octave j."""
        u = np.linspace(float(j), j + 1.0, 2 * m + 1)
        return np.exp2(-u), np.exp2(alpha * u)

    @functools.cache
    def anti(e: float) -> float:
        return float(f.antiderivative_batch(np.array([e]))[0])

    @functools.cache
    def row(e: float, j: int) -> np.ndarray:
        """F(e + 2^-u) - F(e) on the nodes of octave j."""
        return f.antiderivative_batch(e + octave(j)[0]) - anti(e)

    @functools.cache
    def value(I: DyadicInterval) -> float:
        a, b = float(I.left), float(I.right)
        scale = math.ldexp(1.0, I.level)

        def integrand(j, hi):
            return scale * (row(b, j) - row(a, j)) * octave(j)[1] * LN2

        return _octave_simpson(integrand, [float(I.level + cutoff_extra)], m)[0][0]

    return value


def tracking_martingale_value(f: HolderFunction, alpha: float,
                              I: DyadicInterval, cutoff_extra: int = 24,
                              panels_per_octave: int = 32) -> float:
    """Value at I of the bounded-increment martingale that shadows Theta.

    The martingale is the interval average of the accumulated difference
    at a deep cutoff, S(I) = 2^m int_I Theta_{2^-(m+K)}(t) dt: averaging
    swaps with the scale integral, so the value reduces to one quadrature
    of h^-(1+alpha) 2^m [F(b+h) - F(b) - F(a+h) + F(a)] over scales
    h in [2^-(m+K), 1], with F the antiderivative of f.  Interval
    averages of f-increments at scales far below |I| are O(h/|I|^(1-alpha))
    small, which is what keeps the increments and the gap to Theta
    bounded; the cutoff tail decays like 2^(-K(1-alpha)) and is absorbed
    in the working tolerance.  K = cutoff_extra must be at least 1.
    """
    return _tracking(f, alpha, cutoff_extra, QuadratureConfig(panels_per_octave))(I)


def theta_martingale_gap(f: HolderFunction, alpha: float, depth: int,
                         sample_points: Sequence[float],
                         first_level: int = 1, eps_grid: int = 3,
                         quad: Optional[QuadratureConfig] = None,
                         cutoff_extra: int = 24) -> GapProfile:
    """Empirical sup of |Theta_eps(f) - S_n| over scales 2^-n-ish.

    S is the interval-average shadow of the accumulated difference (see
    tracking_martingale_value): the raw divided-difference martingale of
    f only satisfies a growth bound and drifts away from Theta at rate
    2^(n(1-alpha)), while the interval average stays within a constant.
    For each level n the eps grid spans [2^-(n+1), 2^-n]; the profile
    across levels is the empirical constant of that bounded gap, with no
    trend once transients pass.  The sample points lie in [0, 1), and
    there is at least one of them, one eps per level and one level.
    """
    quad = quad or QuadratureConfig()
    if len(sample_points) < 1:
        raise DomainError("need at least one sample point")
    if not all(0.0 <= x < 1.0 for x in sample_points):
        raise DomainError("sample points must lie in [0, 1)")
    if eps_grid < 1:
        raise DomainError("eps_grid must be at least 1")
    if first_level < 1:
        raise DomainError(f"first_level must be at least 1, not {first_level}")
    if first_level > depth:
        raise DomainError("first_level must not exceed depth")
    tracking = _tracking(f, alpha, cutoff_extra, quad)
    levels = list(range(first_level, depth + 1))
    level_eps = [[float(eps) for eps in np.exp2(-np.linspace(n, n + 1, eps_grid))]
                 for n in levels]
    eps_values = sorted({eps for es in level_eps for eps in es}, reverse=True)
    gaps = [0.0] * len(levels)
    for x in sample_points:
        # one quadrature per point serves every eps of every level
        thetas = dict(zip(eps_values, _thetas(f, alpha, float(x), eps_values, quad)))
        for idx, n in enumerate(levels):
            s_val = tracking(locate(x, n))
            for eps in level_eps[idx]:
                gaps[idx] = max(gaps[idx], abs(thetas[eps][0] - s_val))
    return GapProfile(levels, gaps, len(sample_points))


def trend_pvalue(values: Sequence[float]) -> float:
    """Two-sided Kendall-tau p-value of `values` against their index.

    Large p means no detectable monotone trend at the given confidence.
    As scipy's ``kendalltau(method="auto")``: without ties and with n <= 33
    or at most one discordant pair either way, the exact tail of the
    inversion counts; otherwise the tie-corrected normal approximation.
    NaN for fewer than two values, all-equal values or a NaN value.
    """
    v = np.asarray(values, dtype=float)
    n, tot = v.size, v.size * (v.size - 1) // 2
    ties = [int(t) for t in np.unique(v, return_counts=True)[1] if t > 1]
    if np.isnan(v).any() or sum(t * (t - 1) // 2 for t in ties) == tot:  # or n < 2
        return math.nan
    later = np.subtract.outer(v, v).T[np.triu_indices(n, 1)]   # v_j - v_i, i < j
    dis = int(np.count_nonzero(later < 0))
    c = min(dis, tot - dis)
    if not ties and (n <= 33 or c <= 1):
        counts = [1] + [0] * c          # permutations by inversion count <= c
        for j in range(2, n + 1):
            run = list(itertools.accumulate(counts))
            counts = [run[k] - (run[k - j] if k >= j else 0) for k in range(c + 1)]
        return min(1.0, 2 * sum(counts) / math.factorial(n))
    var = (n * (n - 1.0) * (2 * n + 5) - sum(t * (t - 1) * (2 * t + 5) for t in ties)) / 18
    s = int(np.count_nonzero(later > 0)) - dis
    return math.erfc(abs(s) / math.sqrt(var) * math.sqrt(0.5))
