"""Divided differences, the accumulated difference, and scale statistics.

The accumulated difference integrates the alpha-divided difference over
scales against dh/h; under h = 2^-u the integrand is bounded by the
Holder seminorm and the integral becomes a finite sum of per-octave
panels, which suits the lacunary structure of the test functions.  Scale
statistics estimate the dh/h measure of threshold events by log-uniform
Monte Carlo (indicator discontinuities defeat smooth quadrature).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dyadic import DomainError, DyadicInterval, locate
from .holder import HolderFunction
from .martingale import BLOCK_CELLS, check_cells

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
        p = self.panels_per_octave
        if not isinstance(p, numbers.Integral) or p < 1:
            raise DomainError(f"panels_per_octave must be an integer of at least 1, not {p!r}")


@dataclass
class ThetaResult:
    value: float
    error_estimate: float       # from one panel-halving refinement
    panels: int


def _octave_nodes(lo, hi, m: int) -> np.ndarray:
    """np.linspace(lo[i], hi[i], 2m+1) in row i, bit for bit, C-contiguous:
    a sum along the transposed view that linspace returns can round
    differently from the one along a row."""
    return np.ascontiguousarray(np.linspace(lo, hi, 2 * m + 1, axis=-1))


def _simpson(v: np.ndarray, step) -> np.ndarray:
    """Composite Simpson along the last axis of v, nodes `step` apart."""
    return step / 6.0 * (v[..., 0] + v[..., -1] + 4.0 * v[..., 1::2].sum(axis=-1)
                         + 2.0 * v[..., 2:-1:2].sum(axis=-1))


def _octave_simpson(g, uppers: Sequence[float], m: int) -> list[tuple[float, float]]:
    """int_0^U g(u) du at each U of the increasing `uppers`, by composite
    Simpson with m panels per octave [j, hi], hi = min(j+1, U).

    Every octave's nodes np.linspace(j, hi, 2m+1) are one row of a
    C-contiguous (S, 2m+1) array, and g maps it to the integrand on its
    nodes in one call, row by row.  The full octaves, shared by every
    U, come first; a non-integer U adds its own partial octave.  Simpson
    runs along each row, and each U adds its octave totals in order from
    j = 0.  Each U also gets the rule on every other node (m/2 panels of
    twice the step: the panel-halving reference, for even m).
    """
    full = math.floor(uppers[-1])
    partial = [U for U in uppers if U != math.floor(U)]
    lo = np.array([*range(full), *(math.floor(U) for U in partial)], dtype=float)
    hi = np.array([*range(1, full + 1), *partial], dtype=float)
    vals, step = g(_octave_nodes(lo, hi, m)), (hi - lo) / m
    fine, coarse = _simpson(vals, step), _simpson(vals[:, ::2], 2.0 * step)
    fines = list(itertools.accumulate(fine[:full], initial=0.0))
    coarses = list(itertools.accumulate(coarse[:full], initial=0.0))
    out, tail = [], full
    for U in uppers:
        k = math.floor(U)
        if U == k:
            out.append((fines[k], coarses[k]))
        else:  # a partial octave serves this U only
            out.append((fines[k] + fine[tail], coarses[k] + coarse[tail]))
            tail += 1
    return out


def _check_cells(f: HolderFunction, rows: int, width: int, what: str) -> None:
    """Raise DepthCapError, before anything is built, when an array of
    `rows` rows of `width` cells, or f's evaluation of one `width`-point
    row (width times `f.cells_per_point()` cells), would pass the
    budget of a level sweep; `what` names the count that set width."""
    check_cells(max(rows, f.cells_per_point()) * width, what)


def _check_eps(eps: float) -> None:
    """The domain of an eps, the smallest scale of theta and of
    sigma_stats: in (0, 1), with 1/eps inside the float range."""
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    if not math.isfinite(1.0 / eps):
        raise DomainError(f"eps = {eps} is too small: 1/eps overflows the float range")


def _check_spacing(top: int) -> None:
    """Refuse tracking rows down to h = 2^-top past top = 52: below it
    e + h != e for every endpoint e in [0, 1], whose float spacing is at
    most 2^-52; past it a row could be silently zero."""
    if top > 52:
        raise DomainError(f"level + cutoff_extra = {top} passes 52: at h = 2^-{top} "
                          f"an endpoint e + h can round to e")


def _thetas(f: HolderFunction, alpha: float, x: float, eps_values: Sequence[float],
            quad: QuadratureConfig) -> list[tuple[float, float]]:
    """Theta and its coarse twin at each eps of the decreasing `eps_values`."""
    for eps in eps_values:
        _check_eps(eps)
    uppers, m = [math.log2(1.0 / eps) for eps in eps_values], 2 * quad.panels_per_octave
    # one node row per octave, plus one per partial octave
    _check_cells(f, math.ceil(uppers[-1]) + len(uppers), 2 * m + 1,
                 f"panels_per_octave = {quad.panels_per_octave}")
    fx = f(x)

    def integrand(u):
        return (f.batch(x + np.exp2(-u)) - fx) * np.exp2(alpha * u) * LN2

    return _octave_simpson(integrand, uppers, m)


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
    _check_eps(eps)
    if samples < 1:
        raise DomainError("need at least one sample")
    if not all(0.0 < t < math.inf for t in (*upper_thresholds, *lower_thresholds)):
        raise DomainError("thresholds must be positive and finite")
    _check_cells(f, 1, samples, f"samples = {samples}")    # one f.batch call on them all
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


def _octave_groups(points: Sequence[int], bound: int):
    """(start, stop) runs of consecutive octaves, in order, whose `points`
    add up to at most `bound`; a run closes only when the next octave would
    take it past, so an octave past `bound` alone is a run of its own."""
    start, held = 0, 0
    for j, p in enumerate(points):
        if held and held + p > bound:
            yield start, j
            start, held = j, 0
        held += p
    yield start, len(points)


def _endpoints(intervals: Sequence[DyadicInterval], uppers: np.ndarray):
    """The distinct endpoints e of `intervals` (by decreasing level), each
    first met at its deepest interval, with the octaves its rows span (that
    interval's entry of `uppers`), and each interval's left and right
    endpoint by position."""
    reach: dict[float, int] = {}    # endpoint -> octaves its rows span
    for I, U in zip(intervals, uppers.tolist()):
        reach.setdefault(float(I.left), U)
        reach.setdefault(float(I.right), U)
    position = {e: i for i, e in enumerate(reach)}
    left = np.array([position[float(I.left)] for I in intervals])
    right = np.array([position[float(I.right)] for I in intervals])
    return np.array(list(reach)), np.array(list(reach.values())), left, right


def _tracking(f: HolderFunction, alpha: float, intervals: Sequence[DyadicInterval],
              cutoff_extra: int, quad: QuadratureConfig) -> dict[DyadicInterval, float]:
    """The tracking value of f on each of `intervals`, in one stacked pass.

    An interval I at level n integrates over the octaves j < n + K, and
    its integrand on octave j is 2^n (R(b, j) - R(a, j)) 2^(alpha u) ln 2
    with R(e, j) = F(e + 2^-u) - F(e) on the nodes u of the octave.  The
    distinct endpoints e get F(e) from one (E, 1) antiderivative call;
    octave j needs the (E_j, 2m+1) rows of the E_j endpoints whose
    intervals reach it.  Consecutive octaves share one antiderivative call
    on their stacked rows while it holds at most BLOCK_CELLS points (an
    octave with more is a call of its own), and each octave reads its
    slice of the output.  Each row is the row a one-interval evaluation
    computes, and each interval adds its octave totals in order from
    j = 0, so a value does not depend on which other intervals were asked
    for.  Refused past level + K = 52, where e + 2^-u could round to e.
    """
    if cutoff_extra < 1:
        raise DomainError("cutoff_extra must be at least 1")
    m = quad.panels_per_octave
    # intervals by decreasing level, so those alive at octave j are a prefix,
    # and endpoints likewise
    intervals = sorted(dict.fromkeys(intervals), key=lambda I: -I.level)
    uppers = np.array([I.level + cutoff_extra for I in intervals])
    _check_spacing(int(uppers[0]))
    ends, spans, left, right = _endpoints(intervals, uppers)
    # node rows per octave, and rows of endpoint values per octave
    _check_cells(f, max(len(ends), int(uppers[0])), 2 * m + 1, f"panels_per_octave = {m}")
    anti = f.antiderivative_batch(ends[:, None])
    lo = np.arange(uppers[0], dtype=float)
    u = _octave_nodes(lo, lo + 1.0, m)
    hs, weights = np.exp2(-u), np.exp2(alpha * u)
    scale = np.ldexp(1.0, [I.level for I in intervals])[:, None]
    totals = np.zeros(len(intervals))
    rows = np.count_nonzero(spans > lo[:, None], axis=1)    # endpoint rows per octave
    for start, stop in _octave_groups(rows * (2 * m + 1), BLOCK_CELLS):
        # the group's octaves stacked: octave j's rows start at row `at` of ys
        cuts = np.cumsum(rows[start:stop]) - rows[start:stop]
        ys = np.empty((rows[start:stop].sum(), 2 * m + 1))
        for j, at in zip(range(start, stop), cuts):
            np.add(ends[:rows[j], None], hs[j], out=ys[at:at + rows[j]])
        out = f.antiderivative_batch(ys)
        for j, at in zip(range(start, stop), cuts):
            live = np.count_nonzero(uppers > j)
            R = out[at:at + rows[j]]
            R -= anti[:rows[j]]                 # in place: out is read no further
            vals = scale[:live] * (R[right[:live]] - R[left[:live]]) * weights[j] * LN2
            totals[:live] += _simpson(vals, 1.0 / m)
    return dict(zip(intervals, totals))


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
    return _tracking(f, alpha, [I], cutoff_extra, QuadratureConfig(panels_per_octave))[I]


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
    _check_spacing(depth + cutoff_extra)
    levels = list(range(first_level, depth + 1))
    tracking = _tracking(f, alpha, [locate(x, n) for x in sample_points for n in levels],
                         cutoff_extra, quad)
    level_eps = [[float(eps) for eps in np.exp2(-np.linspace(n, n + 1, eps_grid))]
                 for n in levels]
    eps_values = sorted({eps for es in level_eps for eps in es}, reverse=True)
    gaps = [0.0] * len(levels)
    for x in sample_points:
        # one quadrature per point serves every eps of every level
        thetas = dict(zip(eps_values, _thetas(f, alpha, float(x), eps_values, quad)))
        for idx, n in enumerate(levels):
            s_val = tracking[locate(x, n)]
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
