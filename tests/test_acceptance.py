"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible under pytest -s or in the
captured output) and asserts both the criterion and its runtime budget.
"""

import math
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import dyadosc as d
from dyadosc.blocks import witness_survey
from dyadosc.dyadic import DyadicInterval as DI
from dyadosc.dyadic import DyadicRational as DR
from oracles import IncrementOracleMartingale

mp.mp.dps = 30


def _report(num: int, ok: bool, elapsed: float, budget: float, detail: str):
    line = (f"[ACCEPTANCE {num}] {'PASS' if ok and elapsed < budget else 'FAIL'} "
            f"({elapsed:.1f}s/{budget:.0f}s) {detail}")
    print(line)
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_1_entropy_values():
    t0 = time.time()
    ok = True
    detail = []
    # endpoint limits to 1e-9
    ok &= abs(d.entropy_phi(1e-12) - 1.0) < 1e-9
    ok &= abs(d.entropy_phi(1.0 - 1e-12) - 0.0) < 1e-9
    # Phi(1/2) against an independent high-precision evaluation
    hp = float((mp.mpf(3) / 4) * mp.log(mp.mpf(4) / 3, 2)
               + (mp.mpf(1) / 4) * mp.log(4, 2))
    ok &= abs(d.entropy_phi(0.5) - (2.0 - 0.75 * math.log2(3.0))) < 1e-12
    ok &= abs(d.entropy_phi(0.5) - hp) < 1e-12
    detail.append(f"phi(1/2)={d.entropy_phi(0.5):.15f}")
    # cross identity on a 1e3 grid
    worst = 0.0
    for eta in np.linspace(1e-3, 1 - 1e-3, 1000):
        other = 1.0 - ((1 + eta) / 2 * math.log2(1 + eta)
                       + (1 - eta) / 2 * math.log2(1 - eta))
        worst = max(worst, abs(d.entropy_phi(eta) - other))
    ok &= worst < 1e-12
    detail.append(f"identity worst={worst:.2e}")
    _report(1, ok, time.time() - t0, 1.0, " ".join(detail))


def test_criterion_2_product_bound_suite():
    t0 = time.time()
    rng = np.random.default_rng(20240801)
    total = 100_000
    worst_margin, worst_at = math.inf, None
    done = 0
    while done < total:
        batch = min(10_000, total - done)
        n = int(rng.integers(1, 51))
        eta = float(rng.uniform(0.05, 0.95))
        u = rng.uniform(-1.0, 1.0, size=(batch, n))
        sums = u.sum(axis=1)
        target = np.maximum(sums, eta * n + 1e-9)
        target = target + (n - target) * rng.uniform(0.0, 1.0, size=batch)
        lam = np.where(target > sums, (n - target) / (n - sums), 1.0)
        xs = 1.0 - lam[:, None] * (1.0 - u)
        prods = np.prod((1.0 + eta * xs) / 2.0, axis=1)
        margin = float(np.min(np.log2(prods) + n * d.entropy_phi(eta)))
        if margin < worst_margin:
            worst_margin, worst_at = margin, (n, eta)
        done += batch
    margin_ok = worst_margin >= -1e-10
    # exact equality at the extremal configuration
    xs_ext = d.extremal_configuration(4, Fraction(1, 2))
    exact = d.product_lower_bound_exact(xs_ext, Fraction(1, 2))
    bound = d.extremal_bound_exact(4, Fraction(1, 2))
    extremal_ok = exact == Fraction(27, 256) == bound
    # a FAIL line names the clause that failed, with what it got
    at = "" if margin_ok else f" at n={worst_at[0]}, eta={worst_at[1]:.6f}"
    extremal = ("extremal 27/256 exact" if extremal_ok
                else f"extremal product {exact} and bound {bound}, not both 27/256")
    _report(2, margin_ok and extremal_ok, time.time() - t0, 10.0,
            f"{total} instances, worst log2 margin {worst_margin:.2e}{at}, {extremal}")


def _first_mass_failure(name: str, rep, tol: float = 1e-9):
    """The first verdict of a mass sweep report that fails, named with
    its martingale, or None when the report passes."""
    if rep.ok(tol):
        return None
    for verdict in ("increments_paired", "level_sums_exact"):
        if not getattr(rep, verdict):
            return f"{name}: {verdict} is False"
    return f"{name}: margin {rep.worst_log2_margin:.2e} on {rep.worst_member}"


def test_criterion_3_mass_distribution():
    t0 = time.time()
    failures = []
    details = []
    # binary
    rep = d.sweep_mass_distribution(d.binary_digit_martingale(), 0.5, 16)
    failures.append(_first_mass_failure("binary", rep))
    details.append(f"binary margin {rep.worst_log2_margin:.2e}")
    # block-assembled (discounted to unit increments)
    sched = d.build_schedule(0.5, 1, depth_cap=160)
    B = d.assemble_martingale(sched)
    disc = IncrementOracleMartingale(
        lambda ch: math.pow(2.0, -ch.level * 0.5) * B.increment(ch),
        star_bound=0.5, name="block-discounted")
    rep_b = d.sweep_mass_distribution(disc, 0.25, 16)
    failures.append(_first_mass_failure("block", rep_b))
    details.append(f"block margin {rep_b.worst_log2_margin:.2e}")
    # 100 random unit-increment martingales
    worst = math.inf
    for seed in range(100):
        r = d.sweep_mass_distribution(d.RandomSignMartingale(seed), 0.5, 16)
        failures.append(_first_mass_failure(f"random seed {seed}", r))
        worst = min(worst, r.worst_log2_margin)
    details.append(f"100 random, worst margin {worst:.2e}")
    first = next((f for f in failures if f), None)
    if first:
        details.insert(0, f"first failure {first}")
    _report(3, first is None, time.time() - t0, 60.0, "; ".join(details))


def test_criterion_4_besicovitch_trend():
    t0 = time.time()
    failures = []
    details = []
    for eta in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        phi = d.entropy_phi(float(eta))
        counts = [(N, d.besicovitch_count(N, eta)) for N in (20, 100, 500, 2000)]
        ests = d.dim_estimate(counts)
        brute = d.besicovitch_count_bruteforce(20, eta)
        gap = phi - ests[-1]
        if not all(a < b for a, b in zip(ests, ests[1:])):
            failures.append(f"eta={eta}: exponents {[round(e, 4) for e in ests]} "
                            f"not increasing")
        if not abs(gap) < 0.02:
            failures.append(f"eta={eta}: gap@2000={gap:.4f} not below 0.02")
        if counts[0][1] != brute:
            failures.append(f"eta={eta}: count@20={counts[0][1]}, brute force {brute}")
        details.append(f"eta={eta}: gap@2000={gap:.4f}")
    if failures:
        details.insert(0, f"first failure {failures[0]}")
    _report(4, not failures, time.time() - t0, 60.0, "; ".join(details))


def test_criterion_5_counterexample_certificates():
    t0 = time.time()
    alpha = 0.5
    beta = 1.0 - alpha
    sched = d.build_schedule(beta, 2, depth_cap=1024)
    S = d.assemble_martingale(sched)
    details = []
    # growth bound at every materialized level
    prof = sched.growth_norm_profile()
    growth_ok = bool(np.all(prof <= 2.0 ** (1.0 - beta) + 1e-9))
    details.append(f"max growth norm {prof.max():.4f}")
    # stagewise floors
    fp = sched.floor_profile()
    floors_ok = True
    for rec in sched.stages:
        start = sched.stage_floor_start(rec.stage)
        nxt = (sched.stage_floor_start(rec.stage + 1)
               if rec.stage + 1 < len(sched.stages) else None)
        hi = len(fp) if nxt is None else nxt
        floors_ok &= bool(fp[start:hi].min() >= -3.0 * rec.delta - 1e-9)
    # Holder bound on 1e5 sampled pairs
    Bmax = float(prof.max())
    f = d.martingale_function(S, alpha, max_depth=sched.end_level + 64,
                              growth_bound=Bmax)
    est = d.holder_seminorm_estimate(
        f, d.SeminormSampler(pairs=100_000, scale_min=2.0 ** -40, seed=2024,
                             dyadic_depth=44))
    holder_ok = est <= f.seminorm_bound
    details.append(f"seminorm {est:.3f} <= C(alpha) {f.seminorm_bound:.3f}")
    # signed divided differences respect the stagewise floors
    floor_quot = -12.0 * 0.25 / (1.0 - 2.0 ** -alpha)  # stage-0 floor constant
    rng = random.Random(7)
    worst_signed = 0.0
    for _ in range(2000):
        depth = 44
        lo = rng.getrandbits(depth)
        width = max(1, rng.getrandbits(18))
        if lo + width >= (1 << depth):
            continue
        a = DR(lo, depth)
        b = DR(lo + width, depth)
        dd = f.difference(a, b) / float(b - a) ** alpha
        worst_signed = min(worst_signed, dd)
    floor_dd_ok = worst_signed >= floor_quot - 1e-6
    details.append(f"min signed divdiff {worst_signed:.3f} >= {floor_quot:.3f}")
    # witnesses at 1e3 sampled points
    hits, total = witness_survey(sched, S, f, alpha, 1000, seed=99)
    witness_ok = hits >= math.ceil(0.99 * total)
    details.append(f"witnesses {hits}/{total}")
    ok = growth_ok and floors_ok and holder_ok and floor_dd_ok and witness_ok
    _report(5, ok, time.time() - t0, 300.0, "; ".join(details))


def test_criterion_6_wavelet_oscillator():
    t0 = time.time()
    from scipy.integrate import quad

    w = d.base_wavelet()
    knots = sorted({float(pc.lo) for pc in w.pieces}
                   | {float(pc.hi) for pc in w.pieces})
    panels = [(-b, -a) for a, b in zip(knots[:-1], knots[1:])] + \
             list(zip(knots[:-1], knots[1:]))
    moments_ok = True
    for n in range(3):
        total = sum(quad(lambda x: x ** n * w(x), lo, hi, limit=100)[0]
                    for lo, hi in panels)
        moments_ok &= abs(total) < 1e-10
    sch = d.wavelet_schedule(0.5, 1.0 / 200.0, 4)
    clauses_ok = all(rec["clause1_margin"] >= 0.0 and rec["clause2_margin"] >= 0.0
                     for rec in sch.records)
    f = d.wavelet_oscillator(sch)
    rng = random.Random(2024)
    witness_ok = True
    worst_tame, worst_big = 0.0, math.inf
    for _ in range(100):
        x = Fraction(rng.getrandbits(200), 1 << 200)
        for m in (2, 3):
            ws = d.witness_scales(f, x, m)
            witness_ok &= ws.quotient_tame <= 1.0 + 1e-3
            witness_ok &= ws.quotient_big >= 0.4 * ws.scale_reference()
            worst_tame = max(worst_tame, ws.quotient_tame)
            worst_big = min(worst_big, ws.quotient_big / ws.scale_reference())
    ok = moments_ok and clauses_ok and witness_ok
    _report(6, ok, time.time() - t0, 300.0,
            f"moments<=1e-10 {moments_ok}; k={sch.ks}; "
            f"max tame {worst_tame:.4f}; min big/scale {worst_big:.3f}")


def test_criterion_7_round_trips():
    t0 = time.time()
    ok = True
    # from_function o martingale_function identity on the depth-12 grid
    S = d.binary_digit_martingale()
    f0 = d.martingale_function(S, 0.5)
    S2 = d.from_function(f0, 12)
    grid = all(np.array_equal(S2.level_values(n), S.level_values(n)) for n in range(13))
    ok &= grid
    # the descent's integrals ga, gb: f0(b) - f0(a) on general depth-12
    # pairs (neither one dyadic interval nor ending at 1) against the exact
    # sum of S over the level-12 cells of [a, b)
    F = np.concatenate([[0], np.cumsum(S.level_values(12).astype(np.int64))]).tolist()
    rng = random.Random(7)
    pairs = [sorted(rng.sample(range(1 << 12), 2)) for _ in range(2000)]
    pairs = [(a, b) for a, b in pairs if (b - a) & (b - a - 1) or a % (b - a)]
    lo, hi = (np.array(c) for c in zip(*pairs))
    exact = [float(Fraction(F[b] - F[a], 1 << 12)) for a, b in pairs]
    integrals = f0.dyadic_differences(lo, hi, 12).tolist() == exact
    ok &= integrals
    # summation by parts on 100 random growth martingales
    worst = 0.0
    for seed in range(100):
        beta = 0.25 + 0.5 * (seed % 10) / 10.0
        T = d.random_growth_martingale(beta, seed)
        worst = max(worst, d.summation_by_parts_check(T, 8))
    ok &= worst <= 1e-10
    # discount / sharpness round trip, exact
    T = d.sharpness_martingale(0.5)
    back = d.discount_transform(T)
    rng = random.Random(1)
    trip = True
    for _ in range(500):
        lvl = rng.randint(0, 12)
        I = DI(lvl, rng.getrandbits(lvl))
        trip &= back.value(I) == float(S.value(I))
    ok &= trip
    _report(7, ok, time.time() - t0, 30.0,
            f"grid identity {'exact' if grid else 'NOT exact'}; sbp worst {worst:.2e}; "
            f"round trip {'exact' if trip else 'NOT exact'}; "
            f"pair integrals {'exact' if integrals else 'NOT exact'}")


def test_criterion_8_theta_machinery():
    t0 = time.time()
    ok = True
    details = []
    # closed form for the linear function to 1e-8
    lin = d.LinearFunction(1.0, alpha=0.5)
    worst_lin = 0.0
    for eps in (0.5, 2.0 ** -5, 2.0 ** -10, 2.0 ** -14):
        got = d.theta(lin, 0.5, 0.0, eps).value
        worst_lin = max(worst_lin,
                        abs(got - d.theta_linear_closed_form(1.0, 0.5, eps)))
    ok &= worst_lin < 1e-8
    details.append(f"linear err {worst_lin:.2e}")
    # |Theta| <= ||f||_alpha log(1/eps) across the fleet
    W = d.WeierstrassFunction(2.0, 0.5)
    fleet = [lin, W, d.WeierstrassFunction(3.0, 0.5), d.ConstantFunction(1.0)]
    bound_ok = True
    for g in fleet:
        for x in (0.1, 0.55, 0.93):
            for eps in (2.0 ** -4, 2.0 ** -9, 2.0 ** -13):
                th = d.theta(g, 0.5, x, eps)
                bound_ok &= abs(th.value) <= g.seminorm_bound * math.log(1 / eps) + 1e-9
    ok &= bound_ok
    details.append(f"|Theta| bound {bound_ok}")
    # flat gap profile over n in [6, 14]
    rng = np.random.default_rng(8)
    xs = [float(v) for v in rng.uniform(0.02, 0.98, size=64)]
    prof = d.theta_martingale_gap(W, 0.5, 14, xs, first_level=6, eps_grid=2,
                                  quad=d.QuadratureConfig(16))
    pval = d.trend_pvalue(prof.gaps)
    ok &= pval >= 0.05
    details.append(f"gap profile {['%.1f' % g for g in prof.gaps]} p={pval:.3f}")
    _report(8, ok, time.time() - t0, 120.0, "; ".join(details))
