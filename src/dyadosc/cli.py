"""Experiment runner: every construction and check behind a subcommand.

Outputs are CSV for tables and JSON for schedules; each run also writes a
manifest (full parameter set, seed, depth caps, version, sha256 of every
artifact) so identical manifests imply bit-identical outputs.  Randomized
subcommands require an explicit --seed.

Exit codes: 0 success, 2 usage, 3 domain error, 4 depth cap,
5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .dyadic import (
    DepthCapError,
    DomainError,
    DyadicInterval,
    default_max_depth,
    locate,
    whitney,
)
from . import blocks, divdiff, entropy, holder, martingale, wavelet


class VerificationFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------
# output plumbing

class RunWriter:
    def __init__(self, out_dir: str, command: str, params: dict,
                 table_format: str = "csv"):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.params = params
        self.table_format = table_format
        self.files: dict[str, str] = {}

    def _digest(self, path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        """Tabular artifact; --format json switches to a rows/header object."""
        if self.table_format == "json":
            name = name.rsplit(".", 1)[0] + ".json"
            return self.write_json(name, {
                "header": header,
                "rows": [[_fmt(v) for v in row] for row in rows],
            })
        path = self.dir / name
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(v) for v in row])
        self.files[name] = self._digest(path)
        return path

    def write_json(self, name: str, payload) -> Path:
        path = self.dir / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        self.files[name] = self._digest(path)
        return path

    def finish(self) -> Path:
        manifest = {
            "command": self.command,
            "params": {k: _fmt(v) for k, v in sorted(self.params.items())},
            "version": __version__,
            "max_depth": default_max_depth(),
            "outputs": self.files,
        }
        path = self.dir / f"{self.command}_manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return path


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def _writer(args) -> RunWriter:
    """Writer whose manifest records every argument of the subcommand run,
    except the output plumbing and the unset ones."""
    params = {k: v for k, v in vars(args).items()
              if k not in ("out", "format", "command", "func") and v is not None}
    return RunWriter(args.out, args.command, params, table_format=args.format)


# ---------------------------------------------------------------------
# subcommands

def cmd_phi(args) -> int:
    val = entropy.entropy_phi(args.eta)
    print(f"{val:.12g}")
    if args.out:
        w = _writer(args)
        w.write_csv("phi.csv", ["eta", "phi"], [[args.eta, val]])
        w.finish()
    return 0


def cmd_lemma32(args) -> int:
    rng = np.random.default_rng(args.seed)
    n = args.n
    eta = args.eta
    rows = []
    worst = math.inf
    for i in range(args.count):
        u = rng.uniform(-1.0, 1.0, size=n)
        s_target = rng.uniform(max(float(np.sum(u)), eta * n + 1e-9), n)
        lam = (n - s_target) / (n - float(np.sum(u))) if s_target > float(np.sum(u)) else 1.0
        xs = 1.0 - lam * (1.0 - u)
        res = entropy.product_lower_bound(xs, eta)
        worst = min(worst, res.log2_margin)
        rows.append([i, res.sum_x, res.product, res.bound, res.log2_margin])
    print(f"instances={args.count} n={n} eta={eta} worst_log2_margin={worst:.3e}")
    w = _writer(args)
    w.write_csv("lemma32.csv", ["instance", "sum_x", "product", "bound", "log2_margin"], rows)
    w.finish()
    return 0 if worst >= -1e-10 else 5


def _pick_martingale(kind: str, seed, depth):
    if kind == "binary":
        return martingale.binary_digit_martingale()
    if kind == "zero":
        return martingale.zero_martingale()
    if kind == "random":
        if seed is None:
            raise DomainError("--seed is required for the random martingale")
        return martingale.RandomSignMartingale(seed)
    if kind == "block-discounted":
        sched = blocks.build_schedule(0.5, 1, depth_cap=max(160, depth + 8))
        return martingale.ScaledMartingale(blocks.BlockMartingale(sched), -0.5,
                                           star_bound=0.5, name="block-discounted")
    raise DomainError(f"unknown martingale kind {kind!r}")


def cmd_mass_measure(args) -> int:
    S = _pick_martingale(args.martingale, args.seed, args.depth)
    rep = entropy.sweep_mass_distribution(S, args.eta, args.depth)
    mm = entropy.mass_measure(S, args.eta)
    rows = []
    dump_depth = min(args.depth, 10)
    for n in range(dump_depth + 1):
        for j in range(1 << n):
            rows.append([n, j, mm.mass_log2(DyadicInterval(n, j))])
    w = _writer(args)
    w.write_csv("mass_measure.csv", ["level", "index", "mass_log2"], rows)
    w.write_json("mass_report.json", {
        "members": rep.members,
        "worst_log2_margin": rep.worst_log2_margin if math.isfinite(rep.worst_log2_margin) else None,
        "increments_paired": rep.increments_paired,
        "level_sums_exact": rep.level_sums_exact,
        "phi": rep.phi,
    })
    w.finish()
    ok = rep.ok()
    print(f"members={rep.members} worst_margin={rep.worst_log2_margin:.3e} "
          f"sums_exact={rep.level_sums_exact} -> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 5


def cmd_besicovitch(args) -> int:
    levels = [int(t) for t in args.levels.split(",")]
    eta = Fraction(args.eta).limit_denominator(1 << 30)
    phi = entropy.entropy_phi(float(eta))
    rows = []
    for N in levels:
        c = entropy.besicovitch_count(N, eta)
        est = entropy.dim_estimate([(N, c)])[0]
        rows.append([N, float(eta), c, est, phi, phi - est])
    w = _writer(args)
    w.write_csv("besicovitch.csv", ["N", "eta", "count", "estimate", "phi", "gap"], rows)
    w.finish()
    for row in rows:
        print(f"N={row[0]} count={row[2]} estimate={row[3]:.6f} gap={row[5]:.6f}")
    return 0


def cmd_dim_estimate(args) -> int:
    pairs = []
    for item in args.counts.split(","):
        n_str, c_str = item.split(":")
        pairs.append((int(n_str), int(c_str)))
    ests = entropy.dim_estimate(pairs)
    w = _writer(args)
    w.write_csv("dim_estimate.csv", ["N", "count", "estimate"],
                [[n, c, e] for (n, c), e in zip(pairs, ests)])
    w.finish()
    for (n, c), e in zip(pairs, ests):
        print(f"N={n} estimate={e:.6f}")
    return 0


def cmd_weierstrass(args) -> int:
    f = holder.WeierstrassFunction(args.b, args.alpha)
    xs = np.linspace(args.x_min, args.x_max, args.points)
    vals = f.batch(xs, args.tol)
    w = _writer(args)
    w.write_csv("weierstrass.csv", ["x", "f", "tol"],
                [[float(x), float(v), args.tol] for x, v in zip(xs, vals)])
    w.finish()
    print(f"wrote {args.points} samples; seminorm bound {f.seminorm_bound:.6g}")
    return 0


def cmd_martingale_extract(args) -> int:
    f = holder.WeierstrassFunction(args.b, args.alpha)
    S = martingale.from_function(f, args.depth, tol=args.tol)
    w = _writer(args)
    w.write_csv("martingale.csv", ["level", "index", "value"],
                martingale.dump_rows(S, args.depth))
    w.finish()
    rep = martingale.check_cancellation(S, min(args.depth, 10))
    print(f"extracted to depth {args.depth}; cancellation {rep.max_violation:.3e}")
    return 0


def cmd_block(args) -> int:
    J = DyadicInterval(args.level, args.index)
    blk = blocks.building_block(Fraction(args.delta).limit_denominator(1 << 30),
                                J, args.beta)
    checks = blk.verify()
    rows = []
    K, M = J.level, blk.M
    for t in range(M + 1):
        rows.append([t, blk.partial_sup_scaled(t) if t else 0.0,
                     blk.partial_inf_scaled(t) if t else 0.0])
    w = _writer(args)
    w.write_csv("block_partials.csv", ["terms", "scaled_sup", "scaled_inf"], rows)
    w.write_json("block.json", {
        "level": K, "index": J.index, "M": M,
        "peak": blk.peak, "trough": blk.trough,
        "amplitude": blk.amplitude,
        "integral_unit": str(blk.integral_unit()),
        "checks": checks,
    })
    w.finish()
    print(f"M={M} peak={blk.peak:.6g} trough={blk.trough:.6g}")
    return 0


def cmd_schedule(args) -> int:
    sched = blocks.build_schedule(args.beta, args.stages, depth_cap=args.depth)
    w = _writer(args)
    w.write_json("schedule.json", sched.to_dict())
    w.finish()
    print(f"stages={len(sched.stages)} end_level={sched.end_level} "
          f"truncated={sched.truncated}")
    return 0


def cmd_counterexample(args) -> int:
    alpha = args.alpha
    beta = 1.0 - alpha
    sched = blocks.build_schedule(beta, args.stages, depth_cap=args.depth)
    S = blocks.assemble_martingale(sched)
    profile = sched.growth_norm_profile()
    bound = math.pow(2.0, 1.0 - beta)
    growth_ok = bool(np.all(profile <= bound + 1e-9))
    floors_ok = True
    floor_rows = []
    fp = sched.floor_profile()
    for rec in sched.stages:
        start = sched.stage_floor_start(rec.stage)
        if start is None:
            continue
        seg_min = float(fp[start:].min())
        floor_rows.append([rec.stage, start, seg_min, -3.0 * rec.delta])
        floors_ok = floors_ok and seg_min >= -3.0 * rec.delta - 1e-9
    B = float(profile.max())
    f = holder.martingale_function(S, alpha, max_depth=sched.end_level + 64,
                                   growth_bound=B)
    est = holder.holder_seminorm_estimate(
        f, holder.SeminormSampler(pairs=args.pairs, scale_min=2.0 ** -40,
                                  seed=args.seed, dyadic_depth=44))
    holder_ok = est <= f.seminorm_bound
    hits, total = blocks.witness_survey(sched, S, f, alpha, args.points, args.seed)
    w = _writer(args)
    w.write_csv("floors.csv", ["stage", "from_level", "min_scaled", "floor"], floor_rows)
    registry_rows = []
    for j, rec in enumerate(sched.stages):
        if not rec.complete:
            continue
        reg = blocks.special_registry(sched, j, S)
        for p in reg.placements:
            if p.level > 12:
                continue
            vals = S.level_values(p.end)
            for q in range(1 << p.level):
                iv = DyadicInterval(p.end, q << p.M)
                scaled = math.pow(2.0, -p.end * beta) * vals[iv.index]
                registry_rows.append([j, iv.level, iv.index, "special", scaled])
                left = iv.left_neighbor()
                if left is not None:
                    registry_rows.append([j, left.level, left.index, "left", scaled])
    w.write_csv("registry.csv",
                ["stage", "level", "index", "flag", "scaled_value"], registry_rows)
    w.write_json("counterexample.json", {
        "alpha": alpha, "beta": beta,
        "growth_bound_ok": growth_ok,
        "max_growth_norm": B,
        "floors_ok": floors_ok,
        "seminorm_estimate": est,
        "seminorm_bound": f.seminorm_bound,
        "witness_hits": hits,
        "witness_points": total,
    })
    w.finish()
    ok = growth_ok and floors_ok and holder_ok and hits >= math.ceil(0.99 * total)
    print(f"growth_ok={growth_ok} floors_ok={floors_ok} holder_ok={holder_ok} "
          f"witnesses={hits}/{total}")
    return 0 if ok else 5


def cmd_wavelet(args) -> int:
    sched = wavelet.wavelet_schedule(args.alpha, args.eps, args.stages)
    f = wavelet.wavelet_oscillator(sched)
    w = _writer(args)
    w.write_json("wavelet_schedule.json", sched.to_dict())
    rows = []
    if args.points:
        import random as _random

        rng = _random.Random(args.seed)
        depth = sched.ks[-1] + 40
        for i in range(args.points):
            x = Fraction(rng.getrandbits(depth), 1 << depth)
            for m in range(2, min(3, sched.stages) + 1):
                ws = wavelet.witness_scales(f, x, m)
                rows.append([i, m, ws.case, float(ws.h), float(ws.h_prime),
                             ws.quotient_big, ws.quotient_tame,
                             ws.h_side, ws.h_prime_side])
        w.write_csv("witnesses.csv",
                    ["point", "stage", "case", "h", "h_prime",
                     "quotient_big", "quotient_tame", "h_side", "h_prime_side"],
                    rows)
    w.finish()
    print(f"k = {sched.ks}")
    return 0


def cmd_theta(args) -> int:
    f = holder.WeierstrassFunction(args.b, args.alpha)
    quad = divdiff.QuadratureConfig(args.panels)
    rows = []
    for x in np.linspace(args.x_min, args.x_max, args.points):
        th = divdiff.theta(f, args.alpha, float(x), args.eps, quad)
        rows.append([float(x), args.eps, th.value, th.error_estimate])
    w = _writer(args)
    w.write_csv("theta.csv", ["x", "eps", "theta", "err"], rows)
    w.finish()
    print(f"wrote {len(rows)} theta values")
    return 0


def cmd_sigma_stats(args) -> int:
    f = holder.WeierstrassFunction(args.b, args.alpha)
    st = divdiff.sigma_stats(f, args.alpha, args.x, args.eps,
                             [args.delta], [args.c],
                             samples=args.samples, seed=args.seed)
    w = _writer(args)
    rows = [[args.x, args.eps, f">{args.delta}", st.upper[args.delta][0],
             st.upper[args.delta][1], args.seed],
            [args.x, args.eps, f"<-{args.c}", st.lower[args.c][0],
             st.lower[args.c][1], args.seed]]
    w.write_csv("sigma_stats.csv",
                ["x", "eps", "threshold", "sigma_measure", "stderr", "seed"],
                rows)
    w.finish()
    msg = (f"upper={st.upper[args.delta][0]:.4f} lower={st.lower[args.c][0]:.4f} "
           f"total={st.total_mass:.4f}")
    if args.gamma is not None:
        # normalized occupation of the upper event versus the gamma level
        frac = st.upper[args.delta][0] / st.total_mass
        msg += f" upper/log(1/eps)={frac:.4f} exceeds gamma={args.gamma}: {frac > args.gamma}"
    print(msg)
    return 0


def cmd_gap(args) -> int:
    f = holder.WeierstrassFunction(args.b, args.alpha)
    xs = _seeded_points(args.points, args.seed)
    profile = divdiff.theta_martingale_gap(
        f, args.alpha, args.depth, xs, first_level=args.first_level,
        eps_grid=2, quad=divdiff.QuadratureConfig(args.panels))
    pval = divdiff.trend_pvalue(profile.gaps)
    w = _writer(args)
    w.write_csv("gap.csv", ["level", "sup_gap", "seed"],
                [(lvl, g, args.seed)
                 for lvl, g in zip(profile.levels, profile.gaps)])
    w.write_json("gap.json", {"levels": profile.levels, "gaps": profile.gaps,
                              "trend_pvalue": pval})
    w.finish()
    print(f"gaps={['%.3f' % g for g in profile.gaps]} trend_p={pval:.3f}")
    return 0


def _seeded_points(count: int, seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    return [float(v) for v in rng.uniform(0.02, 0.98, size=count)]


def cmd_verify_all(args) -> int:
    failures = []

    def check(name: str, ok: bool, detail: str = ""):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    depth = args.depth
    rng = np.random.default_rng(args.seed)

    # dyadic substrate
    ok = True
    for _ in range(2000):
        x = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(0, 21))
        I = locate(x, n)
        ok &= I.contains(x) and locate(x, n + 1).parent() == I
    check("locate/refine", ok)
    wd = whitney(Fraction(1, 8), Fraction(3, 4))
    check("whitney", float(wd.total_length()) == 0.75
          and max(wd.per_rank_counts().values()) <= 4)

    # martingales
    S = martingale.binary_digit_martingale()
    check("binary cancellation", martingale.check_cancellation(S, min(depth, 10)).ok(0.0))
    check("binary star norm", martingale.star_norm(S, min(depth, 10)) == 1.0)
    T = martingale.sharpness_martingale(0.5)
    back = martingale.discount_transform(T)
    iv = DyadicInterval(8, 0b10110011)
    check("discount/sharpness round trip", back.value(iv) == float(S.value(iv)))
    Tr = martingale.random_growth_martingale(0.6, args.seed)
    check("summation by parts",
          martingale.summation_by_parts_check(Tr, min(depth, 8)) <= 1e-10)
    check("beta-star norm of sharpness", martingale.beta_star_norm(T, 8) == 1.0)
    sub = martingale.subsample(S, 3, 1, 0.0)
    check("subsample cancellation & bound",
          sub.check_cancellation(2) <= 1e-12 and sub.star_norm(2) <= 1.0 + 1e-12)

    # entropy machinery
    check("phi(1/2)", abs(entropy.entropy_phi(0.5) - (2 - 0.75 * math.log2(3))) < 1e-12)
    xs = entropy.extremal_configuration(4, Fraction(1, 2))
    check("product bound equality",
          entropy.product_lower_bound_exact(xs, Fraction(1, 2))
          == entropy.extremal_bound_exact(4, Fraction(1, 2)))
    rep = entropy.sweep_mass_distribution(S, 0.5, min(depth, 12))
    check("mass distribution (binary)", rep.ok(), f"margin {rep.worst_log2_margin:.2e}")
    c20 = entropy.besicovitch_count(20, Fraction(1, 2))
    check("besicovitch count vs brute force",
          c20 == entropy.besicovitch_count_bruteforce(20, Fraction(1, 2)) == 21700)
    fam = [DyadicInterval(6, j) for j in range(64)]
    check("covering content",
          abs(entropy.covering_content(fam, 1.0, 0.5) - 1.0) < 1e-12)

    # blocks
    sched = blocks.build_schedule(0.5, 1, depth_cap=256)
    prof = sched.growth_norm_profile()
    check("block growth bound", bool(np.all(prof <= 2.0 ** 0.5 + 1e-12)))
    SB = blocks.assemble_martingale(sched)
    check("block cancellation",
          martingale.check_cancellation(SB, min(depth, 12)).ok(0.0))
    reg = blocks.special_registry(sched, 0, SB)
    check("special intervals", reg.left_measure_bound_ok()
          and reg.special_value_lower_closed_form() >= 0.2)

    # round trip through the induced function
    f0 = holder.martingale_function(S, 0.5)
    S1 = martingale.from_function(f0, min(depth, 12))
    ok = all(np.array_equal(S1.level_values(n), S.level_values(n))
             for n in range(min(depth, 10) + 1))
    check("function/martingale round trip", ok)

    # wavelet
    wv = wavelet.base_wavelet()
    m0, m1, m2 = wv.moments_exact()
    check("wavelet moments", m0 == 0 and m1 == 0 and m2 == 0)
    check("wavelet plateaus", wv(0.0) == 1.0 and wv(0.4) == -1.0 and wv(0.5) == 0.0)

    # theta
    lin = holder.LinearFunction(1.0, 0.5)
    th = divdiff.theta(lin, 0.5, 0.0, 2.0 ** -10)
    check("theta closed form",
          abs(th.value - divdiff.theta_linear_closed_form(1.0, 0.5, 2.0 ** -10)) < 1e-8)

    if failures:
        print(f"{len(failures)} failed: {failures}")
        return 5
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dyadosc",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(func=fn)
        sp.add_argument("--out", default="dyadosc-out", help="output directory")
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
        return sp

    sp = add("phi", cmd_phi, help="entropy function value")
    sp.add_argument("--eta", type=float, required=True)

    sp = add("lemma32", cmd_lemma32, help="product lower bound sweep")
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--n", type=int, default=20)
    sp.add_argument("--count", type=int, default=1000)
    sp.add_argument("--seed", type=int, required=True)

    sp = add("mass-measure", cmd_mass_measure, help="mass-distribution audit")
    sp.add_argument("--martingale", default="binary",
                    choices=["binary", "zero", "random", "block-discounted"])
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--depth", type=int, default=12)
    sp.add_argument("--seed", type=int)

    sp = add("besicovitch", cmd_besicovitch, help="exact digit-frequency counts")
    sp.add_argument("--eta", type=str, required=True)
    sp.add_argument("--levels", type=str, default="20,100,500,2000")

    sp = add("dim-estimate", cmd_dim_estimate, help="counting exponents from N:count pairs")
    sp.add_argument("--counts", type=str, required=True)

    sp = add("weierstrass", cmd_weierstrass, help="sample the lacunary cosine series")
    sp.add_argument("--b", type=float, default=2.0)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--x-min", type=float, default=0.0)
    sp.add_argument("--x-max", type=float, default=1.0)
    sp.add_argument("--points", type=int, default=256)
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = add("martingale-extract", cmd_martingale_extract,
             help="divided-difference martingale dump")
    sp.add_argument("--b", type=float, default=2.0)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--depth", type=int, default=10)
    sp.add_argument("--tol", type=float, default=1e-13)

    sp = add("block", cmd_block, help="one building block with its checks")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--level", type=int, default=0)
    sp.add_argument("--index", type=int, default=0)

    sp = add("schedule", cmd_schedule, help="double-induction placement schedule")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--stages", type=int, default=2)
    sp.add_argument("--depth", type=int, default=1024)

    sp = add("counterexample", cmd_counterexample,
             help="finite-stage certificates for the induced function")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--stages", type=int, default=2)
    sp.add_argument("--depth", type=int, default=1024)
    sp.add_argument("--pairs", type=int, default=10000)
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--seed", type=int, required=True)

    sp = add("wavelet", cmd_wavelet, help="superlacunary schedule and witnesses")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--eps", type=float, default=1.0 / 200.0)
    sp.add_argument("--stages", type=int, default=4)
    sp.add_argument("--points", type=int, default=0)
    sp.add_argument("--seed", type=int, required=True)

    sp = add("theta", cmd_theta, help="accumulated divided differences")
    sp.add_argument("--b", type=float, default=2.0)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--x-min", type=float, default=0.0)
    sp.add_argument("--x-max", type=float, default=1.0)
    sp.add_argument("--points", type=int, default=16)
    sp.add_argument("--panels", type=int, default=32)

    sp = add("sigma-stats", cmd_sigma_stats, help="scale statistics of threshold events")
    sp.add_argument("--b", type=float, default=2.0)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--x", type=float, default=0.123)
    sp.add_argument("--eps", type=float, default=2.0 ** -12)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--c", type=float, default=0.1)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--samples", type=int, default=20000)
    sp.add_argument("--seed", type=int, required=True)

    sp = add("gap", cmd_gap, help="theta vs discounted martingale gap profile")
    sp.add_argument("--b", type=float, default=2.0)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--depth", type=int, default=12)
    sp.add_argument("--first-level", type=int, default=6)
    sp.add_argument("--points", type=int, default=16)
    sp.add_argument("--panels", type=int, default=16)
    sp.add_argument("--seed", type=int, required=True)

    sp = add("verify-all", cmd_verify_all, help="fast invariant suite")
    sp.add_argument("--depth", type=int, default=12)
    sp.add_argument("--seed", type=int, required=True)

    return p


# operation -> subcommand coverage, audited in the tests
OP_COVERAGE = {
    "locate": "verify-all",
    "children": "verify-all",
    "left_neighbor": "counterexample",
    "whitney": "verify-all",
    "from_function": "martingale-extract",
    "check_cancellation": "verify-all",
    "star_norm": "verify-all",
    "beta_star_norm": "verify-all",
    "binary_digit_martingale": "mass-measure",
    "discount_transform": "verify-all",
    "summation_by_parts_check": "verify-all",
    "sharpness_martingale": "verify-all",
    "entropy_phi": "phi",
    "product_lower_bound": "lemma32",
    "mass_measure": "mass-measure",
    "covering_content": "verify-all",
    "besicovitch_count": "besicovitch",
    "dim_estimate": "dim-estimate",
    "martingale_function": "counterexample",
    "holder_seminorm_estimate": "counterexample",
    "base_wavelet": "wavelet",
    "wavelet_schedule": "wavelet",
    "wavelet_oscillator": "wavelet",
    "witness_scales": "wavelet",
    "m_of_delta": "block",
    "haar": "block",
    "building_block": "block",
    "n_of_j": "schedule",
    "build_schedule": "schedule",
    "assemble_martingale": "counterexample",
    "special_registry": "counterexample",
    "divided_difference": "sigma-stats",
    "theta": "theta",
    "sigma_stats": "sigma-stats",
    "theta_martingale_gap": "gap",
    "subsample": "verify-all",
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except DepthCapError as exc:
        print(f"depth cap: {exc}", file=sys.stderr)
        return 4
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
