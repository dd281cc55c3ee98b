"""Experiment runner: the constructions and their checks as subcommands.

Outputs are CSV for tables and JSON for schedules; each run that writes
one also writes a manifest (full parameter set, seed, depth caps, version,
sha256 of every artifact) so identical manifests imply bit-identical
outputs.  Randomized
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
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .dyadic import (
    DEFAULT_MAX_DEPTH,
    DepthCapError,
    DomainError,
    DyadicInterval,
    DyadicRational,
    locate,
    whitney,
)
from . import blocks, divdiff, entropy, holder, martingale, wavelet


# ---------------------------------------------------------------------
# output plumbing

class RunWriter:
    """Artifacts of one run; the output directory is made on first write."""

    def __init__(self, out_dir: str, command: str, params: dict,
                 table_format: str = "csv"):
        self.dir = Path(out_dir)
        self.command = command
        self.params = params
        self.table_format = table_format
        self.files: dict[str, str] = {}

    def _path(self, name: str) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        return self.dir / name

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
        path = self._path(name)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(v) for v in row])
        self.files[name] = self._digest(path)
        return path

    def write_json(self, name: str, payload) -> Path:
        """JSON artifact; a float that is not finite is written as null."""
        path = self._path(name)
        path.write_text(json.dumps(_finite(payload), indent=2, sort_keys=True) + "\n")
        self.files[name] = self._digest(path)
        return path

    def finish(self) -> Path:
        manifest = {
            "command": self.command,
            "params": {k: _fmt(v) for k, v in sorted(self.params.items())},
            "version": __version__,
            "max_depth": DEFAULT_MAX_DEPTH,
            "outputs": self.files,
        }
        path = self._path(f"{self.command}_manifest.json")
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return path


def _fmt(v):
    return repr(float(v)) if isinstance(v, float) else v


def _finite(v):
    """`v` with each float in it that strict JSON refuses replaced by None."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return v


# ---------------------------------------------------------------------
# subcommands

def cmd_phi(args, w: RunWriter) -> int:
    val = entropy.entropy_phi(args.eta)
    print(f"{val:.12g}")
    w.write_csv("phi.csv", ["eta", "phi"], [[args.eta, val]])
    return 0


def cmd_lemma32(args, w: RunWriter) -> int:
    eta, n = args.eta, args.n
    martingale.check_cells(n, f"--n = {n}")     # one instance's arrays
    martingale.check_cells(args.count, f"--count = {args.count}")   # one row per instance
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = math.inf
    for i in range(args.count):
        u = rng.uniform(-1.0, 1.0, size=n)
        # the floor passes n once n (1 - eta) < 1e-9: the all-ones instance
        s_target = rng.uniform(min(max(float(np.sum(u)), eta * n + 1e-9), n), n)
        lam = (n - s_target) / (n - float(np.sum(u))) if s_target > float(np.sum(u)) else 1.0
        xs = 1.0 - lam * (1.0 - u)
        res = entropy.product_lower_bound(xs, eta)
        worst = min(worst, res.log2_margin)
        rows.append([i, res.sum_x, res.product, res.bound, res.log2_margin])
    print(f"instances={args.count} n={n} eta={eta} worst_log2_margin={worst:.3e}")
    w.write_csv("lemma32.csv", ["instance", "sum_x", "product", "bound", "log2_margin"], rows)
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
    # argparse's choices leave "block-discounted"
    sched = blocks.build_schedule(0.5, 1, depth_cap=max(160, depth + 8))
    return martingale.ScaledMartingale(blocks.BlockMartingale(sched), -0.5,
                                       star_bound=0.5, name="block-discounted")


def cmd_mass_measure(args, w: RunWriter) -> int:
    S = _pick_martingale(args.martingale, args.seed, args.depth)
    rep = entropy.sweep_mass_distribution(S, args.eta, args.depth)
    # the log2 masses of the sweep's kernel, equal to `mass_log2` per cell
    dump_depth = min(args.depth, 10)
    rows = [[0, 0, 0.0]]
    for n, lo, *_, log2_mass in entropy._mass_blocks(S, args.eta, dump_depth):
        rows.extend([n, lo + j, v] for j, v in enumerate(log2_mass.tolist()))
    w.write_csv("mass_measure.csv", ["level", "index", "mass_log2"], rows)
    w.write_json("mass_report.json", {
        "members": rep.members,
        "worst_log2_margin": rep.worst_log2_margin,
        "increments_paired": rep.increments_paired,
        "level_sums_exact": rep.level_sums_exact,
        "phi": rep.phi,
    })
    ok = rep.ok()
    print(f"members={rep.members} worst_margin={rep.worst_log2_margin:.3e} "
          f"sums_exact={rep.level_sums_exact} -> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 5


def cmd_besicovitch(args, w: RunWriter) -> int:
    levels = _items(args.levels, "--levels", int)
    eta = Fraction(args.eta).limit_denominator(1 << 30)
    phi = entropy.entropy_phi(float(eta))
    rows = []
    for N in levels:
        c = entropy.besicovitch_count(N, eta)
        est = entropy.dim_estimate([(N, c)])[0]
        rows.append([N, float(eta), c, est, phi, phi - est])
    w.write_csv("besicovitch.csv", ["N", "eta", "count", "estimate", "phi", "gap"], rows)
    for row in rows:
        print(f"N={row[0]} count={row[2]} estimate={row[3]:.6f} gap={row[5]:.6f}")
    return 0


def cmd_dim_estimate(args, w: RunWriter) -> int:
    def pair(item: str) -> tuple[int, int]:
        n_str, c_str = item.split(":")
        return int(n_str), int(c_str)

    pairs = _items(args.counts, "--counts", pair)
    ests = entropy.dim_estimate(pairs)
    w.write_csv("dim_estimate.csv", ["N", "count", "estimate"],
                [[n, c, e] for (n, c), e in zip(pairs, ests)])
    for (n, c), e in zip(pairs, ests):
        print(f"N={n} estimate={e:.6f}")
    return 0


def cmd_weierstrass(args, w: RunWriter) -> int:
    f = holder.WeierstrassFunction(args.b, args.alpha, args.tol)
    divdiff._check_cells(f, 1, args.points, f"--points = {args.points}")   # one batch row
    xs = np.linspace(args.x_min, args.x_max, args.points)
    vals = f.batch(xs)
    w.write_csv("weierstrass.csv", ["x", "f", "tol"],
                [[float(x), float(v), args.tol] for x, v in zip(xs, vals)])
    print(f"wrote {args.points} samples; seminorm bound {f.seminorm_bound:.6g}")
    return 0


def cmd_martingale_extract(args, w: RunWriter) -> int:
    f = holder.WeierstrassFunction(args.b, args.alpha, args.tol)
    S = martingale.from_function(f, args.depth)
    w.write_csv("martingale.csv", ["level", "index", "value"],
                martingale.dump_rows(S, args.depth))
    rep = martingale.check_cancellation(S, min(args.depth, 10))
    print(f"extracted to depth {args.depth}; cancellation {rep.max_violation:.3e}")
    return 0


def cmd_block(args, w: RunWriter) -> int:
    J = DyadicInterval(args.level, args.index)
    delta = Fraction(args.delta).limit_denominator(1 << 30)
    blk = blocks.building_block(delta, J, args.beta)
    checks = blk.verify()
    rows = []
    K, M = J.level, blk.M
    for t in range(M + 1):
        rows.append([t, blk.partial_sup_scaled(t) if t else 0.0,
                     blk.partial_inf_scaled(t) if t else 0.0])
    w.write_csv("block_partials.csv", ["terms", "scaled_sup", "scaled_inf"], rows)
    w.write_json("block.json", {
        "level": K, "index": J.index, "M": M,
        "peak": blk.peak, "trough": blk.trough,
        "amplitude": blk.amplitude,
        "integral_unit": str(blk.integral_unit()),
        "checks": checks,
    })
    print(f"M={M} peak={blk.peak:.6g} trough={blk.trough:.6g}")
    return 0


def cmd_schedule(args, w: RunWriter) -> int:
    sched = blocks.build_schedule(args.beta, args.stages, depth_cap=args.depth)
    w.write_json("schedule.json", sched.to_dict())
    print(f"stages={len(sched.stages)} end_level={sched.end_level} "
          f"truncated={sched.truncated}")
    return 0


def cmd_counterexample(args, w: RunWriter) -> int:
    alpha = args.alpha
    beta = 1.0 - alpha
    sched = blocks.build_schedule(beta, args.stages, depth_cap=args.depth)
    S = blocks.assemble_martingale(sched)
    growth_ok = sched.growth_ok()
    floor_rows = sched.floor_rows()
    floors_ok = all(least >= floor - 1e-9 for *_, least, floor in floor_rows)
    B = float(sched.growth_norm_profile().max())
    f = holder.martingale_function(S, alpha, max_depth=sched.end_level + 64,
                                   growth_bound=B)
    est = holder.holder_seminorm_estimate(
        f, holder.SeminormSampler(pairs=args.pairs, scale_min=2.0 ** -40,
                                  seed=args.seed, dyadic_depth=44))
    holder_ok = est <= f.seminorm_bound
    hits, total = blocks.witness_survey(sched, S, f, alpha, args.points, args.seed)
    w.write_csv("floors.csv", ["stage", "from_level", "min_scaled", "floor"], floor_rows)
    registry_rows = []
    for j, rec in enumerate(sched.stages):
        if not rec.complete:
            continue
        reg = blocks.SpecialIntervalRegistry(sched, j, S)
        for p in reg.placements:
            if p.level > 12:
                continue
            # the left-special interval is the left neighbor, none at index 0
            for q, scaled in enumerate(reg.special_values(p).tolist()):
                registry_rows.append([j, p.end, q << p.M, "special", scaled])
                if q:
                    registry_rows.append([j, p.end, (q << p.M) - 1, "left", scaled])
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
    ok = growth_ok and floors_ok and holder_ok and hits >= math.ceil(0.99 * total)
    print(f"growth_ok={growth_ok} floors_ok={floors_ok} holder_ok={holder_ok} "
          f"witnesses={hits}/{total}")
    return 0 if ok else 5


def cmd_wavelet(args, w: RunWriter) -> int:
    sched = wavelet.wavelet_schedule(args.alpha, args.eps, args.stages)
    f = wavelet.wavelet_oscillator(sched)
    rng = random.Random(args.seed)
    depth = sched.ks[-1] + 40
    rows = []
    for i in range(args.points):
        x = Fraction(rng.getrandbits(depth), 1 << depth)
        for m in range(2, min(3, sched.stages) + 1):
            ws = wavelet.witness_scales(f, x, m)
            rows.append([i, m, ws.case, float(ws.h), float(ws.h_prime),
                         ws.quotient_big, ws.quotient_tame,
                         ws.h_side, ws.h_prime_side])
    # written once every witness is found: a failed run leaves no files
    w.write_json("wavelet_schedule.json", sched.to_dict())
    if args.points:     # --points 0 (the default) writes the schedule only
        w.write_csv("witnesses.csv",
                    ["point", "stage", "case", "h", "h_prime",
                     "quotient_big", "quotient_tame", "h_side", "h_prime_side"],
                    rows)
    print(f"k = {sched.ks}")
    return 0


def cmd_theta(args, w: RunWriter) -> int:
    f = holder.WeierstrassFunction(args.b, args.alpha)
    quad = divdiff.QuadratureConfig(args.panels)
    divdiff._check_cells(f, args.points, 1, f"--points = {args.points}")   # the points array
    rows = []
    for x in np.linspace(args.x_min, args.x_max, args.points):
        th = divdiff.theta(f, args.alpha, float(x), args.eps, quad)
        rows.append([float(x), args.eps, th.value, th.error_estimate])
    w.write_csv("theta.csv", ["x", "eps", "theta", "err"], rows)
    print(f"wrote {len(rows)} theta values")
    return 0


def cmd_sigma_stats(args, w: RunWriter) -> int:
    f = holder.WeierstrassFunction(args.b, args.alpha)
    st = divdiff.sigma_stats(f, args.alpha, args.x, args.eps,
                             [args.delta], [args.c],
                             samples=args.samples, seed=args.seed)
    rows = [[args.x, args.eps, f">{args.delta}", st.upper[args.delta][0],
             st.upper[args.delta][1], args.seed],
            [args.x, args.eps, f"<-{args.c}", st.lower[args.c][0],
             st.lower[args.c][1], args.seed]]
    w.write_csv("sigma_stats.csv",
                ["x", "eps", "threshold", "sigma_measure", "stderr", "seed"],
                rows)
    msg = (f"upper={st.upper[args.delta][0]:.4f} lower={st.lower[args.c][0]:.4f} "
           f"total={st.total_mass:.4f}")
    if args.gamma is not None:
        # normalized occupation of the upper event versus the gamma level
        frac = st.upper[args.delta][0] / st.total_mass
        msg += f" upper/log(1/eps)={frac:.4f} exceeds gamma={args.gamma}: {frac > args.gamma}"
    print(msg)
    return 0


def cmd_gap(args, w: RunWriter) -> int:
    f = holder.WeierstrassFunction(args.b, args.alpha)
    # two endpoint rows of tracking nodes per point and level
    levels = args.depth - args.first_level + 1
    divdiff._check_cells(f, 2 * args.points * levels, 2 * args.panels + 1,
                         f"--points = {args.points} at --depth = {args.depth} "
                         f"and --panels = {args.panels}")
    rng = np.random.default_rng(args.seed)
    xs = [float(v) for v in rng.uniform(0.02, 0.98, size=args.points)]
    profile = divdiff.theta_martingale_gap(
        f, args.alpha, args.depth, xs, first_level=args.first_level,
        eps_grid=2, quad=divdiff.QuadratureConfig(args.panels))
    pval = divdiff.trend_pvalue(profile.gaps)
    w.write_csv("gap.csv", ["level", "sup_gap", "seed"],
                [(lvl, g, args.seed)
                 for lvl, g in zip(profile.levels, profile.gaps)])
    w.write_json("gap.json", {"levels": profile.levels, "gaps": profile.gaps,
                              "trend_pvalue": pval})
    print(f"gaps={['%.3f' % g for g in profile.gaps]} trend_p={pval:.3f}")
    return 0


def _items(text: str, flag: str, parse) -> list:
    """`parse` of each comma-separated item; a bad one is a domain error."""
    try:
        return [parse(item) for item in text.split(",")]
    except ValueError:
        raise DomainError(f"{flag} cannot be read from {text!r}") from None


def cmd_verify_all(args, w: RunWriter) -> int:
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
    # the pieces run from 1/8 to 7/8, each starting where the last ended
    ends = [DyadicRational(1, 3)] + [iv.right for iv in wd.intervals]
    check("whitney", float(wd.total_length()) == 0.75
          and max(wd.per_rank_counts().values()) <= 4
          and [iv.left for iv in wd.intervals] == ends[:-1]
          and ends[-1] == DyadicRational(7, 3))

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
    sub = martingale.SubsampledMartingale(S, 3, 1, 0.0)
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
    check("block growth bound", sched.growth_ok())
    SB = blocks.assemble_martingale(sched)
    check("block cancellation",
          martingale.check_cancellation(SB, min(depth, 12)).ok(0.0))
    reg = blocks.SpecialIntervalRegistry(sched, 0, SB)
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

# the domains a numeric flag may declare: its --help text and its test
DOMAINS = {
    "at least 1": lambda v: v >= 1,
    "nonnegative": lambda v: v >= 0,
    "in (0, 1)": lambda v: 0 < v < 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "positive and finite": lambda v: 0 < v < math.inf,
    "finite": math.isfinite,
}


class _Parser(argparse.ArgumentParser):
    """A parser whose arguments may declare a `domain`, one of DOMAINS."""

    def add_argument(self, *args, domain=None, **kw):
        action = super().add_argument(*args, **{"help": domain, **kw})
        action.domain = domain
        return action


def _check_domains(parser: argparse.ArgumentParser, args) -> None:
    """Refuse the first flag of the chosen subcommand whose value lies
    outside its declared domain; a string value is read as a Fraction."""
    command = parser._subparsers._group_actions[0].choices[args.command]
    for action in command._actions:
        value = getattr(args, action.dest, None)     # -h leaves none
        if action.domain is None or value is None:
            continue
        try:
            ok = DOMAINS[action.domain](Fraction(value) if isinstance(value, str)
                                        else value)
        except (ValueError, ZeroDivisionError):     # no Fraction reads it
            ok = False
        if not ok:
            raise DomainError(f"{action.option_strings[0]} must be {action.domain}, "
                              f"not {value}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dyadosc", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    # the flags several subcommands share, each declared once as a parent
    alpha, seed, b = (_Parser(add_help=False) for _ in range(3))
    alpha.add_argument("--alpha", type=float, required=True, domain="in (0, 1)")
    seed.add_argument("--seed", type=int, required=True, domain="nonnegative")
    b.add_argument("--b", type=float, default=2.0, domain="positive and finite")

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(func=fn)
        sp.add_argument("--out", default="dyadosc-out", help="output directory")
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
        return sp

    sp = add("phi", cmd_phi, help="entropy function value")
    sp.add_argument("--eta", type=float, required=True, domain="in [0, 1]")

    sp = add("lemma32", cmd_lemma32, help="product lower bound sweep", parents=[seed])
    sp.add_argument("--eta", type=float, required=True, domain="in (0, 1)")
    sp.add_argument("--n", type=int, default=20, domain="at least 1")
    sp.add_argument("--count", type=int, default=1000, domain="at least 1")

    sp = add("mass-measure", cmd_mass_measure, help="mass-distribution audit")
    sp.add_argument("--martingale", default="binary",
                    choices=["binary", "zero", "random", "block-discounted"])
    sp.add_argument("--eta", type=float, required=True, domain="in (0, 1)")
    sp.add_argument("--depth", type=int, default=12, domain="at least 1")
    sp.add_argument("--seed", type=int, domain="nonnegative")

    sp = add("besicovitch", cmd_besicovitch, help="exact digit-frequency counts")
    sp.add_argument("--eta", type=str, required=True, domain="in (0, 1)")
    sp.add_argument("--levels", type=str, default="20,100,500,2000")

    sp = add("dim-estimate", cmd_dim_estimate, help="counting exponents from N:count pairs")
    sp.add_argument("--counts", type=str, required=True)

    sp = add("weierstrass", cmd_weierstrass, help="sample the lacunary cosine series",
             parents=[b, alpha])
    sp.add_argument("--x-min", type=float, default=0.0, domain="finite")
    sp.add_argument("--x-max", type=float, default=1.0, domain="finite")
    sp.add_argument("--points", type=int, default=256, domain="at least 1")
    sp.add_argument("--tol", type=float, default=1e-10, domain="positive and finite")

    sp = add("martingale-extract", cmd_martingale_extract,
             help="divided-difference martingale dump", parents=[b, alpha])
    sp.add_argument("--depth", type=int, default=10, domain="nonnegative")
    sp.add_argument("--tol", type=float, default=1e-13, domain="positive and finite")

    sp = add("block", cmd_block, help="one building block with its checks")
    sp.add_argument("--delta", type=float, required=True, domain="in (0, 1)")
    sp.add_argument("--beta", type=float, required=True, domain="in (0, 1)")
    sp.add_argument("--level", type=int, default=0, domain="nonnegative")
    sp.add_argument("--index", type=int, default=0, domain="nonnegative")

    sp = add("schedule", cmd_schedule, help="double-induction placement schedule")
    sp.add_argument("--beta", type=float, required=True, domain="in (0, 1)")
    sp.add_argument("--stages", type=int, default=2, domain="at least 1")
    sp.add_argument("--depth", type=int, default=1024, domain="nonnegative")

    sp = add("counterexample", cmd_counterexample,
             help="finite-stage certificates for the induced function",
             parents=[alpha, seed])
    sp.add_argument("--stages", type=int, default=2, domain="at least 1")
    sp.add_argument("--depth", type=int, default=1024, domain="nonnegative")
    sp.add_argument("--pairs", type=int, default=10000, domain="at least 1")
    sp.add_argument("--points", type=int, default=200, domain="at least 1")

    sp = add("wavelet", cmd_wavelet, help="superlacunary schedule and witnesses",
             parents=[alpha, seed])
    sp.add_argument("--eps", type=float, default=1.0 / 200.0, domain="in (0, 1)")
    sp.add_argument("--stages", type=int, default=4, domain="at least 1")
    sp.add_argument("--points", type=int, default=0, domain="nonnegative")

    sp = add("theta", cmd_theta, help="accumulated divided differences", parents=[b, alpha])
    sp.add_argument("--eps", type=float, required=True, domain="in (0, 1)")
    sp.add_argument("--x-min", type=float, default=0.0, domain="finite")
    sp.add_argument("--x-max", type=float, default=1.0, domain="finite")
    sp.add_argument("--points", type=int, default=16, domain="at least 1")
    sp.add_argument("--panels", type=int, default=32, domain="at least 1")

    sp = add("sigma-stats", cmd_sigma_stats, help="scale statistics of threshold events",
             parents=[b, alpha, seed])
    sp.add_argument("--x", type=float, default=0.123, domain="finite")
    sp.add_argument("--eps", type=float, default=2.0 ** -12, domain="in (0, 1)")
    sp.add_argument("--delta", type=float, default=0.1, domain="positive and finite")
    sp.add_argument("--c", type=float, default=0.1, domain="positive and finite")
    sp.add_argument("--gamma", type=float, domain="in (0, 1)")
    sp.add_argument("--samples", type=int, default=20000, domain="at least 1")

    sp = add("gap", cmd_gap, help="theta vs discounted martingale gap profile",
             parents=[b, alpha, seed])
    sp.add_argument("--depth", type=int, default=12, domain="at least 1")
    sp.add_argument("--first-level", type=int, default=6, domain="at least 1")
    sp.add_argument("--points", type=int, default=16, domain="at least 1")
    sp.add_argument("--panels", type=int, default=16, domain="at least 1")

    sp = add("verify-all", cmd_verify_all, help="fast invariant suite", parents=[seed])
    sp.add_argument("--depth", type=int, default=12, domain="at least 1")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # the manifest records every argument but the output plumbing and unset ones
    params = {k: v for k, v in vars(args).items()
              if k not in ("out", "format", "command", "func") and v is not None}
    w = RunWriter(args.out, args.command, params, table_format=args.format)
    try:
        _check_domains(parser, args)
        code = args.func(args, w)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except DepthCapError as exc:
        print(f"depth cap: {exc}", file=sys.stderr)
        return 4
    except wavelet.CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 5
    if w.files:
        w.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())
