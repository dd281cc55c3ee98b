"""The four benchmark workloads.

Each mirrors one acceptance criterion that takes more than a second and
drives dyadosc's public API from one single-threaded process:

* ``inputs(seed)``  -- every input the benchmark can generate, from the
  workload seed alone (stdlib `random`, so numpy is not imported before
  the timed set-up);
* ``setup()``       -- construction of the workload's objects (timed as
  set-up, together with ``import dyadosc``);
* ``run(objs, inputs, check, work_dir)`` -- the certificate calls, each
  output checked through `check` (timed as the run).

Sizes are fixed here, so the same seed always does the same work.  Long
certificate calls are split into calls of well under a second, so that
the host-speed probe (hostspeed.py) runs between them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import tempfile
from fractions import Fraction
from pathlib import Path


class BlockWitness:
    name = "block-witness"
    why = ("scalar oracle walks along one long address (criterion 5, the "
           "counterexample shape): blocks, holder, martingale and dyadic layers")
    SEMINORM_CALLS, SEMINORM_PAIRS = 4, 1000
    SIGNED_PAIRS = 2000
    SURVEY_CALLS, SURVEY_POINTS = 10, 50
    DEPTH = 44
    ALPHA = 0.5

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        pairs = []
        while len(pairs) < self.SIGNED_PAIRS:
            lo = rng.getrandbits(self.DEPTH)
            width = max(1, rng.getrandbits(18))
            if lo + width < (1 << self.DEPTH):
                pairs.append((lo, width))
        return {"seminorm_seeds": [rng.getrandbits(32) for _ in range(self.SEMINORM_CALLS)],
                "pairs": pairs,
                "survey_seeds": [rng.getrandbits(32) for _ in range(self.SURVEY_CALLS)]}

    def setup(self) -> dict:
        import dyadosc as d
        sched = d.build_schedule(1.0 - self.ALPHA, 2, depth_cap=1024)
        S = d.assemble_martingale(sched)
        prof = sched.growth_norm_profile()
        f = d.martingale_function(S, self.ALPHA, max_depth=sched.end_level + 64,
                                  growth_bound=float(prof.max()))
        return {"sched": sched, "S": S, "prof": prof, "f": f}

    def run(self, objs, inputs, check, work_dir):
        import dyadosc as d
        from dyadosc.dyadic import DyadicRational as DR
        sched, S, prof, f = objs["sched"], objs["S"], objs["prof"], objs["f"]
        alpha, beta = self.ALPHA, 1.0 - self.ALPHA

        check.output("end_level", sched.end_level, seeded=False)
        check.output("placements", len(sched.placements), seeded=False)
        check.output("max_growth_norm", float(prof.max()), seeded=False)
        check.clause("growth_bound", bool((prof <= 2.0 ** (1.0 - beta) + 1e-9).all()))
        fp = sched.floor_profile()
        for rec in sched.stages:
            start = sched.stage_floor_start(rec.stage)
            nxt = (sched.stage_floor_start(rec.stage + 1)
                   if rec.stage + 1 < len(sched.stages) else None)
            hi = len(fp) if nxt is None else nxt
            check.clause(f"floor/{rec.stage}",
                         bool(fp[start:hi].min() >= -3.0 * rec.delta - 1e-9))

        for i, s in enumerate(inputs["seminorm_seeds"]):
            with check.call(f"seminorm/{i}"):
                est = d.holder_seminorm_estimate(f, d.SeminormSampler(
                    pairs=self.SEMINORM_PAIRS, scale_min=2.0 ** -40, seed=s,
                    dyadic_depth=self.DEPTH))
                check.output(f"seminorm/{i}", est)
                check.clause(f"seminorm/{i}<=C", est <= f.seminorm_bound)

        # criterion 5's signed loop: divided differences respect the floors
        floor_quot = -12.0 * 0.25 / (1.0 - 2.0 ** -alpha)
        for i, (lo, width) in enumerate(inputs["pairs"]):
            with check.call(f"pair/{i}"):
                a, b = DR(lo, self.DEPTH), DR(lo + width, self.DEPTH)
                diff = f.difference(a, b)
                check.output(f"pair/{i}", diff)
                check.clause(f"pair/{i}>=floor",
                             diff / float(b - a) ** alpha >= floor_quot - 1e-6)

        hits = total = 0
        for i, s in enumerate(inputs["survey_seeds"]):
            with check.call(f"witness/{i}"):
                h, n = d.witness_survey(sched, S, f, alpha, self.SURVEY_POINTS, seed=s)
                check.output(f"witness/{i}", h)
                hits, total = hits + h, total + n
        check.clause("witness>=99%", total > 0 and hits >= math.ceil(0.99 * total))


class ThetaGap:
    name = "theta-gap"
    why = ("numpy-batched Weierstrass evaluation under the accumulated "
           "difference and its martingale gap (criterion 8): holder and divdiff")
    GAP_CALLS, GAP_POINTS = 8, 2
    FLEET_EPS = (2.0 ** -4, 2.0 ** -9, 2.0 ** -13)
    LINEAR_EPS = (0.5, 2.0 ** -5, 2.0 ** -10, 2.0 ** -14)
    ALPHA = 0.5

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        return {"gap_xs": [[rng.uniform(0.02, 0.98) for _ in range(self.GAP_POINTS)]
                           for _ in range(self.GAP_CALLS)],
                "fleet_xs": [rng.uniform(0.02, 0.98) for _ in range(3)]}

    def setup(self) -> dict:
        import dyadosc as d
        W = d.WeierstrassFunction(2.0, self.ALPHA)
        lin = d.LinearFunction(1.0, alpha=self.ALPHA)
        fleet = {"linear": lin, "W2": W, "W3": d.WeierstrassFunction(3.0, self.ALPHA),
                 "constant": d.ConstantFunction(1.0)}
        return {"W": W, "lin": lin, "fleet": fleet}

    def run(self, objs, inputs, check, work_dir):
        import dyadosc as d
        alpha = self.ALPHA
        for eps in self.LINEAR_EPS:
            with check.call(f"linear/{eps}"):
                got = d.theta(objs["lin"], alpha, 0.0, eps).value
                check.output(f"linear/{eps}", got, seeded=False)
                check.clause(f"linear/{eps}=closed",
                             abs(got - d.theta_linear_closed_form(1.0, alpha, eps)) < 1e-8)
        # |Theta| <= ||f||_alpha log(1/eps) across the fleet
        for gname, g in objs["fleet"].items():
            for i, x in enumerate(inputs["fleet_xs"]):
                for eps in self.FLEET_EPS:
                    key = f"theta/{gname}/{i}/{eps}"
                    with check.call(key):
                        th = d.theta(g, alpha, x, eps)
                        check.output(key, th.value)
                        check.clause(key + "<=bound", abs(th.value)
                                     <= g.seminorm_bound * math.log(1 / eps) + 1e-9)
        # the profile over all points is the levelwise max over the calls
        gaps = None
        for i, xs in enumerate(inputs["gap_xs"]):
            with check.call(f"gap/{i}"):
                prof = d.theta_martingale_gap(objs["W"], alpha, 14, xs, first_level=6,
                                              eps_grid=2, quad=d.QuadratureConfig(16))
                check.output(f"gap/{i}", prof.gaps)
                check.clause(f"gap/{i}/levels", prof.levels == list(range(6, 15)))
                check.clause(f"gap/{i}/finite",
                             all(math.isfinite(g) and g >= 0.0 for g in prof.gaps))
                gaps = prof.gaps if gaps is None else [max(a, b) for a, b in zip(gaps, prof.gaps)]
        if gaps is not None:
            check.output("gap/trend_pvalue", d.trend_pvalue(gaps))


class LevelSweep:
    name = "level-sweep"
    why = ("dense whole-level sweeps of the martingale and blocks layers, exact "
           "counting and two CLI commands (criteria 3, 4, 7); holds the memory peak")
    SWEEP_DEPTH = 16
    RANDOM_SIGN = 40
    GROWTH = 40
    CANCEL_DEPTH = 22
    BESICOVITCH_N = (20, 100, 500, 2000)
    BESICOVITCH_ETA = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        return {"random_sign": [rng.getrandbits(32) for _ in range(self.RANDOM_SIGN)],
                "growth": [(0.25 + 0.5 * (i % 10) / 10.0, rng.getrandbits(32))
                           for i in range(self.GROWTH)],
                "verify_seed": rng.getrandbits(31)}

    def setup(self) -> dict:
        import dyadosc as d
        sched = d.build_schedule(0.5, 2, depth_cap=1024)
        return {"binary": d.binary_digit_martingale(),
                "blocks": d.assemble_martingale(sched)}

    def run(self, objs, inputs, check, work_dir):
        import dyadosc as d
        from dyadosc import cli
        depth = self.SWEEP_DEPTH

        with check.call("sweep/binary"):
            rep = d.sweep_mass_distribution(objs["binary"], 0.5, depth)
            check.output("sweep/binary", [rep.members, rep.worst_log2_margin], seeded=False)
            check.clause("sweep/binary/ok", rep.ok(1e-9))
        # library-owned random streams: certificate clauses only
        for s in inputs["random_sign"]:
            with check.call(f"sweep/random/{s}"):
                rep = d.sweep_mass_distribution(d.RandomSignMartingale(s), 0.5, depth)
                check.clause(f"sweep/random/{s}/ok", rep.ok(1e-9))
                check.clause(f"sweep/random/{s}/sums", rep.level_sums_exact)

        with check.call("cancellation"):
            rep = d.check_cancellation(objs["blocks"], self.CANCEL_DEPTH)
            check.output("cancellation/checked", rep.checked, seeded=False)
            check.output("cancellation/max_violation", rep.max_violation, seeded=False)
            check.clause("cancellation/ok", rep.ok(1e-12))

        for beta, s in inputs["growth"]:
            with check.call(f"sbp/{s}"):
                resid = d.summation_by_parts_check(d.random_growth_martingale(beta, s), 8)
                check.clause(f"sbp/{s}<=1e-10", resid <= 1e-10)

        for eta in self.BESICOVITCH_ETA:
            with check.call(f"besicovitch/{eta}"):
                counts = []
                for N in self.BESICOVITCH_N:
                    c = d.besicovitch_count(N, eta)
                    check.output(f"besicovitch/{eta}/{N}", c, seeded=False)
                    counts.append((N, c))
                ests = d.dim_estimate(counts)
                check.clause(f"besicovitch/{eta}/monotone",
                             all(a < b for a, b in zip(ests, ests[1:])))
                check.clause(f"besicovitch/{eta}/gap",
                             abs(d.entropy_phi(float(eta)) - ests[-1]) < 0.02)
                check.clause(f"besicovitch/{eta}/bruteforce",
                             counts[0][1] == d.besicovitch_count_bruteforce(20, eta))

        with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
            out = Path(tmp) / "mm"
            with check.call("cli/mass-measure"):
                rc, _ = _cli(cli, ["mass-measure", "--martingale", "block-discounted",
                                   "--eta", "0.25", "--depth", "16", "--out", str(out)])
                check.clause("cli/mass-measure/rc", rc == 0)
                report = json.loads((out / "mass_report.json").read_text())
                check.output("cli/mass-measure/report",
                             [report["members"], report["worst_log2_margin"]], seeded=False)
                manifest = json.loads((out / "mass-measure_manifest.json").read_text())
                for name, digest in sorted(manifest["outputs"].items()):
                    check.clause(f"cli/mass-measure/{name}/sha256",
                                 hashlib.sha256((out / name).read_bytes()).hexdigest() == digest)
            with check.call("cli/verify-all"):
                rc, text = _cli(cli, ["verify-all", "--depth", "12",
                                      "--seed", str(inputs["verify_seed"])])
                check.clause("cli/verify-all/rc", rc == 0)
                lines = [ln for ln in text.splitlines() if ln.startswith("[")]
                check.clause("cli/verify-all/lines", len(lines) > 0)
                for ln in lines:
                    check.clause(f"cli/verify-all/{ln}", ln.startswith("[PASS]"))


def _cli(cli, argv):
    """Run a dyadosc subcommand in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class WaveletWitness:
    name = "wavelet-witness"
    why = ("exact-rational witness scales of the 4-stage wavelet oscillator "
           "(criterion 6): the wavelet layer and fractions")
    POINTS = 200
    STAGES = (2, 3)

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        return {"xs": [Fraction(rng.getrandbits(200), 1 << 200)
                       for _ in range(self.POINTS)]}

    def setup(self) -> dict:
        import dyadosc as d
        d.base_wavelet()
        sch = d.wavelet_schedule(0.5, 1.0 / 200.0, 4)
        return {"sch": sch, "f": d.wavelet_oscillator(sch)}

    def run(self, objs, inputs, check, work_dir):
        import dyadosc as d
        sch, f = objs["sch"], objs["f"]
        check.output("ks", sch.ks, seeded=False)
        check.clause("schedule_clauses", all(
            rec["clause1_margin"] >= 0.0 and rec["clause2_margin"] >= 0.0
            for rec in sch.records))
        for i, x in enumerate(inputs["xs"]):
            for m in self.STAGES:
                key = f"witness/{i}/{m}"
                with check.call(key):
                    ws = d.witness_scales(f, x, m)
                    check.output(key, [ws.case, ws.h, ws.h_prime,
                                       ws.quotient_big, ws.quotient_tame])
                    check.clause(key + "/tame", ws.quotient_tame <= 1.0 + 1e-3)
                    check.clause(key + "/big",
                                 ws.quotient_big >= 0.4 * ws.scale_reference())


WORKLOADS = {w.name: w for w in (BlockWitness(), ThetaGap(), LevelSweep(),
                                 WaveletWitness())}
