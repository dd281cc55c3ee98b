"""dyadosc benchmark: four certificate workloads, timed from fresh interpreters.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a dyadosc checkout; the library is imported from
``src/``.  Each pass is one closed-loop caller in a fresh single-threaded
interpreter (see worker.py); passes repeat the seed's inputs while
another one fits in ``--seconds``, at least `MIN_PASSES` times.

--trace 0 reports the end-to-end metrics, each the median over passes:
  run_s         time from the end of set-up to the last checked output
  setup_s       ``import dyadosc`` plus construction of the workload objects
                (`SETUP_PASSES` extra fresh interpreters that stop after
                set-up run before each full pass, and count in the median)
  peak_rss_mib  peak resident memory of the pass process (ru_maxrss)
Both times are wall seconds rescaled to a reference host speed by the
probe in hostspeed.py; the raw wall medians are printed beside them and
every raw pass time is in the record.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of tracer.py, ``trace.overhead_s`` (traced minus
untraced run_s) and the raw wall medians ``wall.run_s`` and
``wall.setup_s`` of the untraced passes.

Every output is checked (checks.py); fail_frac = failed / attempted is
printed, and the command exits 1 if any check failed.  The last stdout
line is one JSON object with keys correct, attempted, failed, metrics.
A provenance record (machine, versions, raw per-pass numbers, span
table) goes to ``.perfbench_out/``.

--pin runs one pass and rewrites reference/<workload>.json from its
outputs; use it only on a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
SETUP_PASSES = 5
BUDGET_S = 170.0          # never start a pass that could end past this
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
BLAS_THREADS = 1
NOTES = ("martingale.level_sweep.bytes_computed is the size of the arrays returned, "
         "computed, not measured memory traffic. The largest single array is one "
         "2^21-cell float64 chunk (16 MiB) of the depth-22 cancellation sweep, below "
         "the L3 size recorded under machine; no bandwidth is claimed.")


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed output check)."""


def run_pass(workload: str, seed: int, traced: bool, reference: Path, work_dir: Path,
             timeout: float, pin: bool = False, setup_only: bool = False) -> dict:
    request = {"workload": workload, "seed": seed, "traced": traced, "pin": pin,
               "setup_only": setup_only, "root": str(ROOT), "reference": str(reference),
               "work_dir": str(work_dir)}
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS=str(BLAS_THREADS),
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(request)],
                              capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference_dir: Path, work_dir: Path) -> dict:
    reference = reference_dir / f"{workload}.json"
    if not reference.exists():
        raise HarnessError(f"no pinned reference {reference}")
    start = time.monotonic()
    passes: list[dict] = []
    setups: list[dict] = []
    min_passes = 2 if trace else MIN_PASSES
    while True:
        elapsed = time.monotonic() - start
        traced = trace and len(passes) % 2 == 1
        # start a pass only if one like the last of its kind still fits
        same = [p["wall_s"] for p in passes if p["traced"] == traced]
        if len(passes) >= min_passes and elapsed + (same[-1] if same else 0.0) > seconds:
            break
        if passes and elapsed + max(p["wall_s"] for p in passes) > BUDGET_S:
            break
        t0 = time.monotonic()
        timeout = max(10.0, BUDGET_S - elapsed)
        if not trace:
            setups += [run_pass(workload, seed, False, reference, work_dir, timeout,
                                setup_only=True) for _ in range(SETUP_PASSES)]
        p = run_pass(workload, seed, traced, reference, work_dir, timeout)
        p["wall_s"] = time.monotonic() - t0
        p["traced"] = traced
        passes.append(p)

    plain = [p for p in passes if not p["traced"]]
    raw = {"run_wall_s": statistics.median(p["run_wall_s"] for p in plain),
           "setup_wall_s": statistics.median(p["setup_wall_s"] for p in plain + setups)}
    if trace:
        traced = [p for p in passes if p["traced"]]
        # median_low keeps counts whole: it always picks a measured value
        metrics = {k: statistics.median_low(p["layers"][k] for p in traced)
                   for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(p["run_s"] for p in traced)
                                       - statistics.median(p["run_s"] for p in plain))
        metrics["wall.run_s"] = raw["run_wall_s"]
        metrics["wall.setup_s"] = raw["setup_wall_s"]
        spans = traced[-1]["spans"]
    else:
        metrics = {k: statistics.median(p[k] for p in plain) for k in ("run_s", "peak_rss_mib")}
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in plain + setups)
        spans = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "metrics": metrics,
        "raw_wall_medians": raw,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:20],
        "passes": [{k: p[k] for k in ("traced", "wall_s", "run_s", "run_wall_s", "setup_s",
                                      "setup_wall_s", "probes", "peak_rss_mib",
                                      "attempted", "failed")}
                   for p in passes],
        "setup_passes": setups,
        "spans": spans,
    }


def pin(workload: str, seed: int, reference_dir: Path, work_dir: Path) -> dict:
    """Rewrite the reference file from one pass at `seed`."""
    p = run_pass(workload, seed, False, Path(), work_dir, BUDGET_S, pin=True)
    reference_dir.mkdir(parents=True, exist_ok=True)
    path = reference_dir / f"{workload}.json"
    path.write_text(json.dumps({"seed": seed, **p["outputs"]}, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(len(v) for v in p['outputs'].values())} outputs to {path}")
    return p


def machine() -> dict:
    info: dict = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
                  "blas_threads": BLAS_THREADS, "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}_cache"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    info["commit"] = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        info["commit"] = out.stdout.strip() or None
    return info


def summary_line(res: dict) -> str:
    m = res["metrics"]
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    head = f"{res['workload']} seed={res['seed']} passes={len(res['passes'])}:"
    tally = f"fail_frac={frac:.6g} ({res['failed']}/{res['attempted']})"
    if res["trace"]:
        return f"{head} trace.overhead_s={m['trace.overhead_s']:.4f} s {tally}"
    parts = " ".join(f"{k}={m[k]:.4f} {u}" for k, u in END_TO_END.items())
    raw = res["raw_wall_medians"]
    wall = f"(raw wall: run {raw['run_wall_s']:.4f} s, setup {raw['setup_wall_s']:.4f} s)"
    return f"{head} {parts} {wall} {tally}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference-dir", type=Path, default=HERE / "reference")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dyadosc" / "__init__.py").exists():
        print(f"error: no dyadosc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.pin:
            failed = sum(pin(n, args.seed, args.reference_dir, out_dir)["failed"]
                         for n in names)
            return int(failed > 0)
        info = machine()
        results = []
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               args.reference_dir, out_dir)
            res["machine"] = info
            res["notes"] = NOTES
            record = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(res, indent=1) + "\n")
            print(summary_line(res))
            for f in res["failures"]:
                print(f"  FAILED {f}")
            results.append(res)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    unit = tracing.unit if args.trace else END_TO_END.__getitem__
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        for k, v in res["metrics"].items():
            metrics[prefix + k] = {"value": v, "unit": unit(k)}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
