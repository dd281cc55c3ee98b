"""Summarise benchmark records into BASELINE.json.

    python3 perfbench/baseline.py

Reads the records run.py left in ``.perfbench_out/``: every
``<workload>-seed<n>-trace0.json`` (end-to-end runs, one per seed) and
``<workload>-seed0-trace1.json`` (the traced run).  Writes, per
workload, the end-to-end medians and quartiles over seeds (rescaled,
as reported, and the raw wall medians beside them), fail_frac,
the per-module self-time shares of the traced run, and the per-layer
costs that ROADMAP item 1 quotes as estimates.  Per-layer times come
from the traced run, so they include the tracing overhead reported
beside them.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from tracer import MODULES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"


def _spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values), "values": values}


def _edge(record: dict, name: str, parent: str) -> dict:
    for span in record["spans"]:
        if span["name"] == name and span["parent"] == parent:
            return span
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0}


def main() -> None:
    summary: dict = {"workloads": {}}
    traced = {}
    for name, wl in WORKLOADS.items():
        runs = [json.loads(p.read_text()) for p in sorted(OUT.glob(f"{name}-seed*-trace0.json"))]
        tr = json.loads((OUT / f"{name}-seed0-trace1.json").read_text())
        traced[name] = tr
        summary["machine"] = tr["machine"]
        layers = tr["metrics"]
        self_total = sum(layers[f"{m}.self_s"] for m in MODULES)
        summary["workloads"][name] = {
            "why": wl.why,
            "seeds": [r["seed"] for r in runs],
            "end_to_end": {k: _spread([r["metrics"][k] for r in runs])
                           for k in ("run_s", "setup_s", "peak_rss_mib")},
            "raw_wall": {k: _spread([r["raw_wall_medians"][k] for r in runs])
                         for k in ("run_wall_s", "setup_wall_s")},
            "fail_frac": (sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)),
            "traced_seed0": {
                "trace.overhead_s": layers["trace.overhead_s"],
                "module_self_s": {m: layers[f"{m}.self_s"] for m in MODULES},
                "module_self_share": {m: layers[f"{m}.self_s"] / self_total for m in MODULES},
            },
        }

    bw, ls = traced["block-witness"], traced["level-sweep"]
    bl, ll = bw["metrics"], ls["metrics"]
    seminorm_diff = _edge(bw, "holder.difference", "holder.seminorm")
    sweep_vec = _edge(ls, "entropy.sweep", "root")
    sweep_cli = _edge(ls, "entropy.sweep", "cli.main")
    summary["roadmap_item1_traced"] = {
        "block_martingale_increment_us": 1e6 * bl["martingale.increment.busy_s"]
                                         / bl["martingale.increment.calls"],
        "depth44_difference_us": 1e6 * seminorm_diff["total_s"] / seminorm_diff["calls"],
        "witness_point_ms": 1e3 * bl["blocks.witness_survey.busy_s"]
                            / bl["blocks.witness_survey.points"],
        "depth22_cancellation_s": _edge(ls, "martingale.check_cancellation", "root")["total_s"],
        "vectorized_depth16_sweep_s_per_call": sweep_vec["total_s"] / sweep_vec["calls"],
        "cli_sweeps_s": sweep_cli["total_s"],
        "cli_sweeps_note": ("two calls under cli.main: mass-measure's block-discounted "
                            "depth-16 sweep and verify-all's vectorized binary depth-12 sweep"),
        "block_discounted_increment_calls": _edge(ls, "martingale.increment",
                                                  "martingale.level_sweep")["calls"],
        "level_sweep_bytes_computed": ll["martingale.level_sweep.bytes_computed"],
        "notes": ("Per-layer times are raw wall seconds of one traced pass at seed 0, "
                  "tracing overhead included; end-to-end times are rescaled to the "
                  "reference host speed (hostspeed.py), raw_wall gives the same "
                  "runs' medians of raw wall seconds. " + ls["notes"]),
    }
    (HERE / "BASELINE.json").write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
