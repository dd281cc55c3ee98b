"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json request>'

The request names the workload, seed, source root, working directory,
reference file, whether to trace and whether to stop after set-up.  The
pass pays ``import dyadosc``, the memo dicts and the ``base_wavelet()``
cache, as a CLI user does.  It prints one JSON line: the set-up time
(rescaled to the reference host speed, see hostspeed.py, and raw wall)
and, unless it stopped after set-up, the run time (both ways), peak RSS,
the check tallies and, when traced, the per-layer metrics and span table.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
from checks import Checker
from hostspeed import HostSpeed
from workloads import WORKLOADS

SETUP_PROBES = 4    # probes averaged to rescale set-up


def main(request: dict) -> dict:
    wl = WORKLOADS[request["workload"]]
    seed = request["seed"]
    src = Path(request["root"]) / "src"
    # a pinning pass records outputs without comparing them
    reference = None if request["pin"] else json.loads(Path(request["reference"]).read_text())
    inputs = wl.inputs(seed)

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import dyadosc
    if Path(dyadosc.__file__).resolve().parent != (src / "dyadosc").resolve():
        raise RuntimeError(f"imported dyadosc from {dyadosc.__file__}, not {src}")
    tracer = None
    if request["traced"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    objs = wl.setup()
    setup_wall_s = time.perf_counter() - t0
    speed = HostSpeed()
    for _ in range(1 + SETUP_PROBES):   # the first probe pays numpy's first calls
        speed.sample()
    setup = {"setup_s": setup_wall_s * speed.scale(1, SETUP_PROBES),
             "setup_wall_s": setup_wall_s}
    if request["setup_only"]:
        return setup
    check = Checker(reference, seed, tick=speed.tick)
    wl.run(objs, inputs, check, request["work_dir"])
    speed.sample()
    last = len(speed.samples) - 1

    result = {
        **setup,
        "run_s": speed.scaled(SETUP_PROBES, last),
        "run_wall_s": speed.wall(SETUP_PROBES, last),
        "probes": len(speed.samples),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": check.attempted,
        "failed": check.failed,
        "failures": check.failures,
    }
    if request["pin"]:
        result["outputs"] = check.outputs
    if tracer is not None:
        result["layers"] = tracing.metrics(tracer)
        result["spans"] = tracer.span_table()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
