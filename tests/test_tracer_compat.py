"""The per-layer tracer of perfbench/tracer.py still fits the program.

The tracer patches public methods by name and reads what they return
(``RunWriter.finish`` must return the manifest path), so a change that
keeps every test green can still break a traced benchmark run.  This
runs CLI commands under the installed tracer in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
tracer.install(t)
from dyadosc import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "metrics": tracer.metrics(t)}))
"""


def _traced(*commands):
    """Exit codes and tracer metrics of CLI `commands` run in one traced
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench" / "tracer.py"),
         json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_runs_under_the_tracer(tmp_path):
    out = _traced(["verify-all", "--depth", "8", "--seed", "1"],
                  ["mass-measure", "--martingale", "zero", "--eta", "0.5",
                   "--depth", "6", "--out", str(tmp_path / "mm")])
    assert out["codes"] == [0, 0]
    metrics = out["metrics"]
    assert metrics and metrics["cli.main.calls"] == 2
    assert metrics["cli.write.bytes"] > 0
    assert (tmp_path / "mm" / "mass-measure_manifest.json").is_file()


def test_scaled_view_level_read_counted_once(tmp_path):
    # the view reads its base's level through the hook, behind its own
    # gate: 12 traced level reads of 2 + 4 + ... + 64 cells, not 24 of twice
    out = _traced(["mass-measure", "--martingale", "block-discounted", "--eta", "0.25",
                   "--depth", "6", "--out", str(tmp_path / "mm")])
    assert out["codes"] == [0]
    assert out["metrics"]["martingale.level_sweep.cells"] == 252
    assert out["metrics"]["martingale.level_sweep.calls"] == 12


def test_extracted_martingale_is_traced(tmp_path):
    # the divided-difference martingale reads its memoised oracle through
    # ValueMartingale.value, a boundary the tracer patches by name
    out = _traced(["martingale-extract", "--alpha", "0.5", "--depth", "4",
                   "--out", str(tmp_path / "mx")])
    assert out["codes"] == [0]
    assert out["metrics"]["martingale.value.calls"] > 0
