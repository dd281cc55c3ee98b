"""Tests of the benchmark's output checker.

    python3 -m pytest perfbench/test_checker.py

The end-to-end tests run the theta-gap workload (about 15 s each).
"""

import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from checks import Checker, encode, matches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = "theta-gap"


def _bench(reference_dir: Path) -> tuple[int, str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", WORKLOAD, "--seed", "0",
         "--seconds", "0", "--trace", "0", "--reference-dir", str(reference_dir)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    return proc.returncode, proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_matches_exact_and_tolerant():
    assert matches(encode(Fraction(3, 8)), "3/8")
    assert not matches(encode(Fraction(3, 8)), "5/8")
    assert matches(encode(10 ** 40), 10 ** 40)
    assert not matches(encode(10 ** 40 + 1), 10 ** 40)
    assert matches(1.0 + 1e-12, 1.0)
    assert not matches(1.0 + 1e-6, 1.0)
    assert matches(-1.7e-15, 0.0)
    assert not matches("ii", "iii")


def test_checker_counts_operations():
    check = Checker({"seed": 0, "seeded": {"a": 1.0}, "fixed": {"b": 2}}, seed=0)
    check.output("a", 1.5)
    check.output("b", 2, seeded=False)
    check.clause("c", True)
    with check.call("d"):
        raise ValueError("boom")
    assert (check.attempted, check.failed) == (4, 2)
    other_seed = Checker({"seed": 0, "seeded": {"a": 1.0}}, seed=1)
    other_seed.output("a", 1.5)
    assert other_seed.failed == 0
    pinning = Checker(None, seed=0)
    pinning.output("a", 1.5)
    pinning.output("b", 2, seeded=False)
    assert pinning.failed == 0 and pinning.outputs == {"fixed": {"b": 2}, "seeded": {"a": 1.5}}


def test_missing_reference_key_fails():
    ref = {"seed": 0, "seeded": {"a": 1.0}, "fixed": {"b": 2}}
    check = Checker(ref, seed=0)
    check.output("renamed", 1.0)
    check.output("new_fixed", 3, seeded=False)
    assert (check.attempted, check.failed) == (2, 2)
    assert check.failures[0] == "renamed: no pinned reference"
    # seeded outputs are unchecked on another seed, fixed ones never are
    other_seed = Checker(ref, seed=1)
    other_seed.output("renamed", 1.0)
    other_seed.output("new_fixed", 3, seeded=False)
    assert other_seed.failed == 1


def test_pinned_reference_passes():
    rc, _, result = _bench(HERE / "reference")
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_perturbed_reference_fails():
    ref = json.loads((HERE / "reference" / f"{WORKLOAD}.json").read_text())
    key = next(k for k, v in ref["seeded"].items() if isinstance(v, float))
    ref["seeded"][key] *= 1.0 + 1e-6
    work_dir = ROOT / ".perfbench_out"
    work_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        (Path(tmp) / f"{WORKLOAD}.json").write_text(json.dumps(ref))
        rc, stdout, result = _bench(Path(tmp))
    assert rc != 0
    assert not result["correct"] and result["failed"] > 0
    assert f"FAILED {key}" in stdout
    frac = float(stdout.split("fail_frac=")[1].split()[0])
    assert frac > 0
