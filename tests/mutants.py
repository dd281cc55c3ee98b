"""Mutation analysis: each named mutant must make its checks fail.

    python3 tests/mutants.py

Each mutant in `MUTANTS` replaces one library function with a broken
copy and names the acceptance criteria and CLI commands that must catch
it. Every (mutant, check) pair runs in a fresh process, after each check
has run once unmutated and passed. A check catches its mutant when it
does not pass: a criterion fails its assertion or raises, or a command
exits with a code other than 0. One line per pair is printed, then the
run time. The script exits 1 on a pair that survives and is not in
`SURVIVORS`, on a `SURVIVORS` pair that is now caught, on a caught
pair whose failure text lacks its `FAIL_TEXT`, or on a check that fails
unmutated. pytest does not collect this file.

The method is mutation analysis (R. A. DeMillo, R. J. Lipton and
F. G. Sayward, "Hints on Test Data Selection", IEEE Computer, 1978),
done with the standard library.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import subprocess
import sys
import tempfile
import time
import types
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CAUGHT, PASSED = 10, 0          # exit codes of one check in a child process


@dataclass(frozen=True)
class Mutant:
    name: str
    target: str                 # "module.function" or "module.Class.method"
    mutate: Callable            # the original function -> its broken copy
    checks: tuple[str, ...]     # "criterion N" or a dyadosc command line
    claim: str                  # what the mutant breaks


def _plus(delta):
    return lambda original: lambda *a: original(*a) + delta


def _half_rounds(original):
    return lambda j, beta: max(1, original(j, beta) // 2)


def _shifted_plateau(original):
    def solve():
        q, p = original()
        return q + Fraction(1, 100), p
    return solve


def _unpaired_right_jump(original):
    def level_increments(self, n, parents):
        out = original(self, n, parents)
        out[1::2] *= 1.0 + 2.0 ** -30
        return out
    return level_increments


def _shifted_range_read(original):
    # each range read one cell to the left, wrapping at its end
    def level_values_range(self, n, lo, hi):
        return np.roll(original(self, n, lo, hi), -1)
    return level_values_range


def _ancestor_off(original):
    # S(anc) of every pair 1 + 2^-30 times its value; the integrals kept
    def pair_primitives(self, ia, ib, depth):
        s_anc, ga, gb = original(self, ia, ib, depth)
        return s_anc * (1.0 + 2.0 ** -30), ga, gb
    return pair_primitives


def _dropped_panel(original):
    # the last Simpson panel of every row is left out of the sum
    return lambda v, step: original(v[..., :-2], step)


def _misaligned_tiling(original):
    # the pieces of [0, h) reported as the tiling of [x, x + h): for
    # [1/8, 7/8), [0, 1/2) and [1/2, 3/4), of the right total and ranks
    def whitney(x, h, max_depth=48):
        from dyadosc.dyadic import DyadicRational

        return replace(original(0, h, max_depth), x=DyadicRational.from_value(x))
    return whitney


def _recoded(old, new):
    # the same function with its one literal `old` read as `new`: a wrong
    # coefficient inside a formula that is inlined in a loop body
    def mutate(original):
        code = original.__code__
        consts = [c for c in code.co_consts if type(c) is type(old) and c == old]
        assert len(consts) == 1, f"{original.__qualname__} holds {old!r} {len(consts)} times"
        recoded = code.replace(co_consts=tuple(
            new if type(c) is type(old) and c == old else c for c in code.co_consts))
        return types.FunctionType(recoded, original.__globals__, original.__name__,
                                  original.__defaults__, original.__closure__)
    return mutate


README_COUNTEREXAMPLE = "counterexample --alpha 0.5 --stages 2 --points 1000 --seed 11"
README_MASS_MEASURE = "mass-measure --martingale block-discounted --eta 0.25 --depth 16"
VERIFY_ALL = "verify-all --depth 12 --seed 7"
VERIFY_ALL_SEED_1 = "verify-all --seed 1 --depth 12"
README_WAVELET = "wavelet --alpha 0.5 --stages 4 --points 20 --seed 3"

MUTANTS = [
    Mutant("mass-ratio-plus-0.05", "entropy._mass_ratio", _plus(0.05),
           ("criterion 3",),
           "each level's masses sum to 1.05^n, not 1"),
    Mutant("mass-ratio-plus-1e-6", "entropy._mass_ratio", _plus(1e-6),
           ("criterion 3", README_MASS_MEASURE),
           "each parent's mass split into 1 + 2e-6 of it, not 1"),
    Mutant("extremal-bound-plus-1/256", "entropy.extremal_bound_exact",
           _plus(Fraction(1, 256)), ("criterion 2", VERIFY_ALL),
           "the extremal bound 2^(-N Phi(eta)) at N = 4, eta = 1/2 read as 28/256, "
           "not the product 27/256"),
    Mutant("phi-low-1e-6", "entropy.entropy_phi", _plus(-1e-6),
           ("criterion 1", "criterion 3"),
           "the entropy function Phi(eta) 1e-6 below its value"),
    Mutant("besicovitch-threshold-plus-1", "entropy.besicovitch_threshold", _plus(1),
           ("criterion 4",),
           "the digit-count threshold one above ceil(N(1 + eta)/2)"),
    Mutant("block-rounds-halved", "blocks.n_of_j", _half_rounds,
           ("criterion 5", README_COUNTEREXAMPLE),
           "half the block rounds per stage, so the special intervals cover less"),
    Mutant("block-depth-one-short", "blocks.m_of_delta", _plus(-1),
           ("criterion 5", README_COUNTEREXAMPLE, VERIFY_ALL,
            "counterexample --alpha 0.4 --stages 2 --points 200 --seed 1"),
           "blocks one level shallower than M(delta), below the sandwich "
           "1/2 <= 2^(M(1 - beta)) delta"),
    Mutant("wavelet-plateau-shifted", "wavelet._solve_levels", _shifted_plateau,
           ("criterion 6", VERIFY_ALL),
           "the plateau level q off by 1/100, so moments 0 and 2 do not vanish"),
    Mutant("smootherstep-coefficient-16", "wavelet.BaseWavelet._stage_sum", _recoded(15, 16),
           ("criterion 6", README_WAVELET),
           "the ramp 10 u^3 - 16 u^4 + 6 u^5 in place of the smootherstep, so the "
           "moments of phi do not vanish and every ramp value is off"),
    Mutant("paired-jump-not-opposite", "martingale.PairedMartingale._level_increments",
           _unpaired_right_jump, ("criterion 3", VERIFY_ALL),
           "each right jump 1 + 2^-30 times the negated left jump"),
    Mutant("value-range-shifted", "martingale.ValueMartingale.level_values_range",
           _shifted_range_read, ("criterion 7", VERIFY_ALL_SEED_1),
           "each range of the divided-difference martingale read one cell off"),
    Mutant("pair-descent-ancestor-off", "martingale.Martingale.pair_primitives",
           _ancestor_off, ("criterion 7", VERIFY_ALL_SEED_1),
           "S(anc) of each pair's hook descent 1 + 2^-30 times its value, so a "
           "one-interval difference on any kind but the block martingale is off"),
    Mutant("whitney-misaligned", "dyadic.whitney", _misaligned_tiling,
           (VERIFY_ALL,),
           "the Whitney pieces start at 0, not at x, and end at h, not x + h"),
    Mutant("theta-panel-dropped", "divdiff._simpson", _dropped_panel,
           ("criterion 8",),
           "one quadrature panel per octave left out of theta"),
]

# (mutant, check) pairs known to survive, each with its reason
SURVIVORS = {
    ("block-depth-one-short", check):
        "at alpha = 1/2, M - 1 meets the lower end of the sandwich with equality, "
        "2^((M - 1)/2) delta_j = 1/2, so every block bound still holds"
    for check in ("criterion 5", README_COUNTEREXAMPLE, VERIFY_ALL)
}


# (mutant, check) pairs whose failure text must name what failed and where
FAIL_TEXT = {
    ("mass-ratio-plus-0.05", "criterion 3"): "first failure binary: level_sums_exact is False",
    ("mass-ratio-plus-1e-6", "criterion 3"): "first failure binary: level_sums_exact is False",
    ("phi-low-1e-6", "criterion 3"): "first failure binary: margin -1.60e-05 on [4095/2^16",
    ("extremal-bound-plus-1/256", "criterion 2"):
        "extremal product 27/256 and bound 7/64, not both 27/256",
    ("extremal-bound-plus-1/256", VERIFY_ALL): "[FAIL] product bound equality",
    ("besicovitch-threshold-plus-1", "criterion 4"):
        "first failure eta=1/4: count@20=60460, brute force 137980",
    ("paired-jump-not-opposite", "criterion 3"):
        "first failure binary: increments_paired is False",
    ("value-range-shifted", "criterion 7"): "criterion 7 failed: grid identity NOT exact",
    ("value-range-shifted", VERIFY_ALL_SEED_1): "[FAIL] function/martingale round trip",
    ("pair-descent-ancestor-off", "criterion 7"): "criterion 7 failed: grid identity NOT exact",
    ("pair-descent-ancestor-off", VERIFY_ALL_SEED_1): "[FAIL] function/martingale round trip",
    ("smootherstep-coefficient-16", README_WAVELET):
        "exit 5: certification failed: zero crossing did not converge",
}


def apply(mutant: Mutant) -> None:
    """Replace the target in its module or class, and in every dyadosc
    module that holds the same function under a name of its own."""
    module_name, *path, attr = mutant.target.split(".")
    owner = importlib.import_module(f"dyadosc.{module_name}")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    broken = mutant.mutate(original)
    setattr(owner, attr, broken)
    for name, module in list(sys.modules.items()):
        if name == "dyadosc" or name.startswith("dyadosc."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, broken)


def run_check(check: str) -> tuple[int, str]:
    """(PASSED or CAUGHT, what the check reported) for one check."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            if check.startswith("criterion "):
                import test_acceptance

                name = next(n for n in vars(test_acceptance)
                            if n.startswith(f"test_criterion_{check.split()[1]}_"))
                getattr(test_acceptance, name)()
                code = 0
            else:
                from dyadosc import cli

                with tempfile.TemporaryDirectory() as tmp, \
                        contextlib.redirect_stderr(out):
                    code = cli.main(check.split() + ["--out", tmp])
    except Exception as exc:    # a failed assertion, or a crash the mutant caused
        return CAUGHT, f"{type(exc).__name__}: {exc}".splitlines()[0]
    lines = out.getvalue().splitlines()
    shown = next((ln for ln in lines if "FAIL" in ln), lines[-1] if lines else "")
    return (PASSED, shown) if code == 0 else (CAUGHT, f"exit {code}: {shown}")


def child(mutant_name: str, check: str) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    if mutant_name != "-":
        apply(next(m for m in MUTANTS if m.name == mutant_name))
    code, detail = run_check(check)
    print(detail[:160])
    return code


def spawn(mutant_name: str, check: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, __file__, "--child", mutant_name, check],
                          capture_output=True, text=True, cwd=ROOT)
    detail = (proc.stdout.strip().splitlines() or [proc.stderr.strip()[-160:]])[-1]
    return proc.returncode, detail


def main() -> int:
    t0 = time.perf_counter()
    bad = 0
    checks = sorted({c for m in MUTANTS for c in m.checks})
    for check in checks:
        code, detail = spawn("-", check)
        if code != PASSED:
            print(f"UNMUTATED FAIL  {check}: {detail}")
            bad += 1
    print(f"{len(checks)} checks run unmutated, {bad} failing")
    for m in MUTANTS:
        print(f"{m.name} ({m.target}): {m.claim}")
        for check in m.checks:
            code, detail = spawn(m.name, check)
            known = (m.name, check) in SURVIVORS
            text = FAIL_TEXT.get((m.name, check), "")
            if code == CAUGHT and text not in detail:
                verdict = f"CAUGHT, BUT WITHOUT {text!r}"
            elif code == CAUGHT:
                verdict = "CAUGHT, BUT LISTED AS A SURVIVOR" if known else "caught"
            elif code == PASSED:
                verdict = "survives (known)" if known else "SURVIVES"
            else:
                verdict = f"CHILD ERROR {code}"
            bad += verdict not in ("caught", "survives (known)")
            print(f"  {check}: {verdict}: {detail}")
    for (name, check), reason in SURVIVORS.items():
        print(f"known survivor {name} / {check}: {reason}")
    print(f"{sum(len(m.checks) for m in MUTANTS)} pairs of {len(MUTANTS)} mutants, "
          f"{bad} unexpected, {time.perf_counter() - t0:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(*sys.argv[2:4]))
    sys.exit(main())
