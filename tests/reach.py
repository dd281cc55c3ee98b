"""Which functions of the library a run reaches.

    python3 tests/reach.py

Runs under ``sys.setprofile``: the 12 README commands and the 9 CLI runs
of `MORE_COMMANDS`, one ``run()`` of each perfbench workload at seed 0
(checked against its pinned reference), and the 8 acceptance criteria.
A function is reached when one of its calls starts.  Each function of
``src/dyadosc`` (nested ones and lambdas included) that no run reaches is
printed with the reason it stays, from `KEEP`; one that `KEEP` does not
name, and a `KEEP` name that a run reaches or that is gone, make the
script exit 1.  Last it prints the library's code lines: the lines of
``src/dyadosc`` that are not blank, comment or docstring.  pytest does
not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

MORE_COMMANDS = [
    ["mass-measure", "--martingale", "binary", "--eta", "0.5", "--depth", "12"],
    ["mass-measure", "--martingale", "zero", "--eta", "0.5", "--depth", "12"],
    ["mass-measure", "--martingale", "random", "--eta", "0.5", "--depth", "12", "--seed", "1"],
    ["mass-measure", "--eta", "0.5", "--depth", "12", "--format", "json"],
    ["counterexample", "--alpha", "0.5", "--points", "100", "--pairs", "1000", "--seed", "2",
     "--format", "json"],
    ["theta", "--b", "3", "--alpha", "0.5", "--eps", "1e-3"],
    ["martingale-extract", "--alpha", "0.5", "--depth", "10"],
    ["weierstrass", "--alpha", "0.5"],
    ["dim-estimate", "--counts", "20:21700,100:1000000000000000000000000"],
]

FALLBACK = "fallback: the only path of "
KEEP = {name: reason for reason, names in {
    "tracer boundary: perfbench/tracer.py patches it by name": [
        "martingale.Martingale.value", "martingale.GrowthMartingale.increment",
        "martingale.GrowthMartingale.value", "entropy.MassMeasure.mass_log2",
        "holder.WeierstrassFunction.terms_for", "divdiff.tracking_martingale_value"],
    "the scalar ratio that the traced MassMeasure.mass_log2 reads": [
        "entropy.MassMeasure.ratio"],
    "the ancestor chain of the base scalar `value` sum and of the traced "
    "MassMeasure.mass_log2": ["dyadic.DyadicInterval.ancestor"],
    FALLBACK + "a scalar `difference` on a non-block kind": [
        "martingale.Martingale.pair_primitive"],
    FALLBACK + "`locate` and `contains` on a DyadicRational point": [
        "dyadic.DyadicRational.floor_scaled"],
    FALLBACK + "`increment` on the scaled, growth and from-function martingales, the "
    "hook read for one parent": ["martingale.Martingale._inc"],
    "failure path: the base hook, which names the kind that defines none": [
        "martingale.Martingale._level_increments"],
    "the hook of the divided-difference martingale: no CLI command or criterion sweeps "
    "one, they read its ranges": ["martingale.ValueMartingale._level_increments"],
    FALLBACK + "a HolderFunction subclass that does not override the method": [
        "holder.HolderFunction._eval", "holder.HolderFunction.batch",
        "holder.HolderFunction.difference", "holder.HolderFunction.antiderivative_batch"],
    FALLBACK + "f(x), and of f(b) - f(a) in a dyadic seminorm estimate, on an induced "
    "function": [
        "holder.MartingaleInducedFunction._eval", "holder.MartingaleInducedFunction.eval_dyadic"],
    "public API of the wavelet oscillator around its one stage-sum kernel, which the "
    "witness search reads directly: f(x) (`_eval`, `value_float`), f(b) - f(a) "
    "(`difference`, `difference_float`, the pair read of a seminorm estimate) and one exact "
    "stage value; perfbench/tracer.py patches `difference_float` and `stage_value_exact` "
    "by name": [
        "wavelet.WaveletOscillator._eval", "wavelet.WaveletOscillator.value_float",
        "wavelet.WaveletOscillator.difference", "wavelet.WaveletOscillator.difference_float",
        "wavelet.WaveletOscillator.stage_value_exact"],
    FALLBACK + "the gap and tracking value of a constant or linear function": [
        "holder.ConstantFunction.antiderivative_batch",
        "holder.LinearFunction.antiderivative_batch"],
    "failure path: the text of an error message": [
        "dyadic.DyadicInterval.__repr__", "dyadic.DyadicRational.__repr__", "wavelet._at",
        "wavelet._bisect_zero.<locals>.where"],
    "public API: the exact Fraction of the dyadic number type": [
        "dyadic.DyadicRational.as_fraction"],
    "public API: the two halves of an interval, under the depth cap": [
        "dyadic.DyadicInterval.children"],
    "public API: a function of the user's own callable": [
        "holder.CallableFunction.__init__", "holder.CallableFunction._eval"],
    "public API: the scalar read of a decimated martingale": [
        "martingale.SubsampledMartingale.value"],
    "public API: the beta norm, the other side of the norm equivalence with "
    "beta_star_norm": ["martingale.beta_norm"],
    "public API: the alpha-divided difference of the paper, named in README": [
        "divdiff.divided_difference"],
}.items() for name in names}


def defined() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> 'module.qualname' of every
    function, method, nested function and lambda in the library."""
    out = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
                visit(path, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(path, child, f"{prefix}{child.name}.")
            else:
                if isinstance(child, ast.Lambda):
                    out.setdefault((str(path), child.lineno), f"{path.stem}.{prefix}<lambda>")
                visit(path, child, prefix)

    for path in sorted((ROOT / "src" / "dyadosc").glob("*.py")):
        visit(path, ast.parse(path.read_text()), "")
    return out


def code_lines() -> int:
    """Lines of the library that hold a token of code: a docstring (the
    first statement of a module, class or function, if a string) counts
    as no code, and a multi-line token counts on each of its lines."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    total = 0
    for path in sorted((ROOT / "src" / "dyadosc").glob("*.py")):
        text = path.read_text()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and node.body:
                first = node.body[0]
                if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                        and isinstance(first.value.value, str):
                    docs.update(range(first.lineno, first.end_lineno + 1))
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in skip:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        total += len(lines - docs)
    return total


def run_everything(tmp: Path) -> None:
    from checks import Checker
    from dyadosc import cli
    from test_cli import _readme_commands
    from workloads import WORKLOADS
    import test_acceptance

    for i, argv in enumerate(_readme_commands() + MORE_COMMANDS):
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv + ["--out", str(tmp / str(i))]) != 0:
                raise SystemExit(f"dyadosc {' '.join(argv)} failed")
    for name, wl in WORKLOADS.items():
        check = Checker(json.loads((ROOT / "perfbench" / "reference" / f"{name}.json")
                                   .read_text()), 0)
        wl.run(wl.setup(), wl.inputs(0), check, str(tmp))
        if check.failed:
            raise SystemExit(f"workload {name}: {check.failures}")
    for name in sorted(vars(test_acceptance)):
        if name.startswith("test_criterion_"):
            with contextlib.redirect_stdout(io.StringIO()):
                getattr(test_acceptance, name)()


def main() -> int:
    import dyadosc  # noqa: F401  (every module loads before the profile starts)

    functions = defined()
    reached: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            run_everything(Path(tmp))
        finally:
            sys.setprofile(None)

    unreached = sorted(name for key, name in functions.items() if key not in reached)
    other = [n for n in unreached if n not in KEEP]
    stale = sorted(set(KEEP) - set(unreached))
    print(f"{len(functions)} functions defined, {len(unreached)} reached by no run")
    for name in unreached:
        print(f"  {name}: {KEEP.get(name, 'NOT ON THE KEEP LIST')}")
    for name in stale:
        print(f"  {name}: on the keep list, but reached or gone")
    print(f"{code_lines()} code lines in src/dyadosc")
    return 1 if other or stale else 0


if __name__ == "__main__":
    sys.exit(main())
