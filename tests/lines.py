"""Which lines of the library no test runs.

    python3 tests/lines.py

Runs the pytest suite in this process under ``sys.settrace`` and
``threading.settrace``, so lines run on the row-pool threads count too
(a forked or spawned child process does not).  A line is executable when
the compiled module's bytecode maps an instruction to it, and run when it
gets a ``line`` event.  Each executable line of ``src/dyadosc`` that no
test runs is printed with the reason it stays, from `KEEP`, keyed by the
function that holds the line and its stripped source text.  The script
exits 1 when the suite fails, on a line that `KEEP` does not name, and
on a `KEEP` entry that names no such line; it reports its run time,
about 2.5 times that of the untraced suite.  The companion of
``tests/reach.py``, which asks the same of whole functions on the README
commands, the benchmark workloads and the acceptance criteria.  pytest
does not collect this file.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dyadosc"

# (module.qualname, stripped source line) -> why no test runs it
KEEP = {key: reason for reason, keys in {
    "float-boundary nudge: M = floor(x) + 1 meets the sandwich exactly, and no known "
    "input rounds it past the 1e-12 tolerance": [
        ("blocks.m_of_delta", "for cand in (M - 1, M + 1):"),
        ("blocks.m_of_delta", "if cand >= 1 and sandwich(cand):"),
        ("blocks.m_of_delta", "return cand"),
        ("blocks.m_of_delta", 'raise DomainError(f"no block depth satisfies the sandwich '
         'at delta={delta}, beta={beta}")')],
    "float-boundary nudge: no stage j < 60 and block depth M < 1030 rounds the count "
    "below its bound, or to zero": [
        ("blocks.n_of_j", 'raise DomainError(f"round count degenerated at stage {j}")'),
        ("blocks.n_of_j", "n += 1")],
    "float-boundary nudge: the ceiling of the float log2 met the bound at each of "
    "139,000 random betas with three stages": [
        ("blocks.build_schedule", "k += 1")],
    "moment-solve failure: the plateau knots are fixed, and their system solves to "
    "q, p in (-1, 1) with vanishing moments": [
        ("wavelet._solve_levels", 'raise DomainError("degenerate moment system")'),
        ("wavelet._solve_levels", 'raise DomainError("free plateau levels escaped (-1, 1)")'),
        ("wavelet._solve_levels", 'raise DomainError("moment solve failed")')],
}.items() for key in keys}


def executable() -> dict[str, dict[int, str]]:
    """file -> {line: module.qualname of the innermost code object that
    maps an instruction to the line}, for every library module."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        owner: dict[int, str] = {}

        def visit(code, name):
            for _, _, line in code.co_lines():
                if line:        # None, or 0 for a module's first instruction
                    owner[line] = name
            for const in code.co_consts:
                if hasattr(const, "co_lines"):
                    visit(const, f"{path.stem}.{const.co_qualname}")

        visit(compile(path.read_text(), str(path), "exec"), f"{path.stem}.<module>")
        out[str(path)] = owner
    return out


def run_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the library lines it ran, per file."""
    import pytest

    hits: dict[str, set[int]] = defaultdict(set)
    local_tracers = {}

    def local_for(filename):
        lines = hits[filename]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    prefix = str(SRC)

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        if filename not in local_tracers:
            local_tracers[filename] = local_for(filename)
        return local_tracers[filename]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    t0 = time.perf_counter()
    code, hits = run_suite(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    seconds = time.perf_counter() - t0
    unrun = []
    lines = executable()
    for filename, owner in lines.items():
        text = Path(filename).read_text().splitlines()
        for line in sorted(set(owner) - hits[filename]):
            unrun.append((Path(filename).name, line, owner[line], text[line - 1].strip()))
    named = {(name, src) for _, _, name, src in unrun}
    other = [u for u in unrun if (u[2], u[3]) not in KEEP]
    stale = sorted(set(KEEP) - named)
    total = sum(len(owner) for owner in lines.values())
    print(f"{total} executable library lines, {len(unrun)} run by no test")
    for file, line, name, src in unrun:
        print(f"  {file}:{line} {name}: {src}\n"
              f"      {KEEP.get((name, src), 'NOT ON THE KEEP LIST')}")
    for name, src in stale:
        print(f"  {name}: {src}: on the keep list, but run or gone")
    print(f"pytest exit {code}, {seconds:.1f} s under the tracer")
    return 1 if code or other or stale else 0


if __name__ == "__main__":
    sys.exit(main())
