"""Output checks behind `failed` / `attempted`.

An operation is one checked output: a public call's return value, or
one certificate clause.  It fails if the call raises, if the value
misses its pinned reference, or if the clause is false.

References live in ``reference/<workload>.json``:

* ``fixed``  -- outputs whose inputs do not depend on the seed; checked
  on every seed;
* ``seeded`` -- outputs for inputs generated from ``seed``; checked only
  on that seed.  On any other seed the certificate clauses still check
  every output.

An output whose key the reference lacks fails where the reference
applies (fixed outputs, and seeded ones on the pinned seed), so a stale
reference or a renamed key cannot silently turn a comparison off.

Integers, strings and Fractions compare exactly; floats compare at
`RTOL` relative, with `ATOL` absolute slack for values that are zero up
to rounding.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction

RTOL = 1e-9
ATOL = 1e-13


def encode(value):
    """JSON form of an output: Fractions as "p/q", numpy scalars as Python."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if value is None or isinstance(value, (int, str)):
        return value
    if hasattr(value, "item"):           # numpy scalar
        return encode(value.item())
    return float(value)


def matches(got, ref) -> bool:
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(matches(g, r) for g, r in zip(got, ref)))
    if isinstance(ref, float) and isinstance(got, float):
        return got == ref or math.isclose(got, ref, rel_tol=RTOL, abs_tol=ATOL)
    return type(got) is type(ref) and got == ref


class Checker:
    """`reference` None records outputs without comparing them (pinning).
    `tick` runs after every operation (the host-speed probe hooks in here)."""

    def __init__(self, reference: dict | None, seed: int, tick=lambda: None):
        self.tick = tick
        self.fixed = self.seeded = None
        if reference is not None:
            self.fixed = reference.get("fixed", {})
            if reference.get("seed") == seed:
                self.seeded = reference.get("seeded", {})
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outputs: dict[str, dict] = {"fixed": {}, "seeded": {}}

    def _fail(self, what: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def output(self, key: str, value, seeded: bool = True):
        """A call's return value, compared with its pinned reference."""
        self.attempted += 1
        got = encode(value)
        self.outputs["seeded" if seeded else "fixed"][key] = got
        refs = self.seeded if seeded else self.fixed
        if refs is not None:
            if key not in refs:
                self._fail(f"{key}: no pinned reference")
            elif not matches(got, refs[key]):
                self._fail(f"{key}: got {got!r}, pinned {refs[key]!r}")
        self.tick()

    def clause(self, key: str, ok: bool):
        """One certificate clause."""
        self.attempted += 1
        if not ok:
            self._fail(f"{key}: clause false")
        self.tick()

    @contextlib.contextmanager
    def call(self, key: str):
        """Counts one failed operation if the block raises."""
        try:
            yield
        except Exception as exc:  # a raising library call is a failed output
            self.attempted += 1
            self._fail(f"{key}: raised {type(exc).__name__}: {exc}")
