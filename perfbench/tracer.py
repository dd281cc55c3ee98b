"""Per-layer tracing of dyadosc from outside the program.

`install(tracer)` replaces the public callables of each dyadosc module
with wrappers that record a span per call.  Spans are aggregated in
memory by (boundary, parent boundary) as they close, because the hot
boundaries are entered millions of times.  Each boundary reports

* ``calls``  -- completed calls;
* ``busy_s`` -- inclusive wall time, counted at the outermost active
  call only, so recursion is not counted twice;
* ``self_s`` -- wall time minus the time of nested traced calls.

Private oracles (``BlockMartingale._inc``, user lambdas, numpy,
``fractions``) are not wrapped; their time is charged to the public
caller.  The dyadic constructors are counted but not timed: timing them
would cost more than the construction itself.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict


class Boundary:
    __slots__ = ("name", "calls", "busy_s", "self_s", "active")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self):
        self.boundaries: dict[str, Boundary] = {}
        self.counters: dict[str, float] = defaultdict(int)
        # (name, parent name) -> [calls, inclusive seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []   # [boundary, seconds spent in children]

    def boundary(self, name: str) -> Boundary:
        b = self.boundaries.get(name)
        if b is None:
            b = self.boundaries[name] = Boundary(name)
        return b

    def active(self, name: str) -> bool:
        b = self.boundaries.get(name)
        return b is not None and b.active > 0

    def timed(self, name: str, fn, extra=None):
        """Wrap `fn` as boundary `name`; `extra(args, kwargs, out, outermost)`
        adds counters after a successful call."""
        b = self.boundary(name)
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0].name if stack else "root"
            frame = [b, 0.0]
            stack.append(frame)
            b.active += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                b.active -= 1
                b.calls += 1
                own = dt - frame[1]
                b.self_s += own
                if b.active == 0:
                    b.busy_s += dt
                if stack:
                    stack[-1][1] += dt
                edge = edges.get((name, parent))
                if edge is None:
                    edge = edges[(name, parent)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += own
            if extra is not None:
                extra(args, kwargs, out, b.active == 0)
            return out

        return wrapper

    def counted(self, name: str, fn):
        """Wrap `fn` to count calls only, without timing."""
        b = self.boundary(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def span_table(self) -> list[dict]:
        return [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.edges.items())]


def _replace_function(orig, wrapped):
    """Rebind a module-level function in every dyadosc module that holds it
    (the package re-exports names imported with ``from .x import y``)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dyadosc" or mod_name.startswith("dyadosc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


MODULES = ("dyadic", "martingale", "blocks", "holder", "divdiff", "entropy",
           "wavelet", "cli")

COUNT_METRICS = (
    "martingale.level_sweep.cells", "martingale.level_sweep.bytes_computed",
    "martingale.check_cancellation.intervals", "martingale.sbp.intervals",
    "blocks.value.cells", "blocks.level_values_range.cells",
    "blocks.witness_survey.points", "blocks.witness_survey.hits",
    "blocks.registry_hits.candidates",
    "holder.difference.pairs", "holder.seminorm.pairs",
    "holder.weierstrass.batch.points", "holder.weierstrass.batch.terms",
    "holder.weierstrass.antiderivative.points",
    "holder.weierstrass.antiderivative.terms",
    "divdiff.batch_calls",
    "entropy.sweep.cells", "entropy.besicovitch.cells", "entropy.mass_log2.cells",
    "wavelet.case_i", "wavelet.case_ii", "wavelet.case_iii",
    "cli.write.bytes",
)

TIMED = (
    "dyadic.locate",
    "martingale.increment", "martingale.value", "martingale.level_sweep",
    "martingale.check_cancellation", "martingale.sbp",
    "blocks.value", "blocks.level_values_range", "blocks.witness_survey",
    "blocks.registry_hits", "blocks.build_schedule",
    "holder.difference", "holder.seminorm", "holder.weierstrass.batch",
    "holder.weierstrass.antiderivative", "holder.weierstrass.terms_for",
    "divdiff.theta", "divdiff.gap", "divdiff.tracking",
    "entropy.sweep", "entropy.besicovitch", "entropy.mass_log2",
    "wavelet.witness_scales", "wavelet.difference_float",
    "wavelet.stage_value_exact", "wavelet.schedule",
    "cli.main", "cli.write",
)

COUNTED = ("dyadic.rational_new", "dyadic.interval_new")


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every dyadosc module.  Call after
    ``import dyadosc`` and before any workload object is built."""
    import dyadosc  # noqa: F401  (loads every submodule)
    from dyadosc import blocks, cli, divdiff, dyadic, entropy, holder, martingale, wavelet

    c = tracer.counters

    def add(key, amount):
        c[key] += amount

    def patch_fn(mod, attr, name, extra=None):
        orig = getattr(mod, attr)
        _replace_function(orig, tracer.timed(name, orig, extra))

    def patch_method(cls, attr, name, extra=None):
        setattr(cls, attr, tracer.timed(name, cls.__dict__[attr], extra))

    # dyadic: constructions counted, point location timed
    for cls, name in ((dyadic.DyadicRational, "dyadic.rational_new"),
                      (dyadic.DyadicInterval, "dyadic.interval_new")):
        cls.__post_init__ = tracer.counted(name, cls.__post_init__)
    patch_fn(dyadic, "locate", "dyadic.locate")

    # martingale
    for cls in (martingale.Martingale, martingale.GrowthMartingale):
        patch_method(cls, "increment", "martingale.increment")
    for cls in (martingale.Martingale, martingale.ValueMartingale,
                martingale.BinaryDigitMartingale, martingale.GrowthMartingale):
        patch_method(cls, "value", "martingale.value")

    def sweep_extra(args, kwargs, out, outermost):
        add("martingale.level_sweep.cells", out.size)
        add("martingale.level_sweep.bytes_computed", out.nbytes)

    for cls in (martingale.Martingale, martingale.BinaryDigitMartingale,
                martingale.RandomSignMartingale, blocks.BlockMartingale):
        for attr in ("level_values", "level_increments"):
            if attr in cls.__dict__:
                patch_method(cls, attr, "martingale.level_sweep", sweep_extra)
    patch_fn(martingale, "check_cancellation", "martingale.check_cancellation",
             lambda a, k, out, o: add("martingale.check_cancellation.intervals",
                                      out.checked))
    patch_fn(martingale, "summation_by_parts_check", "martingale.sbp",
             lambda a, k, out, o: add("martingale.sbp.intervals",
                                      (1 << (_arg(a, k, 1, "depth") + 1)) - 2))

    # blocks
    patch_method(blocks.BlockMartingale, "value", "blocks.value",
                 lambda a, k, out, o: add("blocks.value.cells", 1))
    patch_method(blocks.BlockMartingale, "level_values_range",
                 "blocks.level_values_range",
                 lambda a, k, out, o: add("blocks.level_values_range.cells", out.size))

    def survey_extra(args, kwargs, out, outermost):
        hits, points = out
        add("blocks.witness_survey.hits", hits)
        add("blocks.witness_survey.points", points)

    patch_fn(blocks, "witness_survey", "blocks.witness_survey", survey_extra)
    patch_method(blocks.SpecialIntervalRegistry, "hits", "blocks.registry_hits",
                 lambda a, k, out, o: add("blocks.registry_hits.candidates", len(out)))
    patch_fn(blocks, "build_schedule", "blocks.build_schedule")

    # holder
    def difference_extra(args, kwargs, out, outermost):
        if outermost:
            add("holder.difference.pairs", 1)
            if tracer.active("blocks.witness_survey"):
                add("blocks.witness_survey.differences", 1)

    patch_method(holder.MartingaleInducedFunction, "difference", "holder.difference",
                 difference_extra)
    patch_fn(holder, "holder_seminorm_estimate", "holder.seminorm",
             lambda a, k, out, o: add("holder.seminorm.pairs",
                                      _arg(a, k, 1, "sampler").pairs))
    W = holder.WeierstrassFunction
    terms_for = W.terms_for

    def batch_extra(args, kwargs, out, outermost):
        self = args[0]
        tol = _arg(args, kwargs, 2, "tol", None)
        n = terms_for(self, tol if tol is not None else 1e-12)
        add("holder.weierstrass.batch.points", out.size)
        add("holder.weierstrass.batch.terms", out.size * n)
        if tracer.active("divdiff.gap"):
            add("divdiff.batch_calls", 1)

    def antiderivative_extra(args, kwargs, out, outermost):
        add("holder.weierstrass.antiderivative.points", out.size)
        add("holder.weierstrass.antiderivative.terms",
            out.size * _antiderivative_terms(args[0], _arg(args, kwargs, 2, "tol", 1e-13)))

    patch_method(W, "batch", "holder.weierstrass.batch", batch_extra)
    patch_method(W, "antiderivative_batch", "holder.weierstrass.antiderivative",
                 antiderivative_extra)
    patch_method(W, "terms_for", "holder.weierstrass.terms_for")

    # divdiff
    patch_fn(divdiff, "theta", "divdiff.theta")

    def gap_extra(args, kwargs, out, outermost):
        add("divdiff.tracking.lookups", out.points * len(out.levels))

    patch_fn(divdiff, "theta_martingale_gap", "divdiff.gap", gap_extra)

    def tracking_extra(args, kwargs, out, outermost):
        if tracer.active("divdiff.gap"):
            add("divdiff.tracking.under_gap", 1)

    patch_fn(divdiff, "tracking_martingale_value", "divdiff.tracking", tracking_extra)

    # entropy
    patch_fn(entropy, "sweep_mass_distribution", "entropy.sweep",
             lambda a, k, out, o: add("entropy.sweep.cells", (1 << (out.depth + 1)) - 2))
    threshold = entropy.besicovitch_threshold

    def besicovitch_extra(args, kwargs, out, outermost):
        N = _arg(args, kwargs, 0, "N")
        add("entropy.besicovitch.cells", max(0, N - threshold(N, _arg(args, kwargs, 1, "eta")) + 1))

    patch_fn(entropy, "besicovitch_count", "entropy.besicovitch", besicovitch_extra)
    patch_method(entropy.MassMeasure, "mass_log2", "entropy.mass_log2",
                 lambda a, k, out, o: add("entropy.mass_log2.cells", _arg(a, k, 1, "I").level))

    # wavelet
    patch_fn(wavelet, "witness_scales", "wavelet.witness_scales",
             lambda a, k, out, o: add(f"wavelet.case_{out.case}", 1))
    patch_method(wavelet.WaveletOscillator, "difference_float", "wavelet.difference_float")
    patch_method(wavelet.WaveletOscillator, "stage_value_exact", "wavelet.stage_value_exact")
    patch_fn(wavelet, "wavelet_schedule", "wavelet.schedule")

    # cli
    patch_fn(cli, "main", "cli.main")

    def write_extra(args, kwargs, out, outermost):
        if outermost:
            add("cli.write.bytes", out.stat().st_size)

    for attr in ("write_csv", "write_json", "finish"):
        patch_method(cli.RunWriter, attr, "cli.write", write_extra)


def _arg(args, kwargs, pos, name, default=...):
    """Argument `name` of a call, given at position `pos` or by keyword."""
    if name in kwargs:
        return kwargs[name]
    if len(args) > pos:
        return args[pos]
    if default is ...:
        raise TypeError(f"missing argument {name}")
    return default


def _antiderivative_terms(W, tol: float) -> int:
    """Series length used by WeierstrassFunction.antiderivative_batch
    (the same stopping rule, recomputed outside the program)."""
    geo = 1.0 - math.pow(W.b, -(1.0 + W.alpha))
    n = 0
    while math.pow(W.b, -(n + 1) * (1.0 + W.alpha)) / geo > tol:
        n += 1
    return n + 1


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(("bytes", "bytes_computed")):
        return "B"
    return "count"


def metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric, zero for boundaries the workload never
    entered (without `trace.overhead_s`, which needs an untraced run)."""
    out: dict[str, float] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = tracer.boundary(name).calls
    module_self = dict.fromkeys(MODULES, 0.0)
    for name in TIMED:
        b = tracer.boundary(name)
        out[f"{name}.calls"] = b.calls
        out[f"{name}.busy_s"] = b.busy_s
        out[f"{name}.self_s"] = b.self_s
        module_self[name.split(".", 1)[0]] += b.self_s
    c = tracer.counters
    for key in COUNT_METRICS:
        out[key] = c.get(key, 0)
    diffs = c.get("blocks.witness_survey.differences", 0)
    out["blocks.witness_survey.useful_ratio"] = (
        c.get("blocks.witness_survey.hits", 0) / diffs if diffs else 0.0)
    lookups = c.get("divdiff.tracking.lookups", 0)
    out["divdiff.tracking.cache_hit_ratio"] = (
        1.0 - c.get("divdiff.tracking.under_gap", 0) / lookups if lookups else 0.0)
    for mod, s in module_self.items():
        out[f"{mod}.self_s"] = s
    return out
