"""Host-speed probe: wall time rescaled to a reference host speed.

On a virtual machine whose cores are shared with other tenants, a fixed
pure-Python kernel can run 1.5x slower while they are busy (measured on
a 2-vCPU Xeon guest, with no steal time reported); that drift lasts from
seconds to minutes, so repeating a pass does not average it out.  Each
pass therefore times a fixed kernel right after set-up, between checked
operations at most every `INTERVAL_S`, and at the end.  Each stretch of
wall time between two probes, probe time excluded, is multiplied by
``REF_S / mean(the two probe times)``: the seconds the stretch would
have taken at the reference speed.  Set-up, which ends before the first
probe, is multiplied by ``REF_S`` over the mean of the probes that
follow it.

`REF_S` is the kernel's time on a quiet host (the fastest of 300
probes on that guest), so on a quiet host the rescaled time is the
wall time.  On a busy host it is exact only for
code that slows as much as the kernel does; the kernel is half
interpreter work and half numpy, and numpy code slows less than the
interpreter, so the rescaled time of a change that moves work between
the two is biased by up to the difference in slow-down.  The raw wall
times are kept beside the rescaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_S = 0.027
INTERVAL_S = 0.3


def _kernel() -> None:
    """Interpreter-bound work like the library's (dicts, ints, Fractions),
    then a vectorised cosine series like WeierstrassFunction.batch."""
    import numpy as np       # here, so that set-up still pays numpy's import
    table: dict[int, int] = {}
    acc = 0
    for i in range(25_000):
        table[i & 1023] = (i * 2654435761) >> 5
        acc += table.get((i * 7) & 1023, 0) & 0xFFFF
    x = Fraction(0)
    for i in range(1, 1200):
        x = (x + Fraction(i, 1 << (i % 61 + 1))) % 7
    xs = np.linspace(0.02, 0.98, 64)
    k = np.arange(40)
    freqs, amps = np.power(2.0, k), np.power(2.0, -0.5 * k)
    for i in range(165):
        np.cos(np.outer(xs + i * 1e-3, freqs)) @ amps


class HostSpeed:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (end time, probe seconds)

    def sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def tick(self) -> None:
        """Probe if `INTERVAL_S` has passed since the last probe."""
        if time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def scale(self, first: int, last: int) -> float:
        """REF_S over the mean time of samples `first` to `last`."""
        durations = [d for _, d in self.samples[first:last + 1]]
        return REF_S * len(durations) / sum(durations)

    def wall(self, first: int, last: int) -> float:
        """Wall seconds from sample `first` to sample `last`, probes excluded."""
        pairs = zip(self.samples[first:last], self.samples[first + 1:last + 1])
        return sum((end_b - dur_b) - end_a for (end_a, _), (end_b, dur_b) in pairs)

    def scaled(self, first: int, last: int) -> float:
        """The same stretch at the reference speed."""
        pairs = zip(self.samples[first:last], self.samples[first + 1:last + 1])
        return sum(((end_b - dur_b) - end_a) * 2.0 * REF_S / (dur_a + dur_b)
                   for (end_a, dur_a), (end_b, dur_b) in pairs)
