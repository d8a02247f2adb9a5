"""Host-speed calibration: times in reference seconds.

The benchmark runs on a shared host whose speed drifts: for seconds to
minutes at a time all code runs up to twice as slow, with no steal time
reported and no hardware counters to count instructions instead.  A raw
time mixes the program's cost with that drift.  So every timed interval
is bracketed by probes of a fixed calibration kernel (standard-library
``Fraction`` arithmetic, the same kind of work as the program's exact
kernel; it imports nothing from ``fatbundles``, so no change to the
program can move it) and rescaled to the speed at which the kernel takes
``REF_KERNEL_S``:

    reference time = measured time * REF_KERNEL_S / kernel time around it

A change to the program moves reference times as it moves wall times; the
host's drift moves them far less.  Probes run in a single thread: in a
second thread they would time the first one's work too.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Sets the unit: about the kernel's time on an undisturbed 2-vCPU x86-64
# VM, Python 3.11.
REF_KERNEL_S = 1.2e-3
PROBE_KERNELS = 4
# By default, steps are grouped between probes at least this far apart.
PROBE_EVERY_S = 0.05


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i)
    return total


def probe() -> float:
    """Mean kernel time over a few back-to-back runs, in seconds."""
    t0 = time.perf_counter()
    for _ in range(PROBE_KERNELS):
        kernel()
    return (time.perf_counter() - t0) / PROBE_KERNELS


def scale(*probes: float) -> float:
    """Factor from seconds to reference seconds for an interval whose
    speed the probes sampled."""
    return REF_KERNEL_S * len(probes) / sum(probes)


class Gauge:
    """Back-to-back timed steps with probes between them.

    ``mark`` closes the step that began at the previous mark (or at
    construction) and returns its index.  Steps fall into groups between
    probes; a group ends once ``probe_every`` seconds have passed since
    its first probe, so with ``probe_every=0`` each step is a group of
    its own.  Probes are not part of any step.  ``close`` returns the
    raw steps and the same steps in reference seconds, each scaled by the
    probes around its group.
    """

    def __init__(self, probe_every: float = PROBE_EVERY_S):
        self.probe_every = probe_every
        self.t_start = time.monotonic()
        self.probes = [probe()]
        self.groups: list[list[float]] = [[]]
        self.steps = 0
        self.last = self.last_probe = time.perf_counter()

    def mark(self) -> int:
        now = time.perf_counter()
        self.groups[-1].append(now - self.last)
        self.steps += 1
        if now - self.last_probe >= self.probe_every:
            self.probes.append(probe())
            self.groups.append([])
            now = self.last_probe = time.perf_counter()
        self.last = now
        return self.steps - 1

    def close(self) -> tuple[list, list]:
        if self.groups[-1] or len(self.groups) == 1:
            self.probes.append(probe())
        else:
            self.groups.pop()
        raw, ref = [], []
        for i, group in enumerate(self.groups):
            factor = scale(self.probes[i], self.probes[i + 1])
            raw += group
            ref += [d * factor for d in group]
        return raw, ref
