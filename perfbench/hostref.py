"""The host reference kernel: a fixed pure-Python workload timed through
every run to record (and correct for) how fast the host is right now.

On a shared host the same Python loop can take 60% longer from one second
to the next (frequency changes, sibling load), while two runs of it a few
milliseconds apart agree within a few percent. Every benchmark round is
therefore bracketed by kernel samples, and its times are scaled by
``REF_NOMINAL_MS / (the faster of the two samples)`` — "milliseconds on a host
that runs the kernel in REF_NOMINAL_MS". The raw samples are reported as
``env.host_ref_ms`` next to every result.

The kernel is part of the benchmark, never of the program under test, so
no change to the program can move it.
"""

from __future__ import annotations

import gc
import time

#: the kernel time the scaled figures are expressed against
REF_NOMINAL_MS = 2.0


def reference_kernel() -> int:
    """Fixed work shaped like the engine's inner loops: tuple building,
    dict inserts and lookups over a table larger than the L1 cache, and
    integer arithmetic."""
    table: dict[int, tuple[int, int, int]] = {}
    acc = 0
    for i in range(5000):
        key = (i * 7919) & 4095
        row = (key, i, acc)
        table[key] = row
        prev = table.get(key ^ 1)
        acc = (acc * 31 + row[0] + (prev[1] if prev else 0)) % 1_000_003
    return acc


class HostClock:
    """Kernel samples interleaved through a run."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self.last_ms = self.sample()

    def sample(self) -> float:
        """Time one kernel run; returns (and records) milliseconds. The
        collector is held off meanwhile: a collection is the program's
        cost, not a sign of a slow host."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            reference_kernel()
            elapsed = (time.perf_counter() - started) * 1e3
        finally:
            if enabled:
                gc.enable()
        self.samples_ms.append(elapsed)
        return elapsed

    def bracket(self) -> float:
        """Close the interval opened by the previous sample; returns the
        scale factor for work timed inside it (and opens the next one).

        The faster of the two bracketing samples sets the scale: intervals
        are tens of milliseconds, too short for the host's speed to move
        much, while a single sample can still catch a scheduling stall."""
        before = self.last_ms
        self.last_ms = self.sample()
        return REF_NOMINAL_MS / min(before, self.last_ms)
