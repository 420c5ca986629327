"""Operation times at a fixed reference speed of the machine.

On a shared machine other tenants slow whole stretches of a run, often
by half, and the slowdown lasts longer than a run, so neither the
fastest nor the median repetition of an operation removes it.  What
does is timing a fixed kernel next to the operation: Python that does
the same kind of work as the program (dict, set, tuple and frozenset
building and hashing) and that no change to the program can touch.  An
operation's time is reported at the reference speed,
``net_ms * REFERENCE_MS / kernel_ms``: what it would take on a machine
where the kernel takes ``REFERENCE_MS``.

The kernel runs once before and once after the operation and, for an
operation longer than ``INTERVAL_S``, every ``INTERVAL_S`` during it
from a SIGALRM handler on the calling thread; the time the handler
spends is taken out of the operation's time.  A long operation is then
scaled by the machine's speed while it ran, not by two glimpses at its
ends.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# about the kernel's time on an unloaded two-core x86-64 virtual
# machine with Python 3.11.  A fixed constant, so that the figures of
# different runs and commits are on one scale.
REFERENCE_MS = 2.0
REPEATS = 3
INTERVAL_S = 0.1

_ITEMS = [((i * 7919) % 1009, (i * 104729) % 61) for i in range(3000)]


def kernel() -> int:
    index: dict[int, set] = {}
    for a, b in _ITEMS:
        index.setdefault(a % 97, set()).add((a, b))
    merged: frozenset = frozenset()
    for key in sorted(index):
        merged |= frozenset(x for x, _ in index[key] if x & 1)
    pairs = {(a, b): a ^ b for a, b in _ITEMS}
    counts: dict[tuple, int] = {}
    for i in range(3000):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
    return len(merged) + len(pairs) + len(counts)


def sample_ms() -> float:
    """Median of ``REPEATS`` timings of the kernel, with the collector
    off so that the program's heap cannot change the kernel's work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter_ns()
            kernel()
            times.append((time.perf_counter_ns() - t0) / 1e6)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Timing:
    """One timed stretch of work: ``with Timing(sample_inside) as t:``, then
    ``t.seconds`` (wall time less the kernel runs inside it) and
    ``t.scaled`` (``t.seconds`` at the reference speed)."""

    def __init__(self, sample_inside: bool = True):
        self.sample_inside = sample_inside
        self.samples: list[float] = []
        self.stolen_ns = 0
        self.seconds = 0.0
        self.scaled = 0.0

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter_ns()
        self.samples.append(sample_ms())
        self.stolen_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        self.samples.append(sample_ms())
        # every tick falls between _t0 and t1, so all of it is taken out
        self._t0 = time.perf_counter_ns()
        if self.sample_inside:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        t1 = time.perf_counter_ns()
        self.seconds = (t1 - self._t0 - self.stolen_ns) / 1e9
        self.samples.append(sample_ms())
        self.scaled = self.seconds * REFERENCE_MS / statistics.fmean(self.samples)
        return False
