"""A host-speed probe, so timings from a drifting host stay comparable.

The benchmark's host shares its cores with other machines.  Its CPU
throughput drifts by 20-40% over minutes, in CPU seconds as much as in
wall seconds, and every timing moves with it.  So each run times two
fixed probes between its transfers, outside their timing: one busy in
the interpreter and in cache-resident numpy work, one copying 8 MiB
arrays through fresh memory.  The workloads lean on the two differently
(the memory fan-out on memory, the file replay on the interpreter), so
the run's *slowdown* is the geometric mean of both probes' median times
over their reference times.  The gated timing metrics are scaled by it,
and the raw figures are printed beside them.

The probes are the benchmark's own code; no change to the program moves
them.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

import numpy as np

__all__ = ["HostSpeed"]

#: reference probe seconds (two 2.1 GHz vCPUs at a quiet moment).
COMPUTE_REFERENCE_S = 0.007
MEMORY_REFERENCE_S = 0.0028

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _compute_probe() -> float:
    """Interpreter loop, dict inserts and numpy word arithmetic."""
    start = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc ^= (i * 2654435761) & 0xFFFFFFFF
    table = {i: str(i) for i in range(5000)}
    words = np.arange(1 << 16, dtype=np.uint64)
    for _ in range(30):
        words = (words ^ (words >> np.uint64(3))) * _MIX
    rows = np.ones((1024, 1024), dtype=np.uint8)
    for _ in range(5):
        rows = rows[::-1].copy()
    del table, words, rows
    return time.perf_counter() - start


def _memory_probe() -> float:
    """Four reversed copies of an 8 MiB array into fresh memory."""
    rows = np.ones((8, 1 << 20), dtype=np.uint8)
    start = time.perf_counter()
    for _ in range(4):
        rows = rows[::-1].copy()
    return time.perf_counter() - start


class HostSpeed:
    """Probe samples of one run and the scale they give."""

    def __init__(self) -> None:
        self.compute: List[float] = []
        self.memory: List[float] = []

    def probe(self) -> None:
        """One sample of each probe, best of a few (drops interrupts)."""
        self.compute.append(min(_compute_probe() for _ in range(3)))
        self.memory.append(min(_memory_probe() for _ in range(2)))

    @property
    def slowdown(self) -> float:
        """Geometric mean of the probes' median / reference; > 1 is slower."""
        compute = statistics.median(self.compute) / COMPUTE_REFERENCE_S
        memory = statistics.median(self.memory) / MEMORY_REFERENCE_S
        return math.sqrt(compute * memory)

    def seconds(self, raw: float) -> float:
        """A duration scaled to the reference host."""
        return raw / self.slowdown

    def rate(self, raw: float) -> float:
        """A per-second rate scaled to the reference host."""
        return raw * self.slowdown
