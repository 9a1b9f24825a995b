"""Host-speed probe: a fixed pure-Python kernel timed between reps.

The benchmark runs on shared virtual CPUs whose speed moves by up to
1.6x within tens of seconds, so two runs of the same code can read far
apart.  A probe times a fixed kernel that touches nothing of the
program: an interpreter loop (object allocation, attribute access, dict
updates, bytes slicing) and breadth-first next-hop tables on a grid
(dict growth and churn), the kinds of work the workloads do most.  One
block of probes runs before the first rep and one after each rep.  A
rep's *slowdown* is the median probe time of the blocks on either side
of it divided by :data:`REFERENCE_S`.  The harness divides the rep's
timings by it, which gives host time on a host where the probe takes
exactly :data:`REFERENCE_S`, and keeps the raw timings beside them.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

#: Iterations of the interpreter loop per probe.
ITERATIONS = 20_000
#: Side of the square grid whose next-hop tables a probe builds, and
#: the number of sources it builds them for.
GRID_SIDE = 32
SOURCES = 16
#: Probes per block.
PER_BLOCK = 3
#: The probe time that defines the reference host, a round figure near
#: the median on a 2-vCPU Xeon VM.
REFERENCE_S = 0.030

_BLOB = bytes(range(256)) * 2


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt: "_Node | None") -> None:
        self.key = key
        self.value = value
        self.next = nxt


def _interpreter_work(iterations: int) -> int:
    table: dict[int, int] = {}
    head = None
    acc = 0
    for i in range(iterations):
        key = (i * 2654435761) & 1023
        head = _Node(key, i, head if i & 63 else None)
        table[key] = table.get(key, 0) + head.value
        chunk = _BLOB[key & 255:(key & 255) + 16]
        acc = (acc + len(chunk) + chunk[3]) & 0xFFFF
    return acc + len(table)


def _graph_work(side: int, sources: int) -> int:
    """Breadth-first next-hop tables on a grid: dict growth and churn."""
    n = side * side
    adjacent = [
        [v for v in (u - 1 if u % side else -1, u + 1 if (u + 1) % side else -1,
                     u - side, u + side) if 0 <= v < n]
        for u in range(n)
    ]
    total = 0
    for source in range(0, n, n // sources):
        hop = {source: source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adjacent[u]:
                if v not in hop:
                    hop[v] = v if u == source else hop[u]
                    queue.append(v)
        total += len(hop)
    return total


def kernel() -> int:
    """The probe's fixed work; returns a checksum so none of it is dead."""
    return _interpreter_work(ITERATIONS) + _graph_work(GRID_SIDE, SOURCES)


def block() -> list[float]:
    """Time :data:`PER_BLOCK` probes back to back."""
    times = []
    for _ in range(PER_BLOCK):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def slowdown(before: list[float], after: list[float]) -> float:
    """Host slowdown over the interval between two probe blocks."""
    return statistics.median(before + after) / REFERENCE_S
