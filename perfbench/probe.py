"""A fixed pure-Python workload that measures how fast the host is right now.

The benchmark's host shares its cores with other machines' work, and its
speed drifts by tens of percent over minutes.  The parent process times
this probe between units and scales each unit's time metrics by it (see
METHODOLOGY.md).  The probe imports nothing from the simulator, so no
change to the simulator can move it, and it runs in the long-lived parent
with the garbage collector off, so no unit's heap can slow it.

Its shape follows the simulator's hot path: a heapq calendar of
(time, seq) events carrying small slotted objects through dict lookups
and bounded deques.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from time import perf_counter

# Probe seconds on the reference machine (a 2-core Xeon VM, Python 3.11)
# at a quiet moment.  Scaled metrics read as host time on a machine that
# runs the probe this fast.
PROBE_REF_S = 0.052

_EVENTS = 80_000
_NODES = 64


class _Item:
    __slots__ = ("node", "size", "hops")

    def __init__(self, node: int, size: int) -> None:
        self.node = node
        self.size = size
        self.hops = 0


def _once() -> float:
    calendar: list = []
    queues = [deque() for _ in range(_NODES)]
    route = {node: (node * 7 + 3) % _NODES for node in range(_NODES)}
    seq = 0
    for node in range(_NODES):
        heapq.heappush(calendar, (node * 1e-6, seq, _Item(node, 1500)))
        seq += 1
    started = perf_counter()
    for _ in range(_EVENTS):
        now, _, item = heapq.heappop(calendar)
        item.hops += 1
        nxt = route[item.node]
        queue = queues[nxt]
        queue.append(item)
        if len(queue) > 4:
            queue.popleft()
        item.node = nxt
        heapq.heappush(calendar, (now + item.size * 8e-9 + (nxt % 5) * 1e-7, seq, item))
        seq += 1
    return perf_counter() - started


def probe_seconds(repeats: int = 3) -> float:
    """Fastest of ``repeats`` probe runs, in host seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_once() for _ in range(repeats))
    finally:
        if enabled:
            gc.enable()
