"""Host-speed reference: a fixed pure-Python kernel timed between flows.

On a shared host the speed of one core drifts by tens of percent over
minutes, from cache and memory contention with other tenants.  On a
2-vCPU VM the same C880 flow took 0.51-0.81 s in different 30 s windows.
The benchmark times :meth:`HostSpeed.kernel` before, between and after
the flows of each pass, and scales the pass's wall time to a host on
which the kernel takes :data:`REFERENCE_KERNEL_S` (:func:`normalize`)::

    normalized = wall * (REFERENCE_KERNEL_S / median(kernel)) ** ELASTICITY

The flows feel the host's slow spells less than the kernel does: on that
VM, where the kernel's time swung between about 12 and 25 ms, the
least-squares slope of log pass time on log kernel time was 0.62, 0.71
and 0.81 in three recordings (synth_timing, suite_area and synth_cuts
passes).  :data:`ELASTICITY` is that slope, so that a pass timed in a
slow spell and one timed in a fast spell normalize to the same time.
Over twelve sets of 5-10 runs of the three workloads, the IQR/median of
normalized flow time averaged 0.079 with it and 0.086 with a slope of
1 (raw: 0.18); each was the lower on six sets.  The kernel walks a small
preallocated object graph (attribute loads, dict lookups, float
arithmetic) and allocates no container.  It never triggers the garbage
collector, so its cost does not depend on what the program keeps alive.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

__all__ = ["REFERENCE_KERNEL_S", "ELASTICITY", "HostSpeed", "normalize"]

#: Kernel seconds on the reference host (about its time on a 2-vCPU Xeon
#: VM at 2.0 GHz).  Only ratios between runs matter; this fixes the scale.
REFERENCE_KERNEL_S = 0.025
#: How strongly the flows' time follows the kernel's (see above).
ELASTICITY = 0.7


def normalize(seconds: float, kernel_samples: Sequence[float]) -> float:
    """``seconds`` as they would read on the reference host."""
    ratio = REFERENCE_KERNEL_S / statistics.median(kernel_samples)
    return seconds * ratio ** ELASTICITY


class _Node:
    __slots__ = ("key", "weight", "links")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.links: List["_Node"] = []


class HostSpeed:
    """A fixed object-graph walk whose run time tracks the host's speed."""

    def __init__(self, nodes: int = 2048, links: int = 3,
                 walks: int = 30) -> None:
        self._walks = walks
        self._nodes = [_Node(i, 1.0 + (i % 97) / 97.0) for i in range(nodes)]
        for i, node in enumerate(self._nodes):
            for j in range(1, links + 1):
                node.links.append(self._nodes[(i * 7919 + j * 104729)
                                              % nodes])
        self._table = {node.key: node for node in self._nodes}

    def kernel(self) -> float:
        """Walk the graph ``walks`` times; returns a checksum."""
        table = self._table
        total = 0.0
        for _ in range(self._walks):
            for node in self._nodes:
                for other in node.links:
                    total += other.weight * 1.0001 + table[other.key].weight
        return total

    def kernel_s(self) -> float:
        """Seconds one :meth:`kernel` call takes now."""
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start
