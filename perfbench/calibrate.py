"""Machine-speed reference for the timed loop.

On a virtual machine whose cores other tenants share (2 vCPUs at 2.1 GHz
here), the same operation runs up to 1.7 times slower for stretches of a
minute or so, which moves whole-run medians by 20-30 percent.  To cancel
that, the timed loop runs a fixed reference kernel, independent of
extrec, about every `INTERVAL` seconds between operations.  End-to-end
times are reported scaled by (REFERENCE_S / the run's median kernel
time) ** TRACKING: in seconds on a machine where the kernel takes
REFERENCE_S, about its median on that virtual machine when lightly
loaded.  A change to extrec moves its times and leaves the kernel's
alone, so the scaling keeps every real difference while removing most of
the drift both share.

The kernel's speed swings more than extrec's: over 10-seed runs of the
three workloads whose kernel scale ranged from 0.95 to 1.7, the spread
of the scaled times was least with TRACKING between 0.3 and 0.75,
depending on the workload and the hour, and at 1 (full scaling, which
reads fast machines slow) it was up to three times as wide as at 0.5.
Set-up is scaled fully by the kernel runs made between its rounds, where
that was steadiest.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.004
INTERVAL = 0.05
TRACKING = 0.5


@dataclass(frozen=True)
class _Node:
    tag: int
    kids: tuple

    def __post_init__(self):
        object.__setattr__(self, "kids", tuple(sorted(self.kids, key=lambda k: k.tag)))


def _build(depth, seed):
    if depth == 0:
        return _Node(seed % 7, ())
    return _Node(seed % 11, tuple(_build(depth - 1, seed * 31 + i) for i in range(3)))


def _walk(node, acc):
    if isinstance(node, _Node):
        acc[node.tag] = acc.get(node.tag, 0) + 1
        for kid in node.kids:
            _walk(kid, acc)
    return acc


def kernel():
    """A few milliseconds of the work extrec does most: building small
    frozen dataclasses, sorting their fields, and a recursive isinstance
    walk filling a dict."""
    total = 0
    for seed in range(4):
        total += len(_walk(_build(5, seed), {}))
    return total


class Calibrator:
    """Runs the kernel between operations and gives the run's scale."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = 0.0

    def between_ops(self, always=False):
        if always or perf_counter() - self._last >= INTERVAL:
            start = perf_counter()
            kernel()
            self._last = perf_counter()
            self.samples.append(self._last - start)

    def scale(self, tracking=TRACKING) -> float:
        """Factor that turns a time measured in this run into reference
        seconds."""
        return (REFERENCE_S / statistics.median(self.samples)) ** tracking
