"""Host speed, timed with a fixed pure-Python slice next to each op.

The host's speed changes within seconds and from run to run: other
tenants share its cores, and a fixed loop timed in short windows runs
up to twice as fast in one window as in the next.  CPU time tracks
wall time, so process time does not help.  A run-wide speed factor
does not help either, because the changes are faster than a run.

So the benchmark times a short slice of fixed work between every two
ops, and scales each op's time by NOMINAL_SLICE_S over the mean of the
slices right before and right after it.  An op then reads as it would
on a host where the slice takes NOMINAL_SLICE_S.  The slice does the kind of work the library does
(tuple trees merged by weight, a sort, a dict keyed by node), so the
two slow down together.  It uses only the standard library, with the
garbage collector off, so no change to `prefixcodes` can move it.

A run-wide factor from a different slice (a sum of Fractions, timed
every 0.2 s) over-corrected: it moved two to three times as much as the
library's ops did, and spreads grew.
"""

from __future__ import annotations

import gc
import random
import time
from typing import List

NOMINAL_SLICE_S = 0.002

_LEAVES = [sorted(random.Random(k).randrange(100) for _ in range(24))
           for k in range(60)]


def _work() -> int:
    """Merge 60 trees of 24 weighted leaves; return the sum of depths."""
    total = 0
    for weights in _LEAVES:
        nodes = [(w,) for w in weights]
        while len(nodes) > 1:
            nodes.sort(key=len)
            a, b = nodes.pop(), nodes.pop()
            nodes.append((a, b))
        depth = {}
        stack = [(nodes[0], 0)]
        while stack:
            node, d = stack.pop()
            if len(node) == 2:
                stack.append((node[0], d + 1))
                stack.append((node[1], d + 1))
            else:
                depth[id(node)] = d
        total += sum(depth.values())
    return total


def slice_seconds() -> float:
    """Seconds the slice takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that takes the time of work done between a slice of
    `before` seconds and one of `after` seconds to the nominal speed."""
    return 2 * NOMINAL_SLICE_S / (before + after)


class Speed:
    """Times and keeps the slices of one run."""

    def __init__(self):
        self.slices: List[float] = []

    def slice(self) -> float:
        """Seconds the slice takes now."""
        self.slices.append(slice_seconds())
        return self.slices[-1]
