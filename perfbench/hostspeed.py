"""The host's speed, measured beside each operation.

The benchmark shares a 2-core host whose speed drifts: a fixed
pure-Python loop took 0.12 s in one second and 0.21 s in the next, and
spells of up to twice the time last from seconds to minutes, so that
runs of the same code differ by a third.  Process CPU time drifts with
wall time (within 2%), since the cores stay allotted but run slower:
contention for the shared parts of the processor, not time-slicing.

So right before each operation the benchmark times :func:`reference`, a
fixed loop of dict, string, tuple and sort operations that calls nothing
of the system measured.  An operation's time is scaled by how much slower
than :data:`REFERENCE_SECONDS` the loop ran around it: the median of its
own reference and those of its :data:`NEIGHBOURS` neighbours on each
side, since one reference lasts only 0.15 ms.  A change to the system
moves the operation and not the loop; a slower host moves both.  Work
that runs in the benchmark's own process, a batch operation or a
set-up, is also sampled while it runs by a :class:`Sampler`, so that a
long operation is scaled by the host's speed during it.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Sequence

#: The reference's time on an idle host of the kind the seed numbers come
#: from: scaled times are milliseconds at that host's speed.
REFERENCE_SECONDS = 150e-6
#: References on each side of an operation with one of its own that its
#: scale is taken over, and the references that makes.
NEIGHBOURS = 3
WINDOW = 2 * NEIGHBOURS + 1
#: Seconds between the samples of a :class:`Sampler`.
INTERVAL = 0.01


def reference() -> float:
    """Seconds one run of the fixed reference loop takes now."""
    started = time.perf_counter()
    counts: dict = {}
    pairs = []
    for number in range(300):
        key = f"k{number % 37}"
        counts[key] = counts.get(key, 0) + number
        pairs.append((key, number * 3 % 11))
    pairs.sort()
    return time.perf_counter() - started


class Sampler:
    """Times :func:`reference` every :data:`INTERVAL` seconds on a thread
    of its own while the ``with`` block runs: the host's speed over work
    that is not one operation, such as a set-up.  A sample holds the
    interpreter lock for one reference, a small share of the interval."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL):
            self.samples.append(reference())

    def slowdown(self) -> float:
        """How many times slower than the reference host the host ran."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / REFERENCE_SECONDS


def scaled(seconds: Sequence[float], references: Sequence[Sequence[float]]) -> List[float]:
    """``seconds`` of operations in the order they ran, each scaled to the
    reference host's speed by the median of at least :data:`WINDOW`
    references: its own (timed before and during it), then those of its
    neighbours, nearest first.  An operation with one reference of its
    own takes :data:`NEIGHBOURS` neighbours on each side; a long one,
    sampled while it ran, needs none."""
    result = []
    for index, value in enumerate(seconds):
        around = list(references[index])
        for distance in range(1, len(references)):
            if len(around) >= WINDOW:
                break
            for neighbour in (index - distance, index + distance):
                if 0 <= neighbour < len(references):
                    around += references[neighbour]
        result.append(value * REFERENCE_SECONDS / statistics.median(around))
    return result
