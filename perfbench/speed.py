"""Machine-speed sampling alongside a run's measurement.

A shared 2-core host runs the same code up to 1.7x faster or slower
from one second to the next, and its average speed drifts by 20-30 %
over minutes (other tenants' load).  :class:`SpeedProbe` samples that
speed while the workload runs: a daemon thread wakes every
``every_s`` seconds and times a fixed ~1 ms loop of interpreter work.
The loop holds the interpreter lock, so the workload pauses for it
(about 1 % of the run, the same on every commit).

The end-to-end timings are reported at the reference speed: host
seconds times ``REFERENCE_PROBE_S`` over the run's median probe time.
The unscaled host figures are kept in every result file.
"""

from __future__ import annotations

import heapq
import statistics
import threading
import time

#: Median probe time on the machine the bounds were set on (2-core
#: x86-64 container, Python 3.11).  Only the ratio matters: it keeps
#: reported seconds close to that machine's host seconds.
REFERENCE_PROBE_S = 0.00105


def _probe_work() -> None:
    heap: list = []
    counts: dict[int, int] = {}
    for i in range(800):
        heapq.heappush(heap, (i * 7919 % 1009, i))
        counts[i % 257] = counts.get(i % 257, 0) + i
    while heap:
        heapq.heappop(heap)


class SpeedProbe:
    """Samples machine speed from a background thread while active
    (use as a context manager)."""

    def __init__(self, every_s: float = 0.1) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        while not self._stop.wait(self.every_s):
            started = time.perf_counter()
            _probe_work()
            self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="perfbench-speed-probe")
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            if self._thread.is_alive():
                raise RuntimeError("speed probe thread did not stop")

    @property
    def median_s(self) -> float:
        """Median probe time (the reference time before any sample)."""
        return (statistics.median(self.samples) if self.samples
                else REFERENCE_PROBE_S)

    @property
    def reference_scale(self) -> float:
        """Multiply host seconds by this to get reference seconds."""
        return REFERENCE_PROBE_S / self.median_s
