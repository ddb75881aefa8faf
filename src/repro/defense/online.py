"""Online counter-stream defense: what a telemetry-watching defender
actually sees.

The deployed defenses in Table I judge *aggregate* tenant profiles.
Real counter-based monitoring (Pythia-era eviction telemetry, sRDMA's
accounting, an ``ethtool -S`` polling loop) is stronger than that: it
watches the counter *time series* and can catch modulation — the
covert signalling itself — even when every aggregate looks benign.
This module packages the detector banks of
:mod:`repro.defense.service` as that defender, one trace at a time:

* a persistent channel (Pythia) must flip durable counters every
  symbol, so its eviction/miss series is a square wave the
  change-point detectors light up on;
* the Grain-I priority channel modulates per-TC byte counters, so a
  bytes-rate series shows the toggling (the paper's "partly
  detectable" row);
* Ragnar's volatile ULI channels modulate *which* address the sender
  reads, never *how much* — every counter series stays stationary and
  all three detectors stay silent.

Table I (`repro.experiments.table1`) feeds each attack's
defender-visible series through :class:`OnlineCounterDefense` and
reports the verdicts as detection-latency / flag-rate columns — the
paper's "counters don't see volatile channels" claim as a measured
artifact.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from repro.defense.service import (
    Detector,
    DetectorBankService,
    OnlineVerdict,
    detector_suite,
)


@dataclasses.dataclass(frozen=True)
class CounterTrace:
    """One defender-visible counter series for one tenant window."""

    tenant: str
    #: Which counter the samples came from (e.g. ``"evictions_per_s"``).
    key: str
    times_ns: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times_ns) != len(self.values):
            raise ValueError(
                f"series length mismatch: {len(self.times_ns)} times vs "
                f"{len(self.values)} values")
        if len(self.times_ns) < 2:
            raise ValueError("a counter trace needs at least two samples")
        if any(b <= a for a, b in zip(self.times_ns, self.times_ns[1:])):
            raise ValueError("sample times must be strictly increasing")


class OnlineCounterDefense:
    """Streams a tenant's counter series through a detector suite.

    ``repro.defense``-compatible: construct once, call :meth:`watch`
    per tenant window; each call runs a fresh one-stream
    :class:`~repro.defense.service.DetectorBankService`, so tenants
    never share state.
    """

    name = "counter-online"

    def __init__(self, detectors: Optional[Sequence[Detector]] = None
                 ) -> None:
        self.detectors = detector_suite(detectors)

    def watch(self, trace: CounterTrace) -> OnlineVerdict:
        """Run every detector over the series; earliest alarm wins."""
        service = DetectorBankService(self.detectors, capacity=1)
        slot = service.admit("trace", tenant=trace.tenant, key=trace.key)
        slots = np.full(len(trace.values), slot, dtype=np.int64)
        service.ingest_slots(slots,
                             np.asarray(trace.times_ns, dtype=np.float64),
                             np.asarray(trace.values, dtype=np.float64))
        return service.verdict("trace")

    def watch_all(self, traces: Sequence[CounterTrace]) -> OnlineVerdict:
        """Watch several series for one tenant (e.g. eviction rate AND
        byte rate); the earliest alarm across series wins.

        "Earliest" is judged in *absolute* sim time: each verdict's
        ``detection_latency_ns`` is relative to its own trace's window
        start, so comparing latencies directly would prefer a late
        alarm on a late-starting series over an earlier alarm on an
        earlier one whenever the windows don't align.  Ties on the
        absolute alarm time break deterministically on
        ``(detector name, counter key)`` so a reordering of the input
        traces can never change the verdict.
        """
        if not traces:
            raise ValueError("need at least one trace")
        verdicts = [self.watch(trace) for trace in traces]
        flagged = [(trace, verdict)
                   for trace, verdict in zip(traces, verdicts)
                   if verdict.flagged]
        if not flagged:
            return verdicts[0]

        def first_alarm(pair: tuple[CounterTrace, OnlineVerdict]):
            trace, verdict = pair
            assert verdict.detection_latency_ns is not None
            return (trace.times_ns[0] + verdict.detection_latency_ns,
                    verdict.detector, trace.key)

        return min(flagged, key=first_alarm)[1]


def sample_counts(times_ns: Sequence[float], window_start: float,
                  window_end: float, intervals: int
                  ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Bucket raw event timestamps into a per-interval count series —
    the CounterSampler view of a completion stream.

    Returns (interval end times, counts per interval); events outside
    the window are dropped.
    """
    if intervals < 2:
        raise ValueError(f"need at least 2 intervals, got {intervals}")
    if window_end <= window_start:
        raise ValueError("window must have positive span")
    width = (window_end - window_start) / intervals
    counts = [0.0] * intervals
    for ts in times_ns:
        if not window_start <= ts < window_end:
            continue
        counts[min(int((ts - window_start) / width), intervals - 1)] += 1.0
    edges = tuple(window_start + width * (i + 1) for i in range(intervals))
    return edges, tuple(counts)
