"""Defense-service throughput: can the DetectorBank watch a cloud?

The production question behind :mod:`repro.defense.service` is scale —
a multi-tenant RNIC monitor watches one counter stream per
(tenant, counter) pair, which at cloud density means 100K+ concurrent
streams ticking on one polling grid.  This bench drives a
:class:`~repro.defense.service.DetectorBankService` at that density
and reports:

* ``samples_per_s`` / ``stream_ticks_per_s`` — batched ingest rate on
  the slot-handle hot path (one ``ingest_slots`` call per poll tick);
* ``verdict_p50_us`` / ``verdict_p99_us`` — per-stream readout latency
  over a sampled cohort (an operator pulling one tenant's verdict out
  of a live bank);
* ``bytes_per_stream`` — resident detector state per stream.

The golden verdict suite (``tests/defense/test_service_parity.py``)
pins what the banks decide; this file prices it.

Run standalone for the machine-readable report used by
``tools/bench_gate.py``::

    PYTHONPATH=src python -m benchmarks.bench_defense_throughput

``REPRO_QUICK=1`` shrinks the fleet for CI smoke runs.
"""

import json
import statistics
import time

import numpy as np

from repro.defense.service import DetectorBankService

from benchmarks.conftest import quick_mode

#: Full-fleet scale: the ISSUE's production target.
FLEET_STREAMS = 100_000
QUICK_STREAMS = 20_000
#: Poll ticks per stream for the throughput phase.  Kept below the
#: periodicity window (64) so the fleet phase prices the pure
#: vectorized EWMA/CUSUM path; the ACF phase below prices the windowed
#: periodicity scan separately at a density where its per-due-stream
#: Python scoring is affordable.
FLEET_TICKS = 24
#: Streams/ticks for the periodicity (ACF-exercising) phase.
ACF_STREAMS = 1_500
ACF_TICKS = 64
#: Verdict-latency sample size.
VERDICT_SAMPLE = 512


def _fleet_values(streams: int, ticks: int, seed: int = 7) -> np.ndarray:
    """(ticks, streams) of plausible counter samples: mostly stationary
    tenants, a few percent shifting level mid-run (alarm churn is part
    of the price — alarming streams take the reason-string slow path).
    """
    rng = np.random.default_rng(seed)
    base = rng.uniform(50.0, 150.0, streams)
    values = base + rng.normal(0.0, 2.0, (ticks, streams))
    shifty = rng.random(streams) < 0.03
    values[ticks // 2:, shifty] += 80.0
    return values


def measure_service(streams: int, ticks: int) -> dict:
    """Admit ``streams`` streams, tick them ``ticks`` times, read out a
    sampled cohort of verdicts.  Returns the gate-facing report dict.
    """
    service = DetectorBankService(capacity=streams)
    ids = [f"t{i:06d}/rx_bytes" for i in range(streams)]
    started = time.perf_counter()
    slots = service.admit_many(ids)
    admit_s = time.perf_counter() - started

    values = _fleet_values(streams, ticks)
    started = time.perf_counter()
    for tick in range(ticks):
        service.ingest_slots(slots, 1000.0 * (tick + 1), values[tick])
    ingest_s = time.perf_counter() - started

    # the service's own verdict-latency SLO tracker times each readout
    # (the clock is injected — the service never reads wall time)
    tracker = service.enable_verdict_latency(time.perf_counter)
    sample = ids[:: max(1, streams // VERDICT_SAMPLE)][:VERDICT_SAMPLE]
    for stream_id in sample:
        service.verdict(stream_id)
    assert tracker.count == len(sample)

    # the bench recomputes the percentiles from the tracker's raw
    # samples with its own (identical) formulas and cross-checks the
    # tracker summary — the SLO tracker must agree with an external
    # measurement to the last rounded digit
    latencies = sorted(tracker.samples)
    verdict_p50_us = round(statistics.median(latencies) * 1e6, 2)
    verdict_p99_us = round(
        latencies[int(len(latencies) * 0.99)] * 1e6, 2)
    summary = tracker.summary()
    assert summary["p50_us"] == verdict_p50_us, \
        f"tracker p50 {summary['p50_us']} != bench {verdict_p50_us}"
    assert summary["p99_us"] == verdict_p99_us, \
        f"tracker p99 {summary['p99_us']} != bench {verdict_p99_us}"

    detection_slo = service.detection_latency_slo(budget_ns=20_000.0)
    total = streams * ticks
    return {
        "streams": streams,
        "ticks": ticks,
        "samples": total,
        "admit_s": round(admit_s, 4),
        "ingest_s": round(ingest_s, 4),
        "samples_per_s": round(total / ingest_s, 1),
        "verdict_p50_us": verdict_p50_us,
        "verdict_p99_us": verdict_p99_us,
        "detection_slo": detection_slo,
        "bytes_per_stream": round(
            service.state_bytes() / service.capacity, 1),
        "flagged": len(service.flagged_streams()),
    }


def measure_acf_phase(streams: int, ticks: int) -> dict:
    """Price the periodicity bank's due-stream scan: every stream gets
    a square-wave series long enough to fill the ACF window, so each
    due round scores every stream."""
    service = DetectorBankService(capacity=streams)
    slots = service.admit_many([f"p{i:05d}" for i in range(streams)])
    wave = np.tile(np.repeat([10.0, 30.0], 8), (ticks + 15) // 16)[:ticks]
    jitter = np.random.default_rng(3).normal(0.0, 0.05, (ticks, streams))
    started = time.perf_counter()
    for tick in range(ticks):
        service.ingest_slots(slots, 1000.0 * (tick + 1),
                             wave[tick] + jitter[tick])
    seconds = time.perf_counter() - started
    return {
        "streams": streams,
        "ticks": ticks,
        "samples_per_s": round(streams * ticks / seconds, 1),
        "flagged": len(service.flagged_streams()),
    }


def measure(streams=None) -> dict:
    """The full gate-facing report (fleet + ACF)."""
    if streams is None:
        streams = QUICK_STREAMS if quick_mode() else FLEET_STREAMS
    return {
        "fleet": measure_service(streams, FLEET_TICKS),
        "periodicity": measure_acf_phase(
            ACF_STREAMS if not quick_mode() else ACF_STREAMS // 4,
            ACF_TICKS),
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_service_sustains_fleet_scale():
    """The acceptance bar: 100K concurrent streams (20K in quick mode)
    ingesting and reading out without falling over, with every tick a
    single batched update."""
    streams = QUICK_STREAMS if quick_mode() else FLEET_STREAMS
    report = measure_service(streams, FLEET_TICKS)
    print()
    print(json.dumps(report, indent=2))
    assert report["streams"] == streams
    assert report["samples"] == streams * FLEET_TICKS
    # a vectorized bank should clear 1M samples/s with margin even on a
    # loaded CI box; the real floor lives in the bench_gate baseline
    assert report["samples_per_s"] > 1e6
    assert report["flagged"] > 0  # the shifty cohort was caught


def test_periodicity_phase_flags_square_waves():
    report = measure_acf_phase(64, ACF_TICKS)
    assert report["flagged"] == 64


def main() -> int:
    report = measure()
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
