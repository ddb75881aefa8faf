"""Frozen verdict goldens for the detector banks.

``golden/detector_verdicts.json`` holds every verdict of the per-sample
reference detectors the banks replaced, recorded on the series and
multiplexing shapes below: whole trace, custom-tuned suite,
single-detector suites, tick-interleaved streams, duplicate ids in one
batch, slot reuse after retirement, and ``watch_all``.  Every field is
compared exactly — flags, sample counts, detector names, reason
strings, and first-alarm time, latency and flag rate as ``repr``'d
floats — so a change to any operation's order shows up here.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.defense import (
    CounterTrace,
    CusumDetector,
    EwmaDetector,
    OnlineCounterDefense,
    PeriodicityDetector,
)
from repro.defense.service import DetectorBankService

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "detector_verdicts.json")
    .read_text())

_RNG = np.random.default_rng(20260808)

#: One representative series per behaviour class the detectors carve
#: out: silent, level shift, slow drift, square-wave modulation, the
#: idle-tenant dead-zone shape, quantization noise, and plain noise.
SERIES = {
    "flat": [500.0] * 64,
    "quantized": [1000.0, 1001.0] * 32,
    "level_shift": [100.0] * 16 + [300.0] * 16,
    "idle_then_active": [0.0] * 12 + [50.0] * 8,
    "square_wave": ([10.0] * 8 + [30.0] * 8) * 8,
    "noise": (100.0 + _RNG.normal(0.0, 3.0, 130)).tolist(),
    "drift": (100.0 + np.arange(120) * 0.8
              + _RNG.normal(0.0, 1.0, 120)).tolist(),
    "impulse": [200.0] * 40 + [900.0] + [200.0] * 40,
}

CUSTOM_TUNED = (
    EwmaDetector(alpha=0.5, k=3.0, warmup=4, min_rel_band=0.1),
    CusumDetector(k=0.25, h=3.0, warmup=4),
    PeriodicityDetector(window=16, stride=4, power_of_two_only=True),
)


def _trace(values, tenant="tenant", key="counter", start=1000.0,
           step=1000.0):
    return CounterTrace(
        tenant=tenant, key=key,
        times_ns=tuple(start + step * i for i in range(len(values))),
        values=tuple(float(v) for v in values))


def _float(value):
    return None if value is None else repr(float(value))


def _detection(detection):
    return {"detector": detection.detector, "flagged": detection.flagged,
            "first_flag_ts": _float(detection.first_flag_ts),
            "flags": detection.flags, "samples": detection.samples,
            "flag_rate": _float(detection.flag_rate),
            "reason": detection.reason}


def _verdict(verdict):
    return {"tenant": verdict.tenant, "flagged": verdict.flagged,
            "detector": verdict.detector,
            "detection_latency_ns": _float(verdict.detection_latency_ns),
            "flag_rate": _float(verdict.flag_rate),
            "reason": verdict.reason,
            "detections": {name: _detection(detection)
                           for name, detection
                           in sorted(verdict.detections.items())}}


@pytest.fixture(params=sorted(SERIES), ids=sorted(SERIES))
def family(request):
    return request.param


def test_watch_verdict_byte_identical(family):
    verdict = OnlineCounterDefense().watch(_trace(SERIES[family]))
    assert _verdict(verdict) == GOLDEN["watch"][family]


def test_custom_tuned_detectors_vectorize(family):
    verdict = OnlineCounterDefense(CUSTOM_TUNED).watch(
        _trace(SERIES[family]))
    assert _verdict(verdict) == GOLDEN["custom_tuned"][family]


def test_single_detector_suites_match(family):
    trace = _trace(SERIES[family])
    for detector in (EwmaDetector(), CusumDetector(),
                     PeriodicityDetector()):
        verdict = OnlineCounterDefense((detector,)).watch(trace)
        assert list(verdict.detections) == [detector.name]
        assert (_detection(verdict.detections[detector.name])
                == GOLDEN["single_detector"][family][detector.name])


def test_multiplexed_interleaved_matches_scalar():
    """Many streams of different lengths advanced tick-by-tick through
    ONE service — the production shape."""
    rng = np.random.default_rng(11)
    streams = {}
    for index in range(40):
        length = int(rng.integers(70, 130))
        base = float(rng.uniform(50.0, 150.0))
        shift = float(rng.choice([0.0, 0.0, 40.0, 120.0]))
        values = base + rng.normal(0.0, 2.0, length)
        values[length // 2:] += shift
        streams[f"s{index:02d}"] = values.tolist()

    service = DetectorBankService(capacity=8)  # force growth too
    service.admit_many(sorted(streams))
    longest = max(len(v) for v in streams.values())
    for tick in range(longest):
        active = sorted(s for s, v in streams.items() if tick < len(v))
        service.ingest(
            active, 1000.0 * (tick + 1),
            [streams[s][tick] for s in active])

    assert sorted(GOLDEN["interleaved"]) == sorted(streams)
    for stream_id in sorted(streams):
        assert (_verdict(service.verdict(stream_id))
                == GOLDEN["interleaved"][stream_id]), stream_id
    # and the bulk readout agrees with the per-stream one
    everything = service.verdicts()
    assert sorted(everything) == sorted(streams)
    for stream_id, verdict in everything.items():
        assert verdict == service.verdict(stream_id)


def test_duplicate_ids_in_one_batch_preserve_order():
    """A batch carrying several samples for the same stream must apply
    them in position order (sequential rounds), matching a sample-at-a-
    time feed."""
    values = SERIES["level_shift"]
    service = DetectorBankService()
    service.admit("dup")
    ids = ["dup"] * len(values)
    times = [1000.0 * (i + 1) for i in range(len(values))]
    service.ingest(ids, times, values)
    assert _verdict(service.verdict("dup")) == GOLDEN["duplicate_ids"]


def test_retire_returns_final_verdict_and_reuses_slot():
    service = DetectorBankService(capacity=1)
    service.admit("hot", tenant="t0", key="evictions")
    values = SERIES["level_shift"]
    service.ingest(["hot"] * len(values),
                   [1000.0 * (i + 1) for i in range(len(values))], values)
    final = service.retire("hot")
    assert _verdict(final) == GOLDEN["retire"]["hot"]
    assert "hot" not in service
    with pytest.raises(KeyError):
        service.verdict("hot")
    # the freed slot is reused with fully reset state
    service.admit("cold")
    assert service.capacity == 1
    flat = SERIES["flat"]
    service.ingest(["cold"] * len(flat),
                   [1000.0 * (i + 1) for i in range(len(flat))], flat)
    assert _verdict(service.verdict("cold")) == GOLDEN["retire"]["cold"]


def test_stationary_reason_matches_scalar_watch():
    trace = _trace(SERIES["flat"], tenant="quiet", key="rx_pps")
    verdict = OnlineCounterDefense().watch(trace)
    assert "stationary" in verdict.reason
    assert _verdict(verdict) == GOLDEN["stationary"]


def test_watch_all_matches_scalar_combination():
    traces = [
        _trace(SERIES["level_shift"], key="late", start=50_000.0),
        _trace(SERIES["square_wave"], key="early", start=1_000.0),
        _trace(SERIES["flat"], key="quiet", start=1_000.0),
    ]
    verdict = OnlineCounterDefense().watch_all(traces)
    assert _verdict(verdict) == GOLDEN["watch_all"]


def test_ingest_validation():
    service = DetectorBankService()
    service.admit("a")
    with pytest.raises(ValueError):
        service.ingest(["a"], [1.0, 2.0], [1.0])  # shape mismatch
    service.ingest(["a"], 5.0, [1.0])
    with pytest.raises(ValueError):
        service.ingest(["a"], 5.0, [2.0])  # time must advance
    with pytest.raises(KeyError):
        service.ingest(["ghost"], 6.0, [1.0])  # never admitted
    with pytest.raises(KeyError):
        service.ingest_slots(np.asarray([99]), 6.0, [1.0])  # bad slot
    with pytest.raises(ValueError):
        service.admit("a")  # double admission
    with pytest.raises(ValueError):
        DetectorBankService(())
    with pytest.raises(ValueError):
        DetectorBankService(capacity=0)


def test_unsupported_detector_type_raises():
    """A suite holds detector parameter objects; a class or a factory
    in their place is refused up front."""
    for foreign in (EwmaDetector, lambda: EwmaDetector(), object()):
        with pytest.raises(TypeError):
            DetectorBankService((foreign,))
        with pytest.raises(TypeError):
            OnlineCounterDefense((foreign,))


def test_admit_missing_auto_admits():
    service = DetectorBankService()
    service.ingest(["x", "y"], 1000.0, [1.0, 2.0], admit_missing=True)
    assert "x" in service and "y" in service
    assert service.stream_count == 2
    assert service.ingested == 2
