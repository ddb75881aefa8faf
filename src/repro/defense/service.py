"""The counter-stream detectors: EWMA band, two-sided CUSUM and
windowed periodicity, run as columnar banks over 100K+ streams.

These detectors model what a deployed counter-based defense
(Pythia-era eviction telemetry, ``ethtool -S`` polling loops) can see,
which is the point of Table I's online columns: a *persistent* channel
modulates durable counters and lights them up; Ragnar's volatile
channels leave every counter series stationary and sail through.

Each family is a frozen parameter object (:class:`EwmaDetector`,
:class:`CusumDetector`, :class:`PeriodicityDetector`) that builds its
bank.  A bank stores the family's state *columnar*: one ``(streams,)``
NumPy array per statistic, so one :meth:`DetectorBankService.ingest`
call advances every stream in a batch with a handful of vectorized
sweeps.  A multi-tenant RDMA cloud multiplexes counter telemetry from
hundreds of hosts and thousands of tenants; a defense that cannot keep
up with that firehose is one the operator turns off.
:class:`~repro.defense.online.OnlineCounterDefense` runs the same
banks one trace at a time.

Verdicts — flags, sample counts, first-alarm timestamps and reason
strings — are pinned by frozen goldens
(``tests/defense/test_service_parity.py``).

The service is deliberately clock-free and I/O-free on the hot path
(timestamps come from the caller, per RAG001); the ingestion adapters
at the bottom bridge the :mod:`repro.obs` exporter artifacts — counter
records from a ``*.trace.jsonl`` timeline, or successive metrics
snapshots — onto the batch API.

Throughput, verdict-readout latency, and bytes/stream are measured by
``benchmarks/bench_defense_throughput.py`` and gated in
``tools/bench_gate.py`` (docs/DEFENSE.md).
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import statistics
from typing import (Callable, Iterable, Mapping, Optional, Sequence,
                    Union)

import numpy as np

from repro.analysis.periodicity import autocorrelation
from repro.sim.units import MICROSECONDS, SECONDS

_F = np.float64
_I = np.int64

#: Exact microseconds-per-second factor (1e6) for latency display
#: rounding, derived from the named ns-ladder constants.
_US_PER_S = SECONDS / MICROSECONDS


@dataclasses.dataclass(frozen=True)
class Detection:
    """One detector's verdict over a watched series."""

    detector: str
    flagged: bool
    #: Timestamp of the first alarming sample (None when never flagged).
    first_flag_ts: Optional[float]
    #: Number of alarming samples.
    flags: int
    #: Total samples observed.
    samples: int
    reason: str = ""

    @property
    def flag_rate(self) -> float:
        """Fraction of observed samples in alarm state."""
        return self.flags / self.samples if self.samples else 0.0


@dataclasses.dataclass(frozen=True)
class OnlineVerdict:
    """The combined outcome of watching one counter stream."""

    tenant: str
    flagged: bool
    #: Name of the first detector to alarm ("" when none did).
    detector: str
    #: Sim-time from window start to the first alarm (None if never).
    detection_latency_ns: Optional[float]
    #: Highest per-detector alarm rate over the window.
    flag_rate: float
    reason: str = ""
    #: Every detector's full verdict, keyed by detector name.
    detections: dict[str, Detection] = dataclasses.field(
        default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.flagged


def _grown(array: np.ndarray, capacity: int, fill: float = 0.0) -> np.ndarray:
    """Return ``array`` copied into a larger first dimension."""
    shape = (capacity,) + array.shape[1:]
    out = np.full(shape, fill, dtype=array.dtype)
    out[: array.shape[0]] = array
    return out


class _VectorBank:
    """Columnar state for one detector family across every stream.

    Subclasses implement the family's per-sample update as masked
    array sweeps; the shared bookkeeping here keeps sample/flag
    counts, the first-alarm timestamp, and the first-alarm reason.
    """

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.samples = np.zeros(capacity, dtype=_I)
        self.flags = np.zeros(capacity, dtype=_I)
        self.first_flag_ts = np.full(capacity, np.nan, dtype=_F)
        self.reasons: list[str] = [""] * capacity

    # -- lifecycle -----------------------------------------------------
    def grow(self, capacity: int) -> None:
        self.samples = _grown(self.samples, capacity)
        self.flags = _grown(self.flags, capacity)
        self.first_flag_ts = _grown(self.first_flag_ts, capacity, np.nan)
        self.reasons.extend([""] * (capacity - len(self.reasons)))

    def reset(self, slots: np.ndarray) -> None:
        self.samples[slots] = 0
        self.flags[slots] = 0
        self.first_flag_ts[slots] = np.nan
        for slot in np.atleast_1d(slots):
            self.reasons[int(slot)] = ""

    def state_bytes(self) -> int:
        return (self.samples.nbytes + self.flags.nbytes
                + self.first_flag_ts.nbytes)

    # -- the batch hot path --------------------------------------------
    def observe_batch(self, slots: np.ndarray, ts: np.ndarray,
                      values: np.ndarray) -> None:
        raise NotImplementedError

    def _record_alarms(self, slots: np.ndarray, ts: np.ndarray,
                       alarm_positions: np.ndarray,
                       make_reason: Callable[[int], str]) -> None:
        """Flag bookkeeping for the alarming batch positions.

        ``slots`` within one batch round are unique, so the fancy-index
        increment cannot lose counts.  Reasons and first-alarm stamps
        are only materialized for streams alarming for the first time,
        which keeps the Python loop off the sustained-alarm hot path.
        """
        aslots = slots[alarm_positions]
        self.flags[aslots] += 1
        fresh = np.isnan(self.first_flag_ts[aslots])
        if not fresh.any():
            return
        fresh_positions = alarm_positions[fresh]
        self.first_flag_ts[slots[fresh_positions]] = ts[fresh_positions]
        for position in fresh_positions:
            self.reasons[int(slots[position])] = make_reason(int(position))

    # -- readout -------------------------------------------------------
    def detection(self, slot: int) -> Detection:
        flags = int(self.flags[slot])
        first = float(self.first_flag_ts[slot])
        return Detection(
            detector=self.name,
            flagged=flags > 0,
            first_flag_ts=None if math.isnan(first) else first,
            flags=flags,
            samples=int(self.samples[slot]),
            reason=self.reasons[slot],
        )


@dataclasses.dataclass(frozen=True)
class EwmaDetector:
    """EWMA band monitor: alarm when a sample leaves the smoothed
    ``mean ± k·std`` band.  Catches bursts and level shifts quickly,
    forgets slowly.

    The first ``warmup`` samples initialize the mean/variance without
    alarming (a defender always has history on a tenant before judging
    it).  ``min_rel_band`` floors the band at a fraction of the running
    mean so quantization noise on a near-constant series cannot alarm —
    a counter ticking 1000, 1001, 1000 is stationary, not an attack.

    ``min_abs_band`` floors the band *absolutely*: an idle tenant whose
    warm-up is all zeros has zero variance AND zero mean, so both the
    EW band and the relative floor collapse to 0.0 — and a band of
    exactly zero used to be treated as "degenerate, never alarm", which
    silently suppressed the alarm on the very first level shift while
    that shifted sample dragged the baseline toward the attack level (a
    dead zone exactly where a defender most wants sensitivity).  With
    the absolute epsilon floor the band stays positive, so the first
    nonzero sample off an idle baseline alarms and (being alarmed) is
    kept out of the baseline.
    """

    name = "ewma"

    alpha: float = 0.25
    k: float = 5.0
    warmup: int = 8
    min_rel_band: float = 0.25
    min_abs_band: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.k <= 0 or self.warmup < 2:
            raise ValueError("need positive k and warmup >= 2")
        if self.min_abs_band <= 0.0:
            raise ValueError(
                f"min_abs_band must be positive (it exists to keep a "
                f"degenerate zero baseline alarmable), got "
                f"{self.min_abs_band}")

    def bank(self, capacity: int) -> EwmaBank:
        return EwmaBank(self, capacity)


class EwmaBank(_VectorBank):
    """Columnar :class:`EwmaDetector` state: shielded EWMA band."""

    def __init__(self, params: EwmaDetector, capacity: int) -> None:
        super().__init__(params.name, capacity)
        self.alpha = params.alpha
        self.k = params.k
        self.warmup = params.warmup
        self.min_rel_band = params.min_rel_band
        self.min_abs_band = params.min_abs_band
        self.mean = np.zeros(capacity, dtype=_F)
        self.var = np.zeros(capacity, dtype=_F)

    def grow(self, capacity: int) -> None:
        super().grow(capacity)
        self.mean = _grown(self.mean, capacity)
        self.var = _grown(self.var, capacity)

    def reset(self, slots: np.ndarray) -> None:
        super().reset(slots)
        self.mean[slots] = 0.0
        self.var[slots] = 0.0

    def state_bytes(self) -> int:
        return super().state_bytes() + self.mean.nbytes + self.var.nbytes

    def observe_batch(self, slots: np.ndarray, ts: np.ndarray,
                      values: np.ndarray) -> None:
        n = self.samples[slots] + 1
        self.samples[slots] = n
        mean = self.mean[slots]
        var = self.var[slots]

        warm = n <= self.warmup
        if warm.any():
            delta = values[warm] - mean[warm]
            warmed = mean[warm] + delta / n[warm]
            var[warm] = var[warm] + delta * (values[warm] - warmed)
            mean[warm] = warmed

        active = ~warm
        if active.any():
            value_a = values[active]
            mean_a = mean[active]
            var_a = var[active]
            # first post-warmup sample normalizes the warm-up variance
            normalize = n[active] == self.warmup + 1
            if normalize.any():
                var_a[normalize] = var_a[normalize] / max(self.warmup - 1, 1)
            band = self.k * np.sqrt(var_a)
            band = np.maximum(band, self.min_rel_band * np.abs(mean_a))
            band = np.maximum(band, self.min_abs_band)
            residual = value_a - mean_a
            alarmed = np.abs(residual) > band
            # alarming samples do not pollute the baseline (shielded)
            quiet = ~alarmed
            mean_a[quiet] = mean_a[quiet] + self.alpha * residual[quiet]
            var_a[quiet] = ((1.0 - self.alpha) *
                            (var_a[quiet]
                             + self.alpha * residual[quiet] * residual[quiet]))
            mean[active] = mean_a
            var[active] = var_a
            if alarmed.any():
                positions = np.nonzero(active)[0][alarmed]
                band_at = np.zeros(len(slots), dtype=_F)
                band_at[positions] = band[alarmed]
                mean_at = np.zeros(len(slots), dtype=_F)
                mean_at[positions] = mean_a[alarmed]

                def reason(position: int) -> str:
                    return (f"sample {float(values[position]):.6g} outside "
                            f"{float(mean_at[position]):.6g} ± "
                            f"{float(band_at[position]):.6g}")

                self._record_alarms(slots, ts, positions, reason)

        self.mean[slots] = mean
        self.var[slots] = var


@dataclasses.dataclass(frozen=True)
class CusumDetector:
    """Two-sided tabular CUSUM on residuals standardized against a
    frozen warm-up baseline — the classic change-point detector,
    sensitive to small persistent shifts.

    After ``warmup`` samples fix ``(mean, std)``, each sample updates
    ``S+ = max(0, S+ + z - k)`` and ``S- = max(0, S- - z - k)``; either
    statistic exceeding ``h`` alarms and restarts both at zero.  ``k``
    is the slack and ``h`` the decision interval, both in standard
    deviations.  ``min_rel_std`` floors the standardization scale at a
    fraction of the baseline mean (same quantization-noise guard as the
    EWMA band).
    """

    name = "cusum"

    k: float = 0.5
    h: float = 6.0
    warmup: int = 8
    min_rel_std: float = 0.05

    def __post_init__(self) -> None:
        if self.k < 0 or self.h <= 0 or self.warmup < 2:
            raise ValueError("need k >= 0, h > 0, warmup >= 2")

    def bank(self, capacity: int) -> CusumBank:
        return CusumBank(self, capacity)


class CusumBank(_VectorBank):
    """Columnar :class:`CusumDetector` state: two-sided tabular CUSUM."""

    def __init__(self, params: CusumDetector, capacity: int) -> None:
        super().__init__(params.name, capacity)
        self.k = params.k
        self.h = params.h
        self.warmup = params.warmup
        self.min_rel_std = params.min_rel_std
        self.mean = np.zeros(capacity, dtype=_F)
        self.m2 = np.zeros(capacity, dtype=_F)
        self.std = np.zeros(capacity, dtype=_F)
        self.pos = np.zeros(capacity, dtype=_F)
        self.neg = np.zeros(capacity, dtype=_F)

    def grow(self, capacity: int) -> None:
        super().grow(capacity)
        for field in ("mean", "m2", "std", "pos", "neg"):
            setattr(self, field, _grown(getattr(self, field), capacity))

    def reset(self, slots: np.ndarray) -> None:
        super().reset(slots)
        for field in ("mean", "m2", "std", "pos", "neg"):
            getattr(self, field)[slots] = 0.0

    def state_bytes(self) -> int:
        return (super().state_bytes() + self.mean.nbytes + self.m2.nbytes
                + self.std.nbytes + self.pos.nbytes + self.neg.nbytes)

    def observe_batch(self, slots: np.ndarray, ts: np.ndarray,
                      values: np.ndarray) -> None:
        n = self.samples[slots] + 1
        self.samples[slots] = n
        mean = self.mean[slots]

        warm = n <= self.warmup
        if warm.any():
            m2 = self.m2[slots]
            delta = values[warm] - mean[warm]
            warmed = mean[warm] + delta / n[warm]
            m2[warm] = m2[warm] + delta * (values[warm] - warmed)
            mean[warm] = warmed
            self.m2[slots] = m2
            # the warm-up's last sample freezes the baseline scale
            frozen = n == self.warmup
            if frozen.any():
                std = np.sqrt(m2[frozen] / (self.warmup - 1))
                std = np.maximum(std,
                                 self.min_rel_std * np.abs(mean[frozen]))
                std = np.maximum(std, 1e-12)
                self.std[slots[frozen]] = std
            self.mean[slots] = mean

        active = ~warm
        if active.any():
            aslots = slots[active]
            z = (values[active] - mean[active]) / self.std[aslots]
            pos = np.maximum(0.0, self.pos[aslots] + z - self.k)
            neg = np.maximum(0.0, self.neg[aslots] - z - self.k)
            alarmed = (pos > self.h) | (neg > self.h)
            if alarmed.any():
                positions = np.nonzero(active)[0][alarmed]
                pos_at = np.zeros(len(slots), dtype=_F)
                pos_at[positions] = pos[alarmed]
                neg_at = np.zeros(len(slots), dtype=_F)
                neg_at[positions] = neg[alarmed]
                mean_at = np.zeros(len(slots), dtype=_F)
                mean_at[positions] = mean[active][alarmed]

                def reason(position: int) -> str:
                    side = ("upward" if pos_at[position] > self.h
                            else "downward")
                    stat = max(float(pos_at[position]),
                               float(neg_at[position]))
                    return (f"{side} shift from baseline "
                            f"{float(mean_at[position]):.6g} "
                            f"(S={stat:.1f})")

                self._record_alarms(slots, ts, positions, reason)
                # reset after alarm so repeated shifts re-trigger
                pos[alarmed] = 0.0
                neg[alarmed] = 0.0
            self.pos[aslots] = pos
            self.neg[aslots] = neg


def periodicity_score(buffer: Sequence[float], min_cov: float,
                      power_of_two_only: bool) -> tuple[float, int]:
    """Score one full window for periodic modulation.

    Returns ``(best autocorrelation score, best lag)`` — ``(0.0, 0)``
    when the window fails the coefficient-of-variation gate (a flat
    series trivially correlates with itself).
    """
    n = len(buffer)
    mean = sum(buffer) / n
    var = sum((v - mean) ** 2 for v in buffer) / n
    if abs(mean) < 1e-12 or math.sqrt(var) / abs(mean) < min_cov:
        return 0.0, 0
    acf = autocorrelation(buffer, unbiased=True)
    limit = max(n // 2, 2)
    best_score, best_lag = 0.0, 0
    for lag in range(2, limit):
        if power_of_two_only and lag & (lag - 1):
            continue
        score = float(acf[lag])
        if score > best_score:
            best_score, best_lag = score, lag
    return best_score, best_lag


@dataclasses.dataclass(frozen=True)
class PeriodicityDetector:
    """Windowed periodic-modulation detector, e.g. a covert sender
    toggling a counter at its symbol rate.

    Keeps the last ``window`` samples; every ``stride`` samples it
    computes the unbiased autocorrelation and alarms when some lag's
    correlation exceeds ``score_threshold`` *and* the window actually
    modulates (coefficient of variation above ``min_cov`` — a flat
    series trivially correlates with itself).  With
    ``power_of_two_only`` the alarm is restricted to lags that are
    powers of two, matching the paper's Section IV-C observation that
    ULI structure repeats in "2's power periodic manners".
    """

    name = "periodicity"

    window: int = 64
    stride: int = 16
    score_threshold: float = 0.5
    min_cov: float = 0.2
    power_of_two_only: bool = False

    def __post_init__(self) -> None:
        if self.window < 8:
            raise ValueError(f"window must be >= 8, got {self.window}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")

    def bank(self, capacity: int) -> PeriodicityBank:
        return PeriodicityBank(self, capacity)


class PeriodicityBank(_VectorBank):
    """Columnar :class:`PeriodicityDetector` state.

    The per-stream sliding windows live in one ``(streams, window)``
    ring array (vectorized writes); window *scoring* happens only when
    a stream's window is full and its sample count hits the stride,
    one :func:`periodicity_score` call per due stream — an FFT-style
    batched autocorrelation would be faster but would change the float
    sums the golden verdicts pin.
    """

    def __init__(self, params: PeriodicityDetector, capacity: int) -> None:
        super().__init__(params.name, capacity)
        self.window = params.window
        self.stride = params.stride
        self.score_threshold = params.score_threshold
        self.min_cov = params.min_cov
        self.power_of_two_only = params.power_of_two_only
        self.ring = np.zeros((capacity, params.window), dtype=_F)

    def grow(self, capacity: int) -> None:
        super().grow(capacity)
        self.ring = _grown(self.ring, capacity)

    def reset(self, slots: np.ndarray) -> None:
        super().reset(slots)
        self.ring[slots] = 0.0

    def state_bytes(self) -> int:
        return super().state_bytes() + self.ring.nbytes

    def observe_batch(self, slots: np.ndarray, ts: np.ndarray,
                      values: np.ndarray) -> None:
        n = self.samples[slots] + 1
        self.samples[slots] = n
        self.ring[slots, (n - 1) % self.window] = values
        due = (n >= self.window) & (n % self.stride == 0)
        if not due.any():
            return
        alarm_positions = []
        reasons: dict[int, str] = {}
        for position in np.nonzero(due)[0]:
            slot = int(slots[position])
            split = int(n[position] % self.window)
            row = self.ring[slot]
            if split:
                ordered = np.concatenate((row[split:], row[:split]))
            else:
                ordered = row
            score, lag = periodicity_score(
                ordered.tolist(), self.min_cov, self.power_of_two_only)
            if score > self.score_threshold:
                alarm_positions.append(position)
                reasons[int(position)] = (f"periodic modulation at lag "
                                          f"{lag} (acf {score:.2f})")
        if alarm_positions:
            self._record_alarms(
                slots, ts, np.asarray(alarm_positions, dtype=_I),
                lambda position: reasons[position])


#: A detector family's parameters; each builds its own bank.
Detector = Union[EwmaDetector, CusumDetector, PeriodicityDetector]

#: The default suite: every family with its default parameters.
DEFAULT_DETECTORS: tuple[Detector, ...] = (
    EwmaDetector(), CusumDetector(), PeriodicityDetector())


def detector_suite(detectors: Optional[Sequence[Detector]]
                   ) -> tuple[Detector, ...]:
    """Validate a detector suite (``None`` means the default one)."""
    suite = tuple(DEFAULT_DETECTORS if detectors is None else detectors)
    if not suite:
        raise ValueError("need at least one detector")
    for detector in suite:
        if not isinstance(detector, (EwmaDetector, CusumDetector,
                                     PeriodicityDetector)):
            raise TypeError(
                f"{detector!r} is not a detector; pass parameter "
                f"objects such as EwmaDetector(k=3.0)")
    names = [detector.name for detector in suite]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate detector names: {names}")
    return suite


class VerdictLatencyTracker:
    """Verdict-readout latency samples with the exact percentile
    formulas ``benchmarks/bench_defense_throughput.py`` reports.

    The tracker is fed by :meth:`DetectorBankService.verdict` once
    :meth:`DetectorBankService.enable_verdict_latency` arms it with an
    injected monotonic clock (seconds; the service itself never reads
    wall time — RAG001).  ``samples`` stays in arrival order so callers
    can recompute any statistic from the raw data; the summary
    percentiles use the same sorted-rank arithmetic as the bench, so
    the two agree to the last digit on the same samples
    (tests/defense/test_verdict_latency.py).
    """

    def __init__(self) -> None:
        #: Raw readout latencies in seconds, arrival order.
        self.samples: list[float] = []

    def observe(self, seconds: float) -> None:
        self.samples.append(float(seconds))

    @property
    def count(self) -> int:
        return len(self.samples)

    def quantile(self, q: float) -> float:
        """Sorted-rank quantile in seconds: ``sorted[int(n * q)]``
        (clamped to the last sample), matching the bench's p99."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.samples:
            raise ValueError("no verdict latencies observed")
        ordered = sorted(self.samples)
        return ordered[min(len(ordered) - 1, int(len(ordered) * q))]

    def summary(self) -> dict:
        """``{"count", "p50_us", "p99_us"}`` with the bench's exact
        rounding (microseconds, two decimals)."""
        if not self.samples:
            return {"count": 0, "p50_us": None, "p99_us": None}
        return {
            "count": len(self.samples),
            "p50_us": round(statistics.median(self.samples) * _US_PER_S, 2),
            "p99_us": round(self.quantile(0.99) * _US_PER_S, 2),
        }


class DetectorBankService:
    """Multiplexes many concurrent counter streams through vectorized
    detector banks.

    Streams are *admitted* (:meth:`admit` / :meth:`admit_many`), fed in
    batches (:meth:`ingest` by stream id, or :meth:`ingest_slots` with
    pre-resolved slot handles for the zero-lookup hot path), read out
    as :class:`OnlineVerdict`\\ s at any time (:meth:`verdict`), and
    *retired* (:meth:`retire`) to free their slot for reuse.  One
    ingest batch carries at most one sample per stream per round —
    duplicate stream ids in a batch are handled by splitting the batch
    into sequential rounds, preserving per-stream sample order.

    ``detectors`` is the suite of detector parameter objects
    (default :data:`DEFAULT_DETECTORS`); each builds one bank.
    """

    def __init__(self, detectors: Optional[Sequence[Detector]] = None,
                 capacity: int = 1024) -> None:
        suite = detector_suite(detectors)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self.banks = [detector.bank(capacity) for detector in suite]
        self._slots: dict[str, int] = {}
        self._next_slot = 0
        self._free: list[int] = []
        self._live = np.zeros(capacity, dtype=bool)
        self._tenants: list[str] = [""] * capacity
        self._keys: list[str] = [""] * capacity
        self._samples = np.zeros(capacity, dtype=_I)
        self._first_ts = np.full(capacity, np.nan, dtype=_F)
        self._last_ts = np.full(capacity, -np.inf, dtype=_F)
        #: Total samples ever ingested (across retired streams too).
        self.ingested = 0
        #: Armed by :meth:`enable_verdict_latency`.
        self.verdict_latency: Optional[VerdictLatencyTracker] = None
        self._verdict_clock: Optional[Callable[[], float]] = None

    # ------------------------------------------------------------------
    # Admission / retirement
    # ------------------------------------------------------------------
    @property
    def stream_count(self) -> int:
        """Live (admitted, not retired) streams."""
        return len(self._slots)

    @property
    def capacity(self) -> int:
        """Allocated slots (grows geometrically on demand)."""
        return self._capacity

    def _grow(self, needed: int) -> None:
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        for bank in self.banks:
            bank.grow(capacity)
        self._live = _grown(self._live, capacity)
        self._samples = _grown(self._samples, capacity)
        self._first_ts = _grown(self._first_ts, capacity, np.nan)
        self._last_ts = _grown(self._last_ts, capacity, -np.inf)
        self._tenants.extend([""] * (capacity - len(self._tenants)))
        self._keys.extend([""] * (capacity - len(self._keys)))
        self._capacity = capacity

    def _claim_slot(self, stream_id: str) -> int:
        if stream_id in self._slots:
            raise ValueError(f"stream {stream_id!r} already admitted")
        if self._free:
            return self._free.pop()
        if self._next_slot >= self._capacity:
            self._grow(self._next_slot + 1)
        slot = self._next_slot
        self._next_slot += 1
        return slot

    def admit(self, stream_id: str, tenant: str = "",
              key: str = "") -> int:
        """Register one stream; returns its slot handle."""
        return int(self.admit_many(
            [stream_id], tenants=[tenant], keys=[key])[0])

    def admit_many(self, stream_ids: Sequence[str],
                   tenants: Optional[Sequence[str]] = None,
                   keys: Optional[Sequence[str]] = None) -> np.ndarray:
        """Bulk admission: one vectorized state reset for the cohort.

        Returns the slot handles in ``stream_ids`` order — pass them to
        :meth:`ingest_slots` to skip the id->slot lookup on every tick.
        """
        for label, extra in (("tenants", tenants), ("keys", keys)):
            if extra is not None and len(extra) != len(stream_ids):
                raise ValueError(f"{label} length {len(extra)} != "
                                 f"{len(stream_ids)} stream ids")
        slots = np.empty(len(stream_ids), dtype=_I)
        for index, stream_id in enumerate(stream_ids):
            slot = self._claim_slot(stream_id)
            self._slots[stream_id] = slot
            self._tenants[slot] = (tenants[index] if tenants is not None
                                   and tenants[index] else stream_id)
            self._keys[slot] = (keys[index] if keys is not None
                                and keys[index] else stream_id)
            slots[index] = slot
        self._live[slots] = True
        self._samples[slots] = 0
        self._first_ts[slots] = np.nan
        self._last_ts[slots] = -np.inf
        for bank in self.banks:
            bank.reset(slots)
        return slots

    def retire(self, stream_id: str) -> OnlineVerdict:
        """Final verdict for a stream; frees its slot for reuse."""
        verdict = self.verdict(stream_id)
        slot = self._slots.pop(stream_id)
        self._live[slot] = False
        self._free.append(slot)
        return verdict

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._slots

    def slots_for(self, stream_ids: Sequence[str]) -> np.ndarray:
        """Resolve ids to slot handles once, for the ingest hot path."""
        return np.fromiter((self._slots[stream_id]
                            for stream_id in stream_ids),
                           dtype=_I, count=len(stream_ids))

    def last_ts(self, stream_id: str) -> float:
        """Timestamp of the stream's latest sample (``-inf`` before
        any, so ``ts <= service.last_ts(id)`` is a valid staleness
        test from the first sample on)."""
        return float(self._last_ts[self._slots[stream_id]])

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, stream_ids: Sequence[str],
               ts: Union[float, Sequence[float]],
               values: Sequence[float],
               admit_missing: bool = False) -> None:
        """Feed one batch of ``(stream, timestamp, value)`` samples.

        ``ts`` may be a scalar (one poll tick across many streams — the
        common case) or a per-sample array.  With ``admit_missing``
        unknown stream ids are admitted on first sight, which is what
        the telemetry-artifact adapters below want.
        """
        if admit_missing:
            missing = [stream_id for stream_id in stream_ids
                       if stream_id not in self._slots]
            if missing:
                # a stream named twice in one batch must admit once
                self.admit_many(sorted(set(missing)))
        self.ingest_slots(self.slots_for(stream_ids), ts, values)

    def ingest_slots(self, slots: np.ndarray,
                     ts: Union[float, Sequence[float]],
                     values: Sequence[float]) -> None:
        """The zero-lookup batch path: ``slots`` from :meth:`admit_many`
        or :meth:`slots_for`."""
        slots = np.asarray(slots, dtype=_I)
        values = np.asarray(values, dtype=_F)
        if np.isscalar(ts) or getattr(ts, "ndim", 1) == 0:
            ts = np.full(slots.shape, float(ts), dtype=_F)
        else:
            ts = np.asarray(ts, dtype=_F)
        if not (slots.shape == ts.shape == values.shape):
            raise ValueError(
                f"batch shape mismatch: {slots.shape} slots, "
                f"{ts.shape} timestamps, {values.shape} values")
        if slots.size == 0:
            return
        if slots.min() < 0 or slots.max() >= self._capacity or \
                not self._live[slots].all():
            dead = slots[(slots < 0) | (slots >= self._capacity)
                         | ~self._live[np.clip(slots, 0,
                                               self._capacity - 1)]]
            raise KeyError(f"batch references retired or unknown "
                           f"slots {sorted(set(dead.tolist()))[:5]}")
        if np.unique(slots).size == slots.size:
            self._ingest_round(slots, ts, values)
            return
        # duplicates: occurrence k of a slot goes to sequential round k
        seen: dict[int, int] = {}
        rounds: list[list[int]] = []
        for position, slot in enumerate(slots.tolist()):
            occurrence = seen.get(slot, 0)
            seen[slot] = occurrence + 1
            if occurrence == len(rounds):
                rounds.append([])
            rounds[occurrence].append(position)
        for positions in rounds:
            chosen = np.asarray(positions, dtype=_I)
            self._ingest_round(slots[chosen], ts[chosen], values[chosen])

    def _ingest_round(self, slots: np.ndarray, ts: np.ndarray,
                      values: np.ndarray) -> None:
        previous = self._last_ts[slots]
        if not (ts > previous).all():
            position = int(np.nonzero(~(ts > previous))[0][0])
            raise ValueError(
                f"sample times must be strictly increasing per stream: "
                f"slot {int(slots[position])} got ts {ts[position]} "
                f"after {previous[position]}")
        self._last_ts[slots] = ts
        fresh = np.isnan(self._first_ts[slots])
        if fresh.any():
            self._first_ts[slots[fresh]] = ts[fresh]
        self._samples[slots] += 1
        self.ingested += len(slots)
        for bank in self.banks:
            bank.observe_batch(slots, ts, values)

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def enable_verdict_latency(
            self, clock: Callable[[], float]) -> VerdictLatencyTracker:
        """Arm the per-stream verdict-latency SLO tracker: every
        subsequent :meth:`verdict` readout is timed with
        the **injected** ``clock`` (a zero-argument monotonic callable
        returning seconds — e.g. ``time.perf_counter`` at the call
        site; the service never reads wall time itself).  Returns the
        tracker; re-arming replaces it with a fresh one."""
        self.verdict_latency = VerdictLatencyTracker()
        self._verdict_clock = clock
        return self.verdict_latency

    def verdict(self, stream_id: str) -> OnlineVerdict:
        """The stream's current combined verdict: the earliest alarm
        wins, ties broken on detector name."""
        slot = self._slots[stream_id]
        if self._verdict_clock is None:
            return self._slot_verdict(slot)
        started = self._verdict_clock()
        verdict = self._slot_verdict(slot)
        self.verdict_latency.observe(self._verdict_clock() - started)
        return verdict

    def verdicts(self) -> dict[str, OnlineVerdict]:
        """Every live stream's verdict, keyed by stream id (sorted for
        deterministic iteration)."""
        return {stream_id: self._slot_verdict(self._slots[stream_id])
                for stream_id in sorted(self._slots)}

    def flagged_streams(self) -> list[str]:
        """Stream ids currently in alarm state, cheaply: a stream is
        flagged iff some bank's flag count is nonzero — no verdict
        materialization for the (typical) all-quiet majority."""
        flags = np.zeros(self._capacity, dtype=_I)
        for bank in self.banks:
            flags += bank.flags
        return sorted(stream_id for stream_id, slot in self._slots.items()
                      if flags[slot] > 0)

    def _slot_verdict(self, slot: int) -> OnlineVerdict:
        detections = {bank.name: bank.detection(slot)
                      for bank in self.banks}
        tenant = self._tenants[slot]
        flagged = [d for d in detections.values() if d.flagged]
        if not flagged:
            return OnlineVerdict(
                tenant=tenant, flagged=False, detector="",
                detection_latency_ns=None, flag_rate=0.0,
                reason=f"{self._keys[slot]} series stationary over "
                       f"{int(self._samples[slot])} samples",
                detections=detections)
        first = min(flagged, key=lambda d: (d.first_flag_ts, d.detector))
        assert first.first_flag_ts is not None
        return OnlineVerdict(
            tenant=tenant, flagged=True, detector=first.detector,
            detection_latency_ns=(first.first_flag_ts
                                  - float(self._first_ts[slot])),
            flag_rate=max(d.flag_rate for d in flagged),
            reason=first.reason,
            detections=detections)

    def detection_latencies(self) -> dict[str, float]:
        """Detection latency (ns of *sample time* between a stream's
        first sample and its first alarm) for every currently flagged
        stream, sorted by stream id.  Reads slots directly so an armed
        :attr:`verdict_latency` tracker is not polluted with bulk
        readouts."""
        latencies: dict[str, float] = {}
        for stream_id in self.flagged_streams():
            verdict = self._slot_verdict(self._slots[stream_id])
            if verdict.detection_latency_ns is not None:
                latencies[stream_id] = verdict.detection_latency_ns
        return latencies

    def detection_latency_slo(self, budget_ns: float,
                              percentile: float = 0.99) -> dict:
        """Evaluate the per-stream detection-latency SLO: the given
        percentile of flagged-stream detection latencies must sit
        within ``budget_ns``.  A fleet with no flagged streams is
        trivially compliant (nothing was detected late).  Returns a
        structured verdict with a bounded sample of violating stream
        ids for operator drill-down."""
        if budget_ns <= 0:
            raise ValueError(f"budget_ns must be positive, got {budget_ns}")
        if not 0.0 < percentile <= 1.0:
            raise ValueError(
                f"percentile must be in (0, 1], got {percentile}")
        latencies = self.detection_latencies()
        violating = sorted(stream_id
                           for stream_id, latency in latencies.items()
                           if latency > budget_ns)
        if latencies:
            ordered = sorted(latencies.values())
            value = ordered[min(len(ordered) - 1,
                                int(len(ordered) * percentile))]
        else:
            value = 0.0
        return {
            "budget_ns": float(budget_ns),
            "percentile": percentile,
            "flagged": len(latencies),
            "value_ns": value,
            "compliant": value <= budget_ns,
            "violations": len(violating),
            "violating_streams": violating[:10],
        }

    def state_bytes(self) -> int:
        """Allocated detector-state bytes (the bytes/stream metric in
        ``bench_defense_throughput.py`` divides by capacity)."""
        total = (self._live.nbytes + self._samples.nbytes
                 + self._first_ts.nbytes + self._last_ts.nbytes)
        return total + sum(bank.state_bytes() for bank in self.banks)


# ----------------------------------------------------------------------
# Ingestion adapters: repro.obs exporter artifacts -> the batch API
# ----------------------------------------------------------------------
def ingest_trace_jsonl(service: DetectorBankService, path,
                       component_filter: Optional[Callable[[str], bool]]
                       = None) -> dict:
    """Feed every counter-phase record of a ``*.trace.jsonl`` artifact
    (the :func:`repro.obs.exporters.write_jsonl` format) into the
    service.

    Each ``(component, counter name, arg)`` triple becomes one stream
    (``component/name/arg``), admitted on first sight with the
    component as tenant.  Records whose timestamp does not advance a
    stream are dropped and counted rather than raised — artifact
    replays must tolerate duplicated sampler ticks.

    Returns ``{"streams": ..., "samples": ..., "dropped": ...}``.
    """
    path = pathlib.Path(path)
    fed = 0
    dropped = 0
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("ph") != "C" or not isinstance(
                record.get("args"), dict):
            continue
        component = record["component"]
        if component_filter is not None and not component_filter(component):
            continue
        ts = float(record["ts"])
        stream_ids = []
        values = []
        for arg in sorted(record["args"]):
            value = record["args"][arg]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            stream_id = f"{component}/{record['name']}/{arg}"
            if stream_id in service and ts <= service.last_ts(stream_id):
                dropped += 1
                continue
            stream_ids.append(stream_id)
            values.append(float(value))
        if not stream_ids:
            continue
        missing = [stream_id for stream_id in stream_ids
                   if stream_id not in service]
        if missing:
            tenants = [stream_id.split("/", 1)[0] for stream_id in missing]
            keys = [stream_id.rsplit("/", 1)[1] for stream_id in missing]
            service.admit_many(missing, tenants=tenants, keys=keys)
        service.ingest(stream_ids, ts, values)
        fed += len(stream_ids)
    return {"streams": service.stream_count, "samples": fed,
            "dropped": dropped}


def ingest_metrics_snapshots(service: DetectorBankService,
                             snapshots: Iterable[tuple[float, Mapping]],
                             ) -> dict:
    """Feed successive metrics snapshots (the
    :func:`repro.obs.exporters.write_metrics_json` shape:
    ``{component: {name: {"type": ..., "value": ...}}}``) as one counter
    stream per ``component/name`` scalar instrument.

    ``snapshots`` yields ``(sim_ts, snapshot)`` pairs in time order —
    e.g. one registry snapshot per sampler tick.  Histogram rows carry
    no single scalar and are skipped.
    """
    fed = 0
    dropped = 0
    for ts, snapshot in snapshots:
        stream_ids = []
        values = []
        for component in sorted(snapshot):
            rows = snapshot[component]
            for name in sorted(rows):
                row = rows[name]
                if row.get("type") not in ("counter", "gauge"):
                    continue
                stream_id = f"{component}/{name}"
                if stream_id in service and \
                        float(ts) <= service.last_ts(stream_id):
                    dropped += 1
                    continue
                stream_ids.append(stream_id)
                values.append(float(row["value"]))
        if not stream_ids:
            continue
        service.ingest(stream_ids, float(ts), values, admit_missing=True)
        fed += len(stream_ids)
    return {"streams": service.stream_count, "samples": fed,
            "dropped": dropped}
