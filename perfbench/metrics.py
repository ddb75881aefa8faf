"""Metric names, units and their derivation from runs and spans.

End-to-end metrics are measured with benchmark tracing off and are
printed for every workload.  Per-layer metrics come from the traced run
(:mod:`perfbench.spans`), except the ``experiments.*`` and ``e2e.*``
figures, which the traced invocation takes from its untraced
repetition.  Count metrics (unit ``count``) depend only on the commit
and the seed, so two traced runs give identical counts.
"""

from __future__ import annotations

import fnmatch
import statistics
from typing import Iterable

from perfbench.spans import SpanTracer, layer_of

#: name -> unit.  ``items_per_s`` is the workload's own unit of work
#: per host second: traces synthesized (snoop-fig13), experiments run
#: (covert-suite, traced-covert), stream samples ingested
#: (defense-monitor).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
}

EXPERIMENTS = ("table1", "table5", "fig4", "fig5", "fig6", "fig7", "fig8",
               "fig9", "fig10", "fig11", "fig12", "fig13", "pythia",
               "stealth", "linearity", "mitigation-noise",
               "mitigation-partition", "faults")

#: Span-name patterns of the named per-layer groups.
GROUPS = {
    "sim.run": ["repro.sim.kernel:Simulator.run",
                "repro.sim.kernel:Simulator.step"],
    "verbs.post_send": ["repro.verbs.qp:QueuePair.post_send"],
    "verbs.post_send_batch": ["repro.verbs.qp:QueuePair.post_send_batch"],
    "verbs.poll_cq": ["repro.verbs.cq:CompletionQueue.poll"],
    "rnic.fastpath": ["repro.rnic.batch:try_fast_path"],
    "rnic.translation.admit": ["repro.rnic.translation:TranslationUnit.admit"],
    "rnic.translation.admit_batch": [
        "repro.rnic.translation:TranslationUnit.admit_batch"],
    "rnic.caches": ["repro.rnic.caches:SetAssocCache.access"],
    "side.synth.trace": ["repro.side.snoop:TraceSynthesizer.trace"],
    "ml.conv1d.forward": ["repro.ml.layers:Conv1d.forward"],
    "ml.conv1d.backward": ["repro.ml.layers:Conv1d.backward"],
    "ml.batchnorm": ["repro.ml.layers:BatchNorm1d.*"],
    "ml.dense": ["repro.ml.layers:Dense.*"],
    "ml.fit": ["repro.ml.train:Trainer.fit"],
    "defense.ingest": ["repro.defense.service:DetectorBankService.ingest*",
                       "repro.defense.service:EwmaBank.*",
                       "repro.defense.service:CusumBank.*"],
    "defense.acf": ["repro.defense.service:PeriodicityBank.*",
                    "repro.obs.insight.detectors:periodicity_score",
                    "repro.analysis.*:autocorrelation"],
    "defense.readout": ["repro.defense.service:DetectorBankService.verdict*",
                        "repro.defense.service:DetectorBankService.flagged*",
                        "repro.defense.service:_VectorBank.detection"],
    "defense.scalar": ["repro.obs.insight.detectors:*Detector.*",
                       "repro.defense.online:*"],
    "obs.tracer": ["repro.obs.tracer:*"],
    "obs.export": ["repro.obs.exporters:*",
                   "repro.obs.runtime:ObsSession.export"],
}

#: Layers reported as ``<layer>.self_s`` and ``<layer>.calls``.
LAYERS = ("sim", "verbs", "rnic.pipeline", "rnic.translation",
          "rnic.counters", "side", "ml", "telemetry", "covert", "host",
          "fabric", "faults", "defense", "obs", "apps", "analysis",
          "baselines", "revengine")

PER_LAYER: dict[str, str] = {
    "sim.run.self_s": "s",
    "sim.schedule.calls": "count",
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "verbs.post_send.calls": "count",
    "verbs.post_send.self_s": "s",
    "verbs.post_send_batch.wrs": "count",
    "verbs.poll_cq.calls": "count",
    "verbs.poll_cq.cqes": "count",
    "verbs.poll_cq.self_s": "s",
    "rnic.pipeline.self_s": "s",
    "rnic.fastpath.attempts": "count",
    "rnic.fastpath.taken": "count",
    "rnic.fastpath.take_ratio": "ratio",
    "rnic.translation.admit.calls": "count",
    "rnic.translation.admit.self_s": "s",
    "rnic.translation.admit_batch.calls": "count",
    "rnic.caches.accesses": "count",
    "rnic.caches.hit_ratio": "ratio",
    "side.synth.trace.calls": "count",
    "side.synth.trace.p50_ms": "ms",
    "side.synth.trace.p99_ms": "ms",
    "ml.conv1d.forward.self_s": "s",
    "ml.conv1d.backward.self_s": "s",
    "ml.batchnorm.self_s": "s",
    "ml.dense.self_s": "s",
    "ml.fit.epoch_s": "s",
    "defense.ingest.calls": "count",
    "defense.ingest.samples": "count",
    "defense.ingest.self_s": "s",
    "defense.readout.self_s": "s",
    "defense.acf.self_s": "s",
    "defense.scalar.self_s": "s",
    "obs.tracer.self_s": "s",
    "obs.export.self_s": "s",
    "obs.overhead_ratio": "ratio",
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    **{f"experiments.{name}.wall_s": "s" for name in EXPERIMENTS},
    "e2e.traces_per_s": "1/s",
    "e2e.train_samples_per_s": "1/s",
    "e2e.samples_per_s": "1/s",
    "e2e.verdict_p50_us": "us",
    "e2e.verdict_p99_us": "us",
    "e2e.verdict_readouts": "count",
    "bench.spans": "count",
    "bench.traced_wall_s": "s",
    "bench.tracing_overhead": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _sum(tracer: SpanTracer, patterns: Iterable[str], field: int) -> float:
    return sum(stat[field] for name, stat in tracer.stats.items()
               if any(fnmatch.fnmatchcase(name, p) for p in patterns))


def layer_metrics(tracer: SpanTracer, untraced_wall_s: float,
                  traced_wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced repetition."""
    def calls(group: str) -> float:
        return _sum(tracer, GROUPS[group], 0)

    def self_s(group: str) -> float:
        return _sum(tracer, GROUPS[group], 2)

    def extra(group: str) -> float:
        return _sum(tracer, GROUPS[group], 3)

    out: dict[str, float] = {}
    for layer in LAYERS:
        members = [stat for name, stat in tracer.stats.items()
                   if layer_of(name) == layer]
        out[f"{layer}.self_s"] = sum(stat[2] for stat in members)
        out[f"{layer}.calls"] = sum(stat[0] for stat in members)
    out["sim.run.self_s"] = self_s("sim.run")
    out["sim.schedule.calls"] = tracer.schedules
    out["sim.events"] = tracer.events
    out["sim.host_ns_per_event"] = (untraced_wall_s * 1e9 / tracer.events
                                    if tracer.events else 0.0)
    for group in ("verbs.post_send", "verbs.poll_cq"):
        out[f"{group}.calls"] = calls(group)
        out[f"{group}.self_s"] = self_s(group)
    out["verbs.post_send_batch.wrs"] = extra("verbs.post_send_batch")
    out["verbs.poll_cq.cqes"] = extra("verbs.poll_cq")
    attempts = calls("rnic.fastpath")
    out["rnic.fastpath.attempts"] = attempts
    out["rnic.fastpath.taken"] = extra("rnic.fastpath")
    out["rnic.fastpath.take_ratio"] = (extra("rnic.fastpath") / attempts
                                       if attempts else 0.0)
    out["rnic.translation.admit.calls"] = calls("rnic.translation.admit")
    out["rnic.translation.admit.self_s"] = self_s("rnic.translation.admit")
    out["rnic.translation.admit_batch.calls"] = calls(
        "rnic.translation.admit_batch")
    accesses = calls("rnic.caches")
    out["rnic.caches.accesses"] = accesses
    out["rnic.caches.hit_ratio"] = (extra("rnic.caches") / accesses
                                    if accesses else 0.0)
    durations = [d for name, values in tracer.durations.items()
                 if name in GROUPS["side.synth.trace"] for d in values]
    out["side.synth.trace.calls"] = calls("side.synth.trace")
    out["side.synth.trace.p50_ms"] = (percentile(durations, 50) * 1e3
                                      if durations else 0.0)
    out["side.synth.trace.p99_ms"] = (percentile(durations, 99) * 1e3
                                      if durations else 0.0)
    for group in ("ml.conv1d.forward", "ml.conv1d.backward",
                  "ml.batchnorm", "ml.dense"):
        out[f"{group}.self_s"] = self_s(group)
    epochs = extra("ml.fit")
    out["ml.fit.epoch_s"] = (_sum(tracer, GROUPS["ml.fit"], 1) / epochs
                             if epochs else 0.0)
    ingest = ["repro.defense.service:DetectorBankService.ingest_slots"]
    out["defense.ingest.calls"] = _sum(tracer, ingest, 0)
    out["defense.ingest.samples"] = _sum(tracer, ingest, 3)
    for group in ("defense.ingest", "defense.readout", "defense.acf",
                  "defense.scalar", "obs.tracer", "obs.export"):
        out[f"{group}.self_s"] = self_s(group)
    out["obs.overhead_ratio"] = (out["obs.self_s"] / traced_wall_s
                                 if traced_wall_s else 0.0)
    return out


def untraced_extras(reps: list) -> dict[str, float]:
    """The ``experiments.*`` and ``e2e.*`` figures of untraced reps."""
    out = {f"experiments.{name}.wall_s": 0.0 for name in EXPERIMENTS}
    for name in EXPERIMENTS:
        seconds = [rep.op_seconds[name] for rep in reps
                   if name in rep.op_seconds]
        if seconds:
            out[f"experiments.{name}.wall_s"] = statistics.median(seconds)
    rates = [rep.extras["train_samples_per_s"] for rep in reps
             if "train_samples_per_s" in rep.extras]
    out["e2e.train_samples_per_s"] = statistics.median(rates) if rates else 0.0
    latencies = [seconds for rep in reps
                 for seconds in rep.extras.get("verdict_latencies_s", [])]
    out["e2e.verdict_readouts"] = len(latencies)
    out["e2e.verdict_p50_us"] = (percentile(latencies, 50) * 1e6
                                 if latencies else 0.0)
    out["e2e.verdict_p99_us"] = (percentile(latencies, 99) * 1e6
                                 if latencies else 0.0)
    return out
