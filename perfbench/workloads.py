"""The benchmark's four workloads, each a fixed amount of paper traffic.

A workload builds its inputs from the seed in :meth:`Workload.setup`
(untimed) and runs them in :meth:`Workload.run`, which times its own
operations through :class:`Ops` and returns one digest per checked
operation.  Every call into the program goes through
``ops.call(name, fn, *args)``, so the traced run opens one root span per
operation.

Why these four (the layers each one stresses):

* ``snoop-fig13`` -- the Figure 13 pipeline.  Translation-unit
  admission (trace synthesis) and the NumPy ResNet take about half each;
  the 1 KB working set keeps the MPT/MTT caches hot and leaves the
  kernel and verbs nearly idle.
* ``covert-suite`` -- the other 17 registry experiments through
  ``run_task`` with ``repro.obs`` off: the scalar discrete-event pipeline
  (RNIC, verbs, counters, kernel), inter-MR channels and Pythia eviction
  sets, scalar detectors (table1, stealth), no ML.
* ``traced-covert`` -- table1, table5 and faults with sampled
  ``repro.obs`` tracing, metrics and artifact export on, the way
  ``--trace-sample``/``--slo`` users run them; the only workload where
  ``repro.obs`` does most of the work.
* ``defense-monitor`` -- ``DetectorBankService`` at fleet width (50,000
  streams), driven
  as a closed loop by one caller: one ``ingest_slots`` call per poll
  tick, verdict readouts between ticks.  Most tenants are stationary, a
  few shift level and some emit square waves that reach the windowed
  periodicity (ACF) scan.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
import time
import traceback
from typing import Any, Callable, Optional

import numpy as np

from perfbench.oracle import digest


class Ops:
    """Times every call into the program, one operation at a time;
    ``tracer`` opens one root span per operation in the traced run."""

    def __init__(self, tracer: Any = None) -> None:
        self.seconds: dict[str, float] = {}
        self.total = 0.0
        self.last = 0.0
        self._tracer = tracer

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        if self._tracer is not None:
            fn = self._tracer.span(fn, f"perfbench:{name}")
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.last = time.perf_counter() - started
            self.seconds[name] = self.seconds.get(name, 0.0) + self.last
            self.total += self.last


@dataclasses.dataclass
class RepResult:
    """One repetition of a workload's fixed work."""

    #: checked operation -> digest of its output (None: it crashed)
    outputs: dict[str, Optional[str]]
    #: host seconds spent in the program's operations
    wall_s: float
    #: items processed and the seconds spent processing them
    items: float = 0.0
    items_s: float = 0.0
    #: per-operation host seconds (experiments.<name>.wall_s)
    op_seconds: dict[str, float] = dataclasses.field(default_factory=dict)
    #: workload-specific untraced figures (train rate, readout latency)
    extras: dict[str, Any] = dataclasses.field(default_factory=dict)
    errors: list[str] = dataclasses.field(default_factory=list)


def _crashed(outputs: dict, ops: list[str], errors: list[str]) -> None:
    errors.append(traceback.format_exc())
    for op in ops:
        outputs.setdefault(op, None)


class Workload:
    name = ""
    why = ""
    scales: dict[str, dict] = {}
    #: the traced run's ``e2e.*`` name for this workload's items_per_s
    rate_metric = ""

    def op_names(self, scale: str) -> list[str]:
        raise NotImplementedError

    def setup(self, seed: int, scale: str, workdir: pathlib.Path) -> Any:
        raise NotImplementedError

    def run(self, state: Any, ops: Ops) -> RepResult:
        raise NotImplementedError


# ----------------------------------------------------------------------
# snoop-fig13
# ----------------------------------------------------------------------
class SnoopFig13(Workload):
    name = "snoop-fig13"
    why = ("Figure 13 pipeline: trace synthesis through the translation "
           "unit plus NumPy ResNet training; hot 1 KB working set")
    rate_metric = "e2e.traces_per_s"
    #: ``per_class`` traces for each of the 17 candidate offsets (the
    #: experiment's default is 60 with 12 epochs; this keeps the
    #: synthesis/training split while fitting several repetitions).
    scales = {
        "default": dict(per_class=6, epochs=5, demo=(0, 512, 960)),
        "tiny": dict(per_class=4, epochs=1, demo=(0,)),
    }

    def op_names(self, scale: str) -> list[str]:
        demo = [f"demo@{victim}" for victim in self.scales[scale]["demo"]]
        return demo + ["dataset", "classifier", "centroid"]

    def setup(self, seed: int, scale: str, workdir: pathlib.Path) -> Any:
        from repro.rnic.spec import cx5

        return dict(self.scales[scale], seed=seed, spec=cx5(),
                    op_names=self.op_names(scale))

    def run(self, state: Any, ops: Ops) -> RepResult:
        from repro.side import dataset as dataset_mod
        from repro.side import snoop

        seed, spec = state["seed"], state["spec"]
        outputs: dict[str, Optional[str]] = {}
        extras: dict[str, Any] = {}
        errors: list[str] = []
        items = 0
        try:
            for victim in state["demo"]:
                trace = ops.call(f"demo@{victim}", snoop.capture_trace_sim,
                                 victim, spec=spec, seed=seed)
                outputs[f"demo@{victim}"] = digest(trace)
            data = ops.call("dataset", dataset_mod.SnoopDataset.generate,
                            state["per_class"], spec=spec, seed=seed, jobs=1)
            items = len(data.y)
            outputs["dataset"] = digest(data.x, data.y)
            report = ops.call("classifier", dataset_mod.evaluate_classifier,
                              data, epochs=state["epochs"], seed=seed)
            outputs["classifier"] = digest(
                report.test_accuracy, report.train_accuracy,
                report.confusion)
            centroid = ops.call("centroid", dataset_mod.nearest_centroid,
                                data, seed=seed)
            outputs["centroid"] = digest(centroid)
            train_samples = len(data.split(seed=seed)[1]) * state["epochs"]
            extras["train_samples_per_s"] = (train_samples
                                             / ops.seconds["classifier"])
        except Exception:  # a crash fails the remaining operations
            _crashed(outputs, state["op_names"], errors)
        return RepResult(outputs=outputs, wall_s=ops.total, items=items,
                         items_s=ops.seconds.get("dataset", 0.0),
                         op_seconds={"fig13": ops.total}, extras=extras,
                         errors=errors)


# ----------------------------------------------------------------------
# covert-suite / traced-covert
# ----------------------------------------------------------------------
class CovertSuite(Workload):
    name = "covert-suite"
    why = ("the other 17 registry experiments at --smoke, serial, obs off: "
           "scalar event pipeline through verbs, RNIC, counters, kernel; no "
           "ML")
    #: ``tiny`` keeps three sub-second experiments for the self-tests.
    scales = {"default": dict(names=None), "tiny": dict(names=(
        "table1", "fig5", "fig10"))}
    obs_options: dict[str, Any] = {}

    def op_names(self, scale: str) -> list[str]:
        names = self.scales[scale]["names"]
        if names is None:
            from repro.experiments.runner import REGISTRY

            names = tuple(name for name in REGISTRY if name != "fig13")
        return list(names)

    def setup(self, seed: int, scale: str, workdir: pathlib.Path) -> Any:
        from repro.experiments import runner

        out = workdir / "tables"
        out.mkdir(parents=True, exist_ok=True)
        return dict(seed=seed, out=out, names=self.op_names(scale),
                    registry=runner.REGISTRY)

    def run(self, state: Any, ops: Ops) -> RepResult:
        from repro.experiments import runner

        outputs: dict[str, Optional[str]] = {}
        errors: list[str] = []
        for name in state["names"]:
            captured: list = []
            original = state["registry"][name]

            @functools.wraps(original)
            def capture(*args, _original=original, **kwargs):
                result = _original(*args, **kwargs)
                captured.append(result)
                return result

            outcome = ops.call(name, runner.run_task, name, state["seed"],
                               True, False, 0, str(state["out"]),
                               registry={name: capture}, **self.obs_options)
            if not outcome.ok:
                outputs[name] = None
                errors.append(outcome.error)
                continue
            artifacts = [pathlib.Path(path).read_bytes()
                         for path in outcome.extras]
            outputs[name] = digest(outcome.table, captured[0].series,
                                   *artifacts)
        return RepResult(outputs=outputs, wall_s=ops.total,
                         items=len(state["names"]), items_s=ops.total,
                         op_seconds=dict(ops.seconds), errors=errors)


class TracedCovert(CovertSuite):
    name = "traced-covert"
    why = ("table1, table5 and faults with sampled repro.obs tracing, "
           "metrics and artifact export: the obs layer does most work")
    scales = {"default": dict(names=("table1", "table5", "faults")),
              "tiny": dict(names=("table1",))}
    obs_options = dict(trace=True, metrics=True, trace_sample=100)


# ----------------------------------------------------------------------
# defense-monitor
# ----------------------------------------------------------------------
class DefenseMonitor(Workload):
    name = "defense-monitor"
    why = ("DetectorBankService with 50K streams, one caller: one "
           "ingest_slots per poll tick, verdict readouts between ticks")
    rate_metric = "e2e.samples_per_s"
    #: Streams join in ``cohorts`` equal groups, one group per tick, so
    #: the periodicity windows (64 samples, scored every 16) come due
    #: one cohort per tick instead of all at once.
    scales = {
        "default": dict(streams=50_000, ticks=80, cohorts=16, readouts=16),
        "tiny": dict(streams=512, ticks=80, cohorts=16, readouts=16),
    }
    #: Shares of tenants that shift level halfway, and that emit a
    #: square wave (period 8 ticks) -- the rest are stationary.
    SHIFT_SHARE = 0.03
    SQUARE_SHARE = 0.02
    POLL_NS = 1_000_000.0

    def op_names(self, scale: str) -> list[str]:
        ticks = self.scales[scale]["ticks"]
        return [f"tick{tick:03d}" for tick in range(ticks)] + ["flagged"]

    def setup(self, seed: int, scale: str, workdir: pathlib.Path) -> Any:
        from repro.defense.service import DetectorBankService

        params = self.scales[scale]
        streams, ticks = params["streams"], params["ticks"]
        rng = np.random.default_rng(seed)
        base = rng.uniform(50.0, 150.0, streams)
        values = base + rng.normal(0.0, 2.0, (ticks, streams))
        kind = rng.random(streams)
        shift = kind < self.SHIFT_SHARE
        values[ticks // 2:, shift] += 80.0
        square = (kind >= self.SHIFT_SHARE) & \
            (kind < self.SHIFT_SHARE + self.SQUARE_SHARE)
        phase = np.where((np.arange(ticks) // 4) % 2 == 0, 1.4, 0.6)
        values[:, square] = base[square] * phase[:, None]
        ids = [f"tenant{index:06d}" for index in range(streams)]
        service = DetectorBankService(capacity=streams)
        slots = service.admit_many(ids)
        cohort = streams // params["cohorts"]
        active = [min(tick + 1, params["cohorts"]) * cohort
                  for tick in range(ticks)]
        readouts = [[ids[int(index)] for index in
                     rng.integers(0, active[tick], params["readouts"])]
                    for tick in range(ticks)]
        return dict(service=service, slots=slots, values=values,
                    active=active, readouts=readouts,
                    op_names=self.op_names(scale))

    def run(self, state: Any, ops: Ops) -> RepResult:
        service, slots, values = (state["service"], state["slots"],
                                  state["values"])
        outputs: dict[str, Optional[str]] = {}
        errors: list[str] = []
        latencies: list[float] = []
        read: list[list] = []
        try:
            for tick, active in enumerate(state["active"]):
                ops.call("ingest", service.ingest_slots, slots[:active],
                         (tick + 1) * self.POLL_NS, values[tick, :active])
                verdicts = []
                for stream_id in state["readouts"][tick]:
                    verdicts.append(ops.call("readout", service.verdict,
                                             stream_id))
                    latencies.append(ops.last)
                read.append([service.ingested, verdicts])
            flagged = ops.call("flagged", service.flagged_streams)
        except Exception:  # a crash fails the remaining operations
            _crashed(outputs, state["op_names"], errors)
        else:
            for tick, record in enumerate(read):
                outputs[f"tick{tick:03d}"] = digest(*record)
            outputs["flagged"] = digest(flagged)
        return RepResult(outputs=outputs, wall_s=ops.total,
                         items=float(service.ingested),
                         items_s=ops.seconds.get("ingest", 0.0),
                         extras={"verdict_latencies_s": latencies},
                         errors=errors)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        SnoopFig13(), CovertSuite(), TracedCovert(), DefenseMonitor())
}
