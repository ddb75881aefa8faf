"""The process-wide session: install/uninstall, simulator
self-attachment, export, and cross-engine tracing equality."""

import json

import pytest

from repro import obs
from repro.sim import Simulator
from repro.sim.event import PyEventCore

CORES = [PyEventCore]
try:
    from repro.sim import _speedups
    CORES.append(_speedups.EventCore)
except ImportError:
    pass


@pytest.fixture(autouse=True)
def clean_session():
    yield
    obs.uninstall()


def test_accessors_are_none_without_a_session():
    obs.uninstall()
    sim = Simulator()
    assert obs.session() is None
    assert obs.tracer_for(sim) is None
    assert obs.registry() is None
    assert obs.engine_tracer(object(), "verbs") is None


def test_simulators_self_attach_while_tracing():
    session = obs.install(trace=True)
    sim = Simulator()
    tracer = obs.tracer_for(sim)
    assert tracer is not None
    assert tracer.component == "sim0"
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert [e.category for e in tracer.events] == ["dispatch"]
    assert session.stats()["events"] == 1


def test_attach_is_idempotent_and_per_simulator():
    obs.install(trace=True)
    first, second = Simulator(), Simulator()
    obs.attach_simulator(first)                     # re-attach: no-op
    a, b = obs.tracer_for(first), obs.tracer_for(second)
    assert a is not b
    assert (a.component, b.component) == ("sim0", "sim1")
    first.schedule(1.0, lambda: None)
    first.run()
    assert len(a.events) == 1 and len(b.events) == 0


def test_metrics_only_session_skips_tracers():
    session = obs.install(metrics=True)
    sim = Simulator()
    assert obs.tracer_for(sim) is None
    assert obs.registry() is session.metrics is not None


def test_register_rnic_exposes_counters_as_collector():
    obs.install(metrics=True)

    class FakeCounters:
        def snapshot(self):
            return {"tx_bytes": 42}

    class FakeRnic:
        name = "server"
        counters = FakeCounters()

    obs.register_rnic(FakeRnic())
    snap = obs.registry().snapshot()
    assert snap["rnic.server"]["tx_bytes"]["value"] == 42.0


def test_max_events_cap_flows_through_to_tracers():
    obs.install(trace=True, max_events=3)
    sim = Simulator()
    for t in range(10):
        sim.schedule(float(t + 1), lambda: None)
    sim.run()
    tracer = obs.tracer_for(sim)
    assert len(tracer.events) == 3
    assert tracer.dropped == 7
    assert obs.session().stats()["dropped"] == 7


def test_events_merge_sorted_across_tracers():
    session = obs.install(trace=True)
    sim = Simulator()
    obs.tracer_for(sim).instant("late", ts=50.0)
    engine = type("E", (), {"now": 0.0})()
    obs.engine_tracer(engine, "verbs.immediate").instant("early", ts=10.0)
    assert [e.name for e in session.events()] == ["early", "late"]


def test_export_writes_the_enabled_artifact_set(tmp_path):
    session = obs.install(trace=True, metrics=True)
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    obs.registry().counter("sim", "events").inc()
    paths = session.export(tmp_path, "run")
    assert [p.name for p in paths] == \
        ["run.trace.jsonl", "run.trace.json", "run.metrics.json"]
    from repro.obs.exporters import validate_paths
    assert validate_paths(paths) == []
    payload = json.loads((tmp_path / "run.trace.json").read_text())
    assert payload["traceEvents"]

    metrics_only = obs.install(metrics=True)
    assert [p.name for p in metrics_only.export(tmp_path, "m")] == \
        ["m.metrics.json"]


def test_export_omits_trace_files_when_nothing_was_traced(tmp_path):
    """A traced session that recorded no events (pure fluid-flow
    experiments never build a simulator) must not emit empty —
    i.e. schema-invalid — trace files."""
    session = obs.install(trace=True, metrics=True)
    paths = session.export(tmp_path, "quiet")
    assert [p.name for p in paths] == ["quiet.metrics.json"]
    assert not (tmp_path / "quiet.trace.jsonl").exists()


def _drive(sim) -> None:
    """A nested-scheduling workload whose callback qualnames are
    engine-independent (same function objects for every core)."""
    def tick(depth):
        if depth < 3:
            sim.schedule(7.0, tick, depth + 1)

    sim.schedule(10.0, tick, 0)
    sim.schedule(10.0, tick, 3, priority=2)
    sim.run()


def test_cross_engine_dispatch_traces_are_identical(cross_engine_classes):
    """The C and pure-Python cores must feed the obs tracer identical
    records through the shared dispatch-hook surface."""
    records = {}
    for name, sim_class in cross_engine_classes.items():
        obs.install(trace=True)
        sim = sim_class()
        _drive(sim)
        tracer = obs.tracer_for(sim)
        records[name] = [
            (e.name, e.phase, e.ts, e.component, e.category, e.args)
            for e in tracer.events
        ]
        obs.uninstall()
    reference = next(iter(records.values()))
    assert len(reference) == 5
    for name, outcome in records.items():
        assert outcome == reference, name


def test_cross_engine_tracing_preserves_digest_equality(cross_engine_classes):
    """Hook multiplexing (digest + obs tracer together) must not break
    the engines' trace-digest agreement."""
    digests = {}
    for name, sim_class in cross_engine_classes.items():
        obs.install(trace=True)
        sim = sim_class(trace=True)
        _drive(sim)
        digests[name] = sim.trace_digest
        obs.uninstall()
    assert len(set(digests.values())) == 1, digests
