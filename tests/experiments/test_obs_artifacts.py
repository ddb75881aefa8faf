"""--trace/--metrics/--profile artifacts from the experiments CLI.

The end-to-end observability contract: running an experiment with the
obs flags writes schema-valid trace/metrics files next to the table,
the Chrome trace is loadable, a crashed attempt's partial trace
never leaks into a retry's export, and tracing never changes the table.
"""

import json
import pathlib

import pytest

from repro import obs
from repro.experiments import table5
from repro.experiments.__main__ import main
from repro.experiments.runner import run_task
from repro.obs.exporters import validate_path, validate_paths


@pytest.fixture(autouse=True)
def clean_session():
    yield
    obs.uninstall()


def test_cli_trace_and_metrics_write_valid_artifacts(tmp_path, capsys):
    code = main(["table1", "--trace", "--metrics",
                 "--out", str(tmp_path)])
    assert code == 0
    artifacts = [tmp_path / "table1.trace.jsonl",
                 tmp_path / "table1.trace.json",
                 tmp_path / "table1.metrics.json"]
    assert all(p.exists() for p in artifacts)
    assert validate_paths(artifacts) == []
    out = capsys.readouterr().out
    for artifact in artifacts:
        assert str(artifact) in out
    # the session must not outlive the run
    assert obs.session() is None


def test_cli_profile_writes_stats(tmp_path, capsys):
    code = main(["table1", "--profile", "--out", str(tmp_path)])
    assert code == 0
    prof = tmp_path / "table1.prof.txt"
    assert prof.exists()
    assert "cumulative" in prof.read_text()
    # no obs flags -> no trace/metrics artifacts
    assert not (tmp_path / "table1.trace.jsonl").exists()


def test_table5_trace_is_chrome_loadable(tmp_path):
    """The acceptance bar: a Table V covert-channel run under --trace
    yields a Chrome-trace-event file that loads and carries the covert
    codec's spans (a tiny payload keeps the test fast; the CLI path is
    identical)."""
    outcome = run_task(
        "table5", 0, False, False, 0, str(tmp_path),
        registry={"table5": lambda seed=0: table5.run(payload_bits=16,
                                                      seed=seed)},
        trace=True, metrics=True,
    )
    assert outcome.ok, outcome.error
    chrome = tmp_path / "table5.trace.json"
    assert str(chrome) in outcome.extras
    assert validate_path(chrome) == []
    payload = json.loads(chrome.read_text())
    events = payload["traceEvents"]
    assert payload["displayTimeUnit"] == "ns"
    names = {e["name"] for e in events}
    threads = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "covert.bit" in names                    # codec instrumentation
    assert any(t.startswith("rnic.") for t in threads)
    assert any(e["ph"] == "X" for e in events)      # pipeline spans
    assert validate_path(tmp_path / "table5.metrics.json") == []


def test_retry_gets_a_fresh_session(tmp_path):
    """A crashed attempt's partial trace must not leak into the
    retry's export."""
    calls = []

    def flaky(seed=0):
        from repro.sim import Simulator
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        calls.append(seed)
        if len(calls) == 1:
            raise RuntimeError("first attempt dies after tracing")
        from repro.experiments.result import ExperimentResult
        return ExperimentResult(experiment="flaky", title="t",
                                rows=[{"v": 1}])

    outcome = run_task("flaky", 0, False, False, 1, str(tmp_path),
                       registry={"flaky": flaky}, trace=True)
    assert outcome.ok
    lines = (tmp_path / "flaky.trace.jsonl").read_text().splitlines()
    # exactly the second attempt's one dispatch record
    assert len(lines) == 1
    assert obs.session() is None


def test_failed_run_exports_nothing(tmp_path):
    def boom(seed=0):
        raise RuntimeError("dead")

    outcome = run_task("boom", 0, False, False, 0, str(tmp_path),
                       registry={"boom": boom}, trace=True, metrics=True)
    assert not outcome.ok
    assert outcome.extras == []
    assert not (tmp_path / "boom.trace.jsonl").exists()
    assert obs.session() is None


def test_report_flag_renders_markdown_next_to_the_table(tmp_path):
    outcome = run_task(
        "table5", 0, False, False, 0, str(tmp_path),
        registry={"table5": lambda seed=0: table5.run(payload_bits=16,
                                                      seed=seed)},
        trace=True, metrics=True, report=True,
    )
    assert outcome.ok, outcome.error
    report = tmp_path / "table5.report.md"
    assert str(report) in outcome.extras
    text = report.read_text()
    assert text.startswith("# repro run report")
    assert "## table5" in text
    assert "### Span latency" in text


def test_cli_report_flag(tmp_path):
    code = main(["table5", "--smoke", "--trace", "--report",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "table5.report.md").exists()


def test_trace_sample_writes_fewer_dispatch_records(tmp_path):
    registry = {"table5": lambda seed=0: table5.run(payload_bits=16,
                                                    seed=seed)}
    full = run_task("table5", 0, False, False, 0,
                    str(tmp_path / "full"), registry=registry, trace=True)
    sampled = run_task("table5", 0, False, False, 0,
                       str(tmp_path / "sampled"), registry=registry,
                       trace=True, trace_sample=100)
    assert full.ok and sampled.ok

    def dispatch_count(path):
        return sum(1 for line in path.read_text().splitlines()
                   if json.loads(line).get("cat") == "dispatch")

    full_count = dispatch_count(tmp_path / "full" / "table5.trace.jsonl")
    sampled_count = dispatch_count(
        tmp_path / "sampled" / "table5.trace.jsonl")
    # each tracer floors its own 1-in-100 count, so the merged total
    # sits just below full/100
    assert full_count // 100 - 10 <= sampled_count <= full_count // 100
    # both artifacts remain schema-valid
    assert validate_path(tmp_path / "sampled" / "table5.trace.jsonl") == []


def test_tracing_does_not_change_the_table(tmp_path):
    """Observing a run must not change what it computes: table5 at
    ``--smoke`` with sampled tracing and metrics renders byte-identical
    to the same run with obs off."""
    plain = run_task("table5", 0, True, False, 0, str(tmp_path / "plain"))
    traced = run_task("table5", 0, True, False, 0, str(tmp_path / "traced"),
                      trace=True, metrics=True, trace_sample=100)
    assert plain.ok and traced.ok
    assert not plain.extras
    assert (tmp_path / "traced" / "table5.metrics.json").exists()
    assert traced.table == plain.table
    assert (pathlib.Path(traced.path).read_bytes()
            == pathlib.Path(plain.path).read_bytes())
