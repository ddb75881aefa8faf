"""Self-tests of the benchmark, at the ``tiny`` scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench import compare, metrics, spans
from perfbench.workloads import WORKLOADS, Ops

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def _run(tmp_path, workload, *extra, trace=0, seed=3):
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(seed), "--seconds", "0.1", "--trace",
               str(trace), "--scale", "tiny", "--out", str(tmp_path / "out"),
               "--digests", str(tmp_path / "digests.json"), *extra]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=170, cwd=ROOT)
    result = json.loads(done.stdout.strip().splitlines()[-1]) \
        if done.stdout.strip() else None
    return done.returncode, result, done


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        metrics.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(tmp_path, workload,
                                                    trace):
    code, result, done = _run(tmp_path, workload, trace=trace)
    assert code == 0, done.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"  {name}" in done.stdout and unit in done.stdout
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_corrupted_output_raises_fail_ratio(tmp_path):
    code, result, _ = _run(tmp_path, "defense-monitor", "--record")
    assert code == 0 and result["failed"] == 0
    code, result, done = _run(tmp_path, "defense-monitor",
                              "--corrupt", "tick040")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "differs from the recorded digest" in done.stderr
    record = json.loads(
        (tmp_path / "out" / "defense-monitor-seed3-trace0-tiny.json")
        .read_text())
    assert record["fail_ratio"] == result["failed"] / result["attempted"]


def test_traced_run_must_reproduce_untraced_digests(tmp_path):
    # no digests recorded for this seed: only the observer guard can fail
    code, result, done = _run(tmp_path, "covert-suite", "--corrupt",
                              "fig5", trace=1, seed=7)
    assert code == 1 and result["failed"] == 1
    assert "fig5 differs from the reference run" in done.stderr


def test_count_metrics_repeat_across_traced_runs(tmp_path):
    counts = []
    for _ in range(2):
        code, result, done = _run(tmp_path, "covert-suite", trace=1)
        assert code == 0, done.stderr
        counts.append({name: entry["value"] for name, entry in
                       result["metrics"].items()
                       if entry["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["sim.events"] > 0 and counts[0]["bench.spans"] > 0


def _namespaces():
    from repro.sim.kernel import Simulator

    owners = [Simulator]
    for module in spans._layer_modules():
        owners.append(module)
        owners.extend(value for value in vars(module).values()
                      if isinstance(value, type))
    return {id(owner): dict(vars(owner)) for owner in owners}


def test_wrappers_restore_the_original_functions(tmp_path):
    before = _namespaces()
    workload = WORKLOADS["covert-suite"]
    state = workload.setup(0, "tiny", tmp_path)
    with spans.SpanTracer() as tracer:
        rep = workload.run(state, Ops(tracer=tracer))
    assert all(rep.outputs.values()) and tracer.events > 0
    after = _namespaces()
    assert before.keys() == after.keys()
    for owner_id, namespace in before.items():
        restored = after[owner_id]
        assert namespace.keys() == restored.keys()
        assert all(namespace[key] is restored[key] for key in namespace)


def test_self_time_from_kept_spans_matches_online_self_time(tmp_path):
    workload = WORKLOADS["snoop-fig13"]
    state = workload.setup(0, "tiny", tmp_path)
    with spans.SpanTracer(span_cap=10_000_000) as tracer:
        workload.run(state, Ops(tracer=tracer))
    path = tmp_path / "spans.npz"
    tracer.write_spans(path)
    import numpy as np

    with np.load(path) as kept:
        assert int(kept["total"]) == tracer.spans_recorded
        derived = spans.self_times_from_log(dict(kept))
    assert derived.keys() == {name for name, stat in tracer.stats.items()
                              if stat[0] and name not in spans.COUNT_ONLY}
    for name, seconds in derived.items():
        assert seconds == pytest.approx(tracer.stats[name][2], abs=1e-9)


def test_nonzero_exit_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "covert-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_refuses_different_kernel_cores(tmp_path, capsys):
    result = {"workload": "covert-suite", "seed": 1, "scale": "default",
              "trace": 0, "metrics": {"wall_s": {"value": 2.0, "unit": "s"}},
              "provenance": {"kernel_engine": "python", "repro_env": {}}}
    other = json.loads(json.dumps(result))
    other["metrics"]["wall_s"]["value"] = 1.0
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(json.dumps(result))
    paths[1].write_text(json.dumps(other))
    assert compare.main([str(p) for p in paths]) == 0
    assert "0.5000" in capsys.readouterr().out
    other["provenance"]["kernel_engine"] = "c"
    paths[1].write_text(json.dumps(other))
    assert compare.main([str(p) for p in paths]) == 2
    assert "kernel_engine" in capsys.readouterr().err
