"""Frozen event stream of the per-message RNIC pipeline.

``golden/pipeline_dispatch.json`` holds, for one fixed mixed workload
(every shape of :mod:`tests.rnic.pipeline_scenarios`, fixed seed), the
kernel's determinism ``trace_digest`` and the sorted set of dispatch
labels that fired.  The kernel digest, the ``repro.obs`` tracer and
the benchmark's span tracer all name an event by its callback's
``__qualname__``, so the pipeline's stage labels
(``RNIC.post_send.<locals>.stage_*``) are part of the trace-artifact
format; the digest additionally pins every event's time and priority.
The workload runs under the pure-Python core and under the C core
(built into a temp dir by ``tests/conftest.py`` when no in-place
build exists).

Regenerate (only for a deliberate behaviour change) with::

    PYTHONPATH=src:. python tests/rnic/test_pipeline_golden.py --record
"""

import json
import pathlib
import sys

import pytest

from repro.host import Cluster
from repro.sim.event import PyEventCore
from repro.sim.kernel import make_simulator_class
from tests.rnic.pipeline_scenarios import SHAPES

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "pipeline_dispatch.json"
SEED = 5
MESSAGES_PER_SHAPE = 24

CORES = [PyEventCore]
try:
    from repro.sim import _speedups
    CORES.append(_speedups.EventCore)
except ImportError:
    pass


def run_workload(sim_class) -> dict:
    cluster = Cluster(seed=SEED)
    cluster.sim = sim = sim_class(seed=SEED)
    labels = set()

    def collect(time, priority, callback):
        labels.add(getattr(callback, "__qualname__", type(callback).__name__))

    sim.enable_tracing()
    sim.add_dispatch_hook(collect)
    for shape, drive in sorted(SHAPES.items()):
        drive(cluster, shape, MESSAGES_PER_SHAPE)
    return {"events": sim.events_fired, "labels": sorted(labels),
            "trace_digest": sim.trace_digest}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_names_every_pipeline_stage(golden):
    stages = {label.rsplit(".", 1)[1] for label in golden["labels"]
              if label.startswith("RNIC.post_send.<locals>.")}
    assert stages == {
        "stage_fetch", "stage_txpu", "stage_wire_out", "stage_retry",
        "stage_responder_rx", "stage_translate", "stage_data",
        "stage_response", "stage_wire_back", "stage_requester_rx",
        "stage_complete",
    }


def test_python_core_matches_golden(golden):
    assert run_workload(make_simulator_class(PyEventCore)) == golden


def test_c_core_matches_golden(golden, c_event_core):
    core = CORES[1] if len(CORES) > 1 else c_event_core
    if core is None:
        pytest.skip("no C compiler to build the C core")
    assert run_workload(make_simulator_class(core)) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_pipeline_golden.py --record")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        run_workload(make_simulator_class(PyEventCore)),
        indent=1, sort_keys=True) + "\n")
