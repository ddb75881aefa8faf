"""repro.obs.fleet — the merged fleet view and SLO evaluation.

Every experiment run with ``--fleet-metrics`` writes its own
``<name>.metrics.json``; after the batch this package folds those
files into one fleet view.  Serial and ``--jobs`` runs take the same
path, so their fleet artifacts are byte-identical:

* :mod:`repro.obs.fleet.merge` — exact, byte-stable snapshot merge
  arithmetic (counters/gauges sum, histograms merge bucket-by-bucket;
  no t-digest approximation);
* :mod:`repro.obs.fleet.aggregator` — :func:`write_fleet_artifacts`,
  the post-batch pass that writes ``fleet_metrics.json``,
  ``fleet_snapshots.jsonl`` and, with a spec, ``slo_report.json``;
* :mod:`repro.obs.fleet.slo` — declarative :class:`SloSpec` objectives
  (latency percentiles, error budgets) with multi-window burn-rate
  alerting via :class:`SloEngine`.

See docs/OBSERVABILITY.md ("Fleet telemetry & SLOs") for the artifact
shapes and the determinism contract.
"""

from .aggregator import collect_task_snapshots, write_fleet_artifacts
from .merge import FleetMergeError, merge_rows, merge_snapshots
from .slo import (
    BurnWindow,
    SloEngine,
    SloObjective,
    SloSpec,
    SloSpecError,
    evaluate_snapshots,
    histogram_quantile,
    load_spec,
)

__all__ = [
    "BurnWindow",
    "FleetMergeError",
    "SloEngine",
    "SloObjective",
    "SloSpec",
    "SloSpecError",
    "collect_task_snapshots",
    "evaluate_snapshots",
    "histogram_quantile",
    "load_spec",
    "merge_rows",
    "merge_snapshots",
    "write_fleet_artifacts",
]
