"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload covert-suite --seed 3 \\
        --seconds 20 --trace 0

``--trace 0`` repeats the workload's fixed work with benchmark tracing
off until ``--seconds`` are used (at least once) and prints the
end-to-end metrics.  ``--trace 1`` runs the work once untraced and once
under :class:`perfbench.spans.SpanTracer` and prints the per-layer
metrics; the traced run must reproduce the untraced run's output
digests (observer-effect guard).  Every operation's output is checked
against the digests recorded for the workload and seed in
``perfbench/digests.json``; for a seed with none recorded, only crashes
and disagreements between repetitions (or between the traced and the
untraced run) count as failures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with provenance and digests, is written to ``perfbench/out/``.  The exit
status is 1 when any output check fails and 2 when the checkout holds no
``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("default", "tiny"),
                        default="default",
                        help="tiny: the self-tests' reduced inputs")
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the oracle for "
                             "the workload and seed")
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out"))
    parser.add_argument("--digests", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", default="", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def provenance() -> dict:
    """Which code and which engine produced a result."""
    import numpy as np

    from repro.sim import KERNEL_ENGINE

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "kernel_engine": KERNEL_ENGINE,
        "repro_env": {key: value for key, value in sorted(os.environ.items())
                      if key.startswith("REPRO_")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": source.hexdigest()[:16],
    }


def _time_setup_probes(args: argparse.Namespace) -> list[float]:
    """Set-up as a user pays it: a fresh interpreter importing the
    program and building the workload's inputs."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--probe-setup", "--workload", args.workload,
               "--seed", str(args.seed), "--scale", args.scale,
               "--out", args.out]
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(command, check=True, timeout=170,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return times


def _count_failures(ops: list[str], reps: list, reference: dict,
                    oracle) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over ``reps``: an operation fails
    when it crashed, differs from the recorded digest, or (with none
    recorded) differs from ``reference`` -- the first repetition, or the
    untraced run when checking the traced one."""
    attempted = failed = 0
    notes: list[str] = []
    for index, rep in enumerate(reps):
        mismatched = set(oracle.mismatches(rep.outputs))
        for op in ops:
            attempted += 1
            value = rep.outputs.get(op)
            if value is None:
                failed += 1
                notes.append(f"rep {index}: {op} crashed")
            elif op in mismatched:
                failed += 1
                notes.append(f"rep {index}: {op} differs from the "
                             f"recorded digest")
            elif oracle.expected is None and value != reference.get(op):
                failed += 1
                notes.append(f"rep {index}: {op} differs from the "
                             f"reference run")
    return attempted, failed, notes


def _corrupt(rep, op: str) -> None:
    """Self-test hook: flip one operation's output digest."""
    if op and rep.outputs.get(op) is not None:
        rep.outputs[op] = "corrupted-" + rep.outputs[op]


def _untraced(args, workload, workdir, oracle):
    from perfbench.metrics import END_TO_END, untraced_extras
    from perfbench.speed import SpeedProbe
    from perfbench.workloads import Ops

    reps = []
    with SpeedProbe() as speed:
        setup_times = _time_setup_probes(args)
        measuring = time.perf_counter()
        while True:
            state = workload.setup(args.seed, args.scale, workdir)
            reps.append(workload.run(state, Ops()))
            _corrupt(reps[-1], args.corrupt)
            walls = [rep.wall_s for rep in reps]
            if time.perf_counter() - measuring + statistics.median(walls) \
                    > args.seconds:
                break
    ops = workload.op_names(args.scale)
    attempted, failed, notes = _count_failures(ops, reps, reps[0].outputs,
                                               oracle)
    rates = [rep.items / rep.items_s for rep in reps if rep.items_s > 0]
    host = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        "items_per_s": statistics.median(rates) if rates else 0.0,
    }
    scale = speed.reference_scale
    metrics = {
        "setup_s": host["setup_s"] * scale,
        "wall_s": host["wall_s"] * scale,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": host["items_per_s"] / scale,
    }
    detail = {
        "host_metrics": host,
        "speed_scale": scale,
        "repetitions": len(reps),
        "rep_wall_s": [rep.wall_s for rep in reps],
        "setup_probe_s": setup_times,
        "speed_probe_median_s": speed.median_s,
        "speed_probe_samples_s": speed.samples,
        "untraced": untraced_extras(reps),
    }
    units = dict(END_TO_END)
    return reps, metrics, units, attempted, failed, notes, detail


def _traced(args, workload, workdir, oracle, spans_path):
    from perfbench.metrics import PER_LAYER, layer_metrics, untraced_extras
    from perfbench.spans import SpanTracer
    from perfbench.workloads import Ops

    untraced = workload.run(workload.setup(args.seed, args.scale, workdir),
                            Ops())
    state = workload.setup(args.seed, args.scale, workdir)
    with SpanTracer() as tracer:
        traced = workload.run(state, Ops(tracer=tracer))
    tracer.write_spans(spans_path)
    _corrupt(traced, args.corrupt)
    ops = workload.op_names(args.scale)
    attempted, failed, notes = _count_failures(
        ops, [untraced, traced], untraced.outputs, oracle)
    observer = [op for op in ops if traced.outputs.get(op) is not None and
                traced.outputs.get(op) != untraced.outputs.get(op)]
    metrics = layer_metrics(tracer, untraced.wall_s, traced.wall_s)
    metrics.update(untraced_extras([untraced]))
    for name in ("e2e.traces_per_s", "e2e.samples_per_s"):
        metrics[name] = (untraced.items / untraced.items_s
                         if name == workload.rate_metric and untraced.items_s
                         else 0.0)
    metrics["bench.spans"] = tracer.spans_recorded
    metrics["bench.traced_wall_s"] = traced.wall_s
    metrics["bench.tracing_overhead"] = (traced.wall_s / untraced.wall_s
                                        if untraced.wall_s else 0.0)
    detail = {
        "untraced_wall_s": untraced.wall_s,
        "observer_effect": observer,
        "spans_file": str(spans_path),
        "spans_kept": min(tracer.spans_recorded, tracer.span_cap),
        "span_stats": {name: {"calls": stat[0], "inclusive_s": stat[1],
                              "self_s": stat[2], "extra": stat[3]}
                       for name, stat in sorted(tracer.stats.items())},
    }
    return ([untraced, traced], metrics, dict(PER_LAYER), attempted,
            failed, notes, detail)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from the root of "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:1] = [str(ROOT), str(ROOT / "src")]
    from perfbench.oracle import Oracle
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out = pathlib.Path(args.out)
    workdir = out / f"work-{args.workload}-{os.getpid()}"
    if args.probe_setup:
        try:
            workload.setup(args.seed, args.scale, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    oracle = Oracle(args.workload, args.seed, args.scale,
                    **({"path": pathlib.Path(args.digests)}
                       if args.digests else {}))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
        "" if args.scale == "default" else f"-{args.scale}")
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = _traced(args, workload, workdir, oracle,
                             out / f"{stem}.spans.npz")
        else:
            result = _untraced(args, workload, workdir, oracle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reps, metrics, units, attempted, failed, notes, detail = result
    correct = failed == 0
    oracle_status = oracle.status
    if args.record:
        if not correct:
            print("perfbench: not recording digests of a failing run",
                  file=sys.stderr)
        else:
            oracle.record(reps[0].outputs)

    fail_ratio = failed / attempted if attempted else 1.0
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds,
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": fail_ratio,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "oracle": oracle_status,
        "digests": reps[0].outputs,
        "failures": notes,
        "errors": [error for rep in reps for error in rep.errors],
        "provenance": provenance(),
        **detail,
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for error in record["errors"]:
        print(error, file=sys.stderr)
    for note in notes:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"oracle {oracle_status}; "
          f"kernel {record['provenance']['kernel_engine']}")
    for name, value in metrics.items():
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:40s} {shown} {units[name]}")
    print(f"  {'fail_ratio':40s} {fail_ratio:.6g} ratio "
          f"({failed}/{attempted} operations)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
