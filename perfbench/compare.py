"""Compare two benchmark result files metric by metric.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's base value, new value and new/base ratio.  Results
that ran on different kernel cores (``repro.sim.KERNEL_ENGINE``), with
different ``REPRO_*`` overrides, or on different workloads, seeds or
scales are refused with exit status 2: their timings measure different
engines or different inputs.
"""

from __future__ import annotations

import json
import pathlib
import sys

#: Result fields that must agree before two results are comparable.
MUST_MATCH = ("workload", "seed", "scale", "trace")
PROVENANCE_MUST_MATCH = ("kernel_engine", "repro_env")


def refusal(base: dict, new: dict) -> str:
    """Why ``base`` and ``new`` may not be compared ("" if they may)."""
    for key in MUST_MATCH:
        if base.get(key) != new.get(key):
            return f"{key} differs: {base.get(key)!r} vs {new.get(key)!r}"
    for key in PROVENANCE_MUST_MATCH:
        ours, theirs = base["provenance"].get(key), new["provenance"].get(key)
        if ours != theirs:
            return f"provenance {key} differs: {ours!r} vs {theirs!r}"
    return ""


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    reason = refusal(base, new)
    if reason:
        print(f"perfbench: refusing to compare: {reason}", file=sys.stderr)
        return 2
    for name, entry in base["metrics"].items():
        other = new["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / entry["value"] if entry["value"] else 0.0
        print(f"{name:40s} {entry['value']:14.6g} {other['value']:14.6g} "
              f"{ratio:8.4f} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
