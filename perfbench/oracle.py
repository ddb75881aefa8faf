"""Output digests and the recorded per-(workload, seed) oracle.

Every checked operation of a workload yields one digest: a SHA-256 over
a canonical encoding of what it produced (tables, series arrays,
verdicts, exported artifacts).  ``digests.json`` records the digests of
known-good runs per workload and seed, together with the platform they
were recorded on; floating-point NumPy kernels (the ResNet's BLAS
calls) may round differently on another CPU or NumPy build, so a run on
a different platform is checked as if no digests were recorded.

The committed ``results/*.txt`` tables are not an oracle: they round to
two decimals, and ``results/fig13.txt`` is stale (it reports
``centroid_accuracy 0.95``, while seed 0 gives 0.97 on both kernel
cores).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pathlib
import platform
from typing import Any, Optional

import numpy as np

DIGESTS_PATH = pathlib.Path(__file__).with_name("digests.json")


#: Object graphs deeper than this are identified by type only (series
#: may hold model objects that reference each other).
_MAX_DEPTH = 12


def _canonical(value: Any, depth: int = 0) -> Any:
    if depth > _MAX_DEPTH:
        return {"type": type(value).__qualname__}
    depth += 1
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        if data.dtype == object:
            return {"ndarray": [_canonical(v, depth)
                                for v in data.ravel().tolist()],
                    "shape": list(data.shape)}
        return {"ndarray": hashlib.sha256(data.tobytes()).hexdigest(),
                "dtype": data.dtype.str, "shape": list(data.shape)}
    if isinstance(value, np.generic):
        return _canonical(value.item(), depth)
    if isinstance(value, float):
        return {"float": value.hex()}
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {"dict": sorted(([_key(k), _canonical(v, depth)]
                                for k, v in value.items()),
                               key=lambda item: item[0])}
    if isinstance(value, (list, tuple)):
        return [_canonical(v, depth) for v in value]
    if isinstance(value, (set, frozenset)):
        return {"set": sorted(json.dumps(_canonical(v, depth), sort_keys=True)
                              for v in value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {type(value).__name__: {
            field.name: _canonical(getattr(value, field.name), depth)
            for field in dataclasses.fields(value)}}
    if hasattr(value, "__dict__"):
        return {type(value).__name__: _canonical(vars(value), depth)}
    # anything else is identified by type only: a default repr would
    # carry a per-process memory address
    return {"type": type(value).__qualname__}


def _key(key: Any) -> str:
    return json.dumps(_canonical(key), sort_keys=True)


def digest(*values: Any) -> str:
    """Short hex digest of a canonical encoding of ``values``."""
    encoded = json.dumps(_canonical(list(values)), sort_keys=True,
                         allow_nan=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


def platform_fingerprint() -> dict[str, str]:
    """What the recorded digests are valid for."""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(), "cpu": cpu}


class Oracle:
    """Recorded digests for one workload and seed (maybe none)."""

    def __init__(self, workload: str, seed: int, scale: str,
                 path: pathlib.Path = DIGESTS_PATH) -> None:
        self.path = path
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self._data = json.loads(path.read_text()) if path.exists() else {}
        recorded = self._data.get("fingerprint")
        self.platform_matches = recorded == platform_fingerprint()
        table = self._data.get("digests", {}).get(self._table_key(), {})
        self.expected: Optional[dict[str, str]] = (
            table.get(str(seed)) if self.platform_matches else None)

    def _table_key(self) -> str:
        return self.workload if self.scale == "default" else \
            f"{self.workload}@{self.scale}"

    @property
    def status(self) -> str:
        if self.expected is not None:
            return "recorded"
        if self._data and not self.platform_matches:
            return "unrecorded (digests were recorded on another platform)"
        return "unrecorded"

    def mismatches(self, outputs: dict[str, Optional[str]]) -> list[str]:
        """Operations whose digest differs from the recorded one."""
        if self.expected is None:
            return []
        return [op for op, value in outputs.items()
                if value is not None and self.expected.get(op) != value]

    def record(self, outputs: dict[str, str]) -> None:
        """Store ``outputs`` as the digests for this workload and seed."""
        if self._data and not self.platform_matches:
            raise RuntimeError(
                "digests.json was recorded on another platform; move it "
                "aside before recording here")
        self._data["fingerprint"] = platform_fingerprint()
        self.platform_matches = True
        seeds = self._data.setdefault("digests", {}).setdefault(
            self._table_key(), {})
        seeds[str(self.seed)] = dict(sorted(outputs.items()))
        self._data["digests"][self._table_key()] = dict(
            sorted(seeds.items(), key=lambda item: int(item[0])))
        self.path.write_text(json.dumps(self._data, indent=1,
                                        sort_keys=True) + "\n")
