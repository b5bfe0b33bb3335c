"""Machine-readable benchmark records.

Benchmark results are appended to JSON files at the repository root
(``BENCH_kernel.json`` for single-cell kernel latencies,
``BENCH_sweep.json`` for batch sweep throughput, and
``BENCH_service.json`` for the HTTP service tier — round-trip
latency and load-generator saturation sweeps) so the performance
trajectory of the simulator is versioned alongside its code.  Each
file is a single JSON object::

    {"schema": 1, "records": [ {...}, {...} ]}

and every record carries the benchmark name, an ISO-8601 UTC
timestamp, the parameters it ran with, and a flat ``metrics`` mapping
of floats.  Appends are read-modify-write: history is never
truncated, so plotting the trajectory is one ``json.load`` away.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Union

from ..errors import ReproError

__all__ = [
    "SCHEMA_VERSION",
    "BENCH_TARGETS",
    "BenchRecord",
    "append_records",
    "load_bench_file",
    "validate_bench_payload",
]

SCHEMA_VERSION = 1

BENCH_TARGETS = ("kernel", "sweep", "service")
"""Valid ``BenchRecord.target`` values, one ``BENCH_<t>.json`` each."""


@dataclass
class BenchRecord:
    """One benchmark observation.

    ``target`` picks the output file (one of :data:`BENCH_TARGETS`);
    it is not serialized.
    """

    bench: str
    target: str
    params: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    quick: bool = False

    def to_dict(self) -> dict:
        return {
            "bench": self.bench,
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "quick": self.quick,
            "host": {
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            "params": dict(self.params),
            "metrics": {k: round(float(v), 6)
                        for k, v in self.metrics.items()},
        }


def validate_bench_payload(payload: object, path: str = "<payload>") -> None:
    """Raise :class:`ReproError` unless ``payload`` matches the schema."""
    if not isinstance(payload, dict):
        raise ReproError(f"{path}: bench file must be a JSON object")
    if payload.get("schema") != SCHEMA_VERSION:
        raise ReproError(
            f"{path}: unsupported bench schema {payload.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    records = payload.get("records")
    if not isinstance(records, list):
        raise ReproError(f"{path}: 'records' must be a list")
    for index, record in enumerate(records):
        where = f"{path}: records[{index}]"
        if not isinstance(record, dict):
            raise ReproError(f"{where} must be an object")
        for key in ("bench", "timestamp", "params", "metrics"):
            if key not in record:
                raise ReproError(f"{where} missing required key {key!r}")
        if not isinstance(record["metrics"], dict):
            raise ReproError(f"{where}: 'metrics' must be an object")
        for name, value in record["metrics"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ReproError(
                    f"{where}: metric {name!r} must be a number"
                )


def load_bench_file(path: Union[str, Path]) -> dict:
    """Load and validate a bench file; empty skeleton if absent."""
    path = Path(path)
    if not path.exists():
        return {"schema": SCHEMA_VERSION, "records": []}
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path}: not valid JSON ({exc})") from exc
    validate_bench_payload(payload, str(path))
    return payload


def _indent_of(path: Path) -> int:
    """The indent width an existing bench file uses (2 for a new or
    single-line one), so an append rewrites only the lines it adds."""
    try:
        second = path.read_text().split("\n", 2)[1]
    except (OSError, IndexError):
        return 2
    return len(second) - len(second.lstrip(" ")) or 2


def append_records(out_dir: Union[str, Path],
                   records: List[BenchRecord]) -> List[Path]:
    """Append records to their target files under ``out_dir``.

    Returns the paths written.  Existing history is preserved, at the
    file's own indent; a corrupt existing file raises rather than
    being overwritten.
    """
    out_dir = Path(out_dir)
    by_target: Dict[str, List[BenchRecord]] = {}
    for record in records:
        if record.target not in BENCH_TARGETS:
            raise ReproError(
                f"unknown bench target {record.target!r} "
                f"(expected one of {', '.join(BENCH_TARGETS)})"
            )
        by_target.setdefault(record.target, []).append(record)
    written = []
    for target, group in sorted(by_target.items()):
        path = out_dir / f"BENCH_{target}.json"
        payload = load_bench_file(path)
        payload["records"].extend(r.to_dict() for r in group)
        path.write_text(json.dumps(payload, indent=_indent_of(path)) + "\n")
        written.append(path)
    return written
