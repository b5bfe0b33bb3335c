"""Content-addressed, persistent experiment-result store.

Every completed experiment is a pure function of its fully-resolved
:class:`~repro.core.experiment.ExperimentSpec`, so results are cached
under a *spec key*: a SHA-256 digest of the canonical JSON encoding of
the normalized spec.  A :class:`ResultStore` keeps two tiers:

memory tier
    A plain dict, always present.  This is what the old module-level
    ``_RESULT_CACHE`` in :mod:`repro.core.experiment` used to be; it is
    now the first tier of the process-wide default store.

disk tier (optional)
    A directory of one JSON record per result, named ``<key>.json``.
    Records are schema-versioned, written atomically (temp file +
    ``os.replace`` so concurrent writers can never expose a torn file),
    and validated on read — a corrupt or stale-schema record is treated
    as a miss and counted in :attr:`StoreStats`, never raised to the
    caller.

The store also owns the result<->dict codecs
(:func:`result_to_dict` / :func:`result_from_dict`);
:mod:`repro.analysis.persist` re-exports them for archival files.  It
owns the wire encoding of a stored result too: the compact JSON bytes
of :func:`result_to_dict` are built at most once per key
(:meth:`ResultStore.encoded_by_key`), kept beside the memory-tier
entry, and reused both for the disk record and for every ``GET
/results/<key>`` the service answers.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from ..errors import ConfigurationError, ReproError
from .experiment import (SPEC_KEY_VERSION, ChipSummary, ExperimentResult,
                         ExperimentSpec, plan, spec_from_dict)
from .metrics import VMMetrics
from .mixes import Mix

__all__ = [
    "RESULT_FORMAT_VERSION",
    "STORE_SCHEMA_VERSION",
    "SPEC_KEY_VERSION",
    "spec_key",
    "result_to_dict",
    "result_from_dict",
    "StoreStats",
    "ResultStore",
    "get_default_store",
    "set_default_store",
]

RESULT_FORMAT_VERSION = 1
"""Version of the result<->dict codec (``format_version`` field)."""

STORE_SCHEMA_VERSION = 1
"""Version of the on-disk store record envelope."""

# ----------------------------------------------------------------------
# spec keying
# ----------------------------------------------------------------------

def spec_key(spec) -> str:
    """Stable content key of one experiment (an :class:`ExperimentSpec`
    or its :class:`~repro.core.experiment.RunPlan`, which computed the
    key once): a digest of ``SPEC_KEY_VERSION`` and the resolved spec,
    so specs that resolve to the same run key identically."""
    return plan(spec).key


# ----------------------------------------------------------------------
# result <-> dict codecs (moved here from analysis.persist)
# ----------------------------------------------------------------------

def result_to_dict(result: ExperimentResult) -> dict:
    """A JSON-serializable dict capturing the full result."""
    return {
        "format_version": RESULT_FORMAT_VERSION,
        "spec": dataclasses.asdict(result.spec),
        "mix": {
            "name": result.mix.name,
            "components": [list(c) for c in result.mix.components],
        },
        "vm_metrics": [dataclasses.asdict(vm) for vm in result.vm_metrics],
        "final_time": result.final_time,
        "chip_summary": dataclasses.asdict(result.chip_summary),
        "occupancy": [
            {str(vm): lines for vm, lines in domain.items()}
            for domain in result.occupancy
        ],
        "residency": [sorted(domain) for domain in result.residency],
        "domain_lines": result.domain_lines,
        "assignments": result.assignments,
    }


def result_from_dict(payload: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict`
    output."""
    version = payload.get("format_version")
    if version != RESULT_FORMAT_VERSION:
        raise ReproError(
            f"unsupported result format version {version!r} "
            f"(expected {RESULT_FORMAT_VERSION})"
        )
    spec = spec_from_dict(payload["spec"])
    mix_payload = payload["mix"]
    mix = Mix(
        mix_payload["name"],
        tuple((workload, count) for workload, count in mix_payload["components"]),
    )
    return ExperimentResult(
        spec=spec,
        mix=mix,
        vm_metrics=[VMMetrics(**vm) for vm in payload["vm_metrics"]],
        final_time=payload["final_time"],
        chip_summary=ChipSummary(**payload["chip_summary"]),
        occupancy=[
            {int(vm): lines for vm, lines in domain.items()}
            for domain in payload["occupancy"]
        ],
        residency=[set(domain) for domain in payload["residency"]],
        domain_lines=payload["domain_lines"],
        assignments=[list(cores) for cores in payload.get("assignments", [])],
    )


def _encode(result: ExperimentResult) -> bytes:
    """The compact JSON bytes of one result (the C encoder: no indent)."""
    return json.dumps(result_to_dict(result)).encode("utf-8")


# ----------------------------------------------------------------------
# atomic multi-process-safe publication
# ----------------------------------------------------------------------

_TMP_COUNTER = itertools.count()


def _atomic_write(final_path: Path, payload: Union[str, bytes]) -> None:
    """Publish ``payload`` at ``final_path`` atomically.

    The temp name embeds the writer's pid and a process-local counter,
    so any number of concurrent writers — threads of one service
    process or entirely separate processes sharing a store directory —
    write distinct temp files and race only on the final ``os.replace``,
    which is atomic: readers see the old complete file or the new
    complete file, never a torn one.
    """
    tmp_path = final_path.with_name(
        f".{final_path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")
    try:
        with open(tmp_path, "wb" if isinstance(payload, bytes) else "w") \
                as handle:
            handle.write(payload)
        os.replace(tmp_path, final_path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

@dataclasses.dataclass
class StoreStats:
    """Hit/miss accounting of one :class:`ResultStore`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    schema_mismatches: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


class ResultStore:
    """Two-tier (memory + optional disk) experiment-result cache.

    The store is the one owner of a stored result's encoding: beside
    each memory-tier entry it keeps the result's compact JSON bytes
    once they are built (:meth:`encoded_by_key`), and a disk-backed
    store writes its records from those same bytes.

    Parameters
    ----------
    path:
        Directory for the persistent tier; ``None`` keeps the store
        memory-only.  The directory is created on first use.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` hub; when set,
        ``store.*`` counters mirror :attr:`StoreStats` so sweeps and
        profiles can report cache behaviour alongside executor spans.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None,
                 telemetry=None):
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists() \
                and not self.path.is_dir():
            raise ConfigurationError(
                f"result store path {self.path} exists and is not a "
                f"directory"
            )
        if telemetry is None:
            from ..obs.telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self._memory: Dict[str, ExperimentResult] = {}
        self._encoded: Dict[str, bytes] = {}
        self._memory_series: Dict[str, dict] = {}
        self.stats = StoreStats()
        self.telemetry = telemetry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.path) if self.path else "memory-only"
        return f"ResultStore({where}, {len(self._memory)} in memory)"

    # -- lookup --------------------------------------------------------

    def get(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        """Return the stored result for ``spec``, or ``None`` on miss.

        A disk hit is promoted into the memory tier.  Corrupt and
        stale-schema records count as misses.
        """
        return self.get_by_key(spec_key(spec))

    def get_by_key(self, key: str) -> Optional[ExperimentResult]:
        """Return the stored result for a raw spec key, or ``None``.

        The service's ``GET /results/<key>`` endpoint reads through
        this: callers hold keys (from job records), not specs.  Hit
        and miss accounting matches :meth:`get`.
        """
        hit = self._memory.get(key)
        if hit is not None:
            self.stats.memory_hits += 1
            self.telemetry.counter("store.memory_hits").inc()
            return hit
        result = self._read_record(key)
        if result is not None:
            self.stats.disk_hits += 1
            self.telemetry.counter("store.disk_hits").inc()
            self._memory[key] = result
            return result
        self.stats.misses += 1
        self.telemetry.counter("store.misses").inc()
        return None

    def encoded_by_key(self, key: str) -> Optional[bytes]:
        """The stored result for a raw spec key as compact JSON bytes
        (``json.dumps(result_to_dict(result))``), or ``None``.

        What ``GET /results/<key>`` sends.  The bytes are built at most
        once per key and kept beside the memory-tier entry — safe
        because a key's result is deterministic — until
        :meth:`clear_memory` or a later :meth:`put` of the key.  Hit
        and miss accounting matches :meth:`get_by_key`.
        """
        result = self.get_by_key(key)
        if result is None:
            return None
        encoded = self._encoded.get(key)
        if encoded is None:
            encoded = self._encoded[key] = _encode(result)
        return encoded

    def __contains__(self, spec: ExperimentSpec) -> bool:
        key = spec_key(spec)
        if key in self._memory:
            return True
        return self.path is not None and self._record_path(key).exists()

    def __len__(self) -> int:
        """Number of results in the memory tier."""
        return len(self._memory)

    # -- insertion -----------------------------------------------------

    def put(self, spec: ExperimentSpec, result: ExperimentResult) -> str:
        """Store ``result`` under ``spec``'s key; returns the key.

        A disk-backed store encodes the result once, for its record and
        for :meth:`encoded_by_key`; a memory-only store leaves the
        encoding until the result is first asked for as bytes.
        """
        key = spec_key(spec)
        self._memory[key] = result
        if self.path is None:
            self._encoded.pop(key, None)
        else:
            encoded = self._encoded[key] = _encode(result)
            self._write_record(key, encoded)
        self.stats.writes += 1
        self.telemetry.counter("store.writes").inc()
        return key

    # -- telemetry time-series sidecars --------------------------------

    def put_series(self, spec: ExperimentSpec, series: dict) -> str:
        """Store an epoch time-series alongside ``spec``'s result.

        ``series`` is the JSON form produced by
        :func:`repro.obs.series.series_to_dict`.  Series are kept as
        ``<key>.series.json`` sidecar files (disk tier) or a parallel
        memory dict — *outside* the result record, so the result codec
        and spec keys are byte-identical with telemetry on or off.
        """
        key = spec_key(spec)
        self._memory_series[key] = series
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            payload = json.dumps({
                "store_schema": STORE_SCHEMA_VERSION,
                "spec_key": key,
                "series": series,
            }, indent=2)
            _atomic_write(self._series_path(key), payload)
        return key

    def get_series(self, spec: ExperimentSpec) -> Optional[dict]:
        """The stored time-series for ``spec``, or ``None``.

        A torn or corrupt sidecar is treated exactly like a corrupt
        result record in :meth:`get`: counted (``stats.corrupt`` /
        ``stats.schema_mismatches`` and the matching ``store.*``
        telemetry counters) and reported as a miss, never raised.
        """
        key = spec_key(spec)
        hit = self._memory_series.get(key)
        if hit is not None:
            return hit
        if self.path is None:
            return None
        try:
            raw = self._series_path(key).read_text()
        except OSError:
            return None
        try:
            record = json.loads(raw)
            if not isinstance(record, dict):
                raise ValueError("series record is not an object")
        except (json.JSONDecodeError, ValueError):
            self._count_corrupt()
            return None
        if record.get("store_schema") != STORE_SCHEMA_VERSION:
            self.stats.schema_mismatches += 1
            self.telemetry.counter("store.schema_mismatches").inc()
            return None
        series = record.get("series")
        if record.get("spec_key") != key or not isinstance(series, dict):
            self._count_corrupt()
            return None
        self._memory_series[key] = series
        return series

    def _series_path(self, key: str) -> Path:
        assert self.path is not None
        return self.path / f"{key}.series.json"

    # -- maintenance ---------------------------------------------------

    def clear_memory(self) -> None:
        """Drop the memory tier and its encoded bytes (the disk tier is
        untouched)."""
        self._memory.clear()
        self._encoded.clear()
        self._memory_series.clear()

    def disk_keys(self) -> Iterator[str]:
        """Keys of every record currently in the disk tier."""
        if self.path is None or not self.path.is_dir():
            return iter(())
        return (
            entry.stem
            for entry in sorted(self.path.glob("*.json"))
            if not entry.name.endswith(".series.json")
        )

    # -- disk tier internals -------------------------------------------

    def _record_path(self, key: str) -> Path:
        assert self.path is not None
        return self.path / f"{key}.json"

    def _read_record(self, key: str) -> Optional[ExperimentResult]:
        if self.path is None:
            return None
        record_path = self._record_path(key)
        try:
            raw = record_path.read_text()
        except OSError:
            return None
        try:
            record = json.loads(raw)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
        except (json.JSONDecodeError, ValueError):
            self._count_corrupt()
            return None
        if record.get("store_schema") != STORE_SCHEMA_VERSION:
            self.stats.schema_mismatches += 1
            self.telemetry.counter("store.schema_mismatches").inc()
            return None
        if record.get("spec_key") != key:
            self._count_corrupt()
            return None
        try:
            return result_from_dict(record["result"])
        except (ReproError, KeyError, TypeError, ValueError):
            self._count_corrupt()
            return None

    def _count_corrupt(self) -> None:
        self.stats.corrupt += 1
        self.telemetry.counter("store.corrupt").inc()

    def _write_record(self, key: str, encoded: bytes) -> None:
        """Write the record ``{"store_schema", "spec_key", "result"}``
        around an already encoded result."""
        assert self.path is not None
        self.path.mkdir(parents=True, exist_ok=True)
        head = (f'{{"store_schema": {STORE_SCHEMA_VERSION}, '
                f'"spec_key": {json.dumps(key)}, "result": ')
        _atomic_write(self._record_path(key),
                      head.encode("utf-8") + encoded + b"}")


# ----------------------------------------------------------------------
# the process-wide default store
# ----------------------------------------------------------------------

_default_store = ResultStore()


def get_default_store() -> ResultStore:
    """The store :func:`repro.core.experiment.run_experiment` uses when
    none is passed explicitly."""
    return _default_store


def set_default_store(store: ResultStore) -> ResultStore:
    """Replace the process-wide default store; returns the old one."""
    global _default_store
    previous = _default_store
    _default_store = store
    return previous
