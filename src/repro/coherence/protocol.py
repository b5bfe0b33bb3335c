"""Functional MOESI directory protocol.

:class:`CoherenceController` resolves last-level-cache domain misses:
given ``(block, requesting domain, read/write)`` it decides where the
data comes from (memory, a clean remote cache, or a dirty remote cache),
which remote domains must be invalidated, and updates the directory.
It is purely *functional* — latency composition (hops to the home tile,
directory-cache timing, queueing) lives in the machine model, which
receives everything it needs in the returned :class:`FetchOutcome`.

The clean/dirty distinction matters because the paper's Table II
characterizes workloads by the fraction of misses served by
cache-to-cache transfers and how many of those transfers carry dirty
data; TPC-H's heavy join/merge synchronization makes most of its
transfers dirty, while SPECjbb/SPECweb mostly move read-shared (clean)
lines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from ..errors import CoherenceError
from .directory import Directory, DirectoryEntry
from .states import DirState

__all__ = ["DataSource", "FetchOutcome", "CoherenceStats", "CoherenceController"]


class DataSource(enum.IntEnum):
    """Where the data for a domain miss comes from."""

    MEMORY = 0
    C2C_CLEAN = 1
    C2C_DIRTY = 2
    NONE = 3  # upgrade: requester already has current data


class FetchOutcome(NamedTuple):
    """Result of resolving one domain-level miss or upgrade.

    Attributes
    ----------
    source:
        Data provenance (memory / clean c2c / dirty c2c / none).
    provider_domain:
        Domain that supplies the data for c2c sources (routing target);
        -1 for memory or upgrades.
    invalidate_domains:
        Remote domains that must drop their copies (write requests).
    fill_dirty:
        Whether the requester's new L2 line starts dirty (it obtained
        ownership of modified data).
    memory_writeback:
        True when the transaction pushes modified data back to memory
        (e.g. a write steals a dirty block: the old owner's data is
        forwarded and memory is also updated, Origin-style).
    """

    source: DataSource
    provider_domain: int = -1
    invalidate_domains: tuple = ()
    fill_dirty: bool = False
    memory_writeback: bool = False


# a fetch from memory carries no per-miss data: one immutable outcome
# per access kind serves every such miss
_MEMORY_READ = FetchOutcome(DataSource.MEMORY)
_MEMORY_WRITE = FetchOutcome(DataSource.MEMORY, fill_dirty=True)


@dataclass
class CoherenceStats:
    """Protocol-level event counters."""

    read_misses: int = 0
    write_misses: int = 0
    upgrades: int = 0
    c2c_clean: int = 0
    c2c_dirty: int = 0
    memory_fetches: int = 0
    invalidations_sent: int = 0
    writebacks: int = 0

    @property
    def c2c_total(self) -> int:
        return self.c2c_clean + self.c2c_dirty

    @property
    def c2c_fraction(self) -> float:
        """Fraction of domain misses served by another on-chip cache."""
        fetches = self.c2c_total + self.memory_fetches
        return self.c2c_total / fetches if fetches else 0.0

    @property
    def dirty_fraction(self) -> float:
        """Fraction of c2c transfers that carried dirty data."""
        return self.c2c_dirty / self.c2c_total if self.c2c_total else 0.0


class CoherenceController:
    """Resolves domain misses against the striped directory."""

    def __init__(self, directory: Directory, num_domains: int):
        if num_domains <= 0:
            raise CoherenceError("need at least one L2 domain")
        self.directory = directory
        self.num_domains = num_domains
        self.stats = CoherenceStats()

    # ------------------------------------------------------------------
    # miss resolution
    # ------------------------------------------------------------------

    def fetch(self, block: int, domain: int, is_write: bool) -> FetchOutcome:
        """Resolve a domain miss (the block is absent from ``domain``)."""
        self._check_domain(domain)
        entry = self.directory.entry(block)
        if entry.is_sharer(domain):
            raise CoherenceError(
                f"domain {domain} missed on block {block:#x} but the "
                f"directory lists it as a sharer ({entry!r}); eviction "
                "notifications are out of sync"
            )
        if is_write:
            return self._fetch_write(block, entry, domain)
        return self._fetch_read(block, entry, domain)

    def upgrade(self, block: int, domain: int) -> FetchOutcome:
        """Resolve a write to a block the domain holds in SHARED state.

        Remote sharers are invalidated; no data moves (the requester's
        copy is current because memory was current).
        """
        self._check_domain(domain)
        entry = self.directory.entry(block)
        if not entry.is_sharer(domain):
            raise CoherenceError(
                f"upgrade on block {block:#x} from non-sharer domain "
                f"{domain} ({entry!r})"
            )
        self.stats.upgrades += 1
        victims = tuple(d for d in entry.sharer_list() if d != domain)
        writeback = False
        if entry.state.has_owner and entry.owner != domain:
            # another domain owns modified data; its copy (and data)
            # must be folded in — rare path, only via OWNED state
            writeback = True
            self.stats.writebacks += 1
        entry.state = DirState.MODIFIED
        entry.owner = domain
        entry.sharers = 1 << domain
        if victims:
            self.stats.invalidations_sent += len(victims)
        return FetchOutcome(
            source=DataSource.NONE,
            invalidate_domains=victims,
            fill_dirty=True,
            memory_writeback=writeback,
        )

    def _fetch_read(self, block: int, entry: DirectoryEntry, domain: int) -> FetchOutcome:
        self.stats.read_misses += 1
        if entry.state == DirState.INVALID:
            self.stats.memory_fetches += 1
            entry.state = DirState.SHARED
            entry.add_sharer(domain)
            return _MEMORY_READ
        if entry.state == DirState.SHARED:
            self.stats.c2c_clean += 1
            provider = self._closest_sharer(entry, domain)
            entry.add_sharer(domain)
            return FetchOutcome(source=DataSource.C2C_CLEAN, provider_domain=provider)
        # MODIFIED or OWNED: owner forwards dirty data, retains ownership
        owner = entry.owner
        if owner == domain:
            raise CoherenceError(
                f"domain {domain} missed on block {block:#x} it owns"
            )
        self.stats.c2c_dirty += 1
        entry.state = DirState.OWNED
        entry.add_sharer(domain)
        return FetchOutcome(source=DataSource.C2C_DIRTY, provider_domain=owner)

    def _fetch_write(self, block: int, entry: DirectoryEntry, domain: int) -> FetchOutcome:
        self.stats.write_misses += 1
        if entry.state == DirState.INVALID:
            self.stats.memory_fetches += 1
            entry.state = DirState.MODIFIED
            entry.owner = domain
            entry.sharers = 1 << domain
            return _MEMORY_WRITE
        if entry.state == DirState.SHARED:
            victims = tuple(entry.sharer_list())
            self.stats.c2c_clean += 1
            self.stats.invalidations_sent += len(victims)
            provider = self._closest_sharer(entry, domain)
            entry.state = DirState.MODIFIED
            entry.owner = domain
            entry.sharers = 1 << domain
            return FetchOutcome(
                source=DataSource.C2C_CLEAN,
                provider_domain=provider,
                invalidate_domains=victims,
                fill_dirty=True,
            )
        # MODIFIED or OWNED: steal ownership, invalidate everyone else
        owner = entry.owner
        victims = tuple(d for d in entry.sharer_list() if d != domain)
        self.stats.c2c_dirty += 1
        self.stats.invalidations_sent += len(victims)
        entry.state = DirState.MODIFIED
        entry.owner = domain
        entry.sharers = 1 << domain
        return FetchOutcome(
            source=DataSource.C2C_DIRTY,
            provider_domain=owner,
            invalidate_domains=victims,
            fill_dirty=True,
        )

    # ------------------------------------------------------------------
    # eviction notifications (keep directory exact)
    # ------------------------------------------------------------------

    def domain_evicted(self, block: int, domain: int, was_dirty: bool) -> None:
        """A domain dropped its copy (capacity eviction or back-inval)."""
        self._check_domain(domain)
        entry = self.directory.peek(block)
        if entry is None or not entry.is_sharer(domain):
            # Invalidation initiated by the directory itself: the
            # sharer bit is already gone. Nothing to do.
            return
        entry.drop_sharer(domain)
        if entry.owner == domain:
            entry.owner = -1
            if was_dirty:
                self.stats.writebacks += 1
            entry.state = DirState.SHARED if entry.sharers else DirState.INVALID
        elif not entry.sharers:
            entry.state = DirState.INVALID
        if entry.state == DirState.INVALID:
            self.directory.forget(block)

    # ------------------------------------------------------------------

    def _closest_sharer(self, entry: DirectoryEntry, domain: int) -> int:
        """Pick the providing sharer.

        The machine model refines the routing distance; functionally we
        return the owner if there is one (Origin forwards from the
        owner) else the lowest-numbered sharer, which is deterministic.
        """
        if entry.state.has_owner and entry.owner != domain:
            return entry.owner
        for d in entry.sharer_list():
            if d != domain:
                return d
        raise CoherenceError("SHARED entry has no sharer other than requester")

    def _check_domain(self, domain: int) -> None:
        if not (0 <= domain < self.num_domains):
            raise CoherenceError(
                f"domain id {domain} out of range [0, {self.num_domains})"
            )

    # ------------------------------------------------------------------

    def check_invariants(self, resident: Optional[List[set]] = None) -> None:
        """Validate directory invariants; raise :class:`CoherenceError`.

        Parameters
        ----------
        resident:
            Optional list (indexed by domain) of block sets actually
            resident in each L2 domain; when given, the directory's
            sharer bits are cross-checked against reality.
        """
        for block, entry in list(self.directory._entries.items()):
            state = entry.state
            if state == DirState.INVALID:
                if entry.sharers or entry.owner != -1:
                    raise CoherenceError(f"INVALID entry with residue: {entry!r}")
            elif state == DirState.SHARED:
                if entry.owner != -1:
                    raise CoherenceError(f"SHARED entry with owner: {entry!r}")
                if not entry.sharers:
                    raise CoherenceError(f"SHARED entry with no sharers: {entry!r}")
            elif state in (DirState.MODIFIED, DirState.OWNED):
                if entry.owner == -1:
                    raise CoherenceError(f"{state.name} entry without owner: {entry!r}")
                if not entry.is_sharer(entry.owner):
                    raise CoherenceError(
                        f"{state.name} owner not in sharer set: {entry!r}"
                    )
                if state == DirState.MODIFIED and entry.num_sharers != 1:
                    raise CoherenceError(
                        f"MODIFIED entry with multiple sharers: {entry!r}"
                    )
            if resident is not None:
                for d in entry.sharer_list():
                    if block not in resident[d]:
                        raise CoherenceError(
                            f"directory lists domain {d} for block {block:#x} "
                            "but the domain does not hold it"
                        )
