"""Functional MOESI directory protocol.

:class:`CoherenceController` resolves last-level-cache domain misses:
given ``(block, requesting domain, read/write)`` it decides where the
data comes from (memory, a clean remote cache, or a dirty remote cache),
which remote domains must be invalidated, and updates the directory.
It is purely *functional* — latency composition (hops to the home tile,
directory-cache timing, queueing) lives in the machine model, which
receives everything it needs in the returned :class:`FetchOutcome`.
Directory entries are packed ints (see :mod:`repro.coherence.directory`)
that the controller reads and rewrites in place.

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
from .directory import (OWNER_FIELD, OWNER_SHIFT, SHARER_SHIFT, STATE_FIELD,
                        Directory, decode_entry, sharer_list)
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


# the miss path binds the members once and builds outcomes with
# tuple.__new__, which skips the NamedTuple constructor's argument
# handling
_FROM_MEMORY, _C2C_CLEAN, _C2C_DIRTY, _NO_DATA = DataSource
_INVALID, _SHARED, _OWNED, _MODIFIED = (int(state) for state in DirState)
_new = tuple.__new__

# a fetch from memory carries no per-miss data: one immutable outcome
# per access kind serves every such miss
_MEMORY_READ = FetchOutcome(_FROM_MEMORY)
_MEMORY_WRITE = FetchOutcome(_FROM_MEMORY, fill_dirty=True)


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
        self._entries = directory._entries

    # ------------------------------------------------------------------
    # miss resolution
    # ------------------------------------------------------------------

    def fetch(self, block: int, domain: int, is_write: bool) -> FetchOutcome:
        """Resolve a domain miss (the block is absent from ``domain``)."""
        self._check_domain(domain)
        code = self._entries.get(block, 0)
        if code >> (SHARER_SHIFT + domain) & 1:
            raise CoherenceError(
                f"domain {domain} missed on block {block:#x} but the "
                f"directory lists it as a sharer ({decode_entry(code)!r}); "
                "eviction notifications are out of sync"
            )
        if is_write:
            return self._fetch_write(block, code, domain)
        return self._fetch_read(block, code, domain)

    def upgrade(self, block: int, domain: int) -> FetchOutcome:
        """Resolve a write to a block the domain holds in SHARED state.

        Remote sharers are invalidated; no data moves (the requester's
        copy is current because memory was current).
        """
        self._check_domain(domain)
        code = self._entries.get(block, 0)
        if not code >> (SHARER_SHIFT + domain) & 1:
            raise CoherenceError(
                f"upgrade on block {block:#x} from non-sharer domain "
                f"{domain} ({decode_entry(code)!r})"
            )
        stats = self.stats
        stats.upgrades += 1
        victims = tuple(d for d in sharer_list(code >> SHARER_SHIFT)
                        if d != domain)
        writeback = False
        if (code & STATE_FIELD >= _OWNED
                and code & OWNER_FIELD != (domain + 1) << OWNER_SHIFT):
            # another domain owns modified data; its copy (and data)
            # must be folded in — rare path, only via OWNED state
            writeback = True
            stats.writebacks += 1
        self._entries[block] = _owned_by(domain)
        if victims:
            stats.invalidations_sent += len(victims)
        return _new(FetchOutcome, (_NO_DATA, -1, victims, True, writeback))

    def _fetch_read(self, block: int, code: int, domain: int) -> FetchOutcome:
        stats = self.stats
        stats.read_misses += 1
        state = code & STATE_FIELD
        sharer = 1 << (SHARER_SHIFT + domain)
        if state == _INVALID:
            stats.memory_fetches += 1
            self._entries[block] = code | _SHARED | sharer
            return _MEMORY_READ
        if state == _SHARED:
            stats.c2c_clean += 1
            provider = self._closest_sharer(code, domain)
            self._entries[block] = code | sharer
            return _new(FetchOutcome, (_C2C_CLEAN, provider, (), False, False))
        # MODIFIED or OWNED: owner forwards dirty data, retains ownership
        owner = ((code & OWNER_FIELD) >> OWNER_SHIFT) - 1
        if owner == domain:
            raise CoherenceError(
                f"domain {domain} missed on block {block:#x} it owns"
            )
        stats.c2c_dirty += 1
        self._entries[block] = (code & ~STATE_FIELD) | _OWNED | sharer
        return _new(FetchOutcome, (_C2C_DIRTY, owner, (), False, False))

    def _fetch_write(self, block: int, code: int, domain: int) -> FetchOutcome:
        stats = self.stats
        stats.write_misses += 1
        state = code & STATE_FIELD
        if state == _INVALID:
            stats.memory_fetches += 1
            self._entries[block] = _owned_by(domain)
            return _MEMORY_WRITE
        if state == _SHARED:
            victims = tuple(sharer_list(code >> SHARER_SHIFT))
            stats.c2c_clean += 1
            stats.invalidations_sent += len(victims)
            provider = self._closest_sharer(code, domain)
            self._entries[block] = _owned_by(domain)
            return _new(FetchOutcome,
                        (_C2C_CLEAN, provider, victims, True, False))
        # MODIFIED or OWNED: steal ownership, invalidate everyone else
        owner = ((code & OWNER_FIELD) >> OWNER_SHIFT) - 1
        victims = tuple(d for d in sharer_list(code >> SHARER_SHIFT)
                        if d != domain)
        stats.c2c_dirty += 1
        stats.invalidations_sent += len(victims)
        self._entries[block] = _owned_by(domain)
        return _new(FetchOutcome, (_C2C_DIRTY, owner, victims, True, False))

    # ------------------------------------------------------------------
    # eviction notifications (keep directory exact)
    # ------------------------------------------------------------------

    def domain_evicted(self, block: int, domain: int, was_dirty: bool) -> None:
        """A domain dropped its copy (capacity eviction or back-inval)."""
        self._check_domain(domain)
        entries = self._entries
        code = entries.get(block)
        sharer = 1 << (SHARER_SHIFT + domain)
        if code is None or not code & sharer:
            # Invalidation initiated by the directory itself: the
            # sharer bit is already gone. Nothing to do.
            return
        code &= ~sharer
        if code & OWNER_FIELD == (domain + 1) << OWNER_SHIFT:
            if was_dirty:
                self.stats.writebacks += 1
            code &= ~(OWNER_FIELD | STATE_FIELD)
            if code >> SHARER_SHIFT:
                code |= _SHARED
        elif not code >> SHARER_SHIFT:
            code &= ~STATE_FIELD
        if code & STATE_FIELD == _INVALID:
            # drop the INVALID entry to bound memory use
            del entries[block]
        else:
            entries[block] = code

    # ------------------------------------------------------------------

    def _closest_sharer(self, code: int, domain: int) -> int:
        """Pick the providing sharer of a SHARED block: the lowest-numbered
        sharer, which is deterministic (the machine model refines the
        routing distance)."""
        for d in sharer_list(code >> SHARER_SHIFT):
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
        for block, code in list(self._entries.items()):
            entry = decode_entry(code)
            state, owner, sharers = entry
            if state == DirState.INVALID:
                if sharers or owner != -1:
                    raise CoherenceError(f"INVALID entry with residue: {entry!r}")
            elif state == DirState.SHARED:
                if owner != -1:
                    raise CoherenceError(f"SHARED entry with owner: {entry!r}")
                if not sharers:
                    raise CoherenceError(f"SHARED entry with no sharers: {entry!r}")
            elif state in (DirState.MODIFIED, DirState.OWNED):
                if owner == -1:
                    raise CoherenceError(f"{state.name} entry without owner: {entry!r}")
                if not sharers >> owner & 1:
                    raise CoherenceError(
                        f"{state.name} owner not in sharer set: {entry!r}"
                    )
                if state == DirState.MODIFIED and sharers & (sharers - 1):
                    raise CoherenceError(
                        f"MODIFIED entry with multiple sharers: {entry!r}"
                    )
            if resident is not None:
                for d in sharer_list(sharers):
                    if block not in resident[d]:
                        raise CoherenceError(
                            f"directory lists domain {d} for block {block:#x} "
                            "but the domain does not hold it"
                        )


def _owned_by(domain: int) -> int:
    """The code of a block MODIFIED by ``domain``, its only sharer."""
    return (_MODIFIED | (domain + 1) << OWNER_SHIFT
            | 1 << (SHARER_SHIFT + domain))
