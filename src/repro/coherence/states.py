"""Directory coherence states.

The protocol is a MOESI-style directory in the spirit of the SGI Origin
protocol the paper simulates [Laudon & Lenoski, ISCA '97]: directory
entries record, per block, which L2 *domains* hold copies and which (if
any) owns the block with modified data.  Domains — not individual cores
— are the coherence unit across the chip because each L2 partition is
inclusive of its member cores' private caches; within a domain,
ownership is tracked in the domain's packed L2 line codes (see
:mod:`repro.caches.hierarchy`).
"""

from __future__ import annotations

import enum

__all__ = ["DirState"]


class DirState(enum.IntEnum):
    """Global state of a block at the directory.

    INVALID
        No on-chip copy; memory is the only source.
    SHARED
        One or more domains hold clean copies; memory is up to date.
    OWNED
        One domain owns modified data *and* other domains hold shared
        copies (the owner supplies data on misses — clean c2c for the
        requester, but memory is stale).
    MODIFIED
        Exactly one domain holds the block, modified.
    """

    INVALID = 0
    SHARED = 1
    OWNED = 2
    MODIFIED = 3

    @property
    def has_owner(self) -> bool:
        return self in (DirState.OWNED, DirState.MODIFIED)
