"""The slot track: time as a track with periodic slots (paper §V-A).

Time is divided into slots of size Δ — "the default slot size is equal
to the minimum of all maximum acceptable response latencies defined by
the producer-consumer pairs". Consumers reserve slots; the core manager
wakes the core only at slots that hold at least one reservation.

The track also provides the constant-time backtracking helper the
paper's reservation step relies on: the latest *reserved* slot at or
before a given slot, so a consumer comparing "fresh wakeup at my ideal
slot" vs "latch onto an existing wakeup a bit earlier" evaluates exactly
two candidates.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional


class SlotTrack:
    """Reservation table over the slot grid ``{k·Δ}``.

    Only future reservations are retained ("past reservations are
    replaced and future reservations are limited to only the next
    invocation of every consumer", §V-B): each consumer holds at most
    one reservation, and fired slots are dropped.
    """

    def __init__(self, slot_size_s: float, origin_s: float = 0.0) -> None:
        if slot_size_s <= 0:
            raise ValueError("slot size must be positive")
        self.slot_size_s = slot_size_s
        self.origin_s = origin_s
        # holder sets are insertion-ordered dicts: iteration order (and
        # therefore consumer activation order) must not depend on object
        # hashes, or runs stop being reproducible.
        self._slots: Dict[int, Dict[Any, None]] = {}
        self._holder_slot: Dict[Any, int] = {}

    # -- grid arithmetic -----------------------------------------------------
    def slot_of(self, t: float) -> int:
        """Index of the slot whose start is the latest ≤ ``t`` (the
        paper's ``g(τ)`` in index form)."""
        return math.floor((t - self.origin_s) / self.slot_size_s + 1e-9)

    def time_of(self, index: int) -> float:
        """Start time of slot ``index``."""
        return self.origin_s + index * self.slot_size_s

    def g(self, t: float) -> float:
        """The paper's Eq. 6: nearest slot start at or before ``t``."""
        return self.time_of(self.slot_of(t))

    # -- reservations ------------------------------------------------------------
    def reserve(self, index: int, holder: Any) -> None:
        """Reserve slot ``index`` for ``holder``, releasing any previous
        reservation the holder had (one reservation per consumer)."""
        previous = self._holder_slot.get(holder)
        if previous is not None:
            self._remove(previous, holder)
        self._slots.setdefault(index, {})[holder] = None
        self._holder_slot[holder] = index

    def cancel(self, holder: Any) -> Optional[int]:
        """Drop the holder's reservation; returns the freed slot index."""
        index = self._holder_slot.pop(holder, None)
        if index is not None:
            self._remove(index, holder)
        return index

    def _remove(self, index: int, holder: Any) -> None:
        holders = self._slots.get(index)
        if holders is not None:
            holders.pop(holder, None)
            if not holders:
                del self._slots[index]

    def reservation_of(self, holder: Any) -> Optional[int]:
        """The holder's currently reserved slot index, if any."""
        return self._holder_slot.get(holder)

    def holders_at(self, index: int) -> List[Any]:
        """Consumers reserved at slot ``index`` (copy)."""
        return list(self._slots.get(index, ()))

    def is_reserved(self, index: int) -> bool:
        return index in self._slots

    def reserved_count(self, index: int) -> int:
        return len(self._slots.get(index, ()))

    # -- queries for the manager and the backtracking step ----------------------
    def next_reserved_slot(self, after_index: int) -> Optional[int]:
        """Earliest reserved slot with index > ``after_index``."""
        future = [k for k in self._slots if k > after_index]
        return min(future) if future else None

    def earliest_reserved_slot(self) -> Optional[int]:
        """The earliest reserved slot overall (may be overdue)."""
        return min(self._slots) if self._slots else None

    def last_reserved_at_or_before(
        self, index: int, *, strictly_after: Optional[int] = None
    ) -> Optional[int]:
        """Latest reserved slot ≤ ``index`` (> ``strictly_after`` if given)
        — the paper's constant-time backtracking helper."""
        floor_ = strictly_after if strictly_after is not None else -(10**18)
        candidates = [k for k in self._slots if floor_ < k <= index]
        return max(candidates) if candidates else None

    def pop_slot(self, index: int) -> List[Any]:
        """Fire slot ``index``: return and clear its holders."""
        holders = self._slots.pop(index, {})
        for holder in holders:
            if self._holder_slot.get(holder) == index:
                del self._holder_slot[holder]
        return list(holders)

    def clear(self) -> None:
        """Drop every reservation."""
        self._slots.clear()
        self._holder_slot.clear()

    def drop_past(self, now: float) -> None:
        """Discard reservations in slots that already started (hygiene)."""
        current = self.slot_of(now)
        for index in [k for k in self._slots if k < current]:
            for holder in self.pop_slot(index):
                pass

    def __len__(self) -> int:
        """Number of distinct reserved slots."""
        return len(self._slots)

    def __repr__(self) -> str:
        return (
            f"<SlotTrack Δ={self.slot_size_s:g}s slots={sorted(self._slots)[:6]}"
            f"{'...' if len(self._slots) > 6 else ''}>"
        )
