"""The bounded FIFO every producer-consumer implementation buffers into.

The paper's implementations use three buffer structures:

* BW, Yield, Sem, BP, PBP and SPBP share "a common bounded-size memory
  buffer as a queue", a circular buffer whose busy-wait consumer polls
  ``tail != head`` (§III-A);
* Mutex guards a *non-circular* buffer: "reading and writing from it
  requires atomicity to be able to track the number of items inside"
  (§III-A);
* PBPL's dynamic resizing makes "the walls between the consumer
  buffers elastic … implemented using linked lists and is, hence, not
  actual contiguous resizing" (§V-C, Fig. 8).

:class:`BoundedBuffer` stands in for all three. Its items live in a
``collections.deque`` (a linked list of fixed-size blocks, so it is the
§V-C structure too), and ``capacity`` is a plain attribute:
:meth:`BoundedBuffer.set_capacity` moves the wall in place, never
copying and never below the items already held. A capacity of ``n``
really holds ``n`` items, matching the paper's 25/50/100 sizes.

Overflow has one model:

* **Accounting.** ``overflows`` counts *full-buffer push encounters*:
  each ``push``/``try_push`` that finds the buffer full adds exactly
  one. Items a degradation policy removes are tallied separately
  (``dropped_oldest``, ``dropped_newest``, ``shed``) and never count as
  consumer ``pops``; ``items_dropped`` is their sum, so run-level
  conservation (``produced == consumed + remaining + dropped``) can be
  checked by the resilience report.
* **Policy**, what happens on a full buffer:

  - ``"block"`` (default): ``push`` raises :class:`BufferOverflow`,
    ``try_push`` returns ``False``; the caller owns back-pressure.
  - ``"drop-oldest"``: evict the oldest buffered item to admit the new
    one (bounded staleness, lossy).
  - ``"drop-newest"``: discard the incoming item (bounded memory,
    protects already-buffered work).
  - ``"shed-to-deadline"``: evict every buffered item older than
    ``max_item_age_s`` (its deadline already passed; delivering it late
    helps nobody) and admit the new item into the freed space; when
    nothing is past-deadline, drop the incoming item instead. Needs a
    ``clock`` callable; items are their production times.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Iterator, List, Optional


class BufferOverflow(Exception):
    """Raised by ``push`` (under the ``"block"`` policy) when full."""


class BufferUnderflow(Exception):
    """Raised by ``pop``/``peek`` when the buffer is empty."""


#: The degradation policies the buffer understands.
OVERFLOW_POLICIES = ("block", "drop-oldest", "drop-newest", "shed-to-deadline")


class BoundedBuffer:
    """A FIFO with a capacity bound and an overflow policy."""

    __slots__ = (
        "_items",
        "capacity",
        "pushes",
        "pops",
        "overflows",
        "policy",
        "max_item_age_s",
        "_clock",
        "dropped_oldest",
        "dropped_newest",
        "shed",
    )

    def __init__(
        self,
        capacity: int,
        policy: str = "block",
        max_item_age_s: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {policy!r}; choose from "
                f"{list(OVERFLOW_POLICIES)}"
            )
        if policy == "shed-to-deadline":
            if max_item_age_s is None or max_item_age_s < 0:
                raise ValueError(
                    "shed-to-deadline needs a non-negative max_item_age_s"
                )
            if clock is None:
                raise ValueError("shed-to-deadline needs a clock callable")
        self._items: Deque[Any] = deque()
        #: Items the buffer may hold; the global pool moves it in place.
        self.capacity = capacity
        #: Lifetime operation counters (used by experiment metrics).
        self.pushes = 0
        self.pops = 0
        self.policy = policy
        self.max_item_age_s = max_item_age_s
        self._clock = clock
        #: Full-buffer push encounters (see module docs).
        self.overflows = 0
        #: Items evicted to admit newer ones (``drop-oldest``).
        self.dropped_oldest = 0
        #: Incoming items discarded (``drop-newest`` and the
        #: shed-to-deadline fallback).
        self.dropped_newest = 0
        #: Items evicted because their deadline passed (``shed-to-deadline``).
        self.shed = 0

    # -- state --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def items_dropped(self) -> int:
        """Every item this buffer ever discarded, whatever the reason."""
        return self.dropped_oldest + self.dropped_newest + self.shed

    # -- capacity -----------------------------------------------------------
    def set_capacity(self, capacity: int) -> int:
        """Resize to ``capacity`` items, clamped to current occupancy.

        Returns the capacity now in effect. Clamping (rather than
        raising) is the elastic-wall rule: a consumer asking to shrink
        below what it buffers keeps just enough to hold its items.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = max(capacity, len(self._items))
        return self.capacity

    # -- producer side ------------------------------------------------------
    def push(self, item: Any) -> bool:
        """Admit ``item``; returns True iff it was stored.

        Under the ``"block"`` policy a full buffer raises
        :class:`BufferOverflow` (the caller blocks / back-pressures);
        the lossy policies resolve the overflow and return whether the
        *incoming* item survived.
        """
        items = self._items
        if len(items) < self.capacity:
            items.append(item)
            self.pushes += 1
            return True
        self.overflows += 1
        if self.policy == "block":
            raise BufferOverflow(f"buffer full (capacity {self.capacity})")
        return self._resolve_overflow(item)

    def try_push(self, item: Any) -> bool:
        """Like :meth:`push` but never raises: ``"block"`` returns False."""
        items = self._items
        if len(items) < self.capacity:
            items.append(item)
            self.pushes += 1
            return True
        self.overflows += 1
        if self.policy == "block":
            return False
        return self._resolve_overflow(item)

    def _resolve_overflow(self, item: Any) -> bool:
        items = self._items
        if self.policy == "drop-oldest":
            items.popleft()
            self.dropped_oldest += 1
        elif self.policy == "drop-newest":
            self.dropped_newest += 1
            return False
        else:
            # shed-to-deadline: clear out everything past its deadline.
            now = self._clock()
            freed = 0
            while items and now - items[0] > self.max_item_age_s:
                items.popleft()
                freed += 1
            if not freed:
                self.dropped_newest += 1
                return False
            self.shed += freed
        items.append(item)
        self.pushes += 1
        return True

    # -- consumer side ------------------------------------------------------
    def pop(self) -> Any:
        """Remove and return the oldest item; raises on empty."""
        if not self._items:
            raise BufferUnderflow("pop from an empty buffer")
        self.pops += 1
        return self._items.popleft()

    def peek(self) -> Any:
        """The oldest item without removing it; raises on empty."""
        if not self._items:
            raise BufferUnderflow("peek at an empty buffer")
        return self._items[0]

    def drain(self, limit: Optional[int] = None) -> List[Any]:
        """Remove up to ``limit`` items (all, if None) as one batch,
        oldest first: the batch-processing primitive."""
        items = self._items
        if limit is None or limit >= len(items):
            batch = list(items)
            items.clear()
        else:
            batch = [items.popleft() for _ in range(max(0, limit))]
        self.pops += len(batch)
        return batch

    def __iter__(self) -> Iterator[Any]:
        """Iterate oldest → newest without consuming."""
        return iter(self._items)

    def __repr__(self) -> str:
        return f"<BoundedBuffer {len(self._items)}/{self.capacity}>"
