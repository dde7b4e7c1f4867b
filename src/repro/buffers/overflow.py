"""Unified overflow semantics for every buffer substrate.

Historically each buffer class hand-rolled its full-buffer handling,
which let the ``overflows`` counter semantics drift between classes and
left exactly one behaviour available: raise :class:`BufferOverflow` and
make the producer block. Production systems degrade more gracefully
than that, so this module centralises both concerns:

* **Accounting** — ``overflows`` counts *full-buffer push encounters*
  (each ``push``/``try_push`` that finds the buffer full increments it
  exactly once), identically across :class:`~repro.buffers.ring.
  RingBuffer`, :class:`~repro.buffers.bounded.BoundedBuffer` and
  :class:`~repro.buffers.segmented.SegmentedBuffer`. Items removed by a
  degradation policy are tallied separately (``dropped_oldest``,
  ``dropped_newest``, ``shed``) and never counted as consumer ``pops``.

* **Policy** — what happens on a full buffer:

  - ``"block"`` (default, the historical behaviour): ``push`` raises
    :class:`BufferOverflow`, ``try_push`` returns ``False``; the caller
    owns back-pressure.
  - ``"drop-oldest"``: evict the oldest buffered item to admit the new
    one (bounded staleness, lossy).
  - ``"drop-newest"``: discard the incoming item (bounded memory,
    protects already-buffered work).
  - ``"shed-to-deadline"``: evict every buffered item older than
    ``max_item_age_s`` (its deadline already passed — delivering it
    late helps nobody) and admit the new item into the freed space;
    when nothing is past-deadline, fall back to dropping the incoming
    item. Requires a ``clock`` callable and assumes items carry their
    production time (identity by default; override ``item_time``).

Every drop is observable: ``items_dropped`` is the exact number of
items the buffer ever discarded, so run-level conservation
(``produced == consumed + remaining + dropped``) can be checked by the
resilience report.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class BufferOverflow(Exception):
    """Raised by ``push`` (under the ``"block"`` policy) when full."""


class BufferUnderflow(Exception):
    """Raised by ``pop``/``peek`` when the buffer is empty."""


#: The degradation policies every buffer substrate understands.
OVERFLOW_POLICIES = ("block", "drop-oldest", "drop-newest", "shed-to-deadline")


class OverflowPolicyMixin:
    """Shared push-side behaviour over a concrete FIFO substrate.

    Subclasses provide ``is_full``, ``is_empty``, ``peek()``,
    ``_store(item)`` (unconditional append) and ``_evict_oldest()``
    (unconditional head removal that does **not** count as a ``pop``),
    plus the ``pushes`` counter attribute.
    """

    __slots__ = ()

    def _init_overflow_policy(
        self,
        policy: str = "block",
        max_item_age_s: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        item_time: Optional[Callable[[Any], float]] = None,
    ) -> None:
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
        self.policy = policy
        self.max_item_age_s = max_item_age_s
        self._clock = clock
        self._item_time = item_time or (lambda item: item)
        #: Full-buffer push encounters (unified semantics, see module docs).
        self.overflows = 0
        #: Items evicted to admit newer ones (``drop-oldest``).
        self.dropped_oldest = 0
        #: Incoming items discarded (``drop-newest`` and the
        #: shed-to-deadline fallback).
        self.dropped_newest = 0
        #: Items evicted because their deadline passed (``shed-to-deadline``).
        self.shed = 0

    # -- unified push interface -------------------------------------------------
    @property
    def items_dropped(self) -> int:
        """Every item this buffer ever discarded, whatever the reason."""
        return self.dropped_oldest + self.dropped_newest + self.shed

    def push(self, item: Any) -> bool:
        """Admit ``item``; returns True iff it was stored.

        Under the ``"block"`` policy a full buffer raises
        :class:`BufferOverflow` (the caller blocks / back-pressures);
        the lossy policies resolve the overflow and return whether the
        *incoming* item survived.
        """
        if not self.is_full:
            self._store(item)
            self.pushes += 1
            return True
        self.overflows += 1
        if self.policy == "block":
            raise BufferOverflow(self._full_message())
        return self._resolve_overflow(item)

    def try_push(self, item: Any) -> bool:
        """Like :meth:`push` but never raises: ``"block"`` returns False."""
        if not self.is_full:
            self._store(item)
            self.pushes += 1
            return True
        self.overflows += 1
        if self.policy == "block":
            return False
        return self._resolve_overflow(item)

    # -- policy resolution ------------------------------------------------------
    def _resolve_overflow(self, item: Any) -> bool:
        if self.policy == "drop-oldest":
            self._evict_oldest()
            self.dropped_oldest += 1
            self._store(item)
            self.pushes += 1
            return True
        if self.policy == "drop-newest":
            self.dropped_newest += 1
            return False
        # shed-to-deadline: clear out everything already past its deadline.
        now = self._clock()
        freed = 0
        while not self.is_empty and (
            now - self._item_time(self.peek()) > self.max_item_age_s
        ):
            self._evict_oldest()
            freed += 1
        if freed:
            self.shed += freed
            self._store(item)
            self.pushes += 1
            return True
        self.dropped_newest += 1
        return False

    #: Human name used in overflow messages ("ring buffer", ...).
    _kind = "buffer"

    def _full_message(self) -> str:
        return f"{self._kind} full (capacity {self.capacity})"

    # -- substrate hooks --------------------------------------------------------
    def _store(self, item: Any) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _evict_oldest(self) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError
