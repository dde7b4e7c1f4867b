"""The global buffer pool behind dynamic buffer resizing (paper §V-C).

Every consumer starts with a preallocated slice ``B0`` of a global
buffer of size ``Bg = B0 × M``. Consumers *downsize* to exactly what
their rate prediction needs (returning slack to the pool) and *upsize*
when a predicted burst would overflow before their reserved slot,
taking at most what the pool has free:

    Bi = min( Bg − Σq Bq ,  r̂·(τ_{j+1} − τ_j) )

The pool tracks entitlements (who may hold how many slots); the items
themselves live in each consumer's
:class:`~repro.buffers.bounded.BoundedBuffer`, whose capacity the pool
moves in place — the "elastic walls" of the paper's Fig. 8.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.buffers.bounded import BoundedBuffer
from repro.telemetry.registry import NULL_REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.registry import MetricsRegistry


class GlobalBufferPool:
    """Entitlement manager over ``Bg = base_allocation × n_consumers`` slots.

    Parameters
    ----------
    base_allocation:
        B0 — every registered consumer's initial (and guaranteed
        reclaimable) share.
    n_consumers:
        M — number of consumers the pool is sized for.
    """

    def __init__(
        self,
        base_allocation: int,
        n_consumers: int,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if base_allocation < 1:
            raise ValueError("base allocation must be >= 1")
        if n_consumers < 1:
            raise ValueError("pool needs at least one consumer")
        self.base_allocation = base_allocation
        self.n_consumers = n_consumers
        self.total_slots = base_allocation * n_consumers
        self._buffers: Dict[str, BoundedBuffer] = {}
        #: Lifetime grants / denials, for the evaluation metrics.
        self.upsize_requests = 0
        self.upsize_grants = 0
        self.slots_lent = 0
        #: Slots temporarily confiscated by a fault injector (the
        #: forced-contention fault) and how often that happened.
        self.slots_withheld = 0
        self.contention_events = 0
        #: Buffers carried across a core migration (see
        #: :meth:`note_migration`).
        self.migrations = 0
        # Telemetry views of the counts above, read at each snapshot.
        metrics = metrics or NULL_REGISTRY
        metrics.counter(
            "pool_upsize_requests_total",
            help="Upsize requests consumers made to the global pool.",
            read=lambda: self.upsize_requests,
        )
        metrics.counter(
            "pool_upsize_grants_total",
            help="Upsize requests the pool granted (fully or partially).",
            read=lambda: self.upsize_grants,
        )
        metrics.counter(
            "pool_slots_lent_total",
            help="Lifetime slots lent beyond base entitlements.",
            read=lambda: self.slots_lent,
        )
        metrics.counter(
            "pool_contention_events_total",
            help="Forced-contention withholds by fault injectors.",
            read=lambda: self.contention_events,
        )
        metrics.counter(
            "pool_migrations_total",
            help="Buffers carried across core migrations.",
            read=lambda: self.migrations,
        )

    # -- registration ------------------------------------------------------
    def register(
        self,
        consumer_id: str,
        policy: str = "block",
        max_item_age_s: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> BoundedBuffer:
        """Create (and entitle B0 slots to) a consumer's buffer.

        ``policy`` (plus ``max_item_age_s``/``clock`` for
        ``shed-to-deadline``) selects the buffer's overflow degradation
        policy — see :mod:`repro.buffers.bounded`.
        """
        if consumer_id in self._buffers:
            raise ValueError(f"consumer {consumer_id!r} already registered")
        if len(self._buffers) >= self.n_consumers:
            raise ValueError(f"pool sized for {self.n_consumers} consumers")
        buffer = BoundedBuffer(
            self.base_allocation,
            policy=policy,
            max_item_age_s=max_item_age_s,
            clock=clock,
        )
        self._buffers[consumer_id] = buffer
        return buffer

    def buffer(self, consumer_id: str) -> BoundedBuffer:
        return self._buffers[consumer_id]

    def note_migration(self, consumer_id: str) -> int:
        """A consumer's buffer rides along a core migration.

        The pool is global (``B_g`` is machine-wide, not per-core), so
        re-homing a consumer moves no bytes and changes no entitlement —
        this hook just validates the buffer is pool-backed, counts the
        carry, and reports how many items rode along (the migration
        record's ``carried_items``).
        """
        buffer = self._buffers.get(consumer_id)
        if buffer is None:
            raise KeyError(
                f"consumer {consumer_id!r} is not registered with the pool"
            )
        self.migrations += 1
        return len(buffer)

    # -- accounting -------------------------------------------------------------
    @property
    def allocated_slots(self) -> int:
        """Σq Bq — slots currently entitled across all consumers."""
        return sum(b.capacity for b in self._buffers.values())

    @property
    def free_slots(self) -> int:
        """Bg − Σq Bq, minus the reserve backing unregistered consumers."""
        reserve = (self.n_consumers - len(self._buffers)) * self.base_allocation
        return self.total_slots - reserve - self.allocated_slots

    def average_capacity(self) -> float:
        """Mean per-consumer entitlement right now."""
        if not self._buffers:
            return 0.0
        return self.allocated_slots / len(self._buffers)

    # -- resizing ----------------------------------------------------------------
    def downsize(self, consumer_id: str, target_capacity: int) -> int:
        """Shrink a consumer's entitlement toward ``target_capacity``.

        The effective floor is the buffer's current occupancy (items are
        never discarded) and 1 slot. Returns the new capacity.
        """
        buffer = self._buffers[consumer_id]
        target = max(1, target_capacity)
        if target >= buffer.capacity:
            return buffer.capacity  # downsize never grows
        return buffer.set_capacity(target)

    def upsize(self, consumer_id: str, desired_capacity: int) -> int:
        """Grow a consumer's entitlement toward ``desired_capacity``.

        Grants ``min(free pool space, desired)`` extra slots — the
        paper's upsizing rule. Returns the new capacity (which may be
        unchanged if the pool is exhausted).
        """
        buffer = self._buffers[consumer_id]
        self.upsize_requests += 1
        if desired_capacity <= buffer.capacity:
            return buffer.capacity
        extra_wanted = desired_capacity - buffer.capacity
        extra_granted = min(extra_wanted, max(0, self.free_slots))
        if extra_granted <= 0:
            return buffer.capacity
        self.upsize_grants += 1
        self.slots_lent += extra_granted
        return buffer.set_capacity(buffer.capacity + extra_granted)

    def withhold(self, slots: int) -> int:
        """Confiscate up to ``slots`` currently-free slots from the pool.

        The fault injector's forced-contention primitive: withheld
        slots cannot be granted to upsize requests until
        :meth:`restore` hands them back. Never takes entitled or
        reserve-backed slots, so the pool invariant keeps holding.
        Returns the number actually withheld.
        """
        if slots < 0:
            raise ValueError("withhold() takes a non-negative amount")
        taken = min(slots, max(0, self.free_slots))
        if taken > 0:
            self.total_slots -= taken
            self.slots_withheld += taken
            self.contention_events += 1
        return taken

    def restore(self, slots: int) -> None:
        """Hand back slots previously taken by :meth:`withhold`."""
        if slots < 0:
            raise ValueError("restore() takes a non-negative amount")
        if slots > self.slots_withheld:
            raise ValueError(
                f"restoring {slots} slots but only {self.slots_withheld} withheld"
            )
        self.total_slots += slots
        self.slots_withheld -= slots

    def release_to_base(self, consumer_id: str) -> int:
        """Return any borrowed slots (down to B0) when no longer needed."""
        return self.downsize(consumer_id, self.base_allocation)

    def check_invariant(self) -> None:
        """Entitlements never exceed the global preallocation."""
        reserve = (self.n_consumers - len(self._buffers)) * self.base_allocation
        if self.allocated_slots + reserve > self.total_slots:
            raise AssertionError(
                f"pool over-committed: {self.allocated_slots} allocated "
                f"+ {reserve} reserved > {self.total_slots} total"
            )

    def __repr__(self) -> str:
        return (
            f"<GlobalBufferPool {self.allocated_slots}/{self.total_slots} "
            f"consumers={len(self._buffers)}>"
        )
