"""Overflow degradation policies of the one bounded FIFO, however it
is built."""

import pytest

from repro.buffers import (
    OVERFLOW_POLICIES,
    BoundedBuffer,
    BufferOverflow,
    GlobalBufferPool,
)


def pool_buffer(capacity, **kwargs):
    """The buffer PBPL gets: handed out by the global pool."""
    return GlobalBufferPool(capacity, 1).register("consumer", **kwargs)


#: The routes that build the buffer. The ids are the names of the three
#: classes the one FIFO replaced, each the paper structure its route
#: stands in for: the §III-A circular buffer and Mutex's counted buffer
#: (both now built directly) and the §V-C elastic walls (pool-built).
SUBSTRATES = {
    "RingBuffer": BoundedBuffer,
    "BoundedBuffer": BoundedBuffer,
    "SegmentedBuffer": pool_buffer,
}


@pytest.fixture(params=list(SUBSTRATES.values()), ids=list(SUBSTRATES))
def substrate(request):
    return request.param


def full_buffer(cls, capacity=3, **kwargs):
    buf = cls(capacity, **kwargs)
    for i in range(capacity):
        buf.push(i)
    return buf


# -- unified accounting (satellite: one semantics for `overflows`) ---------------


def test_block_push_raises_and_counts_each_encounter(substrate):
    buf = full_buffer(substrate)
    for _ in range(2):
        with pytest.raises(BufferOverflow):
            buf.push(99)
    assert buf.overflows == 2
    assert buf.items_dropped == 0
    assert buf.pushes == 3  # the rejected items never counted as pushes


def test_block_try_push_returns_false_and_counts(substrate):
    buf = full_buffer(substrate)
    assert buf.try_push(99) is False
    assert buf.overflows == 1
    assert list(iter_drain(buf)) == [0, 1, 2]


def test_successful_push_never_counts_an_overflow(substrate):
    buf = substrate(3)
    buf.push(0)
    assert buf.overflows == 0


def test_unknown_policy_rejected(substrate):
    with pytest.raises(ValueError, match="unknown overflow policy"):
        substrate(3, policy="yolo")


def test_pbpl_config_names_the_valid_policies():
    from repro.core import PBPLConfig

    with pytest.raises(ValueError) as err:
        PBPLConfig(overflow_policy="adaptive")
    message = str(err.value)
    assert "unknown overflow policy 'adaptive'" in message
    for policy in OVERFLOW_POLICIES:
        assert repr(policy) in message


def test_shed_policy_requires_age_and_clock(substrate):
    with pytest.raises(ValueError, match="max_item_age_s"):
        substrate(3, policy="shed-to-deadline")
    with pytest.raises(ValueError, match="clock"):
        substrate(3, policy="shed-to-deadline", max_item_age_s=1.0)


def iter_drain(buf):
    while not buf.is_empty:
        yield buf.pop()


# -- drop-oldest ----------------------------------------------------------------


def test_drop_oldest_keeps_the_newest_items(substrate):
    buf = full_buffer(substrate, policy="drop-oldest")
    assert buf.push(3) is True
    assert buf.push(4) is True
    assert buf.overflows == 2
    assert buf.dropped_oldest == 2
    assert buf.items_dropped == 2
    assert list(iter_drain(buf)) == [2, 3, 4]
    # Evictions are not consumer pops; only the drain above counted.
    assert buf.pops == 3


def test_drop_oldest_counts_admitted_items_as_pushes(substrate):
    buf = full_buffer(substrate, policy="drop-oldest")
    buf.push(3)
    assert buf.pushes == 4  # conservation: pushes == consumed+dropped+left


# -- drop-newest ----------------------------------------------------------------


def test_drop_newest_discards_the_incoming_item(substrate):
    buf = full_buffer(substrate, policy="drop-newest")
    assert buf.push(99) is False
    assert buf.overflows == 1
    assert buf.dropped_newest == 1
    assert buf.pushes == 3
    assert list(iter_drain(buf)) == [0, 1, 2]


# -- shed-to-deadline ------------------------------------------------------------


def test_shed_evicts_only_past_deadline_items(substrate):
    clock = {"now": 0.0}
    buf = substrate(
        3, policy="shed-to-deadline", max_item_age_s=1.0, clock=lambda: clock["now"]
    )
    for t in (0.0, 0.5, 2.0):  # items carry their production time
        buf.push(t)
    clock["now"] = 2.1  # items 0.0 and 0.5 are now past deadline
    assert buf.push(2.1) is True
    assert buf.shed == 2
    assert buf.dropped_newest == 0
    assert list(iter_drain(buf)) == [2.0, 2.1]


def test_shed_falls_back_to_drop_newest_when_nothing_is_stale(substrate):
    clock = {"now": 0.0}
    buf = substrate(
        3, policy="shed-to-deadline", max_item_age_s=10.0, clock=lambda: clock["now"]
    )
    for t in (0.0, 0.1, 0.2):
        buf.push(t)
    clock["now"] = 0.3  # everything still fresh
    assert buf.push(0.3) is False
    assert buf.shed == 0
    assert buf.dropped_newest == 1
    assert buf.overflows == 1


def test_conservation_holds_under_every_policy(substrate):
    for policy in OVERFLOW_POLICIES:
        kwargs = {}
        if policy == "shed-to-deadline":
            kwargs = dict(max_item_age_s=0.5, clock=lambda: 100.0)
        buf = substrate(4, policy=policy, **kwargs)
        admitted = 0
        for i in range(12):
            try:
                admitted += buf.push(float(i))
            except BufferOverflow:
                pass
        consumed = len(list(iter_drain(buf)))
        assert admitted == buf.pushes
        assert buf.pushes == consumed + buf.dropped_oldest + buf.shed
        assert buf.pops == consumed


def test_segmented_buffer_reclaims_segments_on_eviction():
    # 300 evictions free several of the deque's fixed-size head blocks.
    buf = pool_buffer(8, policy="drop-oldest")
    for i in range(308):
        buf.push(i)
    assert list(iter_drain(buf)) == list(range(300, 308))
    assert buf.dropped_oldest == 300
    assert buf.pushes == 308
