"""Unit tests for the bounded FIFO in its two other roles: Mutex's
counted non-circular buffer (§III-A) and PBPL's elastic walls (§V-C),
whose capacity the global pool moves in place."""

import pytest

from repro.buffers import (
    BoundedBuffer,
    BufferOverflow,
    BufferUnderflow,
    GlobalBufferPool,
)


# -- the counted buffer (Mutex) ------------------------------------------------


def test_bounded_fifo_and_count():
    buf = BoundedBuffer(3)
    buf.push(1)
    buf.push(2)
    assert len(buf) == 2
    assert buf.pop() == 1
    assert len(buf) == 1


def test_bounded_overflow_and_underflow():
    buf = BoundedBuffer(1)
    buf.push(1)
    with pytest.raises(BufferOverflow):
        buf.push(2)
    buf.pop()
    with pytest.raises(BufferUnderflow):
        buf.pop()


def test_bounded_drain_and_iter():
    buf = BoundedBuffer(5)
    for i in range(4):
        buf.push(i)
    assert list(buf) == [0, 1, 2, 3]
    assert buf.drain(3) == [0, 1, 2]
    assert buf.drain() == [3]
    assert buf.pops == 4


def test_bounded_peek():
    buf = BoundedBuffer(2)
    buf.push("x")
    assert buf.peek() == "x"
    assert len(buf) == 1


def test_bounded_invalid_capacity():
    with pytest.raises(ValueError):
        BoundedBuffer(0)


# -- the elastic walls (PBPL) ----------------------------------------------------


def test_segmented_fifo_across_segment_boundaries():
    # 200 items cross several of the deque's fixed-size blocks.
    buf = BoundedBuffer(200)
    for i in range(200):
        buf.push(i)
    assert [buf.pop() for _ in range(200)] == list(range(200))


def test_segmented_overflow_at_capacity():
    buf = BoundedBuffer(2)
    buf.push(1)
    buf.push(2)
    with pytest.raises(BufferOverflow):
        buf.push(3)
    assert buf.overflows == 1


def test_segmented_grow_admits_more():
    buf = BoundedBuffer(2)
    buf.push(1)
    buf.push(2)
    assert buf.set_capacity(4) == 4
    buf.push(3)
    buf.push(4)
    assert buf.is_full


def test_segmented_shrink_releases_capacity():
    buf = BoundedBuffer(10)
    assert buf.set_capacity(6) == 6
    assert buf.capacity == 6


def test_segmented_shrink_clamps_to_occupancy():
    buf = BoundedBuffer(10)
    for i in range(7):
        buf.push(i)
    assert buf.set_capacity(3) == 7  # cannot discard buffered items
    assert len(buf) == 7


def test_segmented_shrink_floor_is_one():
    pool = GlobalBufferPool(base_allocation=5, n_consumers=1)
    pool.register("c")
    assert pool.downsize("c", -100) == 1
    assert pool.buffer("c").capacity == 1


def test_segmented_interleaved_push_pop_resize():
    buf = BoundedBuffer(4)
    buf.push("a")
    buf.push("b")
    assert buf.pop() == "a"
    buf.set_capacity(3)  # holds "b", room for 2 more
    buf.push("c")
    assert not buf.is_full
    buf.push("d")
    assert buf.is_full
    assert buf.drain() == ["b", "c", "d"]


def test_segmented_drain_limit():
    buf = BoundedBuffer(10)
    for i in range(6):
        buf.push(i)
    assert buf.drain(4) == [0, 1, 2, 3]
    assert len(buf) == 2
    assert buf.drain(0) == []
    assert buf.pops == 4


def test_segmented_peek_and_iter():
    buf = BoundedBuffer(10)
    for i in range(5):
        buf.push(i)
    buf.pop()
    buf.pop()
    assert buf.peek() == 2
    assert list(buf) == [2, 3, 4]


def test_segmented_validation():
    with pytest.raises(ValueError):
        BoundedBuffer(0)
    buf = BoundedBuffer(5)
    with pytest.raises(ValueError):
        buf.set_capacity(0)
    assert buf.capacity == 5


def test_segmented_memory_reclaim_keeps_length_consistent():
    """Blocks freed as the head advances must not corrupt the order."""
    buf = BoundedBuffer(1000)
    expected = []
    for i in range(300):
        buf.push(i)
        expected.append(i)
        if i % 2 == 0:
            assert buf.pop() == expected.pop(0)
    assert list(buf) == expected
    assert len(buf) == len(expected)
