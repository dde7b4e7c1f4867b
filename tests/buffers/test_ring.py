"""Unit tests for the bounded FIFO in its §III-A role: the circular
buffer BW, Yield, Sem, BP, PBP and SPBP share."""

import pytest

from repro.buffers import BoundedBuffer, BufferOverflow, BufferUnderflow


def test_new_buffer_is_empty():
    buf = BoundedBuffer(4)
    assert buf.is_empty
    assert not buf.is_full
    assert len(buf) == 0
    assert buf.capacity == 4


def test_push_pop_fifo():
    buf = BoundedBuffer(3)
    buf.push("a")
    buf.push("b")
    buf.push("c")
    assert [buf.pop(), buf.pop(), buf.pop()] == ["a", "b", "c"]


def test_push_full_raises_and_counts_overflow():
    buf = BoundedBuffer(2)
    buf.push(1)
    buf.push(2)
    with pytest.raises(BufferOverflow):
        buf.push(3)
    assert buf.overflows == 1


def test_try_push_returns_false_when_full():
    buf = BoundedBuffer(1)
    assert buf.try_push(1)
    assert not buf.try_push(2)
    assert buf.overflows == 1


def test_pop_empty_raises():
    with pytest.raises(BufferUnderflow):
        BoundedBuffer(1).pop()


def test_peek_does_not_consume():
    buf = BoundedBuffer(2)
    buf.push("x")
    assert buf.peek() == "x"
    assert len(buf) == 1
    assert buf.pop() == "x"


def test_peek_empty_raises():
    with pytest.raises(BufferUnderflow):
        BoundedBuffer(1).peek()


def test_wraparound_preserves_order():
    buf = BoundedBuffer(3)
    for i in range(3):
        buf.push(i)
    assert buf.pop() == 0
    buf.push(3)  # wraps tail
    assert [buf.pop() for _ in range(3)] == [1, 2, 3]


def test_capacity_n_holds_n_items():
    buf = BoundedBuffer(5)
    for i in range(5):
        buf.push(i)
    assert buf.is_full
    assert len(buf) == 5


def test_drain_all():
    buf = BoundedBuffer(4)
    for i in range(4):
        buf.push(i)
    assert buf.drain() == [0, 1, 2, 3]
    assert buf.is_empty


def test_drain_with_limit():
    buf = BoundedBuffer(4)
    for i in range(4):
        buf.push(i)
    assert buf.drain(2) == [0, 1]
    assert len(buf) == 2


def test_iteration_oldest_to_newest_nonconsuming():
    buf = BoundedBuffer(4)
    for i in range(3):
        buf.push(i)
    buf.pop()
    buf.push(3)
    assert list(buf) == [1, 2, 3]
    assert len(buf) == 3


def test_operation_counters():
    buf = BoundedBuffer(2)
    buf.push(1)
    buf.push(2)
    buf.pop()
    buf.try_push(3)
    buf.try_push(4)  # overflow
    assert buf.pushes == 3
    assert buf.pops == 1
    assert buf.overflows == 1


def test_invalid_capacity():
    with pytest.raises(ValueError):
        BoundedBuffer(0)
