"""Property-based tests: the bounded FIFO behaves as one, whether built
directly or handed out and resized by the pool; the pool never
over-commits."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import pytest

from repro.buffers import BoundedBuffer, BufferOverflow, GlobalBufferPool

# Op streams: True = push (with a counter value), False = pop.
ops_strategy = st.lists(st.booleans(), max_size=200)


def run_fifo_model(buf, ops):
    """Drive ``buf`` against a list model; returns False on divergence."""
    model = []
    next_val = 0
    for is_push in ops:
        if is_push:
            ok = buf.try_push(next_val)
            assert ok == (len(model) < buf.capacity)
            if ok:
                model.append(next_val)
            next_val += 1
        else:
            if model:
                assert buf.pop() == model.pop(0)
            else:
                assert buf.is_empty
        assert len(buf) == len(model)
        assert buf.is_empty == (not model)
        assert buf.is_full == (len(model) == buf.capacity)
    assert list(buf) == model


@given(capacity=st.integers(1, 20), ops=ops_strategy)
@settings(max_examples=200, deadline=None)
def test_ring_buffer_matches_fifo_model(capacity, ops):
    # The circular-buffer role (§III-A): a full buffer refuses by raising,
    # and the operation counters track the model exactly.
    buf = BoundedBuffer(capacity)
    model = []
    pushes = pops = overflows = 0
    for value, is_push in enumerate(ops):
        if is_push:
            if len(model) < capacity:
                buf.push(value)
                model.append(value)
                pushes += 1
            else:
                with pytest.raises(BufferOverflow):
                    buf.push(value)
                overflows += 1
        elif model:
            assert buf.pop() == model.pop(0)
            pops += 1
        assert list(buf) == model
    assert (buf.pushes, buf.pops, buf.overflows) == (pushes, pops, overflows)


@given(capacity=st.integers(1, 20), ops=ops_strategy)
@settings(max_examples=200, deadline=None)
def test_bounded_buffer_matches_fifo_model(capacity, ops):
    run_fifo_model(BoundedBuffer(capacity), ops)


@given(
    capacity=st.integers(1, 20),
    base=st.integers(1, 20),
    ops=ops_strategy,
)
@settings(max_examples=200, deadline=None)
def test_segmented_buffer_matches_fifo_model(capacity, base, ops):
    # A pool buffer whose wall the pool already moved once.
    pool = GlobalBufferPool(base, 1)
    buf = pool.register("c")
    buf.set_capacity(capacity)
    run_fifo_model(buf, ops)


@given(
    capacity=st.integers(2, 30),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_segmented_buffer_fifo_survives_resizing(capacity, data):
    buf = BoundedBuffer(capacity)
    model = []
    next_val = 0
    for _ in range(data.draw(st.integers(0, 80))):
        action = data.draw(st.sampled_from(["push", "pop", "grow", "shrink"]))
        if action == "push":
            if buf.try_push(next_val):
                model.append(next_val)
            next_val += 1
        elif action == "pop" and model:
            assert buf.pop() == model.pop(0)
        elif action == "grow":
            buf.set_capacity(buf.capacity + data.draw(st.integers(0, 10)))
        elif action == "shrink":
            buf.set_capacity(max(1, buf.capacity - data.draw(st.integers(0, 10))))
        assert buf.capacity >= max(1, len(model))
        assert len(buf) == len(model)
    assert buf.drain() == model


class PoolMachine(RuleBasedStateMachine):
    """Stateful test: the pool's entitlement invariant under churn."""

    @initialize(
        base=st.integers(5, 40),
        consumers=st.integers(1, 6),
    )
    def setup(self, base, consumers):
        self.pool = GlobalBufferPool(base, consumers)
        self.ids = [f"c{i}" for i in range(consumers)]
        for cid in self.ids:
            self.pool.register(cid)

    @rule(idx=st.integers(0, 5), target_cap=st.integers(1, 200))
    def downsize(self, idx, target_cap):
        cid = self.ids[idx % len(self.ids)]
        self.pool.downsize(cid, target_cap)

    @rule(idx=st.integers(0, 5), desired=st.integers(1, 400))
    def upsize(self, idx, desired):
        cid = self.ids[idx % len(self.ids)]
        self.pool.upsize(cid, desired)

    @rule(idx=st.integers(0, 5), n=st.integers(1, 30))
    def push_items(self, idx, n):
        cid = self.ids[idx % len(self.ids)]
        buf = self.pool.buffer(cid)
        for i in range(n):
            if not buf.try_push(i):
                break

    @rule(idx=st.integers(0, 5))
    def drain(self, idx):
        cid = self.ids[idx % len(self.ids)]
        self.pool.buffer(cid).drain()

    @rule(idx=st.integers(0, 5))
    def release(self, idx):
        cid = self.ids[idx % len(self.ids)]
        self.pool.release_to_base(cid)

    @invariant()
    def never_overcommitted(self):
        if hasattr(self, "pool"):
            self.pool.check_invariant()

    @invariant()
    def buffers_within_entitlement(self):
        if hasattr(self, "pool"):
            for cid in self.ids:
                buf = self.pool.buffer(cid)
                assert len(buf) <= buf.capacity


TestPoolStateMachine = PoolMachine.TestCase
