"""Unit tests for Semaphore, Mutex and ConditionVariable."""

import pytest

from repro.sim import ConditionVariable, Environment, Mutex, Semaphore, SimulationError


# -- Semaphore ---------------------------------------------------------------


def test_semaphore_initial_value():
    env = Environment()
    assert Semaphore(env, 3).value == 3


def test_semaphore_negative_value_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        Semaphore(env, -1)


def test_semaphore_acquire_available_is_immediate():
    env = Environment()
    sem = Semaphore(env, 1)
    log = []

    def proc(env):
        yield sem.acquire()
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [0.0]
    assert sem.value == 0


def test_semaphore_acquire_blocks_until_release():
    env = Environment()
    sem = Semaphore(env, 0)
    log = []

    def taker(env):
        yield sem.acquire()
        log.append(env.now)

    def giver(env):
        yield env.timeout(5.0)
        sem.release()

    env.process(taker(env))
    env.process(giver(env))
    env.run()
    assert log == [5.0]


def test_semaphore_fifo_ordering():
    env = Environment()
    sem = Semaphore(env, 0)
    order = []

    def taker(env, tag):
        yield sem.acquire()
        order.append(tag)

    for tag in "abc":
        env.process(taker(env, tag))

    def giver(env):
        yield env.timeout(1.0)
        sem.release(3)

    env.process(giver(env))
    env.run()
    assert order == ["a", "b", "c"]


def test_semaphore_try_acquire():
    env = Environment()
    sem = Semaphore(env, 1)
    assert sem.try_acquire()
    assert not sem.try_acquire()
    sem.release()
    assert sem.try_acquire()


def test_semaphore_capacity_guards_double_release():
    env = Environment()
    sem = Semaphore(env, 1, capacity=1)
    with pytest.raises(SimulationError):
        sem.release()


def test_semaphore_failed_release_changes_nothing():
    env = Environment()
    sem = Semaphore(env, 1, capacity=2)
    with pytest.raises(SimulationError, match="above capacity"):
        sem.release(2)
    assert sem.value == 1
    assert sem.waiting == 0


def test_semaphore_failed_release_wakes_no_waiter():
    env = Environment()
    sem = Semaphore(env, 0, capacity=1)
    woken = []

    def taker(env):
        yield sem.acquire()
        woken.append(env.now)

    env.process(taker(env))
    env.run()
    assert sem.waiting == 1
    # One unit would go to the waiter, the other two exceed capacity 1.
    with pytest.raises(SimulationError, match="above capacity"):
        sem.release(3)
    env.run()
    assert (sem.value, sem.waiting, woken) == (0, 1, [])
    # Within capacity once the waiter takes its unit.
    sem.release(2)
    env.run()
    assert (sem.value, sem.waiting, woken) == (1, 0, [0.0])


def test_semaphore_release_count_validation():
    env = Environment()
    sem = Semaphore(env, 0)
    with pytest.raises(SimulationError):
        sem.release(0)


def test_semaphore_cancel_pending_acquire():
    env = Environment()
    sem = Semaphore(env, 0)
    req = sem.acquire()
    assert sem.waiting == 1
    assert sem.cancel(req)
    assert sem.waiting == 0
    assert not sem.cancel(req)  # already gone
    sem.release()
    assert sem.value == 1  # the unit was not stolen by the cancelled request


def test_semaphore_waiting_counter():
    env = Environment()
    sem = Semaphore(env, 0)

    def taker(env):
        yield sem.acquire()

    env.process(taker(env))
    env.process(taker(env))
    env.run()  # both now blocked; run drains the (empty) schedule
    assert sem.waiting == 2


# -- Mutex --------------------------------------------------------------------


def test_mutex_basic_lock_unlock():
    env = Environment()
    mtx = Mutex(env)

    def proc(env):
        yield mtx.acquire()
        assert mtx.locked
        mtx.release()
        assert not mtx.locked

    p = env.process(proc(env))
    env.run(until=p)


def test_mutex_mutual_exclusion_and_fifo_handoff():
    env = Environment()
    mtx = Mutex(env)
    log = []

    def proc(env, tag, hold):
        yield mtx.acquire()
        log.append(("in", tag, env.now))
        yield env.timeout(hold)
        log.append(("out", tag, env.now))
        mtx.release()

    env.process(proc(env, "a", 2.0))
    env.process(proc(env, "b", 1.0))
    env.run()
    assert log == [
        ("in", "a", 0.0),
        ("out", "a", 2.0),
        ("in", "b", 2.0),
        ("out", "b", 3.0),
    ]


def test_mutex_release_unlocked_raises():
    env = Environment()
    mtx = Mutex(env)
    with pytest.raises(SimulationError):
        mtx.release()


def test_mutex_release_by_non_owner_raises():
    env = Environment()
    mtx = Mutex(env)

    def owner(env):
        yield mtx.acquire()
        yield env.timeout(10.0)
        mtx.release()

    def thief(env):
        yield env.timeout(1.0)
        mtx.release()

    env.process(owner(env))
    thief_p = env.process(thief(env))
    with pytest.raises(SimulationError, match="released by"):
        env.run(until=thief_p)


def test_mutex_is_not_recursive():
    env = Environment()
    mtx = Mutex(env)

    def proc(env):
        yield mtx.acquire()
        yield mtx.acquire()

    p = env.process(proc(env))
    with pytest.raises(SimulationError, match="not recursive"):
        env.run(until=p)


def test_mutex_try_acquire_takes_a_free_lock():
    env = Environment()
    mtx = Mutex(env)
    seen = []

    def proc(env):
        assert mtx.try_acquire()
        seen.append((mtx.owner is env.active_process, len(env)))
        mtx.release()
        assert not mtx.locked
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    # Owner recorded on the spot, and no grant event was scheduled.
    assert seen == [(True, 0)]


def test_mutex_try_acquire_fails_while_held():
    env = Environment()
    mtx = Mutex(env)
    log = []

    def owner(env):
        yield mtx.acquire()
        yield env.timeout(2.0)
        mtx.release()

    def other(env):
        yield env.timeout(1.0)
        log.append(mtx.try_acquire())
        log.append(mtx.owner is owner_p)

    owner_p = env.process(owner(env))
    env.process(other(env))
    env.run()
    assert log == [False, True]
    assert not mtx.locked  # the failed try queued nothing


def test_mutex_try_acquire_respects_queued_waiters():
    env = Environment()
    mtx = Mutex(env)
    log = []

    def owner(env):
        yield mtx.acquire()
        yield env.timeout(1.0)
        mtx.release()  # hands off to the ownerless waiter below

    def queued(env):
        yield env.timeout(0.5)
        yield mtx.acquire()
        log.append(("queued", env.now))
        mtx.release()

    def late(env):
        yield env.timeout(2.0)
        # The lock is free but a waiter is queued: FIFO says no.
        log.append(("try", mtx.locked, mtx.try_acquire()))

    env.process(owner(env))
    env.process(queued(env))
    env.process(late(env))
    env.run(until=0.25)
    # An acquire from outside any process has no owner to record, so
    # its grant leaves the lock free with ``queued`` still waiting.
    mtx.acquire()
    env.run()
    assert log == [("try", False, False)]


def test_mutex_try_acquire_then_acquire_is_not_recursive():
    env = Environment()
    mtx = Mutex(env)

    def proc(env):
        assert mtx.try_acquire()
        assert not mtx.try_acquire()  # held, by the caller itself
        yield mtx.acquire()

    p = env.process(proc(env))
    with pytest.raises(SimulationError, match="not recursive"):
        env.run(until=p)


def test_mutex_try_acquire_owner_only_release():
    env = Environment()
    mtx = Mutex(env)

    def owner(env):
        assert mtx.try_acquire()
        yield env.timeout(10.0)
        mtx.release()

    def thief(env):
        yield env.timeout(1.0)
        mtx.release()

    env.process(owner(env))
    thief_p = env.process(thief(env))
    with pytest.raises(SimulationError, match="released by"):
        env.run(until=thief_p)


# -- ConditionVariable ----------------------------------------------------------


def test_condvar_wait_notify_roundtrip():
    env = Environment()
    mtx = Mutex(env)
    cv = ConditionVariable(env, mtx)
    shared = {"items": 0}
    log = []

    def consumer(env):
        yield mtx.acquire()
        while shared["items"] == 0:
            yield from cv.wait()
        log.append(("consumed", env.now, shared["items"]))
        shared["items"] -= 1
        mtx.release()

    def producer(env):
        yield env.timeout(3.0)
        yield mtx.acquire()
        shared["items"] += 1
        cv.notify()
        mtx.release()

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert log == [("consumed", 3.0, 1)]


def test_condvar_wait_requires_mutex_held():
    env = Environment()
    mtx = Mutex(env)
    cv = ConditionVariable(env, mtx)

    def proc(env):
        yield from cv.wait()

    p = env.process(proc(env))
    with pytest.raises(SimulationError, match="requires holding"):
        env.run(until=p)


def test_condvar_notify_returns_woken_count():
    env = Environment()
    mtx = Mutex(env)
    cv = ConditionVariable(env, mtx)

    def waiter(env):
        yield mtx.acquire()
        yield from cv.wait()
        mtx.release()

    env.process(waiter(env))
    env.process(waiter(env))

    def notifier(env):
        yield env.timeout(1.0)
        assert cv.notify_all() == 2

    env.process(notifier(env))
    env.run()
    assert cv.waiting == 0


def test_condvar_notify_with_no_waiters_is_noop():
    env = Environment()
    mtx = Mutex(env)
    cv = ConditionVariable(env, mtx)
    assert cv.notify() == 0
    assert cv.notify_all() == 0


def test_condvar_wait_reacquires_mutex_before_returning():
    env = Environment()
    mtx = Mutex(env)
    cv = ConditionVariable(env, mtx)
    checks = []

    def waiter(env):
        yield mtx.acquire()
        yield from cv.wait()
        checks.append(mtx.locked and mtx.owner is env.active_process)
        mtx.release()

    def notifier(env):
        yield env.timeout(1.0)
        yield mtx.acquire()
        cv.notify()
        mtx.release()

    env.process(waiter(env))
    env.process(notifier(env))
    env.run()
    assert checks == [True]


def test_condvar_contended_reacquire_queues_fifo():
    env = Environment()
    mtx = Mutex(env)
    cv = ConditionVariable(env, mtx)
    log = []

    def waiter(env):
        yield mtx.acquire()
        yield from cv.wait()
        log.append(("waiter", env.now))
        mtx.release()

    def notifier(env):
        yield env.timeout(0.2)
        yield mtx.acquire()
        yield env.timeout(0.8)
        cv.notify()  # the waiter wakes while the lock is still held
        yield env.timeout(1.0)
        mtx.release()

    def earlier(env):
        yield env.timeout(0.5)
        yield mtx.acquire()  # queued before the waiter is notified
        log.append(("earlier", env.now))
        yield env.timeout(1.0)
        mtx.release()

    env.process(waiter(env))
    env.process(notifier(env))
    env.process(earlier(env))
    env.run()
    assert log == [("earlier", 2.0), ("waiter", 3.0)]
