"""First-class primitive semantics: semaphores, rw-locks, barriers.

Each primitive parks its suspended threads in the shared
:class:`~repro.vm.waitq.WaitQueue` core, so these tests double as the
wait-queue core's behavioral contract: arrival order, policy selection,
interrupt delivery, and timed expiry all behave as they do for monitors.
"""

import pytest

from repro.vm import (
    Acquire,
    BarrierAwait,
    EventKind,
    FifoScheduler,
    Kernel,
    Release,
    RoundRobinScheduler,
    RunStatus,
    RwAcquire,
    RwRelease,
    SemAcquire,
    SemRelease,
    ThreadState,
    Yield,
)
from repro.vm.errors import (
    BrokenBarrierError,
    IllegalMonitorStateError,
    UnknownSyscallError,
)
from repro.vm.waitq import WaitQueue, find_cycle


def make_kernel(**kwargs):
    return Kernel(scheduler=FifoScheduler(), **kwargs)


def step_until(kernel, done):
    """Step ``kernel`` until ``done()`` holds."""
    while not done():
        assert kernel.step(), "quiescent before the awaited state"


class TestWaitQueue:
    def test_list_compatible_reads(self):
        q = WaitQueue(["a", "b"])
        q.add("c")
        assert len(q) == 3 and bool(q)
        assert list(q) == ["a", "b", "c"]
        assert "b" in q and "z" not in q
        assert q[0] == "a"
        assert q == ["a", "b", "c"]
        assert q == WaitQueue(["a", "b", "c"])
        assert q.snapshot() == ("a", "b", "c")

    def test_remove(self):
        q = WaitQueue(["a", "b"])
        q.remove("a")
        assert list(q) == ["b"]
        q.remove("b")
        assert not q
        with pytest.raises(ValueError):
            q.remove("b")

    def test_find_cycle_chain_walk(self):
        # monitor-style functional graph: a -> b -> c -> a
        edges = {"a": ["b"], "b": ["c"], "c": ["a"]}
        cycle = find_cycle(edges, starts=["a"])
        assert cycle == ["a", "b", "c"]

    def test_find_cycle_multigraph_fanout(self):
        # semaphore-style fan-out: w waits on both holders; only the
        # second successor closes a cycle
        edges = {"w": ["h1", "h2"], "h2": ["w"]}
        assert find_cycle(edges, starts=["w"]) == ["w", "h2"]

    def test_find_cycle_acyclic(self):
        assert find_cycle({"a": ["b"], "b": []}) == []


class TestSemaphore:
    def test_uncontended_acquire_release(self):
        kernel = make_kernel()
        sem = kernel.new_semaphore("s", permits=2)

        def t():
            got = yield SemAcquire("s", n=2)
            assert got is True
            yield SemRelease("s", n=2)

        kernel.spawn(t, name="t")
        result = kernel.run()
        assert result.ok
        assert sem.permits == 2 and not sem.holders

    def test_contended_acquire_blocks_until_release(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        kernel.new_semaphore("s", permits=1)
        order = []

        def holder():
            yield SemAcquire("s")
            yield Yield()
            order.append("holder-release")
            yield SemRelease("s")

        def waiter():
            yield SemAcquire("s")
            order.append("waiter-in")
            yield SemRelease("s")

        kernel.spawn(holder, name="h")
        kernel.spawn(waiter, name="w")
        assert kernel.run().ok
        assert order == ["holder-release", "waiter-in"]

    def test_no_barging_past_bulk_acquirer(self):
        """A queued acquirer needing more permits than are free stops the
        grant loop: a later single-permit acquirer must not overtake it."""
        kernel = Kernel(scheduler=RoundRobinScheduler())
        kernel.new_semaphore("s", permits=2)
        order = []

        def holder():
            yield SemAcquire("s", n=2)
            yield Yield()
            yield SemRelease("s", n=1)
            yield Yield()
            yield SemRelease("s", n=1)

        def bulk():
            yield SemAcquire("s", n=2)
            order.append("bulk")
            yield SemRelease("s", n=2)

        def single():
            yield SemAcquire("s")
            order.append("single")
            yield SemRelease("s")

        kernel.spawn(holder, name="h")
        kernel.spawn(bulk, name="b")
        kernel.spawn(single, name="s1")
        assert kernel.run().ok
        assert order.index("bulk") < order.index("single")

    def test_try_acquire_zero_timeout_resolves_false(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        kernel.new_semaphore("s", permits=1)
        seen = {}

        def holder():
            yield SemAcquire("s")
            yield Yield()
            yield Yield()
            yield SemRelease("s")

        def prober():
            got = yield SemAcquire("s", timeout=0)
            seen["got"] = got

        kernel.spawn(holder, name="h")
        kernel.spawn(prober, name="p")
        result = kernel.run()
        assert result.ok
        assert seen["got"] is False
        kinds = [e.kind for e in result.trace.by_thread("p")]
        assert EventKind.WAIT_TIMEOUT in kinds

    def test_release_by_non_holder_is_legal(self):
        kernel = make_kernel()
        sem = kernel.new_semaphore("s", permits=0)

        def producer():
            yield SemRelease("s")

        kernel.spawn(producer, name="p")
        assert kernel.run().ok
        assert sem.permits == 1

    def test_release_unblocks_in_arrival_order_under_fifo_policy(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        kernel.new_semaphore("s", permits=0)
        order = []

        def waiter(tag):
            yield SemAcquire("s")
            order.append(tag)
            yield SemRelease("s")

        def releaser():
            yield Yield()
            yield SemRelease("s")

        kernel.spawn(waiter, "first", name="w1")
        kernel.spawn(waiter, "second", name="w2")
        kernel.spawn(releaser, name="r")
        assert kernel.run().ok
        assert order == ["first", "second"]

    def test_blocked_acquirer_is_interruptible(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        kernel.new_semaphore("s", permits=0)

        def waiter():
            yield SemAcquire("s")

        kernel.spawn(waiter, name="w")
        kernel.step()  # w blocks
        assert kernel.threads["w"].state is ThreadState.BLOCKED
        kernel.interrupt("w")
        result = kernel.run()
        # propagating the InterruptedError out is the *correct* response
        # to cancellation: a clean, interrupted termination — not a crash
        assert not result.crashed
        ends = [
            e
            for e in result.trace.by_thread("w")
            if e.kind is EventKind.THREAD_END
        ]
        assert ends and ends[-1].detail.get("interrupted") is True

    def test_expire_acquire_rejects_unblocked_thread(self):
        kernel = make_kernel()
        kernel.new_semaphore("s", permits=1)

        def t():
            yield SemAcquire("s")
            yield Yield()
            yield SemRelease("s")

        kernel.spawn(t, name="t")
        kernel.step()  # acquires immediately, never blocks
        with pytest.raises(UnknownSyscallError):
            kernel.expire_wait("t")

    def test_invalid_permit_counts_raise(self):
        kernel = make_kernel()
        kernel.new_semaphore("s", permits=1)

        def bad():
            yield SemAcquire("s", n=0)

        kernel.spawn(bad, name="b")
        result = kernel.run()
        assert isinstance(result.crashed.get("b"), ValueError)

    def test_mixed_monitor_semaphore_deadlock_detected(self):
        """The wait-for graph closes cycles across primitive kinds: a
        monitor edge and a semaphore edge form one deadlock."""
        kernel = Kernel(scheduler=RoundRobinScheduler())
        kernel.new_monitor("m")
        kernel.new_semaphore("s", permits=1)

        def t1():
            yield SemAcquire("s")
            yield Yield()
            yield Acquire("m")
            yield Release("m")
            yield SemRelease("s")

        def t2():
            yield Acquire("m")
            yield Yield()
            yield SemAcquire("s")
            yield SemRelease("s")
            yield Release("m")

        kernel.spawn(t1, name="t1")
        kernel.spawn(t2, name="t2")
        result = kernel.run()
        assert result.status is RunStatus.DEADLOCK
        assert set(result.deadlock_cycle) == {"t1", "t2"}


class TestRwLock:
    def test_readers_share_writer_excludes(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        lock = kernel.new_rwlock("rw")
        overlap = {"max": 0, "now": 0}

        def reader():
            yield RwAcquire("rw", "read")
            overlap["now"] += 1
            overlap["max"] = max(overlap["max"], overlap["now"])
            yield Yield()
            overlap["now"] -= 1
            yield RwRelease("rw")

        def writer():
            yield RwAcquire("rw", "write")
            assert overlap["now"] == 0
            yield RwRelease("rw")

        kernel.spawn(reader, name="r1")
        kernel.spawn(reader, name="r2")
        kernel.spawn(writer, name="w")
        assert kernel.run().ok
        assert overlap["max"] == 2
        assert lock.writer is None and not lock.readers

    def test_writer_preference_blocks_new_readers(self):
        """Under writer preference a queued writer shuts off reader
        admission: the late reader must run after the writer."""
        kernel = Kernel(scheduler=RoundRobinScheduler())
        kernel.new_rwlock("rw", preference="writer")
        order = []

        def early_reader():
            yield RwAcquire("rw", "read")
            yield Yield()
            yield Yield()
            yield RwRelease("rw")

        def writer():
            yield RwAcquire("rw", "write")
            order.append("writer")
            yield RwRelease("rw")

        def late_reader():
            yield Yield()  # let the writer queue first
            yield RwAcquire("rw", "read")
            order.append("late-reader")
            yield RwRelease("rw")

        kernel.spawn(early_reader, name="r0")
        kernel.spawn(writer, name="w")
        kernel.spawn(late_reader, name="r1")
        assert kernel.run().ok
        assert order == ["writer", "late-reader"]

    def test_reader_preference_admits_readers_past_queued_writer(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        kernel.new_rwlock("rw", preference="reader")
        order = []

        def early_reader():
            yield RwAcquire("rw", "read")
            yield Yield()
            yield Yield()
            yield RwRelease("rw")

        def writer():
            yield RwAcquire("rw", "write")
            order.append("writer")
            yield RwRelease("rw")

        def late_reader():
            yield Yield()
            yield RwAcquire("rw", "read")
            order.append("late-reader")
            yield RwRelease("rw")

        kernel.spawn(early_reader, name="r0")
        kernel.spawn(writer, name="w")
        kernel.spawn(late_reader, name="r1")
        assert kernel.run().ok
        assert order == ["late-reader", "writer"]

    def test_reentrant_read_and_write(self):
        kernel = make_kernel()
        lock = kernel.new_rwlock("rw")

        def t():
            yield RwAcquire("rw", "write")
            yield RwAcquire("rw", "write")
            assert lock.writer_depth == 2
            yield RwRelease("rw")
            assert lock.writer == "t"
            yield RwRelease("rw")
            yield RwAcquire("rw", "read")
            yield RwAcquire("rw", "read")
            assert lock.readers["t"] == 2
            yield RwRelease("rw")
            yield RwRelease("rw")

        kernel.spawn(t, name="t")
        assert kernel.run().ok
        assert lock.writer is None and not lock.readers

    def test_downgrade_write_to_read(self):
        kernel = make_kernel()
        lock = kernel.new_rwlock("rw")

        def t():
            yield RwAcquire("rw", "write")
            yield RwAcquire("rw", "read")  # the atomic downgrade (R4)
            yield RwRelease("rw")  # releases the *write* hold first
            assert lock.writer is None and lock.readers.get("t") == 1
            yield RwRelease("rw")

        kernel.spawn(t, name="t")
        result = kernel.run()
        assert result.ok
        kinds = [e.kind for e in result.trace.by_thread("t")]
        assert EventKind.RW_DOWNGRADE in kinds
        assert lock.writer is None and not lock.readers

    def test_read_to_write_upgrade_self_deadlocks(self):
        kernel = make_kernel()
        kernel.new_rwlock("rw")

        def t():
            yield RwAcquire("rw", "read")
            yield RwAcquire("rw", "write")  # unsupported upgrade: self-edge

        kernel.spawn(t, name="t")
        result = kernel.run()
        assert result.status is RunStatus.DEADLOCK
        assert result.deadlock_cycle == ["t"]

    def test_release_without_hold_crashes(self):
        kernel = make_kernel()
        kernel.new_rwlock("rw")

        def t():
            yield RwRelease("rw")

        kernel.spawn(t, name="t")
        result = kernel.run()
        assert isinstance(result.crashed.get("t"), IllegalMonitorStateError)

    def test_blocked_reader_is_interruptible(self):
        kernel = make_kernel()
        lock = kernel.new_rwlock("rw")
        kernel.new_semaphore("gate", permits=0)
        seen = {}

        def writer():
            yield RwAcquire("rw", "write")
            yield SemAcquire("gate")  # hold the write lock until opened
            yield RwRelease("rw")

        def reader():
            try:
                yield RwAcquire("rw", "read")
            except InterruptedError as exc:
                seen["error"] = exc
                yield SemRelease("gate")
                return "interrupted"
            yield RwRelease("rw")
            return "read"

        kernel.spawn(writer, name="w")
        kernel.spawn(reader, name="r")
        r = kernel.threads["r"]
        step_until(kernel, lambda: r.state is ThreadState.BLOCKED)
        assert lock.writer == "w" and lock.read_queue == ["r"]
        kernel.interrupt("r")
        # out of the read queue at once, runnable, the park cleared
        assert lock.read_queue == [] and r.state is ThreadState.RUNNABLE
        assert r.blocked_on is None and r.blocked_arg is None
        result = kernel.run()
        assert result.ok
        assert result.thread_results["r"] == "interrupted"
        assert "rw-lock 'rw' for read" in str(seen["error"])
        assert lock.writer is None and not lock.readers

    def test_interrupted_queued_writer_readmits_held_back_readers(self):
        """Under writer preference a queued writer holds back new readers;
        interrupting it re-runs the grant, which admits them at once."""
        kernel = make_kernel()
        lock = kernel.new_rwlock("rw", preference="writer")
        kernel.new_semaphore("gate", permits=0)

        def first_reader():
            yield RwAcquire("rw", "read")
            yield SemAcquire("gate")  # hold the read lock until opened
            yield RwRelease("rw")

        def writer():
            try:
                yield RwAcquire("rw", "write")
            except InterruptedError:
                return "interrupted"
            yield RwRelease("rw")
            return "wrote"

        def second_reader():
            yield RwAcquire("rw", "read")
            yield SemRelease("gate")
            yield RwRelease("rw")

        kernel.spawn(first_reader, name="r0")
        kernel.spawn(writer, name="w")
        kernel.spawn(second_reader, name="r1")
        r1 = kernel.threads["r1"]
        step_until(kernel, lambda: r1.state is ThreadState.BLOCKED)
        # r0 reads, w queues for write, r1 is held back behind it
        assert list(lock.readers) == ["r0"]
        assert lock.write_queue == ["w"] and lock.read_queue == ["r1"]
        kernel.interrupt("w")
        assert lock.write_queue == [] and lock.read_queue == []
        assert set(lock.readers) == {"r0", "r1"}
        assert r1.state is ThreadState.RUNNABLE
        admitted = [
            e for e in kernel.trace
            if e.kind is EventKind.RW_ACQUIRE and e.thread == "r1"
        ]
        assert admitted[-1].detail["readers"] == 2
        result = kernel.run()
        assert result.ok and result.thread_results["w"] == "interrupted"
        assert lock.writer is None and not lock.readers

    def test_waits_on_edges_per_primitive(self):
        """Each primitive's ``waits_on`` is the kernel's wait-for edge: on
        a deadlocked mixed-deadlock run the monitor and semaphore edges
        close exactly the cycle ``Kernel._wait_for_cycle`` reports."""
        from repro.engine.workloads import WORKLOADS
        from repro.vm import RandomScheduler

        kernel = WORKLOADS["mixed-deadlock"](RandomScheduler(seed=0))
        result = kernel.run()
        assert result.status is RunStatus.DEADLOCK
        t1, t2 = kernel.threads["t1"], kernel.threads["t2"]
        monitor = kernel.primitives[t1.blocked_on]
        semaphore = kernel.primitives[t2.blocked_on]
        assert (monitor.name, semaphore.name) == ("m", "s")
        assert monitor.waits_on(t1) == ["t2"]  # the monitor's owner
        assert semaphore.waits_on(t2) == ["t1"]  # every permit holder
        assert kernel._blocked_edges() == {"t1": ["t2"], "t2": ["t1"]}
        assert kernel._wait_for_cycle() == result.deadlock_cycle == ["t1", "t2"]

        # a rw acquirer waits on every holder (the upgrade: on itself)
        kernel = make_kernel()
        lock = kernel.new_rwlock("rw")

        def upgrader():
            yield RwAcquire("rw", "read")
            yield RwAcquire("rw", "write")

        kernel.spawn(upgrader, name="u")
        result = kernel.run()
        assert lock.waits_on(kernel.threads["u"]) == ["u"]
        assert kernel._wait_for_cycle() == result.deadlock_cycle == ["u"]

        # a barrier party waits on arrivals nobody owes: no edge, no cycle
        kernel = make_kernel()
        barrier = kernel.new_barrier("b", parties=2)

        def party():
            yield BarrierAwait("b")

        kernel.spawn(party, name="p")
        result = kernel.run()
        assert result.status is RunStatus.STUCK
        assert barrier.waits_on(kernel.threads["p"]) == []
        assert kernel._blocked_edges() == {} and kernel._wait_for_cycle() == []


class TestBarrier:
    def test_trip_releases_all_with_arrival_indices(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        barrier = kernel.new_barrier("b", parties=3)

        def party():
            index = yield BarrierAwait("b")
            return index

        for i in range(3):
            kernel.spawn(party, name=f"t{i}")
        result = kernel.run()
        assert result.ok
        assert sorted(result.thread_results.values()) == [0, 1, 2]
        assert barrier.generation == 1 and not barrier.waiters

    def test_cyclic_reuse_across_generations(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        barrier = kernel.new_barrier("b", parties=2)

        def party():
            yield BarrierAwait("b")
            yield Yield()
            yield BarrierAwait("b")

        kernel.spawn(party, name="a")
        kernel.spawn(party, name="b0")
        assert kernel.run().ok
        assert barrier.generation == 2

    def test_missing_party_parks_everyone(self):
        kernel = Kernel(scheduler=RoundRobinScheduler(), max_steps=500)
        kernel.new_barrier("b", parties=3)

        def party():
            yield BarrierAwait("b")

        kernel.spawn(party, name="t0")
        kernel.spawn(party, name="t1")
        result = kernel.run()
        assert result.status is RunStatus.STUCK
        assert set(result.stuck_threads) == {"t0", "t1"}

    def test_interrupt_breaks_barrier_for_everyone(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        barrier = kernel.new_barrier("b", parties=3)

        def party():
            yield BarrierAwait("b")

        kernel.spawn(party, name="t0")
        kernel.spawn(party, name="t1")
        kernel.step()
        kernel.step()  # both parked
        kernel.interrupt("t0")
        result = kernel.run()
        # t0 propagates the InterruptedError (clean cancel); t1's await
        # resumes with BrokenBarrierError, which is a genuine crash
        assert "t0" not in result.crashed
        assert isinstance(result.crashed.get("t1"), BrokenBarrierError)
        assert barrier.broken

    def test_broken_barrier_rejects_future_arrivals(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        kernel.new_barrier("b", parties=2)

        def victim():
            yield BarrierAwait("b")

        def late():
            yield Yield()
            yield Yield()
            yield BarrierAwait("b")

        kernel.spawn(victim, name="v")
        kernel.spawn(late, name="l")
        kernel.step()  # v parks
        kernel.interrupt("v")
        result = kernel.run()
        assert "v" not in result.crashed
        assert isinstance(result.crashed.get("l"), BrokenBarrierError)
