"""Tests for the lock-order-graph and wait-for-graph deadlock detectors."""

from repro.components import Account, OrderedPair
from repro.components.faulty import DeadlockPair
from repro.detect import (
    build_lock_graph,
    detect_lock_cycles,
    find_deadlock_cycle,
    reconstruct_final_state,
)
from repro.vm import (
    Acquire,
    FifoScheduler,
    Kernel,
    Release,
    RoundRobinScheduler,
    RunStatus,
    Wait,
    Notify,
    Yield,
)


def nested_lock_program(order_a, order_b, scheduler=None):
    kernel = Kernel(scheduler=scheduler or FifoScheduler())
    kernel.new_monitor("m1")
    kernel.new_monitor("m2")

    def worker(first, second):
        yield Acquire(first)
        yield Yield()
        yield Acquire(second)
        yield Release(second)
        yield Release(first)

    kernel.spawn(worker, *order_a, name="a")
    kernel.spawn(worker, *order_b, name="b")
    return kernel


class TestLockGraph:
    def test_consistent_order_no_cycle(self):
        kernel = nested_lock_program(("m1", "m2"), ("m1", "m2"))
        result = kernel.run()
        assert result.ok
        assert detect_lock_cycles(result.trace) == []

    def test_opposite_order_cycle_found_even_without_deadlock(self):
        """Under FIFO the run completes, but the lock-order cycle is still
        visible in the trace — the 'potential deadlock' the LockTree-style
        analysis is for."""
        kernel = nested_lock_program(("m1", "m2"), ("m2", "m1"))
        result = kernel.run()
        assert result.status is RunStatus.COMPLETED
        cycles = detect_lock_cycles(result.trace)
        assert len(cycles) == 1
        assert set(cycles[0].locks) == {"m1", "m2"}

    def test_single_thread_cycle_excluded(self):
        """One thread acquiring m1->m2 and later m2->m1 cannot deadlock
        itself (locks are reentrant and it is alone)."""
        kernel = Kernel(scheduler=FifoScheduler())
        kernel.new_monitor("m1")
        kernel.new_monitor("m2")

        def worker():
            yield Acquire("m1")
            yield Acquire("m2")
            yield Release("m2")
            yield Release("m1")
            yield Acquire("m2")
            yield Acquire("m1")
            yield Release("m1")
            yield Release("m2")

        kernel.spawn(worker, name="solo")
        result = kernel.run()
        assert result.ok
        assert detect_lock_cycles(result.trace) == []

    def test_graph_edges(self):
        kernel = nested_lock_program(("m1", "m2"), ("m1", "m2"))
        result = kernel.run()
        graph, edges = build_lock_graph(result.trace)
        assert list(graph) == [("m1", "m2")]
        assert graph["m1", "m2"] == edges[0]
        assert all(e.outer == "m1" and e.inner == "m2" for e in edges)

    def test_reentrant_acquire_adds_no_edge(self):
        kernel = Kernel(scheduler=FifoScheduler())
        kernel.new_monitor("m")

        def worker():
            yield Acquire("m")
            yield Acquire("m")
            yield Release("m")
            yield Release("m")

        kernel.spawn(worker)
        result = kernel.run()
        graph, _ = build_lock_graph(result.trace)
        assert graph == {}

    def test_cycle_str(self):
        kernel = nested_lock_program(("m1", "m2"), ("m2", "m1"))
        cycles = detect_lock_cycles(kernel.run().trace)
        assert "potential deadlock" in str(cycles[0])


class TestWaitForGraph:
    def test_actual_deadlock_cycle(self):
        kernel = nested_lock_program(
            ("m1", "m2"), ("m2", "m1"), scheduler=RoundRobinScheduler()
        )
        result = kernel.run()
        assert result.status is RunStatus.DEADLOCK
        cycle = find_deadlock_cycle(result.trace)
        assert set(cycle) == {"a", "b"}

    def test_clean_run_no_cycle(self):
        kernel = nested_lock_program(("m1", "m2"), ("m1", "m2"))
        assert find_deadlock_cycle(kernel.run().trace) == []

    def test_reconstruct_final_state(self):
        kernel = nested_lock_program(
            ("m1", "m2"), ("m2", "m1"), scheduler=RoundRobinScheduler()
        )
        result = kernel.run()
        state = reconstruct_final_state(result.trace)
        assert state.owner == {"m1": "a", "m2": "b"}
        assert state.blocked_on == {"a": "m2", "b": "m1"}

    def test_waiting_thread_not_blocked(self):
        kernel = Kernel(scheduler=FifoScheduler())
        kernel.new_monitor("m")

        def waiter():
            yield Acquire("m")
            yield Wait("m")
            yield Release("m")

        kernel.spawn(waiter, name="w")
        result = kernel.run()
        state = reconstruct_final_state(result.trace)
        assert state.waiting_on == {"w": "m"}
        assert state.blocked_on == {}
        assert find_deadlock_cycle(result.trace) == []

    def test_terminated_threads_cleared(self):
        kernel = Kernel(scheduler=FifoScheduler())
        kernel.new_monitor("m")

        def quick():
            yield Acquire("m")
            yield Release("m")

        kernel.spawn(quick, name="q")
        state = reconstruct_final_state(kernel.run().trace)
        assert state.blocked_on == {} and state.waiting_on == {}
        assert state.owner == {}


class TestWithComponents:
    def _accounts(self, kernel):
        a = kernel.register(Account(100), name="acctA")
        b = kernel.register(Account(100), name="acctB")
        return a, b

    def test_deadlock_pair_deadlocks_under_round_robin(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        a, b = self._accounts(kernel)
        pair = kernel.register(DeadlockPair())

        def t1():
            yield from pair.transfer(a, b, 10)

        def t2():
            yield from pair.transfer(b, a, 20)

        kernel.spawn(t1, name="t1")
        kernel.spawn(t2, name="t2")
        result = kernel.run()
        assert result.status is RunStatus.DEADLOCK
        assert set(find_deadlock_cycle(result.trace)) == {"t1", "t2"}

    def test_ordered_pair_never_deadlocks(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        a, b = self._accounts(kernel)
        pair = kernel.register(OrderedPair())

        def t1():
            yield from pair.transfer(a, b, 10)

        def t2():
            yield from pair.transfer(b, a, 20)

        kernel.spawn(t1, name="t1")
        kernel.spawn(t2, name="t2")
        result = kernel.run()
        assert result.ok
        assert detect_lock_cycles(result.trace) == []
        assert a.balance + b.balance == 200

    def test_deadlock_pair_lock_cycle_visible_in_clean_schedule(self):
        kernel = Kernel(scheduler=FifoScheduler())
        a, b = self._accounts(kernel)
        pair = kernel.register(DeadlockPair())

        def t1():
            yield from pair.transfer(a, b, 10)

        def t2():
            yield from pair.transfer(b, a, 20)

        kernel.spawn(t1, name="t1")
        kernel.spawn(t2, name="t2")
        result = kernel.run()
        assert result.ok  # FIFO runs them serially: no deadlock manifests
        assert detect_lock_cycles(result.trace)  # ...but the hazard is caught
