"""Kernel semantics tests: locking, waiting, notification, termination."""

import pytest

from repro.engine.workloads import WORKLOADS
from repro.vm import (
    Acquire,
    EventKind,
    FifoScheduler,
    Kernel,
    Notify,
    NotifyAll,
    RandomScheduler,
    Release,
    RunStatus,
    SelectionPolicy,
    ThreadState,
    Wait,
    Yield,
)
from repro.vm.errors import (
    IllegalMonitorStateError,
    UnknownSyscallError,
)


def make_kernel(**kwargs):
    return Kernel(scheduler=FifoScheduler(), **kwargs)


class TestBasicExecution:
    def test_empty_kernel_completes(self):
        result = make_kernel().run()
        assert result.status is RunStatus.COMPLETED
        assert result.steps == 0

    def test_single_thread_return_value(self):
        kernel = make_kernel()

        def body():
            yield Yield()
            return 42

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert result.ok
        assert result.thread_results["t"] == 42

    def test_spawn_rejects_non_generator(self):
        kernel = make_kernel()
        with pytest.raises(TypeError):
            kernel.spawn(lambda: 42)

    def test_thread_names_uniquified(self):
        kernel = make_kernel()

        def body():
            yield Yield()

        t1 = kernel.spawn(body, name="x")
        t2 = kernel.spawn(body, name="x")
        assert t1.name == "x" and t2.name == "x-2"

    def test_thread_start_end_events(self):
        kernel = make_kernel()

        def body():
            yield Yield()

        kernel.spawn(body, name="t")
        result = kernel.run()
        kinds = [e.kind for e in result.trace.by_thread("t")]
        assert kinds[0] is EventKind.THREAD_START
        assert kinds[-1] is EventKind.THREAD_END

    def test_crash_recorded(self):
        kernel = make_kernel()

        def body():
            yield Yield()
            raise RuntimeError("boom")

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert result.status is RunStatus.COMPLETED
        assert "t" in result.crashed
        assert isinstance(result.crashed["t"], RuntimeError)
        assert not result.ok

    def test_raise_on_failure_for_crash(self):
        kernel = make_kernel()

        def body():
            yield Yield()
            raise ValueError("x")

        kernel.spawn(body)
        result = kernel.run()
        from repro.vm.errors import ThreadCrashedError

        with pytest.raises(ThreadCrashedError):
            result.raise_on_failure()

    def test_step_limit(self):
        kernel = make_kernel(max_steps=25)

        def spinner():
            while True:
                yield Yield()

        kernel.spawn(spinner)
        result = kernel.run()
        assert result.status is RunStatus.STEP_LIMIT
        assert result.steps == 25


class TestLocking:
    def test_mutual_exclusion(self):
        kernel = make_kernel()
        kernel.new_monitor("m")
        inside = []

        def worker(name):
            yield Acquire("m")
            inside.append(name)
            assert len(inside) == 1
            yield Yield()
            inside.remove(name)
            yield Release("m")

        kernel.spawn(worker, "a", name="a")
        kernel.spawn(worker, "b", name="b")
        result = kernel.run()
        assert result.ok

    def test_transition_events_in_order(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def body():
            yield Acquire("m")
            yield Release("m")

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert result.trace.transition_sequence("t") == ["T1", "T2", "T4"]

    def test_contended_acquire_blocks(self):
        kernel = make_kernel()
        kernel.new_monitor("m")
        order = []

        def holder():
            yield Acquire("m")
            order.append("holder-in")
            yield Yield()
            yield Yield()
            order.append("holder-out")
            yield Release("m")

        def contender():
            yield Acquire("m")
            order.append("contender-in")
            yield Release("m")

        kernel.spawn(holder, name="h")
        kernel.spawn(contender, name="c")
        result = kernel.run()
        assert result.ok
        assert order == ["holder-in", "holder-out", "contender-in"]

    def test_reentrant_acquire(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def body():
            yield Acquire("m")
            yield Acquire("m")
            yield Release("m")
            yield Release("m")

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert result.ok
        # Outer release is the only T4 (inner one is reentrant bookkeeping).
        releases = [
            e
            for e in result.trace.by_kind(EventKind.MONITOR_RELEASE)
            if not e.detail.get("reentrant")
        ]
        assert len(releases) == 1

    def test_release_without_ownership_crashes_thread(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def body():
            yield Release("m")

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert isinstance(result.crashed.get("t"), IllegalMonitorStateError)

    def test_two_monitors_nested(self):
        kernel = make_kernel()
        kernel.new_monitor("m1")
        kernel.new_monitor("m2")

        def body():
            yield Acquire("m1")
            yield Acquire("m2")
            yield Release("m2")
            yield Release("m1")

        kernel.spawn(body, name="t")
        assert kernel.run().ok

    def test_unknown_monitor_rejected(self):
        kernel = make_kernel()

        def body():
            yield Acquire("nope")

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert isinstance(result.crashed.get("t"), UnknownSyscallError)

    def test_crashed_thread_releases_lock(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def crasher():
            yield Acquire("m")
            raise RuntimeError("die holding lock")

        def after():
            yield Acquire("m")
            yield Release("m")
            return "got it"

        kernel.spawn(crasher, name="crasher")
        kernel.spawn(after, name="after")
        result = kernel.run()
        assert result.thread_results.get("after") == "got it"


class TestWaitNotify:
    def test_wait_without_lock_crashes(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def body():
            yield Wait("m")

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert isinstance(result.crashed.get("t"), IllegalMonitorStateError)

    def test_notify_without_lock_crashes(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def body():
            yield Notify("m")

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert isinstance(result.crashed.get("t"), IllegalMonitorStateError)

    def test_bare_wait_without_any_lock_crashes(self):
        kernel = make_kernel()

        def body():
            yield Wait()

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert isinstance(result.crashed.get("t"), IllegalMonitorStateError)

    def test_wait_releases_lock(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def waiter():
            yield Acquire("m")
            yield Wait("m")
            yield Release("m")

        def notifier():
            yield Acquire("m")
            yield Notify("m")
            yield Release("m")

        kernel.spawn(waiter, name="w")
        kernel.spawn(notifier, name="n")
        result = kernel.run()
        assert result.ok
        assert result.trace.transition_sequence("w") == [
            "T1",
            "T2",
            "T3",
            "T5",
            "T2",
            "T4",
        ]

    def test_unnotified_waiter_is_stuck(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def waiter():
            yield Acquire("m")
            yield Wait("m")
            yield Release("m")

        kernel.spawn(waiter, name="w")
        result = kernel.run()
        assert result.status is RunStatus.STUCK
        assert result.stuck_threads == ["w"]
        assert result.thread_states["w"] == ThreadState.WAITING.value

    def test_notify_wakes_exactly_one(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def waiter():
            yield Acquire("m")
            yield Wait("m")
            yield Release("m")

        def notifier():
            yield Acquire("m")
            yield Notify("m")
            yield Release("m")

        kernel.spawn(waiter, name="w1")
        kernel.spawn(waiter, name="w2")
        kernel.spawn(notifier, name="n")
        result = kernel.run()
        assert result.status is RunStatus.STUCK
        assert len(result.stuck_threads) == 1

    def test_notify_all_wakes_everyone(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def waiter():
            yield Acquire("m")
            yield Wait("m")
            yield Release("m")

        def notifier():
            yield Acquire("m")
            yield NotifyAll("m")
            yield Release("m")

        for i in range(3):
            kernel.spawn(waiter, name=f"w{i}")
        kernel.spawn(notifier, name="n")
        result = kernel.run()
        assert result.status is RunStatus.COMPLETED

    def test_notify_detail_records_woken(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def waiter():
            yield Acquire("m")
            yield Wait("m")
            yield Release("m")

        def notifier():
            yield Acquire("m")
            yield NotifyAll("m")
            yield Release("m")

        kernel.spawn(waiter, name="w")
        kernel.spawn(notifier, name="n")
        result = kernel.run()
        notify_events = result.trace.by_kind(EventKind.NOTIFY_ALL)
        assert notify_events[0].detail["woken"] == ["w"]

    def test_lost_notification_recorded(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def notifier():
            yield Acquire("m")
            yield Notify("m")
            yield Release("m")

        kernel.spawn(notifier, name="n")
        result = kernel.run()
        assert len(result.trace.lost_notifications()) == 1

    def test_wait_reacquires_reentrant_depth(self):
        kernel = make_kernel()
        kernel.new_monitor("m")
        depth_seen = []

        def waiter():
            yield Acquire("m")
            yield Acquire("m")
            yield Wait("m")  # releases both holds
            depth_seen.append(kernel.monitors["m"].entry_count)
            yield Release("m")
            yield Release("m")

        def notifier():
            yield Acquire("m")
            yield Notify("m")
            yield Release("m")

        kernel.spawn(waiter, name="w")
        kernel.spawn(notifier, name="n")
        result = kernel.run()
        assert result.ok
        assert depth_seen == [2]


class TestDeadlockDetection:
    def _deadlock_kernel(self):
        # Round-robin interleaves at every scheduling point, so both
        # threads take their first lock before requesting the second.
        from repro.vm import RoundRobinScheduler

        kernel = Kernel(scheduler=RoundRobinScheduler())
        kernel.new_monitor("m1")
        kernel.new_monitor("m2")

        def worker(first, second, name):
            yield Acquire(first)
            yield Yield()
            yield Acquire(second)
            yield Release(second)
            yield Release(first)

        kernel.spawn(worker, "m1", "m2", "ab", name="ab")
        kernel.spawn(worker, "m2", "m1", "ba", name="ba")
        return kernel

    def test_opposite_order_deadlocks(self):
        result = self._deadlock_kernel().run()
        assert result.status is RunStatus.DEADLOCK
        assert set(result.deadlock_cycle) == {"ab", "ba"}

    def test_raise_on_failure_for_deadlock(self):
        from repro.vm.errors import DeadlockError

        result = self._deadlock_kernel().run()
        with pytest.raises(DeadlockError):
            result.raise_on_failure()


class TestPolicies:
    def _contention(self, lock_policy):
        # Round-robin ensures the contenders all request the lock while
        # the holder still holds it, exercising the grant policy.
        from repro.vm import RoundRobinScheduler

        kernel = Kernel(
            scheduler=RoundRobinScheduler(), lock_policy=lock_policy, seed=0
        )
        kernel.new_monitor("m")
        grants = []

        def holder():
            yield Acquire("m")
            yield Yield()
            yield Yield()
            yield Yield()
            yield Release("m")

        def contender(name):
            yield Acquire("m")
            grants.append(name)
            yield Release("m")

        # "a-holder" sorts before the contenders so round-robin runs it
        # first: it holds the lock while c1..c3 queue up in the entry set.
        kernel.spawn(holder, name="a-holder")
        kernel.spawn(contender, "c1", name="c1")
        kernel.spawn(contender, "c2", name="c2")
        kernel.spawn(contender, "c3", name="c3")
        kernel.run()
        return grants

    def test_fifo_lock_grant_order(self):
        assert self._contention(SelectionPolicy.FIFO) == ["c1", "c2", "c3"]

    def test_lifo_lock_grant_order(self):
        grants = self._contention(SelectionPolicy.LIFO)
        assert grants[0] == "c3"

    def test_notify_policy_lifo(self):
        kernel = Kernel(
            scheduler=FifoScheduler(), notify_policy=SelectionPolicy.LIFO
        )
        kernel.new_monitor("m")
        woken_order = []

        def waiter(name):
            yield Acquire("m")
            yield Wait("m")
            woken_order.append(name)
            yield Release("m")

        def notifier():
            for _ in range(2):
                yield Acquire("m")
                yield Notify("m")
                yield Release("m")

        kernel.spawn(waiter, "w1", name="w1")
        kernel.spawn(waiter, "w2", name="w2")
        kernel.spawn(notifier, name="n")
        kernel.run()
        assert woken_order == ["w2", "w1"]


class TestSpuriousWakeups:
    def test_spurious_wakeup_fires(self):
        kernel = Kernel(
            scheduler=FifoScheduler(),
            seed=1,
            spurious_wakeup_rate=1.0,
            max_steps=200,
        )
        kernel.new_monitor("m")

        def waiter():
            yield Acquire("m")
            yield Wait("m")  # nobody notifies: only a spurious wakeup returns
            yield Release("m")
            return "woke"

        kernel.spawn(waiter, name="w")
        result = kernel.run()
        assert result.thread_results.get("w") == "woke"
        assert result.trace.by_kind(EventKind.SPURIOUS_WAKEUP)

    def test_no_spurious_by_default(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def waiter():
            yield Acquire("m")
            yield Wait("m")
            yield Release("m")

        kernel.spawn(waiter, name="w")
        result = kernel.run()
        assert result.status is RunStatus.STUCK
        assert not result.trace.by_kind(EventKind.SPURIOUS_WAKEUP)


class TestClock:
    def test_await_and_tick(self):
        kernel = make_kernel()
        log = []

        def sleeper():
            from repro.vm import AwaitTime

            yield AwaitTime(2)
            log.append("woke")

        def ticker():
            from repro.vm import Tick

            log.append("tick1")
            yield Tick()
            log.append("tick2")
            yield Tick()

        kernel.spawn(sleeper, name="s")
        kernel.spawn(ticker, name="t")
        result = kernel.run()
        assert result.ok
        assert log == ["tick1", "tick2", "woke"]

    def test_get_time(self):
        from repro.vm import GetTime, Tick

        kernel = make_kernel()
        seen = []

        def body():
            t0 = yield GetTime()
            yield Tick()
            t1 = yield GetTime()
            seen.extend([t0, t1])

        kernel.spawn(body)
        assert kernel.run().ok
        assert seen == [0, 1]

    def test_await_past_time_is_immediate(self):
        from repro.vm import AwaitTime

        kernel = make_kernel()

        def body():
            yield AwaitTime(0)
            return "done"

        kernel.spawn(body, name="t")
        assert kernel.run().thread_results["t"] == "done"

    def test_clock_waiters_without_ticker_are_stuck(self):
        from repro.vm import AwaitTime

        kernel = make_kernel()

        def body():
            yield AwaitTime(5)

        kernel.spawn(body, name="t")
        assert kernel.run().status is RunStatus.STUCK

    def test_auto_tick_advances(self):
        from repro.vm import AwaitTime

        kernel = Kernel(scheduler=FifoScheduler(), auto_tick=True)

        def body():
            yield AwaitTime(5)
            return "woke"

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert result.thread_results["t"] == "woke"
        assert kernel.clock_time == 5


class TestDeterminism:
    def _program(self, seed):
        kernel = Kernel(scheduler=RandomScheduler(seed=seed))
        kernel.new_monitor("m")

        def worker(n):
            for _ in range(n):
                yield Acquire("m")
                yield Yield()
                yield Release("m")

        kernel.spawn(worker, 3, name="a")
        kernel.spawn(worker, 3, name="b")
        result = kernel.run()
        return [(e.thread, e.kind.value) for e in result.trace]

    def test_same_seed_same_trace(self):
        assert self._program(7) == self._program(7)

    def test_different_seed_different_trace(self):
        traces = {tuple(self._program(s)) for s in range(6)}
        assert len(traces) > 1


class TestAccessRecordingToggle:
    def test_disabled_recording_emits_no_access_events(self):
        from repro.components import ProducerConsumer

        kernel = Kernel(scheduler=FifoScheduler(), record_accesses=False)
        pc = kernel.register(ProducerConsumer())

        def producer():
            yield from pc.send("x")

        def consumer():
            value = yield from pc.receive()
            return value

        kernel.spawn(producer, name="p")
        kernel.spawn(consumer, name="c")
        result = kernel.run()
        assert result.thread_results["c"] == "x"
        assert not result.trace.by_kind(EventKind.READ, EventKind.WRITE)
        # monitor-protocol events are unaffected
        assert result.trace.by_kind(EventKind.MONITOR_ACQUIRE)

    def test_enabled_by_default(self):
        from repro.components import ProducerConsumer

        kernel = Kernel(scheduler=FifoScheduler())
        pc = kernel.register(ProducerConsumer())

        def producer():
            yield from pc.send("x")

        kernel.spawn(producer, name="p")
        result = kernel.run()
        assert result.trace.by_kind(EventKind.WRITE)


class TestDispatchTable:
    def test_every_syscall_class_has_a_handler(self):
        import repro.vm.syscalls as syscalls
        from repro.vm.kernel import _SYSCALL_HANDLERS

        concrete = [getattr(syscalls, n) for n in syscalls.__all__ if n != "Syscall"]
        assert concrete
        missing = [cls.__name__ for cls in concrete if cls not in _SYSCALL_HANDLERS]
        assert missing == []

    def test_subclass_dispatches_as_its_syscall_base(self):
        from repro.vm.kernel import _SYSCALL_HANDLERS

        class TracedAcquire(Acquire):
            pass

        kernel = make_kernel()
        kernel.new_monitor("m")

        def body():
            yield TracedAcquire("m")
            yield Release("m")
            return "done"

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert result.thread_results["t"] == "done"
        assert [e.kind for e in result.trace.by_thread("t")] == [
            EventKind.THREAD_START,
            EventKind.MONITOR_REQUEST,
            EventKind.MONITOR_ACQUIRE,
            EventKind.MONITOR_RELEASE,
            EventKind.THREAD_END,
        ]
        assert _SYSCALL_HANDLERS[TracedAcquire] is _SYSCALL_HANDLERS[Acquire]

    def test_non_syscall_raises_at_the_yield_point(self):
        from repro.vm.kernel import _SYSCALL_HANDLERS

        kernel = make_kernel()
        caught = []

        def body():
            try:
                yield "not a syscall"
            except UnknownSyscallError as exc:
                caught.append(str(exc))
            yield Yield()
            return "recovered"

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert result.thread_results["t"] == "recovered"
        assert caught and "not a syscall" in caught[0]
        assert str not in _SYSCALL_HANDLERS


class TestEventObjects:
    def _events(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def body():
            yield Acquire("m")
            yield Release("m")

        kernel.spawn(body, name="t")
        return list(kernel.run().trace)

    def test_emitted_events_are_frozen(self):
        import dataclasses

        event = self._events()[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.seq = 99
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.detail = {}
        assert not hasattr(event, "__dict__")

    def test_emitted_event_equals_constructed_event(self):
        from repro.vm import Event

        for event in self._events():
            assert event == Event(
                seq=event.seq,
                time=event.time,
                thread=event.thread,
                kind=event.kind,
                monitor=event.monitor,
                component=event.component,
                method=event.method,
                detail=dict(event.detail),
            )

    def test_pickle_round_trip(self):
        import pickle

        events = self._events()
        assert pickle.loads(pickle.dumps(events)) == events

    def test_dataclasses_replace(self):
        import dataclasses

        event = self._events()[1]
        moved = dataclasses.replace(event, thread="other")
        assert moved.thread == "other"
        assert moved.kind is event.kind and moved.seq == event.seq
        assert event.thread == "t"


class TestDeadlineIndex:
    """Timed waits and acquires expire at exactly their own deadline,
    whatever order they were armed in and however stale the index is."""

    @staticmethod
    def _spinner(steps):
        def spin():
            for _ in range(steps):
                yield Yield()

        return spin

    @staticmethod
    def _expiries(result):
        return [
            (e.thread, e.time, e.detail["deadline"])
            for e in result.trace.by_kind(EventKind.WAIT_TIMEOUT)
        ]

    @staticmethod
    def _armed_at(result, thread):
        return [
            e.time
            for e in result.trace.by_thread(thread)
            if e.kind is EventKind.MONITOR_WAIT
        ]

    def test_decreasing_deadlines_expire_in_deadline_order(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def waiter(timeout):
            yield Acquire("m")
            yield Wait("m", timeout=timeout)
            yield Release("m")

        kernel.spawn(waiter, 40, name="late")
        kernel.spawn(waiter, 5, name="early")
        kernel.spawn(self._spinner(60), name="spin")
        result = kernel.run()
        assert result.ok
        (late_armed,) = self._armed_at(result, "late")
        (early_armed,) = self._armed_at(result, "early")
        assert early_armed + 5 < late_armed + 40
        assert self._expiries(result) == [
            ("early", early_armed + 5, early_armed + 5),
            ("late", late_armed + 40, late_armed + 40),
        ]

    def test_notified_wait_leaves_a_stale_deadline(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def waiter():
            yield Acquire("m")
            yield Wait("m", timeout=10)  # notified long before step 10
            yield Wait("m", timeout=30)  # nobody notifies: times out
            yield Release("m")

        def notifier():
            yield Acquire("m")
            yield Notify("m")
            yield Release("m")
            for _ in range(60):
                yield Yield()

        kernel.spawn(waiter, name="w")
        kernel.spawn(notifier, name="n")
        result = kernel.run()
        assert result.ok
        reasons = [
            e.detail["reason"]
            for e in result.trace.by_kind(EventKind.MONITOR_NOTIFIED)
        ]
        assert reasons == ["notify", "timeout"]
        first, second = self._armed_at(result, "w")
        assert first + 10 < second + 30
        assert self._expiries(result) == [("w", second + 30, second + 30)]

    def test_timed_semaphore_acquire(self):
        from repro.vm import SemAcquire

        kernel = make_kernel()
        kernel.new_semaphore("s", permits=0)
        got = []

        def acquirer():
            got.append((yield SemAcquire("s", timeout=7)))

        kernel.spawn(acquirer, name="a")
        kernel.spawn(self._spinner(20), name="spin")
        result = kernel.run()
        assert result.ok and got == [False]
        (request,) = result.trace.by_kind(EventKind.SEM_REQUEST)
        (expiry,) = result.trace.by_kind(EventKind.WAIT_TIMEOUT)
        assert expiry.detail["primitive"] == "semaphore"
        assert expiry.time == expiry.detail["deadline"] == request.time + 7

    def test_quiescence_jumps_to_the_deadline(self):
        kernel = make_kernel()
        kernel.new_monitor("m")

        def waiter():
            yield Acquire("m")
            yield Wait("m", timeout=100)
            yield Release("m")
            return "timed out"

        kernel.spawn(waiter, name="w")
        result = kernel.run()
        assert result.thread_results["w"] == "timed out"
        (armed,) = self._armed_at(result, "w")
        assert self._expiries(result) == [("w", armed + 100, armed + 100)]
        assert result.steps < 10


class TestRunBookkeeping:
    def test_tick_resumes_clock_waiters_in_arrival_order(self):
        from repro.vm import AwaitTime, Tick

        kernel = make_kernel()

        def sleeper(target):
            yield AwaitTime(target)

        def ticker():
            yield Tick()
            yield Tick()

        kernel.spawn(sleeper, 1, name="a")
        kernel.spawn(sleeper, 2, name="b")
        kernel.spawn(sleeper, 1, name="c")
        kernel.spawn(ticker, name="t")
        result = kernel.run()
        assert result.ok
        resumed = [e.detail["resumed"] for e in result.trace.by_kind(EventKind.CLOCK_TICK)]
        assert resumed == [["a", "c"], ["b"]]

    def test_deadlock_diagnosed_once(self, monkeypatch):
        from repro.vm import RoundRobinScheduler

        kernel = Kernel(scheduler=RoundRobinScheduler())
        kernel.new_monitor("m1")
        kernel.new_monitor("m2")

        def grab(first, second):
            yield Acquire(first)
            yield Yield()
            yield Acquire(second)

        kernel.spawn(grab, "m1", "m2", name="a")
        kernel.spawn(grab, "m2", "m1", name="b")
        calls = []
        diagnose = kernel._wait_for_cycle

        def counted():
            calls.append(1)
            return diagnose()

        monkeypatch.setattr(kernel, "_wait_for_cycle", counted)
        result = kernel.run()
        assert result.status is RunStatus.DEADLOCK
        assert sorted(result.deadlock_cycle) == ["a", "b"]
        assert len(calls) == 1


class TestTraceMode:
    def test_unknown_mode_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Kernel(trace_mode="ful")

    def test_unknown_mode_rejected_on_assignment(self):
        kernel = make_kernel()
        with pytest.raises(ValueError):
            kernel.trace_mode = "ful"
        assert kernel.trace_mode == "full"

    def test_mode_assigned_after_construction_applies(self):
        kernel = WORKLOADS["pc-ok"](FifoScheduler())
        kernel.trace_mode = "none"
        result = kernel.run()
        assert kernel.trace_mode == "none"
        assert len(result.trace) == 0 and kernel.events_emitted > 0

        kernel = WORKLOADS["pc-ok"](FifoScheduler())
        kernel.trace_mode = "none"
        kernel.trace_mode = "full"
        result = kernel.run()
        assert len(result.trace) == kernel.events_emitted > 0
