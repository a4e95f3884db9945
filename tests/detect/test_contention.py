"""Tests for the monitor contention profiler."""

from collections import Counter

import pytest

from repro.components import ProducerConsumer
from repro.detect import MonitorProfile, profile_contention
from repro.vm import (
    Acquire,
    EventKind,
    Kernel,
    Notify,
    RandomScheduler,
    Release,
    RoundRobinScheduler,
    FifoScheduler,
    Wait,
    Yield,
)
from tests.vm.test_ready_set import PROGRAMS


def contended_run():
    kernel = Kernel(scheduler=RoundRobinScheduler())
    kernel.new_monitor("m")

    def worker(n):
        for _ in range(n):
            yield Acquire("m")
            yield Yield()
            yield Release("m")

    kernel.spawn(worker, 3, name="a")
    kernel.spawn(worker, 3, name="b")
    result = kernel.run()
    assert result.ok
    return result.trace


class TestProfileContention:
    def test_empty_trace(self):
        from repro.vm.trace import Trace

        report = profile_contention(Trace())
        assert report.monitors == {}
        assert report.most_contended() is None
        assert "no monitor activity" in report.describe()

    def test_uncontended_single_thread(self):
        kernel = Kernel(scheduler=FifoScheduler())
        kernel.new_monitor("m")

        def solo():
            yield Acquire("m")
            yield Release("m")

        kernel.spawn(solo)
        report = profile_contention(kernel.run().trace)
        profile = report.monitors["m"]
        assert profile.acquisitions == 1
        assert profile.contended_acquisitions == 0
        assert profile.contention_ratio == 0.0

    def test_contention_measured(self):
        report = profile_contention(contended_run())
        profile = report.monitors["m"]
        assert profile.acquisitions == 6
        assert profile.contended_acquisitions > 0
        assert profile.total_blocked_time > 0
        assert profile.max_blocked_time >= profile.mean_blocked_time

    def test_wait_times(self):
        kernel = Kernel(scheduler=FifoScheduler())
        kernel.new_monitor("m")

        def waiter():
            yield Acquire("m")
            yield Wait("m")
            yield Release("m")

        def notifier():
            yield Yield()
            yield Yield()
            yield Acquire("m")
            yield Notify("m")
            yield Release("m")

        kernel.spawn(waiter, name="w")
        kernel.spawn(notifier, name="n")
        result = kernel.run()
        assert result.ok
        profile = profile_contention(result.trace).monitors["m"]
        assert profile.waits == 1
        assert profile.total_wait_time > 0
        assert profile.notifies == 1
        assert profile.lost_notifies == 0

    def test_lost_notify_counted(self):
        kernel = Kernel(scheduler=FifoScheduler())
        kernel.new_monitor("m")

        def notifier():
            yield Acquire("m")
            yield Notify("m")
            yield Release("m")

        kernel.spawn(notifier)
        profile = profile_contention(kernel.run().trace).monitors["m"]
        assert profile.lost_notifies == 1

    def test_most_contended(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        kernel.new_monitor("hot")
        kernel.new_monitor("cold")

        def hot_worker(n):
            for _ in range(n):
                yield Acquire("hot")
                yield Yield()
                yield Release("hot")

        def cold_worker():
            yield Acquire("cold")
            yield Release("cold")

        kernel.spawn(hot_worker, 3, name="h1")
        kernel.spawn(hot_worker, 3, name="h2")
        kernel.spawn(cold_worker, name="c")
        report = profile_contention(kernel.run().trace)
        assert report.most_contended().monitor == "hot"

    def test_component_profile(self):
        kernel = Kernel(scheduler=FifoScheduler())
        pc = kernel.register(ProducerConsumer())

        def consumer():
            yield from pc.receive()

        def producer():
            yield from pc.send("x")

        kernel.spawn(consumer, name="c")
        kernel.spawn(producer, name="p")
        result = kernel.run()
        profile = profile_contention(result.trace).monitors["ProducerConsumer"]
        assert profile.waits == 1  # consumer waited once
        assert profile.notify_alls == 2
        assert profile.mean_wait_time > 0

    def test_describe(self):
        report = profile_contention(contended_run())
        assert "acquisitions" in report.describe()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_fold_matches_the_monitor_counters(name):
    """The trace fold against the counters each live monitor keeps: the
    fold also counts reentrant acquisitions, and the monitor's contended
    time also covers each woken waiter's wait for the lock."""
    for seed in range(20):
        kernel = PROGRAMS[name](RandomScheduler(seed))
        trace = kernel.run().trace
        report = profile_contention(trace)
        reentrant = Counter()
        reacquire_ticks = Counter()
        woken_at = {}
        for event in trace:
            if event.kind is EventKind.MONITOR_NOTIFIED:
                woken_at[(event.thread, event.monitor)] = event.time
            elif event.kind is EventKind.MONITOR_ACQUIRE:
                if event.detail.get("reentrant"):
                    reentrant[event.monitor] += 1
                woken = woken_at.pop((event.thread, event.monitor), None)
                if woken is not None:
                    reacquire_ticks[event.monitor] += event.time - woken
        for monitor in kernel.monitors.values():
            profile = report.monitors.get(monitor.name, MonitorProfile(monitor.name))
            where = (name, seed, monitor.name)
            assert (
                profile.acquisitions - reentrant[monitor.name] == monitor.acquisitions
            ), where
            assert profile.lost_notifies == monitor.lost_notifies, where
            assert (
                monitor.contended_ticks
                == profile.total_blocked_time + reacquire_ticks[monitor.name]
            ), where
