"""Tests for the kernel event bus: sinks, trace_mode, request_abort."""

import pytest

from repro.vm import (
    Acquire,
    EventKind,
    FifoScheduler,
    Kernel,
    RandomScheduler,
    Release,
    RunStatus,
    Tick,
)


def two_thread_kernel(**kwargs) -> Kernel:
    kernel = Kernel(scheduler=FifoScheduler(), **kwargs)
    kernel.new_monitor("m")

    def worker():
        yield Acquire("m")
        yield Tick()
        yield Release("m")

    kernel.spawn(worker, name="a")
    kernel.spawn(worker, name="b")
    return kernel


def spin_kernel(**kwargs) -> Kernel:
    kernel = Kernel(scheduler=RandomScheduler(seed=0), max_steps=5000, **kwargs)

    def spinner():
        while True:
            yield Tick()

    kernel.spawn(spinner, name="spin")
    return kernel


class TestSinks:
    def test_sink_receives_every_event_in_order(self):
        seen = []
        kernel = two_thread_kernel()
        kernel.subscribe(seen.append)
        result = kernel.run()
        assert result.status is RunStatus.COMPLETED
        assert seen == list(result.trace)

    def test_sinks_constructor_parameter(self):
        seen = []
        kernel = two_thread_kernel(sinks=[seen.append])
        kernel.run()
        assert seen

    def test_multiple_sinks_all_fire(self):
        first, second = [], []
        kernel = two_thread_kernel(sinks=[first.append])
        kernel.subscribe(second.append)
        kernel.run()
        assert first == second

    def test_sink_sees_monotonic_seq(self):
        seqs = []
        kernel = two_thread_kernel(sinks=[lambda e: seqs.append(e.seq)])
        kernel.run()
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestTraceMode:
    def test_default_is_full(self):
        kernel = two_thread_kernel()
        assert kernel.trace_mode == "full"
        result = kernel.run()
        assert len(result.trace) > 0

    def test_none_keeps_sinks_but_no_trace(self):
        seen = []
        kernel = two_thread_kernel(trace_mode="none", sinks=[seen.append])
        result = kernel.run()
        assert result.status is RunStatus.COMPLETED
        assert len(result.trace) == 0
        assert seen  # the stream still happened

    def test_none_matches_full_event_stream(self):
        streamed = []
        kernel = two_thread_kernel(trace_mode="none", sinks=[streamed.append])
        kernel.run()
        full = two_thread_kernel().run()
        assert [(e.kind, e.thread, e.monitor) for e in streamed] == [
            (e.kind, e.thread, e.monitor) for e in full.trace
        ]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="trace_mode"):
            two_thread_kernel(trace_mode="sometimes")


class TestRequestAbort:
    def test_abort_stops_run_early(self):
        kernel = spin_kernel()

        def bomb(event):
            if event.seq >= 10:
                kernel.request_abort("enough")

        kernel.subscribe(bomb)
        result = kernel.run()
        assert result.abort_reason == "enough"
        assert kernel.steps < 5000

    def test_first_reason_wins(self):
        kernel = spin_kernel()
        kernel.request_abort("first")
        kernel.request_abort("second")
        assert kernel.abort_reason == "first"

    def test_no_abort_leaves_reason_none(self):
        result = two_thread_kernel().run()
        assert result.abort_reason is None


class TestInstalledRoutes:
    """A prebuilt kind -> sinks table: adopted as is, copied on write."""

    def test_routes_deliver_like_kind_subscriptions(self):
        subscribed, routed = [], []
        kernel = two_thread_kernel()
        kinds = (EventKind.MONITOR_ACQUIRE, EventKind.MONITOR_RELEASE)
        kernel.subscribe(subscribed.append, kinds=kinds)
        kernel.run()
        other = two_thread_kernel()
        other.install_routes({kind: (routed.append,) for kind in kinds})
        other.run()
        assert [e.kind for e in routed] == [e.kind for e in subscribed]
        assert len(routed) == 4

    def test_shared_table_never_changes(self):
        seen, late = [], []
        table = {EventKind.MONITOR_ACQUIRE: (seen.append,)}
        first, second = two_thread_kernel(), two_thread_kernel()
        first.install_routes(table)
        second.install_routes(table)
        second.subscribe(late.append, kinds=(EventKind.MONITOR_ACQUIRE,))
        second.install_routes({EventKind.MONITOR_RELEASE: (late.append,)})
        assert table == {EventKind.MONITOR_ACQUIRE: (seen.append,)}
        first.run()
        assert len(seen) == 2 and not late
        second.run()
        assert len(seen) == 4 and len(late) == 4

    def test_routes_follow_earlier_subscriptions(self):
        order = []
        kernel = two_thread_kernel()
        kind = EventKind.MONITOR_ACQUIRE
        kernel.subscribe(lambda event: order.append("subscribed"), kinds=(kind,))
        kernel.install_routes({kind: (lambda event: order.append("routed"),)})
        kernel.run()
        assert order == ["subscribed", "routed"] * 2


class TestRelease:
    def test_release_detaches_components_and_subscribers(self):
        from repro.engine.workloads import resolve_factory

        kernel = resolve_factory("pc-bug")(RandomScheduler(seed=1))
        seen = []
        kernel.subscribe(seen.append)
        result = kernel.run()
        component = next(iter(kernel.components.values()))
        assert component.kernel is kernel
        kernel.release()
        assert component.kernel is None
        assert not kernel._sinks and not kernel._kind_sinks
        # the run's results and counters stay readable
        assert kernel.steps == result.steps == len(result.schedule_log)
        assert set(kernel.thread_stats()) == set(result.thread_states)

    def test_released_run_is_freed_without_the_collector(self):
        import gc
        import weakref

        from repro.engine.workloads import resolve_factory

        gc.collect()
        gc.disable()
        try:
            kernel = resolve_factory("pc-bug")(RandomScheduler(seed=1))
            kernel.run()
            kernel.release()
            alive = weakref.ref(kernel)
            del kernel
            assert alive() is None
        finally:
            gc.enable()


class TestEnvironmentRng:
    def test_fifo_run_never_seeds_the_rng(self):
        kernel = two_thread_kernel(seed=3)
        kernel.run()
        assert kernel._rng is None

    def test_first_draw_matches_a_construction_time_seed(self):
        import random

        reference = random.Random(11)
        kernel = Kernel(seed=11)
        assert [kernel.rng.random() for _ in range(3)] == [
            reference.random() for _ in range(3)
        ]

    def test_assigned_rng_is_used(self):
        import random

        kernel = Kernel(seed=11)
        chosen = random.Random(5)
        kernel.rng = chosen
        assert kernel.rng is chosen
