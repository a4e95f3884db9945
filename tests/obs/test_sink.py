"""InstrumentationSink against real workloads: derived series, deadlock
hold accounting, and installing one sink per kernel."""

import pytest

from repro.engine.workloads import resolve_factory
from repro.obs.metrics import Counter, Gauge
from repro.obs.sink import InstrumentationSink
from repro.obs.spans import SpanTracer
from repro.vm.kernel import RunStatus
from repro.vm.scheduler import RandomScheduler


def _run(workload: str, seed: int, tracer=None):
    kernel = resolve_factory(workload)(RandomScheduler(seed))
    sink = InstrumentationSink(tracer=tracer)
    sink.install(kernel)
    result = kernel.run()
    return sink, kernel, result


def _series_sum(registry, name: str) -> float:
    metric = registry.get(name)
    return sum(metric.series().values()) if metric is not None else 0


class TestDerivedSeries:
    def test_event_and_step_totals_match_kernel(self):
        sink, kernel, _ = _run("pc-bug", seed=3)
        registry = sink.collect()
        assert sink.events_seen > 0
        assert registry.counter("vm_events_total").total == sink.events_seen
        assert registry.counter("vm_steps_total").total == kernel.steps

    def test_contended_ticks_match_native_blocked_ticks(self):
        # pc-bug has a single monitor and completes under these seeds, so
        # every natively-counted blocked tick ends in an acquire whose
        # blocked_for the sink attributes to that monitor.
        for seed in range(4):
            sink, _, result = _run("pc-bug", seed=seed)
            assert result.status is RunStatus.COMPLETED
            registry = sink.collect()
            contended = _series_sum(registry, "vm_monitor_contended_ticks_total")
            blocked = _series_sum(registry, "vm_blocked_ticks_total")
            assert contended == blocked > 0

    def test_acquisitions_and_hold_ticks(self):
        sink, _, _ = _run("pc-bug", seed=0)
        registry = sink.collect()
        assert _series_sum(registry, "vm_monitor_acquisitions_total") > 0
        assert _series_sum(registry, "vm_monitor_hold_ticks_total") > 0

    def test_queue_depth_peaks(self):
        sink, _, _ = _run("pc-bug", seed=1)
        registry = sink.collect()
        entry = registry.get("vm_entry_queue_depth_peak")
        wait = registry.get("vm_wait_queue_depth_peak")
        assert isinstance(entry, Gauge) and max(entry.series().values()) >= 1
        assert isinstance(wait, Gauge) and max(wait.series().values()) >= 1

    def test_per_thread_counters_are_labelled(self):
        sink, kernel, _ = _run("pc-bug", seed=2)
        registry = sink.collect()
        switches = registry.get("vm_context_switches_total")
        assert isinstance(switches, Counter)
        threads = {
            dict(labels)["thread"] for labels in switches.series()
        }
        assert threads  # at least one thread was scheduled after another
        assert threads <= set(kernel.thread_stats())

    def test_events_per_second_gauge_set(self):
        sink, _, _ = _run("pc-bug", seed=0)
        rate = sink.collect().gauge("vm_events_per_second")
        assert rate.get() is not None and rate.get() > 0


class TestDeadlockAccounting:
    def _deadlock_seed(self) -> int:
        for seed in range(20):
            kernel = resolve_factory("deadlock-pair")(RandomScheduler(seed))
            if kernel.run().status is RunStatus.DEADLOCK:
                return seed
        pytest.fail("no deadlocking seed in range")

    def test_open_holds_closed_at_quiescence(self):
        seed = self._deadlock_seed()
        sink, kernel, result = _run("deadlock-pair", seed=seed)
        assert result.status is RunStatus.DEADLOCK
        # both threads still hold their first lock at quiescence
        assert len(sink._open_holds) == 2
        registry = sink.collect()
        assert not sink._open_holds
        holds = registry.get("vm_monitor_hold_ticks_total")
        assert isinstance(holds, Counter)
        assert len(holds.series()) == 2  # both monitors held to the end
        assert all(ticks > 0 for ticks in holds.series().values())

    def test_collect_is_idempotent(self):
        sink, _, _ = _run("deadlock-pair", seed=1)
        first = sink.collect().to_dict()
        assert sink.collect().to_dict() == first


class TestLostNotifies:
    def test_pc_bug_records_lost_notifies(self):
        # the single-notify bug regularly notifies an empty wait set
        lost_total = 0
        for seed in range(4):
            sink, _, _ = _run("pc-bug", seed=seed)
            lost_total += _series_sum(sink.collect(), "vm_notify_lost_total")
        assert lost_total > 0


class TestTracerIntegration:
    def test_monitor_hold_spans(self):
        tracer = SpanTracer(keep_spans=True)
        sink, kernel, _ = _run("pc-bug", seed=0, tracer=tracer)
        registry = sink.collect()
        holds = [s for s in tracer.finished if s.name == "monitor-hold"]
        assert holds
        spans_ticks = sum(s.vm_ticks for s in holds)
        assert spans_ticks == _series_sum(registry, "vm_monitor_hold_ticks_total")
        # tracer's histograms folded into the sink's registry
        assert registry.get("span_vm_ticks") is not None


class TestInstalledSink:
    def test_snapshot_after_run(self):
        sink, _, _ = _run("pc-bug", 0)
        assert not sink.snapshot().empty

    def test_trace_spans_opt_in(self):
        sink, _, _ = _run("pc-bug", 0, tracer=SpanTracer())
        assert sink.tracer is not None
        assert _run("pc-bug", 0)[0].tracer is None

    def test_snapshots_merge_across_runs(self):
        from repro.obs.metrics import MetricsRegistry

        merged = MetricsRegistry()
        total_events = 0
        for seed in range(2):
            sink, _, _ = _run("pc-bug", seed)
            merged.merge_snapshot(sink.snapshot())
            total_events += sink.events_seen
        assert merged.counter("vm_events_total").total == total_events


class TestTraceModeNone:
    """The sink observes the event bus, not the stored trace — metrics
    must be identical whether the kernel retains its trace or not."""

    def _explore(self, trace_mode: str):
        from repro.run import RunConfig, RunExecutor

        config = RunConfig(
            workload="pc-bug",
            detect=True,
            trace_mode=trace_mode,
            metrics=True,
        )
        executor = RunExecutor(config)
        summaries = []
        executor.explore(
            "random",
            seeds=range(4),
            on_run=lambda run: summaries.append(executor.summarize(run)),
            keep_runs=False,
        )
        return summaries

    def test_metrics_identical_with_and_without_trace(self):
        import json

        def deterministic(summary):
            # Everything but the wall-clock families (run_wall_seconds,
            # vm_events_per_second) is schedule-deterministic.
            return json.dumps(
                [
                    m
                    for m in summary.metrics["metrics"]
                    if "second" not in m["name"]
                ],
                sort_keys=True,
            )

        full = self._explore("full")
        none = self._explore("none")
        assert all(s.metrics for s in none)
        for with_trace, without_trace in zip(full, none):
            assert with_trace.status == without_trace.status
            assert deterministic(with_trace) == deterministic(without_trace)

    def test_span_histograms_survive_trace_mode_none(self):
        for summary in self._explore("none"):
            names = {m["name"] for m in summary.metrics["metrics"]}
            assert "vm_events_total" in names
