"""InstrumentationSink against real workloads: derived series, deadlock
hold accounting, installing one sink per kernel, and folding the per-run
metrics record."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.workloads import resolve_factory
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.sink import RECORD_SCHEMA, InstrumentationSink, fold_record
from repro.obs.spans import SpanTracer
from repro.vm.kernel import Kernel, RunStatus
from repro.vm.scheduler import RandomScheduler, RoundRobinScheduler
from repro.vm.syscalls import Acquire, Release, Yield
from repro.vm.thread import ThreadState
from tests.obs.sink_reference import EventDerivedMonitorSeries


def _run(workload: str, seed: int, tracer=None):
    kernel = resolve_factory(workload)(RandomScheduler(seed))
    sink = InstrumentationSink(tracer=tracer)
    sink.install(kernel)
    result = kernel.run()
    return sink, kernel, result


def _folded(*records) -> MetricsRegistry:
    registry = MetricsRegistry()
    for record in records:
        fold_record(registry, record)
    return registry


def _collected(sink) -> MetricsRegistry:
    """The run's record folded into a fresh registry."""
    return _folded(sink.snapshot())


def _series_sum(registry, name: str) -> float:
    metric = registry.get(name)
    return sum(metric.series().values()) if metric is not None else 0


class TestDerivedSeries:
    def test_event_and_step_totals_match_kernel(self):
        sink, kernel, _ = _run("pc-bug", seed=3)
        registry = _collected(sink)
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
            registry = _collected(sink)
            contended = _series_sum(registry, "vm_monitor_contended_ticks_total")
            blocked = _series_sum(registry, "vm_blocked_ticks_total")
            assert contended == blocked > 0

    def test_acquisitions_and_hold_ticks(self):
        sink, _, _ = _run("pc-bug", seed=0)
        registry = _collected(sink)
        assert _series_sum(registry, "vm_monitor_acquisitions_total") > 0
        assert _series_sum(registry, "vm_monitor_hold_ticks_total") > 0

    def test_queue_depth_peaks(self):
        sink, _, _ = _run("pc-bug", seed=1)
        registry = _collected(sink)
        entry = registry.get("vm_entry_queue_depth_peak")
        wait = registry.get("vm_wait_queue_depth_peak")
        assert isinstance(entry, Gauge) and max(entry.series().values()) >= 1
        assert isinstance(wait, Gauge) and max(wait.series().values()) >= 1

    def test_per_thread_counters_are_labelled(self):
        sink, kernel, _ = _run("pc-bug", seed=2)
        registry = _collected(sink)
        switches = registry.get("vm_context_switches_total")
        assert isinstance(switches, Counter)
        threads = {
            dict(labels)["thread"] for labels in switches.series()
        }
        assert threads  # at least one thread was scheduled after another
        assert threads <= set(kernel.thread_stats())

    def test_events_per_second_gauge_set(self):
        sink, _, _ = _run("pc-bug", seed=0)
        rate = _collected(sink).gauge("vm_events_per_second")
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
        # both threads still hold their first lock at quiescence, and
        # each hold counts up to the end of virtual time
        assert sorted(m.name for m in kernel.monitors.values() if m.owner) == [
            "A",
            "B",
        ]
        holds = sink.snapshot()["vm_monitor_hold_ticks_total"]
        assert holds["A"] > 0 and holds["B"] > 0

    def test_record_is_idempotent(self):
        sink, _, _ = _run("deadlock-pair", seed=1)
        first = _collected(sink).to_dict()
        assert _collected(sink).to_dict() == first


class TestInterruptedAcquirer:
    @staticmethod
    def program():
        """Holder ``h`` owns ``m`` while ``v`` blocks on it; ``l`` asks
        for ``m`` a few steps later."""
        kernel = Kernel(scheduler=RoundRobinScheduler())
        kernel.new_monitor("m")

        def holder():
            yield Acquire("m")
            for _ in range(6):
                yield Yield()
            yield Release("m")

        def victim():
            try:
                yield Acquire("m")
            except InterruptedError:
                return "interrupted"
            yield Release("m")

        def later():
            for _ in range(4):
                yield Yield()
            yield Acquire("m")
            yield Release("m")

        kernel.spawn(holder, name="h")
        kernel.spawn(later, name="l")
        kernel.spawn(victim, name="v")
        return kernel

    def test_entry_peak_after_an_interrupted_blocked_acquirer(self):
        """``v`` is interrupted while blocked on ``m``: it leaves the entry
        set without acquiring, so the later acquirer ``l`` finds the entry
        set empty.  The entry set never holds more than one thread."""
        kernel = self.program()
        sink = InstrumentationSink().install(kernel)
        while kernel.threads["v"].state is not ThreadState.BLOCKED:
            assert kernel.step()
        kernel.interrupt("v")
        result = kernel.run()
        assert result.status is RunStatus.COMPLETED
        assert result.thread_results["v"] == "interrupted"
        record = sink.snapshot()
        assert record["vm_entry_queue_depth_peak"] == {"m": 1}
        assert record["vm_monitor_acquisitions_total"] == {"m": 2}


class TestZeroTickHold:
    def test_hold_open_at_the_step_limit_is_listed_at_zero(self):
        """A run stopped by its step limit on the step that acquired a
        lock holds it for 0 ticks; hold ticks still list the monitor."""
        kernel = Kernel(scheduler=RoundRobinScheduler(), max_steps=1)
        kernel.new_monitor("m")

        def holder():
            yield Acquire("m")
            yield Release("m")

        kernel.spawn(holder, name="t")
        sink = InstrumentationSink().install(kernel)
        assert kernel.run().status is RunStatus.STEP_LIMIT
        record = sink.snapshot()
        assert record["vm_monitor_acquisitions_total"] == {"m": 1}
        assert record["vm_monitor_hold_ticks_total"] == {"m": 0}


class TestEventReference:
    def test_interrupted_acquirer_leaves_the_reference_entry_set(self):
        """The event-derived reference (which the executor tests compare
        every record against) agrees with the monitor's own counters
        after an interrupted blocked acquirer."""
        kernel = TestInterruptedAcquirer.program()
        sink = InstrumentationSink().install(kernel)
        while kernel.threads["v"].state is not ThreadState.BLOCKED:
            assert kernel.step()
        kernel.interrupt("v")
        result = kernel.run()
        reference = EventDerivedMonitorSeries().replay(result.trace, kernel.time)
        record = sink.snapshot()
        for name, series in reference.record_series().items():
            assert record[name] == series, name


class TestLostNotifies:
    def test_pc_bug_records_lost_notifies(self):
        # the single-notify bug regularly notifies an empty wait set
        lost_total = 0
        for seed in range(4):
            sink, _, _ = _run("pc-bug", seed=seed)
            lost_total += _series_sum(_collected(sink), "vm_notify_lost_total")
        assert lost_total > 0


class TestTracerIntegration:
    def test_monitor_hold_spans(self):
        tracer = SpanTracer(keep_spans=True)
        sink, kernel, _ = _run("pc-bug", seed=0, tracer=tracer)
        registry = _collected(sink)
        holds = [s for s in tracer.finished if s.name == "monitor-hold"]
        assert holds
        spans_ticks = sum(s.vm_ticks for s in holds)
        assert spans_ticks == _series_sum(registry, "vm_monitor_hold_ticks_total")
        # the span histograms land in the tracer's own registry
        assert tracer.registry.get("span_vm_ticks") is not None


class TestInstalledSink:
    def test_snapshot_after_run(self):
        sink, _, _ = _run("pc-bug", 0)
        record = sink.snapshot()
        assert record["vm_events_total"] == sink.events_seen > 0
        assert sink.snapshot() == record

    def test_routes_events_only_to_span_handlers(self):
        """Without a tracer the sink routes no events; with one, only the
        hold events reach its span handlers."""
        from repro.vm.events import EventKind

        assert InstrumentationSink().routes == {}
        assert set(InstrumentationSink(tracer=SpanTracer()).routes) == {
            EventKind.MONITOR_ACQUIRE,
            EventKind.MONITOR_RELEASE,
            EventKind.MONITOR_WAIT,
        }

    def test_trace_spans_opt_in(self):
        sink, _, _ = _run("pc-bug", 0, tracer=SpanTracer())
        assert sink.tracer is not None
        assert _run("pc-bug", 0)[0].tracer is None

    def test_snapshots_merge_across_runs(self):
        merged = MetricsRegistry()
        total_events = 0
        for seed in range(2):
            sink, _, _ = _run("pc-bug", seed)
            fold_record(merged, sink.snapshot())
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
                    for m in _folded(summary.metrics).to_dict()["metrics"]
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
            assert "vm_events_total" in summary.metrics


def _record_value(name):
    """Values of one record entry.  Histogram seconds are multiples of
    1/8, so their sums are exact in any order."""
    kind, _help, label, _options = RECORD_SCHEMA[name]
    if kind == "histogram":
        seconds = st.integers(0, 80).map(lambda n: n / 8)
        return st.tuples(st.sampled_from(["completed", "stuck"]), seconds).map(list)
    if label is None:
        return st.integers(0, 50)
    return st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(0, 50))


RECORDS = st.lists(
    st.fixed_dictionaries(
        {}, optional={name: _record_value(name) for name in RECORD_SCHEMA}
    ),
    max_size=6,
)


class TestRecordFold:
    @settings(max_examples=80, deadline=None)
    @given(RECORDS, st.data())
    def test_any_order_folds_to_the_same_registry(self, records, data):
        reference = _folded(*records).to_dict()
        shuffled = data.draw(st.permutations(records))
        assert _folded(*shuffled).to_dict() == reference

    @settings(max_examples=80, deadline=None)
    @given(RECORDS, st.data())
    def test_fold_resumes_from_a_document_copy(self, records, data):
        """Folding a prefix, copying the registry through its document
        and folding the rest gives the registry of folding all records."""
        reference = _folded(*records).to_dict()
        cut = data.draw(st.integers(0, len(records)))
        resumed = MetricsRegistry.from_dict(_folded(*records[:cut]).to_dict())
        for record in records[cut:]:
            fold_record(resumed, record)
        assert resumed.to_dict() == reference

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.gauge("vm_steps_total").set(5)
        mismatch = "'vm_steps_total' already registered as gauge, not counter"
        with pytest.raises(ValueError, match=mismatch):
            fold_record(registry, {"vm_steps_total": 1})
        assert registry.gauge("vm_steps_total").get() == 5

    def test_zero_valued_monitor_stays_present(self):
        record = {"vm_monitor_hold_ticks_total": {"m": 0}}
        hold = _folded(record).to_dict()["metrics"]
        assert {"labels": {"monitor": "m"}, "value": 0} in next(
            m["series"] for m in hold if m["name"] == "vm_monitor_hold_ticks_total"
        )

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown metric 'vm_bogus_total'"):
            fold_record(MetricsRegistry(), {"vm_bogus_total": 1})
