"""One RunExecutor over many runs against a fresh assembly per run.

The executor builds its pipeline, sink and routing table once, resets
them in place between runs, and releases each finished run's kernel.
None of that may show in a run's summary: every program of the
batch==online suite, under random and systematic exploration, with all
detectors and the metrics sink on, must summarize exactly as it does
through a new executor per run.  The registry the sink's per-run record
folds into is checked against series built through a registry directly
from the kernel's counters and an event-derived reference, and a
campaign's runs must leave no cyclic garbage behind.
"""

import gc
import json
import re

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import fold_record
from repro.run import RunConfig
from repro.run.executor import RunExecutor
from repro.run.registry import DETECTORS, load_builtins
from repro.testing.explorer import explore_random, explore_systematic
from tests.detect.test_online_equivalence import FACTORIES
from tests.obs.sink_reference import EventDerivedMonitorSeries

#: metric families whose values are wall-clock readings, not schedule
#: content: compared by shape only
WALL_CLOCK_SERIES = {"vm_events_per_second", "run_wall_seconds"}

RUNS = 6

#: every equivalence-suite program as a ``module:function`` workload spec
#: of this module (RunConfig names programs by spec)
WORKLOAD_OF = {}
for _name, _factory in FACTORIES.items():
    _attr = "program_" + re.sub(r"\W", "_", _name)
    globals()[_attr] = _factory
    WORKLOAD_OF[_name] = f"{__name__}:{_attr}"


def all_detectors():
    load_builtins()
    return tuple(DETECTORS.names())


def configs():
    """(id, RunConfig) for every program x scheduler, the three fault
    templates, and a rate-driven spurious-wakeup config."""
    detect = all_detectors()
    for name, workload in WORKLOAD_OF.items():
        for scheduler in ("random", "systematic"):
            yield f"{name}-{scheduler}", RunConfig(
                workload=workload, scheduler=scheduler, detect=detect, metrics=True
            )
    for plan, component in (
        ("interrupt-consumer", "InterruptSwallowingProducerConsumer"),
        ("expire-first-wait", "TimeoutReturnProducerConsumer"),
        ("spurious-first-wait", "SpuriousUnguardedProducerConsumer"),
    ):
        yield f"pc+{component}/{plan}", RunConfig(
            workload="pc", component=component, faults=plan, detect=detect, metrics=True
        )
    yield "pc+IfGuard/spurious-rate", RunConfig(
        workload="pc",
        component="IfGuardProducerConsumer",
        spurious_rate=0.3,
        detect=detect,
        metrics=True,
        trace_mode="none",
    )


CONFIGS = dict(configs())


class FreshPerRun:
    """A program factory building a new RunExecutor for every run: the
    reference the reused executor must match."""

    def __init__(self, config):
        self.config = config
        self.current = None

    def __call__(self, scheduler):
        self.current = RunExecutor(self.config)
        return self.current(scheduler)

    def runner(self, kernel):
        return self.current.runner(kernel)

    def summarize(self, run):
        return self.current.summarize(run)


def explore(factory, config, on_run):
    if config.scheduler == "systematic":
        explore_systematic(
            factory,
            max_runs=RUNS,
            max_depth=config.max_depth,
            branch=config.branch,
            on_run=on_run,
            keep_runs=False,
            runner=factory.runner,
        )
    else:
        explore_random(
            factory,
            seeds=range(RUNS),
            on_run=on_run,
            keep_runs=False,
            runner=factory.runner,
        )


def folded(record):
    """The registry a run's metrics record folds into."""
    registry = MetricsRegistry()
    fold_record(registry, record)
    return registry


def shape_only(registry):
    """``registry.to_dict()`` as JSON in its own key order, with the
    values of the wall-clock families blanked."""
    metrics = registry.to_dict()
    rows = []
    for row in metrics["metrics"]:
        if row["name"] in WALL_CLOCK_SERIES:
            row = dict(row)
            row["series"] = [
                {key: None if key in ("value", "sum", "counts") else value
                 for key, value in series.items()}
                for series in row["series"]
            ]
        rows.append(row)
    return json.dumps({**metrics, "metrics": rows})


def comparable(summary):
    payload = summary.to_dict()
    payload["metrics"] = shape_only(folded(payload["metrics"]))
    return json.dumps(payload)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=list(CONFIGS))
def test_reused_executor_matches_fresh_executors(config):
    reused = RunExecutor(config)
    fresh = FreshPerRun(config)
    reused_rows, fresh_rows = [], []
    explore(reused, config, lambda run: reused_rows.append(reused.summarize(run)))
    explore(fresh, config, lambda run: fresh_rows.append(fresh.summarize(run)))
    assert len(reused_rows) == len(fresh_rows) > 0
    for index, (mine, theirs) in enumerate(zip(reused_rows, fresh_rows)):
        assert comparable(mine) == comparable(theirs), f"run {index}"


def reference_registry(kernel, result):
    """The series of a finished run built through a MetricsRegistry (the
    reference for its record): the kernel's native event, step and
    per-thread counters, and the per-monitor series the event-derived
    reference replays from the run's trace."""
    registry = MetricsRegistry()
    registry.histogram(
        "run_wall_seconds", "wall-clock duration per run by status"
    ).observe(0.0, status=result.status.value)
    registry.counter("vm_events_total", "events emitted by the kernel").inc(
        kernel.events_emitted
    )
    registry.gauge(
        "vm_events_per_second",
        "wall-clock event rate of the run (merged: peak across runs)",
    ).set(1.0)
    registry.counter("vm_steps_total", "kernel scheduling steps").inc(kernel.steps)
    switches = registry.counter(
        "vm_context_switches_total",
        "times a thread was scheduled after a different thread",
    )
    blocked = registry.counter(
        "vm_blocked_ticks_total",
        "virtual time threads spent blocked in entry sets",
    )
    waiting = registry.counter(
        "vm_waiting_ticks_total",
        "virtual time threads spent in wait sets (pre-wake)",
    )
    for name, stats in kernel.thread_stats().items():
        if stats["context_switches"]:
            switches.inc(stats["context_switches"], thread=name)
        if stats["blocked_ticks"]:
            blocked.inc(stats["blocked_ticks"], thread=name)
        if stats["waiting_ticks"]:
            waiting.inc(stats["waiting_ticks"], thread=name)
    series = (
        EventDerivedMonitorSeries().replay(result.trace, kernel.time).record_series()
    )
    for metric, help_text in (
        ("vm_monitor_acquisitions_total", "outermost monitor acquisitions"),
        ("vm_monitor_hold_ticks_total",
         "virtual time monitors were held (outermost holds)"),
        ("vm_monitor_contended_ticks_total",
         "virtual time threads blocked waiting for each monitor"),
        ("vm_notify_lost_total", "notify/notifyAll calls that woke nobody"),
    ):
        counter = registry.counter(metric, help_text)
        for monitor, count in series[metric].items():
            counter.inc(count, monitor=monitor)
    for metric, help_text in (
        ("vm_entry_queue_depth_peak", "peak entry-set depth per monitor"),
        ("vm_wait_queue_depth_peak", "peak wait-set depth per monitor"),
    ):
        gauge = registry.gauge(metric, help_text)
        for monitor, peak in series[metric].items():
            gauge.set(peak, monitor=monitor)
    return registry


@pytest.mark.parametrize(
    "name",
    [
        *(
            pytest.param(f"{name}-random", id=name)
            for name in (
                "pc-bug", "deadlock-pair", "mixed-deadlock", "rw+NativeReadWriteLock"
            )
        ),
        "pc+InterruptSwallowingProducerConsumer/interrupt-consumer",
        "pc+TimeoutReturnProducerConsumer/expire-first-wait",
        "pc+SpuriousUnguardedProducerConsumer/spurious-first-wait",
    ],
)
def test_sink_record_matches_the_registry_reference(name):
    """Each run's record, folded, against the registry reference built
    from the same kernel and trace: same names, key order and values."""
    executor = RunExecutor(CONFIGS[name])
    kernels = []

    def factory(scheduler):
        kernels.append(executor(scheduler))
        return kernels[-1]

    checked = []

    def on_run(run):
        record = executor.summarize(run).metrics
        expected = reference_registry(kernels[-1], run.result)
        assert shape_only(folded(record)) == shape_only(expected)
        checked.append(run)

    explore_random(factory, seeds=range(8), on_run=on_run, runner=executor.runner)
    assert len(checked) == 8


def test_runs_leave_no_cyclic_garbage():
    """200 pc-bug runs through one executor, detection and metrics on:
    every finished run is freed by reference counting."""
    runs = 200
    executor = RunExecutor(
        RunConfig(workload="pc-bug", detect=True, metrics=True, trace_mode="none")
    )
    summaries = []
    gc.collect()
    before = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        executor.explore(
            "random",
            seeds=range(runs),
            on_run=lambda run: summaries.append(executor.summarize(run)),
            keep_runs=False,
        )
        gc.collect()
        left = len(gc.garbage) - before
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
        gc.enable()
    assert len(summaries) == runs
    assert left <= 10 * runs, f"{left / runs:.1f} unreachable objects per run"
