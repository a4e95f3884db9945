"""Batched detection equals per-event detection.

A :class:`DetectorPipeline` bound to a kernel folds every detector over
batches the kernel buffers (:meth:`Kernel.install_consumer`) and polls
the abort-capable ones after each batch.  These tests hold that to the
per-event pipeline it replaced:

* every registered program, under no fault, each registered fault plan,
  and random, PCT and systematic scheduling: the kernel-bound pipeline
  against a pipeline fed each event as it is emitted (aborting the run
  the moment its poll says so), and against a per-event replay of the
  run's own trace — findings, summary, abort reason and steps;
* the hand-over points: each chunk during a run, the one before
  :meth:`Kernel.run` returns, the timeout path of :func:`timed_runner`,
  and a kernel stepped by hand;
* the split: folding a stream in pieces equals folding it whole, for
  every detector and the symptom tracker, and each fold's ``kinds``
  covers every kind its body reacts to.
"""

import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify.symptoms import SymptomTracker
from repro.detect import OnlineContentionProfiler
from repro.detect.online import DetectorPipeline, OnlineDetector, default_detectors
from repro.run import RunConfig, RunExecutor
from repro.run.executor import timed_runner
from repro.run.registry import DETECTORS, FAULTS, load_builtins
from repro.vm import (
    Acquire,
    EventKind,
    FifoScheduler,
    Kernel,
    RandomScheduler,
    Release,
    ReplayScheduler,
    RunStatus,
    Yield,
)
from repro.vm.kernel import CHUNK_EVENTS
from tests.detect.test_online_equivalence import _observe, _prefix_runs
from tests.obs.test_record_pin import programs

load_builtins()

SEEDS = (0, 1)
SYSTEMATIC_RUNS = 3


def configs():
    """label -> RunConfig of every program under no fault and under each
    registered fault plan, where the plan fits the program."""
    table = {}
    for workload, component in programs():
        for plan in (None, *FAULTS.names()):
            config = RunConfig(workload=workload, component=component, faults=plan)
            try:
                config.validate()
            except ValueError:
                continue
            program = workload if component is None else f"{workload}+{component}"
            table[f"{program}/{plan or 'none'}"] = config
    return table


CONFIGS = configs()


def schedulers(config):
    """(label, scheduler factory) pairs: random and PCT seeds, and the
    first runs of the systematic walk."""
    for mode in ("random", "pct"):
        for seed in SEEDS:
            yield f"{mode}-{seed}", (
                lambda mode=mode, seed=seed: replace(
                    config, scheduler=mode
                ).make_scheduler(seed)
            )
    walker = RunExecutor(config)
    walk = walker.explore("systematic", max_runs=SYSTEMATIC_RUNS)
    walker.release()
    for index, run in enumerate(walk.runs):
        yield f"systematic-{index}", (
            lambda decisions=tuple(run.decisions): ReplayScheduler(
                decisions, fallback=FifoScheduler()
            )
        )


def folded_findings(pipeline):
    """Each detector's findings as they stand, without a drain."""
    return {detector.name: detector.finish() for detector in pipeline.detectors}


def per_event_run(executor, scheduler):
    """A run whose pipeline sees each event as it is emitted, asking for
    the abort right after the event that proves it."""
    kernel = executor(scheduler)
    pipeline = DetectorPipeline()

    def sink(event):
        pipeline.on_event(event)
        if pipeline.aborted is not None:
            kernel.request_abort(pipeline.aborted)

    kernel.subscribe(sink)
    return pipeline, executor.runner(kernel)


def with_contention():
    """The default detectors plus the opt-in contention profiler."""
    return [*default_detectors(), OnlineContentionProfiler()]


def replayed(events, detectors=None):
    """A fresh pipeline fed ``events`` one at a time."""
    pipeline = DetectorPipeline(detectors)
    for event in events:
        pipeline.on_event(event)
    return pipeline


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_batched_pipeline_equals_per_event(label):
    config = CONFIGS[label]
    batched = RunExecutor(replace(config, detect=True))
    plain = RunExecutor(config)
    try:
        for name, make in schedulers(config):
            kernel = batched(make())
            result = batched.runner(kernel)
            pipeline = batched.pipeline
            # run() handed every event over before returning
            found = folded_findings(pipeline)
            where = (label, name)

            reference, natural = per_event_run(plain, make())
            assert result.steps == natural.steps, where
            assert result.choice_log == natural.choice_log, where
            assert result.abort_reason == natural.abort_reason, where
            assert pipeline.aborted == reference.aborted == result.abort_reason
            assert found == reference.findings(), where
            assert pipeline.summary(result) == reference.summary(natural), where

            again = replayed(result.trace)
            assert again.aborted == result.abort_reason, where
            assert found == again.findings(), where
            assert pipeline.summary(result) == again.summary(result), where
    finally:
        batched.release()
        plain.release()


def test_early_abort_workloads_are_covered():
    """The sweep above includes runs the waitgraph poll ends early."""
    executor = RunExecutor(RunConfig(workload="deadlock-pair", detect=True))
    aborted = [
        executor.execute(RandomScheduler(seed)).abort_reason for seed in range(10)
    ]
    executor.release()
    assert any(reason is not None for reason in aborted)
    assert {"deadlock-pair/none", "mixed-deadlock/none"} <= set(CONFIGS)


def long_kernel(scheduler, rounds=400):
    """Two threads trading a monitor for ``rounds`` rounds: several
    chunks of events."""
    kernel = Kernel(scheduler=scheduler, trace_mode="none")
    kernel.new_monitor("m")

    def worker():
        for _ in range(rounds):
            yield Acquire("m")
            yield Yield()
            yield Release("m")

    kernel.spawn(worker, name="a")
    kernel.spawn(worker, name="b")
    return kernel


class Batches:
    """A batch consumer recording each batch's size, and the events
    pending whenever the scheduler picks (every step boundary)."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.sizes = []
        self.pending = []
        kernel.install_consumer(self)
        pick = kernel.scheduler.pick

        def watching_pick(kind, options):
            self.pending.append(kernel.events_emitted - sum(self.sizes))
            return pick(kind, options)

        kernel.scheduler.pick = watching_pick

    def __call__(self, batch):
        self.sizes.append(len(batch))


def test_trace_none_run_hands_over_in_chunks():
    kernel = long_kernel(RandomScheduler(seed=3))
    batches = Batches(kernel)
    result = kernel.run()
    assert result.status is RunStatus.COMPLETED
    assert kernel.events_emitted > 3 * CHUNK_EVENTS
    assert sum(batches.sizes) == kernel.events_emitted
    assert len(batches.sizes) > 3
    assert all(size >= CHUNK_EVENTS for size in batches.sizes[:-1])
    assert max(batches.pending) < CHUNK_EVENTS
    assert len(kernel.trace) == 0


def test_long_trace_none_run_matches_replay():
    kernel = long_kernel(RandomScheduler(seed=5))
    recorded = []
    kernel.subscribe(recorded.append)
    pipeline = DetectorPipeline().attach(kernel)
    result = kernel.run()
    assert len(kernel.trace) == 0 and len(recorded) > 3 * CHUNK_EVENTS
    reference = replayed(recorded)
    assert folded_findings(pipeline) == reference.findings()
    assert pipeline.summary(result) == reference.summary(result)


def test_timeout_hands_over_what_the_run_emitted():
    """The grace alarm raises out of ``run()`` before its own hand-over;
    the runner hands the events over instead."""
    kernel = Kernel(scheduler=RandomScheduler(seed=0))
    kernel.new_monitor("m")

    def busy():
        yield Acquire("m")
        yield Release("m")
        yield Acquire("m")
        give_up = time.monotonic() + 30.0
        while time.monotonic() < give_up:
            pass

    kernel.spawn(busy, name="busy")
    pipeline = DetectorPipeline(with_contention()).attach(kernel)
    result = timed_runner(0.2)(kernel)
    assert result.status is RunStatus.TIMEOUT
    assert len(kernel.trace) > 0
    assert (
        folded_findings(pipeline)
        == replayed(result.trace, with_contention()).findings()
    )
    assert folded_findings(pipeline)["contention"].monitors["m"].acquisitions == 2


def test_manually_stepped_kernel_drains_on_read():
    config = RunConfig(workload="pc-bug")
    kernel = RunExecutor(config)(RandomScheduler(seed=2))
    pipeline = DetectorPipeline(with_contention()).attach(kernel)
    while kernel.step():
        pass
    assert kernel.events_emitted < CHUNK_EVENTS
    # nothing was handed over: step() leaves the batch to the caller
    assert folded_findings(pipeline)["contention"].monitors == {}
    found = pipeline.findings()
    assert found == replayed(kernel.trace, with_contention()).findings()
    kernel.drain()
    assert pipeline.findings() == found


class AbortOnRelease(OnlineDetector):
    """A custom abort-capable detector: asks to end the run at its first
    release, and notes how many events had been emitted when each
    release was delivered."""

    name = "abort-on-release"
    kinds = frozenset({EventKind.MONITOR_RELEASE})

    def __init__(self, kernel):
        self.kernel = kernel
        self.emitted_at_delivery = []

    def on_event(self, event):
        self.emitted_at_delivery.append((event.seq, self.kernel.events_emitted))

    def finish(self):
        return len(self.emitted_at_delivery)

    def abort_reason(self):
        return "released" if self.emitted_at_delivery else None


def test_custom_abort_capable_detector_polled_after_each_batch():
    kernel = long_kernel(RandomScheduler(seed=1))
    detector = AbortOnRelease(kernel)
    pipeline = DetectorPipeline([detector]).attach(kernel)
    result = kernel.run()
    assert result.abort_reason == pipeline.aborted == "released"
    # folded in a batch, not delivered as each release was emitted
    seq, emitted = detector.emitted_at_delivery[0]
    assert emitted > seq + 1
    # polled after that first batch, which ended the run
    assert {at for _, at in detector.emitted_at_delivery} == {emitted}
    assert kernel.events_emitted == emitted >= CHUNK_EVENTS
    assert result.steps < long_kernel(RandomScheduler(seed=1)).run().steps


# -- a fold does not depend on how its batch is split ------------------------

RUNS = _prefix_runs()
NAMES = sorted(DETECTORS.names()) + ["symptoms"]


def fresh(name, expectations):
    if name == "symptoms":
        return SymptomTracker()
    if name == "completion":
        return DETECTORS.get(name)(expectations)
    return DETECTORS.get(name)()


@pytest.mark.parametrize("name", NAMES)
def test_kinds_cover_what_each_fold_reads(name):
    """A fold skips the kinds outside ``kinds``; made to read every kind,
    it must report the same after every event, so ``kinds`` leaves out
    nothing its body reacts to."""
    checked = 0
    for workload, result, expectations in RUNS:
        every, declared = fresh(name, expectations), fresh(name, expectations)
        every.kinds = frozenset(EventKind)
        for event in result.trace:
            every.fold((event,))
            declared.fold((event,))
            assert _observe(every, result) == _observe(declared, result), (
                workload,
                event.seq,
                event.kind,
            )
            checked += 1
    assert checked


@settings(max_examples=200, deadline=None)
@given(
    run=st.integers(min_value=0, max_value=len(RUNS) - 1),
    cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
)
def test_fold_does_not_depend_on_the_split(run, cuts):
    workload, result, expectations = RUNS[run]
    events = list(result.trace)
    points = sorted({0, len(events), *(int(c * len(events)) for c in cuts)})
    pieces = [events[a:b] for a, b in zip(points, points[1:])]
    for name in NAMES:
        whole, split = fresh(name, expectations), fresh(name, expectations)
        whole.fold(events)
        for piece in pieces:
            split.fold(piece)
        assert _observe(whole, result) == _observe(split, result), (
            workload,
            name,
            points,
        )
