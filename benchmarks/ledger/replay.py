"""Captured-stream replay: prices the layers too fine-grained for spans.

A span around every event would cost more than the event, so per-event
and per-step layers are priced the way benches Ext-I and Ext-M price the
sink and telemetry: re-execute a sample of the workload's own runs (same
run configs, same seeds, so the same events) with capture hooks, then
time one layer's work over the captured stream in a tight loop, best-of-N
CPU time.  Each replay builds its fresh objects outside the timed loop.
"""

from __future__ import annotations

import copy
import math
import pickle
import time
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.classify.symptoms import SymptomTracker
from repro.detect.online import DetectorPipeline
from repro.engine import CampaignSpec
from repro.obs.live.frames import TelemetryFrame
from repro.obs.sink import InstrumentationSink
from repro.run.config import RunConfig
from repro.run.executor import RunExecutor
from repro.run.registry import DETECTORS, load_builtins
from repro.testing.explorer import RunSummary
from repro.vm.events import Event
from repro.vm.kernel import Kernel
from repro.vm.scheduler import Decision, RandomScheduler, RecordingScheduler

__all__ = [
    "DETECTOR_NAMES",
    "Priced",
    "RunCapture",
    "capture",
    "price_build",
    "price_detector",
    "price_emit",
    "price_frames",
    "price_pick",
    "price_pipeline",
    "price_sink",
    "price_symptoms",
]

#: timed passes per replay; the best (least disturbed) one counts
ROUNDS = 5
#: a capture keeps adding runs until its streams hold this many events
MIN_EVENTS = 20_000
#: every registered online detector, each priced on its own
DETECTOR_NAMES = (
    "lockset",
    "hb",
    "lockgraph",
    "waitgraph",
    "starvation",
    "contention",
    "completion",
    "reentry",
)


@dataclass
class RunCapture:
    """One re-executed run, as its layers saw it."""

    config: RunConfig
    seed: int
    #: the run's own counts (``RunResult.steps``, ``Kernel.events_emitted``)
    steps: int = 0
    events: int = 0
    #: ``Kernel.emit`` arguments: (thread, kind, monitor, component, method, detail)
    emits: List[Tuple[Any, ...]] = field(default_factory=list)
    #: the emitted events, in order: what every event sink received
    stream: List[Event] = field(default_factory=list)
    #: the scheduler's decisions: one ``pick`` per step
    picks: List[Decision] = field(default_factory=list)
    #: the in-run detector pipeline's findings (when asked for)
    findings: Optional[Dict[str, Any]] = None


def _sample(specs: Sequence[CampaignSpec]) -> Iterator[Tuple[int, int]]:
    """(spec index, seed) pairs, round-robin over the specs' seed ranges."""
    for offset in range(max(spec.budget for spec in specs)):
        for index, spec in enumerate(specs):
            if offset < spec.budget:
                yield index, spec.seed_start + offset


def capture(
    specs: Sequence[CampaignSpec],
    min_events: int = MIN_EVENTS,
    findings: bool = False,
) -> List[RunCapture]:
    """Re-execute runs of these (random-mode) campaigns the way a worker
    does — one :class:`RunExecutor` per spec, a recording random scheduler
    per seed — until the captured streams hold ``min_events`` events."""
    executors: Dict[int, RunExecutor] = {}
    runs: List[RunCapture] = []  # the last one is running
    original_emit = Kernel.emit

    def emit(kernel, thread, kind, monitor=None, component=None, method=None, **detail):
        event = original_emit(kernel, thread, kind, monitor, component, method, **detail)
        runs[-1].emits.append((thread, kind, monitor, component, method, detail))
        runs[-1].stream.append(event)
        return event

    Kernel.emit = emit
    try:
        total = 0
        for index, seed in _sample(specs):
            if index not in executors:
                executors[index] = RunExecutor(specs[index].run_config())
            executor = executors[index]
            scheduler = RecordingScheduler(RandomScheduler(seed))
            run = RunCapture(executor.config, seed, picks=scheduler.log)
            runs.append(run)
            kernel = executor(scheduler)
            result = executor.runner(kernel)
            run.steps = result.steps
            run.events = kernel.events_emitted
            if findings and executor.pipeline is not None:
                run.findings = copy.deepcopy(executor.pipeline.findings())
            total += run.events
            if total >= min_events:
                break
    finally:
        Kernel.emit = original_emit
    return runs


@dataclass
class Priced:
    """A replayed layer: best-of-N CPU seconds for one pass over the
    sample, the items that pass consumed, and its objects."""

    seconds: float
    items: int
    state: Any

    @property
    def ns_per_item(self) -> float:
        return self.seconds / self.items * 1e9 if self.items else 0.0


def _best(setup: Callable[[], Any], body: Callable[[Any], int]) -> Priced:
    best = math.inf
    items, state = 0, None
    for _ in range(ROUNDS):
        state = setup()
        started = time.process_time()
        items = body(state)
        best = min(best, time.process_time() - started)
    return Priced(best, items, state)


def _feed(pairs: List[Tuple[Any, List[Event]]]) -> int:
    """The sink loop: every event to one ``on_event`` per run."""
    items = 0
    for target, stream in pairs:
        on_event = target.on_event
        for event in stream:
            on_event(event)
        items += len(stream)
    return items


def price_emit(runs: List[RunCapture]) -> Priced:
    """``Kernel.emit`` with the captured arguments: no sinks, trace off."""

    def body(pairs) -> int:
        items = 0
        for kernel, calls in pairs:
            emit = kernel.emit
            for thread, kind, monitor, component, method, detail in calls:
                emit(thread, kind, monitor, component, method, **detail)
            items += len(calls)
        return items

    return _best(lambda: [(Kernel(trace_mode="none"), r.emits) for r in runs], body)


def price_pick(runs: List[RunCapture]) -> Priced:
    """The kernel's ``scheduler.pick`` over the captured runnable lists
    (the recording random scheduler the explorer hands the kernel)."""
    calls = [[(d.kind, list(d.options)) for d in r.picks] for r in runs]

    def setup():
        return [(RecordingScheduler(RandomScheduler(r.seed)), c) for r, c in zip(runs, calls)]

    def body(pairs) -> int:
        items = 0
        for scheduler, picks in pairs:
            pick = scheduler.pick
            for kind, options in picks:
                pick(kind, options)
            items += len(picks)
        return items

    return _best(setup, body)


def price_build(runs: List[RunCapture]) -> Priced:
    """``RunConfig.build_factory()(scheduler)``: one unrun kernel per run."""
    factories: Dict[int, Callable[[Any], Kernel]] = {}
    for r in runs:
        factories.setdefault(id(r.config), r.config.build_factory())

    def setup():
        return [
            (factories[id(r.config)], RecordingScheduler(RandomScheduler(r.seed)))
            for r in runs
        ]

    def body(pairs) -> int:
        for factory, scheduler in pairs:
            factory(scheduler)
        return len(pairs)

    return _best(setup, body)


def _detected(runs: List[RunCapture], name: Optional[str] = None) -> List[RunCapture]:
    return [r for r in runs if r.config.detect and (name is None or name in r.config.detect)]


def price_detector(runs: List[RunCapture], name: str) -> Priced:
    """One detector's ``on_event``, a fresh instance per run; only runs
    whose config enables the detector."""
    load_builtins()
    chosen = _detected(runs, name)
    return _best(lambda: [(DETECTORS.get(name)(), r.stream) for r in chosen], _feed)


def price_symptoms(runs: List[RunCapture]) -> Priced:
    """The pipeline's VM-level symptom tracker."""
    chosen = _detected(runs)
    return _best(lambda: [(SymptomTracker(), r.stream) for r in chosen], _feed)


def price_pipeline(runs: List[RunCapture]) -> Priced:
    """``DetectorPipeline.on_event``: symptoms, every configured detector,
    and the per-event ``abort_reason`` poll."""
    load_builtins()
    chosen = _detected(runs)

    def setup():
        return [
            (DetectorPipeline([DETECTORS.get(n)() for n in r.config.detect]), r.stream)
            for r in chosen
        ]

    return _best(setup, _feed)


def price_sink(runs: List[RunCapture]) -> Priced:
    """The instrumentation sink's kind-filtered handlers as the kernel's
    emit loop calls them: one dict lookup per event, handlers for the
    monitor-protocol kinds (the Ext-I replay)."""
    chosen = [r for r in runs if r.config.metrics]

    def setup():
        pairs = []
        for r in chosen:
            sink = InstrumentationSink()
            kind_sinks = {kind: (handler,) for kind, handler in sink._handlers.items()}
            pairs.append((kind_sinks, r.stream))
        return pairs

    def body(pairs) -> int:
        items = 0
        empty = ()
        for kind_sinks, stream in pairs:
            get = kind_sinks.get
            for event in stream:
                for handler in get(event.kind, empty):
                    handler(event)
            items += len(stream)
        return items

    return _best(setup, body)


def price_frames(summaries: List[RunSummary], shard: str = "s0000") -> Tuple[Priced, Priced]:
    """A worker's per-run frame (``TelemetryFrame.for_run`` -> ``to_dict``
    -> pickle, as the queue sends it) and the orchestrator's decode."""

    def encode(blobs: List[bytes]) -> int:
        dumps = ForkingPickler.dumps
        for runs, summary in enumerate(summaries, 1):
            frame = TelemetryFrame.for_run(shard, summary, runs=runs)
            blobs.append(dumps(("frame", shard, frame.to_dict())))
        return len(summaries)

    encoded = _best(list, encode)
    blobs = [bytes(blob) for blob in encoded.state]

    def decode(frames: List[TelemetryFrame]) -> int:
        for blob in blobs:
            _kind, _shard, payload = pickle.loads(blob)
            frames.append(TelemetryFrame.from_dict(payload))
        return len(blobs)

    return encoded, _best(list, decode)
