"""The traced run: span wrappers, self-time attribution, per-layer metrics.

Spans come from class-level wrappers that harness code installs around
each layer's public entry point (nothing under ``src/`` changes); the
only private names wrapped are ``_Aggregator.merge`` and
``_Aggregator.goal_reached``, which have no public entry point.  Spans
go into a :class:`repro.obs.SpanTracer` with ``keep_spans=True``,
labelled with their own ``id``, their ``parent``, and the ``run`` (seed)
and ``shard`` they served; they stay in memory and are written to
``results/trace_<workload>.jsonl`` when the run ends.

A span's self time is its duration minus its direct children's.  Per
event layers (detectors, the sink) run inside ``Kernel.run`` and have no
spans: their replay price (:mod:`ledger.replay`) times the run's exact
event count is moved out of the ``vm.run`` self time into their layers.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.process
import multiprocessing.queues
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.corpus
import repro.corpus.sweep
import repro.engine
import repro.engine.campaign as campaign
from repro.detect.online import DetectorPipeline
from repro.engine.journal import CampaignJournal
from repro.engine.progress import ProgressTracker
from repro.obs.live.aggregate import LiveAggregator
from repro.obs.sink import InstrumentationSink
from repro.obs.spans import Span, SpanTracer
from repro.run.executor import RunExecutor
from repro.vm.kernel import Kernel

from . import replay
from .workloads import Outcome, execute

__all__ = ["FROM_UNTRACED", "PER_LAYER", "SpanLog", "instrument", "traced_child"]

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: the root span: the workload body, whose duration is the traced wall
ROOT = "ledger.workload"

#: span name -> the layer its self time is attributed to
LAYER_OF = {
    "vm.run": "vm",
    "run.executor_build": "run",
    "run.assemble": "run",
    "run.summarize": "run",
    "testing.execute_shard": "testing",
    "detect.report": "detect",
    "obs.snapshot": "obs",
    "engine.campaign": "engine",
    "engine.merge": "engine",
    "engine.goal_check": "engine",
    "engine.progress": "engine",
    "engine.journal": "engine",
    "engine.queue_get": "engine",
    "engine.launch": "engine",
    "live.note_run": "live",
    "corpus.generate": "corpus",
    "corpus.load": "corpus",
    "corpus.sweep": "corpus",
    "corpus.static": "corpus",
}

#: the orchestrator's per-run and per-shard fold spans
ENGINE_FOLD = (
    "engine.merge",
    "engine.goal_check",
    "engine.progress",
    "engine.journal",
    "engine.launch",
    "live.note_run",
)

#: every per-layer metric: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "vm.steps_per_run": ("steps/run", "lower"),
    "vm.events_per_step": ("events/step", "lower"),
    "vm.self_ns_per_step": ("ns/step", "lower"),
    "vm.emit_ns_per_event": ("ns/event", "lower"),
    "vm.pick_ns_per_step": ("ns/step", "lower"),
    "vm.build_us_per_run": ("us/run", "lower"),
    "run.assemble_us_per_run": ("us/run", "lower"),
    "run.summarize_us_per_run": ("us/run", "lower"),
    "run.executor_build_us": ("us", "lower"),
    "testing.explorer_self_us_per_run": ("us/run", "lower"),
    **{f"detect.{n}_ns_per_event": ("ns/event", "lower") for n in replay.DETECTOR_NAMES},
    "detect.symptoms_ns_per_event": ("ns/event", "lower"),
    "detect.pipeline_ns_per_event": ("ns/event", "lower"),
    "detect.report_us_per_run": ("us/run", "lower"),
    "detect.abort_share": ("ratio", "higher"),
    "obs.sink_ns_per_event": ("ns/event", "lower"),
    "obs.snapshot_us_per_run": ("us/run", "lower"),
    "engine.frame_encode_us_per_run": ("us/run", "lower"),
    "engine.frame_decode_us_per_run": ("us/run", "lower"),
    "engine.merge_us_per_run": ("us/run", "lower"),
    "engine.merge_us_first_decile": ("us/call", "lower"),
    "engine.merge_us_last_decile": ("us/call", "lower"),
    "engine.goal_check_us_per_run": ("us/run", "lower"),
    "engine.goal_check_us_first_decile": ("us/call", "lower"),
    "engine.goal_check_us_last_decile": ("us/call", "lower"),
    "engine.progress_us_per_run": ("us/run", "lower"),
    "live.note_run_us_per_run": ("us/run", "lower"),
    "engine.journal_ms_per_shard": ("ms/shard", "lower"),
    "engine.launch_ms_per_shard": ("ms/shard", "lower"),
    "engine.campaign_self_ms": ("ms/campaign", "lower"),
    "engine.campaign_setup_ms": ("ms/campaign", "lower"),
    "engine.queue_wait_share": ("ratio", "lower"),
    "engine.parent_cpu_share": ("ratio", "lower"),
    "engine.worker_cpu_ms_per_run": ("ms/run", "lower"),
    "engine.unique_share": ("ratio", "higher"),
    "engine.shards_requeued": ("count", "lower"),
    "corpus.generate_s": ("s", "lower"),
    "corpus.compile_ms_per_variant": ("ms/variant", "lower"),
    "corpus.static_ms_per_variant": ("ms/variant", "lower"),
    "corpus.campaign_ms_per_variant": ("ms/variant", "lower"),
    "setup.import_s": ("s", "lower"),
    "ledger.unattributed_share": ("ratio", "lower"),
    "ledger.trace_overhead_share": ("ratio", "lower"),
}

#: per-layer metrics that come from the untraced reference run, which
#: the parent process fills in (see :mod:`ledger.run`)
FROM_UNTRACED = (
    "engine.parent_cpu_share",
    "engine.worker_cpu_ms_per_run",
    "ledger.trace_overhead_share",
)


class SpanLog:
    """The spans of one traced phase, plus exact step and event counts
    and the campaign specs that ran."""

    def __init__(self) -> None:
        self.tracer = SpanTracer(keep_spans=True)
        self.active = True
        self.context = {"run": "", "shard": ""}
        self.steps = 0
        self.events = 0
        self.specs: List[Any] = []
        self._open: List[str] = []
        self._ids = itertools.count()
        self._patches: List[Tuple[Any, str, Any]] = []
        # pool workers inherit the wrappers; only the parent records
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False

    def _start(self, name: str, labels: Dict[str, Any]) -> Span:
        span_id = str(next(self._ids))
        parent = self._open[-1] if self._open else ""
        span = self.tracer.start(
            name, **{**self.context, **labels, "id": span_id, "parent": parent}
        )
        self._open.append(span_id)
        return span

    def _end(self, span: Span) -> None:
        self._open.pop()
        self.tracer.end(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._start(name, {})
        try:
            yield span
        finally:
            self._end(span)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        labels: Optional[Callable[..., Dict[str, Any]]] = None,
        scope: bool = False,
        after: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``labels`` maps the call's arguments to span labels; with
        ``scope`` they also label every span opened later (the run or
        shard now being served).  ``after`` receives the call's first
        argument once the call returns.
        """
        original = getattr(owner, attr)
        log = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not log.active:
                return original(*args, **kwargs)
            extra = labels(*args, **kwargs) if labels is not None else {}
            if scope:
                log.context.update(extra)
            span = log._start(name, extra)
            try:
                result = original(*args, **kwargs)
            finally:
                log._end(span)
            if after is not None:
                after(args[0])
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def count_run(self, kernel: Kernel) -> None:
        self.steps += kernel.steps
        self.events += kernel.events_emitted

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _run_labels(executor: Any, scheduler: Any) -> Dict[str, Any]:
    return {"run": getattr(getattr(scheduler, "inner", scheduler), "seed", "")}


def _shard_labels(task: Any, emit: Any = None) -> Dict[str, Any]:
    return {"shard": task.shard.shard_id}


def _merge_labels(
    aggregator: Any, summary: Any, shard_id: str = "", frame: Any = None
) -> Dict[str, Any]:
    run = summary.seed if summary.seed is not None else summary.index
    return {"run": run, "shard": shard_id}


def instrument(log: SpanLog) -> SpanLog:
    """Install every layer's span wrapper; returns the log."""
    log.wrap(Kernel, "run", "vm.run", after=log.count_run)
    log.wrap(RunExecutor, "__init__", "run.executor_build")
    log.wrap(RunExecutor, "__call__", "run.assemble", labels=_run_labels, scope=True)
    log.wrap(RunExecutor, "summarize", "run.summarize")
    log.wrap(DetectorPipeline, "summary", "detect.report")
    log.wrap(InstrumentationSink, "snapshot", "obs.snapshot")
    log.wrap(
        campaign, "execute_shard", "testing.execute_shard",
        labels=_shard_labels, scope=True,
    )
    log.wrap(campaign._Aggregator, "merge", "engine.merge", labels=_merge_labels)
    log.wrap(campaign._Aggregator, "goal_reached", "engine.goal_check")
    log.wrap(ProgressTracker, "note_run", "engine.progress")
    log.wrap(LiveAggregator, "note_run", "live.note_run")
    log.wrap(CampaignJournal, "append_shard", "engine.journal")
    log.wrap(multiprocessing.queues.Queue, "get", "engine.queue_get")
    log.wrap(multiprocessing.process.BaseProcess, "start", "engine.launch")
    log.wrap(repro.engine, "run_campaign", "engine.campaign", after=log.specs.append)
    log.wrap(
        repro.corpus.sweep, "run_campaign", "engine.campaign", after=log.specs.append
    )
    log.wrap(repro.corpus.sweep, "check_component", "corpus.static")
    log.wrap(repro.corpus, "generate_corpus", "corpus.generate")
    log.wrap(repro.corpus, "load_corpus", "corpus.load")
    log.wrap(repro.corpus, "sweep_corpus", "corpus.sweep")
    return log


@dataclass
class SpanStats:
    """Per span name, in call order: each call's start, wall and self."""

    starts: List[float] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    selfs: List[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.walls)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def self_time(self) -> float:
        return sum(self.selfs)


@dataclass
class Phase:
    """One traced execution of a workload and what its spans say."""

    log: SpanLog
    outcome: Outcome
    #: the finished spans in start order, each with its self time
    spans: List[Tuple[Span, float]] = field(default_factory=list)
    stats: Dict[str, SpanStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        finished = self.log.tracer.finished
        children: Dict[str, float] = defaultdict(float)
        for span in finished:
            children[span.labels["parent"]] += span.wall_seconds
        stats: Dict[str, SpanStats] = defaultdict(SpanStats)
        for span in sorted(finished, key=lambda s: s.wall_start):
            own = span.wall_seconds - children[span.labels["id"]]
            self.spans.append((span, own))
            entry = stats[span.name]
            entry.starts.append(span.wall_start)
            entry.walls.append(span.wall_seconds)
            entry.selfs.append(own)
        self.stats = stats

    @property
    def root(self) -> float:
        return self.stats[ROOT].wall

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def layers(self, replayed: Dict[str, float]) -> Dict[str, float]:
        """Seconds of self time per layer.  ``replayed`` holds per-event
        work priced by replay, moved out of ``vm.run`` into its layer;
        the root's own time is ``unattributed``."""
        totals: Dict[str, float] = defaultdict(float)
        for name, entry in self.stats.items():
            totals[LAYER_OF.get(name, "unattributed")] += entry.self_time
        for layer, seconds in replayed.items():
            totals[layer] += seconds
            totals["vm"] -= seconds
        return dict(totals)

    def campaign_setup(self) -> float:
        """Mean time from run_campaign entry to the campaign's first shard
        execution or worker launch (campaigns run one after another)."""
        campaigns = self.get("engine.campaign")
        firsts = sorted(self.get("testing.execute_shard").starts + self.get("engine.launch").starts)
        delays = []
        for start, wall in zip(campaigns.starts, campaigns.walls):
            inside = [t for t in firsts if start <= t <= start + wall]
            if inside:
                delays.append(inside[0] - start)
        return sum(delays) / len(delays) if delays else 0.0


def _traced(run: Callable[[SpanLog], Outcome]) -> Phase:
    log = instrument(SpanLog())
    try:
        outcome = run(log)
    finally:
        log.uninstall()
    return Phase(log, outcome)


def _per(total: float, count: int, unit: float = 1e6) -> float:
    return total / count * unit if count else 0.0


def _deciles(values: List[float], unit: float = 1e6) -> Tuple[float, float]:
    """Mean of the first and of the last tenth of the calls."""
    if not values:
        return 0.0, 0.0
    tenth = max(1, len(values) // 10)
    return sum(values[:tenth]) / tenth * unit, sum(values[-tenth:]) / tenth * unit


def traced_child(
    name: str, seed: int, scale: float, workdir: str
) -> Tuple[Outcome, Dict[str, Any]]:
    """Run one workload traced; returns its outcome and the trace report
    (per-layer metrics, layer self times, stress shares, trace file)."""
    main = _traced(
        lambda log: execute(name, seed, scale, workdir, region=lambda: log.span(ROOT))
    )
    # clean-pool's workers do not record: its worker-side layers come
    # from an inline traced run of the same spec
    worker = main
    if name == "clean-pool":
        worker = _traced(
            lambda log: execute(
                name, seed, scale, workdir, region=lambda: log.span(ROOT), workers=0
            )
        )
        if worker.outcome.digest != main.outcome.digest:
            main.outcome.problems.append("inline and pool digests differ")

    runs = replay.capture(worker.log.specs)
    priced = {
        "emit": replay.price_emit(runs),
        "pick": replay.price_pick(runs),
        "build": replay.price_build(runs),
        "symptoms": replay.price_symptoms(runs),
        "pipeline": replay.price_pipeline(runs),
        "sink": replay.price_sink(runs),
    }
    for detector in replay.DETECTOR_NAMES:
        priced[detector] = replay.price_detector(runs, detector)
    summaries = main.outcome.result.summaries if main.outcome.pooled else []
    encoded, decoded = replay.price_frames(summaries)

    events = worker.log.events
    replayed = {
        "detect": priced["pipeline"].ns_per_item * 1e-9 * events,
        "obs": priced["sink"].ns_per_item * 1e-9 * events,
    }
    worker_layers = worker.layers(replayed)
    main_layers = worker_layers if worker is main else main.layers({})

    kernel_runs = worker.get("vm.run").count
    steps = worker.log.steps
    merges = main.get("engine.merge")
    goal = main.get("engine.goal_check")
    merged = merges.count
    outcome = main.outcome
    variants = len(outcome.result) if name == "corpus-sweep" else 0
    merge_first, merge_last = _deciles(merges.selfs)
    goal_first, goal_last = _deciles(goal.selfs)
    queue_wait = main.get("engine.queue_get").wall

    def self_per_run(phase: Phase, span: str, count: int) -> float:
        return _per(phase.get(span).self_time, count)

    def mean_self(phase: Phase, span: str, unit: float) -> float:
        entry = phase.get(span)
        return _per(entry.self_time, entry.count, unit)

    metrics: Dict[str, float] = {
        "vm.steps_per_run": _per(steps, kernel_runs, 1),
        "vm.events_per_step": _per(events, steps, 1),
        "vm.self_ns_per_step": _per(max(worker_layers.get("vm", 0.0), 0.0), steps, 1e9),
        "vm.emit_ns_per_event": priced["emit"].ns_per_item,
        "vm.pick_ns_per_step": priced["pick"].ns_per_item,
        "vm.build_us_per_run": priced["build"].ns_per_item / 1e3,
        "run.assemble_us_per_run": self_per_run(worker, "run.assemble", kernel_runs),
        "run.summarize_us_per_run": self_per_run(worker, "run.summarize", kernel_runs),
        "run.executor_build_us": mean_self(worker, "run.executor_build", 1e6),
        "testing.explorer_self_us_per_run": self_per_run(
            worker, "testing.execute_shard", kernel_runs
        ),
        **{
            f"detect.{n}_ns_per_event": priced[n].ns_per_item
            for n in replay.DETECTOR_NAMES
        },
        "detect.symptoms_ns_per_event": priced["symptoms"].ns_per_item,
        "detect.pipeline_ns_per_event": priced["pipeline"].ns_per_item,
        "detect.report_us_per_run": self_per_run(worker, "detect.report", kernel_runs),
        "detect.abort_share": _per(worker.outcome.aborted, worker.outcome.executed, 1),
        "obs.sink_ns_per_event": priced["sink"].ns_per_item,
        "obs.snapshot_us_per_run": self_per_run(worker, "obs.snapshot", kernel_runs),
        "engine.frame_encode_us_per_run": encoded.ns_per_item / 1e3,
        "engine.frame_decode_us_per_run": decoded.ns_per_item / 1e3,
        "engine.merge_us_per_run": _per(merges.self_time, merged),
        "engine.merge_us_first_decile": merge_first,
        "engine.merge_us_last_decile": merge_last,
        "engine.goal_check_us_per_run": _per(goal.self_time, merged),
        "engine.goal_check_us_first_decile": goal_first,
        "engine.goal_check_us_last_decile": goal_last,
        "engine.progress_us_per_run": self_per_run(main, "engine.progress", merged),
        "live.note_run_us_per_run": self_per_run(main, "live.note_run", merged),
        "engine.journal_ms_per_shard": mean_self(main, "engine.journal", 1e3),
        "engine.launch_ms_per_shard": mean_self(main, "engine.launch", 1e3),
        "engine.campaign_self_ms": mean_self(main, "engine.campaign", 1e3),
        "engine.campaign_setup_ms": main.campaign_setup() * 1e3,
        "engine.queue_wait_share": _per(queue_wait, main.root, 1),
        "engine.unique_share": _per(outcome.unique, outcome.executed, 1),
        "engine.shards_requeued": float(outcome.requeued),
        "corpus.generate_s": main.get("corpus.generate").wall,
        "corpus.compile_ms_per_variant": _per(main.get("corpus.load").wall, variants, 1e3),
        "corpus.static_ms_per_variant": _per(main.get("corpus.static").wall, variants, 1e3),
        "corpus.campaign_ms_per_variant": (
            _per(main.get("engine.campaign").wall, variants, 1e3) if variants else 0.0
        ),
        # replay pricing above a run's measured time would drive vm below
        # zero; clamping it makes such over-pricing show up here
        "ledger.unattributed_share": 1.0
        - sum(max(v, 0.0) for k, v in main_layers.items() if k != "unattributed")
        / main.root,
    }

    # the parent's named fold layers; run_campaign's own self time (the
    # catch-all around them, pool loop included) is reported apart
    engine_parent = sum(main.get(span).self_time for span in ENGINE_FOLD)
    busy = main.root - queue_wait
    # the shares each workload was chosen to stress (see README.md)
    shares = {
        "detect_obs_of_wall": (
            worker_layers.get("detect", 0.0) + worker_layers.get("obs", 0.0)
        ) / worker.root,
        "vm_of_wall": worker_layers.get("vm", 0.0) / worker.root,
        "engine_parent_of_busy": engine_parent / busy,
        "campaign_self_of_busy": main.get("engine.campaign").self_time / busy,
        "outside_execute_shard_of_wall": 1.0
        - main.get("testing.execute_shard").wall / main.root,
        "goal_check_last_over_first_decile": goal_last / goal_first if goal_first else 0.0,
    }
    phases = {"main": main} if worker is main else {"pool": main, "inline": worker}
    trace_file = write_trace(name, seed, scale, phases)
    metrics.update(dict.fromkeys(FROM_UNTRACED + ("setup.import_s",)))
    report = {
        "per_layer": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()
        },
        "layers_s": {"main": main_layers, "worker": worker_layers},
        "root_s": main.root,
        "shares": shares,
        "trace_file": trace_file,
    }
    return outcome, report


def write_trace(name: str, seed: int, scale: float, phases: Dict[str, Phase]) -> str:
    """Write every span as one JSON line (phase, id, parent, name, start
    relative to its phase's root, wall, self, run, shard)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"trace_{name}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        header = {"workload": name, "seed": seed, "scale": scale, "root": ROOT}
        handle.write(json.dumps(header) + "\n")
        for label, phase in phases.items():
            origin = phase.spans[0][0].wall_start if phase.spans else 0.0
            for span, own in phase.spans:
                labels = span.labels
                record = {
                    "phase": label,
                    "id": int(labels["id"]),
                    "parent": int(labels["parent"]) if labels["parent"] else None,
                    "name": span.name,
                    "start_s": round(span.wall_start - origin, 9),
                    "wall_s": round(span.wall_seconds, 9),
                    "self_s": round(own, 9),
                    "run": labels["run"],
                    "shard": labels["shard"],
                }
                handle.write(json.dumps(record) + "\n")
    return str(path)
