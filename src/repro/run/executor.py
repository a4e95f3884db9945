"""RunExecutor: one assembly of pipeline + sink + routes, reused per run.

Rebuilding the observation stack for every single run — a fresh
:class:`~repro.detect.online.DetectorPipeline` (seven detector objects
plus a symptom tracker) and a fresh
:class:`~repro.obs.sink.InstrumentationSink` per kernel, each
subscribing its handlers one by one — is pure allocation overhead on the
hot path of a campaign shard of a thousand short runs (benchmarked as
Ext-J).

:class:`RunExecutor` builds each piece **once**, with one kind-routing
table that every kernel adopts, and resets the pieces in place between
runs instead.  It satisfies the engine's ``ProgramFactory``
contract (``executor(scheduler) -> Kernel``), so the explorers in
:mod:`repro.testing.explorer` drive it directly — and because it also
carries :attr:`runner` (the SIGALRM-bounded kernel runner), passing an
executor as the factory gives an explorer the matching runner for free.

The per-run wall-clock timeout lives here too (:func:`timed_runner`,
formerly ``engine/worker.py:_timed_runner``): the alarm is armed inside
the ``try`` and both the itimer *and the previous SIGALRM handler* are
restored in ``finally``, so a timeout in one run can never fire into the
next run of the same shard.
"""

from __future__ import annotations

import _signal
import importlib
import random
import signal
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.detect.online import DetectorPipeline, OnlineDetector
from repro.faults.injector import FaultInjector
from repro.obs.sink import InstrumentationSink
from repro.testing.explorer import (
    ExplorationResult,
    ExplorationRun,
    KernelRunner,
    RunSummary,
    explore_pct,
    explore_random,
    explore_systematic,
)
from repro.vm.events import Event, EventKind
from repro.vm.kernel import Kernel, RunResult, RunStatus

from .config import RunConfig, RunConfigError
from .registry import DETECTORS, UnknownNameError, load_builtins

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.scheduler import Scheduler

__all__ = ["RunExecutor", "RunTimeoutInterrupt", "timed_runner"]


class RunTimeoutInterrupt(BaseException):
    """Raised by the SIGALRM handler to abort a run whose thread body
    stopped yielding.

    BaseException so the kernel's per-thread ``except Exception`` cannot
    swallow it and mislabel the timeout as a thread crash.
    """


#: seconds a timed-out run gets to reach a step boundary before the
#: alarm raises into it
_TIMEOUT_GRACE = 0.05


def timed_runner(timeout: float) -> KernelRunner:
    """A kernel runner that aborts after ``timeout`` wall-clock seconds,
    returning a TIMEOUT result instead of hanging the shard.

    The first alarm only requests an abort, which the run loop honours
    at its next step boundary; raising from the handler instead could
    land in a finalizer or a ``gc.callbacks`` hook, where the exception
    is swallowed.  A grace alarm ``_TIMEOUT_GRACE`` seconds later
    raises :class:`RunTimeoutInterrupt` into a run that has still not
    returned (a thread body that never yields), re-arming itself first
    in case that raise is swallowed too.

    Falls back to plain ``Kernel.run`` where SIGALRM is unavailable
    (non-POSIX, or a non-main thread) — the campaign orchestrator's shard
    deadline still bounds those.  The alarm is armed only after the
    previous handler is saved, and the ``finally`` both cancels the
    itimer and restores that handler, so neither a timeout nor any other
    exception can leak an armed alarm (or a foreign handler) into the
    caller's next run.
    """
    if timeout <= 0 or not hasattr(signal, "SIGALRM"):
        return lambda kernel: kernel.run()

    def run(kernel: Kernel) -> RunResult:
        fired = False

        def _on_alarm(signum: int, frame: Any) -> None:
            nonlocal fired
            signal.setitimer(signal.ITIMER_REAL, _TIMEOUT_GRACE)
            if not fired:
                fired = True
                kernel.request_abort("timeout")
                return
            raise RunTimeoutInterrupt()

        # ``_signal.signal`` is the C function ``signal.signal`` wraps.  The
        # wrapper's enum conversions make arming and restoring cost about
        # 6 µs per run instead of 0.5 µs.
        try:
            previous = _signal.signal(_signal.SIGALRM, _on_alarm)
        except ValueError:  # not the main thread (inline mode under test)
            return kernel.run()
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            result = kernel.run()
            if not fired:
                return result
        except RunTimeoutInterrupt:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            _signal.signal(_signal.SIGALRM, previous)
        live = [t.name for t in kernel.threads.values() if t.is_live()]
        return RunResult(
            status=RunStatus.TIMEOUT,
            trace=kernel.trace,
            steps=kernel.steps,
            stuck_threads=live,
            schedule_log=list(kernel.schedule_log),
        )

    return run


def _scheduler_seed(scheduler: Any) -> int:
    """The seed of the run's scheduler (unwrapping recording wrappers),
    used to key the kernel's environment RNG; 0 for seedless schedulers
    (replay, round-robin) so they too are deterministic."""
    inner = getattr(scheduler, "inner", scheduler)
    seed = getattr(inner, "seed", None)
    return int(seed) if seed is not None else 0


def coverage_cofgs(coverage_spec: str) -> Dict[str, Any]:
    """The CoFGs (method -> CoFG) of a ``module:Class`` coverage
    component, whose arcs a run's coverage is counted over."""
    from repro.analysis import build_all_cofgs

    if ":" in coverage_spec:
        module_name, class_name = coverage_spec.split(":", 1)
    elif "." in coverage_spec:
        module_name, class_name = coverage_spec.rsplit(".", 1)
    else:
        raise RunConfigError(
            f"coverage spec {coverage_spec!r} must be module:Class"
        )
    component = getattr(importlib.import_module(module_name), class_name)
    return build_all_cofgs(component)


def _coverage_extractor(
    coverage_spec: Optional[str],
) -> Optional[Callable[[Any], List[Tuple[str, str, str, int]]]]:
    """Build a trace -> per-arc hit count extractor from a component spec
    (CoFGs are built once per executor, not once per run)."""
    if not coverage_spec:
        return None
    from repro.coverage.tracker import CoverageTracker

    cofgs = coverage_cofgs(coverage_spec)

    def extract(trace: Any) -> List[Tuple[str, str, str, int]]:
        tracker = CoverageTracker(cofgs)
        tracker.feed(trace)
        hits: List[Tuple[str, str, str, int]] = []
        for method, coverage in tracker.methods.items():
            for (src, dst), count in coverage.hits.items():
                if count:
                    hits.append((method, src, dst, count))
        return hits

    return extract


class RunExecutor:
    """Build and drive runs described by one :class:`RunConfig`.

    The executor *is* a ``ProgramFactory``: calling it with a scheduler
    returns a ready kernel routed to the (reused) detector pipeline and
    bound to the (reused) instrumentation sink, per the config.  Runs
    within one executor are strictly sequential — the pipeline and sink
    are reset at kernel-build time, and :meth:`summarize` reads the
    assembly of the most recently finished run (the same one-slot
    contract the old per-run wrapper factories had).

    Everything but the kernel is built once, here: the pipeline, the
    sink, the fault injector, and the one kind-routing table (the
    pipeline's routes) that every kernel adopts without copying.
    Building the next kernel releases the previous one
    (:meth:`~repro.vm.kernel.Kernel.release`), so a finished run is freed
    by reference counting; :meth:`release` frees the last one.
    """

    def __init__(self, config: RunConfig) -> None:
        config.validate()
        self.config = config
        self._base_factory: Callable[["Scheduler"], Kernel] = config.build_factory()
        self._pipeline: Optional[DetectorPipeline] = (
            DetectorPipeline(self._build_detectors()) if config.detect else None
        )
        self._sink: Optional[InstrumentationSink] = (
            InstrumentationSink() if config.metrics else None
        )
        self._injector: Optional[FaultInjector] = (
            FaultInjector(config.faults) if config.faults is not None else None
        )
        #: kind -> handlers of the pipeline; the sink (which has no
        #: tracer here) reads native counters and routes no events
        self._routes: Dict[EventKind, Tuple[Callable[[Event], None], ...]] = (
            self._pipeline.routes if self._pipeline is not None else {}
        )
        #: the most recent run's kernel, released when the next is built
        self._kernel: Optional[Kernel] = None
        self._extract = _coverage_extractor(config.coverage)
        self._timed: KernelRunner = timed_runner(config.timeout)
        #: the runner matched to this config (timeout + run_wall_seconds
        #: histogram when metrics are on); explorers pick it up
        #: automatically when the executor is passed as the factory
        self.runner: KernelRunner = self._make_runner()

    # -- assembly ----------------------------------------------------------

    @property
    def pipeline(self) -> Optional[DetectorPipeline]:
        """The reused detector pipeline (state of the most recent run)."""
        return self._pipeline

    @property
    def sink(self) -> Optional[InstrumentationSink]:
        """The reused instrumentation sink (state of the most recent run)."""
        return self._sink

    def _build_detectors(self) -> List[OnlineDetector]:
        load_builtins()
        detectors: List[OnlineDetector] = []
        for name in self.config.detect:
            try:
                factory = DETECTORS.get(name)
            except UnknownNameError as exc:
                raise RunConfigError(str(exc)) from None
            detectors.append(factory())
        return detectors

    def __call__(self, scheduler: "Scheduler") -> Kernel:
        """``ProgramFactory`` contract: a fresh kernel wired to the reused
        observation stack."""
        previous = self._kernel
        if previous is not None:
            self._kernel = None
            previous.release()
        kernel = self._base_factory(scheduler)
        config = self.config
        if config.spurious_rate > 0.0:
            # Reseed the kernel's environment RNG from the run's scheduler
            # seed so the spurious draws are a pure function of the seed
            # (fresh runs, journal --resume, and replay all agree).
            kernel.spurious_wakeup_rate = config.spurious_rate
            kernel.rng = random.Random(_scheduler_seed(scheduler))
        if self._injector is not None:
            kernel.fault_injector = self._injector.reset()
        if self._pipeline is not None:
            if kernel.trace_mode != config.trace_mode:
                kernel.trace_mode = config.trace_mode
            self._pipeline.reset().bind(kernel)
        if self._sink is not None:
            self._sink.reset().bind(kernel)
        if self._routes:
            kernel.install_routes(self._routes)
        self._kernel = kernel
        return kernel

    def release(self) -> None:
        """Free the most recent run: release its kernel and clear the
        pipeline and sink, which still refer to it and its events.  Call
        it once the last run is summarized; the executor may build more
        runs afterwards."""
        kernel = self._kernel
        if kernel is not None:
            self._kernel = None
            kernel.release()
        if self._pipeline is not None:
            self._pipeline.reset()
        if self._sink is not None:
            self._sink.reset()

    def _make_runner(self) -> KernelRunner:
        if self._sink is None:
            return self._timed
        timed = self._timed
        observe_run = self._sink.observe_run

        def run(kernel: Kernel) -> RunResult:
            started = time.perf_counter()
            result = timed(kernel)
            observe_run(time.perf_counter() - started, result.status.value)
            return result

        return run

    # -- execution ---------------------------------------------------------

    def execute(self, scheduler: Optional["Scheduler"] = None) -> RunResult:
        """Assemble and run one kernel (scheduler defaults to the one the
        config describes — seed, replay prefix, and all)."""
        if scheduler is None:
            scheduler = self.config.make_scheduler()
        return self.runner(self(scheduler))

    def summarize(self, run: ExplorationRun) -> RunSummary:
        """The run's compact projection, with detection / metrics /
        coverage attached from this executor's (reused) assembly."""
        arc_hits = (
            self._extract(run.result.trace) if self._extract is not None else ()
        )
        detection = (
            self._pipeline.summary(run.result).to_dict()
            if self._pipeline is not None
            else None
        )
        metrics = self._sink.snapshot() if self._sink is not None else None
        return run.summary(arc_hits=arc_hits, detection=detection, metrics=metrics)

    def explore(
        self,
        mode: Optional[str] = None,
        *,
        seeds: Optional[Sequence[int]] = None,
        roots: Optional[Sequence[Sequence[int]]] = None,
        max_runs: int = 500,
        stop_on_failure: bool = False,
        on_run: Optional[Callable[[ExplorationRun], None]] = None,
        keep_runs: bool = True,
    ) -> ExplorationResult:
        """Drive the matching explorer over this executor.

        ``mode`` defaults to the config's scheduler; ``"systematic"``
        enumerates (bounded by ``max_runs`` under ``roots``), while
        ``"random"`` / ``"pct"`` execute one run per entry of ``seeds``.
        """
        config = self.config
        mode = mode or config.scheduler
        if mode == "systematic":
            return explore_systematic(
                self,
                max_runs=max_runs,
                max_depth=config.max_depth,
                branch=config.branch,
                roots=roots,
                stop_on_failure=stop_on_failure,
                on_run=on_run,
                keep_runs=keep_runs,
                runner=self.runner,
            )
        if seeds is None:
            raise RunConfigError(f"explore mode {mode!r} needs seeds")
        if mode == "random":
            return explore_random(
                self,
                seeds=seeds,
                stop_on_failure=stop_on_failure,
                on_run=on_run,
                keep_runs=keep_runs,
                runner=self.runner,
            )
        if mode == "pct":
            return explore_pct(
                self,
                seeds=seeds,
                depth=config.pct_depth,
                expected_steps=config.pct_expected_steps,
                stop_on_failure=stop_on_failure,
                on_run=on_run,
                keep_runs=keep_runs,
                runner=self.runner,
            )
        raise RunConfigError(
            f"cannot explore with scheduler {mode!r} "
            f"(use 'systematic', 'random', or 'pct')"
        )
