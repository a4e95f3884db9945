"""Batch == online equivalence, for every detector and every workload.

The refactor's contract: each batch ``detect_*`` entry point and the
streaming :class:`DetectorPipeline` are the *same* analysis, one fed a
stored trace, the other fed live events off the kernel bus.  These tests
drive every faulty workload under systematic and random scheduling with a
pipeline attached, then assert the live findings equal the batch findings
over the stored trace — report objects included, down to classification.
"""

import pytest

from repro.classify.symptoms import SymptomTracker, symptoms_from_run
from repro.components import (
    CyclicBarrier,
    NativeReadWriteLock,
    ProducerConsumer,
    ReadersWriters,
)
from repro.components.faulty import (
    EarlyReleaseBuffer,
    IfGuardProducerConsumer,
    InterruptSwallowingProducerConsumer,
    LeakyBarrier,
    LostPermitSemaphore,
    SpuriousUnguardedProducerConsumer,
    TimeoutReturnProducerConsumer,
    UnsyncCounter,
    WriterStarvingRwLock,
)
from repro.detect import (
    DetectionSummary,
    Expectation,
    LocksetDetector,
    OnlineContentionProfiler,
    OnlineReentryDetector,
    analyze_run,
    analyze_starvation,
    check_completion_times,
    detect_lock_cycles,
    detect_races,
    detect_races_hb,
    detect_reentry,
    find_deadlock_cycle,
    profile_contention,
)
from repro.detect.online import DetectorPipeline
from repro.engine.workloads import (
    WORKLOADS,
    barrier_template,
    pc_template,
    rw_template,
    sem_template,
)
from repro.faults import FaultInjector
from repro.faults.templates import (
    EXPIRE_FIRST_WAIT,
    INTERRUPT_CONSUMER,
    SPURIOUS_FIRST_WAIT,
)
from repro.run.registry import DETECTORS, load_builtins
from repro.testing import (
    TestSequence,
    explore_random,
    explore_systematic,
    run_sequence,
)
from repro.vm import (
    Acquire,
    Kernel,
    Notify,
    NotifyAll,
    RandomScheduler,
    Release,
    RwAcquire,
    RwRelease,
    SemAcquire,
    SemRelease,
    SelectionPolicy,
    Wait,
    Write,
    Yield,
)
from tests.detect.completion_reference import completion_reference


def unsync_counter(scheduler) -> Kernel:
    """Two unsynchronized incrementers — lockset/HB race fodder."""
    kernel = Kernel(scheduler=scheduler)
    counter = kernel.register(UnsyncCounter())

    def worker():
        yield from counter.increment()

    kernel.spawn(worker, name="w1")
    kernel.spawn(worker, name="w2")
    return kernel


FACTORIES = {
    name: WORKLOADS[name]
    for name in ("pc-ok", "pc-bug", "pc-no-notify", "deadlock-pair", "racing-locks")
}
FACTORIES["unsync-counter"] = unsync_counter


def faulted(factory, plan):
    """``factory`` with a fresh injector for ``plan`` on every kernel."""

    def build(scheduler) -> Kernel:
        kernel = factory(scheduler)
        kernel.fault_injector = FaultInjector(plan)
        return kernel

    return build


def early_release(scheduler) -> Kernel:
    """Two putters on :class:`EarlyReleaseBuffer` (EF-T4)."""
    kernel = Kernel(scheduler=scheduler, max_steps=3000)
    buf = kernel.register(EarlyReleaseBuffer())

    def putter():
        for _ in range(3):
            yield from buf.put()

    kernel.spawn(putter, name="a")
    kernel.spawn(putter, name="b")
    return kernel


def release_then_nest(scheduler) -> Kernel:
    """Every primitive released before the next is requested, against
    threads nesting them in the opposite order: a detector that missed a
    release, a downgrade or a wait would see lock-order cycles, and
    guarded accesses, that are not there."""
    kernel = Kernel(scheduler=scheduler, max_steps=3000)
    for name in ("a", "b", "c", "m"):
        kernel.new_monitor(name)
    kernel.new_semaphore("s", 1)
    kernel.new_rwlock("rw")

    def sequencer():
        yield Acquire("a")
        yield Release("a")
        yield SemAcquire("s")
        yield SemRelease("s")
        yield RwAcquire("rw", "write")
        yield RwAcquire("rw", "read")  # downgrade
        yield RwRelease("rw")
        yield RwRelease("rw")
        yield Acquire("b")
        yield Release("b")

    def reverse():
        yield Acquire("b")
        yield SemAcquire("s")
        yield SemRelease("s")
        yield RwAcquire("rw", "read")
        yield RwRelease("rw")
        yield Acquire("a")
        yield Release("a")
        yield Release("b")

    def holder():
        # holds rw (write, then only the downgraded read) around "c"
        yield RwAcquire("rw", "write")
        yield RwAcquire("rw", "read")
        yield RwRelease("rw")
        yield Acquire("c")
        yield Release("c")
        yield RwRelease("rw")

    def contender():
        yield Acquire("c")
        yield RwAcquire("rw", "read")
        yield RwRelease("rw")
        yield Release("c")

    def waiter():
        yield Acquire("m")
        yield Wait("m", timeout=4)
        yield Release("m")
        yield Write("Shared", "y")
        yield Acquire("c")
        yield Release("c")

    def notifier():
        yield Acquire("c")
        yield Acquire("m")
        yield NotifyAll("m")
        yield Release("m")
        yield Release("c")

    for body, name in (
        (sequencer, "seq"),
        (reverse, "rev"),
        (holder, "hold"),
        (contender, "cont"),
        (waiter, "w1"),
        (waiter, "w2"),
        (notifier, "n"),
    ):
        kernel.spawn(body, name=name)
    return kernel


def lifo_contention(scheduler) -> Kernel:
    """Monitor, semaphore and rw-lock queues granted LIFO, and waiters
    woken LIFO: overtakes (the starvation detector's bypasses) on every
    primitive, some waiters left stuck."""
    kernel = Kernel(
        scheduler=scheduler,
        lock_policy=SelectionPolicy.LIFO,
        notify_policy=SelectionPolicy.LIFO,
        max_steps=3000,
    )
    kernel.new_monitor("m")
    kernel.new_semaphore("s", 1)
    kernel.new_rwlock("rw")

    def requester():
        for _ in range(3):
            yield Acquire("m")
            yield Yield()
            yield Release("m")
            yield SemAcquire("s")
            yield Yield()
            yield SemRelease("s")
            yield RwAcquire("rw", "write")
            yield Yield()
            yield RwRelease("rw")

    def waiter():
        yield Acquire("m")
        yield Wait("m")
        yield Release("m")

    def notifier():
        for _ in range(2):
            yield Yield()
            yield Acquire("m")
            yield Notify("m")
            yield Release("m")

    for i in range(3):
        kernel.spawn(requester, name=f"r{i}")
    for i in range(3):
        kernel.spawn(waiter, name=f"w{i}")
    kernel.spawn(notifier, name="n")
    return kernel


# The pipeline routes each event by kind while the batch entry points
# replay every event, so these inputs check that every detector's
# ``kinds`` covers the first-class primitives, the fault paths, rw-lock
# downgrades, premature releases and LIFO overtakes.
FACTORIES.update(
    {
        "sem+LostPermitSemaphore": sem_template(LostPermitSemaphore),
        "barrier-meet+CyclicBarrier": barrier_template(CyclicBarrier),
        "barrier-meet+LeakyBarrier": barrier_template(LeakyBarrier),
        "mixed-deadlock": WORKLOADS["mixed-deadlock"],
        "pc+InterruptSwallowing/interrupt-consumer": faulted(
            pc_template(InterruptSwallowingProducerConsumer), INTERRUPT_CONSUMER
        ),
        "pc+TimeoutReturn/expire-first-wait": faulted(
            pc_template(TimeoutReturnProducerConsumer), EXPIRE_FIRST_WAIT
        ),
        "pc+SpuriousUnguarded/spurious-first-wait": faulted(
            pc_template(SpuriousUnguardedProducerConsumer), SPURIOUS_FIRST_WAIT
        ),
        "pc+IfGuard": pc_template(IfGuardProducerConsumer),
        "rw+NativeReadWriteLock": rw_template(NativeReadWriteLock),
        "rw+WriterStarvingRwLock": rw_template(WriterStarvingRwLock),
        "rw+ReadersWriters": rw_template(ReadersWriters),
        "early-release": early_release,
        "release-then-nest": release_then_nest,
        "lifo-contention": lifo_contention,
    }
)

#: Completion-time expectations per workload: a mix of satisfiable,
#: violated, and never-beginning targets, so the completion checker's
#: branches all execute during the equivalence sweep.
EXPECTATIONS = {
    "pc-ok": (
        Expectation(component="ProducerConsumer", method="receive", occurrence=0),
        Expectation(component="ProducerConsumer", method="send", never=True),
        Expectation(component="ProducerConsumer", method="receive", occurrence=9),
    ),
    "pc-bug": (
        Expectation(
            component="SingleNotifyProducerConsumer", method="receive", occurrence=0
        ),
        Expectation(
            component="SingleNotifyProducerConsumer", method="send", at=0
        ),
    ),
    "pc-no-notify": (
        Expectation(
            component="NoNotifyProducerConsumer", method="receive", never=True
        ),
    ),
}
GENERIC = (Expectation(component="Nowhere", method="nothing"),)


def assert_equivalent(pipeline, result, expectations):
    trace = result.trace
    found = pipeline.findings()
    assert found["lockset"] == detect_races(trace)
    assert found["hb"] == detect_races_hb(trace)
    assert found["lockgraph"] == detect_lock_cycles(trace)
    assert found["waitgraph"] == find_deadlock_cycle(trace)
    assert found["starvation"] == analyze_starvation(trace)
    assert found["completion"] == check_completion_times(trace, expectations)
    assert pipeline.symptoms.observations(result) == symptoms_from_run(result)
    # Whole-report equality: findings, symptoms, and classification.
    assert pipeline.report(result) == analyze_run(result, expectations)
    # The streaming completion checker against the trace-scanning reference.
    assert check_completion_times(trace, expectations) == completion_reference(
        trace, expectations
    )


def streaming(factory, pipeline):
    """``factory`` with ``pipeline`` reset and attached to every kernel it
    builds, the way :class:`repro.run.RunExecutor` reuses one pipeline."""

    def build(scheduler):
        kernel = factory(scheduler)
        pipeline.reset().attach(kernel)
        return kernel

    return build


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_systematic_equivalence(name):
    expectations = EXPECTATIONS.get(name, GENERIC)
    pipeline = DetectorPipeline(early_stop=False, expectations=expectations)
    checked = []

    def on_run(run):
        assert_equivalent(pipeline, run.result, expectations)
        checked.append(run)

    explore_systematic(
        streaming(FACTORIES[name], pipeline),
        max_runs=15,
        on_run=on_run,
        keep_runs=False,
    )
    assert checked


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_random_equivalence(name):
    expectations = EXPECTATIONS.get(name, GENERIC)
    pipeline = DetectorPipeline(early_stop=False, expectations=expectations)
    checked = []

    def on_run(run):
        assert_equivalent(pipeline, run.result, expectations)
        checked.append(run)

    explore_random(
        streaming(FACTORIES[name], pipeline),
        seeds=range(8),
        on_run=on_run,
        keep_runs=False,
    )
    assert len(checked) == 8


@pytest.mark.parametrize(
    "name",
    ["pc-bug", "pc-no-notify", "deadlock-pair", "racing-locks", "unsync-counter"]
    + [
        "sem+LostPermitSemaphore",
        "barrier-meet+LeakyBarrier",
        "mixed-deadlock",
        "pc+InterruptSwallowing/interrupt-consumer",
        "pc+TimeoutReturn/expire-first-wait",
        "pc+SpuriousUnguarded/spurious-first-wait",
    ],
)
def test_trace_mode_none_matches_full_trace_analysis(name):
    """The acceptance bar: a pipeline that never stores a trace reports
    the same findings as batch analysis of the full trace, seed by seed."""
    factory = FACTORIES[name]
    for seed in range(6):
        full_result = factory(RandomScheduler(seed=seed)).run()
        full_summary = DetectionSummary.from_report(analyze_run(full_result))

        kernel = factory(RandomScheduler(seed=seed))
        kernel.trace_mode = "none"
        pipeline = DetectorPipeline(early_stop=False).attach(kernel)
        none_result = kernel.run()
        assert len(none_result.trace) == 0
        assert pipeline.summary(none_result) == full_summary


def assert_opt_in_equivalent(name, detector, batch):
    """A detector outside the default set, routed by kind, against
    ``batch`` replaying the whole stored trace."""
    pipeline = DetectorPipeline([detector], early_stop=False)
    factory = streaming(FACTORIES[name], pipeline)
    checked = []

    def on_run(run):
        assert pipeline.findings()[detector.name] == batch(run.result.trace)
        checked.append(run)

    explore_systematic(factory, max_runs=15, on_run=on_run, keep_runs=False)
    explore_random(factory, seeds=range(8), on_run=on_run, keep_runs=False)
    assert checked


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_reentry_equivalence(name):
    assert_opt_in_equivalent(name, OnlineReentryDetector(), detect_reentry)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_contention_equivalence(name):
    assert_opt_in_equivalent(name, OnlineContentionProfiler(), profile_contention)


def test_reentry_equivalence_sees_findings():
    """The reentry sweep above is not vacuous: the if-guard exemplar
    produces findings under it."""
    found = []
    for seed in range(40):
        result = FACTORIES["pc+IfGuard"](RandomScheduler(seed=seed)).run()
        found += detect_reentry(result.trace)
    assert found


def _prefix_runs():
    runs = []
    for name, factory in sorted(FACTORIES.items()):
        for seed in range(4):
            result = factory(RandomScheduler(seed=seed)).run()
            runs.append((name, result, EXPECTATIONS.get(name, GENERIC)))
    # a ConAn test sequence: clock ticks and timed expectations
    sequence = (
        TestSequence("timed")
        .add(1, "c", "receive", expect_at=3)
        .add(2, "p", "send", "x", expect_at=2)
        .add(3, "p", "send", "y", expect_at=3)
    )
    outcome = run_sequence(ProducerConsumer, sequence)
    expectations = tuple(sequence.expectations("ProducerConsumer"))
    runs.append(("conan", outcome.result, expectations))
    return runs


def _observe(detector, result):
    if isinstance(detector, SymptomTracker):
        return detector.observations(result)
    return detector.finish(), detector.abort_reason()


load_builtins()


@pytest.mark.parametrize("name", sorted(DETECTORS.names()) + ["symptoms"])
def test_kinds_complete_at_every_prefix(name):
    """A detector fed only the events of its ``kinds`` reports what the
    same detector fed every event reports — after every event, not only
    at the end, since the pipeline's abort poll reads it mid-run."""
    checked = 0
    for workload, result, expectations in _prefix_runs():
        if name == "symptoms":
            full, routed = SymptomTracker(), SymptomTracker()
        elif name == "completion":
            full = DETECTORS.get(name)(expectations)
            routed = DETECTORS.get(name)(expectations)
        else:
            full, routed = DETECTORS.get(name)(), DETECTORS.get(name)()
        kinds = routed.kinds
        assert kinds is not None
        for event in result.trace:
            full.on_event(event)
            if event.kind in kinds:
                routed.on_event(event)
            assert _observe(full, result) == _observe(routed, result), (
                workload,
                event.seq,
                event.kind,
            )
            checked += 1
    assert checked


def _batch_lockset(trace):
    """Eraser over :meth:`Trace.accesses` — the batch lockset replay that
    shares no code with the online detector's fold."""
    detector = LocksetDetector()
    for access in trace.accesses():
        detector.observe(access)
    return detector.reports


@pytest.mark.parametrize("mode", ["systematic", "random"])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_lockset_matches_independent_batch_reference(name, mode):
    """``detect_races`` replays the online class itself, so it cannot
    catch a change in the online fold; this compares the pipeline's
    lockset findings with a fresh :class:`LocksetDetector` fed the trace's
    access records through ``observe``."""
    pipeline = DetectorPipeline(early_stop=False)
    factory = streaming(FACTORIES[name], pipeline)
    checked = []

    def on_run(run):
        found = pipeline.findings()["lockset"]
        assert found == _batch_lockset(run.result.trace)
        checked.append(bool(found))

    if mode == "systematic":
        explore_systematic(factory, max_runs=15, on_run=on_run, keep_runs=False)
    else:
        explore_random(factory, seeds=range(8), on_run=on_run, keep_runs=False)
    assert checked


def test_lockset_reference_sees_races():
    """The differential sweep above is not vacuous: it compares reports."""
    result = FACTORIES["unsync-counter"](RandomScheduler(seed=0)).run()
    assert _batch_lockset(result.trace)
