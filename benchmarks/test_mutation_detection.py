"""Bench Ext-A: the mutation-detection study behind Table 1's "Testing
Notes" column.

For every failure class the paper classifies (EF-T2 excluded: the VM *is*
the assumed-correct JVM), a seeded-defect component is run under its
nominal workload with every detector armed.  The study asserts the
prediction of Table 1: each class is caught, and it is caught by (at
least) the technique family the table names —

* FF-T1 / EF-T1  -> static analysis (+ lockset for FF-T1),
* FF-T2          -> static and dynamic analysis (lock graphs),
* T3/T4/T5 rows  -> completion-time checking.

The printed matrix is the reproduction's analogue of reading Table 1's
last column as an experiment.
"""

from conftest import write_result

from repro.analysis import check_component
from repro.classify import FailureClass, FailureMode
from repro.components import Account, ProducerConsumer
from repro.components.faulty import FAULT_REGISTRY
from repro.detect import analyze_run
from repro.report import render_table
from repro.testing import TestSequence, run_sequence, explore_random
from repro.vm import Kernel, RoundRobinScheduler, RunStatus, SelectionPolicy


def _run_nominal_workload(name, info):
    """Run each faulty component's nominal workload; return a dict of
    detector verdicts."""
    verdicts = {
        "static": False,
        "lockset": False,
        "lock_graph": False,
        "wait_graph": False,
        "completion": False,
        "vm_outcome": False,  # stuck/deadlock/step-limit at quiescence
    }

    findings = check_component(info.component)
    verdicts["static"] = any(
        f.failure_class is info.seeded_class for f in findings
    )

    cls = info.component
    if name in ("UnsyncCounter", "EarlyReleaseBuffer"):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        comp = kernel.register(cls())
        method = "increment" if name == "UnsyncCounter" else "put"

        def body():
            yield from getattr(comp, method)()

        kernel.spawn(body, name="t1")
        kernel.spawn(body, name="t2")
        report = analyze_run(kernel.run())
    elif name == "OverSynchronized":
        kernel = Kernel(scheduler=RoundRobinScheduler())
        comp = kernel.register(cls())

        def body():
            yield from comp.scale([1, 2], 2)

        kernel.spawn(body, name="t1")
        report = analyze_run(kernel.run())
    elif name == "DeadlockPair":
        kernel = Kernel(scheduler=RoundRobinScheduler())
        a = kernel.register(Account(10), name="A")
        b = kernel.register(Account(10), name="B")
        pair = kernel.register(cls())

        def t1():
            yield from pair.transfer(a, b, 1)

        def t2():
            yield from pair.transfer(b, a, 1)

        kernel.spawn(t1, name="t1")
        kernel.spawn(t2, name="t2")
        report = analyze_run(kernel.run())
    elif name == "HoldForever":
        kernel = Kernel(scheduler=RoundRobinScheduler(), max_steps=2000)
        comp = kernel.register(cls())

        def a_worker():
            yield from comp.compute()

        def b_reader():
            yield from comp.read_progress()

        kernel.spawn(a_worker, name="a-worker")
        kernel.spawn(b_reader, name="b-reader")
        report = analyze_run(kernel.run())
    elif name == "SingleNotifyProducerConsumer":
        # schedule exploration exposes the lost-signal starvation
        def factory(scheduler):
            kernel = Kernel(scheduler=scheduler)
            pc = kernel.register(cls())

            def consumer():
                yield from pc.receive()

            def producer(payload):
                yield from pc.send(payload)

            for i in range(3):
                kernel.spawn(consumer, name=f"c{i}")
            kernel.spawn(producer, "ab", name="p1")
            kernel.spawn(producer, "c", name="p2")
            return kernel

        exploration = explore_random(
            factory, seeds=range(100), stop_on_failure=True
        )
        failing = [
            run
            for run in exploration.runs
            if run.result.status is not RunStatus.COMPLETED
        ]
        assert failing, "exploration must expose the lost signal"
        report = analyze_run(failing[0].result)
    elif name == "ReaderPreferenceRW":
        # Writer-starvation liveness: with writer preference (the correct
        # component) the writer is served at clock 6 because arriving
        # readers are held back; the reader-preference defect lets readers
        # overlap indefinitely and the writer is served only when they all
        # happen to drain (clock 9) — a completion-time (lateness) catch.
        seq = (
            TestSequence("rw-starve")
            .add(1, "r1", "start_read", check_completion=False)
            .add(2, "r2", "start_read", check_completion=False)
            .add(3, "w", "start_write", expect_at=6)
            .add(4, "r1", "end_read", check_completion=False)
            .add(5, "r3", "start_read", check_completion=False)
            .add(6, "r2", "end_read", check_completion=False)
            .add(7, "r4", "start_read", check_completion=False)
            .add(8, "r3", "end_read", check_completion=False)
            .add(9, "r4", "end_read", check_completion=False)
        )
        outcome = run_sequence(cls, seq)
        report = outcome.report
        verdicts["completion"] = bool(outcome.violations)
    else:
        # the producer-consumer family: deterministic clocked sequence
        # with completion-time expectations (the ConAn method)
        seq = (
            TestSequence("nominal")
            .add(1, "c1", "receive", expect_at=3, expect_returns="a")
            .add(2, "c2", "receive", expect_at=4, expect_returns="b")
            .add(3, "p1", "send", "a", expect_at=3)
            .add(4, "p2", "send", "b", expect_at=4)
        )
        outcome = run_sequence(cls, seq)
        report = outcome.report
        verdicts["completion"] = bool(outcome.violations)

    verdicts["lockset"] = bool(report.races)
    verdicts["lock_graph"] = bool(report.potential_deadlocks)
    verdicts["wait_graph"] = bool(report.deadlock_cycle)
    verdicts["vm_outcome"] = not report.classification.clean
    if report.completion_violations:
        verdicts["completion"] = True
    verdicts["classes"] = report.classes_detected()
    return verdicts


#: Table-1 prediction -> which verdict column must fire
EXPECTED_DETECTION = {
    "UnsyncCounter": ["static", "lockset"],
    "OverSynchronized": ["static"],
    "DeadlockPair": ["lock_graph", "wait_graph"],
    "ReaderPreferenceRW": ["completion"],
    "NoWaitProducerConsumer": ["completion"],
    "SpuriousWaitProducerConsumer": ["completion"],
    "HoldForever": ["vm_outcome"],
    "EarlyReleaseBuffer": ["lockset"],
    "NoNotifyProducerConsumer": ["completion"],
    "SingleNotifyProducerConsumer": ["vm_outcome"],
    "IfGuardProducerConsumer": ["completion"],
}

#: Table 1's rows are the Figure-1 transitions of the monitor
FIGURE1_TRANSITIONS = ("T1", "T2", "T3", "T4", "T5")


def _paper_class(failure_class):
    return (
        failure_class.transition in FIGURE1_TRANSITIONS
        and failure_class.mode is not FailureMode.ENVIRONMENTAL_FIRING
    )


def run_study():
    rows = []
    for name, info in FAULT_REGISTRY.items():
        if not _paper_class(info.seeded_class):
            # environment-deviation exemplars only misbehave under fault
            # injection (their own study is Ext-L), and the semaphore /
            # rw-lock / barrier exemplars are outside Table 1; all of them
            # are checked by tests/integration/test_fault_oracle.py
            # ::test_dynamic_exemplar_flagged
            continue
        verdicts = _run_nominal_workload(name, info)
        expected_columns = EXPECTED_DETECTION[name]
        caught = all(verdicts[c] for c in expected_columns)
        rows.append((name, info, verdicts, caught))
    return rows


def test_mutation_detection_matrix(benchmark, results_dir):
    rows = benchmark(run_study)

    table_rows = []
    for name, info, verdicts, caught in rows:
        table_rows.append(
            (
                info.seeded_class.code,
                name,
                "+" if verdicts["static"] else "-",
                "+" if verdicts["lockset"] else "-",
                "+" if verdicts["lock_graph"] else "-",
                "+" if verdicts["wait_graph"] else "-",
                "+" if verdicts["completion"] else "-",
                "+" if verdicts["vm_outcome"] else "-",
                "CAUGHT" if caught else "MISSED",
            )
        )
    rendered = render_table(
        (
            "Class",
            "Seeded component",
            "Static",
            "Lockset",
            "LockGraph",
            "WaitGraph",
            "Completion",
            "VM",
            "Verdict",
        ),
        table_rows,
        widths=(6, 28, 6, 7, 9, 9, 10, 4, 7),
        title="Ext-A: detection matrix (Table 1's Testing Notes as an experiment)",
    )
    write_result(results_dir, "extA_mutation_detection.txt", rendered)
    print()
    print(rendered)

    for name, info, verdicts, caught in rows:
        assert caught, f"{name} ({info.seeded_class.code}) was not detected"

    # 9 of 10 Table-1 classes are covered (EF-T2 is unrepresentable;
    # the EV-* extension classes are measured by Ext-L)
    covered = {info.seeded_class for _, info, _, _ in rows}
    paper_classes = {c for c in FailureClass if _paper_class(c)}
    assert covered == paper_classes - {FailureClass.EF_T2}
