"""Test driver: execute a :class:`TestSequence` deterministically.

The driver is Brinch Hansen's step 3 made executable (*"the tester
constructs a set of test processes that will execute the monitor calls"*,
scheduled *"by means of a clock used for testing only"*): one VM thread
per logical sequence thread, each awaiting the abstract clock before each
of its calls; the kernel's ``auto_tick`` advances the clock exactly when
every thread at the current time has run to completion or blocked.

The result bundles the raw :class:`~repro.vm.kernel.RunResult`, the
completion-time violations, the CoFG arc coverage the sequence achieved,
and the classified findings — everything the paper's method produces for
one test sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Type

from repro.analysis.builder import build_all_cofgs
from repro.coverage.tracker import CoverageTracker
from repro.detect.completion import Violation
from repro.detect.report import DetectionReport, analyze_run
from repro.vm.api import MonitorComponent
from repro.vm.kernel import Kernel, RunResult
from repro.vm.monitor import SelectionPolicy
from repro.vm.scheduler import Scheduler
from repro.vm.syscalls import AwaitTime

from .sequence import TestSequence

__all__ = ["SequenceOutcome", "SequenceRunner", "run_sequence"]


@dataclass
class SequenceOutcome:
    """Everything observed while running one test sequence."""

    sequence: TestSequence
    result: RunResult
    violations: List[Violation]
    coverage: CoverageTracker
    report: DetectionReport
    call_results: Dict[str, List[Any]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when no completion-time violation and no crash occurred."""
        return not self.violations and not self.result.crashed

    def describe(self) -> str:
        lines = [
            f"sequence {self.sequence.name!r}: "
            f"{'PASS' if self.passed else 'FAIL'} "
            f"(status={self.result.status.value}, steps={self.result.steps})"
        ]
        for violation in self.violations:
            lines.append(f"  violation: {violation}")
        lines.append(
            f"  coverage: {self.coverage.covered_arcs}/"
            f"{self.coverage.total_arcs} arcs"
        )
        return "\n".join(lines)


class SequenceRunner:
    """Runs test sequences against fresh component instances.

    Args:
        component_factory: zero-arg callable building the component under
            test (a class works).
        scheduler / lock_policy / notify_policy / seed: kernel knobs, so
            the same sequence can be replayed under different JVM models.
        max_steps: kernel step budget (bounds FF-T4 endless loops).
    """

    def __init__(
        self,
        component_factory: Callable[[], MonitorComponent],
        scheduler: Optional[Scheduler] = None,
        lock_policy: SelectionPolicy = SelectionPolicy.FIFO,
        notify_policy: SelectionPolicy = SelectionPolicy.FIFO,
        seed: Optional[int] = None,
        max_steps: int = 50_000,
        spurious_wakeup_rate: float = 0.0,
    ) -> None:
        self.component_factory = component_factory
        self.scheduler = scheduler
        self.lock_policy = lock_policy
        self.notify_policy = notify_policy
        self.seed = seed
        self.max_steps = max_steps
        self.spurious_wakeup_rate = spurious_wakeup_rate

    def _build_kernel(self) -> Kernel:
        return Kernel(
            scheduler=self.scheduler,
            lock_policy=self.lock_policy,
            notify_policy=self.notify_policy,
            seed=self.seed,
            max_steps=self.max_steps,
            auto_tick=True,
            spurious_wakeup_rate=self.spurious_wakeup_rate,
        )

    def run(self, sequence: TestSequence) -> SequenceOutcome:
        """Execute ``sequence`` on a fresh component and analyse the run."""
        kernel = self._build_kernel()
        component = kernel.register(self.component_factory())
        call_results: Dict[str, List[Any]] = {t: [] for t in sequence.threads()}

        def make_body(thread_name: str):
            calls = sequence.calls_for(thread_name)

            def body():
                for call in calls:
                    yield AwaitTime(call.at)
                    method = getattr(component, call.method)
                    value = yield from method(*call.args, **call.kwargs_dict())
                    call_results[thread_name].append(value)

            return body

        for thread_name in sequence.threads():
            kernel.spawn(make_body(thread_name), name=thread_name)

        result = kernel.run()
        expectations = sequence.expectations(component.vm_name)
        report = analyze_run(result, expectations)
        coverage = CoverageTracker(build_all_cofgs(type(component)))
        coverage.feed(result.trace)
        return SequenceOutcome(
            sequence=sequence,
            result=result,
            violations=report.completion_violations,
            coverage=coverage,
            report=report,
            call_results=call_results,
        )


def run_sequence(
    component_factory: Callable[[], MonitorComponent],
    sequence: TestSequence,
    **kwargs: Any,
) -> SequenceOutcome:
    """One-shot convenience wrapper around :class:`SequenceRunner`."""
    return SequenceRunner(component_factory, **kwargs).run(sequence)
