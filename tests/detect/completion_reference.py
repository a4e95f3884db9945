"""The trace-scanning completion-time checker, kept as a reference.

Each expectation is matched against :meth:`repro.vm.trace.Trace.call_records`
and each completion clock is found by scanning the trace from the start
for CLOCK_TICK events, so this form shares no state with
:class:`repro.detect.OnlineCompletionChecker`, which builds call records
and the tick history incrementally.  The equivalence tests assert both
return the same :class:`Violation` list on every workload.
"""

from typing import List, Optional, Sequence

from repro.classify.symptoms import Symptom
from repro.detect.completion import UNSET, Expectation, Violation
from repro.vm.events import EventKind
from repro.vm.trace import CallRecord, Trace


def _clock_at(trace: Trace, kernel_time: int) -> int:
    clock = 0
    for event in trace:
        if event.time > kernel_time:
            break
        if event.kind is EventKind.CLOCK_TICK:
            clock = event.detail.get("now", clock + 1)
    return clock


def _match(trace: Trace, exp: Expectation) -> Optional[CallRecord]:
    matching = [
        r
        for r in trace.call_records()
        if r.component == exp.component
        and r.method == exp.method
        and (exp.thread is None or r.thread == exp.thread)
    ]
    if exp.occurrence < len(matching):
        return matching[exp.occurrence]
    return None


def completion_reference(
    trace: Trace, expectations: Sequence[Expectation]
) -> List[Violation]:
    """Every violation of ``expectations`` in ``trace``, in expectation order."""
    violations: List[Violation] = []
    for exp in expectations:
        call = _match(trace, exp)
        if call is None or not call.completed:
            if not exp.never:
                symptom = (
                    Symptom.PERMANENTLY_WAITING
                    if call is not None
                    else Symptom.NEVER_COMPLETES
                )
                detail = (
                    "call never completed" if call is not None else "call never began"
                )
                violations.append(Violation(exp, symptom, None, call, detail))
            continue
        # The call completed.
        clock = _clock_at(trace, call.end_time or 0)
        if exp.never:
            violations.append(
                Violation(
                    exp,
                    Symptom.COMPLETED_EARLY,
                    clock,
                    call,
                    f"expected never to complete, completed at clock {clock}",
                )
            )
            continue
        window = exp.window()
        if window is not None:
            lo, hi = window
            if clock < lo:
                violations.append(
                    Violation(
                        exp,
                        Symptom.COMPLETED_EARLY,
                        clock,
                        call,
                        f"completed at clock {clock}, expected >= {lo}",
                    )
                )
            elif clock > hi:
                violations.append(
                    Violation(
                        exp,
                        Symptom.COMPLETED_LATE,
                        clock,
                        call,
                        f"completed at clock {clock}, expected <= {hi}",
                    )
                )
        if exp.returns is not UNSET and call.result != exp.returns:
            violations.append(
                Violation(
                    exp,
                    Symptom.DATA_RACE,
                    clock,
                    call,
                    f"returned {call.result!r}, expected {exp.returns!r}",
                )
            )
    return violations
