"""Detectors skip work that cannot change what they report.

* The wait-for detector searches for a cycle only when one can exist:
  with no semaphore or rw request outstanding, only when some blocked
  thread's monitor is owned by another blocked thread.  The property
  below checks, after every event of arbitrary monitor, semaphore and
  rw streams, that the gated detector reports what a search after every
  edge-adding event reports.
* A completion checker with no expectations subscribes to no kinds, so
  a pipeline routes it nothing; with expectations it still receives its
  three kinds.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.components import ProducerConsumer
from repro.detect import OnlineCompletionChecker, check_completion_times
from repro.detect.online import DetectorPipeline, replay
from repro.detect.waitgraph import _CYCLE_KINDS, OnlineWaitGraphDetector, _cycle_of
from repro.engine.workloads import WORKLOADS
from repro.testing import TestSequence, run_sequence
from repro.vm import RandomScheduler
from repro.vm.events import Event, EventKind

THREADS = ("a", "b", "c")

#: kind -> the primitive names it can name and the detail it can carry
_MONITOR = st.sampled_from(("m", "n"))
_SEM = st.just("s")
_RW = st.sampled_from(("r", "q"))
_COUNT = st.integers(1, 2)
_MODE = st.sampled_from(("read", "write"))

MONITOR_SPECS = {
    EventKind.MONITOR_REQUEST: (_MONITOR, st.just({})),
    EventKind.MONITOR_ACQUIRE: (_MONITOR, st.just({}) | st.builds(dict, count=_COUNT)),
    EventKind.MONITOR_RELEASE: (_MONITOR, st.just({})),
    EventKind.MONITOR_WAIT: (_MONITOR, st.just({})),
    EventKind.MONITOR_NOTIFIED: (_MONITOR, st.just({})),
    EventKind.INTERRUPT: (_MONITOR, st.just({})),
    EventKind.THREAD_END: (st.none(), st.just({})),
}
PRIMITIVE_SPECS = {
    EventKind.SEM_REQUEST: (_SEM, st.builds(dict, n=_COUNT)),
    EventKind.SEM_ACQUIRE: (_SEM, st.builds(dict, n=_COUNT, available=st.integers(0, 2))),
    EventKind.SEM_RELEASE: (_SEM, st.builds(dict, n=_COUNT, available=st.integers(0, 2))),
    EventKind.WAIT_TIMEOUT: (_SEM, st.just({"primitive": "semaphore"})),
    EventKind.RW_REQUEST: (_RW, st.builds(dict, mode=_MODE)),
    EventKind.RW_ACQUIRE: (_RW, st.builds(dict, mode=_MODE)),
    EventKind.RW_DOWNGRADE: (_RW, st.just({})),
    EventKind.RW_RELEASE: (_RW, st.builds(dict, mode=_MODE, reentrant=st.booleans())),
}


#: requests and grants drawn three times as often as the other kinds,
#: so that streams close cycles often
_EDGE_KINDS = {
    EventKind.MONITOR_REQUEST,
    EventKind.MONITOR_ACQUIRE,
    EventKind.SEM_REQUEST,
    EventKind.SEM_ACQUIRE,
    EventKind.RW_REQUEST,
    EventKind.RW_ACQUIRE,
}


def _events(specs):
    def one(kind):
        target, detail = specs[kind]
        return st.tuples(st.just(kind), st.sampled_from(THREADS), target, detail)

    kinds = sorted(specs, key=lambda k: k.value)
    kinds += [k for k in kinds if k in _EDGE_KINDS] * 2
    return st.lists(st.sampled_from(kinds).flatmap(one), max_size=50)


# monitor-only streams reach the gate's monitor test; mixed ones its
# fallback to the full search
streams = _events(MONITOR_SPECS) | _events({**MONITOR_SPECS, **PRIMITIVE_SPECS})


ACQ, REQ = EventKind.MONITOR_ACQUIRE, EventKind.MONITOR_REQUEST
SEM_ACQ, SEM_REQ = EventKind.SEM_ACQUIRE, EventKind.SEM_REQUEST


@settings(max_examples=400, deadline=None)
@given(specs=streams)
# a monitor cycle, closed by the last request
@example(
    specs=[(ACQ, "a", "m", {}), (ACQ, "b", "n", {}), (REQ, "a", "n", {}), (REQ, "b", "m", {})]
)
# a semaphore waiting on a monitor owner that waits on the semaphore
@example(
    specs=[
        (SEM_ACQ, "a", "s", {"n": 1, "available": 0}),
        (ACQ, "b", "m", {}),
        (SEM_REQ, "b", "s", {"n": 1}),
        (REQ, "a", "m", {}),
    ]
)
def test_gated_waitgraph_matches_search_after_every_event(specs):
    detector = OnlineWaitGraphDetector()
    searched = []  # the first cycle a search after every edge event finds
    for seq, (kind, thread, target, detail) in enumerate(specs):
        detector.on_event(
            Event(seq=seq, time=seq, thread=thread, kind=kind, monitor=target, detail=detail)
        )
        if not searched and kind in _CYCLE_KINDS:
            searched = _cycle_of(detector.state)
        assert detector.live_cycle == searched
        expected_reason = f"wait-for cycle: {' -> '.join(searched)}" if searched else None
        assert detector.abort_reason() == expected_reason
        assert detector.finish() == _cycle_of(detector.state)


class CountingChecker(OnlineCompletionChecker):
    """A completion checker that counts the events it is handed."""

    def __init__(self, expectations=()):
        super().__init__(expectations)
        self.seen = Counter()

    def on_event(self, event):
        self.seen[event.kind] += 1
        super().on_event(event)


def _routed_to(pipeline, handler):
    return {kind for kind, handlers in pipeline.routes.items() if handler in handlers}


def test_checker_without_expectations_is_routed_nothing():
    checker = CountingChecker()
    pipeline = DetectorPipeline([checker])
    assert _routed_to(pipeline, checker.on_event) == set()
    kernel = WORKLOADS["pc-ok"](RandomScheduler(seed=0))
    pipeline.attach(kernel)
    result = kernel.run()
    assert not checker.seen
    assert pipeline.findings()["completion"] == []
    assert pipeline.report(result).completion_violations == []
    # batch callers still feed every event; there is still nothing to report
    assert replay(result.trace, OnlineCompletionChecker()).finish() == []
    # the default set builds its checker the same way
    default = DetectorPipeline()
    (completion,) = [d for d in default.detectors if d.name == "completion"]
    assert _routed_to(default, completion.on_event) == set()


def test_checker_with_expectations_gets_its_kinds():
    sequence = (
        TestSequence("timed")
        .add(1, "c", "receive", expect_at=3)
        .add(2, "p", "send", "x", expect_at=2)
        .add(3, "p", "send", "y", expect_at=3)
    )
    expectations = tuple(sequence.expectations("ProducerConsumer"))
    checker = CountingChecker(expectations)
    pipeline = DetectorPipeline([checker])
    calls = {EventKind.CALL_BEGIN, EventKind.CALL_END, EventKind.CLOCK_TICK}
    assert _routed_to(pipeline, checker.on_event) == calls
    outcome = run_sequence(ProducerConsumer, sequence)
    for event in outcome.result.trace:
        pipeline.on_event(event)
    assert set(checker.seen) == calls
    trace = outcome.result.trace
    assert pipeline.findings()["completion"] == check_completion_times(trace, expectations)
