"""The epoch happens-before detector against the full-vector-clock one.

:class:`repro.detect.vectorclock.OnlineHbDetector` stores a field's last
write as an epoch ``c@t`` and its reads as one epoch per thread, where
:mod:`tests.detect.hb_reference` stores whole clock copies.  The module
docstring of ``vectorclock`` argues the two report the same races in the
same order for any event stream; these tests check that on every
workload of the equivalence suite, on the Ext-K mutation corpus, and on
arbitrary streams of the HB event kinds.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus import generate_corpus, load_corpus
from repro.detect import detect_races_hb
from repro.detect.vectorclock import OnlineHbDetector
from repro.run.config import RunConfig
from repro.testing import explore_random, explore_systematic
from repro.vm import RandomScheduler
from repro.vm.events import Event, EventKind
from tests.detect.hb_reference import reference_races
from tests.detect.test_online_equivalence import FACTORIES


@pytest.mark.parametrize("mode", ["systematic", "random"])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_epochs_match_reference(name, mode):
    checked = []

    def on_run(run):
        trace = run.result.trace
        assert detect_races_hb(trace) == reference_races(trace)
        checked.append(run)

    if mode == "systematic":
        explore_systematic(FACTORIES[name], max_runs=15, on_run=on_run, keep_runs=False)
    else:
        explore_random(FACTORIES[name], seeds=range(8), on_run=on_run, keep_runs=False)
    assert checked


def test_reference_comparison_sees_races():
    """The sweep above compares non-empty reports, truncated ones too."""
    for name in ("unsync-counter", "early-release", "release-then-nest"):
        trace = FACTORIES[name](RandomScheduler(seed=0)).run().trace
        races = reference_races(trace)
        assert races, name
        assert detect_races_hb(trace, max_reports=1) == races[:1]


@pytest.fixture(scope="module")
def ext_k_corpus():
    records = generate_corpus(["bounded_buffer", "readers_writers"])
    load_corpus(records)
    return records


def test_epochs_match_reference_on_corpus(ext_k_corpus):
    for record in ext_k_corpus:
        factory = RunConfig(
            workload=record.workload, component=record.variant_id
        ).build_factory()
        for seed in range(8):
            trace = factory(RandomScheduler(seed)).run().trace
            assert detect_races_hb(trace) == reference_races(trace), (
                record.variant_id,
                seed,
            )


THREADS = ("a", "b", "c", "")
MONITORS = ("m", "n")


def _event(seq, spec):
    kind, thread, monitor, component, field_name, woken = spec
    detail = {}
    if kind in (EventKind.READ, EventKind.WRITE):
        monitor = None
        if field_name is not None:
            detail["field"] = field_name
    elif kind in (EventKind.NOTIFY, EventKind.NOTIFY_ALL):
        if woken is not None:
            detail["woken"] = woken
    return Event(
        seq=seq,
        time=seq,
        thread=thread,
        kind=kind,
        monitor=monitor,
        component=component,
        detail=detail,
    )


hb_specs = st.tuples(
    st.sampled_from(sorted(OnlineHbDetector.kinds, key=lambda k: k.value)),
    st.sampled_from(THREADS),
    st.sampled_from(MONITORS),
    st.sampled_from(("C", "D", None)),
    st.sampled_from(("x", "y", None)),
    st.none() | st.lists(st.sampled_from(THREADS), max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(specs=st.lists(hb_specs, max_size=60), max_reports=st.integers(0, 8))
# the woken thread is ordered after the notify, not after the
# notifier's later write
@example(
    specs=[
        (EventKind.NOTIFY, "a", "m", None, None, ["b"]),
        (EventKind.WRITE, "a", "m", "C", "x", None),
        (EventKind.MONITOR_NOTIFIED, "b", "m", None, None, None),
        (EventKind.READ, "b", "m", "C", "x", None),
    ],
    max_reports=8,
)
def test_epochs_match_reference_on_any_stream(specs, max_reports):
    """Exactness needs only that every event ticks its own thread after
    its snapshot, which holds for any stream: unmatched notifies and
    releases, repeated wakeups and truncated reports included."""
    events = [_event(seq, spec) for seq, spec in enumerate(specs)]
    detector = OnlineHbDetector(max_reports=max_reports)
    for event in events:
        detector.on_event(event)
    assert detector.finish() == reference_races(events, max_reports=max_reports)
    # a reset detector is a fresh one
    detector.reset()
    for event in events:
        detector.on_event(event)
    assert detector.finish() == reference_races(events, max_reports=max_reports)
