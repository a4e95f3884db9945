"""Edges of the tuple-backed :class:`~repro.vm.events.Event`.

``Kernel.emit`` builds each event with one ``tuple.__new__`` call, so an
event is a tuple underneath.  These tests pin what that must not leak: an
emitted event is exactly an ``Event``, never equal to the plain tuple of
its fields, and frozen field by field; and every event of every registered
workload survives pickle, ``copy.deepcopy`` and the JSON-lines dict form
unchanged.
"""

import copy
import dataclasses
import functools
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.run.registry import COMPONENTS, WORKLOADS, load_builtins
from repro.vm import Acquire, Event, EventKind, Kernel, RandomScheduler, Release
from repro.vm.serialize import event_from_dict, event_to_dict

load_builtins()

#: the component each workload template is run with here
TEMPLATE_COMPONENTS = {
    "barrier-meet": "NativeBarrier",
    "buffer": "BoundedBuffer",
    "pair": "OrderedPair",
    "pc": "ProducerConsumer",
    "rw": "ReadersWriters",
    "sem": "NativeSemaphore",
}

SEEDS = (0, 1)
RUNS = [(name, seed) for name in WORKLOADS.names() for seed in SEEDS]


def _factory(name):
    factory = WORKLOADS.get(name)
    if getattr(factory, "needs_component", False):
        return factory(COMPONENTS.get(TEMPLATE_COMPONENTS[name]))
    return factory


@functools.lru_cache(maxsize=None)
def _events(name, seed):
    kernel = _factory(name)(RandomScheduler(seed=seed))
    return tuple(kernel.run().trace)


def _one_event():
    kernel = Kernel(scheduler=RandomScheduler(seed=0))
    kernel.new_monitor("m")

    def body():
        yield Acquire("m")
        yield Release("m")

    kernel.spawn(body, name="t")
    return list(kernel.run().trace)


def test_every_template_has_a_component():
    templates = {
        name
        for name in WORKLOADS.names()
        if getattr(WORKLOADS.get(name), "needs_component", False)
    }
    assert templates == set(TEMPLATE_COMPONENTS)


def test_emitted_events_are_exactly_events():
    for event in _one_event():
        assert type(event) is Event


def test_event_never_equals_the_plain_tuple_of_its_fields():
    for event in _one_event():
        fields = tuple(event)
        assert not event == fields
        assert not fields == event
        assert event != fields
        assert fields != event
        assert event == Event(*fields)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Event)])
def test_every_field_is_frozen(name):
    event = _one_event()[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(event, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(event, name)
    assert event == _one_event()[1]


def test_new_attributes_are_refused():
    event = _one_event()[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.extra = 1
    assert not hasattr(event, "__dict__")


def test_keyword_construction_defaults():
    first = Event(seq=0, time=0, thread="t", kind=EventKind.YIELD)
    second = Event(seq=0, time=0, thread="t", kind=EventKind.YIELD)
    assert first.detail == {} and first.detail is not second.detail
    assert (first.monitor, first.component, first.method) == (None, None, None)
    assert repr(first) == (
        "Event(seq=0, time=0, thread='t', kind=<EventKind.YIELD: 'yield'>, "
        "monitor=None, component=None, method=None, detail={})"
    )


def _round_trips(event):
    yield pickle.loads(pickle.dumps(event))
    yield copy.deepcopy(event)
    yield event_from_dict(event_to_dict(event))


def _every_run(test):
    for run in RUNS:
        test = example(run=run)(test)
    return test


@settings(max_examples=len(RUNS), deadline=None)
@_every_run
@given(run=st.sampled_from(RUNS))
def test_every_workload_event_round_trips(run):
    events = _events(*run)
    assert events
    for event in events:
        for copied in _round_trips(event):
            assert type(copied) is Event
            assert copied == event
