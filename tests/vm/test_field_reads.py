"""Field reads: the per-field descriptors against the reference hook.

Every READ/WRITE event a run emits, in order, must be the same whether
reads are recorded by :class:`repro.vm.api._Field` descriptors or by the
``__getattribute__`` hook they replaced (``field_reference.py``): on
every byte-identity workload, and on Hypothesis-built component classes
that mix instance fields, callable fields, class-level attributes,
instance fields shadowing them, fields first written mid-run, and
subclasses.
"""

from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm import (
    EventKind,
    Kernel,
    MonitorComponent,
    RandomScheduler,
    Yield,
    synchronized,
    unsynchronized,
)
from tests.integration.test_refactor_byte_identity import (
    PINNED,
    PINNED_PRIMITIVES,
    _configure,
    _program,
    _scheduler,
)
from tests.vm.field_reference import hooked_reads

_ACCESSES = (EventKind.READ, EventKind.WRITE)


def accesses(trace) -> List[Tuple[Any, ...]]:
    return [
        (e.seq, e.thread, e.kind, e.component, e.method, e.detail["field"])
        for e in trace
        if e.kind in _ACCESSES
    ]


def _workload_accesses(workload: str, spec: str) -> List[Tuple[Any, ...]]:
    kernel = _program(workload)(_scheduler(spec))
    _configure(kernel, spec)
    return accesses(kernel.run().trace)


@pytest.mark.parametrize("workload,spec", sorted({**PINNED, **PINNED_PRIMITIVES}))
def test_byte_identity_workloads_read_the_same_fields(workload, spec):
    recorded = _workload_accesses(workload, spec)
    with hooked_reads():
        reference = _workload_accesses(workload, spec)
    assert recorded == reference


def test_reference_sees_reads():
    """The comparison is not vacuous: pc-bug reads its fields."""
    with hooked_reads():
        reference = _workload_accesses("pc-bug", "random:0")
    assert any(access[2] is EventKind.READ for access in reference)


# -- Hypothesis-built components -------------------------------------------

#: public field names; "x" and "y" are only ever written inside methods
FIELDS = ("a", "b", "c", "d")
LATE = ("x", "y")
values = st.one_of(st.integers(0, 9), st.just(len))


@st.composite
def ops(draw, readable):
    """One method body: reads, guarded reads, class reads and writes,
    each optionally followed by a scheduling point."""
    op = st.one_of(
        st.tuples(st.just("read"), st.sampled_from(sorted(readable))),
        st.tuples(st.just("maybe"), st.sampled_from(LATE + FIELDS)),
        st.tuples(st.just("write"), st.sampled_from(FIELDS + LATE), values),
    )
    return draw(st.lists(st.tuples(op, st.booleans()), max_size=6))


@st.composite
def class_specs(draw, inherited=frozenset(), class_level_readable=frozenset()):
    class_attrs = draw(st.dictionaries(st.sampled_from(FIELDS), values, max_size=2))
    init_fields = draw(st.dictionaries(st.sampled_from(FIELDS), values, max_size=3))
    readable = inherited | set(class_attrs) | set(init_fields)
    class_readable = class_level_readable | set(class_attrs)
    methods = {}
    for index in range(draw(st.integers(1, 2))):
        body = draw(ops(readable)) if readable else []
        if class_readable and draw(st.booleans()):
            name = draw(st.sampled_from(sorted(class_readable)))
            body.append((("class", name), False))
        methods[f"m{len(inherited)}{index}"] = (draw(st.booleans()), body)
    return {
        "class_attrs": class_attrs,
        "init_fields": init_fields,
        "methods": methods,
        "readable": readable,
        "class_readable": class_readable,
    }


@st.composite
def programs(draw):
    base = draw(class_specs())
    sub = None
    if draw(st.booleans()):
        sub = draw(class_specs(base["readable"], base["class_readable"]))
    methods = sorted(base["methods"]) + (sorted(sub["methods"]) if sub else [])
    calls = st.lists(st.sampled_from(methods), min_size=1, max_size=3)
    return {
        "base": base,
        "sub": sub,
        "threads": draw(st.lists(calls, min_size=1, max_size=3)),
        "seed": draw(st.integers(0, 2**32)),
    }


def _method(name: str, sync: bool, body: List[Any]):
    def method(self):
        seen = []
        for op, then_yield in body:
            kind, field = op[0], op[1]
            if kind == "read":
                seen.append(repr(getattr(self, field)))
            elif kind == "maybe":
                seen.append(repr(getattr(self, field, None)))
            elif kind == "class":
                seen.append(repr(getattr(type(self), field)))
            else:
                setattr(self, field, op[2])
            if then_yield:
                yield Yield()
        return seen
        yield  # a generator even when the body never yields

    method.__name__ = name
    return (synchronized if sync else unsynchronized)(method)


def _class(name: str, parent: type, spec: Dict[str, Any]) -> type:
    fields = dict(spec["init_fields"])

    def __init__(self):
        parent.__init__(self)
        for field, value in fields.items():  # written before attach
            setattr(self, field, value)

    namespace: Dict[str, Any] = dict(spec["class_attrs"], __init__=__init__)
    for method, (sync, body) in spec["methods"].items():
        namespace[method] = _method(method, sync, body)
    return type(name, (parent,), namespace)


def _run(program: Dict[str, Any]) -> Tuple[List[Tuple[Any, ...]], Dict[str, Any]]:
    # fresh classes per run: descriptors are installed on first write
    cls = _class("Base", MonitorComponent, program["base"])
    if program["sub"] is not None:
        cls = _class("Sub", cls, program["sub"])
    kernel = Kernel(scheduler=RandomScheduler(program["seed"]))
    component = kernel.register(cls())

    def thread(calls):
        results = []
        for call in calls:
            results.append((yield from getattr(component, call)()))
        return results

    for index, calls in enumerate(program["threads"]):
        kernel.spawn(thread, calls, name=f"t{index}")
    result = kernel.run()
    assert result.ok, result.crashed
    return accesses(result.trace), result.thread_results


@settings(max_examples=150, deadline=None)
@given(programs())
def test_generated_components_read_the_same_fields(program):
    recorded = _run(program)
    with hooked_reads():
        reference = _run(program)
    assert recorded == reference


class Shadowed(MonitorComponent):
    LIMIT = 3
    hook = len

    def __init__(self):
        super().__init__()
        self.count = 0
        self.LIMIT = 5  # shadows the class attribute

    @unsynchronized
    def touch(self):
        yield Yield()
        return self.count, self.LIMIT, type(self).LIMIT, self.hook


def test_class_attribute_stays_readable_through_the_class():
    kernel = Kernel()
    component = kernel.register(Shadowed())
    kernel.spawn(component.touch, name="t")
    result = kernel.run()
    assert result.thread_results["t"] == (0, 5, 3, len)
    assert Shadowed.LIMIT == 3
    reads = [e.detail["field"] for e in result.trace if e.kind is EventKind.READ]
    assert reads == ["count", "LIMIT"]  # the callable field is not shared state


def _shadowing_run() -> Tuple[List[Tuple[Any, ...]], Dict[str, Any]]:
    """A subclass method named like a base-class field the base class
    instrumented first: the subclass instance still stores the field in
    its ``__dict__``, so reads of it are field reads."""

    class Base(MonitorComponent):
        def __init__(self):
            super().__init__()
            self.x = 1
            self.y = 2

        @unsynchronized
        def touch(self):
            yield Yield()
            return self.x, self.y

    class Shadow(Base):
        def y(self):
            return "method"

    kernel = Kernel()
    first, second = kernel.register(Base()), kernel.register(Shadow())
    kernel.spawn(first.touch, name="base")
    kernel.spawn(second.touch, name="shadow")
    result = kernel.run()
    return accesses(result.trace), result.thread_results


def test_subclass_attribute_shadowing_a_base_field():
    recorded = _shadowing_run()
    with hooked_reads():
        assert recorded == _shadowing_run()
    assert recorded[1] == {"base": (1, 2), "shadow": (1, 2)}
    assert [access[-1] for access in recorded[0]] == ["x", "y", "x", "y"]
