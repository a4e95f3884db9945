"""Tests for the analysis layer's source index: one parse per file, each
``def`` found by its first line (not by its name), absolute lines."""

import functools
import inspect

import pytest

from repro.analysis import (
    NodeKind,
    build_all_cofgs,
    check_component,
    method_source_ast,
)
from repro.analysis.astscan import FunctionIndex
from repro.classify import FailureClass
from repro.vm import MonitorComponent, NotifyAll, synchronized, unsynchronized

from .test_source_reference import reference_method_ast


def line_of(marker):
    """The line of this file that carries ``marker``."""
    lines = inspect.getsourcelines(inspect.getmodule(line_of))[0]
    return next(i for i, text in enumerate(lines, 1) if marker in text)


class DocumentedBuffer(MonitorComponent):
    def __init__(self):
        super().__init__()
        self.items = []

    @synchronized
    def put(self, item):
        """Append an item.

Flush-left paragraph: dedent finds no common prefix in this method.
        """
        self.items.append(item)
        yield NotifyAll()  # marker: documented put


class TestFlushLeftDocstring:
    def test_per_method_dedent_cannot_parse_it(self):
        with pytest.raises(IndentationError):
            reference_method_ast(DocumentedBuffer.put)

    def test_module_level_class(self):
        assert check_component(DocumentedBuffer) == []
        (node,) = build_all_cofgs(DocumentedBuffer)["put"].nodes[1:-1]
        assert node.kind is NodeKind.NOTIFY_ALL
        assert node.line == line_of("marker: documented put")

    def test_class_inside_a_test_function(self):
        class Nested(MonitorComponent):
            @unsynchronized
            def put(self, item):
                """Append an item.

Flush-left paragraph.
                """
                self.items = item
                yield NotifyAll()  # marker: nested put

        (finding,) = check_component(Nested)
        assert finding.failure_class is FailureClass.FF_T1
        (node,) = build_all_cofgs(Nested)["put"].nodes[1:-1]
        assert node.line == line_of("marker: nested put")


class First(MonitorComponent):
    @unsynchronized
    def put(self, item):  # marker: first put
        self.item = item


class Second(MonitorComponent):
    @synchronized
    def put(self, item):  # marker: second put
        self.item = item
        yield NotifyAll()


class Aliased(MonitorComponent):
    put = First.put


def traced(method):
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        return (yield from method(*args, **kwargs))

    return wrapper


class Stacked(MonitorComponent):
    @synchronized  # marker: stacked put
    @traced
    def put(self, item):
        self.item = item
        yield NotifyAll()


class Redefined(MonitorComponent):
    @unsynchronized
    def put(self, item):
        self.item = item

    @synchronized
    def put(self, item):  # marker: redefined put  # noqa: F811
        yield NotifyAll()


class TestLookupByLine:
    def test_same_name_in_two_classes(self):
        index = FunctionIndex()
        first, second = index.function(First.put), index.function(Second.put)
        assert first.decorator_list[0].lineno == line_of("marker: first put") - 1
        assert second.decorator_list[0].lineno == line_of("marker: second put") - 1
        assert [f.failure_class for f in check_component(First)] == [
            FailureClass.FF_T1
        ]
        assert check_component(Second) == []

    def test_alias_resolves_to_the_defining_class(self):
        func, first_line = method_source_ast(Aliased.put)
        assert first_line == line_of("marker: first put") - 1
        assert func.lineno == line_of("marker: first put")
        (finding,) = check_component(Aliased)
        assert (finding.component, finding.method) == ("Aliased", "put")
        assert finding.failure_class is FailureClass.FF_T1

    def test_second_decorator(self):
        func, first_line = method_source_ast(Stacked.put)
        assert first_line == line_of("marker: stacked put")
        assert len(func.decorator_list) == 2
        assert check_component(Stacked) == []
        (node,) = build_all_cofgs(Stacked)["put"].nodes[1:-1]
        assert node.line == first_line + 4

    def test_redefinition_takes_the_bound_def(self):
        func, _ = method_source_ast(Redefined.put)
        assert func.lineno == line_of("marker: redefined put")
        assert check_component(Redefined) == []

    def test_method_first_line_is_code_first_line(self):
        for method in (First.put, Second.put, Stacked.put, DocumentedBuffer.put):
            original = inspect.unwrap(method._vm_source_method)
            _, first_line = method_source_ast(method)
            assert first_line == original.__code__.co_firstlineno


class TestMissingSource:
    @pytest.fixture
    def ghost(self):
        source = (
            "class Ghost(MonitorComponent):\n"
            "    @unsynchronized\n"
            "    def put(self, item):\n"
            "        self.item = item\n"
        )
        namespace = {
            "MonitorComponent": MonitorComponent,
            "unsynchronized": unsynchronized,
        }
        exec(compile(source, "<ghost>", "exec"), namespace)
        return namespace["Ghost"]

    def test_inspect_raises_oserror(self, ghost):
        with pytest.raises(OSError):
            inspect.getsource(ghost.put._vm_source_method)

    def test_lookup_raises_oserror(self, ghost):
        with pytest.raises(OSError):
            method_source_ast(ghost.put)
        with pytest.raises(OSError):
            check_component(ghost)
        with pytest.raises(OSError):
            build_all_cofgs(ghost)
