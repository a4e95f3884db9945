"""Tests for the AST scanner: node discovery and the region relation."""

import pytest

from repro.analysis import NodeKind, method_source_ast, scan_method
from repro.vm import (
    MonitorComponent,
    Notify,
    NotifyAll,
    Wait,
    Yield,
    synchronized,
    unsynchronized,
)


class Samples(MonitorComponent):
    def __init__(self):
        super().__init__()
        self.n = 0
        self.flag = False

    @synchronized
    def no_concurrency(self):
        self.n = self.n + 1
        return self.n

    @synchronized
    def guarded_wait(self):
        while self.n == 0:
            yield Wait()
        self.n = self.n - 1
        yield NotifyAll()

    @synchronized
    def if_branch_notify(self, flag):
        if flag:
            yield Notify()
        else:
            yield NotifyAll()
        self.n = 0

    @synchronized
    def early_return(self):
        if self.n == 0:
            return None
        yield Wait()
        return self.n

    @synchronized
    def loop_with_break(self):
        while True:
            if self.n > 0:
                break
            yield Wait()
        yield NotifyAll()

    @synchronized
    def two_waits(self):
        while self.n == 0:
            yield Wait()
        while not self.flag:
            yield Wait()
        yield NotifyAll()

    @synchronized
    def for_loop_notify(self, items):
        for _item in items:
            yield Notify()

    @synchronized
    def try_finally(self):
        try:
            yield Wait()
        finally:
            yield NotifyAll()


def scan_of(method):
    return scan_method(method_source_ast(method)[0])


def edges_of(method):
    return set(scan_of(method).edges)


class TestNodeDiscovery:
    def test_no_concurrency_statements(self):
        scan = scan_of(Samples.no_concurrency)
        assert scan.nodes == []
        assert scan.edges == [("start", "end")]

    def test_guarded_wait_nodes(self):
        scan = scan_of(Samples.guarded_wait)
        kinds = [n.kind for n in scan.nodes]
        assert kinds == [NodeKind.WAIT, NodeKind.NOTIFY_ALL]

    def test_wait_loop_condition_attached(self):
        scan = scan_of(Samples.guarded_wait)
        wait = next(n for n in scan.nodes if n.kind is NodeKind.WAIT)
        assert wait.loop_condition == "self.n == 0"

    def test_lines_are_absolute(self):
        import inspect

        scan = scan_of(Samples.guarded_wait)
        source_start = Samples.guarded_wait._vm_source_method.__code__.co_firstlineno
        for node in scan.nodes:
            assert node.line > source_start


class TestRegionRelation:
    def test_guarded_wait_edges(self):
        scan = scan_of(Samples.guarded_wait)
        wait = next(n for n in scan.nodes if n.kind is NodeKind.WAIT).name
        notify = next(
            n for n in scan.nodes if n.kind is NodeKind.NOTIFY_ALL
        ).name
        assert set(scan.edges) == {
            ("start", wait),
            (wait, wait),
            ("start", notify),
            (wait, notify),
            (notify, "end"),
        }

    def test_guard_texts(self):
        scan = scan_of(Samples.guarded_wait)
        wait = next(n for n in scan.nodes if n.kind is NodeKind.WAIT).name
        notify = next(
            n for n in scan.nodes if n.kind is NodeKind.NOTIFY_ALL
        ).name
        assert scan.guards[("start", wait)] == "self.n == 0 is True on entry"
        assert scan.guards[(wait, wait)] == "self.n == 0 is True on iteration"
        assert scan.guards[("start", notify)] == "self.n == 0 is False"
        assert scan.guards[(wait, notify)] == "self.n == 0 is False"

    def test_if_else_both_branches(self):
        scan = scan_of(Samples.if_branch_notify)
        notify = next(n for n in scan.nodes if n.kind is NodeKind.NOTIFY).name
        notify_all = next(
            n for n in scan.nodes if n.kind is NodeKind.NOTIFY_ALL
        ).name
        edges = set(scan.edges)
        assert ("start", notify) in edges
        assert ("start", notify_all) in edges
        assert (notify, "end") in edges
        assert (notify_all, "end") in edges
        assert (notify, notify_all) not in edges

    def test_early_return_edge(self):
        scan = scan_of(Samples.early_return)
        wait = next(n for n in scan.nodes if n.kind is NodeKind.WAIT).name
        edges = set(scan.edges)
        assert ("start", "end") in edges  # the return path
        assert ("start", wait) in edges
        assert (wait, "end") in edges

    def test_while_true_with_break(self):
        scan = scan_of(Samples.loop_with_break)
        wait = next(n for n in scan.nodes if n.kind is NodeKind.WAIT).name
        notify = next(
            n for n in scan.nodes if n.kind is NodeKind.NOTIFY_ALL
        ).name
        edges = set(scan.edges)
        # break reaches the notify from start (first check) and from wait
        assert ("start", notify) in edges
        assert (wait, notify) in edges
        assert (wait, wait) in edges
        # while True has no condition-false exit
        assert ("start", "end") not in edges

    def test_two_sequential_wait_loops(self):
        scan = scan_of(Samples.two_waits)
        waits = [n.name for n in scan.nodes if n.kind is NodeKind.WAIT]
        assert len(waits) == 2
        w1, w2 = waits
        edges = set(scan.edges)
        assert (w1, w2) in edges
        assert (w1, w1) in edges and (w2, w2) in edges

    def test_for_loop_notify(self):
        scan = scan_of(Samples.for_loop_notify)
        notify = next(n for n in scan.nodes if n.kind is NodeKind.NOTIFY).name
        edges = set(scan.edges)
        assert ("start", notify) in edges
        assert (notify, notify) in edges
        assert (notify, "end") in edges
        assert ("start", "end") in edges  # empty iterable path

    def test_try_finally(self):
        scan = scan_of(Samples.try_finally)
        wait = next(n for n in scan.nodes if n.kind is NodeKind.WAIT).name
        notify = next(
            n for n in scan.nodes if n.kind is NodeKind.NOTIFY_ALL
        ).name
        edges = set(scan.edges)
        assert (wait, notify) in edges
        assert (notify, "end") in edges


class TestExtent:
    def test_first_last_lines(self):
        scan = scan_of(Samples.guarded_wait)
        assert 0 < scan.first_line < scan.last_line
