"""Tests for the component API: @synchronized, @unsynchronized,
MonitorComponent attribute instrumentation."""

import pytest

from repro.vm import (
    Acquire,
    CallBegin,
    CallEnd,
    EventKind,
    FifoScheduler,
    Kernel,
    MonitorComponent,
    NotifyAll,
    Release,
    RoundRobinScheduler,
    Wait,
    Yield,
    is_synchronized,
    synchronized,
    unsynchronized,
)


class Cell(MonitorComponent):
    def __init__(self):
        super().__init__()
        self.full = False
        self.value = None

    @synchronized
    def put(self, v):
        while self.full:
            yield Wait()
        self.value = v
        self.full = True
        yield NotifyAll()

    @synchronized
    def get(self):
        while not self.full:
            yield Wait()
        v = self.value
        self.full = False
        yield NotifyAll()
        return v

    @synchronized
    def peek(self):
        return self.value

    @unsynchronized
    def raw_read(self):
        return self.value

    def helper(self):
        return "not a component method"


class TestDecorators:
    def test_is_synchronized(self):
        assert is_synchronized(Cell.put)
        assert not is_synchronized(Cell.raw_read)
        assert not is_synchronized(Cell.helper)

    def test_wrapper_markers(self):
        assert Cell.put._vm_call_wrapper
        assert Cell.raw_read._vm_call_wrapper
        assert not hasattr(Cell.helper, "_vm_call_wrapper")

    def test_source_method_preserved(self):
        assert Cell.put._vm_source_method.__name__ == "put"


def run_cell_program():
    kernel = Kernel(scheduler=FifoScheduler())
    cell = kernel.register(Cell())

    def producer():
        yield from cell.put(1)

    def consumer():
        value = yield from cell.get()
        return value

    kernel.spawn(consumer, name="cons")  # runs first: must wait
    kernel.spawn(producer, name="prod")
    return kernel, cell, kernel.run()


class TestSynchronizedExecution:
    def test_round_trip(self):
        _, _, result = run_cell_program()
        assert result.ok
        assert result.thread_results["cons"] == 1

    def test_lock_events_emitted(self):
        _, _, result = run_cell_program()
        cons = result.trace.transition_sequence("cons")
        assert cons == ["T1", "T2", "T3", "T5", "T2", "T4"]

    def test_call_records(self):
        _, _, result = run_cell_program()
        records = result.trace.call_records()
        methods = [(r.thread, r.method, r.completed) for r in records]
        assert ("cons", "get", True) in methods
        assert ("prod", "put", True) in methods

    def test_call_result_recorded(self):
        _, _, result = run_cell_program()
        get_record = next(
            r for r in result.trace.call_records() if r.method == "get"
        )
        assert get_record.result == 1

    def test_plain_method_runs_atomically(self):
        kernel = Kernel(scheduler=FifoScheduler())
        cell = kernel.register(Cell())

        def body():
            value = yield from cell.peek()
            return value

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert result.ok
        assert result.thread_results["t"] is None
        t_events = result.trace.transition_sequence("t")
        assert t_events == ["T1", "T2", "T4"]

    def test_exception_releases_lock(self):
        class Boomer(MonitorComponent):
            def __init__(self):
                super().__init__()
                self.x = 0

            @synchronized
            def boom(self):
                yield Yield()
                raise RuntimeError("bang")

            @synchronized
            def ok(self):
                return "fine"

        kernel = Kernel(scheduler=FifoScheduler())
        comp = kernel.register(Boomer())

        def t1():
            yield from comp.boom()

        def t2():
            value = yield from comp.ok()
            return value

        kernel.spawn(t1, name="t1")
        kernel.spawn(t2, name="t2")
        result = kernel.run()
        assert isinstance(result.crashed.get("t1"), RuntimeError)
        assert result.thread_results.get("t2") == "fine"
        # the lock was released on the exception path
        assert kernel.monitors[comp.vm_name].is_free()


class TestAttributeInstrumentation:
    def test_reads_and_writes_recorded(self):
        _, _, result = run_cell_program()
        accesses = result.trace.accesses()
        fields = {(a.field, a.is_write) for a in accesses}
        assert ("full", False) in fields
        assert ("full", True) in fields
        assert ("value", True) in fields

    def test_lockset_attached(self):
        _, cell, result = run_cell_program()
        for access in result.trace.accesses():
            assert cell.vm_name in access.locks_held

    def test_no_events_outside_vm(self):
        cell = Cell()
        cell.value = 99  # no kernel attached: plain attribute write
        assert cell.value == 99

    def test_private_attributes_not_instrumented(self):
        kernel = Kernel(scheduler=FifoScheduler())

        class Private(MonitorComponent):
            def __init__(self):
                super().__init__()
                self._secret = 1
                self.public = 2

            @synchronized
            def touch(self):
                self._secret += 1
                return self.public

        comp = kernel.register(Private())

        def body():
            yield from comp.touch()

        kernel.spawn(body)
        result = kernel.run()
        fields = {a.field for a in result.trace.accesses()}
        assert "public" in fields
        assert "_secret" not in fields

    def test_unsynchronized_access_has_empty_lockset(self):
        kernel = Kernel(scheduler=FifoScheduler())
        cell = kernel.register(Cell())

        def body():
            value = yield from cell.raw_read()
            return value

        kernel.spawn(body, name="t")
        result = kernel.run()
        accesses = result.trace.accesses()
        assert accesses
        assert all(a.locks_held == frozenset() for a in accesses)


class TestRegistration:
    def test_register_assigns_name(self):
        kernel = Kernel()
        cell = kernel.register(Cell())
        assert cell.vm_name == "Cell"
        assert "Cell" in kernel.monitors

    def test_register_uniquifies(self):
        kernel = Kernel()
        kernel.register(Cell())
        second = kernel.register(Cell())
        assert second.vm_name == "Cell#2"

    def test_register_custom_name(self):
        kernel = Kernel()
        cell = kernel.register(Cell(), name="buffer")
        assert cell.vm_name == "buffer"

    def test_kernel_property(self):
        kernel = Kernel()
        cell = kernel.register(Cell())
        assert cell.kernel is kernel

    def test_duplicate_bare_monitor_rejected(self):
        kernel = Kernel()
        kernel.new_monitor("m")
        with pytest.raises(ValueError):
            kernel.new_monitor("m")


class Steps(MonitorComponent):
    """Methods whose bodies yield one syscall, then return or raise."""

    @synchronized
    def waits(self):
        yield Wait()
        return "done"

    @synchronized
    def raises(self):
        yield Yield()
        raise RuntimeError("bang")

    @unsynchronized
    def loose(self):
        yield Yield()
        return 7

    @unsynchronized
    def settles(self):
        yield Yield()


class SkipsInit(Steps):
    def __init__(self):  # never calls MonitorComponent.__init__
        pass


def drive(call, throw_at=None, exc=None):
    """Every syscall a wrapped call yields, and what it finally raised.
    ``exc`` is thrown in at the first yield of type ``throw_at``."""
    yielded = []
    syscall = next(call)
    try:
        while True:
            yielded.append(syscall)
            if throw_at is not None and type(syscall) is throw_at:
                throw_at = None
                syscall = call.throw(exc)
            else:
                syscall = call.send(None)
    except StopIteration:
        return yielded, None
    except BaseException as raised:  # noqa: BLE001 - what the call raised
        return yielded, type(raised)


def attached(component):
    Kernel(scheduler=FifoScheduler()).register(component)
    return component


class TestWrapperSyscalls:
    """The syscalls of ``@synchronized``/``@unsynchronized`` calls on every
    path, attached (cached syscalls) or not (built per call)."""

    COMPONENTS = {
        "attached": lambda: attached(Steps()),
        "unattached": Steps,
        "skips-init-attached": lambda: attached(SkipsInit()),
        "skips-init-unattached": SkipsInit,
    }

    @pytest.fixture(params=sorted(COMPONENTS))
    def comp(self, request):
        return self.COMPONENTS[request.param]()

    def test_normal_call(self, comp):
        assert drive(comp.waits()) == (
            [
                CallBegin(comp, "waits"),
                Acquire(comp),
                Wait(),
                Release(comp),
                CallEnd(comp, "waits", "done"),
            ],
            None,
        )

    def test_interrupted_acquire(self, comp):
        assert drive(comp.waits(), Acquire, InterruptedError()) == (
            [
                CallBegin(comp, "waits"),
                Acquire(comp),
                CallEnd(comp, "waits", None, interrupted=True),
            ],
            InterruptedError,
        )

    def test_interrupted_body(self, comp):
        assert drive(comp.waits(), Wait, InterruptedError()) == (
            [
                CallBegin(comp, "waits"),
                Acquire(comp),
                Wait(),
                Release(comp),
                CallEnd(comp, "waits", None, interrupted=True),
            ],
            InterruptedError,
        )

    def test_raising_body(self, comp):
        assert drive(comp.raises()) == (
            [CallBegin(comp, "raises"), Acquire(comp), Yield(), Release(comp)],
            RuntimeError,
        )

    def test_abandoned_call_closes_silently(self, comp):
        call = comp.waits()
        next(call)
        next(call)
        call.close()  # GeneratorExit inside the lock: no further yield

    def test_unsynchronized(self, comp):
        assert drive(comp.loose()) == (
            [CallBegin(comp, "loose"), Yield(), CallEnd(comp, "loose", 7)],
            None,
        )
        assert drive(comp.loose(), Yield, InterruptedError()) == (
            [
                CallBegin(comp, "loose"),
                Yield(),
                CallEnd(comp, "loose", None, interrupted=True),
            ],
            InterruptedError,
        )

    def test_attached_component_builds_its_syscalls_once(self):
        comp = attached(Steps())
        first, _ = drive(comp.waits())
        second, _ = drive(comp.waits())
        for built_once in (0, 1, 3):  # CallBegin, Acquire, Release
            assert second[built_once] is first[built_once]
        # a CallEnd carrying a result is built per call
        assert second[4] == first[4] and second[4] is not first[4]
        assert drive(comp.loose())[0][0] is comp._vm_calls["loose"][0]
        # a None-result CallEnd is the cached one
        settled, _ = drive(comp.settles())
        assert settled[-1] == CallEnd(comp, "settles", None)
        assert settled[-1] is drive(comp.settles())[0][-1]
        assert settled[-1] is comp._vm_calls["settles"][3]

    def test_skipping_init_still_runs(self):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        comp = kernel.register(SkipsInit())

        def body():
            value = yield from comp.loose()
            return value

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert result.ok and result.thread_results["t"] == 7

    def test_release_empties_the_cache(self):
        kernel, cell, result = run_cell_program()
        assert result.ok
        assert sorted(cell._vm_calls) == ["get", "put"]
        kernel.release()
        assert cell._vm_calls == {}
        assert cell.kernel is None
