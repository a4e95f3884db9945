"""Named campaign workloads: registered program factories.

A campaign worker lives in another process, so it cannot receive a
closure — it receives a *factory spec string* and rebuilds the program
itself.  Two spellings resolve:

* a registry name (``"pc-bug"``, ``"deadlock-pair"``, ...) — the standard
  Ext-B workloads, pre-wired below;
* ``"module:function"`` — any importable :data:`ProgramFactory`
  (a callable taking a scheduler and returning an unrun ``Kernel``),
  which is how user code plugs its own programs into ``repro campaign``
  and ``repro explore``.
"""

from __future__ import annotations

import importlib
from typing import Dict

from repro.run.registry import WORKLOADS as _REGISTRY
from repro.run.registry import close_matches, register_workload
from repro.testing.explorer import ProgramFactory
from repro.vm import Acquire, Kernel, Release, SemAcquire, SemRelease, Yield

__all__ = [
    "WORKLOADS",
    "barrier_template",
    "buffer_template",
    "pair_template",
    "pc_template",
    "resolve_factory",
    "rw_template",
    "sem_template",
    "workload_names",
]


def _pc_workload(component_cls) -> ProgramFactory:
    """The Ext-B producer-consumer shape: 3 consumers racing 2 producers
    over one shared monitor."""

    def factory(scheduler) -> Kernel:
        kernel = Kernel(scheduler=scheduler)
        pc = kernel.register(component_cls())

        def consumer():
            yield from pc.receive()

        def producer(payload):
            yield from pc.send(payload)

        for i in range(3):
            kernel.spawn(consumer, name=f"c{i}")
        kernel.spawn(producer, "ab", name="p1")
        kernel.spawn(producer, "c", name="p2")
        return kernel

    return factory


@register_workload("pc")
def pc_template(component_cls) -> ProgramFactory:
    """Workload *template*: the Ext-B producer-consumer shape over any
    registered component (``RunConfig(workload="pc", component=...)``)."""
    return _pc_workload(component_cls)


#: marks "pc" as a template: it takes a component class, not a scheduler
pc_template.needs_component = True


@register_workload("buffer")
def buffer_template(component_cls) -> ProgramFactory:
    """Bounded-buffer shape over any ``put``/``get`` component: a
    capacity-1 buffer squeezed by 3 consumers and 3 queued puts, so both
    the full-buffer and the empty-buffer waits are exercised often."""

    def factory(scheduler) -> Kernel:
        kernel = Kernel(scheduler=scheduler)
        buf = kernel.register(component_cls(1))

        def consumer():
            yield from buf.get()

        def producer(items):
            for item in items:
                yield from buf.put(item)

        for i in range(3):
            kernel.spawn(consumer, name=f"c{i}")
        kernel.spawn(producer, ["a", "b"], name="p1")
        kernel.spawn(producer, ["c"], name="p2")
        return kernel

    return factory


buffer_template.needs_component = True


@register_workload("rw")
def rw_template(component_cls) -> ProgramFactory:
    """Readers-writers shape over any ``start_read``/``end_read`` /
    ``start_write``/``end_write`` component: 2 readers overlapping with
    2 writers, so both the reader and the writer waits are exercised."""

    def factory(scheduler) -> Kernel:
        kernel = Kernel(scheduler=scheduler)
        rw = kernel.register(component_cls())

        def reader():
            yield from rw.start_read()
            yield Yield()
            yield from rw.end_read()

        def writer():
            yield from rw.start_write()
            yield Yield()
            yield from rw.end_write()

        for i in range(2):
            kernel.spawn(reader, name=f"r{i}")
        for i in range(2):
            kernel.spawn(writer, name=f"w{i}")
        return kernel

    return factory


rw_template.needs_component = True


@register_workload("sem")
def sem_template(component_cls) -> ProgramFactory:
    """Permit-pool shape over any ``acquire``/``release`` component
    (monitor-built :class:`Semaphore` or :class:`NativeSemaphore` alike):
    3 workers cycle through one permit, so the empty-pool block is
    exercised under contention."""

    def factory(scheduler) -> Kernel:
        kernel = Kernel(scheduler=scheduler, max_steps=3000)
        sem = kernel.register(component_cls())

        def worker():
            yield from sem.acquire()
            yield Yield()
            yield from sem.release()

        for i in range(3):
            kernel.spawn(worker, name=f"u{i}")
        return kernel

    return factory


sem_template.needs_component = True


@register_workload("barrier-meet")
def barrier_template(component_cls) -> ProgramFactory:
    """Barrier rendezvous over any ``arrive`` component built for 3
    parties (monitor-built :class:`CyclicBarrier` or
    :class:`NativeBarrier` alike): 3 threads meet once."""

    def factory(scheduler) -> Kernel:
        kernel = Kernel(scheduler=scheduler, max_steps=3000)
        barrier = kernel.register(component_cls(3))

        def party():
            index = yield from barrier.arrive()
            return index

        for i in range(3):
            kernel.spawn(party, name=f"t{i}")
        return kernel

    return factory


barrier_template.needs_component = True


@register_workload("pair")
def pair_template(component_cls) -> ProgramFactory:
    """Nested-lock shape over any ``transfer(source, target, amount)``
    component: two opposite-direction transfers between two accounts —
    the schedule space where lock-order discipline matters."""

    def factory(scheduler) -> Kernel:
        from repro.components import Account

        kernel = Kernel(scheduler=scheduler)
        a = kernel.register(Account(10), name="A")
        b = kernel.register(Account(10), name="B")
        pair = kernel.register(component_cls())

        def t1():
            yield from pair.transfer(a, b, 1)

        def t2():
            yield from pair.transfer(b, a, 1)

        kernel.spawn(t1, name="t1")
        kernel.spawn(t2, name="t2")
        return kernel

    return factory


pair_template.needs_component = True


@register_workload("pc-ok")
def pc_ok(scheduler) -> Kernel:
    """Correct producer-consumer (should complete under every schedule)."""
    from repro.components import ProducerConsumer

    return _pc_workload(ProducerConsumer)(scheduler)


@register_workload("pc-bug")
def pc_bug(scheduler) -> Kernel:
    """The bug-seeded producer-consumer campaign workload: ``notify``
    instead of ``notifyAll`` loses wakeups under some schedules (FF-T5)."""
    from repro.components.faulty import SingleNotifyProducerConsumer

    return _pc_workload(SingleNotifyProducerConsumer)(scheduler)


@register_workload("pc-no-notify")
def pc_no_notify(scheduler) -> Kernel:
    """Producer-consumer whose send never notifies (FF-T5, deterministic
    once a consumer waits)."""
    from repro.components.faulty import NoNotifyProducerConsumer

    return _pc_workload(NoNotifyProducerConsumer)(scheduler)


@register_workload("deadlock-pair")
def deadlock_pair(scheduler) -> Kernel:
    """Two opposite-direction transfers over unordered account locks
    (FF-T2/FF-T4 deadlock on some schedules)."""
    from repro.components.faulty import DeadlockPair

    return pair_template(DeadlockPair)(scheduler)


@register_workload("mixed-deadlock")
def mixed_deadlock(scheduler) -> Kernel:
    """A monitor and a semaphore closing one wait-for cycle: ``t1`` takes
    the only permit then blocks entering ``m``; ``t2`` owns ``m`` and
    blocks acquiring the permit ``t1`` holds.  Deadlocks on schedules
    that interleave the two acquires — the smallest *mixed-primitive*
    deadlock the extended wait-for graph must close over."""
    kernel = Kernel(scheduler=scheduler)
    kernel.new_monitor("m")
    kernel.new_semaphore("s", permits=1)

    def t1():
        yield SemAcquire("s")
        yield Yield()
        yield Acquire("m")
        yield Release("m")
        yield SemRelease("s")

    def t2():
        yield Acquire("m")
        yield Yield()
        yield SemAcquire("s")
        yield SemRelease("s")
        yield Release("m")

    kernel.spawn(t1, name="t1")
    kernel.spawn(t2, name="t2")
    return kernel


@register_workload("racing-locks")
def racing_locks(scheduler) -> Kernel:
    """Two bare monitors taken in opposite orders — the smallest workload
    whose schedule tree mixes deadlocks and completions."""
    kernel = Kernel(scheduler=scheduler)
    kernel.new_monitor("m1")
    kernel.new_monitor("m2")

    def worker(first, second):
        yield Acquire(first)
        yield Yield()
        yield Acquire(second)
        yield Release(second)
        yield Release(first)

    kernel.spawn(worker, "m1", "m2", name="a")
    kernel.spawn(worker, "m2", "m1", name="b")
    return kernel


#: Backwards-compatible dict view of the *directly runnable* workloads
#: (templates like ``"pc"`` live only in the registry — they need a
#: component before they are a ``ProgramFactory``).
WORKLOADS: Dict[str, ProgramFactory] = {
    "pc-ok": pc_ok,
    "pc-bug": pc_bug,
    "pc-no-notify": pc_no_notify,
    "deadlock-pair": deadlock_pair,
    "mixed-deadlock": mixed_deadlock,
    "racing-locks": racing_locks,
}


def workload_names() -> list:
    return _REGISTRY.names()


def resolve_factory(spec: str) -> ProgramFactory:
    """Resolve a factory spec: registry name or ``module:function``.

    Registry names may resolve to a workload *template* (marked with
    ``needs_component``); callers that need a runnable factory go through
    ``RunConfig.build_factory``, which pairs templates with a component.
    """
    if spec in _REGISTRY:
        return _REGISTRY.get(spec)
    if ":" not in spec:
        names = workload_names()
        near = close_matches(spec, names)
        nearest = f"did you mean {', '.join(near)}? " if near else ""
        raise ValueError(
            f"unknown workload {spec!r} ({nearest}known: {', '.join(names)}; "
            f"or give module:function)"
        )
    module_name, func_name = spec.split(":", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ValueError(f"cannot import factory module {module_name!r}: {exc}")
    factory = getattr(module, func_name, None)
    if not callable(factory):
        raise ValueError(f"{module_name!r} has no factory callable {func_name!r}")
    return factory
