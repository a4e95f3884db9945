"""Harness-owned campaign programs (``module:function`` program factories).

``prims_long`` keeps the kernel step loop busy across all four primitive
kinds at once: a Figure-2 producer-consumer monitor, a native counting
semaphore with two permits, a native read-write lock and a native
four-party barrier.  Two producers and two consumers run ``ROUNDS``
rounds; in each round every thread passes the semaphore and the rw-lock
(producers write, consumers read), moves one character through the
monitor, and meets the others at the barrier.  Every round sends and
receives exactly two characters, so every schedule completes.
"""

from __future__ import annotations

from repro.components import ProducerConsumer
from repro.components.native import NativeBarrier, NativeReadWriteLock, NativeSemaphore
from repro.vm import Kernel, Yield

#: rounds per thread; about 12.8k kernel steps per run
ROUNDS = 150


def prims_long(scheduler) -> Kernel:
    kernel = Kernel(scheduler=scheduler, max_steps=100_000)
    pc = kernel.register(ProducerConsumer())
    permits = kernel.register(NativeSemaphore(2))
    rw = kernel.register(NativeReadWriteLock())
    barrier = kernel.register(NativeBarrier(4))

    def producer(payload):
        for _ in range(ROUNDS):
            yield from permits.acquire()
            yield from rw.start_write()
            yield Yield()
            yield from rw.end_write()
            yield from permits.release()
            yield from pc.send(payload)
            yield from barrier.arrive()

    def consumer():
        received = []
        for _ in range(ROUNDS):
            yield from permits.acquire()
            yield from rw.start_read()
            yield Yield()
            yield from rw.end_read()
            yield from permits.release()
            received.append((yield from pc.receive()))
            yield from barrier.arrive()
        return "".join(received)

    kernel.spawn(producer, "a", name="p1")
    kernel.spawn(producer, "b", name="p2")
    kernel.spawn(consumer, name="c1")
    kernel.spawn(consumer, name="c2")
    return kernel
