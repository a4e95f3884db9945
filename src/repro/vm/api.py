"""User-facing component API: ``MonitorComponent`` and ``@synchronized``.

Components are written in the direct image of the paper's Java (Figure 2)::

    class ProducerConsumer(MonitorComponent):
        def __init__(self):
            super().__init__()
            self.contents = ""
            self.total_length = 0
            self.cur_pos = 0

        @synchronized
        def receive(self):
            while self.cur_pos == 0:
                yield Wait()
            y = self.contents[self.total_length - self.cur_pos]
            self.cur_pos -= 1
            yield NotifyAll()
            return y

``@synchronized`` wraps the generator in ``Acquire``/``Release`` syscalls
(with release-on-exception, as a Java synchronized block unwinds) and marks
call boundaries for completion-time checking.  ``@unsynchronized`` marks
call boundaries only — used for deliberately broken components (FF-T1) and
for methods that do their own explicit locking.

Shared-field accesses are instrumented automatically: reading or writing a
public attribute of a :class:`MonitorComponent` while a VM thread executes
emits a READ/WRITE trace event, feeding the Eraser-style race detector with
no annotations in component code.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Generator, Optional

from .kernel import Kernel, current_kernel, current_thread
from .syscalls import Acquire, CallBegin, CallEnd, Release

__all__ = ["MonitorComponent", "synchronized", "unsynchronized", "is_synchronized"]

_INTERNAL_PREFIX = "_"
_object_getattribute = object.__getattribute__


class MonitorComponent:
    """Base class for monitor components.

    A component owns one monitor (its own lock, like a Java object).  It
    must be registered with a kernel (``kernel.register(component)``)
    before its methods are called by simulated threads.

    Attribute access instrumentation: public instance attributes are
    treated as the component's shared state; reads and writes performed
    while a VM thread is executing are recorded in the kernel trace.
    """

    def __init__(self) -> None:
        # Written via object.__setattr__ to bypass instrumentation.
        object.__setattr__(self, "_vm_kernel", None)
        object.__setattr__(self, "_vm_name", type(self).__name__)

    # kernel.register() hook
    def _vm_attach(self, kernel: Kernel, name: str) -> None:
        object.__setattr__(self, "_vm_kernel", kernel)
        object.__setattr__(self, "_vm_name", name)

    @property
    def vm_name(self) -> str:
        """The registered component/monitor name."""
        return object.__getattribute__(self, "_vm_name")

    @property
    def kernel(self) -> Optional[Kernel]:
        return object.__getattribute__(self, "_vm_kernel")

    def __getattribute__(self, name: str) -> Any:
        value = _object_getattribute(self, name)
        if name[:1] == _INTERNAL_PREFIX or callable(value) or name in (
            "vm_name",
            "kernel",
        ):
            return value
        kernel = _object_getattribute(self, "_vm_kernel")
        if kernel is not None and current_kernel() is kernel:
            kernel.record_access(self, name, is_write=False)
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        if not name.startswith(_INTERNAL_PREFIX):
            kernel = object.__getattribute__(self, "_vm_kernel")
            if kernel is not None and current_kernel() is kernel:
                kernel.record_access(self, name, is_write=True)
        object.__setattr__(self, name, value)


def synchronized(method: Callable[..., Any]) -> Callable[..., Generator]:
    """Declare a component method synchronized (the Java keyword).

    The wrapped method runs between ``Acquire(self)`` and ``Release(self)``
    syscalls; the lock is released even when the body raises, matching the
    unwinding of a Java synchronized block.  Works for generator methods
    (bodies that ``yield`` concurrency syscalls) and for plain methods
    (bodies that execute atomically inside the lock).
    """
    is_generator = inspect.isgeneratorfunction(method)

    @functools.wraps(method)
    def wrapper(self: MonitorComponent, *args: Any, **kwargs: Any) -> Generator:
        yield CallBegin(self, method.__name__)
        try:
            yield Acquire(self)
        except InterruptedError:
            # Interrupted while blocked acquiring: the kernel removed us
            # from the entry set, so there is no lock to release.  Record
            # the exceptional completion and let the interrupt propagate.
            yield CallEnd(self, method.__name__, None, interrupted=True)
            raise
        try:
            if is_generator:
                result = yield from method(self, *args, **kwargs)
            else:
                result = method(self, *args, **kwargs)
        except GeneratorExit:
            # The kernel abandoned this thread (end of run while blocked or
            # waiting inside the body): close silently — yielding here
            # would violate generator-close semantics.  The kernel itself
            # releases abandoned locks.
            raise
        except InterruptedError:
            # The call completes *exceptionally*: release the lock as the
            # unwinding synchronized block does, and mark the call end so
            # completion accounting can tell propagation from swallowing.
            yield Release(self)
            yield CallEnd(self, method.__name__, None, interrupted=True)
            raise
        except BaseException:
            # A Java synchronized block releases its lock as the exception
            # unwinds through it.
            yield Release(self)
            raise
        yield Release(self)
        yield CallEnd(self, method.__name__, result)
        return result

    wrapper._vm_synchronized = True  # type: ignore[attr-defined]
    wrapper._vm_call_wrapper = True  # type: ignore[attr-defined]
    wrapper._vm_source_method = method  # type: ignore[attr-defined]
    return wrapper


def unsynchronized(method: Callable[..., Any]) -> Callable[..., Generator]:
    """Declare a component method that is *not* synchronized.

    Only call boundaries are recorded.  This is how the FF-T1 failure
    ("thread does not access a synchronized block when required") is
    expressed in a component under test.
    """
    is_generator = inspect.isgeneratorfunction(method)

    @functools.wraps(method)
    def wrapper(self: MonitorComponent, *args: Any, **kwargs: Any) -> Generator:
        yield CallBegin(self, method.__name__)
        try:
            if is_generator:
                result = yield from method(self, *args, **kwargs)
            else:
                result = method(self, *args, **kwargs)
        except GeneratorExit:
            raise
        except InterruptedError:
            yield CallEnd(self, method.__name__, None, interrupted=True)
            raise
        yield CallEnd(self, method.__name__, result)
        return result

    wrapper._vm_synchronized = False  # type: ignore[attr-defined]
    wrapper._vm_call_wrapper = True  # type: ignore[attr-defined]
    wrapper._vm_source_method = method  # type: ignore[attr-defined]
    return wrapper


def is_synchronized(method: Callable[..., Any]) -> bool:
    """True when ``method`` was declared with :func:`synchronized`."""
    return bool(getattr(method, "_vm_synchronized", False))
