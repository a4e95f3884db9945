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
no annotations in component code.  Writes pass through
``MonitorComponent.__setattr__``; reads pass through a per-field data
descriptor (:class:`_Field`) on the component's class, so method lookups
and ``_``-prefixed reads run no instrumentation code at all.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Dict, Generator, Optional, Set, Tuple

from .kernel import Kernel
from .syscalls import Acquire, CallBegin, CallEnd, Release

__all__ = ["MonitorComponent", "synchronized", "unsynchronized", "is_synchronized"]

_INTERNAL_PREFIX = "_"
#: the default of a field that has no class-level value
_MISSING = object()

#: the immutable syscalls a wrapped call of one method yields: its
#: ``CallBegin``, ``Acquire`` and ``Release``, and the ``CallEnd`` of a
#: call returning None
_WrapperCalls = Tuple[CallBegin, Acquire, Release, CallEnd]


def _bind(value: Any, obj: Any, owner: type) -> Any:
    """``value`` as attribute lookup would return it from a class: a
    function becomes a bound method, a plain value is itself."""
    get = getattr(type(value), "__get__", None)
    return value if get is None else get(value, obj, owner)


class _Field:
    """The data descriptor of one public field of a component class.

    The field's value lives in the instance ``__dict__``; :attr:`default`
    is the class-level value the descriptor replaced, read when the
    instance holds none.  Reading the field of a component attached to a
    kernel records a READ (through :meth:`Kernel.record_access`), unless
    the value is callable: a stored callback is not shared state.
    """

    __slots__ = ("name", "default")

    def __init__(self, name: str, default: Any = _MISSING) -> None:
        self.name = name
        self.default = default

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        if obj is None:  # class access: the class-level value, if any
            if self.default is _MISSING:
                return self
            return _bind(self.default, None, owner)
        try:
            value = obj.__dict__[self.name]
        except KeyError:
            if self.default is _MISSING:
                raise AttributeError(
                    f"{type(obj).__name__!r} object has no attribute {self.name!r}"
                ) from None
            value = _bind(self.default, obj, type(obj))
        kernel = obj._vm_kernel
        if kernel is not None and not callable(value):
            kernel.record_access(obj, self.name, False)
        return value

    def __set__(self, obj: Any, value: Any) -> None:
        obj.__dict__[self.name] = value

    def __delete__(self, obj: Any) -> None:
        try:
            del obj.__dict__[self.name]
        except KeyError:
            raise AttributeError(self.name) from None


def _instrument(cls: type, name: str) -> None:
    """Make reads of ``name`` on ``cls``'s instances go through a
    :class:`_Field`, unless lookup already finds a data descriptor there:
    a base class's :class:`_Field`, which records them already, or a
    property, whose result is not recorded.  Marks ``name`` done in
    ``cls._vm_fields``."""
    attr = _MISSING
    for klass in cls.__mro__:
        if name in klass.__dict__:
            attr = klass.__dict__[name]
            break
    if not hasattr(type(attr), "__set__"):
        setattr(cls, name, _Field(name, attr))
    cls._vm_fields.add(name)  # type: ignore[attr-defined]


class MonitorComponent:
    """Base class for monitor components.

    A component owns one monitor (its own lock, like a Java object).  It
    must be registered with a kernel (``kernel.register(component)``)
    before its methods are called by simulated threads.

    Attribute access instrumentation: public instance attributes are
    treated as the component's shared state; reads and writes performed
    while a VM thread is executing are recorded in the kernel trace.  A
    write records in :meth:`__setattr__`; a read records in the field's
    :class:`_Field`, which the first write of a name (or class creation,
    for a plain class-level value) installs on the class.
    """

    #: public names whose lookup on this class already finds a data
    #: descriptor; each subclass starts its own (a name a base class
    #: instruments may be shadowed by a subclass attribute)
    _vm_fields: Set[str] = set()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._vm_fields = set()
        for name, value in list(vars(cls).items()):
            if (
                name[:1] != _INTERNAL_PREFIX
                and not callable(value)
                and not hasattr(type(value), "__get__")
            ):
                _instrument(cls, name)

    def __init__(self) -> None:
        # Written via object.__setattr__ to bypass instrumentation.
        object.__setattr__(self, "_vm_kernel", None)
        object.__setattr__(self, "_vm_name", type(self).__name__)

    # kernel.register() hook
    def _vm_attach(self, kernel: Kernel, name: str) -> None:
        object.__setattr__(self, "_vm_kernel", kernel)
        object.__setattr__(self, "_vm_name", name)
        #: method name -> its wrapper syscalls, built on first call (see
        #: _wrapper_calls); each refers back to the component, so the
        #: cache lives only while the component is attached
        object.__setattr__(self, "_vm_calls", {})

    # kernel.release() hook
    def _vm_detach(self, kernel: Kernel) -> None:
        if self._vm_kernel is kernel:
            object.__setattr__(self, "_vm_kernel", None)
            self._vm_calls.clear()

    @property
    def vm_name(self) -> str:
        """The registered component/monitor name."""
        return self._vm_name

    @property
    def kernel(self) -> Optional[Kernel]:
        return self._vm_kernel

    def __setattr__(self, name: str, value: Any) -> None:
        if name[:1] != _INTERNAL_PREFIX:
            kernel = self._vm_kernel
            if kernel is not None:  # records only while it executes a thread
                kernel.record_access(self, name, True)
            if name not in self._vm_fields:
                _instrument(type(self), name)
        object.__setattr__(self, name, value)


def _wrapper_calls(component: Any, name: str) -> _WrapperCalls:
    """The ``CallBegin``, ``Acquire``, ``Release`` and None-result
    ``CallEnd`` a wrapped call of ``component.name`` yields.  They are
    immutable, so an attached component caches them for its later calls;
    a component that was never attached gets fresh ones on every call."""
    calls = (
        CallBegin(component, name),
        Acquire(component),
        Release(component),
        CallEnd(component, name),
    )
    try:
        cache: Dict[str, _WrapperCalls] = component._vm_calls
    except AttributeError:
        return calls
    cache[name] = calls
    return calls


def synchronized(method: Callable[..., Any]) -> Callable[..., Generator]:
    """Declare a component method synchronized (the Java keyword).

    The wrapped method runs between ``Acquire(self)`` and ``Release(self)``
    syscalls; the lock is released even when the body raises, matching the
    unwinding of a Java synchronized block.  Works for generator methods
    (bodies that ``yield`` concurrency syscalls) and for plain methods
    (bodies that execute atomically inside the lock).

    The call's ``CallBegin``, ``Acquire``, ``Release`` and None-result
    ``CallEnd`` are built once per attached component and method
    (:func:`_wrapper_calls`); only the ``CallEnd`` of a call returning a
    value or ending interrupted is built per call.
    """
    is_generator = inspect.isgeneratorfunction(method)
    name = method.__name__

    @functools.wraps(method)
    def wrapper(self: MonitorComponent, *args: Any, **kwargs: Any) -> Generator:
        try:
            begin, acquire, release, end = self._vm_calls[name]
        except (AttributeError, KeyError):
            begin, acquire, release, end = _wrapper_calls(self, name)
        yield begin
        try:
            yield acquire
        except InterruptedError:
            # Interrupted while blocked acquiring: the kernel removed us
            # from the entry set, so there is no lock to release.  Record
            # the exceptional completion and let the interrupt propagate.
            yield CallEnd(self, name, None, interrupted=True)
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
            yield release
            yield CallEnd(self, name, None, interrupted=True)
            raise
        except BaseException:
            # A Java synchronized block releases its lock as the exception
            # unwinds through it.
            yield release
            raise
        yield release
        yield end if result is None else CallEnd(self, name, result)
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
    name = method.__name__

    @functools.wraps(method)
    def wrapper(self: MonitorComponent, *args: Any, **kwargs: Any) -> Generator:
        try:
            begin, _, _, end = self._vm_calls[name]
        except (AttributeError, KeyError):
            begin, _, _, end = _wrapper_calls(self, name)
        yield begin
        try:
            if is_generator:
                result = yield from method(self, *args, **kwargs)
            else:
                result = method(self, *args, **kwargs)
        except GeneratorExit:
            raise
        except InterruptedError:
            yield CallEnd(self, name, None, interrupted=True)
            raise
        yield end if result is None else CallEnd(self, name, result)
        return result

    wrapper._vm_synchronized = False  # type: ignore[attr-defined]
    wrapper._vm_call_wrapper = True  # type: ignore[attr-defined]
    wrapper._vm_source_method = method  # type: ignore[attr-defined]
    return wrapper


def is_synchronized(method: Callable[..., Any]) -> bool:
    """True when ``method`` was declared with :func:`synchronized`."""
    return bool(getattr(method, "_vm_synchronized", False))
