"""The ``MonitorComponent.__getattribute__`` read hook, kept as a reference.

Components used to record public field reads with a hook on every
attribute lookup: look the name up, then record a READ unless the name
is ``_``-prefixed, the value is callable, or the name is one of the
``vm_name``/``kernel`` properties.  That is the definition of which reads
count, stated in one place.  :class:`repro.vm.api._Field` records the
same reads from per-field descriptors instead, so method lookups and
``_``-prefixed reads run no Python code; the field-read tests assert
both emit the same READ/WRITE events, in the same order.

:func:`hooked_reads` swaps the reference in: it installs the hook on
``MonitorComponent`` and makes the field descriptors return their values
without recording, so every READ then comes from the hook.
"""

from contextlib import contextmanager
from typing import Any, Iterator

from repro.vm import MonitorComponent
from repro.vm.api import _MISSING, _bind, _Field

_object_getattribute = object.__getattribute__


def reference_getattribute(self: Any, name: str) -> Any:
    value = _object_getattribute(self, name)
    if name[:1] == "_" or callable(value) or name in ("vm_name", "kernel"):
        return value
    kernel = _object_getattribute(self, "_vm_kernel")
    if kernel is not None:  # records only while it executes a thread
        kernel.record_access(self, name, False)
    return value


def _unrecorded_get(field: _Field, obj: Any, owner: Any = None) -> Any:
    """``_Field.__get__`` without the READ."""
    if obj is None:
        return field if field.default is _MISSING else _bind(field.default, None, owner)
    try:
        return obj.__dict__[field.name]
    except KeyError:
        if field.default is _MISSING:
            raise AttributeError(field.name) from None
        return _bind(field.default, obj, type(obj))


@contextmanager
def hooked_reads() -> Iterator[None]:
    """Record component field reads with the reference hook."""
    recording_get = _Field.__get__
    _Field.__get__ = _unrecorded_get  # type: ignore[method-assign]
    MonitorComponent.__getattribute__ = reference_getattribute  # type: ignore[method-assign]
    try:
        yield
    finally:
        del MonitorComponent.__getattribute__
        _Field.__get__ = recording_get  # type: ignore[method-assign]
