"""Static checks for the T1 failure classes.

Table 1 prescribes *static analysis / model checking* for both T1
deviations, and they are indeed statically visible in component source:

* **FF-T1** (missing synchronization): an ``@unsynchronized`` method that
  reads or writes shared instance state — under the component-testing
  assumption of multiple thread access (Section 1), any such access is a
  potential interference.
* **EF-T1** (unnecessary synchronization): a ``@synchronized`` method that
  touches no shared instance state and neither waits nor notifies — the
  lock buys nothing and only costs contention.

One environment-deviation class is statically visible the same way:

* **EV-INT** (swallowed interrupt): an ``except InterruptedError`` (or
  bare ``except``) handler that neither re-raises nor propagates the
  exception — the classic Java anti-pattern of catching
  ``InterruptedException`` with an empty body, which silently discards
  cancellation requests.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Tuple, Type

from repro.classify.taxonomy import FailureClass
from repro.vm.api import MonitorComponent

from .astscan import FunctionIndex, scan_method
from .builder import component_methods

__all__ = [
    "StaticFinding",
    "check_component",
    "interrupt_swallowing_handlers",
    "shared_accesses",
]


@dataclass(frozen=True)
class StaticFinding:
    """One static-analysis finding on a component method."""

    component: str
    method: str
    failure_class: FailureClass
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.failure_class.code}] {self.component}.{self.method}: "
            f"{self.detail}"
        )


def _method_facts(
    func: ast.FunctionDef,
) -> Tuple[List[str], List[str], List[int]]:
    """One walk of a parsed method: the reads and writes of
    :func:`shared_accesses` and the handler lines of
    :func:`interrupt_swallowing_handlers`."""
    self_name = func.args.args[0].arg if func.args.args else "self"
    reads: List[str] = []
    writes: List[str] = []
    handlers: List[int] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id != self_name or node.attr.startswith("_"):
                continue
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                writes.append(node.attr)
            else:
                reads.append(node.attr)
        elif isinstance(node, ast.ExceptHandler):
            if _catches_interrupt(node) and _handler_swallows(node):
                handlers.append(node.lineno)
    return reads, writes, handlers


def shared_accesses(func: ast.FunctionDef) -> Tuple[List[str], List[str]]:
    """(reads, writes) of ``self.<field>`` instance attributes in a parsed
    method, excluding underscore-prefixed internals."""
    reads, writes, _ = _method_facts(func)
    return reads, writes


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    """True when the handler body can complete without re-raising."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return False
    return True


def _catches_interrupt(handler: ast.ExceptHandler) -> bool:
    """True when the handler matches ``InterruptedError`` (directly, via a
    tuple, or as a bare/over-broad ``except``)."""
    broad = ("BaseException", "Exception", "InterruptedError")

    def matches(expr: ast.expr) -> bool:
        return isinstance(expr, ast.Name) and expr.id in broad

    if handler.type is None:  # bare except
        return True
    if isinstance(handler.type, ast.Tuple):
        return any(matches(e) for e in handler.type.elts)
    return matches(handler.type)


def interrupt_swallowing_handlers(func: ast.FunctionDef) -> List[int]:
    """Line numbers of ``except`` handlers in a parsed method that catch
    ``InterruptedError`` and can complete without re-raising it."""
    return _method_facts(func)[2]


def check_component(
    component: Type[MonitorComponent] | MonitorComponent,
) -> List[StaticFinding]:
    """Run the FF-T1 / EF-T1 / EV-INT static checks on every declared
    method."""
    cls = component if isinstance(component, type) else type(component)
    index = FunctionIndex()
    findings: List[StaticFinding] = []
    for name in component_methods(cls):
        method = getattr(cls, name)
        func = index.function(method)
        synchronized = bool(getattr(method, "_vm_synchronized", False))
        reads, writes, swallowed = _method_facts(func)
        for line in swallowed:
            findings.append(
                StaticFinding(
                    component=cls.__name__,
                    method=name,
                    failure_class=FailureClass.EV_INT,
                    detail=(
                        f"except handler at line {line} catches "
                        f"InterruptedError without re-raising: the "
                        f"cancellation request is silently discarded"
                    ),
                )
            )
        if not synchronized and (reads or writes):
            accessed = sorted(set(reads + writes))
            findings.append(
                StaticFinding(
                    component=cls.__name__,
                    method=name,
                    failure_class=FailureClass.FF_T1,
                    detail=(
                        f"unsynchronized access to shared field(s) "
                        f"{accessed}; interference possible under multiple "
                        f"thread access"
                    ),
                )
            )
        # only EF-T1 reads the region scan, so only its candidates pay for it
        if synchronized and not (reads or writes) and not scan_method(func).nodes:
            findings.append(
                StaticFinding(
                    component=cls.__name__,
                    method=name,
                    failure_class=FailureClass.EF_T1,
                    detail=(
                        "synchronized method touches no shared state and "
                        "neither waits nor notifies: unnecessary "
                        "synchronization"
                    ),
                )
            )
    return findings
