"""AST scanning: locate concurrency statements in component methods.

The paper constructs CoFGs from the Java source of a component.  Here the
component source is Python (the ``yield Wait()`` idiom of ``repro.vm.api``),
so the scan walks the method's ``ast`` looking for ``yield`` expressions
whose value is a call to one of the syscall constructors ``Wait``,
``Notify``, ``NotifyAll`` (and ``Yield`` for explicit scheduling points).

The scanner also performs the control-flow walk that the CoFG builder
needs: for every concurrency statement it computes the set of concurrency
statements (or the method START) that can *immediately precede* it on some
execution path with no other concurrency statement in between — exactly
the paper's "code regions between all pairs of concurrent statements".
Each predecessor is tracked together with the branch condition that path
took, so arcs carry guards like the paper's *"the while condition on
iteration of the loop must evaluate to true"*.

Supported control flow: sequences, ``if``/``elif``/``else``, ``while``
(including ``while True``), ``for``, ``break``, ``continue``, ``return``,
``try``/``except``/``finally``.
"""

from __future__ import annotations

import ast
import inspect
import linecache
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .model import CoFGNode, NodeKind

__all__ = [
    "FunctionIndex",
    "ScanResult",
    "scan_method",
    "method_source_ast",
    "SYSCALL_NODE_KINDS",
]

#: syscall constructor name -> CoFG node kind
SYSCALL_NODE_KINDS: Dict[str, NodeKind] = {
    "Wait": NodeKind.WAIT,
    "Notify": NodeKind.NOTIFY,
    "NotifyAll": NodeKind.NOTIFY_ALL,
    "Yield": NodeKind.YIELD,
}

# A frontier entry: (predecessor node name, guard accumulated on this path).
_Entry = Tuple[str, str]


@dataclass
class ScanResult:
    """Outcome of scanning one method.

    Attributes:
        nodes: concurrency-statement nodes in source order (START/END not
            included — the builder adds them).
        edges: pairs ``(pred, succ)`` of node *names* in the region
            relation, with START/END as the sentinels ``"start"``/``"end"``.
        guards: per-edge human-readable execution condition.
        first_line / last_line: extent of the method body.
    """

    nodes: List[CoFGNode] = field(default_factory=list)
    edges: List[Tuple[str, str]] = field(default_factory=list)
    guards: Dict[Tuple[str, str], str] = field(default_factory=dict)
    first_line: int = 0
    last_line: int = 0


class FunctionIndex:
    """Function definitions of component source, parsed once per file.

    Each source file is read from ``linecache`` (after ``checkcache``, as
    ``inspect.findsource`` does) and parsed whole on first use; every
    ``def`` in it is indexed by its first line — the first decorator's
    line when it has decorators, which is the code object's
    ``co_firstlineno``.  A method's node is then found by line, not by
    name, and carries absolute line numbers as parsed.  An index lives as
    long as the call that builds it.
    """

    def __init__(self) -> None:
        self._files: Dict[str, Dict[int, ast.FunctionDef]] = {}

    def function(self, method: Callable) -> ast.FunctionDef:
        """The definition of ``method`` — a plain function or a
        ``@synchronized``/``@unsynchronized`` wrapper (the original is
        recovered from ``_vm_source_method``)."""
        original = inspect.unwrap(getattr(method, "_vm_source_method", method))
        code = original.__code__
        defs = self._files.get(code.co_filename)
        if defs is None:
            defs = _index_file(code.co_filename, original.__globals__)
            self._files[code.co_filename] = defs
        func = defs.get(code.co_firstlineno)
        if func is None:
            raise ValueError(f"cannot locate function definition for {method!r}")
        return func


def _index_file(
    filename: str, module_globals: Dict[str, object]
) -> Dict[int, ast.FunctionDef]:
    linecache.checkcache(filename)
    lines = linecache.getlines(filename, module_globals)
    if not lines:
        raise OSError(f"could not get source code of {filename}")
    tree = ast.parse("".join(lines), filename)
    return {_first_line(func): func for func in _defs(tree.body)}


def _defs(statements: Sequence[ast.AST]) -> Iterator[ast.FunctionDef]:
    """Every ``def`` among ``statements`` and the statement bodies nested
    in them.  A ``def`` is always a statement, so expressions are never
    entered."""
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            nested = getattr(node, field, None)
            if isinstance(nested, list):
                yield from _defs(nested)


def _first_line(func: ast.FunctionDef) -> int:
    """A ``def``'s first line: its first decorator's when it has any, as
    in the code object's ``co_firstlineno``."""
    return func.decorator_list[0].lineno if func.decorator_list else func.lineno


def method_source_ast(method: Callable) -> Tuple[ast.FunctionDef, int]:
    """Parse one method into an AST with *absolute* line numbers; returns
    ``(definition, first line)``.  Raises ``OSError`` when the source is
    unavailable."""
    func = FunctionIndex().function(method)
    return func, _first_line(func)


def _syscall_kind(expr: ast.expr) -> Optional[Tuple[NodeKind, Optional[str]]]:
    """If ``expr`` is ``Yield(Call(Wait|Notify|NotifyAll|Yield, ...))``,
    return (kind, monitor_arg_source); else None."""
    if not isinstance(expr, ast.Yield) or expr.value is None:
        return None
    call = expr.value
    if not isinstance(call, ast.Call):
        return None
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    else:
        return None
    kind = SYSCALL_NODE_KINDS.get(name)
    if kind is None:
        return None
    monitor = ast.unparse(call.args[0]) if call.args else None
    return kind, monitor


def _with_guard(entries: Set[_Entry], guard: str) -> Set[_Entry]:
    """Attach ``guard`` to entries that do not already carry one."""
    return {(name, g if g else guard) for name, g in entries}


def _replace_guard(entries: Set[_Entry], guard: str) -> Set[_Entry]:
    return {(name, guard) for name, _ in entries}


class _Scanner:
    """Recursive control-flow walk computing the region relation."""

    def __init__(self) -> None:
        self.result = ScanResult()
        self._nodes_by_loc: Dict[Tuple[NodeKind, int], CoFGNode] = {}
        self._loop_stack: List[Dict[str, Set[_Entry]]] = []

    def _add_node(
        self, kind: NodeKind, line: int, loop_cond: Optional[str]
    ) -> CoFGNode:
        # The loop fixpoint walks a body twice; the same source statement
        # must map to the same node, so nodes are keyed by (kind, line).
        existing = self._nodes_by_loc.get((kind, line))
        if existing is not None:
            return existing
        node = CoFGNode(kind, line, loop_cond, 0)
        self._nodes_by_loc[(kind, line)] = node
        self.result.nodes.append(node)
        return node

    def _edge(self, pred: str, succ: str, guard: str) -> None:
        pair = (pred, succ)
        if pair not in self.result.guards:
            self.result.edges.append(pair)
            self.result.guards[pair] = guard
        elif guard and not self.result.guards[pair]:
            self.result.guards[pair] = guard

    def _connect(self, entries: Set[_Entry], succ: str) -> None:
        for pred, guard in sorted(entries):
            self._edge(pred, succ, guard)

    def scan_statements(
        self,
        statements: Sequence[ast.stmt],
        frontier: Set[_Entry],
        loop_cond: Optional[str],
    ) -> Tuple[Set[_Entry], bool]:
        """Walk a statement list.

        Returns ``(exit_frontier, falls_through)``: the guard-carrying
        frontier at the end of the list and whether control can reach past
        it (False after an unconditional return/break/continue).
        """
        current = set(frontier)
        for statement in statements:
            if isinstance(statement, ast.Expr):
                found = _syscall_kind(statement.value)
                if found is not None:
                    kind, _monitor = found
                    node = self._add_node(kind, statement.lineno, loop_cond)
                    self._connect(current, node.name)
                    current = {(node.name, "")}
                continue
            if isinstance(statement, ast.Return):
                self._connect(current, "end")
                return set(), False
            if isinstance(statement, ast.Break):
                if self._loop_stack:
                    self._loop_stack[-1]["break"] |= current
                return set(), False
            if isinstance(statement, ast.Continue):
                if self._loop_stack:
                    self._loop_stack[-1]["continue"] |= current
                return set(), False
            if isinstance(statement, ast.If):
                condition = ast.unparse(statement.test)
                then_out, then_falls = self.scan_statements(
                    statement.body,
                    _with_guard(current, f"{condition} is True"),
                    loop_cond,
                )
                if statement.orelse:
                    else_out, else_falls = self.scan_statements(
                        statement.orelse,
                        _with_guard(current, f"{condition} is False"),
                        loop_cond,
                    )
                else:
                    else_out, else_falls = (
                        _with_guard(current, f"{condition} is False"),
                        True,
                    )
                current = (then_out if then_falls else set()) | (
                    else_out if else_falls else set()
                )
                if not then_falls and not else_falls:
                    return set(), False
                continue
            if isinstance(statement, (ast.While, ast.For)):
                exited = self._scan_loop(statement, current)
                current = exited
                continue
            if isinstance(statement, ast.Try):
                body_out, body_falls = self.scan_statements(
                    statement.body, current, loop_cond
                )
                merged = body_out if body_falls else set()
                for handler in statement.handlers:
                    handler_out, handler_falls = self.scan_statements(
                        handler.body, current | body_out, loop_cond
                    )
                    if handler_falls:
                        merged |= handler_out
                if statement.finalbody:
                    merged, fin_falls = self.scan_statements(
                        statement.finalbody, merged or current, loop_cond
                    )
                    if not fin_falls:
                        return set(), False
                current = merged if (merged or statement.finalbody) else current
                continue
            # Plain computation: does not interrupt the region.
        return current, True

    def _scan_loop(
        self, loop: ast.While | ast.For, frontier: Set[_Entry]
    ) -> Set[_Entry]:
        """Walk a loop to a region fixpoint (two passes: the second adds
        the back-edge regions such as wait -> wait)."""
        if isinstance(loop, ast.While):
            condition = ast.unparse(loop.test)
            is_infinite = (
                isinstance(loop.test, ast.Constant) and bool(loop.test.value)
            )
        else:
            condition = f"iterating {ast.unparse(loop.iter)}"
            is_infinite = False
        self._loop_stack.append({"break": set(), "continue": set()})
        entry = _with_guard(frontier, f"{condition} is True on entry")
        body_out, body_falls = self.scan_statements(loop.body, entry, condition)
        frame = self._loop_stack[-1]
        back = (body_out if body_falls else set()) | frame["continue"]
        if back:
            iterate = _replace_guard(back, f"{condition} is True on iteration")
            body_out2, body_falls2 = self.scan_statements(
                loop.body, iterate, condition
            )
            if body_falls2:
                body_out |= body_out2
        frame = self._loop_stack.pop()
        exits: Set[_Entry] = set(frame["break"])
        if not is_infinite:
            # Zero iterations (condition false on entry) or exit after some
            # complete iteration (condition false on re-test).
            exits |= _with_guard(frontier, f"{condition} is False")
            if body_falls or frame["continue"]:
                after = (body_out if body_falls else set()) | frame["continue"]
                exits |= _replace_guard(after, f"{condition} is False")
        if loop.orelse:
            else_out, else_falls = self.scan_statements(
                loop.orelse, exits or frontier, None
            )
            exits = (else_out if else_falls else set()) | frame["break"]
        return exits


def scan_method(func: ast.FunctionDef) -> ScanResult:
    """Scan one parsed component method (see :class:`FunctionIndex`),
    returning its concurrency statements and the guarded region
    (immediate-successor) relation."""
    scanner = _Scanner()
    frontier, falls = scanner.scan_statements(func.body, {("start", "")}, None)
    if falls:
        scanner._connect(frontier, "end")
    result = scanner.result
    result.first_line = func.body[0].lineno if func.body else func.lineno
    result.last_line = max(
        (getattr(s, "end_lineno", s.lineno) or s.lineno) for s in func.body
    )
    return result
