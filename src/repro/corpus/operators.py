"""AST-level mutation operators that inject Table-1 failure classes.

Each operator rewrites one *site* in a correct monitor component's source
to reproduce, mechanically, a deviation the paper's HAZOP study seeded by
hand (the ``components/faulty/*`` pairs are the oracle exemplars — e.g.
``wait_if`` is exactly the ``IfGuardProducerConsumer`` edit, applied to
any guarded wait in any component):

========================  =======================  ====================
operator                  edit                     expected class(es)
========================  =======================  ====================
``wait_if``               ``while g: wait`` →      EF-T5
                          ``if g: wait``
``notify_single``         ``notify_all`` →         FF-T5
                          ``notify``
``drop_notify``           delete a notify          FF-T5
``dup_notify``            duplicate a notify       *(none — control)*
``lock_shuffle``          drop the ``sorted``      FF-T2, FF-T4
                          lock-ordering step
``drop_release``          delete an explicit       FF-T4
                          ``Release``
``over_sync``             add a synchronized       EF-T1
                          method around nothing
``unsync``                ``@synchronized`` →      FF-T1
                          ``@unsynchronized``
``swallow_interrupt``     wrap a ``yield Wait``    EV-INT
                          in ``except
                          InterruptedError: pass``
``sem_release_drop``      ``yield SemRelease`` →   FF-S3
                          return without
                          releasing
``drop_wait``             delete a guarded wait    FF-T3 *(not swept)*
                          loop
``wait_spin``             ``yield Wait()`` of a    FF-T4 *(not swept)*
                          guarded loop →
                          ``yield Yield()``
``extra_wait``            insert ``yield Wait()``  EF-T3 *(not swept)*
                          before a synchronized
                          method's last statement
========================  =======================  ====================

``unsync`` only applies to methods with no monitor syscalls (a wait or
notify without the lock would crash, masking the intended interference
failure); ``dup_notify`` deliberately expects *nothing* — an extra
``notify_all`` is benign, and these variants act as sweep controls.
The last three operators seed tests and examples but are kept out of
the generated corpus (see :mod:`repro.corpus.generate`).

Operators work on the component's :class:`ast.ClassDef`; an *applied*
mutation is rejected upstream when it does not change the unparsed
source (no-op safety).
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = [
    "MutationError",
    "MutationOperator",
    "MutationSite",
    "OPERATORS",
    "apply_site",
    "discover_sites",
    "mutate_in_place",
]

_NOTIFY_NAMES = ("Notify", "NotifyAll")
#: name of the method :data:`over_sync` grafts onto the class
PROBE_METHOD = "corpus_probe"


class MutationError(ValueError):
    """A mutation site could not be applied to the given class AST."""


@dataclass(frozen=True)
class MutationSite:
    """One applicable location of one operator within a component."""

    operator: str
    #: method name; ``"cls"`` for class-level operators
    method: str
    #: ordinal among this operator's sites in that method (source order)
    index: int

    @property
    def label(self) -> str:
        return f"{self.operator}@{self.method}#{self.index}"


def _methods(cls: ast.ClassDef) -> List[ast.FunctionDef]:
    return [node for node in cls.body if isinstance(node, ast.FunctionDef)]


def _stmt_lists(stmts: List[ast.stmt]) -> Iterator[List[ast.stmt]]:
    """Every statement list under ``stmts``, in source order."""
    yield stmts
    for stmt in stmts:
        for attr in ("body", "orelse", "finalbody"):
            child = getattr(stmt, attr, None)
            if child:
                yield from _stmt_lists(child)


def _yield_call_name(stmt: ast.stmt) -> str:
    """The syscall name when ``stmt`` is ``yield SomeCall(...)``, else ``""``."""
    if (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Yield)
        and isinstance(stmt.value.value, ast.Call)
        and isinstance(stmt.value.value.func, ast.Name)
    ):
        return stmt.value.value.func.id
    return ""


def _is_wait_loop(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.While)
        and not stmt.orelse
        and bool(stmt.body)
        and all(_yield_call_name(s) == "Wait" for s in stmt.body)
    )


def _count(func: ast.FunctionDef, predicate: Callable[[ast.stmt], bool]) -> int:
    return sum(
        1 for stmts in _stmt_lists(func.body) for s in stmts if predicate(s)
    )


def _rewrite_nth(
    func: ast.FunctionDef,
    predicate: Callable[[ast.stmt], bool],
    index: int,
    replacement: Callable[[ast.stmt], List[ast.stmt]],
) -> bool:
    """Replace the ``index``-th matching statement (source order) with the
    statements ``replacement`` returns; empties become ``pass``."""
    seen = 0
    for stmts in _stmt_lists(func.body):
        for i, stmt in enumerate(stmts):
            if not predicate(stmt):
                continue
            if seen == index:
                new = replacement(stmt)
                if not new and len(stmts) == 1:
                    new = [ast.Pass()]
                stmts[i : i + 1] = new
                return True
            seen += 1
    return False


def _has_yield(func: ast.FunctionDef) -> bool:
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(func)
    )


def _touches_self(func: ast.FunctionDef) -> bool:
    self_name = func.args.args[0].arg if func.args.args else "self"
    return any(
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
        and not node.attr.startswith("_")
        for node in ast.walk(func)
    )


def _decorator_name(func: ast.FunctionDef) -> str:
    for deco in func.decorator_list:
        if isinstance(deco, ast.Name):
            return deco.id
    return ""


def _sorted_lock_order(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Assign)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == "sorted"
        and bool(stmt.value.args)
    )


@dataclass(frozen=True)
class MutationOperator:
    """One named source rewrite, tagged with the Table-1 classes it injects."""

    name: str
    #: failure-class codes this mutation is expected to make detectable
    #: (empty for control operators)
    expected: Tuple[str, ...]
    description: str
    count_sites: Callable[[ast.FunctionDef], int]
    mutate: Callable[[ast.FunctionDef, int], bool]
    class_level: bool = False


def _count_wait_loops(func: ast.FunctionDef) -> int:
    return _count(func, _is_wait_loop)


def _apply_wait_if(func: ast.FunctionDef, index: int) -> bool:
    def weaken(stmt: ast.stmt) -> List[ast.stmt]:
        assert isinstance(stmt, ast.While)
        return [ast.If(test=stmt.test, body=stmt.body, orelse=[])]

    return _rewrite_nth(func, _is_wait_loop, index, weaken)


def _count_notify_all(func: ast.FunctionDef) -> int:
    return _count(func, lambda s: _yield_call_name(s) == "NotifyAll")


def _apply_notify_single(func: ast.FunctionDef, index: int) -> bool:
    def narrow(stmt: ast.stmt) -> List[ast.stmt]:
        stmt.value.value.func.id = "Notify"  # type: ignore[attr-defined]
        return [stmt]

    return _rewrite_nth(
        func, lambda s: _yield_call_name(s) == "NotifyAll", index, narrow
    )


def _count_notify(func: ast.FunctionDef) -> int:
    return _count(func, lambda s: _yield_call_name(s) in _NOTIFY_NAMES)


def _apply_drop_notify(func: ast.FunctionDef, index: int) -> bool:
    return _rewrite_nth(
        func,
        lambda s: _yield_call_name(s) in _NOTIFY_NAMES,
        index,
        lambda stmt: [],
    )


def _apply_dup_notify(func: ast.FunctionDef, index: int) -> bool:
    return _rewrite_nth(
        func,
        lambda s: _yield_call_name(s) in _NOTIFY_NAMES,
        index,
        lambda stmt: [stmt, copy.deepcopy(stmt)],
    )


def _count_lock_shuffle(func: ast.FunctionDef) -> int:
    acquires = _count(func, lambda s: _yield_call_name(s) == "Acquire")
    if acquires < 2:
        return 0
    return _count(func, _sorted_lock_order)


def _apply_lock_shuffle(func: ast.FunctionDef, index: int) -> bool:
    def drop_ordering(stmt: ast.stmt) -> List[ast.stmt]:
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.value, ast.Call)
        stmt.value = stmt.value.args[0]
        return [stmt]

    return _rewrite_nth(func, _sorted_lock_order, index, drop_ordering)


def _count_release(func: ast.FunctionDef) -> int:
    return _count(func, lambda s: _yield_call_name(s) == "Release")


def _apply_drop_release(func: ast.FunctionDef, index: int) -> bool:
    return _rewrite_nth(
        func,
        lambda s: _yield_call_name(s) == "Release",
        index,
        lambda stmt: [],
    )


def _count_unsync(func: ast.FunctionDef) -> int:
    applicable = (
        _decorator_name(func) == "synchronized"
        and not _has_yield(func)
        and _touches_self(func)
    )
    return 1 if applicable else 0


def _apply_unsync(func: ast.FunctionDef, index: int) -> bool:
    if index != 0 or _count_unsync(func) == 0:
        return False
    for deco in func.decorator_list:
        if isinstance(deco, ast.Name) and deco.id == "synchronized":
            deco.id = "unsynchronized"
            return True
    return False


_PROBE_SOURCE = f'''\
@synchronized
def {PROBE_METHOD}(self):
    """Injected over-synchronization: a lock that guards no shared state."""
    return 0
'''


def _apply_over_sync(cls: ast.ClassDef) -> bool:
    if any(func.name == PROBE_METHOD for func in _methods(cls)):
        return False
    probe = ast.parse(_PROBE_SOURCE).body[0]
    cls.body.append(probe)
    return True


def _count_wait_yield(func: ast.FunctionDef) -> int:
    return _count(func, lambda s: _yield_call_name(s) == "Wait")


def _apply_swallow_interrupt(func: ast.FunctionDef, index: int) -> bool:
    def wrap(stmt: ast.stmt) -> List[ast.stmt]:
        handler = ast.ExceptHandler(
            type=ast.Name(id="InterruptedError", ctx=ast.Load()),
            name=None,
            body=[ast.Pass()],
        )
        return [
            ast.Try(body=[stmt], handlers=[handler], orelse=[], finalbody=[])
        ]

    return _rewrite_nth(
        func, lambda s: _yield_call_name(s) == "Wait", index, wrap
    )


def _count_sem_release(func: ast.FunctionDef) -> int:
    return _count(func, lambda s: _yield_call_name(s) == "SemRelease")


def _apply_sem_release_drop(func: ast.FunctionDef, index: int) -> bool:
    def drop(stmt: ast.stmt) -> List[ast.stmt]:
        # `return` + unreachable bare yield: the method stays a generator
        # (the kernel drives it with `yield from`) but the permit is never
        # returned to the pool — exactly the LostPermitSemaphore defect.
        return [
            ast.Return(value=ast.Constant(value=None)),
            ast.Expr(value=ast.Yield(value=None)),
        ]

    return _rewrite_nth(
        func, lambda s: _yield_call_name(s) == "SemRelease", index, drop
    )


def _syscall_stmt(name: str) -> ast.stmt:
    """``yield <name>()`` as a statement."""
    call = ast.Call(func=ast.Name(id=name, ctx=ast.Load()), args=[], keywords=[])
    return ast.Expr(value=ast.Yield(value=call))


def _apply_drop_wait(func: ast.FunctionDef, index: int) -> bool:
    return _rewrite_nth(func, _is_wait_loop, index, lambda stmt: [])


def _apply_wait_spin(func: ast.FunctionDef, index: int) -> bool:
    def spin(stmt: ast.stmt) -> List[ast.stmt]:
        assert isinstance(stmt, ast.While)
        stmt.body = [_syscall_stmt("Yield") for _ in stmt.body]
        return [stmt]

    return _rewrite_nth(func, _is_wait_loop, index, spin)


def _count_extra_wait(func: ast.FunctionDef) -> int:
    # a wait needs the lock: on an unsynchronized method it would crash
    return 1 if _decorator_name(func) == "synchronized" else 0


def _apply_extra_wait(func: ast.FunctionDef, index: int) -> bool:
    if index != 0 or _count_extra_wait(func) == 0:
        return False
    func.body.insert(len(func.body) - 1, _syscall_stmt("Wait"))
    return True


def _zero(_func: ast.FunctionDef) -> int:
    return 0


def _never(_func: ast.FunctionDef, _index: int) -> bool:
    return False


#: The operator suite, keyed by name (iteration order = table order).
OPERATORS: Dict[str, MutationOperator] = {
    op.name: op
    for op in (
        MutationOperator(
            "wait_if",
            ("EF-T5",),
            "weaken a guarded wait loop from 'while' to 'if'",
            _count_wait_loops,
            _apply_wait_if,
        ),
        MutationOperator(
            "notify_single",
            ("FF-T5",),
            "replace notify_all with single notify",
            _count_notify_all,
            _apply_notify_single,
        ),
        MutationOperator(
            "drop_notify",
            ("FF-T5",),
            "delete a notify/notify_all",
            _count_notify,
            _apply_drop_notify,
        ),
        MutationOperator(
            "dup_notify",
            (),
            "duplicate a notify (benign control)",
            _count_notify,
            _apply_dup_notify,
        ),
        MutationOperator(
            "lock_shuffle",
            ("FF-T2", "FF-T4"),
            "drop the global lock-ordering step on nested acquires",
            _count_lock_shuffle,
            _apply_lock_shuffle,
        ),
        MutationOperator(
            "drop_release",
            ("FF-T4",),
            "delete an explicit lock release",
            _count_release,
            _apply_drop_release,
        ),
        MutationOperator(
            "over_sync",
            ("EF-T1",),
            "add a synchronized method that guards nothing",
            _zero,
            _never,
            class_level=True,
        ),
        MutationOperator(
            "unsync",
            ("FF-T1",),
            "strip synchronization from a syscall-free method",
            _count_unsync,
            _apply_unsync,
        ),
        MutationOperator(
            "swallow_interrupt",
            ("EV-INT",),
            "wrap a wait in 'except InterruptedError: pass'",
            _count_wait_yield,
            _apply_swallow_interrupt,
        ),
        MutationOperator(
            "sem_release_drop",
            ("FF-S3",),
            "drop a semaphore release, leaking the permit",
            _count_sem_release,
            _apply_sem_release_drop,
        ),
        MutationOperator(
            "drop_wait",
            ("FF-T3",),
            "delete a guarded wait loop",
            _count_wait_loops,
            _apply_drop_wait,
        ),
        MutationOperator(
            "wait_spin",
            ("FF-T4",),
            "turn a guarded wait into a spinning yield",
            _count_wait_loops,
            _apply_wait_spin,
        ),
        MutationOperator(
            "extra_wait",
            ("EF-T3",),
            "insert a wait before a synchronized method's last statement",
            _count_extra_wait,
            _apply_extra_wait,
        ),
    )
}


def discover_sites(cls: ast.ClassDef) -> List[MutationSite]:
    """Every applicable mutation site of every operator, deterministically
    ordered (operator table order, then method source order)."""
    sites: List[MutationSite] = []
    for op in OPERATORS.values():
        if op.class_level:
            sites.append(MutationSite(op.name, "cls", 0))
            continue
        for func in _methods(cls):
            for index in range(op.count_sites(func)):
                sites.append(MutationSite(op.name, func.name, index))
    return sites


def apply_site(cls: ast.ClassDef, site: MutationSite) -> ast.ClassDef:
    """A deep copy of ``cls`` with ``site``'s mutation applied."""
    mutated = copy.deepcopy(cls)
    mutate_in_place(mutated, site)
    return ast.fix_missing_locations(mutated)


def mutate_in_place(cls: ast.ClassDef, site: MutationSite) -> None:
    """Apply ``site``'s mutation to ``cls`` itself, for a caller that owns
    the tree (it parsed it) and so needs no copy.  New nodes are left
    without source locations: ``ast.unparse`` needs none."""
    op = OPERATORS.get(site.operator)
    if op is None:
        raise MutationError(f"unknown mutation operator {site.operator!r}")
    if op.class_level:
        applied = site.method == "cls" and site.index == 0 and _apply_over_sync(cls)
    else:
        applied = False
        for func in _methods(cls):
            if func.name == site.method:
                applied = op.mutate(func, site.index)
                break
    if not applied:
        raise MutationError(
            f"site {site.label} does not exist on class {cls.name!r}"
        )
