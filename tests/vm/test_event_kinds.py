"""The event-kind fast path: identity-hashed members, read through module
names in the modules every emitted event passes through."""

import ast
import pickle
from pathlib import Path

import pytest

import repro
from repro.vm.events import TRANSITION_OF_EVENT, EventKind

#: modules on the per-event path: the kernel, the detectors the pipeline
#: routes to, the symptom tracker and the instrumentation sink
HOT_MODULES = (
    "vm/kernel.py",
    "detect/online.py",
    "detect/eraser.py",
    "detect/vectorclock.py",
    "detect/waitgraph.py",
    "detect/lockgraph.py",
    "detect/starvation.py",
    "detect/contention.py",
    "detect/completion.py",
    "detect/reentry.py",
    "classify/symptoms.py",
    "obs/sink.py",
)

PACKAGE = Path(repro.__file__).parent


@pytest.mark.parametrize("kind", list(EventKind), ids=lambda k: k.name)
def test_pickle_round_trip_is_the_same_member(kind):
    """Worker frames carry kinds across processes."""
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(kind, protocol)) is kind


@pytest.mark.parametrize("kind", list(EventKind), ids=lambda k: k.name)
def test_kind_keyed_dict_lookup(kind):
    table = {k: k.value for k in EventKind}
    assert table[kind] == kind.value
    assert table.get(pickle.loads(pickle.dumps(kind))) == kind.value
    assert kind in frozenset(EventKind)


def test_hash_is_identity():
    """``Enum.__hash__`` is Python code; identity hashing keeps the emit
    filter, pipeline routes and sink table lookups in C."""
    assert EventKind.__hash__ is object.__hash__
    for kind in EventKind:
        assert type(kind).__hash__ is object.__hash__
        assert hash(kind) == object.__hash__(kind)
    assert TRANSITION_OF_EVENT.get(EventKind.MONITOR_WAIT) == "T3"


def _function_body_member_reads(tree: ast.AST):
    """``EventKind.<MEMBER>`` loads inside any function body (nested
    functions included; decorators, defaults and annotations excluded)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            for statement in body:
                for inner in ast.walk(statement):
                    if (
                        isinstance(inner, ast.Attribute)
                        and isinstance(inner.ctx, ast.Load)
                        and isinstance(inner.value, ast.Name)
                        and inner.value.id == "EventKind"
                        and inner.attr in EventKind.__members__
                    ):
                        yield inner.lineno, inner.attr


@pytest.mark.parametrize("module", HOT_MODULES)
def test_hot_modules_read_kinds_through_module_names(module):
    """Reading ``EventKind.X`` goes through ``EnumType.__getattr__`` on
    every access before Python 3.12; function bodies of the hot modules
    read module-level names bound once at import instead.  Module- and
    class-level reads (such as ``kinds`` declarations) are allowed."""
    path = PACKAGE / module
    reads = sorted(set(_function_body_member_reads(ast.parse(path.read_text()))))
    assert not reads, [f"{module}:{line} EventKind.{name}" for line, name in reads]


def test_member_read_check_sees_a_violation():
    """The AST check above is not vacuous."""
    source = (
        "K = EventKind.READ\n"
        "class C:\n"
        "    kinds = frozenset({EventKind.WRITE})\n"
        "    def on_event(self, event):\n"
        "        def inner():\n"
        "            return EventKind.YIELD\n"
        "        return event.kind is EventKind.READ\n"
    )
    assert sorted(set(_function_body_member_reads(ast.parse(source)))) == [
        (6, "YIELD"),
        (7, "READ"),
    ]
