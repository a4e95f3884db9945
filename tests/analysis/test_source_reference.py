"""Differential check of the analysis layer's source path.

The analysis layer parses each source file once and finds a method's
``def`` by its first line (:class:`repro.analysis.astscan.FunctionIndex`).
The reference below is the per-method path it replaced: ``getsource``,
``dedent``, ``parse`` and ``increment_lineno`` on one method at a time.
Every component whose source the reference can parse must get the same
findings, scans and CoFGs from both.
"""

import ast
import inspect
import textwrap

import pytest

from repro.analysis import (
    build_all_cofgs,
    check_component,
    component_methods,
    method_source_ast,
    scan_method,
)
from repro.analysis.astscan import FunctionIndex
from repro.components import (
    BoundedBuffer,
    CountDownLatch,
    ProducerConsumer,
    Semaphore,
    TaskQueue,
)
from repro.corpus import CORPUS_DRIVERS, generate_corpus, load_corpus, mutant
from repro.corpus import mutation_sites
from repro.run.registry import COMPONENTS, load_builtins

#: the components whose every mutant test_mutation_properties.py sweeps
MUTATED = (ProducerConsumer, BoundedBuffer, Semaphore, CountDownLatch, TaskQueue)


def reference_method_ast(method):
    """One method's ``def`` with absolute line numbers, parsed from its
    own dedented source (the per-method path)."""
    original = getattr(method, "_vm_source_method", method)
    original = inspect.unwrap(original)
    source = inspect.getsource(original)
    first_line = original.__code__.co_firstlineno
    func = ast.parse(textwrap.dedent(source)).body[0]
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise ValueError(f"cannot locate function definition for {method!r}")
    anchor = func.decorator_list[0].lineno if func.decorator_list else func.lineno
    ast.increment_lineno(func, first_line - anchor)
    return func


def analyse(cls):
    """Everything the analysis layer derives from ``cls``'s source:
    finding lines, each method's scan and each CoFG's description."""
    findings = [str(f) for f in check_component(cls)]
    cofgs = build_all_cofgs(cls)
    return {
        "findings": findings,
        **{
            # ScanResult equality covers nodes (with their lines), edges,
            # guards, first_line and last_line
            f"{name} scan": scan_method(method_source_ast(getattr(cls, name))[0])
            for name in component_methods(cls)
        },
        **{f"{name} cofg": cofg.describe() for name, cofg in cofgs.items()},
    }


@pytest.fixture
def compare(monkeypatch):
    """``compare(classes)`` -> the classes whose analysis differs between
    the per-file index and the per-method reference path."""

    def differing(classes):
        indexed = [analyse(cls) for cls in classes]
        with monkeypatch.context() as patch:
            patch.setattr(
                FunctionIndex, "function", lambda _, m: reference_method_ast(m)
            )
            reference = [analyse(cls) for cls in classes]
        return [
            f"{cls.__name__}: {key}"
            for cls, a, b in zip(classes, indexed, reference)
            for key in a
            if a[key] != b[key]
        ]

    return differing


def test_registered_components_match_reference(compare):
    load_builtins()
    classes = [COMPONENTS.get(name) for name in COMPONENTS.names()]
    assert {"NativeSemaphore", "UnsyncCounter", "ProducerConsumer"} <= {
        cls.__name__ for cls in classes
    }
    assert compare(classes) == []


def test_corpus_variants_match_reference(compare):
    records = generate_corpus(list(CORPUS_DRIVERS))
    loaded = load_corpus(records, register=False)
    assert len(loaded) == 94
    assert compare(list(loaded.values())) == []


@pytest.mark.parametrize("parent", MUTATED, ids=lambda cls: cls.__name__)
def test_mutants_match_reference(parent, compare):
    sites = mutation_sites(parent)
    assert sites
    assert compare([mutant(parent, site.label) for site in sites]) == []


def test_ev_int_lines_match_reference(compare):
    """The EV-INT finding names an absolute line: both paths agree on it."""
    load_builtins()
    cls = COMPONENTS.get("InterruptSwallowingProducerConsumer")
    findings = [str(f) for f in check_component(cls)]
    assert any("[EV-INT]" in line and "at line" in line for line in findings)
    assert compare([cls]) == []
