"""Corpus generation: labeled mutant components from correct parents.

:func:`generate_corpus` applies the :mod:`repro.corpus.operators` suite
to registered correct components and emits one :class:`VariantRecord`
per distinct mutant — the labeled ground truth a detection-rate sweep
measures against.  Per component the corpus contains:

* a **baseline** (the unmutated class recompiled through the same
  pipeline — a control for the machinery itself);
* every **first-order** mutant (one operator, one site);
* **cross-method pairs** of the synchronization-protocol operators
  (wait/notify edits in *different* methods), capped deterministically —
  compound faults whose expected classes are the union of the parts.

A variant is identified by ``"<Parent>~<site>[+<site>...]"`` (e.g.
``"BoundedBuffer~wait_if@put#0"``) and registered in the PR-4
``COMPONENTS`` registry under exactly that id, so a ``RunConfig`` can
name a mutant the same way it names any component.  The manifest is
JSONL — a header line then one record per line (see ``docs/formats.md``)
— and records a SHA-256 digest of each variant's generated source;
:func:`load_corpus` recompiles variants *from the parent source* and
refuses to register a variant whose recompiled digest disagrees (the
manifest and the checked-out components must match).

Everything here is deterministic: same component set in, byte-identical
manifest out.  Compiled variants carry their generated source in
``linecache`` (under a ``<corpus:...>`` filename), so downstream
source-introspecting analyses (CoFG construction, the T1 static checks)
work on mutants exactly as they do on hand-written components.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import linecache
import sys
import textwrap
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Set, Tuple, Type

from repro.run.registry import COMPONENTS, close_matches, load_builtins

from .operators import (
    OPERATORS,
    MutationError,
    MutationSite,
    discover_sites,
    mutate_in_place,
)

__all__ = [
    "CORPUS_DRIVERS",
    "CorpusError",
    "VariantRecord",
    "compile_variant",
    "generate_corpus",
    "load_corpus",
    "mutant",
    "mutation_sites",
    "parse_site",
    "read_manifest",
    "resolve_component_name",
    "write_manifest",
]

MANIFEST_SCHEMA = "repro-corpus-manifest"
MANIFEST_VERSION = 1

#: parent component -> workload template that drives it in sweeps
CORPUS_DRIVERS: Dict[str, str] = {
    "BoundedBuffer": "buffer",
    "ReadersWriters": "rw",
    "ProducerConsumer": "pc",
    "OrderedPair": "pair",
}

#: operators eligible for cross-method pairing (the synchronization
#: protocol edits; structural operators pair poorly — e.g. two ``unsync``
#: sites collapse into the same static finding)
_PAIRABLE = ("wait_if", "notify_single", "drop_notify", "dup_notify")

#: operators that seed tests and examples but never enter the corpus:
#: sweeping them would change the ``corpus-sweep`` benchmark workload and
#: its pinned digest, which is a benchmark change of its own
_UNSWEPT = ("drop_wait", "wait_spin", "extra_wait")

#: cross-method pairs kept per component (deterministic prefix)
DEFAULT_PAIR_CAP = 20


class CorpusError(ValueError):
    """Corpus generation or loading failed."""


@dataclass(frozen=True)
class VariantRecord:
    """One manifest line: a labeled corpus variant."""

    variant_id: str
    parent: str
    class_name: str
    workload: str
    operators: Tuple[str, ...]
    expected: Tuple[str, ...]
    digest: str

    @property
    def is_control(self) -> bool:
        """Baselines and benign mutations: no failure class expected."""
        return not self.expected

    def to_dict(self) -> Dict[str, Any]:
        return {
            "variant_id": self.variant_id,
            "parent": self.parent,
            "class_name": self.class_name,
            "workload": self.workload,
            "operators": list(self.operators),
            "expected": list(self.expected),
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VariantRecord":
        try:
            return cls(
                variant_id=str(data["variant_id"]),
                parent=str(data["parent"]),
                class_name=str(data["class_name"]),
                workload=str(data["workload"]),
                operators=tuple(data["operators"]),
                expected=tuple(data["expected"]),
                digest=str(data["digest"]),
            )
        except KeyError as exc:
            raise CorpusError(f"manifest record missing field {exc}") from None


def parse_site(label: str) -> MutationSite:
    """Invert :attr:`MutationSite.label` (``"wait_if@put#0"``)."""
    try:
        operator, rest = label.split("@", 1)
        method, index = rest.rsplit("#", 1)
        return MutationSite(operator, method, int(index))
    except ValueError:
        raise CorpusError(f"malformed mutation-site label {label!r}") from None


def resolve_component_name(name: str) -> str:
    """Resolve a possibly snake_case spelling (``bounded_buffer``) to the
    registered component name (``BoundedBuffer``)."""
    load_builtins()
    names = COMPONENTS.names()
    if name in names:
        return name
    key = name.replace("_", "").casefold()
    for registered in names:
        if registered.replace("_", "").casefold() == key:
            return registered
    near = close_matches(name, names)
    nearest = f"did you mean {', '.join(near)}? " if near else ""
    raise CorpusError(
        f"unknown component {name!r} ({nearest}known: {', '.join(names)})"
    )


def _parent_source(cls: Type[Any]) -> str:
    """The class's source text.  Read it once per corpus call: every
    variant parses it afresh with :func:`_class_ast`."""
    return textwrap.dedent(inspect.getsource(cls))


def _class_ast(cls: Type[Any], source: str) -> ast.ClassDef:
    """A fresh tree of ``cls`` from its :func:`_parent_source` text —
    never shared, since mutation edits it in place."""
    node = ast.parse(source).body[0]
    if not isinstance(node, ast.ClassDef):
        raise CorpusError(f"cannot locate class definition for {cls!r}")
    return node


def _sanitize(label: str) -> str:
    return label.replace("@", "_").replace("#", "_").replace("+", "__")


def _class_name(parent: str, labels: Tuple[str, ...]) -> str:
    suffix = "__".join(_sanitize(label) for label in labels) or "baseline"
    return f"{parent}__{suffix}"


def _variant_id(parent: str, labels: Tuple[str, ...]) -> str:
    return f"{parent}~{'+'.join(labels) or 'baseline'}"


def _build_source(
    parent_cls: Type[Any], parent_source: str, labels: Tuple[str, ...]
) -> Tuple[str, str, str]:
    """(source text, digest, pre-rename body) of the variant: the parent
    class with each labeled mutation applied in order, renamed for
    registration.  The pre-rename body supports no-op detection — it is
    comparable against the parent's own unparsed source."""
    node = _class_ast(parent_cls, parent_source)
    for label in labels:
        mutate_in_place(node, parse_site(label))
    body = ast.unparse(node)
    node.name = _class_name(parent_cls.__name__, labels)
    source = ast.unparse(node) + "\n"
    digest = hashlib.sha256(source.encode()).hexdigest()
    return source, digest, body


def _exec_namespace(parent_cls: Type[Any]) -> Dict[str, Any]:
    from repro.vm import (
        Acquire,
        MonitorComponent,
        Notify,
        NotifyAll,
        Release,
        Wait,
        Yield,
        synchronized,
        unsynchronized,
    )

    module = sys.modules.get(parent_cls.__module__)
    namespace: Dict[str, Any] = dict(vars(module)) if module else {}
    namespace.update(
        {
            "Acquire": Acquire,
            "MonitorComponent": MonitorComponent,
            "Notify": Notify,
            "NotifyAll": NotifyAll,
            "Release": Release,
            "Wait": Wait,
            "Yield": Yield,
            "synchronized": synchronized,
            "unsynchronized": unsynchronized,
        }
    )
    return namespace


def _compile_class(
    parent_cls: Type[Any], source: str, class_name: str, variant_id: str
) -> Type[Any]:
    """Exec a variant's generated source and return its class."""
    filename = f"<corpus:{variant_id}>"
    namespace = _exec_namespace(parent_cls)
    code = compile(source, filename, "exec")
    exec(code, namespace)
    # Source-introspecting analyses (CoFG, static checks) read methods'
    # files from linecache; seed it so that works for exec'd classes.
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(True),
        filename,
    )
    cls = namespace[class_name]
    if not isinstance(cls, type):  # pragma: no cover - exec always binds a class
        raise CorpusError(f"variant {variant_id!r} did not compile to a class")
    cls.__corpus_variant__ = variant_id  # type: ignore[attr-defined]
    return cls


def compile_variant(parent_cls: Type[Any], record: VariantRecord) -> Type[Any]:
    """Recompile a manifest record into a loadable component class.

    The recompiled source's digest must match the manifest's — a mismatch
    means the checked-out parent (or the operator suite) changed since
    the manifest was generated, and the corpus labels can no longer be
    trusted.
    """
    return _compile_record(parent_cls, _parent_source(parent_cls), record)


def _compile_record(
    parent_cls: Type[Any], parent_source: str, record: VariantRecord
) -> Type[Any]:
    source, digest, _ = _build_source(parent_cls, parent_source, record.operators)
    if digest != record.digest:
        raise CorpusError(
            f"variant {record.variant_id!r}: source digest mismatch "
            f"(manifest {record.digest[:12]}..., recompiled {digest[:12]}...); "
            f"regenerate the manifest"
        )
    return _compile_class(
        parent_cls, source, record.class_name, record.variant_id
    )


def mutant(parent_cls: Type[Any], *labels: str) -> Type[Any]:
    """``parent_cls`` recompiled with each labeled site (``"wait_if@put#0"``)
    applied in order.

    The result is a fresh class, not a subclass of ``parent_cls``.  Its
    source is registered in ``linecache`` like a corpus variant's, so CoFG
    construction and coverage work on it.  Raises :class:`CorpusError`
    for a malformed label and :class:`MutationError` for a site the
    parent does not have.
    """
    source, _, _ = _build_source(parent_cls, _parent_source(parent_cls), labels)
    parent = parent_cls.__name__
    return _compile_class(
        parent_cls, source, _class_name(parent, labels), _variant_id(parent, labels)
    )


def mutation_sites(parent_cls: Type[Any]) -> List[MutationSite]:
    """Every mutation site of every operator on ``parent_cls``."""
    return discover_sites(_class_ast(parent_cls, _parent_source(parent_cls)))


def _expected_for(labels: Iterable[str]) -> Tuple[str, ...]:
    codes: Set[str] = set()
    for label in labels:
        codes.update(OPERATORS[parse_site(label).operator].expected)
    return tuple(sorted(codes))


def _variants_for(
    parent_name: str, pair_cap: int
) -> List[VariantRecord]:
    parent_cls = COMPONENTS.get(parent_name)
    workload = CORPUS_DRIVERS.get(parent_name)
    if workload is None:
        known = ", ".join(sorted(CORPUS_DRIVERS))
        raise CorpusError(
            f"no sweep workload is defined for component {parent_name!r} "
            f"(corpus parents: {known})"
        )
    parent_source = _parent_source(parent_cls)
    parent_node = _class_ast(parent_cls, parent_source)
    parent_body = ast.unparse(parent_node)
    sites = discover_sites(parent_node)

    records: List[VariantRecord] = []
    digests: Set[str] = set()

    def add(labels: Tuple[str, ...]) -> None:
        source, digest, body = _build_source(parent_cls, parent_source, labels)
        if digest in digests:
            return
        # no-op safety: a "mutation" that reproduces the parent source
        # injects nothing and must not carry a failure label
        if labels and body == parent_body:
            return
        digests.add(digest)
        records.append(
            VariantRecord(
                variant_id=_variant_id(parent_name, labels),
                parent=parent_name,
                class_name=_class_name(parent_name, labels),
                workload=workload,
                operators=labels,
                expected=_expected_for(labels),
                digest=digest,
            )
        )

    add(())  # baseline control
    applicable: List[MutationSite] = []
    for site in sites:
        if site.operator in _UNSWEPT:
            continue
        try:
            add((site.label,))
            applicable.append(site)
        except MutationError:
            continue

    pairs = 0
    pairable = [s for s in applicable if s.operator in _PAIRABLE]
    for i, first in enumerate(pairable):
        for second in pairable[i + 1 :]:
            if first.method == second.method:
                continue
            if pairs >= pair_cap:
                break
            before = len(records)
            add((first.label, second.label))
            if len(records) > before:
                pairs += 1
        if pairs >= pair_cap:
            break
    return records


def generate_corpus(
    components: Iterable[str], pair_cap: int = DEFAULT_PAIR_CAP
) -> List[VariantRecord]:
    """Generate the labeled variant corpus for the named components.

    ``components`` accepts registered names or snake_case spellings;
    the result is deterministic for a given component set and order.
    """
    load_builtins()
    records: List[VariantRecord] = []
    for name in components:
        records.extend(_variants_for(resolve_component_name(name), pair_cap))
    if not records:
        raise CorpusError("no components given: nothing to generate")
    return records


def write_manifest(records: List[VariantRecord], path: str) -> None:
    header = {
        "schema": MANIFEST_SCHEMA,
        "version": MANIFEST_VERSION,
        "components": sorted({r.parent for r in records}),
        "variants": len(records),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def read_manifest(path: str) -> List[VariantRecord]:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise CorpusError(f"manifest {path!r} is empty")
    header = json.loads(lines[0])
    if header.get("schema") != MANIFEST_SCHEMA:
        raise CorpusError(
            f"{path!r} is not a corpus manifest (schema "
            f"{header.get('schema')!r}, expected {MANIFEST_SCHEMA!r})"
        )
    if int(header.get("version", 0)) > MANIFEST_VERSION:
        raise CorpusError(
            f"manifest version {header.get('version')} is newer than this "
            f"tool understands ({MANIFEST_VERSION})"
        )
    return [VariantRecord.from_dict(json.loads(line)) for line in lines[1:]]


def load_corpus(
    records: Iterable[VariantRecord],
    register: bool = True,
) -> Dict[str, Type[Any]]:
    """Recompile every variant (digest-verified) and, by default, register
    each in ``COMPONENTS`` under its variant id."""
    load_builtins()
    loaded: Dict[str, Type[Any]] = {}
    sources: Dict[str, str] = {}
    for record in records:
        parent_cls = COMPONENTS.get(record.parent)
        if record.parent not in sources:
            sources[record.parent] = _parent_source(parent_cls)
        cls = _compile_record(parent_cls, sources[record.parent], record)
        loaded[record.variant_id] = cls
        if register:
            COMPONENTS.add(record.variant_id, cls, replace=True)
    return loaded
