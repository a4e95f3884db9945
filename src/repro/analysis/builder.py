"""CoFG construction (paper Section 6).

:func:`build_cofg` statically analyses one component method and produces
its Concurrency Flow Graph: the scanner (:mod:`repro.analysis.astscan`)
finds the concurrency statements and the guarded region relation, and this
module adds the synthetic START/END nodes and annotates every arc with the
Figure-1 transition firings its region exercises.

Transition attribution
----------------------

Each arc's firing sequence is composed of a contribution from its source
statement and one from its destination statement:

=============  ==================  =================
node           as source           as destination
=============  ==================  =================
START          T1, T2 (enter, acquire)   —
WAIT           T3, T5, T2 (suspend, notified, reacquire)   T3
NOTIFY(.ALL)   T5 (causes waiters' T5)   T5
END            —                   T4 (release)
=============  ==================  =================

Checked against the paper's Figure 3 for the producer-consumer monitor:

1. ``start→wait``       = T1,T2 + T3      → **T1, T2, T3** (paper: same)
2. ``wait→wait``        = T3,T5,T2 + T3   → **T3, T5, T2, T3** (paper: same)
3. ``wait→notifyAll``   = T3,T5,T2 + T5   → **T3, T5, T2, T5**
   (paper prints "T3, T4, T5"; by the model a thread resuming from wait
   fires T5 then T2 — it cannot fire T4 before reaching the end of the
   synchronized block — so we read the paper's list as a misprint and
   keep the model-consistent sequence; the Figure-3 emitter shows both.)
4. ``start→notifyAll``  = T1,T2 + T5      → **T1, T2, T5** (paper: same)
5. ``notifyAll→end``    = T5 + T4         → **T5, T4** (paper: same)

For ``@unsynchronized`` methods START/END contribute nothing (there is no
lock to acquire or release — the FF-T1 situation).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

from repro.vm.api import MonitorComponent

from .astscan import FunctionIndex, ScanResult, scan_method
from .model import CoFG, CoFGArc, CoFGNode, NodeKind

__all__ = [
    "attribute_arc",
    "build_cofg",
    "build_all_cofgs",
    "component_methods",
    "PAPER_FIGURE3_SEQUENCES",
]

#: The transition lists exactly as printed in the paper's Section 6.1 /
#: Figure 3, keyed by (source kind, destination kind).  Used by the
#: Figure-3 emitter to show the paper's numbers next to ours.
PAPER_FIGURE3_SEQUENCES: Dict[Tuple[NodeKind, NodeKind], Tuple[str, ...]] = {
    (NodeKind.START, NodeKind.WAIT): ("T1", "T2", "T3"),
    (NodeKind.WAIT, NodeKind.WAIT): ("T3", "T5", "T2", "T3"),
    (NodeKind.WAIT, NodeKind.NOTIFY_ALL): ("T3", "T4", "T5"),
    (NodeKind.START, NodeKind.NOTIFY_ALL): ("T1", "T2", "T5"),
    (NodeKind.NOTIFY_ALL, NodeKind.END): ("T5", "T4"),
}

_SOURCE_FIRINGS: Dict[NodeKind, Tuple[str, ...]] = {
    NodeKind.START: ("T1", "T2"),
    NodeKind.WAIT: ("T3", "T5", "T2"),
    NodeKind.NOTIFY: ("T5",),
    NodeKind.NOTIFY_ALL: ("T5",),
    NodeKind.YIELD: (),
}

_DEST_FIRINGS: Dict[NodeKind, Tuple[str, ...]] = {
    NodeKind.WAIT: ("T3",),
    NodeKind.NOTIFY: ("T5",),
    NodeKind.NOTIFY_ALL: ("T5",),
    NodeKind.END: ("T4",),
    NodeKind.YIELD: (),
}


def attribute_arc(
    src: CoFGNode, dst: CoFGNode, synchronized: bool = True
) -> Tuple[str, ...]:
    """The Figure-1 transition firings exercised by the region
    ``src -> dst`` (model-consistent attribution; see module docstring)."""
    source = _SOURCE_FIRINGS.get(src.kind, ())
    dest = _DEST_FIRINGS.get(dst.kind, ())
    if not synchronized:
        if src.kind is NodeKind.START:
            source = ()
        if dst.kind is NodeKind.END:
            dest = ()
    return tuple(source) + tuple(dest)


def _node_map(scan: ScanResult) -> Dict[str, CoFGNode]:
    mapping = {node.name: node for node in scan.nodes}
    mapping["start"] = CoFGNode(NodeKind.START)
    mapping["end"] = CoFGNode(NodeKind.END)
    return mapping


def build_cofg(
    component: Type[MonitorComponent] | MonitorComponent,
    method_name: str,
) -> CoFG:
    """Build the CoFG of ``component.method_name`` by static analysis.

    ``component`` may be the class or an instance.  The method must have
    been declared with ``@synchronized`` or ``@unsynchronized``.
    """
    cls = component if isinstance(component, type) else type(component)
    return _build_cofg(cls, method_name, FunctionIndex())


def _build_cofg(
    cls: Type[MonitorComponent], method_name: str, index: FunctionIndex
) -> CoFG:
    method = getattr(cls, method_name, None)
    if method is None:
        raise AttributeError(f"{cls.__name__} has no method {method_name!r}")
    if not getattr(method, "_vm_call_wrapper", False):
        raise ValueError(
            f"{cls.__name__}.{method_name} is not declared @synchronized or "
            f"@unsynchronized; CoFGs are built for component methods only"
        )
    synchronized = bool(getattr(method, "_vm_synchronized", False))
    scan = scan_method(index.function(method))
    nodes_by_name = _node_map(scan)
    arcs: List[CoFGArc] = []
    for pred_name, succ_name in scan.edges:
        src = nodes_by_name[pred_name]
        dst = nodes_by_name[succ_name]
        region: Optional[Tuple[int, int]] = None
        src_line = src.line if src.line is not None else scan.first_line
        dst_line = dst.line if dst.line is not None else scan.last_line
        region = (min(src_line, dst_line), max(src_line, dst_line))
        arcs.append(
            CoFGArc(
                src=src,
                dst=dst,
                transitions=attribute_arc(src, dst, synchronized),
                guard=scan.guards.get((pred_name, succ_name), ""),
                region=region,
            )
        )
    all_nodes = [nodes_by_name["start"], *scan.nodes, nodes_by_name["end"]]
    return CoFG(
        component=cls.__name__,
        method=method_name,
        synchronized=synchronized,
        nodes=all_nodes,
        arcs=arcs,
    )


def component_methods(
    component: Type[MonitorComponent] | MonitorComponent,
) -> List[str]:
    """Names of all declared component methods (``@synchronized`` or
    ``@unsynchronized``), in definition order."""
    cls = component if isinstance(component, type) else type(component)
    names: List[str] = []
    for name in vars(cls):
        attr = getattr(cls, name)
        if callable(attr) and getattr(attr, "_vm_call_wrapper", False):
            names.append(name)
    return names


def build_all_cofgs(
    component: Type[MonitorComponent] | MonitorComponent,
) -> Dict[str, CoFG]:
    """CoFGs for every declared method of a component."""
    cls = component if isinstance(component, type) else type(component)
    index = FunctionIndex()
    return {name: _build_cofg(cls, name, index) for name in component_methods(cls)}
