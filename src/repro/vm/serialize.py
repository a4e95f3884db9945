"""Trace serialization: JSONL save/load and trace-driven replay.

Traces are the system's single source of truth (every detector is a trace
pass), so persisting them enables post-mortem analysis without the kernel
that produced them::

    save_trace(result.trace, "run.jsonl")
    ...
    trace = load_trace("run.jsonl")
    races = detect_races(trace)

``kernel.schedule_log`` names the thread picked at every step, derived
from the kernel's decision record; :func:`dumps_trace` embeds it in the
file header, and :func:`load_schedule` recovers it for deterministic
replay of a stored run via :class:`~repro.vm.scheduler.NameReplayScheduler`
— replay from an artifact, not a live object.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Dict, Iterable, List, Union

from .events import Event, EventKind
from .trace import Trace

__all__ = [
    "event_to_dict",
    "event_from_dict",
    "save_trace",
    "load_trace",
    "dumps_trace",
    "loads_trace",
    "load_schedule",
]

_FORMAT_VERSION = 1


def event_to_dict(event: Event) -> Dict[str, Any]:
    """A JSON-serializable dict for one event (detail values must already
    be JSON-representable, which all kernel-emitted details are)."""
    payload: Dict[str, Any] = {
        "seq": event.seq,
        "time": event.time,
        "thread": event.thread,
        "kind": event.kind.value,
    }
    if event.monitor is not None:
        payload["monitor"] = event.monitor
    if event.component is not None:
        payload["component"] = event.component
    if event.method is not None:
        payload["method"] = event.method
    if event.detail:
        payload["detail"] = event.detail
    return payload


def event_from_dict(payload: Dict[str, Any]) -> Event:
    """Inverse of :func:`event_to_dict`."""
    return Event(
        seq=int(payload["seq"]),
        time=int(payload["time"]),
        thread=str(payload["thread"]),
        kind=EventKind(payload["kind"]),
        monitor=payload.get("monitor"),
        component=payload.get("component"),
        method=payload.get("method"),
        detail=dict(payload.get("detail", {})),
    )


def dumps_trace(trace: Trace, schedule: Iterable[str] = ()) -> str:
    """The whole trace as JSON-lines text (header line + one per event).

    ``schedule`` is the per-step picked-thread log
    (``kernel.schedule_log``); when given it is embedded in the header so
    the run can be replayed from the file alone.
    """
    header: Dict[str, Any] = {
        "format": "repro-trace",
        "version": _FORMAT_VERSION,
    }
    schedule = list(schedule)
    if schedule:
        header["schedule"] = schedule
    lines = [json.dumps(header)]
    for event in trace:
        lines.append(json.dumps(event_to_dict(event), separators=(",", ":")))
    return "\n".join(lines) + "\n"


def loads_trace(text: str) -> Trace:
    """Parse JSONL text produced by :func:`dumps_trace`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return Trace()
    header = json.loads(lines[0])
    if header.get("format") != "repro-trace":
        raise ValueError("not a repro trace file (missing header)")
    if header.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace version {header.get('version')!r} "
            f"(supported: {_FORMAT_VERSION})"
        )
    return Trace([event_from_dict(json.loads(line)) for line in lines[1:]])


def save_trace(
    trace: Trace, path: Union[str, Path], schedule: Iterable[str] = ()
) -> None:
    """Write a trace (and optionally its schedule log) to ``path``."""
    Path(path).write_text(dumps_trace(trace, schedule))


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace previously written with :func:`save_trace`."""
    return loads_trace(Path(path).read_text())


def load_schedule(path: Union[str, Path]) -> List[str]:
    """The embedded schedule log of a saved trace ([] when absent)."""
    first_line = Path(path).read_text().splitlines()[0]
    header = json.loads(first_line)
    if header.get("format") != "repro-trace":
        raise ValueError("not a repro trace file (missing header)")
    return list(header.get("schedule", []))
