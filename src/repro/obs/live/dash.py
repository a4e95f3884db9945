"""Terminal dashboard over the live ``/status`` document.

Two entry points share one pure renderer:

* ``repro campaign --dash`` — a daemon thread redraws the local
  aggregator's status while the orchestrator runs (see
  :class:`LocalDashboard`);
* ``repro dash --url http://HOST:PORT`` — polls a remote campaign's
  ``/status`` endpoint and redraws until the campaign reports ``done``
  (see :func:`run_dashboard`).

:func:`render_dashboard` is deliberately a pure ``dict -> str`` function
so tests (and future front ends) can exercise it without a terminal.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from typing import IO, Any, Callable, Dict, List, Mapping, Optional

from repro.engine.progress import format_duration

from .aggregate import LiveAggregator

__all__ = [
    "render_dashboard",
    "fetch_status",
    "run_dashboard",
    "LocalDashboard",
]

#: ANSI "clear screen, home cursor" prefix used between redraws.
CLEAR = "\x1b[2J\x1b[H"

#: Shard rows shown before the table is elided.
_MAX_SHARD_ROWS = 12


def _bar(fraction: float, width: int = 30) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "-" * (width - filled) + f"] {fraction:4.0%}"


def render_dashboard(status: Mapping[str, Any]) -> str:
    """Render one ``/status`` document as a multi-line dashboard."""
    lines: List[str] = []
    factory = status.get("factory", "?")
    mode = status.get("mode", "?")
    fingerprint = str(status.get("fingerprint", ""))[:12]
    state = status.get("state", "?")
    title = f"campaign {factory!r} · mode={mode} · {state}"
    if fingerprint:
        title += f" · {fingerprint}"
    lines.append(title)
    lines.append("=" * len(title))

    executed = int(status.get("executed", 0))
    total = status.get("total_runs")
    runs_bit = f"runs {status.get('runs', 0)} unique / {executed} executed"
    duplicates = int(status.get("duplicates", 0))
    if duplicates:
        runs_bit += f" ({duplicates} dup)"
    if total:
        runs_bit += f" of {total}"
        lines.append(_bar(executed / int(total)))
    lines.append(runs_bit)

    rate_bit = f"{float(status.get('runs_per_sec', 0.0)):.1f} runs/s"
    elapsed = format_duration(float(status.get("elapsed_seconds", 0)))
    rate_bit += f" · elapsed {elapsed}"
    eta = status.get("eta_seconds")
    if eta is not None and float(eta) > 0:
        rate_bit += f" · eta {format_duration(float(eta))}"
    lines.append(rate_bit)

    failures = int(status.get("failures", 0))
    fail_bit = (
        f"failures {failures} · signatures {status.get('signatures', 0)}"
    )
    statuses = status.get("statuses") or {}
    if statuses:
        fail_bit += " · " + ",".join(
            f"{name}:{count}" for name, count in sorted(dict(statuses).items())
        )
    lines.append(fail_bit)

    class_counts = status.get("class_counts") or {}
    if class_counts:
        lines.append(
            "classes "
            + ",".join(
                f"{code}:{count}"
                for code, count in sorted(dict(class_counts).items())
            )
        )
    top = status.get("top_contended")
    if isinstance(top, Mapping):
        lines.append(
            f"hot monitor {top.get('monitor')}: {int(top.get('ticks', 0))} ticks"
        )

    shards = status.get("shards") or {}
    if shards:
        shard_bit = (
            f"shards {shards.get('done', 0)}/{shards.get('total', 0)} done"
        )
        extras = [
            f"{shards.get(key, 0)} {key}"
            for key in ("requeued", "failed", "resumed")
            if shards.get(key)
        ]
        if extras:
            shard_bit += f" ({', '.join(extras)})"
        lines.append(shard_bit)

    table = status.get("shard_table") or []
    if table:
        lines.append("")
        lines.append(f"  {'shard':<22} {'state':<9} {'runs':>5} {'attempts':>8}")
        for row in list(table)[:_MAX_SHARD_ROWS]:
            lines.append(
                f"  {str(row.get('shard', '?')):<22} "
                f"{str(row.get('state', '?')):<9} "
                f"{int(row.get('runs', 0)):>5} "
                f"{int(row.get('attempts', 1)):>8}"
            )
        hidden = len(table) - _MAX_SHARD_ROWS
        if hidden > 0:
            lines.append(f"  ... {hidden} more shard(s)")
    goal = status.get("goal")
    if goal:
        lines.append(f"goal reached: {goal}")
    return "\n".join(lines)


def fetch_status(url: str, timeout: float = 5.0) -> Dict[str, Any]:
    """GET ``<url>/status`` and decode the JSON document."""
    target = url.rstrip("/")
    if not target.endswith("/status"):
        target += "/status"
    with urllib.request.urlopen(target, timeout=timeout) as response:
        return dict(json.loads(response.read().decode("utf-8")))


def run_dashboard(
    url: str,
    stream: IO[str],
    interval: float = 1.0,
    clear: bool = True,
    max_polls: Optional[int] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Poll a remote campaign's ``/status`` and redraw until it finishes.

    Returns 0 when the campaign reported a terminal state, 1 when the
    endpoint became unreachable (campaign gone) or ``max_polls`` ran out.
    """
    polls = 0
    while max_polls is None or polls < max_polls:
        polls += 1
        try:
            status = fetch_status(url, timeout=max(interval, 1.0))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            stream.write(f"dash: {url} unreachable: {exc}\n")
            return 1
        if clear:
            stream.write(CLEAR)
        stream.write(render_dashboard(status) + "\n")
        stream.flush()
        if status.get("state") != "running":
            return 0
        sleep(interval)
    return 1


class LocalDashboard:
    """Background redraw loop over an in-process aggregator
    (``repro campaign --dash``)."""

    def __init__(
        self,
        aggregator: LiveAggregator,
        stream: IO[str],
        interval: float = 0.5,
        clear: bool = True,
    ) -> None:
        self.aggregator = aggregator
        self.stream = stream
        self.interval = interval
        self.clear = clear
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _draw(self) -> None:
        if self.clear:
            self.stream.write(CLEAR)
        self.stream.write(render_dashboard(self.aggregator.status()) + "\n")
        self.stream.flush()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._draw()

    def start(self) -> "LocalDashboard":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-dash", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop redrawing and paint one final frame."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._draw()
