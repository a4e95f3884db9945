"""Embedded campaign status/metrics endpoint — stdlib only.

``repro campaign --serve HOST:PORT`` starts a
:class:`~http.server.ThreadingHTTPServer` on a daemon thread next to the
orchestrator.  Three routes, all read-only views of the campaign's
:class:`~repro.obs.live.aggregate.LiveAggregator`:

* ``GET /status``  — the live campaign state as JSON;
* ``GET /metrics`` — Prometheus text exposition (the same
  :func:`~repro.obs.export.to_prometheus` rendering the post-campaign
  ``--metrics-prom`` file uses), scrape-ready mid-run;
* ``GET /events``  — Server-Sent Events: one ``status`` snapshot, then
  every telemetry frame as a ``frame`` event, and a final ``end`` event
  when the campaign closes.

The server binds before the campaign starts (port 0 picks a free port),
serves each request on its own daemon thread, and is shut down by the
caller in a ``finally`` — an open SSE client never blocks campaign exit.
"""

from __future__ import annotations

import json
import queue
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.obs.export import to_prometheus

from .aggregate import LiveAggregator

__all__ = ["TelemetryServer", "parse_serve_address"]

#: Seconds between SSE keep-alive comments when no frame arrives.
_SSE_HEARTBEAT = 5.0


def parse_serve_address(value: str) -> Tuple[str, int]:
    """Parse ``--serve`` values: ``HOST:PORT``, ``:PORT``, or ``PORT``
    (bare port binds localhost; port 0 asks the OS for a free port)."""
    host, _, port_text = value.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"--serve expects HOST:PORT, :PORT, or PORT, got {value!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"--serve port out of range: {port}")
    return host, port


class _LiveHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    aggregator: LiveAggregator


class _Handler(BaseHTTPRequestHandler):
    server: _LiveHTTPServer
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # telemetry must not spam the campaign's own terminal

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        aggregator = self.server.aggregator
        try:
            if path in ("/", "/status"):
                self._send_body(
                    200, "application/json", aggregator.status_json() + "\n"
                )
            elif path == "/metrics":
                self._send_body(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    to_prometheus(aggregator.registry()),
                )
            elif path == "/events":
                self._stream_events(aggregator)
            else:
                self._send_body(
                    404,
                    "application/json",
                    json.dumps({"error": f"no route {path!r}"}) + "\n",
                )
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    # -- helpers -----------------------------------------------------------

    def _send_body(self, code: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _stream_events(self, aggregator: LiveAggregator) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        subscriber = aggregator.subscribe()
        try:
            self._sse("status", aggregator.status())
            # every frame queued since subscribing goes out, up to the end
            # frame the subscription is guaranteed to receive
            while True:
                try:
                    frame = subscriber.get(timeout=_SSE_HEARTBEAT)
                except queue.Empty:
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                if frame.get("kind") == "end":
                    self._sse("end", frame)
                    return
                self._sse("frame", frame)
        finally:
            aggregator.unsubscribe(subscriber)

    def _sse(self, event: str, data: Dict[str, Any]) -> None:
        payload = f"event: {event}\ndata: {json.dumps(data, sort_keys=True)}\n\n"
        self.wfile.write(payload.encode("utf-8"))
        self.wfile.flush()


class TelemetryServer:
    """A live telemetry endpoint bound to one aggregator.

    Usage::

        server = TelemetryServer(aggregator, "127.0.0.1", 0)
        server.start()
        try:
            ...  # run the campaign
        finally:
            aggregator.close()
            server.close()
    """

    def __init__(
        self, aggregator: LiveAggregator, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.aggregator = aggregator
        self._httpd = _LiveHTTPServer((host, port), _Handler)
        self._httpd.aggregator = aggregator
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
        self._thread = None
