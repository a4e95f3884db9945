"""Embedded HTTP endpoint: routes, content types, SSE stream."""

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.live.aggregate import LiveAggregator
from repro.obs.live.server import TelemetryServer, parse_serve_address
from repro.testing.explorer import RunSummary


def summary(**kwargs):
    defaults = dict(index=0, status="completed", decisions=(0,))
    defaults.update(kwargs)
    return RunSummary(**defaults)


@pytest.fixture()
def served():
    aggregator = LiveAggregator(info={"factory": "pc-bug"}, total_runs=10)
    server = TelemetryServer(aggregator, "127.0.0.1", 0).start()
    try:
        yield aggregator, server
    finally:
        server.close()


def get(url):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.headers, response.read().decode()


class TestParseServeAddress:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("127.0.0.1:8000", ("127.0.0.1", 8000)),
            (":9000", ("127.0.0.1", 9000)),
            ("0", ("127.0.0.1", 0)),
            ("0.0.0.0:80", ("0.0.0.0", 80)),
        ],
    )
    def test_accepted(self, value, expected):
        assert parse_serve_address(value) == expected

    @pytest.mark.parametrize("value", ["host:port", "", "1.2.3.4:99999"])
    def test_rejected(self, value):
        with pytest.raises(ValueError):
            parse_serve_address(value)


class TestRoutes:
    def test_status_serves_live_document(self, served):
        aggregator, server = served
        aggregator.progress.note_run(summary(), False)
        aggregator.note_run(summary(), False, "sh-0")
        status, headers, body = get(server.url + "/status")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        doc = json.loads(body)
        assert doc["runs"] == 1
        assert doc["factory"] == "pc-bug"

    def test_root_is_status_alias(self, served):
        _, server = served
        status, _, body = get(server.url + "/")
        assert status == 200
        assert json.loads(body)["format"] == "repro-live-status"

    def test_metrics_serves_prometheus_text(self, served):
        aggregator, server = served
        run = summary(metrics={"vm_steps_total": 4})
        aggregator.progress.note_run(run, False)
        aggregator.note_run(run, False)
        status, headers, body = get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert "vm_steps_total 4" in body
        assert "campaign_runs_total" in body

    def test_unknown_route_404s(self, served):
        _, server = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server.url + "/nope")
        assert excinfo.value.code == 404
        assert "no route" in excinfo.value.read().decode()

    def test_port_zero_binds_free_port(self, served):
        _, server = served
        assert server.port > 0
        assert server.url.startswith("http://127.0.0.1:")


class TestEvents:
    def _open_stream(self, server):
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=5.0
        )
        connection.request("GET", "/events")
        return connection, connection.getresponse()

    def test_stream_opens_with_status_then_frames_then_end(self, served):
        aggregator, server = served
        connection, response = self._open_stream(server)
        try:
            assert response.headers["Content-Type"] == "text/event-stream"
            assert response.readline() == b"event: status\n"
            assert response.readline().startswith(b"data: ")
            assert response.readline() == b"\n"

            done = threading.Event()

            def drive():
                aggregator.note_run(summary(), False, "sh-0")
                aggregator.close()
                done.set()

            threading.Thread(target=drive, daemon=True).start()
            assert done.wait(5.0)
            assert response.readline() == b"event: frame\n"
            frame = json.loads(response.readline()[len(b"data: ") :])
            assert frame["kind"] == "run"
            response.readline()
            assert response.readline() == b"event: end\n"
        finally:
            connection.close()

    def test_frames_queued_before_a_close_are_sent_before_end(self, served):
        # the campaign merges a run and ends after the stream subscribed
        # but before it sent its status event: the queued run frame must
        # still go out, then the end
        aggregator, server = served
        status = aggregator.status

        def status_then_finish():
            document = status()
            aggregator.note_run(summary(), False, "sh-0")
            aggregator.close()
            return document

        aggregator.status = status_then_finish
        connection, response = self._open_stream(server)
        try:
            events = [response.readline() for _ in range(9)][::3]
            assert events == [b"event: status\n", b"event: frame\n", b"event: end\n"]
        finally:
            connection.close()

    def test_finished_campaign_ends_immediately(self, served):
        aggregator, server = served
        aggregator.close(goal="budget")
        connection, response = self._open_stream(server)
        try:
            lines = [response.readline() for _ in range(6)]
            assert b"event: status\n" in lines
            assert b"event: end\n" in lines
        finally:
            connection.close()

    def test_closed_client_unsubscribed(self, served):
        aggregator, server = served
        connection, response = self._open_stream(server)
        response.readline()  # stream is live
        connection.close()
        aggregator.close()  # wakes the handler; it then notices the close
        for _ in range(50):
            if not aggregator._subscribers:
                break
            threading.Event().wait(0.1)
        assert not aggregator._subscribers


class TestLifecycle:
    def test_close_is_idempotent_and_releases_port(self):
        aggregator = LiveAggregator()
        server = TelemetryServer(aggregator, "127.0.0.1", 0).start()
        port = server.port
        server.close()
        server.close()
        # The port is reusable immediately (allow_reuse_address).
        rebound = TelemetryServer(aggregator, "127.0.0.1", port)
        rebound.start()
        rebound.close()
