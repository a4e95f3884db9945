"""Dashboard rendering and the polling loop (no terminal required)."""

import io

from repro.obs.live.aggregate import LiveAggregator
from repro.obs.live.dash import (
    CLEAR,
    LocalDashboard,
    render_dashboard,
    run_dashboard,
)
from repro.testing.explorer import RunSummary


def summary(**kwargs):
    defaults = dict(index=0, status="completed", decisions=(0,))
    defaults.update(kwargs)
    return RunSummary(**defaults)


def sample_status(**overrides):
    status = {
        "format": "repro-live-status",
        "state": "running",
        "factory": "pc-bug",
        "mode": "random",
        "fingerprint": "abcdef0123456789",
        "runs": 40,
        "executed": 50,
        "duplicates": 10,
        "failures": 4,
        "signatures": 2,
        "total_runs": 100,
        "runs_per_sec": 25.0,
        "elapsed_seconds": 2.0,
        "eta_seconds": 2.0,
        "statuses": {"completed": 36, "deadlock": 4},
        "class_counts": {"DD.AB": 3},
        "top_contended": {"monitor": "Buffer", "ticks": 17},
        "shards": {"done": 2, "total": 4, "requeued": 1},
        "shard_table": [
            {"shard": "random-000000-000025", "state": "done", "runs": 25},
            {"shard": "random-000025-000050", "state": "running", "runs": 15},
        ],
    }
    status.update(overrides)
    return status


class TestRender:
    def test_everything_present(self):
        text = render_dashboard(sample_status())
        assert "campaign 'pc-bug'" in text
        assert "abcdef012345" in text  # fingerprint truncated to 12
        assert "runs 40 unique / 50 executed (10 dup) of 100" in text
        assert "50%" in text  # progress bar: executed/total
        assert "25.0 runs/s" in text
        assert "eta 2s" in text
        assert "failures 4" in text
        assert "classes DD.AB:3" in text
        assert "hot monitor Buffer: 17 ticks" in text
        assert "shards 2/4 done (1 requeued)" in text
        assert "random-000000-000025" in text

    def test_minimal_status_renders(self):
        text = render_dashboard({"state": "running"})
        assert "campaign" in text
        assert "runs 0 unique / 0 executed" in text

    def test_long_shard_table_elided(self):
        table = [
            {"shard": f"sh-{index:03d}", "state": "done", "runs": 1}
            for index in range(20)
        ]
        text = render_dashboard(sample_status(shard_table=table))
        assert "... 8 more shard(s)" in text

    def test_goal_line(self):
        text = render_dashboard(
            sample_status(state="done", goal="first-failure")
        )
        assert "goal reached: first-failure" in text


class TestRunDashboard:
    def _loop(self, statuses, **kwargs):
        stream = io.StringIO()
        calls = iter(statuses)

        def fake_fetch(url, timeout=5.0):
            value = next(calls)
            if isinstance(value, Exception):
                raise value
            return value

        import repro.obs.live.dash as dash_module

        original = dash_module.fetch_status
        dash_module.fetch_status = fake_fetch
        try:
            code = run_dashboard(
                "http://x", stream, interval=0.0, sleep=lambda _s: None, **kwargs
            )
        finally:
            dash_module.fetch_status = original
        return code, stream.getvalue()

    def test_stops_on_terminal_state(self):
        code, output = self._loop(
            [sample_status(), sample_status(state="done")]
        )
        assert code == 0
        assert output.count(CLEAR) == 2

    def test_unreachable_endpoint_returns_one(self):
        code, output = self._loop([OSError("refused")])
        assert code == 1
        assert "unreachable" in output

    def test_max_polls_bound(self):
        code, _ = self._loop(
            [sample_status()] * 3, max_polls=3, clear=False
        )
        assert code == 1


class TestLocalDashboard:
    def test_stop_paints_final_frame(self):
        aggregator = LiveAggregator(info={"factory": "pc"})
        aggregator.progress.note_run(summary(), False)
        aggregator.note_run(summary(), False, "sh")
        stream = io.StringIO()
        dashboard = LocalDashboard(aggregator, stream, interval=10.0).start()
        dashboard.stop()
        output = stream.getvalue()
        assert "campaign 'pc'" in output
        assert "runs 1 unique" in output
