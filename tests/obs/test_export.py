"""Exporters: metrics JSONL round trip and Prometheus text rendering."""

import json

import pytest

from repro.obs.export import (
    FORMAT_NAME,
    FORMAT_VERSION,
    load_metrics_jsonl,
    to_prometheus,
    write_metrics_jsonl,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry


def _populated() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("runs_total", "runs").inc(3, status="completed")
    registry.counter("runs_total").inc(1, status="deadlock")
    registry.gauge("depth_peak", "peak depth", agg="max").set(4, monitor="m")
    registry.histogram("latency", "ticks", buckets=(1, 10)).observe(2)
    return registry


class TestJsonl:
    def test_round_trip(self, tmp_path):
        registry = _populated()
        path = write_metrics_jsonl(registry, tmp_path / "m.jsonl", meta={"runs": 4})
        loaded, header = load_metrics_jsonl(path)
        assert loaded.to_dict() == registry.to_dict()
        assert header["format"] == FORMAT_NAME
        assert header["version"] == FORMAT_VERSION
        assert header["runs"] == 4

    def test_meta_cannot_override_format(self, tmp_path):
        path = write_metrics_jsonl(
            MetricsRegistry(), tmp_path / "m.jsonl", meta={"format": "evil"}
        )
        _, header = load_metrics_jsonl(path)
        assert header["format"] == FORMAT_NAME

    @pytest.mark.parametrize("counts", [[3], [3, 0, 0, 0, 0]])
    def test_histogram_counts_must_fill_every_bucket(self, tmp_path, counts):
        # buckets [1, 2, 5] need 4 counts: one per bound, plus +Inf
        path = write_metrics_jsonl(_populated(), tmp_path / "m.jsonl")
        bad = {"name": "short", "type": "histogram", "help": "",
               "buckets": [1, 2, 5],
               "series": [{"labels": {}, "counts": counts, "sum": 1, "count": 3}]}
        with path.open("a") as handle:
            handle.write(json.dumps(bad) + "\n")
        line = len(path.read_text().splitlines())
        with pytest.raises(
            ValueError, match=rf"m\.jsonl:{line}: invalid metric: histogram 'short'"
        ):
            load_metrics_jsonl(path)

    def test_foreign_gauge_agg_names_the_line(self, tmp_path):
        path = write_metrics_jsonl(_populated(), tmp_path / "m.jsonl")
        lines = path.read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if '"agg"' in line)
        lines[index] = lines[index].replace('"agg": "max"', '"agg": "sum"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"m\.jsonl:{index + 1}: invalid metric: agg"):
            load_metrics_jsonl(path)

    @pytest.mark.parametrize(
        "line",
        [
            {"name": "c", "type": "counter", "series": [{"labels": {}}]},
            ["not", "a", "metric"],
            {"name": "c", "type": "counter", "series": [{"labels": 3, "value": 1}]},
        ],
    )
    def test_malformed_line_names_the_line(self, tmp_path, line):
        path = write_metrics_jsonl(_populated(), tmp_path / "m.jsonl")
        with path.open("a") as handle:
            handle.write(json.dumps(line) + "\n")
        count = len(path.read_text().splitlines())
        with pytest.raises(ValueError, match=rf"m\.jsonl:{count}: invalid metric"):
            load_metrics_jsonl(path)

    def test_torn_tail_dropped(self, tmp_path):
        path = write_metrics_jsonl(_populated(), tmp_path / "m.jsonl")
        text = path.read_text().rstrip("\n")
        path.write_text(text[: len(text) - 20])  # writer died mid-line
        loaded, _ = load_metrics_jsonl(path)
        assert len(list(loaded.metrics())) == len(list(_populated().metrics())) - 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = write_metrics_jsonl(_populated(), tmp_path / "m.jsonl")
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            load_metrics_jsonl(path)

    @pytest.mark.parametrize(
        "content,match",
        [
            ("", "empty"),
            ("not json\n", "header"),
            (json.dumps({"format": "other"}) + "\n", FORMAT_NAME),
            (json.dumps({"format": FORMAT_NAME, "version": 99}) + "\n", "version"),
        ],
    )
    def test_bad_headers_rejected(self, tmp_path, content, match):
        path = tmp_path / "m.jsonl"
        path.write_text(content)
        with pytest.raises(ValueError, match=match):
            load_metrics_jsonl(path)


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        text = to_prometheus(_populated())
        assert "# HELP runs_total runs" in text
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{status="completed"} 3' in text
        assert 'depth_peak{monitor="m"} 4' in text

    def test_histogram_cumulative_with_inf(self):
        text = to_prometheus(_populated())
        assert 'latency_bucket{le="1"} 0' in text
        assert 'latency_bucket{le="10"} 1' in text
        assert 'latency_bucket{le="+Inf"} 1' in text
        assert "latency_sum 2" in text
        assert "latency_count 1" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1, k='quo"te\\slash')
        text = to_prometheus(registry)
        assert 'c{k="quo\\"te\\\\slash"} 1' in text

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""

    def test_write_prometheus_creates_parents(self, tmp_path):
        path = write_prometheus(_populated(), tmp_path / "deep" / "m.prom")
        assert path.read_text() == to_prometheus(_populated())

    def test_write_prometheus_atomic_no_staging_left(self, tmp_path):
        # The write goes through a same-directory temp file + os.replace,
        # so a concurrent scraper never reads a torn file and no staging
        # file survives the call.
        target = tmp_path / "m.prom"
        write_prometheus(_populated(), target)
        write_prometheus(_populated(), target)  # overwrite is atomic too
        assert [p.name for p in tmp_path.iterdir()] == ["m.prom"]

    def test_write_prometheus_staging_cleaned_on_failure(self, tmp_path, monkeypatch):
        import os

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError, match="disk full"):
            write_prometheus(_populated(), tmp_path / "m.prom")
        assert list(tmp_path.iterdir()) == []
