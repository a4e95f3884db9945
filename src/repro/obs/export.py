"""Exporters: metrics JSONL (lossless) and Prometheus text (interop).

Two output formats, two jobs:

* **metrics JSONL** (``write_metrics_jsonl`` / ``load_metrics_jsonl``) is
  the lossless archival form.  Like the campaign journal it opens with a
  header line (``{"format": "repro-metrics", "version": 1, ...}``)
  followed by one JSON object per metric family — exactly the
  ``Metric.to_dict`` payloads, so a loaded file reconstructs the registry
  that was written.  Loading tolerates a torn final line (the writer may
  have been killed mid-write).

* **Prometheus text exposition** (``to_prometheus`` / a ``.prom`` file
  via ``write_prometheus``) is for dashboards: the standard
  ``# HELP`` / ``# TYPE`` / sample-line format, with histogram buckets
  rendered cumulatively and the implicit ``+Inf`` bucket made explicit.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, metric_from_dict

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "write_metrics_jsonl",
    "load_metrics_jsonl",
    "to_prometheus",
    "write_prometheus",
]

FORMAT_NAME = "repro-metrics"
FORMAT_VERSION = 1


# -- JSONL -----------------------------------------------------------------


def write_metrics_jsonl(
    registry: MetricsRegistry,
    path: Union[str, Path],
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write ``registry`` to ``path`` as header + one line per metric.

    ``meta`` adds context fields to the header (campaign id, run counts,
    …); it may not override ``format``/``version``.
    """
    path = Path(path)
    header: Dict[str, Any] = dict(meta or {})
    header["format"] = FORMAT_NAME
    header["version"] = FORMAT_VERSION
    lines = [json.dumps(header, sort_keys=True)]
    for metric in registry.metrics():
        lines.append(json.dumps(metric.to_dict(), sort_keys=True))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_metrics_jsonl(
    path: Union[str, Path],
) -> Tuple[MetricsRegistry, Dict[str, Any]]:
    """Read a metrics JSONL file back into a fresh registry.

    Returns ``(registry, header)``.  Raises ``ValueError`` on a missing
    or foreign header and on a line that describes no valid metric (its
    message names the file and line); a torn (half-written) final line
    is dropped.
    """
    path = Path(path)
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    if not raw_lines:
        raise ValueError(f"{path}: empty metrics file")
    try:
        header = json.loads(raw_lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: unreadable metrics header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported {FORMAT_NAME} version {header.get('version')!r}"
        )
    registry = MetricsRegistry()
    for index, line in enumerate(raw_lines[1:], start=2):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            if index == len(raw_lines):  # torn tail: writer died mid-line
                break
            raise ValueError(f"{path}:{index}: corrupt metrics line: {exc}") from exc
        try:
            registry.add(metric_from_dict(payload))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{index}: invalid metric: {exc}") from exc
    return registry, header


# -- Prometheus text exposition --------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{key}="{_escape_label(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format."""
    out: List[str] = []
    for metric in registry.metrics():
        if metric.help:
            out.append(f"# HELP {metric.name} {metric.help}")
        out.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            for labels, value in sorted(metric.series().items()):
                out.append(
                    f"{metric.name}{_render_labels(labels)} {_format_value(value)}"
                )
        elif isinstance(metric, Histogram):
            for labels, series in sorted(metric.series().items()):
                cumulative = 0
                for bound, count in zip(metric.buckets, series.counts):
                    cumulative += count
                    le = 'le="%s"' % _format_value(float(bound))
                    out.append(
                        f"{metric.name}_bucket{_render_labels(labels, le)} "
                        f"{cumulative}"
                    )
                inf = 'le="+Inf"'
                out.append(
                    f"{metric.name}_bucket{_render_labels(labels, inf)} "
                    f"{series.count}"
                )
                out.append(
                    f"{metric.name}_sum{_render_labels(labels)} "
                    f"{_format_value(series.sum)}"
                )
                out.append(
                    f"{metric.name}_count{_render_labels(labels)} {series.count}"
                )
    return "\n".join(out) + ("\n" if out else "")


def write_prometheus(registry: MetricsRegistry, path: Union[str, Path]) -> Path:
    """Write the text exposition to ``path`` atomically.

    A node-exporter-style scraper may read the file at any moment (a
    campaign rewrites it while textfile collectors poll), so the text is
    staged in a sibling temp file and swapped in with ``os.replace`` — a
    reader sees the old complete file or the new one, never a torn tail.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    staging.write_text(to_prometheus(registry), encoding="utf-8")
    try:
        os.replace(staging, path)
    except OSError:
        staging.unlink(missing_ok=True)
        raise
    return path
