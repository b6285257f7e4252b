"""Exporters: JSONL event stream, Prometheus text dump, human tables.

Three audiences, three formats:

* :func:`write_jsonl` — the machine stream, reusing the flat one-object-
  per-line shape of :class:`repro.runner.telemetry.TelemetryWriter`, so
  obs output can be tailed/parsed by the same tooling as campaign
  telemetry;
* :func:`to_prometheus` — the ops surface, a ``# TYPE``-annotated text
  exposition of every metric; and
* :func:`render` — the human table printed by ``python -m repro trace``.
"""

from __future__ import annotations

import json
import os
import typing

from .metrics import MetricsRegistry, format_labels


def sanitize_metric_name(name: str) -> str:
    """Dots to underscores: ``net.link.bytes`` -> ``net_link_bytes``."""
    return name.replace(".", "_").replace("-", "_")


def escape_label_value(value) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote, and line-feed are the three characters the
    format requires escaping inside quoted label values; anything else
    passes through.  Link names like ``u1->ap "den"`` would otherwise
    produce an unparseable exposition.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: tuple) -> str:
    """Render a label tuple for the exposition format, values escaped.

    Distinct from :func:`repro.obs.metrics.format_labels`, which is also
    the snapshot-series *key* and must stay byte-stable.
    """
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{escape_label_value(value)}"' for name, value in labels
    )
    return "{" + inner + "}"


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of every metric in ``registry``."""
    lines: typing.List[str] = []
    seen_types: set = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for counter in sorted(registry.counters(), key=lambda m: (m.name, m.labels)):
        name = sanitize_metric_name(counter.name) + "_total"
        type_line(name, "counter")
        lines.append(f"{name}{_prom_labels(counter.labels)} {counter.value:g}")
    for gauge in sorted(registry.gauges(), key=lambda m: (m.name, m.labels)):
        name = sanitize_metric_name(gauge.name)
        type_line(name, "gauge")
        lines.append(f"{name}{_prom_labels(gauge.labels)} {gauge.read():g}")
    for hist in sorted(registry.histograms(), key=lambda m: (m.name, m.labels)):
        name = sanitize_metric_name(hist.name)
        type_line(name, "histogram")
        cumulative = 0
        for bound, bucket in zip(hist.bounds, hist.bucket_counts):
            cumulative += bucket
            labels = hist.labels + (("le", f"{bound:g}"),)
            lines.append(f"{name}_bucket{_prom_labels(labels)} {cumulative}")
        labels = hist.labels + (("le", "+Inf"),)
        lines.append(f"{name}_bucket{_prom_labels(labels)} {hist.count}")
        lines.append(f"{name}_sum{_prom_labels(hist.labels)} {hist.sum:g}")
        lines.append(f"{name}_count{_prom_labels(hist.labels)} {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def render(registry: MetricsRegistry, max_rows: int = 0) -> str:
    """Aligned human-readable table of every metric value."""
    from ..measure.report import render_table

    rows: typing.List[list] = []
    for counter in sorted(registry.counters(), key=lambda m: (m.name, m.labels)):
        rows.append(
            ["counter", counter.name, format_labels(counter.labels), f"{counter.value:g}"]
        )
    for gauge in sorted(registry.gauges(), key=lambda m: (m.name, m.labels)):
        rows.append(["gauge", gauge.name, format_labels(gauge.labels), f"{gauge.read():g}"])
    for hist in sorted(registry.histograms(), key=lambda m: (m.name, m.labels)):
        rows.append(
            [
                "histogram",
                hist.name,
                format_labels(hist.labels),
                f"n={hist.count} mean={hist.mean:.3g}",
            ]
        )
    if max_rows and len(rows) > max_rows:
        clipped = len(rows) - max_rows
        rows = rows[:max_rows] + [["...", f"({clipped} more)", "", ""]]
    return render_table(["Kind", "Metric", "Labels", "Value"], rows)


def write_jsonl(dump: dict, path: str) -> int:
    """Write an observability dump as flat JSONL events.

    Reuses the ``{"event": ..., ...}`` line shape of campaign
    telemetry.  Returns the number of lines written.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    count = 0
    with open(path, "w") as handle:
        def emit(record: dict) -> None:
            nonlocal count
            handle.write(json.dumps(record, sort_keys=False) + "\n")
            count += 1

        metrics = dump.get("metrics", {})
        for counter in metrics.get("counters", []):
            emit({"event": "metric", "kind": "counter", **counter})
        for gauge in metrics.get("gauges", []):
            emit({"event": "metric", "kind": "gauge", **gauge})
        for hist in metrics.get("histograms", []):
            emit({"event": "metric", "kind": "histogram", **hist})
        trace = dump.get("trace", {})
        for event in trace.get("events", []):
            emit({"event": "trace", **event})
        if trace.get("dropped"):
            record = {"event": "trace_dropped", "count": trace["dropped"]}
            if trace.get("dropped_by_kind"):
                record["by_kind"] = trace["dropped_by_kind"]
            emit(record)
        snapshots = dump.get("snapshots")
        if snapshots:
            for key, series in snapshots.get("series", {}).items():
                emit(
                    {
                        "event": "snapshot_series",
                        "metric": key,
                        "period_s": snapshots.get("period_s"),
                        "times": series["times"],
                        "values": series["values"],
                    }
                )
    return count


def read_jsonl(path: str) -> dict:
    """Reload a :func:`write_jsonl` file into a dump-shaped dict.

    The inverse of :func:`write_jsonl` for everything it serializes:
    metrics come back as ``dump["metrics"]`` lists, trace events and the
    dropped counters as ``dump["trace"]``, and snapshot series as
    ``dump["snapshots"]`` (absent when none were written, matching the
    optional ``snapshots`` key on the write side).
    """
    metrics: dict = {"counters": [], "gauges": [], "histograms": []}
    trace: dict = {"events": [], "dropped": 0, "dropped_by_kind": {}}
    snapshots: dict = {"period_s": None, "series": {}}
    have_snapshots = False
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            event = record.pop("event", None)
            if event == "metric":
                kind = record.pop("kind")
                metrics[kind + "s"].append(record)
            elif event == "trace":
                trace["events"].append(record)
            elif event == "trace_dropped":
                trace["dropped"] = record.get("count", 0)
                trace["dropped_by_kind"] = record.get("by_kind", {})
            elif event == "snapshot_series":
                have_snapshots = True
                snapshots["period_s"] = record.get("period_s")
                snapshots["series"][record["metric"]] = {
                    "times": record["times"],
                    "values": record["values"],
                }
    dump = {"metrics": metrics, "trace": trace}
    if have_snapshots:
        dump["snapshots"] = snapshots
    return dump


def read_telemetry_jsonl(path: str) -> typing.List[dict]:
    """Load a campaign telemetry stream (one JSON event per line).

    The reader for :class:`repro.runner.telemetry.TelemetryWriter`
    files: returns the raw event records in file order, skipping blank
    lines.  Used by the HTML campaign report to join ``campaign_end``
    summaries, failures, and per-cell ``chaos_verdict`` /
    ``qoe_cell`` events back to the aggregated metrics.
    """
    events: typing.List[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def write_json(dump: dict, path: str) -> None:
    """Write a full observability dump as one pretty-printed JSON file."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(dump, handle, indent=1, sort_keys=False, default=str)
        handle.write("\n")
