"""Static HTML campaign reports: one page joining every artifact.

``python -m repro report --html out.html --telemetry run.jsonl
--metrics-dir metrics/`` renders a single self-contained page from the
artifacts a campaign leaves behind:

* the **aggregated campaign registry** (``campaign_registry.json`` or a
  re-fold of the per-task dumps) as counter/gauge/histogram tables;
* the **task index** (``index.json``): per-task status, seed, params,
  attempts, and dump filename;
* the **telemetry stream**: campaign summary, retries/failures, and the
  per-cell ``chaos_verdict`` / ``qoe_cell`` echo events as their own
  panels.

Everything is joined on the ``campaign_id`` correlation id that
:func:`repro.runner.plan.campaign_id_for` mints, so a report built from
a telemetry file and a metrics directory of the same run is internally
consistent — and a mismatch is called out rather than silently merged.

No dependencies beyond the standard library; all interpolated values
pass through :func:`html.escape`.
"""

from __future__ import annotations

import html
import json
import os
import typing

from .export import read_telemetry_jsonl
from .fleet import (
    INDEX_FILENAME,
    REGISTRY_FILENAME,
    aggregate_metrics_dir,
    load_campaign_registry,
)

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem;
       color: #1a1a2e; }
h1 { border-bottom: 2px solid #1a1a2e; padding-bottom: .3rem; }
h2 { margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: .85rem; }
th, td { border: 1px solid #c5c8d4; padding: .3rem .5rem; text-align: left; }
th { background: #eef0f6; }
tr:nth-child(even) td { background: #f7f8fb; }
code { background: #eef0f6; padding: 0 .25rem; border-radius: 3px; }
.pass { color: #1a7f37; font-weight: 600; }
.fail { color: #c0272d; font-weight: 600; }
.meta { color: #555; font-size: .85rem; }
"""


def _esc(value: typing.Any) -> str:
    return html.escape(str(value))


def _table(
    headers: typing.Sequence[str], rows: typing.Sequence[typing.Sequence]
) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _fmt_labels(labels: typing.Sequence) -> str:
    if not labels:
        return ""
    return ", ".join(f"{_esc(k)}={_esc(v)}" for k, v in labels)


def _verdict_cell(passed: bool) -> str:
    return '<span class="pass">pass</span>' if passed else '<span class="fail">FAIL</span>'


# ----------------------------------------------------------------------
# Source loading
# ----------------------------------------------------------------------
def _load_sources(
    telemetry_path: typing.Optional[str],
    metrics_dir: typing.Optional[str],
) -> dict:
    """Everything the renderer needs, from whichever inputs exist."""
    sources: typing.Dict[str, typing.Any] = {
        "events": [],
        "registry": None,
        "index": None,
        "campaign_ids": [],
        "inputs": [],
    }
    ids: typing.List[str] = []
    if telemetry_path:
        sources["events"] = read_telemetry_jsonl(telemetry_path)
        sources["inputs"].append(telemetry_path)
        for record in sources["events"]:
            cid = record.get("campaign_id")
            if cid and cid not in ids:
                ids.append(cid)
    if metrics_dir:
        sources["inputs"].append(metrics_dir + "/")
        registry_path = os.path.join(metrics_dir, REGISTRY_FILENAME)
        if os.path.exists(registry_path):
            with open(registry_path) as handle:
                raw = json.load(handle)
            cid = raw.get("campaign_id")
            if cid and cid not in ids:
                ids.append(cid)
            sources["registry"] = load_campaign_registry(registry_path)
        else:
            # No pre-folded aggregate: re-fold the per-task dumps.
            sources["registry"] = aggregate_metrics_dir(metrics_dir)
        index_path = os.path.join(metrics_dir, INDEX_FILENAME)
        if os.path.exists(index_path):
            with open(index_path) as handle:
                sources["index"] = json.load(handle)
            cid = sources["index"].get("campaign_id")
            if cid and cid not in ids:
                ids.append(cid)
    sources["campaign_ids"] = ids
    return sources


# ----------------------------------------------------------------------
# Panels
# ----------------------------------------------------------------------
def _panel_summary(events: typing.List[dict]) -> str:
    ends = [e for e in events if e.get("event") == "campaign_end"]
    if not ends:
        return ""
    rows = []
    for end in ends:
        rows.append(
            [
                _esc(end.get("campaign_id", "")),
                _esc(end.get("n_tasks", "")),
                _esc(end.get("executed", "")),
                _esc(end.get("cache_hits", "")),
                _esc(end.get("succeeded", "")),
                _esc(end.get("failed", "")),
                _esc(end.get("retries", "")),
                f"{end.get('wall_time_s', 0.0):.2f}",
                _verdict_cell(bool(end.get("ok"))),
            ]
        )
    return "<h2>Campaign summary</h2>" + _table(
        [
            "Campaign",
            "Tasks",
            "Executed",
            "Cached",
            "OK",
            "Failed",
            "Retries",
            "Wall (s)",
            "Outcome",
        ],
        rows,
    )


def _panel_tasks(index: typing.Optional[dict]) -> str:
    if not index:
        return ""
    rows = []
    for task_id, entry in sorted(index.get("tasks", {}).items()):
        params = json.dumps(entry.get("params", {}), sort_keys=True)
        rows.append(
            [
                f"<code>{_esc(task_id)}</code>",
                _esc(entry.get("experiment", "")),
                _esc(entry.get("seed", "")),
                _esc(params),
                _esc(entry.get("attempts", "")),
                "cache" if entry.get("from_cache") else "run",
                _verdict_cell(entry.get("status") == "ok"),
                f"<code>{_esc(entry.get('dump') or '-')}</code>",
            ]
        )
    return "<h2>Tasks</h2>" + _table(
        ["Task", "Experiment", "Seed", "Params", "Attempts", "Via", "Status", "Dump"],
        rows,
    )


def _panel_metrics(registry) -> str:
    if registry is None or len(registry) == 0:
        return ""
    dump = registry.dump()
    parts = ["<h2>Aggregated metrics</h2>"]
    counters = dump.get("counters", [])
    if counters:
        parts.append("<h3>Counters</h3>")
        parts.append(
            _table(
                ["Name", "Labels", "Value"],
                [
                    [
                        f"<code>{_esc(c['name'])}</code>",
                        _fmt_labels(c["labels"]),
                        _esc(c["value"]),
                    ]
                    for c in counters
                ],
            )
        )
    gauges = dump.get("gauges", [])
    if gauges:
        parts.append("<h3>Gauges (last writer wins)</h3>")
        parts.append(
            _table(
                ["Name", "Labels", "Value", "Writer"],
                [
                    [
                        f"<code>{_esc(g['name'])}</code>",
                        _fmt_labels(g["labels"]),
                        _esc(g["value"]),
                        f"<code>{_esc(g.get('source') or '-')}</code>",
                    ]
                    for g in gauges
                ],
            )
        )
    histograms = dump.get("histograms", [])
    if histograms:
        parts.append("<h3>Histograms</h3>")
        rows = []
        for h in histograms:
            mean = h["sum"] / h["count"] if h["count"] else 0.0
            rows.append(
                [
                    f"<code>{_esc(h['name'])}</code>",
                    _fmt_labels(h["labels"]),
                    _esc(h["count"]),
                    f"{mean:.6g}",
                    _esc(h["min"] if h["min"] is not None else "-"),
                    _esc(h["max"] if h["max"] is not None else "-"),
                ]
            )
        parts.append(_table(["Name", "Labels", "Count", "Mean", "Min", "Max"], rows))
    return "".join(parts)


def _panel_chaos(events: typing.List[dict]) -> str:
    verdicts = [e for e in events if e.get("event") == "chaos_verdict"]
    if not verdicts:
        return ""
    rows = []
    for v in verdicts:
        recovery = v.get("recovery_time_s")
        rows.append(
            [
                _esc(v.get("scenario", "")),
                _esc(v.get("platform", "")),
                _esc(v.get("intensity", "")),
                _esc(v.get("seed", "")),
                f"{recovery:.1f}" if recovery is not None else "never",
                _esc(v.get("session_survival_rate", "")),
                _verdict_cell(bool(v.get("passed"))),
                f"<code>{_esc(v.get('task', ''))}</code>",
            ]
        )
    return "<h2>Chaos verdicts</h2>" + _table(
        [
            "Scenario",
            "Platform",
            "Intensity",
            "Seed",
            "Recovery (s)",
            "Survival",
            "Verdict",
            "Task",
        ],
        rows,
    )


def _panel_qoe(events: typing.List[dict]) -> str:
    cells = [e for e in events if e.get("event") == "qoe_cell"]
    if not cells:
        return ""
    rows = []
    for c in cells:
        rows.append(
            [
                _esc(c.get("platform", "")),
                _esc(c.get("seed", "")),
                _esc(c.get("scenario") or "-"),
                f"{c.get('mean_score', 0.0):.2f}",
                f"{c.get('worst_score', 0.0):.2f}",
                f"{c.get('below_threshold_user_s', 0.0):.0f}",
                f"<code>{_esc(c.get('task', ''))}</code>",
            ]
        )
    return "<h2>QoE cells</h2>" + _table(
        ["Platform", "Seed", "Scenario", "Mean MOS", "Worst", "Below (s)", "Task"],
        rows,
    )


def _panel_failures(events: typing.List[dict]) -> str:
    fails = [e for e in events if e.get("event") == "task_fail"]
    if not fails:
        return ""
    rows = [
        [
            f"<code>{_esc(f.get('task', ''))}</code>",
            _esc(f.get("attempts", "")),
            _esc(f.get("reason", "")),
        ]
        for f in fails
    ]
    return "<h2>Failures</h2>" + _table(["Task", "Attempts", "Reason"], rows)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def build_campaign_report(
    telemetry_path: typing.Optional[str] = None,
    metrics_dir: typing.Optional[str] = None,
    title: str = "Campaign report",
) -> str:
    """Render the HTML report; at least one source must be given."""
    if not telemetry_path and not metrics_dir:
        raise ValueError(
            "build_campaign_report needs a telemetry path and/or a metrics dir"
        )
    sources = _load_sources(telemetry_path, metrics_dir)
    ids = sources["campaign_ids"]
    meta_bits = [
        f"sources: {', '.join(f'<code>{_esc(p)}</code>' for p in sources['inputs'])}"
    ]
    if ids:
        meta_bits.append(
            "campaign: " + ", ".join(f"<code>{_esc(c)}</code>" for c in ids)
        )
    if len(ids) > 1:
        meta_bits.append(
            '<span class="fail">warning: inputs span multiple campaign ids'
            "</span>"
        )
    panels = [
        _panel_summary(sources["events"]),
        _panel_failures(sources["events"]),
        _panel_chaos(sources["events"]),
        _panel_qoe(sources["events"]),
        _panel_tasks(sources["index"]),
        _panel_metrics(sources["registry"]),
    ]
    body = "".join(panel for panel in panels if panel)
    if not body:
        body = "<p>No campaign artifacts found in the given sources.</p>"
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_STYLE}</style></head><body>"
        f"<h1>{_esc(title)}</h1>"
        f"<p class='meta'>{' &middot; '.join(meta_bits)}</p>"
        f"{body}</body></html>\n"
    )


def write_campaign_report(
    path: str,
    telemetry_path: typing.Optional[str] = None,
    metrics_dir: typing.Optional[str] = None,
    title: str = "Campaign report",
) -> str:
    """Write the report to ``path``; returns the path."""
    text = build_campaign_report(
        telemetry_path=telemetry_path, metrics_dir=metrics_dir, title=title
    )
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text)
    return path
