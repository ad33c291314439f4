"""Human-readable summaries of Chrome trace files (``repro obs``).

A trace produced by ``--trace-out`` (or fetched from ``GET /v1/trace``)
carries both the span events and a metrics snapshot under
``otherData.metrics``.  This module aggregates that into the terminal
tables the ``repro obs`` subcommand prints: top spans by cumulative
and self wall time, counter/gauge listings, and histogram summaries
with bucket-boundary p50/p99 estimates.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Mapping, Optional

__all__ = ["load_trace", "summarize_spans", "render_report"]


def load_trace(path: str) -> Dict[str, Any]:
    """Parse a Chrome trace-event JSON file (object or bare array form)."""
    with open(path, "r", encoding="utf-8") as stream:
        body = json.load(stream)
    if isinstance(body, list):
        body = {"traceEvents": body, "otherData": {}}
    if not isinstance(body, dict) or "traceEvents" not in body:
        raise ValueError(f"{path}: not a Chrome trace-event file")
    return body


def summarize_spans(
    trace_events: Iterable[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Aggregate complete-span events by name, sorted by cumulative time.

    Returns rows of ``{name, count, total_s, self_s, avg_s, max_s}``;
    ``self_s`` is exclusive time: ``X`` spans nest per pid/tid, and a
    span's self time is its duration minus what the spans directly
    inside it cover.  Instant events get ``total_s = 0`` and are listed
    by count.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    by_thread: Dict[Any, List[Any]] = {}
    for event in trace_events:
        name = event.get("name", "?")
        phase = event.get("ph")
        row = rows.setdefault(name, {"name": name, "count": 0, "total_s": 0.0,
                                     "self_s": 0.0, "max_s": 0.0})
        row["count"] += 1
        if phase == "X":
            dur_s = float(event.get("dur", 0.0)) / 1e6
            row["total_s"] += dur_s
            row["self_s"] += dur_s
            row["max_s"] = max(row["max_s"], dur_s)
            start = float(event.get("ts", 0.0)) / 1e6
            thread = (event.get("pid"), event.get("tid"))
            by_thread.setdefault(thread, []).append((start, start + dur_s, name))
    for spans in by_thread.values():
        spans.sort(key=lambda span: (span[0], -span[1]))
        stack: List[Any] = []
        for start, end, name in spans:
            while stack and stack[-1][1] <= start:
                stack.pop()
            if stack:
                parent_end, parent = stack[-1][1:]
                rows[parent]["self_s"] -= min(end, parent_end) - start
            stack.append((start, end, name))
    for row in rows.values():
        row["avg_s"] = row["total_s"] / row["count"] if row["count"] else 0.0
    return sorted(rows.values(), key=lambda r: (-r["total_s"], r["name"]))


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:8.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:7.2f}ms"
    return f"{value * 1e6:7.1f}us"


def _snapshot_quantile(
    bounds: List[float], buckets: List[int], q: float,
) -> Optional[float]:
    """Bucket-boundary quantile from a snapshot's (bounds, counts) pair."""
    total = sum(buckets)
    if not total:
        return None
    rank = q * total
    seen = 0
    for index, count in enumerate(buckets):
        seen += count
        if seen >= rank and count:
            return bounds[index] if index < len(bounds) else math.inf
    return math.inf


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def render_report(body: Mapping[str, Any], top: int = 20) -> str:
    """The full ``repro obs`` text report for one loaded trace body."""
    lines: List[str] = []
    trace_events = body.get("traceEvents", [])
    spans = summarize_spans(trace_events)

    lines.append(f"trace: {len(trace_events)} events, "
                 f"{len(spans)} distinct names")
    other = body.get("otherData") or {}
    if other.get("evictions"):
        lines.append(f"  (buffer evicted oldest events "
                     f"{other['evictions']} time(s) — totals are partial)")
    lines.append("")

    if spans:
        lines.append("top spans by cumulative wall time")
        lines.append(f"  {'span':<32} {'count':>7} {'total':>10} "
                     f"{'self':>10} {'avg':>10} {'max':>10}")
        for row in spans[:top]:
            lines.append(
                f"  {row['name']:<32} {row['count']:>7} "
                f"{_fmt_seconds(row['total_s']):>10} "
                f"{_fmt_seconds(row['self_s']):>10} "
                f"{_fmt_seconds(row['avg_s']):>10} "
                f"{_fmt_seconds(row['max_s']):>10}"
            )
        if len(spans) > top:
            lines.append(f"  ... {len(spans) - top} more")
        lines.append("")

    metrics = other.get("metrics") or {}
    counters = metrics.get("counters", [])
    gauges = metrics.get("gauges", [])
    histograms = metrics.get("histograms", [])

    if counters or gauges:
        lines.append("counters and gauges")
        for item in sorted(
            counters + gauges,
            key=lambda i: (i["name"], sorted(i.get("labels", {}).items())),
        ):
            label = item["name"] + _format_labels(item.get("labels", {}))
            value = item["value"]
            rendered = str(int(value)) if float(value).is_integer() else f"{value:.6g}"
            lines.append(f"  {label:<56} {rendered:>12}")
        lines.append("")

    if histograms:
        lines.append("histograms (bucket-boundary quantile estimates)")
        lines.append(f"  {'histogram':<48} {'count':>7} {'mean':>10} "
                     f"{'p50':>10} {'p99':>10}")
        for item in sorted(
            histograms,
            key=lambda i: (i["name"], sorted(i.get("labels", {}).items())),
        ):
            label = item["name"] + _format_labels(item.get("labels", {}))
            count = item.get("count", 0)
            mean = (item.get("sum", 0.0) / count) if count else 0.0
            bounds = item.get("bounds", [])
            buckets = item.get("buckets", [])
            p50 = _snapshot_quantile(bounds, buckets, 0.50)
            p99 = _snapshot_quantile(bounds, buckets, 0.99)

            def _q(value: Optional[float]) -> str:
                if value is None:
                    return "-"
                if value == math.inf:
                    return ">max"
                return _fmt_seconds(value)

            lines.append(
                f"  {label:<48} {count:>7} {_fmt_seconds(mean):>10} "
                f"{_q(p50):>10} {_q(p99):>10}"
            )
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
